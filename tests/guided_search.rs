//! Guided-search behaviour on real lock workloads: RMR witness
//! hunting, dropped-work accounting, determinism across worker counts,
//! and the coverage-feedback fuzzer actually finding races.

use sal_bench::{worst_case_sweep, ExploreCell, LockKind};
use sal_memory::{Layered, Mem, MemoryBuilder};
use sal_obs::NoProbe;
use sal_runtime::{
    explore_guided, simulate, ExploreOptions, ForcedSchedule, GuidedOutcome, OpTraceSink,
    SimOptions, Strategy,
};

/// Best-first search must rediscover, within a fixed run budget, a
/// schedule at least as expensive as the hand-crafted adversarial
/// worst-case cells of `tests/rmr_bounds.rs` (the `worst_case_sweep`
/// shape: all but two processes abort while queued).
#[test]
fn best_first_rediscovers_the_worst_case_witness() {
    let kind = LockKind::OneShot { b: 4 };
    let n = 5;
    let reference = worst_case_sweep(kind, n, 3, NoProbe).unwrap();
    assert!(reference.mutex_ok);

    let cell = ExploreCell::contended(kind, n);
    let opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 600,
        max_branch_depth: 120,
        ..ExploreOptions::default()
    };
    let r = explore_guided(&opts, Strategy::BestFirst, |p| cell.guided_run(p));
    assert!(
        r.violation.is_none(),
        "witness hunt found a real bug: {:?}",
        r.violation
    );
    assert!(
        r.best_cost >= reference.max_entered_rmrs,
        "best-first reached only {} RMRs in {} runs; the hand-crafted witness costs {}",
        r.best_cost,
        r.runs,
        reference.max_entered_rmrs
    );
    assert!(
        !r.best_schedule.is_empty(),
        "the witness schedule must be reported"
    );
}

/// DPOR visits a fraction of BFS's runs on a contended cell, reports
/// its dropped work honestly, and still agrees on safety.
#[test]
fn dpor_prunes_aggressively_and_stays_safe() {
    let cell = ExploreCell {
        aborters: 1,
        ..ExploreCell::new(LockKind::OneShot { b: 4 }, 3)
    };
    let opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 20_000,
        max_branch_depth: 80,
        ..ExploreOptions::default()
    };
    let bfs = explore_guided(&opts, Strategy::Bfs, |p| cell.guided_run(p));
    let dpor = explore_guided(&opts, Strategy::Dpor, |p| cell.guided_run(p));
    assert!(bfs.violation.is_none() && dpor.violation.is_none());
    assert!(!bfs.truncated && !dpor.truncated);
    assert!(
        dpor.runs * 4 <= bfs.runs,
        "DPOR should collapse equivalent interleavings: {} vs BFS {}",
        dpor.runs,
        bfs.runs
    );
    assert!(dpor.pruned > 0, "no children pruned on a contended cell?");
    assert_eq!(bfs.pruned, 0, "BFS must stay exhaustive");
    assert_eq!(bfs.deduped, 0, "BFS must expand everything");
    assert_eq!(
        bfs.best_cost, dpor.best_cost,
        "pruning changed the observed worst passage cost"
    );
}

/// Every strategy's full result — including the exact schedule of every
/// executed run — is identical at any worker count.
#[test]
fn results_are_identical_at_any_jobs_count() {
    let cell = ExploreCell {
        aborters: 1,
        ..ExploreCell::new(LockKind::OneShot { b: 2 }, 3)
    };
    for strategy in [
        Strategy::Dpor,
        Strategy::BestFirst,
        Strategy::Fuzz { seed: 7 },
    ] {
        let run_at = |jobs: usize| {
            let opts = ExploreOptions {
                max_deviations: 2,
                max_runs: 150,
                max_branch_depth: 80,
                jobs,
                collect_schedules: true,
                ..ExploreOptions::default()
            };
            explore_guided(&opts, strategy, |p| cell.guided_run(p))
        };
        let a = run_at(1);
        let b = run_at(4);
        assert_eq!(a.runs, b.runs, "{}", strategy.label());
        assert_eq!(
            a.visited,
            b.visited,
            "{}: executed different schedules",
            strategy.label()
        );
        assert_eq!(a.distinct_states, b.distinct_states, "{}", strategy.label());
        assert_eq!(a.pruned, b.pruned, "{}", strategy.label());
        assert_eq!(a.deduped, b.deduped, "{}", strategy.label());
        assert_eq!(a.best_cost, b.best_cost, "{}", strategy.label());
        assert_eq!(a.best_schedule, b.best_schedule, "{}", strategy.label());
        assert_eq!(a.violation, b.violation, "{}", strategy.label());
    }
}

/// The Jayanti–Jayanti lock as a registry cell under guided search:
/// exhaustive BFS and pruned DPOR must agree on safety *and* on the
/// worst observed passage cost of a contended abandoning cell.
#[test]
fn jj_amortized_bfs_and_dpor_agree_on_contended_cell() {
    let cell = ExploreCell {
        aborters: 1,
        ..ExploreCell::new(LockKind::JjAmortized, 3)
    };
    let opts = ExploreOptions {
        max_deviations: 1,
        max_runs: 20_000,
        max_branch_depth: 120,
        ..ExploreOptions::default()
    };
    let bfs = explore_guided(&opts, Strategy::Bfs, |p| cell.guided_run(p));
    let dpor = explore_guided(&opts, Strategy::Dpor, |p| cell.guided_run(p));
    assert!(bfs.violation.is_none(), "BFS: {:?}", bfs.violation);
    assert!(dpor.violation.is_none(), "DPOR: {:?}", dpor.violation);
    assert!(!bfs.truncated && !dpor.truncated, "budget too small");
    assert_eq!(
        bfs.best_cost, dpor.best_cost,
        "pruning changed the observed worst passage cost"
    );
    assert!(
        dpor.runs <= bfs.runs,
        "DPOR explored more than BFS: {} vs {}",
        dpor.runs,
        bfs.runs
    );
}

/// The racy test-then-set lock from the explorer's own tests, with an
/// op trace — mutation fodder for the fuzzer.
fn broken_lock_guided(policy: ForcedSchedule) -> GuidedOutcome {
    let mut b = MemoryBuilder::new();
    let flag = b.alloc(0);
    let in_cs = b.alloc(0);
    let max_seen = b.alloc(0);
    let mem = b.build_cc(2);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let report = simulate(&traced, 2, Box::new(policy), SimOptions::default(), |ctx| {
        loop {
            if ctx.mem.read(ctx.pid, flag) == 0 {
                ctx.mem.write(ctx.pid, flag, 1); // should be CAS!
                break;
            }
        }
        let inside = ctx.mem.faa(ctx.pid, in_cs, 1) + 1;
        let seen = ctx.mem.read(ctx.pid, max_seen);
        if inside > seen {
            ctx.mem.write(ctx.pid, max_seen, inside);
        }
        ctx.mem.faa(ctx.pid, in_cs, 1u64.wrapping_neg());
        ctx.mem.write(ctx.pid, flag, 0);
    });
    let ops = traced.into_layer().take();
    let verdict = (|| {
        report.map_err(|e| e.to_string())?;
        if mem.read(0, max_seen) > 1 {
            Err("two processes in the CS".into())
        } else {
            Ok(())
        }
    })();
    GuidedOutcome {
        verdict,
        ops,
        cost: 0,
    }
}

/// The seeded fuzzer finds the test-then-set race within its budget —
/// and, being a deterministic function of the seed, finds the same
/// witness every time.
#[test]
fn fuzzer_finds_the_broken_lock_race_deterministically() {
    let opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 2_000,
        max_branch_depth: 100,
        ..ExploreOptions::default()
    };
    let a = explore_guided(&opts, Strategy::Fuzz { seed: 1 }, broken_lock_guided);
    assert!(
        a.violation.is_some(),
        "fuzzer missed the race in {} runs ({} distinct states)",
        a.runs,
        a.distinct_states
    );
    let b = explore_guided(&opts, Strategy::Fuzz { seed: 1 }, broken_lock_guided);
    assert_eq!(a.violation, b.violation, "same seed, same witness");
    assert_eq!(a.runs, b.runs);
}

/// Truncated work is counted, not silently dropped.
#[test]
fn budget_truncation_reports_unexecuted_prefixes() {
    let cell = ExploreCell {
        aborters: 1,
        ..ExploreCell::new(LockKind::OneShot { b: 2 }, 3)
    };
    let opts = ExploreOptions {
        max_deviations: 2,
        max_runs: 10,
        max_branch_depth: 80,
        ..ExploreOptions::default()
    };
    let r = explore_guided(&opts, Strategy::Bfs, |p| cell.guided_run(p));
    assert_eq!(r.runs, 10);
    assert!(r.truncated);
    assert!(
        r.truncated_runs > 0,
        "a truncated search must say how much it dropped"
    );
}
