//! Systematic (bounded-deviation) exploration of the paper's locks:
//! every schedule within the deviation budget must preserve mutual
//! exclusion, resolve every attempt, and never lose a handoff. This is
//! the strongest correctness evidence in the suite — thousands of
//! *distinct* interleavings, not samples.

use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::one_shot::OneShotLock;
use sal_core::tree::Ascent;
use sal_core::LockCore;
use sal_memory::{Layered, Mem, MemoryBuilder, SignalFn};
use sal_obs::NoProbe;
use sal_runtime::{
    explore, explore_guided, simulate, EventKind, ExploreOptions, ForcedSchedule, GuidedOutcome,
    OpTraceSink, SimOptions, Strategy,
};

/// Drive the one-shot lock under one forced schedule, recording the op
/// trace; `aborter_delay[p]` = Some(steps) makes process `p` abort
/// after that many global steps in `enter`.
fn one_shot_guided(
    policy: ForcedSchedule,
    n: usize,
    b: usize,
    aborter_delay: &[Option<u64>],
) -> GuidedOutcome {
    let mut builder = MemoryBuilder::new();
    let lock = OneShotLock::layout_with(&mut builder, n, b, Ascent::Adaptive);
    let cs = builder.alloc(0);
    let mem = builder.build_cc(n);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let report = simulate(
        &traced,
        n,
        Box::new(policy),
        SimOptions {
            max_steps: 100_000,
            ..SimOptions::default()
        },
        |ctx| {
            let entered = match aborter_delay[ctx.pid] {
                None => lock
                    .enter_core(ctx.mem, ctx.pid, &sal_memory::NeverAbort, &NoProbe)
                    .entered(),
                Some(delay) => {
                    let deadline = ctx.steps() + delay;
                    let sig = SignalFn(|| ctx.steps() >= deadline);
                    lock.enter_core(ctx.mem, ctx.pid, &sig, &NoProbe).entered()
                }
            };
            if entered {
                ctx.event(EventKind::CsEnter);
                ctx.mem.faa(ctx.pid, cs, 1);
                ctx.event(EventKind::CsLeave);
                lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
            } else {
                ctx.event(EventKind::Aborted);
            }
        },
    );
    // Verdict reads below go through the raw `mem`, so the trace stays
    // step-aligned with the schedule.
    let ops = traced.into_layer().take();
    let verdict = (|| {
        let report = report.map_err(|e| e.to_string())?;
        report
            .log
            .check_mutual_exclusion()
            .map_err(|v| format!("mutual exclusion violated: {v:?}"))?;
        let outcomes = report.log.outcomes(n);
        let resolved: usize = outcomes.iter().map(|o| o.0 + o.1).sum();
        if resolved != n {
            return Err(format!("only {resolved}/{n} attempts resolved"));
        }
        let entered: usize = outcomes.iter().map(|o| o.0).sum();
        if mem.read(0, cs) != entered as u64 {
            return Err("CS counter inconsistent".into());
        }
        // Non-aborting processes must always enter (no lost handoff).
        for (p, o) in outcomes.iter().enumerate() {
            if aborter_delay[p].is_none() && o.0 != 1 {
                return Err(format!("process {p} lost its handoff"));
            }
        }
        Ok(())
    })();
    GuidedOutcome {
        verdict,
        ops,
        cost: 0,
    }
}

fn one_shot_run(
    policy: ForcedSchedule,
    n: usize,
    b: usize,
    aborter_delay: &[Option<u64>],
) -> Result<(), String> {
    one_shot_guided(policy, n, b, aborter_delay).verdict
}

#[test]
fn one_shot_three_processes_no_aborts() {
    let delays = [None, None, None];
    let result = explore(
        &ExploreOptions {
            max_deviations: 2,
            max_runs: 4_000,
            max_branch_depth: 60,
            ..ExploreOptions::default()
        },
        |policy| one_shot_run(policy, 3, 2, &delays),
    );
    result.assert_ok();
    assert!(result.runs > 200, "explored only {} schedules", result.runs);
}

#[test]
fn one_shot_with_an_impatient_aborter() {
    // Process 1 aborts almost immediately — its Remove races every
    // possible position of the others' FindNext.
    let delays = [None, Some(2), None];
    let result = explore(
        &ExploreOptions {
            max_deviations: 2,
            max_runs: 4_000,
            max_branch_depth: 60,
            ..ExploreOptions::default()
        },
        |policy| one_shot_run(policy, 3, 2, &delays),
    );
    result.assert_ok();
    assert!(result.runs > 200);
}

#[test]
fn one_shot_two_aborters_crossing_paths() {
    let delays = [None, Some(1), Some(3), None];
    let result = explore(
        &ExploreOptions {
            max_deviations: 1,
            max_runs: 4_000,
            max_branch_depth: 80,
            ..ExploreOptions::default()
        },
        |policy| one_shot_run(policy, 4, 2, &delays),
    );
    result.assert_ok();
    assert!(result.runs > 40, "explored only {} schedules", result.runs);
}

#[test]
fn long_lived_two_processes_two_passages() {
    let result = explore(
        &ExploreOptions {
            max_deviations: 1,
            max_runs: 3_000,
            max_branch_depth: 120,
            ..ExploreOptions::default()
        },
        |policy| {
            let n = 2;
            let mut builder = MemoryBuilder::new();
            let lock = BoundedLongLivedLock::layout(&mut builder, n, 2);
            let cs = builder.alloc(0);
            let mem = builder.build_cc(n);
            let report = simulate(
                &mem,
                n,
                Box::new(policy),
                SimOptions {
                    max_steps: 200_000,
                    ..SimOptions::default()
                },
                |ctx| {
                    for _ in 0..2 {
                        let entered = lock
                            .enter_core(ctx.mem, ctx.pid, &sal_memory::NeverAbort, &NoProbe)
                            .entered();
                        assert!(entered);
                        ctx.event(EventKind::CsEnter);
                        ctx.mem.faa(ctx.pid, cs, 1);
                        ctx.event(EventKind::CsLeave);
                        lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
                    }
                },
            )
            .map_err(|e| e.to_string())?;
            report
                .log
                .check_mutual_exclusion()
                .map_err(|v| format!("{v:?}"))?;
            if mem.read(0, cs) != 4 {
                return Err("missing passages".into());
            }
            Ok(())
        },
    );
    result.assert_ok();
    assert!(result.runs > 100, "explored only {} schedules", result.runs);
}

// ---- strategy equivalence -------------------------------------------
//
// DPOR pruning and best-first ordering must never change *what* the
// explorer concludes, only how fast it gets there: on every config
// above, both must report the same safety verdict as exhaustive BFS —
// and, when a violation exists, the same lexicographically least
// canonical witness.

/// Explore `run` under BFS, DPOR and best-first with a budget large
/// enough that nobody truncates, and assert verdict + canonical-witness
/// equality.
fn assert_strategies_agree(
    opts: &ExploreOptions,
    label: &str,
    run: impl Fn(ForcedSchedule) -> GuidedOutcome + Sync,
) {
    // Never stop early: different strategies reach their first
    // violation at different times, so equivalence is over the least
    // witness of the whole (pruned) search space.
    let opts = ExploreOptions {
        stop_on_violation: false,
        ..opts.clone()
    };
    let bfs = explore_guided(&opts, Strategy::Bfs, &run);
    assert!(
        !bfs.truncated,
        "{label}: BFS truncated at {} runs — budget too small for an equivalence check",
        bfs.runs
    );
    for strategy in [Strategy::Dpor, Strategy::BestFirst] {
        let r = explore_guided(&opts, strategy, &run);
        assert!(
            !r.truncated,
            "{label}/{}: truncated at {} runs",
            strategy.label(),
            r.runs
        );
        assert_eq!(
            bfs.violation.is_some(),
            r.violation.is_some(),
            "{label}: {} disagrees with BFS on safety (BFS: {:?}, {}: {:?})",
            strategy.label(),
            bfs.violation,
            strategy.label(),
            r.violation
        );
        assert_eq!(
            bfs.violation_canonical,
            r.violation_canonical,
            "{label}: {} found a different least witness",
            strategy.label()
        );
    }
}

#[test]
fn strategies_agree_on_every_one_shot_config() {
    // (n, b, per-process abort delay, deviations, branch depth). The
    // last row is a wider-fan-out contended cell: B = 4, one aborter
    // with the 8n deadline of `ExploreCell`, 2 deviations.
    type Config<'a> = (usize, usize, &'a [Option<u64>], usize, usize);
    let configs: &[Config] = &[
        (3, 2, &[None, None, None], 2, 60),
        (3, 2, &[None, Some(2), None], 2, 60),
        (4, 2, &[None, Some(1), Some(3), None], 1, 80),
        (3, 4, &[None, Some(24), None], 2, 80),
    ];
    for &(n, b, delays, deviations, depth) in configs {
        let opts = ExploreOptions {
            max_deviations: deviations,
            max_runs: 20_000,
            max_branch_depth: depth,
            ..ExploreOptions::default()
        };
        assert_strategies_agree(&opts, &format!("one-shot n={n} b={b}"), |policy| {
            one_shot_guided(policy, n, b, delays)
        });
    }
}

#[test]
fn strategies_agree_on_the_long_lived_config() {
    let opts = ExploreOptions {
        max_deviations: 1,
        max_runs: 20_000,
        max_branch_depth: 120,
        ..ExploreOptions::default()
    };
    assert_strategies_agree(&opts, "long-lived n=2", |policy| {
        let n = 2;
        let mut builder = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut builder, n, 2);
        let cs = builder.alloc(0);
        let mem = builder.build_cc(n);
        let traced = Layered::over(&mem, OpTraceSink::new());
        let report = simulate(
            &traced,
            n,
            Box::new(policy),
            SimOptions {
                max_steps: 200_000,
                ..SimOptions::default()
            },
            |ctx| {
                for _ in 0..2 {
                    let entered = lock
                        .enter_core(ctx.mem, ctx.pid, &sal_memory::NeverAbort, &NoProbe)
                        .entered();
                    assert!(entered);
                    ctx.event(EventKind::CsEnter);
                    ctx.mem.faa(ctx.pid, cs, 1);
                    ctx.event(EventKind::CsLeave);
                    lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
                }
            },
        );
        let ops = traced.into_layer().take();
        let verdict = (|| {
            let report = report.map_err(|e| e.to_string())?;
            report
                .log
                .check_mutual_exclusion()
                .map_err(|v| format!("{v:?}"))?;
            if mem.read(0, cs) != 4 {
                return Err("missing passages".into());
            }
            Ok(())
        })();
        GuidedOutcome {
            verdict,
            ops,
            cost: 0,
        }
    });
}

/// One forced-schedule run of the Jayanti–Jayanti lock: `n` processes
/// take 2 passages each; `aborter_delay[p] = Some(k)` makes process
/// `p` signal abort `k` global steps into each enter (a signalled
/// enter may still win the CAS race and enter — both resolutions are
/// counted).
fn jj_guided(policy: ForcedSchedule, n: usize, aborter_delay: &[Option<u64>]) -> GuidedOutcome {
    let mut builder = MemoryBuilder::new();
    let lock = sal_core::long_lived::JjLock::layout(&mut builder, n);
    let cs = builder.alloc(0);
    let mem = builder.build_cc(n);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let entered_total = std::sync::atomic::AtomicU64::new(0);
    let report = simulate(
        &traced,
        n,
        Box::new(policy),
        SimOptions {
            max_steps: 200_000,
            ..SimOptions::default()
        },
        |ctx| {
            for _ in 0..2 {
                let entered = match aborter_delay[ctx.pid] {
                    None => lock
                        .enter_core(ctx.mem, ctx.pid, &sal_memory::NeverAbort, &NoProbe)
                        .entered(),
                    Some(delay) => {
                        let deadline = ctx.steps() + delay;
                        let sig = SignalFn(|| ctx.steps() >= deadline);
                        lock.enter_core(ctx.mem, ctx.pid, &sig, &NoProbe).entered()
                    }
                };
                if entered {
                    ctx.event(EventKind::CsEnter);
                    ctx.mem.faa(ctx.pid, cs, 1);
                    ctx.event(EventKind::CsLeave);
                    lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
                    entered_total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                } else {
                    ctx.event(EventKind::Aborted);
                }
            }
        },
    );
    let ops = traced.into_layer().take();
    let verdict = (|| {
        let report = report.map_err(|e| e.to_string())?;
        report
            .log
            .check_mutual_exclusion()
            .map_err(|v| format!("mutual exclusion violated: {v:?}"))?;
        if mem.read(0, cs) != entered_total.load(std::sync::atomic::Ordering::Relaxed) {
            return Err("CS counter inconsistent".into());
        }
        // Non-aborting processes must complete both passages: no
        // abandoned node may wedge the queue.
        let expected: u64 = 2 * aborter_delay.iter().filter(|d| d.is_none()).count() as u64;
        if entered_total.load(std::sync::atomic::Ordering::Relaxed) < expected {
            return Err("a normal process lost a passage".into());
        }
        Ok(())
    })();
    GuidedOutcome {
        verdict,
        ops,
        cost: 0,
    }
}

#[test]
fn strategies_agree_on_the_jj_amortized_configs() {
    // Clean two-process config (every interleaving of 2×2 passages),
    // then an abandoning config: process 1 signals abort mid-enter,
    // exercising the abort/grant CAS race and the exit-walk consumption
    // of abandoned nodes under every explored schedule.
    let configs: &[(&str, &[Option<u64>])] = &[
        ("jj clean n=2", &[None, None]),
        ("jj aborting n=2", &[None, Some(6)]),
    ];
    for &(label, delays) in configs {
        let opts = ExploreOptions {
            max_deviations: 1,
            max_runs: 20_000,
            max_branch_depth: 120,
            ..ExploreOptions::default()
        };
        assert_strategies_agree(&opts, label, |policy| jj_guided(policy, 2, delays));
    }
}

/// A deliberately racy test-then-set "lock": the equivalence contract
/// must hold on *violating* configs too — all three strategies find a
/// violation and canonicalize to the same least witness.
fn broken_lock_guided(policy: ForcedSchedule) -> GuidedOutcome {
    let mut b = MemoryBuilder::new();
    let flag = b.alloc(0);
    let in_cs = b.alloc(0);
    let max_seen = b.alloc(0);
    let mem = b.build_cc(2);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let report = simulate(&traced, 2, Box::new(policy), SimOptions::default(), |ctx| {
        // BROKEN: read, then write — not atomic.
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

#[test]
fn strategies_agree_on_a_violating_config() {
    let opts = ExploreOptions {
        max_deviations: 1,
        max_runs: 20_000,
        max_branch_depth: 100,
        ..ExploreOptions::default()
    };
    assert_strategies_agree(&opts, "broken test-then-set", broken_lock_guided);
    // And the witness really exists.
    let opts = ExploreOptions {
        stop_on_violation: false,
        ..opts
    };
    let r = explore_guided(&opts, Strategy::Dpor, broken_lock_guided);
    assert!(r.violation.is_some(), "DPOR missed the race entirely");
    assert!(
        r.violation_canonical.is_some(),
        "violation must come with its canonical witness"
    );
}
