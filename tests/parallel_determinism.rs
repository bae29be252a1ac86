//! Determinism across worker counts (ISSUE PR-3 satellite): the whole
//! observable output of a parallel experiment pass — result points,
//! rendered tables, merged JSONL event streams, exploration verdicts —
//! must be byte-identical at `--jobs 1` and `--jobs 8`.

use sal_bench::{worst_case_sweep, LockKind, Table};
use sal_memory::{Mem, MemoryBuilder};
use sal_obs::{EventLog, ToJson};
use sal_runtime::{explore, pool, simulate, ExploreOptions, SimOptions};

/// Render everything a table1-style probed sweep produces into one
/// string: the aligned table, the points JSON, and the merged event
/// JSONL (per-cell unbounded logs absorbed in cell order).
fn sweep_fingerprint(jobs: usize, seeds: &[u64]) -> String {
    let kinds = [LockKind::OneShot { b: 4 }, LockKind::Scott];
    let ns = [8usize, 16];
    let cells: Vec<(LockKind, usize, u64)> = kinds
        .iter()
        .flat_map(|&kind| {
            ns.iter()
                .flat_map(move |&n| seeds.iter().map(move |&seed| (kind, n, seed)))
        })
        .collect();
    let results = pool::par_map(jobs, &cells, |&(kind, n, seed)| {
        let cell_log = EventLog::unbounded();
        let p = worst_case_sweep(kind, n, seed, cell_log.clone()).expect("sim failed");
        assert!(p.mutex_ok);
        (p, cell_log)
    });
    let log = EventLog::unbounded();
    let mut points = Vec::new();
    let mut table = Table::new("determinism probe", &["lock", "N", "seed", "max RMRs"]);
    for ((kind, n, seed), (p, cell_log)) in cells.iter().zip(results) {
        log.absorb(&cell_log);
        table.row(vec![
            kind.label(),
            n.to_string(),
            seed.to_string(),
            p.max_entered_rmrs.to_string(),
        ]);
        points.push(p);
    }
    format!(
        "{}\n{}\n{}",
        table.render(),
        points.to_json().render(),
        log.to_jsonl()
    )
}

/// Table-1-style probed sweep: identical table + JSON + JSONL at 1 and
/// 8 workers, across three seeds.
#[test]
fn probed_sweep_is_byte_identical_across_worker_counts() {
    let seeds = [1u64, 2, 3];
    let serial = sweep_fingerprint(1, &seeds);
    let parallel = sweep_fingerprint(8, &seeds);
    assert!(
        serial == parallel,
        "parallel sweep output diverged from serial"
    );
    // The fingerprint actually contains the event stream (not just
    // empty logs that would trivially compare equal).
    assert!(serial.contains("\"kind\""), "JSONL section missing events");
}

/// The explorer's racy-lock workload from its own test-suite: a
/// read-then-write "lock" whose mutual-exclusion violation needs one
/// deviation to surface.
fn broken_lock(policy: sal_runtime::ForcedSchedule) -> Result<(), String> {
    let mut b = MemoryBuilder::new();
    let flag = b.alloc(0);
    let in_cs = b.alloc(0);
    let max_seen = b.alloc(0);
    let mem = b.build_cc(2);
    simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
        loop {
            if ctx.mem.read(ctx.pid, flag) == 0 {
                ctx.mem.write(ctx.pid, flag, 1);
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
    })
    .map_err(|e| e.to_string())?;
    if mem.read(0, max_seen) > 1 {
        Err("two processes in the CS".into())
    } else {
        Ok(())
    }
}

/// A correct CAS lock over the same shape: no violation at any budget.
fn cas_lock(policy: sal_runtime::ForcedSchedule) -> Result<(), String> {
    let mut b = MemoryBuilder::new();
    let flag = b.alloc(0);
    let in_cs = b.alloc(0);
    let max_seen = b.alloc(0);
    let mem = b.build_cc(2);
    simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
        while !ctx.mem.cas(ctx.pid, flag, 0, 1) {}
        let inside = ctx.mem.faa(ctx.pid, in_cs, 1) + 1;
        let seen = ctx.mem.read(ctx.pid, max_seen);
        if inside > seen {
            ctx.mem.write(ctx.pid, max_seen, inside);
        }
        ctx.mem.faa(ctx.pid, in_cs, 1u64.wrapping_neg());
        ctx.mem.write(ctx.pid, flag, 0);
    })
    .map_err(|e| e.to_string())?;
    if mem.read(0, max_seen) > 1 {
        Err("two processes in the CS".into())
    } else {
        Ok(())
    }
}

fn explore_at(
    jobs: usize,
    base: &ExploreOptions,
    run: impl Fn(sal_runtime::ForcedSchedule) -> Result<(), String> + Sync,
) -> sal_runtime::ExplorationResult {
    explore(
        &ExploreOptions {
            jobs,
            collect_schedules: true,
            ..base.clone()
        },
        run,
    )
}

/// Exploration is jobs-invariant in every observable: run count,
/// truncation, the violation witness (lexicographically least failing
/// prefix), and the full visited-schedule list in execution order.
#[test]
fn exploration_is_jobs_invariant() {
    let configs = [
        // Finds a violation: the witness must be the same schedule.
        (
            ExploreOptions {
                max_deviations: 1,
                max_runs: 10_000,
                max_branch_depth: 100,
                ..ExploreOptions::default()
            },
            true,
        ),
        // Clean pass over a correct lock.
        (
            ExploreOptions {
                max_deviations: 2,
                max_runs: 2_000,
                max_branch_depth: 40,
                ..ExploreOptions::default()
            },
            false,
        ),
        // Budget-truncated pass.
        (
            ExploreOptions {
                max_deviations: 2,
                max_runs: 7,
                max_branch_depth: 40,
                ..ExploreOptions::default()
            },
            false,
        ),
    ];
    for (base, use_broken) in &configs {
        let reference = if *use_broken {
            explore_at(1, base, broken_lock)
        } else {
            explore_at(1, base, cas_lock)
        };
        for jobs in [2usize, 8] {
            let parallel = if *use_broken {
                explore_at(jobs, base, broken_lock)
            } else {
                explore_at(jobs, base, cas_lock)
            };
            assert_eq!(parallel.runs, reference.runs, "jobs={jobs} {base:?}");
            assert_eq!(
                parallel.truncated, reference.truncated,
                "jobs={jobs} {base:?}"
            );
            assert_eq!(
                parallel.violation, reference.violation,
                "jobs={jobs} {base:?}"
            );
            assert_eq!(parallel.visited, reference.visited, "jobs={jobs} {base:?}");
        }
        if *use_broken {
            assert!(
                reference.violation.is_some(),
                "the broken lock's race went unfound"
            );
        }
    }
}
