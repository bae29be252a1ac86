//! Path-coverage evidence for the long-lived lock: the rare branches of
//! the Figure-5 protocol (the `spn == oldSpn` spin, the failed
//! descriptor CAS) are not just *safe* under random schedules — this
//! suite proves they actually *execute* across a seed sweep, so the
//! model checks genuinely cover them.

use sal_core::long_lived::{BoundedLongLivedLock, PathStats};
use sal_core::LockCore;
use sal_memory::{Mem, MemoryBuilder, NeverAbort};
use sal_obs::NoProbe;
use sal_runtime::{simulate, BurstySchedule, RandomSchedule, SimOptions};

fn run_contended(seed: u64, bursty: bool) -> PathStats {
    let n = 4;
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, n, 2);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let policy: Box<dyn sal_runtime::SchedulePolicy> = if bursty {
        Box::new(BurstySchedule::seeded(seed, 0.9))
    } else {
        Box::new(RandomSchedule::seeded(seed))
    };
    simulate(
        &mem,
        n,
        policy,
        SimOptions {
            max_steps: 10_000_000,
            ..SimOptions::default()
        },
        |ctx| {
            for _ in 0..6 {
                assert!(lock
                    .enter_core(ctx.mem, ctx.pid, &NeverAbort, &NoProbe)
                    .entered());
                ctx.mem.faa(ctx.pid, cs, 1);
                lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
            }
        },
    )
    .unwrap();
    assert_eq!(mem.read(0, cs), (n * 6) as u64);
    lock.stats()
}

#[test]
fn contention_exercises_every_protocol_path() {
    let mut total_spins = 0;
    let mut total_skips = 0;
    let mut total_switches = 0;
    let mut total_failures = 0;
    for seed in 0..30 {
        let stats = run_contended(seed, seed % 2 == 0);
        total_spins += stats.spin_waits;
        total_skips += stats.spin_revalidation_skips;
        total_switches += stats.switches;
        total_failures += stats.switch_cas_failures;
        // Every run with 24 passages must switch instances at least once.
        assert!(
            stats.switches >= 1,
            "seed {seed}: no instance switch in 24 passages"
        );
    }
    assert!(
        total_spins > 0,
        "the spn == oldSpn spin path never ran in 30 seeds — schedules too tame"
    );
    assert!(
        total_switches >= 30,
        "switching is the protocol's heartbeat: {total_switches}"
    );
    // CAS failures (a racer incremented the refcount between lines 70
    // and 76) are schedule luck; across 30 seeds with bursty schedules
    // we expect at least one.
    assert!(
        total_failures + total_skips > 0,
        "no descriptor race observed across 30 seeds"
    );
}

#[test]
fn solo_runs_switch_without_spinning() {
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, 1, 2);
    let mem = b.build_cc(1);
    for _ in 0..10 {
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
    }
    let stats = lock.stats();
    assert_eq!(stats.spin_waits, 0, "a solo process never waits");
    assert_eq!(stats.switches, 10, "every solo passage switches");
    assert_eq!(stats.switch_cas_failures, 0);
}

#[test]
fn spin_pools_never_run_dry_and_a_failed_switch_keeps_its_pair() {
    // Each process holds one prepared spin node from layout on, so its
    // pool hands out one node fewer; allocate's counting argument says
    // that still suffices. Aborters leave their epoch waits early and
    // re-announce, which keeps nodes pinned, and a failed descriptor CAS
    // leaves the prepared pair for the process's next switch. An
    // allocation that ran dry panics the run.
    let mut failed_switches = 0;
    for n in 1..=3 {
        for seed in 0..30u64 {
            let mut b = MemoryBuilder::new();
            let lock = BoundedLongLivedLock::layout(&mut b, n, 2);
            let cs = b.alloc(0);
            let mem = b.build_cc(n);
            let abort_plan = (1..n).map(|q| (q, seed % 40 + 15 * q as u64)).collect();
            simulate(
                &mem,
                n,
                Box::new(BurstySchedule::seeded(seed, 0.9)),
                SimOptions {
                    max_steps: 10_000_000,
                    abort_plan,
                    ..SimOptions::default()
                },
                |ctx| {
                    for _ in 0..12 {
                        if lock
                            .enter_core(ctx.mem, ctx.pid, ctx.signal, &NoProbe)
                            .entered()
                        {
                            ctx.mem.faa(ctx.pid, cs, 1);
                            lock.exit_core(ctx.mem, ctx.pid, &NoProbe);
                        }
                    }
                },
            )
            .unwrap_or_else(|e| panic!("n = {n}, seed {seed}: {e}"));
            let stats = lock.stats();
            assert!(stats.switches >= 1, "n = {n}, seed {seed}: no switch");
            failed_switches += stats.switch_cas_failures;
        }
    }
    assert!(
        failed_switches > 0,
        "no failed descriptor CAS in 90 runs: the kept-pair path never ran"
    );
}
