//! Model-checking-style integration tests of the one-shot lock
//! (Figure 1 + Figure 3): thousands of seeded random schedules across
//! configurations, asserting the four problem-statement properties of §2
//! plus FCFS (§5.3).

use sal_baselines::TicketLock;
use sal_core::one_shot::OneShotLock;
use sal_core::tree::Ascent;
use sal_core::LockCore;
use sal_memory::{CcMemory, MemoryBuilder, WordId};
use sal_obs::NoProbe;
use sal_runtime::{
    run_lock, BurstySchedule, EventKind, ProcPlan, RandomSchedule, SchedulePolicy, WorkloadReport,
    WorkloadSpec,
};

fn build(n: usize, b: usize, ascent: Ascent) -> (OneShotLock, WordId, CcMemory) {
    let mut builder = MemoryBuilder::new();
    let lock = OneShotLock::layout_with(&mut builder, n, b, ascent);
    let cs = builder.alloc(0);
    (lock, cs, builder.build_cc(n))
}

fn check(
    n: usize,
    b: usize,
    ascent: Ascent,
    plans: Vec<ProcPlan>,
    policy: Box<dyn SchedulePolicy>,
    tag: &str,
) {
    let (lock, cs, mem) = build(n, b, ascent);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 5_000_000,
        lease: 0,
    };
    let report = run_lock(&lock, &mem, cs, &spec, policy, NoProbe)
        .unwrap_or_else(|e| panic!("{tag}: simulation failed: {e}"));
    // Mutual exclusion (requirement 1).
    assert!(
        report.mutex_check.is_ok(),
        "{tag}: {:?}",
        report.mutex_check
    );
    // FCFS (§5.3) among non-aborting processes.
    assert!(report.fcfs_check.is_ok(), "{tag}: {:?}", report.fcfs_check);
    // Every attempt resolves (bounded abort + starvation freedom under a
    // fair schedule): entered + aborted = attempts.
    let resolved: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
    assert_eq!(resolved, n, "{tag}: some attempt never resolved");
    // No lost handoff: the CS counter equals the number of entries times
    // cs_ops.
    let entered = report.total_entered();
    assert_eq!(
        mem_read(&mem, cs),
        (entered * spec.cs_ops) as u64,
        "{tag}: CS effects inconsistent"
    );
}

fn mem_read(mem: &CcMemory, w: WordId) -> u64 {
    use sal_memory::Mem;
    mem.read(0, w)
}

#[test]
fn no_aborts_all_enter_many_seeds() {
    for seed in 0..60 {
        for &(n, b) in &[(3usize, 2usize), (5, 2), (8, 4), (13, 3)] {
            check(
                n,
                b,
                Ascent::Adaptive,
                vec![ProcPlan::normal(1); n],
                Box::new(RandomSchedule::seeded(seed)),
                &format!("clean n={n} b={b} seed={seed}"),
            );
        }
    }
}

#[test]
fn mixed_aborters_many_seeds() {
    for seed in 0..60 {
        for &(n, b) in &[(4usize, 2usize), (6, 2), (9, 4)] {
            let mut plans = Vec::new();
            for p in 0..n {
                if p % 3 == 1 {
                    plans.push(ProcPlan::aborter(1, (seed % 7) * 10 + 5));
                } else {
                    plans.push(ProcPlan::normal(1));
                }
            }
            check(
                n,
                b,
                Ascent::Adaptive,
                plans,
                Box::new(RandomSchedule::seeded(seed)),
                &format!("mixed n={n} b={b} seed={seed}"),
            );
        }
    }
}

#[test]
fn plain_ascent_is_equally_safe() {
    for seed in 0..40 {
        let n = 7;
        let mut plans = vec![ProcPlan::normal(1); n];
        plans[2] = ProcPlan::aborter(1, 15);
        plans[5] = ProcPlan::aborter(1, 25);
        check(
            n,
            2,
            Ascent::Plain,
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("plain seed={seed}"),
        );
    }
}

#[test]
fn bursty_schedules_expose_handoff_races() {
    // Long scheduling runs of a single process maximize the chance that
    // an aborter completes Remove while an exiter is mid-FindNext — the
    // crossed-paths (⊤) responsibility protocol must never lose the
    // lock.
    for seed in 0..60 {
        let n = 6;
        let plans = vec![
            ProcPlan::normal(1),
            ProcPlan::aborter(1, 5),
            ProcPlan::aborter(1, 10),
            ProcPlan::aborter(1, 15),
            ProcPlan::aborter(1, 0),
            ProcPlan::normal(1),
        ];
        check(
            n,
            2,
            Ascent::Adaptive,
            plans,
            Box::new(BurstySchedule::seeded(seed, 0.85)),
            &format!("bursty seed={seed}"),
        );
    }
}

#[test]
fn aborts_that_hand_the_lock_on_say_so() {
    // Step-granular: each process drives its resumable Enter the way a
    // parking driver does. A pending poll stops polling until an exit,
    // or an abort whose step reports a handoff, bumps a shared hint
    // word (or the process's own signal fires). Bursty schedules let an
    // aborter's Remove cross the holder's FindNext, so the aborter runs
    // the handoff itself (Algorithm 3.3 line 15); if its Aborted step
    // did not say so, the waiter it served would never poll again and
    // the run would hit the step limit.
    use sal_core::EnterStep;
    use sal_memory::{AbortSignal, Mem};
    use sal_runtime::{simulate, SimOptions};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let flagged = AtomicUsize::new(0);
    for seed in 0..200u64 {
        let n = 5;
        let mut b = MemoryBuilder::new();
        let lock = OneShotLock::layout(&mut b, n, 2);
        let hint = b.alloc(0);
        let mem = b.build_cc(n);
        let opts = SimOptions {
            max_steps: 200_000,
            abort_plan: vec![(1, seed % 40 + 5), (3, seed % 23 + 10)],
            ..SimOptions::default()
        };
        let policy = Box::new(BurstySchedule::seeded(seed, 0.85));
        simulate(&mem, n, policy, opts, |ctx| {
            let (pid, m) = (ctx.pid, ctx.mem);
            let mut machine = lock.begin_enter();
            loop {
                let seen = m.read(pid, hint);
                match lock.poll_enter(&mut machine, m, pid, ctx.signal) {
                    EnterStep::Pending(_) => {
                        while m.read(pid, hint) == seen && !ctx.signal.is_set() {}
                    }
                    EnterStep::Acquired { .. } => {
                        lock.exit_core(m, pid, &NoProbe);
                        m.faa(pid, hint, 1);
                        return;
                    }
                    EnterStep::Aborted { handoff, .. } => {
                        if !handoff.is_none() {
                            flagged.fetch_add(1, Ordering::Relaxed);
                            m.faa(pid, hint, 1);
                        }
                        return;
                    }
                }
            }
        })
        .unwrap_or_else(|e| panic!("seed {seed}: a parked waiter was stranded: {e}"));
    }
    assert!(
        flagged.load(Ordering::Relaxed) > 0,
        "no abort handed the lock on in 200 bursty schedules"
    );
}

#[test]
fn everyone_aborts_immediately_lock_survives_for_first_holder() {
    // Process 0 holds the lock from the start (go[0] = 1). Everyone else
    // aborts with the signal pre-fired; the exit must cleanly find ⊥.
    for seed in 0..30 {
        let n = 8;
        let mut plans = vec![ProcPlan::normal(1)];
        plans.extend(vec![ProcPlan::aborter(1, 0); n - 1]);
        check(
            n,
            2,
            Ascent::Adaptive,
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("all-abort seed={seed}"),
        );
    }
}

#[test]
fn wide_branching_factors_and_odd_sizes() {
    for seed in 0..25 {
        for &(n, b) in &[(11usize, 5usize), (17, 16), (6, 64), (2, 2)] {
            let mut plans = vec![ProcPlan::normal(1); n];
            if n > 2 {
                plans[1] = ProcPlan::aborter(1, 20);
            }
            check(
                n,
                b,
                Ascent::Adaptive,
                plans,
                Box::new(RandomSchedule::seeded(seed)),
                &format!("odd n={n} b={b} seed={seed}"),
            );
        }
    }
}

#[test]
fn dsm_variant_model_check() {
    use sal_core::one_shot::DsmOneShotLock;
    for seed in 0..50 {
        let n = 6;
        let mut builder = MemoryBuilder::new();
        let lock = DsmOneShotLock::layout(&mut builder, n, 4);
        let cs = builder.alloc(0);
        let mem = builder.build_dsm(n);
        let spec = WorkloadSpec {
            plans: vec![
                ProcPlan::normal(1),
                ProcPlan::aborter(1, 10),
                ProcPlan::normal(1),
                ProcPlan::aborter(1, 30),
                ProcPlan::normal(1),
                ProcPlan::normal(1),
            ],
            cs_ops: 2,
            max_steps: 5_000_000,
            lease: 0,
        };
        let report = run_lock(
            &lock,
            &mem,
            cs,
            &spec,
            Box::new(RandomSchedule::seeded(seed)),
            NoProbe,
        )
        .unwrap_or_else(|e| panic!("dsm seed={seed}: {e}"));
        assert!(report.mutex_check.is_ok(), "dsm seed={seed}");
        assert!(report.fcfs_check.is_ok(), "dsm seed={seed}");
        let resolved: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
        assert_eq!(resolved, n, "dsm seed={seed}");
    }
}

#[test]
fn bounded_abort_under_any_schedule() {
    // Bounded abort (requirement 4): once the signal fires, the enter
    // call returns within a finite number of the process's own steps —
    // witnessed by termination even when the CS holder never exits
    // (process 0 never releases within the horizon because it is
    // scheduled last).
    use sal_memory::Mem;
    for seed in 0..20 {
        let n = 5;
        let (lock, _cs, mem) = build(n, 2, Ascent::Adaptive);
        // Sequentially: p0 acquires. Then every other process runs alone
        // with a pre-fired signal: its enter must return without p0 ever
        // moving.
        let sig = sal_memory::AbortFlag::new();
        sig.set();
        assert!(lock
            .enter_core(&mem, 0, &sal_memory::NeverAbort, &NoProbe)
            .entered());
        for p in 1..n {
            let before = mem.ops(p);
            let outcome = lock.enter_core(&mem, p, &sig, &NoProbe);
            assert!(!outcome.entered(), "seed={seed} p={p}");
            // Finite and small: the abort path is wait-free.
            assert!(mem.ops(p) - before < 200, "abort not bounded");
        }
        lock.exit_core(&mem, 0, &NoProbe);
        let _ = seed;
    }
}

/// The harness records doorway tickets exactly for one-shot locks: one
/// `Doorway` event per attempt on the one-shot lock, aborted attempts
/// included, so its FCFS verdict is checked against every ticket; none
/// on the ticket lock, which reports tickets but is not one-shot, so
/// the event logs of the baselines are unchanged.
#[test]
fn run_lock_records_tickets_only_for_one_shot_locks() {
    fn doorways(report: &WorkloadReport) -> Vec<u64> {
        let mut tickets: Vec<u64> = report
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Doorway(t) => Some(t),
                _ => None,
            })
            .collect();
        tickets.sort_unstable();
        tickets
    }
    let n = 5;
    let (lock, cs, mem) = build(n, 2, Ascent::Adaptive);
    let mut plans = vec![ProcPlan::normal(1); n];
    plans[2] = ProcPlan::aborter(1, 12);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 1_000_000,
        lease: 0,
    };
    let policy = Box::new(RandomSchedule::seeded(3));
    let report = run_lock(&lock, &mem, cs, &spec, policy, NoProbe).expect("sim failed");
    assert_eq!(doorways(&report), (0..n as u64).collect::<Vec<_>>());
    assert!(report.fcfs_check.is_ok(), "{:?}", report.fcfs_check);

    let mut b = MemoryBuilder::new();
    let ticket = TicketLock::layout(&mut b);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let spec = WorkloadSpec::uniform(n, 2);
    let policy = Box::new(RandomSchedule::seeded(3));
    let report = run_lock(&ticket, &mem, cs, &spec, policy, NoProbe).expect("sim failed");
    assert_eq!(report.total_entered(), 2 * n);
    assert!(report.passages.iter().all(|p| p.ticket.is_some()));
    assert!(doorways(&report).is_empty());
}
