//! Model-checking-style integration tests of the long-lived
//! transformation (Figure 5) in both implementations, under seeded
//! random schedules with repeated passages and aborts: mutual exclusion,
//! starvation freedom (all passages complete under fair schedules), and
//! correct instance hand-over across switches.

use sal_bench::{build_lock, LockKind};
use sal_memory::Mem;
use sal_obs::NoProbe;
use sal_runtime::{
    run_lock, BurstySchedule, ProcPlan, RandomSchedule, SchedulePolicy, WorkloadSpec,
};

fn check(kind: LockKind, plans: Vec<ProcPlan>, policy: Box<dyn SchedulePolicy>, tag: &str) {
    let n = plans.len();
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 20_000_000,
        lease: sal_runtime::default_lease(),
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        policy,
        NoProbe,
    )
    .unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(
        report.mutex_check.is_ok(),
        "{tag}: {:?}",
        report.mutex_check
    );
    let resolved: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
    assert_eq!(resolved, attempts, "{tag}: unresolved attempts");
    // Normal processes never abort: starvation freedom means they all
    // entered every passage.
    for (pid, plan) in spec.plans.iter().enumerate() {
        if matches!(plan.role, sal_runtime::Role::Normal) {
            assert_eq!(
                report.outcomes[pid].0, plan.passages,
                "{tag}: process {pid} starved"
            );
        }
    }
    // CS integrity.
    let entered = report.total_entered();
    assert_eq!(
        built.mem.read(0, built.cs_word),
        (entered * spec.cs_ops) as u64,
        "{tag}: CS effects inconsistent"
    );
}

#[test]
fn bounded_aborts_that_hand_the_lock_on_say_so() {
    // The bounded lock's version of the one-shot test of the same name:
    // waiters park between polls until an exit or a flagged abort bumps
    // a hint word. Here an abort also hands on through `Cleanup` (an
    // instance switch releases the epoch's spin waiters, line 77), so
    // processes run repeated passages. An unflagged handoff strands a
    // waiter and the run hits the step limit.
    use sal_core::long_lived::BoundedLongLivedLock;
    use sal_core::EnterStep;
    use sal_memory::{AbortSignal, MemoryBuilder};
    use sal_runtime::{simulate, SimOptions};
    for seed in 0..400u64 {
        let n = 3;
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, n, 2);
        let hint = b.alloc(0);
        let mem = b.build_cc(n);
        let opts = SimOptions {
            max_steps: 400_000,
            abort_plan: vec![(1, seed % 60 + 20), (2, seed % 37 + 40)],
            ..SimOptions::default()
        };
        let policy = Box::new(BurstySchedule::seeded(seed, 0.85));
        simulate(&mem, n, policy, opts, |ctx| {
            let (pid, m) = (ctx.pid, ctx.mem);
            for _ in 0..4 {
                let mut machine = lock.begin_enter();
                loop {
                    let seen = m.read(pid, hint);
                    match lock.poll_enter(&mut machine, m, pid, ctx.signal, &NoProbe) {
                        EnterStep::Pending(_) => {
                            while m.read(pid, hint) == seen && !ctx.signal.is_set() {}
                        }
                        EnterStep::Acquired { .. } => {
                            let _ = lock.exit(m, pid, &NoProbe);
                            m.faa(pid, hint, 1);
                            break;
                        }
                        EnterStep::Aborted { handoff, .. } => {
                            if !handoff.is_none() {
                                m.faa(pid, hint, 1);
                            }
                            break;
                        }
                    }
                }
            }
        })
        .unwrap_or_else(|e| panic!("seed {seed}: a parked waiter was stranded: {e}"));
    }
}

#[test]
fn bounded_repeated_passages_no_aborts() {
    for seed in 0..40 {
        check(
            LockKind::LongLived { b: 4 },
            vec![ProcPlan::normal(4); 4],
            Box::new(RandomSchedule::seeded(seed)),
            &format!("bounded clean seed={seed}"),
        );
    }
}

#[test]
fn simple_repeated_passages_no_aborts() {
    for seed in 0..40 {
        check(
            LockKind::LongLivedSimple { b: 4 },
            vec![ProcPlan::normal(4); 4],
            Box::new(RandomSchedule::seeded(seed)),
            &format!("simple clean seed={seed}"),
        );
    }
}

#[test]
fn bounded_with_aborters_across_switches() {
    for seed in 0..40 {
        let plans = vec![
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 25),
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 10),
            ProcPlan::normal(3),
        ];
        check(
            LockKind::LongLived { b: 2 },
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("bounded aborts seed={seed}"),
        );
    }
}

#[test]
fn simple_with_aborters_across_switches() {
    for seed in 0..40 {
        let plans = vec![
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 25),
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 10),
        ];
        check(
            LockKind::LongLivedSimple { b: 2 },
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("simple aborts seed={seed}"),
        );
    }
}

#[test]
fn bursty_schedules_stress_the_spin_node_protocol() {
    // Bursty schedules make one process race far ahead — repeatedly
    // re-entering and hitting the "spn == oldSpn" spin path while others
    // lag, exercising announce/validate/reclaim.
    for seed in 0..40 {
        check(
            LockKind::LongLived { b: 2 },
            vec![ProcPlan::normal(5); 3],
            Box::new(BurstySchedule::seeded(seed, 0.9)),
            &format!("bursty seed={seed}"),
        );
    }
}

#[test]
fn two_process_ping_pong_many_switches() {
    // Every passage drops the refcount to zero, so every passage
    // switches instances: maximal recycling pressure.
    for seed in 0..20 {
        check(
            LockKind::LongLived { b: 2 },
            vec![ProcPlan::normal(12); 2],
            Box::new(RandomSchedule::seeded(seed)),
            &format!("ping-pong seed={seed}"),
        );
    }
}

#[test]
fn single_process_solo_recycling() {
    check(
        LockKind::LongLived { b: 2 },
        vec![ProcPlan::normal(30)],
        Box::new(RandomSchedule::seeded(1)),
        "solo recycling",
    );
}

#[test]
fn all_aborters_then_a_late_winner() {
    for seed in 0..25 {
        let mut plans = vec![ProcPlan::aborter(2, 0); 5];
        plans.push(ProcPlan::normal(2));
        check(
            LockKind::LongLived { b: 4 },
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("late winner seed={seed}"),
        );
    }
}

// ---- the Jayanti–Jayanti constant-amortized lock, same gauntlet ----

#[test]
fn jj_repeated_passages_no_aborts() {
    for seed in 0..40 {
        check(
            LockKind::JjAmortized,
            vec![ProcPlan::normal(4); 4],
            Box::new(RandomSchedule::seeded(seed)),
            &format!("jj clean seed={seed}"),
        );
    }
}

#[test]
fn jj_with_aborters_depositing_abandoned_nodes() {
    // Aborters queue, abandon, and re-enter: the exit-walk consumption
    // path (the amortization's potential function) runs constantly.
    for seed in 0..40 {
        let plans = vec![
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 25),
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 10),
            ProcPlan::normal(3),
        ];
        check(
            LockKind::JjAmortized,
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("jj aborts seed={seed}"),
        );
    }
}

#[test]
fn jj_bursty_schedules_stress_node_reclamation() {
    // A racing process re-enters before its previous node is consumed,
    // hitting the reclaim-wait at the head of enter with POOL=2 nodes.
    for seed in 0..40 {
        check(
            LockKind::JjAmortized,
            vec![ProcPlan::normal(5); 3],
            Box::new(BurstySchedule::seeded(seed, 0.9)),
            &format!("jj bursty seed={seed}"),
        );
    }
}

#[test]
fn jj_all_aborters_then_a_late_winner() {
    // Every abandoned node must be consumed by someone's exit walk (or
    // the empty-queue tail reset) for the late normal process to finish.
    for seed in 0..25 {
        let mut plans = vec![ProcPlan::aborter(2, 0); 5];
        plans.push(ProcPlan::normal(2));
        check(
            LockKind::JjAmortized,
            plans,
            Box::new(RandomSchedule::seeded(seed)),
            &format!("jj late winner seed={seed}"),
        );
    }
}
