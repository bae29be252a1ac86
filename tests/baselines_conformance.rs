//! Every lock in the workspace, same workload grid, same verdicts:
//! mutual exclusion always; all attempts resolve; non-aborting processes
//! always complete. This is the conformance gate that lets the Table-1
//! benchmarks compare the locks meaningfully.

use sal_bench::{build_lock, LockKind};
use sal_core::{LockCore, LockMeta};
use sal_memory::Mem;
use sal_obs::NoProbe;
use sal_runtime::{
    run_lock, ProcPlan, RandomSchedule, RoundRobin, SchedulePolicy, Scripted, WorkloadSpec,
};

/// Registry-driven: every `LockKind::NAMES` entry at branching 4 (so a
/// newly registered kind is conformance-gated without touching this
/// file), plus extra branching variants of the tree locks.
fn all_kinds() -> Vec<LockKind> {
    let mut kinds = LockKind::all(4);
    kinds.extend([
        LockKind::OneShot { b: 2 },
        LockKind::OneShot { b: 16 },
        LockKind::OneShotPlain { b: 2 },
    ]);
    kinds
}

fn conformance(kind: LockKind, n: usize, aborters: usize, seed: u64) {
    let policy = Box::new(RandomSchedule::seeded(seed));
    let label = format!("seed={seed}");
    conformance_under(kind, n, aborters, 20 + seed % 30, policy, &label);
}

/// One conformance run of `kind` under `policy`; aborters give up after
/// `abort_after` steps, and `label` names the schedule in failures.
fn conformance_under(
    kind: LockKind,
    n: usize,
    aborters: usize,
    abort_after: u64,
    policy: Box<dyn SchedulePolicy>,
    label: &str,
) {
    let passages = if kind.one_shot() { 1 } else { 2 };
    let mut plans = Vec::new();
    for p in 0..n {
        if kind.abortable() && p >= n - aborters {
            plans.push(ProcPlan::aborter(passages, abort_after));
        } else {
            plans.push(ProcPlan::normal(passages));
        }
    }
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 20_000_000,
        lease: 0,
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        policy,
        NoProbe,
    )
    .unwrap_or_else(|e| panic!("{kind:?} n={n} {label}: {e}"));
    assert!(
        report.mutex_check.is_ok(),
        "{kind:?} n={n} {label}: {:?}",
        report.mutex_check
    );
    let resolved: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
    assert_eq!(resolved, attempts, "{kind:?} n={n} {label}");
    for (pid, plan) in spec.plans.iter().enumerate() {
        if matches!(plan.role, sal_runtime::Role::Normal) {
            assert_eq!(
                report.outcomes[pid].0, plan.passages,
                "{kind:?} n={n} {label}: normal process {pid} did not complete"
            );
        }
    }
    let entered = report.total_entered();
    assert_eq!(
        built.mem.read(0, built.cs_word),
        (entered * spec.cs_ops) as u64,
        "{kind:?} n={n} {label}: CS integrity"
    );
}

#[test]
fn clean_workloads_all_locks() {
    for kind in all_kinds() {
        for seed in 0..8 {
            conformance(kind, 5, 0, seed);
        }
    }
}

#[test]
fn aborting_workloads_all_abortable_locks() {
    for kind in all_kinds() {
        if !kind.abortable() {
            continue;
        }
        for seed in 0..8 {
            conformance(kind, 6, 2, seed);
        }
    }
}

#[test]
fn heavier_contention_spot_checks() {
    for kind in [
        LockKind::OneShot { b: 4 },
        LockKind::LongLived { b: 4 },
        LockKind::Tournament,
        LockKind::Scott,
        LockKind::Lee,
        LockKind::JjAmortized,
    ] {
        conformance(kind, 12, 5, 99);
    }
}

/// Every lock under a scripted prefix before round-robin: process 0
/// runs ahead, then the rest are dealt in, in reverse order and then in
/// order.
#[test]
fn scripted_workloads_all_locks() {
    let n = 6;
    let mut script = vec![0; 12];
    script.extend((0..n).rev());
    script.extend(0..n);
    for kind in all_kinds() {
        let aborters = if kind.abortable() { 2 } else { 0 };
        let policy = Box::new(Scripted::new(script.clone(), Box::new(RoundRobin::new())));
        conformance_under(kind, n, aborters, 6 * n as u64, policy, "scripted");
    }
}

/// The non-abortable classics ignore the signal rather than failing.
#[test]
fn non_abortable_locks_ignore_signals() {
    use sal_memory::{AbortFlag, AbortSignal};
    for kind in [LockKind::Mcs, LockKind::Ticket] {
        let built = build_lock(kind, 2, 4);
        let sig = AbortFlag::new();
        sig.set();
        assert!(sig.is_set());
        assert!(
            built
                .lock
                .enter_core(&built.mem, 0, &sig, &NoProbe)
                .entered(),
            "{kind:?}"
        );
        built.lock.exit_core(&built.mem, 0, &NoProbe);
        assert!(!built.lock.is_abortable());
    }
}

/// Every abortable lock returns false promptly on a pre-fired signal
/// when the lock is held (bounded abort at the API level).
#[test]
fn pre_fired_signal_aborts_promptly_when_held() {
    use sal_memory::{AbortFlag, NeverAbort};
    for kind in all_kinds() {
        if !kind.abortable() || kind.one_shot() {
            // (one-shot kinds covered in their own crates' tests; here
            // the holder would consume the single passage.)
        }
        if !kind.abortable() {
            continue;
        }
        let built = build_lock(kind, 3, 8);
        assert!(built
            .lock
            .enter_core(&built.mem, 0, &NeverAbort, &NoProbe)
            .entered());
        let sig = AbortFlag::new();
        sig.set();
        let before = built.mem.ops(1);
        let outcome = built.lock.enter_core(&built.mem, 1, &sig, &NoProbe);
        assert!(
            outcome.aborted(),
            "{kind:?}: should abort while lock is held"
        );
        assert!(
            built.mem.ops(1) - before < 500,
            "{kind:?}: abort was not bounded"
        );
        built.lock.exit_core(&built.mem, 0, &NoProbe);
        // Lock remains usable by a third process.
        assert!(
            built
                .lock
                .enter_core(&built.mem, 2, &NeverAbort, &NoProbe)
                .entered(),
            "{kind:?}"
        );
        built.lock.exit_core(&built.mem, 2, &NoProbe);
    }
}
