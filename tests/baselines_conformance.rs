//! Every lock in the workspace, same workload grid, same verdicts:
//! mutual exclusion always; all attempts resolve; non-aborting processes
//! always complete. This is the conformance gate that lets the Table-1
//! benchmarks compare the locks meaningfully.

use sal_bench::{build_lock, LockKind};
use sal_memory::Mem;
use sal_obs::NoProbe;
use sal_runtime::{run_lock, ProcPlan, RandomSchedule, WorkloadSpec};

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
    let passages = if kind.one_shot() { 1 } else { 2 };
    let mut plans = Vec::new();
    for p in 0..n {
        if kind.abortable() && p >= n - aborters {
            plans.push(ProcPlan::aborter(passages, 20 + seed % 30));
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
        lease: sal_runtime::default_lease(),
    };
    let report = run_lock(
        &*built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        Box::new(RandomSchedule::seeded(seed)),
        NoProbe,
    )
    .unwrap_or_else(|e| panic!("{kind:?} n={n} seed={seed}: {e}"));
    assert!(
        report.mutex_check.is_ok(),
        "{kind:?} n={n} seed={seed}: {:?}",
        report.mutex_check
    );
    let resolved: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
    assert_eq!(resolved, attempts, "{kind:?} n={n} seed={seed}");
    for (pid, plan) in spec.plans.iter().enumerate() {
        if matches!(plan.role, sal_runtime::Role::Normal) {
            assert_eq!(
                report.outcomes[pid].0, plan.passages,
                "{kind:?} n={n} seed={seed}: normal process {pid} did not complete"
            );
        }
    }
    let entered = report.total_entered();
    assert_eq!(
        built.mem.read(0, built.cs_word),
        (entered * spec.cs_ops) as u64,
        "{kind:?} n={n} seed={seed}: CS integrity"
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
            built.lock.enter(&built.mem, 0, &sig, &NoProbe).entered(),
            "{kind:?}"
        );
        built.lock.exit(&built.mem, 0, &NoProbe);
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
            .enter(&built.mem, 0, &NeverAbort, &NoProbe)
            .entered());
        let sig = AbortFlag::new();
        sig.set();
        let before = built.mem.ops(1);
        let outcome = built.lock.enter(&built.mem, 1, &sig, &NoProbe);
        assert!(
            outcome.aborted(),
            "{kind:?}: should abort while lock is held"
        );
        assert!(
            built.mem.ops(1) - before < 500,
            "{kind:?}: abort was not bounded"
        );
        built.lock.exit(&built.mem, 0, &NoProbe);
        // Lock remains usable by a third process.
        assert!(
            built
                .lock
                .enter(&built.mem, 2, &NeverAbort, &NoProbe)
                .entered(),
            "{kind:?}"
        );
        built.lock.exit(&built.mem, 2, &NoProbe);
    }
}
