//! Differential test for the facade/core split: driving a lock through
//! its generic [`LockCore`] impl (statically dispatched, the "mono"
//! path) and through the type-erased [`AbortableLock`] facade
//! (`DynLock`, what every `Box<dyn AbortableLock>` registry runs) must
//! produce **identical** simulations — same passage records, same RMR
//! totals, same step count, same event log — on scripted schedules and
//! on seeded random sweeps, for every lock kind in the workspace.
//!
//! This is the contract that makes the split a refactor rather than a
//! fork: the facade is the blanket impl of the core at `M = dyn Mem`,
//! so no lock can behave differently depending on how it is dispatched.

use sal_baselines::{LeeLock, McsLock, ScottLock, TasLock, TicketLock, TournamentLock};
use sal_core::long_lived::{BoundedLongLivedLock, JjLock, SimpleLongLivedLock};
use sal_core::one_shot::{DsmOneShotLock, OneShotLock};
use sal_core::{AbortableLock, LockCore};
use sal_memory::{CcMemory, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{NoProbe, PassageStats};
use sal_runtime::{
    run_lock, run_lock_core, ProcPlan, RandomSchedule, RoundRobin, SchedulePolicy, Scripted,
    SteppedMem, WorkloadReport, WorkloadSpec,
};

fn build<L>(make: &impl Fn(&mut MemoryBuilder, usize) -> L, n: usize) -> (L, CcMemory, WordId) {
    let mut b = MemoryBuilder::new();
    let lock = make(&mut b, n);
    let cs_word = b.alloc(0);
    (lock, b.build_cc(n), cs_word)
}

fn assert_reports_equal(label: &str, mono: &WorkloadReport, dynr: &WorkloadReport) {
    assert_eq!(mono.passages, dynr.passages, "{label}: passage records");
    assert_eq!(mono.steps, dynr.steps, "{label}: step counts");
    assert_eq!(
        mono.outcomes, dynr.outcomes,
        "{label}: per-process outcomes"
    );
    assert_eq!(mono.events, dynr.events, "{label}: event logs");
    assert_eq!(
        mono.mutex_check.is_ok(),
        dynr.mutex_check.is_ok(),
        "{label}: mutex verdicts"
    );
    assert_eq!(
        mono.fcfs_check.is_ok(),
        dynr.fcfs_check.is_ok(),
        "{label}: fcfs verdicts"
    );
    assert!(mono.mutex_check.is_ok(), "{label}: mutual exclusion");
}

/// Run the same (layout, workload, schedule) through both dispatch
/// flavours and require identical reports. Fresh lock + memory per
/// flavour: the runs share nothing but the construction recipe. Both
/// flavours record doorway tickets exactly when the lock is one-shot.
fn check<L, F, P>(label: &str, make: F, n: usize, spec: &WorkloadSpec, policy: P)
where
    L: AbortableLock
        + for<'a> LockCore<SteppedMem<'a, CcMemory>, (PassageStats, NoProbe)>
        + 'static,
    F: Fn(&mut MemoryBuilder, usize) -> L,
    P: Fn() -> Box<dyn SchedulePolicy>,
{
    let (mono_lock, mono_mem, mono_cs) = build(&make, n);
    let mono =
        run_lock_core(&mono_lock, &mono_mem, mono_cs, spec, policy()).expect("mono run failed");

    let (dyn_lock, dyn_mem, dyn_cs) = build(&make, n);
    let facade: &dyn AbortableLock = &dyn_lock;
    let dynr = run_lock(facade, &dyn_mem, dyn_cs, spec, policy(), NoProbe).expect("dyn run failed");

    assert_reports_equal(label, &mono, &dynr);
    // The raw memory accounting agrees too, not just the probe's view.
    assert_eq!(
        mono_mem.total_rmrs(),
        dyn_mem.total_rmrs(),
        "{label}: total RMRs"
    );
    for p in 0..n {
        assert_eq!(
            mono_mem.ops(p),
            dyn_mem.ops(p),
            "{label}: ops of process {p}"
        );
    }
}

/// A mixed workload: some processes abort after a deadline, the rest
/// run clean passages.
fn mixed_spec(n: usize, passages: usize) -> WorkloadSpec {
    let mut plans = vec![ProcPlan::normal(passages); n];
    for p in plans.iter_mut().skip(1).step_by(3) {
        *p = ProcPlan::aborter(passages, 6 * n as u64);
    }
    WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 20_000_000,
        lease: sal_runtime::default_lease(),
    }
}

/// A short scripted prefix exercising a specific interleaving before
/// falling back to round-robin: process 0 runs ahead, then the rest
/// are dealt in in reverse order.
fn scripted(n: usize) -> Box<dyn SchedulePolicy> {
    let mut script: Vec<Pid> = vec![0; 12];
    script.extend((0..n).rev());
    script.extend(0..n);
    Box::new(Scripted::new(script, Box::new(RoundRobin::new())))
}

fn seeds() -> impl Iterator<Item = u64> {
    [3, 17, 1984].into_iter()
}

/// Every long-lived kind, on a scripted schedule and a seeded sweep.
macro_rules! long_lived_case {
    ($test:ident, $make:expr, $n:expr, $passages:expr) => {
        #[test]
        fn $test() {
            let n = $n;
            let spec = mixed_spec(n, $passages);
            check(
                concat!(stringify!($test), "/scripted"),
                $make,
                n,
                &spec,
                || scripted(n),
            );
            for seed in seeds() {
                check(
                    &format!(concat!(stringify!($test), "/seed{}"), seed),
                    $make,
                    n,
                    &spec,
                    || Box::new(RandomSchedule::seeded(seed)),
                );
            }
        }
    };
}

long_lived_case!(
    bounded_long_lived_mono_equals_dyn,
    |b, n| BoundedLongLivedLock::layout(b, n, 4),
    6,
    2
);
long_lived_case!(
    simple_long_lived_mono_equals_dyn,
    |b, n| SimpleLongLivedLock::layout(b, n, 4, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(tournament_mono_equals_dyn, TournamentLock::layout, 6, 2);
long_lived_case!(tas_mono_equals_dyn, |b, _n| TasLock::layout(b), 4, 2);
long_lived_case!(
    scott_mono_equals_dyn,
    |b, n| ScottLock::layout(b, n, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(
    lee_mono_equals_dyn,
    |b, n| LeeLock::layout(b, n, 6 * 2 + 1),
    6,
    2
);
long_lived_case!(jj_mono_equals_dyn, JjLock::layout, 6, 2);

/// The non-abortable classics run the no-abort flavour of the same
/// differential check.
#[test]
fn classic_locks_mono_equals_dyn() {
    let n = 5;
    let spec = WorkloadSpec::uniform(n, 3);
    check("mcs/scripted", McsLock::layout, n, &spec, || scripted(n));
    check(
        "ticket/scripted",
        |b, _n| TicketLock::layout(b),
        n,
        &spec,
        || scripted(n),
    );
    for seed in seeds() {
        check(
            &format!("mcs/seed{seed}"),
            McsLock::layout,
            n,
            &spec,
            || Box::new(RandomSchedule::seeded(seed)),
        );
        check(
            &format!("ticket/seed{seed}"),
            |b, _n| TicketLock::layout(b),
            n,
            &spec,
            || Box::new(RandomSchedule::seeded(seed)),
        );
    }
}

/// The one-shot locks (single passage per process, FCFS doorway
/// tickets recorded on both paths).
#[test]
fn one_shot_locks_mono_equals_dyn() {
    let n = 8;
    let spec = mixed_spec(n, 1);
    check(
        "one-shot/scripted",
        |b, n| OneShotLock::layout(b, n, 4),
        n,
        &spec,
        || scripted(n),
    );
    check(
        "one-shot-dsm/scripted",
        |b, n| DsmOneShotLock::layout(b, n, 4),
        n,
        &spec,
        || scripted(n),
    );
    for seed in seeds() {
        check(
            &format!("one-shot/seed{seed}"),
            |b, n| OneShotLock::layout(b, n, 4),
            n,
            &spec,
            || Box::new(RandomSchedule::seeded(seed)),
        );
        check(
            &format!("one-shot-dsm/seed{seed}"),
            |b, n| DsmOneShotLock::layout(b, n, 4),
            n,
            &spec,
            || Box::new(RandomSchedule::seeded(seed)),
        );
    }
}
