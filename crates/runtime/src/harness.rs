//! Lock workload harness: drive any [`LockCore`] through the
//! simulator and collect per-passage RMR statistics and safety-check
//! results — the engine behind every Table-1 and figure experiment.
//!
//! All passage accounting flows through a [`sal_obs::PassageStats`]
//! probe attached to the lock; [`run_lock`] takes one more sink (an
//! [`sal_obs::EventLog`], a [`sal_obs::FairnessMonitor`], …, or
//! [`NoProbe`]) and every hook fans out to it from the same execution.
//! The sinks are cheap cloneable handles: pass `sink.clone()` in and
//! keep the original to read the results afterwards. A lock that
//! [`is_one_shot`](sal_core::LockMeta::is_one_shot) has its doorway
//! tickets recorded, so the FCFS check covers it.

use crate::events::{EventKind, FcfsViolation, MutexViolation};
use crate::gate::SteppedMem;
use crate::schedule::SchedulePolicy;
use crate::sim::{simulate, SimError, SimOptions};
use sal_core::LockCore;
use sal_memory::{AbortSignal, Mem, SignalFn, WordId};
use sal_obs::{probed, NoProbe, PassageRecord, PassageStats, Probe};

/// What one process does with its passages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Acquire, run the CS, release; never abort.
    #[default]
    Normal,
    /// Deliver the abort signal once the process has spent this many
    /// global steps inside `enter` (0 = signal set from the start).
    AbortAfter(u64),
}

/// Per-process plan.
#[derive(Debug, Clone, Copy)]
pub struct ProcPlan {
    /// How many passages the process attempts.
    pub passages: usize,
    /// Its behaviour.
    pub role: Role,
}

impl ProcPlan {
    /// `passages` normal (never-aborting) passages.
    pub fn normal(passages: usize) -> Self {
        ProcPlan {
            passages,
            role: Role::Normal,
        }
    }

    /// `passages` attempts, each aborting after waiting `steps` global
    /// steps inside `enter`.
    pub fn aborter(passages: usize, steps: u64) -> Self {
        ProcPlan {
            passages,
            role: Role::AbortAfter(steps),
        }
    }
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// One plan per process.
    pub plans: Vec<ProcPlan>,
    /// Shared-memory operations each process performs inside the CS
    /// (more ops ⇒ longer CS ⇒ more interleaving pressure).
    pub cs_ops: usize,
    /// Step budget before declaring livelock.
    pub max_steps: u64,
    /// Step-lease cap, forwarded to [`SimOptions::lease`]: `0` =
    /// unbounded, `k` = at most `k` steps per grant. Any value yields
    /// the identical execution and report.
    pub lease: u64,
}

impl WorkloadSpec {
    /// `n` processes, one no-abort passage each.
    pub fn uniform(n: usize, passages: usize) -> Self {
        WorkloadSpec {
            plans: vec![ProcPlan::normal(passages); n],
            cs_ops: 1,
            max_steps: 20_000_000,
            lease: 0,
        }
    }
}

/// Everything measured during one workload run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Per-passage statistics, in completion order (a snapshot of
    /// [`stats`](Self::stats)'s records).
    pub passages: Vec<PassageRecord>,
    /// The full accounting sink the run was measured through: per-
    /// passage RMR and step-latency histograms, amortized totals.
    pub stats: PassageStats,
    /// Total shared-memory steps.
    pub steps: u64,
    /// Mutual-exclusion check over the event log.
    pub mutex_check: Result<(), MutexViolation>,
    /// FCFS check over the recorded doorway tickets (meaningful only
    /// for a one-shot lock: no other lock's tickets are recorded).
    pub fcfs_check: Result<(), FcfsViolation>,
    /// Per-process `(entered, aborted)` tallies.
    pub outcomes: Vec<(usize, usize)>,
    /// The full step-stamped event log, in real-time order.
    pub events: Vec<crate::events::Event>,
}

impl WorkloadReport {
    /// Maximum per-passage RMR count among *entered* passages.
    pub fn max_entered_rmrs(&self) -> u64 {
        self.stats.max_entered_rmrs()
    }

    /// Maximum per-passage RMR count among *aborted* passages.
    pub fn max_aborted_rmrs(&self) -> u64 {
        self.stats.max_aborted_rmrs()
    }

    /// Run-scoped amortized accounting: cumulative RMRs, passage and
    /// abort counts, max single-passage debt, and the amortized
    /// per-passage cost (see [`sal_obs::AmortizedStats`]).
    pub fn amortized(&self) -> sal_obs::AmortizedStats {
        self.stats.amortized()
    }

    /// Mean RMRs over entered passages.
    pub fn mean_entered_rmrs(&self) -> f64 {
        self.stats.mean_entered_rmrs()
    }

    /// Number of passages that entered the CS.
    pub fn total_entered(&self) -> usize {
        self.stats.total_entered()
    }

    /// Panic unless mutual exclusion held.
    pub fn assert_safe(&self) {
        if let Err(v) = &self.mutex_check {
            panic!("mutual exclusion violated: {v:?}");
        }
    }
}

/// Run `lock` under the given workload and schedule, fanning every
/// passage hook out to `probe` as well as the report's internal
/// [`PassageStats`] (pass [`NoProbe`] for none). `cs_word` is a shared
/// scratch word the CS body hammers (allocate it in the same memory as
/// the lock). The lock is driven through its [`LockCore`] impl at the
/// harness's stepped memory type, with no `dyn` boundary between the
/// harness and the algorithm.
///
/// # Errors
///
/// Propagates [`SimError`] (step-limit ⇒ livelock/starvation, or a body
/// panic such as a capacity assertion).
pub fn run_lock<M, L, U>(
    lock: &L,
    mem: &M,
    cs_word: WordId,
    spec: &WorkloadSpec,
    policy: Box<dyn SchedulePolicy>,
    probe: U,
) -> Result<WorkloadReport, SimError>
where
    M: Mem + ?Sized,
    U: Probe,
    L: for<'a> LockCore<SteppedMem<'a, M>, (PassageStats, U)>,
{
    let nprocs = spec.plans.len();
    let one_shot = lock.is_one_shot();
    let stats = PassageStats::new();
    let probe = (stats.clone(), probe);
    let opts = SimOptions {
        max_steps: spec.max_steps,
        abort_plan: vec![],
        lease: spec.lease,
    };
    let report = simulate(mem, nprocs, policy, opts, |ctx| {
        let plan = spec.plans[ctx.pid];
        for _attempt in 0..plan.passages {
            ctx.event(EventKind::EnterStart);
            let do_enter = |signal: &dyn AbortSignal| {
                let outcome = lock.enter_core(ctx.mem, ctx.pid, signal, &probe);
                if one_shot {
                    if let Some(t) = outcome.ticket() {
                        // Ticket *values* (not event positions) drive the
                        // FCFS check, so post-enter recording is sound.
                        ctx.event(EventKind::Doorway(t));
                    }
                }
                outcome.entered()
            };
            let entered = match plan.role {
                Role::Normal => do_enter(&sal_memory::NeverAbort),
                Role::AbortAfter(steps) => {
                    let deadline = ctx.steps() + steps;
                    let external = ctx.signal;
                    let combined = SignalFn(|| ctx.steps() >= deadline || external.is_set());
                    do_enter(&combined)
                }
            };
            if entered {
                ctx.event(EventKind::CsEnter);
                // The CS body also routes through the probe, so CS RMRs
                // land in the (still open) passage.
                let pm = probed(ctx.mem, &probe);
                for _ in 0..spec.cs_ops {
                    pm.faa(ctx.pid, cs_word, 1);
                }
                ctx.event(EventKind::CsLeave);
                lock.exit_core(ctx.mem, ctx.pid, &probe);
                ctx.event(EventKind::ExitDone);
            } else {
                ctx.event(EventKind::Aborted);
            }
        }
    })?;

    Ok(WorkloadReport {
        passages: stats.records(),
        stats,
        steps: report.steps,
        mutex_check: report.log.check_mutual_exclusion(),
        fcfs_check: report.log.check_fcfs(),
        outcomes: report.log.outcomes(nprocs),
        events: report.log.events(),
    })
}

/// [`run_lock`] with no extra probe sink. The benchmark's simulator
/// workload (`perfbench`) calls it with exactly this signature.
///
/// # Errors
///
/// As [`run_lock`].
pub fn run_lock_core<M, L>(
    lock: &L,
    mem: &M,
    cs_word: WordId,
    spec: &WorkloadSpec,
    policy: Box<dyn SchedulePolicy>,
) -> Result<WorkloadReport, SimError>
where
    M: Mem + ?Sized,
    L: for<'a> LockCore<SteppedMem<'a, M>, (PassageStats, NoProbe)>,
{
    run_lock(lock, mem, cs_word, spec, policy, NoProbe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{RandomSchedule, RoundRobin};
    use sal_core::one_shot::OneShotLock;
    use sal_memory::MemoryBuilder;

    fn one_shot(n: usize, branching: usize) -> (OneShotLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = OneShotLock::layout(&mut b, n, branching);
        let cs = b.alloc(0);
        (lock, cs, b.build_cc(n))
    }

    #[test]
    fn all_processes_enter_under_round_robin() {
        let (lock, cs, mem) = one_shot(6, 2);
        let spec = WorkloadSpec::uniform(6, 1);
        let report =
            run_lock(&lock, &mem, cs, &spec, Box::new(RoundRobin::new()), NoProbe).unwrap();
        report.assert_safe();
        assert_eq!(report.total_entered(), 6);
        assert_eq!(mem.read(0, cs), 6);
    }

    #[test]
    fn random_schedules_preserve_safety_and_fcfs() {
        for seed in 0..30 {
            let (lock, cs, mem) = one_shot(5, 2);
            let spec = WorkloadSpec::uniform(5, 1);
            let report = run_lock(
                &lock,
                &mem,
                cs,
                &spec,
                Box::new(RandomSchedule::seeded(seed)),
                NoProbe,
            )
            .unwrap();
            report.assert_safe();
            assert!(
                report.fcfs_check.is_ok(),
                "seed {seed}: {:?}",
                report.fcfs_check
            );
            assert_eq!(report.total_entered(), 5, "seed {seed}");
        }
    }

    #[test]
    fn aborters_abort_and_others_still_enter() {
        let (lock, cs, mem) = one_shot(4, 2);
        let spec = WorkloadSpec {
            plans: vec![
                ProcPlan::normal(1),
                ProcPlan::aborter(1, 30),
                ProcPlan::aborter(1, 30),
                ProcPlan::normal(1),
            ],
            cs_ops: 3,
            max_steps: 1_000_000,
            lease: 0,
        };
        let report = run_lock(
            &lock,
            &mem,
            cs,
            &spec,
            Box::new(RandomSchedule::seeded(9)),
            NoProbe,
        )
        .unwrap();
        report.assert_safe();
        // The two normal processes must get in; aborters may get in (if
        // handed the lock early) or abort.
        assert_eq!(report.outcomes[0].0, 1);
        assert_eq!(report.outcomes[3].0, 1);
        let total: usize = report.outcomes.iter().map(|o| o.0 + o.1).sum();
        assert_eq!(total, 4, "every attempt resolves");
    }

    #[test]
    fn per_passage_rmrs_are_recorded() {
        let (lock, cs, mem) = one_shot(3, 2);
        let spec = WorkloadSpec::uniform(3, 1);
        let report =
            run_lock(&lock, &mem, cs, &spec, Box::new(RoundRobin::new()), NoProbe).unwrap();
        assert_eq!(report.passages.len(), 3);
        assert!(report.passages.iter().all(|p| p.rmrs > 0));
        assert!(report.max_entered_rmrs() >= 1);
        assert!(report.mean_entered_rmrs() > 0.0);
        // The probe-fed sink and the cost model agree in aggregate: every
        // RMR in the run happened inside some passage.
        let total: u64 = report.passages.iter().map(|p| p.rmrs).sum();
        assert_eq!(total, mem.total_rmrs());
    }

    #[test]
    fn extra_probe_sinks_observe_the_same_run() {
        let (lock, cs, mem) = one_shot(4, 2);
        let spec = WorkloadSpec::uniform(4, 1);
        let fairness = sal_obs::FairnessMonitor::new();
        let report = run_lock(
            &lock,
            &mem,
            cs,
            &spec,
            Box::new(RandomSchedule::seeded(3)),
            fairness.clone(),
        )
        .unwrap();
        report.assert_safe();
        assert!(fairness.is_fcfs());
        assert_eq!(report.fcfs_check.is_ok(), fairness.is_fcfs());
        let per_proc = fairness.per_process();
        assert_eq!(per_proc.iter().map(|p| p.entered).sum::<u64>(), 4);
    }
}
