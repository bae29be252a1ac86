//! The workload builders behind every Table-1 column.

use crate::registry::{build_lock, LockKind};
use sal_memory::{Layered, Mem};
use sal_obs::{AmortizedStats, Json, NoProbe, PassageStats, Probe, ToJson};
use sal_runtime::{
    run_lock, ForcedSchedule, GuidedOutcome, OpTraceSink, ProcPlan, RandomSchedule, SimError,
    WorkloadSpec,
};

/// One measured point of a sweep (a lock at one `(N, A)` configuration).
///
/// Every RMR figure comes from the run's [`sal_obs::PassageStats`] sink —
/// the sweep layer reads the probe, never the raw memory counters.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Lock label.
    pub lock: String,
    /// Number of processes.
    pub n: usize,
    /// Number of processes playing the aborter role.
    pub aborters: usize,
    /// Maximum RMRs over entered (complete) passages.
    pub max_entered_rmrs: u64,
    /// Mean RMRs over entered passages.
    pub mean_entered_rmrs: f64,
    /// Maximum RMRs over aborted attempts.
    pub max_aborted_rmrs: u64,
    /// 99th-percentile RMRs over entered passages.
    pub p99_entered_rmrs: u64,
    /// Total RMRs over all passages divided by total passages.
    pub amortized_rmrs: f64,
    /// Total shared-memory steps of the run.
    pub steps: u64,
    /// Whether mutual exclusion held (it must).
    pub mutex_ok: bool,
    /// Whether FCFS held (checked only for one-shot runs).
    pub fcfs_ok: Option<bool>,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lock", self.lock.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("aborters", Json::Int(self.aborters as i64)),
            ("max_entered_rmrs", self.max_entered_rmrs.to_json()),
            ("mean_entered_rmrs", self.mean_entered_rmrs.to_json()),
            ("max_aborted_rmrs", self.max_aborted_rmrs.to_json()),
            ("p99_entered_rmrs", self.p99_entered_rmrs.to_json()),
            ("amortized_rmrs", self.amortized_rmrs.to_json()),
            ("steps", self.steps.to_json()),
            ("mutex_ok", self.mutex_ok.to_json()),
            ("fcfs_ok", self.fcfs_ok.to_json()),
        ])
    }
}

fn run_point(
    kind: LockKind,
    n: usize,
    plans: Vec<ProcPlan>,
    seed: u64,
    probe: impl Probe + 'static,
) -> Result<SweepPoint, SimError> {
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 60_000_000,
        lease: 0,
    };
    let aborters = spec
        .plans
        .iter()
        .filter(|p| !matches!(p.role, sal_runtime::Role::Normal))
        .count();
    let schedule = Box::new(RandomSchedule::seeded(seed));
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        schedule,
        probe,
    )?;
    let summary = report.stats.summary();
    Ok(SweepPoint {
        lock: kind.label(),
        n,
        aborters,
        max_entered_rmrs: summary.max_entered_rmrs,
        mean_entered_rmrs: summary.mean_entered_rmrs,
        max_aborted_rmrs: summary.max_aborted_rmrs,
        p99_entered_rmrs: summary.p99_entered_rmrs,
        amortized_rmrs: summary.amortized_rmrs,
        steps: report.steps,
        mutex_ok: report.mutex_check.is_ok(),
        fcfs_ok: if kind.one_shot() {
            Some(report.fcfs_check.is_ok())
        } else {
            None
        },
    })
}

/// Table 1, "Worst-case" column: one passage per process; all but two
/// processes abort while queued, so the surviving handoffs must skip the
/// whole abandoned crowd. The abort deadline scales with `n` so aborters
/// have taken their queue positions before giving up. `probe` is an
/// extra sink attached to the run (e.g. a clone of an
/// [`sal_obs::EventLog`] for JSONL export, or [`NoProbe`]).
pub fn worst_case_sweep(
    kind: LockKind,
    n: usize,
    seed: u64,
    probe: impl Probe + 'static,
) -> Result<SweepPoint, SimError> {
    assert!(n >= 2);
    let wait = 8 * n as u64;
    let mut plans = vec![ProcPlan::normal(1)];
    plans.extend(vec![ProcPlan::aborter(1, wait); n - 2]);
    plans.push(ProcPlan::normal(1));
    run_point(kind, n, plans, seed, probe)
}

/// Table 1, "No aborts" column (and the paper's headline `O(1)` claim,
/// E10): every process completes `passages` clean passages, with
/// `probe` attached as in [`worst_case_sweep`].
pub fn no_abort_sweep(
    kind: LockKind,
    n: usize,
    passages: usize,
    seed: u64,
    probe: impl Probe + 'static,
) -> Result<SweepPoint, SimError> {
    run_point(kind, n, vec![ProcPlan::normal(passages); n], seed, probe)
}

/// Table 1, "Adaptive bound" column: fixed `n`, exactly `a` aborters.
/// The completing passages' cost should track `a`, not `n`; `probe` is
/// attached as in [`worst_case_sweep`].
pub fn adaptive_sweep(
    kind: LockKind,
    n: usize,
    a: usize,
    seed: u64,
    probe: impl Probe + 'static,
) -> Result<SweepPoint, SimError> {
    assert!(a + 2 <= n, "need at least two normal processes");
    let wait = 8 * n as u64;
    let mut plans = vec![ProcPlan::normal(1)];
    plans.extend(vec![ProcPlan::aborter(1, wait); a]);
    plans.extend(vec![ProcPlan::normal(1); n - 1 - a]);
    run_point(kind, n, plans, seed, probe)
}

/// Table 1, "Space" column: shared words the layout allocates for `n`
/// processes (and `attempts` total attempts, for the arena-based locks).
pub fn space_row(kind: LockKind, n: usize, attempts: usize) -> usize {
    build_lock(kind, n, attempts).words
}

/// One run-scoped amortized accounting cell: a lock kind at one `N`,
/// measured over several merged runs (see [`amortized_sweep`]).
#[derive(Debug, Clone)]
pub struct AmortizedPoint {
    /// Lock label.
    pub lock: String,
    /// Number of processes.
    pub n: usize,
    /// Aborters per run (half the crowd for abortable kinds).
    pub aborters: usize,
    /// Independent runs merged into the totals.
    pub rounds: usize,
    /// Max RMRs over *entered* passages — the retained worst-case
    /// column of Table 1.
    pub max_entered_rmrs: u64,
    /// The run-scoped totals: cumulative RMRs, passage/abort counts,
    /// max single-passage debt, amortized per-passage cost.
    pub stats: AmortizedStats,
    /// Whether mutual exclusion held in every run (it must).
    pub mutex_ok: bool,
    /// Whether every run's probe-side cumulative RMRs matched the
    /// memory's ground-truth counters bit-exactly (it must).
    pub accounting_ok: bool,
}

impl ToJson for AmortizedPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lock", self.lock.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("aborters", Json::Int(self.aborters as i64)),
            ("rounds", Json::Int(self.rounds as i64)),
            ("max_entered_rmrs", self.max_entered_rmrs.to_json()),
            ("amortized", self.stats.to_json()),
            ("mutex_ok", self.mutex_ok.to_json()),
            ("accounting_ok", self.accounting_ok.to_json()),
        ])
    }
}

/// Table 1, "Amortized" column (M9): run-scoped accounting for any
/// kind. Each of the `rounds` runs gives every process `passages`
/// attempts (1 for one-shot kinds) with half the crowd aborting when
/// the kind is abortable — the abandonment-heavy shape under which a
/// constant-amortized lock stays flat while per-passage-bounded tree
/// locks grow with `N`. Per-run [`sal_obs::PassageStats`] sinks are
/// folded with `merge_from`, and every run's cumulative probe-side
/// RMRs are cross-checked bit-exactly against the memory's ground
/// truth ([`AmortizedPoint::accounting_ok`]).
///
/// # Errors
///
/// Propagates any [`SimError`] from the underlying runs.
pub fn amortized_sweep(
    kind: LockKind,
    n: usize,
    rounds: usize,
    passages: usize,
    seed: u64,
) -> Result<AmortizedPoint, SimError> {
    assert!(n >= 2);
    let aborters = if kind.abortable() {
        (n / 2).min(n - 2)
    } else {
        0
    };
    let per_proc = if kind.one_shot() { 1 } else { passages };
    let wait = 8 * n as u64;
    let master = PassageStats::new();
    let mut mutex_ok = true;
    let mut accounting_ok = true;
    for round in 0..rounds {
        let mut plans = vec![ProcPlan::normal(per_proc)];
        plans.extend(vec![ProcPlan::aborter(per_proc, wait); aborters]);
        plans.extend(vec![ProcPlan::normal(per_proc); n - 1 - aborters]);
        let attempts: usize = plans.iter().map(|p| p.passages).sum();
        let built = build_lock(kind, n, attempts);
        let spec = WorkloadSpec {
            plans,
            cs_ops: 2,
            max_steps: 60_000_000,
            lease: 0,
        };
        let schedule = Box::new(RandomSchedule::seeded(seed.wrapping_add(round as u64)));
        let report = run_lock(
            &built.lock,
            &built.mem,
            built.cs_word,
            &spec,
            schedule,
            NoProbe,
        )?;
        mutex_ok &= report.mutex_check.is_ok();
        // Every shared-memory op of a run happens inside some passage,
        // so the run's amortized total must equal the cost model's own
        // cumulative counter exactly — not approximately.
        accounting_ok &= report.stats.amortized().total_rmrs == built.mem.total_rmrs();
        master.merge_from(&report.stats);
    }
    Ok(AmortizedPoint {
        lock: kind.label(),
        n,
        aborters,
        rounds,
        max_entered_rmrs: master.summary().max_entered_rmrs,
        stats: master.amortized(),
        mutex_ok,
        accounting_ok,
    })
}

/// One guided-exploration configuration: a registry lock plus a
/// deterministic workload, runnable under any forced schedule.
///
/// This is the bridge between the lock registry and
/// [`sal_runtime::explore_guided`]: [`guided_run`](Self::guided_run)
/// rebuilds the whole workload from scratch, drives it under the given
/// [`ForcedSchedule`], and reports the safety verdict together with the
/// guidance signals — the op trace (captured by an [`OpTraceSink`]
/// layered *under* the step gate, so it is step-aligned with the
/// schedule) and the run's max per-passage RMR count as the search
/// cost.
#[derive(Debug, Clone)]
pub struct ExploreCell {
    /// Which registry lock to build.
    pub kind: LockKind,
    /// Number of processes.
    pub n: usize,
    /// How many processes play the aborter role.
    pub aborters: usize,
    /// Aborters give up after waiting this many global steps.
    pub abort_after: u64,
    /// Passages per process (forced to 1 for one-shot locks).
    pub passages: usize,
    /// Shared ops inside each critical section.
    pub cs_ops: usize,
    /// Per-run step limit (livelock detector).
    pub max_steps: u64,
}

impl ExploreCell {
    /// An uncontended cell: `n` normal processes, one passage each.
    #[must_use]
    pub fn new(kind: LockKind, n: usize) -> Self {
        ExploreCell {
            kind,
            n,
            aborters: 0,
            abort_after: 8 * n as u64,
            passages: 1,
            cs_ops: 2,
            max_steps: 200_000,
        }
    }

    /// The contended worst-case shape of [`worst_case_sweep`]: all but
    /// two processes abort while queued (deadline `8n`, long enough to
    /// take a queue position first).
    #[must_use]
    pub fn contended(kind: LockKind, n: usize) -> Self {
        assert!(n >= 2);
        ExploreCell {
            aborters: n - 2,
            ..ExploreCell::new(kind, n)
        }
    }

    /// The process plans, in [`adaptive_sweep`] order: one normal, then
    /// the aborters, then the remaining normals.
    #[must_use]
    pub fn plans(&self) -> Vec<ProcPlan> {
        assert!(self.aborters < self.n, "need at least one normal process");
        let passages = if self.kind.one_shot() {
            1
        } else {
            self.passages
        };
        let mut plans = vec![ProcPlan::normal(passages)];
        plans.extend(vec![
            ProcPlan::aborter(passages, self.abort_after);
            self.aborters
        ]);
        plans.extend(vec![ProcPlan::normal(passages); self.n - 1 - self.aborters]);
        plans
    }

    /// Total passage attempts across all plans.
    #[must_use]
    pub fn attempts(&self) -> usize {
        self.plans().iter().map(|p| p.passages).sum()
    }

    /// Execute the cell once under `policy` and judge the run: mutual
    /// exclusion, FCFS (one-shot locks only) and every attempt
    /// resolved. The returned [`GuidedOutcome`] carries the op trace
    /// and the run's max entered-passage RMRs as cost.
    #[must_use]
    pub fn guided_run(&self, policy: ForcedSchedule) -> GuidedOutcome {
        let plans = self.plans();
        let attempts: usize = plans.iter().map(|p| p.passages).sum();
        let built = build_lock(self.kind, self.n, attempts);
        let traced = Layered::over(&built.mem, OpTraceSink::new());
        let spec = WorkloadSpec {
            plans,
            cs_ops: self.cs_ops,
            max_steps: self.max_steps,
            lease: 0,
        };
        let report = run_lock(
            &built.lock,
            &traced,
            built.cs_word,
            &spec,
            Box::new(policy),
            NoProbe,
        );
        // Take the trace before anything else touches the memory — the
        // sink keeps recording after the gate closes.
        let ops = traced.into_layer().take();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                return GuidedOutcome {
                    verdict: Err(e.to_string()),
                    ops,
                    cost: 0,
                }
            }
        };
        let verdict = (|| {
            report
                .mutex_check
                .as_ref()
                .map_err(|v| format!("mutual exclusion violated: {v:?}"))?;
            if self.kind.one_shot() {
                report
                    .fcfs_check
                    .as_ref()
                    .map_err(|v| format!("FCFS violated: {v:?}"))?;
            }
            let resolved: usize = report.outcomes.iter().map(|&(e, a)| e + a).sum();
            if resolved != attempts {
                return Err(format!("only {resolved}/{attempts} attempts resolved"));
            }
            Ok(())
        })();
        GuidedOutcome {
            verdict,
            ops,
            cost: report.stats.summary().max_entered_rmrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_point_runs_and_is_safe() {
        let p = worst_case_sweep(LockKind::OneShot { b: 4 }, 8, 1, NoProbe).unwrap();
        assert!(p.mutex_ok);
        assert_eq!(p.fcfs_ok, Some(true));
        assert_eq!(p.n, 8);
        assert_eq!(p.aborters, 6);
        assert!(p.max_entered_rmrs > 0);
    }

    #[test]
    fn no_abort_point_has_no_aborted_passages() {
        let p = no_abort_sweep(LockKind::LongLived { b: 4 }, 4, 2, 3, NoProbe).unwrap();
        assert!(p.mutex_ok);
        assert_eq!(p.aborters, 0);
        assert_eq!(p.max_aborted_rmrs, 0);
    }

    #[test]
    fn adaptive_point_controls_aborter_count() {
        let p = adaptive_sweep(LockKind::OneShot { b: 2 }, 8, 3, 7, NoProbe).unwrap();
        assert_eq!(p.aborters, 3);
        assert!(p.mutex_ok);
    }

    #[test]
    fn space_rows_scale_as_documented() {
        // One-shot: O(N). Long-lived bounded: O(N²).
        let s64 = space_row(LockKind::OneShot { b: 8 }, 64, 64);
        let s128 = space_row(LockKind::OneShot { b: 8 }, 128, 128);
        assert!(s128 < s64 * 3, "one-shot space should be linear");
        let l16 = space_row(LockKind::LongLived { b: 8 }, 16, 16);
        let l32 = space_row(LockKind::LongLived { b: 8 }, 32, 32);
        assert!(
            l32 as f64 >= l16 as f64 * 2.5,
            "bounded long-lived space should be quadratic: {l16} → {l32}"
        );
    }

    #[test]
    fn amortized_point_merges_rounds_and_matches_ground_truth() {
        let p = amortized_sweep(LockKind::JjAmortized, 4, 3, 2, 5).unwrap();
        assert!(p.mutex_ok);
        assert!(p.accounting_ok, "probe totals must equal memory counters");
        assert_eq!(p.aborters, 2);
        // 3 rounds × (2 normal procs × 2 passages + 2 aborters × 2
        // attempts) = 24 finalized passages.
        assert_eq!(p.stats.passages, 24);
        assert_eq!(p.stats.entered + p.stats.aborted, p.stats.passages);
        assert!(p.stats.total_rmrs > 0);
        assert!(p.stats.amortized_rmrs > 0.0);
        assert!(p.stats.max_passage_rmrs as f64 >= p.stats.amortized_rmrs);
    }

    #[test]
    fn amortized_point_handles_one_shot_and_non_abortable_kinds() {
        let p = amortized_sweep(LockKind::OneShot { b: 2 }, 4, 2, 3, 9).unwrap();
        assert!(p.mutex_ok && p.accounting_ok);
        assert_eq!(p.stats.passages, 8, "one-shot: 1 attempt per process");
        let p = amortized_sweep(LockKind::Mcs, 4, 2, 2, 9).unwrap();
        assert_eq!(p.aborters, 0, "non-abortable kinds run clean");
        assert_eq!(p.stats.aborted, 0);
        assert!(p.accounting_ok);
    }

    #[test]
    fn baselines_run_the_same_workloads() {
        for kind in [LockKind::Scott, LockKind::Lee, LockKind::Tournament] {
            let p = worst_case_sweep(kind, 6, 2, NoProbe).unwrap();
            assert!(p.mutex_ok, "{kind:?}");
        }
    }
}
