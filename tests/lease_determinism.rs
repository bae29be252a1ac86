//! Tier-2 lease determinism suite: the step-lease scheduler
//! ([`WorkloadSpec::lease`]) is a pure transport optimisation — every
//! observable artifact of a run (step counts, per-process outcomes,
//! per-passage RMR records, the step-stamped event log, safety
//! verdicts, exploration traces, replay recordings) must be
//! byte-identical at every lease cap: `1` (legacy per-step), small
//! caps, large caps, and `0` (unbounded).

use sal_bench::{build_lock, LockKind};
use sal_obs::NoProbe;
use sal_runtime::{
    explore, run_lock, BurstySchedule, ExploreOptions, ForcedSchedule, ProcPlan, RandomSchedule,
    Recorder, Recording, SchedulePolicy, WorkloadReport, WorkloadSpec,
};

/// The cap sweep every test runs: per-step reference, short lease, long
/// lease, unbounded.
const CAPS: [u64; 4] = [1, 4, 64, 0];

/// Render everything a run produced into one string; equal strings ⇒
/// the executions are observably identical.
fn fingerprint(report: &WorkloadReport) -> String {
    format!(
        "steps={}\noutcomes={:?}\npassages={:?}\nevents={:?}\nmutex={:?}\nfcfs={:?}",
        report.steps,
        report.outcomes,
        report.passages,
        report.events,
        report.mutex_check,
        report.fcfs_check,
    )
}

/// Run one lock workload at the given lease cap.
fn run_cell(
    kind: LockKind,
    n: usize,
    plans: Vec<ProcPlan>,
    lease: u64,
    policy: Box<dyn SchedulePolicy>,
) -> WorkloadReport {
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 2_000_000,
        lease,
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        policy,
        NoProbe,
    )
    .expect("simulation failed");
    assert!(report.mutex_check.is_ok());
    report
}

#[test]
fn long_lived_sweep_cell_is_byte_identical_at_every_cap() {
    // A contended long-lived cell with an aborter in the mix, under
    // both a random and a bursty schedule (bursty grants long leases).
    for seed_policy in [0u8, 1u8] {
        let plans = || {
            let mut p = vec![ProcPlan::normal(3); 3];
            p.push(ProcPlan::aborter(3, 24));
            p
        };
        let policy = |s: u64| -> Box<dyn SchedulePolicy> {
            if seed_policy == 0 {
                Box::new(RandomSchedule::seeded(s))
            } else {
                Box::new(BurstySchedule::seeded(s, 0.9))
            }
        };
        let reference = fingerprint(&run_cell(
            LockKind::LongLived { b: 4 },
            4,
            plans(),
            1,
            policy(5),
        ));
        for cap in CAPS {
            let fp = fingerprint(&run_cell(
                LockKind::LongLived { b: 4 },
                4,
                plans(),
                cap,
                policy(5),
            ));
            assert_eq!(
                fp, reference,
                "policy {seed_policy}: lease cap {cap} diverged from per-step"
            );
        }
    }
}

#[test]
fn one_shot_worst_case_cell_is_byte_identical_at_every_cap() {
    let plans = || {
        vec![
            ProcPlan::normal(1),
            ProcPlan::aborter(1, 32),
            ProcPlan::aborter(1, 32),
            ProcPlan::normal(1),
        ]
    };
    let reference = fingerprint(&run_cell(
        LockKind::OneShot { b: 4 },
        4,
        plans(),
        1,
        Box::new(RandomSchedule::seeded(9)),
    ));
    for cap in CAPS {
        let fp = fingerprint(&run_cell(
            LockKind::OneShot { b: 4 },
            4,
            plans(),
            cap,
            Box::new(RandomSchedule::seeded(9)),
        ));
        assert_eq!(fp, reference, "lease cap {cap} diverged from per-step");
    }
}

#[test]
fn abort_deadline_lands_mid_lease_without_drifting() {
    // Bursty at 0.95 grants runs of ~20 steps, far past the aborter's
    // 6-step patience: its deadline routinely falls inside a lease. The
    // abort must still fire at exactly the same global step as the
    // per-step scheduler delivers it.
    let plans = || {
        vec![
            ProcPlan::normal(2),
            ProcPlan::normal(2),
            ProcPlan::aborter(2, 6),
        ]
    };
    let run = |cap: u64| {
        run_cell(
            LockKind::LongLived { b: 4 },
            3,
            plans(),
            cap,
            Box::new(BurstySchedule::seeded(13, 0.95)),
        )
    };
    let reference = run(1);
    let aborted: usize = reference.outcomes.iter().map(|&(_, a)| a).sum();
    assert!(aborted > 0, "workload must actually abort to test delivery");
    let ref_fp = fingerprint(&reference);
    for cap in CAPS {
        assert_eq!(fingerprint(&run(cap)), ref_fp, "cap {cap} drifted");
    }
}

#[test]
fn process_finishing_mid_lease_is_byte_identical() {
    // Asymmetric passage counts: process 0 finishes long before the
    // others, frequently while holding a bursty lease — the gate must
    // return the unused remainder without perturbing the schedule.
    let plans = || {
        vec![
            ProcPlan::normal(1),
            ProcPlan::normal(4),
            ProcPlan::normal(4),
        ]
    };
    let run = |cap: u64| {
        run_cell(
            LockKind::LongLived { b: 4 },
            3,
            plans(),
            cap,
            Box::new(BurstySchedule::seeded(17, 0.9)),
        )
    };
    let reference = run(1);
    let entered: usize = reference.outcomes.iter().map(|&(e, _)| e).sum();
    assert_eq!(entered, 9, "no-abort workload must complete every passage");
    let ref_fp = fingerprint(&reference);
    for cap in CAPS {
        assert_eq!(fingerprint(&run(cap)), ref_fp, "cap {cap} drifted");
    }
}

#[test]
fn exploration_trace_is_identical_at_every_cap() {
    // The explorer's visited-schedule set and run count derive from the
    // recorded decision traces; leases must not change a single one.
    let explore_at = |cap: u64| {
        let run = |policy: ForcedSchedule| -> Result<(), String> {
            let plans = vec![
                ProcPlan::normal(1),
                ProcPlan::aborter(1, 4),
                ProcPlan::normal(1),
            ];
            let attempts: usize = plans.iter().map(|p| p.passages).sum();
            let built = build_lock(LockKind::OneShot { b: 2 }, 3, attempts);
            let spec = WorkloadSpec {
                plans,
                cs_ops: 2,
                max_steps: 100_000,
                lease: cap,
            };
            let report = run_lock(
                &built.lock,
                &built.mem,
                built.cs_word,
                &spec,
                Box::new(policy),
                NoProbe,
            )
            .map_err(|e| e.to_string())?;
            report.mutex_check.as_ref().map_err(|v| format!("{v:?}"))?;
            let resolved: usize = report.outcomes.iter().map(|&(e, a)| e + a).sum();
            if resolved != attempts {
                return Err(format!("only {resolved}/{attempts} attempts resolved"));
            }
            Ok(())
        };
        explore(
            &ExploreOptions {
                max_deviations: 1,
                max_runs: 600,
                max_branch_depth: 50,
                jobs: 1,
                collect_schedules: true,
                ..ExploreOptions::default()
            },
            run,
        )
    };
    let reference = explore_at(1);
    assert!(
        reference.runs > 20,
        "explored only {} schedules",
        reference.runs
    );
    assert!(reference.violation.is_none());
    for cap in CAPS {
        let result = explore_at(cap);
        assert_eq!(result.runs, reference.runs, "cap {cap} run count drifted");
        assert_eq!(result.truncated, reference.truncated);
        assert_eq!(
            result.visited, reference.visited,
            "cap {cap} explored a different schedule set"
        );
        assert!(result.violation.is_none());
    }
}

#[test]
fn recording_and_replay_are_byte_identical_at_every_cap() {
    let plans = || vec![ProcPlan::normal(3); 3];
    // Record the same bursty run once per cap: the captured decision
    // sequence must not depend on lease batching.
    let record_at = |cap: u64| -> (Recording, String) {
        let recorder = Recorder::wrap(Box::new(BurstySchedule::seeded(23, 0.9)));
        let handle = recorder.recording();
        let report = run_cell(
            LockKind::LongLived { b: 4 },
            3,
            plans(),
            cap,
            Box::new(recorder),
        );
        (handle.snapshot(), fingerprint(&report))
    };
    let (reference_rec, reference_fp) = record_at(1);
    assert!(!reference_rec.is_empty());
    for cap in CAPS {
        let (rec, fp) = record_at(cap);
        assert_eq!(
            rec, reference_rec,
            "cap {cap} recorded a different schedule"
        );
        assert_eq!(fp, reference_fp, "cap {cap} executed differently");
    }
    // Replaying the recording reproduces the run exactly — at every cap.
    for cap in CAPS {
        let report = run_cell(
            LockKind::LongLived { b: 4 },
            3,
            plans(),
            cap,
            Box::new(reference_rec.clone().into_policy()),
        );
        assert_eq!(
            fingerprint(&report),
            reference_fp,
            "replay at cap {cap} diverged from the recorded run"
        );
    }
}
