//! Cross-validation of the observability layer against the memory
//! model: on deterministic scripted schedules (and a seed sweep of
//! random ones), the per-passage RMR counts reported by
//! `sal_obs::PassageStats` must sum to *exactly* the RMR counters kept
//! by `CcMemory` — the ground truth the paper's cost model defines.
//!
//! Covered from both directions:
//! * harness-driven runs (`run_lock` with an extra sink), where every
//!   shared-memory operation of enter, CS and exit flows through the
//!   probe, for the one-shot and the long-lived lock, with and without
//!   aborters;
//! * directly-driven locks (`enter_core` / `exit_core` plus a
//!   `ProbedMem`-wrapped critical section), with no simulator at all,
//!   for every lock in the registry.

use sal_bench::{build_lock, LockKind};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::one_shot::OneShotLock;
use sal_core::{Immediate, LockCore};
use sal_memory::{Mem, MemoryBuilder, NeverAbort, WordId};
use sal_obs::{probed, PassageRecord, PassageStats};
use sal_runtime::{
    run_lock, ProcPlan, RandomSchedule, RoundRobin, Scripted, WorkloadReport, WorkloadSpec,
};

/// The invariant under test: every RMR the memory charged appears in
/// exactly one passage record, per process and in total.
fn assert_matches_ground_truth(
    records: &[PassageRecord],
    mem: &sal_memory::CcMemory,
    nprocs: usize,
    label: &str,
) {
    let total: u64 = records.iter().map(|r| r.rmrs).sum();
    assert_eq!(
        total,
        mem.total_rmrs(),
        "{label}: probe total diverges from CcMemory ground truth"
    );
    for p in 0..nprocs {
        let per_pid: u64 = records.iter().filter(|r| r.pid == p).map(|r| r.rmrs).sum();
        assert_eq!(
            per_pid,
            mem.rmrs(p),
            "{label}: probe total for process {p} diverges"
        );
    }
}

/// Both sinks — the harness's internal `PassageStats` and an extra
/// user-attached clone — must agree record-for-record.
fn assert_sinks_agree(report: &WorkloadReport, extra: &PassageStats, label: &str) {
    assert_eq!(
        report.stats.records(),
        extra.records(),
        "{label}: user-attached sink saw a different run"
    );
}

/// A fixed interleaving prefix (then round-robin) so the accounting is
/// checked on a *known* schedule, not just sampled ones.
fn scripted(prefix: Vec<usize>) -> Box<Scripted> {
    Box::new(Scripted::new(prefix, Box::new(RoundRobin::new())))
}

#[test]
fn one_shot_passages_match_cc_ground_truth_on_a_scripted_schedule() {
    let n = 4;
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, n, 2);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let spec = WorkloadSpec::uniform(n, 1);
    // Interleave the doorways pairwise before falling back to RR.
    let extra = PassageStats::new();
    let report = run_lock(
        &lock,
        &mem,
        cs,
        &spec,
        scripted(vec![0, 1, 0, 1, 2, 3, 2, 3, 0, 2, 1, 3]),
        extra.clone(),
    )
    .expect("sim failed");
    report.assert_safe();
    assert_eq!(report.stats.total_entered(), n);
    assert_matches_ground_truth(&report.passages, &mem, n, "one-shot scripted");
    assert_sinks_agree(&report, &extra, "one-shot scripted");
}

#[test]
fn one_shot_aborted_attempts_are_charged_to_their_passage() {
    let n = 4;
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, n, 2);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    // Two aborters in the middle of the queue; their partial passages
    // must still account for every RMR they incurred.
    let spec = WorkloadSpec {
        plans: vec![
            ProcPlan::normal(1),
            ProcPlan::aborter(1, 12),
            ProcPlan::aborter(1, 16),
            ProcPlan::normal(1),
        ],
        cs_ops: 2,
        max_steps: 1_000_000,
        lease: sal_runtime::default_lease(),
    };
    let extra = PassageStats::new();
    let report = run_lock(
        &lock,
        &mem,
        cs,
        &spec,
        scripted(vec![0, 1, 2, 3, 3, 2, 1, 0]),
        extra.clone(),
    )
    .expect("sim failed");
    assert!(report.mutex_check.is_ok());
    assert!(
        report.passages.iter().any(|r| !r.entered),
        "schedule produced no aborts — the test would prove nothing"
    );
    assert_matches_ground_truth(&report.passages, &mem, n, "one-shot aborters");
    assert_sinks_agree(&report, &extra, "one-shot aborters");
}

#[test]
fn long_lived_passages_match_cc_ground_truth_on_scripted_and_random_schedules() {
    for seed in 0..10u64 {
        let n = 4;
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, n, 2);
        let cs = b.alloc(0);
        let mem = b.build_cc(n);
        let spec = WorkloadSpec {
            plans: vec![
                ProcPlan::normal(3),
                ProcPlan::normal(3),
                ProcPlan::aborter(3, 25),
                ProcPlan::normal(3),
            ],
            cs_ops: 2,
            max_steps: 10_000_000,
            lease: sal_runtime::default_lease(),
        };
        let extra = PassageStats::new();
        let policy: Box<dyn sal_runtime::SchedulePolicy> = if seed == 0 {
            scripted(vec![0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3])
        } else {
            Box::new(RandomSchedule::seeded(seed))
        };
        let report = run_lock(&lock, &mem, cs, &spec, policy, extra.clone()).expect("sim failed");
        assert!(report.mutex_check.is_ok(), "seed {seed}");
        // Long-lived passages include instance switches (the §6.2 reset
        // work) — all of it must land in some passage record.
        assert_matches_ground_truth(&report.passages, &mem, n, "long-lived");
        assert_sinks_agree(&report, &extra, "long-lived");
    }
}

#[test]
fn directly_driven_one_shot_matches_ground_truth_without_the_harness() {
    let n = 3;
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, n, 2);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let stats = PassageStats::new();
    // Sequential passages, no simulator: the probed entry points plus a
    // ProbedMem-wrapped CS are the whole accounting path.
    for p in 0..n {
        assert!(lock.enter_core(&mem, p, &NeverAbort, &stats).entered());
        probed(&mem, &stats).faa(p, cs, 1);
        lock.exit_core(&mem, p, &stats);
    }
    // Ground truth first: the verification read of `cs` below is itself
    // an (unprobed) RMR and would skew the counters.
    assert_matches_ground_truth(&stats.records(), &mem, n, "direct one-shot");
    assert_eq!(mem.read(0, cs), n as u64);
}

#[test]
fn directly_driven_long_lived_matches_ground_truth_across_instance_switches() {
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, 2, 2);
    let cs: WordId = b.alloc(0);
    let mem = b.build_cc(2);
    let stats = PassageStats::new();
    // 8 solo passages: every one switches instances, so the recycling
    // path (descriptor CAS, lazy resets) is all exercised and must be
    // fully attributed.
    for attempt in 0..8 {
        let p = attempt % 2;
        assert!(lock.enter_core(&mem, p, &NeverAbort, &stats).entered());
        probed(&mem, &stats).faa(p, cs, 1);
        lock.exit_core(&mem, p, &stats);
    }
    assert_eq!(stats.total_entered(), 8);
    assert_matches_ground_truth(&stats.records(), &mem, 2, "direct long-lived");
    assert_eq!(mem.read(0, cs), 8);
}

#[test]
fn every_registry_lock_driven_directly_matches_ground_truth() {
    let n = 4;
    for name in LockKind::NAMES {
        let kind = LockKind::parse(name, 4).expect("registry name");
        // One-shot locks admit one attempt per process.
        let rounds = if kind.one_shot() { 1 } else { 3 };
        let built = build_lock(kind, n, n * rounds);
        let (lock, mem) = (&built.lock, &built.mem);
        let stats = PassageStats::new();
        let mut attempts = 0;
        for round in 0..rounds {
            for p in 0..n {
                // Process 1's first attempt is the aborted one below.
                if round == 0 && p == 1 && kind.abortable() {
                    continue;
                }
                assert!(lock.enter_core(mem, p, &NeverAbort, &stats).entered());
                attempts += 1;
                if round == 0 && p == 0 && kind.abortable() {
                    // Process 1 attempts while process 0 holds the lock,
                    // its signal already fired: the attempt must abort.
                    let outcome = lock.enter_core(mem, 1, &Immediate, &stats);
                    assert!(outcome.aborted(), "{name}: {outcome:?}");
                    attempts += 1;
                }
                probed(mem, &stats).faa(p, built.cs_word, 1);
                lock.exit_core(mem, p, &stats);
            }
        }
        let records = stats.records();
        assert_eq!(records.len(), attempts, "{name}: one record per attempt");
        assert_eq!(
            records.iter().filter(|r| !r.entered).count(),
            usize::from(kind.abortable()),
            "{name}: aborted records"
        );
        assert_matches_ground_truth(&records, mem, n, name);
    }
}
