//! Cross-validation of the *amortized* accounting layer against the
//! memory model: [`sal_obs::AmortizedStats`] — the run-level aggregate
//! that the Jayanti–Jayanti constant-amortized-RMR claim is stated
//! over — must agree **bit-exactly** with the RMR counters kept by the
//! memory itself (`CcMemory` and `DsmMemory`), on scripted schedules
//! and seeded sweeps, with and without aborters.
//!
//! Three layers are pinned down:
//! * the aggregate is a faithful fold of the per-passage records
//!   (totals, passage counts, max single-passage debt, ratio);
//! * the fold equals the memory's own ground truth, in both cost
//!   models;
//! * the fan-in paths (`merge_from` at the stats level and at the
//!   aggregate level) and the JSON codec preserve every bit.

use sal_core::long_lived::JjLock;
use sal_core::one_shot::OneShotLock;
use sal_memory::Mem;
use sal_memory::MemoryBuilder;
use sal_obs::{AmortizedStats, Json, PassageStats, ToJson};
use sal_runtime::{
    run_lock, ProcPlan, RandomSchedule, RoundRobin, SchedulePolicy, Scripted, WorkloadSpec,
};

/// The invariant under test, checked from first principles: the
/// aggregate must be *derivable from the records* and the records must
/// *sum to the memory's counters*.
fn assert_amortized_exact(stats: &PassageStats, mem: &dyn Mem, label: &str) {
    let a = stats.amortized();
    let records = stats.records();

    // Aggregate ↔ per-passage records.
    let total: u64 = records.iter().map(|r| r.rmrs).sum();
    let entered = records.iter().filter(|r| r.entered).count() as u64;
    let max = records.iter().map(|r| r.rmrs).max().unwrap_or(0);
    assert_eq!(a.total_rmrs, total, "{label}: total_rmrs vs record sum");
    assert_eq!(a.passages, records.len() as u64, "{label}: passage count");
    assert_eq!(a.entered, entered, "{label}: entered count");
    assert_eq!(a.aborted, a.passages - entered, "{label}: aborted count");
    assert_eq!(a.max_passage_rmrs, max, "{label}: max single-passage debt");
    let ratio = if a.passages == 0 {
        0.0
    } else {
        a.total_rmrs as f64 / a.passages as f64
    };
    assert!(
        a.amortized_rmrs == ratio,
        "{label}: amortized ratio not the exact quotient"
    );

    // Aggregate ↔ memory ground truth, bit for bit.
    assert_eq!(
        a.total_rmrs,
        mem.total_rmrs(),
        "{label}: aggregate diverges from the memory's own RMR counters"
    );
}

/// A fixed interleaving prefix (then round-robin), so the accounting is
/// checked on a *known* schedule, not just sampled ones.
fn scripted(prefix: Vec<usize>) -> Box<dyn SchedulePolicy> {
    Box::new(Scripted::new(prefix, Box::new(RoundRobin::new())))
}

/// Mixed clean/aborting workload for the JJ lock: the aborters deposit
/// abandoned nodes, the exit walks consume them — the exact pattern the
/// amortized accounting exists to price.
fn jj_spec() -> WorkloadSpec {
    WorkloadSpec {
        plans: vec![
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 25),
            ProcPlan::normal(3),
            ProcPlan::aborter(3, 10),
        ],
        cs_ops: 2,
        max_steps: 20_000_000,
        lease: 0,
    }
}

#[test]
fn jj_amortized_matches_cc_ground_truth_on_scripted_and_random_schedules() {
    for seed in 0..12u64 {
        let n = 4;
        let mut b = MemoryBuilder::new();
        let lock = JjLock::layout(&mut b, n);
        let cs = b.alloc(0);
        let mem = b.build_cc(n);
        let stats = PassageStats::new();
        let policy = if seed == 0 {
            scripted(vec![0, 1, 2, 3, 3, 2, 1, 0, 0, 0, 1, 1])
        } else {
            Box::new(RandomSchedule::seeded(seed))
        };
        let report =
            run_lock(&lock, &mem, cs, &jj_spec(), policy, stats.clone()).expect("sim failed");
        assert!(report.mutex_check.is_ok(), "seed {seed}");
        assert!(
            stats.amortized().aborted > 0,
            "seed {seed}: no aborts — the consuming walk went unexercised"
        );
        assert_amortized_exact(&stats, &mem, &format!("jj cc seed={seed}"));
    }
}

#[test]
fn jj_amortized_matches_dsm_ground_truth() {
    // Same lock, other cost model: under DSM the charged operations
    // differ (spins on remote words keep billing), so agreement here
    // shows the aggregation layer is model-agnostic — it follows the
    // memory's definition of an RMR, whatever that is.
    for seed in 0..8u64 {
        let n = 4;
        let mut b = MemoryBuilder::new();
        let lock = JjLock::layout(&mut b, n);
        let cs = b.alloc(0);
        let mem = b.build_dsm(n);
        let stats = PassageStats::new();
        let report = run_lock(
            &lock,
            &mem,
            cs,
            &jj_spec(),
            Box::new(RandomSchedule::seeded(seed)),
            stats.clone(),
        )
        .expect("sim failed");
        assert!(report.mutex_check.is_ok(), "seed {seed}");
        assert_amortized_exact(&stats, &mem, &format!("jj dsm seed={seed}"));
    }
}

#[test]
fn one_shot_amortized_matches_cc_ground_truth() {
    // The layer is lock-agnostic: the one-shot tree lock's aggregate
    // must reconcile the same way, including aborted partial passages.
    let n = 4;
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, n, 2);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let spec = WorkloadSpec {
        plans: vec![
            ProcPlan::normal(1),
            ProcPlan::aborter(1, 12),
            ProcPlan::aborter(1, 16),
            ProcPlan::normal(1),
        ],
        cs_ops: 2,
        max_steps: 1_000_000,
        lease: 0,
    };
    let stats = PassageStats::new();
    let report = run_lock(
        &lock,
        &mem,
        cs,
        &spec,
        scripted(vec![0, 1, 2, 3, 3, 2, 1, 0]),
        stats.clone(),
    )
    .expect("sim failed");
    assert!(report.mutex_check.is_ok());
    assert_amortized_exact(&stats, &mem, "one-shot cc");
}

#[test]
fn merging_cells_equals_one_shared_sink_at_both_levels() {
    // Fan-in equivalence: K independent runs folded (a) record-level via
    // PassageStats::merge_from and (b) aggregate-level via
    // AmortizedStats::merge_from must produce the identical aggregate —
    // and it must still reconcile against the summed ground truth.
    let record_level = PassageStats::new();
    let mut aggregate_level = AmortizedStats::empty();
    let mut ground_truth = 0u64;
    for seed in [3u64, 17, 1984] {
        let n = 4;
        let mut b = MemoryBuilder::new();
        let lock = JjLock::layout(&mut b, n);
        let cs = b.alloc(0);
        let mem = b.build_cc(n);
        let cell = PassageStats::new();
        let report = run_lock(
            &lock,
            &mem,
            cs,
            &jj_spec(),
            Box::new(RandomSchedule::seeded(seed)),
            cell.clone(),
        )
        .expect("sim failed");
        assert!(report.mutex_check.is_ok(), "seed {seed}");
        record_level.merge_from(&cell);
        aggregate_level.merge_from(&cell.amortized());
        ground_truth += mem.total_rmrs();
    }
    let folded = record_level.amortized();
    assert_eq!(folded, aggregate_level, "the two fan-in paths disagree");
    assert_eq!(
        folded.total_rmrs, ground_truth,
        "merged aggregate diverges from summed memory counters"
    );
    assert!(folded.max_passage_rmrs > 0);
}

#[test]
fn json_codec_round_trips_the_aggregate_bit_exactly() {
    let n = 4;
    let mut b = MemoryBuilder::new();
    let lock = JjLock::layout(&mut b, n);
    let cs = b.alloc(0);
    let mem = b.build_cc(n);
    let stats = PassageStats::new();
    run_lock(
        &lock,
        &mem,
        cs,
        &jj_spec(),
        Box::new(RandomSchedule::seeded(7)),
        stats.clone(),
    )
    .expect("sim failed");
    let a = stats.amortized();
    // Render → parse → decode: what an artifact reader recovers must be
    // the identical value, amortized ratio included (f64 Display is
    // shortest-round-trip, so the quotient survives the text form).
    let text = a.to_json().render();
    let back = AmortizedStats::from_json(&Json::parse(&text).expect("parse")).expect("decode");
    assert_eq!(a, back, "codec round trip is lossy");
}

#[test]
fn empty_runs_merge_as_the_identity() {
    let mut a = AmortizedStats::empty();
    a.merge_from(&AmortizedStats::empty());
    assert_eq!(a, AmortizedStats::empty());
    assert!(a.amortized_rmrs == 0.0, "0/0 must stay 0, not NaN");

    let stats = PassageStats::new();
    let mut from_empty = AmortizedStats::empty();
    from_empty.merge_from(&stats.amortized());
    assert_eq!(from_empty, stats.amortized());
}
