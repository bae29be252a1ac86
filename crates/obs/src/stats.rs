//! [`PassageStats`]: the per-passage RMR accounting sink.
//!
//! This is the single accounting path behind every experiment: the
//! harness (and any directly-driven lock wrapped in
//! [`ProbedMem`](crate::ProbedMem)) feeds it lifecycle + operation
//! hooks, and it produces per-passage records, RMR and step-latency
//! histograms, and amortized totals — the measured counterparts of the
//! paper's per-passage complexity statements.

use crate::hist::Histogram;
use crate::json::{Json, ToJson};
use crate::probe::Probe;
use sal_memory::{OpKind, Pid};
use std::sync::{Arc, Mutex};

/// Statistics for one completed passage attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassageRecord {
    /// The attempting process.
    pub pid: Pid,
    /// 0-based attempt index of this process.
    pub attempt: usize,
    /// Whether the CS was entered (vs. aborted).
    pub entered: bool,
    /// RMRs incurred across `enter` + CS + `exit` (or across the aborted
    /// `enter`).
    pub rmrs: u64,
    /// Shared-memory operations across the passage (each one a
    /// simulator scheduling point — the passage's step latency).
    pub ops: u64,
    /// The FCFS doorway ticket, when the algorithm reported one.
    pub ticket: Option<u64>,
}

/// An in-flight passage of one process.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    active: bool,
    entered: bool,
    rmrs: u64,
    ops: u64,
    ticket: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    inflight: Vec<InFlight>,
    attempts: Vec<usize>,
    records: Vec<PassageRecord>,
    entered_rmrs: Histogram,
    aborted_rmrs: Histogram,
    entered_ops: Histogram,
    dropped_events: u64,
}

/// Summary view of a run: histograms and amortized totals.
#[derive(Debug, Clone)]
pub struct PassageSummary {
    /// Completed (entered) passages.
    pub entered: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// Max RMRs over entered passages.
    pub max_entered_rmrs: u64,
    /// Median RMRs over entered passages.
    pub p50_entered_rmrs: u64,
    /// 99th-percentile RMRs over entered passages.
    pub p99_entered_rmrs: u64,
    /// Mean RMRs over entered passages.
    pub mean_entered_rmrs: f64,
    /// Max RMRs over aborted attempts.
    pub max_aborted_rmrs: u64,
    /// Total RMRs over *all* passages divided by total passages — the
    /// amortized per-passage cost (the Jayanti-&-Jayanti comparison
    /// metric).
    pub amortized_rmrs: f64,
    /// Max shared-memory steps (op count) of an entered passage.
    pub max_entered_ops: u64,
    /// Events a bounded [`EventLog`](crate::EventLog) observing the
    /// same run discarded (see
    /// [`note_dropped_events`](PassageStats::note_dropped_events)).
    /// Non-zero means event-level artifacts of this run are truncated;
    /// the statistics themselves are always complete.
    pub dropped_events: u64,
}

/// Run-scoped amortized accounting: the cumulative-cost view of a run
/// (or of several merged runs), as opposed to the per-passage view of
/// [`PassageSummary`].
///
/// This is the measured counterpart of an *amortized* complexity claim
/// in the Jayanti–Jayanti sense: a run's total RMR bill divided by the
/// number of passages that footed it, together with the largest single
/// debt any one passage ran up. A lock has constant amortized RMR cost
/// exactly when [`total_rmrs`](Self::total_rmrs) stays ≤
/// `c · passages + b` for fixed `c`, `b` — even if
/// [`max_passage_rmrs`](Self::max_passage_rmrs) occasionally spikes.
///
/// Obtain one from [`PassageStats::amortized`], fold independent runs
/// together with [`merge_from`](Self::merge_from), and ship it through
/// the JSON codec with [`ToJson`] / [`from_json`](Self::from_json).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmortizedStats {
    /// Cumulative RMRs over *all* finalized passages (entered and
    /// aborted alike).
    pub total_rmrs: u64,
    /// Total finalized passages (entered + aborted).
    pub passages: u64,
    /// Passages that entered the CS.
    pub entered: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// Largest RMR bill of any single passage — the worst-case debt one
    /// passage ran up against the amortized budget.
    pub max_passage_rmrs: u64,
    /// `total_rmrs / passages` (0 when the run had no passages).
    pub amortized_rmrs: f64,
}

impl AmortizedStats {
    /// The empty (zero-passage) accounting state.
    #[must_use]
    pub fn empty() -> AmortizedStats {
        AmortizedStats {
            total_rmrs: 0,
            passages: 0,
            entered: 0,
            aborted: 0,
            max_passage_rmrs: 0,
            amortized_rmrs: 0.0,
        }
    }

    fn with_ratio(mut self) -> AmortizedStats {
        self.amortized_rmrs = if self.passages == 0 {
            0.0
        } else {
            self.total_rmrs as f64 / self.passages as f64
        };
        self
    }

    /// Fold another run's totals into this one — the amortized-level
    /// mirror of [`PassageStats::merge_from`], for fan-ins that only
    /// kept the aggregate. Counters add, the max-debt takes the max,
    /// and the amortized ratio is recomputed from the merged totals.
    pub fn merge_from(&mut self, other: &AmortizedStats) {
        self.total_rmrs += other.total_rmrs;
        self.passages += other.passages;
        self.entered += other.entered;
        self.aborted += other.aborted;
        self.max_passage_rmrs = self.max_passage_rmrs.max(other.max_passage_rmrs);
        *self = self.with_ratio();
    }

    /// Parse the [`ToJson`] encoding back (artifact round-trips).
    ///
    /// # Errors
    ///
    /// When a field is missing or has the wrong type.
    pub fn from_json(v: &Json) -> Result<AmortizedStats, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("AmortizedStats: missing/invalid field {k:?}"))
        };
        let stats = AmortizedStats {
            total_rmrs: field("total_rmrs")?,
            passages: field("passages")?,
            entered: field("entered")?,
            aborted: field("aborted")?,
            max_passage_rmrs: field("max_passage_rmrs")?,
            amortized_rmrs: v
                .get("amortized_rmrs")
                .and_then(Json::as_f64)
                .ok_or("AmortizedStats: missing/invalid field \"amortized_rmrs\"")?,
        };
        Ok(stats.with_ratio())
    }
}

impl ToJson for AmortizedStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_rmrs", self.total_rmrs.to_json()),
            ("passages", self.passages.to_json()),
            ("entered", self.entered.to_json()),
            ("aborted", self.aborted.to_json()),
            ("max_passage_rmrs", self.max_passage_rmrs.to_json()),
            ("amortized_rmrs", self.amortized_rmrs.to_json()),
        ])
    }
}

/// Per-passage RMR + step-latency accounting, fed through the [`Probe`]
/// hooks.
///
/// Thread-safe; one instance observes one execution. Passages finalize
/// on [`cs_exit`](Probe::cs_exit) (entered) or [`abort`](Probe::abort)
/// (aborted), and appear in [`records`](Self::records) in finalization
/// order.
///
/// `PassageStats` is a cheap *handle*: `clone()` yields another handle on
/// the same underlying accounting state, so a caller can hand one clone
/// to an execution (which needs an owned, `'static` probe) and keep
/// another to read the results afterwards.
#[derive(Debug, Default, Clone)]
pub struct PassageStats {
    inner: Arc<Mutex<Inner>>,
}

impl PassageStats {
    /// New, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All finalized passages, in completion order.
    pub fn records(&self) -> Vec<PassageRecord> {
        self.inner.lock().unwrap().records.clone()
    }

    /// Number of finalized passages.
    pub fn total_passages(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// Number of passages that entered the CS.
    pub fn total_entered(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.entered_rmrs.count() as usize
    }

    /// Maximum per-passage RMR count among entered passages.
    pub fn max_entered_rmrs(&self) -> u64 {
        self.inner.lock().unwrap().entered_rmrs.max()
    }

    /// Maximum per-passage RMR count among aborted attempts.
    pub fn max_aborted_rmrs(&self) -> u64 {
        self.inner.lock().unwrap().aborted_rmrs.max()
    }

    /// Mean RMRs over entered passages.
    pub fn mean_entered_rmrs(&self) -> f64 {
        self.inner.lock().unwrap().entered_rmrs.mean()
    }

    /// Histograms + amortized totals for the whole run.
    pub fn summary(&self) -> PassageSummary {
        let inner = self.inner.lock().unwrap();
        let total = inner.entered_rmrs.count() + inner.aborted_rmrs.count();
        let total_rmrs = inner.entered_rmrs.sum() + inner.aborted_rmrs.sum();
        PassageSummary {
            entered: inner.entered_rmrs.count(),
            aborted: inner.aborted_rmrs.count(),
            max_entered_rmrs: inner.entered_rmrs.max(),
            p50_entered_rmrs: inner.entered_rmrs.quantile(0.50).unwrap_or(0),
            p99_entered_rmrs: inner.entered_rmrs.quantile(0.99).unwrap_or(0),
            mean_entered_rmrs: inner.entered_rmrs.mean(),
            max_aborted_rmrs: inner.aborted_rmrs.max(),
            amortized_rmrs: if total == 0 {
                0.0
            } else {
                total_rmrs as f64 / total as f64
            },
            max_entered_ops: inner.entered_ops.max(),
            dropped_events: inner.dropped_events,
        }
    }

    /// Run-scoped amortized totals: the cumulative-cost view this sink
    /// has accumulated so far (across [`merge_from`](Self::merge_from)
    /// fan-ins too, since histograms combine exactly).
    pub fn amortized(&self) -> AmortizedStats {
        let inner = self.inner.lock().unwrap();
        let entered = inner.entered_rmrs.count();
        let aborted = inner.aborted_rmrs.count();
        AmortizedStats {
            total_rmrs: inner.entered_rmrs.sum() + inner.aborted_rmrs.sum(),
            passages: entered + aborted,
            entered,
            aborted,
            max_passage_rmrs: inner.entered_rmrs.max().max(inner.aborted_rmrs.max()),
            amortized_rmrs: 0.0,
        }
        .with_ratio()
    }

    /// Record that a bounded event log observing the same run dropped
    /// `n` more events, so truncation shows up in summaries (and the
    /// JSON artifacts built from them) instead of only on the log
    /// itself. Call with [`EventLog::dropped`](crate::EventLog::dropped)
    /// after a run (the count is additive, so per-cell drops fold in
    /// one call each).
    pub fn note_dropped_events(&self, n: u64) {
        self.inner.lock().unwrap().dropped_events += n;
    }

    /// Total events reported dropped via
    /// [`note_dropped_events`](Self::note_dropped_events) (including
    /// counts folded in by [`merge_from`](Self::merge_from)).
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().unwrap().dropped_events
    }

    /// Fold another sink's *finalized* passages into this one — the
    /// fan-in for parallel sweeps, where every grid cell measures into
    /// a private `PassageStats` and the driver merges them in
    /// deterministic cell order. Records are appended in `other`'s
    /// completion order with their original `pid` / `attempt` fields
    /// (attempt indices are per-source-run; cells are separate runs by
    /// construction), and all histograms combine exactly. Passages
    /// still in flight in `other` are not merged — merge completed
    /// runs. `other` is left untouched.
    pub fn merge_from(&self, other: &PassageStats) {
        // Snapshot before locking ourselves, so merging a clone of the
        // same sink cannot deadlock.
        let (records, entered_rmrs, aborted_rmrs, entered_ops, dropped_events) = {
            let o = other.inner.lock().unwrap();
            (
                o.records.clone(),
                o.entered_rmrs.clone(),
                o.aborted_rmrs.clone(),
                o.entered_ops.clone(),
                o.dropped_events,
            )
        };
        let mut inner = self.inner.lock().unwrap();
        inner.records.extend(records);
        inner.entered_rmrs.merge_from(&entered_rmrs);
        inner.aborted_rmrs.merge_from(&aborted_rmrs);
        inner.entered_ops.merge_from(&entered_ops);
        inner.dropped_events += dropped_events;
    }

    fn slot(inner: &mut Inner, p: Pid) -> &mut InFlight {
        if inner.inflight.len() <= p {
            inner.inflight.resize(p + 1, InFlight::default());
            inner.attempts.resize(p + 1, 0);
        }
        &mut inner.inflight[p]
    }

    fn finalize(inner: &mut Inner, p: Pid, entered: bool) {
        let fl = *Self::slot(inner, p);
        if !fl.active {
            return;
        }
        inner.inflight[p] = InFlight::default();
        let attempt = inner.attempts[p];
        inner.attempts[p] += 1;
        if entered {
            inner.entered_rmrs.record(fl.rmrs);
            inner.entered_ops.record(fl.ops);
        } else {
            inner.aborted_rmrs.record(fl.rmrs);
        }
        inner.records.push(PassageRecord {
            pid: p,
            attempt,
            entered,
            rmrs: fl.rmrs,
            ops: fl.ops,
            ticket: fl.ticket,
        });
    }
}

impl Probe for PassageStats {
    fn enter_begin(&self, p: Pid) {
        let mut inner = self.inner.lock().unwrap();
        let slot = Self::slot(&mut inner, p);
        *slot = InFlight {
            active: true,
            ..InFlight::default()
        };
    }

    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        let slot = Self::slot(&mut inner, p);
        slot.entered = true;
        slot.ticket = ticket;
    }

    fn cs_exit(&self, p: Pid) {
        let mut inner = self.inner.lock().unwrap();
        Self::finalize(&mut inner, p, true);
    }

    fn abort(&self, p: Pid, ticket: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        let slot = Self::slot(&mut inner, p);
        if slot.ticket.is_none() {
            slot.ticket = ticket;
        }
        Self::finalize(&mut inner, p, false);
    }

    fn rmr(&self, p: Pid, _kind: OpKind) {
        let mut inner = self.inner.lock().unwrap();
        let slot = Self::slot(&mut inner, p);
        if slot.active {
            slot.rmrs += 1;
        }
    }

    fn op(&self, p: Pid, _kind: OpKind) {
        let mut inner = self.inner.lock().unwrap();
        let slot = Self::slot(&mut inner, p);
        if slot.active {
            slot.ops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passage(stats: &PassageStats, p: Pid, rmrs: u64, entered: bool) {
        stats.enter_begin(p);
        for _ in 0..rmrs {
            stats.op(p, OpKind::Read);
            stats.rmr(p, OpKind::Read);
        }
        if entered {
            stats.enter_end(p, Some(p as u64));
            stats.cs_exit(p);
        } else {
            stats.abort(p, Some(p as u64));
        }
    }

    #[test]
    fn records_accumulate_in_completion_order() {
        let stats = PassageStats::new();
        passage(&stats, 0, 3, true);
        passage(&stats, 1, 9, false);
        passage(&stats, 0, 5, true);
        let recs = stats.records();
        assert_eq!(recs.len(), 3);
        assert_eq!((recs[0].pid, recs[0].attempt, recs[0].rmrs), (0, 0, 3));
        assert_eq!((recs[1].pid, recs[1].entered), (1, false));
        assert_eq!((recs[2].pid, recs[2].attempt, recs[2].rmrs), (0, 1, 5));
        assert_eq!(stats.total_entered(), 2);
        assert_eq!(stats.max_entered_rmrs(), 5);
        assert_eq!(stats.max_aborted_rmrs(), 9);
        assert!((stats.mean_entered_rmrs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn summary_amortizes_over_all_passages() {
        let stats = PassageStats::new();
        passage(&stats, 0, 2, true);
        passage(&stats, 1, 4, false);
        let s = stats.summary();
        assert_eq!(s.entered, 1);
        assert_eq!(s.aborted, 1);
        assert!((s.amortized_rmrs - 3.0).abs() < 1e-9);
        assert_eq!(s.max_entered_ops, 2);
        assert_eq!(s.p50_entered_rmrs, 2);
    }

    #[test]
    fn ops_outside_a_passage_are_ignored() {
        let stats = PassageStats::new();
        stats.op(0, OpKind::Read);
        stats.rmr(0, OpKind::Read);
        passage(&stats, 0, 1, true);
        assert_eq!(stats.records()[0].rmrs, 1);
        // A stray cs_exit with no open passage is a no-op.
        stats.cs_exit(0);
        assert_eq!(stats.total_passages(), 1);
    }

    #[test]
    fn tickets_survive_into_records() {
        let stats = PassageStats::new();
        passage(&stats, 3, 0, true);
        assert_eq!(stats.records()[0].ticket, Some(3));
    }

    #[test]
    fn merge_matches_one_big_run_in_cell_order() {
        let cell_a = PassageStats::new();
        passage(&cell_a, 0, 3, true);
        passage(&cell_a, 1, 9, false);
        let cell_b = PassageStats::new();
        passage(&cell_b, 0, 5, true);

        let merged = PassageStats::new();
        merged.merge_from(&cell_a);
        merged.merge_from(&cell_b);

        assert_eq!(merged.total_passages(), 3);
        assert_eq!(merged.total_entered(), 2);
        assert_eq!(merged.max_entered_rmrs(), 5);
        assert_eq!(merged.max_aborted_rmrs(), 9);
        assert!((merged.mean_entered_rmrs() - 4.0).abs() < 1e-9);
        let s = merged.summary();
        assert_eq!(s.entered, 2);
        assert_eq!(s.aborted, 1);
        assert!((s.amortized_rmrs - (3 + 9 + 5) as f64 / 3.0).abs() < 1e-9);
        // Records keep per-source order and fields; sources untouched.
        let recs = merged.records();
        assert_eq!((recs[0].pid, recs[0].rmrs), (0, 3));
        assert_eq!((recs[2].pid, recs[2].rmrs), (0, 5));
        assert_eq!(cell_a.total_passages(), 2);
    }

    #[test]
    fn dropped_events_surface_in_summary_and_merge() {
        let stats = PassageStats::new();
        passage(&stats, 0, 1, true);
        assert_eq!(stats.summary().dropped_events, 0);
        stats.note_dropped_events(7);
        stats.note_dropped_events(3);
        assert_eq!(stats.dropped_events(), 10);
        assert_eq!(stats.summary().dropped_events, 10);

        let merged = PassageStats::new();
        merged.note_dropped_events(1);
        merged.merge_from(&stats);
        assert_eq!(merged.summary().dropped_events, 11);
        assert_eq!(stats.dropped_events(), 10, "source untouched");
    }

    #[test]
    fn merge_ignores_in_flight_passages() {
        let cell = PassageStats::new();
        passage(&cell, 0, 1, true);
        cell.enter_begin(1); // still in flight
        let merged = PassageStats::new();
        merged.merge_from(&cell);
        assert_eq!(merged.total_passages(), 1);
    }

    #[test]
    fn amortized_totals_cover_entered_and_aborted_passages() {
        let stats = PassageStats::new();
        passage(&stats, 0, 2, true);
        passage(&stats, 1, 14, false); // the expensive abort
        passage(&stats, 0, 4, true);
        let a = stats.amortized();
        assert_eq!(a.total_rmrs, 20);
        assert_eq!(a.passages, 3);
        assert_eq!(a.entered, 2);
        assert_eq!(a.aborted, 1);
        assert_eq!(a.max_passage_rmrs, 14);
        assert!((a.amortized_rmrs - 20.0 / 3.0).abs() < 1e-9);
        // The amortized view agrees with the per-passage summary.
        assert!((a.amortized_rmrs - stats.summary().amortized_rmrs).abs() < 1e-9);
    }

    #[test]
    fn amortized_merge_matches_merged_sinks() {
        let cell_a = PassageStats::new();
        passage(&cell_a, 0, 3, true);
        passage(&cell_a, 1, 9, false);
        let cell_b = PassageStats::new();
        passage(&cell_b, 0, 5, true);

        // Merging at the sink level and at the amortized level agree.
        let merged = PassageStats::new();
        merged.merge_from(&cell_a);
        merged.merge_from(&cell_b);
        let mut folded = cell_a.amortized();
        folded.merge_from(&cell_b.amortized());
        assert_eq!(folded, merged.amortized());
        assert_eq!(folded.total_rmrs, 17);
        assert_eq!(folded.max_passage_rmrs, 9);

        // Merging into the empty state is the identity.
        let mut from_empty = AmortizedStats::empty();
        from_empty.merge_from(&folded);
        assert_eq!(from_empty, folded);
    }

    #[test]
    fn amortized_stats_round_trip_through_json() {
        let stats = PassageStats::new();
        passage(&stats, 0, 7, true);
        passage(&stats, 1, 1, false);
        let a = stats.amortized();
        let text = a.to_json().render();
        let back = AmortizedStats::from_json(&crate::json::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, a);
        // Missing fields fail loudly.
        let bad = crate::json::Json::parse("{\"passages\":1}").unwrap();
        assert!(AmortizedStats::from_json(&bad).is_err());
    }

    #[test]
    fn clones_are_handles_on_shared_state() {
        let stats = PassageStats::new();
        let handle = stats.clone();
        passage(&handle, 0, 2, true);
        assert_eq!(stats.total_passages(), 1);
        assert_eq!(stats.max_entered_rmrs(), 2);
    }
}
