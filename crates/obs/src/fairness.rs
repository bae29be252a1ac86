//! [`FairnessMonitor`]: FCFS and starvation witnesses as a probe sink.
//!
//! The one-shot locks are FCFS with respect to their `F&A(Tail)` doorway
//! tickets: a process that takes a smaller ticket completed its doorway
//! first, so entries into the CS must occur in increasing ticket order.
//! Because the lock itself serializes CS entries, the monitor observes
//! [`enter_end`](crate::Probe::enter_end) calls already in CS order and
//! only needs to check that ticket values are increasing. Aborted
//! tickets drop out of the order (the paper's FCFS definition only
//! constrains attempts that do enter).
//!
//! Starvation is witnessed operationally: a process that keeps taking
//! steps in its `enter` section without ever entering is starving. The
//! monitor tracks each process's longest wait (in shared-memory steps),
//! and a merge settles the waits still in flight, so a starving
//! process's wait counts although it never reaches `enter_end`.

use crate::probe::Probe;
use sal_memory::{OpKind, Pid};
use std::sync::{Arc, Mutex};

/// Per-process fairness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcFairness {
    /// Passages started.
    pub attempts: u64,
    /// Passages that entered the CS.
    pub entered: u64,
    /// Passages that aborted.
    pub aborted: u64,
    /// Longest wait (shared-memory steps inside `enter`) before entry or
    /// abort.
    pub max_wait_ops: u64,
}

#[derive(Debug, Default)]
struct Inner {
    procs: Vec<ProcFairness>,
    waiting: Vec<Option<u64>>,
    max_entered_ticket: Option<u64>,
    /// Entries whose doorway ticket was smaller than one that had
    /// already entered.
    fcfs_violations: u64,
}

impl Inner {
    fn proc_mut(&mut self, p: Pid) -> &mut ProcFairness {
        if self.procs.len() <= p {
            self.procs.resize(p + 1, ProcFairness::default());
            self.waiting.resize(p + 1, None);
        }
        &mut self.procs[p]
    }

    fn settle_wait(&mut self, p: Pid) {
        self.proc_mut(p);
        if let Some(w) = self.waiting[p].take() {
            let rec = &mut self.procs[p];
            rec.max_wait_ops = rec.max_wait_ops.max(w);
        }
    }
}

/// FCFS/starvation monitor; implements [`Probe`].
///
/// Replaces the ad-hoc fairness bookkeeping the runtime harness used to
/// carry: attach it (alone or paired with another sink) and read the
/// verdict after the run.
///
/// A cheap handle — `clone()` shares the same counters, so one clone can
/// be handed to an execution as an owned probe while another reads the
/// verdict afterwards.
#[derive(Debug, Default, Clone)]
pub struct FairnessMonitor {
    inner: Arc<Mutex<Inner>>,
}

impl FairnessMonitor {
    /// New monitor with no recorded activity.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` while no FCFS violation has been observed.
    pub fn is_fcfs(&self) -> bool {
        self.inner.lock().unwrap().fcfs_violations == 0
    }

    /// Per-process counters (index = pid).
    pub fn per_process(&self) -> Vec<ProcFairness> {
        self.inner.lock().unwrap().procs.clone()
    }

    /// Fold another monitor into this one — the fan-in for parallel
    /// sweeps. Per-process counters sum (waits take the max, and
    /// `other`'s still-in-flight waits settle into `max_wait_ops`, so
    /// a starving process's wait survives the merge), and so do FCFS
    /// violation counts. Tickets are only comparable within
    /// one run, so merging never *creates* cross-run violations: the
    /// merged verdict is "every source run was FCFS". `other` is left
    /// untouched.
    pub fn merge_from(&self, other: &FairnessMonitor) {
        // Snapshot before locking ourselves, so merging a clone of the
        // same monitor cannot deadlock.
        let (procs, waiting, max_ticket, violations) = {
            let o = other.inner.lock().unwrap();
            (
                o.procs.clone(),
                o.waiting.clone(),
                o.max_entered_ticket,
                o.fcfs_violations,
            )
        };
        let mut inner = self.inner.lock().unwrap();
        for (p, rec) in procs.iter().enumerate() {
            let mine = inner.proc_mut(p);
            mine.attempts += rec.attempts;
            mine.entered += rec.entered;
            mine.aborted += rec.aborted;
            mine.max_wait_ops = mine.max_wait_ops.max(rec.max_wait_ops);
            if let Some(w) = waiting.get(p).copied().flatten() {
                mine.max_wait_ops = mine.max_wait_ops.max(w);
            }
        }
        inner.max_entered_ticket = match (inner.max_entered_ticket, max_ticket) {
            (a, None) => a,
            (None, b) => b,
            (Some(a), Some(b)) => Some(a.max(b)),
        };
        inner.fcfs_violations += violations;
    }
}

impl Probe for FairnessMonitor {
    fn enter_begin(&self, p: Pid) {
        let mut inner = self.inner.lock().unwrap();
        inner.proc_mut(p).attempts += 1;
        inner.waiting[p] = Some(0);
    }

    fn enter_end(&self, p: Pid, ticket: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        inner.settle_wait(p);
        inner.procs[p].entered += 1;
        if let Some(t) = ticket {
            if let Some(max) = inner.max_entered_ticket {
                if t < max {
                    inner.fcfs_violations += 1;
                }
            }
            let max = inner.max_entered_ticket.map_or(t, |m| m.max(t));
            inner.max_entered_ticket = Some(max);
        }
    }

    fn abort(&self, p: Pid, _ticket: Option<u64>) {
        let mut inner = self.inner.lock().unwrap();
        inner.settle_wait(p);
        inner.procs[p].aborted += 1;
    }

    fn op(&self, p: Pid, _kind: OpKind) {
        let mut inner = self.inner.lock().unwrap();
        inner.proc_mut(p);
        if let Some(w) = inner.waiting[p].as_mut() {
            *w += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_tickets_are_fcfs() {
        let m = FairnessMonitor::new();
        for (p, t) in [(0, 0u64), (1, 1), (2, 2)] {
            m.enter_begin(p);
            m.enter_end(p, Some(t));
            m.cs_exit(p);
        }
        assert!(m.is_fcfs());
        assert_eq!(m.per_process()[1].entered, 1);
    }

    #[test]
    fn out_of_order_ticket_is_witnessed() {
        let m = FairnessMonitor::new();
        m.enter_begin(0);
        m.enter_end(0, Some(5));
        m.cs_exit(0);
        m.enter_begin(1);
        m.enter_end(1, Some(3));
        m.cs_exit(1);
        assert!(!m.is_fcfs());
    }

    #[test]
    fn aborted_tickets_do_not_constrain_order() {
        let m = FairnessMonitor::new();
        m.enter_begin(0);
        m.abort(0, Some(0));
        m.enter_begin(1);
        m.enter_end(1, Some(1));
        m.cs_exit(1);
        assert!(m.is_fcfs());
        let procs = m.per_process();
        assert_eq!(procs[0].aborted, 1);
        assert_eq!(procs[1].entered, 1);
    }

    #[test]
    fn waits_count_enter_section_steps_only() {
        let m = FairnessMonitor::new();
        m.enter_begin(0);
        for _ in 0..4 {
            m.op(0, OpKind::Read);
        }
        m.enter_end(0, Some(0));
        m.op(0, OpKind::Write); // CS step: not a wait
        m.cs_exit(0);
        assert_eq!(m.per_process()[0].max_wait_ops, 4);
    }

    #[test]
    fn merge_sums_counters_and_concatenates_witnesses() {
        let cell_a = FairnessMonitor::new();
        cell_a.enter_begin(0);
        cell_a.enter_end(0, Some(5));
        cell_a.cs_exit(0);
        cell_a.enter_begin(1);
        cell_a.enter_end(1, Some(3)); // out of order in cell A
        cell_a.cs_exit(1);

        let cell_b = FairnessMonitor::new();
        cell_b.enter_begin(0);
        cell_b.abort(0, Some(0));
        cell_b.enter_begin(2);
        for _ in 0..40 {
            cell_b.op(2, OpKind::Read); // starving, still in flight
        }

        let merged = FairnessMonitor::new();
        merged.merge_from(&cell_a);
        merged.merge_from(&cell_b);

        assert!(!merged.is_fcfs());
        let procs = merged.per_process();
        assert_eq!(procs[0].attempts, 2);
        assert_eq!(procs[0].entered, 1);
        assert_eq!(procs[0].aborted, 1);
        // Cell B's in-flight wait settled into the merged max.
        assert_eq!(procs[2].max_wait_ops, 40);
        // Lower cross-cell ticket (0 < 5) created no bogus violation,
        // and the sources are untouched.
        assert!(cell_b.is_fcfs());
        assert!(!cell_a.is_fcfs());
    }

    #[test]
    fn in_flight_waits_witness_starvation() {
        let m = FairnessMonitor::new();
        m.enter_begin(2);
        for _ in 0..100 {
            m.op(2, OpKind::Read);
        }
        // Never enters, so the wait is still in flight: a merge settles
        // it, and the starving process shows its whole wait.
        assert_eq!(m.per_process()[2].max_wait_ops, 0);
        let merged = FairnessMonitor::new();
        merged.merge_from(&m);
        assert_eq!(merged.per_process()[2].max_wait_ops, 100);
    }
}
