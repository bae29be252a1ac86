//! Scott-style abortable queue lock (Scott, PODC 2002 row of Table 1).
//!
//! A CLH-flavoured queue lock with *non-blocking timeout*: an aborting
//! process marks its node `ABANDONED` (having first published its
//! predecessor) and leaves in `O(1)` of its own steps; waiters skip over
//! chains of abandoned nodes lazily. Matches Scott's Table-1 row:
//!
//! * primitives: SWAP (queue append) — plus plain reads/writes;
//! * space: **unbounded** — every attempt consumes a fresh node (Scott's
//!   published algorithms also use dynamically allocated nodes);
//! * RMR cost: `O(1)` with no aborts, `O(#A)` where `#A` is the number of
//!   aborts during the execution (a waiter walks every abandoned node
//!   between it and its live predecessor), unbounded in general;
//! * fairness: FCFS among non-aborting processes.
//!
//! Fidelity note: this is a reconstruction in the spirit of Scott's
//! CLH-NB-try; the paper being reproduced provides only the cost profile
//! (Table 1), which this implementation matches. Scott's real algorithm
//! additionally reclaims nodes; ours deliberately leaks them to exhibit
//! the "unbounded space" row honestly.

use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};
use std::sync::Mutex;

const WAITING: u64 = 0;
const RELEASED: u64 = 1;
const ABANDONED: u64 = 2;

/// Scott-style abortable CLH queue lock. `capacity` bounds the total
/// number of enter attempts (the "unbounded space" made concrete as a
/// pre-allocated arena).
#[derive(Debug)]
pub struct ScottLock {
    tail: WordId,
    next_node: WordId,
    status: WordArray,
    pred: WordArray,
    /// Each process's current node, between `enter` and `exit`.
    holding: Vec<Mutex<u64>>,
}

impl ScottLock {
    /// Lay out the lock for `n` processes and at most `capacity` enter
    /// attempts in total.
    pub fn layout(b: &mut MemoryBuilder, n: usize, capacity: usize) -> Self {
        assert!(n >= 1 && capacity >= 1);
        let nodes = capacity + 1;
        // Node 0 is the genesis node, born RELEASED.
        let status = b.alloc_array_with(nodes, |i| (0, if i == 0 { RELEASED } else { WAITING }));
        let pred = b.alloc_array(nodes, 0);
        ScottLock {
            tail: b.alloc(0),
            next_node: b.alloc(1),
            status,
            pred,
            holding: (0..n).map(|_| Mutex::new(0)).collect(),
        }
    }

    /// Attempt to acquire; `false` means aborted.
    pub fn acquire<M, S>(&self, mem: &M, p: Pid, signal: &S) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        let me = mem.faa(p, self.next_node, 1);
        assert!(
            (me as usize) < self.status.len(),
            "ScottLock arena exhausted ({} attempts)",
            self.status.len() - 1
        );
        let prev = mem.swap(p, self.tail, me);
        mem.write(p, self.pred.at(me as usize), prev);
        let mut cur = prev;
        loop {
            match mem.read(p, self.status.at(cur as usize)) {
                RELEASED => {
                    *self.holding[p].lock().unwrap() = me;
                    return true;
                }
                ABANDONED => {
                    // Skip lazily over the abandoned chain.
                    cur = mem.read(p, self.pred.at(cur as usize));
                }
                _ => {
                    if signal.is_set() {
                        // Publish the shortcut, then abandon; the order
                        // matters: a successor must never read a stale
                        // pred after seeing ABANDONED.
                        mem.write(p, self.pred.at(me as usize), cur);
                        mem.write(p, self.status.at(me as usize), ABANDONED);
                        return false;
                    }
                }
            }
        }
    }

    /// Release.
    pub fn release<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        let me = *self.holding[p].lock().unwrap();
        mem.write(p, self.status.at(me as usize), RELEASED);
    }
}

impl LockMeta for ScottLock {
    fn name(&self) -> String {
        "scott".into()
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for ScottLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        if self.acquire(&probed(mem, probe), p, signal) {
            probe.enter_end(p, None);
            Outcome::Entered { ticket: None }
        } else {
            probe.abort(p, None);
            Outcome::Aborted { ticket: None }
        }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.release(&probed(mem, probe), p);
        probe.cs_exit(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort, RmrProbe};
    use sal_obs::NoProbe;
    use sal_runtime::{run_lock, ProcPlan, RandomSchedule, WorkloadSpec};

    fn build(n: usize, cap: usize) -> (ScottLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = ScottLock::layout(&mut b, n, cap);
        let cs = b.alloc(0);
        (lock, cs, b.build_cc(n))
    }

    #[test]
    fn serial_reuse() {
        let (lock, _, mem) = build(1, 16);
        for _ in 0..5 {
            assert!(lock.acquire(&mem, 0, &NeverAbort));
            lock.release(&mem, 0);
        }
    }

    #[test]
    fn aborted_nodes_are_skipped() {
        let (lock, _, mem) = build(3, 16);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.acquire(&mem, 1, &sig));
        lock.release(&mem, 0);
        // p2 queues behind p1's abandoned node and must skip it.
        assert!(lock.acquire(&mem, 2, &NeverAbort));
        lock.release(&mem, 2);
    }

    #[test]
    fn mutual_exclusion_with_aborters_under_random_schedules() {
        for seed in 0..20 {
            let (lock, cs, mem) = build(5, 64);
            let spec = WorkloadSpec {
                plans: vec![
                    ProcPlan::normal(2),
                    ProcPlan::normal(2),
                    ProcPlan::aborter(2, 30),
                    ProcPlan::aborter(2, 20),
                    ProcPlan::normal(2),
                ],
                cs_ops: 2,
                max_steps: 2_000_000,
                lease: 0,
            };
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
            for p in [0usize, 1, 4] {
                assert_eq!(report.outcomes[p].0, 2, "seed {seed} pid {p}");
            }
        }
    }

    #[test]
    fn no_abort_cost_is_constant() {
        let (lock, _, mem) = build(2, 64);
        let mut max = 0;
        for _ in 0..10 {
            let probe = RmrProbe::start(&mem, 0);
            assert!(lock.acquire(&mem, 0, &NeverAbort));
            lock.release(&mem, 0);
            max = max.max(probe.rmrs(&mem));
        }
        assert!(max <= 8, "no-abort Scott passage should be O(1): {max}");
    }

    #[test]
    fn waiter_pays_per_abandoned_predecessor() {
        // One waiter behind k abandoned nodes pays ≥ k RMRs: the O(#A)
        // adaptive bound of Table 1, measured.
        let (lock, _, mem) = build(8, 64);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        let sig = AbortFlag::new();
        sig.set();
        for p in 1..7 {
            assert!(!lock.acquire(&mem, p, &sig));
        }
        lock.release(&mem, 0);
        let probe = RmrProbe::start(&mem, 7);
        assert!(lock.acquire(&mem, 7, &NeverAbort));
        let cost = probe.rmrs(&mem);
        assert!(cost >= 6, "expected Θ(#aborts) walk, got {cost}");
        lock.release(&mem, 7);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn capacity_overflow_panics() {
        let (lock, _, mem) = build(1, 2);
        for _ in 0..5 {
            assert!(lock.acquire(&mem, 0, &NeverAbort));
            lock.release(&mem, 0);
        }
    }
}
