//! Lee-style F&A + SWAP abortable array lock (Lee, OPODIS 2010 row of
//! Table 1).
//!
//! An Anderson-style array queue: the F&A doorway assigns slot `i`; the
//! process spins on `slot[i]` until granted. An aborter SWAPs the
//! abandoned marker into its slot — if the SWAP returns *granted*, the
//! abort crossed paths with a handoff and the aborter forwards the grant
//! itself. A granter (exiting process or forwarding aborter) SWAPs the
//! grant into successive slots, skipping those that come back abandoned.
//!
//! Cost profile (Table 1, Lee \[19\] row):
//!
//! * `O(1)` RMRs when nobody aborts;
//! * a handoff walks the run of abandoned slots in front of it, and an
//!   aborted passage may additionally inherit and forward a handoff —
//!   `O(A_i · A_t)`-flavoured adaptive cost, `O(N²)`-flavoured worst
//!   case;
//! * FCFS (the F&A doorway orders everyone).
//!
//! Fidelity note: Lee's real algorithm bounds space at `O(N²)` via slot
//! recycling; ours uses a pre-sized arena (one slot per attempt) to keep
//! the protocol minimal — the RMR profile, which is what Table 1
//! compares, is unaffected.

use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};
use std::sync::Mutex;

const PENDING: u64 = 0;
const GRANTED: u64 = 1;
const ABANDONED: u64 = 2;

/// Lee-style abortable F&A array lock. `capacity` bounds total enter
/// attempts.
#[derive(Debug)]
pub struct LeeLock {
    tail: WordId,
    slots: WordArray,
    holding: Vec<Mutex<u64>>,
}

impl LeeLock {
    /// Lay out the lock for `n` processes and at most `capacity` enter
    /// attempts.
    pub fn layout(b: &mut MemoryBuilder, n: usize, capacity: usize) -> Self {
        assert!(n >= 1 && capacity >= 1);
        LeeLock {
            tail: b.alloc(0),
            // Slot 0 is granted from the start.
            slots: b.alloc_array_with(capacity, |i| (0, if i == 0 { GRANTED } else { PENDING })),
            holding: (0..n).map(|_| Mutex::new(0)).collect(),
        }
    }

    /// Hand the grant to the first non-abandoned slot after `i`.
    fn grant_next<M: Mem + ?Sized>(&self, mem: &M, p: Pid, i: u64) {
        let mut j = i + 1;
        loop {
            if j as usize >= self.slots.len() {
                // Queue ran off the arena: the grant dies with the run —
                // acceptable only at the very end of an execution; any
                // further attempt would have panicked on the doorway
                // anyway.
                return;
            }
            let prev = mem.swap(p, self.slots.at(j as usize), GRANTED);
            match prev {
                PENDING => return, // waiter (present or future) now owns it
                ABANDONED => j += 1,
                _ => unreachable!("double grant of slot {j}"),
            }
        }
    }

    /// Attempt to acquire; `false` means aborted.
    pub fn acquire<M, S>(&self, mem: &M, p: Pid, signal: &S) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        let i = mem.faa(p, self.tail, 1);
        assert!(
            (i as usize) < self.slots.len(),
            "LeeLock arena exhausted ({} attempts)",
            self.slots.len()
        );
        while mem.read(p, self.slots.at(i as usize)) == PENDING {
            if signal.is_set() {
                let prev = mem.swap(p, self.slots.at(i as usize), ABANDONED);
                if prev == GRANTED {
                    // The handoff raced our abort: forward it.
                    self.grant_next(mem, p, i);
                }
                return false;
            }
        }
        *self.holding[p].lock().unwrap() = i;
        true
    }

    /// Release.
    pub fn release<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        let i = *self.holding[p].lock().unwrap();
        self.grant_next(mem, p, i);
    }
}

impl LockMeta for LeeLock {
    fn name(&self) -> String {
        "lee".into()
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for LeeLock {
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

    fn build(n: usize, cap: usize) -> (LeeLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = LeeLock::layout(&mut b, n, cap);
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
    fn abandoned_slots_are_skipped_by_the_granter() {
        let (lock, _, mem) = build(4, 16);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.acquire(&mem, 1, &sig));
        assert!(!lock.acquire(&mem, 2, &sig));
        lock.release(&mem, 0); // must skip slots 1 and 2
        assert!(lock.acquire(&mem, 3, &NeverAbort));
        lock.release(&mem, 3);
    }

    #[test]
    fn mutual_exclusion_with_aborters_under_random_schedules() {
        for seed in 0..20 {
            let (lock, cs, mem) = build(5, 64);
            let spec = WorkloadSpec {
                plans: vec![
                    ProcPlan::normal(2),
                    ProcPlan::aborter(2, 25),
                    ProcPlan::normal(2),
                    ProcPlan::aborter(2, 35),
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
            for p in [0usize, 2, 4] {
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
        assert!(max <= 8, "no-abort Lee passage should be O(1): {max}");
    }

    #[test]
    fn handoff_cost_scales_with_abandoned_run() {
        let (lock, _, mem) = build(10, 64);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        let sig = AbortFlag::new();
        sig.set();
        for p in 1..9 {
            assert!(!lock.acquire(&mem, p, &sig));
        }
        // The exit must SWAP through 8 abandoned slots.
        let probe = RmrProbe::start(&mem, 0);
        lock.release(&mem, 0);
        assert!(probe.rmrs(&mem) >= 8, "got {}", probe.rmrs(&mem));
        assert!(lock.acquire(&mem, 9, &NeverAbort));
        lock.release(&mem, 9);
    }

    #[test]
    fn abort_that_inherits_a_grant_forwards_it() {
        let (lock, _, mem) = build(3, 16);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        // p1 takes slot 1 by hand (the doorway), so we can interleave
        // precisely: grant arrives, then p1 aborts.
        let i = mem.faa(1, lock.tail, 1);
        assert_eq!(i, 1);
        lock.release(&mem, 0); // grants slot 1
                               // Now p1 "notices" an abort signal before reading the grant —
                               // its SWAP returns GRANTED and it must forward to slot 2.
        let sig = AbortFlag::new();
        sig.set();
        // p2 queues first so the forwarded grant has a receiver.
        // (Order within the test is sequential; the protocol tolerates
        // any interleaving.)
        let prev = mem.swap(1, lock.slots.at(1), super::ABANDONED);
        assert_eq!(prev, super::GRANTED);
        lock.grant_next(&mem, 1, 1);
        assert!(lock.acquire(&mem, 2, &NeverAbort));
        lock.release(&mem, 2);
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
