//! The Mellor-Crummey–Scott queue lock (TOCS 1991) — the canonical
//! `O(1)`-RMR, non-abortable lock the paper cites as the witness that
//! extra primitives (SWAP) beat the `Ω(log N)` lower bound for plain
//! mutual exclusion.

use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};

/// Encoding of queue-node pointers: `0` is nil, `p + 1` is process `p`'s
/// node.
const NIL: u64 = 0;

/// MCS list-based queue lock. Each process owns one queue node
/// (`next[p]`, `locked[p]`); the `tail` word holds the queue's end.
/// Spinning is on the process's own `locked` word, so a passage costs
/// `O(1)` RMRs in the CC model regardless of contention. Long-lived and
/// starvation-free; **not** abortable.
#[derive(Clone, Debug)]
pub struct McsLock {
    tail: WordId,
    next: WordArray,
    locked: WordArray,
}

impl McsLock {
    /// Lay out the lock for `n` processes.
    pub fn layout(b: &mut MemoryBuilder, n: usize) -> Self {
        assert!(n >= 1);
        McsLock {
            tail: b.alloc(NIL),
            next: b.alloc_array(n, NIL),
            locked: b.alloc_array(n, 0),
        }
    }

    /// Acquire the lock (never aborts).
    pub fn acquire<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        mem.write(p, self.next.at(p), NIL);
        let pred = mem.swap(p, self.tail, p as u64 + 1);
        if pred != NIL {
            // Flag must be raised before linking, or the handoff write
            // could be lost.
            mem.write(p, self.locked.at(p), 1);
            mem.write(p, self.next.at(pred as usize - 1), p as u64 + 1);
            while mem.read(p, self.locked.at(p)) == 1 {}
        }
    }

    /// Release the lock.
    pub fn release<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        if mem.read(p, self.next.at(p)) == NIL {
            // No visible successor: try to swing the tail back to nil.
            if mem.cas(p, self.tail, p as u64 + 1, NIL) {
                return;
            }
            // A successor is mid-link; wait for it to appear.
            while mem.read(p, self.next.at(p)) == NIL {}
        }
        let succ = mem.read(p, self.next.at(p));
        mem.write(p, self.locked.at(succ as usize - 1), 0);
    }
}

impl LockMeta for McsLock {
    fn name(&self) -> String {
        "mcs".into()
    }

    fn is_abortable(&self) -> bool {
        false
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for McsLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        _signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        self.acquire(&probed(mem, probe), p);
        probe.enter_end(p, None);
        Outcome::Entered { ticket: None }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.release(&probed(mem, probe), p);
        probe.cs_exit(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::NeverAbort;
    use sal_obs::NoProbe;
    use sal_runtime::{run_lock, RandomSchedule, RoundRobin, WorkloadSpec};

    fn build(n: usize) -> (McsLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = McsLock::layout(&mut b, n);
        let cs = b.alloc(0);
        (lock, cs, b.build_cc(n))
    }

    #[test]
    fn uncontended_acquire_release() {
        let (lock, _, mem) = build(2);
        for _ in 0..5 {
            lock.acquire(&mem, 0);
            lock.release(&mem, 0);
        }
    }

    #[test]
    fn mutual_exclusion_under_random_schedules() {
        for seed in 0..20 {
            let (lock, cs, mem) = build(4);
            let spec = WorkloadSpec::uniform(4, 3);
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
            assert_eq!(report.total_entered(), 12, "seed {seed}");
            assert_eq!(mem.read(0, cs), 12);
        }
    }

    #[test]
    fn per_passage_rmrs_are_constant_under_contention() {
        let (lock, cs, mem) = build(8);
        let spec = WorkloadSpec::uniform(8, 4);
        let report =
            run_lock(&lock, &mem, cs, &spec, Box::new(RoundRobin::new()), NoProbe).unwrap();
        report.assert_safe();
        // CC model: swap + link + spin-refresh + handoff ≈ a handful.
        assert!(
            report.max_entered_rmrs() <= 12,
            "MCS passage should be O(1): {}",
            report.max_entered_rmrs()
        );
    }

    #[test]
    fn lock_trait_reports_not_abortable() {
        // Through the lock traits, at the erased memory type.
        let (lock, _, mem) = build(1);
        let mem: &dyn Mem = &mem;
        assert!(!LockMeta::is_abortable(&lock));
        assert!(lock
            .enter_core(mem, 0, &NeverAbort, &sal_obs::NoProbe)
            .entered());
        lock.exit_core(mem, 0, &sal_obs::NoProbe);
    }
}
