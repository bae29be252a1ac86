//! Test-and-test-and-set lock — trivially abortable (an aborter simply
//! stops retrying) but with unbounded RMR cost and no fairness. The
//! degenerate corner of the abortable-lock design space: Table 1 is the
//! story of doing better than this without giving up abortability.

use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{probed, Probe};

/// CAS-based test-and-test-and-set lock.
#[derive(Clone, Debug)]
pub struct TasLock {
    word: WordId,
}

impl TasLock {
    /// Lay out the lock.
    pub fn layout(b: &mut MemoryBuilder) -> Self {
        TasLock { word: b.alloc(0) }
    }

    /// Try to acquire until success or abort signal.
    pub fn acquire<M, S>(&self, mem: &M, p: Pid, signal: &S) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        loop {
            if signal.is_set() {
                return false;
            }
            // Test before test-and-set: spin locally while held.
            if mem.read(p, self.word) == 0 && mem.cas(p, self.word, 0, 1) {
                return true;
            }
        }
    }

    /// Release.
    pub fn release<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        mem.write(p, self.word, 0);
    }
}

impl LockMeta for TasLock {
    fn name(&self) -> String {
        "tas".into()
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for TasLock {
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
    use sal_memory::{AbortFlag, NeverAbort};
    use sal_obs::NoProbe;
    use sal_runtime::{run_lock, RandomSchedule, WorkloadSpec};

    fn build(n: usize) -> (TasLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = TasLock::layout(&mut b);
        let cs = b.alloc(0);
        (lock, cs, b.build_cc(n))
    }

    #[test]
    fn acquire_release_and_abort() {
        let (lock, _, mem) = build(2);
        assert!(lock.acquire(&mem, 0, &NeverAbort));
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.acquire(&mem, 1, &sig));
        lock.release(&mem, 0);
        assert!(lock.acquire(&mem, 1, &NeverAbort));
        lock.release(&mem, 1);
    }

    #[test]
    fn mutual_exclusion_under_random_schedules() {
        for seed in 0..15 {
            let (lock, cs, mem) = build(4);
            let spec = WorkloadSpec::uniform(4, 2);
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
            assert_eq!(mem.read(0, cs), 8, "seed {seed}");
        }
    }
}
