//! Ticket lock — F&A doorway, global spin word. FCFS and starvation-free
//! but every handoff invalidates *every* waiter's cached copy, so a
//! passage costs `Θ(queue position)` RMRs in the CC model. Included as
//! the "F&A alone does not give you O(1)" contrast to MCS and the
//! paper's lock.

use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{probed, Probe};

/// Classic ticket lock: `next_ticket` (F&A doorway) and `now_serving`
/// (shared spin word). Not abortable — a ticket, once taken, must be
/// served, or the queue wedges.
#[derive(Clone, Debug)]
pub struct TicketLock {
    next_ticket: WordId,
    now_serving: WordId,
}

impl TicketLock {
    /// Lay out the lock.
    pub fn layout(b: &mut MemoryBuilder) -> Self {
        TicketLock {
            next_ticket: b.alloc(0),
            now_serving: b.alloc(0),
        }
    }

    /// Acquire (never aborts).
    pub fn acquire<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        let t = mem.faa(p, self.next_ticket, 1);
        while mem.read(p, self.now_serving) != t {}
    }

    /// Release.
    pub fn release<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        mem.faa(p, self.now_serving, 1);
    }
}

impl LockMeta for TicketLock {
    fn name(&self) -> String {
        "ticket".into()
    }

    fn is_abortable(&self) -> bool {
        false
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for TicketLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        _signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        // Inlined acquire so the F&A doorway ticket can be reported —
        // the ticket lock is FCFS and the probe layer can check it.
        let pm = probed(mem, probe);
        let t = pm.faa(p, self.next_ticket, 1);
        while pm.read(p, self.now_serving) != t {}
        probe.enter_end(p, Some(t));
        Outcome::Entered { ticket: Some(t) }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.release(&probed(mem, probe), p);
        probe.cs_exit(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_obs::NoProbe;
    use sal_runtime::{run_lock, RandomSchedule, RoundRobin, WorkloadSpec};

    fn build(n: usize) -> (TicketLock, WordId, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = TicketLock::layout(&mut b);
        let cs = b.alloc(0);
        (lock, cs, b.build_cc(n))
    }

    #[test]
    fn serial_reuse() {
        let (lock, _, mem) = build(1);
        for _ in 0..5 {
            lock.acquire(&mem, 0);
            lock.release(&mem, 0);
        }
    }

    #[test]
    fn mutual_exclusion_and_completion_under_contention() {
        for seed in 0..15 {
            let (lock, cs, mem) = build(5);
            let spec = WorkloadSpec::uniform(5, 2);
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
            assert_eq!(mem.read(0, cs), 10, "seed {seed}");
        }
    }

    #[test]
    fn rmr_cost_grows_with_waiters() {
        // All N processes queue up behind each other: the last in line is
        // invalidated by every earlier handoff.
        let n = 16;
        let (lock, cs, mem) = build(n);
        let spec = WorkloadSpec::uniform(n, 1);
        let report =
            run_lock(&lock, &mem, cs, &spec, Box::new(RoundRobin::new()), NoProbe).unwrap();
        report.assert_safe();
        // Worst passage pays at least one RMR per predecessor handoff.
        assert!(
            report.max_entered_rmrs() >= n as u64 - 2,
            "expected Θ(N) worst passage, got {}",
            report.max_entered_rmrs()
        );
    }
}
