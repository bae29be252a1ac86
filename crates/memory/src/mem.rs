//! The [`Mem`] trait: the primitive set of the paper's machine model.

use crate::word::{Pid, WordId};

/// Kind of a shared-memory operation, as classified by the RMR cost model.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// A read of a shared word.
    Read,
    /// A plain write.
    Write,
    /// Compare-and-swap (counts as a write-type operation whether or not it
    /// succeeds).
    Cas,
    /// Fetch-and-add.
    Faa,
    /// Fetch-and-store (atomic exchange). Not used by the paper's
    /// algorithm, but required by the MCS and Scott baselines of Table 1.
    Swap,
}

/// A shared memory of `W = 64`-bit words supporting the primitive set of
/// the paper's model — `read`, `write`, `CAS`, `F&A` — plus `SWAP` for the
/// baselines.
///
/// Every operation is performed *by* a process (the `p` argument), which is
/// what the RMR accounting is keyed on. Implementations are linearizable:
/// concurrent calls from real threads behave as if executed one at a time.
///
/// Arithmetic in [`faa`](Mem::faa) is wrapping, which is how "decrement" is
/// expressed (`faa(w, x.wrapping_neg())`), exactly as on real hardware.
pub trait Mem: Send + Sync {
    /// Read word `w`.
    fn read(&self, p: Pid, w: WordId) -> u64;

    /// Write `v` to word `w`.
    fn write(&self, p: Pid, w: WordId, v: u64);

    /// Atomically: if `w == old`, set `w = new` and return `true`;
    /// otherwise return `false` without modifying `w`.
    fn cas(&self, p: Pid, w: WordId, old: u64, new: u64) -> bool;

    /// Atomically add `add` (wrapping) to `w`, returning the *previous*
    /// value.
    fn faa(&self, p: Pid, w: WordId, add: u64) -> u64;

    /// Atomically store `v` into `w`, returning the previous value.
    fn swap(&self, p: Pid, w: WordId, v: u64) -> u64;

    /// Number of remote memory references process `p` has incurred so far.
    ///
    /// Raw (uninstrumented) memories return 0.
    fn rmrs(&self, p: Pid) -> u64;

    /// Total RMRs over all processes.
    fn total_rmrs(&self) -> u64;

    /// Total number of shared-memory operations (local or remote) issued by
    /// process `p`. Raw memories return 0.
    fn ops(&self, p: Pid) -> u64;

    /// Number of words in this memory (the algorithm's space complexity in
    /// words, as reported in Table 1).
    fn num_words(&self) -> usize;

    /// Number of processes this memory was built for.
    fn num_procs(&self) -> usize;
}

/// Measures the RMRs a single process incurs across a region of interest.
///
/// ```
/// use sal_memory::{Mem, MemoryBuilder, RmrProbe};
///
/// let mut b = MemoryBuilder::new();
/// let w = b.alloc(0);
/// let mem = b.build_cc(1);
///
/// let probe = RmrProbe::start(&mem, 0);
/// mem.write(0, w, 1);
/// mem.write(0, w, 2);
/// assert_eq!(probe.rmrs(&mem), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RmrProbe {
    pid: Pid,
    start_rmrs: u64,
    start_ops: u64,
}

impl RmrProbe {
    /// Snapshot process `p`'s counters on `mem`.
    pub fn start<M: Mem + ?Sized>(mem: &M, p: Pid) -> Self {
        RmrProbe {
            pid: p,
            start_rmrs: mem.rmrs(p),
            start_ops: mem.ops(p),
        }
    }

    /// RMRs incurred by the probed process since [`start`](RmrProbe::start).
    pub fn rmrs<M: Mem + ?Sized>(&self, mem: &M) -> u64 {
        mem.rmrs(self.pid) - self.start_rmrs
    }

    /// Total operations issued by the probed process since the snapshot.
    pub fn ops<M: Mem + ?Sized>(&self, mem: &M) -> u64 {
        mem.ops(self.pid) - self.start_ops
    }

    /// The process this probe observes.
    pub fn pid(&self) -> Pid {
        self.pid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBuilder;

    #[test]
    fn probe_measures_deltas_not_totals() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(1);
        mem.write(0, w, 1); // 1 RMR before the probe starts
        let probe = RmrProbe::start(&mem, 0);
        assert_eq!(probe.rmrs(&mem), 0);
        mem.write(0, w, 2);
        assert_eq!(probe.rmrs(&mem), 1);
        assert_eq!(probe.ops(&mem), 1);
        assert_eq!(probe.pid(), 0);
    }
}
