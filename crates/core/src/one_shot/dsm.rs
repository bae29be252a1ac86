//! The DSM variant of the one-shot lock (§3, "DSM variant").
//!
//! In the DSM model a process's `go` slot is chosen at run time by the
//! doorway F&A, so it cannot be guaranteed local and spinning on it could
//! cost unboundedly many RMRs. The variant adds one level of indirection:
//! process `q` spins on a *spin bit* that is statically homed at `q`, and
//! publishes it in `announce[ticket]`. A handoff writes `go[i] = 1`,
//! reads `announce[i]`, and — if published — sets the spin bit.

use crate::lock::{LockCore, LockMeta, Outcome};
use crate::tree::{Ascent, FindNextResult, Tree};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};

use super::NO_ONE;

/// DSM flavour of [`OneShotLock`](super::OneShotLock): identical queue +
/// tree protocol, but the busy-wait loop spins on a process-local bit so
/// that waiting is RMR-free in the DSM cost model.
///
/// Layout: `spin[q]` is homed at process `q` (allocate the memory with
/// [`MemoryBuilder::build_dsm`]); `announce`, `go`, the scalars and the
/// tree are homed at process 0 — every access to them is a bounded number
/// of RMRs for everyone else, which is fine because all accesses outside
/// the spin loop are wait-free.
#[derive(Clone, Debug)]
pub struct DsmOneShotLock {
    tail: WordId,
    head: WordId,
    last_exited: WordId,
    go: WordArray,
    /// `announce[i] = q + 1` means the process holding ticket `i` is `q`
    /// and spins on `spin[q]`; `0` means not yet published (the paper's
    /// `⊥`).
    announce: WordArray,
    /// `spin[q]`, homed at process `q`.
    spin: WordArray,
    tree: Tree,
    ascent: Ascent,
    n: usize,
}

impl DsmOneShotLock {
    /// Lay out the DSM one-shot lock for `n` processes with tree
    /// branching `branching`.
    pub fn layout(b: &mut MemoryBuilder, n: usize, branching: usize) -> Self {
        Self::layout_with(b, n, branching, Ascent::Adaptive)
    }

    /// Lay out choosing the `FindNext` ascent flavour.
    pub fn layout_with(b: &mut MemoryBuilder, n: usize, branching: usize, ascent: Ascent) -> Self {
        assert!(n >= 1, "lock needs at least one process");
        let tail = b.alloc(0);
        let head = b.alloc(0);
        let last_exited = b.alloc(NO_ONE);
        let go = b.alloc_array_with(n, |i| (0, u64::from(i == 0)));
        let announce = b.alloc_array(n, 0);
        // The whole point: spin[q] lives at q.
        let spin = b.alloc_array_with(n, |q| (q, 0));
        let tree = Tree::layout(b, n, branching);
        DsmOneShotLock {
            tail,
            head,
            last_exited,
            go,
            announce,
            spin,
            tree,
            ascent,
            n,
        }
    }

    /// Number of processes the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    fn abort<M: Mem + ?Sized>(&self, mem: &M, pid: Pid, i: u64) {
        self.tree.remove(mem, pid, i);
        let head = mem.read(pid, self.head);
        if head != mem.read(pid, self.last_exited) {
            return;
        }
        self.signal_next(mem, pid, head);
    }

    fn signal_next<M: Mem + ?Sized>(&self, mem: &M, pid: Pid, head: u64) {
        match self.tree.find_next_with(mem, pid, head, self.ascent) {
            FindNextResult::Bottom | FindNextResult::Top => {}
            FindNextResult::Next(j) => {
                mem.write(pid, self.go.at(j as usize), 1);
                let s = mem.read(pid, self.announce.at(j as usize));
                if s != 0 {
                    mem.write(pid, self.spin.at(s as usize - 1), 1);
                }
            }
        }
    }
}

impl LockMeta for DsmOneShotLock {
    fn name(&self) -> String {
        format!("one-shot-dsm(B={})", self.tree.branching())
    }

    fn is_one_shot(&self) -> bool {
        true
    }
}

/// `Enter()` and `Exit()` as one observed passage, as for
/// [`OneShotLock`](super::OneShotLock).
impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for DsmOneShotLock {
    /// # Panics
    ///
    /// Panics if more than `capacity` enter attempts are made.
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        let mem = &probed(mem, probe);
        let i = mem.faa(p, self.tail, 1);
        assert!(
            (i as usize) < self.n,
            "one-shot lock capacity {} exceeded (ticket {i})",
            self.n
        );
        let ticket = Some(i);
        // Publish the spin bit, then check go[i]; the signaller writes
        // go[i] *before* reading announce[i], so exactly one of the two
        // sides observes the other.
        mem.write(p, self.announce.at(i as usize), p as u64 + 1);
        if mem.read(p, self.go.at(i as usize)) != 1 {
            while mem.read(p, self.spin.at(p)) != 1 {
                // Local spin: free in the DSM cost model.
                if signal.is_set() {
                    self.abort(mem, p, i);
                    probe.abort(p, ticket);
                    return Outcome::Aborted { ticket };
                }
            }
        }
        mem.write(p, self.head, i);
        probe.enter_end(p, ticket);
        Outcome::Entered { ticket }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        let mem = &probed(mem, probe);
        let head = mem.read(p, self.head);
        mem.write(p, self.last_exited, head);
        self.signal_next(mem, p, head);
        probe.cs_exit(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, DsmMemory, Mem, NeverAbort, RmrProbe};
    use sal_obs::NoProbe;

    fn build(n: usize) -> (DsmOneShotLock, DsmMemory) {
        let mut b = MemoryBuilder::new();
        let lock = DsmOneShotLock::layout(&mut b, n, 4);
        (lock, b.build_dsm(n))
    }

    #[test]
    fn sequential_passages_in_ticket_order() {
        let (lock, mem) = build(4);
        for pid in 0..4 {
            assert!(lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, pid, &NoProbe);
        }
    }

    #[test]
    fn aborters_are_skipped() {
        let (lock, mem) = build(4);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.enter_core(&mem, 1, &sig, &NoProbe).entered());
        assert!(!lock.enter_core(&mem, 2, &sig, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
        assert!(lock.enter_core(&mem, 3, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 3, &NoProbe);
    }

    #[test]
    fn waiting_incurs_bounded_rmrs_in_dsm() {
        // Process 1 takes its ticket *before* process 0 exits and spins.
        // In the DSM model the spin is on spin[1], homed at 1 — free. We
        // simulate "spinning" by bounding the RMRs of the whole passage:
        // take the ticket, poll the local bit many times via enter's loop
        // — here we simply check that a passage that was signalled while
        // spinning has O(1) RMRs.
        let (lock, mem) = build(2);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        // Hand off before p1 even arrives: p1's go is set during exit.
        lock.exit_core(&mem, 0, &NoProbe);
        let probe = RmrProbe::start(&mem, 1);
        assert!(lock.enter_core(&mem, 1, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 1, &NoProbe);
        assert!(probe.rmrs(&mem) <= 12, "got {}", probe.rmrs(&mem));
    }

    #[test]
    fn spin_bit_is_set_through_the_announce_indirection() {
        let (lock, mem) = build(3);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        // p1 publishes its announce entry by taking a ticket in a thread
        // that will block; we emulate the interleaving sequentially: take
        // the ticket by hand.
        let i = mem.faa(1, lock.tail, 1);
        assert_eq!(i, 1);
        mem.write(1, lock.announce.at(1), 2); // pid 1 + 1
        assert_eq!(mem.read(1, lock.go.at(1)), 0);
        // p0 exits: should set go[1], read announce[1] = 2, set spin[1].
        lock.exit_core(&mem, 0, &NoProbe);
        assert_eq!(mem.read(1, lock.go.at(1)), 1);
        assert_eq!(mem.read(1, lock.spin.at(1)), 1);
    }

    #[test]
    fn works_under_cc_memory_too() {
        // The DSM variant is also correct (just not necessary) under CC.
        let mut b = MemoryBuilder::new();
        let lock = DsmOneShotLock::layout(&mut b, 3, 2);
        let mem = b.build_cc(3);
        for pid in 0..3 {
            assert!(lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, pid, &NoProbe);
        }
    }
}
