//! The one-shot abortable lock of §3 (Figure 1).
//!
//! An array-based queue lock augmented with the [`Tree`] of §4, which
//! tracks the queue slots abandoned by aborting processes. Each process
//! may attempt to acquire the lock **at most once** (the long-lived
//! transformation of [`crate::long_lived`] lifts this restriction).
//!
//! Protocol summary:
//!
//! * `Enter` (Algorithm 3.1): F&A on `Tail` is the FCFS doorway and hands
//!   the process its queue slot `i`; the process spins on `go[i]`
//!   (initially only `go[0]` is set), and on acquiring writes `Head ← i`.
//! * `Exit` (Algorithm 3.2): record `LastExited ← Head`, then
//!   `SignalNext(Head)`.
//! * `Abort` (Algorithm 3.3): remove the slot from the `Tree`, and if the
//!   process currently in the CS is also the last to have exited
//!   (`Head = LastExited`), its handoff may have crossed paths with our
//!   removal — re-run `SignalNext(Head)` on its behalf.
//! * `SignalNext(h)` (Algorithm 3.4): `FindNext(h)` in the tree; on a
//!   successor `j`, set `go[j]`. On `⊥` the queue is exhausted; on `⊤`
//!   some aborting process has assumed responsibility for the handoff.
//!
//! The module also provides the DSM variant ([`DsmOneShotLock`]) that
//! spins on a process-local bit published through an `announce` array.

mod dsm;

pub use dsm::DsmOneShotLock;

use crate::lock::{LockCore, LockMeta, Outcome};
use crate::resume::{EnterStep, OneShotEnterMachine, OneShotEnterState, WaitKind, WaitToken};
use crate::tree::{Ascent, FindNextResult, Tree};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};

/// Sentinel for `LastExited = −1` (no process has exited yet).
const NO_ONE: u64 = u64::MAX;

/// Outcome of a one-shot [`OneShotLock::enter`] call.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum EnterOutcome {
    /// The process acquired the lock; it must call
    /// [`exit`](OneShotLock::exit). `ticket` is the queue slot obtained
    /// from the doorway F&A.
    Entered {
        /// The queue slot obtained from the doorway F&A on `Tail`.
        ticket: u64,
    },
    /// The process aborted its attempt in response to the signal.
    Aborted {
        /// The queue slot the process abandoned.
        ticket: u64,
    },
}

impl EnterOutcome {
    /// Whether the lock was acquired.
    pub fn entered(&self) -> bool {
        matches!(self, EnterOutcome::Entered { .. })
    }

    /// The doorway ticket of this attempt.
    pub fn ticket(&self) -> u64 {
        match *self {
            EnterOutcome::Entered { ticket } | EnterOutcome::Aborted { ticket } => ticket,
        }
    }
}

impl From<EnterOutcome> for Outcome {
    fn from(o: EnterOutcome) -> Outcome {
        match o {
            EnterOutcome::Entered { ticket } => Outcome::Entered {
                ticket: Some(ticket),
            },
            EnterOutcome::Aborted { ticket } => Outcome::Aborted {
                ticket: Some(ticket),
            },
        }
    }
}

/// The one-shot abortable lock of Figure 1 (cache-coherent variant).
///
/// Space: `N` `go` words + `O(N/B)` tree words + 3 scalars = `O(N)`.
///
/// RMR cost (Theorem 2): a complete passage incurs `O(log_B A_i)` RMRs
/// where `A_i` is the number of processes that abort during the passage —
/// in particular `O(1)` if none do; an aborted attempt incurs
/// `O(log_B A_t)` where `A_t` is the number of aborts in the execution.
#[derive(Clone, Debug)]
pub struct OneShotLock {
    tail: WordId,
    head: WordId,
    last_exited: WordId,
    go: WordArray,
    tree: Tree,
    ascent: Ascent,
    n: usize,
}

impl OneShotLock {
    /// Lay out a lock for `n` processes with tree branching factor
    /// `branching` (the paper's `W`), using the adaptive ascent.
    pub fn layout(b: &mut MemoryBuilder, n: usize, branching: usize) -> Self {
        Self::layout_with(b, n, branching, Ascent::Adaptive)
    }

    /// Lay out a lock choosing the `FindNext` ascent flavour explicitly
    /// (the plain ascent is exposed for the Figure-4 experiments).
    pub fn layout_with(b: &mut MemoryBuilder, n: usize, branching: usize, ascent: Ascent) -> Self {
        assert!(n >= 1, "lock needs at least one process");
        let tail = b.alloc(0);
        let head = b.alloc(0);
        let last_exited = b.alloc(NO_ONE);
        // go = [1, 0, …, 0]: slot 0 holds the lock from the start.
        let go = b.alloc_array_with(n, |i| (0, u64::from(i == 0)));
        let tree = Tree::layout(b, n, branching);
        OneShotLock {
            tail,
            head,
            last_exited,
            go,
            tree,
            ascent,
            n,
        }
    }

    /// Number of processes (= queue slots) the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// The augmenting tree (exposed for experiments and diagnostics).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// `Enter()` (Algorithm 3.1), executed by process `pid`.
    ///
    /// Returns [`EnterOutcome::Entered`] when the process acquired the
    /// lock (it must then run its critical section and call
    /// [`exit`](Self::exit)), or [`EnterOutcome::Aborted`] if it
    /// abandoned the attempt in response to `signal`.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` enter attempts are made (each
    /// process may attempt at most one passage — well-formedness, §5.1).
    pub fn enter<M, S>(&self, mem: &M, pid: Pid, signal: &S) -> EnterOutcome
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        // The blocking enter is the tight-loop driver of the resumable
        // machine: a Pending poll performed exactly one `go` read (and
        // one signal check), so this loop IS the paper's spin wait,
        // operation for operation.
        let mut machine = self.begin_enter();
        loop {
            match self.poll_enter(&mut machine, mem, pid, signal) {
                EnterStep::Acquired { ticket } => {
                    return EnterOutcome::Entered {
                        ticket: ticket.expect("one-shot machine reports its ticket"),
                    }
                }
                EnterStep::Aborted { ticket, .. } => {
                    return EnterOutcome::Aborted {
                        ticket: ticket.expect("one-shot machine reports its ticket"),
                    }
                }
                EnterStep::Pending(_) => {}
            }
        }
    }

    /// Begin a resumable `Enter`: no shared-memory operation happens
    /// until the first [`poll_enter`](Self::poll_enter) call. See
    /// [`crate::resume`] for the machine contract.
    pub fn begin_enter(&self) -> OneShotEnterMachine {
        OneShotEnterMachine::new()
    }

    /// Advance a resumable `Enter` by one poll: runs the doorway F&A on
    /// the first call, then one `go`-word check per call (lines 1–6 of
    /// Algorithm 3.1, with the line-2 spin cut at every iteration).
    /// Aborts (lines 3–5) run to completion within the poll that
    /// observes the signal — an [`EnterStep::Aborted`] machine has
    /// nothing left to clean up.
    ///
    /// # Panics
    ///
    /// Panics on capacity overflow (as [`enter`](Self::enter)) and if
    /// polled again after resolving.
    pub fn poll_enter<M, S>(
        &self,
        machine: &mut OneShotEnterMachine,
        mem: &M,
        pid: Pid,
        signal: &S,
    ) -> EnterStep
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        let ticket = match machine.st {
            OneShotEnterState::Doorway => {
                let i = mem.faa(pid, self.tail, 1); // line 1: the FCFS doorway
                assert!(
                    (i as usize) < self.n,
                    "one-shot lock capacity {} exceeded (ticket {i})",
                    self.n
                );
                machine.st = OneShotEnterState::Waiting { ticket: i };
                i
            }
            OneShotEnterState::Waiting { ticket } => ticket,
            OneShotEnterState::Done => panic!("one-shot enter machine polled after resolving"),
        };
        let go = self.go.at(ticket as usize);
        if mem.read(pid, go) == 0 {
            // line 2
            if signal.is_set() {
                // lines 3–5
                let handed_off = self.abort(mem, pid, ticket);
                machine.st = OneShotEnterState::Done;
                return EnterStep::Aborted {
                    ticket: Some(ticket),
                    handed_off,
                };
            }
            return EnterStep::Pending(WaitToken::new(go, WaitKind::QueueSpin));
        }
        mem.write(pid, self.head, ticket); // line 6
        machine.st = OneShotEnterState::Done;
        EnterStep::Acquired {
            ticket: Some(ticket),
        }
    }

    /// [`enter`](Self::enter) with passage observability: fires
    /// [`Probe::enter_begin`], routes every shared-memory operation
    /// through a [`ProbedMem`](sal_obs::ProbedMem) (so `op`/`rmr` hooks fire), and closes
    /// the attempt with [`Probe::enter_end`] or [`Probe::abort`].
    pub fn enter_probed<M, S, P>(&self, mem: &M, pid: Pid, signal: &S, probe: &P) -> EnterOutcome
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
        P: Probe + ?Sized,
    {
        probe.enter_begin(pid);
        let pm = probed(mem, probe);
        let outcome = self.enter(&pm, pid, signal);
        match outcome {
            EnterOutcome::Entered { ticket } => probe.enter_end(pid, Some(ticket)),
            EnterOutcome::Aborted { ticket } => probe.abort(pid, Some(ticket)),
        }
        outcome
    }

    /// `Exit()` (Algorithm 3.2), executed by the process in the CS.
    pub fn exit<M: Mem + ?Sized>(&self, mem: &M, pid: Pid) {
        let head = mem.read(pid, self.head); // line 8
        mem.write(pid, self.last_exited, head); // line 9
        self.signal_next(mem, pid, head); // line 10
    }

    /// [`exit`](Self::exit) with passage observability: routes the exit
    /// protocol through a [`ProbedMem`](sal_obs::ProbedMem) and fires [`Probe::cs_exit`]
    /// once the passage is complete.
    pub fn exit_probed<M, P>(&self, mem: &M, pid: Pid, probe: &P)
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let pm = probed(mem, probe);
        self.exit(&pm, pid);
        probe.cs_exit(pid);
    }

    /// `Abort(i)` (Algorithm 3.3); returns whether it handed the lock
    /// on (set a successor's `go`).
    fn abort<M: Mem + ?Sized>(&self, mem: &M, pid: Pid, i: u64) -> bool {
        self.tree.remove(mem, pid, i); // line 11
        let head = mem.read(pid, self.head); // line 12
        if head != mem.read(pid, self.last_exited) {
            // line 13
            return false;
        }
        // line 15: the exiting process's FindNext may have crossed paths
        // with our Remove; assume responsibility for its handoff.
        self.signal_next(mem, pid, head)
    }

    /// `SignalNext(head)` (Algorithm 3.4); returns whether it set a
    /// successor's `go`.
    fn signal_next<M: Mem + ?Sized>(&self, mem: &M, pid: Pid, head: u64) -> bool {
        match self.tree.find_next_with(mem, pid, head, self.ascent) {
            // line 17–18: ⊥ — queue exhausted; ⊤ — an aborter has assumed
            // responsibility for this handoff.
            FindNextResult::Bottom | FindNextResult::Top => false,
            FindNextResult::Next(j) => {
                mem.write(pid, self.go.at(j as usize), 1); // line 19
                true
            }
        }
    }
}

impl LockMeta for OneShotLock {
    fn name(&self) -> String {
        let flavour = match self.ascent {
            Ascent::Plain => "plain",
            Ascent::Adaptive => "adaptive",
        };
        format!("one-shot(B={},{})", self.tree.branching(), flavour)
    }

    fn is_one_shot(&self) -> bool {
        true
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for OneShotLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        self.enter_probed(mem, p, signal, probe).into()
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.exit_probed(mem, p, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort};

    fn build(n: usize, branching: usize) -> (OneShotLock, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = OneShotLock::layout(&mut b, n, branching);
        (lock, b.build_cc(n))
    }

    #[test]
    fn sequential_passages_in_ticket_order() {
        let (lock, mem) = build(4, 2);
        for pid in 0..4 {
            let o = lock.enter(&mem, pid, &NeverAbort);
            assert_eq!(o, EnterOutcome::Entered { ticket: pid as u64 });
            lock.exit(&mem, pid);
        }
    }

    #[test]
    fn aborted_slot_is_skipped_in_handoff() {
        let (lock, mem) = build(4, 2);
        // p0 acquires; p1's attempt aborts (signal pre-set, go[1] clear).
        assert!(lock.enter(&mem, 0, &NeverAbort).entered());
        let sig = AbortFlag::new();
        sig.set();
        let o = lock.enter(&mem, 1, &sig);
        assert_eq!(o, EnterOutcome::Aborted { ticket: 1 });
        // p0 exits: handoff must skip slot 1 and go to slot 2.
        lock.exit(&mem, 0);
        assert!(lock.enter(&mem, 2, &NeverAbort).entered());
        lock.exit(&mem, 2);
        assert!(lock.enter(&mem, 3, &NeverAbort).entered());
        lock.exit(&mem, 3);
    }

    #[test]
    fn abort_after_exit_rescues_the_handoff() {
        // The crossed-paths scenario at lock level: p1 aborts *after* p0
        // already exited and its FindNext returned slot 1 is impossible
        // sequentially, but aborting after p0's exit must still leave the
        // lock usable for p2: the aborter re-runs SignalNext(0).
        let (lock, mem) = build(4, 2);
        assert!(lock.enter(&mem, 0, &NeverAbort).entered());
        // p1 takes its ticket but has not started spinning yet.
        // (Simulate by having p1 enter with a pre-set signal *after* p0
        // exits; ticket order is still 1.)
        lock.exit(&mem, 0); // FindNext(0) → 1, sets go[1]
        let sig = AbortFlag::new();
        sig.set();
        // p1 aborts even though go[1] is set? No: enter checks go first;
        // go[1] is already 1, so p1 actually acquires. This matches the
        // paper: a process handed the lock before noticing the signal may
        // still return true.
        let o = lock.enter(&mem, 1, &sig);
        assert!(o.entered());
        lock.exit(&mem, 1);
        assert!(lock.enter(&mem, 2, &NeverAbort).entered());
    }

    #[test]
    fn an_abort_that_rescues_a_handoff_reports_it() {
        // p0 holds; p1..p4 queue. An abort before any exit hands nothing
        // on. Once p0 has exited (Head = LastExited = 0) and before p1
        // notices go[1], p2's abort re-runs SignalNext(0) (line 15) and
        // writes go[1]: its Aborted step must say so.
        let (lock, mem) = build(5, 2);
        let sig = AbortFlag::new();
        sig.set();
        assert!(lock.enter(&mem, 0, &NeverAbort).entered());
        let mut machines: Vec<_> = (1..5).map(|_| lock.begin_enter()).collect();
        for (p, m) in (1..5).zip(&mut machines) {
            assert!(lock.poll_enter(m, &mem, p, &NeverAbort).pending());
        }
        let handed_off = |step: EnterStep| match step {
            EnterStep::Aborted { handed_off, .. } => handed_off,
            s => panic!("expected an abort, got {s:?}"),
        };
        assert!(!handed_off(lock.poll_enter(
            &mut machines[3],
            &mem,
            4,
            &sig
        )));
        lock.exit(&mem, 0);
        assert!(handed_off(lock.poll_enter(&mut machines[1], &mem, 2, &sig)));
        assert!(lock
            .poll_enter(&mut machines[0], &mem, 1, &NeverAbort)
            .acquired());
    }

    #[test]
    fn all_later_processes_abort_lock_exhausts_cleanly() {
        let (lock, mem) = build(4, 2);
        assert!(lock.enter(&mem, 0, &NeverAbort).entered());
        let sig = AbortFlag::new();
        sig.set();
        for pid in 1..4 {
            assert!(!lock.enter(&mem, pid, &sig).entered());
        }
        // p0 exits into an exhausted queue: FindNext(0) = ⊥, no panic.
        lock.exit(&mem, 0);
    }

    #[test]
    fn no_abort_passage_costs_o1_rmrs() {
        let n = 256;
        let (lock, mem) = build(n, 8);
        let mut max_rmrs = 0;
        for pid in 0..n {
            let probe = sal_memory::RmrProbe::start(&mem, pid);
            assert!(lock.enter(&mem, pid, &NeverAbort).entered());
            lock.exit(&mem, pid);
            max_rmrs = max_rmrs.max(probe.rmrs(&mem));
        }
        // Enter: F&A + go-spin (≤2 RMR) + Head; Exit: Head + LastExited +
        // FindNext (O(1) with no aborts) + go[j]. Comfortably ≤ 12.
        assert!(
            max_rmrs <= 12,
            "no-abort passage should be O(1) RMRs, got {max_rmrs}"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn more_enters_than_capacity_panic() {
        let (lock, mem) = build(2, 2);
        let _ = lock.enter(&mem, 0, &NeverAbort);
        lock.exit(&mem, 0);
        let _ = lock.enter(&mem, 1, &NeverAbort);
        lock.exit(&mem, 1);
        let _ = lock.enter(&mem, 0, &NeverAbort); // third ticket: overflow
    }

    #[test]
    fn lock_trait_round_trip() {
        let (lock, mem) = build(2, 2);
        let l: &dyn crate::AbortableLock = &lock;
        assert!(l.is_one_shot());
        assert!(l.is_abortable());
        assert!(l.name().contains("one-shot"));
        assert!(l.enter(&mem, 0, &NeverAbort, &sal_obs::NoProbe).entered());
        l.exit(&mem, 0, &sal_obs::NoProbe);
    }

    #[test]
    fn probed_passages_report_lifecycle_and_ground_truth_rmrs() {
        let (lock, mem) = build(3, 2);
        let stats = sal_obs::PassageStats::new();
        let before = mem.rmrs(0);
        assert!(lock.enter_probed(&mem, 0, &NeverAbort, &stats).entered());
        lock.exit_probed(&mem, 0, &stats);
        let rec = stats.records()[0];
        assert!(rec.entered);
        assert_eq!(rec.ticket, Some(0));
        assert_eq!(rec.rmrs, mem.rmrs(0) - before, "probe view == cost model");

        // An aborted attempt closes the passage with entered = false.
        assert!(lock.enter_probed(&mem, 1, &NeverAbort, &stats).entered());
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.enter_probed(&mem, 2, &sig, &stats).entered());
        let recs = stats.records();
        assert_eq!(recs.len(), 2);
        assert!(!recs[1].entered);
        assert_eq!(recs[1].ticket, Some(2));
    }
}
