//! The lock interface: [`LockMeta`] and [`LockCore`], one pair over
//! every lock in the workspace, with passage observability built in.
//!
//! The paper (§2) defines a lock by one interface: `enter` under an
//! abort signal, then `exit`. Every algorithm here implements it once,
//! as two traits:
//!
//! * [`LockMeta`] — memory-independent metadata (name, abortability,
//!   one-shot use).
//! * [`LockCore<M, P>`] — `enter_core`/`exit_core`, generic over the
//!   memory type `M`, the probe type `P` and the abort-signal type, so
//!   that on [`RawMemory`](sal_memory::RawMemory) with
//!   [`NoProbe`](sal_obs::NoProbe) the whole passage compiles down to
//!   direct atomic instructions: no vtables, no probe hooks, no erased
//!   word table.
//!
//! The runtime harness, the Table-1 benchmarks and the sweeps drive
//! locks through `LockCore`; `sal-baselines` implements it too. A
//! registry that picks a lock at run time (`sal_bench::AnyLock`)
//! dispatches by `match` over its concrete locks, so every call path is
//! statically dispatched. The [`Probe`] parameter is how
//! instrumentation attaches without forking the call path.
//!
//! # Blocking vs. resumable
//!
//! `enter_core` blocks (busy-waits) until the passage resolves — that
//! is the model the RMR bounds are stated in. Underneath, the paper
//! locks express the same protocol as resumable state machines
//! ([`crate::resume`]): `enter_core` is the tight-loop driver of
//! [`poll_enter`](crate::long_lived::BoundedLongLivedLock::poll_enter),
//! and non-blocking drivers (`sal-sync`'s, which leave a waker for the
//! handoff that ends the wait, in blocked threads and async tasks
//! alike) poll the identical machine at their own cadence.

use sal_memory::{AbortSignal, Mem, Pid};
use sal_obs::Probe;
use std::fmt::Debug;

/// Result of a [`LockCore::enter_core`] attempt.
///
/// `ticket` carries the FCFS doorway ticket when the algorithm has one
/// (the one-shot locks' `F&A(Tail)` index); locks without a doorway
/// report `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The process acquired the lock and entered the critical section;
    /// it must eventually call [`LockCore::exit_core`].
    Entered {
        /// FCFS doorway ticket, if the algorithm has a doorway.
        ticket: Option<u64>,
    },
    /// The process abandoned the attempt in response to the abort
    /// signal.
    Aborted {
        /// Doorway ticket of the abandoned attempt, if any.
        ticket: Option<u64>,
    },
}

impl Outcome {
    /// Whether the lock was acquired.
    pub fn entered(&self) -> bool {
        matches!(self, Outcome::Entered { .. })
    }

    /// Whether the attempt aborted.
    pub fn aborted(&self) -> bool {
        !self.entered()
    }

    /// The doorway ticket of this attempt, if the algorithm has one.
    pub fn ticket(&self) -> Option<u64> {
        match *self {
            Outcome::Entered { ticket } | Outcome::Aborted { ticket } => ticket,
        }
    }
}

/// Memory-independent lock metadata, shared by every instantiation of
/// [`LockCore`].
///
/// Split out of `LockCore` so that `name()` can be asked of a lock
/// without naming a memory type, and so each algorithm states its
/// metadata exactly once.
pub trait LockMeta: Send + Sync + Debug {
    /// Short machine-readable name, e.g. `"one-shot(B=8)"`.
    fn name(&self) -> String;

    /// Whether `enter_core` honours the abort signal. Classic locks
    /// (MCS, ticket, …) return `false` and ignore the signal.
    fn is_abortable(&self) -> bool {
        true
    }

    /// Whether each process may acquire this lock at most once (the
    /// paper's one-shot locks). The harness uses this to size workloads.
    fn is_one_shot(&self) -> bool {
        false
    }
}

/// An (abortable) mutual-exclusion lock driven through a memory `M`,
/// with passage-lifecycle observability through a probe `P`.
///
/// Algorithms implement this once, generically
/// (`impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for X`),
/// and every call path is an instantiation of that one impl:
///
/// * **Monomorphized** — `M = RawMemory`, `P = NoProbe`: every memory
///   op inlines to a direct `AtomicU64` access; probe hooks vanish.
/// * **Instrumented** — `M = CcMemory`, `P = PassageStats`: full RMR
///   accounting, still statically dispatched.
/// * **Erased memory** — `M = dyn Mem`, for callers that hold a
///   memory only as a trait object.
///
/// `enter_core` reports [`Outcome::Entered`] iff the process acquired
/// the lock and entered the critical section, in which case it must
/// eventually call `exit_core`. [`Outcome::Aborted`] means the attempt
/// was abandoned in response to the signal (only possible when
/// [`is_abortable`](LockMeta::is_abortable)). Note that, per the
/// problem statement (§2), `enter_core` *may* report `Entered` even
/// after the signal fires — a process can be handed the lock before
/// noticing the signal.
///
/// Implementations call the probe's passage hooks
/// ([`enter_begin`](Probe::enter_begin) /
/// [`enter_end`](Probe::enter_end) / [`abort`](Probe::abort) from
/// `enter_core`, [`cs_exit`](Probe::cs_exit) from `exit_core`) and
/// route their shared-memory operations through a
/// [`ProbedMem`](sal_obs::ProbedMem) so `op`/`rmr` hooks fire per
/// operation.
///
/// Implementations keep any per-process local state internally, keyed
/// by `p`; `p` must be in `0..mem.num_procs()` and each process must
/// obey the usual protocol (no `exit_core` without a preceding
/// successful `enter_core`).
pub trait LockCore<M: Mem + ?Sized, P: Probe + ?Sized>: LockMeta {
    /// Attempt to acquire the lock as process `p`, reporting passage
    /// events to `probe`.
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome;

    /// Release the lock as process `p` (which must be in the CS),
    /// reporting the passage completion to `probe`.
    fn exit_core(&self, mem: &M, p: Pid, probe: &P);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_obs::NoProbe;

    #[test]
    fn outcome_accessors() {
        let e = Outcome::Entered { ticket: Some(3) };
        assert!(e.entered() && !e.aborted());
        assert_eq!(e.ticket(), Some(3));
        let a = Outcome::Aborted { ticket: None };
        assert!(a.aborted() && !a.entered());
        assert_eq!(a.ticket(), None);
    }

    #[test]
    fn no_probe_coerces_to_dyn_probe() {
        // A lock's generic impl covers `P = dyn Probe`, so `&NoProbe`
        // is accepted at `&dyn Probe` positions via unsize coercion.
        fn _call<L>(l: &L, mem: &dyn Mem, sig: &dyn AbortSignal)
        where
            L: for<'m> LockCore<dyn Mem + 'm, dyn Probe>,
        {
            let _ = l.enter_core(mem, 0, sig, &NoProbe);
        }
    }
}
