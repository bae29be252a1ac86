//! The [`AbortableLock`] trait: one public interface over every lock in
//! the workspace, with passage observability built in.
//!
//! The runtime harness, the Table-1 benchmarks and the sweep binaries
//! all drive locks through this trait; `sal-baselines` and `sal-sync`
//! implement it too, so one registry entry per lock suffices. This is
//! the **stable surface** of the workspace: additions happen through
//! defaulted methods, and the [`Probe`] parameter is how instrumentation
//! attaches without forking the call path.
//!
//! The trait is generic over the probe (`AbortableLock<P>`) with a
//! `dyn Probe` default, giving both worlds at once:
//!
//! * `Box<dyn AbortableLock>` (= `dyn AbortableLock<dyn Probe>`) is
//!   object-safe — heterogeneous lock registries work.
//! * A concrete `P` (e.g. [`NoProbe`](sal_obs::NoProbe)) monomorphizes
//!   every hook away — `sal-sync`'s uninstrumented path keeps its
//!   codegen.
//!
//! # Facade vs. core
//!
//! [`AbortableLock`] is the *facade*: object-safe, memory-erased
//! (`&dyn Mem`), stable. The algorithms themselves implement the
//! *core* pair instead:
//!
//! * [`LockMeta`] — memory-independent metadata (name, abortability).
//! * [`LockCore<M, P>`] — `enter_core`/`exit_core` generic over the
//!   concrete memory type `M` (and abort-signal type), so that on
//!   [`RawMemory`](sal_memory::RawMemory) with
//!   [`NoProbe`](sal_obs::NoProbe) the whole passage compiles down to
//!   direct atomic instructions: no vtables, no probe hooks, no
//!   erased word table.
//!
//! A blanket impl derives the facade from the core at `M = dyn Mem`
//! (references forward `Mem`, so every `LockCore` implementor covers
//! `dyn Mem` automatically), which is why converting a lock to
//! `LockCore` cannot change the behaviour observed through
//! `Box<dyn AbortableLock>` registries: the facade *is* the core,
//! instantiated at the erased types. [`DynLock`] closes the loop in
//! the other direction — it adapts any `&dyn AbortableLock` back into
//! a `LockCore` over every memory type — so generic drivers (the
//! harness, the real-thread stress tests) run both dispatch flavours
//! through one code path.
//!
//! # Blocking vs. resumable
//!
//! `enter_core` blocks (busy-waits) until the passage resolves — that
//! is the model the RMR bounds are stated in. Underneath, the paper
//! locks express the same protocol as resumable state machines
//! ([`crate::resume`]): `enter_core` is the tight-loop driver of
//! [`poll_enter`](crate::long_lived::BoundedLongLivedLock::poll_enter),
//! and non-blocking drivers (async tasks parking on wakers, the
//! spin-then-park [`Waiter`](crate::park::Waiter)) poll the identical
//! machine at their own cadence. Equivalence of the two is pinned by
//! `tests/mono_equivalence.rs`: the routing through the machine leaves
//! every simulator artifact byte-identical.

use sal_memory::{AbortSignal, Mem, Pid};
use sal_obs::Probe;
use std::fmt::Debug;

/// Result of an [`AbortableLock::enter`] attempt.
///
/// `ticket` carries the FCFS doorway ticket when the algorithm has one
/// (the one-shot locks' `F&A(Tail)` index); locks without a doorway
/// report `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The process acquired the lock and entered the critical section;
    /// it must eventually call [`AbortableLock::exit`].
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

/// An (abortable) mutual-exclusion lock driven through a [`Mem`], with
/// passage-lifecycle observability.
///
/// `enter` reports [`Outcome::Entered`] iff the process acquired the
/// lock and entered the critical section, in which case it must
/// eventually call `exit`. [`Outcome::Aborted`] means the attempt was
/// abandoned in response to `signal` (only possible when
/// [`is_abortable`](AbortableLock::is_abortable)). Note that, per the
/// problem statement (§2), `enter` *may* report `Entered` even after
/// the signal fires — a process can be handed the lock before noticing
/// the signal.
///
/// Implementations call the probe's passage hooks
/// ([`enter_begin`](Probe::enter_begin) /
/// [`enter_end`](Probe::enter_end) / [`abort`](Probe::abort) from
/// `enter`, [`cs_exit`](Probe::cs_exit) from `exit`) and route their
/// shared-memory operations through a
/// [`ProbedMem`](sal_obs::ProbedMem) so `op`/`rmr` hooks fire per
/// operation.
///
/// Implementations keep any per-process local state internally, keyed
/// by `p`; `p` must be in `0..mem.num_procs()` and each process must
/// obey the usual protocol (no `exit` without a preceding successful
/// `enter`).
pub trait AbortableLock<P: Probe + ?Sized = dyn Probe>: Send + Sync + Debug {
    /// Short machine-readable name, e.g. `"one-shot(B=8)"`.
    fn name(&self) -> String;

    /// Whether `enter` honours the abort signal. Classic locks (MCS,
    /// ticket, …) return `false` and ignore `signal`.
    fn is_abortable(&self) -> bool {
        true
    }

    /// Whether each process may acquire this lock at most once (the
    /// paper's one-shot locks). The harness uses this to size workloads.
    fn is_one_shot(&self) -> bool {
        false
    }

    /// Attempt to acquire the lock as process `p`, reporting passage
    /// events to `probe`.
    fn enter(&self, mem: &dyn Mem, p: Pid, signal: &dyn AbortSignal, probe: &P) -> Outcome;

    /// Release the lock as process `p` (which must be in the CS),
    /// reporting the passage completion to `probe`.
    fn exit(&self, mem: &dyn Mem, p: Pid, probe: &P);
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

    /// Whether `enter_core` honours the abort signal.
    fn is_abortable(&self) -> bool {
        true
    }

    /// Whether each process may acquire this lock at most once.
    fn is_one_shot(&self) -> bool {
        false
    }
}

/// The generic core of a lock: [`AbortableLock`] with the memory,
/// probe *and* signal types as compile-time parameters.
///
/// Algorithms implement this once, generically
/// (`impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for X`),
/// and get three call paths for the price of one:
///
/// * **Monomorphized** — `M = RawMemory`, `P = NoProbe`: every memory
///   op inlines to a direct `AtomicU64` access; probe hooks vanish.
/// * **Instrumented** — `M = CcMemory`, `P = PassageStats`: full RMR
///   accounting, still statically dispatched.
/// * **Erased** — the blanket [`AbortableLock`] impl below
///   instantiates the core at `M = dyn Mem`, `S = dyn AbortSignal`,
///   recovering the object-safe facade unchanged.
///
/// `enter_core` is generic over the signal type and therefore not
/// object-safe; that is fine — type erasure is the facade's job.
pub trait LockCore<M: Mem + ?Sized, P: Probe + ?Sized>: LockMeta {
    /// Attempt to acquire the lock as process `p`, reporting passage
    /// events to `probe`. Semantics are those of
    /// [`AbortableLock::enter`].
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome;

    /// Release the lock as process `p` (which must be in the CS).
    /// Semantics are those of [`AbortableLock::exit`].
    fn exit_core(&self, mem: &M, p: Pid, probe: &P);
}

/// The facade derived from the core: any lock whose `LockCore` covers
/// `dyn Mem` (which every generic implementor does, via the `Mem`
/// forwarding impl for references) is an `AbortableLock` with
/// identical behaviour — the facade methods *are* the core methods at
/// the erased types, so `Box<dyn AbortableLock>` registries and the
/// simulator observe exactly the code they did before the split.
impl<P, L> AbortableLock<P> for L
where
    P: Probe + ?Sized,
    L: for<'m> LockCore<dyn Mem + 'm, P>,
{
    fn name(&self) -> String {
        LockMeta::name(self)
    }

    fn is_abortable(&self) -> bool {
        LockMeta::is_abortable(self)
    }

    fn is_one_shot(&self) -> bool {
        LockMeta::is_one_shot(self)
    }

    fn enter(&self, mem: &dyn Mem, p: Pid, signal: &dyn AbortSignal, probe: &P) -> Outcome {
        self.enter_core(mem, p, signal, probe)
    }

    fn exit(&self, mem: &dyn Mem, p: Pid, probe: &P) {
        self.exit_core(mem, p, probe)
    }
}

/// Adapter running a type-erased lock through the generic [`LockCore`]
/// interface: the inverse of the blanket facade impl.
///
/// `DynLock(&lock)` implements `LockCore<M, P>` for *every* memory and
/// probe type by re-erasing the arguments at the call boundary
/// (`&&M → &dyn Mem`, etc.), so it costs exactly one virtual call per
/// lock operation — no more, no less. Generic drivers written against
/// `LockCore` (the harness, the stress tests) accept `DynLock` to exercise
/// the dynamic-dispatch flavour through the very same driver code that
/// runs the monomorphized flavour, which is what makes mono-vs-dyn
/// comparisons and equivalence tests fair.
#[derive(Debug, Clone, Copy)]
pub struct DynLock<'l>(pub &'l dyn AbortableLock);

impl LockMeta for DynLock<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn is_abortable(&self) -> bool {
        self.0.is_abortable()
    }

    fn is_one_shot(&self) -> bool {
        self.0.is_one_shot()
    }
}

/// `P: 'static` (rather than `?Sized`) because the wrapped facade
/// fixes its probe parameter at `dyn Probe + 'static`, so the probe is
/// the one argument that cannot be re-erased at an arbitrary lifetime.
/// Every generic driver uses a concrete owned probe type, so this
/// costs nothing in practice.
impl<M: Mem + ?Sized, P: Probe + 'static> LockCore<M, P> for DynLock<'_> {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        self.0.enter(&mem, p, &signal, probe)
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.0.exit(&mem, p, probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_obs::NoProbe;

    #[test]
    fn abortable_lock_trait_is_object_safe() {
        fn _takes(_l: &dyn AbortableLock) {}
        fn _takes_boxed(_l: Box<dyn AbortableLock>) {}
    }

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
        // The default type parameter means `&NoProbe` is accepted at
        // `&dyn Probe` positions via unsize coercion.
        fn _call(l: &dyn AbortableLock, mem: &dyn Mem, sig: &dyn AbortSignal) {
            let _ = l.enter(mem, 0, sig, &NoProbe);
        }
    }
}
