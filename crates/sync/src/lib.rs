//! # sal-sync — a practical abortable mutex built on the paper's lock
//!
//! [`AbortableMutex<T>`] wraps the bounded long-lived lock of
//! `sal-core` (Figure 5 + §6.2) around a value, running the *identical*
//! algorithm code over bare `AtomicU64`s ([`sal_memory::RawMemory`])
//! instead of the instrumented simulator memory. The API follows
//! `std::sync::Mutex`, plus the paper's whole point — acquisition
//! attempts that can give up.
//!
//! ## One request, three surfaces
//!
//! Every acquisition is an [`Acquire`] request: a predicate over the
//! protected value ([`Acquire::when`], default always true) and a limit
//! ([`Acquire::until`] / [`Acquire::within`], or [`Acquire::abort_on`]
//! an [`AbortFlag`], [`Immediate`] or any signal). The limit is injected
//! as the paper's abort signal, so an attempt that gives up while queued
//! leaves in a bounded number of its own steps, and it decides the
//! [`AbortReason`]. [`MutexHandle::acquire`] (with `lock`, `try_lock` and
//! `try_lock_until` as sugar), [`MutexGuard::await_when`],
//! [`Arena::acquire`], [`AsyncAbortableMutex::acquire`] — where
//! **dropping a pending future is an abort** — and
//! [`AsyncMutexGuard::await_when`] all execute it over one lock path: an
//! inline word in front of one lock core. An uncontended acquisition is
//! one CAS on the word and takes no process id. An attempt that finds
//! the word held promotes it to the core and queues there FCFS, in the
//! paper's lock, with its bounded abort; the last one out demotes it
//! again. Past the word, every acquisition is one attempt state machine,
//! which a blocked thread steps and a task polls: a thread spins on the
//! enter machine, then leaves a waker that unparks it and parks, as a
//! task leaves its own. Each unlock evaluates registered predicates
//! under the lock and wakes only the waiters whose condition holds
//! ([`ccs`]). Each attempt that enters the core checks a process id out
//! of it for its own duration, and the guard gives it back, so handles
//! are free and `capacity` bounds the attempts in the core at once.
//!
//! The paper's RMR bounds cover the core passages, which are FCFS from
//! the promotion on. An inline passage is two CAS; a promotion costs one
//! solo passage of the core by the proxy that stands in for the inline
//! holder.
//!
//! ```
//! use sal_sync::{AbortableMutex, Acquire};
//!
//! let m = AbortableMutex::builder(Vec::<u32>::new()).capacity(2).build();
//! let mut producer = m.handle();
//! let mut consumer = m.handle();
//! std::thread::scope(|s| {
//!     s.spawn(move || producer.lock().push(7));
//!     s.spawn(move || {
//!         let q = consumer
//!             .acquire(Acquire::new().when(|q: &Vec<u32>| !q.is_empty()))
//!             .unwrap();
//!         assert_eq!(q[0], 7);
//!     });
//! });
//! ```
//!
//! ## Opt-in observability
//!
//! The builder accepts any [`sal_obs::Probe`]; the mutex then reports
//! passage lifecycle (and, under instrumented memories, RMR) events to
//! it. With the default [`NoProbe`] every hook monomorphizes to a no-op
//! — the uninstrumented fast path keeps its codegen.
//!
//! ```
//! use sal_obs::PassageStats;
//! use sal_sync::AbortableMutex;
//!
//! let stats = PassageStats::new();
//! let mutex = AbortableMutex::builder(0u64)
//!     .capacity(2)
//!     .probe(stats.clone())
//!     .build();
//! let mut h = mutex.handle();
//! *h.lock() += 1;
//! assert_eq!(stats.total_entered(), 1);
//! ```

#![warn(missing_docs)]

mod acquire;
pub mod arena;
pub mod async_mutex;
pub mod ccs;
mod driver;

use driver::{Attempt, Core, Cores, Hold, Seated, Transitions, Word};
use sal_memory::{AbortSignal, Mem};
use sal_obs::{NoProbe, Probe};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

pub use acquire::{Acquire, Always, Predicate};
pub use arena::{Arena, ArenaBuilder, ArenaGuard, ArenaStats};
pub use async_mutex::{AcquireFuture, AsyncAbortableMutex, AsyncMutexGuard, AsyncStats};
pub use ccs::CcsStats;
pub use sal_core::abort::{AbortReason, Immediate};
pub use sal_memory::AbortFlag;

/// Default capacity (concurrent attempts) of [`AbortableMutex::new`]
/// and [`AbortableMutex::builder`].
pub const DEFAULT_CAPACITY: usize = 64;

/// Default branching factor of the underlying `W`-ary tree.
const DEFAULT_BRANCHING: usize = 64;

/// Configures and constructs an [`AbortableMutex`]: capacity, tree
/// branching, and an optional [`Probe`] sink. Obtain with
/// [`AbortableMutex::builder`].
///
/// ```
/// use sal_sync::AbortableMutex;
///
/// let mutex = AbortableMutex::builder(String::new()).capacity(8).build();
/// assert_eq!(mutex.capacity(), 8);
/// ```
#[derive(Debug)]
pub struct AbortableMutexBuilder<T, P: Probe = NoProbe> {
    value: T,
    capacity: usize,
    branching: usize,
    probe: P,
}

impl<T, P: Probe> AbortableMutexBuilder<T, P> {
    /// Maximum number of concurrent attempts in the lock core
    /// (`1 ..= 1021`): each one that enters the core holds one of its
    /// process ids until it fails or its guard drops, and further ones
    /// wait for one under their limit. An inline holder (an uncontended
    /// acquisition) holds none, nor does a conditional waiter while it
    /// waits. The core has one more id, for the promotion proxy, and the
    /// lock's descriptor layout allows 1022. Space is `O(capacity²)`
    /// words, per Claim 28. Defaults to [`DEFAULT_CAPACITY`].
    pub fn capacity(mut self, attempts: usize) -> Self {
        self.capacity = attempts;
        self
    }

    /// Branching factor `W` of the underlying tree (`2 ..= 64`).
    /// Defaults to 64, the paper's `Θ(√(log N / log log N))`-optimal
    /// word-width choice for realistic `N`.
    pub fn branching(mut self, w: usize) -> Self {
        self.branching = w;
        self
    }

    /// Attach an observability sink: every passage of every handle
    /// reports lifecycle events to `probe`. Pass a clone of a shared
    /// sink handle (e.g. [`sal_obs::PassageStats`]) and keep the
    /// original for reading.
    pub fn probe<Q: Probe>(self, probe: Q) -> AbortableMutexBuilder<T, Q> {
        AbortableMutexBuilder {
            value: self.value,
            capacity: self.capacity,
            branching: self.branching,
            probe,
        }
    }

    /// Build the mutex.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is 0 or exceeds 1021 (the algorithm's
    /// descriptor limit of 1022 pids, less the promotion proxy), or if
    /// the branching factor is out of `2 ..= 64`.
    pub fn build(self) -> AbortableMutex<T, P> {
        // One more pid than admitted attempts: the promotion proxy (the
        // lock's descriptor layout takes at most 1022).
        assert!(
            (1..=1021).contains(&self.capacity),
            "capacity not in 1..=1021"
        );
        let core = Core::new(self.capacity + 1, self.branching, self.probe);
        let users = AtomicUsize::new(0);
        AbortableMutex {
            word: AtomicU64::new(sal_core::arena_word::UNLOCKED),
            claimed: AtomicBool::new(false),
            transitions: Transitions::default(),
            seated: Seated { users, core },
            data: OwnLines(UnsafeCell::new(self.value)),
        }
    }
}

/// A mutual-exclusion primitive protecting a `T`, with abortable
/// acquisition, built on the PODC'18 sublogarithmic-RMR abortable lock.
///
/// Unlike `std::sync::Mutex`, threads interact through per-thread
/// [`MutexHandle`]s; obtain one per thread with [`handle`](Self::handle).
/// An uncontended acquisition is one CAS on an inline word; a contended
/// one checks one of the lock core's `capacity` process ids out for its
/// duration, and attempts beyond the capacity wait for one.
///
/// The second type parameter is the attached [`Probe`] sink; the default
/// [`NoProbe`] compiles to the uninstrumented fast path. Configure with
/// [`builder`](Self::builder).
pub struct AbortableMutex<T: ?Sized, P: Probe = NoProbe> {
    word: AtomicU64,
    /// Whether a promotion of `word` holds the resident core.
    claimed: AtomicBool,
    pub(crate) transitions: Transitions,
    /// The resident core, which contended passages enter.
    pub(crate) seated: Seated<T, P>,
    /// The protected value, on cache lines of its own: a critical
    /// section that writes it does not invalidate the word or the core
    /// that the next acquirer spins on.
    pub(crate) data: OwnLines<UnsafeCell<T>>,
}

/// A value on 128-byte-aligned cache lines of its own (two 64-byte
/// lines, which x86's adjacent-line prefetcher fetches as a pair): the
/// fields beside it in a struct never share its lines.
#[repr(align(128))]
pub(crate) struct OwnLines<T: ?Sized>(pub(crate) T);

// Safety: the lock algorithm provides mutual exclusion over `data`
// (Lemma 26 / Theorem 23); handles hand out access only under the lock.
// `P: Probe` is already `Send + Sync`.
unsafe impl<T: ?Sized + Send, P: Probe> Send for AbortableMutex<T, P> {}
unsafe impl<T: ?Sized + Send, P: Probe> Sync for AbortableMutex<T, P> {}

impl<T> AbortableMutex<T> {
    /// Start configuring a mutex around `value` — capacity, branching
    /// and probe are set on the returned [`AbortableMutexBuilder`].
    pub fn builder(value: T) -> AbortableMutexBuilder<T> {
        AbortableMutexBuilder {
            value,
            capacity: DEFAULT_CAPACITY,
            branching: DEFAULT_BRANCHING,
            probe: NoProbe,
        }
    }

    /// Create a mutex for up to [`DEFAULT_CAPACITY`] threads.
    ///
    /// Retained shim, equivalent to `AbortableMutex::builder(value)
    /// .build()` — prefer the [`builder`](Self::builder), which also
    /// exposes capacity, branching and probe attachment.
    pub fn new(value: T) -> Self {
        Self::builder(value).build()
    }
}

impl<T, P: Probe> AbortableMutex<T, P> {
    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.data.0.into_inner()
    }
}

impl<T: ?Sized, P: Probe> AbortableMutex<T, P> {
    /// A handle for the calling thread. Handles are free: each attempt
    /// through one checks a process id out for its own duration.
    pub fn handle(&self) -> MutexHandle<'_, T, P> {
        MutexHandle { mutex: self }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.0.get_mut()
    }

    /// Number of attempts that can be in the lock core at once (the
    /// proxy's pid not counted).
    pub fn capacity(&self) -> usize {
        self.seated.core.lock.capacity() - 1
    }

    /// Shared memory words the lock occupies (the Table-1 space column,
    /// measured).
    pub fn shared_words(&self) -> usize {
        self.seated.core.mem.num_words()
    }

    /// The attached probe sink.
    pub fn probe(&self) -> &P {
        &self.seated.core.probe
    }

    /// Number of waiters in a conditional wait (a `when` request or
    /// [`MutexGuard::await_when`]) on this mutex that no unlock has
    /// notified yet.
    pub fn waiters(&self) -> usize {
        self.seated.core.ccs.waiting()
    }

    /// Snapshot of the conditional-critical-section counters; see
    /// [`CcsStats`] for the headline `wakeups / transitions` ratio.
    pub fn ccs_stats(&self) -> CcsStats {
        self.seated.core.ccs.stats()
    }

    /// The inline word over the resident core.
    #[inline]
    pub(crate) fn word(&self) -> Word<'_, Self> {
        Word {
            word: &self.word,
            data: &self.data.0,
            cores: self,
        }
    }
}

/// A mutex is its own source of cores: a pool of one resident core,
/// claimed through a flag.
impl<T: ?Sized, P: Probe> Cores for AbortableMutex<T, P> {
    type T = T;
    type P = P;
    const REPORTS: bool = true;
    fn claim(&self) -> Option<u32> {
        (!self.claimed.swap(true, Ordering::SeqCst)).then_some(0)
    }
    fn unclaim(&self, _: u32) {
        self.claimed.store(false, Ordering::SeqCst);
    }
    fn seated(&self, _: u32) -> &Seated<T, P> {
        &self.seated
    }
    fn transitions(&self) -> &Transitions {
        &self.transitions
    }
}

impl<T: fmt::Debug, P: Probe> fmt::Debug for AbortableMutex<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbortableMutex")
            .field("capacity", &self.capacity())
            .field("free_pids", &self.seated.core.pids.free())
            .finish_non_exhaustive()
    }
}

impl<T: Default> Default for AbortableMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for AbortableMutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// A per-thread handle to an [`AbortableMutex`]. Obtain with
/// [`AbortableMutex::handle`]; move it to the thread that will use it.
/// Locking takes `&mut self`, so the borrow checker rules out re-entrant
/// acquisition through the same handle.
pub struct MutexHandle<'m, T: ?Sized, P: Probe = NoProbe> {
    mutex: &'m AbortableMutex<T, P>,
}

impl<T: ?Sized, P: Probe> fmt::Debug for MutexHandle<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexHandle").finish_non_exhaustive()
    }
}

impl<'m, T: ?Sized, P: Probe> MutexHandle<'m, T, P> {
    /// Execute `req`: take the inline word with one CAS, or promote it
    /// and check a process id out of the core (parking while all
    /// `capacity` are in use), acquire the lock and, for a
    /// [`when`](Acquire::when) request, wait until the predicate holds
    /// under it. A blocked thread spins on the enter machine, then
    /// parks; unlocks wake it. On `Err` (the limit's [`AbortReason`])
    /// the lock is not held and any id is back. A limit firing after
    /// the lock was handed over does not retract the acquisition (the
    /// paper's `Enter` semantics).
    pub fn acquire<F, S>(
        &mut self,
        req: Acquire<F, S>,
    ) -> Result<MutexGuard<'_, 'm, T, P>, AbortReason>
    where
        F: Predicate<T>,
        S: AbortSignal,
    {
        let hold = self.mutex.word().acquire(&req.pred, req.limit)?;
        Ok(MutexGuard {
            handle: self,
            hold,
            _marker: PhantomData,
        })
    }

    /// Wait as long as it takes: `acquire(Acquire::new())`.
    pub fn lock(&mut self) -> MutexGuard<'_, 'm, T, P> {
        self.acquire(Acquire::new())
            .unwrap_or_else(|_| unreachable!("an unbounded acquisition cannot abort"))
    }

    /// One attempt that gives up once the lock is seen held:
    /// `acquire(Acquire::new().abort_on(Immediate)).ok()`. Against an
    /// inline holder it fails at once, with no seat or promotion in the
    /// core; only its abort report, if the probe records anything,
    /// borrows a pid for a moment.
    pub fn try_lock(&mut self) -> Option<MutexGuard<'_, 'm, T, P>> {
        self.acquire(Acquire::new().abort_on(Immediate)).ok()
    }

    /// `acquire(Acquire::new().until(deadline)).ok()`.
    pub fn try_lock_until(&mut self, deadline: Instant) -> Option<MutexGuard<'_, 'm, T, P>> {
        self.acquire(Acquire::new().until(deadline)).ok()
    }
}

/// RAII guard: the lock is held while the guard lives, released on drop,
/// which also gives back the process id of a contended attempt.
///
/// A panic in the critical section releases the lock too: the drop runs
/// while the panic unwinds, exactly as a normal drop would, and the next
/// acquisition succeeds. Nothing marks the value as possibly left
/// mid-update (there is no poison flag).
///
/// Like `std::sync::MutexGuard`: `Sync` only when `T: Sync` (sharing
/// `&MutexGuard` hands out `&T` across threads), and not `Send` (the
/// guard releases through the per-thread handle it borrows).
pub struct MutexGuard<'h, 'm, T: ?Sized, P: Probe = NoProbe> {
    handle: &'h mut MutexHandle<'m, T, P>,
    hold: Hold,
    /// Suppresses the auto `Send`/`Sync` impls, which would otherwise be
    /// derived from the handle reference and wrongly make the guard
    /// `Sync` for any `T: Send` (unsound for `T = Cell<_>` etc.).
    _marker: PhantomData<*const ()>,
}

// Safety: `&MutexGuard<T>` only exposes `&T` (plus lock bookkeeping that
// is itself thread-safe), so sharing requires exactly `T: Sync`.
unsafe impl<T: ?Sized + Sync, P: Probe> Sync for MutexGuard<'_, '_, T, P> {}

impl<T: ?Sized, P: Probe> Deref for MutexGuard<'_, '_, T, P> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.handle.mutex.data.0.get() }
    }
}

impl<T: ?Sized, P: Probe> DerefMut for MutexGuard<'_, '_, T, P> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.handle.mutex.data.0.get() }
    }
}

impl<T: ?Sized, P: Probe> MutexGuard<'_, '_, T, P> {
    /// Release the lock, wait until `req`'s predicate holds, and
    /// re-acquire (nsync's `Await`); returns at once if it already holds.
    /// The limit bounds the wait, not the re-acquisition: `Err` means it
    /// expired with the predicate false at the final check. The lock is
    /// held on return either way, so the guard stays valid.
    pub fn await_when<F, S>(&mut self, req: Acquire<F, S>) -> Result<(), AbortReason>
    where
        F: Predicate<T>,
        S: AbortSignal,
    {
        let word = self.handle.mutex.word();
        let attempt = Attempt::resume(word, self.hold, &req.pred, req.limit, Some(&mut self.hold));
        attempt.block().map(|hold| self.hold = hold)
    }
}

impl<T: ?Sized, P: Probe> Drop for MutexGuard<'_, '_, T, P> {
    fn drop(&mut self) {
        self.handle.mutex.word().unlock(self.hold);
    }
}

impl<T: ?Sized + fmt::Debug, P: Probe> fmt::Debug for MutexGuard<'_, '_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("MutexGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn the_value_shares_no_cache_line_with_the_word_or_the_core() {
        use std::mem::{offset_of, size_of};
        type M = AbortableMutex<[u64; 8]>;
        assert!(std::mem::align_of::<M>() >= 128);
        // The 128-byte lines a field spans, by its offset and size.
        let lines = |offset: usize, size: usize| (offset / 128, (offset + size - 1) / 128);
        let value = lines(offset_of!(M, data), size_of::<[u64; 8]>());
        let others = [
            lines(offset_of!(M, word), size_of::<AtomicU64>()),
            lines(offset_of!(M, claimed), size_of::<AtomicBool>()),
            lines(offset_of!(M, transitions), size_of::<Transitions>()),
            lines(offset_of!(M, seated), size_of::<Seated<[u64; 8]>>()),
        ];
        for other in others {
            assert!(
                value.1 < other.0 || other.1 < value.0,
                "value lines {value:?} overlap {other:?}"
            );
        }
    }

    #[test]
    fn enter_slots_live_on_cache_lines_of_their_own() {
        assert!(std::mem::align_of::<driver::EnterSlot>() >= 128);
    }

    #[test]
    fn basic_lock_unlock_mutates_data() {
        let m = AbortableMutex::builder(vec![1, 2]).capacity(2).build();
        let mut h = m.handle();
        h.lock().push(3);
        assert_eq!(*h.lock(), vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn counter_integrity_under_real_threads() {
        let m = Arc::new(AbortableMutex::builder(0u64).capacity(9).build());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut h = m.handle();
                    for _ in 0..500 {
                        *h.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut h = m.handle();
        assert_eq!(*h.lock(), 4000);
    }

    #[test]
    fn timeout_abandons_a_held_lock() {
        let m = AbortableMutex::builder(()).capacity(2).build();
        let mut h0 = m.handle();
        let mut h1 = m.handle();
        let _g = h0.lock();
        let start = Instant::now();
        let r = h1.acquire(Acquire::new().within(Duration::from_millis(20)));
        assert_eq!(r.err(), Some(AbortReason::Deadline));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn flag_cancellation_unblocks_a_waiter() {
        let m = Arc::new(AbortableMutex::builder(0u32).capacity(2).build());
        let flag = AbortFlag::new();
        let waiting = Arc::new(AtomicBool::new(false));
        let mut holder = m.handle();
        let g = holder.lock();
        let t = {
            let m = Arc::clone(&m);
            let flag = flag.clone();
            let waiting = Arc::clone(&waiting);
            std::thread::spawn(move || {
                let mut h = m.handle();
                waiting.store(true, Ordering::SeqCst);
                let r = h.acquire(Acquire::new().abort_on(&flag));
                r.err() == Some(AbortReason::Caller)
            })
        };
        while !waiting.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        flag.set();
        assert!(t.join().unwrap(), "waiter should have aborted");
        drop(g);
    }

    #[test]
    fn try_lock_fails_fast_when_held_and_succeeds_when_free() {
        let m = AbortableMutex::builder(()).capacity(3).build();
        let mut a = m.handle();
        let mut b = m.handle();
        {
            let _g = a.lock();
            assert!(b.try_lock().is_none());
        }
        assert!(b.try_lock().is_some());
    }

    #[test]
    fn a_dropped_handle_returns_its_pid() {
        let m = AbortableMutex::builder(0u64).capacity(1).build();
        for _ in 0..3 {
            *m.handle().lock() += 1;
        }
        assert_eq!(m.into_inner(), 3);
    }

    /// Lock through `h` so that the guard holds `m` through its core
    /// with a pid: another thread holds the word inline until our attempt
    /// has promoted it, then hands the lock over through the proxy.
    fn core_held<'h, 'm, T: Send, P: Probe>(
        m: &'m AbortableMutex<T, P>,
        h: &'h mut MutexHandle<'m, T, P>,
    ) -> MutexGuard<'h, 'm, T, P> {
        let held = AtomicBool::new(false);
        let g = std::thread::scope(|s| {
            s.spawn(|| {
                let mut inline = m.handle();
                let g = inline.lock();
                held.store(true, Ordering::SeqCst);
                while m.word.load(Ordering::SeqCst) == sal_core::arena_word::LOCKED_INLINE {
                    std::thread::yield_now();
                }
                drop(g);
            });
            while !held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            h.lock()
        });
        assert_ne!(g.hold, Hold::INLINE, "held through the core");
        g
    }

    /// The state of an idle mutex: the word inline and free, every
    /// admitted pid free, and every promotion demoted again.
    fn assert_idle<T, P: Probe>(m: &AbortableMutex<T, P>) {
        let word = m.word.load(Ordering::SeqCst);
        assert_eq!(word, sal_core::arena_word::UNLOCKED, "the word demoted");
        assert_eq!(m.seated.core.pids.free(), m.capacity(), "a pid leaked");
        let t = &m.transitions;
        let promotions = t.promotions.load(Ordering::Relaxed);
        assert_eq!(promotions, t.demotions.load(Ordering::Relaxed));
    }

    #[test]
    fn an_inline_holder_takes_no_pid() {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        assert_idle(&m);
        let mut h = m.handle();
        let g = h.lock();
        assert_eq!(g.hold, Hold::INLINE);
        assert_eq!(m.seated.core.pids.free(), m.capacity());
        drop(g);
        assert_idle(&m);
        assert_eq!(m.transitions.promotions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_when_request_on_an_inline_hold_materializes_waits_and_demotes() {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let (word, free) = std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let req = Acquire::new().when(|v: &u64| *v > 0);
                *m.handle().acquire(req).unwrap()
            });
            // The waiter registers under the lock and gives its pid back
            // just after; observe, then release it before asserting.
            let deadline = Instant::now() + Duration::from_secs(5);
            let free = || m.seated.core.pids.free();
            while (m.waiters() == 0 || free() < m.capacity()) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let seen = (m.word.load(Ordering::SeqCst), free());
            *m.handle().lock() = 1;
            assert_eq!(waiter.join().unwrap(), 1);
            seen
        });
        let word = sal_core::arena_word::decode(word);
        assert_eq!(word, sal_core::arena_word::WordState::Materialized(0));
        assert_eq!(free, m.capacity(), "the waiter holds no pid");
        assert_idle(&m);
        assert_eq!(m.transitions.promotions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn await_when_on_an_inline_guard_materializes_waits_and_demotes() {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut h = m.handle();
        let mut g = h.lock();
        assert_eq!(g.hold, Hold::INLINE);
        std::thread::scope(|s| {
            s.spawn(|| {
                while m.waiters() == 0 {
                    std::thread::yield_now();
                }
                *m.handle().lock() = 1;
            });
            g.await_when(Acquire::new().when(|v: &u64| *v > 0)).unwrap();
        });
        assert_eq!(*g, 1);
        assert_ne!(g.hold, Hold::INLINE, "it waited in the core");
        drop(g);
        assert_idle(&m);
    }

    #[test]
    fn a_predicate_panicking_after_a_wait_leaves_the_guard_its_current_hold() {
        // Across the wait the guard's hold moves from the inline word to a
        // pid of the core. A predicate that panics under the re-acquired
        // lock must leave the guard that hold, so that its drop releases
        // the lock once, through the right pid.
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        // True for the producer's unlock; a panic for the woken waiter.
        let waiter = std::thread::current().id();
        let pred = |v: &u64| {
            let ours = std::thread::current().id() == waiter;
            assert!(*v == 0 || !ours, "predicate panics");
            *v > 0
        };
        let mut h = m.handle();
        let mut g = h.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                while m.waiters() == 0 {
                    std::thread::yield_now();
                }
                *m.handle().lock() = 1;
            });
            let wait = std::panic::AssertUnwindSafe(|| g.await_when(Acquire::new().when(pred)));
            assert!(std::panic::catch_unwind(wait).is_err());
        });
        assert_eq!(*g, 1, "the guard still holds the lock");
        assert_ne!(g.hold, Hold::INLINE, "through the core");
        drop(g);
        assert_idle(&m);
    }

    #[test]
    fn a_panicking_critical_section_releases_the_lock() {
        // The guard's drop runs on unwind, for an inline hold and a hold
        // through the core alike: the lock is free, the pid back, and
        // the promotion demoted.
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        for (through_core, value) in [(false, 1), (true, 2)] {
            let mut h = m.handle();
            let cs = std::panic::AssertUnwindSafe(|| {
                let mut g = if through_core {
                    core_held(&m, &mut h)
                } else {
                    h.lock()
                };
                assert_eq!(g.hold == Hold::INLINE, !through_core);
                *g += 1;
                panic!("critical section panics");
            });
            assert!(std::panic::catch_unwind(cs).is_err());
            assert_eq!(*m.handle().lock(), value, "the next lock succeeds");
            assert_idle(&m);
        }
    }

    #[test]
    fn a_predicate_panicking_on_the_fast_path_leaves_the_lock_free() {
        // The first check runs under an inline hold that no attempt owns
        // yet: its unwind must release the word.
        let m = AbortableMutex::new(0u64);
        let mut h = m.handle();
        let req = || {
            h.acquire(Acquire::new().when(|_: &u64| panic!("predicate panics")))
                .map(drop)
        };
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(req)).is_err());
        assert!(m.handle().try_lock().is_some(), "the word was released");
        assert_idle(&m);
    }

    #[test]
    fn promotion_races_demotion_under_mixed_attempts() {
        // Three threads, two pids: inline holds, promotions, pid waits,
        // timeouts and failed try_locks interleave, and the last one out
        // of each promotion demotes while others arrive.
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let entered = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..3 {
                let (m, entered) = (&m, &entered);
                s.spawn(move || {
                    let mut h = m.handle();
                    for i in 0..20_000 {
                        let g = match (i + t) % 3 {
                            0 => Some(h.lock()),
                            1 => h.try_lock(),
                            _ => h.try_lock_until(Instant::now() + Duration::from_micros(20)),
                        };
                        if let Some(mut g) = g {
                            *g += 1;
                            entered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_idle(&m);
        assert_eq!(m.into_inner(), entered.into_inner() as u64);
    }

    #[test]
    fn inline_failed_and_promoted_passages_each_report_once() {
        // Each passage reports one begin and one end (or abort): inline
        // ones under the proxy pid, a failed try_lock under a pid checked
        // out for the report, a promoted one under its own pid, and the
        // proxy's exit not at all.
        let stats = sal_obs::PassageStats::new();
        let log = sal_obs::EventLog::new(256);
        let m = AbortableMutex::builder(0u64)
            .capacity(2)
            .probe((stats.clone(), log.clone()))
            .build();
        let tally = || {
            let mut t = [0usize; 4];
            for e in log.events() {
                match e.kind {
                    sal_obs::ObsEventKind::EnterBegin => t[0] += 1,
                    sal_obs::ObsEventKind::EnterEnd(_) => t[1] += 1,
                    sal_obs::ObsEventKind::CsExit => t[2] += 1,
                    sal_obs::ObsEventKind::Abort(_) => t[3] += 1,
                    _ => {}
                }
            }
            t
        };
        let mut a = m.handle();
        let mut b = m.handle();
        drop(a.lock());
        assert_eq!(tally(), [1, 1, 1, 0], "an inline passage");
        let g = a.lock();
        assert!(b.try_lock().is_none());
        drop(g);
        assert_eq!(tally(), [3, 2, 2, 1], "a try_lock failing on the word");
        drop(core_held(&m, &mut a));
        assert_eq!(
            tally(),
            [5, 4, 4, 1],
            "a promoted passage behind an inline one"
        );
        let s = stats.summary();
        assert_eq!((s.entered, s.aborted), (4, 1));
        assert_idle(&m);
    }

    #[test]
    fn a_probe_that_records_nothing_gets_no_inline_reports() {
        // Its hooks would count, but it says it records nothing: no inline
        // passage is reported, and a failed try_lock borrows no pid.
        #[derive(Default)]
        struct Muted(AtomicUsize);
        impl Probe for Muted {
            fn enter_begin(&self, _: sal_memory::Pid) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
            fn enabled(&self) -> bool {
                false
            }
        }
        let m = AbortableMutex::builder(())
            .capacity(2)
            .probe(Muted::default())
            .build();
        let (mut a, mut b) = (m.handle(), m.handle());
        let g = a.lock();
        assert!(b.try_lock().is_none());
        drop(g);
        assert_eq!(m.probe().0.load(Ordering::SeqCst), 0);
        assert_idle(&m);
    }

    #[test]
    fn an_attempt_past_capacity_waits_for_a_pid_under_its_limit() {
        let m = AbortableMutex::builder(()).capacity(1).build();
        let mut a = m.handle();
        let mut b = m.handle();
        let g = core_held(&m, &mut a);
        assert!(b.try_lock().is_none());
        let r = b.acquire(Acquire::new().within(Duration::from_millis(5)));
        assert_eq!(r.err(), Some(AbortReason::Deadline));
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                drop(m.handle().lock());
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(!done.load(Ordering::SeqCst), "finished without a pid");
            drop(g);
        });
        assert!(done.load(Ordering::SeqCst));
    }

    /// Whether some pid's enter slot publishes a wait: an enter waiter
    /// is past its spin phase (a published wait is nonzero).
    fn engaged<T>(m: &AbortableMutex<T>) -> bool {
        m.seated
            .core
            .slots
            .iter()
            .any(|s| s.wait.load(Ordering::SeqCst) != 0)
    }

    #[test]
    fn a_thread_parked_in_the_enter_wait_is_woken_once_through_its_waker() {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut h = m.handle();
        let g = h.lock();
        std::thread::scope(|s| {
            let t = s.spawn(|| *m.handle().lock() += 1);
            while !engaged(&m) {
                std::thread::yield_now();
            }
            drop(g);
            t.join().unwrap();
        });
        assert_eq!(m.seated.core.enter_wakeups.load(Ordering::Relaxed), 1);
        assert_eq!(m.into_inner(), 1);
    }

    /// Run `wait` on a thread until `blocked()` holds, then unpark that
    /// thread every ~100 µs for ~20 ms: it must stay blocked, and finish
    /// once `release` supplies what it waits for.
    fn survives_spurious_unparks(
        wait: impl FnOnce() + Send,
        blocked: impl Fn() -> bool,
        release: impl FnOnce(),
    ) {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                wait();
                done.store(true, Ordering::SeqCst);
            });
            while !blocked() {
                std::thread::yield_now();
            }
            let end = Instant::now() + Duration::from_millis(20);
            while Instant::now() < end {
                t.thread().unpark();
                std::thread::sleep(Duration::from_micros(100));
            }
            assert!(blocked(), "a spurious unpark ended the wait");
            assert!(!done.load(Ordering::SeqCst), "finished before the release");
            release();
            t.join().unwrap();
        });
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn spurious_unparks_do_not_end_a_thread_wait_early() {
        // The pid wait.
        let m = AbortableMutex::builder(0u64).capacity(1).build();
        let mut h = m.handle();
        let g = core_held(&m, &mut h);
        survives_spurious_unparks(
            || drop(m.handle().lock()),
            || m.seated.core.pids.queued() == 1,
            move || drop(g),
        );
        // The enter wait.
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut h = m.handle();
        let g = h.lock();
        survives_spurious_unparks(|| drop(m.handle().lock()), || engaged(&m), move || drop(g));
        // The conditional wait.
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        survives_spurious_unparks(
            || drop(m.handle().acquire(Acquire::new().when(|v: &u64| *v > 0))),
            || m.waiters() == 1,
            || *m.handle().lock() = 1,
        );
    }

    #[test]
    fn capacity_many_cond_waiters_leave_the_producer_a_pid() {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let req = Acquire::new()
                            .when(|v: &u64| *v > 0)
                            .within(Duration::from_secs(1));
                        m.handle().acquire(req).map(|g| *g)
                    })
                })
                .collect();
            while m.waiters() < 2 {
                std::thread::yield_now();
            }
            let req = Acquire::new().within(Duration::from_millis(500));
            *m.handle().acquire(req).expect("no waiter holds a pid") = 1;
            for w in waiters {
                assert_eq!(w.join().unwrap(), Ok(1));
            }
        });
        assert_eq!(m.waiters(), 0);
    }

    #[test]
    fn contended_timed_locking_with_many_threads() {
        let m = Arc::new(AbortableMutex::builder(0u64).capacity(8).build());
        let acquired = Arc::new(AtomicUsize::new(0));
        let aborted = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                let acquired = Arc::clone(&acquired);
                let aborted = Arc::clone(&aborted);
                std::thread::spawn(move || {
                    let mut h = m.handle();
                    for _ in 0..100 {
                        match h.acquire(Acquire::new().within(Duration::from_micros(200))) {
                            Ok(mut g) => {
                                *g += 1;
                                acquired.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = acquired.load(Ordering::Relaxed) as u64;
        let m = Arc::try_unwrap(m).expect("all threads joined");
        assert_eq!(m.into_inner(), total, "every acquisition incremented once");
        assert_eq!(
            acquired.load(Ordering::Relaxed) + aborted.load(Ordering::Relaxed),
            800
        );
    }

    #[test]
    fn debug_and_default_impls() {
        let m: AbortableMutex<u8> = AbortableMutex::default();
        assert!(format!("{m:?}").contains("AbortableMutex"));
        assert_eq!(m.capacity(), DEFAULT_CAPACITY);
        assert!(m.shared_words() > 0);
        let m2: AbortableMutex<u8> = 7u8.into();
        let mut h = m2.handle();
        assert_eq!(*h.lock(), 7);
    }

    #[test]
    fn builder_configures_capacity_and_branching() {
        let narrow = AbortableMutex::builder(()).capacity(4).branching(2).build();
        let wide = AbortableMutex::builder(())
            .capacity(4)
            .branching(64)
            .build();
        assert_eq!(narrow.capacity(), 4);
        // A binary tree over the same leaves needs more words than a
        // 64-ary one.
        assert!(narrow.shared_words() > wide.shared_words());
        let mut h = narrow.handle();
        let _g = h.lock();
    }

    #[test]
    fn line_placement_changes_no_word_count() {
        // `shared_words()` is the Table-1 space column measured: the
        // raw memory's cache-line placement must not move it.
        let words = [1, 4, 64].map(|c| {
            AbortableMutex::builder(())
                .capacity(c)
                .build()
                .shared_words()
        });
        assert_eq!(words, [70, 211, 30_823]);
    }

    #[test]
    fn builder_probe_observes_passages() {
        let stats = sal_obs::PassageStats::new();
        let log = sal_obs::EventLog::new(256);
        let m = AbortableMutex::builder(0u64)
            .capacity(2)
            .probe((stats.clone(), log.clone()))
            .build();
        let mut h = m.handle();
        for _ in 0..3 {
            *h.lock() += 1;
        }
        drop(h.try_lock().expect("uncontended try_lock succeeds"));
        assert_eq!(stats.total_entered(), 4);
        // Raw atomics report no RMR counts — lifecycle is still exact.
        assert!(stats.records().iter().all(|r| r.rmrs == 0 && r.entered));
        let events = log.events();
        let begins = events
            .iter()
            .filter(|e| e.kind == sal_obs::ObsEventKind::EnterBegin)
            .count();
        let exits = events
            .iter()
            .filter(|e| e.kind == sal_obs::ObsEventKind::CsExit)
            .count();
        assert_eq!((begins, exits), (4, 4));
        assert_eq!(m.probe().0.total_entered(), 4);
    }

    #[test]
    fn aborted_attempts_are_recorded_by_the_probe() {
        let stats = sal_obs::PassageStats::new();
        let m = AbortableMutex::builder(())
            .capacity(2)
            .probe(stats.clone())
            .build();
        let mut a = m.handle();
        let mut b = m.handle();
        let g = a.lock();
        assert!(b.try_lock().is_none());
        drop(g);
        let summary = stats.summary();
        assert_eq!(summary.entered, 1);
        assert_eq!(summary.aborted, 1);
    }
}

#[cfg(test)]
mod marker_tests {
    use super::*;

    fn assert_sync<T: Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn auto_trait_bounds_match_std_mutex() {
        // The mutex itself: Send + Sync for T: Send, like std.
        assert_send::<AbortableMutex<std::cell::Cell<u64>>>();
        assert_sync::<AbortableMutex<std::cell::Cell<u64>>>();
        // The guard: Sync requires T: Sync (manual impl); a guard over a
        // Send-but-not-Sync T must NOT be shareable — enforced by the
        // PhantomData suppressor + the T: Sync bound on the unsafe impl.
        assert_sync::<MutexGuard<'static, 'static, u64>>();
        // (A compile-fail check for `MutexGuard<Cell<u64>>: Sync` lives
        // in the doc comment; negative impls aren't testable on stable.)
    }
}
