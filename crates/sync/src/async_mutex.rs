//! [`AsyncAbortableMutex`]: the paper's lock behind poll-based futures,
//! where **dropping a pending lock future runs the bounded abort**.
//!
//! Rust cancels a future by dropping it, which demands that the waiter
//! leave the lock's queue *now* — exactly the paper's bounded abort.
//! Most queue locks degrade cancellation to "acquire, then release";
//! here `Drop` resolves the enter machine with the pre-fired
//! [`Immediate`] signal, which runs the abort path
//! (Tree.remove, rescue, Cleanup) in the dropping thread's own bounded
//! steps (`tests/async_cancellation.rs` checks the ≤ 300-op bound at
//! every cancellation point). [`try_lock`](AsyncAbortableMutex::try_lock)
//! on a contended lock resolves a fresh machine the same way.
//!
//! The mutex is an [`AbortableMutex`] driven by wakers: one future type,
//! [`AcquireFuture`], executes every [`Acquire`] request by polling the
//! crate's one attempt state machine, the one a blocked thread steps, over
//! the same inline word and lock core. Its first poll tries the word: an
//! uncontended lock is one CAS, takes no pid and resolves at once. A
//! future that finds the word held promotes it (the proxy enters the
//! free core solo, so this never blocks) and takes a seat in the core,
//! which it keeps until it resolves or is dropped; the guard of a core
//! acquisition inherits it. From there, three layers.
//!
//! 1. **Pid checkout.** Tasks outnumber pids, so each attempt in the
//!    core checks a pid out of the core's admission (the same one the
//!    blocking surfaces use); futures beyond the capacity queue, and
//!    released pids go straight to the queue head (admission is FIFO and
//!    barge-free).
//! 2. **Enter polling.** Each poll is the core's one engaged poll, the
//!    step a blocked thread takes after its spin phase too: store the
//!    waker, then publish the key of the word the machine reads,
//!    *before* the machine reads it; the unlocker writes the go word
//!    *before* reading the published keys, so either the waiter sees the
//!    word or the unlocker sees the key and the waker. A poll that moves
//!    on to a new key (epoch wait → queue) publishes it and polls again
//!    before it returns pending. An abort that hands the lock on
//!    (Algorithm 3.3's rescue or a `Cleanup` instance switch) wakes
//!    waiters the same way.
//! 3. **Targeted wakes.** An exit reports its handoff: the queue slot it
//!    set, and the epoch when it switched instances. The unlocker wakes
//!    only the waiters whose key it names, so a plain `lock()` future is
//!    woken about once per passage. Epoch waiters woken by a switch
//!    usually go on to queue ([`AsyncStats::futile_enter_wakeups`] counts
//!    those re-parks). A future with a deadline or an abort signal
//!    publishes no key and is woken by every handoff (see below).
//!
//! A `when` request whose predicate is false registers it with its
//! waker, gives back the lock and its pid, and queues for a pid again
//! once unlock-side evaluation ([`crate::ccs`]) fires the waker. Held
//! inline, it first materializes the word with a pid of its own, since
//! the registry lives in the core; its seat keeps the core there while
//! it waits. Only that notification or the limit ends the wait: a poll
//! woken otherwise leaves its latest waker and waits on.
//! [`AsyncMutexGuard::await_when`] runs the same wait from a held guard
//! and resolves to the guard, holding the lock, and whether the
//! predicate held.
//!
//! ## Deadline caveat
//!
//! A limited request (a deadline from [`Acquire::until`] /
//! [`Acquire::within`], or [`Acquire::abort_on`]) checks its limit when
//! *polled*: queued for a pid, it then leaves the queue. So only limited
//! futures are woken on every handoff: while one is queued in the lock,
//! any handoff wakes it (the limit is then honoured on the bounded abort
//! path). Under **zero lock traffic**, or queued for a pid behind other
//! tasks, nothing polls it — pair the future with a timer (e.g.
//! `sal_runtime::executor::sleep_until`) if expiry must be prompt
//! without traffic. The blocking surfaces, which own their thread, do
//! not have this caveat.
//!
//! ```
//! use sal_runtime::executor::block_on;
//! use sal_sync::AsyncAbortableMutex;
//!
//! let m = AsyncAbortableMutex::builder(0u64).capacity(4).build_async();
//! block_on(async {
//!     *m.lock().await += 1;
//! });
//! assert_eq!(m.into_inner(), 1);
//! ```

// Every unsafe block in the waker/guard plumbing must carry a
// `// Safety:` justification.
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::acquire::{Always, Limit, Predicate};
use crate::driver::{Attempt, Hold};
use crate::{AbortableMutex, AbortableMutexBuilder, Acquire, Immediate};
use sal_core::AbortReason;
use sal_memory::{AbortSignal, NeverAbort};
use sal_obs::{NoProbe, Probe};
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll};

/// Counters of the async driver, snapshot via
/// [`AsyncAbortableMutex::stats`]. The CCS counters (shared with the
/// sync path) are separate — [`AsyncAbortableMutex::ccs_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Wakers fired at engaged enter waiters by unlocks and by aborts
    /// that handed the lock on, each at the waiters its handoff names
    /// (compare with `futile_enter_wakeups` for precision).
    pub enter_wakeups: u64,
    /// Woken waiters whose re-poll still pended: mostly epoch waiters
    /// released by an instance switch that then queue, plus limited
    /// futures woken by every handoff.
    pub futile_enter_wakeups: u64,
    /// Futures that found no free pid and queued for admission.
    pub pid_waits: u64,
    /// Pending enter futures that were dropped — each one ran the
    /// bounded abort (or took a just-granted lock and released it).
    pub cancelled_pending: u64,
    /// Size of the pid pool — the most tasks that can contend *inside*
    /// the lock core at once (the promotion proxy's pid not counted).
    /// Tasks beyond this queue for admission.
    pub pool_capacity: usize,
    /// Pids sitting in the free pool at snapshot time. Equals
    /// [`pool_capacity`](Self::pool_capacity) when no attempt or guard
    /// is in the core (an inline guard holds no pid) — the zero-leak
    /// check.
    pub free_pids: usize,
    /// Tasks queued for pid admission at snapshot time (advisory: a
    /// persistently large value means the pool is the bottleneck).
    pub queued_tasks: usize,
}

/// An [`AbortableMutex`] driven by futures instead of blocked threads:
/// awaiting a request suspends the task, dropping a pending future
/// aborts the attempt on the paper's bounded abort path. See the
/// [module docs](self) for the design.
///
/// Any number of tasks may share the mutex: each contended attempt
/// checks a process identity out of the lock core's FIFO admission, so
/// at most `capacity` of them contend inside the core at once and the
/// rest queue for admission.
///
/// ```
/// use sal_runtime::executor::Executor;
/// use sal_sync::AsyncAbortableMutex;
/// use std::sync::Arc;
///
/// let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(4).build_async());
/// let ex = Executor::new();
/// for _ in 0..100 {
///     let m = Arc::clone(&m);
///     ex.spawn(async move {
///         *m.lock().await += 1;
///     });
/// }
/// ex.run(2);
/// assert_eq!(*Arc::try_unwrap(m).unwrap().get_mut(), 100);
/// ```
pub struct AsyncAbortableMutex<T: ?Sized, P: Probe = NoProbe> {
    m: AbortableMutex<T, P>,
}

impl<T, P: Probe> AbortableMutexBuilder<T, P> {
    /// Build an [`AsyncAbortableMutex`] from this configuration (same
    /// capacity / branching / probe knobs as [`build`](Self::build)).
    pub fn build_async(self) -> AsyncAbortableMutex<T, P> {
        AsyncAbortableMutex { m: self.build() }
    }
}

impl<T> AsyncAbortableMutex<T> {
    /// Start configuring: returns the common [`AbortableMutexBuilder`];
    /// finish with [`build_async`](AbortableMutexBuilder::build_async).
    pub fn builder(value: T) -> AbortableMutexBuilder<T> {
        AbortableMutex::builder(value)
    }

    /// An async mutex with default capacity and branching.
    pub fn new(value: T) -> Self {
        Self::builder(value).build_async()
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.m.into_inner()
    }
}

impl<T: ?Sized, P: Probe> AsyncAbortableMutex<T, P> {
    /// Execute `req` as a future: it resolves to the guard (with the
    /// predicate true) or to the limit's [`AbortReason`]. Dropping the
    /// future before it resolves cancels the attempt in a bounded number
    /// of steps (module docs).
    pub fn acquire<F, S>(&self, req: Acquire<F, S>) -> AcquireFuture<'_, T, P, F, S> {
        self.future(req)
    }

    /// Acquire the lock, suspending the task while waiting:
    /// `acquire(Acquire::new())`, resolving to the guard itself.
    pub fn lock(&self) -> AcquireFuture<'_, T, P, Always, NeverAbort, true> {
        self.future(Acquire::new())
    }

    fn future<F, S, const I: bool>(&self, req: Acquire<F, S>) -> AcquireFuture<'_, T, P, F, S, I> {
        AcquireFuture {
            mx: self,
            attempt: Attempt::new(self.m.word(), Box::new(req.pred), req.limit),
        }
    }

    /// One near-immediate attempt, synchronously: `None` if the lock is
    /// held, or if it is contended and all pids are checked out by
    /// in-flight futures. Against a free lock it is one CAS; against an
    /// inline holder it fails at once, without entering the core.
    pub fn try_lock(&self) -> Option<AsyncMutexGuard<'_, T, P>> {
        let hold = self.m.word().acquire(&Always, Limit::Signal(Immediate));
        hold.ok().map(|hold| self.guard(hold))
    }

    /// Tasks admitted into the lock core at once; more queue for
    /// admission.
    pub fn capacity(&self) -> usize {
        self.m.capacity()
    }

    /// Shared memory words the lock occupies.
    pub fn shared_words(&self) -> usize {
        self.m.shared_words()
    }

    /// The attached probe sink.
    pub fn probe(&self) -> &P {
        self.m.probe()
    }

    /// Tasks in a conditional wait that no unlock has notified yet.
    pub fn waiters(&self) -> usize {
        self.m.waiters()
    }

    /// Snapshot of the [`CcsStats`](crate::CcsStats) counters.
    pub fn ccs_stats(&self) -> crate::CcsStats {
        self.m.ccs_stats()
    }

    /// Snapshot of the async driver counters.
    pub fn stats(&self) -> AsyncStats {
        let core = &self.m.seated.core;
        AsyncStats {
            enter_wakeups: core.enter_wakeups.load(Ordering::Relaxed),
            futile_enter_wakeups: core.futile_enter_wakeups.load(Ordering::Relaxed),
            pid_waits: core.pid_waits.load(Ordering::Relaxed),
            cancelled_pending: core.cancelled_pending.load(Ordering::Relaxed),
            pool_capacity: self.m.capacity(),
            free_pids: self.free_pids(),
            queued_tasks: self.queued_tasks(),
        }
    }

    /// Pids in the free pool: [`capacity`](Self::capacity) when nothing
    /// is in the core (the leak check); an inline holder takes none.
    pub fn free_pids(&self) -> usize {
        self.m.seated.core.pids.free()
    }

    /// Tasks queued for pid admission right now.
    pub fn queued_tasks(&self) -> usize {
        self.m.seated.core.pids.queued()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.m.get_mut()
    }

    fn guard(&self, hold: Hold) -> AsyncMutexGuard<'_, T, P> {
        AsyncMutexGuard {
            mx: self,
            hold,
            _marker: PhantomData,
        }
    }
}

impl<T: ?Sized, P: Probe> fmt::Debug for AsyncAbortableMutex<T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncAbortableMutex")
            .field("capacity", &self.capacity())
            .field("free_pids", &self.free_pids())
            .field("queued_tasks", &self.queued_tasks())
            .finish_non_exhaustive()
    }
}

impl<T: Default> Default for AsyncAbortableMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T> From<T> for AsyncAbortableMutex<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

/// The future of every [`AsyncAbortableMutex`] acquisition: the crate's
/// one attempt state machine, stepped with the context's waker.
///
/// [`lock`](AsyncAbortableMutex::lock) futures (`INFALLIBLE`) resolve to
/// the guard, [`acquire`](AsyncAbortableMutex::acquire) futures to a
/// `Result`. The boxed predicate's registered pointer survives a leaked
/// future. Dropping a pending future is a bounded abort.
pub struct AcquireFuture<
    'a,
    T: ?Sized,
    P: Probe = NoProbe,
    F = Always,
    S = NeverAbort,
    const INFALLIBLE: bool = false,
> {
    mx: &'a AsyncAbortableMutex<T, P>,
    attempt: Attempt<'a, AbortableMutex<T, P>, Box<F>, S>,
}

impl<'a, T, P, F, S> Future for AcquireFuture<'a, T, P, F, S, false>
where
    T: ?Sized,
    P: Probe,
    F: Predicate<T>,
    S: AbortSignal + Unpin,
{
    type Output = Result<AsyncMutexGuard<'a, T, P>, AbortReason>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mx = this.mx;
        this.attempt
            .step(cx.waker())
            .map(|r| r.map(|hold| mx.guard(hold)))
    }
}

impl<'a, T, P, F, S> Future for AcquireFuture<'a, T, P, F, S, true>
where
    T: ?Sized,
    P: Probe,
    F: Predicate<T>,
    S: AbortSignal + Unpin,
{
    type Output = AsyncMutexGuard<'a, T, P>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mx = this.mx;
        this.attempt
            .step(cx.waker())
            .map(|r| mx.guard(r.expect("an unbounded acquisition cannot abort")))
    }
}

impl<T: ?Sized, P: Probe, F, S, const I: bool> fmt::Debug for AcquireFuture<'_, T, P, F, S, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AcquireFuture").finish_non_exhaustive()
    }
}

/// RAII guard of the async mutex: the lock is held while the guard
/// lives, released (with unlock-side condition evaluation and a wake
/// for the waiter the lock is handed to) on drop.
///
/// A panic in the critical section releases the lock, as for the sync
/// guard: the drop runs on unwind, gives back any pid and leaves no
/// poison flag.
///
/// Unlike the sync [`MutexGuard`](crate::MutexGuard), this guard is
/// `Send` (for `T: Send`): the hold (inline, or a process identity in
/// the core) is carried explicitly in the guard rather than through a
/// thread-affine handle, and the algorithm keys all per-process state by
/// pid, so an executor may resume the holding task — and hence drop the
/// guard — on any worker thread.
pub struct AsyncMutexGuard<'a, T: ?Sized, P: Probe = NoProbe> {
    mx: &'a AsyncAbortableMutex<T, P>,
    hold: Hold,
    /// Suppresses the auto `Send`/`Sync` impls so the manual ones below
    /// carry exactly the right bounds.
    _marker: PhantomData<*const ()>,
}

// Safety: the guard is morally an `&mut T` plus pid-keyed lock
// bookkeeping; the algorithm is indifferent to which OS thread performs
// a pid's operations, so moving the guard across threads requires
// exactly `T: Send`.
unsafe impl<T: ?Sized + Send, P: Probe> Send for AsyncMutexGuard<'_, T, P> {}
// Safety: `&AsyncMutexGuard<T>` exposes only `&T` (plus thread-safe
// bookkeeping), so sharing requires exactly `T: Sync`.
unsafe impl<T: ?Sized + Sync, P: Probe> Sync for AsyncMutexGuard<'_, T, P> {}

impl<T: ?Sized, P: Probe> Deref for AsyncMutexGuard<'_, T, P> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: we hold the lock.
        unsafe { &*self.mx.m.data.0.get() }
    }
}

impl<T: ?Sized, P: Probe> DerefMut for AsyncMutexGuard<'_, T, P> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.mx.m.data.0.get() }
    }
}

impl<'a, T: ?Sized, P: Probe> AsyncMutexGuard<'a, T, P> {
    /// Release the lock, wait until `req`'s predicate holds, and
    /// re-acquire (nsync's `Await`); resolves at once if it already holds.
    /// The limit bounds the wait, not the re-acquisition: `Err` means it
    /// expired with the predicate false at the final check. The future
    /// resolves to the guard either way, holding the lock; dropped while
    /// pending, it leaves the lock released and no guard behind.
    pub fn await_when<F, S>(
        self,
        req: Acquire<F, S>,
    ) -> impl Future<Output = (Self, Result<(), AbortReason>)>
    where
        F: Predicate<T>,
        S: AbortSignal + Unpin,
    {
        let (mx, hold) = (self.mx, self.hold);
        std::mem::forget(self);
        let pred = Box::new(req.pred);
        let mut attempt = Attempt::resume(mx.m.word(), hold, pred, req.limit, None);
        std::future::poll_fn(move |cx| match attempt.step(cx.waker()) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(hold)) => Poll::Ready((mx.guard(hold), Ok(()))),
            Poll::Ready(Err(r)) => Poll::Ready((mx.guard(attempt.kept()), Err(r))),
        })
    }
}

impl<T: ?Sized, P: Probe> Drop for AsyncMutexGuard<'_, T, P> {
    fn drop(&mut self) {
        self.mx.m.word().unlock(self.hold);
    }
}

impl<T: ?Sized + fmt::Debug, P: Probe> fmt::Debug for AsyncMutexGuard<'_, T, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AsyncMutexGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{publish_code, State, PROXY};
    use sal_core::resume::WaitKey;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::task::{RawWaker, RawWakerVTable, Waker};
    use std::time::Duration;

    /// A waker that counts its wakes (enough to drive futures by hand).
    fn counting_waker(count: &'static AtomicUsize) -> Waker {
        fn vt() -> &'static RawWakerVTable {
            &RawWakerVTable::new(
                |d| RawWaker::new(d, vt()),
                |d| {
                    // Safety: `d` is the `&'static AtomicUsize` stored
                    // by `counting_waker`; it is never deallocated.
                    unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
                },
                |d| {
                    // Safety: as above.
                    unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
                },
                |_| {},
            )
        }
        let raw = RawWaker::new((count as *const AtomicUsize).cast(), vt());
        // Safety: the vtable functions only touch the leaked static.
        unsafe { Waker::from_raw(raw) }
    }

    fn poll_once<F: Future + Unpin>(fut: &mut F, w: &Waker) -> Poll<F::Output> {
        Pin::new(fut).poll(&mut Context::from_waker(w))
    }

    static WAKES: AtomicUsize = AtomicUsize::new(0);

    /// A guard that holds `m` through its core with pid 1: a `lock()`
    /// future promotes the word under an inline holder, which then
    /// hands the lock over through the proxy.
    fn core_held<T>(m: &AsyncAbortableMutex<T>) -> AsyncMutexGuard<'_, T> {
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        drop(g);
        match poll_once(&mut fut, &w) {
            Poll::Ready(g) if g.hold.pid == 1 => g,
            _ => panic!("the handoff resolves the future through the core"),
        }
    }

    #[test]
    fn uncontended_lock_resolves_on_first_poll() {
        let m = AsyncAbortableMutex::builder(5u64).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.lock();
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g) => *g += 1,
            Poll::Pending => panic!("uncontended lock should resolve immediately"),
        }
        drop(fut);
        assert_eq!(m.free_pids(), 2);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn an_idle_mutex_has_every_pid_free_and_an_inline_holder_takes_none() {
        let m = AsyncAbortableMutex::builder(0u64).capacity(3).build_async();
        assert_eq!((m.free_pids(), m.stats().pool_capacity), (3, 3));
        let g = m.try_lock().expect("uncontended");
        assert_eq!(g.hold, Hold::INLINE);
        assert_eq!(
            m.free_pids(),
            m.capacity(),
            "the inline holder holds no pid"
        );
        drop(g);
        drop(core_held(&m));
        assert_eq!(m.free_pids(), m.capacity(), "idle again after a promotion");
    }

    #[test]
    fn promotion_races_demotion_on_two_workers() {
        // Tasks hold the guard across a yield, so a second task always
        // finds the word held: every round promotes, and the last task
        // out of each promotion demotes while others arrive.
        use sal_runtime::executor::Executor;
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if std::mem::replace(&mut self.0, true) {
                    return Poll::Ready(());
                }
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(2).build_async());
        let entered = Arc::new(AtomicUsize::new(0));
        let ex = Executor::new();
        for t in 0..6usize {
            let (m, entered) = (Arc::clone(&m), Arc::clone(&entered));
            ex.spawn(async move {
                for i in 0..300 {
                    let g = match (i + t) % 3 {
                        0 => Some(m.lock().await),
                        1 => m.try_lock(),
                        _ => {
                            let req = Acquire::new().within(Duration::from_micros(50));
                            m.acquire(req).await.ok()
                        }
                    };
                    if let Some(mut g) = g {
                        *g += 1;
                        entered.fetch_add(1, Ordering::Relaxed);
                        YieldOnce(false).await;
                    }
                }
            });
        }
        ex.run(2);
        let t = &m.m.transitions;
        let promotions = t.promotions.load(Ordering::Relaxed);
        assert!(promotions > 0, "held across a yield, the word promotes");
        assert_eq!(promotions, t.demotions.load(Ordering::Relaxed));
        assert_eq!((m.free_pids(), m.queued_tasks()), (2, 0), "nothing leaked");
        let m = Arc::try_unwrap(m).expect("every task finished");
        assert_eq!(m.into_inner(), entered.load(Ordering::Relaxed) as u64);
    }

    #[test]
    fn contended_lock_parks_and_release_wakes() {
        static CONTEND_WAKES: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u64).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        let cw = counting_waker(&CONTEND_WAKES);
        assert!(poll_once(&mut fut, &cw).is_pending());
        assert_eq!(CONTEND_WAKES.load(Ordering::SeqCst), 0);
        drop(g); // hands the lock to the parked waiter, waking it
        assert!(CONTEND_WAKES.load(Ordering::SeqCst) >= 1);
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g2) => *g2 += 1,
            Poll::Pending => panic!("woken waiter should acquire"),
        }
        drop(fut);
        assert_eq!(m.stats().enter_wakeups, 1);
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn the_exit_and_a_flagged_abort_wake_only_the_successor() {
        // Pid 0 holds; a..d queue on tickets 1..4 of the first instance.
        // An abort before any exit rescues nothing and wakes nobody. The
        // holder's exit sets go[1]: it wakes a alone. After it
        // (LastExited = Head = 0), b's abort re-runs SignalNext(0) and
        // sets go[1] again (Algorithm 3.3 line 15): that handoff names a
        // too, and nobody else. a's waker went with the first wake, so
        // the second shows as a's hint flag.
        static A: AtomicUsize = AtomicUsize::new(0);
        static B: AtomicUsize = AtomicUsize::new(0);
        static C: AtomicUsize = AtomicUsize::new(0);
        static D: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u64).capacity(5).build_async();
        let slots = &m.m.seated.core.slots;
        let g = m.try_lock().expect("uncontended");
        let (wa, wb, wc, wd) = (
            counting_waker(&A),
            counting_waker(&B),
            counting_waker(&C),
            counting_waker(&D),
        );
        let (mut a, mut b, mut c, mut d) = (m.lock(), m.lock(), m.lock(), m.lock());
        for (f, w) in [(&mut a, &wa), (&mut b, &wb), (&mut c, &wc), (&mut d, &wd)] {
            assert!(poll_once(f, w).is_pending());
        }
        let wakes = || [&A, &B, &C, &D].map(|n| n.load(Ordering::SeqCst));
        drop(d); // unflagged: nothing handed on
        assert_eq!(m.stats().enter_wakeups, 0);
        drop(g); // the exit sets go[1]
        assert_eq!(wakes(), [1, 0, 0, 0], "the exit wakes a alone");
        assert_eq!(m.stats().enter_wakeups, 1);
        assert!(slots[1].hint.swap(false, Ordering::SeqCst));
        drop(b); // flagged: Head == LastExited, SignalNext(0) rewrites go[1]
        assert!(slots[1].hint.load(Ordering::SeqCst), "b's abort wakes a");
        assert!((2..5).all(|p| !slots[p].hint.load(Ordering::SeqCst)));
        assert_eq!(wakes(), [1, 0, 0, 0], "and never b, c or d");
        assert_eq!(m.stats().enter_wakeups, 1);
        let ga = match poll_once(&mut a, &wa) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("a was handed the lock"),
        };
        drop(ga); // skips b's abandoned slot: go[3] is c's
        assert_eq!(wakes(), [1, 0, 1, 0]);
        assert!(matches!(poll_once(&mut c, &wc), Poll::Ready(_)));
        drop((a, c));
        let s = m.stats();
        assert_eq!((s.enter_wakeups, s.futile_enter_wakeups), (2, 0));
        assert_eq!(m.free_pids(), 5);
    }

    #[test]
    fn a_deadline_is_honoured_under_traffic() {
        // Queued behind a, the deadline future publishes no key: a
        // handoff to a must still wake it, or its expired deadline is
        // never polled again (module docs, "Deadline caveat").
        static A: AtomicUsize = AtomicUsize::new(0);
        static D: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(()).capacity(4).build_async();
        let (wa, wd) = (counting_waker(&A), counting_waker(&D));
        let g = m.try_lock().expect("uncontended");
        let mut a = m.lock();
        let mut d = m.acquire(Acquire::new().within(Duration::from_millis(1)));
        assert!(poll_once(&mut a, &wa).is_pending());
        assert!(poll_once(&mut d, &wd).is_pending());
        std::thread::sleep(Duration::from_millis(3));
        drop(g); // hands the lock to a
        assert_eq!(D.load(Ordering::SeqCst), 1, "the deadline waiter was woken");
        match poll_once(&mut d, &wd) {
            Poll::Ready(Err(AbortReason::Deadline)) => {}
            other => panic!("expected Err(Deadline), got {other:?}"),
        }
        assert!(poll_once(&mut a, &wa).is_ready());
        drop((a, d));
        assert_eq!(m.free_pids(), 4);
    }

    #[test]
    fn an_abort_signal_is_honoured_under_traffic() {
        // The `abort_on` twin of the deadline test above.
        static A: AtomicUsize = AtomicUsize::new(0);
        static D: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(()).capacity(4).build_async();
        let (wa, wd) = (counting_waker(&A), counting_waker(&D));
        let flag = crate::AbortFlag::new();
        let g = m.try_lock().expect("uncontended");
        let mut a = m.lock();
        let mut d = m.acquire(Acquire::new().abort_on(flag.clone()));
        assert!(poll_once(&mut a, &wa).is_pending());
        assert!(poll_once(&mut d, &wd).is_pending());
        flag.set();
        drop(g); // hands the lock to a
        assert_eq!(D.load(Ordering::SeqCst), 1, "the flagged waiter was woken");
        match poll_once(&mut d, &wd) {
            Poll::Ready(Err(AbortReason::Caller)) => {}
            other => panic!("expected Err(Caller), got {other:?}"),
        }
        assert!(poll_once(&mut a, &wa).is_ready());
        drop((a, d));
        assert_eq!(m.free_pids(), 4);
    }

    #[test]
    fn a_poll_across_the_epoch_wait_publishes_each_key() {
        // Pid 1 finishes a passage while pids 0 and 2 keep the first
        // instance alive, so its next attempt waits on the epoch. The
        // exit that switches instances wakes it; its next poll crosses
        // epoch wait → doorway → queue behind pid 2's fresh hold and must
        // publish the queue key before it parks. After every pending
        // poll the published key is the machine's, and the exit that
        // hands it the lock wakes it exactly once. The free list hands
        // out the pid given back longest ago, so pids 3 and 4, which
        // never entered the instance, are checked out before pid 1
        // comes back: the re-entering attempt can then only get pid 1.
        static F: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u64).capacity(4).build_async();
        let core = &m.m.seated.core;
        let w = counting_waker(&WAKES);
        let wf = counting_waker(&F);
        let published = |fut: &AcquireFuture<'_, u64, NoProbe, Always, NeverAbort, true>| {
            let State::Enter { pid, machine, .. } = &fut.attempt.st else {
                panic!("not waiting in the lock");
            };
            let key = machine
                .wait_key()
                .expect("a pending machine waits on a key");
            let wait = core.slots[*pid].wait.load(Ordering::SeqCst);
            (key, wait == publish_code(key))
        };
        let g0 = m.try_lock().expect("uncontended"); // pid 0
        let mut f1 = m.lock(); // pid 1
        let mut f2 = m.lock(); // pid 2
        assert!(poll_once(&mut f1, &w).is_pending());
        assert!(poll_once(&mut f2, &w).is_pending());
        let fresh = [core.pids.try_take(), core.pids.try_take()];
        assert_eq!(fresh, [Some(3), Some(4)], "the fresh pids are checked out");
        drop(g0);
        let Poll::Ready(g1) = poll_once(&mut f1, &w) else {
            panic!("pid 1 was handed the lock");
        };
        drop(g1); // no switch: pid 2 is still in the instance
        let mut f = m.lock(); // pid 1 again, in the same epoch
        assert!(poll_once(&mut f, &wf).is_pending());
        assert_eq!(published(&f), (WaitKey::Epoch, true));
        let Poll::Ready(g2) = poll_once(&mut f2, &w) else {
            panic!("pid 2 was handed the lock");
        };
        drop(g2); // the last one out switches instances
        assert_eq!(
            F.load(Ordering::SeqCst),
            1,
            "the switch wakes the epoch waiter"
        );
        let g = m.try_lock().expect("the fresh instance is free"); // pid 2
        assert!(poll_once(&mut f, &wf).is_pending());
        let (key, exact) = published(&f);
        assert!(matches!(key, WaitKey::Slot { ticket: 1, .. }), "{key:?}");
        assert!(exact, "the queue key is published before parking");
        drop(g);
        assert_eq!(F.load(Ordering::SeqCst), 2, "the handoff wakes it once");
        assert!(poll_once(&mut f, &wf).is_ready());
        drop((f, f1, f2));
        fresh
            .into_iter()
            .flatten()
            .for_each(|pid| core.pids.put(pid));
        let s = m.stats();
        assert_eq!(s.futile_enter_wakeups, 1, "only the epoch release");
        assert_eq!(m.free_pids(), 4);
    }

    #[test]
    fn alternating_tasks_rotate_pids_past_the_epoch_wait() {
        // Two tasks on one worker, each holding the lock across one
        // yield, so the other queues behind it in the core. Task 0
        // re-locks at once after every unlock; task 1 does so every
        // other round and idles for three yields in between, so the
        // core drains (an instance switch, then a demotion) now and
        // then. A task that re-locks at once while the other is in the
        // instance gets the pid given back longest ago, which has not
        // entered the live instance, so no attempt waits at the epoch.
        // Handing back the pid it had just given up made 60 epoch waits
        // in these 150 core passages.
        use sal_obs::PassageStats;
        use sal_runtime::executor::Executor;
        struct YieldNow(bool);
        impl Future for YieldNow {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if std::mem::replace(&mut self.0, true) {
                    return Poll::Ready(());
                }
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        const ROUNDS: usize = 150;
        let m = AsyncAbortableMutex::builder(0usize)
            .capacity(4)
            .probe(PassageStats::new())
            .build_async();
        let m = Arc::new(m);
        let ex = Executor::new();
        for idles in [[0, 0], [0, 3]] {
            let m = Arc::clone(&m);
            ex.spawn(async move {
                for round in 0..ROUNDS {
                    let mut g = m.lock().await;
                    *g += 1;
                    YieldNow(false).await;
                    drop(g);
                    for _ in 0..idles[round % 2] {
                        YieldNow(false).await;
                    }
                }
            });
        }
        ex.run(1);
        let records = m.probe().records();
        let core_passages = records.iter().filter(|r| r.entered && r.pid != PROXY);
        let core_passages = core_passages.count();
        assert!(core_passages >= 100, "{core_passages} core passages");
        let paths = m.m.seated.core.lock.stats();
        assert!(paths.switches > 0, "{paths:?}");
        assert_eq!(paths.spin_waits, 0, "{paths:?}");
        assert_eq!(m.free_pids(), 4);
        assert_eq!(*m.try_lock().expect("idle"), 2 * ROUNDS);
    }

    #[test]
    fn a_panicking_critical_section_releases_the_lock() {
        // As for the sync guard: the drop runs on unwind, inline or
        // through the core.
        let m = AsyncAbortableMutex::builder(0u64).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        for (through_core, value) in [(false, 1), (true, 2)] {
            let cs = std::panic::AssertUnwindSafe(|| {
                let mut g = if through_core {
                    core_held(&m)
                } else {
                    m.try_lock().expect("uncontended")
                };
                assert_eq!(g.hold == Hold::INLINE, !through_core);
                *g += 1;
                panic!("critical section panics");
            });
            assert!(std::panic::catch_unwind(cs).is_err());
            let Poll::Ready(g) = poll_once(&mut m.lock(), &w) else {
                panic!("the next lock succeeds at once");
            };
            assert_eq!(*g, value);
            drop(g);
            assert_eq!((m.free_pids(), m.queued_tasks()), (m.capacity(), 0));
        }
    }

    #[test]
    fn dropping_a_pending_future_aborts_and_frees_the_pid() {
        let m = AsyncAbortableMutex::builder(()).capacity(3).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.free_pids(), 2, "the inline holder owns no pid");
        drop(fut); // cancellation = bounded abort
        assert_eq!(m.free_pids(), 3);
        assert_eq!(m.stats().cancelled_pending, 1);
        drop(g);
        assert_eq!(m.free_pids(), 3);
        // The mutex still works.
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn pid_exhaustion_queues_tasks_fifo() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(1).build_async();
        let w = counting_waker(&WAKES);
        let g = core_held(&m); // takes the only pid
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.queued_tasks(), 1);
        assert_eq!(m.stats().pid_waits, 1);
        drop(g); // hands the pid to the queued future
        match poll_once(&mut fut, &w) {
            Poll::Ready(mut g2) => *g2 += 1,
            Poll::Pending => panic!("granted pid should let the waiter in"),
        }
        drop(fut);
        assert_eq!(m.queued_tasks(), 0);
        assert_eq!(m.into_inner(), 1);
    }

    #[test]
    fn stats_snapshot_pool_occupancy_with_tasks_beyond_capacity() {
        // 1 holder + 1 in-lock waiter exhaust a capacity-2 pool; six
        // more suspended attempts sit in the admission queue. The
        // occupancy snapshot must see all of it.
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = core_held(&m);
        let mut futs: Vec<_> = (0..7).map(|_| m.lock()).collect();
        for fut in &mut futs {
            assert!(poll_once(fut, &w).is_pending());
        }
        let s = m.stats();
        assert_eq!(s.pool_capacity, 2);
        assert_eq!(s.free_pids, 0, "holder + one waiter own both pids");
        assert_eq!(s.queued_tasks, 6, "excess attempts queue for admission");
        drop(futs);
        drop(g);
        let s = m.stats();
        assert_eq!(s.free_pids, s.pool_capacity, "no pid leaked");
        assert_eq!(s.queued_tasks, 0);
    }

    #[test]
    fn deadline_future_errs_once_expired() {
        let m = AsyncAbortableMutex::builder(()).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.acquire(Acquire::new().within(Duration::from_millis(5)));
        assert!(poll_once(&mut fut, &w).is_pending());
        std::thread::sleep(Duration::from_millis(10));
        match poll_once(&mut fut, &w) {
            Poll::Ready(Err(AbortReason::Deadline)) => {}
            other => panic!("expected deadline abort, got {other:?}"),
        }
        drop(g);
        assert_eq!(m.free_pids(), 2);
    }

    #[test]
    fn abort_flag_cancels_a_parked_future() {
        let m = AsyncAbortableMutex::builder(()).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let flag = crate::AbortFlag::new();
        let mut fut = m.acquire(Acquire::new().abort_on(flag.clone()));
        assert!(poll_once(&mut fut, &w).is_pending());
        flag.set();
        match poll_once(&mut fut, &w) {
            Poll::Ready(Err(AbortReason::Caller)) => {}
            other => panic!("expected caller abort, got {other:?}"),
        }
        drop(g);
    }

    #[test]
    fn lock_when_waits_for_the_predicate() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.acquire(Acquire::new().when(|v: &u32| *v >= 3));
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.waiters(), 1);
        // Two transitions that don't satisfy it, one that does.
        for _ in 0..3 {
            let mut g = m.try_lock().expect("lock free while waiter parked");
            *g += 1;
        }
        match poll_once(&mut fut, &w) {
            Poll::Ready(Ok(g)) => assert_eq!(*g, 3),
            _ => panic!("satisfied predicate should admit the waiter"),
        }
        assert_eq!(m.waiters(), 0);
    }

    #[test]
    fn a_cond_waiter_holds_no_pid_and_dropping_it_deregisters() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.acquire(Acquire::new().when(|v: &u32| *v > 0));
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!((m.waiters(), m.free_pids()), (1, 2));
        drop(fut);
        assert_eq!((m.waiters(), m.free_pids()), (0, 2));
    }

    #[test]
    fn capacity_many_cond_waiters_leave_every_pid_free() {
        static CW: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u32).capacity(3).build_async();
        let w = counting_waker(&CW);
        let mut futs: Vec<_> = (0..3)
            .map(|_| m.acquire(Acquire::new().when(|v: &u32| *v > 0)))
            .collect();
        for fut in &mut futs {
            assert!(poll_once(fut, &w).is_pending());
        }
        assert_eq!((m.waiters(), m.free_pids()), (3, 3));
        let mut g = m.try_lock().expect("the producer gets a pid and the lock");
        *g = 1;
        drop(g);
        assert_eq!(CW.load(Ordering::SeqCst), 3, "the unlock wakes all three");
        for fut in &mut futs {
            match poll_once(fut, &w) {
                Poll::Ready(Ok(g)) => assert_eq!(*g, 1),
                _ => panic!("a woken waiter whose predicate holds resolves"),
            }
        }
        drop(futs);
        assert_eq!((m.waiters(), m.free_pids()), (0, 3));
    }

    #[test]
    fn a_spurious_poll_of_a_cond_waiter_neither_locks_nor_registers_again() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.acquire(Acquire::new().when(|v: &u32| *v > 0));
        assert!(poll_once(&mut fut, &w).is_pending());
        let before = m.ccs_stats();
        assert_eq!((before.waits, m.waiters()), (1, 1));
        // Woken by hand, not by a notification: the wait goes on.
        for _ in 0..3 {
            assert!(poll_once(&mut fut, &w).is_pending());
        }
        assert_eq!(m.ccs_stats(), before, "no re-acquisition, no new wait");
        assert_eq!((m.waiters(), m.free_pids()), (1, 2));
        *m.try_lock().expect("the waiter holds no lock") = 1;
        assert!(matches!(poll_once(&mut fut, &w), Poll::Ready(Ok(g)) if *g == 1));
        assert_eq!(m.ccs_stats().waits, 1);
    }

    #[test]
    fn a_cond_waiter_is_notified_through_its_latest_waker() {
        static OLD: AtomicUsize = AtomicUsize::new(0);
        static NEW: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let mut fut = m.acquire(Acquire::new().when(|v: &u32| *v > 0));
        assert!(poll_once(&mut fut, &counting_waker(&OLD)).is_pending());
        // The task moved: its next poll brings another waker.
        let new = counting_waker(&NEW);
        assert!(poll_once(&mut fut, &new).is_pending());
        *m.try_lock().expect("the waiter holds no lock") = 1;
        let wakes = [&OLD, &NEW].map(|n| n.load(Ordering::SeqCst));
        assert_eq!(wakes, [0, 1], "the notification fires the new waker");
        assert!(matches!(poll_once(&mut fut, &new), Poll::Ready(Ok(_))));
    }

    #[test]
    fn await_when_is_satisfied_by_a_producer_and_keeps_the_guard() {
        static C: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&C);
        let g = m.try_lock().expect("uncontended");
        let mut fut = std::pin::pin!(g.await_when(Acquire::new().when(|v: &u32| *v > 0)));
        assert!(fut.as_mut().poll(&mut Context::from_waker(&w)).is_pending());
        assert_eq!(m.waiters(), 1, "it waits with the lock given back");
        *m.try_lock().expect("the consumer released the lock") = 1;
        assert_eq!(
            C.load(Ordering::SeqCst),
            1,
            "the producer's unlock wakes it"
        );
        let Poll::Ready((g, r)) = fut.as_mut().poll(&mut Context::from_waker(&w)) else {
            panic!("a notified consumer whose predicate holds resolves");
        };
        assert_eq!((*g, r), (1, Ok(())));
        assert!(m.try_lock().is_none(), "the guard holds the lock");
        drop(g);
        assert_eq!((m.free_pids(), m.waiters()), (2, 0));
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn await_when_on_executor_tasks() {
        use sal_runtime::executor::Executor;
        let m = Arc::new(AsyncAbortableMutex::builder(0u32).capacity(2).build_async());
        let ex = Executor::new();
        let consumer = {
            let m = Arc::clone(&m);
            async move {
                let g = m.lock().await;
                let (g, r) = g.await_when(Acquire::new().when(|v: &u32| *v == 3)).await;
                assert_eq!((*g, r), (3, Ok(())));
            }
        };
        ex.spawn(consumer);
        for _ in 0..3 {
            let m = Arc::clone(&m);
            ex.spawn(async move { *m.lock().await += 1 });
        }
        ex.run(2);
        assert_eq!((m.free_pids(), m.waiters()), (2, 0));
    }

    #[test]
    fn an_expired_await_when_resolves_holding_the_lock() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut g = m.try_lock().expect("uncontended");
        *g = 7;
        // Long enough that the first poll comes before the deadline.
        let req = Acquire::new()
            .when(|v: &u32| *v == 0)
            .within(Duration::from_millis(50));
        let mut fut = std::pin::pin!(g.await_when(req));
        assert!(fut.as_mut().poll(&mut Context::from_waker(&w)).is_pending());
        std::thread::sleep(Duration::from_millis(60));
        let Poll::Ready((g, r)) = fut.as_mut().poll(&mut Context::from_waker(&w)) else {
            panic!("an expired limit resolves the future");
        };
        assert_eq!((*g, r), (7, Err(AbortReason::Deadline)));
        assert!(m.try_lock().is_none(), "resolved holding the lock");
        drop(g);
        assert_eq!((m.free_pids(), m.waiters()), (2, 0));
    }

    #[test]
    fn a_dropped_await_when_future_leaves_the_lock_free() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        // Never polled: the future still holds the guard's lock.
        let g = m.try_lock().expect("uncontended");
        drop(g.await_when(Acquire::new().when(|v: &u32| *v > 0)));
        assert!(m.try_lock().is_some(), "dropping it released the lock");
        // Pending in the conditional wait: the lock is already free.
        let g = m.try_lock().expect("uncontended");
        let mut fut = Box::pin(g.await_when(Acquire::new().when(|v: &u32| *v > 0)));
        assert!(fut.as_mut().poll(&mut Context::from_waker(&w)).is_pending());
        drop(fut);
        assert_eq!((m.waiters(), m.free_pids()), (0, 2));
        assert!(m.try_lock().is_some(), "no guard released it again");
    }

    #[test]
    fn a_release_that_unwinds_leaves_no_registration_behind() {
        // The wait's release registers its predicate, exits, then wakes a
        // satisfied waiter whose waker panics. The unwinding attempt must
        // own that registration and withdraw it, or the registry keeps a
        // pointer to the predicate its future frees.
        fn panicking_waker() -> Waker {
            fn vt() -> &'static RawWakerVTable {
                &RawWakerVTable::new(
                    |d| RawWaker::new(d, vt()),
                    |_| panic!("waker panics"),
                    |_| panic!("waker panics"),
                    |_| {},
                )
            }
            // Safety: no vtable function reads the (null) data pointer.
            unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), vt())) }
        }
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let mut first = m.acquire(Acquire::new().when(|v: &u32| *v == 1));
        assert!(poll_once(&mut first, &panicking_waker()).is_pending());
        let mut g = m.try_lock().expect("the waiter holds no lock");
        *g = 1;
        let mut wait = Box::pin(g.await_when(Acquire::new().when(|v: &u32| *v == 2)));
        let w = counting_waker(&WAKES);
        let poll = || wait.as_mut().poll(&mut Context::from_waker(&w));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(poll)).is_err());
        drop(wait);
        assert_eq!(m.waiters(), 0, "the unwound wait withdrew its registration");
        drop(first);
        assert!(m.try_lock().is_some(), "the lock was released once");
    }

    #[test]
    fn a_limit_expiring_while_queued_for_a_pid_resolves_the_future() {
        let m = AsyncAbortableMutex::builder(()).capacity(1).build_async();
        let w = counting_waker(&WAKES);
        let g = core_held(&m); // takes the only pid
        let mut fut = m.acquire(Acquire::new().within(Duration::from_millis(5)));
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.queued_tasks(), 1);
        std::thread::sleep(Duration::from_millis(20));
        match poll_once(&mut fut, &w) {
            Poll::Ready(Err(AbortReason::Deadline)) => {}
            other => panic!("expected Err(Deadline), got {other:?}"),
        }
        assert_eq!(m.queued_tasks(), 0);
        drop(g);
        assert_eq!(m.free_pids(), 1, "no grant went to the dead ticket");
    }

    #[test]
    fn guard_is_send_and_futures_are_send() {
        fn assert_send<X: Send>() {}
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send::<AsyncMutexGuard<'static, u64>>();
        assert_send_sync::<AcquireFuture<'static, u64, NoProbe, Always, NeverAbort, true>>();
        assert_send_sync::<AcquireFuture<'static, u64>>();
        assert_send::<AsyncAbortableMutex<u64>>();
        fn await_when_future<X: Send + Sync>(_: &X) {}
        let m = AsyncAbortableMutex::new(0u64);
        let g = m.try_lock().expect("uncontended");
        await_when_future(&g.await_when(Acquire::new().when(|v: &u64| *v == 0)));
    }
}
