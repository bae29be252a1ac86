//! [`AsyncAbortableMutex`]: the paper's lock behind poll-based futures,
//! where **dropping a pending lock future runs the bounded abort**.
//!
//! Rust cancels a future by dropping it, which demands that the waiter
//! leave the lock's queue *now* — exactly the paper's bounded abort.
//! Most queue locks degrade cancellation to "acquire, then release";
//! here `Drop` resolves the enter machine with the pre-fired
//! [`Immediate`](crate::Immediate) signal, which runs the abort path
//! (Tree.remove, rescue, Cleanup) in the dropping thread's own bounded
//! steps (`tests/async_cancellation.rs` checks the ≤ 300-op bound at
//! every cancellation point). [`try_lock`](AsyncAbortableMutex::try_lock)
//! resolves a fresh machine the same way.
//!
//! The mutex is an [`AbortableMutex`] driven by wakers: one future type,
//! [`AcquireFuture`], executes every [`Acquire`] request over the same
//! lock core, in three layers.
//!
//! 1. **Pid checkout.** Tasks outnumber pids, so a FIFO pool hands each
//!    attempt a pid; futures beyond the capacity queue, and released pids
//!    go straight to the queue head (admission is FIFO and barge-free).
//! 2. **Enter polling.** Each poll advances the enter machine. The future
//!    stores its waker, then publishes the key of the word the machine
//!    reads, *before* the machine reads it; the unlocker writes the go
//!    word *before* reading the published keys, so either the waiter sees
//!    the word or the unlocker sees the key and the waker. A poll that
//!    moves on to a new key (epoch wait → queue) publishes it and polls
//!    again before it parks. An abort that hands the lock on (Algorithm
//!    3.3's rescue or a `Cleanup` instance switch) wakes waiters the same
//!    way.
//! 3. **Targeted wakes.** An exit reports its handoff: the queue slot it
//!    set, and the epoch when it switched instances. The unlocker wakes
//!    only the waiters whose key it names, so a plain `lock()` future is
//!    woken about once per passage. Epoch waiters woken by a switch
//!    usually go on to queue ([`AsyncStats::futile_enter_wakeups`] counts
//!    those re-parks). A future with a deadline or an abort signal
//!    publishes no key and is woken by every handoff (see below).
//!
//! A `when` request registers its predicate in the pid's slot, and
//! unlock-side evaluation ([`WakePolicy`](crate::WakePolicy)) fires its
//! waker instead of an unpark.
//!
//! ## Deadline caveat
//!
//! A limited request (a deadline from [`Acquire::until`] /
//! [`Acquire::within`], or [`Acquire::abort_on`]) checks its limit when
//! *polled*. So only limited futures are woken on every handoff: while
//! one is queued in the lock, any handoff wakes it (the limit is then
//! honoured on the bounded abort path). Under **zero lock traffic**
//! nothing polls it — pair the future with a timer (e.g.
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
use crate::driver::{publish_code, ANY};
use crate::{AbortableMutex, AbortableMutexBuilder, Acquire};
use sal_core::resume::{EnterMachine, EnterStep};
use sal_core::AbortReason;
use sal_memory::{AbortSignal, NeverAbort, Pid};
use sal_obs::{NoProbe, Probe};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// A task waiting for a pid: granted pids go to the ticket directly,
/// keeping admission FIFO; the grantor skips cancelled tickets.
struct PidTicket {
    state: Mutex<TicketState>,
}

enum TicketState {
    /// In the queue; the waker (if any) is fired on grant.
    Waiting(Option<Waker>),
    /// A releaser handed this ticket a pid; the future consumes it on
    /// its next poll (or releases it from `Drop` if cancelled first).
    Granted(Pid),
    /// Consumed or cancelled — the ticket is dead either way.
    Dead,
}

impl PidTicket {
    /// Take the granted pid if one arrived, else re-arm the waker.
    fn poll_granted(&self, waker: &Waker) -> Option<Pid> {
        let mut st = self.state.lock().unwrap();
        match *st {
            TicketState::Granted(pid) => {
                *st = TicketState::Dead;
                Some(pid)
            }
            TicketState::Waiting(_) => {
                *st = TicketState::Waiting(Some(waker.clone()));
                None
            }
            TicketState::Dead => unreachable!("pid ticket polled after death"),
        }
    }

    /// Cancel from `Drop`; returns a pid that must be put back if the
    /// grant raced the cancellation.
    fn cancel(&self) -> Option<Pid> {
        let mut st = self.state.lock().unwrap();
        match std::mem::replace(&mut *st, TicketState::Dead) {
            TicketState::Granted(pid) => Some(pid),
            TicketState::Waiting(_) | TicketState::Dead => None,
        }
    }
}

/// The pid freelist + FIFO admission queue. Invariant: the free list
/// and the live portion of the queue are never both non-empty (a
/// release grants to the queue head before feeding the free list), so
/// a fresh future popping the free list cannot barge past queued ones.
struct PidPool {
    inner: Mutex<PoolInner>,
}

struct PoolInner {
    free: Vec<Pid>,
    queue: VecDeque<Arc<PidTicket>>,
}

impl PidPool {
    fn new(capacity: usize) -> Self {
        PidPool {
            inner: Mutex::new(PoolInner {
                // Reversed so `pop` hands out pid 0 first (cosmetic).
                free: (0..capacity).rev().collect(),
                queue: VecDeque::new(),
            }),
        }
    }

    /// Non-waiting checkout (`try_lock`).
    fn try_checkout(&self) -> Option<Pid> {
        self.inner.lock().unwrap().free.pop()
    }

    /// Checkout a pid now, or join the admission queue.
    fn checkout_or_enqueue(&self, waker: &Waker) -> Result<Pid, Arc<PidTicket>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(pid) = inner.free.pop() {
            return Ok(pid);
        }
        let ticket = Arc::new(PidTicket {
            state: Mutex::new(TicketState::Waiting(Some(waker.clone()))),
        });
        inner.queue.push_back(Arc::clone(&ticket));
        Err(ticket)
    }

    /// Return `pid` to the first live queued ticket (its waker fires
    /// outside the pool lock), else to the free list.
    fn release(&self, pid: Pid) {
        let waker = {
            let mut inner = self.inner.lock().unwrap();
            let mut granted = None;
            while let Some(ticket) = inner.queue.pop_front() {
                let mut st = ticket.state.lock().unwrap();
                match &mut *st {
                    TicketState::Dead => continue,
                    TicketState::Waiting(w) => {
                        let w = w.take();
                        *st = TicketState::Granted(pid);
                        granted = Some(w);
                        break;
                    }
                    TicketState::Granted(_) => {
                        unreachable!("queued ticket already holds a pid")
                    }
                }
            }
            match granted {
                Some(w) => w,
                None => {
                    inner.free.push(pid);
                    None
                }
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    fn free_len(&self) -> usize {
        self.inner.lock().unwrap().free.len()
    }

    fn queued(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner
            .queue
            .iter()
            .filter(|t| matches!(*t.state.lock().unwrap(), TicketState::Waiting(_)))
            .count()
    }
}

#[derive(Default)]
struct StatsInner {
    pid_waits: AtomicU64,
    cancelled_pending: AtomicU64,
}

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
    /// the lock at once. Tasks beyond this queue for admission.
    pub pool_capacity: usize,
    /// Pids sitting in the free pool at snapshot time. Equals
    /// [`pool_capacity`](Self::pool_capacity) when no attempt or guard
    /// is in flight — the zero-leak check.
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
/// Tasks need no per-thread registration (unlike [`AbortableMutex`]'s
/// handles): process identities are checked out from an internal FIFO
/// pool per attempt, so any number of tasks may share the mutex — at
/// most `capacity` of them contend inside the lock at once, the rest
/// queue for admission.
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
    pids: PidPool,
    stats: StatsInner,
    m: AbortableMutex<T, P>,
}

impl<T, P: Probe> AbortableMutexBuilder<T, P> {
    /// Build an [`AsyncAbortableMutex`] from this configuration (same
    /// capacity / branching / wake-policy / probe knobs as
    /// [`build`](Self::build)).
    pub fn build_async(self) -> AsyncAbortableMutex<T, P> {
        let m = self.build();
        AsyncAbortableMutex {
            pids: PidPool::new(m.capacity()),
            stats: StatsInner::default(),
            m,
        }
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
            pred: Box::new(req.pred),
            limit: req.limit,
            st: State::Fresh,
            woken: false,
        }
    }

    /// One near-immediate attempt, synchronously: `None` if the lock is
    /// held *or* all pids are checked out by in-flight futures.
    pub fn try_lock(&self) -> Option<AsyncMutexGuard<'_, T, P>> {
        let pid = self.pids.try_checkout()?;
        let core = &self.m.core;
        if core.resolve_now(pid, &mut core.begin(pid)) {
            return Some(self.guard(pid));
        }
        self.pids.release(pid);
        None
    }

    /// Tasks admitted into the lock at once; more queue for admission.
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

    /// The configured [`WakePolicy`](crate::WakePolicy).
    pub fn wake_policy(&self) -> crate::WakePolicy {
        self.m.wake_policy()
    }

    /// Tasks currently registered in a conditional wait.
    pub fn waiters(&self) -> usize {
        self.m.waiters()
    }

    /// Snapshot of the [`CcsStats`](crate::CcsStats) counters.
    pub fn ccs_stats(&self) -> crate::CcsStats {
        self.m.ccs_stats()
    }

    /// Snapshot of the async driver counters.
    pub fn stats(&self) -> AsyncStats {
        let core = &self.m.core;
        AsyncStats {
            enter_wakeups: core.enter_wakeups.load(Ordering::Relaxed),
            futile_enter_wakeups: core.futile_enter_wakeups.load(Ordering::Relaxed),
            pid_waits: self.stats.pid_waits.load(Ordering::Relaxed),
            cancelled_pending: self.stats.cancelled_pending.load(Ordering::Relaxed),
            pool_capacity: self.m.capacity(),
            free_pids: self.pids.free_len(),
            queued_tasks: self.pids.queued(),
        }
    }

    /// Pids in the free pool: [`capacity`](Self::capacity) when nothing
    /// is in flight (the leak check).
    pub fn free_pids(&self) -> usize {
        self.pids.free_len()
    }

    /// Tasks queued for pid admission right now.
    pub fn queued_tasks(&self) -> usize {
        self.pids.queued()
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.m.get_mut()
    }

    fn guard(&self, pid: Pid) -> AsyncMutexGuard<'_, T, P> {
        AsyncMutexGuard {
            mx: self,
            pid,
            _marker: PhantomData,
        }
    }

    fn start_enter(&self, pid: Pid) -> State {
        State::Enter {
            pid,
            machine: self.m.core.begin(pid),
        }
    }

    /// Release the lock and return the pid to the pool.
    fn unlock(&self, pid: Pid) {
        self.m.core.release(pid, &self.m.data);
        self.pids.release(pid);
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

/// Progress of one attempt: not yet polled (no footprint), queued for
/// a pid, driving the enter machine (dropping from here is the
/// bounded-abort obligation), registered in a conditional wait with the
/// lock released, or resolved.
enum State {
    Fresh,
    PidWait(Arc<PidTicket>),
    Enter { pid: Pid, machine: EnterMachine },
    CondWait { pid: Pid },
    Done,
}

/// The future of every [`AsyncAbortableMutex`] acquisition.
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
    pred: Box<F>,
    limit: Limit<S>,
    st: State,
    /// Whether the last conditional wait ended in a notification
    /// (futile-wakeup accounting, as on the blocking path).
    woken: bool,
}

impl<T, P, F, S, const I: bool> AcquireFuture<'_, T, P, F, S, I>
where
    T: ?Sized,
    P: Probe,
    F: Predicate<T>,
    S: AbortSignal,
{
    /// Advance by one poll. `Ready(Ok(pid))`: the lock is held by `pid`
    /// with the predicate true. `Ready(Err)`: nothing is held any more.
    fn step(&mut self, cx: &mut Context<'_>) -> Poll<Result<Pid, AbortReason>> {
        let mx = self.mx;
        let core = &mx.m.core;
        loop {
            match &mut self.st {
                State::Fresh => match mx.pids.checkout_or_enqueue(cx.waker()) {
                    Ok(pid) => self.st = mx.start_enter(pid),
                    Err(ticket) => {
                        mx.stats.pid_waits.fetch_add(1, Ordering::Relaxed);
                        self.st = State::PidWait(ticket);
                        return Poll::Pending;
                    }
                },
                State::PidWait(ticket) => match ticket.poll_granted(cx.waker()) {
                    Some(pid) => self.st = mx.start_enter(pid),
                    None => return Poll::Pending,
                },
                State::CondWait { pid } => {
                    let pid = *pid;
                    self.woken = core.ccs.deregister(pid);
                    // Re-acquire within this poll.
                    self.st = mx.start_enter(pid);
                }
                State::Enter { pid, machine } => {
                    let pid = *pid;
                    let slot = &core.ccs.slots[pid];
                    let hinted = slot.hint.swap(false, Ordering::SeqCst);
                    // Waker stored, then the wait published, before each
                    // poll reads its go word (module docs §2–3).
                    slot.set_waker(cx.waker());
                    let exact = matches!(self.limit, Limit::Forever);
                    let step = loop {
                        let code = match machine.wait_key() {
                            Some(key) if exact => publish_code(key),
                            _ => ANY,
                        };
                        core.publish(pid, code);
                        match core.poll(machine, pid, &self.limit) {
                            EnterStep::Pending(key) if exact && publish_code(key) != code => {}
                            step => break step,
                        }
                    };
                    if step.pending() {
                        if hinted {
                            core.futile_enter_wakeups.fetch_add(1, Ordering::Relaxed);
                        }
                        return Poll::Pending;
                    }
                    core.disengage(pid);
                    self.st = State::Done;
                    if !core.settle(pid, step) {
                        mx.pids.release(pid);
                        return Poll::Ready(Err(self.limit.reason()));
                    }
                    // Safety: we hold the lock, so the protected value is
                    // stable under the predicate.
                    if self.pred.holds(unsafe { &*mx.m.data.get() }) {
                        return Poll::Ready(Ok(pid));
                    }
                    if self.woken {
                        core.ccs.note_futile();
                    }
                    if let Some(r) = self.limit.expired() {
                        mx.unlock(pid);
                        return Poll::Ready(Err(r));
                    }
                    // Register under the lock (no transition can be
                    // missed), leave the waker, then release.
                    core.ccs.register(pid, &*self.pred);
                    slot.set_waker(cx.waker());
                    core.ccs.note_wait();
                    core.release(pid, &mx.m.data);
                    self.st = State::CondWait { pid };
                    return Poll::Pending;
                }
                State::Done => panic!("lock future polled after completion"),
            }
        }
    }
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
        this.step(cx).map(|r| r.map(|pid| mx.guard(pid)))
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
        this.step(cx)
            .map(|r| mx.guard(r.expect("an unbounded acquisition cannot abort")))
    }
}

impl<T: ?Sized, P: Probe, F, S, const I: bool> Drop for AcquireFuture<'_, T, P, F, S, I> {
    fn drop(&mut self) {
        let mx = self.mx;
        let core = &mx.m.core;
        match std::mem::replace(&mut self.st, State::Done) {
            State::Fresh | State::Done => {}
            State::PidWait(ticket) => {
                if let Some(pid) = ticket.cancel() {
                    mx.pids.release(pid);
                }
            }
            State::CondWait { pid } => {
                core.ccs.deregister(pid);
                mx.pids.release(pid);
            }
            State::Enter { pid, mut machine } => {
                // Cancellation is the paper's abort: one poll with the
                // pre-fired signal either takes a lock handed over in
                // the race window (release it) or runs the whole abort.
                core.disengage(pid);
                core.ccs.slots[pid].hint.store(false, Ordering::SeqCst);
                mx.stats.cancelled_pending.fetch_add(1, Ordering::Relaxed);
                if core.resolve_now(pid, &mut machine) {
                    mx.unlock(pid);
                } else {
                    mx.pids.release(pid);
                }
            }
        }
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
/// Unlike the sync [`MutexGuard`](crate::MutexGuard), this guard is
/// `Send` (for `T: Send`): the process identity is carried explicitly
/// in the guard rather than through a thread-affine handle, and the
/// algorithm keys all per-process state by pid, so an executor may
/// resume the holding task — and hence drop the guard — on any worker
/// thread.
pub struct AsyncMutexGuard<'a, T: ?Sized, P: Probe = NoProbe> {
    mx: &'a AsyncAbortableMutex<T, P>,
    pid: Pid,
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
        unsafe { &*self.mx.m.data.get() }
    }
}

impl<T: ?Sized, P: Probe> DerefMut for AsyncMutexGuard<'_, T, P> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the lock exclusively.
        unsafe { &mut *self.mx.m.data.get() }
    }
}

impl<T: ?Sized, P: Probe> Drop for AsyncMutexGuard<'_, T, P> {
    fn drop(&mut self) {
        self.mx.unlock(self.pid);
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
    use sal_core::resume::WaitKey;
    use std::sync::atomic::AtomicUsize;
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
        let slots = &m.m.core.ccs.slots;
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
        // hands it the lock wakes it exactly once.
        static F: AtomicUsize = AtomicUsize::new(0);
        let m = AsyncAbortableMutex::builder(0u64).capacity(4).build_async();
        let core = &m.m.core;
        let w = counting_waker(&WAKES);
        let wf = counting_waker(&F);
        let published = |fut: &AcquireFuture<'_, u64, NoProbe, Always, NeverAbort, true>| {
            let State::Enter { pid, machine } = &fut.st else {
                panic!("not waiting in the lock");
            };
            let key = machine
                .wait_key()
                .expect("a pending machine waits on a key");
            let wait = core.ccs.slots[*pid].wait.load(Ordering::SeqCst);
            (key, wait == publish_code(key))
        };
        let g0 = m.try_lock().expect("uncontended"); // pid 0
        let mut f1 = m.lock(); // pid 1
        let mut f2 = m.lock(); // pid 2
        assert!(poll_once(&mut f1, &w).is_pending());
        assert!(poll_once(&mut f2, &w).is_pending());
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
        let s = m.stats();
        assert_eq!(s.futile_enter_wakeups, 1, "only the epoch release");
        assert_eq!(m.free_pids(), 4);
    }

    #[test]
    fn dropping_a_pending_future_aborts_and_frees_the_pid() {
        let m = AsyncAbortableMutex::builder(()).capacity(3).build_async();
        let w = counting_waker(&WAKES);
        let g = m.try_lock().expect("uncontended");
        let mut fut = m.lock();
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!(m.free_pids(), 1);
        drop(fut); // cancellation = bounded abort
        assert_eq!(m.free_pids(), 2);
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
        let g = m.try_lock().expect("takes the only pid");
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
        let g = m.try_lock().expect("uncontended");
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
    fn dropping_a_cond_waiter_deregisters_and_frees_the_pid() {
        let m = AsyncAbortableMutex::builder(0u32).capacity(2).build_async();
        let w = counting_waker(&WAKES);
        let mut fut = m.acquire(Acquire::new().when(|v: &u32| *v > 0));
        assert!(poll_once(&mut fut, &w).is_pending());
        assert_eq!((m.waiters(), m.free_pids()), (1, 1));
        drop(fut);
        assert_eq!((m.waiters(), m.free_pids()), (0, 2));
    }

    #[test]
    fn guard_is_send_and_futures_are_send() {
        fn assert_send<X: Send>() {}
        assert_send::<AsyncMutexGuard<'static, u64>>();
        assert_send::<AcquireFuture<'static, u64, NoProbe, Always, NeverAbort, true>>();
        assert_send::<AcquireFuture<'static, u64>>();
        assert_send::<AsyncAbortableMutex<u64>>();
    }
}
