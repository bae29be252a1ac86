//! A dependency-free mini-executor for driving lock futures in tests
//! and benches.
//!
//! `sal_sync::AsyncAbortableMutex` is sans-IO: its futures know nothing
//! about threads or timers, they only ask to be re-polled. Something
//! has to do the polling, and the workspace is offline (no tokio), so
//! this module ships the minimal driver:
//!
//! * [`block_on`] — run one future to completion on the current thread
//!   (`std::thread::park` based), for straight-line tests;
//! * [`Executor`] — a FIFO task queue drained by a caller-chosen number
//!   of worker threads, the same worker shape as the [`crate::pool`]
//!   job pool but re-polling tasks instead of running jobs once: spawn
//!   futures with [`Executor::spawn`], drain them with
//!   [`Executor::run`]. Tasks are re-queued by their wakers, so 10 000
//!   tasks interleave over 4 workers — the tasks ≫ threads shape the
//!   async mutex exists for;
//! * [`sleep_until`] / [`sleep`] — a timer future serviced by one
//!   lazily-started global timer thread, so deadline-bound waits can be
//!   woken without lock traffic.
//!
//! Wakers are hand-rolled over `Arc` reference counting (the
//! [`RawWakerVTable`] dance); each `unsafe` block carries its
//! obligation as a `// SAFETY:` comment, enforced by the
//! `clippy::undocumented_unsafe_blocks` lint this module opts into.
//!
//! ## Scheduling behaviour
//!
//! The run queue is a global FIFO: a woken task goes to the back, so
//! ready tasks make progress in wake order and none starves. A task is
//! never polled concurrently from two workers (a QUEUED/RUNNING/
//! NOTIFIED state machine serializes polls; a wake arriving mid-poll
//! re-queues the task at the end of the poll instead of being lost). A
//! completed task is DONE for good: a straggler wake through a waker
//! some other task kept is dropped, so no task completes twice.
//!
//! A wake makes no system call unless a worker sleeps. The run queue
//! and a count of sleeping workers share one mutex: a worker that finds
//! the queue empty counts itself before it waits on the condvar, and
//! an enqueue signals the condvar only when the count is nonzero. A
//! worker about to sleep therefore either sees the new task or is
//! already counted when the enqueuer looks, so no wakeup is lost and the
//! workers' wait needs no timeout. The completion that ends the last
//! task takes the same mutex before it wakes every sleeper, so a worker
//! that saw live tasks is asleep by then and hears it.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::{Duration, Instant};

/// Anything that can be woken through an `Arc`: the one trait both the
/// executor's tasks and `block_on`'s thread parker implement, so one
/// vtable construction serves every waker in the module.
trait ArcWake: Send + Sync + 'static {
    fn wake_by_ref(arc_self: &Arc<Self>);
}

/// The [`RawWakerVTable`] for an `Arc<W>`-backed waker. The `&` on a
/// `const fn`-constructed value is promoted to `'static`, which is what
/// lets one generic function mint vtables per concrete `W`.
const fn vtable<W: ArcWake>() -> &'static RawWakerVTable {
    &RawWakerVTable::new(
        clone_arc::<W>,
        wake_arc::<W>,
        wake_by_ref_arc::<W>,
        drop_arc::<W>,
    )
}

fn raw_waker<W: ArcWake>(w: Arc<W>) -> RawWaker {
    RawWaker::new(Arc::into_raw(w).cast::<()>(), vtable::<W>())
}

/// Build a [`Waker`] that calls `W::wake_by_ref` on the given `Arc`.
fn waker<W: ArcWake>(w: Arc<W>) -> Waker {
    // SAFETY: the RawWaker contract is upheld by the four vtable
    // functions below: `data` is always an `Arc<W>` raw pointer with
    // one reference count owned by the waker; clone bumps the count,
    // wake/drop consume it, wake_by_ref borrows it.
    unsafe { Waker::from_raw(raw_waker(w)) }
}

unsafe fn clone_arc<W: ArcWake>(data: *const ()) -> RawWaker {
    // SAFETY: `data` came from `Arc::into_raw` in `raw_waker`, so it is
    // a valid `Arc<W>` pointer; `increment_strong_count` manufactures
    // the extra count the cloned waker will own.
    unsafe { Arc::increment_strong_count(data.cast::<W>()) };
    RawWaker::new(data, vtable::<W>())
}

unsafe fn wake_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: consumes the count owned by this waker (wake-by-value
    // drops the waker), reconstructing the Arc it was minted from.
    let arc = unsafe { Arc::from_raw(data.cast::<W>()) };
    W::wake_by_ref(&arc);
}

unsafe fn wake_by_ref_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: borrows the Arc without consuming the waker's count;
    // `ManuallyDrop` keeps the count owned by the waker intact.
    let arc = std::mem::ManuallyDrop::new(unsafe { Arc::from_raw(data.cast::<W>()) });
    W::wake_by_ref(&arc);
}

unsafe fn drop_arc<W: ArcWake>(data: *const ()) {
    // SAFETY: releases the count owned by the dropped waker.
    drop(unsafe { Arc::from_raw(data.cast::<W>()) });
}

/// Task poll-state: not queued, not running, no pending wake.
const IDLE: u8 = 0;
/// In the run queue, awaiting a worker.
const QUEUED: u8 = 1;
/// A worker is polling the future right now.
const RUNNING: u8 = 2;
/// A wake arrived while RUNNING: the worker re-queues after the poll.
const NOTIFIED: u8 = 3;
/// The future completed: terminal, wakes are ignored, so a completed
/// task is never queued (or counted) again.
const DONE: u8 = 4;

/// One spawned future plus its scheduling state.
struct Task {
    /// The future, present while the task is alive. The Mutex is
    /// uncontended by construction (the state machine admits one poller
    /// at a time); it exists to make `Task: Sync` without unsafe.
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send + 'static>>>>,
    state: AtomicU8,
    shared: Arc<Shared>,
}

impl ArcWake for Task {
    fn wake_by_ref(arc_self: &Arc<Self>) {
        loop {
            match arc_self.state.load(Ordering::Acquire) {
                IDLE => {
                    if arc_self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        arc_self.shared.enqueue(Arc::clone(arc_self));
                        return;
                    }
                }
                RUNNING => {
                    if arc_self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already flagged, or completed: the
                // wake coalesces (or is a straggler and is dropped).
                _ => return,
            }
        }
    }
}

/// The run queue and the workers asleep on it, under one mutex so an
/// enqueue cannot miss a worker that is going to sleep.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on `Shared::cv`.
    sleepers: usize,
}

/// State shared between the executor handle, its workers and all task
/// wakers.
struct Shared {
    queue: Mutex<Queue>,
    /// Workers park here when the queue is empty but tasks are live.
    cv: Condvar,
    /// Spawned minus completed tasks; `run` returns at zero.
    live: AtomicUsize,
}

impl Shared {
    fn enqueue(&self, task: Arc<Task>) {
        let mut q = self.queue.lock().unwrap();
        q.tasks.push_back(task);
        let sleepers = q.sleepers;
        drop(q);
        // A notify enters the kernel even when nobody waits, so signal
        // only a counted sleeper: it released the mutex inside `wait`,
        // after which a notify reaches it.
        if sleepers > 0 {
            self.cv.notify_one();
        }
    }
}

/// A FIFO multi-worker future executor; see the module docs.
///
/// ```
/// use sal_runtime::executor::Executor;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let ex = Executor::new();
/// let hits = Arc::new(AtomicU64::new(0));
/// for _ in 0..100 {
///     let hits = Arc::clone(&hits);
///     ex.spawn(async move {
///         hits.fetch_add(1, Ordering::Relaxed);
///     });
/// }
/// ex.run(4);
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct Executor {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("live", &self.shared.live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// A fresh executor with an empty task queue.
    pub fn new() -> Self {
        Executor {
            shared: Arc::new(Shared {
                queue: Mutex::default(),
                cv: Condvar::new(),
                live: AtomicUsize::new(0),
            }),
        }
    }

    /// Queue a future as a task. Tasks only make progress inside
    /// [`run`](Self::run).
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(fut))),
            state: AtomicU8::new(QUEUED),
            shared: Arc::clone(&self.shared),
        });
        self.shared.enqueue(task);
    }

    /// Drain the queue on `workers` threads until every spawned task
    /// has completed, then return. Tasks may [`spawn`](Self::spawn)
    /// further tasks through a clone of the handle. `workers == 1` is
    /// valid (single-threaded cooperative scheduling, still on a
    /// separate thread from the caller's).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`, and propagates the first worker panic
    /// (a panicking task poisons the task mutex and aborts the drain).
    pub fn run(&self, workers: usize) {
        assert!(workers > 0, "executor needs at least one worker");
        std::thread::scope(|s| {
            for _ in 0..workers {
                let shared = Arc::clone(&self.shared);
                s.spawn(move || worker_loop(&shared));
            }
        });
    }

    /// Clone the spawn handle (e.g. to spawn from inside tasks).
    pub fn handle(&self) -> Executor {
        Executor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of spawned tasks that have not completed yet.
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if shared.live.load(Ordering::SeqCst) == 0 {
                    return;
                }
                q.sleepers += 1;
                q = shared.cv.wait(q).unwrap();
                q.sleepers -= 1;
            }
        };
        task.state.store(RUNNING, Ordering::Release);
        let mut slot = task.future.lock().unwrap();
        let fut = slot.as_mut().expect("a completed task is never re-queued");
        let w = waker(Arc::clone(&task));
        let done = fut.as_mut().poll(&mut Context::from_waker(&w)).is_ready();
        if done {
            *slot = None; // drop the future eagerly
        }
        drop(slot);
        if done {
            // Terminal: a wake racing this poll, or any later straggler,
            // finds DONE and is dropped, so the task is counted once.
            task.state.store(DONE, Ordering::Release);
            if shared.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                // A worker reads `live` under the queue mutex and holds
                // it until it waits, so once we hold the mutex every
                // worker that saw a live task is waiting and hears this.
                let _q = shared.queue.lock().unwrap();
                shared.cv.notify_all();
            }
        } else {
            match task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {}
                Err(_) => {
                    // NOTIFIED: a wake raced our poll — re-queue.
                    task.state.store(QUEUED, Ordering::Release);
                    shared.enqueue(task);
                }
            }
        }
    }
}

/// `block_on`'s thread parker.
struct ThreadNotify {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl ArcWake for ThreadNotify {
    fn wake_by_ref(arc_self: &Arc<Self>) {
        arc_self.notified.store(true, Ordering::Release);
        arc_self.thread.unpark();
    }
}

/// Run `fut` to completion on the current thread, parking between
/// polls. The entry point for straight-line async tests:
///
/// ```
/// use sal_runtime::executor::block_on;
///
/// assert_eq!(block_on(async { 6 * 7 }), 42);
/// ```
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let notify = Arc::new(ThreadNotify {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let w = waker(Arc::clone(&notify));
    let mut cx = Context::from_waker(&w);
    // SAFETY: `fut` lives on this stack frame for the whole function
    // and is never moved after this pin (only the pinned reference is
    // used below).
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !notify.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

/// The global timer service: one lazily-started thread parks until the
/// earliest registered deadline and fires the due wakers. Shared by
/// every [`Sleep`] in the process (tests and benches never need more).
struct TimerService {
    /// One waker per registered [`Sleep`], keyed by its deadline and a
    /// process-unique id, so the first key is the next to fire.
    entries: Mutex<BTreeMap<(Instant, u64), Waker>>,
    cv: Condvar,
}

fn timer() -> &'static TimerService {
    static TIMER: OnceLock<&'static TimerService> = OnceLock::new();
    TIMER.get_or_init(|| {
        let svc: &'static TimerService = Box::leak(Box::new(TimerService {
            entries: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
        }));
        std::thread::Builder::new()
            .name("sal-timer".into())
            .spawn(move || timer_loop(svc))
            .expect("spawn timer thread");
        svc
    })
}

fn timer_loop(svc: &'static TimerService) {
    let mut entries = svc.entries.lock().unwrap();
    loop {
        let now = Instant::now();
        let mut due = Vec::new();
        while let Some(entry) = entries.first_entry() {
            if entry.key().0 > now {
                break;
            }
            due.push(entry.remove());
        }
        if !due.is_empty() {
            drop(entries);
            for w in due {
                w.wake();
            }
            entries = svc.entries.lock().unwrap();
            continue;
        }
        entries = match entries.keys().next() {
            Some(&(next, _)) => {
                let wait = next.saturating_duration_since(now);
                svc.cv.wait_timeout(entries, wait).unwrap().0
            }
            None => svc.cv.wait(entries).unwrap(),
        };
    }
}

/// Future of [`sleep_until`]: pending until the deadline passes.
#[derive(Debug)]
pub struct Sleep {
    deadline: Instant,
    /// The timer entry's key once a poll has registered one.
    key: Option<(Instant, u64)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        let svc = timer();
        let mut entries = svc.entries.lock().unwrap();
        // A re-poll replaces the waker in place: the timer only removes
        // an entry once its deadline has passed, and ours has not.
        if let Some(w) = self.key.and_then(|key| entries.get_mut(&key)) {
            w.clone_from(cx.waker());
            return Poll::Pending;
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let key = (self.deadline, NEXT_ID.fetch_add(1, Ordering::Relaxed));
        // The timer sleeps until its earliest deadline, so only a new
        // earliest one needs to wake it.
        let earliest = entries.keys().next().is_none_or(|first| key < *first);
        entries.insert(key, cx.waker().clone());
        drop(entries);
        self.key = Some(key);
        if earliest {
            svc.cv.notify_one();
        }
        Poll::Pending
    }
}

/// A future that completes once `deadline` passes, woken by the global
/// timer thread (no lock traffic required). Useful for giving
/// deadline-bound lock futures a poll at their deadline — the
/// `AsyncAbortableMutex` docs discuss when that matters.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep {
        deadline,
        key: None,
    }
}

/// [`sleep_until`] with a relative duration.
pub fn sleep(dur: Duration) -> Sleep {
    sleep_until(Instant::now() + dur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;

    /// `ex.run(workers)` on a thread of its own, failing the test if it
    /// has not returned within 10 s: a lost wakeup leaves a worker
    /// asleep, which hangs the drain instead of failing it.
    fn run_within(ex: &Executor, workers: usize) {
        let (tx, rx) = mpsc::channel();
        let runner = ex.handle();
        let thread = std::thread::spawn(move || {
            runner.run(workers);
            let _ = tx.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(10)) {
            panic!("run({workers}) did not return: a wakeup was lost");
        }
        thread.join().expect("run panicked");
    }

    #[test]
    fn block_on_returns_the_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_survives_pending_polls() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = u32;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                if self.0 {
                    Poll::Ready(99)
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        assert_eq!(block_on(YieldOnce(false)), 99);
    }

    #[test]
    fn executor_drains_tasks_across_workers() {
        for workers in [1, 4] {
            let ex = Executor::new();
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..500 {
                let hits = Arc::clone(&hits);
                ex.spawn(async move {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            ex.run(workers);
            assert_eq!(hits.load(Ordering::Relaxed), 500);
            assert_eq!(ex.live(), 0);
        }
    }

    #[test]
    fn tasks_can_spawn_tasks() {
        let ex = Executor::new();
        let hits = Arc::new(AtomicU64::new(0));
        let handle = ex.handle();
        let inner_hits = Arc::clone(&hits);
        ex.spawn(async move {
            for _ in 0..10 {
                let hits = Arc::clone(&inner_hits);
                handle.spawn(async move {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        ex.run(2);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn sleep_wakes_without_traffic() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));

        // And inside the executor.
        let ex = Executor::new();
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            ex.spawn(async move {
                sleep(Duration::from_millis(5)).await;
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        ex.run(2);
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_straggler_wake_of_a_completed_task_is_ignored() {
        // Task A leaves its waker behind and completes; task B then fires
        // it and yields. Counting A's completion twice would wrap `live`
        // and `run` would never return, so `run_within` fails the test
        // instead of hanging it.
        struct LeaveWaker(Arc<Mutex<Option<Waker>>>);
        impl Future for LeaveWaker {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                *self.0.lock().unwrap() = Some(cx.waker().clone());
                Poll::Ready(())
            }
        }
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
        let ex = Executor::new();
        let left: Arc<Mutex<Option<Waker>>> = Arc::default();
        ex.spawn(LeaveWaker(Arc::clone(&left)));
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = Arc::clone(&done);
            ex.spawn(async move {
                let w = left.lock().unwrap().take().expect("task A ran first");
                w.wake();
                for _ in 0..3 {
                    YieldNow(false).await;
                }
                done.store(true, Ordering::SeqCst);
            });
        }
        run_within(&ex, 1);
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(ex.live(), 0);
    }

    #[test]
    fn wakes_racing_a_poll_are_not_lost() {
        // A future woken from another thread while the executor is
        // mid-poll must be re-polled, not stranded.
        let ex = Executor::new();
        let flag = Arc::new(AtomicBool::new(false));
        struct WaitFlag(Arc<AtomicBool>);
        impl Future for WaitFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.load(Ordering::Acquire) {
                    Poll::Ready(())
                } else {
                    let flag = Arc::clone(&self.0);
                    let w = cx.waker().clone();
                    // Fire the condition + wake from another thread at
                    // an adversarial moment.
                    std::thread::spawn(move || {
                        flag.store(true, Ordering::Release);
                        w.wake();
                    });
                    Poll::Pending
                }
            }
        }
        ex.spawn(WaitFlag(Arc::clone(&flag)));
        ex.run(2);
        assert!(flag.load(Ordering::Acquire));
    }

    #[test]
    fn a_foreign_thread_and_a_task_ping_pong_while_the_workers_sleep() {
        // The ball says whose turn it is: the task plays odd values and
        // a plain OS thread plays even ones. Each turn the thread waits
        // until both workers sleep before it serves, so every one of the
        // task's 2,000 wakes must reach a sleeping worker.
        const TURNS: u64 = 2_000;
        struct Table {
            ball: u64,
            task: Option<Waker>,
        }
        let table = Arc::new((
            Mutex::new(Table {
                ball: 0,
                task: None,
            }),
            Condvar::new(),
        ));
        let ex = Executor::new();
        {
            let table = Arc::clone(&table);
            ex.spawn(async move {
                for turn in 0..TURNS {
                    std::future::poll_fn(|cx| {
                        let mut t = table.0.lock().unwrap();
                        if t.ball == 2 * turn + 1 {
                            Poll::Ready(())
                        } else {
                            t.task = Some(cx.waker().clone());
                            Poll::Pending
                        }
                    })
                    .await;
                    table.0.lock().unwrap().ball += 1;
                    table.1.notify_one();
                }
            });
        }
        let shared = Arc::clone(&ex.shared);
        let player = std::thread::spawn(move || {
            let (lock, cv) = &*table;
            for turn in 0..TURNS {
                drop(cv.wait_while(lock.lock().unwrap(), |t| t.ball != 2 * turn));
                while shared.queue.lock().unwrap().sleepers < 2 {
                    std::thread::yield_now();
                }
                let mut t = lock.lock().unwrap();
                t.ball += 1;
                let w = t.task.take().expect("the task waits with its waker left");
                drop(t);
                w.wake();
            }
        });
        run_within(&ex, 2);
        player.join().expect("the foreign thread panicked");
    }

    #[test]
    fn executors_whose_last_tasks_finish_on_different_workers_return() {
        // Two tasks meet at a barrier, so each holds a worker of its
        // own, and then finish. In even rounds the second one finishes
        // only once the other worker sleeps, so the completion that
        // ends the run must wake it; odd rounds leave the race to chance.
        for round in 0..200 {
            let ex = Executor::new();
            let both_running = Arc::new(Barrier::new(2));
            for last in [false, true] {
                let both_running = Arc::clone(&both_running);
                let shared = Arc::clone(&ex.shared);
                ex.spawn(async move {
                    both_running.wait();
                    if last && round % 2 == 0 {
                        while shared.queue.lock().unwrap().sleepers == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            run_within(&ex, 2);
            assert_eq!(ex.live(), 0);
        }
    }

    #[test]
    fn a_repolled_sleep_keeps_one_entry_and_wakes_once() {
        /// Counts its wakes and unparks the thread that made it.
        struct CountWake {
            wakes: AtomicUsize,
            thread: std::thread::Thread,
        }

        impl CountWake {
            fn new() -> Arc<Self> {
                Arc::new(CountWake {
                    wakes: AtomicUsize::new(0),
                    thread: std::thread::current(),
                })
            }
        }

        impl ArcWake for CountWake {
            fn wake_by_ref(arc_self: &Arc<Self>) {
                arc_self.wakes.fetch_add(1, Ordering::SeqCst);
                arc_self.thread.unpark();
            }
        }

        let counted = CountWake::new();
        let w = waker(Arc::clone(&counted));
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut s = sleep_until(deadline);
        for _ in 0..1_000 {
            assert!(Pin::new(&mut s)
                .poll(&mut Context::from_waker(&w))
                .is_pending());
        }
        let entries = || {
            let all = timer().entries.lock().unwrap();
            all.values().filter(|e| e.will_wake(&w)).count()
        };
        assert_eq!(entries(), 1);
        // The timer fires in deadline order, so once a later sentinel
        // has been woken every wake of `s` has been made.
        let sentinel = CountWake::new();
        let sw = waker(Arc::clone(&sentinel));
        let mut later = sleep_until(deadline + Duration::from_millis(1));
        assert!(Pin::new(&mut later)
            .poll(&mut Context::from_waker(&sw))
            .is_pending());
        while sentinel.wakes.load(Ordering::SeqCst) == 0 {
            std::thread::park();
        }
        assert_eq!(counted.wakes.load(Ordering::SeqCst), 1);
        assert_eq!(entries(), 0);
    }
}
