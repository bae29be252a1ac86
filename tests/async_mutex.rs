//! Async surface tests: `AsyncAbortableMutex` driven by the
//! `sal-runtime` mini-executor (many tasks over few worker threads) and
//! by hand-rolled polls where determinism matters.
//!
//! The marquee properties, in paper terms:
//!
//! * **Counter integrity** — thousands of tasks time-slicing over a few
//!   workers still see mutual exclusion (no lost updates).
//! * **Cancellation = bounded abort** — dropping a pending `lock()`
//!   future against a held lock costs a bounded number of the dropping
//!   task's own shared-memory steps, measured by probe op counters at
//!   N ∈ {4, 8, 16} exactly like the sync deadline tests.
//! * **Cancellation storms leak nothing** — after 10 000 futures are
//!   dropped mid-flight, every pid is back in the pool, no conditional
//!   registration lingers, and the lock still works.

use sal_obs::PassageStats;
use sal_runtime::executor::{block_on, sleep, Executor};
use sal_sync::{AbortReason, Acquire, AsyncAbortableMutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

/// A no-op waker for hand-driven polls.
fn noop_waker() -> Waker {
    fn vt() -> &'static RawWakerVTable {
        &RawWakerVTable::new(|d| RawWaker::new(d, vt()), |_| {}, |_| {}, |_| {})
    }
    // SAFETY: every vtable entry ignores its data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), vt())) }
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(&noop_waker()))
}

/// Returns `Pending` once, waking itself: one trip through the run queue.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[test]
fn counter_integrity_many_tasks_few_workers() {
    // 2000 tasks × 5 increments on 4 workers over an 8-pid mutex:
    // tasks ≫ pids ≫ workers, the shape the async surface exists for.
    let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(8).build_async());
    let ex = Executor::new();
    for _ in 0..2000 {
        let m = Arc::clone(&m);
        ex.spawn(async move {
            for _ in 0..5 {
                *m.lock().await += 1;
            }
        });
    }
    ex.run(4);
    assert_eq!(m.free_pids(), 8, "every pid returned to the pool");
    assert_eq!(m.queued_tasks(), 0);
    let m = Arc::try_unwrap(m).expect("executor drained");
    assert_eq!(m.into_inner(), 10_000);
}

#[test]
fn async_lock_when_pipeline() {
    // Producer/consumer through the conditional critical section: the
    // consumer's predicate admits it exactly when an item is present.
    let m = Arc::new(
        AsyncAbortableMutex::builder(Vec::<u32>::new())
            .capacity(4)
            .build_async(),
    );
    let ex = Executor::new();
    const ITEMS: u32 = 200;
    let consumed = Arc::new(AtomicU64::new(0));
    {
        let m = Arc::clone(&m);
        ex.spawn(async move {
            for i in 0..ITEMS {
                m.lock().await.push(i);
            }
        });
    }
    for _ in 0..4 {
        let m = Arc::clone(&m);
        let consumed = Arc::clone(&consumed);
        ex.spawn(async move {
            loop {
                let mut g = m
                    .acquire(Acquire::new().when(|q: &Vec<u32>| !q.is_empty()))
                    .await
                    .expect("an unlimited request cannot abort");
                g.pop().expect("predicate held under the lock");
                if consumed.fetch_add(1, Ordering::SeqCst) + 1 == u64::from(ITEMS) {
                    return;
                }
                // Other consumers may be parked on a now-empty queue;
                // they exit via the count check after our next wake.
                if consumed.load(Ordering::SeqCst) >= u64::from(ITEMS) {
                    return;
                }
            }
        });
    }
    // Consumers that lose the final race park forever; a watchdog
    // unblocks them by appending sentinels once the real items are done.
    {
        let m = Arc::clone(&m);
        let consumed = Arc::clone(&consumed);
        ex.spawn(async move {
            while consumed.load(Ordering::SeqCst) < u64::from(ITEMS) {
                sleep(Duration::from_millis(1)).await;
            }
            for _ in 0..4 {
                m.lock().await.push(u32::MAX);
            }
        });
    }
    ex.run(3);
    assert!(consumed.load(Ordering::SeqCst) >= u64::from(ITEMS));
    assert_eq!(m.waiters(), 0, "no conditional registration leaked");
    assert_eq!(m.free_pids(), 4);
}

#[test]
fn dropping_pending_futures_is_a_bounded_abort() {
    // The paper's headline, measured on the async path: with the lock
    // demonstrably held, every dropped pending future must resolve in a
    // bounded number of its own shared-memory steps. Mirrors
    // `deadline_locking::aborts_against_a_held_lock_take_bounded_steps`
    // but the abort trigger is future cancellation, not a signal.
    for capacity in [4usize, 8, 16] {
        let stats = PassageStats::new();
        let m = AsyncAbortableMutex::builder(())
            .capacity(capacity)
            .branching(8)
            .probe(stats.clone())
            .build_async();
        let g = m.try_lock().expect("uncontended");
        let attempts = 25usize;
        for _ in 0..attempts {
            // Fill the remaining pids with pending futures, then drop
            // them all — each drop runs the abort path.
            let mut futs: Vec<_> = (1..capacity).map(|_| m.lock()).collect();
            for f in &mut futs {
                assert!(poll_once(f).is_pending(), "the lock is held");
            }
            drop(futs);
            assert_eq!(m.free_pids(), capacity - 1, "aborts released their pids");
        }
        drop(g);

        let records = stats.records();
        let aborted: Vec<_> = records.iter().filter(|r| !r.entered).collect();
        assert_eq!(aborted.len(), (capacity - 1) * attempts);
        let max_ops = aborted.iter().map(|r| r.ops).max().unwrap();
        assert!(
            max_ops <= 300,
            "{capacity} pids: a cancelled passage took {max_ops} shared-memory ops \
             — drop is not a bounded abort"
        );
        assert_eq!(
            m.stats().cancelled_pending,
            ((capacity - 1) * attempts) as u64
        );
    }
}

#[test]
fn cancellation_storm_leaks_nothing() {
    // 10 000 tasks race a tiny deadline against real contention; most
    // resolve by abort (poll-time deadline or drop-path cancellation).
    // Afterwards: all pids free, zero registrations, lock functional.
    let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(8).build_async());
    let ex = Executor::new();
    let entered = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    for i in 0..10_000u64 {
        let m = Arc::clone(&m);
        let entered = Arc::clone(&entered);
        let aborted = Arc::clone(&aborted);
        ex.spawn(async move {
            let req = Acquire::new().within(Duration::from_micros(i % 50));
            match m.acquire(req).await {
                Ok(mut g) => {
                    *g += 1;
                    entered.fetch_add(1, Ordering::Relaxed);
                }
                Err(AbortReason::Deadline) => {
                    aborted.fetch_add(1, Ordering::Relaxed);
                }
                Err(r) => panic!("unexpected abort reason {r:?}"),
            }
        });
    }
    ex.run(4);
    assert_eq!(
        entered.load(Ordering::Relaxed) + aborted.load(Ordering::Relaxed),
        10_000
    );
    assert_eq!(m.free_pids(), 8, "storm leaked a pid");
    assert_eq!(m.queued_tasks(), 0, "storm leaked an admission ticket");
    assert_eq!(m.waiters(), 0);
    block_on(async {
        *m.lock().await += 1;
    });
    let m = Arc::try_unwrap(m).expect("executor drained");
    let total = entered.load(Ordering::Relaxed) + 1;
    assert_eq!(
        m.into_inner(),
        total,
        "every entered passage incremented once"
    );
}

#[test]
fn deadline_errs_and_post_handoff_deadline_still_enters() {
    let m = AsyncAbortableMutex::builder(7u64).capacity(2).build_async();

    // Free lock + already-expired deadline: Enter semantics — the
    // acquisition sees no wait, so it succeeds (same as the sync API).
    let g = block_on(m.acquire(Acquire::new().within(Duration::ZERO)))
        .expect("free lock enters despite deadline");
    assert_eq!(*g, 7);
    drop(g);

    // Held lock: the deadline future errs once expired, at poll time.
    let g = m.try_lock().expect("uncontended");
    let mut fut = m.acquire(Acquire::new().within(Duration::from_millis(2)));
    assert!(poll_once(&mut fut).is_pending());
    std::thread::sleep(Duration::from_millis(5));
    match poll_once(&mut fut) {
        Poll::Ready(Err(AbortReason::Deadline)) => {}
        other => panic!("expected Err(Deadline), got {other:?}"),
    }
    drop(fut);
    drop(g);
    assert_eq!(m.free_pids(), 2);
}

#[test]
fn evaluate_policy_wakes_fewer_tasks_than_broadcast() {
    // The CCS economics carry over to the async path: N waiters on
    // staggered thresholds, each transition newly satisfies about one
    // of them. Evaluate wakes only the satisfied; Broadcast wakes all.
    // (Thresholds are monotone — `>=`, not `==` — so a waiter that
    // registers late still resolves instead of waiting forever.)
    use sal_sync::WakePolicy;
    let run = |policy: WakePolicy| -> (u64, u64) {
        let m = Arc::new(
            AsyncAbortableMutex::builder(0u64)
                .capacity(8)
                .wake_policy(policy)
                .build_async(),
        );
        let ex = Executor::new();
        for t in 1..=6u64 {
            let m = Arc::clone(&m);
            ex.spawn(async move {
                let g = m
                    .acquire(Acquire::new().when(move |v: &u64| *v >= t))
                    .await
                    .expect("an unlimited request cannot abort");
                assert!(*g >= t);
            });
        }
        {
            let m = Arc::clone(&m);
            ex.spawn(async move {
                for _ in 0..6 {
                    // Park-wait so all pending waiters register first.
                    sleep(Duration::from_millis(2)).await;
                    *m.lock().await += 1;
                }
            });
        }
        ex.run(3);
        let s = m.ccs_stats();
        (s.wakeups, s.transitions)
    };
    let (eval_wakeups, eval_transitions) = run(WakePolicy::Evaluate);
    let (bcast_wakeups, bcast_transitions) = run(WakePolicy::Broadcast);
    assert!(eval_transitions > 0 && bcast_transitions > 0);
    // Evaluate wakes only satisfiable waiters: at most ~1 per
    // transition. Broadcast wakes every registered waiter.
    assert!(
        eval_wakeups <= eval_transitions + 2,
        "evaluate woke {eval_wakeups} over {eval_transitions} transitions"
    );
    assert!(
        bcast_wakeups > eval_wakeups,
        "broadcast ({bcast_wakeups}) should out-wake evaluate ({eval_wakeups})"
    );
}

#[test]
fn handoff_wakes_track_entered_passages() {
    // 16 tasks × 2,000 plain `lock()` passages on one worker, each
    // guard held across one yield, so every other task queues in the
    // lock. An unlock wakes the one task its handoff names (plus, on an
    // instance switch, the epoch waiters), not every queued task: at
    // most two wakeups and one useful wakeup per passage. A broadcast
    // wake made about 15 per passage here, 14 of them futile.
    const TASKS: u64 = 16;
    const REPS: u64 = 2_000;
    let m = Arc::new(
        AsyncAbortableMutex::builder(0u64)
            .capacity(16)
            .build_async(),
    );
    let ex = Executor::new();
    for _ in 0..TASKS {
        let m = Arc::clone(&m);
        ex.spawn(async move {
            for _ in 0..REPS {
                let mut g = m.lock().await;
                *g += 1;
                YieldOnce(false).await;
            }
        });
    }
    ex.run(1);
    let s = m.stats();
    let entered = TASKS * REPS;
    assert_eq!(Arc::try_unwrap(m).expect("drained").into_inner(), entered);
    assert!(
        s.enter_wakeups <= 2 * entered,
        "{} wakeups for {entered} passages",
        s.enter_wakeups
    );
    assert!(
        s.enter_wakeups - s.futile_enter_wakeups <= entered,
        "{} useful wakeups for {entered} passages",
        s.enter_wakeups - s.futile_enter_wakeups
    );
}

#[test]
fn guard_can_be_dropped_on_another_worker() {
    // AsyncMutexGuard is Send: an executor may resume (and finish) the
    // holding task on a different worker thread than the one that
    // acquired. Force migrations with a yield point while holding.
    let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(4).build_async());
    let ex = Executor::new();
    let migrations = Arc::new(AtomicUsize::new(0));
    for _ in 0..400 {
        let m = Arc::clone(&m);
        let migrations = Arc::clone(&migrations);
        ex.spawn(async move {
            let before = std::thread::current().id();
            let mut g = m.lock().await;
            *g += 1;
            YieldOnce(false).await; // guard held across a suspension
            *g += 1;
            if std::thread::current().id() != before {
                migrations.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    ex.run(4);
    let m = Arc::try_unwrap(m).expect("executor drained");
    assert_eq!(m.into_inner(), 800);
    // Migration count is scheduling-dependent; the integrity assert
    // above is the real check. Report for the curious.
    println!(
        "guard-holding tasks migrated workers {} times",
        migrations.load(Ordering::Relaxed)
    );
}
