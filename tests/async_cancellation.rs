//! Cancellation-at-every-point harness (satellite of the async PR).
//!
//! A future can be dropped after *any* number of polls. This suite
//! drops a pending `lock()` future after exactly `k` polls for every
//! `k` up to a ceiling and asserts, per `k`:
//!
//! * **no leaked queue node / pid** — the pool is back to full and a
//!   fresh waiter still acquires;
//! * **no lost wakeup** — a second waiter parked across the
//!   cancellation is woken by the eventual release (its waker fires)
//!   and then polls `Ready`;
//! * **bounded abort** — the cancelled passage's probe-counted
//!   shared-memory ops stay ≤ 300, the same bound the sync deadline
//!   tests enforce.
//!
//! `k = 0` is the degenerate point: the future never polled, so it
//! never checked out a pid and produces no passage record — drop must
//! simply be a no-op.

use sal_obs::PassageStats;
use sal_runtime::executor::Executor;
use sal_sync::{Acquire, AsyncAbortableMutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

/// A waker that counts its wakes in a leaked `AtomicUsize`.
fn counting_waker() -> (Waker, &'static AtomicUsize) {
    fn vt() -> &'static RawWakerVTable {
        &RawWakerVTable::new(
            |d| RawWaker::new(d, vt()),
            |d| {
                // Safety: `d` is the leaked `&'static AtomicUsize`
                // below; it is never deallocated.
                unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
            },
            |d| {
                // Safety: as above.
                unsafe { &*d.cast::<AtomicUsize>() }.fetch_add(1, Ordering::SeqCst);
            },
            |_| {},
        )
    }
    let count: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
    let raw = RawWaker::new((count as *const AtomicUsize).cast(), vt());
    // Safety: the vtable functions only touch the leaked static.
    (unsafe { Waker::from_raw(raw) }, count)
}

fn poll_with<F: Future + Unpin>(fut: &mut F, waker: &Waker) -> Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(waker))
}

fn noop_waker() -> Waker {
    counting_waker().0
}

#[test]
fn cancellation_at_every_poll_count() {
    const K_MAX: usize = 12;
    let stats = PassageStats::new();
    let m = AsyncAbortableMutex::builder(0u64)
        .capacity(4)
        .probe(stats.clone())
        .build_async();

    for k in 0..=K_MAX {
        let g = m.try_lock().expect("lock free at the top of each round");

        // The victim: polled exactly k times against the held lock,
        // then dropped.
        let mut victim = m.lock();
        let noop = noop_waker();
        for i in 0..k {
            assert!(
                poll_with(&mut victim, &noop).is_pending(),
                "k={k}: poll {i} must stay pending while the lock is held"
            );
        }
        drop(victim);
        assert_eq!(
            m.free_pids(),
            4,
            "k={k}: cancelled victim leaked its pid (the inline holder owns none)"
        );
        assert_eq!(
            m.queued_tasks(),
            0,
            "k={k}: victim left an admission ticket"
        );

        // No lost wakeup: a second waiter parked *after* the
        // cancellation must be woken by the release and then acquire.
        let (waker, wakes) = counting_waker();
        let mut fresh = m.lock();
        assert!(poll_with(&mut fresh, &waker).is_pending());
        drop(g);
        assert!(
            wakes.load(Ordering::SeqCst) >= 1,
            "k={k}: release did not wake the parked waiter — lost wakeup"
        );
        let g2 = match poll_with(&mut fresh, &waker) {
            Poll::Ready(g2) => g2,
            Poll::Pending => panic!("k={k}: woken waiter failed to acquire the free lock"),
        };
        drop(fresh);
        drop(g2);
        assert_eq!(m.free_pids(), 4, "k={k}: pool not restored at round end");
    }

    // Bounded abort, per k: every cancelled passage (k ≥ 1 checked out
    // a pid and began a passage; k = 0 never did) aborted in ≤ 300
    // probe-counted shared-memory ops.
    let records = stats.records();
    let aborted: Vec<_> = records.iter().filter(|r| !r.entered).collect();
    assert_eq!(
        aborted.len(),
        K_MAX,
        "one aborted passage for each k in 1..=K_MAX, none for k = 0"
    );
    for (i, r) in aborted.iter().enumerate() {
        assert!(
            r.ops <= 300,
            "k={}: cancelled passage took {} ops — not a bounded abort",
            i + 1,
            r.ops
        );
    }
    assert_eq!(m.stats().cancelled_pending, K_MAX as u64);
}

#[test]
fn cancelling_a_middle_waiter_preserves_the_queue() {
    // Three waiters queue behind a holder; the middle one is dropped.
    // The survivors must still acquire, in order, off the release chain.
    let m = AsyncAbortableMutex::builder(0u64).capacity(8).build_async();
    let g = m.try_lock().expect("free");

    let (wa, ka) = counting_waker();
    let (wb, _) = counting_waker();
    let (wc, kc) = counting_waker();
    let mut a = m.lock();
    let mut b = m.lock();
    let mut c = m.lock();
    assert!(poll_with(&mut a, &wa).is_pending());
    assert!(poll_with(&mut b, &wb).is_pending());
    assert!(poll_with(&mut c, &wc).is_pending());

    drop(b); // cancel the middle of the queue
    assert_eq!(m.stats().cancelled_pending, 1);

    drop(g);
    assert!(
        ka.load(Ordering::SeqCst) >= 1,
        "head waiter not woken by release"
    );
    let mut ga = match poll_with(&mut a, &wa) {
        Poll::Ready(ga) => ga,
        Poll::Pending => panic!("head waiter pending after release"),
    };
    *ga += 1;
    assert!(
        poll_with(&mut c, &wc).is_pending(),
        "tail must wait for the head"
    );
    drop(ga);
    assert!(kc.load(Ordering::SeqCst) >= 1, "tail waiter not woken");
    let mut gc = match poll_with(&mut c, &wc) {
        Poll::Ready(gc) => gc,
        Poll::Pending => panic!("tail waiter pending after handoff"),
    };
    *gc += 1;
    drop(gc);

    drop(a);
    drop(c);
    assert_eq!(m.free_pids(), 8, "a pid leaked through the cancellation");
    let m_inner = m.into_inner();
    assert_eq!(m_inner, 2, "both survivors entered exactly once");
}

#[test]
fn cancelling_conditional_waiters_deregisters() {
    // lock_when parks in the CCS registry between acquisitions; a drop
    // at any poll depth must deregister and release the pid.
    let m = AsyncAbortableMutex::builder(0u64).capacity(4).build_async();
    let noop = noop_waker();
    for k in 0..=6usize {
        let mut fut = m.acquire(Acquire::new().when(|v: &u64| *v == u64::MAX));
        for i in 0..k {
            assert!(
                poll_with(&mut fut, &noop).is_pending(),
                "k={k}: poll {i} of an unsatisfiable condition must pend"
            );
        }
        drop(fut);
        assert_eq!(m.waiters(), 0, "k={k}: CCS registration leaked");
        assert_eq!(m.free_pids(), 4, "k={k}: conditional waiter leaked its pid");
    }
    // The lock is still fully functional.
    let mut g = m.try_lock().expect("usable after cancellation rounds");
    *g = u64::MAX;
    drop(g);
    let g = m.try_lock().expect("reusable");
    assert_eq!(*g, u64::MAX);
}

#[test]
fn deadline_storms_on_two_workers_always_drain() {
    // The shape that used to hang: tasks × 5 attempts, every 4th a
    // 0–49 µs deadline, on `Executor::run(2)`. Two bugs could strand it:
    // an abort that handed the lock to a parked waiter woke nobody, and
    // a straggler wake made the executor count a task twice. Each run
    // must drain within 5 s; a watchdog fails the test instead of
    // hanging it.
    for capacity in [4usize, 8, 64] {
        let m = Arc::new(
            AsyncAbortableMutex::builder(0u64)
                .capacity(capacity)
                .build_async(),
        );
        let entered = Arc::new(AtomicU64::new(0));
        let ex = Executor::new();
        for t in 0..1_000u64 {
            let (m, entered) = (Arc::clone(&m), Arc::clone(&entered));
            ex.spawn(async move {
                for r in 0..5u64 {
                    let i = t * 5 + r;
                    let got = if i % 4 == 0 {
                        let req = Acquire::new().within(Duration::from_micros(i % 50));
                        m.acquire(req).await.ok()
                    } else {
                        Some(m.lock().await)
                    };
                    if let Some(mut g) = got {
                        *g += 1;
                        entered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            ex.run(2);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("capacity {capacity}: run(2) did not drain within 5 s"));
        assert_eq!(m.free_pids(), capacity, "capacity {capacity}: pid leaked");
        let m = Arc::try_unwrap(m).expect("executor drained");
        assert_eq!(m.into_inner(), entered.load(Ordering::Relaxed));
    }
}
