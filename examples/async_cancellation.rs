//! Future cancellation **is** the paper's bounded abort.
//!
//! ```text
//! cargo run --release -p sal-bench --example async_cancellation
//! ```
//!
//! Two demonstrations:
//!
//! 1. **Manual drop.** A `lock()` future is polled against a held lock
//!    (pending), then dropped. The drop runs the abort path — the probe
//!    shows the cancelled passage cost a small, bounded number of
//!    shared-memory operations, not "wait for the lock, then give it
//!    back".
//! 2. **Timeout storm.** Hundreds of tasks on the mini-executor race
//!    tiny deadlines against real contention; aborted tasks resolve to
//!    `Err(Deadline)`, entered tasks increment the protected counter,
//!    and afterwards nothing has leaked: every pid is back in the pool.

use sal_obs::PassageStats;
use sal_runtime::executor::Executor;
use sal_sync::{AbortReason, Acquire, AsyncAbortableMutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

fn noop_waker() -> Waker {
    fn vt() -> &'static RawWakerVTable {
        &RawWakerVTable::new(|d| RawWaker::new(d, vt()), |_| {}, |_| {}, |_| {})
    }
    // Safety: every vtable entry ignores its data pointer.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), vt())) }
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(&noop_waker()))
}

fn main() {
    // --- 1. Dropping a pending lock future runs a bounded abort. ----
    let stats = PassageStats::new();
    let m = AsyncAbortableMutex::builder(0u64)
        .capacity(8)
        .probe(stats.clone())
        .build_async();

    let holder = m.try_lock().expect("lock starts free");
    let mut fut = m.lock();
    assert!(poll_once(&mut fut).is_pending(), "the lock is held");
    drop(fut); // cancellation: the future leaves the queue *now*
    drop(holder);

    let records = stats.records();
    let cancelled = records
        .iter()
        .find(|r| !r.entered)
        .expect("the dropped future left an aborted passage record");
    println!(
        "cancelled passage: {} shared-memory ops (bounded abort; \
         the holder never released)",
        cancelled.ops
    );
    assert!(cancelled.ops <= 300);
    assert_eq!(m.free_pids(), 8, "nothing leaked");

    // --- 2. A timeout storm on the executor leaks nothing. ----------
    let m = Arc::new(AsyncAbortableMutex::builder(0u64).capacity(4).build_async());
    let entered = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let ex = Executor::new();
    for i in 0..800u64 {
        let m = Arc::clone(&m);
        let entered = Arc::clone(&entered);
        let aborted = Arc::clone(&aborted);
        ex.spawn(async move {
            match m
                .acquire(Acquire::new().within(Duration::from_micros(i % 40)))
                .await
            {
                Ok(mut g) => {
                    *g += 1;
                    entered.fetch_add(1, Ordering::Relaxed);
                }
                Err(AbortReason::Deadline) => {
                    aborted.fetch_add(1, Ordering::Relaxed);
                }
                Err(r) => unreachable!("unexpected abort reason {r:?}"),
            }
        });
    }
    ex.run(2);

    let entered = entered.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    println!("storm: {entered} entered, {aborted} aborted by deadline (of 800 tasks)");
    assert_eq!(entered + aborted, 800);
    assert_eq!(m.free_pids(), 4, "every pid returned to the pool");
    let m = Arc::try_unwrap(m).expect("executor drained");
    assert_eq!(
        m.into_inner(),
        entered,
        "each entered task incremented once"
    );
    println!("ok: cancellation cost is bounded and nothing leaks");
}
