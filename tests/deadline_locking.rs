//! Deadline-path tests: `within` / `until` requests under real thread
//! contention, and the bounded-steps property of the abort path
//! measured through probe counters.
//!
//! The paper's `Enter` promises two things these tests pin down at the
//! API level: a fired signal is honoured within a *bounded number of
//! the aborter's own steps* (no waiting out the holder), and a signal
//! that fires after the lock was already handed over does NOT retract
//! the acquisition — the guard is still returned.

use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::{Immediate, LockCore};
use sal_memory::{MemoryBuilder, NeverAbort};
use sal_obs::{probed, PassageStats};
use sal_sync::{AbortableMutex, Acquire};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn deadline_fires_while_queued_abort_is_observed() {
    let m = Arc::new(AbortableMutex::builder(0u64).capacity(5).build());
    let mut holder = m.handle();
    let g = holder.lock();
    let waiting = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..4)
        .map(|_| {
            let m = Arc::clone(&m);
            let waiting = Arc::clone(&waiting);
            std::thread::spawn(move || {
                let mut h = m.handle();
                waiting.fetch_add(1, Ordering::SeqCst);
                let start = Instant::now();
                let r = h.acquire(Acquire::new().within(Duration::from_millis(20)));
                (r.is_err(), start.elapsed())
            })
        })
        .collect();
    while waiting.load(Ordering::SeqCst) < 4 {
        std::thread::yield_now();
    }
    // Keep holding well past every waiter's deadline.
    std::thread::sleep(Duration::from_millis(60));
    for j in joins {
        let (aborted, waited) = j.join().unwrap();
        assert!(aborted, "deadline must abort while the lock is held");
        assert!(
            waited >= Duration::from_millis(20),
            "gave up before the deadline: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(60),
            "kept waiting long after the deadline: {waited:?}"
        );
    }
    drop(g);
    assert_eq!(
        *holder.lock(),
        0,
        "aborted waiters left the lock consistent"
    );
}

#[test]
fn deadline_after_handoff_still_returns_the_guard() {
    // Deterministic corner: the deadline is already expired, but the
    // lock is free — Enter semantics let the acquisition succeed (the
    // signal is only checked at waits, and there are none).
    let m = AbortableMutex::builder(7u64).capacity(2).build();
    let mut h = m.handle();
    let g = h
        .try_lock_until(Instant::now() - Duration::from_millis(1))
        .expect("free lock: expired deadline must not forfeit the handoff");
    assert_eq!(*g, 7);
    drop(g);

    // Timing variant: the holder releases long before the deadline; the
    // queued waiter must come back with the guard, not an abort.
    let m = Arc::new(AbortableMutex::builder(0u64).capacity(2).build());
    let mut holder = m.handle();
    let g = holder.lock();
    let waiting = Arc::new(AtomicBool::new(false));
    let t = {
        let m = Arc::clone(&m);
        let waiting = Arc::clone(&waiting);
        std::thread::spawn(move || {
            let mut h = m.handle();
            waiting.store(true, Ordering::SeqCst);
            let entered = match h.acquire(Acquire::new().within(Duration::from_secs(5))) {
                Ok(mut g) => {
                    *g += 1;
                    true
                }
                Err(_) => false,
            };
            entered
        })
    };
    while !waiting.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(10));
    drop(g); // handoff well inside the waiter's deadline
    assert!(t.join().unwrap(), "handoff before the deadline must enter");
    assert_eq!(*holder.lock(), 1);
}

/// Aborting against a held lock must cost a bounded number of the
/// aborter's own shared-memory steps — the paper's headline — and the
/// probe's per-passage op counter is how we observe it. The lock runs
/// over `probed(RawMemory)` so every shared-memory operation of a
/// passage is attributed to it; a pre-fired signal means the aborter
/// never legitimately spins, so its op count IS the abort-path cost.
#[test]
fn aborts_against_a_held_lock_take_bounded_steps() {
    for threads in [4usize, 8, 16] {
        let stats = PassageStats::new();
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, threads, 8);
        let raw = b.build_raw(threads);
        let mem = probed(&raw, &stats);

        // Main thread (pid 0) takes and holds the lock.
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &stats).entered());

        let attempts_per_thread = 25usize;
        std::thread::scope(|s| {
            for p in 1..threads {
                let lock = &lock;
                let mem = &mem;
                let stats = &stats;
                s.spawn(move || {
                    for _ in 0..attempts_per_thread {
                        let outcome = lock.enter_core(mem, p, &Immediate, stats);
                        assert!(!outcome.entered(), "the lock is demonstrably held");
                    }
                });
            }
        });
        lock.exit_core(&mem, 0, &stats);

        let records = stats.records();
        let aborted: Vec<_> = records.iter().filter(|r| !r.entered).collect();
        assert_eq!(aborted.len(), (threads - 1) * attempts_per_thread);
        // The bound: every aborted passage's op count stays far below
        // anything resembling a wait loop. The algorithm's abort path
        // is O(log_W N + W) shared steps; 300 is generous for N ≤ 16,
        // W = 8, while a single spin-wait iteration loop would blow
        // through it immediately.
        let max_ops = aborted.iter().map(|r| r.ops).max().unwrap();
        assert!(
            max_ops <= 300,
            "{threads} threads: an aborted passage took {max_ops} shared-memory ops \
             — abort path is not step-bounded"
        );
    }
}

#[test]
fn contended_timed_locking_counts_and_integrity() {
    // Mixed outcome accounting under the probe: every attempt finishes
    // as exactly one of entered/aborted, and the protected counter
    // equals the entered count (no lost updates through abort paths).
    let stats = PassageStats::new();
    let m = Arc::new(
        AbortableMutex::builder(0u64)
            .capacity(6)
            .probe(stats.clone())
            .build(),
    );
    let attempts_per_thread = 200u64;
    let acquired = Arc::new(AtomicU64::new(0));
    let joins: Vec<_> = (0..6)
        .map(|_| {
            let m = Arc::clone(&m);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                let mut h = m.handle();
                for i in 0..attempts_per_thread {
                    let deadline = Duration::from_micros(50 + (i % 7) * 40);
                    if let Ok(mut g) = h.acquire(Acquire::new().within(deadline)) {
                        *g += 1;
                        acquired.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let summary = stats.summary();
    assert_eq!(summary.entered + summary.aborted, 6 * attempts_per_thread);
    assert_eq!(summary.entered, acquired.load(Ordering::Relaxed));
    let m = Arc::try_unwrap(m).expect("all threads joined");
    assert_eq!(
        m.into_inner(),
        summary.entered,
        "every entered passage incremented exactly once"
    );
}
