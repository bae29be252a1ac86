//! Real-thread stress of the [`sal_sync::Arena`] public surface.
//!
//! The protocol-level interleavings are model-checked exhaustively in
//! `arena_protocol.rs`; this suite drives the actual implementation —
//! OS threads, real parking, the pooled cores — through the scenarios
//! a keyed arena exists for: promotion/demotion churn on hot keys,
//! conditional waits across the inline→materialized transition, mixed
//! deadline/abort traffic, and pool starvation. Every test ends with
//! the leak checks: all counters add up, no core stays resident.
//! The suite is lease-agnostic: CI runs it under both the default
//! scheduler config and `SAL_LEASE=1`.

use sal_runtime::SmallRng;
use sal_sync::{AbortFlag, Acquire, Arena};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Hot-key churn: all threads hammer a handful of keys, forcing
/// repeated inline→materialized→inline cycles; counts must balance
/// and the pool must drain back to empty.
#[test]
fn promotion_demotion_churn_balances() {
    let threads = 4;
    let reps = 400;
    let keys = 3u64;
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().pool(2).build());
    let barrier = Arc::new(Barrier::new(threads));
    let mut handles = Vec::new();
    for t in 0..threads {
        let arena = Arc::clone(&arena);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            for i in 0..reps {
                let key = ((t as u64).wrapping_mul(31).wrapping_add(i)) % keys;
                *arena.lock(&key) += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..keys).map(|k| *arena.lock(&k)).sum();
    assert_eq!(total, threads as u64 * reps, "lost updates under churn");
    let s = arena.stats();
    assert_eq!(s.resident_cores, 0, "cores leaked: {s:?}");
    assert_eq!(
        s.promotions, s.demotions,
        "unbalanced promote/demote: {s:?}"
    );
}

/// A herd of `lock_when` waiters across a transition: the predicate
/// only becomes true after the key has been materialized by
/// contention, and every waiter must see it.
#[test]
fn lock_when_herd_drains_completely() {
    let waiters = 6;
    let arena: Arc<Arena<&'static str, u64>> = Arc::new(Arena::new());
    let woken = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..waiters {
        let arena = Arc::clone(&arena);
        let woken = Arc::clone(&woken);
        handles.push(std::thread::spawn(move || {
            let mut g = arena
                .acquire(&"gate", Acquire::new().when(|v: &u64| *v >= 1))
                .unwrap();
            *g += 1; // each waiter bumps so all predicates stay true
            woken.fetch_add(1, Ordering::SeqCst);
        }));
    }
    // Let the herd register, then open the gate.
    std::thread::sleep(Duration::from_millis(30));
    *arena.lock(&"gate") = 1;
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(woken.load(Ordering::SeqCst), waiters);
    assert_eq!(*arena.lock(&"gate"), 1 + waiters);
    assert_eq!(arena.stats().resident_cores, 0);
}

/// Mixed deadline and abort-flag traffic against a deliberately held
/// key: expirations and aborts return errors, never corrupt the
/// count, and never strand a core.
#[test]
fn mixed_deadline_and_abort_traffic() {
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().pool(2).build());
    let stop = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicU64::new(0));
    let denied = Arc::new(AtomicU64::new(0));

    // One thread camps on the key in bursts.
    let camper = {
        let arena = Arc::clone(&arena);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let g = arena.lock(&7);
                std::thread::sleep(Duration::from_micros(300));
                drop(g);
                std::thread::yield_now();
            }
        })
    };
    let mut handles = Vec::new();
    for t in 0..3 {
        let arena = Arc::clone(&arena);
        let stop = Arc::clone(&stop);
        let entered = Arc::clone(&entered);
        let denied = Arc::clone(&denied);
        handles.push(std::thread::spawn(move || {
            let deadline_end = Instant::now() + Duration::from_millis(150);
            while Instant::now() < deadline_end && !stop.load(Ordering::SeqCst) {
                let got = match t {
                    0 => arena
                        .acquire(&7, Acquire::new().within(Duration::from_micros(200)))
                        .ok(),
                    1 => arena.try_lock(&7),
                    _ => {
                        let flag = AbortFlag::new();
                        flag.set(); // pre-fired: bounded abort path
                        arena.acquire(&7, Acquire::new().abort_on(&flag)).ok()
                    }
                };
                match got {
                    Some(mut g) => {
                        *g += 1;
                        entered.fetch_add(1, Ordering::SeqCst);
                    }
                    None => {
                        denied.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    camper.join().unwrap();
    assert_eq!(*arena.lock(&7), entered.load(Ordering::SeqCst));
    assert!(denied.load(Ordering::SeqCst) > 0, "camper never collided");
    assert_eq!(arena.stats().resident_cores, 0);
}

/// A starved pool stays correct and bounded at any key space. Threads
/// mix `lock` with `try_lock` on seeded-random keys: half come from a
/// 4-key hot set, so cores do get promoted, and half from the whole key
/// space. At 2^20 keys the resident lock memory is still the pool, not
/// a core per key.
#[test]
fn starved_pool_stays_correct() {
    for (threads, keys, pool) in [(6, 4, 1), (4, 1 << 20, 4)] {
        let arena: Arena<u64, u64> = Arena::builder().pool(pool).build();
        let barrier = Barrier::new(threads);
        let (entered, mut touched) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (arena, barrier) = (&arena, &barrier);
                    s.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(t as u64);
                        let (mut entered, mut touched) = (0u64, Vec::new());
                        barrier.wait();
                        for i in 0..250 {
                            let span = if rng.random_bool(0.5) { 4 } else { keys };
                            let key = rng.random_range(0..span) as u64;
                            touched.push(key);
                            let guard = if i % 4 == 0 {
                                arena.try_lock(&key)
                            } else {
                                Some(arena.lock(&key))
                            };
                            if let Some(mut g) = guard {
                                *g += 1;
                                entered += 1;
                            }
                        }
                        (entered, touched)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).fold(
                (0, Vec::new()),
                |(sum, mut all), (entered, touched)| {
                    all.extend(touched);
                    (sum + entered, all)
                },
            )
        });
        touched.sort_unstable();
        touched.dedup();
        let total: u64 = touched.iter().map(|k| *arena.lock(k)).sum();
        assert_eq!(total, entered, "lost update at {keys} keys");
        let s = arena.stats();
        assert_eq!(s.resident_cores, 0, "{s:?}");
        assert!(
            s.built_cores <= pool,
            "pool bound violated at {keys} keys: {s:?}"
        );
    }
}

/// Distinct keys never interfere: full parallel traffic over disjoint
/// keys stays on the inline fast path (no promotions at all).
#[test]
fn disjoint_keys_stay_inline() {
    let threads = 4;
    let reps = 2_000;
    let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::new());
    let mut handles = Vec::new();
    for t in 0..threads as u64 {
        let arena = Arc::clone(&arena);
        handles.push(std::thread::spawn(move || {
            for _ in 0..reps {
                *arena.lock(&t) += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..threads as u64 {
        assert_eq!(*arena.lock(&t), reps);
    }
    let s = arena.stats();
    assert_eq!(
        s.promotions, 0,
        "disjoint keys should never materialize: {s:?}"
    );
    assert_eq!(s.built_cores, 0, "{s:?}");
}

/// Deadline-bounded conditional waits: expired waits report failure
/// without disturbing the value, satisfied ones complete.
#[test]
fn lock_when_deadlines_expire_cleanly() {
    let arena: Arena<u64, u64> = Arena::new();
    let within = |ms| {
        Acquire::new()
            .when(|v: &u64| *v == 42)
            .within(Duration::from_millis(ms))
    };
    // Nothing ever sets key 9: the wait must time out.
    assert!(arena.acquire(&9, within(20)).is_err());
    // And the failed wait must not have corrupted or leaked anything.
    assert_eq!(*arena.lock(&9), 0);
    assert_eq!(arena.stats().resident_cores, 0);

    // A satisfied wait on another key completes normally.
    *arena.lock(&10) = 42;
    let g = arena
        .acquire(&10, within(500))
        .expect("predicate already true");
    assert_eq!(*g, 42);
}
