//! Conditional-critical-section API tests: `when` requests and
//! `await_when` on real OS threads — lost-wakeup freedom, unlock-side
//! evaluation, deregistration hygiene, the broadcast baseline's
//! equivalence and its extra wakeups, and two scenarios with
//! deadline-first waits mixed in (a bounded queue and a generation
//! barrier).

use sal_sync::{
    AbortFlag, AbortReason, AbortableMutex, Acquire, CcsStats, MutexHandle, WakePolicy,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[test]
fn lock_when_returns_immediately_when_pred_holds() {
    let m = AbortableMutex::builder(41u64).capacity(1).build();
    let mut h = m.handle();
    {
        let mut g = h.acquire(Acquire::new().when(|v: &u64| *v == 41)).unwrap();
        *g += 1;
    }
    assert_eq!(
        *h.acquire(Acquire::new().when(|v: &u64| *v == 42)).unwrap(),
        42
    );
    assert_eq!(m.waiters(), 0);
}

#[test]
fn lock_when_blocks_until_another_thread_satisfies_it() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut setter = m.handle();
    let mut waiter = m.handle();
    let woke = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let g = waiter
                .acquire(Acquire::new().when(|v: &u64| *v == 7))
                .unwrap();
            woke.store(true, Ordering::SeqCst);
            assert_eq!(*g, 7);
        });
        // Let the waiter park (its spin budget is microscopic compared
        // to 20ms), then verify it is actually registered and blocked.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!woke.load(Ordering::SeqCst), "waiter ran before the set");
        *setter.lock() += 7;
    });
    assert!(woke.load(Ordering::SeqCst));
    assert_eq!(m.waiters(), 0);
}

/// Per-waiter conditions: each consumer waits for its own mailbox slot;
/// the producer fills them one at a time. Nothing is lost even though
/// every wakeup is only a hint. Returns the mutex's CCS counters.
fn mailbox_roundtrip(policy: WakePolicy) -> CcsStats {
    const CONSUMERS: usize = 4;
    const ITEMS_EACH: usize = 50;
    let m = AbortableMutex::builder(vec![0u64; CONSUMERS])
        .capacity(CONSUMERS + 1)
        .wake_policy(policy)
        .build();
    let consumed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for c in 0..CONSUMERS {
            let mut h = m.handle();
            let consumed = &consumed;
            s.spawn(move || {
                for _ in 0..ITEMS_EACH {
                    let full = move |boxes: &Vec<u64>| boxes[c] != 0;
                    let mut g = h.acquire(Acquire::new().when(full)).unwrap();
                    g[c] = 0;
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut producer = m.handle();
        for i in 0..ITEMS_EACH {
            for c in 0..CONSUMERS {
                let empty = move |boxes: &Vec<u64>| boxes[c] == 0;
                let mut g = producer.acquire(Acquire::new().when(empty)).unwrap();
                g[c] = (i + 1) as u64;
            }
        }
    });
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        (CONSUMERS * ITEMS_EACH) as u64
    );
    assert_eq!(m.waiters(), 0);
    let stats = m.ccs_stats();
    assert!(
        stats.transitions > 0,
        "unlocks with waiters must be counted"
    );
    assert!(stats.wakeups > 0, "parked waiters must have been woken");
    if policy == WakePolicy::Evaluate {
        assert!(stats.evaluated > 0, "evaluate policy must run conditions");
    } else {
        assert_eq!(stats.evaluated, 0, "broadcast never evaluates conditions");
    }
    stats
}

#[test]
fn mailbox_fanout_under_evaluation() {
    mailbox_roundtrip(WakePolicy::Evaluate);
}

/// Broadcast is as correct as evaluation, only noisier: a deposit
/// satisfies exactly its addressee, so evaluation wakes that one
/// consumer where broadcast wakes every parked one. Evaluate's wakeups
/// per state transition is strictly below Broadcast's on the same
/// mailbox workload.
#[test]
fn broadcast_policy_is_equivalent_just_noisier() {
    let per_transition = |s: CcsStats| s.wakeups as f64 / s.transitions as f64;
    let broadcast = per_transition(mailbox_roundtrip(WakePolicy::Broadcast));
    let evaluate = per_transition(mailbox_roundtrip(WakePolicy::Evaluate));
    assert!(
        evaluate < broadcast,
        "wakeups/transition: evaluate {evaluate:.3} vs broadcast {broadcast:.3}"
    );
}

/// Deadline of a deadline-first wait: short enough to fire under
/// contention, long enough that most uncontended waits finish.
const SHORT_WAIT: Duration = Duration::from_micros(50);

/// Every `DEADLINE_FIRST_EVERY`-th wait of a scenario runs deadline-first.
const DEADLINE_FIRST_EVERY: usize = 8;

/// Run `body` under the lock once `pred` holds. Wait number `wait`
/// (counted from 1) runs deadline-first when it is a multiple of
/// [`DEADLINE_FIRST_EVERY`]: as `when(pred).within(SHORT_WAIT)`, whose
/// deadline is the lock's abort signal, retried unbounded on
/// `Deadline`.
fn when_then<T, F, R>(
    h: &mut MutexHandle<'_, T>,
    pred: F,
    wait: usize,
    body: impl FnOnce(&mut T) -> R,
) -> R
where
    F: Fn(&T) -> bool + Sync + Copy,
{
    let mut bounded = wait.is_multiple_of(DEADLINE_FIRST_EVERY);
    loop {
        let req = Acquire::new().when(pred);
        let req = if bounded { req.within(SHORT_WAIT) } else { req };
        match h.acquire(req) {
            Ok(mut g) => return body(&mut g),
            Err(reason) => assert_eq!(reason, AbortReason::Deadline),
        }
        bounded = false;
    }
}

/// Bounded-queue state.
#[derive(Default)]
struct Bq {
    q: VecDeque<u64>,
    pushed: u64,
    popped: u64,
    sum_pushed: u64,
    sum_popped: u64,
    producers_done: usize,
}

/// Conditions on both sides of one capacity-4 queue: producers wait
/// for space, consumers for an item. Nothing is lost or duplicated
/// and the queue drains, under either policy and with deadline-first
/// waits mixed in.
#[test]
fn bounded_queue_with_waits_on_both_sides_loses_nothing() {
    const CAP: usize = 4;
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const ITEMS_EACH: usize = 200;
    for policy in [WakePolicy::Evaluate, WakePolicy::Broadcast] {
        let m = AbortableMutex::builder(Bq::default())
            .capacity(PRODUCERS + CONSUMERS)
            .wake_policy(policy)
            .build();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let mut h = m.handle();
                s.spawn(move || {
                    for i in 0..ITEMS_EACH {
                        let v = (p * ITEMS_EACH + i) as u64;
                        let space = |b: &Bq| b.q.len() < CAP;
                        when_then(&mut h, space, i + 1, |b| {
                            assert!(b.q.len() < CAP, "overfull on entry");
                            b.q.push_back(v);
                            b.pushed += 1;
                            b.sum_pushed += v;
                        });
                    }
                    h.lock().producers_done += 1;
                });
            }
            for _ in 0..CONSUMERS {
                let mut h = m.handle();
                s.spawn(move || {
                    let ready = |b: &Bq| !b.q.is_empty() || b.producers_done == PRODUCERS;
                    for wait in 1.. {
                        let popped = when_then(&mut h, ready, wait, |b| {
                            let v = b.q.pop_front()?;
                            b.popped += 1;
                            b.sum_popped += v;
                            Some(v)
                        });
                        if popped.is_none() {
                            break;
                        }
                    }
                });
            }
        });
        assert_eq!(m.waiters(), 0, "{policy:?}");
        let b = m.into_inner();
        let total = (PRODUCERS * ITEMS_EACH) as u64;
        assert_eq!(b.pushed, total, "{policy:?}: lost push");
        assert_eq!(b.popped, total, "{policy:?}: lost or duplicated pop");
        assert_eq!(b.sum_pushed, b.sum_popped, "{policy:?}: value corruption");
        assert!(b.q.is_empty(), "{policy:?}: undrained queue");
    }
}

/// A generation barrier: the last arrival of a round bumps the
/// generation, everyone else re-waits for it *while holding* the guard
/// (`await_when`). Every round completes and nobody is left behind,
/// under either policy and with deadline-first re-waits mixed in.
#[test]
fn generation_barrier_rewaiting_under_the_guard_completes_every_round() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 100;
    for policy in [WakePolicy::Evaluate, WakePolicy::Broadcast] {
        // (generation, arrivals in the current round)
        let m = AbortableMutex::builder((0u64, 0usize))
            .capacity(THREADS)
            .wake_policy(policy)
            .build();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let mut h = m.handle();
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        let mut g = h.lock();
                        let gen = g.0;
                        g.1 += 1;
                        if g.1 == THREADS {
                            *g = (gen + 1, 0);
                            continue;
                        }
                        let next = Acquire::new().when(move |b: &(u64, usize)| b.0 != gen);
                        if round.is_multiple_of(DEADLINE_FIRST_EVERY) {
                            if let Err(reason) = g.await_when(next.clone().within(SHORT_WAIT)) {
                                assert_eq!(reason, AbortReason::Deadline);
                                g.await_when(next).unwrap();
                            }
                        } else {
                            g.await_when(next).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(m.waiters(), 0, "{policy:?}");
        assert_eq!(
            m.into_inner(),
            (ROUNDS as u64, 0),
            "{policy:?}: rounds lost or stragglers left behind"
        );
    }
}

#[test]
fn await_when_releases_and_reacquires_in_place() {
    let m = AbortableMutex::builder((0u64, 0u64)).capacity(2).build();
    let mut a = m.handle();
    let mut b = m.handle();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut g = a.lock();
            g.0 = 1; // signal: A is inside and about to await
            g.await_when(Acquire::new().when(|v: &(u64, u64)| v.1 == 1))
                .unwrap();
            // The guard survived the release/park/re-acquire round trip.
            g.0 = 2;
        });
        s.spawn(|| {
            let mut g = b
                .acquire(Acquire::new().when(|v: &(u64, u64)| v.0 == 1))
                .unwrap();
            g.1 = 1;
            // Dropping the guard must wake A's await.
        });
    });
    assert_eq!(m.into_inner(), (2, 1));
}

#[test]
fn lock_when_for_times_out_and_deregisters() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut h = m.handle();
    let start = Instant::now();
    let req = Acquire::new()
        .when(|v: &u64| *v == 999)
        .within(Duration::from_millis(25));
    assert_eq!(h.acquire(req).err(), Some(AbortReason::Deadline));
    assert!(start.elapsed() >= Duration::from_millis(25));
    // The failed wait left nothing behind: no registration, and the
    // lock is free for plain acquisition.
    assert_eq!(m.waiters(), 0);
    assert_eq!(*h.lock(), 0);
}

#[test]
fn lock_when_until_with_a_passed_deadline_still_tries_the_pred_once() {
    let m = AbortableMutex::builder(5u64).capacity(1).build();
    let mut h = m.handle();
    // Expired deadline + satisfiable predicate: Enter semantics say the
    // attempt may still succeed, and the pred check happens under the
    // lock we just won.
    let g = h
        .acquire(Acquire::new().when(|v: &u64| *v == 5).until(Instant::now()))
        .expect("satisfied pred on a free lock wins even with an expired deadline");
    assert_eq!(*g, 5);
}

#[test]
fn lock_when_abortable_reports_caller_cancellation() {
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let flag = AbortFlag::new();
    let mut h = m.handle();
    std::thread::scope(|s| {
        let flag2 = flag.clone();
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            flag2.set();
        });
        let req = Acquire::new().when(|v: &u64| *v == 999).abort_on(&flag);
        assert_eq!(h.acquire(req).err(), Some(AbortReason::Caller));
    });
    assert_eq!(m.waiters(), 0);
    assert_eq!(*h.lock(), 0);
}

#[test]
fn await_when_for_keeps_the_lock_on_timeout() {
    let m = AbortableMutex::builder(0u64).capacity(1).build();
    let mut h = m.handle();
    let mut g = h.lock();
    let within = |want: u64| {
        Acquire::new()
            .when(move |v: &u64| *v == want)
            .within(Duration::from_millis(15))
    };
    assert_eq!(g.await_when(within(999)), Err(AbortReason::Deadline));
    // Still holding: the guard mutates freely and the re-check sees it.
    *g += 1;
    assert!(g.await_when(within(1)).is_ok());
    drop(g);
    assert_eq!(*h.lock(), 1);
}

#[test]
fn single_item_many_waiters_loses_nothing() {
    // All waiters share the same condition (non-empty pool). Wakeups
    // are hints: every push may wake several waiters, only one of which
    // gets the item — yet every item is consumed exactly once and every
    // waiter eventually completes (no lost wakeups, no deadlock).
    const WAITERS: usize = 6;
    const ITEMS: usize = 60;
    let m = AbortableMutex::builder(0u64).capacity(WAITERS + 1).build();
    let got = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..WAITERS {
            let mut h = m.handle();
            let got = &got;
            s.spawn(move || {
                for _ in 0..ITEMS / WAITERS {
                    let mut g = h.acquire(Acquire::new().when(|v: &u64| *v > 0)).unwrap();
                    *g -= 1;
                    got.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut producer = m.handle();
        for _ in 0..ITEMS {
            *producer.lock() += 1;
            std::thread::yield_now();
        }
    });
    assert_eq!(got.load(Ordering::Relaxed), ITEMS as u64);
    assert_eq!(
        m.into_inner(),
        0,
        "every produced unit consumed exactly once"
    );
}

#[test]
fn wait_stats_accumulate_and_expose_futility() {
    let m = AbortableMutex::builder(0u64)
        .capacity(2)
        .wake_policy(WakePolicy::Evaluate)
        .build();
    assert_eq!(m.wake_policy(), WakePolicy::Evaluate);
    let mut a = m.handle();
    let mut b = m.handle();
    std::thread::scope(|s| {
        s.spawn(|| {
            let g = a.acquire(Acquire::new().when(|v: &u64| *v == 3)).unwrap();
            assert_eq!(*g, 3);
        });
        s.spawn(|| {
            for _ in 0..3 {
                std::thread::sleep(Duration::from_millis(5));
                *b.lock() += 1;
            }
        });
    });
    let stats = m.ccs_stats();
    // The waiter parked at least once and was woken exactly at v == 3;
    // the evaluation count reflects the unlock-side checks.
    assert!(stats.waits >= 1, "{stats:?}");
    assert!(stats.wakeups >= 1, "{stats:?}");
    assert!(stats.evaluated >= stats.wakeups, "{stats:?}");
}

#[test]
fn guard_drop_without_waiters_stays_cheap_and_correct() {
    // Plain mutex traffic through the CCS-aware unlock path: no
    // registered waiters means no transitions are recorded.
    let m = AbortableMutex::builder(0u64).capacity(2).build();
    let mut h = m.handle();
    for _ in 0..100 {
        *h.lock() += 1;
    }
    assert_eq!(*h.lock(), 100);
    let stats = m.ccs_stats();
    assert_eq!(stats.transitions, 0, "no waiters, no registry scans");
    assert_eq!(stats.wakeups, 0);
}
