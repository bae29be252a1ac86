//! Peeled `sal-core` cells: the bare `BoundedLongLivedLock` over
//! `RawMemory`, with no handle, guard or conditional-wait registry
//! around it. Set against the `sync` layer's numbers, the difference is
//! the front end's own cost.

use crate::common::{ns32, outside_work, Dist, RunResult};
use crate::mutex::{op_plan, CAPACITY, OUTSIDE_ROUNDS, TIMEOUT};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::{Immediate, LockCore};
use sal_memory::{Deadline, MemoryBuilder, NeverAbort, RawMemory};
use sal_obs::NoProbe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Branching of `AbortableMutex`'s default tree, so the bare lock is
/// the one the sync front end wraps.
const BRANCHING: usize = 64;
const CONTENDED_ITERS: usize = 60_000;
const PAIR_BATCH: u32 = 16;
const PAIR_BATCHES: usize = 20_000;
const ABORT_REPS: usize = 20_000;

fn bare_lock(n: usize) -> (BoundedLongLivedLock, RawMemory) {
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, n, BRANCHING);
    (lock, b.build_raw(n))
}

/// Run every core cell and add its metrics to `r`.
pub fn run(seed: u64, r: &mut RunResult) {
    contended(seed, r);
    uncontended_pair(r);
    abort_against_held(r);
}

/// The `mutex-contended` shape on the bare lock: 2 threads, 7/8
/// deadline-bounded and 1/8 immediate attempts, an 8-word critical
/// section and the same work outside.
fn contended(seed: u64, r: &mut RunResult) {
    let (lock, mem) = bare_lock(CAPACITY);
    let words: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
    let results: Vec<(Vec<u32>, Vec<u32>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|pid| {
                let (lock, mem, words) = (&lock, &mem, &words);
                let plan = op_plan(seed ^ 0xC0DE, pid);
                s.spawn(move || {
                    let mut enter = Vec::with_capacity(CONTENDED_ITERS);
                    let mut exit = Vec::with_capacity(CONTENDED_ITERS);
                    let mut entered = 0u64;
                    for i in 0..CONTENDED_ITERS {
                        let t0 = Instant::now();
                        let outcome = if plan[i % plan.len()] {
                            lock.enter_core(mem, pid, &Immediate, &NoProbe)
                        } else {
                            lock.enter_core(mem, pid, &Deadline::at(t0 + TIMEOUT), &NoProbe)
                        };
                        if outcome.entered() {
                            let t1 = Instant::now();
                            enter.push(ns32(t1 - t0));
                            // Plain increments, safe only under the lock.
                            for w in words {
                                w.store(w.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                            }
                            let t2 = Instant::now();
                            lock.exit_core(mem, pid, &NoProbe);
                            exit.push(ns32(t2.elapsed()));
                            entered += 1;
                        }
                        outside_work(i as u64, OUTSIDE_ROUNDS);
                    }
                    (enter, exit, entered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("core cell thread panicked"))
            .collect()
    });
    let entered: u64 = results.iter().map(|x| x.2).sum();
    if words.iter().any(|w| w.load(Ordering::Relaxed) != entered) {
        r.fail(entered, "core cell: lost update under the bare lock");
    }
    let enter = Dist::from_vec(results.iter().flat_map(|x| x.0.iter().copied()).collect());
    let exit = Dist::from_vec(results.iter().flat_map(|x| x.1.iter().copied()).collect());
    r.note(enter.describe("core.enter_ns (2 threads, bare lock)"));
    r.note(exit.describe("core.exit_ns"));
    r.metric("core.enter_ns.p50", enter.pct(0.5), "ns");
    r.metric("core.exit_ns.p50", exit.pct(0.5), "ns");
}

/// One thread, one pid: enter/exit pairs timed in batches.
fn uncontended_pair(r: &mut RunResult) {
    let (lock, mem) = bare_lock(CAPACITY);
    let mut per_pair = Vec::with_capacity(PAIR_BATCHES);
    for _ in 0..PAIR_BATCHES {
        let t0 = Instant::now();
        for _ in 0..PAIR_BATCH {
            let o = lock.enter_core(&mem, 0, &NeverAbort, &NoProbe);
            std::hint::black_box(o);
            lock.exit_core(&mem, 0, &NoProbe);
        }
        per_pair.push(ns32(t0.elapsed()) / PAIR_BATCH);
    }
    let d = Dist::from_vec(per_pair);
    r.note(d.describe(&format!(
        "core.uncontended_pair_ns (batches of {PAIR_BATCH})"
    )));
    r.metric("core.uncontended_pair_ns.p50", d.pct(0.5), "ns");
}

/// An `Immediate` attempt against a held lock: the bounded abort path.
fn abort_against_held(r: &mut RunResult) {
    let (lock, mem) = bare_lock(CAPACITY);
    let mut times = Vec::with_capacity(ABORT_REPS);
    let mut wrong = 0u64;
    for _ in 0..ABORT_REPS {
        let held = lock.enter_core(&mem, 0, &NeverAbort, &NoProbe);
        debug_assert!(held.entered());
        let t0 = Instant::now();
        let o = lock.enter_core(&mem, 1, &Immediate, &NoProbe);
        times.push(ns32(t0.elapsed()));
        if o.entered() {
            wrong += 1;
            lock.exit_core(&mem, 1, &NoProbe);
        }
        lock.exit_core(&mem, 0, &NoProbe);
    }
    if wrong > 0 {
        r.fail(wrong, "core cell: an immediate attempt entered a held lock");
    }
    let d = Dist::from_vec(times);
    r.note(d.describe("core.abort_ns (immediate vs held)"));
    r.metric("core.abort_ns.p50", d.pct(0.5), "ns");
}
