//! Real-thread stress tests: the same algorithm code that the simulator
//! model-checks, running free on OS threads over bare atomics
//! (`RawMemory`) with genuine parallelism, preemption and timing noise.
//! Complements the deterministic suites: different failure surface
//! (memory-ordering bugs, real races), same invariants.

use sal_baselines::{LeeLock, McsLock, ScottLock, TournamentLock};
use sal_bench::AnyLock;
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::one_shot::OneShotLock;
use sal_core::{Immediate, LockCore};
use sal_memory::{AbortFlag, EpochMode, Mem, MemoryBuilder, NeverAbort};
use sal_obs::{NoProbe, PassageStats, Probe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Run `threads` real threads × `passages` each over `lock`, counting
/// CS entries with a plain (non-simulated) counter protected by the
/// lock itself; returns (entered, aborted). Generic over the memory
/// flavour and the lock: a concrete `L` runs the monomorphized
/// `LockCore` path (no vtables anywhere on `RawMemory`), and
/// [`AnyLock`] runs the registry's `match` dispatch over it — same
/// driver, same invariant check. Passage events go to `probe`.
fn hammer_core<L, M, P>(
    lock: &L,
    mem: &M,
    threads: usize,
    passages: usize,
    abort_every: Option<usize>,
    probe: &P,
) -> (u64, u64)
where
    L: LockCore<M, P> + Sync,
    M: Mem + Send + Sync,
    P: Probe + Sync,
{
    // The protected counter lives OUTSIDE the lock's memory: a
    // non-atomic u64 cell we may only touch inside the CS. Any mutual
    // exclusion failure is UB caught as a lost update.
    struct Cell(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Cell {}
    let counter = Cell(std::cell::UnsafeCell::new(0));
    let entered = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    // All threads start hammering together, or fast runs degenerate into
    // a sequence of solo passages with no contention at all.
    let barrier = std::sync::Barrier::new(threads);

    std::thread::scope(|s| {
        let counter = &counter;
        let entered = &entered;
        let aborted = &aborted;
        let barrier = &barrier;
        for p in 0..threads {
            s.spawn(move || {
                barrier.wait();
                for i in 0..passages {
                    let flag = AbortFlag::new();
                    let want_abort = abort_every.map(|k| (i + p) % k == 0).unwrap_or(false);
                    let ok = if want_abort {
                        // Fire the signal after a tiny real-time delay
                        // from a helper knowing nothing of the lock.
                        flag.set();
                        lock.enter_core(mem, p, &flag, probe).entered()
                    } else {
                        lock.enter_core(mem, p, &NeverAbort, probe).entered()
                    };
                    if ok {
                        // Critical section: read-modify-write on the
                        // unprotected cell.
                        unsafe {
                            let c = counter.0.get();
                            let v = c.read();
                            std::hint::black_box(v);
                            c.write(v + 1);
                        }
                        entered.fetch_add(1, Ordering::Relaxed);
                        lock.exit_core(mem, p, probe);
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let total = unsafe { *counter.0.get() };
    assert_eq!(
        total,
        entered.load(Ordering::Relaxed),
        "lost update: mutual exclusion violated on real threads"
    );
    (
        entered.load(Ordering::Relaxed),
        aborted.load(Ordering::Relaxed),
    )
}

#[test]
fn bounded_long_lived_on_real_threads() {
    // Through the registry's `match` dispatch, as `build_lock` users
    // drive it.
    let threads = 8;
    let mut b = MemoryBuilder::new();
    let lock = AnyLock::LongLived(BoundedLongLivedLock::layout(&mut b, threads, 8));
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&lock, &mem, threads, 300, None, &NoProbe);
    assert_eq!(entered, 8 * 300);
    assert_eq!(aborted, 0);
}

#[test]
fn bounded_long_lived_with_aborts_on_real_threads() {
    // Mixed workload: on a single-core box contention may never
    // materialize (timeslices are far longer than a passage), so only
    // conservation is asserted here; the forced-contention abort test
    // below covers the abort path deterministically.
    let threads = 8;
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, threads, 16);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&lock, &mem, threads, 200, Some(3), &NoProbe);
    assert_eq!(entered + aborted, 8 * 200);
    assert!(entered > 0);
}

#[test]
fn bounded_long_lived_monomorphized_on_real_threads() {
    // The same traffic as the `AnyLock` test above, but on the concrete
    // lock type: no dispatch at all on the whole passage. The
    // lost-update invariant inside the driver must hold here too.
    let threads = 8;
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, threads, 8);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&lock, &mem, threads, 300, None, &NoProbe);
    assert_eq!(entered, 8 * 300);
    assert_eq!(aborted, 0);
}

#[test]
fn direct_and_enum_dispatch_both_preserve_the_cs_invariant() {
    // Identical layouts, identical workloads (with aborts), one run on
    // the concrete lock and one through `AnyLock`; both must conserve
    // passages — the lost-update assertion fires inside `hammer_core`
    // for each.
    let threads = 6;
    let mut b = MemoryBuilder::new();
    let direct = BoundedLongLivedLock::layout(&mut b, threads, 8);
    let direct_mem = b.build_raw(threads);
    let (d_entered, d_aborted) = hammer_core(&direct, &direct_mem, threads, 200, Some(3), &NoProbe);
    assert_eq!(d_entered + d_aborted, 6 * 200);
    assert!(d_entered > 0);

    let mut b = MemoryBuilder::new();
    let any = AnyLock::LongLived(BoundedLongLivedLock::layout(&mut b, threads, 8));
    let any_mem = b.build_raw(threads);
    let (a_entered, a_aborted) = hammer_core(&any, &any_mem, threads, 200, Some(3), &NoProbe);
    assert_eq!(a_entered + a_aborted, 6 * 200);
    assert!(a_entered > 0);
}

#[test]
fn aborts_fire_while_the_lock_is_demonstrably_held() {
    // Deterministic contention: the main thread holds the lock while
    // every other thread attempts with a pre-fired signal — all must
    // abort in bounded time; afterwards everyone acquires cleanly.
    let threads = 8;
    let mut b = MemoryBuilder::new();
    let lock = Arc::new(BoundedLongLivedLock::layout(&mut b, threads, 16));
    let mem = Arc::new(b.build_raw(threads));
    assert!(lock.enter_core(&*mem, 0, &NeverAbort, &NoProbe).entered());
    let aborted: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|p| {
                let lock = Arc::clone(&lock);
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let mut aborts = 0u64;
                    for _ in 0..50 {
                        if !lock.enter_core(&*mem, p, &Immediate, &NoProbe).entered() {
                            aborts += 1;
                        } else {
                            lock.exit_core(&*mem, p, &NoProbe); // impossible while held, but keep the protocol legal
                        }
                    }
                    aborts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(aborted, 7 * 50, "every attempt against a held lock aborts");
    lock.exit_core(&*mem, 0, &NoProbe);
    for p in 1..threads {
        assert!(lock.enter_core(&*mem, p, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&*mem, p, &NoProbe);
    }
}

#[test]
fn one_shot_on_real_threads() {
    let threads = 16;
    let mut b = MemoryBuilder::new();
    let lock = OneShotLock::layout(&mut b, threads, 8);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&lock, &mem, threads, 1, None, &NoProbe);
    assert_eq!(entered, 16);
    assert_eq!(aborted, 0);
}

#[test]
fn baselines_on_real_threads() {
    let threads = 6;
    // MCS
    let mut b = MemoryBuilder::new();
    let mcs = McsLock::layout(&mut b, threads);
    let mem = b.build_raw(threads);
    let (entered, _) = hammer_core(&mcs, &mem, threads, 400, None, &NoProbe);
    assert_eq!(entered, 6 * 400);
    // Tournament with aborts
    let mut b = MemoryBuilder::new();
    let t = TournamentLock::layout(&mut b, threads);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&t, &mem, threads, 200, Some(4), &NoProbe);
    assert_eq!(entered + aborted, 6 * 200);
    // Scott with aborts
    let mut b = MemoryBuilder::new();
    let s = ScottLock::layout(&mut b, threads, 6 * 200 + 1);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&s, &mem, threads, 200, Some(4), &NoProbe);
    assert_eq!(entered + aborted, 6 * 200);
    // Lee with aborts
    let mut b = MemoryBuilder::new();
    let l = LeeLock::layout(&mut b, threads, 6 * 200 + 1);
    let mem = b.build_raw(threads);
    let (entered, aborted) = hammer_core(&l, &mem, threads, 200, Some(4), &NoProbe);
    assert_eq!(entered + aborted, 6 * 200);
}

/// Free-running threads hammer the sharded `CcMemory` directly (no lock,
/// no simulator): accounting must stay *exact* under genuine parallelism.
/// Each thread issues a known mix of operations, so its own counters have
/// closed-form expectations independent of the interleaving — per-process
/// ops equal issued ops, each write-type op is exactly one RMR, and the
/// F&A word conserves its total.
fn cc_direct_stress(mode: EpochMode, threads: usize, per_thread: u64) {
    let mut b = MemoryBuilder::new();
    let counter = b.alloc(0);
    let scratch = b.alloc_array(threads, 0);
    let mem = Arc::new(b.build_cc_with(threads, mode));
    let monitor_stop = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // A monitor thread samples the global total concurrently: it must
        // be monotone (counters only ever advance).
        {
            let mem = Arc::clone(&mem);
            let stop = Arc::clone(&monitor_stop);
            s.spawn(move || {
                let mut last = 0;
                while stop.load(Ordering::Acquire) == 0 {
                    let now = mem.total_rmrs();
                    assert!(now >= last, "total_rmrs went backwards: {last} -> {now}");
                    last = now;
                    std::hint::spin_loop();
                }
            });
        }
        let handles: Vec<_> = (0..threads)
            .map(|p| {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let mine = scratch.at(p);
                    for i in 0..per_thread {
                        mem.faa(p, counter, 1); // contended word
                        mem.write(p, mine, i); // mostly-private word
                        mem.read(p, mine);
                        if i % 8 == 0 {
                            mem.read(p, counter);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        monitor_stop.store(1, Ordering::Release);
    });

    let reads_of_counter = per_thread.div_ceil(8);
    let mut issued_total = 0;
    for p in 0..threads {
        let issued = per_thread * 3 + reads_of_counter;
        issued_total += issued;
        assert_eq!(mem.ops(p), issued, "process {p}: ops must equal issued ops");
        // Every faa and write is exactly 1 RMR; each read is 0 or 1.
        let write_type = per_thread * 2;
        assert!(
            mem.rmrs(p) >= write_type,
            "process {p}: write-type RMRs missing"
        );
        assert!(mem.rmrs(p) <= issued, "process {p}: more RMRs than ops");
    }
    let total_ops: u64 = (0..threads).map(|p| mem.ops(p)).sum();
    assert_eq!(total_ops, issued_total, "ops conservation across processes");
    // The contended word saw every increment exactly once.
    assert_eq!(mem.read(0, counter), threads as u64 * per_thread);
}

#[test]
fn cc_memory_direct_stress_dense_epochs() {
    cc_direct_stress(EpochMode::Dense, 8, 20_000);
}

#[test]
fn cc_memory_direct_stress_sparse_epochs() {
    cc_direct_stress(EpochMode::Sparse, 8, 5_000);
}

#[test]
fn bounded_long_lived_on_instrumented_cc_memory_real_threads() {
    // The same lock traffic the RawMemory tests run, every third
    // attempt aborting, but over the sharded *instrumented* memory on
    // free-running threads: mutual exclusion must hold and the
    // accounting must stay consistent.
    let threads = 8;
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, threads, 8);
    let mem = b.build_cc(threads);
    let stats = PassageStats::new();
    let (entered, aborted) = hammer_core(&lock, &mem, threads, 100, Some(3), &stats);
    assert_eq!(entered + aborted, 8 * 100);
    // Each pid's ops run on its own thread, so the probe attributes
    // every RMR exactly even without the simulator's step gate: the
    // run's passage total equals the memory's own counter, bit-exact.
    let run = stats.amortized();
    assert_eq!((run.entered, run.aborted), (entered, aborted));
    assert_eq!(run.total_rmrs, mem.total_rmrs());
    // Sanity on the accounting: every process did shared-memory work and
    // was charged for it; totals are sums of the per-process counters.
    let mut rmr_sum = 0;
    for p in 0..threads {
        assert!(mem.ops(p) > 0, "process {p} issued no ops?");
        assert!(mem.rmrs(p) > 0, "process {p} paid no RMRs?");
        assert!(mem.rmrs(p) <= mem.ops(p));
        rmr_sum += mem.rmrs(p);
    }
    assert_eq!(rmr_sum, mem.total_rmrs());
}

#[test]
fn timed_aborts_fire_under_real_contention() {
    // One hog holds the lock while others use real deadlines.
    let threads = 4;
    let mut b = MemoryBuilder::new();
    let lock = Arc::new(BoundedLongLivedLock::layout(&mut b, threads, 8));
    let mem = Arc::new(b.build_raw(threads));
    assert!(lock.enter_core(&*mem, 0, &NeverAbort, &NoProbe).entered());
    let timed_out: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..threads)
            .map(|p| {
                let lock = Arc::clone(&lock);
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    let deadline =
                        sal_memory::Deadline::after(std::time::Duration::from_millis(10));
                    !lock.enter_core(&*mem, p, &deadline, &NoProbe).entered()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(timed_out.iter().all(|&t| t), "all waiters should time out");
    lock.exit_core(&*mem, 0, &NoProbe);
    // Lock still healthy afterwards.
    assert!(lock.enter_core(&*mem, 1, &NeverAbort, &NoProbe).entered());
    lock.exit_core(&*mem, 1, &NoProbe);
}
