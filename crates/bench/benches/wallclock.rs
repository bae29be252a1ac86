//! W1 — wall-clock sanity benches (plain harness, no external deps).
//!
//! The paper's claims are about RMRs, not nanoseconds; these benches
//! exist to show the real-atomics build (`sal-sync`) is a usable lock:
//! uncontended latency in the same league as `std::sync::Mutex`, graceful
//! behaviour under contention, and cheap failed try-locks.
//!
//! ```text
//! cargo bench -p sal-bench
//! ```

use sal_baselines::McsLock;
use sal_memory::{Mem, MemoryBuilder, NeverAbort};
use sal_sync::{AbortableMutex, Acquire};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Time `iters` runs of `body`, returning mean nanoseconds per iteration.
fn time_ns(iters: u64, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Run a benchmark: short warm-up, then a measured pass, one report line.
fn bench(name: &str, iters: u64, mut body: impl FnMut()) {
    time_ns(iters / 10 + 1, &mut body);
    let ns = time_ns(iters, &mut body);
    println!("{name:<40} {ns:>10.1} ns/iter  ({iters} iters)");
}

fn uncontended() {
    println!("\n== uncontended_lock_unlock ==");
    let iters = 1_000_000;

    {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut h = m.handle();
        bench("abortable_mutex", iters, || {
            *h.lock() += 1;
        });
    }

    {
        let m = Mutex::new(0u64);
        bench("std_mutex", iters, || {
            *m.lock().unwrap() += 1;
        });
    }

    {
        let mut b = MemoryBuilder::new();
        let lock = McsLock::layout(&mut b, 2);
        let w = b.alloc(0);
        let mem = b.build_raw(2);
        bench("mcs_raw", iters, || {
            lock.acquire(&mem, 0);
            mem.write(0, w, black_box(mem.read(0, w) + 1));
            lock.release(&mem, 0);
        });
    }
}

fn contended() {
    println!("\n== contended_increments (ns per increment) ==");
    let per_thread = 200_000u64;
    for &threads in &[2usize, 4, 8] {
        {
            let m = Arc::new(AbortableMutex::builder(0u64).capacity(threads).build());
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let m = Arc::clone(&m);
                    s.spawn(move || {
                        let mut h = m.handle();
                        for _ in 0..per_thread {
                            *h.lock() += 1;
                        }
                    });
                }
            });
            let ns = start.elapsed().as_nanos() as f64 / (per_thread * threads as u64) as f64;
            println!("abortable_mutex/{threads:<2} {ns:>10.1} ns/op");
        }
        {
            let m = Arc::new(Mutex::new(0u64));
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let m = Arc::clone(&m);
                    s.spawn(move || {
                        for _ in 0..per_thread {
                            *m.lock().unwrap() += 1;
                        }
                    });
                }
            });
            let ns = start.elapsed().as_nanos() as f64 / (per_thread * threads as u64) as f64;
            println!("std_mutex/{threads:<2}       {ns:>10.1} ns/op");
        }
    }
}

fn abort_paths() {
    println!("\n== abort_paths ==");
    let iters = 1_000_000;

    // Failed try-lock while another handle holds the lock: the paper's
    // bounded-abort property as wall-clock.
    {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut holder = m.handle();
        let mut waiter = m.handle();
        let g = holder.lock();
        bench("failed_try_lock", iters, || {
            assert!(black_box(waiter.try_lock()).is_none());
        });
        drop(g);
    }

    // Expired-deadline acquisition attempt on a held lock.
    {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut holder = m.handle();
        let mut waiter = m.handle();
        let g = holder.lock();
        let past = Instant::now() - Duration::from_millis(1);
        bench("expired_deadline_try", iters, || {
            assert!(black_box(waiter.try_lock_until(past)).is_none());
        });
        drop(g);
    }

    // Uncontended abortable acquisition (signal never fires).
    {
        let m = AbortableMutex::builder(0u64).capacity(2).build();
        let mut h = m.handle();
        bench("abortable_enter_no_signal", iters, || {
            let g = h.acquire(Acquire::new().abort_on(NeverAbort)).unwrap();
            drop(g);
        });
    }
}

fn main() {
    uncontended();
    contended();
    abort_paths();
}
