//! Use case 3 of the paper's introduction: "low-priority processes can
//! abort to expedite lock handoff to a high-priority process."
//!
//! A crowd of low-priority workers churns on a shared resource. When the
//! high-priority thread raises a flag and queues up, every low-priority
//! *waiter* aborts its acquisition attempt (clearing the queue ahead of
//! the VIP) and backs off until the VIP is done. We measure how long the
//! VIP waits with and without the courtesy aborts.
//!
//! Run with: `cargo run --example priority_handoff`

use sal_sync::{AbortFlag, AbortableMutex, Acquire};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LOW_PRIO_WORKERS: usize = 6;

fn vip_wait(courteous: bool) -> Duration {
    let resource = Arc::new(
        AbortableMutex::builder(0u64)
            .capacity(LOW_PRIO_WORKERS + 1)
            .build(),
    );
    let vip_wants_it = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..LOW_PRIO_WORKERS)
        .map(|_| {
            let resource = Arc::clone(&resource);
            let vip_wants_it = Arc::clone(&vip_wants_it);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handle = resource.handle();
                // A low-priority waiter aborts whenever the VIP flag is
                // up (courteous mode) — the paper's abort signal is
                // exactly this externally-controlled condition.
                let courtesy = AbortFlag::new();
                while !stop.load(Ordering::Relaxed) {
                    if courteous {
                        if vip_wants_it.load(Ordering::Relaxed) {
                            courtesy.set();
                        } else {
                            courtesy.clear();
                        }
                        match handle.acquire(Acquire::new().abort_on(&courtesy)).ok() {
                            Some(_guard) => {
                                // hold the resource briefly
                                std::thread::sleep(Duration::from_micros(300));
                            }
                            None => {
                                // stepped aside for the VIP
                                while vip_wants_it.load(Ordering::Relaxed)
                                    && !stop.load(Ordering::Relaxed)
                                {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    } else {
                        let _guard = handle.lock();
                        std::thread::sleep(Duration::from_micros(300));
                    }
                }
            })
        })
        .collect();

    // Let the workers saturate the lock, then measure the VIP.
    std::thread::sleep(Duration::from_millis(30));
    let mut vip = resource.handle();
    vip_wants_it.store(true, Ordering::Relaxed);
    let start = Instant::now();
    let guard = vip.lock();
    let waited = start.elapsed();
    drop(guard);
    vip_wants_it.store(false, Ordering::Relaxed);

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    waited
}

fn main() {
    let rude = vip_wait(false);
    let courteous = vip_wait(true);
    println!("VIP wait with blocking low-priority workers: {rude:?}");
    println!("VIP wait when waiters abort in its favour:   {courteous:?}");
    println!(
        "courtesy aborts cut the VIP's wait{}",
        if courteous < rude {
            ""
        } else {
            " (noisy run — try again)"
        }
    );
}
