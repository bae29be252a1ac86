//! Quickstart: the abortable mutex in five minutes.
//!
//! Demonstrates the three acquisition modes of [`sal_sync::AbortableMutex`]:
//! blocking, timed (an `Acquire` request with a deadline), and externally
//! cancellable (a request with an abort flag) — the paper's
//! `Enter`/abort-signal interface as a practical Rust API.
//!
//! Run with: `cargo run --example quickstart`

use sal_sync::{AbortFlag, AbortableMutex, Acquire};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A mutex guarding a value, sized for 4 participating threads.
    // Under the hood: the PODC'18 bounded long-lived abortable lock over
    // plain AtomicU64s, O(threads²) words, starvation-free.
    let counter = Arc::new(AbortableMutex::builder(0u64).capacity(8).build());

    // --- 1. Blocking acquisition, std::sync::Mutex style ---------------
    {
        let mut handle = counter.handle();
        *handle.lock() += 1;
        println!("blocking lock: counter = {}", *handle.lock());
    }

    // --- 2. Timed acquisition ------------------------------------------
    // Two threads race; the loser's attempt expires instead of blocking
    // forever.
    let holder = {
        let counter = Arc::clone(&counter);
        std::thread::spawn(move || {
            let mut handle = counter.handle();
            let mut guard = handle.lock();
            *guard += 1;
            // Hold the lock long enough for the other thread to time out.
            std::thread::sleep(Duration::from_millis(100));
            drop(guard);
            println!("holder: released after 100ms");
        })
    };
    std::thread::sleep(Duration::from_millis(10)); // let the holder win
    {
        let mut handle = counter.handle();
        match handle.acquire(Acquire::new().within(Duration::from_millis(20))) {
            Ok(_) => println!("timed lock: unexpectedly acquired"),
            Err(_) => println!("timed lock: gave up after 20ms — doing something else instead"),
        };
    }
    holder.join().unwrap();

    // --- 3. External cancellation ---------------------------------------
    // A supervisor cancels a worker's acquisition attempt.
    let flag = AbortFlag::new();
    let worker = {
        let counter = Arc::clone(&counter);
        let flag = flag.clone();
        std::thread::spawn(move || {
            let mut handle = counter.handle();
            // The lock is free here, so this acquires immediately; to see
            // a real cancellation, run the deadlock_recovery example.
            match handle.acquire(Acquire::new().abort_on(&flag)) {
                Ok(mut guard) => {
                    *guard += 1;
                    println!("worker: acquired under a cancellable attempt");
                }
                Err(_) => println!("worker: cancelled by the supervisor"),
            };
        })
    };
    worker.join().unwrap();
    flag.set(); // (too late to matter — just showing the API)

    let mut handle = counter.handle();
    println!("final counter = {}", *handle.lock());
}
