//! Use case 2 of the paper's introduction: "database systems use aborts
//! to recover from deadlocks."
//!
//! Two transfer agents repeatedly move money between two accounts, each
//! locking the two account mutexes in *opposite* order — the textbook
//! deadlock. With ordinary blocking locks this wedges immediately; with
//! abortable locks each agent bounds its wait for the second lock,
//! aborts on timeout, releases the first lock, backs off, and retries.
//! Every transfer eventually commits and the total balance is conserved.
//!
//! Run with: `cargo run --example deadlock_recovery`

use sal_sync::{AbortableMutex, Acquire};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TRANSFERS_PER_AGENT: usize = 50;

/// How long an agent waits for its second lock before backing off.
fn patience() -> Acquire {
    Acquire::new().within(Duration::from_micros(200))
}

fn main() {
    let account_a = Arc::new(AbortableMutex::builder(1_000i64).capacity(2).build());
    let account_b = Arc::new(AbortableMutex::builder(1_000i64).capacity(2).build());
    let deadlocks_broken = Arc::new(AtomicUsize::new(0));

    let agents: Vec<_> = (0..2)
        .map(|agent| {
            let account_a = Arc::clone(&account_a);
            let account_b = Arc::clone(&account_b);
            let deadlocks_broken = Arc::clone(&deadlocks_broken);
            std::thread::spawn(move || {
                let mut ha = account_a.handle();
                let mut hb = account_b.handle();
                let mut committed = 0usize;
                let mut backoff_us = 50u64;
                while committed < TRANSFERS_PER_AGENT {
                    // Agent 0 locks A then B; agent 1 locks B then A.
                    // Closure over both handles in either order needs a
                    // tiny dance because the guards borrow the handles.
                    let ok = if agent == 0 {
                        let mut ga = ha.lock();
                        // Hold the first lock a moment — this widens the
                        // race window so the classic deadlock actually
                        // materializes and must be broken by aborting.
                        std::thread::sleep(Duration::from_micros(100));
                        match hb.acquire(patience()).ok() {
                            Some(mut gb) => {
                                *ga -= 10;
                                *gb += 10;
                                true
                            }
                            None => false,
                        }
                    } else {
                        let mut gb = hb.lock();
                        std::thread::sleep(Duration::from_micros(100));
                        match ha.acquire(patience()).ok() {
                            Some(mut ga) => {
                                *gb -= 10;
                                *ga += 10;
                                true
                            }
                            None => false,
                        }
                    };
                    if ok {
                        committed += 1;
                        backoff_us = 50;
                    } else {
                        // Deadlock suspected: we held one lock while the
                        // peer held the other. The abort released our
                        // claim on the second lock; dropping the first
                        // guard (already happened at scope end) lets the
                        // peer finish. Back off and retry.
                        deadlocks_broken.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(backoff_us));
                        backoff_us = (backoff_us * 2).min(2_000);
                    }
                }
                committed
            })
        })
        .collect();

    let total: usize = agents.into_iter().map(|a| a.join().unwrap()).sum();
    let balance_a = *account_a.handle().lock();
    let balance_b = *account_b.handle().lock();
    println!("committed {total} transfers");
    println!(
        "deadlocks broken by aborting the second acquisition: {}",
        deadlocks_broken.load(Ordering::Relaxed)
    );
    println!(
        "balances: A = {balance_a}, B = {balance_b} (sum {})",
        balance_a + balance_b
    );
    assert_eq!(balance_a + balance_b, 2_000, "money was conserved");
    assert_eq!(total, 2 * TRANSFERS_PER_AGENT);
}
