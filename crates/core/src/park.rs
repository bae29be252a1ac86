//! [`Waiter`]: a one-slot spin-then-park primitive for blocking
//! synchronization layers built over the raw lock path.
//!
//! The raw algorithms busy-wait (that is the model the RMR bounds are
//! stated in); a production API wants contended waiters to *block*
//! instead of burning a core. `Waiter` is the parking half: each
//! waiting context owns one slot, a waker calls [`Waiter::unpark`]
//! (Waiter::unpark), and the waiter [`park_until`](Waiter::park_until)s
//! with an optional deadline.
//!
//! ## Adaptive spin-then-park
//!
//! Before touching its condvar, a parking waiter first spins on the
//! notification word for an adaptive budget, using the same calibration
//! as the simulator's step-lease spin gate (`sal-runtime`): the budget
//! **doubles** (capped) when spinning observed the wakeup — the waker
//! responded within the spin window, so spinning is paying for itself —
//! and **halves** (floored) when the waiter had to park anyway. Fast
//! producer/consumer handoffs therefore stay off the condvar entirely,
//! while long waits decay to plain parking within a few misses.
//!
//! ## Token semantics
//!
//! A `Waiter` carries at most one pending notification token.
//! [`Waiter::unpark`](Waiter::unpark) sets it (idempotently); `park_until`
//! consumes it. A token delivered while nobody is parked wakes the
//! *next* park immediately — so a wakeup racing a timeout is never
//! lost, it just surfaces as a spurious early return of a later park.
//! Callers must treat any park return as a hint and re-check their real
//! condition (all of `sal-sync`'s waits do).

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// No token pending, nobody parked.
const EMPTY: u8 = 0;
/// A waiter is (about to be) blocked on the condvar.
const PARKED: u8 = 1;
/// A notification token is pending.
const NOTIFIED: u8 = 2;

/// Initial spin budget of an [`AdaptiveBudget`] — matches the step-lease
/// gate's calibration (DESIGN.md §9).
const SPIN_INIT: u32 = 64;
/// Budget ceiling: a handful of µs of spinning at most.
const SPIN_MAX: u32 = 1 << 12;
/// Budget floor: keeps the probe alive so budgets can regrow when the
/// workload changes phase.
const SPIN_MIN: u32 = 4;

/// The doubling/halving spin budget shared with the simulator's spin
/// gate (same constants, same growth rule); see the module docs.
#[derive(Debug)]
struct AdaptiveBudget {
    budget: AtomicU32,
}

impl AdaptiveBudget {
    const fn new() -> Self {
        AdaptiveBudget {
            budget: AtomicU32::new(SPIN_INIT),
        }
    }

    /// Spin until `observed` returns true or the budget runs out;
    /// returns whether the condition was observed. Hitting doubles the
    /// budget (capped), missing halves it (floored).
    fn spin(&self, observed: impl Fn() -> bool) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        for _ in 0..budget {
            if observed() {
                self.budget
                    .store(((budget << 1) | 1).min(SPIN_MAX), Ordering::Relaxed);
                return true;
            }
            std::hint::spin_loop();
        }
        self.budget
            .store((budget / 2).max(SPIN_MIN), Ordering::Relaxed);
        false
    }
}

/// Outcome of a [`Waiter::park_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkResult {
    /// A notification token was consumed (possibly one delivered before
    /// the park began — see the module docs on token semantics).
    Notified,
    /// The deadline passed with no token delivered.
    TimedOut,
}

impl ParkResult {
    /// Whether the park consumed a notification.
    pub fn notified(self) -> bool {
        matches!(self, ParkResult::Notified)
    }
}

/// A single-owner parking slot with adaptive spin-then-park; see the
/// module docs.
///
/// One context parks at a time (enforced by the owning structure — e.g.
/// `sal-sync` keys slots by process id); any number of contexts may
/// [`Waiter::unpark`](Waiter::unpark) concurrently.
#[derive(Debug)]
pub struct Waiter {
    /// EMPTY / PARKED / NOTIFIED — the single source of truth.
    state: AtomicU8,
    /// Guards the condvar sleep; held by the waiter from the PARKED
    /// transition until the wait, so a waker that saw PARKED and then
    /// locks it cannot slip its notify between the two.
    lock: Mutex<()>,
    cv: Condvar,
    spin: AdaptiveBudget,
}

impl Default for Waiter {
    fn default() -> Self {
        Self::new()
    }
}

impl Waiter {
    /// A fresh slot with no pending token.
    pub const fn new() -> Self {
        Waiter {
            state: AtomicU8::new(EMPTY),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            spin: AdaptiveBudget::new(),
        }
    }

    /// Deliver a notification token and wake the parked waiter, if any.
    /// Idempotent: delivering on top of a pending token is a no-op.
    pub fn unpark(&self) {
        if self.state.swap(NOTIFIED, Ordering::Release) == PARKED {
            // The waiter is parked (or committed to parking while
            // holding `lock`): acquiring the mutex orders us after its
            // wait, so the notify cannot be lost.
            let _guard = self.lock.lock().unwrap();
            self.cv.notify_one();
        }
    }

    /// Block until a token is delivered or `deadline` passes
    /// (`None` = wait indefinitely). Consumes the token on
    /// [`ParkResult::Notified`].
    pub fn park_until(&self, deadline: Option<Instant>) -> ParkResult {
        // Adaptive spin phase: watch the state word without the mutex.
        if self
            .spin
            .spin(|| self.state.load(Ordering::Acquire) == NOTIFIED)
        {
            self.state.store(EMPTY, Ordering::Relaxed);
            return ParkResult::Notified;
        }
        let mut guard = self.lock.lock().unwrap();
        loop {
            // Consume a token that arrived before (or during) the spin
            // phase; otherwise announce that we are about to sleep.
            match self
                .state
                .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire)
            {
                Err(s) if s == NOTIFIED => {
                    self.state.store(EMPTY, Ordering::Relaxed);
                    return ParkResult::Notified;
                }
                _ => {}
            }
            match deadline {
                None => guard = self.cv.wait(guard).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Deadline already passed: clear PARKED, but a
                        // token that raced in wins.
                        return if self.state.swap(EMPTY, Ordering::Acquire) == NOTIFIED {
                            ParkResult::Notified
                        } else {
                            ParkResult::TimedOut
                        };
                    }
                    guard = self.cv.wait_timeout(guard, d - now).unwrap().0;
                }
            }
            if self.state.load(Ordering::Acquire) == NOTIFIED {
                self.state.store(EMPTY, Ordering::Relaxed);
                return ParkResult::Notified;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pre_delivered_token_wakes_immediately() {
        let w = Waiter::new();
        w.unpark();
        assert_eq!(w.park_until(None), ParkResult::Notified);
        // Token was consumed: the next timed park times out.
        assert_eq!(
            w.park_until(Some(Instant::now() + Duration::from_millis(1))),
            ParkResult::TimedOut
        );
    }

    #[test]
    fn unpark_is_idempotent() {
        let w = Waiter::new();
        w.unpark();
        w.unpark();
        assert!(w.park_until(None).notified());
        assert_eq!(
            w.park_until(Some(Instant::now() + Duration::from_millis(1))),
            ParkResult::TimedOut
        );
    }

    #[test]
    fn cross_thread_unpark_wakes_a_parked_waiter() {
        let w = Arc::new(Waiter::new());
        let t = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.park_until(None))
        };
        // Give the waiter a chance to actually park (spin budget is
        // tiny; a few ms vastly exceeds it).
        std::thread::sleep(Duration::from_millis(5));
        w.unpark();
        assert_eq!(t.join().unwrap(), ParkResult::Notified);
    }

    #[test]
    fn timed_park_respects_the_deadline() {
        let w = Waiter::new();
        let start = Instant::now();
        let r = w.park_until(Some(start + Duration::from_millis(10)));
        assert_eq!(r, ParkResult::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn hammered_handoffs_never_lose_a_token() {
        // Ping-pong N rounds: each round the main thread unparks, the
        // waiter must observe exactly one notification.
        let w = Arc::new(Waiter::new());
        let done = Arc::new(AtomicU32::new(0));
        let rounds = 10_000u32;
        let t = {
            let w = Arc::clone(&w);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    while !w.park_until(None).notified() {}
                    done.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        for i in 0..rounds {
            w.unpark();
            // Lock-step: wait for the round to be consumed so tokens
            // never coalesce (unpark is idempotent, so two unparks
            // without an intervening park would count once).
            while done.load(Ordering::SeqCst) <= i {
                std::hint::spin_loop();
            }
        }
        t.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), rounds);
    }
}
