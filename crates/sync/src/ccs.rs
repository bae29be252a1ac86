//! Conditional critical sections: the waiter registry and the
//! unlock-side condition evaluation behind every
//! [`Acquire::when`](crate::Acquire::when) request.
//!
//! Broadcasting every unlock to every waiter costs `O(waiters)` wakeups
//! per state transition even when it can satisfy one of them (Scott &
//! Scherer's wakeup storm). Instead each waiter registers its
//! *condition*, and the **unlocker** — who holds the lock and so sees a
//! stable value — evaluates the registered conditions and wakes exactly
//! the waiters whose condition holds (the nsync/abseil design). A wakeup
//! is only a *hint*: the woken waiter re-acquires and re-checks, so
//! dropping one (a timeout racing a wakeup) is harmless as long as every
//! satisfiable waiter got its own.
//!
//! ## The registry
//!
//! A list of registrations behind one mutex. A registration is the
//! waiter's condition plus the waker that wakes it (a task's, or one
//! that unparks a blocked thread); it belongs to no pid, so a waiter
//! holds neither the lock nor a pid while it waits.
//!
//! * `register` runs while *holding* the lock, so no state transition
//!   can be missed: any future unlock happens-after the registration.
//! * The unlocker evaluates under the lock, takes the satisfied
//!   registrations off the list, releases the lock (`exit_core` — the
//!   bounded-RMR paper path), and only then wakes them, so woken waiters
//!   never stampede into a still-held lock.
//! * The wake takes the registration's waker and fires it, so a waiter
//!   is notified once its waker is gone. Until then each poll of the
//!   wait leaves its current waker (a task's may change between polls)
//!   and waits on; only a notification or its limit ends the wait.
//! * `deregister` removes a registration still on the list, or reports
//!   that an unlocker took it off (the waiter was notified).
//!
//! Fairness caveat: conditions are evaluated in registration order and
//! all satisfiable waiters race to re-acquire through the lock's normal
//! entry protocol; the registry adds no ordering of its own (DESIGN.md
//! §11 discusses the implications).

use crate::acquire::Predicate;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::Waker;

/// A registered condition: a borrowed predicate, its lifetime erased for
/// storage (sound by the argument on `Registration::cond`).
type StoredCond<T> = *const (dyn Predicate<T> + 'static);

/// Counters of the conditional-critical-section machinery, snapshot via
/// [`AbortableMutex::ccs_stats`](crate::AbortableMutex::ccs_stats).
///
/// The headline ratio is `wakeups / transitions`: satisfiable waiters
/// per transition. `evaluated` is exactly the number of wakeups a
/// broadcast condition variable would have made over the same registry
/// states, so `wakeups / evaluated` is the share a broadcast would keep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcsStats {
    /// Wakes issued by unlockers.
    pub wakeups: u64,
    /// Unlocks that scanned a non-empty registry (state transitions
    /// observable by waiters).
    pub transitions: u64,
    /// Conditions evaluated by unlockers: one per registered waiter per
    /// transition.
    pub evaluated: u64,
    /// Wait episodes taken by waiters.
    pub waits: u64,
    /// Wakeups that re-acquired the lock only to find their predicate
    /// false again (another waiter consumed the state first).
    pub futile_wakeups: u64,
}

/// One waiter's registration: its condition and where to wake it.
pub(crate) struct Registration<T: ?Sized> {
    /// Safety: the pointee is a predicate borrowed from the registering
    /// waiter, its lifetime erased for storage. It is dereferenced only
    /// by `evaluate`, under the registry mutex, while this registration
    /// is listed; `deregister` unlists it under the same mutex before the
    /// borrow ends. The attempt that registered deregisters when it is
    /// dropped, so the window closes even if the waiting frame unwinds.
    cond: StoredCond<T>,
    /// The waker to fire once `cond` holds; the wake takes it, so `None`
    /// means notified.
    waker: Mutex<Option<Waker>>,
}

impl<T: ?Sized> Registration<T> {
    fn waker(&self) -> MutexGuard<'_, Option<Waker>> {
        self.waker.lock().expect("waker slot poisoned by a panic")
    }

    /// Whether an unlocker took the waker (the condition held at its
    /// evaluation); if not, `waker` replaces the stored one unless both
    /// wake the same task.
    pub(crate) fn notified(&self, waker: &Waker) -> bool {
        let mut stored = self.waker();
        stored.as_mut().map(|w| w.clone_from(waker)).is_none()
    }
}

// Safety: `cond` is only dereferenced under the registry mutex while
// listed (see the field), and the predicate is `Sync` by its trait
// bound; the waker mutex is `Send + Sync`.
unsafe impl<T: ?Sized> Send for Registration<T> {}
unsafe impl<T: ?Sized> Sync for Registration<T> {}

/// The per-lock registry; see the module docs.
pub(crate) struct CcsRegistry<T: ?Sized> {
    list: Mutex<Vec<Arc<Registration<T>>>>,
    /// Length of `list` — the unlock fast path: zero means skip the scan
    /// entirely, so plain mutex traffic pays one load.
    waiting: AtomicUsize,
    wakeups: AtomicU64,
    transitions: AtomicU64,
    evaluated: AtomicU64,
    waits: AtomicU64,
    futile: AtomicU64,
}

impl<T: ?Sized> CcsRegistry<T> {
    pub(crate) fn new() -> Self {
        CcsRegistry {
            list: Mutex::new(Vec::new()),
            waiting: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            futile: AtomicU64::new(0),
        }
    }

    /// The list. A panicking predicate unwinds out of `Vec::retain`,
    /// which leaves the list valid, so a poisoned mutex is still used.
    fn list(&self) -> MutexGuard<'_, Vec<Arc<Registration<T>>>> {
        self.list.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of registered waiters not yet notified.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    pub(crate) fn stats(&self) -> CcsStats {
        CcsStats {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            futile_wakeups: self.futile.load(Ordering::Relaxed),
        }
    }

    /// Register `cond`, to be woken through `waker`. Caller must hold the
    /// lock (that is what makes registration race-free against state
    /// transitions) and must deregister before `cond`'s borrow ends.
    /// Async waits keep the predicate in a `Box` inside the future, so
    /// the borrow outlives the registration even if the future is
    /// leaked.
    pub(crate) fn register<'a>(
        &self,
        cond: &'a (dyn Predicate<T> + 'a),
        waker: &Waker,
    ) -> Arc<Registration<T>> {
        let ptr: *const (dyn Predicate<T> + 'a) = cond;
        let reg = Arc::new(Registration {
            // Safety: a fat-pointer transmute that changes only the
            // lifetime bound; sound per the argument on `cond`.
            cond: unsafe {
                std::mem::transmute::<*const (dyn Predicate<T> + 'a), StoredCond<T>>(ptr)
            },
            waker: Mutex::new(Some(waker.clone())),
        });
        let mut list = self.list();
        list.push(Arc::clone(&reg));
        self.waiting.store(list.len(), Ordering::SeqCst);
        self.waits.fetch_add(1, Ordering::Relaxed);
        reg
    }

    /// Unlist `reg`; returns whether an unlocker had already taken it off
    /// (a notification, hereby consumed). Callable without the lock.
    pub(crate) fn deregister(&self, reg: &Arc<Registration<T>>) -> bool {
        let mut list = self.list();
        let Some(i) = list.iter().position(|r| Arc::ptr_eq(r, reg)) else {
            return true;
        };
        list.remove(i);
        self.waiting.store(list.len(), Ordering::SeqCst);
        false
    }

    /// Count a waiter woken only to find its predicate false again.
    pub(crate) fn note_futile(&self) {
        self.futile.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluate the registered conditions against `data` (the unlocker
    /// must hold the lock) and take the satisfied registrations off the
    /// list, to be woken after the lock is released.
    pub(crate) fn evaluate(&self, data: &T) -> Vec<Arc<Registration<T>>> {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        let mut satisfied = Vec::new();
        let mut list = self.list();
        self.evaluated
            .fetch_add(list.len() as u64, Ordering::Relaxed);
        list.retain(|reg| {
            // Safety: `reg` is listed and we hold the registry mutex.
            let holds = unsafe { &*reg.cond }.holds(data);
            if holds {
                satisfied.push(Arc::clone(reg));
            }
            !holds
        });
        self.waiting.store(list.len(), Ordering::SeqCst);
        satisfied
    }

    /// Wake every registration in `satisfied` (take its waker and fire
    /// it); returns how many. Called *after* the lock is released.
    pub(crate) fn wake(&self, satisfied: Vec<Arc<Registration<T>>>) -> usize {
        for reg in &satisfied {
            // Fired after the waker mutex is released, as the enter
            // wake does: a waker may run arbitrary code, such as
            // dropping the future it wakes.
            let waker = reg.waker().take();
            if let Some(w) = waker {
                w.wake();
            }
        }
        self.wakeups
            .fetch_add(satisfied.len() as u64, Ordering::Relaxed);
        satisfied.len()
    }
}
