//! Conditional critical sections: the waiter registry and the
//! unlock-side condition evaluation behind every
//! [`Acquire::when`](crate::Acquire::when) request.
//!
//! Broadcasting every unlock to every waiter costs `O(waiters)` wakeups
//! per state transition even when it can satisfy one of them (Scott &
//! Scherer's wakeup storm). Instead each waiter registers its
//! *condition* next to its parking slot, and the **unlocker** — who
//! holds the lock and so sees a stable value — evaluates the registered
//! conditions and wakes exactly the waiters whose condition holds (the
//! nsync/abseil design). A wakeup is only a *hint*: the woken waiter
//! re-acquires and re-checks, so dropping one (a timeout racing a
//! wakeup) is harmless as long as every satisfiable waiter got its own.
//!
//! ## The registry
//!
//! One slot per pid, shared with the enter wait of the lock core, so
//! registration is index-based and allocation-free. A slot's
//! registration is a tiny state machine:
//!
//! ```text
//!  VACANT ──register (holding the lock)──▶ WAITING
//!  WAITING ──unlocker CAS──▶ EVALUATING ──cond false──▶ WAITING
//!                                │ cond true
//!                                ▼
//!                            NOTIFIED ──waiter deregister──▶ VACANT
//!  WAITING ──waiter deregister (timeout/cancel)──▶ VACANT
//! ```
//!
//! * `register` runs while *holding* the lock, so no state transition
//!   can be missed: any future unlock happens-after the registration.
//! * The unlocker evaluates under the lock, collects the satisfied
//!   waiters into a stack-allocated `WakeSet`, releases the lock
//!   (`exit_core` — the bounded-RMR paper path), and only then wakes
//!   them, so woken waiters never stampede into a still-held lock.
//! * A waiter deregistering concurrently with an evaluation spins the
//!   few instructions until the evaluator leaves its slot; the stored
//!   condition pointer is therefore never dereferenced after
//!   deregistration returns (this is what makes the borrowed-predicate
//!   registration sound — see `Slot::cond`).
//!
//! Fairness caveat: conditions are evaluated in pid order and all
//! satisfiable waiters race to re-acquire through the lock's normal
//! entry protocol; the registry adds no ordering of its own (DESIGN.md
//! §11 discusses the implications).

use crate::acquire::Predicate;
use crate::driver::IDLE;
use sal_core::park::Waiter;
use sal_memory::Pid;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::task::Waker;

/// Slot states — see the module docs for the transition diagram.
const VACANT: u8 = 0;
const WAITING: u8 = 1;
const EVALUATING: u8 = 2;
const NOTIFIED: u8 = 3;

/// Ceiling on registry slots; the lock algorithm's descriptor limit is
/// 1022 processes, so 16 × 64 bits always suffice for a `WakeSet`.
const MAX_SLOTS: usize = 1024;

/// A registered condition: a borrowed predicate, its lifetime erased for
/// storage (sound by the protocol on `Slot::cond`).
type StoredCond<T> = *const (dyn Predicate<T> + 'static);

/// How unlocks treat registered waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WakePolicy {
    /// Evaluate each registered condition under the lock at unlock and
    /// wake only the satisfiable waiters (the default, and the point of
    /// the design).
    #[default]
    Evaluate,
    /// Wake every registered waiter on every unlock — the classic
    /// broadcast condition variable, kept as the measured baseline
    /// (`tests/ccs_api.rs` compares the wakeups per transition of the
    /// two); behaviour is identical, only wakeup counts differ.
    Broadcast,
}

/// Counters of the conditional-critical-section machinery, snapshot via
/// [`AbortableMutex::ccs_stats`](crate::AbortableMutex::ccs_stats).
///
/// The headline ratio is `wakeups / transitions`: satisfiable waiters
/// per transition under evaluation, registered ones under broadcast.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcsStats {
    /// Wakes issued by unlockers.
    pub wakeups: u64,
    /// Unlocks that scanned a non-empty registry (state transitions
    /// observable by waiters).
    pub transitions: u64,
    /// Conditions evaluated by unlockers (0 under
    /// [`WakePolicy::Broadcast`]).
    pub evaluated: u64,
    /// Wait episodes taken by waiters.
    pub waits: u64,
    /// Wakeups that re-acquired the lock only to find their predicate
    /// false again (spurious under `Evaluate` — another waiter consumed
    /// the state first; pervasive under `Broadcast`).
    pub futile_wakeups: u64,
}

/// One pid's slot: its conditional registration, its enter-wait flags
/// and the two ways to wake it. Written by the pid that owns it, scanned
/// by unlockers.
pub(crate) struct Slot<T: ?Sized> {
    /// VACANT / WAITING / EVALUATING / NOTIFIED.
    state: AtomicU8,
    /// The registered condition.
    ///
    /// Safety: the pointee is a predicate borrowed from the registering
    /// waiter, its lifetime erased for storage. The protocol keeps every
    /// dereference inside the registration window: writes happen in
    /// `register` (slot VACANT, owner-only, before the `Release` store of
    /// WAITING), reads happen only in the EVALUATING window, and
    /// `deregister` refuses to return while an evaluator is in that
    /// window. A `RegistrationGuard` deregisters on unwind, so the window
    /// closes even if the waiting frame panics.
    cond: UnsafeCell<Option<StoredCond<T>>>,
    /// The wait an engaged enter waiter on this pid published: the word
    /// its next poll reads, encoded by the driver ([`IDLE`] when no
    /// enter waiter is engaged). Handoffs that name it wake the pid.
    pub(crate) wait: AtomicU64,
    /// Set by the handoff that woke this slot; the waiter swaps it out
    /// to attribute its wake (futile-wakeup accounting).
    pub(crate) hint: AtomicBool,
    /// Where a blocked thread parks.
    pub(crate) waiter: Waiter,
    /// Where a suspended task leaves its waker. A pid belongs to a parked
    /// thread or a suspended task, never both, so waking the spare
    /// mechanism is a no-op. The mutex is uncontended in practice.
    pub(crate) waker: Mutex<Option<Waker>>,
}

impl<T: ?Sized> Slot<T> {
    fn new() -> Self {
        Slot {
            state: AtomicU8::new(VACANT),
            cond: UnsafeCell::new(None),
            wait: AtomicU64::new(IDLE),
            hint: AtomicBool::new(false),
            waiter: Waiter::new(),
            waker: Mutex::new(None),
        }
    }

    /// Store the waker a task wants fired by the next handoff or
    /// notification.
    pub(crate) fn set_waker(&self, w: &Waker) {
        *self.waker.lock().unwrap() = Some(w.clone());
    }
}

/// Restores a slot to WAITING if the condition evaluation unwinds, so a
/// panicking user predicate cannot strand the waiter in EVALUATING
/// (where its deregistration would spin forever).
struct EvalGuard<'a> {
    state: &'a AtomicU8,
    armed: bool,
}

impl Drop for EvalGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.state.store(WAITING, Ordering::Release);
        }
    }
}

/// The set of slots one unlock decided to wake: fixed-size bitmap, so
/// collecting wakes never allocates on the unlock path.
pub(crate) struct WakeSet {
    bits: [u64; MAX_SLOTS / 64],
    any: bool,
}

impl WakeSet {
    fn new() -> Self {
        WakeSet {
            bits: [0; MAX_SLOTS / 64],
            any: false,
        }
    }

    fn add(&mut self, i: usize) {
        self.bits[i / 64] |= 1 << (i % 64);
        self.any = true;
    }

    fn contains(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }
}

/// The per-lock registry of pid slots; see the module docs.
pub(crate) struct CcsRegistry<T: ?Sized> {
    pub(crate) slots: Box<[Slot<T>]>,
    /// Exact count of registered (WAITING/EVALUATING/NOTIFIED) slots —
    /// the unlock fast path: zero means skip the scan entirely, so
    /// plain mutex traffic pays one load.
    waiting: AtomicUsize,
    policy: WakePolicy,
    wakeups: AtomicU64,
    transitions: AtomicU64,
    evaluated: AtomicU64,
    waits: AtomicU64,
    futile: AtomicU64,
}

// Safety: the registry stores raw condition pointers, but the protocol
// (documented on `Slot::cond`) confines every dereference to the
// registration window of a predicate that is `Sync` by its trait
// bound; `&T` is only ever produced by the lock holder. All other state
// is atomics, `Waiter` and a `Mutex` (Send + Sync).
unsafe impl<T: ?Sized> Send for CcsRegistry<T> {}
unsafe impl<T: ?Sized> Sync for CcsRegistry<T> {}

impl<T: ?Sized> CcsRegistry<T> {
    pub(crate) fn new(capacity: usize, policy: WakePolicy) -> Self {
        assert!(
            capacity <= MAX_SLOTS,
            "CCS registry capacity {capacity} exceeds {MAX_SLOTS}"
        );
        CcsRegistry {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            waiting: AtomicUsize::new(0),
            policy,
            wakeups: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            futile: AtomicU64::new(0),
        }
    }

    pub(crate) fn policy(&self) -> WakePolicy {
        self.policy
    }

    /// Number of currently registered waiters.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    pub(crate) fn has_waiters(&self) -> bool {
        self.waiting() > 0
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

    /// Register `cond` for `pid`. Caller must hold the lock (that is
    /// what makes registration race-free against state transitions) and
    /// must deregister before `cond`'s borrow ends. Async waits keep the
    /// predicate in a `Box` inside the future, so the borrow outlives the
    /// window even if the future is leaked.
    pub(crate) fn register<'a>(&self, pid: Pid, cond: &'a (dyn Predicate<T> + 'a)) {
        let slot = &self.slots[pid];
        debug_assert_eq!(slot.state.load(Ordering::Relaxed), VACANT);
        let ptr: *const (dyn Predicate<T> + 'a) = cond;
        // Safety: slot is VACANT, so no evaluator reads it; only the
        // owning pid writes it. Erasing the borrow's lifetime (a
        // fat-pointer transmute that changes only the lifetime bound)
        // is sound per the protocol on `Slot::cond`.
        unsafe {
            *slot.cond.get() = Some(std::mem::transmute::<
                *const (dyn Predicate<T> + 'a),
                StoredCond<T>,
            >(ptr));
        }
        self.waiting.fetch_add(1, Ordering::SeqCst);
        slot.state.store(WAITING, Ordering::Release);
    }

    /// Remove `pid`'s registration; returns whether a notification had
    /// been delivered (and is hereby consumed). Callable without the
    /// lock; spins out any in-flight evaluation of this slot first.
    pub(crate) fn deregister(&self, pid: Pid) -> bool {
        let slot = &self.slots[pid];
        let notified = loop {
            match slot
                .state
                .compare_exchange(WAITING, VACANT, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) => break false,
                Err(EVALUATING) => std::hint::spin_loop(),
                Err(NOTIFIED) => {
                    slot.state.store(VACANT, Ordering::Release);
                    break true;
                }
                Err(s) => unreachable!("deregister of pid {pid} found slot state {s}"),
            }
        };
        // Safety: state is VACANT again; only the owner touches the
        // pointer now.
        unsafe {
            *slot.cond.get() = None;
        }
        // Drop any unfired waker so a dead registration cannot be woken
        // later (and does not pin its task's allocation alive).
        slot.waker.lock().unwrap().take();
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        notified
    }

    /// Count one wait episode (a registration window).
    pub(crate) fn note_wait(&self) {
        self.waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a waiter woken only to find its predicate false again.
    pub(crate) fn note_futile(&self) {
        self.futile.fetch_add(1, Ordering::Relaxed);
    }

    /// Evaluate registered conditions against `data` (the unlocker must
    /// hold the lock) and return the set of waiters to wake after the
    /// lock is released. `skip` is the unlocker's own slot.
    pub(crate) fn evaluate(&self, skip: Pid, data: &T) -> WakeSet {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        let mut set = WakeSet::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if i == skip {
                continue;
            }
            match self.policy {
                WakePolicy::Broadcast => {
                    if slot
                        .state
                        .compare_exchange(WAITING, NOTIFIED, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                    {
                        set.add(i);
                    }
                }
                WakePolicy::Evaluate => {
                    if slot
                        .state
                        .compare_exchange(WAITING, EVALUATING, Ordering::Acquire, Ordering::Relaxed)
                        .is_err()
                    {
                        continue;
                    }
                    let mut guard = EvalGuard {
                        state: &slot.state,
                        armed: true,
                    };
                    // Safety: the slot was WAITING, so the pointer is
                    // registered and its waiter cannot leave while we
                    // are EVALUATING.
                    let cond = unsafe { &*(*slot.cond.get()).expect("WAITING slot has a cond") };
                    let satisfied = cond.holds(data);
                    self.evaluated.fetch_add(1, Ordering::Relaxed);
                    guard.armed = false;
                    if satisfied {
                        slot.state.store(NOTIFIED, Ordering::Release);
                        set.add(i);
                    } else {
                        slot.state.store(WAITING, Ordering::Release);
                    }
                }
            }
        }
        set
    }

    /// Wake every waiter in `set` (unpark, and fire a stored waker);
    /// returns how many. Called *after* the lock is released.
    pub(crate) fn wake(&self, set: &WakeSet) -> usize {
        if !set.any {
            return 0;
        }
        let mut n = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            if set.contains(i) {
                slot.waiter.unpark();
                if let Some(w) = slot.waker.lock().unwrap().take() {
                    w.wake();
                }
                n += 1;
            }
        }
        self.wakeups.fetch_add(n as u64, Ordering::Relaxed);
        n
    }
}

/// Deregisters on unwind so a panic elsewhere in the wait loop (e.g.
/// another waiter's predicate panicking inside our unlock-side
/// evaluation) cannot leave a dangling condition pointer registered.
pub(crate) struct RegistrationGuard<'a, T: ?Sized> {
    reg: &'a CcsRegistry<T>,
    pid: Pid,
    armed: bool,
}

impl<'a, T: ?Sized> RegistrationGuard<'a, T> {
    pub(crate) fn register(
        reg: &'a CcsRegistry<T>,
        pid: Pid,
        cond: &(dyn Predicate<T> + '_),
    ) -> Self {
        reg.register(pid, cond);
        RegistrationGuard {
            reg,
            pid,
            armed: true,
        }
    }

    /// Normal-path deregistration; returns whether a notification was
    /// consumed.
    pub(crate) fn deregister(mut self) -> bool {
        self.armed = false;
        self.reg.deregister(self.pid)
    }
}

impl<T: ?Sized> Drop for RegistrationGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.reg.deregister(self.pid);
        }
    }
}
