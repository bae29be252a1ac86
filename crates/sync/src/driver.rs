//! [`Core`]: the lock every `sal-sync` surface shares — the paper's
//! bounded long-lived lock over bare atomics plus the [`CcsRegistry`] of
//! per-pid slots — with its thread driver ([`Core::enter`]), its one
//! unlock ([`Core::release`]) and its conditional loop
//! ([`Core::hold_when`]). `AbortableMutex` owns a core, the async mutex
//! wraps that mutex, and the arena pools cores.
//!
//! The enter wait cannot lose a wakeup (the Dekker pattern): a waiter
//! bumps `parked` and sets `engaged` before its last poll reads the go
//! word; an unlocker, or an abort reporting `handed_off`, reads `parked`
//! after writing the go word and scans the slots only when it is
//! nonzero. Every access is `SeqCst`, so either the poll sees the
//! handoff or the scan sees the engagement.

use crate::acquire::{Limit, Predicate};
use crate::ccs::{CcsRegistry, RegistrationGuard, WakePolicy};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::resume::{EnterMachine, EnterStep};
use sal_core::{AbortReason, Immediate, LockCore};
use sal_memory::{AbortSignal, MemoryBuilder, NeverAbort, Pid, RawMemory};
use sal_obs::{probed, NoProbe, Probe};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Enter-machine polls a blocked thread spins through before it parks.
const SPIN_POLLS: u32 = 4096;

/// The shared lock core; see the module docs.
pub(crate) struct Core<T: ?Sized, P: Probe = NoProbe> {
    pub(crate) mem: RawMemory,
    pub(crate) lock: BoundedLongLivedLock,
    pub(crate) ccs: CcsRegistry<T>,
    /// Engaged enter waiters; unlockers skip the slot scan at zero.
    parked: AtomicUsize,
    /// Wakers fired by enter hints (the async driver's counters).
    pub(crate) enter_wakeups: AtomicU64,
    pub(crate) futile_enter_wakeups: AtomicU64,
    pub(crate) probe: P,
}

impl<T: ?Sized, P: Probe> Core<T, P> {
    pub(crate) fn new(capacity: usize, branching: usize, policy: WakePolicy, probe: P) -> Self {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, capacity, branching);
        Core {
            mem: b.build_raw(capacity),
            lock,
            ccs: CcsRegistry::new(capacity, policy),
            parked: AtomicUsize::new(0),
            enter_wakeups: AtomicU64::new(0),
            futile_enter_wakeups: AtomicU64::new(0),
            probe,
        }
    }

    /// Start an attempt: the lifecycle hook and a fresh machine.
    pub(crate) fn begin(&self, pid: Pid) -> EnterMachine {
        self.probe.enter_begin(pid);
        self.lock.begin_enter()
    }

    /// One machine poll, with every shared-memory operation observed by
    /// the probe.
    pub(crate) fn poll<S>(&self, machine: &mut EnterMachine, pid: Pid, signal: &S) -> EnterStep
    where
        S: AbortSignal + ?Sized,
    {
        let pm = probed(&self.mem, &self.probe);
        self.lock.poll_enter(machine, &pm, pid, signal, &self.probe)
    }

    /// Close a resolved attempt: the lifecycle hook, and a hint to the
    /// engaged waiters when an abort handed the lock on. Returns whether
    /// the lock is held.
    pub(crate) fn settle(&self, pid: Pid, step: EnterStep) -> bool {
        match step {
            EnterStep::Acquired { .. } => {
                self.probe.enter_end(pid, None);
                true
            }
            EnterStep::Aborted { handed_off, .. } => {
                self.probe.abort(pid, None);
                if handed_off {
                    self.hint_engaged();
                }
                false
            }
            EnterStep::Pending(_) => unreachable!("settling a pending attempt"),
        }
    }

    /// Resolve `machine` now with the pre-fired [`Immediate`] signal: it
    /// acquires or runs the whole abort path, in bounded steps (the async
    /// `try_lock` and the drop of a pending future).
    pub(crate) fn resolve_now(&self, pid: Pid, machine: &mut EnterMachine) -> bool {
        loop {
            let step = self.poll(machine, pid, &Immediate);
            if !step.pending() {
                return self.settle(pid, step);
            }
        }
    }

    /// The thread driver: acquire for `pid` under `limit`, spinning then
    /// parking (module docs). On `Err` the lock is not held.
    pub(crate) fn enter<S: AbortSignal>(
        &self,
        pid: Pid,
        limit: &Limit<S>,
    ) -> Result<(), AbortReason> {
        let mut machine = self.begin(pid);
        let mut spins = 0;
        let mut engaged = false;
        let step = loop {
            let step = self.poll(&mut machine, pid, limit);
            if !step.pending() {
                break step;
            }
            if spins < SPIN_POLLS {
                spins += 1;
            } else if !engaged {
                // Publish, then poll once more before the first park.
                self.engage(pid);
                engaged = true;
            } else {
                // A limit that expires is honoured by the next poll.
                let _ = limit.park(&self.ccs.slots[pid].waiter);
            }
        };
        if engaged {
            self.disengage(pid);
        }
        if self.settle(pid, step) {
            Ok(())
        } else {
            Err(limit.reason())
        }
    }

    /// Publish `pid` as an enter waiter unlockers must hint (idempotent).
    pub(crate) fn engage(&self, pid: Pid) {
        if !self.ccs.slots[pid].engaged.swap(true, Ordering::SeqCst) {
            self.parked.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Withdraw `pid`'s engagement and any waker it left.
    pub(crate) fn disengage(&self, pid: Pid) {
        let slot = &self.ccs.slots[pid];
        if slot.engaged.swap(false, Ordering::SeqCst) {
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        slot.waker.lock().unwrap().take();
    }

    /// Hint every engaged enter waiter: the unlocker cannot tell which
    /// pid the queue hands the lock to, so a hint is not a grant.
    fn hint_engaged(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        for slot in self.ccs.slots.iter() {
            if slot.engaged.load(Ordering::SeqCst) {
                slot.hint.store(true, Ordering::SeqCst);
                slot.waiter.unpark();
                if let Some(w) = slot.waker.lock().unwrap().take() {
                    self.enter_wakeups.fetch_add(1, Ordering::Relaxed);
                    w.wake();
                }
            }
        }
    }

    /// Release `pid`'s lock over `data`: evaluate registered conditions,
    /// exit, wake the satisfied, hint the engaged. With no waiters this is
    /// `exit_core` plus two loads.
    pub(crate) fn release(&self, pid: Pid, data: &UnsafeCell<T>) {
        if self.ccs.has_waiters() {
            // Safety: the caller holds the lock, so the protected value
            // is stable while the conditions run.
            let set = self.ccs.evaluate(pid, unsafe { &*data.get() });
            self.lock.exit_core(&self.mem, pid, &self.probe);
            let n = self.ccs.wake(&set);
            if n > 0 {
                self.probe.note(pid, "ccs-wake", n as u64);
            }
        } else {
            self.lock.exit_core(&self.mem, pid, &self.probe);
        }
        self.hint_engaged();
    }

    /// The conditional loop. Entered holding the lock; `Ok` returns
    /// holding it with `pred` true at the last check. On `Err` the limit
    /// expired: the lock is then held if `keep` (`await_when`, whose
    /// limit bounds the wait, not the re-acquisition), else released.
    pub(crate) fn hold_when<F, S>(
        &self,
        pid: Pid,
        data: &UnsafeCell<T>,
        pred: &F,
        limit: &Limit<S>,
        keep: bool,
    ) -> Result<(), AbortReason>
    where
        F: Predicate<T>,
        S: AbortSignal,
    {
        let mut woken = false;
        loop {
            // Safety: we hold the lock (loop invariant).
            if pred.holds(unsafe { &*data.get() }) {
                return Ok(());
            }
            if woken {
                self.ccs.note_futile();
            }
            if let Some(r) = limit.expired() {
                if !keep {
                    self.release(pid, data);
                }
                return Err(r);
            }
            // Register while holding the lock, so no transition is missed.
            let reg = RegistrationGuard::register(&self.ccs, pid, pred);
            self.release(pid, data);
            self.ccs.note_wait();
            let expired = limit.park(&self.ccs.slots[pid].waiter);
            woken = reg.deregister();
            if keep {
                self.enter(pid, &Limit::<NeverAbort>::Forever)?;
            } else if let Some(r) = expired {
                // A wakeup racing the limit is dropped — harmless, since
                // evaluation woke every satisfiable waiter.
                return Err(r);
            } else {
                self.enter(pid, limit)?;
            }
        }
    }
}
