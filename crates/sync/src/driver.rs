//! [`Core`]: the lock every `sal-sync` surface shares — the paper's
//! bounded long-lived lock over bare atomics plus the [`CcsRegistry`] of
//! per-pid slots — with its thread driver ([`Core::enter`]), its one
//! unlock ([`Core::release`]) and its conditional loop
//! ([`Core::hold_when`]). `AbortableMutex` owns a core, the async mutex
//! wraps that mutex, and the arena pools cores.
//!
//! ## Targeted handoff wakes
//!
//! An exit knows whom it releases: `SignalNext` sets one queue slot's go
//! word, and an instance switch sets the epoch's spin node. The lock
//! reports both as a [`Handoff`], and each engaged enter waiter
//! publishes the [`WaitKey`] of the word it reads in its pid's slot, so
//! an unlock wakes only the waiters its handoff names. An exit with no
//! handoff scans nothing.
//!
//! **Publish, then poll.** Every engaged poll is preceded by a `SeqCst`
//! store of the key that poll reads (bumping `parked` when the pid
//! engages). The waker driver stores before each poll, after its waker,
//! so a scan that reads the key also sees the waker; the thread driver
//! stores when the key changes. A poll that moves on within itself
//! (epoch wait → doorway → queue) returns a different key; the waiter
//! publishes that and polls again before it parks. The unlocker, or an
//! abort reporting a handoff, writes the go word, then reads `parked`
//! and scans only when it is nonzero. Every access is `SeqCst`, so
//! either the waiter's read sees the go word, or the scan sees the key
//! naming that word (or [`ANY`]): no wakeup is lost.
//!
//! **Who publishes exact keys.** A waiter whose wait only a handoff can
//! end publishes its key: the thread driver under every limit (a parked
//! thread wakes itself at its deadline or signal recheck), and a
//! [`Limit::Forever`] future. A limited future publishes [`ANY`] and is
//! woken by every handoff, since unlock traffic is what polls its limit
//! while it is queued (the async module's "Deadline caveat").

use crate::acquire::{Limit, Predicate};
use crate::ccs::{CcsRegistry, RegistrationGuard, WakePolicy};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::resume::{EnterMachine, EnterStep, Handoff, WaitKey};
use sal_core::{AbortReason, Immediate};
use sal_memory::{AbortSignal, MemoryBuilder, NeverAbort, Pid, RawMemory};
use sal_obs::{probed, NoProbe, Probe};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Enter-machine polls a blocked thread spins through before it parks.
const SPIN_POLLS: u32 = 4096;

/// Published wait of a pid with no engaged enter waiter.
pub(crate) const IDLE: u64 = 0;
/// Published wait of an engaged waiter whose key is not known (a first
/// poll, or a limited future): every handoff wakes it.
pub(crate) const ANY: u64 = 1;

/// The published form of `key`: distinct from [`IDLE`], [`ANY`] and
/// every other key.
pub(crate) fn publish_code(key: WaitKey) -> u64 {
    match key {
        WaitKey::Epoch => 2,
        WaitKey::Slot { inst, ticket } => 3 + (u64::from(inst) << 32 | u64::from(ticket)),
    }
}

/// The shared lock core; see the module docs.
pub(crate) struct Core<T: ?Sized, P: Probe = NoProbe> {
    pub(crate) mem: RawMemory,
    pub(crate) lock: BoundedLongLivedLock,
    pub(crate) ccs: CcsRegistry<T>,
    /// Engaged enter waiters; handoffs skip the slot scan at zero.
    parked: AtomicUsize,
    /// Wakers fired by handoffs (the async driver's counters).
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

    /// Close a resolved attempt: the lifecycle hook, and a wake for the
    /// waiters an abort's handoff names. Returns whether the lock is held.
    pub(crate) fn settle(&self, pid: Pid, step: EnterStep) -> bool {
        match step {
            EnterStep::Acquired { .. } => {
                self.probe.enter_end(pid, None);
                true
            }
            EnterStep::Aborted { handoff, .. } => {
                self.probe.abort(pid, None);
                self.wake(handoff);
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
        let mut published = None;
        let step = loop {
            let step = self.poll(&mut machine, pid, limit);
            let EnterStep::Pending(key) = step else {
                break step;
            };
            if spins < SPIN_POLLS {
                spins += 1;
            } else if published != Some(key) {
                // Publish, then poll once more before parking on `key`.
                self.publish(pid, publish_code(key));
                published = Some(key);
            } else {
                // A limit that expires is honoured by the next poll.
                let _ = limit.park(&self.ccs.slots[pid].waiter);
            }
        };
        if published.is_some() {
            self.disengage(pid);
        }
        if self.settle(pid, step) {
            Ok(())
        } else {
            Err(limit.reason())
        }
    }

    /// Publish `code` as the wait of `pid`'s next poll, engaging the pid
    /// as an enter waiter if it was not (module docs).
    pub(crate) fn publish(&self, pid: Pid, code: u64) {
        if self.ccs.slots[pid].wait.swap(code, Ordering::SeqCst) == IDLE {
            self.parked.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Withdraw `pid`'s engagement and any waker it left.
    pub(crate) fn disengage(&self, pid: Pid) {
        let slot = &self.ccs.slots[pid];
        if slot.wait.swap(IDLE, Ordering::SeqCst) != IDLE {
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        slot.waker.lock().unwrap().take();
    }

    /// Wake the engaged waiters `handoff` names, and those that
    /// published [`ANY`].
    fn wake(&self, handoff: Handoff) {
        if handoff.is_none() || self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let queue = handoff.slot().map_or(IDLE, publish_code);
        let epoch = if handoff.switched() {
            publish_code(WaitKey::Epoch)
        } else {
            IDLE
        };
        for slot in self.ccs.slots.iter() {
            let wait = slot.wait.load(Ordering::SeqCst);
            if wait != IDLE && (wait == ANY || wait == queue || wait == epoch) {
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
    /// exit, wake the satisfied and the waiters the exit's handoff names.
    /// With no waiters of either kind this is the exit plus two loads.
    pub(crate) fn release(&self, pid: Pid, data: &UnsafeCell<T>) {
        let handoff = if self.ccs.has_waiters() {
            // Safety: the caller holds the lock, so the protected value
            // is stable while the conditions run.
            let set = self.ccs.evaluate(pid, unsafe { &*data.get() });
            let handoff = self.lock.exit_probed(&self.mem, pid, &self.probe);
            let n = self.ccs.wake(&set);
            if n > 0 {
                self.probe.note(pid, "ccs-wake", n as u64);
            }
            handoff
        } else {
            self.lock.exit_probed(&self.mem, pid, &self.probe)
        };
        self.wake(handoff);
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
