//! The one lock path of every `sal-sync` surface: an inline word
//! ([`Word`]) in front of a lock core ([`Core`]).
//!
//! [`Core`] is the paper's bounded long-lived lock over bare atomics,
//! the pid admission ([`Pids`]), the per-pid enter-wait slots and the
//! [`CcsRegistry`] of conditional waiters, with its thread driver
//! ([`Core::enter`]), its one unlock ([`Core::release_then`]) and its
//! conditional loop ([`Core::hold_when`]). [`Word`] executes the
//! inline-word protocol of [`sal_core::arena_word`] over a source of
//! cores ([`Cores`]): an `AbortableMutex` is one word and one resident
//! core (a pool of one, claimed through a flag; the async mutex wraps
//! it), and an arena key is one word over the arena's pool.
//!
//! ## The inline word
//!
//! An uncontended acquisition is one CAS on the word
//! (`UNLOCKED → LOCKED_INLINE`) and takes no pid; its release is one CAS
//! back. An attempt that finds the word held inline *promotes* it:
//! it claims a core, takes a `users` seat, enters the free core solo as
//! the [`PROXY`] pid (standing in for the inline holder), and publishes
//! `MATERIALIZED(idx)`, or undoes all of it when the publish loses. It
//! then *joins* the core (a seat, then a pid under its limit) and queues
//! FCFS in the paper's lock with the bounded abort; the inline holder's
//! release, finding the word materialized, exits through the proxy. The
//! last participant out *demotes* the word back to `UNLOCKED` and gives
//! the core back. An attempt whose limit has expired when it sees the
//! word held inline fails at once, without a seat or a promotion.
//! `tests/arena_protocol.rs` model-checks these steps.
//!
//! What the paper's RMR bound covers: core passages, which are FCFS
//! from the promotion on. An inline passage costs two CAS and no RMR
//! bound is needed; a promotion costs one solo proxy passage of the
//! core (enter and exit).
//!
//! Probes see inline passages too: an inline holder reports under the
//! proxy pid (only the inline holder uses it; the proxy's own core
//! passage reports nothing), and an attempt that fails on the inline
//! word reports its abort under a pid checked out for the report
//! (nothing when none is free). So no two in-flight reports share a
//! pid.
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
//! **One engaged poll.** Both drivers wait through
//! [`Core::poll_engaged`]: store the waiter's waker in its pid's slot,
//! then make a `SeqCst` store of the key the poll reads (bumping
//! `parked` when the pid engages), then poll. A poll that moves on
//! within itself (epoch wait → doorway → queue) returns a different
//! key; the step publishes that and polls again before it reports
//! pending. The unlocker, or an abort reporting a handoff, writes the
//! go word, then reads `parked` and scans only when it is nonzero.
//! Every access is `SeqCst`, so either the waiter's read sees the go
//! word, or the scan sees the key naming that word (or [`ANY`]) and the
//! waker stored before it: no wakeup is lost. A handoff *takes* the
//! waker it fires, so every engaged poll stores it again.
//!
//! **Two drivers, one waker.** A task passes its context's waker and
//! returns pending. A blocked thread first spins through
//! [`SPIN_POLLS`] bare polls, then builds a waker that unparks it and
//! alternates engaged polls with [`Limit::park`]. A thread has one park
//! token, so a stale waker (say, a wake that raced a timeout) can end a
//! later park early; every thread wait re-checks its own condition, as
//! `park` may return spuriously anyway.
//!
//! **Who publishes exact keys.** A waiter whose wait only a handoff can
//! end publishes its key: the thread driver under every limit (a parked
//! thread wakes itself at its deadline or signal recheck), and a
//! [`Limit::Forever`] future. A limited future publishes [`ANY`] and is
//! woken by every handoff, since unlock traffic is what polls its limit
//! while it is queued (the async module's "Deadline caveat").

use crate::acquire::{thread_waker, Limit, Predicate};
use crate::ccs::{CcsRegistry, RegistrationGuard};
use sal_core::arena_word as word;
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::resume::{EnterMachine, EnterStep, Handoff, WaitKey};
use sal_core::{AbortReason, Immediate, LockCore};
use sal_memory::{AbortSignal, MemoryBuilder, NeverAbort, Pid, RawMemory};
use sal_obs::{probed, NoProbe, Probe};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::Waker;
use std::time::Duration;

/// Enter-machine polls a blocked thread spins through before it parks.
const SPIN_POLLS: u32 = 4096;

/// Published wait of a pid with no engaged enter waiter.
const IDLE: u64 = 0;
/// Published wait of an engaged waiter whose key is not known (a first
/// poll, or a limited future): every handoff wakes it.
const ANY: u64 = 1;

/// The published form of `key`: distinct from [`IDLE`], [`ANY`] and
/// every other key.
pub(crate) fn publish_code(key: WaitKey) -> u64 {
    match key {
        WaitKey::Epoch => 2,
        WaitKey::Slot { inst, ticket } => 3 + (u64::from(inst) << 32 | u64::from(ticket)),
    }
}

/// Why a pid-admission lock can be unusable: a panic while it was held.
const POISONED: &str = "pid admission poisoned by a panic";

/// A caller queued for a pid: `Waiting` until a [`Pids::put`] grants it
/// one (firing its waker), `Granted` until the caller claims it, and
/// `Dead` once claimed or cancelled.
enum Turn {
    Waiting(Waker),
    Granted(Pid),
    Dead,
}

/// A queued caller's place in [`Pids`]'s admission queue.
pub(crate) struct Ticket(Arc<Mutex<Turn>>);

impl Ticket {
    /// Take the granted pid if one arrived, else leave `waker` to be
    /// fired by the grant.
    pub(crate) fn claim(&self, waker: &Waker) -> Option<Pid> {
        let mut turn = self.0.lock().expect(POISONED);
        match &mut *turn {
            Turn::Granted(pid) => {
                let pid = *pid;
                *turn = Turn::Dead;
                Some(pid)
            }
            Turn::Waiting(w) => {
                if !w.will_wake(waker) {
                    *w = waker.clone();
                }
                None
            }
            Turn::Dead => unreachable!("pid ticket claimed after death"),
        }
    }
}

/// The pid admission every surface checks its attempts in through: a
/// free list plus a FIFO queue of tickets (module docs). Invariant: the
/// free list and the live part of the queue are never both non-empty.
pub(crate) struct Pids {
    inner: Mutex<PidsInner>,
}

struct PidsInner {
    free: Vec<Pid>,
    queue: VecDeque<Arc<Mutex<Turn>>>,
}

impl Pids {
    fn new(range: Range<Pid>) -> Self {
        Pids {
            inner: Mutex::new(PidsInner {
                // Reversed so `pop` hands out the lowest pid first.
                free: range.rev().collect(),
                queue: VecDeque::new(),
            }),
        }
    }

    /// A free pid, without waiting.
    pub(crate) fn try_take(&self) -> Option<Pid> {
        self.inner.lock().expect(POISONED).free.pop()
    }

    /// A free pid, or a place in the queue whose grant fires `waker`.
    pub(crate) fn take_or_queue(&self, waker: &Waker) -> Result<Pid, Ticket> {
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(pid) = inner.free.pop() {
            return Ok(pid);
        }
        let turn = Arc::new(Mutex::new(Turn::Waiting(waker.clone())));
        inner.queue.push_back(Arc::clone(&turn));
        Err(Ticket(turn))
    }

    /// A pid for a blocked thread, parking under `limit`; `None` once it
    /// expired.
    pub(crate) fn take<S: AbortSignal>(&self, limit: &Limit<S>) -> Option<Pid> {
        if let Some(pid) = self.try_take() {
            return Some(pid);
        }
        if limit.is_set() {
            return None;
        }
        let waker = thread_waker();
        let ticket = match self.take_or_queue(&waker) {
            Ok(pid) => return Some(pid),
            Err(ticket) => ticket,
        };
        let mut pid = None;
        if limit
            .wait(|| {
                pid = ticket.claim(&waker);
                pid.is_some()
            })
            .is_some()
        {
            self.cancel(ticket);
        }
        pid
    }

    /// Leave the queue, putting back a pid granted in the race.
    pub(crate) fn cancel(&self, ticket: Ticket) {
        let turn = std::mem::replace(&mut *ticket.0.lock().expect(POISONED), Turn::Dead);
        if let Turn::Granted(pid) = turn {
            self.put(pid);
        }
    }

    /// Give `pid` back: to the oldest live ticket (its waker fires
    /// outside the lock), else to the free list.
    pub(crate) fn put(&self, pid: Pid) {
        let waker = {
            let mut inner = self.inner.lock().expect(POISONED);
            loop {
                let Some(turn) = inner.queue.pop_front() else {
                    inner.free.push(pid);
                    return;
                };
                // A queued turn is waiting or dead (cancelled).
                let mut turn = turn.lock().expect(POISONED);
                match std::mem::replace(&mut *turn, Turn::Granted(pid)) {
                    Turn::Waiting(w) => break w,
                    _ => *turn = Turn::Dead,
                }
            }
        };
        waker.wake();
    }

    /// Pids on the free list.
    pub(crate) fn free(&self) -> usize {
        self.inner.lock().expect(POISONED).free.len()
    }

    /// Callers queued for a pid.
    pub(crate) fn queued(&self) -> usize {
        let inner = self.inner.lock().expect(POISONED);
        let waiting =
            |s: &&Arc<Mutex<Turn>>| matches!(*s.lock().expect(POISONED), Turn::Waiting(_));
        inner.queue.iter().filter(waiting).count()
    }
}

/// One pid's enter-wait state: the wait its engaged enter waiter
/// published and the waker that wakes it. Written by the pid's owner,
/// scanned by handoffs.
pub(crate) struct EnterSlot {
    /// The wait an engaged enter waiter on this pid published: the word
    /// its next poll reads, encoded by [`publish_code`] ([`IDLE`] when no
    /// enter waiter is engaged). Handoffs that name it wake the pid.
    pub(crate) wait: AtomicU64,
    /// Set by the handoff that woke this slot; the waiter swaps it out
    /// to attribute its wake (futile-wakeup accounting).
    pub(crate) hint: AtomicBool,
    /// The waker the next handoff that names `wait` takes and fires: a
    /// task's, or one that unparks a blocked thread. The mutex is
    /// uncontended in practice.
    waker: Mutex<Option<Waker>>,
}

impl EnterSlot {
    fn waker(&self) -> MutexGuard<'_, Option<Waker>> {
        self.waker.lock().expect("waker slot poisoned by a panic")
    }
}

/// The shared lock core; see the module docs.
pub(crate) struct Core<T: ?Sized, P: Probe = NoProbe> {
    pub(crate) mem: RawMemory,
    pub(crate) lock: BoundedLongLivedLock,
    pub(crate) slots: Box<[EnterSlot]>,
    pub(crate) ccs: CcsRegistry<T>,
    /// The pids attempts check out: all but [`PROXY`].
    pub(crate) pids: Pids,
    /// Engaged enter waiters; handoffs skip the slot scan at zero.
    parked: AtomicUsize,
    /// Wakers fired by handoffs, at blocked threads and tasks alike.
    pub(crate) enter_wakeups: AtomicU64,
    /// Engaged polls after a handoff's wake that still pended.
    pub(crate) futile_enter_wakeups: AtomicU64,
    pub(crate) probe: P,
}

impl<T: ?Sized, P: Probe> Core<T, P> {
    /// A core for `capacity` pids, the [`PROXY`] included.
    pub(crate) fn new(capacity: usize, branching: usize, probe: P) -> Self {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, capacity, branching);
        Core {
            mem: b.build_raw(capacity),
            lock,
            slots: (0..capacity)
                .map(|_| EnterSlot {
                    wait: AtomicU64::new(IDLE),
                    hint: AtomicBool::new(false),
                    waker: Mutex::new(None),
                })
                .collect(),
            ccs: CcsRegistry::new(),
            pids: Pids::new(PROXY + 1..capacity),
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
        let mut step = self.poll(&mut machine, pid, limit);
        for _ in 0..SPIN_POLLS {
            if !step.pending() {
                break;
            }
            step = self.poll(&mut machine, pid, limit);
        }
        if step.pending() {
            let waker = thread_waker();
            loop {
                step = self.poll_engaged(&mut machine, pid, limit, &waker, true);
                if !step.pending() {
                    break;
                }
                // A limit that expires is honoured by the next poll.
                limit.park();
            }
            self.disengage(pid);
        }
        if self.settle(pid, step) {
            Ok(())
        } else {
            Err(limit.reason())
        }
    }

    /// The engaged poll both drivers wait through (module docs): store
    /// `waker` in `pid`'s slot, publish the key the poll reads (or
    /// [`ANY`] unless `exact`), poll, and publish and poll again while
    /// the key moves. A pending result leaves `waker` to the handoff
    /// that names the published key.
    pub(crate) fn poll_engaged<S: AbortSignal>(
        &self,
        machine: &mut EnterMachine,
        pid: Pid,
        limit: &Limit<S>,
        waker: &Waker,
        exact: bool,
    ) -> EnterStep {
        let slot = &self.slots[pid];
        let hinted = slot.hint.swap(false, Ordering::SeqCst);
        *slot.waker() = Some(waker.clone());
        let step = loop {
            let code = match machine.wait_key() {
                Some(key) if exact => publish_code(key),
                _ => ANY,
            };
            self.publish(pid, code);
            match self.poll(machine, pid, limit) {
                EnterStep::Pending(key) if exact && publish_code(key) != code => {}
                step => break step,
            }
        };
        if hinted && step.pending() {
            self.futile_enter_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        step
    }

    /// Publish `code` as the wait of `pid`'s next poll, engaging the pid
    /// as an enter waiter if it was not (module docs).
    fn publish(&self, pid: Pid, code: u64) {
        if self.slots[pid].wait.swap(code, Ordering::SeqCst) == IDLE {
            self.parked.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Withdraw `pid`'s engagement, any waker it left and any hint a
    /// late handoff set.
    pub(crate) fn disengage(&self, pid: Pid) {
        let slot = &self.slots[pid];
        if slot.wait.swap(IDLE, Ordering::SeqCst) != IDLE {
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
        slot.hint.store(false, Ordering::SeqCst);
        // Dropped after the slot mutex is released, as in `wake`.
        let _waker = slot.waker().take();
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
        for slot in self.slots.iter() {
            let wait = slot.wait.load(Ordering::SeqCst);
            if wait != IDLE && (wait == ANY || wait == queue || wait == epoch) {
                slot.hint.store(true, Ordering::SeqCst);
                // Fired after the slot mutex is released: a waker may
                // drop the future it wakes, whose drop disengages.
                let waker = slot.waker().take();
                if let Some(w) = waker {
                    self.enter_wakeups.fetch_add(1, Ordering::Relaxed);
                    w.wake();
                }
            }
        }
    }

    /// Check a pid out and acquire the lock with it, both under
    /// `limit`. On `Err` nothing is held.
    pub(crate) fn take_and_enter<S: AbortSignal>(
        &self,
        limit: &Limit<S>,
    ) -> Result<Pid, AbortReason> {
        let pid = self.pids.take(limit).ok_or_else(|| limit.reason())?;
        match self.enter(pid, limit) {
            Ok(()) => Ok(pid),
            Err(r) => {
                self.pids.put(pid);
                Err(r)
            }
        }
    }

    /// Release `pid`'s lock and give the pid back.
    pub(crate) fn unlock(&self, pid: Pid, data: &UnsafeCell<T>) {
        self.release_then(pid, data, || ());
        self.pids.put(pid);
    }

    /// Release `pid`'s lock over `data`: evaluate registered conditions,
    /// run `f` still holding the lock (a waiter's own registration, so
    /// its release never evaluates it), exit, and wake the satisfied and
    /// the waiters the exit's handoff names. With no waiters of either
    /// kind this is the exit plus two loads.
    pub(crate) fn release_then<R>(
        &self,
        pid: Pid,
        data: &UnsafeCell<T>,
        f: impl FnOnce() -> R,
    ) -> R {
        let satisfied = if self.ccs.has_waiters() {
            // Safety: the caller holds the lock, so the protected value
            // is stable while the conditions run.
            self.ccs.evaluate(unsafe { &*data.get() })
        } else {
            Vec::new()
        };
        let r = f();
        // The proxy's passage is the inline holder's, reported at the word.
        let probe = (pid != PROXY).then_some(&self.probe);
        let handoff = self.lock.exit_probed(&self.mem, pid, &probe);
        if !satisfied.is_empty() {
            let n = self.ccs.wake(satisfied);
            self.probe.note(pid, "ccs-wake", n as u64);
        }
        self.wake(handoff);
        r
    }

    /// The conditional loop. Entered holding the lock through `*pid`;
    /// `Ok` returns holding it, through the pid now in `*pid`, with
    /// `pred` true at the last check. Each wait registers under the
    /// lock, gives back the lock and the pid, and takes both again when
    /// woken. On `Err` the limit expired: the lock is then held if `keep`
    /// (`await_when`, whose limit bounds the wait, not the
    /// re-acquisition), else nothing is.
    pub(crate) fn hold_when<F, S>(
        &self,
        pid: &mut Pid,
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
                    self.unlock(*pid, data);
                }
                return Err(r);
            }
            // Register while holding the lock, so no transition is missed.
            let waker = thread_waker();
            let reg = self.release_then(*pid, data, || {
                RegistrationGuard::register(&self.ccs, pred, &waker)
            });
            self.pids.put(*pid);
            let expired = limit.wait(|| reg.notified());
            woken = reg.deregister();
            *pid = if keep {
                self.take_and_enter(&Limit::<NeverAbort>::Forever)?
            } else if let Some(r) = expired {
                // A wakeup racing the limit is dropped — harmless, since
                // evaluation woke every satisfiable waiter.
                return Err(r);
            } else {
                self.take_and_enter(limit)?
            };
        }
    }
}

/// The pid a promoter enters a core with, standing in for the inline
/// holder. Every core admits only the pids above it; its passages are
/// the inline holder's, reported at the word.
pub(crate) const PROXY: Pid = 0;

/// A word's transition counters, kept by its source of cores.
#[derive(Default)]
pub(crate) struct Transitions {
    /// Inline → materialized.
    pub(crate) promotions: AtomicU64,
    /// Materialized → inline (core given back).
    pub(crate) demotions: AtomicU64,
    /// Promotions undone because the holder released, or another
    /// promoter published, first.
    pub(crate) raced_promotions: AtomicU64,
    /// Retries because an arena's pool had no free core.
    pub(crate) fallback_spins: AtomicU64,
}

/// A core a word promotes to: the shared [`Core`] and its participant
/// count (joiners, holders and the promotion proxy, or
/// [`word::USERS_DEMOTING`]); a demoted core goes back with its lock
/// free.
pub(crate) struct Seated<T: ?Sized, P: Probe = NoProbe> {
    pub(crate) users: AtomicUsize,
    pub(crate) core: Core<T, P>,
}

impl<T: ?Sized, P: Probe> Seated<T, P> {
    fn cas_users(&self, from: usize, to: usize) -> bool {
        let ord = Ordering::SeqCst;
        self.users.compare_exchange(from, to, ord, ord).is_ok()
    }
}

/// Where a word's promotions draw a core: an arena's pool, or a mutex's
/// one resident core, claimed through a flag (a pool of one, whose "none
/// free" only means another promoter or demoter is partway through its
/// few steps).
pub(crate) trait Cores {
    type T: ?Sized;
    type P: Probe;
    /// Whether inline passages report to the probe of core 0 (a mutex's
    /// resident core).
    const REPORTS: bool;
    /// Take a free core, or `None` when none is free.
    fn claim(&self) -> Option<u32>;
    /// Give a claimed core back.
    fn unclaim(&self, idx: u32);
    fn seated(&self, idx: u32) -> &Seated<Self::T, Self::P>;
    fn transitions(&self) -> &Transitions;
}

/// How an attempt holds a word's lock: through core `idx` with a
/// checked-out pid and a participant seat, or [`Hold::INLINE`]: the
/// [`PROXY`] pid, which stands for the inline holder in a core, is never
/// checked out, and is the pid inline passages report under. (A plain
/// struct, not an enum: an enum's uninitialized payload made every
/// inline acquisition copy it byte by byte.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hold {
    pub(crate) idx: u32,
    pub(crate) pid: Pid,
}

impl Hold {
    pub(crate) const INLINE: Hold = Hold { idx: 0, pid: PROXY };
}

/// One logical lock's inline word over its source of cores: the one
/// implementation of the word protocol (module docs).
pub(crate) struct Word<'a, C: Cores + ?Sized> {
    pub(crate) word: &'a AtomicU64,
    pub(crate) data: &'a UnsafeCell<C::T>,
    pub(crate) cores: &'a C,
}

impl<C: Cores + ?Sized> Word<'_, C> {
    fn cas(&self, from: u64, to: u64) -> bool {
        let ord = Ordering::SeqCst;
        self.word.compare_exchange(from, to, ord, ord).is_ok()
    }

    /// Report inline-word events through core 0 (a mutex's resident
    /// core), if the source reports.
    fn report(&self, f: impl FnOnce(&Core<C::T, C::P>)) {
        if C::REPORTS {
            f(&self.cores.seated(0).core);
        }
    }

    /// Take the word inline (`Ok(None)`) or a seat in the core that
    /// serves it (`Ok(Some(idx))`), promoting an inline hold on the way.
    /// Never blocks: a promoter enters a free core solo. `Err`: the word
    /// was held inline and `limit` had expired; no core was touched.
    #[inline]
    pub(crate) fn dispatch<S>(&self, limit: &Limit<S>) -> Result<Option<u32>, AbortReason>
    where
        S: AbortSignal,
    {
        let mut backoff = 0u32;
        loop {
            match word::decode(self.word.load(Ordering::SeqCst)) {
                word::WordState::Unlocked => {
                    if self.cas(word::UNLOCKED, word::LOCKED_INLINE) {
                        self.report(|core| {
                            core.probe.enter_begin(PROXY);
                            core.probe.enter_end(PROXY, None);
                        });
                        return Ok(None);
                    }
                }
                word::WordState::LockedInline => {
                    if let Some(r) = limit.expired() {
                        // Reported under a pid checked out for the report;
                        // nothing when none is free.
                        self.report(|core| {
                            if let Some(pid) = core.pids.try_take() {
                                core.probe.enter_begin(pid);
                                core.probe.abort(pid, None);
                                core.pids.put(pid);
                            }
                        });
                        return Err(r);
                    }
                    if self.materialize(false).is_none() {
                        backoff_step(&mut backoff);
                    }
                }
                word::WordState::Materialized(idx) => {
                    if self.join(idx as u32) {
                        return Ok(Some(idx as u32));
                    }
                }
            }
        }
    }

    /// The blocking attempt: the word, or a seat, a pid and the core's
    /// lock under `limit`. On `Err` nothing is held.
    #[inline]
    pub(crate) fn enter<S: AbortSignal>(&self, limit: &Limit<S>) -> Result<Hold, AbortReason> {
        match self.dispatch(limit)? {
            None => Ok(Hold::INLINE),
            Some(idx) => self.enter_core(idx, limit),
        }
    }

    /// Check a pid out of seated core `idx` and run its thread driver;
    /// on `Err` the seat is given up. Out of line, so the inline path
    /// stays small.
    #[cold]
    fn enter_core<S: AbortSignal>(&self, idx: u32, limit: &Limit<S>) -> Result<Hold, AbortReason> {
        let pid = self.cores.seated(idx).core.take_and_enter(limit);
        if pid.is_err() {
            self.depart(idx);
        }
        pid.map(|pid| Hold { idx, pid })
    }

    /// [`Core::hold_when`] over `*hold` (after [`enter`](Self::enter), the
    /// rest of a whole attempt: `pred` true under the lock). An inline
    /// holder whose
    /// predicate is false first materializes the word with a checked-out
    /// pid (the registry lives in the core); its seat is kept across
    /// every wait, so the core stays while it waits.
    #[inline]
    pub(crate) fn hold_when<F, S>(
        &self,
        hold: &mut Hold,
        pred: &F,
        limit: &Limit<S>,
        keep: bool,
    ) -> Result<(), AbortReason>
    where
        F: Predicate<C::T>,
        S: AbortSignal,
    {
        let mut backoff = 0u32;
        loop {
            if *hold != Hold::INLINE {
                let core = &self.cores.seated(hold.idx).core;
                let r = core.hold_when(&mut hold.pid, self.data, pred, limit, keep);
                if r.is_err() && !keep {
                    self.depart(hold.idx);
                }
                return r;
            }
            // Safety: we hold the lock inline.
            if pred.holds(unsafe { &*self.data.get() }) {
                return Ok(());
            }
            if let Some(r) = limit.expired() {
                if !keep {
                    self.unlock(Hold::INLINE);
                }
                return Err(r);
            }
            match self.materialize(true) {
                Some((idx, pid)) => *hold = Hold { idx, pid },
                None => {
                    // Raced (the proxy now stands for our hold) or nothing
                    // free: release, back off, and take the lock again.
                    self.unlock(Hold::INLINE);
                    backoff_step(&mut backoff);
                    *hold = if keep {
                        self.enter(&Limit::<NeverAbort>::Forever)?
                    } else {
                        self.enter(limit)?
                    };
                }
            }
        }
    }

    /// Release `hold`. An inline hold that a promotion took over exits
    /// through the proxy pid; a core hold gives its pid and seat back.
    #[inline]
    pub(crate) fn unlock(&self, hold: Hold) {
        if hold == Hold::INLINE {
            // Reported first: once the word is free, another holder
            // reports under the proxy pid.
            self.report(|core| core.probe.cs_exit(PROXY));
            if !self.cas(word::LOCKED_INLINE, word::UNLOCKED) {
                self.proxy_unlock();
            }
        } else {
            self.cores.seated(hold.idx).core.unlock(hold.pid, self.data);
            self.depart(hold.idx);
        }
    }

    /// The proxy unlock: our inline hold was promoted, so the proxy pid
    /// holds the core for us; exit through it and give up its seat.
    #[cold]
    fn proxy_unlock(&self) {
        let w = word::decode(self.word.load(Ordering::SeqCst));
        let word::WordState::Materialized(idx) = w else {
            unreachable!("inline hold can only change by promotion, found {w:?}");
        };
        let idx = idx as u32;
        let core = &self.cores.seated(idx).core;
        core.release_then(PROXY, self.data, || ());
        self.depart(idx);
    }

    /// Promote an inline-held word: claim a core, take a seat, enter it
    /// as the holder — through [`PROXY`] for someone else's hold, or a
    /// checked-out pid for `ours` (a conditional wait needs a registry)
    /// — and publish `LOCKED_INLINE → MATERIALIZED(idx)`. `None`: no core
    /// (or, for `ours`, no pid) was free, or the publish lost (the holder
    /// released, or another promoter won) and was fully undone.
    #[cold]
    pub(crate) fn materialize(&self, ours: bool) -> Option<(u32, Pid)> {
        let idx = self.cores.claim()?;
        let s = self.cores.seated(idx);
        let (core, pids) = (&s.core, &s.core.pids);
        // Only a failed attempt's report can hold a pid of an unclaimed
        // core, and only for a moment.
        let pid = if ours { pids.try_take() } else { Some(PROXY) };
        let Some(pid) = pid else {
            self.cores.unclaim(idx);
            return None;
        };
        s.users.fetch_add(1, Ordering::SeqCst);
        let outcome = core.lock.enter_core(&core.mem, pid, &NeverAbort, &NoProbe);
        debug_assert!(outcome.entered(), "a claimed core acquires immediately");
        let counts = self.cores.transitions();
        if self.cas(word::LOCKED_INLINE, word::materialized(idx as usize)) {
            counts.promotions.fetch_add(1, Ordering::Relaxed);
            if ours {
                // Our inline passage ends; a core passage holds on.
                core.probe.cs_exit(PROXY);
                core.probe.enter_begin(pid);
                core.probe.enter_end(pid, None);
            }
            return Some((idx, pid));
        }
        core.lock.exit_core(&core.mem, pid, &NoProbe);
        if ours {
            pids.put(pid);
        }
        s.users.fetch_sub(1, Ordering::SeqCst);
        self.cores.unclaim(idx);
        counts.raced_promotions.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Become a counted participant of core `idx`, or back off (`false`)
    /// if it is demoting or no longer serves this word. Increment first,
    /// revalidate the word after (module docs).
    #[cold]
    fn join(&self, idx: u32) -> bool {
        let s = self.cores.seated(idx);
        loop {
            // `None`: a demotion is in flight; the demoter changes the
            // word before it gives the core back, so re-reading it makes
            // progress.
            let u = s.users.load(Ordering::SeqCst);
            let Some(next) = word::join_users(u) else {
                return false;
            };
            if !s.cas_users(u, next) {
                continue;
            }
            if self.word.load(Ordering::SeqCst) == word::materialized(idx as usize) {
                return true;
            }
            // The core moved on (demoted, perhaps re-promoted for another
            // word) between our read and our increment: undo.
            s.users.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
    }

    /// Give up a seat in core `idx`; the last one out demotes the word
    /// and gives the core back.
    pub(crate) fn depart(&self, idx: u32) {
        let s = self.cores.seated(idx);
        loop {
            let u = s.users.load(Ordering::SeqCst);
            debug_assert!(u != 0 && u != word::USERS_DEMOTING, "departing a dead core");
            if !word::may_demote(u) {
                if s.cas_users(u, u - 1) {
                    return;
                }
            } else if s.cas_users(u, word::USERS_DEMOTING) {
                // Sole participant ⇒ the core's lock is free (any holder,
                // waiter or proxy is counted) and its registry is empty.
                // Word first (joiners on the sentinel re-read it), then
                // the counter, then the core.
                let prev = self.word.swap(word::UNLOCKED, Ordering::SeqCst);
                debug_assert_eq!(prev, word::materialized(idx as usize));
                s.users.store(0, Ordering::SeqCst);
                self.cores.unclaim(idx);
                let counts = self.cores.transitions();
                counts.demotions.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Backoff while no core is free: brief spins, then yields, then short
/// sleeps.
fn backoff_step(step: &mut u32) {
    *step = step.saturating_add(1);
    match *step {
        0..=4 => (0..1u32 << *step).for_each(|_| std::hint::spin_loop()),
        5..=16 => std::thread::yield_now(),
        _ => std::thread::sleep(Duration::from_micros(u64::from((*step - 16).min(6)) * 10)),
    }
}
