//! The one lock path of every `sal-sync` surface: an inline word
//! ([`Word`]) in front of a lock core ([`Core`]), walked by one attempt
//! state machine ([`Attempt`]).
//!
//! [`Core`] is the paper's bounded long-lived lock over bare atomics,
//! the pid admission ([`Pids`]), the per-pid enter-wait slots and the
//! [`CcsRegistry`] of conditional waiters, with its one engaged poll
//! ([`Core::poll_engaged`]) and its one unlock ([`Core::release_then`]).
//! [`Word`] executes the inline-word protocol of [`sal_core::arena_word`]
//! over a source of cores ([`Cores`]): an `AbortableMutex` is one word
//! and one resident core (a pool of one, claimed through a flag; the
//! async mutex wraps it), and an arena key is one word over the arena's
//! pool.
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
//! (nothing when none is free, or when the probe records nothing). So
//! no two in-flight reports share a pid.
//!
//! ## One attempt
//!
//! Past the inline fast path (the word taken with one CAS and the
//! predicate true, before any attempt exists), every acquisition is an
//! [`Attempt`]: the paper's resumable `Enter` and what the surfaces add
//! around it, as one state machine that may stop at any step.
//!
//! ```text
//! Fresh ─word held inline─▶ Held(inline)    Fresh ─word contended─▶ Fresh(seat)
//! Fresh(seat) ─free pid─▶ Enter ─acquired─▶ Held      Enter ─aborted─▶ Err
//!      └─no pid─▶ PidWait ─granted─▶ Enter
//! Held ─predicate true─▶ Ok(hold)    Held ─false─▶ CondWait ─notified─▶ Fresh(seat)
//! ```
//!
//! A conditional wait registers under the lock, then gives back the lock
//! and its pid but keeps its seat, so the core stays; an inline hold
//! first materializes the word with a pid of its own, since the registry
//! lives in the core. Only a notification or the limit ends the wait.
//! [`Attempt::step`] advances until the attempt resolves or must wait,
//! leaving the caller's waker where the wait fires it: a pid ticket, its
//! pid's enter slot, or its registration. Dropping a pending attempt is
//! the bounded cleanup: the ticket is cancelled, the registration
//! withdrawn, and an enter machine resolved with the pre-fired
//! [`Immediate`] signal, which acquires (then releases) or runs the whole
//! abort.
//!
//! **One attempt, two ways to wait.** A task's future steps with its
//! context's waker and returns pending. A blocked thread
//! ([`Attempt::block`]) steps with a waker that unparks it, built once
//! per thread ([`THREAD_WAKER`]), and [`Limit::park`]s between steps. A
//! thread has one park token, so a stale waker (say, a wake that raced a
//! timeout) can end a later park early; every step re-checks its own
//! condition, as `park` may return spuriously anyway. An `Immediate`
//! attempt never waits, so every `try_lock` takes its one step with a
//! no-op waker. The two drivers differ in two values, both fixed here:
//! a thread spins [`SPIN_POLLS`] bare polls of each enter machine before
//! its first engaged poll (a task none), and a thread always publishes
//! exact wait keys (below).
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
//! **One engaged poll.** Every enter wait goes through
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
//! **Who publishes exact keys.** A waiter whose wait only a handoff can
//! end publishes its key: a thread under every limit (a parked thread
//! wakes itself at its deadline or signal recheck), and a task under
//! [`Limit::Forever`]. A limited task publishes [`ANY`] and is woken by
//! every handoff, since unlock traffic is what polls its limit while it
//! is queued (the async module's "Deadline caveat").

use crate::acquire::{Limit, Predicate, THREAD_WAKER};
use crate::ccs::{CcsRegistry, Registration};
use sal_core::arena_word as word;
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::resume::{EnterMachine, EnterStep, Handoff, WaitKey};
use sal_core::{AbortReason, Immediate, LockCore};
use sal_memory::{AbortSignal, MemoryBuilder, NeverAbort, Pid, RawMemory};
use sal_obs::{probed, NoProbe, Probe};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Poll, Waker};
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
                w.clone_from(waker);
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

    /// A free pid; else, if `may_queue()`, a place in the queue whose
    /// grant fires `waker` (`Err(Some)`); else `Err(None)`.
    pub(crate) fn take_or_queue(
        &self,
        waker: &Waker,
        may_queue: impl FnOnce() -> bool,
    ) -> Result<Pid, Option<Ticket>> {
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(pid) = inner.free.pop() {
            return Ok(pid);
        }
        if !may_queue() {
            return Err(None);
        }
        let turn = Arc::new(Mutex::new(Turn::Waiting(waker.clone())));
        inner.queue.push_back(Arc::clone(&turn));
        Err(Some(Ticket(turn)))
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
    /// Attempts that found no free pid and queued for one.
    pub(crate) pid_waits: AtomicU64,
    /// Attempts dropped in the enter wait; each one ran the bounded
    /// abort (or took a just-granted lock and released it).
    pub(crate) cancelled_pending: AtomicU64,
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
            pid_waits: AtomicU64::new(0),
            cancelled_pending: AtomicU64::new(0),
            probe,
        }
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

    /// The engaged poll every enter wait goes through (module docs): store
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
        let satisfied = if self.ccs.waiting() > 0 {
            // Safety: the caller holds the lock, so the protected value
            // is stable while the conditions run.
            self.ccs.evaluate(unsafe { &*data.get() })
        } else {
            Vec::new()
        };
        let r = f();
        // The proxy's passage is the inline holder's, reported at the word.
        let probe = (pid != PROXY).then_some(&self.probe);
        let handoff = self.lock.exit(&self.mem, pid, &probe);
        if !satisfied.is_empty() {
            let n = self.ccs.wake(satisfied);
            self.probe.note(pid, "ccs-wake", n as u64);
        }
        self.wake(handoff);
        r
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

/// Releases an inline hold on unwind: armed around the fast path's first
/// predicate check, which runs before any [`Attempt`] owns the hold.
struct InlineUnwind<'a, C: Cores + ?Sized>(Word<'a, C>);

impl<C: Cores + ?Sized> Drop for InlineUnwind<'_, C> {
    fn drop(&mut self) {
        self.0.unlock(Hold::INLINE);
    }
}

impl<C: Cores + ?Sized> Clone for Word<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: Cores + ?Sized> Copy for Word<'_, C> {}

// Safety: a word is a shared reference to one logical lock, like
// `&Mutex<T>`: `word` is an atomic, `cores` is shared only if `C: Sync`,
// and `data` is reached only under that lock, so sending or sharing the
// value across threads needs exactly `T: Send`.
unsafe impl<C: Cores + Sync + ?Sized> Send for Word<'_, C> where C::T: Send {}
unsafe impl<C: Cores + Sync + ?Sized> Sync for Word<'_, C> where C::T: Send {}

impl<C: Cores + ?Sized> Word<'_, C> {
    fn cas(&self, from: u64, to: u64) -> bool {
        let ord = Ordering::SeqCst;
        self.word.compare_exchange(from, to, ord, ord).is_ok()
    }

    /// Report inline-word events through core 0 (a mutex's resident
    /// core), if the source reports and its probe records anything.
    fn report(&self, f: impl FnOnce(&Core<C::T, C::P>)) {
        if C::REPORTS && self.cores.seated(0).core.probe.enabled() {
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

    /// A blocked thread's attempt at `pred` under `limit`: the inline
    /// fast path (the word taken with one CAS and `pred` true), else the
    /// thread driver over an [`Attempt`]. On `Err` nothing is held.
    #[inline]
    pub(crate) fn acquire<F, S>(&self, pred: &F, limit: Limit<S>) -> Result<Hold, AbortReason>
    where
        F: Predicate<C::T>,
        S: AbortSignal,
    {
        let seat = self.dispatch(&limit)?;
        if seat.is_none() {
            // A panicking `pred` releases the inline hold; for `Always`
            // nothing can unwind, so the guard compiles away.
            let unwind = InlineUnwind(*self);
            // Safety: the word is ours inline, so the value is stable.
            let holds = pred.holds(unsafe { &*self.data.get() });
            std::mem::forget(unwind);
            if holds {
                return Ok(Hold::INLINE);
            }
        }
        self.contended(seat, pred, limit)
    }

    /// [`acquire`](Self::acquire) past the fast path; out of line, so the
    /// inline path stays small.
    #[cold]
    fn contended<F, S>(
        &self,
        seat: Option<u32>,
        pred: &F,
        limit: Limit<S>,
    ) -> Result<Hold, AbortReason>
    where
        F: Predicate<C::T>,
        S: AbortSignal,
    {
        // The word is held inline with `pred` false, or a seat is taken.
        let mut attempt = Attempt::new(*self, pred, limit);
        attempt.st = seat.map_or(State::Held(Hold::INLINE), |_| State::Fresh);
        (attempt.seat, attempt.thread) = (seat, true);
        attempt.block()
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

/// Where an [`Attempt`] stands (module docs, "One attempt").
pub(crate) enum State<T: ?Sized> {
    /// Holding no lock and no pid: tries the word, or with a seat takes
    /// a pid.
    Fresh,
    /// Queued for a pid of the seated core.
    PidWait(Ticket),
    /// Driving the enter machine with a checked-out pid.
    Enter { pid: Pid, machine: EnterMachine },
    /// Holding the lock (a core hold carries the seat): the predicate
    /// decides.
    Held(Hold),
    /// Registered in a conditional wait, holding neither lock nor pid.
    CondWait(Arc<Registration<T>>),
    /// Resolved: the hold, if any, is the caller's.
    Done,
}

/// One acquisition past the inline fast path, for a thread or a task
/// alike: a [`State`] stepped by [`step`](Self::step) (module docs). `Q`
/// is the predicate, by reference or boxed; it stays put while
/// registered.
pub(crate) struct Attempt<'a, C: Cores + ?Sized, Q, S> {
    word: Word<'a, C>,
    pred: Q,
    limit: Limit<S>,
    pub(crate) st: State<C::T>,
    /// The core this attempt has a participant seat in, unless a core
    /// hold carries it.
    seat: Option<u32>,
    /// A blocked thread's attempt: it spins, and publishes exact keys.
    thread: bool,
    /// Bare polls left before the enter machine waits engaged.
    spins: u32,
    /// `await_when`: the limit bounds only the conditional wait, so the
    /// attempt (re-)acquires as long as it takes and an expired limit
    /// resolves `Err` still holding the lock.
    keep: bool,
    /// The guard hold a blocked thread's `keep` attempt leaves the lock
    /// in when dropped holding it (also by unwinding), for the guard to
    /// release; any other attempt releases it itself.
    home: Option<&'a mut Hold>,
    /// Whether the last conditional wait was notified (futile-wakeup
    /// accounting).
    woken: bool,
}

impl<'a, C: Cores + ?Sized, Q, S> Attempt<'a, C, Q, S> {
    /// A task's attempt: its first step tries the word. (A thread's
    /// starts past the word: [`Word::acquire`].)
    pub(crate) fn new(word: Word<'a, C>, pred: Q, limit: Limit<S>) -> Self {
        Attempt {
            word,
            pred,
            limit,
            st: State::Fresh,
            seat: None,
            thread: false,
            spins: 0,
            keep: false,
            home: None,
            woken: false,
        }
    }

    /// A `keep` attempt resuming from `hold` (`await_when`). A blocked
    /// thread lends its guard's hold as `home`; a task passes `None`.
    pub(crate) fn resume(
        word: Word<'a, C>,
        hold: Hold,
        pred: Q,
        limit: Limit<S>,
        home: Option<&'a mut Hold>,
    ) -> Self {
        let mut attempt = Self::new(word, pred, limit);
        attempt.st = State::Held(hold);
        (attempt.thread, attempt.keep, attempt.home) = (home.is_some(), true, home);
        attempt
    }

    /// The lock a `keep` attempt still holds once it resolved `Err`.
    pub(crate) fn kept(&mut self) -> Hold {
        let State::Held(hold) = std::mem::replace(&mut self.st, State::Done) else {
            unreachable!("only an expired keep attempt keeps a hold");
        };
        hold
    }

    /// Give back whatever the attempt holds, in a bounded number of its
    /// own steps: the cleanup of a failure and of a drop.
    fn release(&mut self) {
        let word = self.word;
        let core = |seat: Option<u32>| &word.cores.seated(seat.expect("seated")).core;
        match std::mem::replace(&mut self.st, State::Done) {
            State::Fresh | State::Done => {}
            State::Held(hold) => match self.home.take() {
                Some(home) => *home = hold,
                None => word.unlock(hold),
            },
            State::PidWait(ticket) => core(self.seat).pids.cancel(ticket),
            State::CondWait(reg) => {
                core(self.seat).ccs.deregister(&reg);
            }
            State::Enter { pid, mut machine } => {
                // Cancellation is the paper's abort: a poll with the
                // pre-fired signal never pends; it takes a lock handed
                // over in the race window (release it) or runs the whole
                // abort.
                let core = core(self.seat);
                core.disengage(pid);
                core.cancelled_pending.fetch_add(1, Ordering::Relaxed);
                if core.settle(pid, core.poll(&mut machine, pid, &Immediate)) {
                    core.unlock(pid, word.data);
                } else {
                    core.pids.put(pid);
                }
            }
        }
        if let Some(idx) = self.seat.take() {
            word.depart(idx);
        }
    }

    /// Resolve with `r`, holding nothing.
    fn fail(&mut self, r: AbortReason) -> Poll<Result<Hold, AbortReason>> {
        self.release();
        Poll::Ready(Err(r))
    }
}

impl<C, Q, S> Attempt<'_, C, Q, S>
where
    C: Cores + ?Sized,
    Q: Deref,
    Q::Target: Predicate<C::T> + Sized,
    S: AbortSignal,
{
    /// Advance until the attempt resolves or must wait; a pending step
    /// leaves `waker` where the wait fires it. `Ready(Ok(hold))`: the
    /// lock is held with the predicate true, and the hold (with its seat)
    /// is the caller's. `Ready(Err)`: the limit expired and nothing is
    /// held, but a `keep` attempt still holds the lock ([`kept`](Self::kept)).
    pub(crate) fn step(&mut self, waker: &Waker) -> Poll<Result<Hold, AbortReason>> {
        let word = self.word;
        let core = |idx: u32| &word.cores.seated(idx).core;
        let mut backoff = 0;
        loop {
            let acquiring = acquiring(self.keep, &self.limit);
            match (&mut self.st, self.seat) {
                (State::Fresh, None) => match word.dispatch(acquiring) {
                    Ok(None) => self.st = State::Held(Hold::INLINE),
                    Ok(seat) => self.seat = seat,
                    Err(r) => return self.fail(r),
                },
                // A free pid, else a place in the queue unless the limit
                // expired.
                (State::Fresh, Some(idx)) => {
                    match core(idx).pids.take_or_queue(waker, || !acquiring.is_set()) {
                        Ok(pid) => self.enter(core(idx), pid),
                        Err(Some(ticket)) => {
                            core(idx).pid_waits.fetch_add(1, Ordering::Relaxed);
                            self.st = State::PidWait(ticket);
                            return Poll::Pending;
                        }
                        Err(None) => return self.fail(acquiring.reason()),
                    }
                }
                // An expired limit leaves the queue: `fail` cancels the
                // ticket and puts back a grant that raced it.
                (State::PidWait(ticket), Some(idx)) => match ticket.claim(waker) {
                    Some(pid) => self.enter(core(idx), pid),
                    None => return acquiring.expired().map_or(Poll::Pending, |r| self.fail(r)),
                },
                (State::Enter { pid, machine }, Some(idx)) => {
                    let (core, pid) = (core(idx), *pid);
                    let step = loop {
                        if self.spins == 0 {
                            // Only a handoff ends a thread's or an
                            // unlimited task's wait: exact keys.
                            let exact = self.thread || matches!(acquiring, Limit::Forever);
                            break core.poll_engaged(machine, pid, acquiring, waker, exact);
                        }
                        self.spins -= 1;
                        let step = core.poll(machine, pid, acquiring);
                        if !step.pending() {
                            break step;
                        }
                    };
                    if step.pending() {
                        return Poll::Pending;
                    }
                    if self.spins == 0 {
                        core.disengage(pid);
                    }
                    if !core.settle(pid, step) {
                        core.pids.put(pid);
                        self.st = State::Fresh;
                        return self.fail(acquiring.reason());
                    }
                    (self.st, self.seat) = (State::Held(Hold { idx, pid }), None);
                }
                (State::Held(hold), _) => {
                    let mut hold = *hold;
                    // Safety: we hold the lock, so the value is stable.
                    if self.pred.holds(unsafe { &*word.data.get() }) {
                        self.st = State::Done;
                        return Poll::Ready(Ok(hold));
                    }
                    if std::mem::take(&mut self.woken) {
                        core(hold.idx).ccs.note_futile();
                    }
                    match self.limit.expired() {
                        Some(r) if self.keep => return Poll::Ready(Err(r)),
                        Some(r) => return self.fail(r),
                        None => {}
                    }
                    if hold == Hold::INLINE {
                        // The registry lives in a core: materialize with a
                        // pid of our own, or (raced, or no core free)
                        // release, back off and take the lock again.
                        let Some((idx, pid)) = word.materialize(true) else {
                            self.st = State::Fresh;
                            word.unlock(Hold::INLINE);
                            backoff_step(&mut backoff);
                            continue;
                        };
                        hold = Hold { idx, pid };
                        self.st = State::Held(hold);
                    }
                    // Register under the lock, so no transition is
                    // missed, and own the registration (and keep the
                    // seat) before the release can unwind; then give back
                    // the lock and the pid.
                    let (core, pred) = (core(hold.idx), &*self.pred);
                    let (st, seat) = (&mut self.st, &mut self.seat);
                    core.release_then(hold.pid, word.data, || {
                        *st = State::CondWait(core.ccs.register(pred, waker));
                        *seat = Some(hold.idx);
                    });
                    core.pids.put(hold.pid);
                    return Poll::Pending;
                }
                // Only a notification or the limit ends the wait; an
                // expired `keep` attempt re-acquires, then reports it.
                (State::CondWait(reg), Some(idx)) => {
                    if !reg.notified(waker) {
                        match self.limit.expired() {
                            None => return Poll::Pending,
                            Some(r) if !self.keep => return self.fail(r),
                            Some(_) => {}
                        }
                    }
                    self.woken = core(idx).ccs.deregister(reg);
                    self.st = State::Fresh;
                }
                (State::Done, _) => panic!("attempt stepped after it resolved"),
                _ => unreachable!("a core state without a seat"),
            }
        }
    }

    /// Start a passage with `pid`: the lifecycle hook and a fresh machine.
    fn enter(&mut self, core: &Core<C::T, C::P>, pid: Pid) {
        core.probe.enter_begin(pid);
        self.spins = if self.thread { SPIN_POLLS } else { 0 };
        let machine = core.lock.begin_enter();
        self.st = State::Enter { pid, machine };
    }

    /// The thread driver: step with this thread's waker, and park between
    /// steps under the limit of the wait it is in. An attempt whose signal
    /// has fired (every `try_lock`'s [`Immediate`]) never waits, so its
    /// one step gets a no-op waker; should it pend, the loop steps again
    /// with the real waker, and a step re-checks its wait after leaving
    /// one.
    pub(crate) fn block(mut self) -> Result<Hold, AbortReason> {
        if matches!(&self.limit, Limit::Signal(s) if s.is_set()) {
            if let Poll::Ready(r) = self.step(Waker::noop()) {
                return r;
            }
        }
        THREAD_WAKER.with(|waker| loop {
            match self.step(waker) {
                Poll::Ready(r) => return r,
                Poll::Pending if matches!(self.st, State::CondWait(_)) => self.limit.park(),
                Poll::Pending => acquiring(self.keep, &self.limit).park(),
            }
        })
    }
}

impl<C: Cores + ?Sized, Q, S> Drop for Attempt<'_, C, Q, S> {
    fn drop(&mut self) {
        self.release();
    }
}

/// The limit an attempt acquires under: a `keep` attempt's limit bounds
/// only its conditional wait.
fn acquiring<S>(keep: bool, limit: &Limit<S>) -> &Limit<S> {
    if keep {
        &Limit::Forever
    } else {
        limit
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
