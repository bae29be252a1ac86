//! Resumable enter-protocol state machines — the sans-IO core that
//! async drivers poll.
//!
//! The paper's `Enter` has exactly two blocking points, and both have
//! the same shape: *spin until a shared word becomes nonzero, checking
//! the abort signal between reads*. The bounded long-lived lock waits
//! on its epoch spin node (`lines 58–61`), and the embedded one-shot
//! lock waits on its queue slot's `go` word (`line 2`). Everything else
//! in a passage is a finite sequence of shared-memory operations.
//!
//! This module factors that observation into explicit machines:
//!
//! * [`OneShotEnterMachine`] — the one-shot `Enter` of Figure 1 as a
//!   `Doorway → Waiting → Done` machine;
//! * [`EnterMachine`] — the bounded long-lived `Enter` of Figure 5 +
//!   §6.2, embedding a one-shot machine for the queue phase:
//!
//! ```text
//!  Start ──epoch unchanged──▶ EpochWait ──go ≠ 0──▶ Doorway
//!    │                           │ signal ──▶ Done (Aborted)
//!    └──────fresh epoch──────────┼──────────────────▶ Doorway
//!                                             Doorway ──F&A──▶ Queue
//!  Queue(one-shot: Doorway ──F&A──▶ Waiting ──go ≠ 0──▶ Done/Acquired
//!                                      │ signal ──▶ Abort ──▶ Done/Aborted)
//! ```
//!
//! Each `poll_enter` call (on [`OneShotLock`](crate::one_shot::OneShotLock)
//! or [`BoundedLongLivedLock`](crate::long_lived::BoundedLongLivedLock))
//! advances the machine until it either resolves — [`EnterStep::Acquired`]
//! or [`EnterStep::Aborted`] — or reaches a blocking point, returning
//! [`EnterStep::Pending`] with a [`WaitKey`] naming the watched word.
//! A poll at a blocking point performs exactly one read of the watched
//! word (plus one signal check when the word is still zero), so a driver
//! that polls in a tight loop reproduces, operation for operation, the
//! blocking spin loops the machines replaced — that equivalence is what
//! keeps every simulator artifact byte-identical (`BENCH_table1.json`
//! reproduces exactly).
//!
//! The other side of each wait is a [`Handoff`]: the bounded lock's exit
//! and any abort that hands the lock on report which watched words they
//! set — at most one queue slot's `go` word, plus the epoch spin node on
//! an instance switch. A driver that parks waiters matches the two and
//! wakes only the waiters a handoff can release.
//!
//! Drivers decide what "pending" means: the sync entry points spin
//! (re-poll immediately, preserving the paper's busy-wait cost model);
//! `sal_sync`'s thread and waker drivers park, publish the key, and are
//! woken by the handoffs that name it; a future recoverable-lock layer
//! can persist the machine state across a crash. The machines themselves
//! hold only plain indices — no memory borrows, no waker knowledge, no
//! clocks.

use crate::lock::Outcome;

/// Names the one shared word a pending enter machine waits on: the word
/// its next poll reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKey {
    /// The bounded lock's epoch wait (Figure 5 lines 58–61): a process
    /// that already completed a passage in the current epoch spins on the
    /// epoch's spin node until the next instance switch (line 77).
    Epoch,
    /// The queue wait on `go[ticket]` of one-shot instance `inst`
    /// (Figure 1 line 2), set by the `SignalNext` that hands the lock to
    /// slot `ticket`. The bounded lock's queue words are
    /// instance-relative, hence the instance; a standalone
    /// [`OneShotLock`](crate::one_shot::OneShotLock) is instance 0.
    Slot {
        /// The one-shot instance.
        inst: u32,
        /// The doorway ticket, i.e. the queue slot.
        ticket: u32,
    },
}

/// What an exit, or an abort that handed the lock on, wrote for waiters:
/// at most one queue slot's `go` word (`SignalNext`, Algorithm 3.4 line
/// 19), plus the epoch spin node when `Cleanup` switched instances
/// (Algorithm 6.3 line 77). A pending machine whose [`WaitKey`] this
/// names may now progress; the handoff releases no other. A driver that
/// parks waiters wakes exactly those.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// Instance of the slot written; the top bit records an instance
    /// switch. Packed so that [`EnterStep`] stays 24 bytes.
    inst: u32,
    /// The slot written, or `NO_SLOT`.
    ticket: u32,
}

/// `Handoff::inst` bit: `Cleanup` released the epoch's spinners.
const SWITCHED: u32 = 1 << 31;
/// `Handoff::ticket` value: no queue slot was written.
const NO_SLOT: u32 = u32::MAX;

impl Handoff {
    /// Nothing written: no waiter may progress.
    pub const NONE: Handoff = Handoff {
        inst: 0,
        ticket: NO_SLOT,
    };

    /// `go[slot]` of instance `inst` was written, if `slot` is `Some`.
    pub(crate) fn queue(inst: u32, slot: Option<u64>) -> Self {
        debug_assert!(inst < SWITCHED);
        match slot {
            None => Handoff::NONE,
            Some(t) => Handoff {
                inst,
                ticket: u32::try_from(t).expect("queue slots are word indices, so they fit in u32"),
            },
        }
    }

    /// This handoff, plus the epoch release if `switched`.
    pub(crate) fn and_switch(self, switched: bool) -> Self {
        let bit = if switched { SWITCHED } else { 0 };
        Handoff {
            inst: self.inst | bit,
            ..self
        }
    }

    /// Whether nothing was written.
    pub fn is_none(&self) -> bool {
        *self == Handoff::NONE
    }

    /// The queue slot whose `go` word was written.
    pub fn slot(&self) -> Option<WaitKey> {
        (self.ticket != NO_SLOT).then_some(WaitKey::Slot {
            inst: self.inst & !SWITCHED,
            ticket: self.ticket,
        })
    }

    /// Whether an instance switch released the epoch's spinners
    /// ([`WaitKey::Epoch`]).
    pub fn switched(&self) -> bool {
        self.inst & SWITCHED != 0
    }
}

/// Result of advancing an enter machine by one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnterStep {
    /// The lock was acquired; the passage continues with the critical
    /// section and `exit_core`. One-shot machines report their doorway
    /// ticket; the bounded lock reports `None` (matching
    /// [`Outcome::Entered`] for it).
    Acquired {
        /// Doorway ticket (one-shot machines only).
        ticket: Option<u64>,
    },
    /// The attempt was abandoned in response to the abort signal; the
    /// abort protocol (tree removal, handoff rescue, cleanup) has
    /// already run to completion — nothing is leaked.
    Aborted {
        /// Doorway ticket of the abandoned slot (one-shot machines only).
        ticket: Option<u64>,
        /// The words the abort wrote for waiters: the handoff rescue of
        /// Algorithm 3.3 (line 15 → `SignalNext`, line 19 sets a
        /// successor's `go`) and an instance switch in `Cleanup` (line 77
        /// sets the retired epoch's spin node). A driver that parks
        /// waiters must wake the ones it names, since the abort may just
        /// have handed one of them the lock.
        handoff: Handoff,
    },
    /// The passage is blocked: the keyed word is still zero and the
    /// signal has not fired. Poll again (after the driver's idea of
    /// waiting) to re-check.
    Pending(WaitKey),
}

// The spin loops return a step by value on every poll (up to 4,096 per
// attempt in the thread driver): a 32-byte step measurably slowed the
// contended mutex (it lost 5 of 5 paired `mutex-contended` runs).
const _: () = assert!(std::mem::size_of::<EnterStep>() <= 24);

impl EnterStep {
    /// `Some(outcome)` when the machine resolved, `None` while pending.
    pub fn outcome(&self) -> Option<Outcome> {
        match *self {
            EnterStep::Acquired { ticket } => Some(Outcome::Entered { ticket }),
            EnterStep::Aborted { ticket, .. } => Some(Outcome::Aborted { ticket }),
            EnterStep::Pending(_) => None,
        }
    }

    /// Whether this step acquired the lock.
    pub fn acquired(&self) -> bool {
        matches!(self, EnterStep::Acquired { .. })
    }

    /// Whether this step is still pending.
    pub fn pending(&self) -> bool {
        matches!(self, EnterStep::Pending(_))
    }
}

/// Resumable state of a one-shot `Enter` (Figure 1); create with
/// [`OneShotLock::begin_enter`](crate::one_shot::OneShotLock::begin_enter),
/// advance with
/// [`OneShotLock::poll_enter`](crate::one_shot::OneShotLock::poll_enter).
///
/// Holds only the protocol position and the doorway ticket — no memory
/// borrows — so it can be parked indefinitely between polls.
#[derive(Debug, Clone)]
pub struct OneShotEnterMachine {
    pub(crate) st: OneShotEnterState,
}

#[derive(Debug, Clone)]
pub(crate) enum OneShotEnterState {
    /// The doorway F&A on `Tail` has not executed yet.
    Doorway,
    /// Holds queue slot `ticket`, watching `go[ticket]`.
    Waiting {
        /// The doorway ticket.
        ticket: u64,
    },
    /// Resolved (acquired or aborted); polling again is a logic error.
    Done,
}

impl OneShotEnterMachine {
    pub(crate) fn new() -> Self {
        OneShotEnterMachine {
            st: OneShotEnterState::Doorway,
        }
    }

    /// The doorway ticket, once the F&A has executed.
    pub fn ticket(&self) -> Option<u64> {
        match self.st {
            OneShotEnterState::Waiting { ticket } => Some(ticket),
            _ => None,
        }
    }
}

/// Resumable state of a bounded long-lived `Enter` (Figure 5 + §6.2);
/// create with
/// [`BoundedLongLivedLock::begin_enter`](crate::long_lived::BoundedLongLivedLock::begin_enter),
/// advance with
/// [`BoundedLongLivedLock::poll_enter`](crate::long_lived::BoundedLongLivedLock::poll_enter).
///
/// Once a poll executes the doorway F&A (refcount increment), the
/// machine *must* be driven to resolution — either keep polling, or
/// poll with a pre-fired signal such as
/// [`Immediate`](crate::abort::Immediate) to run the bounded abort path
/// — otherwise the lock's reference count leaks. This is exactly the
/// drop-guard obligation `sal_sync`'s lock futures discharge on
/// cancellation.
#[derive(Debug, Clone)]
pub struct EnterMachine {
    pub(crate) st: BoundedEnterState,
}

#[derive(Debug, Clone)]
pub(crate) enum BoundedEnterState {
    /// Nothing executed yet: next poll reads the descriptor and decides
    /// whether the epoch wait applies.
    Start,
    /// Announced spin node `spn` and validated the epoch: watching the
    /// node's go word.
    EpochWait {
        /// The pinned spin node index.
        spn: u32,
    },
    /// Past any epoch wait; next poll performs the doorway F&A.
    Doorway,
    /// Inside the one-shot instance `inst` (doorway F&A done — the
    /// refcount is held; see the type docs).
    Queue {
        /// Index of the one-shot instance this passage entered.
        inst: u32,
        /// The embedded one-shot machine.
        inner: OneShotEnterMachine,
    },
    /// Resolved (acquired or aborted); polling again is a logic error.
    Done,
}

impl EnterMachine {
    pub(crate) fn new() -> Self {
        EnterMachine {
            st: BoundedEnterState::Start,
        }
    }

    /// Whether the doorway F&A has executed — from this point on the
    /// machine must be driven to resolution (see the type docs).
    pub fn in_queue(&self) -> bool {
        matches!(self.st, BoundedEnterState::Queue { .. })
    }

    /// The word the machine is blocked on, which its next poll reads
    /// first: `None` before the first blocking point and once resolved.
    pub fn wait_key(&self) -> Option<WaitKey> {
        match self.st {
            BoundedEnterState::EpochWait { .. } => Some(WaitKey::Epoch),
            BoundedEnterState::Queue { inst, ref inner } => inner.ticket().map(|t| WaitKey::Slot {
                inst,
                ticket: t as u32,
            }),
            _ => None,
        }
    }
}
