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
//! [`EnterStep::Pending`] with a [`WaitToken`] naming the watched word.
//! A poll at a blocking point performs exactly one read of the watched
//! word (plus one signal check when the word is still zero), so a driver
//! that polls in a tight loop reproduces, operation for operation, the
//! blocking spin loops the machines replaced — that equivalence is what
//! keeps every simulator artifact byte-identical (`tests/mono_equivalence.rs`).
//!
//! Drivers decide what "pending" means: the sync entry points spin
//! (re-poll immediately, preserving the paper's busy-wait cost model);
//! `sal_sync::AsyncAbortableMutex` parks the task and re-polls on waker
//! hints; a future recoverable-lock layer can persist the machine state
//! across a crash. The machines themselves hold only plain indices — no
//! memory borrows, no waker knowledge, no clocks.

use crate::lock::Outcome;
use sal_memory::WordId;

/// Which of the protocol's two blocking points a [`WaitToken`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// The bounded lock's epoch wait: a process that already completed a
    /// passage in the current epoch spins on the epoch's spin node until
    /// the next instance switch (Figure 5 lines 58–61).
    EpochSpin,
    /// The one-shot queue wait: the process spins on its queue slot's
    /// `go` word until a predecessor's handoff sets it (Figure 1 line 2).
    QueueSpin,
}

/// Names the blocking point an [`EnterStep::Pending`] machine is parked
/// at: the passage cannot progress until the watched word becomes
/// nonzero.
///
/// The token is advisory — a driver may simply re-poll on any hint (the
/// async mutex does; wakeups are hints there exactly as they are for
/// the CCS layer). Note that for [`WaitKind::QueueSpin`] under the
/// bounded lock the word id is *instance-relative* (the one-shot
/// machine runs over a
/// [`VersionedInstance`](crate::long_lived) view), so it identifies the
/// wait for diagnostics but is not an address in the outer memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitToken {
    word: WordId,
    kind: WaitKind,
}

impl WaitToken {
    pub(crate) fn new(word: WordId, kind: WaitKind) -> Self {
        WaitToken { word, kind }
    }

    /// The word the passage is waiting on (see the type docs for the
    /// address space caveat).
    pub fn word(&self) -> WordId {
        self.word
    }

    /// Which blocking point of the protocol this is.
    pub fn kind(&self) -> WaitKind {
        self.kind
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
        /// Whether the abort wrote a word other processes wait on: the
        /// handoff rescue of Algorithm 3.3 (line 15 → `SignalNext`,
        /// line 19 sets a successor's `go`) or an instance switch in
        /// `Cleanup` (line 77 sets the retired epoch's spin node). A
        /// driver that parks waiters must wake them when this is set,
        /// since the abort may just have handed one of them the lock.
        handed_off: bool,
    },
    /// The passage is blocked: the watched word is still zero and the
    /// signal has not fired. Poll again (after the driver's idea of
    /// waiting) to re-check.
    Pending(WaitToken),
}

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

    /// Whether the machine has resolved (acquired or aborted).
    pub fn is_done(&self) -> bool {
        matches!(self.st, OneShotEnterState::Done)
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

    /// Whether the machine has resolved (acquired or aborted).
    pub fn is_done(&self) -> bool {
        matches!(self.st, BoundedEnterState::Done)
    }

    /// Whether the doorway F&A has executed — from this point on the
    /// machine must be driven to resolution (see the type docs).
    pub fn in_queue(&self) -> bool {
        matches!(self.st, BoundedEnterState::Queue { .. })
    }
}
