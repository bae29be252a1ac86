//! Abort vocabulary shared by every consumer of the bounded-RMR abort
//! path: the always-fired [`Immediate`] signal and the [`AbortReason`]
//! a failed acquisition reports.
//!
//! The paper's `Enter` takes an external abort signal and promises to
//! honour it within a bounded number of the caller's own steps
//! ([`sal_memory::AbortSignal`]). Production callers fire that signal
//! for exactly two reasons — a deadline passed, or the caller itself
//! cancelled — and [`AbortReason`] is how the `sal-sync` API reports
//! which one ended an attempt.

use sal_memory::AbortSignal;

/// An abort signal that is always set: "make one attempt, never wait".
///
/// Passing `Immediate` to an abortable `enter` turns it into the
/// classic `try_lock`: the algorithm runs its doorway, observes the
/// signal at its first wait, and takes the bounded abort path. Per the
/// paper's `Enter` semantics the acquisition can still *succeed* — if
/// the lock is free (or handed over before the first wait), the caller
/// enters the critical section even though the signal is set.
///
/// ```
/// use sal_core::abort::Immediate;
/// use sal_memory::AbortSignal;
///
/// assert!(Immediate.is_set());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Immediate;

impl AbortSignal for Immediate {
    #[inline]
    fn is_set(&self) -> bool {
        true
    }
}

/// Why an abortable acquisition gave up.
///
/// Returned in the `Err` position by the timed and cancellable entry
/// points of `sal-sync` (every `Acquire` request with a limit) so
/// callers can distinguish "ran out of time" from "was cancelled"
/// without re-deriving it from the signal they passed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The attempt's deadline passed before the predicate/lock was
    /// obtained (a [`sal_memory::Deadline`] signal fired).
    Deadline,
    /// The caller-supplied abort signal fired (cancellation).
    Caller,
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Deadline => f.write_str("deadline expired"),
            AbortReason::Caller => f.write_str("aborted by caller signal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_always_set() {
        assert!(Immediate.is_set());
        // And through the reference/Arc forwarding impls.
        assert!(Immediate.is_set());
        assert!(std::sync::Arc::new(Immediate).is_set());
    }

    #[test]
    fn reasons_display_and_compare() {
        assert_ne!(AbortReason::Deadline, AbortReason::Caller);
        assert_eq!(AbortReason::Deadline.to_string(), "deadline expired");
        assert_eq!(AbortReason::Caller.to_string(), "aborted by caller signal");
    }
}
