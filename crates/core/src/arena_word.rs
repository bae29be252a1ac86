//! The inline-word state protocol for keyed lock arenas.
//!
//! A keyed arena (`sal_sync::Arena`) gives every logical lock a single
//! `u64` **inline word**. While a key is uncontended, the word *is* the
//! lock: acquisition is one CAS (`UNLOCKED → LOCKED_INLINE`), release is
//! one CAS back. Only when a second thread observes the word held does
//! the key **materialize** — a real lock core (the paper's bounded
//! long-lived lock) is drawn from a bounded pool and the word becomes a
//! tagged pointer to it. When the last participant leaves, the key
//! **demotes** back to the inline encoding and the core returns to the
//! pool, so resident lock-core memory is proportional to *currently
//! contended* keys, not to the key space (the practical analogue of the
//! §6.2 bounded-space schemes).
//!
//! This module owns the word encoding and the pure transition rules.
//! `sal_sync`'s lock driver executes them over real atomics (its `Word`,
//! which both mutexes and every arena key lock through); the exhaustive
//! interleaving model in `tests/arena_protocol.rs` executes the *same*
//! encode/decode and rule functions over a modelled memory, which is
//! what makes that model a check of the shipped protocol rather than of
//! a re-implementation.
//!
//! ## Word states
//!
//! ```text
//! 0                         UNLOCKED        (inline, free)
//! 1                         LOCKED_INLINE   (inline, held; no core)
//! (idx << 2) | 2            MATERIALIZED    (all traffic routes through core idx)
//! ```
//!
//! ## The transitions
//!
//! * **Fast lock**: CAS `UNLOCKED → LOCKED_INLINE`. Failure re-reads the
//!   word and re-dispatches.
//! * **Fast unlock**: CAS `LOCKED_INLINE → UNLOCKED`. Failure means the
//!   key was promoted *while held* — the unlock must route through the
//!   core (see the proxy rule below).
//! * **Promotion**: a thread that observes `LOCKED_INLINE` allocates a
//!   pooled core, acquires it with the reserved **proxy pid** (the core
//!   then models "held by the current inline holder"), and publishes
//!   with CAS `LOCKED_INLINE → MATERIALIZED(idx)`. A failed publish
//!   (the holder released first, or another promoter won) is undone
//!   completely: proxy exit, core back to the pool.
//! * **Proxy unlock**: an inline holder whose fast unlock CAS fails
//!   reads `MATERIALIZED(idx)` and releases by exiting the core's
//!   reserved pid — the core's queue then hands the lock to the first
//!   materialized waiter by the paper's own protocol.
//! * **Demotion**: every participant of a materialized key is counted
//!   in the core's **users** counter (waiters, holders, and the proxy
//!   while it stands in for the inline holder). A departing participant
//!   that finds `users == 1` — itself alone, which implies the core's
//!   lock is free — swaps `users` to the [`USERS_DEMOTING`] sentinel
//!   (excluding late joiners, who must increment `users` and then
//!   revalidate the word), writes the word back to `UNLOCKED`, and
//!   returns the core to the pool.
//!
//! The join/demote race is resolved by ordering: joiners increment
//! `users` *before* re-reading the word, demoters change the word
//! *before* releasing the core, and both sides use sequentially
//! consistent operations — so either the joiner sees the demoted word
//! and backs off (decrementing its transient count), or the demoter's
//! `users` CAS fails and demotion is abandoned.

/// Inline word value: key free, no core.
pub const UNLOCKED: u64 = 0;

/// Inline word value: key held through the fast path, no core.
pub const LOCKED_INLINE: u64 = 1;

/// Tag bits distinguishing the three encodings.
const TAG_BITS: u32 = 2;

/// Tag of the materialized encoding.
const TAG_MATERIALIZED: u64 = 2;

/// Largest pool index the word can carry.
pub const MAX_CORE_INDEX: usize = ((u64::MAX >> TAG_BITS) - 1) as usize;

/// Sentinel for a core's `users` counter while a demotion is in flight:
/// joiners observing it spin on re-reading the *word* (which the
/// demoter changes before releasing the core) instead of incrementing.
pub const USERS_DEMOTING: usize = usize::MAX;

/// Decoded state of an arena inline word; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordState {
    /// Key free; acquire with CAS [`UNLOCKED`] → [`LOCKED_INLINE`].
    Unlocked,
    /// Key held inline; a second arrival promotes.
    LockedInline,
    /// Key routes through pooled core `idx` for every operation.
    Materialized(usize),
}

/// Encode the materialized state for pool slot `idx`.
///
/// # Panics
///
/// Panics when `idx` exceeds [`MAX_CORE_INDEX`] (unreachable for any
/// realistic pool).
pub fn materialized(idx: usize) -> u64 {
    assert!(idx <= MAX_CORE_INDEX, "core index {idx} out of word range");
    ((idx as u64) << TAG_BITS) | TAG_MATERIALIZED
}

/// Decode an inline word.
///
/// # Panics
///
/// Panics on an encoding no transition produces (corruption guard).
pub fn decode(word: u64) -> WordState {
    match word {
        UNLOCKED => WordState::Unlocked,
        LOCKED_INLINE => WordState::LockedInline,
        w if w & ((1 << TAG_BITS) - 1) == TAG_MATERIALIZED => {
            WordState::Materialized((w >> TAG_BITS) as usize)
        }
        w => unreachable!("invalid arena word encoding {w:#x}"),
    }
}

/// The join rule: given an observed `users` value, the count a joiner
/// should CAS it to — or `None` while a demotion holds the sentinel
/// (the joiner then re-reads the *word* rather than spinning on the
/// counter; the demoter changes the word before it releases the core).
pub fn join_users(users: usize) -> Option<usize> {
    if users == USERS_DEMOTING {
        None
    } else {
        Some(users + 1)
    }
}

/// The demotion rule: a departing participant may reclaim the core only
/// when it is the sole remaining user — `users == 1` implies no other
/// waiter, holder, or proxy exists, hence the core's lock is free.
pub fn may_demote(users: usize) -> bool {
    users == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_states_round_trip() {
        assert_eq!(decode(UNLOCKED), WordState::Unlocked);
        assert_eq!(decode(LOCKED_INLINE), WordState::LockedInline);
        for idx in [0usize, 1, 63, 4095, MAX_CORE_INDEX] {
            assert_eq!(decode(materialized(idx)), WordState::Materialized(idx));
        }
    }

    #[test]
    fn encodings_are_disjoint() {
        // The materialized tag can never collide with the two inline
        // values, whatever the index.
        for idx in 0..1024 {
            let w = materialized(idx);
            assert_ne!(w, UNLOCKED);
            assert_ne!(w, LOCKED_INLINE);
        }
    }

    #[test]
    #[should_panic(expected = "out of word range")]
    fn oversized_index_is_rejected() {
        let _ = materialized(MAX_CORE_INDEX + 1);
    }

    #[test]
    fn join_rule_respects_the_demotion_sentinel() {
        assert_eq!(join_users(0), Some(1));
        assert_eq!(join_users(7), Some(8));
        assert_eq!(join_users(USERS_DEMOTING), None);
    }

    #[test]
    fn demotion_requires_a_sole_user() {
        assert!(may_demote(1));
        assert!(!may_demote(0));
        assert!(!may_demote(2));
        assert!(!may_demote(USERS_DEMOTING));
    }
}
