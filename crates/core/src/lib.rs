//! # sal-core — deterministic abortable mutual exclusion with sublogarithmic adaptive RMR complexity
//!
//! A complete implementation of the algorithms of Alon & Morrison,
//! *Deterministic Abortable Mutual Exclusion with Sublogarithmic Adaptive
//! RMR Complexity* (PODC 2018):
//!
//! * [`tree`] — the `W`-ary [`Tree`](tree::Tree) ordered-set structure
//!   (Figure 3), including the adaptive sidestepping ascent of
//!   Algorithm 4.3, which gives `FindNext` an RMR cost of
//!   `O(log_W A)` where `A` is the number of aborters.
//! * [`one_shot`] — the one-shot abortable queue lock of Figure 1, in its
//!   cache-coherent form ([`one_shot::OneShotLock`]) and its DSM form with
//!   local spin-bit indirection ([`one_shot::DsmOneShotLock`], §3).
//! * [`long_lived`] — the one-shot → long-lived transformation of Figure 5,
//!   as the literal pseudo-code over pre-allocated instance pools
//!   ([`long_lived::SimpleLongLivedLock`]) and as the bounded-space version
//!   of §6.2 with instance recycling, versioned lazy reset, and spin-node
//!   reclamation ([`long_lived::BoundedLongLivedLock`]).
//! * [`abort`] — the production-surface support layer: the
//!   always-fired [`abort::Immediate`] signal and the
//!   [`abort::AbortReason`] vocabulary (deadline vs caller abort).
//! * [`arena_word`] — the inline-word promotion/demotion protocol that
//!   lets a keyed arena (`sal_sync::Arena`) run millions of logical
//!   locks as single CAS words, materializing a real lock core from a
//!   bounded pool only for keys that observe contention.
//! * [`resume`] — the enter protocol as resumable, sans-IO state
//!   machines ([`resume::EnterMachine`]): every blocking wait becomes an
//!   [`resume::EnterStep::Pending`] poll result, making the spinning
//!   entry points one driver among several (`sal-sync` spins, then
//!   waits on a waker, from blocked threads and from async tasks alike;
//!   `sal_sync::AsyncAbortableMutex` turns future cancellation into the
//!   paper's bounded abort through this interface).
//!
//! All algorithms are written once, generically over the
//! [`sal_memory::Mem`] primitive set (`read`/`write`/`CAS`/`F&A`), so they
//! run identically under exact RMR accounting, under a deterministic
//! scheduler, or over bare atomics.
//!
//! ## Quick example (one-shot lock under RMR accounting)
//!
//! ```
//! use sal_core::one_shot::OneShotLock;
//! use sal_core::{LockCore, Outcome};
//! use sal_memory::{MemoryBuilder, NeverAbort};
//! use sal_obs::NoProbe;
//!
//! let mut b = MemoryBuilder::new();
//! let lock = OneShotLock::layout(&mut b, 4, 4); // 4 processes, branching 4
//! let mem = b.build_cc(4);
//!
//! // Process 0 acquires (ticket 0 spins on go[0], initially set).
//! let outcome = lock.enter_core(&mem, 0, &NeverAbort, &NoProbe);
//! assert_eq!(outcome, Outcome::Entered { ticket: Some(0) });
//! lock.exit_core(&mem, 0, &NoProbe);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abort;
pub mod arena_word;
pub mod lock;
pub mod long_lived;
pub mod one_shot;
pub mod resume;
pub mod tree;

pub use abort::{AbortReason, Immediate};
pub use lock::{LockCore, LockMeta, Outcome};
pub use resume::{EnterMachine, EnterStep, Handoff, OneShotEnterMachine, WaitKey};
