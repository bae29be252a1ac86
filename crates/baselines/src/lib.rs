//! # sal-baselines — the competitor locks of Table 1, plus classics
//!
//! Every lock the paper compares against (and the classic non-abortable
//! locks used for context), implemented over the same [`sal_memory::Mem`]
//! primitive set and the same [`sal_core::LockCore`] interface as
//! the paper's algorithm, so the Table-1 benchmarks can drive them
//! interchangeably (and observe them through any [`sal_obs::Probe`]):
//!
//! | Module | Table-1 row | Primitives | RMR profile |
//! |---|---|---|---|
//! | [`mcs`] | — (classic) | SWAP, CAS | `O(1)`, not abortable |
//! | [`ticket`] | — (classic) | F&A | `O(N)` under contention, not abortable |
//! | [`tas`] | — (classic) | CAS | unbounded, abortable |
//! | [`tournament`] | Jayanti \[17\] (shape) | read/write | `O(log N)` worst case *and* no-abort |
//! | [`scott`] | Scott \[24\] | SWAP | unbounded worst case, `O(1)` no-abort, `O(#A)` adaptive |
//! | [`lee`] | Lee \[19\] | F&A, SWAP | `O(A²)`-profile, `O(1)` no-abort |
//!
//! ### Fidelity notes
//!
//! The paper gives no pseudo-code for the competitors; `scott`, `lee` and
//! `tournament` are reconstructions that use the same primitive sets and
//! reproduce the cost *profiles* of their Table-1 rows (see each module's
//! docs for the exact protocol and deviations). `tournament` does not
//! implement Jayanti's f-array point-contention adaptivity — its cost is
//! a clean `Θ(log N)` in all cases, which is precisely the curve the
//! paper's `O(log_W N)` result is compared against.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lee;
pub mod mcs;
pub mod scott;
pub mod tas;
pub mod ticket;
pub mod tournament;

pub use lee::LeeLock;
pub use mcs::McsLock;
pub use scott::ScottLock;
pub use tas::TasLock;
pub use ticket::TicketLock;
pub use tournament::TournamentLock;
