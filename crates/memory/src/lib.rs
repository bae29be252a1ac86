//! # sal-memory — shared-word substrate with exact RMR accounting
//!
//! This crate is the "testbed" of the reproduction: a shared-memory word
//! store that implements, *verbatim*, the formal cost model of §2 of
//! Alon & Morrison, *Deterministic Abortable Mutual Exclusion with
//! Sublogarithmic Adaptive RMR Complexity* (PODC 2018):
//!
//! * **CC model** ([`CcMemory`]): every `write`, `CAS`, `F&A` (and `SWAP`)
//!   costs one remote memory reference (RMR). A `read` by process `p` of
//!   word `w` costs an RMR iff it is `p`'s first read of `w`, or another
//!   process performed a write-type operation on `w` after `p`'s last read.
//! * **DSM model** ([`DsmMemory`]): every word has a *home* process; any
//!   operation by a non-home process costs one RMR, operations by the home
//!   process are free.
//! * **Raw mode** ([`RawMemory`]): the same interface over real
//!   `AtomicU64`s with no accounting — used by `sal-sync` to run the very
//!   same algorithm code at full speed on real threads.
//!
//! All lock algorithms in the workspace are written once, generically over
//! the [`Mem`] trait, and can therefore be executed under exact RMR
//! accounting, under a deterministic scheduler (see `sal-runtime`), or on
//! bare atomics, without code duplication.
//!
//! ## Example
//!
//! ```
//! use sal_memory::{Mem, MemoryBuilder};
//!
//! let mut b = MemoryBuilder::new();
//! let w = b.alloc(0);
//! let mem = b.build_cc(2);
//!
//! mem.write(0, w, 7);            // process 0 writes: 1 RMR
//! assert_eq!(mem.read(1, w), 7); // first read by process 1: 1 RMR
//! assert_eq!(mem.read(1, w), 7); // cached: free
//! assert_eq!(mem.rmrs(0), 1);
//! assert_eq!(mem.rmrs(1), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod cc;
mod dsm;
mod layer;
mod mem;
mod raw;
mod signal;
mod trace;
mod word;

pub use builder::{MemoryBuilder, WordArray};
pub use cc::{CcMemory, EpochMode};
pub use dsm::DsmMemory;
pub use layer::{Interceptor, Layered};
pub use mem::{Mem, OpKind, RmrProbe};
pub use raw::RawMemory;
pub use signal::{AbortFlag, AbortSignal, Deadline, NeverAbort, SignalFn};
pub use trace::{TraceEntry, Tracer, TracingMem};
pub use word::{Pid, WordId};
