//! # sal-obs — passage-level observability for the sal lock stack
//!
//! Every complexity claim in the source paper is stated *per passage*:
//! one `enter` → CS → `exit` trip (or an aborted `enter`) of one
//! process. This crate makes the passage the unit of measurement across
//! the whole workspace:
//!
//! - [`Probe`] — the hook trait: passage lifecycle
//!   ([`enter_begin`](Probe::enter_begin) /
//!   [`enter_end`](Probe::enter_end) / [`cs_exit`](Probe::cs_exit) /
//!   [`abort`](Probe::abort)), per-operation hooks
//!   ([`op`](Probe::op), [`rmr`](Probe::rmr)) and structured
//!   [`note`](Probe::note)s. All hooks default to no-ops.
//! - [`NoProbe`] — the zero-cost default. Lock code generic over
//!   `P: Probe` monomorphizes the hooks away at `P = NoProbe`, so the
//!   uninstrumented `sal-sync` fast path is unchanged.
//! - [`ProbedMem`] — wraps any [`Mem`](sal_memory::Mem) and classifies
//!   each operation as remote/local by consulting the inner cost
//!   model's own counters, so probe-reported RMRs are the ground truth
//!   by construction.
//! - Sinks: [`PassageStats`] (per-passage RMR + step-latency
//!   histograms and amortized totals), [`EventLog`] (bounded ring with
//!   JSONL export/replay), [`FairnessMonitor`] (FCFS + starvation
//!   witnesses), composable as pairs: `(A, B)` broadcasts to both.
//! - [`json`] — the self-contained JSON layer behind all experiment
//!   exports (the build environment is offline; no serde).
//!
//! ## Example
//!
//! ```
//! use sal_obs::{probed, PassageStats, Probe};
//! use sal_memory::{Mem, MemoryBuilder};
//!
//! let mut b = MemoryBuilder::new();
//! let word = b.alloc(0);
//! let mem = b.build_cc(2);
//!
//! let stats = PassageStats::new();
//! let probed = probed(&mem, &stats);
//!
//! stats.enter_begin(0);
//! probed.faa(0, word, 1); // a lock would do this inside `enter`
//! stats.enter_end(0, Some(0));
//! probed.write(0, word, 7); // ... and this inside the CS
//! stats.cs_exit(0);
//!
//! let rec = stats.records()[0];
//! assert!(rec.entered);
//! assert_eq!(rec.rmrs, mem.rmrs(0)); // probe view == cost-model truth
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod fairness;
pub mod fp;
mod hist;
pub mod json;
mod mem;
mod probe;
mod stats;

pub use events::{EventLog, ObsEvent, ObsEventKind};
pub use fairness::{FairnessMonitor, ProcFairness};
pub use hist::Histogram;
pub use json::{Json, ToJson};
pub use mem::{probed, ProbeLayer, ProbedMem};
pub use probe::{NoProbe, Probe};
pub use stats::{AmortizedStats, PassageRecord, PassageStats, PassageSummary};
