//! # sal-bench — experiment machinery regenerating the paper's tables & figures
//!
//! The paper's evaluation artifacts are **Table 1** (complexity / fairness
//! comparison of abortable locks) and **Figures 1–5** (the algorithms and
//! their cost behaviours). This crate measures all of them on the exact
//! CC cost model via `sal-memory`/`sal-runtime`, through one runner:
//!
//! ```text
//! cargo run --release -p sal-bench -- <experiment> [part] [flags]
//! cargo run --release -p sal-bench -- table1 all
//! cargo run --release -p sal-bench -- figures fig4
//! cargo run --release -p sal-bench -- <experiment> --help
//! ```
//!
//! The experiments are `table1`, `figures`, `ablations`, `sweep` and
//! `explore`; the runner with no arguments lists them. Each one is a
//! deterministic simulation, so its output is the same on every run;
//! wall-clock timing of the real-thread surfaces lives in the
//! `perfbench` crate instead. `SAL_JOBS` sets the worker count of
//! every grid; results are identical at any value.
//!
//! The library half provides the lock registry (build any lock in the
//! workspace by kind), the workload builders, flag parsing, plain-text
//! rendering and the one artifact writer ([`artifact`]).
//! `EXPERIMENTS.md` at the repo root records paper-vs-measured for
//! every experiment id defined in `DESIGN.md`.

#![warn(missing_docs)]

pub mod artifact;
pub mod cli;
pub mod grid;
pub mod registry;
pub mod report;
pub mod workloads;

pub use cli::Cli;
pub use grid::absorb;
pub use registry::{build_lock, AnyLock, LockKind};
pub use report::{RmrSummary, Table};
pub use workloads::{
    adaptive_sweep, amortized_sweep, no_abort_sweep, space_row, worst_case_sweep, AmortizedPoint,
    ExploreCell, SweepPoint,
};
