//! # sal-runtime — deterministic execution harness for lock algorithms
//!
//! The paper's model (§2) is an asynchronous shared-memory system: an
//! execution is a sequence of steps, each one process performing one
//! atomic operation on a shared word. This crate realises that model
//! executably:
//!
//! * [`simulate`] — run `N` process bodies to completion under a policy,
//!   with external abort-signal injection and a step-limit
//!   livelock/starvation detector. Deterministic given the policy. Every
//!   shared-memory operation of a body goes through its [`SteppedMem`]
//!   and becomes a scheduling point: processes run on real threads but
//!   take steps one at a time, in an order chosen by a
//!   [`SchedulePolicy`]. When the policy can see its next decisions
//!   ahead of time ([`SchedulePolicy::peek_run`]) the scheduler batches
//!   them into a single multi-step **lease** ([`SimOptions::lease`] caps
//!   the length) — fewer condvar round-trips, byte-identical execution.
//! * [`EventLog`] — step-stamped protocol events with post-hoc checkers
//!   for mutual exclusion and FCFS.
//! * [`run_lock`] — a workload harness over any [`sal_core::LockCore`]:
//!   roles (normal / aborting), per-passage RMR accounting through
//!   [`sal_obs::PassageStats`], safety verdicts (FCFS over the doorway
//!   tickets of one-shot locks). Every passage hook fans out to one
//!   caller-supplied sink as well; [`run_lock_core`] is its shorthand
//!   with no extra sink.
//! * [`SmallRng`] — the workspace's own seeded PRNG (the build
//!   environment is offline, so randomness is home-grown).
//! * [`pool`] — a dependency-free fan-out ([`pool::par_map`]): scoped
//!   threads claim the indices of independent simulations from one
//!   counter and the results are gathered by index, so parallel
//!   experiment output is byte-identical to serial.
//! * [`executor`] — a dependency-free mini async executor
//!   ([`executor::block_on`], [`executor::Executor`],
//!   [`executor::sleep_until`]) for driving
//!   `sal_sync::AsyncAbortableMutex` futures in tests and benches:
//!   FIFO task queue over worker threads, hand-rolled waker vtable,
//!   one global timer thread.
//!
//! ## Example: 4 processes race for the one-shot lock
//!
//! ```
//! use sal_core::one_shot::OneShotLock;
//! use sal_memory::MemoryBuilder;
//! use sal_obs::NoProbe;
//! use sal_runtime::{run_lock, RandomSchedule, WorkloadSpec};
//!
//! let mut b = MemoryBuilder::new();
//! let lock = OneShotLock::layout(&mut b, 4, 2);
//! let cs = b.alloc(0);
//! let mem = b.build_cc(4);
//!
//! let spec = WorkloadSpec::uniform(4, 1);
//! let report = run_lock(&lock, &mem, cs, &spec,
//!                       Box::new(RandomSchedule::seeded(1)), NoProbe)?;
//! report.assert_safe();
//! assert!(report.fcfs_check.is_ok());
//! assert_eq!(report.total_entered(), 4);
//! # Ok::<(), sal_runtime::SimError>(())
//! ```

#![warn(missing_docs)]

mod events;
pub mod executor;
mod explore;
mod gate;
mod harness;
pub mod pool;
mod replay;
mod rng;
mod schedule;
pub mod search;
mod sim;

pub use events::{Event, EventKind, EventLog, FcfsViolation, MutexViolation};
pub use executor::{block_on, Executor};
pub use explore::{
    explore, explore_guided, Decision, ExplorationResult, ExploreOptions, ForcedSchedule,
    GuidedOutcome,
};
pub use gate::SteppedMem;
pub use harness::{run_lock, run_lock_core, ProcPlan, Role, WorkloadReport, WorkloadSpec};
pub use pool::{default_jobs, resolve_jobs};
pub use replay::{ParseRecordingError, Recorder, Recording, RecordingHandle, Replay};
pub use rng::SmallRng;
pub use schedule::{
    BurstySchedule, RandomSchedule, RoundRobin, SchedStatus, SchedulePolicy, Scripted, PEEK_CAP,
};
pub use search::{canonical_schedule, independent, OpTraceSink, StepOp, Strategy};
pub use sim::{simulate, ProcCtx, SimError, SimOptions, SimReport};
