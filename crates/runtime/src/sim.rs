//! The deterministic simulator: processes on threads, one shared-memory
//! step at a time, under a schedule policy.

use crate::events::{EventKind, EventLog};
use crate::gate::{stepped, Shutdown, StepGate, SteppedMem};
use crate::schedule::{SchedStatus, SchedulePolicy};
use sal_memory::{AbortFlag, Mem, Pid};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Options for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Abort the run (with [`SimError::StepLimit`]) after this many
    /// shared-memory steps — the livelock/starvation detector.
    pub max_steps: u64,
    /// `(pid, step)` pairs: set `pid`'s abort flag once the global step
    /// counter reaches `step`.
    ///
    /// Flags are delivered by the scheduler *between* steps, so a body
    /// waiting for one must keep taking shared-memory steps while it
    /// polls (e.g. a spin-read loop). A body that busy-polls only the
    /// flag, with no memory operations, never yields a scheduling point
    /// and the run cannot progress.
    pub abort_plan: Vec<(Pid, u64)>,
    /// Step-lease cap: `0` = unbounded (lease as far as the policy can
    /// see), `1` = legacy per-step scheduling (leases *and* the
    /// adaptive spin gate off — the exact pre-lease handoff, kept as
    /// the benchmarking reference), `k > 1` = at most `k` steps per
    /// grant. Every value produces the identical execution — the cap
    /// only trades scheduler round-trips against lease length. The
    /// default honors `SAL_LEASE` via [`default_lease`].
    pub lease: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_steps: 5_000_000,
            abort_plan: Vec::new(),
            lease: default_lease(),
        }
    }
}

/// The default step-lease cap: `SAL_LEASE` if set to a parsable number,
/// else `0` (unbounded). See [`SimOptions::lease`] for the semantics.
pub fn default_lease() -> u64 {
    std::env::var("SAL_LEASE")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Per-process context handed to simulation bodies.
#[derive(Debug)]
pub struct ProcCtx<'a, M: Mem + ?Sized> {
    /// This process's id.
    pub pid: Pid,
    /// The stepped memory — all algorithm operations must go through it.
    pub mem: &'a SteppedMem<'a, M>,
    /// This process's abort flag (settable externally via
    /// [`SimOptions::abort_plan`] or from the body itself).
    pub signal: &'a AbortFlag,
    /// The shared event log.
    pub log: &'a EventLog,
    gate: &'a StepGate,
}

impl<M: Mem + ?Sized> ProcCtx<'_, M> {
    /// Record an event stamped with the current global step.
    pub fn event(&self, kind: EventKind) {
        self.log.record(self.pid, self.gate.steps(), kind);
    }

    /// The global step counter (free to read; not a step).
    pub fn steps(&self) -> u64 {
        self.gate.steps()
    }
}

/// Why a simulation failed.
#[derive(Debug)]
pub enum SimError {
    /// The step limit was reached before every process finished —
    /// indicates livelock, deadlock, or starvation.
    StepLimit {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// A process body panicked.
    ProcessPanicked {
        /// The panicking process.
        pid: Pid,
        /// Rendered panic payload.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::StepLimit { steps } => {
                write!(
                    f,
                    "step limit reached after {steps} steps (livelock/starvation?)"
                )
            }
            SimError::ProcessPanicked { pid, message } => {
                write!(f, "process {pid} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimReport {
    /// Total shared-memory steps executed.
    pub steps: u64,
    /// Everything the bodies recorded.
    pub log: EventLog,
}

/// Run `nprocs` copies of `body` (one per process) over `mem`, with every
/// shared-memory operation scheduled by `policy`. Deterministic: the same
/// memory contents, policy, options and body yield the identical
/// execution.
///
/// The body runs on its own OS thread and must perform all shared-memory
/// accesses through `ctx.mem`; purely local computation is unrestricted.
///
/// # Errors
///
/// [`SimError::StepLimit`] if the run exceeds `opts.max_steps`;
/// [`SimError::ProcessPanicked`] if a body panics (assertion failures
/// inside bodies surface here).
pub fn simulate<M, F>(
    mem: &M,
    nprocs: usize,
    mut policy: Box<dyn SchedulePolicy>,
    opts: SimOptions,
    body: F,
) -> Result<SimReport, SimError>
where
    M: Mem + ?Sized,
    F: Fn(&ProcCtx<'_, M>) + Sync,
{
    let gate = StepGate::new(nprocs);
    gate.hold_starts();
    let log = EventLog::new();
    let flags: Vec<AbortFlag> = (0..nprocs).map(|_| AbortFlag::new()).collect();
    let panics: Mutex<Vec<(Pid, String)>> = Mutex::new(Vec::new());
    let mut plan = opts.abort_plan.clone();
    plan.sort_by_key(|&(_, step)| step);

    let mut hit_step_limit = false;
    let mut policy_panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        for pid in 0..nprocs {
            let gate = &gate;
            let log = &log;
            let flags = &flags;
            let panics = &panics;
            let body = &body;
            scope.spawn(move || {
                let sm = stepped(mem, gate);
                let ctx = ProcCtx {
                    pid,
                    mem: &sm,
                    signal: &flags[pid],
                    log,
                    gate,
                };
                let result = catch_unwind(AssertUnwindSafe(|| {
                    gate.wait_start(pid);
                    body(&ctx)
                }));
                if let Err(payload) = result {
                    if !payload.is::<Shutdown>() {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".into());
                        panics.lock().unwrap().push((pid, message));
                        gate.shutdown();
                    }
                }
                gate.mark_finished(pid);
            });
        }

        // Serialized startup: release processes one at a time, in pid
        // order, each running until it parks at its first shared-memory
        // operation (or finishes). Startup is the only phase where
        // several process threads would otherwise run local code
        // concurrently — and that local code pushes probe events (e.g.
        // a lock's `enter_begin`) into shared logs, whose order must
        // not depend on thread timing. Consumes no steps and no policy
        // decisions.
        for p in 0..nprocs {
            gate.release_start(p);
            gate.await_settled(p);
        }

        // The scheduler runs on this thread.
        let leases_on = opts.lease != 1;
        if !leases_on {
            // Cap 1 is the reference mode: strictly one step per
            // handoff *and* park-only waits — the exact pre-lease
            // scheduler, kept for baseline benchmarking.
            gate.set_spin(false);
        }
        let mut plan_idx = 0;
        let mut finished: Vec<bool> = Vec::with_capacity(nprocs);
        loop {
            // Determinism hinges on this: only sample the policy once
            // every process is either parked at the gate or finished, so
            // the live set depends on the schedule, not thread timing.
            gate.await_all_settled();
            gate.snapshot_finished(&mut finished);
            if finished.iter().all(|&f| f) {
                break;
            }
            if gate.is_shutdown() {
                break; // a process panicked; wait for unwinding via scope join
            }
            let step = gate.steps();
            while plan_idx < plan.len() && plan[plan_idx].1 <= step {
                let pid = plan[plan_idx].0;
                flags[pid].set();
                plan_idx += 1;
            }
            if step >= opts.max_steps {
                hit_step_limit = true;
                gate.shutdown();
                break;
            }
            // A panicking policy (e.g. a diverging Replay) must not be
            // allowed to unwind through the scope directly: the scope
            // would wait forever on process threads parked at the gate.
            // Catch it, shut the gate down so they unwind too, and
            // re-raise after the scope joins.
            let picked = catch_unwind(AssertUnwindSafe(|| {
                let status = SchedStatus {
                    finished: &finished,
                    step,
                };
                let p = policy.next(&status);
                let extra = if leases_on {
                    policy.peek_run(&status, p)
                } else {
                    0
                };
                (p, extra)
            }));
            let (p, mut extra) = match picked {
                Ok(x) => x,
                Err(payload) => {
                    policy_panic = Some(payload);
                    gate.shutdown();
                    break;
                }
            };
            debug_assert!(!finished[p], "policy chose a finished process");
            if extra > 0 {
                // A lease must never run past the next point where the
                // scheduler has to act: the next abort-plan delivery and
                // the step limit each need a decision point at exactly
                // the counter value the per-step loop would observe.
                if plan_idx < plan.len() {
                    extra = extra.min(plan[plan_idx].1.saturating_sub(step + 1));
                }
                extra = extra.min(opts.max_steps.saturating_sub(step + 1));
                if opts.lease > 1 {
                    extra = extra.min(opts.lease - 1);
                }
            }
            // grant_run() returns None if p finished in the meantime —
            // the loop simply re-evaluates (the policy decision is
            // consumed either way, exactly as per-step). A holder that
            // finishes mid-lease returns the remainder: only the steps
            // actually taken are committed to the policy.
            if let Some(extra_taken) = gate.grant_run(p, extra) {
                if extra_taken > 0 {
                    let committed = catch_unwind(AssertUnwindSafe(|| {
                        policy.commit_run(p, extra_taken);
                    }));
                    if let Err(payload) = committed {
                        policy_panic = Some(payload);
                        gate.shutdown();
                        break;
                    }
                }
            }
        }
    });

    if let Some(payload) = policy_panic {
        std::panic::resume_unwind(payload);
    }

    let panics = panics.into_inner().unwrap();
    if let Some((pid, message)) = panics.into_iter().next() {
        return Err(SimError::ProcessPanicked { pid, message });
    }
    if hit_step_limit {
        return Err(SimError::StepLimit {
            steps: gate.steps(),
        });
    }
    Ok(SimReport {
        steps: gate.steps(),
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{RandomSchedule, RoundRobin};
    use sal_memory::{AbortSignal, MemoryBuilder};

    #[test]
    fn counter_increments_are_serialized() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(4);
        let report = simulate(
            &mem,
            4,
            Box::new(RoundRobin::new()),
            SimOptions::default(),
            |ctx| {
                for _ in 0..25 {
                    ctx.mem.faa(ctx.pid, w, 1);
                }
            },
        )
        .unwrap();
        assert_eq!(mem.read(0, w), 100);
        assert_eq!(report.steps, 100);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        // The trace is pushed outside the turn, so its *order* is racy —
        // but each entry (faa-previous-value, pid) pins exactly which
        // process took which global step, so the sorted multiset is a
        // complete fingerprint of the interleaving.
        fn run(seed: u64) -> Vec<u64> {
            let mut b = MemoryBuilder::new();
            let w = b.alloc(0);
            let order = b.alloc(0);
            let mem = b.build_cc(3);
            let trace = Mutex::new(Vec::new());
            simulate(
                &mem,
                3,
                Box::new(RandomSchedule::seeded(seed)),
                SimOptions::default(),
                |ctx| {
                    for _ in 0..10 {
                        let v = ctx.mem.faa(ctx.pid, w, 1);
                        trace.lock().unwrap().push(v * 3 + ctx.pid as u64);
                    }
                    let _ = ctx.mem.read(ctx.pid, order);
                },
            )
            .unwrap();
            let mut t = trace.into_inner().unwrap();
            t.sort_unstable();
            t
        }
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn step_limit_detects_livelock() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(2);
        let err = simulate(
            &mem,
            2,
            Box::new(RoundRobin::new()),
            SimOptions {
                max_steps: 1000,
                abort_plan: vec![],
                lease: crate::sim::default_lease(),
            },
            |ctx| {
                // Process 1 waits for a word nobody ever sets.
                if ctx.pid == 1 {
                    while ctx.mem.read(ctx.pid, w) == 0 {}
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::StepLimit { .. }));
        assert!(err.to_string().contains("step limit"));
    }

    #[test]
    fn body_panics_are_reported_with_pid() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(2);
        let err = simulate(
            &mem,
            2,
            Box::new(RoundRobin::new()),
            SimOptions::default(),
            |ctx| {
                ctx.mem.read(ctx.pid, w);
                if ctx.pid == 1 {
                    panic!("boom from the body");
                }
                // pid 0 spins so the shutdown path is exercised.
                while ctx.mem.read(ctx.pid, w) == 0 {}
            },
        )
        .unwrap_err();
        match err {
            SimError::ProcessPanicked { pid, message } => {
                assert_eq!(pid, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn abort_plan_fires_at_the_requested_step() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(1);
        let report = simulate(
            &mem,
            1,
            Box::new(RoundRobin::new()),
            SimOptions {
                max_steps: 100_000,
                abort_plan: vec![(0, 50)],
                lease: crate::sim::default_lease(),
            },
            |ctx| {
                // Spin until the external signal fires.
                while !ctx.signal.is_set() {
                    ctx.mem.read(ctx.pid, w);
                }
                ctx.event(EventKind::Aborted);
            },
        )
        .unwrap();
        let events = report.log.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].step >= 50, "fired too early: {}", events[0].step);
        assert!(events[0].step <= 60, "fired too late: {}", events[0].step);
    }

    #[test]
    fn lease_caps_do_not_change_the_execution() {
        // The whole point of leases: every cap value (including
        // unbounded) yields the identical interleaving, step count and
        // final memory. Bursty schedules give real multi-step leases.
        fn run(lease: u64) -> (Vec<u64>, u64, u64) {
            let mut b = MemoryBuilder::new();
            let w = b.alloc(0);
            let mem = b.build_cc(3);
            let trace = Mutex::new(Vec::new());
            let report = simulate(
                &mem,
                3,
                Box::new(crate::schedule::BurstySchedule::seeded(21, 0.9)),
                SimOptions {
                    max_steps: 1_000_000,
                    abort_plan: vec![],
                    lease,
                },
                |ctx| {
                    for _ in 0..40 {
                        let v = ctx.mem.faa(ctx.pid, w, 1);
                        trace.lock().unwrap().push(v * 3 + ctx.pid as u64);
                    }
                },
            )
            .unwrap();
            let mut t = trace.into_inner().unwrap();
            t.sort_unstable();
            (t, report.steps, mem.total_rmrs())
        }
        let reference = run(1);
        for cap in [0, 2, 4, 64] {
            assert_eq!(run(cap), reference, "lease cap {cap} diverged");
        }
    }

    #[test]
    fn abort_delivery_is_lease_exact() {
        // A solo process under round-robin peeks an unbounded run; the
        // plan-delivery cap must cut the lease so the flag lands at
        // exactly the same step as per-step scheduling.
        fn run(lease: u64) -> (u64, u64) {
            let mut b = MemoryBuilder::new();
            let w = b.alloc(0);
            let mem = b.build_cc(1);
            let report = simulate(
                &mem,
                1,
                Box::new(RoundRobin::new()),
                SimOptions {
                    max_steps: 100_000,
                    abort_plan: vec![(0, 50)],
                    lease,
                },
                |ctx| {
                    while !ctx.signal.is_set() {
                        ctx.mem.read(ctx.pid, w);
                    }
                    ctx.event(EventKind::Aborted);
                },
            )
            .unwrap();
            let events = report.log.events();
            (events[0].step, report.steps)
        }
        let reference = run(1);
        for cap in [0, 7, 64] {
            assert_eq!(run(cap), reference, "lease cap {cap} diverged");
        }
    }

    #[test]
    fn step_limit_is_lease_exact() {
        // The step limit must trip at the same counter whatever the
        // lease cap — the limit cap on lease length guarantees a
        // decision point exactly at max_steps.
        fn run(lease: u64) -> u64 {
            let mut b = MemoryBuilder::new();
            let w = b.alloc(0);
            let mem = b.build_cc(2);
            let err = simulate(
                &mem,
                2,
                Box::new(RoundRobin::new()),
                SimOptions {
                    max_steps: 997,
                    abort_plan: vec![],
                    lease,
                },
                |ctx| {
                    if ctx.pid == 1 {
                        while ctx.mem.read(ctx.pid, w) == 0 {}
                    }
                },
            )
            .unwrap_err();
            match err {
                SimError::StepLimit { steps } => steps,
                other => panic!("expected step limit, got {other:?}"),
            }
        }
        let reference = run(1);
        for cap in [0, 3, 64] {
            assert_eq!(run(cap), reference, "lease cap {cap} diverged");
        }
    }

    #[test]
    fn events_are_step_stamped_in_order() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = b.build_cc(2);
        let report = simulate(
            &mem,
            2,
            Box::new(RoundRobin::new()),
            SimOptions::default(),
            |ctx| {
                ctx.event(EventKind::EnterStart);
                ctx.mem.faa(ctx.pid, w, 1);
                ctx.event(EventKind::ExitDone);
            },
        )
        .unwrap();
        let events = report.log.events();
        assert_eq!(events.len(), 4);
        let steps: Vec<u64> = events.iter().map(|e| e.step).collect();
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        assert_eq!(steps, sorted, "log must be in real-time order");
    }
}
