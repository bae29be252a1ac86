//! The step gate: serializes simulated processes one shared-memory
//! operation at a time, under the control of a schedule.
//!
//! Every process of a simulation runs on its own OS thread but may only
//! perform a shared-memory operation while holding the *turn*. The
//! scheduler grants turns; a granted process performs its operation(s)
//! and returns the turn. Local computation (and abort-signal polling)
//! happens freely between turns, matching the paper's model where only
//! shared-memory steps are scheduling points.
//!
//! ## Step leases
//!
//! The classic protocol pays two condvar handoffs — two OS context
//! switches — per step: scheduler → process (turn grant) and process →
//! scheduler (turn return). When the schedule policy already knows its
//! next `k` decisions all pick the same process (solo drains under
//! round-robin, bursty runs, forced/replay schedules), the scheduler
//! grants a **lease** of `1 + extra` steps in one round-trip
//! ([`StepGate::grant_run`]). The leased process consumes the turns on
//! a lock-free fast path: `begin_turn` sees it
//! still holds the lease and returns without touching the mutex, and
//! `end_turn` decrements the lease counter and
//! bumps the atomic step counter without waking the scheduler. Only the
//! final step of a lease takes the slow path and hands the turn back.
//!
//! Per-step accounting is unchanged: the global step counter advances
//! once per operation exactly as before (it is an atomic now, so
//! mid-lease event stamps read the true count), RMR accounting lives in
//! the memory layer below the gate, and a leaseholder that finishes
//! early returns the unused remainder ([`mark_finished`]
//! (StepGate::mark_finished) revokes the lease), so the scheduler
//! always learns exactly how many steps ran.
//!
//! ## Adaptive spin gate
//!
//! Both parking sides — a process awaiting its turn, the scheduler
//! awaiting arrivals/turn-returns — first spin on an atomic for an
//! adaptive budget before parking on their condvar. The budget grows
//! when spinning observes the condition (the peer responded within the
//! spin window) and shrinks when the waiter had to park, so workloads
//! whose handoffs are fast (small simulations on idle machines) keep
//! the context switches off the hot path while heavily contended or
//! single-CPU runs decay to plain condvar parking.
//!
//! Scaling note: each process waits on its **own** condvar, and the
//! scheduler on a dedicated one, so a step costs O(1) wakeups — a
//! `notify_all` design would thundering-herd all `N` waiters on every
//! step and make 256-process simulations quadratically slow in wakeups.

use sal_memory::{Interceptor, Layered, Mem, OpKind, Pid, WordId};
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Payload used to unwind simulated process threads on shutdown (step
/// limit exceeded or another process panicked).
pub(crate) struct Shutdown;

/// Sentinel for "no leaseholder".
const NO_HOLDER: usize = usize::MAX;

/// Initial spin budget of an [`AdaptiveSpin`].
const SPIN_INIT: u32 = 64;
/// Budget ceiling: a handful of µs of spinning at most.
const SPIN_MAX: u32 = 1 << 12;
/// Budget floor: keeps the probe alive so budgets can regrow when the
/// workload changes phase (a pure decay-to-zero could never recover).
const SPIN_MIN: u32 = 4;

/// An adaptive spin-then-park budget. `spin` polls `observed` for the
/// current budget; seeing the condition doubles the budget (spinning
/// paid off — keep doing it), missing halves it (we are about to pay
/// for a park anyway, so stop burning cycles beforehand).
struct AdaptiveSpin {
    budget: AtomicU32,
}

impl AdaptiveSpin {
    fn new() -> Self {
        AdaptiveSpin {
            budget: AtomicU32::new(SPIN_INIT),
        }
    }

    /// Spin until `observed` returns true or the budget runs out.
    /// Returns whether the condition was observed.
    fn spin(&self, observed: impl Fn() -> bool) -> bool {
        let budget = self.budget.load(Ordering::Relaxed);
        for _ in 0..budget {
            if observed() {
                self.budget
                    .store(((budget << 1) | 1).min(SPIN_MAX), Ordering::Relaxed);
                return true;
            }
            std::hint::spin_loop();
        }
        self.budget
            .store((budget / 2).max(SPIN_MIN), Ordering::Relaxed);
        false
    }
}

struct GateState {
    /// Process currently allowed to take steps (one step, or a lease).
    granted: Option<Pid>,
    /// Which processes are blocked at the gate awaiting a turn.
    arrived: Vec<bool>,
    /// Which processes have finished (returned or panicked).
    finished: Vec<bool>,
    /// When set, all waiting processes unwind.
    shutdown: bool,
    /// Startup serialization: processes with pid < `released` may run
    /// (see [`StepGate::wait_start`]).
    released: usize,
}

/// The synchronization core of the simulator: see the module docs for
/// the turn protocol and the lease fast path.
pub struct StepGate {
    state: Mutex<GateState>,
    /// One condvar per process: signalled when that process is granted
    /// the turn (or on shutdown).
    turn_cv: Vec<Condvar>,
    /// The scheduler's condvar: signalled on arrivals, turn returns and
    /// finishes.
    sched_cv: Condvar,
    /// Total steps executed. Atomic so mid-lease fast paths (and event
    /// stamping) never need the state mutex.
    step: AtomicU64,
    /// The process currently holding the turn/lease ([`NO_HOLDER`] =
    /// none). Written under the state mutex; read lock-free by the
    /// holder's fast paths and by spinning waiters.
    lease_holder: AtomicUsize,
    /// Extra steps (beyond the one in flight) the holder may still take
    /// without re-parking. Touched only by the scheduler at grant time
    /// and by the holder afterwards.
    lease_left: AtomicU64,
    /// Mirror of `GateState::shutdown` for lock-free fast-path checks.
    shutdown_flag: AtomicBool,
    /// Bumped (under the mutex) on every scheduler-relevant change;
    /// the scheduler's spin phase watches it instead of the mutex.
    sched_seq: AtomicU64,
    /// Spin budget for processes awaiting their turn.
    proc_spin: AdaptiveSpin,
    /// Spin budget for the scheduler awaiting arrivals/returns.
    sched_spin: AdaptiveSpin,
}

impl std::fmt::Debug for StepGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `try_lock`, not `lock`: Debug must be usable from panic hooks
        // and deadlock dumps, where the state mutex may be held (by
        // this very thread) — formatting must never hang or poison.
        let mut d = f.debug_struct("StepGate");
        d.field("step", &self.step.load(Ordering::Relaxed));
        match self.state.try_lock() {
            Ok(s) => d.field("granted", &s.granted).finish(),
            Err(_) => d.finish_non_exhaustive(),
        }
    }
}

impl StepGate {
    /// A gate for `n` processes.
    pub fn new(n: usize) -> Self {
        StepGate {
            state: Mutex::new(GateState {
                granted: None,
                arrived: vec![false; n],
                finished: vec![false; n],
                shutdown: false,
                // Callers that never use the startup protocol are not
                // gated: everything is released from the start.
                released: usize::MAX,
            }),
            turn_cv: (0..n).map(|_| Condvar::new()).collect(),
            sched_cv: Condvar::new(),
            step: AtomicU64::new(0),
            lease_holder: AtomicUsize::new(NO_HOLDER),
            lease_left: AtomicU64::new(0),
            shutdown_flag: AtomicBool::new(false),
            sched_seq: AtomicU64::new(0),
            proc_spin: AdaptiveSpin::new(),
            sched_spin: AdaptiveSpin::new(),
        }
    }

    /// Bump the scheduler sequence and wake it. Must be called with the
    /// state mutex held so a waiter that re-checks under the lock can
    /// never miss the transition.
    fn notify_sched(&self) {
        self.sched_seq.fetch_add(1, Ordering::Release);
        self.sched_cv.notify_one();
    }

    /// Scheduler-side wait: spin on `sched_seq` for the adaptive
    /// budget, then park on `sched_cv`, until `cond` holds.
    fn wait_sched<'a>(
        &'a self,
        mut s: MutexGuard<'a, GateState>,
        cond: impl Fn(&GateState) -> bool,
    ) -> MutexGuard<'a, GateState> {
        loop {
            if cond(&s) {
                return s;
            }
            let seq = self.sched_seq.load(Ordering::Acquire);
            drop(s);
            let observed = self
                .sched_spin
                .spin(|| self.sched_seq.load(Ordering::Acquire) != seq);
            s = self.state.lock().unwrap();
            if cond(&s) {
                return s;
            }
            if !observed {
                s = self.sched_cv.wait(s).unwrap();
            }
        }
    }

    /// Opt in to serialized startup: no process passes
    /// [`wait_start`](Self::wait_start) until the owner releases it with
    /// [`release_start`](Self::release_start). Call before spawning the
    /// process threads.
    pub fn hold_starts(&self) {
        self.state.lock().unwrap().released = 0;
    }

    /// Park process `p` until it is released to start. The simulator
    /// releases processes **one at a time, in pid order**, each running
    /// until it parks at its first shared-memory operation — so the
    /// startup window, the only phase where several process threads
    /// would otherwise run local code (and push probe events)
    /// concurrently, is serialized deterministically. No-op unless
    /// [`hold_starts`](Self::hold_starts) was called.
    ///
    /// # Panics
    ///
    /// Unwinds with the private shutdown payload if the simulation is
    /// shut down first.
    pub fn wait_start(&self, p: Pid) {
        let mut s = self.state.lock().unwrap();
        loop {
            if s.shutdown {
                drop(s);
                panic::panic_any(Shutdown);
            }
            if s.released > p {
                return;
            }
            s = self.turn_cv[p].wait(s).unwrap();
        }
    }

    /// Release process `p` (and every lower pid) to start.
    pub fn release_start(&self, p: Pid) {
        let mut s = self.state.lock().unwrap();
        s.released = s.released.max(p + 1);
        self.turn_cv[p].notify_all();
    }

    /// Block until process `p` is settled: parked at the gate, or
    /// finished. Returns immediately on shutdown.
    pub fn await_settled(&self, p: Pid) {
        let s = self.state.lock().unwrap();
        drop(self.wait_sched(s, |s| s.shutdown || s.arrived[p] || s.finished[p]));
    }

    /// Block until process `p` is granted a turn. Called by process
    /// threads (through [`SteppedMem`]) before every shared-memory
    /// operation; the turn is returned by [`end_turn`](Self::end_turn).
    ///
    /// Mid-lease this is a single atomic load: the holder already has
    /// the turn and neither the mutex nor the scheduler is touched.
    ///
    /// # Panics
    ///
    /// Unwinds with a private payload when the simulation shuts down.
    fn begin_turn(&self, p: Pid) {
        // Lease fast path: we still hold the turn from the last grant.
        if self.lease_holder.load(Ordering::Acquire) == p
            && !self.shutdown_flag.load(Ordering::Relaxed)
        {
            return;
        }
        let mut s = self.state.lock().unwrap();
        s.arrived[p] = true;
        self.notify_sched();
        loop {
            if s.shutdown {
                drop(s);
                panic::panic_any(Shutdown);
            }
            if s.granted == Some(p) {
                return;
            }
            // Adaptive spin on the lock-free holder word, then park.
            drop(s);
            let observed = self.proc_spin.spin(|| {
                self.lease_holder.load(Ordering::Acquire) == p
                    || self.shutdown_flag.load(Ordering::Relaxed)
            });
            s = self.state.lock().unwrap();
            if !observed && s.granted != Some(p) && !s.shutdown {
                s = self.turn_cv[p].wait(s).unwrap();
            }
        }
    }

    /// Return the turn after completing one operation. Mid-lease this
    /// consumes one leased step lock-free and keeps the turn; the final
    /// step of a grant hands the turn back to the scheduler.
    fn end_turn(&self, p: Pid) {
        if self.lease_holder.load(Ordering::Acquire) == p {
            let left = self.lease_left.load(Ordering::Relaxed);
            if left > 0 {
                // Mid-lease: consume a step, keep the turn, let the
                // scheduler sleep.
                self.lease_left.store(left - 1, Ordering::Relaxed);
                self.step.fetch_add(1, Ordering::Release);
                return;
            }
        }
        let mut s = self.state.lock().unwrap();
        debug_assert_eq!(s.granted, Some(p));
        self.lease_holder.store(NO_HOLDER, Ordering::Release);
        s.granted = None;
        s.arrived[p] = false;
        self.step.fetch_add(1, Ordering::Release);
        self.notify_sched();
    }

    /// Scheduler side: grant process `p` a lease of `1 + extra` steps
    /// in a single handoff. Blocks until `p` arrives, executes up to
    /// `1 + extra` shared-memory operations without re-parking, and
    /// returns the turn — or finishes mid-lease, which revokes the
    /// unused remainder.
    ///
    /// Returns `None` if `p` finished instead of arriving (no step was
    /// taken), otherwise `Some(extra_taken)`: how many steps *beyond
    /// the first* actually executed (`extra_taken <= extra`). The
    /// caller must advance its schedule policy by exactly that many
    /// decisions.
    pub fn grant_run(&self, p: Pid, extra: u64) -> Option<u64> {
        let mut s = self.state.lock().unwrap();
        s = self.wait_sched(s, |s| s.shutdown || s.finished[p] || s.arrived[p]);
        if s.finished[p] {
            return None;
        }
        if s.shutdown {
            return Some(0);
        }
        debug_assert!(s.granted.is_none());
        let step0 = self.step.load(Ordering::Relaxed);
        s.granted = Some(p);
        self.lease_left.store(extra, Ordering::Relaxed);
        self.lease_holder.store(p, Ordering::Release);
        self.turn_cv[p].notify_one();
        s = self.wait_sched(s, |s| s.granted.is_none());
        drop(s);
        let taken = self.step.load(Ordering::Relaxed).wrapping_sub(step0);
        Some(taken.saturating_sub(1))
    }

    /// Block until every process is *settled* — parked at the gate or
    /// finished. The scheduler calls this before each decision so the
    /// live set it samples is a deterministic function of the schedule
    /// so far, not of thread wake-up timing (a process that just took
    /// its final step must be observed as finished, not as transiently
    /// live). Returns immediately on shutdown.
    pub fn await_all_settled(&self) {
        let s = self.state.lock().unwrap();
        drop(self.wait_sched(s, |s| {
            s.shutdown
                || s.arrived
                    .iter()
                    .zip(s.finished.iter())
                    .all(|(&a, &f)| a || f)
        }));
    }

    /// Mark process `p` as finished (normal return or panic). If `p`
    /// held a lease, the unused remainder is revoked and the scheduler
    /// is woken with the turn back in hand.
    pub fn mark_finished(&self, p: Pid) {
        let mut s = self.state.lock().unwrap();
        s.finished[p] = true;
        s.arrived[p] = false;
        if s.granted == Some(p) {
            s.granted = None;
            self.lease_holder.store(NO_HOLDER, Ordering::Release);
            self.lease_left.store(0, Ordering::Relaxed);
        }
        self.notify_sched();
    }

    /// Copy the finished flags into `buf` (cleared first): allocation
    /// free, for per-decision scheduler loops.
    pub fn snapshot_finished(&self, buf: &mut Vec<bool>) {
        let s = self.state.lock().unwrap();
        buf.clear();
        buf.extend_from_slice(&s.finished);
    }

    /// Steps executed so far. Lock-free; mid-lease reads by the holder
    /// see every step it has taken.
    pub fn steps(&self) -> u64 {
        self.step.load(Ordering::Acquire)
    }

    /// Unwind every process still at (or heading to) the gate.
    pub fn shutdown(&self) {
        let mut s = self.state.lock().unwrap();
        s.shutdown = true;
        self.shutdown_flag.store(true, Ordering::Release);
        for cv in &self.turn_cv {
            cv.notify_all();
        }
        self.sched_seq.fetch_add(1, Ordering::Release);
        self.sched_cv.notify_all();
        drop(s);
    }

    /// Whether the gate has been shut down.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }
}

/// The [`Interceptor`] that turns any memory into a stepped one: its
/// `before` hook blocks at the [`StepGate`] for the turn and its `after`
/// hook returns it, so exactly one shared-memory operation happens per
/// step.
#[derive(Debug, Clone, Copy)]
pub struct StepLayer<'a> {
    gate: &'a StepGate,
}

impl Interceptor for StepLayer<'_> {
    fn before(&self, p: Pid, _kind: OpKind, _w: WordId) {
        self.gate.begin_turn(p);
    }

    fn after(&self, p: Pid, _kind: OpKind, _w: WordId, _value: u64, _remote: bool) {
        self.gate.end_turn(p);
    }
}

/// A [`Mem`] wrapper that funnels every operation through the
/// simulator's step gate: the memory [`simulate`](crate::simulate) hands
/// to process bodies. This is the [`Layered`] instantiation of the gate's
/// interceptor.
///
/// Counter/metadata queries (`rmrs`, `ops`, …) pass through without
/// consuming a turn — they are measurements, not steps of the algorithm.
pub type SteppedMem<'a, M> = Layered<'a, M, StepLayer<'a>>;

/// Wrap `inner` so that operations synchronize through `gate`.
pub fn stepped<'a, M: Mem + ?Sized>(inner: &'a M, gate: &'a StepGate) -> SteppedMem<'a, M> {
    Layered::over(inner, StepLayer { gate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::MemoryBuilder;
    use std::sync::Arc;

    fn finished_flags(gate: &StepGate) -> Vec<bool> {
        let mut flags = Vec::new();
        gate.snapshot_finished(&mut flags);
        flags
    }

    #[test]
    fn steps_execute_in_granted_order() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = Arc::new(b.build_cc(2));
        let gate = Arc::new(StepGate::new(2));
        let log = Arc::new(Mutex::new(Vec::new()));

        std::thread::scope(|scope| {
            for p in 0..2usize {
                let mem = Arc::clone(&mem);
                let gate = Arc::clone(&gate);
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    let sm = stepped(&*mem, &gate);
                    for _ in 0..3 {
                        let v = sm.faa(p, w, 1);
                        log.lock().unwrap().push((p, v));
                    }
                    gate.mark_finished(p);
                });
            }
            // Scheduler: strict alternation 0,1,0,1,...
            for i in 0..6 {
                assert_eq!(gate.grant_run(i % 2, 0), Some(0));
            }
        });
        // The log pushes happen outside the turn, so the *log* order is
        // racy — but the F&A return values prove the step order: strict
        // alternation means process 0 observed 0,2,4 and process 1
        // observed 1,3,5.
        let log = log.lock().unwrap();
        let mut per_proc: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &(p, v) in log.iter() {
            per_proc[p].push(v);
        }
        assert_eq!(per_proc[0], vec![0, 2, 4]);
        assert_eq!(per_proc[1], vec![1, 3, 5]);
        assert_eq!(gate.steps(), 6);
    }

    #[test]
    fn lease_executes_whole_run_in_one_grant() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = Arc::new(b.build_cc(2));
        let gate = Arc::new(StepGate::new(2));
        std::thread::scope(|scope| {
            for p in 0..2usize {
                let mem = Arc::clone(&mem);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let sm = stepped(&*mem, &gate);
                    for _ in 0..4 {
                        sm.faa(p, w, 1);
                    }
                    gate.mark_finished(p);
                });
            }
            // One lease of 4 steps to each process, in turn.
            assert_eq!(gate.grant_run(0, 3), Some(3));
            assert_eq!(gate.steps(), 4);
            assert_eq!(gate.grant_run(1, 3), Some(3));
        });
        assert_eq!(gate.steps(), 8);
        assert_eq!(mem.read(0, w), 8);
    }

    #[test]
    fn finishing_mid_lease_returns_the_remainder() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = Arc::new(b.build_cc(1));
        let gate = Arc::new(StepGate::new(1));
        std::thread::scope(|scope| {
            {
                let mem = Arc::clone(&mem);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let sm = stepped(&*mem, &gate);
                    sm.faa(0, w, 1);
                    sm.faa(0, w, 1);
                    gate.mark_finished(0);
                });
            }
            // Lease allows 10 steps; the process only has 2 in it.
            assert_eq!(gate.grant_run(0, 9), Some(1));
        });
        assert_eq!(gate.steps(), 2);
        assert_eq!(finished_flags(&gate), [true]);
    }

    #[test]
    fn lease_of_zero_extra_is_the_classic_grant() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let mem = Arc::new(b.build_cc(1));
        let gate = Arc::new(StepGate::new(1));
        std::thread::scope(|scope| {
            {
                let mem = Arc::clone(&mem);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let sm = stepped(&*mem, &gate);
                    for _ in 0..3 {
                        sm.faa(0, w, 1);
                    }
                    gate.mark_finished(0);
                });
            }
            for _ in 0..3 {
                assert_eq!(gate.grant_run(0, 0), Some(0));
            }
        });
        assert_eq!(gate.steps(), 3);
    }

    #[test]
    fn grant_returns_false_for_finished_process() {
        let gate = StepGate::new(1);
        gate.mark_finished(0);
        assert_eq!(gate.grant_run(0, 5), None);
        assert_eq!(finished_flags(&gate), [true]);
    }

    #[test]
    fn shutdown_unwinds_waiting_processes() {
        let gate = Arc::new(StepGate::new(1));
        let g2 = Arc::clone(&gate);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g2.begin_turn(0);
            }));
            assert!(r.is_err());
            g2.mark_finished(0);
        });
        // Give the thread time to arrive, then shut down.
        while !gate.is_shutdown() {
            std::thread::sleep(std::time::Duration::from_millis(1));
            gate.shutdown();
        }
        h.join().unwrap();
        assert_eq!(finished_flags(&gate), [true]);
    }

    #[test]
    fn debug_format_never_blocks_on_a_held_state_lock() {
        let gate = StepGate::new(2);
        let rendered = format!("{gate:?}");
        assert!(rendered.contains("granted"), "normal render: {rendered}");
        // Hold the state mutex (as a deadlocked/panicking thread would)
        // and format again: must return, not hang.
        let _guard = gate.state.lock().unwrap();
        let rendered = format!("{gate:?}");
        assert!(rendered.contains("step"), "try_lock render: {rendered}");
        assert!(
            !rendered.contains("granted"),
            "state fields must be skipped while locked: {rendered}"
        );
    }

    #[test]
    fn metadata_queries_do_not_consume_steps() {
        let mut b = MemoryBuilder::new();
        let _w = b.alloc(0);
        let mem = b.build_cc(1);
        let gate = StepGate::new(1);
        let sm = stepped(&mem, &gate);
        assert_eq!(sm.rmrs(0), 0);
        assert_eq!(sm.num_words(), 1);
        assert_eq!(sm.num_procs(), 1);
        assert_eq!(gate.steps(), 0);
    }

    #[test]
    fn many_processes_step_throughput_is_linear() {
        // Smoke test that wakeups are O(1) per step: 64 processes, 100
        // steps each, must finish quickly (sub-second even in debug).
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let n = 64;
        let mem = Arc::new(b.build_cc(n));
        let gate = Arc::new(StepGate::new(n));
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for p in 0..n {
                let mem = Arc::clone(&mem);
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    let sm = stepped(&*mem, &gate);
                    for _ in 0..100 {
                        sm.faa(p, w, 1);
                    }
                    gate.mark_finished(p);
                });
            }
            for i in 0..n * 100 {
                assert_eq!(gate.grant_run(i % n, 0), Some(0));
            }
        });
        assert_eq!(gate.steps(), (n * 100) as u64);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "gate too slow: {:?}",
            start.elapsed()
        );
    }
}
