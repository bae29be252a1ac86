//! `async-cancel`: one executor worker (`Executor::run(1)`) runs 16
//! tasks on a 16-pid `AsyncAbortableMutex<u64>`. Each task holds its
//! guard across one yield; 1 in 4 attempts (drawn from the seed) drops
//! its lock future if it is still pending after 4 polls, which runs the
//! lock's bounded abort. Queueing is deterministic: there is no OS
//! scheduler between the tasks, so every count repeats exactly at a
//! fixed seed.
//!
//! Cancellation is by poll budget, not `lock_timeout`: see NOTES.md for
//! the hang this avoids.

use crate::common::{median, ns32, timed_setup, write_spans, Dist, Progress, RunResult, Tracer};
use crate::{core_cells, sim, Config};
use sal_runtime::{Executor, SmallRng};
use sal_sync::AsyncAbortableMutex;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};
use std::time::Instant;

const TASKS: usize = 16;
const CAPACITY: usize = 16;
/// Attempts per task in one cycle; a run repeats whole cycles.
const REPS: usize = 2_000;
const WARMUP_REPS: usize = 200;
const POLL_BUDGET: u32 = 4;
const TRACE_RING: usize = 1 << 21;
const KEEP_SPANS: usize = 20_000;
const SETUP_REPS: usize = 11;

const ATTEMPT: usize = 0;
const POLL: usize = 1;
const CANCEL: usize = 2;
const SPAN_NAMES: [&str; 3] = ["attempt", "async.poll", "async.cancel"];

type Shared = AsyncAbortableMutex<u64>;
type SharedTracer = Arc<Mutex<Tracer>>;

/// Polls a lock future at most `budget` times; if it is still pending
/// then, drops it (the cancellation under test) and resolves to `None`.
struct Budgeted<'t, F> {
    inner: Option<F>,
    polls: u32,
    budget: u32,
    tracer: Option<&'t Mutex<Tracer>>,
    parent: u64,
}

impl<F: Future + Unpin> Future for Budgeted<'_, F> {
    type Output = (Option<F::Output>, u32);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        let fut = this.inner.as_mut().expect("polled after completion");
        this.polls += 1;
        let t0 = Instant::now();
        let res = Pin::new(fut).poll(cx);
        if let Some(tr) = this.tracer {
            tr.lock()
                .expect("tracer lock")
                .span(POLL, this.parent, t0, Instant::now());
        }
        match res {
            Poll::Ready(g) => {
                this.inner = None;
                Poll::Ready((Some(g), this.polls))
            }
            Poll::Pending if this.polls >= this.budget => {
                let t1 = Instant::now();
                this.inner = None;
                if let Some(tr) = this.tracer {
                    tr.lock()
                        .expect("tracer lock")
                        .span(CANCEL, this.parent, t1, Instant::now());
                }
                Poll::Ready((None, this.polls))
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Returns `Pending` once, waking itself: one trip through the run
/// queue while the guard is held.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[derive(Default)]
struct TaskOut {
    entered: u64,
    cancelled: u64,
    entered_polls: u64,
    acquire: Vec<u32>,
}

async fn task(
    slot: usize,
    m: &Shared,
    plan: &[bool],
    tracer: Option<&Mutex<Tracer>>,
    progress: &Progress,
) -> TaskOut {
    let mut out = TaskOut {
        acquire: Vec::with_capacity(plan.len()),
        ..TaskOut::default()
    };
    for (i, &cancel) in plan.iter().enumerate() {
        progress.report(slot, i as u64 + 1, i as u64, out.entered);
        let parent = tracer.map_or(0, |t| t.lock().expect("tracer lock").id());
        let t0 = Instant::now();
        let (got, polls) = Budgeted {
            inner: Some(m.lock()),
            polls: 0,
            budget: if cancel { POLL_BUDGET } else { u32::MAX },
            tracer,
            parent,
        }
        .await;
        match got {
            Some(mut g) => {
                out.acquire.push(ns32(t0.elapsed()));
                *g += 1;
                YieldOnce(false).await;
                drop(g);
                out.entered += 1;
                out.entered_polls += u64::from(polls);
            }
            None => out.cancelled += 1,
        }
        if let Some(t) = tracer {
            t.lock()
                .expect("tracer lock")
                .record(parent, ATTEMPT, 0, t0, Instant::now());
        }
        progress.report(slot, i as u64 + 1, i as u64 + 1, out.entered);
    }
    out
}

/// The counts of one cycle; every cycle at one seed must repeat them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CycleCounts {
    entered: u64,
    cancelled: u64,
    entered_polls: u64,
    enter_wakeups: u64,
    futile_enter_wakeups: u64,
    pid_waits: u64,
    cancelled_pending: u64,
}

struct Cycle {
    counts: CycleCounts,
    acquire: Vec<u32>,
    seconds: f64,
    errors: Vec<String>,
}

/// One cycle: a fresh mutex and executor, every task through its plan.
fn cycle(
    plans: &Arc<Vec<Vec<bool>>>,
    tracer: Option<&SharedTracer>,
    progress: &Arc<Progress>,
) -> Cycle {
    let t0 = Instant::now();
    let m: Arc<Shared> = Arc::new(
        AsyncAbortableMutex::builder(0u64)
            .capacity(CAPACITY)
            .build_async(),
    );
    let ex = Executor::new();
    let outs: Arc<Mutex<Vec<TaskOut>>> = Arc::new(Mutex::new(Vec::with_capacity(TASKS)));
    for slot in 0..plans.len() {
        let (m, plans, outs) = (Arc::clone(&m), Arc::clone(plans), Arc::clone(&outs));
        let (tracer, progress) = (tracer.cloned(), Arc::clone(progress));
        ex.spawn(async move {
            let out = task(slot, &m, &plans[slot], tracer.as_deref(), &progress).await;
            outs.lock().expect("results lock").push(out);
        });
    }
    ex.run(1);
    let seconds = t0.elapsed().as_secs_f64();

    let stats = m.stats();
    let outs = std::mem::take(&mut *outs.lock().expect("results lock"));
    let mut c = CycleCounts {
        enter_wakeups: stats.enter_wakeups,
        futile_enter_wakeups: stats.futile_enter_wakeups,
        pid_waits: stats.pid_waits,
        cancelled_pending: stats.cancelled_pending,
        ..CycleCounts::default()
    };
    let mut acquire = Vec::new();
    for o in outs {
        c.entered += o.entered;
        c.cancelled += o.cancelled;
        c.entered_polls += o.entered_polls;
        acquire.extend(o.acquire);
    }
    let mut errors = Vec::new();
    if stats.free_pids != stats.pool_capacity || stats.queued_tasks != 0 {
        errors.push(format!(
            "pid leak: {} of {} pids free, {} tasks queued",
            stats.free_pids, stats.pool_capacity, stats.queued_tasks
        ));
    }
    match Arc::try_unwrap(m).map(AsyncAbortableMutex::into_inner) {
        Ok(v) if v == c.entered => {}
        Ok(v) => errors.push(format!("lost update: value {v}, entered {}", c.entered)),
        Err(_) => errors.push("a task still holds the mutex after the executor drained".into()),
    }
    Cycle {
        counts: c,
        acquire,
        seconds,
        errors,
    }
}

struct PhaseOut {
    first: CycleCounts,
    cycles: u64,
    attempts: u64,
    seconds: f64,
    /// Per cycle: entered passages per second, acquire p50 and p99.
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: u64,
}

/// Whole cycles until `seconds` have passed; checks each cycle's counts
/// against the first and each cycle's leak and lost-update checks.
/// Rates and percentiles are per cycle; the run reports their medians.
fn phase(
    plans: &Arc<Vec<Vec<bool>>>,
    seconds: f64,
    tracer: Option<&SharedTracer>,
    progress: &Arc<Progress>,
    r: &mut RunResult,
) -> PhaseOut {
    let per_cycle = (plans.len() * plans[0].len()) as u64;
    let mut p = PhaseOut {
        first: CycleCounts::default(),
        cycles: 0,
        attempts: 0,
        seconds: 0.0,
        rates: Vec::new(),
        p50s: Vec::new(),
        p99s: Vec::new(),
        samples: 0,
    };
    while p.cycles == 0 || p.seconds < seconds {
        let c = cycle(plans, tracer, progress);
        for e in c.errors {
            r.fail(per_cycle, e);
        }
        if p.cycles == 0 {
            p.first = c.counts;
        } else if c.counts != p.first {
            r.fail(
                per_cycle,
                format!(
                    "cycle counts differ at a fixed seed: {:?} vs {:?}",
                    c.counts, p.first
                ),
            );
        }
        if c.counts.entered + c.counts.cancelled != per_cycle {
            r.fail(per_cycle, "an attempt neither entered nor cancelled");
        }
        p.rates.push(c.counts.entered as f64 / c.seconds);
        let d = Dist::from_vec(c.acquire);
        p.p50s.push(d.pct(0.5));
        p.p99s.push(d.pct(0.99));
        p.samples += d.len() as u64;
        p.cycles += 1;
        p.attempts += per_cycle;
        p.seconds += c.seconds;
    }
    p
}

pub fn run(cfg: &Config, progress: &Arc<Progress>) -> RunResult {
    let mut r = RunResult::default();
    r.note(format!(
        "loop: closed, {TASKS} tasks on Executor::run(1), AsyncAbortableMutex capacity {CAPACITY}, guard held across one yield, 1/4 of attempts dropped after {POLL_BUDGET} pending polls, cycles of {REPS} attempts per task"
    ));
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xA5C0);
    let plans: Arc<Vec<Vec<bool>>> = Arc::new(
        (0..TASKS)
            .map(|_| {
                (0..REPS)
                    .map(|_| rng.next_u64().is_multiple_of(4))
                    .collect()
            })
            .collect(),
    );
    let warm: Arc<Vec<Vec<bool>>> =
        Arc::new(plans.iter().map(|p| p[..WARMUP_REPS].to_vec()).collect());

    let ((), setup_s) = timed_setup(SETUP_REPS, || {
        let c = cycle(&warm, None, progress);
        if !c.errors.is_empty() {
            r.fail(1, format!("warm-up cycle: {:?}", c.errors));
        }
    });
    r.metric("setup_s", setup_s, "s");

    let untraced = phase(&plans, cfg.untraced_seconds(), None, progress, &mut r);
    let pps = median(untraced.rates.clone());
    r.note(format!(
        "acquire (untraced): {} exact samples over {} cycles of {:.3} s; medians over cycles",
        untraced.samples,
        untraced.cycles,
        untraced.seconds / untraced.cycles as f64
    ));
    r.metric("passages_per_s", pps, "1/s");
    r.metric("acquire_p50_ns", median(untraced.p50s.clone()), "ns");
    r.metric("acquire_p99_ns", median(untraced.p99s.clone()), "ns");
    let c = untraced.first;
    r.note(format!(
        "per cycle ({} cycles): entered {} cancelled {} enter_wakeups {} futile {} pid_waits {} cancelled_pending {}",
        untraced.cycles, c.entered, c.cancelled, c.enter_wakeups, c.futile_enter_wakeups, c.pid_waits, c.cancelled_pending
    ));
    let mut attempted = untraced.attempts;

    if cfg.trace {
        let tracer: SharedTracer = Arc::new(Mutex::new(Tracer::new(
            Instant::now(),
            0,
            SPAN_NAMES.len(),
            TRACE_RING,
            KEEP_SPANS,
        )));
        let traced = phase(&plans, cfg.seconds / 2.0, Some(&tracer), progress, &mut r);
        attempted += traced.attempts;
        if traced.first != untraced.first {
            r.fail(1, "traced cycle counts differ from untraced ones");
        }
        let tr = Arc::try_unwrap(tracer)
            .ok()
            .expect("tasks released the tracer")
            .into_inner()
            .expect("tracer lock");
        let tracers = [tr];
        let poll = crate::common::span_dist(&tracers, POLL);
        let cancel = crate::common::span_dist(&tracers, CANCEL);
        r.note(poll.describe("async.poll span (traced)"));
        r.note(cancel.describe("async.cancel span (drop of a pending future)"));
        let c = traced.first;
        r.metric("async.poll_ns.p50", poll.pct(0.5), "ns");
        r.metric(
            "async.polls_per_acquire",
            c.entered_polls as f64 / c.entered.max(1) as f64,
            "ratio",
        );
        r.metric("async.cancel_ns.p50", cancel.pct(0.5), "ns");
        r.metric("async.cancel_ns.p99", cancel.pct(0.99), "ns");
        r.metric("async.entered", c.entered as f64, "count");
        r.metric("async.enter_wakeups", c.enter_wakeups as f64, "count");
        r.metric(
            "async.futile_enter_wakeups",
            c.futile_enter_wakeups as f64,
            "count",
        );
        r.metric(
            "async.wake_yield",
            1.0 - c.futile_enter_wakeups as f64 / c.enter_wakeups.max(1) as f64,
            "ratio",
        );
        r.metric(
            "async.cancelled_pending",
            c.cancelled_pending as f64,
            "count",
        );
        r.metric("async.pid_waits", c.pid_waits as f64, "count");
        r.metric(
            "async.timeout_share",
            c.cancelled as f64 / (c.entered + c.cancelled).max(1) as f64,
            "ratio",
        );
        r.overhead(pps, median(traced.rates));
        write_spans(
            &mut r,
            &format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed),
            &SPAN_NAMES,
            &tracers,
        );
        progress.beat();
        core_cells::run(cfg.seed, &mut r);
        // The simulator, search and CC-memory layers ride on this
        // workload's traced run: one cycle of the sim-rmr shape.
        attempted += sim::layer_cells(cfg.seed, 0.0, cfg.workload, progress, &mut r).1;
    }
    r.attempted = attempted;
    r
}
