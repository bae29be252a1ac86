//! `mutex-contended`: 2 OS threads share one `AbortableMutex<[u64; 8]>`
//! (capacity 4). Each iteration is a `try_lock_until(now + 200 µs)`
//! (7 in 8) or a `try_lock()` (1 in 8); the critical section increments
//! all 8 words, then 400 multiply-adds run outside the lock. The arena
//! is bypassed.

use crate::common::{
    ns32, outside_work, span_dist, timed_setup, timed_threads, windowed_pcts, write_spans, Dist,
    Progress, RunResult, Samples, Tracer,
};
use crate::{core_cells, Config};
use sal_runtime::SmallRng;
use sal_sync::{AbortableMutex, MutexHandle};
use std::time::{Duration, Instant};

pub const CAPACITY: usize = 4;
pub const TIMEOUT: Duration = Duration::from_micros(200);
pub const OUTSIDE_ROUNDS: u32 = 400;
const THREADS: usize = 2;
const PLAN_LEN: usize = 4096;
/// Every acquisition is timed; every 16th entered one is kept, so a
/// 60 s run fits the ring with its order intact.
const KEEP_EVERY: u64 = 16;
const RING: usize = 1 << 21;
const TRACE_RING: usize = 1 << 20;
const KEEP_SPANS: usize = 20_000;
const SETUP_REPS: usize = 15;
const WARMUP_PASSAGES: u64 = 100_000;

const ITER: usize = 0;
const ACQUIRE: usize = 1;
const CS: usize = 2;
const RELEASE: usize = 3;
const OUTSIDE: usize = 4;
const SPAN_NAMES: [&str; 5] = [
    "iteration",
    "sync.acquire",
    "critical_section",
    "sync.release",
    "outside_work",
];

type Data = [u64; 8];

/// Which attempts are `try_lock()` (true) rather than deadline-bound,
/// for one thread: 1 in 8 on average, drawn from the seed.
pub fn op_plan(seed: u64, thread: usize) -> Vec<bool> {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ thread as u64);
    (0..PLAN_LEN)
        .map(|_| rng.next_u64().is_multiple_of(8))
        .collect()
}

struct Worker<'m> {
    handle: MutexHandle<'m, Data>,
    plan: Vec<bool>,
    acquire: Samples,
    tracer: Option<Tracer>,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    attempts: u64,
    entered: u64,
    timeouts: u64,
    immediate_fails: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.attempts += o.attempts;
        self.entered += o.entered;
        self.timeouts += o.timeouts;
        self.immediate_fails += o.immediate_fails;
    }
}

struct Done<'m> {
    worker: Worker<'m>,
    counts: Counts,
    overshoot: Vec<u32>,
}

fn iterate<'m>(
    slot: usize,
    mut w: Worker<'m>,
    phase: &crate::common::Phase,
    progress: &Progress,
) -> Done<'m> {
    let mut c = Counts::default();
    let mut overshoot = Vec::new();
    let mut i = 0usize;
    while !phase.stopped() {
        let immediate = w.plan[i % w.plan.len()];
        progress.report(slot, c.attempts + 1, c.attempts, c.entered);
        let t0 = Instant::now();
        let deadline = t0 + TIMEOUT;
        let got = if immediate {
            w.handle.try_lock()
        } else {
            w.handle.try_lock_until(deadline)
        };
        let t1 = Instant::now();
        let mut t_cs = None;
        match got {
            Some(mut g) => {
                for word in g.iter_mut() {
                    *word += 1;
                }
                if w.tracer.is_some() {
                    let t2 = Instant::now();
                    drop(g);
                    t_cs = Some((t2, Instant::now()));
                } else {
                    drop(g);
                }
                if c.entered.is_multiple_of(KEEP_EVERY) {
                    w.acquire.record(ns32(t1 - t0));
                }
                c.entered += 1;
            }
            None if immediate => c.immediate_fails += 1,
            None => {
                c.timeouts += 1;
                if w.tracer.is_some() {
                    overshoot.push(ns32(t1.saturating_duration_since(deadline)));
                }
            }
        }
        c.attempts += 1;
        progress.report(slot, c.attempts, c.attempts, c.entered);
        let t_out = w.tracer.as_ref().map(|_| Instant::now());
        outside_work(i as u64, OUTSIDE_ROUNDS);
        if let (Some(tr), Some(t_out)) = (w.tracer.as_mut(), t_out) {
            let end = Instant::now();
            let root = tr.id();
            tr.span(ACQUIRE, root, t0, t1);
            if let Some((t2, t3)) = t_cs {
                tr.span(CS, root, t1, t2);
                tr.span(RELEASE, root, t2, t3);
            }
            tr.span(OUTSIDE, root, t_out, end);
            tr.record(root, ITER, 0, t0, end);
        }
        i += 1;
    }
    Done {
        worker: w,
        counts: c,
        overshoot,
    }
}

struct PhaseOut<'m> {
    workers: Vec<Worker<'m>>,
    counts: Counts,
    overshoot: Vec<u32>,
    /// Entered passages per second, median over windows.
    rate: f64,
}

fn phase<'m>(workers: Vec<Worker<'m>>, seconds: f64, progress: &Progress) -> PhaseOut<'m> {
    let (done, rate) = timed_threads(workers, seconds, progress, |slot, w, ph| {
        iterate(slot, w, ph, progress)
    });
    let mut counts = Counts::default();
    let mut overshoot = Vec::new();
    let mut workers = Vec::new();
    for d in done {
        counts.add(d.counts);
        overshoot.extend(d.overshoot);
        workers.push(d.worker);
    }
    PhaseOut {
        workers,
        counts,
        overshoot,
        rate,
    }
}

pub fn run(cfg: &Config, progress: &Progress) -> RunResult {
    let mut r = RunResult::default();
    r.note(format!(
        "loop: closed, {THREADS} OS threads, AbortableMutex<[u64; 8]> capacity {CAPACITY}, 7/8 try_lock_until(+{} us), 1/8 try_lock(), {OUTSIDE_ROUNDS} multiply-adds outside",
        TIMEOUT.as_micros()
    ));
    let plans: Vec<Vec<bool>> = (0..THREADS).map(|t| op_plan(cfg.seed, t)).collect();

    let (m, setup_s) = timed_setup(SETUP_REPS, || {
        let m = AbortableMutex::builder([0u64; 8])
            .capacity(CAPACITY)
            .build();
        let mut h = m.handle();
        for _ in 0..WARMUP_PASSAGES {
            for word in h.lock().iter_mut() {
                *word += 1;
            }
        }
        progress.beat();
        m
    });
    r.metric("setup_s", setup_s, "s");

    let origin = Instant::now();
    let workers: Vec<Worker<'_>> = plans
        .into_iter()
        .map(|plan| Worker {
            handle: m.handle(),
            plan,
            acquire: Samples::with_capacity(RING),
            tracer: None,
        })
        .collect();

    let untraced = phase(workers, cfg.untraced_seconds(), progress);
    let parts: Vec<&Samples> = untraced.workers.iter().map(|w| &w.acquire).collect();
    let p = windowed_pcts(&parts, &[0.5, 0.99]);
    r.note(format!(
        "acquire (untraced): {} exact samples (every {KEEP_EVERY}th entered passage); p50/p99 are medians over windows",
        parts.iter().map(|s| s.retained().len()).sum::<usize>()
    ));
    let pps = untraced.rate;
    r.metric("passages_per_s", pps, "1/s");
    r.metric("acquire_p50_ns", p[0], "ns");
    r.metric("acquire_p99_ns", p[1], "ns");
    let mut total = untraced.counts;
    let mut workers = untraced.workers;

    if cfg.trace {
        for (t, w) in workers.iter_mut().enumerate() {
            w.tracer = Some(Tracer::new(
                origin,
                t as u32,
                SPAN_NAMES.len(),
                TRACE_RING,
                KEEP_SPANS,
            ));
        }
        let traced = phase(workers, cfg.seconds / 2.0, progress);
        let c = traced.counts;
        let mut ws = traced.workers;
        let tracers: Vec<Tracer> = ws.iter_mut().filter_map(|w| w.tracer.take()).collect();
        let acq = span_dist(&tracers, ACQUIRE);
        let rel = span_dist(&tracers, RELEASE);
        let over = Dist::from_vec(traced.overshoot);
        r.note(acq.describe("sync.acquire span (traced)"));
        r.note(rel.describe("sync.release span"));
        r.note(over.describe("sync.abort_overshoot (return minus deadline)"));
        r.metric("sync.acquire_ns.p50", acq.pct(0.5), "ns");
        r.metric("sync.acquire_ns.p99", acq.pct(0.99), "ns");
        r.metric("sync.release_ns.p50", rel.pct(0.5), "ns");
        r.metric("sync.timeouts", c.timeouts as f64, "count");
        r.metric("sync.immediate_fails", c.immediate_fails as f64, "count");
        r.metric(
            "sync.timeout_share",
            (c.timeouts + c.immediate_fails) as f64 / c.attempts.max(1) as f64,
            "ratio",
        );
        r.metric("sync.abort_overshoot_ns.p50", over.pct(0.5), "ns");
        r.metric("sync.abort_overshoot_ns.p99", over.pct(0.99), "ns");
        r.overhead(pps, traced.rate);
        write_spans(
            &mut r,
            &format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed),
            &SPAN_NAMES,
            &tracers,
        );
        total.add(c);
        workers = ws;
        progress.beat();
        core_cells::run(cfg.seed, &mut r);
    }

    // Lost updates: every word must equal the number of entered passages.
    let want = WARMUP_PASSAGES + total.entered;
    let mut h = workers.pop().expect("a worker handle").handle;
    let got = *h.lock();
    if got.iter().any(|&w| w != want) {
        r.fail(
            total.entered,
            format!("lost update: words {got:?}, entered {want}"),
        );
    }
    r.attempted = total.attempts;
    r.note(format!(
        "attempts {} entered {} timeouts {} immediate_fails {}",
        total.attempts, total.entered, total.timeouts, total.immediate_fails
    ));
    r
}
