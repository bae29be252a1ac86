//! `arena-zipf`: 2 OS threads on an `Arena<u64, u64>` with the default
//! builder. Each thread works through its own pre-generated Zipf(0.99)
//! stream over 65,536 keys, doing `lock` and an increment. A warm-up
//! pass touches every key first. The inline-word fast path dominates;
//! a lock core is entered only on a rare promotion.

use crate::common::{
    ns32, span_dist, timed_setup, timed_threads, windowed_pcts, write_spans, Dist, Phase, Progress,
    RunResult, Samples, Tracer,
};
use crate::Config;
use sal_runtime::SmallRng;
use sal_sync::{Arena, ArenaStats};
use std::time::Instant;

const THREADS: usize = 2;
const KEYS: usize = 65_536;
const ZIPF_S: f64 = 0.99;
const STREAM: usize = 1 << 20;
/// Untraced runs time every 128th acquisition, so the two clock reads
/// do not dominate a ~100 ns operation and a 60 s run fits the ring with
/// its order intact; traced runs time every one.
const STRIDE: u64 = 128;
const RING: usize = 1 << 21;
const TRACE_RING: usize = 1 << 21;
const KEEP_SPANS: usize = 20_000;
const SETUP_REPS: usize = 9;
const FRESH_KEYS: usize = 8_192;
const PAIR_BATCH: u32 = 16;
const PAIR_BATCHES: usize = 20_000;
/// Progress is published once per this many operations.
const REPORT_EVERY: u64 = 256;

const ITER: usize = 0;
const ACQUIRE: usize = 1;
const RELEASE: usize = 2;
const SPAN_NAMES: [&str; 3] = ["iteration", "arena.acquire", "arena.release"];

type Keyed = Arena<u64, u64>;

/// One Zipf(0.99) key stream per thread over a seeded permutation of
/// the key space, so the hot keys differ from seed to seed.
fn zipf_streams(seed: u64) -> Vec<Vec<u32>> {
    let mut cdf = Vec::with_capacity(KEYS);
    let mut acc = 0.0;
    for k in 0..KEYS {
        acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..KEYS as u32).collect();
    for i in (1..KEYS).rev() {
        perm.swap(i, rng.random_range(0..i + 1));
    }
    (0..THREADS)
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (0xA5A5_0000 + t as u64));
            (0..STREAM)
                .map(|_| {
                    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let rank = cdf.partition_point(|&c| c < u).min(KEYS - 1);
                    perm[rank]
                })
                .collect()
        })
        .collect()
}

struct Worker {
    stream: Vec<u32>,
    counts: Vec<u64>,
    acquire: Samples,
    tracer: Option<Tracer>,
}

fn iterate(
    slot: usize,
    mut w: Worker,
    arena: &Keyed,
    phase: &Phase,
    progress: &Progress,
) -> (Worker, u64) {
    let mut n = 0u64;
    let mask = w.stream.len() - 1;
    while !phase.stopped() {
        let key = w.stream[n as usize & mask];
        if let Some(tr) = w.tracer.as_mut() {
            let t0 = Instant::now();
            let mut g = arena.lock(&u64::from(key));
            let t1 = Instant::now();
            *g += 1;
            drop(g);
            let t2 = Instant::now();
            let root = tr.id();
            tr.span(ACQUIRE, root, t0, t1);
            tr.span(RELEASE, root, t1, t2);
            tr.record(root, ITER, 0, t0, t2);
        } else if n.is_multiple_of(STRIDE) {
            let t0 = Instant::now();
            let mut g = arena.lock(&u64::from(key));
            w.acquire.record(ns32(t0.elapsed()));
            *g += 1;
        } else {
            *arena.lock(&u64::from(key)) += 1;
        }
        w.counts[key as usize] += 1;
        n += 1;
        if n.is_multiple_of(REPORT_EVERY) {
            progress.report(slot, n, n, n);
        }
    }
    (w, n)
}

fn phase(
    workers: Vec<Worker>,
    arena: &Keyed,
    seconds: f64,
    progress: &Progress,
) -> (Vec<Worker>, u64, f64) {
    let (done, rate) = timed_threads(workers, seconds, progress, |slot, w, ph| {
        iterate(slot, w, arena, ph, progress)
    });
    let ops = done.iter().map(|d| d.1).sum();
    (done.into_iter().map(|d| d.0).collect(), ops, rate)
}

fn delta(after: ArenaStats, before: ArenaStats) -> ArenaStats {
    ArenaStats {
        promotions: after.promotions - before.promotions,
        demotions: after.demotions - before.demotions,
        raced_promotions: after.raced_promotions - before.raced_promotions,
        fallback_spins: after.fallback_spins - before.fallback_spins,
        ..after
    }
}

pub fn run(cfg: &Config, progress: &Progress) -> RunResult {
    let mut r = RunResult::default();
    r.note(format!(
        "loop: closed, {THREADS} OS threads, Arena<u64, u64> default builder, lock + increment, Zipf({ZIPF_S}) over {KEYS} keys, streams of {STREAM} keys per thread"
    ));
    let streams = zipf_streams(cfg.seed);

    let (arena, setup_s) = timed_setup(SETUP_REPS, || {
        let a: Keyed = Arena::builder().build();
        for k in 0..KEYS as u64 {
            *a.lock(&k) += 1;
        }
        progress.beat();
        a
    });
    r.metric("setup_s", setup_s, "s");

    let origin = Instant::now();
    let workers: Vec<Worker> = streams
        .into_iter()
        .map(|stream| Worker {
            stream,
            counts: vec![0; KEYS],
            acquire: Samples::with_capacity(RING),
            tracer: None,
        })
        .collect();

    let (mut workers, ops, pps) = phase(workers, &arena, cfg.untraced_seconds(), progress);
    let parts: Vec<&Samples> = workers.iter().map(|w| &w.acquire).collect();
    let p = windowed_pcts(&parts, &[0.5, 0.99]);
    r.note(format!(
        "acquire (untraced): {} exact samples (every {STRIDE}th acquisition timed); p50/p99 are medians over windows",
        parts.iter().map(|s| s.retained().len()).sum::<usize>()
    ));
    r.metric("passages_per_s", pps, "1/s");
    r.metric("acquire_p50_ns", p[0], "ns");
    r.metric("acquire_p99_ns", p[1], "ns");
    let mut attempted = ops;

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
        let before = arena.stats();
        let (ws, traced_ops, traced_pps) = phase(workers, &arena, cfg.seconds / 2.0, progress);
        let s = delta(arena.stats(), before);
        workers = ws;
        attempted += traced_ops;
        let tracers: Vec<Tracer> = workers.iter_mut().filter_map(|w| w.tracer.take()).collect();
        let acq = span_dist(&tracers, ACQUIRE);
        r.note(acq.describe("arena.acquire span (traced)"));
        r.metric("arena.acquire_ns.p50", acq.pct(0.5), "ns");
        r.metric("arena.acquire_ns.p99", acq.pct(0.99), "ns");
        r.metric("arena.promotions", s.promotions as f64, "count");
        r.metric("arena.raced_promotions", s.raced_promotions as f64, "count");
        r.metric("arena.demotions", s.demotions as f64, "count");
        r.metric("arena.fallback_spins", s.fallback_spins as f64, "count");
        let tried = s.promotions + s.raced_promotions;
        r.metric(
            "arena.promotion_yield",
            if tried == 0 {
                0.0
            } else {
                s.promotions as f64 / tried as f64
            },
            "ratio",
        );
        r.metric("arena.keys", s.keys as f64, "count");
        r.metric("arena.built_cores", s.built_cores as f64, "count");
        r.overhead(pps, traced_pps);
        write_spans(
            &mut r,
            &format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed),
            &SPAN_NAMES,
            &tracers,
        );
        drop(tracers);
        progress.beat();
        peeled_cells(&arena, &mut r);
    }

    // Lost updates: each key's value is its warm-up touch plus every
    // lock the two threads took on it.
    let mut bad = 0u64;
    for k in 0..KEYS {
        let want = 1 + workers.iter().map(|w| w.counts[k]).sum::<u64>();
        if *arena.lock(&(k as u64)) != want {
            bad += 1;
        }
    }
    if bad > 0 {
        r.fail(bad, format!("lost update on {bad} keys"));
    }
    r.attempted = attempted;
    r.note(format!("attempts {attempted}, all plain lock() calls"));
    r
}

/// One thread: a warm key's inline lock/unlock pair, and the first
/// touch of a never-seen key (shard map insert plus inline CAS).
fn peeled_cells(arena: &Keyed, r: &mut RunResult) {
    let warm = 0u64;
    let mut pairs = Vec::with_capacity(PAIR_BATCHES);
    for _ in 0..PAIR_BATCHES {
        let t0 = Instant::now();
        for _ in 0..PAIR_BATCH {
            *arena.lock(&warm) += 1;
        }
        pairs.push(ns32(t0.elapsed()) / PAIR_BATCH);
    }
    // Undo the cell's increments so the lost-update check still holds.
    *arena.lock(&warm) -= u64::from(PAIR_BATCH) * PAIR_BATCHES as u64;
    let pairs = Dist::from_vec(pairs);
    r.note(pairs.describe(&format!(
        "arena.inline_pair_ns (1 thread, batches of {PAIR_BATCH})"
    )));
    r.metric("arena.inline_pair_ns.p50", pairs.pct(0.5), "ns");

    let mut first = Vec::with_capacity(FRESH_KEYS);
    for k in 0..FRESH_KEYS as u64 {
        let key = KEYS as u64 + k;
        let t0 = Instant::now();
        let g = arena.lock(&key);
        first.push(ns32(t0.elapsed()));
        drop(g);
    }
    let first = Dist::from_vec(first);
    r.note(first.describe("arena.first_touch_ns"));
    r.metric("arena.first_touch_ns.p50", first.pct(0.5), "ns");
}
