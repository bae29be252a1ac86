//! hwscale — native hardware mono-vs-dyn contention benchmark (M4).
//!
//! ```text
//! cargo run --release -p sal-bench -- hwscale [--smoke] [--duration-ms N] [--lock NAME]
//! ```
//!
//! Real OS threads hammer each lock over bare [`RawMemory`] for a fixed
//! wall-clock duration per cell, once through the **monomorphized**
//! path (`LockCore<RawMemory, NoProbe>` — memory ops inline to direct
//! `AtomicU64` accesses) and once through the **dyn** path
//! ([`DynLock`] over `Box<dyn AbortableLock>` — every lock and memory
//! op takes a virtual call, exactly what erased registries pay). Both
//! flavours run the *same* generic driver, so the only difference
//! between the two runs of a cell is dispatch.
//!
//! Grid: lock kind × thread count × abort rate. Each cell reports
//! entered/aborted passage counts, throughput, an enter-latency
//! histogram (sampled, nanoseconds), and the mono/dyn speedup. The
//! verdict is the *median* speedup over the contended cells, reported
//! with the count of cells where dyn was faster. The
//! lost-update invariant from `real_threads_stress` is asserted on
//! every cell: the CS increments an unprotected cell, which must match
//! the entered count.
//!
//! Results go to stdout as a table and to the headline artifact
//! `BENCH_hwscale.json` (machine-readable, with caveat fields: on a
//! box with fewer CPUs than threads, speedups reflect code-path cost
//! under preemption, not parallel contention — see EXPERIMENTS.md M4).

use crate::Exit;
use sal_baselines::{LeeLock, McsLock, ScottLock, TasLock, TicketLock, TournamentLock};
use sal_bench::artifact::{self, Mode};
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{amortized_companion, LockKind, Table};
use sal_core::long_lived::{BoundedLongLivedLock, JjLock, SimpleLongLivedLock};
use sal_core::{AbortableLock, DynLock, Immediate, LockCore};
use sal_memory::{MemoryBuilder, NeverAbort, RawMemory};
use sal_obs::{AmortizedStats, Histogram, Json, NoProbe, ToJson};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Speedup bar of the verdict: the median mono/dyn ratio over the
/// contended cells should reach it, else the JSON records a measured
/// caveat instead.
const TARGET_SPEEDUP: f64 = 1.2;

/// One dispatch flavour's run of a cell.
struct PathResult {
    entered: u64,
    aborted: u64,
    elapsed: Duration,
    /// Enter latency of entered passages, nanoseconds, sampled 1-in-16.
    lat: Histogram,
}

impl PathResult {
    fn throughput(&self) -> f64 {
        self.entered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("entered", self.entered.to_json()),
            ("aborted", self.aborted.to_json()),
            ("elapsed_ns", (self.elapsed.as_nanos() as u64).to_json()),
            ("throughput_per_sec", self.throughput().to_json()),
            (
                "enter_ns",
                Json::obj(vec![
                    ("samples", self.lat.count().to_json()),
                    ("p50", self.lat.quantile(0.50).to_json()),
                    ("p95", self.lat.quantile(0.95).to_json()),
                    ("p99", self.lat.quantile(0.99).to_json()),
                    ("max", self.lat.max().to_json()),
                    ("mean", self.lat.mean().to_json()),
                ]),
            ),
        ])
    }
}

/// Per-cell knobs shared by both dispatch flavours.
struct CellCfg {
    duration: Duration,
    /// Every k-th attempt of a thread uses a pre-fired abort signal.
    abort_every: Option<usize>,
    /// Shared attempt cap for arena-based locks (their layouts hold
    /// exactly this many enter attempts); `None` = unbounded kinds.
    attempt_budget: Option<u64>,
}

/// The generic cell driver: `threads` real threads hammer `lock` over
/// `mem` until the deadline (or the shared attempt budget) runs out.
/// Monomorphized and dyn flavours both come through here — `L` is the
/// concrete lock type for the former and [`DynLock`] for the latter.
fn drive<L>(lock: &L, mem: &RawMemory, threads: usize, cfg: &CellCfg) -> PathResult
where
    L: LockCore<RawMemory, NoProbe> + Sync,
{
    // The protected counter lives outside the lock's memory: a
    // non-atomic cell only ever touched inside the CS, so any mutual
    // exclusion failure shows up as a lost update.
    struct Cell(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Cell {}
    let counter = Cell(std::cell::UnsafeCell::new(0));
    let entered = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let budget = cfg.attempt_budget.map(AtomicU64::new);
    // Main thread joins the barrier so the clock starts when the
    // workers are released, not when they are spawned.
    let barrier = Barrier::new(threads + 1);

    let (hists, elapsed) = std::thread::scope(|s| {
        let counter = &counter;
        let entered = &entered;
        let aborted = &aborted;
        let budget = budget.as_ref();
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|p| {
                s.spawn(move || {
                    let mut lat = Histogram::new();
                    barrier.wait();
                    let deadline = Instant::now() + cfg.duration;
                    let mut i = 0usize;
                    loop {
                        // Clock calls cost as much as a fast passage, so
                        // check the deadline and sample latency only on
                        // (staggered) 1-in-16 iterations.
                        if i & 15 == 0 && Instant::now() >= deadline {
                            break;
                        }
                        if let Some(b) = budget {
                            if b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                                v.checked_sub(1)
                            })
                            .is_err()
                            {
                                break;
                            }
                        }
                        let want_abort = cfg
                            .abort_every
                            .map(|k| (i + p).is_multiple_of(k))
                            .unwrap_or(false);
                        let sample = i & 15 == 8;
                        let t0 = sample.then(Instant::now);
                        let ok = if want_abort {
                            // Pre-fired signal: abort at the first wait,
                            // succeed if handed the lock before it.
                            lock.enter_core(mem, p, &Immediate, &NoProbe).entered()
                        } else {
                            lock.enter_core(mem, p, &NeverAbort, &NoProbe).entered()
                        };
                        if ok {
                            if let Some(t0) = t0 {
                                lat.record(t0.elapsed().as_nanos() as u64);
                            }
                            // Critical section: read-modify-write on the
                            // unprotected cell.
                            unsafe {
                                let c = counter.0.get();
                                let v = c.read();
                                std::hint::black_box(v);
                                c.write(v + 1);
                            }
                            lock.exit_core(mem, p, &NoProbe);
                            entered.fetch_add(1, Ordering::Relaxed);
                        } else {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        i += 1;
                    }
                    lat
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let hists: Vec<Histogram> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (hists, start.elapsed())
    });

    let entered = entered.load(Ordering::Relaxed);
    assert_eq!(
        unsafe { *counter.0.get() },
        entered,
        "lost update: mutual exclusion violated on real threads"
    );
    let mut lat = Histogram::new();
    for h in &hists {
        lat.merge_from(h);
    }
    PathResult {
        entered,
        aborted: aborted.load(Ordering::Relaxed),
        elapsed,
        lat,
    }
}

/// Build the lock twice from identical layouts and run the cell on
/// both dispatch flavours: once monomorphized over the concrete `L`,
/// once re-erased through [`DynLock`]. Returns `(mono, dyn)`.
fn bench_cell<L, F>(make: F, threads: usize, cfg: &CellCfg) -> (PathResult, PathResult)
where
    L: LockCore<RawMemory, NoProbe> + AbortableLock + Sized + 'static,
    F: Fn(&mut MemoryBuilder, usize, usize) -> L,
{
    let layout_attempts = cfg.attempt_budget.unwrap_or(0) as usize;
    let mono = {
        let mut mb = MemoryBuilder::new();
        let lock = make(&mut mb, threads, layout_attempts);
        let mem = mb.build_raw(threads);
        drive(&lock, &mem, threads, cfg)
    };
    let dynd = {
        let mut mb = MemoryBuilder::new();
        let boxed: Box<dyn AbortableLock> = Box::new(make(&mut mb, threads, layout_attempts));
        let mem = mb.build_raw(threads);
        drive(&DynLock(&*boxed), &mem, threads, cfg)
    };
    (mono, dynd)
}

/// Dispatch a [`LockKind`] to its concrete constructor (monomorphizing
/// [`bench_cell`] per kind). One-shot kinds are excluded from the grid:
/// each process may enter at most once, which cannot sustain a
/// fixed-duration throughput loop.
fn run_cell(kind: LockKind, threads: usize, cfg: &CellCfg) -> (PathResult, PathResult) {
    match kind {
        LockKind::LongLived { b } => bench_cell(
            |mb, n, _| BoundedLongLivedLock::layout(mb, n, b),
            threads,
            cfg,
        ),
        LockKind::LongLivedSimple { b } => bench_cell(
            |mb, n, a| SimpleLongLivedLock::layout(mb, n, b, a + 1),
            threads,
            cfg,
        ),
        LockKind::Mcs => bench_cell(|mb, n, _| McsLock::layout(mb, n), threads, cfg),
        LockKind::Ticket => bench_cell(|mb, _, _| TicketLock::layout(mb), threads, cfg),
        LockKind::Tas => bench_cell(|mb, _, _| TasLock::layout(mb), threads, cfg),
        LockKind::Tournament => bench_cell(|mb, n, _| TournamentLock::layout(mb, n), threads, cfg),
        LockKind::Scott => bench_cell(|mb, n, a| ScottLock::layout(mb, n, a + 1), threads, cfg),
        LockKind::Lee => bench_cell(|mb, n, a| LeeLock::layout(mb, n, a + 1), threads, cfg),
        LockKind::JjAmortized => bench_cell(|mb, n, _| JjLock::layout(mb, n), threads, cfg),
        LockKind::OneShot { .. } | LockKind::OneShotPlain { .. } | LockKind::OneShotDsm { .. } => {
            unreachable!("one-shot kinds are excluded from the hwscale grid")
        }
    }
}

/// Whether the kind consumes an arena slot per enter attempt (layout
/// must be sized to the attempt budget).
fn arena_based(kind: LockKind) -> bool {
    matches!(
        kind,
        LockKind::Scott | LockKind::Lee | LockKind::LongLivedSimple { .. }
    )
}

struct CellRow {
    lock: String,
    threads: usize,
    abort_every: Option<usize>,
    mono: PathResult,
    dynd: PathResult,
    /// Run-scoped amortized RMR accounting from the CC-instrumented
    /// companion run ([`amortized_companion`]).
    amortized: AmortizedStats,
    /// Companion probe totals == CC ground-truth counters, bit-exact.
    accounting_ok: bool,
}

impl CellRow {
    fn speedup(&self) -> f64 {
        self.mono.throughput() / self.dynd.throughput().max(1e-9)
    }

    /// A cell counts towards the acceptance bar only when it actually
    /// had lock contention (more than one thread).
    fn contended(&self) -> bool {
        self.threads > 1
    }
}

impl ToJson for CellRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("lock", self.lock.to_json()),
            ("threads", (self.threads as u64).to_json()),
            ("abort_every", self.abort_every.map(|k| k as u64).to_json()),
            ("mono", self.mono.to_json()),
            ("dyn", self.dynd.to_json()),
            ("speedup", self.speedup().to_json()),
            ("amortized", self.amortized.to_json()),
            ("accounting_ok", self.accounting_ok.to_json()),
        ])
    }
}

/// Takes no positional part.
pub const PARTS: &[&str] = &[];

/// `--smoke`, the cell window and a single-lock filter.
pub fn flags(cli: Cli) -> Cli {
    cli.flag("--smoke", "CI-sized run (short cells, fewer locks)")
        .opt("--duration-ms", "N", "per-cell measurement window")
        .opt("--lock", "NAME", "measure only this lock kind")
}

/// Run the grid and write `BENCH_hwscale.json`.
pub fn run(_: &str, p: &Parsed) -> Result<(), Exit> {
    let smoke = p.smoke();
    let duration_ms: Option<u64> = p.get("--duration-ms")?;
    // The FromStr path shared with sweep/explore — same NAMES-listing
    // error on a bad name.
    let only: Option<LockKind> = p.lock().map(str::parse).transpose()?;

    let duration = Duration::from_millis(duration_ms.unwrap_or(if smoke { 120 } else { 300 }));
    let budget: u64 = if smoke { 200_000 } else { 1_000_000 };
    let b = if smoke { 8 } else { 16 };
    let mut kinds: Vec<LockKind> = if smoke {
        vec![
            LockKind::Tas,
            LockKind::Mcs,
            LockKind::Scott,
            LockKind::LongLived { b },
            LockKind::JjAmortized,
        ]
    } else {
        // Registry-driven: every kind that can sustain a fixed-duration
        // loop (one-shot kinds cannot — each process enters at most
        // once). New kinds appear here automatically.
        LockKind::all(b)
            .into_iter()
            .filter(|k| !k.one_shot())
            .collect()
    };
    if let Some(k) = only {
        let k = k.with_branching(b);
        if k.one_shot() {
            return Err(Exit::Usage(
                "one-shot kinds cannot sustain a fixed-duration loop; pick a long-lived kind"
                    .into(),
            ));
        }
        kinds = vec![k];
    }
    let thread_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let abort_rates: &[Option<usize>] = &[None, Some(4)];

    let nprocs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "hwscale ({mode}): {} kinds × {:?} threads × {:?} abort rates, \
         {}ms/cell × 2 dispatch flavours, {nprocs} CPUs",
        kinds.len(),
        thread_counts,
        abort_rates,
        duration.as_millis()
    );

    let mut rows: Vec<CellRow> = Vec::new();
    for &kind in &kinds {
        for &threads in thread_counts {
            for &abort_every in abort_rates {
                if abort_every.is_some() && !kind.abortable() {
                    continue; // mcs/ticket ignore signals; skip the abort cells
                }
                let cfg = CellCfg {
                    duration,
                    abort_every,
                    attempt_budget: arena_based(kind).then_some(budget),
                };
                let (mono, dynd) = run_cell(kind, threads, &cfg);
                let (amortized, accounting_ok) =
                    amortized_companion(kind, threads, abort_every, if smoke { 100 } else { 400 });
                rows.push(CellRow {
                    lock: kind.label(),
                    threads,
                    abort_every,
                    mono,
                    dynd,
                    amortized,
                    accounting_ok,
                });
            }
        }
    }

    let mut table = Table::new(
        "M4 — hwscale: mono vs dyn dispatch, real threads on RawMemory",
        &[
            "lock",
            "thr",
            "abort",
            "mono/s",
            "dyn/s",
            "speedup",
            "mono p99 ns",
            "dyn p99 ns",
            "amort rmr",
        ],
    );
    for r in &rows {
        assert!(
            r.accounting_ok,
            "{} @ {} threads: companion probe totals diverged from CC ground truth",
            r.lock, r.threads
        );
        table.row(vec![
            r.lock.clone(),
            r.threads.to_string(),
            r.abort_every.map_or("-".into(), |k| format!("1/{k}")),
            format!("{:.0}", r.mono.throughput()),
            format!("{:.0}", r.dynd.throughput()),
            format!("{:.2}x", r.speedup()),
            r.mono
                .lat
                .quantile(0.99)
                .map_or("-".into(), |v| v.to_string()),
            r.dynd
                .lat
                .quantile(0.99)
                .map_or("-".into(), |v| v.to_string()),
            format!("{:.1}", r.amortized.amortized_rmrs),
        ]);
    }
    table.print();

    // The verdict is the median over the contended cells, with the
    // losses counted next to it — not the best of many single samples.
    let mut speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.contended())
        .map(CellRow::speedup)
        .collect();
    speedups.sort_by(f64::total_cmp);
    let median = match speedups.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => speedups[n / 2],
        n => (speedups[n / 2 - 1] + speedups[n / 2]) / 2.0,
    };
    let dyn_faster = speedups.iter().filter(|&&s| s < 1.0).count();
    let target_met = median >= TARGET_SPEEDUP;
    let mut caveats: Vec<String> = Vec::new();
    let max_threads = *thread_counts.last().unwrap();
    if nprocs < max_threads {
        caveats.push(format!(
            "{nprocs} CPUs for up to {max_threads} threads: contended cells measure \
             code-path cost under preemption, not parallel cache traffic; each cell is \
             one sample per dispatch flavour"
        ));
    }
    if !target_met {
        caveats.push(format!(
            "the median contended mono/dyn speedup ({median:.2}x) is below the \
             {TARGET_SPEEDUP}x bar; dispatch overhead is amortized by this hardware's \
             passage cost"
        ));
    }
    println!(
        "median contended speedup: {median:.2}x over {} cells, dyn faster in {dyn_faster} \
         (target {TARGET_SPEEDUP}x: {})",
        speedups.len(),
        if target_met { "met" } else { "NOT met" }
    );

    let out = Json::obj(vec![
        (
            "duration_ms_per_cell",
            (duration.as_millis() as u64).to_json(),
        ),
        ("target_speedup", TARGET_SPEEDUP.to_json()),
        ("median_contended_speedup", median.to_json()),
        ("contended_cells", (speedups.len() as u64).to_json()),
        ("dyn_faster_cells", (dyn_faster as u64).to_json()),
        ("target_met", target_met.to_json()),
        ("caveats", caveats.to_json()),
        ("cells", rows.to_json()),
    ]);
    Ok(artifact::save("hwscale", out, Mode::headline(smoke))?)
}
