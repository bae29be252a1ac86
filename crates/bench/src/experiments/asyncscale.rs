//! asyncscale — async mutex under task storms (M6).
//!
//! ```text
//! cargo run --release -p sal-bench -- asyncscale [--smoke] [--tasks N]
//! ```
//!
//! Three sections, all on the workspace's own mini-executor
//! ([`sal_runtime::executor`]) with **4 worker threads**:
//!
//! 1. **Task grid** — task count × cancel rate. Tasks vastly outnumber
//!    pids (the headline cell runs 10 000 tasks over an 8-pid mutex);
//!    every k-th task races a microsecond deadline against the
//!    contention. Each cell asserts the lost-update invariant (the
//!    protected counter equals the entered count) and zero leakage
//!    (every pid back in the pool, no queued admission tickets).
//! 2. **Cancellation storm** — thousands of pending `lock()` futures
//!    dropped mid-flight against a lock that is *never released*. The
//!    probe counts each cancelled passage's shared-memory ops; the max
//!    must stay ≤ 300 (the paper's bounded-abort claim, measured on the
//!    drop path).
//! 3. **CCS wake economics** — N `when`-request waiters with disjoint
//!    predicates under `Evaluate` vs `Broadcast` wake policy, surfacing
//!    the registry's wakeup/transition counters on the async path.
//!
//! Results go to stdout as tables and to the headline artifact
//! `BENCH_async.json` with `target_met`/`caveats` fields.

use crate::Exit;
use sal_bench::artifact::{self, Mode};
use sal_bench::cli::{Cli, Parsed};
use sal_bench::Table;
use sal_obs::{Json, PassageStats, ToJson};
use sal_runtime::executor::{sleep, Executor};
use sal_sync::{AbortReason, Acquire, AsyncAbortableMutex, AsyncStats, WakePolicy};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Waker};
use std::time::{Duration, Instant};

/// Worker threads for every executor in this benchmark (the M6
/// acceptance criterion is "10 000 tasks on 4 workers").
const WORKERS: usize = 4;
/// Pids backing each mutex: tasks ≫ pids is the shape under test.
const CAPACITY: usize = 8;
/// The paper-derived per-cancellation op bound checked by section 2.
const ABORT_OP_BOUND: u64 = 300;

fn async_stats_json(s: &AsyncStats) -> Json {
    Json::obj(vec![
        ("enter_wakeups", s.enter_wakeups.to_json()),
        ("futile_enter_wakeups", s.futile_enter_wakeups.to_json()),
        ("pid_waits", s.pid_waits.to_json()),
        ("cancelled_pending", s.cancelled_pending.to_json()),
        ("pool_capacity", s.pool_capacity.to_json()),
        ("free_pids", s.free_pids.to_json()),
        ("queued_tasks", s.queued_tasks.to_json()),
    ])
}

// ---------------------------------------------------------------- grid

struct CellRow {
    tasks: usize,
    reps: usize,
    cancel_every: Option<usize>,
    entered: u64,
    aborted: u64,
    elapsed: Duration,
    stats: AsyncStats,
}

impl CellRow {
    fn throughput(&self) -> f64 {
        self.entered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl ToJson for CellRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tasks", (self.tasks as u64).to_json()),
            ("reps_per_task", (self.reps as u64).to_json()),
            (
                "cancel_every",
                self.cancel_every.map(|k| k as u64).to_json(),
            ),
            ("entered", self.entered.to_json()),
            ("aborted", self.aborted.to_json()),
            ("elapsed_ns", (self.elapsed.as_nanos() as u64).to_json()),
            ("entered_per_sec", self.throughput().to_json()),
            ("async_stats", async_stats_json(&self.stats)),
        ])
    }
}

/// Run one grid cell: `tasks` tasks × `reps` lock/increment ops each on
/// `WORKERS` workers. With `cancel_every = Some(k)`, every k-th task
/// uses a `within` request with a microsecond-scale deadline, so a slice of
/// the population aborts instead of entering.
fn run_cell(tasks: usize, reps: usize, cancel_every: Option<usize>) -> CellRow {
    let m = Arc::new(
        AsyncAbortableMutex::builder(0u64)
            .capacity(CAPACITY)
            .build_async(),
    );
    let entered = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let ex = Executor::new();
    for t in 0..tasks {
        let m = Arc::clone(&m);
        let entered = Arc::clone(&entered);
        let aborted = Arc::clone(&aborted);
        let cancels = cancel_every.is_some_and(|k| t % k == 0);
        ex.spawn(async move {
            for r in 0..reps {
                if cancels {
                    let patience = Duration::from_micros(((t + r) % 50) as u64);
                    match m.acquire(Acquire::new().within(patience)).await {
                        Ok(mut g) => {
                            *g += 1;
                            entered.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(AbortReason::Deadline) => {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(r) => unreachable!("unexpected abort reason {r:?}"),
                    }
                } else {
                    *m.lock().await += 1;
                    entered.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
    let start = Instant::now();
    ex.run(WORKERS);
    let elapsed = start.elapsed();

    let entered = entered.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    assert_eq!(
        entered + aborted,
        (tasks * reps) as u64,
        "a task lost an attempt"
    );
    assert_eq!(m.free_pids(), CAPACITY, "a pid leaked");
    assert_eq!(m.queued_tasks(), 0, "an admission ticket leaked");
    assert_eq!(m.waiters(), 0);
    let stats = m.stats();
    let m = Arc::try_unwrap(m).expect("executor drained");
    // The lost-update invariant: the u64 under the mutex must equal the
    // number of passages that entered the critical section.
    assert_eq!(
        m.into_inner(),
        entered,
        "lost update: mutual exclusion violated"
    );
    CellRow {
        tasks,
        reps,
        cancel_every,
        entered,
        aborted,
        elapsed,
        stats,
    }
}

// --------------------------------------------------------------- storm

struct StormResult {
    cancellations: u64,
    max_abort_ops: u64,
    mean_abort_ops: f64,
}

impl ToJson for StormResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cancellations", self.cancellations.to_json()),
            ("max_abort_ops", self.max_abort_ops.to_json()),
            ("mean_abort_ops", self.mean_abort_ops.to_json()),
            ("op_bound", ABORT_OP_BOUND.to_json()),
        ])
    }
}

/// Drop `n` pending `lock()` futures (at varying poll depths) against a
/// lock that is never released, and measure the per-cancellation op
/// cost from the probe records.
fn cancellation_storm(n: usize) -> StormResult {
    let stats = PassageStats::new();
    let m = AsyncAbortableMutex::builder(0u64)
        .capacity(CAPACITY)
        .probe(stats.clone())
        .build_async();
    let holder = m.try_lock().expect("free at start");
    for i in 0..n {
        let mut fut = m.lock();
        for _ in 0..1 + (i % 3) {
            let poll = Pin::new(&mut fut).poll(&mut Context::from_waker(Waker::noop()));
            assert!(poll.is_pending(), "the holder never releases");
        }
        drop(fut);
    }
    assert_eq!(m.free_pids(), CAPACITY - 1, "storm leaked a pid");
    assert_eq!(m.queued_tasks(), 0);
    drop(holder);
    assert_eq!(m.stats().cancelled_pending, n as u64);

    let records = stats.records();
    let aborted: Vec<u64> = records
        .iter()
        .filter(|r| !r.entered)
        .map(|r| r.ops)
        .collect();
    assert_eq!(
        aborted.len(),
        n,
        "every drop must leave exactly one aborted passage"
    );
    let max = aborted.iter().copied().max().unwrap_or(0);
    let mean = aborted.iter().sum::<u64>() as f64 / aborted.len().max(1) as f64;
    StormResult {
        cancellations: n as u64,
        max_abort_ops: max,
        mean_abort_ops: mean,
    }
}

// ----------------------------------------------------------------- ccs

struct CcsRow {
    policy: &'static str,
    wakeups: u64,
    transitions: u64,
    futile_wakeups: u64,
    async_stats: AsyncStats,
}

impl ToJson for CcsRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", self.policy.to_json()),
            ("wakeups", self.wakeups.to_json()),
            ("transitions", self.transitions.to_json()),
            ("futile_wakeups", self.futile_wakeups.to_json()),
            ("async_stats", async_stats_json(&self.async_stats)),
        ])
    }
}

/// `waiters` tasks park on disjoint `lock_when` conditions; one
/// incrementer satisfies them one at a time. Under `Evaluate` the
/// registry wakes ~1 waiter per transition; under `Broadcast` it wakes
/// every registered waiter. Same workload, both policies.
fn ccs_cell(policy: WakePolicy, label: &'static str, waiters: u64) -> CcsRow {
    let m = Arc::new(
        AsyncAbortableMutex::builder(0u64)
            .capacity(CAPACITY)
            .wake_policy(policy)
            .build_async(),
    );
    let ex = Executor::new();
    for t in 1..=waiters {
        let m = Arc::clone(&m);
        ex.spawn(async move {
            let g = m
                .acquire(Acquire::new().when(move |v: &u64| *v >= t))
                .await
                .expect("an unlimited request cannot abort");
            assert!(*g >= t);
        });
    }
    {
        let m = Arc::clone(&m);
        ex.spawn(async move {
            for _ in 0..waiters {
                // Let pending waiters register before each transition,
                // so the two policies see comparable registry states.
                sleep(Duration::from_millis(1)).await;
                *m.lock().await += 1;
            }
        });
    }
    ex.run(WORKERS);
    assert_eq!(m.waiters(), 0, "a conditional registration leaked");
    assert_eq!(m.free_pids(), CAPACITY);
    let s = m.ccs_stats();
    CcsRow {
        policy: label,
        wakeups: s.wakeups,
        transitions: s.transitions,
        futile_wakeups: s.futile_wakeups,
        async_stats: m.stats(),
    }
}

// ---------------------------------------------------------------- main

/// Takes no positional part.
pub const PARTS: &[&str] = &[];

/// `--smoke` and the headline task count.
pub fn flags(cli: Cli) -> Cli {
    cli.flag("--smoke", "CI-sized run")
        .opt("--tasks", "N", "headline task count")
}

/// Run the three sections and write `BENCH_async.json`.
pub fn run(_: &str, p: &Parsed) -> Result<(), Exit> {
    let smoke = p.smoke();
    let headline_tasks: Option<usize> = p.get("--tasks")?;

    let headline = headline_tasks.unwrap_or(if smoke { 2_000 } else { 10_000 });
    let task_counts: Vec<usize> = if smoke {
        vec![500, headline]
    } else {
        vec![1_000, 4_000, headline]
    };
    let cancel_rates: &[Option<usize>] = &[None, Some(4)];
    let reps = if smoke { 2 } else { 4 };
    let storm_n = if smoke { 2_000 } else { 10_000 };
    let ccs_waiters: u64 = if smoke { 4 } else { 6 };

    let nprocs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "asyncscale ({mode}): tasks {task_counts:?} × cancel {cancel_rates:?}, \
         {reps} ops/task, {WORKERS} workers over {CAPACITY} pids, {nprocs} CPUs"
    );

    // 1. Task grid.
    let mut rows: Vec<CellRow> = Vec::new();
    for &tasks in &task_counts {
        for &cancel_every in cancel_rates {
            rows.push(run_cell(tasks, reps, cancel_every));
        }
    }
    let mut table = Table::new(
        "M6 — asyncscale: tasks over pids on the mini-executor",
        &[
            "tasks",
            "cancel",
            "entered",
            "aborted",
            "entered/s",
            "pid waits",
            "futile wakes",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.tasks.to_string(),
            r.cancel_every.map_or("-".into(), |k| format!("1/{k}")),
            r.entered.to_string(),
            r.aborted.to_string(),
            format!("{:.0}", r.throughput()),
            r.stats.pid_waits.to_string(),
            r.stats.futile_enter_wakeups.to_string(),
        ]);
    }
    table.print();

    // 2. Cancellation storm.
    let storm = cancellation_storm(storm_n);
    println!(
        "storm: {} cancellations against a never-released lock, \
         abort cost max {} ops / mean {:.1} ops (bound {ABORT_OP_BOUND})",
        storm.cancellations, storm.max_abort_ops, storm.mean_abort_ops
    );

    // 3. CCS wake economics on the async path.
    let ccs_rows = vec![
        ccs_cell(WakePolicy::Evaluate, "evaluate", ccs_waiters),
        ccs_cell(WakePolicy::Broadcast, "broadcast", ccs_waiters),
    ];
    let mut ccs_table = Table::new(
        "lock_when wake policy, async path",
        &["policy", "wakeups", "transitions", "futile", "enter wakes"],
    );
    for r in &ccs_rows {
        ccs_table.row(vec![
            r.policy.to_string(),
            r.wakeups.to_string(),
            r.transitions.to_string(),
            r.futile_wakeups.to_string(),
            r.async_stats.enter_wakeups.to_string(),
        ]);
    }
    ccs_table.print();

    // Acceptance: the headline cell sustained its storm with integrity
    // (asserted inside run_cell) and cancellation stayed within the
    // paper's op bound.
    let headline_ok = rows.iter().any(|r| r.tasks >= headline);
    let bound_ok = storm.max_abort_ops <= ABORT_OP_BOUND;
    let target_met = headline_ok && bound_ok;
    let mut caveats: Vec<String> = Vec::new();
    if nprocs < WORKERS {
        caveats.push(format!(
            "{nprocs} CPUs < {WORKERS} workers: workers time-share cores, so \
             throughput reflects scheduling cost, not parallel contention"
        ));
    }
    if !bound_ok {
        caveats.push(format!(
            "cancellation exceeded the {ABORT_OP_BOUND}-op bound (max {})",
            storm.max_abort_ops
        ));
    }
    caveats.push(
        "deadline futures are checked at poll time: under zero lock traffic pair \
         deadline requests with executor::sleep_until for prompt expiry"
            .to_string(),
    );
    println!(
        "headline: {headline} tasks on {WORKERS} workers, abort bound {} (target_met: {target_met})",
        if bound_ok { "held" } else { "VIOLATED" }
    );

    let out = Json::obj(vec![
        ("workers", (WORKERS as u64).to_json()),
        ("capacity_pids", (CAPACITY as u64).to_json()),
        ("headline_tasks", (headline as u64).to_json()),
        ("abort_op_bound", ABORT_OP_BOUND.to_json()),
        ("target_met", target_met.to_json()),
        ("caveats", caveats.to_json()),
        ("cells", rows.to_json()),
        ("storm", storm.to_json()),
        ("lock_when", ccs_rows.to_json()),
    ]);
    Ok(artifact::save("async", out, Mode::headline(smoke))?)
}
