//! ccsscale — conditional-critical-section wakeup benchmark (M5).
//!
//! ```text
//! cargo run --release -p sal-bench --bin ccsscale -- [--smoke]
//! ```
//!
//! Measures the point of `sal-sync`'s unlock-side condition evaluation:
//! how many waiters one state transition wakes. Three scenarios run on
//! real OS threads over [`AbortableMutex`], each under both
//! [`WakePolicy::Evaluate`] (wake only satisfiable waiters) and
//! [`WakePolicy::Broadcast`] (the classic condition-variable baseline:
//! wake everyone on every unlock):
//!
//! * **prodcons** — mailbox producer/consumer: producers deposit into
//!   per-consumer mailboxes round-robin; consumer `c` waits
//!   `Acquire::new().when(|s| s.boxes[c] > 0 || done)`. Under evaluation, a
//!   deposit wakes exactly its addressee; broadcast wakes every parked
//!   consumer. This is the headline cell of the acceptance criterion.
//! * **bqueue** — bounded queue (capacity 4): producers wait for space,
//!   consumers wait for items — conditions on both sides of one queue.
//! * **barrier** — generation barrier via [`sal_sync::MutexGuard::await_when`]:
//!   each round the last arrival bumps the generation; everyone else
//!   re-waits *while holding* their guard.
//!
//! The grid is scenario × policy × threads × abort-rate; under a
//! non-zero abort rate every k-th conditional wait first runs with a
//! tiny deadline (a `when(..).within(..)` request — the deadline is
//! injected as the lock's abort signal, so it exercises the paper's
//! bounded-RMR abort path while queued) and retries unbounded on
//! [`AbortReason::Deadline`].
//!
//! Every cell asserts its scenario invariant (no lost items, no lost
//! updates, all rounds completed). Results go to stdout and
//! `BENCH_ccs.json`; the headline metric is `wakeups / transitions`,
//! compared Evaluate-vs-Broadcast per scenario.

use sal_bench::Table;
use sal_obs::{Json, ToJson};
use sal_sync::{AbortReason, AbortableMutex, Acquire, CcsStats, MutexHandle, WakePolicy};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Bounded-queue capacity of the `bqueue` scenario.
const QUEUE_CAP: usize = 4;

/// Deadline used for the abort-rate cells: short enough to fire under
/// contention, long enough that uncontended waits usually finish.
const ABORT_DEADLINE: Duration = Duration::from_micros(50);

/// Per-cell measurements: the mutex's CCS counters plus scenario-side
/// observations.
struct CellResult {
    stats: CcsStats,
    /// Deadline aborts observed (and retried) by the scenario threads.
    deadline_aborts: u64,
    elapsed: Duration,
}

impl CellResult {
    fn wakeups_per_transition(&self) -> f64 {
        self.stats.wakeups as f64 / (self.stats.transitions as f64).max(1.0)
    }
}

/// Cell coordinates shared by all scenarios.
#[derive(Clone, Copy)]
struct CellCfg {
    policy: WakePolicy,
    threads: usize,
    /// `Some(k)`: every k-th conditional wait runs with a deadline
    /// first.
    abort_every: Option<usize>,
    /// Work units per thread (items per producer / barrier rounds).
    items: usize,
}

impl CellCfg {
    fn policy_name(&self) -> &'static str {
        match self.policy {
            WakePolicy::Evaluate => "evaluate",
            WakePolicy::Broadcast => "broadcast",
        }
    }
}

/// Mailbox producer/consumer state.
struct Mail {
    /// One rendezvous slot per consumer: 0 = empty, else the item.
    boxes: Vec<u64>,
    produced: u64,
    consumed: u64,
    producers_done: usize,
}

/// The headline scenario: capacity-1 mailboxes addressed round-robin.
/// A producer waits for its *target* slot to drain, consumer `c` waits
/// for *its own* slot to fill — so every condition names one slot, and
/// under evaluation a deposit can wake exactly its addressee (and a
/// pickup exactly the producers queued on that slot), while broadcast
/// wakes every parked thread on every unlock.
fn prodcons(cfg: &CellCfg) -> CellResult {
    let producers = (cfg.threads / 2).max(1);
    let consumers = (cfg.threads - producers).max(1);
    let m = AbortableMutex::builder(Mail {
        boxes: vec![0; consumers],
        produced: 0,
        consumed: 0,
        producers_done: 0,
    })
    .capacity(producers + consumers)
    .wake_policy(cfg.policy)
    .build();

    let start = Instant::now();
    let mut aborts = 0u64;
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let mut h = m.handle();
            let abort_every = cfg.abort_every;
            let items = cfg.items;
            joins.push(s.spawn(move || {
                let mut aborts = 0u64;
                for i in 0..items {
                    let target = (p * items + i) % consumers;
                    let mut g = conditional_lock(
                        &mut h,
                        move |s: &Mail| s.boxes[target] == 0,
                        abort_every,
                        i + 1,
                        &mut aborts,
                    );
                    g.boxes[target] = 1 + (p * items + i) as u64;
                    g.produced += 1;
                }
                h.lock().producers_done += 1;
                aborts
            }));
        }
        for c in 0..consumers {
            let mut h = m.handle();
            let abort_every = cfg.abort_every;
            joins.push(s.spawn(move || {
                let pred = move |s: &Mail| s.boxes[c] != 0 || s.producers_done == producers;
                let mut aborts = 0u64;
                let mut waits = 0usize;
                loop {
                    waits += 1;
                    let mut g = conditional_lock(&mut h, pred, abort_every, waits, &mut aborts);
                    if g.boxes[c] != 0 {
                        g.boxes[c] = 0;
                        g.consumed += 1;
                    } else if g.producers_done == producers {
                        break;
                    }
                }
                aborts
            }));
        }
        for j in joins {
            aborts += j.join().unwrap();
        }
    });
    let elapsed = start.elapsed();

    let stats = m.ccs_stats();
    let total = (producers * cfg.items) as u64;
    let state = m.into_inner();
    assert_eq!(state.produced, total, "prodcons: lost production");
    assert_eq!(state.consumed, total, "prodcons: lost or duplicated items");
    assert!(
        state.boxes.iter().all(|&b| b == 0),
        "prodcons: undrained mailbox"
    );
    CellResult {
        stats,
        deadline_aborts: aborts,
        elapsed,
    }
}

/// Bounded-queue state.
struct Bq {
    q: VecDeque<u64>,
    pushed: u64,
    popped: u64,
    sum_pushed: u64,
    sum_popped: u64,
    producers_done: usize,
}

/// Producers wait for space, consumers wait for items: conditional
/// waits on both sides of one bounded queue.
fn bqueue(cfg: &CellCfg) -> CellResult {
    let producers = (cfg.threads / 2).max(1);
    let consumers = (cfg.threads - producers).max(1);
    let m = AbortableMutex::builder(Bq {
        q: VecDeque::with_capacity(QUEUE_CAP),
        pushed: 0,
        popped: 0,
        sum_pushed: 0,
        sum_popped: 0,
        producers_done: 0,
    })
    .capacity(producers + consumers)
    .wake_policy(cfg.policy)
    .build();

    let start = Instant::now();
    let mut aborts = 0u64;
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let mut h = m.handle();
            let abort_every = cfg.abort_every;
            let items = cfg.items;
            joins.push(s.spawn(move || {
                let mut aborts = 0u64;
                for i in 0..items {
                    let v = (p * items + i) as u64;
                    let mut g = conditional_lock(
                        &mut h,
                        |s: &Bq| s.q.len() < QUEUE_CAP,
                        abort_every,
                        i + 1,
                        &mut aborts,
                    );
                    assert!(g.q.len() < QUEUE_CAP, "bqueue: overfull on entry");
                    g.q.push_back(v);
                    g.pushed += 1;
                    g.sum_pushed += v;
                }
                h.lock().producers_done += 1;
                aborts
            }));
        }
        for _ in 0..consumers {
            let mut h = m.handle();
            let abort_every = cfg.abort_every;
            joins.push(s.spawn(move || {
                let pred = move |s: &Bq| !s.q.is_empty() || s.producers_done == producers;
                let mut aborts = 0u64;
                let mut waits = 0usize;
                loop {
                    waits += 1;
                    let mut g = conditional_lock(&mut h, pred, abort_every, waits, &mut aborts);
                    if let Some(v) = g.q.pop_front() {
                        g.popped += 1;
                        g.sum_popped += v;
                    } else if g.producers_done == producers {
                        break;
                    }
                }
                aborts
            }));
        }
        for j in joins {
            aborts += j.join().unwrap();
        }
    });
    let elapsed = start.elapsed();

    let stats = m.ccs_stats();
    let total = (producers * cfg.items) as u64;
    let state = m.into_inner();
    assert_eq!(state.pushed, total, "bqueue: lost push");
    assert_eq!(state.popped, total, "bqueue: lost or duplicated pop");
    assert_eq!(
        state.sum_pushed, state.sum_popped,
        "bqueue: value corruption through the queue"
    );
    assert!(state.q.is_empty(), "bqueue: undrained queue");
    CellResult {
        stats,
        deadline_aborts: aborts,
        elapsed,
    }
}

/// Generation-barrier state.
struct Bar {
    gen: u64,
    count: usize,
}

/// All threads meet `items` times; the last arrival of a round bumps
/// the generation and everyone else `await_when`s it — the re-wait
/// happens *while holding a guard*, exercising the release/re-acquire
/// path.
fn barrier(cfg: &CellCfg) -> CellResult {
    let n = cfg.threads;
    let m = AbortableMutex::builder(Bar { gen: 0, count: 0 })
        .capacity(n)
        .wake_policy(cfg.policy)
        .build();

    let start = Instant::now();
    let mut aborts = 0u64;
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for _ in 0..n {
            let mut h = m.handle();
            let abort_every = cfg.abort_every;
            let rounds = cfg.items;
            joins.push(s.spawn(move || {
                let mut aborts = 0u64;
                for r in 0..rounds {
                    let mut g = h.lock();
                    let my_gen = g.gen;
                    g.count += 1;
                    if g.count == n {
                        g.count = 0;
                        g.gen += 1;
                        // Dropping the guard runs unlock-side
                        // evaluation and wakes the other n-1 arrivals.
                    } else {
                        let pred = move |s: &Bar| s.gen != my_gen;
                        if abort_every.is_some_and(|k| (r + 1).is_multiple_of(k)) {
                            let req = || Acquire::new().when(pred).within(ABORT_DEADLINE);
                            while g.await_when(req()).is_err() {
                                aborts += 1;
                            }
                        } else {
                            let woke = g.await_when(Acquire::new().when(pred));
                            debug_assert!(woke.is_ok(), "an unlimited wait cannot abort");
                        }
                    }
                }
                aborts
            }));
        }
        for j in joins {
            aborts += j.join().unwrap();
        }
    });
    let elapsed = start.elapsed();

    let stats = m.ccs_stats();
    let state = m.into_inner();
    assert_eq!(
        state.gen, cfg.items as u64,
        "barrier: rounds lost or duplicated"
    );
    assert_eq!(state.count, 0, "barrier: stragglers left behind");
    CellResult {
        stats,
        deadline_aborts: aborts,
        elapsed,
    }
}

/// One conditional acquisition, optionally deadline-first: on the
/// attempts selected by `abort_every` the wait first runs with
/// [`ABORT_DEADLINE`] (injected as the lock's abort signal) and falls
/// back to the unbounded wait on [`AbortReason::Deadline`], counting
/// the abort.
fn conditional_lock<'h, 'm, T, F>(
    h: &'h mut MutexHandle<'m, T>,
    pred: F,
    abort_every: Option<usize>,
    attempt: usize,
    aborts: &mut u64,
) -> sal_sync::MutexGuard<'h, 'm, T>
where
    F: Fn(&T) -> bool + Sync + Copy,
{
    if abort_every.is_some_and(|k| attempt.is_multiple_of(k)) {
        match h.acquire(Acquire::new().when(pred).within(ABORT_DEADLINE)) {
            Ok(_g) => {
                // NLL limitation: returning `_g` here would hold the
                // borrow across the fallback arm; drop and re-take the
                // (now likely satisfiable) wait instead.
                drop(_g);
            }
            Err(AbortReason::Deadline) => *aborts += 1,
            Err(AbortReason::Caller) => unreachable!("deadline waits cannot report Caller"),
        }
    }
    match h.acquire(Acquire::new().when(pred)) {
        Ok(g) => g,
        Err(_) => unreachable!("an unlimited request cannot abort"),
    }
}

struct Row {
    scenario: &'static str,
    cfg: CellCfg,
    result: CellResult,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        let s = &self.result.stats;
        Json::obj(vec![
            ("scenario", self.scenario.to_json()),
            ("policy", self.cfg.policy_name().to_json()),
            ("threads", (self.cfg.threads as u64).to_json()),
            (
                "abort_every",
                self.cfg.abort_every.map(|k| k as u64).to_json(),
            ),
            ("items_per_thread", (self.cfg.items as u64).to_json()),
            ("wakeups", s.wakeups.to_json()),
            ("transitions", s.transitions.to_json()),
            ("evaluated", s.evaluated.to_json()),
            ("waits", s.waits.to_json()),
            ("futile_wakeups", s.futile_wakeups.to_json()),
            (
                "wakeups_per_transition",
                self.result.wakeups_per_transition().to_json(),
            ),
            ("deadline_aborts", self.result.deadline_aborts.to_json()),
            (
                "elapsed_ns",
                (self.result.elapsed.as_nanos() as u64).to_json(),
            ),
            ("invariants", "passed".to_json()),
        ])
    }
}

/// Aggregate `wakeups / transitions` over a scenario's rows of one
/// policy.
fn aggregate(rows: &[Row], scenario: &str, policy: WakePolicy) -> (u64, u64) {
    rows.iter()
        .filter(|r| r.scenario == scenario && r.cfg.policy == policy)
        .fold((0, 0), |(w, t), r| {
            (w + r.result.stats.wakeups, t + r.result.stats.transitions)
        })
}

fn main() {
    let smoke = sal_bench::Cli::new(
        "ccsscale",
        "conditional-critical-section throughput benchmark",
    )
    .flag("--smoke", "CI-sized run")
    .parse_env_or_exit()
    .smoke();
    let thread_counts: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let abort_rates: &[Option<usize>] = &[None, Some(8)];
    let items = if smoke { 300 } else { 2_000 };
    let rounds = if smoke { 100 } else { 500 };
    let mode = if smoke { "smoke" } else { "full" };

    println!(
        "ccsscale ({mode}): 3 scenarios × 2 policies × {thread_counts:?} threads × \
         {abort_rates:?} abort rates, {items} items ({rounds} barrier rounds) per thread"
    );

    type Scenario = (&'static str, fn(&CellCfg) -> CellResult);
    let scenarios: &[Scenario] = &[
        ("prodcons", prodcons),
        ("bqueue", bqueue),
        ("barrier", barrier),
    ];
    let mut rows: Vec<Row> = Vec::new();
    for &(name, run) in scenarios {
        for &policy in &[WakePolicy::Evaluate, WakePolicy::Broadcast] {
            for &threads in thread_counts {
                for &abort_every in abort_rates {
                    let cfg = CellCfg {
                        policy,
                        threads,
                        abort_every,
                        items: if name == "barrier" { rounds } else { items },
                    };
                    let result = run(&cfg);
                    rows.push(Row {
                        scenario: name,
                        cfg,
                        result,
                    });
                }
            }
        }
    }

    let mut table = Table::new(
        "M5 — ccsscale: wakeups per state transition, evaluate vs broadcast",
        &[
            "scenario",
            "policy",
            "thr",
            "abort",
            "wake/trans",
            "futile",
            "waits",
            "aborts",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.scenario.into(),
            r.cfg.policy_name().into(),
            r.cfg.threads.to_string(),
            r.cfg.abort_every.map_or("-".into(), |k| format!("1/{k}")),
            format!("{:.3}", r.result.wakeups_per_transition()),
            r.result.stats.futile_wakeups.to_string(),
            r.result.stats.waits.to_string(),
            r.result.deadline_aborts.to_string(),
        ]);
    }
    table.print();

    // Headline: unlock-side evaluation must wake strictly fewer waiters
    // per transition than broadcast on the producer/consumer scenario.
    let mut comparisons = Vec::new();
    let mut prodcons_improved = false;
    for &(name, _) in scenarios {
        let (ew, et) = aggregate(&rows, name, WakePolicy::Evaluate);
        let (bw, bt) = aggregate(&rows, name, WakePolicy::Broadcast);
        let eval = ew as f64 / (et as f64).max(1.0);
        let bcast = bw as f64 / (bt as f64).max(1.0);
        println!(
            "{name}: evaluate {eval:.3} vs broadcast {bcast:.3} wakeups/transition \
             ({:.1}% fewer)",
            (1.0 - eval / bcast.max(1e-9)) * 100.0
        );
        if name == "prodcons" {
            prodcons_improved = eval < bcast;
        }
        comparisons.push(Json::obj(vec![
            ("scenario", name.to_json()),
            ("evaluate_wakeups_per_transition", eval.to_json()),
            ("broadcast_wakeups_per_transition", bcast.to_json()),
            ("evaluate_strictly_fewer", (eval < bcast).to_json()),
        ]));
    }
    assert!(
        prodcons_improved,
        "acceptance: evaluate must wake strictly fewer waiters per transition \
         than broadcast on prodcons"
    );
    println!("acceptance (prodcons evaluate < broadcast): met");

    let out = Json::obj(vec![
        ("bench", "ccsscale".to_json()),
        ("mode", mode.to_json()),
        (
            "available_parallelism",
            (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).to_json(),
        ),
        ("headline", comparisons.to_json()),
        ("prodcons_evaluate_strictly_fewer", true.to_json()),
        ("invariants_all_passed", true.to_json()),
        ("cells", rows.to_json()),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ccs.json");
    match std::fs::write(&path, out.render()) {
        Ok(()) => println!("(saved {})", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
