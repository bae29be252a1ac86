//! `perfbench` — the sal workspace benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four closed-loop workloads, each run from this one process:
//!
//! * `mutex-contended` — 2 OS threads on one `AbortableMutex<[u64; 8]>`;
//! * `arena-zipf` — 2 OS threads on an `Arena<u64, u64>`, Zipf(0.99) keys;
//! * `async-cancel` — 16 tasks on one executor worker, dropping pending
//!   lock futures after a poll budget;
//! * `sim-rmr` — the CC simulator running `long-lived(B=4)` at N=8 with
//!   N/2 aborters, then a fixed-budget DPOR exploration. Run by hand:
//!   its wall-clock figures track the host's thread wake-up latency, so
//!   `BENCHMARK.json` gates on the other three, and traced
//!   `async-cancel` runs carry its layer cells.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs an untraced and a traced half of the window,
//! reports the per-layer metrics from spans recorded around every call
//! into a layer, and the tracing overhead between the two halves. The
//! last line of standard output is the JSON result; the lines before it
//! are the environment block, sample counts and notes. `NOTES.md` beside
//! this crate describes every metric.

mod arena;
mod async_cancel;
mod common;
mod core_cells;
mod mutex;
mod sim;

use common::{environment, peak_rss_mib, result_line, Progress, Watchdog};
use std::time::Duration;

/// End-to-end metrics: reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("passages_per_s", "1/s"),
    ("acquire_p50_ns", "ns"),
    ("acquire_p99_ns", "ns"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: reported by every workload with `--trace 1`; a
/// layer the workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sync.acquire_ns.p50", "ns"),
    ("sync.acquire_ns.p99", "ns"),
    ("sync.release_ns.p50", "ns"),
    ("sync.timeouts", "count"),
    ("sync.immediate_fails", "count"),
    ("sync.timeout_share", "ratio"),
    ("sync.abort_overshoot_ns.p50", "ns"),
    ("sync.abort_overshoot_ns.p99", "ns"),
    ("core.enter_ns.p50", "ns"),
    ("core.exit_ns.p50", "ns"),
    ("core.uncontended_pair_ns.p50", "ns"),
    ("core.abort_ns.p50", "ns"),
    ("arena.acquire_ns.p50", "ns"),
    ("arena.acquire_ns.p99", "ns"),
    ("arena.inline_pair_ns.p50", "ns"),
    ("arena.first_touch_ns.p50", "ns"),
    ("arena.promotions", "count"),
    ("arena.raced_promotions", "count"),
    ("arena.demotions", "count"),
    ("arena.fallback_spins", "count"),
    ("arena.promotion_yield", "ratio"),
    ("arena.keys", "count"),
    ("arena.built_cores", "count"),
    ("async.poll_ns.p50", "ns"),
    ("async.polls_per_acquire", "ratio"),
    ("async.cancel_ns.p50", "ns"),
    ("async.cancel_ns.p99", "ns"),
    ("async.entered", "count"),
    ("async.enter_wakeups", "count"),
    ("async.futile_enter_wakeups", "count"),
    ("async.wake_yield", "ratio"),
    ("async.cancelled_pending", "count"),
    ("async.pid_waits", "count"),
    ("async.timeout_share", "ratio"),
    ("sim.steps", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.build_ns", "ns"),
    ("explore.runs", "count"),
    ("explore.pruned", "count"),
    ("explore.deduped", "count"),
    ("explore.distinct_states", "count"),
    ("explore.runs_per_s", "1/s"),
    ("explore.states_per_s", "1/s"),
    ("memory.cc_passage_ns.p50", "ns"),
    ("rmr.per_passage", "rmr"),
    ("rmr.max_passage", "rmr"),
    ("rmr.entered_max", "rmr"),
    ("rmr.aborted_max", "rmr"),
    ("rmr.total", "rmr"),
    ("trace.overhead", "ratio"),
];

const WORKLOADS: &[&str] = &["mutex-contended", "arena-zipf", "async-cancel", "sim-rmr"];

/// A run's checked command line.
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    /// The untraced window: the whole run, or its first half when traced.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value.as_str())
                        .ok_or_else(|| {
                            format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                        })?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("# env: {}", environment());

    let progress = Progress::new(32);
    let watchdog = Watchdog::start(std::sync::Arc::clone(&progress), Duration::from_secs(20));
    let mut r = match cfg.workload {
        "mutex-contended" => mutex::run(&cfg, &progress),
        "arena-zipf" => arena::run(&cfg, &progress),
        "async-cancel" => async_cancel::run(&cfg, &progress),
        "sim-rmr" => sim::run(&cfg, &progress),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    drop(watchdog);
    r.metric("peak_rss_mib", peak_rss_mib(), "MiB");

    for line in &r.notes {
        println!("# {line}");
    }
    let error_share = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "# attempts {}  failed {}  error_share {error_share}",
        r.attempted, r.failed
    );
    for e in &r.errors {
        println!("# ERROR: {e}");
    }
    r.select(if cfg.trace { PER_LAYER } else { END_TO_END });
    for (name, value, unit) in &r.metrics {
        println!("# {name:<32} {value:>18.4} {unit}");
    }
    println!("{}", result_line(&r));
    if r.failed > 0 || !r.errors.is_empty() {
        std::process::exit(1);
    }
}
