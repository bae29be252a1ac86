//! Guided schedule search: bounded-deviation model checking of any
//! registry lock × workload combination, under any search strategy.
//! This is the one guided-search command.
//!
//! ```text
//! cargo run --release -p sal-bench -- explore \
//!     --lock one-shot --b 4 --n 3 --aborters 1 --abort-after 8 \
//!     --strategy dpor --deviations 2 --max-runs 4000 --depth 80
//! ```
//!
//! Every schedule within the deviation budget re-executes the workload
//! from scratch; each run must preserve mutual exclusion (and FCFS for
//! one-shot locks) and resolve every attempt. On a violation the
//! witness schedule is printed as a replayable recording and the
//! process exits non-zero.
//!
//! `--strategy` picks the search order: `bfs` (exhaustive reference),
//! `dpor` (independence pruning + state-fingerprint dedup),
//! `best-first` (expand the highest-RMR prefixes first) or `fuzz`
//! (seeded coverage-feedback schedule mutation; `--seed` seeds it).
//! Dropped work is reported, not silent: the table lists how many
//! queued prefixes the run budget truncated, how many children the
//! independence rule pruned and how many runs the fingerprint table
//! deduplicated.
//!
//! `SAL_JOBS` sets the worker count of every explored run. The explored
//! schedule set and any witness are identical at every value.

use crate::Exit;
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{ExploreCell, Table};
use sal_runtime::{explore_guided, ExploreOptions, Strategy};

/// Takes no positional part.
pub const PARTS: &[&str] = &[];

/// The workload, strategy and budget flags.
pub fn flags(cli: Cli) -> Cli {
    cli.opt(
        "--lock",
        "kind",
        "any registry kind, e.g. one-shot | long-lived | mcs | tournament | scott | lee | \
         jj-amortized (default one-shot; a wrong name lists them all)",
    )
    .opt("--b", "2..=64", "tree branching factor (default 4)")
    .opt(
        "--n",
        "procs",
        "number of processes (default 3; keep small — the schedule space is exponential)",
    )
    .opt(
        "--aborters",
        "k",
        "processes playing the aborter role (default 0)",
    )
    .opt(
        "--abort-after",
        "s",
        "abort after waiting this many global steps (default 8)",
    )
    .opt(
        "--passages",
        "k",
        "passages per process (forced to 1 for one-shot locks)",
    )
    .opt("--cs-ops", "k", "shared ops inside the CS (default 2)")
    .opt(
        "--max-steps",
        "s",
        "per-run step limit / livelock detector (default 200000)",
    )
    .strategy_opt()
    .opt(
        "--seed",
        "u64",
        "fuzzer seed (default 1; fuzz strategy only)",
    )
    .opt(
        "--deviations",
        "d",
        "max deviations from round-robin per schedule (default 2)",
    )
    .opt(
        "--max-runs",
        "r",
        "hard cap on executed schedules (default 4000)",
    )
    .opt(
        "--depth",
        "s",
        "branch-point depth cap per run (default 80)",
    )
}

/// Explore the configured cell; a found violation fails the run.
pub fn run(_: &str, p: &Parsed) -> Result<(), Exit> {
    let (kind, n, aborters) = p.workload(4, 3)?;
    let strategy = p.strategy()?.unwrap_or(Strategy::Bfs);
    let cell = ExploreCell {
        kind,
        n,
        aborters,
        abort_after: p.get_or("--abort-after", 8)?,
        passages: p.get_or("--passages", 1)?,
        cs_ops: p.get_or("--cs-ops", 2)?,
        max_steps: p.get_or("--max-steps", 200_000)?,
    };
    let opts = ExploreOptions {
        max_deviations: p.get_or("--deviations", 2)?,
        max_runs: p.get_or("--max-runs", 4_000)?,
        max_branch_depth: p.get_or("--depth", 80)?,
        ..ExploreOptions::default()
    };
    let result = explore_guided(&opts, strategy, |policy| cell.guided_run(policy));

    let mut t = Table::new(
        format!(
            "explore | {} N={} aborters={} strategy={} deviations<={}",
            kind.label(),
            n,
            aborters,
            strategy.label(),
            opts.max_deviations
        ),
        &["metric", "value"],
    );
    t.metric("schedules executed", result.runs);
    t.metric("distinct states", result.distinct_states);
    t.metric("truncated (unexecuted prefixes)", result.truncated_runs);
    t.metric("pruned children", result.pruned);
    t.metric("deduped runs", result.deduped);
    t.metric("best cost (max entered RMRs)", result.best_cost);
    match &result.violation {
        None => t.metric("verdict", "all explored schedules safe"),
        Some((_, msg)) => t.metric("verdict", format!("VIOLATION: {msg}")),
    }
    t.print();
    if let Some(rec) = result.violation_recording() {
        println!("witness recording (replayable): {}", rec.serialize());
        return Err(Exit::Failed("exploration found a violation".into()));
    }
    Ok(())
}
