//! Ad-hoc experiment CLI: run any lock × workload × schedule combination
//! and print the measured RMR statistics.
//!
//! ```text
//! cargo run --release -p sal-bench -- sweep \
//!     --lock one-shot --b 16 --n 64 --aborters 10 --passages 1 \
//!     --seed 42 --policy random --cs-ops 2
//! ```
//!
//! Locks: every registry kind (`--lock` with a wrong name lists them
//! all, `jj-amortized` included). Policies: `random`, `round-robin`,
//! `bursty`.
//!
//! `--seeds a,b,c` runs the same configuration once per seed — fanned
//! out by `pool::par_map` (`SAL_JOBS`) and gathered in seed order —
//! printing one row per seed plus an aggregate, so the output
//! is identical at any worker count.
//!
//! Sweep samples schedules; to *search* them for the worst one, use
//! the `explore` experiment.

use crate::Exit;
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{build_lock, LockKind, Table};
use sal_obs::NoProbe;
use sal_runtime::{
    pool, run_lock, BurstySchedule, ProcPlan, RandomSchedule, RoundRobin, SchedulePolicy,
    WorkloadReport, WorkloadSpec,
};

/// The configured workload, schedule and seeds.
struct Args {
    n: usize,
    aborters: usize,
    abort_after: u64,
    passages: usize,
    seed: u64,
    seeds: Vec<u64>,
    policy: String,
    cs_ops: usize,
}

/// Takes no positional part.
pub const PARTS: &[&str] = &[];

/// The workload, schedule and seed flags.
pub fn flags(cli: Cli) -> Cli {
    cli.opt(
        "--lock",
        "kind",
        "any registry kind, e.g. one-shot | long-lived | mcs | tournament | scott | lee | \
         jj-amortized (a wrong name lists them all)",
    )
    .opt(
        "--b",
        "2..=64",
        "tree branching factor for the paper's locks (default 16)",
    )
    .opt("--n", "procs", "number of processes (default 16)")
    .opt(
        "--aborters",
        "k",
        "how many processes play the aborter role (default 0)",
    )
    .opt(
        "--abort-after",
        "s",
        "abort after waiting this many global steps (default 64)",
    )
    .opt(
        "--passages",
        "k",
        "passages per process (forced to 1 for one-shot locks)",
    )
    .opt("--seed", "u64", "schedule seed (default 1)")
    .opt(
        "--seeds",
        "a,b,c",
        "run once per seed in parallel; one row per seed + aggregate",
    )
    .opt(
        "--policy",
        "p",
        "random | round-robin | bursty (default random)",
    )
    .opt("--cs-ops", "k", "shared ops inside the CS (default 2)")
}

fn parse(p: &Parsed) -> Result<(LockKind, Args), String> {
    let (kind, n, aborters) = p.workload(16, 16)?;
    let args = Args {
        n,
        aborters,
        abort_after: p.get_or("--abort-after", 64)?,
        passages: p.get_or("--passages", 1)?,
        seed: p.get_or("--seed", 1)?,
        seeds: p.seeds()?.unwrap_or_default(),
        policy: p.value("--policy").unwrap_or("random").to_string(),
        cs_ops: p.get_or("--cs-ops", 2)?,
    };
    Ok((kind, args))
}

fn policy(args: &Args, seed: u64) -> Result<Box<dyn SchedulePolicy>, String> {
    Ok(match args.policy.as_str() {
        "random" => Box::new(RandomSchedule::seeded(seed)),
        "round-robin" => Box::new(RoundRobin::new()),
        "bursty" => Box::new(BurstySchedule::seeded(seed, 0.9)),
        other => return Err(format!("unknown policy {other}")),
    })
}

/// One simulation of the configured workload under `seed`: the
/// report, the number of attempts and the lock's shared words.
fn simulate(
    kind: LockKind,
    args: &Args,
    seed: u64,
) -> Result<(WorkloadReport, usize, usize), String> {
    let passages = if kind.one_shot() { 1 } else { args.passages };
    let mut plans = vec![ProcPlan::normal(passages); args.n - args.aborters];
    plans.extend(vec![
        ProcPlan::aborter(passages, args.abort_after);
        args.aborters
    ]);
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(kind, args.n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: args.cs_ops,
        max_steps: 200_000_000,
        lease: 0,
    };
    let pol = policy(args, seed)?;
    let report = run_lock(&built.lock, &built.mem, built.cs_word, &spec, pol, NoProbe)
        .map_err(|e| format!("simulation failed: {e}"))?;
    Ok((report, attempts, built.words))
}

/// `--seeds a,b,c`: one simulation per seed through `pool::par_map`,
/// gathered in seed-list order.
fn multi_seed(kind: LockKind, args: &Args) -> Result<(), Exit> {
    let points = pool::par_map(pool::default_jobs(), &args.seeds, |&seed| {
        simulate(kind, args, seed)
    });
    let mut t = Table::new(
        format!(
            "{} | N={} aborters={} policy={} | {} seeds",
            kind.label(),
            args.n,
            args.aborters,
            args.policy,
            args.seeds.len()
        ),
        &[
            "seed",
            "steps",
            "entered",
            "aborted",
            "max RMRs",
            "mean RMRs",
            "max aborted RMRs",
            "mutex",
        ],
    );
    let mut maxima = Vec::new();
    for (seed, point) in args.seeds.iter().zip(points) {
        let (r, attempts, _) = point.map_err(Exit::Failed)?;
        t.row(vec![
            seed.to_string(),
            r.steps.to_string(),
            r.total_entered().to_string(),
            (attempts - r.total_entered()).to_string(),
            r.max_entered_rmrs().to_string(),
            format!("{:.2}", r.mean_entered_rmrs()),
            r.max_aborted_rmrs().to_string(),
            if r.mutex_check.is_ok() {
                "held".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        maxima.push(r.max_entered_rmrs());
    }
    t.print();
    if let Some(summary) = sal_bench::report::RmrSummary::of(&maxima) {
        println!("aggregate max-RMRs-per-seed: {}", summary.render());
    }
    Ok(())
}

/// Run the configured sweep.
pub fn run(_: &str, p: &Parsed) -> Result<(), Exit> {
    let (kind, args) = parse(p)?;
    policy(&args, args.seed)?; // an unknown policy is a bad command line
    if !args.seeds.is_empty() {
        return multi_seed(kind, &args);
    }
    let passages = if kind.one_shot() { 1 } else { args.passages };
    let (report, attempts, words) = simulate(kind, &args, args.seed).map_err(Exit::Failed)?;
    let mut t = Table::new(
        format!(
            "{} | N={} aborters={} passages={passages} seed={} policy={}",
            kind.label(),
            args.n,
            args.aborters,
            args.seed,
            args.policy
        ),
        &["metric", "value"],
    );
    t.metric("steps", report.steps);
    t.metric("entered passages", report.total_entered());
    t.metric("aborted attempts", attempts - report.total_entered());
    t.metric("max RMRs (complete passage)", report.max_entered_rmrs());
    t.metric(
        "mean RMRs (complete passage)",
        format!("{:.2}", report.mean_entered_rmrs()),
    );
    t.metric("max RMRs (aborted attempt)", report.max_aborted_rmrs());
    let entered_samples: Vec<u64> = report
        .passages
        .iter()
        .filter(|p| p.entered)
        .map(|p| p.rmrs)
        .collect();
    if let Some(summary) = sal_bench::report::RmrSummary::of(&entered_samples) {
        t.metric("RMR distribution (entered)", summary.render());
    }
    match &report.mutex_check {
        Ok(()) => t.metric("mutual exclusion", "held"),
        Err(_) => t.metric("mutual exclusion", format!("{:?}", report.mutex_check)),
    }
    match (&report.fcfs_check, kind.one_shot()) {
        (Ok(()), true) => t.metric("FCFS", "held"),
        (Err(v), true) => t.metric("FCFS", format!("{v:?}")),
        _ => t.metric("FCFS", "n/a (not checked for long-lived locks)"),
    }
    t.metric("shared words", words);
    t.print();
    Ok(())
}
