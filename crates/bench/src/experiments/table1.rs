//! Regenerate Table 1 of the paper from measured RMR counts.
//!
//! ```text
//! cargo run --release -p sal-bench -- table1 \
//!     [all|worst-case|no-abort|adaptive|space|fairness|amortized] [--smoke]
//! ```
//!
//! Each subcommand regenerates one column of Table 1 (see DESIGN.md
//! experiment ids E1–E3, E8–E10, and M9 for `amortized`); `all` runs
//! everything. Numbers are exact RMR counts under the paper's CC cost
//! model (§2), measured by `sal-memory`, with schedules driven by
//! `sal-runtime`. Row sets are registry-driven
//! ([`LockKind::table1_rows`] / [`LockKind::all`]), so new kinds appear
//! automatically.
//!
//! The `amortized` part writes the headline artifact
//! `BENCH_table1.json`: the amortized column for every kind and the
//! measured `target_met` verdict (the Jayanti–Jayanti lock flat across
//! N while a per-passage tree lock grows). `--smoke` is the CI shape:
//! the `amortized` part alone on a reduced grid, whose artifact goes
//! to `target/experiments/` instead of the repo root.
//!
//! Grid cells are independent simulations, so they fan out through
//! `pool::par_map` (`SAL_JOBS`, default = available parallelism)
//! and are gathered in cell order — tables, JSON and JSONL exports are
//! byte-identical at any worker count.

use crate::Exit;
use sal_bench::artifact::{self, Mode};
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{
    absorb, adaptive_sweep, amortized_sweep, no_abort_sweep, space_row, worst_case_sweep,
    AmortizedPoint, LockKind, SweepPoint, Table,
};
use sal_obs::{EventLog, Json, NoProbe, ToJson};
use sal_runtime::{pool, run_lock, ProcPlan, RandomSchedule, SimError, WorkloadSpec};
use std::io;

/// The positional parts, default first.
pub const PARTS: &[&str] = &[
    "all",
    "worst-case",
    "no-abort",
    "adaptive",
    "space",
    "fairness",
    "amortized",
];

const B: usize = 16; // branching factor for "our" locks in the comparison
const NS: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Evaluate `eval` over every `(kind, x)` cell through `pool::par_map`
/// and print one table row per kind, showing `cell` of each point under
/// an `{x_name}={x}` column. Returns the points in cell order.
fn kind_grid<T: Send>(
    jobs: usize,
    title: &str,
    x_name: &str,
    (kinds, xs): (&[LockKind], &[usize]),
    eval: impl Fn(LockKind, usize) -> T + Sync,
    cell: impl Fn(&T) -> String,
) -> Vec<T> {
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| xs.iter().map(move |&x| (kind, x)))
        .collect();
    let points = pool::par_map(jobs, &cells, |&(kind, x)| eval(kind, x));
    let header: Vec<String> = std::iter::once("lock".to_string())
        .chain(xs.iter().map(|x| format!("{x_name}={x}")))
        .collect();
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header);
    for (kind, chunk) in kinds.iter().zip(points.chunks(xs.len())) {
        let mut row = vec![kind.label()];
        row.extend(chunk.iter().map(&cell));
        table.row(row);
    }
    table.print();
    points
}

/// A sweep point that ran and kept mutual exclusion.
fn checked(p: Result<SweepPoint, SimError>) -> SweepPoint {
    let p = p.expect("sim failed");
    assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
    p
}

/// E1: Table 1 "Worst-case" column — all but two processes abort while
/// queued; report the worst complete passage.
fn worst_case(jobs: usize) -> io::Result<()> {
    let points = kind_grid(
        jobs,
        "E1 — Table 1 'Worst-case': max RMRs of a complete passage, N−2 aborters",
        "N",
        (&LockKind::table1_rows(B), &NS),
        |kind, n| checked(worst_case_sweep(kind, n, 42, NoProbe)),
        |p| p.max_entered_rmrs.to_string(),
    );
    println!(
        "shape check: ours grows ~log_{B} N; tournament ~log2 N; \
         scott/lee pay per aborted predecessor (linear-family in N here)."
    );
    artifact::save("table1_worst_case", points.to_json(), Mode::Detail)
}

/// E2 + E10: Table 1 "No aborts" column — clean passages only.
fn no_abort(jobs: usize) -> io::Result<()> {
    let mut kinds = LockKind::table1_rows(B);
    kinds.push(LockKind::Mcs); // the classic O(1) yardstick
    let results = kind_grid(
        jobs,
        "E2/E10 — Table 1 'No aborts': max RMRs of a passage, zero aborters",
        "N",
        (&kinds, &NS),
        |kind, n| {
            let cell_log = EventLog::unbounded();
            let passages = if kind.one_shot() { 1 } else { 2 };
            let p = no_abort_sweep(kind, n, passages, 7, cell_log.clone());
            (checked(p), cell_log)
        },
        |(p, _)| p.max_entered_rmrs.to_string(),
    );
    let (points, log) = absorb(results);
    println!(
        "shape check: ours, scott, lee and mcs stay flat (O(1)); tournament grows with log2 N."
    );
    // E10 close-up: the whole per-passage distribution of the paper's
    // lock is flat at N = 256, not just the max.
    let built = sal_bench::build_lock(LockKind::OneShot { b: B }, 256, 256);
    let spec = WorkloadSpec {
        plans: vec![ProcPlan::normal(1); 256],
        cs_ops: 2,
        max_steps: 60_000_000,
        lease: sal_runtime::default_lease(),
    };
    let pol = Box::new(RandomSchedule::seeded(7));
    let report =
        run_lock(&built.lock, &built.mem, built.cs_word, &spec, pol, NoProbe).expect("sim failed");
    let samples: Vec<u64> = report
        .passages
        .iter()
        .filter(|p| p.entered)
        .map(|p| p.rmrs)
        .collect();
    if let Some(s) = sal_bench::RmrSummary::of(&samples) {
        println!(
            "E10 — one-shot(B={B}) per-passage RMR distribution at N=256, zero aborts: {}",
            s.render()
        );
    }
    artifact::save_with_log("table1_no_abort", &points, &log)?;
    artifact::save_events(&log, "table1_no_abort_events")
}

/// E3: Table 1 "Adaptive bound" column — fixed N, sweep the number of
/// aborters A.
fn adaptive(jobs: usize) -> io::Result<()> {
    let n = 256;
    let results = kind_grid(
        jobs,
        &format!("E3 — Table 1 'Adaptive bound': max RMRs of a complete passage, N = {n}"),
        "A",
        (&LockKind::table1_rows(B), &[0, 1, 4, 16, 64, 254]),
        |kind, a| {
            let cell_log = EventLog::unbounded();
            let p = adaptive_sweep(kind, n, a, 11, cell_log.clone());
            (checked(p), cell_log)
        },
        |(p, _)| p.max_entered_rmrs.to_string(),
    );
    let (points, log) = absorb(results);
    println!(
        "shape check: ours tracks log_{B} A (stays flat until A is large); tournament is \
         pinned at log2 N regardless; scott tracks A; lee grows fastest."
    );
    artifact::save_with_log("table1_adaptive", &points, &log)?;
    artifact::save_events(&log, "table1_adaptive_events")
}

/// E8: Table 1 "Space" column — measured shared words vs N.
fn space(jobs: usize) -> io::Result<()> {
    let rows = kind_grid(
        jobs,
        "E8 — Table 1 'Space': shared words allocated (attempts = N)",
        "N",
        (&LockKind::table1_rows(B), &NS),
        |kind, n| (kind.label(), n, space_row(kind, n, n)),
        |(_, _, w)| w.to_string(),
    );
    println!(
        "shape check: one-shot is O(N); long-lived is O(N²); scott/lee arenas scale \
         with attempts (unbounded over an execution's lifetime)."
    );
    artifact::save("table1_space", rows.to_json(), Mode::Detail)
}

/// E9: Table 1 "Fairness" column — FCFS witness for the one-shot lock,
/// starvation-freedom witness for the long-lived lock.
fn fairness(jobs: usize) {
    let n = 16;
    let seeds: Vec<u64> = (0..200).collect();
    let verdicts = pool::par_map(jobs, &seeds, |&seed| {
        let built = sal_bench::build_lock(LockKind::OneShot { b: B }, n, n);
        let mut plans = vec![ProcPlan::normal(1); n];
        // A third of the crowd aborts; FCFS must hold among the rest.
        for p in plans.iter_mut().take(n).skip(2).step_by(3) {
            *p = ProcPlan::aborter(1, 40);
        }
        let spec = WorkloadSpec {
            plans,
            cs_ops: 2,
            max_steps: 10_000_000,
            lease: sal_runtime::default_lease(),
        };
        let pol = Box::new(RandomSchedule::seeded(seed));
        let report = run_lock(&built.lock, &built.mem, built.cs_word, &spec, pol, NoProbe)
            .expect("sim failed");
        assert!(report.mutex_check.is_ok(), "mutual exclusion violated");
        assert!(
            report.fcfs_check.is_ok(),
            "FCFS violated at seed {seed}: {:?}",
            report.fcfs_check
        );
        true
    });
    let fcfs_ok = verdicts.iter().filter(|&&ok| ok).count();
    println!(
        "\n== E9 — Table 1 'Fairness' ==\none-shot: FCFS held in {fcfs_ok}/{} random \
         schedules ({n} processes, 1/3 aborting).",
        seeds.len()
    );

    // Long-lived: starvation freedom — every process completes all its
    // passages under fair random schedules.
    let seeds: Vec<u64> = (0..50).collect();
    let completed = pool::par_map(jobs, &seeds, |&seed| {
        let p = no_abort_sweep(LockKind::LongLived { b: B }, 8, 4, seed, NoProbe);
        assert!(p.expect("sim failed").mutex_ok);
        true
    })
    .len();
    println!(
        "long-lived: all 8 processes completed 4 passages in {completed}/50 random \
         schedules (starvation-free, not FCFS — Theorem 23)."
    );
}

/// M9: Table 1 "Amortized" column — run-scoped accounting for *every*
/// registered kind at small N, with the worst-case (max single-passage
/// debt) column retained next to it. Also writes the headline
/// artifact `BENCH_table1.json`, with a measured
/// `target_met` verdict: the Jayanti–Jayanti lock's amortized RMR flat
/// (within noise) across N ∈ {2, 4, 8} while the tournament tree
/// lock's grows.
fn amortized(jobs: usize, smoke: bool) -> io::Result<()> {
    let ns = [2usize, 4, 8];
    let (rounds, passages) = if smoke { (3, 3) } else { (12, 6) };
    // Every kind, registry-driven — the amortized column is the one
    // place non-contenders (mcs, ticket, tas, ablation variants) show
    // up too, since run-scoped accounting is defined for all of them.
    let kinds = LockKind::all(B);
    let cells: Vec<(LockKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| ns.iter().map(move |&n| (kind, n)))
        .collect();
    let points: Vec<AmortizedPoint> = pool::par_map(jobs, &cells, |&(kind, n)| {
        let p = amortized_sweep(kind, n, rounds, passages, 42).expect("sim failed");
        assert!(p.mutex_ok, "{} violated mutual exclusion", p.lock);
        assert!(
            p.accounting_ok,
            "{} probe totals diverged from memory ground truth",
            p.lock
        );
        p
    });
    let mut table = Table::new(
        "M9 — Table 1 'Amortized': total RMRs / total passages, half the crowd aborting",
        &["lock", "N=2", "N=4", "N=8", "worst debt", "worst entered"],
    );
    for (row, chunk) in points.chunks(ns.len()).enumerate() {
        let mut cells = vec![kinds[row].label()];
        let worst = |f: fn(&AmortizedPoint) -> u64| chunk.iter().map(f).max().unwrap_or(0);
        cells.extend(
            chunk
                .iter()
                .map(|p| format!("{:.2}", p.stats.amortized_rmrs)),
        );
        cells.push(worst(|p| p.stats.max_passage_rmrs).to_string());
        cells.push(worst(|p| p.max_entered_rmrs).to_string());
        table.row(cells);
    }
    table.print();

    // The measured verdict, from the data just gathered — not from
    // asymptotic claims. "Flat" allows sim noise (different schedules
    // at different N); "grows" requires a clearly super-constant climb.
    let row_of = |kind: LockKind| -> Vec<f64> {
        let row = kinds.iter().position(|&k| k == kind).expect("kind in grid");
        points[row * ns.len()..(row + 1) * ns.len()]
            .iter()
            .map(|p| p.stats.amortized_rmrs)
            .collect()
    };
    let jj = row_of(LockKind::JjAmortized);
    let tournament = row_of(LockKind::Tournament);
    let jj_flat = jj[2] <= jj[0] * 1.5 + 1.0;
    let tree_grows = tournament[2] >= tournament[0] + 1.0;
    let target_met = jj_flat && tree_grows;
    let mut caveats: Vec<String> = Vec::new();
    if !jj_flat {
        caveats.push(format!(
            "jj-amortized amortized RMRs not flat across N: {jj:?}"
        ));
    }
    if !tree_grows {
        caveats.push(format!(
            "tournament amortized RMRs did not grow with N: {tournament:?}"
        ));
    }
    println!(
        "shape check: jj-amortized flat across N ({}: {:.2} → {:.2}), tournament grows \
         ({}: {:.2} → {:.2}); target_met: {target_met}",
        if jj_flat { "ok" } else { "NOT FLAT" },
        jj[0],
        jj[2],
        if tree_grows { "ok" } else { "NOT GROWING" },
        tournament[0],
        tournament[2],
    );
    artifact::save("table1_amortized", points.to_json(), Mode::Detail)?;

    let rows: Vec<Json> = kinds
        .iter()
        .zip(points.chunks(ns.len()))
        .map(|(kind, chunk)| {
            Json::obj(vec![
                ("lock", kind.label().to_json()),
                (
                    "cells",
                    Json::Arr(chunk.iter().map(ToJson::to_json).collect()),
                ),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("branching", (B as u64).to_json()),
        (
            "ns",
            Json::Arr(ns.iter().map(|&n| (n as u64).to_json()).collect()),
        ),
        ("rounds", (rounds as u64).to_json()),
        ("passages", (passages as u64).to_json()),
        (
            "jj_amortized_rmrs",
            Json::Arr(jj.iter().map(|v| v.to_json()).collect()),
        ),
        (
            "tournament_amortized_rmrs",
            Json::Arr(tournament.iter().map(|v| v.to_json()).collect()),
        ),
        ("jj_flat", jj_flat.to_json()),
        ("tree_grows", tree_grows.to_json()),
        ("target_met", target_met.to_json()),
        ("caveats", caveats.to_json()),
        ("rows", Json::Arr(rows)),
    ]);
    artifact::save("table1", out, Mode::headline(smoke))
}

/// `--smoke`: CI-sized run (the amortized part only).
pub fn flags(cli: Cli) -> Cli {
    cli.flag(
        "--smoke",
        "CI-sized run: the amortized part only, reduced grid \
         (writes target/experiments/BENCH_table1.json)",
    )
}

/// Run `part` (or, with `--smoke`, the reduced amortized part).
pub fn run(part: &str, p: &Parsed) -> Result<(), Exit> {
    let jobs = pool::default_jobs();
    if p.smoke() {
        return Ok(amortized(jobs, true)?);
    }
    match part {
        "worst-case" => worst_case(jobs)?,
        "no-abort" => no_abort(jobs)?,
        "adaptive" => adaptive(jobs)?,
        "space" => space(jobs)?,
        "fairness" => fairness(jobs),
        "amortized" => amortized(jobs, false)?,
        _ => {
            worst_case(jobs)?;
            no_abort(jobs)?;
            adaptive(jobs)?;
            space(jobs)?;
            fairness(jobs);
            amortized(jobs, false)?;
        }
    }
    Ok(())
}
