//! Regenerate the behaviours depicted in the paper's figures.
//!
//! ```text
//! cargo run --release -p sal-bench -- figures [all|fig2|fig4|fig5|logw]
//! ```
//!
//! * `fig2` — the three `FindNext(p)` scenarios (successor / ⊥ / ⊤),
//!   produced on a live tree (E6).
//! * `fig4` — plain vs adaptive ascent cost on the Figure-4 geometry
//!   (E4): the sidestep turns an `Θ(log N)` climb into `O(1)`.
//! * `logw`  — the headline `O(log_W N)` family of curves (E5): passage
//!   cost vs `N` for branching factors 2..64.
//! * `fig5` — the one-shot→long-lived transformation (E7): simple vs
//!   bounded implementation, cost per passage across many instance
//!   switches.
//!
//! Independent grid cells run through `pool::par_map` (`SAL_JOBS`,
//! default = available parallelism); results are gathered
//! in cell order so all output is byte-identical to a serial run.

use crate::Exit;
use sal_bench::artifact::{self, Mode};
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{absorb, no_abort_sweep, worst_case_sweep, LockKind, Table};
use sal_core::tree::{FindNextResult, Tree};
use sal_memory::{MemoryBuilder, RmrProbe};
use sal_obs::{EventLog, NoProbe, ObsEventKind, ToJson};
use sal_runtime::pool;
use std::io;

/// The positional parts, default first.
pub const PARTS: &[&str] = &["all", "fig2", "fig4", "fig5", "logw"];

/// E6: walk a live tree through the three Figure-2 scenarios.
fn fig2() {
    println!("\n== E6 — Figure 2: the three FindNext(p) scenarios ==");
    // (a) Normal successor.
    let mut b = MemoryBuilder::new();
    let tree = Tree::layout(&mut b, 8, 2);
    let mem = b.build_cc(8);
    tree.remove(&mem, 1, 1);
    tree.remove(&mem, 2, 2);
    let r = tree.find_next(&mem, 0, 0);
    println!("(a) leaves 1,2 removed → FindNext(0) = {r:?}  (first live slot to the right)");
    assert_eq!(r, FindNextResult::Next(3));

    // (b) ⊥ — everything to the right abandoned.
    let mut b = MemoryBuilder::new();
    let tree = Tree::layout(&mut b, 8, 2);
    let mem = b.build_cc(8);
    for q in 1..8 {
        tree.remove(&mem, q, q as u64);
    }
    let r = tree.find_next(&mem, 0, 0);
    println!("(b) leaves 1..7 removed → FindNext(0) = {r:?}  (⊥: queue exhausted)");
    assert_eq!(r, FindNextResult::Bottom);

    // (c) ⊤ — crossed paths with an in-flight Remove: leaf 3's Remove
    // has filled its level-1 node but not yet propagated to level 2. We
    // drive the interleaving through the deterministic scheduler.
    let r = demo_crossed_paths();
    println!("(c) Remove(3) in flight (level-1 done, level-2 pending) → FindNext(0) = {r:?}  (⊤: the remover owns the handoff)");
    assert_eq!(r, FindNextResult::Top);
}

/// Drive the ⊤ scenario through the deterministic scheduler: process 3
/// is suspended exactly between the two F&As of its `Remove`, while
/// process 0 runs `FindNext` to completion.
fn demo_crossed_paths() -> FindNextResult {
    use sal_runtime::{simulate, RoundRobin, Scripted, SimOptions};
    use std::sync::Mutex;

    let mut b = MemoryBuilder::new();
    let tree = Tree::layout(&mut b, 8, 2);
    let mem = b.build_cc(8);
    tree.remove(&mem, 1, 1);
    tree.remove(&mem, 2, 2);
    let result = Mutex::new(None);
    // Remove(3) needs two F&As (its level-1 node fills). Schedule: one
    // step of process 3 (the first F&A), then process 0's entire
    // FindNext (≤ 8 steps), then let everything drain.
    let script = vec![3, 0, 0, 0, 0, 0, 0, 0, 0];
    simulate(
        &mem,
        4,
        Box::new(Scripted::new(script, Box::new(RoundRobin::new()))),
        SimOptions::default(),
        |ctx| match ctx.pid {
            3 => tree.remove(ctx.mem, 3, 3),
            0 => {
                let r = tree.find_next(ctx.mem, 0, 0);
                *result.lock().unwrap() = Some(r);
            }
            _ => {}
        },
    )
    .expect("sim failed");
    let r = result.lock().unwrap().take().expect("FindNext ran");
    r
}

/// E4: Figure 4 — plain ascent climbs to the lowest common ancestor,
/// the adaptive ascent sidesteps to the right cousin.
fn fig4(jobs: usize) -> io::Result<()> {
    let mut table = Table::new(
        "E4 — Figure 4: RMRs of FindNext(p) at the subtree boundary (successor adjacent, no aborts)",
        &["N", "B", "plain ascent", "adaptive ascent"],
    );
    let geoms = [
        (1usize << 8, 2usize),
        (1 << 12, 2),
        (1 << 16, 2),
        (1 << 20, 2),
        (1 << 12, 4),
        (1 << 12, 16),
        (1 << 12, 64),
    ];
    let points = pool::par_map(jobs, &geoms, |&(n, bf)| {
        let mut b = MemoryBuilder::new();
        let tree = Tree::layout(&mut b, n, bf);
        let mem = b.build_cc(2);
        // p = rightmost leaf of the leftmost half: its successor is the
        // adjacent leaf, but in a different top-level subtree.
        let p = (n / 2 - 1) as u64;
        let probe = RmrProbe::start(&mem, 0);
        assert_eq!(tree.find_next(&mem, 0, p), FindNextResult::Next(p + 1));
        let plain = probe.rmrs(&mem);
        let probe = RmrProbe::start(&mem, 1);
        assert_eq!(
            tree.adaptive_find_next(&mem, 1, p),
            FindNextResult::Next(p + 1)
        );
        let adaptive = probe.rmrs(&mem);
        (n, bf, plain, adaptive)
    });
    for &(n, bf, plain, adaptive) in &points {
        table.row(vec![
            n.to_string(),
            bf.to_string(),
            plain.to_string(),
            adaptive.to_string(),
        ]);
    }
    table.print();
    println!(
        "shape check: plain grows with log_B N; adaptive stays O(1) because no process aborted."
    );
    artifact::save("fig4_sidestep", points.to_json(), Mode::Detail)?;

    // Second panel: adaptive cost vs number of aborters (Claim 21).
    let mut table = Table::new(
        "E4b — adaptive FindNext cost vs A (N = 2^16, B = 2): O(log A), not O(log N)",
        &["A (leaves removed after p)", "adaptive RMRs", "plain RMRs"],
    );
    let ks = [0usize, 2, 4, 6, 8, 10, 12, 14];
    let points = pool::par_map(jobs, &ks, |&k| {
        let n = 1usize << 16;
        let mut b = MemoryBuilder::new();
        let tree = Tree::layout(&mut b, n, 2);
        let mem = b.build_cc(2);
        let a = (1usize << k) - 1;
        for q in 1..=a {
            tree.remove(&mem, 0, q as u64);
        }
        let probe = RmrProbe::start(&mem, 0);
        assert_eq!(
            tree.adaptive_find_next(&mem, 0, 0),
            FindNextResult::Next(a as u64 + 1)
        );
        let adaptive = probe.rmrs(&mem);
        let probe = RmrProbe::start(&mem, 1);
        assert_eq!(
            tree.find_next(&mem, 1, 0),
            FindNextResult::Next(a as u64 + 1)
        );
        let plain = probe.rmrs(&mem);
        (a, adaptive, plain)
    });
    for &(a, adaptive, plain) in &points {
        table.row(vec![a.to_string(), adaptive.to_string(), plain.to_string()]);
    }
    table.print();
    artifact::save("fig4_adaptive_vs_a", points.to_json(), Mode::Detail)
}

/// E5: the headline `O(log_W N)` family — worst-case lock passage cost
/// vs N for each branching factor.
fn logw(jobs: usize) -> io::Result<()> {
    let ns = [16usize, 64, 256];
    let bs = [2usize, 4, 16, 64];
    let mut table = Table::new(
        "E5 — O(log_B N) family: worst-case passage RMRs of the one-shot lock (N−2 aborters)",
        &["B \\ N", "N=16", "N=64", "N=256"],
    );
    let cells: Vec<(usize, usize)> = bs
        .iter()
        .flat_map(|&bf| ns.iter().map(move |&n| (bf, n)))
        .collect();
    let points = pool::par_map(jobs, &cells, |&(bf, n)| {
        let p = worst_case_sweep(LockKind::OneShot { b: bf }, n, 3, NoProbe).expect("sim failed");
        assert!(p.mutex_ok);
        p
    });
    for (row, chunk) in points.chunks(ns.len()).enumerate() {
        let mut cells = vec![format!("B={}", bs[row])];
        cells.extend(chunk.iter().map(|p| p.max_entered_rmrs.to_string()));
        table.row(cells);
    }
    table.print();
    println!(
        "shape check: each row grows like log_B N — larger B flattens the curve; at B = 64 \
         (W = Θ(N^ε)) the cost is effectively constant, the paper's O(1) regime."
    );

    // Tree-level confirmation at large N, pure O(log_B N) geometry.
    let mut table = Table::new(
        "E5b — FindNext worst case on the bare tree (only leaf N−1 live)",
        &["B \\ N", "N=2^10", "N=2^14", "N=2^18"],
    );
    let es = [10u32, 14, 18];
    let cells: Vec<(usize, u32)> = bs
        .iter()
        .flat_map(|&bf| es.iter().map(move |&e| (bf, e)))
        .collect();
    let costs = pool::par_map(jobs, &cells, |&(bf, e)| {
        let n = 1usize << e;
        let mut b = MemoryBuilder::new();
        let tree = Tree::layout(&mut b, n, bf);
        let mem = b.build_cc(1);
        for q in 1..n - 1 {
            tree.remove(&mem, 0, q as u64);
        }
        let probe = RmrProbe::start(&mem, 0);
        assert_eq!(
            tree.find_next(&mem, 0, 0),
            FindNextResult::Next(n as u64 - 1)
        );
        probe.rmrs(&mem)
    });
    for (row, chunk) in costs.chunks(es.len()).enumerate() {
        let mut cells = vec![format!("B={}", bs[row])];
        cells.extend(chunk.iter().map(|c| c.to_string()));
        table.row(cells);
    }
    table.print();
    artifact::save("logw_family", points.to_json(), Mode::Detail)
}

/// E7: Figure 5 / §6 — the long-lived transformation across many
/// instance switches, simple vs bounded, with every other long-lived
/// abortable kind in the registry alongside for scale. The row set is
/// registry-driven: a newly registered kind shows up here without
/// touching this file (`switches` stays 0 for locks that are not
/// instance-switching wrappers).
fn fig5(jobs: usize) -> io::Result<()> {
    let mut table = Table::new(
        "E7 — Figure 5: long-lived lock across instance switches (N = 8, 8 passages each, 2 aborters)",
        &["implementation", "max RMRs/passage", "mean RMRs/passage", "switches", "steps", "safe"],
    );
    let kinds: Vec<LockKind> = LockKind::all(16)
        .into_iter()
        .filter(|k| !k.one_shot() && k.abortable())
        .collect();
    // Each cell runs with its own export log + per-kind log (an owned
    // `(A, B)` probe pair observing the same run); the export logs are
    // absorbed in cell order afterwards.
    let results = pool::par_map(jobs, &kinds, |&kind| {
        let built = sal_bench::build_lock(kind, 8, 8 * 8 + 16);
        let mut plans = vec![sal_runtime::ProcPlan::normal(8); 6];
        plans.extend(vec![sal_runtime::ProcPlan::aborter(8, 60); 2]);
        let spec = sal_runtime::WorkloadSpec {
            plans,
            cs_ops: 2,
            max_steps: 60_000_000,
            lease: 0,
        };
        let cell_log = EventLog::unbounded();
        let kind_log = EventLog::unbounded();
        let report = sal_runtime::run_lock(
            &built.lock,
            &built.mem,
            built.cs_word,
            &spec,
            Box::new(sal_runtime::RandomSchedule::seeded(5)),
            (cell_log.clone(), kind_log.clone()),
        )
        .expect("sim failed");
        let switches = kind_log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ObsEventKind::Note("instance-switch", _)))
            .count();
        let (max, mean) = (report.max_entered_rmrs(), report.mean_entered_rmrs());
        let row = vec![
            kind.label(),
            max.to_string(),
            format!("{mean:.1}"),
            switches.to_string(),
            report.steps.to_string(),
            report.mutex_check.is_ok().to_string(),
        ];
        ((row, (kind.label(), max, mean, switches)), cell_log)
    });
    let (results, log) = absorb(results);
    let mut points = Vec::new();
    for (row, point) in results {
        table.row(row);
        points.push(point);
    }
    table.print();
    println!(
        "shape check: the bounded (§6.2) implementation matches the simple (unbounded) \
         one up to the constant lazy-reset overhead, while using O(N²) space instead of \
         O(passages · N)."
    );

    // Cost stability across many recycles (single process, every passage
    // switches the instance).
    let p = no_abort_sweep(LockKind::LongLived { b: 16 }, 2, 50, 1, NoProbe).expect("sim failed");
    println!(
        "recycle stability: 50 passages/process, 2 processes → max {} RMRs/passage (no drift).",
        p.max_entered_rmrs
    );
    artifact::save_with_log("fig5_long_lived", &points, &log)?;
    artifact::save_events(&log, "fig5_events")
}

/// No flags of its own.
pub fn flags(cli: Cli) -> Cli {
    cli
}

/// Run `part`.
pub fn run(part: &str, _: &Parsed) -> Result<(), Exit> {
    let jobs = pool::default_jobs();
    match part {
        "fig2" => fig2(),
        "fig4" => fig4(jobs)?,
        "fig5" => fig5(jobs)?,
        "logw" => logw(jobs)?,
        _ => {
            fig2();
            fig4(jobs)?;
            logw(jobs)?;
            fig5(jobs)?;
        }
    }
    Ok(())
}
