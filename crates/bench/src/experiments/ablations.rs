//! Ablation studies of the paper's design choices.
//!
//! ```text
//! cargo run --release -p sal-bench -- ablations [all|sidestep|resets|dsm|faa|wrapper] \
//!     [--strategy s] [--seed u64]
//! ```
//!
//! * `sidestep` — Algorithm 4.3's right-cousin sidestep, on vs off, at
//!   the *lock* level: what the adaptive ascent buys a complete passage.
//! * `resets`  — the §6.2 eager-reset quota (wraparound guard): its cost
//!   per instance switch at 0 / 1 / 8 words.
//! * `dsm`     — the §3 DSM indirection (announce + local spin bit):
//!   what it costs under CC and what it saves under DSM.
//! * `faa`     — §7: F&A vs read+CAS emulation in the tree's Remove.
//! * `wrapper` — Figure-5 simple vs §6.2 bounded: the price of bounded
//!   space.
//!
//! Independent grid cells run through `pool::par_map` (`SAL_JOBS`,
//! default = available parallelism); results are gathered in cell
//! order so output is byte-identical to a serial run.
//!
//! `--strategy bfs|dpor|best-first|fuzz` adds a guided-search
//! cross-check to the `sidestep` ablation — the plain-vs-adaptive gap
//! re-measured over *searched* worst-case schedules at small N instead
//! of one sampled schedule.

use crate::Exit;
use sal_bench::artifact::{self, Mode};
use sal_bench::cli::{Cli, Parsed};
use sal_bench::{no_abort_sweep, worst_case_sweep, ExploreCell, LockKind, Table};
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::one_shot::{DsmOneShotLock, OneShotLock};
use sal_core::tree::Ascent;
use sal_core::{AbortableLock, LockCore};
use sal_memory::{Mem, MemoryBuilder, NeverAbort, RmrProbe};
use sal_obs::{NoProbe, ToJson};
use sal_runtime::{explore_guided, pool, ExploreOptions, Strategy};
use std::io;

/// The positional parts, default first.
pub const PARTS: &[&str] = &["all", "sidestep", "resets", "dsm", "faa", "wrapper"];

/// A1c (`--strategy` only): the same plain-vs-adaptive comparison with
/// the worst case *searched for* rather than sampled — guided
/// exploration over all schedules of a small contended cell, reporting
/// the most expensive complete passage any explored schedule produced.
fn sidestep_guided(jobs: usize, strategy: Strategy) {
    let mut table = Table::new(
        format!(
            "A1c — ablation under guided search (strategy={}, N=4, B=2, 2 aborters)",
            strategy.label()
        ),
        &["ascent", "worst max RMRs/passage", "schedules"],
    );
    let variants = [
        ("plain", LockKind::OneShotPlain { b: 2 }),
        ("adaptive", LockKind::OneShot { b: 2 }),
    ];
    for (label, kind) in variants {
        let cell = ExploreCell::contended(kind, 4);
        let opts = ExploreOptions {
            jobs,
            ..ExploreOptions::default()
        };
        let result = explore_guided(&opts, strategy, |policy| cell.guided_run(policy));
        assert!(
            result.violation.is_none(),
            "{label} ascent violated safety under guided search: {:?}",
            result.violation
        );
        table.row(vec![
            label.into(),
            result.best_cost.to_string(),
            result.runs.to_string(),
        ]);
    }
    table.print();
    println!(
        "shape check: searched worst cases dominate the sampled ones above; the gap between \
         the ascents survives adversarial scheduling."
    );
}

/// Adaptive vs plain ascent, complete-passage worst case.
fn sidestep(jobs: usize) -> io::Result<()> {
    let mut table = Table::new(
        "A1 — ablation: AdaptiveFindNext (Alg 4.3) vs FindNext (Alg 4.1), worst-case passage",
        &["N", "plain ascent", "adaptive ascent"],
    );
    let ns = [16usize, 64, 256];
    let points = pool::par_map(jobs, &ns, |&n| {
        let plain = worst_case_sweep(LockKind::OneShotPlain { b: 2 }, n, 17, NoProbe).expect("sim");
        let adaptive = worst_case_sweep(LockKind::OneShot { b: 2 }, n, 17, NoProbe).expect("sim");
        assert!(plain.mutex_ok && adaptive.mutex_ok);
        (n, plain.max_entered_rmrs, adaptive.max_entered_rmrs)
    });
    for &(n, plain, adaptive) in &points {
        table.row(vec![n.to_string(), plain.to_string(), adaptive.to_string()]);
    }
    table.print();
    println!(
        "note: with N−2 aborters both pay O(log A) ≈ O(log N); the sidestep's win shows at\n\
         *low* abort counts — see `figures -- fig4` where the plain ascent pays the full\n\
         height and the adaptive one pays O(1)."
    );

    let mut table = Table::new(
        "A1b — same ablation at A = 2 aborters (N = 256): adaptivity is the whole story",
        &["ascent", "max RMRs/passage"],
    );
    let variants = [
        ("plain", LockKind::OneShotPlain { b: 2 }),
        ("adaptive", LockKind::OneShot { b: 2 }),
    ];
    let rows = pool::par_map(jobs, &variants, |&(label, kind)| {
        let p = sal_bench::adaptive_sweep(kind, 256, 2, 23, NoProbe).expect("sim");
        assert!(p.mutex_ok);
        (label, p.max_entered_rmrs)
    });
    for (label, max) in rows {
        table.row(vec![label.into(), max.to_string()]);
    }
    table.print();
    artifact::save("ablation_sidestep", points.to_json(), Mode::Detail)
}

/// Eager-reset quota: measured overhead per passage when every passage
/// switches instances (solo process).
fn resets() -> io::Result<()> {
    let mut table = Table::new(
        "A2 — ablation: §6.2 eager wraparound-reset quota (solo process, 30 switches)",
        &[
            "eager words/switch",
            "max RMRs/passage",
            "mean RMRs/passage",
        ],
    );
    let mut points = Vec::new();
    for &quota in &[0usize, 1, 8, 32] {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout_with(&mut b, 2, 8, Ascent::Adaptive, quota);
        let mem = b.build_cc(2);
        let mut max = 0u64;
        let mut sum = 0u64;
        let rounds = 30u64;
        for _ in 0..rounds {
            let probe = RmrProbe::start(&mem, 0);
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
            let c = probe.rmrs(&mem);
            max = max.max(c);
            sum += c;
        }
        table.row(vec![
            quota.to_string(),
            max.to_string(),
            format!("{:.1}", sum as f64 / rounds as f64),
        ]);
        points.push((quota, max, sum as f64 / rounds as f64));
    }
    table.print();
    println!("shape check: each eagerly reset word adds ~2–3 RMRs to the switching passage.");
    artifact::save("ablation_resets", points.to_json(), Mode::Detail)
}

/// The DSM indirection, costed under both models.
fn dsm() {
    let mut table = Table::new(
        "A3 — ablation: §3 DSM indirection (announce[] + local spin bit), N = 64",
        &[
            "variant / model",
            "max RMRs of a passage (sequential handoffs)",
        ],
    );
    // The plain variant under CC, then the DSM variant under CC (its
    // overhead) and under DSM (its point).
    for (label, dsm_variant, dsm_model) in [
        ("plain variant under CC", false, false),
        ("DSM variant under CC", true, false),
        ("DSM variant under DSM", true, true),
    ] {
        let mut b = MemoryBuilder::new();
        let lock = one_shot(&mut b, dsm_variant, 64, 8);
        let max = if dsm_model {
            sequential_max(&*lock, &b.build_dsm(64))
        } else {
            sequential_max(&*lock, &b.build_cc(64))
        };
        table.row(vec![label.into(), max.to_string()]);
    }
    table.print();
    println!(
        "shape check: the indirection costs a constant handful of extra RMRs, and makes \
         the spin loop local in the DSM model (where the plain variant's spin would be \
         unboundedly remote)."
    );
}

/// The §3 motivation, measured: under the DSM model a waiter on the
/// plain variant's dynamically-assigned `go` slot pays one RMR per spin
/// iteration (the slot is remote), while the DSM variant's local spin
/// bit is free — the gap grows linearly with how long the wait lasts.
fn dsm_spin() -> io::Result<()> {
    use sal_runtime::{simulate, RoundRobin, SimOptions};

    let mut table = Table::new(
        "A3b — the waiter's total RMRs under the DSM model vs how long the owner holds the CS",
        &[
            "owner CS steps",
            "plain variant (remote spin)",
            "DSM variant (local spin)",
        ],
    );
    let mut points = Vec::new();
    for &hold in &[4u64, 16, 64, 256] {
        let mut row = vec![hold.to_string()];
        for dsm_variant in [false, true] {
            let mut b = MemoryBuilder::new();
            let lock = one_shot(&mut b, dsm_variant, 2, 4);
            // The owner's in-CS work touches only its own home word, so
            // the waiter's counter isolates the cost of *waiting*.
            let owner_pad = b.alloc_at(0, 0);
            let mem = b.build_dsm(2);
            // Round-robin: p0 wins ticket 0 and holds the CS for `hold`
            // steps while p1 spins.
            simulate(
                &mem,
                2,
                Box::new(RoundRobin::new()),
                SimOptions::default(),
                |ctx| {
                    let probe = NoProbe;
                    assert!(lock.enter(ctx.mem, ctx.pid, &NeverAbort, &probe).entered());
                    if ctx.pid == 0 {
                        for _ in 0..hold {
                            ctx.mem.read(0, owner_pad); // home-local, free
                        }
                    }
                    lock.exit(ctx.mem, ctx.pid, &probe);
                },
            )
            .expect("sim failed");
            let waiter = mem.rmrs(1);
            row.push(waiter.to_string());
            points.push((hold, dsm_variant, waiter));
        }
        table.row(row);
    }
    table.print();
    println!(
        "shape check: the plain variant's waiter cost grows with the wait (unbounded in \
         the limit — the §3 problem); the DSM variant's stays flat."
    );
    artifact::save("ablation_dsm_spin", points.to_json(), Mode::Detail)
}

/// The one-shot lock for `n` processes at branching `w`: the DSM
/// variant (§3) or the plain one.
fn one_shot(
    b: &mut MemoryBuilder,
    dsm_variant: bool,
    n: usize,
    w: usize,
) -> Box<dyn AbortableLock> {
    if dsm_variant {
        Box::new(DsmOneShotLock::layout(b, n, w))
    } else {
        Box::new(OneShotLock::layout(b, n, w))
    }
}

/// The most expensive of 64 sequential, uncontended passages.
fn sequential_max(lock: &dyn AbortableLock, mem: &dyn Mem) -> u64 {
    (0..64)
        .map(|p| {
            let probe = RmrProbe::start(mem, p);
            assert!(lock.enter(mem, p, &NeverAbort, &NoProbe).entered());
            lock.exit(mem, p, &NoProbe);
            probe.rmrs(mem)
        })
        .max()
        .unwrap_or(0)
}

/// §7: what F&A buys over read+CAS emulation in the tree's Remove.
fn faa(jobs: usize) -> io::Result<()> {
    use sal_core::tree::Tree;
    use sal_runtime::{simulate, RandomSchedule, SimOptions};

    let mut table = Table::new(
        "A5 — §7 primitive strength: total RMRs of k concurrent Removes under one B=64 node",
        &["k removers", "F&A (Alg 4.2)", "read+CAS emulation"],
    );
    let ks = [2usize, 8, 32, 64];
    // Flatten the whole (k × seed × mode) grid into independent cells,
    // then reduce the gathered totals in deterministic cell order.
    let cells: Vec<(usize, u64, bool)> = ks
        .iter()
        .flat_map(|&k| {
            (0..10u64).flat_map(move |seed| [false, true].map(move |use_cas| (k, seed, use_cas)))
        })
        .collect();
    let totals = pool::par_map(jobs, &cells, |&(k, seed, use_cas)| {
        let mut b = MemoryBuilder::new();
        let tree = Tree::layout(&mut b, 64, 64);
        let mem = b.build_cc(k);
        simulate(
            &mem,
            k,
            Box::new(RandomSchedule::seeded(seed)),
            SimOptions::default(),
            |ctx| {
                if use_cas {
                    tree.remove_with_cas(ctx.mem, ctx.pid, ctx.pid as u64);
                } else {
                    tree.remove(ctx.mem, ctx.pid, ctx.pid as u64);
                }
            },
        )
        .expect("sim failed");
        mem.total_rmrs()
    });
    let mut points = Vec::new();
    for (row, chunk) in cells.chunks(20).enumerate() {
        let mut faa_total = 0u64;
        let mut cas_total = 0u64;
        for (cell, total) in chunk.iter().zip(&totals[row * 20..]) {
            if cell.2 {
                cas_total += total;
            } else {
                faa_total += total;
            }
        }
        let k = ks[row];
        table.row(vec![
            k.to_string(),
            faa_total.to_string(),
            cas_total.to_string(),
        ]);
        points.push((k, faa_total, cas_total));
    }
    table.print();
    println!(
        "shape check: F&A is exactly one RMR per Remove (totals = 10k); the CAS loop pays \
         2× plus retries that grow with contention — the gap §7 credits for beating the \
         LL/SC f-array approach."
    );
    artifact::save("ablation_faa", points.to_json(), Mode::Detail)
}

/// Simple (unbounded) vs bounded wrapper cost.
fn wrapper(jobs: usize) -> io::Result<()> {
    let mut table = Table::new(
        "A4 — ablation: Figure-5 simple vs §6.2 bounded long-lived wrapper (N = 8, clean)",
        &["implementation", "max RMRs/passage", "mean RMRs/passage"],
    );
    let kinds = [
        LockKind::LongLivedSimple { b: 8 },
        LockKind::LongLived { b: 8 },
    ];
    let points = pool::par_map(jobs, &kinds, |&kind| {
        let p = no_abort_sweep(kind, 8, 4, 31, NoProbe).expect("sim");
        assert!(p.mutex_ok);
        p
    });
    for (kind, p) in kinds.iter().zip(&points) {
        table.row(vec![
            kind.label(),
            p.max_entered_rmrs.to_string(),
            format!("{:.1}", p.mean_entered_rmrs),
        ]);
    }
    table.print();
    println!(
        "shape check: bounded space costs a constant factor (version reads + V_w flips), \
         never an asymptotic one."
    );
    artifact::save("ablation_wrapper", points.to_json(), Mode::Detail)
}

/// `--strategy` (plus `--seed` for the fuzzer): the guided-search
/// cross-check of the sidestep ablation.
pub fn flags(cli: Cli) -> Cli {
    cli.strategy_opt().opt(
        "--seed",
        "u64",
        "fuzzer seed (default 1; fuzz strategy only)",
    )
}

/// Run `part`.
pub fn run(part: &str, p: &Parsed) -> Result<(), Exit> {
    let jobs = pool::default_jobs();
    let strategy = p.strategy()?;
    let sidestep_all = || -> io::Result<()> {
        sidestep(jobs)?;
        if let Some(s) = strategy {
            sidestep_guided(jobs, s);
        }
        Ok(())
    };
    match part {
        "sidestep" => sidestep_all()?,
        "resets" => resets()?,
        "dsm" => {
            dsm();
            dsm_spin()?;
        }
        "wrapper" => wrapper(jobs)?,
        "faa" => faa(jobs)?,
        _ => {
            sidestep_all()?;
            resets()?;
            dsm();
            dsm_spin()?;
            faa(jobs)?;
            wrapper(jobs)?;
        }
    }
    Ok(())
}
