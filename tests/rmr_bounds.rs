//! Executable complexity bounds: the RMR claims of Theorem 2, Claim 20,
//! Claim 21 and Claim 28, checked as inequalities on measured counts.
//! These are the paper's *theorems* as tests — generous constants, but
//! the asymptotic shape is pinned: costs must track `log_B A` (not `N`),
//! no-abort passages must be flat, and the long-lived wrapper must add
//! only a constant.

use sal_bench::{
    adaptive_sweep, amortized_sweep, build_lock, no_abort_sweep, worst_case_sweep, LockKind,
};
use sal_core::tree::{FindNextResult, Tree};
use sal_memory::{Mem, MemoryBuilder, RmrProbe};
use sal_obs::NoProbe;

fn log_b(b: usize, x: usize) -> u64 {
    let mut h = 1u64;
    let mut cap = b;
    while cap < x {
        cap *= b;
        h += 1;
    }
    h
}

/// Abstract claim: "if no process aborts during a passage, its RMR cost
/// is O(1)" — flat in N.
#[test]
fn no_abort_passages_are_constant_in_n() {
    let mut costs = Vec::new();
    for &n in &[8usize, 32, 128] {
        let p = no_abort_sweep(LockKind::OneShot { b: 8 }, n, 1, 5, NoProbe).unwrap();
        assert!(p.mutex_ok);
        costs.push(p.max_entered_rmrs);
    }
    let max = *costs.iter().max().unwrap();
    assert!(max <= 12, "no-abort passage not O(1): {costs:?}");
    // And flat: N=128 costs no more than N=8 plus slack.
    assert!(
        costs[2] <= costs[0] + 3,
        "no-abort cost grows with N: {costs:?}"
    );
}

/// Theorem 2: a complete passage costs O(log_B A_i).
#[test]
fn complete_passage_tracks_log_b_of_aborters() {
    let n = 128;
    let b = 4;
    for &a in &[0usize, 4, 16, 64, 126] {
        let p = adaptive_sweep(LockKind::OneShot { b }, n, a, 9, NoProbe).unwrap();
        assert!(p.mutex_ok);
        let bound = 8 * log_b(b, a.max(2)) + 16;
        assert!(
            p.max_entered_rmrs <= bound,
            "A={a}: {} RMRs exceeds c·log_{b}(A) = {bound}",
            p.max_entered_rmrs
        );
    }
}

/// Theorem 2: an aborted attempt costs O(log_B A_t).
#[test]
fn aborted_attempt_tracks_log_b_of_total_aborters() {
    let n = 128;
    let b = 4;
    for &a in &[1usize, 8, 32, 126] {
        let p = adaptive_sweep(LockKind::OneShot { b }, n, a, 13, NoProbe).unwrap();
        let bound = 8 * log_b(b, a.max(2)) + 16;
        assert!(
            p.max_aborted_rmrs <= bound,
            "A={a}: aborted attempt cost {} exceeds {bound}",
            p.max_aborted_rmrs
        );
    }
}

/// The worst case is O(log_B N) — and larger B genuinely flattens it
/// (the time/space trade-off of §1).
#[test]
fn worst_case_flattens_with_branching_factor() {
    let n = 128;
    let narrow = worst_case_sweep(LockKind::OneShot { b: 2 }, n, 3, NoProbe).unwrap();
    let wide = worst_case_sweep(LockKind::OneShot { b: 64 }, n, 3, NoProbe).unwrap();
    assert!(narrow.mutex_ok && wide.mutex_ok);
    assert!(
        wide.max_entered_rmrs < narrow.max_entered_rmrs,
        "B=64 ({}) should beat B=2 ({})",
        wide.max_entered_rmrs,
        narrow.max_entered_rmrs
    );
    assert!(
        wide.max_entered_rmrs <= 14,
        "B=64 at N=128 is the O(1) regime: {}",
        wide.max_entered_rmrs
    );
}

/// Claim 28: the long-lived wrapper preserves the one-shot cost up to a
/// constant — including the lazy-reset overhead of recycled instances.
#[test]
fn long_lived_adds_only_a_constant() {
    // "Constant" means independent of N, not small: the switching
    // passage pays for lazy resets, the descriptor CAS, and the spin-pool
    // scan step, but none of that may grow with the process count.
    let small = no_abort_sweep(LockKind::LongLived { b: 8 }, 8, 3, 3, NoProbe).unwrap();
    let large = no_abort_sweep(LockKind::LongLived { b: 8 }, 64, 3, 3, NoProbe).unwrap();
    assert!(small.mutex_ok && large.mutex_ok);
    assert!(
        large.max_entered_rmrs <= small.max_entered_rmrs + 10,
        "wrapper overhead grows with N: {} (N=8) vs {} (N=64)",
        small.max_entered_rmrs,
        large.max_entered_rmrs
    );
    // And it stays within a fixed multiple of the bare one-shot passage.
    let one_shot = no_abort_sweep(LockKind::OneShot { b: 8 }, 16, 1, 3, NoProbe).unwrap();
    assert!(
        large.max_entered_rmrs <= one_shot.max_entered_rmrs * 6 + 10,
        "wrapper blow-up: {} vs one-shot {}",
        large.max_entered_rmrs,
        one_shot.max_entered_rmrs
    );
}

/// Claim 21 at the data-structure level: AdaptiveFindNext pays per
/// *aborter*, the plain ascent pays per *tree height*.
#[test]
fn adaptive_ascent_beats_plain_at_subtree_boundaries() {
    let n = 1 << 14;
    let mut builder = MemoryBuilder::new();
    let tree = Tree::layout(&mut builder, n, 2);
    let mem = builder.build_cc(2);
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
    assert!(plain >= 14, "plain should climb the full height: {plain}");
    assert!(
        adaptive <= 3,
        "adaptive should sidestep in O(1): {adaptive}"
    );
}

/// Claim 20: Remove() costs O(log_B A_t) — measured cumulatively while
/// the abort count grows.
#[test]
fn remove_cost_grows_logarithmically() {
    let n = 1 << 12;
    let b = 2;
    let mut builder = MemoryBuilder::new();
    let tree = Tree::layout(&mut builder, n, b);
    let mem = builder.build_cc(1);
    let mut worst = 0u64;
    for q in 1..n as u64 {
        let before = mem.total_rmrs();
        tree.remove(&mem, 0, q);
        worst = worst.max(mem.total_rmrs() - before);
    }
    // Height is 12; each Remove touches at most the height, and most
    // touch far fewer.
    assert!(worst <= 12, "Remove exceeded the height bound: {worst}");
}

// ---- amortized bounds (Jayanti–Jayanti, arXiv 1809.04561) -----------
//
// The JJ lock's claim is *amortized*: a single passage may be expensive
// (an exit walk pays for every node abandoned in front of it), but the
// cumulative RMR count of a whole run is c·passages + b for constants
// independent of N. The debt ledger below is that statement as an
// inequality on measured totals; the adversarial test pins the "single
// passage may exceed it" half so the amortized and worst-case columns
// can never be conflated.

/// Debt-ledger constants: generous, but independent of N — that
/// independence is the theorem.
const JJ_C: u64 = 14;
const JJ_B: u64 = 24;

/// Cumulative RMRs ≤ c·passages + b at N ∈ {2, 4, 8}, across seeds,
/// under the abandonment-heavy half-aborting workload. Accounting is
/// cross-checked bit-exactly against the memory's own counters.
#[test]
fn jj_amortized_debt_ledger_is_linear_in_passages() {
    for &n in &[2usize, 4, 8] {
        for seed in [7u64, 21, 42] {
            let p = amortized_sweep(LockKind::JjAmortized, n, 4, 4, seed).unwrap();
            assert!(p.mutex_ok, "N={n} seed={seed}: mutual exclusion");
            assert!(p.accounting_ok, "N={n} seed={seed}: probe totals diverged");
            let s = p.stats;
            assert!(s.passages > 0, "N={n} seed={seed}: empty run");
            assert!(
                s.total_rmrs <= JJ_C * s.passages + JJ_B,
                "N={n} seed={seed}: {} RMRs over {} passages exceeds {JJ_C}·p + {JJ_B}",
                s.total_rmrs,
                s.passages
            );
        }
    }
}

/// The amortized cost is flat in N while the O(log N) tournament
/// tree's grows — the Table-1 "Amortized" column's shape, pinned.
#[test]
fn jj_amortized_flat_while_tournament_grows() {
    let jj2 = amortized_sweep(LockKind::JjAmortized, 2, 6, 4, 3).unwrap();
    let jj8 = amortized_sweep(LockKind::JjAmortized, 8, 6, 4, 3).unwrap();
    let t2 = amortized_sweep(LockKind::Tournament, 2, 6, 4, 3).unwrap();
    let t8 = amortized_sweep(LockKind::Tournament, 8, 6, 4, 3).unwrap();
    for p in [&jj2, &jj8, &t2, &t8] {
        assert!(p.mutex_ok && p.accounting_ok, "{}", p.lock);
    }
    assert!(
        jj8.stats.amortized_rmrs <= jj2.stats.amortized_rmrs * 1.5 + 1.0,
        "jj-amortized grew with N: {:.2} (N=2) → {:.2} (N=8)",
        jj2.stats.amortized_rmrs,
        jj8.stats.amortized_rmrs
    );
    assert!(
        t8.stats.amortized_rmrs >= t2.stats.amortized_rmrs + 1.0,
        "tournament should grow with N: {:.2} (N=2) → {:.2} (N=8)",
        t2.stats.amortized_rmrs,
        t8.stats.amortized_rmrs
    );
}

/// Adversarial schedule: a crowd abandons in the queue and a single
/// exit walk pays for all of them. That one passage must exceed the
/// amortized constant (this is what "amortized, not worst-case" means)
/// — yet the run total stays inside the debt ledger, because every
/// abandoned node is deposited once and consumed once.
#[test]
fn jj_single_passage_debt_exceeds_amortized_but_total_stays_linear() {
    use sal_runtime::{run_lock, ProcPlan, RandomSchedule, WorkloadSpec};
    let n = 8;
    let mut plans = vec![ProcPlan::normal(3)];
    // Pre-fired aborters: they enqueue a node, abandon it immediately,
    // and retry — maximal deposits per consuming walk.
    plans.extend(vec![ProcPlan::aborter(3, 0); n - 2]);
    plans.push(ProcPlan::normal(3));
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let built = build_lock(LockKind::JjAmortized, n, attempts);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 2,
        max_steps: 60_000_000,
        lease: 0,
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        Box::new(RandomSchedule::seeded(11)),
        NoProbe,
    )
    .unwrap();
    assert!(report.mutex_check.is_ok());
    let a = report.stats.amortized();
    assert_eq!(
        a.total_rmrs,
        built.mem.total_rmrs(),
        "probe totals must match the memory ground truth bit-exactly"
    );
    assert!(a.aborted > 0, "the crowd must actually abandon");
    assert!(
        (a.max_passage_rmrs as f64) >= a.amortized_rmrs + 8.0,
        "worst single passage ({}) should clearly exceed the amortized cost ({:.2})",
        a.max_passage_rmrs,
        a.amortized_rmrs
    );
    assert!(
        a.total_rmrs <= JJ_C * a.passages + JJ_B,
        "total {} over {} passages broke the ledger",
        a.total_rmrs,
        a.passages
    );
}

/// Comparison shape of Table 1: at high abort counts our lock beats the
/// O(log N) tournament, and both beat Scott's queue walk.
#[test]
fn table1_ordering_holds_at_high_abort_count() {
    let n = 128;
    let a = 126;
    let ours = adaptive_sweep(LockKind::OneShot { b: 16 }, n, a, 21, NoProbe).unwrap();
    let tournament = adaptive_sweep(LockKind::Tournament, n, a, 21, NoProbe).unwrap();
    let scott = adaptive_sweep(LockKind::Scott, n, a, 21, NoProbe).unwrap();
    assert!(ours.mutex_ok && tournament.mutex_ok && scott.mutex_ok);
    assert!(
        ours.max_entered_rmrs < scott.max_entered_rmrs,
        "ours ({}) should beat scott ({}) under abort storms",
        ours.max_entered_rmrs,
        scott.max_entered_rmrs
    );
}
