//! Figure 2, interactively: the three `FindNext(p)` scenarios of the
//! `Tree` data structure, plus the Figure-4 sidestep, on a live tree
//! with RMR accounting.
//!
//! Run with: `cargo run --example tree_scenarios`

use sal_core::tree::Tree;
use sal_memory::{Mem, MemoryBuilder, RmrProbe};

fn fresh(n: usize, b: usize) -> (Tree, sal_memory::CcMemory) {
    let mut builder = MemoryBuilder::new();
    let tree = Tree::layout(&mut builder, n, b);
    (tree, builder.build_cc(n))
}

fn main() {
    println!(
        "The Tree of §4 (Figure 3): a {}-leaf, branching-4 instance\n",
        16
    );

    // Scenario (a): plain successor search.
    let (tree, mem) = fresh(16, 4);
    println!("scenario (a) — normal handoff:");
    println!(
        "  initially every slot is live; FindNext(5) = {:?}",
        tree.find_next(&mem, 0, 5)
    );
    for q in [6u64, 7, 8] {
        tree.remove(&mem, q as usize, q);
        println!(
            "  after Remove({q}):          FindNext(5) = {:?}",
            tree.find_next(&mem, 0, 5)
        );
    }

    // Scenario (b): the queue exhausts — ⊥.
    let (tree, mem) = fresh(8, 2);
    println!("\nscenario (b) — ⊥ (no successor):");
    for q in 3..8u64 {
        tree.remove(&mem, q as usize, q);
    }
    println!(
        "  slots 3..8 abandoned; FindNext(2) = {:?} → the exiting process simply stops; \
         the lock is exhausted",
        tree.find_next(&mem, 0, 2)
    );

    // Scenario (c): crossing paths with an in-flight Remove — ⊤.
    // Sequentially we can only show the completed state; the bench
    // binary (`figures -- fig2`) drives the true interleaving through
    // the deterministic scheduler. Here we show the *invariant* that
    // makes ⊤ safe: the Remove that empties a node takes over the
    // handoff responsibility.
    let (tree, mem) = fresh(8, 2);
    println!("\nscenario (c) — ⊤ (crossed paths):");
    println!("  when FindNext descends into a node that a concurrent Remove has just emptied,");
    println!("  it returns Top and the *remover* re-runs SignalNext on the exiter's behalf");
    println!("  (drive the real interleaving: cargo run --release -p sal-bench -- figures fig2)");
    let _ = tree.find_next(&mem, 0, 0);

    // Figure 4: the adaptive sidestep.
    println!("\nFigure 4 — the adaptive ascent sidestep (N = 4096, B = 2):");
    let (tree, mem) = fresh(4096, 2);
    let p = 2047; // rightmost leaf of the left half
    let probe = RmrProbe::start(&mem, 0);
    let r = tree.find_next(&mem, 0, p);
    let plain = probe.rmrs(&mem);
    let probe = RmrProbe::start(&mem, 1);
    let r2 = tree.adaptive_find_next(&mem, 1, p);
    let adaptive = probe.rmrs(&mem);
    assert_eq!(r, r2);
    println!("  FindNext({p}) = {r:?}");
    println!("  plain ascent (Algorithm 4.1):    {plain:>3} RMRs — climbs to the root and back");
    println!(
        "  adaptive ascent (Algorithm 4.3): {adaptive:>3} RMRs — sidesteps to the right cousin"
    );

    // And the adaptivity claim: cost tracks the number of aborters.
    println!("\nClaim 21 — adaptive cost tracks A (number of aborters), N = 4096:");
    let (tree, mem) = fresh(4096, 2);
    for k in [1usize, 3, 5, 7, 9] {
        let a = (1usize << k) - 1;
        for q in 1..=a {
            if !tree.is_removed(&mem, 0, q as u64) {
                tree.remove(&mem, 0, q as u64);
            }
        }
        let probe = RmrProbe::start(&mem, 0);
        let r = tree.adaptive_find_next(&mem, 0, 0);
        println!(
            "  A = {a:>4}: AdaptiveFindNext(0) = {r:?} in {:>2} RMRs",
            probe.rmrs(&mem)
        );
    }
    let _ = mem.total_rmrs();
}
