//! The `Tree` ordered-set data structure of §4 (Figure 3).
//!
//! `Tree` maintains the set of queue slots that have *not* been abandoned
//! by aborting processes, as a static `B`-ary tree of one-word nodes
//! (`B` plays the role of the paper's `W`, the F&A register width). A set
//! bit in a node means the corresponding child subtree contains only
//! abandoned slots.
//!
//! * [`Tree::remove`] (Algorithm 4.2) — an aborting process ascends from
//!   its leaf, F&A-ing its bit into each node, stopping at the first node
//!   that is not left completely full. `O(log_B A_t)` RMRs, where `A_t`
//!   is the number of processes that abort in the execution (Claim 20).
//! * [`Tree::find_next`] (Algorithm 4.1) — ascend from leaf `p` to the
//!   first node with a zero bit right of the entry point, then descend
//!   left-most-zero-wards. `O(log_B N)` RMRs.
//! * [`Tree::adaptive_find_next`] (Algorithm 4.3) — same result (Lemma 1),
//!   but sidesteps to the right cousin whenever the ascent reaches a
//!   rightmost child, making the cost `O(log_B A)` — adaptive in the
//!   number of aborters (Claim 21).
//!
//! The semantics are *not* linearizable (§3): `FindNext` may return
//! [`FindNextResult::Top`] ("crossed paths") when it observes an
//! all-ones node mid-descent, meaning a concurrent `Remove` will assume
//! responsibility for the lock handoff.

pub(crate) mod bits;
mod cas_remove;
mod geometry;

pub use geometry::{NodeRef, TreeGeometry};

use sal_memory::{Mem, MemoryBuilder, Pid, WordArray};

use bits::{
    empty_word, get_first_zero, get_first_zero_to_the_right, has_zero_to_the_right, offset_mask,
};

/// Result of `Tree::FindNext(p)`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FindNextResult {
    /// The first slot `q > p` that had not been abandoned — the paper's
    /// plain return value (Algorithm 4.1, line 36).
    Next(u64),
    /// The paper's `⊥`: every slot to the right of `p` has been
    /// abandoned; the lock is exhausted (line 27).
    Bottom,
    /// The paper's `⊤`: the descent crossed paths with a concurrent
    /// `Remove` (observed an all-ones node, line 33); the remover assumes
    /// responsibility for the handoff.
    Top,
}

impl FindNextResult {
    /// The found slot, if any.
    pub fn next(self) -> Option<u64> {
        match self {
            FindNextResult::Next(q) => Some(q),
            _ => None,
        }
    }
}

/// Which ascent algorithm `FindNext` uses.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Ascent {
    /// Algorithm 4.1: straight ascent from the leaf toward the root.
    Plain,
    /// Algorithm 4.3: sidestep to the right cousin at rightmost children
    /// — the adaptive `O(log_B A)` ascent.
    #[default]
    Adaptive,
}

/// The tree of Figure 3. See the [module docs](self) for the protocol.
#[derive(Clone, Debug)]
pub struct Tree {
    geo: TreeGeometry,
    words: WordArray,
}

impl Tree {
    /// Lay out a tree over `leaves` slots with branching factor
    /// `branching ∈ 2..=64` against a memory builder. Initially every
    /// (real) slot is present: all node words are zero except bits
    /// covering the padding up to `B^H` leaves, which are pre-set.
    ///
    /// # Panics
    ///
    /// Panics if `branching ∉ 2..=64` or `leaves == 0`.
    pub fn layout(b: &mut MemoryBuilder, leaves: usize, branching: usize) -> Self {
        let geo = TreeGeometry::new(leaves, branching);
        let mut inits = Vec::with_capacity(geo.words());
        for lvl in 1..=geo.height() {
            for i in 0..geo.nodes_at_level(lvl) {
                inits.push(geo.initial_value(NodeRef {
                    level: lvl,
                    index: i,
                }));
            }
        }
        debug_assert_eq!(inits.len(), geo.words());
        let words = b.alloc_array_with(geo.words(), |i| (0, inits[i]));
        Tree { geo, words }
    }

    /// The tree's shape.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geo
    }

    /// Branching factor `B` (the paper's `W`).
    pub fn branching(&self) -> usize {
        self.geo.branching()
    }

    /// Number of leaves (queue slots) `N`.
    pub fn leaves(&self) -> usize {
        self.geo.leaves()
    }

    /// Shared word of internal node `u`.
    #[inline]
    fn word(&self, u: NodeRef) -> sal_memory::WordId {
        self.words.at(self.geo.word_index(u))
    }

    /// `Tree.Remove(p)` (Algorithm 4.2): abandon leaf `p`, executed by
    /// process `caller` (in the one-shot lock, `caller` is the process
    /// holding ticket `p`; they are distinguished here because RMRs are
    /// charged to the *executing* process).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `p`'s bit was already set (a violation of
    /// well-formedness: `Remove(p)` may be invoked at most once).
    pub fn remove<M: Mem + ?Sized>(&self, mem: &M, caller: Pid, p: u64) {
        debug_assert!((p as usize) < self.geo.leaves());
        let b = self.geo.branching();
        for lvl in 1..=self.geo.height() {
            let node = self.geo.node(p, lvl);
            let j = offset_mask(b, self.geo.offset(p, lvl));
            let snap = mem.faa(caller, self.word(node), j);
            debug_assert_eq!(snap & j, 0, "Remove({p}) set an already-set bit");
            if snap.wrapping_add(j) != empty_word(b) {
                break;
            }
        }
    }

    /// Whether leaf `p` has been abandoned, as observable from its
    /// level-1 bit. A testing/diagnostic helper, not part of the paper's
    /// interface.
    pub fn is_removed<M: Mem + ?Sized>(&self, mem: &M, caller: Pid, p: u64) -> bool {
        let node = self.geo.node(p, 1);
        let snap = mem.read(caller, self.word(node));
        snap & offset_mask(self.geo.branching(), self.geo.offset(p, 1)) != 0
    }

    /// `Tree.FindNext(p)` with the given ascent flavour.
    pub fn find_next_with<M: Mem + ?Sized>(
        &self,
        mem: &M,
        caller: Pid,
        p: u64,
        ascent: Ascent,
    ) -> FindNextResult {
        match ascent {
            Ascent::Plain => self.find_next(mem, caller, p),
            Ascent::Adaptive => self.adaptive_find_next(mem, caller, p),
        }
    }

    /// `Tree.FindNext(p)` (Algorithm 4.1): the plain leaf-to-root ascent.
    pub fn find_next<M: Mem + ?Sized>(&self, mem: &M, caller: Pid, p: u64) -> FindNextResult {
        debug_assert!((p as usize) < self.geo.leaves());
        let b = self.geo.branching();
        let mut found: Option<(NodeRef, u64, isize)> = None;
        // Lines 20–25: ascend until a zero appears to the right.
        for lvl in 1..=self.geo.height() {
            let node = self.geo.node(p, lvl);
            let offset = self.geo.offset(p, lvl) as isize;
            let snap = mem.read(caller, self.word(node));
            if has_zero_to_the_right(b, snap, offset) {
                found = Some((node, snap, offset));
                break;
            }
        }
        match found {
            // Lines 26–27: reached the root without a candidate.
            None => FindNextResult::Bottom,
            Some((node, snap, offset)) => self.descend(mem, caller, node, snap, offset),
        }
    }

    /// `Tree.AdaptiveFindNext(p)` (Algorithm 4.3): ascend with right-cousin
    /// sidesteps, then descend as in `FindNext`.
    pub fn adaptive_find_next<M: Mem + ?Sized>(
        &self,
        mem: &M,
        caller: Pid,
        p: u64,
    ) -> FindNextResult {
        debug_assert!((p as usize) < self.geo.leaves());
        let b = self.geo.branching();
        let mut node = self.geo.node(p, 1); // line 42
        let mut offset = self.geo.offset(p, 1) as isize; // line 43
        let mut found: Option<(NodeRef, u64, isize)> = None;
        for lvl in 1..=self.geo.height() {
            // Lines 45–47: about to search right of the last bit — nothing
            // can be there, so sidestep to the right cousin and search all
            // of it instead.
            if offset == b as isize - 1 {
                match self.geo.right_cousin(node) {
                    Some(v) => {
                        node = v;
                        offset = -1;
                    }
                    None => {
                        // `node` is the rightmost node of its level and we
                        // came from its rightmost child: no leaf exists to
                        // the right of `p` at all. The plain algorithm
                        // would read the node and learn nothing
                        // (`HasZeroToTheRight(·, W−1)` is always false);
                        // ascend without the read. At the root this means
                        // there is no successor.
                        if lvl == self.geo.height() {
                            return FindNextResult::Bottom;
                        }
                        offset = self.geo.offset_at_parent(node) as isize;
                        node = self.geo.parent(node).expect("non-root has a parent");
                        continue;
                    }
                }
            }
            let snap = mem.read(caller, self.word(node)); // line 48
            if has_zero_to_the_right(b, snap, offset) {
                found = Some((node, snap, offset)); // line 50 (break)
                break;
            }
            // Lines 51–55: after a sidestep the parent-level search must
            // re-include this node's own subtree (offsetAtParent − 1),
            // because the Remove() that filled this node might not have
            // propagated its bit to the parent yet — this preserves the
            // crossed-paths (⊤) behaviour of the plain algorithm.
            if offset == -1 {
                offset = self.geo.offset_at_parent(node) as isize - 1;
            } else {
                offset = self.geo.offset_at_parent(node) as isize;
            }
            match self.geo.parent(node) {
                Some(par) => node = par,
                None => break, // read the root and found nothing
            }
        }
        match found {
            None => FindNextResult::Bottom,
            // Line 56: continue as in FindNext() from line 26.
            Some((node, snap, offset)) => self.descend(mem, caller, node, snap, offset),
        }
    }

    /// Lines 28–36 of Algorithm 4.1: descend from the break node toward
    /// the first non-abandoned leaf.
    fn descend<M: Mem + ?Sized>(
        &self,
        mem: &M,
        caller: Pid,
        node: NodeRef,
        snap: u64,
        offset: isize,
    ) -> FindNextResult {
        let b = self.geo.branching();
        let index = get_first_zero_to_the_right(b, snap, offset); // line 28
        if node.level == 1 {
            return FindNextResult::Next(self.geo.child_leaf(node, index));
        }
        let mut node = self.geo.child(node, index); // line 29
                                                    // Lines 30–35: read levels lvl−1 down to 1.
        loop {
            let snap = mem.read(caller, self.word(node)); // line 31
            if snap == empty_word(b) {
                return FindNextResult::Top; // lines 32–33: crossed paths
            }
            let index = get_first_zero(b, snap); // line 34
            if node.level == 1 {
                // line 36: the child is a leaf sentinel; its "value" is
                // its own id.
                return FindNextResult::Next(self.geo.child_leaf(node, index));
            }
            node = self.geo.child(node, index); // line 35
        }
    }
}

#[cfg(test)]
mod tests;
