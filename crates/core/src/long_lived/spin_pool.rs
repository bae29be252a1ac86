//! Spin-node pools with safe, RMR-cheap reclamation (§6.2).
//!
//! A spin node may be busy-waited on by a process even after `LockDesc`
//! stopped pointing to it, so nodes can only be recycled once no process
//! spins on them. The paper uses the scheme of Aghazadeh, Golab & Woelfel
//! (PODC'13), whose full pseudo-code is not reproduced in the paper; we
//! implement a scheme in its spirit with the same structure — per-process
//! pools of `N + 1` nodes and an announce array — and the following cost
//! profile: `O(1)` *amortized* RMRs per retire/allocate via incremental
//! scanning, with an `O(N)` worst-case fallback scan when the free list
//! is empty (the paper's scheme is `O(1)` worst-case). Safety is
//! identical: a node is reclaimed only after a full announce-array scan,
//! performed entirely after the node's retirement, observed no process
//! announcing it.
//!
//! Protocol (hazard-pointer-style):
//!
//! * A process that wants to spin on node `s` first *announces* it
//!   (`announce[p] = s + 1`), then re-validates that `LockDesc` still
//!   carries `s`'s epoch; only then does it spin. Because a node is
//!   retired only after the descriptor switched away from it, a
//!   validated announcement is always visible to every scan that could
//!   reclaim the node.
//! * The retirer enqueues the node; scans (incremental on every
//!   [`SpinNodePool::retire`]/[`SpinNodePool::allocate`], full on demand)
//!   walk the announce array and move un-announced nodes to the free
//!   list, resetting their `go` word.

use sal_memory::{Mem, MemoryBuilder, Pid, WordArray};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// How many announce slots each incremental scan step inspects.
const SCAN_STRIDE: usize = 4;

/// [`PoolLocal::scan`] when no incremental scan is in flight.
const NO_SCAN: u64 = u64::MAX;

/// A fixed-capacity deque of node ids, written only by the process that
/// owns it (see [`PoolLocal`]).
#[derive(Debug)]
struct Ring {
    ids: Box<[AtomicU32]>,
    head: AtomicUsize,
    len: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let ring = Ring {
            ids: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            head: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
        };
        ids.into_iter().for_each(|s| ring.push_back(s));
        ring
    }

    fn len(&self) -> usize {
        self.len.load(Relaxed)
    }

    /// The slot `k < capacity` places after the head.
    fn at(&self, k: usize) -> &AtomicU32 {
        &self.ids[self.wrap(self.head.load(Relaxed) + k)]
    }

    /// `i % capacity` for `i < 2 · capacity`, without a division.
    fn wrap(&self, i: usize) -> usize {
        i.checked_sub(self.ids.len()).unwrap_or(i)
    }

    fn push_back(&self, s: u32) {
        let len = self.len();
        assert!(len < self.ids.len(), "spin-node queue overflow");
        self.at(len).store(s, Relaxed);
        self.len.store(len + 1, Relaxed);
    }

    fn pop_back(&self) -> Option<u32> {
        let len = self.len().checked_sub(1)?;
        self.len.store(len, Relaxed);
        Some(self.at(len).load(Relaxed))
    }

    fn pop_front(&self) -> Option<u32> {
        let len = self.len().checked_sub(1)?;
        let s = self.at(0).load(Relaxed);
        self.head
            .store(self.wrap(self.head.load(Relaxed) + 1), Relaxed);
        self.len.store(len, Relaxed);
        Some(s)
    }
}

/// Per-process bookkeeping (process-private: costs no RMRs), on cache
/// lines of its own. Only the owning process writes it, and a pid's
/// operations are ordered by happens-before (one thread at a time, handed
/// over through synchronizing operations), so `Relaxed` loads and stores
/// suffice and no operation takes a lock. Each queue holds at most the
/// `n + 1` nodes the process started with: a process retires a node only
/// after a switch that installed one it allocated.
#[derive(Debug)]
#[repr(align(128))]
struct PoolLocal {
    /// Verified-free node indices owned by this process (a stack).
    free: Ring,
    /// Retired nodes awaiting a clean scan (a FIFO queue).
    retired: Ring,
    /// Incremental scan state: the node being verified and the next
    /// announce slot to inspect, packed by [`PoolLocal::set_scan`].
    scan: AtomicU64,
}

impl PoolLocal {
    fn take_scan(&self) -> Option<(u32, usize)> {
        let packed = self.scan.load(Relaxed);
        self.scan.store(NO_SCAN, Relaxed);
        (packed != NO_SCAN).then_some(((packed >> 32) as u32, packed as u32 as usize))
    }

    fn set_scan(&self, s: u32, next: usize) {
        self.scan.store(u64::from(s) << 32 | next as u64, Relaxed);
    }
}

/// Pools of one-word spin nodes for `n` processes, `n + 1` nodes each,
/// plus the genesis node (index 0) installed in the initial `LockDesc`.
#[derive(Debug)]
pub struct SpinNodePool {
    /// `go` word of every node; index = node id.
    nodes: WordArray,
    /// `announce[p] = s + 1` ⇔ process `p` may be spinning on node `s`.
    announce: WordArray,
    locals: Vec<PoolLocal>,
    n: usize,
}

impl SpinNodePool {
    /// Lay out pools for `n` processes: `n(n+1) + 1` node words and `n`
    /// announce words — the `O(N²)` component of the final space bound.
    pub fn layout(b: &mut MemoryBuilder, n: usize) -> Self {
        let nodes = b.alloc_array(n * (n + 1) + 1, 0);
        let announce = b.alloc_array(n, 0);
        let locals = (0..n)
            .map(|p| {
                let base = 1 + p as u32 * (n as u32 + 1);
                PoolLocal {
                    free: Ring::new(n + 1, base..base + n as u32 + 1),
                    retired: Ring::new(n + 1, []),
                    scan: AtomicU64::new(NO_SCAN),
                }
            })
            .collect();
        SpinNodePool {
            nodes,
            announce,
            locals,
            n,
        }
    }

    /// The `go` word of node `s`.
    pub fn go_word(&self, s: u32) -> sal_memory::WordId {
        self.nodes.at(s as usize)
    }

    /// Announce that process `p` is about to spin on node `s`. The caller
    /// **must** re-validate its reason for spinning (re-read `LockDesc`)
    /// after this call and before actually spinning, and must call
    /// [`clear_announce`](Self::clear_announce) when done.
    pub fn announce<M: Mem + ?Sized>(&self, mem: &M, p: Pid, s: u32) {
        mem.write(p, self.announce.at(p), u64::from(s) + 1);
    }

    /// Withdraw process `p`'s announcement.
    pub fn clear_announce<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        mem.write(p, self.announce.at(p), 0);
    }

    /// Retire node `s`: it will be reclaimed into process `p`'s pool once
    /// a clean scan proves no process spins on it. Performs `O(1)` scan
    /// work.
    pub fn retire<M: Mem + ?Sized>(&self, mem: &M, p: Pid, s: u32) {
        let local = &self.locals[p];
        local.retired.push_back(s);
        self.advance_scan(mem, p, local);
    }

    /// Take a node off process `p`'s free list without any scan work or
    /// shared-memory operation, if it has one. A free node's `go` word is
    /// 0 (it was reset when the node was reclaimed, or never set), so the
    /// node is ready to install — which is how a lock takes its first
    /// node at layout.
    pub fn take_free(&self, p: Pid) -> Option<u32> {
        self.locals[p].free.pop_back()
    }

    /// Allocate a node from process `p`'s pool, with its `go` word reset
    /// to 0. Performs `O(1)` amortized scan work; falls back to a full
    /// `O(N)` scan of the retired queue when the free list is empty.
    ///
    /// The fallback always finds a node when `p` uses the pool as the
    /// bounded lock does. `p` took one of its `N + 1` nodes at layout
    /// ([`take_free`](Self::take_free)) and holds one node in reserve
    /// from then on: it allocates right after a switch that installed
    /// its reserve, and before it retires the node that switch replaced.
    /// So at this call `p` owns `N` nodes besides the installed one, all
    /// free or retired here. A retired node is held back only while it is
    /// announced, and each of the other `N − 1` processes announces at
    /// most one node (`p` itself announces none during a `Cleanup`): at
    /// most `N − 1` of the `N` are pinned.
    ///
    /// # Panics
    ///
    /// Panics if the pool invariant is violated (more nodes pinned than
    /// processes exist) — indicates protocol misuse.
    pub fn allocate<M: Mem + ?Sized>(&self, mem: &M, p: Pid) -> u32 {
        let local = &self.locals[p];
        self.advance_scan(mem, p, local);
        if let Some(s) = local.free.pop_back() {
            return s;
        }
        // Fallback: full scans over the retired queue. A node under an
        // incremental scan is out of the queue, so the scan is abandoned
        // and its node queued last: the counting argument above needs
        // every node `p` owns among the candidates.
        if let Some((s, _)) = local.take_scan() {
            local.retired.push_back(s);
        }
        let candidates = local.retired.len();
        for _ in 0..candidates {
            let s = local.retired.pop_front().expect("non-empty");
            if self.full_scan_clean(mem, p, s) {
                mem.write(p, self.nodes.at(s as usize), 0); // reset go
                return s;
            }
            local.retired.push_back(s);
        }
        panic!(
            "spin-node pool of process {p} exhausted: {candidates} retired nodes all pinned \
             — protocol violation (a process must announce at most one node)"
        );
    }

    /// One increment of background scanning: verify up to [`SCAN_STRIDE`]
    /// announce slots of the node at the head of the retired queue.
    fn advance_scan<M: Mem + ?Sized>(&self, mem: &M, p: Pid, local: &PoolLocal) {
        let (s, mut next) = match local.take_scan() {
            Some(state) => state,
            None => match local.retired.pop_front() {
                Some(s) => (s, 0),
                None => return,
            },
        };
        for _ in 0..SCAN_STRIDE {
            if next >= self.n {
                // Clean scan completed: reclaim.
                mem.write(p, self.nodes.at(s as usize), 0);
                local.free.push_back(s);
                return;
            }
            if mem.read(p, self.announce.at(next)) == u64::from(s) + 1 {
                // Pinned: requeue and restart the scan later from slot 0
                // (announcements can move between slots over time only by
                // being dropped and re-made, so a later full pass is
                // still sound).
                local.retired.push_back(s);
                return;
            }
            next += 1;
        }
        if next >= self.n {
            mem.write(p, self.nodes.at(s as usize), 0);
            local.free.push_back(s);
        } else {
            local.set_scan(s, next);
        }
    }

    /// Scan every announce slot for node `s`; `true` if nobody announces
    /// it.
    fn full_scan_clean<M: Mem + ?Sized>(&self, mem: &M, p: Pid, s: u32) -> bool {
        (0..self.n).all(|q| mem.read(p, self.announce.at(q)) != u64::from(s) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::Mem;

    #[test]
    fn per_pid_slots_live_on_cache_lines_of_their_own() {
        assert!(std::mem::align_of::<PoolLocal>() >= 128);
    }

    fn pool(n: usize) -> (SpinNodePool, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let pool = SpinNodePool::layout(&mut b, n);
        (pool, b.build_cc(n))
    }

    #[test]
    fn pool_sizes_are_quadratic() {
        let (pool, _) = pool(8);
        assert_eq!(pool.nodes.len(), 8 * 9 + 1);
    }

    #[test]
    fn allocate_retire_cycle_recycles_nodes() {
        let (pool, mem) = pool(2);
        let mut seen = std::collections::HashSet::new();
        // Each process owns 3 nodes; cycling allocate→retire many times
        // must keep succeeding (reclamation works) and stay within the
        // owned id range.
        for _ in 0..20 {
            let s = pool.allocate(&mem, 0);
            seen.insert(s);
            assert!((1..=3).contains(&s), "node {s} outside p0's pool");
            // Simulate an install/switch: go gets set, node retired.
            mem.write(0, pool.go_word(s), 1);
            pool.retire(&mem, 0, s);
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn allocated_nodes_have_reset_go() {
        let (pool, mem) = pool(1);
        for _ in 0..6 {
            let s = pool.allocate(&mem, 0);
            assert_eq!(mem.read(0, pool.go_word(s)), 0);
            mem.write(0, pool.go_word(s), 1);
            pool.retire(&mem, 0, s);
        }
    }

    #[test]
    fn announced_nodes_are_not_reclaimed() {
        let (pool, mem) = pool(2);
        let s = pool.allocate(&mem, 0);
        mem.write(0, pool.go_word(s), 1);
        // Process 1 announces s (as if about to spin on it).
        pool.announce(&mem, 1, s);
        pool.retire(&mem, 0, s);
        // Drain p0's free list; s must never be handed back while pinned.
        let mut handed = Vec::new();
        for _ in 0..2 {
            // p0 started with 3 nodes, one (s) is retired+pinned.
            let t = pool.allocate(&mem, 0);
            assert_ne!(t, s, "pinned node was reclaimed");
            handed.push(t);
        }
        // Un-pin and verify s becomes allocatable again.
        pool.clear_announce(&mem, 1);
        let t = pool.allocate(&mem, 0);
        assert_eq!(t, s);
        assert_eq!(mem.read(0, pool.go_word(t)), 0, "go reset on reclaim");
        let _ = handed;
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn all_pinned_pool_panics_cleanly() {
        // 1 process, 2 nodes. Pin both (protocol violation: one process
        // announcing two nodes is impossible in the real protocol, we
        // fake it by never clearing) and exhaust.
        let (pool, mem) = pool(1);
        let a = pool.allocate(&mem, 0);
        let b = pool.allocate(&mem, 0);
        pool.announce(&mem, 0, a);
        pool.retire(&mem, 0, a);
        // Announce can only hold one value; move it to b after retiring a
        // — but allocate scans fresh, so pin b via the single slot and
        // retire it too, then re-pin a... With one slot we can only pin
        // one node, so instead never retire b at all: free list empty,
        // retired = [a] pinned → exhausted.
        let _ = b;
        let _ = pool.allocate(&mem, 0);
    }

    #[test]
    fn incremental_scan_reclaims_without_full_fallback() {
        let (pool, mem) = pool(4);
        // Retire a node, then look for it on the free list, which only
        // the incremental scans fill.
        let s = pool.allocate(&mem, 0);
        mem.write(0, pool.go_word(s), 1);
        pool.retire(&mem, 0, s);
        // Each advance covers SCAN_STRIDE = 4 announce slots, so for
        // n = 4 the retire above already completed a clean pass and s is
        // back on the free list with go reset — no fallback scans needed.
        let mut got = false;
        while let Some(u) = pool.take_free(0) {
            if u == s {
                got = true;
                break;
            }
        }
        assert!(got, "retired node was never reclaimed");
        assert_eq!(mem.read(0, pool.go_word(s)), 0, "go reset on reclaim");
    }

    #[test]
    fn take_free_pops_the_free_list_without_memory_operations() {
        let (pool, mem) = pool(1);
        let ops = mem.ops(0);
        let taken: Vec<u32> = std::iter::from_fn(|| pool.take_free(0)).collect();
        assert_eq!(taken, [2, 1], "a fresh pool's two nodes, last first");
        assert_eq!(mem.ops(0), ops, "taking a free node touches no word");
        // With the free list empty, allocate reclaims a retired node.
        mem.write(0, pool.go_word(1), 1);
        pool.retire(&mem, 0, 1);
        assert_eq!(pool.allocate(&mem, 0), 1);
        assert_eq!(mem.read(0, pool.go_word(1)), 0, "go reset on reclaim");
    }

    #[test]
    fn the_fallback_reclaims_a_node_under_an_incremental_scan() {
        // n = 6 takes two scan steps per node. With the free list empty,
        // p0 retires a node p1 pins, then a clean one; allocate's scan
        // step starts on the clean node and leaves it mid-scan, and the
        // fallback must still find it.
        let (pool, mem) = pool(6);
        let nodes: Vec<u32> = std::iter::from_fn(|| pool.take_free(0)).collect();
        let (clean, pinned) = (nodes[0], nodes[1]);
        pool.announce(&mem, 1, pinned);
        pool.retire(&mem, 0, pinned);
        pool.retire(&mem, 0, clean);
        assert_eq!(pool.allocate(&mem, 0), clean);
    }
}
