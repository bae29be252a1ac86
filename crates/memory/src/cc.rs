//! Cache-coherent memory with exact RMR accounting (§2 of the paper) —
//! sharded, lock-free engine.
//!
//! The original implementation serialized *every* shared-memory
//! operation through one global `Mutex<CcState>`, so any instrumented
//! run on real threads was bottlenecked by the measurement substrate
//! rather than the lock under test (and a panic inside a memory op
//! poisoned the mutex, killing every later operation with an unrelated
//! `PoisonError`). This engine removes the global lock entirely while
//! producing **bit-identical accounting** (cross-validated against the
//! retained global-mutex reference `MutexCcMemory` in
//! `tests/cc_differential.rs`, and by `tests/obs_accounting.rs`):
//!
//! * **Per-word seqlock cells** ([`WordCell`], one cache line each): the
//!   word's value plus its coherence metadata (write sequence number,
//!   last writer, start of the current write run) live behind a per-word
//!   sequence word. Write-type operations take the word's private lock
//!   bit (no two words ever contend); reads are wait-free optimistic
//!   snapshots — they retry only while a write to *that word* is
//!   mid-flight, which in the cost model is precisely when the read's
//!   outcome depends on the write's linearization anyway.
//! * **Padded per-process counters** ([`PerProc`]): each process's
//!   `rmrs`/`ops` counters are relaxed atomics on their own cache line,
//!   so counting never causes cross-thread traffic of its own.
//! * **Per-(process, word) read epochs**: process `p`'s record of the
//!   word's sequence number at `p`'s last read. Only `p` itself ever
//!   consults or updates `p`'s epochs, so the table needs visibility,
//!   not mutual exclusion: small memories use a dense `AtomicU64` array
//!   per process, huge ones (million-word trees) fall back to a sparse
//!   per-process map behind an uncontended per-process mutex
//!   (poison-immune: see [`EpochTable`]).
//!
//! The coherence rule is unchanged from the mutex version: a read by
//! `p` is local iff `p` has read the word before **and** every
//! write-type operation since `p`'s last read was performed by `p`
//! itself. Tracking `(seq, last_writer, run_start)` per word makes that
//! decidable from one consistent snapshot without an `N`-bit valid-copy
//! set per word.

use crate::mem::Mem;
use crate::word::{Pid, WordId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Sentinel for "no process has performed a write-type op on this word".
const NO_WRITER: u64 = u64::MAX;

/// Epoch value for "process never read this word".
const EPOCH_NONE: u64 = u64::MAX;

/// Above this many `(process, word)` pairs the dense per-process epoch
/// arrays would dominate memory (the million-leaf tree experiments), so
/// the engine switches to sparse maps. 2²² entries = 32 MiB of epochs.
const DENSE_EPOCH_LIMIT: usize = 1 << 22;

/// How the per-(process, word) read epochs are stored.
///
/// Purely a space/speed trade-off — the accounting is identical either
/// way (asserted by the differential suite on both paths).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum EpochMode {
    /// Dense arrays when `procs × words` is small enough
    /// (≤ 2²² entries), sparse per-process maps beyond that.
    #[default]
    Auto,
    /// Force dense arrays: O(procs × words) space, O(1) epoch access.
    Dense,
    /// Force sparse maps: O(touched words) space per process, one
    /// (uncontended) per-process lock per read.
    Sparse,
}

/// Per-word coherence state, one cache line per word so distinct words
/// never share a coherence unit — mirroring the model, where each word
/// is its own cache line.
///
/// `meta` is a seqlock word: `(seq << 1) | locked`, where `seq` counts
/// write-type operations on the word. Writers hold the lock bit for the
/// few instructions of the update; readers snapshot optimistically and
/// retry on a concurrent write.
#[repr(align(64))]
struct WordCell {
    meta: AtomicU64,
    value: AtomicU64,
    /// Process that performed the most recent write-type operation
    /// ([`NO_WRITER`] initially).
    last_writer: AtomicU64,
    /// Value of `seq` just before the current run of consecutive
    /// `last_writer` writes began.
    run_start: AtomicU64,
}

impl WordCell {
    fn new(value: u64) -> Self {
        WordCell {
            meta: AtomicU64::new(0),
            value: AtomicU64::new(value),
            last_writer: AtomicU64::new(NO_WRITER),
            run_start: AtomicU64::new(0),
        }
    }

    /// Consistent snapshot of `(seq, value, last_writer, run_start)`.
    #[inline]
    fn snapshot(&self) -> (u64, u64, u64, u64) {
        loop {
            let m1 = self.meta.load(Ordering::Acquire);
            if m1 & 1 == 0 {
                let value = self.value.load(Ordering::Relaxed);
                let last_writer = self.last_writer.load(Ordering::Relaxed);
                let run_start = self.run_start.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.meta.load(Ordering::Relaxed) == m1 {
                    return (m1 >> 1, value, last_writer, run_start);
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Take the word's write lock; returns the pre-write `seq`.
    #[inline]
    fn lock(&self) -> u64 {
        let mut m = self.meta.load(Ordering::Relaxed);
        loop {
            if m & 1 == 0 {
                match self.meta.compare_exchange_weak(
                    m,
                    m | 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return m >> 1,
                    Err(cur) => m = cur,
                }
            } else {
                std::hint::spin_loop();
                m = self.meta.load(Ordering::Relaxed);
            }
        }
    }

    /// Release the write lock, publishing `seq + 1`.
    #[inline]
    fn unlock(&self, prev_seq: u64) {
        self.meta.store((prev_seq + 1) << 1, Ordering::Release);
    }
}

/// Per-process read-epoch storage. Logically owned by its process: only
/// process `p` reads or writes `p`'s table, so the dense flavour needs
/// atomics for visibility only, and the sparse flavour's mutex is never
/// contended in a well-formed run (one OS thread per process).
///
/// The sparse lock deliberately shrugs off poisoning
/// (`unwrap_or_else(PoisonError::into_inner)`): an epoch table is a
/// plain map with no invariants spanning the critical section, so a
/// panic unwinding through a read must not take the whole instrumented
/// memory down with it.
enum EpochTable {
    Dense(Vec<AtomicU64>),
    Sparse(Mutex<HashMap<u32, u64>>),
}

impl EpochTable {
    fn new(nwords: usize, dense: bool) -> Self {
        if dense {
            EpochTable::Dense((0..nwords).map(|_| AtomicU64::new(EPOCH_NONE)).collect())
        } else {
            EpochTable::Sparse(Mutex::new(HashMap::new()))
        }
    }

    #[inline]
    fn get(&self, w: usize) -> Option<u64> {
        match self {
            EpochTable::Dense(v) => {
                let e = v[w].load(Ordering::Relaxed);
                (e != EPOCH_NONE).then_some(e)
            }
            EpochTable::Sparse(m) => m
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&(w as u32))
                .copied(),
        }
    }

    #[inline]
    fn set(&self, w: usize, epoch: u64) {
        match self {
            EpochTable::Dense(v) => v[w].store(epoch, Ordering::Relaxed),
            EpochTable::Sparse(m) => {
                m.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(w as u32, epoch);
            }
        }
    }
}

/// One process's slice of the accounting state, padded to a cache line
/// so counter updates by different processes never false-share.
#[repr(align(128))]
struct PerProc {
    rmrs: AtomicU64,
    ops: AtomicU64,
    epochs: EpochTable,
}

/// Shared memory implementing the paper's cache-coherent (CC) cost model
/// *exactly*:
///
/// * every `write`, `cas` (successful or not), `faa` and `swap` costs the
///   caller one RMR and invalidates every other process's cached copy;
/// * a `read` by `p` costs one RMR iff it is `p`'s first read of the word,
///   or another process performed a write-type operation on the word after
///   `p`'s last read of it. Otherwise the read is local and free.
///
/// A failed `cas` is treated as a write-type operation for invalidation
/// purposes, following the letter of the model ("another process performed
/// a write, CAS, or F&A to `w`") and the behaviour of real read-for-
/// ownership coherence protocols.
///
/// The memory is per-word linearizable — reads linearize at their seqlock
/// snapshot, write-type operations while holding the word's lock bit —
/// and the accounting is exact for *every* linearization, so counting
/// stays exact when driven by free-running threads (each process on one
/// thread, the model's setup). Unlike its predecessor there is no global
/// lock: operations on distinct words never contend, and the substrate
/// scales with threads instead of serializing them (see the retained
/// global-mutex reference `MutexCcMemory` in `tests/cc_differential.rs`,
/// which it is differentially tested against).
pub struct CcMemory {
    words: Vec<WordCell>,
    procs: Vec<PerProc>,
}

impl fmt::Debug for CcMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CcMemory")
            .field("nwords", &self.words.len())
            .field("nprocs", &self.procs.len())
            .finish()
    }
}

impl CcMemory {
    pub(crate) fn new(inits: Vec<u64>, nprocs: usize) -> Self {
        Self::with_epoch_mode(inits, nprocs, EpochMode::Auto)
    }

    pub(crate) fn with_epoch_mode(inits: Vec<u64>, nprocs: usize, mode: EpochMode) -> Self {
        let nwords = inits.len();
        let dense = match mode {
            EpochMode::Dense => true,
            EpochMode::Sparse => false,
            EpochMode::Auto => nwords.saturating_mul(nprocs) <= DENSE_EPOCH_LIMIT,
        };
        CcMemory {
            words: inits.into_iter().map(WordCell::new).collect(),
            procs: (0..nprocs)
                .map(|_| PerProc {
                    rmrs: AtomicU64::new(0),
                    ops: AtomicU64::new(0),
                    epochs: EpochTable::new(nwords, dense),
                })
                .collect(),
        }
    }

    /// Whether the per-process read epochs are stored densely (an
    /// `AtomicU64` per word) or sparsely (a map of touched words).
    pub fn dense_epochs(&self) -> bool {
        matches!(
            self.procs.first().map(|p| &p.epochs),
            Some(EpochTable::Dense(_)) | None
        )
    }

    /// Reset all RMR and operation counters (values and coherence state are
    /// left untouched). Useful between warm-up and measurement phases.
    /// Call it while the memory is quiescent; concurrent operations land
    /// on one side or the other of the reset, per counter.
    pub fn reset_counters(&self) {
        for proc in &self.procs {
            proc.rmrs.store(0, Ordering::Relaxed);
            proc.ops.store(0, Ordering::Relaxed);
        }
    }

    #[inline]
    fn write_type(&self, p: Pid, w: WordId, f: impl FnOnce(u64) -> (u64, u64)) -> u64 {
        let proc = &self.procs[p];
        proc.ops.fetch_add(1, Ordering::Relaxed);
        proc.rmrs.fetch_add(1, Ordering::Relaxed);
        let cell = &self.words[w.index()];
        let prev_seq = cell.lock();
        if cell.last_writer.load(Ordering::Relaxed) != p as u64 {
            cell.last_writer.store(p as u64, Ordering::Relaxed);
            cell.run_start.store(prev_seq, Ordering::Relaxed);
        }
        // No user code runs while the word lock is held (the closures
        // below are pure arithmetic), so the lock bit can never be
        // leaked by a panic.
        let (new_value, result) = f(cell.value.load(Ordering::Relaxed));
        cell.value.store(new_value, Ordering::Relaxed);
        cell.unlock(prev_seq);
        result
    }
}

impl Mem for CcMemory {
    fn read(&self, p: Pid, w: WordId) -> u64 {
        let (seq, value, last_writer, run_start) = self.words[w.index()].snapshot();
        let proc = &self.procs[p];
        proc.ops.fetch_add(1, Ordering::Relaxed);
        let local = match proc.epochs.get(w.index()) {
            // Cached and no write since, or every write since was ours.
            Some(r) => r == seq || (last_writer == p as u64 && r >= run_start),
            None => false, // first read of w by p
        };
        if !local {
            proc.rmrs.fetch_add(1, Ordering::Relaxed);
        }
        proc.epochs.set(w.index(), seq);
        value
    }

    fn write(&self, p: Pid, w: WordId, v: u64) {
        self.write_type(p, w, |_| (v, 0));
    }

    fn cas(&self, p: Pid, w: WordId, old: u64, new: u64) -> bool {
        self.write_type(p, w, |cur| if cur == old { (new, 1) } else { (cur, 0) }) == 1
    }

    fn faa(&self, p: Pid, w: WordId, add: u64) -> u64 {
        self.write_type(p, w, |cur| (cur.wrapping_add(add), cur))
    }

    fn swap(&self, p: Pid, w: WordId, v: u64) -> u64 {
        self.write_type(p, w, |cur| (v, cur))
    }

    fn rmrs(&self, p: Pid) -> u64 {
        self.procs[p].rmrs.load(Ordering::Relaxed)
    }

    fn total_rmrs(&self) -> u64 {
        self.procs
            .iter()
            .map(|proc| proc.rmrs.load(Ordering::Relaxed))
            .sum()
    }

    fn ops(&self, p: Pid) -> u64 {
        self.procs[p].ops.load(Ordering::Relaxed)
    }

    fn num_words(&self) -> usize {
        self.words.len()
    }

    fn num_procs(&self) -> usize {
        self.procs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBuilder;

    fn mem(nwords: usize, nprocs: usize) -> (CcMemory, Vec<WordId>) {
        let mut b = MemoryBuilder::new();
        let ws: Vec<_> = (0..nwords).map(|_| b.alloc(0)).collect();
        (b.build_cc(nprocs), ws)
    }

    #[test]
    fn first_read_is_remote_subsequent_reads_are_local() {
        let (m, ws) = mem(1, 1);
        m.read(0, ws[0]);
        assert_eq!(m.rmrs(0), 1);
        for _ in 0..10 {
            m.read(0, ws[0]);
        }
        assert_eq!(m.rmrs(0), 1);
        assert_eq!(m.ops(0), 11);
    }

    #[test]
    fn every_write_type_op_costs_one_rmr() {
        let (m, ws) = mem(1, 1);
        m.write(0, ws[0], 1);
        m.faa(0, ws[0], 1);
        m.swap(0, ws[0], 5);
        assert!(m.cas(0, ws[0], 5, 6));
        assert!(!m.cas(0, ws[0], 99, 7)); // failed CAS still costs an RMR
        assert_eq!(m.rmrs(0), 5);
    }

    #[test]
    fn foreign_write_invalidates_cached_copy() {
        let (m, ws) = mem(1, 2);
        m.read(0, ws[0]); // 1 RMR (first read)
        m.read(0, ws[0]); // local
        m.write(1, ws[0], 7); // p1: 1 RMR, invalidates p0's copy
        m.read(0, ws[0]); // 1 RMR again
        assert_eq!(m.rmrs(0), 2);
        assert_eq!(m.rmrs(1), 1);
    }

    #[test]
    fn own_writes_do_not_invalidate_own_copy() {
        let (m, ws) = mem(1, 2);
        m.read(0, ws[0]); // RMR
        m.write(0, ws[0], 1); // RMR (write-type)
        m.write(0, ws[0], 2); // RMR
        m.read(0, ws[0]); // local: all writes since last read were ours
        assert_eq!(m.rmrs(0), 3);
    }

    #[test]
    fn interleaved_foreign_write_inside_own_run_invalidates() {
        let (m, ws) = mem(1, 2);
        m.read(0, ws[0]); // p0 RMR
        m.write(1, ws[0], 1); // p1 writes
        m.write(0, ws[0], 2); // p0 writes (starts its own run)
                              // p1's write happened after p0's last read, even though the *most
                              // recent* writer is p0 — the read must be remote.
        m.read(0, ws[0]);
        assert_eq!(m.rmrs(0), 3);
    }

    #[test]
    fn spinning_on_an_unchanged_word_is_free() {
        let (m, ws) = mem(1, 2);
        m.read(1, ws[0]); // bring into cache: 1 RMR
        for _ in 0..1000 {
            assert_eq!(m.read(1, ws[0]), 0);
        }
        assert_eq!(m.rmrs(1), 1);
        m.write(0, ws[0], 1); // the handoff
        assert_eq!(m.read(1, ws[0]), 1); // one more RMR
        assert_eq!(m.rmrs(1), 2);
    }

    #[test]
    fn failed_cas_invalidates_other_readers() {
        let (m, ws) = mem(1, 2);
        m.read(0, ws[0]);
        assert!(!m.cas(1, ws[0], 42, 43));
        m.read(0, ws[0]); // invalidated by p1's (failed) CAS
        assert_eq!(m.rmrs(0), 2);
    }

    #[test]
    fn faa_wraps_and_returns_previous() {
        let (m, ws) = mem(1, 1);
        assert_eq!(m.faa(0, ws[0], 5), 0);
        assert_eq!(m.faa(0, ws[0], 1u64.wrapping_neg()), 5);
        assert_eq!(m.read(0, ws[0]), 4);
    }

    #[test]
    fn swap_returns_previous_value() {
        let (m, ws) = mem(1, 1);
        m.write(0, ws[0], 3);
        assert_eq!(m.swap(0, ws[0], 9), 3);
        assert_eq!(m.read(0, ws[0]), 9);
    }

    #[test]
    fn counters_reset_but_values_survive() {
        let (m, ws) = mem(1, 1);
        m.write(0, ws[0], 11);
        m.reset_counters();
        assert_eq!(m.rmrs(0), 0);
        assert_eq!(m.ops(0), 0);
        assert_eq!(m.read(0, ws[0]), 11);
    }

    #[test]
    fn total_rmrs_sums_over_processes() {
        let (m, ws) = mem(2, 3);
        m.write(0, ws[0], 1);
        m.write(1, ws[1], 1);
        m.read(2, ws[0]);
        assert_eq!(m.total_rmrs(), 3);
    }

    #[test]
    fn words_are_independent_coherence_units() {
        let (m, ws) = mem(2, 2);
        m.read(0, ws[0]);
        m.read(0, ws[1]);
        m.write(1, ws[1], 5); // invalidates only ws[1]
        m.read(0, ws[0]); // still cached
        assert_eq!(m.rmrs(0), 2);
        m.read(0, ws[1]); // invalidated
        assert_eq!(m.rmrs(0), 3);
    }

    #[test]
    fn concurrent_threads_count_exactly() {
        use std::sync::Arc;
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let m = Arc::new(b.build_cc(4));
        let handles: Vec<_> = (0..4)
            .map(|p| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.faa(p, w, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.read(0, w), 4000);
        // Each F&A is exactly one RMR.
        assert_eq!(m.total_rmrs(), 4000 + 1 /* the read above */);
    }

    #[test]
    fn word_cells_are_cache_line_sized() {
        assert_eq!(std::mem::size_of::<WordCell>(), 64);
        assert_eq!(std::mem::align_of::<WordCell>(), 64);
        assert!(std::mem::align_of::<PerProc>() >= 128);
    }

    #[test]
    fn sparse_and_dense_epoch_modes_account_identically() {
        for mode in [EpochMode::Dense, EpochMode::Sparse] {
            let m = CcMemory::with_epoch_mode(vec![0, 0], 2, mode);
            assert_eq!(m.dense_epochs(), mode == EpochMode::Dense);
            let (a, b) = (WordId::from_index(0), WordId::from_index(1));
            m.read(0, a); // remote
            m.read(0, a); // local
            m.write(1, a, 3); // remote, invalidates
            m.read(0, a); // remote
            m.read(0, b); // remote (first touch)
            assert_eq!(m.rmrs(0), 3, "{mode:?}");
            assert_eq!(m.rmrs(1), 1, "{mode:?}");
        }
    }

    #[test]
    fn panicking_operation_does_not_poison_the_memory() {
        // Out-of-bounds word ids panic (as they must), but the engine
        // has no global lock to poison: the memory stays fully usable —
        // the regression the lock-free rewrite fixes.
        let (m, ws) = mem(1, 2);
        m.write(0, ws[0], 7);
        let bogus = WordId::from_index(999);
        for op in 0..3 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match op {
                0 => {
                    m.read(1, bogus);
                }
                1 => m.write(1, bogus, 1),
                _ => {
                    m.faa(1, bogus, 1);
                }
            }));
            assert!(r.is_err(), "out-of-bounds access must panic");
        }
        // Every later operation still works and counts exactly.
        assert_eq!(m.read(0, ws[0]), 7);
        assert_eq!(m.rmrs(0), 2);
        m.write(1, ws[0], 8);
        assert_eq!(m.read(1, ws[0]), 8);
    }
}
