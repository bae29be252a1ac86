//! Uninstrumented memory over real atomics.

use crate::builder::WordArray;
use crate::mem::Mem;
use crate::word::{Pid, WordId};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words on one 64-byte cache line.
pub(crate) const WORDS_PER_LINE: usize = 8;

/// One cache line of words.
#[repr(align(64))]
struct Line([AtomicU64; WORDS_PER_LINE]);

/// Shared memory over real `AtomicU64`s with **no accounting**: the fast
/// path used by `sal-sync` to run the identical algorithm code on real
/// threads.
///
/// All operations use sequentially consistent ordering; the paper's model
/// (like essentially all of the mutual-exclusion literature) assumes
/// sequential consistency, and the algorithms are not proven for weaker
/// orderings.
///
/// Words hinted together by [`MemoryBuilder::share_lines`] share one
/// cache line of their own (the lazily reset words of the long-lived
/// lock: a word's version descriptor and its two incarnations); every
/// other word has a line of its own, so unrelated words never exhibit
/// false sharing.
///
/// RMR and op counters always read 0 — use [`CcMemory`] or [`DsmMemory`]
/// when measuring.
///
/// [`CcMemory`]: crate::CcMemory
/// [`DsmMemory`]: crate::DsmMemory
/// [`MemoryBuilder::share_lines`]: crate::MemoryBuilder::share_lines
pub struct RawMemory {
    lines: Box<[Line]>,
    /// Each word's place, `line * WORDS_PER_LINE + offset`.
    slots: Box<[u32]>,
    nprocs: usize,
}

impl fmt::Debug for RawMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawMemory")
            .field("nwords", &self.slots.len())
            .field("nlines", &self.lines.len())
            .field("nprocs", &self.nprocs)
            .finish()
    }
}

impl RawMemory {
    /// Place the words (initial values `inits`): each group of a
    /// [`share_lines`] hint on a line of its own, in hint order, then
    /// every word left over on a line of its own.
    ///
    /// [`share_lines`]: crate::MemoryBuilder::share_lines
    pub(crate) fn new(inits: Vec<u64>, hints: &[Box<[WordArray]>], nprocs: usize) -> Self {
        const UNPLACED: u32 = u32::MAX;
        let mut slots = vec![UNPLACED; inits.len()].into_boxed_slice();
        let mut nlines = 0;
        for arrays in hints {
            // The `i`-th words of the arrays fill line `nlines + i`.
            for (offset, array) in arrays.iter().enumerate() {
                for (i, w) in array.iter().enumerate() {
                    let slot = &mut slots[w.index()];
                    assert_eq!(*slot, UNPLACED, "word {} already shares a line", w.0);
                    *slot = ((nlines + i) * WORDS_PER_LINE + offset) as u32;
                }
            }
            nlines += arrays[0].len();
        }
        for slot in slots.iter_mut().filter(|s| **s == UNPLACED) {
            *slot = (nlines * WORDS_PER_LINE) as u32;
            nlines += 1;
        }
        // The last line's place fits, so every earlier one did.
        assert!(
            u32::try_from(nlines * WORDS_PER_LINE).is_ok(),
            "too many cache lines"
        );
        let mut lines: Box<[Line]> = (0..nlines).map(|_| Line(Default::default())).collect();
        for (&slot, init) in slots.iter().zip(inits) {
            let slot = slot as usize;
            *lines[slot / WORDS_PER_LINE].0[slot % WORDS_PER_LINE].get_mut() = init;
        }
        RawMemory {
            lines,
            slots,
            nprocs,
        }
    }

    #[inline]
    fn word(&self, w: WordId) -> &AtomicU64 {
        let slot = self.slots[w.index()] as usize;
        &self.lines[slot / WORDS_PER_LINE].0[slot % WORDS_PER_LINE]
    }

    /// The 64-byte cache line holding `w`, as its address divided by 64:
    /// two words share a line iff their values are equal.
    pub fn cache_line(&self, w: WordId) -> usize {
        std::ptr::from_ref(self.word(w)) as usize / 64
    }
}

impl Mem for RawMemory {
    #[inline]
    fn read(&self, _p: Pid, w: WordId) -> u64 {
        self.word(w).load(Ordering::SeqCst)
    }

    #[inline]
    fn write(&self, _p: Pid, w: WordId, v: u64) {
        self.word(w).store(v, Ordering::SeqCst);
    }

    #[inline]
    fn cas(&self, _p: Pid, w: WordId, old: u64, new: u64) -> bool {
        self.word(w)
            .compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    #[inline]
    fn faa(&self, _p: Pid, w: WordId, add: u64) -> u64 {
        self.word(w).fetch_add(add, Ordering::SeqCst)
    }

    #[inline]
    fn swap(&self, _p: Pid, w: WordId, v: u64) -> u64 {
        self.word(w).swap(v, Ordering::SeqCst)
    }

    fn rmrs(&self, _p: Pid) -> u64 {
        0
    }

    fn total_rmrs(&self) -> u64 {
        0
    }

    fn ops(&self, _p: Pid) -> u64 {
        0
    }

    fn num_words(&self) -> usize {
        self.slots.len()
    }

    fn num_procs(&self) -> usize {
        self.nprocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryBuilder;
    use std::sync::Arc;

    #[test]
    fn words_live_on_distinct_cache_lines() {
        assert_eq!(std::mem::size_of::<Line>(), 64);
        assert_eq!(std::mem::align_of::<Line>(), 64);
        let mut b = MemoryBuilder::new();
        let solo = b.alloc(1);
        let x = b.alloc_array(2, 2);
        let arr = b.alloc_array(3, 3);
        let y = b.alloc_array_with(2, |i| (0, 10 + i as u64));
        let z = b.alloc_array(2, 4);
        b.share_lines(&[x, y, z]);
        let words = b.words_allocated();
        let m = b.build_raw(1);
        assert_eq!(m.num_words(), words, "hints allocate no word");
        let line = |w| m.cache_line(w);
        for i in 0..2 {
            assert_eq!(
                (line(y.at(i)), line(z.at(i))),
                (line(x.at(i)), line(x.at(i)))
            );
        }
        // No two ungrouped words, and no two groups, share a line.
        let mut lines: Vec<usize> = [solo, x.at(0), x.at(1)]
            .into_iter()
            .chain(arr.iter())
            .map(line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 6);
        // Placement moves no initial value.
        assert_eq!(m.read(0, solo), 1);
        assert!(arr.iter().all(|w| m.read(0, w) == 3));
        assert_eq!([m.read(0, y.at(0)), m.read(0, y.at(1))], [10, 11]);
        assert_eq!([m.read(0, x.at(1)), m.read(0, z.at(1))], [2, 4]);
    }

    #[test]
    #[should_panic(expected = "already shares a line")]
    fn a_word_joins_one_line_group() {
        let mut b = MemoryBuilder::new();
        let a = b.alloc_array(2, 0);
        let c = b.alloc_array(2, 0);
        b.share_lines(&[a, c]);
        b.share_lines(&[c, a]);
        b.build_raw(1);
    }

    #[test]
    #[should_panic(expected = "a hint names one to eight arrays")]
    fn a_line_group_fits_one_line() {
        let mut b = MemoryBuilder::new();
        let a = b.alloc_array(1, 0);
        b.share_lines(&[a; WORDS_PER_LINE + 1]);
    }

    #[test]
    fn primitive_semantics() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(1);
        let m = b.build_raw(1);
        assert_eq!(m.read(0, w), 1);
        assert_eq!(m.faa(0, w, 2), 1);
        assert!(m.cas(0, w, 3, 4));
        assert!(!m.cas(0, w, 3, 5));
        assert_eq!(m.swap(0, w, 6), 4);
        m.write(0, w, 7);
        assert_eq!(m.read(0, w), 7);
        assert_eq!(m.rmrs(0), 0);
        assert_eq!(m.total_rmrs(), 0);
    }

    #[test]
    fn faa_is_atomic_under_real_contention() {
        let mut b = MemoryBuilder::new();
        let w = b.alloc(0);
        let m = Arc::new(b.build_raw(8));
        let handles: Vec<_> = (0..8)
            .map(|p| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.faa(p, w, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.read(0, w), 80_000);
    }
}
