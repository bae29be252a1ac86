//! Allocation-phase builder for all memory flavours.

use crate::cc::{CcMemory, EpochMode};
use crate::dsm::DsmMemory;
use crate::raw::{RawMemory, WORDS_PER_LINE};
use crate::word::{Pid, WordId};
use std::fmt;

/// A contiguous run of words allocated together, e.g. the `go[]` array of
/// the one-shot lock or the node array of the `Tree`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WordArray {
    base: u32,
    len: u32,
}

impl WordArray {
    /// The `i`-th word of the array.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn at(&self, i: usize) -> WordId {
        assert!(
            i < self.len as usize,
            "index {i} out of array of {}",
            self.len
        );
        WordId(self.base + i as u32)
    }

    /// Number of words in the array.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the word ids in the array.
    pub fn iter(&self) -> impl Iterator<Item = WordId> + '_ {
        (0..self.len).map(move |i| WordId(self.base + i))
    }
}

/// Two-phase construction of a shared memory: algorithms *lay out* their
/// words against the builder (obtaining stable [`WordId`]s), then the memory
/// is built once in the flavour the experiment needs.
///
/// ```
/// use sal_memory::{Mem, MemoryBuilder};
///
/// let mut b = MemoryBuilder::new();
/// let tail = b.alloc(0);
/// let slots = b.alloc_array(8, 0);
/// let mem = b.build_cc(8);
/// assert_eq!(mem.num_words(), 9);
/// assert_eq!(mem.read(3, slots.at(3)), 0);
/// # let _ = tail;
/// ```
///
/// A layout may also hint which words are used together
/// ([`share_lines`](Self::share_lines)); only the raw memory, which has
/// cache lines, acts on the hint.
#[derive(Default)]
pub struct MemoryBuilder {
    inits: Vec<u64>,
    homes: Vec<Pid>,
    /// The arrays of each [`share_lines`](Self::share_lines) hint.
    hints: Vec<Box<[WordArray]>>,
}

impl fmt::Debug for MemoryBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryBuilder")
            .field("words", &self.inits.len())
            .finish()
    }
}

impl MemoryBuilder {
    /// New, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate one word with initial value `init`, homed (for the DSM
    /// model) at process 0.
    pub fn alloc(&mut self, init: u64) -> WordId {
        self.alloc_at(0, init)
    }

    /// Allocate one word with initial value `init`, homed at process
    /// `home`. The home assignment is meaningful only under
    /// [`build_dsm`](Self::build_dsm); the CC and raw flavours ignore it.
    pub fn alloc_at(&mut self, home: Pid, init: u64) -> WordId {
        let id = u32::try_from(self.inits.len()).expect("too many words");
        self.inits.push(init);
        self.homes.push(home);
        WordId(id)
    }

    /// Allocate `n` contiguous words, all initialized to `init`, homed at
    /// process 0.
    pub fn alloc_array(&mut self, n: usize, init: u64) -> WordArray {
        let base = u32::try_from(self.inits.len()).expect("too many words");
        let len = u32::try_from(n).expect("array too large");
        self.inits.extend(std::iter::repeat_n(init, n));
        self.homes.extend(std::iter::repeat_n(0, n));
        WordArray { base, len }
    }

    /// Allocate `n` contiguous words with initial values and homes decided
    /// per-index by `f(i) -> (home, init)` — used by the DSM one-shot lock
    /// to place `announce[i]` on process `i`.
    pub fn alloc_array_with(
        &mut self,
        n: usize,
        mut f: impl FnMut(usize) -> (Pid, u64),
    ) -> WordArray {
        let base = u32::try_from(self.inits.len()).expect("too many words");
        let len = u32::try_from(n).expect("array too large");
        for i in 0..n {
            let (home, init) = f(i);
            self.inits.push(init);
            self.homes.push(home);
        }
        WordArray { base, len }
    }

    /// Hint that, for every `i`, the `i`-th words of `arrays` are used
    /// together: the raw memory places each such group on one cache line
    /// of its own, so a process that touches one word brings in the
    /// others with it. Every word left out of a hint keeps a line of its
    /// own. The CC and DSM memories ignore the hint (each word stays its
    /// own coherence unit), so no RMR count depends on it.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is empty, has more than eight arrays (one
    /// 64-byte line of words) or arrays of different lengths.
    /// [`build_raw`](Self::build_raw) panics if a word is in two hints.
    pub fn share_lines(&mut self, arrays: &[WordArray]) {
        assert!(
            (1..=WORDS_PER_LINE).contains(&arrays.len()),
            "a hint names one to eight arrays, not {}",
            arrays.len()
        );
        assert!(
            arrays.iter().all(|a| a.len == arrays[0].len),
            "hinted arrays differ in length"
        );
        self.hints.push(arrays.into());
    }

    /// Number of words allocated so far.
    pub fn words_allocated(&self) -> usize {
        self.inits.len()
    }

    /// Snapshot of all initial values, indexed by word. The long-lived
    /// lock's lazy-reset scheme (§6.2) uses this to know what "reset to the
    /// initial value" means for each word of a recycled one-shot instance.
    pub fn initial_values(&self) -> Vec<u64> {
        self.inits.clone()
    }

    /// Build a cache-coherent memory (the paper's primary model) for
    /// `nprocs` processes with exact RMR accounting.
    pub fn build_cc(self, nprocs: usize) -> CcMemory {
        CcMemory::new(self.inits, nprocs)
    }

    /// Build a cache-coherent memory with an explicit choice of
    /// per-(process, word) epoch storage — see [`EpochMode`]. Accounting
    /// is identical in every mode; this only trades space for speed (and
    /// lets tests exercise both paths deterministically).
    pub fn build_cc_with(self, nprocs: usize, mode: EpochMode) -> CcMemory {
        CcMemory::with_epoch_mode(self.inits, nprocs, mode)
    }

    /// Build a distributed-shared-memory flavoured memory for `nprocs`
    /// processes: each word is local to its home and remote to everyone
    /// else.
    ///
    /// # Panics
    ///
    /// Panics if any word's home is `>= nprocs`.
    pub fn build_dsm(self, nprocs: usize) -> DsmMemory {
        DsmMemory::new(self.inits, self.homes, nprocs)
    }

    /// Build an uninstrumented memory over real `AtomicU64`s, for running
    /// the same algorithm code on real threads at full speed.
    ///
    /// Words hinted together by [`share_lines`](Self::share_lines) share
    /// one cache line; every other word has a line of its own.
    pub fn build_raw(self, nprocs: usize) -> RawMemory {
        RawMemory::new(self.inits, &self.hints, nprocs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mem;

    #[test]
    fn arrays_are_contiguous_and_indexable() {
        let mut b = MemoryBuilder::new();
        let a = b.alloc_array(4, 9);
        let w = b.alloc(1);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.at(0).index() + 3, a.at(3).index());
        assert_eq!(w.index(), 4);
        let ids: Vec<_> = a.iter().collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(ids[2], a.at(2));
    }

    #[test]
    #[should_panic(expected = "out of array")]
    fn array_bounds_are_checked() {
        let mut b = MemoryBuilder::new();
        let a = b.alloc_array(2, 0);
        let _ = a.at(2);
    }

    #[test]
    fn initial_values_are_preserved_in_every_flavour() {
        for flavour in 0..3 {
            let mut b = MemoryBuilder::new();
            let w0 = b.alloc(5);
            let w1 = b.alloc_at(1, 6);
            assert_eq!(b.initial_values(), vec![5, 6]);
            let mem: Box<dyn Mem> = match flavour {
                0 => Box::new(b.build_cc(2)),
                1 => Box::new(b.build_dsm(2)),
                _ => Box::new(b.build_raw(2)),
            };
            assert_eq!(mem.read(0, w0), 5);
            assert_eq!(mem.read(1, w1), 6);
            assert_eq!(mem.num_words(), 2);
            assert_eq!(mem.num_procs(), 2);
        }
    }

    #[test]
    fn alloc_array_with_sets_per_index_homes_and_inits() {
        let mut b = MemoryBuilder::new();
        let a = b.alloc_array_with(3, |i| (i, i as u64 * 10));
        let mem = b.build_dsm(3);
        assert_eq!(mem.read(0, a.at(0)), 0);
        assert_eq!(mem.read(1, a.at(1)), 10);
        assert_eq!(mem.read(2, a.at(2)), 20);
        // Reads by the home process are free in DSM.
        assert_eq!(mem.rmrs(1), 0);
        // Process 0 read its own word only.
        assert_eq!(mem.rmrs(0), 0);
    }
}
