//! The lazy-reset scheme of §6.2: versioned, recyclable word regions.
//!
//! Resetting all `s(N)` words of a one-shot instance on reuse would cost
//! `s(N)` RMRs in one operation. Instead, every *logical* word `w` of an
//! instance is represented by three physical words:
//!
//! * `V_w` — a [`VersionDesc`] `(v_w, b_w)`: the instance version the word
//!   was last brought current for, and the incarnation in use then;
//! * `w₀`, `w₁` — the two incarnations. Invariant: `w_{1−b_w}` always
//!   holds the word's initial value.
//!
//! On first touching `w` in an instance of version `v`: if `V_w` is
//! current (`v_w = v`), use `w_{b_w}`. Otherwise CAS `V_w` to
//! `(v, 1−b_w)` — racing processes agree via the CAS — and the winner
//! resets the stale incarnation `w_{b_w}` to the initial value (it is
//! untouched by versions `v` and `v+1`-to-be, so the reset races with
//! nothing). Everyone then uses `w_{1−b_w}`, which held the initial value
//! by the invariant. Cost: `O(1)` extra RMRs per access.
//!
//! On hardware a logical word's three physical words are touched
//! together (the `V_w` read, then the incarnation it names), so the
//! layout hints them onto one cache line
//! ([`MemoryBuilder::share_lines`]): the raw memory places them there,
//! and the instrumented memories, which ignore the hint, keep counting
//! each as its own word.
//!
//! Unlike Aghazadeh et al. [1, §4], no bits are stolen from the data
//! words themselves. Version wraparound would need 2⁶³ reuses of a single
//! instance; we nevertheless implement the paper's eager-reset backstop
//! ([`VersionedInstance::eager_reset`]) that freshens a configurable
//! number of words on every reuse.

use super::desc::VersionDesc;
use sal_memory::{Mem, MemoryBuilder, Pid, WordArray, WordId};
use std::sync::Arc;

/// One recyclable instance region: the physical backing for a set of
/// logical words laid out in a scratch [`MemoryBuilder`].
#[derive(Clone, Debug)]
pub struct VersionedInstance {
    /// Current version of this instance; bumped by the (exclusive) owner
    /// on reuse, read (and cached) by everyone during use.
    ver: WordId,
    /// `V_w` descriptors, one per logical word.
    vws: WordArray,
    /// Incarnation 0 of every logical word.
    w0: WordArray,
    /// Incarnation 1 of every logical word.
    w1: WordArray,
    /// Cursor for eager wraparound resets.
    cursor: WordId,
    /// Initial value of every logical word (shared across instances).
    inits: Arc<Vec<u64>>,
}

impl VersionedInstance {
    /// Allocate the physical words backing one instance whose logical
    /// layout has the given initial values. Space: `3s + 2` words for `s`
    /// logical words. Each logical word's `V_w`, `w₀` and `w₁` are hinted
    /// onto one cache line; the version and the cursor keep lines of
    /// their own.
    pub fn layout(b: &mut MemoryBuilder, inits: Arc<Vec<u64>>) -> Self {
        let s = inits.len();
        let ver = b.alloc(0);
        let vws = b.alloc_array(s, VersionDesc { version: 0, bit: 0 }.pack());
        let w0 = b.alloc_array_with(s, |i| (0, inits[i]));
        let w1 = b.alloc_array_with(s, |i| (0, inits[i]));
        b.share_lines(&[vws, w0, w1]);
        let cursor = b.alloc(0);
        VersionedInstance {
            ver,
            vws,
            w0,
            w1,
            cursor,
            inits,
        }
    }

    /// Number of logical words.
    pub fn logical_words(&self) -> usize {
        self.inits.len()
    }

    /// Bump the instance to a fresh version. Must only be called by a
    /// process holding the instance exclusively (the §6.2 recycling
    /// protocol guarantees this: an instance is re-allocated only by the
    /// process that retired it, after its reference count hit zero).
    pub fn bump_version<M: Mem + ?Sized>(&self, mem: &M, p: Pid) {
        let v = mem.read(p, self.ver);
        mem.write(p, self.ver, v + 1);
    }

    /// Eagerly freshen `count` logical words (round-robin over the
    /// region) to the current version — the paper's guard against version
    /// wraparound making a stale word look current. Exclusive-owner only.
    pub fn eager_reset<M: Mem + ?Sized>(&self, mem: &M, p: Pid, count: usize) {
        if count == 0 || self.inits.is_empty() {
            return;
        }
        let v = mem.read(p, self.ver);
        let s = self.inits.len();
        let start = mem.read(p, self.cursor) as usize;
        for k in 0..count.min(s) {
            let i = (start + k) % s;
            let vd = VersionDesc::unpack(mem.read(p, self.vws.at(i)));
            if vd.version != v {
                let flipped = VersionDesc {
                    version: v,
                    bit: 1 - vd.bit,
                };
                mem.write(p, self.vws.at(i), flipped.pack());
                // The previously-in-use incarnation becomes the clean
                // next incarnation.
                let stale = if vd.bit == 0 {
                    self.w0.at(i)
                } else {
                    self.w1.at(i)
                };
                mem.write(p, stale, self.inits[i]);
            }
        }
        mem.write(p, self.cursor, ((start + count.min(s)) % s) as u64);
    }

    /// Resolve logical word `w` to the physical incarnation current for
    /// this instance's version, running the lazy-reset protocol if the
    /// word is stale. Wait-free: the CAS can fail at most once per word
    /// per version (the loop runs at most twice).
    fn resolve<M: Mem + ?Sized>(&self, mem: &M, p: Pid, w: WordId) -> WordId {
        let i = w.index();
        debug_assert!(i < self.inits.len(), "logical word out of region");
        let v = mem.read(p, self.ver);
        loop {
            let raw = mem.read(p, self.vws.at(i));
            let vd = VersionDesc::unpack(raw);
            if vd.version == v {
                return if vd.bit == 0 {
                    self.w0.at(i)
                } else {
                    self.w1.at(i)
                };
            }
            let flipped = VersionDesc {
                version: v,
                bit: 1 - vd.bit,
            };
            if mem.cas(p, self.vws.at(i), raw, flipped.pack()) {
                // Reset the stale incarnation for the version after next.
                let stale = if vd.bit == 0 {
                    self.w0.at(i)
                } else {
                    self.w1.at(i)
                };
                mem.write(p, stale, self.inits[i]);
                return if flipped.bit == 0 {
                    self.w0.at(i)
                } else {
                    self.w1.at(i)
                };
            }
            // Another process flipped the word; the reread sees the
            // current version.
        }
    }

    /// View this instance as a [`Mem`] over its logical words, backed by
    /// `mem`.
    pub fn view<'a, M: Mem + ?Sized>(&'a self, mem: &'a M) -> VersionedMem<'a, M> {
        VersionedMem {
            inner: mem,
            inst: self,
        }
    }
}

/// A [`Mem`] implementation that transparently applies the lazy-reset
/// protocol: algorithm code written against logical [`WordId`]s (laid out
/// in a scratch builder) runs unchanged over a recycled instance.
#[derive(Debug)]
pub struct VersionedMem<'a, M: ?Sized> {
    inner: &'a M,
    inst: &'a VersionedInstance,
}

impl<M: Mem + ?Sized> Mem for VersionedMem<'_, M> {
    fn read(&self, p: Pid, w: WordId) -> u64 {
        let phys = self.inst.resolve(self.inner, p, w);
        self.inner.read(p, phys)
    }

    fn write(&self, p: Pid, w: WordId, v: u64) {
        let phys = self.inst.resolve(self.inner, p, w);
        self.inner.write(p, phys, v);
    }

    fn cas(&self, p: Pid, w: WordId, old: u64, new: u64) -> bool {
        let phys = self.inst.resolve(self.inner, p, w);
        self.inner.cas(p, phys, old, new)
    }

    fn faa(&self, p: Pid, w: WordId, add: u64) -> u64 {
        let phys = self.inst.resolve(self.inner, p, w);
        self.inner.faa(p, phys, add)
    }

    fn swap(&self, p: Pid, w: WordId, v: u64) -> u64 {
        let phys = self.inst.resolve(self.inner, p, w);
        self.inner.swap(p, phys, v)
    }

    fn rmrs(&self, p: Pid) -> u64 {
        self.inner.rmrs(p)
    }

    fn total_rmrs(&self) -> u64 {
        self.inner.total_rmrs()
    }

    fn ops(&self, p: Pid) -> u64 {
        self.inner.ops(p)
    }

    fn num_words(&self) -> usize {
        self.inst.logical_words()
    }

    fn num_procs(&self) -> usize {
        self.inner.num_procs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::Mem;

    fn region(inits: Vec<u64>) -> (VersionedInstance, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let inst = VersionedInstance::layout(&mut b, Arc::new(inits));
        (inst, b.build_cc(4))
    }

    fn logical(i: usize) -> WordId {
        WordId::from_index(i)
    }

    #[test]
    fn fresh_instance_reads_initial_values() {
        let (inst, mem) = region(vec![10, 20, 30]);
        let v = inst.view(&mem);
        assert_eq!(v.read(0, logical(0)), 10);
        assert_eq!(v.read(1, logical(2)), 30);
        assert_eq!(v.num_words(), 3);
    }

    #[test]
    fn all_primitives_operate_on_the_current_incarnation() {
        let (inst, mem) = region(vec![5]);
        let v = inst.view(&mem);
        assert_eq!(v.faa(0, logical(0), 3), 5);
        assert!(v.cas(0, logical(0), 8, 9));
        assert!(!v.cas(0, logical(0), 8, 10));
        assert_eq!(v.swap(0, logical(0), 11), 9);
        v.write(0, logical(0), 12);
        assert_eq!(v.read(0, logical(0)), 12);
    }

    #[test]
    fn bump_version_lazily_resets_every_word() {
        let (inst, mem) = region(vec![1, 2, 3]);
        {
            let v = inst.view(&mem);
            v.write(0, logical(0), 100);
            v.write(0, logical(1), 200);
            // logical(2) untouched.
        }
        inst.bump_version(&mem, 0);
        let v = inst.view(&mem);
        assert_eq!(v.read(1, logical(0)), 1, "reset to initial");
        assert_eq!(v.read(2, logical(1)), 2);
        assert_eq!(v.read(3, logical(2)), 3);
        // And the new incarnation is writable independently.
        v.write(1, logical(0), 777);
        assert_eq!(v.read(1, logical(0)), 777);
    }

    #[test]
    fn many_reuse_cycles_stay_clean() {
        let (inst, mem) = region(vec![42]);
        for round in 0..10u64 {
            let v = inst.view(&mem);
            assert_eq!(v.read(0, logical(0)), 42, "round {round}");
            v.faa(0, logical(0), round + 1);
            assert_eq!(v.read(0, logical(0)), 42 + round + 1);
            inst.bump_version(&mem, 0);
        }
    }

    #[test]
    fn resolve_overhead_is_constant_rmrs() {
        let (inst, mem) = region(vec![0; 16]);
        inst.bump_version(&mem, 0); // make every word stale
        let v = inst.view(&mem);
        let probe = sal_memory::RmrProbe::start(&mem, 0);
        v.write(0, logical(3), 1); // stale path: ver read + V_w read + CAS + reset + write
        assert!(probe.rmrs(&mem) <= 5);
        let probe = sal_memory::RmrProbe::start(&mem, 0);
        v.write(0, logical(3), 2); // current path: cached ver + cached V_w + write
        assert_eq!(probe.rmrs(&mem), 1);
    }

    #[test]
    fn racing_flips_agree_on_one_incarnation() {
        // Simulate the race: both processes observe the stale descriptor;
        // p0 wins the CAS, p1's CAS fails and its retry sees the current
        // version — both end up using the same physical word.
        let (inst, mem) = region(vec![7]);
        inst.bump_version(&mem, 0);
        let v = inst.view(&mem);
        // Both processes write; whatever the interleaving (here
        // sequential), they address the same incarnation.
        v.faa(0, logical(0), 1);
        v.faa(1, logical(0), 1);
        assert_eq!(v.read(0, logical(0)), 9);
    }

    #[test]
    fn eager_reset_freshens_stale_words() {
        let (inst, mem) = region(vec![1, 2, 3, 4]);
        {
            let v = inst.view(&mem);
            for i in 0..4 {
                v.write(0, logical(i), 99);
            }
        }
        inst.bump_version(&mem, 0);
        inst.eager_reset(&mem, 0, 4);
        // After the eager pass every V_w is current; reads take the fast
        // path and see initial values.
        let v = inst.view(&mem);
        for i in 0..4 {
            assert_eq!(v.read(1, logical(i)), (i + 1) as u64);
        }
    }

    #[test]
    fn eager_reset_cursor_wraps_round_robin() {
        let (inst, mem) = region(vec![0; 3]);
        inst.eager_reset(&mem, 0, 2);
        inst.eager_reset(&mem, 0, 2); // wraps past the end
        inst.eager_reset(&mem, 0, 0); // no-op
                                      // No assertion beyond "does not panic and stays within bounds";
                                      // the cursor value is internal.
    }

    #[test]
    fn each_logical_word_lives_on_one_cache_line_of_raw_memory() {
        let mut b = MemoryBuilder::new();
        let lone = b.alloc(0);
        let insts: Vec<_> = (0..2)
            .map(|_| VersionedInstance::layout(&mut b, Arc::new(vec![0; 5])))
            .collect();
        let mem = b.build_raw(1);
        let line = |w| mem.cache_line(w);
        let mut lines = vec![line(lone)];
        for inst in &insts {
            for i in 0..inst.logical_words() {
                let (vw, w0, w1) = (inst.vws.at(i), inst.w0.at(i), inst.w1.at(i));
                assert_eq!((line(w0), line(w1)), (line(vw), line(vw)), "word {i}");
                lines.push(line(vw));
            }
            lines.extend([line(inst.ver), line(inst.cursor)]);
        }
        // Every other word, and every other logical word, is on a line
        // of its own.
        let n = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), n, "a line is shared across groups");
        // The lazy reset runs unchanged over the placement.
        let v = insts[1].view(&mem);
        v.write(0, logical(4), 9);
        insts[1].bump_version(&mem, 0);
        assert_eq!(insts[1].view(&mem).read(0, logical(4)), 0);
    }

    #[test]
    fn physical_space_is_three_words_per_logical_plus_two() {
        let mut b = MemoryBuilder::new();
        let before = b.words_allocated();
        let _inst = VersionedInstance::layout(&mut b, Arc::new(vec![0; 10]));
        assert_eq!(b.words_allocated() - before, 3 * 10 + 2);
    }
}
