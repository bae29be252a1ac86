//! Differential test of the sharded lock-free `CcMemory` against the
//! retained global-mutex reference `MutexCcMemory`.
//!
//! `MutexCcMemory` is the original, obviously-correct single-lock
//! implementation of the §2 accounting rules; it lives here, as test
//! code, because differential testing is its only job. Serializing
//! everything through one mutex makes it trivially correct, which is
//! exactly what an oracle should be. Known (and deliberately
//! preserved) limitation: a thread that panics while holding the
//! global lock poisons it, and every later operation dies with a
//! `PoisonError` — the fragility that motivated the rewrite. Do not
//! "fix" it here.
//!
//! The sharded engine's whole claim is *bit-identical accounting*: on
//! any serialized operation sequence it must return the same values and
//! charge the same per-process RMR/op counts as the obviously-correct
//! single-lock implementation it replaced. This suite replays seeded
//! random sequences of all five `OpKind`s (including `Swap`, a
//! write-type invalidator) against both implementations side by side,
//! asserting equality after *every* operation — in dense and sparse
//! epoch-table mode — plus a handful of adversarial scripted schedules
//! around the write-run edge cases.

use sal_memory::{EpochMode, Mem, MemoryBuilder, Pid, WordId};
use sal_runtime::SmallRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Per-word coherence state.
///
/// Instead of storing an `N`-bit valid-copy set per word (which would cost
/// `O(words × procs)` space and make million-leaf tree experiments
/// infeasible), we track per word a write sequence number together with the
/// current *run* of consecutive writes by a single process, and per process
/// a sparse map `word → seq of the word at my last read`. A read by `p` is
/// local iff `p` has read the word before **and** every write-type
/// operation since `p`'s last read was performed by `p` itself — precisely
/// the model's rule that only *another* process's write/CAS/F&A invalidates
/// `p`'s cached copy.
struct WordCell {
    value: u64,
    /// Total write-type operations performed on this word.
    seq: u64,
    /// Process that performed the most recent write-type operation.
    last_writer: Pid,
    /// Value of `seq` just before the current run of consecutive
    /// `last_writer` writes began.
    run_start: u64,
}

struct CcState {
    words: Vec<WordCell>,
    /// `read_seqs[p][w]` = value of `words[w].seq` at `p`'s last read of `w`.
    read_seqs: Vec<HashMap<u32, u64>>,
    rmrs: Vec<u64>,
    ops: Vec<u64>,
}

/// The original global-mutex CC memory, retained as the differential
/// oracle (see the module-level docs above).
///
/// All operations serialize through one internal mutex, so the
/// accounting is exact by construction — and the throughput ceiling is
/// one core, which is why the harness runs on the sharded `CcMemory`
/// instead. Build one with [`oracle`].
pub struct MutexCcMemory {
    state: Mutex<CcState>,
    nprocs: usize,
    nwords: usize,
}

impl fmt::Debug for MutexCcMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutexCcMemory")
            .field("nwords", &self.nwords)
            .field("nprocs", &self.nprocs)
            .finish()
    }
}

impl MutexCcMemory {
    fn new(inits: Vec<u64>, nprocs: usize) -> Self {
        let nwords = inits.len();
        let words = inits
            .into_iter()
            .map(|v| WordCell {
                value: v,
                seq: 0,
                last_writer: usize::MAX,
                run_start: 0,
            })
            .collect();
        MutexCcMemory {
            state: Mutex::new(CcState {
                words,
                read_seqs: (0..nprocs).map(|_| HashMap::new()).collect(),
                rmrs: vec![0; nprocs],
                ops: vec![0; nprocs],
            }),
            nprocs,
            nwords,
        }
    }

    /// Reset all RMR and operation counters (values and coherence state are
    /// left untouched). Useful between warm-up and measurement phases.
    pub fn reset_counters(&self) {
        let mut s = self.state.lock().unwrap();
        s.rmrs.iter_mut().for_each(|c| *c = 0);
        s.ops.iter_mut().for_each(|c| *c = 0);
    }

    fn write_type(&self, p: Pid, w: WordId, f: impl FnOnce(&mut u64) -> u64) -> u64 {
        let mut s = self.state.lock().unwrap();
        s.ops[p] += 1;
        s.rmrs[p] += 1;
        let cell = &mut s.words[w.index()];
        let prev_seq = cell.seq;
        cell.seq += 1;
        if cell.last_writer != p {
            cell.last_writer = p;
            cell.run_start = prev_seq;
        }
        f(&mut cell.value)
    }
}

impl Mem for MutexCcMemory {
    fn read(&self, p: Pid, w: WordId) -> u64 {
        let mut s = self.state.lock().unwrap();
        s.ops[p] += 1;
        let cell = &s.words[w.index()];
        let (value, seq, last_writer, run_start) =
            (cell.value, cell.seq, cell.last_writer, cell.run_start);
        let local = match s.read_seqs[p].get(&(w.index() as u32)) {
            // Cached and no write since, or every write since was ours.
            Some(&r) => r == seq || (last_writer == p && r >= run_start),
            None => false, // first read of w by p
        };
        if !local {
            s.rmrs[p] += 1;
        }
        s.read_seqs[p].insert(w.index() as u32, seq);
        value
    }

    fn write(&self, p: Pid, w: WordId, v: u64) {
        self.write_type(p, w, |cell| {
            *cell = v;
            0
        });
    }

    fn cas(&self, p: Pid, w: WordId, old: u64, new: u64) -> bool {
        self.write_type(p, w, |cell| {
            if *cell == old {
                *cell = new;
                1
            } else {
                0
            }
        }) == 1
    }

    fn faa(&self, p: Pid, w: WordId, add: u64) -> u64 {
        self.write_type(p, w, |cell| {
            let prev = *cell;
            *cell = cell.wrapping_add(add);
            prev
        })
    }

    fn swap(&self, p: Pid, w: WordId, v: u64) -> u64 {
        self.write_type(p, w, |cell| std::mem::replace(cell, v))
    }

    fn rmrs(&self, p: Pid) -> u64 {
        self.state.lock().unwrap().rmrs[p]
    }

    fn total_rmrs(&self) -> u64 {
        self.state.lock().unwrap().rmrs.iter().sum()
    }

    fn ops(&self, p: Pid) -> u64 {
        self.state.lock().unwrap().ops[p]
    }

    fn num_words(&self) -> usize {
        self.nwords
    }

    fn num_procs(&self) -> usize {
        self.nprocs
    }
}

/// The oracle over `b`'s words and initial values.
fn oracle(b: MemoryBuilder, nprocs: usize) -> MutexCcMemory {
    MutexCcMemory::new(b.initial_values(), nprocs)
}

#[test]
fn reference_model_still_accounts_exactly() {
    let mut b = MemoryBuilder::new();
    let w = b.alloc(0);
    let m = oracle(b, 2);
    m.read(0, w); // remote: first read
    m.read(0, w); // local
    m.write(1, w, 7); // remote write-type
    m.read(0, w); // remote: invalidated by p1
    assert!(!m.cas(0, w, 0, 1)); // failed CAS: still one RMR
    assert_eq!(m.rmrs(0), 3);
    assert_eq!(m.rmrs(1), 1);
    assert_eq!(m.ops(0), 4);
    m.reset_counters();
    assert_eq!(m.total_rmrs(), 0);
    assert_eq!(m.read(1, w), 7);
}

/// Apply one random operation to both memories, asserting identical
/// observable results.
fn step(rng: &mut SmallRng, sharded: &dyn Mem, oracle: &dyn Mem, nprocs: usize, nwords: usize) {
    let p = rng.random_range(0..nprocs);
    let w = WordId::from_index(rng.random_range(0..nwords));
    match rng.random_range(0..5) {
        0 => assert_eq!(sharded.read(p, w), oracle.read(p, w), "read value diverged"),
        1 => {
            let v = rng.next_u64() % 16;
            sharded.write(p, w, v);
            oracle.write(p, w, v);
        }
        2 => {
            // Draw `old` from a small domain so CASes succeed and fail in
            // a healthy mix (both paths are write-type; both must charge).
            let old = rng.next_u64() % 16;
            let new = rng.next_u64() % 16;
            assert_eq!(
                sharded.cas(p, w, old, new),
                oracle.cas(p, w, old, new),
                "cas outcome diverged"
            );
        }
        3 => {
            let add = rng.next_u64(); // wrapping: exercise overflow too
            assert_eq!(
                sharded.faa(p, w, add),
                oracle.faa(p, w, add),
                "faa previous value diverged"
            );
        }
        _ => {
            let v = rng.next_u64() % 16;
            assert_eq!(
                sharded.swap(p, w, v),
                oracle.swap(p, w, v),
                "swap previous value diverged"
            );
        }
    }
    assert_eq!(
        sharded.rmrs(p),
        oracle.rmrs(p),
        "rmrs(p) diverged after op by {p}"
    );
    assert_eq!(
        sharded.ops(p),
        oracle.ops(p),
        "ops(p) diverged after op by {p}"
    );
}

fn run_seed(seed: u64, nprocs: usize, nwords: usize, ops: usize, mode: EpochMode) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inits = Vec::with_capacity(nwords);
    let mut b_sharded = MemoryBuilder::new();
    let mut b_oracle = MemoryBuilder::new();
    for _ in 0..nwords {
        let init = rng.next_u64() % 16;
        inits.push(init);
        b_sharded.alloc(init);
        b_oracle.alloc(init);
    }
    let sharded = b_sharded.build_cc_with(nprocs, mode);
    let oracle = oracle(b_oracle, nprocs);

    for _ in 0..ops {
        step(&mut rng, &sharded, &oracle, nprocs, nwords);
    }
    // Final totals, every process.
    for p in 0..nprocs {
        assert_eq!(sharded.rmrs(p), oracle.rmrs(p));
        assert_eq!(sharded.ops(p), oracle.ops(p));
    }
    assert_eq!(sharded.total_rmrs(), oracle.total_rmrs());
    // Final values, every word.
    for i in 0..nwords {
        let w = WordId::from_index(i);
        // One more read each — also must agree on its locality.
        let before_s = sharded.rmrs(0);
        let before_o = oracle.rmrs(0);
        assert_eq!(
            sharded.read(0, w),
            oracle.read(0, w),
            "final value of word {i}"
        );
        assert_eq!(sharded.rmrs(0) - before_s, oracle.rmrs(0) - before_o);
    }
}

#[test]
fn seeded_sequences_account_identically_dense() {
    for seed in 0..256 {
        run_seed(seed, 4, 6, 400, EpochMode::Dense);
    }
}

#[test]
fn seeded_sequences_account_identically_sparse() {
    for seed in 0..256 {
        run_seed(seed, 4, 6, 400, EpochMode::Sparse);
    }
}

#[test]
fn wide_configs_account_identically() {
    // Sweep shapes: single word (maximum interleaving), many words
    // (locality), many procs (long foreign-write chains).
    for (seed, nprocs, nwords) in [(1, 1, 1), (2, 2, 1), (3, 8, 3), (4, 3, 32), (5, 16, 16)] {
        run_seed(seed, nprocs, nwords, 1000, EpochMode::Auto);
    }
}

#[test]
fn scripted_write_run_edge_cases_match() {
    // The locality rule's subtle branch is the write-run tracking:
    // `r >= run_start` with interleaved foreign writers. Pin the exact
    // schedules from the cc.rs unit tests against the oracle too.
    let scripts: &[&[(usize, u8)]] = &[
        // (pid, op): 0=read, 1=write, 2=failed-cas, 3=swap, 4=faa
        &[(0, 0), (1, 1), (0, 1), (0, 0)], // foreign write inside own run
        &[(0, 0), (0, 1), (0, 1), (0, 0)], // own run keeps copy valid
        &[(0, 0), (1, 2), (0, 0)],         // failed CAS invalidates
        &[(0, 0), (1, 3), (0, 0), (1, 4), (0, 0)], // swap and faa invalidate
        &[(0, 0), (0, 0), (0, 0)],         // pure spinning is free
    ];
    for script in scripts {
        let mut bs = MemoryBuilder::new();
        let mut bo = MemoryBuilder::new();
        bs.alloc(0);
        bo.alloc(0);
        let sharded = bs.build_cc(2);
        let oracle = oracle(bo, 2);
        let w = WordId::from_index(0);
        for &(p, op) in *script {
            match op {
                0 => assert_eq!(sharded.read(p, w), oracle.read(p, w)),
                1 => {
                    sharded.write(p, w, 7);
                    oracle.write(p, w, 7);
                }
                2 => assert_eq!(sharded.cas(p, w, 999, 1), oracle.cas(p, w, 999, 1)),
                3 => assert_eq!(sharded.swap(p, w, 5), oracle.swap(p, w, 5)),
                _ => assert_eq!(sharded.faa(p, w, 1), oracle.faa(p, w, 1)),
            }
            for q in 0..2 {
                assert_eq!(sharded.rmrs(q), oracle.rmrs(q), "script {script:?}");
            }
        }
    }
}

#[test]
fn counter_reset_keeps_the_pair_in_lockstep() {
    let mut bs = MemoryBuilder::new();
    let mut bo = MemoryBuilder::new();
    for _ in 0..4 {
        bs.alloc(0);
        bo.alloc(0);
    }
    let sharded = bs.build_cc(3);
    let oracle = oracle(bo, 3);
    let mut rng = SmallRng::seed_from_u64(42);
    for round in 0..4 {
        for _ in 0..200 {
            step(&mut rng, &sharded, &oracle, 3, 4);
        }
        sharded.reset_counters();
        oracle.reset_counters();
        for p in 0..3 {
            assert_eq!(sharded.rmrs(p), 0, "round {round}");
            assert_eq!(oracle.rmrs(p), 0);
        }
    }
}
