//! Guided schedule search: the search strategies behind
//! [`explore_guided`](crate::explore::explore_guided), chosen by the
//! public [`Strategy`] value.
//!
//! The bounded-deviation BFS in [`explore`](crate::explore) treats every
//! run as an opaque verdict. Guided search opens the box: each run can
//! also report its **op trace** — the step-ordered sequence of shared-
//! memory operations, captured by an [`OpTraceSink`] layered under the
//! step gate — and a **cost** (typically the run's worst per-passage RMR
//! count from `sal_obs::PassageStats`). From the trace the strategies
//! derive:
//!
//! * an **independence relation** ([`independent`]): two steps commute
//!   when they are by distinct processes and touch disjoint words (or
//!   are both reads). Swapping adjacent independent steps cannot change
//!   any process's observations, so the two interleavings are
//!   behaviourally equivalent (a Mazurkiewicz trace class).
//! * **state fingerprints** (`run_fingerprints`): each step hashes its
//!   process, that process's program position (its per-pid step index),
//!   the touched word and the observed value; the *state* after a prefix
//!   is the XOR of its step hashes. XOR is commutative, and swapped
//!   independent steps have identical step hashes on both sides of the
//!   swap, so equivalent prefixes collapse to the same 64-bit key — a
//!   compact dedup table instead of an ever-growing schedule list.
//! * a **canonical witness** ([`canonical_schedule`]): the
//!   lexicographically least linearization of the run's dependence
//!   partial order. Equivalent violating runs canonicalize to the same
//!   schedule, so different strategies can be compared witness-for-
//!   witness.
//!
//! Four crate-private strategies implement the `SearchStrategy` trait:
//! `BfsStrategy` (the exhaustive reference), `DporStrategy`
//! (sleep-set-style pruning + fingerprint dedup), `BestFirstStrategy`
//! (cost-keyed priority frontier) and `FuzzStrategy` (seeded mutation
//! of recorded prefixes with fingerprint-coverage feedback). All of
//! them only *order and filter* the forced prefixes to execute; the
//! engine in `explore` runs every batch through
//! [`pool::par_map`](crate::pool::par_map) and digests outcomes in index
//! order, so results are identical at any `jobs` count.

use crate::explore::{Decision, ExploreOptions, ForcedSchedule};
use crate::rng::SmallRng;
use sal_memory::{Interceptor, OpKind, Pid, WordId};
use sal_obs::fp::{mix64, Fingerprint};
use std::collections::{HashSet, VecDeque};
use std::sync::Mutex;

/// One shared-memory operation as observed in step order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOp {
    /// The process that took the step.
    pub pid: Pid,
    /// The operation kind.
    pub kind: OpKind,
    /// Index of the word the operation touched.
    pub word: u32,
    /// The observed value (read value, written value, CAS success
    /// flag, previous value for F&A/SWAP — see
    /// [`Interceptor::after`]).
    pub value: u64,
}

/// An [`Interceptor`] that records every operation as a [`StepOp`], in
/// global step order.
///
/// Layer it *under* the simulator's step gate (i.e. wrap the raw memory
/// with it, then hand the wrapped memory to `simulate`/`run_lock`): the
/// gate serializes steps, so the hooks fire one at a time while the
/// turn is held and the recorded order is exactly the schedule order —
/// entry `i` of the trace is the operation performed by the `i`-th
/// scheduling decision.
#[derive(Debug, Default)]
pub struct OpTraceSink {
    ops: Mutex<Vec<StepOp>>,
}

impl OpTraceSink {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded trace, leaving the sink empty. Call this
    /// *immediately* after the simulation returns — verdict reads done
    /// through the same layered memory would otherwise append to it.
    pub fn take(&self) -> Vec<StepOp> {
        std::mem::take(&mut self.ops.lock().unwrap())
    }
}

impl Interceptor for OpTraceSink {
    fn after(&self, p: Pid, kind: OpKind, w: WordId, value: u64, _remote: bool) {
        self.ops.lock().unwrap().push(StepOp {
            pid: p,
            kind,
            word: w.index() as u32,
            value,
        });
    }
}

/// Do two steps commute? Distinct processes touching disjoint words
/// always do; so do two reads of the same word. Same-process steps
/// never commute (program order), nor does a write-type op with any
/// other op on the same word.
#[must_use]
pub fn independent(a: &StepOp, b: &StepOp) -> bool {
    a.pid != b.pid && (a.word != b.word || (a.kind == OpKind::Read && b.kind == OpKind::Read))
}

/// Hash one step: process, per-process program position, op kind, word
/// and observed value. Two executions place the same step hash at a
/// step exactly when that process performs the same op with the same
/// outcome at the same point of its program — the ingredients of the
/// state-fingerprint soundness argument (see DESIGN.md §14).
fn step_hash(op: &StepOp, pid_ix: u64) -> u64 {
    let kw = (u64::from(op.word) << 3) | op.kind as u64;
    mix64(op.pid as u64 ^ mix64(pid_ix ^ mix64(kw ^ mix64(op.value))))
}

/// Per-run fingerprint scan: the cumulative state fingerprint after
/// each step, plus the final one.
pub(crate) struct FpScan {
    /// `step_fps[i]` = fingerprint of the state reached after step `i`.
    pub step_fps: Vec<u64>,
    /// Fingerprint of the run's final state (0 for an empty run).
    pub final_fp: u64,
}

/// Fingerprint every prefix of a run. When the op trace aligns with the
/// schedule (one op per decision) the commutation-invariant step-hash
/// XOR is used; otherwise (legacy verdict-only runs) an order-sensitive
/// fold over the chosen pids stands in — still a valid dedup key, just
/// blind to commutation.
pub(crate) fn run_fingerprints(schedule: &[Pid], ops: &[StepOp]) -> FpScan {
    let mut step_fps = Vec::with_capacity(schedule.len());
    if ops.len() == schedule.len() {
        let mut acc = 0u64;
        let mut pid_ix = vec![0u64; 0];
        for op in ops {
            if op.pid >= pid_ix.len() {
                pid_ix.resize(op.pid + 1, 0);
            }
            acc ^= step_hash(op, pid_ix[op.pid]);
            pid_ix[op.pid] += 1;
            step_fps.push(acc);
        }
    } else {
        let mut f = Fingerprint::new();
        for &p in schedule {
            f.fold_ordered(p as u64 + 1);
            step_fps.push(f.value());
        }
    }
    let final_fp = step_fps.last().copied().unwrap_or(0);
    FpScan { step_fps, final_fp }
}

/// The lexicographically least linearization of the run's dependence
/// partial order: repeatedly emit the smallest-pid step whose
/// dependence predecessors have all been emitted. Equivalent runs (same
/// Mazurkiewicz class) canonicalize to the same schedule; same-process
/// steps stay in program order because they never commute. Without an
/// aligned op trace the schedule is its own canonical form.
#[must_use]
pub fn canonical_schedule(schedule: &[Pid], ops: &[StepOp]) -> Vec<Pid> {
    let n = schedule.len();
    if ops.len() != n || n == 0 {
        return schedule.to_vec();
    }
    // preds[j] = number of i < j with ops[i] dependent on ops[j].
    let mut preds = vec![0usize; n];
    for j in 0..n {
        for i in 0..j {
            if !independent(&ops[i], &ops[j]) {
                preds[j] += 1;
            }
        }
    }
    let mut emitted = vec![false; n];
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let next = (0..n)
            .filter(|&j| !emitted[j] && preds[j] == 0)
            .min_by_key(|&j| (ops[j].pid, j))
            .expect("dependence order is acyclic");
        emitted[next] = true;
        out.push(ops[next].pid);
        for j in next + 1..n {
            if !emitted[j] && !independent(&ops[next], &ops[j]) {
                preds[j] -= 1;
            }
        }
    }
    out
}

/// Dropped-work tallies, mirrored into
/// [`ExplorationResult`](crate::explore::ExplorationResult).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SearchCounters {
    /// Children skipped by the sleep-set independence rule.
    pub pruned: usize,
    /// Runs whose children were skipped because the run's final-state
    /// fingerprint had already been reached by an earlier run.
    pub deduped: usize,
}

/// One executed run, as the engine hands it to
/// [`SearchStrategy::absorb`] (in deterministic batch order).
#[derive(Debug)]
pub(crate) struct RunView<'a> {
    /// The forced prefix that produced the run.
    pub prefix: &'a [Pid],
    /// The full decision record (chosen pid + live set per step).
    pub record: &'a [Decision],
    /// The chosen pids of `record`, as one slice.
    pub schedule: &'a [Pid],
    /// The op trace (empty for verdict-only runs).
    pub ops: &'a [StepOp],
    /// The run's reported search cost (e.g. max per-passage RMRs).
    pub cost: u64,
    /// Whether this run's final-state fingerprint was first reached by
    /// this run.
    pub fresh: bool,
    /// How many per-step state fingerprints this run visited first.
    pub new_states: usize,
}

/// A pluggable search order over forced schedule prefixes.
///
/// The engine alternates `next_batch` → parallel execution → `absorb`
/// until the strategy runs dry or the run budget is exhausted. All
/// strategy state lives on the engine thread; determinism across worker
/// counts is the engine's job (index-ordered gathering), not the
/// strategy's.
pub(crate) trait SearchStrategy: Send {
    /// The next prefixes to execute, at most `limit`. Returning an
    /// empty batch ends the search.
    fn next_batch(&mut self, limit: usize) -> Vec<Vec<Pid>>;

    /// Digest an executed batch (same order as returned by
    /// [`next_batch`](Self::next_batch)) and enqueue successors.
    fn absorb(
        &mut self,
        batch: &[RunView<'_>],
        opts: &ExploreOptions,
        counters: &mut SearchCounters,
    );

    /// Prefixes still queued (reported as truncated work when the run
    /// budget ends the search first).
    fn pending(&self) -> usize;
}

/// Which search strategy [`explore_guided`](crate::explore_guided)
/// runs; the value-level surface used by CLIs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Bounded-deviation breadth-first search — the exhaustive
    /// reference all other strategies are verdict-checked against.
    Bfs,
    /// BFS order with sleep-set independence pruning and final-state
    /// fingerprint dedup: equivalent interleavings are expanded once.
    Dpor,
    /// Cost-guided best-first search: the priority frontier expands the
    /// most expensive observed prefixes first (RMR witness hunting),
    /// with fingerprint dedup.
    BestFirst,
    /// Seeded schedule fuzzer: mutates recorded prefixes (splice,
    /// pid-swap, position shift) and keeps mutants that reach new state
    /// fingerprints as the corpus.
    Fuzz {
        /// PRNG seed; the whole search is a deterministic function of
        /// it (and the workload).
        seed: u64,
    },
}

impl Strategy {
    /// Construct the strategy implementation.
    #[must_use]
    pub(crate) fn build(self) -> Box<dyn SearchStrategy> {
        match self {
            Strategy::Bfs => Box::new(BfsStrategy::new()),
            Strategy::Dpor => Box::new(DporStrategy::new()),
            Strategy::BestFirst => Box::new(BestFirstStrategy::new()),
            Strategy::Fuzz { seed } => Box::new(FuzzStrategy::new(seed)),
        }
    }

    /// Stable label for tables and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Bfs => "bfs",
            Strategy::Dpor => "dpor",
            Strategy::BestFirst => "best-first",
            Strategy::Fuzz { .. } => "fuzz",
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bfs" => Ok(Strategy::Bfs),
            "dpor" => Ok(Strategy::Dpor),
            "best-first" | "bestfirst" => Ok(Strategy::BestFirst),
            "fuzz" => Ok(Strategy::Fuzz { seed: 1 }),
            other => Err(format!(
                "unknown strategy '{other}'; valid: bfs, dpor, best-first, fuzz"
            )),
        }
    }
}

/// The round-robin deviation count of `record[..=s]`, tracked
/// incrementally by [`expand_children`].
fn rr_default(last: Option<Pid>, live: &[Pid]) -> Pid {
    ForcedSchedule::round_robin_default(last, live)
}

/// Expand the bounded-deviation children of one executed run, exactly
/// like the classic BFS explorer — optionally skipping children whose
/// deviation commutes with the step it displaces (`prune`).
///
/// The pruning rule: deviating to `q` at step `s` schedules `q`'s
/// pending op (its next op in the observed trace) *before* the op the
/// run executed at `s`. When the two are [`independent`] the swapped
/// order reaches the same state, and the swap's representative — `q`
/// scheduled at `s + 1` — is still generated (the rule checks that the
/// sibling branch point exists within the depth/deviation budget, or
/// that the parent run itself already schedules `q` there). One
/// representative per commutation is enough; the rest is counted in
/// [`SearchCounters::pruned`].
pub(crate) fn expand_children(
    view: &RunView<'_>,
    opts: &ExploreOptions,
    prune: bool,
    counters: &mut SearchCounters,
    out: &mut Vec<Vec<Pid>>,
) {
    let record = view.record;
    let aligned = view.ops.len() == record.len();
    let prefix_len = view.prefix.len();
    let mut deviations = 0usize;
    let mut last: Option<Pid> = None;
    for (s, d) in record.iter().enumerate() {
        let default = rr_default(last, &d.live);
        if d.chosen != default {
            deviations += 1;
        }
        if s >= prefix_len && s < opts.max_branch_depth && deviations < opts.max_deviations {
            for &q in &d.live {
                if q == d.chosen {
                    continue;
                }
                if prune && aligned && prunable(view, opts, s, q, deviations) {
                    counters.pruned += 1;
                    continue;
                }
                let mut child: Vec<Pid> = view.schedule[..s].to_vec();
                child.push(q);
                out.push(child);
            }
        }
        last = Some(d.chosen);
    }
}

/// Is the child "deviate to `q` at step `s`" redundant under the
/// sleep-set rule? See [`expand_children`].
fn prunable(
    view: &RunView<'_>,
    opts: &ExploreOptions,
    s: usize,
    q: Pid,
    deviations: usize,
) -> bool {
    let record = view.record;
    let ops = view.ops;
    // q's pending op: q is live but not running at s, so the op it will
    // issue next is already determined — it is q's next op in the trace.
    let Some(pending) = ops[s..].iter().find(|o| o.pid == q) else {
        return false;
    };
    if !independent(&ops[s], pending) {
        return false;
    }
    // The swap representative is "q right after step s". Keep the child
    // unless that representative survives: either the parent run itself
    // schedules q at s + 1, or the sibling child (s + 1, q) will be
    // generated within the same budgets.
    if s + 1 >= record.len() || s + 1 >= opts.max_branch_depth {
        return false;
    }
    let d1 = &record[s + 1];
    if d1.chosen == q {
        return true;
    }
    if !d1.live.contains(&q) {
        return false;
    }
    let default1 = rr_default(Some(record[s].chosen), &d1.live);
    let deviations1 = deviations + usize::from(d1.chosen != default1);
    deviations1 < opts.max_deviations
}

/// Bounded-deviation BFS as a [`SearchStrategy`]: a FIFO frontier, no
/// pruning, no dedup — the exhaustive reference.
#[derive(Debug)]
pub(crate) struct BfsStrategy {
    queue: VecDeque<Vec<Pid>>,
}

impl BfsStrategy {
    /// A frontier holding only the empty prefix (the baseline run).
    #[must_use]
    pub fn new() -> Self {
        BfsStrategy {
            queue: VecDeque::from([Vec::new()]),
        }
    }
}

impl SearchStrategy for BfsStrategy {
    fn next_batch(&mut self, limit: usize) -> Vec<Vec<Pid>> {
        let take = self.queue.len().min(limit);
        self.queue.drain(..take).collect()
    }

    fn absorb(
        &mut self,
        batch: &[RunView<'_>],
        opts: &ExploreOptions,
        counters: &mut SearchCounters,
    ) {
        let mut children = Vec::new();
        for view in batch {
            expand_children(view, opts, false, counters, &mut children);
        }
        self.queue.extend(children);
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// BFS order + sleep-set pruning + fingerprint dedup: equivalent
/// interleavings are expanded once.
#[derive(Debug)]
pub(crate) struct DporStrategy {
    queue: VecDeque<Vec<Pid>>,
}

impl DporStrategy {
    /// A frontier holding only the empty prefix.
    #[must_use]
    pub fn new() -> Self {
        DporStrategy {
            queue: VecDeque::from([Vec::new()]),
        }
    }
}

impl SearchStrategy for DporStrategy {
    fn next_batch(&mut self, limit: usize) -> Vec<Vec<Pid>> {
        let take = self.queue.len().min(limit);
        self.queue.drain(..take).collect()
    }

    fn absorb(
        &mut self,
        batch: &[RunView<'_>],
        opts: &ExploreOptions,
        counters: &mut SearchCounters,
    ) {
        let mut children = Vec::new();
        for view in batch {
            if !view.fresh {
                // An earlier run already reached this exact state;
                // its expansion stands in for this one's.
                counters.deduped += 1;
                continue;
            }
            expand_children(view, opts, true, counters, &mut children);
        }
        self.queue.extend(children);
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Cost-guided best-first search: children inherit their parent run's
/// observed cost as priority; each round executes the most expensive
/// queued prefixes (ties broken by lexicographic prefix order, so the
/// schedule is deterministic). Fingerprint dedup is on; independence
/// pruning is off — an expensive run's commuting variants may price
/// differently under the cost model, and the frontier ordering already
/// focuses the budget.
#[derive(Debug)]
pub(crate) struct BestFirstStrategy {
    /// `(cost, prefix)` — re-sorted each round.
    queue: Vec<(u64, Vec<Pid>)>,
    /// Max prefixes per round: big enough to keep every worker busy,
    /// small enough that priorities keep steering.
    round: usize,
}

impl BestFirstStrategy {
    /// A frontier holding only the empty prefix at cost 0.
    #[must_use]
    pub fn new() -> Self {
        BestFirstStrategy {
            queue: vec![(0, Vec::new())],
            round: 64,
        }
    }
}

impl SearchStrategy for BestFirstStrategy {
    fn next_batch(&mut self, limit: usize) -> Vec<Vec<Pid>> {
        // Highest cost first; among equal costs the lexicographically
        // least prefix.
        self.queue
            .sort_by(|(ca, pa), (cb, pb)| cb.cmp(ca).then_with(|| pa.cmp(pb)));
        let take = self.queue.len().min(limit).min(self.round);
        self.queue.drain(..take).map(|(_, p)| p).collect()
    }

    fn absorb(
        &mut self,
        batch: &[RunView<'_>],
        opts: &ExploreOptions,
        counters: &mut SearchCounters,
    ) {
        let mut children = Vec::new();
        for view in batch {
            if !view.fresh {
                counters.deduped += 1;
                continue;
            }
            children.clear();
            expand_children(view, opts, false, counters, &mut children);
            self.queue
                .extend(children.drain(..).map(|c| (view.cost, c)));
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Seeded schedule fuzzer with fingerprint-coverage feedback.
///
/// The corpus holds the recorded schedules of runs that reached at
/// least one previously unseen state fingerprint. Each round mutates
/// corpus entries with the three prefix mutations from the issue
/// brief — **splice** (cross two corpus schedules), **pid-swap**
/// (replace one decision's pid) and **shift** (move one decision
/// earlier/later, which shifts where an aborter's steps land) — plus a
/// random-prefix fallback while the corpus is still tiny.
#[derive(Debug)]
pub(crate) struct FuzzStrategy {
    rng: SmallRng,
    corpus: Vec<Vec<Pid>>,
    issued: HashSet<Vec<Pid>>,
    nprocs: usize,
    max_len: usize,
    bootstrapped: bool,
}

/// Corpus cap: oldest entries are evicted first.
const FUZZ_CORPUS_CAP: usize = 128;
/// Mutants per round.
const FUZZ_ROUND: usize = 64;

impl FuzzStrategy {
    /// A fuzzer seeded with `seed`; the search is a deterministic
    /// function of it.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FuzzStrategy {
            rng: SmallRng::seed_from_u64(seed),
            corpus: Vec::new(),
            issued: HashSet::new(),
            nprocs: 2,
            max_len: 64,
            bootstrapped: false,
        }
    }

    fn mutate(&mut self, base_ix: usize) -> Vec<Pid> {
        let base = &self.corpus[base_ix];
        let mut m = base.clone();
        match self.rng.random_range(0..4) {
            // Splice: prefix of one schedule + a window of another.
            0 => {
                let other = &self.corpus[self.rng.random_range(0..self.corpus.len())];
                let cut = self.rng.random_range(0..base.len().max(1));
                let from = self.rng.random_range(0..other.len().max(1));
                let len = self.rng.random_range(1..9);
                m.truncate(cut);
                m.extend(other.iter().skip(from).take(len));
            }
            // Pid-swap: redirect one decision to another process.
            1 if !m.is_empty() => {
                let i = self.rng.random_range(0..m.len());
                m[i] = self.rng.random_range(0..self.nprocs);
            }
            // Shift: move one decision to a different position.
            2 if m.len() >= 2 => {
                let i = self.rng.random_range(0..m.len());
                let p = m.remove(i);
                let j = self.rng.random_range(0..m.len() + 1);
                m.insert(j, p);
            }
            // Fallback (and arm 3): append a short random tail.
            _ => {
                let len = self.rng.random_range(1..9);
                for _ in 0..len {
                    let p = self.rng.random_range(0..self.nprocs);
                    m.push(p);
                }
            }
        }
        m.truncate(self.max_len);
        m
    }
}

impl SearchStrategy for FuzzStrategy {
    fn next_batch(&mut self, limit: usize) -> Vec<Vec<Pid>> {
        if !self.bootstrapped {
            self.bootstrapped = true;
            self.issued.insert(Vec::new());
            return vec![Vec::new()];
        }
        if self.corpus.is_empty() {
            return Vec::new();
        }
        let want = limit.min(FUZZ_ROUND);
        let mut batch = Vec::with_capacity(want);
        // A few attempts per slot: mutants that collide with an already
        // issued prefix are rerolled rather than wasted on a rerun.
        let mut attempts = want * 4;
        while batch.len() < want && attempts > 0 {
            attempts -= 1;
            let base = self.rng.random_range(0..self.corpus.len());
            let m = self.mutate(base);
            if self.issued.insert(m.clone()) {
                batch.push(m);
            }
        }
        batch
    }

    fn absorb(
        &mut self,
        batch: &[RunView<'_>],
        opts: &ExploreOptions,
        _counters: &mut SearchCounters,
    ) {
        self.max_len = opts.max_branch_depth.max(1);
        for view in batch {
            if let Some(d0) = view.record.first() {
                self.nprocs = self.nprocs.max(d0.live.len());
            }
            // Coverage feedback: a mutant earns a corpus slot by
            // reaching state fingerprints nobody reached before.
            if view.new_states > 0 {
                if self.corpus.len() == FUZZ_CORPUS_CAP {
                    self.corpus.remove(0);
                }
                self.corpus.push(view.schedule.to_vec());
            }
        }
    }

    fn pending(&self) -> usize {
        // The fuzzer generates work on demand; exhausting the run
        // budget is its natural end, not a truncation.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(pid: Pid, kind: OpKind, word: u32, value: u64) -> StepOp {
        StepOp {
            pid,
            kind,
            word,
            value,
        }
    }

    #[test]
    fn independence_is_disjoint_words_or_read_read() {
        let r0 = op(0, OpKind::Read, 7, 1);
        let r1 = op(1, OpKind::Read, 7, 1);
        let w1 = op(1, OpKind::Write, 7, 2);
        let w1b = op(1, OpKind::Write, 8, 2);
        assert!(independent(&r0, &r1), "read-read commutes");
        assert!(!independent(&r0, &w1), "read-write on one word conflicts");
        assert!(independent(&r0, &w1b), "disjoint words commute");
        assert!(
            !independent(&r0, &op(0, OpKind::Read, 9, 0)),
            "same pid never commutes"
        );
    }

    #[test]
    fn swapped_independent_steps_share_a_fingerprint() {
        let a = [op(0, OpKind::Write, 1, 5), op(1, OpKind::Write, 2, 6)];
        let b = [op(1, OpKind::Write, 2, 6), op(0, OpKind::Write, 1, 5)];
        let fa = run_fingerprints(&[0, 1], &a);
        let fb = run_fingerprints(&[1, 0], &b);
        assert_eq!(fa.final_fp, fb.final_fp);
        // Dependent reorderings (different observed values) diverge.
        let c = [op(0, OpKind::Write, 1, 5), op(1, OpKind::Read, 1, 5)];
        let d = [op(1, OpKind::Read, 1, 0), op(0, OpKind::Write, 1, 5)];
        assert_ne!(
            run_fingerprints(&[0, 1], &c).final_fp,
            run_fingerprints(&[1, 0], &d).final_fp
        );
    }

    #[test]
    fn canonical_schedule_sorts_independent_ops_only() {
        // p1's ops are independent of p0's (disjoint words): canonical
        // form floats p0 first, keeping each process's program order.
        let ops = [
            op(1, OpKind::Write, 2, 1),
            op(0, OpKind::Write, 1, 1),
            op(1, OpKind::Write, 2, 2),
            op(0, OpKind::Write, 1, 2),
        ];
        assert_eq!(canonical_schedule(&[1, 0, 1, 0], &ops), vec![0, 0, 1, 1]);
        // A conflicting pair pins the order across processes.
        let ops = [
            op(1, OpKind::Write, 1, 1),
            op(0, OpKind::Read, 1, 1),
            op(0, OpKind::Write, 2, 9),
        ];
        assert_eq!(canonical_schedule(&[1, 0, 0], &ops), vec![1, 0, 0]);
        // Equivalent interleavings canonicalize identically.
        let e1 = [
            op(0, OpKind::Write, 1, 1),
            op(1, OpKind::Write, 2, 1),
            op(0, OpKind::Read, 2, 1),
        ];
        let e2 = [
            op(1, OpKind::Write, 2, 1),
            op(0, OpKind::Write, 1, 1),
            op(0, OpKind::Read, 2, 1),
        ];
        assert_eq!(
            canonical_schedule(&[0, 1, 0], &e1),
            canonical_schedule(&[1, 0, 0], &e2)
        );
    }

    #[test]
    fn strategy_parses_and_labels() {
        assert_eq!("bfs".parse::<Strategy>().unwrap(), Strategy::Bfs);
        assert_eq!("dpor".parse::<Strategy>().unwrap(), Strategy::Dpor);
        assert_eq!(
            "best-first".parse::<Strategy>().unwrap(),
            Strategy::BestFirst
        );
        assert_eq!(
            "fuzz".parse::<Strategy>().unwrap(),
            Strategy::Fuzz { seed: 1 }
        );
        assert!("dfs".parse::<Strategy>().is_err());
        assert_eq!(Strategy::Dpor.label(), "dpor");
    }

    #[test]
    fn fuzzer_rounds_are_seed_deterministic_and_duplicate_free() {
        let batches = |seed| {
            let mut f = FuzzStrategy::new(seed);
            assert_eq!(f.next_batch(100), vec![Vec::<Pid>::new()]);
            f.corpus = vec![vec![0, 1, 0, 1], vec![1, 1, 0]];
            f.nprocs = 2;
            let mut all = Vec::new();
            for _ in 0..3 {
                all.push(f.next_batch(16));
            }
            all
        };
        let a = batches(42);
        assert_eq!(a, batches(42), "same seed, same mutants");
        assert_ne!(a, batches(43), "different seed diverges");
        let flat: Vec<_> = a.into_iter().flatten().collect();
        let distinct: HashSet<_> = flat.iter().cloned().collect();
        assert_eq!(flat.len(), distinct.len(), "issued mutants never repeat");
    }
}
