//! Systematic schedule exploration: bounded-deviation stateless model
//! checking, in the spirit of CHESS-style preemption bounding.
//!
//! Random schedules sample the interleaving space; this module walks it
//! *systematically*. The baseline schedule is fair round-robin (the
//! natural fair baseline for spin-based algorithms — a run-to-completion
//! baseline would livelock a waiter). A **deviation** is any decision
//! that differs from the round-robin choice. The explorer enumerates
//! every schedule with at most `max_deviations` deviations,
//! re-executing the (deterministic) workload once per schedule and
//! checking the caller's verdict.
//!
//! With a handful of processes and a 1–2 deviation budget this covers
//! thousands of qualitatively distinct interleavings — including the
//! "aborter sneaks in two steps at exactly the wrong moment" races that
//! random scheduling takes a long time to hit.
//!
//! ## Parallel exploration
//!
//! Each schedule is an independent re-execution, so the explorer runs
//! the search tree in **breadth-first waves**: the current frontier of
//! forced prefixes is one fixed list, executed concurrently by
//! [`pool::par_map`] (which gathers outcomes by index), then children
//! are expanded on the calling thread in frontier order. Every
//! jobs-count-sensitive decision is made deterministic by construction:
//!
//! * the run budget truncates the *frontier* (a deterministic list),
//!   not a racy counter;
//! * exploration stops at the first **wave** containing a violation,
//!   and among that wave's failures the one with the lexicographically
//!   least forced prefix wins — regardless of which worker finished
//!   first;
//! * children are generated in (frontier index, decision step, live-set
//!   order), so the visited set and the execution order of runs are
//!   identical at `jobs = 1` and `jobs = 8`.
//!
//! ## Guided search
//!
//! [`explore_guided`] generalizes the wave loop into a batch engine
//! over a pluggable [`Strategy`](crate::search::Strategy): exhaustive
//! BFS, DPOR-style independence pruning with state-fingerprint dedup,
//! cost-guided best-first (RMR witness hunting), and a seeded
//! coverage-feedback schedule fuzzer — see [`crate::search`]. The
//! classic [`explore`] is `explore_guided` with [`Strategy::Bfs`] and
//! verdict-only outcomes.

use crate::pool;
use crate::schedule::{SchedStatus, SchedulePolicy};
use crate::search::{canonical_schedule, run_fingerprints, RunView, SearchCounters, Strategy};
use sal_memory::Pid;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Per-step record of a run: the chosen process and the live set at the
/// decision point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The process the scheduler picked at this step.
    pub chosen: Pid,
    /// The set of unfinished processes at the decision point.
    pub live: Vec<Pid>,
}

/// A policy that plays a forced prefix of choices, then continues with
/// fair round-robin — while recording every decision it makes. Create
/// one per run via the callback argument of [`explore`].
///
/// The recorder is single-owner: decisions accumulate in a plain `Vec`
/// owned by the policy (the hot replay path takes no lock) and are
/// published to the explorer through a write-once cell when the policy
/// is dropped at the end of the run.
pub struct ForcedSchedule {
    prefix: std::vec::IntoIter<Pid>,
    record: Vec<Decision>,
    out: Arc<OnceLock<Vec<Decision>>>,
    last: Option<Pid>,
    /// Live set at the last `next()` call; `commit_run` records leased
    /// decisions against it (the live set cannot change mid-lease —
    /// only the leaseholder runs, and finishing ends the lease).
    last_live: Vec<Pid>,
}

impl std::fmt::Debug for ForcedSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForcedSchedule").finish_non_exhaustive()
    }
}

impl ForcedSchedule {
    fn new(prefix: Vec<Pid>, out: Arc<OnceLock<Vec<Decision>>>) -> Self {
        ForcedSchedule {
            prefix: prefix.into_iter(),
            record: Vec::new(),
            out,
            last: None,
            last_live: Vec::new(),
        }
    }

    /// The round-robin default: the first live pid strictly after
    /// `last`, wrapping.
    pub(crate) fn round_robin_default(last: Option<Pid>, live: &[Pid]) -> Pid {
        match last {
            None => live[0],
            Some(l) => *live.iter().find(|&&p| p > l).unwrap_or(&live[0]),
        }
    }
}

impl Drop for ForcedSchedule {
    fn drop(&mut self) {
        // Publish the decision trace exactly once, when the run is over
        // and the simulator releases the policy.
        let _ = self.out.set(std::mem::take(&mut self.record));
    }
}

impl SchedulePolicy for ForcedSchedule {
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid {
        let live: Vec<Pid> = (0..status.finished.len())
            .filter(|&p| !status.finished[p])
            .collect();
        debug_assert!(!live.is_empty());
        let choice = loop {
            match self.prefix.next() {
                // Forced choices for finished processes are skipped (the
                // branch point evaporated in this re-execution — rare,
                // but possible when an earlier deviation shortened a
                // process's run).
                Some(p) if live.contains(&p) => break p,
                Some(_) => continue,
                None => break Self::round_robin_default(self.last, &live),
            }
        };
        self.last_live.clear();
        self.last_live.extend_from_slice(&live);
        self.record.push(Decision {
            chosen: choice,
            live,
        });
        self.last = Some(choice);
        choice
    }

    fn peek_run(&self, status: &SchedStatus<'_>, chosen: Pid) -> u64 {
        // Mirror next()'s consumption exactly: forced entries naming
        // non-live pids are skipped, entries naming `chosen` extend the
        // run, any other live entry ends it.
        let live: Vec<Pid> = (0..status.finished.len())
            .filter(|&p| !status.finished[p])
            .collect();
        let mut run = 0u64;
        for &p in self.prefix.as_slice() {
            if !live.contains(&p) {
                continue;
            }
            if p == chosen {
                run += 1;
            } else {
                return run;
            }
        }
        // Prefix exhausted: round-robin takes over, which re-picks
        // `chosen` only when it is the sole survivor — then forever.
        if live.len() == 1 {
            u64::MAX
        } else {
            run
        }
    }

    fn commit_run(&mut self, chosen: Pid, taken: u64) {
        for _ in 0..taken {
            // Consume the prefix exactly as `taken` next() calls would
            // (skipping non-live entries); past the prefix the decision
            // is the round-robin default, which consumes nothing.
            loop {
                match self.prefix.next() {
                    Some(p) if self.last_live.contains(&p) => {
                        debug_assert_eq!(p, chosen, "committed lease diverged from forced prefix");
                        break;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            self.record.push(Decision {
                chosen,
                live: self.last_live.clone(),
            });
            self.last = Some(chosen);
        }
    }
}

/// Exploration budget and bounds.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum deviations from round-robin per schedule.
    pub max_deviations: usize,
    /// Hard cap on the number of runs (the frontier is truncated when
    /// exceeded).
    pub max_runs: usize,
    /// Cap on decisions considered as branch points per run (long tails
    /// of a run rarely hide new behaviours once every process is merely
    /// draining).
    pub max_branch_depth: usize,
    /// Threads [`pool::par_map`] runs each wave on; `0` means auto
    /// ([`pool::default_jobs`]). The result is identical for every
    /// value — see the module docs.
    pub jobs: usize,
    /// Record the full chosen-pid schedule of every executed run in
    /// [`ExplorationResult::visited`]. Off by default (it costs memory
    /// proportional to runs × schedule length).
    pub collect_schedules: bool,
    /// Stop at the first batch containing a violation (the default,
    /// and the classic explorer behaviour). Set to `false` to keep
    /// searching and report the least witness over *all* executed runs
    /// — the mode the strategy-equivalence tests use, since different
    /// strategies reach the first violation at different times.
    pub stop_on_violation: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_deviations: 2,
            max_runs: 20_000,
            max_branch_depth: 400,
            jobs: 0,
            collect_schedules: false,
            stop_on_violation: true,
        }
    }
}

/// Outcome of an exploration.
#[derive(Debug)]
pub struct ExplorationResult {
    /// Schedules executed.
    pub runs: usize,
    /// Whether the search still had queued work when `max_runs` ran
    /// out.
    pub truncated: bool,
    /// How many queued prefixes were dropped unexecuted when the run
    /// budget ended the search (0 unless `truncated`).
    pub truncated_runs: usize,
    /// Children skipped by the DPOR independence rule.
    pub pruned: usize,
    /// Runs not expanded because their final-state fingerprint was
    /// already reached by an earlier run.
    pub deduped: usize,
    /// Distinct per-step state fingerprints reached — the guided-search
    /// coverage metric (`perfbench` reports `explore.states_per_s`).
    pub distinct_states: usize,
    /// The highest run cost observed (e.g. max per-passage RMRs when
    /// driven through `GuidedOutcome::cost`; 0 for verdict-only runs).
    pub best_cost: u64,
    /// The recorded schedule of the run that achieved
    /// [`best_cost`](Self::best_cost) (lexicographically least among
    /// ties; empty when no run reported a cost).
    pub best_schedule: Vec<Pid>,
    /// The least violating schedule found, with the verdict message.
    /// With [`ExploreOptions::stop_on_violation`] the search stops at
    /// the first batch containing one; otherwise this is the minimum
    /// over every violation seen.
    pub violation: Option<(Vec<Pid>, String)>,
    /// The canonical form of the violating schedule (least
    /// linearization of its dependence order — see
    /// [`canonical_schedule`](crate::search::canonical_schedule)).
    /// Equal across strategies that find equivalent witnesses. Same as
    /// the raw schedule for verdict-only runs with no op trace.
    pub violation_canonical: Option<Vec<Pid>>,
    /// The full recorded schedule of every executed run, in execution
    /// order (deterministic across worker counts). Empty unless
    /// [`ExploreOptions::collect_schedules`] is set.
    pub visited: Vec<Vec<Pid>>,
}

impl ExplorationResult {
    /// Panic with the witness schedule if a violation was found.
    pub fn assert_ok(&self) {
        if let Some((schedule, msg)) = &self.violation {
            panic!(
                "exploration found a violation: {msg}\nwitness schedule: {}",
                crate::replay::Recording::from_choices(schedule.clone()).serialize()
            );
        }
    }

    /// The violating schedule as a replayable
    /// [`Recording`](crate::replay::Recording) — paste its
    /// [`serialize`](crate::replay::Recording::serialize)d form into a
    /// regression test and drive the workload with
    /// [`Recording::into_policy`](crate::replay::Recording::into_policy).
    pub fn violation_recording(&self) -> Option<crate::replay::Recording> {
        self.violation
            .as_ref()
            .map(|(schedule, _)| crate::replay::Recording::from_choices(schedule.clone()))
    }
}

/// What one executed schedule produced, gathered back by frontier
/// index.
struct RunOutcome {
    record: Vec<Decision>,
    outcome: GuidedOutcome,
}

/// What one run reports back to [`explore_guided`]: the verdict plus
/// the optional guidance signals.
#[derive(Debug)]
pub struct GuidedOutcome {
    /// `Ok(())` or `Err(description)` if the run violated a property.
    pub verdict: Result<(), String>,
    /// The run's op trace from an [`OpTraceSink`](crate::OpTraceSink),
    /// step-aligned with the schedule. Leave empty for verdict-only
    /// exploration — DPOR pruning and canonical witnesses then degrade
    /// gracefully to schedule-based fingerprints.
    pub ops: Vec<crate::search::StepOp>,
    /// The run's search cost (e.g. its max per-passage RMR count);
    /// best-first expands expensive prefixes first.
    pub cost: u64,
}

impl GuidedOutcome {
    /// A verdict-only outcome: no op trace, zero cost.
    #[must_use]
    pub fn verdict_only(verdict: Result<(), String>) -> Self {
        GuidedOutcome {
            verdict,
            ops: Vec::new(),
            cost: 0,
        }
    }
}

/// Systematically explore the workload's interleavings.
///
/// `run` is called once per schedule with a fresh [`ForcedSchedule`]
/// policy; it must rebuild the *entire* workload state (memory, locks)
/// from scratch, drive it with the given policy, and return `Ok(())` or
/// `Err(description)` if the run violated a property. Runs execute
/// concurrently on [`ExploreOptions::jobs`] workers, so `run` must be
/// `Sync`; exploration stops at the first wave containing a violation
/// and reports the lexicographically least failing prefix.
///
/// ```
/// use sal_runtime::{explore, ExploreOptions, simulate, SimOptions};
/// use sal_memory::{Mem, MemoryBuilder};
///
/// let result = explore(&ExploreOptions::default(), |policy| {
///     let mut b = MemoryBuilder::new();
///     let w = b.alloc(0);
///     let mem = b.build_cc(2);
///     simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
///         ctx.mem.faa(ctx.pid, w, 1);
///     })
///     .map_err(|e| e.to_string())?;
///     if mem.read(0, w) == 2 { Ok(()) } else { Err("lost update".into()) }
/// });
/// result.assert_ok();
/// assert!(result.runs >= 2);
/// ```
pub fn explore<F>(opts: &ExploreOptions, run: F) -> ExplorationResult
where
    F: Fn(ForcedSchedule) -> Result<(), String> + Sync,
{
    explore_guided(opts, Strategy::Bfs, |policy| {
        GuidedOutcome::verdict_only(run(policy))
    })
}

/// [`explore`] with a pluggable [`Strategy`] and guidance signals.
///
/// The engine alternates strategy batches with parallel execution:
/// `next_batch` yields the forced prefixes to run, [`pool::par_map`]
/// executes them, outcomes are digested **in batch index order**
/// (fingerprints, cost tracking, violation selection) and handed back
/// to the strategy as one view per run. Everything the strategy or
/// the result can observe is therefore identical at any
/// [`ExploreOptions::jobs`] value.
///
/// `run` should wrap its memory in an
/// [`OpTraceSink`](crate::OpTraceSink) layer and report the trace and a
/// cost through [`GuidedOutcome`]; verdict-only outcomes
/// ([`GuidedOutcome::verdict_only`]) also work, with schedule-based
/// fingerprints standing in for state fingerprints.
pub fn explore_guided<F>(opts: &ExploreOptions, strategy: Strategy, run: F) -> ExplorationResult
where
    F: Fn(ForcedSchedule) -> GuidedOutcome + Sync,
{
    let jobs = pool::resolve_jobs(opts.jobs);
    let mut strat = strategy.build();
    let mut counters = SearchCounters::default();
    // Per-step cumulative fingerprints — the coverage metric.
    let mut states: HashSet<u64> = HashSet::new();
    // Final-state fingerprints — the dedup gate for child expansion.
    let mut final_seen: HashSet<u64> = HashSet::new();
    let mut runs = 0usize;
    let mut visited: Vec<Vec<Pid>> = Vec::new();
    let mut best: Option<(u64, Vec<Pid>)> = None;
    // Least violation seen, keyed by (canonical witness, forced
    // prefix) — batch digestion is index-ordered, so this minimum is
    // worker-count independent.
    struct Violation {
        canonical: Vec<Pid>,
        prefix: Vec<Pid>,
        schedule: Vec<Pid>,
        message: String,
    }
    let mut worst: Option<Violation> = None;
    let mut stopped_on_violation = false;

    loop {
        let remaining = opts.max_runs.saturating_sub(runs);
        if remaining == 0 {
            break;
        }
        let batch = strat.next_batch(remaining);
        if batch.is_empty() {
            break;
        }

        let wave: Vec<RunOutcome> = pool::par_map(jobs, &batch, |prefix| {
            let out = Arc::new(OnceLock::new());
            let policy = ForcedSchedule::new(prefix.clone(), Arc::clone(&out));
            let outcome = run(policy);
            // The policy published its trace on drop inside `run`; if a
            // caller leaked it the trace is simply empty (no children,
            // no witness) rather than wrong.
            let record = Arc::try_unwrap(out)
                .map(|cell| cell.into_inner().unwrap_or_default())
                .unwrap_or_default();
            RunOutcome { record, outcome }
        });
        runs += wave.len();

        // Digest in index order: fingerprints, cost, violations.
        let mut digests: Vec<(Vec<Pid>, bool, usize)> = Vec::with_capacity(wave.len());
        for (i, o) in wave.iter().enumerate() {
            let schedule: Vec<Pid> = o.record.iter().map(|d| d.chosen).collect();
            let scan = run_fingerprints(&schedule, &o.outcome.ops);
            let new_states = scan
                .step_fps
                .iter()
                .filter(|&&fp| states.insert(fp))
                .count();
            let fresh = final_seen.insert(scan.final_fp);
            if opts.collect_schedules {
                visited.push(schedule.clone());
            }
            let better = match &best {
                None => true,
                Some((c, s)) => o.outcome.cost > *c || (o.outcome.cost == *c && schedule < *s),
            };
            if better {
                best = Some((o.outcome.cost, schedule.clone()));
            }
            if let Err(msg) = &o.outcome.verdict {
                let candidate = Violation {
                    canonical: canonical_schedule(&schedule, &o.outcome.ops),
                    prefix: batch[i].clone(),
                    schedule: schedule.clone(),
                    message: msg.clone(),
                };
                let lesser = match &worst {
                    None => true,
                    Some(w) => {
                        (&candidate.canonical, &candidate.prefix) < (&w.canonical, &w.prefix)
                    }
                };
                if lesser {
                    worst = Some(candidate);
                }
            }
            digests.push((schedule, fresh, new_states));
        }

        if opts.stop_on_violation && worst.is_some() {
            // Classic behaviour: the first batch containing a failure
            // ends the search, children unexpanded. Not a truncation —
            // the witness is the point of the search.
            stopped_on_violation = true;
            break;
        }

        let views: Vec<RunView<'_>> = wave
            .iter()
            .zip(&digests)
            .zip(&batch)
            .map(|((o, (schedule, fresh, new_states)), prefix)| RunView {
                prefix,
                record: &o.record,
                schedule,
                ops: &o.outcome.ops,
                cost: o.outcome.cost,
                fresh: *fresh,
                new_states: *new_states,
            })
            .collect();
        strat.absorb(&views, opts, &mut counters);
    }

    let truncated_runs = if stopped_on_violation {
        0
    } else {
        strat.pending()
    };
    let (best_cost, best_schedule) = best.unwrap_or((0, Vec::new()));
    let (violation, violation_canonical) = match worst {
        Some(w) => (Some((w.schedule, w.message)), Some(w.canonical)),
        None => (None, None),
    };
    ExplorationResult {
        runs,
        truncated: truncated_runs > 0,
        truncated_runs,
        pruned: counters.pruned,
        deduped: counters.deduped,
        distinct_states: states.len(),
        best_cost,
        best_schedule,
        violation,
        violation_canonical,
        visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SimOptions};
    use sal_memory::{Mem, MemoryBuilder};

    #[test]
    fn round_robin_default_wraps() {
        assert_eq!(ForcedSchedule::round_robin_default(None, &[0, 2, 3]), 0);
        assert_eq!(ForcedSchedule::round_robin_default(Some(0), &[0, 2, 3]), 2);
        assert_eq!(ForcedSchedule::round_robin_default(Some(3), &[0, 2, 3]), 0);
        assert_eq!(ForcedSchedule::round_robin_default(Some(1), &[0, 2, 3]), 2);
    }

    #[test]
    fn recorder_publishes_on_drop() {
        let out = Arc::new(OnceLock::new());
        let mut policy = ForcedSchedule::new(vec![1], Arc::clone(&out));
        let finished = [false, false];
        policy.next(&SchedStatus {
            finished: &finished,
            step: 0,
        });
        assert!(out.get().is_none(), "published before the run ended");
        drop(policy);
        let record = out.get().expect("drop must publish");
        assert_eq!(record.len(), 1);
        assert_eq!(record[0].chosen, 1);
    }

    #[test]
    fn forced_peek_and_commit_match_per_step_consumption() {
        let finished = [false, false, true];
        let status = SchedStatus {
            finished: &finished,
            step: 0,
        };
        // Prefix: run of 1s with an interleaved entry for finished pid 2
        // (skipped), then a 0 that ends the run.
        let prefix = vec![1, 1, 2, 1, 0, 1];

        let per_step: Vec<Pid> = {
            let out = Arc::new(OnceLock::new());
            let mut a = ForcedSchedule::new(prefix.clone(), Arc::clone(&out));
            (0..8).map(|_| a.next(&status)).collect()
        };

        let out = Arc::new(OnceLock::new());
        let mut b = ForcedSchedule::new(prefix, Arc::clone(&out));
        let mut leased = Vec::new();
        while leased.len() < 8 {
            let p = b.next(&status);
            leased.push(p);
            let extra = b.peek_run(&status, p).min(8 - leased.len() as u64);
            if extra > 0 {
                b.commit_run(p, extra);
                leased.extend(std::iter::repeat_n(p, extra as usize));
            }
        }
        assert_eq!(per_step, leased);
        // The published decision records must be identical too — the
        // explorer's child expansion depends on them.
        drop(b);
        let record = out.get().expect("drop publishes");
        let rec_choices: Vec<Pid> = record.iter().map(|d| d.chosen).collect();
        assert_eq!(rec_choices, per_step);
        assert!(record.iter().all(|d| d.live == vec![0, 1]));
    }

    #[test]
    fn forced_solo_survivor_peeks_unbounded() {
        let finished = [true, false];
        let status = SchedStatus {
            finished: &finished,
            step: 0,
        };
        let out = Arc::new(OnceLock::new());
        let mut f = ForcedSchedule::new(vec![], Arc::clone(&out));
        let p = f.next(&status);
        assert_eq!(p, 1);
        assert_eq!(f.peek_run(&status, p), u64::MAX);
        f.commit_run(p, 3);
        drop(f);
        assert_eq!(out.get().unwrap().len(), 4);
    }

    /// A racy "lock": non-atomic test-then-set. Round-robin alone does
    /// not break it in this workload, but a single deviation does — the
    /// explorer must find the mutual-exclusion violation.
    #[test]
    fn finds_the_race_in_a_broken_lock() {
        let result = explore(
            &ExploreOptions {
                max_deviations: 1,
                max_runs: 10_000,
                max_branch_depth: 100,
                ..ExploreOptions::default()
            },
            |policy| {
                let mut b = MemoryBuilder::new();
                let flag = b.alloc(0);
                let in_cs = b.alloc(0);
                let max_seen = b.alloc(0);
                let mem = b.build_cc(2);
                simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
                    // BROKEN: read, then write — not atomic.
                    loop {
                        if ctx.mem.read(ctx.pid, flag) == 0 {
                            ctx.mem.write(ctx.pid, flag, 1); // should be CAS!
                            break;
                        }
                    }
                    let inside = ctx.mem.faa(ctx.pid, in_cs, 1) + 1;
                    let seen = ctx.mem.read(ctx.pid, max_seen);
                    if inside > seen {
                        ctx.mem.write(ctx.pid, max_seen, inside);
                    }
                    ctx.mem.faa(ctx.pid, in_cs, 1u64.wrapping_neg());
                    ctx.mem.write(ctx.pid, flag, 0);
                })
                .map_err(|e| e.to_string())?;
                if mem.read(0, max_seen) > 1 {
                    Err("two processes in the CS".into())
                } else {
                    Ok(())
                }
            },
        );
        assert!(
            result.violation.is_some(),
            "explorer missed the race after {} runs",
            result.runs
        );
    }

    /// The same workload with a real CAS is correct under every explored
    /// schedule.
    #[test]
    fn verifies_a_correct_lock() {
        let result = explore(
            &ExploreOptions {
                max_deviations: 2,
                max_runs: 3_000,
                max_branch_depth: 60,
                ..ExploreOptions::default()
            },
            |policy| {
                let mut b = MemoryBuilder::new();
                let flag = b.alloc(0);
                let in_cs = b.alloc(0);
                let max_seen = b.alloc(0);
                let mem = b.build_cc(2);
                simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
                    while !ctx.mem.cas(ctx.pid, flag, 0, 1) {}
                    let inside = ctx.mem.faa(ctx.pid, in_cs, 1) + 1;
                    let seen = ctx.mem.read(ctx.pid, max_seen);
                    if inside > seen {
                        ctx.mem.write(ctx.pid, max_seen, inside);
                    }
                    ctx.mem.faa(ctx.pid, in_cs, 1u64.wrapping_neg());
                    ctx.mem.write(ctx.pid, flag, 0);
                })
                .map_err(|e| e.to_string())?;
                if mem.read(0, max_seen) > 1 {
                    Err("two processes in the CS".into())
                } else {
                    Ok(())
                }
            },
        );
        result.assert_ok();
        assert!(result.runs > 50, "explored only {} schedules", result.runs);
    }

    #[test]
    fn run_budget_truncates() {
        let result = explore(
            &ExploreOptions {
                max_deviations: 3,
                max_runs: 5,
                max_branch_depth: 100,
                ..ExploreOptions::default()
            },
            |policy| {
                let mut b = MemoryBuilder::new();
                let w = b.alloc(0);
                let mem = b.build_cc(3);
                simulate(&mem, 3, Box::new(policy), SimOptions::default(), |ctx| {
                    for _ in 0..5 {
                        ctx.mem.faa(ctx.pid, w, 1);
                    }
                })
                .map_err(|e| e.to_string())
                .map(|_| ())
            },
        );
        assert_eq!(result.runs, 5);
        assert!(result.truncated);
        assert!(result.violation.is_none());
    }

    #[test]
    fn zero_deviations_is_exactly_one_run() {
        let result = explore(
            &ExploreOptions {
                max_deviations: 0,
                max_runs: 100,
                ..ExploreOptions::default()
            },
            |policy| {
                let mut b = MemoryBuilder::new();
                let w = b.alloc(0);
                let mem = b.build_cc(2);
                simulate(&mem, 2, Box::new(policy), SimOptions::default(), |ctx| {
                    ctx.mem.faa(ctx.pid, w, 1);
                })
                .map_err(|e| e.to_string())
                .map(|_| ())
            },
        );
        assert_eq!(result.runs, 1);
        assert!(!result.truncated);
    }
}
