//! `sim-rmr`: the CC simulator runs the paper's `long-lived(B=4)` at
//! N=8 with N/2 aborters, 4 passages per process, under seeded random
//! schedules (the `amortized_sweep` shape), followed by a fixed-budget
//! DPOR `explore_guided` of the contended 4-process cell. RMR counts
//! are exact. The simulator's 8 threads, one per simulated process, are
//! the program's own design; the benchmark adds none.

use crate::common::{median, ns32, timed_setup, write_spans, Dist, Progress, RunResult, Tracer};
use crate::Config;
use sal_core::long_lived::BoundedLongLivedLock;
use sal_core::LockCore;
use sal_memory::{
    AbortSignal, CcMemory, Layered, Mem, MemoryBuilder, NeverAbort, SignalFn, WordId,
};
use sal_obs::{probed, AmortizedStats, NoProbe, PassageStats};
use sal_runtime::{
    explore_guided, run_lock_core, simulate, EventKind, ExploreOptions, ForcedSchedule,
    GuidedOutcome, OpTraceSink, ProcPlan, RandomSchedule, Role, SimOptions, SmallRng, Strategy,
    WorkloadSpec,
};
use std::sync::Mutex;
use std::time::Instant;

const N: usize = 8;
const B: usize = 4;
const ABORTERS: usize = N / 2;
const PASSAGES: usize = 4;
const ABORT_AFTER: u64 = 8 * N as u64;
const CS_OPS: usize = 2;
const MAX_STEPS: u64 = 60_000_000;
/// Simulated rounds per cycle; a run repeats whole cycles.
const ROUNDS: usize = 8;
const EXPLORE_N: usize = 4;
const EXPLORE_BUDGET: usize = 400;
const EXPLORE_MAX_STEPS: u64 = 200_000;
const CC_PASSAGES: usize = 20_000;
/// The simulator's step-lease cap, fixed at its default (unbounded)
/// rather than read from the environment; every value yields the same
/// execution.
const LEASE: u64 = 0;
const RING: usize = 1 << 20;
const SETUP_REPS: usize = 51;

const ROUND: usize = 0;
const BUILD: usize = 1;
const ENTER: usize = 2;
const EXIT: usize = 3;
const SPAN_NAMES: [&str; 4] = ["sim.round", "sim.build", "core.enter", "core.exit"];

/// The `amortized_sweep` plans: one normal process, the aborters, then
/// the remaining normals.
fn plans() -> Vec<ProcPlan> {
    let mut p = vec![ProcPlan::normal(PASSAGES)];
    p.extend(vec![ProcPlan::aborter(PASSAGES, ABORT_AFTER); ABORTERS]);
    p.extend(vec![ProcPlan::normal(PASSAGES); N - 1 - ABORTERS]);
    p
}

fn build(n: usize) -> (BoundedLongLivedLock, WordId, CcMemory) {
    let mut b = MemoryBuilder::new();
    let lock = BoundedLongLivedLock::layout(&mut b, n, B);
    let cs = b.alloc(0);
    (lock, cs, b.build_cc(n))
}

/// The counts of one cycle; every cycle at one seed must repeat them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct CycleCounts {
    steps: u64,
    amortized: Option<AmortizedStatsEq>,
    entered_max: u64,
    aborted_max: u64,
}

/// `AmortizedStats` with the float dropped, so counts compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AmortizedStatsEq {
    total_rmrs: u64,
    passages: u64,
    entered: u64,
    aborted: u64,
    max_passage_rmrs: u64,
}

impl From<AmortizedStats> for AmortizedStatsEq {
    fn from(a: AmortizedStats) -> Self {
        AmortizedStatsEq {
            total_rmrs: a.total_rmrs,
            passages: a.passages,
            entered: a.entered,
            aborted: a.aborted,
            max_passage_rmrs: a.max_passage_rmrs,
        }
    }
}

struct Round {
    steps: u64,
    stats: PassageStats,
    acquire: Vec<u32>,
    sim_ns: u64,
}

/// One simulated round. Every call into the lock is timed from the
/// simulated process's body; the step gate makes the execution a
/// function of `seed` alone.
fn round(
    seed: u64,
    plans: &[ProcPlan],
    tracer: Option<&Mutex<Tracer>>,
    r: &mut RunResult,
) -> Option<Round> {
    let tb = Instant::now();
    let (lock, cs, mem) = build(N);
    let built = Instant::now();
    let stats = PassageStats::new();
    let per_pid: Vec<Mutex<Vec<u32>>> = (0..N).map(|_| Mutex::new(Vec::new())).collect();
    let opts = SimOptions {
        max_steps: MAX_STEPS,
        abort_plan: vec![],
        lease: LEASE,
    };
    let attempts: usize = plans.iter().map(|p| p.passages).sum();
    let report = simulate(
        &mem,
        N,
        Box::new(RandomSchedule::seeded(seed)),
        opts,
        |ctx| {
            let plan = plans[ctx.pid];
            let mut acquire = per_pid[ctx.pid].lock().expect("per-pid samples");
            for _ in 0..plan.passages {
                ctx.event(EventKind::EnterStart);
                let t0 = Instant::now();
                let outcome = match plan.role {
                    Role::Normal => lock.enter_core(ctx.mem, ctx.pid, &NeverAbort, &stats),
                    Role::AbortAfter(steps) => {
                        let deadline = ctx.steps() + steps;
                        let external = ctx.signal;
                        let signal = SignalFn(|| ctx.steps() >= deadline || external.is_set());
                        lock.enter_core(ctx.mem, ctx.pid, &signal, &stats)
                    }
                };
                let t1 = Instant::now();
                if outcome.entered() {
                    acquire.push(ns32(t1 - t0));
                    ctx.event(EventKind::CsEnter);
                    let pm = probed(ctx.mem, &stats);
                    for _ in 0..CS_OPS {
                        pm.faa(ctx.pid, cs, 1);
                    }
                    ctx.event(EventKind::CsLeave);
                    let t2 = Instant::now();
                    lock.exit_core(ctx.mem, ctx.pid, &stats);
                    if let Some(tr) = tracer {
                        let t3 = Instant::now();
                        let mut tr = tr.lock().expect("tracer lock");
                        tr.span(ENTER, 0, t0, t1);
                        tr.span(EXIT, 0, t2, t3);
                    }
                    ctx.event(EventKind::ExitDone);
                } else {
                    ctx.event(EventKind::Aborted);
                }
            }
        },
    );
    let sim_ns = built.elapsed().as_nanos() as u64;
    if let Some(tr) = tracer {
        let mut tr = tr.lock().expect("tracer lock");
        let root = tr.id();
        tr.span(BUILD, root, tb, built);
        tr.record(root, ROUND, 0, tb, Instant::now());
    }
    let report = match report {
        Ok(rep) => rep,
        Err(e) => {
            r.fail(attempts as u64, format!("round seed {seed}: {e}"));
            return None;
        }
    };
    if let Err(v) = report.log.check_mutual_exclusion() {
        r.fail(
            attempts as u64,
            format!("round seed {seed}: mutual exclusion violated: {v:?}"),
        );
    }
    let resolved: usize = report.log.outcomes(N).iter().map(|&(e, a)| e + a).sum();
    if resolved != attempts {
        r.fail(
            (attempts - resolved) as u64,
            format!("round seed {seed}: {resolved}/{attempts} attempts resolved"),
        );
    }
    // Every RMR of the run happened inside some passage, so the probe's
    // total must equal the memory's own counter exactly.
    if stats.amortized().total_rmrs != mem.total_rmrs() {
        r.fail(
            attempts as u64,
            format!("round seed {seed}: probe RMRs differ from the memory's count"),
        );
    }
    if mem.read(0, cs) != (stats.total_entered() * CS_OPS) as u64 {
        r.fail(
            attempts as u64,
            format!("round seed {seed}: lost update on the CS word"),
        );
    }
    Some(Round {
        steps: report.steps,
        stats,
        acquire: per_pid
            .into_iter()
            .flat_map(|m| m.into_inner().expect("per-pid samples"))
            .collect(),
        sim_ns,
    })
}

struct PhaseOut {
    first: CycleCounts,
    cycles: u64,
    attempts: u64,
    steps: u64,
    sim_ns: u64,
    seconds: f64,
    /// Per cycle: entered passages per second, acquire p50 and p99.
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    samples: u64,
}

/// Whole cycles until `seconds` have passed; every cycle's counts must
/// repeat the first's. Rates and percentiles are per cycle; the run
/// reports their medians.
fn phase(
    seeds: &[u64],
    seconds: f64,
    tracer: Option<&Mutex<Tracer>>,
    progress: &Progress,
    r: &mut RunResult,
) -> PhaseOut {
    let plans = plans();
    let per_round: u64 = plans.iter().map(|p| p.passages as u64).sum();
    let mut p = PhaseOut {
        first: CycleCounts::default(),
        cycles: 0,
        attempts: 0,
        steps: 0,
        sim_ns: 0,
        seconds: 0.0,
        rates: Vec::new(),
        p50s: Vec::new(),
        p99s: Vec::new(),
        samples: 0,
    };
    let t0 = Instant::now();
    while p.cycles == 0 || p.seconds < seconds {
        let tc = Instant::now();
        let master = PassageStats::new();
        let mut c = CycleCounts::default();
        let mut acquire = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let done = p.attempts + per_round * i as u64;
            progress.report(0, done + per_round, done, 0);
            let Some(round) = round(seed, &plans, tracer, r) else {
                continue;
            };
            c.steps += round.steps;
            p.sim_ns += round.sim_ns;
            master.merge_from(&round.stats);
            acquire.extend(round.acquire);
        }
        p.attempts += per_round * seeds.len() as u64;
        progress.report(0, p.attempts, p.attempts, 0);
        let a = master.amortized();
        c.amortized = Some(a.into());
        c.entered_max = master.max_entered_rmrs();
        c.aborted_max = master.max_aborted_rmrs();
        if p.cycles == 0 {
            p.first = c;
        } else if c != p.first {
            r.fail(
                per_round * seeds.len() as u64,
                format!(
                    "cycle counts differ at a fixed seed: {c:?} vs {:?}",
                    p.first
                ),
            );
        }
        p.rates.push(a.entered as f64 / tc.elapsed().as_secs_f64());
        let d = Dist::from_vec(acquire);
        p.p50s.push(d.pct(0.5));
        p.p99s.push(d.pct(0.99));
        p.samples += d.len() as u64;
        p.cycles += 1;
        p.steps += c.steps;
        p.seconds = t0.elapsed().as_secs_f64();
    }
    p
}

/// The seeded inputs: one schedule seed per round of a cycle, and the
/// explored cell's abort deadline (8N plus a jitter of up to 3 steps).
fn inputs(seed: u64) -> (Vec<u64>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5151);
    let seeds = (0..ROUNDS).map(|_| rng.next_u64()).collect();
    (seeds, 8 * EXPLORE_N as u64 + rng.next_u64() % 4)
}

/// The whole simulated experiment as a workload of its own. Run by hand
/// (`--workload sim-rmr`): its wall-clock figures measure the host's
/// thread wake-up latency as much as the simulator, so the benchmark's
/// gate does not use them; see NOTES.md.
pub fn run(cfg: &Config, progress: &Progress) -> RunResult {
    let mut r = RunResult::default();
    r.note(format!(
        "loop: closed, CC simulator, long-lived(B={B}) N={N}, {ABORTERS} aborters (deadline {ABORT_AFTER} steps), {PASSAGES} passages each, cycles of {ROUNDS} seeded random-schedule rounds; then DPOR explore_guided of the contended N={EXPLORE_N} cell, budget {EXPLORE_BUDGET} runs"
    ));
    let (seeds, explore_abort_after) = inputs(cfg.seed);

    // Set-up: what every round builds, the lock layout and its memory.
    let (_, setup_s) = timed_setup(SETUP_REPS, || build(N));
    r.metric("setup_s", setup_s, "s");

    let untraced = phase(&seeds, cfg.untraced_seconds(), None, progress, &mut r);
    let pps = median(untraced.rates.clone());
    r.note(format!(
        "simulated acquire, wall time of enter_core (untraced): {} exact samples over {} cycles of {:.3} s; medians over cycles",
        untraced.samples,
        untraced.cycles,
        untraced.seconds / untraced.cycles as f64
    ));
    r.metric("passages_per_s", pps, "1/s");
    r.metric("acquire_p50_ns", median(untraced.p50s.clone()), "ns");
    r.metric("acquire_p99_ns", median(untraced.p99s.clone()), "ns");
    let mut attempted = untraced.attempts;

    if cfg.trace {
        let (traced_pps, attempts) =
            layer_cells(cfg.seed, cfg.seconds / 2.0, cfg.workload, progress, &mut r);
        attempted += attempts;
        r.overhead(pps, traced_pps);
    } else {
        // The search's safety verdict is checked on every run.
        attempted += explore_cell(explore_abort_after, progress, &mut r);
    }
    r.attempted = attempted;
    r
}

/// The simulator, search and CC-memory layers, measured in a traced
/// run: traced cycles of the `sim-rmr` shape for `seconds` (at least
/// one cycle), the DPOR exploration and the ungated CC cell. Returns the
/// traced cycles' median passages/s and the attempts made.
pub fn layer_cells(
    seed: u64,
    seconds: f64,
    workload: &str,
    progress: &Progress,
    r: &mut RunResult,
) -> (f64, u64) {
    let (seeds, explore_abort_after) = inputs(seed);
    let tracer = Mutex::new(Tracer::new(
        Instant::now(),
        0,
        SPAN_NAMES.len(),
        RING,
        20_000,
    ));
    let traced = phase(&seeds, seconds, Some(&tracer), progress, r);
    let f = traced.first;
    let a = f.amortized.expect("one cycle ran");
    r.note(format!(
        "sim cells, per cycle ({} cycles): steps {} passages {} entered {} aborted {} rmr total {} max passage {}",
        traced.cycles, f.steps, a.passages, a.entered, a.aborted, a.total_rmrs, a.max_passage_rmrs
    ));
    let tracers = [tracer.into_inner().expect("tracer lock")];
    let builds = crate::common::span_dist(&tracers, BUILD);
    r.note(builds.describe("sim.build span"));
    r.metric("sim.steps", f.steps as f64, "count");
    r.metric(
        "sim.ns_per_step",
        traced.sim_ns as f64 / traced.steps.max(1) as f64,
        "ns",
    );
    r.metric("sim.build_ns", builds.pct(0.5), "ns");
    r.metric(
        "rmr.per_passage",
        a.total_rmrs as f64 / a.passages.max(1) as f64,
        "rmr",
    );
    r.metric("rmr.max_passage", a.max_passage_rmrs as f64, "rmr");
    r.metric("rmr.entered_max", f.entered_max as f64, "rmr");
    r.metric("rmr.aborted_max", f.aborted_max as f64, "rmr");
    r.metric("rmr.total", a.total_rmrs as f64, "rmr");
    let file = format!("spans-{workload}-sim-seed{seed}.jsonl");
    write_spans(r, &file, &SPAN_NAMES, &tracers);
    let attempts = traced.attempts + explore_cell(explore_abort_after, progress, r);
    cc_cell(r);
    (median(traced.rates), attempts)
}

/// The search at a fixed run budget (its counts are exact); a violation
/// fails the run. Returns the runs made.
fn explore_cell(abort_after: u64, progress: &Progress, r: &mut RunResult) -> u64 {
    progress.beat();
    let opts = ExploreOptions {
        max_runs: EXPLORE_BUDGET,
        jobs: 1,
        ..ExploreOptions::default()
    };
    let t0 = Instant::now();
    let ex = explore_guided(&opts, Strategy::Dpor, |policy| {
        guided_run(policy, abort_after)
    });
    let secs = t0.elapsed().as_secs_f64();
    progress.beat();
    if let Some((schedule, msg)) = &ex.violation {
        r.fail(
            1,
            format!("exploration found a violation: {msg} (schedule {schedule:?})"),
        );
    }
    r.note(format!(
        "explore: runs {} pruned {} deduped {} distinct_states {} in {secs:.3} s",
        ex.runs, ex.pruned, ex.deduped, ex.distinct_states
    ));
    r.metric("explore.runs", ex.runs as f64, "count");
    r.metric("explore.pruned", ex.pruned as f64, "count");
    r.metric("explore.deduped", ex.deduped as f64, "count");
    r.metric(
        "explore.distinct_states",
        ex.distinct_states as f64,
        "count",
    );
    r.metric("explore.runs_per_s", ex.runs as f64 / secs, "1/s");
    r.metric(
        "explore.states_per_s",
        ex.distinct_states as f64 / secs,
        "1/s",
    );
    ex.runs as u64
}

/// The explored cell: `ExploreCell::contended` for `long-lived(B=4)` —
/// one normal process, `n - 2` aborters, one more normal; one passage
/// each, under the engine's forced schedule.
fn guided_run(policy: ForcedSchedule, abort_after: u64) -> GuidedOutcome {
    let mut plans = vec![ProcPlan::normal(1)];
    plans.extend(vec![ProcPlan::aborter(1, abort_after); EXPLORE_N - 2]);
    plans.push(ProcPlan::normal(1));
    let attempts = plans.len();
    let (lock, cs, mem) = build(EXPLORE_N);
    let traced = Layered::over(&mem, OpTraceSink::new());
    let spec = WorkloadSpec {
        plans,
        cs_ops: CS_OPS,
        max_steps: EXPLORE_MAX_STEPS,
        lease: LEASE,
    };
    let report = run_lock_core(&lock, &traced, cs, &spec, Box::new(policy));
    let ops = traced.into_layer().take();
    let report = match report {
        Ok(rep) => rep,
        Err(e) => {
            return GuidedOutcome {
                verdict: Err(e.to_string()),
                ops,
                cost: 0,
            }
        }
    };
    let resolved: usize = report.outcomes.iter().map(|&(e, a)| e + a).sum();
    let verdict = match (&report.mutex_check, resolved == attempts) {
        (Err(v), _) => Err(format!("mutual exclusion violated: {v:?}")),
        (Ok(()), false) => Err(format!("only {resolved}/{attempts} attempts resolved")),
        (Ok(()), true) => Ok(()),
    };
    GuidedOutcome {
        verdict,
        ops,
        cost: report.stats.summary().max_entered_rmrs,
    }
}

/// The same lock over `CcMemory` with no step gate: passages run one
/// after another on this thread, so the simulator's gating cost is
/// `sim.ns_per_step` against this ungated passage cost.
fn cc_cell(r: &mut RunResult) {
    let (lock, cs, mem) = build(N);
    let mut times = Vec::with_capacity(CC_PASSAGES);
    for i in 0..CC_PASSAGES {
        let pid = i % N;
        let t0 = Instant::now();
        let o = lock.enter_core(&mem, pid, &NeverAbort, &NoProbe);
        debug_assert!(o.entered());
        for _ in 0..CS_OPS {
            mem.faa(pid, cs, 1);
        }
        lock.exit_core(&mem, pid, &NoProbe);
        times.push(ns32(t0.elapsed()));
    }
    if mem.read(0, cs) != (CC_PASSAGES * CS_OPS) as u64 {
        r.fail(CC_PASSAGES as u64, "cc cell: lost update");
    }
    let d = Dist::from_vec(times);
    r.note(d.describe("memory.cc_passage_ns (sequential, no step gate)"));
    r.metric("memory.cc_passage_ns.p50", d.pct(0.5), "ns");
}
