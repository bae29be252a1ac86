//! Watch the algorithm pay (and avoid) remote memory references.
//!
//! Runs the paper's one-shot lock inside the deterministic simulator
//! under the exact CC cost model and prints, per process: the passage
//! outcome, the RMRs it cost, and the event timeline — first with no
//! aborts (everyone pays O(1)), then with an abort storm (completing
//! passages pay O(log_W A)).
//!
//! Run with: `cargo run --example rmr_trace`

use sal_bench::{build_lock, LockKind};
use sal_obs::NoProbe;
use sal_runtime::{run_lock, EventKind, ProcPlan, RandomSchedule, WorkloadSpec};

fn run(n: usize, aborters: usize, label: &str) {
    println!("\n--- {label} (N = {n}, {aborters} aborters, B = 8) ---");
    let built = build_lock(LockKind::OneShot { b: 8 }, n, n);
    let mut plans = vec![ProcPlan::normal(1)];
    plans.extend(vec![ProcPlan::aborter(1, 6 * n as u64); aborters]);
    plans.extend(vec![ProcPlan::normal(1); n - 1 - aborters]);
    let spec = WorkloadSpec {
        plans,
        cs_ops: 1,
        max_steps: 5_000_000,
        lease: sal_runtime::default_lease(),
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        Box::new(RandomSchedule::seeded(2024)),
        NoProbe,
    )
    .expect("simulation failed");

    report.assert_safe();
    let mut passages = report.passages.clone();
    passages.sort_by_key(|p| p.pid);
    for p in &passages {
        println!(
            "  process {:>2}: {} in {:>3} RMRs",
            p.pid,
            if p.entered {
                "entered CS"
            } else {
                "aborted   "
            },
            p.rmrs
        );
    }
    println!(
        "  => max complete-passage cost: {} RMRs | max aborted-attempt cost: {} RMRs | {} steps total",
        report.max_entered_rmrs(),
        report.max_aborted_rmrs(),
        report.steps
    );
    println!(
        "  safety: mutual exclusion {}, FCFS {}",
        if report.mutex_check.is_ok() {
            "held"
        } else {
            "VIOLATED"
        },
        if report.fcfs_check.is_ok() {
            "held"
        } else {
            "VIOLATED"
        },
    );
}

fn main() {
    println!("RMR accounting demo — the paper's one-shot abortable lock (Figure 1 + Figure 3)");

    // Paper claim (abstract): "if no process aborts during a passage,
    // its RMR cost is O(1)".
    run(16, 0, "no aborts: every passage is O(1)");

    // Paper claim (Theorem 2): a complete passage costs O(log_W A_i).
    run(16, 13, "abort storm: completing passages pay O(log_W A)");

    // Bonus: a peek at the raw event log of a tiny run. The harness
    // records a one-shot lock's doorway tickets, which is what the FCFS
    // verdict above is checked against.
    println!("\n--- event timeline (N = 3, process 1 aborts) ---");
    let built = build_lock(LockKind::OneShot { b: 2 }, 3, 3);
    let spec = WorkloadSpec {
        plans: vec![
            ProcPlan::normal(1),
            ProcPlan::aborter(1, 12),
            ProcPlan::normal(1),
        ],
        cs_ops: 1,
        max_steps: 100_000,
        lease: sal_runtime::default_lease(),
    };
    let report = run_lock(
        &built.lock,
        &built.mem,
        built.cs_word,
        &spec,
        Box::new(RandomSchedule::seeded(7)),
        NoProbe,
    )
    .expect("simulation failed");
    for e in &report.events {
        let what = match e.kind {
            EventKind::EnterStart => "invokes Enter()".to_string(),
            EventKind::Doorway(t) => format!("completes the doorway with ticket {t}"),
            EventKind::CsEnter => "enters the critical section".to_string(),
            EventKind::CsLeave => "leaves the critical section".to_string(),
            EventKind::ExitDone => "completes Exit()".to_string(),
            EventKind::Aborted => "aborts its attempt".to_string(),
            EventKind::Custom(name, v) => format!("{name} = {v}"),
        };
        println!("  step {:>4}: process {} {}", e.step, e.pid, what);
    }
}
