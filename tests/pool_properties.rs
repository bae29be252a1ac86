//! Properties of the experiment engine's fan-out, `pool::par_map`:
//! index-ordered gathering under skewed job sizes, panic hygiene (every
//! sibling runs, and the lowest-index panic is the one re-raised),
//! inline execution at one job, and nested fan-out. Everything here
//! must hold at any worker count, including on a single-CPU box where
//! threads time-slice.

use sal_runtime::pool::{par_map, resolve_jobs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Heavily skewed job sizes: one job is ~1000x the others. The gather
/// must still come back in index order with every cell present.
#[test]
fn skewed_job_sizes_gather_in_order() {
    let work = |&i: &usize| -> u64 {
        // Cell 0 is the giant; the rest are tiny.
        let iters = if i == 0 { 200_000 } else { 200 };
        let mut acc = i as u64;
        for k in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
        }
        acc
    };
    let items: Vec<usize> = (0..64).collect();
    let serial: Vec<u64> = items.iter().map(work).collect();
    for jobs in [1, 2, 4, 8] {
        let par = par_map(jobs, &items, work);
        assert_eq!(par, serial, "jobs={jobs}");
    }
}

/// Panicking jobs propagate to the caller only after every sibling job
/// has run, and the payload re-raised is the lowest-index panic's —
/// whichever job panicked first in time — so the failure a caller sees
/// is the same at every worker count. Nothing is left poisoned: a fresh
/// call works afterwards.
#[test]
fn panic_propagates_without_wedging_the_pool() {
    let items: Vec<usize> = (0..32).collect();
    for jobs in [1, 2, 4] {
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            par_map(jobs, &items, |&i| {
                ran.fetch_add(1, Ordering::SeqCst);
                match i {
                    3 => panic!("job 3 detonates"),
                    7 => panic!("job 7 detonates"),
                    _ => i,
                }
            })
        });
        let payload = result.expect_err("the job panic must reach the caller");
        assert_eq!(ran.load(Ordering::SeqCst), 32, "jobs={jobs}");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("job 3 detonates"), "jobs={jobs}");
    }
    let again = par_map(4, &items[..16], |&i| i * 2);
    assert_eq!(again, (0..16).map(|i| i * 2).collect::<Vec<_>>());
}

/// At one job every item runs inline on the calling thread: the serial
/// baseline is the same claim loop, minus threads.
#[test]
fn one_job_runs_on_the_callers_thread() {
    let caller = thread::current().id();
    let items: Vec<usize> = (0..16).collect();
    let ran_on = par_map(1, &items, |_| thread::current().id());
    assert_eq!(ran_on, vec![caller; items.len()]);
}

/// Nested parallel maps (a fan-out inside a job) complete rather than
/// deadlocking — each nested call runs on its own scoped threads.
#[test]
fn nested_par_map_completes() {
    let outer: Vec<usize> = (0..4).collect();
    let inner: Vec<usize> = (0..3).collect();
    let sums = par_map(2, &outer, |&i| {
        par_map(2, &inner, |&j| i * 10 + j).iter().sum::<usize>()
    });
    assert_eq!(sums, vec![3, 33, 63, 93]);
}

/// `resolve_jobs(0)` is auto (>= 1); positive counts are taken as-is.
#[test]
fn zero_jobs_resolves_to_auto() {
    assert!(resolve_jobs(0) >= 1);
    assert_eq!(resolve_jobs(5), 5);
}

/// Empty input returns an empty gather without running any job.
#[test]
fn empty_input_is_a_no_op() {
    let out: Vec<usize> = par_map(8, &[] as &[usize], |_| unreachable!());
    assert!(out.is_empty());
}
