//! Dependency-free fan-out for independent jobs.
//!
//! Every experiment in this repo runs a fixed grid of *mutually
//! independent* deterministic simulations — (lock × N × seed) grid
//! cells, one wave of the systematic explorer's forced prefixes,
//! fairness seed sweeps. Each cell builds its own `CcMemory`, so jobs
//! share nothing; the only engineering problem is spreading a known
//! list of items over threads and gathering the results in a
//! deterministic order. The workspace is offline (no rayon), so
//! [`par_map`] does it by hand with the smallest shape that fits: scoped
//! threads claim item indices from one shared counter and write each
//! result into that index's own slot. There is no queue to balance —
//! a thread that finishes a short job simply claims the next index.
//!
//! Panics are caught per job: the remaining jobs still run (nothing is
//! poisoned or wedged), and after the join the panic of the
//! **lowest-index** failing job is re-raised on the caller's thread —
//! the same payload at any worker count. Nested calls are fine: a job
//! may itself call [`par_map`], which scopes its own threads.
//!
//! Determinism is the caller's contract and the design constraint:
//! results are gathered **by index**, so the output `Vec` is identical
//! whatever the interleaving of threads, and `jobs == 1` runs the same
//! claim loop inline on the caller's thread — the serial baseline is
//! the same code path, minus threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Parse a `SAL_JOBS`-style override. `None`, empty, unparsable or `0`
/// all mean "no override" (fall through to detected parallelism).
fn jobs_from(env: Option<&str>) -> Option<usize> {
    let n: usize = env?.trim().parse().ok()?;
    if n == 0 {
        None
    } else {
        Some(n)
    }
}

/// The default worker count: the `SAL_JOBS` environment variable if set
/// to a positive integer, else the machine's available parallelism,
/// else 1.
pub fn default_jobs() -> usize {
    jobs_from(std::env::var("SAL_JOBS").ok().as_deref())
        .or_else(|| thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// Resolve a worker-count knob: `0` means "auto" ([`default_jobs`]), any
/// other value is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        default_jobs()
    } else {
        jobs
    }
}

/// Evaluate `f` on every item of `items` on `jobs` threads (`0` = auto)
/// and gather the results **by index**: the returned `Vec` is
/// `[f(&items[0]), …]` regardless of which thread computed which item
/// or in what order — the deterministic-gather primitive every
/// experiment driver builds on. At most `items.len()` threads are
/// started, and with one the jobs run inline on the calling thread.
///
/// If any job panics, the remaining jobs still run; the panic of the
/// lowest-index failing job is re-raised here after the join.
pub fn par_map<C, R, F>(jobs: usize, items: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let slots: Vec<Mutex<Option<thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    // The counter only hands out indices; each result is published
    // through its slot's mutex and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { return };
        let result = catch_unwind(AssertUnwindSafe(|| f(item)));
        *slots[i].lock().expect("jobs run outside the slot lock") = Some(result);
    };
    let threads = resolve_jobs(jobs).min(items.len());
    if threads <= 1 {
        claim();
    } else {
        thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(claim);
            }
        });
    }
    slots
        .into_iter()
        .map(|slot| {
            let result = slot.into_inner().expect("jobs run outside the slot lock");
            let result = result.expect("every index is claimed before the join");
            result.unwrap_or_else(|payload| resume_unwind(payload))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_from_parses_overrides() {
        assert_eq!(jobs_from(None), None);
        assert_eq!(jobs_from(Some("")), None);
        assert_eq!(jobs_from(Some("banana")), None);
        assert_eq!(jobs_from(Some("0")), None);
        assert_eq!(jobs_from(Some("3")), Some(3));
        assert_eq!(jobs_from(Some(" 8 ")), Some(8));
    }

    #[test]
    fn resolve_zero_is_auto_and_positive_is_literal() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn gathers_by_index() {
        let items: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4] {
            let out = par_map(jobs, &items, |&i| i * i);
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map(4, &[] as &[usize], |&i| i);
        assert!(out.is_empty());
    }
}
