//! Dependency-free work-stealing job pool.
//!
//! Every experiment in this repo fans out over *mutually independent*
//! deterministic simulations — (lock × N × seed) grid cells, deviation
//! prefixes of the systematic explorer, fairness seed sweeps. Each cell
//! builds its own `CcMemory`, so workers share nothing but the queue;
//! the only engineering problem is distributing the cells and gathering
//! the results in a deterministic order. The workspace is offline (no
//! crossbeam, no rayon), so this module implements the classic shape by
//! hand:
//!
//! * a **sharded injector queue** — seed items are dealt round-robin
//!   across one FIFO shard per worker, so workers start on disjoint
//!   shards and only collide once their own shard drains;
//! * **per-worker LIFO deques** — work spawned *during* a job (e.g.
//!   child prefixes in [`explore`](crate::explore::explore)) is pushed to
//!   the owner's deque and popped from the back (cache-warm,
//!   depth-first), while idle workers steal from the *front* (the
//!   oldest, typically largest pieces);
//! * a **pending-jobs counter** for termination: a job is pending from
//!   enqueue until its closure returns, so a running job that is about
//!   to spawn children keeps the pool alive. When the counter hits zero
//!   every parked worker is woken and exits.
//!
//! Panics in jobs are caught per-job: the pool keeps draining the
//! remaining work (nothing is poisoned or wedged — extending PR 2's
//! poisoning fix to the experiment driver), and the *first* panic
//! payload is re-raised on the caller's thread after the pool shuts
//! down cleanly. Nested pools are supported: a job may itself call
//! [`par_map_indexed`] / [`run_jobs`], which builds an independent
//! inner pool.
//!
//! Determinism is the caller's contract and the pool's design
//! constraint: [`par_map_indexed`] gathers results **by index**, so the
//! output `Vec` is identical whatever the interleaving of workers, and
//! `jobs == 1` runs the same worker loop inline on the caller's thread
//! — the serial baseline is the same code path, minus threads.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
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

struct Shared<T> {
    /// Global FIFO shards; seed item `i` lands in shard `i % workers`.
    injector: Vec<Mutex<VecDeque<T>>>,
    /// Per-worker deques: owner pushes/pops the back, thieves pop the
    /// front.
    locals: Vec<Mutex<VecDeque<T>>>,
    /// Jobs enqueued but not yet *completed* (still counted while the
    /// closure runs, so an executing job that is about to spawn keeps
    /// the pool alive).
    pending: AtomicUsize,
    /// Enqueue sequence number, bumped under `gate` on every dynamic
    /// spawn. A worker reads it *before* scanning the queues and
    /// re-checks it under `gate` before parking: if it moved, an item
    /// was enqueued mid-scan and the worker re-scans instead of
    /// sleeping. This closes the lost-wakeup window without a timeout
    /// backstop — parked workers burn zero wakeups on long cells.
    enq_seq: AtomicU64,
    gate: Mutex<()>,
    wake: Condvar,
    /// First panic payload caught in any job; re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl<T> Shared<T> {
    fn new(workers: usize) -> Self {
        Shared {
            injector: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            enq_seq: AtomicU64::new(0),
            gate: Mutex::new(()),
            wake: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Pop the next job for worker `me`: own deque (LIFO), then the
    /// injector shards starting at `me`, then steal the *front* of the
    /// other workers' deques.
    fn pop(&self, me: usize) -> Option<T> {
        if let Some(item) = self.locals[me].lock().unwrap().pop_back() {
            return Some(item);
        }
        let n = self.injector.len();
        for k in 0..n {
            let shard = (me + k) % n;
            if let Some(item) = self.injector[shard].lock().unwrap().pop_front() {
                return Some(item);
            }
        }
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(item) = self.locals[victim].lock().unwrap().pop_front() {
                return Some(item);
            }
        }
        None
    }
}

/// Handle a running job uses to spawn more work into the pool that is
/// executing it. Spawned items go to the *back* of this worker's own
/// deque (run next by the owner, stolen from the front by idle peers).
pub struct Worker<'p, T> {
    shared: &'p Shared<T>,
    index: usize,
}

impl<T> Worker<'_, T> {
    /// The index of the worker executing the current job, in
    /// `0..jobs`. Stable for the duration of one job; useful for
    /// per-worker scratch and for tests asserting that stealing
    /// happened.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Enqueue `item` for execution by this pool.
    pub fn spawn(&self, item: T) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.locals[self.index]
            .lock()
            .unwrap()
            .push_back(item);
        // Publish the enqueue: the sequence bump happens under the
        // park gate, so an idle worker either sees the item when it
        // scans, sees the bump when it re-checks before sleeping, or is
        // already asleep and gets the notification.
        let _gate = self.shared.gate.lock().unwrap();
        self.shared.enq_seq.fetch_add(1, Ordering::Release);
        self.shared.wake.notify_one();
    }
}

fn worker_loop<T, F>(shared: &Shared<T>, me: usize, f: &F)
where
    T: Send,
    F: Fn(T, &Worker<'_, T>) + Sync,
{
    let worker = Worker { shared, index: me };
    loop {
        // Baseline the enqueue sequence BEFORE scanning: an item pushed
        // after this read either shows up in the scan or has bumped the
        // sequence by the time we re-check under the gate.
        let seq = shared.enq_seq.load(Ordering::Acquire);
        match shared.pop(me) {
            Some(item) => {
                let res = catch_unwind(AssertUnwindSafe(|| f(item, &worker)));
                if let Err(payload) = res {
                    let mut slot = shared.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // Last job done: release every parked worker.
                    let _gate = shared.gate.lock().unwrap();
                    shared.wake.notify_all();
                }
            }
            None => {
                if shared.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // Work is in flight (and may spawn more) but none is
                // grabbable right now: park until an enqueue or
                // termination notifies us. No timeout — every enqueue
                // is covered by the sequence re-check below.
                let gate = shared.gate.lock().unwrap();
                if shared.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                if shared.enq_seq.load(Ordering::Acquire) == seq {
                    drop(shared.wake.wait(gate).unwrap());
                }
            }
        }
    }
}

/// Run `seeds` (plus anything jobs [`spawn`](Worker::spawn)
/// dynamically) to completion on a pool of `jobs` workers (`0` =
/// auto). With `jobs == 1` the worker loop runs inline on the calling
/// thread — no threads are spawned and execution order is exactly
/// depth-first, which keeps the serial baseline on the identical code
/// path.
///
/// If any job panics, the remaining jobs still run; the first panic is
/// re-raised here after the pool has drained and joined.
pub fn run_jobs<T, F>(jobs: usize, seeds: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T, &Worker<'_, T>) + Sync,
{
    let jobs = resolve_jobs(jobs);
    if seeds.is_empty() {
        return;
    }
    let shared = Shared::new(jobs);
    shared.pending.store(seeds.len(), Ordering::SeqCst);
    for (i, item) in seeds.into_iter().enumerate() {
        shared.injector[i % jobs].lock().unwrap().push_back(item);
    }
    if jobs == 1 {
        worker_loop(&shared, 0, &f);
    } else {
        std::thread::scope(|scope| {
            for me in 0..jobs {
                let shared = &shared;
                let f = &f;
                scope.spawn(move || worker_loop(shared, me, f));
            }
        });
    }
    let payload = shared.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Evaluate `f(0), f(1), …, f(n-1)` on a pool of `jobs` workers (`0` =
/// auto) and gather the results **by index**: the returned `Vec` is
/// `[f(0), …, f(n-1)]` regardless of which worker computed which cell
/// or in what order — the deterministic-gather primitive every
/// experiment driver builds on.
pub fn par_map_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_jobs(jobs, (0..n).collect(), |i, _worker| {
        *slots[i].lock().unwrap() = Some(f(i));
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("pool drained with an unfilled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

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
        for jobs in [1, 2, 4] {
            let out = par_map_indexed(jobs, 100, |i| i * i);
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = par_map_indexed(4, 0, |i| i);
        assert!(out.is_empty());
        run_jobs(4, Vec::<usize>::new(), |_, _| {});
    }

    #[test]
    fn dynamic_spawn_drains_everything() {
        let sum = AtomicU64::new(0);
        // Each seed k spawns children k-1, k-2, …, 1; total visits are
        // the triangular numbers.
        run_jobs(4, vec![5u64, 7, 3], |k, worker| {
            sum.fetch_add(k, Ordering::Relaxed);
            if k > 1 {
                worker.spawn(k - 1);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15 + 28 + 6);
    }

    #[test]
    fn parked_workers_wake_on_spawn() {
        // Audit of notify-on-enqueue coverage (there is no timeout
        // backstop to paper over a lost notification). One seed job on
        // a two-worker pool: the idle worker parks with empty queues,
        // then the seed spawns a child and blocks for a long time. The
        // child can only run promptly if the enqueue woke the parked
        // worker — a lost wakeup would leave it asleep until the parent
        // returns, forcing the child onto the parent's worker.
        let child_worker = AtomicUsize::new(usize::MAX);
        let parent_worker = AtomicUsize::new(usize::MAX);
        run_jobs(2, vec![0u32], |item, worker| {
            if item == 0 {
                parent_worker.store(worker.index(), Ordering::SeqCst);
                worker.spawn(1);
                // Long block: give the woken peer ample time to steal.
                std::thread::sleep(std::time::Duration::from_millis(200));
            } else {
                child_worker.store(worker.index(), Ordering::SeqCst);
            }
        });
        assert_ne!(child_worker.load(Ordering::SeqCst), usize::MAX);
        assert_ne!(
            child_worker.load(Ordering::SeqCst),
            parent_worker.load(Ordering::SeqCst),
            "spawned job was not stolen by the parked worker — enqueue wakeup lost"
        );
    }

    #[test]
    fn spawn_chains_with_parked_peers_terminate() {
        // Every link of the chain is spawned while the three non-owner
        // workers sit parked; each enqueue and the final termination
        // must each deliver their own wakeups (completion IS the
        // assertion — a lost notification hangs the pool).
        let count = AtomicU64::new(0);
        run_jobs(4, vec![50u64], |k, worker| {
            count.fetch_add(1, Ordering::Relaxed);
            if k > 0 {
                worker.spawn(k - 1);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 51);
    }

    #[test]
    fn worker_indices_are_in_range() {
        let seen = Mutex::new(HashSet::new());
        run_jobs(3, (0..64).collect::<Vec<usize>>(), |_, worker| {
            assert!(worker.index() < 3);
            seen.lock().unwrap().insert(worker.index());
        });
        assert!(!seen.lock().unwrap().is_empty());
    }
}
