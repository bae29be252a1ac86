//! Constant-*amortized*-RMR abortable mutual exclusion in the style of
//! Jayanti & Jayanti (arXiv 1809.04561).
//!
//! The source paper's headline bound is *worst-case per passage*; its
//! natural successor trades the per-passage guarantee for a stronger
//! amortized one: a deterministic abortable lock whose **total** RMR
//! bill over any execution is `O(1)` per passage, even though a single
//! passage may occasionally pay for a crowd of earlier aborts. This
//! module implements that scheme's core over the [`Mem`] primitive set,
//! CC-model exact:
//!
//! * **Queue with abandonment.** A waiter enqueues MCS-style behind a
//!   `tail` word (one `SWAP` — the doorway). An aborting waiter does
//!   *not* unlink itself (unlinking is what costs Ω(log) elsewhere): it
//!   CASes its queue node from `WAITING` to `ABORTED` and leaves — an
//!   `O(1)` passage that deposits one *token* on the node.
//! * **Promotion walk.** The exiting holder walks the queue, promoting
//!   the first `WAITING` node to `GRANTED` (one CAS arbitrates every
//!   abort/promotion race) and *consuming* every `ABORTED` node it
//!   skips. Each skip withdraws exactly the one token its abort
//!   deposited, so the potential function Φ = #aborted-unconsumed
//!   nodes pays for the whole walk: total RMRs ≤ `c · passages + b`
//!   for constants `c`, `b`, while one exit may individually bill
//!   Θ(#skipped) RMRs — the measured `max_passage_rmrs` spike.
//! * **Token recycling.** Each process owns [`POOL`] nodes used round-
//!   robin; a consumed (or self-retired) node's `reclaim` bit hands it
//!   back to its owner, bounding space at `O(N)` words total. Spin
//!   words (`go`, `reclaim`) are homed at their owner for DSM
//!   friendliness.
//!
//! The measured counterpart of the amortization argument lives in
//! `tests/rmr_bounds.rs` (debt-ledger suite) and the `table1`
//! "amortized" experiment; `AmortizedStats` in `sal-obs` is the
//! accounting instrument.

use crate::lock::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};
use std::sync::Mutex;

/// Queue nodes per process. Two suffice: a process re-using a slot has
/// either retired it itself (entered passages) or waits for the
/// promotion walk to consume it (an aborted slot two attempts back).
pub const POOL: usize = 2;

const NIL: u64 = 0;
const WAITING: u64 = 0;
const GRANTED: u64 = 1;
const ABORTED: u64 = 2;

/// Per-process local state (never shared memory).
#[derive(Debug, Default)]
struct Local {
    /// Round-robin index of the next pool slot to use.
    slot: usize,
    /// The node carried from a successful `enter` to its `exit`.
    active: Option<usize>,
}

/// The Jayanti–Jayanti-style constant-amortized-RMR abortable lock.
///
/// Long-lived, starvation-free for non-aborting processes (grants
/// follow queue order), abortable in `O(1)` RMRs per aborted attempt.
/// Not FCFS across aborted attempts (an aborter re-enqueues at the
/// tail). Space is `O(N)` shared words.
#[derive(Debug)]
pub struct JjLock {
    tail: WordId,
    /// Per-node words, indexed `pid * POOL + slot`.
    status: WordArray,
    next: WordArray,
    go: WordArray,
    reclaim: WordArray,
    locals: Vec<Mutex<Local>>,
    n: usize,
}

impl JjLock {
    /// Lay out the lock for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn layout(b: &mut MemoryBuilder, n: usize) -> Self {
        assert!(n >= 1, "lock needs at least one process");
        let tail = b.alloc(NIL);
        let home = |i: usize| i / POOL;
        // Spin words (`go`, `reclaim`) homed at their owning process;
        // `status`/`next` are only ever touched a constant number of
        // times per passage, plus once per consumed token.
        let status = b.alloc_array_with(n * POOL, |i| (home(i), WAITING));
        let next = b.alloc_array_with(n * POOL, |i| (home(i), NIL));
        let go = b.alloc_array_with(n * POOL, |i| (home(i), 0));
        let reclaim = b.alloc_array_with(n * POOL, |i| (home(i), 1));
        JjLock {
            tail,
            status,
            next,
            go,
            reclaim,
            locals: (0..n).map(|_| Mutex::new(Local::default())).collect(),
            n,
        }
    }

    /// Number of processes the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Encode a node index as a non-`NIL` queue word.
    fn enc(node: usize) -> u64 {
        node as u64 + 1
    }

    /// Decode a non-`NIL` queue word back to a node index.
    fn dec(word: u64) -> usize {
        (word - 1) as usize
    }
}

impl LockMeta for JjLock {
    fn name(&self) -> String {
        "jj-amortized".into()
    }
}

/// `Enter()` and `Exit()` as one observed passage: lifecycle hooks,
/// per-operation hooks through a [`ProbedMem`](sal_obs::ProbedMem), and
/// a `"jj-abandon"` [`note`](Probe::note) per deposited token and a
/// `"jj-consume"` note per token the promotion walk withdraws.
impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for JjLock {
    /// Returns [`Outcome::Aborted`] iff the attempt abandoned its node
    /// in response to `signal`.
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        pid: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(pid);
        let mem = &probed(mem, probe);
        let entered = 'enter: {
            let slot = self.locals[pid].lock().unwrap().slot;
            let node = pid * POOL + slot;
            // Wait for our round-robin node to come back from its last
            // use. Entered passages retire their node before returning
            // from `exit`, so only a process whose recent attempts
            // aborted can wait here — and it waits on a word homed at
            // itself that is written exactly once, by the walk
            // consuming the old abort.
            while mem.read(pid, self.reclaim.at(node)) == 0 {
                if signal.is_set() {
                    break 'enter false;
                }
            }
            mem.write(pid, self.reclaim.at(node), 0);
            mem.write(pid, self.status.at(node), WAITING);
            mem.write(pid, self.next.at(node), NIL);
            mem.write(pid, self.go.at(node), 0);
            {
                let mut local = self.locals[pid].lock().unwrap();
                local.slot = (slot + 1) % POOL;
                local.active = Some(node);
            }
            // Doorway: one SWAP takes our queue position.
            let pred = mem.swap(pid, self.tail, Self::enc(node));
            if pred == NIL {
                break 'enter true; // the queue was empty: we hold the lock
            }
            mem.write(pid, self.next.at(Self::dec(pred)), Self::enc(node));
            loop {
                if mem.read(pid, self.go.at(node)) == 1 {
                    break 'enter true;
                }
                if signal.is_set() {
                    // One CAS arbitrates the abort/promotion race.
                    if mem.cas(pid, self.status.at(node), WAITING, ABORTED) {
                        // Deposit the token and leave; the node stays in
                        // the queue until a promotion walk consumes it.
                        self.locals[pid].lock().unwrap().active = None;
                        probe.note(pid, "jj-abandon", Self::enc(node));
                        break 'enter false;
                    }
                    // Promoted concurrently: the grant is already ours.
                    while mem.read(pid, self.go.at(node)) == 0 {}
                    break 'enter true;
                }
            }
        };
        if entered {
            probe.enter_end(pid, None);
            Outcome::Entered { ticket: None }
        } else {
            probe.abort(pid, None);
            Outcome::Aborted { ticket: None }
        }
    }

    /// Hand the lock to the first still-waiting successor, consuming
    /// every abandoned node on the way (the promotion walk).
    fn exit_core(&self, mem: &M, pid: Pid, probe: &P) {
        let mem = &probed(mem, probe);
        let node = self.locals[pid]
            .lock()
            .unwrap()
            .active
            .take()
            .expect("exit without a matching enter");
        let mut cur = node;
        loop {
            // Find cur's successor, or retire the whole queue.
            let mut nxt = mem.read(pid, self.next.at(cur));
            if nxt == NIL {
                if mem.cas(pid, self.tail, Self::enc(cur), NIL) {
                    // cur was the tail: the queue is empty. Hand the
                    // node back to its owner (ourselves, or the aborter
                    // whose token we just consumed).
                    mem.write(pid, self.reclaim.at(cur), 1);
                    break;
                }
                // A successor won the SWAP but has not linked in yet;
                // its very next step is the `next` write.
                while nxt == NIL {
                    nxt = mem.read(pid, self.next.at(cur));
                }
            }
            let succ = Self::dec(nxt);
            // cur is fully read out: consume it (return it to its
            // owner's pool) before touching the successor.
            mem.write(pid, self.reclaim.at(cur), 1);
            if mem.cas(pid, self.status.at(succ), WAITING, GRANTED) {
                mem.write(pid, self.go.at(succ), 1);
                break;
            }
            // succ aborted: its token pays for this extra iteration.
            probe.note(pid, "jj-consume", Self::enc(succ));
            cur = succ;
        }
        probe.cs_exit(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort, RmrProbe};
    use sal_obs::NoProbe;

    fn build(n: usize) -> (JjLock, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = JjLock::layout(&mut b, n);
        (lock, b.build_cc(n))
    }

    #[test]
    fn repeated_acquisitions_by_one_process() {
        let (lock, mem) = build(2);
        for _ in 0..20 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
        }
    }

    #[test]
    fn processes_alternate_through_the_queue() {
        let (lock, mem) = build(3);
        for round in 0..8 {
            for pid in 0..3 {
                assert!(
                    lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered(),
                    "round {round} pid {pid}"
                );
                lock.exit_core(&mem, pid, &NoProbe);
            }
        }
    }

    #[test]
    fn pre_fired_signal_aborts_in_constant_ops_when_held() {
        let (lock, mem) = build(3);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        let sig = AbortFlag::new();
        sig.set();
        let probe = RmrProbe::start(&mem, 1);
        assert!(!lock.enter_core(&mem, 1, &sig, &NoProbe).entered());
        assert!(
            probe.rmrs(&mem) <= 10,
            "abort should be O(1): {} RMRs",
            probe.rmrs(&mem)
        );
        // The holder's exit consumes the abandoned node; the lock stays
        // usable by everyone, including the aborter.
        lock.exit_core(&mem, 0, &NoProbe);
        assert!(lock.enter_core(&mem, 2, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 2, &NoProbe);
        assert!(lock.enter_core(&mem, 1, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 1, &NoProbe);
    }

    #[test]
    fn exit_walk_skips_a_crowd_of_aborters() {
        let n = 8;
        let (lock, mem) = build(n);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        // Processes 1..n enqueue behind the holder, then all abort.
        let sig = AbortFlag::new();
        sig.set();
        for pid in 1..n {
            assert!(!lock.enter_core(&mem, pid, &sig, &NoProbe).entered());
        }
        // The exit walk consumes every abandoned node and empties the
        // queue; afterwards every pool slot is reusable.
        lock.exit_core(&mem, 0, &NoProbe);
        for round in 0..POOL + 1 {
            for pid in 0..n {
                assert!(
                    lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered(),
                    "round {round} pid {pid}"
                );
                lock.exit_core(&mem, pid, &NoProbe);
            }
        }
    }

    #[test]
    fn clean_passages_cost_constant_rmrs() {
        let (lock, mem) = build(2);
        let mut max = 0;
        for _ in 0..20 {
            let probe = RmrProbe::start(&mem, 0);
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
            max = max.max(probe.rmrs(&mem));
        }
        assert!(max <= 12, "uncontended passage too costly: {max} RMRs");
    }

    #[test]
    fn amortized_ledger_balances_under_heavy_aborts() {
        // Interleave entered passages with O(1) aborts; the cumulative
        // RMR bill must stay linear in the passage count even though
        // individual exits pay for whole crowds.
        let n = 6;
        let (lock, mem) = build(n);
        let mut passages = 0u64;
        for round in 0..12 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            passages += 1;
            let sig = AbortFlag::new();
            sig.set();
            for pid in 1..n {
                assert!(
                    !lock.enter_core(&mem, pid, &sig, &NoProbe).entered(),
                    "round {round} pid {pid}"
                );
                passages += 1;
            }
            lock.exit_core(&mem, 0, &NoProbe);
        }
        let total = mem.total_rmrs();
        assert!(
            total <= 14 * passages + 20,
            "amortized bound violated: {total} RMRs over {passages} passages"
        );
    }

    #[test]
    fn granted_while_aborting_still_enters() {
        // p1 queues behind p0; p0 exits (granting p1) before p1 looks
        // at its signal. p1's abort CAS must lose and p1 must enter.
        let (lock, mem) = build(2);
        let sig = AbortFlag::new();
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        // Enqueue p1 by hand up to its waiting loop: simplest is to let
        // the grant land before the signal fires, which we emulate by
        // firing the signal only after p0's exit. Single-threaded, the
        // waiting loop will observe go=1 on its first check.
        std::thread::scope(|s| {
            let lock = &lock;
            let mem = &mem;
            let sig2 = &sig;
            let t = s.spawn(move || {
                assert!(lock.enter_core(mem, 1, sig2, &NoProbe).entered());
                lock.exit_core(mem, 1, &NoProbe);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            lock.exit_core(mem, 0, &NoProbe);
            t.join().unwrap();
            sig.set();
        });
        // Lock still consistent.
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
    }
}
