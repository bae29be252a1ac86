//! The literal Figure-5 transformation over bump-allocated pools.
//!
//! §6 first presents the transformation "for simplicity … in a system
//! with unbounded word and memory size, in which allocating a new (and
//! initialized) instance of the one-shot lock L is free of charge". This
//! module is that algorithm, verbatim: instances and spin nodes come from
//! pre-allocated pools and are **never reused**, so the pool capacity
//! bounds the number of instance switches. Use
//! [`BoundedLongLivedLock`](super::BoundedLongLivedLock) for the
//! bounded-space version of §6.2.

use super::desc::SimpleDesc;
use crate::lock::{LockCore, LockMeta, Outcome};
use crate::one_shot::OneShotLock;
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordArray, WordId};
use sal_obs::{probed, Probe};
use std::sync::Mutex;

/// Per-process local variable of Figure 5 (`oldSpn`).
#[derive(Debug, Default)]
struct Local {
    /// The spin-node index saved at the last Cleanup; `None` is the
    /// paper's `⊥`.
    old_spn: Option<u32>,
}

/// Long-lived abortable lock: Figure 5 applied to the one-shot lock of
/// Figure 1, with free (bump) allocation.
///
/// The pool holds `switches + 1` one-shot instances; acquiring more than
/// `switches` *quiescent periods* (moments where the reference count hits
/// zero and the instance is switched) exhausts it. Space is
/// `O(switches · N)` — the price of the simplified allocation story.
///
/// Starvation-free but not FCFS (Theorem 23).
#[derive(Debug)]
pub struct SimpleLongLivedLock {
    desc: WordId,
    next_lock: WordId,
    next_spn: WordId,
    instances: Vec<OneShotLock>,
    spin_nodes: WordArray,
    locals: Vec<Mutex<Local>>,
    n: usize,
}

impl SimpleLongLivedLock {
    /// Lay out the lock for `n` processes, supporting up to `switches`
    /// instance switches, with one-shot tree branching `branching`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if `n` or `switches` exceed the descriptor
    /// field capacities ([`SimpleDesc`]).
    pub fn layout(b: &mut MemoryBuilder, n: usize, branching: usize, switches: usize) -> Self {
        assert!(n >= 1, "lock needs at least one process");
        assert!(n < SimpleDesc::MAX_REFCNT as usize, "too many processes");
        let pool = switches + 1;
        assert!(
            pool <= SimpleDesc::MAX_INDEX as usize,
            "switch capacity exceeds descriptor field"
        );
        let desc = b.alloc(
            SimpleDesc {
                lock: 0,
                spn: 0,
                refcnt: 0,
            }
            .pack(),
        );
        let next_lock = b.alloc(1);
        let next_spn = b.alloc(1);
        let instances = (0..pool)
            .map(|_| OneShotLock::layout(b, n, branching))
            .collect();
        let spin_nodes = b.alloc_array(pool, 0);
        SimpleLongLivedLock {
            desc,
            next_lock,
            next_spn,
            instances,
            spin_nodes,
            locals: (0..n).map(|_| Mutex::new(Local::default())).collect(),
            n,
        }
    }

    /// Number of processes the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// `Cleanup()` (Algorithm 6.3).
    fn cleanup<M, P>(&self, mem: &M, pid: Pid, probe: &P)
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        // line 70: decrement Refcnt, snapshotting the tuple.
        let d = SimpleDesc::unpack(mem.faa(pid, self.desc, 1u64.wrapping_neg()));
        self.locals[pid].lock().unwrap().old_spn = Some(d.spn);
        if d.refcnt == 1 {
            // lines 71–75: we might be the last user — prepare fresh
            // instances and try to switch.
            let new_lock = mem.faa(pid, self.next_lock, 1) as u32;
            let new_spn = mem.faa(pid, self.next_spn, 1) as u32;
            assert!(
                (new_lock as usize) < self.instances.len(),
                "simple long-lived lock exhausted its {} pre-allocated instances",
                self.instances.len()
            );
            let old = SimpleDesc {
                lock: d.lock,
                spn: d.spn,
                refcnt: 0,
            };
            let new = SimpleDesc {
                lock: new_lock,
                spn: new_spn,
                refcnt: 0,
            };
            // line 76–77
            if mem.cas(pid, self.desc, old.pack(), new.pack()) {
                probe.note(pid, "instance-switch", u64::from(new_lock));
                mem.write(pid, self.spin_nodes.at(d.spn as usize), 1);
            }
        }
    }
}

impl LockMeta for SimpleLongLivedLock {
    fn name(&self) -> String {
        format!(
            "long-lived-simple(B={})",
            self.instances[0].tree().branching()
        )
    }
}

/// `Enter()` (Algorithm 6.1) and `Exit()` (Algorithm 6.2) as one
/// observed passage: lifecycle hooks, per-operation hooks through a
/// [`ProbedMem`](sal_obs::ProbedMem), and an `"instance-switch"`
/// [`note`](Probe::note) when this process's Cleanup wins the line-76
/// descriptor CAS. The nested one-shot passage is not a passage of its
/// own: only its memory operations are observed.
impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for SimpleLongLivedLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        let mem = &probed(mem, probe);
        let entered = 'enter: {
            let old_spn = self.locals[p].lock().unwrap().old_spn;
            let d = SimpleDesc::unpack(mem.read(p, self.desc)); // line 57
            if Some(d.spn) == old_spn {
                // lines 58–61: we already used this instance; wait for
                // the switch.
                while mem.read(p, self.spin_nodes.at(d.spn as usize)) == 0 {
                    if signal.is_set() {
                        break 'enter false;
                    }
                }
            }
            // line 62: snapshot Lock & Spn while incrementing Refcnt.
            let d = SimpleDesc::unpack(mem.faa(p, self.desc, 1));
            let instance = &self.instances[d.lock as usize];
            let entered = instance.enter_body(mem, p, signal).entered(); // line 63
            if !entered {
                self.cleanup(mem, p, probe); // lines 64–65
            }
            entered // line 66
        };
        if entered {
            probe.enter_end(p, None);
            Outcome::Entered { ticket: None }
        } else {
            probe.abort(p, None);
            Outcome::Aborted { ticket: None }
        }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        let mem = &probed(mem, probe);
        let d = SimpleDesc::unpack(mem.read(p, self.desc)); // line 67
        self.instances[d.lock as usize].exit_body(mem, p); // line 68
        self.cleanup(mem, p, probe); // line 69
        probe.cs_exit(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort};
    use sal_obs::NoProbe;

    fn build(n: usize, switches: usize) -> (SimpleLongLivedLock, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = SimpleLongLivedLock::layout(&mut b, n, 4, switches);
        (lock, b.build_cc(n))
    }

    #[test]
    fn repeated_acquisitions_by_one_process() {
        let (lock, mem) = build(2, 16);
        for _ in 0..10 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
        }
    }

    #[test]
    fn processes_alternate_across_instance_switches() {
        let (lock, mem) = build(3, 32);
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
    fn abort_before_doorway_returns_false_quickly() {
        let (lock, mem) = build(2, 8);
        // p0 acquires and releases, making p0's oldSpn equal the (still
        // current, since nobody else was active... actually refcnt hit 0
        // so p0 switched). Second acquisition proceeds on the new
        // instance.
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
        // Aborting inside the one-shot enter: pre-set signal while the
        // lock is held by p0.
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        let sig = AbortFlag::new();
        sig.set();
        assert!(!lock.enter_core(&mem, 1, &sig, &NoProbe).entered());
        lock.exit_core(&mem, 0, &NoProbe);
        // Lock remains usable.
        assert!(lock.enter_core(&mem, 1, &NeverAbort, &NoProbe).entered());
        lock.exit_core(&mem, 1, &NoProbe);
    }

    #[test]
    fn solo_process_switches_instance_every_passage() {
        // With a single process, every exit drops refcnt to 0 and
        // switches; the pool bounds the number of passages.
        let (lock, mem) = build(1, 5);
        for _ in 0..5 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn pool_exhaustion_panics_with_context() {
        let (lock, mem) = build(1, 2);
        for _ in 0..10 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
        }
    }

    #[test]
    fn per_passage_rmr_cost_stays_constant_without_aborts() {
        let (lock, mem) = build(2, 64);
        let mut max = 0;
        for _ in 0..20 {
            let probe = sal_memory::RmrProbe::start(&mem, 0);
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit_core(&mem, 0, &NoProbe);
            max = max.max(probe.rmrs(&mem));
        }
        // Figure-5 overhead is a constant number of RMRs on top of the
        // one-shot passage (desc reads/F&As, allocation F&As, CAS, spin
        // node write).
        assert!(max <= 20, "long-lived no-abort passage too costly: {max}");
    }
}
