//! The bounded-space long-lived lock of §6.2.
//!
//! Combines the Figure-5 transformation with the two memory-management
//! schemes of §6.2:
//!
//! * **Instance recycling** — `N + 1` one-shot instances total. A process
//!   that switches the descriptor away from instance `l` keeps `l` as its
//!   private spare and uses it to satisfy its next allocation, bumping
//!   the instance *version*; the words of the instance are lazily reset
//!   through the [`VersionedInstance`] scheme, so re-initialization never
//!   costs `s(N)` RMRs at once.
//! * **Spin-node reclamation** — per-process pools of `N + 1` nodes with
//!   announce-and-validate pinning ([`SpinNodePool`]).
//!
//! Space: `O(N · s(N))` for the instances plus `O(N²)` spin nodes, with
//! `s(N) = O(N)` for the one-shot lock — the `O(N · s(N) + N²) = O(N²)`
//! bound of Claim 28.
//!
//! ### Deviations from the paper (documented per DESIGN.md §1)
//!
//! The paper's descriptor is a pointer pair; ours is index-based, and —
//! because indices (unlike fresh pointers) recur — the descriptor carries
//! a 20-bit switch sequence number that (a) makes the line-76 CAS immune
//! to ABA and (b) lets a process detect that the spin node saved in
//! `oldSpn` belongs to a *past* epoch (a recycled node paired with a new
//! instance must not be waited on, or the process could sleep through an
//! idle system). Sequence wraparound needs 2²⁰ switches within one
//! process's absence; like all bounded-tag schemes this is a practical,
//! not absolute, guarantee.

use super::desc::TaggedDesc;
use super::spin_pool::SpinNodePool;
use super::versioned::VersionedInstance;
use crate::lock::{LockCore, LockMeta, Outcome};
use crate::one_shot::OneShotLock;
use crate::resume::{BoundedEnterState, EnterMachine, EnterStep, WaitKind, WaitToken};
use crate::tree::Ascent;
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{probed, NoProbe, Probe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Execution-path counters (Rust-side diagnostics, not shared-memory
/// state): how often each interesting branch of the protocol ran.
/// Used by stress tests to prove the rare paths are actually exercised,
/// and handy when tuning.
#[derive(Debug, Default)]
pub struct PathStats {
    /// Entries that found `spn == oldSpn` and waited on the spin node.
    pub spin_waits: AtomicU64,
    /// Spin-path entries whose re-validation found the epoch already
    /// switched (no wait needed).
    pub spin_revalidation_skips: AtomicU64,
    /// Successful descriptor switches (line 76 CAS succeeded).
    pub switches: AtomicU64,
    /// Failed descriptor switches (another process raced in).
    pub switch_cas_failures: AtomicU64,
}

impl PathStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot as `(spin_waits, revalidation_skips, switches, cas_failures)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.spin_waits.load(Ordering::Relaxed),
            self.spin_revalidation_skips.load(Ordering::Relaxed),
            self.switches.load(Ordering::Relaxed),
            self.switch_cas_failures.load(Ordering::Relaxed),
        )
    }
}

/// Per-process local state (process-private, no RMRs).
#[derive(Debug)]
struct Local {
    /// Epoch `(seq, spn)` recorded by the last Cleanup; the paper's
    /// `oldSpn`, strengthened with the switch sequence number.
    old_epoch: Option<(u32, u32)>,
    /// The instance this process holds as its private spare.
    spare: u32,
}

/// The final algorithm of the paper: a starvation-free, abortable,
/// long-lived mutual-exclusion lock with `O(log_B A_i)` RMRs per passage
/// and `O(N²)` space.
#[derive(Debug)]
pub struct BoundedLongLivedLock {
    desc: WordId,
    /// The one-shot lock's *logical* layout — shared by every instance;
    /// instances differ only in their physical backing region.
    proto: OneShotLock,
    instances: Vec<VersionedInstance>,
    spins: SpinNodePool,
    locals: Vec<Mutex<Local>>,
    /// Words eagerly freshened per instance reuse (wraparound guard).
    eager_resets: usize,
    stats: PathStats,
    n: usize,
}

impl BoundedLongLivedLock {
    /// Lay out the bounded lock for `n ≤ 1022` processes with one-shot
    /// tree branching `branching`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` exceeds the descriptor field capacities
    /// ([`TaggedDesc`]).
    pub fn layout(b: &mut MemoryBuilder, n: usize, branching: usize) -> Self {
        Self::layout_with(b, n, branching, Ascent::Adaptive, 1)
    }

    /// Lay out choosing the `FindNext` ascent and the eager-reset quota
    /// (`0` disables the wraparound guard entirely).
    pub fn layout_with(
        b: &mut MemoryBuilder,
        n: usize,
        branching: usize,
        ascent: Ascent,
        eager_resets: usize,
    ) -> Self {
        assert!(n >= 1, "lock needs at least one process");
        assert!(
            n < TaggedDesc::MAX_LOCK as usize && n * (n + 1) < TaggedDesc::MAX_SPN as usize,
            "too many processes for the descriptor layout (max 1022)"
        );
        assert!(
            n < TaggedDesc::MAX_REFCNT as usize,
            "refcount field too small"
        );
        let desc = b.alloc(
            TaggedDesc {
                seq: 0,
                lock: 0,
                spn: 0,
                refcnt: 0,
            }
            .pack(),
        );
        // Lay the one-shot lock out once in a scratch address space; its
        // initial values define what "reset" means for every instance.
        let mut scratch = MemoryBuilder::new();
        let proto = OneShotLock::layout_with(&mut scratch, n, branching, ascent);
        let inits = Arc::new(scratch.initial_values());
        let instances = (0..=n)
            .map(|_| VersionedInstance::layout(b, Arc::clone(&inits)))
            .collect();
        let spins = SpinNodePool::layout(b, n);
        let locals = (0..n)
            .map(|p| {
                Mutex::new(Local {
                    old_epoch: None,
                    // Instance 0 is installed; p's initial spare is p + 1.
                    spare: p as u32 + 1,
                })
            })
            .collect();
        BoundedLongLivedLock {
            desc,
            proto,
            instances,
            spins,
            locals,
            eager_resets,
            stats: PathStats::default(),
            n,
        }
    }

    /// Execution-path counters (diagnostic; see [`PathStats`]).
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Number of processes the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Tree branching factor of the underlying one-shot lock.
    pub fn branching(&self) -> usize {
        self.proto.tree().branching()
    }

    /// `Enter()` (Algorithm 6.1 + §6.2 spin-node pinning). Returns `true`
    /// iff the lock was acquired.
    pub fn enter<M, S>(&self, mem: &M, pid: Pid, signal: &S) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
    {
        self.enter_impl(mem, pid, signal, &NoProbe)
    }

    /// [`enter`](Self::enter) with passage observability: lifecycle
    /// hooks, per-operation `op`/`rmr` hooks via [`ProbedMem`](sal_obs::ProbedMem), and an
    /// `"instance-switch"` [`note`](Probe::note) when this process's
    /// Cleanup wins the line-76 descriptor CAS. The nested one-shot
    /// `enter` is *not* treated as a passage of its own — only its
    /// memory operations are observed.
    pub fn enter_probed<M, S, P>(&self, mem: &M, pid: Pid, signal: &S, probe: &P) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
        P: Probe + ?Sized,
    {
        probe.enter_begin(pid);
        let pm = probed(mem, probe);
        let completed = self.enter_impl(&pm, pid, signal, probe);
        if completed {
            probe.enter_end(pid, None);
        } else {
            probe.abort(pid, None);
        }
        completed
    }

    fn enter_impl<M, S, P>(&self, mem: &M, pid: Pid, signal: &S, probe: &P) -> bool
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
        P: Probe + ?Sized,
    {
        // Tight-loop driver of the resumable machine: a Pending poll
        // performed exactly one watched-word read (plus one signal
        // check), so re-polling immediately reproduces the blocking
        // spin loops of Figure 5 / Figure 1 operation for operation.
        let mut machine = self.begin_enter();
        loop {
            match self.poll_enter(&mut machine, mem, pid, signal, probe) {
                EnterStep::Acquired { .. } => return true,
                EnterStep::Aborted { .. } => return false,
                EnterStep::Pending(_) => {}
            }
        }
    }

    /// Begin a resumable `Enter`: no shared-memory operation happens
    /// until the first [`poll_enter`](Self::poll_enter) call. See
    /// [`crate::resume`] for the machine contract — in particular the
    /// obligation to drive a machine past the doorway
    /// ([`EnterMachine::in_queue`]) to resolution.
    pub fn begin_enter(&self) -> EnterMachine {
        EnterMachine::new()
    }

    /// Advance a resumable `Enter` by one poll.
    ///
    /// A poll runs as much of Algorithm 6.1 (+ §6.2 spin-node pinning)
    /// as it can without waiting: the first poll reads the descriptor,
    /// performs the epoch announce/re-validate when it applies, and —
    /// when no wait blocks it — continues straight through the doorway
    /// F&A into the one-shot instance. At either blocking point
    /// ([`WaitKind::EpochSpin`], [`WaitKind::QueueSpin`]) a poll
    /// performs one read of the watched word, then one signal check if
    /// it was zero, and returns [`EnterStep::Pending`]. Abort paths
    /// (epoch-wait unpinning; one-shot abort + `Cleanup`) run to
    /// completion within the poll that observes the signal, so an
    /// [`EnterStep::Aborted`] machine has released every queue node and
    /// reference it took — the paper's bounded abort.
    ///
    /// `probe` receives the `"instance-switch"` note if this poll's
    /// cleanup wins the descriptor CAS; per-operation observability is
    /// the memory's business (pass a [`probed`] wrapper as `mem`), and
    /// passage lifecycle hooks are the driver's (as in
    /// [`enter_probed`](Self::enter_probed)).
    ///
    /// # Panics
    ///
    /// Panics if polled again after resolving.
    pub fn poll_enter<M, S, P>(
        &self,
        machine: &mut EnterMachine,
        mem: &M,
        pid: Pid,
        signal: &S,
        probe: &P,
    ) -> EnterStep
    where
        M: Mem + ?Sized,
        S: AbortSignal + ?Sized,
        P: Probe + ?Sized,
    {
        loop {
            match machine.st {
                BoundedEnterState::Start => {
                    let old_epoch = self.locals[pid].lock().unwrap().old_epoch;
                    let d = TaggedDesc::unpack(mem.read(pid, self.desc)); // line 57
                    if Some(d.epoch()) == old_epoch {
                        // lines 58–61, with hazard-style pinning:
                        // announce the node, re-validate the epoch, and
                        // only then spin.
                        self.spins.announce(mem, pid, d.spn);
                        let d2 = TaggedDesc::unpack(mem.read(pid, self.desc));
                        if d2.epoch() == d.epoch() {
                            PathStats::bump(&self.stats.spin_waits);
                            machine.st = BoundedEnterState::EpochWait { spn: d.spn };
                        } else {
                            PathStats::bump(&self.stats.spin_revalidation_skips);
                            self.spins.clear_announce(mem, pid);
                            machine.st = BoundedEnterState::Doorway;
                        }
                    } else {
                        machine.st = BoundedEnterState::Doorway;
                    }
                }
                BoundedEnterState::EpochWait { spn } => {
                    let go = self.spins.go_word(spn);
                    if mem.read(pid, go) == 0 {
                        if signal.is_set() {
                            self.spins.clear_announce(mem, pid);
                            machine.st = BoundedEnterState::Done;
                            return EnterStep::Aborted {
                                ticket: None,
                                handed_off: false,
                            };
                        }
                        return EnterStep::Pending(WaitToken::new(go, WaitKind::EpochSpin));
                    }
                    self.spins.clear_announce(mem, pid);
                    machine.st = BoundedEnterState::Doorway;
                }
                BoundedEnterState::Doorway => {
                    let d = TaggedDesc::unpack(mem.faa(pid, self.desc, 1)); // line 62
                    machine.st = BoundedEnterState::Queue {
                        inst: d.lock,
                        inner: self.proto.begin_enter(),
                    };
                }
                BoundedEnterState::Queue {
                    inst,
                    ref mut inner,
                } => {
                    // Recreate the instance view each poll: machines
                    // hold indices, not memory borrows.
                    let view = self.instances[inst as usize].view(mem);
                    // line 63, one poll at a time.
                    match self.proto.poll_enter(inner, &view, pid, signal) {
                        EnterStep::Acquired { .. } => {
                            machine.st = BoundedEnterState::Done;
                            return EnterStep::Acquired { ticket: None };
                        }
                        EnterStep::Aborted { handed_off, .. } => {
                            let switched = self.cleanup(mem, pid, probe); // lines 64–65
                            machine.st = BoundedEnterState::Done;
                            return EnterStep::Aborted {
                                ticket: None,
                                handed_off: handed_off || switched,
                            };
                        }
                        EnterStep::Pending(token) => return EnterStep::Pending(token),
                    }
                }
                BoundedEnterState::Done => {
                    panic!("bounded enter machine polled after resolving")
                }
            }
        }
    }

    /// `Exit()` (Algorithm 6.2).
    pub fn exit<M: Mem + ?Sized>(&self, mem: &M, pid: Pid) {
        self.exit_impl(mem, pid, &NoProbe);
    }

    /// [`exit`](Self::exit) with passage observability; fires
    /// [`Probe::cs_exit`] once the passage completes.
    pub fn exit_probed<M, P>(&self, mem: &M, pid: Pid, probe: &P)
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let pm = probed(mem, probe);
        self.exit_impl(&pm, pid, probe);
        probe.cs_exit(pid);
    }

    fn exit_impl<M, P>(&self, mem: &M, pid: Pid, probe: &P)
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let d = TaggedDesc::unpack(mem.read(pid, self.desc)); // line 67
        let inst = self.instances[d.lock as usize].view(mem);
        self.proto.exit(&inst, pid); // line 68
        let _ = self.cleanup(mem, pid, probe); // line 69
    }

    /// `Cleanup()` (Algorithm 6.3 + §6.2 recycling); returns whether it
    /// switched instances (and so released the epoch's spin waiters).
    fn cleanup<M, P>(&self, mem: &M, pid: Pid, probe: &P) -> bool
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let d = TaggedDesc::unpack(mem.faa(pid, self.desc, 1u64.wrapping_neg())); // line 70
        {
            let mut local = self.locals[pid].lock().unwrap();
            local.old_epoch = Some(d.epoch());
        }
        if d.refcnt != 1 {
            return false;
        }
        // lines 71–75: allocate from private holdings.
        let new_lock = self.locals[pid].lock().unwrap().spare;
        let inst = &self.instances[new_lock as usize];
        inst.bump_version(mem, pid);
        inst.eager_reset(mem, pid, self.eager_resets);
        let new_spn = self.spins.allocate(mem, pid);
        let old = TaggedDesc {
            seq: d.seq,
            lock: d.lock,
            spn: d.spn,
            refcnt: 0,
        };
        let new = TaggedDesc {
            seq: (d.seq + 1) % TaggedDesc::SEQ_MOD,
            lock: new_lock,
            spn: new_spn,
            refcnt: 0,
        };
        if mem.cas(pid, self.desc, old.pack(), new.pack()) {
            // line 76 succeeded: wake the waiters, take the replaced
            // instance as our next spare, retire the replaced spin node.
            PathStats::bump(&self.stats.switches);
            probe.note(pid, "instance-switch", u64::from(new_lock));
            mem.write(pid, self.spins.go_word(d.spn), 1); // line 77
            self.locals[pid].lock().unwrap().spare = d.lock;
            self.spins.retire(mem, pid, d.spn);
            true
        } else {
            PathStats::bump(&self.stats.switch_cas_failures);
            // Someone incremented Refcnt (or raced the switch): keep our
            // allocations for next time.
            self.spins.unallocate(pid, new_spn);
            // `spare` still holds new_lock (the extra version bump on a
            // never-installed instance is harmless).
            false
        }
    }
}

impl LockMeta for BoundedLongLivedLock {
    fn name(&self) -> String {
        format!("long-lived(B={})", self.branching())
    }
}

impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for BoundedLongLivedLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        if self.enter_probed(mem, p, signal, probe) {
            Outcome::Entered { ticket: None }
        } else {
            Outcome::Aborted { ticket: None }
        }
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.exit_probed(mem, p, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort};

    fn build(n: usize) -> (BoundedLongLivedLock, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, n, 4);
        (lock, b.build_cc(n))
    }

    #[test]
    fn unbounded_number_of_acquisitions() {
        let (lock, mem) = build(2);
        // Far more passages than instances exist: recycling must work.
        for round in 0..200 {
            let pid = round % 2;
            assert!(lock.enter(&mem, pid, &NeverAbort), "round {round}");
            lock.exit(&mem, pid);
        }
    }

    #[test]
    fn recycled_instances_are_properly_reset() {
        let (lock, mem) = build(3);
        // Generate aborts so tree state gets dirty, then keep cycling;
        // if lazy reset failed, a recycled instance would hand out stale
        // tickets or see a poisoned tree and panic/deadlock.
        for round in 0..100 {
            let owner = round % 3;
            assert!(lock.enter(&mem, owner, &NeverAbort));
            let sig = AbortFlag::new();
            sig.set();
            let aborter = (owner + 1) % 3;
            assert!(!lock.enter(&mem, aborter, &sig));
            lock.exit(&mem, owner);
        }
    }

    #[test]
    fn space_is_bounded_regardless_of_acquisition_count() {
        let mut b = MemoryBuilder::new();
        let _lock = BoundedLongLivedLock::layout(&mut b, 8, 4);
        let words = b.words_allocated();
        // O(N · s(N) + N²): generous sanity ceiling for N = 8.
        assert!(words < 2500, "space blow-up: {words} words for N = 8");
        // And it does not grow with use (all state pre-allocated).
    }

    #[test]
    fn per_passage_rmrs_stay_flat_over_many_recycles() {
        let (lock, mem) = build(2);
        let mut costs = Vec::new();
        for _ in 0..50 {
            let probe = sal_memory::RmrProbe::start(&mem, 0);
            assert!(lock.enter(&mem, 0, &NeverAbort));
            lock.exit(&mem, 0);
            costs.push(probe.rmrs(&mem));
        }
        let max = *costs.iter().max().unwrap();
        // Constant overhead: Figure-5 bookkeeping + lazy-reset resolves.
        assert!(max <= 40, "passage cost grew under recycling: {costs:?}");
        // And no upward drift: the last ten passages cost no more than
        // the first ten.
        let early: u64 = costs[..10].iter().sum();
        let late: u64 = costs[40..].iter().sum();
        assert!(late <= early + 10, "per-passage cost drifts: {costs:?}");
    }

    #[test]
    fn aborts_leave_the_lock_usable_across_switches() {
        let (lock, mem) = build(4);
        let sig = AbortFlag::new();
        sig.set();
        for round in 0..40 {
            let owner = round % 4;
            assert!(lock.enter(&mem, owner, &NeverAbort));
            for offset in 1..4 {
                let p = (owner + offset) % 4;
                assert!(!lock.enter(&mem, p, &sig));
            }
            lock.exit(&mem, owner);
        }
    }

    #[test]
    fn eager_resets_zero_also_works() {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout_with(&mut b, 2, 2, Ascent::Plain, 0);
        let mem = b.build_cc(2);
        for _ in 0..30 {
            assert!(lock.enter(&mem, 0, &NeverAbort));
            lock.exit(&mem, 0);
        }
    }

    #[test]
    fn lock_trait_object_usage() {
        let (lock, mem) = build(2);
        let l: &dyn crate::AbortableLock = &lock;
        assert!(!l.is_one_shot());
        assert!(l.enter(&mem, 1, &NeverAbort, &NoProbe).entered());
        l.exit(&mem, 1, &NoProbe);
        assert!(l.name().contains("long-lived"));
    }

    #[test]
    fn instance_switches_are_noted_to_the_probe() {
        let (lock, mem) = build(2);
        let log = sal_obs::EventLog::new(256);
        // Solo passages: every exit drops refcnt to 0 and switches.
        for _ in 0..5 {
            assert!(lock.enter_probed(&mem, 0, &NeverAbort, &log));
            lock.exit_probed(&mem, 0, &log);
        }
        let switches = log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, sal_obs::ObsEventKind::Note("instance-switch", _)))
            .count() as u64;
        assert_eq!(
            switches,
            lock.stats().snapshot().2,
            "probe notes must mirror the PathStats switch counter"
        );
        assert!(switches >= 4);
    }
}
