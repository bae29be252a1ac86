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
//!
//! Cleanup prepares the *next* switch instead of the current one. The
//! paper's lines 71–75 (take the spare instance, reset it, allocate a
//! spin node) run right after a successful line-77 go write, on the
//! instance that switch just replaced, and the process keeps the
//! prepared pair until its next switch; the initial spare and spin node
//! are ready at layout. A switch then runs refcount F&A → descriptor
//! CAS → go write, so the waiters the go write releases no longer wait
//! through the preparation, and a failed CAS keeps the pair instead of
//! discarding work. Preparing the replaced instance there is safe: the
//! F&A read its refcount as 1 (ours), so no other process referenced it,
//! and the CAS that won replaced it, so every later doorway F&A
//! references the new instance — no process can touch the old one's
//! words again until this process installs it. No passage makes more
//! memory operations than in the paper's order: a switch makes the same
//! ones, moved, and a failed CAS makes none of lines 71–75.

use super::desc::TaggedDesc;
use super::spin_pool::SpinNodePool;
use super::versioned::VersionedInstance;
use crate::lock::{LockCore, LockMeta, Outcome};
use crate::one_shot::OneShotLock;
use crate::resume::{BoundedEnterState, EnterMachine, EnterStep, Handoff, WaitKey};
use crate::tree::Ascent;
use sal_memory::{AbortSignal, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::{probed, Probe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Execution-path counters (Rust-side diagnostics, not shared-memory
/// state): how often each interesting branch of the protocol ran.
/// Used by stress tests to prove the rare paths are actually exercised,
/// and handy when tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathStats {
    /// Entries that found `spn == oldSpn` and waited on the spin node.
    pub spin_waits: u64,
    /// Spin-path entries whose re-validation found the epoch already
    /// switched (no wait needed).
    pub spin_revalidation_skips: u64,
    /// Successful descriptor switches (line 76 CAS succeeded).
    pub switches: u64,
    /// Failed descriptor switches (another process raced in).
    pub switch_cas_failures: u64,
}

/// [`Local::old_epoch`] before the process's first Cleanup.
const NO_EPOCH: u64 = u64::MAX;

/// An epoch `(seq, spn)` as one word.
fn epoch_word((seq, spn): (u32, u32)) -> u64 {
    u64::from(seq) << 32 | u64::from(spn)
}

/// Per-process local state (process-private, no RMRs), on cache lines
/// of its own. Only the owning process writes it, and a pid's passages
/// are ordered by happens-before (one thread at a time, handed over
/// through synchronizing operations), so `Relaxed` loads and stores
/// suffice and a passage takes no lock.
#[derive(Debug)]
#[repr(align(128))]
struct Local {
    /// Epoch recorded by the last Cleanup, as an [`epoch_word`]; the
    /// paper's `oldSpn`, strengthened with the switch sequence number.
    old_epoch: AtomicU64,
    /// The instance this process installs at its next switch: its
    /// private spare, already reset for reuse.
    spare: AtomicU32,
    /// The spin node it installs with it, taken from its pool (`go` 0).
    spare_spn: AtomicU32,
    /// This process's share of the [`PathStats`] counters.
    spin_waits: AtomicU64,
    spin_revalidation_skips: AtomicU64,
    switches: AtomicU64,
    switch_cas_failures: AtomicU64,
}

/// Count one event on a single-writer counter.
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Relaxed) + 1, Relaxed);
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
    locals: Vec<Local>,
    /// Words eagerly freshened per instance reuse (wraparound guard).
    eager_resets: usize,
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
            .map(|p| Local {
                old_epoch: AtomicU64::new(NO_EPOCH),
                // Instance 0 is installed; p's initial spare is p + 1,
                // never used, so it needs no reset.
                spare: AtomicU32::new(p as u32 + 1),
                spare_spn: AtomicU32::new(spins.take_free(p).expect("a fresh pool has free nodes")),
                spin_waits: AtomicU64::new(0),
                spin_revalidation_skips: AtomicU64::new(0),
                switches: AtomicU64::new(0),
                switch_cas_failures: AtomicU64::new(0),
            })
            .collect();
        BoundedLongLivedLock {
            desc,
            proto,
            instances,
            spins,
            locals,
            eager_resets,
            n,
        }
    }

    /// Execution-path counters (diagnostic; see [`PathStats`]), summed
    /// over the processes.
    pub fn stats(&self) -> PathStats {
        let sum = |counter: fn(&Local) -> &AtomicU64| -> u64 {
            self.locals.iter().map(|l| counter(l).load(Relaxed)).sum()
        };
        PathStats {
            spin_waits: sum(|l| &l.spin_waits),
            spin_revalidation_skips: sum(|l| &l.spin_revalidation_skips),
            switches: sum(|l| &l.switches),
            switch_cas_failures: sum(|l| &l.switch_cas_failures),
        }
    }

    /// Number of processes the lock supports.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Tree branching factor of the underlying one-shot lock.
    pub fn branching(&self) -> usize {
        self.proto.tree().branching()
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
    /// ([`WaitKey::Epoch`], [`WaitKey::Slot`]) a poll performs one read
    /// of the watched word, then one signal check if it was zero, and
    /// returns [`EnterStep::Pending`] with that key. Abort paths
    /// (epoch-wait unpinning; one-shot abort + `Cleanup`) run to
    /// completion within the poll that observes the signal, so an
    /// [`EnterStep::Aborted`] machine has released every queue node and
    /// reference it took — the paper's bounded abort.
    ///
    /// `probe` receives the `"instance-switch"` note if this poll's
    /// cleanup wins the descriptor CAS; per-operation observability is
    /// the memory's business (pass a [`probed`] wrapper as `mem`), and
    /// passage lifecycle hooks are the driver's (as in
    /// [`enter_core`](LockCore::enter_core)).
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
                    let local = &self.locals[pid];
                    let d = TaggedDesc::unpack(mem.read(pid, self.desc)); // line 57
                    if epoch_word(d.epoch()) == local.old_epoch.load(Relaxed) {
                        // lines 58–61, with hazard-style pinning:
                        // announce the node, re-validate the epoch, and
                        // only then spin.
                        self.spins.announce(mem, pid, d.spn);
                        let d2 = TaggedDesc::unpack(mem.read(pid, self.desc));
                        if d2.epoch() == d.epoch() {
                            bump(&local.spin_waits);
                            machine.st = BoundedEnterState::EpochWait { spn: d.spn };
                        } else {
                            bump(&local.spin_revalidation_skips);
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
                                handoff: Handoff::NONE,
                            };
                        }
                        return EnterStep::Pending(WaitKey::Epoch);
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
                    match self.proto.poll_instance(inner, &view, pid, signal, inst) {
                        EnterStep::Acquired { .. } => {
                            machine.st = BoundedEnterState::Done;
                            return EnterStep::Acquired { ticket: None };
                        }
                        EnterStep::Aborted { handoff, .. } => {
                            let switched = self.cleanup(mem, pid, probe); // lines 64–65
                            machine.st = BoundedEnterState::Done;
                            return EnterStep::Aborted {
                                ticket: None,
                                handoff: handoff.and_switch(switched),
                            };
                        }
                        pending => return pending,
                    }
                }
                BoundedEnterState::Done => {
                    panic!("bounded enter machine polled after resolving")
                }
            }
        }
    }

    /// `Exit()` (Algorithm 6.2) as the end of an observed passage:
    /// routes the exit protocol through a
    /// [`ProbedMem`](sal_obs::ProbedMem), notes an `"instance-switch"`
    /// when this Cleanup wins the line-76 CAS, and fires
    /// [`Probe::cs_exit`] once the passage completes. Returns the words
    /// it set for waiters (the successor's queue slot, and the epoch on
    /// an instance switch).
    pub fn exit<M, P>(&self, mem: &M, pid: Pid, probe: &P) -> Handoff
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let mem = &probed(mem, probe);
        let d = TaggedDesc::unpack(mem.read(pid, self.desc)); // line 67
        let inst = self.instances[d.lock as usize].view(mem);
        let slot = self.proto.exit_body(&inst, pid); // line 68
        let switched = self.cleanup(mem, pid, probe); // line 69
        probe.cs_exit(pid);
        Handoff::queue(d.lock, slot).and_switch(switched)
    }

    /// `Cleanup()` (Algorithm 6.3 + §6.2 recycling); returns whether it
    /// switched instances (and so released the epoch's spin waiters).
    /// Lines 71–75 run after the switch, for the next one (see the
    /// module docs).
    fn cleanup<M, P>(&self, mem: &M, pid: Pid, probe: &P) -> bool
    where
        M: Mem + ?Sized,
        P: Probe + ?Sized,
    {
        let local = &self.locals[pid];
        let d = TaggedDesc::unpack(mem.faa(pid, self.desc, 1u64.wrapping_neg())); // line 70
        local.old_epoch.store(epoch_word(d.epoch()), Relaxed);
        if d.refcnt != 1 {
            return false;
        }
        let new_lock = local.spare.load(Relaxed);
        let new_spn = local.spare_spn.load(Relaxed);
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
        if !mem.cas(pid, self.desc, old.pack(), new.pack()) {
            // line 76 failed: someone incremented Refcnt (or raced the
            // switch). The prepared pair waits for our next switch.
            bump(&local.switch_cas_failures);
            return false;
        }
        bump(&local.switches);
        probe.note(pid, "instance-switch", u64::from(new_lock));
        mem.write(pid, self.spins.go_word(d.spn), 1); // line 77

        // Lines 71–75 for the next switch: the replaced instance becomes
        // our spare, reset for reuse, and a fresh spin node goes with it;
        // then the replaced spin node is retired.
        let inst = &self.instances[d.lock as usize];
        inst.bump_version(mem, pid);
        inst.eager_reset(mem, pid, self.eager_resets);
        let next_spn = self.spins.allocate(mem, pid);
        local.spare.store(d.lock, Relaxed);
        local.spare_spn.store(next_spn, Relaxed);
        self.spins.retire(mem, pid, d.spn);
        true
    }
}

impl LockMeta for BoundedLongLivedLock {
    fn name(&self) -> String {
        format!("long-lived(B={})", self.branching())
    }
}

/// `Enter()` (Algorithm 6.1 + §6.2 spin-node pinning) as one observed
/// passage: lifecycle hooks, per-operation hooks through a
/// [`ProbedMem`](sal_obs::ProbedMem), and the `"instance-switch"` notes
/// of [`poll_enter`](BoundedLongLivedLock::poll_enter) and
/// [`exit`](BoundedLongLivedLock::exit). The nested one-shot passage is
/// not a passage of its own: only its memory operations are observed.
impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for BoundedLongLivedLock {
    fn enter_core<S: AbortSignal + ?Sized>(
        &self,
        mem: &M,
        p: Pid,
        signal: &S,
        probe: &P,
    ) -> Outcome {
        probe.enter_begin(p);
        let pm = probed(mem, probe);
        // Tight-loop driver of the resumable machine: a Pending poll
        // performed exactly one watched-word read (plus one signal
        // check), so re-polling immediately reproduces the blocking
        // spin loops of Figure 5 / Figure 1 operation for operation.
        let mut machine = self.begin_enter();
        let outcome = loop {
            if let Some(outcome) = self
                .poll_enter(&mut machine, &pm, p, signal, probe)
                .outcome()
            {
                break outcome;
            }
        };
        match outcome {
            Outcome::Entered { ticket } => probe.enter_end(p, ticket),
            Outcome::Aborted { ticket } => probe.abort(p, ticket),
        }
        outcome
    }

    fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
        self.exit(mem, p, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::{AbortFlag, NeverAbort};
    use sal_obs::NoProbe;

    fn build(n: usize) -> (BoundedLongLivedLock, sal_memory::CcMemory) {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, n, 4);
        (lock, b.build_cc(n))
    }

    #[test]
    fn per_pid_slots_live_on_cache_lines_of_their_own() {
        assert!(std::mem::align_of::<Local>() >= 128);
    }

    #[test]
    fn unbounded_number_of_acquisitions() {
        let (lock, mem) = build(2);
        // Far more passages than instances exist: recycling must work.
        for round in 0..200 {
            let pid = round % 2;
            assert!(
                lock.enter_core(&mem, pid, &NeverAbort, &NoProbe).entered(),
                "round {round}"
            );
            lock.exit(&mem, pid, &NoProbe);
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
            assert!(lock
                .enter_core(&mem, owner, &NeverAbort, &NoProbe)
                .entered());
            let sig = AbortFlag::new();
            sig.set();
            let aborter = (owner + 1) % 3;
            assert!(!lock.enter_core(&mem, aborter, &sig, &NoProbe).entered());
            lock.exit(&mem, owner, &NoProbe);
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
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit(&mem, 0, &NoProbe);
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
            assert!(lock
                .enter_core(&mem, owner, &NeverAbort, &NoProbe)
                .entered());
            for offset in 1..4 {
                let p = (owner + offset) % 4;
                assert!(!lock.enter_core(&mem, p, &sig, &NoProbe).entered());
            }
            lock.exit(&mem, owner, &NoProbe);
        }
    }

    #[test]
    fn eager_resets_zero_also_works() {
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout_with(&mut b, 2, 2, Ascent::Plain, 0);
        let mem = b.build_cc(2);
        for _ in 0..30 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
            lock.exit(&mem, 0, &NoProbe);
        }
    }

    #[test]
    fn lock_trait_object_usage() {
        // Through the lock traits, at the erased memory type.
        let (lock, mem) = build(2);
        let mem: &dyn Mem = &mem;
        assert!(!LockMeta::is_one_shot(&lock));
        assert!(lock.enter_core(mem, 1, &NeverAbort, &NoProbe).entered());
        lock.exit_core(mem, 1, &NoProbe);
        assert!(LockMeta::name(&lock).contains("long-lived"));
    }

    #[test]
    fn an_exit_names_the_key_of_the_waiter_it_releases() {
        let (lock, mem) = build(3);
        // p0 holds; p1 queues behind it and reports its slot's key.
        assert!(lock.enter_core(&mem, 0, &NeverAbort, &NoProbe).entered());
        let mut m1 = lock.begin_enter();
        let EnterStep::Pending(key) = lock.poll_enter(&mut m1, &mem, 1, &NeverAbort, &NoProbe)
        else {
            panic!("p1 must queue behind p0");
        };
        assert!(matches!(key, WaitKey::Slot { ticket: 1, .. }));
        assert_eq!(m1.wait_key(), Some(key));
        // p0's exit hands go[1] to p1; p1 still holds a reference, so
        // the instance stays.
        let h = lock.exit(&mem, 0, &NoProbe);
        assert_eq!((h.slot(), h.switched()), (Some(key), false));
        assert!(lock
            .poll_enter(&mut m1, &mem, 1, &NeverAbort, &NoProbe)
            .acquired());
        // p0 comes back in the same epoch: it waits on the epoch.
        let mut m0 = lock.begin_enter();
        let step = lock.poll_enter(&mut m0, &mem, 0, &NeverAbort, &NoProbe);
        assert_eq!(step, EnterStep::Pending(WaitKey::Epoch));
        // The last one out switches instances, releasing it.
        let h = lock.exit(&mem, 1, &NoProbe);
        assert!(h.switched());
        assert!(lock
            .poll_enter(&mut m0, &mem, 0, &NeverAbort, &NoProbe)
            .acquired());
        assert!(lock.exit(&mem, 0, &NoProbe).switched());
    }

    #[test]
    fn instance_switches_are_noted_to_the_probe() {
        let (lock, mem) = build(2);
        let log = sal_obs::EventLog::new(256);
        // Solo passages: every exit drops refcnt to 0 and switches.
        for _ in 0..5 {
            assert!(lock.enter_core(&mem, 0, &NeverAbort, &log).entered());
            lock.exit(&mem, 0, &log);
        }
        let switches = log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, sal_obs::ObsEventKind::Note("instance-switch", _)))
            .count() as u64;
        assert_eq!(
            switches,
            lock.stats().switches,
            "probe notes must mirror the PathStats switch counter"
        );
        assert!(switches >= 4);
    }

    #[test]
    fn a_switch_is_faa_cas_go_and_no_passage_costs_more_operations() {
        use sal_memory::{OpKind, TracingMem};
        let mut b = MemoryBuilder::new();
        let lock = BoundedLongLivedLock::layout(&mut b, 4, 16);
        let mem = b.build_cc(4);
        let traced = TracingMem::new(&mem);
        // (reads, writes, CAS, F&A) of solo passages 1–12 with Cleanup's
        // lines 71–75 before the line-76 CAS, in the paper's order.
        let mut paper_order = [(27, 14, 6, 3); 12];
        paper_order[0] = (27, 9, 1, 3);
        paper_order[11] = (27, 15, 7, 3);
        for (k, &(reads, writes, cas, faa)) in paper_order.iter().enumerate() {
            traced.clear();
            assert!(lock.enter_core(&traced, 0, &NeverAbort, &NoProbe).entered());
            lock.exit(&traced, 0, &NoProbe);
            let ops = traced.entries();
            let count = |kind| ops.iter().filter(|e| e.kind == kind).count();
            let counts = (
                count(OpKind::Read),
                count(OpKind::Write),
                count(OpKind::Cas),
                count(OpKind::Faa),
            );
            let passage = k + 1;
            assert!(
                counts.0 <= reads && counts.1 <= writes && counts.2 <= cas && counts.3 <= faa,
                "passage {passage}: {counts:?} exceeds {:?}",
                (reads, writes, cas, faa)
            );
            // Cleanup's refcount F&A is the passage's last F&A on the
            // descriptor; the descriptor CAS follows it, then the go
            // write that releases the epoch's waiters.
            let f = ops
                .iter()
                .rposition(|e| e.kind == OpKind::Faa && e.word == lock.desc)
                .unwrap();
            let replaced = TaggedDesc::unpack(ops[f].value);
            let switch: Vec<_> = ops[f + 1..f + 3]
                .iter()
                .map(|e| (e.kind, e.word, e.value))
                .collect();
            assert_eq!(
                switch,
                [
                    (OpKind::Cas, lock.desc, 1),
                    (OpKind::Write, lock.spins.go_word(replaced.spn), 1)
                ],
                "passage {passage}: the switch is F&A → CAS → go write"
            );
        }
    }
}
