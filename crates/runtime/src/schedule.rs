//! Schedule policies: who takes the next step.
//!
//! The paper's bounds are worst-case over *all* asynchronous schedules;
//! the simulator drives algorithms with fair round-robin schedules (for
//! starvation-freedom checks), seeded random schedules (statistical
//! interleaving coverage), and scripted prefixes (to pin down specific
//! races such as the crossed-paths scenarios of Figure 2).

use crate::rng::SmallRng;
use sal_memory::Pid;

/// View of the simulation the policy may consult.
#[derive(Debug)]
pub struct SchedStatus<'a> {
    /// Which processes have finished.
    pub finished: &'a [bool],
    /// Steps granted so far.
    pub step: u64,
}

impl SchedStatus<'_> {
    /// Number of processes still running.
    pub fn live(&self) -> usize {
        self.finished.iter().filter(|&&f| !f).count()
    }
}

/// Upper bound on how far a policy simulates ahead in
/// [`SchedulePolicy::peek_run`]. Purely a work bound on the lookahead
/// itself — the scheduler additionally caps leases by the step limit,
/// the abort plan and [`SimOptions::lease`](crate::SimOptions::lease).
pub const PEEK_CAP: u64 = 4096;

/// Chooses which live process takes the next step.
pub trait SchedulePolicy: Send {
    /// Pick the next process; must return a pid with
    /// `status.finished[pid] == false`. Called only while at least one
    /// process is live.
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid;

    /// Lookahead for step leases: immediately after a [`Self::next`]
    /// call returned `chosen`, how many *additional*
    /// consecutive decisions would also pick `chosen`, assuming the
    /// live set does not change? Must be side-effect-free (simulate on
    /// clones, never mutate). The scheduler may then grant `chosen` a
    /// lease and confirm the decisions actually consumed with
    /// [`commit_run`](Self::commit_run).
    ///
    /// The default is `0`: no lookahead, every step is a fresh
    /// decision — always correct, never leases.
    fn peek_run(&self, status: &SchedStatus<'_>, chosen: Pid) -> u64 {
        let _ = (status, chosen);
        0
    }

    /// Advance internal state exactly as if [`next`](Self::next) had
    /// returned `chosen` `taken` more times. Called with
    /// `1 <= taken <= peek_run(..)`'s return value, after the leased
    /// steps executed; `chosen` was live at each of those decision
    /// points (only the leaseholder runs during a lease, and a holder
    /// that finishes does so on its *last* executed step).
    ///
    /// Policies that keep the default `peek_run` never see this call.
    fn commit_run(&mut self, chosen: Pid, taken: u64) {
        let _ = chosen;
        unreachable!("commit_run({taken}) on a policy that never peeks ahead");
    }
}

/// Fair round-robin over live processes.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// New round-robin policy starting at process 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SchedulePolicy for RoundRobin {
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid {
        let n = status.finished.len();
        for _ in 0..n {
            let p = self.cursor % n;
            self.cursor += 1;
            if !status.finished[p] {
                return p;
            }
        }
        unreachable!("next() called with no live process");
    }

    fn peek_run(&self, status: &SchedStatus<'_>, _chosen: Pid) -> u64 {
        // Round-robin re-picks the same pid consecutively only when it
        // is the sole survivor — and then forever (until it finishes).
        if status.live() == 1 {
            u64::MAX
        } else {
            0
        }
    }

    fn commit_run(&mut self, _chosen: Pid, _taken: u64) {
        // Each solo next() leaves `cursor ≡ chosen + 1 (mod n)` — the
        // scan wraps all the way around back to `chosen`. Only
        // `cursor mod n` is observable, so replaying the skipped calls
        // would be a no-op.
    }
}

/// Uniformly random choice among live processes, from a seeded RNG —
/// deterministic given the seed, fair with probability 1.
#[derive(Debug)]
pub struct RandomSchedule {
    rng: SmallRng,
    /// `live.len()` at the last `next()` call: `commit_run` must replay
    /// draws over the same span to keep the RNG stream byte-identical.
    last_len: usize,
}

impl RandomSchedule {
    /// Random schedule from `seed`.
    pub fn seeded(seed: u64) -> Self {
        RandomSchedule {
            rng: SmallRng::seed_from_u64(seed),
            last_len: 0,
        }
    }
}

impl SchedulePolicy for RandomSchedule {
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid {
        let live: Vec<Pid> = (0..status.finished.len())
            .filter(|&p| !status.finished[p])
            .collect();
        self.last_len = live.len();
        live[self.rng.random_range(0..live.len())]
    }

    fn peek_run(&self, status: &SchedStatus<'_>, chosen: Pid) -> u64 {
        // Simulate upcoming draws on a clone; every draw consumes RNG
        // state (even over a single live process), so the run length is
        // however many consecutive draws land on `chosen`.
        let live: Vec<Pid> = (0..status.finished.len())
            .filter(|&p| !status.finished[p])
            .collect();
        let mut rng = self.rng.clone();
        let mut run = 0;
        while run < PEEK_CAP && live[rng.random_range(0..live.len())] == chosen {
            run += 1;
        }
        run
    }

    fn commit_run(&mut self, _chosen: Pid, taken: u64) {
        // Replay the draws peek_run simulated so the real RNG stream
        // advances identically to `taken` per-step next() calls.
        for _ in 0..taken {
            let _ = self.rng.random_range(0..self.last_len);
        }
    }
}

/// A random schedule that *bursts*: it keeps scheduling the same process
/// for a geometrically distributed run before switching. Long runs of one
/// process are exactly what expose handoff races (e.g. an aborter
/// completing `Remove` while an exiter is mid-`FindNext`).
#[derive(Debug)]
pub struct BurstySchedule {
    rng: SmallRng,
    current: Option<Pid>,
    continue_prob: f64,
}

impl BurstySchedule {
    /// Bursty schedule from `seed`; after each step the current process
    /// keeps running with probability `continue_prob`.
    pub fn seeded(seed: u64, continue_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&continue_prob));
        BurstySchedule {
            rng: SmallRng::seed_from_u64(seed),
            current: None,
            continue_prob,
        }
    }
}

impl SchedulePolicy for BurstySchedule {
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid {
        if let Some(p) = self.current {
            if !status.finished[p] && self.rng.random_bool(self.continue_prob) {
                return p;
            }
        }
        let live: Vec<Pid> = (0..status.finished.len())
            .filter(|&p| !status.finished[p])
            .collect();
        let p = live[self.rng.random_range(0..live.len())];
        self.current = Some(p);
        p
    }

    fn peek_run(&self, _status: &SchedStatus<'_>, chosen: Pid) -> u64 {
        // After next() returned `chosen`, `current == Some(chosen)` and
        // `chosen` is live (it holds the turn), so each upcoming call
        // consumes one continuation draw and re-picks `chosen` while
        // the draws come up true. Count them on a clone.
        debug_assert_eq!(self.current, Some(chosen));
        let mut rng = self.rng.clone();
        let mut run = 0;
        while run < PEEK_CAP && rng.random_bool(self.continue_prob) {
            run += 1;
        }
        run
    }

    fn commit_run(&mut self, _chosen: Pid, taken: u64) {
        for _ in 0..taken {
            let cont = self.rng.random_bool(self.continue_prob);
            debug_assert!(cont, "committed draw diverged from peek_run");
        }
    }
}

/// Runs a scripted prefix of pids (skipping entries for finished
/// processes), then falls back to another policy. Used to reproduce
/// specific interleavings deterministically.
pub struct Scripted {
    script: std::vec::IntoIter<Pid>,
    fallback: Box<dyn SchedulePolicy>,
}

impl std::fmt::Debug for Scripted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scripted").finish_non_exhaustive()
    }
}

impl Scripted {
    /// Play `script`, then delegate to `fallback`.
    pub fn new(script: Vec<Pid>, fallback: Box<dyn SchedulePolicy>) -> Self {
        Scripted {
            script: script.into_iter(),
            fallback,
        }
    }
}

impl SchedulePolicy for Scripted {
    fn next(&mut self, status: &SchedStatus<'_>) -> Pid {
        for p in self.script.by_ref() {
            if !status.finished[p] {
                return p;
            }
        }
        self.fallback.next(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(finished: &[bool]) -> SchedStatus<'_> {
        SchedStatus { finished, step: 0 }
    }

    #[test]
    fn round_robin_skips_finished() {
        let mut rr = RoundRobin::new();
        let fin = [false, true, false];
        let picks: Vec<Pid> = (0..4).map(|_| rr.next(&status(&fin))).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let fin = vec![false; 8];
        let a: Vec<Pid> = {
            let mut s = RandomSchedule::seeded(42);
            (0..100).map(|_| s.next(&status(&fin))).collect()
        };
        let b: Vec<Pid> = {
            let mut s = RandomSchedule::seeded(42);
            (0..100).map(|_| s.next(&status(&fin))).collect()
        };
        assert_eq!(a, b);
        let c: Vec<Pid> = {
            let mut s = RandomSchedule::seeded(43);
            (0..100).map(|_| s.next(&status(&fin))).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn random_schedule_touches_everyone() {
        let fin = vec![false; 4];
        let mut s = RandomSchedule::seeded(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.next(&status(&fin))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bursty_schedule_produces_runs() {
        let fin = vec![false; 4];
        let mut s = BurstySchedule::seeded(1, 0.9);
        let picks: Vec<Pid> = (0..200).map(|_| s.next(&status(&fin))).collect();
        let runs = picks.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs > 100, "expected long runs, got {runs} repeats");
    }

    #[test]
    fn scripted_prefix_then_fallback() {
        let fin = [false, false];
        let mut s = Scripted::new(vec![1, 1, 0], Box::new(RoundRobin::new()));
        assert_eq!(s.next(&status(&fin)), 1);
        assert_eq!(s.next(&status(&fin)), 1);
        assert_eq!(s.next(&status(&fin)), 0);
        // Fallback round-robin takes over.
        assert_eq!(s.next(&status(&fin)), 0);
        assert_eq!(s.next(&status(&fin)), 1);
    }

    #[test]
    fn scripted_skips_finished_entries() {
        let fin = [false, true];
        let mut s = Scripted::new(vec![1, 1, 0], Box::new(RoundRobin::new()));
        assert_eq!(s.next(&status(&fin)), 0);
    }

    /// Drive `policy` for `steps` decisions using peek_run/commit_run
    /// greedily (take every full peeked run) and return the flattened
    /// decision stream. Byte-identity of the simulator rests on this
    /// equalling the plain per-step stream.
    fn leased_stream(policy: &mut dyn SchedulePolicy, fin: &[bool], steps: usize) -> Vec<Pid> {
        let mut out = Vec::new();
        while out.len() < steps {
            let st = status(fin);
            let p = policy.next(&st);
            out.push(p);
            let extra = policy
                .peek_run(&status(fin), p)
                .min((steps - out.len()) as u64);
            if extra > 0 {
                policy.commit_run(p, extra);
                out.extend(std::iter::repeat_n(p, extra as usize));
            }
        }
        out
    }

    #[test]
    fn round_robin_lease_stream_matches_per_step() {
        let fin = [true, false, true];
        let per_step: Vec<Pid> = {
            let mut rr = RoundRobin::new();
            (0..50).map(|_| rr.next(&status(&fin))).collect()
        };
        let leased = leased_stream(&mut RoundRobin::new(), &fin, 50);
        assert_eq!(per_step, leased);
        assert_eq!(per_step, vec![1; 50]);
    }

    #[test]
    fn round_robin_does_not_peek_while_contended() {
        let rr = RoundRobin::new();
        let fin = [false, false];
        assert_eq!(rr.peek_run(&status(&fin), 0), 0);
    }

    #[test]
    fn random_lease_stream_matches_per_step() {
        for seed in [1u64, 7, 42, 1234] {
            let fin = vec![false; 2];
            let per_step: Vec<Pid> = {
                let mut s = RandomSchedule::seeded(seed);
                (0..300).map(|_| s.next(&status(&fin))).collect()
            };
            let leased = leased_stream(&mut RandomSchedule::seeded(seed), &fin, 300);
            assert_eq!(per_step, leased, "seed {seed}");
        }
    }

    #[test]
    fn random_solo_lease_replays_the_consumed_draws() {
        // One live process: every pick is pid 2, but each still burns a
        // draw — commit_run must keep the RNG stream aligned so the
        // schedule is unchanged once more processes matter again.
        let fin = [true, true, false];
        let per_step: Vec<Pid> = {
            let mut s = RandomSchedule::seeded(9);
            (0..64).map(|_| s.next(&status(&fin))).collect()
        };
        let leased = leased_stream(&mut RandomSchedule::seeded(9), &fin, 64);
        assert_eq!(per_step, leased);
    }

    #[test]
    fn bursty_lease_stream_matches_per_step() {
        for seed in [1u64, 5, 99] {
            let fin = vec![false; 4];
            let per_step: Vec<Pid> = {
                let mut s = BurstySchedule::seeded(seed, 0.9);
                (0..500).map(|_| s.next(&status(&fin))).collect()
            };
            let leased = leased_stream(&mut BurstySchedule::seeded(seed, 0.9), &fin, 500);
            assert_eq!(per_step, leased, "seed {seed}");
        }
    }

    #[test]
    fn bursty_peeks_whole_bursts() {
        let fin = vec![false; 4];
        let mut s = BurstySchedule::seeded(3, 0.9);
        let p = s.next(&status(&fin));
        // With continue_prob 0.9 the expected run is ~10 steps; any
        // positive peek proves the lease path engages on bursts.
        let mut peeked_any = s.peek_run(&status(&fin), p) > 0;
        for _ in 0..50 {
            let p = s.next(&status(&fin));
            peeked_any |= s.peek_run(&status(&fin), p) > 0;
        }
        assert!(peeked_any, "bursty schedule never offered a lease");
    }

    #[test]
    fn peek_run_is_side_effect_free() {
        let fin = vec![false; 3];
        let mut a = RandomSchedule::seeded(11);
        let mut b = RandomSchedule::seeded(11);
        let pa = a.next(&status(&fin));
        let pb = b.next(&status(&fin));
        assert_eq!(pa, pb);
        // Peek a twice; never peek b. Streams must stay identical.
        let _ = a.peek_run(&status(&fin), pa);
        let _ = a.peek_run(&status(&fin), pa);
        let sa: Vec<Pid> = (0..100).map(|_| a.next(&status(&fin))).collect();
        let sb: Vec<Pid> = (0..100).map(|_| b.next(&status(&fin))).collect();
        assert_eq!(sa, sb);
    }
}
