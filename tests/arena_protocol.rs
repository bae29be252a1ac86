//! Exhaustive-interleaving model check of the inline-word protocol
//! (`sal_core::arena_word`, executed by `Word` in `sal_sync`'s
//! `driver.rs` for the keyed arena and both mutexes).
//!
//! The promotion/demotion protocol is a handful of SeqCst operations
//! whose correctness depends on ordering windows real threads only
//! occasionally open (promote racing an inline unlock, join racing a
//! demotion, a stale joiner incrementing a freed core's counter). This
//! test re-states each participant as an explicit step-granular state
//! machine — every atomic access of `Word`'s
//! `dispatch`/`materialize`/`join`/`enter_core`/`unlock`/`depart`, and
//! of the core's pid admission, is one model step, using the *same*
//! word-encoding and counter rules exported by
//! [`sal_core::arena_word`] — and explores **every** interleaving by
//! depth-first search over reachable states.
//!
//! The source of cores is a pool of one. That is exactly a mutex's: its
//! resident core is claimed by a swap on one flag (`pool_free` here) and
//! given back by a store. An arena's pool behaves the same for one key's
//! traffic, and two keys sharing the one core cover reuse across keys.
//!
//! Checked in every reachable state:
//!
//! * mutual exclusion — at most one participant holds a key's lock
//!   (inline or through the core), per key;
//! * the packed word always decodes (no torn/invalid encodings);
//! * a free pool slot implies nobody holds the core's lock.
//!
//! Checked in every terminal state (and no terminal state may be a
//! deadlock):
//!
//! * every passage either entered or aborted — no lost unlocks;
//! * the word is back to `UNLOCKED`, the user counter to zero, every
//!   pid back, and the pooled core back in the pool — inline →
//!   materialized → inline round-trips leak nothing.

use sal_core::arena_word as word;
use std::collections::HashSet;

/// Who holds the single pooled core's internal lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Holder {
    None,
    /// The promoter's reserved pid, standing in for the inline holder.
    Proxy,
    Proc(usize),
}

/// Continuation after a `depart`: was this a completed passage or an
/// abandoned (aborted) attempt?
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum After {
    Passage,
    Abort,
}

/// One participant's program counter. Each variant is one atomic step
/// of the real protocol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Pc {
    /// Top of the acquire loop: read the word and dispatch.
    Dispatch,
    /// Read `Materialized(0)`; about to increment the user counter.
    SawMat,
    /// Counted in; revalidate the word (join's second half).
    JoinReval,
    /// Seated; check a pid out of the core (waits while none is free).
    TakePid,
    /// A counted user waiting for the core's lock.
    CoreWait,
    /// In the critical section via the inline word.
    InCsInline,
    /// In the critical section via the core.
    InCsCore,
    /// CS done; try the inline-release CAS.
    UnlockInline,
    /// Inline release lost to a promotion: exit through the proxy.
    ProxyExit,
    /// Release the core's lock.
    CoreExit,
    /// Give the pid back.
    PutPid,
    /// An expired attempt saw `LOCKED_INLINE`: check a pid out for
    /// its abort report (none free: report nothing),
    ReportTake,
    /// …and give it back.
    ReportPut,
    /// Give up the user seat (demote if last).
    Depart(After),
    DemoteSwap(After),
    DemoteClear(After),
    DemoteRelease(After),
    /// Pool slot acquired; take the proxy's user seat.
    PromoteSeat,
    /// Enter the fresh core as the proxy.
    PromoteEnter,
    /// Publish the core: CAS the word to `Materialized`.
    PromotePublish,
    /// Publish raced; unwind: exit the core,
    UndoExit,
    /// …drop the proxy seat,
    UndoSeat,
    /// …and return the slot to the pool.
    UndoRelease,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Proc {
    pc: Pc,
    passages_left: u8,
    entered: u8,
    aborted: u8,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct St {
    /// One inline word per key (pool capacity is 1, so a materialized
    /// word always encodes core index 0).
    words: Vec<u64>,
    /// The single core's user counter (may hold `USERS_DEMOTING`).
    users: usize,
    /// Whether the one core is unclaimed: the pool's free list, or a
    /// mutex's claim flag.
    pool_free: bool,
    /// Pids of the core checked out (the proxy's is never counted).
    pids_out: u8,
    holder: Holder,
    procs: Vec<Proc>,
}

/// Static per-scenario configuration (kept out of the hashed state).
struct Scenario {
    name: &'static str,
    /// `keys[i][k]` = key of proc `i`'s `k`-th passage.
    schedule: Vec<Vec<usize>>,
    /// Procs that abort instead of entering once the fast path fails.
    aborts: Vec<bool>,
    n_keys: usize,
    /// Pids the core admits.
    pids: u8,
}

impl Scenario {
    fn initial(&self) -> St {
        St {
            words: vec![word::UNLOCKED; self.n_keys],
            users: 0,
            pool_free: true,
            pids_out: 0,
            holder: Holder::None,
            procs: self
                .schedule
                .iter()
                .map(|s| Proc {
                    pc: Pc::Dispatch,
                    passages_left: s.len() as u8,
                    entered: 0,
                    aborted: 0,
                })
                .collect(),
        }
    }

    /// The key proc `i` is currently working on.
    fn key(&self, st: &St, i: usize) -> usize {
        let done = self.schedule[i].len() - st.procs[i].passages_left as usize;
        self.schedule[i][done.min(self.schedule[i].len() - 1)]
    }
}

fn finish(p: &mut Proc, after: After) {
    match after {
        After::Passage => {}
        After::Abort => p.aborted += 1,
    }
    p.passages_left -= 1;
    p.pc = if p.passages_left == 0 {
        Pc::Done
    } else {
        Pc::Dispatch
    };
}

/// All states reachable from `st` by letting proc `i` take one step.
fn step(sc: &Scenario, st: &St, i: usize) -> Vec<St> {
    let key = sc.key(st, i);
    let mut out = Vec::new();
    let mut next = |f: &dyn Fn(&mut St)| {
        let mut s = st.clone();
        f(&mut s);
        out.push(s);
    };
    match st.procs[i].pc {
        Pc::Done => {}
        Pc::Dispatch => match word::decode(st.words[key]) {
            word::WordState::Unlocked => next(&|s: &mut St| {
                s.words[key] = word::LOCKED_INLINE;
                s.procs[i].pc = Pc::InCsInline;
                s.procs[i].entered += 1;
            }),
            word::WordState::LockedInline => {
                if sc.aborts[i] {
                    // try_lock fast-fail: a set signal aborts before any
                    // materialization, reporting under a borrowed pid.
                    next(&|s: &mut St| s.procs[i].pc = Pc::ReportTake);
                }
                if st.pool_free {
                    next(&|s: &mut St| {
                        s.pool_free = false;
                        s.procs[i].pc = Pc::PromoteSeat;
                    });
                }
                // No core free and not aborting: re-read the word (the
                // arena's degraded spin; for a mutex, another promoter
                // or demoter is partway through its steps) — no enabled
                // step until the word or pool changes.
            }
            word::WordState::Materialized(idx) => {
                assert_eq!(idx, 0, "pool capacity is 1");
                next(&|s: &mut St| s.procs[i].pc = Pc::SawMat);
            }
        },
        Pc::SawMat => {
            let users = st.users;
            next(&|s: &mut St| match word::join_users(users) {
                Some(u) => {
                    s.users = u;
                    s.procs[i].pc = Pc::JoinReval;
                }
                None => s.procs[i].pc = Pc::Dispatch,
            });
        }
        Pc::JoinReval => {
            if st.words[key] == word::materialized(0) {
                next(&|s: &mut St| {
                    s.procs[i].pc = if sc.aborts[i] {
                        // Abort while queued: the bounded abort gives
                        // the seat straight back.
                        Pc::Depart(After::Abort)
                    } else {
                        Pc::TakePid
                    };
                });
            } else {
                // The core moved on between read and increment: undo
                // the seat (plain decrement, not a depart).
                next(&|s: &mut St| {
                    s.users -= 1;
                    s.procs[i].pc = Pc::Dispatch;
                });
            }
        }
        Pc::TakePid => {
            if st.pids_out < sc.pids {
                next(&|s: &mut St| {
                    s.pids_out += 1;
                    s.procs[i].pc = Pc::CoreWait;
                });
            }
        }
        Pc::ReportTake => next(&|s: &mut St| {
            if s.pids_out < sc.pids {
                s.pids_out += 1;
                s.procs[i].pc = Pc::ReportPut;
            } else {
                finish(&mut s.procs[i], After::Abort);
            }
        }),
        Pc::ReportPut => next(&|s: &mut St| {
            s.pids_out -= 1;
            finish(&mut s.procs[i], After::Abort);
        }),
        Pc::CoreWait => {
            if st.holder == Holder::None {
                next(&|s: &mut St| {
                    s.holder = Holder::Proc(i);
                    s.procs[i].pc = Pc::InCsCore;
                    s.procs[i].entered += 1;
                });
            }
        }
        Pc::InCsInline => next(&|s: &mut St| s.procs[i].pc = Pc::UnlockInline),
        Pc::InCsCore => next(&|s: &mut St| s.procs[i].pc = Pc::CoreExit),
        Pc::UnlockInline => {
            if st.words[key] == word::LOCKED_INLINE {
                next(&|s: &mut St| {
                    s.words[key] = word::UNLOCKED;
                    finish(&mut s.procs[i], After::Passage);
                });
            } else {
                assert_eq!(
                    st.words[key],
                    word::materialized(0),
                    "an inline hold can only change by promotion"
                );
                next(&|s: &mut St| s.procs[i].pc = Pc::ProxyExit);
            }
        }
        Pc::ProxyExit => {
            assert_eq!(st.holder, Holder::Proxy, "proxy models our hold");
            next(&|s: &mut St| {
                s.holder = Holder::None;
                s.procs[i].pc = Pc::Depart(After::Passage);
            });
        }
        Pc::CoreExit => {
            assert_eq!(st.holder, Holder::Proc(i));
            next(&|s: &mut St| {
                s.holder = Holder::None;
                s.procs[i].pc = Pc::PutPid;
            });
        }
        Pc::PutPid => next(&|s: &mut St| {
            s.pids_out -= 1;
            s.procs[i].pc = Pc::Depart(After::Passage);
        }),
        Pc::Depart(after) => {
            assert!(
                st.users != 0 && st.users != word::USERS_DEMOTING,
                "departing a dead core"
            );
            if word::may_demote(st.users) {
                next(&|s: &mut St| {
                    s.users = word::USERS_DEMOTING;
                    s.procs[i].pc = Pc::DemoteSwap(after);
                });
            } else {
                next(&|s: &mut St| {
                    s.users -= 1;
                    finish(&mut s.procs[i], after);
                });
            }
        }
        Pc::DemoteSwap(after) => {
            assert_eq!(st.words[key], word::materialized(0), "demoting a live key");
            next(&|s: &mut St| {
                s.words[key] = word::UNLOCKED;
                s.procs[i].pc = Pc::DemoteClear(after);
            });
        }
        Pc::DemoteClear(after) => next(&|s: &mut St| {
            s.users = 0;
            s.procs[i].pc = Pc::DemoteRelease(after);
        }),
        Pc::DemoteRelease(after) => next(&|s: &mut St| {
            s.pool_free = true;
            finish(&mut s.procs[i], after);
        }),
        Pc::PromoteSeat => {
            assert_ne!(st.users, word::USERS_DEMOTING, "pool slot was free");
            next(&|s: &mut St| {
                s.users += 1;
                s.procs[i].pc = Pc::PromoteEnter;
            });
        }
        Pc::PromoteEnter => {
            assert_eq!(st.holder, Holder::None, "fresh core acquires immediately");
            next(&|s: &mut St| {
                s.holder = Holder::Proxy;
                s.procs[i].pc = Pc::PromotePublish;
            });
        }
        Pc::PromotePublish => {
            if st.words[key] == word::LOCKED_INLINE {
                next(&|s: &mut St| {
                    s.words[key] = word::materialized(0);
                    s.procs[i].pc = Pc::Dispatch;
                });
            } else {
                next(&|s: &mut St| s.procs[i].pc = Pc::UndoExit);
            }
        }
        Pc::UndoExit => {
            assert_eq!(st.holder, Holder::Proxy);
            next(&|s: &mut St| {
                s.holder = Holder::None;
                s.procs[i].pc = Pc::UndoSeat;
            });
        }
        Pc::UndoSeat => {
            assert!(st.users >= 1 && st.users != word::USERS_DEMOTING);
            next(&|s: &mut St| {
                s.users -= 1;
                s.procs[i].pc = Pc::UndoRelease;
            });
        }
        Pc::UndoRelease => next(&|s: &mut St| {
            s.pool_free = true;
            s.procs[i].pc = Pc::Dispatch;
        }),
    }
    out
}

/// Does proc `i` currently hold key `k`'s lock (in either mode)?
fn holds(sc: &Scenario, st: &St, i: usize, k: usize) -> bool {
    sc.key(st, i) == k
        && matches!(
            st.procs[i].pc,
            Pc::InCsInline | Pc::UnlockInline | Pc::ProxyExit | Pc::InCsCore | Pc::CoreExit
        )
}

fn check_invariants(sc: &Scenario, st: &St) {
    for k in 0..sc.n_keys {
        // Decode panics on an invalid encoding — reaching it is the check.
        let _ = word::decode(st.words[k]);
        let holders = (0..st.procs.len()).filter(|&i| holds(sc, st, i, k)).count();
        assert!(
            holders <= 1,
            "mutual exclusion violated on key {k}: {st:?} in {}",
            sc.name
        );
    }
    if st.pool_free {
        assert_eq!(
            st.holder,
            Holder::None,
            "a free pool slot cannot have a held core: {st:?} in {}",
            sc.name
        );
    }
    assert!(st.pids_out <= sc.pids, "pid over-admission: {st:?}");
}

fn check_final(sc: &Scenario, st: &St) {
    for (i, p) in st.procs.iter().enumerate() {
        assert_eq!(
            p.pc,
            Pc::Done,
            "deadlock: proc {i} stuck with no enabled step: {st:?} in {}",
            sc.name
        );
        assert_eq!(
            (p.entered + p.aborted) as usize,
            sc.schedule[i].len(),
            "proc {i} lost a passage: {st:?} in {}",
            sc.name
        );
    }
    for k in 0..sc.n_keys {
        assert_eq!(st.words[k], word::UNLOCKED, "key {k} not demoted: {st:?}");
    }
    assert_eq!(st.users, 0, "user counter leaked: {st:?} in {}", sc.name);
    assert_eq!(st.pids_out, 0, "pid leaked: {st:?} in {}", sc.name);
    assert!(st.pool_free, "pooled core leaked: {st:?} in {}", sc.name);
    assert_eq!(st.holder, Holder::None);
}

/// DFS over every reachable interleaving; returns (states, terminals).
fn explore(sc: &Scenario) -> (usize, usize) {
    let (states, terminals, _) = explore_witness(sc, |_| false);
    (states, terminals)
}

/// [`explore`], also counting the reachable states where `witness`
/// holds (proof that a scenario reaches the window it targets).
fn explore_witness(sc: &Scenario, witness: impl Fn(&St) -> bool) -> (usize, usize, usize) {
    let mut seen: HashSet<St> = HashSet::new();
    let mut stack = vec![sc.initial()];
    let mut terminals = 0usize;
    let mut witnessed = 0usize;
    while let Some(st) = stack.pop() {
        if !seen.insert(st.clone()) {
            continue;
        }
        check_invariants(sc, &st);
        witnessed += usize::from(witness(&st));
        let mut any = false;
        for i in 0..st.procs.len() {
            for succ in step(sc, &st, i) {
                any = true;
                if !seen.contains(&succ) {
                    stack.push(succ);
                }
            }
        }
        if !any {
            check_final(sc, &st);
            terminals += 1;
        }
    }
    assert!(terminals > 0, "no terminal state reached in {}", sc.name);
    (seen.len(), terminals, witnessed)
}

#[test]
fn two_procs_two_passages_one_key() {
    let sc = Scenario {
        name: "2x2x1",
        schedule: vec![vec![0, 0], vec![0, 0]],
        aborts: vec![false, false],
        n_keys: 1,
        pids: 3,
    };
    let (states, _) = explore(&sc);
    assert!(states > 100, "exploration too shallow: {states} states");
}

#[test]
fn three_procs_one_passage_one_key() {
    let sc = Scenario {
        name: "3x1x1",
        schedule: vec![vec![0], vec![0], vec![0]],
        aborts: vec![false, false, false],
        n_keys: 1,
        pids: 3,
    };
    explore(&sc);
}

#[test]
fn two_keys_share_the_single_pooled_core() {
    // Each proc visits both keys in opposite order: the one core must
    // be demoted off one key before it can serve the other, and a
    // stale joiner must never latch onto a core republished for the
    // other key.
    let sc = Scenario {
        name: "cross-key",
        schedule: vec![vec![0, 1], vec![1, 0]],
        aborts: vec![false, false],
        n_keys: 2,
        pids: 3,
    };
    explore(&sc);
}

#[test]
fn an_aborter_in_the_queue_leaks_nothing() {
    let sc = Scenario {
        name: "aborter",
        schedule: vec![vec![0, 0], vec![0]],
        aborts: vec![false, true],
        n_keys: 1,
        pids: 3,
    };
    explore(&sc);
}

#[test]
fn three_procs_with_one_aborter_two_passages() {
    let sc = Scenario {
        name: "3-mixed",
        schedule: vec![vec![0, 0], vec![0], vec![0]],
        aborts: vec![false, true, false],
        n_keys: 1,
        pids: 3,
    };
    explore(&sc);
}

#[test]
fn an_immediate_attempt_on_an_inline_hold_leaves_no_seat_or_pid() {
    // A try_lock against an inline holder: it borrows a pid for its
    // abort report and gives it back, never claims the core, and never
    // takes a seat. With one pid, the report may also find none free.
    for pids in [1, 2] {
        let sc = Scenario {
            name: "immediate-on-inline",
            schedule: vec![vec![0], vec![0]],
            aborts: vec![false, true],
            n_keys: 1,
            pids,
        };
        let reporting = |st: &St| st.procs[1].pc == Pc::ReportPut;
        let seated = |st: &St| st.procs[1].pc == Pc::ReportPut && st.users > 0;
        let (_, _, reports) = explore_witness(&sc, reporting);
        assert!(reports > 0, "the report path is reached");
        let (_, _, bad) = explore_witness(&sc, seated);
        assert_eq!(bad, 0, "an inline holder is alone: no seat exists");
    }
}

#[test]
fn a_promoter_finds_the_single_core_claimed_while_a_demotion_is_in_flight() {
    // Proc 0's second passage can find proc 2 holding the word inline
    // while proc 1, the last one out of the first promotion, has reset
    // the word but not yet given the core back: no core is free, so it
    // re-reads the word until the demotion ends.
    let sc = Scenario {
        name: "claimed-during-demotion",
        schedule: vec![vec![0, 0], vec![0], vec![0]],
        aborts: vec![false, false, false],
        n_keys: 1,
        pids: 3,
    };
    let window = |st: &St| {
        let demoting = st
            .procs
            .iter()
            .any(|p| matches!(p.pc, Pc::DemoteClear(_) | Pc::DemoteRelease(_)));
        let blocked = st.procs[0].pc == Pc::Dispatch
            && st.procs[0].passages_left == 1
            && st.words[0] == word::LOCKED_INLINE;
        demoting && blocked && !st.pool_free
    };
    let (_, _, witnessed) = explore_witness(&sc, window);
    assert!(
        witnessed > 0,
        "the claimed-during-demotion window is reached"
    );
}
