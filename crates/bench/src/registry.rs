//! Build any lock in the workspace by kind, with its memory.

use sal_baselines::{LeeLock, McsLock, ScottLock, TasLock, TicketLock, TournamentLock};
use sal_core::long_lived::{BoundedLongLivedLock, JjLock, SimpleLongLivedLock};
use sal_core::one_shot::{DsmOneShotLock, OneShotLock};
use sal_core::tree::Ascent;
use sal_core::{LockCore, LockMeta, Outcome};
use sal_memory::{AbortSignal, CcMemory, Mem, MemoryBuilder, Pid, WordId};
use sal_obs::Probe;

/// Every lock the experiments can drive. `b` is the tree branching
/// factor (the paper's `W`) where applicable.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LockKind {
    /// The paper's one-shot lock (Figure 1) with the adaptive ascent.
    OneShot {
        /// Tree branching factor.
        b: usize,
    },
    /// The one-shot lock with the non-adaptive ascent of Algorithm 4.1.
    OneShotPlain {
        /// Tree branching factor.
        b: usize,
    },
    /// The DSM variant of the one-shot lock (§3).
    OneShotDsm {
        /// Tree branching factor.
        b: usize,
    },
    /// Figure-5 transformation over never-reused pools.
    LongLivedSimple {
        /// Tree branching factor.
        b: usize,
    },
    /// The final algorithm: §6.2 bounded-space long-lived lock.
    LongLived {
        /// Tree branching factor.
        b: usize,
    },
    /// MCS queue lock (classic, not abortable).
    Mcs,
    /// Ticket lock (classic, not abortable).
    Ticket,
    /// Test-and-test-and-set (abortable, unbounded RMR).
    Tas,
    /// Abortable Peterson tournament — the `O(log N)` Jayanti-row shape.
    Tournament,
    /// Scott-style abortable CLH queue lock.
    Scott,
    /// Lee-style F&A+SWAP abortable array lock.
    Lee,
    /// Jayanti–Jayanti-style constant-amortized-RMR abortable queue
    /// lock (abandon-on-abort + promotion walk).
    JjAmortized,
}

impl LockKind {
    /// The CLI names [`parse`](LockKind::parse) accepts, one per kind.
    pub const NAMES: &'static [&'static str] = &[
        "one-shot",
        "one-shot-plain",
        "one-shot-dsm",
        "long-lived",
        "long-lived-simple",
        "mcs",
        "ticket",
        "tas",
        "tournament",
        "scott",
        "lee",
        "jj-amortized",
    ];

    /// Short label for tables.
    pub fn label(self) -> String {
        match self {
            LockKind::OneShot { b } => format!("one-shot(B={b})"),
            LockKind::OneShotPlain { b } => format!("one-shot-plain(B={b})"),
            LockKind::OneShotDsm { b } => format!("one-shot-dsm(B={b})"),
            LockKind::LongLivedSimple { b } => format!("long-lived-simple(B={b})"),
            LockKind::LongLived { b } => format!("long-lived(B={b})"),
            LockKind::Mcs => "mcs".into(),
            LockKind::Ticket => "ticket".into(),
            LockKind::Tas => "tas".into(),
            LockKind::Tournament => "tournament".into(),
            LockKind::Scott => "scott".into(),
            LockKind::Lee => "lee".into(),
            LockKind::JjAmortized => "jj-amortized".into(),
        }
    }

    /// Whether the kind honours abort signals.
    pub fn abortable(self) -> bool {
        !matches!(self, LockKind::Mcs | LockKind::Ticket)
    }

    /// Whether each process may enter at most once.
    pub fn one_shot(self) -> bool {
        matches!(
            self,
            LockKind::OneShot { .. } | LockKind::OneShotPlain { .. } | LockKind::OneShotDsm { .. }
        )
    }

    /// Parse a CLI lock name (`one-shot`, `long-lived`, `mcs`, …) at
    /// branching factor `b` for the tree-based kinds.
    ///
    /// # Errors
    ///
    /// When the name matches no known lock kind; the message lists the
    /// valid names.
    pub fn parse(name: &str, b: usize) -> Result<LockKind, String> {
        Ok(match name {
            "one-shot" => LockKind::OneShot { b },
            "one-shot-plain" => LockKind::OneShotPlain { b },
            "one-shot-dsm" => LockKind::OneShotDsm { b },
            "long-lived" => LockKind::LongLived { b },
            "long-lived-simple" => LockKind::LongLivedSimple { b },
            "mcs" => LockKind::Mcs,
            "ticket" => LockKind::Ticket,
            "tas" => LockKind::Tas,
            "tournament" => LockKind::Tournament,
            "scott" => LockKind::Scott,
            "lee" => LockKind::Lee,
            "jj-amortized" => LockKind::JjAmortized,
            other => {
                return Err(format!(
                    "unknown lock {other}; valid kinds: {}",
                    LockKind::NAMES.join(", ")
                ))
            }
        })
    }

    /// Every registered kind, in [`NAMES`](Self::NAMES) order, at
    /// branching factor `b` for the tree-based kinds — the single
    /// registry-driven source for "run this over everything" loops
    /// (`table1`'s amortized column, `figures`, conformance grids).
    pub fn all(b: usize) -> Vec<LockKind> {
        Self::NAMES
            .iter()
            .map(|name| LockKind::parse(name, b).expect("every NAMES entry parses"))
            .collect()
    }

    /// Whether the kind is a row of the Table-1 comparison: the
    /// abortable contenders, minus the ablation/model variants
    /// (`one-shot-plain`, `one-shot-dsm`, the unbounded-pool
    /// `long-lived-simple`) and the unbounded-RMR `tas` strawman.
    /// New kinds appear in `table1`/`figures` automatically unless
    /// they opt out here.
    pub fn in_table1(self) -> bool {
        self.abortable()
            && !matches!(
                self,
                LockKind::OneShotPlain { .. }
                    | LockKind::OneShotDsm { .. }
                    | LockKind::LongLivedSimple { .. }
                    | LockKind::Tas
            )
    }

    /// The abortable contenders of Table 1 (rows of the comparison), at
    /// a given branching factor for our algorithms — derived from
    /// [`NAMES`](Self::NAMES) via [`in_table1`](Self::in_table1), never
    /// hand-listed.
    pub fn table1_rows(b: usize) -> Vec<LockKind> {
        Self::all(b).into_iter().filter(|k| k.in_table1()).collect()
    }
}

/// Defines [`AnyLock`] from one list of `variant(type)` pairs, and
/// its [`LockMeta`] and [`LockCore`] impls as a `match` over that same
/// list, so the enum and its impls cannot drift apart.
macro_rules! any_lock {
    ($($variant:ident($lock:ty)),* $(,)?) => {
        /// Any lock the registry builds, one variant per [`LockKind`]:
        /// run-time choice of lock with static dispatch inside each
        /// arm. It implements [`LockCore`] for every memory and probe
        /// type, as each lock does.
        #[derive(Debug)]
        pub enum AnyLock {
            $(
                #[doc = concat!("A [`LockKind::", stringify!($variant), "`] lock.")]
                $variant($lock),
            )*
        }

        impl LockMeta for AnyLock {
            fn name(&self) -> String {
                match self {
                    $(AnyLock::$variant(l) => l.name(),)*
                }
            }

            fn is_abortable(&self) -> bool {
                match self {
                    $(AnyLock::$variant(l) => l.is_abortable(),)*
                }
            }

            fn is_one_shot(&self) -> bool {
                match self {
                    $(AnyLock::$variant(l) => l.is_one_shot(),)*
                }
            }
        }

        impl<M: Mem + ?Sized, P: Probe + ?Sized> LockCore<M, P> for AnyLock {
            fn enter_core<S: AbortSignal + ?Sized>(
                &self,
                mem: &M,
                p: Pid,
                signal: &S,
                probe: &P,
            ) -> Outcome {
                match self {
                    $(AnyLock::$variant(l) => l.enter_core(mem, p, signal, probe),)*
                }
            }

            fn exit_core(&self, mem: &M, p: Pid, probe: &P) {
                match self {
                    $(AnyLock::$variant(l) => l.exit_core(mem, p, probe),)*
                }
            }
        }
    };
}

any_lock! {
    OneShot(OneShotLock),
    OneShotPlain(OneShotLock),
    OneShotDsm(DsmOneShotLock),
    LongLivedSimple(SimpleLongLivedLock),
    LongLived(BoundedLongLivedLock),
    Mcs(McsLock),
    Ticket(TicketLock),
    Tas(TasLock),
    Tournament(TournamentLock),
    Scott(ScottLock),
    Lee(LeeLock),
    JjAmortized(JjLock),
}

/// A built lock plus the memory and scratch word the harness needs.
#[derive(Debug)]
pub struct BuiltLock {
    /// The lock.
    pub lock: AnyLock,
    /// CC memory holding the lock's words.
    pub mem: CcMemory,
    /// Scratch word the CS body hammers.
    pub cs_word: WordId,
    /// Shared words the lock's layout occupies (Table-1 space column).
    pub words: usize,
}

/// Build `kind` for `n` processes, budgeting for `attempts` total enter
/// attempts (relevant for the arena-based baselines and the simple
/// long-lived lock).
pub fn build_lock(kind: LockKind, n: usize, attempts: usize) -> BuiltLock {
    let mut b = MemoryBuilder::new();
    let lock = match kind {
        LockKind::OneShot { b: w } => AnyLock::OneShot(OneShotLock::layout(&mut b, n, w)),
        LockKind::OneShotPlain { b: w } => {
            AnyLock::OneShotPlain(OneShotLock::layout_with(&mut b, n, w, Ascent::Plain))
        }
        LockKind::OneShotDsm { b: w } => AnyLock::OneShotDsm(DsmOneShotLock::layout(&mut b, n, w)),
        LockKind::LongLivedSimple { b: w } => {
            AnyLock::LongLivedSimple(SimpleLongLivedLock::layout(&mut b, n, w, attempts + 1))
        }
        LockKind::LongLived { b: w } => {
            AnyLock::LongLived(BoundedLongLivedLock::layout(&mut b, n, w))
        }
        LockKind::Mcs => AnyLock::Mcs(McsLock::layout(&mut b, n)),
        LockKind::Ticket => AnyLock::Ticket(TicketLock::layout(&mut b)),
        LockKind::Tas => AnyLock::Tas(TasLock::layout(&mut b)),
        LockKind::Tournament => AnyLock::Tournament(TournamentLock::layout(&mut b, n)),
        LockKind::Scott => AnyLock::Scott(ScottLock::layout(&mut b, n, attempts + 1)),
        LockKind::Lee => AnyLock::Lee(LeeLock::layout(&mut b, n, attempts + 1)),
        LockKind::JjAmortized => AnyLock::JjAmortized(JjLock::layout(&mut b, n)),
    };
    let words = b.words_allocated();
    let cs_word = b.alloc(0);
    BuiltLock {
        lock,
        mem: b.build_cc(n),
        cs_word,
        words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sal_memory::NeverAbort;

    #[test]
    fn every_kind_builds_and_takes_a_passage() {
        // Registry-driven: every NAMES entry must build and run.
        for kind in LockKind::all(4) {
            let built = build_lock(kind, 4, 16);
            let outcome = built
                .lock
                .enter_core(&built.mem, 0, &NeverAbort, &sal_obs::NoProbe);
            assert!(outcome.entered(), "{kind:?}");
            built.lock.exit_core(&built.mem, 0, &sal_obs::NoProbe);
            assert!(built.words > 0);
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn built_locks_state_their_kinds_metadata() {
        // `LockKind` and each lock's `LockMeta` state abortability and
        // one-shot use separately; they must agree for every kind.
        for kind in LockKind::all(4) {
            let built = build_lock(kind, 4, 16);
            assert_eq!(built.lock.is_abortable(), kind.abortable(), "{kind:?}");
            assert_eq!(built.lock.is_one_shot(), kind.one_shot(), "{kind:?}");
        }
    }

    #[test]
    fn metadata_matches_kind() {
        assert!(!LockKind::Mcs.abortable());
        assert!(!LockKind::Ticket.abortable());
        assert!(LockKind::Scott.abortable());
        assert!(LockKind::JjAmortized.abortable());
        assert!(!LockKind::JjAmortized.one_shot());
        assert!(LockKind::OneShot { b: 2 }.one_shot());
        assert!(!LockKind::LongLived { b: 2 }.one_shot());
        assert_eq!(LockKind::all(8).len(), LockKind::NAMES.len());
        // Table-1 rows are registry-driven: the abortable contenders,
        // in NAMES order, with the ablation variants and tas opted out.
        let rows = LockKind::table1_rows(8);
        assert_eq!(
            rows,
            vec![
                LockKind::OneShot { b: 8 },
                LockKind::LongLived { b: 8 },
                LockKind::Tournament,
                LockKind::Scott,
                LockKind::Lee,
                LockKind::JjAmortized,
            ]
        );
        assert!(rows.iter().all(|k| k.abortable() && k.in_table1()));
    }

    #[test]
    fn parse_covers_every_kind() {
        for (name, want) in [
            ("one-shot", LockKind::OneShot { b: 8 }),
            ("one-shot-plain", LockKind::OneShotPlain { b: 8 }),
            ("one-shot-dsm", LockKind::OneShotDsm { b: 8 }),
            ("long-lived", LockKind::LongLived { b: 8 }),
            ("long-lived-simple", LockKind::LongLivedSimple { b: 8 }),
            ("mcs", LockKind::Mcs),
            ("ticket", LockKind::Ticket),
            ("tas", LockKind::Tas),
            ("tournament", LockKind::Tournament),
            ("scott", LockKind::Scott),
            ("lee", LockKind::Lee),
            ("jj-amortized", LockKind::JjAmortized),
        ] {
            assert_eq!(LockKind::parse(name, 8).unwrap(), want);
        }
        assert!(LockKind::parse("bogus", 8).is_err());
    }

    #[test]
    fn parse_error_lists_every_valid_kind() {
        let err = LockKind::parse("bogus", 8).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        for name in LockKind::NAMES {
            assert!(err.contains(name), "error should list {name:?}: {err}");
        }
        // NAMES and parse agree: every listed name parses.
        for name in LockKind::NAMES {
            assert!(LockKind::parse(name, 8).is_ok(), "{name}");
        }
    }
}
