//! Flag parsing for the experiments of the `sal-bench` runner.
//!
//! An experiment *declares* its flags (boolean [`Cli::flag`]s and
//! valued [`Cli::opt`]s), and gets back
//!
//! * `--name value` **and** `--name=value` forms,
//! * `--help`/`-h` with a usage block generated from the declarations,
//! * unknown-flag errors that list every valid flag (the same
//!   discoverability rule the lock registry applies to `--lock` names),
//! * typed accessors ([`Parsed::get`], [`Parsed::list`]) plus
//!   convenience readers for the shared vocabulary:
//!   [`Parsed::smoke`], [`Parsed::lock`], [`Parsed::seeds`],
//!   [`Parsed::strategy`].
//!
//! The worker count is not a flag: `SAL_JOBS` sets it for every
//! experiment.
//!
//! ```
//! use sal_bench::cli::Cli;
//! let cli = Cli::new("demo", "demo driver")
//!     .flag("--smoke", "CI-sized run")
//!     .opt("--seeds", "a,b,c", "one run per seed");
//! let p = cli
//!     .parse(["--smoke", "--seeds=1,2"].iter().map(|s| s.to_string()))
//!     .unwrap();
//! assert!(p.smoke());
//! assert_eq!(p.seeds().unwrap(), Some(vec![1, 2]));
//! ```

use crate::grid::parse_list;
use crate::registry::LockKind;
use sal_runtime::Strategy;

/// One declared flag: `--name` (boolean when `placeholder` is `None`,
/// valued otherwise) plus its help line.
struct Spec {
    name: &'static str,
    placeholder: Option<&'static str>,
    help: &'static str,
}

/// A declarative CLI: construct with [`Cli::new`], declare flags with
/// [`Cli::flag`] / [`Cli::opt`], then [`Cli::parse`].
pub struct Cli {
    bin: String,
    about: &'static str,
    specs: Vec<Spec>,
}

impl Cli {
    /// Start declaring a command's flags. `bin` is the command line
    /// shown in usage output, `about` a one-line description.
    pub fn new(bin: impl Into<String>, about: &'static str) -> Self {
        Cli {
            bin: bin.into(),
            about,
            specs: Vec::new(),
        }
    }

    /// Declare a boolean flag (present or absent), e.g. `--smoke`.
    pub fn flag(mut self, name: &'static str, help: &'static str) -> Self {
        assert!(name.starts_with("--"), "flag names start with --");
        self.specs.push(Spec {
            name,
            placeholder: None,
            help,
        });
        self
    }

    /// Declare a valued flag, e.g. `--seeds a,b,c`. Accepts both
    /// `--name value` and `--name=value` on the command line;
    /// `placeholder` is only for the usage text.
    pub fn opt(
        mut self,
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Self {
        assert!(name.starts_with("--"), "flag names start with --");
        self.specs.push(Spec {
            name,
            placeholder: Some(placeholder),
            help,
        });
        self
    }

    /// Declare the shared `--strategy` flag with the standard help
    /// text: guided schedule search, read back by
    /// [`Parsed::strategy`]. Declare `--seed` separately if the
    /// experiment wants a non-default fuzzer seed.
    pub fn strategy_opt(self) -> Self {
        self.opt(
            "--strategy",
            "s",
            "guided schedule search: bfs | dpor | best-first | fuzz (--seed seeds the fuzzer)",
        )
    }

    /// The generated usage block: one summary line plus one line per
    /// declared flag.
    pub fn usage(&self) -> String {
        let mut one_line = format!("usage: {}", self.bin);
        for s in &self.specs {
            match s.placeholder {
                None => one_line.push_str(&format!(" [{}]", s.name)),
                Some(p) => one_line.push_str(&format!(" [{} <{}>]", s.name, p)),
            }
        }
        let mut out = format!("{one_line}\n{}\n\nflags:\n", self.about);
        let left: Vec<String> = self
            .specs
            .iter()
            .map(|s| match s.placeholder {
                None => s.name.to_string(),
                Some(p) => format!("{} <{}>", s.name, p),
            })
            .collect();
        let width = left.iter().map(String::len).max().unwrap_or(0);
        for (l, s) in left.iter().zip(&self.specs) {
            out.push_str(&format!("  {l:width$}  {}\n", s.help));
        }
        out.push_str(&format!("  {:width$}  print this help\n", "--help"));
        out
    }

    /// The `valid flags:` suffix appended to unknown-flag errors.
    fn valid_flags(&self) -> String {
        let mut names: Vec<&str> = self.specs.iter().map(|s| s.name).collect();
        names.push("--help");
        names.join(", ")
    }

    /// Parse an argument stream (the flags after the experiment name
    /// and part).
    ///
    /// # Errors
    ///
    /// On an unknown flag (the message lists every valid flag), a
    /// valued flag without a value, a value for a boolean flag
    /// (`--smoke=yes`), or a stray positional argument.
    pub fn parse(&self, args: impl Iterator<Item = String>) -> Result<Parsed, String> {
        let mut parsed = Parsed {
            set: Vec::new(),
            values: Vec::new(),
            help: false,
        };
        let mut it = args;
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                parsed.help = true;
                continue;
            }
            // Split --name=value once, up front.
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let Some(spec) = self.specs.iter().find(|s| s.name == name) else {
                if name.starts_with('-') {
                    return Err(format!(
                        "unknown flag {name}; valid flags: {}",
                        self.valid_flags()
                    ));
                }
                return Err(format!(
                    "unexpected argument {name}; valid flags: {}",
                    self.valid_flags()
                ));
            };
            match (spec.placeholder, inline) {
                (None, None) => parsed.set.push(spec.name),
                (None, Some(_)) => {
                    return Err(format!("flag {name} takes no value"));
                }
                (Some(_), Some(v)) => parsed.values.push((spec.name, v)),
                (Some(_), None) => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("flag {name} needs a value"))?;
                    parsed.values.push((spec.name, v));
                }
            }
        }
        Ok(parsed)
    }
}

/// The result of a successful parse: which boolean flags were set,
/// which valued flags got what, and whether `--help` appeared.
#[derive(Debug)]
pub struct Parsed {
    set: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    help: bool,
}

impl Parsed {
    /// Raw value of the valued flag `name` (last occurrence wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Typed value of `name`, or `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// When the value fails to parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// Typed value of `name`, falling back to `default` when absent.
    ///
    /// # Errors
    ///
    /// When the value fails to parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Comma-separated list value of `name` (`--seeds 1,2,3`), or
    /// `None` when absent.
    ///
    /// # Errors
    ///
    /// When any element fails to parse, or the list is empty.
    pub fn list<T: std::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name).map(|v| parse_list(name, v)).transpose()
    }

    /// Did `--help` appear?
    pub fn help_requested(&self) -> bool {
        self.help
    }

    // ---- the shared vocabulary ----

    /// `--smoke`: CI-sized run.
    pub fn smoke(&self) -> bool {
        self.set.contains(&"--smoke")
    }

    /// `--lock NAME`, unparsed — feed it to the lock registry, whose
    /// error already lists the valid kinds.
    pub fn lock(&self) -> Option<&str> {
        self.value("--lock")
    }

    /// The workload shape shared by `sweep` and `explore`: the
    /// `--lock` kind (default one-shot) at branching factor `--b`, for
    /// `--n` processes of which `--aborters` abort (default 0).
    /// Returns `(kind, n, aborters)`.
    ///
    /// # Errors
    ///
    /// On an unknown lock (the message lists the valid kinds), `--b`
    /// outside `2..=64`, `--aborters` not below `--n`, or aborters for
    /// a lock that cannot abort.
    pub fn workload(&self, b: usize, n: usize) -> Result<(LockKind, usize, usize), String> {
        let b: usize = self.get_or("--b", b)?;
        if !(2..=64).contains(&b) {
            return Err(format!("--b must be in 2..=64 (got {b})"));
        }
        let kind = LockKind::parse(self.lock().unwrap_or("one-shot"), b)?;
        let n: usize = self.get_or("--n", n)?;
        let aborters: usize = self.get_or("--aborters", 0)?;
        if aborters >= n {
            return Err("--aborters must be < --n".into());
        }
        if aborters > 0 && !kind.abortable() {
            return Err(format!("{} is not abortable", kind.label()));
        }
        Ok((kind, n, aborters))
    }

    /// `--seeds a,b,c` as integers, or `None` when absent.
    ///
    /// # Errors
    ///
    /// When any element fails to parse, or the list is empty.
    pub fn seeds(&self) -> Result<Option<Vec<u64>>, String> {
        self.list("--seeds")
    }

    /// `--strategy s` as a guided-search [`Strategy`], or `None` when
    /// absent. The fuzz strategy picks up `--seed` (default 1) so
    /// every experiment seeds it the same way.
    ///
    /// # Errors
    ///
    /// When the strategy name or the seed fails to parse.
    pub fn strategy(&self) -> Result<Option<Strategy>, String> {
        match self.get::<Strategy>("--strategy")? {
            Some(Strategy::Fuzz { .. }) => Ok(Some(Strategy::Fuzz {
                seed: self.get_or("--seed", 1)?,
            })),
            s => Ok(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| (*s).to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn demo() -> Cli {
        Cli::new("demo", "demo driver")
            .flag("--smoke", "CI-sized run")
            .opt("--seeds", "a,b,c", "one run per seed")
            .opt("--lock", "kind", "lock under test")
    }

    #[test]
    fn both_value_forms_parse() {
        let p = demo().parse(args(&["--seeds", "1,2", "--smoke"])).unwrap();
        assert!(p.smoke());
        assert_eq!(p.seeds().unwrap(), Some(vec![1, 2]));
        let p = demo().parse(args(&["--seeds=3,4"])).unwrap();
        assert_eq!(p.seeds().unwrap(), Some(vec![3, 4]));
        assert!(!p.smoke());
    }

    #[test]
    fn unknown_flag_error_lists_valid_flags() {
        let e = demo().parse(args(&["--bogus"])).unwrap_err();
        assert!(e.contains("unknown flag --bogus"), "{e}");
        for f in ["--smoke", "--seeds", "--lock", "--help"] {
            assert!(e.contains(f), "error should list {f}: {e}");
        }
    }

    #[test]
    fn missing_and_malformed_values_fail_loudly() {
        assert!(demo().parse(args(&["--seeds"])).is_err());
        assert!(demo().parse(args(&["--smoke=yes"])).is_err());
        let p = demo().parse(args(&["--seeds", "1,x"])).unwrap();
        assert!(p.seeds().is_err(), "list elements must parse");
        assert!(demo().parse(args(&["stray"])).is_err());
    }

    #[test]
    fn help_is_collected_not_fatal_in_pure_parse() {
        let p = demo().parse(args(&["-h"])).unwrap();
        assert!(p.help_requested());
        let u = demo().usage();
        assert!(u.contains("usage: demo"), "{u}");
        assert!(u.contains("--seeds <a,b,c>"), "{u}");
        assert!(u.contains("--help"), "{u}");
    }

    #[test]
    fn shared_strategy_vocabulary() {
        let shared = || {
            Cli::new("demo", "demo driver")
                .strategy_opt()
                .opt("--seed", "u64", "fuzzer seed")
        };
        let p = shared().parse(args(&[])).unwrap();
        assert_eq!(p.strategy().unwrap(), None);
        let p = shared().parse(args(&["--strategy", "dpor"])).unwrap();
        assert_eq!(p.strategy().unwrap(), Some(Strategy::Dpor));
        let p = shared()
            .parse(args(&["--strategy=fuzz", "--seed=9"]))
            .unwrap();
        assert_eq!(p.strategy().unwrap(), Some(Strategy::Fuzz { seed: 9 }));
        assert!(
            shared().parse(args(&["--lease", "4"])).is_err(),
            "the simulator's lease cap is not a flag"
        );
        let p = shared().parse(args(&["--strategy", "bogus"])).unwrap();
        assert!(p.strategy().is_err(), "unknown strategy must fail loudly");
    }

    #[test]
    fn last_occurrence_of_a_valued_flag_wins() {
        let p = demo()
            .parse(args(&["--lock", "mcs", "--lock", "tas"]))
            .unwrap();
        assert_eq!(p.lock(), Some("tas"));
        assert_eq!(p.get::<String>("--lock").unwrap().as_deref(), Some("tas"));
    }
}
