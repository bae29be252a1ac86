//! `sal-bench` — the one experiment runner.
//!
//! ```text
//! cargo run --release -p sal-bench -- <experiment> [part] [flags]
//! cargo run --release -p sal-bench -- <experiment> --help
//! cargo run --release -p sal-bench               # lists the experiments
//! ```
//!
//! Each experiment lives in `experiments/<name>.rs` and is one row of
//! [`EXPERIMENTS`]: its flags, its optional positional part, and a
//! `run` function. The runner parses the command line once, and maps
//! what `run` returns to the exit code: 0 on success, 2 on a bad
//! command line, 1 on a failed verdict or a found violation. Headline
//! and intermediate files go through `sal_bench::artifact`.

mod experiments;

use experiments::{ablations, explore, figures, sweep, table1};
use sal_bench::cli::{Cli, Parsed};

/// Why an experiment stopped early.
#[derive(Debug)]
pub enum Exit {
    /// A bad command line (exit 2).
    Usage(String),
    /// A failed verdict, a found violation or an unwritable artifact
    /// (exit 1).
    Failed(String),
}

impl From<String> for Exit {
    fn from(e: String) -> Self {
        Exit::Usage(e)
    }
}

impl From<std::io::Error> for Exit {
    fn from(e: std::io::Error) -> Self {
        Exit::Failed(e.to_string())
    }
}

/// One experiment: `sal-bench <name> [part] [flags]`.
struct Experiment {
    name: &'static str,
    about: &'static str,
    /// Valid positional parts, default first; empty when the
    /// experiment takes none.
    parts: &'static [&'static str],
    flags: fn(Cli) -> Cli,
    run: fn(&str, &Parsed) -> Result<(), Exit>,
}

/// A row of [`EXPERIMENTS`] for the module `experiments::$m`.
macro_rules! experiment {
    ($m:ident, $about:expr) => {
        Experiment {
            name: stringify!($m),
            about: $about,
            parts: $m::PARTS,
            flags: $m::flags,
            run: $m::run,
        }
    };
}

const EXPERIMENTS: &[Experiment] = &[
    experiment!(table1, "Table 1 of the paper from measured RMR counts"),
    experiment!(figures, "the behaviours depicted in the paper's figures"),
    experiment!(ablations, "ablation studies of the paper's design choices"),
    experiment!(sweep, "one lock × workload × schedule, exact RMRs"),
    experiment!(explore, "guided schedule search of a lock workload"),
];

/// Print help text; `print!` would panic on a closed pipe
/// (`sal-bench table1 --help | head`).
fn print_help(text: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn listing() -> String {
    let mut out = String::from(
        "usage: sal-bench <experiment> [part] [flags]\n       \
         sal-bench <experiment> --help\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:<11} {}\n", e.name, e.about));
    }
    out
}

fn dispatch(mut args: Vec<String>) -> Result<(), Exit> {
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_help(&listing());
        return Ok(());
    }
    let name = args.remove(0);
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(Exit::Usage(format!(
            "unknown experiment {name}; valid experiments: {}",
            names.join(", ")
        )));
    };
    let mut bin = format!("sal-bench {name}");
    if !exp.parts.is_empty() {
        bin.push_str(&format!(" [{}]", exp.parts.join("|")));
    }
    let cli = (exp.flags)(Cli::new(bin, exp.about));
    let part = match exp.parts.first() {
        Some(_) if args.first().is_some_and(|a| !a.starts_with('-')) => {
            let part = args.remove(0);
            if !exp.parts.contains(&part.as_str()) {
                return Err(Exit::Usage(format!(
                    "unknown part {part} of {name}; valid parts: {}",
                    exp.parts.join("|")
                )));
            }
            part
        }
        default => default.unwrap_or(&"").to_string(),
    };
    let parsed = cli
        .parse(args.into_iter())
        .map_err(|e| format!("{e}\n{}", cli.usage()))?;
    if parsed.help_requested() {
        print_help(&cli.usage());
        return Ok(());
    }
    (exp.run)(&part, &parsed)
}

fn main() {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(()) => {}
        Err(Exit::Usage(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Err(Exit::Failed(e)) => {
            eprintln!("failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage_error(args: &[&str]) -> String {
        match dispatch(args.iter().map(|s| s.to_string()).collect()) {
            Err(Exit::Usage(e)) => e,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn bad_names_parts_and_flags_are_usage_errors_listing_the_valid_ones() {
        let e = usage_error(&["bogus"]);
        assert!(EXPERIMENTS.iter().all(|x| e.contains(x.name)), "{e}");
        assert!(usage_error(&["figures", "fig9"]).contains("all|fig2|fig4"));
        assert!(usage_error(&["sweep", "--jobs", "2"]).contains("unknown flag --jobs"));
        assert!(usage_error(&["table1", "--lease=4"]).contains("unknown flag --lease"));
    }
}
