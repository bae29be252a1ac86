//! The one artifact writer: every JSON and JSONL file an experiment
//! leaves behind is written here, and [`path`] alone decides where.
//!
//! * An intermediate result ([`Mode::Detail`]) is written as given to
//!   `target/experiments/<name>.json` (event logs to `<name>.jsonl`).
//! * A headline result is `BENCH_<name>.json`. A full run
//!   ([`Mode::Full`]) writes it at the repo root, where it is
//!   committed; a smoke run ([`Mode::Smoke`]) writes it under
//!   `target/experiments/`, so CI never overwrites a committed
//!   artifact. The writer opens it with an environment block
//!   (`bench`, `mode`, `available_parallelism`, `git_rev` — the
//!   commit, `-dirty` with uncommitted changes, `null` without git) and
//!   makes sure it carries `caveats`, which it also prints.
//!
//! Paths resolve from the repo root, whatever the working directory.

use sal_obs::{EventLog, Json, ToJson};
use std::io;
use std::path::{Path, PathBuf};

/// What an artifact is, which decides where it goes and what it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// An intermediate result, written verbatim under
    /// `target/experiments/`.
    Detail,
    /// A headline result of a CI-sized run, under `target/experiments/`.
    Smoke,
    /// A headline result of a full run, at the repo root.
    Full,
}

impl Mode {
    /// The headline mode of a run.
    pub fn headline(smoke: bool) -> Mode {
        if smoke {
            Mode::Smoke
        } else {
            Mode::Full
        }
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
}

/// Where the artifact `name` is written in `mode`.
///
/// # Panics
///
/// When `name` contains a path separator: artifacts never pick their
/// own directory.
pub fn path(name: &str, mode: Mode) -> PathBuf {
    assert!(
        !name.contains(['/', '\\']),
        "artifact names are plain file stems: {name}"
    );
    let scratch = repo_root().join("target").join("experiments");
    match mode {
        Mode::Detail => scratch.join(format!("{name}.json")),
        Mode::Smoke => scratch.join(format!("BENCH_{name}.json")),
        Mode::Full => repo_root().join(format!("BENCH_{name}.json")),
    }
}

/// Write `contents` to `path`, creating `target/experiments/` on
/// first use; errors name the path.
fn write(path: &Path, contents: &str) -> io::Result<()> {
    let wrap = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    std::fs::create_dir_all(path.parent().expect("a file under the repo root")).map_err(wrap)?;
    std::fs::write(path, contents).map_err(wrap)
}

/// Write `json` as the artifact `name`. A headline (`Smoke`/`Full`)
/// must be a JSON object; it gets the environment block in front and
/// its `caveats` (added empty when absent) are printed.
///
/// # Errors
///
/// When the file cannot be written.
pub fn save(name: &str, json: Json, mode: Mode) -> io::Result<()> {
    let json = match mode {
        Mode::Detail => json,
        Mode::Smoke | Mode::Full => headline(name, json, mode),
    };
    let path = path(name, mode);
    write(&path, &json.render())?;
    println!("(saved {})", path.display());
    Ok(())
}

/// [`save`] of a [`Mode::Detail`] result together with the truncation
/// count of the event log that recorded its run:
/// `{"dropped_events": N, "results": <value>}`.
///
/// # Errors
///
/// When the file cannot be written.
pub fn save_with_log<T: ToJson + ?Sized>(name: &str, value: &T, log: &EventLog) -> io::Result<()> {
    let wrapped = Json::obj(vec![
        ("dropped_events", log.dropped().to_json()),
        ("results", value.to_json()),
    ]);
    save(name, wrapped, Mode::Detail)
}

/// Export an [`EventLog`] as JSONL next to the [`Mode::Detail`]
/// results, and check the file parses back to the same events — the
/// replay-schema contract the exports promise.
///
/// # Errors
///
/// When the file cannot be written, or does not round-trip.
pub fn save_events(log: &EventLog, name: &str) -> io::Result<()> {
    let path = path(name, Mode::Detail).with_extension("jsonl");
    let text = log.to_jsonl();
    write(&path, &text)?;
    let parsed = EventLog::parse_jsonl(&text)
        .map_err(|e| io::Error::other(format!("{name}: replay parse failed: {e}")))?;
    if parsed != log.events() {
        return Err(io::Error::other(format!(
            "{name}: replay round-trip mismatch"
        )));
    }
    println!(
        "(saved {} — {} events, {} dropped, replay round-trip ok)",
        path.display(),
        parsed.len(),
        log.dropped()
    );
    Ok(())
}

/// The environment block, then the experiment's own fields.
fn headline(name: &str, json: Json, mode: Mode) -> Json {
    let Json::Obj(mut fields) = json else {
        panic!("headline artifact {name} must be a JSON object");
    };
    let caveats = match fields.iter().find(|(k, _)| k == "caveats") {
        Some((_, Json::Arr(list))) => list.clone(),
        _ => {
            fields.push(("caveats".into(), Json::Arr(Vec::new())));
            Vec::new()
        }
    };
    for c in caveats.iter().filter_map(Json::as_str) {
        println!("caveat: {c}");
    }
    let mut out = Json::obj(vec![
        ("bench", name.to_json()),
        (
            "mode",
            if mode == Mode::Smoke { "smoke" } else { "full" }.to_json(),
        ),
        (
            "available_parallelism",
            (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).to_json(),
        ),
        ("git_rev", git_rev().map_or(Json::Null, |r| r.to_json())),
    ]);
    if let Json::Obj(env) = &mut out {
        env.extend(fields);
    }
    out
}

/// The commit the repo root is checked out at, suffixed `-dirty` when
/// tracked files have uncommitted changes; `None` without git.
fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args("describe --always --dirty --abbrev=40 --exclude=*".split(' '))
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !rev.trim().is_empty()).then(|| rev.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_and_detail_never_leave_target_experiments() {
        let scratch = repo_root().join("target").join("experiments");
        for name in ["table1", "table1_amortized", "table1_no_abort_events"] {
            for mode in [Mode::Smoke, Mode::Detail] {
                let p = path(name, mode);
                assert_eq!(p.parent(), Some(scratch.as_path()), "{p:?}");
                assert_eq!(
                    path(name, mode).with_extension("jsonl").parent(),
                    p.parent()
                );
            }
        }
        assert_eq!(
            path("table1", Mode::Full),
            repo_root().join("BENCH_table1.json")
        );
    }

    #[test]
    #[should_panic(expected = "plain file stems")]
    fn names_cannot_pick_a_directory() {
        let _ = path("../BENCH_table1", Mode::Smoke);
    }

    #[test]
    fn headline_leads_with_the_environment_and_keeps_caveats() {
        let h = headline("demo", Json::obj(vec![("x", 1u64.to_json())]), Mode::Smoke);
        let Json::Obj(fields) = &h else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "bench",
                "mode",
                "available_parallelism",
                "git_rev",
                "x",
                "caveats"
            ]
        );
        assert_eq!(h.get("mode").and_then(Json::as_str), Some("smoke"));
    }
}
