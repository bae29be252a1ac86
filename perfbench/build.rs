//! Captures the environment block's build-time fields: the source
//! revision (read from `.git` without running git, so nothing outside
//! the checkout is consulted) and the compiler version.

use std::path::Path;
use std::process::Command;

fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let rev = git_rev(&root).unwrap_or_else(|| "unknown".to_string());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    // Watch only files that exist: cargo reruns the script on every
    // build when a watched path is missing, as in a checkout without
    // `.git`, and that would recompile the benchmark before each run.
    println!("cargo:rerun-if-changed=build.rs");
    let head = root.join(".git/HEAD");
    if let Ok(h) = std::fs::read_to_string(&head) {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(reference) = h.trim().strip_prefix("ref: ") {
            let r = root.join(".git").join(reference);
            if r.exists() {
                println!("cargo:rerun-if-changed={}", r.display());
            }
        }
    }
}
