#!/usr/bin/env bash
# Repo CI gate: release build, full test suite (debug + release, so the
# concurrency-sensitive stress tests run optimized too), lint-clean
# clippy, and warning-free docs. Run from the repo root. Fails fast on
# the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test --release -q
# Parallel experiment engine: determinism across worker counts, and the
# scaling smoke (which itself asserts parallel output is byte-identical
# to the serial reference before reporting any timing).
SAL_JOBS=2 cargo test --release -q -p sal-bench --test parallel_determinism
cargo run --release -q -p sal-bench --bin expscale -- --smoke
# Step-lease scheduler: every artifact must be byte-identical at every
# lease cap. The suite sweeps caps internally; the SAL_LEASE runs also
# pin the *ambient* default (harness literals, sweep defaults) to the
# legacy per-step path and to a capped path. The simscale smoke asserts
# leased output matches the per-step reference before timing anything.
SAL_LEASE=1 cargo test --release -q -p sal-bench --test lease_determinism
SAL_LEASE=64 cargo test --release -q -p sal-bench --test lease_determinism
cargo run --release -q -p sal-bench --bin simscale -- --smoke
# Facade/core split: the monomorphized LockCore path and the erased
# AbortableLock path must produce identical simulations, and the native
# hardware bench (writes BENCH_hwscale.json at the repo root) must run.
cargo test --release -q -p sal-bench --test mono_equivalence
cargo run --release -q -p sal-bench --bin hwscale -- --smoke
# Conditional critical sections: the lock_when/await_when API and the
# deadline abort path on real threads, plus the wakeup-storm bench
# (writes BENCH_ccs.json; asserts evaluate < broadcast on prodcons and
# the per-cell invariants internally). The SAL_LEASE=1 run keeps the
# legacy per-step gate covered on the CCS suite too.
cargo test --release -q -p sal-bench --test ccs_api --test deadline_locking
SAL_LEASE=1 cargo test --release -q -p sal-bench --test ccs_api
cargo run --release -q -p sal-bench --bin ccsscale -- --smoke
# Async surface: resumable enter core + AsyncAbortableMutex, where
# dropping a pending lock future runs the bounded abort. The harness
# cancels at every poll depth and the storm bench (writes
# BENCH_async.json at the repo root) asserts the ≤300-op abort bound
# and zero leakage. Run under the default and the SAL_LEASE=1 legacy
# gate like the CCS suite. Unsafe code in the waker plumbing is held to
# clippy::undocumented_unsafe_blocks (enforced via the workspace lints
# through `cargo clippy -- -D warnings` below).
cargo test --release -q -p sal-bench --test async_mutex --test async_cancellation
SAL_LEASE=1 cargo test --release -q -p sal-bench --test async_mutex --test async_cancellation
cargo run --release -q -p sal-bench --bin asyncscale -- --smoke
# Keyed lock arena: the inline-word protocol is model-checked over
# every interleaving (arena_protocol), the public surface stressed on
# real threads (arena_api + the sal-sync unit suite), both under the
# default config and the SAL_LEASE=1 legacy gate. The arenascale smoke
# (writes BENCH_arena.json at the repo root) asserts per-cell
# lost-update and zero-leak invariants internally; the greps below pin
# that the artifact actually records the resident-object bounds.
cargo test --release -q -p sal-bench --test arena_protocol --test arena_api
SAL_LEASE=1 cargo test --release -q -p sal-bench --test arena_protocol --test arena_api
cargo test --release -q -p sal-sync arena
SAL_LEASE=1 cargo test --release -q -p sal-sync arena
cargo run --release -q -p sal-bench --bin arenascale -- --smoke
grep -q '"max_built_cores_at_max_keys"' BENCH_arena.json
grep -q '"resident_bounded":true' BENCH_arena.json
# Guided schedule search: DPOR pruning and best-first must agree with
# exhaustive BFS on every verdict (and least canonical witness) — run
# the equivalence suite under the default and the SAL_LEASE=1 legacy
# gate, then the explorescale smoke (equivalence gate + states/sec
# grid + RMR witness hunt, writes BENCH_explore.json at the repo root)
# and pin that the artifact records the acceptance verdict.
cargo test --release -q -p sal-bench --test systematic_exploration --test guided_search
SAL_LEASE=1 cargo test --release -q -p sal-bench --test systematic_exploration --test guided_search
cargo run --release -q -p sal-bench --bin explorescale -- --smoke
grep -q '"target_met":true' BENCH_explore.json
# Amortized accounting + the Jayanti–Jayanti constant-amortized lock:
# the aggregate must reconcile bit-exactly with the memory's RMR
# counters (amortized_accounting) and the cumulative bill must obey the
# debt ledger total ≤ c·passages + b (rmr_bounds) — under the default
# and the SAL_LEASE=1 legacy gate. The table1 smoke runs the M9
# amortized experiment (writes BENCH_table1.json at the repo root);
# the greps pin that the artifact carries the measured amortized
# column and the acceptance verdict.
cargo test --release -q -p sal-bench --test amortized_accounting --test rmr_bounds
SAL_LEASE=1 cargo test --release -q -p sal-bench --test amortized_accounting --test rmr_bounds
cargo run --release -q -p sal-bench --bin table1 -- --smoke
grep -q '"amortized_rmrs"' BENCH_table1.json
grep -q '"target_met":true' BENCH_table1.json
# The benchmark (perfbench/, its own workspace) builds against these
# crates by path, so an API change can break it without any step above
# noticing: build it, and smoke each gated workload for one second.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for workload in mutex-contended arena-zipf async-cancel; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1 |
        grep -q '"correct": true'
done
cargo fmt --check
cargo clippy -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
