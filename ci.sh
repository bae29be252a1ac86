#!/usr/bin/env bash
# Repo CI gate: release build, full test suite (debug + release, so the
# concurrency-sensitive stress tests run optimized too), the suites that
# must also hold under a non-default environment, a smoke run of each
# headline experiment, the benchmark's build, lint-clean clippy, and
# warning-free docs. Run from the repo root. Fails fast on the first
# broken step.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test --release -q

# Suites rerun under a non-default environment, one row each:
# <env assignment> <cargo test arguments>. The default environment is
# already covered by `cargo test --release -q` above.
# * SAL_JOBS=2: the parallel experiment engine must give byte-identical
#   output at every worker count.
# * SAL_LEASE=1 / SAL_LEASE=64: every artifact must be byte-identical at
#   every step-lease cap. `lease_determinism` sweeps caps internally;
#   these runs also pin the *ambient* default (harness literals, sweep
#   defaults) to the legacy per-step gate and to a capped gate, on the
#   lease suite and on every suite that drives the simulator or the
#   real-thread surfaces through it: conditional critical sections,
#   the async mutex and its cancellation, the keyed arena (model-checked
#   protocol, public surface, sal-sync unit tests), guided schedule
#   search (DPOR and best-first agree with BFS), and amortized RMR
#   accounting with the Jayanti–Jayanti debt ledger.
while read -r assignment args; do
    env "$assignment" cargo test --release -q $args < /dev/null
done <<'EOF'
SAL_JOBS=2   -p sal-bench --test parallel_determinism
SAL_LEASE=1  -p sal-bench --test lease_determinism
SAL_LEASE=64 -p sal-bench --test lease_determinism
SAL_LEASE=1  -p sal-bench --test ccs_api
SAL_LEASE=1  -p sal-bench --test async_mutex --test async_cancellation
SAL_LEASE=1  -p sal-bench --test arena_protocol --test arena_api
SAL_LEASE=1  -p sal-sync arena
SAL_LEASE=1  -p sal-bench --test systematic_exploration --test guided_search
SAL_LEASE=1  -p sal-bench --test amortized_accounting --test rmr_bounds
EOF

# Smoke run of every headline experiment through the runner. Each one
# asserts its own invariants (lost updates, leaks, the ≤300-op abort
# bound, evaluate < broadcast on prodcons, bit-exact RMR accounting)
# and writes target/experiments/BENCH_<name>.json — never the committed
# full-mode artifacts at the repo root. The greps pin that the arena
# artifact records the resident-object bounds and that the table1
# artifact carries the measured amortized column and its verdict.
for experiment in hwscale ccsscale asyncscale arenascale table1; do
    cargo run --release -q -p sal-bench -- "$experiment" --smoke
done
grep -q '"max_built_cores_at_max_keys"' target/experiments/BENCH_arena.json
grep -q '"resident_bounded":true' target/experiments/BENCH_arena.json
grep -q '"amortized_rmrs"' target/experiments/BENCH_table1.json
grep -q '"target_met":true' target/experiments/BENCH_table1.json

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
