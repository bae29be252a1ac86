#!/usr/bin/env bash
# Repo CI gate: release build, full test suite (debug + release, so the
# concurrency-sensitive stress tests run optimized too), 20 reruns of the
# wake-sensitive tests, the suites that
# must also hold under a non-default environment, a full `table1` run
# that must reproduce the committed BENCH_table1.json, the benchmark's
# build and a one-second smoke of each of its workloads, lint-clean
# clippy, and warning-free docs. Run from the repo root. Fails fast on
# the first broken step, and leaves every tracked file as it found it.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test --release -q

# An unlock wakes only the waiters its handoff names, so a lost wakeup
# is the risk to watch: it shows as a rare hang or failure, not a steady
# one. Rerun the wake-sensitive tests 20 times each from the test
# binaries just built: the deadline storm, the limit-under-traffic,
# epoch-transition and wake-precision tests, and the deadline_locking
# suite. About 17 s on a 2-vCPU VM.
test_binary() {
    cargo test --release --no-run "$@" 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p'
}
# Run a test binary and fail unless it ran, and passed, at least one test
# (a filter that matches nothing would otherwise pass).
run_tests() {
    "$@" | grep '^test result: ok\. [1-9]' > /dev/null
}
sync_lib=$(test_binary -p sal-sync --lib)
cancellation=$(test_binary -p sal-bench --test async_cancellation)
async_mutex=$(test_binary -p sal-bench --test async_mutex)
deadline_locking=$(test_binary -p sal-bench --test deadline_locking)
for _ in $(seq 20); do
    run_tests "$cancellation" -q --exact deadline_storms_on_two_workers_always_drain
    run_tests "$sync_lib" -q --exact async_mutex::tests::a_deadline_is_honoured_under_traffic \
        async_mutex::tests::an_abort_signal_is_honoured_under_traffic \
        async_mutex::tests::a_poll_across_the_epoch_wait_publishes_each_key
    run_tests "$async_mutex" -q --exact handoff_wakes_track_entered_passages
    run_tests "$deadline_locking" -q
done

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

# Every sal-bench experiment is a deterministic simulation, so a full
# `table1` run must reproduce the committed BENCH_table1.json exactly,
# apart from the two environment fields that name the machine and the
# commit. The run rewrites that file in place: the committed copy is
# set aside first and put back on exit, pass or fail. The greps pin the
# measured amortized column and its verdict.
committed=target/BENCH_table1.committed.json
cp BENCH_table1.json "$committed"
trap 'cp "$committed" BENCH_table1.json' EXIT
cargo run --release -q -p sal-bench -- table1 > /dev/null
strip_env() {
    sed -E 's/"available_parallelism":[0-9]+,//; s/"git_rev":("[^"]*"|null),//' "$1"
}
diff <(strip_env "$committed") <(strip_env BENCH_table1.json)
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
