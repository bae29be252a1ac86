#!/usr/bin/env bash
# Repo CI gate: docs that name only tracked source files, release
# build, full test suite (debug + release, so the
# concurrency-sensitive stress tests run optimized too), a run of every
# example, 20 reruns of the wake-sensitive tests, the parallel
# determinism suite at a non-default worker count, a full `table1` run
# that must reproduce the committed BENCH_table1.json, the benchmark's
# build and a one-second smoke of each of its workloads (plus a traced
# one for mutex-contended), lint-clean clippy, and warning-free docs.
# Run from the repo root. Fails fast on the first broken step, and
# leaves every tracked file as it found it.
set -euo pipefail
cd "$(dirname "$0")"

# Docs describe only code that exists: every `*.rs` path that the
# top-level docs name must be the path suffix of a tracked file.
tracked=$(git ls-files '*.rs')
for path in $(grep -ohE '[A-Za-z0-9_./-]+\.rs\b' README.md DESIGN.md EXPERIMENTS.md docs/*.md | sort -u); do
    if ! grep -qE "(^|/)${path//./\\.}\$" <<< "$tracked"; then
        echo "docs name a source file that does not exist: $path" >&2
        exit 1
    fi
done

# The release build's wall time is printed beside the table1 run's
# below: every lock kind is monomorphized per memory and probe type, so
# the log shows what that costs in compile time.
SECONDS=0
cargo build --release
release_build_s=$SECONDS
cargo test -q
cargo test --release -q

# Every example checks its own result (asserts, leak checks), so run
# them all: they take under a second together.
cargo build --release -q --examples
for example in examples/*.rs; do
    "target/release/examples/$(basename "$example" .rs)" > /dev/null
done

# An unlock wakes only the waiters its handoff names, so a lost wakeup
# is the risk to watch: it shows as a rare hang or failure, not a steady
# one. Rerun the wake-sensitive tests 20 times each from the test
# binaries just built: the deadline storm, the limit-under-traffic,
# epoch-transition and wake-precision tests, the deadline_locking
# suite, the three pid-wait tests (a pid grant is a wake too), the
# conditional-wait tests where capacity-many waiters give their pids
# back to the attempt that wakes them (one per surface, plus the async
# pipeline), and the thread-waker tests: a parked enter waiter is woken
# once through its waker, spurious unparks end no thread wait early,
# and a waker that drops the future it wakes does not deadlock the
# unlock. Two more race a mutex's promotion of its inline word against
# the demotion of the last one: threads on a sync mutex, and tasks on a
# two-worker executor. The rest cover the conditional wait that threads
# and tasks share: a spurious poll neither re-locks nor re-registers, a
# notification fires the task's latest waker, the async `await_when`
# is satisfied by a producer (by hand and on an executor), resolves
# holding the lock once expired, and leaves it free when dropped, and a
# guard whose predicate panics after a wait still holds its current
# lock. The arena's lock-free key lookup is rerun too, though it wakes
# nobody: two threads first-touch the same keys while their shard's
# table grows, and a lookup that raced a growth shows only as a rare
# duplicate or lost entry. The executor's own wake protocol is rerun
# last: an enqueue signals its condvar only when a worker sleeps, and
# the workers wait without a timeout, so a lost wakeup hangs a drain.
# A plain OS thread ping-pongs with a task while both workers sleep,
# and 200 executors end with their last two tasks finishing on
# different workers. Pid rotation is rerun too:
# `alternating_tasks_rotate_pids_past_the_epoch_wait` has two tasks
# alternate on one worker and requires that no attempt waits at the
# epoch, which holds only while the free list hands out the pid given
# back longest ago and every wake arrives in order. About 20 s on a
# 2-vCPU VM.
test_binary() {
    cargo test --release --no-run "$@" 2>&1 | sed -n 's/^ *Executable .*(\(.*\))$/\1/p'
}
# Run a test binary and fail unless it ran, and passed, at least one test
# (a filter that matches nothing would otherwise pass). On failure, print
# what the binary printed, so the failing test and its message show.
run_tests() {
    local out
    if ! out=$("$@") || ! grep -q '^test result: ok\. [1-9]' <<< "$out"; then
        printf '%s\n' "$out" >&2
        return 1
    fi
}
sync_lib=$(test_binary -p sal-sync --lib)
runtime_lib=$(test_binary -p sal-runtime --lib)
cancellation=$(test_binary -p sal-bench --test async_cancellation)
async_mutex=$(test_binary -p sal-bench --test async_mutex)
deadline_locking=$(test_binary -p sal-bench --test deadline_locking)
arena_api=$(test_binary -p sal-bench --test arena_api)
for _ in $(seq 20); do
    run_tests "$cancellation" -q --exact deadline_storms_on_two_workers_always_drain
    run_tests "$sync_lib" -q --exact async_mutex::tests::a_deadline_is_honoured_under_traffic \
        async_mutex::tests::an_abort_signal_is_honoured_under_traffic \
        async_mutex::tests::a_poll_across_the_epoch_wait_publishes_each_key \
        async_mutex::tests::alternating_tasks_rotate_pids_past_the_epoch_wait \
        async_mutex::tests::a_limit_expiring_while_queued_for_a_pid_resolves_the_future \
        async_mutex::tests::capacity_many_cond_waiters_leave_every_pid_free \
        arena::tests::a_cond_waiter_leaves_the_pid_to_the_producer \
        tests::an_attempt_past_capacity_waits_for_a_pid_under_its_limit \
        tests::capacity_many_cond_waiters_leave_the_producer_a_pid \
        tests::a_thread_parked_in_the_enter_wait_is_woken_once_through_its_waker \
        tests::spurious_unparks_do_not_end_a_thread_wait_early \
        tests::promotion_races_demotion_under_mixed_attempts \
        async_mutex::tests::promotion_races_demotion_on_two_workers \
        async_mutex::tests::a_spurious_poll_of_a_cond_waiter_neither_locks_nor_registers_again \
        async_mutex::tests::a_cond_waiter_is_notified_through_its_latest_waker \
        async_mutex::tests::await_when_is_satisfied_by_a_producer_and_keeps_the_guard \
        async_mutex::tests::await_when_on_executor_tasks \
        async_mutex::tests::an_expired_await_when_resolves_holding_the_lock \
        async_mutex::tests::a_dropped_await_when_future_leaves_the_lock_free \
        tests::a_predicate_panicking_after_a_wait_leaves_the_guard_its_current_hold
    run_tests "$arena_api" -q --exact threads_past_the_core_capacity_wait_for_a_pid \
        first_touches_race_table_growth
    run_tests "$async_mutex" -q --exact handoff_wakes_track_entered_passages \
        async_lock_when_pipeline \
        a_waker_that_drops_the_future_it_wakes_does_not_deadlock_the_unlock
    run_tests "$deadline_locking" -q
    run_tests "$runtime_lib" -q --exact \
        executor::tests::a_foreign_thread_and_a_task_ping_pong_while_the_workers_sleep \
        executor::tests::executors_whose_last_tasks_finish_on_different_workers_return
done

# The parallel experiment engine must give byte-identical output at
# every worker count: rerun its suite at two workers (the default
# worker count is already covered by `cargo test --release -q` above).
SAL_JOBS=2 cargo test --release -q -p sal-bench --test parallel_determinism

# Every sal-bench experiment is a deterministic simulation, so a full
# `table1` run must reproduce the committed BENCH_table1.json exactly,
# apart from the two environment fields that name the machine and the
# commit. The run rewrites that file in place: the committed copy is
# set aside first and put back on exit, pass or fail. The greps pin the
# measured amortized column and its verdict. The run is the longest
# use of the experiment engine's fan-out, so its wall time is printed
# for the log.
committed=target/BENCH_table1.committed.json
cp BENCH_table1.json "$committed"
trap 'cp "$committed" BENCH_table1.json' EXIT
SECONDS=0
cargo run --release -q -p sal-bench -- table1 > /dev/null
echo "release build: ${release_build_s} s; full table1 run: ${SECONDS} s"
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
# One traced second of mutex-contended, so the peeled per-layer cells
# (`core.enter_ns`, `core.exit_ns`, `sync.acquire_ns`) that show which
# layer of the contended handoff moved are built and run too.
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload mutex-contended --seed 1 --seconds 1 --trace 1 | tail -n 1 |
    grep -q '"correct": true'
cargo fmt --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
