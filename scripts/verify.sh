#!/usr/bin/env bash
# Tier-1 verification: everything CI (and a pre-commit human) should run.
# Fails fast; each step's command is echoed before it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo ">>> $*"
    "$@"
}

# build + tests (unit, integration, property)
run cargo build --release --workspace
run cargo test -q --workspace

# the Sedov trajectory digest and the Euler sweep's differential against
# its per-cell reference, once more on the optimised build the benchmark
# runs: `debug_assert!` is off there and the codegen differs, and a
# bit-for-bit claim has to hold on the bits that ship
run cargo test --release -q -p amrsim
run cargo test --release -q -p integration-tests --test sim_kernel_determinism

# likewise the LU factorization: its differential against the full-scan
# elimination (every factorization of every milp unit test is compared bit
# for bit), the pinned exact-leg LP trajectory and the cold-start
# differential against the dense oracle (already run once in the debug
# block above, as part of the workspace tests), on the optimised build
run cargo test --release -q -p milp
run cargo test --release -q -p integration-tests --test lp_trajectory
run cargo test --release -q -p integration-tests --test cold_start_differential

# likewise the exact replay: its differential against the per-step
# recursion kept as `replay::reference`, and the two recordings made
# before it became event-driven (`replay_pin`: 2 304 triples, broken
# schedules and carries included; `replay_pin_events`: the time series,
# sparse long runs, the overflow boundary), on the optimised build every
# reply is checked with. Deeper soaks: PROPTEST_CASES=300000
run cargo test --release -q -p certify
run cargo test --release -q -p integration-tests --test replay_pin --test replay_pin_events

# the replay kernels bench compiles and runs once (`--test` times nothing)
run cargo bench -q -p bench --bench replay_kernels -- --test

# doc-tests, separately: `cargo test` runs them per-crate, but this keeps
# a failure attributable when only docs change
run cargo test --doc --workspace

# differential fuzz smoke: a fixed-seed bounded run of the solver
# cross-examination (serial vs parallel vs brute force vs certifier),
# plus replay of every reproducer in tests/corpus/. The case count is
# overridable for deeper local soaks: CERTIFY_FUZZ_CASES=5000 ./scripts/verify.sh
run env CERTIFY_FUZZ_CASES="${CERTIFY_FUZZ_CASES:-200}" \
    cargo test -q -p integration-tests --test certify_differential

# solve-service concurrency stress: 8 client threads, duplicate/near-miss
# mix, client-side re-certification of every reply, dedup single-solve,
# worker-count independence. Deeper soaks: SERVICE_STRESS_ITERS=200
run env SERVICE_STRESS_ITERS="${SERVICE_STRESS_ITERS:-50}" \
    cargo test -q -p integration-tests --test service_stress

# rustdoc must be warning-free (broken intra-doc links, bad code fences)
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# lint drift: clippy clean across the workspace, warnings are errors
run cargo clippy --workspace --all-targets -- -D warnings

# the repo benchmark (BENCHMARK.json) is its own workspace with path
# deps on crates/*: build it, run its smoke pass and its tests here, so
# an API change that breaks benchmark/ fails this script. Its solve-scale
# workload is the solver layer's perf gate.
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 7 --smoke
run cargo test --release --offline --manifest-path benchmark/Cargo.toml

# trace_view smoke on a real artifact: a traced pass of the benchmark's
# svc-zipf workload writes its obs/timeline/v1 span file; render it as a
# text tree and re-export the per-request Chrome lanes. (The
# milp/searchtrace/v1 branch is covered by the bin's own unit test.)
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload svc-zipf --seed 7 --smoke --trace 1
run bash -c './target/release/trace_view benchmark/out/svc-zipf.trace.json \
    --chrome target/trace_view.chrome.json > target/trace_view.tree.txt'
run head -n 4 target/trace_view.tree.txt

# retired names stay retired: benchmark/ and `cargo test` are the only
# gates since PR 16, obs::Registry has no meters, since PR 17
# parallel::Exec is a thread count with no chunk-cap knob, since PR 21
# Eqs. 1-9 have one formulation and no discrete-event replay beside the
# exact one, and since PR 22 each model has one solve function and every
# door one solve-and-stamp body. History files (CHANGES.md, ROADMAP.md,
# EXPERIMENTS.md) and benchmark/ are not searched.
retired='service_bench|sim_bench|bench_diff|adaptive_smoke|timeline_smoke|obs_smoke'
retired="$retired|BENCH_service\\.json|BENCH_sim\\.json|observe_agg"
retired="$retired|INSITU_CHUNK_CAP|with_chunk_cap"
retired="$retired|cosched|ReplaySite|ReplayCost"
retired="$retired|solve_aggregate_counts|solve_exact_with_hint|solve_exact_with_stats"
retired="$retired|AggregateSolution|RescheduleOutcome"
echo
echo ">>> git grep -nE \"$retired\" -- crates tests examples docs README.md DESIGN.md .claude"
if git grep -nE "$retired" -- crates tests examples docs README.md DESIGN.md .claude; then
    echo "verify: a tracked file still names a retired binary, recording, API or knob"
    exit 1
fi

echo
echo "verify: all green"
