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

# building the benchmark below rewrites benchmark/Cargo.lock; keep a copy
# and put it back on exit, so a run leaves the file as it found it (a copy,
# not `git checkout`, which would also throw away a deliberate edit)
lock_copy="$(mktemp)"
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT

# build + tests (unit, integration, property)
run cargo build --release --workspace
run cargo test -q --workspace

# the Sedov trajectory digest and the Euler sweep's differential against
# its per-cell reference, once more on the optimised build the benchmark
# runs: `debug_assert!` is off there and the codegen differs, and a
# bit-for-bit claim has to hold on the bits that ship
run cargo test --release -q -p amrsim
# and the worker set's own tests, so the fork path whose job lifetime is
# erased (the workspace's one `unsafe` block) runs optimised too
run cargo test --release -q -p parallel
run cargo test --release -q -p integration-tests --test sim_kernel_determinism

# likewise the LU factorization: its differential against the full-scan
# elimination (every factorization of every milp unit test is compared bit
# for bit), the pinned exact-leg LP trajectory and the cold-start
# differential against the dense oracle (already run once in the debug
# block above, as part of the workspace tests), on the optimised build
run cargo test --release -q -p milp
run cargo test --release -q -p integration-tests --test lp_trajectory
run cargo test --release -q -p integration-tests --test cold_start_differential

# likewise the branch & bound search: 362 solves held word for word to the
# recording made before it became one serial loop; and the aggregate
# model's optimum alone (1 216 instances), which a change of the model's
# shape may not move even where it moves the search
run cargo test --release -q -p integration-tests --test search_pin --test optimum_pin

# likewise the exact replay: its differential against the per-step
# recursion kept as `replay::reference`, and the two recordings made
# before it became event-driven (`replay_pin`: 1 920 triples, broken
# schedules and carries included; `replay_pin_events`: the time series,
# sparse long runs, the overflow boundary), on the optimised build every
# reply is checked with. A step list out of order or repeating a step is
# out of both families: `AnalysisSchedule` cannot hold one.
# Deeper soaks: PROPTEST_CASES=300000
run cargo test --release -q -p certify
run cargo test --release -q -p integration-tests --test replay_pin --test replay_pin_events

# the replay kernels bench and the LP kernels bench (lowering, LU factor,
# FTRAN, BTRAN, the two-right-hand-side BTRAN, the row-wise pivot row)
# compile and run once (`--test` times nothing)
run cargo bench -q -p bench --bench replay_kernels -- --test
run cargo bench -q -p bench --bench lu_kernels -- --test

# doc-tests, separately: `cargo test` runs them per-crate, but this keeps
# a failure attributable when only docs change
run cargo test --doc --workspace

# differential fuzz smoke: a fixed-seed bounded run of the solver
# cross-examination (one vs three probe threads vs brute force vs certifier),
# plus replay of every reproducer in tests/corpus/. The case count is
# overridable for deeper local soaks: CERTIFY_FUZZ_CASES=5000 ./scripts/verify.sh
run env CERTIFY_FUZZ_CASES="${CERTIFY_FUZZ_CASES:-200}" \
    cargo test -q -p integration-tests --test certify_differential

# solve-service concurrency stress: 8 client threads, duplicate/near-miss
# mix, client-side re-certification of every reply, dedup single-solve,
# worker-count independence. Deeper soaks: SERVICE_STRESS_ITERS=200
run env SERVICE_STRESS_ITERS="${SERVICE_STRESS_ITERS:-50}" \
    cargo test -q -p integration-tests --test service_stress

# the service/v1 fast paths against the Value code they replaced, on the
# optimised build the service ships: handle_json's replies byte for byte,
# the one-pass request decoder against json::from_str on generated,
# respelled, truncated, flipped and adversarial requests. The case count is
# overridable for deeper soaks: WIRE_DIFF_CASES=5000 ./scripts/verify.sh
run env WIRE_DIFF_CASES="${WIRE_DIFF_CASES:-200}" \
    cargo test --release -q -p integration-tests --test wire_differential

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

# trace_view smoke on real artifacts: a traced pass of the benchmark's
# svc-zipf workload writes its obs/timeline/v1 span file; render it as a
# text tree and re-export the per-request Chrome lanes. Then render the
# search tree a committed certificate document records.
run cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload svc-zipf --seed 7 --smoke --trace 1
run bash -c './target/release/trace_view benchmark/out/svc-zipf.trace.json \
    --chrome target/trace_view.chrome.json > target/trace_view.tree.txt'
run head -n 4 target/trace_view.tree.txt
run bash -c './target/release/trace_view tests/corpus/exemplar-proved.json \
    > target/trace_view.search.txt'
run head -n 4 target/trace_view.search.txt

# retired names stay retired: benchmark/ and `cargo test` are the only
# gates since PR 16, obs::Registry has no meters, since PR 17
# parallel::Exec is a thread count with no chunk-cap knob, since PR 21
# Eqs. 1-9 have one formulation and no discrete-event replay beside the
# exact one, and since PR 22 each model has one solve function and every
# door one solve-and-stamp body; the search is one serial loop with no
# worker count to report; step lists are sets by construction, so the
# replay is the one structural judge and has no unordered-list complaint;
# the settings only their default ever took are constants, and the
# adaptive loop has one trigger; and what no run reached is gone: AMR
# refinement, the HPM region profiler, every collective model but
# allreduce, the accessors only their own tests called, and the second
# certificate judge beside `CheckedCertificate::check`; the search tree
# has one format, the certificate, and no JSON schema of its own; presolve
# has no dominated-row pass.
# History files (CHANGES.md, ROADMAP.md,
# EXPERIMENTS.md) and benchmark/ are not searched.
retired='service_bench|sim_bench|bench_diff|adaptive_smoke|timeline_smoke|obs_smoke'
retired="$retired|BENCH_service\\.json|BENCH_sim\\.json|observe_agg"
retired="$retired|INSITU_CHUNK_CAP|with_chunk_cap"
retired="$retired|cosched|ReplaySite|ReplayCost"
retired="$retired|solve_aggregate_counts|solve_exact_with_hint|solve_exact_with_stats"
retired="$retired|AggregateSolution|RescheduleOutcome"
retired="$retired|milp\\.threads|THREAD_SWEEP"
retired="$retired|validate_structure|StepOutOfRange|OutputWithoutAnalysis"
retired="$retired|eval_objective|duration_secs|not strictly increasing"
retired="$retired|drift_threshold|trigger_on_budget|check_every|cooldown_steps|max_reschedules"
retired="$retired|max_simplex_iters|flight_capacity|TriggerReason::Drift"
retired="$retired|RegionProfiler|RegionStats|spin_for|lohner_estimator|flag_for_refinement"
retired="$retired|amrsim::refine|allgather|alltoall|mean_hops|bisection_links|merge_hist"
retired="$retired|root_gap_closed|peak_mem_over_period|r3_protein_histogram|check_certificate|amdahl_"
retired="$retired|SEARCHTRACE_SCHEMA|milp/searchtrace|action_from_str"
retired="$retired|row_dominates|rows_dominated"
echo
echo ">>> git grep -nE \"$retired\" -- crates tests examples docs README.md DESIGN.md .claude"
if git grep -nE "$retired" -- crates tests examples docs README.md DESIGN.md .claude; then
    echo "verify: a tracked file still names a retired binary, recording, API or knob"
    exit 1
fi

# one `unsafe` block in the workspace: the worker set's job hand-over in
# `parallel` (its SAFETY comment states the invariant); no other Rust file
# of the workspace says `unsafe` at all
echo
echo ">>> git grep -nw unsafe -- '*.rs' ':!crates/parallel/src/lib.rs' ':!benchmark'"
if git grep -nw unsafe -- '*.rs' ':!crates/parallel/src/lib.rs' ':!benchmark'; then
    echo "verify: \`unsafe\` outside crates/parallel/src/lib.rs"
    exit 1
fi
unsafe_blocks="$(grep -c 'unsafe {' crates/parallel/src/lib.rs || true)"
if [ "$unsafe_blocks" != 1 ]; then
    echo "verify: crates/parallel/src/lib.rs has $unsafe_blocks \`unsafe\` blocks, not one"
    exit 1
fi

echo
echo "verify: all green"
