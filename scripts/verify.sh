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

# sim-kernel smoke: the (size x threads) proxy sweep's CI grid, timed so
# gross kernel regressions show up too (full sweep: sim_bench)
run bash -c 'time ./target/release/sim_bench --smoke --out target/BENCH_sim_smoke.json'

# solve-service smoke: the Zipf request-stream sweep's CI grid, timed —
# cache hit-rate and dedup accounting on the reduced stream
# (full sweep: service_bench, committed as BENCH_service.json)
run bash -c 'time ./target/release/service_bench --smoke --out target/BENCH_service_smoke.json'

# timeline smoke: traced coupled run -> export timeline JSON + Chrome
# trace -> re-parse and validate both, and check the drift report's
# predicted series bitwise against certify's exact replay
run ./target/release/timeline_smoke --out target

# adaptive smoke: the docs/ADAPTIVE.md budget-blowout scenario — the
# static schedule exceeds the budget, the closed-loop adaptive run must
# recover within it, with the reschedule event in the exported timeline
# and the adopted schedule certified
run ./target/release/adaptive_smoke --out target

# observability smoke: traced service batch at 1 vs 4 workers —
# bitwise-identical objective histograms and trace-id sets, a trace id
# on every span, per-request Chrome lanes, a forced certify-reject
# dumping a parseable flightrec/v1 artifact, and a searchtrace
# round-trip (contracts in docs/OBSERVABILITY.md)
run ./target/release/obs_smoke --out target

# trace_view smoke: render the artifacts obs_smoke just wrote, both
# schemas, plus the Chrome re-export
run ./target/release/trace_view target/obs_smoke_timeline.json --chrome target/obs_smoke_trace_view.chrome.json
run ./target/release/trace_view target/obs_smoke_searchtrace.json

# bench_diff gate: the committed service benchmark against the recording
# it replaced — HEAD's while a re-recording is still uncommitted, else the
# one before the commit that last touched the file. Exits nonzero when a
# tracked metric is >20 % worse than that recording.
if git diff --quiet HEAD -- BENCH_service.json; then
    prev="$(git rev-list -1 HEAD -- BENCH_service.json)~1"
else
    prev=HEAD
fi
if git show "$prev:BENCH_service.json" > target/BENCH_service_prev.json 2>/dev/null; then
    run ./target/release/bench_diff target/BENCH_service_prev.json BENCH_service.json
else
    echo "bench_diff: no earlier BENCH_service.json in this checkout's history, skipped"
fi

echo
echo "verify: all green"
