#!/usr/bin/env bash
# Local CI: formatting, lints (deny warnings), static analysis, and the
# full test suite. Run from the repo root. Mirrors what a hosted
# pipeline would do.
#
#   ./ci.sh              full pipeline
#   ./ci.sh --analyze    only the static-analysis gate (fast pre-commit check)
#   ./ci.sh --scenarios  only the scenario library: tests + bench smoke
#   ./ci.sh --merge      only the shard-safety analysis + sharded evaluation path
#   ./ci.sh --digest     only the sharded digest: digest tests + bench smoke
#   ./ci.sh --jit        only the compiled execution tier: tier sweeps + bench smoke
set -euo pipefail
cd "$(dirname "$0")"

run_analyzer() {
    echo "==> sysprof-analyzer (determinism + unsafe hygiene, hard gate)"
    # Exit 1 = unwaived findings, 2 = bad analyzer.toml; both fail CI.
    cargo run -q -p sysprof-analyzer -- --quiet
}

run_scenario_bench_smoke() {
    echo "==> bench smoke (scenario suite)"
    # Short run over every workload scenario; the binary self-validates
    # the JSON report. Scratch path, same policy as the hotpath smoke.
    cargo run -q --release -p sysprof-bench --bin scenarios -- --smoke \
        --out target/BENCH_scenarios_smoke.json
    test -s target/BENCH_scenarios_smoke.json
}

if [[ "${1:-}" == "--analyze" ]]; then
    run_analyzer
    echo "ANALYZE OK"
    exit 0
fi

if [[ "${1:-}" == "--scenarios" ]]; then
    # Fast path while iterating on the scenario library: golden
    # diagnoses + chaos matrix, the apps crate's own tests, and the
    # scenario bench smoke — skips fmt/clippy and the full suite.
    echo "==> scenario tests (golden diagnoses + chaos matrix)"
    cargo test -q -p sysprof-apps
    cargo test -q --test scenarios
    run_scenario_bench_smoke
    echo "SCENARIOS OK"
    exit 0
fi

if [[ "${1:-}" == "--digest" ]]; then
    # Fast path while iterating on the inline columnar digest: the
    # digest fold + scalar-oracle proptest suite, the GPA wiring, the
    # kvstore differential, and a short hotpath bench run that
    # exercises both digest arms — skips fmt/clippy and the full
    # suite.
    echo "==> sharded digest (pubsub)"
    cargo test -q -p pubsub digest
    echo "==> GPA digest wiring (core)"
    cargo test -q -p sysprof digest
    echo "==> sharded GPA end-to-end (kvstore differential)"
    cargo test -q --test sharded_gpa
    echo "==> bench smoke (hot path incl. digest arms)"
    cargo run -q --release -p sysprof-bench --bin hotpath -- --smoke \
        --min-speedup 0.5 --out target/BENCH_hotpath_smoke.json
    test -s target/BENCH_hotpath_smoke.json
    echo "DIGEST OK"
    exit 0
fi

if [[ "${1:-}" == "--jit" ]]; then
    # Fast path while iterating on the compiled execution tier: the jit
    # unit + fallback tests, the two-tier generative sweeps, the
    # allocation-discipline proof, the CPA dispatch wiring, and a short
    # hotpath bench run that exercises the cpa_eval arm — skips
    # fmt/clippy and the full suite.
    echo "==> compiled-tier lowering + fallback tests (ecode)"
    cargo test -q -p ecode jit
    echo "==> two-tier generative sweeps (reference/compiled)"
    cargo test -q -p ecode --test verifier generated
    echo "==> allocation discipline (counting allocator, release)"
    cargo test -q --release -p ecode --test zero_alloc
    echo "==> CPA dispatch + filter wiring (core, pubsub)"
    cargo test -q -p sysprof cpa
    cargo test -q -p pubsub publish
    echo "==> bench smoke (hot path incl. cpa_eval arm)"
    cargo run -q --release -p sysprof-bench --bin hotpath -- --smoke \
        --min-speedup 0.5 --min-cpa 3.5 --out target/BENCH_hotpath_smoke.json
    test -s target/BENCH_hotpath_smoke.json
    echo "JIT OK"
    exit 0
fi

if [[ "${1:-}" == "--merge" ]]; then
    # Fast path while iterating on the merge-lattice analysis and the
    # sharded evaluation path: the classifier goldens + shard-differential
    # sweep, the digest fold, the GPA wiring, and the end-to-end scenario
    # differential — skips fmt/clippy and the full suite.
    echo "==> shard-safety analysis (classifier goldens + differential sweep)"
    cargo test -q -p ecode --test verifier merge
    cargo test -q -p ecode --test verifier shard
    echo "==> sharded digest fold (pubsub)"
    cargo test -q -p pubsub digest
    echo "==> GPA digest wiring (core)"
    cargo test -q -p sysprof digest
    echo "==> sharded GPA end-to-end (kvstore differential)"
    cargo test -q --test sharded_gpa
    echo "MERGE OK"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

run_analyzer

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test (release)"
cargo test --release -q

echo "==> GPA receive-path allocation discipline (counting allocator, release)"
cargo test -q --release -p sysprof --test wire_alloc

echo "==> bench smoke (hot path)"
# Short hot-path run: exercises the emit->dispatch->VM->encode pipeline in
# release mode and self-validates the JSON report it writes (the binary
# exits nonzero on a malformed file). Uses a scratch path so the committed
# BENCH_hotpath.json baseline is only ever refreshed deliberately.
# The speedup floor is deliberately loose for a 400k-event smoke run
# (scheduler noise swings short runs +/-25%): 0.5x of the committed
# baseline still fails CI on any real regression of the hot path. The
# cpa_eval floor is the real 3.5x compiled-vs-reference gate: its
# ring-resident best-of-5 alternating measurement is stable even at
# smoke length.
cargo run -q --release -p sysprof-bench --bin hotpath -- --smoke \
    --min-speedup 0.5 --min-cpa 3.5 --out target/BENCH_hotpath_smoke.json
test -s target/BENCH_hotpath_smoke.json

run_scenario_bench_smoke

echo "==> examples"
cargo build -q --examples
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    echo "--> example: $name"
    cargo run -q --example "$name"
done

echo "CI OK"
