#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md) plus lint/format checks. Run from the repo
# root; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
# Every workspace test runs here, including the bitwise gates for
# streams, serving observers, chaos/checkpoint recovery, the sanitized
# recovery paths, telemetry (zero-perturbation and the golden
# exporters) and repo-lint's golden diagnostics; later steps run only
# what this does not.
cargo test --workspace -q

echo "==> bitwise pins under release codegen"
# The test profile builds at opt-level 2 with debug assertions; the
# benchmark runs opt-level 3 without them, and the two can vectorise the
# host loops differently. Re-run the tree/charge golden table, the
# bit-for-bit histogram, split and contention-sampling tests, the
# thread-count independence of grown trees, and the equality of data-
# and feature-parallel trees in the release profile.
cargo test --release -q -p gbdt-core --test layout_golden
cargo test --release -q -p gbdt-core --lib -- \
  hist::tests::accumulate_dense_matches_a_scalar_reference_bit_for_bit \
  split::tests::best_split_matches_a_scalar_reference_bit_for_bit \
  hist::stats::tests::measure_is_bit_identical_to_the_sort_based_reference \
  grow::tests::trees_do_not_depend_on_the_thread_count \
  multigpu::tests::data_parallel_trees_equal_feature_parallel_trees_bit_for_bit

echo "==> benchmark unit tests (incl. the BENCHMARK.json sync test)"
# The benchmark is a package of its own (benchmark/Cargo.toml), so the
# workspace test run above does not reach it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> repo-lint workspace contract (zero violations, JSON emitted)"
# Full kernel-contract pass over the workspace: style + determinism
# hazards + cross-artifact checks (phase schema, canonical names,
# profiler coverage, sanitizer coverage, DESIGN.md inventory). Writes
# the schema-versioned diagnostics to LINT_repro.json.
cargo run --release -q -p repo-lint -- --json LINT_repro.json
grep -q '"lint_schema_version": 1' LINT_repro.json || {
  echo "ci: LINT_repro.json missing schema version header" >&2
  exit 1
}

echo "==> repo-lint self-check (style rules must fire on seeded fixture)"
if cargo run --release -q -p repo-lint -- crates/lint/fixtures/violations.rs.txt >/dev/null 2>&1; then
  echo "ci: repo-lint failed to flag the seeded fixture violations" >&2
  exit 1
fi

echo "==> repo-lint self-check (contract rules must fire on bad_repo)"
# Every v2 rule — near-dup kernel names, missing phase key, profiler
# coverage, sanitizer coverage, inventory, HashMap iteration, unordered
# parallel float reduce, and waiver-without-reason rejection — is seeded
# in this fixture tree; the golden test pins the exact JSON.
if cargo run --release -q -p repo-lint -- --contract-root crates/lint/fixtures/bad_repo >/dev/null 2>&1; then
  echo "ci: repo-lint failed to flag the bad_repo contract violations" >&2
  exit 1
fi
for rule in canonical_kernel_name metric_name_canonical phase_in_bench_schema \
            prof_coverage sanitize \
            design_inventory hashmap_iteration unordered_float_reduce \
            waiver_without_reason; do
  # `|| true` inside the pipeline: the analyzer exits 1 on violations,
  # which is exactly the state being asserted — pipefail must not trip.
  (cargo run --release -q -p repo-lint -- --contract-root crates/lint/fixtures/bad_repo 2>/dev/null || true) \
    | grep -q "\[$rule\]" || {
      echo "ci: rule $rule did not fire on bad_repo" >&2
      exit 1
    }
done

echo "==> repo-lint self-check (good_repo must satisfy the contract)"
cargo run --release -q -p repo-lint -- --contract-root crates/lint/fixtures/good_repo >/dev/null

echo "==> sanitized smoke train (repro sanitize: dense + every sketch mode × hist method)"
cargo run --release -q -p gbdt-bench --bin repro -- sanitize --trees 2 --depth 4 --bins 32 >/dev/null

echo "==> bench smoke grid + schema validation + regression gate"
# Runs the reduced paper grid, writes a schema-versioned BENCH_repro.json,
# validates it parses under the strict schema reader, and diff-gates
# hist-share / quality against the committed baseline (host wall-clock is
# informational only and never gated).
cargo run --release -q -p gbdt-bench --bin repro -- bench --smoke \
  --out BENCH_repro.json --baseline BENCH_baseline.json --check >/dev/null

echo "==> stream overlap smoke (streamed grid must record overlap savings)"
# The streamed smoke grid must train bit-identical models while the
# multi-stream timeline recovers simulated time: the printed multi-GPU
# serial-vs-streamed comparison and per-record overlap_saved_ns prove
# the overlap actually engaged.
cargo run --release -q -p gbdt-bench --bin repro -- bench --smoke --streams 4 \
  --out /tmp/BENCH_streams.json > /tmp/bench_streams.log
grep -q "overlap_saved" /tmp/bench_streams.log || {
  echo "ci: streamed bench printed no overlap savings" >&2
  exit 1
}
grep -qE '"overlap_saved_ns":[1-9]' /tmp/BENCH_streams.json || {
  echo "ci: no bench record carries nonzero overlap_saved_ns" >&2
  exit 1
}

echo "==> serve smoke benchmark + schema validation + regression gate"
# Batched-serving invariants (bit-identity, >=5x batched speedup,
# tree-level strictly costlier) plus a throughput/resident-bytes
# diff-gate against the committed baseline.
cargo run --release -q -p gbdt-bench --bin repro -- serve --smoke \
  --baseline SERVE_baseline.json --check >/dev/null

echo "==> chaos smoke (seeded fault matrix: transient retry, device loss, resume)"
# Seeded fault plans against single- and multi-GPU training plus a
# checkpoint/resume roundtrip: every completion must be bit-identical
# to the fault-free reference, every failure a typed error.
cargo run --release -q -p gbdt-bench --bin repro -- chaos --smoke \
  --trees 5 --depth 3 --bins 16 >/dev/null

echo "==> unified run report smoke (served scores match; report carries the ledger's phase breakdown)"
# `repro report` trains + serves on one telemetry-carrying device, exits
# nonzero if a served score diverges from the model, and writes the
# joined report. Per-phase time is the ledger's `by_phase`, embedded as
# is: no observer keeps a second copy to reconcile.
cargo run --release -q -p gbdt-bench --bin repro -- report --smoke \
  --out /tmp/REPORT_repro.json --prom /tmp/metrics.prom >/dev/null
grep -q 'telemetry_schema_version' /tmp/REPORT_repro.json || {
  echo "ci: run report missing telemetry schema version" >&2
  exit 1
}
grep -qE '"ledger":\{[^}]*"by_phase":\{[^}]*"Histogram":' /tmp/REPORT_repro.json || {
  echo "ci: run report's ledger section lacks a by_phase Histogram entry" >&2
  exit 1
}
grep -q 'rounds_total' /tmp/metrics.prom || {
  echo "ci: Prometheus exposition missing training counters" >&2
  exit 1
}

echo "ci: all checks passed"
