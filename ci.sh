#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md) plus lint/format checks. Run from the repo
# root; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

# Scratch files of the smoke steps below, removed on any exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

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
# thread-count independence of grown trees, the pair-local subtraction
# (bit-identical trees, a pool that frees parents early), the equality
# of data- and feature-parallel trees, the data-parallel level schedule
# (smallest builds first, gapless reduce-scatters; the row exchange first
# and the row-path builds behind it), the pricing of each data-parallel
# node's path (the cheaper of reduce-scatter and row exchange, `g` alone
# on uniform-Hessian rounds, the largest shard and widest range at three
# devices, a train-dp2-shaped fit's roots and deep nodes, no path on one
# device or a feature-parallel group), a one-device group that charges
# what one device charges, record for record at 1 and 4 streams, devices
# that own no splittable column and build and scan nothing, the trees
# and histogram/split time that appended constant columns must not
# move, the group trees under
# subtraction and monotone constraints that must equal one device's at
# 1-3 devices and 1 and 4 streams, the uniform-Hessian fits that must
# equal fits forced onto the general Hessian path, and the
# warp-aggregated atomic pricing (one atomic per
# distinct bin per warp, an unpacked path priced as before aggregation,
# the selector's closed form agreeing with the measured charge), in the
# release profile.
cargo test --release -q -p gbdt-core --test layout_golden
cargo test --release -q -p gbdt-core --test differential -- constant groups_
cargo test --release -q -p gbdt-core --lib -- \
  hist::tests::accumulate_dense_matches_a_scalar_reference_bit_for_bit \
  split::tests::best_split_matches_a_scalar_reference_bit_for_bit \
  hist::stats::tests::measure_is_bit_identical_to_the_sort_based_reference \
  hist::stats::tests::aggregation_ \
  grow::tests::trees_do_not_depend_on_the_thread_count \
  grow::tests::subtraction_pairs_resolve_at_their_first_node_and_free_parents_early \
  multigpu::tests::data_parallel_trees_equal_feature_parallel_trees_bit_for_bit \
  multigpu::tests::data_parallel_levels_issue_builds_smallest_first_behind_gapless_collectives \
  multigpu::tests::row_path_builds_wait_for_the_exchange_and_reduce_scatter_builds_do_not \
  multigpu::tests::data_parallel_nodes_pay_the_cheaper_of_reduce_scatter_and_row_exchange \
  multigpu::tests::data_parallel_uniform_hessian_rounds_exchange_gradients_only \
  multigpu::tests::data_parallel_exchange_payload_takes_the_largest_shard_and_widest_range \
  multigpu::tests::a_train_dp2_shaped_root_reduce_scatters_and_small_nodes_exchange_rows \
  multigpu::tests::single_devices_and_feature_parallel_groups_exchange_nothing \
  multigpu::tests::a_one_device_group_charges_what_one_device_charges \
  multigpu::tests::devices_without_a_splittable_column_build_and_scan_nothing \
  uniform_differential::

echo "==> benchmark unit tests (incl. the BENCHMARK.json sync test)"
# The benchmark is a package of its own (benchmark/Cargo.toml), so the
# workspace test run above does not reach it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# Every workspace member, not just the root package: the library crates,
# repo-lint, the bench harness and their tests.
cargo clippy --workspace --all-targets -- -D warnings

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
# parallel float reduce, waiver-without-reason rejection and unused
# waivers — is seeded in this fixture tree; the golden test pins the
# exact JSON.
if cargo run --release -q -p repo-lint -- --contract-root crates/lint/fixtures/bad_repo >/dev/null 2>&1; then
  echo "ci: repo-lint failed to flag the bad_repo contract violations" >&2
  exit 1
fi
for rule in canonical_kernel_name metric_name_canonical phase_in_bench_schema \
            prof_coverage sanitize \
            design_inventory hashmap_iteration unordered_float_reduce \
            waiver_without_reason unused_waiver; do
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
# validates it parses under the strict schema reader, and diff-gates it
# against the committed baseline: simulated seconds, kernel counts and
# per-phase ns exactly, hist-share and quality within tolerance (host
# wall-clock is informational only and never gated).
cargo run --release -q -p gbdt-bench --bin repro -- bench --smoke \
  --out BENCH_repro.json --baseline BENCH_baseline.json --check >/dev/null

echo "==> stream overlap smoke (streamed grid must record overlap savings)"
# The streamed smoke grid must train bit-identical models while the
# multi-stream timeline recovers simulated time: the printed multi-GPU
# serial-vs-streamed comparison and per-record overlap_saved_ns prove
# the overlap actually engaged.
cargo run --release -q -p gbdt-bench --bin repro -- bench --smoke --streams 4 \
  --out "$tmp"/BENCH_streams.json > "$tmp"/bench_streams.log
grep -q "overlap_saved" "$tmp"/bench_streams.log || {
  echo "ci: streamed bench printed no overlap savings" >&2
  exit 1
}
grep -qE '"overlap_saved_ns":[1-9]' "$tmp"/BENCH_streams.json || {
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
# checkpoint/resume roundtrip on one device and on a group of each
# layout: every completion must be bit-identical to the fault-free
# reference, every failure a typed error.
cargo run --release -q -p gbdt-bench --bin repro -- chaos --smoke \
  --trees 5 --depth 3 --bins 16 >/dev/null

echo "==> unified run report smoke (served scores match; report carries the ledger's phase breakdown)"
# `repro report` trains + serves on one telemetry-carrying device, exits
# nonzero if a served score diverges from the model, and writes the
# joined report. Per-phase time is the ledger's `by_phase`, embedded as
# is: no observer keeps a second copy to reconcile.
cargo run --release -q -p gbdt-bench --bin repro -- report --smoke \
  --out "$tmp"/REPORT_repro.json --prom "$tmp"/metrics.prom >/dev/null
grep -q 'telemetry_schema_version' "$tmp"/REPORT_repro.json || {
  echo "ci: run report missing telemetry schema version" >&2
  exit 1
}
grep -qE '"ledger":\{[^}]*"by_phase":\{[^}]*"Histogram":' "$tmp"/REPORT_repro.json || {
  echo "ci: run report's ledger section lacks a by_phase Histogram entry" >&2
  exit 1
}
grep -q 'rounds_total' "$tmp"/metrics.prom || {
  echo "ci: Prometheus exposition missing training counters" >&2
  exit 1
}

echo "ci: all checks passed"
