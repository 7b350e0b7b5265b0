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
cargo test --workspace -q

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

echo "==> repo-lint golden JSON diagnostics"
cargo test -q -p repo-lint --test golden_json >/dev/null

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

echo "==> stream zero-perturbation gate (observers + streams, bitwise)"
# Profiler + sanitizer attached to a streamed (4-stream) run must change
# nothing: model, clock, and every charge record bit-for-bit.
cargo test -q -p gbdt-core --test streams \
  observers_do_not_perturb_streamed_training >/dev/null
cargo test -q -p gbdt-core --test streams \
  serial_stream_config_is_bitwise_stable_across_methods_and_sketches >/dev/null

echo "==> sanitized serving smoke (both predict modes under full memcheck)"
# The serving observer test uploads a compiled ensemble and predicts in
# both parallelization schemes with the sanitizer at SanitizeMode::Full,
# asserting a clean report and zero charge perturbation.
cargo test -q -p gbdt-core --test serving observers_do_not_perturb_serving >/dev/null

echo "==> serve smoke benchmark + schema validation + regression gate"
# Batched-serving invariants (bit-identity, >=5x batched speedup,
# tree-level strictly costlier) plus a throughput/resident-bytes
# diff-gate against the committed baseline.
cargo run --release -q -p gbdt-bench --bin repro -- serve --smoke \
  --baseline SERVE_baseline.json --check >/dev/null

echo "==> repo-lint Serve-phase fixture (missing schema key must fire)"
# Proves phase_in_bench_schema would catch a bench schema that never
# learned about Phase::Serve.
cargo test -q -p repo-lint phase_schema_catches_missing_serve_phase >/dev/null

echo "==> chaos smoke (seeded fault matrix: transient retry, device loss, resume)"
# Seeded fault plans against single- and multi-GPU training plus a
# checkpoint/resume roundtrip: every completion must be bit-identical
# to the fault-free reference, every failure a typed error.
cargo run --release -q -p gbdt-bench --bin repro -- chaos --smoke \
  --trees 5 --depth 3 --bins 16 >/dev/null

echo "==> sanitized chaos smoke (recovery paths under full memcheck+racecheck)"
# A transient-fault single-GPU fit, a device-loss multi-GPU fit, and a
# resumed fit, each with the sanitizer at SanitizeMode::Full — the
# retry/degrade/resume re-execution paths must replay clean.
cargo test -q -p gbdt-core --test chaos \
  transient_retry_recovers_bit_identically_and_pays_for_the_retry \
  >/dev/null
cargo test -q -p gbdt-core --test chaos \
  multi_gpu_degrades_to_survivors_with_identical_trees >/dev/null
cargo test -q -p gbdt-core --test checkpoint_resume \
  resume_is_bit_identical_across_hist_methods_and_sketches >/dev/null
cargo test -q -p gbdt-core --test sanitized_recovery >/dev/null

echo "==> repo-lint fault-path fixture (unchecksummed recovery kernel must fire)"
# Proves the kernel contract gives no pass to recovery-path charge
# sites: the bad_repo fault_path fixture kernels must trip sanitize,
# prof_coverage and design_inventory.
cargo test -q -p repo-lint --test golden_json \
  unchecksummed_fault_path_kernel_fires_the_contract >/dev/null

echo "==> telemetry zero-perturbation gate (registry on/off/toggled, bitwise)"
# The metrics registry and flight recorder must be pure observers:
# trees, predictions, clocks, and every charge record bit-identical
# with telemetry attached, detached, or toggled mid-run — across the
# hist-method × sketch grid, multi-GPU, and serving.
cargo test -q -p gbdt-core --test telemetry >/dev/null

echo "==> telemetry golden schema gate (Prometheus + JSON exporters pinned)"
# The schema-versioned JSON export and the Prometheus text exposition
# are golden-pinned; drift fails here before it reaches a dashboard.
cargo test -q -p telemetry >/dev/null

echo "==> unified run report smoke (phase ns must reconcile bitwise with the ledger)"
# `repro report` trains + serves on one telemetry-carrying device and
# exits nonzero unless every per-phase nanosecond total in the registry
# matches the device ledger bit-for-bit, both directions.
cargo run --release -q -p gbdt-bench --bin repro -- report --smoke \
  --out /tmp/REPORT_repro.json --prom /tmp/metrics.prom >/dev/null
grep -q 'telemetry_schema_version' /tmp/REPORT_repro.json || {
  echo "ci: run report missing telemetry schema version" >&2
  exit 1
}
grep -q 'rounds_total' /tmp/metrics.prom || {
  echo "ci: Prometheus exposition missing training counters" >&2
  exit 1
}

echo "ci: all checks passed"
