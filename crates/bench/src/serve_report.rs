//! Machine-readable serving-benchmark records (`SERVE_repro.json`) and
//! the regression gates CI runs over them.
//!
//! `repro serve` measures the [`gbdt_core::serve`] subsystem on a
//! NUS-WIDE-shaped model: the offline `DeviceEnsemble::predict` cost
//! of both parallelization schemes on a fresh upload, plus
//! micro-batched serving throughput and latency percentiles for
//! single-row vs batched submission. Everything
//! gated here is *simulated* and therefore deterministic; host noise
//! never appears in the schema.
//!
//! Two gates consume a [`ServeReport`]:
//! * [`serve_self_check`] — absolute invariants of any healthy run:
//!   batched throughput at least [`MIN_BATCH_SPEEDUP`]× single-row,
//!   bit-identical outputs, and tree-level prediction strictly costlier
//!   than instance-level (the cost-model bug this subsystem's tests
//!   pinned down);
//! * [`serve_diff_gate`] — relative drift against the committed
//!   `SERVE_baseline.json`: throughput within [`THROUGHPUT_REL_TOL`]
//!   and resident bytes exactly stable (both directions — a silent
//!   serving speedup must be blessed into the baseline like any
//!   regression).

use serde::{Deserialize, Serialize};

/// Schema version of [`ServeReport`]. Bump rule matches
/// [`crate::report::BENCH_SCHEMA_VERSION`]: renames, removals, or
/// meaning changes bump it and CI's committed baseline is regenerated.
pub const SERVE_SCHEMA_VERSION: u32 = 1;

/// Minimum batched-over-single-row throughput ratio a healthy run must
/// show (the issue's ≥5× acceptance criterion).
pub const MIN_BATCH_SPEEDUP: f64 = 5.0;

/// Maximum tolerated relative throughput drift vs the baseline.
pub const THROUGHPUT_REL_TOL: f64 = 0.10;

/// The hyper-parameters a serving report was produced under (identity,
/// so baselines refuse to diff against a different setup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSetup {
    /// Boosted trees in the served model.
    pub trees: u64,
    /// Maximum tree depth.
    pub depth: u64,
    /// Histogram bins used in training.
    pub bins: u64,
    /// Dataset scale multiplier over `PaperDataset::bench_shape`.
    pub scale: f64,
    /// RNG seed for data generation and training.
    pub seed: u64,
    /// Whether this was the reduced `--smoke` configuration.
    pub smoke: bool,
    /// `max_batch` of the batched runs (single-row runs always use 1).
    pub batch: u64,
    /// Rows served per run (the test split size).
    pub rows: u64,
}

/// One serving run: a (submission mode, predict scheme) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Dataset name (paper's Table 1 naming).
    pub dataset: String,
    /// Submission mode: `single` (max_batch = 1) or `batched`.
    pub mode: String,
    /// Parallelization scheme: `instance` or `tree`.
    pub predict: String,
    /// Rows served.
    pub rows: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Median request latency, simulated ns.
    pub latency_p50_ns: f64,
    /// 99th-percentile request latency, simulated ns.
    pub latency_p99_ns: f64,
    /// Served rows per simulated second.
    pub throughput_rps: f64,
    /// Simulated ns charged to `Phase::Serve` during the run.
    pub serve_ns: f64,
    /// Simulated ns charged to `Phase::Transfer` by the SoA upload.
    pub upload_ns: f64,
    /// Device-resident bytes of the uploaded ensemble.
    pub resident_bytes: u64,
}

/// A full schema-versioned serving report (`SERVE_repro.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version ([`SERVE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Device the simulated times were modeled on.
    pub device: String,
    /// Run hyper-parameters.
    pub setup: ServeSetup,
    /// Offline `DeviceEnsemble::predict` cost after a fresh upload,
    /// instance-level scheme.
    pub instance_predict_ns: f64,
    /// Offline `DeviceEnsemble::predict` cost after a fresh upload,
    /// tree-level scheme (must be
    /// strictly higher: it pays the T×n×d partial-matrix reduction).
    pub tree_predict_ns: f64,
    /// Batched-over-single-row throughput ratio (instance scheme).
    pub batched_speedup: f64,
    /// Whether every serving run reproduced `predict_raw` exactly.
    pub bit_identical: bool,
    /// One record per (mode, predict) run.
    pub records: Vec<ServeRecord>,
}

impl ServeReport {
    /// Serialize to the canonical JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serve floats are finite")
    }

    /// Parse and validate: strict field presence plus a schema-version
    /// check.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let r: ServeReport = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if r.schema_version != SERVE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {}",
                r.schema_version, SERVE_SCHEMA_VERSION
            ));
        }
        for rec in &r.records {
            let ok_mode = matches!(rec.mode.as_str(), "single" | "batched");
            let ok_predict = matches!(rec.predict.as_str(), "instance" | "tree");
            if !ok_mode || !ok_predict {
                return Err(format!(
                    "record {}/{}/{} has an unknown mode or predict key",
                    rec.dataset, rec.mode, rec.predict
                ));
            }
        }
        Ok(r)
    }

    /// Find a record by (mode, predict) identity.
    pub fn find(&self, mode: &str, predict: &str) -> Option<&ServeRecord> {
        self.records
            .iter()
            .find(|r| r.mode == mode && r.predict == predict)
    }
}

/// Absolute invariants of a healthy serving run; returns human-readable
/// failures (empty ⇒ pass). Run on every fresh report, baseline or not.
pub fn serve_self_check(report: &ServeReport) -> Vec<String> {
    let mut fails = Vec::new();
    if !report.bit_identical {
        fails.push("serving outputs are not bit-identical to predict_raw".to_string());
    }
    if report.batched_speedup < MIN_BATCH_SPEEDUP {
        fails.push(format!(
            "batched speedup {:.2}x is below the required {MIN_BATCH_SPEEDUP:.0}x",
            report.batched_speedup
        ));
    }
    if report.tree_predict_ns <= report.instance_predict_ns {
        fails.push(format!(
            "tree-level predict {:.0} ns must strictly exceed instance-level {:.0} ns \
             (the T x n x d reduction is not free)",
            report.tree_predict_ns, report.instance_predict_ns
        ));
    }
    fails
}

/// Compare `current` against `baseline`; returns human-readable
/// failures (empty ⇒ gate passes). Gates only deterministic simulated
/// quantities: throughput drift and resident-byte stability.
pub fn serve_diff_gate(current: &ServeReport, baseline: &ServeReport) -> Vec<String> {
    let mut fails = Vec::new();
    if current.schema_version != baseline.schema_version {
        fails.push(format!(
            "schema_version mismatch: current {} vs baseline {}",
            current.schema_version, baseline.schema_version
        ));
        return fails;
    }
    if current.setup != baseline.setup {
        fails.push(format!(
            "setup mismatch (runs are not comparable): current {:?} vs baseline {:?}",
            current.setup, baseline.setup
        ));
        return fails;
    }
    for b in &baseline.records {
        let id = format!("{}/{}/{}", b.dataset, b.mode, b.predict);
        let Some(c) = current.find(&b.mode, &b.predict) else {
            fails.push(format!("{id}: record missing from current run"));
            continue;
        };
        if b.throughput_rps > 0.0 {
            let rel = (c.throughput_rps - b.throughput_rps).abs() / b.throughput_rps;
            if rel > THROUGHPUT_REL_TOL {
                fails.push(format!(
                    "{id}: throughput drifted {:.1}% ({:.0} -> {:.0} rows/s; tol {:.0}%)",
                    100.0 * rel,
                    b.throughput_rps,
                    c.throughput_rps,
                    100.0 * THROUGHPUT_REL_TOL
                ));
            }
        }
        if c.resident_bytes != b.resident_bytes {
            fails.push(format!(
                "{id}: resident bytes changed {} -> {} (same setup must produce the \
                 same compiled layout)",
                b.resident_bytes, c.resident_bytes
            ));
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> ServeSetup {
        ServeSetup {
            trees: 3,
            depth: 4,
            bins: 32,
            scale: 0.25,
            seed: 42,
            smoke: true,
            batch: 256,
            rows: 75,
        }
    }

    fn rec(mode: &str, predict: &str, rps: f64) -> ServeRecord {
        ServeRecord {
            dataset: "NUS-WIDE".to_string(),
            mode: mode.to_string(),
            predict: predict.to_string(),
            rows: 75,
            batches: if mode == "single" { 75 } else { 1 },
            latency_p50_ns: 1500.0,
            latency_p99_ns: 2500.0,
            throughput_rps: rps,
            serve_ns: 90_000.0,
            upload_ns: 4_000.0,
            resident_bytes: 10_240,
        }
    }

    fn report() -> ServeReport {
        ServeReport {
            schema_version: SERVE_SCHEMA_VERSION,
            device: "SimRTX4090".to_string(),
            setup: setup(),
            instance_predict_ns: 10_000.0,
            tree_predict_ns: 15_000.0,
            batched_speedup: 8.0,
            bit_identical: true,
            records: vec![
                rec("single", "instance", 100_000.0),
                rec("batched", "instance", 800_000.0),
                rec("batched", "tree", 600_000.0),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = report();
        let back = ServeReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back.schema_version, r.schema_version);
        assert_eq!(back.records.len(), 3);
        assert_eq!(back.batched_speedup, 8.0);
        assert!(back.find("batched", "tree").is_some());
        assert!(back.find("single", "tree").is_none());
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn from_json_rejects_wrong_version_and_unknown_keys() {
        let mut r = report();
        r.schema_version = SERVE_SCHEMA_VERSION + 1;
        let err = ServeReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("schema_version"), "{err}");
        let mut r = report();
        r.records[0].mode = "streamed".to_string();
        let err = ServeReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("unknown mode"), "{err}");
        assert!(ServeReport::from_json("{not json").is_err());
    }

    #[test]
    fn self_check_passes_a_healthy_report() {
        assert!(serve_self_check(&report()).is_empty());
    }

    #[test]
    fn self_check_catches_each_invariant() {
        let mut r = report();
        r.bit_identical = false;
        assert!(serve_self_check(&r)[0].contains("bit-identical"));
        let mut r = report();
        r.batched_speedup = 3.0;
        assert!(serve_self_check(&r)[0].contains("below the required"));
        let mut r = report();
        r.tree_predict_ns = r.instance_predict_ns;
        assert!(serve_self_check(&r)[0].contains("strictly exceed"));
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = report();
        assert!(serve_diff_gate(&r, &r).is_empty());
    }

    #[test]
    fn gate_fails_on_throughput_drift_in_either_direction() {
        let base = report();
        let mut slow = report();
        slow.records[1].throughput_rps *= 0.85;
        let fails = serve_diff_gate(&slow, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("throughput drifted"), "{fails:?}");
        let mut fast = report();
        fast.records[1].throughput_rps *= 1.2;
        assert!(!serve_diff_gate(&fast, &base).is_empty());
        let mut wiggle = report();
        wiggle.records[1].throughput_rps *= 1.05;
        assert!(serve_diff_gate(&wiggle, &base).is_empty());
    }

    #[test]
    fn gate_fails_on_resident_byte_change_and_missing_record() {
        let base = report();
        let mut grown = report();
        grown.records[2].resident_bytes += 64;
        assert!(serve_diff_gate(&grown, &base)[0].contains("resident bytes"));
        let mut pruned = report();
        pruned.records.pop();
        let fails = serve_diff_gate(&pruned, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("missing"), "{fails:?}");
    }

    #[test]
    fn gate_refuses_mismatched_setup() {
        let base = report();
        let mut other = report();
        other.setup.batch = 128;
        assert!(serve_diff_gate(&other, &base)[0].contains("setup"));
    }
}
