//! Machine-readable report files and the regression gates CI runs over
//! them: `BENCH_repro.json` against `BENCH_baseline.json` and
//! `SERVE_repro.json` against `SERVE_baseline.json`.
//!
//! Every report is written the same way ([`Output::emit`]): the file is
//! read back through its strict reader (strict field presence plus a
//! schema-version check), optionally blessed as the baseline, and
//! optionally diff-gated against it. Every diff gate starts the same
//! way: a baseline of another schema version or setup is not
//! comparable, and that is its one failure.
//!
//! **Bench** ([`BenchReport`]). Flat records, one per (dataset,
//! histogram method, sketch), each carrying the *deterministic*
//! quantities — simulated seconds, per-phase simulated nanoseconds,
//! histogram share, model quality — plus informational host wall-clock
//! (never gated: the host is noisy, the simulator is not). Gate
//! semantics ([`diff_gate`]):
//! * missing baseline record in the current run → fail;
//! * any change in a record's `sim_seconds`, `kernel_count` or any
//!   `phase_ns` entry → fail, one line per delta. Simulated time is
//!   deterministic, so it is compared exactly; only `--update-baseline`
//!   blesses a change;
//! * histogram-share relative drift beyond [`HIST_SHARE_REL_TOL`] → fail
//!   (this is the paper's Figure 4 quantity — the repo's perf north
//!   star — so both regressions *and* silent speedups must be looked at
//!   and blessed into the baseline);
//! * quality regression beyond tolerance → fail (`accuracy%` drops more
//!   than [`ACCURACY_ABS_TOL`] points, or `rmse` grows more than
//!   [`RMSE_REL_TOL`] relative) — quality improvements pass.
//!
//! **Serve** ([`ServeReport`]). `repro serve` measures the
//! [`gbdt_core::serve`] subsystem on a NUS-WIDE-shaped model: the
//! offline `DeviceEnsemble::predict` cost of both parallelization
//! schemes on a fresh upload, plus micro-batched serving throughput and
//! latency percentiles for single-row vs batched submission. Everything
//! gated is *simulated* and therefore deterministic; host noise never
//! appears in the schema. Two gates consume it:
//! * [`serve_self_check`] — absolute invariants of any healthy run:
//!   batched throughput at least [`MIN_BATCH_SPEEDUP`]× single-row,
//!   bit-identical outputs, and tree-level prediction strictly costlier
//!   than instance-level;
//! * [`serve_diff_gate`] — drift against the committed baseline:
//!   throughput within [`THROUGHPUT_REL_TOL`] and resident bytes exactly
//!   stable (both directions — a silent serving speedup must be blessed
//!   into the baseline like any regression).

use gbdt_core::HistogramMethod;
use gpusim::{LedgerSummary, Phase};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Schema version of [`BenchReport`]. Bump rule: renaming/removing a
/// field or changing a field's meaning bumps this (and CI's committed
/// baseline must be regenerated); purely additive optional fields may
/// keep it, but the golden schema test must be updated either way.
/// v3: `phase_ns` gained the `Serve` key (serving subsystem phase).
/// v4: records gained `overlap_saved_ns` (simulated ns recovered by
/// multi-stream overlap) and the setup gained `streams` — overlap is
/// *reported* by the gate, never gated (see [`overlap_notes`]).
/// v5: records gained the ledger health counters `dropped_records` and
/// `negative_charges` — surfaced by [`health_notes`], never gated (a
/// shed record keeps subtotals exact; a clamped negative charge is a
/// cost-model bug to investigate, not a perf regression).
pub const BENCH_SCHEMA_VERSION: u32 = 5;

/// Schema version of [`ServeReport`]. Bump rule matches
/// [`BENCH_SCHEMA_VERSION`].
pub const SERVE_SCHEMA_VERSION: u32 = 1;

/// Maximum tolerated relative drift of the histogram share before the
/// diff gate fails (the issue's >10 % criterion).
pub const HIST_SHARE_REL_TOL: f64 = 0.10;

/// Maximum tolerated drop in `accuracy%` (absolute points).
pub const ACCURACY_ABS_TOL: f64 = 1.0;

/// Maximum tolerated relative growth of `rmse`.
pub const RMSE_REL_TOL: f64 = 0.05;

/// Minimum batched-over-single-row throughput ratio a healthy serving
/// run must show.
pub const MIN_BATCH_SPEEDUP: f64 = 5.0;

/// Maximum tolerated relative serving-throughput drift vs the baseline.
pub const THROUGHPUT_REL_TOL: f64 = 0.10;

/// Where a report is written and what it is gated against: `repro`'s
/// `--out`, `--baseline`, `--update-baseline` and `--check`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Output<'a> {
    /// The report file.
    pub out: &'a str,
    /// The committed baseline to bless or to gate against.
    pub baseline: Option<&'a str>,
    /// Overwrite the baseline with this run.
    pub update_baseline: bool,
    /// Diff-gate this run against the baseline.
    pub check: bool,
}

impl Output<'_> {
    /// Write `json` to the report file and read the file back through
    /// `parse`, the report's strict reader; then copy it over the
    /// baseline on `update_baseline`, and on `check` read the baseline
    /// through `parse` and fail on any line `gate` returns against it.
    /// `what` names the contents in the "wrote" line and `tag` starts
    /// the verdict. An error is the whole text for stderr.
    pub fn emit<R>(
        &self,
        tag: &str,
        what: &str,
        json: &str,
        parse: impl Fn(&str) -> Result<R, String>,
        gate: impl FnOnce(&R) -> Vec<String>,
    ) -> Result<(), String> {
        let out = self.out;
        std::fs::write(out, json).map_err(|e| format!("error: cannot write {out}: {e}"))?;
        println!("(wrote {what} to {out})");
        let text = std::fs::read_to_string(out)
            .map_err(|e| format!("error: cannot re-read {out}: {e}"))?;
        parse(&text).map_err(|e| format!("error: {out} failed schema validation: {e}"))?;
        if self.update_baseline {
            let path = self
                .baseline
                .ok_or("error: --update-baseline requires --baseline FILE")?;
            std::fs::write(path, json)
                .map_err(|e| format!("error: cannot rewrite baseline {path}: {e}"))?;
            println!("(rewrote baseline {path} from this run)");
        }
        if !self.check {
            return Ok(());
        }
        let path = self
            .baseline
            .ok_or("error: --check requires --baseline FILE")?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("error: cannot read baseline {path}: {e}"))?;
        let baseline = parse(&text).map_err(|e| format!("error: invalid baseline {path}: {e}"))?;
        let fails = gate(&baseline);
        if !fails.is_empty() {
            let fails = fails.join("\n  ");
            return Err(format!(
                "{tag}: FAILED regression gate vs {path}:\n  {fails}"
            ));
        }
        println!("{tag}: OK — within tolerance of {path}");
        Ok(())
    }
}

/// Parse a report and refuse any schema version but `supported`: the
/// vendored deserializer already errors on a missing non-optional field.
fn parse_versioned<R: Deserialize>(
    s: &str,
    supported: u32,
    version: fn(&R) -> u32,
) -> Result<R, String> {
    let r: R = serde_json::from_str(s).map_err(|e| e.to_string())?;
    match version(&r) {
        v if v == supported => Ok(r),
        v => Err(format!("schema_version {v} != supported {supported}")),
    }
}

/// The head of every diff gate: a baseline of another schema version or
/// setup is not comparable, and that is its one failure. `units` names
/// what differing setups make incomparable.
fn header_mismatch<S: PartialEq + Debug>(
    units: &str,
    current: (u32, &S),
    baseline: (u32, &S),
) -> Option<String> {
    if current.0 != baseline.0 {
        return Some(format!(
            "schema_version mismatch: current {} vs baseline {}",
            current.0, baseline.0
        ));
    }
    (current.1 != baseline.1).then(|| {
        format!(
            "setup mismatch ({units} are not comparable): current {:?} vs baseline {:?}",
            current.1, baseline.1
        )
    })
}

/// Stable JSON key for a phase. The match is exhaustive on purpose —
/// adding a `Phase` variant must not compile until the bench schema
/// names it (repo-lint enforces the same textually).
pub fn phase_key(p: Phase) -> &'static str {
    match p {
        Phase::Binning => "Binning",
        Phase::Gradient => "Gradient",
        Phase::Sketch => "Sketch",
        Phase::Histogram => "Histogram",
        Phase::SplitEval => "SplitEval",
        Phase::Partition => "Partition",
        Phase::LeafValue => "LeafValue",
        Phase::Predict => "Predict",
        Phase::Serve => "Serve",
        Phase::Transfer => "Transfer",
        Phase::Comm => "Comm",
        Phase::Idle => "Idle",
        Phase::Other => "Other",
    }
}

/// Stable key for a histogram method (JSON record identity).
pub fn method_key(m: HistogramMethod) -> &'static str {
    match m {
        HistogramMethod::GlobalMemory => "gmem",
        HistogramMethod::SharedMemory => "smem",
        HistogramMethod::SortReduce => "sortreduce",
        HistogramMethod::Adaptive => "adaptive",
    }
}

/// The hyper-parameters a report was produced under (identity of the
/// grid, so baselines can refuse to diff against a different setup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSetup {
    /// Boosted trees per run.
    pub trees: u64,
    /// Maximum tree depth.
    pub depth: u64,
    /// Histogram bins.
    pub bins: u64,
    /// Dataset scale multiplier over `PaperDataset::bench_shape`.
    pub scale: f64,
    /// RNG seed for data generation and training.
    pub seed: u64,
    /// Whether this was the reduced `--smoke` grid.
    pub smoke: bool,
    /// Streams per device (`1` = the serial schedule). Part of setup
    /// identity: a streamed grid's timeline is not comparable to a
    /// serial baseline's.
    pub streams: u64,
}

/// One (dataset, histogram method) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Dataset name (paper's Table 1 naming).
    pub dataset: String,
    /// Histogram method key (see [`method_key`]).
    pub hist_method: String,
    /// Gradient-sketch label (`OutputSketch::label()`): `none`, or
    /// `top{k}` / `rand{k}` / `proj{k}`. Part of record identity.
    pub sketch: String,
    /// Metric name (`accuracy%` or `rmse`).
    pub metric_name: String,
    /// Metric value on the held-out test split.
    pub metric: f64,
    /// Simulated device seconds for the fit.
    pub sim_seconds: f64,
    /// Host wall-clock seconds the simulation took. Informational
    /// only — never gated (host noise must not fail CI).
    pub host_seconds: f64,
    /// Fraction of simulated time in the Histogram phase (Figure 4).
    pub hist_share: f64,
    /// Simulated nanoseconds per phase; every phase key is present
    /// (0.0 when unused) so downstream tooling never key-checks.
    pub phase_ns: BTreeMap<String, f64>,
    /// Number of ledger charges during the fit.
    pub kernel_count: u64,
    /// Simulated nanoseconds recovered by multi-stream overlap (serial
    /// charge sum minus makespan). Exactly `0.0` on a serial schedule.
    /// Informational: reported by [`overlap_notes`], never gated — the
    /// timeline is already covered by `sim_seconds`/`hist_share`.
    pub overlap_saved_ns: f64,
    /// Ledger records shed past the retention limit during the fit
    /// (phase subtotals stay exact). Health counter: surfaced by
    /// [`health_notes`], never gated.
    pub dropped_records: u64,
    /// Charges clamped at the ledger's non-negativity floor during the
    /// fit — each one is a cost-model bug made visible. Health counter:
    /// surfaced by [`health_notes`], never gated.
    pub negative_charges: u64,
}

/// A full schema-versioned benchmark report (`BENCH_repro.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Device the simulated times were modeled on.
    pub device: String,
    /// Grid hyper-parameters.
    pub setup: BenchSetup,
    /// One record per (dataset, histogram method).
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Serialize to the canonical JSON form (insertion-ordered keys in
    /// struct-declaration order; deterministic float formatting).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench floats are finite")
    }

    /// Parse and *validate* a report: strict field presence, the
    /// schema version, and every phase key in every record.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let r = parse_versioned(s, BENCH_SCHEMA_VERSION, |r: &Self| r.schema_version)?;
        for rec in &r.records {
            for p in Phase::ALL {
                if !rec.phase_ns.contains_key(phase_key(p)) {
                    return Err(format!(
                        "record {}/{} is missing phase key `{}`",
                        rec.dataset,
                        rec.hist_method,
                        phase_key(p)
                    ));
                }
            }
        }
        Ok(r)
    }

    /// Write this report and bless or gate it as `to` says; overlap
    /// drift against the baseline is printed, never gated.
    pub fn emit(&self, to: &Output) -> Result<(), String> {
        let what = format!("{} records", self.records.len());
        to.emit("bench", &what, &self.to_json(), Self::from_json, |base| {
            for note in overlap_notes(self, base) {
                println!("bench: note — {note}");
            }
            diff_gate(self, base)
        })
    }

    /// Find a record by (dataset, method, sketch) identity.
    pub fn find(&self, dataset: &str, hist_method: &str, sketch: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.dataset == dataset && r.hist_method == hist_method && r.sketch == sketch)
    }
}

/// Build one record from a fit's ledger delta and test metric.
#[allow(clippy::too_many_arguments)]
pub fn make_record(
    dataset: &str,
    method: HistogramMethod,
    sketch: &str,
    sim: &LedgerSummary,
    host_seconds: f64,
    metric_name: &str,
    metric: f64,
) -> BenchRecord {
    let mut phase_ns = BTreeMap::new();
    for p in Phase::ALL {
        phase_ns.insert(
            phase_key(p).to_string(),
            sim.by_phase.get(&p).copied().unwrap_or(0.0),
        );
    }
    BenchRecord {
        dataset: dataset.to_string(),
        hist_method: method_key(method).to_string(),
        sketch: sketch.to_string(),
        metric_name: metric_name.to_string(),
        metric,
        sim_seconds: sim.total_ns * 1e-9,
        host_seconds,
        hist_share: sim.fraction(Phase::Histogram),
        phase_ns,
        kernel_count: sim.kernel_count,
        overlap_saved_ns: sim.overlap_saved_ns,
        dropped_records: sim.dropped_records,
        negative_charges: sim.negative_charges,
    }
}

/// Ledger health warnings for a run: one line per record with a nonzero
/// `dropped_records` or `negative_charges` counter. Report-never-gate:
/// both conditions deserve a human's eye (lost trace detail; a
/// cost-model expression that went negative) but neither changes the
/// gated quantities, so CI prints them and stays green.
pub fn health_notes(current: &BenchReport) -> Vec<String> {
    let mut notes = Vec::new();
    for r in &current.records {
        let id = format!("{}/{}/{}", r.dataset, r.hist_method, r.sketch);
        if r.dropped_records > 0 {
            notes.push(format!(
                "{id}: ledger shed {} records past its retention limit (subtotals stay exact)",
                r.dropped_records
            ));
        }
        if r.negative_charges > 0 {
            notes.push(format!(
                "{id}: {} charges clamped at the ledger's non-negativity floor (cost-model bug?)",
                r.negative_charges
            ));
        }
    }
    notes
}

/// Informational overlap report for `--check` runs: one line per record
/// whose `overlap_saved_ns` moved against the baseline. Never gates —
/// overlap savings are a start-timestamp rearrangement, not a cost
/// change, so drift here is surfaced for a human and nothing more.
pub fn overlap_notes(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut notes = Vec::new();
    for b in &baseline.records {
        let Some(c) = current.find(&b.dataset, &b.hist_method, &b.sketch) else {
            continue;
        };
        if c.overlap_saved_ns != b.overlap_saved_ns {
            notes.push(format!(
                "{}/{}/{}: overlap_saved_ns {:.0} -> {:.0} (informational)",
                b.dataset, b.hist_method, b.sketch, b.overlap_saved_ns, c.overlap_saved_ns
            ));
        }
    }
    notes
}

/// Compare `current` against `baseline`; returns a list of human-
/// readable failures (empty ⇒ gate passes). Gates only deterministic
/// quantities: simulated time exactly (total, kernel count and every
/// phase), hist-share drift and model quality.
pub fn diff_gate(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    if let Some(f) = header_mismatch(
        "grids",
        (current.schema_version, &current.setup),
        (baseline.schema_version, &baseline.setup),
    ) {
        return vec![f];
    }
    let mut fails = Vec::new();
    for b in &baseline.records {
        let id = format!("{}/{}/{}", b.dataset, b.hist_method, b.sketch);
        let Some(c) = current.find(&b.dataset, &b.hist_method, &b.sketch) else {
            fails.push(format!("{id}: record missing from current run"));
            continue;
        };
        // Simulated time, exactly: every delta is its own line.
        if c.sim_seconds != b.sim_seconds {
            fails.push(format!(
                "{id}: sim_seconds {:e} -> {:e} ({:+e} s)",
                b.sim_seconds,
                c.sim_seconds,
                c.sim_seconds - b.sim_seconds
            ));
        }
        if c.kernel_count != b.kernel_count {
            fails.push(format!(
                "{id}: kernel_count {} -> {} ({:+})",
                b.kernel_count,
                c.kernel_count,
                c.kernel_count as i64 - b.kernel_count as i64
            ));
        }
        // Every report carries every phase key (`make_record` fills
        // them and `from_json` rejects a missing one).
        for (phase, &bn) in &b.phase_ns {
            let cn = c.phase_ns.get(phase).copied().unwrap_or_default();
            if cn != bn {
                fails.push(format!(
                    "{id}: phase_ns[{phase}] {bn} -> {cn} ({:+} ns)",
                    cn - bn
                ));
            }
        }
        // Histogram-share drift, relative to the baseline share.
        if b.hist_share > 0.0 {
            let rel = (c.hist_share - b.hist_share).abs() / b.hist_share;
            if rel > HIST_SHARE_REL_TOL {
                fails.push(format!(
                    "{id}: hist-share drifted {:.1}% ({:.4} -> {:.4}; tol {:.0}%)",
                    100.0 * rel,
                    b.hist_share,
                    c.hist_share,
                    100.0 * HIST_SHARE_REL_TOL
                ));
            }
        }
        // Quality regression (improvements pass).
        if c.metric_name != b.metric_name {
            fails.push(format!(
                "{id}: metric changed from {} to {}",
                b.metric_name, c.metric_name
            ));
            continue;
        }
        let regressed = match b.metric_name.as_str() {
            "accuracy%" => c.metric < b.metric - ACCURACY_ABS_TOL,
            "rmse" => c.metric > b.metric * (1.0 + RMSE_REL_TOL),
            other => {
                fails.push(format!("{id}: unknown metric `{other}` cannot be gated"));
                continue;
            }
        };
        if regressed {
            fails.push(format!(
                "{id}: {} regressed {:.4} -> {:.4}",
                b.metric_name, b.metric, c.metric
            ));
        }
    }
    fails
}

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

    /// Parse and validate: strict field presence, the schema version,
    /// and known mode and predict keys.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let r = parse_versioned(s, SERVE_SCHEMA_VERSION, |r: &Self| r.schema_version)?;
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

    /// Write this report and bless or gate it as `to` says.
    pub fn emit(&self, to: &Output) -> Result<(), String> {
        let what = format!("{} records", self.records.len());
        to.emit("serve", &what, &self.to_json(), Self::from_json, |base| {
            serve_diff_gate(self, base)
        })
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
    if let Some(f) = header_mismatch(
        "runs",
        (current.schema_version, &current.setup),
        (baseline.schema_version, &baseline.setup),
    ) {
        return vec![f];
    }
    let mut fails = Vec::new();
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

    fn setup() -> BenchSetup {
        BenchSetup {
            trees: 3,
            depth: 4,
            bins: 32,
            scale: 0.25,
            seed: 42,
            smoke: true,
            streams: 1,
        }
    }

    fn rec(dataset: &str, method: &str, metric_name: &str, metric: f64, share: f64) -> BenchRecord {
        let mut phase_ns = BTreeMap::new();
        for p in Phase::ALL {
            phase_ns.insert(phase_key(p).to_string(), 0.0);
        }
        phase_ns.insert("Histogram".to_string(), share * 1e6);
        BenchRecord {
            dataset: dataset.to_string(),
            hist_method: method.to_string(),
            sketch: "none".to_string(),
            metric_name: metric_name.to_string(),
            metric,
            sim_seconds: 1e-3,
            host_seconds: 0.5,
            hist_share: share,
            phase_ns,
            kernel_count: 10,
            overlap_saved_ns: 0.0,
            dropped_records: 0,
            negative_charges: 0,
        }
    }

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            device: "SimRTX4090".to_string(),
            setup: setup(),
            records,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let back = BenchReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back.schema_version, r.schema_version);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].dataset, "mnist");
        assert_eq!(back.records[0].metric, 90.0);
        assert_eq!(back.records[0].phase_ns.len(), Phase::ALL.len());
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let mut r = report(vec![]);
        r.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_phase_key() {
        let mut record = rec("mnist", "gmem", "rmse", 1.0, 0.5);
        record.phase_ns.remove("Comm");
        let r = report(vec![record]);
        let err = BenchReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("Comm"), "{err}");
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = report(vec![
            rec("mnist", "gmem", "accuracy%", 90.0, 0.7),
            rec("rf1", "adaptive", "rmse", 0.5, 0.6),
        ]);
        assert!(diff_gate(&r, &r).is_empty());
    }

    #[test]
    fn gate_fails_on_any_simulated_ns_change() {
        let base = report(vec![
            rec("mnist", "gmem", "accuracy%", 90.0, 0.7),
            rec("rf1", "adaptive", "rmse", 0.5, 0.6),
        ]);
        // One nanosecond more in one phase of one record fails, and the
        // line names the record, the phase and the delta.
        let mut moved = base.clone();
        *moved.records[1].phase_ns.get_mut("SplitEval").unwrap() += 1.0;
        let fails = diff_gate(&moved, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("rf1/adaptive/none"), "{fails:?}");
        assert!(
            fails[0].contains("phase_ns[SplitEval] 0 -> 1 (+1 ns)"),
            "{fails:?}"
        );
        // Total time and kernel count are gated exactly too, and every
        // delta is reported on its own line.
        moved.records[0].sim_seconds += 1e-12;
        moved.records[0].kernel_count -= 1;
        let fails = diff_gate(&moved, &base);
        assert_eq!(fails.len(), 3, "{fails:?}");
        assert!(fails[0].contains("sim_seconds"), "{fails:?}");
        assert!(fails[1].contains("kernel_count 10 -> 9 (-1)"), "{fails:?}");
    }

    #[test]
    fn gate_fails_on_hist_share_drift_beyond_tolerance() {
        // Only the share moves here, so the exact simulated-ns rule
        // stays quiet and the tolerance is what is tested.
        let with_share = |share| {
            let mut r = rec("mnist", "gmem", "accuracy%", 90.0, 0.70);
            r.hist_share = share;
            report(vec![r])
        };
        let base = with_share(0.70);
        // 8.6% drift passes…
        assert!(diff_gate(&with_share(0.64), &base).is_empty());
        // …12.9% drift fails, in either direction.
        let fails = diff_gate(&with_share(0.79), &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("hist-share"), "{fails:?}");
        assert!(!diff_gate(&with_share(0.61), &base).is_empty());
    }

    #[test]
    fn gate_fails_on_quality_regression_only() {
        let base = report(vec![
            rec("mnist", "gmem", "accuracy%", 90.0, 0.7),
            rec("rf1", "gmem", "rmse", 1.0, 0.7),
        ]);
        // Improvements pass.
        let better = report(vec![
            rec("mnist", "gmem", "accuracy%", 95.0, 0.7),
            rec("rf1", "gmem", "rmse", 0.9, 0.7),
        ]);
        assert!(diff_gate(&better, &base).is_empty());
        // Small wiggle inside tolerance passes.
        let wiggle = report(vec![
            rec("mnist", "gmem", "accuracy%", 89.5, 0.7),
            rec("rf1", "gmem", "rmse", 1.02, 0.7),
        ]);
        assert!(diff_gate(&wiggle, &base).is_empty());
        // Beyond tolerance fails.
        let worse = report(vec![
            rec("mnist", "gmem", "accuracy%", 88.0, 0.7),
            rec("rf1", "gmem", "rmse", 1.2, 0.7),
        ]);
        let fails = diff_gate(&worse, &base);
        assert_eq!(fails.len(), 2, "{fails:?}");
    }

    #[test]
    fn gate_fails_on_missing_record_and_setup_mismatch() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let empty = report(vec![]);
        assert_eq!(diff_gate(&empty, &base).len(), 1);
        let mut other = base.clone();
        other.setup.trees = 99;
        assert!(diff_gate(&other, &base)[0].contains("setup"));
    }

    #[test]
    fn sketch_is_part_of_record_identity() {
        let mut sketched = rec("mnist", "gmem", "accuracy%", 90.0, 0.7);
        sketched.sketch = "top4".to_string();
        let r = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7), sketched]);
        assert!(r.find("mnist", "gmem", "none").is_some());
        assert!(r.find("mnist", "gmem", "top4").is_some());
        assert!(r.find("mnist", "gmem", "proj4").is_none());
        // A baseline sketched record missing from current fails the gate
        // with the sketch label in the message.
        let current = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let fails = diff_gate(&current, &r);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("top4"), "{fails:?}");
    }

    #[test]
    fn make_record_fills_every_phase_key() {
        let mut sim = LedgerSummary {
            total_ns: 100.0,
            kernel_count: 7,
            ..Default::default()
        };
        sim.by_phase.insert(Phase::Histogram, 80.0);
        sim.by_phase.insert(Phase::SplitEval, 20.0);
        let r = make_record(
            "mnist",
            HistogramMethod::Adaptive,
            "top4",
            &sim,
            0.1,
            "accuracy%",
            91.0,
        );
        assert_eq!(r.hist_method, "adaptive");
        assert_eq!(r.sketch, "top4");
        assert_eq!(r.phase_ns.len(), Phase::ALL.len());
        assert_eq!(r.phase_ns["Histogram"], 80.0);
        assert_eq!(r.phase_ns["Comm"], 0.0);
        assert!((r.hist_share - 0.8).abs() < 1e-12);
        assert_eq!(r.kernel_count, 7);
    }

    #[test]
    fn make_record_carries_overlap_savings() {
        let sim = LedgerSummary {
            total_ns: 100.0,
            overlap_saved_ns: 37.5,
            ..Default::default()
        };
        let r = make_record(
            "mnist",
            HistogramMethod::Adaptive,
            "none",
            &sim,
            0.1,
            "accuracy%",
            91.0,
        );
        assert_eq!(r.overlap_saved_ns, 37.5);
    }

    #[test]
    fn health_counters_are_reported_but_never_gated() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let mut sick = base.clone();
        sick.records[0].dropped_records = 3;
        sick.records[0].negative_charges = 1;
        // The gate stays green against a clean baseline…
        assert!(diff_gate(&sick, &base).is_empty());
        // …while the health channel names both counters.
        let notes = health_notes(&sick);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].contains("shed 3 records"), "{notes:?}");
        assert!(notes[1].contains("clamped"), "{notes:?}");
        // A healthy run stays silent.
        assert!(health_notes(&base).is_empty());
        // The counters survive the JSON round-trip.
        let back = BenchReport::from_json(&sick.to_json()).expect("roundtrip");
        assert_eq!(back.records[0].dropped_records, 3);
        assert_eq!(back.records[0].negative_charges, 1);
    }

    #[test]
    fn overlap_drift_is_reported_but_never_gated() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let mut moved = base.clone();
        moved.records[0].overlap_saved_ns = 4.2e6;
        // The gate stays green…
        assert!(diff_gate(&moved, &base).is_empty());
        // …while the informational channel names the drift.
        let notes = overlap_notes(&moved, &base);
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("overlap_saved_ns"), "{notes:?}");
        // No drift, no note.
        assert!(overlap_notes(&base, &base).is_empty());
    }
}

#[cfg(test)]
mod serve_tests {
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
