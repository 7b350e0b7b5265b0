//! The four workloads, their fixed shapes, and what one run of each
//! measures: end-to-end metrics untraced, per-layer metrics traced.

use crate::fit::{fit, replay, trees_bit_identical, Placement, ReplayTimes};
use crate::load::poisson_requests;
use crate::report::{Report, Tally};
use crate::serve::{self, Oracle, Pass, RATE_SIZE_BOUND};
use crate::speed::Speed;
use crate::stats;
use crate::trace::Recorder;
use gbdt_core::loss::loss_for_task;
use gbdt_core::{rmse, DeviceEnsemble, HistogramMethod, Model, TrainConfig, TrainReport};
use gbdt_data::split::split_indices;
use gbdt_data::synth::{make_regression, RegressionSpec};
use gbdt_data::{Dataset, PaperDataset, Task};
use gpusim::{Device, Phase, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainWide,
    TrainDeep,
    TrainDp2,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainWide,
        Workload::TrainDeep,
        Workload::TrainDp2,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainWide => "train-wide",
            Workload::TrainDeep => "train-deep",
            Workload::TrainDp2 => "train-dp2",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size a run uses. Fixed in the binary, not settable from the
/// command line, so every run of a workload does the same work.
pub struct Shape {
    /// NUS-WIDE stand-in: instance scale, feature cap, output cap.
    pub wide: (f64, usize, usize),
    /// Tall regression: rows, features, outputs, informative features.
    pub deep: (usize, usize, usize, usize),
    /// `(trees, depth)` of the wide, deep and serving fits.
    pub wide_fit: (usize, usize),
    pub deep_fit: (usize, usize),
    pub serve_fit: (usize, usize),
    pub bins: usize,
    /// Rows of the wide training split that serve-open's model learns.
    pub serve_train_rows: usize,
    /// Requests per offered rate.
    pub requests: usize,
    /// Requests in the traced serving pass, every call spanned.
    pub traced_requests: usize,
    /// Set-ups per untraced run; `setup_s` is their median. A fixed
    /// count, so that the run's peak memory does not depend on its speed.
    pub setup_reps: usize,
}

impl Shape {
    pub const BENCH: Shape = Shape {
        wide: (0.12, 64, 40),
        deep: (60_000, 16, 4, 8),
        wide_fit: (6, 6),
        deep_fit: (10, 10),
        serve_fit: (10, 6),
        bins: 64,
        serve_train_rows: 4_000,
        requests: 200_000,
        traced_requests: 20_000,
        setup_reps: 5,
    };

    /// A shape small enough for unit tests to run every workload.
    #[cfg(test)]
    pub const TINY: Shape = Shape {
        wide: (0.005, 16, 6),
        deep: (2_000, 8, 3, 4),
        wide_fit: (3, 3),
        deep_fit: (3, 4),
        serve_fit: (3, 3),
        bins: 16,
        serve_train_rows: 400,
        requests: 2_000,
        traced_requests: 300,
        setup_reps: 2,
    };
}

/// Fewest timed operations per run, however short `--seconds` is.
const MIN_TIMED: usize = 3;

/// The model must beat the per-output train mean by this much
/// (`1 − rmse/rmse_trivial`) on the held-out split.
const MIN_QUALITY_GAIN: f64 = 0.05;

/// Salt separating the arrival schedule's seed from the data's.
const ARRIVAL_SALT: u64 = 0xA11_1CE5;

/// Each dataset and its train/held-out split are fixed, as a real
/// dataset would be; `--seed` draws the order of the rows and the
/// serving arrivals.
const PROBLEM_SEED: u64 = 2025;

/// Host threads the library runs on. Two threads on a shared 2-vCPU
/// machine made host times several times noisier from run to run than
/// any regression bound the benchmark could keep (see README.md).
pub const HOST_THREADS: usize = 1;

fn train_config(trees: usize, depth: usize, bins: usize) -> TrainConfig {
    TrainConfig {
        num_trees: trees,
        max_depth: depth,
        max_bins: bins,
        min_instances: 20,
        learning_rate: 1.0,
        ..TrainConfig::default()
    }
}

/// What set-up hands to the measured part of a run.
struct Inputs {
    /// The data the workload's fit trains on.
    train: Dataset,
    /// Held-out rows: scored for quality and sent as serving requests.
    test: Dataset,
    config: TrainConfig,
    placement: Placement,
    /// serve-open's model, trained, compiled and uploaded at set-up.
    model: Option<Model>,
}

fn set_up(w: Workload, shape: &Shape, seed: u64) -> Result<Inputs, String> {
    let (data, (trees, depth)) = match w {
        Workload::TrainDeep => {
            let (rows, features, outputs, informative) = shape.deep;
            let data = make_regression(&RegressionSpec {
                instances: rows,
                features,
                outputs,
                informative,
                noise: 0.1,
                nonlinear: true,
                seed: PROBLEM_SEED,
                ..Default::default()
            });
            (data, shape.deep_fit)
        }
        Workload::TrainWide | Workload::TrainDp2 | Workload::ServeOpen => {
            let (scale, m, d) = shape.wide;
            let data = PaperDataset::NusWide.generate(scale, m, d, PROBLEM_SEED);
            let fit = if w == Workload::ServeOpen {
                shape.serve_fit
            } else {
                shape.wide_fit
            };
            (data, fit)
        }
    };
    let (mut train, test) = data.split(0.2, PROBLEM_SEED);
    if w == Workload::ServeOpen {
        let rows: Vec<usize> = (0..shape.serve_train_rows.min(train.n())).collect();
        train = train.subset(&rows);
    }
    let reorder = |ds: &Dataset| ds.subset(&split_indices(ds.n(), 0.0, seed).0);
    let mut inputs = Inputs {
        train: reorder(&train),
        test: reorder(&test),
        config: train_config(trees, depth, shape.bins),
        placement: if w == Workload::TrainDp2 {
            Placement::DataParallel2
        } else {
            Placement::Single
        },
        model: None,
    };
    if w == Workload::ServeOpen {
        let report = fit(&inputs.train, &inputs.config, Placement::Single, None)?;
        DeviceEnsemble::upload(Device::rtx4090(), &report.model.compile());
        inputs.model = Some(report.model);
    }
    Ok(inputs)
}

/// `1 − rmse/rmse_trivial` on the held-out split, where the trivial
/// predictor is the per-output mean of the training targets. Scores are
/// compared in target space (probabilities for label tasks).
fn quality_gain(train: &Dataset, test: &Dataset, raw_scores: &[f32]) -> f64 {
    let d = test.d();
    let mut predictions = raw_scores.to_vec();
    if test.task() != Task::MultiRegression {
        let loss = loss_for_task(test.task());
        predictions
            .chunks_mut(d)
            .for_each(|row| loss.transform_row(row));
    }
    let mut mean = vec![0.0f64; d];
    for i in 0..train.n() {
        for (acc, &t) in mean.iter_mut().zip(train.target_row(i)) {
            *acc += f64::from(t);
        }
    }
    let trivial: Vec<f32> = mean
        .iter()
        .map(|s| (s / train.n() as f64) as f32)
        .cycle()
        .take(test.n() * d)
        .collect();
    1.0 - rmse(&predictions, test.targets()) / rmse(&trivial, test.targets())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One run's result; `trace` holds the spans of a traced run.
pub struct Run {
    pub report: Report,
    pub trace: Option<Recorder>,
}

/// Run workload `w` once: untraced, it reports the end-to-end metrics;
/// traced, the per-layer metrics. `seconds` is how long the repeated,
/// timed part lasts (at least [`MIN_TIMED`] operations).
pub fn run(w: Workload, shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Run {
    rayon::ThreadPoolBuilder::new()
        .num_threads(HOST_THREADS)
        .build()
        .expect("a one-thread pool always builds")
        .install(|| run_on_pool(w, shape, seed, seconds, traced))
}

fn run_on_pool(w: Workload, shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Run {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut report = Report::default();
    let trace = if traced {
        let mut rec = Recorder::new(format!("{}-{seed}-{}", w.name(), std::process::id()));
        per_layer(w, shape, seed, budget, &mut report, &mut rec);
        Some(rec)
    } else {
        end_to_end(w, shape, seed, budget, &mut report);
        None
    };
    Run { report, trace }
}

/// Fit once, counting the attempt; `None` (with the failure recorded)
/// when the trainer returns an error.
fn counted_fit(
    inputs: &Inputs,
    tel: Option<&Arc<Telemetry>>,
    tally: &mut Tally,
) -> Option<TrainReport> {
    match fit(&inputs.train, &inputs.config, inputs.placement, tel) {
        Ok(report) => {
            tally.check(true, String::new);
            Some(report)
        }
        Err(e) => {
            tally.check(false, || e);
            None
        }
    }
}

/// Count a check that `trees` equal `reference`'s bit for bit.
fn check_same_fit(tally: &mut Tally, what: &str, trees: &[gbdt_core::Tree], reference: &Model) {
    tally.check(trees_bit_identical(trees, &reference.trees), || {
        format!("{what}: trees differ bit-for-bit from the reference fit")
    });
}

fn end_to_end(w: Workload, shape: &Shape, seed: u64, budget: Duration, report: &mut Report) {
    let mut speed = Speed::default();
    let mut setup_s = Vec::with_capacity(shape.setup_reps);
    let mut inputs = None;
    for _ in 0..shape.setup_reps.max(1) {
        let t = Instant::now();
        let made = set_up(w, shape, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        speed.sample_after(t.elapsed());
        match made {
            Ok(i) => {
                report.tally.check(true, String::new);
                inputs = Some(i);
            }
            Err(e) => return report.tally.check(false, || format!("set-up failed: {e}")),
        }
    }
    let inputs = inputs.expect("at least one set-up ran");
    let tally = &mut report.tally;

    // The model this workload serves: serve-open's set-up model, or the
    // warm-up fit's, which every timed fit must reproduce exactly.
    let warm = match inputs.model {
        Some(_) => None,
        None => match counted_fit(&inputs, None, tally) {
            Some(r) => Some(r),
            None => return,
        },
    };
    let model = inputs
        .model
        .as_ref()
        .or(warm.as_ref().map(|r| &r.model))
        .expect("set-up or the warm-up fit produced a model");
    let compiled = model.compile();
    let expected = model.predict(inputs.test.features());
    let oracle = Oracle {
        compiled: &compiled,
        rows: &inputs.test,
        expected: &expected,
    };
    let requests = poisson_requests(shape.requests, inputs.test.n(), seed ^ ARRIVAL_SALT);

    let start = Instant::now();
    let (mut host_s, mut sim_s) = (Vec::new(), Vec::new());
    if let Some(warm) = &warm {
        let mut attempts = 0;
        while attempts < MIN_TIMED || start.elapsed() < budget {
            attempts += 1;
            let t = Instant::now();
            let Some(r) = counted_fit(&inputs, None, tally) else {
                continue;
            };
            host_s.push(t.elapsed().as_secs_f64());
            speed.sample_after(t.elapsed());
            sim_s.push(r.sim_seconds);
            check_same_fit(tally, "timed fit", &r.model.trees, &warm.model);
            tally.check(
                r.sim.total_ns.to_bits() == warm.sim.total_ns.to_bits(),
                || "timed fit booked a different simulated time than the warm-up".into(),
            );
        }
    } else {
        // serve-open: the timed operation is one pass of the size-bound
        // stream on a fresh upload, after one warm-up pass.
        let reference = serve::pass(&oracle, &requests, RATE_SIZE_BOUND, tally, None);
        while host_s.len() < MIN_TIMED || start.elapsed() < budget {
            let p = serve::pass(&oracle, &requests, RATE_SIZE_BOUND, tally, None);
            host_s.push(p.host_ns * 1e-9);
            speed.sample_after(Duration::from_secs_f64(p.host_ns * 1e-9));
            sim_s.push(p.serve_ns * 1e-9);
            tally.check(
                p.latencies == reference.latencies && p.serve_ns == reference.serve_ns,
                || "a serving pass differs on the simulated clock from the warm-up pass".into(),
            );
        }
    }

    let quality = quality_gain(&inputs.train, &inputs.test, &expected);
    tally.check(quality >= MIN_QUALITY_GAIN, || {
        format!("quality_gain {quality:.4} is below {MIN_QUALITY_GAIN}")
    });
    let slo = serve::evaluate(&oracle, &requests, tally);

    // Host times in reference seconds (see `speed`); the raw wall-clock
    // medians go to stderr.
    let factor = speed.factor();
    eprintln!(
        "benchmark: host speed factor {factor:.4} from {} calibration loops; \
         wall-clock host_s median {:.6} s, setup_s median {:.6} s",
        speed.samples(),
        stats::median(&host_s),
        stats::median(&setup_s),
    );
    let in_reference_s = |v: &[f64]| v.iter().map(|s| s * factor).collect::<Vec<f64>>();
    report.min_of("host_s", "s", &in_reference_s(&host_s));
    report.median_of("sim_s", "s", &sim_s);
    report.single("quality_gain", "ratio", quality);
    report.median_of("setup_s", "s", &in_reference_s(&setup_s));
    report.single("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(f64::NAN));
    report.single("serve_capacity_rps", "rows/s", slo.capacity_rps);
    latency(report, "serve_p99_ns_8M", &slo.deadline_bound, 0.99);
    latency(report, "serve_p50_ns_64M", &slo.size_bound, 0.5);
    latency(report, "serve_p99_ns_64M", &slo.size_bound, 0.99);
}

fn latency(report: &mut Report, name: &'static str, pass: &Pass, q: f64) {
    let sorted = stats::sorted(&pass.latencies);
    report.push(
        name,
        "ns",
        stats::nearest_rank(&sorted, q),
        sorted.len(),
        stats::tail_summary(&sorted),
    );
}

fn per_layer(
    w: Workload,
    shape: &Shape,
    seed: u64,
    budget: Duration,
    report: &mut Report,
    rec: &mut Recorder,
) {
    let inputs = match set_up(w, shape, seed) {
        Ok(i) => i,
        Err(e) => return report.tally.check(false, || format!("set-up failed: {e}")),
    };
    let tally = &mut report.tally;
    // Simulated-clock values come from this untraced fit's own report.
    let Some(reference) = counted_fit(&inputs, None, tally) else {
        return;
    };
    if let Some(m) = &inputs.model {
        check_same_fit(tally, "serve-open set-up fit", &m.trees, &reference.model);
    }

    let start = Instant::now();
    let mut untraced_ns = Vec::new();
    let mut replays: Vec<ReplayTimes> = Vec::new();
    while replays.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let Some(r) = counted_fit(&inputs, None, tally) else {
            return;
        };
        untraced_ns.push(t.elapsed().as_nanos() as f64);
        check_same_fit(tally, "untraced fit", &r.model.trees, &reference.model);
        let (trees, times) = replay(rec, &inputs.train, &inputs.config);
        check_same_fit(tally, "traced replay", &trees, &reference.model);
        replays.push(times);
    }

    let tel = Arc::new(Telemetry::new());
    let (observed, _) = rec.span("trainer.fit_report", |_| {
        counted_fit(&inputs, Some(&tel), tally)
    });
    let Some(observed) = observed else {
        return;
    };
    check_same_fit(
        tally,
        "telemetry-attached fit",
        &observed.model.trees,
        &reference.model,
    );
    let collective_bytes = tel
        .snapshot()
        .counters
        .get("multigpu.collective_bytes")
        .copied()
        .unwrap_or(0) as f64;

    let model = &reference.model;
    let (compiled, compile_ns) = rec.span("compiled.compile", |_| model.compile());
    let expected = model.predict(inputs.test.features());
    let oracle = Oracle {
        compiled: &compiled,
        rows: &inputs.test,
        expected: &expected,
    };
    let requests = poisson_requests(shape.requests, inputs.test.n(), seed ^ ARRIVAL_SALT);
    let served = serve::pass(&oracle, &requests, RATE_SIZE_BOUND, tally, None);
    let traced_requests = &requests[..shape.traced_requests.min(requests.len())];
    let traced = serve::pass(&oracle, traced_requests, RATE_SIZE_BOUND, tally, Some(rec));

    let sim = &reference.sim;
    let phase_ms = |p: Phase| sim.by_phase.get(&p).copied().unwrap_or(0.0) / 1e6;
    let each = |f: fn(&ReplayTimes) -> f64| replays.iter().map(f).collect::<Vec<f64>>();
    let every = |f: fn(&ReplayTimes) -> &Vec<f64>, scale: f64| {
        replays
            .iter()
            .flat_map(|t| f(t).iter().map(move |v| v * scale))
            .collect::<Vec<f64>>()
    };
    let cells = (inputs.train.n() * inputs.train.m() * inputs.train.d()) as f64;
    let r = report;

    r.single("hist.sim_ms", "ms", phase_ms(Phase::Histogram));
    r.single("hist.share", "ratio", reference.histogram_fraction());
    for (name, method) in [
        ("hist.nodes_gmem", HistogramMethod::GlobalMemory),
        ("hist.nodes_smem", HistogramMethod::SharedMemory),
        ("hist.nodes_sortreduce", HistogramMethod::SortReduce),
    ] {
        let nodes = reference.hist_methods.get(&method).copied().unwrap_or(0);
        r.single(name, "count", nodes as f64);
    }
    r.median_of(
        "hist.root_accumulate_host_ms",
        "ms",
        &every(|t| &t.root_accumulate_ns, 1e-6),
    );
    r.median_of(
        "hist.root_ns_per_cell",
        "ns",
        &every(|t| &t.root_accumulate_ns, 1.0 / cells),
    );
    r.median_of(
        "hist.root_select_host_us",
        "us",
        &every(|t| &t.root_select_ns, 1e-3),
    );
    r.median_of(
        "hist.root_charge_host_us",
        "us",
        &every(|t| &t.root_charge_ns, 1e-3),
    );
    r.median_of(
        "hist.root_pred_over_charged",
        "ratio",
        &every(|t| &t.root_pred_over_charged, 1.0),
    );
    r.single("split.sim_ms", "ms", phase_ms(Phase::SplitEval));
    r.median_of(
        "split.root_host_us",
        "us",
        &every(|t| &t.root_split_ns, 1e-3),
    );
    r.median_of("grow.host_ms", "ms", &each(|t| t.grow_ns * 1e-6));
    r.single("grow.partition_sim_ms", "ms", phase_ms(Phase::Partition));
    let nodes: usize = model.trees.iter().map(gbdt_core::Tree::num_nodes).sum();
    r.single("grow.nodes", "count", nodes as f64);
    r.median_of("grad.host_ms", "ms", &each(|t| t.grad_ns * 1e-6));
    r.single("grad.sim_ms", "ms", phase_ms(Phase::Gradient));
    r.median_of(
        "predict.update_host_ms",
        "ms",
        &each(|t| t.update_ns * 1e-6),
    );
    r.single("predict.sim_ms", "ms", phase_ms(Phase::Predict));
    r.median_of("data.bin_host_ms", "ms", &each(|t| t.bin_ns * 1e-6));
    r.single(
        "data.ingest_sim_ms",
        "ms",
        phase_ms(Phase::Binning) + phase_ms(Phase::Transfer),
    );
    r.single("gpusim.charges", "count", sim.kernel_count as f64);
    r.single(
        "gpusim.overlap_share",
        "ratio",
        sim.overlap_saved_ns / (sim.total_ns + sim.overlap_saved_ns),
    );
    r.single("multigpu.comm_share", "ratio", sim.fraction(Phase::Comm));
    r.single("multigpu.collective_bytes", "bytes", collective_bytes);
    r.single("compiled.compile_host_ms", "ms", compile_ns as f64 * 1e-6);
    r.single("serve.upload_sim_us", "us", served.upload_ns * 1e-3);
    r.single(
        "serve.resident_bytes",
        "bytes",
        served.resident_bytes as f64,
    );
    r.single("serve.kernel_sim_ms", "ms", served.serve_ns * 1e-6);
    r.single("serve.idle_sim_ms", "ms", served.idle_ns * 1e-6);
    r.single("serve.batches", "count", served.batches as f64);
    r.single("serve.batch_fill", "ratio", served.batch_fill());
    r.median_of("serve.enqueue_host_ns", "ns", &traced.enqueue_ns);
    let flush_us: Vec<f64> = traced.flush_ns.iter().map(|ns| ns * 1e-3).collect();
    r.median_of("serve.flush_host_us", "us", &flush_us);
    r.single(
        "trace.overhead_frac",
        "ratio",
        stats::median(&each(|t| t.total_ns)) / stats::median(&untraced_ns) - 1.0,
    );
}
