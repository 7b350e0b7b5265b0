//! Serving: one open-loop pass of requests through a `BatchServer` on a
//! freshly uploaded ensemble, and the latency-limit evaluation built
//! from such passes.

use crate::load::{capacity_search, Request};
use crate::report::Tally;
use crate::stats;
use crate::trace::Recorder;
use gbdt_core::{
    BatchConfig, BatchServer, CompiledEnsemble, DeviceEnsemble, PredictMode, ServedBatch,
};
use gbdt_data::Dataset;
use gpusim::{Device, Phase};
use std::time::Instant;

/// The micro-batching policy under test.
pub const BATCH: BatchConfig = BatchConfig {
    max_batch: 256,
    max_delay_ns: 20_000.0,
    mode: PredictMode::InstanceLevel,
};

/// Latency limit on the p99, simulated ns.
pub const P99_LIMIT_NS: f64 = 50_000.0;

/// The two fixed offered rates, rows per simulated second: one where
/// batches close on the deadline, one where they close full.
pub const RATE_DEADLINE_BOUND: f64 = 8e6;
pub const RATE_SIZE_BOUND: f64 = 64e6;

/// Capacity search range and resolution.
const CAPACITY_RANGE: (f64, f64) = (1e6, 1e9);
const CAPACITY_RESOLUTION: f64 = 0.0025;

/// What the model must answer: the held-out rows and `Model::predict`'s
/// scores for them, which every served row is compared against.
pub struct Oracle<'a> {
    pub compiled: &'a CompiledEnsemble,
    pub rows: &'a Dataset,
    pub expected: &'a [f32],
}

/// Outcome of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Per-request latency from its due time, simulated ns.
    pub latencies: Vec<f64>,
    /// Host ns spent in `submit`/`flush`.
    pub host_ns: f64,
    /// Simulated ns of the pass booked to serving kernels and to idling.
    pub serve_ns: f64,
    pub idle_ns: f64,
    /// Simulated ns of the ensemble upload.
    pub upload_ns: f64,
    pub resident_bytes: usize,
    pub batches: usize,
    /// Host ns of each `submit` that only enqueued, and of each call
    /// that flushed a batch (traced passes only).
    pub enqueue_ns: Vec<f64>,
    pub flush_ns: Vec<f64>,
}

impl Pass {
    /// Mean rows per flushed batch over the batch limit.
    pub fn batch_fill(&self) -> f64 {
        self.latencies.len() as f64 / (self.batches as f64 * BATCH.max_batch as f64)
    }

    /// Met the latency limit without a growing backlog: p99 within
    /// [`P99_LIMIT_NS`] and the last tenth of requests waiting at most
    /// twice as long on average as the first tenth.
    pub fn meets_limit(&self) -> bool {
        let n = self.latencies.len();
        let tenth = (n / 10).max(1);
        let first = stats::mean(&self.latencies[..tenth]);
        let last = stats::mean(&self.latencies[n - tenth..]);
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        stats::nearest_rank(&sorted, 0.99) <= P99_LIMIT_NS && last <= 2.0 * first
    }
}

/// Serve `requests` at `rate` rows/s on a fresh device. Every served
/// row is checked bit for bit against the oracle. With `rec`, the upload
/// and every `submit`/`flush` call get a span.
pub fn pass(
    oracle: &Oracle<'_>,
    requests: &[Request],
    rate: f64,
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
) -> Pass {
    let device = Device::rtx4090();
    let upload = || DeviceEnsemble::upload(device.clone(), oracle.compiled);
    let ens = match rec.as_deref_mut() {
        Some(r) => r.span("serve.upload", |_| upload()).0,
        None => upload(),
    };
    let upload_ns = device.now_ns();
    let resident_bytes = ens.resident_bytes();
    let mut server = BatchServer::new(ens, BATCH).expect("the batching policy is valid");

    let features = oracle.rows.features();
    let t0 = device.now_ns();
    let arrivals: Vec<f64> = requests.iter().map(|r| t0 + r.due * 1e9 / rate).collect();
    let before = device.summary();
    let mut served: Vec<ServedBatch> = Vec::new();
    let (mut enqueue_ns, mut flush_ns) = (Vec::new(), Vec::new());
    let host = Instant::now();
    for (request, &at) in requests.iter().zip(&arrivals) {
        let row = features.row(request.row);
        match rec.as_deref_mut() {
            None => served.extend(server.submit(at, row)),
            Some(r) => {
                let id = r.begin("serve.enqueue");
                let out = server.submit(at, row);
                let ns = r.end(id) as f64;
                if out.is_empty() {
                    enqueue_ns.push(ns);
                } else {
                    r.rename(id, "serve.flush");
                    flush_ns.push(ns);
                }
                served.extend(out);
            }
        }
    }
    match rec {
        None => served.extend(server.flush()),
        Some(r) => {
            let (out, ns) = r.span("serve.flush", |_| server.flush());
            flush_ns.push(ns as f64);
            served.extend(out);
        }
    }
    let host_ns = host.elapsed().as_nanos() as f64;
    let booked = device.summary().since(&before);

    let d = oracle.compiled.d();
    let mut latencies = vec![f64::NAN; arrivals.len()];
    let mut wrong = 0u64;
    for batch in &served {
        for r in 0..batch.rows {
            let id = batch.first_id as usize + r;
            latencies[id] = batch.completed_ns - arrivals[id];
            let want = &oracle.expected[requests[id].row * d..][..d];
            let got = &batch.scores[r * d..][..d];
            if want
                .iter()
                .zip(got)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                wrong += 1;
            }
        }
    }
    let unserved = latencies.iter().filter(|l| l.is_nan()).count() as u64;
    tally.add(arrivals.len() as u64, wrong + unserved, || {
        format!(
            "serving at {rate:e} rows/s: {wrong} rows differ from Model::predict, {unserved} unserved"
        )
    });
    let stats = server.stats();
    tally.check(
        stats.served == arrivals.len() as u64 && stats.batches == served.len() as u64,
        || format!("BatchServer::stats disagrees with the served batches: {stats:?}"),
    );

    Pass {
        latencies,
        host_ns,
        serve_ns: booked.by_phase.get(&Phase::Serve).copied().unwrap_or(0.0),
        idle_ns: booked.by_phase.get(&Phase::Idle).copied().unwrap_or(0.0),
        upload_ns,
        resident_bytes,
        batches: served.len(),
        enqueue_ns,
        flush_ns,
    }
}

/// Latency-limit evaluation of one model.
pub struct Slo {
    pub capacity_rps: f64,
    pub deadline_bound: Pass,
    pub size_bound: Pass,
}

/// Serve `requests` at each fixed rate, then search for the highest
/// rate that meets the latency limit.
pub fn evaluate(oracle: &Oracle<'_>, requests: &[Request], tally: &mut Tally) -> Slo {
    let deadline_bound = pass(oracle, requests, RATE_DEADLINE_BOUND, tally, None);
    let size_bound = pass(oracle, requests, RATE_SIZE_BOUND, tally, None);
    let (lo, hi) = CAPACITY_RANGE;
    let capacity = capacity_search(lo, hi, CAPACITY_RESOLUTION, |rate| {
        pass(oracle, requests, rate, tally, None).meets_limit()
    });
    tally.check(capacity.is_some(), || {
        format!("even {lo:e} rows/s misses the p99 limit of {P99_LIMIT_NS} ns")
    });
    Slo {
        capacity_rps: capacity.unwrap_or(f64::NAN),
        deadline_bound,
        size_bound,
    }
}
