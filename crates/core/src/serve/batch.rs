//! Micro-batching front end for a [`DeviceEnsemble`].
//!
//! Serving traffic arrives one row at a time; launching a traversal
//! kernel per row pays the fixed launch overhead (~1.2 µs on the
//! modeled RTX 4090) per instance, which caps single-row throughput far
//! below the device's streaming rate. [`BatchServer`] accumulates
//! submissions and flushes one batched kernel when either trigger
//! fires:
//!
//! * **size** — the pending batch reaches [`BatchConfig::max_batch`];
//! * **deadline** — a new arrival finds the oldest pending request has
//!   waited [`BatchConfig::max_delay_ns`]; the flush is stamped at the
//!   deadline itself (the server would have acted then), *before* the
//!   new arrival is enqueued.
//!
//! Time is the device's simulated clock: flushing advances the clock to
//! the trigger instant (booking idle time if the device was ahead of
//! it), runs the charged kernels, and records per-request latency as
//! `completion − arrival`. Results are returned in submission order and
//! are bit-identical to [`crate::compiled::CompiledEnsemble::predict`]
//! regardless of how requests were grouped: rows are independent, and
//! each row's accumulation order never changes.

use crate::compiled::CompiledEnsemble;
use crate::config::ConfigError;
use crate::predict::PredictMode;
use crate::serve::DeviceEnsemble;
use gbdt_data::DenseMatrix;
use gpusim::Event;

/// Copy stream carrying staged model uploads, double-buffered behind
/// batches flushing on the default stream.
const UPLOAD_STREAM: usize = 1;

/// Micro-batching policy.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Flush when this many rows are pending.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long
    /// (simulated ns). `INFINITY` disables the deadline trigger.
    pub max_delay_ns: f64,
    /// Parallelization scheme used for flushed batches.
    pub mode: PredictMode,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 256,
            max_delay_ns: f64::INFINITY,
            mode: PredictMode::InstanceLevel,
        }
    }
}

/// One flushed batch: scores for requests `first_id .. first_id + rows`
/// in submission order.
#[derive(Debug, Clone)]
pub struct ServedBatch {
    /// Id of the first request in the batch (ids are assigned
    /// sequentially by [`BatchServer::submit`], starting at 0).
    pub first_id: u64,
    /// Number of requests served.
    pub rows: usize,
    /// Raw scores, `rows × d` row-major, in submission order.
    pub scores: Vec<f32>,
    /// Simulated completion time of the batch kernel.
    pub completed_ns: f64,
}

/// Latency/throughput summary over everything served so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Requests served.
    pub served: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Median request latency, simulated ns.
    pub p50_ns: f64,
    /// 90th-percentile latency.
    pub p90_ns: f64,
    /// 99th-percentile latency.
    pub p99_ns: f64,
    /// Worst request latency.
    pub max_ns: f64,
    /// Served rows per simulated second (first arrival → last
    /// completion).
    pub throughput_rps: f64,
}

/// Micro-batching server over a resident [`DeviceEnsemble`].
pub struct BatchServer {
    ens: DeviceEnsemble,
    /// Next model version mid-upload on the copy stream, and the fence
    /// marking its transfer + checksum pass complete. Swapped in by the
    /// first flush that runs after staging.
    staged: Option<(DeviceEnsemble, Event)>,
    cfg: BatchConfig,
    /// Flattened pending rows (`pending × m`).
    rows: Vec<f32>,
    arrivals: Vec<f64>,
    /// Feature width, fixed by the first submission.
    m: Option<usize>,
    next_id: u64,
    batches: u64,
    latencies: Vec<f64>,
    first_arrival: Option<f64>,
    last_arrival: f64,
    last_completion: f64,
}

impl BatchServer {
    /// Front `ens` with the given micro-batching policy. A degenerate
    /// policy — zero batch size, or a NaN/negative deadline — is a
    /// [`ConfigError`], never a panic: serving configs arrive from
    /// operators, not source code.
    pub fn new(ens: DeviceEnsemble, cfg: BatchConfig) -> Result<Self, ConfigError> {
        if cfg.max_batch == 0 {
            return Err(ConfigError::from(
                "max_batch must be positive (0 would never flush)".to_string(),
            ));
        }
        if cfg.max_delay_ns.is_nan() || cfg.max_delay_ns < 0.0 {
            return Err(ConfigError::from(format!(
                "max_delay_ns must be non-negative (got {})",
                cfg.max_delay_ns
            )));
        }
        Ok(BatchServer {
            ens,
            staged: None,
            cfg,
            rows: Vec::new(),
            arrivals: Vec::new(),
            m: None,
            next_id: 0,
            batches: 0,
            latencies: Vec::new(),
            first_arrival: None,
            last_arrival: 0.0,
            last_completion: 0.0,
        })
    }

    /// The resident ensemble.
    pub fn ensemble(&self) -> &DeviceEnsemble {
        &self.ens
    }

    /// Stage a new model version behind the live one: the SoA upload
    /// and its checksum pass run on the copy stream, overlapping any
    /// batches still flushing on the default stream instead of stalling
    /// them. The swap is non-blocking: the first flush whose trigger
    /// finds the upload complete on the timeline serves the new
    /// version, and earlier flushes keep serving the live one.
    /// Re-staging before the swap replaces the pending version. The new
    /// ensemble must keep the live output dimension — scores of
    /// in-flight and future requests share one shape.
    pub fn stage(&mut self, ens: &CompiledEnsemble) -> Result<(), ConfigError> {
        if ens.d() != self.ens.d() {
            return Err(ConfigError::from(format!(
                "staged model changes the output dimension ({} -> {})",
                self.ens.d(),
                ens.d()
            )));
        }
        let device = self.ens.device().clone();
        let _scope = device.prof_scope("serve_stage", Some(self.batches));
        // The copy stream is born idle: fence it to "now" so the upload
        // cannot book before the work already on the timeline.
        device.wait_event(UPLOAD_STREAM, device.record_event(0));
        let staged = DeviceEnsemble::upload_on(device.clone(), ens, UPLOAD_STREAM);
        let ready = device.record_event(UPLOAD_STREAM);
        self.staged = Some((staged, ready));
        Ok(())
    }

    /// Submit one row arriving at `arrival_ns` (simulated; must be
    /// monotone non-decreasing across calls). Returns any batches the
    /// arrival triggered — at most one deadline flush of older requests
    /// plus, if this row filled the batch, the flush containing it.
    pub fn submit(&mut self, arrival_ns: f64, row: &[f32]) -> Vec<ServedBatch> {
        assert!(
            arrival_ns >= self.last_arrival,
            "arrivals must be monotone: {arrival_ns} < {}",
            self.last_arrival
        );
        let m = *self.m.get_or_insert(row.len());
        assert_eq!(row.len(), m, "feature width changed between submissions");
        self.last_arrival = arrival_ns;
        let mut served = Vec::new();
        if let Some(&oldest) = self.arrivals.first() {
            if arrival_ns - oldest >= self.cfg.max_delay_ns {
                served.push(self.flush_at(oldest + self.cfg.max_delay_ns));
            }
        }
        self.first_arrival.get_or_insert(arrival_ns);
        self.rows.extend_from_slice(row);
        self.arrivals.push(arrival_ns);
        self.next_id += 1;
        if let Some(tel) = self.ens.device().telemetry() {
            // Observer only: the queue state is already decided.
            tel.counter_inc("serve.requests_total");
            tel.gauge_set("serve.queue_depth", self.arrivals.len() as f64);
        }
        if self.arrivals.len() >= self.cfg.max_batch {
            served.push(self.flush_at(arrival_ns));
        }
        served
    }

    /// Flush any pending requests immediately (e.g. at shutdown or an
    /// external deadline tick). No-op when nothing is pending.
    pub fn flush(&mut self) -> Option<ServedBatch> {
        if self.arrivals.is_empty() {
            return None;
        }
        Some(self.flush_at(self.last_arrival))
    }

    /// Run the pending batch as one kernel, stamped at `trigger_ns`.
    fn flush_at(&mut self, trigger_ns: f64) -> ServedBatch {
        let device = self.ens.device().clone();
        device.advance_to(trigger_ns);
        // Non-blocking model swap: a flush that finds the staged upload
        // already complete on the timeline serves the new version;
        // earlier flushes keep serving the live one while the copy
        // stream drains behind them.
        if let Some((_, ready)) = &self.staged {
            if ready.ns() <= device.stream_now(0) {
                let (staged, ready) = self.staged.take().expect("staged upload present");
                device.wait_event(0, ready);
                self.ens = staged;
            }
        }
        let k = self.arrivals.len();
        let m = self.m.expect("flush_at requires pending rows");
        let feats = DenseMatrix::new(k, m, std::mem::take(&mut self.rows));
        let scores = self.ens.predict(self.cfg.mode, &feats);
        let completed_ns = device.now_ns();
        for &arrival in &self.arrivals {
            self.latencies.push(completed_ns - arrival);
        }
        if let Some(tel) = device.telemetry() {
            // Latency observations feed the registry histogram; the
            // nearest-rank percentiles in `stats()` stay the source of
            // truth and are unaffected.
            tel.counter_inc("serve.batches_total");
            tel.gauge_set("serve.queue_depth", 0.0);
            tel.gauge_set(
                "serve.batch_fill_ratio",
                k as f64 / self.cfg.max_batch as f64,
            );
            for &arrival in &self.arrivals {
                tel.hist_observe("serve.latency_ns", completed_ns - arrival);
            }
        }
        self.arrivals.clear();
        self.batches += 1;
        self.last_completion = completed_ns;
        ServedBatch {
            first_id: self.next_id - k as u64,
            rows: k,
            scores,
            completed_ns,
        }
    }

    /// Latency percentiles (nearest-rank over all served requests) and
    /// throughput from first arrival to last completion.
    pub fn stats(&self) -> ServeStats {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        let served = self.latencies.len() as u64;
        let span_ns = self.last_completion - self.first_arrival.unwrap_or(0.0);
        ServeStats {
            served,
            batches: self.batches,
            p50_ns: pct(0.50),
            p90_ns: pct(0.90),
            p99_ns: pct(0.99),
            max_ns: sorted.last().copied().unwrap_or(0.0),
            throughput_rps: if served > 0 && span_ns > 0.0 {
                served as f64 / span_ns * 1e9
            } else {
                0.0
            },
        }
    }
}
