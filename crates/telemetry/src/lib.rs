//! # telemetry — zero-perturbation runtime metrics
//!
//! A metrics registry in the spirit of Prometheus client libraries,
//! specialized for the simulated-GPU stack: **counters** (monotone
//! `u64`), **gauges** (last-write `f64`), and **fixed-bucket
//! histograms** (deterministic power-of-two bounds, HDR-style), all
//! keyed by canonical `lower_snake` dotted names (`train.split_gain`,
//! `serve.latency_ns`). It counts the charges, spans and faults its
//! devices log, and it keeps the **postmortems** failure paths hand it:
//! the events each device was logging when the run died.
//!
//! Two exporters: Prometheus text exposition ([`Telemetry::prometheus`])
//! and schema-versioned JSON ([`Telemetry::to_json`],
//! [`TELEMETRY_SCHEMA_VERSION`], golden-pinned in `tests/golden.rs`).
//!
//! ## The zero-perturbation contract
//!
//! Telemetry is a *pure observer*, exactly like the profiler: it never
//! charges simulated time itself, it never allocates device memory, and
//! nothing it returns feeds back into training or serving decisions.
//! Attaching, detaching, or toggling telemetry must leave trees,
//! predictions, `now_ns`, and the charge-record stream bit-identical —
//! the contract is regression-tested in `crates/core/tests/telemetry.rs`.
//!
//! This crate deliberately does **not** depend on `gpusim`: the device
//! layer depends on telemetry (to hold the registry). The events
//! themselves live in each device's event log, not here; a device only
//! tells the registry what kind of entry it logged, and a postmortem
//! arrives as a finished [`Postmortem`] built from the logs (kernel and
//! phase names as the `'static` strings the device charged). The
//! registry keeps no time totals of its own: per-phase nanoseconds live
//! in the device ledger (`LedgerSummary::by_phase`), which reports read
//! directly.

#![warn(missing_docs)]

use parking_lot::Mutex;
use serde::Value;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Version stamp of the JSON document emitted by [`Telemetry::to_json`].
/// Bump when field names, ordering, or semantics change, and regenerate
/// the golden fixture (`UPDATE_GOLDEN=1 cargo test -p telemetry`).
///
/// v2: the `phase_ns` section is gone; per-phase time is the ledger's.
/// v3: the per-device `flight_recorder` section is gone (events live in
/// the device logs); a postmortem event's `seq` is its position in its
/// device's log, and a fault carries the device clock it surfaced at.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 3;

/// Number of histogram buckets: bucket `i < 63` holds values in
/// `(2^(i-1), 2^i]` (bucket 0 holds everything `<= 1`), bucket 63 is
/// the overflow (`+Inf`) bucket.
pub const HIST_BUCKETS: usize = 64;

/// What a device logged, as counted by [`Telemetry::count_logged`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Logged {
    /// A booked charge.
    Charge,
    /// A closed profiling scope.
    Span,
    /// A fault a poll surfaced.
    Fault,
}

/// One postmortem event: a charge, fault, or span from a device's event
/// log, stamped with the simulated clock and its position in that log.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Position of the entry in its device's log.
    pub seq: u64,
    /// `"charge"`, `"fault"`, or `"span"`.
    pub kind: &'static str,
    /// Device the event was logged on.
    pub device: usize,
    /// Kernel name, fault description, or span label path.
    pub name: Cow<'static, str>,
    /// Secondary detail: phase name for charges, empty otherwise.
    pub detail: &'static str,
    /// Simulated start timestamp (ns); for a fault, the device clock
    /// when a poll surfaced it.
    pub start_ns: f64,
    /// Simulated end timestamp (ns); equals `start_ns` for faults.
    pub end_ns: f64,
    /// Stream the charge was issued on (0 for faults and spans).
    pub stream: usize,
}

/// The events the devices of a failed run were logging, stored in
/// memory until a caller (`repro report`, tests) writes it out.
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Why the postmortem was recorded (the error's display string).
    pub reason: String,
    /// The most recent events of each device, merged across devices.
    pub events: Vec<FlightEvent>,
    /// Older events of those devices left out.
    pub dropped_events: u64,
}

impl Postmortem {
    /// The postmortem as a standalone JSON document (schema-versioned,
    /// same layout as an entry of the `postmortems` section of
    /// [`Telemetry::to_json`]).
    pub fn to_json(&self) -> String {
        let mut doc = vec![(
            "telemetry_schema_version".into(),
            Value::UInt(TELEMETRY_SCHEMA_VERSION as u64),
        )];
        doc.extend(self.fields());
        serde_json::to_string(&Value::Object(doc)).expect("postmortem serializes")
    }

    /// The fields of both JSON layouts, in order.
    fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("reason".into(), Value::String(self.reason.clone())),
            ("dropped_events".into(), Value::UInt(self.dropped_events)),
            (
                "events".into(),
                Value::Array(self.events.iter().map(event_value).collect()),
            ),
        ]
    }
}

/// Aggregate state of one fixed-bucket histogram.
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (0.0 when empty).
    pub min: f64,
    /// Largest observed value (0.0 when empty).
    pub max: f64,
    /// Per-bucket counts, `buckets[i]` as documented on
    /// [`HIST_BUCKETS`]; trailing empty buckets trimmed.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Upper bound (`le`) of bucket `i`; `None` for the overflow bucket.
    pub fn bucket_le(i: usize) -> Option<f64> {
        if i >= HIST_BUCKETS - 1 {
            None
        } else {
            Some((1u64 << i) as f64)
        }
    }
}

/// Point-in-time copy of the whole registry, used by `repro report`
/// and the tests. Maps are `BTreeMap` so iteration (and therefore
/// export order) is deterministic.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Charges logged by attached devices.
    pub charges_recorded: u64,
    /// Faults logged by attached devices.
    pub faults_recorded: u64,
    /// Spans logged by attached devices.
    pub spans_recorded: u64,
}

#[derive(Clone, Debug, Default)]
struct FixedHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl FixedHistogram {
    fn observe(&mut self, v: f64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            buckets: self.counts.clone(),
        }
    }
}

/// Deterministic bucket index: smallest `i` with `v <= 2^i` (bucket 0
/// takes everything `<= 1`, including negatives and NaN), clamped into
/// the overflow bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= 1.0 {
        return 0;
    }
    let u = v.ceil() as u64;
    let idx = 64 - (u - 1).leading_zeros() as usize;
    idx.min(HIST_BUCKETS - 1)
}

#[derive(Default)]
struct TelInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, FixedHistogram>,
    postmortems: Vec<Postmortem>,
    charges_recorded: u64,
    faults_recorded: u64,
    spans_recorded: u64,
}

/// The metrics registry and its postmortems. Cheap to share
/// (`Arc<Telemetry>`), internally locked; every recording method takes
/// `&self` and returns nothing, so instrumentation sites cannot
/// accidentally branch on observer state.
#[derive(Default)]
pub struct Telemetry {
    inner: Mutex<TelInner>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // -- registry --------------------------------------------------------

    /// Add `delta` to the counter `name` (created at 0 on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increment the counter `name` by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock();
        inner.gauges.insert(name.to_string(), v);
    }

    /// Record one observation of `v` in the histogram `name`.
    pub fn hist_observe(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock();
        inner.hists.entry(name.to_string()).or_default().observe(v);
    }

    // -- device logs -----------------------------------------------------

    /// Count one entry an attached device logged.
    pub fn count_logged(&self, kind: Logged) {
        let mut inner = self.inner.lock();
        *match kind {
            Logged::Charge => &mut inner.charges_recorded,
            Logged::Span => &mut inner.spans_recorded,
            Logged::Fault => &mut inner.faults_recorded,
        } += 1;
    }

    /// Keep `pm`, the postmortem a typed-error path built from its
    /// devices' logs. Nothing is written to disk here — `repro report`
    /// and the tests retrieve and persist.
    pub fn push_postmortem(&self, pm: Postmortem) {
        self.inner.lock().postmortems.push(pm);
    }

    /// All postmortems recorded so far, in order.
    pub fn postmortems(&self) -> Vec<Postmortem> {
        self.inner.lock().postmortems.clone()
    }

    /// The most recent postmortem as a JSON document, if any failure
    /// was recorded.
    pub fn last_postmortem_json(&self) -> Option<String> {
        self.inner.lock().postmortems.last().map(|p| p.to_json())
    }

    // -- export ----------------------------------------------------------

    /// Point-in-time copy of the registry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.lock();
        TelemetrySnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            charges_recorded: inner.charges_recorded,
            faults_recorded: inner.faults_recorded,
            spans_recorded: inner.spans_recorded,
        }
    }

    /// Prometheus text exposition (version 0.0.4): dotted metric names
    /// flattened to `snake_case` with `_`, histograms exported with
    /// cumulative `le` buckets plus `_sum` / `_count`.
    pub fn prometheus(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &snap.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &snap.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, c) in h.buckets.iter().enumerate() {
                cum += c;
                if let Some(le) = HistSnapshot::bucket_le(i) {
                    out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// The whole registry and its postmortems as one JSON document
    /// (`TELEMETRY_SCHEMA_VERSION` header; layout golden-pinned).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("telemetry serializes")
    }

    /// The [`Telemetry::to_json`] document as a [`Value`] tree, for
    /// callers embedding telemetry in a larger report.
    pub fn to_value(&self) -> Value {
        let snap = self.snapshot();
        let inner = self.inner.lock();
        let counters = snap
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::UInt(*v)))
            .collect();
        let gauges = snap
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        let hists = snap
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let le = match HistSnapshot::bucket_le(i) {
                            Some(le) => Value::Float(le),
                            None => Value::String("+Inf".into()),
                        };
                        Value::Object(vec![("le".into(), le), ("count".into(), Value::UInt(*c))])
                    })
                    .collect();
                (
                    k.clone(),
                    Value::Object(vec![
                        ("count".into(), Value::UInt(h.count)),
                        ("sum".into(), Value::Float(h.sum)),
                        ("min".into(), Value::Float(h.min)),
                        ("max".into(), Value::Float(h.max)),
                        ("buckets".into(), Value::Array(buckets)),
                    ]),
                )
            })
            .collect();
        let postmortems = inner
            .postmortems
            .iter()
            .map(|p| Value::Object(p.fields()))
            .collect();
        Value::Object(vec![
            (
                "telemetry_schema_version".into(),
                Value::UInt(TELEMETRY_SCHEMA_VERSION as u64),
            ),
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("histograms".into(), Value::Object(hists)),
            (
                "recorder".into(),
                Value::Object(vec![
                    ("charges".into(), Value::UInt(snap.charges_recorded)),
                    ("faults".into(), Value::UInt(snap.faults_recorded)),
                    ("spans".into(), Value::UInt(snap.spans_recorded)),
                ]),
            ),
            ("postmortems".into(), Value::Array(postmortems)),
        ])
    }
}

fn event_value(e: &FlightEvent) -> Value {
    Value::Object(vec![
        ("seq".into(), Value::UInt(e.seq)),
        ("kind".into(), Value::String(e.kind.into())),
        ("device".into(), Value::UInt(e.device as u64)),
        ("name".into(), Value::String(e.name.to_string())),
        ("detail".into(), Value::String(e.detail.into())),
        ("start_ns".into(), Value::Float(e.start_ns)),
        ("end_ns".into(), Value::Float(e.end_ns)),
        ("stream".into(), Value::UInt(e.stream as u64)),
    ])
}

/// Flatten a dotted metric name into the Prometheus charset.
fn prom_name(name: &str) -> String {
    name.replace('.', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let tel = Telemetry::new();
        tel.counter_inc("train.rounds_total");
        tel.counter_add("train.rounds_total", 4);
        tel.counter_inc("serve.requests_total");
        let snap = tel.snapshot();
        assert_eq!(snap.counters["train.rounds_total"], 5);
        assert_eq!(snap.counters["serve.requests_total"], 1);
        let prom = tel.prometheus();
        assert!(prom.contains("# TYPE train_rounds_total counter"));
        assert!(prom.contains("train_rounds_total 5"));
    }

    #[test]
    fn gauges_take_last_write() {
        let tel = Telemetry::new();
        tel.gauge_set("serve.queue_depth", 3.0);
        tel.gauge_set("serve.queue_depth", 1.0);
        assert_eq!(tel.snapshot().gauges["serve.queue_depth"], 1.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 0);
        assert_eq!(bucket_index(1.5), 1);
        assert_eq!(bucket_index(2.0), 1);
        assert_eq!(bucket_index(2.5), 2);
        assert_eq!(bucket_index(4.0), 2);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let tel = Telemetry::new();
        for v in [3.0, 1.0, 100.0] {
            tel.hist_observe("serve.latency_ns", v);
        }
        let snap = tel.snapshot();
        let h = &snap.histograms["serve.latency_ns"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 104.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        let prom = tel.prometheus();
        assert!(prom.contains("# TYPE serve_latency_ns histogram"));
        assert!(prom.contains("serve_latency_ns_count 3"));
        assert!(prom.contains("serve_latency_ns_sum 104"));
        // Cumulative buckets end at the total count.
        assert!(prom.contains("serve_latency_ns_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn logged_entries_are_counted_by_kind() {
        let tel = Telemetry::new();
        for kind in [Logged::Charge, Logged::Charge, Logged::Span, Logged::Fault] {
            tel.count_logged(kind);
        }
        let snap = tel.snapshot();
        assert_eq!(
            (
                snap.charges_recorded,
                snap.spans_recorded,
                snap.faults_recorded
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn json_export_is_schema_versioned_and_parses() {
        let tel = Telemetry::new();
        tel.counter_inc("train.rounds_total");
        tel.gauge_set("train.pool_high_water", 7.0);
        tel.hist_observe("train.split_gain", 0.25);
        let json = tel.to_json();
        let v: Value = serde_json::from_str(&json).expect("telemetry JSON parses");
        let obj = v.as_object().expect("object");
        let (_, ver) = obj
            .iter()
            .find(|(k, _)| k == "telemetry_schema_version")
            .expect("schema header");
        assert_eq!(ver, &Value::UInt(TELEMETRY_SCHEMA_VERSION as u64));
    }
}
