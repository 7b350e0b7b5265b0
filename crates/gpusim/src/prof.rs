//! Kernel-level profiler for the simulated device.
//!
//! Mirrors the sanitizer's attachment contract (`sanitize` module): a
//! [`Profiler`] is an *observer* hung off the [`Device`](crate::Device).
//! It never charges the ledger and never influences kernel results, so
//! profiling off ⇒ bit-identical trees and charged nanoseconds (the
//! zero-perturbation contract, regression-tested in `crates/core`).
//! The device hands it the [`KernelRecord`] the ledger booked, so its
//! durations are the ledger's, clamp included.
//!
//! What it records, keyed by `(kernel name, Phase)`:
//!
//! * aggregate stats — launch count, total/mean/max simulated ns, DRAM
//!   bytes, and an *occupancy-limited* flag set when the majority of
//!   launches spent more time in serialized terms (atomics, sort,
//!   launch overhead) than in overlapped streaming work;
//! * hierarchical scopes — the trainer pushes per-boosting-round and
//!   per-level scopes (and builders push per-method scopes) via
//!   [`Device::prof_scope`](crate::Device::prof_scope) onto the device's
//!   scope stack; scope durations are measured on the *simulated*
//!   clock, so they are deterministic;
//! * a bounded trace-event buffer exported as Chrome `chrome://tracing`
//!   JSON ([`Profiler::chrome_trace`] wraps it in `traceEvents`).
//!
//! The compact, schema-versioned [`ProfileSummary`] is the machine-
//! readable form consumed by the bench harness and CI diff gates.

use crate::device::Phase;
use crate::KernelRecord;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// Schema version of [`ProfileSummary`] and the Chrome-trace envelope.
///
/// Bump rule: any field rename/removal or semantic change to an existing
/// field bumps this; purely additive fields may keep it, but the golden
/// schema test must be updated either way.
///
/// v2: kernel trace events carry their stream id in `tid`, so each
/// stream renders as its own track; previously `tid` was always 0.
pub const PROFILE_SCHEMA_VERSION: u32 = 2;

/// Default cap on retained trace events (kernels + scopes). Aggregates
/// stay exact past the cap; only the Chrome trace loses detail.
pub const DEFAULT_EVENT_LIMIT: usize = 200_000;

#[derive(Debug, Default, Clone)]
struct KernelStat {
    count: u64,
    total_ns: f64,
    max_ns: f64,
    dram_bytes: f64,
    limited_launches: u64,
}

#[derive(Debug, Default, Clone)]
struct ScopeStat {
    count: u64,
    total_ns: f64,
    depth: u32,
}

#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    start_ns: f64,
    dur_ns: f64,
    /// Stream the charge was issued on — rendered as the Chrome-trace
    /// `tid`, so each stream gets its own track. Scope events use 0.
    stream: u64,
}

#[derive(Default)]
struct ProfInner {
    kernels: BTreeMap<(&'static str, Phase), KernelStat>,
    scopes: BTreeMap<String, ScopeStat>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
}

/// Accumulating profiler state attached to one device.
///
/// All methods are internally locked; charges issue serially in node
/// order (the repo's determinism contract), so recorded event order is
/// deterministic.
pub struct Profiler {
    event_limit: usize,
    inner: Mutex<ProfInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_LIMIT)
    }
}

impl Profiler {
    /// Create a profiler retaining at most `event_limit` trace events.
    pub fn new(event_limit: usize) -> Self {
        Profiler {
            event_limit,
            inner: Mutex::new(ProfInner::default()),
        }
    }

    fn push_event(inner: &mut ProfInner, limit: usize, ev: TraceEvent) {
        if inner.events.len() < limit {
            inner.events.push(ev);
        } else {
            inner.dropped_events += 1;
        }
    }

    /// Record one charge, as the ledger booked it. Called by the device
    /// *after* the ledger charge; `limited` marks a launch dominated by
    /// serialized terms.
    pub fn on_kernel(&self, rec: &KernelRecord, dram_bytes: f64, limited: bool) {
        let mut inner = self.inner.lock();
        let stat = inner.kernels.entry((rec.name, rec.phase)).or_default();
        stat.count += 1;
        stat.total_ns += rec.ns;
        if rec.ns > stat.max_ns {
            stat.max_ns = rec.ns;
        }
        stat.dram_bytes += dram_bytes;
        if limited {
            stat.limited_launches += 1;
        }
        let limit = self.event_limit;
        Self::push_event(
            &mut inner,
            limit,
            TraceEvent {
                name: rec.name.to_string(),
                cat: rec.phase.name(),
                start_ns: rec.start_ns,
                dur_ns: rec.ns,
                stream: rec.stream as u64,
            },
        );
    }

    /// Record a closed scope: aggregate its duration under `path`
    /// (kinds joined by `/`, e.g. `round/level`, at nesting `depth`)
    /// and emit a trace event labeled `label`.
    pub fn on_scope(&self, path: &str, label: String, depth: u32, start_ns: f64, end_ns: f64) {
        let mut inner = self.inner.lock();
        let stat = inner.scopes.entry(path.to_string()).or_default();
        stat.count += 1;
        stat.total_ns += end_ns - start_ns;
        stat.depth = depth;
        let limit = self.event_limit;
        Self::push_event(
            &mut inner,
            limit,
            TraceEvent {
                name: label,
                cat: "scope",
                start_ns,
                dur_ns: end_ns - start_ns,
                stream: 0,
            },
        );
    }

    /// Number of trace events shed past the event limit (aggregates
    /// remain exact).
    pub fn dropped_events(&self) -> u64 {
        self.inner.lock().dropped_events
    }

    /// Snapshot the per-kernel and per-scope aggregates into the
    /// schema-versioned summary. Ledger-derived fields (`total_ns`,
    /// `by_phase`, `kernel_count`, `dropped_records`) are filled in by
    /// the device, which owns the ledger.
    pub fn summarize(&self, device_name: &str, ledger: &crate::LedgerSummary) -> ProfileSummary {
        let inner = self.inner.lock();
        let kernels = inner
            .kernels
            .iter()
            .map(|((name, phase), s)| KernelStatRow {
                name: (*name).to_string(),
                phase: phase.name().to_string(),
                count: s.count,
                total_ns: s.total_ns,
                mean_ns: if s.count > 0 {
                    s.total_ns / s.count as f64
                } else {
                    0.0
                },
                max_ns: s.max_ns,
                dram_bytes: s.dram_bytes,
                occupancy_limited: s.limited_launches * 2 > s.count,
            })
            .collect();
        let scopes = inner
            .scopes
            .iter()
            .map(|(path, s)| ScopeRow {
                path: path.clone(),
                depth: s.depth,
                count: s.count,
                total_ns: s.total_ns,
            })
            .collect();
        let mut by_phase = BTreeMap::new();
        for (phase, ns) in &ledger.by_phase {
            by_phase.insert(phase.name().to_string(), *ns);
        }
        ProfileSummary {
            schema_version: PROFILE_SCHEMA_VERSION,
            device: device_name.to_string(),
            total_ns: ledger.total_ns,
            kernel_count: ledger.kernel_count,
            dropped_records: ledger.dropped_records,
            dropped_events: inner.dropped_events,
            by_phase,
            kernels,
            scopes,
        }
    }

    /// Export retained events as Chrome `chrome://tracing` JSON: an
    /// object with a `traceEvents` array of `"ph":"X"` complete events
    /// (`ts`/`dur` in microseconds of *simulated* time, `pid` = device
    /// id). Load via `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self, device_id: usize) -> String {
        use serde::Value;
        let inner = self.inner.lock();
        let events: Vec<Value> = inner
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(e.name.clone())),
                    ("cat".to_string(), Value::String(e.cat.to_string())),
                    ("ph".to_string(), Value::String("X".to_string())),
                    ("ts".to_string(), Value::Float(e.start_ns * 1e-3)),
                    ("dur".to_string(), Value::Float(e.dur_ns * 1e-3)),
                    ("pid".to_string(), Value::UInt(device_id as u64)),
                    ("tid".to_string(), Value::UInt(e.stream)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            (
                "displayTimeUnit".to_string(),
                Value::String("ns".to_string()),
            ),
            (
                "otherData".to_string(),
                Value::Object(vec![
                    (
                        "schema_version".to_string(),
                        Value::UInt(PROFILE_SCHEMA_VERSION as u64),
                    ),
                    (
                        "dropped_events".to_string(),
                        Value::UInt(inner.dropped_events),
                    ),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("trace floats are finite simulated durations")
    }
}

/// One device's open [`ProfScope`]s, outermost first.
#[derive(Default)]
pub(crate) struct ScopeStack(Vec<OpenScope>);

struct OpenScope {
    kind: &'static str,
    label: String,
    start_ns: f64,
}

impl ScopeStack {
    pub(crate) fn push(&mut self, kind: &'static str, index: Option<u64>, start_ns: f64) {
        let label = match index {
            Some(i) => format!("{kind} {i}"),
            None => kind.to_string(),
        };
        self.0.push(OpenScope {
            kind,
            label,
            start_ns,
        });
    }

    /// Close the innermost scope: the profiler aggregates it under its
    /// kind path (`round/level`), telemetry records its label path
    /// (`round 0/level 2`).
    pub(crate) fn pop(
        &mut self,
        device: usize,
        end_ns: f64,
        prof: Option<&Profiler>,
        tel: Option<&Telemetry>,
    ) {
        let Some(scope) = self.0.pop() else {
            return;
        };
        let open = || self.0.iter().chain([&scope]);
        if let Some(tel) = tel {
            let labels: Vec<&str> = open().map(|s| s.label.as_str()).collect();
            tel.record_span(device, &labels.join("/"), scope.start_ns, end_ns);
        }
        if let Some(prof) = prof {
            let kinds: Vec<&str> = open().map(|s| s.kind).collect();
            let depth = self.0.len() as u32;
            prof.on_scope(&kinds.join("/"), scope.label, depth, scope.start_ns, end_ns);
        }
    }
}

/// RAII guard for a hierarchical profiling scope, opened via
/// [`Device::prof_scope`](crate::Device::prof_scope).
///
/// The scope is pushed once, as `(kind, label)`, onto the device's one
/// scope stack. On drop the profiler gets the kind path and telemetry
/// the label path (`round 0/level 2`) for its flight recorder. When
/// neither observer is attached the guard is a no-op that allocates
/// nothing, keeping the hot path clean. Scope boundaries are
/// timestamped on the simulated clock, so observing cannot perturb
/// them.
pub struct ProfScope<'a> {
    pub(crate) device: &'a crate::Device,
    pub(crate) pushed: bool,
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        if self.pushed {
            self.device.pop_scope();
        }
    }
}

/// Aggregate statistics for one `(kernel, phase)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelStatRow {
    /// Kernel name as charged (e.g. `hist_smem_packed`).
    pub name: String,
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Number of launches.
    pub count: u64,
    /// Total simulated nanoseconds across launches.
    pub total_ns: f64,
    /// Mean simulated nanoseconds per launch.
    pub mean_ns: f64,
    /// Maximum simulated nanoseconds over launches.
    pub max_ns: f64,
    /// Total modeled DRAM traffic in bytes (0 for raw-ns charges).
    pub dram_bytes: f64,
    /// True when the majority of launches were dominated by serialized
    /// terms (atomics, sort, launch overhead) rather than overlapped
    /// streaming work.
    pub occupancy_limited: bool,
}

/// Aggregate statistics for one scope path (e.g. `round/level`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScopeRow {
    /// Scope kinds joined by `/`, outermost first.
    pub path: String,
    /// Nesting depth of this scope (0 = outermost).
    pub depth: u32,
    /// Number of times the scope was entered.
    pub count: u64,
    /// Total simulated nanoseconds spent inside (sum over entries).
    pub total_ns: f64,
}

/// Compact, schema-versioned profile of one device — the
/// machine-readable form consumed by the bench harness.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileSummary {
    /// Schema version ([`PROFILE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Device marketing name (e.g. `SimRTX4090`).
    pub device: String,
    /// Total simulated nanoseconds on the ledger.
    pub total_ns: f64,
    /// Number of ledger charges.
    pub kernel_count: u64,
    /// Ledger records shed past its record limit (subtotals stay exact).
    pub dropped_records: u64,
    /// Trace events shed past the profiler's event limit.
    pub dropped_events: u64,
    /// Simulated nanoseconds per phase, keyed by [`Phase::name`].
    pub by_phase: BTreeMap<String, f64>,
    /// Per-(kernel, phase) aggregates, sorted by name then phase.
    pub kernels: Vec<KernelStatRow>,
    /// Per-path scope aggregates, sorted by path.
    pub scopes: Vec<ScopeRow>,
}

impl ProfileSummary {
    /// Fraction of total time spent under the given phase name
    /// (0 when the total is 0).
    pub fn phase_share(&self, phase: &str) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.by_phase.get(phase).copied().unwrap_or(0.0) / self.total_ns
        }
    }

    /// Render a fixed-width per-kernel table, hottest first.
    pub fn kernel_table(&self) -> String {
        let mut rows: Vec<&KernelStatRow> = self.kernels.iter().collect();
        rows.sort_by(|a, b| {
            b.total_ns
                .partial_cmp(&a.total_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<10} {:>8} {:>12} {:>12} {:>12} {:>5}\n",
            "kernel", "phase", "count", "total (ms)", "mean (µs)", "max (µs)", "lim"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:<10} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>5}\n",
                r.name,
                r.phase,
                r.count,
                r.total_ns * 1e-6,
                r.mean_ns * 1e-3,
                r.max_ns * 1e-3,
                if r.occupancy_limited { "yes" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &'static str,
        phase: Phase,
        ns: f64,
        start_ns: f64,
        stream: usize,
    ) -> KernelRecord {
        KernelRecord {
            name,
            phase,
            ns,
            start_ns,
            stream,
        }
    }

    #[test]
    fn kernel_aggregates_accumulate() {
        let p = Profiler::default();
        p.on_kernel(&rec("k", Phase::Histogram, 10.0, 0.0, 0), 100.0, true);
        p.on_kernel(&rec("k", Phase::Histogram, 30.0, 10.0, 0), 300.0, true);
        p.on_kernel(&rec("k", Phase::Histogram, 20.0, 40.0, 0), 200.0, false);
        p.on_kernel(&rec("other", Phase::SplitEval, 5.0, 60.0, 0), 0.0, false);
        let ledger = crate::LedgerSummary::default();
        let s = p.summarize("dev", &ledger);
        assert_eq!(s.kernels.len(), 2);
        let k = &s.kernels[0];
        assert_eq!(k.name, "k");
        assert_eq!(k.count, 3);
        assert_eq!(k.total_ns, 60.0);
        assert_eq!(k.mean_ns, 20.0);
        assert_eq!(k.max_ns, 30.0);
        assert_eq!(k.dram_bytes, 600.0);
        assert!(k.occupancy_limited, "2 of 3 launches limited");
        assert!(!s.kernels[1].occupancy_limited);
    }

    #[test]
    fn scopes_nest_and_aggregate_by_path() {
        let dev = crate::Device::rtx4090();
        dev.enable_profiler();
        let tel = dev.enable_telemetry();
        {
            let _round = dev.prof_scope("round", Some(0));
            for (level, ns) in [10.0, 15.0].into_iter().enumerate() {
                let _level = dev.prof_scope("level", Some(level as u64));
                dev.charge_ns("k", Phase::Other, ns);
            }
            dev.charge_ns("k", Phase::Other, 5.0);
        }
        let s = dev.profile_summary().expect("profiler attached");
        assert_eq!(s.scopes.len(), 2);
        assert_eq!(s.scopes[0].depth, 0);
        assert_eq!(s.scopes[0].path, "round");
        assert_eq!(s.scopes[0].count, 1);
        assert_eq!(s.scopes[0].total_ns, 30.0);
        assert_eq!(s.scopes[1].path, "round/level");
        assert_eq!(s.scopes[1].count, 2);
        assert_eq!(s.scopes[1].total_ns, 25.0);
        assert_eq!(s.scopes[1].depth, 1);
        // Telemetry records the same scopes by label path.
        tel.record_postmortem("spans");
        let spans: Vec<String> = tel.postmortems()[0]
            .events
            .iter()
            .filter(|e| e.kind == "span")
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(spans, ["round 0/level 0", "round 0/level 1", "round 0"]);
    }

    #[test]
    fn event_limit_sheds_but_aggregates_stay_exact() {
        let p = Profiler::new(2);
        for i in 0..5 {
            p.on_kernel(&rec("k", Phase::Other, 1.0, i as f64, 0), 0.0, false);
        }
        assert_eq!(p.dropped_events(), 3);
        let s = p.summarize("dev", &crate::LedgerSummary::default());
        assert_eq!(s.dropped_events, 3);
        assert_eq!(s.kernels[0].count, 5);
        assert_eq!(s.kernels[0].total_ns, 5.0);
    }

    #[test]
    fn chrome_trace_is_valid_and_scaled_to_micros() {
        let p = Profiler::default();
        p.on_kernel(&rec("k", Phase::Histogram, 2000.0, 1000.0, 0), 0.0, false);
        let json = p.chrome_trace(3);
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let obj = v.as_object().expect("object envelope");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 1);
        let ev = events[0].as_object().expect("event object");
        let get = |name: &str| ev.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        assert_eq!(get("ph"), Some(serde::Value::String("X".to_string())));
        assert_eq!(get("ts"), Some(serde::Value::Float(1.0)));
        assert_eq!(get("dur"), Some(serde::Value::Float(2.0)));
        assert_eq!(get("pid"), Some(serde::Value::UInt(3)));
        assert_eq!(get("tid"), Some(serde::Value::UInt(0)));
    }

    #[test]
    fn chrome_trace_renders_streams_as_separate_tracks() {
        let p = Profiler::default();
        p.on_kernel(&rec("a", Phase::Histogram, 10.0, 0.0, 1), 0.0, false);
        p.on_kernel(&rec("b", Phase::Histogram, 10.0, 0.0, 2), 0.0, false);
        let json = p.chrome_trace(0);
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v
            .as_object()
            .and_then(|o| {
                o.iter()
                    .find(|(k, _)| k == "traceEvents")
                    .and_then(|(_, v)| v.as_array())
            })
            .expect("traceEvents array");
        let tid = |i: usize| {
            events[i]
                .as_object()
                .and_then(|ev| ev.iter().find(|(k, _)| k == "tid").map(|(_, v)| v.clone()))
        };
        assert_eq!(tid(0), Some(serde::Value::UInt(1)));
        assert_eq!(tid(1), Some(serde::Value::UInt(2)));
    }

    #[test]
    fn summary_phase_share() {
        let mut ledger = crate::LedgerSummary::default();
        ledger.total_ns = 100.0;
        ledger.by_phase.insert(Phase::Histogram, 80.0);
        let p = Profiler::default();
        let s = p.summarize("dev", &ledger);
        assert!((s.phase_share("Histogram") - 0.8).abs() < 1e-12);
        assert_eq!(s.phase_share("Predict"), 0.0);
    }
}
