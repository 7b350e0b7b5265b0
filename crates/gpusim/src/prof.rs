//! Views of a device's event log: the profile summary, the Chrome
//! trace and the postmortem.
//!
//! A device keeps one append-only, sequence-numbered log in its ledger
//! ([`crate::timeline`]): every booked charge, with the DRAM bytes and
//! serialization flag of its cost; every profiling scope's open and
//! close, stamped on the simulated clock; and every fault a poll
//! surfaced. Nothing else keeps a copy. The views are built from the
//! log when asked for, so they agree with the ledger and with each
//! other, and looking never charges anything (regression-tested in
//! `crates/core`):
//!
//! * [`ProfileSummary`] — per-`(kernel, Phase)` launch count,
//!   total/mean/max simulated ns, DRAM bytes and an *occupancy-limited*
//!   flag (most launches dominated by serialized terms: atomics, sort,
//!   launch overhead); and per scope path (`round/level`) from
//!   [`Device::prof_scope`](crate::Device::prof_scope);
//! * the Chrome `chrome://tracing` JSON of the retained entries;
//! * [`postmortem`] — each device's last [`POSTMORTEM_TAIL`] charges,
//!   spans and faults, merged across a group.
//!
//! Past its cap the log folds its oldest entries into running totals,
//! which the summary continues over the retained entries, so the
//! aggregates stay exact; the trace and postmortems show the newest.

use crate::device::{Device, Phase};
use crate::timeline::{Entry, KernelRecord, Ledger, Mark};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use telemetry::{FlightEvent, Postmortem};

/// Schema version of [`ProfileSummary`] and the Chrome-trace envelope.
///
/// Bump rule: any field rename/removal or semantic change to an existing
/// field bumps this; purely additive fields may keep it, but the golden
/// schema test must be updated either way.
///
/// v2: kernel trace events carry their stream id in `tid`, so each
/// stream renders as its own track; previously `tid` was always 0.
pub const PROFILE_SCHEMA_VERSION: u32 = 2;

/// Events per device a [`postmortem`] carries: the most recent ones.
pub const POSTMORTEM_TAIL: usize = 256;

#[derive(Debug, Default, Clone)]
struct KernelStat {
    count: u64,
    total_ns: f64,
    max_ns: f64,
    dram_bytes: f64,
    limited_launches: u64,
}

/// Keep `open` (the open scopes, outermost first) in step with `e` and
/// hand `f` the scopes open around `e` — for an open, ending with the
/// scope it opens; for a close, ending with the scope it closes. Closes
/// with nothing open reach nobody.
fn step(open: &mut Vec<Mark>, e: &Entry, f: impl FnOnce(&[Mark])) {
    match e {
        Entry::Open(mark) => {
            open.push(*mark);
            f(open);
        }
        Entry::Close(_) => {
            if !open.is_empty() {
                f(open);
                open.pop();
            }
        }
        _ => f(open),
    }
}

/// [`step`] through the retained log, from the scopes the shed entries
/// left open; `f` also gets each entry's sequence number.
fn walk(ledger: &Ledger, mut f: impl FnMut(u64, &Entry, &[Mark])) {
    let mut open = ledger.shed.open.clone();
    for (seq, e) in (ledger.shed.entries..).zip(&ledger.log) {
        step(&mut open, e, |scopes| f(seq, e, scopes));
    }
}

/// A scope's trace label: its kind, then its index when it has one.
fn label(mark: &Mark) -> Cow<'static, str> {
    match mark.index {
        Some(i) => Cow::Owned(format!("{} {i}", mark.kind)),
        None => Cow::Borrowed(mark.kind),
    }
}

/// Running totals of a prefix of the log, folded entry by entry in
/// sequence order. The ledger keeps one for the entries it has shed;
/// [`summarize`] continues a copy over the retained ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct Totals {
    /// Scopes open after the prefix, outermost first.
    open: Vec<Mark>,
    kernels: BTreeMap<(&'static str, Phase), KernelStat>,
    scopes: BTreeMap<String, ScopeRow>,
    entries: u64,
    pub(crate) charges: u64,
    spans: u64,
    faults: u64,
}

impl Totals {
    /// Fold one more entry.
    pub(crate) fn fold(&mut self, e: &Entry) {
        let Totals {
            open,
            kernels,
            scopes,
            entries,
            charges,
            spans,
            faults,
        } = self;
        *entries += 1;
        step(open, e, |open| match e {
            Entry::Charge {
                name,
                phase,
                ns,
                dram_bytes,
                limited,
                ..
            } => {
                *charges += 1;
                let stat = kernels.entry((name, *phase)).or_default();
                stat.count += 1;
                stat.total_ns += ns;
                if *ns > stat.max_ns {
                    stat.max_ns = *ns;
                }
                stat.dram_bytes += dram_bytes;
                stat.limited_launches += u64::from(*limited);
            }
            Entry::Close(end) => {
                *spans += 1;
                let kinds: Vec<&str> = open.iter().map(|m| m.kind).collect();
                let path = kinds.join("/");
                let row = scopes.entry(path.clone()).or_insert_with(|| ScopeRow {
                    path,
                    depth: 0,
                    count: 0,
                    total_ns: 0.0,
                });
                row.depth = (open.len() - 1) as u32;
                row.count += 1;
                row.total_ns += end.at_ns - open[open.len() - 1].at_ns;
            }
            Entry::Fault(..) => *faults += 1,
            Entry::Open(_) => {}
        });
    }

    /// Trace events (charges and closed scopes) folded.
    fn trace_events(&self) -> u64 {
        self.charges + self.spans
    }
}

/// The schema-versioned profile of `ledger`: the shed entries' totals
/// continued over the retained entries.
pub(crate) fn summarize(device_name: &str, ledger: &Ledger) -> ProfileSummary {
    let mut totals = ledger.shed.clone();
    for e in &ledger.log {
        totals.fold(e);
    }
    let kernels = totals
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
    let ledger_summary = ledger.summary();
    let by_phase = ledger_summary
        .by_phase
        .iter()
        .map(|(phase, ns)| (phase.name().to_string(), *ns))
        .collect();
    ProfileSummary {
        schema_version: PROFILE_SCHEMA_VERSION,
        device: device_name.to_string(),
        total_ns: ledger_summary.total_ns,
        kernel_count: ledger_summary.kernel_count,
        dropped_records: ledger_summary.dropped_records,
        dropped_events: ledger.shed.trace_events(),
        by_phase,
        kernels,
        scopes: totals.scopes.into_values().collect(),
    }
}

/// The retained log of device `device_id` as Chrome `chrome://tracing`
/// JSON: an object with a `traceEvents` array of `"ph":"X"` complete
/// events (`ts`/`dur` in microseconds of *simulated* time, `pid` = device
/// id, `tid` = stream; scopes sit on stream 0's track). Load via
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub(crate) fn chrome_trace(device_id: usize, ledger: &Ledger) -> String {
    let mut events = Vec::new();
    walk(ledger, |_, e, open| {
        let (name, cat, start_ns, dur_ns, tid) = match (e.record(), e) {
            (Some(r), _) => (
                Cow::Borrowed(r.name),
                r.phase.name(),
                r.start_ns,
                r.ns,
                r.stream,
            ),
            (None, Entry::Close(end)) => {
                let mark = &open[open.len() - 1];
                (label(mark), "scope", mark.at_ns, end.at_ns - mark.at_ns, 0)
            }
            _ => return,
        };
        events.push(Value::Object(vec![
            ("name".to_string(), Value::String(name.into_owned())),
            ("cat".to_string(), Value::String(cat.to_string())),
            ("ph".to_string(), Value::String("X".to_string())),
            ("ts".to_string(), Value::Float(start_ns * 1e-3)),
            ("dur".to_string(), Value::Float(dur_ns * 1e-3)),
            ("pid".to_string(), Value::UInt(device_id as u64)),
            ("tid".to_string(), Value::UInt(tid as u64)),
        ]));
    });
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
                    Value::UInt(ledger.shed.trace_events()),
                ),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("trace floats are finite simulated durations")
}

/// Device `device`'s last `tail` charges, spans and faults in `ledger`
/// as postmortem events, each keyed by the device clock it was logged
/// at (the running maximum of the times the entries carry). Returns the
/// events and how many older ones it left out.
fn flight_tail(device: usize, ledger: &Ledger, tail: usize) -> (VecDeque<(f64, FlightEvent)>, u64) {
    let shed = &ledger.shed;
    let mut left_out = shed.charges + shed.spans + shed.faults;
    let mut kept = VecDeque::new();
    let mut clock = 0.0f64;
    walk(ledger, |seq, e, open| {
        let (kind, name, detail, start_ns, end_ns, stream) = match (e.record(), e) {
            (Some(r), _) => {
                let name = Cow::Borrowed(r.name);
                (
                    "charge",
                    name,
                    r.phase.name(),
                    r.start_ns,
                    r.start_ns + r.ns,
                    r.stream,
                )
            }
            (None, Entry::Close(end)) => {
                let labels: Vec<Cow<str>> = open.iter().map(label).collect();
                let start_ns = open[open.len() - 1].at_ns;
                ("span", labels.join("/").into(), "", start_ns, end.at_ns, 0)
            }
            (None, Entry::Fault(fault)) => {
                let (fault, at_ns) = &**fault;
                ("fault", fault.to_string().into(), "", *at_ns, *at_ns, 0)
            }
            _ => return,
        };
        clock = clock.max(end_ns);
        kept.push_back((
            clock,
            FlightEvent {
                seq,
                kind,
                device,
                name,
                detail,
                start_ns,
                end_ns,
                stream,
            },
        ));
        if kept.len() > tail {
            kept.pop_front();
            left_out += 1;
        }
    });
    (kept, left_out)
}

/// One closed instance of a scope kind in the retained log, for
/// [`Device::scope_spans`](crate::Device::scope_spans).
#[derive(Debug, Clone)]
pub struct ScopeSpan {
    /// The index the scope was opened with.
    pub index: Option<u64>,
    /// Device clock when the scope opened.
    pub open_ns: f64,
    /// Device clock when the scope closed.
    pub close_ns: f64,
    /// The charges issued while it was open, nested scopes included,
    /// in issue order.
    pub records: Vec<KernelRecord>,
}

/// Every closed instance of scope `kind` that opened in the retained
/// log, in log order. An instance nested in another of the same kind
/// belongs to the outer one.
pub(crate) fn scope_spans(ledger: &Ledger, kind: &str) -> Vec<ScopeSpan> {
    let mut spans = Vec::new();
    // The open instance of `kind` and the depth of the scope stack it tops.
    let mut current: Option<(usize, ScopeSpan)> = None;
    walk(ledger, |_, e, open| match e {
        Entry::Open(mark) if current.is_none() && mark.kind == kind => {
            let span = ScopeSpan {
                index: mark.index,
                open_ns: mark.at_ns,
                close_ns: mark.at_ns,
                records: Vec::new(),
            };
            current = Some((open.len(), span));
        }
        Entry::Close(mark) if current.as_ref().is_some_and(|(at, _)| *at == open.len()) => {
            let (_, mut span) = current.take().expect("checked above");
            span.close_ns = mark.at_ns;
            spans.push(span);
        }
        _ => {
            if let (Some((_, span)), Some(r)) = (&mut current, e.record()) {
                span.records.push(r);
            }
        }
    });
    spans
}

/// The postmortem of a failure on `devices`: each device's last
/// [`POSTMORTEM_TAIL`] charges, spans and faults, read from its log and
/// merged across the group in simulated-time order — by the device
/// clock each event was logged at, ties to the lower device id, then to
/// the earlier entry. Every key is simulated, so the order is the same
/// on every run. Hand it to [`telemetry::Telemetry::push_postmortem`].
pub fn postmortem(reason: &str, devices: &[Arc<Device>]) -> Postmortem {
    let mut events = Vec::new();
    let mut dropped_events = 0;
    for dev in devices {
        let (tail, left_out) = dev.with_ledger(|l| flight_tail(dev.id, l, POSTMORTEM_TAIL));
        events.extend(tail);
        dropped_events += left_out;
    }
    events.sort_by(|(a, x), (b, y)| {
        a.total_cmp(b)
            .then(x.device.cmp(&y.device))
            .then(x.seq.cmp(&y.seq))
    });
    Postmortem {
        reason: reason.to_string(),
        events: events.into_iter().map(|(_, e)| e).collect(),
        dropped_events,
    }
}

/// RAII guard for a hierarchical profiling scope, opened via
/// [`Device::prof_scope`](crate::Device::prof_scope): the open and, on
/// drop, the close go into the device's log, stamped on the simulated
/// clock, so observing cannot perturb them.
pub struct ProfScope<'a> {
    pub(crate) device: &'a crate::Device,
    pub(crate) kind: &'static str,
    pub(crate) index: Option<u64>,
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        self.device.close_scope(self.kind, self.index);
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
    /// Charges shed from the event log past its cap (every aggregate
    /// stays exact).
    pub dropped_records: u64,
    /// Trace events (charges and closed scopes) shed from the event log
    /// past its cap; the Chrome trace lacks them.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::device::DeviceProps;
    use crate::fault::GpuFault;

    fn trace_events(json: &str) -> Vec<Vec<(String, Value)>> {
        let v: Value = serde_json::from_str(json).expect("valid JSON");
        let obj = v.as_object().expect("object envelope");
        obj.iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array")
            .iter()
            .map(|e| e.as_object().expect("event object").to_vec())
            .collect()
    }

    fn field(event: &[(String, Value)], name: &str) -> Option<Value> {
        event
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    #[test]
    fn kernel_aggregates_accumulate() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
        // Two launch-bound launches (serialized terms dominate) and one
        // that streams 10 GB.
        let small = KernelCost::streaming(0.0, 100.0);
        let big = KernelCost::streaming(0.0, 1e10);
        dev.charge_kernel("k", Phase::Histogram, &small);
        dev.charge_kernel("k", Phase::Histogram, &big);
        dev.charge_kernel("k", Phase::Histogram, &small);
        dev.charge_ns("other", Phase::SplitEval, 5.0);
        let ns: Vec<f64> = dev.records().iter().map(|r| r.ns).collect();
        let s = dev.profile_summary().expect("profiler attached");
        assert_eq!(s.kernels.len(), 2);
        let k = &s.kernels[0];
        assert_eq!(k.name, "k");
        assert_eq!(k.count, 3);
        assert_eq!(k.total_ns, ns[0] + ns[1] + ns[2]);
        assert_eq!(k.mean_ns, k.total_ns / 3.0);
        assert_eq!(k.max_ns, ns[1]);
        assert_eq!(k.dram_bytes, 100.0 + 1e10 + 100.0);
        assert!(k.occupancy_limited, "2 of 3 launches limited");
        assert!(!s.kernels[1].occupancy_limited);
        assert_eq!(s.kernels[1].dram_bytes, 0.0);
    }

    #[test]
    fn scope_spans_hold_the_charges_issued_inside_each_instance() {
        let dev = Device::rtx4090();
        dev.charge_ns("before", Phase::Other, 1.0);
        {
            let _round = dev.prof_scope("round", Some(0));
            for (level, ns) in [10.0, 15.0].into_iter().enumerate() {
                let _level = dev.prof_scope("level", Some(level as u64));
                let _inner = dev.prof_scope("hist_smem", None);
                dev.stream(1).charge_ns("k", Phase::Histogram, ns);
                dev.charge_ns("j", Phase::Other, 2.0);
            }
            dev.charge_ns("after", Phase::Other, 5.0);
        }
        let spans = dev.scope_spans("level");
        assert_eq!(spans.len(), 2);
        let names: Vec<Vec<&str>> = spans
            .iter()
            .map(|s| s.records.iter().map(|r| r.name).collect())
            .collect();
        assert_eq!(names, [["k", "j"], ["k", "j"]]);
        assert_eq!(spans[1].index, Some(1));
        assert_eq!(spans[1].records[0].ns, 15.0);
        assert_eq!(spans[1].records[0].stream, 1);
        // Clocks are the device makespan at the open and the close:
        // stream 1's builds outlast stream 0's work.
        assert_eq!((spans[0].open_ns, spans[0].close_ns), (1.0, 10.0));
        assert_eq!((spans[1].open_ns, spans[1].close_ns), (10.0, 25.0));
        assert_eq!(dev.scope_spans("round")[0].records.len(), 5);
        assert!(dev.scope_spans("serve_batch").is_empty());
    }

    #[test]
    fn scopes_nest_and_aggregate_by_path() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
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
        // The postmortem names the same scopes by label path.
        let spans: Vec<String> = postmortem("spans", &[dev])
            .events
            .iter()
            .filter(|e| e.kind == "span")
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(spans, ["round 0/level 0", "round 0/level 1", "round 0"]);
    }

    /// Log a scope of `kind` (instance `index`) opening or closing.
    fn scope(l: &mut Ledger, open: bool, kind: &'static str, index: u64) {
        let (index, at_ns) = (Some(index), l.total_ns());
        let mark = Mark { kind, index, at_ns };
        l.append(if open {
            Entry::Open(mark)
        } else {
            Entry::Close(mark)
        });
    }

    /// Three rounds of two levels each, with a fault at the end.
    fn script(l: &mut Ledger) {
        for round in 0..3u64 {
            scope(l, true, "round", round);
            for level in 0..2u64 {
                scope(l, true, "level", level);
                let ns = 10.0 + round as f64 + 0.1 * level as f64;
                l.book(0, "hist", Phase::Histogram, ns, 1, (64.0, level == 0));
                l.charge("split", Phase::SplitEval, 3.0 / 7.0);
                scope(l, false, "level", level);
            }
            scope(l, false, "round", round);
        }
        let fault = GpuFault::DeviceLost {
            device: 0,
            kernel: "split".to_string(),
            charge_index: 11,
        };
        l.append(Entry::Fault(Box::new((fault, l.total_ns()))));
    }

    #[test]
    fn aggregates_stay_exact_past_the_log_cap() {
        let (mut small, mut big) = (Ledger::new(5), Ledger::new(1000));
        script(&mut small);
        script(&mut big);
        let (s, b) = (summarize("dev", &small), summarize("dev", &big));
        assert_eq!(small.records().len(), 2, "the cap bounds the log");
        assert_eq!(s.dropped_records, 10);
        assert_eq!(s.dropped_events, 10 + 7);
        assert_eq!((b.dropped_records, b.dropped_events), (0, 0));
        // Every aggregate is the uncapped one, bit for bit.
        assert_eq!(format!("{:?}", s.kernels), format!("{:?}", b.kernels));
        assert_eq!(format!("{:?}", s.scopes), format!("{:?}", b.scopes));
        assert_eq!(s.kernels[0].count, 6);
        assert_eq!(s.scopes[1].path, "round/level");
        assert_eq!(s.scopes[1].count, 6);
    }

    #[test]
    fn a_capped_postmortem_keeps_the_events_before_the_failure() {
        let (mut small, mut big) = (Ledger::new(5), Ledger::new(1000));
        script(&mut small);
        script(&mut big);
        let (tail, left_out) = flight_tail(0, &small, 4);
        let (full, _) = flight_tail(0, &big, usize::MAX);
        // The last four events, fault last, exactly as the uncapped log
        // renders them: the closing level keeps its round's label even
        // though the round's open was shed.
        let last: Vec<String> = full
            .iter()
            .skip(full.len() - 4)
            .map(|e| format!("{e:?}"))
            .collect();
        assert_eq!(
            tail.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>(),
            last
        );
        let kinds: Vec<&str> = tail.iter().map(|(_, e)| e.kind).collect();
        assert_eq!(kinds, ["charge", "span", "span", "fault"]);
        assert_eq!(tail[1].1.name, "round 2/level 1");
        assert_eq!(left_out as usize, full.len() - 4);
    }

    #[test]
    fn chrome_trace_is_valid_and_scaled_to_micros() {
        let dev = Device::new(3, DeviceProps::rtx4090());
        dev.enable_profiler();
        dev.charge_ns("warmup", Phase::Other, 1000.0);
        dev.charge_ns("k", Phase::Histogram, 2000.0);
        let events = trace_events(&dev.chrome_trace().expect("profiler attached"));
        assert_eq!(events.len(), 2);
        let ev = &events[1];
        assert_eq!(field(ev, "ph"), Some(Value::String("X".to_string())));
        assert_eq!(field(ev, "ts"), Some(Value::Float(1.0)));
        assert_eq!(field(ev, "dur"), Some(Value::Float(2.0)));
        assert_eq!(field(ev, "pid"), Some(Value::UInt(3)));
        assert_eq!(field(ev, "tid"), Some(Value::UInt(0)));
    }

    #[test]
    fn chrome_trace_renders_streams_as_separate_tracks() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
        dev.stream(1).charge_ns("a", Phase::Histogram, 10.0);
        dev.stream(2).charge_ns("b", Phase::Histogram, 10.0);
        let events = trace_events(&dev.chrome_trace().expect("profiler attached"));
        assert_eq!(field(&events[0], "tid"), Some(Value::UInt(1)));
        assert_eq!(field(&events[1], "tid"), Some(Value::UInt(2)));
    }

    #[test]
    fn summary_phase_share() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
        dev.charge_ns("h", Phase::Histogram, 80.0);
        dev.charge_ns("o", Phase::Other, 20.0);
        let s = dev.profile_summary().expect("profiler attached");
        assert!((s.phase_share("Histogram") - 0.8).abs() < 1e-12);
        assert_eq!(s.phase_share("Predict"), 0.0);
    }
}
