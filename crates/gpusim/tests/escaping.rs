//! JSON string-escaping round-trips for the exporters that embed
//! free-form names: the profiler's Chrome trace, the telemetry
//! registry's schema-versioned envelope and the postmortem.
//!
//! Kernel names and scope labels are source-code identifiers today, but
//! nothing in the charge API forbids quotes, backslashes or non-ASCII —
//! and fault descriptions (which land in postmortem event names)
//! interpolate error messages that may contain anything. A
//! single unescaped `"` would turn a postmortem dump into invalid JSON
//! at exactly the moment it matters most, so every exporter must
//! produce parseable output whose strings round-trip byte-for-byte.

use gpusim::{postmortem, Device, FaultPlan, Phase, Telemetry};
use serde::Value;

/// Names exercising the JSON escape table: quote, backslash, control
/// characters, and multi-byte UTF-8.
const HOSTILE: [&str; 4] = [
    "kernel \"quoted\"",
    "back\\slash\\path",
    "tab\there\nnewline",
    "hïst_κernel_構築",
];

fn names_in(v: &Value) -> Vec<String> {
    // Collect every string value in the document, recursively.
    let mut out = Vec::new();
    match v {
        Value::String(s) => out.push(s.clone()),
        Value::Array(items) => {
            for i in items {
                out.extend(names_in(i));
            }
        }
        Value::Object(fields) => {
            for (_, f) in fields.iter() {
                out.extend(names_in(f));
            }
        }
        _ => {}
    }
    out
}

#[test]
fn chrome_trace_escapes_hostile_kernel_names() {
    let device = Device::rtx4090();
    device.enable_profiler();
    for name in HOSTILE {
        device.charge_ns(name, Phase::Other, 100.0);
    }
    let trace = device.chrome_trace().expect("profiler attached");
    let doc: Value = serde_json::from_str(&trace).expect("trace must stay valid JSON");
    let strings = names_in(&doc);
    for name in HOSTILE {
        assert!(
            strings.iter().any(|s| s == name),
            "kernel name {name:?} did not round-trip; strings: {strings:?}"
        );
    }
}

#[test]
fn telemetry_json_escapes_hostile_metric_names() {
    let tel = Telemetry::new();
    for name in HOSTILE {
        tel.counter_inc(name);
        tel.gauge_set(name, 1.5);
        tel.hist_observe(name, 42.0);
    }
    let json = tel.to_json();
    let doc: Value = serde_json::from_str(&json).expect("telemetry must stay valid JSON");
    let obj = doc.as_object().expect("envelope is an object");
    for section in ["counters", "gauges", "histograms"] {
        let (_, sec) = obj
            .iter()
            .find(|(k, _)| k == section)
            .unwrap_or_else(|| panic!("missing section {section}"));
        let keys: Vec<&str> = sec
            .as_object()
            .expect("section is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for name in HOSTILE {
            assert!(
                keys.contains(&name),
                "metric name {name:?} did not round-trip in {section}; keys: {keys:?}"
            );
        }
    }
}

#[test]
fn flight_recorder_postmortem_escapes_hostile_details() {
    let device = Device::rtx4090();
    let tel = device.enable_telemetry();
    let plan = (0..HOSTILE.len() as u64).fold(FaultPlan::new(), FaultPlan::transient_at);
    device.enable_faults(plan);
    for name in HOSTILE {
        device.charge_ns(name, Phase::Other, 10.0);
        // Each charge faults; the poll logs a description naming it.
        assert!(device.poll_fault().is_err());
    }
    let reason = "seeded \"loss\" on device\\0\nκατάρρευση";
    tel.push_postmortem(postmortem(reason, &[device]));
    let json = tel.last_postmortem_json().expect("postmortem recorded");
    let doc: Value = serde_json::from_str(&json).expect("postmortem must stay valid JSON");
    let strings = names_in(&doc);
    for name in HOSTILE {
        assert!(
            strings.iter().any(|s| s == name || s.contains(name)),
            "event name {name:?} did not round-trip; strings: {strings:?}"
        );
    }
    assert!(
        strings
            .iter()
            .any(|s| s.contains("seeded \"loss\" on device\\0\nκατάρρευση")),
        "postmortem reason did not round-trip"
    );
}

#[test]
fn scope_labels_with_hostile_names_round_trip_via_trace() {
    let device = Device::rtx4090();
    device.enable_profiler();
    {
        let _scope = device.prof_scope("round \"zero\"", Some(7));
        device.charge_ns("inner", Phase::Other, 50.0);
    }
    let trace = device.chrome_trace().expect("profiler attached");
    let doc: Value = serde_json::from_str(&trace).expect("trace must stay valid JSON");
    assert!(
        names_in(&doc).iter().any(|s| s.contains("round \"zero\"")),
        "hostile scope label missing from trace"
    );
    let pm_doc: Value = serde_json::from_str(&postmortem("spans", &[device]).to_json())
        .expect("postmortem must stay valid JSON");
    assert!(
        names_in(&pm_doc)
            .iter()
            .any(|s| s.contains("round \"zero\" 7")),
        "hostile span label missing from the postmortem"
    );
}
