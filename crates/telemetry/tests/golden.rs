//! Golden-snapshot test for the telemetry JSON exporter.
//!
//! The registry is deterministic (BTreeMap ordering, fixed bucket
//! bounds, no wall-clock anywhere), so a fixed synthetic workload
//! exports a **byte-identical** document every run. The committed
//! fixture pins that byte stream; any change to field names, ordering,
//! or float formatting must be deliberate and must bump
//! [`TELEMETRY_SCHEMA_VERSION`].

use serde::Value;
use std::borrow::Cow;
use telemetry::{FlightEvent, Logged, Postmortem, Telemetry, TELEMETRY_SCHEMA_VERSION};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/telemetry.golden.json"
);

/// A fixed synthetic registry exercising every section of the export:
/// counters, gauges, histograms (with an overflow-adjacent value),
/// logged-entry counts, and a postmortem of two devices. (What devices
/// put into a postmortem is tested through real devices in
/// `crates/gpusim/tests/postmortem.rs`.)
fn golden_registry() -> Telemetry {
    let tel = Telemetry::new();
    tel.counter_add("train.rounds_total", 5);
    tel.counter_inc("train.retries_total");
    tel.gauge_set("train.pool_high_water", 6.0);
    tel.gauge_set("serve.batch_fill_ratio", 0.75);
    tel.hist_observe("train.split_gain", 0.5);
    tel.hist_observe("train.split_gain", 3.25);
    tel.hist_observe("serve.latency_ns", 1500.0);
    for kind in [Logged::Charge; 5] {
        tel.count_logged(kind);
    }
    tel.count_logged(Logged::Fault);
    tel.count_logged(Logged::Span);
    let event =
        |seq, kind, device, name: &'static str, detail, start_ns, end_ns, stream| FlightEvent {
            seq,
            kind,
            device,
            name: Cow::Borrowed(name),
            detail,
            start_ns,
            end_ns,
            stream,
        };
    tel.push_postmortem(Postmortem {
        reason: "DeviceLost at round 2 (golden fixture)".to_string(),
        events: vec![
            event(0, "charge", 1, "hist_build", "Histogram", 0.0, 1100.0, 0),
            event(1, "fault", 1, "transient fault", "", 1100.0, 1100.0, 0),
            event(4, "charge", 0, "all_gather", "Comm", 1500.0, 1590.5, 2),
            event(5, "charge", 0, "partition", "Partition", 1590.5, 1632.5, 1),
            event(6, "span", 0, "round 0/level 1", "", 0.0, 1632.5, 0),
        ],
        dropped_events: 2,
    });
    tel
}

/// The export is byte-identical to the committed fixture. Regenerate
/// after an intentional change with
/// `UPDATE_GOLDEN=1 cargo test -p telemetry --test golden`.
#[test]
fn telemetry_json_matches_golden_fixture() {
    let json = golden_registry().to_json();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing fixture: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, want,
        "telemetry JSON drifted from tests/golden/telemetry.golden.json; \
         if intentional, bump TELEMETRY_SCHEMA_VERSION and regenerate \
         with UPDATE_GOLDEN=1"
    );
}

/// Structural contract, independent of the byte fixture: the envelope
/// carries exactly the documented sections, in order, and the schema
/// header matches the crate constant.
#[test]
fn telemetry_json_sections_are_stable() {
    let json = golden_registry().to_json();
    let v: Value = serde_json::from_str(&json).expect("valid JSON");
    let obj = v.as_object().expect("envelope object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "telemetry_schema_version",
            "counters",
            "gauges",
            "histograms",
            "recorder",
            "postmortems",
        ],
        "envelope sections changed — bump TELEMETRY_SCHEMA_VERSION"
    );
    let (_, ver) = &obj[0];
    assert_eq!(ver, &Value::UInt(TELEMETRY_SCHEMA_VERSION as u64));

    // Every postmortem event carries the pinned field set.
    let (_, postmortems) = obj
        .iter()
        .find(|(k, _)| k == "postmortems")
        .expect("postmortems");
    for pm in postmortems.as_array().expect("postmortem array") {
        let (_, events) = pm
            .as_object()
            .expect("postmortem object")
            .iter()
            .find(|(k, _)| k == "events")
            .expect("events");
        for e in events.as_array().expect("events array") {
            let ekeys: Vec<&str> = e
                .as_object()
                .expect("event object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                ekeys,
                ["seq", "kind", "device", "name", "detail", "start_ns", "end_ns", "stream"],
                "event fields changed — bump TELEMETRY_SCHEMA_VERSION"
            );
        }
    }
}

/// The registry keeps the postmortem it was handed, and its standalone
/// JSON carries the same events.
#[test]
fn golden_registry_keeps_its_postmortem() {
    let tel = golden_registry();
    let pms = tel.postmortems();
    assert_eq!(pms.len(), 1);
    assert_eq!(pms[0].dropped_events, 2);
    assert_eq!(pms[0].events.len(), 5);
    let json = tel.last_postmortem_json().expect("postmortem present");
    let v: Value = serde_json::from_str(&json).expect("postmortem JSON parses");
    let (_, events) = v
        .as_object()
        .expect("postmortem object")
        .iter()
        .find(|(k, _)| k == "events")
        .expect("events");
    assert_eq!(events.as_array().map(|a| a.len()), Some(5));
}
