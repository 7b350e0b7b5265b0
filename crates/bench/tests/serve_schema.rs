//! Golden-snapshot tests for the `SERVE_repro.json` schema, mirroring
//! `bench_schema.rs`: the committed fixture pins the exact serialized
//! byte stream of a deterministic report, and the field-name test pins
//! the schema shape to [`SERVE_SCHEMA_VERSION`].

use gbdt_bench::report::{
    serve_diff_gate, serve_self_check, Output, ServeRecord, ServeReport, ServeSetup,
    SERVE_SCHEMA_VERSION,
};
use serde::Serialize;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/serve_report.json"
);

/// A deterministic report with hand-pinned quantities (no training, no
/// simulation — every float is a literal).
fn golden_report() -> ServeReport {
    let rec = |mode: &str, predict: &str, batches: u64, rps: f64| ServeRecord {
        dataset: "NUS-WIDE".to_string(),
        mode: mode.to_string(),
        predict: predict.to_string(),
        rows: 60,
        batches,
        latency_p50_ns: 1250.5,
        latency_p99_ns: 4900.25,
        throughput_rps: rps,
        serve_ns: 75_000.0,
        upload_ns: 14_000.5,
        resident_bytes: 2428,
    };
    ServeReport {
        schema_version: SERVE_SCHEMA_VERSION,
        device: "SimRTX4090".to_string(),
        setup: ServeSetup {
            trees: 3,
            depth: 4,
            bins: 32,
            scale: 0.25,
            seed: 42,
            smoke: true,
            batch: 256,
            rows: 60,
        },
        instance_predict_ns: 1225.0,
        tree_predict_ns: 4891.5,
        batched_speedup: 57.5,
        bit_identical: true,
        records: vec![
            rec("single", "instance", 60, 832_000.0),
            rec("batched", "instance", 1, 47_900_000.0),
            rec("batched", "tree", 1, 12_200_000.0),
        ],
    }
}

/// Byte-identical to the committed fixture. Regenerate (deliberately)
/// with `UPDATE_GOLDEN=1 cargo test -p gbdt-bench --test serve_schema`
/// and bump `SERVE_SCHEMA_VERSION` if the layout moved.
#[test]
fn serve_json_matches_golden_fixture() {
    let json = golden_report().to_json();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing fixture: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, want,
        "SERVE json drifted from tests/golden/serve_report.json; if \
         intentional, bump SERVE_SCHEMA_VERSION and regenerate with \
         UPDATE_GOLDEN=1"
    );
}

/// The serialized field names are pinned to schema version 1.
#[test]
fn serve_schema_field_names_are_pinned_to_version() {
    assert_eq!(
        SERVE_SCHEMA_VERSION, 1,
        "schema version changed: update the pinned field lists below"
    );
    let v = golden_report().to_value();
    let obj = v.as_object().expect("report object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema_version",
            "device",
            "setup",
            "instance_predict_ns",
            "tree_predict_ns",
            "batched_speedup",
            "bit_identical",
            "records",
        ],
        "ServeReport fields changed — bump SERVE_SCHEMA_VERSION"
    );

    let setup = obj
        .iter()
        .find(|(k, _)| k == "setup")
        .and_then(|(_, v)| v.as_object())
        .expect("setup object");
    let skeys: Vec<&str> = setup.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        skeys,
        ["trees", "depth", "bins", "scale", "seed", "smoke", "batch", "rows"],
        "ServeSetup fields changed — bump SERVE_SCHEMA_VERSION"
    );

    let records = obj
        .iter()
        .find(|(k, _)| k == "records")
        .and_then(|(_, v)| v.as_array())
        .expect("records array");
    let r0 = records[0].as_object().expect("record object");
    let rkeys: Vec<&str> = r0.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        rkeys,
        [
            "dataset",
            "mode",
            "predict",
            "rows",
            "batches",
            "latency_p50_ns",
            "latency_p99_ns",
            "throughput_rps",
            "serve_ns",
            "upload_ns",
            "resident_bytes",
        ],
        "ServeRecord fields changed — bump SERVE_SCHEMA_VERSION"
    );
}

/// from_json is a strict validator: wrong version, missing fields and
/// unknown mode/predict keys are parse errors, not silent defaults.
#[test]
fn from_json_rejects_schema_violations() {
    let good = golden_report().to_json();
    assert!(ServeReport::from_json(&good).is_ok());

    let bumped = good.replace("\"schema_version\":1", "\"schema_version\":2");
    let err = ServeReport::from_json(&bumped).expect_err("must reject");
    assert!(err.contains("schema_version"), "{err}");

    let missing = good.replace("\"throughput_rps\":", "\"throughput\":");
    assert!(ServeReport::from_json(&missing).is_err());

    let bad_mode = good.replace("\"mode\":\"single\"", "\"mode\":\"streamed\"");
    let err = ServeReport::from_json(&bad_mode).expect_err("must reject");
    assert!(err.contains("unknown mode"), "{err}");

    assert!(ServeReport::from_json("{not json").is_err());
}

/// Round-trip stability plus self-diff and self-check cleanliness: the
/// fixture is a healthy report and diffs against itself with zero
/// failures.
#[test]
fn serve_json_round_trips_and_gates_clean() {
    let r = golden_report();
    let json = r.to_json();
    let back = ServeReport::from_json(&json).expect("round-trip");
    assert_eq!(back.to_json(), json);
    assert!(serve_self_check(&back).is_empty());
    assert!(serve_diff_gate(&back, &r).is_empty());
}

/// The write-validate-gate path `repro serve` runs, in a scratch
/// directory: `--update-baseline` blesses the run and `--check` against
/// it passes; a baseline with 64 more resident bytes fails the gate,
/// naming the record; a missing or bumped-version baseline, or
/// `--check` without one, is an error, not a panic.
#[test]
fn emit_blesses_gates_and_rejects_bad_baselines() {
    let dir = std::env::temp_dir().join(format!("serve-schema-emit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (out, baseline) = (path("SERVE_repro.json"), path("SERVE_baseline.json"));
    let r = golden_report();
    let bless = Output {
        out: &out,
        baseline: Some(&baseline),
        update_baseline: true,
        check: false,
    };
    r.emit(&bless).expect("bless");
    assert_eq!(std::fs::read_to_string(&out).unwrap(), r.to_json());
    assert_eq!(std::fs::read_to_string(&baseline).unwrap(), r.to_json());
    let check = Output {
        update_baseline: false,
        check: true,
        ..bless
    };
    r.emit(&check).expect("check against the blessed baseline");

    let mut moved = r.clone();
    moved.records[0].resident_bytes += 64;
    std::fs::write(&baseline, moved.to_json()).unwrap();
    let err = r.emit(&check).expect_err("the gate must fail");
    let head = format!("serve: FAILED regression gate vs {baseline}:");
    assert!(err.starts_with(&head), "{err}");
    assert!(
        err.contains("NUS-WIDE/single/instance: resident bytes changed 2492 -> 2428"),
        "{err}"
    );

    let bumped = r
        .to_json()
        .replace("\"schema_version\":1", "\"schema_version\":2");
    std::fs::write(&baseline, bumped).unwrap();
    let err = r.emit(&check).expect_err("bumped baseline");
    assert!(err.contains("invalid baseline"), "{err}");
    assert!(err.contains("schema_version 2 != supported 1"), "{err}");
    std::fs::remove_file(&baseline).unwrap();
    let err = r.emit(&check).expect_err("no baseline file");
    assert!(err.contains("cannot read baseline"), "{err}");
    let unnamed = Output {
        baseline: None,
        ..check
    };
    let err = r.emit(&unnamed).expect_err("no --baseline");
    assert!(err.contains("--check requires --baseline FILE"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}
