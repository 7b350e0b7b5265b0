//! Golden-snapshot tests for the `BENCH_repro.json` schema.
//!
//! The committed fixture pins the exact serialized byte stream of a
//! deterministic report. The field-name tests pin the schema shape to
//! [`BENCH_SCHEMA_VERSION`]: changing any serialized field name or
//! order without bumping the version fails here — that is the bump
//! rule, enforced.

use gbdt_bench::report::{
    diff_gate, make_record, BenchReport, BenchSetup, Output, BENCH_SCHEMA_VERSION,
};
use gbdt_core::config::HistogramMethod;
use gpusim::{Device, Phase};
use serde::Serialize;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/bench_report.json"
);

/// A deterministic two-record report built from fixed ledger charges
/// (no training, no host timing — `host_seconds` is pinned).
fn golden_report() -> BenchReport {
    let device = Device::rtx4090();
    device.charge_ns("binning", Phase::Binning, 500.0);
    device.charge_ns("hist", Phase::Histogram, 3000.0);
    device.charge_ns("split", Phase::SplitEval, 750.5);
    let sim = device.summary();
    let r0 = make_record(
        "MNIST",
        HistogramMethod::SharedMemory,
        "none",
        &sim,
        0.125,
        "accuracy%",
        91.25,
    );

    device.reset();
    device.charge_ns("sketch", Phase::Sketch, 120.0);
    device.charge_ns("hist", Phase::Histogram, 1000.0);
    device.charge_ns("comm", Phase::Comm, 250.0);
    let sim = device.summary();
    let r1 = make_record(
        "RF1",
        HistogramMethod::SortReduce,
        "top4",
        &sim,
        0.5,
        "rmse",
        1.75,
    );

    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        device: "SimRTX4090".to_string(),
        setup: BenchSetup {
            trees: 3,
            depth: 4,
            bins: 32,
            scale: 0.25,
            seed: 42,
            smoke: true,
            streams: 1,
        },
        records: vec![r0, r1],
    }
}

/// Byte-identical to the committed fixture. Regenerate (deliberately)
/// with `UPDATE_GOLDEN=1 cargo test -p gbdt-bench --test bench_schema`
/// and bump `BENCH_SCHEMA_VERSION` if the layout moved.
#[test]
fn bench_json_matches_golden_fixture() {
    let json = golden_report().to_json();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing fixture: run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, want,
        "BENCH json drifted from tests/golden/bench_report.json; if \
         intentional, bump BENCH_SCHEMA_VERSION and regenerate with \
         UPDATE_GOLDEN=1"
    );
}

/// The serialized field names are pinned to schema version 5 (v4 added
/// `overlap_saved_ns` to records and `streams` to the setup for the
/// multi-stream timeline; v5 added the `dropped_records` /
/// `negative_charges` ledger health counters to records).
#[test]
fn bench_schema_field_names_are_pinned_to_version() {
    assert_eq!(
        BENCH_SCHEMA_VERSION, 5,
        "schema version changed: update the pinned field lists below"
    );
    let v = golden_report().to_value();
    let obj = v.as_object().expect("report object");
    let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["schema_version", "device", "setup", "records"],
        "BenchReport fields changed — bump BENCH_SCHEMA_VERSION"
    );

    let setup = obj
        .iter()
        .find(|(k, _)| k == "setup")
        .and_then(|(_, v)| v.as_object())
        .expect("setup object");
    let skeys: Vec<&str> = setup.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        skeys,
        ["trees", "depth", "bins", "scale", "seed", "smoke", "streams"],
        "BenchSetup fields changed — bump BENCH_SCHEMA_VERSION"
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
            "hist_method",
            "sketch",
            "metric_name",
            "metric",
            "sim_seconds",
            "host_seconds",
            "hist_share",
            "phase_ns",
            "kernel_count",
            "overlap_saved_ns",
            "dropped_records",
            "negative_charges",
        ],
        "BenchRecord fields changed — bump BENCH_SCHEMA_VERSION"
    );

    // Every Phase variant appears as a phase_ns key in every record —
    // the same invariant repo-lint checks textually.
    let phases = r0
        .iter()
        .find(|(k, _)| k == "phase_ns")
        .and_then(|(_, v)| v.as_object())
        .expect("phase_ns object");
    assert_eq!(phases.len(), Phase::ALL.len());
    for p in Phase::ALL {
        assert!(
            phases.iter().any(|(k, _)| k == p.name()),
            "phase {p:?} missing from phase_ns"
        );
    }
}

/// from_json is a strict validator: wrong version, missing fields, and
/// missing phase keys are all parse errors, not silent defaults.
#[test]
fn from_json_rejects_schema_violations() {
    let good = golden_report().to_json();
    assert!(BenchReport::from_json(&good).is_ok());

    // Version bump without a reader upgrade is rejected.
    let bumped = good.replace("\"schema_version\":5", "\"schema_version\":6");
    let err = BenchReport::from_json(&bumped).expect_err("must reject");
    assert!(err.contains("schema_version"), "{err}");

    // Dropping a required field is rejected by the deserializer.
    let missing = good.replace("\"hist_share\":", "\"hist_share_renamed\":");
    assert!(BenchReport::from_json(&missing).is_err());

    // Dropping a phase key is rejected by the validator.
    let no_phase = good.replace("\"Idle\":0.0,", "");
    let err = BenchReport::from_json(&no_phase).expect_err("must reject");
    assert!(err.contains("Idle"), "{err}");

    // Garbage is rejected outright.
    assert!(BenchReport::from_json("{not json").is_err());
}

/// Round-trip stability: parse(to_json(r)) == r byte-for-byte when
/// re-serialized — the fixture can be diffed across runs.
#[test]
fn bench_json_round_trips_byte_identically() {
    let r = golden_report();
    let json = r.to_json();
    let back = BenchReport::from_json(&json).expect("round-trip");
    assert_eq!(back.to_json(), json);
    // And a self-diff passes the regression gate with zero failures.
    assert!(diff_gate(&back, &r).is_empty());
}

/// The write-validate-gate path `repro bench` runs, in a scratch
/// directory: `--update-baseline` blesses the run and `--check` against
/// it passes; a baseline with one simulated ns more in one phase fails
/// the gate, naming the record; a missing or bumped-version baseline,
/// or `--check` without one, is an error, not a panic.
#[test]
fn emit_blesses_gates_and_rejects_bad_baselines() {
    let dir = std::env::temp_dir().join(format!("bench-schema-emit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (out, baseline) = (path("BENCH_repro.json"), path("BENCH_baseline.json"));
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
    *moved.records[0].phase_ns.get_mut("Histogram").unwrap() += 1.0;
    std::fs::write(&baseline, moved.to_json()).unwrap();
    let err = r.emit(&check).expect_err("the gate must fail");
    let head = format!("bench: FAILED regression gate vs {baseline}:");
    assert!(err.starts_with(&head), "{err}");
    assert!(
        err.contains("MNIST/smem/none: phase_ns[Histogram] 3001 -> 3000 (-1 ns)"),
        "{err}"
    );

    let bumped = r
        .to_json()
        .replace("\"schema_version\":5", "\"schema_version\":6");
    std::fs::write(&baseline, bumped).unwrap();
    let err = r.emit(&check).expect_err("bumped baseline");
    assert!(err.contains("invalid baseline"), "{err}");
    assert!(err.contains("schema_version 6 != supported 5"), "{err}");
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
