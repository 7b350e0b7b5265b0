//! Golden-pins the versioned JSON diagnostics emitted for the bad_repo
//! fixture tree, and asserts every rule introduced by repo-lint v2 fires
//! there. Regenerate the golden file with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p repo-lint --test golden_json
//! ```

use repo_lint::contract::Workspace;

fn fixture(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

#[test]
fn bad_repo_json_matches_golden() {
    let ws = Workspace::load(&fixture("bad_repo"));
    let json = ws.check().to_json();
    let golden_path = fixture("bad_repo.golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("read golden (run with UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        json, golden,
        "bad_repo JSON diagnostics drifted from golden; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn bad_repo_fires_every_v2_rule() {
    let ws = Workspace::load(&fixture("bad_repo"));
    let report = ws.check();
    let fired: std::collections::BTreeSet<&str> =
        report.diagnostics.iter().map(|f| f.rule).collect();
    for rule in [
        "phase_in_bench_schema",
        "canonical_kernel_name",
        "metric_name_canonical",
        "prof_coverage",
        "sanitize",
        "design_inventory",
        "hashmap_iteration",
        "unordered_float_reduce",
        "waiver_without_reason",
        "unused_waiver",
        "unwrap_in_lib",
    ] {
        assert!(fired.contains(rule), "rule {rule} did not fire on bad_repo");
    }
    // The reasoned waivers in `lonely` must surface as waived, not vanish.
    assert!(report
        .diagnostics
        .iter()
        .any(|f| f.rule == "sanitize" && f.waived));
    assert!(report
        .diagnostics
        .iter()
        .any(|f| f.rule == "design_inventory" && f.waived));
    // The reasonless waiver must NOT suppress its target rule.
    assert!(report
        .diagnostics
        .iter()
        .any(|f| f.rule == "unwrap_in_lib" && !f.waived));
}

/// Fault-recovery charge sites get no special pass: an unchecksummed
/// fault-path kernel (charged during retry/recovery, no sanitizer
/// replay, no inventory entry, outside any profiler scope) must trip
/// the full kernel contract, not slide by as "error handling".
#[test]
fn unchecksummed_fault_path_kernel_fires_the_contract() {
    let ws = Workspace::load(&fixture("bad_repo"));
    let report = ws.check();
    for kernel in ["retry_replay", "recovery_checksum"] {
        for rule in ["sanitize", "prof_coverage", "design_inventory"] {
            assert!(
                report.diagnostics.iter().any(|f| {
                    f.rule == rule
                        && !f.waived
                        && f.file.ends_with("fault_path.rs.txt")
                        && f.message.contains(kernel)
                }),
                "rule {rule} did not fire on fault-path kernel {kernel}"
            );
        }
    }
}

#[test]
fn bad_repo_schema_header_and_version() {
    let ws = Workspace::load(&fixture("bad_repo"));
    let json = ws.check().to_json();
    assert!(json.starts_with(&format!(
        "{{\n  \"lint_schema_version\": {},",
        repo_lint::report::LINT_SCHEMA_VERSION
    )));
}

#[test]
fn good_repo_is_contract_clean() {
    let ws = Workspace::load(&fixture("good_repo"));
    let report = ws.check();
    assert_eq!(
        report.violations(),
        0,
        "good_repo must satisfy the full contract; got: {:#?}",
        report.diagnostics
    );
    assert_eq!(report.summary.kernels, 1);
}
