//! repo-lint v2: token-level static analysis for the simulated-GPU codebase.
//!
//! Zero external dependencies. Three layers:
//!
//! 1. [`lexer`] — a small Rust lexer (nested block comments, raw strings,
//!    char literals vs lifetimes) so rules see tokens, never text.
//! 2. [`file`] — per-file facts: function table with call sets, every
//!    `charge_kernel`/`charge_ns` site with statically resolved names,
//!    sanitizer `scope("…")` literals, `#[cfg(test)]` masking, and
//!    `lint:allow(rule): reason` waivers.
//! 3. [`contract`] — the cross-file kernel contract: canonical names, bench
//!    phase schema, profiler-scope reachability, sanitizer coverage, and the
//!    DESIGN.md kernel inventory — plus determinism-hazard lints.
//!
//! Diagnostics are emitted both human-readable and as versioned JSON
//! ([`report::LINT_SCHEMA_VERSION`]); ci.sh gates on a clean workspace run
//! and golden-tests the JSON for the `bad_repo` fixture.

pub mod contract;
pub mod file;
pub mod lexer;
pub mod report;

pub use contract::{lint_phase_schema, phase_variants, Workspace};
pub use file::{apply_waivers, SourceFile};
pub use report::{Finding, Report, LINT_SCHEMA_VERSION};

use std::path::{Path, PathBuf};

fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) {
    if root.is_file() {
        out.push(root.to_path_buf());
        return;
    }
    let Ok(rd) = std::fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs_files(&p, out);
        } else {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".rs") || name.ends_with(".rs.txt") {
                out.push(p);
            }
        }
    }
}

/// Style-only mode: lint explicit roots (files or directories) with the
/// per-file rules — no cross-file contract. This is what `repo-lint <paths>`
/// runs and what the ci.sh fixture self-check relies on.
pub fn lint_roots(roots: &[PathBuf]) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for root in roots {
        let mut paths = Vec::new();
        collect_rs_files(root, &mut paths);
        for p in paths {
            let display = p.to_string_lossy().replace('\\', "/");
            let src = std::fs::read_to_string(&p)?;
            files.push(SourceFile::parse(&display, &src));
        }
    }
    let mut findings = Vec::new();
    for sf in &files {
        findings.extend(sf.style_findings());
        findings.extend(sf.hazard_findings());
    }
    let refs: Vec<&SourceFile> = files.iter().collect();
    // The contract rules do not run here, so their waivers cannot be
    // judged stale.
    apply_waivers(&mut findings, &refs, false);
    let mut report = Report::default();
    report.summary.files_scanned = files.len() as u32;
    report.diagnostics = findings;
    report.finalize();
    Ok(report)
}

/// Full-contract mode: load the workspace rooted at `root` (real repo or a
/// `.rs.txt` fixture tree with the same `crates/*/src` layout) and run every
/// check.
pub fn lint_workspace(root: &Path) -> Report {
    Workspace::load(root).check()
}
