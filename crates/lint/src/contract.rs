//! The kernel contract: cross-file consistency checks over every charge site.
//!
//! A kernel charged to the device ledger must stay consistent across five
//! artifacts — its ledger charge, its cost formula, its sanitizer access
//! trace, its profiler phase, and its DESIGN.md / bench-schema entry. This
//! module builds a workspace-wide symbol table of charge sites (from the
//! per-file analysis) and enforces:
//!
//! - `canonical_kernel_name` — names are `lower_snake` and no two production
//!   kernel names sit one edit apart (typo guard); sibling families that
//!   legitimately differ by one character carry a reasoned waiver.
//! - `metric_name_canonical` — telemetry registry names (`counter_add` /
//!   `counter_inc` / `gauge_set` / `hist_observe` first arguments) are
//!   dotted `lower_snake` and no two production metric names sit one edit
//!   apart — a typo'd metric silently forks its time series.
//! - `phase_in_bench_schema` — every charged `Phase::…` exists in the enum
//!   and has a `"…"` key in the bench schema (both per-site and enum-level).
//! - `prof_coverage` — every `charge_kernel` site is reachable from a
//!   function that opens a profiler scope (`prof_scope`), so kernel time can
//!   always be attributed to a scope in PROF_repro.json.
//! - `sanitize` — every charged kernel has an access-trace replay (a
//!   same-function `trace*` call or a literal sanitizer `.scope("name")`
//!   somewhere in library code) or a reasoned `lint:allow(sanitize)` waiver.
//! - `design_inventory` — every charged kernel name appears (backticked) in
//!   DESIGN.md's kernel inventory.

use crate::file::{ChargeSite, SourceFile};
use crate::lexer::{lex, TokKind};
use crate::report::{Finding, KernelRow, Report};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Parse the variant names of `enum Phase { … }` from the device module
/// source. Empty when no such enum is present (e.g. style-only fixture runs).
pub fn phase_variants(device_src: &str) -> Vec<String> {
    let lexed = lex(device_src);
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        if toks[i].ident() != Some("enum")
            || toks.get(i + 1).and_then(|t| t.ident()) != Some("Phase")
            || !toks.get(i + 2).is_some_and(|t| t.is_punct('{'))
        {
            continue;
        }
        let mut out = Vec::new();
        let mut depth = 1i32;
        let mut expect = true;
        let mut j = i + 3;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                    depth += 1;
                    expect = false;
                }
                TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(',') if depth == 1 => expect = true,
                TokKind::Punct('#') if depth == 1 => {
                    // Variant attribute: skip `#[…]` without consuming the
                    // "expect a variant next" state.
                    if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
                        let mut d = 1i32;
                        j += 2;
                        while j < toks.len() && d > 0 {
                            match toks[j].kind {
                                TokKind::Punct('[') => d += 1,
                                TokKind::Punct(']') => d -= 1,
                                _ => {}
                            }
                            j += 1;
                        }
                        continue;
                    }
                }
                TokKind::Ident(s) if depth == 1 && expect => {
                    out.push(s.clone());
                    expect = false;
                }
                _ => {
                    if depth == 1 {
                        expect = false;
                    }
                }
            }
            j += 1;
        }
        return out;
    }
    Vec::new()
}

/// Enum-level rule `phase_in_bench_schema`: every `Phase` variant must appear
/// as a `"Variant"` string in the bench schema module (`phase_key`). A
/// variant the schema never names would drop out of BENCH_repro.json
/// unnoticed.
pub fn lint_phase_schema(
    device_display: &str,
    device_src: &str,
    report_display: &str,
    report_src: &str,
) -> Vec<Finding> {
    let variants = phase_variants(device_src);
    let keys: BTreeSet<String> = lex(report_src)
        .toks
        .iter()
        .filter_map(|t| t.str_lit().map(|s| s.to_string()))
        .collect();
    let mut findings = Vec::new();
    for v in &variants {
        if !keys.contains(v) {
            findings.push(Finding::new(
                "phase_in_bench_schema",
                report_display,
                1,
                format!(
                    "Phase::{v} (declared in {device_display}) has no \"{v}\" key in the bench schema — add it to phase_key and bump BENCH_SCHEMA_VERSION"
                ),
            ));
        }
    }
    findings
}

/// True when `a` and `b` are exactly one edit (substitution, insertion, or
/// deletion) apart.
fn one_edit_apart(a: &str, b: &str) -> bool {
    let (a, b) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (ab, bb) = (a.as_bytes(), b.as_bytes());
    match bb.len() - ab.len() {
        0 => ab.iter().zip(bb).filter(|(x, y)| x != y).count() == 1,
        1 => {
            let mut i = 0usize;
            while i < ab.len() && ab[i] == bb[i] {
                i += 1;
            }
            ab[i..] == bb[i + 1..]
        }
        _ => false,
    }
}

fn is_lower_snake(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => {}
        _ => return false,
    }
    name.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Canonical telemetry metric name: dot-separated `lower_snake` segments
/// (`train.hist_method_shared`), at least one segment, none empty.
fn is_lower_snake_dotted(name: &str) -> bool {
    !name.is_empty() && name.split('.').all(is_lower_snake)
}

/// A workspace to check: device-charged library crates (core, gpusim) whose
/// charge sites carry the full contract, plus observing crates (bench,
/// baselines) whose sites only get name/phase checks.
pub struct Workspace {
    pub charged: Vec<SourceFile>,
    pub observed: Vec<SourceFile>,
    pub design: Option<String>,
    pub device: Option<(String, String)>,
    pub report: Option<(String, String)>,
}

/// Crate roots relative to the workspace root. `.rs.txt` fixture trees use
/// the same layout.
const CHARGED_ROOTS: &[&str] = &["crates/core/src", "crates/gpusim/src"];
const OBSERVED_ROOTS: &[&str] = &["crates/bench/src", "crates/baselines/src"];

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".rs") || name.ends_with(".rs.txt") {
                out.push(p);
            }
        }
    }
}

impl Workspace {
    /// Build a workspace from in-memory sources; paths are `/`-separated and
    /// relative to the workspace root (`crates/core/src/…`).
    pub fn from_sources(design: Option<String>, files: Vec<(String, String)>) -> Workspace {
        let mut w = Workspace {
            charged: Vec::new(),
            observed: Vec::new(),
            design,
            device: None,
            report: None,
        };
        for (path, src) in files {
            let trimmed = path.trim_end_matches(".txt");
            if trimmed.ends_with("gpusim/src/device.rs") {
                w.device = Some((path.clone(), src.clone()));
            }
            if trimmed.ends_with("bench/src/report.rs") {
                w.report = Some((path.clone(), src.clone()));
            }
            let sf = SourceFile::parse(&path, &src);
            if CHARGED_ROOTS.iter().any(|r| path.starts_with(r)) {
                w.charged.push(sf);
            } else {
                w.observed.push(sf);
            }
        }
        w
    }

    /// Load a workspace from disk. Missing crate roots are skipped, so
    /// fixture trees only need the files their rules exercise.
    pub fn load(root: &Path) -> Workspace {
        let mut files = Vec::new();
        for sub in CHARGED_ROOTS.iter().chain(OBSERVED_ROOTS) {
            let mut paths = Vec::new();
            collect_files(&root.join(sub), &mut paths);
            for p in paths {
                let display = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .to_string_lossy()
                    .replace('\\', "/");
                if let Ok(src) = std::fs::read_to_string(&p) {
                    files.push((display, src));
                }
            }
        }
        let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Workspace::from_sources(design, files)
    }

    fn all_files(&self) -> Vec<&SourceFile> {
        self.charged.iter().chain(self.observed.iter()).collect()
    }

    /// Function names transitively reachable from any profiler-scope opener.
    fn prof_covered_names(&self) -> BTreeSet<String> {
        let mut covered: BTreeSet<String> = BTreeSet::new();
        loop {
            let mut changed = false;
            for sf in self.all_files() {
                for f in &sf.fns {
                    if f.is_test {
                        continue;
                    }
                    if f.opens_prof || covered.contains(&f.name) {
                        for c in &f.calls {
                            changed |= covered.insert(c.clone());
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        covered
    }

    /// Run every check and assemble the structured report (waivers applied,
    /// diagnostics sorted).
    pub fn check(&self) -> Report {
        let mut findings: Vec<Finding> = Vec::new();
        let mut report = Report::default();
        report.summary.files_scanned = (self.charged.len() + self.observed.len()) as u32;

        // Style + determinism hazards: device-charged library crates only.
        for sf in &self.charged {
            findings.extend(sf.style_findings());
            findings.extend(sf.hazard_findings());
        }

        // Phase enum vs bench schema (enum-level).
        let variants: BTreeSet<String> = self
            .device
            .as_ref()
            .map(|(_, src)| phase_variants(src).into_iter().collect())
            .unwrap_or_default();
        let schema_keys: BTreeSet<String> = self
            .report
            .as_ref()
            .map(|(_, src)| {
                lex(src)
                    .toks
                    .iter()
                    .filter_map(|t| t.str_lit().map(|s| s.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        if let (Some((dp, ds)), Some((rp, rs))) = (&self.device, &self.report) {
            findings.extend(lint_phase_schema(dp, ds, rp, rs));
        }

        // Site-level phase checks + canonical-name collection, across charged
        // AND observing crates.
        let mut name_sites: BTreeMap<String, Vec<(&SourceFile, &ChargeSite)>> = BTreeMap::new();
        let mut dynamic_sites = 0u32;
        for sf in self.all_files() {
            for c in &sf.charges {
                if c.is_test {
                    continue;
                }
                if c.names.is_empty() {
                    dynamic_sites += 1;
                } else {
                    for n in &c.names {
                        name_sites.entry(n.clone()).or_default().push((sf, c));
                    }
                }
                if let Some(v) = &c.phase {
                    if !variants.is_empty() && !variants.contains(v) {
                        findings.push(Finding::new(
                            "phase_in_bench_schema",
                            &sf.path,
                            c.line,
                            format!(
                                "charge names Phase::{v}, which is not a variant of the Phase enum"
                            ),
                        ));
                    } else if !schema_keys.is_empty() && !schema_keys.contains(v) {
                        findings.push(Finding::new(
                            "phase_in_bench_schema",
                            &sf.path,
                            c.line,
                            format!(
                                "charge names Phase::{v}, which has no \"{v}\" key in the bench schema — add it to phase_key and bump BENCH_SCHEMA_VERSION"
                            ),
                        ));
                    }
                }
            }
        }
        report.summary.dynamic_charge_sites = dynamic_sites;

        // canonical_kernel_name: charset, then near-duplicate (edit distance
        // 1) detection between distinct production names.
        for (name, sites) in &name_sites {
            if !is_lower_snake(name) {
                let (sf, c) = sites[0];
                findings.push(Finding::new(
                    "canonical_kernel_name",
                    &sf.path,
                    c.line,
                    format!("kernel name \"{name}\" is not lower_snake (`[a-z][a-z0-9_]*`)"),
                ));
            }
        }
        let names: Vec<&String> = name_sites.keys().collect();
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                let (a, b) = (names[i], names[j]);
                if a.len() < 6 || b.len() < 6 || !one_edit_apart(a, b) {
                    continue;
                }
                // Flag the rarer name (a lone typo'd site, typically); on a
                // tie, the lexicographically later one.
                let (na, nb) = (name_sites[a].len(), name_sites[b].len());
                let flagged = if na < nb { a } else { b };
                let other = if flagged == a { b } else { a };
                for (sf, c) in &name_sites[flagged] {
                    findings.push(Finding::new(
                        "canonical_kernel_name",
                        &sf.path,
                        c.line,
                        format!(
                            "kernel name \"{flagged}\" is one edit away from \"{other}\" — likely a typo; rename, or waive if the two are genuine siblings"
                        ),
                    ));
                }
            }
        }

        // metric_name_canonical: telemetry registry names follow the same
        // discipline as kernel names — dotted lower_snake charset, then
        // near-duplicate (edit distance 1) detection between distinct
        // production metric names. A typo'd metric silently forks a time
        // series, so the rarer spelling is flagged exactly as for kernels.
        let mut metric_sites: BTreeMap<String, Vec<(&SourceFile, &crate::file::MetricSite)>> =
            BTreeMap::new();
        for sf in self.all_files() {
            for m in &sf.metrics {
                if m.is_test {
                    continue;
                }
                for n in &m.names {
                    metric_sites.entry(n.clone()).or_default().push((sf, m));
                }
            }
        }
        for (name, sites) in &metric_sites {
            if !is_lower_snake_dotted(name) {
                let (sf, m) = sites[0];
                findings.push(Finding::new(
                    "metric_name_canonical",
                    &sf.path,
                    m.line,
                    format!(
                        "metric name \"{name}\" is not dotted lower_snake (`[a-z][a-z0-9_]*` segments joined by `.`)"
                    ),
                ));
            }
        }
        let metric_names: Vec<&String> = metric_sites.keys().collect();
        for i in 0..metric_names.len() {
            for j in (i + 1)..metric_names.len() {
                let (a, b) = (metric_names[i], metric_names[j]);
                if a.len() < 6 || b.len() < 6 || !one_edit_apart(a, b) {
                    continue;
                }
                let (na, nb) = (metric_sites[a].len(), metric_sites[b].len());
                let flagged = if na < nb { a } else { b };
                let other = if flagged == a { b } else { a };
                for (sf, m) in &metric_sites[flagged] {
                    findings.push(Finding::new(
                        "metric_name_canonical",
                        &sf.path,
                        m.line,
                        format!(
                            "metric name \"{flagged}\" is one edit away from \"{other}\" — likely a typo forking the time series; rename, or waive if the two are genuine siblings"
                        ),
                    ));
                }
            }
        }

        // Full contract (prof / sanitize / design) for literal charge_kernel
        // sites in the device-charged crates.
        let covered = self.prof_covered_names();
        let mut scope_names: BTreeSet<&str> = BTreeSet::new();
        for sf in &self.charged {
            for s in &sf.scope_names {
                scope_names.insert(s);
            }
        }
        let documented = |name: &str| -> bool {
            match &self.design {
                Some(d) => d.contains(&format!("`{name}`")),
                None => true,
            }
        };
        let mut kernel_rows: BTreeMap<String, KernelRow> = BTreeMap::new();
        let mut design_flagged: BTreeSet<String> = BTreeSet::new();
        let mut raw_names: BTreeSet<String> = BTreeSet::new();
        for sf in &self.charged {
            for c in &sf.charges {
                if c.is_test || c.names.is_empty() {
                    continue;
                }
                if c.is_ns {
                    for n in &c.names {
                        raw_names.insert(n.clone());
                    }
                    continue;
                }
                let f = c.fn_idx.map(|i| &sf.fns[i]);
                let prof_ok = f.is_some_and(|f| f.opens_prof || covered.contains(&f.name));
                if !prof_ok {
                    findings.push(Finding::new(
                        "prof_coverage",
                        &sf.path,
                        c.line,
                        format!(
                            "kernel {:?} is charged outside any profiler scope: no call path from a `prof_scope` opener reaches `{}`",
                            c.names,
                            f.map(|f| f.name.as_str()).unwrap_or("<top level>"),
                        ),
                    ));
                }
                let san_ok = f.is_some_and(|f| f.has_trace)
                    || c.names.iter().all(|n| scope_names.contains(n.as_str()));
                if !san_ok {
                    findings.push(Finding::new(
                        "sanitize",
                        &sf.path,
                        c.line,
                        format!(
                            "kernel {:?} has no sanitizer coverage: add a trace replay (`trace_*` / literal `.scope(\"…\")`) or a `lint:allow(sanitize): <reason>` waiver",
                            c.names
                        ),
                    ));
                }
                for n in &c.names {
                    if !documented(n) && design_flagged.insert(n.clone()) {
                        findings.push(Finding::new(
                            "design_inventory",
                            &sf.path,
                            c.line,
                            format!(
                                "kernel \"{n}\" is missing from DESIGN.md's kernel inventory — document its cost model (or waive with a reason)"
                            ),
                        ));
                    }
                    let row = kernel_rows.entry(n.clone()).or_insert_with(|| KernelRow {
                        name: n.clone(),
                        phases: Vec::new(),
                        sites: 0,
                        sanitized: true,
                        documented: documented(n),
                        prof_covered: true,
                    });
                    row.sites += 1;
                    if let Some(p) = &c.phase {
                        if !row.phases.contains(p) {
                            row.phases.push(p.clone());
                        }
                    }
                    row.sanitized &= san_ok;
                    row.prof_covered &= prof_ok;
                }
            }
        }
        for r in kernel_rows.values_mut() {
            r.phases.sort();
        }
        report.kernels = kernel_rows.into_values().collect();
        report.raw_charge_names = raw_names.into_iter().collect();

        let all = self.all_files();
        crate::file::apply_waivers(&mut findings, &all, true);
        report.diagnostics = findings;
        report.finalize();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHASE_ENUM: &str = "/// Phases.\npub enum Phase {\n    /// Build histograms.\n    Histogram,\n    Sketch,\n    Other,\n}\n";

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            Some("inventory: `k_fine` is documented.".to_string()),
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    fn rules(r: &Report) -> Vec<&str> {
        r.diagnostics
            .iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn phase_variants_are_parsed_from_enum_body() {
        assert_eq!(
            phase_variants(PHASE_ENUM),
            vec!["Histogram", "Sketch", "Other"]
        );
        assert!(phase_variants("fn no_enum_here() {}\n").is_empty());
    }

    #[test]
    fn phase_variants_skip_variant_attributes() {
        let src = "enum Phase { #[default]\n A, B }";
        assert_eq!(phase_variants(src), vec!["A", "B"]);
    }

    #[test]
    fn one_edit_metric() {
        assert!(one_edit_apart("hist_gmem", "hist_smem"));
        assert!(one_edit_apart("fast_hist", "fast_hist2"));
        assert!(!one_edit_apart("fast_hist", "fast_hist"));
        assert!(!one_edit_apart("grad_hess", "grad_hess_shard"));
    }

    #[test]
    fn contract_clean_kernel_passes() {
        let w = ws(&[(
            "crates/core/src/k.rs",
            "fn round(d: &Device) {\n    let _s = d.prof_scope(\"round\", None);\n    launch(d);\n}\nfn launch(d: &Device) {\n    d.charge_kernel(\"k_fine\", Phase::Histogram, &c);\n    trace_k_fine(d);\n}\n",
        ),
        ("crates/gpusim/src/device.rs", PHASE_ENUM),
        ("crates/bench/src/report.rs", "fn phase_key(p: Phase) -> &'static str { match p { Phase::Histogram => \"Histogram\", Phase::Sketch => \"Sketch\", Phase::Other => \"Other\" } }"),
        ]);
        let r = w.check();
        assert!(rules(&r).is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.kernels.len(), 1);
        assert!(r.kernels[0].sanitized && r.kernels[0].prof_covered && r.kernels[0].documented);
    }

    #[test]
    fn near_duplicate_name_fires_on_rarer_name() {
        let w = ws(&[(
            "crates/core/src/k.rs",
            "fn a(d: &Device) {\n    let _s = d.prof_scope(\"round\", None);\n    d.charge_kernel(\"k_fine_one\", Phase::Other, &c);\n    d.charge_kernel(\"k_fine_one\", Phase::Other, &c);\n    trace_x(d);\n}\nfn b(d: &Device) {\n    let _s = d.prof_scope(\"round\", None);\n    d.charge_kernel(\"k_fime_one\", Phase::Other, &c);\n    trace_x(d);\n}\n",
        )]);
        let r = w.check();
        let canon: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|f| f.rule == "canonical_kernel_name")
            .collect();
        assert_eq!(canon.len(), 1, "{:?}", r.diagnostics);
        assert!(canon[0].message.contains("k_fime_one"));
    }

    #[test]
    fn metric_name_charset_and_near_duplicate_fire() {
        // Bad charset: a capitalized segment.
        let w = ws(&[(
            "crates/core/src/m.rs",
            "fn a(tel: &Telemetry) {\n    tel.counter_inc(\"train.Rounds_total\");\n}\n",
        )]);
        let r = w.check();
        assert!(
            rules(&r).contains(&"metric_name_canonical"),
            "{:?}",
            r.diagnostics
        );
        // Near-duplicate: the rarer spelling is flagged, the common one not.
        let w2 = ws(&[(
            "crates/core/src/m.rs",
            "fn a(tel: &Telemetry) {\n    tel.gauge_set(\"serve.queue_depth\", 1.0);\n    tel.gauge_set(\"serve.queue_depth\", 2.0);\n    tel.gauge_set(\"serve.queue_dept\", 3.0);\n}\n",
        )]);
        let r2 = w2.check();
        let canon: Vec<_> = r2
            .diagnostics
            .iter()
            .filter(|f| f.rule == "metric_name_canonical")
            .collect();
        assert_eq!(canon.len(), 1, "{:?}", r2.diagnostics);
        assert!(canon[0].message.contains("serve.queue_dept"), "{canon:?}");
        // Clean dotted names pass; a local binding resolves both literals.
        let w3 = ws(&[(
            "crates/core/src/m.rs",
            "fn a(tel: &Telemetry, fast: bool) {\n    let name = if fast { \"train.loss\" } else { \"train.rounds_total\" };\n    tel.gauge_set(name, 1.0);\n    tel.hist_observe(\"train.split_gain\", 0.5);\n}\n",
        )]);
        let r3 = w3.check();
        assert!(
            !rules(&r3).contains(&"metric_name_canonical"),
            "{:?}",
            r3.diagnostics
        );
    }

    #[test]
    fn metric_sites_in_tests_are_exempt_and_waivers_attach() {
        let w = ws(&[(
            "crates/core/src/m.rs",
            "#[cfg(test)]\nmod t {\n    fn x(tel: &Telemetry) { tel.counter_inc(\"Test.Only\"); }\n}\n",
        )]);
        let r = w.check();
        assert!(
            !rules(&r).contains(&"metric_name_canonical"),
            "{:?}",
            r.diagnostics
        );
        // A reasoned waiver suppresses a genuine-sibling near-dup.
        let w2 = ws(&[(
            "crates/core/src/m.rs",
            "fn a(tel: &Telemetry) {\n    tel.counter_inc(\"train.pass1_total\");\n    tel.counter_inc(\"train.pass1_total\");\n    // lint:allow(metric_name_canonical): pass2 is a genuine sibling of pass1\n    tel.counter_inc(\"train.pass2_total\");\n}\n",
        )]);
        let r2 = w2.check();
        assert!(rules(&r2).is_empty(), "{:?}", r2.diagnostics);
        assert_eq!(r2.summary.waived, 1);
    }

    #[test]
    fn non_snake_name_fires() {
        let w = ws(&[(
            "crates/core/src/k.rs",
            "fn a(d: &Device) {\n    let _s = d.prof_scope(\"x\", None);\n    d.charge_kernel(\"BadName\", Phase::Other, &c);\n    trace_x(d);\n}\n",
        )]);
        let r = w.check();
        assert!(rules(&r).contains(&"canonical_kernel_name"));
    }

    #[test]
    fn prof_coverage_needs_a_scope_on_some_call_path() {
        let w = ws(&[(
            "crates/core/src/k.rs",
            "fn orphan(d: &Device) {\n    d.charge_kernel(\"k_fine\", Phase::Other, &c);\n    trace_x(d);\n}\n",
        )]);
        let r = w.check();
        assert_eq!(rules(&r), vec!["prof_coverage"]);
    }

    #[test]
    fn prof_coverage_is_transitive_across_files() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "fn top(d: &Device) { let _s = d.prof_scope(\"round\", None); mid(d); }\nfn mid(d: &Device) { deep(d); }\n",
            ),
            (
                "crates/core/src/b.rs",
                "fn deep(d: &Device) { d.charge_kernel(\"k_fine\", Phase::Other, &c); trace_x(d); }\n",
            ),
        ]);
        let r = w.check();
        assert!(rules(&r).is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn sanitize_satisfied_by_scope_literal_elsewhere() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "fn go(d: &Device) { let _s = d.prof_scope(\"round\", None); d.charge_kernel(\"k_fine\", Phase::Other, &c); }\n",
            ),
            (
                "crates/core/src/tr.rs",
                "fn replay(san: &Sanitizer) { let s = san.scope(\"k_fine\"); s.touch(0); }\n",
            ),
        ]);
        let r = w.check();
        assert!(rules(&r).is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn sanitize_fires_without_trace_and_waiver_suppresses_with_reason() {
        let base = "fn go(d: &Device) {\n    let _s = d.prof_scope(\"round\", None);\n    {WAIVER}d.charge_kernel(\"k_fine\", Phase::Other, &c);\n}\n";
        let w = ws(&[("crates/core/src/a.rs", &base.replace("{WAIVER}", ""))]);
        assert_eq!(rules(&w.check()), vec!["sanitize"]);
        let waived = base.replace(
            "{WAIVER}",
            "// lint:allow(sanitize): fixture kernel, replay not modeled\n    ",
        );
        let w2 = ws(&[("crates/core/src/a.rs", waived.as_str())]);
        let r2 = w2.check();
        assert!(rules(&r2).is_empty(), "{:?}", r2.diagnostics);
        assert_eq!(r2.summary.waived, 1);
    }

    #[test]
    fn undocumented_kernel_fires_design_inventory() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn go(d: &Device) { let _s = d.prof_scope(\"r\", None); d.charge_kernel(\"k_undoc\", Phase::Other, &c); trace_x(d); }\n",
        )]);
        let r = w.check();
        assert_eq!(rules(&r), vec!["design_inventory"]);
    }

    #[test]
    fn charge_ns_sites_are_raw_durations_not_kernels() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn go(d: &Device) { d.charge_ns(\"htod_features\", Phase::Transfer, 10.0); }\n",
        )]);
        let r = w.check();
        assert!(rules(&r).is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.raw_charge_names, vec!["htod_features"]);
        assert!(r.kernels.is_empty());
    }

    #[test]
    fn observing_crates_get_name_and_phase_checks_only() {
        let w = ws(&[
            ("crates/gpusim/src/device.rs", PHASE_ENUM),
            (
                "crates/bench/src/report.rs",
                "fn phase_key(p: Phase) -> &'static str { match p { Phase::Histogram => \"Histogram\", Phase::Sketch => \"Sketch\", Phase::Other => \"Other\" } }",
            ),
            (
                "crates/baselines/src/b.rs",
                "fn bench_kernel(d: &Device) { d.charge_kernel(\"BadName\", Phase::Ghost, &c); }\n",
            ),
        ]);
        let r = w.check();
        let rs = rules(&r);
        assert!(rs.contains(&"canonical_kernel_name"), "{rs:?}");
        assert!(rs.contains(&"phase_in_bench_schema"), "{rs:?}");
        // But no prof/sanitize/design demands on observing crates.
        assert!(!rs.contains(&"prof_coverage"));
        assert!(!rs.contains(&"sanitize"));
        assert!(!rs.contains(&"design_inventory"));
    }

    // ---- real-repo cross-file checks (same names as the v1 tests that
    // ci.sh invokes directly) ----

    /// Seeded failure for the gradient-sketching phase: the *real* `Phase`
    /// enum (which carries `Sketch`) against the *real* bench schema with
    /// every `"Sketch"` key stripped must fire.
    #[test]
    fn phase_schema_catches_missing_sketch_phase() {
        let dev = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../gpusim/src/device.rs"
        ))
        .expect("device.rs");
        assert!(
            phase_variants(&dev).iter().any(|v| v == "Sketch"),
            "Phase::Sketch missing from device.rs — update this fixture"
        );
        let rep = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../bench/src/report.rs"
        ))
        .expect("report.rs");
        let stripped = rep.replace("\"Sketch\"", "\"_removed_\"");
        let f = lint_phase_schema("device.rs", &dev, "report.rs", &stripped);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "phase_in_bench_schema");
        assert!(f[0].message.contains("Sketch"), "{f:?}");
    }

    /// Seeded failure for the serving phase, same shape as the Sketch one.
    #[test]
    fn phase_schema_catches_missing_serve_phase() {
        let dev = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../gpusim/src/device.rs"
        ))
        .expect("device.rs");
        assert!(
            phase_variants(&dev).iter().any(|v| v == "Serve"),
            "Phase::Serve missing from device.rs — update this fixture"
        );
        let rep = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../bench/src/report.rs"
        ))
        .expect("report.rs");
        let stripped = rep.replace("\"Serve\"", "\"_removed_\"");
        let f = lint_phase_schema("device.rs", &dev, "report.rs", &stripped);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "phase_in_bench_schema");
        assert!(f[0].message.contains("Serve"), "{f:?}");
    }

    /// The real repo files satisfy the cross-file rule.
    #[test]
    fn repo_phase_schema_is_in_sync() {
        let dev = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../gpusim/src/device.rs"
        ))
        .expect("device.rs");
        let rep = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../bench/src/report.rs"
        ))
        .expect("report.rs");
        assert!(!phase_variants(&dev).is_empty(), "Phase enum parse failed");
        let f = lint_phase_schema("device.rs", &dev, "report.rs", &rep);
        assert!(f.is_empty(), "{f:?}");
    }
}
