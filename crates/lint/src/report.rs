//! Structured diagnostics: the `Finding` type, rule-id registry, and the
//! hand-rolled versioned JSON writer (the lint crate stays zero-dep, like the
//! BENCH/SERVE report writers).

/// Bump when the JSON layout changes shape. Golden tests pin the serialized
/// bytes for the `bad_repo` fixture, so accidental drift fails CI.
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// Every rule id the analyzer can emit. Waivers naming any other rule are
/// rejected with `waiver_without_reason`.
pub const RULE_IDS: &[&str] = &[
    "unwrap_in_lib",
    "raw_buffer_mut",
    "uncharged_launch",
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
];

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// Set when a `lint:allow(rule): reason` waiver matched: the finding is
    /// reported (JSON + human output) but does not fail the run.
    pub waived: bool,
    pub waiver_reason: Option<String>,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: u32, message: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            waived: false,
            waiver_reason: None,
        }
    }

    pub fn human(&self) -> String {
        let tag = if self.waived { " [waived]" } else { "" };
        format!(
            "{}:{}: [{}]{} {}",
            self.file, self.line, self.rule, tag, self.message
        )
    }
}

/// One row of the cross-file kernel symbol table, as surfaced in the JSON
/// report. Only literal (statically resolvable) `charge_kernel` names get a
/// row; raw `charge_ns` duration names are listed separately.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub name: String,
    /// `Phase::X` variants observed across this kernel's charge sites.
    pub phases: Vec<String>,
    /// Number of charge sites resolving to this name.
    pub sites: u32,
    pub sanitized: bool,
    pub documented: bool,
    pub prof_covered: bool,
}

#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub files_scanned: u32,
    pub findings: u32,
    pub waived: u32,
    pub kernels: u32,
    pub dynamic_charge_sites: u32,
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    pub summary: Summary,
    pub kernels: Vec<KernelRow>,
    pub raw_charge_names: Vec<String>,
    pub diagnostics: Vec<Finding>,
}

impl Report {
    /// Sort diagnostics into the canonical (file, line, rule, message) order
    /// and recompute summary counts. Call once before serializing.
    pub fn finalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
                b.file.as_str(),
                b.line,
                b.rule,
                b.message.as_str(),
            ))
        });
        self.kernels.sort_by(|a, b| a.name.cmp(&b.name));
        self.raw_charge_names.sort();
        self.raw_charge_names.dedup();
        self.summary.findings = self.diagnostics.iter().filter(|f| !f.waived).count() as u32;
        self.summary.waived = self.diagnostics.iter().filter(|f| f.waived).count() as u32;
        self.summary.kernels = self.kernels.len() as u32;
    }

    /// Count of unwaived findings (the exit-code signal).
    pub fn violations(&self) -> usize {
        self.diagnostics.iter().filter(|f| !f.waived).count()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"lint_schema_version\": {},\n",
            LINT_SCHEMA_VERSION
        ));
        out.push_str("  \"summary\": {\n");
        out.push_str(&format!(
            "    \"files_scanned\": {},\n",
            self.summary.files_scanned
        ));
        out.push_str(&format!("    \"findings\": {},\n", self.summary.findings));
        out.push_str(&format!("    \"waived\": {},\n", self.summary.waived));
        out.push_str(&format!("    \"kernels\": {},\n", self.summary.kernels));
        out.push_str(&format!(
            "    \"dynamic_charge_sites\": {}\n",
            self.summary.dynamic_charge_sites
        ));
        out.push_str("  },\n");
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            let phases: Vec<String> = k.phases.iter().map(|p| json_str(p)).collect();
            out.push_str(&format!(
                "    {{\"name\": {}, \"phases\": [{}], \"sites\": {}, \"sanitized\": {}, \"documented\": {}, \"prof_covered\": {}}}{}\n",
                json_str(&k.name),
                phases.join(", "),
                k.sites,
                k.sanitized,
                k.documented,
                k.prof_covered,
                if i + 1 < self.kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"raw_charge_names\": [");
        let raws: Vec<String> = self.raw_charge_names.iter().map(|s| json_str(s)).collect();
        out.push_str(&raws.join(", "));
        out.push_str("],\n");
        out.push_str("  \"diagnostics\": [\n");
        for (i, f) in self.diagnostics.iter().enumerate() {
            let reason = match &f.waiver_reason {
                Some(r) => json_str(r),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"rule\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}, \"waiver_reason\": {}}}{}\n",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                f.waived,
                reason,
                if i + 1 < self.diagnostics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_counts_waived_separately() {
        let mut r = Report::default();
        r.diagnostics
            .push(Finding::new("sanitize", "a.rs", 3, "x".into()));
        let mut w = Finding::new("sanitize", "a.rs", 9, "y".into());
        w.waived = true;
        w.waiver_reason = Some("because".into());
        r.diagnostics.push(w);
        r.finalize();
        assert_eq!(r.summary.findings, 1);
        assert_eq!(r.summary.waived, 1);
        assert_eq!(r.violations(), 1);
        let js = r.to_json();
        assert!(js.contains("\"lint_schema_version\": 1"));
        assert!(js.contains("\"waiver_reason\": \"because\""));
    }
}
