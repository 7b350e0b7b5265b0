//! What one run prints: a human-readable table of every metric (name,
//! unit, sample count, value, spread) and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use crate::stats;
use crate::trace::obj;
use serde::Value;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements `value` summarises.
    pub samples: usize,
    /// Spread or tail of those measurements, for the table only.
    pub note: String,
}

/// Correctness tally: every operation attempted, and every one that
/// failed with the reason.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; a failed one is recorded with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.add(1, u64::from(!ok), what);
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }
}

/// All metrics of a run plus its tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

impl Report {
    /// A metric computed once (a deterministic or single measurement).
    pub fn single(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.push(name, unit, value, 1, String::new());
    }

    /// The median of repeated measurements, with their quartiles and
    /// highest supported percentile in the table.
    pub fn median_of(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        let note = format!("median; {}", spread(values));
        self.push(name, unit, stats::median(values), values.len(), note);
    }

    /// The fastest of repeated host timings. Contention on a shared host
    /// only ever adds time, so the minimum estimates the uncontended cost
    /// and moves far less between runs than the median; the table still
    /// shows the median and quartiles.
    pub fn min_of(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        let note = format!(
            "min; median={:.6} {}",
            stats::median(values),
            spread(values)
        );
        let fastest = values.iter().copied().min_by(f64::total_cmp);
        self.push(name, unit, fastest.unwrap_or(f64::NAN), values.len(), note);
    }

    pub fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: String,
    ) {
        self.tally.check(value.is_finite(), || {
            format!("metric {name} is not a finite number ({value})")
        });
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
            note,
        });
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// Fixed-width table of every metric.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<32} {:>8} {:>8} {:>18}  {}\n",
            "metric", "unit", "samples", "value", "spread"
        );
        for m in &self.metrics {
            out.push_str(&format!(
                "{:<32} {:>8} {:>8} {:>18.6}  {}\n",
                m.name, m.unit, m.samples, m.value, m.note
            ));
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    Value::Float(m.value)
                } else {
                    Value::Null
                };
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", value),
                        ("unit", Value::String(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let doc = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::UInt(self.tally.attempted)),
            ("failed", Value::UInt(self.tally.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("non-finite values were replaced")
    }
}

/// Quartiles and the highest supported percentile of `values`.
fn spread(values: &[f64]) -> String {
    let quartiles = match stats::quartiles(values) {
        Some((q1, q3)) => format!("q1={q1:.6} q3={q3:.6} "),
        None => String::new(),
    };
    format!("{quartiles}{}", stats::tail_summary(&stats::sorted(values)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.single("setup_s", "s", 0.8127);
        r.median_of("host_s", "s", &[1.0, 1.2, 1.1]);
        let doc: Value = serde_json::from_str(&r.json_line()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(r.correct());
        assert!(r
            .json_line()
            .contains(r#""host_s":{"value":1.1,"unit":"s"}"#));
    }

    #[test]
    fn min_of_reports_the_fastest_timing() {
        let mut r = Report::default();
        r.min_of("host_s", "s", &[1.3, 1.1, 2.9, 1.2]);
        assert_eq!(r.metrics[0].value, 1.1);
        assert_eq!(r.metrics[0].samples, 4);
        r.min_of("host_s", "s", &[]);
        assert!(!r.correct(), "no timing is not a finite metric");
    }

    #[test]
    fn a_non_finite_metric_fails_the_run() {
        let mut r = Report::default();
        r.single("sim_s", "s", f64::NAN);
        assert!(!r.correct());
        assert!(r.json_line().contains(r#""sim_s":{"value":null"#));
    }
}
