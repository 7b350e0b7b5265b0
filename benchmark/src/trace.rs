//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! library's public functions: name, host start and end, and the span
//! that was open when it began. They stay in memory and are written once,
//! at exit, as Chrome `traceEvents` JSON together with each name's self
//! time — its spans' durations minus the part covered by their children.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span; times are host ns since the
/// recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate of the self-time table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one, and return
    /// its duration in ns.
    pub fn end(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Rename a span once its outcome is known (a `submit` that flushed).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f(self);
        let ns = self.end(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self-time table keyed by span name.
    pub fn self_time_table(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let row = table.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.duration_ns();
            row.self_ns += own;
        }
        table
    }

    /// Chrome `traceEvents` JSON (load in `chrome://tracing` or
    /// Perfetto): one complete event per span, ids and parents in
    /// `args`, and the self-time table under `otherData`.
    pub fn chrome_trace(&self) -> String {
        let us = |ns: u64| Value::Float(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Value::Null, |p| Value::UInt(p as u64));
                obj(vec![
                    ("name", Value::String(s.name.to_string())),
                    ("cat", Value::String("benchmark".into())),
                    ("ph", Value::String("X".into())),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.duration_ns())),
                    ("pid", Value::UInt(1)),
                    ("tid", Value::UInt(1)),
                    (
                        "args",
                        obj(vec![
                            ("span", Value::UInt(id as u64)),
                            ("parent", parent),
                            ("run", Value::String(self.run_id.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        let self_time = self
            .self_time_table()
            .into_iter()
            .map(|(name, row)| {
                (
                    name.to_string(),
                    obj(vec![
                        ("count", Value::UInt(row.count as u64)),
                        ("total_ms", Value::Float(row.total_ns as f64 / 1e6)),
                        ("self_ms", Value::Float(row.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect();
        let doc = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::String("ns".into())),
            (
                "otherData",
                obj(vec![
                    ("run", Value::String(self.run_id.clone())),
                    ("self_time", Value::Object(self_time)),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("span times are finite")
    }
}

/// JSON object from `(key, value)` pairs, keeping their order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_self_times_sum_to_the_root_duration() {
        let mut rec = Recorder::new("test".into());
        let root = rec.begin("root");
        busy(20_000);
        rec.span("a", |rec| {
            busy(10_000);
            rec.span("a.leaf", |_| busy(30_000));
            rec.span("a.leaf", |_| busy(5_000));
        });
        rec.span("b", |_| busy(15_000));
        busy(5_000);
        let root_ns = rec.end(root);

        let own = rec.self_ns();
        assert_eq!(own.iter().sum::<u64>(), root_ns);
        let table = rec.self_time_table();
        assert_eq!(table["a.leaf"].count, 2);
        assert_eq!(table["root"].total_ns, root_ns);
        let self_sum: u64 = table.values().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, root_ns);
        // A leaf's self time is its whole duration.
        assert_eq!(table["b"].self_ns, table["b"].total_ns);
        assert!(table["a"].self_ns < table["a"].total_ns);
    }

    #[test]
    fn parents_follow_nesting_and_trace_parses() {
        let mut rec = Recorder::new("run-7".into());
        rec.span("outer", |rec| {
            rec.span("inner", |_| ());
        });
        rec.span("sibling", |_| ());
        let parents: Vec<Option<usize>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);

        let doc: Value = serde_json::from_str(&rec.chrome_trace()).expect("valid JSON");
        let top = doc.as_object().expect("object");
        let events = top
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        let inner = events[1].as_object().expect("event object");
        let args = inner
            .iter()
            .find(|(k, _)| k == "args")
            .and_then(|(_, v)| v.as_object())
            .expect("args");
        assert!(args.contains(&("parent".to_string(), Value::UInt(0))));
        assert!(args.contains(&("run".to_string(), Value::String("run-7".into()))));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_innermost_first() {
        let mut rec = Recorder::new("x".into());
        let a = rec.begin("a");
        let _b = rec.begin("b");
        rec.end(a);
    }
}
