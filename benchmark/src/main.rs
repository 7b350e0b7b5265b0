//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--trace-out <file>]
//! ```
//!
//! `--trace 0` (default) prints the end-to-end metrics, `--trace 1` the
//! per-layer metrics and writes the spans as a Chrome trace. Every
//! metric is printed with its unit and sample count; the last line of
//! standard output is one JSON object. The exit code is 0 only when
//! every check passed. See README.md for the workloads and metrics.

mod fit;
mod load;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Shape, Workload};

const USAGE: &str = "usage: benchmark --workload <train-wide|train-deep|train-dp2|serve-open> \
--seed <u64> [--seconds <s>] [--trace <0|1>] [--trace-out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let (mut seconds, mut trace, mut trace_out) = (10.0, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&v) {
                    return Err(format!("--seconds must be within 0..=3600, got {v}"));
                }
                seconds = v;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    eprintln!(
        "benchmark: {name} seed {} for {} s ({}) on {} host thread(s) of {} available",
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        workloads::HOST_THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut run = workloads::run(
        args.workload,
        &Shape::BENCH,
        args.seed,
        args.seconds,
        args.trace,
    );

    if let Some(rec) = &run.trace {
        println!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        let mut rows: Vec<_> = rec.self_time_table().into_iter().collect();
        rows.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_ns));
        for (span, row) in rows {
            println!(
                "{span:<28} {:>8} {:>14.3} {:>14.3}",
                row.count,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
        // Next to the executable, inside the build directory, unless
        // a path is given.
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let dir = std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(PathBuf::from))
                .unwrap_or_default();
            dir.join(format!("trace-{name}-{}.json", args.seed))
        });
        let written = std::fs::write(&path, rec.chrome_trace());
        run.report.tally.check(written.is_ok(), || {
            format!("cannot write {}: {:?}", path.display(), written.err())
        });
        eprintln!(
            "benchmark: wrote {} spans to {}",
            rec.spans().len(),
            path.display()
        );
    }

    for failure in &run.report.tally.failures {
        eprintln!("benchmark: FAILED: {failure}");
    }
    print!("{}", run.report.table());
    println!("{}", run.report.json_line());
    if run.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-open --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::ServeOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload train-wide").is_err());
        assert!(args("--workload train-wide --seed 1 --trace 2").is_err());
        assert!(args("--workload train-wide --seed 1 --seconds").is_err());
    }

    fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    /// `(name, unit)` of every metric BENCHMARK.json declares in `list`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        get(&doc, list)
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| get(m, k).as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_the_binarys_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = get(&doc, "workloads")
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| get(w, "name").as_str().expect("string"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    /// Every workload, untraced and traced, at a tiny shape: it passes
    /// its own checks and emits exactly the metrics BENCHMARK.json
    /// declares, each with the declared unit.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = declared(list);
            want.sort();
            for w in Workload::ALL {
                let run = workloads::run(w, &Shape::TINY, 3, 0.0, traced);
                let r = &run.report;
                assert!(r.correct(), "{} failed: {:?}", w.name(), r.tally.failures);
                let mut got: Vec<(String, String)> = r
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                got.sort();
                assert_eq!(got, want, "{} ({list})", w.name());
                if let Some(rec) = &run.trace {
                    let doc: Value = serde_json::from_str(&rec.chrome_trace()).expect("trace");
                    let events = get(&doc, "traceEvents").as_array().expect("events");
                    assert_eq!(events.len(), rec.spans().len());
                }
            }
        }
    }
}
