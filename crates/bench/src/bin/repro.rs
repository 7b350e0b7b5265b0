//! `repro` — regenerate every table and figure of the paper's
//! evaluation section on the simulated device.
//!
//! ```text
//! repro <command> [--trees N] [--depth N] [--bins N] [--scale F]
//!                 [--gpus K] [--seed S] [--full]
//!
//! commands:
//!   datasets   Table 1  dataset inventory
//!   table2     Table 2  training time, single & dual GPU
//!   table3     Table 3  test accuracy / RMSE of the GPU systems
//!   table4     Table 4  CPU (mo-fu / mo-sp) vs ours + speedup
//!   fig4       Fig. 4   histogram share of total training time
//!   fig5       Fig. 5   training time vs number of trees
//!   fig6a      Fig. 6a  histogram building methods (±warp opt)
//!   fig6b      Fig. 6b  training time vs number of classes
//!   fig7       Fig. 7   training time vs tree depth
//!   ablations  design-choice ablations from DESIGN.md
//!   hostbench  host wall-clock of the level-wise grower (subtraction
//!              × parallel_level_hist), simulated time held fixed
//!   sanitize   one boosting round per histogram method under full
//!              memcheck+racecheck, the same on FP(2) and DP(2) groups
//!              with every device sanitized, plus a determinism audit;
//!              exits nonzero if any violation is found or a kernel
//!              goes untraced
//!   bench      machine-readable perf/quality grid (per hist method ×
//!              dataset): writes schema-versioned BENCH_repro.json with
//!              per-phase simulated ns, hist-share %, host wall-clock
//!              and model quality; `--baseline F --check` diff-gates
//!              against a committed baseline (exit 1 on drift)
//!   chaos      fault-injection matrix: seeded fault plans against
//!              single- and multi-GPU training plus a checkpoint/resume
//!              smoke; every completed run must be bit-identical to the
//!              fault-free reference and every failure a typed error;
//!              exits nonzero on any divergence or panic-class outcome
//!   serve      batched-serving benchmark: compiles a NUS-WIDE-shaped
//!              model, uploads it as device-resident SoA arrays, and
//!              drives a burst of single-row submissions through the
//!              micro-batching BatchServer at max_batch 1 vs --batch;
//!              writes schema-versioned SERVE_repro.json and enforces
//!              the ≥5× batched-speedup, bit-identity and tree>instance
//!              cost invariants; `--baseline F --check` diff-gates
//!   report     unified run report: trains and serves one instrumented
//!              run with the telemetry registry, profiler and fault
//!              injector all attached, checks the served scores against
//!              the model, and joins telemetry + ProfileSummary + the
//!              ledger's per-phase breakdown + FaultReport + serve
//!              stats into one human-readable table set and one
//!              machine-readable REPORT_repro.json
//!              (TELEMETRY_SCHEMA_VERSION); `--prom F` also writes the
//!              Prometheus text exposition
//!   all        everything above
//! ```
//!
//! `bench` flags: `--smoke` (reduced CI grid), `--out F` (default
//! BENCH_repro.json), `--baseline F`, `--check`, `--trace F` (Chrome
//! trace of the first profiled run; open in chrome://tracing).
//!
//! `--full` restores the paper's §4.1 hyper-parameters (100 trees,
//! depth 7, 256 bins) — expect minutes of host time. Without it the
//! harness runs a scaled configuration (20 trees, depth 5, 64 bins)
//! over the reduced dataset shapes in `PaperDataset::bench_shape`.

use gbdt_bench::{
    bench_config, bench_dataset, fmt_secs, render_table, run_system, RunOutcome, SystemId,
};
use gbdt_core::{
    GpuTrainer, HistogramMethod, MultiGpuStrategy, MultiGpuTrainer, OutputSketch, TrainConfig,
};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::PaperDataset;
use gpusim::{Device, DeviceGroup, Phase};

#[derive(Debug, Clone)]
struct Opts {
    trees: usize,
    depth: usize,
    bins: usize,
    scale: f64,
    gpus: usize,
    seed: u64,
    full: bool,
    smoke: bool,
    out: String,
    baseline: Option<String>,
    check: bool,
    update_baseline: bool,
    sketch: OutputSketch,
    trace: Option<String>,
    batch: usize,
    streams: usize,
    prom: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            trees: 20,
            depth: 5,
            bins: 64,
            scale: 1.0,
            gpus: 2,
            seed: 42,
            full: false,
            smoke: false,
            out: "BENCH_repro.json".to_string(),
            baseline: None,
            check: false,
            update_baseline: false,
            sketch: OutputSketch::None,
            trace: None,
            batch: 256,
            streams: 1,
            prom: None,
        }
    }
}

impl Opts {
    fn config(&self) -> TrainConfig {
        if self.full {
            bench_config(100, 7, 256)
        } else {
            bench_config(self.trees, self.depth, self.bins)
        }
    }
}

const USAGE: &str = "usage: repro <datasets|table2|table3|table4|fig4|fig5|fig6a|fig6b|fig7|ablations|hostbench|sanitize|bench|serve|report|chaos|all> [flags]\n\
flags: --trees N --depth N --bins N --scale F --gpus K --seed S --full\n\
bench: --smoke --out FILE --baseline FILE --check --update-baseline\n\
       --sketch LABEL (none|topK|randK|projK, e.g. top4) --trace FILE\n\
       --streams N (device streams per GPU; 1 = serial schedule)\n\
serve: --smoke --batch N --out FILE (default SERVE_repro.json)\n\
       --baseline FILE --check --update-baseline\n\
report: --smoke --batch N --out FILE (default REPORT_repro.json)\n\
        --prom FILE (Prometheus text exposition of the run's registry)\n\
chaos: --smoke (reduced sweep) --seed S --gpus K";

/// Parse a sketch label (`OutputSketch::label()` inverse): `none`, or
/// `top{k}` / `rand{k}` / `proj{k}`.
fn parse_sketch(label: &str) -> Result<OutputSketch, String> {
    let bad = |_| format!("invalid sketch label `{label}` (want none|topK|randK|projK)");
    if label == "none" {
        Ok(OutputSketch::None)
    } else if let Some(k) = label.strip_prefix("top") {
        Ok(OutputSketch::TopOutputs(k.parse().map_err(bad)?))
    } else if let Some(k) = label.strip_prefix("rand") {
        Ok(OutputSketch::RandomSampling(k.parse().map_err(bad)?))
    } else if let Some(k) = label.strip_prefix("proj") {
        Ok(OutputSketch::RandomProjection(k.parse().map_err(bad)?))
    } else {
        Err(format!(
            "invalid sketch label `{label}` (want none|topK|randK|projK)"
        ))
    }
}

/// Parse a flag value, naming the flag in the error.
fn parse_value<T: std::str::FromStr>(value: String, name: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value `{value}` for {name}"))
}

/// Parse `repro`'s CLI: command word, then flags. Errors (unknown flag,
/// missing or unparsable value) report what went wrong; `main` prints
/// the usage text and exits nonzero.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, Opts), String> {
    let cmd = args.next().unwrap_or_else(|| "help".to_string());
    let mut opts = Opts::default();
    while let Some(a) = args.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--trees" => opts.trees = parse_value(grab("--trees")?, "--trees")?,
            "--depth" => opts.depth = parse_value(grab("--depth")?, "--depth")?,
            "--bins" => opts.bins = parse_value(grab("--bins")?, "--bins")?,
            "--scale" => opts.scale = parse_value(grab("--scale")?, "--scale")?,
            "--gpus" => opts.gpus = parse_value(grab("--gpus")?, "--gpus")?,
            "--seed" => opts.seed = parse_value(grab("--seed")?, "--seed")?,
            "--full" => opts.full = true,
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = grab("--out")?,
            "--baseline" => opts.baseline = Some(grab("--baseline")?),
            "--check" => opts.check = true,
            "--update-baseline" => opts.update_baseline = true,
            "--sketch" => opts.sketch = parse_sketch(&grab("--sketch")?)?,
            "--trace" => opts.trace = Some(grab("--trace")?),
            "--batch" => opts.batch = parse_value(grab("--batch")?, "--batch")?,
            "--streams" => opts.streams = parse_value(grab("--streams")?, "--streams")?,
            "--prom" => opts.prom = Some(grab("--prom")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((cmd, opts))
}

fn main() {
    let (cmd, opts) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    match cmd.as_str() {
        "datasets" => datasets(),
        "table2" => table2_3(&opts, true, false),
        "table3" => table2_3(&opts, false, true),
        "table4" => table4(&opts),
        "fig4" => fig4(&opts),
        "fig5" => fig5(&opts),
        "fig6a" => fig6a(&opts),
        "fig6b" => fig6b(&opts),
        "fig7" => fig7(&opts),
        "ablations" => ablations(&opts),
        "hostbench" => hostbench(&opts),
        "sanitize" => {
            if !sanitize_cmd(&opts) {
                std::process::exit(1);
            }
        }
        "bench" => {
            if !bench_cmd(&opts) {
                std::process::exit(1);
            }
        }
        "serve" => {
            if !serve_cmd(&opts) {
                std::process::exit(1);
            }
        }
        "report" => {
            if !report_cmd(&opts) {
                std::process::exit(1);
            }
        }
        "chaos" => {
            if !chaos_cmd(&opts) {
                std::process::exit(1);
            }
        }
        "all" => {
            datasets();
            table2_3(&opts, true, true);
            table4(&opts);
            fig4(&opts);
            fig5(&opts);
            fig6a(&opts);
            fig6b(&opts);
            fig7(&opts);
            ablations(&opts);
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("error: unknown command `{other}`");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Table 2's dataset row order.
const TABLE2_ORDER: [PaperDataset; 9] = [
    PaperDataset::Mnist,
    PaperDataset::Caltech101,
    PaperDataset::MnistIn,
    PaperDataset::NusWide,
    PaperDataset::Otto,
    PaperDataset::SfCrime,
    PaperDataset::Helena,
    PaperDataset::Rf1,
    PaperDataset::Delicious,
];

/// Fig. 4–7's four representative datasets.
const FIG_DATASETS: [PaperDataset; 4] = [
    PaperDataset::Mnist,
    PaperDataset::Caltech101,
    PaperDataset::MnistIn,
    PaperDataset::NusWide,
];

fn datasets() {
    println!("== Table 1: datasets (paper shapes; harness scales are in bench_shape) ==");
    println!("{}", PaperDataset::table1());
}

fn table2_3(opts: &Opts, show_time: bool, show_metric: bool) {
    let cfg = opts.config();
    let systems = SystemId::gpu_systems();
    let mut time_rows_single = Vec::new();
    let mut time_rows_dual = Vec::new();
    let mut metric_rows = Vec::new();

    for ds in TABLE2_ORDER {
        let (train, test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let mut outcomes: Vec<RunOutcome> = systems
            .iter()
            .map(|&s| run_system(s, &name, &train, &test, &cfg))
            .collect();
        let dual = run_system(
            SystemId::OursMultiGpu(opts.gpus),
            &name,
            &train,
            &test,
            &cfg,
        );
        let mut t_row = vec![name.clone()];
        let mut m_row = vec![name.clone()];
        for o in &outcomes {
            t_row.push(fmt_secs(o.seconds));
            m_row.push(format!("{:.2}", o.metric));
        }
        time_rows_single.push(t_row);
        metric_rows.push(m_row);
        outcomes.push(dual);
        time_rows_dual.push(vec![
            name,
            fmt_secs(outcomes[outcomes.len() - 2].seconds),
            fmt_secs(outcomes.last().unwrap().seconds),
            format!(
                "{:.2}×",
                outcomes[outcomes.len() - 2].seconds / outcomes.last().unwrap().seconds
            ),
        ]);
        eprint!(".");
    }
    eprintln!();

    if show_time {
        println!("== Table 2 (single GPU): training time, simulated seconds ==");
        println!(
            "{}",
            render_table(
                &["Dataset", "catboost", "lightgbm", "xgboost", "sk-boost", "ours"],
                &time_rows_single
            )
        );
        println!("== Table 2 ({} GPUs): ours, single vs multi ==", opts.gpus);
        println!(
            "{}",
            render_table(
                &[
                    "Dataset",
                    "ours(1)",
                    &format!("ours({})", opts.gpus),
                    "speedup"
                ],
                &time_rows_dual
            )
        );
    }
    if show_metric {
        println!("== Table 3: test accuracy% / RMSE on GPU systems ==");
        println!(
            "{}",
            render_table(
                &["Dataset", "catboost", "lightgbm", "xgboost", "sk-boost", "ours"],
                &metric_rows
            )
        );
    }
}

fn table4(opts: &Opts) {
    let cfg = opts.config();
    let datasets = [
        PaperDataset::Mnist,
        PaperDataset::Caltech101,
        PaperDataset::MnistIn,
        PaperDataset::NusWide,
    ];
    let mut rows = Vec::new();
    for ds in datasets {
        let (train, test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let mofu = run_system(SystemId::MoFu, &name, &train, &test, &cfg);
        let mosp = run_system(SystemId::MoSp, &name, &train, &test, &cfg);
        let ours = run_system(SystemId::Ours, &name, &train, &test, &cfg);
        rows.push(vec![
            name,
            fmt_secs(mofu.seconds),
            fmt_secs(mosp.seconds),
            fmt_secs(ours.seconds),
            format!("{:.1}×", mosp.seconds / ours.seconds),
            format!("{:.2}", mofu.metric),
            format!("{:.2}", mosp.metric),
            format!("{:.2}", ours.metric),
        ]);
        eprint!(".");
    }
    eprintln!();
    println!("== Table 4: CPU (measured wall) vs ours (simulated) ==");
    println!("   NOTE: the speedup column divides host wall-clock by simulated GPU");
    println!("   seconds — a cross-domain ratio; see EXPERIMENTS.md for caveats.");
    println!(
        "{}",
        render_table(
            &["Dataset", "mo-fu(s)", "mo-sp(s)", "ours(s)", "vs mo-sp", "mo-fu", "mo-sp", "ours"],
            &rows
        )
    );
}

fn fig4(opts: &Opts) {
    let cfg = opts.config();
    let datasets = [
        PaperDataset::Delicious,
        PaperDataset::NusWide,
        PaperDataset::Mnist,
        PaperDataset::Caltech101,
        PaperDataset::MnistIn,
    ];
    let mut rows = Vec::new();
    for ds in datasets {
        let (train, _test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let report = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit_report(&train);
        let total = report.sim_seconds;
        let hist = report
            .sim
            .by_phase
            .get(&Phase::Histogram)
            .copied()
            .unwrap_or(0.0)
            * 1e-9;
        rows.push(vec![
            name,
            fmt_secs(total),
            fmt_secs(hist),
            format!("{:.1}%", 100.0 * hist / total),
        ]);
        eprint!(".");
    }
    eprintln!();
    println!("== Fig. 4: histogram building time vs total training time ==");
    println!(
        "{}",
        render_table(&["Dataset", "total(s)", "hist(s)", "hist share"], &rows)
    );
}

fn fig5(opts: &Opts) {
    let tree_counts: Vec<usize> = if opts.full {
        vec![100, 200, 300, 400, 500]
    } else {
        vec![10, 20, 30, 40, 50]
    };
    let systems = [
        SystemId::MoFu,
        SystemId::MoSp,
        SystemId::CatBoost,
        SystemId::LightGbm,
        SystemId::XgBoost,
        SystemId::SkBoost,
        SystemId::Ours,
    ];
    println!("== Fig. 5: training time vs #trees ==");
    for ds in FIG_DATASETS {
        let (train, test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let mut rows = Vec::new();
        for &t in &tree_counts {
            let mut cfg = opts.config();
            cfg.num_trees = t;
            let mut row = vec![format!("{t}")];
            for &s in &systems {
                let r = run_system(s, &name, &train, &test, &cfg);
                row.push(fmt_secs(r.seconds));
            }
            rows.push(row);
            eprint!(".");
        }
        eprintln!();
        println!("-- {name} --");
        println!(
            "{}",
            render_table(
                &[
                    "#trees", "mo-fu", "mo-sp", "catboost", "lightgbm", "xgboost", "sk-boost",
                    "ours"
                ],
                &rows
            )
        );
    }
}

fn fig6a(opts: &Opts) {
    let cfg = opts.config();
    let variants: [(&str, HistogramMethod, bool); 5] = [
        ("gmem", HistogramMethod::GlobalMemory, false),
        ("smem", HistogramMethod::SharedMemory, false),
        ("all-reduce", HistogramMethod::SortReduce, false),
        ("gmem+wo", HistogramMethod::GlobalMemory, true),
        ("smem+wo", HistogramMethod::SharedMemory, true),
    ];
    let mut rows = Vec::new();
    for ds in FIG_DATASETS {
        let (train, _test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let mut row = vec![name];
        for (_, method, packing) in variants {
            let mut c = cfg.clone();
            c.hist.method = method;
            c.hist.warp_packing = packing;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            row.push(fmt_secs(r.sim_seconds));
            eprint!(".");
        }
        rows.push(row);
    }
    eprintln!();
    println!("== Fig. 6a: histogram building methods (training time, simulated s) ==");
    println!(
        "{}",
        render_table(
            &[
                "Dataset",
                "gmem",
                "smem",
                "all-reduce",
                "gmem+wo",
                "smem+wo"
            ],
            &rows
        )
    );
}

fn fig6b(opts: &Opts) {
    // Paper §4.3.3: synthetic datasets via the sklearn-style generator,
    // 100 trees of depth 6 (scaled here unless --full).
    let class_counts: Vec<usize> = if opts.full {
        vec![5, 50, 100, 250, 500]
    } else {
        vec![5, 25, 50, 100]
    };
    let mut cfg = opts.config();
    cfg.max_depth = if opts.full { 6 } else { 4 };
    let systems = [
        SystemId::CatBoost,
        SystemId::XgBoost,
        SystemId::SkBoost,
        SystemId::Ours,
    ];
    let n = (2000.0 * opts.scale) as usize;
    let mut rows = Vec::new();
    for &classes in &class_counts {
        let data = make_classification(&ClassificationSpec {
            instances: n.max(300),
            features: 20,
            classes,
            informative: 10,
            class_sep: 1.8,
            seed: opts.seed,
            ..Default::default()
        });
        let (train, test) = data.split(0.2, opts.seed);
        let mut row = vec![format!("{classes}")];
        for &s in &systems {
            let r = run_system(s, "synthetic", &train, &test, &cfg);
            row.push(fmt_secs(r.seconds));
            eprint!(".");
        }
        rows.push(row);
    }
    eprintln!();
    println!("== Fig. 6b: training time vs #classes (synthetic) ==");
    println!(
        "{}",
        render_table(
            &["#classes", "catboost", "xgboost", "sk-boost", "ours"],
            &rows
        )
    );
}

fn fig7(opts: &Opts) {
    let depths: Vec<usize> = if opts.full {
        vec![4, 5, 6, 7, 8]
    } else {
        vec![3, 4, 5, 6]
    };
    let systems = [
        SystemId::MoFu,
        SystemId::MoSp,
        SystemId::XgBoost,
        SystemId::SkBoost,
        SystemId::Ours,
    ];
    println!("== Fig. 7: training time vs tree depth ==");
    for ds in FIG_DATASETS {
        let (train, test, name) = bench_dataset(ds, opts.scale, opts.seed);
        let mut rows = Vec::new();
        for &depth in &depths {
            let mut cfg = opts.config();
            cfg.max_depth = depth;
            let mut row = vec![format!("{depth}")];
            for &s in &systems {
                let r = run_system(s, &name, &train, &test, &cfg);
                row.push(fmt_secs(r.seconds));
            }
            rows.push(row);
            eprint!(".");
        }
        eprintln!();
        println!("-- {name} --");
        println!(
            "{}",
            render_table(
                &["depth", "mo-fu", "mo-sp", "xgboost", "sk-boost", "ours"],
                &rows
            )
        );
    }

    // The paper notes CPU baselines "often run out of memory at greater
    // depths" and that our method "avoids out-of-memory failures
    // mostly": estimate full-paper-shape footprints per depth against a
    // 24 GB RTX 4090.
    println!("-- estimated device footprint at FULL paper shapes (24 GB card) --");
    let vram = 24usize * (1 << 30);
    let mut rows = Vec::new();
    for ds in [
        PaperDataset::Delicious,
        PaperDataset::Caltech101,
        PaperDataset::Mnist,
    ] {
        let s = ds.shape();
        // Our single reusable histogram buffer keeps the footprint flat
        // in depth (the paper: "our method remains stable"); a design
        // that retains per-frontier histograms (subtraction mode) shows
        // the depth blow-up that OOMs other systems.
        for (label, subtraction) in [("ours", false), ("retained-hist", true)] {
            let mut row = vec![format!("{} ({label})", s.name)];
            for &depth in &depths {
                let mut cfg = bench_config(100, depth, 256);
                cfg.max_depth = depth;
                cfg.hist.subtraction = subtraction;
                let est = gbdt_core::memory::estimate_training_bytes(
                    s.instances,
                    s.features,
                    s.outputs,
                    &cfg,
                );
                row.push(format!(
                    "{}{}",
                    gbdt_core::memory::human(est.total_bytes),
                    if est.fits(vram) { "" } else { " ⚠OOM" }
                ));
            }
            rows.push(row);
        }
    }
    let headers: Vec<String> = std::iter::once("Dataset".to_string())
        .chain(depths.iter().map(|d| format!("depth {d}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &rows));
}

fn ablations(opts: &Opts) {
    let base_cfg = opts.config();
    let (train, test, name) = bench_dataset(PaperDataset::Caltech101, opts.scale, opts.seed);
    println!("== Ablations (dataset: {name}) ==");

    // 1. Histogram-method selection: adaptive vs fixed.
    {
        let mut rows = Vec::new();
        for (label, method) in [
            ("adaptive", HistogramMethod::Adaptive),
            ("gmem", HistogramMethod::GlobalMemory),
            ("smem", HistogramMethod::SharedMemory),
            ("sort-reduce", HistogramMethod::SortReduce),
        ] {
            let mut c = base_cfg.clone();
            c.hist.method = method;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            rows.push(vec![label.to_string(), fmt_secs(r.sim_seconds)]);
        }
        println!("-- adaptive vs fixed histogram method --");
        println!("{}", render_table(&["method", "time(s)"], &rows));
    }

    // 2. Warp-level bin packing.
    {
        let mut rows = Vec::new();
        for packing in [false, true] {
            let mut c = base_cfg.clone();
            c.hist.warp_packing = packing;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            rows.push(vec![
                if packing { "packed (+wo)" } else { "unpacked" }.to_string(),
                fmt_secs(r.sim_seconds),
            ]);
        }
        println!("-- bin packing (§3.4.1) --");
        println!("{}", render_table(&["bins layout", "time(s)"], &rows));
    }

    // 3. Histogram subtraction.
    {
        let mut rows = Vec::new();
        for sub in [false, true] {
            let mut c = base_cfg.clone();
            c.hist.subtraction = sub;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            rows.push(vec![
                if sub {
                    "parent−child"
                } else {
                    "rebuild both"
                }
                .to_string(),
                fmt_secs(r.sim_seconds),
            ]);
        }
        println!("-- histogram subtraction --");
        println!("{}", render_table(&["children hists", "time(s)"], &rows));
    }

    // 4. Sparsity-aware accumulation.
    {
        let mut rows = Vec::new();
        for sparse in [false, true] {
            let mut c = base_cfg.clone();
            c.hist.sparse_aware = sparse;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            let m = gbdt_bench::model_metric(&r.model, &test);
            rows.push(vec![
                if sparse {
                    "CSC (sparse-aware)"
                } else {
                    "dense bins"
                }
                .to_string(),
                fmt_secs(r.sim_seconds),
                format!("{m:.2}"),
            ]);
        }
        println!("-- sparsity-aware histogram input (§3.2) --");
        println!("{}", render_table(&["storage", "time(s)", "metric"], &rows));
    }

    // 4b. Quantized (bf16) gradients: memory-traffic vs accuracy.
    {
        let mut rows = Vec::new();
        for quantized in [false, true] {
            let mut c = base_cfg.clone();
            c.hist.quantized_gradients = quantized;
            let r = GpuTrainer::new(Device::rtx4090(), c.clone()).fit_report(&train);
            let m = gbdt_bench::model_metric(&r.model, &test);
            let est =
                gbdt_core::memory::estimate_training_bytes(train.n(), train.m(), train.d(), &c);
            rows.push(vec![
                if quantized { "bf16" } else { "f32" }.to_string(),
                fmt_secs(r.sim_seconds),
                format!("{m:.2}"),
                gbdt_core::memory::human(est.gradient_bytes),
            ]);
        }
        println!("-- gradient precision --");
        println!(
            "{}",
            render_table(&["g/h storage", "time(s)", "metric", "grad bytes"], &rows)
        );
    }

    // 5. Adaptive segments-per-block constant C (§3.1.3).
    {
        let mut rows = Vec::new();
        for c_val in [0.0, 1.0, 4.0, 16.0] {
            let mut c = base_cfg.clone();
            c.segments_per_block_c = c_val;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            rows.push(vec![format!("C={c_val}"), fmt_secs(r.sim_seconds)]);
        }
        println!("-- segments-per-block constant (§3.1.3) --");
        println!("{}", render_table(&["C", "time(s)"], &rows));
    }

    // 5b. CUDA-stream overlap of per-node histogram kernels.
    {
        let mut rows = Vec::new();
        for streams in [1usize, 2, 4, 8] {
            let mut c = base_cfg.clone();
            c.streams = streams;
            let r = GpuTrainer::new(Device::rtx4090(), c).fit_report(&train);
            rows.push(vec![format!("{streams}"), fmt_secs(r.sim_seconds)]);
        }
        println!("-- stream-parallel node histograms --");
        println!("{}", render_table(&["streams", "time(s)"], &rows));
    }

    // 5c. Exclusive feature bundling (EFB) on a sparse dataset.
    {
        let (sparse_train, sparse_test, ds_name) =
            bench_dataset(PaperDataset::Delicious, opts.scale, opts.seed);
        let plain = GpuTrainer::new(Device::rtx4090(), base_cfg.clone()).fit_report(&sparse_train);
        let plain_metric = gbdt_bench::model_metric(&plain.model, &sparse_test);

        let csc = gbdt_data::CscMatrix::from_dense(sparse_train.features());
        let plan = gbdt_data::bundling::plan_bundles(&csc, 0.01);
        let bundled_features = plan.apply(sparse_train.features());
        let bundled_train = gbdt_data::Dataset::new(
            bundled_features,
            sparse_train.targets().to_vec(),
            sparse_train.d(),
            sparse_train.task(),
        );
        let bundled_test = gbdt_data::Dataset::new(
            plan.apply(sparse_test.features()),
            sparse_test.targets().to_vec(),
            sparse_test.d(),
            sparse_test.task(),
        );
        let bundled =
            GpuTrainer::new(Device::rtx4090(), base_cfg.clone()).fit_report(&bundled_train);
        let bundled_metric = gbdt_bench::model_metric(&bundled.model, &bundled_test);
        println!("-- exclusive feature bundling ({ds_name}) --");
        println!(
            "{}",
            render_table(
                &["features", "columns", "time(s)", "metric"],
                &[
                    vec![
                        "raw".into(),
                        format!("{}", sparse_train.m()),
                        fmt_secs(plain.sim_seconds),
                        format!("{plain_metric:.3}"),
                    ],
                    vec![
                        "bundled".into(),
                        format!("{}", plan.num_bundles()),
                        fmt_secs(bundled.sim_seconds),
                        format!("{bundled_metric:.3}"),
                    ],
                ]
            )
        );
    }

    // 5d. Device generations (the paper's §4.3 sensitivity study ran
    // on an RTX 3090; the main results on RTX 4090s).
    {
        use gpusim::DeviceProps;
        let mut rows = Vec::new();
        for (name, props) in [
            ("RTX 3090", DeviceProps::rtx3090()),
            ("RTX 4090", DeviceProps::rtx4090()),
            ("A100", DeviceProps::a100()),
            ("H100", DeviceProps::h100()),
        ] {
            let r = GpuTrainer::new(Device::new(0, props), base_cfg.clone()).fit_report(&train);
            rows.push(vec![name.to_string(), fmt_secs(r.sim_seconds)]);
        }
        println!("-- device generations --");
        println!("{}", render_table(&["device", "time(s)"], &rows));
    }

    // 6. Multi-GPU scaling (§3.4.2), feature-parallel vs data-parallel.
    {
        let mut rows = Vec::new();
        let mut t1 = 0.0;
        for k in [1usize, 2, 4, 8] {
            let fp = MultiGpuTrainer::with_strategy(
                DeviceGroup::rtx4090s(k),
                base_cfg.clone(),
                MultiGpuStrategy::FeatureParallel,
            )
            .fit_report(&train);
            let dp = MultiGpuTrainer::with_strategy(
                DeviceGroup::rtx4090s(k),
                base_cfg.clone(),
                MultiGpuStrategy::DataParallel,
            )
            .fit_report(&train);
            if k == 1 {
                t1 = fp.sim_seconds;
            }
            rows.push(vec![
                format!("{k}"),
                fmt_secs(fp.sim_seconds),
                format!("{:.2}×", t1 / fp.sim_seconds),
                fmt_secs(dp.sim_seconds),
            ]);
        }
        println!("-- multi-GPU scaling: feature-parallel (paper) vs data-parallel --");
        println!(
            "{}",
            render_table(&["#GPUs", "feat-par", "speedup", "data-par"], &rows)
        );
        println!(
            "   (data-parallel reduce-scatters the full m×bins×d histogram per node —\n\
             \x20   the communication blow-up that motivates the paper's feature partitioning)\n"
        );
    }
}

/// Host-side cost of the level-wise grower on a synthetic multi-output
/// workload: `host_seconds` (wall-clock of the simulation itself) for
/// every combination of the subtraction trick and the
/// `parallel_level_hist` toggle. Simulated seconds are printed next to
/// each row — identical within a subtraction setting by construction
/// (the toggle moves host arithmetic only, never device charges).
fn hostbench(opts: &Opts) {
    let spec = ClassificationSpec {
        instances: (4_000.0 * opts.scale).round() as usize,
        features: 64,
        classes: 24,
        informative: 24,
        class_sep: 1.2,
        seed: opts.seed,
        ..Default::default()
    };
    let train = make_classification(&spec);
    let mut rows = Vec::new();
    for subtraction in [false, true] {
        for parallel in [false, true] {
            let mut cfg = opts.config();
            cfg.max_depth = cfg.max_depth.max(8); // deep frontier: many live hists
            cfg.hist.subtraction = subtraction;
            cfg.parallel_level_hist = parallel;
            // Median of 3 runs to steady the wall-clock.
            let mut host = Vec::new();
            let mut sim = 0.0;
            for _ in 0..3 {
                let r = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit_report(&train);
                host.push(r.host_seconds);
                sim = r.sim_seconds;
            }
            host.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rows.push(vec![
                if subtraction {
                    "parent−child"
                } else {
                    "rebuild both"
                }
                .to_string(),
                if parallel { "parallel" } else { "serial" }.to_string(),
                format!("{:.3}", host[1]),
                fmt_secs(sim),
            ]);
        }
    }
    println!(
        "== hostbench: level histogram build, n={} m={} d={} ==",
        spec.instances, spec.features, spec.classes
    );
    println!(
        "{}",
        render_table(
            &["children hists", "level build", "host(s)", "sim(s)"],
            &rows
        )
    );
}

/// `repro sanitize` — run one boosting round per histogram method under
/// full memcheck+racecheck, print the per-kernel violation report, run
/// feature- and data-parallel groups with every device sanitized, then
/// replay one round twice as a determinism audit. Returns `false` (exit
/// 1 from `main`) if any violation or divergence is found, or if a
/// group device did not trace the kernels it runs.
fn sanitize_cmd(opts: &Opts) -> bool {
    use gpusim::sanitize::{audit_determinism, digest_f32s};
    use gpusim::SanitizeMode;

    let ds = make_classification(&ClassificationSpec {
        instances: (600.0 * opts.scale).max(50.0) as usize,
        features: 10,
        classes: 5,
        informative: 8,
        class_sep: 1.5,
        flip_y: 0.02,
        seed: opts.seed,
        ..Default::default()
    });
    let base = opts.config().with_trees(1);

    println!("== sanitize: one boosting round, full memcheck+racecheck ==");
    let mut ok = true;
    for (label, method) in [
        ("gmem", HistogramMethod::GlobalMemory),
        ("smem", HistogramMethod::SharedMemory),
        ("sort-reduce", HistogramMethod::SortReduce),
        ("adaptive", HistogramMethod::Adaptive),
    ] {
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let _ = GpuTrainer::new(device.clone(), base.clone().with_hist_method(method)).fit(&ds);
        let report = device.sanitize_report().expect("sanitizer enabled");
        let verdict = if report.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        };
        println!("-- method {label}: {verdict} --");
        println!("{}", report.table());
        ok &= report.is_clean();
    }

    println!("== sanitize: sketched smoke train (sketch mode × hist method) ==");
    // Every sketch mode crossed with every histogram method, one tree
    // each, under full memcheck+racecheck: the sketch kernels (column
    // norms, top-k select, gather, projection) and the full-d leaf
    // refit all carry sanitizer traces that must come back clean.
    let sketch_k = 2; // d = 5 outputs above → a genuine k < d sketch
    for (slabel, sketch) in [
        ("top", OutputSketch::TopOutputs(sketch_k)),
        ("rand", OutputSketch::RandomSampling(sketch_k)),
        ("proj", OutputSketch::RandomProjection(sketch_k)),
    ] {
        for (mlabel, method) in [
            ("gmem", HistogramMethod::GlobalMemory),
            ("smem", HistogramMethod::SharedMemory),
            ("sort-reduce", HistogramMethod::SortReduce),
            ("adaptive", HistogramMethod::Adaptive),
        ] {
            let device = Device::rtx4090();
            device.enable_sanitizer(SanitizeMode::Full);
            let _ = GpuTrainer::new(
                device.clone(),
                base.clone().with_hist_method(method).with_sketch(sketch),
            )
            .fit(&ds);
            let report = device.sanitize_report().expect("sanitizer enabled");
            let verdict = if report.is_clean() {
                "clean"
            } else {
                "VIOLATIONS"
            };
            println!("-- sketch {slabel}{sketch_k} × {mlabel}: {verdict} --");
            if !report.is_clean() {
                println!("{}", report.table());
            }
            ok &= report.is_clean();
        }
    }

    println!("== sanitize: multi-GPU groups (FP/DP × streams 1/4, every device) ==");
    // Every device traces its ingest share, gradients and score update;
    // the lead also traces the leaf values and the partition.
    for (slabel, strategy) in [
        ("FP", MultiGpuStrategy::FeatureParallel),
        ("DP", MultiGpuStrategy::DataParallel),
    ] {
        for streams in [1, 4] {
            let group = DeviceGroup::rtx4090s(2);
            for dev in group.devices() {
                dev.enable_sanitizer(SanitizeMode::Full);
            }
            let cfg = base.clone().with_streams(streams);
            let _ = MultiGpuTrainer::with_strategy(group.clone(), cfg, strategy).fit(&ds);
            for (rank, dev) in group.devices().iter().enumerate() {
                let report = dev.sanitize_report().expect("sanitizer enabled");
                let lead_only: &[&str] = if rank == 0 {
                    &["leaf_values", "partition_level"]
                } else {
                    &[]
                };
                let missing: Vec<&str> = ["quantile_binning", "grad_hess", "update_scores"]
                    .iter()
                    .chain(lead_only)
                    .copied()
                    .filter(|k| !report.kernels.contains_key(k))
                    .collect();
                let clean = report.is_clean() && missing.is_empty();
                let verdict = if clean { "clean" } else { "FAILED" };
                println!("-- {slabel}(2) streams {streams} device {rank}: {verdict} --");
                if !missing.is_empty() {
                    println!("untraced kernels: {missing:?}");
                }
                if !report.is_clean() {
                    println!("{}", report.table());
                }
                ok &= clean;
            }
        }
    }

    println!("== sanitize: determinism audit (adaptive, 2 runs) ==");
    let props = Device::rtx4090().props().clone();
    let cfg = base.with_hist_method(HistogramMethod::Adaptive);
    let audit = audit_determinism(&props, |dev| {
        let model = GpuTrainer::new(dev.clone(), cfg.clone()).fit(&ds);
        digest_f32s(&model.predict(ds.features()))
    });
    println!("{}", audit.table());
    ok &= audit.is_deterministic();

    println!("== sanitize: determinism audit (adaptive + top2 sketch, 2 runs) ==");
    let cfg_sketch = opts
        .config()
        .with_trees(1)
        .with_hist_method(HistogramMethod::Adaptive)
        .with_sketch(OutputSketch::TopOutputs(2));
    let audit = audit_determinism(&props, |dev| {
        let model = GpuTrainer::new(dev.clone(), cfg_sketch.clone()).fit(&ds);
        digest_f32s(&model.predict(ds.features()))
    });
    println!("{}", audit.table());
    ok &= audit.is_deterministic();

    if ok {
        println!("sanitize: OK — zero violations, deterministic replay");
    } else {
        println!("sanitize: FAILED — see report above");
    }
    ok
}

/// Fault-injection matrix: seeded fault plans driven through single-
/// and multi-GPU training, printing per-outcome counts and enforcing
/// the chaos contract — every completed run bit-identical to the
/// fault-free reference, every failure a typed [`TrainError`].
fn chaos_cmd(opts: &Opts) -> bool {
    use gbdt_core::{Checkpoint, RetryPolicy, TrainError};
    use gpusim::FaultPlan;

    let ds = make_classification(&ClassificationSpec {
        instances: (400.0 * opts.scale).max(50.0) as usize,
        features: 10,
        classes: 4,
        informative: 7,
        class_sep: 1.5,
        seed: opts.seed,
        ..Default::default()
    });
    let cfg = opts.config().with_retry(RetryPolicy::retries(2));
    let (single_seeds, multi_seeds) = if opts.smoke {
        (30u64, 10u64)
    } else {
        (120, 40)
    };
    let mut ok = true;

    println!("== chaos: single-GPU seeded sweep ({single_seeds} plans) ==");
    let reference = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&ds);
    let ref_pred = reference.predict(ds.features());
    let (mut clean, mut recovered, mut exhausted, mut lost, mut diverged) = (0u32, 0, 0, 0, 0);
    for seed in 0..single_seeds {
        let device = Device::rtx4090();
        device.enable_faults(FaultPlan::seeded(opts.seed.wrapping_add(seed), 150));
        let trainer = GpuTrainer::try_new(device.clone(), cfg.clone()).expect("valid config");
        match trainer.try_fit(&ds) {
            Ok(model) => {
                if model.predict(ds.features()) == ref_pred {
                    let report = device.fault_report().expect("injector attached");
                    if report.transient_injected > 0 {
                        recovered += 1;
                    } else {
                        clean += 1;
                    }
                } else {
                    diverged += 1;
                }
            }
            Err(TrainError::RetriesExhausted { .. }) => exhausted += 1,
            Err(TrainError::DeviceLost { .. }) => lost += 1,
            Err(e) => {
                println!("  seed {seed}: UNEXPECTED error class: {e}");
                diverged += 1;
            }
        }
    }
    println!(
        "  clean {clean}  recovered {recovered}  retries-exhausted {exhausted}  \
         device-lost {lost}  DIVERGED {diverged}"
    );
    ok &= diverged == 0;

    println!(
        "== chaos: multi-GPU seeded sweep ({multi_seeds} plans × {} GPUs) ==",
        opts.gpus
    );
    let reference = MultiGpuTrainer::new(DeviceGroup::rtx4090s(opts.gpus), cfg.clone()).fit(&ds);
    let ref_pred = reference.predict(ds.features());
    let (mut survived, mut degraded, mut failed, mut diverged) = (0u32, 0, 0, 0);
    for seed in 0..multi_seeds {
        let group = DeviceGroup::rtx4090s(opts.gpus);
        for (i, dev) in group.devices().iter().enumerate() {
            let s = opts.seed.wrapping_add(seed * 31 + i as u64);
            dev.enable_faults(FaultPlan::seeded(s, 120));
        }
        let trainer = MultiGpuTrainer::try_new(group.clone(), cfg.clone()).expect("valid config");
        match trainer.try_fit(&ds) {
            Ok(model) => {
                if model.predict(ds.features()) == ref_pred {
                    let losses: u64 = group
                        .devices()
                        .iter()
                        .filter_map(|d| d.fault_report())
                        .map(|r| r.device_lost)
                        .sum();
                    if losses > 0 {
                        degraded += 1;
                    } else {
                        survived += 1;
                    }
                } else {
                    diverged += 1;
                }
            }
            Err(
                TrainError::RetriesExhausted { .. }
                | TrainError::DeviceLost { .. }
                | TrainError::AllDevicesLost { .. },
            ) => failed += 1,
            Err(e) => {
                println!("  seed {seed}: UNEXPECTED error class: {e}");
                diverged += 1;
            }
        }
    }
    println!(
        "  intact {survived}  degraded {degraded}  typed-failure {failed}  DIVERGED {diverged}"
    );
    ok &= diverged == 0;

    println!("== chaos: checkpoint/resume smoke ==");
    let trainer = GpuTrainer::try_new(Device::rtx4090(), cfg.clone()).expect("valid config");
    match trainer.try_fit_checkpointed(&ds) {
        Ok((full, checkpoints)) => {
            let mid = &checkpoints[checkpoints.len() / 2];
            let roundtrip = Checkpoint::from_bytes(&mid.to_bytes());
            match roundtrip
                .and_then(|ck| gbdt_core::Model::resume_from(Device::rtx4090(), &ck, &ds))
            {
                Ok(resumed) if resumed.model.trees == full.model.trees => {
                    println!(
                        "  resume from tree {} of {}: bit-identical",
                        checkpoints.len() / 2 + 1,
                        checkpoints.len()
                    );
                }
                Ok(_) => {
                    println!("  resume DIVERGED from the uninterrupted run");
                    ok = false;
                }
                Err(e) => {
                    println!("  resume FAILED: {e}");
                    ok = false;
                }
            }
        }
        Err(e) => {
            println!("  checkpointed fit FAILED: {e}");
            ok = false;
        }
    }

    if ok {
        println!("chaos: OK — all completions bit-identical, all failures typed");
    } else {
        println!("chaos: FAILED — see report above");
    }
    ok
}

/// The machine-readable perf/quality grid behind `BENCH_repro.json`:
/// per histogram method × dataset, reporting *deterministic* simulated
/// phase breakdowns + hist share + quality (and informational host
/// wall-clock). With `--baseline F --check`, diff-gates the run against
/// the committed baseline and returns `false` on drift.
fn bench_cmd(opts: &Opts) -> bool {
    use gbdt_bench::metric_of;
    use gbdt_bench::report::{diff_gate, make_record, BenchReport, BenchSetup};

    // Grid: smoke keeps a clf/multilabel/reg triple at reduced scale so
    // CI stays fast; the regular grid runs the Fig. 4 datasets plus Rf1
    // for regression coverage.
    let (datasets, scale_mult, mut cfg) = if opts.smoke {
        let grid = vec![
            PaperDataset::Mnist,
            PaperDataset::NusWide,
            PaperDataset::Rf1,
        ];
        (grid, opts.scale * 0.25, bench_config(3, 4, 32))
    } else {
        let grid = vec![
            PaperDataset::Mnist,
            PaperDataset::Caltech101,
            PaperDataset::MnistIn,
            PaperDataset::NusWide,
            PaperDataset::Rf1,
        ];
        (grid, opts.scale, opts.config())
    };
    cfg.streams = opts.streams;
    let setup = BenchSetup {
        trees: cfg.num_trees as u64,
        depth: cfg.max_depth as u64,
        bins: cfg.max_bins as u64,
        scale: scale_mult,
        seed: opts.seed,
        smoke: opts.smoke,
        streams: opts.streams as u64,
    };
    let methods = [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
        HistogramMethod::Adaptive,
    ];

    println!("== bench: perf/quality grid (hist method × dataset) ==");
    println!(
        "{:<12} {:<10} {:<8} {:>10} {:>10} {:>9} {:>12}",
        "dataset", "method", "sketch", "sim (s)", "host (s)", "hist%", "metric"
    );
    let mut records = Vec::new();
    let mut trace_pending = opts.trace.as_deref();
    for ds in datasets {
        let (train, test, name) = bench_dataset(ds, scale_mult, opts.seed);
        for method in methods {
            let device = Device::rtx4090();
            let tracing_this_run = trace_pending.is_some();
            if tracing_this_run {
                device.enable_profiler();
            }
            let r = GpuTrainer::new(
                device.clone(),
                cfg.clone()
                    .with_hist_method(method)
                    .with_sketch(opts.sketch),
            )
            .fit_report(&train);
            if let Some(path) = trace_pending.take() {
                let trace = device.chrome_trace().expect("profiler enabled");
                if let Err(e) = std::fs::write(path, trace) {
                    eprintln!("error: cannot write trace {path}: {e}");
                    return false;
                }
                println!("(wrote Chrome trace of {name}/{method:?} to {path})");
            }
            let (metric_name, metric) =
                metric_of(train.task(), &r.model.predict(test.features()), &test);
            let rec = make_record(
                &name,
                method,
                opts.sketch.label().as_str(),
                &r.sim,
                r.host_seconds,
                metric_name,
                metric,
            );
            println!(
                "{:<12} {:<10} {:<8} {:>10.4} {:>10.3} {:>8.1}% {:>12.4}",
                rec.dataset,
                rec.hist_method,
                rec.sketch,
                rec.sim_seconds,
                rec.host_seconds,
                100.0 * rec.hist_share,
                rec.metric
            );
            records.push(rec);
        }
    }

    // Wide-output sketch comparison (the issue's headline number): on
    // the widest-output grid dataset (d ≥ 16) train the adaptive method
    // under every sketch mode at k = d/4 and report the simulated-ns
    // reduction against a dense reference. Runs at the *unreduced*
    // `--scale` even under `--smoke` (the smoke grid floors NUS-WIDE at
    // 300 instances, where fixed per-tree overheads mask the n × d → n
    // × k histogram saving); the dataset is small enough that this
    // stays CI-fast. Only meaningful when the main grid ran dense
    // (`--sketch none`, the default).
    if opts.sketch.is_none() {
        let ds = PaperDataset::NusWide;
        let (train, test, name) = bench_dataset(ds, opts.scale, opts.seed);
        // Distinct record identity: the main grid may carry the same
        // (dataset, method, sketch) triple at the reduced smoke scale.
        let name = format!("{name}@1x");
        let d = train.d();
        let k = (d / 4).max(1);
        let dense_dev = Device::rtx4090();
        let dense = GpuTrainer::new(
            dense_dev.clone(),
            cfg.clone().with_hist_method(HistogramMethod::Adaptive),
        )
        .fit_report(&train);
        let (dense_metric_name, dense_metric) =
            metric_of(train.task(), &dense.model.predict(test.features()), &test);
        let dense_rec = make_record(
            &name,
            HistogramMethod::Adaptive,
            "none",
            &dense.sim,
            dense.host_seconds,
            dense_metric_name,
            dense_metric,
        );
        let dense_sim = dense_rec.sim_seconds;
        println!("== bench: sketch comparison ({name}, adaptive, d={d}, k={k}) ==");
        println!(
            "{:<12} {:<10} {:<8} {:>10.4} {:>10.3} {:>8.1}% {:>12.4}",
            dense_rec.dataset,
            dense_rec.hist_method,
            dense_rec.sketch,
            dense_rec.sim_seconds,
            dense_rec.host_seconds,
            100.0 * dense_rec.hist_share,
            dense_rec.metric
        );
        records.push(dense_rec);
        for sketch in [
            OutputSketch::TopOutputs(k),
            OutputSketch::RandomSampling(k),
            OutputSketch::RandomProjection(k),
        ] {
            let device = Device::rtx4090();
            let r = GpuTrainer::new(
                device.clone(),
                cfg.clone()
                    .with_hist_method(HistogramMethod::Adaptive)
                    .with_sketch(sketch),
            )
            .fit_report(&train);
            let (metric_name, metric) =
                metric_of(train.task(), &r.model.predict(test.features()), &test);
            let rec = make_record(
                &name,
                HistogramMethod::Adaptive,
                sketch.label().as_str(),
                &r.sim,
                r.host_seconds,
                metric_name,
                metric,
            );
            let speedup = if dense_sim > 0.0 {
                100.0 * (1.0 - rec.sim_seconds / dense_sim)
            } else {
                0.0
            };
            println!(
                "{:<12} {:<10} {:<8} {:>10.4} {:>10.3} {:>8.1}% {:>12.4}   (sim-ns -{speedup:.1}%)",
                rec.dataset,
                rec.hist_method,
                rec.sketch,
                rec.sim_seconds,
                rec.host_seconds,
                100.0 * rec.hist_share,
                rec.metric
            );
            records.push(rec);
        }
    }
    // Multi-GPU stream overlap: the headline win of the stream/event
    // timeline. Train the data-parallel strategy (per-node full-
    // histogram reduce-scatter — the communication-heaviest path)
    // serial vs streamed on the same device group; the streamed
    // schedule must produce the identical model while each node's
    // reduce-scatter drains behind the next node's histogram build.
    // Savings are printed (and land in each record's `overlap_saved_ns`
    // when `--streams > 1`), never gated.
    {
        let gpus = opts.gpus.max(2);
        let streams = opts.streams.max(4);
        let (train, _, name) = bench_dataset(PaperDataset::NusWide, scale_mult, opts.seed);
        let serial = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(gpus),
            cfg.clone().with_streams(1),
            MultiGpuStrategy::DataParallel,
        )
        .fit_report(&train);
        let streamed = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(gpus),
            cfg.clone().with_streams(streams),
            MultiGpuStrategy::DataParallel,
        )
        .fit_report(&train);
        if serial.model.predict(train.features()) != streamed.model.predict(train.features()) {
            eprintln!("error: streamed multi-GPU schedule changed the model on {name}");
            return false;
        }
        let cut = 100.0 * (1.0 - streamed.sim_seconds / serial.sim_seconds);
        println!(
            "== bench: multi-GPU stream overlap ({name}, data-parallel, {gpus} GPUs) ==\n\
             serial {:.4}s -> {streams} streams {:.4}s  (sim-ns -{cut:.1}%, overlap_saved {:.0} ns; models bit-identical)",
            serial.sim_seconds, streamed.sim_seconds, streamed.sim.overlap_saved_ns
        );
    }

    let report = BenchReport {
        schema_version: gbdt_bench::report::BENCH_SCHEMA_VERSION,
        device: Device::rtx4090().props().name.clone(),
        setup,
        records,
    };
    // Ledger health: report-never-gate. Shed records or clamped
    // negative charges deserve a human's eye on every run, baseline or
    // not, without ever failing CI.
    for note in gbdt_bench::report::health_notes(&report) {
        println!("bench: note — {note}");
    }
    if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
        eprintln!("error: cannot write {}: {e}", opts.out);
        return false;
    }
    println!("(wrote {} records to {})", report.records.len(), opts.out);

    // Schema self-validation: the freshly written file must round-trip
    // through the strict reader (schema version + full phase-key set).
    match std::fs::read_to_string(&opts.out).map_err(|e| e.to_string()) {
        Ok(text) => {
            if let Err(e) = BenchReport::from_json(&text) {
                eprintln!("error: {} failed schema validation: {e}", opts.out);
                return false;
            }
        }
        Err(e) => {
            eprintln!("error: cannot re-read {}: {e}", opts.out);
            return false;
        }
    }

    if opts.update_baseline {
        let Some(path) = &opts.baseline else {
            eprintln!("error: --update-baseline requires --baseline FILE");
            return false;
        };
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot rewrite baseline {path}: {e}");
            return false;
        }
        println!("(rewrote baseline {path} from this run)");
    }

    if opts.check {
        let Some(path) = &opts.baseline else {
            eprintln!("error: --check requires --baseline FILE");
            return false;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return false;
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: invalid baseline {path}: {e}");
                return false;
            }
        };
        for note in gbdt_bench::report::overlap_notes(&report, &baseline) {
            println!("bench: note — {note}");
        }
        let fails = diff_gate(&report, &baseline);
        if fails.is_empty() {
            println!("bench: OK — within tolerance of {path}");
        } else {
            eprintln!("bench: FAILED regression gate vs {path}:");
            for f in &fails {
                eprintln!("  {f}");
            }
            return false;
        }
    }
    true
}

/// `repro serve`: the batched-serving benchmark. Trains a NUS-WIDE-
/// shaped model, compares `predict_on_device` under both
/// parallelization schemes (the tree-level scheme must charge strictly
/// more — it pays the T×n×d partial reduction), compiles + validates +
/// uploads the ensemble, then drives a burst of single-row submissions
/// through the `BatchServer` at `max_batch` 1 vs `--batch`, checking
/// bit-identity against `Model::predict` throughout.
fn serve_cmd(opts: &Opts) -> bool {
    use gbdt_bench::serve_report::{
        serve_diff_gate, serve_self_check, ServeRecord, ServeReport, ServeSetup,
        SERVE_SCHEMA_VERSION,
    };
    use gbdt_core::predict::predict_on_device;
    use gbdt_core::{BatchConfig, BatchServer, DeviceEnsemble, PredictMode, ServedBatch};

    if opts.batch == 0 {
        eprintln!("error: --batch must be positive");
        return false;
    }
    let (scale_mult, cfg) = if opts.smoke {
        (opts.scale * 0.25, bench_config(3, 4, 32))
    } else {
        (opts.scale, opts.config())
    };
    let (train, test, name) = bench_dataset(PaperDataset::NusWide, scale_mult, opts.seed);
    let model = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&train);
    let reference = model.predict(test.features());
    let n = test.features().rows();
    let d = model.d;
    let mut bit_identical = true;

    println!("== serve: batched serving of a compiled ensemble ({name}) ==");

    // Offline scheme comparison on fresh devices. The tree-level column
    // existing strictly above the instance-level one is the fixed
    // under-charge made visible.
    let mut predict_ns = Vec::new();
    for mode in [PredictMode::InstanceLevel, PredictMode::TreeLevel] {
        let device = Device::rtx4090();
        let t0 = device.now_ns();
        let scores = predict_on_device(&device, &model.trees, &model.base, test.features(), mode);
        bit_identical &= scores == reference;
        predict_ns.push(device.now_ns() - t0);
    }
    println!(
        "predict_on_device ({n} rows, d={d}): instance {:.0} ns, tree {:.0} ns ({:.2}x)",
        predict_ns[0],
        predict_ns[1],
        predict_ns[1] / predict_ns[0].max(1.0)
    );

    let compiled = model.compile();
    if let Err(e) = compiled.validate() {
        eprintln!("error: compiled ensemble failed validation: {e}");
        return false;
    }

    let runs = [
        ("single", "instance", 1usize, PredictMode::InstanceLevel),
        (
            "batched",
            "instance",
            opts.batch,
            PredictMode::InstanceLevel,
        ),
        ("batched", "tree", opts.batch, PredictMode::TreeLevel),
    ];
    let mut records = Vec::new();
    let mut table_rows = Vec::new();
    for (mode_key, predict_key, max_batch, pmode) in runs {
        let device = Device::rtx4090();
        let ens = DeviceEnsemble::upload(device.clone(), &compiled);
        let upload_ns = device
            .summary()
            .by_phase
            .get(&Phase::Transfer)
            .copied()
            .unwrap_or(0.0);
        let resident_bytes = ens.resident_bytes() as u64;
        let mut server = match BatchServer::new(
            ens,
            BatchConfig {
                max_batch,
                mode: pmode,
                ..BatchConfig::default()
            },
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: invalid batch config: {e}");
                return false;
            }
        };
        // Burst arrival: every row is already queued when the upload
        // finishes, so throughput measures pure kernel efficiency.
        let t0 = device.now_ns();
        let mut out = vec![0.0f32; n * d];
        let mut deliver = |b: ServedBatch| {
            let start = b.first_id as usize * d;
            out[start..start + b.scores.len()].copy_from_slice(&b.scores);
        };
        for i in 0..n {
            for b in server.submit(t0, test.features().row(i)) {
                deliver(b);
            }
        }
        if let Some(b) = server.flush() {
            deliver(b);
        }
        bit_identical &= out == reference;
        let stats = server.stats();
        let serve_ns = device
            .summary()
            .by_phase
            .get(&Phase::Serve)
            .copied()
            .unwrap_or(0.0);
        table_rows.push(vec![
            mode_key.to_string(),
            predict_key.to_string(),
            format!("{max_batch}"),
            format!("{}", stats.batches),
            format!("{:.0}", stats.p50_ns),
            format!("{:.0}", stats.p99_ns),
            format!("{:.0}", stats.throughput_rps),
        ]);
        records.push(ServeRecord {
            dataset: name.clone(),
            mode: mode_key.to_string(),
            predict: predict_key.to_string(),
            rows: n as u64,
            batches: stats.batches,
            latency_p50_ns: stats.p50_ns,
            latency_p99_ns: stats.p99_ns,
            throughput_rps: stats.throughput_rps,
            serve_ns,
            upload_ns,
            resident_bytes,
        });
    }
    println!(
        "{}",
        render_table(
            &["mode", "predict", "batch", "batches", "p50 (ns)", "p99 (ns)", "rows/s"],
            &table_rows
        )
    );
    println!(
        "resident ensemble: {} bytes (upload {:.0} ns)",
        records[0].resident_bytes, records[0].upload_ns
    );
    let batched_speedup =
        records[1].throughput_rps / records[0].throughput_rps.max(f64::MIN_POSITIVE);
    println!(
        "batched speedup: {batched_speedup:.1}x over single-row; bit-identical: {bit_identical}"
    );

    let report = ServeReport {
        schema_version: SERVE_SCHEMA_VERSION,
        device: Device::rtx4090().props().name.clone(),
        setup: ServeSetup {
            trees: cfg.num_trees as u64,
            depth: cfg.max_depth as u64,
            bins: cfg.max_bins as u64,
            scale: scale_mult,
            seed: opts.seed,
            smoke: opts.smoke,
            batch: opts.batch as u64,
            rows: n as u64,
        },
        instance_predict_ns: predict_ns[0],
        tree_predict_ns: predict_ns[1],
        batched_speedup,
        bit_identical,
        records,
    };

    let fails = serve_self_check(&report);
    if !fails.is_empty() {
        eprintln!("serve: FAILED self-check:");
        for f in &fails {
            eprintln!("  {f}");
        }
        return false;
    }

    // `--out` defaults to the bench report's name; serve writes its own
    // file unless the flag was passed explicitly.
    let out = if opts.out == "BENCH_repro.json" {
        "SERVE_repro.json".to_string()
    } else {
        opts.out.clone()
    };
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("error: cannot write {out}: {e}");
        return false;
    }
    println!("(wrote {} records to {out})", report.records.len());
    match std::fs::read_to_string(&out).map_err(|e| e.to_string()) {
        Ok(text) => {
            if let Err(e) = ServeReport::from_json(&text) {
                eprintln!("error: {out} failed schema validation: {e}");
                return false;
            }
        }
        Err(e) => {
            eprintln!("error: cannot re-read {out}: {e}");
            return false;
        }
    }

    if opts.update_baseline {
        let Some(path) = &opts.baseline else {
            eprintln!("error: --update-baseline requires --baseline FILE");
            return false;
        };
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot rewrite baseline {path}: {e}");
            return false;
        }
        println!("(rewrote baseline {path} from this run)");
    }

    if opts.check {
        let Some(path) = &opts.baseline else {
            eprintln!("error: --check requires --baseline FILE");
            return false;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                return false;
            }
        };
        let baseline = match ServeReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: invalid baseline {path}: {e}");
                return false;
            }
        };
        let fails = serve_diff_gate(&report, &baseline);
        if fails.is_empty() {
            println!("serve: OK — within tolerance of {path}");
        } else {
            eprintln!("serve: FAILED regression gate vs {path}:");
            for f in &fails {
                eprintln!("  {f}");
            }
            return false;
        }
    }
    true
}

/// `repro report`: the unified observability surface. One instrumented
/// run — training plus a serving burst on the *same* device — with the
/// telemetry registry, hierarchical profiler and (eventless) fault
/// injector all attached. Per-phase time comes from the ledger alone
/// (the observers keep no totals of their own). The joined report
/// lands as a human-readable set of tables and one machine-readable
/// JSON document under `TELEMETRY_SCHEMA_VERSION`. Fails on a served
/// score that differs from `Model::predict` or on an output that
/// cannot be written or read back.
fn report_cmd(opts: &Opts) -> bool {
    use gbdt_core::{BatchConfig, BatchServer, DeviceEnsemble, PredictMode, ServedBatch};
    use gpusim::{FaultPlan, TELEMETRY_SCHEMA_VERSION};
    use serde::{Serialize, Value};

    if opts.batch == 0 {
        eprintln!("error: --batch must be positive");
        return false;
    }
    let (scale_mult, mut cfg) = if opts.smoke {
        (opts.scale * 0.25, bench_config(3, 4, 32))
    } else {
        (opts.scale, opts.config())
    };
    cfg.streams = opts.streams;
    let (train, test, name) = bench_dataset(PaperDataset::NusWide, scale_mult, opts.seed);

    // One device carries the whole run so every observer sees the same
    // timeline. The fault injector gets an *empty* plan: it observes
    // (and counts) every charge without ever firing, so the report's
    // FaultReport section is populated on a healthy run too.
    let device = Device::rtx4090();
    let tel = device.enable_telemetry();
    device.enable_profiler();
    device.enable_faults(FaultPlan::default());

    println!("== report: unified instrumented run ({name}) ==");
    let r = GpuTrainer::new(device.clone(), cfg.clone()).fit_report(&train);

    // Serving burst on the same device, mirroring `repro serve`'s
    // batched leg.
    let compiled = r.model.compile();
    if let Err(e) = compiled.validate() {
        eprintln!("error: compiled ensemble failed validation: {e}");
        return false;
    }
    let ens = DeviceEnsemble::upload(device.clone(), &compiled);
    let mut server = match BatchServer::new(
        ens,
        BatchConfig {
            max_batch: opts.batch,
            mode: PredictMode::InstanceLevel,
            ..BatchConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: invalid batch config: {e}");
            return false;
        }
    };
    let n = test.features().rows();
    let d = r.model.d;
    let reference = r.model.predict(test.features());
    let t0 = device.now_ns();
    let mut out = vec![0.0f32; n * d];
    let mut deliver = |b: ServedBatch| {
        let start = b.first_id as usize * d;
        out[start..start + b.scores.len()].copy_from_slice(&b.scores);
    };
    for i in 0..n {
        for b in server.submit(t0, test.features().row(i)) {
            deliver(b);
        }
    }
    if let Some(b) = server.flush() {
        deliver(b);
    }
    if out != reference {
        eprintln!("error: served scores diverged from Model::predict");
        return false;
    }
    let stats = server.stats();

    let ledger = device.summary();
    let snap = tel.snapshot();
    println!("{}", ledger.table());

    let counter_rows: Vec<Vec<String>> = snap
        .counters
        .iter()
        .map(|(k, v)| vec![k.clone(), v.to_string()])
        .collect();
    println!("{}", render_table(&["counter", "value"], &counter_rows));
    let gauge_rows: Vec<Vec<String>> = snap
        .gauges
        .iter()
        .map(|(k, v)| vec![k.clone(), format!("{v:.4}")])
        .collect();
    println!("{}", render_table(&["gauge", "value"], &gauge_rows));

    let profile = device.profile_summary().expect("profiler enabled");
    let fault = device.fault_report().expect("injector attached");
    println!(
        "train: {:.4} sim-s ({:.3} host-s), {} kernels, {} ledger drops, {} negative charges",
        r.sim_seconds,
        r.host_seconds,
        ledger.kernel_count,
        ledger.dropped_records,
        ledger.negative_charges
    );
    println!(
        "serve: {} requests in {} batches, p50 {:.0} ns, p99 {:.0} ns, {:.0} rows/s",
        stats.served, stats.batches, stats.p50_ns, stats.p99_ns, stats.throughput_rps
    );
    println!(
        "faults: {} charges seen, {} transient, {} lost",
        fault.charges_seen, fault.transient_injected, fault.device_lost
    );
    println!(
        "recorder: {} charges, {} faults, {} spans observed",
        snap.charges_recorded, snap.faults_recorded, snap.spans_recorded
    );

    // Machine-readable join. `telemetry` embeds the registry's own
    // schema-versioned envelope; the top level repeats the version so
    // consumers can gate before descending.
    let doc = Value::Object(vec![
        (
            "telemetry_schema_version".to_string(),
            Value::UInt(TELEMETRY_SCHEMA_VERSION as u64),
        ),
        (
            "setup".to_string(),
            Value::Object(vec![
                ("dataset".to_string(), Value::String(name.clone())),
                ("trees".to_string(), Value::UInt(cfg.num_trees as u64)),
                ("depth".to_string(), Value::UInt(cfg.max_depth as u64)),
                ("bins".to_string(), Value::UInt(cfg.max_bins as u64)),
                ("scale".to_string(), Value::Float(scale_mult)),
                ("seed".to_string(), Value::UInt(opts.seed)),
                ("smoke".to_string(), Value::Bool(opts.smoke)),
                ("batch".to_string(), Value::UInt(opts.batch as u64)),
                ("streams".to_string(), Value::UInt(opts.streams as u64)),
            ]),
        ),
        ("telemetry".to_string(), tel.to_value()),
        ("profile".to_string(), profile.to_value()),
        ("ledger".to_string(), ledger.to_value()),
        (
            "fault_report".to_string(),
            Value::Object(vec![
                ("charges_seen".to_string(), Value::UInt(fault.charges_seen)),
                (
                    "transient_injected".to_string(),
                    Value::UInt(fault.transient_injected),
                ),
                ("device_lost".to_string(), Value::UInt(fault.device_lost)),
                (
                    "flips_planned".to_string(),
                    Value::UInt(fault.flips_planned),
                ),
                (
                    "flips_applied".to_string(),
                    Value::UInt(fault.flips_applied),
                ),
                (
                    "charges_dropped_after_loss".to_string(),
                    Value::UInt(fault.charges_dropped_after_loss),
                ),
            ]),
        ),
        (
            "serve".to_string(),
            Value::Object(vec![
                ("served".to_string(), Value::UInt(stats.served)),
                ("batches".to_string(), Value::UInt(stats.batches)),
                ("p50_ns".to_string(), Value::Float(stats.p50_ns)),
                ("p90_ns".to_string(), Value::Float(stats.p90_ns)),
                ("p99_ns".to_string(), Value::Float(stats.p99_ns)),
                ("max_ns".to_string(), Value::Float(stats.max_ns)),
                (
                    "throughput_rps".to_string(),
                    Value::Float(stats.throughput_rps),
                ),
            ]),
        ),
    ]);

    // `--out` defaults to the bench report's name; report writes its
    // own file unless the flag was passed explicitly.
    let out = if opts.out == "BENCH_repro.json" {
        "REPORT_repro.json".to_string()
    } else {
        opts.out.clone()
    };
    let json = serde_json::to_string(&doc).expect("report floats are finite");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return false;
    }
    println!("(wrote unified run report to {out})");
    // Round-trip: the file on disk must parse and carry the version.
    match std::fs::read_to_string(&out)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<Value>(&text).map_err(|e| e.to_string()))
    {
        Ok(parsed) => {
            let version = parsed
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "telemetry_schema_version"))
                .map(|(_, v)| v.clone());
            if version != Some(Value::UInt(TELEMETRY_SCHEMA_VERSION as u64)) {
                eprintln!("error: {out} lost its telemetry_schema_version tag");
                return false;
            }
        }
        Err(e) => {
            eprintln!("error: {out} failed JSON round-trip: {e}");
            return false;
        }
    }

    if let Some(path) = &opts.prom {
        if let Err(e) = std::fs::write(path, tel.prometheus()) {
            eprintln!("error: cannot write {path}: {e}");
            return false;
        }
        println!("(wrote Prometheus exposition to {path})");
    }

    println!("report: OK");
    true
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    fn argv(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_command_and_flags() {
        let (cmd, opts) =
            parse_args(argv(&["fig4", "--trees", "7", "--scale", "0.5", "--full"])).unwrap();
        assert_eq!(cmd, "fig4");
        assert_eq!(opts.trees, 7);
        assert_eq!(opts.scale, 0.5);
        assert!(opts.full);
    }

    #[test]
    fn empty_args_default_to_help() {
        let (cmd, _) = parse_args(argv(&[])).unwrap();
        assert_eq!(cmd, "help");
    }

    #[test]
    fn parses_sketch_and_update_baseline_flags() {
        let (cmd, opts) = parse_args(argv(&[
            "bench",
            "--sketch",
            "top4",
            "--update-baseline",
            "--baseline",
            "BENCH_baseline.json",
        ]))
        .unwrap();
        assert_eq!(cmd, "bench");
        assert_eq!(opts.sketch, OutputSketch::TopOutputs(4));
        assert!(opts.update_baseline);
        assert_eq!(parse_sketch("none").unwrap(), OutputSketch::None);
        assert_eq!(
            parse_sketch("rand8").unwrap(),
            OutputSketch::RandomSampling(8)
        );
        assert_eq!(
            parse_sketch("proj16").unwrap(),
            OutputSketch::RandomProjection(16)
        );
        // Round-trips through the config label.
        for label in ["none", "top4", "rand8", "proj16"] {
            assert_eq!(parse_sketch(label).unwrap().label(), label);
        }
        assert!(parse_sketch("topk").is_err());
        assert!(parse_sketch("banana").is_err());
    }

    #[test]
    fn parses_report_flags() {
        let (cmd, opts) =
            parse_args(argv(&["report", "--smoke", "--prom", "metrics.prom"])).unwrap();
        assert_eq!(cmd, "report");
        assert!(opts.smoke);
        assert_eq!(opts.prom.as_deref(), Some("metrics.prom"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse_args(argv(&["fig4", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse_args(argv(&["fig4", "--trees"])).unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        assert!(err.contains("--trees"), "{err}");
    }

    #[test]
    fn unparsable_value_is_an_error() {
        let err = parse_args(argv(&["fig4", "--trees", "many"])).unwrap_err();
        assert!(err.contains("invalid value"), "{err}");
        assert!(err.contains("many"), "{err}");
    }
}
