//! System-level invariants of the simulated-device cost model — the
//! behaviours the paper's evaluation hinges on must hold end-to-end
//! through the public API.

use gbdt_mo::baselines::{GbdtSoTrainer, GrowthPolicy};
use gbdt_mo::core::{HistogramMethod, MultiGpuTrainer};
use gbdt_mo::prelude::*;

fn classification(n: usize, m: usize, d: usize, sparsity: f64, seed: u64) -> Dataset {
    make_classification(&ClassificationSpec {
        instances: n,
        features: m,
        classes: d,
        informative: (m / 2).max(1),
        sparsity,
        seed,
        ..Default::default()
    })
}

fn config(trees: usize, depth: usize) -> TrainConfig {
    TrainConfig {
        num_trees: trees,
        max_depth: depth,
        max_bins: 64,
        min_instances: 10,
        ..TrainConfig::default()
    }
}

#[test]
fn histogram_is_the_dominant_phase_fig4() {
    // The paper's headline profiling claim (Fig. 4): histogram building
    // dominates GBDT-MO training.
    let ds = classification(3000, 40, 12, 0.5, 1);
    let report = GpuTrainer::new(Device::rtx4090(), config(8, 5)).fit_report(&ds);
    let hist = report.histogram_fraction();
    assert!(
        hist > 0.5,
        "histogram fraction {hist} should dominate (paper: 67–89%)"
    );
    for phase in [Phase::Gradient, Phase::SplitEval, Phase::Partition] {
        assert!(
            hist > report.sim.fraction(phase),
            "{phase:?} outweighs histogram building"
        );
    }
}

#[test]
fn training_time_scales_linearly_in_trees_fig5() {
    let ds = classification(1500, 20, 8, 0.3, 2);
    let t10 = GpuTrainer::new(Device::rtx4090(), config(10, 4))
        .fit_report(&ds)
        .sim_seconds;
    let t40 = GpuTrainer::new(Device::rtx4090(), config(40, 4))
        .fit_report(&ds)
        .sim_seconds;
    let ratio = t40 / t10;
    assert!(
        (3.0..=5.0).contains(&ratio),
        "4× trees should be ~4× time, got {ratio}"
    );
}

#[test]
fn deeper_trees_cost_more_fig7() {
    let ds = classification(2000, 20, 8, 0.3, 3);
    let mut last = 0.0;
    for depth in [2usize, 4, 6] {
        let t = GpuTrainer::new(Device::rtx4090(), config(5, depth))
            .fit_report(&ds)
            .sim_seconds;
        assert!(t > last, "depth {depth} not more expensive: {t} vs {last}");
        last = t;
    }
}

#[test]
fn so_scales_with_classes_mo_does_not_fig6b() {
    let few = classification(800, 12, 3, 0.0, 4);
    let many = classification(800, 12, 12, 0.0, 4);

    let mo_ratio = {
        let a = GpuTrainer::new(Device::rtx4090(), config(5, 4))
            .fit_report(&few)
            .sim_seconds;
        let b = GpuTrainer::new(Device::rtx4090(), config(5, 4))
            .fit_report(&many)
            .sim_seconds;
        b / a
    };
    let so_ratio = {
        let a = GbdtSoTrainer::new(Device::rtx4090(), config(5, 4), GrowthPolicy::LevelWise)
            .fit_report(&few)
            .sim_seconds;
        let b = GbdtSoTrainer::new(Device::rtx4090(), config(5, 4), GrowthPolicy::LevelWise)
            .fit_report(&many)
            .sim_seconds;
        b / a
    };
    assert!(
        so_ratio > mo_ratio * 1.5,
        "4× classes: SO ratio {so_ratio} should far exceed MO ratio {mo_ratio}"
    );
}

#[test]
fn multi_gpu_accelerates_wide_data_table2() {
    let ds = classification(10_000, 64, 16, 0.3, 5);
    let t1 = MultiGpuTrainer::new(DeviceGroup::rtx4090s(1), config(4, 4))
        .fit_report(&ds)
        .sim_seconds;
    let t2 = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), config(4, 4))
        .fit_report(&ds)
        .sim_seconds;
    let t4 = MultiGpuTrainer::new(DeviceGroup::rtx4090s(4), config(4, 4))
        .fit_report(&ds)
        .sim_seconds;
    assert!(t2 < t1, "2 GPUs ({t2}) not faster than 1 ({t1})");
    assert!(t4 < t2, "4 GPUs ({t4}) not faster than 2 ({t2})");
    assert!(t4 > t1 / 4.5, "4-GPU speedup unrealistically superlinear");
}

#[test]
fn warp_packing_speeds_up_training_fig6a() {
    let ds = classification(4000, 32, 10, 0.6, 6);
    let packed = GpuTrainer::new(
        Device::rtx4090(),
        config(5, 5).with_hist_method(HistogramMethod::SharedMemory),
    )
    .fit_report(&ds)
    .sim_seconds;
    let unpacked = GpuTrainer::new(
        Device::rtx4090(),
        config(5, 5)
            .with_hist_method(HistogramMethod::SharedMemory)
            .with_warp_packing(false),
    )
    .fit_report(&ds)
    .sim_seconds;
    assert!(
        packed < unpacked * 0.8,
        "+wo should cut smem time markedly: {packed} vs {unpacked}"
    );
}

#[test]
fn sort_reduce_is_most_expensive_fixed_method_fig6a() {
    let ds = classification(3000, 32, 12, 0.5, 7);
    let time_of = |method: HistogramMethod| {
        GpuTrainer::new(Device::rtx4090(), config(5, 5).with_hist_method(method))
            .fit_report(&ds)
            .sim_seconds
    };
    let sort = time_of(HistogramMethod::SortReduce);
    let gmem = time_of(HistogramMethod::GlobalMemory);
    let smem = time_of(HistogramMethod::SharedMemory);
    assert!(sort > smem, "sort-reduce {sort} should exceed smem {smem}");
    assert!(
        sort > gmem * 0.8,
        "sort-reduce {sort} should be in gmem's ballpark or worse ({gmem})"
    );
}

#[test]
fn adaptive_selection_is_at_least_as_good_as_the_best_fixed() {
    let ds = classification(3000, 32, 12, 0.5, 8);
    let time_of = |method: HistogramMethod| {
        GpuTrainer::new(Device::rtx4090(), config(5, 5).with_hist_method(method))
            .fit_report(&ds)
            .sim_seconds
    };
    let adaptive = time_of(HistogramMethod::Adaptive);
    let best_fixed = [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
    ]
    .into_iter()
    .map(time_of)
    .fold(f64::INFINITY, f64::min);
    assert!(
        adaptive <= best_fixed * 1.1,
        "adaptive {adaptive} should be within 10% of best fixed {best_fixed}"
    );
}

/// Simulated seconds of a 4-output and a 16-output fit of the same
/// shape, with or without the warp-level optimization.
fn output_costs(warp_packing: bool) -> (f64, f64) {
    let time_of = |d: usize| {
        let cfg = config(5, 4).with_warp_packing(warp_packing);
        GpuTrainer::new(Device::rtx4090(), cfg)
            .fit_report(&classification(1500, 20, d, 0.3, 9))
            .sim_seconds
    };
    (time_of(4), time_of(16))
}

#[test]
fn larger_output_dimension_costs_more() {
    // Without the warp-level optimization every colliding lane replays
    // its atomic once per column, the paper's contention regime.
    let (ts, tl) = output_costs(false);
    assert!(
        tl > ts * 1.5,
        "4× outputs should clearly cost more: {tl} vs {ts}"
    );
}

#[test]
fn larger_output_dimension_costs_more_under_warp_aggregation() {
    // Warps aggregate their same-bin lanes, so no column replays: 4×
    // outputs still cost more, but grow the fit less than unpacked.
    let (ts, tl) = output_costs(true);
    let (us, ul) = output_costs(false);
    assert!(tl > ts * 1.25, "4× outputs should cost more: {tl} vs {ts}");
    assert!(
        tl / ts < ul / us,
        "aggregated growth {} should stay below unpacked {}",
        tl / ts,
        ul / us
    );
}

#[test]
fn rtx3090_is_slower_than_rtx4090() {
    // The paper's sensitivity study ran on an RTX 3090 (§4.3).
    use gbdt_mo::gpusim::{Device as Dev, DeviceProps};
    let ds = classification(2000, 20, 8, 0.3, 10);
    let t4090 = GpuTrainer::new(Dev::new(0, DeviceProps::rtx4090()), config(5, 4))
        .fit_report(&ds)
        .sim_seconds;
    let t3090 = GpuTrainer::new(Dev::new(0, DeviceProps::rtx3090()), config(5, 4))
        .fit_report(&ds)
        .sim_seconds;
    assert!(
        t3090 > t4090,
        "3090 ({t3090}) should be slower than 4090 ({t4090})"
    );
}
