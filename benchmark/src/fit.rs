//! Training: the trainer call every training workload times, and the
//! traced replay of the same fit through the library's public layer
//! functions.

use crate::trace::Recorder;
use gbdt_core::grad::{compute_gradients, update_scores_from_leaves};
use gbdt_core::grow::grow_tree_on;
use gbdt_core::hist::adaptive::predict_costs;
use gbdt_core::hist::{accumulate_only, charge_method, method_cost, HistContext, NodeHistogram};
use gbdt_core::loss::loss_for_task;
use gbdt_core::split::{find_best_split, SplitParams};
use gbdt_core::trainer::base_scores;
use gbdt_core::tree::{Node, Tree};
use gbdt_core::{
    GpuTrainer, HistogramMethod, MultiGpuStrategy, MultiGpuTrainer, TrainConfig, TrainReport,
};
use gbdt_data::{BinnedDataset, Dataset};
use gpusim::{Device, DeviceGroup, Telemetry};
use std::hint::black_box;
use std::sync::Arc;

/// Where a fit runs.
#[derive(Debug, Clone, Copy)]
pub enum Placement {
    /// One simulated RTX 4090.
    Single,
    /// Two simulated RTX 4090s, data-parallel, four streams each.
    DataParallel2,
}

/// Train once on fresh devices. `tel`, when given, is attached to every
/// device of the fit.
pub fn fit(
    ds: &Dataset,
    config: &TrainConfig,
    placement: Placement,
    tel: Option<&Arc<Telemetry>>,
) -> Result<TrainReport, String> {
    match placement {
        Placement::Single => {
            let device = Device::rtx4090();
            if let Some(t) = tel {
                device.attach_telemetry(t.clone());
            }
            GpuTrainer::try_new(device, config.clone())
                .map_err(|e| e.to_string())?
                .try_fit_report(ds)
                .map_err(|e| format!("training failed: {e}"))
        }
        Placement::DataParallel2 => {
            let group = DeviceGroup::rtx4090s(2);
            if let Some(t) = tel {
                for device in group.devices() {
                    device.attach_telemetry(t.clone());
                }
            }
            MultiGpuTrainer::try_with_strategy(
                group,
                config.clone().with_streams(4),
                MultiGpuStrategy::DataParallel,
            )
            .map_err(|e| e.to_string())?
            .try_fit_report(ds)
            .map_err(|e| format!("multi-GPU training failed: {e}"))
        }
    }
}

/// Bit-for-bit equality of two ensembles: structure, thresholds and
/// every leaf value compared by their bits, so `-0.0 ≠ 0.0` and NaN is
/// caught.
pub fn trees_bit_identical(a: &[Tree], b: &[Tree]) -> bool {
    let node_eq = |x: &Node, y: &Node| match (x, y) {
        (
            Node::Split {
                feature: fa,
                bin: ba,
                threshold: ta,
                left: la,
                right: ra,
            },
            Node::Split {
                feature: fb,
                bin: bb,
                threshold: tb,
                left: lb,
                right: rb,
            },
        ) => fa == fb && ba == bb && ta.to_bits() == tb.to_bits() && la == lb && ra == rb,
        (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
            va.len() == vb.len() && va.iter().zip(vb).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.d() == y.d()
                && x.num_nodes() == y.num_nodes()
                && x.nodes().iter().zip(y.nodes()).all(|(p, q)| node_eq(p, q))
        })
}

/// Host ns per layer of one traced replay; the root-probe entries hold
/// one value per boosting round.
#[derive(Debug, Default)]
pub struct ReplayTimes {
    pub total_ns: f64,
    pub bin_ns: f64,
    pub grad_ns: f64,
    pub grow_ns: f64,
    pub update_ns: f64,
    pub root_accumulate_ns: Vec<f64>,
    pub root_select_ns: Vec<f64>,
    pub root_charge_ns: Vec<f64>,
    pub root_split_ns: Vec<f64>,
    /// The selector's predicted ns for the method it picks ÷ the ns the
    /// device charged for it.
    pub root_pred_over_charged: Vec<f64>,
}

/// Replay the trainer's single-device loop (binning, then per round
/// gradients → tree growth → score update) through public functions,
/// one span per call, plus a root-node probe per round. Returns the
/// replayed trees, which must equal the trainer's.
pub fn replay(rec: &mut Recorder, ds: &Dataset, config: &TrainConfig) -> (Vec<Tree>, ReplayTimes) {
    let (n, m, d) = (ds.n(), ds.m(), ds.d());
    let device = Device::rtx4090();
    let mut times = ReplayTimes::default();
    let fit_span = rec.begin("fit.replay");
    let (binned, ns) = rec.span("data.bin", |_| {
        BinnedDataset::build(ds.features(), config.max_bins)
    });
    times.bin_ns = ns as f64;
    let loss = loss_for_task(ds.task());
    let mut scores: Vec<f32> = base_scores(ds)
        .iter()
        .copied()
        .cycle()
        .take(n * d)
        .collect();
    let features: Vec<u32> = (0..m as u32).collect();
    let all_rows: Vec<u32> = (0..n as u32).collect();
    let mut trees = Vec::with_capacity(config.num_trees);
    for _ in 0..config.num_trees {
        let round = rec.begin("round");
        let (grads, ns) = rec.span("grad.compute", |_| {
            compute_gradients(&device, loss.as_ref(), &scores, ds.targets(), n, d)
        });
        times.grad_ns += ns as f64;
        root_probe(
            rec, &binned, &grads, config, &features, &all_rows, &mut times,
        );
        let root = all_rows.clone();
        let (grown, ns) = rec.span("grow.tree", |_| {
            grow_tree_on(&device, &binned, &grads, config, &features, root)
        });
        times.grow_ns += ns as f64;
        let (_, ns) = rec.span("predict.update", |_| {
            update_scores_from_leaves(&device, &mut scores, d, &grown.leaf_assignments)
        });
        times.update_ns += ns as f64;
        trees.push(grown.tree);
        rec.end(round);
    }
    times.total_ns = rec.end(fit_span) as f64;
    (trees, times)
}

/// Time the root node's layers in isolation: functional accumulation,
/// the adaptive selector, the device charge (on a scratch device, so
/// the replay's own clock is untouched) and split finding.
fn root_probe(
    rec: &mut Recorder,
    binned: &BinnedDataset,
    grads: &gbdt_core::Gradients,
    config: &TrainConfig,
    features: &[u32],
    root: &[u32],
    times: &mut ReplayTimes,
) {
    let scratch = Device::rtx4090();
    let ctx = HistContext {
        device: &scratch,
        data: binned,
        grads,
        features,
        bins: config.max_bins,
        opts: config.hist,
    };
    let (g, h) = grads.sums(root);
    let mut hist = NodeHistogram::new(features.len(), grads.d, config.max_bins);
    let probe = rec.begin("hist.root_probe");
    let (_, ns) = rec.span("hist.accumulate", |_| {
        accumulate_only(&ctx, root, &g, &h, &mut hist)
    });
    times.root_accumulate_ns.push(ns as f64);
    let ((best, predicted_ns), ns) = rec.span("hist.select", |_| {
        let costs = predict_costs(&ctx, root.len());
        let best = costs.best();
        black_box(method_cost(&ctx, root, best));
        let predicted = match best {
            HistogramMethod::GlobalMemory => costs.gmem_ns,
            HistogramMethod::SharedMemory => costs.smem_ns,
            HistogramMethod::SortReduce => costs.sort_ns,
            HistogramMethod::Adaptive => f64::NAN,
        };
        (best, predicted)
    });
    times.root_select_ns.push(ns as f64);
    let (_, ns) = rec.span("hist.charge", |_| charge_method(&ctx, root, best));
    times.root_charge_ns.push(ns as f64);
    times
        .root_pred_over_charged
        .push(predicted_ns / scratch.now_ns());
    let params = SplitParams {
        lambda: config.lambda,
        min_gain: config.min_gain,
        min_instances: config.min_instances,
        segments_c: config.segments_per_block_c,
    };
    let (split, ns) = rec.span("split.find", |_| {
        find_best_split(
            &scratch,
            &hist,
            features,
            &g,
            &h,
            root.len() as u32,
            &params,
        )
    });
    black_box(split);
    times.root_split_ns.push(ns as f64);
    rec.end(probe);
}
