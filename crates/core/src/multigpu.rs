//! Multi-GPU training on a single machine (paper §3.4.2).
//!
//! [`MultiGpuTrainer`] runs the boosting loop of [`crate::trainer`] on a
//! group placement: this module says only where a round's work runs
//! and what each device charges for it, for both layouts of
//! [`MultiGpuStrategy`]. The lead device runs the functional work
//! (gradients, histograms, splits, leaf values) once on the host, and
//! it does not depend on the layout or the device count, so every group
//! grows the same trees as a single device; only the charged costs
//! differ. The layouts differ in five places:
//!
//! - **Ingest:** a device loads its feature range over all rows
//!   (feature-parallel, [`partition_features`]) or all columns of its
//!   instance shard (data-parallel).
//! - **Mirrored work:** the replicas' gradient, sketch-apply, leaf-refit
//!   and score-update charges cover all `n` rows (feature-parallel) or
//!   their own shard (data-parallel).
//! - **Node histograms and splits:** a feature-parallel device builds
//!   only its own features. A data-parallel device builds its shard
//!   over all features, and a ring reduce-scatter of each built node's
//!   `m × B × d` histogram leaves it the reduced slice of its own
//!   features. Either way a device evaluates only its own feature range
//!   ([`partition_features`]), and the group picks the best candidate.
//! - **Partitioning:** feature-parallel flag and partition kernels, or
//!   each data-parallel device's `partition_shard` over its own shard,
//!   are charged once per level, after the candidate exchange.
//! - **Level collective:** both layouts all-gather the level's best-split
//!   candidates; feature-parallel devices then all-gather the owners'
//!   routing bitmaps (summary statistics of a few bytes per instance).
//!
//! The group runs bulk-synchronously; barrier waits book as idle time.
//! With `streams > 1` the histogram builds run on their own stream and
//! collectives drain on a comm stream: a node's reduce-scatter while
//! the next node builds, the bitmap exchange while the next level's
//! builds start.
//!
//! ## Fault recovery
//!
//! The loop's recovery routine polls every active device after each
//! step. A transient fault is retried as on one device. A lost device is
//! *dropped from the active set*: the survivors re-partition the work,
//! re-charge the ingest of their enlarged shares, re-run the interrupted
//! round, and finish training — producing trees bit-identical to a
//! fault-free run, because the functional compute is independent of the
//! device count. Only when every device is gone does training fail,
//! with [`TrainError::AllDevicesLost`].

use crate::config::{ConfigError, TrainConfig};
use crate::error::TrainError;
use crate::grad::Gradients;
use crate::grow::{partition_stable, GrowResult};
use crate::hist::{accumulate_dense, charge_method_on, resolve_method, HistContext};
use crate::memory::HistogramPool;
use crate::model::Model;
use crate::sketch::{apply_sketch, charge_apply, plan_sketch, refit_leaves_full_d};
use crate::split::{
    find_best_split_range_batched, leaf_values, LevelSplitCharges, SplitCandidate, SplitParams,
};
use crate::trainer::{boost, Placement, TrainReport};
use crate::tree::Tree;
use gbdt_data::{BinnedDataset, Dataset};
use gpusim::cost::KernelCost;
use gpusim::{Device, DeviceGroup, Event, GpuFault, Phase, Telemetry};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Stream carrying fresh histogram builds when `streams > 1` (stream 0
/// keeps gradients, split evaluation, and partitioning serial).
const HIST_STREAM: usize = 1;
/// Stream carrying collectives when `streams > 1`: the NCCL channel
/// runs on its own engine and overlaps compute.
const COMM_STREAM: usize = 2;
/// Collectives are modeled as pipelined into this many chunks: the
/// first reduced chunk lands `1/COMM_CHUNKS` into the transfer, so the
/// next level's builds overlap the tail (the same convention as the
/// trainer's chunked ingest copy).
const COMM_CHUNKS: f64 = 8.0;

/// Contiguous feature ranges per device: device `i` owns
/// `[ranges[i].0, ranges[i].1)` as local indices into `0..m`.
pub fn partition_features(m: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k > 0, "need at least one device");
    let base = m / k;
    let extra = m % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Rank `rank`'s contiguous shard of `len` instances split `k` ways
/// (the first `len % k` shards hold one extra instance).
fn shard_range(len: usize, k: usize, rank: usize) -> Range<usize> {
    let lo = rank * (len / k) + rank.min(len % k);
    lo..lo + len / k + usize::from(rank < len % k)
}

/// Book a level-batched collective on every device's comm stream:
/// all ranks enter together at `fence` (the slowest rank's arrival),
/// each pays `ns` on its comm engine, and the returned event marks the
/// collective's completion across the group. The comm streams advance
/// in lockstep — every rank waits the same fence and charges the same
/// duration — so the fold over per-device events is exact, not an
/// approximation.
fn streamed_collective(
    devices: &[Arc<Device>],
    name: &'static str,
    ns: f64,
    fence: Event,
) -> Event {
    let mut done = fence;
    for dev in devices {
        dev.wait_event(COMM_STREAM, fence);
        dev.stream(COMM_STREAM).charge_ns(name, Phase::Comm, ns);
        done = done.max(dev.record_event(COMM_STREAM));
    }
    done
}

/// When the first pipelined chunk of a collective of `ns` that
/// completes at `done` has landed: the next level's builds may start
/// there and overlap the tail.
fn first_chunk(done: Event, ns: f64) -> Event {
    done.offset_ns(-ns * (1.0 - 1.0 / COMM_CHUNKS))
}

/// The latest clock of `stream` across the group: when the slowest
/// rank's work on it completes.
fn stream_fence(devices: &[Arc<Device>], stream: usize) -> Event {
    devices.iter().fold(Event::at_ns(0.0), |fence, dev| {
        fence.max(dev.record_event(stream))
    })
}

/// Fold the group's stream-0 clocks into one alignment fence and make
/// every device wait it: the bulk-synchronous join of streamed mode.
/// Unlike [`DeviceGroup::barrier`] it books no idle time and leaves
/// the comm/hist streams free to drain past the level boundary.
fn align_stream0(devices: &[Arc<Device>]) -> Event {
    let align = stream_fence(devices, 0);
    for dev in devices {
        dev.wait_event(0, align);
    }
    align
}

/// All-gather one level's per-device payloads of `sizes` bytes. In
/// streamed mode the exchange runs on the comm streams after aligning
/// stream 0, and its completion event and duration are returned.
fn all_gather_level(group: &DeviceGroup, sizes: &[usize], streamed: bool) -> Option<(Event, f64)> {
    let (devices, k) = (group.devices(), group.len());
    let max_part = sizes.iter().copied().max().unwrap_or(0);
    tel_collective_bytes(devices, (max_part * k) as f64);
    if streamed {
        let ns = devices[0].model().all_gather_ns(max_part as f64, k);
        let fence = align_stream0(devices);
        Some((streamed_collective(devices, "all_gather", ns, fence), ns))
    } else {
        let payload: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s]).collect();
        let _ = group.all_gather_bytes(&payload);
        None
    }
}

/// Reduce-scatter one built node's `bytes`-sized histogram once the
/// slowest rank's build of it is done: each rank receives the reduced
/// slice of its own feature range ([`partition_features`]). In streamed
/// mode it drains on the comm streams while the next node builds.
fn reduce_scatter_node(group: &DeviceGroup, bytes: f64, streamed: bool) {
    let (devices, k) = (group.devices(), group.len());
    let ns = devices[0].model().ring_reduce_scatter_ns(bytes, k);
    if streamed {
        let fence = stream_fence(devices, HIST_STREAM);
        streamed_collective(devices, "hist_reduce_scatter", ns, fence);
    } else {
        group.barrier();
        for dev in devices {
            dev.charge_ns("hist_reduce_scatter", Phase::Comm, ns);
        }
    }
    tel_collective_bytes(devices, bytes / k as f64);
}

/// A stable partition of `rows` instances: a flag scan and a scatter.
fn partition_cost(rows: usize) -> KernelCost {
    KernelCost {
        flops: 3.0 * rows as f64,
        dram_bytes: (rows * 17) as f64,
        launches: 2.0,
        ..Default::default()
    }
}

/// The group's shared telemetry registry, if any device carries one.
/// `MultiGpuTrainer` users attach one registry to every member (see
/// `Device::attach_telemetry`), so the first hit is the group's.
fn group_telemetry(devices: &[Arc<Device>]) -> Option<Arc<Telemetry>> {
    devices.iter().find_map(|dv| dv.telemetry())
}

/// Count collective payload bytes on the group's registry: what lands
/// on each rank (the gathered buffer of an all-gather, the `S/k` slice
/// of a reduce-scatter of `S`). Pure observer: called after the
/// collective's charges are booked.
fn tel_collective_bytes(devices: &[Arc<Device>], bytes: f64) {
    if let Some(tel) = group_telemetry(devices) {
        tel.counter_add("multigpu.collective_bytes", bytes as u64);
    }
}

/// Record the pre-barrier clock spread across the surviving devices —
/// how unevenly the group's makespans landed before the final join.
fn tel_makespan_skew(devices: &[Arc<Device>]) {
    if let Some(tel) = group_telemetry(devices) {
        let (lo, hi) = devices
            .iter()
            .map(|dv| dv.now_ns())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), now| {
                (lo.min(now), hi.max(now))
            });
        tel.gauge_set("multigpu.makespan_skew_ns", (hi - lo).max(0.0));
    }
}

/// How training work is decomposed across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiGpuStrategy {
    /// Partition feature columns (the paper's §3.4.2 design): each
    /// device histograms only its features; devices exchange best-split
    /// candidates and routing bitmaps — tiny "summary statistics".
    #[default]
    FeatureParallel,
    /// Partition instances: each device histograms its shard over *all*
    /// features; per node, partial histograms are summed with a ring
    /// reduce-scatter ("partial histograms are then aggregated via
    /// CUDA-aware collective operations") that leaves each device the
    /// slice of its feature range to evaluate. Gradient work divides by
    /// the device count, but the collective moves the full multi-output
    /// histogram — the communication blow-up that motivates the
    /// feature-parallel choice for large `d`.
    DataParallel,
}

/// Multi-GPU GBDT-MO trainer.
///
/// It grows the same trees as [`crate::GpuTrainer`] for the knobs it
/// implements. The constructors reject, with a [`ConfigError`] naming
/// the knob, the ones it does not: `subsample < 1`,
/// `colsample_bytree < 1`, `goss`, non-empty `monotone_constraints`,
/// `hist.quantized_gradients`, `hist.subtraction` and `hist.sparse_aware`
/// (the loop builds every histogram with the dense pass).
pub struct MultiGpuTrainer {
    group: DeviceGroup,
    config: TrainConfig,
    strategy: MultiGpuStrategy,
}

impl MultiGpuTrainer {
    /// Create a trainer over a device group (feature-parallel, the
    /// paper's strategy).
    ///
    /// Panics on an invalid configuration; use
    /// [`MultiGpuTrainer::try_new`] to handle the rejection instead.
    pub fn new(group: DeviceGroup, config: TrainConfig) -> Self {
        Self::with_strategy(group, config, MultiGpuStrategy::FeatureParallel)
    }

    /// Fallible constructor (feature-parallel): returns the validation
    /// failure as a [`ConfigError`] instead of panicking.
    pub fn try_new(group: DeviceGroup, config: TrainConfig) -> Result<Self, ConfigError> {
        Self::try_with_strategy(group, config, MultiGpuStrategy::FeatureParallel)
    }

    /// Create a trainer with an explicit decomposition strategy.
    pub fn with_strategy(
        group: DeviceGroup,
        config: TrainConfig,
        strategy: MultiGpuStrategy,
    ) -> Self {
        Self::try_with_strategy(group, config, strategy).expect("invalid training configuration")
    }

    /// Fallible counterpart of [`MultiGpuTrainer::with_strategy`].
    pub fn try_with_strategy(
        group: DeviceGroup,
        config: TrainConfig,
        strategy: MultiGpuStrategy,
    ) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError::from)?;
        let unsupported = [
            ("subsample", config.subsample < 1.0),
            ("colsample_bytree", config.colsample_bytree < 1.0),
            ("goss", config.goss.is_some()),
            (
                "monotone_constraints",
                !config.monotone_constraints.is_empty(),
            ),
            ("hist.quantized_gradients", config.hist.quantized_gradients),
            ("hist.subtraction", config.hist.subtraction),
            ("hist.sparse_aware", config.hist.sparse_aware),
        ];
        if let Some((knob, _)) = unsupported.iter().find(|(_, set)| *set) {
            return Err(ConfigError::from(format!(
                "{knob} is not supported by multi-GPU training"
            )));
        }
        Ok(MultiGpuTrainer {
            group,
            config,
            strategy,
        })
    }

    /// The device group.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// The decomposition strategy.
    pub fn strategy(&self) -> MultiGpuStrategy {
        self.strategy
    }

    /// Train and return just the model.
    ///
    /// Panics if training fails past the fault-recovery budget; use
    /// [`MultiGpuTrainer::try_fit`] to handle that as a typed error.
    pub fn fit(&self, ds: &Dataset) -> Model {
        self.fit_report(ds).model
    }

    /// Train with the full report. Simulated time is the *group* time:
    /// the slowest device's clock after the final barrier.
    ///
    /// Panics if training fails past the fault-recovery budget; use
    /// [`MultiGpuTrainer::try_fit_report`] to handle that instead.
    pub fn fit_report(&self, ds: &Dataset) -> TrainReport {
        self.try_fit_report(ds)
            .unwrap_or_else(|e| panic!("multi-GPU training failed: {e}"))
    }

    /// Fallible training: returns just the model, or the typed
    /// [`TrainError`] when injected faults exhaust the retry budget or
    /// every device in the group is lost.
    pub fn try_fit(&self, ds: &Dataset) -> Result<Model, TrainError> {
        Ok(self.try_fit_report(ds)?.model)
    }

    /// Fallible counterpart of [`MultiGpuTrainer::fit_report`]: on a
    /// `DeviceLost` the group degrades to the survivors and keeps
    /// training (see the module docs); the error cases are an exhausted
    /// transient-retry budget and the loss of every device.
    pub fn try_fit_report(&self, ds: &Dataset) -> Result<TrainReport, TrainError> {
        let mut group = Group {
            active: self.group.devices().to_vec(),
            strategy: self.strategy,
            config: &self.config,
        };
        Ok(boost(&mut group, &self.config, ds, None, None, None, None)?.0)
    }
}

/// The device group as a [`Placement`]: the devices still active, lead
/// first, and how they divide the work.
struct Group<'a> {
    active: Vec<Arc<Device>>,
    strategy: MultiGpuStrategy,
    config: &'a TrainConfig,
}

impl Group<'_> {
    /// The active devices as a group, for its collectives.
    fn group(&self) -> DeviceGroup {
        DeviceGroup::from_devices(self.active.clone())
    }

    /// Every device but the lead, with its rank.
    fn replicas(&self) -> impl Iterator<Item = (usize, &Arc<Device>)> {
        self.active.iter().enumerate().skip(1)
    }

    /// Rows of `len` that rank `rank` mirrors the lead's per-instance
    /// work over: all of them when gradients are replicated
    /// (feature-parallel), its own shard when instances are sharded.
    fn replica_rows(&self, len: usize, rank: usize) -> usize {
        match self.strategy {
            MultiGpuStrategy::FeatureParallel => len,
            MultiGpuStrategy::DataParallel => shard_range(len, self.active.len(), rank).len(),
        }
    }

    /// Close `node` as a leaf holding the regularized optimum of its
    /// gradient sums, computed on the lead.
    fn close_leaf(&self, grown: &mut GrowResult, node: usize, idx: Vec<u32>, g: &[f64], h: &[f64]) {
        let v = leaf_values(g, h, self.config.lambda, self.config.learning_rate);
        crate::sanitize::trace_leaf_values(&self.active[0], v.len());
        grown.tree.set_leaf(node, v.clone());
        grown.leaf_nodes.push(node);
        grown.leaf_assignments.push((idx, v));
    }
}

impl Placement for Group<'_> {
    fn devices(&self) -> &[Arc<Device>] {
        &self.active
    }

    /// Every device ingests and bins its share of the matrix: its
    /// feature range over all rows (feature-parallel) or all columns of
    /// its instance shard (data-parallel). Re-issued after degradation,
    /// when the shares shift and survivors reload and rebin.
    fn ingest(&self, n: usize, m: usize) {
        let k = self.active.len();
        let ranges = partition_features(m, k);
        for (rank, dev) in self.active.iter().enumerate() {
            let (rows, cols) = match self.strategy {
                MultiGpuStrategy::FeatureParallel => (n, ranges[rank].1 - ranges[rank].0),
                MultiGpuStrategy::DataParallel => (shard_range(n, k, rank).len(), m),
            };
            let bytes = (rows * cols * 4) as f64;
            dev.charge_ns(
                "htod_features",
                Phase::Transfer,
                dev.model().host_copy_ns(bytes),
            );
            dev.charge_kernel(
                "quantile_binning",
                Phase::Binning,
                &KernelCost::streaming((rows * cols) as f64 * 16.0, bytes * 2.5),
            );
            crate::sanitize::trace_quantile_binning(dev, rows, cols, self.config.max_bins);
        }
    }

    /// Grow one tree level by level across the group: each device
    /// charges its slice of every node's histogram build and evaluates
    /// its feature range of the node, and the level ends with the
    /// candidate exchange and the partition.
    fn grow(
        &self,
        binned: &BinnedDataset,
        grads: &Gradients,
        features: &[u32],
        root: Vec<u32>,
        pool: &mut HistogramPool,
    ) -> GrowResult {
        let group = self.group();
        let devices = group.devices();
        let k = group.len();
        let m = binned.m();
        let ranges = partition_features(m, k);
        let streamed = self.config.streams > 1;
        let hist_stream = if streamed { HIST_STREAM } else { 0 };
        let data_parallel = self.strategy == MultiGpuStrategy::DataParallel;
        // One node's histogram: the data-parallel reduce-scatter payload.
        let hist_bytes = (m * self.config.max_bins * grads.d * 2 * 8) as f64;
        let params = SplitParams {
            lambda: self.config.lambda,
            min_gain: self.config.min_gain,
            min_instances: self.config.min_instances,
            segments_c: self.config.segments_per_block_c,
        };
        // One working histogram: each node is accumulated, evaluated and
        // done with before the next is built.
        pool.ensure_shape(m, grads.d, self.config.max_bins);
        let mut hist = pool.acquire();
        let mut grown = GrowResult {
            tree: Tree::new(grads.d),
            leaf_assignments: Vec::new(),
            leaf_nodes: Vec::new(),
            methods_used: BTreeMap::new(),
        };
        let (rg, rh) = grads.sums(&root);
        let mut frontier = vec![(0usize, root, rg, rh)];
        // Streamed mode: builds of each level start at the previous
        // level's alignment fence, plus (feature-parallel) the first
        // chunk of the in-flight bitmap exchange, whose tail they
        // overlap.
        let mut level_fence: Option<Event> = None;

        for depth in 0..self.config.max_depth {
            let _level_scope = group.device(0).prof_scope("level", Some(depth as u64));
            if streamed {
                for dev in devices {
                    let f = level_fence.unwrap_or_else(|| dev.record_event(0));
                    dev.wait_event(HIST_STREAM, f);
                }
            }
            let mut next = Vec::new();
            // Nodes whose histogram was built this level; per device,
            // its level-batched split charges, its candidate payload,
            // its routing-bitmap payload, and the rows it routes: the
            // owner's flags (feature-parallel) or its own shard
            // (data-parallel).
            let mut built = 0usize;
            let mut split_charges = vec![LevelSplitCharges::new(); k];
            let mut candidate_bytes = vec![0usize; k];
            let mut flag_bytes = vec![0usize; k];
            let mut routed = vec![0usize; k];
            for (node, instances, g, h) in frontier {
                if instances.len() < 2 * self.config.min_instances {
                    self.close_leaf(&mut grown, node, instances, &g, &h);
                    continue;
                }
                built += 1;
                // Each device charges the build of its slice of the
                // node: its feature range, or its instance shard.
                for (rank, dev) in devices.iter().enumerate() {
                    let (feats, idx) = match self.strategy {
                        MultiGpuStrategy::FeatureParallel => {
                            let (lo, hi) = ranges[rank];
                            if lo == hi {
                                continue;
                            }
                            (&features[lo..hi], &instances[..])
                        }
                        MultiGpuStrategy::DataParallel => {
                            let shard = &instances[shard_range(instances.len(), k, rank)];
                            if shard.is_empty() {
                                continue;
                            }
                            (features, shard)
                        }
                    };
                    let ctx = HistContext {
                        device: dev,
                        data: binned,
                        grads,
                        features: feats,
                        bins: self.config.max_bins,
                        opts: self.config.hist,
                    };
                    let method = resolve_method(&ctx, idx.len());
                    charge_method_on(&ctx, idx, method, hist_stream);
                    *grown.methods_used.entry(method).or_insert(0) += 1;
                }
                if data_parallel && k > 1 {
                    reduce_scatter_node(&group, hist_bytes, streamed);
                }
                // Functional accumulation once (identical results).
                let full_ctx = HistContext {
                    device: &devices[0],
                    data: binned,
                    grads,
                    features,
                    bins: self.config.max_bins,
                    opts: self.config.hist,
                };
                hist.reset();
                accumulate_dense(&full_ctx, &instances, &mut hist);

                // Each device evaluates only its own feature range.
                let mut best: Option<SplitCandidate> = None;
                for (rank, (dev, &(lo, hi))) in devices.iter().zip(&ranges).enumerate() {
                    let local = find_best_split_range_batched(
                        &mut split_charges[rank],
                        &hist,
                        features,
                        lo,
                        hi,
                        &g,
                        &h,
                        instances.len() as u32,
                        &params,
                    );
                    if !data_parallel {
                        // A feature-parallel device evaluates as soon
                        // as its own build is done; the cross-device
                        // join is the level's candidate all-gather.
                        if streamed && lo < hi {
                            dev.wait_event(0, dev.record_event(HIST_STREAM));
                        }
                        split_charges[rank].flush(
                            dev,
                            dev.model().params.sm_count,
                            params.segments_c,
                        );
                    }
                    candidate_bytes[rank] += 16 + local.as_ref().map_or(0, |c| c.left_g.len() * 16);
                    // Strictly-greater gain wins, so exact ties
                    // resolve to the lowest feature range — the
                    // single-device argmax rule.
                    if let Some(c) = local {
                        if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                            best = Some(c);
                        }
                    }
                }
                let Some(split) = best else {
                    self.close_leaf(&mut grown, node, instances, &g, &h);
                    continue;
                };

                let col = binned.bins.col(split.feature as usize);
                let flags: Vec<bool> = instances
                    .iter()
                    .map(|&i| col[i as usize] <= split.bin)
                    .collect();
                match self.strategy {
                    MultiGpuStrategy::FeatureParallel => {
                        // The owning device computes the routing
                        // flags; the level's bitmaps are exchanged
                        // in one all-gather.
                        let f = split.feature as usize;
                        let owner = ranges
                            .iter()
                            .position(|&(lo, hi)| (lo..hi).contains(&f))
                            .expect("split feature must belong to a device");
                        routed[owner] += instances.len();
                        flag_bytes[owner] += instances.len().div_ceil(8);
                        crate::sanitize::trace_partition(&devices[owner], &flags);
                    }
                    MultiGpuStrategy::DataParallel => {
                        // Every device routes its own shard.
                        crate::sanitize::trace_partition(&devices[0], &flags);
                        for (rank, rows) in routed.iter_mut().enumerate() {
                            *rows += shard_range(instances.len(), k, rank).len();
                        }
                    }
                }
                let (left_idx, right_idx) = partition_stable(&instances, &flags);
                let threshold = binned.cuts.threshold(split.feature as usize, split.bin);
                let (l, r) = grown
                    .tree
                    .split_node(node, split.feature, split.bin, threshold);
                let right_g: Vec<f64> = g.iter().zip(&split.left_g).map(|(a, b)| a - b).collect();
                let right_h: Vec<f64> = h.iter().zip(&split.left_h).map(|(a, b)| a - b).collect();
                next.push((l, left_idx, split.left_g, split.left_h));
                next.push((r, right_idx, right_g, right_h));
            }

            if data_parallel {
                // Each device reads its slice of the reduced
                // histograms: it evaluates the level once the last
                // build and the last reduce-scatter have landed.
                if streamed {
                    let landed =
                        stream_fence(devices, HIST_STREAM).max(stream_fence(devices, COMM_STREAM));
                    for dev in devices {
                        dev.wait_event(0, landed);
                    }
                }
                for (dev, charges) in devices.iter().zip(&mut split_charges) {
                    charges.flush(dev, dev.model().params.sm_count, params.segments_c);
                }
            }
            // Candidates are tiny summary statistics: winners wait the
            // full exchange.
            if built > 0 && k > 1 {
                if let Some((done, _)) = all_gather_level(&group, &candidate_bytes, streamed) {
                    for dev in devices {
                        dev.wait_event(0, done);
                    }
                }
            }
            // The level's partition kernels. In streamed mode the
            // returned event is when the next level's builds may
            // start: the bitmap exchange's first chunk.
            let comm_partial = match self.strategy {
                MultiGpuStrategy::FeatureParallel => {
                    // Every device partitions its (replicated) index
                    // lists; only the owners computed flags.
                    let partition_elems: usize = routed.iter().sum();
                    for (dev, &elems) in devices.iter().zip(&routed) {
                        if elems > 0 {
                            dev.charge_kernel(
                                "compute_flags_level",
                                Phase::Partition,
                                &KernelCost::streaming(elems as f64, (elems * 5) as f64),
                            );
                        }
                        if partition_elems > 0 {
                            dev.charge_kernel(
                                "partition_level",
                                Phase::Partition,
                                &partition_cost(partition_elems),
                            );
                        }
                    }
                    if k > 1 && flag_bytes.iter().any(|&b| b > 0) {
                        all_gather_level(&group, &flag_bytes, streamed)
                            .map(|(done, ns)| first_chunk(done, ns))
                    } else {
                        None
                    }
                }
                MultiGpuStrategy::DataParallel => {
                    for (dev, &rows) in devices.iter().zip(&routed) {
                        if rows > 0 {
                            dev.charge_kernel(
                                "partition_shard",
                                Phase::Partition,
                                &partition_cost(rows),
                            );
                        }
                    }
                    None
                }
            };
            if streamed {
                let align = align_stream0(devices);
                level_fence = Some(comm_partial.map_or(align, |p| align.max(p)));
            } else {
                group.barrier();
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        for (node, instances, g, h) in frontier {
            self.close_leaf(&mut grown, node, instances, &g, &h);
        }
        pool.release(hist);
        grown
    }

    /// The lead computes the gradients over all `n` rows in both
    /// layouts; the replicas charge `grad_hess` over all rows when
    /// gradients are replicated, `grad_hess_shard` over their shard
    /// when instances are sharded.
    fn mirror_gradients(&self, n: usize, d: usize, flops_per_output: f64) {
        let kernel = match self.strategy {
            MultiGpuStrategy::FeatureParallel => "grad_hess",
            MultiGpuStrategy::DataParallel => "grad_hess_shard",
        };
        for (rank, dev) in self.replicas() {
            let rows = self.replica_rows(n, rank);
            dev.charge_kernel(
                kernel,
                Phase::Gradient,
                &KernelCost::streaming(
                    rows as f64 * d as f64 * flops_per_output,
                    (rows * d * 16) as f64,
                ),
            );
            crate::sanitize::trace_grad_hess(dev, rows, d);
        }
    }

    /// The lead selects the sketch, the plan (selected column indices
    /// or the projection matrix) is broadcast, and every device applies
    /// it to its rows.
    fn sketch(&self, grads: &Gradients, seed: u64) -> Gradients {
        let lead = &self.active[0];
        let plan = plan_sketch(lead, grads, self.config.sketch, seed);
        let bytes = plan.broadcast_bytes(grads.d);
        if self.active.len() > 1 && bytes > 0.0 {
            self.group().broadcast(0, bytes as usize);
            tel_collective_bytes(&self.active, bytes);
        }
        let sketched = apply_sketch(lead, grads, &plan);
        for (rank, dev) in self.replicas() {
            charge_apply(dev, self.replica_rows(grads.n, rank), grads.d, &plan);
        }
        sketched
    }

    /// The lead refits the leaves; the replicas mirror the gather-reduce
    /// over their resident rows.
    fn refit(&self, grown: &mut GrowResult, full: &Gradients) {
        refit_leaves_full_d(&self.active[0], grown, full, self.config);
        let d = full.d;
        for (rank, dev) in self.replicas() {
            let rows = self.replica_rows(full.n, rank);
            dev.charge_kernel(
                "leaf_refit_full_d",
                Phase::LeafValue,
                &KernelCost::streaming((rows * d * 2) as f64, (rows * d * 8) as f64),
            );
        }
    }

    /// The replicas mirror the lead's score update over every touched
    /// row, or over their shard of them.
    fn mirror_update(&self, grown: &GrowResult, n: usize, d: usize) {
        let touched: usize = grown.leaf_assignments.iter().map(|(v, _)| v.len()).sum();
        let (kernel, leaf_bytes) = match self.strategy {
            MultiGpuStrategy::FeatureParallel => {
                ("update_scores", grown.leaf_assignments.len() * d * 4)
            }
            MultiGpuStrategy::DataParallel => ("update_scores_shard", 0),
        };
        for (rank, dev) in self.replicas() {
            let rows = self.replica_rows(touched, rank);
            dev.charge_kernel(
                kernel,
                Phase::Predict,
                &KernelCost::streaming((rows * d) as f64, (rows * d * 8 + leaf_bytes) as f64),
            );
            // A data-parallel replica's replay covers every leaf, a
            // superset of the rows its shard touches.
            crate::sanitize::trace_update_scores(dev, d, n, &grown.leaf_assignments);
        }
    }

    /// The group-wide `cudaGetLastError` analogue: every active device
    /// is polled, lost ones leave the active set, and the first loss
    /// (else the first transient fault) in rank order is reported.
    fn poll(&mut self) -> Result<(), GpuFault> {
        let (mut lost, mut transient) = (None, None);
        self.active.retain(|dev| match dev.poll_fault() {
            Ok(()) => true,
            Err(fault) if fault.is_transient() => {
                transient.get_or_insert(fault);
                true
            }
            Err(fault) => {
                lost.get_or_insert(fault);
                false
            }
        });
        lost.or(transient).map_or(Ok(()), Err)
    }

    /// Survivors re-partition the work and carry on; only losing every
    /// device ends the fit.
    fn fatal_loss(&self, round: usize, _fault: GpuFault) -> Option<TrainError> {
        self.active
            .is_empty()
            .then_some(TrainError::AllDevicesLost { round })
    }

    fn join(&self) {
        // Clock spread is only visible before the final barrier joins
        // every stream to the group makespan.
        tel_makespan_skew(&self.active);
        self.group().barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GossConfig, HistOptions, OutputSketch};
    use crate::loss::loss_for_task;
    use crate::metrics::accuracy;
    use crate::trainer::GpuTrainer;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gpusim::Device;

    fn dataset(seed: u64) -> Dataset {
        make_classification(&ClassificationSpec {
            instances: 500,
            features: 16,
            classes: 4,
            informative: 10,
            class_sep: 2.0,
            seed,
            ..Default::default()
        })
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            num_trees: 6,
            max_depth: 4,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn try_new_rejects_invalid_config_without_panicking() {
        let bad = TrainConfig {
            num_trees: 0,
            ..quick_config()
        };
        let err = MultiGpuTrainer::try_new(DeviceGroup::rtx4090s(2), bad)
            .err()
            .unwrap();
        assert!(err.message().contains("num_trees"), "{err}");
        let err2 = MultiGpuTrainer::try_with_strategy(
            DeviceGroup::rtx4090s(2),
            TrainConfig {
                max_depth: 0,
                ..quick_config()
            },
            MultiGpuStrategy::DataParallel,
        )
        .err()
        .unwrap();
        assert!(err2.message().contains("max_depth"), "{err2}");
        assert!(MultiGpuTrainer::try_new(DeviceGroup::rtx4090s(2), quick_config()).is_ok());
    }

    #[test]
    fn try_with_strategy_rejects_knobs_the_multi_gpu_loop_ignores() {
        let cases = [
            (
                "subsample",
                TrainConfig {
                    subsample: 0.5,
                    ..quick_config()
                },
            ),
            (
                "colsample_bytree",
                TrainConfig {
                    colsample_bytree: 0.5,
                    ..quick_config()
                },
            ),
            (
                "goss",
                TrainConfig {
                    goss: Some(GossConfig::default_rates()),
                    ..quick_config()
                },
            ),
            (
                "monotone_constraints",
                TrainConfig {
                    monotone_constraints: vec![1; 16],
                    ..quick_config()
                },
            ),
            (
                "quantized_gradients",
                TrainConfig {
                    hist: HistOptions {
                        quantized_gradients: true,
                        ..HistOptions::default()
                    },
                    ..quick_config()
                },
            ),
            (
                "hist.subtraction",
                TrainConfig {
                    hist: HistOptions {
                        subtraction: true,
                        ..HistOptions::default()
                    },
                    ..quick_config()
                },
            ),
            (
                "hist.sparse_aware",
                TrainConfig {
                    hist: HistOptions {
                        sparse_aware: true,
                        ..HistOptions::default()
                    },
                    ..quick_config()
                },
            ),
        ];
        for strategy in [
            MultiGpuStrategy::FeatureParallel,
            MultiGpuStrategy::DataParallel,
        ] {
            for (knob, cfg) in &cases {
                let err = MultiGpuTrainer::try_with_strategy(
                    DeviceGroup::rtx4090s(2),
                    cfg.clone(),
                    strategy,
                )
                .err()
                .unwrap_or_else(|| panic!("{strategy:?} accepted {knob}"));
                assert!(err.message().contains(knob), "{strategy:?}: {err}");
            }
        }
    }

    #[test]
    fn partition_features_covers_everything() {
        let parts = partition_features(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 7), (7, 10)]);
        let parts = partition_features(2, 4);
        assert_eq!(parts.iter().map(|(a, b)| b - a).sum::<usize>(), 2);
        assert_eq!(partition_features(0, 2), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn multi_gpu_model_matches_single_gpu_model() {
        // Feature-parallel training is algorithmically exact: the same
        // splits must be found regardless of the device count.
        let ds = dataset(1);
        let single = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        let dual = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), quick_config()).fit(&ds);
        assert_eq!(
            single.predict(ds.features()),
            dual.predict(ds.features()),
            "dual-GPU predictions must equal single-GPU"
        );
    }

    #[test]
    fn dual_gpu_is_faster_than_single_in_sim_time() {
        // Table 2's dual-GPU column: histogram work splits across
        // devices, so simulated time drops. Large enough that per-level
        // collective latency does not swamp the histogram savings.
        let ds = make_classification(&ClassificationSpec {
            instances: 20_000,
            features: 32,
            classes: 16,
            informative: 20,
            class_sep: 2.0,
            seed: 2,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 3,
            ..quick_config()
        };
        let single = MultiGpuTrainer::new(DeviceGroup::rtx4090s(1), cfg.clone()).fit_report(&ds);
        let dual = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), cfg).fit_report(&ds);
        assert!(
            dual.sim_seconds < single.sim_seconds,
            "dual {} vs single {}",
            dual.sim_seconds,
            single.sim_seconds
        );
    }

    #[test]
    fn multi_gpu_learns() {
        let ds = dataset(3);
        let (train, test) = ds.split(0.3, 7);
        let model = MultiGpuTrainer::new(DeviceGroup::rtx4090s(4), quick_config()).fit(&train);
        let acc = accuracy(&model.predict(test.features()), &test.labels());
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn comm_time_is_booked() {
        let ds = dataset(4);
        let trainer = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), quick_config());
        let _ = trainer.fit(&ds);
        for dev in trainer.group().devices() {
            assert!(
                dev.summary().by_phase.contains_key(&Phase::Comm),
                "device {} has no communication time",
                dev.id
            );
        }
    }

    #[test]
    fn data_parallel_matches_single_gpu_model() {
        let ds = dataset(6);
        let single = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        let dp = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(3),
            quick_config(),
            MultiGpuStrategy::DataParallel,
        )
        .fit(&ds);
        assert_eq!(
            single.predict(ds.features()),
            dp.predict(ds.features()),
            "data-parallel training must be an exact decomposition too"
        );
    }

    #[test]
    fn data_parallel_pays_histogram_sized_communication() {
        // The trade-off that justifies the paper's feature-parallel
        // choice: a data-parallel reduce-scatter still moves the full
        // m×B×d histogram of every built node, (k−1)/k of it per rank;
        // feature-parallel moves only summary statistics.
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 24,
            classes: 12,
            informative: 16,
            seed: 8,
            ..Default::default()
        });
        let cfg = quick_config();
        let fp = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg.clone(),
            MultiGpuStrategy::FeatureParallel,
        );
        let _ = fp.fit(&ds);
        let fp_comm = fp.group().device(0).summary().fraction(Phase::Comm);

        let dp = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg,
            MultiGpuStrategy::DataParallel,
        );
        let _ = dp.fit(&ds);
        let dp_comm = dp.group().device(0).summary().fraction(Phase::Comm);
        assert!(
            dp_comm > fp_comm * 3.0,
            "data-parallel comm share {dp_comm} should dwarf feature-parallel {fp_comm}"
        );
    }

    #[test]
    fn streamed_multigpu_overlaps_collectives_without_changing_models() {
        // The tentpole claim on the multi-GPU paths: with streams > 1
        // the level-batched collectives drain on the comm engines while
        // the next level's fresh builds run, shrinking the makespan —
        // and the trees, predictions, and the *order* of charged
        // kernels stay bit-identical to the serial schedule.
        let ds = make_classification(&ClassificationSpec {
            instances: 6000,
            features: 24,
            classes: 8,
            informative: 16,
            class_sep: 2.0,
            seed: 11,
            ..Default::default()
        });
        for strategy in [
            MultiGpuStrategy::FeatureParallel,
            MultiGpuStrategy::DataParallel,
        ] {
            let cfg1 = TrainConfig {
                num_trees: 3,
                ..quick_config()
            };
            let cfg4 = TrainConfig {
                streams: 4,
                ..cfg1.clone()
            };
            let serial = MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg1, strategy);
            let r1 = serial.fit_report(&ds);
            let streamed = MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg4, strategy);
            let r4 = streamed.fit_report(&ds);
            assert_eq!(
                r1.model.predict(ds.features()),
                r4.model.predict(ds.features()),
                "{strategy:?}: streams must not change the model"
            );
            assert!(
                r4.sim_seconds < r1.sim_seconds,
                "{strategy:?}: streamed {} should beat serial {}",
                r4.sim_seconds,
                r1.sim_seconds
            );
            assert!(
                r4.sim.overlap_saved_ns > 0.0,
                "{strategy:?}: overlap savings must be recorded"
            );
            for (d1, d4) in serial
                .group()
                .devices()
                .iter()
                .zip(streamed.group().devices())
            {
                let names1: Vec<&str> = d1.records().iter().map(|r| r.name).collect();
                let names4: Vec<&str> = d4.records().iter().map(|r| r.name).collect();
                assert_eq!(
                    names1, names4,
                    "{strategy:?}: device {} charge order must not change",
                    d1.id
                );
            }
        }
    }

    #[test]
    fn data_parallel_split_and_partition_wait_for_the_collectives_they_consume() {
        // Split evaluation reads the reduce-scattered histogram and the
        // partition reads the gathered winners, so on every device no
        // `SplitEval` or `Partition` charge may start before a `Comm`
        // charge booked ahead of it has ended. A histogram large enough
        // that its collective outlasts a node's build.
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 24,
            classes: 12,
            informative: 16,
            seed: 8,
            ..Default::default()
        });
        let mut early = Vec::new();
        for k in [2, 3] {
            for streams in [1, 4] {
                let cfg = TrainConfig {
                    num_trees: 3,
                    streams,
                    ..quick_config()
                };
                let trainer = MultiGpuTrainer::with_strategy(
                    DeviceGroup::rtx4090s(k),
                    cfg,
                    MultiGpuStrategy::DataParallel,
                );
                let _ = trainer.fit(&ds);
                for dev in trainer.group().devices() {
                    let mut comm_end = f64::NEG_INFINITY;
                    let mut count = 0usize;
                    for r in dev.records() {
                        match r.phase {
                            Phase::Comm => comm_end = comm_end.max(r.start_ns + r.ns),
                            Phase::SplitEval | Phase::Partition if r.start_ns < comm_end => {
                                count += 1
                            }
                            _ => {}
                        }
                    }
                    if count > 0 {
                        early.push(format!(
                            "k={k} streams={streams} device {}: {count}",
                            dev.id
                        ));
                    }
                }
            }
        }
        assert!(
            early.is_empty(),
            "charges that start before a collective booked ahead of them ends: {early:?}"
        );
    }

    /// Every node of every tree as raw words: structure, split
    /// features, bins, threshold bits and leaf-value bits.
    fn tree_bits(model: &Model) -> Vec<Vec<u64>> {
        model
            .trees
            .iter()
            .map(|tree| {
                let mut words = Vec::new();
                for node in tree.nodes() {
                    match node {
                        crate::tree::Node::Split {
                            feature,
                            bin,
                            threshold,
                            left,
                            right,
                        } => words.extend([
                            u64::from(*feature),
                            u64::from(*bin),
                            u64::from(threshold.to_bits()),
                            u64::from(*left),
                            u64::from(*right),
                        ]),
                        crate::tree::Node::Leaf { value } => {
                            words.extend(value.iter().map(|v| u64::from(v.to_bits())))
                        }
                    }
                }
                words
            })
            .collect()
    }

    #[test]
    fn data_parallel_trees_equal_feature_parallel_trees_bit_for_bit() {
        // The layouts differ only in what they charge: the functional
        // search runs once on the host, so the trees must agree exactly.
        let ds = dataset(10);
        for k in 1..=3 {
            for streams in [1, 4] {
                for sketch in [OutputSketch::None, OutputSketch::TopOutputs(2)] {
                    let cfg = TrainConfig {
                        streams,
                        sketch,
                        ..quick_config()
                    };
                    let fit = |strategy| {
                        let group = DeviceGroup::rtx4090s(k);
                        MultiGpuTrainer::with_strategy(group, cfg.clone(), strategy).fit(&ds)
                    };
                    let fp = fit(MultiGpuStrategy::FeatureParallel);
                    let dp = fit(MultiGpuStrategy::DataParallel);
                    assert_eq!(
                        tree_bits(&fp),
                        tree_bits(&dp),
                        "k={k} streams={streams} sketch={}",
                        sketch.label()
                    );
                }
            }
        }
    }

    #[test]
    fn data_parallel_replicas_charge_their_own_shard() {
        // 401 rows over 3 devices: shards of 134, 134 and 133 rows.
        // Every per-row kernel a replica mirrors is priced at its own
        // shard, not at n / k.
        let ds = make_classification(&ClassificationSpec {
            instances: 401,
            features: 16,
            classes: 4,
            informative: 10,
            seed: 12,
            ..Default::default()
        });
        let (n, d) = (ds.n(), ds.d() as f64);
        let cfg = TrainConfig {
            num_trees: 2,
            sketch: OutputSketch::TopOutputs(2),
            ..quick_config()
        };
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(3),
            cfg,
            MultiGpuStrategy::DataParallel,
        );
        let _ = trainer.fit(&ds);
        let flops = loss_for_task(ds.task()).flops_per_output();
        for (rank, dev) in trainer.group().devices().iter().enumerate().skip(1) {
            let rows = shard_range(n, 3, rank).len() as f64;
            let want = [
                ("grad_hess_shard", rows * d * flops, rows * d * 16.0),
                ("sketch_gather", rows * 2.0 * 2.0, rows * 2.0 * 16.0 + 8.0),
                ("leaf_refit_full_d", rows * d * 2.0, rows * d * 8.0),
                ("update_scores_shard", rows * d, rows * d * 8.0),
            ];
            for (name, flops, bytes) in want {
                let ns = dev.model().kernel_ns(&KernelCost::streaming(flops, bytes));
                let charged: Vec<f64> = dev
                    .records()
                    .iter()
                    .filter(|r| r.name == name)
                    .map(|r| r.ns)
                    .collect();
                assert_eq!(charged.len(), 2, "device {rank}: one {name} per tree");
                for got in charged {
                    assert_eq!(got, ns, "device {rank}: {name} over {rows} rows");
                }
            }
        }
    }

    #[test]
    fn more_devices_than_features_still_works() {
        let ds = make_classification(&ClassificationSpec {
            instances: 200,
            features: 3,
            classes: 2,
            informative: 3,
            seed: 5,
            ..Default::default()
        });
        let model = MultiGpuTrainer::new(DeviceGroup::rtx4090s(8), quick_config()).fit(&ds);
        assert_eq!(model.num_trees(), 6);
    }
}
