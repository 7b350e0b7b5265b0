//! Multi-GPU training on a single machine (paper §3.4.2).
//!
//! One level-wise boosting loop serves both layouts of
//! [`MultiGpuStrategy`]. Each device builds its slice of every node's
//! histogram, and the group combines the slices with one collective per
//! level. The functional work (gradients, histograms, splits, leaf
//! values) runs once on the host and does not depend on the layout or
//! the device count, so every group grows the same trees as a single
//! device; only the charged costs differ. The layouts differ in five
//! places, each a `match self.strategy` arm:
//!
//! - **Ingest:** a device loads its feature range over all rows
//!   (feature-parallel, [`partition_features`]) or all columns of its
//!   instance shard (data-parallel).
//! - **Mirrored work:** the replicas' gradient, sketch-apply, leaf-refit
//!   and score-update charges cover all `n` rows (feature-parallel) or
//!   their `n/k` shard (data-parallel).
//! - **Node histograms and splits:** a feature-parallel device builds
//!   and evaluates only its own features, and the group picks the best
//!   local candidate. A data-parallel device builds its shard over all
//!   features, and every device evaluates the one reduced histogram.
//! - **Partitioning:** feature-parallel flag and partition kernels are
//!   charged once per level, after the candidate exchange; data-parallel
//!   `partition_shard` kernels are charged per node.
//! - **Level collective:** feature-parallel devices all-gather their
//!   best-split candidates, then the owners' routing bitmaps (summary
//!   statistics of a few bytes per instance). Data-parallel devices
//!   ring-all-reduce every built node's `m × B × d` histogram.
//!
//! The group runs bulk-synchronously; barrier waits book as idle time.
//! With `streams > 1` the histogram builds run on their own stream and
//! the level's collective drains on a comm stream while the next
//! level's builds start.
//!
//! ## Fault recovery
//!
//! When any device in the group has a fault injector attached
//! (`Device::enable_faults`), every bulk-synchronous step ends with a
//! group-wide poll. A transient launch fault re-runs the round within
//! the [`crate::RetryPolicy`] budget (the failed attempt's charges stay
//! booked — the grid ran and trapped). A lost device is *dropped from
//! the active set*: the survivors re-partition the work, re-charge the
//! ingest of their enlarged shares, re-run the interrupted round, and
//! finish training — producing trees bit-identical to a fault-free run,
//! because the functional compute is independent of the device count.
//! Only when every device is gone does training fail, with
//! [`TrainError::AllDevicesLost`].

use crate::config::{ConfigError, HistogramMethod, TrainConfig};
use crate::error::TrainError;
use crate::grad::{compute_gradients, update_scores_from_leaves, Gradients};
use crate::grow::{partition_stable, GrowResult};
use crate::hist::{accumulate_dense, charge_method_on, resolve_method, HistContext, NodeHistogram};
use crate::loss::loss_for_task;
use crate::model::Model;
use crate::sketch::{apply_sketch, charge_apply, plan_sketch, refit_leaves_full_d};
use crate::split::{find_best_split_range, leaf_values, SplitCandidate, SplitParams};
use crate::trainer::{base_score_matrix, TrainReport};
use crate::tree::Tree;
use gbdt_data::{BinnedDataset, Dataset};
use gpusim::cost::KernelCost;
use gpusim::{Device, DeviceGroup, Event, GpuFault, Phase, Telemetry};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Stream carrying fresh histogram builds when `streams > 1` (stream 0
/// keeps gradients, split evaluation, and partitioning serial).
const HIST_STREAM: usize = 1;
/// Stream carrying level-batched collectives when `streams > 1`: the
/// NCCL channel runs on its own engine and overlaps compute.
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

/// Outcome of polling every active device after one bulk-synchronous
/// step (the group-wide `cudaGetLastError` analogue).
enum GroupPoll {
    /// No device reported a fault.
    Clean,
    /// At least one device trapped a retryable launch fault; the first
    /// one (in rank order) is reported.
    Transient(GpuFault),
    /// One or more devices are gone. `dead` holds their positions in
    /// the polled slice; loss dominates any pending transient.
    Lost { dead: Vec<usize> },
}

fn poll_group(devices: &[Arc<Device>]) -> GroupPoll {
    let mut dead = Vec::new();
    let mut transient = None;
    for (rank, dev) in devices.iter().enumerate() {
        match dev.poll_fault() {
            Ok(()) => {}
            Err(GpuFault::DeviceLost { .. }) => dead.push(rank),
            Err(fault @ GpuFault::Transient { .. }) => {
                if transient.is_none() {
                    transient = Some(fault);
                }
            }
        }
    }
    if !dead.is_empty() {
        GroupPoll::Lost { dead }
    } else if let Some(fault) = transient {
        GroupPoll::Transient(fault)
    } else {
        GroupPoll::Clean
    }
}

/// What the caller should do after a polled step.
enum StepVerdict {
    /// Fault-free: commit the step's results.
    Commit,
    /// Transient fault within budget: re-run the step as-is.
    Retry,
    /// Devices were dropped: re-partition over the survivors, re-charge
    /// their enlarged ingest shares, then re-run the step.
    Degraded,
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

/// The group's shared telemetry registry, if any device carries one.
/// `MultiGpuTrainer` users attach one registry to every member (see
/// `Device::attach_telemetry`), so the first hit is the group's.
fn group_telemetry(devices: &[Arc<Device>]) -> Option<Arc<Telemetry>> {
    devices.iter().find_map(|dv| dv.telemetry())
}

/// Count collective payload bytes on the group's registry. Pure
/// observer: called after the collective's charges are booked.
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
    /// features; per level, partial histograms are summed with a ring
    /// all-reduce ("partial histograms are then aggregated via
    /// CUDA-aware collective operations"). Gradient work divides by the
    /// device count, but the collective moves the full multi-output
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
        let host_start = Instant::now();
        let (n, d, m) = (ds.n(), ds.d(), ds.m());
        let start_summaries: Vec<_> = self.group.devices().iter().map(|dv| dv.summary()).collect();
        let mut active: Vec<Arc<Device>> = self.group.devices().to_vec();
        let faults_on = active.iter().any(|dv| dv.fault_injector().is_some());

        // --- preprocessing, charged per device for its share ----------
        let mut attempts = 0u32;
        loop {
            self.charge_preprocess(&DeviceGroup::from_devices(active.clone()), n, m);
            if !faults_on {
                break;
            }
            match self.recover_step(&mut active, &mut attempts, usize::MAX)? {
                StepVerdict::Commit => break,
                // Retry and degradation both simply re-run the ingest:
                // the shares are recomputed from the survivors.
                StepVerdict::Retry | StepVerdict::Degraded => {}
            }
        }
        let binned = BinnedDataset::build(ds.features(), self.config.max_bins);
        let (base, mut scores) = base_score_matrix(ds);
        let loss = loss_for_task(ds.task());

        let mut trees = Vec::with_capacity(self.config.num_trees);
        let mut hist_methods = BTreeMap::new();
        // Structure search runs at the sketch's effective output
        // dimension: the histogram, and with it the data-parallel
        // all-reduce payload, shrinks from d to k columns.
        let d_eff = self.config.sketch.effective_dim(d);
        let mut hist = NodeHistogram::new(m, d_eff, self.config.max_bins);

        for t in 0..self.config.num_trees {
            // Snapshot the round's inputs so a faulted attempt can be
            // rolled back and re-run (cloned only when injectors are
            // attached — the fault-free path is untouched).
            let saved = faults_on.then(|| (scores.clone(), hist_methods.clone()));
            let mut attempts = 0u32;
            let committed = loop {
                let group = DeviceGroup::from_devices(active.clone());
                let devices = group.devices();
                let k = group.len();
                // Rows each replica mirrors the lead's per-instance work
                // over: all of them when gradients are replicated, its
                // own shard when instances are.
                let mirror_n = match self.strategy {
                    MultiGpuStrategy::FeatureParallel => n,
                    MultiGpuStrategy::DataParallel => n / k,
                };
                // Scope the round on the lead device (the representative
                // timeline; devices run in lockstep between collectives).
                let _round_scope = group.device(0).prof_scope("round", Some(t as u64));
                // The lead computes the gradients and is charged for all
                // n rows in both layouts. Only the replicas differ: they
                // charge `grad_hess` over all n rows when gradients are
                // replicated (feature-parallel), `grad_hess_shard` over
                // n/k rows when instances are sharded (data-parallel).
                let grads_full =
                    compute_gradients(&devices[0], loss.as_ref(), &scores, ds.targets(), n, d);
                let grad_kernel = match self.strategy {
                    MultiGpuStrategy::FeatureParallel => "grad_hess",
                    MultiGpuStrategy::DataParallel => "grad_hess_shard",
                };
                for dev in &devices[1..] {
                    dev.charge_kernel(
                        grad_kernel,
                        Phase::Gradient,
                        &KernelCost::streaming(
                            mirror_n as f64 * d as f64 * loss.flops_per_output(),
                            (mirror_n * d * 16) as f64,
                        ),
                    );
                    crate::sanitize::trace_grad_hess(dev, mirror_n, d);
                }
                // Sketch once per tree: device 0 selects, the plan is
                // broadcast, every device applies it locally.
                let (grads, full_for_refit) = if self.config.sketch.is_none() {
                    (grads_full, None)
                } else {
                    let sketched = self.sketch_round(&group, &grads_full, t, mirror_n);
                    (sketched, Some(grads_full))
                };

                let mut grown =
                    self.grow_tree(&group, &binned, &grads, &mut hist, &mut hist_methods);
                // Sketched structure, full-output leaves: one gather-reduce
                // pass over the complete gradients per leaf.
                if let Some(full) = &full_for_refit {
                    self.refit_round(&group, &mut grown, full, mirror_n);
                }

                // Score update on the lead; the replicas mirror it over
                // every touched row, or over their shard of them.
                update_scores_from_leaves(&devices[0], &mut scores, d, &grown.leaf_assignments);
                let touched: usize = grown.leaf_assignments.iter().map(|(v, _)| v.len()).sum();
                let (update_kernel, touched, leaf_bytes) = match self.strategy {
                    MultiGpuStrategy::FeatureParallel => (
                        "update_scores",
                        touched,
                        grown.leaf_assignments.len() * d * 4,
                    ),
                    MultiGpuStrategy::DataParallel => ("update_scores_shard", touched / k, 0),
                };
                for dev in &devices[1..] {
                    dev.charge_kernel(
                        update_kernel,
                        Phase::Predict,
                        &KernelCost::streaming(
                            (touched * d) as f64,
                            (touched * d * 8 + leaf_bytes) as f64,
                        ),
                    );
                    // A data-parallel replica's replay covers every leaf,
                    // a superset of the rows its shard touches.
                    crate::sanitize::trace_update_scores(dev, d, n, &grown.leaf_assignments);
                }
                if !faults_on {
                    break grown.tree;
                }
                match self.recover_step(&mut active, &mut attempts, t)? {
                    StepVerdict::Commit => break grown.tree,
                    StepVerdict::Retry => {}
                    // Survivors take over the lost device's columns or
                    // instances: charge the ingest of their new shares
                    // before re-running the round.
                    StepVerdict::Degraded => {
                        self.charge_preprocess(&DeviceGroup::from_devices(active.clone()), n, m)
                    }
                }
                let (saved_scores, saved_methods) =
                    saved.as_ref().expect("snapshot exists when faults are on");
                scores.copy_from_slice(saved_scores);
                hist_methods = saved_methods.clone();
            };
            trees.push(committed);
        }
        // Clock spread is only visible before the final barrier joins
        // every stream to the group makespan.
        tel_makespan_skew(&active);
        DeviceGroup::from_devices(active.clone()).barrier();

        let model = Model {
            trees,
            base,
            d,
            task: ds.task(),
            config: self.config.clone(),
        };
        // Group time = slowest device (they are barrier-aligned); report
        // the surviving lead's phase breakdown as representative.
        let lead = &active[0];
        let lead_pos = self
            .group
            .devices()
            .iter()
            .position(|dv| Arc::ptr_eq(dv, lead))
            .expect("lead device comes from the original group");
        let sim = lead.summary().since(&start_summaries[lead_pos]);
        Ok(TrainReport {
            sim_seconds: sim.total_ns * 1e-9,
            host_seconds: host_start.elapsed().as_secs_f64(),
            sim,
            model,
            hist_methods,
        })
    }

    /// Grow one tree level by level across the group: each device
    /// charges its slice of every node's histogram build, and the level
    /// ends with the strategy's collective.
    fn grow_tree(
        &self,
        group: &DeviceGroup,
        binned: &BinnedDataset,
        grads: &Gradients,
        hist: &mut NodeHistogram,
        hist_methods: &mut BTreeMap<HistogramMethod, usize>,
    ) -> GrowResult {
        let devices = group.devices();
        let k = group.len();
        let (n, m) = (binned.n(), binned.m());
        let features: Vec<u32> = (0..m as u32).collect();
        let ranges = partition_features(m, k);
        let streamed = self.config.streams > 1;
        let hist_stream = if streamed { HIST_STREAM } else { 0 };
        // One node's histogram: the data-parallel all-reduce payload.
        let hist_bytes = m * self.config.max_bins * grads.d * 2 * 8;
        let params = SplitParams {
            lambda: self.config.lambda,
            min_gain: self.config.min_gain,
            min_instances: self.config.min_instances,
            segments_c: self.config.segments_per_block_c,
        };
        let mut grown = GrowResult {
            tree: Tree::new(grads.d),
            leaf_assignments: Vec::new(),
            leaf_nodes: Vec::new(),
            methods_used: BTreeMap::new(),
        };
        let root_idx: Vec<u32> = (0..n as u32).collect();
        let (rg, rh) = grads.sums(&root_idx);
        let mut frontier = vec![(0usize, root_idx, rg, rh)];
        // Streamed mode: builds of each level start at the previous
        // level's alignment fence plus the first chunk of any
        // in-flight collective — the collective's tail overlaps them.
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
            // Nodes whose histogram was built this level, and the
            // per-device payloads of the feature-parallel
            // candidate and routing-bitmap exchanges.
            let mut built = 0usize;
            let mut candidate_bytes = vec![0usize; k];
            let mut flag_bytes = vec![0usize; k];
            let mut flag_elems = vec![0usize; k];
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
                            (&features[..], shard)
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
                    *hist_methods.entry(method).or_insert(0) += 1;
                }
                // Functional accumulation once (identical results).
                let full_ctx = HistContext {
                    device: &devices[0],
                    data: binned,
                    grads,
                    features: &features,
                    bins: self.config.max_bins,
                    opts: self.config.hist,
                };
                hist.reset();
                accumulate_dense(&full_ctx, &instances, hist);

                let best = match self.strategy {
                    MultiGpuStrategy::FeatureParallel => {
                        // Each device evaluates only its own feature
                        // range, so it fences only its own fresh
                        // build; the cross-device join is the
                        // level's candidate all-gather.
                        let mut best: Option<SplitCandidate> = None;
                        for (rank, (dev, &(lo, hi))) in devices.iter().zip(&ranges).enumerate() {
                            if streamed && lo < hi {
                                dev.wait_event(0, dev.record_event(HIST_STREAM));
                            }
                            let local = find_best_split_range(
                                dev,
                                hist,
                                &features,
                                lo,
                                hi,
                                &g,
                                &h,
                                instances.len() as u32,
                                &params,
                            );
                            candidate_bytes[rank] +=
                                16 + local.as_ref().map_or(0, |c| c.left_g.len() * 16);
                            // Strictly-greater gain wins, so exact
                            // ties resolve to the lowest feature
                            // range — the single-device argmax rule.
                            if let Some(c) = local {
                                if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                                    best = Some(c);
                                }
                            }
                        }
                        best
                    }
                    MultiGpuStrategy::DataParallel => {
                        // Split evaluation is replicated and consumes
                        // the reduced histogram of every shard: join
                        // it on the slowest rank's fresh build.
                        if streamed {
                            let fence = stream_fence(devices, HIST_STREAM);
                            for dev in devices {
                                dev.wait_event(0, fence);
                            }
                        }
                        let best = find_best_split_range(
                            &devices[0],
                            hist,
                            &features,
                            0,
                            m,
                            &g,
                            &h,
                            instances.len() as u32,
                            &params,
                        );
                        for dev in &devices[1..] {
                            dev.charge_kernel(
                                "split_eval_replicated",
                                Phase::SplitEval,
                                &KernelCost::streaming(
                                    (m * grads.d * self.config.max_bins) as f64 * 10.0,
                                    (m * grads.d * self.config.max_bins * 16) as f64,
                                ),
                            );
                        }
                        best
                    }
                };
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
                        // in one all-gather and the flag/partition
                        // kernels are charged level-batched.
                        let f = split.feature as usize;
                        let owner = ranges
                            .iter()
                            .position(|&(lo, hi)| (lo..hi).contains(&f))
                            .expect("split feature must belong to a device");
                        flag_elems[owner] += instances.len();
                        flag_bytes[owner] += instances.len().div_ceil(8);
                        crate::sanitize::trace_partition(&devices[owner], &flags);
                    }
                    MultiGpuStrategy::DataParallel => {
                        // Every device partitions its shard as soon
                        // as the replicated split is known.
                        crate::sanitize::trace_partition(&devices[0], &flags);
                        for dev in devices {
                            dev.charge_kernel(
                                "partition_shard",
                                Phase::Partition,
                                &KernelCost {
                                    flops: 3.0 * (instances.len() / k) as f64,
                                    dram_bytes: ((instances.len() / k) * 17) as f64,
                                    launches: 2.0,
                                    ..Default::default()
                                },
                            );
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

            // The level's collectives. In streamed mode the
            // returned event is when the next level's builds may
            // start: the exchange's first chunk, whose tail they
            // overlap.
            let comm_partial = match self.strategy {
                MultiGpuStrategy::FeatureParallel => {
                    if built > 0 && k > 1 {
                        // Candidates are tiny summary statistics:
                        // winners wait the full exchange.
                        if let Some((done, _)) = all_gather_level(group, &candidate_bytes, streamed)
                        {
                            for dev in devices {
                                dev.wait_event(0, done);
                            }
                        }
                    }
                    // Every device partitions its (replicated) index
                    // lists; only the owners computed flags.
                    let partition_elems: usize = flag_elems.iter().sum();
                    for (dev, &elems) in devices.iter().zip(&flag_elems) {
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
                                &KernelCost {
                                    flops: 3.0 * partition_elems as f64,
                                    dram_bytes: (partition_elems * 17) as f64,
                                    launches: 2.0,
                                    ..Default::default()
                                },
                            );
                        }
                    }
                    if k > 1 && flag_bytes.iter().any(|&b| b > 0) {
                        all_gather_level(group, &flag_bytes, streamed)
                            .map(|(done, ns)| first_chunk(done, ns))
                    } else {
                        None
                    }
                }
                MultiGpuStrategy::DataParallel if k > 1 && built > 0 => {
                    // One ring all-reduce per built node's
                    // histogram, batched into one level-wide
                    // collective.
                    let bytes = built * hist_bytes;
                    tel_collective_bytes(devices, bytes as f64);
                    let ns = devices[0].model().ring_all_reduce_ns(bytes as f64, k);
                    if streamed {
                        // It enters when the slowest rank's builds
                        // finish and drains on the comm engines
                        // while stream 0 proceeds.
                        let fence = stream_fence(devices, HIST_STREAM);
                        let done = streamed_collective(devices, "hist_all_reduce", ns, fence);
                        Some(first_chunk(done, ns))
                    } else {
                        for dev in devices {
                            dev.charge_ns("hist_all_reduce", Phase::Comm, ns);
                        }
                        None
                    }
                }
                MultiGpuStrategy::DataParallel => None,
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
        grown
    }

    /// Close `node` as a leaf holding the regularized optimum of its
    /// gradient sums.
    fn close_leaf(&self, grown: &mut GrowResult, node: usize, idx: Vec<u32>, g: &[f64], h: &[f64]) {
        let v = leaf_values(g, h, self.config.lambda, self.config.learning_rate);
        grown.tree.set_leaf(node, v.clone());
        grown.leaf_nodes.push(node);
        grown.leaf_assignments.push((idx, v));
    }

    /// Charge every device for ingesting and binning its share of the
    /// matrix: its feature range over all rows (feature-parallel) or all
    /// columns of its instance shard (data-parallel). Re-issued after
    /// degradation, when the shares shift and survivors reload and rebin.
    fn charge_preprocess(&self, group: &DeviceGroup, n: usize, m: usize) {
        let k = group.len();
        let ranges = partition_features(m, k);
        for (rank, dev) in group.devices().iter().enumerate() {
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
        }
    }

    /// End-of-step poll and recovery decision for one bulk-synchronous
    /// step. Trims `active` on device loss. `round` is the boosting
    /// round, or `usize::MAX` for preprocessing.
    fn recover_step(
        &self,
        active: &mut Vec<Arc<Device>>,
        attempts: &mut u32,
        round: usize,
    ) -> Result<StepVerdict, TrainError> {
        // Observer only (may be `None`): counters and postmortems are
        // recorded on the group's shared registry after the recovery
        // decision is already made.
        let tel = group_telemetry(self.group.devices());
        let count = |name: &str| {
            if let Some(tl) = &tel {
                tl.counter_inc(name);
            }
        };
        let fail = |err: TrainError| {
            if let Some(tl) = &tel {
                tl.record_postmortem(&err.to_string());
            }
            Err(err)
        };
        match poll_group(active) {
            GroupPoll::Clean => Ok(StepVerdict::Commit),
            GroupPoll::Transient(fault) => {
                count("train.faults_total");
                if *attempts >= self.config.retry.max_retries {
                    return fail(TrainError::RetriesExhausted {
                        round,
                        attempts: *attempts,
                        fault,
                    });
                }
                *attempts += 1;
                count("train.retries_total");
                Ok(StepVerdict::Retry)
            }
            GroupPoll::Lost { dead } => {
                for rank in dead.into_iter().rev() {
                    active.remove(rank);
                }
                count("train.faults_total");
                if active.is_empty() {
                    return fail(TrainError::AllDevicesLost { round });
                }
                Ok(StepVerdict::Degraded)
            }
        }
    }

    /// Sketch the round's gradients once on device 0, broadcast the
    /// plan (selected column indices or the projection matrix) as a
    /// collective, and mirror the gather/projection apply on the
    /// replica devices: `mirror_n` instances each.
    fn sketch_round(
        &self,
        group: &DeviceGroup,
        grads: &Gradients,
        t: usize,
        mirror_n: usize,
    ) -> Gradients {
        let dev0 = group.device(0);
        let _sketch_scope = dev0.prof_scope("sketch", Some(t as u64));
        let plan = plan_sketch(
            dev0,
            grads,
            self.config.sketch,
            self.config.seed.wrapping_add(t as u64),
        );
        let bytes = plan.broadcast_bytes(grads.d);
        if group.len() > 1 && bytes > 0.0 {
            group.broadcast(0, bytes as usize);
            tel_collective_bytes(group.devices(), bytes);
        }
        let sketched = apply_sketch(dev0, grads, &plan);
        for dev in &group.devices()[1..] {
            charge_apply(dev, mirror_n, grads.d, &plan);
        }
        sketched
    }

    /// Refit a sketch-grown tree's leaves to the full `d`-dimensional
    /// optimum on device 0 and mirror the gather-reduce charge on the
    /// replicas (`mirror_n` resident instances each).
    fn refit_round(
        &self,
        group: &DeviceGroup,
        grown: &mut GrowResult,
        full: &Gradients,
        mirror_n: usize,
    ) {
        refit_leaves_full_d(group.device(0), grown, full, &self.config);
        let d = full.d;
        for dev in &group.devices()[1..] {
            dev.charge_kernel(
                "leaf_refit_full_d",
                Phase::LeafValue,
                &KernelCost::streaming((mirror_n * d * 2) as f64, (mirror_n * d * 8) as f64),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GossConfig, HistOptions};
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
        // choice: data-parallel collectives move the full m×B×d
        // histogram; feature-parallel moves only summary statistics.
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
