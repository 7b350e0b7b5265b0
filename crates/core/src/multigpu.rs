//! Multi-GPU training on a single machine (paper §3.4.2), and the one
//! placement of every fit.
//!
//! The boosting loop of [`crate::trainer`] runs on a group of devices,
//! lead first (`Group`): the one trainer, [`GpuTrainer`] (also named
//! [`MultiGpuTrainer`]), runs it over its [`DeviceGroup`], of one device
//! or more. Each tree grows on the level loop of one device
//! (`grow::grow_levels`): this module says only where a round's work
//! runs and what each device charges for it (`Group`, [`Spread`]), for
//! both layouts of [`MultiGpuStrategy`]. The lead runs the functional
//! work (gradients, histograms, derives, splits, bounds, leaf values)
//! once on the host whatever the layout or the device count, so every
//! group grows the same trees as a single device; only the charged
//! costs differ. A group of one is one device: it has no replica, no
//! collective and no join.
//! From two devices on, the layouts differ in five places:
//!
//! - **Ingest:** a device uploads and bins its feature range over all
//!   rows (feature-parallel, [`partition_features`]) or all columns of
//!   its instance shard (data-parallel), by the one ingest of every
//!   device.
//! - **Mirrored work:** the replicas' gradient, sketch-apply, leaf-refit
//!   and score-update charges cover all `n` rows (feature-parallel) or
//!   their own shard (data-parallel).
//! - **Node histograms and splits:** only the `m'` columns that can
//!   split are built, exchanged and scanned
//!   (`BinnedDataset::splittable`). A feature-parallel device builds the
//!   splittable columns of the range it ingested ([`partition_features`]
//!   over all `m`). A data-parallel group gives each device a fresh
//!   node's data for its range of them by the cheaper [`NodePath`], as
//!   [`ExchangeShape`] prices it: a device builds its shard over all
//!   `m'` and a ring reduce-scatter of the node's `m' × B × d` histogram
//!   leaves it the reduced slice of its range, or the devices exchange
//!   the node's rows and each builds its range over all of them. Under
//!   subtraction the larger child of a pair is neither built nor moved:
//!   each device derives its own range of it. Either way a device
//!   evaluates only its own range, and the group picks the best
//!   candidate.
//! - **Partitioning:** feature-parallel flag and partition kernels, or
//!   each data-parallel device's `partition_shard` over its own shard,
//!   are charged once per level, after the candidate exchange.
//! - **Level collective:** both layouts all-gather the level's best-split
//!   candidates; feature-parallel devices then all-gather the owners'
//!   routing bitmaps (summary statistics of a few bytes per instance).
//!
//! Each device charges a level as one device does: its histogram builds
//! and derives through one `hist::HistCharges`, one kernel per method,
//! and its split scan as one kernel ([`LevelSplitCharges`]). Only a
//! data-parallel reduce-scatter node's build is a kernel of its own,
//! charged before its collective.
//!
//! With `streams > 1` every device copies its features on a copy stream
//! and bins one chunk behind the copy. A group of two or more runs
//! bulk-synchronously; barrier waits book as idle time. With
//! `streams > 1` its histogram builds run on their own stream and
//! collectives drain on a comm stream: a node's reduce-scatter while
//! the next node builds, the bitmap exchange while the next level's
//! builds start. A data-parallel level is a two-machine job shop that
//! Jackson's rule orders: its batched row exchange goes first on the
//! comm stream while the reduce-scatter nodes build, smallest first,
//! each followed by its reduce-scatter; the row-path nodes build as one
//! batch once the exchange has landed, and the derives follow once
//! every build and collective of the level has.
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
//! with [`TrainError::AllDevicesLost`]. A fleet that started as one
//! device has no survivor to degrade to: losing it fails the fit with
//! [`TrainError::DeviceLost`].

use crate::config::TrainConfig;
use crate::error::TrainError;
use crate::grad::Gradients;
use crate::grow::{grow_levels, partition_cost, GrowResult, OpenNode};
use crate::hist::{HistCharges, HistContext, NodeHistogram};
use crate::memory::HistogramPool;
use crate::sketch::{apply_sketch, charge_apply, plan_sketch, refit_leaves_full_d};
use crate::split::{
    find_best_split_constrained, ConstraintState, LevelSplitCharges, SplitCandidate, SplitParams,
};
use crate::trainer::GpuTrainer;
use gbdt_data::BinnedDataset;
use gpusim::cost::{CostModel, KernelCost};
use gpusim::{Device, DeviceGroup, Event, GpuFault, Phase, Telemetry};
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
/// chunked ingest copy of `Group::ingest`).
const COMM_CHUNKS: f64 = 8.0;

/// Contiguous ranges of `m` features per device: device `i` owns
/// `[ranges[i].0, ranges[i].1)`.
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

/// All-gather one level's per-device payloads, the largest of
/// `max_part` bytes. In streamed mode the exchange runs on the comm
/// streams after aligning stream 0, and its completion event and
/// duration are returned.
fn all_gather_level(group: &DeviceGroup, max_part: usize, streamed: bool) -> Option<(Event, f64)> {
    let (devices, k) = (group.devices(), group.len());
    tel_collective_bytes(devices, (max_part * k) as f64);
    if streamed {
        let ns = devices[0].model().all_gather_ns(max_part as f64, k);
        let fence = align_stream0(devices);
        Some((streamed_collective(devices, "all_gather", ns, fence), ns))
    } else {
        group.all_gather(max_part);
        None
    }
}

/// Reduce-scatter one built node's `bytes`-sized histogram once the
/// slowest rank's build of it is done: each rank receives the reduced
/// slice of its own feature range ([`partition_features`]). In streamed
/// mode it drains on the comm streams while the next node builds.
/// Returns the bytes landing on each rank.
fn reduce_scatter_node(group: &DeviceGroup, bytes: f64, streamed: bool) -> f64 {
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
    let landed = bytes / k as f64;
    tel_collective_bytes(devices, landed);
    landed
}

/// Which way a built data-parallel node's data reaches the devices that
/// evaluate its splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodePath {
    /// Each device builds its shard over every splittable column, and a
    /// ring reduce-scatter of the node's histogram leaves it the reduced
    /// slice of its feature range.
    ReduceScatter,
    /// Each device sends its shard's rows of the node to the feature
    /// owners, then builds its feature range over all of the node's
    /// rows, as a feature-parallel device does.
    RowExchange,
}

/// A data-parallel tally of one [`NodePath`] at one depth: the built
/// nodes that took it and the collective bytes landing on each rank for
/// them (the `S/k` slice of each reduce-scatter, the other `k − 1`
/// ranks' rows of the exchange), as `multigpu.collective_bytes` counts
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathTally {
    /// Built nodes.
    pub nodes: usize,
    /// Collective bytes landing on each rank.
    pub bytes: f64,
}

/// What a data-parallel group moves to give every device one built
/// node's split-evaluation data, each way, and what that costs on a
/// [`CostModel`]: the one pricing helper of a data-parallel level's choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeShape {
    devices: usize,
    hist_bytes: f64,
    /// `f32` gradient columns a row carries.
    grad_cols: usize,
    /// The widest feature range: bin bytes a row carries to its owner.
    widest: usize,
}

impl ExchangeShape {
    /// A group of `devices` building `features` splittable columns of
    /// `bins` bins for `d` outputs; `uniform` when the group agreed that
    /// every row shares one Hessian row.
    ///
    /// A node's histogram holds its gradient and Hessian (or, uniform,
    /// count) columns in `f64`, plus the `u32` counts the split scan
    /// reads when no column carries them. A row carries its `f32`
    /// gradient columns (`g` alone on the uniform path, `g` and `h`
    /// otherwise) and, for the receiving owner, one bin byte per
    /// feature of its range; the widest range prices every receiver.
    pub fn new(devices: usize, features: usize, bins: usize, d: usize, uniform: bool) -> Self {
        let (hess_cols, count_bytes, grad_cols) = if uniform { (1, 0, d) } else { (d, 4, 2 * d) };
        let widest = partition_features(features, devices)
            .iter()
            .map(|(lo, hi)| hi - lo)
            .max()
            .unwrap_or(0);
        ExchangeShape {
            devices,
            hist_bytes: (features * bins * ((d + hess_cols) * 8 + count_bytes)) as f64,
            grad_cols,
            widest,
        }
    }

    /// Bytes of one node's histogram: the reduce-scatter payload.
    pub fn hist_bytes(&self) -> f64 {
        self.hist_bytes
    }

    /// Bytes each rank contributes to exchanging a node of `rows` rows:
    /// its largest shard's rows, whatever rank holds it.
    fn payload_bytes(&self, rows: usize) -> f64 {
        (shard_range(rows, self.devices, 0).len() * (self.grad_cols * 4 + self.widest)) as f64
    }

    /// One node's ring reduce-scatter.
    fn reduce_scatter_ns(&self, model: &CostModel) -> f64 {
        model.ring_reduce_scatter_ns(self.hist_bytes, self.devices)
    }

    /// A row exchange of `payload` bytes per rank, priced as an
    /// all-gather of it (`k − 1` hops).
    fn row_exchange_ns(&self, model: &CostModel, payload: f64) -> f64 {
        model.all_gather_ns(payload, self.devices)
    }

    /// The cheaper path for a node of `rows` rows: its rows are
    /// exchanged only when that is strictly cheaper than reduce-
    /// scattering its histogram.
    pub fn path(&self, model: &CostModel, rows: usize) -> NodePath {
        if self.row_exchange_ns(model, self.payload_bytes(rows)) < self.reduce_scatter_ns(model) {
            NodePath::RowExchange
        } else {
            NodePath::ReduceScatter
        }
    }
}

/// Exchange the rows of a data-parallel level's row-path nodes with
/// their feature owners, as one batched collective: each rank packs its
/// shard's rows of every node (`pack_node_rows`, an `n`-row gather over
/// `features` bin columns, on the hist stream when `streamed`), then
/// the group all-gathers the largest per-rank payload once the slowest
/// pack is done. Returns the exchange's completion event in streamed mode,
/// and the bytes landing on each rank: the other `k − 1` ranks' rows.
fn exchange_rows(
    group: &DeviceGroup,
    shape: &ExchangeShape,
    nodes: &[&[u32]],
    n: usize,
    features: usize,
    streamed: bool,
) -> (Option<Event>, f64) {
    let (devices, k) = (group.devices(), group.len());
    let stream = if streamed { HIST_STREAM } else { 0 };
    let cols = shape.grad_cols;
    for (rank, dev) in devices.iter().enumerate() {
        let shards: Vec<&[u32]> = nodes
            .iter()
            .map(|idx| &idx[shard_range(idx.len(), k, rank)])
            .collect();
        let rows: usize = shards.iter().map(|s| s.len()).sum();
        if rows == 0 {
            continue;
        }
        // A gather of each row's index, gradient columns and bins into
        // one contiguous send buffer.
        let _scope = dev.prof_scope("pack_node_rows", None);
        let elems = rows * (cols + features);
        dev.stream(stream).charge_kernel(
            "pack_node_rows",
            Phase::Histogram,
            &KernelCost::streaming(
                elems as f64,
                (rows * 4 + 2 * rows * (cols * 4 + features)) as f64,
            ),
        );
        crate::sanitize::trace_pack_node_rows(dev, &shards, n, cols, features);
    }
    let payload: f64 = nodes.iter().map(|idx| shape.payload_bytes(idx.len())).sum();
    let ns = shape.row_exchange_ns(devices[0].model(), payload);
    let done = if streamed {
        let fence = stream_fence(devices, HIST_STREAM);
        Some(streamed_collective(devices, "node_row_exchange", ns, fence))
    } else {
        group.barrier();
        for dev in devices {
            dev.charge_ns("node_row_exchange", Phase::Comm, ns);
        }
        None
    };
    let landed = payload * (k - 1) as f64;
    tel_collective_bytes(devices, landed);
    (done, landed)
}

/// The group's shared telemetry registry, if any device carries one.
/// Users of a group attach one registry to every member (see
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

/// Count `nodes` built nodes of a data-parallel level at `depth` that
/// took `path`, and the `bytes` landing on each rank for them, into
/// `grown` and the group's registry.
fn tally_path(
    grown: &mut GrowResult,
    devices: &[Arc<Device>],
    depth: usize,
    path: NodePath,
    nodes: usize,
    bytes: f64,
) {
    let seen = grown.node_paths.entry((depth, path)).or_default();
    seen.nodes += nodes;
    seen.bytes += bytes;
    if let Some(tel) = group_telemetry(devices) {
        let name = match path {
            NodePath::ReduceScatter => "multigpu.nodes_reduce_scatter",
            NodePath::RowExchange => "multigpu.nodes_row_exchange",
        };
        tel.counter_add(name, nodes as u64);
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

/// Where a tree's levels run and how each device charges them: the
/// devices, lead first, and for two or more the group they form. A
/// group of one is one device: one range over every splittable column,
/// no collective and every kernel on the default stream.
pub(crate) struct Spread<'a> {
    pub(crate) devices: Vec<&'a Device>,
    group: Option<&'a DeviceGroup>,
    /// A group that shards instances, so every fresh node's data
    /// crosses the link by the cheaper of its two [`NodePath`]s.
    data_parallel: bool,
    /// A group whose builds and collectives run on streams of their own.
    streamed: bool,
}

impl<'a> Spread<'a> {
    /// One device.
    pub(crate) fn one(device: &'a Device) -> Self {
        Spread {
            devices: vec![device],
            group: None,
            data_parallel: false,
            streamed: false,
        }
    }

    /// Each device's range of the splittable `features` (local indices)
    /// it builds and scans: the splittable columns among those a
    /// feature-parallel device ingested ([`partition_features`] over all
    /// `m`), or a data-parallel device's share of the splittable list.
    pub(crate) fn ranges(&self, m: usize, features: &[u32]) -> Vec<Range<usize>> {
        let k = self.devices.len();
        let local = |f: usize| features.partition_point(|&x| (x as usize) < f);
        let ranges = if self.data_parallel {
            partition_features(features.len(), k)
        } else {
            debug_assert!(features.is_sorted(), "features ascend");
            partition_features(m, k)
                .into_iter()
                .map(|(lo, hi)| (local(lo), local(hi)))
                .collect()
        };
        ranges.into_iter().map(|(lo, hi)| lo..hi).collect()
    }

    /// Open a level whose nodes `fresh` build their histograms fresh
    /// (`full`: the lead's context over every splittable column).
    /// Streamed, its builds start at the previous level's `fence`. Each
    /// device plans its range of every fresh node over all of its rows,
    /// except on a data-parallel group, which charges the level's builds
    /// and node collectives here, in Jackson's order (see the module
    /// doc): each reduce-scatter node's shard builds are a batch of
    /// their own, flushed before its collective.
    pub(crate) fn open_level<'c>(
        &'c self,
        fence: Option<Event>,
        full: &'c HistContext<'c>,
        ranges: &'c [Range<usize>],
        fresh: &[&[u32]],
        depth: usize,
        grown: &mut GrowResult,
    ) -> LevelCharges<'c> {
        let k = self.devices.len();
        let mut level = LevelCharges {
            spread: self,
            full,
            ranges,
            on: vec![DeviceLevel::default(); k],
        };
        if self.streamed {
            for dev in &self.devices {
                let f = fence.unwrap_or_else(|| dev.record_event(0));
                dev.wait_event(HIST_STREAM, f);
            }
        }
        let Some(group) = self.group.filter(|_| self.data_parallel) else {
            fresh.iter().for_each(|idx| level.plan(idx));
            return level;
        };
        let (devices, mf, streamed) = (group.devices(), full.features.len(), self.streamed);
        let uniform = full.grads.uniform_h().is_some();
        let shape = ExchangeShape::new(k, mf, full.bins, full.d(), uniform);
        let model = self.devices[0].model();
        let mut order = fresh.to_vec();
        order.sort_by_key(|idx| idx.len());
        let (row_nodes, scatters): (Vec<&[u32]>, Vec<&[u32]>) = order
            .into_iter()
            .partition(|idx| shape.path(model, idx.len()) == NodePath::RowExchange);
        let mut exchanged = None;
        if !row_nodes.is_empty() {
            let (done, bytes) =
                exchange_rows(group, &shape, &row_nodes, full.grads.n, mf, streamed);
            tally_path(
                grown,
                devices,
                depth,
                NodePath::RowExchange,
                row_nodes.len(),
                bytes,
            );
            exchanged = done;
        }
        let hist_stream = if streamed { HIST_STREAM } else { 0 };
        for idx in scatters {
            for rank in 0..k {
                let (ctx, shard) = (level.ctx(rank, 0..mf), shard_range(idx.len(), k, rank));
                if !shard.is_empty() {
                    let charges = &mut level.on[rank].hist;
                    charges.plan(&ctx, &idx[shard]);
                    charges.flush(&ctx, hist_stream, depth, grown);
                }
            }
            let bytes = reduce_scatter_node(group, shape.hist_bytes(), streamed);
            tally_path(grown, devices, depth, NodePath::ReduceScatter, 1, bytes);
        }
        if let Some(done) = exchanged {
            for dev in devices {
                dev.wait_event(HIST_STREAM, done);
            }
        }
        row_nodes.iter().for_each(|idx| level.plan(idx));
        level.flush_builds(hist_stream, depth, grown);
        level
    }
}

/// One device's share of a level: its histogram builds and derives, its
/// split scans, its candidate and routing-bitmap payloads, and the rows
/// it routes (the owner's flags, or a data-parallel device's shard).
#[derive(Clone, Default)]
struct DeviceLevel {
    hist: HistCharges,
    split: LevelSplitCharges,
    candidates: usize,
    flags: usize,
    routed: usize,
    /// The routing flags it computed, kept only for an attached
    /// sanitizer.
    traced: Vec<Vec<bool>>,
}

/// One level's charges on each device of a [`Spread`], gathered by the
/// level loop and booked by [`LevelCharges::close`].
pub(crate) struct LevelCharges<'c> {
    spread: &'c Spread<'c>,
    full: &'c HistContext<'c>,
    ranges: &'c [Range<usize>],
    on: Vec<DeviceLevel>,
}

impl<'c> LevelCharges<'c> {
    /// `full` on rank `rank`, over the columns `cols`.
    fn ctx(&self, rank: usize, cols: Range<usize>) -> HistContext<'c> {
        HistContext {
            device: self.spread.devices[rank],
            features: &self.full.features[cols],
            ..*self.full
        }
    }

    /// Run `f` on every device with a non-empty range: its histogram
    /// charges and its context over that range.
    fn each_range(&mut self, mut f: impl FnMut(&mut HistCharges, &HistContext<'c>)) {
        for rank in 0..self.on.len() {
            let ctx = self.ctx(rank, self.ranges[rank].clone());
            if !ctx.features.is_empty() {
                f(&mut self.on[rank].hist, &ctx);
            }
        }
    }

    /// Each device plans the build of its range of the node of
    /// instances `idx` over all of them.
    fn plan(&mut self, idx: &[u32]) {
        if !idx.is_empty() {
            self.each_range(|charges, ctx| charges.plan(ctx, idx));
        }
    }

    /// Each device derives its range of a subtraction pair's larger
    /// child.
    pub(crate) fn derive(&mut self) {
        self.each_range(|charges, ctx| charges.derive(ctx));
    }

    /// Each device charges what it planned and derived on `stream`, with
    /// the context it planned them with.
    fn flush_builds(&mut self, stream: usize, depth: usize, grown: &mut GrowResult) {
        self.each_range(|charges, ctx| charges.flush(ctx, stream, depth, grown));
    }

    /// The best split of `open` from its histogram: each device scans
    /// its own range, and the strictly greater gain wins, so exact ties
    /// resolve to the lowest range — the single-device argmax rule.
    pub(crate) fn best_split(
        &mut self,
        hist: &NodeHistogram,
        open: &OpenNode,
        params: &SplitParams,
        constraints: Option<&ConstraintState<'_>>,
    ) -> Option<SplitCandidate> {
        let mut best: Option<SplitCandidate> = None;
        for (on, cols) in self.on.iter_mut().zip(self.ranges) {
            let local = find_best_split_constrained(
                &mut on.split,
                hist,
                self.full.features,
                cols.clone(),
                &open.g,
                &open.h,
                open.instances.len() as u32,
                params,
                constraints,
            );
            on.candidates += 16 + local.as_ref().map_or(0, |c| c.left_g.len() * 16);
            if let Some(c) = local.filter(|c| best.as_ref().is_none_or(|b| c.gain > b.gain)) {
                best = Some(c);
            }
        }
        best
    }

    /// Tally the routing of a node split on `feature` by its rows'
    /// `flags`, on the device that computes them: the feature's owner,
    /// whose bitmap the level all-gathers, or the lead of a
    /// data-parallel group, where every device routes its own shard.
    /// The flags are kept for that device's sanitizer, if any.
    pub(crate) fn route(&mut self, feature: u32, flags: Vec<bool>) {
        let (k, rows) = (self.on.len(), flags.len());
        let at = if self.spread.data_parallel {
            for (rank, on) in self.on.iter_mut().enumerate() {
                on.routed += shard_range(rows, k, rank).len();
            }
            0
        } else {
            let f_local = self.full.features.partition_point(|&x| x < feature);
            let owner = (0..k)
                .find(|&rank| self.ranges[rank].contains(&f_local))
                .expect("split feature must belong to a device");
            self.on[owner].routed += rows;
            self.on[owner].flags += rows.div_ceil(8);
            owner
        };
        if self.spread.devices[at].sanitizer().is_some() {
            self.on[at].traced.push(flags);
        }
    }

    /// Book the level on every device: the planned builds and derives,
    /// the split scans and, on a group, the candidate exchange, then the
    /// partition. A data-parallel device derives its slice once the
    /// level's builds and node collectives have landed. Returns, in
    /// streamed mode, when the next level's builds may start: the
    /// alignment fence, or the first chunk of a feature-parallel level's
    /// bitmap exchange, whose tail they overlap.
    pub(crate) fn close(
        mut self,
        depth: usize,
        grown: &mut GrowResult,
        params: &SplitParams,
    ) -> Option<Event> {
        let spread = self.spread;
        let (data_parallel, streamed) = (spread.data_parallel, spread.streamed);
        if !data_parallel {
            self.flush_builds(if streamed { HIST_STREAM } else { 0 }, depth, grown);
        }
        if let Some(group) = spread.group.filter(|_| streamed) {
            // A data-parallel device reads its slice of the reduced
            // histograms once the group's last build and last
            // reduce-scatter have landed; a feature-parallel device
            // evaluates as soon as its own builds are done, and the
            // cross-device join is the level's candidate all-gather.
            let devices = group.devices();
            let landed = data_parallel.then(|| {
                stream_fence(devices, HIST_STREAM).max(stream_fence(devices, COMM_STREAM))
            });
            for (dev, cols) in devices.iter().zip(self.ranges) {
                match landed {
                    Some(landed) => dev.wait_event(0, landed),
                    None if !cols.is_empty() => dev.wait_event(0, dev.record_event(HIST_STREAM)),
                    None => {}
                }
            }
        }
        if data_parallel {
            self.flush_builds(0, depth, grown);
        }
        let devices = &spread.devices;
        for (dev, on) in devices.iter().zip(&mut self.on) {
            on.split
                .flush(dev, dev.model().params.sm_count, params.segments_c);
        }
        let largest = |part: fn(&DeviceLevel) -> usize| self.on.iter().map(part).max().unwrap_or(0);
        // Candidates are tiny summary statistics: winners wait the full
        // exchange.
        let candidates = largest(|on| on.candidates);
        if let Some(group) = spread.group.filter(|_| candidates > 0) {
            if let Some((done, _)) = all_gather_level(group, candidates, streamed) {
                devices.iter().for_each(|dev| dev.wait_event(0, done));
            }
        }
        // Each device replays the partitions whose flags it computed and
        // charges its level's partition: a data-parallel device over its
        // own shards; otherwise every device over its (replicated) index
        // lists, after a group's owners computed their flags.
        let total: usize = self.on.iter().map(|on| on.routed).sum();
        for (dev, on) in devices.iter().zip(&self.on) {
            for flags in &on.traced {
                crate::sanitize::trace_partition(dev, flags);
            }
            let rows = on.routed;
            if data_parallel {
                if rows > 0 {
                    dev.charge_kernel("partition_shard", Phase::Partition, &partition_cost(rows));
                }
                continue;
            }
            if rows > 0 && spread.group.is_some() {
                let flags = KernelCost::streaming(rows as f64, (rows * 5) as f64);
                dev.charge_kernel("compute_flags_level", Phase::Partition, &flags);
            }
            if total > 0 {
                dev.charge_kernel("partition_level", Phase::Partition, &partition_cost(total));
            }
        }
        let group = spread.group?;
        let devices = group.devices();
        let flags = largest(|on| on.flags);
        let comm_partial = (flags > 0)
            .then(|| all_gather_level(group, flags, streamed))
            .flatten()
            .map(|(done, ns)| first_chunk(done, ns));
        if streamed {
            let align = align_stream0(devices);
            Some(comm_partial.map_or(align, |p| align.max(p)))
        } else {
            group.barrier();
            None
        }
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
    /// Partition instances. Per built node, each device either
    /// histograms its shard over *all* features that can split and a
    /// ring reduce-scatter sums the partial histograms ("partial
    /// histograms are then aggregated via CUDA-aware collective
    /// operations"), leaving it the slice of its feature range to
    /// evaluate; or, when that is cheaper, the devices exchange the
    /// node's rows and each builds its range over all of them
    /// ([`NodePath`]). Gradient work divides by the device count, but
    /// every built node's data crosses the link: the full multi-output
    /// histogram of a large node, the gradient rows of a small one —
    /// the communication blow-up that motivates the feature-parallel
    /// choice for large `d`.
    DataParallel,
}

/// The multi-GPU name of the one trainer: a [`GpuTrainer`] over a
/// [`DeviceGroup`] of any size.
pub type MultiGpuTrainer = GpuTrainer;

/// The placement of every fit: the devices still active, lead first,
/// and how they divide the work. [`GpuTrainer`] runs it over its group.
pub(crate) struct Group<'a> {
    active: Vec<Arc<Device>>,
    /// The fleet started as one device: it joins nothing, and losing
    /// that device ends the fit.
    solo: bool,
    strategy: MultiGpuStrategy,
    config: &'a TrainConfig,
}

impl<'a> Group<'a> {
    /// A group over `devices`, lead first, dividing the work by
    /// `strategy`.
    pub(crate) fn new(
        devices: Vec<Arc<Device>>,
        strategy: MultiGpuStrategy,
        config: &'a TrainConfig,
    ) -> Self {
        Group {
            solo: devices.len() == 1,
            active: devices,
            strategy,
            config,
        }
    }

    /// The active devices, lead first.
    pub(crate) fn devices(&self) -> &[Arc<Device>] {
        &self.active
    }

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

    /// Every device uploads and bins its share of the `n × m` feature
    /// matrix: its feature range over all rows (feature-parallel) or all
    /// columns of its instance shard (data-parallel). Re-issued after a
    /// retry or a degradation, when the shares shift and survivors
    /// reload and rebin.
    ///
    /// With `streams > 1` a device copies on a copy stream (engine work,
    /// no SM contention) and bins one chunk behind it: the binning
    /// kernel starts once the first of 8 copy chunks has landed, instead
    /// of after the full transfer. Charge order is that of the serial
    /// schedule, on stream 0; only start timestamps move.
    pub(crate) fn ingest(&self, n: usize, m: usize) {
        let k = self.active.len();
        let ranges = partition_features(m, k);
        for (rank, dev) in self.active.iter().enumerate() {
            let (rows, cols) = match self.strategy {
                MultiGpuStrategy::FeatureParallel => (n, ranges[rank].1 - ranges[rank].0),
                MultiGpuStrategy::DataParallel => (shard_range(n, k, rank).len(), m),
            };
            let _prep_scope = dev.prof_scope("preprocess", None);
            let bytes = (rows * cols * 4) as f64;
            let copy_ns = dev.model().host_copy_ns(bytes);
            let copy_done = if self.config.streams > 1 {
                let copy = dev.stream(1);
                copy.wait_event(dev.record_event(0));
                let copy_start = copy.record_event();
                copy.charge_ns("htod_features", Phase::Transfer, copy_ns);
                dev.wait_event(0, copy_start.offset_ns(copy_ns / 8.0));
                Some(copy.record_event())
            } else {
                dev.charge_ns("htod_features", Phase::Transfer, copy_ns);
                None
            };
            dev.charge_kernel(
                "quantile_binning",
                Phase::Binning,
                &KernelCost::streaming((rows * cols) as f64 * 16.0, bytes * 2.5),
            );
            crate::sanitize::trace_quantile_binning(dev, rows, cols, self.config.max_bins);
            if let Some(done) = copy_done {
                // Everything after ingest reads the device-resident
                // features: join the copy stream before the first
                // gradient kernel can issue.
                dev.wait_event(0, done);
            }
        }
    }

    /// Grow one tree on the shared level loop, spread over the active
    /// devices.
    pub(crate) fn grow(
        &self,
        binned: &BinnedDataset,
        grads: &Gradients,
        features: &[u32],
        root: Vec<u32>,
        pool: &mut HistogramPool,
    ) -> GrowResult {
        let group = self.group();
        let several = group.len() > 1;
        let spread = Spread {
            devices: self.active.iter().map(|dev| &**dev).collect(),
            group: several.then_some(&group),
            data_parallel: several && self.strategy == MultiGpuStrategy::DataParallel,
            streamed: several && self.config.streams > 1,
        };
        grow_levels(&spread, binned, grads, self.config, features, root, pool)
    }

    /// The lead computes the gradients over all `n` rows in both
    /// layouts; the replicas charge `grad_hess` over all rows when
    /// gradients are replicated, `grad_hess_shard` over their shard
    /// when instances are sharded. A sharded device sees only its rows'
    /// Hessians, so the group agrees on whether every row shares one
    /// Hessian row (the uniform-Hessian path) with a one-byte flag per
    /// rank, all-gathered before the round's root build.
    pub(crate) fn mirror_gradients(&self, n: usize, d: usize, flops_per_output: f64) {
        let kernel = match self.strategy {
            MultiGpuStrategy::FeatureParallel => "grad_hess",
            MultiGpuStrategy::DataParallel => "grad_hess_shard",
        };
        for (rank, dev) in self.replicas() {
            let rows = self.replica_rows(n, rank);
            dev.charge_kernel(
                kernel,
                Phase::Gradient,
                &crate::grad::grad_hess_cost(rows, d, flops_per_output),
            );
            crate::sanitize::trace_grad_hess(dev, rows, d);
        }
        let k = self.active.len();
        if self.strategy == MultiGpuStrategy::DataParallel && k > 1 {
            self.group().all_gather(1);
            tel_collective_bytes(&self.active, k as f64);
        }
    }

    /// The lead selects the sketch, the plan (selected column indices
    /// or the projection matrix) is broadcast, and every device applies
    /// it to its rows.
    pub(crate) fn sketch(&self, grads: &Gradients, seed: u64) -> Gradients {
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
    pub(crate) fn refit(&self, grown: &mut GrowResult, full: &Gradients) {
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
    pub(crate) fn mirror_update(&self, grown: &GrowResult, n: usize, d: usize) {
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
    pub(crate) fn poll(&mut self) -> Result<(), GpuFault> {
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

    /// The error that ends the fit after a device loss at `round`, or
    /// `None` when the survivors re-partition the work and carry on: a
    /// fleet of one fails with [`TrainError::DeviceLost`], a larger one
    /// with [`TrainError::AllDevicesLost`] once no device is left.
    pub(crate) fn fatal_loss(&self, round: usize, fault: GpuFault) -> Option<TrainError> {
        if self.solo {
            Some(TrainError::DeviceLost { round, fault })
        } else {
            self.active
                .is_empty()
                .then_some(TrainError::AllDevicesLost { round })
        }
    }

    /// Join the devices' clocks at the end of the fit; a fleet of one
    /// has nothing to join.
    pub(crate) fn join(&self) {
        if self.solo {
            return;
        }
        // Clock spread is only visible before the final barrier joins
        // every stream to the group makespan.
        tel_makespan_skew(&self.active);
        self.group().barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GossConfig, HistOptions, HistogramMethod, OutputSketch};
    use crate::loss::loss_for_task;
    use crate::metrics::accuracy;
    use crate::model::Model;
    use crate::trainer::TrainReport;
    use crate::tree::{Node, Tree};
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gbdt_data::Dataset;
    use gpusim::{Device, KernelRecord};
    use std::collections::{BTreeMap, BTreeSet};

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

    /// One config per knob a group of two or more rejects, named as the
    /// rejection names it.
    fn knobs_groups_reject() -> [(&'static str, TrainConfig); 5] {
        [
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
                "hist.sparse_aware",
                TrainConfig {
                    hist: HistOptions {
                        sparse_aware: true,
                        ..HistOptions::default()
                    },
                    ..quick_config()
                },
            ),
        ]
    }

    #[test]
    fn try_with_strategy_rejects_knobs_the_multi_gpu_loop_ignores() {
        let cases = knobs_groups_reject();
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
    fn a_one_device_group_accepts_every_knob() {
        // A group of one runs one device's path whatever the strategy,
        // so the knobs a larger group rejects fit there, bit for bit
        // and record for record as on one device.
        let ds = dataset(4);
        for (knob, cfg) in knobs_groups_reject() {
            let device = Device::rtx4090();
            device.enable_telemetry();
            let one = GpuTrainer::try_new(device.clone(), cfg.clone())
                .expect("one device takes every knob")
                .fit_report(&ds);
            let trainer = MultiGpuTrainer::try_with_strategy(
                DeviceGroup::rtx4090s(1),
                cfg,
                MultiGpuStrategy::DataParallel,
            )
            .unwrap_or_else(|e| panic!("a one-device group rejected {knob}: {e}"));
            trainer.device().enable_telemetry();
            let group = trainer.fit_report(&ds);
            assert_eq!(tree_bits(&group.model), tree_bits(&one.model), "{knob}");
            assert_eq!(
                group.sim_seconds.to_bits(),
                one.sim_seconds.to_bits(),
                "{knob}: sim_seconds"
            );
            assert_eq!(
                observed(trainer.device()),
                observed(&device),
                "{knob}: charge records and telemetry"
            );
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
    fn data_parallel_moves_node_data_feature_parallel_moves_summaries() {
        // The trade-off that justifies the paper's feature-parallel
        // choice: a data-parallel group moves every built node's data,
        // the `S/k` slice of its `m' × B × d` histogram or its rows,
        // whichever is cheaper; feature-parallel moves only summary
        // statistics. On this shape the model gives data-parallel about
        // 58 times feature-parallel's collective bytes (3.02 MB against
        // 52 KB).
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 24,
            classes: 12,
            informative: 16,
            seed: 8,
            ..Default::default()
        });
        let bytes = |strategy| {
            let group = DeviceGroup::rtx4090s(2);
            let tel = Arc::new(Telemetry::new());
            for dev in group.devices() {
                dev.attach_telemetry(tel.clone());
            }
            let _ = MultiGpuTrainer::with_strategy(group, quick_config(), strategy).fit(&ds);
            let counters = tel.snapshot().counters;
            counters["multigpu.collective_bytes"] as f64
        };
        let fp = bytes(MultiGpuStrategy::FeatureParallel);
        let dp = bytes(MultiGpuStrategy::DataParallel);
        assert!(
            dp > fp * 25.0,
            "data-parallel collective bytes {dp} should dwarf feature-parallel {fp}"
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

    /// The rows reaching each node of each level the grower visited,
    /// in frontier (node-index) order.
    fn level_rows(tree: &Tree, ds: &Dataset, max_depth: usize) -> Vec<Vec<usize>> {
        let mut rows = vec![0usize; tree.num_nodes()];
        for i in 0..ds.n() {
            let row = ds.features().row(i);
            let mut at = 0usize;
            loop {
                rows[at] += 1;
                match &tree.nodes()[at] {
                    Node::Leaf { .. } => break,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                        ..
                    } => {
                        let v = row[*feature as usize];
                        at = if v > *threshold { *right } else { *left } as usize;
                    }
                }
            }
        }
        let mut levels = Vec::new();
        let mut frontier = vec![0usize];
        for _ in 0..max_depth {
            levels.push(frontier.iter().map(|&n| rows[n]).collect());
            frontier = frontier
                .iter()
                .filter_map(|&n| match &tree.nodes()[n] {
                    Node::Split { left, right, .. } => Some([*left as usize, *right as usize]),
                    Node::Leaf { .. } => None,
                })
                .flatten()
                .collect();
            if frontier.is_empty() {
                break;
            }
        }
        levels
    }

    /// The splittable columns of `ds` binned at `bins`: what a group
    /// builds, exchanges and reduce-scatters.
    fn splittable(ds: &Dataset, bins: usize) -> usize {
        let all: Vec<u32> = (0..ds.m() as u32).collect();
        BinnedDataset::build(ds.features(), bins)
            .splittable(&all)
            .len()
    }

    #[test]
    fn data_parallel_levels_issue_builds_smallest_first_behind_gapless_collectives() {
        // Sort-and-reduce prices a build by its row count alone, so the
        // order of a level's reduce-scatter build durations is the
        // order of the shard rows they were issued for. A histogram
        // whose collective outlasts the small builds of deep levels,
        // over enough rows that nodes above the row-exchange crossover,
        // which alone reduce-scatter, are built at more than one depth.
        // A node that large builds for longer than its collective takes
        // on the preset's link, so the group's link runs at a tenth of
        // it.
        let ds = make_classification(&ClassificationSpec {
            instances: 40_000,
            features: 12,
            classes: 24,
            informative: 10,
            seed: 8,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 3,
            max_depth: 6,
            max_bins: 255,
            streams: 4,
            hist: HistOptions {
                method: crate::HistogramMethod::SortReduce,
                ..HistOptions::default()
            },
            ..quick_config()
        };
        let k = 2;
        let mut props = gpusim::DeviceProps::rtx4090();
        props.cost.p2p_bw /= 10.0;
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::homogeneous(k, props),
            cfg.clone(),
            MultiGpuStrategy::DataParallel,
        );
        let model = trainer.fit(&ds);
        let (mf, d) = (splittable(&ds, cfg.max_bins), ds.d());
        let cost = trainer.group().device(0).model().clone();
        // Each grown level with its tree and depth: a tree's rounds
        // price builds and paths from its own gradients (the uniform-
        // Hessian path on round 0).
        let levels: Vec<(usize, usize, Vec<usize>)> = model
            .trees
            .iter()
            .enumerate()
            .flat_map(|(tree, t)| {
                level_rows(t, &ds, cfg.max_depth)
                    .into_iter()
                    .enumerate()
                    .map(move |(depth, l)| (tree, depth, l))
            })
            .collect();
        // The level's built nodes that reduce-scatter, in frontier order.
        let scattered = |tree: usize, level: &[usize]| -> Vec<usize> {
            let shape = ExchangeShape::new(k, mf, cfg.max_bins, d, tree == 0);
            let rows = level.iter().copied();
            rows.filter(|&rows| rows >= 2 * cfg.min_instances)
                .filter(|&rows| shape.path(&cost, rows) == NodePath::ReduceScatter)
                .collect()
        };
        let depths: BTreeSet<usize> = levels
            .iter()
            .filter(|(tree, _, l)| !scattered(*tree, l).is_empty())
            .map(|(_, depth, _)| *depth)
            .collect();
        assert!(
            depths.len() > 1,
            "reduce-scatter nodes at one depth only: {depths:?}"
        );
        assert!(
            levels
                .iter()
                .any(|(tree, _, l)| !scattered(*tree, l).is_sorted()),
            "some level's frontier order must differ from its row order"
        );
        let (mut gapless, mut spans_checked) = (0usize, 0usize);
        for (rank, dev) in trainer.group().devices().iter().enumerate() {
            let spans = dev.scope_spans("level");
            assert_eq!(
                spans.len(),
                levels.len(),
                "device {rank}: one level scope per grown level"
            );
            // The device's (tree, shard rows) → build ns over the whole
            // fit: strictly increasing in the rows of each tree when every
            // level issued its builds in non-decreasing shard-row order.
            let mut price: BTreeMap<(usize, usize), f64> = BTreeMap::new();
            for ((tree, depth, level), span) in levels.iter().zip(&spans) {
                let built = level
                    .iter()
                    .filter(|&&r| r >= 2 * cfg.min_instances)
                    .count();
                let mut want = scattered(*tree, level);
                want.sort_unstable();
                let of = |name: &str| -> Vec<KernelRecord> {
                    span.records
                        .iter()
                        .filter(|r| r.name == name)
                        .copied()
                        .collect()
                };
                let (builds, collectives) = (of("hist_sort_reduce"), of("hist_reduce_scatter"));
                let at = format!("device {rank} tree {tree} depth {depth}");
                // One kernel per reduce-scatter node, then one for all
                // of the row-path nodes, which wait for the level's
                // exchange.
                let row_path = usize::from(built > want.len());
                assert_eq!(builds.len(), want.len() + row_path, "{at}: builds issued");
                assert_eq!(collectives.len(), want.len(), "{at}: collectives");
                let builds = &builds[..want.len()];
                for (b, rows) in builds.iter().zip(&want) {
                    let rows = shard_range(*rows, k, rank).len();
                    let ns = *price.entry((*tree, rows)).or_insert(b.ns);
                    assert_eq!(
                        ns.to_bits(),
                        b.ns.to_bits(),
                        "{at}: {rows} shard rows priced two ways: builds out of row order"
                    );
                }
                // Reduce-scatter j + 1 waits for build j + 1 on the lead,
                // the slowest rank. Sorted ascending, no prefix of the
                // builds after the first averages more than all of them,
                // so when their sum is within m - 1 reduce-scatters, each
                // lands before the comm stream runs dry.
                let waited_on: f64 = builds.iter().skip(1).map(|b| b.ns).sum();
                let draining: f64 = collectives.iter().skip(1).map(|c| c.ns).sum();
                if rank == 0 && collectives.len() > 1 && waited_on <= draining {
                    spans_checked += 1;
                    let contiguous = collectives
                        .windows(2)
                        .all(|w| w[1].start_ns == w[0].start_ns + w[0].ns);
                    gapless += usize::from(contiguous);
                }
            }
            let priced: Vec<_> = price.iter().collect();
            assert!(
                priced
                    .windows(2)
                    .all(|w| w[0].0 .0 != w[1].0 .0 || w[0].1 < w[1].1),
                "device {rank}: builds out of shard-row order: {price:?}"
            );
        }
        assert!(
            spans_checked > 0,
            "no level's reduce-scatters outweigh its builds"
        );
        assert_eq!(gapless, spans_checked, "a comm stream idled inside a level");
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
                        Node::Split {
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
                        Node::Leaf { value } => {
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

    /// Each data-parallel round all-gathers one uniform-Hessian flag
    /// per rank after its gradients and before its first histogram
    /// build; a feature-parallel device holds every row's gradients and
    /// exchanges nothing there.
    #[test]
    fn data_parallel_rounds_agree_on_the_uniform_hessian_path_first() {
        let ds = dataset(3);
        let cfg = quick_config();
        for (strategy, flags_per_round) in [
            (MultiGpuStrategy::DataParallel, 1),
            (MultiGpuStrategy::FeatureParallel, 0),
        ] {
            let trainer =
                MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg.clone(), strategy);
            let _ = trainer.fit(&ds);
            for dev in trainer.group().devices() {
                let flag_ns = dev.model().all_gather_ns(1.0, 2);
                // Per round: the flag gathers between its gradient
                // kernel and its first histogram build.
                let mut rounds: Vec<usize> = Vec::new();
                let mut before_build = false;
                for r in dev.records() {
                    if r.name.starts_with("grad_hess") {
                        rounds.push(0);
                        before_build = true;
                    } else if r.name.starts_with("hist_") {
                        before_build = false;
                    } else if before_build && r.name == "all_gather" {
                        assert_eq!(r.ns, flag_ns, "{strategy:?}: a one-byte gather");
                        *rounds.last_mut().unwrap() += 1;
                    }
                }
                assert_eq!(rounds, vec![flags_per_round; cfg.num_trees], "{strategy:?}");
            }
        }
    }

    /// A data-parallel node's reduce-scatter moves its `f64` gradient
    /// and Hessian columns and, off the uniform-Hessian path, its `u32`
    /// counts: `m' × B × (2d × 8 + 4)` bytes. On the uniform path (a
    /// softmax fit's round 0) the count column is the `f64` Hessian
    /// column: `m' × B × (d + 1) × 8`. Six times `dataset`'s rows, so
    /// that nodes above the row-exchange crossover, which alone
    /// reduce-scatter, grow on both paths.
    #[test]
    fn data_parallel_reduce_scatters_carry_the_count_column() {
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 16,
            classes: 4,
            informative: 10,
            class_sep: 2.0,
            seed: 4,
            ..Default::default()
        });
        let cfg = quick_config();
        let mf = splittable(&ds, cfg.max_bins);
        let (slots, d) = ((mf * cfg.max_bins) as f64, ds.d() as f64);
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg,
            MultiGpuStrategy::DataParallel,
        );
        let _ = trainer.fit(&ds);
        let model = trainer.group().device(0).model();
        let uniform = model.ring_reduce_scatter_ns(slots * (d + 1.0) * 8.0, 2);
        let general = model.ring_reduce_scatter_ns(slots * (2.0 * d * 8.0 + 4.0), 2);
        let mut seen = BTreeMap::new();
        for r in trainer.group().device(0).records() {
            if r.name == "hist_reduce_scatter" {
                *seen.entry(r.ns.to_bits()).or_insert(0usize) += 1;
            }
        }
        assert_eq!(
            seen.keys().copied().collect::<Vec<_>>(),
            {
                let mut want = vec![uniform.to_bits(), general.to_bits()];
                want.sort_unstable();
                want
            },
            "payloads priced at neither formula"
        );
    }

    /// One level's collectives as a data-parallel device charged them.
    struct LevelComm {
        tree: usize,
        depth: usize,
        /// Built nodes' rows, in frontier order.
        built: Vec<usize>,
        /// `hist_reduce_scatter` durations, in issue order.
        scatters: Vec<f64>,
        /// `node_row_exchange` durations.
        exchanges: Vec<f64>,
    }

    /// Fit `ds` data-parallel on `k` devices and return, for every
    /// grown level, its built nodes and the lead's collectives.
    fn level_comm(ds: &Dataset, cfg: &TrainConfig, k: usize) -> (Vec<LevelComm>, TrainReport) {
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(k),
            cfg.clone(),
            MultiGpuStrategy::DataParallel,
        );
        let report = trainer.fit_report(ds);
        let spans = trainer.group().device(0).scope_spans("level");
        let levels: Vec<(usize, usize, Vec<usize>)> = report
            .model
            .trees
            .iter()
            .enumerate()
            .flat_map(|(tree, t)| {
                level_rows(t, ds, cfg.max_depth)
                    .into_iter()
                    .enumerate()
                    .map(move |(depth, l)| (tree, depth, l))
            })
            .collect();
        assert_eq!(spans.len(), levels.len(), "one level scope per grown level");
        let out = levels
            .into_iter()
            .zip(&spans)
            .map(|((tree, depth, rows), span)| {
                let ns = |name: &str| -> Vec<f64> {
                    span.records
                        .iter()
                        .filter(|r| r.name == name)
                        .map(|r| r.ns)
                        .collect()
                };
                LevelComm {
                    tree,
                    depth,
                    built: rows
                        .into_iter()
                        .filter(|&r| r >= 2 * cfg.min_instances)
                        .collect(),
                    scatters: ns("hist_reduce_scatter"),
                    exchanges: ns("node_row_exchange"),
                }
            })
            .collect();
        (out, report)
    }

    /// A node's two prices from the cost model's collectives, written
    /// out here rather than read from [`ExchangeShape`]: the ring
    /// reduce-scatter of its histogram, and the bytes of its largest
    /// shard's rows, each carrying its `f32` gradient columns and a bin
    /// byte per feature of the widest range.
    fn node_prices(
        model: &CostModel,
        k: usize,
        (mf, bins, d): (usize, usize, usize),
        uniform: bool,
        rows: usize,
    ) -> (f64, f64) {
        let (hist, grad) = if uniform {
            (mf * bins * (d + 1) * 8, d * 4)
        } else {
            (mf * bins * (2 * d * 8 + 4), 2 * d * 4)
        };
        let payload = rows.div_ceil(k) * (grad + mf.div_ceil(k));
        (model.ring_reduce_scatter_ns(hist as f64, k), payload as f64)
    }

    /// Check that every built node of every level of a softmax fit
    /// (uniform Hessians on round 0 only) paid the cheaper of its two
    /// prices: reduce-scatter nodes one `hist_reduce_scatter` each at
    /// their price, row-path nodes one batched `node_row_exchange` of
    /// their summed payloads. Returns how many levels exchanged rows
    /// on each gradient path: `[general, uniform]`.
    fn assert_cheaper_paths(ds: &Dataset, cfg: &TrainConfig, k: usize) -> [usize; 2] {
        let (levels, report) = level_comm(ds, cfg, k);
        let model = DeviceGroup::rtx4090s(1).device(0).model().clone();
        let shape = (splittable(ds, cfg.max_bins), cfg.max_bins, ds.d());
        let mut exchanged = [0usize; 2];
        let (mut scattered, mut rowed) = (0usize, 0usize);
        for level in &levels {
            let at = format!("k={k} tree {} depth {}", level.tree, level.depth);
            let uniform = level.tree == 0;
            let (mut scatters, mut payload, mut rows) = (Vec::new(), 0.0, 0usize);
            for &n in &level.built {
                let (rs, bytes) = node_prices(&model, k, shape, uniform, n);
                let ex = model.all_gather_ns(bytes, k);
                if ex < rs {
                    payload += bytes;
                    rows += 1;
                } else {
                    scatters.push(rs.to_bits());
                }
            }
            let charged: Vec<u64> = level.scatters.iter().map(|ns| ns.to_bits()).collect();
            assert_eq!(charged, scatters, "{at}: reduce-scatters");
            let want: Vec<u64> = (rows > 0)
                .then(|| model.all_gather_ns(payload, k).to_bits())
                .into_iter()
                .collect();
            let charged: Vec<u64> = level.exchanges.iter().map(|ns| ns.to_bits()).collect();
            assert_eq!(charged, want, "{at}: the level's row exchange");
            exchanged[usize::from(uniform)] += usize::from(rows > 0);
            scattered += scatters.len();
            rowed += rows;
        }
        let path = |p| {
            report
                .node_paths
                .iter()
                .filter(|((_, q), _)| *q == p)
                .map(|(_, t)| t.nodes)
                .sum::<usize>()
        };
        assert_eq!(path(NodePath::ReduceScatter), scattered, "k={k}: tallied");
        assert_eq!(path(NodePath::RowExchange), rowed, "k={k}: tallied");
        exchanged
    }

    #[test]
    fn data_parallel_nodes_pay_the_cheaper_of_reduce_scatter_and_row_exchange() {
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 16,
            classes: 4,
            informative: 10,
            class_sep: 2.0,
            seed: 4,
            ..Default::default()
        });
        for streams in [1, 4] {
            let cfg = TrainConfig {
                streams,
                ..quick_config()
            };
            let [general, uniform] = assert_cheaper_paths(&ds, &cfg, 2);
            assert!(
                general > 0 && uniform > 0,
                "streams={streams}: no rows exchanged"
            );
        }
    }

    /// The first round of a softmax fit shares one Hessian row, which
    /// every rank already holds: its exchange carries `g` alone, `d × 4`
    /// bytes a row, where later rounds carry `g` and `h`.
    #[test]
    fn data_parallel_uniform_hessian_rounds_exchange_gradients_only() {
        let ds = dataset(4);
        let cfg = quick_config();
        let [_, uniform] = assert_cheaper_paths(&ds, &cfg, 2);
        assert!(uniform > 0, "round 0 exchanged no rows");
        // The two row sizes price apart, so the check above tells them
        // apart.
        let model = DeviceGroup::rtx4090s(1).device(0).model().clone();
        let shape = (splittable(&ds, cfg.max_bins), cfg.max_bins, ds.d());
        let (_, g_only) = node_prices(&model, 2, shape, true, 100);
        let (_, g_and_h) = node_prices(&model, 2, shape, false, 100);
        assert!(g_only < g_and_h);
    }

    /// At three devices a node's rows and the splittable columns rarely
    /// divide evenly: the payload takes the largest shard's rows and
    /// the widest feature range.
    #[test]
    fn data_parallel_exchange_payload_takes_the_largest_shard_and_widest_range() {
        let ds = make_classification(&ClassificationSpec {
            instances: 1001,
            features: 17,
            classes: 4,
            informative: 10,
            class_sep: 2.0,
            seed: 4,
            ..Default::default()
        });
        let cfg = quick_config();
        let mf = splittable(&ds, cfg.max_bins);
        assert_ne!(mf % 3, 0, "{mf} splittable columns divide evenly");
        let [general, uniform] = assert_cheaper_paths(&ds, &cfg, 3);
        assert!(general + uniform > 0, "no rows exchanged");
    }

    #[test]
    fn a_train_dp2_shaped_root_reduce_scatters_and_small_nodes_exchange_rows() {
        // train-dp2's shape, scaled down: wide histograms (many columns
        // and outputs) and nodes that shrink level by level.
        let ds = make_classification(&ClassificationSpec {
            instances: 6000,
            features: 32,
            classes: 16,
            informative: 20,
            class_sep: 2.0,
            seed: 7,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 3,
            max_bins: 64,
            streams: 4,
            ..quick_config()
        };
        let group = DeviceGroup::rtx4090s(2);
        let tel = Arc::new(Telemetry::new());
        for dev in group.devices() {
            dev.attach_telemetry(tel.clone());
        }
        let report =
            MultiGpuTrainer::with_strategy(group, cfg.clone(), MultiGpuStrategy::DataParallel)
                .fit_report(&ds);
        let at = |depth, path| report.node_paths.get(&(depth, path)).map_or(0, |t| t.nodes);
        assert_eq!(at(0, NodePath::ReduceScatter), cfg.num_trees, "roots");
        assert_eq!(at(0, NodePath::RowExchange), 0, "roots");
        let deepest = cfg.max_depth - 1;
        assert!(at(deepest, NodePath::RowExchange) > 0, "deepest level");
        assert_eq!(at(deepest, NodePath::ReduceScatter), 0, "deepest level");
        let counters = tel.snapshot().counters;
        for (name, path) in [
            ("multigpu.nodes_reduce_scatter", NodePath::ReduceScatter),
            ("multigpu.nodes_row_exchange", NodePath::RowExchange),
        ] {
            let tallied: usize = (0..cfg.max_depth).map(|depth| at(depth, path)).sum();
            assert_eq!(counters[name], tallied as u64, "{name}");
        }
    }

    #[test]
    fn row_path_builds_wait_for_the_exchange_and_reduce_scatter_builds_do_not() {
        // On every device of a streamed fit, a level that mixes both
        // paths packs its rows, builds its reduce-scatter nodes back to
        // back behind the pack while the exchange drains first on the
        // comm stream, and builds its row-path nodes once the exchange
        // has landed (Jackson's order).
        let ds = make_classification(&ClassificationSpec {
            instances: 6000,
            features: 24,
            classes: 8,
            informative: 16,
            class_sep: 2.0,
            seed: 11,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 3,
            streams: 4,
            ..quick_config()
        };
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg,
            MultiGpuStrategy::DataParallel,
        );
        let _ = trainer.fit(&ds);
        let mut mixed = 0usize;
        for dev in trainer.group().devices() {
            for (level, span) in dev.scope_spans("level").iter().enumerate() {
                let of = |name: &str| -> Vec<KernelRecord> {
                    span.records
                        .iter()
                        .filter(|r| r.name == name)
                        .copied()
                        .collect()
                };
                let (pack, exchange) = (of("pack_node_rows"), of("node_row_exchange"));
                let scatters = of("hist_reduce_scatter");
                let builds: Vec<KernelRecord> = span
                    .records
                    .iter()
                    .filter(|r| r.phase == Phase::Histogram && r.name != "pack_node_rows")
                    .copied()
                    .collect();
                let (Some(pack), Some(exchange)) = (pack.first(), exchange.first()) else {
                    continue;
                };
                if scatters.is_empty() {
                    continue;
                }
                mixed += 1;
                let at = format!("device {} level {level}", dev.id);
                let landed = exchange.start_ns + exchange.ns;
                for r in &scatters {
                    assert!(
                        r.start_ns >= landed,
                        "{at}: a reduce-scatter ran ahead of the exchange"
                    );
                }
                let (first, rest) = builds.split_at(scatters.len());
                let mut end = pack.start_ns + pack.ns;
                for b in first {
                    assert_eq!(b.start_ns, end, "{at}: a reduce-scatter build waited");
                    end = b.start_ns + b.ns;
                }
                assert!(
                    first[0].start_ns < landed,
                    "{at}: the exchange drains first"
                );
                for b in rest {
                    assert!(b.start_ns >= landed, "{at}: a row-path build started early");
                }
            }
        }
        assert!(mixed > 0, "no level mixed both paths");
    }

    /// Charge records, bit for bit: name, phase, stream, start and
    /// duration.
    type RecordBits = Vec<(&'static str, Phase, usize, u64, u64)>;

    /// What a fit left on `device`: every charge record, and the
    /// counters and gauge bits of its registry.
    fn observed(device: &Device) -> (RecordBits, BTreeMap<String, u64>, BTreeMap<String, u64>) {
        let records = device.records();
        let snap = device.telemetry().expect("registry attached").snapshot();
        let records = records
            .iter()
            .map(|r| {
                (
                    r.name,
                    r.phase,
                    r.stream,
                    r.start_ns.to_bits(),
                    r.ns.to_bits(),
                )
            })
            .collect();
        let gauges = snap.gauges.into_iter().map(|(k, v)| (k, v.to_bits()));
        (records, snap.counters, gauges.collect())
    }

    #[test]
    fn a_one_device_group_charges_what_one_device_charges() {
        // A group of one is one device: it ingests on a copy stream when
        // `streams > 1`, grows on the level loop of one device (one
        // kernel per (level, method) of builds, one split scan and one
        // `partition_level` per level, all on the default stream) and
        // joins nothing. Both strategies are then one device, bit for
        // bit, down to every charge record and telemetry metric.
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 16,
            classes: 6,
            informative: 10,
            seed: 3,
            ..Default::default()
        });
        for method in [
            HistogramMethod::GlobalMemory,
            HistogramMethod::SharedMemory,
            HistogramMethod::SortReduce,
            HistogramMethod::Adaptive,
        ] {
            for streams in [1, 4] {
                let cfg = TrainConfig {
                    num_trees: 3,
                    max_depth: 5,
                    streams,
                    hist: HistOptions {
                        method,
                        ..HistOptions::default()
                    },
                    ..quick_config()
                };
                let device = Device::rtx4090();
                device.enable_telemetry();
                let one = GpuTrainer::new(device.clone(), cfg.clone()).fit_report(&ds);
                let phases = |r: &TrainReport| -> BTreeMap<Phase, u64> {
                    r.sim
                        .by_phase
                        .iter()
                        .map(|(&p, ns)| (p, ns.to_bits()))
                        .collect()
                };
                for strategy in [
                    MultiGpuStrategy::DataParallel,
                    MultiGpuStrategy::FeatureParallel,
                ] {
                    let trainer = MultiGpuTrainer::with_strategy(
                        DeviceGroup::rtx4090s(1),
                        cfg.clone(),
                        strategy,
                    );
                    trainer.group().device(0).enable_telemetry();
                    let group = trainer.fit_report(&ds);
                    let at = format!("{method:?} {strategy:?}(1) streams {streams}");
                    assert_eq!(tree_bits(&group.model), tree_bits(&one.model), "{at}");
                    assert_eq!(
                        group.sim_seconds.to_bits(),
                        one.sim_seconds.to_bits(),
                        "{at}: sim_seconds"
                    );
                    assert_eq!(phases(&group), phases(&one), "{at}: by_phase");
                    assert_eq!(
                        observed(trainer.group().device(0)),
                        observed(&device),
                        "{at}: charge records and telemetry"
                    );
                }
            }
        }
    }

    #[test]
    fn devices_without_a_splittable_column_build_and_scan_nothing() {
        // Eight feature-parallel devices over three features: devices
        // 3-7 own no column, so they book no histogram kernel and no
        // split scan, and the group grows one device's trees.
        let ds = make_classification(&ClassificationSpec {
            instances: 200,
            features: 3,
            classes: 2,
            informative: 3,
            seed: 5,
            ..Default::default()
        });
        let trainer = MultiGpuTrainer::new(DeviceGroup::rtx4090s(8), quick_config());
        let model = trainer.fit(&ds);
        let one = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        assert_eq!(tree_bits(&model), tree_bits(&one));
        for dev in trainer.group().devices() {
            let records = dev.records();
            let count = |phase: Phase| records.iter().filter(|r| r.phase == phase).count();
            let (hist, scans) = (count(Phase::Histogram), count(Phase::SplitEval));
            if dev.id < 3 {
                assert!(hist > 0 && scans > 0, "device {} scans its column", dev.id);
            } else {
                assert_eq!((hist, scans), (0, 0), "device {} owns no column", dev.id);
            }
        }
    }

    #[test]
    fn single_devices_and_feature_parallel_groups_exchange_nothing() {
        // The paths are a data-parallel group's: one device or a
        // feature-parallel group moves no node data.
        let ds = dataset(4);
        for (strategy, k) in [
            (MultiGpuStrategy::DataParallel, 1),
            (MultiGpuStrategy::FeatureParallel, 1),
            (MultiGpuStrategy::FeatureParallel, 3),
        ] {
            let trainer =
                MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(k), quick_config(), strategy);
            let report = trainer.fit_report(&ds);
            assert!(report.node_paths.is_empty(), "{strategy:?}({k})");
            for dev in trainer.group().devices() {
                let moved = dev.records().iter().any(|r| {
                    ["pack_node_rows", "node_row_exchange", "hist_reduce_scatter"].contains(&r.name)
                });
                assert!(
                    !moved,
                    "{strategy:?}({k}): device {} moved node data",
                    dev.id
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
