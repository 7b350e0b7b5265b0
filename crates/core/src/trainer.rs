//! The boosting loop (paper Fig. 2): gradients → histograms → split
//! selection → partition → score update, per tree, fully device-charged.
//!
//! `boost` is the only boosting loop. It is generic over a crate-private
//! `Placement`, which says where the work runs: `Single` is one device
//! ([`GpuTrainer`]), and the group placement in [`crate::multigpu`]
//! spreads a round over a [`gpusim::DeviceGroup`] (paper §3.4.2). The
//! loop owns what does not depend on the layout: sampling, the
//! sketch-grow-refit order, the score update, early stopping,
//! checkpoints and telemetry. After each step, one recovery routine
//! (`recover`) commits it, retries it, re-runs it on the surviving
//! devices or fails the fit.

use crate::checkpoint::Checkpoint;
use crate::config::{ConfigError, HistogramMethod, TrainConfig};
use crate::error::TrainError;
use crate::grad::{compute_gradients, update_scores_from_leaves, Gradients};
use crate::grow::{grow_tree_pooled, GrowResult};
use crate::loss::{loss_for_task, MultiOutputLoss};
use crate::memory::HistogramPool;
use crate::model::Model;
use gbdt_data::{BinnedDataset, Dataset, Task};
use gpusim::cost::KernelCost;
use gpusim::{Device, GpuFault, LedgerSummary, Phase, Telemetry};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Everything a training run reports, beyond the model itself.
#[derive(Debug)]
pub struct TrainReport {
    /// The trained model.
    pub model: Model,
    /// Simulated device time spent by this fit (delta over the run),
    /// with per-phase breakdown — regenerates the paper's Fig. 4.
    pub sim: LedgerSummary,
    /// Simulated seconds (convenience: `sim.total_ns × 1e-9`).
    pub sim_seconds: f64,
    /// Host wall-clock seconds the simulation itself took.
    pub host_seconds: f64,
    /// Histogram-method usage counts across all nodes (adaptive
    /// selection telemetry).
    pub hist_methods: BTreeMap<HistogramMethod, usize>,
}

impl TrainReport {
    /// Fraction of simulated time spent building histograms — the
    /// quantity annotated in red in the paper's Fig. 4.
    pub fn histogram_fraction(&self) -> f64 {
        self.sim.fraction(Phase::Histogram)
    }
}

/// Validation curve produced by `boost` when an eval split is
/// supplied: per-round metric history plus the best iteration.
type ValidationCurve = (Vec<f64>, usize);

/// Where the boosting loop's work runs. The lead device, `devices()[0]`,
/// runs every functional kernel; a placement adds what its other
/// devices charge and grows each tree across them. The defaults are
/// the single device's: no replicas to charge, no clocks to join.
pub(crate) trait Placement {
    /// The active devices, lead first.
    fn devices(&self) -> &[Arc<Device>];

    /// Charge uploading and binning the `n × m` feature matrix; re-run
    /// after a retry or a degradation.
    fn ingest(&self, n: usize, m: usize);

    /// Grow one tree on `grads` over `features`, rooted at `root`.
    fn grow(
        &self,
        binned: &BinnedDataset,
        grads: &Gradients,
        features: &[u32],
        root: Vec<u32>,
        pool: &mut HistogramPool,
    ) -> GrowResult;

    /// Charge the replicas' share of the lead's gradient pass.
    fn mirror_gradients(&self, _n: usize, _d: usize, _flops_per_output: f64) {}

    /// Sketch the round's gradients to the structure-search width.
    fn sketch(&self, grads: &Gradients, seed: u64) -> Gradients;

    /// Refit a sketch-grown tree's leaves on the full gradients.
    fn refit(&self, grown: &mut GrowResult, full: &Gradients);

    /// Charge the replicas' share of the lead's score update.
    fn mirror_update(&self, _grown: &GrowResult, _n: usize, _d: usize) {}

    /// Poll every device after a step. A lost device dominates a
    /// transient fault, and the placement stops using it.
    fn poll(&mut self) -> Result<(), GpuFault>;

    /// The error that ends the fit after a device loss at `round`, or
    /// `None` when the survivors carry on.
    fn fatal_loss(&self, round: usize, fault: GpuFault) -> Option<TrainError>;

    /// Join the devices' clocks at the end of the fit.
    fn join(&self) {}
}

/// One device: ingest on a copy stream when `streams > 1`, trees from
/// [`grow_tree_pooled`], and a lost device ends the fit.
struct Single<'a> {
    device: &'a Arc<Device>,
    config: &'a TrainConfig,
}

impl Placement for Single<'_> {
    fn devices(&self) -> &[Arc<Device>] {
        std::slice::from_ref(self.device)
    }

    fn ingest(&self, n: usize, m: usize) {
        let device = &**self.device;
        let _prep_scope = device.prof_scope("preprocess", None);
        let raw_bytes = (n * m * 4) as f64;
        let copy_ns = device.model().host_copy_ns(raw_bytes);
        let copy_done = if self.config.streams > 1 {
            // Ingest runs on a copy stream (engine work, no SM
            // contention) and quantize pipelines one chunk behind it:
            // the binning kernel starts once the first of 8 copy chunks
            // has landed, instead of after the full transfer. Charge
            // order is identical to the serial schedule — only start
            // timestamps move.
            let copy = device.stream(1);
            copy.wait_event(device.record_event(0));
            let copy_start = copy.record_event();
            copy.charge_ns("htod_features", Phase::Transfer, copy_ns);
            device.wait_event(0, copy_start.offset_ns(copy_ns / 8.0));
            Some(copy.record_event())
        } else {
            device.charge_ns("htod_features", Phase::Transfer, copy_ns);
            None
        };
        device.charge_kernel(
            "quantile_binning",
            Phase::Binning,
            &KernelCost::streaming((n * m) as f64 * 16.0, raw_bytes * 2.5),
        );
        crate::sanitize::trace_quantile_binning(device, n, m, self.config.max_bins);
        if let Some(done) = copy_done {
            // Everything after preprocessing reads the device-resident
            // features: join the copy stream before the first gradient
            // kernel can issue.
            device.wait_event(0, done);
        }
    }

    fn grow(
        &self,
        binned: &BinnedDataset,
        grads: &Gradients,
        features: &[u32],
        root: Vec<u32>,
        pool: &mut HistogramPool,
    ) -> GrowResult {
        grow_tree_pooled(
            self.device,
            binned,
            grads,
            self.config,
            features,
            root,
            pool,
        )
    }

    fn sketch(&self, grads: &Gradients, seed: u64) -> Gradients {
        crate::sketch::sketch_gradients_device(self.device, grads, self.config.sketch, seed)
    }

    fn refit(&self, grown: &mut GrowResult, full: &Gradients) {
        crate::sketch::refit_leaves_full_d(self.device, grown, full, self.config);
    }

    fn poll(&mut self) -> Result<(), GpuFault> {
        self.device.poll_fault()
    }

    fn fatal_loss(&self, round: usize, fault: GpuFault) -> Option<TrainError> {
        Some(TrainError::DeviceLost { round, fault })
    }
}

/// What the loop does with a step after [`recover`] polled it.
enum Step {
    /// Fault-free: keep its results.
    Commit,
    /// A transient fault within the retry budget: re-run it.
    Retry,
    /// Devices were dropped: re-ingest the survivors' shares, re-run it.
    Degraded,
}

/// The one fault-recovery routine. Polls `placement` after a step of
/// `round` (`usize::MAX` for ingest) and decides: commit, retry within
/// [`TrainConfig::with_retry`]'s budget, degrade to the survivors, or
/// fail with a typed [`TrainError`]. Counters and postmortems go to
/// `tel` after the decision is made.
fn recover(
    placement: &mut impl Placement,
    attempts: &mut u32,
    max_retries: u32,
    round: usize,
    tel: Option<&Telemetry>,
) -> Result<Step, TrainError> {
    let Err(fault) = placement.poll() else {
        return Ok(Step::Commit);
    };
    let count = |name: &str| {
        if let Some(t) = tel {
            t.counter_inc(name);
        }
    };
    count("train.faults_total");
    let err = if !fault.is_transient() {
        match placement.fatal_loss(round, fault) {
            None => return Ok(Step::Degraded),
            Some(err) => err,
        }
    } else if *attempts < max_retries {
        // The faulted attempt's charges stay on the ledger (the grid
        // ran and trapped) and the redo pays full price again.
        *attempts += 1;
        count("train.retries_total");
        return Ok(Step::Retry);
    } else {
        TrainError::RetriesExhausted {
            round,
            attempts: *attempts,
            fault,
        }
    };
    if let Some(t) = tel {
        t.record_postmortem(&err.to_string());
    }
    Err(err)
}

/// The boosting loop, for any [`Placement`]. `valid` enables early
/// stopping with the given patience, `custom_loss` replaces the task's
/// loss, `resume` restarts after a checkpoint's last tree, and
/// `checkpoints` collects one snapshot per committed round.
pub(crate) fn boost(
    placement: &mut impl Placement,
    config: &TrainConfig,
    ds: &Dataset,
    valid: Option<(&Dataset, usize)>,
    custom_loss: Option<&dyn MultiOutputLoss>,
    resume: Option<&Checkpoint>,
    mut checkpoints: Option<&mut Vec<Checkpoint>>,
) -> Result<(TrainReport, Option<ValidationCurve>), TrainError> {
    let starts: Vec<(Arc<Device>, LedgerSummary)> = placement
        .devices()
        .iter()
        .map(|dev| (Arc::clone(dev), dev.summary()))
        .collect();
    let host_start = Instant::now();
    let (n, d, m) = (ds.n(), ds.d(), ds.m());
    // With no injector attached every poll is `Ok` and no snapshot is
    // ever taken, so this path is bit-identical to a trainer without
    // fault handling (regression-tested in tests/chaos.rs).
    let faults_on = starts.iter().any(|(dev, _)| dev.fault_injector().is_some());
    let max_retries = config.retry.max_retries;
    // Pure observer (like the profiler): metric updates below are
    // host-side only, charge nothing, and never feed back — with `None`
    // every telemetry block is skipped entirely, so attached vs.
    // detached runs stay bit-identical (tests/telemetry.rs). A group
    // shares one registry, so the first device's is the fit's.
    let tel = starts.iter().find_map(|(dev, _)| dev.telemetry());
    let tel = tel.as_deref();

    // --- ingest: upload + quantile binning (charged), with recovery --
    let mut prep_attempts = 0u32;
    loop {
        placement.ingest(n, m);
        if !faults_on {
            break;
        }
        // Retry and degradation both re-run the ingest: the shares
        // are recomputed from the survivors.
        let step = recover(placement, &mut prep_attempts, max_retries, usize::MAX, tel)?;
        if let Step::Commit = step {
            break;
        }
    }
    let binned = BinnedDataset::build(ds.features(), config.max_bins);

    let base = base_scores(ds);
    let mut scores = base.repeat(n);
    let default_loss = loss_for_task(ds.task());
    let loss = custom_loss.unwrap_or(default_loss.as_ref());
    let all_features: Vec<u32> = (0..m as u32).collect();
    let mut trees = Vec::with_capacity(config.num_trees);
    let mut hist_methods: BTreeMap<HistogramMethod, usize> = BTreeMap::new();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut start_round = 0usize;
    if let Some(ck) = resume {
        // Shapes were validated by `try_fit_resumed`; restoring the
        // trees, score matrix, and mid-stream RNG makes the rounds
        // below indistinguishable from an uninterrupted run.
        scores.copy_from_slice(&ck.scores);
        trees = ck.trees.clone();
        rng = ChaCha8Rng::from_snapshot(ck.rng.0, ck.rng.1, ck.rng.2);
        start_round = ck.completed_trees;
    }

    // Early-stopping state (only when a validation set is given).
    let mut valid_scores: Vec<f32> = valid.map(|(vd, _)| base.repeat(vd.n())).unwrap_or_default();
    let mut history: Vec<f64> = Vec::new();
    let mut best = (f64::INFINITY, 0usize);
    // Histogram buffers are reused across levels and trees; the pool
    // grows to the peak number of simultaneously live node histograms
    // and then stops allocating.
    let mut pool = HistogramPool::new(0, 0, 0);

    for t in start_round..config.num_trees {
        // Rollback snapshot for a re-run round: taken only when an
        // injector is attached, so the fault-free hot path stays
        // allocation-identical to a trainer without fault handling.
        let saved = faults_on.then(|| {
            (
                scores.clone(),
                rng.clone(),
                valid_scores.clone(),
                history.len(),
                best,
            )
        });
        let mut attempts = 0u32;
        let (grown, early_stop) = loop {
            let lead = &*Arc::clone(&placement.devices()[0]);
            // Per-boosting-round profiling scope (no-op when profiling
            // is off); levels and kernels nest beneath it.
            let _round_scope = lead.prof_scope("round", Some(t as u64));
            let mut grads_full = compute_gradients(lead, loss, &scores, ds.targets(), n, d);
            placement.mirror_gradients(n, d, loss.flops_per_output());
            if config.hist.quantized_gradients {
                crate::grad::quantize_bf16(lead, &mut grads_full);
            }

            // Stochastic gradient boosting: per-tree row/column samples.
            let tree_features = sample_fraction(&all_features, config.colsample_bytree, &mut rng);
            let all_rows: Vec<u32> = (0..n as u32).collect();
            let (root, grads, subsampled);
            if let Some(goss) = config.goss {
                let (idx, amplified) = goss_sample(&grads_full, goss, &mut rng);
                // lint:allow(sanitize): host-side RNG rank sampling emits a private index list; no cross-thread access stream to replay
                lead.charge_kernel(
                    "goss_rank_sample",
                    Phase::Gradient,
                    &KernelCost {
                        // Gradient-norm pass + top-k selection (sort).
                        flops: (n * d) as f64 + n as f64 * 2.0,
                        dram_bytes: (n * d * 4 + n * 8) as f64,
                        sort_keys: n as f64,
                        launches: 3.0,
                        ..Default::default()
                    },
                );
                root = idx;
                grads = amplified;
                subsampled = true;
            } else {
                subsampled = config.subsample < 1.0;
                root = if subsampled {
                    sample_fraction(&all_rows, config.subsample, &mut rng)
                } else {
                    all_rows
                };
                grads = grads_full;
            }

            let grown = if config.sketch.is_none() {
                placement.grow(&binned, &grads, &tree_features, root, &mut pool)
            } else {
                // SketchBoost's recipe on the GPU pipeline: search the
                // tree structure on an n × k sketch (every histogram,
                // split and partition kernel runs at effective output
                // dimension k), then refit the leaves on the full
                // d-dimensional gradients.
                let sketch_scope = lead.prof_scope("sketch", Some(t as u64));
                let sketched = placement.sketch(&grads, config.seed.wrapping_add(t as u64));
                drop(sketch_scope);
                let mut grown = placement.grow(&binned, &sketched, &tree_features, root, &mut pool);
                placement.refit(&mut grown, &grads);
                grown
            };
            if subsampled {
                // Out-of-sample instances still receive the tree's
                // contribution: route every instance to its leaf.
                for i in 0..n {
                    grown
                        .tree
                        .predict_into(ds.features().row(i), &mut scores[i * d..(i + 1) * d]);
                }
                // lint:allow(sanitize): same disjoint per-instance row scatter as `update_scores`, replayed by trace_update_scores on the dense path
                lead.charge_kernel(
                    "update_scores_routed",
                    Phase::Predict,
                    &KernelCost::streaming(
                        (n * grown.tree.depth().max(1)) as f64 * 4.0,
                        (n * (grown.tree.depth().max(1) * 16 + d * 8)) as f64,
                    ),
                );
            } else {
                update_scores_from_leaves(lead, &mut scores, d, &grown.leaf_assignments);
                placement.mirror_update(&grown, n, d);
            }

            let mut early_stop = false;
            if let Some((vd, patience)) = valid {
                let tree = &grown.tree;
                for i in 0..vd.n() {
                    tree.predict_into(vd.features().row(i), &mut valid_scores[i * d..(i + 1) * d]);
                }
                // lint:allow(sanitize): identical traversal/scatter pattern to `predict`, replayed by trace_predict on the training path
                lead.charge_kernel(
                    "validation_predict",
                    Phase::Predict,
                    &KernelCost::streaming(
                        (vd.n() * tree.depth().max(1)) as f64 * 4.0,
                        (vd.n() * (tree.depth().max(1) * 16 + d * 8)) as f64,
                    ),
                );
                let vloss = crate::loss::mean_loss(loss, &valid_scores, vd.targets(), d);
                history.push(vloss);
                if vloss < best.0 {
                    best = (vloss, t);
                }
                if t - best.1 >= patience {
                    early_stop = true; // no improvement for `patience` trees
                }
            }

            if !faults_on {
                break (grown, early_stop);
            }
            // Sync point: surface any fault injected by this round's
            // charges before committing its tree.
            match recover(placement, &mut attempts, max_retries, t, tel)? {
                Step::Commit => break (grown, early_stop),
                Step::Retry => {}
                // Survivors take over the lost devices' columns or
                // instances: charge the ingest of their new shares
                // before re-running the round.
                Step::Degraded => placement.ingest(n, m),
            }
            let (s, r, v, hist_len, b) = saved.clone().expect("snapshot exists");
            scores = s;
            rng = r;
            valid_scores = v;
            history.truncate(hist_len);
            best = b;
        };

        for (method, count) in grown.methods_used {
            *hist_methods.entry(method).or_insert(0) += count;
            if let Some(tl) = tel {
                tl.counter_add(hist_method_metric(method), count as u64);
            }
        }
        trees.push(grown.tree);
        if let Some(tl) = tel {
            tl.counter_inc("train.rounds_total");
            // Host-side only: the loss is computed from the already-
            // committed score matrix, charges nothing, and uses no RNG.
            tl.gauge_set(
                "train.loss",
                crate::loss::mean_loss(loss, &scores, ds.targets(), d),
            );
            tl.gauge_set("train.pool_high_water", pool.allocated() as f64);
        }
        if let Some(out) = checkpoints.as_deref_mut() {
            out.push(Checkpoint {
                completed_trees: t + 1,
                trees: trees.clone(),
                base: base.clone(),
                scores: scores.clone(),
                rng: rng.snapshot(),
                n,
                d,
                task: ds.task(),
                config: config.clone(),
            });
            if let Some(tl) = tel {
                tl.counter_inc("train.checkpoints_total");
            }
        }
        if early_stop {
            break;
        }
    }
    if valid.is_some() {
        trees.truncate(best.1 + 1);
    }

    placement.join();
    let model = Model {
        trees,
        base,
        d,
        task: ds.task(),
        config: config.clone(),
    };
    // A group's devices are joined, so the surviving lead's clock is
    // the fit's and its phase breakdown is representative.
    let lead = &placement.devices()[0];
    let (_, start) = starts
        .iter()
        .find(|(dev, _)| Arc::ptr_eq(dev, lead))
        .expect("the lead device was there at the start");
    let sim = lead.summary().since(start);
    if let Some(tl) = tel {
        tl.gauge_set("train.overlap_saved_ns", sim.overlap_saved_ns);
    }
    let report = TrainReport {
        sim_seconds: sim.total_ns * 1e-9,
        host_seconds: host_start.elapsed().as_secs_f64(),
        sim,
        model,
        hist_methods,
    };
    let curve = valid.map(|_| (history, best.1));
    Ok((report, curve))
}

/// Single-device GBDT-MO trainer.
pub struct GpuTrainer {
    device: Arc<Device>,
    config: TrainConfig,
}

impl GpuTrainer {
    /// Create a trainer on `device` with `config`.
    ///
    /// Panics on an invalid configuration; use [`GpuTrainer::try_new`]
    /// to handle the rejection instead.
    pub fn new(device: Arc<Device>, config: TrainConfig) -> Self {
        Self::try_new(device, config).expect("invalid training configuration")
    }

    /// Fallible constructor: returns the validation failure as a
    /// [`ConfigError`] instead of panicking.
    pub fn try_new(device: Arc<Device>, config: TrainConfig) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError::from)?;
        Ok(GpuTrainer { device, config })
    }

    /// The device this trainer charges.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Train and return just the model.
    ///
    /// Panics if the device faults past the retry budget; attach a
    /// fault injector only through [`GpuTrainer::try_fit`] and friends.
    pub fn fit(&self, ds: &Dataset) -> Model {
        self.fit_report(ds).model
    }

    /// Train with full timing/telemetry report (panicking wrapper over
    /// [`GpuTrainer::try_fit_report`]).
    pub fn fit_report(&self, ds: &Dataset) -> TrainReport {
        self.try_fit_report(ds)
            .unwrap_or_else(|e| panic!("training failed: {e}"))
    }

    /// Fallible training: transient kernel faults are retried up to
    /// [`TrainConfig::with_retry`]'s budget (each redo re-charges the
    /// round in full), and unrecoverable faults surface as a typed
    /// [`TrainError`] — never a panic. Without an attached injector
    /// this is bit-identical to [`GpuTrainer::fit`].
    pub fn try_fit(&self, ds: &Dataset) -> Result<Model, TrainError> {
        Ok(self.try_fit_report(ds)?.model)
    }

    /// Fallible variant of [`GpuTrainer::fit_report`]; see
    /// [`GpuTrainer::try_fit`] for the fault semantics.
    pub fn try_fit_report(&self, ds: &Dataset) -> Result<TrainReport, TrainError> {
        Ok(self.fit_impl(ds, None, None, None, None)?.0)
    }

    /// Train while snapshotting a [`Checkpoint`] after every committed
    /// round. `checkpoints[t]` resumes after tree `t`; resuming via
    /// [`crate::Model::resume_from`] is bit-identical to the
    /// uninterrupted run.
    pub fn try_fit_checkpointed(
        &self,
        ds: &Dataset,
    ) -> Result<(TrainReport, Vec<Checkpoint>), TrainError> {
        let mut checkpoints = Vec::with_capacity(self.config.num_trees);
        let report = self
            .fit_impl(ds, None, None, None, Some(&mut checkpoints))?
            .0;
        Ok((report, checkpoints))
    }

    /// Resume training from `checkpoint` against the same dataset,
    /// finishing the remaining rounds. The report's `sim`/`model`
    /// cover this run only: preprocessing is re-charged (the fresh
    /// device must re-upload and re-bin), then rounds
    /// `checkpoint.completed_trees..num_trees` replay bit-identically
    /// to an uninterrupted fit.
    pub fn try_fit_resumed(
        &self,
        ds: &Dataset,
        checkpoint: &Checkpoint,
    ) -> Result<TrainReport, TrainError> {
        let ck = checkpoint;
        if ck.n != ds.n() || ck.d != ds.d() || ck.task != ds.task() {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint shape ({} × {}, {:?}) does not match dataset ({} × {}, {:?})",
                ck.n,
                ck.d,
                ck.task,
                ds.n(),
                ds.d(),
                ds.task()
            )));
        }
        if ck.trees.len() != ck.completed_trees {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint claims {} completed trees but carries {}",
                ck.completed_trees,
                ck.trees.len()
            )));
        }
        if ck.base.len() != ck.d || ck.scores.len() != ck.n * ck.d {
            return Err(TrainError::Checkpoint(
                "checkpoint base/score arrays do not match its dimensions".into(),
            ));
        }
        if ck.completed_trees > self.config.num_trees {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has {} trees but the config trains {}",
                ck.completed_trees, self.config.num_trees
            )));
        }
        Ok(self.fit_impl(ds, None, None, Some(ck), None)?.0)
    }

    /// Train against a user-defined loss (the paper's §3.1.1
    /// flexibility: "designed to accommodate user-defined loss
    /// functions"). The model's `task` is still taken from the dataset,
    /// which controls the prediction-space transform.
    pub fn fit_with_loss(&self, ds: &Dataset, loss: &dyn MultiOutputLoss) -> TrainReport {
        self.fit_impl(ds, None, Some(loss), None, None)
            .unwrap_or_else(|e| panic!("training failed: {e}"))
            .0
    }

    /// Train with early stopping: after each tree, the mean loss on
    /// `valid` is evaluated; training stops once it has not improved
    /// for `patience` consecutive trees, and the model is truncated to
    /// its best iteration.
    pub fn fit_with_validation(
        &self,
        train: &Dataset,
        valid: &Dataset,
        patience: usize,
    ) -> ValidationReport {
        assert_eq!(train.d(), valid.d(), "train/valid output dims differ");
        assert_eq!(train.m(), valid.m(), "train/valid feature dims differ");
        let (report, curve) = self
            .fit_impl(train, Some((valid, patience)), None, None, None)
            .unwrap_or_else(|e| panic!("training failed: {e}"));
        let (history, best_iteration) = curve.expect("validation requested");
        ValidationReport {
            report,
            history,
            best_iteration,
        }
    }

    fn fit_impl(
        &self,
        ds: &Dataset,
        valid: Option<(&Dataset, usize)>,
        custom_loss: Option<&dyn MultiOutputLoss>,
        resume: Option<&Checkpoint>,
        checkpoints: Option<&mut Vec<Checkpoint>>,
    ) -> Result<(TrainReport, Option<ValidationCurve>), TrainError> {
        let mut single = Single {
            device: &self.device,
            config: &self.config,
        };
        boost(
            &mut single,
            &self.config,
            ds,
            valid,
            custom_loss,
            resume,
            checkpoints,
        )
    }
}

/// Result of [`GpuTrainer::fit_with_validation`].
#[derive(Debug)]
pub struct ValidationReport {
    /// The training report; the model is truncated to the best
    /// iteration.
    pub report: TrainReport,
    /// Mean validation loss after each trained tree.
    pub history: Vec<f64>,
    /// Index of the tree after which validation loss was lowest.
    pub best_iteration: usize,
}

/// Canonical telemetry counter for each histogram method. Descriptive
/// suffixes (not `gmem`/`smem`) keep every pair of metric names at
/// edit distance ≥ 2, as the `metric_name_canonical` lint demands.
fn hist_method_metric(m: HistogramMethod) -> &'static str {
    match m {
        HistogramMethod::GlobalMemory => "train.hist_method_global",
        HistogramMethod::SharedMemory => "train.hist_method_shared",
        HistogramMethod::SortReduce => "train.hist_method_sortreduce",
        HistogramMethod::Adaptive => "train.hist_method_adaptive",
    }
}

/// GOSS (LightGBM): keep the `top_rate` fraction of instances with the
/// largest L1 gradient norm, sample `other_rate` of the rest uniformly,
/// and amplify the sampled rest's gradients by `(1−a)/b` so histogram
/// sums stay unbiased. Returns the (sorted) kept instance indices and
/// the amplified gradient set.
fn goss_sample(
    grads: &crate::grad::Gradients,
    goss: crate::config::GossConfig,
    rng: &mut ChaCha8Rng,
) -> (Vec<u32>, crate::grad::Gradients) {
    let n = grads.n;
    let d = grads.d;
    // L1 gradient norms.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let norm = |i: u32| -> f64 { grads.g_row(i as usize).iter().map(|g| g.abs() as f64).sum() };
    order.sort_by(|&a, &b| {
        norm(b)
            .partial_cmp(&norm(a))
            .expect("finite")
            .then(a.cmp(&b))
    });

    let top_k = ((n as f64 * goss.top_rate).round() as usize).clamp(1, n);
    let rest = &order[top_k..];
    let sample_k = ((rest.len() as f64 * goss.other_rate / (1.0 - goss.top_rate)).round() as usize)
        .min(rest.len());
    let mut rest_pool = rest.to_vec();
    rest_pool.shuffle(rng);
    rest_pool.truncate(sample_k);

    let amplify = ((1.0 - goss.top_rate) / goss.other_rate) as f32;
    let mut g = grads.g.clone();
    let mut h = grads.h.clone();
    for &i in &rest_pool {
        let base = i as usize * d;
        for k in 0..d {
            g[base + k] *= amplify;
            h[base + k] *= amplify;
        }
    }
    let mut kept: Vec<u32> = order[..top_k].iter().copied().chain(rest_pool).collect();
    kept.sort_unstable();
    (kept, crate::grad::Gradients { g, h, n, d })
}

/// Sample `frac` of `items` without replacement (sorted, deterministic
/// under the caller's RNG); `frac ≥ 1` returns everything.
fn sample_fraction(items: &[u32], frac: f64, rng: &mut ChaCha8Rng) -> Vec<u32> {
    if frac >= 1.0 || items.len() <= 1 {
        return items.to_vec();
    }
    let keep = ((items.len() as f64 * frac).round() as usize).clamp(1, items.len());
    let mut shuffled = items.to_vec();
    shuffled.shuffle(rng);
    shuffled.truncate(keep);
    shuffled.sort_unstable();
    shuffled
}

/// Initial per-output scores: the target mean for regression (centers
/// the first gradients), zero for classification tasks.
pub fn base_scores(ds: &Dataset) -> Vec<f32> {
    let d = ds.d();
    match ds.task() {
        Task::MultiRegression => {
            let n = ds.n();
            let mut base = vec![0.0f64; d];
            for i in 0..n {
                for (b, &t) in base.iter_mut().zip(ds.target_row(i)) {
                    *b += t as f64;
                }
            }
            base.iter().map(|&s| (s / n.max(1) as f64) as f32).collect()
        }
        Task::MultiClass | Task::MultiLabel => vec![0.0; d],
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, rmse};
    use gbdt_data::synth::{
        make_classification, make_regression, ClassificationSpec, RegressionSpec,
    };

    fn quick_config() -> TrainConfig {
        TrainConfig {
            num_trees: 8,
            max_depth: 4,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn learns_separable_multiclass_data() {
        let ds = make_classification(&ClassificationSpec {
            instances: 500,
            features: 10,
            classes: 3,
            informative: 8,
            class_sep: 2.0,
            flip_y: 0.0,
            seed: 7,
            ..Default::default()
        });
        let (train, test) = ds.split(0.3, 1);
        let model = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&train);
        let acc = accuracy(&model.predict(test.features()), &test.labels());
        assert!(acc > 0.8, "test accuracy only {acc}");
    }

    #[test]
    fn learns_multi_output_regression() {
        let ds = make_regression(&RegressionSpec {
            instances: 600,
            features: 8,
            outputs: 4,
            informative: 6,
            noise: 0.05,
            seed: 3,
            ..Default::default()
        });
        let (train, test) = ds.split(0.25, 2);
        let model = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&train);
        let pred = model.predict(test.features());
        let e = rmse(&pred, test.targets());
        // Baseline: predicting the train mean.
        let base = base_scores(&train);
        let mean_pred: Vec<f32> = test
            .targets()
            .chunks(4)
            .flat_map(|_| base.clone())
            .collect();
        let e0 = rmse(&mean_pred, test.targets());
        assert!(e < e0 * 0.7, "model rmse {e} vs mean-baseline {e0}");
    }

    #[test]
    fn report_breaks_down_phases_and_histogram_dominates() {
        let ds = make_classification(&ClassificationSpec {
            instances: 800,
            features: 20,
            classes: 5,
            informative: 10,
            seed: 9,
            ..Default::default()
        });
        let report = GpuTrainer::new(Device::rtx4090(), quick_config()).fit_report(&ds);
        assert!(report.sim_seconds > 0.0);
        assert!(report.host_seconds > 0.0);
        assert_eq!(report.model.num_trees(), 8);
        // The paper's core observation (Fig. 4): histogram building is
        // the dominant phase.
        assert!(
            report.histogram_fraction() > 0.4,
            "histogram fraction only {}",
            report.histogram_fraction()
        );
        let total: usize = report.hist_methods.values().sum();
        assert!(total > 0, "adaptive telemetry must record node builds");
    }

    #[test]
    fn deterministic_across_runs() {
        let ds = make_classification(&ClassificationSpec {
            instances: 300,
            features: 8,
            classes: 3,
            informative: 6,
            seed: 4,
            ..Default::default()
        });
        let m1 = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        let m2 = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        assert_eq!(m1.predict(ds.features()), m2.predict(ds.features()));
    }

    #[test]
    fn more_trees_do_not_hurt_training_fit() {
        let ds = make_classification(&ClassificationSpec {
            instances: 400,
            features: 8,
            classes: 3,
            informative: 6,
            seed: 5,
            ..Default::default()
        });
        let short = GpuTrainer::new(
            Device::rtx4090(),
            TrainConfig {
                num_trees: 2,
                ..quick_config()
            },
        )
        .fit(&ds);
        let long = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        let labels = ds.labels();
        let a_short = accuracy(&short.predict(ds.features()), &labels);
        let a_long = accuracy(&long.predict(ds.features()), &labels);
        assert!(a_long >= a_short, "train acc {a_long} < {a_short}");
    }

    #[test]
    fn regression_base_score_is_target_mean() {
        let ds = make_regression(&RegressionSpec {
            instances: 100,
            features: 4,
            outputs: 2,
            informative: 3,
            seed: 8,
            ..Default::default()
        });
        let base = base_scores(&ds);
        for k in 0..2 {
            let mean: f64 = (0..100).map(|i| ds.target_row(i)[k] as f64).sum::<f64>() / 100.0;
            assert!((base[k] as f64 - mean).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "invalid training configuration")]
    fn invalid_config_rejected_at_construction() {
        let _ = GpuTrainer::new(Device::rtx4090(), TrainConfig::default().with_trees(0));
    }

    #[test]
    fn try_new_reports_the_rejection_instead_of_panicking() {
        let err = GpuTrainer::try_new(Device::rtx4090(), TrainConfig::default().with_trees(0))
            .err()
            .unwrap();
        assert!(err.message().contains("num_trees"), "{err}");
        assert!(err.to_string().contains("invalid training configuration"));
        let ok = GpuTrainer::try_new(Device::rtx4090(), TrainConfig::default());
        assert!(ok.is_ok());
    }

    #[test]
    fn subsampling_still_learns_and_is_deterministic() {
        let ds = make_classification(&ClassificationSpec {
            instances: 600,
            features: 10,
            classes: 3,
            informative: 8,
            class_sep: 2.0,
            flip_y: 0.0,
            seed: 20,
            ..Default::default()
        });
        let (train, test) = ds.split(0.3, 21);
        let mut cfg = quick_config();
        cfg.subsample = 0.6;
        cfg.colsample_bytree = 0.7;
        cfg.num_trees = 15;
        let m1 = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&train);
        let m2 = GpuTrainer::new(Device::rtx4090(), cfg).fit(&train);
        assert_eq!(
            m1.predict(test.features()),
            m2.predict(test.features()),
            "seeded sampling must be deterministic"
        );
        let acc = accuracy(&m1.predict(test.features()), &test.labels());
        assert!(acc > 0.7, "subsampled accuracy only {acc}");
    }

    #[test]
    fn subsample_validation_catches_bad_values() {
        let mut c = TrainConfig::default();
        c.subsample = 0.0;
        assert!(c.validate().is_err());
        c.subsample = 1.5;
        assert!(c.validate().is_err());
        c.subsample = 0.5;
        c.colsample_bytree = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sample_fraction_bounds_and_determinism() {
        let items: Vec<u32> = (0..100).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = sample_fraction(&items, 0.3, &mut rng);
        assert_eq!(s.len(), 30);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert_eq!(sample_fraction(&items, 1.0, &mut rng), items);
        let mut rng2 = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(s, sample_fraction(&items, 0.3, &mut rng2));
    }

    #[test]
    fn goss_learns_and_is_deterministic() {
        use crate::config::GossConfig;
        let ds = make_classification(&ClassificationSpec {
            instances: 800,
            features: 10,
            classes: 3,
            informative: 8,
            class_sep: 2.0,
            flip_y: 0.0,
            seed: 30,
            ..Default::default()
        });
        let (train, test) = ds.split(0.3, 31);
        let mut cfg = quick_config();
        cfg.num_trees = 15;
        cfg.goss = Some(GossConfig::default_rates());
        let m1 = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&train);
        let m2 = GpuTrainer::new(Device::rtx4090(), cfg).fit(&train);
        assert_eq!(m1.predict(test.features()), m2.predict(test.features()));
        let acc = accuracy(&m1.predict(test.features()), &test.labels());
        assert!(acc > 0.75, "GOSS accuracy only {acc}");
    }

    #[test]
    fn goss_sample_keeps_top_gradients_and_amplifies_rest() {
        use crate::config::GossConfig;
        use crate::grad::Gradients;
        let n = 100;
        // Instance i has gradient magnitude i.
        let grads = Gradients {
            g: (0..n).map(|i| i as f32).collect(),
            h: vec![1.0; n],
            n,
            d: 1,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let goss = GossConfig {
            top_rate: 0.2,
            other_rate: 0.1,
        };
        let (kept, amplified) = goss_sample(&grads, goss, &mut rng);
        // Top 20 by |g| are instances 80..100, all kept.
        for i in 80..100u32 {
            assert!(kept.contains(&i), "top instance {i} dropped");
        }
        // Roughly 10% of the rest sampled.
        assert!((28..=32).contains(&kept.len()), "kept {}", kept.len());
        // Sampled low-gradient instances amplified by (1-0.2)/0.1 = 8.
        for &i in kept.iter().filter(|&&i| i < 80) {
            assert!(
                (amplified.g[i as usize] - grads.g[i as usize] * 8.0).abs() < 1e-4,
                "instance {i} not amplified"
            );
        }
        // Unsampled instances untouched.
        let dropped = (0..80u32).find(|i| !kept.contains(i)).unwrap();
        assert_eq!(amplified.g[dropped as usize], grads.g[dropped as usize]);
    }

    #[test]
    fn goss_validation() {
        use crate::config::GossConfig;
        let mut cfg = TrainConfig::default();
        cfg.goss = Some(GossConfig {
            top_rate: 0.7,
            other_rate: 0.5,
        });
        assert!(cfg.validate().is_err(), "rates summing over 1 must fail");
        cfg.goss = Some(GossConfig {
            top_rate: 0.0,
            other_rate: 0.1,
        });
        assert!(cfg.validate().is_err());
        cfg.goss = Some(GossConfig::default_rates());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn early_stopping_truncates_to_best_iteration() {
        let ds = make_classification(&ClassificationSpec {
            instances: 500,
            features: 10,
            classes: 3,
            informative: 8,
            flip_y: 0.15, // noisy so validation loss turns upward
            seed: 22,
            ..Default::default()
        });
        let (train, valid) = ds.split(0.4, 23);
        let mut cfg = quick_config();
        cfg.num_trees = 40;
        let r = GpuTrainer::new(Device::rtx4090(), cfg).fit_with_validation(&train, &valid, 3);
        assert!(!r.history.is_empty());
        assert!(r.best_iteration < r.history.len());
        assert_eq!(r.report.model.num_trees(), r.best_iteration + 1);
        // Best really is the minimum of the recorded curve.
        let min = r.history.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((r.history[r.best_iteration] - min).abs() < 1e-12);
        // Stopped within patience of the best (or ran out of trees).
        assert!(r.history.len() <= r.best_iteration + 3 + 1 || r.history.len() == 40);
    }
}
