//! The simulated device: properties, time ledger, and charge interface.

use crate::buffer::GpuBuffer;
use crate::cost::{CostModel, CostParams, KernelCost};
use crate::fault::{Bits32, FaultInjector, FaultPlan, FaultReport, GpuFault};
use crate::occupancy::{occupancy, BlockResources, SmLimits};
use crate::prof::{self, ProfScope, ProfileSummary, ScopeSpan};
use crate::sanitize::{SanitizeMode, SanitizeReport, Sanitizer};
use crate::timeline::{Entry, Event, Ledger, LedgerSummary, Mark};
use crate::KernelRecord;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use telemetry::{Logged, Telemetry};

/// Training-pipeline phase a kernel is attributed to. Used to regenerate
/// the paper's Figure 4 breakdown (histogram share of total time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Quantile binning / preprocessing of the input matrix.
    Binning,
    /// Loss evaluation and g/h computation (paper §3.1.1).
    Gradient,
    /// Gradient sketching: shrinking the `n × d` gradient matrix to an
    /// `n × k` sketch before histogram building (SketchBoost's recipe),
    /// so the dominant histogram cost scales with `k` instead of `d`.
    Sketch,
    /// Histogram construction (paper §3.3) — the headline bottleneck.
    Histogram,
    /// Gain computation and best-split reduction (paper §3.1.3).
    SplitEval,
    /// Moving instances into child nodes after a split.
    Partition,
    /// Computing optimal leaf values.
    LeafValue,
    /// Model inference / incremental prediction update.
    Predict,
    /// Online serving of compiled ensembles (batched inference over
    /// resident SoA trees — see `gbdt_core::serve`).
    Serve,
    /// Host↔device copies.
    Transfer,
    /// Inter-device collectives (paper §3.4.2).
    Comm,
    /// Barrier wait time in multi-device lockstep.
    Idle,
    /// Anything else.
    Other,
}

impl Phase {
    /// Every variant, in `Ord` (declaration) order. Used by the bench
    /// schema to emit a complete per-phase breakdown.
    pub const ALL: [Phase; 13] = [
        Phase::Binning,
        Phase::Gradient,
        Phase::Sketch,
        Phase::Histogram,
        Phase::SplitEval,
        Phase::Partition,
        Phase::LeafValue,
        Phase::Predict,
        Phase::Serve,
        Phase::Transfer,
        Phase::Comm,
        Phase::Idle,
        Phase::Other,
    ];

    /// Stable name used as a JSON key by the profiler and bench
    /// schemas. The match is exhaustive on purpose: adding a `Phase`
    /// variant must not compile until every schema knows about it.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Binning => "Binning",
            Phase::Gradient => "Gradient",
            Phase::Sketch => "Sketch",
            Phase::Histogram => "Histogram",
            Phase::SplitEval => "SplitEval",
            Phase::Partition => "Partition",
            Phase::LeafValue => "LeafValue",
            Phase::Predict => "Predict",
            Phase::Serve => "Serve",
            Phase::Transfer => "Transfer",
            Phase::Comm => "Comm",
            Phase::Idle => "Idle",
            Phase::Other => "Other",
        }
    }
}

/// Static properties of a simulated device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProps {
    /// Marketing name, for reports.
    pub name: String,
    /// Cost-model parameters (SMs, clocks, bandwidths, …).
    pub cost: CostParams,
}

impl DeviceProps {
    /// An RTX 4090-like device (the paper's main testbed, §4.1).
    pub fn rtx4090() -> Self {
        DeviceProps {
            name: "SimRTX4090".to_string(),
            cost: CostParams::rtx4090(),
        }
    }

    /// An RTX 3090-like device (the paper's sensitivity study, §4.3).
    pub fn rtx3090() -> Self {
        DeviceProps {
            name: "SimRTX3090".to_string(),
            cost: CostParams::rtx3090(),
        }
    }

    /// An A100-SXM4-like datacenter device.
    pub fn a100() -> Self {
        DeviceProps {
            name: "SimA100".to_string(),
            cost: CostParams::a100(),
        }
    }

    /// An H100-SXM5-like datacenter device.
    pub fn h100() -> Self {
        DeviceProps {
            name: "SimH100".to_string(),
            cost: CostParams::h100(),
        }
    }
}

/// A simulated GPU with multiple in-order streams.
///
/// All kernels execute functionally on the host; their simulated duration
/// is computed by the [`CostModel`] and accumulated in a ledger whose
/// timeline models CUDA streams: each stream is an in-order queue with
/// its own clock, [`Event`] fences add cross-stream edges, and compute
/// kernels contend for an occupancy-derived number of concurrent-kernel
/// slots (see [`Device::compute_slots`]). Stream 0 is the default
/// stream; code that never names a stream behaves exactly as the old
/// single-stream device, bit for bit. `Device` is `Sync`: one lock
/// guards the ledger and everything attached to it. Charges (booked at
/// one site), profiling scopes and surfaced faults all go into the
/// ledger's one event log, and the records, profile, Chrome trace and
/// postmortems are views of it ([`crate::prof`]). The in-order-stream
/// abstraction means only subtotal order (not interleaving) matters.
pub struct Device {
    /// Device index within its group (0-based, mirrors `cudaSetDevice`).
    pub id: usize,
    props: DeviceProps,
    model: CostModel,
    state: Mutex<DeviceState>,
}

/// Everything a charge touches, behind the device's one lock.
#[derive(Default)]
struct DeviceState {
    ledger: Ledger,
    sanitizer: Option<Arc<Sanitizer>>,
    fault: Option<Arc<FaultInjector>>,
    telemetry: Option<Arc<Telemetry>>,
    /// Whether the profile and trace views report.
    profiling: bool,
}

/// A lightweight handle binding a [`Device`] to a stream id, so call
/// sites can write `device.stream(s).charge_kernel(...)` with the same
/// method names (and the same kernel contract obligations) as the
/// default-stream interface.
#[derive(Clone, Copy)]
pub struct Stream<'a> {
    device: &'a Device,
    id: usize,
}

impl<'a> Stream<'a> {
    /// The stream id this handle charges on.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Charge one kernel launch described by `cost` on this stream.
    pub fn charge_kernel(&self, name: &'static str, phase: Phase, cost: &KernelCost) {
        self.device.charge_kernel_on(name, phase, cost, self.id);
    }

    /// Charge a raw duration on this stream (engine work — transfers and
    /// collectives — which never contends for compute slots).
    pub fn charge_ns(&self, name: &'static str, phase: Phase, ns: f64) {
        self.device.charge_ns_on(name, phase, ns, self.id);
    }

    /// Fence the work issued to this stream so far.
    pub fn record_event(&self) -> Event {
        self.device.record_event(self.id)
    }

    /// Make subsequent work on this stream start no earlier than `event`.
    pub fn wait_event(&self, event: Event) {
        self.device.wait_event(self.id, event);
    }

    /// Completion clock of this stream, nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.device.stream_now(self.id)
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("id", &self.id)
            .field("name", &self.props.name)
            .field("total_ns", &self.now_ns())
            .finish()
    }
}

impl Device {
    /// Default number of event-log entries retained per device; older
    /// ones are folded into the log's running totals.
    pub const DEFAULT_LOG_LIMIT: usize = 100_000;

    /// Create device `id` with the given properties.
    pub fn new(id: usize, props: DeviceProps) -> Arc<Self> {
        let model = CostModel::new(props.cost.clone());
        let slots = Self::derive_compute_slots();
        Arc::new(Device {
            id,
            props,
            model,
            state: Mutex::new(DeviceState {
                ledger: Ledger::with_slots(Self::DEFAULT_LOG_LIMIT, slots),
                ..DeviceState::default()
            }),
        })
    }

    /// Concurrent-kernel slots from the occupancy model: blocks per SM
    /// at the canonical histogram launch shape (256 threads, 16 KiB of
    /// shared memory, 32 registers per thread). A launch-bound kernel
    /// occupies one slot; a kernel the cost model says saturates the
    /// SMs takes all of them and serializes with co-resident compute.
    fn derive_compute_slots() -> u32 {
        let shape = BlockResources {
            threads: 256,
            smem_bytes: 16 * 1024,
            regs_per_thread: 32,
        };
        occupancy(shape, &SmLimits::default()).blocks_per_sm.max(1)
    }

    /// Shortcut: a single RTX 4090-like device.
    pub fn rtx4090() -> Arc<Self> {
        Self::new(0, DeviceProps::rtx4090())
    }

    /// Device properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// The cost model (for primitives and for the adaptive histogram
    /// selector, which predicts kernel costs before launching).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Charge one kernel launch described by `cost` on the default stream.
    pub fn charge_kernel(&self, name: &'static str, phase: Phase, cost: &KernelCost) {
        self.charge_kernel_on(name, phase, cost, 0);
    }

    /// Charge one kernel launch described by `cost` on `stream`.
    ///
    /// The kernel occupies one compute slot, or every slot when the
    /// cost model says it saturates the SMs — co-resident kernels on
    /// other streams then serialize exactly as real hardware would.
    fn charge_kernel_on(&self, name: &'static str, phase: Phase, cost: &KernelCost, stream: usize) {
        self.book(name, phase, self.model.kernel_ns(cost), stream, Some(cost));
    }

    /// Charge a raw duration on the default stream (used by collectives
    /// and transfers whose time is computed outside the kernel model).
    pub fn charge_ns(&self, name: &'static str, phase: Phase, ns: f64) {
        self.charge_ns_on(name, phase, ns, 0);
    }

    /// Charge a raw duration on `stream`. Engine work: consumes no
    /// compute slots, so it overlaps freely with kernels on other
    /// streams (copy and collective engines do not contend for SMs).
    fn charge_ns_on(&self, name: &'static str, phase: Phase, ns: f64, stream: usize) {
        self.book(name, phase, ns, stream, None);
    }

    /// The one booking site behind every charge (`cost` is `None` for
    /// engine work): the ledger books it and logs it with the two facts
    /// the profile takes from its cost. Nothing is fed back.
    fn book(
        &self,
        name: &'static str,
        phase: Phase,
        ns: f64,
        stream: usize,
        cost: Option<&KernelCost>,
    ) {
        let mut st = self.state.lock();
        if let Some(inj) = &st.fault {
            if !inj.on_charge(self.id, name) {
                // Device lost: nothing executes on a fallen device.
                return;
            }
        }
        let slots = match cost {
            None => 0,
            Some(c) if self.model.saturates_device(c) => st.ledger.compute_slots(),
            Some(_) => 1,
        };
        let facts = cost.map_or((0.0, false), |c| {
            (c.dram_bytes, self.model.serialization_limited(c))
        });
        st.ledger.book(stream, name, phase, ns, slots, facts);
        if let Some(tel) = &st.telemetry {
            tel.count_logged(Logged::Charge);
        }
    }

    /// A charge handle bound to `stream`. Stream 0 is the default
    /// stream; other ids are created lazily, born idle at t = 0 —
    /// fence a fresh stream ([`Stream::wait_event`]) before its first
    /// charge when the work logically depends on anything.
    pub fn stream(&self, id: usize) -> Stream<'_> {
        Stream { device: self, id }
    }

    /// Fence the work issued to `stream` so far.
    pub fn record_event(&self, stream: usize) -> Event {
        self.state.lock().ledger.record_event(stream)
    }

    /// Make subsequent work on `stream` start no earlier than `event`.
    /// Events are plain timestamps, so fences recorded on *another*
    /// device compose here too (cross-device collective edges).
    pub fn wait_event(&self, stream: usize, event: Event) {
        self.state.lock().ledger.wait_event(stream, event);
    }

    /// Device-wide synchronization (`cudaDeviceSynchronize`): every
    /// stream clock joins the makespan. Books no idle time, and is a
    /// no-op when only the default stream has been used.
    pub fn sync(&self) {
        self.state.lock().ledger.sync_streams();
    }

    /// Completion clock of `stream`, nanoseconds (0 if never touched).
    pub fn stream_now(&self, stream: usize) -> f64 {
        self.state.lock().ledger.stream_now(stream)
    }

    /// Concurrent-kernel slots available to co-resident compute.
    pub fn compute_slots(&self) -> u32 {
        self.state.lock().ledger.compute_slots()
    }

    /// Current simulated time, nanoseconds: the timeline makespan (max
    /// over stream clocks and barrier targets).
    pub fn now_ns(&self) -> f64 {
        self.state.lock().ledger.total_ns()
    }

    /// Raise the device clock to `target_ns`, booking idle time.
    pub fn advance_to(&self, target_ns: f64) {
        self.state.lock().ledger.advance_to(target_ns);
    }

    /// Snapshot of the ledger.
    pub fn summary(&self) -> LedgerSummary {
        self.state.lock().ledger.summary()
    }

    /// The charges still in the event log, oldest first (all of them
    /// until the log passes [`Device::DEFAULT_LOG_LIMIT`] entries). Used
    /// by the determinism audit to diff replayed cost streams.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.state.lock().ledger.records()
    }

    /// Run `f` on the ledger under the device lock (the log's views).
    pub(crate) fn with_ledger<R>(&self, f: impl FnOnce(&Ledger) -> R) -> R {
        f(&self.state.lock().ledger)
    }

    // ---- sanitizer ---------------------------------------------------------

    /// Attach a sanitizer in the given mode. Replaces any previous
    /// sanitizer (its accumulated state is dropped). Passing
    /// [`SanitizeMode::Off`] is equivalent to [`Device::disable_sanitizer`].
    pub fn enable_sanitizer(&self, mode: SanitizeMode) {
        self.state.lock().sanitizer = mode
            .enabled()
            .then(|| Arc::new(Sanitizer::new(mode, self.props.cost.warp_size)));
    }

    /// Detach the sanitizer; subsequent kernels run unchecked (and
    /// unrecorded). Accumulated state is dropped.
    pub fn disable_sanitizer(&self) {
        self.state.lock().sanitizer = None;
    }

    /// The attached sanitizer, if any. Kernels call this once per launch;
    /// `None` (the default) must keep the hot path free of recording
    /// overhead.
    pub fn sanitizer(&self) -> Option<Arc<Sanitizer>> {
        self.state.lock().sanitizer.clone()
    }

    /// Snapshot the sanitizer's accumulated report, or `None` when no
    /// sanitizer is attached.
    pub fn sanitize_report(&self) -> Option<SanitizeReport> {
        self.state.lock().sanitizer.as_ref().map(|s| s.report())
    }

    // ---- profiler ----------------------------------------------------------

    /// Turn on [`Device::profile_summary`] and [`Device::chrome_trace`],
    /// views of the log since creation or the last reset. On or off,
    /// trees and charged nanoseconds are bit-identical
    /// (regression-tested in `crates/core/tests/profiling.rs`).
    pub fn enable_profiler(&self) {
        self.state.lock().profiling = true;
    }

    /// Turn the profile views off again (the log itself is kept).
    pub fn disable_profiler(&self) {
        self.state.lock().profiling = false;
    }

    /// Open a hierarchical profiling scope (`kind` is the aggregation
    /// key, `index` labels this instance in the trace); it closes when
    /// the guard drops.
    pub fn prof_scope(&self, kind: &'static str, index: Option<u64>) -> ProfScope<'_> {
        let mut st = self.state.lock();
        let at_ns = st.ledger.total_ns();
        st.ledger.append(Entry::Open(Mark { kind, index, at_ns }));
        ProfScope {
            device: self,
            kind,
            index,
        }
    }

    /// Log the close of the innermost scope.
    pub(crate) fn close_scope(&self, kind: &'static str, index: Option<u64>) {
        let mut st = self.state.lock();
        let at_ns = st.ledger.total_ns();
        st.ledger.append(Entry::Close(Mark { kind, index, at_ns }));
        if let Some(tel) = &st.telemetry {
            tel.count_logged(Logged::Span);
        }
    }

    /// Each closed instance of scope `kind` in the retained log, with
    /// its open and close clocks and the charges issued inside it. A
    /// view of the log like [`Device::records`]: available with the
    /// profiler on or off.
    pub fn scope_spans(&self, kind: &str) -> Vec<ScopeSpan> {
        prof::scope_spans(&self.state.lock().ledger, kind)
    }

    /// The schema-versioned profile summary, or `None` when the
    /// profiler is off.
    pub fn profile_summary(&self) -> Option<ProfileSummary> {
        let st = self.state.lock();
        st.profiling
            .then(|| prof::summarize(&self.props.name, &st.ledger))
    }

    /// The Chrome `chrome://tracing` JSON of this device's log, or
    /// `None` when the profiler is off.
    pub fn chrome_trace(&self) -> Option<String> {
        let st = self.state.lock();
        st.profiling
            .then(|| prof::chrome_trace(self.id, &st.ledger))
    }

    // ---- telemetry ---------------------------------------------------------

    /// Attach a fresh telemetry registry (replacing any previous one,
    /// whose state is dropped) and return it. Purely observational,
    /// like the sanitizer and profiler: attached or not, trees, clocks,
    /// and charge records are bit-identical (regression-tested in
    /// `crates/core/tests/telemetry.rs`). It counts what this device
    /// logs; failure paths hand it a [`prof::postmortem`].
    pub fn enable_telemetry(&self) -> Arc<Telemetry> {
        let tel = Arc::new(Telemetry::new());
        self.attach_telemetry(Arc::clone(&tel));
        tel
    }

    /// Attach an existing registry — several devices (a multi-GPU
    /// group) can share one.
    pub fn attach_telemetry(&self, tel: Arc<Telemetry>) {
        self.state.lock().telemetry = Some(tel);
    }

    /// Detach telemetry; accumulated state lives on in any clones of
    /// the returned `Arc`, but this device stops recording.
    pub fn disable_telemetry(&self) {
        self.state.lock().telemetry = None;
    }

    /// The attached telemetry registry, if any. `None` (the default)
    /// keeps the charge hot path free of recording overhead.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.state.lock().telemetry.clone()
    }

    // ---- fault injection ---------------------------------------------------

    /// Attach a fault injector over `plan` (replacing any previous one,
    /// whose state is dropped). With an empty plan — or no injector at
    /// all — charges, trees, and nanoseconds are bit-identical to an
    /// uninstrumented device (regression-tested in
    /// `crates/core/tests/chaos.rs`).
    pub fn enable_faults(&self, plan: FaultPlan) {
        self.state.lock().fault = Some(Arc::new(FaultInjector::new(plan)));
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.state.lock().fault.clone()
    }

    /// Surface the oldest unreported fault — the simulator's
    /// `cudaGetLastError` at a sync point. `Ok(())` when no injector is
    /// attached or nothing fired; transient faults are cleared by the
    /// poll, device loss is sticky.
    pub fn poll_fault(&self) -> Result<(), GpuFault> {
        let mut st = self.state.lock();
        let res = st.fault.as_ref().map_or(Ok(()), |inj| inj.poll());
        if let Err(fault) = &res {
            // The poll result is already decided; the log just
            // remembers what surfaced.
            let at_ns = st.ledger.total_ns();
            st.ledger
                .append(Entry::Fault(Box::new((fault.clone(), at_ns))));
            if let Some(tel) = &st.telemetry {
                tel.count_logged(Logged::Fault);
            }
        }
        res
    }

    /// Whether this device has been lost to a planned [`GpuFault`].
    pub fn is_lost(&self) -> bool {
        self.fault_injector().is_some_and(|inj| inj.is_lost())
    }

    /// Snapshot the fault-injection counters, or `None` when no
    /// injector is attached.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.state.lock().fault.as_ref().map(|inj| inj.report())
    }

    /// Apply any armed bit flips targeting the buffer labelled `label`.
    /// Silent (no charge, no poll): ECC-style corruption is only
    /// detectable by re-running [`crate::fault::buffer_checksum`].
    pub fn apply_planned_corruption<T: Bits32 + Send + Sync>(
        &self,
        label: &str,
        buf: &mut GpuBuffer<T>,
    ) {
        let Some(inj) = self.fault_injector() else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        for (elem, bit) in inj.take_flips_for(label) {
            let idx = (elem % buf.len() as u64) as usize;
            let bits = buf.as_slice()[idx].to_bits32() ^ (1u32 << (bit % 32));
            // lint:allow(raw_buffer_mut): injected ECC corruption must bypass the checked mutation paths it exists to test
            buf.as_mut_slice()[idx] = T::from_bits32(bits);
        }
    }

    /// Reset the ledger and its event log to zero (e.g. between
    /// benchmark repetitions), so every view starts afresh.
    pub fn reset(&self) {
        self.state.lock().ledger.reset();
    }

    // ---- memory management -------------------------------------------------

    /// Copy host data to a new device buffer (`cudaMemcpyHostToDevice`).
    pub fn htod<T: Copy + Send + Sync>(&self, host: &[T]) -> GpuBuffer<T> {
        self.htod_on(host, 0)
    }

    /// Copy host data to a new device buffer on `stream` (an async H2D
    /// issued to a copy stream, `cudaMemcpyAsync`). The returned buffer
    /// is functionally complete immediately; consumers on other streams
    /// must wait a fence recorded after this call before charging work
    /// that reads it.
    pub fn htod_on<T: Copy + Send + Sync>(&self, host: &[T], stream: usize) -> GpuBuffer<T> {
        let bytes = std::mem::size_of_val(host) as f64;
        self.charge_ns_on(
            "htod",
            Phase::Transfer,
            self.model.host_copy_ns(bytes),
            stream,
        );
        GpuBuffer::from_vec(self.id, host.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_charges_accumulate() {
        let dev = Device::rtx4090();
        assert_eq!(dev.now_ns(), 0.0);
        dev.charge_kernel("k1", Phase::Gradient, &KernelCost::streaming(1e9, 1e8));
        let t1 = dev.now_ns();
        assert!(t1 > 0.0);
        dev.charge_kernel("k2", Phase::Histogram, &KernelCost::streaming(1e9, 1e8));
        assert!(dev.now_ns() > t1);
        let s = dev.summary();
        assert!(s.by_phase.contains_key(&Phase::Gradient));
        assert!(s.by_phase.contains_key(&Phase::Histogram));
    }

    #[test]
    fn htod_copies_and_charges_transfer() {
        let dev = Device::rtx4090();
        let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        let buf = dev.htod(&data);
        assert_eq!(buf.len(), 1024);
        assert_eq!(buf.as_slice(), &data[..]);
        let s = dev.summary();
        assert!(s.phase_ns(Phase::Transfer) > 0.0);
    }

    #[test]
    fn reset_zeroes_clock() {
        let dev = Device::rtx4090();
        dev.charge_ns("x", Phase::Other, 123.0);
        dev.reset();
        assert_eq!(dev.now_ns(), 0.0);
    }

    #[test]
    fn observers_see_the_clamped_duration_the_ledger_booked() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
        let tel = dev.enable_telemetry();
        dev.charge_ns("bad", Phase::Other, -5.0);
        let s = dev.summary();
        assert_eq!(s.phase_ns(Phase::Other), 0.0);
        assert_eq!(s.negative_charges, 1);
        let prof = dev.profile_summary().expect("profiler attached");
        assert_eq!(prof.kernels[0].total_ns, 0.0);
        assert_eq!(prof.kernels[0].max_ns, 0.0);
        let trace: serde::Value =
            serde_json::from_str(&dev.chrome_trace().expect("profiler attached"))
                .expect("valid trace JSON");
        let dur = trace.as_object().and_then(|o| {
            let (_, events) = o.iter().find(|(k, _)| k == "traceEvents")?;
            let event = events.as_array()?.first()?.as_object()?;
            event
                .iter()
                .find(|(k, _)| k == "dur")
                .map(|(_, v)| v.clone())
        });
        assert_eq!(dur, Some(serde::Value::Float(0.0)));
        assert_eq!(prof::postmortem("probe", &[dev]).events[0].end_ns, 0.0);
        assert_eq!(tel.snapshot().charges_recorded, 1);
    }

    #[test]
    fn reset_clears_what_the_views_report() {
        let dev = Device::rtx4090();
        dev.enable_profiler();
        dev.charge_ns("before", Phase::Other, 1000.0);
        dev.reset();
        dev.charge_ns("after", Phase::Other, 10.0);
        let prof = dev.profile_summary().expect("profiler attached");
        let rows: f64 = prof.kernels.iter().map(|k| k.total_ns).sum();
        assert_eq!(rows, prof.total_ns);
        assert_eq!(prof.total_ns, 10.0);
        let trace: serde::Value =
            serde_json::from_str(&dev.chrome_trace().expect("profiler attached"))
                .expect("valid trace JSON");
        let names: Vec<String> = trace
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents"))
            .and_then(|(_, events)| events.as_array())
            .expect("traceEvents array")
            .iter()
            .filter_map(|e| {
                let (_, name) = e.as_object()?.iter().find(|(k, _)| k == "name")?;
                name.as_str().map(str::to_string)
            })
            .collect();
        assert_eq!(names, ["after"]);
    }

    impl LedgerSummary {
        fn phase_ns(&self, phase: Phase) -> f64 {
            self.by_phase.get(&phase).copied().unwrap_or(0.0)
        }
    }
}
