//! Per-device time ledger, kernel timeline and event log.
//!
//! Every simulated kernel appends a [`KernelRecord`]; the ledger keeps
//! per-phase subtotals plus a *multi-stream* timeline: each stream is an
//! in-order queue with its own clock, [`Event`] fences add cross-stream
//! (and cross-device) edges, and the device clock (`total_ns`) is the
//! **makespan** — the maximum over stream clocks and barrier targets.
//! Stream 0 is the default stream: a device that only ever charges there
//! reproduces the old serial clock bit-for-bit, because each charge
//! starts at the stream-0 clock and the makespan equals that clock after
//! every charge (the float operation sequence is unchanged).
//!
//! Compute kernels additionally contend for a fixed number of
//! *compute slots* (derived from the SM occupancy model by the device):
//! a kernel that saturates the SMs takes every slot and serializes with
//! co-resident compute work, while small launch-bound kernels take one
//! slot each and overlap up to the cap. Transfers and collectives run on
//! their own engines (zero slots) and never contend for SMs.
//!
//! The trainer uses phase subtotals to regenerate the paper's Figure 4
//! (histogram-building share of total training time); subtotals are
//! always the exact sum of charged nanoseconds, independent of how the
//! charges were scheduled across streams.
//!
//! The ledger also keeps the device's one event log (charges, scope
//! opens and closes, surfaced faults), of which the records, profile,
//! Chrome trace and postmortems are views (`prof` module). It retains
//! its newest `log_limit` entries and folds older ones into running
//! totals, so aggregates stay exact past the cap.

use crate::device::Phase;
use crate::fault::GpuFault;
use crate::prof::Totals;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// A fence on the simulated timeline: the completion timestamp of all
/// work issued to a stream before [`Ledger::record_event`] was called.
///
/// Events are plain copyable timestamps, so they compose across devices
/// (a collective's start is the max over every participant's fence).
/// [`Event::at_ns`] builds a raw fence for cross-device joins;
/// [`Event::offset_ns`] shifts one, modeling pipelined chunk arrival
/// ("the first chunk of that copy has landed").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    ns: f64,
}

impl Event {
    /// A fence at an absolute simulated timestamp.
    pub fn at_ns(ns: f64) -> Self {
        Event { ns }
    }

    /// The fence's timestamp in nanoseconds.
    pub fn ns(&self) -> f64 {
        self.ns
    }

    /// The fence shifted by `delta` nanoseconds (clamped at 0): the
    /// partial-completion point of pipelined work.
    pub fn offset_ns(self, delta: f64) -> Self {
        Event {
            ns: (self.ns + delta).max(0.0),
        }
    }

    /// The later of two fences (a join over multiple dependencies).
    pub fn max(self, other: Event) -> Self {
        if other.ns > self.ns {
            other
        } else {
            self
        }
    }
}

/// One simulated kernel (or transfer / collective) on a device timeline.
///
/// Serialize-only: `name` borrows `'static` kernel-name literals, which
/// cannot be reconstructed from transient JSON input.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KernelRecord {
    /// Human-readable kernel name, e.g. `hist_smem_packed`.
    pub name: &'static str,
    /// Pipeline phase the kernel belongs to.
    pub phase: Phase,
    /// Simulated duration in nanoseconds.
    pub ns: f64,
    /// Simulated start time (device-local), nanoseconds.
    pub start_ns: f64,
    /// Stream the charge was issued on (0 = default stream).
    pub stream: usize,
}

/// One entry of a device's event log: 48 bytes, no wider than a bare
/// [`KernelRecord`] (tested), since a log holds one per charge and two
/// per scope.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// A booked charge ([`Entry::record`]), with the DRAM bytes of its
    /// cost and whether serialized terms dominated it (0 and false for
    /// engine work).
    Charge {
        name: &'static str,
        phase: Phase,
        ns: f64,
        start_ns: f64,
        stream: u32,
        dram_bytes: f64,
        limited: bool,
    },
    /// A profiling scope opened.
    Open(Mark),
    /// The innermost open scope closed.
    Close(Mark),
    /// A fault a poll surfaced, at the device clock of the poll (boxed:
    /// faults are rare, and inline one would widen every entry).
    Fault(Box<(GpuFault, f64)>),
}

impl Entry {
    /// The record the ledger booked, for a charge.
    pub(crate) fn record(&self) -> Option<KernelRecord> {
        match *self {
            Entry::Charge {
                name,
                phase,
                ns,
                start_ns,
                stream,
                ..
            } => Some(KernelRecord {
                name,
                phase,
                ns,
                start_ns,
                stream: stream as usize,
            }),
            _ => None,
        }
    }
}

/// A scope boundary: the scope's kind (its aggregation key), the index
/// labelling this instance, and the simulated time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    pub(crate) kind: &'static str,
    pub(crate) index: Option<u64>,
    pub(crate) at_ns: f64,
}

/// Accumulated simulated time of one device.
#[derive(Debug, Clone)]
pub struct Ledger {
    by_phase: BTreeMap<Phase, f64>,
    kernel_count: u64,
    /// The event log's newest entries, oldest first.
    pub(crate) log: VecDeque<Entry>,
    log_limit: usize,
    /// Every entry shed from the front of `log`, folded in order.
    pub(crate) shed: Totals,
    /// Per-stream completion clocks; index = stream id, stream 0 always
    /// exists. A stream is born idle at t = 0 when first touched —
    /// issue a fence ([`Ledger::wait_event`]) before its first charge
    /// if the work logically depends on anything.
    stream_clock: Vec<f64>,
    /// The device clock: max over stream clocks reached by charges and
    /// barrier (`advance_to`) targets.
    makespan: f64,
    /// In-flight compute intervals `(end_ns, slots)` still occupying SMs.
    active: Vec<(f64, u32)>,
    /// Concurrency cap: compute slots available (occupancy-derived; 1
    /// keeps the scheduler serial for plain ledgers).
    compute_slots: u32,
    /// Charges that arrived with a negative duration and were clamped
    /// to zero (a model bug upstream; surfaced rather than corrupting
    /// subtotals).
    negative_charges: u64,
    /// Simulated nanoseconds the serial schedule would have added on
    /// top of the makespan — the win from stream overlap.
    overlap_saved_ns: f64,
    /// Simulated nanoseconds charges waited past the makespan before
    /// starting: a fence on another device's event held them back.
    waited_ns: f64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new(0)
    }
}

impl Ledger {
    /// Create a ledger whose event log retains at most `log_limit`
    /// entries (phase subtotals and the log's aggregates are always
    /// exact regardless of the limit).
    pub fn new(log_limit: usize) -> Self {
        Ledger::with_slots(log_limit, 1)
    }

    /// Create a ledger with `compute_slots` concurrent-kernel capacity
    /// (the device derives this from the SM occupancy model).
    pub fn with_slots(log_limit: usize, compute_slots: u32) -> Self {
        Ledger {
            by_phase: BTreeMap::new(),
            kernel_count: 0,
            log: VecDeque::new(),
            log_limit,
            shed: Totals::default(),
            stream_clock: vec![0.0],
            makespan: 0.0,
            active: Vec::new(),
            compute_slots: compute_slots.max(1),
            negative_charges: 0,
            overlap_saved_ns: 0.0,
            waited_ns: 0.0,
        }
    }

    fn ensure_stream(&mut self, stream: usize) {
        if stream >= self.stream_clock.len() {
            self.stream_clock.resize(stream + 1, 0.0);
        }
    }

    /// Append `ns` of simulated time in `phase` on the default stream.
    /// Returns the charge's start timestamp (the stream clock *before*
    /// the charge), so observers can reconstruct the timeline without
    /// re-locking.
    pub fn charge(&mut self, name: &'static str, phase: Phase, ns: f64) -> f64 {
        self.charge_scheduled(0, name, phase, ns, 0).start_ns
    }

    /// Append `ns` of simulated time in `phase` on `stream`, consuming
    /// `slots` compute slots for the charge's duration (0 for engine
    /// work — transfers and collectives — which never contends for
    /// SMs). Negative durations are clamped to zero and counted in
    /// [`Ledger::negative_charges`]. Returns the booked record — clamped
    /// duration and scheduled start — whether or not it is retained.
    ///
    /// Charges *issue* in call order — the record list, `kernel_count`
    /// and phase subtotals are schedule-independent — but the start
    /// timestamp is the earliest instant at which the stream is free
    /// and enough compute slots are available.
    pub fn charge_scheduled(
        &mut self,
        stream: usize,
        name: &'static str,
        phase: Phase,
        ns: f64,
        slots: u32,
    ) -> KernelRecord {
        self.book(stream, name, phase, ns, slots, (0.0, false))
    }

    /// [`Ledger::charge_scheduled`], logging with the record the DRAM
    /// bytes of its cost and whether serialized terms dominated it.
    pub(crate) fn book(
        &mut self,
        stream: usize,
        name: &'static str,
        phase: Phase,
        ns: f64,
        slots: u32,
        (dram_bytes, limited): (f64, bool),
    ) -> KernelRecord {
        let ns = if ns < 0.0 {
            self.negative_charges += 1;
            0.0
        } else {
            ns
        };
        self.ensure_stream(stream);
        let mut start = self.stream_clock[stream];
        if slots > 0 {
            // Retire intervals that end at or before the earliest
            // possible start, then delay the start until the requested
            // slots fit under the cap (a lone kernel always runs, even
            // if it asks for every slot).
            self.active.retain(|&(end, _)| end > start);
            loop {
                let used: u32 = self
                    .active
                    .iter()
                    .filter(|&&(end, _)| end > start)
                    .map(|&(_, s)| s)
                    .sum();
                if used == 0 || used + slots <= self.compute_slots {
                    break;
                }
                start = self
                    .active
                    .iter()
                    .filter(|&&(end, _)| end > start)
                    .map(|&(end, _)| end)
                    .fold(f64::INFINITY, f64::min);
            }
        }
        let end = start + ns;
        if slots > 0 && ns > 0.0 {
            self.active.push((end, slots));
        }
        self.stream_clock[stream] = end;
        let prev_makespan = self.makespan;
        if end > self.makespan {
            self.makespan = end;
        }
        if start > prev_makespan {
            // Held back past the device clock by a fence (only another
            // device's event lies beyond it): the gap is waiting, not
            // work, and the charge overlaps nothing.
            self.waited_ns += start - prev_makespan;
        } else {
            // The serial schedule would have finished this charge at
            // `prev_makespan + ns`; anything earlier is overlap savings.
            // On the default stream with no other streams in play the
            // two coincide exactly and the increment is 0.0.
            self.overlap_saved_ns += (prev_makespan + ns) - self.makespan;
        }

        let record = KernelRecord {
            name,
            phase,
            ns,
            start_ns: start,
            stream,
        };
        self.append(Entry::Charge {
            name,
            phase,
            ns,
            start_ns: start,
            stream: u32::try_from(stream).expect("stream ids fit in u32"),
            dram_bytes,
            limited,
        });
        *self.by_phase.entry(phase).or_insert(0.0) += ns;
        self.kernel_count += 1;
        record
    }

    /// Append `e` to the log, shedding the oldest entry into the running
    /// totals once the log holds `log_limit` entries.
    pub(crate) fn append(&mut self, e: Entry) {
        self.log.push_back(e);
        if self.log.len() > self.log_limit {
            let oldest = self.log.pop_front().expect("the log is not empty");
            self.shed.fold(&oldest);
        }
    }

    /// Fence the work issued to `stream` so far.
    pub fn record_event(&mut self, stream: usize) -> Event {
        self.ensure_stream(stream);
        Event {
            ns: self.stream_clock[stream],
        }
    }

    /// Make subsequent work on `stream` start no earlier than `event`.
    /// Waiting alone never advances the makespan — only work does.
    pub fn wait_event(&mut self, stream: usize, event: Event) {
        self.ensure_stream(stream);
        if event.ns > self.stream_clock[stream] {
            self.stream_clock[stream] = event.ns;
        }
    }

    /// Completion clock of `stream` (0 if the stream was never touched).
    pub fn stream_now(&self, stream: usize) -> f64 {
        self.stream_clock.get(stream).copied().unwrap_or(0.0)
    }

    /// Device-wide synchronization: every stream clock joins the
    /// makespan and all in-flight compute retires. Books no idle time —
    /// the device is busy as long as *any* stream is.
    pub fn sync_streams(&mut self) {
        for c in &mut self.stream_clock {
            if self.makespan > *c {
                *c = self.makespan;
            }
        }
        self.active.clear();
    }

    /// Raise the device clock to `target_ns`, booking the gap beyond
    /// the makespan as idle time (used by multi-device barriers). Every
    /// stream clock joins `target_ns` as well.
    pub fn advance_to(&mut self, target_ns: f64) {
        if target_ns > self.makespan {
            let gap = target_ns - self.makespan;
            self.makespan = target_ns;
            *self.by_phase.entry(Phase::Idle).or_insert(0.0) += gap;
        }
        for c in &mut self.stream_clock {
            if target_ns > *c {
                *c = target_ns;
            }
        }
        self.active.retain(|&(end, _)| end > target_ns);
    }

    /// Total simulated nanoseconds: the timeline makespan.
    pub fn total_ns(&self) -> f64 {
        self.makespan
    }

    /// Number of charges recorded (kernels + transfers + collectives).
    pub fn kernel_count(&self) -> u64 {
        self.kernel_count
    }

    /// Simulated nanoseconds spent in `phase`.
    pub fn phase_ns(&self, phase: Phase) -> f64 {
        self.by_phase.get(&phase).copied().unwrap_or(0.0)
    }

    /// The charges still in the log, oldest first.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.log.iter().filter_map(Entry::record).collect()
    }

    /// Charges shed from the log past its limit. Subtotals and
    /// `kernel_count` still include them.
    pub fn dropped_records(&self) -> u64 {
        self.shed.charges
    }

    /// Charges that arrived with a negative duration (clamped to zero).
    pub fn negative_charges(&self) -> u64 {
        self.negative_charges
    }

    /// Simulated nanoseconds saved by stream overlap versus the serial
    /// schedule of the same charges (0 on a serial timeline, never
    /// negative).
    pub fn overlap_saved_ns(&self) -> f64 {
        self.overlap_saved_ns
    }

    /// Simulated nanoseconds charges waited past the makespan on
    /// cross-device fences. The serial sum of the charges plus this
    /// equals the makespan plus [`Ledger::overlap_saved_ns`].
    pub fn waited_ns(&self) -> f64 {
        self.waited_ns
    }

    /// The compute-slot concurrency cap.
    pub fn compute_slots(&self) -> u32 {
        self.compute_slots
    }

    /// Snapshot of totals for reporting.
    pub fn summary(&self) -> LedgerSummary {
        LedgerSummary {
            total_ns: self.makespan,
            by_phase: self.by_phase.clone(),
            kernel_count: self.kernel_count,
            dropped_records: self.dropped_records(),
            negative_charges: self.negative_charges,
            overlap_saved_ns: self.overlap_saved_ns,
            waited_ns: self.waited_ns,
        }
    }

    /// Clear all accumulated time and the whole event log.
    pub fn reset(&mut self) {
        *self = Ledger::with_slots(self.log_limit, self.compute_slots);
    }
}

/// Immutable snapshot of a ledger, suitable for diffing before/after a
/// training phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LedgerSummary {
    /// Total simulated nanoseconds (timeline makespan).
    pub total_ns: f64,
    /// Per-phase simulated nanoseconds.
    pub by_phase: BTreeMap<Phase, f64>,
    /// Number of charges.
    pub kernel_count: u64,
    /// Charges shed from the event log past its limit (subtotals and
    /// `kernel_count` remain exact regardless).
    pub dropped_records: u64,
    /// Charges that arrived with a negative duration and were clamped
    /// to zero instead of corrupting the subtotals.
    pub negative_charges: u64,
    /// Simulated nanoseconds saved by stream overlap versus the serial
    /// schedule of the same charges.
    pub overlap_saved_ns: f64,
    /// Simulated nanoseconds charges waited past the makespan on
    /// cross-device fences: the phase subtotals plus this equal
    /// `total_ns + overlap_saved_ns`.
    pub waited_ns: f64,
}

impl LedgerSummary {
    /// Fraction of total time spent in `phase` (0 when total is 0).
    pub fn fraction(&self, phase: Phase) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.by_phase.get(&phase).copied().unwrap_or(0.0) / self.total_ns
        }
    }

    /// Difference `self − earlier`, phase-wise. Panics in debug builds if
    /// `earlier` is not actually earlier.
    pub fn since(&self, earlier: &LedgerSummary) -> LedgerSummary {
        debug_assert!(self.total_ns >= earlier.total_ns);
        let mut by_phase = self.by_phase.clone();
        for (phase, ns) in &earlier.by_phase {
            *by_phase.entry(*phase).or_insert(0.0) -= ns;
        }
        by_phase.retain(|_, v| *v > 1e-12);
        LedgerSummary {
            total_ns: self.total_ns - earlier.total_ns,
            by_phase,
            kernel_count: self.kernel_count - earlier.kernel_count,
            dropped_records: self.dropped_records - earlier.dropped_records,
            negative_charges: self.negative_charges - earlier.negative_charges,
            overlap_saved_ns: self.overlap_saved_ns - earlier.overlap_saved_ns,
            waited_ns: self.waited_ns - earlier.waited_ns,
        }
    }

    /// Render a fixed-width phase breakdown table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>12} {:>8}\n",
            "phase", "time (ms)", "share"
        ));
        for (phase, ns) in &self.by_phase {
            out.push_str(&format!(
                "{:<12} {:>12.3} {:>7.1}%\n",
                format!("{phase:?}"),
                ns * 1e-6,
                100.0 * ns / self.total_ns.max(1e-12)
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>7}\n",
            "total",
            self.total_ns * 1e-6,
            format!("{} kernels", self.kernel_count)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_phase() {
        let mut l = Ledger::new(16);
        l.charge("a", Phase::Histogram, 100.0);
        l.charge("b", Phase::Histogram, 50.0);
        l.charge("c", Phase::SplitEval, 25.0);
        assert_eq!(l.total_ns(), 175.0);
        assert_eq!(l.phase_ns(Phase::Histogram), 150.0);
        assert_eq!(l.phase_ns(Phase::SplitEval), 25.0);
        assert_eq!(l.phase_ns(Phase::Gradient), 0.0);
        assert_eq!(l.kernel_count(), 3);
    }

    #[test]
    fn record_limit_caps_detail_but_not_totals() {
        let mut l = Ledger::new(2);
        for _ in 0..10 {
            l.charge("k", Phase::Other, 1.0);
        }
        assert_eq!(l.records().len(), 2);
        assert_eq!(l.total_ns(), 10.0);
        assert_eq!(l.kernel_count(), 10);
        assert_eq!(l.dropped_records(), 8);
        assert_eq!(l.summary().dropped_records, 8);
    }

    #[test]
    fn capped_ledger_keeps_subtotals_exact_and_counts_overflow() {
        let mut l = Ledger::new(3);
        for i in 0..7 {
            l.charge("h", Phase::Histogram, 2.0 + i as f64);
        }
        l.charge("s", Phase::SplitEval, 1.5);
        // Phase subtotals exact despite 5 shed records.
        assert_eq!(
            l.phase_ns(Phase::Histogram),
            (0..7).map(|i| 2.0 + i as f64).sum()
        );
        assert_eq!(l.phase_ns(Phase::SplitEval), 1.5);
        assert_eq!(l.records().len(), 3);
        assert_eq!(l.dropped_records(), 5);
        // Reset clears the overflow counter too.
        l.reset();
        assert_eq!(l.dropped_records(), 0);
    }

    #[test]
    fn charge_returns_start_timestamp() {
        let mut l = Ledger::new(1);
        assert_eq!(l.charge("a", Phase::Other, 4.0), 0.0);
        // Returned start time is correct even past the record limit.
        assert_eq!(l.charge("b", Phase::Other, 6.0), 4.0);
        assert_eq!(l.charge("c", Phase::Other, 1.0), 10.0);
    }

    #[test]
    fn since_diffs_dropped_records() {
        let mut l = Ledger::new(1);
        l.charge("a", Phase::Other, 1.0);
        l.charge("b", Phase::Other, 1.0);
        let early = l.summary();
        l.charge("c", Phase::Other, 1.0);
        l.charge("d", Phase::Other, 1.0);
        let delta = l.summary().since(&early);
        assert_eq!(delta.dropped_records, 2);
    }

    #[test]
    fn a_log_entry_is_no_wider_than_a_record() {
        assert_eq!(
            std::mem::size_of::<Entry>(),
            std::mem::size_of::<KernelRecord>()
        );
    }

    #[test]
    fn records_carry_start_times() {
        let mut l = Ledger::new(8);
        l.charge("a", Phase::Other, 5.0);
        l.charge("b", Phase::Other, 7.0);
        assert_eq!(l.records()[0].start_ns, 0.0);
        assert_eq!(l.records()[1].start_ns, 5.0);
    }

    #[test]
    fn advance_to_books_idle() {
        let mut l = Ledger::new(0);
        l.charge("a", Phase::Other, 10.0);
        l.advance_to(25.0);
        assert_eq!(l.total_ns(), 25.0);
        assert_eq!(l.phase_ns(Phase::Idle), 15.0);
        // Advancing backwards is a no-op.
        l.advance_to(5.0);
        assert_eq!(l.total_ns(), 25.0);
    }

    #[test]
    fn summary_fraction_and_since() {
        let mut l = Ledger::new(0);
        l.charge("a", Phase::Histogram, 80.0);
        let early = l.summary();
        l.charge("b", Phase::SplitEval, 20.0);
        let late = l.summary();
        assert!((late.fraction(Phase::Histogram) - 0.8).abs() < 1e-12);
        let delta = late.since(&early);
        assert_eq!(delta.total_ns, 20.0);
        assert_eq!(delta.by_phase.get(&Phase::SplitEval), Some(&20.0));
        assert_eq!(delta.by_phase.get(&Phase::Histogram), None);
        assert_eq!(delta.kernel_count, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut l = Ledger::new(4);
        l.charge("a", Phase::Other, 1.0);
        l.reset();
        assert_eq!(l.total_ns(), 0.0);
        assert_eq!(l.kernel_count(), 0);
        assert!(l.records().is_empty());
    }

    #[test]
    fn table_renders() {
        let mut l = Ledger::new(0);
        l.charge("a", Phase::Histogram, 1e6);
        let t = l.summary().table();
        assert!(t.contains("Histogram"));
        assert!(t.contains("total"));
    }

    // --- stream / event / scheduling behavior ---

    #[test]
    fn negative_charge_is_clamped_and_counted() {
        let mut l = Ledger::new(4);
        l.charge("a", Phase::Histogram, 10.0);
        l.charge("bad", Phase::Histogram, -5.0);
        // Subtotals and the clock are uncorrupted; the clamp is counted.
        assert_eq!(l.total_ns(), 10.0);
        assert_eq!(l.phase_ns(Phase::Histogram), 10.0);
        assert_eq!(l.negative_charges(), 1);
        assert_eq!(l.summary().negative_charges, 1);
        // The clamped record exists with zero duration.
        assert_eq!(l.records()[1].ns, 0.0);
        // since() diffs the counter.
        let early = l.summary();
        l.charge("bad2", Phase::Other, -1.0);
        assert_eq!(l.summary().since(&early).negative_charges, 1);
    }

    #[test]
    fn independent_streams_overlap_and_makespan_is_max() {
        let mut l = Ledger::with_slots(16, 4);
        l.charge_scheduled(1, "a", Phase::Histogram, 100.0, 1);
        l.charge_scheduled(2, "b", Phase::Histogram, 60.0, 1);
        assert_eq!(l.total_ns(), 100.0);
        // Subtotals stay the exact charged sum.
        assert_eq!(l.phase_ns(Phase::Histogram), 160.0);
        assert_eq!(l.overlap_saved_ns(), 60.0);
        let recs = l.records();
        assert_eq!(recs[0].stream, 1);
        assert_eq!(recs[1].stream, 2);
        assert_eq!(recs[1].start_ns, 0.0);
    }

    #[test]
    fn default_stream_charges_keep_serial_clock_and_save_nothing() {
        let mut l = Ledger::with_slots(16, 6);
        let s0 = l.charge_scheduled(0, "a", Phase::Other, 7.0, 1).start_ns;
        let s1 = l.charge_scheduled(0, "b", Phase::Other, 3.0, 6).start_ns;
        assert_eq!(s0, 0.0);
        assert_eq!(s1, 7.0);
        assert_eq!(l.total_ns(), 10.0);
        assert_eq!(l.overlap_saved_ns(), 0.0);
    }

    #[test]
    fn compute_slot_cap_serializes_excess_kernels() {
        let mut l = Ledger::with_slots(16, 2);
        l.charge_scheduled(1, "a", Phase::Other, 10.0, 1);
        l.charge_scheduled(2, "b", Phase::Other, 10.0, 1);
        // Third co-resident kernel exceeds the 2-slot cap: it waits for
        // the earliest completion.
        let start = l.charge_scheduled(3, "c", Phase::Other, 10.0, 1).start_ns;
        assert_eq!(start, 10.0);
        assert_eq!(l.total_ns(), 20.0);
    }

    #[test]
    fn saturating_kernel_takes_every_slot() {
        let mut l = Ledger::with_slots(16, 4);
        // A saturating kernel (all 4 slots) runs alone…
        l.charge_scheduled(1, "big", Phase::Other, 100.0, 4);
        // …so a 1-slot kernel on another stream queues behind it.
        let start = l
            .charge_scheduled(2, "small", Phase::Other, 5.0, 1)
            .start_ns;
        assert_eq!(start, 100.0);
        // And a lone saturating kernel always runs even at used == 0.
        let mut solo = Ledger::with_slots(4, 2);
        assert_eq!(
            solo.charge_scheduled(1, "big", Phase::Other, 9.0, 7)
                .start_ns,
            0.0
        );
    }

    #[test]
    fn engine_charges_ignore_the_compute_cap() {
        let mut l = Ledger::with_slots(16, 1);
        l.charge_scheduled(1, "big", Phase::Histogram, 50.0, 1);
        // A transfer (0 slots) overlaps freely with saturated SMs.
        let start = l
            .charge_scheduled(2, "htod", Phase::Transfer, 30.0, 0)
            .start_ns;
        assert_eq!(start, 0.0);
        assert_eq!(l.total_ns(), 50.0);
    }

    #[test]
    fn events_order_cross_stream_work() {
        let mut l = Ledger::with_slots(16, 4);
        l.charge_scheduled(1, "producer", Phase::Histogram, 40.0, 1);
        let ev = l.record_event(1);
        assert_eq!(ev.ns(), 40.0);
        l.wait_event(2, ev);
        let start = l
            .charge_scheduled(2, "consumer", Phase::SplitEval, 10.0, 1)
            .start_ns;
        assert_eq!(start, 40.0);
        assert_eq!(l.total_ns(), 50.0);
        // Waiting on an already-passed fence is a no-op.
        l.wait_event(2, Event::at_ns(1.0));
        assert_eq!(l.stream_now(2), 50.0);
    }

    #[test]
    fn a_fence_past_the_clock_books_waiting_not_negative_overlap() {
        let mut l = Ledger::with_slots(16, 4);
        l.charge_scheduled(1, "build", Phase::Histogram, 40.0, 1);
        // Another device's event, 25 ns past this device's clock.
        l.wait_event(2, Event::at_ns(65.0));
        l.charge_scheduled(2, "collective", Phase::Comm, 10.0, 0);
        assert_eq!(l.total_ns(), 75.0);
        assert_eq!(l.waited_ns(), 25.0);
        assert_eq!(l.overlap_saved_ns(), 0.0);
        // Work inside the clock still overlaps.
        l.charge_scheduled(1, "next_build", Phase::Histogram, 20.0, 1);
        assert_eq!(l.overlap_saved_ns(), 20.0);
        let s = l.summary();
        assert_eq!(70.0 + s.waited_ns, s.total_ns + s.overlap_saved_ns);
    }

    #[test]
    fn event_helpers_compose() {
        let a = Event::at_ns(10.0);
        let b = Event::at_ns(25.0);
        assert_eq!(a.max(b).ns(), 25.0);
        assert_eq!(b.offset_ns(-5.0).ns(), 20.0);
        assert_eq!(a.offset_ns(-100.0).ns(), 0.0);
    }

    #[test]
    fn wait_alone_never_extends_the_makespan() {
        let mut l = Ledger::new(4);
        l.charge("a", Phase::Other, 10.0);
        l.wait_event(3, Event::at_ns(99.0));
        assert_eq!(l.total_ns(), 10.0);
        assert_eq!(l.stream_now(3), 99.0);
    }

    #[test]
    fn sync_joins_all_streams_without_idle() {
        let mut l = Ledger::with_slots(16, 4);
        l.charge_scheduled(0, "a", Phase::Other, 100.0, 1);
        l.charge_scheduled(1, "b", Phase::Other, 10.0, 1);
        l.sync_streams();
        assert_eq!(l.stream_now(1), 100.0);
        assert_eq!(l.total_ns(), 100.0);
        assert_eq!(l.phase_ns(Phase::Idle), 0.0);
        // Post-sync work on stream 1 starts at the joined clock.
        let start = l.charge_scheduled(1, "c", Phase::Other, 1.0, 1).start_ns;
        assert_eq!(start, 100.0);
    }

    #[test]
    fn advance_to_raises_every_stream_clock() {
        let mut l = Ledger::with_slots(16, 4);
        l.charge_scheduled(1, "a", Phase::Other, 10.0, 1);
        l.charge_scheduled(2, "b", Phase::Other, 30.0, 1);
        l.advance_to(50.0);
        assert_eq!(l.stream_now(1), 50.0);
        assert_eq!(l.stream_now(2), 50.0);
        assert_eq!(l.phase_ns(Phase::Idle), 20.0);
        assert_eq!(l.total_ns(), 50.0);
    }

    #[test]
    fn overlap_saved_equals_serial_sum_minus_makespan() {
        let mut l = Ledger::with_slots(64, 3);
        let durations = [30.0, 10.0, 25.0, 5.0, 40.0, 1.0];
        let mut serial_sum = 0.0;
        for (i, &d) in durations.iter().enumerate() {
            l.charge_scheduled(1 + (i % 3), "k", Phase::Other, d, 1);
            serial_sum += d;
        }
        let saved = l.overlap_saved_ns();
        assert!((saved - (serial_sum - l.total_ns())).abs() < 1e-9);
        assert!(saved > 0.0);
    }
}
