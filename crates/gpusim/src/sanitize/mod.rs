//! `gpusim-sanitizer` — racecheck / memcheck / determinism auditing for
//! simulated kernels, the simulator's analogue of CUDA's
//! `compute-sanitizer`.
//!
//! On real hardware the paper's core correctness claim — three
//! atomics-heavy histogram builders producing bit-equivalent results —
//! is policed by `compute-sanitizer` (racecheck/memcheck). This module
//! provides the same policing for the simulated substrate:
//!
//! * **memcheck** — every declared access is validated at record time:
//!   out-of-bounds offsets and reads of never-written ("uninitialized")
//!   words are flagged immediately ([`ViolationKind::OutOfBounds`],
//!   [`ViolationKind::UninitializedRead`]).
//! * **racecheck** — when a kernel scope ends, its access log is
//!   analyzed for write-write and read-write conflicts between
//!   *different blocks*, and between lanes of the same warp when the
//!   access was not declared [`AccessKind::Atomic`]. Atomics are the
//!   escape hatch: a kernel that *declares* its histogram updates atomic
//!   gets them **verified** (atomic+atomic collisions are legal;
//!   atomic+plain-write collisions are not) rather than trusted.
//! * **determinism audit** — [`replay`] runs a kernel (or a whole
//!   training round) twice on fresh devices and diffs both the
//!   functional output digest and the charged [`crate::KernelRecord`]s,
//!   catching nondeterministic cost accounting.
//!
//! Kernels feed the access log through the shadow recorder
//! ([`KernelScope::register`] / [`KernelScope::touch`]): each kernel
//! keeps its functional path untouched and *declares* the access pattern
//! its launch geometry implies. This is how `gbdt-core`'s histogram,
//! partition and leaf-value kernels are wired (their functional
//! execution is a deterministic host fold, but the declared pattern
//! mirrors what the real CUDA kernel would issue).
//!
//! Enabling the sanitizer never charges the ledger and never perturbs
//! functional results: with [`SanitizeMode::Off`] (the default) the
//! entire subsystem is a `None` check at each kernel boundary.

pub mod racecheck;
pub mod replay;

pub use replay::{audit_determinism, digest_f32s, ReplayReport};

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// What the sanitizer checks. `Off` is free; every other mode records
/// the declared access stream of sanitized kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No checking, no recording (the default).
    #[default]
    Off,
    /// Bounds + initialized-read checking only.
    Memcheck,
    /// Inter-block / intra-warp conflict detection only.
    Racecheck,
    /// Both memcheck and racecheck.
    Full,
}

impl SanitizeMode {
    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        self != SanitizeMode::Off
    }

    /// Whether bounds / initialized-read checks run.
    pub fn memcheck(self) -> bool {
        matches!(self, SanitizeMode::Memcheck | SanitizeMode::Full)
    }

    /// Whether conflict analysis runs at kernel end.
    pub fn racecheck(self) -> bool {
        matches!(self, SanitizeMode::Racecheck | SanitizeMode::Full)
    }
}

/// How a simulated thread touched a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store. Conflicting plain stores are a data race.
    Write,
    /// Declared read-modify-write atomic (`atomicAdd` and friends).
    /// Collisions between atomics are legal; the declaration is what
    /// racecheck verifies instead of trusts.
    Atomic,
}

/// Which address space a buffer lives in. [`MemSpace::Shared`] buffers
/// are per-block (each block owns a private copy), so racecheck only
/// applies intra-block checks to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemSpace {
    /// Device-global memory, visible to every block.
    Global,
    /// Per-block shared memory (48 KB scratchpad).
    Shared,
}

/// Simulated coordinates of the accessing thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Block index within the grid.
    pub block: u32,
    /// Thread index within the block.
    pub thread: u32,
}

impl ThreadCtx {
    /// Coordinates of global thread `tid` under `block_threads`-wide
    /// blocks.
    pub fn from_global(tid: usize, block_threads: usize) -> Self {
        let bt = block_threads.max(1);
        ThreadCtx {
            block: (tid / bt) as u32,
            thread: (tid % bt) as u32,
        }
    }
}

/// One logged access: who touched which word of which buffer, and how.
#[derive(Debug, Clone, Copy)]
pub struct AccessRecord {
    /// Scope-local buffer id (from [`KernelScope::register`]).
    pub buffer: u32,
    /// Accessing block.
    pub block: u32,
    /// Accessing thread within the block.
    pub thread: u32,
    /// Element offset within the buffer.
    pub offset: u32,
    /// Access kind.
    pub kind: AccessKind,
}

/// Category of a sanitizer finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// Offset beyond the registered buffer length.
    OutOfBounds,
    /// Read of a word no prior access in this kernel initialized (and
    /// the buffer was registered uninitialized).
    UninitializedRead,
    /// Two non-atomic-compatible writes to the same word from different
    /// blocks (or a declared atomic colliding with a plain write).
    WriteWriteRace,
    /// A read and a write of the same word from different blocks.
    ReadWriteRace,
    /// Lanes of the same warp touching the same word where at least one
    /// access is a plain write.
    IntraWarpRace,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::OutOfBounds => "out-of-bounds",
            ViolationKind::UninitializedRead => "uninitialized-read",
            ViolationKind::WriteWriteRace => "write-write-race",
            ViolationKind::ReadWriteRace => "read-write-race",
            ViolationKind::IntraWarpRace => "intra-warp-race",
        };
        f.write_str(s)
    }
}

/// One aggregated sanitizer finding: all offending words of one
/// `(kernel, buffer, kind)` triple collapse into a single violation with
/// a count and a representative example, keeping reports readable.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Kernel in whose scope the violation occurred.
    pub kernel: &'static str,
    /// Registered label of the offending buffer.
    pub buffer: &'static str,
    /// Violation category.
    pub kind: ViolationKind,
    /// Number of offending words/accesses collapsed into this entry.
    pub count: u64,
    /// Human-readable example (first offending access).
    pub example: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} in `{}` buffer `{}` ×{}: {}",
            self.kind, self.kernel, self.buffer, self.count, self.example
        )
    }
}

/// Per-kernel access telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Number of sanitized scopes run under this kernel name.
    pub launches: u64,
    /// Declared accesses recorded (after sampling caps, if the tracer
    /// samples).
    pub accesses: u64,
    /// Subset of accesses declared atomic.
    pub atomics: u64,
    /// Violations attributed to this kernel.
    pub violations: u64,
}

/// Snapshot of everything the sanitizer saw.
#[derive(Debug, Clone)]
pub struct SanitizeReport {
    /// Mode the sanitizer ran in.
    pub mode: SanitizeMode,
    /// Per-kernel telemetry, keyed by kernel name.
    pub kernels: BTreeMap<&'static str, KernelStats>,
    /// All findings, in detection order.
    pub violations: Vec<Violation>,
    /// Total accesses recorded across all kernels.
    pub total_accesses: u64,
    /// Accesses dropped because a single kernel exceeded the log cap
    /// (racecheck still ran on the retained prefix).
    pub dropped_accesses: u64,
}

impl SanitizeReport {
    /// Whether the run was clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render a fixed-width report table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>8} {:>12} {:>12} {:>6}\n",
            "kernel", "launches", "accesses", "atomics", "viol"
        ));
        for (name, s) in &self.kernels {
            out.push_str(&format!(
                "{:<26} {:>8} {:>12} {:>12} {:>6}\n",
                name, s.launches, s.accesses, s.atomics, s.violations
            ));
        }
        out.push_str(&format!(
            "total accesses {} (dropped {})\n",
            self.total_accesses, self.dropped_accesses
        ));
        if self.violations.is_empty() {
            out.push_str("violations: none\n");
        } else {
            out.push_str(&format!("violations: {}\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("  {v}\n"));
            }
        }
        out
    }
}

/// Registered-buffer metadata (scope-local).
#[derive(Debug)]
pub(crate) struct BufferMeta {
    pub(crate) label: &'static str,
    pub(crate) len: usize,
    pub(crate) space: MemSpace,
    /// Shadow init bitmap; `None` when the buffer was registered as
    /// fully initialized (init tracking disabled).
    pub(crate) init: Option<Vec<bool>>,
}

/// State of the kernel scope currently recording.
#[derive(Debug, Default)]
struct ScopeState {
    name: &'static str,
    buffers: Vec<BufferMeta>,
    log: Vec<AccessRecord>,
    dropped: u64,
    atomics: u64,
}

#[derive(Debug)]
struct Inner {
    mode: SanitizeMode,
    warp_size: u32,
    current: Option<ScopeState>,
    violations: Vec<Violation>,
    kernels: BTreeMap<&'static str, KernelStats>,
    total_accesses: u64,
    dropped_accesses: u64,
}

/// Maximum retained accesses per kernel scope. Beyond this the log
/// stops growing (memcheck still runs per record; racecheck covers the
/// retained prefix) so sanitized runs stay memory-bounded.
pub const MAX_SCOPE_LOG: usize = 1 << 22;

/// The recording/checking engine, attached to a [`crate::Device`] via
/// [`crate::Device::enable_sanitizer`]. Thread-safe: block-parallel
/// kernels may record concurrently (the log order between blocks is
/// irrelevant to racecheck, which groups by word, not by time).
#[derive(Debug)]
pub struct Sanitizer {
    inner: Mutex<Inner>,
}

impl Sanitizer {
    /// Create a sanitizer in `mode` for a device with `warp_size`-lane
    /// warps.
    pub fn new(mode: SanitizeMode, warp_size: u32) -> Self {
        Sanitizer {
            inner: Mutex::new(Inner {
                mode,
                warp_size: warp_size.max(1),
                current: None,
                violations: Vec::new(),
                kernels: BTreeMap::new(),
                total_accesses: 0,
                dropped_accesses: 0,
            }),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SanitizeMode {
        self.inner.lock().mode
    }

    /// Open a kernel scope. Accesses recorded until the scope is closed
    /// (dropped) are attributed to `name` and race-checked together.
    /// Scopes must not nest; opening a scope while one is active closes
    /// the active one first (simulated kernels are launched on one
    /// in-order stream).
    pub fn scope<'a>(&'a self, name: &'static str) -> KernelScope<'a> {
        let mut inner = self.inner.lock();
        if inner.current.is_some() {
            Self::close_scope(&mut inner);
        }
        inner.current = Some(ScopeState {
            name,
            ..Default::default()
        });
        inner.kernels.entry(name).or_default().launches += 1;
        KernelScope { san: self }
    }

    /// Register a buffer with the active scope, returning its id.
    /// `initialized` buffers skip uninitialized-read tracking.
    fn register(&self, label: &'static str, len: usize, space: MemSpace, initialized: bool) -> u32 {
        let mut inner = self.inner.lock();
        let track = inner.mode.memcheck() && !initialized;
        let scope = inner.current.as_mut().expect("no active kernel scope");
        scope.buffers.push(BufferMeta {
            label,
            len,
            space,
            init: track.then(|| vec![false; len]),
        });
        (scope.buffers.len() - 1) as u32
    }

    /// Record one access in the active scope (memcheck runs
    /// immediately; the record feeds racecheck at scope end).
    fn record(&self, buffer: u32, ctx: ThreadCtx, offset: usize, kind: AccessKind) {
        let mut inner = self.inner.lock();
        let mode = inner.mode;
        if !mode.enabled() {
            return;
        }
        let Some(scope) = inner.current.as_mut() else {
            return;
        };
        let name = scope.name;
        let meta = &mut scope.buffers[buffer as usize];
        let mut violation: Option<Violation> = None;
        if offset >= meta.len {
            if mode.memcheck() {
                violation = Some(Violation {
                    kernel: name,
                    buffer: meta.label,
                    kind: ViolationKind::OutOfBounds,
                    count: 1,
                    example: format!(
                        "block {} thread {} {:?} offset {} ≥ len {}",
                        ctx.block, ctx.thread, kind, offset, meta.len
                    ),
                });
            }
        } else if let Some(init) = meta.init.as_mut() {
            match kind {
                AccessKind::Read => {
                    if !init[offset] {
                        violation = Some(Violation {
                            kernel: name,
                            buffer: meta.label,
                            kind: ViolationKind::UninitializedRead,
                            count: 1,
                            example: format!(
                                "block {} thread {} read of never-written offset {}",
                                ctx.block, ctx.thread, offset
                            ),
                        });
                    }
                }
                AccessKind::Write | AccessKind::Atomic => init[offset] = true,
            }
        }
        // Log (bounded) for racecheck; OOB records are excluded from
        // the conflict analysis (already reported, and they index
        // nothing real).
        if offset < meta.len {
            if scope.log.len() < MAX_SCOPE_LOG {
                scope.log.push(AccessRecord {
                    buffer,
                    block: ctx.block,
                    thread: ctx.thread,
                    offset: offset as u32,
                    kind,
                });
            } else {
                scope.dropped += 1;
            }
        }
        if kind == AccessKind::Atomic {
            scope.atomics += 1;
        }
        inner.total_accesses += 1;
        if let Some(v) = violation {
            push_aggregated(&mut inner.violations, v);
            inner.kernels.entry(name).or_default().violations += 1;
        }
    }

    /// Close the active scope: run racecheck on its log and fold its
    /// telemetry into the per-kernel stats.
    fn end_scope(&self) {
        let mut inner = self.inner.lock();
        Self::close_scope(&mut inner);
    }

    fn close_scope(inner: &mut Inner) {
        let Some(scope) = inner.current.take() else {
            return;
        };
        let stats = inner.kernels.entry(scope.name).or_default();
        stats.accesses += scope.log.len() as u64 + scope.dropped;
        stats.atomics += scope.atomics;
        inner.dropped_accesses += scope.dropped;
        if inner.mode.racecheck() {
            let mut found = Vec::new();
            racecheck::analyze(
                scope.name,
                &scope.log,
                &scope.buffers,
                inner.warp_size,
                &mut found,
            );
            inner.kernels.entry(scope.name).or_default().violations += found.len() as u64;
            for v in found {
                push_aggregated(&mut inner.violations, v);
            }
        }
    }

    /// Violations found so far (aggregated per kernel/buffer/kind).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner.lock().violations.clone()
    }

    /// Full report snapshot.
    pub fn report(&self) -> SanitizeReport {
        let mut inner = self.inner.lock();
        // A dangling scope (kernel without explicit end) is closed first
        // so its accesses are not silently lost.
        Self::close_scope(&mut inner);
        SanitizeReport {
            mode: inner.mode,
            kernels: inner.kernels.clone(),
            violations: inner.violations.clone(),
            total_accesses: inner.total_accesses,
            dropped_accesses: inner.dropped_accesses,
        }
    }
}

/// Aggregate `v` into `list`: same `(kernel, buffer, kind)` entries
/// merge, bumping the count and keeping the first example.
fn push_aggregated(list: &mut Vec<Violation>, v: Violation) {
    if let Some(existing) = list
        .iter_mut()
        .find(|e| e.kernel == v.kernel && e.buffer == v.buffer && e.kind == v.kind)
    {
        existing.count += v.count;
    } else {
        list.push(v);
    }
}

/// RAII handle over one sanitized kernel: register buffers, touch
/// words, and let the drop run racecheck.
pub struct KernelScope<'a> {
    san: &'a Sanitizer,
}

impl<'a> KernelScope<'a> {
    /// Register a buffer for this kernel; `initialized` marks it fully
    /// written before the kernel starts (skips uninit tracking).
    pub fn register(
        &self,
        label: &'static str,
        len: usize,
        space: MemSpace,
        initialized: bool,
    ) -> u32 {
        self.san.register(label, len, space, initialized)
    }

    /// Declare one access of `buffer` by thread `ctx`.
    pub fn touch(&self, buffer: u32, ctx: ThreadCtx, offset: usize, kind: AccessKind) {
        self.san.record(buffer, ctx, offset, kind);
    }
}

impl Drop for KernelScope<'_> {
    fn drop(&mut self) {
        self.san.end_scope();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(block: u32, thread: u32) -> ThreadCtx {
        ThreadCtx { block, thread }
    }

    #[test]
    fn mode_flags() {
        assert!(!SanitizeMode::Off.enabled());
        assert!(SanitizeMode::Memcheck.memcheck() && !SanitizeMode::Memcheck.racecheck());
        assert!(!SanitizeMode::Racecheck.memcheck() && SanitizeMode::Racecheck.racecheck());
        assert!(SanitizeMode::Full.memcheck() && SanitizeMode::Full.racecheck());
    }

    #[test]
    fn oob_and_uninit_reads_are_flagged() {
        let san = Sanitizer::new(SanitizeMode::Full, 32);
        {
            let scope = san.scope("k");
            let b = scope.register("buf", 4, MemSpace::Global, false);
            scope.touch(b, t(0, 0), 9, AccessKind::Write); // OOB
            scope.touch(b, t(0, 1), 2, AccessKind::Read); // uninit
            scope.touch(b, t(0, 2), 3, AccessKind::Write);
            scope.touch(b, t(0, 2), 3, AccessKind::Read); // fine: written above
        }
        let r = san.report();
        let kinds: Vec<ViolationKind> = r.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::OutOfBounds), "{kinds:?}");
        assert!(
            kinds.contains(&ViolationKind::UninitializedRead),
            "{kinds:?}"
        );
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
    }

    #[test]
    fn memcheck_flags_out_of_bounds_reads_and_writes() {
        let san = Sanitizer::new(SanitizeMode::Memcheck, 32);
        {
            let scope = san.scope("oob");
            let b = scope.register("data", 3, MemSpace::Global, true);
            scope.touch(b, t(0, 0), 10, AccessKind::Read);
            scope.touch(b, t(0, 1), 5, AccessKind::Write);
        }
        let r = san.report();
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].kind, ViolationKind::OutOfBounds);
        assert_eq!(r.violations[0].count, 2);
    }

    #[test]
    fn disjoint_writes_across_blocks_are_clean() {
        let san = Sanitizer::new(SanitizeMode::Full, 32);
        {
            let scope = san.scope("scale2");
            let input = scope.register("input", 4, MemSpace::Global, true);
            let output = scope.register("output", 4, MemSpace::Global, false);
            for i in 0..4 {
                let ctx = t(i as u32 / 2, i as u32 % 2);
                scope.touch(input, ctx, i, AccessKind::Read);
                scope.touch(output, ctx, i, AccessKind::Write);
            }
        }
        let r = san.report();
        assert!(r.is_clean(), "disjoint writes must be clean: {r:?}");
        assert_eq!(r.total_accesses, 8);
    }

    #[test]
    fn initialized_buffers_skip_uninit_tracking() {
        let san = Sanitizer::new(SanitizeMode::Full, 32);
        {
            let scope = san.scope("k");
            let b = scope.register("buf", 4, MemSpace::Global, true);
            scope.touch(b, t(0, 0), 2, AccessKind::Read);
        }
        assert!(san.report().is_clean());
    }

    #[test]
    fn violations_aggregate_per_kernel_buffer_kind() {
        let san = Sanitizer::new(SanitizeMode::Full, 32);
        {
            let scope = san.scope("k");
            let b = scope.register("buf", 2, MemSpace::Global, true);
            for i in 0..10 {
                scope.touch(b, t(0, i), 5 + i as usize, AccessKind::Write);
            }
        }
        let r = san.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].count, 10);
        assert_eq!(r.kernels["k"].violations, 10);
    }

    #[test]
    fn report_counts_accesses_and_atomics() {
        let san = Sanitizer::new(SanitizeMode::Racecheck, 32);
        {
            let scope = san.scope("hist");
            let b = scope.register("h", 16, MemSpace::Global, true);
            scope.touch(b, t(0, 0), 1, AccessKind::Atomic);
            scope.touch(b, t(1, 0), 1, AccessKind::Atomic);
            scope.touch(b, t(2, 0), 2, AccessKind::Read);
        }
        let r = san.report();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.kernels["hist"].launches, 1);
        assert_eq!(r.kernels["hist"].accesses, 3);
        assert_eq!(r.kernels["hist"].atomics, 2);
        assert_eq!(r.total_accesses, 3);
        assert!(r.table().contains("hist"));
    }

    #[test]
    fn off_mode_records_nothing() {
        let san = Sanitizer::new(SanitizeMode::Off, 32);
        {
            let scope = san.scope("k");
            let b = scope.register("buf", 1, MemSpace::Global, true);
            scope.touch(b, t(0, 0), 99, AccessKind::Write);
        }
        let r = san.report();
        assert!(r.is_clean());
        assert_eq!(r.total_accesses, 0);
    }

    #[test]
    fn thread_ctx_from_global() {
        let c = ThreadCtx::from_global(600, 256);
        assert_eq!((c.block, c.thread), (2, 88));
        let z = ThreadCtx::from_global(3, 0); // degenerate block width
        assert_eq!((z.block, z.thread), (3, 0));
    }
}
