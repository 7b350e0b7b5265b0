//! Analytical cost model for simulated kernels.
//!
//! The model is roofline-shaped: a kernel's execution time is the maximum
//! of its compute time and its DRAM time, plus serialization terms that
//! cannot overlap (atomic replay, shared-memory bank conflicts) and a
//! fixed launch overhead. All throughput parameters live in
//! [`CostParams`]; the defaults approximate an NVIDIA RTX 4090, the
//! device used in the paper's evaluation.
//!
//! The purpose of the model is *shape fidelity*, not cycle accuracy: time
//! must be monotone in the quantities the paper's experiments vary
//! (instances, features, outputs, bins, atomic contention, coalescing
//! width, number of devices) with realistic relative magnitudes.

use serde::{Deserialize, Serialize};

/// Throughput and latency parameters of the modeled device.
///
/// Defaults approximate an RTX 4090 (Ada, AD102): 128 SMs × 128 FP32
/// lanes at ~2.5 GHz, ~1 TB/s GDDR6X, 48 KiB opt-in shared memory per
/// block with 32 banks, PCIe 4.0 x16 host link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// FP32 lanes per SM (throughput cores, not tensor cores).
    pub cores_per_sm: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Threads per warp.
    pub warp_size: u32,
    /// Usable shared memory per thread block in bytes.
    pub smem_per_block: usize,
    /// Number of shared-memory banks (words are interleaved across them).
    pub smem_banks: u32,
    /// Sustained DRAM bandwidth in bytes/second.
    pub dram_bw: f64,
    /// Minimum global-memory transaction (L2 sector) size in bytes.
    pub sector_bytes: u32,
    /// Aggregate global-memory atomic throughput in ops/second when
    /// accesses are spread across addresses (L2 atomic units).
    pub gmem_atomic_ops_per_sec: f64,
    /// Extra cost of one replayed (serialized) global atomic, seconds.
    pub gmem_atomic_replay_sec: f64,
    /// Aggregate shared-memory atomic throughput in ops/second across
    /// all SMs when accesses are conflict-free.
    pub smem_atomic_ops_per_sec: f64,
    /// Extra cost of one replayed shared-memory atomic, seconds.
    pub smem_atomic_replay_sec: f64,
    /// Fixed kernel launch overhead in seconds (driver + grid setup).
    pub launch_overhead_sec: f64,
    /// Radix sort throughput, 32-bit keys/second (CUB-class).
    pub sort_keys_per_sec: f64,
    /// Host link (PCIe) bandwidth in bytes/second for H2D/D2H copies.
    pub pcie_bw: f64,
    /// Peer-to-peer link bandwidth in bytes/second (4090 has no NVLink;
    /// P2P goes over PCIe).
    pub p2p_bw: f64,
    /// Per-message latency of a collective hop in seconds.
    pub p2p_latency_sec: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self::rtx4090()
    }
}

impl CostParams {
    /// Parameters approximating an NVIDIA RTX 4090.
    pub fn rtx4090() -> Self {
        CostParams {
            sm_count: 128,
            cores_per_sm: 128,
            clock_ghz: 2.52,
            warp_size: 32,
            smem_per_block: 48 * 1024,
            smem_banks: 32,
            dram_bw: 1.008e12,
            sector_bytes: 32,
            gmem_atomic_ops_per_sec: 1.5e11,
            gmem_atomic_replay_sec: 1.0e-10,
            smem_atomic_ops_per_sec: 6.0e11,
            smem_atomic_replay_sec: 1.0 / 6.4e10,
            launch_overhead_sec: 1.2e-6,
            sort_keys_per_sec: 3.0e9,
            pcie_bw: 2.5e10,
            p2p_bw: 2.2e10,
            p2p_latency_sec: 2.0e-6,
        }
    }

    /// Parameters approximating an NVIDIA RTX 3090 (used by the paper's
    /// sensitivity study, §4.3): 82 SMs, ~936 GB/s, 1.70 GHz boost.
    pub fn rtx3090() -> Self {
        CostParams {
            sm_count: 82,
            cores_per_sm: 128,
            clock_ghz: 1.70,
            dram_bw: 9.36e11,
            ..Self::rtx4090()
        }
    }

    /// Parameters approximating an NVIDIA A100-SXM4-80GB: 108 SMs at
    /// 1.41 GHz, ~1.95 TB/s HBM2e, NVLink peers.
    pub fn a100() -> Self {
        CostParams {
            sm_count: 108,
            cores_per_sm: 64,
            clock_ghz: 1.41,
            dram_bw: 1.95e12,
            p2p_bw: 2.4e11, // NVLink 3
            p2p_latency_sec: 1.0e-6,
            ..Self::rtx4090()
        }
    }

    /// Parameters approximating an NVIDIA H100-SXM5: 132 SMs at
    /// 1.98 GHz, ~3.35 TB/s HBM3, NVLink 4 peers.
    pub fn h100() -> Self {
        CostParams {
            sm_count: 132,
            cores_per_sm: 128,
            clock_ghz: 1.98,
            dram_bw: 3.35e12,
            gmem_atomic_ops_per_sec: 3.0e11,
            smem_atomic_ops_per_sec: 1.2e12,
            p2p_bw: 4.5e11, // NVLink 4
            p2p_latency_sec: 1.0e-6,
            ..Self::rtx4090()
        }
    }

    /// Total FP32 throughput in operations/second.
    pub fn flops(&self) -> f64 {
        self.sm_count as f64 * self.cores_per_sm as f64 * self.clock_ghz * 1e9
    }
}

/// Work descriptor for one kernel launch, filled in by each primitive
/// from the *actual* work it performed.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelCost {
    /// Total arithmetic operations executed across all threads.
    pub flops: f64,
    /// Effective DRAM traffic in bytes *after* the coalescing model:
    /// number of distinct sectors touched × sector size, or plain bytes
    /// for streaming access.
    pub dram_bytes: f64,
    /// Global-memory atomic operations issued.
    pub gmem_atomics: f64,
    /// Extra replayed global atomics caused by intra-warp address
    /// collisions (excess over one op per distinct address per warp).
    pub gmem_atomic_replays: f64,
    /// Shared-memory atomic operations issued.
    pub smem_atomics: f64,
    /// Extra replayed shared-memory atomics caused by bank conflicts.
    pub smem_atomic_replays: f64,
    /// 32-bit keys processed by a radix sort inside this kernel.
    pub sort_keys: f64,
    /// Number of device-side kernel launches this logical operation
    /// corresponds to (e.g. a multi-pass radix sort is several).
    pub launches: f64,
}

impl KernelCost {
    /// A pure streaming kernel: `flops` arithmetic ops and `bytes` of
    /// perfectly coalesced DRAM traffic, one launch.
    pub fn streaming(flops: f64, bytes: f64) -> Self {
        KernelCost {
            flops,
            dram_bytes: bytes,
            launches: 1.0,
            ..Default::default()
        }
    }

    /// Merge two cost descriptors (summing all terms, including
    /// launches). Useful when a logical phase issues several kernels.
    pub fn merged(mut self, other: &KernelCost) -> Self {
        self.flops += other.flops;
        self.dram_bytes += other.dram_bytes;
        self.gmem_atomics += other.gmem_atomics;
        self.gmem_atomic_replays += other.gmem_atomic_replays;
        self.smem_atomics += other.smem_atomics;
        self.smem_atomic_replays += other.smem_atomic_replays;
        self.sort_keys += other.sort_keys;
        self.launches += other.launches;
        self
    }
}

/// The cost model: converts [`KernelCost`] descriptors to nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Device throughput/latency parameters.
    pub params: CostParams,
}

impl CostModel {
    /// Build a model over the given parameters.
    pub fn new(params: CostParams) -> Self {
        CostModel { params }
    }

    /// Time for one kernel, in nanoseconds.
    ///
    /// `max(compute, dram)` captures overlap of arithmetic and memory;
    /// atomic and sort terms are serialized on dedicated units and are
    /// added on top together with per-launch overhead.
    pub fn kernel_ns(&self, c: &KernelCost) -> f64 {
        let p = &self.params;
        let compute = c.flops / p.flops();
        let dram = c.dram_bytes / p.dram_bw;
        let gmem_atomic = c.gmem_atomics / p.gmem_atomic_ops_per_sec
            + c.gmem_atomic_replays * p.gmem_atomic_replay_sec;
        let smem_atomic = c.smem_atomics / p.smem_atomic_ops_per_sec
            + c.smem_atomic_replays * p.smem_atomic_replay_sec;
        let sort = c.sort_keys / p.sort_keys_per_sec;
        let launches = c.launches.max(if c.flops > 0.0 || c.dram_bytes > 0.0 {
            1.0
        } else {
            0.0
        });
        let secs =
            compute.max(dram) + gmem_atomic + smem_atomic + sort + launches * p.launch_overhead_sec;
        secs * 1e9
    }

    /// True when a launch's serialized terms (atomics, replays, sort,
    /// launch overhead) exceed its overlapped streaming time
    /// `max(compute, dram)` — i.e. the kernel is limited by
    /// serialization/occupancy rather than raw throughput. Used for the
    /// profiler's occupancy-limited flag; deliberately *not* shared
    /// with [`CostModel::kernel_ns`] so the charged time's float
    /// summation order stays untouched.
    pub fn serialization_limited(&self, c: &KernelCost) -> bool {
        let p = &self.params;
        let streaming = (c.flops / p.flops()).max(c.dram_bytes / p.dram_bw);
        let serialized = c.gmem_atomics / p.gmem_atomic_ops_per_sec
            + c.gmem_atomic_replays * p.gmem_atomic_replay_sec
            + c.smem_atomics / p.smem_atomic_ops_per_sec
            + c.smem_atomic_replays * p.smem_atomic_replay_sec
            + c.sort_keys / p.sort_keys_per_sec
            + c.launches * p.launch_overhead_sec;
        serialized > streaming
    }

    /// True when a launch's streaming work `max(compute, dram)` exceeds
    /// one kernel-launch overhead — i.e. the grid is large enough to
    /// fill the SMs for longer than it takes to launch it. The stream
    /// scheduler uses this to size a kernel's compute-slot footprint:
    /// a saturating kernel takes every slot (co-resident compute
    /// serializes behind it, as on real hardware), while a small
    /// launch-bound kernel takes one slot and overlaps with siblings.
    /// Deliberately *not* shared with [`CostModel::kernel_ns`] so the
    /// charged time's float summation order stays untouched.
    pub fn saturates_device(&self, c: &KernelCost) -> bool {
        let p = &self.params;
        let streaming = (c.flops / p.flops()).max(c.dram_bytes / p.dram_bw);
        streaming > p.launch_overhead_sec
    }

    /// Time to move `bytes` across the host link (H2D or D2H), ns.
    pub fn host_copy_ns(&self, bytes: f64) -> f64 {
        (bytes / self.params.pcie_bw + self.params.p2p_latency_sec) * 1e9
    }

    /// Time for a ring all-reduce of `bytes` per device over `k`
    /// devices, ns. Standard α–β model: `2(k−1)/k · bytes / bw` plus
    /// `2(k−1)` hop latencies.
    pub fn ring_all_reduce_ns(&self, bytes: f64, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let kf = k as f64;
        let transfer = 2.0 * (kf - 1.0) / kf * bytes / self.params.p2p_bw;
        let latency = 2.0 * (kf - 1.0) * self.params.p2p_latency_sec;
        (transfer + latency) * 1e9
    }

    /// Time for a ring reduce-scatter of `bytes` per device over `k`
    /// devices, ns: each rank ends with the reduced `1/k` slice.
    /// `(k−1)/k · bytes / bw` plus `k−1` hop latencies — the first half
    /// of [`CostModel::ring_all_reduce_ns`], whose second half is an
    /// all-gather of the `bytes / k` slices.
    pub fn ring_reduce_scatter_ns(&self, bytes: f64, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let kf = k as f64;
        let transfer = (kf - 1.0) / kf * bytes / self.params.p2p_bw;
        let latency = (kf - 1.0) * self.params.p2p_latency_sec;
        (transfer + latency) * 1e9
    }

    /// Time for an all-gather where each of `k` devices contributes
    /// `bytes_per_rank`, ns.
    pub fn all_gather_ns(&self, bytes_per_rank: f64, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let kf = k as f64;
        let transfer = (kf - 1.0) * bytes_per_rank / self.params.p2p_bw;
        let latency = (kf - 1.0) * self.params.p2p_latency_sec;
        (transfer + latency) * 1e9
    }

    /// Time to broadcast `bytes` from one device to the other `k-1`, ns.
    pub fn broadcast_ns(&self, bytes: f64, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        // Tree broadcast: ceil(log2 k) hops of the full payload.
        let hops = (k as f64).log2().ceil();
        (hops * (bytes / self.params.p2p_bw + self.params.p2p_latency_sec)) * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(CostParams::rtx4090())
    }

    #[test]
    fn streaming_kernel_is_bandwidth_bound_for_low_flops() {
        let m = model();
        let bytes = 1e9; // 1 GB
        let t = m.kernel_ns(&KernelCost::streaming(1e6, bytes));
        // ~1 GB over ~1 TB/s ≈ 1 ms, plus the launch overhead.
        let expected = bytes / m.params.dram_bw * 1e9 + m.params.launch_overhead_sec * 1e9;
        assert!(
            (t - expected).abs() / expected < 1e-9,
            "t={t} expected={expected}"
        );
    }

    #[test]
    fn compute_bound_kernel_scales_with_flops() {
        let m = model();
        let t1 = m.kernel_ns(&KernelCost::streaming(1e12, 1.0));
        let t2 = m.kernel_ns(&KernelCost::streaming(2e12, 1.0));
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.2);
    }

    #[test]
    fn atomic_replays_add_serialized_time() {
        let m = model();
        let base = KernelCost {
            gmem_atomics: 1e6,
            launches: 1.0,
            ..Default::default()
        };
        let contended = KernelCost {
            gmem_atomic_replays: 1e6,
            ..base
        };
        assert!(m.kernel_ns(&contended) > m.kernel_ns(&base));
    }

    #[test]
    fn saturation_classification_follows_streaming_vs_launch_overhead() {
        let m = model();
        // A tiny kernel streams for far less than one launch overhead:
        // it leaves SMs free for co-resident work.
        assert!(!m.saturates_device(&KernelCost::streaming(1e3, 1e3)));
        // A 1 GB streaming kernel occupies the SMs for ~1 ms ≫ 1.2 µs.
        assert!(m.saturates_device(&KernelCost::streaming(0.0, 1e9)));
    }

    #[test]
    fn smem_atomics_cheaper_than_gmem_atomics() {
        let m = model();
        let g = KernelCost {
            gmem_atomics: 1e8,
            launches: 1.0,
            ..Default::default()
        };
        let s = KernelCost {
            smem_atomics: 1e8,
            launches: 1.0,
            ..Default::default()
        };
        assert!(m.kernel_ns(&s) < m.kernel_ns(&g));
    }

    #[test]
    fn ring_all_reduce_grows_sublinearly_with_devices() {
        let m = model();
        let t2 = m.ring_all_reduce_ns(1e8, 2);
        let t8 = m.ring_all_reduce_ns(1e8, 8);
        assert!(t8 > t2);
        // 2(k-1)/k factor approaches 2: t8/t2 ≈ (2·7/8)/(2·1/2) = 1.75 on
        // the bandwidth term.
        assert!(t8 < t2 * 2.5);
        assert_eq!(m.ring_all_reduce_ns(1e8, 1), 0.0);
    }

    #[test]
    fn ring_all_reduce_is_a_reduce_scatter_then_an_all_gather() {
        let m = model();
        let bytes = 3.7e7;
        for k in 1..=8 {
            let all_reduce = m.ring_all_reduce_ns(bytes, k);
            let reduce_scatter = m.ring_reduce_scatter_ns(bytes, k);
            let all_gather = m.all_gather_ns(bytes / k as f64, k);
            if k == 1 {
                assert_eq!((all_reduce, reduce_scatter, all_gather), (0.0, 0.0, 0.0));
                continue;
            }
            let rel = (all_reduce - (reduce_scatter + all_gather)).abs() / all_reduce;
            assert!(rel <= 1e-12, "k={k}: relative gap {rel}");
        }
    }

    #[test]
    fn merged_sums_terms() {
        let a = KernelCost::streaming(10.0, 20.0);
        let b = KernelCost {
            gmem_atomics: 5.0,
            sort_keys: 7.0,
            launches: 2.0,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.flops, 10.0);
        assert_eq!(m.dram_bytes, 20.0);
        assert_eq!(m.gmem_atomics, 5.0);
        assert_eq!(m.sort_keys, 7.0);
        assert_eq!(m.launches, 3.0);
    }

    #[test]
    fn rtx3090_is_slower_than_rtx4090() {
        let a = CostModel::new(CostParams::rtx4090());
        let b = CostModel::new(CostParams::rtx3090());
        let c = KernelCost::streaming(1e12, 1e9);
        assert!(b.kernel_ns(&c) > a.kernel_ns(&c));
    }

    #[test]
    fn device_generations_order_on_memory_bound_work() {
        // A memory-bound kernel: 3090 > 4090 > A100 > H100.
        let c = KernelCost::streaming(1e9, 5e9);
        let times: Vec<f64> = [
            CostParams::rtx3090(),
            CostParams::rtx4090(),
            CostParams::a100(),
            CostParams::h100(),
        ]
        .into_iter()
        .map(|p| CostModel::new(p).kernel_ns(&c))
        .collect();
        assert!(
            times.windows(2).all(|w| w[0] > w[1]),
            "expected strictly improving generations: {times:?}"
        );
    }

    #[test]
    fn nvlink_collectives_beat_pcie() {
        let pcie = CostModel::new(CostParams::rtx4090());
        let nvlink = CostModel::new(CostParams::a100());
        assert!(nvlink.ring_all_reduce_ns(1e8, 4) < pcie.ring_all_reduce_ns(1e8, 4));
    }

    #[test]
    fn broadcast_and_all_gather_zero_for_single_device() {
        let m = model();
        assert_eq!(m.broadcast_ns(1e6, 1), 0.0);
        assert_eq!(m.all_gather_ns(1e6, 1), 0.0);
        assert!(m.broadcast_ns(1e6, 4) > 0.0);
        assert!(m.all_gather_ns(1e6, 4) > 0.0);
    }
}
