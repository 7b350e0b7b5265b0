//! SM occupancy calculation (the CUDA occupancy calculator).
//!
//! Occupancy — the fraction of an SM's warp slots a kernel can fill —
//! is what the shared-memory histogram strategy trades away: a 48 KB
//! sub-histogram per block caps resident blocks per SM, which caps
//! latency hiding. The tiling logic consults this module when choosing
//! chunk sizes, and the Fig. 6a discussion in EXPERIMENTS.md uses it to
//! explain the smem/gmem crossover.

use serde::{Deserialize, Serialize};

/// Per-SM resource ceilings. Defaults approximate Ada (RTX 4090).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmLimits {
    /// Maximum resident threads per SM.
    pub max_threads: u32,
    /// Maximum resident warps per SM.
    pub max_warps: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks: u32,
    /// Shared memory per SM, bytes.
    pub smem_bytes: u32,
    /// 32-bit registers per SM.
    pub registers: u32,
    /// Threads per warp.
    pub warp_size: u32,
}

impl Default for SmLimits {
    fn default() -> Self {
        SmLimits {
            max_threads: 1536,
            max_warps: 48,
            max_blocks: 24,
            smem_bytes: 100 * 1024,
            registers: 65_536,
            warp_size: 32,
        }
    }
}

/// Resources one kernel block consumes.
#[derive(Debug, Clone, Copy)]
pub struct BlockResources {
    /// Threads per block.
    pub threads: u32,
    /// Shared memory per block, bytes.
    pub smem_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

/// Result of an occupancy query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM.
    pub active_warps: u32,
    /// `active_warps / max_warps` ∈ [0, 1].
    pub fraction: f64,
}

/// Compute achievable occupancy of a kernel under `limits`.
pub fn occupancy(res: BlockResources, limits: &SmLimits) -> Occupancy {
    assert!(res.threads > 0, "block must have threads");
    let warps_per_block = res.threads.div_ceil(limits.warp_size);

    let by_threads = limits.max_threads / res.threads;
    let by_warps = limits.max_warps / warps_per_block;
    let by_smem = limits
        .smem_bytes
        .checked_div(res.smem_bytes)
        .unwrap_or(u32::MAX);
    let by_regs = limits
        .registers
        .checked_div(res.regs_per_thread * res.threads)
        .unwrap_or(u32::MAX);
    let blocks = by_threads
        .min(by_warps)
        .min(by_smem)
        .min(by_regs)
        .min(limits.max_blocks);
    let active_warps = blocks * warps_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        active_warps,
        fraction: active_warps as f64 / limits.max_warps as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> SmLimits {
        SmLimits::default()
    }

    #[test]
    fn small_blocks_reach_full_occupancy() {
        let o = occupancy(
            BlockResources {
                threads: 256,
                smem_bytes: 0,
                regs_per_thread: 32,
            },
            &limits(),
        );
        assert_eq!(o.blocks_per_sm, 6); // 1536 / 256
        assert_eq!(o.active_warps, 48);
        assert!((o.fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smem_heavy_blocks_are_smem_limited() {
        // A 48 KB sub-histogram per block → ⌊100 KB / 48 KB⌋ = 2 blocks.
        let o = occupancy(
            BlockResources {
                threads: 256,
                smem_bytes: 48 * 1024,
                regs_per_thread: 32,
            },
            &limits(),
        );
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.active_warps, 16);
        assert!(o.fraction < 0.4);
    }

    #[test]
    fn register_pressure_limits_occupancy() {
        let o = occupancy(
            BlockResources {
                threads: 256,
                smem_bytes: 0,
                regs_per_thread: 128, // 32768 regs per block
            },
            &limits(),
        );
        assert_eq!(o.blocks_per_sm, 2); // 65536 / 32768
    }

    #[test]
    fn block_count_cap_applies_to_tiny_blocks() {
        let o = occupancy(
            BlockResources {
                threads: 32,
                smem_bytes: 0,
                regs_per_thread: 0,
            },
            &limits(),
        );
        assert_eq!(o.blocks_per_sm, 24); // max_blocks, not 1536/32 = 48
        assert_eq!(o.active_warps, 24);
        assert!((o.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "block must have threads")]
    fn zero_thread_block_rejected() {
        let _ = occupancy(
            BlockResources {
                threads: 0,
                smem_bytes: 0,
                regs_per_thread: 0,
            },
            &limits(),
        );
    }
}
