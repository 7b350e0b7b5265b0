//! Determinism audit: run a kernel (or kernel sequence) twice on fresh
//! devices and diff both the functional output and the charged costs.
//!
//! Nondeterministic cost accounting is the simulator's analogue of a
//! nondeterministic kernel: if the same launch charges a different
//! `ns` on replay (e.g. a `HashMap`-iteration-order-dependent sampler or
//! an uninitialized cost input), the paper's simulated-time claims stop
//! being reproducible. [`audit_determinism`] catches both functional and
//! cost divergence by comparing an FNV-1a digest of the output and the
//! *bit patterns* of every [`KernelRecord`](crate::timeline::KernelRecord).

use crate::device::{Device, DeviceProps};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over an arbitrary byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = FNV_OFFSET;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Order-sensitive digest of an `f32` slice (bit-exact, NaN-safe).
pub fn digest_f32s(xs: &[f32]) -> u64 {
    fnv1a(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// One divergence found by the replay audit.
#[derive(Debug, Clone)]
pub struct ReplayDivergence {
    /// What diverged ("output digest", "kernel count", "record #i name", …).
    pub what: String,
    /// Value observed on the first run.
    pub first: String,
    /// Value observed on the second run.
    pub second: String,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: run1={} run2={}", self.what, self.first, self.second)
    }
}

/// Outcome of [`audit_determinism`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Output digest of the first run.
    pub digest: u64,
    /// Total simulated nanoseconds of the first run.
    pub total_ns: f64,
    /// Number of charges on the first run.
    pub kernel_count: u64,
    /// Every observed divergence between the two runs (empty = deterministic).
    pub divergences: Vec<ReplayDivergence>,
}

impl ReplayReport {
    /// True when both runs were bit-identical in output and cost stream.
    pub fn is_deterministic(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Render a short human-readable report.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "replay: digest {:#018x}, {} charges, {:.3} ms simulated\n",
            self.digest,
            self.kernel_count,
            self.total_ns * 1e-6
        ));
        if self.divergences.is_empty() {
            out.push_str("replay: deterministic (output and cost stream bit-identical)\n");
        } else {
            for d in &self.divergences {
                out.push_str(&format!("replay DIVERGENCE {d}\n"));
            }
        }
        out
    }
}

/// Run `work` twice on fresh devices built from `props` and diff the
/// results.
///
/// `work` receives a brand-new device each time and must return an
/// order-sensitive digest of its functional output (e.g.
/// [`digest_f32s`]). The audit compares the returned digest, the total
/// simulated time, the charge count, and every retained
/// [`KernelRecord`](crate::timeline::KernelRecord)
/// field-by-field (floats compared by bit pattern, so `-0.0` vs `0.0`
/// or NaN payload drift is caught).
pub fn audit_determinism<F>(props: &DeviceProps, work: F) -> ReplayReport
where
    F: Fn(&Arc<Device>) -> u64,
{
    let run = |id: usize| {
        let dev = Device::new(id, props.clone());
        let digest = work(&dev);
        let summary = dev.summary();
        let records = dev.records();
        (digest, summary, records)
    };
    let (d1, s1, r1) = run(0);
    let (d2, s2, r2) = run(0);

    let mut divergences = Vec::new();
    if d1 != d2 {
        divergences.push(ReplayDivergence {
            what: "output digest".to_string(),
            first: format!("{d1:#018x}"),
            second: format!("{d2:#018x}"),
        });
    }
    if s1.total_ns.to_bits() != s2.total_ns.to_bits() {
        divergences.push(ReplayDivergence {
            what: "total_ns".to_string(),
            first: format!("{}", s1.total_ns),
            second: format!("{}", s2.total_ns),
        });
    }
    if s1.kernel_count != s2.kernel_count {
        divergences.push(ReplayDivergence {
            what: "kernel count".to_string(),
            first: format!("{}", s1.kernel_count),
            second: format!("{}", s2.kernel_count),
        });
    }
    let max_reported = 8usize;
    for (i, (a, b)) in r1.iter().zip(r2.iter()).enumerate() {
        if divergences.len() >= max_reported {
            break;
        }
        if a.name != b.name || a.phase != b.phase {
            divergences.push(ReplayDivergence {
                what: format!("record #{i} identity"),
                first: format!("{} ({:?})", a.name, a.phase),
                second: format!("{} ({:?})", b.name, b.phase),
            });
        } else if a.ns.to_bits() != b.ns.to_bits() || a.start_ns.to_bits() != b.start_ns.to_bits() {
            divergences.push(ReplayDivergence {
                what: format!("record #{i} ({}) cost", a.name),
                first: format!("ns={} start={}", a.ns, a.start_ns),
                second: format!("ns={} start={}", b.ns, b.start_ns),
            });
        }
    }
    if r1.len() != r2.len() {
        divergences.push(ReplayDivergence {
            what: "record stream length".to_string(),
            first: format!("{}", r1.len()),
            second: format!("{}", r2.len()),
        });
    }

    ReplayReport {
        digest: d1,
        total_ns: s1.total_ns,
        kernel_count: s1.kernel_count,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::device::Phase;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn digests_are_order_and_bit_sensitive() {
        assert_ne!(digest_f32s(&[1.0, 2.0]), digest_f32s(&[2.0, 1.0]));
        assert_ne!(digest_f32s(&[0.0]), digest_f32s(&[-0.0]));
        assert_eq!(digest_f32s(&[1.0, 2.0, 3.0]), digest_f32s(&[1.0, 2.0, 3.0]));
        assert_ne!(digest_f32s(&[]), digest_f32s(&[0.0]));
    }

    #[test]
    fn deterministic_work_passes() {
        let report = audit_determinism(&DeviceProps::rtx4090(), |dev| {
            let out: Vec<f32> = (0..64).map(|i| (i as f32).sqrt()).collect();
            dev.charge_kernel("sqrt", Phase::Other, &KernelCost::streaming(64.0, 256.0));
            digest_f32s(&out)
        });
        assert!(report.is_deterministic(), "{}", report.table());
        assert_eq!(report.kernel_count, 1);
        assert!(report.total_ns > 0.0);
    }

    #[test]
    fn output_divergence_is_caught() {
        let calls = AtomicU64::new(0);
        let report = audit_determinism(&DeviceProps::rtx4090(), |_dev| {
            calls.fetch_add(1, Ordering::SeqCst)
        });
        assert!(!report.is_deterministic());
        assert!(report.divergences.iter().any(|d| d.what == "output digest"));
    }

    #[test]
    fn cost_divergence_is_caught() {
        let calls = AtomicU64::new(0);
        let report = audit_determinism(&DeviceProps::rtx4090(), |dev| {
            let n = calls.fetch_add(1, Ordering::SeqCst);
            dev.charge_ns("flaky", Phase::Other, 100.0 + n as f64);
            42
        });
        assert!(!report.is_deterministic());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.what.contains("cost") || d.what == "total_ns"));
        let table = report.table();
        assert!(table.contains("DIVERGENCE"));
    }

    #[test]
    fn kernel_name_divergence_is_caught() {
        let calls = AtomicU64::new(0);
        let report = audit_determinism(&DeviceProps::rtx4090(), |dev| {
            let n = calls.fetch_add(1, Ordering::SeqCst);
            let name = if n == 0 { "a" } else { "b" };
            dev.charge_ns(if name == "a" { "a" } else { "b" }, Phase::Other, 1.0);
            7
        });
        assert!(!report.is_deterministic());
        assert!(report
            .divergences
            .iter()
            .any(|d| d.what.contains("identity")));
    }
}
