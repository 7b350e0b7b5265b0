//! Multi-device groups and collective operations (the NCCL layer).
//!
//! The paper's multi-GPU mode (§3.4.2) partitions feature columns across
//! devices and aggregates summary statistics with "CUDA-aware collective
//! operations". [`DeviceGroup`] models a single-node group of devices
//! running in bulk-synchronous lockstep: collectives charge an α–β ring
//! cost to every participant, and [`DeviceGroup::barrier`] aligns device
//! clocks, booking the stragglers' wait as idle time.

use crate::device::{Device, DeviceProps, Phase};
use std::sync::Arc;

/// A group of simulated devices on one machine.
#[derive(Debug, Clone)]
pub struct DeviceGroup {
    devices: Vec<Arc<Device>>,
}

impl DeviceGroup {
    /// Create a group of `k` identical devices.
    pub fn homogeneous(k: usize, props: DeviceProps) -> Self {
        assert!(k > 0, "device group must not be empty");
        DeviceGroup {
            devices: (0..k).map(|i| Device::new(i, props.clone())).collect(),
        }
    }

    /// Create a group of `k` RTX 4090-like devices (the paper's testbed
    /// has 8).
    pub fn rtx4090s(k: usize) -> Self {
        Self::homogeneous(k, DeviceProps::rtx4090())
    }

    /// Wrap existing devices into a group.
    pub fn from_devices(devices: Vec<Arc<Device>>) -> Self {
        assert!(!devices.is_empty(), "device group must not be empty");
        DeviceGroup { devices }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Access device `i`.
    pub fn device(&self, i: usize) -> &Arc<Device> {
        &self.devices[i]
    }

    /// All devices.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// Simulated wall-clock of the group: the slowest device.
    pub fn now_ns(&self) -> f64 {
        self.devices.iter().map(|d| d.now_ns()).fold(0.0, f64::max)
    }

    /// Align all device clocks to the group maximum, booking idle time —
    /// the end of a bulk-synchronous step.
    pub fn barrier(&self) {
        let t = self.now_ns();
        for d in &self.devices {
            d.advance_to(t);
        }
    }

    /// Reset every device's ledger.
    pub fn reset(&self) {
        for d in &self.devices {
            d.reset();
        }
    }

    /// All-gather of `bytes_per_rank` from every device: each device
    /// receives every rank's part. Data movement is modeled only (callers
    /// share host-side state); implies a barrier (collectives are
    /// synchronizing).
    pub fn all_gather(&self, bytes_per_rank: usize) {
        self.barrier();
        let ns = self.devices[0]
            .model()
            .all_gather_ns(bytes_per_rank as f64, self.devices.len());
        for d in &self.devices {
            d.charge_ns("all_gather", Phase::Comm, ns);
        }
    }

    /// Broadcast `bytes` of payload from `root` to all devices; data
    /// movement is modeled only (callers share host-side state).
    pub fn broadcast(&self, root: usize, bytes: usize) {
        assert!(root < self.devices.len(), "broadcast root out of range");
        self.barrier();
        let ns = self.devices[0]
            .model()
            .broadcast_ns(bytes as f64, self.devices.len());
        for d in &self.devices {
            d.charge_ns("broadcast", Phase::Comm, ns);
        }
    }
}

/// One device is a group of one.
impl From<Arc<Device>> for DeviceGroup {
    fn from(device: Arc<Device>) -> Self {
        DeviceGroup {
            devices: vec![device],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;

    #[test]
    fn barrier_aligns_clocks_and_books_idle() {
        let g = DeviceGroup::rtx4090s(2);
        g.device(0)
            .charge_kernel("w", Phase::Histogram, &KernelCost::streaming(1e12, 1e9));
        assert!(g.device(0).now_ns() > g.device(1).now_ns());
        g.barrier();
        assert_eq!(g.device(0).now_ns(), g.device(1).now_ns());
        assert!(g.device(1).summary().by_phase.contains_key(&Phase::Idle));
    }

    #[test]
    fn all_gather_aligns_clocks_then_charges_each_device_once() {
        let g = DeviceGroup::rtx4090s(3);
        g.device(1).charge_ns("w", Phase::Histogram, 700.0);
        g.all_gather(1 << 20);
        let ns = g.device(0).model().all_gather_ns((1 << 20) as f64, 3);
        assert!(ns > 0.0);
        // The barrier booked the idle devices' wait before the exchange.
        assert_eq!(g.device(0).summary().by_phase[&Phase::Idle], 700.0);
        for d in g.devices() {
            assert_eq!(d.now_ns(), 700.0 + ns);
            let gathers: Vec<_> = d
                .records()
                .into_iter()
                .filter(|r| r.name == "all_gather")
                .collect();
            assert_eq!(gathers.len(), 1);
            assert_eq!(gathers[0].phase, Phase::Comm);
            assert_eq!(gathers[0].ns, ns);
        }
    }

    #[test]
    fn single_device_all_gather_is_free() {
        let g = DeviceGroup::rtx4090s(1);
        g.all_gather(1 << 20);
        assert_eq!(g.now_ns(), 0.0);
    }

    #[test]
    fn group_now_is_max_over_devices() {
        let g = DeviceGroup::rtx4090s(2);
        g.device(1).charge_ns("x", Phase::Other, 500.0);
        assert_eq!(g.now_ns(), 500.0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_group_rejected() {
        let _ = DeviceGroup::from_devices(vec![]);
    }

    #[test]
    fn broadcast_charges_comm() {
        let g = DeviceGroup::rtx4090s(4);
        g.broadcast(0, 1 << 20);
        assert!(g.device(3).summary().by_phase.contains_key(&Phase::Comm));
    }
}
