//! Device-resident buffers.
//!
//! A [`GpuBuffer`] models `cudaMalloc`'d memory: it is owned by one
//! device, and host data enters it through [`crate::Device::htod`] so
//! the transfer is charged. Kernels access the backing slice directly
//! and account for their memory traffic via their [`crate::KernelCost`]
//! instead of per-access bookkeeping.

/// A typed, device-owned buffer.
#[derive(Debug, Clone)]
pub struct GpuBuffer<T> {
    device_id: usize,
    data: Vec<T>,
}

impl<T: Copy + Send + Sync> GpuBuffer<T> {
    /// Wrap an already-materialized vector as a buffer on `device_id`.
    /// Crate-internal construction path; external users go through
    /// [`crate::Device::htod`].
    ///
    /// # Invariant
    ///
    /// `device_id` is taken on trust: there is no global device registry
    /// to validate against (devices are plain `Arc`s, and multi-device
    /// topologies are assembled ad hoc by [`crate::DeviceGroup`]), so a
    /// buffer's owner cannot be checked at construction time. The
    /// invariant is instead enforced where a use crosses a device
    /// boundary: [`crate::buffer_checksum_on`] panics when asked to scrub
    /// a buffer whose `device_id` differs from the device's own `id`.
    /// Callers must pass the `id` of the device whose ledger will be
    /// charged for kernels touching the buffer.
    pub(crate) fn from_vec(device_id: usize, data: Vec<T>) -> Self {
        GpuBuffer { device_id, data }
    }

    /// The owning device's index.
    pub fn device_id(&self) -> usize {
        self.device_id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (for cost descriptors).
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Kernel-side read access to the backing storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Kernel-side write access to the backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut b = GpuBuffer::from_vec(3, vec![1u32, 2, 3]);
        assert_eq!(b.device_id(), 3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.size_bytes(), 12);
        b.as_mut_slice()[0] = 9;
        assert_eq!(b.as_slice(), &[9, 2, 3]);
    }

    #[test]
    fn empty_buffer() {
        let b: GpuBuffer<f64> = GpuBuffer::from_vec(0, vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.size_bytes(), 0);
        assert_eq!(b.as_slice(), &[] as &[f64]);
    }

    #[test]
    fn empty_buffer_keeps_device_id_and_mut_slice() {
        let mut b: GpuBuffer<u8> = GpuBuffer::from_vec(7, vec![]);
        assert_eq!(b.device_id(), 7);
        assert!(b.as_mut_slice().is_empty());
    }

    #[test]
    fn empty_upload_is_well_formed() {
        use crate::device::Device;
        let dev = Device::rtx4090();
        let buf = dev.htod::<u32>(&[]);
        assert!(buf.is_empty());
        assert_eq!(buf.size_bytes(), 0);
        assert_eq!(buf.device_id(), dev.id);
    }
}
