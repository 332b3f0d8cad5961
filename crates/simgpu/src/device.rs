//! Simulated GPU devices with memory accounting.
//!
//! The paper's scaling walls are memory walls: the dense ALLGATHER needs
//! `Θ(G·K·D)` bytes per GPU and blows past the Titan X's 12 GB somewhere
//! between 24 and 32 GPUs (Tables III/IV show `*` = out of memory). A
//! [`Device`] tracks live and peak usage against a capacity and returns
//! [`OomError`] exactly like `cudaMalloc` returning `cudaErrorMemoryAllocation`.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocation failure on a simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Device that rejected the allocation.
    pub device: usize,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes live at the time of the request.
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {}: out of memory (requested {} B, {} B in use of {} B)",
            self.device, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// A simulated GPU: an id plus a memory accountant.
///
/// Thread-safe: allocation/free use atomics, so the owning rank thread
/// and observers (metrics collection) can touch it concurrently.
#[derive(Debug)]
pub struct Device {
    id: usize,
    capacity: u64,
    in_use: AtomicU64,
    peak: AtomicU64,
}

impl Device {
    /// Creates a device with the given memory capacity in bytes.
    pub fn new(id: usize, capacity: u64) -> Arc<Self> {
        Arc::new(Self {
            id,
            capacity,
            in_use: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        })
    }

    /// Device id (the MPI rank in the paper's one-GPU-per-process setup).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Attempts to allocate `bytes`; freed when the guard drops.
    pub fn try_alloc(self: &Arc<Self>, bytes: u64) -> Result<Allocation, OomError> {
        // Add only if it fits: an add that is rolled back on overflow
        // lets a concurrent reader see more than the capacity in use, and
        // a concurrent allocator that fits fail.
        let prev = self
            .in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(bytes).filter(|&now| now <= self.capacity)
            })
            .map_err(|in_use| OomError {
                device: self.id,
                requested: bytes,
                in_use,
                capacity: self.capacity,
            })?;
        let now = prev + bytes;
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(Allocation {
            dev: Arc::clone(self),
            bytes,
        })
    }
}

/// RAII guard for device memory; freeing happens on drop.
#[derive(Debug)]
pub struct Allocation {
    dev: Arc<Device>,
    bytes: u64,
}

impl Allocation {
    /// Size of this allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The owning device's id.
    pub fn device(&self) -> usize {
        self.dev.id
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.dev.in_use.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn alloc_and_free_tracks_usage() {
        let dev = Device::new(0, 12 * GB);
        let a = dev.try_alloc(4 * GB).unwrap();
        assert_eq!(dev.in_use(), 4 * GB);
        let b = dev.try_alloc(6 * GB).unwrap();
        assert_eq!(dev.in_use(), 10 * GB);
        drop(a);
        assert_eq!(dev.in_use(), 6 * GB);
        drop(b);
        assert_eq!(dev.in_use(), 0);
        assert_eq!(dev.peak(), 10 * GB);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let dev = Device::new(3, 12 * GB);
        let _a = dev.try_alloc(10 * GB).unwrap();
        let err = dev.try_alloc(3 * GB).unwrap_err();
        assert_eq!(err.device, 3);
        assert_eq!(err.requested, 3 * GB);
        assert_eq!(err.in_use, 10 * GB);
        // Failed allocation must not leak accounting.
        assert_eq!(dev.in_use(), 10 * GB);
    }

    #[test]
    fn exact_fit_succeeds() {
        let dev = Device::new(0, 100);
        let _a = dev.try_alloc(100).unwrap();
        assert!(dev.try_alloc(1).is_err());
    }

    #[test]
    fn zero_byte_alloc_ok() {
        let dev = Device::new(0, 10);
        let a = dev.try_alloc(0).unwrap();
        assert_eq!(a.bytes(), 0);
    }

    #[test]
    fn peak_survives_frees() {
        let dev = Device::new(0, 1000);
        {
            let _a = dev.try_alloc(800).unwrap();
        }
        let _b = dev.try_alloc(100).unwrap();
        assert_eq!(dev.peak(), 800);
    }

    #[test]
    fn concurrent_alloc_never_exceeds_capacity() {
        let dev = Device::new(0, 1000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Ok(a) = dev.try_alloc(300) {
                            assert!(dev.in_use() <= 1000);
                            drop(a);
                        }
                    }
                });
            }
        });
        assert_eq!(dev.in_use(), 0);
        assert!(dev.peak() <= 1000);
    }

    #[test]
    fn oom_error_displays() {
        let dev = Device::new(1, 10);
        let err = dev.try_alloc(20).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("out of memory"));
        assert!(msg.contains("device 1"));
    }
}
