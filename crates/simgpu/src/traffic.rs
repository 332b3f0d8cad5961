//! Communication traffic accounting, split by interconnect tier.
//!
//! Every collective in [`crate::comm`] records the bytes it moves, so the
//! paper's central communication-complexity claims — baseline ALLGATHER
//! moves `Θ(G·K·D)` while the unique scheme moves `Θ(G·K + Ug·D)` — are
//! *asserted against measured wire bytes*, not derived on paper.
//!
//! The paper's cluster is two-tier (PCIe within a node, Infiniband FDR
//! between nodes — Table II), and the hierarchical allreduce of §V-C
//! moves very different volumes over each tier. Counters are therefore
//! kept per [`Tier`]; the flat totals in [`TrafficSnapshot`] are exact
//! sums of the two buckets, so single-tier reconciliation contracts
//! keep holding unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

/// Interconnect tier a send traverses.
///
/// On the paper's Titan X cluster [`Intra`](Tier::Intra) is PCIe
/// (32 GB/s bidirectional) and [`Inter`](Tier::Inter) is Infiniband FDR
/// (15 GB/s bidirectional); see `HardwareConfig::titan_x_cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Both endpoints live on the same node.
    Intra,
    /// Endpoints live on different nodes.
    Inter,
}

/// Byte volume split by tier. Returned by the analytic schedule helpers
/// in [`crate::comm`] and mirrored by the recorder buckets, so
/// "analytic == recorded" can be asserted per tier, exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierBytes {
    /// Bytes sent over intra-node links.
    pub intra: u64,
    /// Bytes sent over inter-node links.
    pub inter: u64,
}

impl TierBytes {
    /// `bytes` on `tier`, nothing on the other.
    pub fn on(tier: Tier, bytes: u64) -> Self {
        match tier {
            Tier::Intra => Self {
                intra: bytes,
                inter: 0,
            },
            Tier::Inter => Self {
                intra: 0,
                inter: bytes,
            },
        }
    }

    /// Sum of both tiers.
    pub fn total(&self) -> u64 {
        self.intra + self.inter
    }
}

impl std::ops::Add for TierBytes {
    type Output = TierBytes;
    fn add(self, rhs: TierBytes) -> TierBytes {
        TierBytes {
            intra: self.intra + rhs.intra,
            inter: self.inter + rhs.inter,
        }
    }
}

impl std::ops::AddAssign for TierBytes {
    fn add_assign(&mut self, rhs: TierBytes) {
        self.intra += rhs.intra;
        self.inter += rhs.inter;
    }
}

/// Shared atomic counters for one communicator group.
#[derive(Debug, Default)]
pub struct TrafficRecorder {
    allreduce_intra_bytes: AtomicU64,
    allreduce_inter_bytes: AtomicU64,
    allreduce_ops: AtomicU64,
    allgather_intra_bytes: AtomicU64,
    allgather_inter_bytes: AtomicU64,
    allgather_ops: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// Total bytes moved by ALLREDUCE calls (sum over all ranks' sends,
    /// both tiers; always `allreduce_intra_bytes + allreduce_inter_bytes`).
    pub allreduce_bytes: u64,
    /// ALLREDUCE bytes over intra-node links.
    pub allreduce_intra_bytes: u64,
    /// ALLREDUCE bytes over inter-node links.
    pub allreduce_inter_bytes: u64,
    /// Number of ALLREDUCE invocations (counted once per group call).
    pub allreduce_ops: u64,
    /// Total bytes moved by ALLGATHER calls (both tiers).
    pub allgather_bytes: u64,
    /// ALLGATHER bytes over intra-node links.
    pub allgather_intra_bytes: u64,
    /// ALLGATHER bytes over inter-node links.
    pub allgather_inter_bytes: u64,
    /// Number of ALLGATHER invocations.
    pub allgather_ops: u64,
}

impl TrafficSnapshot {
    /// Total bytes across all collective kinds and tiers.
    pub fn total_bytes(&self) -> u64 {
        self.allreduce_bytes + self.allgather_bytes
    }

    /// Total intra-node bytes across all collective kinds.
    pub fn intra_bytes(&self) -> u64 {
        self.allreduce_intra_bytes + self.allgather_intra_bytes
    }

    /// Total inter-node bytes across all collective kinds.
    pub fn inter_bytes(&self) -> u64 {
        self.allreduce_inter_bytes + self.allgather_inter_bytes
    }
}

impl TrafficRecorder {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one rank's sends within an ALLREDUCE on the given tier.
    pub fn record_allreduce_tier(&self, tier: Tier, bytes: u64) {
        match tier {
            Tier::Intra => &self.allreduce_intra_bytes,
            Tier::Inter => &self.allreduce_inter_bytes,
        }
        .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one rank's ALLREDUCE sends already split by tier.
    pub fn record_allreduce_split(&self, bytes: TierBytes) {
        self.record_allreduce_tier(Tier::Intra, bytes.intra);
        self.record_allreduce_tier(Tier::Inter, bytes.inter);
    }

    /// Counts one group-wide ALLREDUCE invocation.
    pub fn count_allreduce_op(&self) {
        self.allreduce_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rank's sends within an ALLGATHER on the given tier.
    pub fn record_allgather_tier(&self, tier: Tier, bytes: u64) {
        match tier {
            Tier::Intra => &self.allgather_intra_bytes,
            Tier::Inter => &self.allgather_inter_bytes,
        }
        .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one rank's ALLGATHER sends already split by tier.
    pub fn record_allgather_split(&self, bytes: TierBytes) {
        self.record_allgather_tier(Tier::Intra, bytes.intra);
        self.record_allgather_tier(Tier::Inter, bytes.inter);
    }

    /// Counts one group-wide ALLGATHER invocation.
    pub fn count_allgather_op(&self) {
        self.allgather_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let ar_intra = self.allreduce_intra_bytes.load(Ordering::Relaxed);
        let ar_inter = self.allreduce_inter_bytes.load(Ordering::Relaxed);
        let ag_intra = self.allgather_intra_bytes.load(Ordering::Relaxed);
        let ag_inter = self.allgather_inter_bytes.load(Ordering::Relaxed);
        TrafficSnapshot {
            allreduce_bytes: ar_intra + ar_inter,
            allreduce_intra_bytes: ar_intra,
            allreduce_inter_bytes: ar_inter,
            allreduce_ops: self.allreduce_ops.load(Ordering::Relaxed),
            allgather_bytes: ag_intra + ag_inter,
            allgather_intra_bytes: ag_intra,
            allgather_inter_bytes: ag_inter,
            allgather_ops: self.allgather_ops.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.allreduce_intra_bytes.store(0, Ordering::Relaxed);
        self.allreduce_inter_bytes.store(0, Ordering::Relaxed);
        self.allreduce_ops.store(0, Ordering::Relaxed);
        self.allgather_intra_bytes.store(0, Ordering::Relaxed);
        self.allgather_inter_bytes.store(0, Ordering::Relaxed);
        self.allgather_ops.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_buckets_sum_to_flat_totals() {
        let t = TrafficRecorder::new();
        t.record_allreduce_tier(Tier::Intra, 30);
        t.record_allreduce_tier(Tier::Inter, 12);
        t.count_allreduce_op();
        t.record_allgather_split(TierBytes { intra: 5, inter: 9 });
        t.count_allgather_op();
        let s = t.snapshot();
        assert_eq!(s.allreduce_intra_bytes, 30);
        assert_eq!(s.allreduce_inter_bytes, 12);
        assert_eq!(s.allreduce_bytes, 42);
        assert_eq!(s.allreduce_ops, 1);
        assert_eq!(s.allgather_intra_bytes, 5);
        assert_eq!(s.allgather_inter_bytes, 9);
        assert_eq!(s.allgather_bytes, 14);
        assert_eq!(s.allgather_ops, 1);
        assert_eq!(s.intra_bytes(), 35);
        assert_eq!(s.inter_bytes(), 21);
        assert_eq!(s.total_bytes(), 56);
    }

    #[test]
    fn tier_bytes_arithmetic() {
        let mut a = TierBytes { intra: 3, inter: 4 };
        let b = TierBytes {
            intra: 10,
            inter: 20,
        };
        assert_eq!((a + b).total(), 37);
        a += b;
        assert_eq!(
            a,
            TierBytes {
                intra: 13,
                inter: 24
            }
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = TrafficRecorder::new();
        t.record_allreduce_tier(Tier::Intra, 5);
        t.record_allreduce_tier(Tier::Inter, 6);
        t.reset();
        assert_eq!(t.snapshot(), TrafficSnapshot::default());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let t = TrafficRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.record_allreduce_tier(Tier::Intra, 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().allreduce_bytes, 8000);
    }
}
