//! Communication traffic accounting, split by interconnect tier.
//!
//! Every collective in [`crate::comm`] returns the per-tier bytes it put
//! on the wire for the calling rank, and that value is the only record
//! of them: callers fold it into a [`TrafficSnapshot`] ledger, so the
//! paper's central communication-complexity claims — baseline ALLGATHER
//! moves `Θ(G·K·D)` while the unique scheme moves `Θ(G·K + Ug·D)` — are
//! asserted against what the collectives charged, not a second copy.
//!
//! The paper's cluster is two-tier (PCIe within a node, Infiniband FDR
//! between nodes — Table II), and the hierarchical allreduce of §V-C
//! moves very different volumes over each tier. Bytes are therefore
//! kept per [`Tier`]; the flat totals in [`TrafficSnapshot`] are exact
//! sums of the two.

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

/// Byte volume split by tier: what a collective in [`crate::comm`]
/// returns, and what its analytic schedule helpers compute, so the two
/// can be compared per tier, exactly.
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

/// What collectives put on the wire, by class and tier, plus how many
/// were called — a plain additive value built from what each collective
/// returns, never from a shared counter.
///
/// * **Bytes** are sends: one rank's ledger holds its own, and a sum of
///   ledgers (`TrainReport::traffic` adds every rank's) holds theirs,
///   per class and tier.
/// * **Ops** count group calls: every rank of a group calls the same
///   collectives, so each rank's ledger counts each call once and a sum
///   over ranks takes its op counts from any one rank, not their sum.
/// * The scalar loss reduction (`Rank::all_reduce_sum_max`) charges
///   ALLREDUCE bytes but counts no op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficSnapshot {
    /// ALLREDUCE bytes over intra-node links.
    pub allreduce_intra_bytes: u64,
    /// ALLREDUCE bytes over inter-node links.
    pub allreduce_inter_bytes: u64,
    /// Number of ALLREDUCE group calls.
    pub allreduce_ops: u64,
    /// ALLGATHER bytes over intra-node links.
    pub allgather_intra_bytes: u64,
    /// ALLGATHER bytes over inter-node links.
    pub allgather_inter_bytes: u64,
    /// Number of ALLGATHER group calls.
    pub allgather_ops: u64,
}

impl TrafficSnapshot {
    /// `ops` ALLREDUCE calls that sent `sent`.
    pub fn allreduce(sent: TierBytes, ops: u64) -> Self {
        Self {
            allreduce_intra_bytes: sent.intra,
            allreduce_inter_bytes: sent.inter,
            allreduce_ops: ops,
            ..Self::default()
        }
    }

    /// `ops` ALLGATHER calls that sent `sent`.
    pub fn allgather(sent: TierBytes, ops: u64) -> Self {
        Self {
            allgather_intra_bytes: sent.intra,
            allgather_inter_bytes: sent.inter,
            allgather_ops: ops,
            ..Self::default()
        }
    }

    /// Total bytes moved by ALLREDUCE calls (both tiers).
    pub fn allreduce_bytes(&self) -> u64 {
        self.allreduce_intra_bytes + self.allreduce_inter_bytes
    }

    /// Total bytes moved by ALLGATHER calls (both tiers).
    pub fn allgather_bytes(&self) -> u64 {
        self.allgather_intra_bytes + self.allgather_inter_bytes
    }

    /// Total bytes across all collective kinds and tiers.
    pub fn total_bytes(&self) -> u64 {
        self.allreduce_bytes() + self.allgather_bytes()
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

impl std::ops::AddAssign for TrafficSnapshot {
    fn add_assign(&mut self, rhs: TrafficSnapshot) {
        self.allreduce_intra_bytes += rhs.allreduce_intra_bytes;
        self.allreduce_inter_bytes += rhs.allreduce_inter_bytes;
        self.allreduce_ops += rhs.allreduce_ops;
        self.allgather_intra_bytes += rhs.allgather_intra_bytes;
        self.allgather_inter_bytes += rhs.allgather_inter_bytes;
        self.allgather_ops += rhs.allgather_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_buckets_sum_to_flat_totals() {
        let mut s = TrafficSnapshot::allreduce(
            TierBytes {
                intra: 30,
                inter: 12,
            },
            1,
        );
        s += TrafficSnapshot::allgather(TierBytes { intra: 5, inter: 9 }, 1);
        assert_eq!(s.allreduce_intra_bytes, 30);
        assert_eq!(s.allreduce_inter_bytes, 12);
        assert_eq!(s.allreduce_bytes(), 42);
        assert_eq!(s.allreduce_ops, 1);
        assert_eq!(s.allgather_intra_bytes, 5);
        assert_eq!(s.allgather_inter_bytes, 9);
        assert_eq!(s.allgather_bytes(), 14);
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
}
