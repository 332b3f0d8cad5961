//! α–β (latency–bandwidth) cost model for collectives and compute.
//!
//! Translates byte volumes and FLOP counts into simulated wall-clock
//! seconds on a [`HardwareConfig`]. Standard cost expressions:
//!
//! * ring ALLREDUCE of `n` bytes over `G` GPUs:
//!   `2(G−1)·α + 2(G−1)/G · n / β`
//! * ALLGATHER collecting `n_local` bytes from each of `G` GPUs:
//!   `(G−1)·α + (G−1) · n_local / β`
//! * compute: `flops / (peak · utilisation)`
//!
//! where `α` is per-hop latency and `β` the per-GPU effective link
//! bandwidth. These are exactly the asymptotics the paper quotes
//! (`Θ(G·K·D)` ALLGATHER vs `Θ(G·K + Ug·D)` for the unique scheme); the
//! constants come from Table II.

use crate::hw::HardwareConfig;
use crate::traffic::TierBytes;

/// Cost model bound to one hardware preset and one utilisation figure.
#[derive(Debug, Clone)]
pub struct CostModel {
    hw: HardwareConfig,
    /// Fraction of peak FLOP/s actually achieved (the paper reports 40 %
    /// for word LMs — 2.44 of 6.1 TFLOP/s — and 64 % for char LMs).
    utilization: f64,
}

impl CostModel {
    /// Creates a model; `utilization` in (0, 1].
    pub fn new(hw: HardwareConfig, utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        Self { hw, utilization }
    }

    /// The underlying hardware description.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    /// Seconds one rank spends in a ring ALLREDUCE over `gpus` GPUs
    /// given its exact `send_bytes` from the ring's own chunk schedule
    /// ([`crate::comm::ring_allreduce_send_bytes`] — exact even when
    /// the payload does not divide by `gpus`; per-rank time attribution
    /// is built on it). The `2(G−1)·α` latency term is hop-count only,
    /// so codec-compressed volumes substitute encoded bytes for raw
    /// ones without touching it.
    pub fn allreduce_rank_time_bytes(&self, send_bytes: u64, gpus: usize) -> f64 {
        assert!(gpus >= 1);
        if gpus == 1 {
            return 0.0;
        }
        let g = gpus as f64;
        let alpha = self.hw.ring_latency(gpus);
        let beta = self.hw.ring_bandwidth(gpus);
        2.0 * (g - 1.0) * alpha + send_bytes as f64 / beta
    }

    /// Per-tier seconds *rank `rank`* spends in a hierarchical two-tier
    /// ALLREDUCE over `gpus` GPUs laid out `gpus_per_node` per node,
    /// given its exact per-tier wire bytes `tb` — the α–β mirror of
    /// [`crate::comm::hierarchical_allreduce_send_bytes`]'s four-phase
    /// byte schedule. Returns `(intra_secs, inter_secs)`:
    ///
    /// * intra: the node-local hops (ring reduce-scatter over the `m`
    ///   members, the non-leader chunk hand-off *or* the leader's final
    ///   broadcast) at intra-node α/β;
    /// * inter: leaders only — the `2(N−1)`-hop flat ring over the `N`
    ///   nodes at inter-node α/β, with this leader's exact ring bytes.
    ///
    /// Hop counts depend only on topology, so codec-compressed per-tier
    /// volumes price the same way. Quantise each component separately
    /// (`secs_to_ps`) and the split still reconciles exactly: `wire =
    /// intra_ps + inter_ps` by construction. Falls back to the flat
    /// [`CostModel::allreduce_rank_time_bytes`] (all intra) when the
    /// group fits in one node.
    pub fn hierarchical_allreduce_rank_time_bytes(
        &self,
        tb: TierBytes,
        gpus: usize,
        gpus_per_node: usize,
        rank: usize,
    ) -> (f64, f64) {
        assert!(gpus >= 1 && rank < gpus);
        assert!(
            gpus_per_node >= 1,
            "topology needs at least one GPU per node"
        );
        if gpus == 1 {
            return (0.0, 0.0);
        }
        if gpus <= gpus_per_node {
            return (self.allreduce_rank_time_bytes(tb.total(), gpus), 0.0);
        }
        let node = rank / gpus_per_node;
        let leader = node * gpus_per_node;
        let m = gpus_per_node.min(gpus - leader);
        let n_nodes = gpus.div_ceil(gpus_per_node);
        // Intra hops: m−1 reduce-scatter steps, plus one hand-off
        // (non-leader) or one broadcast round (leader of a >1 node).
        let mut intra_hops = (m - 1) as f64;
        if m > 1 {
            intra_hops += 1.0;
        }
        let intra = intra_hops * self.hw.intra_latency + tb.intra as f64 / self.hw.intra_node_bw;
        let inter = if rank == leader {
            2.0 * (n_nodes - 1) as f64 * self.hw.inter_latency
                + tb.inter as f64 / self.hw.inter_node_bw
        } else {
            0.0
        };
        (intra, inter)
    }

    /// Per-tier seconds *rank `rank`* spends in an ALLGATHER of
    /// `bytes_per_gpu` from each of `gpus` GPUs laid out
    /// `gpus_per_node` per node — the α–β mirror of
    /// [`crate::comm::peer_exchange_tier_bytes`]'s peer-exchange byte
    /// schedule, so a hierarchical run's two collectives (this and the
    /// ALLREDUCE) agree about topology. Returns `(intra_secs,
    /// inter_secs)`: the rank sends its payload once per peer, node-mates
    /// priced at intra-node α/β and remote peers at inter-node α/β
    /// (ragged last nodes keep the exact peer counts). Quantise each
    /// component separately (`secs_to_ps`) and `wire = intra_ps +
    /// inter_ps` reconciles exactly. Falls back to the flat
    /// [`CostModel::allgather_time`] (all intra) when the group fits in
    /// one node.
    pub fn allgather_rank_tier_time(
        &self,
        bytes_per_gpu: u64,
        gpus: usize,
        gpus_per_node: usize,
        rank: usize,
    ) -> (f64, f64) {
        assert!(gpus >= 1 && rank < gpus);
        assert!(
            gpus_per_node >= 1,
            "topology needs at least one GPU per node"
        );
        if gpus == 1 {
            return (0.0, 0.0);
        }
        if gpus <= gpus_per_node {
            return (self.allgather_time(bytes_per_gpu, gpus), 0.0);
        }
        let node_start = (rank / gpus_per_node) * gpus_per_node;
        let node_size = gpus_per_node.min(gpus - node_start);
        let intra_peers = (node_size - 1) as f64;
        let inter_peers = (gpus - node_size) as f64;
        let intra = intra_peers * self.hw.intra_latency
            + intra_peers * bytes_per_gpu as f64 / self.hw.intra_node_bw;
        let inter = inter_peers * self.hw.inter_latency
            + inter_peers * bytes_per_gpu as f64 / self.hw.inter_node_bw;
        (intra, inter)
    }

    /// Seconds for an ALLGATHER where each GPU contributes
    /// `bytes_per_gpu` and receives all others' contributions.
    pub fn allgather_time(&self, bytes_per_gpu: u64, gpus: usize) -> f64 {
        assert!(gpus >= 1);
        if gpus == 1 {
            return 0.0;
        }
        let g = gpus as f64;
        let alpha = self.hw.ring_latency(gpus);
        let beta = self.hw.ring_bandwidth(gpus);
        (g - 1.0) * alpha + (g - 1.0) * bytes_per_gpu as f64 / beta
    }

    /// Seconds of pure compute for `flops` floating-point operations on
    /// one GPU at the model's utilisation.
    pub fn compute_time(&self, flops: f64) -> f64 {
        flops / (self.hw.peak_flops * self.utilization)
    }

    /// Seconds to touch `bytes` of device memory during a local gradient
    /// application (the paper notes the `Θ(G·K·D)` *update* cost too).
    /// Modeled at HBM stream rate ~300 GB/s for the Titan X generation.
    pub fn memory_touch_time(&self, bytes: u64) -> f64 {
        bytes as f64 / 300.0e9
    }

    /// Seconds a wire codec spends processing `raw_bytes` of payload at
    /// `throughput_bps` raw bytes per second (see
    /// [`crate::codec::WireCodec::throughput_bps`]) — the compute side
    /// of the volume-vs-compute
    /// tradeoff. Codecs run on-node before the NIC, so callers charge
    /// this to the intra tier. The identity codec's infinite throughput
    /// yields exactly zero.
    pub fn codec_time(&self, raw_bytes: u64, throughput_bps: f64) -> f64 {
        assert!(throughput_bps > 0.0, "codec throughput must be positive");
        raw_bytes as f64 / throughput_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{hierarchical_allreduce_send_bytes, ring_allreduce_send_bytes};

    fn model() -> CostModel {
        CostModel::new(HardwareConfig::titan_x_cluster(), 0.4)
    }

    /// Rank `r`'s seconds in a flat ring ALLREDUCE of `n` f32 elements.
    fn ring_secs(m: &CostModel, n: usize, gpus: usize, r: usize) -> f64 {
        m.allreduce_rank_time_bytes(ring_allreduce_send_bytes(n, gpus, r, 4), gpus)
    }

    /// Rank `r`'s per-tier seconds in a hierarchical ALLREDUCE of `n`
    /// f32 elements.
    fn hier_secs(m: &CostModel, n: usize, gpus: usize, gpn: usize, r: usize) -> (f64, f64) {
        let tb = hierarchical_allreduce_send_bytes(n, gpus, gpn, r, 4);
        m.hierarchical_allreduce_rank_time_bytes(tb, gpus, gpn, r)
    }

    #[test]
    fn allreduce_time_scales_with_bytes() {
        let m = model();
        let t1 = ring_secs(&m, 1 << 18, 8, 0);
        let t2 = ring_secs(&m, 1 << 24, 8, 0);
        assert!(t2 > t1 * 10.0, "t1={t1} t2={t2}");
    }

    #[test]
    fn allreduce_single_gpu_free() {
        assert_eq!(model().allreduce_rank_time_bytes(1 << 30, 1), 0.0);
        assert_eq!(model().allgather_time(1 << 30, 1), 0.0);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates_with_g() {
        // A rank's ring share 2(G−1)/G·n approaches 2n: doubling G at
        // fixed volume must not double time (latency term aside) once
        // inter-node.
        let m = model();
        let t16 = ring_secs(&m, 25 << 20, 16, 0);
        let t64 = ring_secs(&m, 25 << 20, 64, 0);
        assert!(t64 < t16 * 1.3, "t16={t16} t64={t64}");
    }

    #[test]
    fn allgather_grows_linearly_with_g() {
        // The baseline's pain: fixed per-GPU contribution, total time
        // ∝ (G−1).
        let m = model();
        let t16 = m.allgather_time(10 << 20, 16);
        let t64 = m.allgather_time(10 << 20, 64);
        let ratio = t64 / t16;
        assert!((ratio - 63.0 / 15.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn compute_time_matches_utilization() {
        let m = model();
        // 2.44 TFLOP at 40% of 6.1 TFLOP/s takes 1 second.
        let t = m.compute_time(2.44e12);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_rank_allreduce_matches_aggregate_when_divisible() {
        // When n divides by G every rank moves the idealised 2(G−1)/G·n
        // bytes, so the per-rank price equals the textbook aggregate
        // `2(G−1)·α + 2(G−1)/G · n / β`.
        let m = model();
        let hw = m.hardware().clone();
        for gpus in [2usize, 4, 8] {
            let n = 1024 * gpus;
            let g = gpus as f64;
            let whole = 2.0 * (g - 1.0) * hw.ring_latency(gpus)
                + 2.0 * (g - 1.0) / g * (n * 4) as f64 / hw.ring_bandwidth(gpus);
            for r in 0..gpus {
                let per = ring_secs(&m, n, gpus, r);
                assert!(
                    (per - whole).abs() < 1e-12,
                    "gpus {gpus} rank {r}: {per} vs {whole}"
                );
            }
        }
        assert_eq!(ring_secs(&m, 1 << 20, 1, 0), 0.0);
    }

    #[test]
    fn hierarchical_rank_time_tiers_and_fallback() {
        let m = model();
        // One-node groups collapse to the flat per-rank expression.
        for r in 0..4 {
            let (intra, inter) = hier_secs(&m, 1000, 4, 8, r);
            assert_eq!(intra, ring_secs(&m, 1000, 4, r));
            assert_eq!(inter, 0.0);
        }
        // Multi-node: only leaders pay inter time; members pay none.
        let (gpus, gpn, n) = (24usize, 8usize, 10_000usize);
        for r in 0..gpus {
            let (intra, inter) = hier_secs(&m, n, gpus, gpn, r);
            assert!(intra > 0.0);
            if r % gpn == 0 {
                assert!(inter > 0.0, "leader {r} must pay the Infiniband tier");
            } else {
                assert_eq!(inter, 0.0, "member {r} must not touch Infiniband");
            }
        }
        assert_eq!(hier_secs(&m, 1 << 20, 1, 8, 0), (0.0, 0.0));
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_paper_scale() {
        // Table V's regime: 192 GPUs on 24 nodes. The flat ring pays
        // 2(G−1) inter-node latencies; the hierarchical schedule pays
        // 2(N−1) plus cheap intra hops, and wins per step.
        let m = model();
        let (gpus, gpn, n) = (192usize, 8usize, 100_000usize);
        let flat: f64 = (0..gpus)
            .map(|r| ring_secs(&m, n, gpus, r))
            .fold(0.0, f64::max);
        let hier: f64 = (0..gpus)
            .map(|r| {
                let (a, b) = hier_secs(&m, n, gpus, gpn, r);
                a + b
            })
            .fold(0.0, f64::max);
        assert!(hier < flat, "hier {hier} must beat flat {flat}");
    }

    #[test]
    fn allgather_tier_time_splits_and_falls_back() {
        let m = model();
        // One-node groups collapse to the flat expression, all intra.
        for r in 0..4 {
            let (intra, inter) = m.allgather_rank_tier_time(1 << 16, 4, 8, r);
            assert_eq!(intra, m.allgather_time(1 << 16, 4));
            assert_eq!(inter, 0.0);
        }
        // Multi-node (ragged): every rank pays both tiers, peer counts
        // follow the node sizes — rank 4 sits alone on node 2 and has
        // no intra peers at all.
        let (gpus, gpn) = (5usize, 2usize);
        for r in 0..gpus {
            let (intra, inter) = m.allgather_rank_tier_time(1 << 16, gpus, gpn, r);
            if r == 4 {
                assert_eq!(intra, 0.0, "lone rank on the last node");
            } else {
                assert!(intra > 0.0);
            }
            assert!(inter > 0.0);
        }
        assert_eq!(m.allgather_rank_tier_time(1 << 20, 1, 8, 0), (0.0, 0.0));
    }

    #[test]
    fn intra_node_cheaper_than_inter() {
        let m = model();
        assert!(ring_secs(&m, 1 << 22, 8, 0) < ring_secs(&m, 1 << 22, 9, 0));
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_rejected() {
        CostModel::new(HardwareConfig::titan_x_cluster(), 0.0);
    }
}
