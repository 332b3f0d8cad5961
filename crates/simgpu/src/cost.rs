//! α–β (latency–bandwidth) cost model for collectives and compute.
//!
//! Translates byte volumes and FLOP counts into simulated wall-clock
//! seconds on a [`HardwareConfig`]. This is the only file that knows
//! what a collective costs; the two pricing functions return each
//! tier's hop latency (α) and byte time (β) apart:
//!
//! * ring ALLREDUCE of `n` bytes over `G` GPUs:
//!   `α = 2(G−1)·latency`, `β = 2(G−1)/G · n / bandwidth`
//! * ALLGATHER collecting `n_local` bytes from each of `G` GPUs:
//!   `α = (G−1)·latency`, `β = (G−1) · n_local / bandwidth`
//! * compute: `flops / (peak · utilisation)`
//!
//! These are exactly the asymptotics the paper quotes (`Θ(G·K·D)`
//! ALLGATHER vs `Θ(G·K + Ug·D)` for the unique scheme), which pay only
//! where β, not α, owns the step; the constants come from Table II.

use crate::comm::{ring_send_tier, Topology};
use crate::hw::HardwareConfig;
use crate::trace::secs_to_ps;
use crate::traffic::{Tier, TierBytes};

/// One tier's share of one collective for one rank, in seconds, hop
/// latency and byte time apart. Picoseconds come from the two methods
/// below and nowhere else: the tier's `alpha + beta` is quantised as
/// one term (what the step schedule runs on), its `alpha` on its own,
/// and β in picoseconds is the remainder `wire_ps − alpha_ps`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AlphaBeta {
    /// Hop count × per-hop latency — payload-independent.
    pub alpha: f64,
    /// Bytes ÷ link bandwidth — linear in the payload.
    pub beta: f64,
}

impl AlphaBeta {
    /// `alpha + beta`.
    pub fn secs(self) -> f64 {
        self.alpha + self.beta
    }

    /// The tier's wire time in integer picoseconds.
    pub fn wire_ps(self) -> u64 {
        secs_to_ps(self.secs())
    }

    /// The latency part of [`Self::wire_ps`]; never exceeds it.
    pub fn alpha_ps(self) -> u64 {
        secs_to_ps(self.alpha)
    }
}

/// What one collective costs one rank on each interconnect tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierCost {
    /// Node-local (PCIe-tier) links.
    pub intra: AlphaBeta,
    /// Links between nodes (Infiniband tier).
    pub inter: AlphaBeta,
}

impl TierCost {
    /// Seconds across both tiers.
    pub fn secs(self) -> f64 {
        self.intra.secs() + self.inter.secs()
    }
}

/// `hops` and `bytes` on links of `(per-hop latency in seconds, stream
/// rate in bytes/s)`.
fn price((latency, bandwidth): (f64, f64), hops: f64, bytes: f64) -> AlphaBeta {
    AlphaBeta {
        alpha: hops * latency,
        beta: bytes / bandwidth,
    }
}

/// `rank`'s node under the two-tier schedule as `(leader, members)`
/// (a ragged last node keeps its exact size), or `None` when the
/// collective is one flat ring: [`Topology::Flat`], or a group that
/// fits in one node. `gpn` is the one node size pricing uses — link
/// constants, tier labels and this fallback all follow it.
fn node_of(gpus: usize, gpn: usize, topology: Topology, rank: usize) -> Option<(usize, usize)> {
    assert!(rank < gpus, "rank {rank} outside a group of {gpus}");
    assert!(gpn >= 1, "topology needs at least one GPU per node");
    match topology {
        Topology::TwoTier { gpus_per_node } if gpus > gpn => {
            assert_eq!(gpus_per_node, gpn, "two node sizes for one collective");
            let leader = rank / gpn * gpn;
            Some((leader, gpn.min(gpus - leader)))
        }
        Topology::TwoTier { .. } | Topology::Flat => None,
    }
}

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

    /// `(latency, bandwidth)` of `tier`'s links, as [`price`] takes them.
    fn link(&self, tier: Tier) -> (f64, f64) {
        match tier {
            Tier::Intra => (self.hw.intra_latency, self.hw.intra_node_bw),
            Tier::Inter => (self.hw.inter_latency, self.hw.inter_node_bw),
        }
    }

    /// A flat ring's `hops` and `bytes` for `rank`, on the tier of its
    /// egress link `rank → rank + 1` (the tier [`crate::Rank::all_reduce`]
    /// returns the same sends on). In a ring each GPU sends to one neighbour per
    /// step and the step rate is bounded by the slowest link, so a ring
    /// that leaves its node runs every hop at inter-node latency and
    /// the lower of the two bandwidths. A ring of one has no link.
    fn ring(&self, gpus: usize, gpn: usize, rank: usize, hops: f64, bytes: f64) -> TierCost {
        if gpus == 1 {
            return TierCost::default();
        }
        let spans = if gpus <= gpn {
            Tier::Intra
        } else {
            Tier::Inter
        };
        let (latency, bandwidth) = self.link(spans);
        let slowest = (latency, bandwidth.min(self.hw.intra_node_bw));
        let (zero, cost) = (AlphaBeta::default(), price(slowest, hops, bytes));
        let (intra, inter) = match ring_send_tier(gpus, gpn, rank) {
            Tier::Intra => (cost, zero),
            Tier::Inter => (zero, cost),
        };
        TierCost { intra, inter }
    }

    /// What one ALLREDUCE costs `rank` of `gpus` laid out `gpn` per
    /// node, given the exact per-tier bytes `sent` it puts on the wire
    /// ([`crate::comm::allreduce_send_bytes`] under the same `topology`
    /// — exact even when the payload does not divide by the group;
    /// codec-compressed volumes substitute encoded bytes for raw ones,
    /// hop counts depend on topology alone).
    ///
    /// Flat ring (and any group that fits in one node): `2(G−1)` hops
    /// and `sent.total()` bytes on the rank's egress tier. Two-tier,
    /// the α–β mirror of the four phases
    /// [`crate::comm::allreduce_send_bytes`] charges under
    /// [`Topology::TwoTier`]:
    ///
    /// * intra: the `m−1` reduce-scatter hops over the node's `m`
    ///   members plus the hand-off (member) or the broadcast round
    ///   (leader), at intra-node constants;
    /// * inter: leaders only — the `2(N−1)`-hop ring over the `N`
    ///   nodes at inter-node constants. A member's inter tier is zero.
    pub fn allreduce(
        &self,
        sent: TierBytes,
        gpus: usize,
        gpn: usize,
        topology: Topology,
        rank: usize,
    ) -> TierCost {
        let Some((leader, members)) = node_of(gpus, gpn, topology, rank) else {
            let hops = 2.0 * (gpus - 1) as f64;
            return self.ring(gpus, gpn, rank, hops, sent.total() as f64);
        };
        let intra_hops = if members > 1 { members } else { 0 } as f64;
        let ring_hops = 2.0 * (gpus.div_ceil(gpn) - 1) as f64;
        TierCost {
            intra: price(self.link(Tier::Intra), intra_hops, sent.intra as f64),
            inter: if rank == leader {
                price(self.link(Tier::Inter), ring_hops, sent.inter as f64)
            } else {
                AlphaBeta::default()
            },
        }
    }

    /// What one ALLGATHER of `bytes_per_gpu` from every GPU costs
    /// `rank` of `gpus` laid out `gpn` per node. Flat ring (and any
    /// group that fits in one node): `G−1` hops, each forwarding one
    /// contribution, on the rank's egress tier. Two-tier, the α–β
    /// mirror of [`crate::comm::peer_exchange_tier_bytes`]: the rank
    /// sends its payload once per peer, node-mates at intra-node
    /// constants and remote peers at inter-node constants.
    pub fn allgather(
        &self,
        bytes_per_gpu: u64,
        gpus: usize,
        gpn: usize,
        topology: Topology,
        rank: usize,
    ) -> TierCost {
        let bytes = bytes_per_gpu as f64;
        let Some((_, members)) = node_of(gpus, gpn, topology, rank) else {
            let peers = (gpus - 1) as f64;
            return self.ring(gpus, gpn, rank, peers, peers * bytes);
        };
        let (near, far) = ((members - 1) as f64, (gpus - members) as f64);
        TierCost {
            intra: price(self.link(Tier::Intra), near, near * bytes),
            inter: price(self.link(Tier::Inter), far, far * bytes),
        }
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
    use crate::comm::allreduce_send_bytes;

    fn model() -> CostModel {
        CostModel::new(HardwareConfig::titan_x_cluster(), 0.4)
    }

    fn two_tier(gpus_per_node: usize) -> Topology {
        Topology::TwoTier { gpus_per_node }
    }

    /// Rank `r`'s price for an ALLREDUCE of `n` f32 elements.
    fn reduce(m: &CostModel, n: usize, gpus: usize, gpn: usize, t: Topology, r: usize) -> TierCost {
        m.allreduce(allreduce_send_bytes(n, gpus, gpn, t, r, 4), gpus, gpn, t, r)
    }

    /// Rank `r`'s seconds in a flat ring ALLREDUCE of `n` f32 elements
    /// on the preset's 8-GPU nodes.
    fn ring_secs(m: &CostModel, n: usize, gpus: usize, r: usize) -> f64 {
        reduce(m, n, gpus, 8, Topology::Flat, r).secs()
    }

    /// Seconds of a flat ring ALLGATHER on the preset's 8-GPU nodes.
    fn gather_secs(m: &CostModel, bytes_per_gpu: u64, gpus: usize) -> f64 {
        m.allgather(bytes_per_gpu, gpus, 8, Topology::Flat, 0)
            .secs()
    }

    /// Every `(gpus, gpn, topology)` shape the clock tests walk: one
    /// node, divisible and ragged multi-node, flat and two-tier.
    fn shapes() -> Vec<(usize, usize, Topology)> {
        let mut out = Vec::new();
        for (gpus, gpn) in [(4, 8), (8, 8), (24, 8), (11, 8), (5, 2), (8, 4), (12, 16)] {
            out.push((gpus, gpn, Topology::Flat));
            out.push((gpus, gpn, two_tier(gpn)));
        }
        out
    }

    /// The four seconds of a price, `[intra α, intra β, inter α, inter β]`.
    fn parts(c: TierCost) -> [f64; 4] {
        [c.intra.alpha, c.intra.beta, c.inter.alpha, c.inter.beta]
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
        let sent = TierBytes::on(Tier::Intra, 1 << 30);
        for topology in [Topology::Flat, two_tier(8)] {
            let free = TierCost::default();
            assert_eq!(model().allreduce(sent, 1, 8, topology, 0), free);
            assert_eq!(model().allgather(1 << 30, 1, 8, topology, 0), free);
        }
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
        let ratio = gather_secs(&m, 10 << 20, 64) / gather_secs(&m, 10 << 20, 16);
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
        // `2(G−1)·α + 2(G−1)/G · n / β` — here on one node's links.
        let m = model();
        let hw = m.hardware().clone();
        for gpus in [2usize, 4, 8] {
            let n = 1024 * gpus;
            let g = gpus as f64;
            let whole = 2.0 * (g - 1.0) * hw.intra_latency
                + 2.0 * (g - 1.0) / g * (n * 4) as f64 / hw.intra_node_bw;
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
        // One-node groups collapse to the flat per-rank price.
        for r in 0..4 {
            let flat = reduce(&m, 1000, 4, 8, Topology::Flat, r);
            assert_eq!(reduce(&m, 1000, 4, 8, two_tier(8), r), flat);
            assert_eq!(flat.inter, AlphaBeta::default());
        }
        // Multi-node: only leaders pay inter time; a member's inter
        // tier is {0, 0}.
        let (gpus, gpn, n) = (24usize, 8usize, 10_000usize);
        for r in 0..gpus {
            let price = reduce(&m, n, gpus, gpn, two_tier(gpn), r);
            assert!(price.intra.alpha > 0.0 && price.intra.beta > 0.0);
            if r % gpn == 0 {
                assert!(
                    price.inter.alpha > 0.0 && price.inter.beta > 0.0,
                    "leader {r} must pay the Infiniband tier"
                );
            } else {
                assert_eq!(
                    price.inter,
                    AlphaBeta::default(),
                    "member {r} must not touch Infiniband"
                );
            }
        }
    }

    #[test]
    fn hierarchical_beats_flat_ring_at_paper_scale() {
        // Table V's regime: 192 GPUs on 24 nodes. The flat ring pays
        // 2(G−1) inter-node latencies; the hierarchical schedule pays
        // 2(N−1) plus cheap intra hops, and wins per step — on α alone
        // already.
        let m = model();
        let (gpus, gpn, n) = (192usize, 8usize, 100_000usize);
        let slowest = |t: Topology, of: fn(TierCost) -> f64| {
            (0..gpus)
                .map(|r| of(reduce(&m, n, gpus, gpn, t, r)))
                .fold(0.0, f64::max)
        };
        let (flat, hier) = (
            slowest(Topology::Flat, TierCost::secs),
            slowest(two_tier(gpn), TierCost::secs),
        );
        assert!(hier < flat, "hier {hier} must beat flat {flat}");
        let alpha = |c: TierCost| c.intra.alpha + c.inter.alpha;
        let (flat, hier) = (
            slowest(Topology::Flat, alpha),
            slowest(two_tier(gpn), alpha),
        );
        assert!((flat - 2.0 * 191.0 * 30e-6).abs() < 1e-12, "flat α {flat}");
        assert!(
            (hier - (8.0 * 10e-6 + 2.0 * 23.0 * 30e-6)).abs() < 1e-12,
            "hier α {hier}"
        );
    }

    #[test]
    fn allgather_tier_time_splits_and_falls_back() {
        let m = model();
        // One-node groups collapse to the flat price, all intra.
        for r in 0..4 {
            let flat = m.allgather(1 << 16, 4, 8, Topology::Flat, r);
            assert_eq!(m.allgather(1 << 16, 4, 8, two_tier(8), r), flat);
            assert_eq!(flat.inter, AlphaBeta::default());
        }
        // Multi-node (ragged): every rank pays both tiers, peer counts
        // follow the node sizes — rank 4 sits alone on node 2 and has
        // no intra peers at all.
        let (gpus, gpn) = (5usize, 2usize);
        for r in 0..gpus {
            let price = m.allgather(1 << 16, gpus, gpn, two_tier(gpn), r);
            if r == 4 {
                assert_eq!(
                    price.intra,
                    AlphaBeta::default(),
                    "lone rank on the last node"
                );
            } else {
                assert!(price.intra.secs() > 0.0);
            }
            assert!(price.inter.secs() > 0.0);
        }
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

    #[test]
    fn node_size_argument_decides_constants_and_labels_together() {
        let m = model();
        let hw = m.hardware().clone();
        let sent = |tier| TierBytes::on(tier, 1 << 20);
        // 8 flat ranks on 4-GPU nodes: the ring leaves its node, so
        // every rank runs it at Infiniband constants; the two ranks
        // whose egress link crosses nodes book it as inter.
        for r in 0..8 {
            let crosses = r % 4 == 3;
            let tier = if crosses { Tier::Inter } else { Tier::Intra };
            let got = m.allreduce(sent(tier), 8, 4, Topology::Flat, r);
            let ring = AlphaBeta {
                alpha: 14.0 * hw.inter_latency,
                beta: (1 << 20) as f64 / hw.inter_node_bw,
            };
            let (on, off) = if crosses {
                (got.inter, got.intra)
            } else {
                (got.intra, got.inter)
            };
            assert_eq!((on, off), (ring, AlphaBeta::default()), "rank {r}");
            let gather = m.allgather(1 << 10, 8, 4, Topology::Flat, r);
            let booked = if crosses { gather.inter } else { gather.intra };
            assert_eq!(booked.alpha, 7.0 * hw.inter_latency, "rank {r}");
        }
        // 12 two-tier ranks on 16-GPU nodes: one node, so the fallback
        // ring runs at PCIe constants and books everything as intra.
        for r in 0..12 {
            let got = m.allreduce(sent(Tier::Intra), 12, 16, two_tier(16), r);
            let ring = AlphaBeta {
                alpha: 22.0 * hw.intra_latency,
                beta: (1 << 20) as f64 / hw.intra_node_bw,
            };
            assert_eq!((got.intra, got.inter), (ring, AlphaBeta::default()));
            let gather = m.allgather(1 << 10, 12, 16, two_tier(16), r);
            assert_eq!(gather.intra.alpha, 11.0 * hw.intra_latency);
            assert_eq!(gather.inter, AlphaBeta::default());
        }
    }

    #[test]
    fn alpha_ignores_the_payload_and_beta_is_linear_in_it() {
        let m = model();
        for (gpus, gpn, t) in shapes() {
            for r in 0..gpus {
                let empty = TierBytes::default();
                let alphas = |c: TierCost| [c.intra.alpha.to_bits(), c.inter.alpha.to_bits()];
                let reduce_alpha = alphas(m.allreduce(empty, gpus, gpn, t, r));
                let gather_alpha = alphas(m.allgather(0, gpus, gpn, t, r));
                for n in [1usize, 1000, 1 << 20] {
                    let ctx = format!("{gpus}/{gpn} {t:?} rank {r} n {n}");
                    assert_eq!(
                        alphas(reduce(&m, n, gpus, gpn, t, r)),
                        reduce_alpha,
                        "{ctx}"
                    );
                    let gathered = m.allgather(n as u64, gpus, gpn, t, r);
                    assert_eq!(alphas(gathered), gather_alpha, "{ctx}");
                    // 2ᵏ× the bytes is exactly 2ᵏ× the β.
                    let sent = allreduce_send_bytes(n, gpus, gpn, t, r, 4);
                    let base = m.allreduce(sent, gpus, gpn, t, r);
                    for k in [1u32, 5, 10] {
                        let scaled = TierBytes {
                            intra: sent.intra << k,
                            inter: sent.inter << k,
                        };
                        let f = (1u64 << k) as f64;
                        let big = m.allreduce(scaled, gpus, gpn, t, r);
                        assert_eq!(big.intra.beta, f * base.intra.beta, "{ctx} k {k}");
                        assert_eq!(big.inter.beta, f * base.inter.beta, "{ctx} k {k}");
                        let big = m.allgather((n as u64) << k, gpus, gpn, t, r);
                        assert_eq!(big.intra.beta, f * gathered.intra.beta, "{ctx} k {k}");
                        assert_eq!(big.inter.beta, f * gathered.inter.beta, "{ctx} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn faster_hardware_never_raises_any_component() {
        let base = HardwareConfig::titan_x_cluster();
        let slow = CostModel::new(base.clone(), 0.4);
        for hw in base.faster_links() {
            let fast = CostModel::new(hw, 0.4);
            for (gpus, gpn, t) in shapes() {
                for r in 0..gpus {
                    let pairs = [
                        (
                            reduce(&fast, 100_003, gpus, gpn, t, r),
                            reduce(&slow, 100_003, gpus, gpn, t, r),
                        ),
                        (
                            fast.allgather(4096, gpus, gpn, t, r),
                            slow.allgather(4096, gpus, gpn, t, r),
                        ),
                    ];
                    for (fast, slow) in pairs {
                        for (f, s) in parts(fast).into_iter().zip(parts(slow)) {
                            assert!(f <= s, "{gpus}/{gpn} {t:?} rank {r}: {f} > {s}");
                        }
                        assert!(fast.intra.alpha_ps() <= fast.intra.wire_ps());
                        assert!(fast.inter.alpha_ps() <= fast.inter.wire_ps());
                    }
                }
            }
        }
    }
}
