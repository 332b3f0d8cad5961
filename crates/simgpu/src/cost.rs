//! α–β (latency–bandwidth) cost model for collectives and compute.
//!
//! Translates byte volumes and FLOP counts into simulated wall-clock
//! seconds on a [`HardwareConfig`]. This is the only file that knows
//! what a collective costs; the three pricing functions return each
//! tier's hop latency (α) and byte time (β) apart:
//!
//! * ring ALLREDUCE of `n` bytes over `G` GPUs:
//!   `α = 2(G−1)·latency`, `β = 2(G−1)/G · n / bandwidth`
//! * ALLGATHER collecting `n_local` bytes from each of `G` GPUs:
//!   `α = (G−1)·latency`, `β = (G−1) · n_local / bandwidth`; the unique
//!   path's index gather across `N` nodes instead pays `N−1` inter-node
//!   hops on each leader and none on a member
//! * the two-tier schedules run on the nodes [`NodeLayout::two_tier`]
//!   returns, the flat ones everywhere else
//! * compute: `flops / (peak · utilisation)`
//!
//! These are exactly the asymptotics the paper quotes (`Θ(G·K·D)`
//! ALLGATHER vs `Θ(G·K + Ug·D)` for the unique scheme), which pay only
//! where β, not α, owns the step; the constants come from Table II.

use crate::comm::ring_send_tier;
use crate::hw::HardwareConfig;
use crate::layout::{NodeLayout, Topology};
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
    fn ring(&self, layout: NodeLayout, rank: usize, hops: f64, bytes: f64) -> TierCost {
        let gpus = layout.world();
        if gpus == 1 {
            return TierCost::default();
        }
        let spans = if layout.nodes() == 1 {
            Tier::Intra
        } else {
            Tier::Inter
        };
        let (latency, bandwidth) = self.link(spans);
        let slowest = (latency, bandwidth.min(self.hw.intra_node_bw));
        let (zero, cost) = (AlphaBeta::default(), price(slowest, hops, bytes));
        let (intra, inter) = match ring_send_tier(gpus, layout.gpus_per_node(), rank) {
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
    /// and `sent.total()` bytes on the rank's egress tier. Two-tier on
    /// the `gpn`-GPU nodes, the α–β mirror of the four phases
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
        let layout = NodeLayout::new(gpus, gpn);
        let Some(nodes) = layout.two_tier(topology) else {
            let hops = 2.0 * (gpus - 1) as f64;
            return self.ring(layout, rank, hops, sent.total() as f64);
        };
        let members = nodes.members(rank);
        let intra_hops = if members > 1 { members } else { 0 } as f64;
        let ring_hops = 2.0 * (nodes.nodes() - 1) as f64;
        TierCost {
            intra: price(self.link(Tier::Intra), intra_hops, sent.intra as f64),
            inter: if nodes.is_leader(rank) {
                price(self.link(Tier::Inter), ring_hops, sent.inter as f64)
            } else {
                AlphaBeta::default()
            },
        }
    }

    /// What one peer ALLGATHER of `bytes_per_gpu` from every GPU costs
    /// `rank` of `gpus` laid out `gpn` per node — the baseline's row
    /// gather, which always runs flat: `G−1` hops, each forwarding one
    /// contribution, on the rank's egress tier. The unique path's index
    /// gather is [`Self::unique_gather`], which across nodes
    /// deduplicates per node instead.
    pub fn allgather(&self, bytes_per_gpu: u64, gpus: usize, gpn: usize, rank: usize) -> TierCost {
        let peers = (gpus - 1) as f64;
        let layout = NodeLayout::new(gpus, gpn);
        self.ring(layout, rank, peers, peers * bytes_per_gpu as f64)
    }

    /// What one unique-set gather ([`crate::Rank::all_gather_unique`])
    /// costs `rank` of `gpus` laid out `gpn` per node, given the exact
    /// per-tier bytes `sent` it puts on the wire
    /// ([`crate::comm::unique_gather_tier_bytes`] under the same
    /// `topology`).
    ///
    /// Flat (and any group that fits in one node): the peer gather,
    /// priced as [`Self::allgather`] prices it — `G−1` hops and
    /// `sent.total()` bytes on the rank's egress tier. Two-tier across
    /// nodes, the node schedule: a member pays one intra hop (its
    /// hand-off to the leader) and no inter-node time; a leader pays
    /// `m−1` intra hops (its broadcast to the node's `m` members) and the
    /// `N−1` inter-node hops of the leaders' exchange.
    pub fn unique_gather(
        &self,
        sent: TierBytes,
        gpus: usize,
        gpn: usize,
        topology: Topology,
        rank: usize,
    ) -> TierCost {
        let layout = NodeLayout::new(gpus, gpn);
        let Some(nodes) = layout.two_tier(topology) else {
            let peers = (gpus - 1) as f64;
            return self.ring(layout, rank, peers, sent.total() as f64);
        };
        let intra = self.link(Tier::Intra);
        if !nodes.is_leader(rank) {
            return TierCost {
                intra: price(intra, 1.0, sent.intra as f64),
                inter: AlphaBeta::default(),
            };
        }
        let leaders = nodes.nodes() - 1;
        TierCost {
            intra: price(intra, (nodes.members(rank) - 1) as f64, sent.intra as f64),
            inter: price(self.link(Tier::Inter), leaders as f64, sent.inter as f64),
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
    use crate::comm::{
        allreduce_send_bytes, peer_exchange_tier_bytes, unique_gather_tier_bytes, UniqueFrames,
    };

    fn model() -> CostModel {
        CostModel::new(HardwareConfig::titan_x_cluster(), 0.4)
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
        m.allgather(bytes_per_gpu, gpus, 8, 0).secs()
    }

    /// Every `(gpus, gpn, topology)` shape the clock tests walk: one
    /// node, divisible and ragged multi-node, flat and two-tier.
    fn shapes() -> Vec<(usize, usize, Topology)> {
        let mut out = Vec::new();
        for (gpus, gpn) in [(4, 8), (8, 8), (24, 8), (11, 8), (5, 2), (8, 4), (12, 16)] {
            out.push((gpus, gpn, Topology::Flat));
            out.push((gpus, gpn, Topology::TwoTier));
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
        for topology in [Topology::Flat, Topology::TwoTier] {
            let free = TierCost::default();
            assert_eq!(model().allreduce(sent, 1, 8, topology, 0), free);
            assert_eq!(model().allgather(1 << 30, 1, 8, 0), free);
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
            assert_eq!(reduce(&m, 1000, 4, 8, Topology::TwoTier, r), flat);
            assert_eq!(flat.inter, AlphaBeta::default());
        }
        // Multi-node: only leaders pay inter time; a member's inter
        // tier is {0, 0}.
        let (gpus, gpn, n) = (24usize, 8usize, 10_000usize);
        for r in 0..gpus {
            let price = reduce(&m, n, gpus, gpn, Topology::TwoTier, r);
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
            slowest(Topology::TwoTier, TierCost::secs),
        );
        assert!(hier < flat, "hier {hier} must beat flat {flat}");
        let alpha = |c: TierCost| c.intra.alpha + c.inter.alpha;
        let (flat, hier) = (
            slowest(Topology::Flat, alpha),
            slowest(Topology::TwoTier, alpha),
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
        // One-node groups price all intra.
        for r in 0..4 {
            let flat = m.allgather(1 << 16, 4, 8, r);
            assert_eq!(flat.inter, AlphaBeta::default());
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
            let gather = m.allgather(1 << 10, 8, 4, r);
            let booked = if crosses { gather.inter } else { gather.intra };
            assert_eq!(booked.alpha, 7.0 * hw.inter_latency, "rank {r}");
        }
        // 12 two-tier ranks on 16-GPU nodes: one node, so the fallback
        // ring runs at PCIe constants and books everything as intra.
        for r in 0..12 {
            let got = m.allreduce(sent(Tier::Intra), 12, 16, Topology::TwoTier, r);
            let ring = AlphaBeta {
                alpha: 22.0 * hw.intra_latency,
                beta: (1 << 20) as f64 / hw.intra_node_bw,
            };
            assert_eq!((got.intra, got.inter), (ring, AlphaBeta::default()));
            let gather = m.allgather(1 << 10, 12, 16, r);
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
                let gather_alpha = alphas(m.allgather(0, gpus, gpn, r));
                for n in [1usize, 1000, 1 << 20] {
                    let ctx = format!("{gpus}/{gpn} {t:?} rank {r} n {n}");
                    assert_eq!(
                        alphas(reduce(&m, n, gpus, gpn, t, r)),
                        reduce_alpha,
                        "{ctx}"
                    );
                    let gathered = m.allgather(n as u64, gpus, gpn, r);
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
                        let big = m.allgather((n as u64) << k, gpus, gpn, r);
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
                            fast.allgather(4096, gpus, gpn, r),
                            slow.allgather(4096, gpus, gpn, r),
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

    /// Rank `r`'s sends in a unique-set gather of `k` distinct indices
    /// per rank (no duplicates anywhere, the largest frames there are).
    fn distinct_frames(gpus: usize, gpn: usize, t: Topology, r: usize, k: u64) -> TierBytes {
        let node = r / gpn * gpn;
        let frames = UniqueFrames {
            indices: k * 4,
            local: k * 4,
            node: gpn.min(gpus - node) as u64 * k * 4,
            global: gpus as u64 * k * 4,
        };
        unique_gather_tier_bytes(gpus, gpn, t, r, frames)
    }

    #[test]
    fn unique_gather_prices_leaders_at_node_hops_and_members_at_none() {
        let m = model();
        let hw = m.hardware().clone();
        for (gpus, gpn) in [(24usize, 8usize), (192, 8), (11, 4), (5, 2)] {
            let nodes = gpus.div_ceil(gpn);
            for r in 0..gpus {
                let sent = distinct_frames(gpus, gpn, Topology::TwoTier, r, 12);
                let price = m.unique_gather(sent, gpus, gpn, Topology::TwoTier, r);
                let members = gpn.min(gpus - r / gpn * gpn);
                let ctx = format!("{gpus}/{gpn} rank {r}");
                if r % gpn == 0 {
                    let inter = (nodes - 1) as f64 * hw.inter_latency;
                    assert_eq!(price.inter.alpha, inter, "{ctx}: leader");
                    assert!(price.inter.beta > 0.0, "{ctx}: leader");
                    let intra = (members - 1) as f64 * hw.intra_latency;
                    assert_eq!(price.intra.alpha, intra, "{ctx}: leader");
                } else {
                    assert_eq!(price.inter, AlphaBeta::default(), "{ctx}: member");
                    assert_eq!(price.intra.alpha, hw.intra_latency, "{ctx}: member");
                }
            }
        }
    }

    /// Against the peer gather it replaces (the same `K` indices per
    /// rank, every node-mate intra and one inter-node hop per remote
    /// peer): the node schedule never gives any rank more inter-node
    /// hops, never more inter-node bytes to any node, and — when every
    /// node is full — never more inter-node bytes to any rank, however
    /// large or duplicate-free the payload. Groups that fit in one node,
    /// and the flat topology, price the flat peer gather to the byte and
    /// the picosecond.
    #[test]
    fn node_schedule_never_adds_inter_node_alpha_or_bytes() {
        let m = model();
        let hw = m.hardware().clone();
        for gpus in 2..=192usize {
            for gpn in [1usize, 2, 3, 8] {
                for k in [1u64, 640] {
                    let peer = |r| peer_exchange_tier_bytes(gpus, gpn, r, k * 4);
                    let mut node_inter = [0u64; 2];
                    for r in 0..gpus {
                        let ctx = format!("{gpus}/{gpn} rank {r} K {k}");
                        let flat = m.allgather(k * 4, gpus, gpn, r);
                        let sent = distinct_frames(gpus, gpn, Topology::Flat, r, k);
                        assert_eq!(sent, peer(r), "{ctx}");
                        assert_eq!(m.unique_gather(sent, gpus, gpn, Topology::Flat, r), flat);
                        let t = Topology::TwoTier;
                        let sent = distinct_frames(gpus, gpn, t, r, k);
                        let price = m.unique_gather(sent, gpus, gpn, t, r);
                        if gpus <= gpn {
                            assert_eq!((sent, price), (peer(r), flat), "{ctx}");
                            continue;
                        }
                        let remote = gpus - gpn.min(gpus - r / gpn * gpn);
                        let peer_alpha = remote as f64 * hw.inter_latency;
                        assert!(price.inter.alpha <= peer_alpha, "{ctx}");
                        assert!(price.inter.alpha_ps() <= secs_to_ps(peer_alpha), "{ctx}");
                        if gpus % gpn == 0 {
                            assert!(sent.inter <= peer(r).inter, "{ctx}");
                        }
                        if r % gpn == 0 {
                            node_inter = [0; 2];
                        }
                        node_inter[0] += sent.inter;
                        node_inter[1] += peer(r).inter;
                        if (r + 1) % gpn == 0 || r + 1 == gpus {
                            assert!(node_inter[0] <= node_inter[1], "{ctx}: node");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unique_gather_alpha_is_payload_invariant_and_beta_linear() {
        let m = model();
        for (gpus, gpn, t) in shapes() {
            for r in 0..gpus {
                let alphas = |c: TierCost| [c.intra.alpha.to_bits(), c.inter.alpha.to_bits()];
                let empty = alphas(m.unique_gather(TierBytes::default(), gpus, gpn, t, r));
                for k in [1u64, 1000, 1 << 20] {
                    let ctx = format!("{gpus}/{gpn} {t:?} rank {r} K {k}");
                    let sent = distinct_frames(gpus, gpn, t, r, k);
                    let base = m.unique_gather(sent, gpus, gpn, t, r);
                    assert_eq!(alphas(base), empty, "{ctx}");
                    for shift in [1u32, 5, 10] {
                        let scaled = TierBytes {
                            intra: sent.intra << shift,
                            inter: sent.inter << shift,
                        };
                        let f = (1u64 << shift) as f64;
                        let big = m.unique_gather(scaled, gpus, gpn, t, r);
                        assert_eq!(alphas(big), empty, "{ctx}");
                        assert_eq!(big.intra.beta, f * base.intra.beta, "{ctx}");
                        assert_eq!(big.inter.beta, f * base.inter.beta, "{ctx}");
                    }
                }
            }
        }
    }
}
