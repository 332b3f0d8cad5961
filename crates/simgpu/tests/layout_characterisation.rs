//! Bit oracle for the node layout every two-tier schedule reads: which
//! schedule a collective runs, each rank's node, leader and node size,
//! and the node count. One FNV-1a hash folds, for every world in
//! 1..=26, 48 and 192 on 1-, 2-, 3- and 8-GPU nodes, under the flat and
//! the two-tier schedule on the group's own node size, and for every
//! rank:
//!
//! * `allreduce_send_bytes` of a payload no world divides evenly;
//! * `unique_gather_tier_bytes` of four frames of distinct lengths;
//! * `peer_exchange_tier_bytes` and `ring_send_tier`;
//! * the `f64::to_bits` of every α and β that `CostModel::allreduce` and
//!   `CostModel::unique_gather` charge for those bytes, and that
//!   `CostModel::allgather` charges on the flat schedule.
//!
//! A change to the layout arithmetic either leaves the literal alone or
//! fails here, whichever rank, tier or term it moved.

use simgpu::{
    allreduce_send_bytes, peer_exchange_tier_bytes, ring_send_tier, unique_gather_tier_bytes,
    CostModel, HardwareConfig, Tier, TierBytes, TierCost, Topology, UniqueFrames,
};

/// 64-bit FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn bytes(&mut self, sent: TierBytes) {
        self.fold(sent.intra);
        self.fold(sent.inter);
    }

    fn cost(&mut self, c: TierCost) {
        for ab in [c.intra, c.inter] {
            self.fold(ab.alpha.to_bits());
            self.fold(ab.beta.to_bits());
        }
    }
}

/// A payload no world in the sweep divides evenly.
const N: usize = 100_003;

/// Four frame lengths, pairwise distinct, so a frame sent in another's
/// place moves the hash.
const FRAMES: UniqueFrames = UniqueFrames {
    indices: 4 * 101,
    local: 4 * 67,
    node: 4 * 389,
    global: 4 * 1009,
};

#[test]
fn node_layout_prices_are_the_literal() {
    let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for world in (1..=26).chain([48, 192]) {
        for gpn in [1usize, 2, 3, 8] {
            for topology in [Topology::Flat, Topology::TwoTier] {
                for r in 0..world {
                    let reduced = allreduce_send_bytes(N, world, gpn, topology, r, 4);
                    h.bytes(reduced);
                    let gathered = unique_gather_tier_bytes(world, gpn, topology, r, FRAMES);
                    h.bytes(gathered);
                    h.bytes(peer_exchange_tier_bytes(world, gpn, r, 4 * 211));
                    h.fold(match ring_send_tier(world, gpn, r) {
                        Tier::Intra => 1,
                        Tier::Inter => 2,
                    });
                    h.cost(cost.allreduce(reduced, world, gpn, topology, r));
                    h.cost(cost.unique_gather(gathered, world, gpn, topology, r));
                    h.cost(cost.allgather(4 * 211, world, gpn, r));
                }
            }
        }
    }
    assert_eq!(
        h.0, 0x015c_d9d8_cbfa_8c61,
        "node layout characterisation moved"
    );
}
