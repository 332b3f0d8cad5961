//! Where a group's ranks sit, and which schedule a collective runs on
//! them: node `i` owns ranks `[i·gpn, (i+1)·gpn)`, the last node keeps
//! what is left (a ragged node). The node size is the group's, stated
//! once by [`crate::CommGroup::create_full`]; [`NodeLayout`] is its one
//! reader, and [`NodeLayout::two_tier`] the one two-tier decision.

/// Wire schedule a collective is charged under; never changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One flat schedule over all ranks: the ring, or the peer gather.
    Flat,
    /// The two-tier schedule on the group's nodes — §V-C's hierarchical
    /// ALLREDUCE (see [`crate::allreduce_send_bytes`]) or the
    /// node-deduplicated index gather — and the flat one when the group
    /// fits in one node.
    TwoTier,
}

/// `world` ranks laid out `gpn` per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLayout {
    world: usize,
    gpn: usize,
}

impl NodeLayout {
    /// `world` ranks on nodes of `gpn` (at least one).
    pub fn new(world: usize, gpn: usize) -> Self {
        assert!(gpn >= 1, "topology needs at least one GPU per node");
        Self { world, gpn }
    }

    /// Ranks in the group.
    pub fn world(self) -> usize {
        self.world
    }

    /// Ranks per full node.
    pub fn gpus_per_node(self) -> usize {
        self.gpn
    }

    /// The layout a collective under `topology` runs its two-tier
    /// schedule on, or `None` when it runs flat: under
    /// [`Topology::Flat`], or on a group that fits in one node.
    pub fn two_tier(self, topology: Topology) -> Option<Self> {
        (topology == Topology::TwoTier && self.world > self.gpn).then_some(self)
    }

    /// Nodes the group occupies.
    pub fn nodes(self) -> usize {
        self.world.div_ceil(self.gpn)
    }

    /// The node `rank` sits on.
    pub fn node(self, rank: usize) -> usize {
        assert!(rank < self.world, "rank {rank} outside the group");
        rank / self.gpn
    }

    /// The first rank of `rank`'s node: its leader.
    pub fn leader(self, rank: usize) -> usize {
        self.node(rank) * self.gpn
    }

    /// Whether `rank` leads its node.
    pub fn is_leader(self, rank: usize) -> bool {
        self.leader(rank) == rank
    }

    /// Ranks on `rank`'s node: `gpn`, or fewer on a ragged last node.
    pub fn members(self, rank: usize) -> usize {
        self.gpn.min(self.world - self.leader(rank))
    }
}
