//! Node-level uniqueness: the pure function behind the unique path's
//! index gather.
//!
//! §III-A's canonical global set `Î` is the first-occurrence order of
//! the rank-major concatenation of every rank's indices `J_r`. Ranks sit
//! contiguously per node (node `n` owns ranks `[n·gpn, (n+1)·gpn)`), so
//! the same order falls out of two levels of first occurrence: each
//! node's set `U_n` over its own ranks, then `Î` over the node-major
//! concatenation of the `U_n`. That is what lets a two-tier schedule
//! send only `U_n` across the node boundary and still hand every rank
//! the flat path's set, in order.
//!
//! [`NodeSets::build`] derives all three levels — each rank's locally
//! unique `Ĵ_r`, each node's `U_n` and `Î` — in one pass over the
//! indices, with epoch-stamped marks instead of hashing or sorting.

use crate::layout::NodeLayout;

/// Every first-occurrence set of one gather: per rank, per node and
/// global. Buffers and marks are reused across [`NodeSets::build`]
/// calls, so a steady state allocates nothing.
#[derive(Debug, Default)]
pub struct NodeSets {
    /// `Ĵ_0 ++ Ĵ_1 ++ …`, rank-major.
    local: Vec<u32>,
    /// End of each rank's `Ĵ_r` in `local`.
    local_ends: Vec<usize>,
    /// `U_0 ++ U_1 ++ …`, node-major.
    node: Vec<u32>,
    /// End of each node's `U_n` in `node`.
    node_ends: Vec<usize>,
    /// `Î`.
    global: Vec<u32>,
    /// Per index: the epoch that last saw it in the current rank, node
    /// and gather, in that order.
    seen: Vec<[u64; 3]>,
    /// Last epoch handed out; every rank, node and gather takes a fresh
    /// one, so stale marks never match.
    epoch: u64,
}

impl NodeSets {
    /// Empty sets; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds every set from `slots`, rank `r`'s indices `J_r` in rank
    /// order, on `layout`'s nodes (the last node may be smaller). `Ĵ_r`
    /// is the first-occurrence order of `J_r`, `U_n` of its node's ranks'
    /// concatenation and `Î` of every rank's — equal to first occurrence
    /// over the node-major concatenation of the `U_n`, because ranks are
    /// contiguous per node.
    pub fn build<'a>(&mut self, slots: impl IntoIterator<Item = &'a [u32]>, layout: NodeLayout) {
        self.local.clear();
        self.local_ends.clear();
        self.node.clear();
        self.node_ends.clear();
        self.global.clear();
        self.epoch += 1;
        let gather = self.epoch;
        let mut node = 0;
        for (r, slot) in slots.into_iter().enumerate() {
            if layout.is_leader(r) {
                if r > 0 {
                    self.node_ends.push(self.node.len());
                }
                self.epoch += 1;
                node = self.epoch;
            }
            self.epoch += 1;
            let rank = self.epoch;
            for &w in slot {
                let i = w as usize;
                if i >= self.seen.len() {
                    self.seen.resize(i + 1, [0; 3]);
                }
                let marks = &mut self.seen[i];
                if marks[0] == rank {
                    continue;
                }
                marks[0] = rank;
                self.local.push(w);
                if marks[1] == node {
                    continue;
                }
                marks[1] = node;
                self.node.push(w);
                if marks[2] != gather {
                    marks[2] = gather;
                    self.global.push(w);
                }
            }
            self.local_ends.push(self.local.len());
        }
        if !self.local_ends.is_empty() {
            self.node_ends.push(self.node.len());
        }
    }

    /// `Î`: every index of the gather once, in first-occurrence order.
    pub fn global(&self) -> &[u32] {
        &self.global
    }

    /// Node `n`'s set `U_n`.
    pub fn node(&self, n: usize) -> &[u32] {
        let start = if n == 0 { 0 } else { self.node_ends[n - 1] };
        &self.node[start..self.node_ends[n]]
    }

    /// Rank `r`'s locally unique indices `Ĵ_r`.
    pub fn local(&self, r: usize) -> &[u32] {
        let start = if r == 0 { 0 } else { self.local_ends[r - 1] };
        &self.local[start..self.local_ends[r]]
    }

    /// Nodes of the last build.
    pub fn nodes(&self) -> usize {
        self.node_ends.len()
    }

    /// `Σ_n |U_n|`: what the node leaders exchange, in indices.
    pub fn node_total(&self) -> usize {
        self.node.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_levels_of_first_occurrence() {
        // Nodes of two: {0, 1} and {2} (ragged).
        let slots: [&[u32]; 3] = [&[9, 2, 9, 5], &[2, 7, 0, 7], &[5, 0, 1]];
        let mut sets = NodeSets::new();
        sets.build(slots, NodeLayout::new(3, 2));
        assert_eq!(sets.local(0), [9, 2, 5]);
        assert_eq!(sets.local(1), [2, 7, 0]);
        assert_eq!(sets.local(2), [5, 0, 1]);
        assert_eq!(sets.nodes(), 2);
        assert_eq!(sets.node(0), [9, 2, 5, 7, 0]);
        assert_eq!(sets.node(1), [5, 0, 1]);
        assert_eq!(sets.node_total(), 8);
        assert_eq!(sets.global(), [9, 2, 5, 7, 0, 1]);
        // A second build on the same marks sees nothing stale.
        sets.build(slots, NodeLayout::new(3, 1));
        assert_eq!(sets.nodes(), 3);
        assert_eq!(sets.node(1), [2, 7, 0]);
        assert_eq!(sets.global(), [9, 2, 5, 7, 0, 1]);
        sets.build([], NodeLayout::new(0, 4));
        assert_eq!((sets.nodes(), sets.global()), (0, &[][..]));
    }
}
