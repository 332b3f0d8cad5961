//! Controlled randomization for sampled softmax — §III-B.
//!
//! With per-GPU seeds, every GPU draws its own `S` candidate words, so
//! the union across `G` GPUs approaches `G·S` distinct words and the
//! output-embedding exchange loses the Zipfian overlap that makes
//! uniqueness pay. With one shared seed, scalability is perfect but
//! sample diversity — and accuracy — collapses. The paper's insight is
//! the spectrum in between: use `k < G` distinct seeds, assigning GPUs to
//! seed groups, with `k = G^0.64` (the Zipf exponent again) empirically
//! matching full-diversity accuracy.

/// How sampled-softmax seeds are assigned across GPUs.
///
/// ```
/// use zipf_lm::SeedStrategy;
/// // At 64 GPUs the paper's Zipf's-frequency rule needs G^0.64 ≈ 15
/// // distinct seeds:
/// assert_eq!(SeedStrategy::ZipfFreq.seed_count(64), 15);
/// // GPUs in the same group draw identical candidate sets:
/// let a = SeedStrategy::ZipfFreq.seed_for(7, 0, 64, 3);
/// let b = SeedStrategy::ZipfFreq.seed_for(7, 1, 64, 3);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStrategy {
    /// Every GPU uses its own seed (the accuracy-optimal, scalability-
    /// pessimal baseline; the paper's curve labelled `G`).
    PerGpu,
    /// All GPUs share one seed (scalability-optimal, accuracy-pessimal).
    AllSame,
    /// `⌈log₂ G⌉` distinct seeds.
    Log2,
    /// `⌈ln G⌉` distinct seeds.
    LogE,
    /// `⌈log₁₀ G⌉` distinct seeds.
    Log10,
    /// `⌈G^0.64⌉` distinct seeds ([`perfmodel::law::seed_groups`]) —
    /// the paper's Zipf's-frequency strategy, reported as the
    /// Pareto-optimal setting.
    ZipfFreq,
}

impl SeedStrategy {
    /// Number of distinct seeds this strategy uses across `world` GPUs.
    pub fn seed_count(&self, world: usize) -> usize {
        assert!(world >= 1);
        let count = match self {
            SeedStrategy::PerGpu => world,
            SeedStrategy::AllSame => 1,
            SeedStrategy::Log2 => (world as f64).log2().ceil() as usize,
            SeedStrategy::LogE => (world as f64).ln().ceil() as usize,
            SeedStrategy::Log10 => (world as f64).log10().ceil() as usize,
            SeedStrategy::ZipfFreq => perfmodel::law::seed_groups(world),
        };
        count.clamp(1, world)
    }

    /// The seed group of GPU `rank` (contiguous blocks of ranks share a
    /// group, mirroring how node-local GPUs would share a seed).
    pub fn group_of(&self, rank: usize, world: usize) -> usize {
        assert!(rank < world);
        let k = self.seed_count(world);
        rank * k / world
    }

    /// The RNG seed GPU `rank` must use at training step `step`.
    ///
    /// Seeds advance every step (sampling must differ across steps) but
    /// remain equal within a group — that is the entire §III-B mechanism.
    pub fn seed_for(&self, base_seed: u64, rank: usize, world: usize, step: u64) -> u64 {
        let group = self.group_of(rank, world) as u64;
        // SplitMix64-style mixing keeps (base, group, step) streams
        // statistically independent.
        let mut z = base_seed
            .wrapping_add(group.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(step.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// All strategies in the order Figure 7 plots them.
    pub fn figure7_strategies() -> Vec<SeedStrategy> {
        vec![
            SeedStrategy::PerGpu,
            SeedStrategy::ZipfFreq,
            SeedStrategy::Log2,
            SeedStrategy::LogE,
            SeedStrategy::Log10,
        ]
    }

    /// Display label matching the paper's Figure 7 legend.
    pub fn label(&self) -> &'static str {
        match self {
            SeedStrategy::PerGpu => "G",
            SeedStrategy::AllSame => "same",
            SeedStrategy::Log2 => "log2G",
            SeedStrategy::LogE => "logeG",
            SeedStrategy::Log10 => "log10G",
            SeedStrategy::ZipfFreq => "Zipf's-freq",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seed_counts_at_64_gpus() {
        // The paper's Figure 7 is at G = 64.
        assert_eq!(SeedStrategy::PerGpu.seed_count(64), 64);
        assert_eq!(SeedStrategy::AllSame.seed_count(64), 1);
        assert_eq!(SeedStrategy::Log2.seed_count(64), 6);
        assert_eq!(SeedStrategy::LogE.seed_count(64), 5); // ⌈4.16⌉
        assert_eq!(SeedStrategy::Log10.seed_count(64), 2); // ⌈1.8⌉
        assert_eq!(SeedStrategy::ZipfFreq.seed_count(64), 15); // ⌈64^0.64⌉
    }

    #[test]
    fn seed_count_bounded_by_world() {
        for world in 1..=16 {
            for s in SeedStrategy::figure7_strategies() {
                let k = s.seed_count(world);
                assert!(k >= 1 && k <= world, "{s:?} at {world}: {k}");
            }
        }
    }

    #[test]
    fn groups_partition_ranks_evenly() {
        let s = SeedStrategy::ZipfFreq;
        let world = 64;
        let k = s.seed_count(world);
        let mut sizes = vec![0usize; k];
        for r in 0..world {
            sizes[s.group_of(r, world)] += 1;
        }
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn same_group_same_seed_distinct_groups_differ() {
        let s = SeedStrategy::Log2; // 6 seeds at 64 GPUs
        let world = 64;
        let mut by_group: Vec<Option<u64>> = vec![None; s.seed_count(world)];
        let mut distinct = HashSet::new();
        for r in 0..world {
            let g = s.group_of(r, world);
            let seed = s.seed_for(99, r, world, 5);
            if let Some(prev) = by_group[g] {
                assert_eq!(prev, seed, "rank {r} diverged from its group");
            } else {
                by_group[g] = Some(seed);
                distinct.insert(seed);
            }
        }
        assert_eq!(distinct.len(), s.seed_count(world));
    }

    #[test]
    fn seeds_change_per_step() {
        let s = SeedStrategy::AllSame;
        let a = s.seed_for(1, 0, 8, 0);
        let b = s.seed_for(1, 0, 8, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn per_gpu_all_distinct() {
        let s = SeedStrategy::PerGpu;
        let world = 32;
        let seeds: HashSet<u64> = (0..world).map(|r| s.seed_for(7, r, world, 3)).collect();
        assert_eq!(seeds.len(), world);
    }

    #[test]
    fn zipf_freq_count_follows_power_law() {
        for world in [4usize, 16, 64, 256] {
            let k = SeedStrategy::ZipfFreq.seed_count(world);
            let expect = (world as f64).powf(0.64);
            assert!(
                (k as f64 - expect).abs() <= 1.0,
                "world {world}: {k} vs {expect}"
            );
        }
    }

    #[test]
    fn single_gpu_degenerates_gracefully() {
        for s in SeedStrategy::figure7_strategies() {
            assert_eq!(s.seed_count(1), 1);
            assert_eq!(s.group_of(0, 1), 0);
        }
    }
}
