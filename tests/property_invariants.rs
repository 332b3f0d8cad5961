//! Property tests for the §III-B seeding schemes, over arbitrary world
//! sizes, strategies, base seeds and steps — the unit tests in
//! `seeding.rs` pin the paper's G = 64 numbers; these pin the *laws*:
//!
//! * two ranks draw identical sampled-softmax candidate sets iff they
//!   are in the same seed group,
//! * the number of distinct seeds across a world equals exactly the
//!   strategy's policy count (`G^0.64` for Zipf's-frequency, `G` for
//!   per-GPU, 1 for shared),
//! * seeds always advance between steps.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use zipf_lm::SeedStrategy;

const STRATEGIES: [SeedStrategy; 6] = [
    SeedStrategy::PerGpu,
    SeedStrategy::AllSame,
    SeedStrategy::Log2,
    SeedStrategy::LogE,
    SeedStrategy::Log10,
    SeedStrategy::ZipfFreq,
];

/// The candidate words a rank would draw for sampled softmax: the
/// trainer seeds an `StdRng` from `seed_for` and samples the
/// distribution, so set equality is exactly seed equality.
fn candidate_set(seed: u64, vocab: usize, samples: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..samples)
        .map(|_| rng.gen_range(0..vocab as u32))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Same group ⟺ same seed ⟺ identical candidate sample sets. The
    /// ⟸ direction (distinct groups ⟹ distinct seeds) holds because
    /// the SplitMix64 finaliser is a bijection on `u64`, so distinct
    /// `base + group·C` inputs cannot collide for a fixed base/step.
    #[test]
    fn sample_sets_identical_exactly_within_a_group(
        strat_idx in 0usize..6,
        world in 1usize..=64,
        base_seed in 0u64..u64::MAX,
        step in 0u64..10_000,
    ) {
        let s = STRATEGIES[strat_idx];
        let seeds: Vec<u64> = (0..world)
            .map(|r| s.seed_for(base_seed, r, world, step))
            .collect();
        for a in 0..world {
            for b in (a + 1)..world {
                let same_group = s.group_of(a, world) == s.group_of(b, world);
                if same_group {
                    prop_assert_eq!(seeds[a], seeds[b], "ranks {}/{} split", a, b);
                    prop_assert_eq!(
                        candidate_set(seeds[a], 1000, 32),
                        candidate_set(seeds[b], 1000, 32)
                    );
                } else {
                    prop_assert_ne!(seeds[a], seeds[b]);
                }
            }
        }
    }

    /// The distinct-seed count across the world matches the strategy's
    /// policy exactly: `G` per-GPU, 1 shared, `⌈G^0.64⌉` (clamped to
    /// `[1, G]`) for Zipf's-frequency — and never leaves `[1, G]`.
    #[test]
    fn distinct_seed_count_matches_policy(
        strat_idx in 0usize..6,
        world in 1usize..=64,
        base_seed in 0u64..u64::MAX,
        step in 0u64..10_000,
    ) {
        let s = STRATEGIES[strat_idx];
        let k = s.seed_count(world);
        prop_assert!(k >= 1 && k <= world);
        match s {
            SeedStrategy::PerGpu => prop_assert_eq!(k, world),
            SeedStrategy::AllSame => prop_assert_eq!(k, 1),
            SeedStrategy::ZipfFreq => prop_assert_eq!(
                k,
                ((world as f64).powf(0.64).ceil() as usize).clamp(1, world)
            ),
            _ => {}
        }
        let distinct: HashSet<u64> = (0..world)
            .map(|r| s.seed_for(base_seed, r, world, step))
            .collect();
        prop_assert_eq!(distinct.len(), k, "{:?} at world {}", s, world);
    }

    /// Sampling must differ across steps even in the fully-shared
    /// configuration — a frozen candidate set would bias training.
    #[test]
    fn seeds_advance_every_step(
        strat_idx in 0usize..6,
        world in 1usize..=64,
        base_seed in 0u64..u64::MAX,
        step in 0u64..10_000,
    ) {
        let s = STRATEGIES[strat_idx];
        prop_assert_ne!(
            s.seed_for(base_seed, 0, world, step),
            s.seed_for(base_seed, 0, world, step + 1)
        );
    }
}
