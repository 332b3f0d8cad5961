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
//!
//! Plus the fleet-metrics laws the regression gate leans on:
//!
//! * histogram merge is *exact* — merging per-rank histograms equals
//!   bucketing the pooled samples, for any split of any sample set,
//! * quantiles are ordered, bounded by [min, max], and within the
//!   bucket family's 1/8 relative error of a true rank statistic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use zipf_lm::{Histogram, SeedStrategy};

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

    /// The exactness law behind the fleet rollup: split an arbitrary
    /// sample set across an arbitrary number of "ranks", bucket each
    /// shard into its own histogram, merge — the result must equal the
    /// histogram of the pooled samples, bucket for bucket, including
    /// count/sum/min/max. (Full u64 range: bucketing is a pure function
    /// of the value, so no distribution assumption is needed.)
    #[test]
    fn histogram_merge_equals_pooled(
        samples in proptest::collection::vec(0u64..=u64::MAX, 0..200),
        ranks in 1usize..=8,
        assign_seed in 0u64..=u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(assign_seed);
        let mut shards = vec![Histogram::new(); ranks];
        let mut pooled = Histogram::new();
        for &v in &samples {
            shards[rng.gen_range(0..ranks)].observe(v);
            pooled.observe(v);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(&merged, &pooled);
        // Merge order must not matter either (counts are commutative).
        let mut reversed = Histogram::new();
        for shard in shards.iter().rev() {
            reversed.merge(shard);
        }
        prop_assert_eq!(&reversed, &pooled);
    }

    /// Quantile contract: p50 ≤ p95 ≤ p99 ≤ max, every quantile inside
    /// [min, max], and each within the bucket family's relative error
    /// (width/lower ≤ 1/8) of the true order statistic it approximates.
    #[test]
    fn histogram_quantiles_are_ordered_and_tight(
        samples in proptest::collection::vec(0u64..=u64::MAX, 1..200),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.observe(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max().unwrap());
        prop_assert!(p50 >= h.min().unwrap() && h.max().unwrap() == *sorted.last().unwrap());
        for (q, got) in [(0.50, p50), (0.95, p95), (0.99, p99)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            // The reported value is the bucket's upper bound (clamped to
            // the observed max), so it can overshoot the true statistic
            // by at most the bucket width: 1/8 of its lower bound.
            prop_assert!(got >= truth, "q{q}: reported {got} below true {truth}");
            let bound = truth.saturating_add(truth / 8).saturating_add(1);
            prop_assert!(got <= bound, "q{q}: reported {got} above {bound} (true {truth})");
        }
    }
}
