//! Walker's alias method for O(1) discrete sampling.
//!
//! Corpus generation draws tens of millions of tokens from vocabularies
//! with millions of entries; inverse-CDF sampling (O(log V) per draw) is
//! too slow and naive linear scans are hopeless. The alias method does a
//! single table lookup plus one comparison per draw after O(V) setup.

use rand::Rng;

/// A pre-processed discrete distribution supporting O(1) sampling.
///
/// Construction is O(V); each [`AliasTable::sample`] is O(1). The table
/// stores, per slot, a cut-off probability and an alias index, following
/// Vose's numerically-stable construction.
///
/// ```
/// use rand::SeedableRng;
/// let table = zipf::AliasTable::new(vec![3.0, 1.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let heavy = (0..1000).filter(|_| table.sample(&mut rng) == 0).count();
/// assert!(heavy > 650 && heavy < 850); // ≈ 75%
/// ```
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Per-slot acceptance threshold, scaled to [0, 1).
    prob: Vec<f64>,
    /// Per-slot alias target used when the threshold test fails.
    alias: Vec<u32>,
    /// Sum of the weights the table was built from.
    total: f64,
}

impl AliasTable {
    /// Builds an alias table from unnormalised non-negative weights,
    /// taking the buffer over: the weights are scaled in place and the
    /// same buffer becomes the table's thresholds.
    ///
    /// A slot's threshold is final once it leaves the small stack (only
    /// the top of the large stack ever gives mass away), so it stays
    /// where it was scaled; slots left on either stack get 1. The two
    /// stacks share one `n`-entry buffer, small growing up from the
    /// front and large down from the back: together they never hold
    /// more than the `n` slots they started with.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/NaN value, or
    /// sums to zero.
    pub fn new(mut weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table limited to 2^32 outcomes"
        );
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must sum to a positive finite value"
        );

        let n = weights.len();
        let scale = n as f64 / total;
        let mut stacks = vec![0u32; n];
        let (mut small, mut large) = (0, n);
        for (i, w) in weights.iter_mut().enumerate() {
            assert!(
                *w >= 0.0 && w.is_finite(),
                "weights must be non-negative and finite"
            );
            // Scaled probabilities; mean is exactly 1 by construction.
            *w *= scale;
            if *w < 1.0 {
                stacks[small] = i as u32;
                small += 1;
            } else {
                large -= 1;
                stacks[large] = i as u32;
            }
        }
        // `stacks[..small]` is the small stack (top last) and
        // `stacks[large..]` the large one, filled back to front so its
        // top is `stacks[large]`, the last index pushed: both pop in
        // Vose's order.
        let mut prob = weights;
        let mut alias = vec![0u32; n];
        while small > 0 && large < n {
            small -= 1;
            let (s, l) = (stacks[small] as usize, stacks[large] as usize);
            alias[s] = l as u32;
            // Move the borrowed mass from the large slot.
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large += 1;
                stacks[small] = l as u32;
                small += 1;
            }
        }
        // Whatever remains (numerical leftovers) keeps probability 1.
        for &i in stacks[..small].iter().chain(&stacks[large..]) {
            prob[i as usize] = 1.0;
        }

        Self { prob, alias, total }
    }

    /// Sum of the weights the table was built from.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of outcomes in the distribution.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no outcomes (never true post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index in `0..len()`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let slot = rng.gen_range(0..n);
        let coin: f64 = rng.gen();
        if coin < self.prob[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }

    /// Fills `out` with independent draws; convenience for batch generation.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Vose's construction as the table was first built: a scaled copy
    /// of the weights, two growing index stacks and a separate `prob`.
    /// The oracle every build of [`AliasTable`] must equal bit for bit.
    fn vose_oracle(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in scaled.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut prob = vec![1.0f64; n];
        let mut alias = vec![0u32; n];
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for &i in large.iter().chain(&small) {
            prob[i as usize] = 1.0;
        }
        (prob, alias)
    }

    fn build(weights: &[f64]) -> AliasTable {
        AliasTable::new(weights.to_vec())
    }

    /// The table's `prob` bits and `alias` targets equal the oracle's.
    fn assert_matches_oracle(weights: &[f64]) {
        let table = build(weights);
        let (prob, alias) = vose_oracle(weights);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&table.prob),
            bits(&prob),
            "prob, n = {}",
            weights.len()
        );
        assert_eq!(table.alias, alias, "alias, n = {}", weights.len());
    }

    #[test]
    fn directed_weights_match_the_vose_oracle() {
        assert_matches_oracle(&[42.0]);
        assert_matches_oracle(&[0.0, 3.0]);
        assert_matches_oracle(&[1.0, 0.0, 1.0]);
        assert_matches_oracle(&[8.0, 4.0, 2.0, 1.0, 1.0]);
        for n in [2usize, 3, 7, 10, 1000] {
            // Scaling 0.1 by n / (n · 0.1) is not exact for every n, so
            // ties leave numerical leftovers on either stack.
            assert_matches_oracle(&vec![0.1; n]);
            assert_matches_oracle(&vec![1.0; n]);
        }
    }

    /// The One Billion word law (`s = 1.5625`, `q = 3.5`) at its 2 M
    /// ranks, the table every word run builds.
    #[test]
    fn one_billion_law_matches_the_vose_oracle() {
        let weights: Vec<f64> = (0..2_000_000)
            .map(|r| ((r + 1) as f64 + 3.5).powf(-1.5625))
            .collect();
        assert_matches_oracle(&weights);
    }

    proptest! {
        /// Weights mixing zeros, ties and spread values.
        #[test]
        fn random_weights_match_the_vose_oracle(
            kinds in proptest::collection::vec(0u32..5, 1..300),
            values in proptest::collection::vec(0.0f64..100.0, 300),
        ) {
            let weights: Vec<f64> = kinds
                .iter()
                .zip(&values)
                .map(|(&kind, &v)| match kind {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 0.25,
                    3 => v,
                    _ => v * 1e-8,
                })
                .collect();
            prop_assume!(weights.iter().any(|&w| w > 0.0));
            assert_matches_oracle(&weights);
        }
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let table = AliasTable::new(vec![1.0; 8]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let expected = draws as f64 / 8.0;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "counts={counts:?}"
            );
        }
    }

    #[test]
    fn skewed_weights_match_frequencies() {
        let weights = [8.0, 4.0, 2.0, 1.0, 1.0];
        let table = AliasTable::new(weights.to_vec());
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 5];
        let draws = 160_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = draws as f64 * w / total;
            assert!(
                (counts[i] as f64 - expected).abs() < expected * 0.08,
                "outcome {i}: got {}, expected {expected}",
                counts[i]
            );
        }
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let table = AliasTable::new(vec![1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert_ne!(table.sample(&mut rng), 1);
        }
    }

    #[test]
    fn single_outcome_always_sampled() {
        let table = AliasTable::new(vec![42.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        AliasTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn all_zero_weights_panic() {
        AliasTable::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        AliasTable::new(vec![1.0, -0.5]);
    }

    #[test]
    fn sample_many_fills_buffer() {
        let table = AliasTable::new(vec![1.0, 2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = vec![99u32; 64];
        table.sample_many(&mut rng, &mut buf);
        assert!(buf.iter().all(|&t| t < 3));
    }
}
