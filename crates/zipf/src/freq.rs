//! Empirical frequency tables over token streams.
//!
//! Used to build vocabularies (most-frequent-first, as the paper's §IV-A
//! "100,000 most frequent words" procedure), to extract empirical
//! rank-frequency curves, and by the Zipf-frequency seeding strategy
//! (§III-B) which assigns sampled-softmax seeds in proportion to word
//! frequency mass.

use std::collections::HashMap;

/// Token-frequency statistics with rank ordering.
///
/// Counts are accumulated with [`FrequencyTable::add`] / `add_all`, then
/// frozen into rank order by [`FrequencyTable::ranked`]. Token identity is
/// a `u32` id (the crate never deals in strings; `corpus` owns the
/// id ↔ surface-form mapping).
#[derive(Debug, Clone, Default)]
pub struct FrequencyTable {
    counts: HashMap<u32, u64>,
    total: u64,
}

impl FrequencyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `token`.
    #[inline]
    pub fn add(&mut self, token: u32) {
        *self.counts.entry(token).or_insert(0) += 1;
        self.total += 1;
    }

    /// Records every token in `tokens`.
    pub fn add_all(&mut self, tokens: &[u32]) {
        for &t in tokens {
            self.add(t);
        }
    }

    /// Total number of tokens counted.
    #[inline]
    pub fn tokens(&self) -> u64 {
        self.total
    }

    /// Number of distinct tokens counted (types).
    #[inline]
    pub fn types(&self) -> usize {
        self.counts.len()
    }

    /// Count for one token (0 if unseen).
    pub fn count(&self, token: u32) -> u64 {
        self.counts.get(&token).copied().unwrap_or(0)
    }

    /// Returns `(token, count)` pairs sorted by descending count, ties
    /// broken by ascending token id for determinism.
    pub fn ranked(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Empirical probability of each rank, descending (sums to 1).
    pub fn rank_probs(&self) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        self.ranked()
            .iter()
            .map(|&(_, c)| c as f64 / total)
            .collect()
    }

    /// The `top_k` most frequent token ids (the vocabulary-truncation
    /// procedure of §IV-A), plus the fraction of total token mass covered.
    ///
    /// The paper notes 100 K words cover "99% of the text"; the coverage
    /// value lets callers verify the same property on synthetic corpora.
    pub fn top_k(&self, top_k: usize) -> (Vec<u32>, f64) {
        let ranked = self.ranked();
        let kept = ranked.iter().take(top_k);
        let covered: u64 = kept.clone().map(|&(_, c)| c).sum();
        let ids: Vec<u32> = kept.map(|&(t, _)| t).collect();
        (ids, covered as f64 / self.total.max(1) as f64)
    }

    /// The smallest vocabulary size covering at least `target` of the
    /// token mass (`None` if even the full type set falls short, which
    /// only happens for `target > 1`).
    pub fn vocab_for_coverage(&self, target: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&target), "target must be a fraction");
        let ranked = self.ranked();
        let total = self.total.max(1) as f64;
        let mut covered = 0u64;
        for (i, &(_, c)) in ranked.iter().enumerate() {
            covered += c;
            if covered as f64 / total >= target {
                return Some(i + 1);
            }
        }
        if target == 0.0 {
            Some(0)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(tokens: &[u32]) -> FrequencyTable {
        let mut t = FrequencyTable::new();
        t.add_all(tokens);
        t
    }

    #[test]
    fn to_be_or_not_to_be() {
        // The paper's own example: 4 types, 6 tokens.
        let t = table_of(&[0, 1, 2, 3, 0, 1]); // to be or not to be
        assert_eq!(t.tokens(), 6);
        assert_eq!(t.types(), 4);
    }

    #[test]
    fn ranked_is_descending_and_deterministic() {
        let t = table_of(&[5, 5, 5, 2, 2, 9, 1, 1, 1, 1]);
        let r = t.ranked();
        assert_eq!(r, vec![(1, 4), (5, 3), (2, 2), (9, 1)]);
    }

    #[test]
    fn ranked_tie_break_by_id() {
        let t = table_of(&[3, 7, 3, 7]);
        assert_eq!(t.ranked(), vec![(3, 2), (7, 2)]);
    }

    #[test]
    fn rank_probs_sum_to_one() {
        let t = table_of(&[0, 0, 1, 2, 2, 2]);
        let p = t.rank_probs();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn top_k_coverage() {
        let t = table_of(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]); // 90% / 10%
        let (ids, cov) = t.top_k(1);
        assert_eq!(ids, vec![0]);
        assert!((cov - 0.9).abs() < 1e-12);
        let (_, full) = t.top_k(10);
        assert!((full - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vocab_for_coverage_finds_smallest() {
        let t = table_of(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]); // 90% / 10%
        assert_eq!(t.vocab_for_coverage(0.9), Some(1));
        assert_eq!(t.vocab_for_coverage(0.95), Some(2));
        assert_eq!(t.vocab_for_coverage(1.0), Some(2));
        assert_eq!(t.vocab_for_coverage(0.0), Some(1));
    }

    #[test]
    fn zipfian_stream_small_vocab_high_coverage() {
        // §IV-A in miniature: a Zipfian stream needs only a small head
        // vocabulary to cover most of the text.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dist = crate::ZipfMandelbrot::new(100_000, 1.5625, 3.5);
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = FrequencyTable::new();
        for _ in 0..300_000 {
            t.add(dist.sample(&mut rng) as u32);
        }
        let k95 = t.vocab_for_coverage(0.95).unwrap();
        assert!(
            k95 * 4 < t.types(),
            "95% coverage needs {k95} of {} types",
            t.types()
        );
    }

    #[test]
    fn empty_table() {
        let t = FrequencyTable::new();
        assert_eq!(t.tokens(), 0);
        assert_eq!(t.types(), 0);
        assert!(t.ranked().is_empty());
        let (ids, cov) = t.top_k(5);
        assert!(ids.is_empty());
        assert_eq!(cov, 0.0);
    }
}
