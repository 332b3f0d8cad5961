//! Rank-frequency distributions: Zipf, Zipf–Mandelbrot and the log-uniform
//! candidate distribution used by sampled softmax.
//!
//! The paper's entire optimisation rests on the training corpus obeying
//! Zipf's law; we synthesise corpora from [`ZipfMandelbrot`] with the
//! exponent chosen so the resulting type–token curve reproduces the
//! paper's measured `U ∝ N^0.64`. For an ideal Zipf law with exponent
//! `s > 1`, Heaps' exponent is asymptotically `1/s`, so `s ≈ 1.56` targets
//! `α ≈ 0.64`; the Mandelbrot offset `q` flattens the head of the
//! distribution the way real text does and controls the fit prefactor.

use crate::alias::AliasTable;
use rand::Rng;

/// Classic Zipf law: `p(r) ∝ r^{-s}` over ranks `1..=v`.
///
/// A thin wrapper over [`ZipfMandelbrot`] with offset `q = 0`.
#[derive(Debug, Clone)]
pub struct Zipf {
    inner: ZipfMandelbrot,
}

impl Zipf {
    /// Creates a Zipf distribution over `vocab` ranks with exponent `s`.
    pub fn new(vocab: usize, s: f64) -> Self {
        Self {
            inner: ZipfMandelbrot::new(vocab, s, 0.0),
        }
    }

    /// Vocabulary size (number of ranks).
    pub fn vocab(&self) -> usize {
        self.inner.vocab()
    }

    /// Draws a 0-based rank (0 = most frequent word).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.inner.sample(rng)
    }

    /// Probability of the 0-based rank `r`.
    pub fn prob(&self, r: usize) -> f64 {
        self.inner.prob(r)
    }
}

/// Zipf–Mandelbrot law: `p(r) ∝ (r + 1 + q)^{-s}` over 0-based ranks.
///
/// `q > 0` dampens the head of the distribution (real corpora do not have
/// the single most frequent word at a full harmonic share), which is what
/// lets the fitted type–token prefactor match the paper's `a ≈ 7`.
#[derive(Debug, Clone)]
pub struct ZipfMandelbrot {
    vocab: usize,
    s: f64,
    q: f64,
    table: AliasTable,
    /// Normalisation constant: sum over ranks of `(r+1+q)^{-s}`.
    norm: f64,
}

impl ZipfMandelbrot {
    /// Creates the distribution over `vocab` ranks.
    ///
    /// # Panics
    /// Panics if `vocab == 0`, `s <= 0` or `q < 0`.
    pub fn new(vocab: usize, s: f64, q: f64) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(s > 0.0, "Zipf exponent must be positive");
        assert!(q >= 0.0, "Mandelbrot offset must be non-negative");
        let table = AliasTable::new((0..vocab).map(|r| ((r + 1) as f64 + q).powf(-s)).collect());
        Self {
            vocab,
            s,
            q,
            norm: table.total(),
            table,
        }
    }

    /// Vocabulary size (number of ranks).
    #[inline]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The power-law exponent `s`.
    #[inline]
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// The Mandelbrot offset `q`.
    #[inline]
    pub fn offset(&self) -> f64 {
        self.q
    }

    /// Probability of the 0-based rank `r`.
    pub fn prob(&self, r: usize) -> f64 {
        assert!(r < self.vocab, "rank {r} out of range");
        ((r + 1) as f64 + self.q).powf(-self.s) / self.norm
    }

    /// Draws a 0-based rank (0 = most frequent word).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng)
    }

    /// Fills `out` with independent rank draws.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        self.table.sample_many(rng, out)
    }
}

/// The log-uniform (Zipfian) candidate distribution used by sampled
/// softmax, matching TensorFlow's `log_uniform_candidate_sampler` that the
/// paper's implementation relies on:
/// `P(r) = (ln(r+2) − ln(r+1)) / ln(V+1)` over 0-based ranks.
///
/// Sampling uses the closed-form inverse CDF, so construction is O(1) —
/// important because sampled softmax re-draws `S` candidates every step.
#[derive(Debug, Clone, Copy)]
pub struct LogUniform {
    vocab: usize,
    log_vocab_plus_one: f64,
}

impl LogUniform {
    /// Creates the sampler over `vocab` 0-based ranks.
    ///
    /// # Panics
    /// Panics if `vocab == 0`.
    pub fn new(vocab: usize) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        Self {
            vocab,
            log_vocab_plus_one: ((vocab + 1) as f64).ln(),
        }
    }

    /// Vocabulary size.
    #[inline]
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Probability of the 0-based rank `r`.
    pub fn prob(&self, r: usize) -> f64 {
        assert!(r < self.vocab, "rank {r} out of range");
        (((r + 2) as f64).ln() - ((r + 1) as f64).ln()) / self.log_vocab_plus_one
    }

    /// Draws one 0-based rank via inverse-CDF: `⌊exp(u·ln(V+1))⌋ − 1`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let r = (u * self.log_vocab_plus_one).exp() as usize;
        // r is in [1, V+1); clamp the boundary case from rounding.
        (r.max(1) - 1).min(self.vocab - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_probs_sum_to_one() {
        let z = Zipf::new(1000, 1.2);
        let total: f64 = (0..1000).map(|r| z.prob(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_head_matches_law() {
        // "the most frequent word occurs approximately twice as often as
        // the second most frequent" — exact for s = 1.
        let z = Zipf::new(100, 1.0);
        let ratio = z.prob(0) / z.prob(1);
        assert!((ratio - 2.0).abs() < 1e-9);
        let ratio3 = z.prob(0) / z.prob(2);
        assert!((ratio3 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mandelbrot_offset_flattens_head() {
        let plain = ZipfMandelbrot::new(100, 1.0, 0.0);
        let offset = ZipfMandelbrot::new(100, 1.0, 5.0);
        assert!(offset.prob(0) / offset.prob(1) < plain.prob(0) / plain.prob(1));
    }

    #[test]
    fn zipf_empirical_frequency_matches() {
        let z = Zipf::new(50, 1.3);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 50];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate().take(5) {
            let expected = z.prob(r) * draws as f64;
            assert!(
                (count as f64 - expected).abs() < expected * 0.05,
                "rank {r}: got {count}, expected {expected:.0}"
            );
        }
    }

    #[test]
    fn log_uniform_probs_sum_to_one() {
        let lu = LogUniform::new(10_000);
        let total: f64 = (0..10_000).map(|r| lu.prob(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_uniform_empirical_matches_analytic() {
        let lu = LogUniform::new(1000);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 1000];
        let draws = 400_000;
        for _ in 0..draws {
            counts[lu.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 50, 500] {
            let expected = lu.prob(r) * draws as f64;
            let tolerance = (expected * 0.1).max(60.0);
            assert!(
                (counts[r] as f64 - expected).abs() < tolerance,
                "rank {r}: got {}, expected {expected:.1}",
                counts[r]
            );
        }
    }

    #[test]
    fn log_uniform_sample_in_range() {
        let lu = LogUniform::new(7);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10_000 {
            assert!(lu.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_vocab_panics() {
        ZipfMandelbrot::new(0, 1.0, 0.0);
    }
}
