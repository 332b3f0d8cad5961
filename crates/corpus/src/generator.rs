//! Deterministic synthetic corpus generation.
//!
//! A [`CorpusGenerator`] draws token ids (frequency ranks) from the
//! profile's Zipf–Mandelbrot law with a seeded RNG, so any experiment can
//! regenerate byte-identical data from `(profile, seed, len)`.

use crate::profile::{DatasetProfile, TokenUnit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zipf::ZipfMandelbrot;

/// A seeded token-stream generator for one dataset profile.
///
/// Two generation modes:
///
/// * **i.i.d.** (default): every token is an independent draw from the
///   profile's Zipf–Mandelbrot law. This reproduces the corpus
///   *statistics* the paper's techniques exploit (Figure 1), but carries
///   no sequential signal — a language model can learn nothing beyond
///   the unigram distribution.
/// * **structured** ([`CorpusGenerator::with_structure`]): with
///   probability `λ` the next token is a *deterministic successor* of
///   the previous-token context (an order-2 hash of the last two
///   tokens), where each successor was itself drawn once from the Zipf
///   law. The token **marginal stays Zipfian** (successor values are
///   Zipf-distributed), but now there is real predictive structure whose
///   coverage grows with corpus size — which is what makes "more data ⇒
///   better perplexity" (the paper's Table V) reproducible on synthetic
///   text.
pub struct CorpusGenerator {
    dist: ZipfMandelbrot,
    rng: StdRng,
    unit: TokenUnit,
    /// Probability that the next token is the deterministic successor of
    /// its context (0 = pure i.i.d.).
    lambda: f64,
    /// Seed of the fixed successor function.
    successor_seed: u64,
    /// The successor of each context bucket, drawn once by
    /// [`CorpusGenerator::with_structure`] (empty for an i.i.d. stream).
    successors: Vec<u32>,
    prev: u32,
    prev2: u32,
}

/// Number of distinct contexts the successor function distinguishes.
const CONTEXT_BUCKETS: u64 = 4096;

/// SplitMix64 finaliser, used to key the successor function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CorpusGenerator {
    /// Creates a generator at the given granularity.
    ///
    /// Word streams draw from the profile's word law over `word_types`
    /// ranks; char streams draw from the char law over `char_types`.
    pub fn new(profile: &DatasetProfile, unit: TokenUnit, seed: u64) -> Self {
        let dist = match unit {
            TokenUnit::Word => {
                ZipfMandelbrot::new(profile.word_types, profile.zipf_s, profile.zipf_q)
            }
            TokenUnit::Char => ZipfMandelbrot::new(profile.char_types, profile.char_zipf_s, 0.5),
        };
        Self {
            dist,
            rng: StdRng::seed_from_u64(seed),
            unit,
            lambda: 0.0,
            successor_seed: mix(seed ^ 0x5cce_5507),
            successors: Vec::new(),
            prev: 0,
            prev2: 0,
        }
    }

    /// Enables order-2 successor structure: with probability `lambda`
    /// the next token is the fixed Zipf-drawn successor of the current
    /// two-token context. Each context bucket's successor is one draw
    /// from the Zipf law on its own keyed stream, so the marginal over
    /// contexts remains Zipfian; all of them are drawn here, once.
    ///
    /// # Panics
    /// Panics unless `0 ≤ lambda < 1`.
    pub fn with_structure(mut self, lambda: f64) -> Self {
        assert!((0.0..1.0).contains(&lambda), "lambda must be in [0, 1)");
        self.lambda = lambda;
        self.successors = (0..CONTEXT_BUCKETS)
            .map(|ctx| {
                let mut r = StdRng::seed_from_u64(mix(self.successor_seed ^ ctx));
                self.dist.sample(&mut r) as u32
            })
            .collect();
        self
    }

    /// The deterministic successor of a two-token context.
    fn successor(&self, prev: u32, prev2: u32) -> u32 {
        let ctx = (prev as u64).wrapping_mul(31).wrapping_add(prev2 as u64) % CONTEXT_BUCKETS;
        self.successors[ctx as usize]
    }

    /// Granularity this generator emits.
    pub fn unit(&self) -> TokenUnit {
        self.unit
    }

    /// Number of distinct token ids the generator can emit.
    pub fn type_space(&self) -> usize {
        self.dist.vocab()
    }

    /// Draws the next token id.
    #[inline]
    pub fn next_token(&mut self) -> u32 {
        let t = if self.lambda > 0.0 && self.rng.gen::<f64>() < self.lambda {
            self.successor(self.prev, self.prev2)
        } else {
            self.dist.sample(&mut self.rng) as u32
        };
        self.prev2 = self.prev;
        self.prev = t;
        t
    }

    /// Materialises `n` tokens.
    pub fn generate(&mut self, n: usize) -> Vec<u32> {
        if self.lambda == 0.0 {
            let mut out = vec![0u32; n];
            self.dist.sample_many(&mut self.rng, &mut out);
            return out;
        }
        (0..n).map(|_| self.next_token()).collect()
    }

    /// Generates a full [`Corpus`] of `n` tokens.
    pub fn corpus(&mut self, n: usize) -> Corpus {
        Corpus {
            tokens: self.generate(n),
            type_space: self.type_space(),
            unit: self.unit,
        }
    }
}

/// A materialised synthetic corpus: raw token ids in generation order.
///
/// Token ids are frequency *ranks* in the generator's law (0 = most
/// frequent); [`crate::vocab::Vocab`] remaps them to a truncated model
/// vocabulary with UNK.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The token stream.
    pub tokens: Vec<u32>,
    /// Upper bound (exclusive) on token ids.
    pub type_space: usize,
    /// Granularity of the tokens.
    pub unit: TokenUnit,
}

impl Corpus {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the corpus has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let p = DatasetProfile::one_billion();
        let a = CorpusGenerator::new(&p, TokenUnit::Word, 42).generate(1000);
        let b = CorpusGenerator::new(&p, TokenUnit::Word, 42).generate(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = DatasetProfile::one_billion();
        let a = CorpusGenerator::new(&p, TokenUnit::Word, 1).generate(1000);
        let b = CorpusGenerator::new(&p, TokenUnit::Word, 2).generate(1000);
        assert_ne!(a, b);
    }

    #[test]
    fn tokens_within_type_space() {
        let p = DatasetProfile::tieba();
        let mut gen = CorpusGenerator::new(&p, TokenUnit::Char, 7);
        let space = gen.type_space() as u32;
        assert_eq!(space, 15_437);
        assert!(gen.generate(10_000).iter().all(|&t| t < space));
    }

    #[test]
    fn word_stream_is_head_heavy() {
        // Zipfian streams concentrate mass on low ranks.
        let p = DatasetProfile::one_billion();
        let tokens = CorpusGenerator::new(&p, TokenUnit::Word, 3).generate(50_000);
        let head = tokens.iter().filter(|&&t| t < 100).count();
        assert!(
            head as f64 > 0.3 * tokens.len() as f64,
            "head fraction {}",
            head as f64 / tokens.len() as f64
        );
    }

    #[test]
    fn char_stream_has_small_effective_alphabet() {
        let p = DatasetProfile::one_billion();
        let tokens = CorpusGenerator::new(&p, TokenUnit::Char, 3).generate(50_000);
        let mut seen = [false; 98];
        for &t in &tokens {
            seen[t as usize] = true;
        }
        let types = seen.iter().filter(|&&s| s).count();
        // All or nearly all of the small alphabet appears quickly —
        // this is the "unique characters become constant" note of §V-B.
        assert!(types > 80, "types {types}");
    }

    #[test]
    fn structured_mode_is_deterministic() {
        let p = DatasetProfile::one_billion();
        let a = CorpusGenerator::new(&p, TokenUnit::Char, 4)
            .with_structure(0.5)
            .generate(2000);
        let b = CorpusGenerator::new(&p, TokenUnit::Char, 4)
            .with_structure(0.5)
            .generate(2000);
        assert_eq!(a, b);
    }

    #[test]
    fn structured_mode_has_predictable_bigrams() {
        // With λ = 0.5, seeing the same 2-token context twice must often
        // produce the same successor — the signal an LM can learn.
        let p = DatasetProfile::one_billion();
        let tokens = CorpusGenerator::new(&p, TokenUnit::Char, 9)
            .with_structure(0.5)
            .generate(60_000);
        let mut seen: std::collections::HashMap<(u32, u32), u32> = Default::default();
        let mut repeats = 0usize;
        let mut matches = 0usize;
        for w in tokens.windows(3) {
            let ctx = (w[1], w[0]);
            if let Some(&next) = seen.get(&ctx) {
                repeats += 1;
                if next == w[2] {
                    matches += 1;
                }
            } else {
                seen.insert(ctx, w[2]);
            }
        }
        assert!(repeats > 1000);
        let rate = matches as f64 / repeats as f64;
        // λ² = 0.25 of pairs are (deterministic, deterministic) matches,
        // plus chance collisions from the Zipf head.
        assert!(rate > 0.25, "match rate {rate}");
        // And an i.i.d. stream must be far less predictable.
        let iid = CorpusGenerator::new(&p, TokenUnit::Char, 9).generate(60_000);
        let mut seen2: std::collections::HashMap<(u32, u32), u32> = Default::default();
        let (mut rep2, mut mat2) = (0usize, 0usize);
        for w in iid.windows(3) {
            let ctx = (w[1], w[0]);
            if let Some(&next) = seen2.get(&ctx) {
                rep2 += 1;
                if next == w[2] {
                    mat2 += 1;
                }
            } else {
                seen2.insert(ctx, w[2]);
            }
        }
        let iid_rate = mat2 as f64 / rep2.max(1) as f64;
        assert!(rate > iid_rate + 0.1, "structured {rate} vs iid {iid_rate}");
    }

    #[test]
    fn structured_marginal_stays_head_heavy() {
        // The token marginal must remain Zipfian (Figure 1 depends on
        // it): successor values are themselves Zipf draws.
        let p = DatasetProfile::one_billion();
        let tokens = CorpusGenerator::new(&p, TokenUnit::Word, 3)
            .with_structure(0.5)
            .generate(50_000);
        let head = tokens.iter().filter(|&&t| t < 100).count();
        assert!(
            head as f64 > 0.3 * tokens.len() as f64,
            "head fraction {}",
            head as f64 / tokens.len() as f64
        );
    }

    /// FNV-1a over a token stream's little-endian bytes.
    fn fnv1a(tokens: &[u32]) -> u64 {
        tokens
            .iter()
            .flat_map(|t| t.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The structured streams the trainer draws, pinned by a literal
    /// written before the successor function became a table: one word
    /// stream over the One Billion law's 2 M ranks, one char stream over
    /// Tieba's alphabet.
    #[test]
    fn structured_streams_characterisation() {
        let word = CorpusGenerator::new(&DatasetProfile::one_billion(), TokenUnit::Word, 7)
            .with_structure(0.5)
            .generate(200_000);
        let char = CorpusGenerator::new(&DatasetProfile::tieba(), TokenUnit::Char, 7)
            .with_structure(0.5)
            .generate(200_000);
        assert_eq!(
            (fnv1a(&word), fnv1a(&char)),
            (0xb2cd_129e_ef3a_d940, 0x5d8f_36c1_8561_ba49),
            "word, char"
        );
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn structure_lambda_must_be_probability() {
        let p = DatasetProfile::one_billion();
        let _ = CorpusGenerator::new(&p, TokenUnit::Char, 1).with_structure(1.0);
    }

    #[test]
    fn corpus_wrapper_consistent() {
        let p = DatasetProfile::gutenberg();
        let c = CorpusGenerator::new(&p, TokenUnit::Word, 5).corpus(256);
        assert_eq!(c.len(), 256);
        assert!(!c.is_empty());
        assert_eq!(c.type_space, p.word_types);
        assert_eq!(c.unit, TokenUnit::Word);
    }
}
