//! Vocabulary truncation with UNK — the §IV-A procedure.
//!
//! "We use the 100,000 most frequent words … as the vocabulary for each
//! corpus. The number of unique words can range from 2 M to 24 M …, but
//! vocabularies created by this simple procedure account for 99 % of the
//! text." [`Vocab::build`] reproduces exactly that: count, keep top-K,
//! map the rest to UNK, and report coverage.

use zipf::FrequencyTable;

/// A truncated model vocabulary over raw corpus token ids.
#[derive(Debug, Clone)]
pub struct Vocab {
    /// raw id -> model id; ids absent from the map go to UNK.
    map: Vec<u32>,
    /// Model vocabulary size *including* the UNK entry.
    size: usize,
    /// Model id of the UNK token (always `size - 1`).
    unk: u32,
    /// Fraction of training-token mass covered by non-UNK entries.
    coverage: f64,
}

impl Vocab {
    /// Sentinel in `map` for "not in vocabulary".
    const ABSENT: u32 = u32::MAX;

    /// Builds the vocabulary from a token stream, keeping the `top_k`
    /// most frequent raw ids, in frequency order (model id 0 = most
    /// frequent — preserving the Zipf rank structure the `lm` crate's
    /// seeding strategy relies on). One extra UNK slot is appended.
    pub fn build(tokens: &[u32], top_k: usize) -> Self {
        assert!(top_k >= 1, "vocabulary must keep at least one word");
        let mut freq = FrequencyTable::new();
        freq.add_all(tokens);
        let (kept, coverage) = freq.top_k(top_k);

        let max_raw = tokens.iter().copied().max().unwrap_or(0) as usize;
        let mut map = vec![Self::ABSENT; max_raw + 1];
        for (model_id, &raw) in kept.iter().enumerate() {
            map[raw as usize] = model_id as u32;
        }
        let size = kept.len() + 1;
        Self {
            map,
            size,
            unk: (size - 1) as u32,
            coverage,
        }
    }

    /// Identity vocabulary over a dense id space of `n` ids (used for
    /// char LMs where no truncation happens). No UNK is added; every id
    /// maps to itself.
    pub fn identity(n: usize) -> Self {
        assert!(n >= 1);
        Self {
            map: (0..n as u32).collect(),
            size: n,
            unk: (n - 1) as u32, // never produced by lookup
            coverage: 1.0,
        }
    }

    /// Model vocabulary size (including UNK for built vocabularies).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Model id of the UNK token.
    pub fn unk(&self) -> u32 {
        self.unk
    }

    /// Fraction of the build stream covered by in-vocabulary tokens.
    pub fn coverage(&self) -> f64 {
        self.coverage
    }

    /// Maps one raw id to its model id (UNK if unseen or out of range).
    #[inline]
    pub fn lookup(&self, raw: u32) -> u32 {
        match self.map.get(raw as usize) {
            Some(&id) if id != Self::ABSENT => id,
            _ => self.unk,
        }
    }

    /// Maps a whole stream.
    pub fn encode(&self, raw: &[u32]) -> Vec<u32> {
        raw.iter().map(|&t| self.lookup(t)).collect()
    }

    /// [`Vocab::encode`] in the stream's own buffer.
    pub fn encode_in_place(&self, tokens: &mut [u32]) {
        for t in tokens {
            *t = self.lookup(*t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_k_in_frequency_order() {
        // raw 7 appears 3x, raw 2 appears 2x, raw 9 appears 1x.
        let tokens = [7u32, 2, 7, 9, 2, 7];
        let v = Vocab::build(&tokens, 2);
        assert_eq!(v.size(), 3); // 2 kept + UNK
        assert_eq!(v.lookup(7), 0);
        assert_eq!(v.lookup(2), 1);
        assert_eq!(v.lookup(9), v.unk());
        assert_eq!(v.lookup(12345), v.unk());
    }

    #[test]
    fn coverage_reported() {
        let tokens = [0u32, 0, 0, 0, 0, 0, 0, 0, 0, 1]; // 90% rank 0
        let v = Vocab::build(&tokens, 1);
        assert!((v.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn encode_maps_stream() {
        let tokens = [5u32, 5, 6, 7];
        let v = Vocab::build(&tokens, 1);
        let enc = v.encode(&tokens);
        assert_eq!(enc, vec![0, 0, v.unk(), v.unk()]);
        let mut in_place = tokens;
        v.encode_in_place(&mut in_place);
        assert_eq!(in_place[..], enc[..]);
    }

    #[test]
    fn identity_vocab_is_transparent() {
        let v = Vocab::identity(98);
        assert_eq!(v.size(), 98);
        assert_eq!(v.lookup(0), 0);
        assert_eq!(v.lookup(97), 97);
        assert!((v.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipfian_stream_high_coverage_with_small_vocab() {
        // The 99%-coverage claim of §IV-A, in miniature: a Zipfian stream
        // over 50 K types should be >90% covered by its top 5 K.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dist = zipf::ZipfMandelbrot::new(50_000, 1.5625, 3.5);
        let mut rng = StdRng::seed_from_u64(11);
        let tokens: Vec<u32> = (0..200_000).map(|_| dist.sample(&mut rng) as u32).collect();
        let v = Vocab::build(&tokens, 5_000);
        assert!(v.coverage() > 0.9, "coverage {}", v.coverage());
    }

    #[test]
    fn ids_are_dense_and_bounded() {
        let tokens = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let v = Vocab::build(&tokens, 4);
        let enc = v.encode(&tokens);
        assert!(enc.iter().all(|&t| t < v.size() as u32));
    }
}
