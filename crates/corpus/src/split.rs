//! Train / validation splits — §IV-A.
//!
//! "To train the models and to test the accuracy, we split the first two
//! datasets into 99:1 ratio and the last two into 1000:1 ratio … Each
//! split is created by sampling without replacement and a fixed random
//! seed." We sample *blocks* (not individual tokens) without replacement
//! so validation text retains local sequential structure for the LM to
//! predict.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Block size used when assigning text to the validation split.
const BLOCK: usize = 256;

/// Splits `tokens` so roughly `1/denominator` of blocks land in the
/// validation set (denominator 100 ⇒ 99:1, 1001 ⇒ 1000:1), sampling
/// blocks without replacement with the fixed `seed`.
///
/// Returns `(train, valid)`. The final partial block always stays in
/// train so validation length is a multiple of `BLOCK` (except for tiny
/// inputs where everything stays in train).
pub fn train_valid_split(tokens: &[u32], denominator: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
    train_valid_split_in_place(tokens.to_vec(), denominator, seed)
}

/// [`train_valid_split`] in `tokens`' own buffer: the train blocks are
/// compacted in place, in order, and only the validation blocks (about
/// `1/denominator` of the stream) are copied out, so no second
/// stream-sized buffer is made.
pub fn train_valid_split_in_place(
    mut tokens: Vec<u32>,
    denominator: usize,
    seed: u64,
) -> (Vec<u32>, Vec<u32>) {
    assert!(denominator >= 2, "denominator must be >= 2");
    let n_blocks = tokens.len() / BLOCK;
    let n_valid = n_blocks / denominator;
    if n_valid == 0 {
        return (tokens, Vec::new());
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n_blocks).collect();
    idx.shuffle(&mut rng);
    let mut valid_blocks: Vec<usize> = idx[..n_valid].to_vec();
    valid_blocks.sort_unstable();

    let mut valid = Vec::with_capacity(n_valid * BLOCK);
    let mut next_valid = 0usize;
    let mut kept = 0usize;
    for b in 0..n_blocks {
        let block = b * BLOCK..(b + 1) * BLOCK;
        if next_valid < valid_blocks.len() && valid_blocks[next_valid] == b {
            valid.extend_from_slice(&tokens[block]);
            next_valid += 1;
        } else {
            tokens.copy_within(block, kept);
            kept += BLOCK;
        }
    }
    let tail = n_blocks * BLOCK..tokens.len();
    tokens.copy_within(tail.clone(), kept);
    tokens.truncate(kept + tail.len());
    (tokens, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn partition_preserves_all_tokens() {
        let tokens = stream(100_000);
        let (train, valid) = train_valid_split(&tokens, 100, 7);
        assert_eq!(train.len() + valid.len(), tokens.len());
        // Distinct ids in this stream: union must be exact.
        let mut all: Vec<u32> = train.iter().chain(valid.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, tokens);
    }

    #[test]
    fn ratio_approximately_honoured() {
        let tokens = stream(1_000_000);
        let (_, valid) = train_valid_split(&tokens, 100, 1);
        let frac = valid.len() as f64 / tokens.len() as f64;
        assert!((frac - 0.01).abs() < 0.003, "valid frac {frac}");
    }

    #[test]
    fn thousand_to_one_ratio() {
        let tokens = stream(2_000_000);
        let (_, valid) = train_valid_split(&tokens, 1001, 1);
        let frac = valid.len() as f64 / tokens.len() as f64;
        assert!(frac > 0.0 && frac < 0.002, "valid frac {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let tokens = stream(50_000);
        let a = train_valid_split(&tokens, 100, 9);
        let b = train_valid_split(&tokens, 100, 9);
        assert_eq!(a, b);
        let c = train_valid_split(&tokens, 100, 10);
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn tiny_input_all_train() {
        let tokens = stream(100);
        let (train, valid) = train_valid_split(&tokens, 100, 1);
        assert_eq!(train, tokens);
        assert!(valid.is_empty());
    }

    /// The split as it was written before it compacted in place: every
    /// block copied out into a fresh train or valid buffer. Kept as the
    /// oracle for the in-place split.
    /// `train_valid_split` as it was before it split in place: every
    /// block copied into a fresh train or valid buffer. Kept as the
    /// oracle for the in-place split.
    fn copying_split(tokens: &[u32], denominator: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        assert!(denominator >= 2, "denominator must be >= 2");
        let n_blocks = tokens.len() / BLOCK;
        let n_valid = n_blocks / denominator;
        if n_valid == 0 {
            return (tokens.to_vec(), Vec::new());
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..n_blocks).collect();
        idx.shuffle(&mut rng);
        let mut valid_blocks: Vec<usize> = idx[..n_valid].to_vec();
        valid_blocks.sort_unstable();

        let mut train = Vec::with_capacity(tokens.len());
        let mut valid = Vec::with_capacity(n_valid * BLOCK);
        let mut next_valid = 0usize;
        for b in 0..n_blocks {
            let chunk = &tokens[b * BLOCK..(b + 1) * BLOCK];
            if next_valid < valid_blocks.len() && valid_blocks[next_valid] == b {
                valid.extend_from_slice(chunk);
                next_valid += 1;
            } else {
                train.extend_from_slice(chunk);
            }
        }
        train.extend_from_slice(&tokens[n_blocks * BLOCK..]);
        (train, valid)
    }

    /// The in-place split against the copying one, bit for bit: random
    /// streams with and without a partial last block, tiny inputs that
    /// stay whole in train, a stream of whole blocks, three ratios and
    /// several seeds.
    #[test]
    fn in_place_split_matches_the_copying_split() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5b11);
        for n in [
            0,
            1,
            255,
            256,
            257,
            25_600,
            51_200,
            100_000,
            256 * 1001 + 77,
        ] {
            let tokens: Vec<u32> = (0..n).map(|_| rng.gen()).collect();
            for denominator in [2, 100, 1001] {
                for seed in [1, 9, 0x5b11_7000] {
                    let want = copying_split(&tokens, denominator, seed);
                    let got = train_valid_split_in_place(tokens.clone(), denominator, seed);
                    assert_eq!(got, want, "n {n} denominator {denominator} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn validation_blocks_are_contiguous_runs() {
        let tokens = stream(100_000);
        let (_, valid) = train_valid_split(&tokens, 50, 3);
        // Ids were sequential, so each 256-block of valid must be a run.
        for chunk in valid.chunks(256) {
            for w in chunk.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }
}
