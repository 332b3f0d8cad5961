//! One literal per model shape over every bit a training step and a
//! validation pass produce, on every tile width this CPU runs.
//!
//! Each case builds a model from a fixed seed, draws a skewed token
//! stream (so the input gradient repeats words, as a Zipfian corpus
//! does), and folds into one FNV-1a digest: `forward_backward`'s loss,
//! dense gradient, input-gradient indices and rows, output-gradient
//! indices and rows (word LM) and candidates, then `eval_loss`. The
//! shapes are the `e2e` workloads' — `word_exchange` (B 512, T 4, D 512),
//! `word_compute` (B 16, T 20, D 64), `char_weak` (B 1, T 6) — and a
//! char shape whose `T·B` is more than one 64-row block and not a
//! multiple of it. A change to where a layer reads its input rows or
//! makes its input-gradient rows that moves one bit fails here.

use nn::model::{CharLmConfig, SeqBatch, WordLmConfig};
use nn::{CharLm, WordLm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::matrix::for_each_width;

/// SplitMix64: a fixed stream, so the tokens do not depend on `rand`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A word below `vocab`, skewed to small ids: `⌊u³·V⌋`.
    fn word(&mut self, vocab: usize) -> u32 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((u * u * u * vocab as f64) as usize).min(vocab - 1) as u32
    }
}

/// `steps` steps of `batch` lanes, t-major, each target the next token.
fn batch(seed: u64, vocab: usize, batch: usize, steps: usize) -> SeqBatch {
    let mut s = Stream(seed);
    let stream: Vec<u32> = (0..batch * steps + 1).map(|_| s.word(vocab)).collect();
    SeqBatch {
        tokens: stream[..batch * steps].to_vec(),
        targets: stream[1..].to_vec(),
        batch,
        steps,
    }
}

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(x.to_bits().to_le_bytes());
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.bytes(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.bytes(xs.iter().flat_map(|x| x.to_le_bytes()));
    }
}

fn word_digest(cfg: WordLmConfig, b: usize, t: usize) -> u64 {
    let model = WordLm::new(11, cfg);
    let batch = batch(21, cfg.vocab, b, t);
    let g = model.forward_backward(&batch, &mut StdRng::seed_from_u64(31));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.f64(g.loss);
    h.f32s(&g.dense);
    h.u32s(&g.input_grad.indices);
    h.f32s(g.input_grad.rows.as_slice());
    h.u32s(&g.output_grad.indices);
    h.f32s(g.output_grad.rows.as_slice());
    h.u32s(&g.candidates);
    h.f64(model.eval_loss(&batch));
    h.0
}

fn char_digest(cfg: CharLmConfig, b: usize, t: usize) -> u64 {
    let model = CharLm::new(12, cfg);
    let batch = batch(22, cfg.vocab, b, t);
    let g = model.forward_backward(&batch);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.f64(g.loss);
    h.f32s(&g.dense);
    h.u32s(&g.input_grad.indices);
    h.f32s(g.input_grad.rows.as_slice());
    h.f64(model.eval_loss(&batch));
    h.0
}

/// Runs `digest` at every width and checks each against `want`.
fn at_every_width(name: &str, want: u64, digest: impl Fn() -> u64) {
    for_each_width(|width| {
        let got = digest();
        assert_eq!(got, want, "{name} at {width}: {got:#018x}");
    });
}

#[test]
fn word_exchange_step_is_pinned() {
    let cfg = WordLmConfig {
        vocab: 20_000,
        embed_dim: 512,
        hidden: 4,
        proj_dim: 8,
        samples: 8,
    };
    at_every_width("word_exchange", 0x44d2_645d_24ba_190f, || {
        word_digest(cfg, 512, 4)
    });
}

#[test]
fn word_compute_step_is_pinned() {
    let cfg = WordLmConfig {
        vocab: 4_000,
        embed_dim: 64,
        hidden: 256,
        proj_dim: 64,
        samples: 256,
    };
    at_every_width("word_compute", 0xe86c_5b5e_dacd_dc42, || {
        word_digest(cfg, 16, 20)
    });
}

#[test]
fn char_weak_step_is_pinned() {
    at_every_width("char_weak", 0x74f1_78f5_8cd5_e9b3, || {
        char_digest(CharLmConfig::small(48), 1, 6)
    });
}

#[test]
fn char_step_over_ragged_blocks_is_pinned() {
    // T·B = 96: one whole 64-row block and a ragged one.
    at_every_width("char B8 T12", 0x73a8_101b_153a_0cb6, || {
        char_digest(CharLmConfig::small(48), 8, 12)
    });
}
