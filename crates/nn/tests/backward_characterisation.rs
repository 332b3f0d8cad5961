//! One literal per case over every bit the word LM's two backward
//! kernels produce, on every tile width this CPU runs.
//!
//! * `SampledSoftmax::forward_backward_with_candidates`: the loss, `dh`,
//!   and the sparse table gradient's indices and rows (targets, then
//!   candidates). The cases reach `n = 1`, `S = 1`, `P` not a multiple of
//!   the 16-wide panel, candidates that hit a row's target (masked to a
//!   zero gradient), rows whose every candidate is a hit (so the target's
//!   own gradient is exactly zero), and logits spread so wide that most
//!   classes' probabilities underflow to zero.
//! * `LstmLayer::backward_dz`: `dWx`, `dWh`, `db` and `dz`, from a stored
//!   input and from an embedding lookup, at `T = 1`, `B = 1`, `H` not a
//!   multiple of 16 and the `e2e` word workloads' shapes.
//!
//! Inputs hold planted `+0.0` and `-0.0`, so a change that skips, adds or
//! reorders a signed-zero term shows. A change to how either backward is
//! issued that moves one bit fails here, and names the case.

use nn::{Embedding, Input, LstmLayer, SampledSoftmax};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::matrix::for_each_width;
use tensor::Matrix;

/// SplitMix64: a fixed stream, so the inputs do not depend on `rand`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A `rows × cols` matrix uniform in `(−scale, scale)`, with every
    /// seventh element `+0.0` and every eleventh `−0.0`.
    fn matrix(&mut self, rows: usize, cols: usize, scale: f32) -> Matrix {
        let data = (0..rows * cols)
            .map(|x| match (x % 7, x % 11) {
                (3, _) => 0.0,
                (_, 5) => -0.0,
                _ => (self.unit() * 2.0 - 1.0) as f32 * scale,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// A word below `vocab`, skewed to small ids: `⌊u³·V⌋`.
    fn word(&mut self, vocab: usize) -> u32 {
        let u = self.unit();
        ((u * u * u * vocab as f64) as usize).min(vocab - 1) as u32
    }
}

/// FNV-1a over little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

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

/// Runs every case at every width; on any mismatch, fails naming each
/// case and width that moved with its digest.
fn check(cases: &[(&str, u64)], digest: impl Fn(usize) -> u64) {
    let mut moved = Vec::new();
    for_each_width(|width| {
        for (i, &(name, want)) in cases.iter().enumerate() {
            let got = digest(i);
            if got != want {
                moved.push(format!("{name} at {width}: {got:#018x}"));
            }
        }
    });
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// A sampled-softmax case: `n` rows of width `p`, `s` candidates over
/// `vocab` words, `h` scaled by `spread`, and how many of the first rows'
/// targets are planted among the candidates (accidental hits).
struct SoftmaxCase {
    n: usize,
    p: usize,
    s: usize,
    vocab: usize,
    spread: f32,
    hits: usize,
}

const SOFTMAX_CASES: &[(SoftmaxCase, &str, u64)] = &[
    (
        SoftmaxCase {
            n: 1,
            p: 5,
            s: 1,
            vocab: 20,
            spread: 1.0,
            hits: 0,
        },
        "n1 P5 S1",
        0x6a47_48d3_bc72_5e6e,
    ),
    (
        SoftmaxCase {
            n: 1,
            p: 7,
            s: 1,
            vocab: 20,
            spread: 1.0,
            hits: 1,
        },
        "n1 P7 S1, the one candidate a hit",
        0x3018_9a07_ac0e_5824,
    ),
    (
        SoftmaxCase {
            n: 6,
            p: 16,
            s: 4,
            vocab: 30,
            spread: 1.0,
            hits: 2,
        },
        "n6 P16 S4, two hits",
        0x7c31_3522_a8e9_946c,
    ),
    (
        SoftmaxCase {
            n: 9,
            p: 17,
            s: 9,
            vocab: 60,
            spread: 1.0,
            hits: 3,
        },
        "n9 P17 S9, three hits",
        0xb933_1a76_9044_bc9c,
    ),
    (
        SoftmaxCase {
            n: 20,
            p: 33,
            s: 1,
            vocab: 40,
            spread: 1.0,
            hits: 4,
        },
        "n20 P33 S1, the candidate row 0's target",
        0x5151_1922_10f7_593f,
    ),
    (
        SoftmaxCase {
            n: 13,
            p: 24,
            s: 19,
            vocab: 200,
            spread: 200.0,
            hits: 2,
        },
        "n13 P24 S19, logits spread to underflow",
        0x3dd8_d57f_c490_bc76,
    ),
    (
        SoftmaxCase {
            n: 37,
            p: 64,
            s: 48,
            vocab: 500,
            spread: 1.0,
            hits: 5,
        },
        "n37 P64 S48, five hits",
        0x6b7c_f1b8_d920_d531,
    ),
    (
        SoftmaxCase {
            n: 320,
            p: 64,
            s: 256,
            vocab: 4000,
            spread: 1.0,
            hits: 0,
        },
        "word_compute n320 P64 S256",
        0x9ebd_7546_d2e5_7efd,
    ),
];

fn softmax_digest(c: &SoftmaxCase, seed: u64) -> u64 {
    let mut st = Stream(seed);
    let mut table = Embedding::new(&mut StdRng::seed_from_u64(seed), c.vocab, c.p);
    *table.weights_mut() = st.matrix(c.vocab, c.p, 0.5);
    let h = st.matrix(c.n, c.p, c.spread);
    let targets: Vec<u32> = (0..c.n).map(|_| st.word(c.vocab)).collect();
    // The first `hits` rows' targets, then fresh words, all distinct.
    let mut cands: Vec<u32> = Vec::with_capacity(c.s);
    for &t in targets.iter().take(c.hits) {
        if !cands.contains(&t) && cands.len() < c.s {
            cands.push(t);
        }
    }
    while cands.len() < c.s {
        let w = st.word(c.vocab);
        if !cands.contains(&w) {
            cands.push(w);
        }
    }
    let ss = SampledSoftmax::new(c.vocab, c.s);
    let out = ss.forward_backward_with_candidates(&h, &targets, &table, cands);
    let mut f = Fnv::new();
    f.f64(out.loss);
    f.f32s(out.dh.as_slice());
    f.u32s(&out.grad.indices);
    f.f32s(out.grad.rows.as_slice());
    f.u32s(&out.candidates);
    f.0
}

#[test]
fn sampled_softmax_backward_is_pinned() {
    let cases: Vec<(&str, u64)> = SOFTMAX_CASES.iter().map(|(_, n, d)| (*n, *d)).collect();
    check(&cases, |i| {
        softmax_digest(&SOFTMAX_CASES[i].0, 100 + i as u64)
    });
}

/// `(T, B, D, H)`, whether the input is an embedding lookup, the name
/// and the digest.
type LstmCase = ((usize, usize, usize, usize), bool, &'static str, u64);

const LSTM_CASES: &[LstmCase] = &[
    (
        (20, 16, 64, 256),
        true,
        "word_compute T20 B16 D64 H256, lookup",
        0x1e00_6977_e0a1_eb1c,
    ),
    (
        (4, 512, 512, 4),
        true,
        "word_exchange T4 B512 D512 H4, lookup",
        0x21a4_92ea_0633_0c37,
    ),
    ((1, 3, 5, 8), false, "T1 B3 D5 H8", 0xaa95_016f_a94a_8273),
    ((6, 1, 4, 16), false, "T6 B1 D4 H16", 0xcdbe_74a8_22d2_6b92),
    (
        (6, 1, 4, 16),
        true,
        "T6 B1 D4 H16, lookup",
        0x7d0d_bfca_c7ea_6519,
    ),
    ((3, 2, 7, 5), false, "T3 B2 D7 H5", 0x7129_a1ed_c19f_1332),
    (
        (5, 17, 3, 19),
        false,
        "T5 B17 D3 H19",
        0x507a_52b7_9a45_ca4c,
    ),
    (
        (9, 7, 33, 17),
        true,
        "T9 B7 D33 H17, lookup",
        0x4cde_4845_5587_698f,
    ),
];

fn lstm_digest(&((t, b, d, h), lookup, _, _): &LstmCase, seed: u64) -> u64 {
    let mut st = Stream(seed);
    let layer = LstmLayer::new(&mut StdRng::seed_from_u64(seed), d, h);
    let vocab = 50;
    let table = st.matrix(vocab, d, 1.0);
    let tokens: Vec<u32> = (0..t * b).map(|_| st.word(vocab)).collect();
    let dense = st.matrix(t * b, d, 1.0);
    let xs = if lookup {
        Input::Lookup {
            table: &table,
            tokens: &tokens,
        }
    } else {
        Input::Dense(&dense)
    };
    let dh_all = st.matrix(t * b, h, 1.0);
    let (_, cache) = layer.forward(xs, b);
    let (dz, grads) = layer.backward_dz(&cache, &dh_all, &mut Matrix::default());
    let mut f = Fnv::new();
    f.f32s(grads.dwx.as_slice());
    f.f32s(grads.dwh.as_slice());
    f.f32s(&grads.db);
    for m in &dz {
        f.f32s(m.as_slice());
    }
    f.0
}

#[test]
fn lstm_backward_is_pinned() {
    let cases: Vec<(&str, u64)> = LSTM_CASES.iter().map(|c| (c.2, c.3)).collect();
    check(&cases, |i| lstm_digest(&LSTM_CASES[i], 200 + i as u64));
}
