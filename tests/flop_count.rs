//! `perfmodel::flops` against the GEMMs `nn`'s layers actually run.
//!
//! Every product goes through `tensor`'s `gemm_rows`, which keeps a
//! per-thread multiply-add total (`tensor::gemm_macs`). Each layer runs
//! forward + backward at two shapes with `T > 1`, `B > 1` and an input
//! width unlike its hidden width, and the total must move by exactly
//! `T·B` × the layer's GEMM share of its counted multiply-adds:
//!
//! * the LSTM, the RHN and a dense layer run 3× forward — step 0's
//!   zero state is still multiplied, so the recurrences have no
//!   off-by-one;
//! * sampled softmax runs three candidate-sized products, each `P·S` per
//!   token: the forward `H·Cᵀ` and the backward's `Dᵀ·H` (the candidate
//!   table rows) and `D·C` (their share of `dh`); the target's dot and
//!   gradient run in scalar loops (`flops::sampled_softmax` states that
//!   remainder).
//!
//! At the same shapes, each layer's `param_count` and each model's
//! `dense_param_count` equal `flops`' parameter count exactly.

use nn::model::{CharLmConfig, SeqBatch, WordLmConfig};
use nn::{CharLm, Embedding, Linear, LstmLayer, RhnLayer, SampledSoftmax, WordLm};
use perfmodel::flops;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use tensor::{gemm_macs, init, Matrix};

/// Multiply-adds the GEMMs inside `f` run on this thread.
fn macs_of<R>(f: impl FnOnce() -> R) -> u64 {
    let before = gemm_macs();
    black_box(f());
    gemm_macs() - before
}

fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    init::uniform(rng, rows, cols, 1.0)
}

/// `T·B` tokens, t-major, with next-token targets, over `vocab` ids.
fn seq_batch(steps: usize, batch: usize, vocab: usize) -> SeqBatch {
    let ids = |off: usize| (0..steps * batch).map(move |i| ((i * 7 + off) % vocab) as u32);
    SeqBatch {
        tokens: ids(0).collect(),
        targets: ids(1).collect(),
        batch,
        steps,
    }
}

/// `s` distinct candidate ids spread over `vocab`.
fn candidates(s: usize, vocab: usize) -> Vec<u32> {
    (0..s).map(|j| (j * (vocab / s)) as u32).collect()
}

#[test]
fn lstm_runs_three_times_its_forward_count() {
    for (seed, (t, b, e, h)) in [(3, 2, 5, 8), (4, 3, 16, 7)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let layer = LstmLayer::new(&mut rng, e, h);
        let (xs, dh) = (random(&mut rng, t * b, e), random(&mut rng, t * b, h));
        let got = macs_of(|| {
            let (_, cache) = layer.forward(&xs, b);
            layer.backward(&cache, &dh)
        });
        let want = (t * b) as u64 * 3 * flops::lstm(e, h);
        assert_eq!(got, want, "T{t} B{b} E{e} H{h}");
        let params = flops::lstm_params(e, h);
        assert_eq!(layer.param_count() as u64, params, "E{e} H{h}");
    }
}

#[test]
fn rhn_runs_three_times_its_forward_count() {
    for (seed, (t, b, e, h, depth)) in [(3, 2, 5, 8, 3), (4, 3, 12, 6, 2)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let layer = RhnLayer::new(&mut rng, e, h, depth);
        let (xs, dh) = (random(&mut rng, t * b, e), random(&mut rng, t * b, h));
        let got = macs_of(|| {
            let (_, cache) = layer.forward(&xs, b);
            layer.backward(&cache, &dh)
        });
        let want = (t * b) as u64 * 3 * flops::rhn(e, h, depth);
        assert_eq!(got, want, "T{t} B{b} E{e} H{h} L{depth}");
        let params = flops::rhn_params(e, h, depth);
        assert_eq!(layer.param_count() as u64, params, "E{e} H{h} L{depth}");
    }
}

#[test]
fn linear_runs_three_times_its_forward_count() {
    for (seed, (n, i, o)) in [(6, 5, 9), (12, 16, 3)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let layer = Linear::new(&mut rng, i, o);
        let (x, dy) = (random(&mut rng, n, i), random(&mut rng, n, o));
        let got = macs_of(|| {
            let y = layer.forward(&x);
            (y, layer.backward(&x, &dy))
        });
        assert_eq!(got, n as u64 * 3 * flops::linear(i, o), "n{n} {i}→{o}");
        let params = flops::linear_params(i, o);
        assert_eq!(layer.param_count() as u64, params, "{i}→{o}");
    }
}

#[test]
fn sampled_softmax_runs_three_candidate_products() {
    for (seed, (n, p, s, vocab)) in [(6, 4, 5, 50), (12, 8, 11, 100)].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let table = Embedding::new(&mut rng, vocab, p);
        let h = random(&mut rng, n, p);
        let targets = seq_batch(n, 1, vocab).targets;
        let layer = SampledSoftmax::new(vocab, s);
        let got = macs_of(|| {
            layer.forward_backward_with_candidates(&h, &targets, &table, candidates(s, vocab))
        });
        // All but the target dot is the candidate product, run forward
        // and twice backward.
        let candidate = flops::sampled_softmax(p, s) - p as u64;
        assert_eq!(got, n as u64 * 3 * candidate, "n{n} P{p} S{s}");
    }
}

#[test]
fn word_lm_runs_its_layers_gemms() {
    for (seed, (t, b, e, h, p, s, vocab)) in [(3, 2, 6, 10, 4, 5, 60), (4, 3, 12, 5, 7, 9, 120)]
        .into_iter()
        .enumerate()
    {
        let cfg = WordLmConfig {
            vocab,
            embed_dim: e,
            hidden: h,
            proj_dim: p,
            samples: s,
        };
        let model = WordLm::new(seed as u64, cfg);
        let batch = seq_batch(t, b, vocab);
        let got = macs_of(|| model.forward_backward_with_candidates(&batch, candidates(s, vocab)));
        // Every layer at 3× forward but the softmax's target dot.
        let want = 3 * (flops::word_lm(e, h, p, s) - p as u64);
        assert_eq!(got, (t * b) as u64 * want, "{cfg:?} T{t} B{b}");
        let params = flops::word_lm_params(e, h, p);
        assert_eq!(model.dense_param_count() as u64, params, "{cfg:?}");
    }
}

#[test]
fn char_lm_runs_three_times_its_forward_count() {
    for (seed, (t, b, e, h, depth, vocab)) in [(3, 2, 4, 9, 2, 11), (4, 3, 10, 6, 3, 7)]
        .into_iter()
        .enumerate()
    {
        let cfg = CharLmConfig {
            vocab,
            embed_dim: e,
            hidden: h,
            depth,
        };
        let model = CharLm::new(seed as u64, cfg);
        let batch = seq_batch(t, b, vocab);
        let got = macs_of(|| model.forward_backward(&batch));
        let want = (t * b) as u64 * 3 * flops::char_lm(e, h, depth, vocab);
        assert_eq!(got, want, "{cfg:?} T{t} B{b}");
        let params = flops::char_lm_params(e, h, depth, vocab);
        assert_eq!(model.dense_param_count() as u64, params, "{cfg:?}");
    }
}
