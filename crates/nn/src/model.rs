//! The paper's two model assemblies (§IV-B).
//!
//! * [`WordLm`]: input embedding → LSTM → projection → output embedding
//!   with sampled softmax. Embedding gradients (input *and* output) come
//!   back as token-aligned [`SparseGrad`]s; LSTM + projection gradients
//!   come back as one flat dense buffer ready for ALLREDUCE.
//! * [`CharLm`]: input embedding → RHN → full-softmax output layer. Only
//!   the input embedding is sparse; the output layer is dense (the
//!   alphabet is small enough for a full softmax — §V-B).
//!
//! Neither model stores its `K×D` input activations: the recurrent layer
//! reads them through an [`Input::Lookup`](crate::Input::Lookup) of the
//! input table, a block of rows at a time. The input gradient need not be
//! stored either: `forward_backward_in` returns it factored, as an
//! [`InputGrad`], and `input_grad_rows` makes any block of its rows;
//! `forward_backward` makes all of them in one call and returns the
//! [`SparseGrad`].
//!
//! Neither model applies its own embedding updates: gradient exchange and
//! application is the `lm` crate's job, because *how* those gradients
//! cross GPUs is the paper's whole subject.

use crate::embedding::{Embedding, SparseGrad};
use crate::linear::Linear;
use crate::lstm::{LstmCache, LstmLayer};
use crate::params;
use crate::rhn::{RhnCache, RhnLayer};
use crate::sampled_softmax::{full_softmax_eval_loss, SampledSoftmax};
use crate::softmax::{mean_nll, softmax_cross_entropy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::iter::once;
use std::ops::Range;
use tensor::Matrix;

/// A batch in the timestep-major layout the recurrent layers consume.
#[derive(Debug, Clone)]
pub struct SeqBatch {
    /// Input token ids, timestep-major: index `t·batch + lane`.
    pub tokens: Vec<u32>,
    /// Next-token targets in the same order.
    pub targets: Vec<u32>,
    /// Lanes per step.
    pub batch: usize,
    /// Steps.
    pub steps: usize,
}

impl SeqBatch {
    /// Converts from the lane-major layout `[lane][position]` that the
    /// corpus batcher produces.
    pub fn from_lane_major(inputs: &[u32], targets: &[u32], batch: usize, seq_len: usize) -> Self {
        assert_eq!(inputs.len(), batch * seq_len);
        assert_eq!(targets.len(), batch * seq_len);
        let mut tok = Vec::with_capacity(inputs.len());
        let mut tgt = Vec::with_capacity(targets.len());
        for t in 0..seq_len {
            for lane in 0..batch {
                tok.push(inputs[lane * seq_len + t]);
                tgt.push(targets[lane * seq_len + t]);
            }
        }
        Self {
            tokens: tok,
            targets: tgt,
            batch,
            steps: seq_len,
        }
    }

    /// Total tokens (`K = batch · steps`).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Hyper-parameters of the word LM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordLmConfig {
    /// Vocabulary size `V` (the paper uses 100 K).
    pub vocab: usize,
    /// Input embedding dimension `D`.
    pub embed_dim: usize,
    /// LSTM cells `H` (the paper uses 2048).
    pub hidden: usize,
    /// Projection dimension `P` (the paper uses 512) — also the output
    /// embedding dimension.
    pub proj_dim: usize,
    /// Sampled-softmax candidates per step `S` (the paper uses 1024).
    pub samples: usize,
}

impl WordLmConfig {
    /// A laptop-scale configuration preserving all structural ratios.
    pub fn small(vocab: usize) -> Self {
        Self {
            vocab,
            embed_dim: 32,
            hidden: 64,
            proj_dim: 32,
            samples: 64.min(vocab / 2).max(1),
        }
    }
}

/// An input embedding's gradient as the backward leaves it, before its
/// `K×D` token-aligned rows exist: the tokens, and the recurrent layer's
/// pre-activation gradients that read the input (the LSTM's `dz`, the
/// RHN's `dzh` and `dzt`), of which the model's `input_grad_rows` makes
/// any block of rows.
#[derive(Debug)]
pub struct InputGrad {
    /// Table row of each gradient row (the paper's `J`), duplicates
    /// included.
    pub tokens: Vec<u32>,
    dz: Vec<Matrix>,
}

impl InputGrad {
    /// The token-aligned [`SparseGrad`], all `K` rows made by `make` (a
    /// model's `input_grad_rows`) in one call.
    fn into_sparse(self, make: impl FnOnce(&Self, Range<usize>, &mut Matrix)) -> SparseGrad {
        let mut rows = Matrix::default();
        make(&self, 0..self.tokens.len(), &mut rows);
        SparseGrad {
            indices: self.tokens,
            rows,
        }
    }
}

/// Gradients of one word-LM training step; the input gradient is a
/// [`SparseGrad`], or an [`InputGrad`] from
/// [`WordLm::forward_backward_in`].
#[derive(Debug, Clone)]
pub struct WordLmGrads<I = SparseGrad> {
    /// Mean NLL over the sampled-softmax candidate set (nats).
    pub loss: f64,
    /// Input-embedding gradient (token-aligned, duplicates included).
    pub input_grad: I,
    /// Output-embedding gradient (targets then candidates).
    pub output_grad: SparseGrad,
    /// Flat dense gradients: LSTM then projection, fixed layout.
    pub dense: Vec<f32>,
    /// Candidates drawn this step (for diagnostics / seeding analysis).
    pub candidates: Vec<u32>,
}

/// The word language model.
#[derive(Debug, Clone)]
pub struct WordLm {
    cfg: WordLmConfig,
    embed: Embedding,
    lstm: LstmLayer,
    proj: Linear,
    out_embed: Embedding,
    softmax: SampledSoftmax,
}

impl WordLm {
    /// Deterministically initialises the model from `seed` (all data-
    /// parallel replicas must start identical, §II-B).
    pub fn new(seed: u64, cfg: WordLmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            embed: Embedding::new(&mut rng, cfg.vocab, cfg.embed_dim),
            lstm: LstmLayer::new(&mut rng, cfg.embed_dim, cfg.hidden),
            proj: Linear::new(&mut rng, cfg.hidden, cfg.proj_dim),
            out_embed: Embedding::new(&mut rng, cfg.vocab, cfg.proj_dim),
            softmax: SampledSoftmax::new(cfg.vocab, cfg.samples),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WordLmConfig {
        &self.cfg
    }

    /// Input embedding table.
    pub fn input_embedding(&self) -> &Embedding {
        &self.embed
    }

    /// Mutable input embedding table (for exchange-strategy updates).
    pub fn input_embedding_mut(&mut self) -> &mut Embedding {
        &mut self.embed
    }

    /// Output embedding table.
    pub fn output_embedding(&self) -> &Embedding {
        &self.out_embed
    }

    /// Mutable output embedding table.
    pub fn output_embedding_mut(&mut self) -> &mut Embedding {
        &mut self.out_embed
    }

    /// The sampled-softmax layer (seeding strategies draw through it).
    pub fn softmax(&self) -> &SampledSoftmax {
        &self.softmax
    }

    /// The dense (ALLREDUCEd) parameters in their flat order: LSTM, then
    /// projection.
    fn dense(&self) -> impl Iterator<Item = &[f32]> {
        self.lstm.params().chain(self.proj.params())
    }

    /// Every parameter in checkpoint order: input table, dense, output
    /// table.
    fn all(&self) -> impl Iterator<Item = &[f32]> {
        once(self.embed.weights().as_slice())
            .chain(self.dense())
            .chain(once(self.out_embed.weights().as_slice()))
    }

    /// [`WordLm::all`], mutably.
    fn all_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        once(self.embed.weights_mut().as_mut_slice())
            .chain(self.lstm.params_mut())
            .chain(self.proj.params_mut())
            .chain(once(self.out_embed.weights_mut().as_mut_slice()))
    }

    /// Size of the flat dense-gradient buffer.
    pub fn dense_param_count(&self) -> usize {
        params::count(self.dense())
    }

    /// Forward + backward with candidates drawn from `rng`.
    pub fn forward_backward<R: Rng + ?Sized>(&self, batch: &SeqBatch, rng: &mut R) -> WordLmGrads {
        let g = self.forward_backward_in(batch, rng, Vec::new(), &mut Matrix::default());
        self.with_rows(g)
    }

    /// [`WordLm::forward_backward`] with the flat dense gradient written
    /// into `dense`'s allocation (its contents replaced) and the input
    /// gradient left factored: a caller that runs many passes keeps one
    /// `dense`, and one `block` for the rows the layers gather (and for
    /// the blocks of input-gradient rows it asks
    /// [`WordLm::input_grad_rows`] for).
    pub fn forward_backward_in<R: Rng + ?Sized>(
        &self,
        batch: &SeqBatch,
        rng: &mut R,
        dense: Vec<f32>,
        block: &mut Matrix,
    ) -> WordLmGrads<InputGrad> {
        let cands = self.softmax.draw_candidates(rng);
        self.step(batch, cands, dense, block)
    }

    /// Forward + backward with an explicit candidate set (what the
    /// seeding strategies pass in).
    pub fn forward_backward_with_candidates(
        &self,
        batch: &SeqBatch,
        candidates: Vec<u32>,
    ) -> WordLmGrads {
        let g = self.step(batch, candidates, Vec::new(), &mut Matrix::default());
        self.with_rows(g)
    }

    /// Rows `rows` of `grad`'s `K×D` token-aligned input gradient into
    /// the first rows of `out` (grown to hold them); each row is the one
    /// [`WordLm::forward_backward`] returns.
    pub fn input_grad_rows(&self, grad: &InputGrad, rows: Range<usize>, out: &mut Matrix) {
        self.lstm.input_grad(&grad.dz, rows, out);
    }

    /// `g` with its input gradient's rows made, in one call.
    fn with_rows(&self, g: WordLmGrads<InputGrad>) -> WordLmGrads {
        WordLmGrads {
            loss: g.loss,
            input_grad: (g.input_grad).into_sparse(|g, r, out| self.input_grad_rows(g, r, out)),
            output_grad: g.output_grad,
            dense: g.dense,
            candidates: g.candidates,
        }
    }

    /// Forward + backward over `candidates`, the dense gradient
    /// flattened into `dense`'s allocation and the input rows gathered
    /// into `block`.
    fn step(
        &self,
        batch: &SeqBatch,
        candidates: Vec<u32>,
        mut dense: Vec<f32>,
        block: &mut Matrix,
    ) -> WordLmGrads<InputGrad> {
        let (p_all, h_all, cache) = self.forward_hidden(batch, block);
        let out = self.softmax.forward_backward_with_candidates(
            &p_all,
            &batch.targets,
            &self.out_embed,
            candidates,
        );

        // Back through projection and LSTM; every matrix is t-major, in
        // the order of `batch.tokens`.
        let (dh_all, proj_grads) = self.proj.backward(&h_all, &out.dh);
        let (dz, lstm_grads) = self.lstm.backward_dz(&cache, &dh_all, block);

        dense.clear();
        dense.reserve(self.dense_param_count());
        params::flatten(lstm_grads.parts().chain(proj_grads.parts()), &mut dense);

        WordLmGrads {
            loss: out.loss,
            input_grad: InputGrad {
                tokens: batch.tokens.clone(),
                dz,
            },
            output_grad: out.grad,
            dense,
            candidates: out.candidates,
        }
    }

    /// Full-softmax validation loss (mean NLL, nats).
    pub fn eval_loss(&self, batch: &SeqBatch) -> f64 {
        let (p_all, _, _) = self.forward_hidden(batch, &mut Matrix::default());
        full_softmax_eval_loss(&p_all, &batch.targets, &self.out_embed)
    }

    /// Number of f32 values in a [`WordLm::param_vector`] snapshot.
    pub fn param_vector_len(&self) -> usize {
        params::count(self.all())
    }

    /// Snapshots every parameter into one flat vector in a fixed layout
    /// (input embedding, LSTM, projection, output embedding). The bytes
    /// of the result are the model's exact state: loading them back via
    /// [`WordLm::load_param_vector`] is a bit-identical restore.
    pub fn param_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_vector_len());
        params::flatten(self.all(), &mut out);
        out
    }

    /// Restores every parameter from a [`WordLm::param_vector`]
    /// snapshot. Panics if `flat` has the wrong length for this
    /// architecture.
    pub fn load_param_vector(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_vector_len(), "param size mismatch");
        params::load(self.all_mut(), flat);
    }

    /// Applies the flat dense gradient with SGD at rate `lr`.
    pub fn apply_dense(&mut self, flat: &[f32], lr: f32) {
        assert_eq!(flat.len(), self.dense_param_count(), "dense size mismatch");
        let dense = self.lstm.params_mut().chain(self.proj.params_mut());
        params::sgd(dense, flat, lr);
    }

    /// Shared forward pass: returns `(projection output, lstm output,
    /// lstm cache)` with rows in t-major order, the input rows gathered
    /// into `block`.
    fn forward_hidden<'a>(
        &'a self,
        batch: &'a SeqBatch,
        block: &mut Matrix,
    ) -> (Matrix, Matrix, LstmCache<'a>) {
        assert!(!batch.is_empty(), "empty batch");
        let xs = self.embed.lookup(&batch.tokens);
        let (h_all, cache) = self.lstm.forward_in(xs, batch.batch, block);
        let p_all = self.proj.forward(&h_all);
        (p_all, h_all, cache)
    }
}

/// Hyper-parameters of the char LM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CharLmConfig {
    /// Alphabet size (98 English / 15,437 Tieba).
    pub vocab: usize,
    /// Input embedding dimension.
    pub embed_dim: usize,
    /// RHN cells (the paper uses 1792).
    pub hidden: usize,
    /// RHN recurrence depth (the paper uses 10).
    pub depth: usize,
}

impl CharLmConfig {
    /// A laptop-scale configuration preserving the architecture.
    pub fn small(vocab: usize) -> Self {
        Self {
            vocab,
            embed_dim: 24,
            hidden: 48,
            depth: 3,
        }
    }
}

/// Gradients of one char-LM training step; the input gradient is a
/// [`SparseGrad`], or an [`InputGrad`] from
/// [`CharLm::forward_backward_in`].
#[derive(Debug, Clone)]
pub struct CharLmGrads<I = SparseGrad> {
    /// Mean NLL (nats); `exp` → perplexity, `/ln 2` → BPC.
    pub loss: f64,
    /// Input-embedding gradient (token-aligned).
    pub input_grad: I,
    /// Flat dense gradients: RHN then output layer, fixed layout.
    pub dense: Vec<f32>,
}

/// The character language model.
#[derive(Debug, Clone)]
pub struct CharLm {
    cfg: CharLmConfig,
    embed: Embedding,
    rhn: RhnLayer,
    out: Linear,
}

impl CharLm {
    /// Deterministic init from `seed`.
    pub fn new(seed: u64, cfg: CharLmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            embed: Embedding::new(&mut rng, cfg.vocab, cfg.embed_dim),
            rhn: RhnLayer::new(&mut rng, cfg.embed_dim, cfg.hidden, cfg.depth),
            out: Linear::new(&mut rng, cfg.hidden, cfg.vocab),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CharLmConfig {
        &self.cfg
    }

    /// Input embedding table.
    pub fn input_embedding(&self) -> &Embedding {
        &self.embed
    }

    /// Mutable input embedding table.
    pub fn input_embedding_mut(&mut self) -> &mut Embedding {
        &mut self.embed
    }

    /// The dense (ALLREDUCEd) parameters in their flat order: RHN, then
    /// output layer.
    fn dense(&self) -> impl Iterator<Item = &[f32]> {
        self.rhn.params().chain(self.out.params())
    }

    /// Every parameter in checkpoint order: input table, then dense.
    fn all(&self) -> impl Iterator<Item = &[f32]> {
        once(self.embed.weights().as_slice()).chain(self.dense())
    }

    /// [`CharLm::all`], mutably.
    fn all_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        once(self.embed.weights_mut().as_mut_slice())
            .chain(self.rhn.params_mut())
            .chain(self.out.params_mut())
    }

    /// Size of the flat dense-gradient buffer.
    pub fn dense_param_count(&self) -> usize {
        params::count(self.dense())
    }

    /// Forward + backward over one batch.
    pub fn forward_backward(&self, batch: &SeqBatch) -> CharLmGrads {
        let g = self.forward_backward_in(batch, Vec::new(), &mut Matrix::default());
        CharLmGrads {
            loss: g.loss,
            input_grad: (g.input_grad).into_sparse(|g, r, out| self.input_grad_rows(g, r, out)),
            dense: g.dense,
        }
    }

    /// [`CharLm::forward_backward`] with the flat dense gradient written
    /// into `dense`'s allocation (its contents replaced) and the input
    /// gradient left factored: a caller that runs many passes keeps one
    /// `dense`, and one `block` for the rows the RHN gathers (and for the
    /// blocks of input-gradient rows it asks
    /// [`CharLm::input_grad_rows`] for).
    pub fn forward_backward_in(
        &self,
        batch: &SeqBatch,
        mut dense: Vec<f32>,
        block: &mut Matrix,
    ) -> CharLmGrads<InputGrad> {
        let (logits, h_all, cache) = self.forward_hidden(batch, block);
        let sm = softmax_cross_entropy(&logits, &batch.targets);

        // Back through output layer and RHN; every matrix is t-major, in
        // the order of `batch.tokens`.
        let (dh_all, out_grads) = self.out.backward(&h_all, &sm.dlogits);
        let (dz, rhn_grads) = self.rhn.backward_dz(&cache, &dh_all, block);

        dense.clear();
        dense.reserve(self.dense_param_count());
        params::flatten(rhn_grads.parts().chain(out_grads.parts()), &mut dense);

        CharLmGrads {
            loss: sm.loss,
            input_grad: InputGrad {
                tokens: batch.tokens.clone(),
                dz,
            },
            dense,
        }
    }

    /// Rows `rows` of `grad`'s `K×D` token-aligned input gradient into
    /// the first rows of `out` (grown to hold them); each row is the one
    /// [`CharLm::forward_backward`] returns.
    pub fn input_grad_rows(&self, grad: &InputGrad, rows: Range<usize>, out: &mut Matrix) {
        self.rhn.input_grad(&grad.dz, rows, out);
    }

    /// Validation loss (mean NLL, nats).
    pub fn eval_loss(&self, batch: &SeqBatch) -> f64 {
        let (logits, _, _) = self.forward_hidden(batch, &mut Matrix::default());
        mean_nll(&logits, &batch.targets)
    }

    /// Number of f32 values in a [`CharLm::param_vector`] snapshot.
    pub fn param_vector_len(&self) -> usize {
        params::count(self.all())
    }

    /// Snapshots every parameter into one flat vector in a fixed layout
    /// (input embedding, RHN, output layer) — see
    /// [`WordLm::param_vector`].
    pub fn param_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_vector_len());
        params::flatten(self.all(), &mut out);
        out
    }

    /// Restores every parameter from a [`CharLm::param_vector`]
    /// snapshot. Panics if `flat` has the wrong length for this
    /// architecture.
    pub fn load_param_vector(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_vector_len(), "param size mismatch");
        params::load(self.all_mut(), flat);
    }

    /// Applies the flat dense gradient with SGD at rate `lr`.
    pub fn apply_dense(&mut self, flat: &[f32], lr: f32) {
        assert_eq!(flat.len(), self.dense_param_count(), "dense size mismatch");
        let dense = self.rhn.params_mut().chain(self.out.params_mut());
        params::sgd(dense, flat, lr);
    }

    /// Shared forward pass: returns `(logits, rhn output, rhn cache)`
    /// with rows in t-major order, the input rows gathered into `block`.
    fn forward_hidden<'a>(
        &'a self,
        batch: &'a SeqBatch,
        block: &mut Matrix,
    ) -> (Matrix, Matrix, RhnCache<'a>) {
        assert!(!batch.is_empty(), "empty batch");
        let xs = self.embed.lookup(&batch.tokens);
        let (h_all, cache) = self.rhn.forward_in(xs, batch.batch, block);
        let logits = self.out.forward(&h_all);
        (logits, h_all, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::bits;

    fn toy_batch(vocab: usize, batch: usize, seq_len: usize, seed: u64) -> SeqBatch {
        // A predictable stream: target is (token + 1) mod vocab.
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<u32> = (0..batch * seq_len)
            .map(|_| rng.gen_range(0..vocab as u32))
            .collect();
        let targets: Vec<u32> = inputs.iter().map(|&t| (t + 1) % vocab as u32).collect();
        SeqBatch::from_lane_major(&inputs, &targets, batch, seq_len)
    }

    #[test]
    fn seq_batch_transposes_lane_major() {
        let inputs = [1u32, 2, 3, 4, 5, 6]; // 2 lanes × 3 steps
        let targets = [10u32, 20, 30, 40, 50, 60];
        let b = SeqBatch::from_lane_major(&inputs, &targets, 2, 3);
        assert_eq!(b.tokens, vec![1, 4, 2, 5, 3, 6]);
        assert_eq!(b.targets, vec![10, 40, 20, 50, 30, 60]);
    }

    #[test]
    fn word_lm_deterministic_init() {
        let cfg = WordLmConfig::small(100);
        let a = WordLm::new(7, cfg);
        let b = WordLm::new(7, cfg);
        assert_eq!(
            a.input_embedding().weights().as_slice(),
            b.input_embedding().weights().as_slice()
        );
        assert_eq!(
            a.output_embedding().weights().as_slice(),
            b.output_embedding().weights().as_slice()
        );
    }

    #[test]
    fn word_lm_initial_eval_near_log_v() {
        let cfg = WordLmConfig::small(200);
        let m = WordLm::new(1, cfg);
        let batch = toy_batch(200, 4, 6, 2);
        let loss = m.eval_loss(&batch);
        assert!((loss - (200f64).ln()).abs() < 1.0, "loss {loss}");
    }

    #[test]
    fn word_lm_learns_deterministic_pattern() {
        let vocab = 30;
        let cfg = WordLmConfig::small(vocab);
        let mut m = WordLm::new(3, cfg);
        let batch = toy_batch(vocab, 4, 8, 5);
        let mut rng = StdRng::seed_from_u64(11);
        let before = m.eval_loss(&batch);
        for _ in 0..200 {
            let grads = m.forward_backward(&batch, &mut rng);
            // Single-GPU path: apply everything locally.
            let red_in = grads.input_grad.local_reduce();
            m.input_embedding_mut()
                .apply_rows(&red_in.indices, &red_in.rows, 0.5);
            let red_out = grads.output_grad.local_reduce();
            m.output_embedding_mut()
                .apply_rows(&red_out.indices, &red_out.rows, 0.5);
            m.apply_dense(&grads.dense, 0.5);
        }
        let after = m.eval_loss(&batch);
        assert!(after < before * 0.7, "before {before:.3}, after {after:.3}");
    }

    #[test]
    fn word_lm_grads_shapes() {
        let cfg = WordLmConfig::small(100);
        let m = WordLm::new(1, cfg);
        let batch = toy_batch(100, 3, 5, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let g = m.forward_backward(&batch, &mut rng);
        assert_eq!(g.input_grad.indices.len(), 15);
        assert_eq!(g.input_grad.rows.rows(), 15);
        assert_eq!(g.input_grad.rows.cols(), cfg.embed_dim);
        assert_eq!(g.output_grad.indices.len(), 15 + cfg.samples);
        assert_eq!(g.dense.len(), m.dense_param_count());
        assert!(g.loss.is_finite());
    }

    #[test]
    fn char_lm_initial_eval_near_log_v() {
        let cfg = CharLmConfig::small(64);
        let m = CharLm::new(1, cfg);
        let batch = toy_batch(64, 4, 6, 3);
        let loss = m.eval_loss(&batch);
        assert!((loss - (64f64).ln()).abs() < 1.0, "loss {loss}");
    }

    #[test]
    fn char_lm_learns_deterministic_pattern() {
        let vocab = 20;
        let cfg = CharLmConfig::small(vocab);
        let mut m = CharLm::new(5, cfg);
        let batch = toy_batch(vocab, 4, 8, 9);
        let before = m.eval_loss(&batch);
        for _ in 0..200 {
            let grads = m.forward_backward(&batch);
            let red = grads.input_grad.local_reduce();
            m.input_embedding_mut()
                .apply_rows(&red.indices, &red.rows, 0.5);
            m.apply_dense(&grads.dense, 0.5);
        }
        let after = m.eval_loss(&batch);
        assert!(after < before * 0.7, "before {before:.3} after {after:.3}");
    }

    #[test]
    fn char_lm_train_loss_matches_eval_at_same_params() {
        // Full softmax: forward_backward's loss must equal eval_loss.
        let cfg = CharLmConfig::small(32);
        let m = CharLm::new(2, cfg);
        let batch = toy_batch(32, 2, 4, 1);
        let g = m.forward_backward(&batch);
        let e = m.eval_loss(&batch);
        assert!((g.loss - e).abs() < 1e-9);
    }

    #[test]
    fn word_lm_param_vector_round_trips_bitwise() {
        let cfg = WordLmConfig::small(80);
        let src = WordLm::new(9, cfg);
        let snap = src.param_vector();
        assert_eq!(snap.len(), src.param_vector_len());
        // A differently-initialised model becomes bit-identical on load.
        let mut dst = WordLm::new(10, cfg);
        assert_ne!(
            src.input_embedding().weights().as_slice(),
            dst.input_embedding().weights().as_slice()
        );
        dst.load_param_vector(&snap);
        let back = dst.param_vector();
        assert_eq!(bits(&snap), bits(&back));
        // Behavioural identity, not just byte identity.
        let batch = toy_batch(80, 3, 5, 4);
        assert_eq!(
            src.eval_loss(&batch).to_bits(),
            dst.eval_loss(&batch).to_bits()
        );
    }

    #[test]
    fn param_vector_len_counts_each_table_at_its_own_width() {
        // D ≠ P: the input table is V×D, the output table V×P.
        let cfg = WordLmConfig {
            vocab: 50,
            embed_dim: 12,
            hidden: 6,
            proj_dim: 4,
            samples: 8,
        };
        let m = WordLm::new(1, cfg);
        let lstm = 12 * 24 + 6 * 24 + 24;
        let proj = 6 * 4 + 4;
        assert_eq!(m.dense_param_count(), lstm + proj);
        assert_eq!(m.param_vector_len(), lstm + proj + 50 * (12 + 4));
        assert_eq!(m.param_vector().len(), m.param_vector_len());

        let cfg = CharLmConfig::small(40);
        let m = CharLm::new(1, cfg);
        assert_eq!(
            m.param_vector_len(),
            m.dense_param_count() + 40 * cfg.embed_dim
        );
        assert_eq!(m.param_vector().len(), m.param_vector_len());
    }

    #[test]
    fn char_lm_param_vector_round_trips_bitwise() {
        let cfg = CharLmConfig::small(40);
        let src = CharLm::new(3, cfg);
        let snap = src.param_vector();
        assert_eq!(snap.len(), src.param_vector_len());
        let mut dst = CharLm::new(4, cfg);
        dst.load_param_vector(&snap);
        assert_eq!(bits(&snap), bits(&dst.param_vector()));
        let batch = toy_batch(40, 2, 6, 8);
        assert_eq!(
            src.eval_loss(&batch).to_bits(),
            dst.eval_loss(&batch).to_bits()
        );
    }

    #[test]
    fn dense_apply_rejects_wrong_size() {
        let cfg = WordLmConfig::small(50);
        let mut m = WordLm::new(1, cfg);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.apply_dense(&[0.0; 3], 0.1);
        }));
        assert!(r.is_err());
    }

    /// `dense[i]` must be `∂loss/∂param_vector()[ne + i]`: central
    /// differences at the first and last element of every dense part
    /// (`part_lens`, in order). This is what ties a layer's `params()` to
    /// its gradients' `parts()` — a swapped pair round-trips perfectly
    /// and trains the wrong weights.
    fn probe_dense_layout(
        snap: &[f32],
        ne: usize,
        part_lens: &[usize],
        dense: &[f32],
        loss_at: impl Fn(&[f32]) -> f64,
    ) {
        assert_eq!(part_lens.iter().sum::<usize>(), dense.len());
        let eps = 1e-2f32;
        let mut start = 0;
        for (part, &len) in part_lens.iter().enumerate() {
            for i in [start, start + len - 1] {
                let mut p = snap.to_vec();
                p[ne + i] = snap[ne + i] + eps;
                let up = loss_at(&p);
                p[ne + i] = snap[ne + i] - eps;
                let down = loss_at(&p);
                let num = (up - down) / (2.0 * eps as f64);
                let ana = dense[i] as f64;
                assert!(
                    num.abs() > 1e-4 && (ana - num).abs() < 3e-5 + 0.01 * num.abs(),
                    "part {part}, dense[{i}]: analytic {ana} vs numeric {num}"
                );
            }
            start += len;
        }
    }

    /// Parameters large enough that every dense gradient clears the
    /// central difference's noise floor (at the initialiser's scale most
    /// recurrent gradients are below 1e-5 and a probe would pass anything).
    fn loud_params(n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(77);
        (0..n).map(|_| rng.gen_range(-0.4f32..0.4)).collect()
    }

    #[test]
    fn word_lm_dense_gradient_is_laid_out_like_the_parameters() {
        let mut m = WordLm::new(5, WordLmConfig::small(60));
        m.load_param_vector(&loud_params(m.param_vector_len()));
        let batch = toy_batch(60, 3, 4, 6);
        let cands = m.softmax().draw_candidates(&mut StdRng::seed_from_u64(2));
        let g = m.forward_backward_with_candidates(&batch, cands.clone());
        let part_lens: Vec<usize> = m.dense().map(<[f32]>::len).collect();
        assert_eq!(part_lens.len(), 3 + 2, "LSTM wx, wh, b; projection w, b");
        let ne = m.input_embedding().weights().len();
        probe_dense_layout(&m.param_vector(), ne, &part_lens, &g.dense, |p| {
            let mut probe = m.clone();
            probe.load_param_vector(p);
            probe
                .forward_backward_with_candidates(&batch, cands.clone())
                .loss
        });
    }

    #[test]
    fn char_lm_dense_gradient_is_laid_out_like_the_parameters() {
        let cfg = CharLmConfig::small(30);
        let mut m = CharLm::new(5, cfg);
        m.load_param_vector(&loud_params(m.param_vector_len()));
        let batch = toy_batch(30, 3, 4, 6);
        let g = m.forward_backward(&batch);
        let part_lens: Vec<usize> = m.dense().map(<[f32]>::len).collect();
        assert_eq!(part_lens.len(), 2 + 4 * cfg.depth + 2);
        let ne = m.input_embedding().weights().len();
        probe_dense_layout(&m.param_vector(), ne, &part_lens, &g.dense, |p| {
            let mut probe = m.clone();
            probe.load_param_vector(p);
            probe.eval_loss(&batch)
        });
    }

    /// `apply_dense` against `p − lr·g` written out over the dense range
    /// of the snapshot; the tables on either side must not move.
    fn reference_apply(before: &[f32], ne: usize, grad: &[f32], lr: f32) -> Vec<f32> {
        let mut want = before.to_vec();
        for (p, &g) in want[ne..ne + grad.len()].iter_mut().zip(grad) {
            *p -= lr * g;
        }
        want
    }

    #[test]
    fn apply_dense_is_sgd_over_the_dense_range() {
        let mut w = WordLm::new(3, WordLmConfig::small(60));
        let g = w.forward_backward(&toy_batch(60, 3, 4, 6), &mut StdRng::seed_from_u64(1));
        let ne = w.input_embedding().weights().len();
        let want = reference_apply(&w.param_vector(), ne, &g.dense, 0.37);
        w.apply_dense(&g.dense, 0.37);
        assert_eq!(bits(&w.param_vector()), bits(&want));

        let mut c = CharLm::new(3, CharLmConfig::small(30));
        let g = c.forward_backward(&toy_batch(30, 3, 4, 6));
        let ne = c.input_embedding().weights().len();
        let want = reference_apply(&c.param_vector(), ne, &g.dense, 0.37);
        c.apply_dense(&g.dense, 0.37);
        assert_eq!(bits(&c.param_vector()), bits(&want));
    }

    /// Every bit one word-LM step produces: loss, dense, both sparse
    /// gradients (candidates drawn from a fixed seed).
    fn word_step_bits(m: &WordLm, batch: &SeqBatch) -> Vec<u32> {
        let g = m.forward_backward(batch, &mut StdRng::seed_from_u64(5));
        let loss = g.loss.to_bits();
        [(loss >> 32) as u32, loss as u32]
            .into_iter()
            .chain(bits(&g.dense))
            .chain(bits(g.input_grad.rows.as_slice()))
            .chain(bits(g.output_grad.rows.as_slice()))
            .collect()
    }

    /// Every bit one char-LM step produces: loss, dense, sparse.
    fn char_step_bits(m: &CharLm, batch: &SeqBatch) -> Vec<u32> {
        let g = m.forward_backward(batch);
        let loss = g.loss.to_bits();
        [(loss >> 32) as u32, loss as u32]
            .into_iter()
            .chain(bits(&g.dense))
            .chain(bits(g.input_grad.rows.as_slice()))
            .collect()
    }

    /// A model that has run a step — so whatever it derives from its
    /// weights for a pass exists — must step exactly like a freshly
    /// built one holding the same parameters after each way its weights
    /// change: `apply_dense`, `load_param_vector`, and on a clone
    /// updated after its source ran (the source stepping as before).
    #[test]
    fn a_step_after_any_weight_change_matches_a_fresh_model() {
        let (wcfg, wbatch) = (WordLmConfig::small(60), toy_batch(60, 3, 4, 6));
        let fresh_word = |p: &[f32]| {
            let mut m = WordLm::new(1, wcfg);
            m.load_param_vector(p);
            word_step_bits(&m, &wbatch)
        };
        let mut w = WordLm::new(3, wcfg);
        let g = w.forward_backward(&wbatch, &mut StdRng::seed_from_u64(1));
        w.apply_dense(&g.dense, 0.37);
        assert_eq!(word_step_bits(&w, &wbatch), fresh_word(&w.param_vector()));
        let other = WordLm::new(4, wcfg).param_vector();
        w.load_param_vector(&other);
        assert_eq!(word_step_bits(&w, &wbatch), fresh_word(&other));
        let mut c = w.clone();
        c.apply_dense(&g.dense, 0.5);
        assert_eq!(word_step_bits(&c, &wbatch), fresh_word(&c.param_vector()));
        assert_eq!(word_step_bits(&w, &wbatch), fresh_word(&other));

        let (ccfg, cbatch) = (CharLmConfig::small(30), toy_batch(30, 3, 4, 6));
        let fresh_char = |p: &[f32]| {
            let mut m = CharLm::new(1, ccfg);
            m.load_param_vector(p);
            char_step_bits(&m, &cbatch)
        };
        let mut m = CharLm::new(3, ccfg);
        let g = m.forward_backward(&cbatch);
        m.apply_dense(&g.dense, 0.37);
        assert_eq!(char_step_bits(&m, &cbatch), fresh_char(&m.param_vector()));
        let other = CharLm::new(4, ccfg).param_vector();
        m.load_param_vector(&other);
        assert_eq!(char_step_bits(&m, &cbatch), fresh_char(&other));
        let mut c = m.clone();
        c.apply_dense(&g.dense, 0.5);
        assert_eq!(char_step_bits(&c, &cbatch), fresh_char(&c.param_vector()));
        assert_eq!(char_step_bits(&m, &cbatch), fresh_char(&other));
    }

    /// A pass into buffers another pass left behind — shorter, longer or
    /// holding NaNs — returns what a pass into fresh buffers returns, to
    /// the bit, and the dense gradient in its buffer's allocation; input
    /// rows made into a stale block are the fresh pass's rows.
    #[test]
    fn a_pass_into_reused_buffers_matches_a_fresh_pass() {
        let stale = [vec![f32::NAN; 3], vec![f32::NAN; 5000]];
        let blocks = || {
            [
                Matrix::from_vec(1, 3, vec![f32::NAN; 3]),
                Matrix::from_vec(100, 40, vec![f32::NAN; 4000]),
            ]
        };
        let (wcfg, wbatch) = (WordLmConfig::small(60), toy_batch(60, 3, 4, 6));
        let w = WordLm::new(3, wcfg);
        let want = w.forward_backward(&wbatch, &mut StdRng::seed_from_u64(1));
        let [short, tall] = blocks();
        for (dense, mut block) in [(stale[0].clone(), tall), (stale[1].clone(), short)] {
            let (ptr, cap) = (dense.as_ptr(), dense.capacity());
            let got =
                w.forward_backward_in(&wbatch, &mut StdRng::seed_from_u64(1), dense, &mut block);
            assert_eq!(bits(&got.dense), bits(&want.dense));
            assert_eq!(got.input_grad.tokens, want.input_grad.indices);
            let f = &want.input_grad.rows;
            w.input_grad_rows(&got.input_grad, 0..f.rows(), &mut block);
            assert_eq!(bits(&block.as_slice()[..f.len()]), bits(f.as_slice()));
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            assert_eq!(got.dense.as_ptr() == ptr, got.dense.len() <= cap);
        }

        let (ccfg, cbatch) = (CharLmConfig::small(30), toy_batch(30, 3, 4, 6));
        let m = CharLm::new(3, ccfg);
        let want = m.forward_backward(&cbatch);
        let [short, tall] = blocks();
        for (dense, mut block) in [(stale[0].clone(), tall), (stale[1].clone(), short)] {
            let (ptr, cap) = (dense.as_ptr(), dense.capacity());
            let got = m.forward_backward_in(&cbatch, dense, &mut block);
            assert_eq!(bits(&got.dense), bits(&want.dense));
            assert_eq!(got.input_grad.tokens, want.input_grad.indices);
            let f = &want.input_grad.rows;
            m.input_grad_rows(&got.input_grad, 0..f.rows(), &mut block);
            assert_eq!(bits(&block.as_slice()[..f.len()]), bits(f.as_slice()));
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            assert_eq!(got.dense.as_ptr() == ptr, got.dense.len() <= cap);
        }
    }

    /// The input gradient's rows made a block at a time, into one reused
    /// block, are the rows `forward_backward` makes in one call, over a
    /// `K` that is not a multiple of the block.
    #[test]
    fn input_gradient_rows_made_by_blocks_are_the_rows_of_one_call() {
        let tokens = |v: usize| toy_batch(v, 9, 10, 4);
        let w = WordLm::new(2, WordLmConfig::small(60));
        let batch = tokens(60);
        let want = w.forward_backward(&batch, &mut StdRng::seed_from_u64(3));
        let mut block = Matrix::default();
        let got = w.forward_backward_in(
            &batch,
            &mut StdRng::seed_from_u64(3),
            Vec::new(),
            &mut block,
        );
        let mut made = Vec::new();
        for rows in crate::block::blocks(batch.len()) {
            let n = rows.len();
            w.input_grad_rows(&got.input_grad, rows, &mut block);
            made.extend_from_slice(&block.as_slice()[..n * block.cols()]);
        }
        assert_eq!(bits(&made), bits(want.input_grad.rows.as_slice()));

        let c = CharLm::new(2, CharLmConfig::small(30));
        let batch = tokens(30);
        let want = c.forward_backward(&batch);
        let got = c.forward_backward_in(&batch, Vec::new(), &mut block);
        let mut made = Vec::new();
        for rows in crate::block::blocks(batch.len()) {
            let n = rows.len();
            c.input_grad_rows(&got.input_grad, rows, &mut block);
            made.extend_from_slice(&block.as_slice()[..n * block.cols()]);
        }
        assert_eq!(bits(&made), bits(want.input_grad.rows.as_slice()));
    }

    /// FNV-1a over the little-endian bytes of every value's bits.
    fn bit_hash(v: &[f32]) -> u64 {
        v.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn param_vector_layout_is_pinned() {
        // Computed at the commit before the layers moved onto the
        // parameter list. `param_vector()` is what a checkpoint
        // (`FORMAT_VERSION` 3) stores verbatim: a reordered part would
        // still round-trip, and would silently load old snapshots into
        // the wrong weights. If the layout must change, bump the format.
        let w = WordLm::new(9, WordLmConfig::small(80)).param_vector();
        assert_eq!((w.len(), bit_hash(&w)), (32_032, 0xad49_12e0_4a4a_157c));
        let c = CharLm::new(3, CharLmConfig::small(40)).param_vector();
        assert_eq!((c.len(), bit_hash(&c)), (19_336, 0x5167_b28e_89af_df40));
    }
}
