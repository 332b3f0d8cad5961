//! The one FLOP count: each layer's forward multiply-adds per token,
//! in exact integer arithmetic, and the rule that turns them into a
//! training step's FLOPs. Beside it, the one parameter count: each
//! weight is one multiply-add per token, so a layer's parameters are
//! its count plus its biases.
//!
//! Both cluster models read it. The trainer prices a live step of
//! `zipf_lm::ModelKind` through `ModelKind::flops_per_step`, and
//! [`crate::WordScale`] / [`crate::CharScale`] price their predicted
//! step at the paper's dimensions; each passes [`step`] to
//! `CostModel::compute_time` at the utilisation below. Following
//! Williams et al., an RNN LM costs its recurrence plus its output
//! layer; embedding lookups are gathers and cost nothing here.
//!
//! The per-layer counts are the GEMMs `nn`'s layers run, which `lm`'s
//! `tests/flop_count.rs` holds to `tensor::gemm_macs` exactly: a
//! recurrent or dense layer runs [`step`]'s 3× forward (the backward
//! pass computes both `dX` and `dW`, each the forward's size), and
//! sampled softmax runs its candidate product the same three times. The
//! same test holds each parameter count to `nn`'s `param_count` /
//! `dense_param_count`.

/// §V-A: the word LM sustains 40 % of peak FLOP/s ("2.44 TFLOP/sec (40%
/// of peak)").
pub const WORD_UTILIZATION: f64 = 0.40;
/// §V-B / §V-C: the char LM sustains 64 % of peak FLOP/s.
pub const CHAR_UTILIZATION: f64 = 0.64;

/// One LSTM layer of `hidden` cells over `input`-wide inputs: the input
/// and recurrent products into the four gates, `4H·(E + H)`.
pub fn lstm(input: usize, hidden: usize) -> u64 {
    (4 * hidden * (input + hidden)) as u64
}

/// A coupled-gate RHN of `depth` micro-layers: the input products into
/// the candidate and transform gates at depth 0, `2·D·H`, and the two
/// recurrent `H×H` products at every depth, `2·L·H²`.
pub fn rhn(input: usize, hidden: usize, depth: usize) -> u64 {
    (2 * hidden * (input + depth * hidden)) as u64
}

/// A dense `x·W` layer, `in × out`.
pub fn linear(input: usize, output: usize) -> u64 {
    (input * output) as u64
}

/// Sampled softmax over `P`-wide outputs: `S` candidate dots and the
/// target's, `(S + 1)·P`.
///
/// The candidate part (`P·S` per token) runs as three GEMMs: the
/// forward's candidate dots, and the backward's candidate table rows
/// `Dᵀ·H` and their share of `dh`, `D·C`. The target's part runs in
/// scalar loops: its dot, and its `dh` and table-row terms when its
/// gradient is non-zero — at most `3P` multiply-adds per token. Priced
/// under [`step`], the layer's `3·(S + 1)·P` is exactly both.
pub fn sampled_softmax(proj: usize, samples: usize) -> u64 {
    linear(proj, samples) + proj as u64
}

/// The word LM (§IV-B): an LSTM over `E`-wide embeddings, the `H → P`
/// projection and sampled softmax.
pub fn word_lm(embed: usize, hidden: usize, proj: usize, samples: usize) -> u64 {
    lstm(embed, hidden) + linear(hidden, proj) + sampled_softmax(proj, samples)
}

/// The char LM (§IV-B): an RHN over `E`-wide embeddings and the full
/// `H → V` output layer.
pub fn char_lm(embed: usize, hidden: usize, depth: usize, vocab: usize) -> u64 {
    rhn(embed, hidden, depth) + linear(hidden, vocab)
}

/// Parameters of one LSTM layer: a weight per multiply-add of [`lstm`]
/// and the `4H` gate biases.
pub fn lstm_params(input: usize, hidden: usize) -> u64 {
    lstm(input, hidden) + (4 * hidden) as u64
}

/// Parameters of one RHN layer: a weight per multiply-add of [`rhn`] and
/// the candidate and transform biases at every depth, `2·L·H`.
pub fn rhn_params(input: usize, hidden: usize, depth: usize) -> u64 {
    rhn(input, hidden, depth) + (2 * depth * hidden) as u64
}

/// Parameters of a dense layer: a weight per multiply-add of [`linear`]
/// and one bias per output.
pub fn linear_params(input: usize, output: usize) -> u64 {
    linear(input, output) + output as u64
}

/// The word LM's dense (ALLREDUCEd) parameters, as `nn::WordLm` lays
/// them out: the LSTM, then the projection. The embedding tables are
/// exchanged, not reduced.
pub fn word_lm_params(embed: usize, hidden: usize, proj: usize) -> u64 {
    lstm_params(embed, hidden) + linear_params(hidden, proj)
}

/// The char LM's dense parameters, as `nn::CharLm` lays them out: the
/// RHN, then the output layer.
pub fn char_lm_params(embed: usize, hidden: usize, depth: usize, vocab: usize) -> u64 {
    rhn_params(embed, hidden, depth) + linear_params(hidden, vocab)
}

/// FLOPs of one training step over `tokens` tokens for a model of
/// `macs_per_token` forward multiply-adds: 2 FLOPs per multiply-add, and
/// forward + backward = 3× forward. Exact below 2⁵³.
pub fn step(macs_per_token: u64, tokens: usize) -> f64 {
    (6 * macs_per_token * tokens as u64) as f64
}
