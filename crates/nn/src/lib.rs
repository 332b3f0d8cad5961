//! From-scratch neural language-model layers for `zipf-lm`.
//!
//! The paper's two test models (§IV-B) are:
//!
//! * a **word LM**: input embedding → 1× LSTM (2048 cells) → projection
//!   (512) → output embedding + **sampled softmax** (1024 samples/GPU);
//! * a **char LM**: a depth-10 **Recurrent Highway Network** (1792 cells)
//!   with a full softmax. The coupled-gate RHN here has 70.86 M dense
//!   parameters at those dimensions (RHN plus output layer, 98
//!   characters); the paper's 213 M is ≈ 3× that, a weight and Adam's
//!   two moments per parameter.
//!
//! Every run applies plain SGD ([`WordLm::apply_dense`] /
//! [`CharLm::apply_dense`] for the dense parameters, the `lm` crate's
//! exchange for the embedding rows), at the learning rate
//! [`optimizer::scaled_lr`] scales.
//!
//! This crate implements those architectures with exact analytic
//! backprop (every layer is verified against numerical gradients in its
//! tests) and exposes the gradient structure the paper's techniques act
//! on: embedding layers produce *sparse, token-aligned* gradients
//! ([`embedding::SparseGrad`]) that the `lm` crate exchanges across GPUs
//! by ALLGATHER (baseline) or the uniqueness scheme, while all other
//! parameters produce dense gradients exchanged by ALLREDUCE — one flat
//! buffer in the order each layer's parameter list states once (the
//! private `params` module folds it: count, flatten, load, SGD).

#![forbid(unsafe_code)]

pub mod block;
pub mod embedding;
pub mod linear;
pub mod lstm;
pub mod model;
pub mod optimizer;
mod packs;
mod params;
pub mod rhn;
pub mod sampled_softmax;
pub mod softmax;
#[cfg(test)]
mod testutil;

pub use block::{Input, BLOCK_ROWS};
pub use embedding::{Embedding, SparseGrad};
pub use linear::Linear;
pub use lstm::LstmLayer;
pub use model::{CharLm, CharLmGrads, InputGrad, WordLm, WordLmGrads};
pub use rhn::RhnLayer;
pub use sampled_softmax::{SampledSoftmax, SampledSoftmaxOutput};
