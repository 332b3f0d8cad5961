//! Minimal dense-tensor substrate for `zipf-lm`.
//!
//! The paper trains LSTM / RHN language models in TensorFlow on GPUs; we
//! need just enough linear algebra to train the same architectures on CPU:
//!
//! * [`Matrix`] — row-major `f32` matrices whose products — three
//!   allocating ones and the in-place [`Matrix::gemm_rows`] over operand
//!   [`View`]s, a pack-once [`PackedB`] and a [`Store`] mode — share one
//!   sequential register-tiled GEMM kernel, run at the widest vector
//!   unit the CPU reports and bit-identical at every width (the CPU
//!   stand-in for a CUDA thread-block kernel; ranks, not kernels, are
//!   the threads). [`gemm_macs`] counts the multiply-adds it performs.
//! * [`ops`] — numerically-stable softmax / log-sum-exp and the pointwise
//!   nonlinearities LSTM/RHN need, the gates' `tanh` and sigmoid as
//!   lane-wise kernels over a block that return glibc 2.36's bits at
//!   every width.
//! * [`mod@f16`] — bit-exact software IEEE-754 binary16 with round-to-nearest-
//!   even, plus the compression-scaling helpers of the paper's §III-C.
//! * [`init`] — seeded uniform / Xavier initialisers so every experiment
//!   is reproducible.

// `matrix` opts back in, for its `#[target_feature]` tiles, and so does
// the one width dispatch of `activation`'s kernels; every other crate of
// the workspace forbids it outright.
#![deny(unsafe_code)]

mod activation;
pub mod f16;
pub mod init;
pub mod matrix;
pub mod ops;

pub use f16::F16;
pub use matrix::{gemm_macs, Matrix, PackedB, Rhs, Store, View};
