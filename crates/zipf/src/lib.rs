//! Zipfian statistics substrate for `zipf-lm`.
//!
//! "Language Modeling at Scale" (Patwary et al., 2019) rests on one
//! empirical observation: the number of *types* (unique words, `U`) in a
//! batch of *tokens* (`N`) grows sub-linearly, `U ∝ N^α` with `α ≈ 0.64`
//! (the paper's Figure 1). This crate provides everything needed to
//! generate, measure and fit that behaviour:
//!
//! * [`alias::AliasTable`] — O(1) sampling from arbitrary discrete
//!   distributions (Walker's alias method), the workhorse behind
//!   [`distribution::ZipfMandelbrot`] and so behind the corpus
//!   generators. The log-uniform sampled-softmax sampler
//!   ([`distribution::LogUniform`]) needs no table: it samples by its
//!   closed-form inverse CDF.
//! * [`distribution::ZipfMandelbrot`] — the rank-frequency law
//!   `p(r) ∝ (r + 1 + q)^{-s}` over 0-based ranks `r`, used to
//!   synthesise corpora whose type–token curve matches the paper's
//!   datasets.
//! * [`freq::FrequencyTable`] — token counting, rank assignment and
//!   empirical rank-frequency extraction.
//! * [`heaps`] — type–token (Heaps' law) curve measurement over a token
//!   stream, the data behind Figure 1.
//! * [`fit`] — log–log least-squares power-law fitting with R², producing
//!   the `U = a·N^α` fits the paper reports (`a = 7.02`, `α = 0.64`,
//!   `R² = 1.00`).

#![forbid(unsafe_code)]

pub mod alias;
pub mod distribution;
pub mod fit;
pub mod freq;
pub mod heaps;

pub use alias::AliasTable;
pub use distribution::{LogUniform, Zipf, ZipfMandelbrot};
pub use fit::{fit_power_law, PowerLawFit};
pub use freq::FrequencyTable;
pub use heaps::{heaps_curve, heaps_curve_from_sampler, HeapsPoint};
