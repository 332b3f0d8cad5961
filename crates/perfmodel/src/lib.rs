//! Analytic performance model for the paper's full-scale experiments,
//! and the step clock the simulator's trainer shares with it.
//!
//! The `lm` crate *really trains* scaled-down models on a simulated
//! cluster; this crate models the paper's **full-size** configurations —
//! 100 K-vocabulary word LM, 70.86 M-parameter RHN char LM, 0.78 B–34 B
//! token corpora, 8–192 Titan X GPUs — where actually executing a step is
//! out of reach. Both price a step with one clock, [`schedule`]: the
//! trainer feeds it the [`schedule::StepLoad`] it measured, the models
//! here the one they predict from the paper's dimensions and the
//! Zipf/Heaps unique-words law. Both count compute with one function,
//! [`flops`]. A predicted step time is that clock plus one table of
//! named calibrated terms — overhead, host staging, contention and a
//! straggler multiplier — whose constants are **calibrated** against
//! the paper's own anchor rows and marked `CALIBRATED` where they are
//! defined. [`paper`] states every paper figure once, beside ours.
//!
//! * [`schedule`] — the step clock: op schedule, critical path, exact
//!   per-rank time attribution.
//! * [`flops`] — each layer's multiply-adds per token, the step rule and
//!   the paper's utilisations.
//! * [`law`] — the `U = a·N^0.64` unique-words law (§III-A).
//! * [`wordlm`] — Table III, Figure 6, and the §V-A memory numbers.
//! * [`charlm`] — Table IV and the Table V weak-scaling run.
//! * [`memory`] — what a GPU holds for a step, and the §III-A worked
//!   example.
//! * [`paper`] — the paper table: each figure, ours, its kind and bound.

#![forbid(unsafe_code)]

pub mod charlm;
pub mod flops;
pub mod law;
pub mod memory;
pub mod paper;
pub mod schedule;
pub mod wordlm;

pub use charlm::{CharScale, TiebaScale};
pub use law::unique_words;
pub use wordlm::{TechniqueStack, WordScale};
mod calibration;
mod scale;
