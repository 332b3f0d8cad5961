//! Experiment runners for the paper's tables and figures.
//!
//! Each `fig*` / `table*` function regenerates one evaluation artifact of
//! the paper. Figures that report *accuracy* (5, 7, 8; Table V's
//! perplexity column) really train scaled-down models on the simulated
//! cluster; tables that report *full-scale time/memory* (III, IV, V's
//! hours; Figure 6) use the calibrated `perfmodel`. Each measured artifact
//! has a `*_block` renderer: the block of [`EXPERIMENTS_MD`] that states
//! its numbers beside the paper's. The `repro` binary prints them in
//! paper layout and is the one writer of those blocks and of the
//! simulated `BENCH_*.json` goldens ([`GoldenRow`]); the experiments'
//! tests hold each block and golden to its quick run byte for byte.

#![forbid(unsafe_code)]

pub mod diff;
pub mod experiments;
pub mod table;

pub use experiments::*;
