//! Synthetic Zipfian corpora standing in for the paper's datasets.
//!
//! The paper evaluates on 1-Billion-Word, Gutenberg, Common Crawl, Amazon
//! Reviews (English, word- and char-level) and Baidu Tieba (Chinese,
//! char-level). None of those corpora ship with this reproduction, but
//! every property the paper's techniques exploit — the Zipfian
//! rank-frequency law and the resulting sub-linear type–token growth — is
//! captured by a seeded Zipf–Mandelbrot generator per dataset profile.
//!
//! * [`profile::DatasetProfile`] — per-dataset generation parameters plus
//!   the paper's Table I ground-truth statistics.
//! * [`generator::CorpusGenerator`] / [`generator::Corpus`] — deterministic
//!   token-stream synthesis.
//! * [`vocab::Vocab`] — most-frequent-K vocabulary truncation with UNK
//!   (the §IV-A procedure) and coverage reporting.
//! * [`split`] — the 99:1 / 1000:1 train–validation splits of §IV-A.
//! * [`batch`] — contiguous LM batching `[batch, seq_len]` with next-token
//!   targets and per-GPU sharding for data parallelism.
//! * [`stats`] — Table I style corpus statistics (tokens, types, synthetic
//!   surface bytes).

#![forbid(unsafe_code)]

pub mod batch;
pub mod generator;
pub mod profile;
pub mod split;
pub mod stats;
pub mod vocab;

pub use batch::{shard_batches, Batch, BatchSpec};
pub use generator::{Corpus, CorpusGenerator};
pub use profile::{DatasetProfile, Language, TokenUnit};
pub use split::{train_valid_split, train_valid_split_in_place};
pub use stats::{corpus_stats, CorpusStats};
pub use vocab::Vocab;
