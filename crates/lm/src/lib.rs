//! # zipf-lm — Language Modeling at Scale
//!
//! Rust reproduction of *"Language Modeling at Scale"* (Patwary, Chabbi,
//! Jun, Huang, Diamos, Church — Baidu SVAIL, IPPS 2019, arXiv:1810.10045):
//! scaling data-parallel RNN language-model training by exploiting Zipf's
//! law in the embedding-layer gradient exchange.
//!
//! ## The three techniques
//!
//! 1. **Uniqueness** ([`exchange`], §III-A) — the baseline exchanges dense
//!    `K×D` embedding gradients with an ALLGATHER costing `Θ(G·K·D)`
//!    memory and wire bytes per GPU. Because tokens repeat (Zipf), the
//!    set of *unique* words per step is only `Ug ∝ (G·K)^0.64`, so the
//!    exchange can instead gather indices (`Θ(G·K)`), canonicalise them,
//!    and ALLREDUCE a `Ug×D` matrix: `Θ(G·K + Ug·D)` total.
//! 2. **Seeding** ([`seeding`], §III-B) — sampled softmax draws random
//!    candidate words per GPU, destroying cross-GPU overlap. Sharing
//!    seeds among GPU groups (only `G^0.64` distinct seeds are needed)
//!    restores the Zipfian overlap with negligible accuracy cost.
//! 3. **Compression** ([`exchange`] + `simgpu`'s FP16 collectives,
//!    §III-C) — FP32→FP16 wire compression with compression-scaling
//!    halves communication volume.
//!
//! ## Quick start
//!
//! ```
//! use zipf_lm::{run, ModelKind, Method, RunOptions, TrainConfig};
//!
//! let cfg = TrainConfig {
//!     model: ModelKind::Word { vocab: 500 },
//!     gpus: 2,
//!     batch: 4,
//!     seq_len: 8,
//!     steps_per_epoch: 5,
//!     epochs: 1,
//!     base_lr: 0.5,
//!     lr_decay: 0.95,
//!     method: Method::unique(),
//!     seed: 42,
//!     tokens: 20_000,
//!     ..Default::default()
//! };
//! let report = run(&cfg, &RunOptions::default())
//!     .report()
//!     .expect("training runs");
//! assert!(report.epochs[0].train_loss.is_finite());
//! ```
//!
//! [`run`] is the one way into the trainer. *What* to train is the
//! [`TrainConfig`]; *how* to run it — a per-GPU memory cap
//! (Tables III/IV's OOM cliffs), injected faults, where checkpoints go,
//! a snapshot to resume from, whether to recover from failures — is
//! [`RunOptions`], spelled `RunOptions { gpu_mem_bytes: cap,
//! ..Default::default() }`. The returned [`RunOutcome`] holds every
//! rank's own result; [`RunOutcome::report`] collapses them to rank 0's
//! report or the root cause of the failure.
//!
//! ## Elasticity
//!
//! Training survives rank failures: enable periodic bit-exact
//! snapshots with `checkpoint: CheckpointConfig::every(n)` and set
//! `recovery: Some(RecoveryPolicy::default())` in [`RunOptions`]: the
//! run then shrinks the world to the survivors after a failure and
//! restores every remaining rank from the last consistent
//! [`checkpoint::Checkpoint`]. Add `checkpoints: Some(Arc::new(dir))`
//! with a [`CheckpointDir`] to keep the snapshots on disk across
//! rounds and processes. Kill-and-resume at the same world size is
//! bit-identical to an uninterrupted run; see [`elastic`] and
//! DESIGN.md's "Failure model & recovery contract".
//!
//! ## Observability
//!
//! Set `trace: TraceConfig::on()` and every rank records per-span
//! [`simgpu::trace::TraceEvent`]s (collectives, exchange phases, barrier
//! waits, injected straggler delays) into a lock-free ring buffer;
//! export with [`chrome_trace_json`] (open in `chrome://tracing`) or
//! [`TrainReport::steps_jsonl`]. Independent of tracing, each step's
//! simulated time carries an exact integer-picosecond
//! [`TimeAttribution`] split (compute / intra-node wire / inter-node
//! wire / overlapped / barrier-wait / skew / self-delay) that sums to
//! `sim_time_ps` on every rank. The step itself is an explicit op
//! [`schedule`] with critical-path timing — `perfmodel`'s pure step
//! clock, re-exported here, which prices the measured load of each step
//! ([`StepMetrics::load`]) exactly as it prices the load `perfmodel`
//! predicts for the paper's full-scale runs: with `CommConfig::overlapped`
//! gradient buckets launch their collectives while later buckets'
//! compute still runs, the hidden comm lands in `overlapped_ps`, and
//! [`sim_trace_json`] over [`TrainReport::sim_spans`] exports the two
//! streams as concurrent spans per rank.
//!
//! ## Fleet metrics
//!
//! The step loop writes one [`StepMetrics`] per step per rank and
//! nothing else; every derived quantity is a pure fold over those
//! records in [`metrics`]. The one run roll-up is [`RunSummary`]
//! ([`TrainReport::run_summary`]): exact step-time quantiles,
//! attribution totals, wire bytes by tier and the codec ratio, as
//! byte-stable JSON — the artifact the `bench-diff` regression gate
//! compares across runs. Set `metrics: MetricsConfig::on()` for
//! barrier-wait timing plus health findings: once the ranks have
//! joined, the driver folds all ranks' records together into the
//! straggler findings ([`metrics::stragglers`]), typed
//! [`HealthEvent`]s naming the slow rank, beside any trace truncation.
//! See DESIGN.md §13.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod checkpoint;
pub mod ckpt_disk;
pub mod config;
pub mod elastic;
pub mod eval;
pub mod exchange;
pub mod metrics;
pub mod seeding;
pub mod trainer;

pub use chaos::ChaosPlan;
pub use checkpoint::{
    Checkpoint, CheckpointBackend, CheckpointError, CheckpointStore, CorruptCheckpoint,
    MemoryBackend, RecoveryScan,
};
pub use ckpt_disk::CheckpointDir;
pub use config::{
    CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};
pub use elastic::RecoveryPolicy;
pub use exchange::{
    exchange_and_apply_with, ExchangeConfig, ExchangeScratch, ExchangeStats, PhaseTimings,
};
pub use metrics::{
    config_fingerprint, EpochMetrics, HealthEvent, RecoveryEvent, RunSummary, StepMetrics,
    TimeAttribution, TrainReport, RUN_SUMMARY_SCHEMA,
};
pub use perfmodel::schedule;
pub use schedule::{CommOp, ScheduleOutcome};
pub use seeding::SeedStrategy;
pub use simgpu::{
    chrome_trace_json, chrome_trace_json_with_counters, sim_trace_json, BarrierDeadline, CommError,
    CounterTrack, DiskFault, DiskFaultPlan, FaultPlan, SimSpan, SimStream, SpanKind, TraceEvent,
    TraceLog, TraceRecorder,
};
pub use trainer::{run, train, train_with_faults, RunOptions, RunOutcome, TrainError};
