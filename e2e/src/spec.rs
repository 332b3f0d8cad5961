//! What the benchmark runs and what it reports: the workload table and
//! the two metric tables. `BENCHMARK.json` at the repository root
//! declares the same names (a unit test keeps them in step), and later
//! changes refer to workloads and metrics by these names.

use nn::model::WordLmConfig;
use zipf_lm::{
    CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1234;
/// Measuring window used when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 25;
/// Fewest cycles (a one-step call, then an S-step call), however short
/// the measuring window.
pub const MIN_TIMED_REPS: usize = 3;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. Every printed number carries one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall, CPU or memory of this process: noisy.
    Host,
    /// The modelled cluster (integer picoseconds and bytes) or another
    /// exact count: repeats exactly for a seed.
    Sim,
    /// A number the training run computes: repeats exactly for a seed.
    Result,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Result => "result",
        }
    }
}

/// One end-to-end metric: something a user of `train()` sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload. `host` metrics
/// are wall/CPU/memory of this process; `sim_*` metrics are the
/// modelled cluster's (exact for a given seed).
///
/// Bounds are sized to what ten runs on ten seeds spread over on a
/// shared sandbox: host timings, even divided by the host's measured
/// slowdown (`calib.rs`), drift by several percent from minute to
/// minute there, and another seed is another corpus, which moves even
/// the exact metrics (the `sim_*` ones by up to 2%, the loss by up to
/// 4%).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms",
        unit: "ms",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        clock: Clock::Host,
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "final_train_loss",
        unit: "nats",
        clock: Clock::Result,
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "sim_wire_kb_per_step_per_gpu",
        unit: "KB",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_peak_mem_mb",
        unit: "MB",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "sim_weak_scaling_ratio",
        unit: "ratio",
        clock: Clock::Sim,
        better: Better::Lower,
        bound: 0.10,
    },
];

/// One per-layer metric: `name` starts with the layer (module) it
/// measures. No bound: these explain an end-to-end move, they do not
/// gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock,
        better,
    }
}

/// A host-clock metric where lower is better.
const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Clock::Host, Better::Lower)
}

/// A host-clock metric where higher is better.
const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Clock::Host, Better::Higher)
}

/// An exact (simulated-clock or counted) metric where lower is better.
const fn sim_lo(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Clock::Sim, Better::Lower)
}

/// An exact metric where higher is better.
const fn sim_hi(name: &'static str, unit: &'static str) -> PerLayer {
    layer(name, unit, Clock::Sim, Better::Higher)
}

/// The per-layer metrics, reported for every workload. A simulated
/// time carries `sim_` in its unit, so it is never read as a host time.
pub const PER_LAYER: &[PerLayer] = &[
    lo("corpus.generate_ms", "ms"),
    lo("corpus.vocab_encode_ms", "ms"),
    lo("corpus.split_ms", "ms"),
    lo("corpus.batch_us", "us"),
    hi("tensor.matmul_gflops", "GFLOP/s"),
    lo("tensor.matmul_small_us", "us"),
    lo("nn.init_ms", "ms"),
    lo("nn.fwd_bwd_ms", "ms"),
    lo("nn.fwd_bwd_xg_ms", "ms"),
    lo("nn.oversub_ratio", "ratio"),
    lo("nn.apply_dense_ms", "ms"),
    lo("nn.eval_loss_ms", "ms"),
    hi("nn.host_gflops", "GFLOP/s"),
    sim_lo("nn.dense_params", "count"),
    lo("simgpu.comm.barrier_us", "us"),
    lo("simgpu.comm.allreduce_scalar_us", "us"),
    lo("simgpu.comm.allreduce_dense_ms", "ms"),
    hi("simgpu.comm.allreduce_dense_gbps", "GB/s"),
    lo("simgpu.comm.allgather_idx_us", "us"),
    lo("simgpu.comm.allgather_rows_ms", "ms"),
    sim_lo("simgpu.comm.allreduce_ops_per_step", "count"),
    sim_lo("simgpu.comm.allgather_ops_per_step", "count"),
    sim_lo("simgpu.comm.wire_intra_kb_per_step", "KB"),
    sim_lo("simgpu.comm.wire_inter_kb_per_step", "KB"),
    lo("simgpu.pool.spawn_join_ms", "ms"),
    lo("simgpu.pool.peak_running", "count"),
    sim_lo("simgpu.cost.sim_step_us", "sim_us"),
    sim_hi("simgpu.cost.compute_share", "ratio"),
    sim_lo("simgpu.cost.wire_intra_share", "ratio"),
    sim_lo("simgpu.cost.wire_inter_share", "ratio"),
    sim_lo("simgpu.cost.barrier_wait_share", "ratio"),
    sim_hi("simgpu.cost.overlapped_share", "ratio"),
    lo("simgpu.trace.overhead_ratio", "ratio"),
    sim_lo("simgpu.trace.events_per_step", "count"),
    sim_lo("simgpu.trace.dropped", "count"),
    lo("lm.exchange.phases_ms", "ms"),
    lo("lm.exchange.gather_share", "ratio"),
    lo("lm.exchange.unique_share", "ratio"),
    lo("lm.exchange.scatter_share", "ratio"),
    lo("lm.exchange.allreduce_share", "ratio"),
    lo("lm.exchange.apply_share", "ratio"),
    sim_lo("lm.exchange.ug_mean", "count"),
    sim_lo("lm.exchange.ug_over_gk", "ratio"),
    sim_lo("lm.exchange.wire_kb_per_step", "KB"),
    sim_lo("lm.exchange.peak_buffer_kb", "KB"),
    lo("lm.exchange.steady_ms", "ms"),
    lo("lm.trainer.step_wall_ms", "ms"),
    lo("lm.trainer.compute_ms", "ms"),
    lo("lm.trainer.allreduce_ms", "ms"),
    lo("lm.trainer.gather_ms", "ms"),
    lo("lm.trainer.local_ms", "ms"),
    lo("lm.trainer.barrier_wait_ms", "ms"),
    lo("lm.trainer.unattributed_ms", "ms"),
    lo("lm.trainer.barrier_wait_share", "ratio"),
    lo("lm.schedule.evaluate_us", "us"),
    lo("lm.eval.valid_ms", "ms"),
    lo("lm.checkpoint.serialize_ms", "ms"),
    lo("lm.checkpoint.deserialize_ms", "ms"),
    lo("lm.checkpoint.deposit_disk_ms", "ms"),
    sim_lo("lm.checkpoint.kb", "KB"),
    sim_lo("perfmodel.weak_ratio", "ratio"),
    sim_lo("perfmodel.paper_weak_ratio", "ratio"),
    lo("host.cpu_user_s", "s"),
    lo("host.cpu_sys_s", "s"),
    lo("host.sys_share", "ratio"),
    lo("host.slowdown", "ratio"),
];

/// One workload: a `train()` configuration sized for one core of a
/// small shared box.
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists: which layer owns its step.
    pub why: &'static str,
    /// Steps per timed `train()` call (`S`).
    pub steps: usize,
    /// World of the single-worker (or, for the Table V workload,
    /// single-node) reference run behind `sim_weak_scaling_ratio`: the
    /// same per-GPU batch and tokens per GPU at this many GPUs.
    pub ref_gpus: usize,
    /// A second configuration the workload's results are checked
    /// against, if it has one.
    pub sibling: Option<Sibling>,
    model: ModelKind,
    gpus: usize,
    batch: usize,
    seq_len: usize,
    tokens: usize,
    method: fn() -> Method,
    comm: fn() -> CommConfig,
}

/// What a workload's sibling run is, and what it must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sibling {
    /// The same config under `Method::unique()`: uniqueness changes no
    /// numerics, so per-step losses agree to rounding.
    UniqueMatches,
    /// The same config under `Method::baseline()`: the full stack must
    /// not cost accuracy, so its final loss stays near the baseline's.
    BaselineBoundsLoss,
}

const WORD_COMPUTE: ModelKind = ModelKind::WordCustom(WordLmConfig {
    vocab: 4000,
    embed_dim: 64,
    hidden: 256,
    proj_dim: 64,
    samples: 256,
});

const WORD_EXCHANGE: ModelKind = ModelKind::WordCustom(WordLmConfig {
    vocab: 20_000,
    embed_dim: 512,
    hidden: 4,
    proj_dim: 8,
    samples: 8,
});

fn weak_comm() -> CommConfig {
    CommConfig::hierarchical_pooled(2)
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "word_compute_g2",
        why: "nn/tensor own about 90% of the step and exchange under 1%: a GEMM or allocation fix shows here, an exchange or barrier change must not",
        steps: 6,
        ref_gpus: 1,
        sibling: None,
        model: WORD_COMPUTE,
        gpus: 2,
        batch: 16,
        seq_len: 20,
        tokens: 200_000,
        method: Method::full,
        comm: CommConfig::flat,
    },
    Workload {
        name: "word_exchange_full_g8",
        why: "paper's full stack (unique+seeding+FP16) at the widest K*D this box holds: index gather, unique set and Ug*D f16 ALLREDUCE are the largest non-nn share",
        steps: 6,
        ref_gpus: 1,
        sibling: Some(Sibling::BaselineBoundsLoss),
        model: WORD_EXCHANGE,
        gpus: 8,
        batch: 512,
        seq_len: 4,
        tokens: 400_000,
        method: Method::full,
        comm: CommConfig::flat,
    },
    Workload {
        name: "word_exchange_baseline_g8",
        why: "same model, shape and seed on the baseline path: dense G*K*D f32 ALLGATHER and scatter-apply, so a gain for one exchange path that costs the other shows",
        steps: 6,
        ref_gpus: 1,
        sibling: Some(Sibling::UniqueMatches),
        model: WORD_EXCHANGE,
        gpus: 8,
        batch: 512,
        seq_len: 4,
        tokens: 400_000,
        method: Method::baseline,
        comm: CommConfig::flat,
    },
    Workload {
        name: "char_weak_g192",
        why: "Table V's largest world with near-zero compute: host time is rank spawn, park/wake and barrier rounds, sim time is inter-node latency; nn/exchange gains must not move it",
        steps: 4,
        ref_gpus: 6,
        sibling: None,
        model: ModelKind::Char { vocab: 48 },
        gpus: 192,
        batch: 1,
        seq_len: 6,
        tokens: 960_000,
        method: Method::unique,
        comm: weak_comm,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The timed configuration: `S` steps, one epoch, every observer off.
    pub fn config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            model: self.model,
            gpus: self.gpus,
            batch: self.batch,
            seq_len: self.seq_len,
            steps_per_epoch: self.steps,
            epochs: 1,
            base_lr: 0.2,
            lr_decay: 0.9,
            method: (self.method)(),
            seed,
            tokens: self.tokens,
            trace: TraceConfig::off(),
            metrics: MetricsConfig::off(),
            checkpoint: CheckpointConfig::off(),
            comm: (self.comm)(),
        }
    }

    /// The reference run of `sim_weak_scaling_ratio`: `ref_gpus` GPUs,
    /// same per-GPU batch, tokens scaled with the world.
    pub fn ref_config(&self, seed: u64) -> TrainConfig {
        let mut cfg = self.config(seed);
        cfg.tokens = self.tokens * self.ref_gpus / self.gpus;
        cfg.gpus = self.ref_gpus;
        cfg
    }

    /// The sibling run's configuration (checked in `layers.rs`).
    pub fn sibling_config(&self, seed: u64) -> Option<TrainConfig> {
        let method = match self.sibling? {
            Sibling::UniqueMatches => Method::unique(),
            Sibling::BaselineBoundsLoss => Method::baseline(),
        };
        Some(TrainConfig {
            method,
            ..self.config(seed)
        })
    }
}

/// The declared end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("declared end-to-end metric")
}

/// The declared per-layer metric called `name`.
pub fn per_layer(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .expect("declared per-layer metric")
}

/// The value reported under `name` in a list of metric values.
pub fn value_of(metrics: &[(&'static str, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}
