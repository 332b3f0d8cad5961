//! Training configuration.
//!
//! `TrainConfig` describes the *healthy* run; failure injection lives
//! orthogonally in [`simgpu::FaultPlan`], passed alongside the config
//! as [`crate::RunOptions::faults`] — kill-at-step, straggler delays
//! and asymmetric per-rank memory limits compose with any config here
//! without changing its semantics.

use crate::seeding::SeedStrategy;
use corpus::DatasetProfile;
use nn::model::{CharLmConfig, WordLmConfig};
use perfmodel::{flops, TechniqueStack};

/// Which corpus profile feeds the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// 1-Billion Word (the paper's main accuracy benchmark).
    OneBillion,
    /// Project Gutenberg.
    Gutenberg,
    /// Amazon Reviews (§V-D comparison).
    AmazonReviews,
    /// Baidu Tieba (§V-C hero run; char-level, 15 K vocabulary).
    Tieba,
}

impl DatasetId {
    /// The corresponding generation profile.
    pub fn profile(&self) -> DatasetProfile {
        match self {
            DatasetId::OneBillion => DatasetProfile::one_billion(),
            DatasetId::Gutenberg => DatasetProfile::gutenberg(),
            DatasetId::AmazonReviews => DatasetProfile::amazon_reviews(),
            DatasetId::Tieba => DatasetProfile::tieba(),
        }
    }
}

/// Which model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Word LM with the default small architecture at the given
    /// vocabulary (§IV-B's LSTM model, scaled down).
    Word {
        /// Model vocabulary incl. UNK.
        vocab: usize,
    },
    /// Char LM with the default small architecture (§IV-B's RHN model,
    /// scaled down).
    Char {
        /// Alphabet size.
        vocab: usize,
    },
    /// Word LM with explicit dimensions.
    WordCustom(WordLmConfig),
    /// Char LM with explicit dimensions.
    CharCustom(CharLmConfig),
}

impl ModelKind {
    /// True for the word-LM variants (which use sampled softmax and the
    /// seeding technique).
    pub fn is_word(&self) -> bool {
        matches!(self, ModelKind::Word { .. } | ModelKind::WordCustom(_))
    }

    /// Resolved word-LM config (panics for char kinds).
    pub fn word_config(&self) -> WordLmConfig {
        match self {
            ModelKind::Word { vocab } => WordLmConfig::small(*vocab),
            ModelKind::WordCustom(c) => *c,
            _ => panic!("not a word model"),
        }
    }

    /// Resolved char-LM config (panics for word kinds).
    pub fn char_config(&self) -> CharLmConfig {
        match self {
            ModelKind::Char { vocab } => CharLmConfig::small(*vocab),
            ModelKind::CharCustom(c) => *c,
            _ => panic!("not a char model"),
        }
    }

    /// The model a run builds, at its final dimensions: a word model
    /// takes `model_vocab`, the vocabulary data preparation reports (the
    /// corpus may have shrunk it), and clamps its sampled-softmax
    /// candidates to half of it; a char model keeps its own alphabet.
    pub fn resolved(&self, model_vocab: usize) -> ModelKind {
        if self.is_word() {
            let mut mc = self.word_config();
            mc.vocab = model_vocab;
            mc.samples = mc.samples.min(model_vocab / 2).max(1);
            ModelKind::WordCustom(mc)
        } else {
            ModelKind::CharCustom(self.char_config())
        }
    }

    /// FLOPs per training step per GPU for a local batch of `k` tokens:
    /// the model's layers as [`perfmodel::flops`] counts them — the same
    /// count `perfmodel` prices at the paper's dimensions.
    pub fn flops_per_step(&self, k: usize) -> f64 {
        let macs = if self.is_word() {
            let c = self.word_config();
            flops::word_lm(c.embed_dim, c.hidden, c.proj_dim, c.samples)
        } else {
            let c = self.char_config();
            flops::char_lm(c.embed_dim, c.hidden, c.depth, c.vocab)
        };
        flops::step(macs, k)
    }

    /// GPU utilisation fraction the paper measured for this model class
    /// ([`flops::WORD_UTILIZATION`], [`flops::CHAR_UTILIZATION`]).
    pub fn utilization(&self) -> f64 {
        if self.is_word() {
            flops::WORD_UTILIZATION
        } else {
            flops::CHAR_UTILIZATION
        }
    }
}

/// The optimizer stack of §III, applied cumulatively like Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Method {
    /// Uniqueness (§III-A) for both embedding exchanges.
    pub unique: bool,
    /// Seed-sharing strategy (§III-B) for sampled softmax (word LM only).
    pub seeding: SeedStrategy,
    /// FP16 compression scale (§III-C), if enabled.
    pub compression: Option<f32>,
}

impl Method {
    /// The paper's baseline: dense ALLGATHER, per-GPU seeds, FP32 wire.
    pub fn baseline() -> Self {
        TechniqueStack::Baseline.into()
    }

    /// Baseline + uniqueness.
    pub fn unique() -> Self {
        TechniqueStack::Unique.into()
    }

    /// Uniqueness + Zipf-frequency seeding.
    pub fn unique_seeded() -> Self {
        TechniqueStack::UniqueSeeded.into()
    }

    /// All three techniques (Figure 6's last bar).
    pub fn full() -> Self {
        TechniqueStack::Full.into()
    }
}

/// A Figure 6 bar as the trainer runs it: seeding shares Zipf-frequency
/// seeds where the bar turns it on, and keeps per-GPU seeds otherwise.
impl From<TechniqueStack> for Method {
    fn from(stack: TechniqueStack) -> Self {
        Self {
            unique: stack.unique(),
            seeding: if stack.seeded() {
                SeedStrategy::ZipfFreq
            } else {
                SeedStrategy::PerGpu
            },
            compression: stack.compression(),
        }
    }
}

/// Opt-in per-rank structured tracing (see [`simgpu::trace`]).
///
/// Disabled by default. When off, the trainer allocates no recorder,
/// [`simgpu::Rank`] skips barrier-wait timing, and the exchange hot
/// path pays a single branch per phase (the cost of tracing *on* is the
/// `e2e/` benchmark's `simgpu.trace.overhead_ratio`). Each rank's ring
/// holds 65 536 events; beyond that the oldest are overwritten and
/// counted in the log's `dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record per-rank span events and attach a `TraceLog` to each
    /// rank's `TrainReport`.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub fn off() -> Self {
        Self { enabled: false }
    }

    /// Tracing enabled.
    pub fn on() -> Self {
        Self { enabled: true }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Opt-in fleet metrics (see [`crate::metrics`]): barrier-wait timing
/// plus health findings.
///
/// Disabled by default, and the step loop is the same either way: it
/// writes one [`crate::StepMetrics`] per step (on only adds barrier-wait
/// wall time to it). When on, the driver folds every joined rank's
/// records into the [`crate::HealthEvent`] findings (stragglers: 1.5×
/// the median busy time for 3 consecutive steps; trace truncation),
/// which land on the final `TrainReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Time barrier waits and attach health findings to the final
    /// `TrainReport`.
    pub enabled: bool,
}

impl MetricsConfig {
    /// Metrics disabled (the default).
    pub fn off() -> Self {
        Self { enabled: false }
    }

    /// Metrics enabled.
    pub fn on() -> Self {
        Self { enabled: true }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Opt-in periodic checkpointing (see [`crate::checkpoint`]).
///
/// Disabled by default. When off (`every_steps == 0`) the trainer's hot
/// path pays a single branch per step — no snapshot buffers are
/// allocated and no store is consulted. When on, every rank deposits a
/// bit-exact
/// [`crate::checkpoint::Checkpoint`] of its training state into the
/// run's [`crate::checkpoint::CheckpointStore`] every `every_steps`
/// global steps, retaining the most recent `keep_last` snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Snapshot cadence in global steps; `0` disables checkpointing.
    pub every_steps: u64,
    /// How many snapshots each rank retains (older ones are dropped).
    pub keep_last: usize,
}

impl CheckpointConfig {
    /// Checkpointing disabled (the default): zero steady-state cost.
    pub fn off() -> Self {
        Self {
            every_steps: 0,
            keep_last: 2,
        }
    }

    /// Checkpoint every `n` global steps at the default retention.
    pub fn every(n: u64) -> Self {
        Self {
            every_steps: n,
            ..Self::off()
        }
    }

    /// True when periodic checkpointing is active.
    pub fn enabled(&self) -> bool {
        self.every_steps > 0
    }
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Cluster-topology and rank-scheduling knobs.
///
/// The defaults reproduce the pre-topology trainer exactly: a flat ring
/// across all `G` GPUs, with a step's compute fanned out over every
/// core. Turning on `hierarchical` routes the dense-gradient ALLREDUCE
/// through the two-tier schedule (intra-node PCIe ring, inter-node
/// Infiniband ring between node leaders) — bit-identical results,
/// different wire accounting and α–β time. Setting `pool_workers`
/// bounds how many ranks *run* concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommConfig {
    /// GPUs per node: the group's one node size, read by tier
    /// attribution and every two-tier schedule; `0` resolves to the
    /// hardware preset's value (8 for the Table II Titan X cluster).
    pub gpus_per_node: usize,
    /// Run the gradient ALLREDUCEs and the unique path's index gather on
    /// their two-tier schedules over those nodes when the group spans
    /// several. Results are bit-identical to the flat schedules; only
    /// wire/time accounting moves.
    pub hierarchical: bool,
    /// At most this many ranks run at once: the lockstep driver fans a
    /// step's compute out over at most this many workers (`0` = the
    /// cores), never more than `std::thread::available_parallelism()`.
    pub pool_workers: usize,
    /// Overlap communication with compute in the step schedule: comm
    /// ops launch as soon as their payload is produced by the backward
    /// pass instead of after all compute finishes, and the step's
    /// simulated time becomes the critical path through the op DAG.
    /// Comm time hidden under compute lands in the
    /// `TimeAttribution::overlapped_ps` bucket. Results (params,
    /// losses) never change — only the modelled timeline does. Off by
    /// default: the serial schedule reproduces the pre-schedule step
    /// times bit-exactly.
    pub overlap: bool,
    /// Gradient-bucket size in bytes for the step schedule: dense
    /// gradients and the embedding exchanges' `Ug×D` payloads are split
    /// into buckets of at most this many wire bytes, each a separate
    /// collective op (paying its own latency term — finer buckets hide
    /// more comm under compute but cost more α). `0` = one bucket per
    /// payload (the legacy collectives, byte-for-byte).
    pub bucket_bytes: u64,
    /// Lossless wire codec for the collective payloads (ZipCCL-style;
    /// see [`simgpu::codec`]): delta+varint over the ALLGATHERed index
    /// lists and/or exponent-packing of the gradient ALLREDUCE rows.
    /// Results (losses, params, checkpoints) are bit-identical to
    /// [`simgpu::WireCodecId::Identity`] — only wire bytes and simulated
    /// time change. Composes with `Method::compression`: an FP16 wire is
    /// already its own (lossy) format, so the gradient codec then steps
    /// aside while the index codec keeps applying.
    pub codec: simgpu::WireCodecId,
    /// Barrier deadline policy: when set, a rank parked at a collective
    /// gives up after the bounded retry/backoff budget and the run
    /// fails with a typed timeout instead of hanging on a silent peer.
    /// `None` (the default) parks forever — correct whenever every
    /// failure announces itself through the abort flag, so a fault plan
    /// that hangs a rank is rejected without one.
    pub deadline: Option<simgpu::BarrierDeadline>,
}

impl CommConfig {
    /// Flat single-tier ring, unpooled — the legacy trainer behaviour.
    pub fn flat() -> Self {
        Self {
            gpus_per_node: 0,
            hierarchical: false,
            pool_workers: 0,
            overlap: false,
            bucket_bytes: 0,
            codec: simgpu::WireCodecId::Identity,
            deadline: None,
        }
    }

    /// Two-tier hierarchical collectives on the hardware preset's node
    /// size, with at most `pool_workers` ranks running at once.
    pub fn hierarchical_pooled(pool_workers: usize) -> Self {
        Self {
            hierarchical: true,
            pool_workers,
            ..Self::flat()
        }
    }

    /// Enables the overlapped step schedule with gradient buckets of at
    /// most `bucket_bytes` wire bytes (`0` = unbucketed payloads, which
    /// still overlap: a payload launches once its last byte is
    /// produced).
    pub fn overlapped(mut self, bucket_bytes: u64) -> Self {
        self.overlap = true;
        self.bucket_bytes = bucket_bytes;
        self
    }

    /// Selects a wire codec for the collective payloads.
    pub fn with_codec(mut self, codec: simgpu::WireCodecId) -> Self {
        self.codec = codec;
        self
    }
}

impl Default for CommConfig {
    fn default() -> Self {
        Self::flat()
    }
}

/// Everything `train` needs.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Model to train.
    pub model: ModelKind,
    /// Number of simulated GPUs `G`.
    pub gpus: usize,
    /// Sequences per GPU per step.
    pub batch: usize,
    /// Tokens per sequence (the paper's `c`).
    pub seq_len: usize,
    /// Steps per epoch; 0 = run the whole shard every epoch.
    pub steps_per_epoch: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Base learning rate, scaled by `ln(nodes)` (§IV-B,
    /// [`nn::optimizer::scaled_lr`]). `nodes` counts the world on nodes
    /// of the hardware preset's size
    /// ([`simgpu::HardwareConfig::gpus_per_node`]), not of
    /// [`CommConfig::gpus_per_node`], so a topology override never
    /// changes the rate.
    pub base_lr: f32,
    /// Per-epoch learning-rate decay (the paper uses 0.85–0.95).
    pub lr_decay: f32,
    /// Which of the paper's techniques to enable.
    pub method: Method,
    /// Master seed (corpus, init, sampling all derive from it).
    pub seed: u64,
    /// Synthetic corpus size in tokens.
    pub tokens: usize,
    /// Per-rank structured tracing (off by default — zero overhead).
    pub trace: TraceConfig,
    /// Fleet metrics: per-rank registries, step-time histograms and the
    /// straggler health monitor (off by default — zero overhead).
    pub metrics: MetricsConfig,
    /// Periodic bit-exact checkpointing (off by default — zero
    /// overhead; required for elastic recovery to restore progress).
    pub checkpoint: CheckpointConfig,
    /// Cluster topology and rank scheduling (flat + unpooled by
    /// default — identical to the pre-topology trainer).
    pub comm: CommConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            model: ModelKind::Word { vocab: 1000 },
            gpus: 2,
            batch: 4,
            seq_len: 10,
            steps_per_epoch: 10,
            epochs: 1,
            base_lr: 0.5,
            lr_decay: 0.95,
            method: Method::unique(),
            seed: 42,
            tokens: 50_000,
            trace: TraceConfig::off(),
            metrics: MetricsConfig::off(),
            checkpoint: CheckpointConfig::off(),
            comm: CommConfig::flat(),
        }
    }
}

impl TrainConfig {
    /// Local batch size `K` in tokens.
    pub fn local_batch_tokens(&self) -> usize {
        self.batch * self.seq_len
    }

    /// Global batch size `G·K` in tokens.
    pub fn global_batch_tokens(&self) -> usize {
        self.gpus * self.local_batch_tokens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_stack_is_cumulative() {
        let stack = TechniqueStack::all().map(Method::from);
        assert_eq!(stack.len(), 4);
        assert!(!stack[0].unique);
        assert!(stack[1].unique);
        assert_eq!(stack[1].seeding, SeedStrategy::PerGpu);
        assert_eq!(stack[2].seeding, SeedStrategy::ZipfFreq);
        assert!(stack[2].compression.is_none());
        assert!(stack[3].compression.is_some());
    }

    /// Figure 6's four bars, hand-typed once: each bar's label, its
    /// `Method` as `(unique, seeding, compression bits)` and its exchange
    /// as `(unique, compression bits, gpus_per_node, bucket_bytes, codec,
    /// gradient wire bytes per element)`. The table is not edited to
    /// follow the code: a change to what any bar turns on fails here.
    #[test]
    fn figure6_bars_characterisation() {
        use simgpu::WireCodecId::Identity;
        use SeedStrategy::{PerGpu, ZipfFreq};
        type MethodRow = (bool, SeedStrategy, Option<u32>);
        type ExchangeRow = (bool, Option<u32>, usize, u64, simgpu::WireCodecId, u64);
        const SCALE_512: u32 = 0x4400_0000;
        #[rustfmt::skip]
        let want: [(&str, MethodRow, ExchangeRow); 4] = [
            ("baseline",     (false, PerGpu,   None),            (false, None,            0, 0, Identity, 4)),
            ("+uniqueness",  (true,  PerGpu,   None),            (true,  None,            0, 0, Identity, 4)),
            ("+seeding",     (true,  ZipfFreq, None),            (true,  None,            0, 0, Identity, 4)),
            ("+compression", (true,  ZipfFreq, Some(SCALE_512)), (true,  Some(SCALE_512), 0, 0, Identity, 2)),
        ];
        let got: Vec<(&str, MethodRow, ExchangeRow)> = TechniqueStack::all()
            .into_iter()
            .map(|stack| {
                let (m, x) = (Method::from(stack), stack.exchange());
                (
                    stack.label(),
                    (m.unique, m.seeding, m.compression.map(f32::to_bits)),
                    (
                        x.unique,
                        x.compression.map(f32::to_bits),
                        x.gpus_per_node,
                        x.bucket_bytes,
                        x.codec,
                        x.grad_wire().elem_bytes(),
                    ),
                )
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn trace_defaults_off() {
        assert!(!TrainConfig::default().trace.enabled);
        assert_eq!(TraceConfig::default(), TraceConfig::off());
        assert!(TraceConfig::on().enabled);
    }

    #[test]
    fn metrics_defaults_off() {
        assert!(!TrainConfig::default().metrics.enabled);
        assert_eq!(MetricsConfig::default(), MetricsConfig::off());
        assert!(MetricsConfig::on().enabled);
    }

    #[test]
    fn checkpoint_defaults_off() {
        assert!(!TrainConfig::default().checkpoint.enabled());
        assert_eq!(CheckpointConfig::default(), CheckpointConfig::off());
        let every = CheckpointConfig::every(5);
        assert!(every.enabled());
        assert_eq!(every.every_steps, 5);
        assert_eq!(every.keep_last, CheckpointConfig::off().keep_last);
    }

    #[test]
    fn comm_defaults_flat_and_unpooled() {
        let d = TrainConfig::default().comm;
        assert_eq!(d, CommConfig::flat());
        assert!(!d.hierarchical);
        assert_eq!(d.pool_workers, 0);
        let hp = CommConfig::hierarchical_pooled(4);
        assert!(hp.hierarchical);
        assert_eq!(hp.pool_workers, 4);
        assert_eq!(hp.gpus_per_node, 0, "node size defers to the hw preset");
        assert!(!d.overlap, "overlap is opt-in");
        assert_eq!(d.bucket_bytes, 0);
        let ov = CommConfig::flat().overlapped(1 << 20);
        assert!(ov.overlap);
        assert_eq!(ov.bucket_bytes, 1 << 20);
        let hov = CommConfig::hierarchical_pooled(8).overlapped(0);
        assert!(hov.overlap && hov.hierarchical);
    }

    #[test]
    fn codec_defaults_identity_and_composes() {
        let d = TrainConfig::default().comm;
        assert_eq!(d.codec, simgpu::WireCodecId::Identity);
        assert!(d.codec.index_codec().is_none() && d.codec.grad_codec().is_none());
        let c = CommConfig::hierarchical_pooled(8)
            .overlapped(1 << 16)
            .with_codec(simgpu::WireCodecId::Lossless);
        assert!(c.hierarchical && c.overlap);
        assert_eq!(c.codec, simgpu::WireCodecId::Lossless);
        assert!(c.codec.index_codec().is_some() && c.codec.grad_codec().is_some());
    }

    #[test]
    fn paper_batch_arithmetic() {
        // §V-A: 16/32/64 GPUs with per-GPU batch 32 × seq 20 process
        // 10240/20480/40960 tokens per iteration.
        for (gpus, tokens) in [(16usize, 10_240usize), (32, 20_480), (64, 40_960)] {
            let cfg = TrainConfig {
                gpus,
                batch: 32,
                seq_len: 20,
                ..Default::default()
            };
            assert_eq!(cfg.global_batch_tokens(), tokens);
        }
    }

    #[test]
    fn flops_per_step_characterisation() {
        // Every model a workload or default trains, and the paper's
        // Table III / IV dimensions, at their local batches `K`. Each
        // count is an integer below 2⁵³, so any summation order gives
        // these bits.
        let word = |vocab, embed_dim, hidden, proj_dim, samples| {
            ModelKind::WordCustom(WordLmConfig {
                vocab,
                embed_dim,
                hidden,
                proj_dim,
                samples,
            })
        };
        let cases = [
            (word(4000, 64, 256, 64, 256), 320, 692_183_040.0),
            (word(20_000, 512, 4, 8, 8), 2048, 102_727_680.0),
            (ModelKind::Char { vocab: 48 }, 6, 663_552.0),
            (ModelKind::Word { vocab: 1000 }, 40, 6_888_960.0),
            (word(100_000, 512, 2048, 512, 1024), 640, 86_572_400_640.0),
            (
                ModelKind::CharCustom(CharLmConfig {
                    vocab: 98,
                    embed_dim: 1792,
                    hidden: 1792,
                    depth: 10,
                }),
                19_200,
                8_158_858_444_800.0,
            ),
        ];
        for (model, k, want) in cases {
            let got = model.flops_per_step(k);
            assert_eq!(
                got.to_bits(),
                f64::to_bits(want),
                "{model:?} at K {k}: {got}"
            );
        }
    }

    #[test]
    fn utilization_matches_paper() {
        assert_eq!(ModelKind::Word { vocab: 10 }.utilization(), 0.40);
        assert_eq!(ModelKind::Char { vocab: 10 }.utilization(), 0.64);
    }

    #[test]
    fn model_kind_resolution() {
        let w = ModelKind::Word { vocab: 500 };
        assert!(w.is_word());
        assert_eq!(w.word_config().vocab, 500);
        let c = ModelKind::Char { vocab: 98 };
        assert!(!c.is_word());
        assert_eq!(c.char_config().vocab, 98);
    }

    #[test]
    #[should_panic(expected = "not a word model")]
    fn char_kind_rejects_word_config() {
        ModelKind::Char { vocab: 98 }.word_config();
    }
}
