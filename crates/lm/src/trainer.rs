//! The distributed trainer: synchronous data-parallel SGD over simulated
//! GPUs, with the paper's exchange stack in the loop.
//!
//! One OS thread per simulated GPU (mirroring the paper's one-GPU-per-
//! MPI-process setup). Every step:
//!
//! 1. each rank draws its shard's next batch and runs forward/backward;
//! 2. dense gradients (LSTM/RHN + projection) are ring-ALLREDUCEd and
//!    averaged — the part vision models already do well (§II-B);
//! 3. the input-embedding sparse gradient crosses via the configured
//!    [`ExchangeConfig`] (baseline ALLGATHER vs uniqueness);
//! 4. word LMs also exchange the output-embedding gradient, whose
//!    candidate sets were drawn under the configured
//!    [`crate::seeding::SeedStrategy`];
//! 5. transient exchange buffers are charged against the simulated
//!    device memory (this is where the baseline OOMs, Tables III/IV);
//! 6. simulated wall-clock time is accumulated from the α–β cost model
//!    in integer picoseconds: every rank locally fills the same
//!    per-rank work table and takes the max (synchronous SGD), then
//!    splits its own share of that step time into the exact
//!    [`TimeAttribution`] buckets — compute, wire, barrier wait,
//!    injected skew, own delay.
//!
//! With `TrainConfig::trace` enabled, each rank additionally records a
//! [`simgpu::trace::TraceEvent`] per span (compute, collectives,
//! exchange phases, barrier waits, straggler delays) into a lock-free
//! ring buffer, returned as `TrainReport::trace` and exportable via
//! [`simgpu::chrome_trace_json`] / `TrainReport::steps_jsonl`.
//!
//! ## Failure model
//!
//! Any rank can fail at any point — an asymmetric OOM (per-rank memory
//! limits via [`simgpu::FaultPlan`]), an injected death, a panic. A
//! failing rank poisons the communicator ([`simgpu::Rank::abort`],
//! backed by a RAII [`simgpu::AbortOnDrop`] guard around the whole step
//! loop), so every surviving rank's next collective returns
//! `Err(CommError)` instead of deadlocking. That surfaces here as
//! [`TrainError::PeerFailure`] naming the first failed rank — within
//! one collective's latency, never an unbounded hang. Fault injection
//! (kill-at-step, stragglers, asymmetric limits) is threaded through
//! [`RunOptions::faults`]; symmetric-failure assumptions are gone.

use crate::checkpoint::{
    Checkpoint, CheckpointBackend, CheckpointMetrics, CheckpointStore, Fingerprint,
};
use crate::config::{DatasetId, ModelKind, TrainConfig};
use crate::elastic::{self, RecoveryPolicy};
use crate::eval::{char_valid_loss, word_valid_loss};
use crate::exchange::{exchange_and_apply_traced, ExchangeConfig, ExchangeScratch, ExchangeStats};
use crate::metrics::{
    self, EpochMetrics, HealthEvent, RecoveryEvent, RunTotals, StepMetrics, TimeAttribution,
    TrainReport,
};
use crate::schedule::{self, CommOp};
use corpus::{shard_batches, train_valid_split, BatchSpec, CorpusGenerator, TokenUnit, Vocab};
use nn::model::SeqBatch;
use nn::optimizer::scaled_lr;
use nn::{CharLm, WordLm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{
    secs_to_ps, CommError, CommGroup, CostModel, Device, FaultPlan, HardwareConfig, OomError, Rank,
    SimSpan, SimStream, SpanKind, TierCost, Topology, TraceRecorder, Wire,
};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Why a training run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// A simulated device ran out of memory (the paper's `*` entries).
    Oom(OomError),
    /// The corpus shard is too small for even one batch.
    DataTooSmall {
        /// Tokens available per GPU shard.
        shard_tokens: usize,
        /// Tokens needed for one step.
        needed: usize,
    },
    /// Another rank failed (OOM, injected death, panic) and poisoned
    /// the communicator; this rank observed the abort at a collective.
    PeerFailure {
        /// First rank that failed.
        rank: usize,
        /// Why that rank failed.
        reason: String,
    },
    /// The fault plan targets a rank outside the world, so the entry
    /// could never fire. Rejected eagerly (before any thread spawns)
    /// instead of silently no-opping.
    InvalidFaultPlan {
        /// Highest rank the plan targets.
        rank: usize,
        /// World size of the run.
        world: usize,
    },
    /// The configuration asks for something no rank could execute (zero
    /// GPUs, epochs, batch or sequence length, an empty char alphabet,
    /// a non-positive or non-finite FP16 compression scale). Rejected
    /// eagerly, before data generation or any thread spawn, instead of
    /// panicking.
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// The resume checkpoint does not belong to this run configuration
    /// (see [`crate::checkpoint::Checkpoint::validate_against`]).
    InvalidCheckpoint {
        /// Human-readable mismatch description.
        reason: String,
    },
    /// A barrier deadline expired: some peer went silent without
    /// aborting, and the group gave up waiting instead of hanging.
    /// Non-recoverable by elastic shrink — the hung rank cannot be
    /// attributed (any subset of the group may be silent) — but the run
    /// fails typed instead of deadlocking.
    Timeout {
        /// The rank that gave up waiting.
        rank: usize,
        /// Total simulated wait across all retry slices, picoseconds.
        waited_ps: u64,
    },
    /// Persisting a checkpoint failed with a real storage error (not an
    /// injected fault — those stay silent until the recovery scan).
    CheckpointWrite {
        /// What the backend reported.
        reason: String,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Oom(e) => write!(f, "{e}"),
            TrainError::DataTooSmall {
                shard_tokens,
                needed,
            } => write!(
                f,
                "shard too small: {shard_tokens} tokens, need at least {needed}"
            ),
            TrainError::PeerFailure { rank, reason } => {
                write!(f, "training aborted: rank {rank} failed ({reason})")
            }
            TrainError::InvalidFaultPlan { rank, world } => write!(
                f,
                "fault plan targets rank {rank} but the world has only {world} ranks"
            ),
            TrainError::InvalidConfig { reason } => {
                write!(f, "invalid training configuration: {reason}")
            }
            TrainError::InvalidCheckpoint { reason } => {
                write!(f, "cannot resume: {reason}")
            }
            TrainError::Timeout { rank, waited_ps } => write!(
                f,
                "training timed out: rank {rank} waited {waited_ps} ps for a silent peer"
            ),
            TrainError::CheckpointWrite { reason } => {
                write!(f, "checkpoint write failed: {reason}")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl From<CommError> for TrainError {
    fn from(e: CommError) -> Self {
        match e {
            CommError::Abort {
                failed_rank,
                reason,
            } => TrainError::PeerFailure {
                rank: failed_rank,
                reason,
            },
            CommError::Timeout { rank, waited_ps } => TrainError::Timeout { rank, waited_ps },
        }
    }
}

/// Maximum validation batches evaluated per epoch (the full validation
/// stream is used when it is smaller).
const EVAL_BATCHES: usize = 48;

/// Ring-buffer capacity of each rank's trace recorder: beyond this the
/// oldest events are overwritten (counted in the log's `dropped`).
const TRACE_EVENTS_PER_RANK: usize = 65_536;

/// How to run a [`TrainConfig`]. The default is a plain run:
/// unconstrained devices, no faults, no checkpoint store, from scratch,
/// first failure ends it.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Per-GPU simulated device capacity (a [`FaultPlan`] memory limit
    /// overrides it for that rank); cap it to reproduce the baseline's
    /// OOM cliffs (Tables III/IV) in miniature.
    pub gpu_mem_bytes: u64,
    /// Injected faults. A plan targeting a rank outside the world is
    /// rejected with [`TrainError::InvalidFaultPlan`] — such an entry
    /// could never fire.
    pub faults: FaultPlan,
    /// Where snapshots taken per `cfg.checkpoint` go. Every recovery
    /// round shares the backend, so a durable one (a
    /// [`crate::CheckpointDir`]) lets a later round — or process —
    /// restore what an earlier one persisted. `None` keeps each round's
    /// snapshots in memory when [`RunOptions::recovery`] is set, and
    /// attaches no store at all otherwise.
    pub checkpoints: Option<Arc<dyn CheckpointBackend>>,
    /// Start from this snapshot instead of from scratch. Its *world*
    /// may differ from `cfg.gpus` (the shrink-restore case); anything
    /// else that does not match `cfg` and the prepared data is
    /// [`TrainError::InvalidCheckpoint`] on every rank.
    pub resume: Option<Arc<Checkpoint>>,
    /// `Some` makes the run elastic: after a rank fails, shrink the
    /// world to the survivors, restore them from the newest snapshot
    /// they all hold intact, and go again — see [`crate::elastic`].
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            // Effectively unlimited, with headroom so the device
            // accountant's running sums cannot overflow.
            gpu_mem_bytes: u64::MAX / 4,
            faults: FaultPlan::none(),
            checkpoints: None,
            resume: None,
            recovery: None,
        }
    }
}

/// What a [`run`] produced: the last round's outcome on every rank,
/// plus the recovery history that led there.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every rank's own result of the last round (index = rank id in
    /// that round's world), never empty. A failed rank returns its
    /// *own* error (`Oom`, or `PeerFailure` naming itself for an
    /// injected kill); survivors return `PeerFailure` echoes naming the
    /// first failed rank. Rank 0's report carries the fleet rollup and
    /// the recovery history and findings.
    pub ranks: Vec<Result<TrainReport, TrainError>>,
    /// One entry per recovery round, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// World size the run started with.
    pub initial_world: usize,
    /// World size of the last round.
    pub final_world: usize,
    /// The bit-exact terminal snapshot (rank 0's), taken out of the
    /// store when one was attached and every rank completed.
    pub final_checkpoint: Option<Checkpoint>,
}

impl RunOutcome {
    /// Collapses the per-rank results into one: rank 0's report when
    /// every rank completed, otherwise *why* the run died rather than
    /// merely that a peer did. A concrete cause on any rank
    /// ([`TrainError::Oom`], [`TrainError::DataTooSmall`], an
    /// `Invalid*` rejection, [`TrainError::Timeout`],
    /// [`TrainError::CheckpointWrite`]) beats the killed rank's own
    /// [`TrainError::PeerFailure`], which beats the survivors' echoes
    /// of it; within a class the lowest rank wins.
    pub fn report(mut self) -> Result<TrainReport, TrainError> {
        let root_cause = self
            .ranks
            .iter()
            .enumerate()
            .filter_map(|(r, res)| res.as_ref().err().map(|e| (r, e)))
            .min_by_key(|&(r, e)| match e {
                TrainError::PeerFailure { rank, .. } if *rank == r => 1,
                TrainError::PeerFailure { .. } => 2,
                _ => 0,
            });
        match root_cause {
            Some((_, e)) => Err(e.clone()),
            None => self.ranks.swap_remove(0),
        }
    }
}

/// [`run`] with default options, collapsed to one report. Like
/// [`train_with_faults`], a one-line shim whose signature the pinned
/// `e2e/` benchmark holds in place.
pub fn train(cfg: &TrainConfig) -> Result<TrainReport, TrainError> {
    run(cfg, &RunOptions::default()).report()
}

/// [`run`] with a memory cap and a fault plan, returning the per-rank
/// results. Exists only because the pinned `e2e/` benchmark calls it;
/// in-repo code spells the options out.
pub fn train_with_faults(
    cfg: &TrainConfig,
    gpu_mem_bytes: u64,
    plan: &FaultPlan,
) -> Vec<Result<TrainReport, TrainError>> {
    let opts = RunOptions {
        gpu_mem_bytes,
        faults: plan.clone(),
        ..RunOptions::default()
    };
    run(cfg, &opts).ranks
}

/// Trains `cfg` under `opts` — the one way into the trainer.
///
/// One *round* runs the step loop on a thread per simulated GPU to
/// completion or to the first failure; a failing rank poisons the
/// communicator, so every survivor returns within one collective's
/// latency and every thread joins. Without [`RunOptions::recovery`]
/// that round is the run. With it, a failed round is followed by
/// another at the survivors' world, restored from the newest snapshot
/// they all hold intact (none ⇒ a fresh start), until a round
/// completes, the restart budget is spent, no rank survives, or a rank
/// reports a cause no shrink can fix.
///
/// Never panics on a caller-supplied `cfg`: what no rank could execute
/// is [`TrainError::InvalidConfig`] / [`TrainError::InvalidFaultPlan`]
/// on every rank, before data generation or any thread spawn.
pub fn run(cfg: &TrainConfig, opts: &RunOptions) -> RunOutcome {
    let mut outcome = RunOutcome {
        ranks: Vec::new(),
        recoveries: Vec::new(),
        initial_world: cfg.gpus,
        final_world: cfg.gpus,
        final_checkpoint: None,
    };
    if let Err(e) = validate(cfg, &opts.faults) {
        outcome.ranks = vec![Err(e); cfg.gpus.max(1)];
        return outcome;
    }
    let mut cfg = cfg.clone();
    let mut plan = opts.faults.clone();
    let mut resume = opts.resume.clone();
    let mut health: Vec<HealthEvent> = Vec::new();

    loop {
        // A backend is shared by every round, so what it holds
        // accumulates and survives the loop; memory-backed rounds each
        // get a fresh store (restore state travels via `resume`).
        let store = match (&opts.checkpoints, opts.recovery) {
            (Some(b), _) => Some(CheckpointStore::with_backend(cfg.gpus, Arc::clone(b))),
            (None, Some(_)) => Some(CheckpointStore::new(cfg.gpus, cfg.checkpoint.keep_last)),
            (None, None) => None,
        };
        let mut ranks = run_round(
            &cfg,
            opts.gpu_mem_bytes,
            &plan,
            store.as_ref(),
            resume.as_deref(),
        );
        let failure_observed = Instant::now();

        let failed = elastic::failed_ranks(&ranks);
        let survivors: Vec<usize> = (0..cfg.gpus).filter(|r| !failed.contains(r)).collect();
        let restart = outcome.recoveries.len() + 1;
        let next_round = opts.recovery.zip(store.as_ref()).filter(|(policy, _)| {
            !failed.is_empty() && !survivors.is_empty() && restart <= policy.max_restarts
        });
        let Some((policy, store)) = next_round else {
            if let Some(Ok(report)) = ranks.first_mut() {
                elastic::annotate_trace(report, &outcome.recoveries);
                report.recoveries = outcome.recoveries.clone();
                report.health.extend(health);
            }
            if ranks.iter().all(Result::is_ok) {
                outcome.final_checkpoint = store.and_then(|s| s.take_final());
            }
            outcome.final_world = cfg.gpus;
            outcome.ranks = ranks;
            return outcome;
        };

        let scan = store.scan(&survivors);
        for c in &scan.corrupt {
            health.push(HealthEvent::CheckpointCorrupt {
                rank: c.rank,
                step: c.step,
            });
        }
        health.push(HealthEvent::Recovery {
            round: restart,
            survivors: survivors.len(),
        });
        resume = scan.checkpoint.map(Arc::new);
        let restored_step = resume.as_ref().map(|c| c.step);
        outcome.recoveries.push(RecoveryEvent {
            restart,
            failed_ranks: failed,
            world_before: cfg.gpus,
            world_after: survivors.len(),
            restored_step,
            steps_lost: store
                .max_progress(&survivors)
                .saturating_sub(restored_step.unwrap_or(0)),
            stall_ns: u64::try_from(failure_observed.elapsed().as_nanos()).unwrap_or(u64::MAX),
            backoff_ps: elastic::simulated_backoff_ps(policy.backoff, restart),
            attempts: restart as u32,
            restored_from: resume.as_deref().cloned(),
        });
        plan = plan.remap_for_survivors(&survivors);
        cfg.gpus = survivors.len();
    }
}

/// What no rank could execute, as a typed error instead of a panic in
/// the caller's thread (zero ranks or epochs) or in every rank's (an
/// empty batch, a zero-symbol alphabet, a fault that could never fire,
/// a compression scale the collectives assert on).
fn validate(cfg: &TrainConfig, plan: &FaultPlan) -> Result<(), TrainError> {
    let invalid = |reason: String| Err(TrainError::InvalidConfig { reason });
    for (name, value) in [
        ("gpus", cfg.gpus),
        ("epochs", cfg.epochs),
        ("batch", cfg.batch),
        ("seq_len", cfg.seq_len),
    ] {
        if value == 0 {
            return invalid(format!("{name} must be at least 1"));
        }
    }
    if !cfg.model.is_word() && cfg.model.char_config().vocab == 0 {
        return invalid("char vocabulary must be at least 1".to_owned());
    }
    if let Some(rank) = plan.max_rank_targeted().filter(|&r| r >= cfg.gpus) {
        return Err(TrainError::InvalidFaultPlan {
            rank,
            world: cfg.gpus,
        });
    }
    match cfg.method.compression {
        Some(scale) if !(scale.is_finite() && scale > 0.0) => invalid(format!(
            "compression scale must be positive and finite, got {scale}"
        )),
        _ => Ok(()),
    }
}

/// What every rank thread of one round reads.
struct RunCtx<'a> {
    cfg: &'a TrainConfig,
    /// Effective model vocabulary (see [`prepare_data`]).
    model_vocab: usize,
    train_tokens: &'a [u32],
    valid_tokens: &'a [u32],
    cost: &'a CostModel,
    plan: &'a FaultPlan,
    store: Option<&'a CheckpointStore>,
    resume: Option<&'a Checkpoint>,
    /// The current step's table of every rank's critical path, priced
    /// by whichever rank gets to it first (see
    /// [`StepSchedule::price_all_shared`]).
    schedule_memo: Mutex<ScheduleMemo>,
}

/// One round: prepares the data, spawns `cfg.gpus` rank threads and
/// returns every rank's own result. `cfg` and `plan` passed
/// [`validate`].
fn run_round(
    cfg: &TrainConfig,
    gpu_mem_bytes: u64,
    plan: &FaultPlan,
    store: Option<&CheckpointStore>,
    resume: Option<&Checkpoint>,
) -> Vec<Result<TrainReport, TrainError>> {
    // Rejected before any thread spawns: every rank reports the cause.
    let reject = |e: TrainError| vec![Err(e); cfg.gpus];
    let (train_tokens, valid_tokens, model_vocab) = prepare_data(cfg);
    if let Some(Err(e)) = resume.map(|ck| ck.validate_against(cfg, model_vocab)) {
        return reject(TrainError::InvalidCheckpoint {
            reason: e.to_string(),
        });
    }
    let shard_tokens = train_tokens.len() / cfg.gpus;
    let needed = cfg.batch * (cfg.seq_len + 1);
    if shard_tokens < needed {
        return reject(TrainError::DataTooSmall {
            shard_tokens,
            needed,
        });
    }

    let cost = CostModel::new(HardwareConfig::titan_x_cluster(), cfg.model.utilization());
    let devices: Vec<Arc<Device>> = (0..cfg.gpus)
        .map(|i| Device::new(i, plan.mem_limit(i).unwrap_or(gpu_mem_bytes)))
        .collect();
    // Topology: `comm.gpus_per_node == 0` defers to the hardware preset
    // (8 for the Table II cluster). The node layout only moves bytes
    // between the recorder's intra/inter tier buckets and selects the
    // hierarchical wire schedule — it never changes results. A nonzero
    // `pool_workers` additionally bounds how many rank threads run
    // concurrently (see `simgpu::RunGate`), which is what lets
    // paper-scale worlds of 48–192 ranks train on a small machine.
    let gpn = if cfg.comm.gpus_per_node == 0 {
        cost.hardware().gpus_per_node
    } else {
        cfg.comm.gpus_per_node
    };
    let ranks = CommGroup::create_full(cfg.gpus, gpn, cfg.comm.pool_workers, cfg.comm.deadline);

    let ctx = RunCtx {
        cfg,
        model_vocab,
        train_tokens: &train_tokens,
        valid_tokens: &valid_tokens,
        cost: &cost,
        plan,
        store,
        resume,
        schedule_memo: Mutex::new(ScheduleMemo::new(cfg.gpus)),
    };
    let mut results: Vec<Result<TrainReport, TrainError>> = simgpu::run_ranks(ranks, |rank| {
        let device = Arc::clone(&devices[rank.rank()]);
        run_rank(rank, device, &ctx)
    });

    let peak_mem = devices.iter().map(|d| d.peak()).max().unwrap_or(0);
    for report in results.iter_mut().flatten() {
        report.peak_mem_bytes = peak_mem;
        report.gpus = cfg.gpus;
    }
    if cfg.metrics.enabled {
        let device_peaks: Vec<u64> = devices.iter().map(|d| d.peak()).collect();
        stamp_fleet_metrics(&mut results, &device_peaks);
    }
    results
}

/// Fleet metrics for one joined round, all of it folds over the ranks'
/// step records: the one straggler list (it needs every rank's busy
/// time, so a round with a failed rank has none), each rank's registry
/// (`device_peaks[r]` is rank `r`'s device high-water mark) and
/// trace-truncation finding, and — onto rank 0's report, so one report
/// answers for the whole world — the registries merged (exact — see
/// `simgpu::metrics`) and the other ranks' findings.
fn stamp_fleet_metrics(results: &mut [Result<TrainReport, TrainError>], device_peaks: &[u64]) {
    let records: Option<Vec<&[StepMetrics]>> = results
        .iter()
        .map(|res| res.as_ref().ok().map(|rep| rep.steps.as_slice()))
        .collect();
    let stragglers = records.map_or_else(Vec::new, |r| metrics::stragglers(&r));
    let mut fleet = simgpu::MetricsRegistry::new();
    let mut truncated_peers: Vec<HealthEvent> = Vec::new();
    for (r, res) in results.iter_mut().enumerate() {
        let Ok(rep) = res else { continue };
        let registry = rep.registry(device_peaks[r]);
        fleet.merge(&registry);
        rep.metrics = Some(registry);
        rep.health = stragglers.clone();
        let dropped = rep.dropped_spans();
        if dropped > 0 {
            let finding = HealthEvent::TraceTruncated { rank: r, dropped };
            if r > 0 {
                truncated_peers.push(finding.clone());
            }
            rep.health.push(finding);
        }
    }
    if let Some(Ok(rep0)) = results.first_mut() {
        rep0.fleet_metrics = Some(fleet);
        rep0.health.extend(truncated_peers);
    }
}

/// Sequential-structure strength of the synthetic corpora: with this
/// probability a token is the deterministic successor of its context
/// (see `corpus::CorpusGenerator::with_structure`). Nonzero so that
/// "more data ⇒ better perplexity" holds, as on real text.
const STRUCTURE_LAMBDA: f64 = 0.5;

/// Generates and splits the corpus; returns the effective model
/// vocabulary (word LMs may shrink if the corpus has fewer types than
/// requested).
fn prepare_data(cfg: &TrainConfig) -> (Vec<u32>, Vec<u32>, usize) {
    match cfg.model {
        ModelKind::Word { .. } | ModelKind::WordCustom(_) => {
            let requested = cfg.model.word_config().vocab;
            let profile = DatasetId::OneBillion.profile();
            let mut gen = CorpusGenerator::new(&profile, TokenUnit::Word, cfg.seed)
                .with_structure(STRUCTURE_LAMBDA);
            let raw = gen.generate(cfg.tokens);
            let vocab = Vocab::build(&raw, requested.saturating_sub(1).max(1));
            let encoded = vocab.encode(&raw);
            let (train, valid) = train_valid_split(&encoded, 100, cfg.seed ^ SPLIT_SEED);
            (train, valid, vocab.size())
        }
        ModelKind::Char { .. } | ModelKind::CharCustom(_) => {
            let vocab = cfg.model.char_config().vocab;
            let mut profile = if vocab > 1000 {
                DatasetId::Tieba.profile()
            } else {
                DatasetId::OneBillion.profile()
            };
            profile.char_types = vocab;
            let mut gen = CorpusGenerator::new(&profile, TokenUnit::Char, cfg.seed)
                .with_structure(STRUCTURE_LAMBDA);
            let raw = gen.generate(cfg.tokens);
            let (train, valid) = train_valid_split(&raw, 100, cfg.seed ^ SPLIT_SEED);
            (train, valid, vocab)
        }
    }
}

/// One rank's training replica: either model kind behind one interface.
enum Replica {
    Word(WordLm),
    Char(CharLm),
}

struct StepOutcome {
    loss: f64,
    dense: Vec<f32>,
    input_grad: nn::SparseGrad,
    output_grad: Option<nn::SparseGrad>,
}

impl Replica {
    fn new(cfg: &TrainConfig, model_vocab: usize) -> Self {
        match cfg.model {
            ModelKind::Word { .. } | ModelKind::WordCustom(_) => {
                let mut mc = cfg.model.word_config();
                mc.vocab = model_vocab;
                mc.samples = mc.samples.min(model_vocab / 2).max(1);
                Replica::Word(WordLm::new(cfg.seed, mc))
            }
            ModelKind::Char { .. } | ModelKind::CharCustom(_) => {
                Replica::Char(CharLm::new(cfg.seed, cfg.model.char_config()))
            }
        }
    }

    fn step(&self, batch: &SeqBatch, sample_seed: u64) -> StepOutcome {
        match self {
            Replica::Word(m) => {
                let mut rng = StdRng::seed_from_u64(sample_seed);
                let g = m.forward_backward(batch, &mut rng);
                StepOutcome {
                    loss: g.loss,
                    dense: g.dense,
                    input_grad: g.input_grad,
                    output_grad: Some(g.output_grad),
                }
            }
            Replica::Char(m) => {
                let g = m.forward_backward(batch);
                StepOutcome {
                    loss: g.loss,
                    dense: g.dense,
                    input_grad: g.input_grad,
                    output_grad: None,
                }
            }
        }
    }

    fn apply_dense(&mut self, flat: &[f32], lr: f32) {
        match self {
            Replica::Word(m) => m.apply_dense(flat, lr),
            Replica::Char(m) => m.apply_dense(flat, lr),
        }
    }

    fn input_table(&mut self) -> &mut nn::Embedding {
        match self {
            Replica::Word(m) => m.input_embedding_mut(),
            Replica::Char(m) => m.input_embedding_mut(),
        }
    }

    fn output_table(&mut self) -> Option<&mut nn::Embedding> {
        match self {
            Replica::Word(m) => Some(m.output_embedding_mut()),
            Replica::Char(_) => None,
        }
    }

    fn embed_dim(&self) -> usize {
        match self {
            Replica::Word(m) => m.config().embed_dim,
            Replica::Char(m) => m.config().embed_dim,
        }
    }

    fn param_vector_len(&self) -> usize {
        match self {
            Replica::Word(m) => m.param_vector_len(),
            Replica::Char(m) => m.param_vector_len(),
        }
    }

    fn param_bytes(&self) -> u64 {
        // Parameters + gradients + optimizer scratch, FP32.
        (self.param_vector_len() as u64) * 4 * 3
    }

    fn valid_loss(&self, tokens: &[u32], batch: usize, seq_len: usize) -> f64 {
        match self {
            Replica::Word(m) => word_valid_loss(m, tokens, batch, seq_len, EVAL_BATCHES),
            Replica::Char(m) => char_valid_loss(m, tokens, batch, seq_len, EVAL_BATCHES),
        }
    }

    fn param_vector(&self) -> Vec<f32> {
        match self {
            Replica::Word(m) => m.param_vector(),
            Replica::Char(m) => m.param_vector(),
        }
    }

    fn load_param_vector(&mut self, flat: &[f32]) {
        match self {
            Replica::Word(m) => m.load_param_vector(flat),
            Replica::Char(m) => m.load_param_vector(flat),
        }
    }
}

/// One rank's step-loop state: what a snapshot captures and a resume
/// restores.
struct LoopState {
    replica: Replica,
    /// The exact learning rate in effect (decayed per epoch).
    lr: f32,
    global_step: u64,
    report: TrainReport,
    /// Run totals at the resume point (zero on a fresh start); the
    /// totals now are this plus the fold over `report.steps`.
    base: RunTotals,
}

impl LoopState {
    /// The run totals so far: *resume base + Σ steps*.
    fn totals(&self, cfg: &TrainConfig) -> RunTotals {
        self.base.plus(&self.report.steps, cfg.method.unique)
    }

    /// Builds a bit-exact snapshot at a step boundary, `step_in_epoch`
    /// steps into `epoch` with that epoch's partial loss and simulated
    /// time. Only deterministic quantities are captured — see the
    /// module docs of [`crate::checkpoint`] for what is deliberately
    /// excluded.
    fn snapshot(
        &self,
        ctx: &RunCtx,
        rank: usize,
        epoch: u32,
        step_in_epoch: u64,
        epoch_loss: f64,
        epoch_time_ps: u64,
    ) -> Checkpoint {
        let totals = self.totals(ctx.cfg);
        Checkpoint {
            world: ctx.cfg.gpus as u32,
            rank: rank as u32,
            step: self.global_step,
            epoch,
            step_in_epoch,
            lr: self.lr,
            fingerprint: Fingerprint::of(ctx.cfg, ctx.model_vocab),
            params: self.replica.param_vector(),
            metrics: CheckpointMetrics {
                epochs: self.report.epochs.clone(),
                epoch_loss,
                epoch_time_ps,
                unique_sum: totals.unique_sum,
                unique_count: totals.unique_count,
                attribution: totals.attribution,
            },
        }
    }
}

/// The step's op schedule, priced for any rank — the rank-invariant
/// inputs of the local, communication-free step-time model.
///
/// Every rank constructs the *same* `StepSchedule` (payload sizes are
/// rank-invariant: `local_tokens` is `batch·seq_len` (+ samples) on
/// every rank and `unique_global` is synchronised by construction),
/// and pricing and evaluating every rank `q`'s op list via
/// [`Self::ops_for`] + [`schedule::evaluate`] is pure arithmetic on it —
/// so all ranks derive the same synchronous step time
/// `T = max_q critical_path(q)` without any extra simulated
/// communication. Since the table is the same everywhere, the ranks of
/// a round price it once per step between them
/// ([`Self::price_all_shared`]), not once each.
///
/// Launch order is readiness order: the unique path's index
/// ALLGATHERs first (ready at 0 — the token indices are known the
/// moment the batch loads), then the gradient-dependent ops in
/// production order — dense ALLREDUCE buckets, input-exchange `Ug×D`
/// ALLREDUCE buckets, output exchange likewise. Readiness follows the
/// uniform gradient-production model ([`schedule::ready_at`]): the
/// backward pass emits the step's gradient elements at a constant rate
/// over `compute_ps` in call order, so bucket `i` of a payload becomes
/// ready when its last element exists. With `overlap` off every op is
/// pinned ready at `compute_ps`, op order stops mattering (the
/// evaluation degenerates to the serial sum), and
/// [`schedule::evaluate`] reproduces the legacy serial
/// `compute + wire + touch` sum bit for bit.
struct StepSchedule<'a> {
    cost: &'a CostModel,
    xcfg: &'a ExchangeConfig,
    gpus: usize,
    /// Resolved node layout (the tier the recorder buckets by).
    gpn: usize,
    overlap: bool,
    /// Wire format of every gradient ALLREDUCE. Under a codec, wire
    /// bytes scale by the measured enc/raw ratio of each payload and
    /// the encode+decode compute is priced via
    /// [`CostModel::codec_time`].
    wire: Wire<'static>,
    /// What this step's dense ALLREDUCE put on the wire (`enc == raw`
    /// when no codec is active).
    dense_wire: schedule::ReducedBytes,
    compute_ps: u64,
    dense_elems: usize,
    in_stats: ExchangeStats,
    dim: usize,
    out_stats: Option<ExchangeStats>,
    out_dim: usize,
    /// Total gradient elements produced by the backward pass (dense +
    /// both exchanges' payloads) — the denominator of the production
    /// model.
    total_grad_elems: u64,
}

/// What [`StepSchedule::ops_for`] reads of one exchange's stats, all of
/// it synchronised across ranks: `local_tokens`, `unique_global`,
/// `index_enc_bytes`, `reduce_enc_bytes`, `reduce_raw_bytes`. The rest
/// of [`ExchangeStats`] (`timings`, local counts) differs per rank and
/// prices nothing.
type ExchangeKey = [u64; 5];

fn exchange_key(stats: &ExchangeStats) -> ExchangeKey {
    [
        stats.local_tokens as u64,
        stats.unique_global as u64,
        stats.index_enc_bytes,
        stats.reduce_enc_bytes,
        stats.reduce_raw_bytes,
    ]
}

/// The step and every per-step input of [`StepSchedule::ops_for`]. The
/// schedule's remaining fields (`cost`, `xcfg`, `gpus`, `gpn`,
/// `overlap`, `wire`) are fixed for a round, which is also the lifetime
/// of a [`ScheduleMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScheduleKey {
    global_step: u64,
    compute_ps: u64,
    dense_elems: usize,
    dense_wire: (u64, u64),
    in_stats: ExchangeKey,
    dim: usize,
    out_stats: Option<ExchangeKey>,
    out_dim: usize,
    total_grad_elems: u64,
}

/// Every rank's critical path for the step `key` names; `key` is unset
/// while `work_ps` is being written.
#[derive(Debug)]
struct ScheduleMemo {
    key: Option<ScheduleKey>,
    work_ps: Vec<u64>,
}

impl ScheduleMemo {
    /// An empty memo for a round of `gpus` ranks. The table is sized
    /// here, by the driver thread before the ranks spawn: allocated
    /// lazily by the first rank to price a step it lived in that
    /// thread's malloc arena and cost `word_exchange_full_g8` ≈10 MB of
    /// peak RSS (10/10 runs).
    fn new(gpus: usize) -> Self {
        ScheduleMemo {
            key: None,
            work_ps: vec![0; gpus],
        }
    }
}

impl StepSchedule<'_> {
    fn key(&self, global_step: u64) -> ScheduleKey {
        ScheduleKey {
            global_step,
            compute_ps: self.compute_ps,
            dense_elems: self.dense_elems,
            dense_wire: (self.dense_wire.enc, self.dense_wire.raw),
            in_stats: exchange_key(&self.in_stats),
            dim: self.dim,
            out_stats: self.out_stats.as_ref().map(exchange_key),
            out_dim: self.out_dim,
            total_grad_elems: self.total_grad_elems,
        }
    }

    /// Prices and evaluates every rank's op list: `work_ps[q]` becomes
    /// rank `q`'s critical path this step.
    fn price_all(&self, ops: &mut Vec<CommOp>, work_ps: &mut [u64]) {
        for (q, w) in work_ps.iter_mut().enumerate() {
            let (apply_ps, _) = self.ops_for(ops, q, false);
            *w = schedule::evaluate(self.compute_ps, apply_ps, ops).total_ps;
        }
    }

    /// [`Self::price_all`], once per step instead of once per rank:
    /// every rank arrives at the same table, so the first to get here
    /// prices it into `memo` and the others copy it. A rank whose key
    /// differs — its inputs were not the first arriver's, which the
    /// synchronised stats rule out — prices its own table from its own
    /// inputs, so a hit never decides a result. The lock is held only
    /// while pricing or copying, never across a collective: a rank that
    /// dies or hangs cannot strand a peer on it.
    fn price_all_shared(
        &self,
        memo: &Mutex<ScheduleMemo>,
        global_step: u64,
        ops: &mut Vec<CommOp>,
        work_ps: &mut [u64],
    ) {
        let key = self.key(global_step);
        let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.key != Some(key) {
            memo.key = None;
            self.price_all(ops, &mut memo.work_ps);
            memo.key = Some(key);
        }
        work_ps.copy_from_slice(&memo.work_ps);
    }

    /// Gradient elements an exchange's collective payload carries (the
    /// production-model weight of that exchange).
    fn exchange_grad_elems(xcfg: &ExchangeConfig, stats: &ExchangeStats, dim: usize) -> usize {
        if xcfg.unique {
            stats.unique_global * dim
        } else {
            stats.local_tokens * dim
        }
    }

    /// Ready time of a gradient payload whose last element is the
    /// `cum_elems`-th produced this step; pinned to `compute_ps` when
    /// overlap is off (serial schedule).
    fn grad_ready(&self, cum_elems: u64) -> u64 {
        if self.overlap {
            schedule::ready_at(self.compute_ps, cum_elems * 4, self.total_grad_elems * 4)
        } else {
            self.compute_ps
        }
    }

    /// Scales identity wire bytes by a payload's measured enc/raw
    /// codec ratio in exact integer arithmetic (`u128` — no rounding
    /// drift across ranks, and a byte-exact no-op when `enc == raw`).
    fn scaled(bytes: u64, enc: u64, raw: u64) -> u64 {
        if raw == 0 || enc == raw {
            bytes
        } else {
            ((bytes as u128 * enc as u128) / raw as u128) as u64
        }
    }

    /// Picoseconds a wire codec spends on `raw_bytes` of payload — zero
    /// without one. Codecs run on-node before the NIC, so callers add
    /// this to an op's intra tier.
    fn codec_ps(&self, codec: Option<&dyn simgpu::WireCodec>, raw_bytes: u64) -> u64 {
        codec.map_or(0, |c| {
            secs_to_ps(self.cost.codec_time(raw_bytes, c.throughput_bps()))
        })
    }

    /// Appends one unique exchange's index ALLGATHER, priced under the
    /// config's topology like the ALLREDUCEs, so a hierarchical run's
    /// collectives agree about which peers are node-local. The indices
    /// are known the moment the batch loads, so with overlap on the op
    /// is ready at 0 — which is also why [`Self::ops_for`] launches
    /// these *first*: they are the only ops that can cover the head of
    /// the compute window, before any gradient exists.
    fn push_index_gather(&self, w: &mut Walk, stats: &ExchangeStats, label: &'static str) {
        // With an index codec each rank publishes its encoded frame;
        // pricing uses the synchronized mean frame (`index_enc_bytes`
        // is the Σ over ranks, identical everywhere), scaled in exact
        // integer math so identity stays bit-for-bit the legacy price.
        let raw = stats.local_tokens as u64 * 4;
        let bytes = Self::scaled(raw, stats.index_enc_bytes, raw * self.gpus as u64);
        let price = self
            .cost
            .allgather(bytes, self.gpus, self.gpn, self.xcfg.topology(), w.q);
        // One encode over the own frame + G decodes of gathered
        // frames — (G+1)·K·4 raw bytes through the codec kernel.
        let codec_ps = self.codec_ps(self.xcfg.codec.index_codec(), (self.gpus as u64 + 1) * raw);
        let ready_ps = if self.overlap { 0 } else { self.compute_ps };
        w.push(label, 0, price, codec_ps, ready_ps);
    }

    /// Appends one op per gradient bucket of an `n`-element ALLREDUCE
    /// payload — the same [`schedule::buckets`] walk the collectives
    /// took, each bucket priced on the rank's exact per-tier bytes
    /// under the config's topology — advancing the gradient production
    /// cursor. With a codec the identity byte counts shrink by the
    /// payload's measured `(enc, raw)` ratio (1 exactly when no codec
    /// is active) and the encode+decode passes (one over sent chunks,
    /// one over received — ≈ 2× the identity send volume) are charged
    /// as codec time.
    fn push_allreduce_buckets(
        &self,
        w: &mut Walk,
        label: &'static str,
        n: usize,
        (enc, raw): (u64, u64),
    ) {
        let (elem, topology) = (self.wire.elem_bytes(), self.xcfg.topology());
        let walk = schedule::buckets(n, elem, self.xcfg.bucket_bytes);
        for (bucket, range) in walk.enumerate() {
            let ident =
                simgpu::allreduce_send_bytes(range.len(), self.gpus, self.gpn, topology, w.q, elem);
            let sent = simgpu::TierBytes {
                intra: Self::scaled(ident.intra, enc, raw),
                inter: Self::scaled(ident.inter, enc, raw),
            };
            let price = self
                .cost
                .allreduce(sent, self.gpus, self.gpn, topology, w.q);
            let codec_ps = self.codec_ps(self.wire.codec(), 2 * ident.total());
            w.cum += range.len() as u64;
            w.push(
                label,
                bucket as u32,
                price,
                codec_ps,
                self.grad_ready(w.cum),
            );
        }
    }

    /// Appends one exchange's gradient-dependent ops (advancing the
    /// gradient production cursor) and returns its local memory-touch
    /// (apply) picoseconds. The unique path's index ALLGATHER is *not*
    /// emitted here — see [`Self::push_index_gather`].
    fn push_exchange_ops(
        &self,
        w: &mut Walk,
        stats: &ExchangeStats,
        dim: usize,
        (gather_label, reduce_label): (&'static str, &'static str),
    ) -> u64 {
        let rows = if self.xcfg.unique {
            // Ug×D ALLREDUCE gradient buckets.
            self.push_allreduce_buckets(
                w,
                reduce_label,
                stats.unique_global * dim,
                (stats.reduce_enc_bytes, stats.reduce_raw_bytes),
            );
            stats.unique_global
        } else {
            // Baseline: one dense ALLGATHER of K×D rows + indices, on
            // the flat ring whatever the config's topology — the
            // payload *is* the gradient, so it is ready only once its
            // rows are produced — then a Θ(G·K·D) local update touch.
            w.cum += (stats.local_tokens * dim) as u64;
            let bytes = stats.local_tokens as u64 * (dim as u64 * self.wire.elem_bytes() + 4);
            let price = self
                .cost
                .allgather(bytes, self.gpus, self.gpn, Topology::Flat, w.q);
            w.push(gather_label, 0, price, 0, self.grad_ready(w.cum));
            self.gpus * stats.local_tokens
        };
        secs_to_ps(self.cost.memory_touch_time(rows as u64 * dim as u64 * 4))
    }

    /// Rebuilds `ops` with rank `q`'s full op list for this step, in
    /// program order, and returns `q`'s apply (memory-touch)
    /// picoseconds — the inputs of [`schedule::evaluate`] — and, for
    /// the `own` rank, the α of the ops it priced as `[intra, inter]`
    /// (zero otherwise: a peer's α is never quantised). `ops` is a
    /// caller-hoisted buffer so the steady-state loop stays
    /// allocation-free.
    fn ops_for(&self, ops: &mut Vec<CommOp>, q: usize, own: bool) -> (u64, [u64; 2]) {
        ops.clear();
        let mut w = Walk {
            q,
            ops,
            cum: 0,
            alpha_ps: own.then_some([0; 2]),
        };
        // Unique-path index ALLGATHERs launch first: ready at batch
        // load, they are the only comm the schedule can run before the
        // backward pass produces its first gradient bucket. (Baseline
        // ALLGATHERs carry the gradient rows themselves and stay in
        // production order below.)
        if self.xcfg.unique {
            self.push_index_gather(&mut w, &self.in_stats, "in_allgather");
            if let Some(stats) = &self.out_stats {
                self.push_index_gather(&mut w, stats, "out_allgather");
            }
        }
        // Dense gradient buckets (LSTM/RHN + projection).
        self.push_allreduce_buckets(
            &mut w,
            "dense_allreduce",
            self.dense_elems,
            (self.dense_wire.enc, self.dense_wire.raw),
        );
        let labels = ("in_allgather", "in_grad_allreduce");
        let mut apply = self.push_exchange_ops(&mut w, &self.in_stats, self.dim, labels);
        if let Some(stats) = &self.out_stats {
            let labels = ("out_allgather", "out_grad_allreduce");
            apply += self.push_exchange_ops(&mut w, stats, self.out_dim, labels);
        }
        debug_assert_eq!(w.cum, self.total_grad_elems);
        (apply, w.alpha_ps.unwrap_or_default())
    }
}

/// One rank's walk over a step's collectives, in program order.
struct Walk<'a> {
    /// The rank being priced.
    q: usize,
    ops: &'a mut Vec<CommOp>,
    /// Gradient elements produced up to the last op pushed.
    cum: u64,
    /// Σ α of the ops pushed, `[intra, inter]` — kept for the own rank
    /// only.
    alpha_ps: Option<[u64; 2]>,
}

impl Walk<'_> {
    /// Appends one priced collective: each tier's α + β quantised as
    /// one term is the op's time on that tier (`codec_ps` joins the
    /// intra tier), its α quantised on its own joins the α account.
    fn push(
        &mut self,
        label: &'static str,
        bucket: u32,
        price: TierCost,
        codec_ps: u64,
        ready_ps: u64,
    ) {
        if let Some([intra, inter]) = &mut self.alpha_ps {
            *intra += price.intra.alpha_ps();
            *inter += price.inter.alpha_ps();
        }
        self.ops.push(CommOp {
            label,
            bucket,
            intra_ps: price.intra.wire_ps() + codec_ps,
            inter_ps: price.inter.wire_ps(),
            ready_ps,
        });
    }
}

fn run_rank(mut rank: Rank, device: Arc<Device>, ctx: &RunCtx) -> Result<TrainReport, TrainError> {
    let &RunCtx {
        cfg,
        train_tokens,
        valid_tokens,
        cost,
        plan,
        ..
    } = ctx;
    let spec = BatchSpec {
        batch: cfg.batch,
        seq_len: cfg.seq_len,
    };
    let g = cfg.gpus;
    let r = rank.rank();
    let is_rank0 = r == 0;
    // The rank's group carries the resolved node layout; the exchange
    // config inherits it only when the hierarchical schedule is on, so
    // `comm.hierarchical = false` keeps every collective on the flat
    // ring regardless of topology.
    let gpn = rank.gpus_per_node();
    let xcfg = ExchangeConfig {
        unique: cfg.method.unique,
        compression: cfg.method.compression,
        gpus_per_node: if cfg.comm.hierarchical { gpn } else { 0 },
        bucket_bytes: cfg.comm.bucket_bytes,
        codec: cfg.comm.codec,
    };
    let hw_gpus_per_node = cost.hardware().gpus_per_node;
    // LR scaling stays a property of the hardware preset, not of the
    // topology override — topology must never change results.
    let mut st = LoopState {
        replica: Replica::new(cfg, ctx.model_vocab),
        lr: scaled_lr(cfg.base_lr, g, hw_gpus_per_node),
        global_step: 0,
        report: TrainReport::default(),
        base: RunTotals::default(),
    };

    // Opt-in tracing: a per-rank ring recorder. When disabled, nothing
    // here allocates and every hot-path trace site is one `None`
    // branch. Tracing and fleet metrics both read the step's
    // barrier-wait wall time, so either turns the communicator's wait
    // accounting on (before the abort guard borrows `rank`).
    let mut recorder = cfg
        .trace
        .enabled
        .then(|| TraceRecorder::new(r as u32, TRACE_EVENTS_PER_RANK));
    let track_waits = cfg.trace.enabled || cfg.metrics.enabled;
    if track_waits {
        rank.enable_wait_tracking();
    }

    // Safety net: if this rank unwinds (an `?` below, a panic in the
    // model code) the armed guard poisons the group, so peers error out
    // of their next collective instead of hanging. Known failure sites
    // additionally abort with a precise reason first — first failure
    // wins, so the guard's generic reason only surfaces for surprises.
    let guard = rank.abort_on_drop(format!("rank {r} exited the step loop early"));

    // Persistent model memory.
    let _model_alloc = device.try_alloc(st.replica.param_bytes()).map_err(|e| {
        rank.abort(format!("rank {r} OOM on model parameters: {e}"));
        TrainError::Oom(e)
    })?;

    // Resume: restore parameters, counters, the exact learning rate and
    // every deterministic metric accumulator from the snapshot. No RNG
    // state exists to restore — the corpus/split were regenerated above
    // from `cfg.seed`, and sampled-softmax streams are re-seeded from
    // `global_step` each step — so from here the run is bit-identical
    // to one that never stopped (asserted in `tests/elastic_recovery.rs`).
    // Per-step telemetry (`TrainReport::steps`, traffic, traces) restarts at
    // the resume point by design; it is wall-clock or run-local.
    let mut start_epoch = 0usize;
    let mut resume_skip = 0usize;
    let mut resume_epoch_loss = 0.0f64;
    let mut resume_epoch_time_ps = 0u64;
    if let Some(ck) = ctx.resume {
        // The fingerprint pins the dimensions, not the flat layout's
        // length: a snapshot written under another layout (or built by
        // hand — `Checkpoint`'s fields are public) is refused here, by
        // the same count the snapshot was taken with, not by the
        // loader's assert.
        let (have, want) = (ck.params.len(), st.replica.param_vector_len());
        if have != want {
            let reason = format!(
                "checkpoint holds {have} parameters, this configuration's model has {want}"
            );
            rank.abort(reason.clone());
            return Err(TrainError::InvalidCheckpoint { reason });
        }
        st.replica.load_param_vector(&ck.params);
        st.lr = ck.lr;
        st.global_step = ck.step;
        start_epoch = ck.epoch as usize;
        resume_skip = ck.step_in_epoch as usize;
        resume_epoch_loss = ck.metrics.epoch_loss;
        resume_epoch_time_ps = ck.metrics.epoch_time_ps;
        st.report.epochs = ck.metrics.epochs.clone();
        st.base = RunTotals {
            attribution: ck.metrics.attribution,
            unique_sum: ck.metrics.unique_sum,
            unique_count: ck.metrics.unique_count,
        };
    }
    // Per-table scratch pools: after the first step every exchange runs
    // allocation-free on reused buffers.
    let mut in_scratch = ExchangeScratch::new();
    let mut out_scratch = ExchangeScratch::new();

    // Step-time model table, hoisted so the loop stays allocation-free:
    // every rank holds every rank's modelled work (see `StepSchedule`),
    // takes the max, and so derives the *same* synchronous step time
    // without any extra simulated communication.
    let mut work_ps: Vec<u64> = vec![0; g];
    // Hoisted op buffer for the schedule evaluation (cleared and
    // rebuilt per priced rank — capacity persists, so the loop stays
    // allocation-free once warm).
    let mut ops: Vec<CommOp> = Vec::new();
    // Cumulative simulated time — the base offset of this step's spans
    // on the simulated timeline (`TrainReport::sim_spans`).
    let mut sim_clock_ps: u64 = 0;
    let delay_ps: Vec<u64> = (0..g)
        .map(|q| {
            plan.straggler_delay(q).map_or(0, |d| {
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX / 2000) * 1000
            })
        })
        .collect();

    for epoch in start_epoch..cfg.epochs {
        let mut iter = shard_batches(train_tokens, spec, r, g);
        let steps = if cfg.steps_per_epoch > 0 {
            cfg.steps_per_epoch
        } else {
            iter.len()
        };
        let resumed_here = ctx.resume.is_some() && epoch == start_epoch;
        let first_step = if resumed_here {
            resume_skip.min(steps)
        } else {
            0
        };
        let (mut epoch_loss, mut epoch_time_ps) = if resumed_here {
            (resume_epoch_loss, resume_epoch_time_ps)
        } else {
            (0.0f64, 0u64)
        };
        if first_step > 0 {
            // Re-entering mid-epoch: discarding `first_step mod len`
            // batches from a fresh iterator lands on exactly the batch
            // the interrupted run would have drawn next (the shard
            // iterator is recreated whenever it drains, so positions
            // are periodic in its length).
            let len = iter.len().max(1);
            for _ in 0..first_step % len {
                iter.next();
            }
        }

        for s in first_step..steps {
            let global_step = st.global_step;
            if plan.should_die(r, global_step as usize) {
                let reason = format!("rank {r} killed by fault plan at step {global_step}");
                rank.abort(reason.clone());
                return Err(TrainError::PeerFailure { rank: r, reason });
            }
            if plan.should_hang(r, global_step as usize) {
                // Go silent: stop calling collectives but never abort.
                // Peers hang at their next barrier until a configured
                // deadline (`cfg.comm.deadline`) poisons the group with
                // `CommError::Timeout`; this rank then observes the
                // poison and returns the same typed error instead of
                // parking forever.
                loop {
                    if let Err(e) = rank.check_abort() {
                        return Err(e.into());
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            if plan.wire_corruption_at(r) == Some(global_step as usize) {
                // Arm the one-shot latch: the next codec frame this
                // rank publishes is damaged in flight and every decoder
                // attributes the corruption to this rank.
                rank.corrupt_next_codec_frame();
            }
            if let Some(rec) = recorder.as_mut() {
                rec.set_step(global_step);
            }
            if let Some(delay) = plan.straggler_delay(r) {
                let t0 = recorder.as_ref().map(|rec| rec.now_ns());
                std::thread::sleep(delay);
                if let Some(rec) = recorder.as_mut() {
                    rec.record_since(SpanKind::StragglerDelay, t0.unwrap_or(0), 0);
                }
            }
            let batch = match iter.next() {
                Some(b) => b,
                None => {
                    iter = shard_batches(train_tokens, spec, r, g);
                    iter.next().expect("shard emptied unexpectedly")
                }
            };
            let sb = SeqBatch::from_lane_major(
                &batch.inputs,
                &batch.targets,
                batch.batch,
                batch.seq_len,
            );
            let sample_seed =
                cfg.method
                    .seeding
                    .seed_for(cfg.seed ^ SAMPLE_SEED, r, g, global_step);
            let t0 = recorder.as_ref().map(|rec| rec.now_ns());
            let out = st.replica.step(&sb, sample_seed);
            if let Some(rec) = recorder.as_mut() {
                rec.record_since(SpanKind::Compute, t0.unwrap_or(0), 0);
            }

            // Dense ALLREDUCE + average, one collective call per gradient
            // bucket (`comm.bucket_bytes`; a single whole-payload call
            // when 0). Wire format and topology are independent
            // parameters of the one collective, so compressed payloads
            // ride the hierarchical route like any other. Reduction is
            // elementwise under a canonical leader order, so neither the
            // slicing nor the topology moves a bit. The bytes are the
            // collective's own: this rank's exact share of the active
            // wire schedule, as charged to the traffic recorder (a codec
            // prices the *reduced* — summed, pre-average — payload).
            let mut dense = out.dense;
            let t0 = recorder.as_ref().map(|rec| rec.now_ns());
            let dense_wire = schedule::all_reduce_bucketed(
                &rank,
                &mut dense,
                xcfg.grad_wire(),
                xcfg.topology(),
                xcfg.bucket_bytes,
            )?;
            let dense_bytes = dense_wire.sent.total();
            let inv_g = 1.0 / g as f32;
            for v in &mut dense {
                *v *= inv_g;
            }
            if let Some(rec) = recorder.as_mut() {
                rec.record_since(SpanKind::AllReduce, t0.unwrap_or(0), dense_bytes);
            }

            // Embedding exchanges (applied with lr/G: sum → average).
            let dim = st.replica.embed_dim();
            let lr_eff = st.lr * inv_g;
            let in_grad = out.input_grad;
            let in_stats = exchange_and_apply_traced(
                &rank,
                &in_grad,
                st.replica.input_table(),
                lr_eff,
                &xcfg,
                &mut in_scratch,
                recorder.as_mut(),
            )?;
            let out_stats = match (out.output_grad, st.replica.output_table()) {
                (Some(grad), Some(table)) => Some(exchange_and_apply_traced(
                    &rank,
                    &grad,
                    table,
                    lr_eff,
                    &xcfg,
                    &mut out_scratch,
                    recorder.as_mut(),
                )?),
                _ => None,
            };

            // Charge transient buffers against the device. Capacities
            // (and Ui-dependent buffer sizes) may differ per rank, so a
            // one-sided OOM must poison the group: peers then error out
            // of the loss reduction below instead of deadlocking.
            let transient = in_stats.peak_buffer_bytes
                + out_stats.map(|s| s.peak_buffer_bytes).unwrap_or(0)
                + dense.len() as u64 * 4;
            {
                let _t = device.try_alloc(transient).map_err(|e| {
                    rank.abort(format!(
                        "rank {r} OOM on exchange buffers at step {global_step}: {e}"
                    ));
                    TrainError::Oom(e)
                })?;
            }

            st.replica.apply_dense(&dense, st.lr);

            // Synchronised mean loss.
            let t0 = recorder.as_ref().map(|rec| rec.now_ns());
            let loss = rank.all_reduce_scalar_f64(out.loss)? / g as f64;
            if let Some(rec) = recorder.as_mut() {
                rec.record_since(SpanKind::AllReduce, t0.unwrap_or(0), 8 * (g as u64 - 1));
            }
            epoch_loss += loss;

            // Drain the step's accumulated barrier-wait wall-clock into
            // one synthetic contiguous span ending now (individual waits
            // happened inside the collectives above). Drained once and
            // shared: the tracer gets its span, the step record its
            // field.
            let waited_wall_ns = if track_waits {
                rank.take_barrier_wait_ns()
            } else {
                0
            };
            if let Some(rec) = recorder.as_mut() {
                let end = rec.now_ns();
                rec.record(
                    SpanKind::BarrierWait,
                    end.saturating_sub(waited_wall_ns),
                    end,
                    0,
                );
            }

            // Simulated step time on the Table II hardware, in integer
            // picoseconds. Synchronous SGD: the step ends when the
            // slowest rank arrives, so every rank builds the same
            // `StepSchedule` (pure arithmetic on synchronised inputs —
            // see there and `crate::schedule`), reads each rank's
            // critical path off its table, and takes the max. The
            // resulting T is identical on all ranks, making
            // `sim_time_ps` a synchronised quantity; the *attribution*
            // of T is rank-local.
            let k = cfg.local_batch_tokens();
            let compute_ps = secs_to_ps(cost.compute_time(cfg.model.flops_per_step(k)));
            let out_dim = match &st.replica {
                Replica::Word(m) => m.config().proj_dim,
                Replica::Char(_) => dim,
            };
            let n_dense = dense.len();
            let sched = StepSchedule {
                cost,
                xcfg: &xcfg,
                gpus: g,
                gpn,
                overlap: cfg.comm.overlap,
                wire: xcfg.grad_wire(),
                dense_wire,
                compute_ps,
                dense_elems: n_dense,
                in_stats,
                dim,
                out_stats,
                out_dim,
                total_grad_elems: (n_dense
                    + StepSchedule::exchange_grad_elems(&xcfg, &in_stats, dim)
                    + out_stats
                        .map(|s| StepSchedule::exchange_grad_elems(&xcfg, &s, out_dim))
                        .unwrap_or(0)) as u64,
            };
            let tracing = recorder.is_some();
            // Own rank: the outcome's parts feed the attribution, the
            // priced α rides beside it, and under tracing the ops are
            // also laid out on the simulated timeline as concurrent
            // spans.
            let (my_apply_ps, [wire_intra_alpha_ps, wire_inter_alpha_ps]) =
                sched.ops_for(&mut ops, r, true);
            let my = if tracing {
                let base = sim_clock_ps;
                let spans = &mut st.report.sim_spans;
                spans.push(SimSpan {
                    rank: r as u32,
                    step: global_step,
                    stream: SimStream::Compute,
                    label: "compute",
                    bucket: 0,
                    t_start_ps: base,
                    t_end_ps: base + compute_ps,
                });
                let oc = schedule::evaluate_with(compute_ps, my_apply_ps, &ops, |i, s_ps, e_ps| {
                    spans.push(SimSpan {
                        rank: r as u32,
                        step: global_step,
                        stream: SimStream::Comm,
                        label: ops[i].label,
                        bucket: ops[i].bucket,
                        t_start_ps: base + s_ps,
                        t_end_ps: base + e_ps,
                    });
                });
                spans.push(SimSpan {
                    rank: r as u32,
                    step: global_step,
                    stream: SimStream::Compute,
                    label: "apply",
                    bucket: 0,
                    t_start_ps: base + oc.total_ps - my_apply_ps,
                    t_end_ps: base + oc.total_ps,
                });
                oc
            } else {
                schedule::evaluate(compute_ps, my_apply_ps, &ops)
            };
            sched.price_all_shared(&ctx.schedule_memo, global_step, &mut ops, &mut work_ps);
            debug_assert_eq!(work_ps[r], my.total_ps);
            // Max critical path, delays excluded; max busy = critical
            // path + delay.
            let t0_ps = work_ps.iter().copied().max().unwrap_or(0);
            let t_ps = work_ps
                .iter()
                .zip(&delay_ps)
                .map(|(w, d)| w + d)
                .max()
                .unwrap_or(0);
            // Exact decomposition of T for this rank: whatever exceeds
            // this rank's busy time is waiting — up to T0 − cp it is
            // inherent load imbalance (barrier wait), beyond that it can
            // only be caused by peers' injected delays (skew). The comm
            // hidden under compute is carved out of the compute bucket
            // into `overlapped_ps`, so the seven buckets still sum to T
            // exactly (see `crate::schedule`).
            let wait_ps = t_ps - (work_ps[r] + delay_ps[r]);
            let barrier_wait_ps = wait_ps.min(t0_ps - work_ps[r]);
            let attribution = TimeAttribution {
                compute_ps: compute_ps + my_apply_ps - my.overlapped_ps,
                wire_intra_ps: my.exposed_intra_ps,
                wire_inter_ps: my.exposed_inter_ps,
                overlapped_ps: my.overlapped_ps,
                barrier_wait_ps,
                skew_ps: wait_ps - barrier_wait_ps,
                self_delay_ps: delay_ps[r],
            };
            debug_assert_eq!(attribution.total_ps(), t_ps);
            if tracing {
                let base = sim_clock_ps;
                let busy = work_ps[r] + delay_ps[r];
                if delay_ps[r] > 0 {
                    st.report.sim_spans.push(SimSpan {
                        rank: r as u32,
                        step: global_step,
                        stream: SimStream::Compute,
                        label: "self_delay",
                        bucket: 0,
                        t_start_ps: base + work_ps[r],
                        t_end_ps: base + busy,
                    });
                }
                if t_ps > busy {
                    st.report.sim_spans.push(SimSpan {
                        rank: r as u32,
                        step: global_step,
                        stream: SimStream::Compute,
                        label: "barrier_wait",
                        bucket: 0,
                        t_start_ps: base + busy,
                        t_end_ps: base + t_ps,
                    });
                }
            }
            sim_clock_ps += t_ps;
            epoch_time_ps += t_ps;

            st.report.steps.push(StepMetrics {
                step: global_step,
                train_loss: loss,
                sim_time_ps: t_ps,
                sim_time_s: t_ps as f64 * 1e-12,
                attribution,
                wire_intra_alpha_ps,
                wire_inter_alpha_ps,
                input_exchange: in_stats,
                output_exchange: out_stats,
                dense_bytes,
                dense_raw_bytes: dense_wire.raw,
                dense_enc_bytes: dense_wire.enc,
                barrier_wait_wall_ns: waited_wall_ns,
            });
            st.global_step += 1;

            // Checkpoint hooks: off the hot path unless a store is
            // attached (a default run has none — one branch per step).
            if let Some(store) = ctx.store {
                store.note_progress(r, st.global_step);
                let every = cfg.checkpoint.every_steps;
                if every > 0 && st.global_step.is_multiple_of(every) {
                    let snapshot = st.snapshot(
                        ctx,
                        r,
                        epoch as u32,
                        (s + 1) as u64,
                        epoch_loss,
                        epoch_time_ps,
                    );
                    if let Err(e) = store.deposit(snapshot) {
                        // A *real* storage failure (injected disk
                        // faults return Ok and stay latent until the
                        // recovery scan). Poison the group: peers must
                        // not train on while this rank cannot persist.
                        let reason = format!("checkpoint write failed: {e}");
                        rank.abort(reason.clone());
                        return Err(TrainError::CheckpointWrite { reason });
                    }
                }
            }
        }

        // Validation on rank 0 only: replicas are identical, evaluation
        // involves no collectives, and the other G−1 passes were pure
        // discarded work.
        if is_rank0 {
            let valid_nll = if valid_tokens.is_empty() {
                f64::NAN
            } else {
                st.replica
                    .valid_loss(valid_tokens, cfg.batch.min(4), cfg.seq_len)
            };
            st.report.epochs.push(EpochMetrics {
                epoch,
                train_loss: epoch_loss / steps.max(1) as f64,
                valid_ppl: valid_nll.exp(),
                valid_bpc: valid_nll / std::f64::consts::LN_2,
                sim_time_s: epoch_time_ps as f64 * 1e-12,
            });
        }
        st.lr *= cfg.lr_decay;
    }

    st.report.traffic = rank.traffic();
    let totals = st.totals(cfg);
    st.report.attribution = totals.attribution;
    st.report.mean_unique_global = totals.mean_unique_global();
    st.report.trace = recorder.map(TraceRecorder::finish);
    // Terminal snapshot: the run's exact final state (params + full
    // epoch history). Rank 0's copy is authoritative — it alone carries
    // the validation history — and resuming from it is a no-op run.
    if let Some(store) = ctx.store.filter(|_| is_rank0) {
        let snapshot = st.snapshot(ctx, r, cfg.epochs as u32, 0, 0.0, 0);
        if let Err(e) = store.set_final(snapshot) {
            let reason = format!("terminal checkpoint write failed: {e}");
            rank.abort(reason.clone());
            return Err(TrainError::CheckpointWrite { reason });
        }
    }
    guard.disarm();
    Ok(st.report)
}

/// Seed-domain separator for the train/valid split stream.
const SPLIT_SEED: u64 = 0x5b11_7000_5b11_7000;
/// Seed-domain separator for sampled-softmax candidate streams.
const SAMPLE_SEED: u64 = 0x5eed_5eed_5eed_5eed;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointConfig, CommConfig, Method, MetricsConfig, TraceConfig};
    use crate::seeding::SeedStrategy;

    fn quick_cfg(model: ModelKind, gpus: usize, method: Method) -> TrainConfig {
        TrainConfig {
            model,
            gpus,
            batch: 2,
            seq_len: 6,
            steps_per_epoch: 4,
            epochs: 1,
            base_lr: 0.3,
            lr_decay: 0.95,
            method,
            seed: 7,
            tokens: 30_000,
            trace: TraceConfig::off(),
            metrics: MetricsConfig::off(),
            checkpoint: CheckpointConfig::off(),
            comm: CommConfig::flat(),
        }
    }

    #[test]
    fn word_training_runs_all_methods() {
        for (_, method) in Method::figure6_stack() {
            let cfg = quick_cfg(ModelKind::Word { vocab: 200 }, 2, method);
            let rep = train(&cfg).expect("train");
            assert_eq!(rep.epochs.len(), 1);
            assert!(rep.epochs[0].train_loss.is_finite());
            assert!(rep.epochs[0].valid_ppl.is_finite());
            assert_eq!(rep.steps.len(), 4);
        }
    }

    #[test]
    fn char_training_runs() {
        let cfg = quick_cfg(ModelKind::Char { vocab: 64 }, 2, Method::unique());
        let rep = train(&cfg).expect("train");
        assert!(rep.epochs[0].valid_bpc.is_finite());
        assert!(rep.steps[0].output_exchange.is_none());
    }

    #[test]
    fn multi_epoch_loss_improves() {
        let mut cfg = quick_cfg(ModelKind::Char { vocab: 32 }, 2, Method::unique());
        cfg.epochs = 4;
        cfg.steps_per_epoch = 20;
        cfg.base_lr = 0.5;
        let rep = train(&cfg).expect("train");
        let first = rep.epochs.first().unwrap().train_loss;
        let last = rep.epochs.last().unwrap().train_loss;
        assert!(last < first, "first {first}, last {last}");
    }

    #[test]
    fn unique_reduces_traffic_vs_baseline() {
        let base = train(&quick_cfg(
            ModelKind::Word { vocab: 100 },
            4,
            Method::baseline(),
        ))
        .unwrap();
        let uniq = train(&quick_cfg(
            ModelKind::Word { vocab: 100 },
            4,
            Method::unique_seeded(),
        ))
        .unwrap();
        assert!(
            uniq.traffic.allgather_bytes < base.traffic.allgather_bytes,
            "unique {} vs baseline {}",
            uniq.traffic.allgather_bytes,
            base.traffic.allgather_bytes
        );
        assert!(uniq.mean_unique_global > 0.0);
    }

    fn capped(cfg: &TrainConfig, gpu_mem_bytes: u64) -> Result<TrainReport, TrainError> {
        let opts = RunOptions {
            gpu_mem_bytes,
            ..RunOptions::default()
        };
        run(cfg, &opts).report()
    }

    #[test]
    fn oom_surfaces_as_error() {
        let cfg = quick_cfg(ModelKind::Word { vocab: 200 }, 4, Method::baseline());
        let err = capped(&cfg, 200_000).unwrap_err();
        assert!(matches!(err, TrainError::Oom(_)), "got {err}");
    }

    #[test]
    fn unique_survives_memory_limit_where_baseline_dies() {
        // The headline of Tables III/IV, in miniature.
        let mk = |method| quick_cfg(ModelKind::Word { vocab: 300 }, 4, method);
        // Find a limit between the two peak usages.
        let base_peak = train(&mk(Method::baseline())).unwrap().peak_mem_bytes;
        let uniq_peak = train(&mk(Method::unique_seeded())).unwrap().peak_mem_bytes;
        assert!(
            uniq_peak < base_peak,
            "unique {uniq_peak} vs base {base_peak}"
        );
        let limit = (uniq_peak + base_peak) / 2;
        assert!(matches!(
            capped(&mk(Method::baseline()), limit),
            Err(TrainError::Oom(_))
        ));
        assert!(capped(&mk(Method::unique_seeded()), limit).is_ok());
    }

    #[test]
    fn data_too_small_detected() {
        let mut cfg = quick_cfg(ModelKind::Char { vocab: 32 }, 2, Method::unique());
        cfg.tokens = 20;
        assert!(matches!(train(&cfg), Err(TrainError::DataTooSmall { .. })));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick_cfg(ModelKind::Word { vocab: 150 }, 2, Method::unique_seeded());
        let a = train(&cfg).unwrap();
        let b = train(&cfg).unwrap();
        assert_eq!(a.epochs[0].train_loss, b.epochs[0].train_loss);
        assert_eq!(a.final_ppl(), b.final_ppl());
    }

    #[test]
    fn hierarchical_pooled_training_matches_flat_bitwise() {
        // The tentpole invariant end to end: routing every dense and
        // Ug×D ALLREDUCE through the two-tier schedule under a bounded
        // worker pool changes *nothing* about the numbers — losses and
        // final perplexity are bit-identical; only the wire accounting
        // (and hence simulated time) moves between tiers.
        let flat_cfg = quick_cfg(ModelKind::Word { vocab: 150 }, 6, Method::unique());
        let mut hier_cfg = flat_cfg.clone();
        hier_cfg.comm = CommConfig {
            gpus_per_node: 2,
            hierarchical: true,
            pool_workers: 3,
            ..CommConfig::flat()
        };
        let flat = train(&flat_cfg).expect("flat");
        let hier = train(&hier_cfg).expect("hier");
        assert_eq!(flat.epochs[0].train_loss, hier.epochs[0].train_loss);
        assert_eq!(flat.final_ppl(), hier.final_ppl());
        for (a, b) in flat.steps.iter().zip(&hier.steps) {
            assert_eq!(a.train_loss, b.train_loss, "step {} diverged", a.step);
            assert_eq!(a.attribution.total_ps(), a.sim_time_ps);
            assert_eq!(b.attribution.total_ps(), b.sim_time_ps);
        }
        // 6 ranks over 2-GPU nodes: rank 0 leads a node, so its wire
        // time and the group's traffic must actually cross Infiniband.
        assert!(hier.steps[0].attribution.wire_inter_ps > 0);
        assert!(hier.steps[0].attribution.wire_intra_ps > 0);
        assert!(hier.traffic.allreduce_inter_bytes > 0);
        // The flat run fits the hardware preset's node (6 ≤ 8): all of
        // its wire time and bytes stay on the PCIe tier.
        assert_eq!(flat.steps[0].attribution.wire_inter_ps, 0);
        assert_eq!(flat.traffic.allreduce_inter_bytes, 0);
    }

    #[test]
    fn hierarchical_analytic_bytes_reconcile_with_recorder_exactly() {
        // Trainer-level exactness: every ALLREDUCE byte the recorder saw
        // is a byte some rank's analytic model claimed — summed over all
        // ranks and steps, with no epsilon, at a ragged world (5 ranks
        // on 2-GPU nodes: 2 + 2 + 1). Char LM ⇒ one dense ALLREDUCE,
        // one unique input exchange and one scalar loss reduce per step.
        let (g, gpn) = (5usize, 2usize);
        let mut cfg = quick_cfg(ModelKind::Char { vocab: 32 }, g, Method::unique());
        cfg.comm = CommConfig {
            gpus_per_node: gpn,
            hierarchical: true,
            pool_workers: 2,
            ..CommConfig::flat()
        };
        let reports: Vec<TrainReport> = run(&cfg, &RunOptions::default())
            .ranks
            .into_iter()
            .map(|r| r.expect("rank failed"))
            .collect();
        let mut expected = 0u64;
        for (r, rep) in reports.iter().enumerate() {
            for s in &rep.steps {
                // dense_bytes is the rank's exact hierarchical share.
                expected += s.dense_bytes;
                // The exchange's wire_bytes = index gather + ALLREDUCE
                // share; only the latter lands in the allreduce bucket.
                let gather = (s.input_exchange.local_tokens as u64) * 4 * (g as u64 - 1);
                expected += s.input_exchange.wire_bytes - gather;
                // The synchronised mean loss: 8 bytes to every peer.
                expected += simgpu::peer_exchange_tier_bytes(g, gpn, r, 8).total();
            }
        }
        let snap = &reports[0].traffic;
        assert_eq!(snap.allreduce_bytes, expected);
        assert_eq!(
            snap.allreduce_bytes,
            snap.allreduce_intra_bytes + snap.allreduce_inter_bytes
        );
        assert!(snap.allreduce_inter_bytes > 0, "leaders must cross nodes");
        assert!(snap.allreduce_intra_bytes > 0);
    }

    #[test]
    fn fleet_metrics_are_stamped_once_from_the_joined_ranks_records() {
        // Three ranks, four steps; rank 2 is busy 4× as long, and the
        // trace rings of ranks 1 and 2 overflowed.
        let report = |busy: u64, dropped: u64| TrainReport {
            gpus: 3,
            steps: (0..4)
                .map(|step| StepMetrics {
                    step,
                    sim_time_ps: 400,
                    attribution: TimeAttribution {
                        compute_ps: busy,
                        barrier_wait_ps: 400 - busy,
                        ..Default::default()
                    },
                    ..Default::default()
                })
                .collect(),
            trace: Some(simgpu::TraceLog {
                dropped,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut results = vec![Ok(report(100, 0)), Ok(report(100, 5)), Ok(report(400, 7))];
        stamp_fleet_metrics(&mut results, &[10, 30, 20]);
        let reports: Vec<&TrainReport> = results.iter().map(|r| r.as_ref().unwrap()).collect();
        let straggler = HealthEvent::Straggler {
            rank: 2,
            factor_milli: 4000,
            step: 2,
        };
        let truncated = |rank, dropped| HealthEvent::TraceTruncated { rank, dropped };
        assert_eq!(
            reports[0].health,
            [straggler.clone(), truncated(1, 5), truncated(2, 7)],
            "rank 0 answers for the world"
        );
        assert_eq!(reports[1].health, [straggler.clone(), truncated(1, 5)]);
        assert_eq!(reports[2].health, [straggler, truncated(2, 7)]);
        let peak = |r: usize| {
            reports[r]
                .metrics
                .as_ref()
                .unwrap()
                .find_gauge("peak_mem_bytes")
        };
        assert_eq!((peak(0), peak(1), peak(2)), (Some(10), Some(30), Some(20)));
        let fleet = reports[0].fleet_metrics.as_ref().expect("fleet registry");
        assert_eq!(fleet.find_counter("steps_total"), Some(12));
        assert_eq!(fleet.find_gauge("peak_mem_bytes"), Some(30));
        assert_eq!(fleet.find_gauge("dropped_spans"), Some(7));
        assert!(reports[1].fleet_metrics.is_none());

        // A round with a failed rank has no complete busy table: the
        // survivors still get registries, nobody gets straggler findings.
        let failed = TrainError::PeerFailure {
            rank: 1,
            reason: "killed".to_owned(),
        };
        let mut results = vec![Ok(report(100, 0)), Err(failed), Ok(report(400, 7))];
        stamp_fleet_metrics(&mut results, &[10, 30, 20]);
        let rep0 = results[0].as_ref().unwrap();
        assert_eq!(rep0.health, [truncated(2, 7)]);
        assert_eq!(
            rep0.fleet_metrics
                .as_ref()
                .unwrap()
                .find_counter("steps_total"),
            Some(8)
        );
    }

    #[test]
    fn seeding_shrinks_output_exchange() {
        let shared = train(&quick_cfg(
            ModelKind::Word { vocab: 400 },
            4,
            Method {
                unique: true,
                seeding: SeedStrategy::AllSame,
                compression: None,
            },
        ))
        .unwrap();
        let per_gpu = train(&quick_cfg(
            ModelKind::Word { vocab: 400 },
            4,
            Method {
                unique: true,
                seeding: SeedStrategy::PerGpu,
                compression: None,
            },
        ))
        .unwrap();
        let ug = |r: &TrainReport| {
            r.steps
                .iter()
                .filter_map(|s| s.output_exchange.map(|e| e.unique_global))
                .sum::<usize>()
        };
        assert!(
            ug(&shared) < ug(&per_gpu),
            "shared {} vs per-gpu {}",
            ug(&shared),
            ug(&per_gpu)
        );
    }

    /// The node size pricing uses is the resolved `comm.gpus_per_node`,
    /// for the link constants as for the tier labels: an override that
    /// differs from the hardware preset's 8 moves both together.
    #[test]
    fn node_size_override_moves_constants_and_labels_together() {
        let all_ranks = |cfg: &TrainConfig| -> Vec<StepMetrics> {
            run(cfg, &RunOptions::default())
                .ranks
                .into_iter()
                .map(|r| r.expect("rank failed").steps.swap_remove(0))
                .collect()
        };
        // Per step: two index gathers and three unbucketed ALLREDUCEs.
        let hops = |g: u64| 2 * (g - 1) + 3 * 2 * (g - 1);
        // Table II's per-hop latencies: 30 µs Infiniband, 10 µs PCIe.
        let (ib_hop_ps, pcie_hop_ps) = (30_000_000, 10_000_000);

        // 8 flat ranks on 4-GPU nodes: the ring leaves its node, every
        // hop is an Infiniband hop, and each rank books them on the
        // tier of its own egress link.
        let mut cfg = quick_cfg(ModelKind::Word { vocab: 150 }, 8, Method::unique());
        cfg.comm.gpus_per_node = 4;
        let alpha_ps = hops(8) * ib_hop_ps;
        for (r, step) in all_ranks(&cfg).iter().enumerate() {
            let booked = (step.wire_intra_alpha_ps, step.wire_inter_alpha_ps);
            let crosses = r % 4 == 3;
            let want = if crosses {
                (0, alpha_ps)
            } else {
                (alpha_ps, 0)
            };
            assert_eq!(booked, want, "rank {r}");
            let a = step.attribution;
            assert_eq!(a.wire_intra_ps == 0, crosses, "rank {r}");
            assert_eq!(a.wire_inter_ps == 0, !crosses, "rank {r}");
        }

        // 12 two-tier ranks on 16-GPU nodes: one node, so the fallback
        // ring runs on PCIe hops and nothing is booked as inter.
        let mut cfg = quick_cfg(ModelKind::Word { vocab: 150 }, 12, Method::unique());
        cfg.comm = CommConfig {
            gpus_per_node: 16,
            hierarchical: true,
            pool_workers: 4,
            ..CommConfig::flat()
        };
        let alpha_ps = hops(12) * pcie_hop_ps;
        for (r, step) in all_ranks(&cfg).iter().enumerate() {
            let booked = (step.wire_intra_alpha_ps, step.wire_inter_alpha_ps);
            assert_eq!(booked, (alpha_ps, 0), "rank {r}");
            assert_eq!(step.attribution.wire_inter_ps, 0, "rank {r}");
        }
    }

    /// The shared step table is the table each rank would price alone:
    /// a first arriver fills the memo, a rank with the same key copies
    /// it without pricing, and a rank whose key differs gets the table
    /// of its own inputs.
    #[test]
    fn shared_schedule_table_equals_per_rank_pricing() {
        use simgpu::WireCodecId;
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        let exchange = |unique_global: usize, codec_scaled: bool| ExchangeStats {
            local_tokens: 96,
            unique_local: 40,
            unique_global,
            index_enc_bytes: if codec_scaled { 1_000 } else { 96 * 4 * 7 },
            reduce_raw_bytes: unique_global as u64 * 16 * 4,
            reduce_enc_bytes: unique_global as u64 * 16 * if codec_scaled { 3 } else { 4 },
            ..ExchangeStats::default()
        };
        // Flat ring over three nodes; two-tier with a ragged last node of
        // one; two-tier with codec-scaled payloads and buckets.
        let flat = ExchangeConfig::unique();
        let two_tier = ExchangeConfig {
            gpus_per_node: 3,
            ..ExchangeConfig::unique_compressed()
        };
        let codec = ExchangeConfig {
            gpus_per_node: 3,
            bucket_bytes: 1 << 10,
            codec: WireCodecId::Lossless,
            ..ExchangeConfig::unique()
        };
        for (name, xcfg, gpus, gpn) in [
            ("flat", &flat, 5usize, 2usize),
            ("two-tier", &two_tier, 7, 3),
            ("two-tier codec", &codec, 7, 3),
        ] {
            let codec_scaled = xcfg.codec != WireCodecId::Identity;
            let (dim, out_dim, dense_elems) = (16usize, 16usize, 5_003usize);
            let schedule = |ug: usize| {
                let (in_stats, out_stats) =
                    (exchange(ug, codec_scaled), exchange(ug + 9, codec_scaled));
                let dense_raw = dense_elems as u64 * xcfg.grad_wire().elem_bytes();
                StepSchedule {
                    cost: &cost,
                    xcfg,
                    gpus,
                    gpn,
                    overlap: true,
                    wire: xcfg.grad_wire(),
                    dense_wire: schedule::ReducedBytes {
                        raw: dense_raw,
                        enc: if codec_scaled {
                            dense_raw / 2
                        } else {
                            dense_raw
                        },
                        ..Default::default()
                    },
                    compute_ps: 3_000_000,
                    dense_elems,
                    in_stats,
                    dim,
                    out_stats: Some(out_stats),
                    out_dim,
                    total_grad_elems: (dense_elems + (2 * ug + 9) * dim) as u64,
                }
            };
            let direct = |sched: &StepSchedule| {
                let mut table = vec![0; gpus];
                sched.price_all(&mut Vec::new(), &mut table);
                table
            };
            let shared = |sched: &StepSchedule, memo: &Mutex<ScheduleMemo>, step: u64| {
                let mut table = vec![0; gpus];
                sched.price_all_shared(memo, step, &mut Vec::new(), &mut table);
                table
            };
            let memo = Mutex::new(ScheduleMemo::new(gpus));
            let sched = schedule(50);
            let want = direct(&sched);
            assert!(want.iter().any(|&w| w != want[0]), "{name}: ranks differ");
            // The own rank's α account is Σ over its ops of each op's
            // quantised α — which no payload moves, so it is the op
            // count of each collective times that collective's α on an
            // empty payload; a peer's pricing is the same ops, no α.
            for q in 0..gpus {
                let (mut ops, mut peer_ops) = (Vec::new(), Vec::new());
                let (apply, alpha) = sched.ops_for(&mut ops, q, true);
                assert_eq!(sched.ops_for(&mut peer_ops, q, false), (apply, [0; 2]));
                assert_eq!(ops, peer_ops, "{name} rank {q}");
                let topology = xcfg.topology();
                let gather = cost.allgather(0, gpus, gpn, topology, q);
                let reduce = cost.allreduce(simgpu::TierBytes::default(), gpus, gpn, topology, q);
                let gathers = ops
                    .iter()
                    .filter(|o| o.label.ends_with("allgather"))
                    .count() as u64;
                let reduces = ops.len() as u64 - gathers;
                let want_alpha = [
                    gathers * gather.intra.alpha_ps() + reduces * reduce.intra.alpha_ps(),
                    gathers * gather.inter.alpha_ps() + reduces * reduce.inter.alpha_ps(),
                ];
                assert_eq!(alpha, want_alpha, "{name} rank {q}");
                assert!(alpha[0] <= ops.iter().map(|o| o.intra_ps).sum());
                assert!(alpha[1] <= ops.iter().map(|o| o.inter_ps).sum());
            }
            // First arriver: prices the table into the empty memo.
            assert_eq!(shared(&sched, &memo, 3), want, "{name}: miss");
            // Same key: the table is copied, not priced — a marked memo
            // comes back marked.
            memo.lock().unwrap().work_ps[0] = u64::MAX;
            let hit = shared(&sched, &memo, 3);
            assert_eq!((hit[0], &hit[1..]), (u64::MAX, &want[1..]), "{name}: hit");
            // Other inputs at the same step, and the same inputs at the
            // next step: each is priced afresh from the caller's own.
            let other = schedule(61);
            assert_ne!(direct(&other), want, "{name}");
            assert_eq!(shared(&other, &memo, 3), direct(&other), "{name}: mismatch");
            assert_eq!(shared(&sched, &memo, 4), want, "{name}: next step");
        }
    }
}
