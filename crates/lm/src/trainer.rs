//! The distributed trainer: synchronous data-parallel SGD over simulated
//! GPUs, with the paper's exchange stack in the loop.
//!
//! The paper's step is a synchronous SPMD program (§II-B, §III-A), and
//! the trainer runs it in lockstep: one driver, on the calling thread,
//! runs each phase of the step — a method of the private
//! `step::StepState`, the world's one step state (learning rate,
//! counters, epoch cursor, schedule), once, or of a rank's
//! `step::LoopState` for ranks `0..G` in turn; neither communicates —
//! and calls each collective (→) once, as a function over every rank's
//! buffers on a [`simgpu::World`]:
//!
//! 1. `compute` (per rank): the shard's next batch, forward/backward;
//!    → the dense gradients (LSTM/RHN + projection) ALLREDUCEd — the
//!    part vision models already do well (§II-B);
//!    → the input-embedding sparse gradient, and a word LM's
//!    output-embedding one (candidates drawn under the configured
//!    [`crate::seeding::SeedStrategy`]), exchanged and applied via the
//!    configured [`crate::ExchangeConfig`] (baseline ALLGATHER vs
//!    uniqueness), their transient buffers charged to the simulated
//!    device (this is where the baseline OOMs, Tables III/IV);
//! 2. `apply`: the dense gradient averaged and applied, once;
//!    → the loss ALLREDUCE;
//! 3. `measure` / `price`: the step on the α–β clock in integer
//!    picoseconds — each rank's op list priced for the step's one load,
//!    the max taken over ranks (synchronous SGD), then each rank's own
//!    share split into the exact
//!    [`crate::TimeAttribution`] buckets (compute, wire, barrier wait,
//!    injected skew, own delay) — recorded per rank, and the world's
//!    counters advanced once;
//!    → a checkpoint deposit, when due;
//! 4. `end_epoch` after an epoch's last step (the one replica is
//!    validated once, into the world's history), and `finish` after the
//!    run's: every rank's report is the world's record joined with the
//!    rank's own ledger, in one place.
//!
//! Synchronous SGD keeps every rank's weights equal, so the driver holds
//! one replica: every rank's `compute` reads it, and the step's reduced
//! updates are applied to it once. For the same reason the dense
//! ALLREDUCE needs one sum, not G reduced copies: each rank's dense
//! gradient is folded into it, in rank order, as soon as its `compute`
//! returns ([`simgpu::RankSum`]). Compute fans out over at most
//! `min(comm.pool_workers or the cores, available_parallelism())`
//! scoped workers, each reusing one gradient buffer; on one CPU that is
//! the driver alone.
//!
//! With `TrainConfig::trace` enabled, each rank additionally records a
//! [`simgpu::trace::TraceEvent`] per span (compute, collectives,
//! exchange phases, barrier waits, straggler delays) into a ring
//! buffer, returned as `TrainReport::trace` and exportable via
//! [`simgpu::chrome_trace_json`] / `TrainReport::steps_jsonl`.
//!
//! ## Failure model
//!
//! Any rank can fail at any point — an asymmetric OOM (per-rank memory
//! limits via [`simgpu::FaultPlan`]), an injected death, a failed
//! checkpoint write. A failing rank returns its own error and poisons
//! the world ([`simgpu::World::abort`]; the first failure's attribution
//! wins), and every rank still running returns
//! [`TrainError::PeerFailure`] naming it at the next collective, as a
//! threaded rank would have observed it. A hung rank makes the next
//! collective a [`TrainError::Timeout`] on every rank, after the
//! deadline's whole budget in simulated time. A panic in a phase
//! surfaces as that panic. Fault injection (kill-at-step, hangs, wire
//! corruption, stragglers, asymmetric limits) is threaded through
//! [`RunOptions::faults`].

mod step;

use crate::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use crate::config::{DatasetId, ModelKind, TrainConfig};
use crate::elastic::{self, RecoveryPolicy};
use crate::exchange::{all_reduce_folded, exchange_world, ExchangeStats, Member, ReducedBytes};
use crate::metrics::{self, HealthEvent, RecoveryEvent, StepMetrics, TrainReport};
use corpus::{train_valid_split_in_place, CorpusGenerator, TokenUnit, Vocab};
use simgpu::{
    CommError, CostModel, Device, FaultPlan, HardwareConfig, OomError, RankSum, SpanKind,
    TrafficSnapshot, World,
};
use std::fmt;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;
use step::{Ledger, LoopState, Replica, StepOutcome, StepState};
use tensor::Matrix;

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
    /// could never fire. Rejected eagerly (before any rank starts)
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
    /// eagerly, before data generation or any rank starts, instead of
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
        /// The rank that gave up waiting: the lowest-numbered rank that
        /// was not silent.
        rank: usize,
        /// Total simulated wait across all retry slices, picoseconds:
        /// the deadline's whole budget.
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
    /// first failed rank. Every report carries the world's record (epoch
    /// history, `Ug` mean, summed traffic, peak memory, stragglers);
    /// rank 0's also the recovery history and every rank's findings.
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
/// One *round* runs the lockstep step loop over every simulated GPU to
/// completion or to the first failure; a failing rank poisons the
/// world, so every survivor returns at its next collective. Without
/// [`RunOptions::recovery`] that round is the run. With it, a failed
/// round is followed by another at the survivors' world, restored from
/// the newest snapshot they all hold intact (none ⇒ a fresh start),
/// until a round completes, the restart budget is spent, no rank
/// survives, or a rank reports a cause no shrink can fix.
///
/// Never panics on a caller-supplied `cfg`: what no rank could execute
/// is [`TrainError::InvalidConfig`] / [`TrainError::InvalidFaultPlan`]
/// on every rank, before data generation or any rank starts.
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
    let data = prepare_data(cfg);
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
            &data,
            opts.gpu_mem_bytes,
            &plan,
            store.as_ref(),
            resume.as_deref(),
            fan_out_width(cfg.comm.pool_workers),
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
        outcome.recoveries.push(RecoveryEvent {
            restart,
            failed_ranks: failed,
            world_before: cfg.gpus,
            world_after: survivors.len(),
            steps_lost: store
                .max_progress(&survivors)
                .saturating_sub(resume.as_ref().map_or(0, |c| c.step)),
            stall_ns: u64::try_from(failure_observed.elapsed().as_nanos()).unwrap_or(u64::MAX),
            backoff_ps: elastic::simulated_backoff_ps(policy.backoff, restart),
            restored_from: resume.as_deref().cloned(),
        });
        plan = plan.remap_for_survivors(&survivors);
        cfg.gpus = survivors.len();
    }
}

/// What no rank could execute, as a typed error instead of a panic in
/// the caller's thread (zero ranks or epochs) or in every rank's (an
/// empty batch, a zero-symbol alphabet, a fault that could never fire,
/// a compression scale the collectives assert on, a silent rank nothing
/// would ever time out).
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
    let hang = (0..cfg.gpus).find_map(|r| plan.hang_at(r).map(|step| (r, step)));
    if let Some((rank, step)) = hang.filter(|_| cfg.comm.deadline.is_none()) {
        return invalid(format!(
            "the fault plan hangs rank {rank} at step {step} but `comm.deadline` is unset, \
             so its peers would wait for it forever"
        ));
    }
    match cfg.method.compression {
        Some(scale) if !(scale.is_finite() && scale > 0.0) => invalid(format!(
            "compression scale must be positive and finite, got {scale}"
        )),
        _ => Ok(()),
    }
}

/// What every rank of one round reads.
struct RunCtx<'a> {
    cfg: &'a TrainConfig,
    data: &'a RunData,
    /// `cfg.model` at its final dimensions ([`ModelKind::resolved`]):
    /// what the replica is and what its compute is priced as.
    model: ModelKind,
    /// What the step's collectives carry ([`Replica::shape`]): the dense
    /// gradient's length and the two tables' row widths.
    shape: (usize, usize, usize),
    /// The replica's parameter count, which every device is charged for.
    params: usize,
    cost: &'a CostModel,
    plan: &'a FaultPlan,
    store: Option<&'a CheckpointStore>,
    resume: Option<&'a Checkpoint>,
    /// Resolved GPUs per node — the communicator's node layout.
    gpn: usize,
}

/// One round: initialises the replica once, drives `cfg.gpus` ranks in
/// lockstep, compute fanned out over `workers` workers, and returns
/// every rank's own result. `cfg` and `plan` passed [`validate`].
fn run_round(
    cfg: &TrainConfig,
    data: &RunData,
    gpu_mem_bytes: u64,
    plan: &FaultPlan,
    store: Option<&CheckpointStore>,
    resume: Option<&Checkpoint>,
    workers: usize,
) -> Vec<Result<TrainReport, TrainError>> {
    // Rejected before any rank starts: every rank reports the cause.
    let reject = |e: TrainError| vec![Err(e); cfg.gpus];
    if let Some(Err(e)) = resume.map(|ck| ck.validate_against(cfg, data.model_vocab)) {
        return reject(TrainError::InvalidCheckpoint {
            reason: e.to_string(),
        });
    }
    let shard_tokens = data.train.len() / cfg.gpus;
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
    // between the intra/inter tiers and selects the hierarchical wire
    // schedule — it never changes results.
    let gpn = if cfg.comm.gpus_per_node == 0 {
        cost.hardware().gpus_per_node
    } else {
        cfg.comm.gpus_per_node
    };

    // Every rank starts from the same parameters, and synchronous SGD
    // keeps them equal: draw them once, and the driver trains that copy.
    let model = cfg.model.resolved(data.model_vocab);
    let replica = Replica::new(&model, cfg.seed);
    let ctx = RunCtx {
        cfg,
        data,
        model,
        shape: replica.shape(),
        params: replica.param_vector_len(),
        cost: &cost,
        plan,
        store,
        resume,
        gpn,
    };
    let (world, ledgers) = drive(&ctx, replica, &devices, workers);
    let peak_mem = devices.iter().map(|d| d.peak()).max().unwrap_or(0);
    reports(world, peak_mem, cfg.metrics.enabled, ledgers)
}

/// Every rank's report of one round, assembled in one place: its own
/// [`Ledger`] joined with what the round has once for the world —
/// `world`'s shared fields (epoch history, `Ug` mean, world size), the
/// devices' peak and what is folded here over the ledgers: every rank's
/// sends, summed, and with `health` (metrics on) the findings. The one
/// straggler list (it needs every rank's busy time, so a round with a
/// failed rank has none) goes on every report, each rank's trace
/// truncation on its own, and all of them on rank 0's.
fn reports(
    world: TrainReport,
    peak_mem_bytes: u64,
    health: bool,
    ledgers: Vec<Result<Ledger, TrainError>>,
) -> Vec<Result<TrainReport, TrainError>> {
    // Ops count group calls, which every rank's ledger counts alike, so
    // they are any one rank's.
    let traffic = (ledgers.iter().flatten())
        .map(|ledger| ledger.traffic)
        .reduce(|mut sum, rank| {
            sum += TrafficSnapshot {
                allreduce_ops: 0,
                allgather_ops: 0,
                ..rank
            };
            sum
        })
        .unwrap_or_default();
    let records: Option<Vec<&[StepMetrics]>> = (ledgers.iter())
        .map(|res| res.as_ref().ok().map(|ledger| ledger.steps.as_slice()))
        .collect();
    let stragglers = match records {
        Some(records) if health => metrics::stragglers(&records),
        _ => Vec::new(),
    };
    let truncated: Vec<(usize, HealthEvent)> = (ledgers.iter().enumerate())
        .filter_map(|(rank, res)| {
            let dropped = res.as_ref().ok()?.trace.as_ref()?.dropped;
            (health && dropped > 0).then_some((rank, HealthEvent::TraceTruncated { rank, dropped }))
        })
        .collect();
    (ledgers.into_iter().enumerate())
        .map(|(r, res)| {
            let own = (truncated.iter()).filter(|&&(rank, _)| r == 0 || rank == r);
            res.map(|ledger| TrainReport {
                steps: ledger.steps,
                peak_mem_bytes,
                traffic,
                attribution: ledger.attribution,
                trace: ledger.trace,
                sim_spans: ledger.sim_spans,
                health: (stragglers.iter().chain(own.map(|(_, e)| e)).cloned()).collect(),
                ..world.clone()
            })
        })
        .collect()
}

/// Sequential-structure strength of the synthetic corpora: with this
/// probability a token is the deterministic successor of its context
/// (see `corpus::CorpusGenerator::with_structure`). Nonzero so that
/// "more data ⇒ better perplexity" holds, as on real text.
const STRUCTURE_LAMBDA: f64 = 0.5;

/// A run's training and validation streams.
struct RunData {
    train: Vec<u32>,
    valid: Vec<u32>,
    /// The effective model vocabulary: word LMs may shrink if the
    /// corpus has fewer types than requested.
    model_vocab: usize,
}

/// Generates and splits the corpus, once per [`run`]: it depends only on
/// the model, the seed and the token count, which no recovery round
/// changes. One stream-sized buffer: the word path encodes it in place
/// and the split compacts its train blocks in place.
fn prepare_data(cfg: &TrainConfig) -> RunData {
    match cfg.model {
        ModelKind::Word { .. } | ModelKind::WordCustom(_) => {
            let requested = cfg.model.word_config().vocab;
            let profile = DatasetId::OneBillion.profile();
            let mut gen = CorpusGenerator::new(&profile, TokenUnit::Word, cfg.seed)
                .with_structure(STRUCTURE_LAMBDA);
            let mut tokens = gen.generate(cfg.tokens);
            let vocab = Vocab::build(&tokens, requested.saturating_sub(1).max(1));
            vocab.encode_in_place(&mut tokens);
            let (train, valid) = train_valid_split_in_place(tokens, 100, cfg.seed ^ SPLIT_SEED);
            RunData {
                train,
                valid,
                model_vocab: vocab.size(),
            }
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
            let tokens = gen.generate(cfg.tokens);
            let (train, valid) = train_valid_split_in_place(tokens, 100, cfg.seed ^ SPLIT_SEED);
            RunData {
                train,
                valid,
                model_vocab: vocab,
            }
        }
    }
}

/// One rank under the lockstep driver.
struct RankRun {
    st: LoopState,
    /// This step's forward/backward result, from `compute` to the loss
    /// reduction: `Some` once the rank computed this step.
    out: Option<StepOutcome>,
    /// The rank's own `K×D` input-gradient rows on the baseline path,
    /// which its exchange gathers; the next `compute` writes into the
    /// same allocation. Empty on the unique path, whose rows are made and
    /// reduced a block at a time in a fan-out worker's block.
    rows: Vec<f32>,
    /// Why the rank stopped, once it has.
    end: Option<TrainError>,
}

impl RankRun {
    fn running(&self) -> bool {
        self.end.is_none()
    }

    /// The rank fails with its own `err` and poisons `world` with
    /// `reason` (the first failure's attribution wins).
    fn fail(&mut self, world: &mut World, err: TrainError, reason: String) {
        world.abort(self.st.rank(), reason);
        self.end = Some(err);
    }
}

/// A collective every rank joins failed (a poisoned or timed-out world,
/// a torn frame): every rank still running returns it.
fn fail_all(ranks: &mut [RankRun], e: &CommError) {
    for rank in ranks.iter_mut().filter(|r| r.running()) {
        rank.end = Some(TrainError::from(e.clone()));
    }
}

/// How many workers a phase that fans out over the ranks uses: at most
/// `pool_workers` (the cores when 0), never more than the process may
/// run at once.
fn fan_out_width(pool_workers: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    match pool_workers {
        0 => cores,
        n => n.min(cores),
    }
}

/// Runs `compute` on every item, each into a worker's buffer, and hands
/// every result to `fold` in item order on the calling thread, as soon
/// as the items before it are folded. `bufs` holds one buffer per
/// worker — its length is the width — and each worker computes its
/// next item into the buffer the fold hands back (the fold may keep
/// the allocation and hand back another), so at most `bufs.len()`
/// results are alive whatever the number of items. Worker `j` takes
/// items `j`, `j + W`, …: the ordered hand-off. With one buffer (or one
/// item) nothing is spawned. A panic in `compute` surfaces as that
/// panic.
fn fan_out_fold<T: Send, B: Default + Send>(
    bufs: &mut [B],
    items: &mut [T],
    compute: impl Fn(&mut T, &mut B) + Sync,
    mut fold: impl FnMut(&mut B),
) {
    let width = bufs.len().min(items.len());
    if width <= 1 {
        let Some(buf) = bufs.first_mut() else {
            assert!(items.is_empty(), "no buffer to compute into");
            return;
        };
        for item in items {
            compute(item, buf);
            fold(buf);
        }
        return;
    }
    let compute = &compute;
    let n = items.len();
    let mut lanes: Vec<Vec<&mut T>> = (0..width).map(|_| Vec::new()).collect();
    for (i, item) in items.iter_mut().enumerate() {
        lanes[i % width].push(item);
    }
    thread::scope(|s| {
        let mut links = Vec::with_capacity(width);
        let mut workers = Vec::with_capacity(width);
        for (lane, buf) in lanes.into_iter().zip(bufs.iter_mut()) {
            let (done_tx, done) = mpsc::channel::<B>();
            let (back, back_rx) = mpsc::channel::<B>();
            let mut own = std::mem::take(buf);
            workers.push(s.spawn(move || {
                for item in lane {
                    compute(item, &mut own);
                    // The fold went away: it panicked, or a worker did.
                    if done_tx.send(own).is_err() {
                        return None;
                    }
                    own = back_rx.recv().ok()?;
                }
                Some(own)
            }));
            links.push((done, back));
        }
        for i in 0..n {
            let (done, back) = &links[i % width];
            // A worker that panicked drops its sender: stop folding.
            let Ok(mut buf) = done.recv() else { break };
            fold(&mut buf);
            // Its worker may have panicked since; the join reports it.
            let _ = back.send(buf);
        }
        drop(links);
        for (worker, buf) in workers.into_iter().zip(bufs.iter_mut()) {
            match worker.join() {
                Ok(own) => *buf = own.unwrap_or_default(),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
}

/// One fan-out worker's buffers, reused from rank to rank and step to
/// step: the dense gradient it hands to the fold, and the block a
/// rank's passes gather their input rows into (at most a timestep's `B`
/// rows) and, on the unique path, make its input gradient's rows in
/// ([`nn::BLOCK_ROWS`] at a time) for its exchange to reduce.
#[derive(Default)]
struct WorkerBufs {
    dense: Vec<f32>,
    block: Matrix,
}

/// The step's dense gradient: the fan-out workers' buffers, and the
/// running sum every rank's gradient is folded into as soon as it is
/// made.
struct DenseGrads {
    bufs: Vec<WorkerBufs>,
    sum: RankSum,
}

/// The lockstep driver: every rank's step loop on the calling thread,
/// each collective once over all ranks' buffers on one [`World`], and
/// `replica` — the weights every rank holds, identical under
/// synchronous SGD, the round's one copy — updated once per step.
/// Compute fans out over `workers` workers. The only step-loop code
/// that touches the world or a device; everything between its
/// collectives is a phase of the world's one [`StepState`] or of a
/// rank's [`LoopState`]. Returns the world's record and every rank's own
/// result.
fn drive(
    ctx: &RunCtx,
    mut replica: Replica,
    devices: &[Arc<Device>],
    workers: usize,
) -> (TrainReport, Vec<Result<Ledger, TrainError>>) {
    let cfg = ctx.cfg;
    let mut world = World::new(cfg.gpus, ctx.gpn, cfg.comm.deadline);
    let mut state = StepState::new(ctx);
    let mut ranks: Vec<RankRun> = (0..cfg.gpus)
        .map(|r| RankRun {
            st: LoopState::new(ctx, r),
            out: None,
            rows: Vec::new(),
            end: None,
        })
        .collect();

    // The resume point is the world's: its parameters go into the one
    // replica once.
    let restored = ctx.resume.map(|ck| state.restore(ck, &mut replica));
    // Persistent model memory: parameters + gradients + a modelled
    // optimiser slot, FP32, held for the whole round.
    let param_bytes = perfmodel::memory::replica_bytes(ctx.params as u64);
    let mut model_mem = Vec::with_capacity(ranks.len());
    for (rank, device) in ranks.iter_mut().zip(devices) {
        let r = rank.st.rank();
        match device.try_alloc(param_bytes) {
            Ok(mem) => model_mem.push(mem),
            Err(e) => {
                let reason = format!("rank {r} OOM on model parameters: {e}");
                rank.fail(&mut world, TrainError::Oom(e), reason);
                continue;
            }
        }
        if let Some(Err(reason)) = &restored {
            let err = TrainError::InvalidCheckpoint {
                reason: reason.clone(),
            };
            rank.fail(&mut world, err, reason.clone());
        }
    }

    let mut grads = DenseGrads {
        bufs: (0..workers.max(1)).map(|_| WorkerBufs::default()).collect(),
        sum: RankSum::new(),
    };
    while step(
        ctx,
        &mut world,
        &mut state,
        &mut replica,
        &mut ranks,
        devices,
        &mut grads,
    ) {}

    // Terminal snapshot: the run's exact final state (params, the
    // world's record, rank 0's attribution); resuming from it is a
    // no-op run.
    if let (Some(store), Some(rank0)) = (ctx.store, ranks.first_mut().filter(|r| r.running())) {
        if let Err(e) = store.set_final(state.snapshot(&rank0.st, &replica)) {
            let reason = format!("terminal checkpoint write failed: {e}");
            let err = TrainError::CheckpointWrite {
                reason: reason.clone(),
            };
            rank0.fail(&mut world, err, reason);
        }
    }
    let ledgers = (ranks.into_iter())
        .map(|rank| match rank.end {
            Some(e) => Err(e),
            None => Ok(rank.st.finish()),
        })
        .collect();
    (state.finish(), ledgers)
}

/// One step of every running rank; `false` once the round is over (the
/// last step done, or a collective failed).
fn step(
    ctx: &RunCtx,
    world: &mut World,
    state: &mut StepState,
    replica: &mut Replica,
    ranks: &mut [RankRun],
    devices: &[Arc<Device>],
    dense: &mut DenseGrads,
) -> bool {
    let (cfg, plan, g) = (ctx.cfg, ctx.plan, ctx.cfg.gpus);
    let Some(step) = state.next_step(replica) else {
        return false;
    };
    let at = step as usize;

    for (r, rank) in ranks.iter_mut().enumerate().filter(|(_, r)| r.running()) {
        if plan.should_die(r, at) {
            let reason = format!("rank {r} killed by fault plan at step {step}");
            let err = TrainError::PeerFailure {
                rank: r,
                reason: reason.clone(),
            };
            rank.fail(world, err, reason);
        } else if plan.should_hang(r, at) {
            // Go silent: join no collective, never abort. The next one
            // times out after the deadline (`cfg.comm.deadline`, which
            // `validate` requires here) on every rank, this one too.
            world.go_silent(r);
        } else if plan.wire_corruption_at(r) == Some(at) {
            // Arm the one-shot latch: the next frame this rank sends is
            // damaged in flight, and every decoder attributes the
            // corruption to this rank.
            world.corrupt_next_codec_frame(r);
        }
    }

    // Every rank's dense gradient is folded into the one sum the
    // moment it is made, in rank order: only the workers' buffers live.
    // Its input-gradient rows on the unique path are made and reduced a
    // block at a time in the worker's block, in `compute`; the
    // baseline's exchange gathers them from the rank's own buffer.
    let (weights, shared) = (&*replica, &*state);
    let sum = &mut dense.sum;
    let xcfg = state.xcfg();
    sum.begin(xcfg.grad_wire());
    let mut running: Vec<&mut RankRun> = ranks.iter_mut().filter(|r| r.running()).collect();
    fan_out_fold(
        &mut dense.bufs,
        &mut running,
        |rank, buf| {
            let (dense, block) = (&mut buf.dense, &mut buf.block);
            rank.out = Some(
                rank.st
                    .compute(shared, weights, dense, block, &mut rank.rows),
            );
        },
        |buf| sum.fold(&mut buf.dense),
    );

    // Stragglers: one sleep for the step's largest injected delay, so
    // every other rank really waits for it at the first collective;
    // each straggler is busy for its own delay.
    let delays: Vec<_> = ranks
        .iter()
        .enumerate()
        .filter(|(_, rank)| rank.running())
        .filter_map(|(r, _)| plan.straggler_delay(r).map(|d| (r, d)))
        .collect();
    if let Some(longest) = delays.iter().map(|&(_, d)| d).max() {
        let start = Instant::now();
        thread::sleep(longest);
        for &(r, delay) in &delays {
            ranks[r]
                .st
                .clock
                .busy(SpanKind::StragglerDelay, start, start + delay);
        }
    }

    // The step's collectives; the first failure ends the round.
    let stats = match collectives(world, state, replica, ranks, &mut dense.sum) {
        Ok(stats) => stats,
        Err(e) => {
            fail_all(ranks, &e);
            return false;
        }
    };

    // The reduced dense gradient is every rank's: apply it once.
    state.apply(replica, dense.sum.as_mut_slice());

    // Charge transient buffers against each device. Capacities (and
    // Ui-dependent buffer sizes) may differ per rank, so a one-sided
    // OOM poisons the world: the others then fail at the loss
    // reduction.
    let mut records = Vec::with_capacity(g);
    for (r, ((rank, device), (dense_wire, input, output))) in
        ranks.iter_mut().zip(devices).zip(stats).enumerate()
    {
        // Each rank's device holds its own dense gradient buffer.
        let grad_elems = if rank.out.is_some() {
            ctx.shape.0 as u64
        } else {
            0
        };
        let transient =
            input.peak_buffer_bytes + output.map_or(0, |s| s.peak_buffer_bytes) + grad_elems * 4;
        if let Err(e) = device.try_alloc(transient) {
            let reason = format!("rank {r} OOM on exchange buffers at step {step}: {e}");
            rank.fail(world, TrainError::Oom(e), reason);
        }
        records.push(rank.st.measure(step, dense_wire, input, output));
    }
    // The load is synchronised — every rank measured the same — so it
    // is priced once, for each rank's own op list.
    let paths = state.measure(records[0].load());

    // Synchronised mean loss, and the step time's two peaks over ranks
    // in the same reduction; `measure` booked its charge.
    let start = Instant::now();
    let losses = ranks
        .iter()
        .zip(&paths)
        .map(|(rank, own)| (rank.out.as_ref().map_or(0.0, |o| o.loss), *own));
    let (loss_sum, peaks) = match world.all_reduce_sum_max(losses) {
        Ok(reduced) => reduced,
        Err(e) => {
            fail_all(ranks, &e);
            return false;
        }
    };
    let end = Instant::now();
    let loss = loss_sum / g as f64;
    for (rank, record) in ranks.iter_mut().zip(records) {
        let loss_bytes = rank.st.loss_sent.total_bytes();
        rank.st
            .clock
            .joined(SpanKind::AllReduce, start, end, loss_bytes);
        let waited_ns = rank.st.clock.take_waited_ns();
        rank.st.price(state, record, loss, peaks, waited_ns);
        rank.out = None;
    }
    state.price(loss, peaks);

    // Checkpoint hooks: off the hot path unless a store is attached (a
    // default run has none — one branch per step).
    if let Some(store) = ctx.store {
        let every = cfg.checkpoint.every_steps;
        let done = step + 1;
        for (r, rank) in ranks.iter_mut().enumerate() {
            store.note_progress(r, done);
            if every > 0 && done.is_multiple_of(every) {
                if let Err(e) = store.deposit(state.snapshot(&rank.st, replica)) {
                    // A *real* storage failure (injected disk faults
                    // return Ok and stay latent until the recovery
                    // scan). Poison the world: peers must not train on
                    // while this rank cannot persist.
                    let reason = format!("checkpoint write failed: {e}");
                    let err = TrainError::CheckpointWrite {
                        reason: reason.clone(),
                    };
                    rank.fail(world, err, reason);
                }
            }
        }
    }
    true
}

/// Every rank's side of one embedding exchange: its sparse gradient and
/// scratch pool for the input table, or for a word LM's output table.
fn members<'r>(ranks: &'r mut [RankRun], output: bool) -> Vec<Member<'r>> {
    ranks
        .iter_mut()
        .map(|rank| {
            let (out, st) = (
                rank.out.as_ref().expect("every rank computed"),
                &mut rank.st,
            );
            let (indices, rows, scratch) = if output {
                let grad = out
                    .output_grad
                    .as_ref()
                    .expect("a word LM's output gradient");
                (&grad.indices, grad.rows.as_slice(), &mut st.out_scratch)
            } else {
                (&out.input_indices, &rank.rows[..], &mut st.in_scratch)
            };
            Member {
                indices,
                rows,
                scratch,
                clock: &mut st.clock,
            }
        })
        .collect()
}

/// What one rank's step collectives returned: its dense ALLREDUCE bytes
/// and its input and (word LM) output exchange stats.
type StepStats = (ReducedBytes, ExchangeStats, Option<ExchangeStats>);

/// The step's collectives between `compute` and `apply`, each once over
/// every rank: the dense ALLREDUCE of `dense` — every rank's gradient,
/// already folded in — one collective call per gradient bucket
/// (`comm.bucket_bytes`; a single whole-payload call when 0), and
/// the embedding exchanges, applied in place. Wire format and topology
/// are independent parameters of the one collective, so compressed
/// payloads ride the hierarchical route like any other. Reduction is
/// elementwise under a canonical order, so neither the slicing nor the
/// topology moves a bit. The bytes are the collectives' own: each
/// rank's exact share of the active wire schedule (a codec prices the
/// *reduced* — summed, pre-average — payload).
fn collectives(
    world: &mut World,
    state: &StepState,
    replica: &mut Replica,
    ranks: &mut [RankRun],
    dense: &mut RankSum,
) -> Result<Vec<StepStats>, CommError> {
    world.meet()?;
    let (xcfg, lr) = (state.xcfg(), state.exchange_lr());

    let start = Instant::now();
    let dense_wire = all_reduce_folded(world, dense, &xcfg)?;
    let end = Instant::now();
    for (rank, wire) in ranks.iter_mut().zip(&dense_wire) {
        let bytes = wire.sent.total_bytes();
        rank.st.clock.joined(SpanKind::AllReduce, start, end, bytes);
    }

    let table = replica.input_table();
    let input = exchange_world(world, &mut members(ranks, false), table, lr, &xcfg)?;
    let mut output = match replica.output_table() {
        Some(table) => {
            let stats = exchange_world(world, &mut members(ranks, true), table, lr, &xcfg)?;
            Some(stats.into_iter())
        }
        None => None,
    };
    Ok(dense_wire
        .into_iter()
        .zip(input)
        .map(|(dense, input)| (dense, input, output.as_mut().and_then(Iterator::next)))
        .collect())
}

/// Seed-domain separator for the train/valid split stream.
const SPLIT_SEED: u64 = 0x5b11_7000_5b11_7000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MemoryBackend;
    use crate::config::{CheckpointConfig, CommConfig, Method, MetricsConfig, TraceConfig};
    use crate::metrics::TimeAttribution;
    use crate::seeding::SeedStrategy;
    use perfmodel::TechniqueStack;

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
        for stack in TechniqueStack::all() {
            let cfg = quick_cfg(ModelKind::Word { vocab: 200 }, 2, stack.into());
            let rep = train(&cfg).expect("train");
            assert_eq!(rep.epochs.len(), 1);
            assert!(rep.epochs[0].train_loss.is_finite());
            assert!(rep.epochs[0].valid_ppl().is_finite());
            assert_eq!(rep.steps.len(), 4);
        }
    }

    #[test]
    fn char_training_runs() {
        let cfg = quick_cfg(ModelKind::Char { vocab: 64 }, 2, Method::unique());
        let rep = train(&cfg).expect("train");
        assert!(rep.epochs[0].valid_bpc().is_finite());
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
            uniq.traffic.allgather_bytes() < base.traffic.allgather_bytes(),
            "unique {} vs baseline {}",
            uniq.traffic.allgather_bytes(),
            base.traffic.allgather_bytes()
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

    /// Widths 1, 2, 3 and 5 over 7 and 48 items: every item computed
    /// once, folded in item order, never more results alive than the
    /// width, and no buffer but the width's own.
    #[test]
    fn fan_out_folds_in_order_with_one_buffer_per_worker() {
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        for width in [1usize, 2, 3, 5] {
            for n in [7usize, 48] {
                let mut items: Vec<usize> = (0..n).collect();
                let mut bufs = vec![Vec::new(); width];
                let (alive, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let seen = Mutex::new(HashSet::new());
                let mut folded = Vec::new();
                fan_out_fold(
                    &mut bufs,
                    &mut items,
                    |item, buf| {
                        buf.clear();
                        buf.resize(16, *item as f32);
                        seen.lock().unwrap().insert(buf.as_ptr() as usize);
                        let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                    },
                    |grad| {
                        alive.fetch_sub(1, Ordering::SeqCst);
                        assert!(grad.iter().all(|&x| x == grad[0]));
                        folded.push(grad[0] as usize);
                    },
                );
                let ctx = format!("width {width}, {n} items");
                assert_eq!(folded, (0..n).collect::<Vec<_>>(), "{ctx}");
                assert!(peak.into_inner() <= width, "{ctx}: results alive");
                assert!(seen.into_inner().unwrap().len() <= width, "{ctx}: buffers");
                assert!(bufs.iter().all(|b| b.len() == 16), "{ctx}: buffers kept");
            }
        }
    }

    #[test]
    fn fan_out_surfaces_a_workers_panic() {
        let mut items: Vec<usize> = (0..9).collect();
        let mut bufs = vec![Vec::new(); 3];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fan_out_fold(
                &mut bufs,
                &mut items,
                |item, buf| {
                    assert_ne!(*item, 5, "item five fails");
                    buf.push(*item as f32);
                },
                |_| {},
            );
        }));
        let panic = caught.expect_err("the worker's panic surfaces");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("item five fails"), "{message}");
    }

    /// Every field of a round's per-rank results a run determines —
    /// wall-clock fields zeroed — rendered with `Debug`.
    fn deterministic(ranks: Vec<Result<TrainReport, TrainError>>) -> String {
        let ranks: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                rank.map(|mut rep| {
                    for s in &mut rep.steps {
                        s.barrier_wait_wall_ns = 0;
                        s.input_exchange.timings = Default::default();
                        if let Some(out) = &mut s.output_exchange {
                            out.timings = Default::default();
                        }
                    }
                    rep.trace = None;
                    rep
                })
            })
            .collect();
        format!("{ranks:?}")
    }

    /// The driver's fan-out at explicit widths 1, 2, 3 and 5 over 7 and
    /// 48 ranks — whatever the host's cores, which cap the width `run`
    /// asks for — gives the same reports: losses, traffic, simulated
    /// time, and the same failure under a kill.
    #[test]
    fn fan_out_width_moves_no_bit_of_any_report() {
        let mut word = quick_cfg(ModelKind::Word { vocab: 100 }, 7, Method::full());
        word.comm.gpus_per_node = 3;
        word.comm.hierarchical = true;
        let cases = [
            (
                quick_cfg(ModelKind::Char { vocab: 32 }, 7, Method::unique()),
                None,
            ),
            (
                quick_cfg(ModelKind::Char { vocab: 32 }, 48, Method::full()),
                None,
            ),
            (word.clone(), None),
            (word, Some(FaultPlan::none().kill_rank(3, 2))),
        ];
        for (cfg, plan) in cases {
            let plan = plan.unwrap_or_else(FaultPlan::none);
            let data = prepare_data(&cfg);
            let round = |workers| {
                let ranks = run_round(&cfg, &data, u64::MAX / 4, &plan, None, None, workers);
                deterministic(ranks)
            };
            let one = round(1);
            let killed = "rank 3 killed by fault plan at step 2";
            assert!(one.contains("train_loss") || one.contains(killed), "{one}");
            for width in [2, 3, 5] {
                assert!(round(width) == one, "width {width}, {} ranks", cfg.gpus);
            }
        }
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
        // Trainer-level exactness: the report's ALLREDUCE bytes are the
        // bytes every rank's steps claim — summed over all ranks and
        // steps, with no epsilon, at a ragged world (5 ranks on 2-GPU
        // nodes: 2 + 2 + 1). Char LM ⇒ one dense ALLREDUCE, one unique
        // input exchange and one scalar loss reduce per step.
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
                // The exchange's ALLREDUCE share (its index gather is
                // ALLGATHER traffic).
                expected += s.input_exchange.sent.allreduce_bytes();
                // The synchronised mean loss: 8 bytes to every peer.
                expected += simgpu::peer_exchange_tier_bytes(g, gpn, r, 8).total();
            }
        }
        let snap = &reports[0].traffic;
        assert_eq!(snap.allreduce_bytes(), expected);
        assert_eq!(
            snap.allreduce_bytes(),
            snap.allreduce_intra_bytes + snap.allreduce_inter_bytes
        );
        assert!(snap.allreduce_inter_bytes > 0, "leaders must cross nodes");
        assert!(snap.allreduce_intra_bytes > 0);
    }

    #[test]
    fn fleet_metrics_are_stamped_once_from_the_joined_ranks_records() {
        // Three ranks, four steps; rank 2 is busy 4× as long, and the
        // trace rings of ranks 1 and 2 overflowed.
        let report = |busy: u64, dropped: u64| Ledger {
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
        let ledgers = vec![Ok(report(100, 0)), Ok(report(100, 5)), Ok(report(400, 7))];
        let results = reports(TrainReport::default(), 0, true, ledgers);
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

        // A round with a failed rank has no complete busy table: nobody
        // gets straggler findings, the survivors still get their
        // truncation findings, and rank 0 still answers for them.
        let failed = TrainError::PeerFailure {
            rank: 1,
            reason: "killed".to_owned(),
        };
        let ledgers = vec![Ok(report(400, 0)), Err(failed), Ok(report(100, 7))];
        let results = super::reports(TrainReport::default(), 0, true, ledgers);
        assert_eq!(results[0].as_ref().unwrap().health, [truncated(2, 7)]);
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().unwrap().health, [truncated(2, 7)]);
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

    /// Compute is priced for the model the rank trains: a word model
    /// asking for more sampled-softmax candidates than half its resolved
    /// vocabulary trains the clamped count, so it trains and is priced
    /// exactly like the same config asking for the clamped count.
    #[test]
    fn compute_is_priced_for_the_resolved_model() {
        let mut mc = nn::model::WordLmConfig::small(200);
        mc.samples = 150;
        let asked = quick_cfg(ModelKind::WordCustom(mc), 2, Method::unique());
        let resolved = asked.model.resolved(prepare_data(&asked).model_vocab);
        assert!(resolved.word_config().samples < mc.samples, "{resolved:?}");
        let clamped = TrainConfig {
            model: resolved,
            ..asked.clone()
        };
        let (a, c) = (
            train(&asked).expect("train"),
            train(&clamped).expect("train"),
        );
        assert!(!a.steps.is_empty());
        for (a, c) in a.steps.iter().zip(&c.steps) {
            assert_eq!(
                a.train_loss.to_bits(),
                c.train_loss.to_bits(),
                "step {}",
                a.step
            );
            assert_eq!(a.attribution, c.attribution, "step {}", a.step);
            assert_eq!(a.sim_time_ps, c.sim_time_ps, "step {}", a.step);
        }
    }

    /// `restore` and `snapshot` are one map read both ways: the snapshot
    /// of a state just restored from a checkpoint serialises to that
    /// checkpoint's bytes — at a mid-epoch cut carrying epoch history
    /// and at the terminal cut, for both model kinds — so a field
    /// restored but not snapshotted (or the reverse) fails here, not
    /// only in the end-to-end elastic suite.
    #[test]
    fn snapshot_of_a_restored_state_is_the_checkpoint() {
        for model in [
            ModelKind::Word { vocab: 150 },
            ModelKind::Char { vocab: 32 },
        ] {
            let mut cfg = quick_cfg(model, 2, Method::unique());
            cfg.epochs = 2;
            cfg.checkpoint = CheckpointConfig::every(3);
            let backend = Arc::new(MemoryBackend::new(4));
            let opts = RunOptions {
                checkpoints: Some(backend.clone()),
                ..RunOptions::default()
            };
            let terminal = run(&cfg, &opts).final_checkpoint.expect("terminal cut");
            // Step 6 of 2 × 4: two steps into epoch 1, after epoch 0's
            // validation.
            let mid = backend.load(0, 6).expect("mid-epoch cut");
            assert_eq!((mid.epoch, mid.step_in_epoch), (1, 2));
            assert_eq!(mid.metrics.epochs.len(), 1);
            // The epoch history is the world's: every rank deposits it.
            let peer = backend.load(1, 6).expect("rank 1's cut");
            assert_eq!(peer.metrics.epochs, mid.metrics.epochs);
            assert_eq!(terminal.epoch, 2);

            let data = prepare_data(&cfg);
            let cost = CostModel::new(HardwareConfig::titan_x_cluster(), cfg.model.utilization());
            let plan = FaultPlan::none();
            let model = cfg.model.resolved(data.model_vocab);
            let replica = Replica::new(&model, cfg.seed);
            let ctx = RunCtx {
                cfg: &cfg,
                data: &data,
                model,
                shape: replica.shape(),
                params: replica.param_vector_len(),
                cost: &cost,
                plan: &plan,
                store: None,
                resume: None,
                gpn: cost.hardware().gpus_per_node,
            };
            for ck in [mid, terminal] {
                let ctx = RunCtx {
                    resume: Some(&ck),
                    ..ctx
                };
                let (mut state, st) =
                    (StepState::new(&ctx), LoopState::new(&ctx, ck.rank as usize));
                let mut weights = replica.clone();
                state
                    .restore(&ck, &mut weights)
                    .expect("a checkpoint of this run");
                let what = format!("{model:?} step {}", ck.step);
                assert_eq!(
                    state.snapshot(&st, &weights).to_bytes(),
                    ck.to_bytes(),
                    "{what}"
                );
            }
        }
    }
}
