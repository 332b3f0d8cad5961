//! The distributed trainer: synchronous data-parallel SGD over simulated
//! GPUs, with the paper's exchange stack in the loop.
//!
//! One OS thread per simulated GPU (mirroring the paper's one-GPU-per-
//! MPI-process setup). A step is rank-local phases — methods of the
//! private `step::LoopState`, which never touch the communicator — with
//! `run_rank`'s collectives (→) between them:
//!
//! 1. `compute`: the shard's next batch, forward/backward;
//!    → the dense gradients (LSTM/RHN + projection) ALLREDUCEd — the
//!    part vision models already do well (§II-B);
//!    → the input-embedding sparse gradient, and a word LM's
//!    output-embedding one (candidates drawn under the configured
//!    [`crate::seeding::SeedStrategy`]), exchanged and applied via the
//!    configured [`crate::ExchangeConfig`] (baseline ALLGATHER vs
//!    uniqueness), their transient buffers charged to the simulated
//!    device (this is where the baseline OOMs, Tables III/IV);
//! 2. `apply`: the dense gradient averaged and applied;
//!    → the loss ALLREDUCE;
//! 3. `price`: the step on the α–β clock in integer picoseconds — every
//!    rank reads the same per-rank work table and takes the max
//!    (synchronous SGD), then splits its own share into the exact
//!    [`crate::TimeAttribution`] buckets (compute, wire, barrier wait,
//!    injected skew, own delay) — and recorded;
//!    → a checkpoint deposit, when due;
//! 4. `end_epoch` after an epoch's last step (rank 0 validates), and
//!    `finish` after the run's.
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

mod step;

use crate::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use crate::config::{DatasetId, ModelKind, TrainConfig};
use crate::elastic::{self, RecoveryPolicy};
use crate::exchange::{all_reduce_bucketed, exchange_and_apply_traced, ExchangeScratch};
use crate::metrics::{self, HealthEvent, RecoveryEvent, StepMetrics, TrainReport};
use corpus::{train_valid_split, CorpusGenerator, TokenUnit, Vocab};
use nn::{Embedding, SparseGrad};
use simgpu::{
    CommError, CommGroup, CostModel, Device, FaultPlan, HardwareConfig, OomError, Rank, SpanKind,
    TrafficSnapshot,
};
use std::fmt;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use step::LoopState;

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
    /// Resolved GPUs per node — the communicator's node layout.
    gpn: usize,
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
    // between the intra/inter tiers and selects the hierarchical wire
    // schedule — it never changes results. A nonzero `pool_workers`
    // additionally bounds how many rank threads run concurrently (see
    // `simgpu::RunGate`), which is what lets paper-scale worlds of
    // 48–192 ranks train on a small machine.
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
        gpn,
    };
    let mut results: Vec<Result<TrainReport, TrainError>> = simgpu::run_ranks(ranks, |rank| {
        let device = Arc::clone(&devices[rank.rank()]);
        run_rank(rank, device, &ctx)
    });

    let peak_mem = devices.iter().map(|d| d.peak()).max().unwrap_or(0);
    // Every rank's sends, summed. Ops count group calls, which every
    // rank's ledger counts alike, so they are any one rank's.
    let traffic = results
        .iter()
        .flatten()
        .map(|report| report.traffic)
        .reduce(|mut sum, rank| {
            sum += TrafficSnapshot {
                allreduce_ops: 0,
                allgather_ops: 0,
                ..rank
            };
            sum
        })
        .unwrap_or_default();
    for report in results.iter_mut().flatten() {
        report.peak_mem_bytes = peak_mem;
        report.traffic = traffic;
        report.gpus = cfg.gpus;
    }
    if cfg.metrics.enabled {
        stamp_fleet_metrics(&mut results);
    }
    results
}

/// Health findings for one joined round, folds over the ranks' step
/// records: the one straggler list (it needs every rank's busy time, so
/// a round with a failed rank has none), each rank's trace-truncation
/// finding, and — onto rank 0's report, so one report answers for the
/// whole world — the other ranks' findings.
fn stamp_fleet_metrics(results: &mut [Result<TrainReport, TrainError>]) {
    let records: Option<Vec<&[StepMetrics]>> = results
        .iter()
        .map(|res| res.as_ref().ok().map(|rep| rep.steps.as_slice()))
        .collect();
    let stragglers = records.map_or_else(Vec::new, |r| metrics::stragglers(&r));
    let mut truncated_peers: Vec<HealthEvent> = Vec::new();
    for (r, res) in results.iter_mut().enumerate() {
        let Ok(rep) = res else { continue };
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

/// One rank's step loop — the only step-loop code that touches the
/// communicator or the device. Everything between its collectives is a
/// phase of [`LoopState`], which communicates nothing.
fn run_rank(mut rank: Rank, device: Arc<Device>, ctx: &RunCtx) -> Result<TrainReport, TrainError> {
    let (cfg, plan, r, g) = (ctx.cfg, ctx.plan, rank.rank(), ctx.cfg.gpus);
    let mut st = LoopState::new(ctx, r);
    let xcfg = st.sched.xcfg;

    // Tracing and metrics both record the step's barrier-wait wall time
    // (`StepMetrics::barrier_wait_wall_ns`), so either turns the
    // communicator's wait accounting on (before the abort guard borrows
    // `rank`).
    if cfg.trace.enabled || cfg.metrics.enabled {
        rank.enable_wait_tracking();
    }

    // Safety net: if this rank unwinds (an `?` below, a panic in the
    // model code) the armed guard poisons the group, so peers error out
    // of their next collective instead of hanging. Known failure sites
    // additionally abort with a precise reason first — first failure
    // wins, so the guard's generic reason only surfaces for surprises.
    let guard = rank.abort_on_drop(format!("rank {r} exited the step loop early"));

    // Persistent model memory: parameters + gradients + a modelled
    // optimiser slot, FP32.
    let param_bytes = perfmodel::memory::replica_bytes(st.replica.param_vector_len() as u64);
    let _model_alloc = device.try_alloc(param_bytes).map_err(|e| {
        rank.abort(format!("rank {r} OOM on model parameters: {e}"));
        TrainError::Oom(e)
    })?;
    if let Some(ck) = ctx.resume {
        st.restore(ck).map_err(|reason| {
            rank.abort(reason.clone());
            TrainError::InvalidCheckpoint { reason }
        })?;
    }

    while let Some(step) = st.next_step() {
        if plan.should_die(r, step as usize) {
            let reason = format!("rank {r} killed by fault plan at step {step}");
            rank.abort(reason.clone());
            return Err(TrainError::PeerFailure { rank: r, reason });
        }
        if plan.should_hang(r, step as usize) {
            // Go silent: stop calling collectives but never abort.
            // Peers hang at their next barrier until the deadline
            // (`cfg.comm.deadline`, which `validate` requires here)
            // poisons the group with `CommError::Timeout`; this rank
            // then observes the poison and returns the same typed error
            // instead of parking forever.
            loop {
                rank.check_abort()?;
                thread::sleep(Duration::from_millis(1));
            }
        }
        if plan.wire_corruption_at(r) == Some(step as usize) {
            // Arm the one-shot latch: the next codec frame this rank
            // publishes is damaged in flight and every decoder
            // attributes the corruption to this rank.
            rank.corrupt_next_codec_frame();
        }
        if let Some(delay) = plan.straggler_delay(r) {
            st.traced(SpanKind::StragglerDelay, |_| thread::sleep(delay), |_| 0);
        }

        let mut out = st.compute();

        // Dense ALLREDUCE, one collective call per gradient bucket
        // (`comm.bucket_bytes`; a single whole-payload call when 0).
        // Wire format and topology are independent parameters of the one
        // collective, so compressed payloads ride the hierarchical route
        // like any other. Reduction is elementwise under a canonical
        // leader order, so neither the slicing nor the topology moves a
        // bit. The bytes are the collective's own: this rank's exact
        // share of the active wire schedule (a codec prices the
        // *reduced* — summed, pre-average — payload).
        let dense = &mut out.dense;
        let dense_wire = st.traced(
            SpanKind::AllReduce,
            |_| all_reduce_bucketed(&rank, dense, &xcfg),
            |res| res.as_ref().map_or(0, |w| w.sent.total_bytes()),
        )?;

        // Embedding exchanges, applied in place.
        let lr = st.exchange_lr();
        let mut exchange = |g: &SparseGrad, t: &mut Embedding, s: &mut ExchangeScratch| {
            exchange_and_apply_traced(&rank, g, t, lr, &xcfg, s, st.recorder.as_mut())
        };
        let input = exchange(
            &out.input_grad,
            st.replica.input_table(),
            &mut st.in_scratch,
        )?;
        let output = match (&out.output_grad, st.replica.output_table()) {
            (Some(grad), Some(table)) => Some(exchange(grad, table, &mut st.out_scratch)?),
            _ => None,
        };

        // Charge transient buffers against the device. Capacities (and
        // Ui-dependent buffer sizes) may differ per rank, so a one-sided
        // OOM must poison the group: peers then error out of the loss
        // reduction below instead of deadlocking.
        let transient = input.peak_buffer_bytes
            + output.map_or(0, |s| s.peak_buffer_bytes)
            + out.dense.len() as u64 * 4;
        drop(device.try_alloc(transient).map_err(|e| {
            rank.abort(format!(
                "rank {r} OOM on exchange buffers at step {step}: {e}"
            ));
            TrainError::Oom(e)
        })?);

        st.apply(&mut out.dense);
        let (record, own) = st.measure(dense_wire, input, output);

        // Synchronised mean loss, and the step time's two peaks over
        // ranks in the same rendezvous; `measure` booked its charge.
        let loss_bytes = st.loss_sent.total_bytes();
        let (loss_sum, peaks) = st.traced(
            SpanKind::AllReduce,
            |_| rank.all_reduce_sum_max(out.loss, own),
            |_| loss_bytes,
        )?;

        // The step's barrier-wait wall-clock (0 unless tracked), drained
        // once and shared: the tracer gets its span, the step record its
        // field.
        let waited_ns = rank.take_barrier_wait_ns();
        st.price(record, loss_sum / g as f64, peaks, waited_ns);

        // Checkpoint hooks: off the hot path unless a store is attached
        // (a default run has none — one branch per step).
        if let Some(store) = ctx.store {
            store.note_progress(r, st.global_step);
            let every = cfg.checkpoint.every_steps;
            if every > 0 && st.global_step.is_multiple_of(every) {
                if let Err(e) = store.deposit(st.snapshot()) {
                    // A *real* storage failure (injected disk faults
                    // return Ok and stay latent until the recovery
                    // scan). Poison the group: peers must not train on
                    // while this rank cannot persist.
                    let reason = format!("checkpoint write failed: {e}");
                    rank.abort(reason.clone());
                    return Err(TrainError::CheckpointWrite { reason });
                }
            }
        }
    }

    // Terminal snapshot: the run's exact final state (params + full
    // epoch history). Rank 0's copy is authoritative — it alone carries
    // the validation history — and resuming from it is a no-op run.
    if let Some(store) = ctx.store.filter(|_| r == 0) {
        if let Err(e) = store.set_final(st.snapshot()) {
            let reason = format!("terminal checkpoint write failed: {e}");
            rank.abort(reason.clone());
            return Err(TrainError::CheckpointWrite { reason });
        }
    }
    guard.disarm();
    Ok(st.finish())
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
                expected += s.input_exchange.sent.allreduce_bytes;
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
        stamp_fleet_metrics(&mut results);
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
        let mut results = vec![Ok(report(400, 0)), Err(failed), Ok(report(100, 7))];
        stamp_fleet_metrics(&mut results);
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
            assert_eq!(terminal.epoch, 2);

            let (train, valid, model_vocab) = prepare_data(&cfg);
            let cost = CostModel::new(HardwareConfig::titan_x_cluster(), cfg.model.utilization());
            let plan = FaultPlan::none();
            let ctx = RunCtx {
                cfg: &cfg,
                model_vocab,
                train_tokens: &train,
                valid_tokens: &valid,
                cost: &cost,
                plan: &plan,
                store: None,
                resume: None,
                gpn: cost.hardware().gpus_per_node,
            };
            for ck in [mid, terminal] {
                let mut st = LoopState::new(&ctx, ck.rank as usize);
                st.restore(&ck).expect("a checkpoint of this run");
                let what = format!("{model:?} step {}", ck.step);
                assert_eq!(st.snapshot().to_bytes(), ck.to_bytes(), "{what}");
            }
        }
    }
}
