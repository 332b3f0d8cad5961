//! One rank's training step as phases that communicate nothing.
//!
//! [`LoopState`] is everything a rank carries from one step to the next:
//! the replica, the learning rate and step counter, the epoch cursor
//! (epoch, step within it, its partial loss and simulated time), the
//! exchange scratch pools, the clock's hoisted buffers and the trace
//! recorder. Its methods are the rank-local work of a step;
//! the parent module's `run_rank` calls them with the collectives, the
//! device charges and the checkpoint deposits in between, so nothing in
//! this file can block on a peer — the shape a lockstep driver needs to
//! call each phase over every rank in turn.
//!
//! The simulated clock lives here too: [`StepSchedule`] prices one
//! step's collectives for any rank, and [`StepSchedule::clock`] turns
//! every rank's critical path into this rank's [`TimeAttribution`].

use super::RunCtx;
use crate::checkpoint::{Checkpoint, CheckpointMetrics, Fingerprint};
use crate::config::{ModelKind, TrainConfig};
use crate::eval::{char_valid_loss, word_valid_loss};
use crate::exchange::{ExchangeConfig, ExchangeScratch, ExchangeStats};
use crate::metrics::{EpochMetrics, RunTotals, StepMetrics, TimeAttribution, TrainReport};
use crate::schedule::{self, CommOp, ReducedBytes};
use corpus::batch::BatchIter;
use corpus::{shard_batches, BatchSpec};
use nn::model::SeqBatch;
use nn::optimizer::scaled_lr;
use nn::{CharLm, WordLm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{
    secs_to_ps, CostModel, SimSpan, SimStream, SpanKind, TierCost, Topology, TraceRecorder,
    TrafficSnapshot,
};
use std::sync::{Mutex, PoisonError};

/// Maximum validation batches evaluated per epoch (the full validation
/// stream is used when it is smaller).
const EVAL_BATCHES: usize = 48;

/// Ring-buffer capacity of each rank's trace recorder: beyond this the
/// oldest events are overwritten (counted in the log's `dropped`).
const TRACE_EVENTS_PER_RANK: usize = 65_536;

/// Seed-domain separator for sampled-softmax candidate streams.
const SAMPLE_SEED: u64 = 0x5eed_5eed_5eed_5eed;

/// One rank's training replica: either model kind behind one interface.
pub(super) enum Replica {
    Word(WordLm),
    Char(CharLm),
}

/// What one forward/backward pass produced: the local loss and the
/// gradients the step's collectives reduce.
pub(super) struct StepOutcome {
    pub(super) loss: f64,
    pub(super) dense: Vec<f32>,
    pub(super) input_grad: nn::SparseGrad,
    pub(super) output_grad: Option<nn::SparseGrad>,
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

    pub(super) fn input_table(&mut self) -> &mut nn::Embedding {
        match self {
            Replica::Word(m) => m.input_embedding_mut(),
            Replica::Char(m) => m.input_embedding_mut(),
        }
    }

    pub(super) fn output_table(&mut self) -> Option<&mut nn::Embedding> {
        match self {
            Replica::Word(m) => Some(m.output_embedding_mut()),
            Replica::Char(_) => None,
        }
    }

    /// What the step's collectives carry: the dense gradient's length
    /// and the input and output tables' row widths (the char LM has no
    /// output table; its width is then never read).
    fn shape(&self) -> (usize, usize, usize) {
        match self {
            Replica::Word(m) => {
                let c = m.config();
                (m.dense_param_count(), c.embed_dim, c.proj_dim)
            }
            Replica::Char(m) => {
                let c = m.config();
                (m.dense_param_count(), c.embed_dim, c.embed_dim)
            }
        }
    }

    pub(super) fn param_vector_len(&self) -> usize {
        match self {
            Replica::Word(m) => m.param_vector_len(),
            Replica::Char(m) => m.param_vector_len(),
        }
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

/// One rank's step-loop state: what a snapshot captures and a restore
/// puts back, plus the run-local buffers and telemetry around it.
pub(super) struct LoopState<'a> {
    ctx: &'a RunCtx<'a>,
    rank: usize,
    pub(super) replica: Replica,
    /// The exact learning rate in effect (decayed per epoch).
    lr: f32,
    pub(super) global_step: u64,
    report: TrainReport,
    /// Run totals at the resume point (zero on a fresh start); the
    /// totals now are this plus the fold over `report.steps`.
    base: RunTotals,
    /// The epoch in progress; `cfg.epochs` once the run is done.
    epoch: usize,
    /// Steps completed within `epoch`.
    step_in_epoch: u64,
    /// `epoch`'s partial loss sum and simulated picoseconds.
    epoch_loss: f64,
    epoch_time_ps: u64,
    /// Steps per epoch: `cfg.steps_per_epoch`, or one pass over this
    /// rank's shard when that is 0.
    epoch_steps: u64,
    /// Per-table scratch pools: after the first step every exchange runs
    /// allocation-free on reused buffers.
    pub(super) in_scratch: ExchangeScratch,
    pub(super) out_scratch: ExchangeScratch,
    /// The round's step pricing; [`Self::price`] sets its load per step.
    pub(super) sched: StepSchedule<'a>,
    /// Hoisted op buffer and every rank's critical path (see
    /// [`StepSchedule`]), so the clock stays allocation-free once warm.
    ops: Vec<CommOp>,
    work_ps: Vec<u64>,
    /// Cumulative simulated time — the base offset of this step's spans
    /// on the simulated timeline (`TrainReport::sim_spans`).
    sim_clock_ps: u64,
    /// Opt-in tracing: a per-rank ring recorder. When disabled, nothing
    /// allocates and every trace site is one `None` branch.
    pub(super) recorder: Option<TraceRecorder>,
}

impl<'a> LoopState<'a> {
    /// The state of rank `rank` at step 0 of a fresh run.
    pub(super) fn new(ctx: &'a RunCtx<'a>, rank: usize) -> Self {
        let cfg = ctx.cfg;
        let g = cfg.gpus;
        let replica = Replica::new(cfg, ctx.model_vocab);
        let (dense_elems, dim, out_dim) = replica.shape();
        let flops = cfg.model.flops_per_step(cfg.local_batch_tokens());
        let sched = StepSchedule {
            cost: ctx.cost,
            // The exchange inherits the node layout only when the
            // hierarchical schedule is on, so `comm.hierarchical =
            // false` keeps every collective on the flat ring.
            xcfg: ExchangeConfig {
                unique: cfg.method.unique,
                compression: cfg.method.compression,
                gpus_per_node: if cfg.comm.hierarchical { ctx.gpn } else { 0 },
                bucket_bytes: cfg.comm.bucket_bytes,
                codec: cfg.comm.codec,
            },
            gpus: g,
            gpn: ctx.gpn,
            overlap: cfg.comm.overlap,
            compute_ps: secs_to_ps(ctx.cost.compute_time(flops)),
            dense_elems,
            dim,
            out_dim,
            delay_ps: (0..g)
                .map(|q| {
                    ctx.plan.straggler_delay(q).map_or(0, |d| {
                        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX / 2000) * 1000
                    })
                })
                .collect(),
            load: StepLoad::default(),
        };
        LoopState {
            ctx,
            rank,
            // LR scaling stays a property of the hardware preset, not of
            // the topology override — topology must never change results.
            lr: scaled_lr(cfg.base_lr, g, ctx.cost.hardware().gpus_per_node),
            replica,
            global_step: 0,
            report: TrainReport::default(),
            base: RunTotals::default(),
            epoch: 0,
            step_in_epoch: 0,
            epoch_loss: 0.0,
            epoch_time_ps: 0,
            epoch_steps: match cfg.steps_per_epoch {
                0 => shard(ctx, rank).len(),
                n => n,
            } as u64,
            in_scratch: ExchangeScratch::new(),
            out_scratch: ExchangeScratch::new(),
            sched,
            ops: Vec::new(),
            work_ps: vec![0; g],
            sim_clock_ps: 0,
            recorder: cfg
                .trace
                .enabled
                .then(|| TraceRecorder::new(rank as u32, TRACE_EVENTS_PER_RANK)),
        }
    }

    /// Puts `ck` back: parameters, counters, the exact learning rate,
    /// the epoch cursor and every deterministic accumulator — the exact
    /// inverse of [`Self::snapshot`]. No RNG state exists to restore:
    /// the corpus and split are regenerated from `cfg.seed` and
    /// sampled-softmax streams are re-seeded from `global_step` each
    /// step, so from here the run is bit-identical to one that never
    /// stopped. Per-step telemetry (`TrainReport::steps`, traffic,
    /// traces) restarts here by design; it is wall-clock or run-local.
    /// `Err` is the reason a snapshot from another layout (or built by
    /// hand — `Checkpoint`'s fields are public) is refused: the
    /// fingerprint pins the dimensions, not the flat layout's length.
    pub(super) fn restore(&mut self, ck: &Checkpoint) -> Result<(), String> {
        // World, rank and fingerprint were validated by the caller.
        let (have, want) = (ck.params.len(), self.replica.param_vector_len());
        if have != want {
            return Err(format!(
                "checkpoint holds {have} parameters, this configuration's model has {want}"
            ));
        }
        let metrics = &ck.metrics;
        self.replica.load_param_vector(&ck.params);
        self.lr = ck.lr;
        self.global_step = ck.step;
        self.epoch = ck.epoch as usize;
        self.step_in_epoch = ck.step_in_epoch;
        self.epoch_loss = metrics.epoch_loss;
        self.epoch_time_ps = metrics.epoch_time_ps;
        self.report.epochs = metrics.epochs.clone();
        self.base = RunTotals {
            attribution: metrics.attribution,
            unique_sum: metrics.unique_sum,
            unique_count: metrics.unique_count,
        };
        Ok(())
    }

    /// A bit-exact snapshot at the current step boundary. Only
    /// deterministic quantities are captured — see the module docs of
    /// [`crate::checkpoint`] for what is deliberately excluded.
    pub(super) fn snapshot(&self) -> Checkpoint {
        let cfg = self.ctx.cfg;
        let totals = self.totals();
        Checkpoint {
            world: cfg.gpus as u32,
            rank: self.rank as u32,
            step: self.global_step,
            epoch: self.epoch as u32,
            step_in_epoch: self.step_in_epoch,
            lr: self.lr,
            fingerprint: Fingerprint::of(cfg, self.ctx.model_vocab),
            params: self.replica.param_vector(),
            metrics: CheckpointMetrics {
                epochs: self.report.epochs.clone(),
                epoch_loss: self.epoch_loss,
                epoch_time_ps: self.epoch_time_ps,
                unique_sum: totals.unique_sum,
                unique_count: totals.unique_count,
                attribution: totals.attribution,
            },
        }
    }

    /// The run totals so far: *resume base + Σ steps*.
    fn totals(&self) -> RunTotals {
        self.base
            .plus(&self.report.steps, self.ctx.cfg.method.unique)
    }

    /// Opens the next step and returns its global index, first closing
    /// the epoch in progress once its steps are done; `None` after the
    /// last epoch.
    pub(super) fn next_step(&mut self) -> Option<u64> {
        let epochs = self.ctx.cfg.epochs;
        while self.epoch < epochs && self.step_in_epoch >= self.epoch_steps {
            self.end_epoch();
        }
        if self.epoch >= epochs {
            return None;
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.set_step(self.global_step);
        }
        Some(self.global_step)
    }

    /// Runs `f`; under tracing, records its wall time as one `kind` span
    /// carrying `bytes` of its result.
    pub(super) fn traced<T>(
        &mut self,
        kind: SpanKind,
        f: impl FnOnce(&Self) -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> T {
        let t0 = self.recorder.as_ref().map(TraceRecorder::now_ns);
        let out = f(self);
        if let (Some(rec), Some(t0)) = (self.recorder.as_mut(), t0) {
            rec.record_since(kind, t0, bytes(&out));
        }
        out
    }

    /// Phase 1: draws this rank's next batch and runs forward/backward.
    /// The shard's batches are drawn in order, over and over, so the
    /// step in progress names its batch — which is what lands a resumed
    /// epoch on exactly the batch the interrupted run would have drawn.
    pub(super) fn compute(&mut self) -> StepOutcome {
        let cfg = self.ctx.cfg;
        let mut batches = shard(self.ctx, self.rank);
        let pos = self.step_in_epoch as usize % batches.len().max(1);
        let batch = batches.nth(pos).expect("shard emptied unexpectedly");
        let sb =
            SeqBatch::from_lane_major(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
        let seed = cfg.method.seeding.seed_for(
            cfg.seed ^ SAMPLE_SEED,
            self.rank,
            cfg.gpus,
            self.global_step,
        );
        self.traced(SpanKind::Compute, |st| st.replica.step(&sb, seed), |_| 0)
    }

    /// The embedding exchanges' learning rate: applied with `lr/G`, the
    /// exchanged sum becomes an average.
    pub(super) fn exchange_lr(&self) -> f32 {
        self.lr * (1.0 / self.ctx.cfg.gpus as f32)
    }

    /// Phase 2: averages the ALLREDUCEd dense gradient over the world and
    /// applies it.
    pub(super) fn apply(&mut self, dense: &mut [f32]) {
        let inv_g = 1.0 / self.ctx.cfg.gpus as f32;
        dense.iter_mut().for_each(|v| *v *= inv_g);
        self.replica.apply_dense(dense, self.lr);
    }

    /// Phase 3: prices the step on the simulated clock and records it.
    /// Synchronous SGD: the step ends when the slowest rank arrives, so
    /// every rank builds the same [`StepSchedule`] from the step's
    /// synchronised payloads, reads every rank's critical path off the
    /// round's shared table and takes the max. The resulting `T` is
    /// identical on all ranks; its attribution is this rank's own.
    /// `barrier_wait_wall_ns` is the wall time the step's collectives
    /// parked in barriers, drained into one synthetic span ending now.
    pub(super) fn price(
        &mut self,
        loss: f64,
        dense_wire: ReducedBytes,
        input: ExchangeStats,
        output: Option<ExchangeStats>,
        barrier_wait_wall_ns: u64,
    ) {
        if let Some(rec) = self.recorder.as_mut() {
            let end = rec.now_ns();
            let start = end.saturating_sub(barrier_wait_wall_ns);
            rec.record(SpanKind::BarrierWait, start, end, 0);
        }
        self.sched.load = StepLoad {
            dense: (dense_wire.enc, dense_wire.raw),
            input: (&input).into(),
            output: output.as_ref().map(ExchangeLoad::from),
        };
        let memo = &self.ctx.schedule_memo;
        self.sched
            .price_all_shared(memo, &mut self.ops, &mut self.work_ps);
        let timeline = self.recorder.is_some().then_some(Timeline {
            spans: &mut self.report.sim_spans,
            rank: self.rank as u32,
            step: self.global_step,
            base_ps: self.sim_clock_ps,
        });
        let clock = self
            .sched
            .clock(self.rank, &self.work_ps, &mut self.ops, timeline);
        self.sim_clock_ps += clock.sim_time_ps;
        self.epoch_time_ps += clock.sim_time_ps;
        self.epoch_loss += loss;
        self.report.steps.push(StepMetrics {
            step: self.global_step,
            train_loss: loss,
            input_exchange: input,
            output_exchange: output,
            dense_bytes: dense_wire.sent.total(),
            dense_raw_bytes: dense_wire.raw,
            dense_enc_bytes: dense_wire.enc,
            barrier_wait_wall_ns,
            ..clock
        });
        self.global_step += 1;
        self.step_in_epoch += 1;
    }

    /// Phase 4: closes the epoch in progress. Only rank 0 validates —
    /// replicas are identical, evaluation involves no collectives, and
    /// the other G−1 passes would be discarded work — then the learning
    /// rate decays and the cursor moves to the next epoch's first step.
    fn end_epoch(&mut self) {
        let cfg = self.ctx.cfg;
        if self.rank == 0 {
            // NaN when the validation split holds no full batch.
            let valid = self.ctx.valid_tokens;
            let valid_nll = self
                .replica
                .valid_loss(valid, cfg.batch.min(4), cfg.seq_len);
            self.report.epochs.push(EpochMetrics {
                epoch: self.epoch,
                train_loss: self.epoch_loss / self.epoch_steps.max(1) as f64,
                valid_ppl: valid_nll.exp(),
                valid_bpc: valid_nll / std::f64::consts::LN_2,
                sim_time_s: self.epoch_time_ps as f64 * 1e-12,
            });
        }
        self.lr *= cfg.lr_decay;
        self.epoch += 1;
        self.step_in_epoch = 0;
        self.epoch_loss = 0.0;
        self.epoch_time_ps = 0;
    }

    /// Phase 5: the rank's report, with the group's `traffic` and the
    /// run totals folded in.
    pub(super) fn finish(mut self, traffic: TrafficSnapshot) -> TrainReport {
        let totals = self.totals();
        self.report.traffic = traffic;
        self.report.attribution = totals.attribution;
        self.report.mean_unique_global = totals.mean_unique_global();
        self.report.trace = self.recorder.map(TraceRecorder::finish);
        self.report
    }
}

/// `rank`'s batches of one pass over its shard of the training split.
fn shard<'a>(ctx: &RunCtx<'a>, rank: usize) -> BatchIter<'a> {
    let spec = BatchSpec {
        batch: ctx.cfg.batch,
        seq_len: ctx.cfg.seq_len,
    };
    shard_batches(ctx.train_tokens, spec, rank, ctx.cfg.gpus)
}

/// What [`StepSchedule::ops_for`] reads of one exchange's stats, all of
/// it synchronised across ranks. The rest of [`ExchangeStats`]
/// (timings, local counts, this rank's wire and buffer bytes) differs
/// per rank and prices nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct ExchangeLoad {
    local_tokens: usize,
    unique_global: usize,
    index_enc_bytes: u64,
    /// The `Ug×D` ALLREDUCE's `(enc, raw)` bytes.
    reduce: (u64, u64),
}

impl From<&ExchangeStats> for ExchangeLoad {
    fn from(s: &ExchangeStats) -> Self {
        ExchangeLoad {
            local_tokens: s.local_tokens,
            unique_global: s.unique_global,
            index_enc_bytes: s.index_enc_bytes,
            reduce: (s.reduce_enc_bytes, s.reduce_raw_bytes),
        }
    }
}

/// Every per-step input of [`StepSchedule::ops_for`] — and so the
/// [`ScheduleMemo`] key: a shared table is reused exactly when what it
/// priced is equal, whatever step it was priced at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) struct StepLoad {
    /// The dense ALLREDUCE's `(enc, raw)` bytes (`enc == raw` when no
    /// codec is active).
    pub(super) dense: (u64, u64),
    pub(super) input: ExchangeLoad,
    pub(super) output: Option<ExchangeLoad>,
}

/// The step's op schedule, priced for any rank — the inputs of the
/// local, communication-free step-time model.
///
/// Every rank holds the *same* `StepSchedule`: its fields are fixed for
/// a round except `load`, whose payload sizes are rank-invariant
/// (`local_tokens` is `batch·seq_len` (+ samples) on every rank and
/// `unique_global` is synchronised by construction). Pricing and
/// evaluating every rank `q`'s op list via [`Self::ops_for`] +
/// [`schedule::evaluate`] is pure arithmetic on it — so all ranks derive
/// the same synchronous step time `T = max_q critical_path(q)` without
/// any extra simulated communication. Since the table is the same
/// everywhere, the ranks of a round price it once per step between them
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
pub(super) struct StepSchedule<'a> {
    pub(super) cost: &'a CostModel,
    /// Topology, bucket size and wire format of every collective. Under
    /// a codec, wire bytes scale by the measured enc/raw ratio of each
    /// payload and the encode+decode compute is priced via
    /// [`CostModel::codec_time`].
    pub(super) xcfg: ExchangeConfig,
    pub(super) gpus: usize,
    /// Resolved node layout (the tier the recorder buckets by).
    pub(super) gpn: usize,
    pub(super) overlap: bool,
    pub(super) compute_ps: u64,
    pub(super) dense_elems: usize,
    /// Row widths of the input and output exchanges' tables.
    pub(super) dim: usize,
    pub(super) out_dim: usize,
    /// Every rank's injected straggler delay, picoseconds.
    pub(super) delay_ps: Vec<u64>,
    pub(super) load: StepLoad,
}

/// Every rank's critical path for the load `key` names; `key` is unset
/// while `work_ps` is being written. Lives for one round, over which
/// every [`StepSchedule`] field but `load` is fixed (and `delay_ps`
/// prices nothing in the table).
#[derive(Debug)]
pub(super) struct ScheduleMemo {
    key: Option<StepLoad>,
    pub(super) work_ps: Vec<u64>,
}

impl ScheduleMemo {
    /// An empty memo for a round of `gpus` ranks. The table is sized
    /// here, by the driver thread before the ranks spawn: allocated
    /// lazily by the first rank to price a step it lived in that
    /// thread's malloc arena and cost `word_exchange_full_g8` ≈10 MB of
    /// peak RSS (10/10 runs).
    pub(super) fn new(gpus: usize) -> Self {
        ScheduleMemo {
            key: None,
            work_ps: vec![0; gpus],
        }
    }
}

/// One rank's step laid out on the simulated timeline
/// (`TrainReport::sim_spans`), at offsets from the step's start.
pub(super) struct Timeline<'a> {
    spans: &'a mut Vec<SimSpan>,
    rank: u32,
    step: u64,
    base_ps: u64,
}

impl Timeline<'_> {
    fn span(&mut self, stream: SimStream, label: &'static str, bucket: u32, from: u64, to: u64) {
        self.spans.push(SimSpan {
            rank: self.rank,
            step: self.step,
            stream,
            label,
            bucket,
            t_start_ps: self.base_ps + from,
            t_end_ps: self.base_ps + to,
        });
    }
}

impl StepSchedule<'_> {
    /// Prices and evaluates every rank's op list: `work_ps[q]` becomes
    /// rank `q`'s critical path this step.
    pub(super) fn price_all(&self, ops: &mut Vec<CommOp>, work_ps: &mut [u64]) {
        for (q, w) in work_ps.iter_mut().enumerate() {
            let (apply_ps, _) = self.ops_for(ops, q);
            *w = schedule::evaluate(self.compute_ps, apply_ps, ops).total_ps;
        }
    }

    /// [`Self::price_all`], once per step instead of once per rank:
    /// every rank arrives at the same table, so the first to get here
    /// prices it into `memo` and the others copy it. A rank whose load
    /// differs — its inputs were not the first arriver's, which the
    /// synchronised stats rule out — prices its own table from its own
    /// inputs, so a hit never decides a result. The lock is held only
    /// while pricing or copying, never across a collective: a rank that
    /// dies or hangs cannot strand a peer on it.
    pub(super) fn price_all_shared(
        &self,
        memo: &Mutex<ScheduleMemo>,
        ops: &mut Vec<CommOp>,
        work_ps: &mut [u64],
    ) {
        let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
        if memo.key != Some(self.load) {
            memo.key = None;
            self.price_all(ops, &mut memo.work_ps);
            memo.key = Some(self.load);
        }
        work_ps.copy_from_slice(&memo.work_ps);
    }

    /// The clock of rank `q` for the step — the pure core of
    /// [`LoopState::price`]: the synchronous step time (the slowest
    /// rank's critical path plus injected delay), `q`'s exact split of
    /// it and the α of `q`'s ops, as the clock fields of a
    /// [`StepMetrics`]. `work_ps` is every rank's critical path as
    /// [`Self::price_all`] fills it; with a `timeline`, `q`'s compute,
    /// ops, apply, delay and wait are laid out on it. `ops` is a hoisted
    /// buffer.
    pub(super) fn clock(
        &self,
        q: usize,
        work_ps: &[u64],
        ops: &mut Vec<CommOp>,
        mut timeline: Option<Timeline<'_>>,
    ) -> StepMetrics {
        let (apply_ps, [wire_intra_alpha_ps, wire_inter_alpha_ps]) = self.ops_for(ops, q);
        let (ops, compute_ps, delay_ps) = (&*ops, self.compute_ps, &self.delay_ps);
        if let Some(tl) = &mut timeline {
            tl.span(SimStream::Compute, "compute", 0, 0, compute_ps);
        }
        let own = schedule::evaluate_with(compute_ps, apply_ps, ops, |i, from, to| {
            if let Some(tl) = &mut timeline {
                tl.span(SimStream::Comm, ops[i].label, ops[i].bucket, from, to);
            }
        });
        debug_assert_eq!(work_ps[q], own.total_ps);
        // Max critical path, delays excluded; max busy = critical path +
        // delay.
        let t0_ps = work_ps.iter().copied().max().unwrap_or(0);
        let t_ps = work_ps
            .iter()
            .zip(delay_ps)
            .map(|(w, d)| w + d)
            .max()
            .unwrap_or(0);
        // Exact decomposition of T for this rank: whatever exceeds its
        // busy time is waiting — up to T0 − cp it is inherent load
        // imbalance (barrier wait), beyond that it can only be caused by
        // peers' injected delays (skew). The comm hidden under compute
        // is carved out of the compute bucket into `overlapped_ps`, so
        // the seven buckets still sum to T exactly (see
        // `crate::schedule`).
        let busy = work_ps[q] + delay_ps[q];
        let wait_ps = t_ps - busy;
        let barrier_wait_ps = wait_ps.min(t0_ps - work_ps[q]);
        if let Some(tl) = &mut timeline {
            let apply_from = own.total_ps - apply_ps;
            tl.span(SimStream::Compute, "apply", 0, apply_from, own.total_ps);
            if delay_ps[q] > 0 {
                tl.span(SimStream::Compute, "self_delay", 0, work_ps[q], busy);
            }
            if t_ps > busy {
                tl.span(SimStream::Compute, "barrier_wait", 0, busy, t_ps);
            }
        }
        let attribution = TimeAttribution {
            compute_ps: compute_ps + apply_ps - own.overlapped_ps,
            wire_intra_ps: own.exposed_intra_ps,
            wire_inter_ps: own.exposed_inter_ps,
            overlapped_ps: own.overlapped_ps,
            barrier_wait_ps,
            skew_ps: wait_ps - barrier_wait_ps,
            self_delay_ps: delay_ps[q],
        };
        debug_assert_eq!(attribution.total_ps(), t_ps);
        StepMetrics {
            sim_time_ps: t_ps,
            sim_time_s: t_ps as f64 * 1e-12,
            attribution,
            wire_intra_alpha_ps,
            wire_inter_alpha_ps,
            ..StepMetrics::default()
        }
    }

    /// Gradient elements the backward pass produces — dense plus both
    /// exchanges' collective payloads — the denominator of the
    /// production model.
    fn total_grad_elems(&self) -> u64 {
        let payload = |x: &ExchangeLoad, dim: usize| {
            dim * if self.xcfg.unique {
                x.unique_global
            } else {
                x.local_tokens
            }
        };
        let output = self.load.output.map_or(0, |x| payload(&x, self.out_dim));
        (self.dense_elems + payload(&self.load.input, self.dim) + output) as u64
    }

    /// Ready time of a gradient payload whose last element is the
    /// `cum_elems`-th produced this step; pinned to `compute_ps` when
    /// overlap is off (serial schedule).
    fn grad_ready(&self, cum_elems: u64) -> u64 {
        if self.overlap {
            schedule::ready_at(self.compute_ps, cum_elems * 4, self.total_grad_elems() * 4)
        } else {
            self.compute_ps
        }
    }

    /// Scales identity wire bytes by a payload's measured enc/raw
    /// codec ratio in exact integer arithmetic (`u128` — no rounding
    /// drift across ranks, and a byte-exact no-op when `enc == raw`).
    fn scaled(bytes: u64, (enc, raw): (u64, u64)) -> u64 {
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
    fn push_index_gather(&self, w: &mut Walk, x: &ExchangeLoad, label: &'static str) {
        // With an index codec each rank publishes its encoded frame;
        // pricing uses the synchronized mean frame (`index_enc_bytes`
        // is the Σ over ranks, identical everywhere), scaled in exact
        // integer math so identity stays bit-for-bit the legacy price.
        let raw = x.local_tokens as u64 * 4;
        let bytes = Self::scaled(raw, (x.index_enc_bytes, raw * self.gpus as u64));
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
        ratio: (u64, u64),
    ) {
        let (wire, topology) = (self.xcfg.grad_wire(), self.xcfg.topology());
        let elem = wire.elem_bytes();
        let walk = schedule::buckets(n, elem, self.xcfg.bucket_bytes);
        for (bucket, range) in walk.enumerate() {
            let ident =
                simgpu::allreduce_send_bytes(range.len(), self.gpus, self.gpn, topology, w.q, elem);
            let sent = simgpu::TierBytes {
                intra: Self::scaled(ident.intra, ratio),
                inter: Self::scaled(ident.inter, ratio),
            };
            let price = self
                .cost
                .allreduce(sent, self.gpus, self.gpn, topology, w.q);
            let codec_ps = self.codec_ps(wire.codec(), 2 * ident.total());
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
        x: &ExchangeLoad,
        dim: usize,
        (gather_label, reduce_label): (&'static str, &'static str),
    ) -> u64 {
        let rows = if self.xcfg.unique {
            // Ug×D ALLREDUCE gradient buckets.
            self.push_allreduce_buckets(w, reduce_label, x.unique_global * dim, x.reduce);
            x.unique_global
        } else {
            // Baseline: one dense ALLGATHER of K×D rows + indices, on
            // the flat ring whatever the config's topology — the
            // payload *is* the gradient, so it is ready only once its
            // rows are produced — then a Θ(G·K·D) local update touch.
            w.cum += (x.local_tokens * dim) as u64;
            let elem = self.xcfg.grad_wire().elem_bytes();
            let bytes = x.local_tokens as u64 * (dim as u64 * elem + 4);
            let price = self
                .cost
                .allgather(bytes, self.gpus, self.gpn, Topology::Flat, w.q);
            w.push(gather_label, 0, price, 0, self.grad_ready(w.cum));
            self.gpus * x.local_tokens
        };
        secs_to_ps(self.cost.memory_touch_time(rows as u64 * dim as u64 * 4))
    }

    /// Rebuilds `ops` with rank `q`'s full op list for this step, in
    /// program order, and returns `q`'s apply (memory-touch)
    /// picoseconds — the inputs of [`schedule::evaluate`] — and the α
    /// of the ops it priced as `[intra, inter]`. `ops` is a
    /// caller-hoisted buffer so the steady-state loop stays
    /// allocation-free.
    pub(super) fn ops_for(&self, ops: &mut Vec<CommOp>, q: usize) -> (u64, [u64; 2]) {
        ops.clear();
        let mut w = Walk {
            q,
            ops,
            cum: 0,
            alpha_ps: [0; 2],
        };
        let load = &self.load;
        // Unique-path index ALLGATHERs launch first: ready at batch
        // load, they are the only comm the schedule can run before the
        // backward pass produces its first gradient bucket. (Baseline
        // ALLGATHERs carry the gradient rows themselves and stay in
        // production order below.)
        if self.xcfg.unique {
            self.push_index_gather(&mut w, &load.input, "in_allgather");
            if let Some(x) = &load.output {
                self.push_index_gather(&mut w, x, "out_allgather");
            }
        }
        // Dense gradient buckets (LSTM/RHN + projection).
        self.push_allreduce_buckets(&mut w, "dense_allreduce", self.dense_elems, load.dense);
        let labels = ("in_allgather", "in_grad_allreduce");
        let mut apply = self.push_exchange_ops(&mut w, &load.input, self.dim, labels);
        if let Some(x) = &load.output {
            let labels = ("out_allgather", "out_grad_allreduce");
            apply += self.push_exchange_ops(&mut w, x, self.out_dim, labels);
        }
        debug_assert_eq!(w.cum, self.total_grad_elems());
        (apply, w.alpha_ps)
    }
}

/// One rank's walk over a step's collectives, in program order.
struct Walk<'a> {
    /// The rank being priced.
    q: usize,
    ops: &'a mut Vec<CommOp>,
    /// Gradient elements produced up to the last op pushed.
    cum: u64,
    /// Σ α of the ops pushed, `[intra, inter]`.
    alpha_ps: [u64; 2],
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
        self.alpha_ps[0] += price.intra.alpha_ps();
        self.alpha_ps[1] += price.inter.alpha_ps();
        self.ops.push(CommOp {
            label,
            bucket,
            intra_ps: price.intra.wire_ps() + codec_ps,
            inter_ps: price.inter.wire_ps(),
            ready_ps,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::{HardwareConfig, WireCodecId};

    /// A hand-built word-LM step at `gpus` ranks: a dense payload, an
    /// input and an output exchange, every payload `k`× the unit one at
    /// fixed codec ratios (identity unless `xcfg` names a codec).
    fn step(
        cost: &CostModel,
        xcfg: ExchangeConfig,
        gpus: usize,
        gpn: usize,
        k: u64,
    ) -> StepSchedule<'_> {
        let coded = |raw: u64| match xcfg.codec {
            WireCodecId::Identity => raw,
            _ => raw * 3 / 4,
        };
        let elem = xcfg.grad_wire().elem_bytes();
        let (dim, tokens) = (16usize, 96 * k as usize);
        let exchange = |ug: u64| {
            let (index_raw, reduce_raw) =
                (tokens as u64 * 4 * gpus as u64, ug * k * dim as u64 * elem);
            ExchangeLoad {
                local_tokens: tokens,
                unique_global: (ug * k) as usize,
                index_enc_bytes: coded(index_raw),
                reduce: (coded(reduce_raw), reduce_raw),
            }
        };
        let dense_elems = 5_003 * k as usize;
        let dense_raw = dense_elems as u64 * elem;
        StepSchedule {
            cost,
            xcfg,
            gpus,
            gpn,
            overlap: xcfg.bucket_bytes > 0,
            compute_ps: 3_000_000,
            dense_elems,
            dim,
            out_dim: dim,
            delay_ps: vec![0; gpus],
            load: StepLoad {
                dense: (coded(dense_raw), dense_raw),
                input: exchange(50),
                output: Some(exchange(59)),
            },
        }
    }

    /// Every rank's clock for `sched`, no delays.
    fn clocks(sched: &StepSchedule) -> Vec<StepMetrics> {
        let (mut ops, mut table) = (Vec::new(), vec![0; sched.gpus]);
        sched.price_all(&mut ops, &mut table);
        (0..sched.gpus)
            .map(|q| sched.clock(q, &table, &mut ops, None))
            .collect()
    }

    fn two_tier(xcfg: ExchangeConfig) -> ExchangeConfig {
        ExchangeConfig {
            gpus_per_node: 4,
            ..xcfg
        }
    }

    /// The exchange stacks the clock must price: the baseline, unique,
    /// unique + FP16, unique + lossless codec, unique overlapped in
    /// 1 KiB buckets — flat and two-tier.
    fn stacks() -> Vec<ExchangeConfig> {
        let codec = ExchangeConfig {
            codec: WireCodecId::Lossless,
            ..ExchangeConfig::unique()
        };
        let bucketed = ExchangeConfig {
            bucket_bytes: 1 << 10,
            ..ExchangeConfig::unique()
        };
        let flat = [
            ExchangeConfig::baseline(),
            ExchangeConfig::unique(),
            ExchangeConfig::unique_compressed(),
            codec,
            bucketed,
        ];
        flat.into_iter().chain(flat.map(two_tier)).collect()
    }

    /// α counts hops, never bytes: scaling every payload of a step
    /// leaves each rank's α account bit-unchanged. (With buckets the
    /// payload sets the op count, and α follows the op count, so the
    /// bucketed stack is left out.)
    #[test]
    fn step_alpha_is_payload_independent() {
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        for xcfg in stacks().into_iter().filter(|x| x.bucket_bytes == 0) {
            for (gpus, gpn) in [(4, 8), (11, 4), (12, 4)] {
                let alpha = |k| {
                    clocks(&step(&cost, xcfg, gpus, gpn, k))
                        .iter()
                        .map(|c| [c.wire_intra_alpha_ps, c.wire_inter_alpha_ps])
                        .collect::<Vec<_>>()
                };
                let unit = alpha(1);
                assert!(unit.iter().any(|a| a != &[0; 2]), "{xcfg:?} {gpus}/{gpn}");
                for k in [2, 3, 64] {
                    assert_eq!(alpha(k), unit, "{xcfg:?} {gpus}/{gpn} k {k}");
                }
            }
        }
    }

    /// A faster fabric never lengthens a step: halving either latency
    /// or doubling either bandwidth never raises any rank's step time.
    #[test]
    fn faster_links_never_lengthen_a_step() {
        let hw = HardwareConfig::titan_x_cluster();
        let slow = CostModel::new(hw.clone(), 0.4);
        for fast in hw.faster_links().map(|hw| CostModel::new(hw, 0.4)) {
            for xcfg in stacks() {
                for (gpus, gpn) in [(4, 8), (11, 4), (12, 4)] {
                    let t = |cost| {
                        clocks(&step(cost, xcfg, gpus, gpn, 1))
                            .iter()
                            .map(|c| c.sim_time_ps)
                            .collect::<Vec<_>>()
                    };
                    let (fast, slow) = (t(&fast), t(&slow));
                    for (q, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert!(f <= s, "{xcfg:?} {gpus}/{gpn} rank {q}: {f} > {s}");
                    }
                }
            }
        }
    }

    /// Weak scaling at a fixed per-rank payload never gets faster with
    /// more nodes: 8 GPUs per node, 1..=24 nodes, flat and two-tier.
    #[test]
    fn step_time_is_monotone_in_nodes() {
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        for xcfg in stacks() {
            let xcfg = ExchangeConfig {
                gpus_per_node: if xcfg.gpus_per_node > 0 { 8 } else { 0 },
                ..xcfg
            };
            let mut last = 0;
            for nodes in 1..=24 {
                let t = clocks(&step(&cost, xcfg, 8 * nodes, 8, 1))[0].sim_time_ps;
                assert!(t >= last, "{xcfg:?}: {nodes} nodes {t} < {last}");
                last = t;
            }
        }
    }
}
