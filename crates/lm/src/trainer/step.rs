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
//! The simulated clock is `perfmodel`'s pure [`StepSchedule::clock`]:
//! [`LoopState::measure`] prices this rank's own op list for the step's
//! measured load ([`StepMetrics::load`]), the loss reduction takes the
//! maxes over ranks, and [`LoopState::price`] feeds those peaks to the
//! clock.

use super::RunCtx;
use crate::checkpoint::{Checkpoint, CheckpointMetrics, Fingerprint};
use crate::config::{ModelKind, TrainConfig};
use crate::eval::{char_valid_loss, word_valid_loss};
use crate::exchange::{ExchangeConfig, ExchangeScratch, ExchangeStats, ReducedBytes};
use crate::metrics::{EpochMetrics, RunTotals, StepMetrics, TrainReport};
use crate::schedule::{CommOp, StepLoad, StepSchedule, Timeline};
use corpus::batch::BatchIter;
use corpus::{shard_batches, BatchSpec};
use nn::model::SeqBatch;
use nn::optimizer::scaled_lr;
use nn::{CharLm, WordLm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{
    peer_exchange_tier_bytes, secs_to_ps, NodeLayout, SpanKind, TraceRecorder, TrafficSnapshot,
};

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
    /// The round's step pricing; [`Self::measure`] sets its load per
    /// step.
    pub(super) sched: StepSchedule<'a>,
    /// Hoisted op buffer, so the clock stays allocation-free once warm.
    ops: Vec<CommOp>,
    /// Cumulative simulated time — the base offset of this step's spans
    /// on the simulated timeline (`TrainReport::sim_spans`).
    sim_clock_ps: u64,
    /// Opt-in tracing: a per-rank ring recorder. When disabled, nothing
    /// allocates and every trace site is one `None` branch.
    pub(super) recorder: Option<TraceRecorder>,
    /// What the step's loss reduction sends: 8 bytes to every peer,
    /// charged to ALLREDUCE with no op (see [`TrafficSnapshot`]).
    pub(super) loss_sent: TrafficSnapshot,
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
            // LR scaling counts nodes of the hardware preset's size, not
            // of the topology override — topology must never change
            // results.
            lr: scaled_lr(
                cfg.base_lr,
                NodeLayout::new(g, ctx.cost.hardware().gpus_per_node).nodes(),
            ),
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
            sim_clock_ps: 0,
            recorder: cfg
                .trace
                .enabled
                .then(|| TraceRecorder::new(rank as u32, TRACE_EVENTS_PER_RANK)),
            loss_sent: TrafficSnapshot::allreduce(peer_exchange_tier_bytes(g, ctx.gpn, rank, 8), 0),
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

    /// Phase 3: the step's record so far, and this rank's share of its
    /// simulated time. Books what the step's collectives sent into the
    /// report's `traffic` (this rank's ledger until `run_round` sums the
    /// ranks') and prices this rank's own op list for the step's
    /// synchronised load. Returns `[critical path, critical path +
    /// injected delay]`: the loss reduction's maxes over ranks make the
    /// peaks [`Self::price`] takes.
    pub(super) fn measure(
        &mut self,
        dense_wire: ReducedBytes,
        input: ExchangeStats,
        output: Option<ExchangeStats>,
    ) -> (StepMetrics, [u64; 2]) {
        for sent in [dense_wire.sent, input.sent, self.loss_sent] {
            self.report.traffic += sent;
        }
        if let Some(output) = output {
            self.report.traffic += output.sent;
        }
        let record = StepMetrics {
            step: self.global_step,
            input_exchange: input,
            output_exchange: output,
            dense_bytes: dense_wire.sent.total_bytes(),
            dense_raw_bytes: dense_wire.raw,
            dense_enc_bytes: dense_wire.enc,
            ..StepMetrics::default()
        };
        self.sched.load = record.load();
        let path_ps = self.sched.critical_path(self.rank, &mut self.ops);
        (record, [path_ps, path_ps + self.sched.delay_ps[self.rank]])
    }

    /// Phase 4: records the step on the simulated clock. Synchronous
    /// SGD: the step ends when the slowest rank arrives, so `peaks` —
    /// every rank's [`Self::measure`] reduced by max — set a step time
    /// `T` that is identical on all ranks; its attribution is this
    /// rank's own. `barrier_wait_wall_ns` is the wall time the step's
    /// collectives parked in barriers, drained into one synthetic span
    /// ending now.
    pub(super) fn price(
        &mut self,
        record: StepMetrics,
        loss: f64,
        peaks: [u64; 2],
        barrier_wait_wall_ns: u64,
    ) {
        if let Some(rec) = self.recorder.as_mut() {
            let end = rec.now_ns();
            let start = end.saturating_sub(barrier_wait_wall_ns);
            rec.record(SpanKind::BarrierWait, start, end, 0);
        }
        let timeline = self.recorder.is_some().then_some(Timeline {
            spans: &mut self.report.sim_spans,
            rank: self.rank as u32,
            step: self.global_step,
            base_ps: self.sim_clock_ps,
        });
        let clock = self.sched.clock(self.rank, peaks, &mut self.ops, timeline);
        self.sim_clock_ps += clock.sim_time_ps;
        self.epoch_time_ps += clock.sim_time_ps;
        self.epoch_loss += loss;
        self.report.steps.push(StepMetrics {
            train_loss: loss,
            barrier_wait_wall_ns,
            sim_time_ps: clock.sim_time_ps,
            attribution: clock.attribution,
            wire_intra_alpha_ps: clock.wire_intra_alpha_ps,
            wire_inter_alpha_ps: clock.wire_inter_alpha_ps,
            ..record
        });
        self.global_step += 1;
        self.step_in_epoch += 1;
    }

    /// Phase 5: closes the epoch in progress. Only rank 0 validates —
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

    /// Phase 6: the rank's report, with the run totals folded in.
    pub(super) fn finish(mut self) -> TrainReport {
        let totals = self.totals();
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
