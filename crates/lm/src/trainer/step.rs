//! A training step's phases, which communicate nothing.
//!
//! Synchronous SGD runs the same step on every rank, so what a step
//! carries to the next comes in two parts. [`StepState`] is the
//! world's, one for all ranks: the learning rate and step counter, the
//! epoch cursor (epoch, step within it, its partial loss and simulated
//! time), the step's one schedule and the simulated clock, and the
//! world's record of the run: the epoch history and the `Ug` totals.
//! [`LoopState`] is what differs per rank: its [`Ledger`] (steps,
//! attribution, traffic, spans), its exchange scratch pools, its wall
//! clock and trace recorder. Their methods are the local work of a
//! step; the parent module's lockstep
//! driver calls the world's once per step and a rank's for every rank
//! in turn, with the collectives, the device charges and the checkpoint
//! deposits in between, so nothing in this file communicates. The
//! weights are not a rank's either: synchronous SGD keeps every rank's
//! replica identical, so the driver holds one [`Replica`] and lends it
//! to each phase that reads or updates it.
//!
//! The simulated clock is `perfmodel`'s pure [`StepSchedule::clock`]:
//! [`StepState::measure`] prices each rank's own op list for the step's
//! measured load ([`StepMetrics::load`]), the loss reduction takes the
//! maxes over ranks, and [`LoopState::price`] feeds those peaks to the
//! clock.

use super::RunCtx;
use crate::checkpoint::{Checkpoint, CheckpointMetrics, Fingerprint};
use crate::config::ModelKind;
use crate::eval::{char_valid_loss, word_valid_loss};
use crate::exchange::{ExchangeConfig, ExchangeScratch, ExchangeStats, ReducedBytes};
use crate::metrics::{EpochMetrics, StepMetrics, TimeAttribution, TrainReport};
use crate::schedule::{CommOp, StepLoad, StepSchedule, Timeline};
use corpus::batch::BatchIter;
use corpus::{shard_batches, BatchSpec};
use nn::model::SeqBatch;
use nn::optimizer::scaled_lr;
use nn::{CharLm, InputGrad, SparseGrad, WordLm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{
    peer_exchange_tier_bytes, secs_to_ps, NodeLayout, RankClock, SimSpan, SpanKind, TraceLog,
    TraceRecorder, TrafficSnapshot,
};
use std::ops::Range;
use tensor::Matrix;

/// Maximum validation batches evaluated per epoch (the full validation
/// stream is used when it is smaller).
const EVAL_BATCHES: usize = 48;

/// Ring-buffer capacity of each rank's trace recorder: beyond this the
/// oldest events are overwritten (counted in the log's `dropped`).
const TRACE_EVENTS_PER_RANK: usize = 65_536;

/// Seed-domain separator for sampled-softmax candidate streams.
const SAMPLE_SEED: u64 = 0x5eed_5eed_5eed_5eed;

/// The world's one training replica — every rank's weights, identical
/// under synchronous SGD: either model kind behind one interface.
#[derive(Clone)]
pub(super) enum Replica {
    Word(WordLm),
    Char(CharLm),
}

/// What one forward/backward pass left for the step's collectives
/// besides its dense gradient (which the driver folds into the step's
/// running sum) and, on the baseline, its input gradient's `K×D` rows
/// (in the rank's own buffer): the local loss, the input gradient's
/// token-aligned indices and a word LM's output-table gradient. On the
/// unique path both sparse gradients are already reduced into the
/// rank's scratch pools.
pub(super) struct StepOutcome {
    pub(super) loss: f64,
    pub(super) input_indices: Vec<u32>,
    pub(super) output_grad: Option<SparseGrad>,
}

impl Replica {
    /// A freshly initialised `model` (already resolved) from `seed`.
    pub(super) fn new(model: &ModelKind, seed: u64) -> Self {
        if model.is_word() {
            Replica::Word(WordLm::new(seed, model.word_config()))
        } else {
            Replica::Char(CharLm::new(seed, model.char_config()))
        }
    }

    /// Forward/backward over `batch`: the loss, the input gradient
    /// (factored: its rows are made by [`Self::input_grad_rows`]) and a
    /// word LM's output sparse gradient, the dense gradient flattened
    /// into `dense` and the input rows gathered into `block` (both
    /// reused).
    fn step(
        &self,
        batch: &SeqBatch,
        sample_seed: u64,
        dense: &mut Vec<f32>,
        block: &mut Matrix,
    ) -> (f64, InputGrad, Option<SparseGrad>) {
        let buf = std::mem::take(dense);
        match self {
            Replica::Word(m) => {
                let mut rng = StdRng::seed_from_u64(sample_seed);
                let g = m.forward_backward_in(batch, &mut rng, buf, block);
                *dense = g.dense;
                (g.loss, g.input_grad, Some(g.output_grad))
            }
            Replica::Char(m) => {
                let g = m.forward_backward_in(batch, buf, block);
                *dense = g.dense;
                (g.loss, g.input_grad, None)
            }
        }
    }

    /// Rows `rows` of `grad`'s `K×D` input gradient into the first rows
    /// of `out`, which grows to hold them.
    fn input_grad_rows(&self, grad: &InputGrad, rows: Range<usize>, out: &mut Matrix) {
        match self {
            Replica::Word(m) => m.input_grad_rows(grad, rows, out),
            Replica::Char(m) => m.input_grad_rows(grad, rows, out),
        }
    }

    /// Words in each embedding table.
    fn vocab(&self) -> usize {
        match self {
            Replica::Word(m) => m.config().vocab,
            Replica::Char(m) => m.config().vocab,
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
    pub(super) fn shape(&self) -> (usize, usize, usize) {
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

/// The world's step state: synchronous SGD runs the same step on every
/// rank — one learning rate, step counter, epoch cursor and schedule —
/// so the driver holds it once, with what the run books once for the
/// world. With a rank's [`LoopState`], it is what a snapshot captures
/// and a restore puts back (with the world's replica).
pub(super) struct StepState<'a> {
    ctx: &'a RunCtx<'a>,
    /// The exact learning rate in effect (decayed per epoch).
    lr: f32,
    global_step: u64,
    /// The run's epoch history, every rank's: the restored cut's, then
    /// one entry per epoch closed since.
    epochs: Vec<EpochMetrics>,
    /// Σ `Ug` over the unique path's steps since the run began, and
    /// their count.
    unique_sum: f64,
    unique_count: u64,
    /// The epoch in progress; `cfg.epochs` once the run is done.
    epoch: usize,
    /// Steps completed within `epoch`.
    step_in_epoch: u64,
    /// `epoch`'s partial loss sum and simulated picoseconds.
    epoch_loss: f64,
    epoch_time_ps: u64,
    /// Steps per epoch: `cfg.steps_per_epoch`, or one pass over a
    /// rank's shard when that is 0 (every shard is as long).
    epoch_steps: u64,
    /// The round's step pricing; [`Self::measure`] sets its load per
    /// step.
    sched: StepSchedule<'a>,
    /// Hoisted op buffer, so the clock stays allocation-free once warm.
    ops: Vec<CommOp>,
    /// Cumulative simulated time — the base offset of this step's spans
    /// on the simulated timeline (`TrainReport::sim_spans`).
    sim_clock_ps: u64,
}

/// What a rank books that is its own; its report is this joined with
/// the world's record ([`StepState::finish`]).
#[derive(Default)]
pub(super) struct Ledger {
    /// One record per step of the round.
    pub(super) steps: Vec<StepMetrics>,
    /// Run-total attribution: a resumed rank's starts from the restored
    /// cut's, then each step's own split is added.
    pub(super) attribution: TimeAttribution,
    /// What the rank's collectives sent this round.
    pub(super) traffic: TrafficSnapshot,
    /// Its simulated-timeline spans, when tracing.
    pub(super) sim_spans: Vec<SimSpan>,
    /// Its wall-clock trace, when tracing, once the round is over.
    pub(super) trace: Option<TraceLog>,
}

/// What differs per rank: its id, its ledger, its exchange scratch
/// pools, its wall clock and what its loss reduction sends.
pub(super) struct LoopState {
    rank: usize,
    ledger: Ledger,
    /// Per-table scratch pools: after the first step every exchange runs
    /// allocation-free on reused buffers.
    pub(super) in_scratch: ExchangeScratch,
    pub(super) out_scratch: ExchangeScratch,
    /// The rank's wall clock: when it finished its latest phase, the
    /// barrier wait it accrued (tracked when tracing or metrics are on)
    /// and, opt-in, a per-rank ring trace recorder. When tracing is off,
    /// nothing allocates and every trace site is one `None` branch.
    pub(super) clock: RankClock,
    /// What the step's loss reduction sends: 8 bytes to every peer,
    /// charged to ALLREDUCE with no op (see [`TrafficSnapshot`]).
    pub(super) loss_sent: TrafficSnapshot,
}

impl<'a> StepState<'a> {
    /// The world at step 0 of a fresh run.
    pub(super) fn new(ctx: &'a RunCtx<'a>) -> Self {
        let cfg = ctx.cfg;
        let g = cfg.gpus;
        let (dense_elems, dim, out_dim) = ctx.shape;
        let flops = ctx.model.flops_per_step(cfg.local_batch_tokens());
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
        StepState {
            ctx,
            // LR scaling counts nodes of the hardware preset's size, not
            // of the topology override — topology must never change
            // results.
            lr: scaled_lr(
                cfg.base_lr,
                NodeLayout::new(g, ctx.cost.hardware().gpus_per_node).nodes(),
            ),
            global_step: 0,
            epochs: Vec::new(),
            unique_sum: 0.0,
            unique_count: 0,
            epoch: 0,
            step_in_epoch: 0,
            epoch_loss: 0.0,
            epoch_time_ps: 0,
            epoch_steps: match cfg.steps_per_epoch {
                0 => shard(ctx, 0).len(),
                n => n,
            } as u64,
            sched,
            ops: Vec::new(),
            sim_clock_ps: 0,
        }
    }

    /// Puts `ck` back: parameters (into `replica`), counters, the exact
    /// learning rate, the epoch cursor and history, the `Ug` totals and
    /// every other deterministic accumulator — with each rank's
    /// attribution base, which [`LoopState::new`] takes from `ck`, the
    /// exact inverse of [`Self::snapshot`]. No RNG state exists to
    /// restore: the corpus and split are regenerated from `cfg.seed` and
    /// sampled-softmax streams are re-seeded from `global_step` each
    /// step, so from here the run is bit-identical to one that never
    /// stopped. Per-step telemetry (`TrainReport::steps`, traffic,
    /// traces) restarts here by design; it is wall-clock or run-local.
    /// `Err` is the reason a snapshot from another layout (or built by
    /// hand — `Checkpoint`'s fields are public) is refused: the
    /// fingerprint pins the dimensions, not the flat layout's length.
    pub(super) fn restore(&mut self, ck: &Checkpoint, replica: &mut Replica) -> Result<(), String> {
        // World, rank and fingerprint were validated by the caller.
        let (have, want) = (ck.params.len(), replica.param_vector_len());
        if have != want {
            return Err(format!(
                "checkpoint holds {have} parameters, this configuration's model has {want}"
            ));
        }
        let metrics = &ck.metrics;
        replica.load_param_vector(&ck.params);
        self.lr = ck.lr;
        self.global_step = ck.step;
        self.epoch = ck.epoch as usize;
        self.step_in_epoch = ck.step_in_epoch;
        self.epoch_loss = metrics.epoch_loss;
        self.epoch_time_ps = metrics.epoch_time_ps;
        self.epochs = ck.metrics.epochs.clone();
        self.unique_sum = metrics.unique_sum;
        self.unique_count = metrics.unique_count;
        Ok(())
    }

    /// A bit-exact snapshot of `rank` at the current step boundary,
    /// `replica` its parameters: the world's record and the rank's
    /// attribution. Only deterministic quantities are captured — see the
    /// module docs of [`crate::checkpoint`] for what is deliberately
    /// excluded.
    pub(super) fn snapshot(&self, rank: &LoopState, replica: &Replica) -> Checkpoint {
        let cfg = self.ctx.cfg;
        Checkpoint {
            world: cfg.gpus as u32,
            rank: rank.rank as u32,
            step: self.global_step,
            epoch: self.epoch as u32,
            step_in_epoch: self.step_in_epoch,
            lr: self.lr,
            fingerprint: Fingerprint::of(cfg, self.ctx.data.model_vocab),
            params: replica.param_vector(),
            metrics: CheckpointMetrics {
                epochs: self.epochs.clone(),
                epoch_loss: self.epoch_loss,
                epoch_time_ps: self.epoch_time_ps,
                unique_sum: self.unique_sum,
                unique_count: self.unique_count,
                attribution: rank.ledger.attribution,
            },
        }
    }

    /// Opens the next step and returns its global index, first closing
    /// the epoch in progress once its steps are done; `None` after the
    /// last epoch.
    pub(super) fn next_step(&mut self, replica: &Replica) -> Option<u64> {
        let epochs = self.ctx.cfg.epochs;
        while self.epoch < epochs && self.step_in_epoch >= self.epoch_steps {
            self.end_epoch(replica);
        }
        (self.epoch < epochs).then_some(self.global_step)
    }

    /// The step's exchange configuration: topology, buckets, wire.
    pub(super) fn xcfg(&self) -> ExchangeConfig {
        self.sched.xcfg
    }

    /// The embedding exchanges' learning rate: applied with `lr/G`, the
    /// exchanged sum becomes an average.
    pub(super) fn exchange_lr(&self) -> f32 {
        self.lr * (1.0 / self.ctx.cfg.gpus as f32)
    }

    /// Phase 2: averages the ALLREDUCEd dense gradient — the one sum
    /// every rank's gradient was folded into — over the world and
    /// applies it to `replica`, once for the world.
    pub(super) fn apply(&self, replica: &mut Replica, dense: &mut [f32]) {
        let inv_g = 1.0 / self.ctx.cfg.gpus as f32;
        dense.iter_mut().for_each(|v| *v *= inv_g);
        replica.apply_dense(dense, self.lr);
    }

    /// Phase 3, the world's half: sets the step's synchronised `load`
    /// (every rank's [`StepMetrics::load`] is the same) and prices each
    /// rank's own op list for it. Returns each rank's `[critical path,
    /// critical path + injected delay]`: the loss reduction's maxes over
    /// ranks make the peaks [`LoopState::price`] takes.
    pub(super) fn measure(&mut self, load: StepLoad) -> Vec<[u64; 2]> {
        self.sched.load = load;
        (0..self.sched.gpus)
            .map(|q| {
                let path_ps = self.sched.critical_path(q, &mut self.ops);
                [path_ps, path_ps + self.sched.delay_ps[q]]
            })
            .collect()
    }

    /// Phase 4, the world's half, after every rank's
    /// [`LoopState::price`]: the step's mean `loss`, its time — the
    /// second of the `peaks`, the slowest rank's critical path plus
    /// injected delay — and, on the unique path, its load's `Ug` are
    /// booked, and the counters move on.
    pub(super) fn price(&mut self, loss: f64, [_, step_ps]: [u64; 2]) {
        if self.sched.xcfg.unique {
            self.unique_sum += self.sched.load.input.unique_global as f64;
            self.unique_count += 1;
        }
        self.sim_clock_ps += step_ps;
        self.epoch_time_ps += step_ps;
        self.epoch_loss += loss;
        self.global_step += 1;
        self.step_in_epoch += 1;
    }

    /// Phase 5: closes the epoch in progress. The one `replica` is
    /// validated once for the world — evaluation involves no
    /// collectives — and the epoch booked into the world's history; then
    /// the learning rate decays and the cursor moves to the next epoch's
    /// first step.
    fn end_epoch(&mut self, replica: &Replica) {
        let cfg = self.ctx.cfg;
        // NaN when the validation split holds no full batch.
        let valid = &self.ctx.data.valid;
        let valid_nll = replica.valid_loss(valid, cfg.batch.min(4), cfg.seq_len);
        self.epochs.push(EpochMetrics {
            epoch: self.epoch,
            train_loss: self.epoch_loss / self.epoch_steps.max(1) as f64,
            valid_nll,
            sim_time_s: self.epoch_time_ps as f64 * 1e-12,
        });
        self.lr *= cfg.lr_decay;
        self.epoch += 1;
        self.step_in_epoch = 0;
        self.epoch_loss = 0.0;
        self.epoch_time_ps = 0;
    }

    /// The world's record once the round is over: a report holding
    /// only what every rank's shares — the epoch history, the mean `Ug`
    /// (0 when the unique path never ran) and the world size.
    pub(super) fn finish(self) -> TrainReport {
        TrainReport {
            epochs: self.epochs,
            mean_unique_global: self.unique_sum / self.unique_count.max(1) as f64,
            gpus: self.ctx.cfg.gpus,
            ..TrainReport::default()
        }
    }
}

impl LoopState {
    /// The state of rank `rank` at the round's start: a resumed rank's
    /// attribution starts from the checkpoint's.
    pub(super) fn new(ctx: &RunCtx, rank: usize) -> Self {
        let (cfg, g) = (ctx.cfg, ctx.cfg.gpus);
        LoopState {
            rank,
            ledger: Ledger {
                attribution: ctx
                    .resume
                    .map_or_else(Default::default, |ck| ck.metrics.attribution),
                ..Ledger::default()
            },
            in_scratch: ExchangeScratch::new(),
            out_scratch: ExchangeScratch::new(),
            clock: RankClock::new(
                cfg.trace
                    .enabled
                    .then(|| TraceRecorder::new(rank as u32, TRACE_EVENTS_PER_RANK)),
                cfg.trace.enabled || cfg.metrics.enabled,
            ),
            loss_sent: TrafficSnapshot::allreduce(peer_exchange_tier_bytes(g, ctx.gpn, rank, 8), 0),
        }
    }

    /// This rank's id in the round's world.
    pub(super) fn rank(&self) -> usize {
        self.rank
    }

    /// Phase 1: draws this rank's next batch and runs forward/backward
    /// through `replica`, the dense gradient into `dense` and the input
    /// rows gathered a block at a time into `block`. On the unique path
    /// both sparse gradients are then reduced to `(Ĵ, ∆̂)` in the rank's
    /// scratch pools, the input gradient's rows made [`nn::BLOCK_ROWS`]
    /// at a time into `block` and folded in as they are made: no `K×D`
    /// matrix exists. The baseline's exchange gathers the rank's `K×D`
    /// rows, so they are made into `rows`, in one call. The shard's
    /// batches are drawn in order, over and over, so the step in
    /// progress names its batch — which is what lands a resumed epoch on
    /// exactly the batch the interrupted run would have drawn.
    pub(super) fn compute(
        &mut self,
        state: &StepState,
        replica: &Replica,
        dense: &mut Vec<f32>,
        block: &mut Matrix,
        rows: &mut Vec<f32>,
    ) -> StepOutcome {
        let cfg = state.ctx.cfg;
        if let Some(rec) = self.clock.trace() {
            rec.set_step(state.global_step);
        }
        let mut batches = shard(state.ctx, self.rank);
        let pos = state.step_in_epoch as usize % batches.len().max(1);
        let batch = batches.nth(pos).expect("shard emptied unexpectedly");
        let sb =
            SeqBatch::from_lane_major(&batch.inputs, &batch.targets, batch.batch, batch.seq_len);
        let seed = cfg.method.seeding.seed_for(
            cfg.seed ^ SAMPLE_SEED,
            self.rank,
            cfg.gpus,
            state.global_step,
        );
        let (unique, dim) = (state.sched.xcfg.unique, state.ctx.shape.1);
        let step = || {
            let (loss, input, output) = replica.step(&sb, seed, dense, block);
            if !unique {
                let k = input.tokens.len();
                let mut all = Matrix::recycled(k, dim, std::mem::take(rows));
                replica.input_grad_rows(&input, 0..k, &mut all);
                *rows = all.into_vec();
            }
            (loss, input, output)
        };
        let (loss, input, output) = self.clock.phase(SpanKind::Compute, step, |_| 0).0;
        if unique {
            let vocab = replica.vocab();
            let make = |r, out: &mut Matrix| replica.input_grad_rows(&input, r, out);
            let clock = &mut self.clock;
            (self.in_scratch).reduce(&input.tokens, dim, vocab, block, make, clock);
            if let Some(output) = &output {
                self.out_scratch.reduce_stored(output, vocab, clock);
            }
        }
        StepOutcome {
            loss,
            input_indices: input.tokens,
            output_grad: output,
        }
    }

    /// Phase 3: the record of `step` so far. Books what the step's
    /// collectives sent into the ledger's `traffic` (the report's is the
    /// sum over the ranks' ledgers). The rank is ready for the
    /// loss reduction once it returns; [`StepState::measure`] prices
    /// the record's load.
    pub(super) fn measure(
        &mut self,
        step: u64,
        dense_wire: ReducedBytes,
        input: ExchangeStats,
        output: Option<ExchangeStats>,
    ) -> StepMetrics {
        for sent in [dense_wire.sent, input.sent, self.loss_sent] {
            self.ledger.traffic += sent;
        }
        if let Some(output) = output {
            self.ledger.traffic += output.sent;
        }
        self.clock.ready_now();
        StepMetrics {
            step,
            input_exchange: input,
            output_exchange: output,
            dense_bytes: dense_wire.sent.total_bytes(),
            dense_raw_bytes: dense_wire.raw,
            dense_enc_bytes: dense_wire.enc,
            ..StepMetrics::default()
        }
    }

    /// Phase 4: records the step on the simulated clock. Synchronous
    /// SGD: the step ends when the slowest rank arrives, so `peaks` —
    /// every rank's [`StepState::measure`] pair reduced by max — set a
    /// step time `T` that is identical on all ranks; its attribution is
    /// this rank's own, added to its run total. `barrier_wait_wall_ns`
    /// is the wall time this rank waited for its peers before the
    /// step's collectives.
    pub(super) fn price(
        &mut self,
        state: &mut StepState,
        record: StepMetrics,
        loss: f64,
        peaks: [u64; 2],
        barrier_wait_wall_ns: u64,
    ) {
        let traced = self.clock.trace().is_some();
        let timeline = traced.then_some(Timeline {
            spans: &mut self.ledger.sim_spans,
            rank: self.rank as u32,
            step: state.global_step,
            base_ps: state.sim_clock_ps,
        });
        let clock = (state.sched).clock(self.rank, peaks, &mut state.ops, timeline);
        self.ledger.attribution.accumulate(&clock.attribution);
        self.ledger.steps.push(StepMetrics {
            train_loss: loss,
            barrier_wait_wall_ns,
            sim_time_ps: clock.sim_time_ps,
            attribution: clock.attribution,
            wire_intra_alpha_ps: clock.wire_intra_alpha_ps,
            wire_inter_alpha_ps: clock.wire_inter_alpha_ps,
            ..record
        });
    }

    /// Phase 6: the rank's ledger, its trace taken off its clock.
    pub(super) fn finish(mut self) -> Ledger {
        self.ledger.trace = self.clock.finish();
        self.ledger
    }
}

/// `rank`'s batches of one pass over its shard of the training split.
fn shard<'a>(ctx: &RunCtx<'a>, rank: usize) -> BatchIter<'a> {
    let spec = BatchSpec {
        batch: ctx.cfg.batch,
        seq_len: ctx.cfg.seq_len,
    };
    shard_batches(&ctx.data.train, spec, rank, ctx.cfg.gpus)
}
