//! The per-layer half of a workload: one traced `train_with_faults`
//! call folded per rank, exact counters from an untraced call's
//! `TrainReport`, and timers placed here, in the benchmark, around calls
//! into each layer's public functions at the workload's exact shapes.
//! End-to-end metrics are never taken from anything in this file.

use crate::calib::Calibrator;
use crate::spans::Spans;
use crate::spec::Workload;
use crate::stats::{median, nproc};
use crate::timed::{
    check_learning, check_report, check_sibling, timed_train, Call, Fingerprint, Ops,
};
use corpus::{
    shard_batches, train_valid_split, BatchSpec, CorpusGenerator, DatasetProfile, TokenUnit, Vocab,
};
use nn::model::SeqBatch;
use nn::{CharLm, Embedding, SparseGrad, WordLm};
use perfmodel::charlm::TiebaScale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::{CommError, CommGroup, HardwareConfig, Rank, SimStream, SpanKind, TraceLog};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor::Matrix;
use zipf::ZipfMandelbrot;
use zipf_lm::checkpoint::{CheckpointMetrics, Fingerprint as RunFingerprint};
use zipf_lm::eval::{char_valid_loss, word_valid_loss};
use zipf_lm::schedule::{self, CommOp};
use zipf_lm::{
    exchange_and_apply_with, train_with_faults, Checkpoint, CheckpointDir, CheckpointStore,
    ExchangeConfig, ExchangeScratch, FaultPlan, ModelKind, TraceConfig, TrainConfig, TrainError,
    TrainReport,
};

/// A direct-call probe reports the median of this many calls ...
const PROBE_CALLS: usize = 20;
/// ... or of as many as fit in the budget, but at least this many.
const PROBE_MIN_CALLS: usize = 5;
const PROBE_BUDGET: Duration = Duration::from_millis(800);
/// Fewest calls of a probe that every rank of the world makes.
const RANK_PROBE_MIN_CALLS: usize = 3;
/// A traced call this much slower than an untraced one is flagged.
const TRACE_OVERHEAD_FLAG: f64 = 1.30;

// The trainer's data preparation, mirrored: these three are private to
// `zipf_lm::trainer`. The Ug cross-check below fails if they drift.
const STRUCTURE_LAMBDA: f64 = 0.5;
const SPLIT_SEED: u64 = 0x5b11_7000_5b11_7000;
const EVAL_BATCHES: usize = 48;
/// `train()`'s device capacity.
const UNLIMITED_MEM: u64 = u64::MAX / 4;

/// The per-layer result of one workload.
pub struct Layers {
    /// Metric values by name, in `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Findings worth a line in the report that are not failures.
    pub notes: Vec<String>,
    pub ops: Ops,
}

/// Collects metric values as probes produce them.
#[derive(Default)]
struct Values(Vec<(&'static str, f64)>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value set for `name`, NaN if no probe got that far.
    fn get(&self, name: &str) -> f64 {
        crate::spec::value_of(&self.0, name).unwrap_or(f64::NAN)
    }
}

/// Where the probes of one workload report: the span recorder, the
/// metric values and the operation counts.
struct Sink<'a> {
    spans: &'a mut Spans,
    out: Values,
    ops: Ops,
}

/// Median wall seconds of repeated `run(prepare())` calls, `prepare`
/// untimed. One warm-up call, then [`PROBE_CALLS`] calls or as many as
/// fit in [`PROBE_BUDGET`]. Recorded as a span `name` holding a `calls`
/// span around the timed batch.
fn sample_with<T>(
    spans: &mut Spans,
    name: &str,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> f64 {
    let (walls, _) = spans.scoped(name, |spans| {
        run(prepare());
        let started = Instant::now();
        let (walls, _) = spans.scoped("calls", |_| {
            let mut walls = Vec::with_capacity(PROBE_CALLS);
            while walls.len() < PROBE_CALLS
                && (walls.len() < PROBE_MIN_CALLS || started.elapsed() < PROBE_BUDGET)
            {
                let input = prepare();
                let t0 = Instant::now();
                run(input);
                walls.push(t0.elapsed().as_secs_f64());
            }
            walls
        });
        walls
    });
    median(&walls)
}

fn sample(spans: &mut Spans, name: &str, mut run: impl FnMut()) -> f64 {
    sample_with(spans, name, || (), |()| run())
}

/// One replica, built exactly as the trainer's private `Replica::new`
/// builds it.
enum Model {
    Word(WordLm),
    Char(CharLm),
}

impl Model {
    fn new(cfg: &TrainConfig, model_vocab: usize) -> Self {
        if cfg.model.is_word() {
            let mut mc = cfg.model.word_config();
            mc.vocab = model_vocab;
            mc.samples = mc.samples.min(model_vocab / 2).max(1);
            Model::Word(WordLm::new(cfg.seed, mc))
        } else {
            Model::Char(CharLm::new(cfg.seed, cfg.model.char_config()))
        }
    }

    /// One forward+backward pass; returns the dense gradient.
    fn fwd_bwd(&self, batch: &SeqBatch, sample_seed: u64) -> Vec<f32> {
        match self {
            Model::Word(m) => {
                let mut rng = StdRng::seed_from_u64(sample_seed);
                m.forward_backward(batch, &mut rng).dense
            }
            Model::Char(m) => m.forward_backward(batch).dense,
        }
    }

    fn apply_dense(&mut self, flat: &[f32], lr: f32) {
        match self {
            Model::Word(m) => m.apply_dense(flat, lr),
            Model::Char(m) => m.apply_dense(flat, lr),
        }
    }

    fn eval_loss(&self, batch: &SeqBatch) -> f64 {
        match self {
            Model::Word(m) => m.eval_loss(batch),
            Model::Char(m) => m.eval_loss(batch),
        }
    }

    fn valid_loss(&self, tokens: &[u32], batch: usize, seq_len: usize) -> f64 {
        match self {
            Model::Word(m) => word_valid_loss(m, tokens, batch, seq_len, EVAL_BATCHES),
            Model::Char(m) => char_valid_loss(m, tokens, batch, seq_len, EVAL_BATCHES),
        }
    }

    fn dense_param_count(&self) -> usize {
        match self {
            Model::Word(m) => m.dense_param_count(),
            Model::Char(m) => m.dense_param_count(),
        }
    }

    fn param_vector(&self) -> Vec<f32> {
        match self {
            Model::Word(m) => m.param_vector(),
            Model::Char(m) => m.param_vector(),
        }
    }

    fn input_table(&mut self) -> &mut Embedding {
        match self {
            Model::Word(m) => m.input_embedding_mut(),
            Model::Char(m) => m.input_embedding_mut(),
        }
    }

    /// The model's forward GEMMs as `(m, k, n)`: first the ones issued
    /// once per timestep, then the ones issued once per step over all
    /// `K` rows.
    fn gemm_shapes(kind: &ModelKind, batch: usize, seq_len: usize) -> Vec<(usize, usize, usize)> {
        let k_rows = batch * seq_len;
        if kind.is_word() {
            let c = kind.word_config();
            vec![
                (batch, c.embed_dim, 4 * c.hidden),
                (batch, c.hidden, 4 * c.hidden),
                (k_rows, c.hidden, c.proj_dim),
            ]
        } else {
            let c = kind.char_config();
            vec![
                (batch, c.embed_dim, c.hidden),
                (batch, c.hidden, c.hidden),
                (k_rows, c.hidden, c.vocab),
            ]
        }
    }
}

/// Corpus, split and effective vocabulary, as the trainer's private
/// `prepare_data` derives them from the config.
struct Prepared {
    train: Vec<u32>,
    valid: Vec<u32>,
    model_vocab: usize,
}

/// Times the corpus layer stage by stage and returns what the last call
/// of each stage produced. `Vocab::build`+`encode` is timed on every
/// workload; only word models use its result.
fn probe_corpus(cfg: &TrainConfig, sink: &mut Sink) -> Prepared {
    let Sink { spans, out, .. } = sink;
    let (unit, profile) = if cfg.model.is_word() {
        (TokenUnit::Word, DatasetProfile::one_billion())
    } else {
        let vocab = cfg.model.char_config().vocab;
        let mut profile = if vocab > 1000 {
            DatasetProfile::tieba()
        } else {
            DatasetProfile::one_billion()
        };
        profile.char_types = vocab;
        (TokenUnit::Char, profile)
    };
    let mut raw = Vec::new();
    let generate_s = sample(spans, "corpus.generate", || {
        raw = CorpusGenerator::new(&profile, unit, cfg.seed)
            .with_structure(STRUCTURE_LAMBDA)
            .generate(cfg.tokens);
    });
    out.set("corpus.generate_ms", generate_s * 1e3);

    let top_k = if cfg.model.is_word() {
        cfg.model.word_config().vocab.saturating_sub(1).max(1)
    } else {
        cfg.model.char_config().vocab
    };
    let mut encoded = Vec::new();
    let mut vocab_size = 0;
    let vocab_s = sample(spans, "corpus.vocab_encode", || {
        let vocab = Vocab::build(&raw, top_k);
        encoded = vocab.encode(&raw);
        vocab_size = vocab.size();
    });
    out.set("corpus.vocab_encode_ms", vocab_s * 1e3);
    let (tokens, model_vocab) = if cfg.model.is_word() {
        (encoded, vocab_size)
    } else {
        (raw, cfg.model.char_config().vocab)
    };

    let mut split = (Vec::new(), Vec::new());
    let split_s = sample(spans, "corpus.split", || {
        split = train_valid_split(&tokens, 100, cfg.seed ^ SPLIT_SEED);
    });
    out.set("corpus.split_ms", split_s * 1e3);
    let (train, valid) = split;

    // One rank's batch draw, as the step loop does it; looped to rise
    // above the clock's resolution.
    const DRAWS: usize = 64;
    let batch_s = sample(spans, "corpus.batch", || {
        black_box(rank_batches(&train, cfg, 0, DRAWS));
    });
    out.set("corpus.batch_us", batch_s / DRAWS as f64 * 1e6);
    Prepared {
        train,
        valid,
        model_vocab,
    }
}

fn batch_spec(cfg: &TrainConfig) -> BatchSpec {
    BatchSpec {
        batch: cfg.batch,
        seq_len: cfg.seq_len,
    }
}

/// Rank `r`'s first `steps` batches, drawn as the step loop draws them.
fn rank_batches(train: &[u32], cfg: &TrainConfig, r: usize, steps: usize) -> Vec<SeqBatch> {
    let spec = batch_spec(cfg);
    let mut iter = shard_batches(train, spec, r, cfg.gpus);
    (0..steps)
        .map(|_| {
            let b = match iter.next() {
                Some(b) => b,
                None => {
                    iter = shard_batches(train, spec, r, cfg.gpus);
                    iter.next().expect("shard holds a batch")
                }
            };
            SeqBatch::from_lane_major(&b.inputs, &b.targets, b.batch, b.seq_len)
        })
        .collect()
}

/// Mean over the steps of the globally-unique input words per step
/// (`Ug`), counted from the data.
fn mean_unique_global(train: &[u32], cfg: &TrainConfig, steps: usize) -> f64 {
    let per_rank: Vec<Vec<SeqBatch>> = (0..cfg.gpus)
        .map(|r| rank_batches(train, cfg, r, steps))
        .collect();
    let total: usize = (0..steps)
        .map(|s| {
            per_rank
                .iter()
                .flat_map(|batches| batches[s].tokens.iter().copied())
                .collect::<BTreeSet<u32>>()
                .len()
        })
        .sum();
    total as f64 / steps as f64
}

fn probe_tensor(cfg: &TrainConfig, sink: &mut Sink) {
    let Sink { spans, out, .. } = sink;
    let shapes = Model::gemm_shapes(&cfg.model, cfg.batch, cfg.seq_len);
    let flops = |&(m, k, n): &(usize, usize, usize)| 2.0 * (m * k * n) as f64;
    let largest = *shapes
        .iter()
        .max_by(|a, b| flops(a).total_cmp(&flops(b)))
        .expect("model has GEMMs");
    let smallest = *shapes[..2]
        .iter()
        .min_by(|a, b| flops(a).total_cmp(&flops(b)))
        .expect("model has per-timestep GEMMs");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut operands = |(m, k, n): (usize, usize, usize)| {
        let mut fill = |rows, cols| {
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|_| rng.gen_range(-0.1..0.1)).collect(),
            )
        };
        (fill(m, k), fill(k, n))
    };
    let (a, b) = operands(largest);
    let large_s = sample(spans, "tensor.matmul_large", || {
        black_box(a.matmul(&b));
    });
    out.set("tensor.matmul_gflops", flops(&largest) / large_s / 1e9);
    let (a, b) = operands(smallest);
    let small_s = sample(spans, "tensor.matmul_small", || {
        black_box(a.matmul(&b));
    });
    out.set("tensor.matmul_small_us", small_s * 1e6);
}

/// Single-caller model probes on the driver thread. Returns the model
/// (for the checkpoint probe) and the median forward+backward seconds.
fn probe_nn(cfg: &TrainConfig, data: &Prepared, sink: &mut Sink) -> (Model, f64) {
    let Sink { spans, out, .. } = sink;
    let mut built = None;
    let init_s = sample(spans, "nn.init", || {
        built = Some(Model::new(cfg, data.model_vocab));
    });
    out.set("nn.init_ms", init_s * 1e3);
    let mut model = built.expect("probe ran");
    out.set("nn.dense_params", model.dense_param_count() as f64);

    let batch = rank_batches(&data.train, cfg, 0, 1).remove(0);
    let mut dense = Vec::new();
    let fwd_bwd_s = sample(spans, "nn.fwd_bwd", || {
        dense = model.fwd_bwd(&batch, cfg.seed);
    });
    out.set("nn.fwd_bwd_ms", fwd_bwd_s * 1e3);
    let k = cfg.local_batch_tokens();
    out.set(
        "nn.host_gflops",
        cfg.model.flops_per_step(k) / fwd_bwd_s / 1e9,
    );

    // A zero learning rate keeps the parameters (and so every later
    // probe) independent of how many calls this one made.
    let apply_s = sample(spans, "nn.apply_dense", || model.apply_dense(&dense, 0.0));
    out.set("nn.apply_dense_ms", apply_s * 1e3);

    let eval_batch = cfg.batch.min(4);
    let valid_spec = BatchSpec {
        batch: eval_batch,
        seq_len: cfg.seq_len,
    };
    let vb = shard_batches(&data.valid, valid_spec, 0, 1)
        .next()
        .expect("validation split holds a batch");
    let vb = SeqBatch::from_lane_major(&vb.inputs, &vb.targets, vb.batch, vb.seq_len);
    let eval_s = sample(spans, "nn.eval_loss", || {
        black_box(model.eval_loss(&vb));
    });
    out.set("nn.eval_loss_ms", eval_s * 1e3);

    let valid_s = sample(spans, "lm.eval.valid", || {
        black_box(model.valid_loss(&data.valid, eval_batch, cfg.seq_len));
    });
    out.set("lm.eval.valid_ms", valid_s * 1e3);
    (model, fwd_bwd_s)
}

/// Zipf–Mandelbrot token gradient at the workload's `K`, `dim` and
/// vocabulary, as `benches/exchange.rs` generates it.
fn zipfian_grad(seed: u64, tokens: usize, vocab: usize, dim: usize) -> SparseGrad {
    let dist = ZipfMandelbrot::new(vocab, 1.5625, 3.5);
    let mut rng = StdRng::seed_from_u64(seed);
    let indices: Vec<u32> = (0..tokens).map(|_| dist.sample(&mut rng) as u32).collect();
    let rows = Matrix::from_vec(
        tokens,
        dim,
        (0..tokens * dim)
            .map(|_| rng.gen_range(-0.1..0.1))
            .collect(),
    );
    SparseGrad { indices, rows }
}

/// The probes each rank runs, in order: span name, the metric that
/// takes the slowest rank's mean, and that metric's units per second.
const RANK_PROBES: [(&str, &str, f64); 7] = [
    ("nn.fwd_bwd_xg", "nn.fwd_bwd_xg_ms", 1e3),
    ("simgpu.comm.barrier", "simgpu.comm.barrier_us", 1e6),
    (
        "simgpu.comm.allreduce_scalar",
        "simgpu.comm.allreduce_scalar_us",
        1e6,
    ),
    (
        "simgpu.comm.allreduce_dense",
        "simgpu.comm.allreduce_dense_ms",
        1e3,
    ),
    (
        "simgpu.comm.allgather_idx",
        "simgpu.comm.allgather_idx_us",
        1e6,
    ),
    (
        "simgpu.comm.allgather_rows",
        "simgpu.comm.allgather_rows_ms",
        1e3,
    ),
    ("lm.exchange.steady", "lm.exchange.steady_ms", 1e3),
];

/// One rank's measurements: mean seconds per call and the interval of
/// the timed batch on the benchmark's clock, per entry of `RANK_PROBES`.
type RankTimes = Vec<(f64, u64, u64)>;

/// Times `op` on this rank. The first call warms up and is timed, so
/// that the ranks can agree (through a scalar ALLREDUCE: every rank
/// derives the same count) on how many calls fit the budget; then that
/// many calls run back to back. `waves` is how many turns the world
/// needs for every rank to make one call: 1 for a collective, which
/// parks without a run slot, more for compute under a bounded pool.
fn time_collective(
    rank: &Rank,
    origin: Instant,
    waves: usize,
    mut op: impl FnMut() -> Result<(), CommError>,
) -> Result<(f64, u64, u64), CommError> {
    let t0 = Instant::now();
    op()?;
    let once = t0.elapsed().as_secs_f64();
    let mean_once = rank.all_reduce_scalar_f64(once)? / rank.world() as f64;
    let fit = PROBE_BUDGET.as_secs_f64() / (mean_once.max(1e-9) * waves as f64);
    let calls = (fit as usize).clamp(RANK_PROBE_MIN_CALLS, PROBE_CALLS);
    rank.barrier()?;
    let start_ns = origin.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    for _ in 0..calls {
        op()?;
    }
    let mean = t0.elapsed().as_secs_f64() / calls as f64;
    Ok((mean, start_ns, origin.elapsed().as_nanos() as u64))
}

/// Everything one persistent rank thread measures.
fn rank_probes(
    rank: &Rank,
    cfg: &TrainConfig,
    data: &Prepared,
    origin: Instant,
) -> Result<RankTimes, CommError> {
    let (g, r) = (rank.world(), rank.rank());
    let gpn = rank.gpus_per_node();
    let mut model = Model::new(cfg, data.model_vocab);
    let batch = rank_batches(&data.train, cfg, r, 1).remove(0);
    let k = cfg.local_batch_tokens();
    let dim = model.input_table().dim();
    let hier = cfg.comm.hierarchical && g > gpn;
    let mut times = RankTimes::new();

    // G callers of forward+backward sharing the run slots, as in `train`.
    let slots = match cfg.comm.pool_workers {
        0 => g,
        n => n.min(g),
    };
    times.push(time_collective(rank, origin, g.div_ceil(slots), || {
        black_box(model.fwd_bwd(&batch, cfg.seed ^ r as u64));
        Ok(())
    })?);
    times.push(time_collective(rank, origin, 1, || rank.barrier())?);
    times.push(time_collective(rank, origin, 1, || {
        rank.all_reduce_scalar_f64(1.0).map(|_| ())
    })?);
    // The dense ALLREDUCE variant this workload's step loop picks.
    let mut dense = vec![1e-3f32; model.dense_param_count()];
    times.push(time_collective(rank, origin, 1, || {
        match cfg.method.compression {
            Some(scale) if hier => rank.all_reduce_sum_f16_hierarchical(&mut dense, scale, gpn),
            Some(scale) => rank.all_reduce_sum_f16(&mut dense, scale),
            None if hier => rank.all_reduce_sum_hierarchical(&mut dense, gpn),
            None => rank.all_reduce_sum(&mut dense),
        }?;
        // Keep the payload from growing without bound across calls.
        dense.fill(1e-3);
        Ok(())
    })?);
    let grad = zipfian_grad(cfg.seed ^ r as u64, k, data.model_vocab, dim);
    let mut gathered_idx = Vec::new();
    times.push(time_collective(rank, origin, 1, || {
        rank.all_gather_u32_into(&grad.indices, &mut gathered_idx)
    })?);
    let mut gathered_rows = Vec::new();
    times.push(time_collective(rank, origin, 1, || {
        rank.all_gather_f32_into(grad.rows.as_slice(), &mut gathered_rows)
    })?);
    // The exchange as the step loop drives it: pooled scratch, the
    // trainer's own ExchangeConfig for this workload.
    let xcfg = ExchangeConfig {
        unique: cfg.method.unique,
        compression: cfg.method.compression,
        gpus_per_node: if cfg.comm.hierarchical { gpn } else { 0 },
        bucket_bytes: cfg.comm.bucket_bytes,
        codec: cfg.comm.codec,
    };
    let mut scratch = ExchangeScratch::new();
    let table = model.input_table();
    times.push(time_collective(rank, origin, 1, || {
        exchange_and_apply_with(rank, &grad, table, 0.0, &xcfg, &mut scratch).map(|_| ())
    })?);
    Ok(times)
}

/// The trainer's communicator for `cfg`.
fn comm_group(cfg: &TrainConfig) -> Vec<Rank> {
    let gpn = match cfg.comm.gpus_per_node {
        0 => HardwareConfig::titan_x_cluster().gpus_per_node,
        n => n,
    };
    CommGroup::create_full(cfg.gpus, gpn, cfg.comm.pool_workers, cfg.comm.deadline)
}

/// Probes that need the whole world alive: persistent rank threads over
/// the trainer's own communicator, then spawn/join of that world.
fn probe_ranks(cfg: &TrainConfig, data: &Prepared, fwd_bwd_s: f64, sink: &mut Sink) {
    let Sink { spans, out, ops } = sink;
    let origin = spans.origin();
    let (per_rank, parent) = spans.scoped("persistent ranks", |_| {
        ops.attempt("probes on persistent ranks", || {
            simgpu::run_ranks(comm_group(cfg), |rank| {
                rank_probes(&rank, cfg, data, origin)
            })
            .into_iter()
            .collect::<Result<Vec<RankTimes>, CommError>>()
        })
    });
    if let Some(per_rank) = per_rank {
        // The slowest rank's mean is what a synchronous step waits for.
        for (p, (span, metric, per_second)) in RANK_PROBES.iter().enumerate() {
            let slowest = per_rank.iter().map(|t| t[p].0).fold(0.0, f64::max);
            out.set(metric, slowest * per_second);
            let (_, start_ns, end_ns) = per_rank[0][p];
            spans.add_child(parent, span, start_ns, end_ns, 1);
        }
        let waves = cfg.gpus.div_ceil(nproc()) as f64;
        out.set(
            "nn.oversub_ratio",
            out.get("nn.fwd_bwd_xg_ms") / (fwd_bwd_s * 1e3 * waves),
        );
        let dense_mb = out.get("nn.dense_params") * 4.0 / 1e6;
        out.set(
            "simgpu.comm.allreduce_dense_gbps",
            dense_mb / out.get("simgpu.comm.allreduce_dense_ms"),
        );
    }

    let mut peak_running = cfg.gpus;
    let spawn_s = sample_with(
        spans,
        "simgpu.pool.spawn_join",
        || comm_group(cfg),
        |ranks| {
            let gate = ranks[0].run_gate();
            simgpu::run_ranks(ranks, |rank| {
                black_box(rank.rank());
            });
            // Unpooled worlds have no gate: every rank is runnable at once.
            peak_running = gate.map_or(cfg.gpus, |g| g.peak_running());
        },
    );
    out.set("simgpu.pool.spawn_join_ms", spawn_s * 1e3);
    out.set("simgpu.pool.peak_running", peak_running as f64);
}

fn probe_checkpoint(
    cfg: &TrainConfig,
    model: &Model,
    model_vocab: usize,
    scratch_dir: &Path,
    sink: &mut Sink,
) {
    let Sink { spans, out, ops } = sink;
    let steps = cfg.steps_per_epoch as u64;
    let mut ck = Checkpoint {
        world: cfg.gpus as u32,
        rank: 0,
        step: steps,
        epoch: 0,
        step_in_epoch: steps,
        lr: cfg.base_lr,
        fingerprint: RunFingerprint::of(cfg, model_vocab),
        params: model.param_vector(),
        metrics: CheckpointMetrics::default(),
    };
    let mut bytes = Vec::new();
    let ser_s = sample(spans, "lm.checkpoint.serialize", || bytes = ck.to_bytes());
    out.set("lm.checkpoint.serialize_ms", ser_s * 1e3);
    out.set("lm.checkpoint.kb", bytes.len() as f64 / 1024.0);
    let mut round_trip = true;
    let de_s = sample(spans, "lm.checkpoint.deserialize", || {
        round_trip &= Checkpoint::from_bytes(&bytes).is_ok_and(|back| back.step == ck.step);
    });
    ops.check(round_trip, || {
        "checkpoint bytes did not read back".to_string()
    });
    out.set("lm.checkpoint.deserialize_ms", de_s * 1e3);

    let dir = scratch_dir.join("ckpt-probe");
    let store = ops.attempt("open checkpoint directory", || {
        CheckpointDir::open(&dir, 2).map(|d| CheckpointStore::with_backend(cfg.gpus, Arc::new(d)))
    });
    let mut deposited = true;
    let disk_s = store.map(|store| {
        sample_with(
            spans,
            "lm.checkpoint.deposit_disk",
            || {
                // Snapshots arrive in increasing step order.
                ck.step += 1;
                ck.clone()
            },
            |snapshot| deposited &= store.deposit(snapshot).is_ok(),
        )
    });
    ops.check(deposited, || {
        "checkpoint deposit to disk failed".to_string()
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.set(
        "lm.checkpoint.deposit_disk_ms",
        disk_s.unwrap_or(f64::NAN) * 1e3,
    );
}

/// `schedule::evaluate` over an op list as long as the traced step's,
/// `G` times — what each rank does per step to price every rank.
fn probe_schedule(cfg: &TrainConfig, traced: &TrainReport, sink: &mut Sink) {
    let Sink { spans, out, .. } = sink;
    let step0 = traced.sim_spans.iter().filter(|s| s.step == 0);
    let mut compute_ps = 0;
    let mut ops: Vec<CommOp> = Vec::new();
    for s in step0 {
        let dur = s.t_end_ps - s.t_start_ps;
        match s.stream {
            SimStream::Compute if s.label == "compute" => compute_ps = dur,
            SimStream::Comm => ops.push(CommOp {
                label: s.label,
                bucket: s.bucket,
                intra_ps: dur,
                inter_ps: 0,
                ready_ps: 0,
            }),
            SimStream::Compute => {}
        }
    }
    for op in &mut ops {
        op.ready_ps = compute_ps;
    }
    const STEPS: usize = 256;
    let eval_s = sample(spans, "lm.schedule.evaluate", || {
        for _ in 0..STEPS * cfg.gpus {
            black_box(schedule::evaluate(compute_ps, 0, black_box(&ops)));
        }
    });
    out.set("lm.schedule.evaluate_us", eval_s / STEPS as f64 * 1e6);
}

/// Exact counters and in-situ phase timers of one untraced call (rank
/// 0's report), per step.
fn report_counters(report: &TrainReport, cfg: &TrainConfig, ug_mean: f64, out: &mut Values) {
    let steps = report.steps.len() as f64;
    let t = &report.traffic;
    let kb_per_step = |bytes: u64| bytes as f64 / steps / 1024.0;
    out.set(
        "simgpu.comm.allreduce_ops_per_step",
        t.allreduce_ops as f64 / steps,
    );
    out.set(
        "simgpu.comm.allgather_ops_per_step",
        t.allgather_ops as f64 / steps,
    );
    out.set(
        "simgpu.comm.wire_intra_kb_per_step",
        kb_per_step(t.intra_bytes()),
    );
    out.set(
        "simgpu.comm.wire_inter_kb_per_step",
        kb_per_step(t.inter_bytes()),
    );

    let sim_ps = crate::timed::sim_total_ps(report) as f64;
    let a = &report.attribution;
    out.set("simgpu.cost.sim_step_us", sim_ps / steps / 1e6);
    out.set("simgpu.cost.compute_share", a.compute_ps as f64 / sim_ps);
    out.set(
        "simgpu.cost.wire_intra_share",
        a.wire_intra_ps as f64 / sim_ps,
    );
    out.set(
        "simgpu.cost.wire_inter_share",
        a.wire_inter_ps as f64 / sim_ps,
    );
    out.set(
        "simgpu.cost.barrier_wait_share",
        a.barrier_wait_ps as f64 / sim_ps,
    );
    out.set(
        "simgpu.cost.overlapped_share",
        a.overlapped_ps as f64 / sim_ps,
    );

    // In-situ phase timers: the total in ms, the phases as shares of
    // it. A path that skips a phase reports a share of 0, not a time
    // that reads 0 on every run.
    let phases = report.exchange_phase_totals();
    let total_ns = phases.total_ns() as f64;
    out.set("lm.exchange.phases_ms", total_ns / steps / 1e6);
    out.set(
        "lm.exchange.gather_share",
        phases.gather_ns as f64 / total_ns,
    );
    out.set(
        "lm.exchange.unique_share",
        phases.unique_ns as f64 / total_ns,
    );
    out.set(
        "lm.exchange.scatter_share",
        phases.scatter_ns as f64 / total_ns,
    );
    out.set(
        "lm.exchange.allreduce_share",
        phases.allreduce_ns as f64 / total_ns,
    );
    out.set("lm.exchange.apply_share", phases.apply_ns as f64 / total_ns);
    out.set("lm.exchange.ug_mean", ug_mean);
    out.set(
        "lm.exchange.ug_over_gk",
        ug_mean / cfg.global_batch_tokens() as f64,
    );
    let both = |f: fn(&zipf_lm::ExchangeStats) -> u64| {
        report
            .steps
            .iter()
            .map(|s| f(&s.input_exchange) + s.output_exchange.as_ref().map_or(0, f))
            .collect::<Vec<u64>>()
    };
    let wire: u64 = both(|x| x.wire_bytes).iter().sum();
    out.set("lm.exchange.wire_kb_per_step", kb_per_step(wire));
    let peak = both(|x| x.peak_buffer_bytes).into_iter().max().unwrap_or(0);
    out.set("lm.exchange.peak_buffer_kb", peak as f64 / 1024.0);
}

/// The fold of every rank's `TraceLog`: mean over ranks, per steady
/// step.
pub struct TraceFold {
    pub step_wall_ms: f64,
    pub compute_ms: f64,
    pub allreduce_ms: f64,
    pub gather_ms: f64,
    pub local_ms: f64,
    pub barrier_wait_ms: f64,
    pub unattributed_ms: f64,
    pub events_per_step: f64,
    pub dropped: u64,
}

/// Folds per-rank logs of a `steps`-step run (`steps >= 3`). A rank's
/// steady window runs from the end of its step 0 — the cold one — to
/// the end of its last step but one, and spans are summed over the
/// steps inside it. The last step is left out because ranks leave it
/// differently: a rank that leaves any other step goes straight into
/// the next compute phase, holding its core or run slot, so its peers
/// leave later; after the last step nothing follows and all leave at
/// once. Barrier waits happen inside the collective spans, so they are
/// reported beside the split, not in it, and `unattributed` is what no
/// span but the wait covers: batch load, the per-rank schedule
/// evaluation, `apply_dense`, report push.
pub fn fold_trace(logs: &[TraceLog], steps: usize) -> TraceFold {
    assert!(
        steps >= 3,
        "a steady window needs a first, a middle and a last step"
    );
    let last_steady = steps as u64 - 2;
    let per = (logs.len() as u64 * last_steady) as f64 * 1e6;
    let mut sums = [0u64; 6];
    let mut events = 0usize;
    for log in logs {
        let end_of = |step: u64| {
            log.events
                .iter()
                .filter(|e| e.step == step)
                .map(|e| e.t_end_ns)
                .max()
                .unwrap_or(0)
        };
        sums[0] += end_of(last_steady).saturating_sub(end_of(0));
        for e in &log.events {
            if !(1..=last_steady).contains(&e.step) {
                continue;
            }
            let slot = match e.span {
                SpanKind::Compute => 1,
                SpanKind::AllReduce => 2,
                SpanKind::Gather => 3,
                SpanKind::Unique | SpanKind::Scatter | SpanKind::Apply => 4,
                SpanKind::BarrierWait => 5,
                SpanKind::StragglerDelay | SpanKind::Recovery => continue,
            };
            sums[slot] += e.duration_ns();
        }
        events += log.events.len();
    }
    let ms = |ns: u64| ns as f64 / per;
    TraceFold {
        step_wall_ms: ms(sums[0]),
        compute_ms: ms(sums[1]),
        allreduce_ms: ms(sums[2]),
        gather_ms: ms(sums[3]),
        local_ms: ms(sums[4]),
        barrier_wait_ms: ms(sums[5]),
        unattributed_ms: ms(sums[0].saturating_sub(sums[1] + sums[2] + sums[3] + sums[4])),
        events_per_step: events as f64 / (logs.len() * steps) as f64,
        dropped: logs.iter().map(|l| l.dropped).sum(),
    }
}

/// Nests every rank's events under the traced-call span. Each rank's
/// log has its own clock, started when the rank's thread was. Ranks
/// finish their last step together; after it comes rank 0's
/// end-of-epoch validation, which the `lm.eval` probe measured as
/// `tail_ns`. So a rank's clock is placed where its last event ends
/// `tail_ns` before the call does — an estimate, good to the few
/// milliseconds the join takes.
fn nest_rank_events(spans: &mut Spans, call: usize, logs: &[TraceLog], tail_ns: u64) {
    let (call_start, call_end) = (spans.span(call).start_ns, spans.span(call).end_ns);
    for log in logs {
        let last_end = log.events.iter().map(|e| e.t_end_ns).max().unwrap_or(0);
        let origin = call_end.saturating_sub(tail_ns + last_end).max(call_start);
        for e in &log.events {
            let name = format!("{} step {}", e.span.label(), e.step);
            spans.add_child(
                call,
                &name,
                origin + e.t_start_ns,
                origin + e.t_end_ns,
                log.rank + 1,
            );
        }
    }
}

/// One traced call of the whole world; every rank's report.
fn traced_train(ops: &mut Ops, cfg: &TrainConfig) -> Option<Vec<TrainReport>> {
    let traced_cfg = TrainConfig {
        trace: TraceConfig::on(),
        ..cfg.clone()
    };
    ops.attempt("traced call", || {
        train_with_faults(&traced_cfg, UNLIMITED_MEM, &FaultPlan::none())
            .into_iter()
            .collect::<Result<Vec<TrainReport>, TrainError>>()
    })
}

/// Runs the per-layer half of `w`. `scratch_dir` takes the checkpoint
/// probe's files, removed before returning.
pub fn run(w: &Workload, seed: u64, scratch_dir: &Path, spans: &mut Spans) -> Layers {
    let mut sink = Sink {
        spans,
        out: Values::default(),
        ops: Ops::default(),
    };
    let notes = measure(w, seed, scratch_dir, &mut sink);
    // Report in the declared order, and only finite numbers. After a
    // failed call the probes behind it never ran.
    let metrics: Vec<(&'static str, f64)> = crate::spec::PER_LAYER
        .iter()
        .map(|m| (m.name, sink.out.get(m.name)))
        .collect();
    let mut ops = sink.ops;
    for (name, value) in &metrics {
        ops.check(value.is_finite(), || format!("{name} was not measured"));
    }
    Layers {
        metrics,
        notes,
        ops,
    }
}

/// The calls and probes of [`run`], in order; returns the report's notes.
fn measure(w: &Workload, seed: u64, scratch_dir: &Path, sink: &mut Sink) -> Vec<String> {
    let mut notes = Vec::new();
    let cfg = w.config(seed);
    let Sink { spans, out, ops } = sink;

    // How fast the host is while this half runs. The per-layer host
    // times are reported as the clock read them; this says by how much
    // a loud minute inflated them all.
    let mut calibrator = Calibrator::new();
    calibrator.slowdown();
    let mut slowdowns = vec![calibrator.slowdown()];

    // An untraced call either side of the traced one: the base of the
    // tracing overhead, and the source of in-situ timers and counters.
    let (before, _) = spans.scoped("train (untraced)", |_| {
        timed_train(ops, "untraced call", &cfg)
    });
    slowdowns.push(calibrator.slowdown());
    let ((traced, traced_wall_s), traced_span) = spans.scoped("train (traced)", |_| {
        let t0 = Instant::now();
        (traced_train(ops, &cfg), t0.elapsed().as_secs_f64())
    });
    slowdowns.push(calibrator.slowdown());
    let (after, _) = spans.scoped("train (untraced)", |_| {
        timed_train(ops, "untraced call", &cfg)
    });
    slowdowns.push(calibrator.slowdown());
    out.set("host.slowdown", median(&slowdowns));
    let (Some(before), Some(traced), Some(after)) = (before, traced, after) else {
        return notes;
    };

    // Output checks: tracing changes no result.
    let want = Fingerprint::of(&before.report);
    check_report(ops, "untraced call", &before.report, w.steps);
    check_learning(ops, "untraced call", &before.report);
    check_report(ops, "traced call", &traced[0], w.steps);
    for (what, report) in [("traced", &traced[0]), ("second untraced", &after.report)] {
        ops.check(Fingerprint::of(report) == want, || {
            format!("{what} call: losses, sim time or wire bytes differ from the untraced call's")
        });
    }
    if let (Some(kind), Some(sibling_cfg)) = (w.sibling, w.sibling_config(seed)) {
        let (sibling, _) = spans.scoped("train (sibling)", |_| {
            timed_train(ops, "sibling call", &sibling_cfg)
        });
        if let Some(sibling) = sibling {
            check_report(ops, "sibling call", &sibling.report, w.steps);
            check_sibling(ops, kind, &before.report, &sibling.report);
        }
    }

    let untraced: [&Call; 2] = [&before, &after];
    let mean = |f: fn(&Call) -> f64| untraced.iter().map(|c| f(c)).sum::<f64>() / 2.0;
    let (user, sys) = (mean(|c| c.cpu_user_s), mean(|c| c.cpu_sys_s));
    out.set("host.cpu_user_s", user);
    out.set("host.cpu_sys_s", sys);
    out.set("host.sys_share", sys / (user + sys));
    let overhead = traced_wall_s / mean(|c| c.wall_s);
    out.set("simgpu.trace.overhead_ratio", overhead);
    if overhead > TRACE_OVERHEAD_FLAG {
        notes.push(format!(
            "simgpu.trace.overhead_ratio {overhead:.2} is above {TRACE_OVERHEAD_FLAG}"
        ));
    }

    let logs: Vec<TraceLog> = traced.iter().filter_map(|r| r.trace.clone()).collect();
    ops.check(logs.len() == cfg.gpus, || {
        format!("{} of {} ranks returned a trace", logs.len(), cfg.gpus)
    });
    let fold = fold_trace(&logs, w.steps);
    out.set("simgpu.trace.events_per_step", fold.events_per_step);
    out.set("simgpu.trace.dropped", fold.dropped as f64);
    out.set("lm.trainer.step_wall_ms", fold.step_wall_ms);
    out.set("lm.trainer.compute_ms", fold.compute_ms);
    out.set("lm.trainer.allreduce_ms", fold.allreduce_ms);
    out.set("lm.trainer.gather_ms", fold.gather_ms);
    out.set("lm.trainer.local_ms", fold.local_ms);
    out.set("lm.trainer.barrier_wait_ms", fold.barrier_wait_ms);
    out.set("lm.trainer.unattributed_ms", fold.unattributed_ms);
    out.set(
        "lm.trainer.barrier_wait_share",
        fold.barrier_wait_ms / fold.step_wall_ms,
    );

    // Direct-call probes, layer by layer.
    let data = probe_corpus(&cfg, sink);
    let ug_mean = mean_unique_global(&data.train, &cfg, w.steps);
    if cfg.method.unique {
        // The benchmark's copy of the data preparation is the program's.
        sink.ops
            .check(ug_mean == before.report.mean_unique_global, || {
                format!(
                    "Ug counted from the data ({ug_mean}) differs from the run's ({})",
                    before.report.mean_unique_global
                )
            });
    }
    report_counters(&before.report, &cfg, ug_mean, &mut sink.out);
    probe_tensor(&cfg, sink);
    let (model, fwd_bwd_s) = probe_nn(&cfg, &data, sink);
    let valid_ns = sink.out.get("lm.eval.valid_ms") * 1e6;
    nest_rank_events(sink.spans, traced_span, &logs, valid_ns as u64);
    probe_ranks(&cfg, &data, fwd_bwd_s, sink);
    probe_schedule(&cfg, &traced[0], sink);
    probe_checkpoint(&cfg, &model, data.model_vocab, scratch_dir, sink);

    let table5 = TiebaScale::paper().table5();
    sink.out
        .set("perfmodel.weak_ratio", table5[2].hours / table5[0].hours);
    sink.out.set("perfmodel.paper_weak_ratio", 34.0 / 27.0);
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::TraceEvent;

    fn event(step: u64, span: SpanKind, t_start_ns: u64, t_end_ns: u64) -> TraceEvent {
        TraceEvent {
            rank: 0,
            step,
            span,
            t_start_ns,
            t_end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn fold_accounts_for_the_steady_step() {
        // Step 0 ends at 1 ms. Steps 1 and 2 each last 10 ms: 4 compute,
        // 3 allreduce, 1 gather, 1 unique — and 1 nobody recorded. The
        // synthetic barrier-wait span overlaps the collectives. Step 3,
        // the last, is shorter and must not count.
        let mut events = vec![event(0, SpanKind::BarrierWait, 900_000, 1_000_000)];
        for step in 1..=2u64 {
            let base = 1_000_000 + (step - 1) * 10_000_000;
            let at = |ms: u64| base + ms * 1_000_000;
            events.extend([
                event(step, SpanKind::Compute, at(1), at(5)),
                event(step, SpanKind::AllReduce, at(5), at(8)),
                event(step, SpanKind::Gather, at(8), at(9)),
                event(step, SpanKind::Unique, at(9), at(10)),
                event(step, SpanKind::BarrierWait, at(8), at(10)),
            ]);
        }
        events.push(event(3, SpanKind::Compute, 21_000_000, 23_000_000));
        let log = TraceLog {
            rank: 0,
            events,
            dropped: 0,
        };
        let fold = fold_trace(&[log.clone(), log], 4);
        assert_eq!(fold.step_wall_ms, 10.0);
        assert_eq!(
            (
                fold.compute_ms,
                fold.allreduce_ms,
                fold.gather_ms,
                fold.local_ms
            ),
            (4.0, 3.0, 1.0, 1.0)
        );
        assert_eq!(fold.barrier_wait_ms, 2.0);
        assert_eq!(fold.unattributed_ms, 1.0);
        assert_eq!(
            fold.compute_ms
                + fold.allreduce_ms
                + fold.gather_ms
                + fold.local_ms
                + fold.unattributed_ms,
            fold.step_wall_ms
        );
        assert_eq!(fold.events_per_step, 12.0 / 4.0);
        assert_eq!(fold.dropped, 0);
    }
}
