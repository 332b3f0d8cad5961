//! Embedding-gradient exchange strategies — the heart of the paper.
//!
//! Both strategies take one GPU's token-aligned [`SparseGrad`], move it
//! across the communicator, and apply the *synchronised* update to the
//! local embedding table, so that all replicas hold identical tables
//! afterwards (§II-B's invariant).
//!
//! * baseline (`ExchangeConfig::unique == false`): the state-of-the-art
//!   scheme the paper starts from — ALLGATHER all `K×D` dense gradient
//!   matrices plus their index vectors, then apply every row locally.
//!   Per-GPU memory and wire cost `Θ(G·K·D)`, and that is what
//!   [`ExchangeStats`] charges; the host applies each peer's rows where
//!   the gather left them (see "The baseline reads in place").
//! * unique: §III-A's seven steps — local duplicate reduction,
//!   index-only gather returning the global unique-index set, local
//!   scatter into canonical rows, ALLREDUCE of the `Ug×D` matrix, apply.
//!   Per-GPU cost `Θ(G·K + Ug·D)`.
//!
//! Either path can run with FP16 wire compression (§III-C). Both are
//! reached through [`exchange_and_apply_with`] (or its tracing twin
//! [`exchange_and_apply_traced`]); the strategy is a field of
//! [`ExchangeConfig`], not a choice of function.
//!
//! ## The hot path is allocation-free
//!
//! Both exchanges thread an [`ExchangeScratch`] pool through every step:
//! gathered indices, locally-reduced rows, the canonical unique set, the
//! `Ug×D` scatter matrix and the baseline's one-sender FP16 staging rows
//! all live in reused buffers, so steady-state steps perform **zero heap
//! allocation**. The unique path's index gather
//! ([`Rank::all_gather_unique`]) returns the canonical global set `Î`
//! itself: first occurrence over the rank-major concatenation of every
//! rank's indices — a total order every rank agrees on, no sort needed —
//! derived once per step, in `O(G·K)`, by the collective's rendezvous
//! leader. No rank re-scans a `G·K` index vector; each maps `Î`'s `Ug`
//! words to their rows. Across nodes the same collective deduplicates
//! per node first, so only the node leaders cross Infiniband.
//! Per-phase wall-time (gather / unique / scatter / allreduce / apply)
//! is recorded into [`PhaseTimings`] — and, when tracing, into the
//! rank's [`TraceRecorder`] — by one [`simgpu::PhaseTimer`] lap per
//! phase.
//!
//! ## The baseline reads in place
//!
//! The simulated GPU of §II-B holds all `G·K×D` gathered rows at once,
//! and `peak_buffer_bytes` (hence `sim_peak_mem_mb` and the OOM rows of
//! Tables III/IV) charges exactly that. The *host* does not have to pay
//! it a second time per rank: the baseline's row gather is a visiting
//! ALLGATHER ([`Rank::all_gather_f32_visit`] / `_f16_visit`), and the
//! `(rank, token)`-ordered `w -= lr·v` runs inside the visitor on each
//! sender's payload where it lies — the same elements in the same order
//! as applying a materialised concatenation, so the same bits, with no
//! `G·K×D` buffer written, re-read and page-faulted on every rank.
//! Each sender's row count is checked against its index count before a
//! single row of it is applied; a mismatch is a typed error naming the
//! sender on every rank.
//!
//! Every exchange returns `Result<ExchangeStats, CommError>`: if any
//! peer rank poisons the group mid-step (OOM, injected fault, panic),
//! the collectives inside propagate the abort instead of deadlocking,
//! and the caller is expected to bubble the error up to its own
//! [`simgpu::Rank::abort`]-guarded step loop.

use crate::schedule::{buckets, ExchangeLoad};
use nn::{Embedding, SparseGrad};
use perfmodel::memory;
pub use perfmodel::schedule::ExchangeConfig;
use simgpu::{CommError, PhaseTimer, Rank, SpanKind, TraceRecorder, TrafficSnapshot};

/// Wall-clock nanoseconds per exchange phase, measured on this rank.
///
/// Integer nanos (not floats) so the containing [`ExchangeStats`] stays
/// `Eq`. On the thread-per-rank simulator these include barrier waits,
/// so they rank the *implementation* (allocation, sorting, scatter
/// cost), not the modelled fabric — the α–β cost model covers that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Index (and, for the baseline, row) ALLGATHER time.
    pub gather_ns: u64,
    /// Local duplicate reduction + global unique-set derivation.
    pub unique_ns: u64,
    /// Scatter of reduced rows into the canonical `Ug×D` layout.
    pub scatter_ns: u64,
    /// Ring ALLREDUCE of the aligned matrices.
    pub allreduce_ns: u64,
    /// Application of the synchronised update to the local table.
    pub apply_ns: u64,
}

impl PhaseTimings {
    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.gather_ns + self.unique_ns + self.scatter_ns + self.allreduce_ns + self.apply_ns
    }

    /// Elementwise accumulation (for per-run totals).
    pub fn accumulate(&mut self, other: &PhaseTimings) {
        self.gather_ns += other.gather_ns;
        self.unique_ns += other.unique_ns;
        self.scatter_ns += other.scatter_ns;
        self.allreduce_ns += other.allreduce_ns;
        self.apply_ns += other.apply_ns;
    }
}

/// What one exchange cost this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeStats {
    /// Gradient rows per rank (`K`, with duplicates): this rank's own
    /// on the baseline, the group's mean `⌊Σ_r K_r / G⌋` on the unique
    /// path — every rank's own `K` whenever contributions are uniform,
    /// and rank-invariant when they are not.
    pub local_tokens: usize,
    /// Locally-unique words (`Ui`) — only set by the unique path.
    pub unique_local: usize,
    /// Globally-unique words this step (`Ug`) — only set by the unique
    /// path.
    pub unique_global: usize,
    /// Bytes this rank put on the wire: `sent.total_bytes()`.
    pub wire_bytes: u64,
    /// What this exchange's collectives returned for this rank, by class
    /// and tier, with one op per collective call.
    pub sent: TrafficSnapshot,
    /// Peak transient buffer bytes this rank needed to hold gathered /
    /// scattered gradient state (the quantity that runs GPUs out of
    /// memory in Tables III/IV).
    pub peak_buffer_bytes: u64,
    /// Raw (pre-codec) bytes of this rank's step-6 ALLREDUCE payloads:
    /// Σ over buckets of bucket elements × wire element size. Equals
    /// `reduce_enc_bytes` whenever no gradient codec is active, so the
    /// step scheduler's enc/raw ratio collapses to exactly 1.
    pub reduce_raw_bytes: u64,
    /// The same payloads under the active gradient codec: Σ over
    /// buckets of the codec's encoded length on the *reduced* bucket
    /// (rank-invariant — the reduced matrix is identical everywhere).
    /// Never exceeds `reduce_raw_bytes` (codecs never expand).
    pub reduce_enc_bytes: u64,
    /// Σ over all ranks of the encoded index-publish length for step
    /// 3's gather (raw equivalent: `local_tokens · 4 · G`): the exact Σ
    /// of the frames the collective saw, so every rank prices the same
    /// number.
    pub index_enc_bytes: u64,
    /// `Σ_n |U_n|`: the node sets the unique path's index gather moved
    /// between node leaders; 0 when it ran flat (and on the baseline).
    pub node_unique: usize,
    /// Measured wall-time per phase on this rank.
    pub timings: PhaseTimings,
}

/// The synchronised part of a step's exchange stats, which is what the
/// clock prices; the rest (timings, local counts, this rank's wire and
/// buffer bytes) differs per rank and prices nothing.
impl From<&ExchangeStats> for ExchangeLoad {
    fn from(s: &ExchangeStats) -> Self {
        ExchangeLoad {
            local_tokens: s.local_tokens,
            unique_global: s.unique_global,
            index_enc_bytes: s.index_enc_bytes,
            node_unique: s.node_unique,
            reduce: (s.reduce_enc_bytes, s.reduce_raw_bytes),
        }
    }
}

/// Reusable buffers for the exchange hot path.
///
/// One scratch per (rank, table) pair, threaded through every step, so
/// the steady state allocates nothing: `Vec::clear` keeps capacity, and
/// the vocabulary-sized slot map is epoch-stamped — bumping `epoch`
/// invalidates every entry in O(1) instead of clearing the arrays.
#[derive(Debug, Default)]
pub struct ExchangeScratch {
    /// Gathered `G·K` index vector (baseline path only; identical on all
    /// ranks).
    all_indices: Vec<u32>,
    /// How many of `all_indices` each sender contributed, rank order
    /// (baseline path only: which indices a sender's rows belong to).
    sender_counts: Vec<usize>,
    /// One sender's `K×D` rows decoded from the FP16 wire (compressed
    /// baseline path only; overwritten per sender).
    staging: Vec<f32>,
    /// Locally-unique indices `Ĵ`, first-occurrence order.
    reduced_indices: Vec<u32>,
    /// Locally-reduced rows `∆̂`, aligned with `reduced_indices`.
    reduced_rows: Vec<f32>,
    /// Canonical globally-unique index set `Î`.
    unique: Vec<u32>,
    /// Canonical `Ug×D` scatter/ALLREDUCE matrix `M`.
    m: Vec<f32>,
    /// `word → slot` for the epoch that stamped it (vocab-sized).
    slot_of: Vec<u32>,
    /// Epoch that last wrote `slot_of[word]` (vocab-sized).
    epoch_of: Vec<u64>,
    /// Current epoch; bumped once per slot-map use.
    epoch: u64,
}

impl ExchangeScratch {
    /// An empty pool; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the slot map to cover `vocab` words (no-op once sized).
    fn ensure_vocab(&mut self, vocab: usize) {
        if self.slot_of.len() < vocab {
            self.slot_of.resize(vocab, 0);
            self.epoch_of.resize(vocab, 0);
        }
    }

    /// Steps 1–2 of §III-A in O(K): deduplicate `grad` into
    /// `reduced_indices` / `reduced_rows` (first-occurrence order,
    /// duplicate rows summed) using the epoch-stamped slot map.
    fn local_reduce(&mut self, grad: &SparseGrad, d: usize) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.reduced_indices.clear();
        self.reduced_rows.clear();
        for (i, &idx) in grad.indices.iter().enumerate() {
            let w = idx as usize;
            let row = grad.rows.row(i);
            if self.epoch_of[w] == epoch {
                let slot = self.slot_of[w] as usize;
                let dst = &mut self.reduced_rows[slot * d..(slot + 1) * d];
                for (a, &b) in dst.iter_mut().zip(row) {
                    *a += b;
                }
            } else {
                self.epoch_of[w] = epoch;
                self.slot_of[w] = self.reduced_indices.len() as u32;
                self.reduced_indices.push(idx);
                self.reduced_rows.extend_from_slice(row);
            }
        }
    }

    /// The flat derivation of step 4 in O(G·K): the canonical unique set
    /// as first occurrence in a gathered index vector `all_indices`
    /// (the same on every rank, so a total order all ranks agree on).
    /// Leaves `slot_of[w]` valid for every `w` in the set (current
    /// epoch). The reference the unique-set gather's `simgpu::NodeSets`
    /// is held to.
    #[cfg(test)]
    fn global_unique(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.unique.clear();
        for i in 0..self.all_indices.len() {
            let w = self.all_indices[i] as usize;
            if self.epoch_of[w] != epoch {
                self.epoch_of[w] = epoch;
                self.slot_of[w] = self.unique.len() as u32;
                self.unique.push(self.all_indices[i]);
            }
        }
    }

    /// Points `slot_of` at each word's row of the canonical `Ug×D`
    /// layout, in O(Ug): the scatter of step 5 looks up every locally
    /// unique word, and each one is in `unique`.
    fn slot_unique(&mut self) {
        for (slot, &w) in self.unique.iter().enumerate() {
            self.slot_of[w as usize] = slot as u32;
        }
    }
}

/// Runs one exchange per `cfg` — the baseline dense ALLGATHER or the
/// §III-A uniqueness path — and applies the synchronised update to
/// `table`, reusing `scratch`'s buffers (zero steady-state allocation).
pub fn exchange_and_apply_with(
    rank: &Rank,
    grad: &SparseGrad,
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
    scratch: &mut ExchangeScratch,
) -> Result<ExchangeStats, CommError> {
    exchange_and_apply_traced(rank, grad, table, lr, cfg, scratch, None)
}

/// [`exchange_and_apply_with`] recording a [`simgpu::trace::TraceEvent`]
/// per phase into `trace` (span kinds Gather / Unique / Scatter /
/// AllReduce / Apply, with the phase's exact wire bytes; the unique
/// path emits two `Unique` spans per step — the local reduction of
/// steps 1–2 and the mapping of step 4's global set to its rows — and the
/// baseline's `Apply` span carries its row gather, whose rows are
/// applied as they arrive). `None` disables recording at the cost of
/// one branch per phase.
pub fn exchange_and_apply_traced(
    rank: &Rank,
    grad: &SparseGrad,
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
    scratch: &mut ExchangeScratch,
    trace: Option<&mut TraceRecorder>,
) -> Result<ExchangeStats, CommError> {
    if cfg.unique {
        unique_exchange(rank, grad, table, lr, cfg, scratch, trace)
    } else {
        baseline_exchange(rank, grad, table, lr, cfg.compression, scratch, trace)
    }
}

/// The baseline dense exchange (§II-B): ALLGATHER of indices and full
/// `K×D` gradients from every GPU, applied sequentially in rank order
/// (deterministic, so all replicas stay identical). Peers' rows are read
/// in their senders' slots, never concatenated on this rank.
fn baseline_exchange(
    rank: &Rank,
    grad: &SparseGrad,
    table: &mut Embedding,
    lr: f32,
    compression: Option<f32>,
    scratch: &mut ExchangeScratch,
    trace: Option<&mut TraceRecorder>,
) -> Result<ExchangeStats, CommError> {
    let d = table.dim();
    let n_local = grad.indices.len();
    let mut timer = PhaseTimer::start(trace);
    let mut timings = PhaseTimings::default();
    let ExchangeScratch {
        all_indices,
        sender_counts,
        staging,
        ..
    } = scratch;

    all_indices.clear();
    sender_counts.clear();
    let index_sent = rank.all_gather_u32_visit(&grad.indices, |_, indices| {
        sender_counts.push(indices.len());
        all_indices.extend_from_slice(indices);
        Ok(())
    })?;

    // Apply every row in (rank, token) order, sender by sender as the
    // row gather visits them. Repeated indices accumulate — this is the
    // serialised scatter-add the paper describes, complete with its
    // duplicate-row hazard. The gather phase ends when the first
    // sender's rows arrive (publish + rendezvous wait), before the row
    // gather has returned its bytes: the Gather span carries the index
    // gather's, the Apply span the row gather's.
    let mut applied = 0;
    let apply = |sender: usize, rows: &[f32]| {
        if sender == 0 {
            timings.gather_ns = timer.lap(SpanKind::Gather, index_sent.total());
        }
        let indices = &all_indices[applied..applied + sender_counts[sender]];
        if rows.len() != indices.len() * d {
            return Err(CommError::abort(
                sender,
                format!(
                    "baseline exchange: rank {sender} sent {} row elements for {} indices × {d}",
                    rows.len(),
                    indices.len()
                ),
            ));
        }
        for (i, &idx) in indices.iter().enumerate() {
            let row = &rows[i * d..(i + 1) * d];
            let dst = table.weights_mut().row_mut(idx as usize);
            for (w, &v) in dst.iter_mut().zip(row) {
                *w -= lr * v;
            }
        }
        applied += indices.len();
        Ok(())
    };
    let rows_sent = match compression {
        Some(scale) => rank.all_gather_f16_visit(grad.rows.as_slice(), scale, staging, apply)?,
        None => rank.all_gather_f32_visit(grad.rows.as_slice(), apply)?,
    };
    timings.apply_ns = timer.lap(SpanKind::Apply, rows_sent.total());
    let sent = TrafficSnapshot::allgather(index_sent + rows_sent, 2);

    // What the modelled GPU holds simultaneously: G·K indices + G·K·D
    // rows (the host reads the rows in place; the charge is the paper's).
    let total_rows = all_indices.len() as u64;

    Ok(ExchangeStats {
        local_tokens: n_local,
        wire_bytes: sent.total_bytes(),
        sent,
        peak_buffer_bytes: memory::exchange_bytes(total_rows, d, None),
        index_enc_bytes: total_rows * 4,
        timings,
        // No unique set, no ALLREDUCE on this path.
        ..ExchangeStats::default()
    })
}

/// The uniqueness exchange — §III-A, steps 1–7 — on pooled buffers.
/// `cfg.gpus_per_node > 0` runs the index gather on its node schedule
/// and step 6's `Ug×D` ALLREDUCE on the two-tier schedule when the
/// group spans nodes.
fn unique_exchange(
    rank: &Rank,
    grad: &SparseGrad,
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
    scratch: &mut ExchangeScratch,
    trace: Option<&mut TraceRecorder>,
) -> Result<ExchangeStats, CommError> {
    let d = table.dim();
    scratch.ensure_vocab(table.vocab());
    let mut timer = PhaseTimer::start(trace);
    let mut timings = PhaseTimings::default();

    // Steps 1–2: local unique indices Ĵ and locally-reduced gradients ∆̂
    // (O(K) epoch-map pass — no hashing, no allocation).
    scratch.local_reduce(grad, d);
    let u_local = scratch.reduced_indices.len();
    timings.unique_ns = timer.lap(SpanKind::Unique, 0);

    // Steps 3–4: one collective publishes the *index* vectors J
    // (Θ(G·K), not Θ(G·K·D)) and returns the canonical set Î — first
    // occurrence over the rank-major concatenation, identical on every
    // rank. Across nodes only the node leaders cross Infiniband, each
    // with its node's set U_n; with an index codec every frame is
    // priced at its encoded length.
    let gathered = rank.all_gather_unique(
        &grad.indices,
        cfg.codec.index_codec(),
        cfg.topology(),
        &mut scratch.unique,
    )?;
    timings.gather_ns = timer.lap(SpanKind::Gather, gathered.sent.total());
    scratch.slot_unique();
    let u_global = scratch.unique.len();
    timings.unique_ns += timer.lap(SpanKind::Unique, 0);

    // Step 5: scatter ∆̂ into the canonical Ug×D layout M (zeros filled).
    // `slot_of` holds every word of Î's row, giving O(1) lookup per
    // locally-unique row.
    scratch.m.clear();
    scratch.m.resize(u_global * d, 0.0);
    for (i, &idx) in scratch.reduced_indices.iter().enumerate() {
        let slot = scratch.slot_of[idx as usize] as usize;
        scratch.m[slot * d..(slot + 1) * d]
            .copy_from_slice(&scratch.reduced_rows[i * d..(i + 1) * d]);
    }
    timings.scatter_ns = timer.lap(SpanKind::Scatter, 0);

    // Step 6: ALLREDUCE the aligned matrices, one collective call per
    // gradient bucket (`cfg.bucket_bytes`; a single whole-payload call
    // when 0). Reduction is elementwise under a canonical leader order,
    // so the slicing moves no bits. The bytes are the collective's own:
    // this rank's exact per-bucket share of the active wire schedule.
    let reduced = all_reduce_bucketed(rank, &mut scratch.m, cfg)?;
    timings.allreduce_ns = timer.lap(SpanKind::AllReduce, reduced.sent.total_bytes());

    // Step 7: apply M̂ through Î. Indices are unique ⇒ no duplicate-row
    // serialisation.
    for (slot, &idx) in scratch.unique.iter().enumerate() {
        let dst = table.weights_mut().row_mut(idx as usize);
        for (w, &v) in dst.iter_mut().zip(&scratch.m[slot * d..(slot + 1) * d]) {
            *w -= lr * v;
        }
    }
    timings.apply_ns = timer.lap(SpanKind::Apply, 0);

    // Index gather and step 6's ALLREDUCEs: what each returned.
    let mut sent = TrafficSnapshot::allgather(gathered.sent, 1);
    sent += reduced.sent;
    // Buffers live simultaneously at the ALLREDUCE: the indices the
    // gather left on the GPU (every G·K of J on the flat schedule; the
    // node sets Σ|U_n| and Î on the node schedule), the locally-reduced
    // Ĵ (Ui indices) + ∆̂ (Ui×D rows) that step 5 scatters from, and the
    // Ug×D matrix M itself.
    let held = match gathered.node_sets {
        0 => gathered.indices,
        node_sets => node_sets + u_global as u64,
    };
    let distinct = Some((u_local as u64, u_global as u64));

    Ok(ExchangeStats {
        local_tokens: (gathered.indices / rank.world() as u64) as usize,
        unique_local: u_local,
        unique_global: u_global,
        wire_bytes: sent.total_bytes(),
        sent,
        peak_buffer_bytes: memory::exchange_bytes(held, d, distinct),
        reduce_raw_bytes: reduced.raw,
        reduce_enc_bytes: reduced.enc,
        index_enc_bytes: gathered.frames,
        node_unique: gathered.node_sets as usize,
        timings,
    })
}

/// What one bucketed ALLREDUCE put on the wire for this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReducedBytes {
    /// What the collectives charged this rank — Σ over buckets of what
    /// [`Rank::all_reduce`] returned, one op per bucket.
    pub sent: TrafficSnapshot,
    /// Raw payload bytes: elements × the wire format's element size.
    pub raw: u64,
    /// The same payloads as single frames in the wire format: Σ over
    /// buckets of the codec's encoded length on the *reduced* bucket
    /// (rank-invariant — the reduced payload is identical everywhere).
    /// Equals `raw` for fixed-width formats, so the step scheduler's
    /// enc/raw ratio collapses to exactly 1; never exceeds it (codecs
    /// never expand).
    pub enc: u64,
}

/// ALLREDUCEs `data` in place the way `cfg` runs a gradient payload:
/// its wire format and topology, one collective call per gradient
/// bucket of at most `cfg.bucket_bytes` wire bytes (see [`buckets`]) —
/// the only place gradient buckets meet a collective: the trainer's
/// dense ALLREDUCE and the exchange's step-6 `Ug×D` ALLREDUCE both call
/// it. Each bucket is a range of the one buffer, which the collective
/// borrows rather than copies ([`Rank::all_reduce`]). Reduction is
/// elementwise under a canonical leader order, so neither the slicing
/// nor the topology moves a bit; the returned bytes are the
/// collective's own, exact even when a bucket does not divide by the
/// world size.
pub fn all_reduce_bucketed(
    rank: &Rank,
    data: &mut Vec<f32>,
    cfg: &ExchangeConfig,
) -> Result<ReducedBytes, CommError> {
    let (wire, topology) = (cfg.grad_wire(), cfg.topology());
    let mut out = ReducedBytes {
        raw: data.len() as u64 * wire.elem_bytes(),
        ..ReducedBytes::default()
    };
    for range in buckets(data.len(), wire.elem_bytes(), cfg.bucket_bytes) {
        let sent = rank.all_reduce(data, range.clone(), wire, topology)?;
        out.sent += TrafficSnapshot::allreduce(sent, 1);
        out.enc += wire.encoded_len(&data[range]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simgpu::CommGroup;
    use tensor::Matrix;

    const D: usize = 4;
    const VOCAB: usize = 50;

    fn make_table(seed: u64) -> Embedding {
        let mut rng = StdRng::seed_from_u64(seed);
        Embedding::new(&mut rng, VOCAB, D)
    }

    fn make_grad(seed: u64, n: usize) -> SparseGrad {
        let mut rng = StdRng::seed_from_u64(seed);
        let indices: Vec<u32> = (0..n).map(|_| rng.gen_range(0..VOCAB as u32)).collect();
        let rows = Matrix::from_vec(
            n,
            D,
            (0..n * D).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        SparseGrad { indices, rows }
    }

    /// Runs `f` on every rank; returns per-rank results.
    fn run_group<T: Send>(world: usize, f: impl Fn(Rank) -> T + Sync) -> Vec<T> {
        let ranks = CommGroup::create(world);
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let f = &f;
                    s.spawn(move || f(rank))
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                out[i] = Some(h.join().expect("rank panicked"));
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    /// One exchange at lr 0.1 on a throwaway scratch pool.
    fn oneshot(
        rank: &Rank,
        grad: &SparseGrad,
        table: &mut Embedding,
        cfg: &ExchangeConfig,
    ) -> Result<ExchangeStats, CommError> {
        exchange_and_apply_with(rank, grad, table, 0.1, cfg, &mut ExchangeScratch::new())
    }

    fn exchange_result(world: usize, cfg: ExchangeConfig) -> Vec<(Matrix, ExchangeStats)> {
        run_group(world, |rank| {
            let mut table = make_table(7);
            let grad = make_grad(100 + rank.rank() as u64, 12);
            let stats = oneshot(&rank, &grad, &mut table, &cfg).unwrap();
            (table.weights().clone(), stats)
        })
    }

    #[test]
    fn baseline_keeps_replicas_identical() {
        for world in [1usize, 2, 4] {
            let res = exchange_result(world, ExchangeConfig::baseline());
            for r in 1..world {
                assert_eq!(
                    res[0].0.as_slice(),
                    res[r].0.as_slice(),
                    "world {world} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn unique_keeps_replicas_identical() {
        for world in [1usize, 2, 4, 6] {
            let res = exchange_result(world, ExchangeConfig::unique());
            for r in 1..world {
                assert_eq!(res[0].0.as_slice(), res[r].0.as_slice());
            }
        }
    }

    #[test]
    fn unique_matches_baseline_result() {
        // THE paper's correctness claim: uniqueness "only changes the
        // flow of computation … and hence produces the same accuracy as
        // the baseline" — the updated tables must agree (up to f32
        // summation order).
        for world in [1usize, 2, 4] {
            let base = exchange_result(world, ExchangeConfig::baseline());
            let uniq = exchange_result(world, ExchangeConfig::unique());
            let diff = base[0].0.max_abs_diff(&uniq[0].0);
            assert!(diff < 1e-5, "world {world}: diff {diff}");
        }
    }

    #[test]
    fn compressed_unique_close_to_exact() {
        let world = 4;
        let exact = exchange_result(world, ExchangeConfig::unique());
        let comp = exchange_result(
            world,
            ExchangeConfig {
                unique: true,
                compression: Some(512.0),
                ..ExchangeConfig::baseline()
            },
        );
        let diff = exact[0].0.max_abs_diff(&comp[0].0);
        assert!(diff > 0.0, "compression should not be bit-exact");
        assert!(diff < 5e-3, "diff {diff}");
        // Compressed replicas still identical to each other.
        for r in 1..world {
            assert_eq!(comp[0].0.as_slice(), comp[r].0.as_slice());
        }
    }

    #[test]
    fn compressed_baseline_close_to_exact() {
        let world = 3;
        let exact = exchange_result(world, ExchangeConfig::baseline());
        let comp = exchange_result(
            world,
            ExchangeConfig {
                unique: false,
                compression: Some(512.0),
                ..ExchangeConfig::baseline()
            },
        );
        let diff = exact[0].0.max_abs_diff(&comp[0].0);
        assert!(diff < 5e-3, "diff {diff}");
    }

    #[test]
    fn unique_stats_report_compression_of_duplicates() {
        // All ranks submit the same few hot words: Ug ≪ G·K.
        let world = 4;
        let res = run_group(world, |rank| {
            let mut table = make_table(1);
            let grad = SparseGrad {
                indices: vec![3, 3, 7, 3, 7, 3],
                rows: Matrix::zeros(6, D),
            };
            oneshot(&rank, &grad, &mut table, &ExchangeConfig::unique()).unwrap()
        });
        for s in &res {
            assert_eq!(s.local_tokens, 6);
            assert_eq!(s.unique_local, 2);
            assert_eq!(s.unique_global, 2); // same hot words everywhere
        }
    }

    #[test]
    fn unique_moves_fewer_bytes_when_duplicates_dominate() {
        let world = 4;
        // 64 tokens over only 5 distinct hot words per rank.
        let cfg_b = ExchangeConfig::baseline();
        let cfg_u = ExchangeConfig::unique();
        let mk = |rank: &Rank, cfg: &ExchangeConfig| {
            let mut table = make_table(2);
            let mut rng = StdRng::seed_from_u64(rank.rank() as u64);
            let indices: Vec<u32> = (0..64).map(|_| rng.gen_range(0..5)).collect();
            let n = indices.len();
            let grad = SparseGrad {
                indices,
                rows: Matrix::zeros(n, D),
            };
            oneshot(rank, &grad, &mut table, cfg).unwrap()
        };
        let base = run_group(world, |rank| mk(&rank, &cfg_b));
        let uniq = run_group(world, |rank| mk(&rank, &cfg_u));
        assert!(
            uniq[0].wire_bytes * 3 < base[0].wire_bytes,
            "unique {} vs baseline {}",
            uniq[0].wire_bytes,
            base[0].wire_bytes
        );
        assert!(uniq[0].peak_buffer_bytes * 3 < base[0].peak_buffer_bytes);
    }

    #[test]
    fn baseline_buffer_grows_linearly_with_world() {
        let grab = |world: usize| {
            run_group(world, |rank| {
                let mut table = make_table(3);
                let grad = make_grad(rank.rank() as u64, 16);
                oneshot(&rank, &grad, &mut table, &ExchangeConfig::baseline()).unwrap()
            })[0]
                .peak_buffer_bytes
        };
        let b2 = grab(2);
        let b4 = grab(4);
        assert_eq!(b4, b2 * 2, "baseline buffer must scale with G");
    }

    #[test]
    fn unique_buffer_saturates_with_world() {
        // With a tiny hot vocabulary, Ug saturates, so the Ug·D term
        // stops growing; only the G·K index buffer grows.
        let grab = |world: usize| {
            run_group(world, |rank| {
                let mut table = make_table(3);
                let mut rng = StdRng::seed_from_u64(rank.rank() as u64);
                let indices: Vec<u32> = (0..64).map(|_| rng.gen_range(0..5)).collect();
                let n = indices.len();
                let grad = SparseGrad {
                    indices,
                    rows: Matrix::zeros(n, D),
                };
                oneshot(&rank, &grad, &mut table, &ExchangeConfig::unique()).unwrap()
            })[0]
        };
        let s2 = grab(2);
        let s8 = grab(8);
        assert_eq!(s2.unique_global, 5);
        assert_eq!(s8.unique_global, 5);
        // Buffer grows only by the index term: 6·64·4 bytes.
        assert_eq!(s8.peak_buffer_bytes - s2.peak_buffer_bytes, 6 * 64 * 4);
    }

    #[test]
    fn ragged_contributions_price_one_load_on_every_rank() {
        // Ranks publish 5, 11 and 17 tokens under the delta+varint index
        // codec: the load the clock prices — K, the Σ of every published
        // frame, the node sets — is the same on every rank, flat and on
        // nodes of two.
        use simgpu::WireCodec;
        let codec = simgpu::WireCodecId::LosslessIndex;
        for gpn in [0usize, 2] {
            let cfg = ExchangeConfig {
                gpus_per_node: gpn,
                codec,
                ..ExchangeConfig::unique()
            };
            let ranks = CommGroup::create_full(3, if gpn == 0 { 3 } else { gpn }, 0, None);
            let stats = simgpu::run_ranks(ranks, |rank| {
                let grad = zipf_grad(40 + rank.rank() as u64, 5 + 6 * rank.rank());
                oneshot(&rank, &grad, &mut make_table(3), &cfg).unwrap()
            });
            let frames: u64 = (0..3)
                .map(|r| {
                    let indices = zipf_grad(40 + r as u64, 5 + 6 * r).indices;
                    simgpu::DeltaVarintCodec.encoded_len(&indices)
                })
                .sum();
            let load = ExchangeLoad::from(&stats[0]);
            assert_eq!(load.index_enc_bytes, frames, "gpn {gpn}");
            assert_eq!(load.local_tokens, 11, "gpn {gpn}: the mean K");
            assert_eq!(load.node_unique > 0, gpn > 0, "gpn {gpn}");
            for (r, s) in stats.iter().enumerate() {
                assert_eq!(ExchangeLoad::from(s), load, "gpn {gpn} rank {r}");
            }
        }
    }

    #[test]
    fn single_gpu_exchange_is_pure_local_update() {
        let res = exchange_result(1, ExchangeConfig::unique());
        assert_eq!(res[0].1.wire_bytes, 0);
    }

    #[test]
    fn scratch_local_reduce_matches_hashmap_reference() {
        let grad = SparseGrad {
            indices: vec![3, 1, 3, 3, 9, 1],
            rows: Matrix::from_vec(6, 2, vec![1., 1., 5., 5., 2., 2., 4., 4., 8., 8., 1., 1.]),
        };
        let reference = grad.local_reduce();
        let mut scratch = ExchangeScratch::new();
        scratch.ensure_vocab(10);
        scratch.local_reduce(&grad, 2);
        assert_eq!(scratch.reduced_indices, reference.indices);
        assert_eq!(scratch.reduced_rows, reference.rows.as_slice());
    }

    #[test]
    fn pooled_exchange_reuses_buffers_across_steps() {
        // After a warm-up step, repeated exchanges must not grow any
        // scratch buffer: capacities stay put ⇒ zero steady-state heap
        // allocation in this crate's hot path.
        for cfg in [ExchangeConfig::unique(), ExchangeConfig::baseline()] {
            run_group(4, |rank| {
                let mut table = make_table(5);
                let grad = make_grad(400 + rank.rank() as u64, 24);
                let mut scratch = ExchangeScratch::new();
                exchange_and_apply_with(&rank, &grad, &mut table, 0.1, &cfg, &mut scratch).unwrap();
                let caps = |s: &ExchangeScratch| {
                    (
                        s.all_indices.capacity(),
                        s.sender_counts.capacity(),
                        s.staging.capacity(),
                        s.reduced_indices.capacity(),
                        s.reduced_rows.capacity(),
                        s.unique.capacity(),
                        s.m.capacity(),
                        s.slot_of.capacity(),
                    )
                };
                let warm = caps(&scratch);
                for step in 0..5 {
                    exchange_and_apply_with(&rank, &grad, &mut table, 0.1, &cfg, &mut scratch)
                        .unwrap();
                    assert_eq!(caps(&scratch), warm, "buffer grew at step {step}");
                }
            });
        }
    }

    #[test]
    fn pooled_and_oneshot_paths_agree_exactly() {
        // Same gradients through a fresh scratch and through a
        // long-lived pool: bit-identical tables and identical
        // non-timing stats.
        for cfg in [
            ExchangeConfig::unique(),
            ExchangeConfig::baseline(),
            ExchangeConfig::unique_compressed(),
        ] {
            let oneshot = exchange_result(4, cfg);
            let pooled = run_group(4, |rank| {
                let mut table = make_table(7);
                let mut scratch = ExchangeScratch::new();
                // Pollute the pool with an unrelated step first.
                let warm = make_grad(900 + rank.rank() as u64, 20);
                let mut warm_table = make_table(8);
                exchange_and_apply_with(&rank, &warm, &mut warm_table, 0.1, &cfg, &mut scratch)
                    .unwrap();
                let grad = make_grad(100 + rank.rank() as u64, 12);
                let stats =
                    exchange_and_apply_with(&rank, &grad, &mut table, 0.1, &cfg, &mut scratch)
                        .unwrap();
                (table.weights().clone(), stats)
            });
            for (a, b) in oneshot.iter().zip(&pooled) {
                assert_eq!(a.0.as_slice(), b.0.as_slice(), "tables diverged");
                assert_eq!(a.1.unique_global, b.1.unique_global);
                assert_eq!(a.1.wire_bytes, b.1.wire_bytes);
                assert_eq!(a.1.peak_buffer_bytes, b.1.peak_buffer_bytes);
            }
        }
    }

    #[test]
    fn hierarchical_unique_exchange_matches_flat_bit_exactly() {
        // Routing step 6 through the two-tier schedule must not move a
        // single bit of the result, and the returned wire bytes must
        // track the schedule switch exactly, per rank and per tier.
        hierarchical_matches_flat(ExchangeConfig::unique(), 4);
    }

    /// First-occurrence order of `indices`: §III-A's canonical order.
    fn first_occurrence(indices: &[u32]) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        indices
            .iter()
            .copied()
            .filter(|&i| seen.insert(i))
            .collect()
    }

    /// Rank `r`'s raw index frames when every rank `q` contributes
    /// `indices(q)` on nodes of `gpn`: its `J_r`, `Ĵ_r`, its node's `U_n`
    /// and `Î`, at 4 bytes per index.
    fn raw_frames(
        world: usize,
        gpn: usize,
        r: usize,
        indices: impl Fn(usize) -> Vec<u32>,
    ) -> simgpu::UniqueFrames {
        let gather =
            |ranks: std::ops::Range<usize>| -> Vec<u32> { ranks.flat_map(&indices).collect() };
        let node = r / gpn * gpn;
        let bytes = |v: Vec<u32>| v.len() as u64 * 4;
        simgpu::UniqueFrames {
            indices: bytes(indices(r)),
            local: bytes(first_occurrence(&indices(r))),
            node: bytes(first_occurrence(&gather(node..(node + gpn).min(world)))),
            global: bytes(first_occurrence(&gather(0..world))),
        }
    }

    /// `cfg` with the unique path on its two-tier schedules, on
    /// multi-node groups: tables bit-identical to `cfg` on one flat
    /// ring, and every rank's returned bytes the node schedule's index
    /// gather and the two-tier ALLREDUCE at `elem` bytes per element,
    /// tier by tier.
    fn hierarchical_matches_flat(cfg: ExchangeConfig, elem: u64) {
        for (world, gpn) in [(6usize, 2usize), (8, 3)] {
            let flat = exchange_result(world, cfg);
            let hier_cfg = ExchangeConfig {
                gpus_per_node: gpn,
                ..cfg
            };
            let ranks = CommGroup::create_full(world, gpn, 0, None);
            let hier: Vec<(Matrix, ExchangeStats)> = simgpu::run_ranks(ranks, |rank| {
                let mut table = make_table(7);
                let grad = make_grad(100 + rank.rank() as u64, 12);
                let stats = oneshot(&rank, &grad, &mut table, &hier_cfg).unwrap();
                (table.weights().clone(), stats)
            });
            let (two_tier, mut inter) = (simgpu::Topology::TwoTier, 0);
            for (r, ((ft, fs), (ht, hs))) in flat.iter().zip(&hier).enumerate() {
                let ctx = format!("{cfg:?} world {world} gpn {gpn} rank {r}");
                assert_eq!(ft.as_slice(), ht.as_slice(), "{ctx} diverged from flat");
                assert_eq!(fs.unique_global, hs.unique_global);
                let n = fs.unique_global * D;
                let indices = |q: usize| make_grad(100 + q as u64, 12).indices;
                let frames = raw_frames(world, gpn, r, indices);
                let gather = simgpu::unique_gather_tier_bytes(world, gpn, two_tier, r, frames);
                let tb = simgpu::allreduce_send_bytes(n, world, gpn, two_tier, r, elem);
                let mut want = TrafficSnapshot::allgather(gather, 1);
                want += TrafficSnapshot::allreduce(tb, 1);
                assert_eq!(hs.sent, want, "{ctx}");
                inter += tb.inter;
                // The GPU holds the node sets and Î, not G·K indices.
                let node_sets: usize = (0..world)
                    .step_by(gpn)
                    .map(|q| raw_frames(world, gpn, q, indices).node as usize / 4)
                    .sum();
                assert_eq!(hs.node_unique, node_sets, "{ctx}");
                let (ui, ug) = (hs.unique_local as u64, hs.unique_global as u64);
                let held = memory::exchange_bytes(node_sets as u64 + ug, D, Some((ui, ug)));
                assert_eq!(hs.peak_buffer_bytes, held, "{ctx}");
            }
            assert!(inter > 0, "leaders must cross nodes");
        }
    }

    #[test]
    fn bucketed_unique_exchange_matches_whole_payload_bit_exactly() {
        // Slicing the Ug×D ALLREDUCE into gradient buckets is pure
        // schedule: elementwise canonical reduction per slice ⇒ tables
        // identical to the whole-payload collective, and the analytic
        // wire bytes become the exact sum of per-bucket ring shares.
        let world = 4;
        for base_cfg in [
            ExchangeConfig::unique(),
            ExchangeConfig::unique_compressed(),
        ] {
            let whole = exchange_result(world, base_cfg);
            let bucket_bytes = 64u64; // several buckets at Ug·D ≈ tens of elems
            let bucketed = exchange_result(
                world,
                ExchangeConfig {
                    bucket_bytes,
                    ..base_cfg
                },
            );
            let elem: u64 = if base_cfg.compression.is_some() { 2 } else { 4 };
            for (r, ((wt, ws), (bt, bs))) in whole.iter().zip(&bucketed).enumerate() {
                assert_eq!(wt.as_slice(), bt.as_slice(), "rank {r} diverged");
                assert_eq!(ws.unique_global, bs.unique_global);
                let n = ws.unique_global * D;
                let gather = 12u64 * 4 * (world as u64 - 1);
                let shares: u64 = crate::schedule::buckets(n, elem, bucket_bytes)
                    .map(|range| {
                        let flat = simgpu::Topology::Flat;
                        simgpu::allreduce_send_bytes(range.len(), world, world, flat, r, elem)
                            .total()
                    })
                    .sum();
                assert_eq!(bs.wire_bytes, gather + shares);
                assert!(
                    crate::schedule::buckets(n, elem, bucket_bytes).count() > 1,
                    "test must actually exercise multiple buckets"
                );
            }
        }
    }

    #[test]
    fn hierarchical_f16_exchange_matches_flat_f16_bit_exactly() {
        // Satellite of the silent-fallback fix: with FP16 compression on,
        // the config used to resolve to the flat ring and the exchange
        // quietly ran it. Now the two-tier path carries the f16 wire
        // format itself — same canonical leader reduction ⇒ bit-identical
        // tables — and the returned per-rank bytes follow the
        // hierarchical schedule at elem_bytes = 2, per tier.
        hierarchical_matches_flat(ExchangeConfig::unique_compressed(), 2);
    }

    #[test]
    fn canonical_order_is_first_occurrence_of_gathered_vector() {
        // The unique set must be ordered by first occurrence in the
        // rank-order gathered index vector, not sorted — and all ranks
        // must agree on it (their copies of the vector are identical).
        let world = 3;
        let uniques = run_group(world, |rank| {
            let mut table = make_table(1);
            // Rank r contributes descending indices so sorted order and
            // first-occurrence order differ visibly.
            let indices: Vec<u32> = match rank.rank() {
                0 => vec![9, 2, 9, 5],
                1 => vec![2, 7, 0],
                _ => vec![5, 0, 1],
            };
            let n = indices.len();
            let grad = SparseGrad {
                indices,
                rows: Matrix::zeros(n, D),
            };
            let mut scratch = ExchangeScratch::new();
            exchange_and_apply_with(
                &rank,
                &grad,
                &mut table,
                0.1,
                &ExchangeConfig::unique(),
                &mut scratch,
            )
            .unwrap();
            scratch.unique.clone()
        });
        let expected = vec![9u32, 2, 5, 7, 0, 1];
        for u in &uniques {
            assert_eq!(u, &expected);
        }
    }

    #[test]
    fn stats_expose_nonzero_phase_timings() {
        let res = run_group(2, |rank| {
            let mut table = {
                let mut rng = StdRng::seed_from_u64(3);
                Embedding::new(&mut rng, 2000, 32)
            };
            // Large enough that every phase takes measurable time.
            let grad = make_grad_sized(rank.rank() as u64, 512, 2000, 32);
            let mut scratch = ExchangeScratch::new();
            exchange_and_apply_with(
                &rank,
                &grad,
                &mut table,
                0.1,
                &ExchangeConfig::unique(),
                &mut scratch,
            )
            .unwrap()
        });
        for s in &res {
            let t = s.timings;
            assert!(t.gather_ns > 0, "gather {t:?}");
            assert!(t.unique_ns > 0, "unique {t:?}");
            assert!(t.scatter_ns > 0, "scatter {t:?}");
            assert!(t.allreduce_ns > 0, "allreduce {t:?}");
            assert!(t.apply_ns > 0, "apply {t:?}");
            assert_eq!(
                t.total_ns(),
                t.gather_ns + t.unique_ns + t.scatter_ns + t.allreduce_ns + t.apply_ns
            );
        }
        // Baseline path: gather + apply only.
        let base = run_group(2, |rank| {
            let mut table = {
                let mut rng = StdRng::seed_from_u64(3);
                Embedding::new(&mut rng, 2000, 32)
            };
            let grad = make_grad_sized(rank.rank() as u64, 512, 2000, 32);
            oneshot(&rank, &grad, &mut table, &ExchangeConfig::baseline()).unwrap()
        });
        for s in &base {
            assert!(s.timings.gather_ns > 0);
            assert!(s.timings.apply_ns > 0);
            assert_eq!(s.timings.unique_ns, 0);
            assert_eq!(s.timings.allreduce_ns, 0);
        }
    }

    fn make_grad_sized(seed: u64, n: usize, vocab: usize, d: usize) -> SparseGrad {
        let mut rng = StdRng::seed_from_u64(seed);
        let indices: Vec<u32> = (0..n).map(|_| rng.gen_range(0..vocab as u32)).collect();
        let rows = Matrix::from_vec(
            n,
            d,
            (0..n * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        SparseGrad { indices, rows }
    }

    #[test]
    fn traced_and_untraced_paths_agree_and_bytes_split_exactly() {
        // The trace parameter must not perturb results, and the per-rank
        // event bytes must partition the analytic wire_bytes exactly.
        for cfg in [
            ExchangeConfig::unique(),
            ExchangeConfig::baseline(),
            ExchangeConfig::unique_compressed(),
        ] {
            let plain = exchange_result(3, cfg);
            let traced = run_group(3, |rank| {
                let mut table = make_table(7);
                let grad = make_grad(100 + rank.rank() as u64, 12);
                let mut scratch = ExchangeScratch::new();
                let mut rec = simgpu::TraceRecorder::new(rank.rank() as u32, 64);
                let stats = exchange_and_apply_traced(
                    &rank,
                    &grad,
                    &mut table,
                    0.1,
                    &cfg,
                    &mut scratch,
                    Some(&mut rec),
                )
                .unwrap();
                (table.weights().clone(), stats, rec.finish())
            });
            for (r, ((pt, ps), (tt, ts, log))) in plain.iter().zip(&traced).enumerate() {
                assert_eq!(pt.as_slice(), tt.as_slice(), "cfg {cfg:?} rank {r}");
                // Everything but the wall-clock phase timings must match
                // bit-for-bit (timings differ between any two runs).
                let mut ts_cmp = *ts;
                ts_cmp.timings = ps.timings;
                assert_eq!(ps, &ts_cmp);
                assert_eq!(log.total_bytes(), ts.wire_bytes, "cfg {cfg:?} rank {r}");
                assert_eq!(log.dropped, 0);
                let expected_spans: &[SpanKind] = if cfg.unique {
                    &[
                        SpanKind::Unique,
                        SpanKind::Gather,
                        SpanKind::Unique,
                        SpanKind::Scatter,
                        SpanKind::AllReduce,
                        SpanKind::Apply,
                    ]
                } else {
                    &[SpanKind::Gather, SpanKind::Apply]
                };
                let spans: Vec<SpanKind> = log.events.iter().map(|e| e.span).collect();
                assert_eq!(spans, expected_spans, "cfg {cfg:?}");
            }
        }
    }

    /// The baseline exchange as it was before it read in place — both
    /// gathers materialised, then one pass over the `G·K×D`
    /// concatenation — kept as the oracle for the visiting path.
    fn materialising_baseline(
        rank: &Rank,
        grad: &SparseGrad,
        table: &mut Embedding,
        lr: f32,
        compression: Option<f32>,
    ) -> Result<ExchangeStats, CommError> {
        let g = rank.world() as u64;
        let d = table.dim();
        let n_local = grad.indices.len() as u64;
        let elem_bytes: u64 = if compression.is_some() { 2 } else { 4 };
        let (mut all_indices, mut all_rows) = (Vec::new(), Vec::new());
        rank.all_gather_u32_into(&grad.indices, &mut all_indices)?;
        match compression {
            Some(scale) => rank.all_gather_f16_into(grad.rows.as_slice(), scale, &mut all_rows)?,
            None => rank.all_gather_f32_into(grad.rows.as_slice(), &mut all_rows)?,
        }
        assert_eq!(all_rows.len(), all_indices.len() * d);
        for (i, &idx) in all_indices.iter().enumerate() {
            let row = &all_rows[i * d..(i + 1) * d];
            let dst = table.weights_mut().row_mut(idx as usize);
            for (w, &v) in dst.iter_mut().zip(row) {
                *w -= lr * v;
            }
        }
        let total_rows = all_indices.len() as u64;
        Ok(ExchangeStats {
            local_tokens: grad.indices.len(),
            wire_bytes: n_local * (d as u64) * elem_bytes * (g - 1) + n_local * 4 * (g - 1),
            peak_buffer_bytes: total_rows * 4 + total_rows * (d as u64) * 4,
            index_enc_bytes: total_rows * 4,
            ..ExchangeStats::default()
        })
    }

    /// [`make_grad`] with Zipf-distributed indices: duplicate-heavy, the
    /// hot words repeat within and across ranks.
    fn zipf_grad(seed: u64, n: usize) -> SparseGrad {
        let mut rng = StdRng::seed_from_u64(!seed);
        let zipf = zipf::Zipf::new(VOCAB, 1.1);
        SparseGrad {
            indices: (0..n).map(|_| zipf.sample(&mut rng) as u32).collect(),
            ..make_grad(seed, n)
        }
    }

    #[test]
    fn in_place_baseline_matches_materialising_oracle_bit_for_bit() {
        for world in [1usize, 2, 3, 8] {
            for compression in [None, Some(512.0)] {
                // Uniform K, then ragged K with one empty contribution.
                for ragged in [false, true] {
                    let cfg = ExchangeConfig {
                        compression,
                        ..ExchangeConfig::baseline()
                    };
                    let tokens = |r: usize| match ragged {
                        false => 40,
                        true => (r * 13 + 5) % 29 * usize::from(r != 1),
                    };
                    let res = run_group(world, |rank| {
                        let r = rank.rank();
                        let grad = zipf_grad(300 + r as u64, tokens(r));
                        let (mut want, mut got) = (make_table(7), make_table(7));
                        let mut scratch = ExchangeScratch::new();
                        let mut stats = Vec::new();
                        // Two steps through one pool: stale counts and
                        // staging rows must not leak into the second.
                        for _ in 0..2 {
                            let w =
                                materialising_baseline(&rank, &grad, &mut want, 0.1, compression)
                                    .unwrap();
                            let g = exchange_and_apply_with(
                                &rank,
                                &grad,
                                &mut got,
                                0.1,
                                &cfg,
                                &mut scratch,
                            )
                            .unwrap();
                            stats.push((w, g));
                        }
                        (want, got, stats)
                    });
                    let ctx = format!("world {world} compression {compression:?} ragged {ragged}");
                    let bits = |t: &Embedding| -> Vec<u32> {
                        t.weights().as_slice().iter().map(|x| x.to_bits()).collect()
                    };
                    for (r, (want, got, stats)) in res.iter().enumerate() {
                        assert_eq!(bits(got), bits(want), "{ctx} rank {r}");
                        assert_eq!(bits(got), bits(&res[0].1), "{ctx} replica {r}");
                        for (w, g) in stats {
                            // The oracle books `wire_bytes` only.
                            let g = ExchangeStats {
                                timings: PhaseTimings::default(),
                                sent: TrafficSnapshot::default(),
                                ..*g
                            };
                            assert_eq!(g, *w, "{ctx} rank {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_row_payload_is_a_typed_error_naming_the_sender() {
        // Rank 1 publishes one row fewer than it has indices. Nobody
        // may shift its (and every later sender's) rows onto the wrong
        // words: every rank gets the same error, attributed to rank 1,
        // after applying rank 0's rows and none of rank 1's.
        for compression in [None, Some(512.0)] {
            let cfg = ExchangeConfig {
                compression,
                ..ExchangeConfig::baseline()
            };
            let res = run_group(3, |rank| {
                let r = rank.rank();
                let mut grad = make_grad(100 + r as u64, 6);
                if r == 1 {
                    grad.rows = Matrix::zeros(5, D);
                }
                let mut table = make_table(7);
                let err = oneshot(&rank, &grad, &mut table, &cfg).unwrap_err();
                (err, rank.barrier())
            });
            for (r, (err, after)) in res.iter().enumerate() {
                assert_eq!(err.failed_rank(), 1, "rank {r}");
                assert!(
                    err.reason().contains("20 row elements for 6 indices"),
                    "rank {r}: {}",
                    err.reason()
                );
                assert_eq!(after.as_ref().unwrap_err(), err, "group stays poisoned");
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Sort+dedup reference for the *set* behind the canonical order.
        fn sorted_unique(indices: &[u32]) -> Vec<u32> {
            let mut v = indices.to_vec();
            v.sort_unstable();
            v.dedup();
            v
        }

        /// First-occurrence reference for the canonical order itself.
        fn first_occurrence_unique(indices: &[u32]) -> Vec<u32> {
            let mut seen = std::collections::HashSet::new();
            indices
                .iter()
                .copied()
                .filter(|&i| seen.insert(i))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The epoch-stamped canonical unique set: duplicate-free,
            // first-occurrence-ordered, and equal (as a set) to the
            // sort+dedup reference — for arbitrary gathered vectors,
            // including ones that revisit the same scratch across steps
            // (stale epoch stamps must never leak between calls).
            #[test]
            fn global_unique_matches_references(
                gathered in proptest::collection::vec(0u32..50, 0..200),
                second in proptest::collection::vec(0u32..50, 0..200),
            ) {
                let mut scratch = ExchangeScratch::new();
                scratch.ensure_vocab(50);
                for round in [&gathered, &second] {
                    scratch.all_indices.clear();
                    scratch.all_indices.extend_from_slice(round);
                    scratch.global_unique();
                    prop_assert_eq!(&scratch.unique, &first_occurrence_unique(round));
                    prop_assert_eq!(sorted_unique(&scratch.unique), sorted_unique(round));
                    // slot_of must invert the canonical order.
                    for (slot, &w) in scratch.unique.iter().enumerate() {
                        prop_assert_eq!(scratch.slot_of[w as usize] as usize, slot);
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // Cross-rank agreement: every rank derives the identical
            // canonical set from its own copy of the gathered vector.
            #[test]
            fn canonical_set_identical_across_ranks(
                seed in 0u64..1000,
                world in 2usize..5,
                tokens in 1usize..24,
            ) {
                let uniques = run_group(world, |rank| {
                    let mut table = make_table(1);
                    let grad = make_grad(seed * 64 + rank.rank() as u64, tokens);
                    let mut scratch = ExchangeScratch::new();
                    exchange_and_apply_with(
                &rank,
                &grad,
                &mut table,
                0.1,
                &ExchangeConfig::unique(),
                &mut scratch,
            )
                        .unwrap();
                    scratch.unique.clone()
                });
                for u in &uniques[1..] {
                    prop_assert_eq!(u, &uniques[0]);
                }
                prop_assert_eq!(
                    &uniques[0],
                    &first_occurrence_unique(&{
                        let mut all = Vec::new();
                        for r in 0..world {
                            all.extend(make_grad(seed * 64 + r as u64, tokens).indices);
                        }
                        all
                    })
                );
            }
        }
    }
}

/// `simgpu::NodeSets` — the node-level first-occurrence function behind
/// the unique-set gather — against [`ExchangeScratch::global_unique`]
/// over the rank-major concatenation: the same set, in the same order,
/// at every world, node size and contribution shape.
#[cfg(test)]
mod node_sets_differential {
    use super::ExchangeScratch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simgpu::NodeSets;

    const VOCAB: usize = 500;

    /// Each rank's Zipf(1.1) indices, `tokens(r)` of them.
    fn contributions(world: usize, seed: u64, tokens: impl Fn(usize) -> usize) -> Vec<Vec<u32>> {
        let zipf = zipf::Zipf::new(VOCAB, 1.1);
        (0..world)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed * 1000 + r as u64);
                (0..tokens(r))
                    .map(|_| zipf.sample(&mut rng) as u32)
                    .collect()
            })
            .collect()
    }

    /// The flat path's canonical set over `indices`.
    fn flat_unique(scratch: &mut ExchangeScratch, indices: &[u32]) -> Vec<u32> {
        scratch.all_indices.clear();
        scratch.all_indices.extend_from_slice(indices);
        scratch.global_unique();
        scratch.unique.clone()
    }

    #[test]
    fn node_sets_equal_the_flat_global_unique_in_order() {
        let mut scratch = ExchangeScratch::new();
        scratch.ensure_vocab(VOCAB);
        let mut sets = NodeSets::new();
        for world in [1usize, 2, 3, 8, 48, 192] {
            for gpn in [1usize, 3, 8] {
                // Uniform K (down to one token), then ragged K with
                // every third rank contributing nothing.
                let shapes: [(&str, &dyn Fn(usize) -> usize); 3] = [
                    ("K 1", &|_| 1),
                    ("K 24", &|_| 24),
                    ("ragged", &|r| if r % 3 == 1 { 0 } else { 5 + r % 17 }),
                ];
                for (seed, (shape, tokens)) in shapes.into_iter().enumerate() {
                    let ctx = format!("world {world} gpn {gpn} {shape}");
                    let slots = contributions(world, seed as u64, tokens);
                    let layout = simgpu::NodeLayout::new(world, gpn);
                    sets.build(slots.iter().map(Vec::as_slice), layout);
                    let flat = flat_unique(&mut scratch, &slots.concat());
                    assert_eq!(sets.global(), flat, "{ctx}: Î");
                    assert_eq!(sets.nodes(), world.div_ceil(gpn), "{ctx}");
                    let mut node_major = Vec::new();
                    for (n, node) in slots.chunks(gpn).enumerate() {
                        let want = flat_unique(&mut scratch, &node.concat());
                        assert_eq!(sets.node(n), want, "{ctx}: U_{n}");
                        node_major.extend_from_slice(sets.node(n));
                    }
                    assert_eq!(sets.node_total(), node_major.len(), "{ctx}");
                    assert_eq!(flat_unique(&mut scratch, &node_major), flat, "{ctx}");
                    for (r, slot) in slots.iter().enumerate() {
                        let want = flat_unique(&mut scratch, slot);
                        assert_eq!(sets.local(r), want, "{ctx}: Ĵ_{r}");
                    }
                }
            }
        }
    }
}
