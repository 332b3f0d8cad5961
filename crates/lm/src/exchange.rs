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
//! reached through [`exchange_and_apply_with`] on a threaded rank, and through
//! `exchange_world` for every rank at once on the trainer's lockstep
//! [`World`]; the two share every per-rank step and every collective's
//! implementation, and the strategy is a field of [`ExchangeConfig`],
//! not a choice of function.
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
//! is recorded into [`PhaseTimings`]: on a threaded rank by one
//! [`simgpu::PhaseTimer`] lap per phase, on the lockstep world by each
//! member's [`RankClock`], which also traces the phases as spans.
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
//! and the caller is expected to bubble the error up to its step loop.

use crate::schedule::{buckets, ExchangeLoad};
use nn::block::blocks;
use nn::{Embedding, SparseGrad};
use perfmodel::memory;
pub use perfmodel::schedule::ExchangeConfig;
use simgpu::{
    peer_exchange_tier_bytes, CommError, PhaseTimer, Rank, RankClock, RankSum, SpanKind, TierBytes,
    TrafficSnapshot, UniqueGathered, World,
};
use std::ops::Range;
use std::time::Instant;
use tensor::Matrix;

/// Wall-clock nanoseconds per exchange phase, measured on this rank.
///
/// Integer nanos (not floats) so the containing [`ExchangeStats`] stays
/// `Eq`. A collective phase includes the wait for the last rank (parked
/// at the barrier on a threaded rank; from the rank's last phase to the
/// collective's start under lockstep), so they rank the
/// *implementation* (allocation, sorting, scatter cost), not the
/// modelled fabric — the α–β cost model covers that.
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
    /// Canonical `Ug×D` scatter/ALLREDUCE matrix `M` (threaded path).
    m: Vec<f32>,
    /// The lockstep `Ug×D` reduction every member's `∆̂` rows are folded
    /// into — the first member's, kept across steps.
    sum: RankSum,
    /// Wall time of the last [`ExchangeScratch::reduce`], nanoseconds.
    reduce_ns: u64,
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
        self.begin_reduce();
        for (i, &idx) in grad.indices.iter().enumerate() {
            self.fold_row(idx, grad.rows.row(i), d);
        }
    }

    /// Opens a reduction: a fresh epoch, `(Ĵ, ∆̂)` empty.
    fn begin_reduce(&mut self) {
        self.epoch += 1;
        self.reduced_indices.clear();
        self.reduced_rows.clear();
    }

    /// Folds word `idx`'s gradient `row` into `(Ĵ, ∆̂)`: a word's first
    /// row is copied, every later one added to it.
    fn fold_row(&mut self, idx: u32, row: &[f32], d: usize) {
        let w = idx as usize;
        if self.epoch_of[w] == self.epoch {
            let slot = self.slot_of[w] as usize;
            let dst = &mut self.reduced_rows[slot * d..(slot + 1) * d];
            for (a, &b) in dst.iter_mut().zip(row) {
                *a += b;
            }
        } else {
            self.epoch_of[w] = self.epoch;
            self.slot_of[w] = self.reduced_indices.len() as u32;
            self.reduced_indices.push(idx);
            self.reduced_rows.extend_from_slice(row);
        }
    }

    /// Steps 1–2 where the gradient is made, timed as a `Unique` span on
    /// `clock`, so the lockstep exchange reads `(Ĵ, ∆̂)` from here: the
    /// token-aligned gradient of `indices` (rows `d` wide, of a
    /// `vocab`-word table) is made [`nn::BLOCK_ROWS`] rows at a time —
    /// `make(r, block)` writes rows `r` into the first rows of `block` —
    /// and each block is folded in, token by token, before the next is
    /// made. The result is [`Self::local_reduce`]'s over the whole
    /// matrix, to the bit, and the `K×d` matrix never exists.
    pub(crate) fn reduce(
        &mut self,
        indices: &[u32],
        d: usize,
        vocab: usize,
        block: &mut Matrix,
        mut make: impl FnMut(Range<usize>, &mut Matrix),
        clock: &mut RankClock,
    ) {
        let reduce = || {
            self.ensure_vocab(vocab);
            self.begin_reduce();
            for r in blocks(indices.len()) {
                let n = r.len();
                make(r.clone(), block);
                assert_eq!(block.cols(), d, "a block of whole rows");
                let made = &block.as_slice()[..n * d];
                for (&idx, row) in indices[r].iter().zip(made.chunks_exact(d)) {
                    self.fold_row(idx, row, d);
                }
            }
        };
        self.reduce_ns = clock.phase(SpanKind::Unique, reduce, |_| 0).1;
    }

    /// [`Self::reduce`] of a gradient whose rows are stored (a word LM's
    /// output-table gradient): [`Self::local_reduce`], timed the same way.
    pub(crate) fn reduce_stored(&mut self, grad: &SparseGrad, vocab: usize, clock: &mut RankClock) {
        let reduce = || {
            self.ensure_vocab(vocab);
            self.local_reduce(grad, grad.rows.cols());
        };
        self.reduce_ns = clock.phase(SpanKind::Unique, reduce, |_| 0).1;
    }

    /// Word `w`'s row of `∆̂` after [`Self::local_reduce`], `None` if the
    /// word is not in `Ĵ`.
    fn reduced_row(&self, w: u32, d: usize) -> Option<&[f32]> {
        let w = w as usize;
        (self.epoch_of[w] == self.epoch).then(|| {
            let slot = self.slot_of[w] as usize;
            &self.reduced_rows[slot * d..(slot + 1) * d]
        })
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

    /// Step 5: scatters `∆̂` into the canonical `Ug×D` matrix `M` (zeros
    /// filled); `slot_of` holds every word of `Î`'s row, giving O(1)
    /// lookup per locally-unique row.
    fn scatter(&mut self, d: usize) {
        self.m.clear();
        self.m.resize(self.unique.len() * d, 0.0);
        for (i, &idx) in self.reduced_indices.iter().enumerate() {
            let slot = self.slot_of[idx as usize] as usize;
            self.m[slot * d..(slot + 1) * d]
                .copy_from_slice(&self.reduced_rows[i * d..(i + 1) * d]);
        }
    }
}

/// `w -= lr·v` for every `(index, row)` pair in order: a repeated index
/// accumulates. The baseline applies every sender's rows through it,
/// the unique path `M̂` through `Î`.
fn apply_rows(table: &mut Embedding, indices: &[u32], rows: &[f32], lr: f32) {
    let d = table.dim();
    if d == 0 {
        return;
    }
    for (&idx, row) in indices.iter().zip(rows.chunks_exact(d)) {
        let dst = table.weights_mut().row_mut(idx as usize);
        for (w, &v) in dst.iter_mut().zip(row) {
            *w -= lr * v;
        }
    }
}

/// The baseline row gather's framing: sender `sender`'s payload must be
/// one `d`-wide row per index it published, or it is a typed error
/// naming the sender.
fn check_rows(sender: usize, rows: &[f32], indices: usize, d: usize) -> Result<(), CommError> {
    if rows.len() == indices * d {
        return Ok(());
    }
    Err(CommError::abort(
        sender,
        format!(
            "baseline exchange: rank {sender} sent {} row elements for {indices} indices × {d}",
            rows.len()
        ),
    ))
}

/// A baseline exchange's stats for one rank: its `local` rows, the
/// index and row gathers' sends, and the `total_rows` the gathers moved
/// world-wide — what the modelled GPU holds simultaneously (`G·K`
/// indices + `G·K·D` rows; the host reads the rows in place, the charge
/// is the paper's).
fn baseline_stats(
    local: usize,
    index_sent: TierBytes,
    rows_sent: TierBytes,
    total_rows: u64,
    d: usize,
    timings: PhaseTimings,
) -> ExchangeStats {
    let sent = TrafficSnapshot::allgather(index_sent + rows_sent, 2);
    ExchangeStats {
        local_tokens: local,
        wire_bytes: sent.total_bytes(),
        sent,
        peak_buffer_bytes: memory::exchange_bytes(total_rows, d, None),
        index_enc_bytes: total_rows * 4,
        timings,
        // No unique set, no ALLREDUCE on this path.
        ..ExchangeStats::default()
    }
}

/// A unique exchange's stats for one rank of `world`: what its index
/// gather and step 6's ALLREDUCEs returned, its `u_local` and the
/// step's `u_global`.
fn unique_stats(
    gathered: UniqueGathered,
    reduced: ReducedBytes,
    (u_local, u_global): (usize, usize),
    world: usize,
    d: usize,
    timings: PhaseTimings,
) -> ExchangeStats {
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
    ExchangeStats {
        local_tokens: (gathered.indices / world as u64) as usize,
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
    }
}

/// Runs one exchange per `cfg` — the baseline dense ALLGATHER or the
/// §III-A uniqueness path — and applies the synchronised update to
/// `table`, reusing `scratch`'s buffers (zero steady-state allocation).
/// This rank's side of the trainer's lockstep `exchange_world`: the same
/// per-rank steps, the same collectives on a threaded group.
pub fn exchange_and_apply_with(
    rank: &Rank,
    grad: &SparseGrad,
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
    scratch: &mut ExchangeScratch,
) -> Result<ExchangeStats, CommError> {
    if cfg.unique {
        unique_exchange(rank, grad, table, lr, cfg, scratch)
    } else {
        baseline_exchange(rank, grad, table, lr, cfg.compression, scratch)
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
) -> Result<ExchangeStats, CommError> {
    let d = table.dim();
    let mut timer = PhaseTimer::start();
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
    // sender's rows arrive (publish + rendezvous wait); the apply phase
    // carries the row gather, whose rows are applied as they arrive.
    let mut applied = 0;
    let apply = |sender: usize, rows: &[f32]| {
        if sender == 0 {
            timings.gather_ns = timer.lap();
        }
        let indices = &all_indices[applied..applied + sender_counts[sender]];
        check_rows(sender, rows, indices.len(), d)?;
        apply_rows(table, indices, rows, lr);
        applied += indices.len();
        Ok(())
    };
    let rows_sent = match compression {
        Some(scale) => rank.all_gather_f16_visit(grad.rows.as_slice(), scale, staging, apply)?,
        None => rank.all_gather_f32_visit(grad.rows.as_slice(), apply)?,
    };
    timings.apply_ns = timer.lap();
    let total_rows = all_indices.len() as u64;
    Ok(baseline_stats(
        grad.indices.len(),
        index_sent,
        rows_sent,
        total_rows,
        d,
        timings,
    ))
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
) -> Result<ExchangeStats, CommError> {
    let d = table.dim();
    scratch.ensure_vocab(table.vocab());
    let mut timer = PhaseTimer::start();
    let mut timings = PhaseTimings::default();

    // Steps 1–2: local unique indices Ĵ and locally-reduced gradients ∆̂
    // (O(K) epoch-map pass — no hashing, no allocation).
    scratch.local_reduce(grad, d);
    let u_local = scratch.reduced_indices.len();
    timings.unique_ns = timer.lap();

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
    timings.gather_ns = timer.lap();
    scratch.slot_unique();
    let u_global = scratch.unique.len();
    timings.unique_ns += timer.lap();

    // Step 5: scatter ∆̂ into the canonical Ug×D layout M.
    scratch.scatter(d);
    timings.scatter_ns = timer.lap();

    // Step 6: ALLREDUCE the aligned matrices, one collective call per
    // gradient bucket (`cfg.bucket_bytes`; a single whole-payload call
    // when 0). Reduction is elementwise under a canonical leader order,
    // so the slicing moves no bits. The bytes are the collective's own:
    // this rank's exact per-bucket share of the active wire schedule.
    let reduced = all_reduce_bucketed(rank, &mut scratch.m, cfg)?;
    timings.allreduce_ns = timer.lap();

    // Step 7: apply M̂ through Î. Indices are unique ⇒ no duplicate-row
    // serialisation.
    apply_rows(table, &scratch.unique, &scratch.m, lr);
    timings.apply_ns = timer.lap();

    Ok(unique_stats(
        gathered,
        reduced,
        (u_local, u_global),
        rank.world(),
        d,
        timings,
    ))
}

/// One rank's side of an [`exchange_world`]: its sparse gradient, its
/// scratch pool and its clock.
pub(crate) struct Member<'a> {
    /// `J_r`: the rank's token-aligned indices.
    pub(crate) indices: &'a [u32],
    /// Its `K×D` rows, aligned with `indices`, which the baseline
    /// gathers. The unique path never reads them: it reads the
    /// `(Ĵ, ∆̂)` that [`ExchangeScratch::reduce`] left in `scratch` where
    /// the gradient was made.
    pub(crate) rows: &'a [f32],
    pub(crate) scratch: &'a mut ExchangeScratch,
    pub(crate) clock: &'a mut RankClock,
}

/// [`exchange_and_apply_with`] for every rank of `world` at once, as a
/// lockstep driver runs it: each per-rank step over every member in
/// turn, each collective once over all members' buffers, and the
/// synchronised update applied once to `table`, the world's one copy of
/// the embedding every rank's replica holds. On the unique path each
/// member's steps 1–2 ran where its gradient was made
/// ([`ExchangeScratch::reduce`]), and its `∆̂` rows are folded straight
/// into one running `Ug×D` sum, in rank order: no member builds `M`. The
/// table and every rank's [`ExchangeStats`] (but for the wall-clock
/// `timings`) are bit-identical to each threaded rank's. Each member's
/// clock records the phases as spans, the collectives from when the
/// member was ready (see [`RankClock::joined`]).
pub(crate) fn exchange_world(
    world: &mut World,
    members: &mut [Member],
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
) -> Result<Vec<ExchangeStats>, CommError> {
    if cfg.unique {
        unique_world(world, members, table, lr, cfg)
    } else {
        baseline_world(world, members, table, lr, cfg.compression)
    }
}

/// [`baseline_exchange`] over every member: the index gather moves
/// nothing the senders do not already hold, and the row gather visits
/// each sender's payload once and applies it to `table`.
fn baseline_world(
    world: &mut World,
    members: &mut [Member],
    table: &mut Embedding,
    lr: f32,
    compression: Option<f32>,
) -> Result<Vec<ExchangeStats>, CommError> {
    let (g, gpn) = (world.world(), world.gpus_per_node());
    let d = table.dim();
    let total_rows: u64 = members.iter().map(|m| m.indices.len() as u64).sum();
    let sent = |r: usize, bytes: usize| peer_exchange_tier_bytes(g, gpn, r, bytes as u64);
    let index_sent: Vec<TierBytes> = members
        .iter()
        .enumerate()
        .map(|(r, m)| sent(r, m.indices.len() * 4))
        .collect();

    let start = Instant::now();
    world.meet()?;
    let gathered = Instant::now();
    let mut timings = vec![PhaseTimings::default(); g];
    for ((m, t), index_sent) in members.iter_mut().zip(&mut timings).zip(&index_sent) {
        let bytes = index_sent.total();
        t.gather_ns = m.clock.joined(SpanKind::Gather, start, gathered, bytes);
    }

    let payloads: Vec<&[f32]> = members.iter().map(|m| m.rows).collect();
    let indices: Vec<&[u32]> = members.iter().map(|m| m.indices).collect();
    let apply = |sender: usize, rows: &[f32]| {
        check_rows(sender, rows, indices[sender].len(), d)?;
        apply_rows(table, indices[sender], rows, lr);
        Ok(())
    };
    let mut staging = Vec::new();
    match compression {
        Some(scale) => world.all_gather_f16_visit(&payloads, scale, &mut staging, apply)?,
        None => world.all_gather_f32_visit(&payloads, apply)?,
    }
    let applied = Instant::now();
    let elem = if compression.is_some() { 2 } else { 4 };
    Ok(members
        .iter_mut()
        .zip(timings)
        .enumerate()
        .map(|(r, (m, mut t))| {
            let rows_sent = sent(r, m.rows.len() * elem);
            t.apply_ns = m
                .clock
                .joined(SpanKind::Apply, gathered, applied, rows_sent.total());
            let local = m.indices.len();
            baseline_stats(local, index_sent[r], rows_sent, total_rows, d, t)
        })
        .collect())
}

/// [`unique_exchange`] over every member whose steps 1–2 already ran
/// ([`ExchangeScratch::reduce`]): steps 3–4 and 6 once over all of them,
/// step 5 as a fold of each member's `∆̂` rows into the one sum, and
/// step 7 once to `table`.
fn unique_world(
    world: &mut World,
    members: &mut [Member],
    table: &mut Embedding,
    lr: f32,
    cfg: &ExchangeConfig,
) -> Result<Vec<ExchangeStats>, CommError> {
    let g = world.world();
    let d = table.dim();
    let locals: Vec<&[u32]> = members.iter().map(|m| m.indices).collect();
    let start = Instant::now();
    world.all_gather_unique(&locals, cfg.codec.index_codec(), cfg.topology())?;
    let end = Instant::now();
    let global = world.unique_set();
    // Step 5 without `M`: each member's `∆̂` rows, in `Î`'s order through
    // its own slot map, folded into the first member's sum as soon as the
    // set is known — a word the member lacks is a hop with a zero row.
    let mut sum = std::mem::take(&mut members[0].scratch.sum);
    sum.begin(cfg.grad_wire());
    let mut timings = Vec::with_capacity(g);
    for (r, m) in members.iter_mut().enumerate() {
        let mut t = PhaseTimings {
            unique_ns: m.scratch.reduce_ns,
            ..PhaseTimings::default()
        };
        let bytes = world.unique_gathered(r).sent.total();
        t.gather_ns = m.clock.joined(SpanKind::Gather, start, end, bytes);
        let scratch = &*m.scratch;
        let rows = global.iter().map(|&w| scratch.reduced_row(w, d));
        t.scatter_ns = m
            .clock
            .phase(SpanKind::Scatter, || sum.fold_rows(d, rows), |_| 0)
            .1;
        timings.push(t);
    }

    let start = Instant::now();
    let reduced = all_reduce_folded(world, &mut sum, cfg);
    let reduced_at = Instant::now();
    // The one reduction every member's M̂ would hold: apply it once.
    if reduced.is_ok() {
        apply_rows(table, world.unique_set(), sum.as_slice(), lr);
    }
    members[0].scratch.sum = sum;
    let reduced = reduced?;
    let applied = Instant::now();
    let u_global = world.unique_set().len();
    Ok(members
        .iter_mut()
        .zip(timings)
        .zip(reduced)
        .enumerate()
        .map(|(r, ((m, mut t), reduced))| {
            let bytes = reduced.sent.total_bytes();
            t.allreduce_ns = m
                .clock
                .joined(SpanKind::AllReduce, start, reduced_at, bytes);
            t.apply_ns = m.clock.joined(SpanKind::Apply, reduced_at, applied, 0);
            let gathered = world.unique_gathered(r);
            let u_local = m.scratch.reduced_indices.len();
            unique_stats(gathered, reduced, (u_local, u_global), g, d, t)
        })
        .collect())
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
/// with its lockstep twin `all_reduce_folded`, the only place
/// gradient buckets meet a collective: the dense ALLREDUCE and the
/// exchange's step-6 `Ug×D` ALLREDUCE both call one of them. Each
/// bucket is a range of the
/// one buffer, which the collective borrows rather than copies
/// ([`Rank::all_reduce`]). Reduction is elementwise under a canonical
/// leader order, so neither the slicing nor the topology moves a bit;
/// the returned bytes are the collective's own, exact even when a
/// bucket does not divide by the world size.
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

/// [`all_reduce_bucketed`] on the lockstep [`World`], every rank's
/// buffer already folded into `sum` ([`RankSum::fold`]): the same
/// buckets, each one [`World::all_reduce`] over its range of the one
/// sum; every rank's bytes.
pub(crate) fn all_reduce_folded(
    world: &mut World,
    sum: &mut RankSum,
    cfg: &ExchangeConfig,
) -> Result<Vec<ReducedBytes>, CommError> {
    let (wire, topology) = (cfg.grad_wire(), cfg.topology());
    let n = sum.as_slice().len();
    let mut out = vec![
        ReducedBytes {
            raw: n as u64 * wire.elem_bytes(),
            ..ReducedBytes::default()
        };
        world.world()
    ];
    let mut sent = vec![TierBytes::default(); world.world()];
    for range in buckets(n, wire.elem_bytes(), cfg.bucket_bytes) {
        world.all_reduce(sum, range.clone(), wire, topology, &mut sent)?;
        let enc = wire.encoded_len(&sum.as_slice()[range]);
        for (o, s) in out.iter_mut().zip(&sent) {
            o.sent += TrafficSnapshot::allreduce(*s, 1);
            o.enc += enc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use perfmodel::TechniqueStack;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simgpu::{CommGroup, TraceRecorder, WireCodecId};
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

    /// Exchanges per rank and step, in [`threaded_vs_lockstep`].
    const STEPS: u64 = 2;

    /// Every rank's table bits and stats (timings zeroed — they are wall
    /// clock) after one exchange, or the error it returned.
    type Outcome = Result<(Vec<u32>, ExchangeStats), CommError>;

    fn outcome(table: &Embedding, stats: ExchangeStats) -> (Vec<u32>, ExchangeStats) {
        let bits = table
            .weights()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let timings = PhaseTimings::default();
        (bits, ExchangeStats { timings, ..stats })
    }

    /// Step `step`'s sparse gradients, one per rank, of ragged length.
    fn step_grads(world: usize, step: u64) -> Vec<SparseGrad> {
        (0..world)
            .map(|r| make_grad(1000 * step + r as u64, 6 + r % 5))
            .collect()
    }

    /// [`STEPS`] exchanges under `cfg` on `world` ranks laid out `gpn`
    /// per node, rank `corrupt`'s first frame torn: per step, every
    /// rank's [`Outcome`] from the threaded exchange on persistent rank
    /// threads, each with its own table, and from the lockstep
    /// [`exchange_world`], which updates the world's one table.
    fn threaded_vs_lockstep(
        world: usize,
        gpn: usize,
        cfg: ExchangeConfig,
        corrupt: Option<usize>,
    ) -> [Vec<Vec<Outcome>>; 2] {
        let ranks = CommGroup::create_full(world, gpn, 0, None);
        let per_rank: Vec<Vec<Outcome>> = simgpu::run_ranks(ranks, |rank| {
            let (mut table, mut scratch) = (make_table(7), ExchangeScratch::new());
            if corrupt == Some(rank.rank()) {
                rank.corrupt_next_codec_frame();
            }
            (0..STEPS)
                .map(|step| {
                    let grad = &step_grads(world, step)[rank.rank()];
                    exchange_and_apply_with(&rank, grad, &mut table, 0.1, &cfg, &mut scratch)
                        .map(|stats| outcome(&table, stats))
                })
                .collect()
        });
        let threaded = (0..STEPS as usize)
            .map(|step| per_rank.iter().map(|r| r[step].clone()).collect())
            .collect();

        let mut w = World::new(world, gpn, None);
        if let Some(r) = corrupt {
            w.corrupt_next_codec_frame(r);
        }
        let mut table = make_table(7);
        let mut scratch: Vec<ExchangeScratch> =
            (0..world).map(|_| ExchangeScratch::new()).collect();
        let mut clocks: Vec<RankClock> = (0..world).map(|_| RankClock::new(None, false)).collect();
        let lockstep = (0..STEPS)
            .map(|step| {
                let grads = step_grads(world, step);
                let res =
                    lockstep_exchange(&mut w, &grads, &mut scratch, &mut clocks, &mut table, &cfg);
                match res {
                    Ok(stats) => stats.into_iter().map(|s| Ok(outcome(&table, s))).collect(),
                    Err(e) => vec![Err(e); world],
                }
            })
            .collect();
        [threaded, lockstep]
    }

    /// One [`exchange_world`] at lr 0.1 over rank `r`'s `grads[r]`,
    /// `scratch[r]` and `clocks[r]`, as the trainer's driver runs it: on
    /// the unique path each rank's gradient is reduced first, where the
    /// trainer reduces it as it is made.
    fn lockstep_exchange(
        world: &mut World,
        grads: &[SparseGrad],
        scratch: &mut [ExchangeScratch],
        clocks: &mut [RankClock],
        table: &mut Embedding,
        cfg: &ExchangeConfig,
    ) -> Result<Vec<ExchangeStats>, CommError> {
        let mut members: Vec<Member> = grads
            .iter()
            .zip(scratch)
            .zip(clocks)
            .map(|((grad, scratch), clock)| {
                if cfg.unique {
                    scratch.reduce_stored(grad, table.vocab(), clock);
                }
                Member {
                    indices: &grad.indices,
                    rows: grad.rows.as_slice(),
                    scratch,
                    clock,
                }
            })
            .collect();
        exchange_world(world, &mut members, table, 0.1, cfg)
    }

    /// The lockstep unique exchange as it ran before it folded rows:
    /// every member's `∆̂` scattered into a zero-filled `Ug×D` matrix
    /// `M`, and each `M` folded into the one running sum in rank order.
    /// Kept as the oracle for the row fold.
    fn scatter_fold_oracle(
        world: &mut World,
        grads: &[SparseGrad],
        scratch: &mut [ExchangeScratch],
        table: &mut Embedding,
        cfg: &ExchangeConfig,
    ) -> Result<Vec<ExchangeStats>, CommError> {
        let g = world.world();
        let (d, vocab) = (table.dim(), table.vocab());
        let mut u_local = Vec::with_capacity(g);
        for (grad, s) in grads.iter().zip(scratch.iter_mut()) {
            s.ensure_vocab(vocab);
            s.local_reduce(grad, d);
            u_local.push(s.reduced_indices.len());
        }
        let locals: Vec<&[u32]> = grads.iter().map(|grad| grad.indices.as_slice()).collect();
        world.all_gather_unique(&locals, cfg.codec.index_codec(), cfg.topology())?;
        let mut sum = RankSum::new();
        sum.begin(cfg.grad_wire());
        for s in scratch.iter_mut() {
            s.unique.clear();
            s.unique.extend_from_slice(world.unique_set());
            s.slot_unique();
            s.scatter(d);
            sum.fold(&mut s.m);
        }
        let reduced = all_reduce_folded(world, &mut sum, cfg)?;
        apply_rows(table, world.unique_set(), sum.as_slice(), 0.1);
        let u_global = world.unique_set().len();
        Ok(reduced
            .into_iter()
            .zip(u_local)
            .enumerate()
            .map(|(r, (reduced, u))| {
                let gathered = world.unique_gathered(r);
                let timings = PhaseTimings::default();
                unique_stats(gathered, reduced, (u, u_global), g, d, timings)
            })
            .collect())
    }

    /// Rank `r`'s gradient of `world` at `step` in
    /// [`lockstep_unique_exchange_characterisation`]: ragged `K` over
    /// words `0..40`, then word `40 + r % 6` (first seen at rank `r`),
    /// word 46 twice with rows that cancel to +0, word 47 as a −0 row on
    /// rank 0 only and word 48 as a −0 row on the last rank only. Rank 1
    /// of a wider world contributes nothing: its `Ĵ` is empty.
    fn sweep_grad(world: usize, r: usize, step: u64) -> SparseGrad {
        if world > 1 && r == 1 {
            return SparseGrad {
                indices: Vec::new(),
                rows: Matrix::zeros(0, D),
            };
        }
        let base = make_grad(7000 * step + r as u64, 5 + r % 4);
        let mut indices: Vec<u32> = base.indices.iter().map(|i| i % 40).collect();
        let mut rows = base.rows.as_slice().to_vec();
        let mut push = |word: u32, row: [f32; D]| {
            indices.push(word);
            rows.extend_from_slice(&row);
        };
        push(40 + r as u32 % 6, [0.25 * (r + 1) as f32; D]);
        let v = [0.5, -1.25, 3.0, -0.125];
        push(46, v);
        push(46, v.map(|x| -x));
        if r == 0 {
            push(47, [-0.0; D]);
        }
        if r == world - 1 {
            push(48, [-0.0; D]);
        }
        let n = indices.len();
        SparseGrad {
            indices,
            rows: Matrix::from_vec(n, D, rows),
        }
    }

    /// The sweep's table: [`make_table`] with rows 46–48 at −0, so the
    /// sign of a reduced zero row shows in the updated bits.
    fn sweep_table() -> Embedding {
        let mut table = make_table(7);
        for word in 46..49 {
            table.weights_mut().row_mut(word).fill(-0.0);
        }
        table
    }

    /// The lockstep unique exchange against [`scatter_fold_oracle`]:
    /// table bits and every rank's [`ExchangeStats`] (timings aside) over
    /// two steps on one pool, at f32 and FP16 (scales 64 and 512) × the
    /// four codec rungs × flat / two-tier on 3-GPU nodes × whole /
    /// 24-byte buckets × G ∈ {1, 2, 3, 8}, with an empty member, words
    /// first seen at a later rank and rows that reduce to ±0 — and all
    /// of it in one FNV-1a literal.
    #[test]
    fn lockstep_unique_exchange_characterisation() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        type Step = (Vec<u32>, Vec<ExchangeStats>);
        let settle = |table: &Embedding, stats: Vec<ExchangeStats>| -> Step {
            let stats = stats
                .into_iter()
                .map(|s| ExchangeStats {
                    timings: PhaseTimings::default(),
                    ..s
                })
                .collect();
            (outcome(table, ExchangeStats::default()).0, stats)
        };
        for world in [1usize, 2, 3, 8] {
            for compression in [None, Some(64.0), Some(512.0)] {
                for codec in [
                    WireCodecId::Identity,
                    WireCodecId::LosslessIndex,
                    WireCodecId::LosslessGrad,
                    WireCodecId::Lossless,
                ] {
                    for (gpus_per_node, bucket_bytes) in [(0, 0), (0, 24), (3, 0), (3, 24)] {
                        let cfg = ExchangeConfig {
                            unique: true,
                            compression,
                            gpus_per_node,
                            bucket_bytes,
                            codec,
                        };
                        let (mut ow, mut lw) =
                            (World::new(world, 3, None), World::new(world, 3, None));
                        let (mut ot, mut lt) = (sweep_table(), sweep_table());
                        let pool = || -> Vec<ExchangeScratch> {
                            (0..world).map(|_| ExchangeScratch::new()).collect()
                        };
                        let (mut os, mut ls) = (pool(), pool());
                        let mut clocks: Vec<RankClock> =
                            (0..world).map(|_| RankClock::new(None, false)).collect();
                        for step in 0..STEPS {
                            let ctx = format!("world {world} step {step} {cfg:?}");
                            let grads: Vec<SparseGrad> =
                                (0..world).map(|r| sweep_grad(world, r, step)).collect();
                            let want = scatter_fold_oracle(&mut ow, &grads, &mut os, &mut ot, &cfg)
                                .map(|stats| settle(&ot, stats));
                            let got = lockstep_exchange(
                                &mut lw,
                                &grads,
                                &mut ls,
                                &mut clocks,
                                &mut lt,
                                &cfg,
                            )
                            .map(|stats| settle(&lt, stats));
                            assert_eq!(got, want, "{ctx}");
                            let (bits, stats) = got.expect("no fault is injected");
                            for b in bits {
                                fold(&b.to_le_bytes());
                            }
                            fold(format!("{stats:?}").as_bytes());
                        }
                    }
                }
            }
        }
        assert_eq!(
            hash, 0xcc28_6aef_bd55_e1e7,
            "lockstep unique exchange bits or stats moved"
        );
    }

    /// The trainer's lockstep exchange and the threaded one `e2e`'s
    /// probes time share one arithmetic: over every technique stack's
    /// exchange (and the baseline's FP16 gather), every codec rung, flat
    /// and two-tier (bucketed) on 3-GPU nodes and worlds 1 to 48, both
    /// leave the same table bits and report the same stats on every
    /// rank at every step.
    #[test]
    fn lockstep_exchange_matches_threaded_ranks_bit_for_bit() {
        let baseline_f16 = Method {
            compression: Some(512.0),
            ..Method::baseline()
        };
        for world in [1usize, 2, 8, 48] {
            for method in [
                Method::baseline(),
                Method::unique(),
                Method::unique_seeded(),
                Method::full(),
                baseline_f16,
            ] {
                for codec in [
                    WireCodecId::Identity,
                    WireCodecId::LosslessIndex,
                    WireCodecId::LosslessGrad,
                    WireCodecId::Lossless,
                ] {
                    for (gpus_per_node, bucket_bytes) in [(0, 0), (3, 24)] {
                        let cfg = ExchangeConfig {
                            unique: method.unique,
                            compression: method.compression,
                            gpus_per_node,
                            bucket_bytes,
                            codec,
                        };
                        let [threaded, lockstep] = threaded_vs_lockstep(world, 3, cfg, None);
                        assert!(threaded.iter().flatten().all(Result::is_ok), "{cfg:?}");
                        assert_eq!(threaded, lockstep, "world {world}, {cfg:?}");
                    }
                }
            }
        }
    }

    /// A torn frame fails both executions the same way: every rank's
    /// error names the sender whose frame tore, with the same reason —
    /// an index frame under a codec and a baseline row payload.
    #[test]
    fn lockstep_and_threaded_attribute_a_torn_frame_to_one_sender() {
        let unique = ExchangeConfig {
            codec: WireCodecId::Lossless,
            ..TechniqueStack::Unique.exchange()
        };
        for cfg in [unique, TechniqueStack::Baseline.exchange()] {
            let [threaded, lockstep] = threaded_vs_lockstep(4, 3, cfg, Some(2));
            for (a, b) in threaded[0].iter().zip(&lockstep[0]) {
                let (a, b) = (a.clone().unwrap_err(), b.clone().unwrap_err());
                assert_eq!(a.failed_rank(), 2, "{cfg:?}: {a}");
                assert_eq!(a, b, "{cfg:?}");
            }
        }
    }

    /// The lockstep bucketed ALLREDUCE of `payloads` (rank `r`'s, all of
    /// one length) under `cfg` on a fresh world of 3-GPU nodes: the
    /// reduced payload and every rank's [`ReducedBytes`].
    fn lockstep_bucketed(
        payloads: &[Vec<f32>],
        cfg: &ExchangeConfig,
    ) -> Result<(Vec<f32>, Vec<ReducedBytes>), CommError> {
        let mut world = World::new(payloads.len(), 3, None);
        let mut sum = RankSum::new();
        sum.begin(cfg.grad_wire());
        for payload in payloads {
            sum.fold(&mut payload.clone());
        }
        let reduced = all_reduce_folded(&mut world, &mut sum, cfg)?;
        Ok((sum.as_slice().to_vec(), reduced))
    }

    /// Rank `r`'s `n`-element gradient payload.
    fn payload(r: usize, n: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(0x5eed + r as u64);
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The lockstep bucketed ALLREDUCE's bytes and bits against each
    /// threaded rank's [`all_reduce_bucketed`], over every codec rung ×
    /// f32 / FP16 × flat / two-tier × whole-payload and bucketed (one
    /// bucket ragged) × G ∈ {1, 2, 3, 8} × n ∈ {0, 1, 37} — and all of
    /// it in one FNV-1a literal.
    #[test]
    fn lockstep_bucketed_reduce_characterisation() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for world in [1usize, 2, 3, 8] {
            for codec in [
                WireCodecId::Identity,
                WireCodecId::LosslessIndex,
                WireCodecId::LosslessGrad,
                WireCodecId::Lossless,
            ] {
                for compression in [None, Some(512.0)] {
                    for (gpus_per_node, bucket_bytes) in [(0, 0), (3, 0), (0, 24), (3, 24)] {
                        let cfg = ExchangeConfig {
                            unique: true,
                            compression,
                            gpus_per_node,
                            bucket_bytes,
                            codec,
                        };
                        for n in [0usize, 1, 37] {
                            let payloads: Vec<Vec<f32>> =
                                (0..world).map(|r| payload(r, n)).collect();
                            let (got, reduced) = lockstep_bucketed(&payloads, &cfg).unwrap();
                            let threaded = simgpu::run_ranks(
                                CommGroup::create_full(world, 3, 0, None),
                                |rank| {
                                    let mut data = payload(rank.rank(), n);
                                    let bytes = all_reduce_bucketed(&rank, &mut data, &cfg);
                                    (data, bytes.unwrap())
                                },
                            );
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            for (r, (data, bytes)) in threaded.iter().enumerate() {
                                let ctx = format!("world {world} n {n} rank {r} {cfg:?}");
                                assert_eq!(bits(&got), bits(data), "{ctx}");
                                assert_eq!(reduced[r], *bytes, "{ctx}");
                            }
                            for x in &got {
                                fold(u64::from(x.to_bits()));
                            }
                            for b in &reduced {
                                let s = b.sent;
                                for word in [
                                    s.allreduce_ops,
                                    s.allreduce_intra_bytes,
                                    s.allreduce_inter_bytes,
                                ] {
                                    fold(word);
                                }
                                fold(b.raw);
                                fold(b.enc);
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            hash, 0xa382_2395_7361_0605,
            "lockstep bucketed reduce bits or bytes moved"
        );
    }

    #[test]
    fn baseline_keeps_replicas_identical() {
        for world in [1usize, 2, 4] {
            let res = exchange_result(world, TechniqueStack::Baseline.exchange());
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
            let res = exchange_result(world, TechniqueStack::Unique.exchange());
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
            let base = exchange_result(world, TechniqueStack::Baseline.exchange());
            let uniq = exchange_result(world, TechniqueStack::Unique.exchange());
            let diff = base[0].0.max_abs_diff(&uniq[0].0);
            assert!(diff < 1e-5, "world {world}: diff {diff}");
        }
    }

    #[test]
    fn compressed_unique_close_to_exact() {
        let world = 4;
        let exact = exchange_result(world, TechniqueStack::Unique.exchange());
        let comp = exchange_result(
            world,
            ExchangeConfig {
                unique: true,
                compression: Some(512.0),
                ..TechniqueStack::Baseline.exchange()
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
        let exact = exchange_result(world, TechniqueStack::Baseline.exchange());
        let comp = exchange_result(
            world,
            ExchangeConfig {
                unique: false,
                compression: Some(512.0),
                ..TechniqueStack::Baseline.exchange()
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
            oneshot(&rank, &grad, &mut table, &TechniqueStack::Unique.exchange()).unwrap()
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
        let cfg_b = TechniqueStack::Baseline.exchange();
        let cfg_u = TechniqueStack::Unique.exchange();
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
                oneshot(
                    &rank,
                    &grad,
                    &mut table,
                    &TechniqueStack::Baseline.exchange(),
                )
                .unwrap()
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
                oneshot(&rank, &grad, &mut table, &TechniqueStack::Unique.exchange()).unwrap()
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
                ..TechniqueStack::Unique.exchange()
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
        let res = exchange_result(1, TechniqueStack::Unique.exchange());
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

    /// The block-by-block reduce against `local_reduce` over the stored
    /// matrix (and the hash-map reference): `(Ĵ, ∆̂)` bit for bit, for
    /// Zipfian streams, one word, all-distinct words, rows that cancel to
    /// `+0` or stay `−0`, and `K` on and off a whole number of blocks.
    /// Each block is made into a taller NaN-filled buffer, so a read
    /// past the rows just made shows.
    #[test]
    fn block_by_block_reduce_matches_the_stored_reduce_bit_for_bit() {
        let cancelling = {
            // Word 1: v then −v (sums to +0); word 2: −0 twice (stays
            // −0); word 3: +0 then −0 (+0); word 4: −0 then v; others
            // interleaved, past one block.
            let mut indices = Vec::new();
            let mut rows = Vec::new();
            for i in 0..70u32 {
                let (w, row) = match i % 7 {
                    0 => (1, [0.75, -3.5, 1e-30, -0.0]),
                    1 => (1, [-0.75, 3.5, -1e-30, 0.0]),
                    2 | 3 => (2, [-0.0; D]),
                    4 => (3, [0.0; D]),
                    5 => (3, [-0.0; D]),
                    _ => (4 + i % 3, [-0.0, 2.0, -0.0, 0.5]),
                };
                indices.push(w);
                rows.extend_from_slice(&row);
            }
            SparseGrad {
                rows: Matrix::from_vec(indices.len(), D, rows),
                indices,
            }
        };
        let one_word = |n: usize| SparseGrad {
            indices: vec![7; n],
            ..make_grad(5, n)
        };
        let distinct = |n: usize| SparseGrad {
            indices: (0..n as u32).rev().map(|w| w % VOCAB as u32).collect(),
            ..make_grad(6, n)
        };
        let cases = [
            ("zipf K 2085", zipf_grad(1, 2085)),
            ("zipf K 2048", zipf_grad(2, 2048)),
            ("zipf K 5", zipf_grad(3, 5)),
            ("one word K 200", one_word(200)),
            ("distinct K 50", distinct(VOCAB)),
            ("cancelling K 70", cancelling),
            ("empty", make_grad(4, 0)),
        ];
        for (name, grad) in cases {
            let n = grad.indices.len();
            let mut stored = ExchangeScratch::new();
            stored.ensure_vocab(VOCAB);
            stored.local_reduce(&grad, D);
            let reference = grad.local_reduce();
            assert_eq!(stored.reduced_indices, reference.indices, "{name}");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&stored.reduced_rows),
                bits(reference.rows.as_slice()),
                "{name}"
            );

            let mut blocked = ExchangeScratch::new();
            let mut block = Matrix::from_vec(70, D, vec![f32::NAN; 70 * D]);
            let mut asked = Vec::new();
            let make = |r: Range<usize>, out: &mut Matrix| {
                let src = &grad.rows.as_slice()[r.start * D..r.end * D];
                out.as_mut_slice()[..src.len()].copy_from_slice(src);
                asked.push(r);
            };
            let mut clock = RankClock::new(None, false);
            blocked.reduce(&grad.indices, D, VOCAB, &mut block, make, &mut clock);
            assert_eq!(blocked.reduced_indices, stored.reduced_indices, "{name}");
            assert_eq!(
                bits(&blocked.reduced_rows),
                bits(&stored.reduced_rows),
                "{name}"
            );
            let rows: Vec<usize> = asked.iter().cloned().flatten().collect();
            assert_eq!(rows, (0..n).collect::<Vec<_>>(), "{name}");
            assert!(asked.iter().all(|r| r.len() <= nn::BLOCK_ROWS), "{name}");
        }
    }

    #[test]
    fn pooled_exchange_reuses_buffers_across_steps() {
        // After a warm-up step, repeated exchanges must not grow any
        // scratch buffer: capacities stay put ⇒ zero steady-state heap
        // allocation in this crate's hot path.
        for cfg in [
            TechniqueStack::Unique.exchange(),
            TechniqueStack::Baseline.exchange(),
        ] {
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
            TechniqueStack::Unique.exchange(),
            TechniqueStack::Baseline.exchange(),
            TechniqueStack::Full.exchange(),
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
        hierarchical_matches_flat(TechniqueStack::Unique.exchange(), 4);
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
            TechniqueStack::Unique.exchange(),
            TechniqueStack::Full.exchange(),
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
        hierarchical_matches_flat(TechniqueStack::Full.exchange(), 2);
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
                &TechniqueStack::Unique.exchange(),
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
                &TechniqueStack::Unique.exchange(),
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
            oneshot(
                &rank,
                &grad,
                &mut table,
                &TechniqueStack::Baseline.exchange(),
            )
            .unwrap()
        });
        for s in &base {
            assert!(s.timings.gather_ns > 0);
            assert!(s.timings.apply_ns > 0);
            assert_eq!(s.timings.unique_ns, 0);
            assert_eq!(s.timings.allreduce_ns, 0);
        }

        // Lockstep: each member's local reduction is its `Unique` span
        // and the fold of its `∆̂` rows into the one sum (≈400 rows × 32
        // here, microseconds of work, against tens of nanoseconds for an
        // empty span) its `Scatter` span.
        let world = 2;
        let mut w = World::new(world, 2, None);
        let mut table = Embedding::new(&mut StdRng::seed_from_u64(3), 2000, 32);
        let grads: Vec<SparseGrad> = (0..world as u64)
            .map(|r| make_grad_sized(r, 512, 2000, 32))
            .collect();
        let mut scratch: Vec<ExchangeScratch> =
            (0..world).map(|_| ExchangeScratch::new()).collect();
        let mut clocks: Vec<RankClock> = (0..world as u32)
            .map(|r| RankClock::new(Some(TraceRecorder::new(r, 64)), false))
            .collect();
        let cfg = TechniqueStack::Unique.exchange();
        let stats =
            lockstep_exchange(&mut w, &grads, &mut scratch, &mut clocks, &mut table, &cfg).unwrap();
        for (s, clock) in stats.iter().zip(clocks) {
            let t = s.timings;
            assert!(t.unique_ns > 0, "lockstep unique {t:?}");
            assert!(t.scatter_ns >= 1_000, "lockstep scatter {t:?}");
            let spans: Vec<SpanKind> = (clock.finish().expect("traced").events.iter())
                .map(|e| e.span)
                .filter(|&span| span != SpanKind::BarrierWait)
                .collect();
            let want = [
                SpanKind::Unique,
                SpanKind::Gather,
                SpanKind::Scatter,
                SpanKind::AllReduce,
                SpanKind::Apply,
            ];
            assert_eq!(spans, want, "lockstep spans");
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
                        ..TechniqueStack::Baseline.exchange()
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
                ..TechniqueStack::Baseline.exchange()
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
                &TechniqueStack::Unique.exchange(),
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
