//! Bit-exact, versioned snapshots of per-rank training state.
//!
//! A [`Checkpoint`] captures *everything* a rank needs to resume
//! training mid-run as if it had never stopped: the full parameter
//! vector (embeddings + recurrent stack + projection, in the fixed
//! order of the models' parameter lists — `nn::WordLm::param_vector`),
//! the step/epoch counters, the exact `f32` learning rate, and the
//! deterministic accumulators that feed the
//! final [`crate::TrainReport`] (partial epoch loss, simulated epoch
//! time, uniqueness statistics, time attribution, completed-epoch
//! history). No RNG *state* is stored because none survives a step by
//! construction: the corpus and split are derived from `cfg.seed`
//! before the run, and the sampled-softmax stream is re-seeded from
//! `(seed, rank, world, global_step)` every step — so seeds + counters
//! reproduce every stream exactly.
//!
//! What is deliberately **not** captured: wall-clock measurements
//! (`PhaseTimings`, trace events) and per-step telemetry
//! (`TrainReport::steps`, traffic counters) — they are nondeterministic
//! or rank-run-local and restart at the resume point. This is what
//! makes the headline property testable: *two checkpoints taken at the
//! same step of identical runs are byte-equal*.
//!
//! Serialization ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`])
//! is a fixed little-endian layout with a magic header and format
//! version; floats are stored as raw bit patterns
//! (`to_le_bytes`/`from_le_bytes` round-trips every `f32`/`f64`,
//! including NaNs), so serialize → deserialize → serialize is the
//! identity on bytes (proptested in `tests/checkpoint_determinism.rs`).
//!
//! The in-memory [`CheckpointStore`] stands in for a checkpoint
//! *service*: every rank deposits snapshots on its own cadence
//! ([`crate::CheckpointConfig`]), and the recovery loop of
//! [`crate::run`] asks for the newest snapshot **all**
//! survivors hold — the consistent cut it can restore from.

use crate::config::{Method, ModelKind, TrainConfig};
use crate::metrics::{EpochMetrics, TimeAttribution};
use crate::seeding::SeedStrategy;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serialization format version (bump on any layout change). Version 2
/// split the attribution wire bucket into intra/inter-node tiers;
/// version 3 appended the seventh attribution bucket (comm hidden under
/// compute by the overlapped step schedule). The buckets are written in
/// [`TimeAttribution::BUCKETS`] order.
/// [`Checkpoint::from_bytes`] reads this version only: no artifact of
/// an older format outlives the process that wrote it.
pub const FORMAT_VERSION: u32 = 3;

/// Magic header of serialized checkpoints.
pub const MAGIC: [u8; 8] = *b"ZLMCKPT\0";

/// Everything about a run that must match for a checkpoint to be
/// restorable — the resolved model dimensions, the method stack, the
/// data-defining config fields, and the master seed. The *world size*
/// is deliberately absent: elastic recovery restores a checkpoint
/// taken at world `G` into a shrunken world `G' < G` (layout, seeding
/// groups and shards are re-derived from the new world).
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Master seed (corpus, init, sampling all derive from it).
    pub seed: u64,
    /// `0` = word LM, `1` = char LM.
    pub model_tag: u8,
    /// Resolved model vocabulary (after corpus-driven shrinking and the
    /// trainer's clamping — not necessarily the requested size).
    pub vocab: u64,
    /// Embedding dimension.
    pub embed_dim: u64,
    /// Recurrent cells.
    pub hidden: u64,
    /// Projection dimension (word LM; `0` for char).
    pub proj_dim: u64,
    /// Resolved sampled-softmax candidates (word LM; `0` for char).
    pub samples: u64,
    /// RHN recurrence depth (char LM; `0` for word).
    pub depth: u64,
    /// Uniqueness enabled.
    pub unique: bool,
    /// Seed-sharing strategy tag (see [`seeding_tag`]).
    pub seeding: u8,
    /// FP16 compression scale, if enabled.
    pub compression: Option<f32>,
    /// Sequences per GPU per step.
    pub batch: u64,
    /// Tokens per sequence.
    pub seq_len: u64,
    /// Steps per epoch (0 = whole shard — note this resolves to a
    /// world-dependent count, so shrink-restores of such runs resume
    /// into a *longer* epoch on the bigger shards).
    pub steps_per_epoch: u64,
    /// Total epochs.
    pub epochs: u64,
    /// Base learning rate.
    pub base_lr: f32,
    /// Per-epoch learning-rate decay.
    pub lr_decay: f32,
    /// Synthetic corpus size in tokens.
    pub tokens: u64,
}

/// Stable wire tag of a [`SeedStrategy`].
pub fn seeding_tag(s: SeedStrategy) -> u8 {
    match s {
        SeedStrategy::PerGpu => 0,
        SeedStrategy::AllSame => 1,
        SeedStrategy::Log2 => 2,
        SeedStrategy::LogE => 3,
        SeedStrategy::Log10 => 4,
        SeedStrategy::ZipfFreq => 5,
    }
}

impl Fingerprint {
    /// The fingerprint of a run configured by `cfg`, with `model_vocab`
    /// the effective vocabulary reported by data preparation.
    pub fn of(cfg: &TrainConfig, model_vocab: usize) -> Self {
        let (model_tag, vocab, embed_dim, hidden, proj_dim, samples, depth) = match cfg.model {
            ModelKind::Word { .. } | ModelKind::WordCustom(_) => {
                // Mirror the trainer's resolution: the corpus may have
                // shrunk the vocabulary, and samples are clamped to it.
                let mut mc = cfg.model.word_config();
                mc.vocab = model_vocab;
                mc.samples = mc.samples.min(model_vocab / 2).max(1);
                (
                    0u8,
                    mc.vocab as u64,
                    mc.embed_dim as u64,
                    mc.hidden as u64,
                    mc.proj_dim as u64,
                    mc.samples as u64,
                    0u64,
                )
            }
            ModelKind::Char { .. } | ModelKind::CharCustom(_) => {
                let mc = cfg.model.char_config();
                (
                    1u8,
                    mc.vocab as u64,
                    mc.embed_dim as u64,
                    mc.hidden as u64,
                    0u64,
                    0u64,
                    mc.depth as u64,
                )
            }
        };
        let Method {
            unique,
            seeding,
            compression,
        } = cfg.method;
        Self {
            seed: cfg.seed,
            model_tag,
            vocab,
            embed_dim,
            hidden,
            proj_dim,
            samples,
            depth,
            unique,
            seeding: seeding_tag(seeding),
            compression,
            batch: cfg.batch as u64,
            seq_len: cfg.seq_len as u64,
            steps_per_epoch: cfg.steps_per_epoch as u64,
            epochs: cfg.epochs as u64,
            base_lr: cfg.base_lr,
            lr_decay: cfg.lr_decay,
            tokens: cfg.tokens as u64,
        }
    }
}

/// The deterministic metric accumulators restored on resume so the
/// final [`crate::TrainReport`] matches an uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointMetrics {
    /// Completed-epoch history (present only in rank 0's snapshots —
    /// validation runs there; see the recovery contract in DESIGN.md).
    pub epochs: Vec<EpochMetrics>,
    /// Partial loss sum of the epoch in progress (exact `f64` partial
    /// sum — resuming continues the same addition order).
    pub epoch_loss: f64,
    /// Simulated picoseconds accumulated in the epoch in progress.
    pub epoch_time_ps: u64,
    /// Uniqueness statistics accumulated over the whole run.
    pub unique_sum: f64,
    /// Steps contributing to `unique_sum`.
    pub unique_count: u64,
    /// Run-total time attribution so far.
    pub attribution: TimeAttribution,
}

/// One rank's complete training state at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// World size of the run that took the snapshot.
    pub world: u32,
    /// Rank that took the snapshot.
    pub rank: u32,
    /// Global steps completed.
    pub step: u64,
    /// Epoch in progress (0-based); `== epochs` in a terminal snapshot.
    pub epoch: u32,
    /// Steps completed within `epoch`.
    pub step_in_epoch: u64,
    /// The exact learning rate in effect (already decayed per epoch).
    pub lr: f32,
    /// Run-compatibility fingerprint.
    pub fingerprint: Fingerprint,
    /// Full parameter vector in the model's fixed flatten layout.
    pub params: Vec<f32>,
    /// Deterministic metric accumulators.
    pub metrics: CheckpointMetrics,
}

/// Why a serialized checkpoint was rejected.
///
/// The first five variants classify body-level damage and
/// incompatibility; the last three classify what a *disk-backed* store
/// finds at recovery time (see `crate::ckpt_disk`): a CRC mismatch from
/// post-write bit rot, a manifested file that vanished, or a raw
/// filesystem failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with [`MAGIC`] (or, for a framed
    /// on-disk file, the frame header magic is wrong).
    BadMagic,
    /// Unknown format version (checkpoint body or on-disk frame).
    BadVersion(u32),
    /// The buffer ended before the declared content did — the on-disk
    /// signature of a torn write.
    Truncated,
    /// Bytes remained after the declared content.
    TrailingBytes(usize),
    /// The checkpoint does not belong to this run configuration.
    Incompatible(String),
    /// The framed file's CRC-32 does not cover its payload: at least
    /// one bit rotted after the write completed.
    BadCrc {
        /// CRC recorded in the frame header at write time.
        expected: u32,
        /// CRC recomputed over the payload as read back.
        found: u32,
    },
    /// The rank's manifest lists this step but the file is gone.
    Missing,
    /// The underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {FORMAT_VERSION})"
                )
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint content")
            }
            CheckpointError::Incompatible(why) => {
                write!(f, "checkpoint incompatible with this run: {why}")
            }
            CheckpointError::BadCrc { expected, found } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: frame says {expected:#010x}, payload hashes to {found:#010x}"
                )
            }
            CheckpointError::Missing => write!(f, "manifested checkpoint file is missing"),
            CheckpointError::Io(why) => write!(f, "checkpoint I/O failed: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

// ---- little-endian byte helpers ------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

impl Checkpoint {
    /// Serializes to the fixed little-endian layout. Deterministic:
    /// identical checkpoints produce identical bytes, and
    /// [`Checkpoint::from_bytes`] followed by `to_bytes` is the
    /// identity on any valid buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let fp = &self.fingerprint;
        let mut out = Vec::with_capacity(
            MAGIC.len() + 136 + self.params.len() * 4 + self.metrics.epochs.len() * 40,
        );
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, self.world);
        put_u32(&mut out, self.rank);
        put_u64(&mut out, self.step);
        put_u32(&mut out, self.epoch);
        put_u64(&mut out, self.step_in_epoch);
        put_f32(&mut out, self.lr);
        // Fingerprint.
        put_u64(&mut out, fp.seed);
        put_u8(&mut out, fp.model_tag);
        put_u64(&mut out, fp.vocab);
        put_u64(&mut out, fp.embed_dim);
        put_u64(&mut out, fp.hidden);
        put_u64(&mut out, fp.proj_dim);
        put_u64(&mut out, fp.samples);
        put_u64(&mut out, fp.depth);
        put_u8(&mut out, fp.unique as u8);
        put_u8(&mut out, fp.seeding);
        match fp.compression {
            Some(scale) => {
                put_u8(&mut out, 1);
                put_f32(&mut out, scale);
            }
            None => {
                put_u8(&mut out, 0);
                put_f32(&mut out, 0.0);
            }
        }
        put_u64(&mut out, fp.batch);
        put_u64(&mut out, fp.seq_len);
        put_u64(&mut out, fp.steps_per_epoch);
        put_u64(&mut out, fp.epochs);
        put_f32(&mut out, fp.base_lr);
        put_f32(&mut out, fp.lr_decay);
        put_u64(&mut out, fp.tokens);
        // Metric accumulators.
        let m = &self.metrics;
        put_f64(&mut out, m.epoch_loss);
        put_u64(&mut out, m.epoch_time_ps);
        put_f64(&mut out, m.unique_sum);
        put_u64(&mut out, m.unique_count);
        for bucket in m.attribution.buckets() {
            put_u64(&mut out, bucket);
        }
        put_u64(&mut out, m.epochs.len() as u64);
        for e in &m.epochs {
            put_u64(&mut out, e.epoch as u64);
            put_f64(&mut out, e.train_loss);
            put_f64(&mut out, e.valid_ppl);
            put_f64(&mut out, e.valid_bpc);
            put_f64(&mut out, e.sim_time_s);
        }
        // Parameters.
        put_u64(&mut out, self.params.len() as u64);
        for &p in &self.params {
            put_f32(&mut out, p);
        }
        out
    }

    /// Parses a buffer produced by [`Checkpoint::to_bytes`]. Round-trip
    /// is bitwise lossless, including non-finite floats.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let world = r.u32()?;
        let rank = r.u32()?;
        let step = r.u64()?;
        let epoch = r.u32()?;
        let step_in_epoch = r.u64()?;
        let lr = r.f32()?;
        let seed = r.u64()?;
        let model_tag = r.u8()?;
        let vocab = r.u64()?;
        let embed_dim = r.u64()?;
        let hidden = r.u64()?;
        let proj_dim = r.u64()?;
        let samples = r.u64()?;
        let depth = r.u64()?;
        let unique = r.u8()? != 0;
        let seeding = r.u8()?;
        let has_compression = r.u8()? != 0;
        let scale = r.f32()?;
        let compression = has_compression.then_some(scale);
        let batch = r.u64()?;
        let seq_len = r.u64()?;
        let steps_per_epoch = r.u64()?;
        let epochs_total = r.u64()?;
        let base_lr = r.f32()?;
        let lr_decay = r.f32()?;
        let tokens = r.u64()?;
        let epoch_loss = r.f64()?;
        let epoch_time_ps = r.u64()?;
        let unique_sum = r.f64()?;
        let unique_count = r.u64()?;
        let mut buckets = [0u64; TimeAttribution::BUCKETS.len()];
        for bucket in &mut buckets {
            *bucket = r.u64()?;
        }
        let attribution = TimeAttribution::from_buckets(buckets);
        let n_epochs = r.u64()? as usize;
        // Guard the prealloc against a corrupt length field.
        if n_epochs.saturating_mul(40) > buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut epoch_hist = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            epoch_hist.push(EpochMetrics {
                epoch: r.u64()? as usize,
                train_loss: r.f64()?,
                valid_ppl: r.f64()?,
                valid_bpc: r.f64()?,
                sim_time_s: r.f64()?,
            });
        }
        let n_params = r.u64()? as usize;
        if n_params.saturating_mul(4) > buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(r.f32()?);
        }
        if r.pos != buf.len() {
            return Err(CheckpointError::TrailingBytes(buf.len() - r.pos));
        }
        Ok(Checkpoint {
            world,
            rank,
            step,
            epoch,
            step_in_epoch,
            lr,
            fingerprint: Fingerprint {
                seed,
                model_tag,
                vocab,
                embed_dim,
                hidden,
                proj_dim,
                samples,
                depth,
                unique,
                seeding,
                compression,
                batch,
                seq_len,
                steps_per_epoch,
                epochs: epochs_total,
                base_lr,
                lr_decay,
                tokens,
            },
            params,
            metrics: CheckpointMetrics {
                epochs: epoch_hist,
                epoch_loss,
                epoch_time_ps,
                unique_sum,
                unique_count,
                attribution,
            },
        })
    }

    /// Checks this checkpoint can seed a run configured by `cfg` (with
    /// `model_vocab` the effective vocabulary from data preparation).
    /// The world size is *not* checked — shrink-restores are the point
    /// of elastic recovery; everything else must match exactly.
    pub fn validate_against(
        &self,
        cfg: &TrainConfig,
        model_vocab: usize,
    ) -> Result<(), CheckpointError> {
        let expect = Fingerprint::of(cfg, model_vocab);
        if self.fingerprint != expect {
            return Err(CheckpointError::Incompatible(format!(
                "fingerprint mismatch: checkpoint {:?} vs run {:?}",
                self.fingerprint, expect
            )));
        }
        if self.epoch as u64 > expect.epochs {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint epoch {} beyond configured {} epochs",
                self.epoch, expect.epochs
            )));
        }
        Ok(())
    }
}

/// Where checkpoints physically live. [`CheckpointStore`] is generic
/// over this trait, so [`crate::RunOptions::checkpoints`] accepts the
/// in-memory [`MemoryBackend`] and the disk-backed
/// [`crate::ckpt_disk::CheckpointDir`] interchangeably.
///
/// Contract: `deposit` retains at most [`CheckpointBackend::keep_last`]
/// snapshots per rank (oldest evicted); `steps` reports what the
/// backend *believes* it holds (for a durable backend a listed step may
/// still fail to `load` — that is exactly what the recovery scan
/// classifies); `load` integrity-checks before returning.
pub trait CheckpointBackend: Send + Sync + fmt::Debug {
    /// Persist `ck` into its rank's slot, evicting the oldest snapshot
    /// beyond the retention limit. Snapshots arrive in increasing step
    /// order per rank (one depositor thread per rank).
    fn deposit(&self, ck: Checkpoint) -> Result<(), CheckpointError>;

    /// The steps this backend holds for `rank`, ascending and deduped.
    fn steps(&self, rank: usize) -> Vec<u64>;

    /// Load and integrity-check `rank`'s snapshot at `step`.
    fn load(&self, rank: usize, step: u64) -> Result<Checkpoint, CheckpointError>;

    /// Store the end-of-run snapshot (rank 0 deposits it on successful
    /// completion — the bit-exact final state of the whole run).
    fn set_final(&self, ck: Checkpoint) -> Result<(), CheckpointError>;

    /// Take the end-of-run snapshot, if the run completed.
    fn take_final(&self) -> Result<Option<Checkpoint>, CheckpointError>;

    /// Per-rank retention limit.
    fn keep_last(&self) -> usize;
}

/// The in-memory [`CheckpointBackend`]: checkpoints live in rank slots
/// behind a mutex and die with the process — the pre-durability
/// behaviour, still the default for tests and single-run training.
#[derive(Debug)]
pub struct MemoryBackend {
    keep_last: usize,
    slots: Mutex<std::collections::BTreeMap<usize, Vec<Checkpoint>>>,
    final_slot: Mutex<Option<Checkpoint>>,
}

impl MemoryBackend {
    /// A backend retaining the newest `keep_last` snapshots per rank
    /// (clamped to at least 1).
    pub fn new(keep_last: usize) -> Self {
        Self {
            keep_last: keep_last.max(1),
            slots: Mutex::new(std::collections::BTreeMap::new()),
            final_slot: Mutex::new(None),
        }
    }
}

impl CheckpointBackend for MemoryBackend {
    fn deposit(&self, ck: Checkpoint) -> Result<(), CheckpointError> {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots.entry(ck.rank as usize).or_default();
        debug_assert!(slot.last().is_none_or(|prev| prev.step < ck.step));
        slot.push(ck);
        if slot.len() > self.keep_last {
            slot.remove(0);
        }
        Ok(())
    }

    fn steps(&self, rank: usize) -> Vec<u64> {
        self.slots
            .lock()
            .unwrap()
            .get(&rank)
            .map(|slot| slot.iter().map(|c| c.step).collect())
            .unwrap_or_default()
    }

    fn load(&self, rank: usize, step: u64) -> Result<Checkpoint, CheckpointError> {
        self.slots
            .lock()
            .unwrap()
            .get(&rank)
            .and_then(|slot| slot.iter().find(|c| c.step == step))
            .cloned()
            .ok_or(CheckpointError::Missing)
    }

    fn set_final(&self, ck: Checkpoint) -> Result<(), CheckpointError> {
        *self.final_slot.lock().unwrap() = Some(ck);
        Ok(())
    }

    fn take_final(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        Ok(self.final_slot.lock().unwrap().take())
    }

    fn keep_last(&self) -> usize {
        self.keep_last
    }
}

/// One damaged checkpoint copy found by [`CheckpointStore::scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptCheckpoint {
    /// Rank whose copy is damaged.
    pub rank: usize,
    /// Step of the damaged copy.
    pub step: u64,
    /// What the integrity check found.
    pub error: CheckpointError,
}

/// Result of a recovery scan: the best intact consistent snapshot (if
/// any) plus every damaged copy the scan stepped over to find it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryScan {
    /// The newest snapshot every survivor holds an *intact* copy of.
    pub checkpoint: Option<Checkpoint>,
    /// Copies that failed their integrity check, newest step first.
    pub corrupt: Vec<CorruptCheckpoint>,
}

/// Checkpoint service shared by all ranks of one round (and scanned by
/// the recovery loop between rounds), backed by a pluggable
/// [`CheckpointBackend`].
///
/// The store itself owns only the run-scoped state: a lock-free
/// *progress board* — the highest global step each rank has completed —
/// so the recovery driver can report exactly how many steps a failure
/// cost beyond the restored cut. Everything persistent delegates to the
/// backend, which may outlive the store (a disk directory spans every
/// elastic round of a run, and the serving milestone loads the same
/// files).
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Arc<dyn CheckpointBackend>,
    progress: Vec<AtomicU64>,
}

impl CheckpointStore {
    /// An in-memory store for a run of `world` ranks, each retaining
    /// the newest `keep_last` snapshots (clamped to at least 1).
    pub fn new(world: usize, keep_last: usize) -> Self {
        Self::with_backend(world, Arc::new(MemoryBackend::new(keep_last)))
    }

    /// A store for `world` ranks over an existing backend — the durable
    /// entry point: hand the same `Arc<CheckpointDir>` to every elastic
    /// round and recovery reads the files the previous round wrote.
    pub fn with_backend(world: usize, backend: Arc<dyn CheckpointBackend>) -> Self {
        Self {
            backend,
            progress: (0..world).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The shared backend.
    pub fn backend(&self) -> Arc<dyn CheckpointBackend> {
        Arc::clone(&self.backend)
    }

    /// Deposits `ck` into its rank's slot via the backend. An `Err`
    /// here is a *real* storage failure the caller must surface;
    /// injected disk faults deliberately return `Ok` (the damage is
    /// what the recovery scan later classifies).
    pub fn deposit(&self, ck: Checkpoint) -> Result<(), CheckpointError> {
        self.backend.deposit(ck)
    }

    /// Records that `rank` has completed `steps_done` global steps.
    /// Lock-free; called once per step when a store is attached.
    pub fn note_progress(&self, rank: usize, steps_done: u64) {
        self.progress[rank].store(steps_done, Ordering::Relaxed);
    }

    /// The highest completed global step across `survivors`.
    pub fn max_progress(&self, survivors: &[usize]) -> u64 {
        survivors
            .iter()
            .map(|&r| self.progress[r].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// The newest snapshot **every** survivor holds an intact copy of —
    /// the consistent cut recovery can restore from, skipping damaged
    /// steps. See [`CheckpointStore::scan`] for the classifying variant.
    pub fn latest_consistent(&self, survivors: &[usize]) -> Option<Checkpoint> {
        self.scan(survivors).checkpoint
    }

    /// Recovery scan: walk the steps all `survivors` claim to hold,
    /// newest first; at each candidate step integrity-check **every**
    /// survivor's copy, recording each torn / bit-flipped / missing
    /// file as a typed [`CorruptCheckpoint`]; return the first step
    /// where all copies are intact. The returned snapshot is rank 0's
    /// copy when rank 0 survived (it alone carries the completed-epoch
    /// validation history), otherwise the lowest survivor's. The scan
    /// never panics on damage — the worst outcome is
    /// `checkpoint: None` (restart from scratch).
    pub fn scan(&self, survivors: &[usize]) -> RecoveryScan {
        let mut corrupt = Vec::new();
        let Some(common) = survivors
            .iter()
            .map(|&r| {
                self.backend
                    .steps(r)
                    .into_iter()
                    .collect::<std::collections::BTreeSet<u64>>()
            })
            .reduce(|a, b| a.intersection(&b).copied().collect())
        else {
            return RecoveryScan::default();
        };
        let source = survivors
            .iter()
            .find(|&&r| r == 0)
            .or_else(|| survivors.first())
            .copied();
        for &step in common.iter().rev() {
            let mut restored = None;
            let mut intact = true;
            for &r in survivors {
                match self.backend.load(r, step) {
                    Ok(ck) => {
                        // A durable directory outlives world shrinks:
                        // snapshots written by a *previous* incarnation
                        // (different world size) are stale, not corrupt
                        // — skip the step without recording damage,
                        // exactly as a per-round memory store would
                        // never have seen them.
                        if ck.world as usize != self.progress.len() {
                            intact = false;
                            continue;
                        }
                        if Some(r) == source {
                            restored = Some(ck);
                        }
                    }
                    Err(error) => {
                        intact = false;
                        corrupt.push(CorruptCheckpoint {
                            rank: r,
                            step,
                            error,
                        });
                    }
                }
            }
            if intact {
                return RecoveryScan {
                    checkpoint: restored,
                    corrupt,
                };
            }
        }
        RecoveryScan {
            checkpoint: None,
            corrupt,
        }
    }

    /// All intact snapshots currently retained for `rank` (oldest
    /// first) — used by tests to compare runs checkpoint-by-checkpoint.
    pub fn deposited(&self, rank: usize) -> Vec<Checkpoint> {
        self.backend
            .steps(rank)
            .into_iter()
            .filter_map(|step| self.backend.load(rank, step).ok())
            .collect()
    }

    /// Stores the end-of-run snapshot (rank 0 deposits it on successful
    /// completion — the bit-exact final state of the whole run).
    pub fn set_final(&self, ck: Checkpoint) -> Result<(), CheckpointError> {
        self.backend.set_final(ck)
    }

    /// Takes the end-of-run snapshot, if the run completed intact (a
    /// damaged terminal file reads as "no terminal snapshot").
    pub fn take_final(&self) -> Option<Checkpoint> {
        self.backend.take_final().ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint(rank: u32, step: u64) -> Checkpoint {
        Checkpoint {
            world: 4,
            rank,
            step,
            epoch: 1,
            step_in_epoch: step % 10,
            lr: 0.35,
            fingerprint: Fingerprint::of(&TrainConfig::default(), 997),
            params: vec![0.5, -1.25, f32::NAN, 3.75e-12, -0.0],
            metrics: CheckpointMetrics {
                epochs: vec![EpochMetrics {
                    epoch: 0,
                    train_loss: 5.25,
                    valid_ppl: 180.5,
                    valid_bpc: 7.5,
                    sim_time_s: 0.125,
                }],
                epoch_loss: 12.0625,
                epoch_time_ps: 777,
                unique_sum: 99.5,
                unique_count: 3,
                attribution: TimeAttribution::from_buckets([1, 2, 6, 3, 4, 5, 7]),
            },
        }
    }

    #[test]
    fn byte_round_trip_is_bitwise_identity() {
        let ck = sample_checkpoint(2, 17);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        // NaN params defeat PartialEq; bytes are the ground truth.
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.step, 17);
        assert!(back.params[2].is_nan());
        assert_eq!(back.params[2].to_bits(), ck.params[2].to_bits());
    }

    #[test]
    fn version_bounds_are_enforced() {
        let ck = sample_checkpoint(0, 9);
        // Every version but the current one is a typed rejection —
        // including 2, the last format that used to be readable.
        for v in [0u32, 1, 2, 4, 99] {
            let mut buf = ck.to_bytes();
            buf[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                Checkpoint::from_bytes(&buf),
                Err(CheckpointError::BadVersion(v)),
                "version {v}"
            );
        }
    }

    #[test]
    fn corrupt_buffers_are_rejected_with_typed_errors() {
        let ck = sample_checkpoint(0, 3);
        let bytes = ck.to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..MAGIC.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            Checkpoint::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[MAGIC.len()] = 99;
        assert_eq!(
            Checkpoint::from_bytes(&bad_version),
            Err(CheckpointError::BadVersion(99))
        );
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&trailing),
            Err(CheckpointError::TrailingBytes(1))
        );
    }

    #[test]
    fn validate_accepts_same_cfg_and_rejects_drift() {
        let cfg = TrainConfig::default();
        let ck = Checkpoint {
            fingerprint: Fingerprint::of(&cfg, 997),
            ..sample_checkpoint(0, 5)
        };
        assert!(ck.validate_against(&cfg, 997).is_ok());
        // A different world is explicitly fine (shrink-restore).
        let mut shrunk = cfg.clone();
        shrunk.gpus = 3;
        assert!(ck.validate_against(&shrunk, 997).is_ok());
        // Different seed, vocab, or method are not.
        let mut other = cfg.clone();
        other.seed ^= 1;
        assert!(matches!(
            ck.validate_against(&other, 997),
            Err(CheckpointError::Incompatible(_))
        ));
        assert!(ck.validate_against(&cfg, 998).is_err());
        let mut method = cfg.clone();
        method.method = Method::full();
        assert!(ck.validate_against(&method, 997).is_err());
    }

    #[test]
    fn store_retains_keep_last_and_tracks_progress() {
        let store = CheckpointStore::new(2, 2);
        for step in [1, 2, 3] {
            store.deposit(sample_checkpoint(0, step)).unwrap();
        }
        let kept = store.deposited(0);
        assert_eq!(
            kept.iter().map(|c| c.step).collect::<Vec<_>>(),
            vec![2, 3],
            "oldest evicted beyond keep_last"
        );
        store.note_progress(0, 9);
        store.note_progress(1, 7);
        assert_eq!(store.max_progress(&[0, 1]), 9);
        assert_eq!(store.max_progress(&[1]), 7);
    }

    #[test]
    fn latest_consistent_is_highest_common_step() {
        // World 4 to match the sample snapshots (the scan skips
        // snapshots from a different world size as stale).
        let store = CheckpointStore::new(4, 8);
        // Rank 0 holds steps {2, 4, 6}; rank 1 {2, 4}; rank 2 {2, 4, 6}.
        for step in [2, 4, 6] {
            store.deposit(sample_checkpoint(0, step)).unwrap();
            store.deposit(sample_checkpoint(2, step)).unwrap();
        }
        for step in [2, 4] {
            store.deposit(sample_checkpoint(1, step)).unwrap();
        }
        let all = store.latest_consistent(&[0, 1, 2]).unwrap();
        assert_eq!((all.step, all.rank), (4, 0), "rank 0's copy preferred");
        let no_rank0 = store.latest_consistent(&[1, 2]).unwrap();
        assert_eq!((no_rank0.step, no_rank0.rank), (4, 1));
        let fast_pair = store.latest_consistent(&[0, 2]).unwrap();
        assert_eq!(fast_pair.step, 6);
        // Empty slot ⇒ no consistent cut.
        let empty = CheckpointStore::new(2, 2);
        empty.deposit(sample_checkpoint(0, 2)).unwrap();
        assert!(empty.latest_consistent(&[0, 1]).is_none());
    }

    #[test]
    fn scan_skips_stale_world_snapshots_without_flagging_corruption() {
        // A durable directory shared across a shrink: old-world (4)
        // snapshots linger under the same rank slots the new world (2)
        // deposits into. The scan must treat them as stale — skipped,
        // not corrupt — and restore only a current-world cut.
        let backend = Arc::new(MemoryBackend::new(8));
        let old = CheckpointStore::with_backend(4, Arc::clone(&backend) as _);
        for rank in 0..2 {
            old.deposit(sample_checkpoint(rank, 6)).unwrap();
        }
        let new = CheckpointStore::with_backend(2, Arc::clone(&backend) as _);
        let scan = new.scan(&[0, 1]);
        assert_eq!(scan.checkpoint, None, "stale world-4 cut not restored");
        assert!(scan.corrupt.is_empty(), "stale is not corrupt");
        // Once the new world deposits, its own cut wins.
        for rank in 0..2 {
            let mut ck = sample_checkpoint(rank, 8);
            ck.world = 2;
            new.deposit(ck).unwrap();
        }
        assert_eq!(new.latest_consistent(&[0, 1]).map(|c| c.step), Some(8));
    }

    #[test]
    fn final_slot_round_trips() {
        let store = CheckpointStore::new(1, 1);
        assert!(store.take_final().is_none());
        store.set_final(sample_checkpoint(0, 40)).unwrap();
        let fin = store.take_final().unwrap();
        assert_eq!(fin.step, 40);
        assert!(store.take_final().is_none(), "take consumes");
    }
}
