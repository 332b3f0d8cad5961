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
//! (`TrainReport::steps`, `TrainReport::traffic`) — they are
//! nondeterministic or round-local and restart at the resume point.
//! This is what makes the headline property testable: *two checkpoints
//! taken at the same step of identical runs are byte-equal*.
//!
//! Serialization ([`Checkpoint::to_bytes`] / [`Checkpoint::from_bytes`])
//! is a fixed little-endian layout with a magic header and format
//! version; floats are stored as raw bit patterns
//! (`to_le_bytes`/`from_le_bytes` round-trips every `f32`/`f64`,
//! including NaNs), so serialize → deserialize → serialize is the
//! identity on bytes (proptested in `tests/checkpoint_determinism.rs`).
//!
//! A snapshot restores only into a run configured like the one that
//! took it. Its [`Fingerprint`] is that configuration itself: the
//! `Debug` rendering of the run's [`TrainConfig`], the model at its
//! resolved dimensions and the settings a restore does not depend on
//! (world size, communication, tracing, metrics, checkpoint cadence) at
//! their defaults, stored as one length-prefixed string.
//! [`Checkpoint::validate_against`] compares renderings; a new config
//! field is compared without a line here.
//!
//! The in-memory [`CheckpointStore`] stands in for a checkpoint
//! *service*: every rank deposits snapshots on its own cadence
//! ([`crate::CheckpointConfig`]), and the recovery loop of
//! [`crate::run`] asks for the newest snapshot **all**
//! survivors hold — the consistent cut it can restore from.

use crate::config::TrainConfig;
use crate::metrics::{EpochMetrics, TimeAttribution};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serialization format version (bump on any layout change). Version 2
/// split the attribution wire bucket into intra/inter-node tiers;
/// version 3 appended the seventh attribution bucket (comm hidden under
/// compute by the overlapped step schedule); version 4 stores the
/// [`Fingerprint`] as one length-prefixed string and an epoch's
/// validation loss once, as its NLL. The buckets are written in
/// [`TimeAttribution::BUCKETS`] order.
/// [`Checkpoint::from_bytes`] reads this version only: no artifact of
/// an older format outlives the process that wrote it.
pub const FORMAT_VERSION: u32 = 4;

/// Magic header of serialized checkpoints.
pub const MAGIC: [u8; 8] = *b"ZLMCKPT\0";

/// Everything about a run that must match for a checkpoint to be
/// restorable: the `Debug` rendering of its [`TrainConfig`], the model
/// at its resolved dimensions ([`crate::config::ModelKind::resolved`])
/// and the fields a restore does not depend on at their defaults. Those
/// are the world size — elastic recovery restores a checkpoint taken at
/// world `G` into a shrunken world `G' < G` (layout, seeding groups and
/// shards are re-derived from the new world) — and the communication,
/// tracing, metrics and checkpoint settings, which never change results.
/// A `steps_per_epoch` of 0 resolves to a world-dependent count, so a
/// shrink-restore of such a run resumes into a *longer* epoch on the
/// bigger shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint(String);

impl Fingerprint {
    /// The fingerprint of a run configured by `cfg`, with `model_vocab`
    /// the effective vocabulary reported by data preparation.
    pub fn of(cfg: &TrainConfig, model_vocab: usize) -> Self {
        let d = TrainConfig::default();
        let restored = TrainConfig {
            model: cfg.model.resolved(model_vocab),
            gpus: d.gpus,
            trace: d.trace,
            metrics: d.metrics,
            checkpoint: d.checkpoint,
            comm: d.comm,
            ..cfg.clone()
        };
        Self(format!("{restored:?}"))
    }
}

/// The deterministic metric accumulators restored on resume so the
/// final [`crate::TrainReport`] matches an uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointMetrics {
    /// Completed-epoch history: the world's, the same in every rank's
    /// snapshot (see the recovery contract in DESIGN.md).
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
    /// The rank's run-total time attribution so far.
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
        let fp = self.fingerprint.0.as_bytes();
        let mut out = Vec::with_capacity(
            MAGIC.len() + 148 + fp.len() + self.params.len() * 4 + self.metrics.epochs.len() * 32,
        );
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, self.world);
        put_u32(&mut out, self.rank);
        put_u64(&mut out, self.step);
        put_u32(&mut out, self.epoch);
        put_u64(&mut out, self.step_in_epoch);
        put_f32(&mut out, self.lr);
        put_u64(&mut out, fp.len() as u64);
        out.extend_from_slice(fp);
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
            put_f64(&mut out, e.valid_nll);
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
        let fp_len = usize::try_from(r.u64()?).map_err(|_| CheckpointError::Truncated)?;
        let fingerprint = String::from_utf8(r.take(fp_len)?.to_vec())
            .map(Fingerprint)
            .map_err(|e| CheckpointError::Incompatible(format!("fingerprint is not UTF-8: {e}")))?;
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
        if n_epochs.saturating_mul(32) > buf.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut epoch_hist = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            epoch_hist.push(EpochMetrics {
                epoch: r.u64()? as usize,
                train_loss: r.f64()?,
                valid_nll: r.f64()?,
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
            fingerprint,
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
                "fingerprint mismatch: checkpoint {} vs run {}",
                self.fingerprint.0, expect.0
            )));
        }
        if self.epoch as usize > cfg.epochs {
            return Err(CheckpointError::Incompatible(format!(
                "checkpoint epoch {} beyond configured {} epochs",
                self.epoch, cfg.epochs
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
    /// copy when rank 0 survived, otherwise the lowest survivor's (every
    /// copy carries the world's epoch history; only the rank's own
    /// attribution differs). The scan
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
    use crate::config::{Method, ModelKind};
    use crate::seeding::SeedStrategy;

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
                    valid_nll: 5.25,
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
        // including 3, the last format that used to be readable.
        for v in [0u32, 1, 2, 3, 99] {
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
    fn fingerprint_bytes_are_checked() {
        let bytes = sample_checkpoint(0, 3).to_bytes();
        // The fingerprint's length prefix follows the 44-byte header.
        let at = MAGIC.len() + 36;
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        assert_eq!(
            &bytes[at + 8..at + 8 + len],
            Fingerprint::of(&TrainConfig::default(), 997).0.as_bytes()
        );
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..at + 8 + len / 2]),
            Err(CheckpointError::Truncated)
        );
        let mut long = bytes.clone();
        long[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&long),
            Err(CheckpointError::Truncated)
        );
        let mut not_utf8 = bytes.clone();
        not_utf8[at + 8] = 0xff;
        assert!(matches!(
            Checkpoint::from_bytes(&not_utf8),
            Err(CheckpointError::Incompatible(_))
        ));
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

    /// What a restore accepts, one perturbation per `TrainConfig` field
    /// (and the resolved vocabulary) from one of three base runs: the
    /// default word run at resolved vocabulary 997, a word run whose 600
    /// requested samples clamp to 498, and a char run. `true` = the
    /// snapshot of the base run seeds the perturbed one. The table is
    /// not edited to follow the code: a change to what the fingerprint
    /// compares fails here.
    #[test]
    fn validate_against_characterisation() {
        use crate::config::{CheckpointConfig, CommConfig, MetricsConfig, TraceConfig};
        use nn::model::{CharLmConfig, WordLmConfig};
        use simgpu::{BarrierDeadline, WireCodecId};
        let word = |f: fn(&mut WordLmConfig)| {
            let mut mc = WordLmConfig::small(1000);
            f(&mut mc);
            ModelKind::WordCustom(mc)
        };
        let chars = |f: fn(&mut CharLmConfig)| {
            let mut mc = CharLmConfig::small(48);
            f(&mut mc);
            ModelKind::CharCustom(mc)
        };
        let bases: [(TrainConfig, usize); 3] = [
            (TrainConfig::default(), 997),
            (
                TrainConfig {
                    model: word(|m| m.samples = 600),
                    ..TrainConfig::default()
                },
                997,
            ),
            (
                TrainConfig {
                    model: ModelKind::Char { vocab: 48 },
                    ..TrainConfig::default()
                },
                48,
            ),
        ];
        type Edit = Box<dyn Fn(&mut TrainConfig)>;
        let edit = |f: fn(&mut TrainConfig)| -> Edit { Box::new(f) };
        let model = |m: ModelKind| -> Edit { Box::new(move |c| c.model = m) };
        #[rustfmt::skip]
        let rows: Vec<(&str, usize, Edit, usize, bool)> = vec![
            ("unchanged",                0, edit(|_| {}),                                      997, true),
            ("gpus",                     0, edit(|c| c.gpus = 3),                              997, true),
            ("comm.gpus_per_node",       0, edit(|c| c.comm.gpus_per_node = 4),                997, true),
            ("comm.hierarchical",        0, edit(|c| c.comm.hierarchical = true),              997, true),
            ("comm.pool_workers",        0, edit(|c| c.comm.pool_workers = 2),                 997, true),
            ("comm.overlap",             0, edit(|c| c.comm.overlap = true),                   997, true),
            ("comm.bucket_bytes",        0, edit(|c| c.comm.bucket_bytes = 1 << 16),           997, true),
            ("comm.codec",               0, edit(|c| c.comm.codec = WireCodecId::Lossless),    997, true),
            ("comm.deadline",            0, edit(|c| c.comm.deadline = Some(BarrierDeadline {
                timeout: std::time::Duration::from_millis(5), retries: 3 })),                 997, true),
            ("comm (all)",               0, edit(|c| c.comm = CommConfig::hierarchical_pooled(3)
                .overlapped(1 << 10).with_codec(WireCodecId::LosslessIndex)),                 997, true),
            ("trace.enabled",            0, edit(|c| c.trace = TraceConfig::on()),             997, true),
            ("metrics.enabled",          0, edit(|c| c.metrics = MetricsConfig::on()),         997, true),
            ("checkpoint.every_steps",   0, edit(|c| c.checkpoint = CheckpointConfig::every(5)), 997, true),
            ("checkpoint.keep_last",     0, edit(|c| c.checkpoint.keep_last = 7),              997, true),
            ("seed",                     0, edit(|c| c.seed = 43),                             997, false),
            ("batch",                    0, edit(|c| c.batch = 5),                             997, false),
            ("seq_len",                  0, edit(|c| c.seq_len = 11),                          997, false),
            ("steps_per_epoch",          0, edit(|c| c.steps_per_epoch = 0),                   997, false),
            ("epochs",                   0, edit(|c| c.epochs = 2),                            997, false),
            ("base_lr",                  0, edit(|c| c.base_lr = 0.25),                        997, false),
            ("lr_decay",                 0, edit(|c| c.lr_decay = 0.9),                        997, false),
            ("tokens",                   0, edit(|c| c.tokens = 60_000),                       997, false),
            ("method.unique",            0, edit(|c| c.method.unique = false),                 997, false),
            ("method.seeding",           0, edit(|c| c.method.seeding = SeedStrategy::ZipfFreq), 997, false),
            ("method.compression",       0, edit(|c| c.method.compression = Some(512.0)),      997, false),
            ("requested vocab",          0, model(ModelKind::Word { vocab: 2000 }),            997, true),
            ("resolved vocab",           0, edit(|_| {}),                                      998, false),
            ("Word as WordCustom",       0, model(word(|_| {})),                               997, true),
            ("word embed_dim",           0, model(word(|m| m.embed_dim = 33)),                 997, false),
            ("word hidden",              0, model(word(|m| m.hidden = 65)),                    997, false),
            ("word proj_dim",            0, model(word(|m| m.proj_dim = 33)),                  997, false),
            ("word samples",             0, model(word(|m| m.samples = 65)),                   997, false),
            ("word -> char",             0, model(ModelKind::Char { vocab: 1000 }),            997, false),
            ("samples above the clamp",  1, model(word(|m| m.samples = 700)),                  997, true),
            ("samples at the clamp",     1, model(word(|m| m.samples = 498)),                  997, true),
            ("samples below the clamp",  1, model(word(|m| m.samples = 497)),                  997, false),
            ("char unchanged",           2, edit(|_| {}),                                      48,  true),
            ("char resolved vocab",      2, edit(|_| {}),                                      47,  true),
            ("char requested vocab",     2, model(ModelKind::Char { vocab: 49 }),              48,  false),
            ("Char as CharCustom",       2, model(chars(|_| {})),                              48,  true),
            ("char embed_dim",           2, model(chars(|m| m.embed_dim = 25)),                48,  false),
            ("char hidden",              2, model(chars(|m| m.hidden = 49)),                   48,  false),
            ("char depth",               2, model(chars(|m| m.depth = 4)),                     48,  false),
            ("char -> word",             2, model(ModelKind::Word { vocab: 48 }),              48,  false),
        ];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (label, base, perturb, vocab, accepted) in &rows {
            let (cfg, base_vocab) = &bases[*base];
            let ck = Checkpoint {
                fingerprint: Fingerprint::of(cfg, *base_vocab),
                ..sample_checkpoint(0, 5)
            };
            let mut run = cfg.clone();
            perturb(&mut run);
            let verdict = match ck.validate_against(&run, *vocab) {
                Ok(()) => true,
                Err(CheckpointError::Incompatible(_)) => false,
                Err(e) => panic!("{label}: not a compatibility verdict: {e}"),
            };
            got.push((*label, verdict));
            want.push((*label, *accepted));
        }
        assert_eq!(got, want);
        // A snapshot past the run's last epoch is refused too.
        let beyond = Checkpoint {
            epoch: 2,
            ..sample_checkpoint(0, 5)
        };
        assert!(matches!(
            beyond.validate_against(&TrainConfig::default(), 997),
            Err(CheckpointError::Incompatible(_))
        ));
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
