//! Elastic training: shrink-to-survivors recovery from rank failures.
//!
//! [`train_elastic`] wraps [`crate::train_with_faults`] in a recovery
//! loop. When a rank fails mid-run — an injected kill
//! ([`simgpu::FaultPlan`]), an asymmetric OOM — the driver:
//!
//! 1. **detects** the failure from the per-rank results (the failed
//!    rank's *own* error, not the `PeerFailure` echoes on survivors);
//! 2. **shrinks** the world to the survivors `G → G'`, rebuilding the
//!    communicator, re-deriving the seeding groups and unique-set
//!    layout (both are functions of the world size), and re-sharding
//!    the corpus over `G'` ranks;
//! 3. **restores** every survivor from the last *consistent* checkpoint
//!    — the newest snapshot all survivors hold in the run's
//!    [`CheckpointStore`] (none ⇒ fresh restart at `G'`);
//! 4. **resumes**, bounded by [`RecoveryPolicy::max_restarts`];
//!    [`RecoveryPolicy::backoff`] between attempts is *simulated*
//!    (doubled per consecutive restart and recorded on the event),
//!    never slept.
//!
//! Each round is recorded as a [`RecoveryEvent`] (failed ranks, world
//! before/after, restored step, steps lost, wall-clock stall) in the
//! returned [`TrainOutcome`] and in `TrainReport::recoveries`; with
//! tracing enabled, a [`simgpu::SpanKind::Recovery`] marker per round
//! is appended to the final report's trace.
//!
//! The headline invariants (asserted in `tests/elastic_recovery.rs`):
//! kill-and-resume at the *same* world size is bit-identical (final
//! parameters and per-epoch losses) to an uninterrupted run, and a
//! shrink-recovered run at `G'` is bit-identical to a fresh `G'` run
//! started from the same restored snapshot. See DESIGN.md's "Failure
//! model & recovery contract" for what is *not* guaranteed (in-flight
//! steps past the restored cut, per-step telemetry, epoch history when
//! rank 0 dies).

use crate::checkpoint::{Checkpoint, CheckpointBackend, CheckpointStore};
use crate::config::TrainConfig;
use crate::metrics::{HealthEvent, RecoveryEvent, TrainReport};
use crate::trainer::{train_checkpointed, TrainError};
use simgpu::{FaultPlan, SpanKind, TraceEvent};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated device capacity for unconstrained elastic runs (mirrors
/// the trainer's internal unlimited default).
const UNLIMITED: u64 = u64::MAX / 4;

/// How persistent the elastic driver is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum recovery rounds before giving up and returning the
    /// underlying failure.
    pub max_restarts: usize,
    /// Base backoff between detecting a failure and relaunching. The
    /// driver does **not** sleep it: the pause is *simulated* — doubled
    /// per consecutive restart (`base · 2^(restart−1)`) and charged to
    /// [`RecoveryEvent::backoff_ps`] — so elastic tests run at full
    /// speed while summaries still see realistic recovery costs.
    pub backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff: Duration::ZERO,
        }
    }
}

/// A completed elastic run: the final (post-shrink) report plus the
/// full recovery history.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Rank 0's report of the run that completed (its `recoveries`
    /// field carries the same history as [`TrainOutcome::recoveries`]).
    pub report: TrainReport,
    /// One entry per recovery round, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// World size the run started with.
    pub initial_world: usize,
    /// World size the run finished with.
    pub final_world: usize,
    /// The bit-exact terminal snapshot of the completed run (rank 0's),
    /// usable to compare runs or to seed a follow-on run.
    pub final_checkpoint: Option<Checkpoint>,
}

/// Runs `cfg` to completion across failures, shrinking to survivors
/// and restoring from the last consistent checkpoint after each one.
///
/// Enable `cfg.checkpoint` to bound the work lost per failure; with
/// checkpointing off, every recovery is a fresh restart at the smaller
/// world. Non-recoverable errors — [`TrainError::DataTooSmall`],
/// [`TrainError::InvalidFaultPlan`], [`TrainError::InvalidConfig`],
/// [`TrainError::InvalidCheckpoint`] — are returned immediately; so is
/// the underlying failure once
/// `policy.max_restarts` is exhausted or no survivor remains.
pub fn train_elastic(
    cfg: &TrainConfig,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
) -> Result<TrainOutcome, TrainError> {
    run_elastic(cfg, plan, policy, None)
}

/// [`train_elastic`] over a **durable** checkpoint backend (typically a
/// [`crate::CheckpointDir`]): every recovery round shares the same
/// backend, so restores read what earlier rounds — or an earlier
/// *process* — persisted, and the terminal snapshot survives on disk
/// until taken. Damaged copies found by the recovery scan surface as
/// [`HealthEvent::CheckpointCorrupt`] findings on the final report; the
/// scan itself skips past them to the best intact consistent step.
pub fn train_elastic_durable(
    cfg: &TrainConfig,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    backend: Arc<dyn CheckpointBackend>,
) -> Result<TrainOutcome, TrainError> {
    run_elastic(cfg, plan, policy, Some(backend))
}

fn run_elastic(
    cfg: &TrainConfig,
    plan: &FaultPlan,
    policy: RecoveryPolicy,
    backend: Option<Arc<dyn CheckpointBackend>>,
) -> Result<TrainOutcome, TrainError> {
    let initial_world = cfg.gpus;
    let mut cfg = cfg.clone();
    let mut plan = plan.clone();
    let mut resume: Option<Arc<Checkpoint>> = None;
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut health: Vec<HealthEvent> = Vec::new();

    loop {
        // Memory-backed rounds each get a fresh store (restore state
        // travels via `resume`); a durable backend is shared across
        // rounds so disk contents accumulate and survive the loop.
        let store = match &backend {
            Some(b) => Arc::new(CheckpointStore::with_backend(cfg.gpus, Arc::clone(b))),
            None => Arc::new(CheckpointStore::new(cfg.gpus, cfg.checkpoint.keep_last)),
        };
        let results = train_checkpointed(&cfg, UNLIMITED, &plan, Arc::clone(&store), resume.take());
        let failure_observed = Instant::now();

        // Classify: a rank *failed* when its own error names itself
        // (injected kill, own OOM). `PeerFailure` echoes naming someone
        // else are survivors; anything else is non-recoverable.
        let mut failed: Vec<usize> = Vec::new();
        let mut first_failure: Option<TrainError> = None;
        for (r, res) in results.iter().enumerate() {
            let own = match res {
                Ok(_) => false,
                Err(TrainError::PeerFailure { rank, .. }) => *rank == r,
                Err(TrainError::Oom(e)) => e.device == r,
                Err(e) => return Err(e.clone()),
            };
            if own {
                if first_failure.is_none() {
                    first_failure = Some(res.clone().unwrap_err());
                }
                failed.push(r);
            }
        }

        if failed.is_empty() {
            // If rank 0 still erred here, no rank owned the failure
            // (e.g. a poison whose source raced away): not recoverable.
            let mut report = results.into_iter().next().unwrap()?;
            let final_world = cfg.gpus;
            annotate_trace(&mut report, &recoveries);
            report.recoveries = recoveries.clone();
            report.health.extend(health);
            return Ok(TrainOutcome {
                report,
                recoveries,
                initial_world,
                final_world,
                final_checkpoint: store.take_final(),
            });
        }

        let restart = recoveries.len() + 1;
        if restart > policy.max_restarts {
            return Err(first_failure.unwrap());
        }
        let survivors: Vec<usize> = (0..cfg.gpus).filter(|r| !failed.contains(r)).collect();
        if survivors.is_empty() {
            return Err(first_failure.unwrap());
        }

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
        let restored = scan.checkpoint.map(Arc::new);
        let restored_step = restored.as_ref().map(|c| c.step);
        let steps_lost = store
            .max_progress(&survivors)
            .saturating_sub(restored_step.unwrap_or(0));
        // Backoff is simulated, never slept: double the base per
        // consecutive restart and charge the result to the event.
        let backoff_ps = simulated_backoff_ps(policy.backoff, restart);
        recoveries.push(RecoveryEvent {
            restart,
            failed_ranks: failed,
            world_before: cfg.gpus,
            world_after: survivors.len(),
            restored_step,
            steps_lost,
            stall_ns: u64::try_from(failure_observed.elapsed().as_nanos()).unwrap_or(u64::MAX),
            backoff_ps,
            attempts: restart as u32,
            restored_from: restored.as_deref().cloned(),
        });
        plan = plan.remap_for_survivors(&survivors);
        cfg.gpus = survivors.len();
        resume = restored;
    }
}

/// The pause charged to restart `n` (1-based): `base · 2^(n−1)`
/// converted to picoseconds, saturating.
fn simulated_backoff_ps(base: Duration, restart: usize) -> u64 {
    let base_ps = base.as_nanos().saturating_mul(1000);
    let factor = 1u128 << (restart - 1).min(63) as u32;
    u64::try_from(base_ps.saturating_mul(factor)).unwrap_or(u64::MAX)
}

/// Appends one `Recovery` marker span per recovery round to the final
/// report's trace (when tracing ran). Marker semantics: `step` is the
/// restored global step, the span length is the measured wall-clock
/// stall; the timestamps live on the driver's clock, not the resumed
/// run's, so the marker identifies *which* recovery, not *when* within
/// the trace timeline.
fn annotate_trace(report: &mut TrainReport, recoveries: &[RecoveryEvent]) {
    let Some(trace) = report.trace.as_mut() else {
        return;
    };
    for ev in recoveries {
        trace.events.push(TraceEvent {
            rank: 0,
            step: ev.restored_step.unwrap_or(0),
            span: SpanKind::Recovery,
            t_start_ns: 0,
            t_end_ns: ev.stall_ns,
            bytes: 0,
        });
    }
}
