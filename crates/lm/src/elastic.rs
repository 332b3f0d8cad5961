//! Elastic training: shrink-to-survivors recovery from rank failures.
//!
//! Setting [`crate::RunOptions::recovery`] turns [`crate::run`] into a
//! recovery loop. When a rank fails mid-run — an injected kill
//! ([`simgpu::FaultPlan`]), an asymmetric OOM — the loop:
//!
//! 1. **detects** the failure from the per-rank results (the failed
//!    rank's *own* error, not the `PeerFailure` echoes on survivors);
//! 2. **shrinks** the world to the survivors `G → G'`, rebuilding the
//!    communicator, re-deriving the seeding groups and unique-set
//!    layout (both are functions of the world size), and re-sharding
//!    the corpus over `G'` ranks;
//! 3. **restores** every survivor from the last *consistent* checkpoint
//!    — the newest snapshot all survivors hold intact in the round's
//!    [`crate::CheckpointStore`] (none ⇒ fresh restart at `G'`);
//! 4. **resumes**, bounded by [`RecoveryPolicy::max_restarts`];
//!    [`RecoveryPolicy::backoff`] between attempts is *simulated*
//!    (doubled per consecutive restart and recorded on the event),
//!    never slept.
//!
//! Each round is recorded as a [`RecoveryEvent`] (failed ranks, world
//! before/after, restored step, steps lost, wall-clock stall) in the
//! returned [`crate::RunOutcome`] and in `TrainReport::recoveries`;
//! with tracing enabled, a [`simgpu::SpanKind::Recovery`] marker per
//! round is appended to the final report's trace. Damaged copies a
//! durable backend's recovery scan steps over surface as
//! [`crate::HealthEvent::CheckpointCorrupt`] findings on that report.
//!
//! The headline invariants (asserted in `tests/elastic_recovery.rs`):
//! kill-and-resume at the *same* world size is bit-identical (final
//! parameters and per-epoch losses) to an uninterrupted run, and a
//! shrink-recovered run at `G'` is bit-identical to a fresh `G'` run
//! started from the same restored snapshot. See DESIGN.md's "Failure
//! model & recovery contract" for what is *not* guaranteed (in-flight
//! steps past the restored cut, per-step telemetry, epoch history when
//! rank 0 dies).
//!
//! This module holds the policy and the loop's classification and
//! bookkeeping helpers; the loop itself is [`crate::run`].

use crate::metrics::{RecoveryEvent, TrainReport};
use crate::trainer::TrainError;
use simgpu::{SpanKind, TraceEvent};
use std::time::Duration;

/// How persistent the recovery loop is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum recovery rounds before giving up and returning the
    /// underlying failure.
    pub max_restarts: usize,
    /// Base backoff between detecting a failure and relaunching. The
    /// loop does **not** sleep it: the pause is *simulated* — doubled
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

/// The ranks a shrink can drop: those whose *own* failure ended the
/// round — an OOM on their device, or a `PeerFailure` naming
/// themselves (an injected kill). `PeerFailure` echoes naming someone
/// else are survivors. Empty when every rank completed, and also when
/// any rank reports a cause no smaller world fixes (a rejected config,
/// plan or checkpoint, too little data, a timeout whose silent peer
/// cannot be attributed, a checkpoint write failure).
pub(crate) fn failed_ranks(results: &[Result<TrainReport, TrainError>]) -> Vec<usize> {
    let mut failed = Vec::new();
    for (r, res) in results.iter().enumerate() {
        match res {
            Ok(_) => {}
            Err(TrainError::PeerFailure { rank, .. }) if *rank != r => {}
            Err(TrainError::PeerFailure { .. } | TrainError::Oom(_)) => failed.push(r),
            Err(_) => return Vec::new(),
        }
    }
    failed
}

/// The pause charged to restart `n` (1-based): `base · 2^(n−1)`
/// converted to picoseconds, saturating.
pub(crate) fn simulated_backoff_ps(base: Duration, restart: usize) -> u64 {
    let base_ps = base.as_nanos().saturating_mul(1000);
    let factor = 1u128 << (restart - 1).min(63) as u32;
    u64::try_from(base_ps.saturating_mul(factor)).unwrap_or(u64::MAX)
}

/// Appends one `Recovery` marker span per recovery round to the final
/// report's trace (when tracing ran). Marker semantics: `step` is the
/// restored global step, the span length is the measured wall-clock
/// stall; the timestamps live on the loop's clock, not the resumed
/// round's, so the marker identifies *which* recovery, not *when* within
/// the trace timeline.
pub(crate) fn annotate_trace(report: &mut TrainReport, recoveries: &[RecoveryEvent]) {
    let Some(trace) = report.trace.as_mut() else {
        return;
    };
    for ev in recoveries {
        trace.events.push(TraceEvent {
            rank: 0,
            step: ev.restored_step().unwrap_or(0),
            span: SpanKind::Recovery,
            t_start_ns: 0,
            t_end_ns: ev.stall_ns,
            bytes: 0,
        });
    }
}
