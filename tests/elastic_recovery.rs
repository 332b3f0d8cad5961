//! Elastic recovery end-to-end: bit-exact checkpoint/restore and
//! shrink-to-survivors recovery from injected rank failures.
//!
//! The headline invariants:
//!
//! * **Kill-and-resume at the same world size is bit-identical to an
//!   uninterrupted run** — final parameters, per-epoch losses, and in
//!   fact the entire terminal checkpoint byte-for-byte.
//! * **A shrink-recovered run at `G'` is bit-identical to a fresh `G'`
//!   run started from the same restored snapshot** — recovery adds no
//!   hidden state beyond the checkpoint.
//!
//! Every scenario runs under the fault-injection watchdog: a recovery
//! regression that deadlocks fails in seconds instead of hanging CI.

mod common;

use common::{checkpointing, recovering, with_watchdog};
use simgpu::{FaultPlan, SpanKind};
use std::sync::Arc;
use std::time::Duration;
use zipf_lm::{
    run, Checkpoint, CheckpointConfig, CheckpointStore, CommConfig, MemoryBackend, Method,
    MetricsConfig, ModelKind, RecoveryPolicy, RunOutcome, TraceConfig, TrainConfig, TrainError,
};

/// Two epochs of six steps with a snapshot every other step — small
/// enough to run many scenarios, long enough to kill mid-epoch-1 and
/// resume across the epoch boundary.
fn cfg(gpus: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique_seeded(),
        seed: 7,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig {
            every_steps: 2,
            keep_last: 8,
        },
        comm: CommConfig::flat(),
    }
}

/// One round of `c` with `plan` injected and a fresh in-memory
/// checkpoint backend attached, optionally resumed from `resume`; the
/// store is a view of what the round deposited.
fn checkpointed(
    c: &TrainConfig,
    plan: FaultPlan,
    resume: Option<Checkpoint>,
) -> (RunOutcome, CheckpointStore) {
    let backend = Arc::new(MemoryBackend::new(c.checkpoint.keep_last));
    let outcome = run(c, &checkpointing(backend.clone(), plan, resume));
    (outcome, CheckpointStore::with_backend(c.gpus, backend))
}

/// Kill a rank mid-epoch-1, restore every rank (same world) from the
/// last consistent checkpoint, and finish. The result must be
/// bit-identical to never having failed: equal per-epoch metrics, equal
/// run totals on the report (*resume base + Σ steps since*), and a
/// byte-equal terminal checkpoint (parameters, exact learning rate,
/// every deterministic accumulator).
fn same_world_kill_and_resume(gpus: usize) {
    let (fin_a, rep_a, fin_b, rep_b, restored_step) = with_watchdog(move || {
        let c = cfg(gpus);

        // Reference: uninterrupted run.
        let (out_a, _) = checkpointed(&c, FaultPlan::none(), None);
        let rep_a = out_a.ranks[0].as_ref().expect("uninterrupted run").clone();
        let fin_a = out_a.final_checkpoint.expect("terminal snapshot");

        // Interrupted: the last rank dies at global step 8 (epoch 1,
        // step 2) — every rank errors out.
        let plan = FaultPlan::none().kill_rank_transient(gpus - 1, 8);
        let (out_b, store_b) = checkpointed(&c, plan, None);
        assert!(
            out_b.ranks.iter().all(|r| r.is_err()),
            "kill fails the group"
        );
        assert!(out_b.final_checkpoint.is_none(), "no terminal snapshot");
        assert!(store_b.take_final().is_none(), "no terminal snapshot");

        // Resume the full world from the newest snapshot all ranks hold.
        let all: Vec<usize> = (0..gpus).collect();
        let ck = store_b
            .latest_consistent(&all)
            .expect("consistent checkpoint exists");
        let restored_step = ck.step;
        let (out_c, _) = checkpointed(&c, FaultPlan::none(), Some(ck));
        let rep_c = out_c.ranks[0].as_ref().expect("resumed run").clone();
        let fin_c = out_c.final_checkpoint.expect("terminal snapshot");
        (fin_a, rep_a, fin_c, rep_c, restored_step)
    });
    let (epochs_a, epochs_b) = (rep_a.epochs, rep_b.epochs);

    // The kill fired at step 8, so the newest snapshot all ranks hold
    // is step 8 itself (deposited at the end of the last completed
    // step) — resuming exercises the mid-epoch iterator re-seek.
    assert_eq!(restored_step, 8);
    assert_eq!(epochs_a.len(), 2);
    assert_eq!(epochs_a, epochs_b, "per-epoch metrics bit-identical");
    // The resumed report's steps restart at the cut, its run totals do
    // not: they continue from the snapshot's.
    assert!(rep_b.steps.len() < rep_a.steps.len());
    assert_eq!(
        rep_a.attribution, rep_b.attribution,
        "run-total attribution"
    );
    assert!(rep_a.mean_unique_global > 0.0);
    assert_eq!(
        rep_a.mean_unique_global.to_bits(),
        rep_b.mean_unique_global.to_bits(),
        "mean Ug over the whole run"
    );
    let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&fin_a.params),
        bits(&fin_b.params),
        "params bit-identical"
    );
    assert_eq!(
        fin_a.to_bytes(),
        fin_b.to_bytes(),
        "terminal checkpoints byte-identical"
    );
}

#[test]
fn kill_and_resume_same_world_is_bit_identical_at_world_2() {
    same_world_kill_and_resume(2);
}

#[test]
fn kill_and_resume_same_world_is_bit_identical_at_world_4() {
    same_world_kill_and_resume(4);
}

#[test]
fn shrink_recovery_completes_and_records_the_event() {
    let outcome = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank_transient(2, 5);
        run(&cfg(4), &recovering(plan, RecoveryPolicy::default()))
    });
    assert_eq!(outcome.initial_world, 4);
    assert_eq!(outcome.final_world, 3);
    assert_eq!(outcome.recoveries.len(), 1);
    let ev = &outcome.recoveries[0];
    assert_eq!(ev.restart, 1);
    assert_eq!(ev.failed_ranks, vec![2]);
    assert_eq!((ev.world_before, ev.world_after), (4, 3));
    // Kill at step 5 ⇒ steps 0..=4 completed, snapshots at 2 and 4.
    assert_eq!(ev.restored_step(), Some(4));
    assert_eq!(ev.steps_lost, 1, "one completed step rolled back");
    let ck = ev.restored_from.as_ref().expect("snapshot recorded");
    assert_eq!(ck.step, 4);
    assert_eq!(ck.world, 4, "snapshot taken before the shrink");
    // The run finished: full epoch history in the final report, and the
    // report carries the same recovery history.
    let report = outcome.ranks[0].as_ref().expect("recovers");
    assert_eq!(report.epochs.len(), 2);
    assert!(report.epochs[1].valid_ppl().is_finite());
    assert_eq!(report.recoveries, outcome.recoveries);
    let fin = outcome.final_checkpoint.expect("terminal snapshot");
    assert_eq!(fin.world, 3, "terminal snapshot is post-shrink");
}

/// Rank 2 of 4 fails at step 5 per `plan`; the recovered run must equal
/// a fresh `G' = 3` run seeded from the very snapshot it restored —
/// per-epoch metrics and the terminal checkpoint byte for byte.
fn shrink_recovered_matches_fresh(c4: TrainConfig, plan: FaultPlan) {
    let (recovered_fin, fresh_fin, recovered_epochs, fresh_epochs) = with_watchdog(move || {
        let outcome = run(&c4, &recovering(plan, RecoveryPolicy::default()));
        let ev = &outcome.recoveries[0];
        assert_eq!(ev.failed_ranks, vec![2]);
        assert_eq!((ev.world_before, ev.world_after), (4, 3));
        assert_eq!(ev.restored_step(), Some(4));
        let snapshot = ev.restored_from.clone().expect("snapshot recorded");

        let mut c3 = c4.clone();
        c3.gpus = 3;
        let (fresh, _) = checkpointed(&c3, FaultPlan::none(), Some(snapshot));
        let fresh_epochs = fresh.ranks[0]
            .as_ref()
            .expect("fresh G' run")
            .epochs
            .clone();
        let recovered_epochs = outcome.ranks[0].as_ref().expect("recovers").epochs.clone();
        (
            outcome.final_checkpoint.expect("terminal snapshot"),
            fresh.final_checkpoint.expect("terminal snapshot"),
            recovered_epochs,
            fresh_epochs,
        )
    });
    assert_eq!(recovered_epochs, fresh_epochs, "per-epoch metrics match");
    assert_eq!(
        recovered_fin.to_bytes(),
        fresh_fin.to_bytes(),
        "recovery added no hidden state beyond the snapshot"
    );
}

#[test]
fn shrink_recovered_run_matches_fresh_run_from_the_snapshot() {
    shrink_recovered_matches_fresh(cfg(4), FaultPlan::none().kill_rank_transient(2, 5));
}

#[test]
fn rank_lost_during_a_baseline_row_gather_recovers_from_the_snapshot() {
    // The baseline exchange applies peers' rows as the row gather
    // visits them. Rank 2's row payload is torn in flight at step 5, so
    // every rank has already applied ranks 0 and 1's rows of that step
    // when the gather fails: a partially updated table. It must never
    // be observed — the round ends in a typed error naming rank 2, and
    // the survivors restart from the step-4 snapshot.
    let c4 = TrainConfig {
        method: Method::baseline(),
        ..cfg(4)
    };
    shrink_recovered_matches_fresh(c4, FaultPlan::none().corrupt_wire(2, 5));
}

/// The epoch history is the world's, not rank 0's. Rank 0 dies two
/// steps into epoch 1, after epoch 0 has closed, and the survivors
/// restore from the lowest survivor's cut: the recovered run must still
/// end with every epoch, epoch 0 exactly the uninterrupted run's (it ran
/// at the same world before the failure), and a terminal checkpoint
/// holding the whole history.
#[test]
fn losing_rank_0_after_an_epoch_keeps_the_epoch_history() {
    let c = cfg(3);
    let epochs = c.epochs;
    let (clean, outcome) = with_watchdog(move || {
        let (clean, _) = checkpointed(&c, FaultPlan::none(), None);
        // Epoch 0 is steps 0..6; the cut at step 8 follows its close.
        let plan = FaultPlan::none().kill_rank_transient(0, 8);
        (clean, run(&c, &recovering(plan, RecoveryPolicy::default())))
    });
    assert_eq!(outcome.recoveries.len(), 1);
    assert_eq!(outcome.recoveries[0].restored_step(), Some(8));
    let report = outcome.ranks[0].as_ref().expect("recovers");
    assert_eq!(report.epochs.len(), epochs, "every epoch is reported");
    let clean = &clean.ranks[0].as_ref().expect("uninterrupted run").epochs[0];
    let bits = |e: &zipf_lm::EpochMetrics| {
        let floats = [e.train_loss, e.valid_nll, e.sim_time_s];
        (e.epoch, floats.map(f64::to_bits))
    };
    assert_eq!(bits(&report.epochs[0]), bits(clean), "epoch 0 bit-equal");
    let fin = outcome.final_checkpoint.expect("terminal snapshot");
    assert_eq!(fin.metrics.epochs.len(), epochs, "terminal history");
}

#[test]
fn permanent_kill_exhausts_max_restarts() {
    // A *slot-keyed* kill persists across shrinks (a persistently bad
    // node): rank slot 0 dies in every incarnation, so the driver burns
    // through its restart budget and surfaces the underlying failure.
    let err = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank(0, 3);
        let policy = RecoveryPolicy {
            max_restarts: 2,
            backoff: Duration::ZERO,
        };
        run(&cfg(4), &recovering(plan, policy))
            .report()
            .expect_err("budget exhausted")
    });
    match err {
        TrainError::PeerFailure { rank, reason } => {
            assert_eq!(rank, 0);
            assert!(reason.contains("killed by fault plan"), "{reason}");
        }
        other => panic!("expected the underlying kill, got {other:?}"),
    }
}

#[test]
fn multi_failure_schedule_recovers_twice() {
    // Two transient kills scripted against the *original* numbering:
    // rank 1 dies at step 3; rank 3 (renumbered to 2 after the first
    // shrink) dies at step 7. Both recoveries restore from checkpoints.
    let outcome = with_watchdog(|| {
        let plan = FaultPlan::none()
            .kill_rank_transient(1, 3)
            .kill_rank_transient(3, 7);
        run(&cfg(4), &recovering(plan, RecoveryPolicy::default()))
    });
    assert_eq!(outcome.recoveries.len(), 2);
    assert_eq!(outcome.final_world, 2);
    assert_eq!(outcome.recoveries[0].failed_ranks, vec![1]);
    assert_eq!(outcome.recoveries[0].restored_step(), Some(2));
    // Second failure: old rank 3 under its new rank id 2.
    assert_eq!(outcome.recoveries[1].failed_ranks, vec![2]);
    assert_eq!(
        (
            outcome.recoveries[1].world_before,
            outcome.recoveries[1].world_after
        ),
        (3, 2)
    );
    assert_eq!(outcome.recoveries[1].restored_step(), Some(6));
    let report = outcome.ranks[0].as_ref().expect("recovers twice");
    assert_eq!(report.epochs.len(), 2);
}

#[test]
fn checkpointing_off_recovers_with_a_fresh_restart() {
    let outcome = with_watchdog(|| {
        let mut c = cfg(3);
        c.checkpoint = CheckpointConfig::off();
        let plan = FaultPlan::none().kill_rank_transient(1, 4);
        run(&c, &recovering(plan, RecoveryPolicy::default()))
    });
    assert_eq!(outcome.final_world, 2);
    let ev = &outcome.recoveries[0];
    assert_eq!(ev.restored_step(), None, "no snapshot to restore");
    assert!(ev.restored_from.is_none());
    assert_eq!(ev.steps_lost, 4, "all completed steps rolled back");
    let report = outcome.ranks[0].as_ref().expect("recovers from scratch");
    assert_eq!(report.epochs.len(), 2, "fresh G' run completed");
    // The terminal snapshot is taken whenever a store is attached —
    // periodic cadence off only disables *mid-run* snapshots.
    let fin = outcome.final_checkpoint.expect("terminal snapshot");
    assert_eq!(fin.world, 2);
}

#[test]
fn recovery_marker_lands_in_the_trace() {
    let outcome = with_watchdog(|| {
        let mut c = cfg(4);
        c.trace = TraceConfig::on();
        let plan = FaultPlan::none().kill_rank_transient(2, 5);
        run(&c, &recovering(plan, RecoveryPolicy::default()))
    });
    let report = outcome.ranks[0].as_ref().expect("recovers");
    let trace = report.trace.as_ref().expect("tracing ran");
    let markers: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.span == SpanKind::Recovery)
        .collect();
    assert_eq!(markers.len(), 1, "one marker per recovery round");
    assert_eq!(markers[0].step, 4, "marker names the restored step");
    // The marker must survive chrome-trace export.
    let json = zipf_lm::chrome_trace_json(std::slice::from_ref(trace));
    assert!(json.contains("\"Recovery\""));
}

/// The fingerprint pins the run's dimensions, not the length of the
/// flat parameter layout, so a snapshot that passes `validate_against`
/// can still hold the wrong number of values (written under another
/// layout, or built by hand — the fields are public). That must come
/// back as the typed error on every rank, not as the loader's panic.
#[test]
fn resume_with_the_wrong_parameter_count_is_a_typed_error() {
    with_watchdog(|| {
        for model in [
            ModelKind::Word { vocab: 200 },
            ModelKind::Char { vocab: 64 },
        ] {
            let mut c = cfg(2);
            c.model = model;
            let (out, _) = checkpointed(&c, FaultPlan::none(), None);
            let fin = out.final_checkpoint.expect("terminal snapshot");
            let want = fin.params.len();

            let (mut short, mut long) = (fin.clone(), fin);
            short.params.pop();
            long.params.push(0.0);
            for ck in [short, long] {
                let have = ck.params.len();
                let (out, _) = checkpointed(&c, FaultPlan::none(), Some(ck));
                assert_eq!(out.ranks.len(), 2);
                for r in &out.ranks {
                    match r {
                        Err(TrainError::InvalidCheckpoint { reason }) => assert!(
                            reason.contains(&have.to_string())
                                && reason.contains(&want.to_string()),
                            "{model:?}: reason names both lengths: {reason}"
                        ),
                        other => panic!("{model:?}: expected InvalidCheckpoint, got {other:?}"),
                    }
                }
                assert!(out.final_checkpoint.is_none());
            }
        }
    });
}
