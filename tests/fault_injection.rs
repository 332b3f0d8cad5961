//! Fault injection against the trainer: a rank that dies (or OOMs on an
//! asymmetric memory limit) must surface as `TrainError::PeerFailure`
//! on every surviving rank within bounded time — the deadlock class
//! these tests guard against used to hang the whole group forever.
//!
//! Every scenario that *would* deadlock on regression runs under a
//! watchdog: the test body executes on a detached thread and the test
//! fails in seconds via `recv_timeout` if the trainer never returns
//! (the stuck thread is leaked rather than blocking the harness).

mod common;

use common::{faulted, with_watchdog};
use simgpu::FaultPlan;
use std::time::Duration;
use zipf_lm::{
    run, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, RunOptions, TraceConfig,
    TrainConfig, TrainError,
};

fn cfg(gpus: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 7,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

#[test]
fn killed_rank_mid_epoch_fails_every_survivor_within_watchdog() {
    // The acceptance scenario: rank 2 of 4 dies at step 2 of 6.
    let results = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank(2, 2);
        run(&cfg(4), &faulted(plan)).ranks
    });
    assert_eq!(results.len(), 4);
    for (r, res) in results.iter().enumerate() {
        match res {
            Err(TrainError::PeerFailure { rank, reason }) => {
                assert_eq!(*rank, 2, "rank {r} misattributed the failure: {reason}");
                assert!(
                    reason.contains("killed by fault plan"),
                    "rank {r} reason: {reason}"
                );
            }
            other => panic!("rank {r} must report PeerFailure, got {other:?}"),
        }
    }
}

#[test]
fn asymmetric_memory_limit_errors_on_all_ranks() {
    // Only rank 1 is constrained — under the old symmetric-OOM
    // assumption the other three ranks would deadlock in their first
    // collective. The constrained rank reports its own OOM; everyone
    // else a PeerFailure naming it.
    let results = with_watchdog(|| {
        let plan = FaultPlan::none().limit_rank_memory(1, 10_000);
        run(&cfg(4), &faulted(plan)).ranks
    });
    for (r, res) in results.iter().enumerate() {
        match res {
            Err(TrainError::Oom(e)) => {
                assert_eq!(r, 1, "only rank 1 is memory-constrained");
                assert_eq!(e.device, 1);
            }
            Err(TrainError::PeerFailure { rank, .. }) => {
                assert_ne!(r, 1);
                assert_eq!(*rank, 1, "rank {r} misattributed the OOM");
            }
            other => panic!("rank {r} must fail on the peer OOM, got {other:?}"),
        }
    }
}

#[test]
fn straggler_delay_changes_nothing_but_wall_time() {
    // A straggler exercises skewed barrier arrival on every step; the
    // run must still complete with results identical to the fault-free
    // one (the delay is wall-clock only — simulated time is modelled).
    let (clean, slow) = with_watchdog(|| {
        let clean = run(&cfg(2), &RunOptions::default()).ranks;
        let plan = FaultPlan::none().straggle(1, Duration::from_millis(2));
        let slow = run(&cfg(2), &faulted(plan)).ranks;
        (clean, slow)
    });
    let clean0 = clean[0].as_ref().expect("fault-free run succeeds");
    let slow0 = slow[0].as_ref().expect("straggler run succeeds");
    assert_eq!(clean0.epochs[0].train_loss, slow0.epochs[0].train_loss);
    assert_eq!(clean0.final_ppl(), slow0.final_ppl());
    assert!(slow[1].is_ok());
}

#[test]
fn plan_targeting_rank_outside_world_is_rejected_eagerly() {
    // A fault on `rank >= world` could never fire; it used to silently
    // no-op, green-lighting tests that believed they injected a fault.
    // Every fault kind must trip the validation, naming the bad rank.
    let plans = [
        FaultPlan::none().kill_rank(4, 0),
        FaultPlan::none().kill_rank_transient(7, 2),
        FaultPlan::none().straggle(5, Duration::from_millis(1)),
        FaultPlan::none().limit_rank_memory(6, 1024),
    ];
    for (i, plan) in plans.into_iter().enumerate() {
        let expect_rank = [4, 7, 5, 6][i];
        let results = with_watchdog(move || run(&cfg(4), &faulted(plan)).ranks);
        assert_eq!(results.len(), 4);
        for res in &results {
            match res {
                Err(TrainError::InvalidFaultPlan { rank, world }) => {
                    assert_eq!((*rank, *world), (expect_rank, 4), "plan {i}");
                }
                other => panic!("plan {i}: expected InvalidFaultPlan, got {other:?}"),
            }
        }
    }
    // A plan whose highest target is in range still runs.
    let ok = with_watchdog(|| {
        let plan = FaultPlan::none().straggle(3, Duration::from_millis(1));
        run(&cfg(4), &faulted(plan)).ranks
    });
    assert!(ok.iter().all(|r| r.is_ok()));
}

#[test]
fn hang_without_a_deadline_is_rejected_instead_of_wedging_the_run() {
    // A silent peer with no barrier deadline would park every other rank
    // forever. The plan is refused before any thread spawns, on every
    // rank and out of the collapse, naming the hung rank and its step.
    let outcome = with_watchdog(|| run(&cfg(4), &faulted(FaultPlan::none().hang_rank(1, 2))));
    let (results, collapsed) = (outcome.ranks.clone(), outcome.report());
    assert_eq!(results.len(), 4);
    for res in results.into_iter().chain([collapsed]) {
        match res {
            Err(TrainError::InvalidConfig { reason }) => {
                assert!(reason.contains("rank 1 at step 2"), "{reason}");
                assert!(reason.contains("comm.deadline"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}

#[test]
fn invalid_compression_scale_is_rejected_eagerly() {
    // A scale the FP16 wire cannot use (the collectives assert it is
    // positive and finite) used to panic inside every rank thread and
    // out of the entry point. It must be a typed error on every rank
    // and out of the collapse, on both exchange paths, before any
    // thread spawns.
    for scale in [0.0f32, -512.0, f32::NAN, f32::INFINITY] {
        for unique in [false, true] {
            let mut cfg = cfg(4);
            cfg.method.unique = unique;
            cfg.method.compression = Some(scale);
            let outcome = with_watchdog(move || run(&cfg, &RunOptions::default()));
            let (results, collapsed) = (outcome.ranks.clone(), outcome.report());
            assert_eq!(results.len(), 4);
            for res in results.into_iter().chain([collapsed]) {
                match res {
                    Err(TrainError::InvalidConfig { reason }) => {
                        assert!(reason.contains("compression scale"), "{reason}");
                    }
                    other => panic!("scale {scale}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn oom_root_cause_beats_peer_failure_echoes() {
    // The error-priority contract documented on `RunOutcome::report`:
    // when one rank OOMs, the other ranks' PeerFailure echoes must never
    // win the collapse — callers see the root cause.
    let err = with_watchdog(|| {
        // Tight symmetric limit: some rank OOMs, the rest echo.
        let opts = RunOptions {
            gpu_mem_bytes: 200_000,
            ..RunOptions::default()
        };
        run(&cfg(4), &opts).report().unwrap_err()
    });
    match err {
        TrainError::Oom(_) => {}
        other => panic!("root-cause OOM must beat PeerFailure echoes, got {other:?}"),
    }
    // Same contract for the asymmetric case, where exactly one rank
    // holds the root cause and three hold echoes.
    let outcome = with_watchdog(|| {
        let plan = FaultPlan::none().limit_rank_memory(1, 10_000);
        run(&cfg(4), &faulted(plan))
    });
    let echoes = outcome
        .ranks
        .iter()
        .filter(|r| matches!(r, Err(TrainError::PeerFailure { .. })))
        .count();
    assert_eq!(echoes, 3);
    let err = outcome.report().unwrap_err();
    assert!(matches!(err, TrainError::Oom(_)), "got {err:?}");
    // And an injected kill with no concrete cause anywhere collapses to
    // the PeerFailure naming the killed rank.
    let err = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank(2, 2);
        run(&cfg(4), &faulted(plan)).report().unwrap_err()
    });
    assert!(
        matches!(err, TrainError::PeerFailure { rank: 2, .. }),
        "got {err:?}"
    );
}

#[test]
fn kill_at_step_zero_fails_before_any_progress() {
    // Degenerate corner: the rank dies before its first collective.
    let results = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank(0, 0);
        run(&cfg(3), &faulted(plan)).ranks
    });
    for res in &results {
        match res {
            Err(TrainError::PeerFailure { rank, .. }) => assert_eq!(*rank, 0),
            other => panic!("expected PeerFailure, got {other:?}"),
        }
    }
}
