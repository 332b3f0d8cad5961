//! Fault injection against the trainer: a rank that dies (or OOMs on an
//! asymmetric memory limit) must surface as `TrainError::PeerFailure`
//! on every surviving rank within bounded time — the deadlock class
//! these tests guard against used to hang the whole group forever.
//!
//! Every scenario that *would* deadlock on regression runs under a
//! watchdog: the test body executes on a detached thread and the test
//! fails in seconds via `recv_timeout` if the trainer never returns
//! (the stuck thread is leaked rather than blocking the harness).

use simgpu::FaultPlan;
use std::sync::mpsc;
use std::time::Duration;
use zipf_lm::{
    train, train_with_faults, train_with_memory_limit, CheckpointConfig, CommConfig, Method,
    MetricsConfig, ModelKind, TraceConfig, TrainConfig, TrainError,
};

/// Generous bound: the whole suite's fault runs finish in well under a
/// second; a deadlock regression would otherwise hang CI forever.
const WATCHDOG_SECS: u64 = 60;

/// Unconstrained device capacity (mirrors the trainer's own default).
const UNLIMITED: u64 = u64::MAX / 4;

fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    // Deliberately not scoped: if `f` deadlocks, the thread is leaked
    // and the test fails fast instead of blocking `cargo test`.
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS))
        .expect("watchdog expired: trainer deadlocked instead of propagating the fault")
}

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
        train_with_faults(&cfg(4), UNLIMITED, &plan)
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
        train_with_faults(&cfg(4), UNLIMITED, &plan)
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
        let clean = train_with_faults(&cfg(2), UNLIMITED, &FaultPlan::none());
        let plan = FaultPlan::none().straggle(1, Duration::from_millis(2));
        let slow = train_with_faults(&cfg(2), UNLIMITED, &plan);
        (clean, slow)
    });
    let clean0 = clean[0].as_ref().expect("fault-free run succeeds");
    let slow0 = slow[0].as_ref().expect("straggler run succeeds");
    assert_eq!(clean0.epochs[0].train_loss, slow0.epochs[0].train_loss);
    assert_eq!(clean0.final_ppl(), slow0.final_ppl());
    assert!(slow[1].is_ok());
}

#[test]
fn empty_fault_plan_matches_plain_train() {
    // `train` routes through the fault machinery with an empty plan;
    // both entry points must agree exactly.
    let c = cfg(2);
    let via_faults = with_watchdog({
        let c = c.clone();
        move || train_with_faults(&c, UNLIMITED, &FaultPlan::none())
    });
    let plain = train(&c).expect("plain train succeeds");
    let rank0 = via_faults[0].as_ref().expect("rank 0 succeeds");
    assert_eq!(rank0.epochs[0].train_loss, plain.epochs[0].train_loss);
    assert_eq!(rank0.final_ppl(), plain.final_ppl());
    assert!(via_faults[1].is_ok());
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
        let results = with_watchdog(move || train_with_faults(&cfg(4), UNLIMITED, &plan));
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
        train_with_faults(&cfg(4), UNLIMITED, &plan)
    });
    assert!(ok.iter().all(|r| r.is_ok()));
}

#[test]
fn invalid_compression_scale_is_rejected_eagerly() {
    // A scale the FP16 wire cannot use (the collectives assert it is
    // positive and finite) used to panic inside every rank thread and
    // out of `train()`. It must be a typed error on every rank, on
    // both exchange paths, before any thread spawns.
    for scale in [0.0f32, -512.0, f32::NAN, f32::INFINITY] {
        for unique in [false, true] {
            let mut cfg = cfg(4);
            cfg.method.unique = unique;
            cfg.method.compression = Some(scale);
            let (results, collapsed) = with_watchdog(move || {
                (
                    train_with_faults(&cfg, UNLIMITED, &FaultPlan::none()),
                    train(&cfg),
                )
            });
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
    // The error-priority contract documented on `train_with_memory_limit`:
    // when one rank OOMs, the other ranks' PeerFailure echoes must never
    // win the collapse — callers see the root cause.
    let err = with_watchdog(|| {
        let c = cfg(4);
        // Tight symmetric limit: some rank OOMs, the rest echo.
        train_with_memory_limit(&c, 200_000).unwrap_err()
    });
    match err {
        TrainError::Oom(_) => {}
        other => panic!("root-cause OOM must beat PeerFailure echoes, got {other:?}"),
    }
    // Same contract for the asymmetric case, where exactly one rank
    // holds the root cause and three hold echoes.
    let err = with_watchdog(|| {
        let c = cfg(4);
        let plan = FaultPlan::none().limit_rank_memory(1, 10_000);
        let results = train_with_faults(&c, UNLIMITED, &plan);
        let mut peer = None;
        for res in &results {
            match res {
                Err(TrainError::PeerFailure { .. }) if peer.is_none() => {
                    peer = Some(res.clone().unwrap_err());
                }
                Err(e) if !matches!(e, TrainError::PeerFailure { .. }) => return e.clone(),
                _ => {}
            }
        }
        peer.expect("some rank must fail")
    });
    assert!(matches!(err, TrainError::Oom(_)), "got {err:?}");
}

#[test]
fn kill_at_step_zero_fails_before_any_progress() {
    // Degenerate corner: the rank dies before its first collective.
    let results = with_watchdog(|| {
        let plan = FaultPlan::none().kill_rank(0, 0);
        train_with_faults(&cfg(3), UNLIMITED, &plan)
    });
    for res in &results {
        match res {
            Err(TrainError::PeerFailure { rank, .. }) => assert_eq!(*rank, 0),
            other => panic!("expected PeerFailure, got {other:?}"),
        }
    }
}
