//! What the lockstep step shares between ranks, pinned.
//!
//! Under synchronous SGD every rank runs the same step: the same
//! learning rate, counter and epoch cursor, the same synchronised load
//! (`StepMetrics::load`, what the step clock prices) and the same step
//! time. Only the gradients, the wire position and each rank's share of
//! the time differ.
//!
//! * Every rank's `load()` and `sim_time_ps` are equal at every step,
//!   over both models, every technique stack, flat / two-tier /
//!   bucketed-with-codec / two-tier-with-codec schedules and worlds 1,
//!   2, 3 and 8, plus one 48-rank two-tier char run.
//! * One FNV-1a literal over every rank's deposited checkpoint bytes in
//!   a checkpointed two-epoch run, resumed mid-epoch and then recovered
//!   after rank 0 is killed following that restore. It pins the epoch
//!   history as the trainer books it: once, for the world, so a restore
//!   puts the checkpoint's `epochs` back and every rank's report and
//!   deposit carry the one history as it is extended.

mod common;

use common::checkpointing;
use perfmodel::TechniqueStack;
use simgpu::{FaultPlan, WireCodecId};
use std::sync::Arc;
use zipf_lm::{
    run, CheckpointConfig, CheckpointStore, CommConfig, MemoryBackend, Method, MetricsConfig,
    ModelKind, RecoveryPolicy, RunOptions, TraceConfig, TrainConfig, TrainReport,
};

fn cfg(model: ModelKind, gpus: usize, method: Method, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model,
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 3,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method,
        seed: 11,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

/// The four schedules: flat, two-tier on 2-GPU nodes, flat with
/// 1 KiB buckets and the lossless codec, and both together.
fn schedules() -> [(&'static str, CommConfig); 4] {
    let two_tier = CommConfig {
        gpus_per_node: 2,
        hierarchical: true,
        ..CommConfig::flat()
    };
    let codec = |comm: CommConfig| CommConfig {
        bucket_bytes: 1024,
        codec: WireCodecId::Lossless,
        ..comm
    };
    [
        ("flat", CommConfig::flat()),
        ("two-tier", two_tier),
        ("bucketed+codec", codec(CommConfig::flat())),
        ("two-tier+codec", codec(two_tier)),
    ]
}

/// Every rank's report of a run that must complete.
fn reports(cfg: &TrainConfig) -> Vec<TrainReport> {
    run(cfg, &RunOptions::default())
        .ranks
        .into_iter()
        .enumerate()
        .map(|(r, res)| res.unwrap_or_else(|e| panic!("rank {r} failed: {e}")))
        .collect()
}

/// Every step of every rank carries rank 0's load and step time.
fn assert_synchronised(cfg: &TrainConfig, what: &str) {
    let reports = reports(cfg);
    let steps = reports[0].steps.len();
    assert_eq!(steps, cfg.epochs * cfg.steps_per_epoch, "{what}");
    for (r, rep) in reports.iter().enumerate() {
        assert_eq!(rep.steps.len(), steps, "{what}: rank {r}");
        for (own, first) in rep.steps.iter().zip(&reports[0].steps) {
            let at = format!("{what}: rank {r}, step {}", own.step);
            assert_eq!(own.step, first.step, "{at}");
            assert_eq!(own.load(), first.load(), "{at}");
            assert_eq!(own.sim_time_ps, first.sim_time_ps, "{at}");
        }
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_rank_prices_one_load_and_one_step_time() {
    let models = [
        ModelKind::Word { vocab: 150 },
        ModelKind::Char { vocab: 32 },
    ];
    for model in models {
        for stack in TechniqueStack::all() {
            for (schedule, comm) in schedules() {
                for gpus in [1, 2, 3, 8] {
                    let what = format!("{model:?} {} {schedule} G {gpus}", stack.label());
                    assert_synchronised(&cfg(model, gpus, stack.into(), comm), &what);
                }
            }
        }
    }
    let mut wide = cfg(
        ModelKind::Char { vocab: 32 },
        48,
        Method::full(),
        schedules()[1].1,
    );
    wide.comm.gpus_per_node = 8;
    wide.epochs = 1;
    assert_synchronised(&wide, "char full two-tier G 48");
}

#[test]
fn resumed_and_recovered_checkpoints_are_pinned() {
    let mut cfg = cfg(
        ModelKind::Word { vocab: 150 },
        3,
        Method::full(),
        CommConfig::flat(),
    );
    cfg.steps_per_epoch = 4;
    cfg.checkpoint = CheckpointConfig {
        every_steps: 1,
        keep_last: 16,
    };

    // A fresh run's cut two steps into epoch 1, epoch 0's history on it.
    let fresh = Arc::new(MemoryBackend::new(16));
    let outcome = run(&cfg, &checkpointing(fresh.clone(), FaultPlan::none(), None));
    assert!(outcome.ranks.iter().all(Result::is_ok), "fresh run failed");
    let mid = CheckpointStore::with_backend(cfg.gpus, fresh)
        .deposited(0)
        .into_iter()
        .find(|ck| ck.step == 6)
        .expect("rank 0's step-6 cut");
    assert_eq!((mid.epoch, mid.step_in_epoch), (1, 2));
    assert_eq!(mid.metrics.epochs.len(), 1);

    // Resumed there; rank 0 dies at step 7, the survivors shrink to a
    // world of 2, restore the step-7 cut and finish.
    let backend = Arc::new(MemoryBackend::new(16));
    let opts = RunOptions {
        recovery: Some(RecoveryPolicy::default()),
        ..checkpointing(
            backend.clone(),
            FaultPlan::none().kill_rank_transient(0, 7),
            Some(mid),
        )
    };
    let outcome = run(&cfg, &opts);
    assert_eq!(outcome.recoveries.len(), 1);
    assert_eq!(outcome.final_world, 2);
    // The history is the world's: every report carries all of it.
    let epochs: Vec<usize> = (outcome.ranks.iter())
        .map(|res| res.as_ref().expect("recovered run failed").epochs.len())
        .collect();
    assert_eq!(epochs, [2, 2]);
    let last = outcome.final_checkpoint.expect("terminal cut");
    assert_eq!(last.metrics.epochs.len(), 2);

    let store = CheckpointStore::with_backend(cfg.gpus, backend);
    let mut bytes = Vec::new();
    for rank in 0..cfg.gpus {
        for ck in store.deposited(rank) {
            // The restored history is every rank's; no step here closes
            // an epoch before its deposit, so none has more.
            assert_eq!(ck.metrics.epochs.len(), 1, "rank {rank} step {}", ck.step);
            bytes.push(ck.to_bytes());
        }
    }
    bytes.push(last.to_bytes());
    assert_eq!(
        fnv1a(bytes.iter().flatten().copied()),
        12_505_036_788_536_359_220,
        "checkpoint bytes moved"
    );
}
