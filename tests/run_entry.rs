//! The one way into the trainer: `run(cfg, &RunOptions) -> RunOutcome`.
//!
//! * The two shims the pinned `e2e/` benchmark still calls — `train`
//!   and `train_with_faults` — are bit-identical to `run` with the
//!   corresponding options (per-step loss bits, simulated picoseconds,
//!   attribution, traffic, peak memory), at worlds 2 and 8, so a later
//!   benchmark change can swap the names blind.
//! * A `TrainConfig` no rank could execute comes back as
//!   `TrainError::InvalidConfig` on every rank — before data generation
//!   or any thread spawn, never as a panic.

mod common;

use common::{faulted, with_watchdog};
use simgpu::FaultPlan;
use std::time::Duration;
use zipf_lm::{
    run, train, train_with_faults, Method, ModelKind, RunOptions, TrainConfig, TrainError,
    TrainReport,
};

fn cfg(gpus: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 5,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::full(),
        seed: 7,
        tokens: 30_000,
        ..TrainConfig::default()
    }
}

/// What must not move: per-step loss bits, simulated picoseconds and
/// their attribution, traffic, peak memory.
fn fingerprint(rep: &TrainReport) -> String {
    let steps: Vec<_> = rep
        .steps
        .iter()
        .map(|s| (s.train_loss.to_bits(), s.sim_time_ps, s.attribution))
        .collect();
    format!(
        "{steps:?} {:?} {:?} peak={}",
        rep.traffic, rep.attribution, rep.peak_mem_bytes
    )
}

fn fingerprints(ranks: &[Result<TrainReport, TrainError>]) -> Vec<Result<String, TrainError>> {
    ranks
        .iter()
        .map(|r| r.as_ref().map(fingerprint).map_err(Clone::clone))
        .collect()
}

#[test]
fn shims_are_bit_identical_to_run_at_worlds_2_and_8() {
    for world in [2usize, 8] {
        let pairs = with_watchdog(move || {
            let c = cfg(world);
            let defaults = RunOptions::default();
            // A straggler moves simulated time (skew, self-delay)
            // without moving numerics; a finite cap exercises the
            // memory argument without tripping it.
            let cap = 1u64 << 40;
            let slow = FaultPlan::none().straggle(1, Duration::from_millis(1));
            let capped_slow = RunOptions {
                gpu_mem_bytes: cap,
                ..faulted(slow.clone())
            };
            let kill = FaultPlan::none().kill_rank(world - 1, 3);
            [
                (vec![train(&c)], vec![run(&c, &defaults).report()]),
                (
                    train_with_faults(&c, cap, &slow),
                    run(&c, &capped_slow).ranks,
                ),
                (
                    train_with_faults(&c, defaults.gpu_mem_bytes, &kill),
                    run(&c, &faulted(kill)).ranks,
                ),
            ]
        });
        for (i, (shim, direct)) in pairs.iter().enumerate() {
            // The first two scenarios complete on every rank, the kill
            // fails on every rank.
            assert!(shim.iter().all(|r| r.is_ok() == (i < 2)), "case {i}");
            assert_eq!(
                fingerprints(shim),
                fingerprints(direct),
                "case {i} at world {world}"
            );
        }
        assert_eq!(pairs[1].0.len(), world);
    }
}

#[test]
fn default_run_attaches_no_checkpoint_store() {
    // `cfg.checkpoint` asks for snapshots, but with neither a backend
    // nor a recovery policy there is nowhere to put them.
    let mut c = cfg(2);
    c.checkpoint = zipf_lm::CheckpointConfig::every(2);
    let outcome = run(&c, &RunOptions::default());
    assert!(outcome.final_checkpoint.is_none() && outcome.recoveries.is_empty());
    assert_eq!((outcome.initial_world, outcome.final_world), (2, 2));
    assert!(outcome.ranks.iter().all(Result::is_ok));
}

#[test]
fn invalid_configs_are_typed_errors_on_every_rank() {
    // Each of these used to panic: the first two on an `assert!` in the
    // caller's thread, the rest inside every rank thread. A corpus this
    // size could not even be allocated, so a pass also shows the
    // rejection happens before data generation.
    let base = TrainConfig {
        tokens: 1 << 40,
        ..cfg(4)
    };
    type Breakage = fn(&mut TrainConfig);
    let table: [(&str, Breakage); 6] = [
        ("gpus", |c| c.gpus = 0),
        ("epochs", |c| c.epochs = 0),
        ("batch", |c| c.batch = 0),
        ("seq_len", |c| c.seq_len = 0),
        ("char vocabulary", |c| {
            c.model = ModelKind::Char { vocab: 0 }
        }),
        ("char vocabulary", |c| {
            let mut dims = nn::model::CharLmConfig::small(32);
            dims.vocab = 0;
            c.model = ModelKind::CharCustom(dims);
        }),
    ];
    for (what, break_it) in table {
        let mut bad = base.clone();
        break_it(&mut bad);
        let world = bad.gpus.max(1);
        let (outcome, shim) =
            with_watchdog(move || (run(&bad, &RunOptions::default()), train(&bad)));
        assert_eq!(outcome.ranks.len(), world, "{what}: one result per rank");
        assert!(outcome.recoveries.is_empty() && outcome.final_checkpoint.is_none());
        let collapsed = outcome.clone().report();
        for res in outcome.ranks.into_iter().chain([collapsed, shim]) {
            match res {
                Err(TrainError::InvalidConfig { reason }) => {
                    assert!(reason.contains(what), "{what}: {reason}");
                }
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
    // Recovery cannot "shrink around" a bad config either.
    let opts = common::recovering(FaultPlan::none(), zipf_lm::RecoveryPolicy::default());
    let mut bad = base;
    bad.batch = 0;
    let err = run(&bad, &opts).report().unwrap_err();
    assert!(matches!(err, TrainError::InvalidConfig { .. }), "{err:?}");
}
