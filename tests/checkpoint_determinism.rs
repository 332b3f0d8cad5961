//! Property tests for checkpoint determinism — the foundation the
//! elastic-recovery bit-identity guarantees stand on:
//!
//! * serialize → deserialize → serialize is the **identity on bytes**
//!   for any checkpoint, including arbitrary `f32`/`f64` bit patterns
//!   (NaNs, negative zero, subnormals) in the parameter vector;
//! * two identical runs deposit **byte-equal** checkpoints at every
//!   `(rank, step)` — snapshots are a pure function of config + seed,
//!   with no wall-clock or allocation-order leakage — whether
//!   `RunOptions::checkpoints` is the in-memory backend or a directory
//!   on disk;
//! * across every `Method` preset and world size, every deposited
//!   checkpoint round-trips bitwise.

mod common;

use common::{checkpointing, TempDir};
use proptest::prelude::*;
use simgpu::FaultPlan;
use std::sync::Arc;
use zipf_lm::checkpoint::{Checkpoint, CheckpointMetrics, Fingerprint};
use zipf_lm::{
    run, CheckpointBackend, CheckpointConfig, CheckpointDir, CheckpointStore, CommConfig,
    EpochMetrics, MemoryBackend, Method, MetricsConfig, ModelKind, TimeAttribution, TraceConfig,
    TrainConfig,
};

const METHODS: [fn() -> Method; 3] = [Method::baseline, Method::unique_seeded, Method::full];
const WORLDS: [usize; 3] = [1, 2, 4];

fn run_cfg(model: ModelKind, gpus: usize, method: Method, seed: u64) -> TrainConfig {
    TrainConfig {
        model,
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 4,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method,
        seed,
        tokens: 20_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig {
            every_steps: 2,
            keep_last: 4,
        },
        comm: CommConfig::flat(),
    }
}

/// Deposited checkpoint bytes keyed by (rank, step).
type DepositedBytes = Vec<(usize, u64, Vec<u8>)>;

/// Runs training once with `backend` attached (no recovery) and
/// returns every deposited checkpoint's bytes, keyed by (rank, step),
/// plus the terminal snapshot's bytes.
fn checkpoint_bytes(
    cfg: &TrainConfig,
    backend: Arc<dyn CheckpointBackend>,
) -> (DepositedBytes, Vec<u8>) {
    let outcome = run(
        cfg,
        &checkpointing(backend.clone(), FaultPlan::none(), None),
    );
    for (r, res) in outcome.ranks.iter().enumerate() {
        assert!(res.is_ok(), "rank {r} failed: {:?}", res.as_ref().err());
    }
    let store = CheckpointStore::with_backend(cfg.gpus, backend);
    let mut out = Vec::new();
    for rank in 0..cfg.gpus {
        for ck in store.deposited(rank) {
            out.push((rank, ck.step, ck.to_bytes()));
        }
    }
    let fin = outcome.final_checkpoint.expect("terminal snapshot");
    (out, fin.to_bytes())
}

/// Builds a checkpoint whose every float field is a raw bit pattern
/// derived from `mix` (a full-range u64) and `params` (full-range u32
/// bits) — NaN payloads, negative zero and subnormals all occur and
/// must survive the wire unchanged.
fn synth_checkpoint(params: Vec<u32>, mix: u64, world: u32, rank: u32, step: u64) -> Checkpoint {
    let f64_at = |k: u32| f64::from_bits(mix.rotate_left(k));
    let u64_at = |k: u32| mix.rotate_left(k);
    let epochs = (0..(mix % 4) as usize)
        .map(|i| EpochMetrics {
            epoch: i,
            train_loss: f64_at(3 + i as u32),
            valid_nll: f64_at(17 + i as u32),
            sim_time_s: f64_at(43 + i as u32),
        })
        .collect();
    Checkpoint {
        world,
        rank,
        step,
        epoch: (mix >> 7) as u32,
        step_in_epoch: u64_at(9),
        lr: f32::from_bits(mix as u32),
        fingerprint: Fingerprint::of(
            &TrainConfig {
                batch: u64_at(41) as usize,
                base_lr: f32::from_bits((mix >> 8) as u32),
                method: Method {
                    compression: (mix & 2 != 0).then_some(f32::from_bits((mix >> 16) as u32)),
                    ..METHODS[(mix % 3) as usize]()
                },
                ..run_cfg(
                    if mix & 1 == 0 {
                        ModelKind::Word { vocab: 1000 }
                    } else {
                        ModelKind::Char { vocab: 48 }
                    },
                    1,
                    Method::baseline(),
                    mix,
                )
            },
            u64_at(11) as usize,
        ),
        params: params.into_iter().map(f32::from_bits).collect(),
        metrics: CheckpointMetrics {
            epochs,
            epoch_loss: f64_at(5),
            epoch_time_ps: u64_at(25),
            unique_sum: f64_at(15),
            unique_count: u64_at(35),
            attribution: TimeAttribution {
                compute_ps: u64_at(1),
                wire_intra_ps: u64_at(2),
                wire_inter_ps: u64_at(3),
                barrier_wait_ps: u64_at(4),
                skew_ps: u64_at(6),
                self_delay_ps: u64_at(8),
                overlapped_ps: u64_at(9),
            },
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// serialize → deserialize → serialize is the identity on bytes
    /// for arbitrary contents, including every special float class.
    #[test]
    fn byte_round_trip_is_identity_on_arbitrary_contents(
        params in proptest::collection::vec(0u32..=u32::MAX, 0..64),
        mix in 0u64..=u64::MAX,
        world in 0u32..=u32::MAX,
        rank in 0u32..=u32::MAX,
        step in 0u64..=u64::MAX,
    ) {
        let ck = synth_checkpoint(params, mix, world, rank, step);
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("own bytes parse");
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    /// Truncating a valid buffer anywhere must yield a typed error,
    /// never a panic or a silently-wrong checkpoint.
    #[test]
    fn truncation_never_panics(
        params in proptest::collection::vec(0u32..=u32::MAX, 0..32),
        mix in 0u64..=u64::MAX,
        cut in 0usize..1_000_000,
    ) {
        let ck = synth_checkpoint(params, mix, 4, 1, 10);
        let bytes = ck.to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err());
    }
}

proptest! {
    // Each case trains twice: keep the case count small but meaningful.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two identical runs — one depositing into memory, one into a
    /// directory on disk — deposit byte-equal checkpoints at every
    /// (rank, step), for arbitrary seeds, every `Method` preset, both
    /// model kinds, and worlds 1/2/4.
    #[test]
    fn identical_runs_deposit_byte_equal_checkpoints(
        method_idx in 0usize..3,
        world_idx in 0usize..3,
        word in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let model = if word == 1 {
            ModelKind::Word { vocab: 200 }
        } else {
            ModelKind::Char { vocab: 64 }
        };
        let cfg = run_cfg(model, WORLDS[world_idx], METHODS[method_idx](), seed);
        let keep = cfg.checkpoint.keep_last;
        let (a, fin_a) = checkpoint_bytes(&cfg, Arc::new(MemoryBackend::new(keep)));
        let tmp = TempDir::new("determinism");
        let dir = CheckpointDir::open(tmp.path(), keep).expect("open checkpoint dir");
        let (b, fin_b) = checkpoint_bytes(&cfg, Arc::new(dir));
        prop_assert!(!a.is_empty(), "cadence 2 over 4 steps must deposit");
        prop_assert_eq!(a.len(), b.len());
        for ((rank_a, step_a, bytes_a), (rank_b, step_b, bytes_b)) in a.iter().zip(&b) {
            prop_assert_eq!((rank_a, step_a), (rank_b, step_b));
            prop_assert_eq!(bytes_a, bytes_b, "rank {} step {} differs", rank_a, step_a);
            // And each deposited snapshot round-trips bitwise.
            let back = Checkpoint::from_bytes(bytes_a).expect("parses");
            prop_assert_eq!(&back.to_bytes(), bytes_a);
        }
        prop_assert_eq!(fin_a, fin_b, "terminal snapshots differ");
    }
}
