//! The paper's central correctness claim, tested exhaustively:
//! "The uniqueness technique only changes the flow of computation …
//! and hence produces the same accuracy as the baseline" (§V-A).
//!
//! The unique exchange must produce the same synchronized embedding
//! update as the dense ALLGATHER baseline, for arbitrary gradient
//! contents, duplication patterns, world sizes, and with/without FP16
//! wire compression — and full training trajectories must coincide.

use nn::{Embedding, SparseGrad};
use perfmodel::TechniqueStack;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::{CommGroup, Rank};
use tensor::Matrix;
use zipf_lm::{
    exchange_and_apply_with, train, CheckpointConfig, CommConfig, ExchangeConfig, ExchangeScratch,
    Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

const DIM: usize = 5;
const VOCAB: usize = 40;

fn run_group<T: Send>(world: usize, f: impl Fn(Rank) -> T + Sync) -> Vec<T> {
    let ranks = CommGroup::create(world);
    let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                let f = &f;
                s.spawn(move || f(rank))
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            out[i] = Some(h.join().expect("rank panicked"));
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

fn table() -> Embedding {
    let mut rng = StdRng::seed_from_u64(99);
    Embedding::new(&mut rng, VOCAB, DIM)
}

fn apply(world: usize, grads: Vec<SparseGrad>, cfg: ExchangeConfig) -> Matrix {
    let grads = std::sync::Arc::new(grads);
    let results = run_group(world, move |rank| {
        let mut t = table();
        let g = grads[rank.rank()].clone();
        exchange_and_apply_with(&rank, &g, &mut t, 0.05, &cfg, &mut ExchangeScratch::new())
            .expect("no fault injected");
        t.weights().clone()
    });
    // All replicas must already agree (checked here so every scenario
    // enforces the synchronization invariant).
    for r in 1..world {
        assert_eq!(
            results[0].as_slice(),
            results[r].as_slice(),
            "replica divergence at rank {r}"
        );
    }
    results.into_iter().next().unwrap()
}

fn grad_from(indices: Vec<u32>, seed: u64) -> SparseGrad {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = indices.len();
    let rows = Matrix::from_vec(
        n,
        DIM,
        (0..n * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    SparseGrad { indices, rows }
}

#[test]
fn equivalence_across_world_sizes() {
    for world in [1usize, 2, 3, 5, 8] {
        let grads: Vec<SparseGrad> = (0..world)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(r as u64);
                let idx: Vec<u32> = (0..20).map(|_| rng.gen_range(0..VOCAB as u32)).collect();
                grad_from(idx, 100 + r as u64)
            })
            .collect();
        let base = apply(world, grads.clone(), TechniqueStack::Baseline.exchange());
        let uniq = apply(world, grads, TechniqueStack::Unique.exchange());
        let diff = base.max_abs_diff(&uniq);
        assert!(diff < 1e-5, "world {world}: diff {diff}");
    }
}

#[test]
fn equivalence_with_extreme_duplication() {
    // Every GPU hammers the same single hot word — the worst case for
    // the baseline's serialization, the best case for uniqueness.
    let world = 4;
    let grads: Vec<SparseGrad> = (0..world)
        .map(|r| grad_from(vec![7; 32], r as u64))
        .collect();
    let base = apply(world, grads.clone(), TechniqueStack::Baseline.exchange());
    let uniq = apply(world, grads, TechniqueStack::Unique.exchange());
    assert!(base.max_abs_diff(&uniq) < 1e-4);
}

#[test]
fn equivalence_with_disjoint_vocabularies() {
    // No overlap between GPUs: Ug = Σ Ui, the technique's worst case.
    let world = 4;
    let grads: Vec<SparseGrad> = (0..world)
        .map(|r| {
            let lo = r as u32 * 10;
            grad_from((lo..lo + 10).collect(), r as u64)
        })
        .collect();
    let base = apply(world, grads.clone(), TechniqueStack::Baseline.exchange());
    let uniq = apply(world, grads, TechniqueStack::Unique.exchange());
    assert!(base.max_abs_diff(&uniq) < 1e-5);
}

#[test]
fn equivalence_with_empty_contributions() {
    // Ranks may contribute zero rows (e.g. a shard exhausted early).
    let world = 3;
    let grads = vec![
        grad_from(vec![1, 2, 3], 1),
        grad_from(vec![], 2),
        grad_from(vec![3, 3], 3),
    ];
    let base = apply(world, grads.clone(), TechniqueStack::Baseline.exchange());
    let uniq = apply(world, grads, TechniqueStack::Unique.exchange());
    assert!(base.max_abs_diff(&uniq) < 1e-5);
}

#[test]
fn compressed_paths_track_exact_paths() {
    let world = 4;
    let grads: Vec<SparseGrad> = (0..world)
        .map(|r| {
            let mut rng = StdRng::seed_from_u64(50 + r as u64);
            let idx: Vec<u32> = (0..16).map(|_| rng.gen_range(0..VOCAB as u32)).collect();
            grad_from(idx, 200 + r as u64)
        })
        .collect();
    let exact = apply(world, grads.clone(), TechniqueStack::Unique.exchange());
    let compressed = apply(
        world,
        grads,
        ExchangeConfig {
            unique: true,
            compression: Some(1024.0),
            ..TechniqueStack::Baseline.exchange()
        },
    );
    let diff = exact.max_abs_diff(&compressed);
    assert!(diff < 2e-3, "compression error too large: {diff}");
}

#[test]
fn training_trajectories_coincide() {
    // Whole-run equivalence: identical seeds, baseline vs unique
    // exchange — per-epoch losses must agree to f32 round-off.
    let mk = |method| TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus: 2,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 8,
        epochs: 2,
        base_lr: 0.4,
        lr_decay: 0.9,
        method,
        seed: 31,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    };
    let base = train(&mk(Method::baseline())).expect("baseline");
    let uniq = train(&mk(Method::unique())).expect("unique");
    for (b, u) in base.epochs.iter().zip(&uniq.epochs) {
        assert!(
            (b.train_loss - u.train_loss).abs() < 5e-3,
            "epoch {}: {} vs {}",
            b.epoch,
            b.train_loss,
            u.train_loss
        );
        assert!(
            (b.valid_ppl() - u.valid_ppl()).abs() / b.valid_ppl() < 5e-3,
            "ppl diverged: {} vs {}",
            b.valid_ppl(),
            u.valid_ppl()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn equivalence_for_arbitrary_gradients(
        world in 1usize..5,
        seed in 0u64..500,
        tokens_per_rank in 1usize..24,
        hot in 1u32..(VOCAB as u32),
    ) {
        // Zipf-ish skew: half the tokens land on `hot % vocab` ranks.
        let grads: Vec<SparseGrad> = (0..world)
            .map(|r| {
                let mut rng = StdRng::seed_from_u64(seed * 31 + r as u64);
                let idx: Vec<u32> = (0..tokens_per_rank)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            rng.gen_range(0..hot)
                        } else {
                            rng.gen_range(0..VOCAB as u32)
                        }
                    })
                    .collect();
                grad_from(idx, seed * 77 + r as u64)
            })
            .collect();
        let base = apply(world, grads.clone(), TechniqueStack::Baseline.exchange());
        let uniq = apply(world, grads, TechniqueStack::Unique.exchange());
        prop_assert!(base.max_abs_diff(&uniq) < 1e-4);
    }
}
