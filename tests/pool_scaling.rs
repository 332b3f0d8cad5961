//! Paper-scale worlds under the bounded run pool: 48- and 192-rank
//! groups must multiplex over a handful of run slots (ranks park at
//! collectives instead of demanding an OS thread each), the two-tier
//! hierarchical ALLREDUCE must stay bit-identical to the flat ring at
//! those sizes, and killing a node leader must poison both tiers
//! instead of deadlocking the survivors.
//!
//! Everything that *would* hang on a scheduling regression runs under
//! the same watchdog idiom as `fault_injection.rs`.

mod common;

use common::{faulted, with_watchdog};
use simgpu::{CommGroup, FaultPlan, Topology, Wire};
use zipf_lm::{
    run, train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig,
    TrainConfig, TrainError,
};

/// Run slots for every pooled scenario — far below the worlds tested.
const POOL: usize = 8;

fn cfg(gpus: usize, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Char { vocab: 32 },
        gpus,
        batch: 1,
        seq_len: 4,
        steps_per_epoch: 2,
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 11,
        tokens: 60_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

/// Flat-vs-hierarchical bit-identity at a paper-scale world, with the
/// hierarchical run multiplexed over `POOL` run slots.
fn assert_hier_matches_flat(world: usize) {
    let (flat, hier) = with_watchdog(move || {
        let flat = train(&cfg(world, CommConfig::flat())).expect("flat run");
        let hier =
            train(&cfg(world, CommConfig::hierarchical_pooled(POOL))).expect("hierarchical run");
        (flat, hier)
    });
    assert_eq!(flat.epochs[0].train_loss, hier.epochs[0].train_loss);
    assert_eq!(flat.final_ppl(), hier.final_ppl());
    assert_eq!(flat.steps.len(), hier.steps.len());
    for (f, h) in flat.steps.iter().zip(&hier.steps) {
        assert_eq!(
            f.train_loss.to_bits(),
            h.train_loss.to_bits(),
            "step {}",
            f.step
        );
    }
    // Attribution stays exactly conservative on both schedules, and
    // only the hierarchical one touches the inter-node tier.
    for s in &hier.steps {
        assert_eq!(s.attribution.total_ps(), s.sim_time_ps);
    }
    assert!(hier.attribution.wire_inter_ps > 0, "192>8 spans nodes");
    assert!(hier.attribution.wire_intra_ps > 0);
    assert!(hier.traffic.allreduce_inter_bytes > 0);
    // Flat pricing above one node still uses the inter-node α–β
    // constants, but the wire *time* is attributed to the tier of the
    // reporting rank's egress hop — rank 0 → rank 1 shares a node —
    // in agreement with how the collective tiers flat-ring bytes.
    assert!(flat.attribution.wire_intra_ps > 0);
    assert_eq!(flat.attribution.wire_inter_ps, 0);
    assert!(flat.traffic.allreduce_inter_bytes > 0);
}

#[test]
fn world_48_hierarchical_pooled_matches_flat_bitwise() {
    assert_hier_matches_flat(48);
}

#[test]
fn world_192_hierarchical_pooled_matches_flat_bitwise() {
    assert_hier_matches_flat(192);
}

/// 192 ranks over 8 run slots: the whole collective sequence completes
/// and the gate's high-water mark proves concurrency never exceeded
/// the cap (ranks parked at the rendezvous release their slot).
#[test]
fn world_192_concurrency_never_exceeds_pool_cap() {
    let peak = with_watchdog(|| {
        let ranks = CommGroup::create_full(192, 8, POOL, None);
        let gate = ranks[0].run_gate().expect("pooled group exposes its gate");
        let outs = simgpu::run_ranks(ranks, |rank| {
            let mut v = vec![rank.rank() as f32; 16];
            rank.all_reduce(&mut v, Wire::F32, Topology::TwoTier)
                .expect("allreduce");
            v[0].to_bits()
        });
        let expected = ((192 * 191) / 2) as f32;
        for o in outs {
            assert_eq!(o, expected.to_bits());
        }
        (gate.peak_running(), gate.cap())
    });
    assert_eq!(peak.1, POOL);
    assert!(
        peak.0 <= POOL,
        "peak concurrent ranks {} exceeded pool cap {POOL}",
        peak.0
    );
}

/// Killing a node *leader* (the only rank on the inter-node ring for
/// its node) must poison both tiers: every survivor — same node and
/// remote nodes alike — reports the failure instead of waiting forever
/// on a dead leader's rendezvous slot.
#[test]
fn killing_node_leader_poisons_both_tiers_at_world_16() {
    let results = with_watchdog(|| {
        // gpn 4 → leaders {0, 4, 8, 12}; rank 4 leads node 1.
        let comm = CommConfig {
            gpus_per_node: 4,
            hierarchical: true,
            pool_workers: POOL,
            ..CommConfig::flat()
        };
        let plan = FaultPlan::none().kill_rank(4, 1);
        run(&cfg(16, comm), &faulted(plan)).ranks
    });
    assert_eq!(results.len(), 16);
    for (r, res) in results.iter().enumerate() {
        match res {
            Err(TrainError::PeerFailure { rank, reason }) => {
                assert_eq!(*rank, 4, "rank {r} misattributed the failure: {reason}");
                assert!(
                    reason.contains("killed by fault plan"),
                    "rank {r} reason: {reason}"
                );
            }
            other => panic!("rank {r} must report the dead leader, got {other:?}"),
        }
    }
}
