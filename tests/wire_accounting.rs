//! Every byte count above the collectives is built from what the
//! collectives returned. These tests check those returned charges
//! against the analytic schedules (`simgpu::allreduce_send_bytes`,
//! `simgpu::peer_exchange_tier_bytes`,
//! `simgpu::unique_gather_tier_bytes`) — for both exchange paths, with
//! and without FP16 compression and wire codecs, at sizes where `Ug·D`
//! and `K·D` rarely divide by `G` — and that `TrainReport::traffic` is
//! the sum of every rank's per-step bytes at ragged worlds.

use nn::{Embedding, SparseGrad};
use perfmodel::TechniqueStack;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::{CommGroup, Rank, Tier, TierBytes, Topology, TrafficSnapshot, WireCodec};
use tensor::Matrix;
use zipf_lm::{exchange_and_apply_with, ExchangeConfig, ExchangeScratch, ExchangeStats};

const VOCAB: usize = 60;

/// Runs `f` on every rank of a group of `world` ranks on `gpn`-GPU
/// nodes; returns per-rank results.
fn run_group<T: Send>(world: usize, gpn: usize, f: impl Fn(Rank) -> T + Sync) -> Vec<T> {
    simgpu::run_ranks(CommGroup::create_full(world, gpn, 0, None), f)
}

/// The node size of the group `cfg` runs on: its own `gpus_per_node`,
/// or one node when that is 0.
fn node_size(world: usize, cfg: ExchangeConfig) -> usize {
    match cfg.gpus_per_node {
        0 => world,
        gpn => gpn,
    }
}

/// Rank `r`'s gradient: `tokens` indices, then their `tokens×dim` rows.
fn grad(r: usize, tokens: usize, dim: usize) -> SparseGrad {
    let mut rng = StdRng::seed_from_u64(500 + r as u64);
    let indices: Vec<u32> = (0..tokens)
        .map(|_| rng.gen_range(0..VOCAB as u32))
        .collect();
    let rows = Matrix::from_vec(
        tokens,
        dim,
        (0..tokens * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    );
    SparseGrad { indices, rows }
}

/// Rank `r`'s `tokens` gradient indices.
fn indices(r: usize, tokens: usize) -> Vec<u32> {
    grad(r, tokens, 0).indices
}

/// Runs one exchange on every rank of a group on `cfg`'s nodes (one
/// node when `cfg.gpus_per_node` is 0); returns each rank's stats.
fn measure(world: usize, tokens: usize, dim: usize, cfg: ExchangeConfig) -> Vec<ExchangeStats> {
    run_group(world, node_size(world, cfg), |rank| {
        let mut table = {
            let mut rng = StdRng::seed_from_u64(11);
            Embedding::new(&mut rng, VOCAB, dim)
        };
        let grad = grad(rank.rank(), tokens, dim);
        let mut scratch = ExchangeScratch::new();
        let stats = exchange_and_apply_with(&rank, &grad, &mut table, 0.1, &cfg, &mut scratch)
            .expect("no fault injected");
        assert_eq!(stats.wire_bytes, stats.sent.total_bytes());
        stats
    })
}

/// Σ over ranks of what their exchanges' collectives returned.
fn summed(stats: &[ExchangeStats]) -> TrafficSnapshot {
    let mut sum = TrafficSnapshot::default();
    for s in stats {
        sum += s.sent;
    }
    sum
}

fn configs() -> [ExchangeConfig; 4] {
    [
        TechniqueStack::Baseline.exchange(),
        ExchangeConfig {
            unique: false,
            compression: Some(512.0),
            ..TechniqueStack::Baseline.exchange()
        },
        TechniqueStack::Unique.exchange(),
        TechniqueStack::Full.exchange(),
    ]
}

#[test]
fn analytic_wire_bytes_match_measured_traffic_exactly() {
    // Deliberately awkward sizes: Ug·D and K·D rarely divide by G.
    for world in [2usize, 3, 5, 8] {
        for (tokens, dim) in [(13usize, 7usize), (24, 5), (1, 3)] {
            for cfg in configs() {
                let stats = measure(world, tokens, dim, cfg);
                let elem: u64 = if cfg.compression.is_some() { 2 } else { 4 };
                for (r, s) in stats.iter().enumerate() {
                    let ctx = format!("world {world} K {tokens} D {dim} cfg {cfg:?} rank {r}");
                    // Every config here runs on one node: every byte is intra.
                    let gather =
                        |payload| simgpu::peer_exchange_tier_bytes(world, world, r, payload);
                    let index_gather = gather(tokens as u64 * 4);
                    let want = if cfg.unique {
                        let n = s.unique_global * dim;
                        let reduce =
                            simgpu::allreduce_send_bytes(n, world, world, Topology::Flat, r, elem);
                        let mut want = TrafficSnapshot::allgather(index_gather, 1);
                        want += TrafficSnapshot::allreduce(reduce, 1);
                        want
                    } else {
                        let rows = gather((tokens * dim) as u64 * elem);
                        TrafficSnapshot::allgather(index_gather + rows, 2)
                    };
                    assert_eq!(s.sent, want, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn single_rank_exchange_moves_no_bytes() {
    for cfg in configs() {
        let stats = measure(1, 9, 4, cfg);
        assert_eq!(stats[0].wire_bytes, 0);
        assert_eq!(stats[0].sent.total_bytes(), 0);
    }
}

#[test]
fn empty_gradient_exchange_accounts_zero_payload() {
    // K = 0 on every rank: nothing crosses the wire on either path.
    for cfg in configs() {
        for s in &measure(4, 0, 6, cfg) {
            assert_eq!(s.wire_bytes, 0, "cfg {cfg:?}");
        }
    }
}

#[test]
fn compression_halves_exactly_the_row_terms() {
    // The index gather stays u32; only gradient payload halves. Checked
    // through the analytic stats on an even-dividing size.
    let world = 4;
    let full = measure(world, 16, 8, TechniqueStack::Baseline.exchange());
    let comp = measure(
        world,
        16,
        8,
        ExchangeConfig {
            unique: false,
            compression: Some(512.0),
            ..TechniqueStack::Baseline.exchange()
        },
    );
    let index_term = (16 * 4 * (world - 1)) as u64;
    for (f, c) in full.iter().zip(&comp) {
        assert_eq!((c.wire_bytes - index_term) * 2, f.wire_bytes - index_term);
    }
}

/// The dense-gradient path: the bytes the collective returns must be
/// the analytic per-rank ring bytes (`simgpu::allreduce_send_bytes`) —
/// FP32 and FP16, divisible and non-divisible `n`, including the
/// `n < G` degenerate chunks.
#[test]
fn dense_allreduce_analytic_matches_recorded_exactly() {
    for world in [2usize, 3, 5, 8] {
        for n in [0usize, 4, 12, 13, 257] {
            for (elem, wire) in [
                (4u64, simgpu::Wire::F32),
                (2, simgpu::Wire::F16 { scale: 512.0 }),
            ] {
                let sent = run_group(world, world, |rank| {
                    let mut data = vec![rank.rank() as f32; n];
                    rank.all_reduce(&mut data, 0..n, wire, Topology::Flat)
                        .unwrap()
                });
                for (r, sent) in sent.iter().enumerate() {
                    // One node: all intra.
                    let share =
                        simgpu::allreduce_send_bytes(n, world, world, Topology::Flat, r, elem)
                            .total();
                    assert_eq!(
                        *sent,
                        TierBytes::on(Tier::Intra, share),
                        "world {world} n {n} elem {elem} rank {r}"
                    );
                }
            }
        }
    }
}

/// First-occurrence order of `indices`: §III-A's canonical order.
fn first_occurrence(indices: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashSet::new();
    indices
        .iter()
        .copied()
        .filter(|&i| seen.insert(i))
        .collect()
}

/// Rank `r`'s index frames in a `world`-rank unique-set gather on nodes
/// of `gpn` (`gpn == 0`: one node), every rank `q` contributing
/// `indices(q, tokens)`: `J_r`, `Ĵ_r`, its node's `U_n` and `Î`, each
/// at its length under `codec` (4 bytes per index without one).
fn frames(
    world: usize,
    gpn: usize,
    r: usize,
    tokens: usize,
    codec: Option<&dyn WireCodec<u32>>,
) -> simgpu::UniqueFrames {
    let len = |v: &[u32]| codec.map_or(v.len() as u64 * 4, |c| c.encoded_len(v));
    let gather = |ranks: std::ops::Range<usize>| -> Vec<u32> {
        ranks.flat_map(|q| indices(q, tokens)).collect()
    };
    let gpn = if gpn == 0 { world } else { gpn };
    let node = r / gpn * gpn;
    simgpu::UniqueFrames {
        indices: len(&indices(r, tokens)),
        local: len(&first_occurrence(&indices(r, tokens))),
        node: len(&first_occurrence(&gather(node..(node + gpn).min(world)))),
        global: len(&first_occurrence(&gather(0..world))),
    }
}

/// Codec-framed exchanges: every rank's index gather returns its frames
/// at their encoded lengths on the schedule's links — `J_r` to each peer
/// on the flat schedule; `Ĵ_r`, `U_n` and `Î` on the node schedule — and
/// its ALLREDUCE never more than the identity schedule's share, per
/// tier — for every lossless codec, on flat and two-tier schedules, at
/// sizes where `Ug·D` is ragged by `G`.
#[test]
fn codec_analytic_wire_bytes_match_measured_traffic_exactly() {
    for world in [2usize, 3, 5, 8] {
        for (tokens, dim) in [(13usize, 7usize), (24, 5), (1, 3)] {
            for gpn in [0usize, 2] {
                for codec in simgpu::WireCodecId::lossless_ladder() {
                    let cfg = ExchangeConfig {
                        unique: true,
                        gpus_per_node: gpn,
                        codec,
                        ..TechniqueStack::Baseline.exchange()
                    };
                    let topology = cfg.topology();
                    for (r, s) in measure(world, tokens, dim, cfg).iter().enumerate() {
                        let ctx = format!(
                            "world {world} K {tokens} D {dim} gpn {gpn} codec {} rank {r}",
                            codec.name()
                        );
                        let frames = frames(world, gpn, r, tokens, codec.index_codec());
                        let gpn = node_size(world, cfg);
                        let gather =
                            simgpu::unique_gather_tier_bytes(world, gpn, topology, r, frames);
                        assert_eq!(
                            (s.sent.allgather_intra_bytes, s.sent.allgather_inter_bytes),
                            (gather.intra, gather.inter),
                            "{ctx}: index gather"
                        );
                        let n = s.unique_global * dim;
                        let raw = simgpu::allreduce_send_bytes(n, world, gpn, topology, r, 4);
                        assert!(
                            s.sent.allreduce_intra_bytes <= raw.intra
                                && s.sent.allreduce_inter_bytes <= raw.inter,
                            "{ctx}: ALLREDUCE {:?} above identity {raw:?}",
                            s.sent
                        );
                        if codec.grad_codec().is_none() {
                            assert_eq!(s.sent.allreduce_bytes(), raw.total(), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// The delta+varint index path priced from first principles: encoding
/// each rank's index vector with the codec directly and charging
/// `enc·(G−1)` per rank must predict the ALLGATHER total exactly — at a
/// `G`-divisible token count and a ragged one.
#[test]
fn delta_varint_index_prediction_matches_recorder() {
    for world in [4usize, 5] {
        for tokens in [16usize, 13] {
            let cfg = ExchangeConfig {
                unique: true,
                codec: simgpu::WireCodecId::LosslessIndex,
                ..TechniqueStack::Baseline.exchange()
            };
            let gathered = summed(&measure(world, tokens, 6, cfg)).allgather_bytes();
            let predicted: u64 = (0..world)
                .map(|r| {
                    simgpu::DeltaVarintCodec.encoded_len(&indices(r, tokens)) * (world as u64 - 1)
                })
                .sum();
            assert_eq!(
                predicted, gathered,
                "world {world} K {tokens}: predicted {predicted} vs returned {gathered}"
            );
            // Strictly smaller than the raw index gather at these
            // dense vocab-bounded draws.
            assert!(
                gathered < (tokens as u64) * 4 * (world as u64 - 1) * world as u64,
                "world {world} K {tokens}: index frames did not compress"
            );
        }
    }
}

/// Never-expand, per collective class: with any lossless codec the
/// ALLGATHER and ALLREDUCE totals never exceed the identity run's — on
/// flat and hierarchical schedules alike.
#[test]
fn codec_recorded_bytes_never_exceed_identity() {
    for world in [3usize, 8] {
        for gpn in [0usize, 2] {
            let base = ExchangeConfig {
                unique: true,
                gpus_per_node: gpn,
                ..TechniqueStack::Baseline.exchange()
            };
            let identity = summed(&measure(world, 17, 5, base));
            for codec in simgpu::WireCodecId::lossless_ladder() {
                let coded = summed(&measure(world, 17, 5, ExchangeConfig { codec, ..base }));
                assert!(
                    coded.allgather_bytes() <= identity.allgather_bytes(),
                    "world {world} gpn {gpn} {}: gather expanded",
                    codec.name()
                );
                assert!(
                    coded.allreduce_bytes() <= identity.allreduce_bytes(),
                    "world {world} gpn {gpn} {}: allreduce expanded",
                    codec.name()
                );
            }
        }
    }
}

/// End to end at ragged worlds (G = 3 and 5 on two-GPU nodes): every
/// rank's report carries the same `traffic`, whose bytes are the sum
/// over every rank's steps of `dense_bytes`, both exchanges'
/// `wire_bytes` and the loss reduction's 8 bytes to each peer, and
/// whose op counts are the step's group calls — one dense ALLREDUCE,
/// and per exchange the baseline's two ALLGATHERs or the unique path's
/// index ALLGATHER and `Ug×D` ALLREDUCE.
#[test]
fn traffic_is_the_sum_of_every_ranks_steps_at_ragged_worlds() {
    use zipf_lm::{
        run, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, RunOptions,
        TraceConfig, TrainConfig,
    };
    const GPN: usize = 2;
    for gpus in [3usize, 5] {
        for method in [Method::baseline(), Method::unique()] {
            let cfg = TrainConfig {
                model: ModelKind::Word { vocab: 150 },
                gpus,
                batch: 2,
                seq_len: 5,
                steps_per_epoch: 5,
                epochs: 1,
                base_lr: 0.3,
                lr_decay: 0.95,
                method,
                seed: 13,
                tokens: 30_000,
                trace: TraceConfig::off(),
                metrics: MetricsConfig::off(),
                checkpoint: CheckpointConfig::off(),
                comm: CommConfig {
                    gpus_per_node: GPN,
                    hierarchical: true,
                    ..CommConfig::flat()
                },
            };
            let ctx = format!("G {gpus} method {method:?}");
            let reports: Vec<_> = run(&cfg, &RunOptions::default())
                .ranks
                .into_iter()
                .map(|r| r.expect("rank failed"))
                .collect();
            let traffic = reports[0].traffic;
            let mut bytes = 0u64;
            for (r, rep) in reports.iter().enumerate() {
                assert_eq!(rep.traffic, traffic, "{ctx}: rank {r}'s traffic");
                let loss = simgpu::peer_exchange_tier_bytes(gpus, GPN, r, 8).total();
                bytes += rep.steps.iter().map(|s| s.wire_bytes() + loss).sum::<u64>();
                // And the derived mean is this rank's step bytes / steps.
                let mean = rep.mean_step_bytes() * rep.steps.len() as f64;
                let own: u64 = rep.steps.iter().map(|s| s.wire_bytes()).sum();
                assert!((mean - own as f64).abs() < 1e-6, "{ctx}: rank {r}");
            }
            assert_eq!(traffic.total_bytes(), bytes, "{ctx}");
            let steps = reports[0].steps.len() as u64;
            assert_eq!(steps, 5);
            let (ar_per_exchange, ag_per_exchange) = if method.unique { (1, 1) } else { (0, 2) };
            assert_eq!(
                traffic.allreduce_ops,
                steps * (1 + 2 * ar_per_exchange),
                "{ctx}"
            );
            assert_eq!(traffic.allgather_ops, steps * 2 * ag_per_exchange, "{ctx}");
            assert!(
                traffic.inter_bytes() > 0,
                "{ctx}: nodes of {GPN} must cross"
            );
        }
    }
}
