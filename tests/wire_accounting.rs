//! The analytic `wire_bytes` in [`zipf_lm::ExchangeStats`] must match
//! what simgpu's `TrafficRecorder` actually measured — for both exchange
//! paths, with and without FP16 compression. Byte-exact: the unique
//! path's ALLREDUCE term is the bytes `Rank::all_reduce` returned — the
//! very numbers it charged the recorder — so non-divisible `Ug·D` sizes
//! cannot drift. The per-rank schedule these tests compare against,
//! `simgpu::allreduce_send_bytes`, is not an independent oracle: the
//! collective charges the recorder through the same chunk schedule, so
//! what is checked here is that every layer above it reports exactly
//! what was charged.

use nn::{Embedding, SparseGrad};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simgpu::{CommGroup, Rank, Tier, TierBytes, Topology, TrafficSnapshot, Wire};
use tensor::Matrix;
use zipf_lm::{exchange_and_apply_with, ExchangeConfig, ExchangeScratch, ExchangeStats};

const VOCAB: usize = 60;

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

/// Runs one exchange on every rank; returns per-rank stats plus the
/// group's measured traffic (reset immediately before the exchange).
fn measure(
    world: usize,
    tokens: usize,
    dim: usize,
    cfg: ExchangeConfig,
) -> (Vec<ExchangeStats>, TrafficSnapshot) {
    let results = run_group(world, |rank| {
        let mut table = {
            let mut rng = StdRng::seed_from_u64(11);
            Embedding::new(&mut rng, VOCAB, dim)
        };
        let mut rng = StdRng::seed_from_u64(500 + rank.rank() as u64);
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
        let grad = SparseGrad { indices, rows };
        rank.reset_traffic().unwrap();
        let mut scratch = ExchangeScratch::new();
        let stats = exchange_and_apply_with(&rank, &grad, &mut table, 0.1, &cfg, &mut scratch)
            .expect("no fault injected");
        rank.barrier().unwrap(); // all sends recorded before the snapshot
        (stats, rank.traffic())
    });
    let traffic = results[0].1;
    (results.into_iter().map(|(s, _)| s).collect(), traffic)
}

fn configs() -> [ExchangeConfig; 4] {
    [
        ExchangeConfig::baseline(),
        ExchangeConfig {
            unique: false,
            compression: Some(512.0),
            ..ExchangeConfig::baseline()
        },
        ExchangeConfig::unique(),
        ExchangeConfig::unique_compressed(),
    ]
}

#[test]
fn analytic_wire_bytes_match_measured_traffic_exactly() {
    // Deliberately awkward sizes: Ug·D and K·D rarely divide by G.
    for world in [2usize, 3, 5, 8] {
        for (tokens, dim) in [(13usize, 7usize), (24, 5), (1, 3)] {
            for cfg in configs() {
                let (stats, traffic) = measure(world, tokens, dim, cfg);
                let analytic: u64 = stats.iter().map(|s| s.wire_bytes).sum();
                let measured = traffic.allgather_bytes + traffic.allreduce_bytes;
                assert_eq!(
                    analytic, measured,
                    "world {world} K {tokens} D {dim} cfg {cfg:?}: \
                     analytic {analytic} vs measured {measured}"
                );
                // Per rank, not just in sum: `wire_bytes` is assembled
                // from what the collectives returned, and that must be
                // this rank's share of the analytic schedules.
                let peers = world as u64 - 1;
                let elem: u64 = if cfg.compression.is_some() { 2 } else { 4 };
                for (r, s) in stats.iter().enumerate() {
                    let index_gather = tokens as u64 * 4 * peers;
                    let payload = if cfg.unique {
                        let n = s.unique_global * dim;
                        simgpu::allreduce_send_bytes(n, world, world, Topology::Flat, r, elem)
                            .total()
                    } else {
                        (tokens * dim) as u64 * elem * peers
                    };
                    assert_eq!(
                        s.wire_bytes,
                        index_gather + payload,
                        "world {world} K {tokens} D {dim} cfg {cfg:?} rank {r}"
                    );
                }
            }
        }
    }
}

#[test]
fn single_rank_exchange_moves_no_bytes() {
    for cfg in configs() {
        let (stats, traffic) = measure(1, 9, 4, cfg);
        assert_eq!(stats[0].wire_bytes, 0);
        assert_eq!(traffic.allgather_bytes + traffic.allreduce_bytes, 0);
    }
}

#[test]
fn empty_gradient_exchange_accounts_zero_payload() {
    // K = 0 on every rank: nothing crosses the wire on either path.
    for cfg in configs() {
        let (stats, traffic) = measure(4, 0, 6, cfg);
        for s in &stats {
            assert_eq!(s.wire_bytes, 0, "cfg {cfg:?}");
        }
        assert_eq!(traffic.allgather_bytes + traffic.allreduce_bytes, 0);
    }
}

#[test]
fn compression_halves_exactly_the_row_terms() {
    // The index gather stays u32; only gradient payload halves. Checked
    // through the analytic stats on an even-dividing size.
    let world = 4;
    let (full, _) = measure(world, 16, 8, ExchangeConfig::baseline());
    let (comp, _) = measure(
        world,
        16,
        8,
        ExchangeConfig {
            unique: false,
            compression: Some(512.0),
            ..ExchangeConfig::baseline()
        },
    );
    let index_term = (16 * 4 * (world - 1)) as u64;
    for (f, c) in full.iter().zip(&comp) {
        assert_eq!((c.wire_bytes - index_term) * 2, f.wire_bytes - index_term);
    }
}

/// The dense-gradient path: the bytes the collective returns must be
/// the analytic per-rank ring bytes (`simgpu::allreduce_send_bytes`)
/// and, summed over ranks, equal the recorder exactly — FP32 and FP16,
/// divisible and non-divisible `n`, including the `n < G` degenerate
/// chunks.
#[test]
fn dense_allreduce_analytic_matches_recorded_exactly() {
    for world in [2usize, 3, 5, 8] {
        for n in [0usize, 4, 12, 13, 257] {
            for &elem in &[4u64, 2] {
                let wire = if elem == 4 {
                    Wire::F32
                } else {
                    Wire::F16 { scale: 512.0 }
                };
                let results = run_group(world, |rank| {
                    rank.reset_traffic().unwrap();
                    let mut data = vec![rank.rank() as f32; n];
                    let sent = rank.all_reduce(&mut data, wire, Topology::Flat).unwrap();
                    rank.barrier().unwrap();
                    (sent, rank.traffic().allreduce_bytes)
                });
                let measured = results[0].1;
                let mut analytic = 0u64;
                for (r, (sent, _)) in results.iter().enumerate() {
                    // `CommGroup::create` is one node: all intra.
                    let share =
                        simgpu::allreduce_send_bytes(n, world, world, Topology::Flat, r, elem)
                            .total();
                    assert_eq!(
                        *sent,
                        TierBytes::on(Tier::Intra, share),
                        "world {world} n {n} elem {elem} rank {r}: returned bytes"
                    );
                    analytic += share;
                }
                assert_eq!(
                    analytic, measured,
                    "world {world} n {n} elem {elem}: analytic {analytic} vs measured {measured}"
                );
            }
        }
    }
}

/// Codec-framed exchanges: the analytic `wire_bytes` must keep matching
/// the recorder byte-for-byte for every lossless codec, on flat and
/// two-tier schedules, at awkward sizes where `Ug·D` is ragged by `G`.
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
                        ..ExchangeConfig::baseline()
                    };
                    let (stats, traffic) = measure(world, tokens, dim, cfg);
                    let analytic: u64 = stats.iter().map(|s| s.wire_bytes).sum();
                    let measured = traffic.allgather_bytes + traffic.allreduce_bytes;
                    assert_eq!(
                        analytic,
                        measured,
                        "world {world} K {tokens} D {dim} gpn {gpn} codec {}: \
                         analytic {analytic} vs measured {measured}",
                        codec.name()
                    );
                }
            }
        }
    }
}

/// The delta+varint index path priced from first principles: encoding
/// each rank's index vector with the codec directly and charging
/// `enc·(G−1)` per rank must predict the recorder's ALLGATHER total
/// exactly — at a `G`-divisible token count and a ragged one.
#[test]
fn delta_varint_index_prediction_matches_recorder() {
    use simgpu::WireCodec;
    for world in [4usize, 5] {
        for tokens in [16usize, 13] {
            let cfg = ExchangeConfig {
                unique: true,
                codec: simgpu::WireCodecId::LosslessIndex,
                ..ExchangeConfig::baseline()
            };
            let (stats, traffic) = measure(world, tokens, 6, cfg);
            // Reconstruct each rank's index vector exactly as `measure`
            // drew it and encode it with the codec under test.
            let predicted: u64 = (0..world)
                .map(|r| {
                    let mut rng = StdRng::seed_from_u64(500 + r as u64);
                    let indices: Vec<u32> = (0..tokens)
                        .map(|_| rng.gen_range(0..VOCAB as u32))
                        .collect();
                    simgpu::DeltaVarintCodec.encoded_len_u32(&indices) * (world as u64 - 1)
                })
                .sum();
            assert_eq!(
                predicted, traffic.allgather_bytes,
                "world {world} K {tokens}: predicted {predicted} vs recorded {}",
                traffic.allgather_bytes
            );
            // The gradient path ran identity, so the analytic total
            // still reconciles and the ALLREDUCE term is untouched.
            let analytic: u64 = stats.iter().map(|s| s.wire_bytes).sum();
            assert_eq!(analytic, traffic.allgather_bytes + traffic.allreduce_bytes);
            // Strictly smaller than the raw index gather at these
            // dense vocab-bounded draws.
            assert!(
                traffic.allgather_bytes < (tokens as u64) * 4 * (world as u64 - 1) * world as u64,
                "world {world} K {tokens}: index frames did not compress"
            );
        }
    }
}

/// Never-expand, per collective class: with any lossless codec the
/// recorder's ALLGATHER and ALLREDUCE totals never exceed the identity
/// run's — on flat and hierarchical schedules alike.
#[test]
fn codec_recorded_bytes_never_exceed_identity() {
    for world in [3usize, 8] {
        for gpn in [0usize, 2] {
            let base = ExchangeConfig {
                unique: true,
                gpus_per_node: gpn,
                ..ExchangeConfig::baseline()
            };
            let (_, identity) = measure(world, 17, 5, base);
            for codec in simgpu::WireCodecId::lossless_ladder() {
                let (_, coded) = measure(world, 17, 5, ExchangeConfig { codec, ..base });
                assert!(
                    coded.allgather_bytes <= identity.allgather_bytes,
                    "world {world} gpn {gpn} {}: gather expanded",
                    codec.name()
                );
                assert!(
                    coded.allreduce_bytes <= identity.allreduce_bytes,
                    "world {world} gpn {gpn} {}: allreduce expanded",
                    codec.name()
                );
            }
        }
    }
}

/// End-to-end cross-check: `TrainReport::mean_step_bytes` (built from
/// per-step `dense_bytes` + exchange `wire_bytes`) must reconcile with
/// the group-global traffic recorder *exactly*. G = 2 keeps every
/// rank's ring share identical even for non-divisible payloads, so
/// rank 0's per-step attribution × G covers all dense + exchange
/// bytes; the only recorded traffic it does not attribute is the
/// per-step scalar loss ALLREDUCE (8·(G−1) bytes per rank per step).
#[test]
fn mean_step_bytes_reconciles_with_traffic_recorder() {
    use zipf_lm::{
        train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig,
        TrainConfig,
    };
    for method in [Method::baseline(), Method::unique()] {
        let cfg = TrainConfig {
            model: ModelKind::Word { vocab: 150 },
            gpus: 2,
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
            comm: CommConfig::flat(),
        };
        let rep = train(&cfg).expect("train");
        let g = cfg.gpus as u64;
        let steps = rep.steps.len() as u64;
        assert_eq!(steps, 5);
        let attributed: u64 = rep
            .steps
            .iter()
            .map(|s| {
                s.dense_bytes
                    + s.input_exchange.wire_bytes
                    + s.output_exchange.map(|e| e.wire_bytes).unwrap_or(0)
            })
            .sum();
        let loss_reduce = steps * g * (g - 1) * 8;
        assert_eq!(
            attributed * g + loss_reduce,
            rep.traffic.total_bytes(),
            "method {method:?}"
        );
        // And the derived mean is the same totals divided by steps.
        let mean = rep.mean_step_bytes();
        assert!((mean - attributed as f64 / steps as f64).abs() < 1e-9);
    }
}
