//! Differential bit-identity proofs for the wire-codec ladder: a
//! lossless codec may change what crosses the wire and what the clock
//! says, but *never* what the model computes.
//!
//! For every lossless codec (`lossless-index`, `lossless-grad`,
//! `lossless`), at world 4 (flat ring) and world 48 (two-tier
//! hierarchical, 6 nodes × 8 GPUs on a bounded pool), with and without
//! comm/compute overlap:
//!
//! * per-step training losses are bit-identical to the identity run;
//! * per-epoch losses and the mean unique-word count are bit-identical;
//! * the terminal checkpoint — parameters included — is **byte-equal**
//!   once the time-derived metric fields (epoch_time_ps, attribution,
//!   per-epoch sim_time_s) are normalised out: simulated time
//!   legitimately moves with the codec (volume-vs-compute tradeoff);
//!   parameters, losses, counters and the fingerprint must not;
//! * total recorded traffic with the codec never exceeds the identity
//!   run's (the never-expand framing, end to end).

use simgpu::WireCodecId;
use std::sync::Arc;
use zipf_lm::checkpoint::Checkpoint;
use zipf_lm::{
    CheckpointConfig, CommConfig, MemoryBackend, Method, MetricsConfig, ModelKind, RunOptions,
    TraceConfig, TrainConfig, TrainReport,
};

fn cfg(gpus: usize, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Char { vocab: 48 },
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 3,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique_seeded(),
        seed: 1234,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig {
            every_steps: 0,
            keep_last: 1,
        },
        comm,
    }
}

/// Trains once, returning the report of rank 0 plus the terminal
/// checkpoint bytes.
fn run(cfg: &TrainConfig) -> (TrainReport, Vec<u8>) {
    let opts = RunOptions {
        checkpoints: Some(Arc::new(MemoryBackend::new(cfg.checkpoint.keep_last))),
        ..RunOptions::default()
    };
    let mut outcome = zipf_lm::run(cfg, &opts);
    for (r, res) in outcome.ranks.iter().enumerate() {
        assert!(res.is_ok(), "rank {r} failed: {:?}", res.as_ref().err());
    }
    let report = outcome.ranks.remove(0).unwrap();
    let final_ck = outcome.final_checkpoint.expect("terminal snapshot");
    (report, final_ck.to_bytes())
}

/// Zeroes every *time-derived* field of a serialized checkpoint — the
/// quantities a codec is allowed to move — leaving parameters, losses,
/// counters and the fingerprint untouched, then re-serializes.
fn normalize_time(bytes: &[u8]) -> Vec<u8> {
    let mut ck = Checkpoint::from_bytes(bytes).expect("checkpoint parses");
    ck.metrics.epoch_time_ps = 0;
    ck.metrics.attribution = Default::default();
    for e in &mut ck.metrics.epochs {
        e.sim_time_s = 0.0;
    }
    ck.to_bytes()
}

fn assert_bit_identical(
    identity: &(TrainReport, Vec<u8>),
    codec: &(TrainReport, Vec<u8>),
    label: &str,
) {
    let (id_rep, id_ck) = identity;
    let (co_rep, co_ck) = codec;
    assert_eq!(
        id_rep.steps.len(),
        co_rep.steps.len(),
        "{label}: step counts differ"
    );
    for (a, b) in id_rep.steps.iter().zip(&co_rep.steps) {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "{label}: step {} loss diverged",
            a.step
        );
        assert_eq!(
            a.input_exchange.unique_global, b.input_exchange.unique_global,
            "{label}: step {} Ug diverged",
            a.step
        );
    }
    for (a, b) in id_rep.epochs.iter().zip(&co_rep.epochs) {
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "{label}: epoch {} loss diverged",
            a.epoch
        );
        assert_eq!(
            a.valid_ppl().to_bits(),
            b.valid_ppl().to_bits(),
            "{label}: epoch {} ppl diverged",
            a.epoch
        );
    }
    assert_eq!(
        id_rep.mean_unique_global.to_bits(),
        co_rep.mean_unique_global.to_bits(),
        "{label}: mean Ug diverged"
    );
    // Terminal checkpoints byte-equal after normalising time-derived
    // metrics — this covers every parameter bit of every rank's model.
    assert_eq!(
        normalize_time(id_ck),
        normalize_time(co_ck),
        "{label}: terminal checkpoint bytes diverged"
    );
    // Never-expand, end to end: the codec run's recorded traffic never
    // exceeds identity's.
    assert!(
        co_rep.traffic.total_bytes() <= id_rep.traffic.total_bytes(),
        "{label}: codec traffic {} > identity {}",
        co_rep.traffic.total_bytes(),
        id_rep.traffic.total_bytes()
    );
}

fn sweep(gpus: usize, comm_variants: &[(&str, CommConfig)]) {
    for (comm_label, comm) in comm_variants {
        let identity = run(&cfg(gpus, *comm));
        for codec in WireCodecId::lossless_ladder() {
            let with_codec = run(&cfg(gpus, comm.with_codec(codec)));
            let label = format!("world {gpus} / {comm_label} / {}", codec.name());
            assert_bit_identical(&identity, &with_codec, &label);
            if matches!(codec, WireCodecId::LosslessIndex | WireCodecId::Lossless) {
                // The unique-index path must genuinely compress: strict
                // inequality, not just never-expand.
                assert!(
                    with_codec.0.traffic.total_bytes() < identity.0.traffic.total_bytes(),
                    "{label}: index codec did not shrink traffic"
                );
            }
        }
    }
}

/// World 4, flat ring — serial and overlapped schedules.
#[test]
fn lossless_codecs_bit_identical_world_4_flat() {
    sweep(
        4,
        &[
            ("flat", CommConfig::flat()),
            ("flat+overlap", CommConfig::flat().overlapped(1 << 16)),
        ],
    );
}

/// World 48, two-tier hierarchical on a bounded pool — serial and
/// overlapped schedules. 48 ranks > 8 GPUs/node ⇒ 6 nodes, so the
/// codec frames ride both the intra rings and the inter leader ring.
#[test]
fn lossless_codecs_bit_identical_world_48_hierarchical() {
    sweep(
        48,
        &[
            ("hier", CommConfig::hierarchical_pooled(8)),
            (
                "hier+overlap",
                CommConfig::hierarchical_pooled(8).overlapped(1 << 16),
            ),
        ],
    );
}

/// `RunSummary`'s codec bytes are every codec-framed ALLREDUCE payload,
/// the dense one included — the same on every rank — and the raw side
/// is the identity run's (a codec changes what is encoded, never what
/// there is to encode).
#[test]
fn run_summary_codec_bytes_are_dense_plus_exchange_on_every_rank() {
    let metered = |comm: CommConfig| {
        let c = cfg(4, comm);
        let ranks = zipf_lm::run(&c, &RunOptions::default()).ranks;
        let codec_bytes: Vec<(u64, u64)> = ranks
            .iter()
            .map(|res| {
                let rep = res.as_ref().expect("rank report");
                let s = rep.run_summary(&c);
                assert_eq!(
                    s.codec_ratio_milli,
                    s.codec_enc_bytes * 1000 / s.codec_raw_bytes
                );
                // A char LM has one exchange; the dense ALLREDUCE is
                // the rest, and most, of the sum.
                let dense: u64 = rep.steps.iter().map(|st| st.dense_raw_bytes).sum();
                let exchange: u64 = rep
                    .steps
                    .iter()
                    .map(|st| st.input_exchange.reduce_raw_bytes)
                    .sum();
                assert!(dense > exchange && exchange > 0);
                assert_eq!(s.codec_raw_bytes, dense + exchange);
                (s.codec_raw_bytes, s.codec_enc_bytes)
            })
            .collect();
        // The payloads are the reduced ones: identical on every rank.
        assert!(codec_bytes.iter().all(|b| *b == codec_bytes[0]));
        codec_bytes[0]
    };
    let (id_raw, id_enc) = metered(CommConfig::flat());
    let (raw, enc) = metered(CommConfig::flat().with_codec(WireCodecId::LosslessGrad));
    assert_eq!(id_raw, id_enc, "identity encodes nothing");
    assert_eq!(raw, id_raw, "the codec run has the same bytes to encode");
    assert!(enc < raw, "lossless-grad must compress: {enc} vs {raw}");
}
