//! Cross-crate integration: the full pipeline from synthetic corpus to
//! trained model, plus consistency between the two f16 implementations
//! and between measured traffic and the cost model's assumptions.

use corpus::{CorpusGenerator, DatasetProfile, TokenUnit, Vocab};
use perfmodel::TechniqueStack;
use simgpu::{CommGroup, Topology, Wire};
use tensor::f16::round_trip;
use zipf::{fit_power_law, FrequencyTable};
use zipf_lm::{
    train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

#[test]
fn corpus_to_vocab_to_training_pipeline() {
    // Generate a corpus, build the §IV-A vocabulary, train — all
    // through the public APIs.
    let profile = DatasetProfile::one_billion();
    let raw = CorpusGenerator::new(&profile, TokenUnit::Word, 9).generate(50_000);
    let vocab = Vocab::build(&raw, 500);
    assert!(vocab.coverage() > 0.5);
    let cfg = TrainConfig {
        model: ModelKind::Word { vocab: 500 },
        gpus: 2,
        batch: 2,
        seq_len: 8,
        steps_per_epoch: 5,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::full(),
        seed: 9,
        tokens: 50_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    };
    let rep = train(&cfg).expect("pipeline");
    assert!(rep.final_ppl().is_finite());
}

#[test]
fn simgpu_and_tensor_f16_agree() {
    // simgpu carries its own binary16 to stay dependency-acyclic; it
    // must agree bit-for-bit with tensor's (checked via a compressed
    // allreduce round trip on one rank against a local round trip).
    let values = [0.5f32, -0.125, 3.25, 1e-4, -65000.0, 6e-5];
    let ranks = CommGroup::create(2);
    let results: Vec<Vec<f32>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                s.spawn(move || {
                    // One rank contributes the values, the other zeros,
                    // so the "sum" is just the quantised values.
                    let mut data = if rank.rank() == 0 {
                        values.to_vec()
                    } else {
                        vec![0.0; values.len()]
                    };
                    rank.all_reduce(
                        &mut data,
                        0..values.len(),
                        Wire::F16 { scale: 1.0 },
                        Topology::Flat,
                    )
                    .unwrap();
                    data
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, &v) in values.iter().enumerate() {
        let expected = round_trip(v);
        // Values pass through at most two quantisations of the same
        // value; with scale 1.0, that's idempotent.
        assert_eq!(
            results[0][i].to_bits(),
            expected.to_bits(),
            "value {v} diverged between implementations"
        );
        assert_eq!(results[0][i].to_bits(), results[1][i].to_bits());
    }
}

#[test]
fn generated_corpus_obeys_zipf_rank_frequency() {
    // The generator feeds the trainer; its empirical rank-frequency
    // curve must itself be a power law (Zipf), not just its type-token
    // curve.
    let profile = DatasetProfile::amazon_reviews();
    let tokens = CorpusGenerator::new(&profile, TokenUnit::Word, 3).generate(300_000);
    let mut freq = FrequencyTable::new();
    freq.add_all(&tokens);
    let probs = freq.rank_probs();
    // Fit p(r) ∝ r^-s over the head (ranks 10..1000; the Mandelbrot
    // offset bends the very head).
    let xs: Vec<f64> = (10..1000.min(probs.len()))
        .map(|r| (r + 1) as f64)
        .collect();
    let ys: Vec<f64> = (10..1000.min(probs.len())).map(|r| probs[r]).collect();
    let fit = fit_power_law(&xs, &ys).unwrap();
    assert!(
        (-fit.exponent - profile.zipf_s).abs() < 0.25,
        "measured s = {}, profile s = {}",
        -fit.exponent,
        profile.zipf_s
    );
    assert!(fit.r_squared > 0.95, "r2 {}", fit.r_squared);
}

#[test]
fn traffic_attribution_consistent_with_report() {
    // The trainer's per-step wire-byte accounting must roughly agree
    // with the communicator's own measured counters.
    let cfg = TrainConfig {
        model: ModelKind::Word { vocab: 300 },
        gpus: 4,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 21,
        tokens: 40_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    };
    let rep = train(&cfg).expect("run");
    let measured = rep.traffic.total_bytes() as f64;
    let attributed: f64 = rep
        .steps
        .iter()
        .map(|s| {
            (s.dense_bytes
                + s.input_exchange.wire_bytes
                + s.output_exchange.map(|e| e.wire_bytes).unwrap_or(0)) as f64
        })
        .sum::<f64>()
        * cfg.gpus as f64 // per-rank attribution vs group-total counters
        + 0.0;
    let ratio = attributed / measured;
    assert!(
        (0.5..2.0).contains(&ratio),
        "attributed {attributed:.0} vs measured {measured:.0} (ratio {ratio:.2})"
    );
}

#[test]
fn word_and_char_models_share_exchange_machinery() {
    // Both model kinds must run under every method combination.
    for model in [
        ModelKind::Word { vocab: 200 },
        ModelKind::Char { vocab: 64 },
    ] {
        for stack in TechniqueStack::all() {
            let cfg = TrainConfig {
                model,
                gpus: 2,
                batch: 2,
                seq_len: 5,
                steps_per_epoch: 2,
                epochs: 1,
                base_lr: 0.2,
                lr_decay: 0.95,
                method: stack.into(),
                seed: 4,
                tokens: 30_000,
                trace: TraceConfig::off(),
                metrics: MetricsConfig::off(),
                checkpoint: CheckpointConfig::off(),
                comm: CommConfig::flat(),
            };
            let rep = train(&cfg).expect("runs");
            assert!(rep.epochs[0].train_loss.is_finite());
        }
    }
}
