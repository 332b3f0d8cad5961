//! The §V-C "hero run" in miniature: weak scaling a Chinese-profile
//! char LM (the paper's 15 K-character vocabulary scaled to 2 K) — more
//! GPUs AND proportionally more data, reproducing the paper's headline:
//! large accuracy gains from training on more data.
//!
//! Like Table V, the learning rate grows with scale (the paper uses
//! 2e-4 / 4e-4 / 5e-4 at 6 / 24 / 192 GPUs) to keep the larger global
//! batches training well.
//!
//! The *time* side of the weak-scaling claim (32× data for 1.25× hours)
//! lives in the calibrated full-scale model:
//! `cargo run -p zlm-bench --bin repro table5`.
//!
//! ```sh
//! cargo run --release --example hero_tieba
//! ```

use zipf_lm::{
    train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

fn main() {
    println!("Tieba weak scaling (miniature): vocab 2000, data grows with GPUs\n");
    println!(
        "{:>6} {:>10} {:>8} {:>10} {:>8}",
        "GPUs", "tokens", "lr", "ppl", "gain"
    );

    let mut base_ppl = None;
    for (gpus, data_mult, lr) in [(1usize, 1usize, 0.8f32), (4, 4, 1.1), (8, 16, 1.4)] {
        // More capacity than the default small config so the larger
        // corpora actually pay off (at the paper's dimensions the Tieba
        // model has ≈126 M params, 98.36 M of them dense).
        let model = ModelKind::CharCustom(nn::model::CharLmConfig {
            vocab: 2000,
            embed_dim: 32,
            hidden: 64,
            depth: 3,
        });
        let cfg = TrainConfig {
            model,
            gpus,
            batch: 4,
            seq_len: 10,
            steps_per_epoch: 0,
            epochs: 1,
            base_lr: lr,
            lr_decay: 0.9,
            method: Method::full(),
            seed: 999,
            tokens: 30_000 * data_mult,
            trace: TraceConfig::off(),
            metrics: MetricsConfig::off(),
            checkpoint: CheckpointConfig::off(),
            comm: CommConfig::flat(),
        };
        let rep = train(&cfg).expect("training");
        let ppl = rep.final_ppl();
        let base = *base_ppl.get_or_insert(ppl);
        println!(
            "{gpus:>6} {:>10} {lr:>8.1} {ppl:>10.2} {:>7.0}%",
            cfg.tokens,
            (base - ppl) / base * 100.0
        );
    }
    println!("\npaper at full scale: 20% better at 4x data, 35% better at 32x (192 GPUs, 93 GB),");
    println!("for only 1.25x the training time — see `repro table5` for the time model.");
}
