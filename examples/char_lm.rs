//! Character-level LM (the paper's RHN model, scaled down) on the
//! English alphabet profile: trains across simulated GPUs and reports
//! perplexity and bits-per-character.
//!
//! ```sh
//! cargo run --release --example char_lm
//! ```

use zipf_lm::{
    train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

fn main() {
    let cfg = TrainConfig {
        model: ModelKind::Char { vocab: 98 },
        gpus: 4,
        batch: 4,
        seq_len: 12,
        steps_per_epoch: 0, // full shard per epoch
        epochs: 3,
        base_lr: 0.8,
        lr_decay: 0.9,
        method: Method::unique(), // §V-B: no seeding for char LMs (full softmax)
        seed: 5,
        tokens: 120_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    };

    println!(
        "char LM (RHN depth {}, {} cells) on a 98-char alphabet, {} simulated GPUs",
        cfg.model.char_config().depth,
        cfg.model.char_config().hidden,
        cfg.gpus
    );
    let rep = train(&cfg).expect("training");
    println!(
        "{:>6} {:>12} {:>10} {:>8}",
        "epoch", "train loss", "ppl", "BPC"
    );
    for e in &rep.epochs {
        println!(
            "{:>6} {:>12.4} {:>10.3} {:>8.3}",
            e.epoch + 1,
            e.train_loss,
            e.valid_ppl(),
            e.valid_bpc()
        );
    }
    println!(
        "\nunique chars per step saturate at the alphabet: mean Ug = {:.1} (vocab 98) —",
        rep.mean_unique_global
    );
    println!("\"the number of unique characters becomes constant as we keep increasing the batch size\" (§V-B).");
}
