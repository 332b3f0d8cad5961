//! Quickstart: train a small word LM on 4 simulated GPUs with all three
//! of the paper's techniques, and compare against the baseline exchange.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use zipf_lm::{
    train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
};

fn main() {
    let mut cfg = TrainConfig {
        model: ModelKind::Word { vocab: 500 },
        gpus: 4,
        batch: 8,
        seq_len: 16,
        steps_per_epoch: 40,
        epochs: 2,
        base_lr: 0.5,
        lr_decay: 0.9,
        method: Method::full(),
        seed: 42,
        tokens: 100_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    };

    println!(
        "training word LM on {} simulated GPUs (uniqueness + seeding + fp16)...",
        cfg.gpus
    );
    let ours = train(&cfg).expect("training");
    for e in &ours.epochs {
        println!(
            "  epoch {}: train loss {:.3}, valid ppl {:.1}, simulated time {:.2}s",
            e.epoch + 1,
            e.train_loss,
            e.valid_ppl(),
            e.sim_time_s
        );
    }

    cfg.method = Method::baseline();
    println!("\nsame model with the baseline dense ALLGATHER exchange...");
    let base = train(&cfg).expect("training");

    println!("\n                        baseline      with techniques");
    println!(
        "final perplexity      : {:>10.1}   {:>10.1}   (accuracy preserved)",
        base.final_ppl(),
        ours.final_ppl()
    );
    println!(
        "wire bytes (total)    : {:>10}   {:>10}   ({:.1}x less)",
        base.traffic.total_bytes(),
        ours.traffic.total_bytes(),
        base.traffic.total_bytes() as f64 / ours.traffic.total_bytes() as f64
    );
    println!(
        "peak GPU memory       : {:>10}   {:>10}   ({:.1}x less)",
        base.peak_mem_bytes,
        ours.peak_mem_bytes,
        base.peak_mem_bytes as f64 / ours.peak_mem_bytes as f64
    );
    println!(
        "mean unique words/step: {:>10}   {:>10}   (Zipf's law at work)",
        "-",
        ours.mean_unique_global.round()
    );
}
