//! Elastic recovery walkthrough: kill a rank mid-epoch, shrink to the
//! survivors, restore from the last consistent checkpoint and finish
//! the run — then export a chrome trace with the recovery marker.
//!
//! ```sh
//! cargo run --release --example elastic_recovery
//! ```
//!
//! Open `target/elastic.trace.json` in `chrome://tracing` or Perfetto;
//! the `Recovery` span on the timeline marks the restart.

use simgpu::FaultPlan;
use zipf_lm::{
    chrome_trace_json, run, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind,
    RecoveryPolicy, RunOptions, TraceConfig, TrainConfig,
};

fn main() {
    let cfg = TrainConfig {
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
        trace: TraceConfig::on(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::every(10),
        comm: CommConfig::flat(),
    };

    // Rank 3 dies once, mid-way through epoch 1; `recovery` makes the
    // run shrink to the survivors and go on instead of ending there.
    let opts = RunOptions {
        faults: FaultPlan::none().kill_rank_transient(3, 55),
        recovery: Some(RecoveryPolicy::default()),
        ..RunOptions::default()
    };

    println!(
        "elastic run: {} GPUs, checkpoint every {} steps, rank 3 dies at step 55...",
        cfg.gpus, cfg.checkpoint.every_steps
    );
    let outcome = run(&cfg, &opts);

    for ev in &outcome.recoveries {
        println!(
            "  recovery #{}: ranks {:?} failed, world {} -> {}, restored step {:?} ({} steps lost, stalled {:.2}ms)",
            ev.restart,
            ev.failed_ranks,
            ev.world_before,
            ev.world_after,
            ev.restored_step(),
            ev.steps_lost,
            ev.stall_ns as f64 / 1e6
        );
    }
    println!(
        "finished at world {} (started at {})",
        outcome.final_world, outcome.initial_world
    );
    let report = outcome.report().expect("elastic run");
    for e in &report.epochs {
        println!(
            "  epoch {}: train loss {:.3}, valid ppl {:.1}",
            e.epoch + 1,
            e.train_loss,
            e.valid_ppl
        );
    }

    if let Some(trace) = &report.trace {
        let json = chrome_trace_json(std::slice::from_ref(trace));
        let path = "target/elastic.trace.json";
        std::fs::write(path, json).expect("write trace");
        println!("chrome trace (with Recovery marker) written to {path}");
    }
}
