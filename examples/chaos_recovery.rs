//! Chaos walkthrough: durable checkpoints surviving disk rot.
//!
//! A four-GPU run checkpoints to an on-disk store; rank 1's step-20
//! snapshot is bit-flipped on disk, then rank 2 dies at step 25. The
//! recovery scan detects the corrupt frame (CRC mismatch), falls back
//! to the newest fully-intact cut, shrinks to the survivors and
//! finishes — with the damage surfaced as a typed health event and a
//! `Recovery` marker on the chrome trace.
//!
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```
//!
//! Open `target/chaos.trace.json` in `chrome://tracing` or Perfetto;
//! the `Recovery` span marks the restart. The checkpoint directory is
//! left under `target/chaos-ckpts` for inspection — the damaged frame
//! is still there, exactly as the scan saw it.

use simgpu::{DiskFault, DiskFaultPlan, FaultPlan};
use std::sync::Arc;
use zipf_lm::{
    chrome_trace_json, run, CheckpointConfig, CheckpointDir, CommConfig, HealthEvent, Method,
    MetricsConfig, ModelKind, RecoveryPolicy, RunOptions, TraceConfig, TrainConfig,
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

    // The chaos: rank 1's step-20 frame rots on disk (one flipped bit
    // in the payload), then rank 2 dies at step 25.
    let disk = DiskFaultPlan::none().inject(1, 20, DiskFault::BitFlip { byte: 99, bit: 5 });
    let faults = FaultPlan::none().kill_rank_transient(2, 25);

    let root = "target/chaos-ckpts";
    let _ = std::fs::remove_dir_all(root);
    let backend = Arc::new(
        CheckpointDir::open_with_faults(root, cfg.checkpoint.keep_last, disk)
            .expect("open checkpoint dir"),
    );

    println!(
        "chaos run: {} GPUs, checkpoints on disk at {root}, \
         rank 1's step-20 frame bit-flipped, rank 2 dies at step 25...",
        cfg.gpus
    );
    let opts = RunOptions {
        faults,
        checkpoints: Some(backend),
        recovery: Some(RecoveryPolicy {
            backoff: std::time::Duration::from_millis(50),
            ..RecoveryPolicy::default()
        }),
        ..RunOptions::default()
    };
    let outcome = run(&cfg, &opts);

    for ev in &outcome.recoveries {
        println!(
            "  recovery #{}: ranks {:?} failed, world {} -> {}, restored step {:?} \
             ({} steps lost, backoff {:.2}ms simulated)",
            ev.restart,
            ev.failed_ranks,
            ev.world_before,
            ev.world_after,
            ev.restored_step(),
            ev.steps_lost,
            ev.backoff_ps as f64 / 1e9
        );
    }
    let (initial_world, final_world) = (outcome.initial_world, outcome.final_world);
    let report = outcome.report().expect("chaos run recovers");
    for h in &report.health {
        if let HealthEvent::CheckpointCorrupt { rank, step } = h {
            println!("  corrupt frame detected: rank {rank}, step {step} (skipped by the scan)");
        }
    }
    let summary = report.run_summary(&cfg);
    println!(
        "finished at world {} (started at {}): {} recoveries, {} corrupt frames",
        final_world, initial_world, summary.recoveries, summary.corruptions
    );
    for e in &report.epochs {
        println!(
            "  epoch {}: train loss {:.3}, valid ppl {:.1}",
            e.epoch + 1,
            e.train_loss,
            e.valid_ppl()
        );
    }

    if let Some(trace) = &report.trace {
        let json = chrome_trace_json(std::slice::from_ref(trace));
        let path = "target/chaos.trace.json";
        std::fs::write(path, json).expect("write trace");
        println!("chrome trace (with Recovery marker) written to {path}");
    }
}
