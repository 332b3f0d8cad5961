//! Strong-scaling demo: the word LM across 1–8 simulated GPUs, baseline
//! vs techniques — a miniature of the paper's Table III, measured (not
//! modeled) on the thread-per-GPU simulator, including the baseline's
//! OOM cliff under a fixed device-memory cap.
//!
//! ```sh
//! cargo run --release --example word_lm_scaling
//! ```

use zipf_lm::{
    chrome_trace_json_with_counters, run, train, CheckpointConfig, CommConfig, FaultPlan,
    HealthEvent, Method, MetricsConfig, ModelKind, RunOptions, TraceConfig, TrainConfig,
    TrainError,
};

fn cfg(gpus: usize, method: Method) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 800 },
        gpus,
        batch: 8,
        seq_len: 16,
        steps_per_epoch: 20,
        epochs: 1,
        base_lr: 0.4,
        lr_decay: 0.95,
        method,
        seed: 11,
        tokens: 300_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

fn main() {
    println!(
        "{:>5} {:>15} {:>15} {:>12} {:>12} {:>8}",
        "GPUs", "base bytes/step", "ours bytes/step", "base mem", "ours mem", "Ug/step"
    );
    let mut base_peak_8 = 0;
    let mut ours_peak_8 = 0;
    for g in [1usize, 2, 4, 8] {
        let base = train(&cfg(g, Method::baseline())).expect("baseline");
        let ours = train(&cfg(g, Method::full())).expect("ours");
        if g == 8 {
            base_peak_8 = base.peak_mem_bytes;
            ours_peak_8 = ours.peak_mem_bytes;
        }
        println!(
            "{g:>5} {:>15.0} {:>15.0} {:>12} {:>12} {:>8.0}",
            base.mean_step_bytes(),
            ours.mean_step_bytes(),
            base.peak_mem_bytes,
            ours.peak_mem_bytes,
            ours.mean_unique_global
        );
    }

    // Now impose a device cap between the two 8-GPU peak usages: the
    // baseline must die the way the Titan X's 12 GB kills it in Table
    // III, while the unique path sails through.
    let cap = (base_peak_8 + ours_peak_8) / 2;
    println!("\nrerunning at 8 GPUs with a {cap}-byte device cap:");
    let capped = RunOptions {
        gpu_mem_bytes: cap,
        ..RunOptions::default()
    };
    let verdict = |method| match run(&cfg(8, method), &capped).report() {
        Ok(rep) => format!("ok (ppl {:.1})", rep.final_ppl()),
        Err(TrainError::Oom(e)) => format!("OUT OF MEMORY ({e})"),
        Err(e) => format!("{e}"),
    };
    println!("  baseline       : {}", verdict(Method::baseline()));
    println!("  with techniques: {}", verdict(Method::full()));
    // Traced rerun: 4 GPUs with rank 2 straggling 5 ms per step. Every
    // rank records span events; the merged Chrome trace and rank 0's
    // per-step JSONL land under target/ for inspection.
    println!("\ntraced 4-GPU run (rank 2 straggles 5 ms/step):");
    let mut tcfg = cfg(4, Method::full());
    tcfg.steps_per_epoch = 8;
    tcfg.trace = TraceConfig::on();
    tcfg.metrics = MetricsConfig::on();
    let straggling = RunOptions {
        faults: FaultPlan::none().straggle(2, std::time::Duration::from_millis(5)),
        ..RunOptions::default()
    };
    let reports: Vec<_> = run(&tcfg, &straggling)
        .ranks
        .into_iter()
        .map(|r| r.expect("traced run"))
        .collect();
    println!(
        "  {:>4} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "rank", "compute ps", "wire ps", "barrier ps", "skew ps", "delay ps"
    );
    for (r, rep) in reports.iter().enumerate() {
        let a = &rep.attribution;
        println!(
            "  {r:>4} {:>12} {:>12} {:>12} {:>12} {:>12}",
            a.compute_ps,
            a.wire_ps(),
            a.barrier_wait_ps,
            a.skew_ps,
            a.self_delay_ps
        );
    }
    // Fleet metrics: the health monitor should have flagged the injected
    // straggler, and rank 0 carries the exact cross-rank merged registry
    // plus the byte-stable RunSummary artifact bench-diff gates on.
    for ev in &reports[0].health {
        match ev {
            HealthEvent::Straggler {
                rank,
                factor_milli,
                step,
            } => println!(
                "  health: rank {rank} straggling at {:.2}x the median (flagged at step {step})",
                *factor_milli as f64 / 1000.0
            ),
            HealthEvent::TraceTruncated { rank, dropped } => {
                println!("  health: rank {rank} trace ring dropped {dropped} span(s)")
            }
            HealthEvent::CheckpointCorrupt { rank, step } => {
                println!("  health: rank {rank} checkpoint at step {step} corrupt on disk")
            }
            HealthEvent::Recovery { round, survivors } => {
                println!("  health: recovery round {round}, {survivors} survivor(s)")
            }
        }
    }
    let summary = reports[0].run_summary(&tcfg);
    println!(
        "  summary: step p50 {} ps, p95 {} ps, p99 {} ps, max {} ps",
        summary.step_p50_ps, summary.step_p95_ps, summary.step_p99_ps, summary.step_max_ps
    );
    let logs: Vec<_> = reports.iter().filter_map(|rep| rep.trace.clone()).collect();
    let _ = std::fs::create_dir_all("target");
    let chrome = "target/word_lm_scaling.trace.json";
    let jsonl = "target/word_lm_scaling.steps.jsonl";
    let summary_path = "target/word_lm_scaling.summary.json";
    // Counter tracks ride in the same Chrome trace as "C"-phase events:
    // wire bytes and Ug per step render as counter charts above the spans.
    std::fs::write(
        chrome,
        chrome_trace_json_with_counters(&logs, &reports[0].counter_tracks()),
    )
    .expect("write chrome trace");
    std::fs::write(jsonl, reports[0].steps_jsonl()).expect("write step jsonl");
    std::fs::write(summary_path, summary.to_json()).expect("write run summary");
    println!("  wrote {chrome} (open in chrome://tracing), {jsonl} and {summary_path}");

    println!("\nfull-scale (calibrated) version: `cargo run -p zlm-bench --bin repro table3`");
}
