//! End-to-end training behaviour: the accuracy-preservation claims of
//! §V (Figures 5, 7, 8 and the compression-accuracy spot checks), run on
//! small configurations.

use zipf_lm::{
    run, train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, RunOptions,
    SeedStrategy, TraceConfig, TrainConfig,
};

fn base_cfg() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 300 },
        gpus: 2,
        batch: 4,
        seq_len: 8,
        steps_per_epoch: 0, // full shard
        epochs: 2,
        base_lr: 0.5,
        lr_decay: 0.9,
        method: Method::unique_seeded(),
        seed: 42,
        tokens: 40_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

#[test]
fn word_lm_perplexity_improves_over_epochs() {
    let mut cfg = base_cfg();
    cfg.epochs = 3;
    let rep = train(&cfg).expect("run");
    let ppls: Vec<f64> = rep.epochs.iter().map(|e| e.valid_ppl()).collect();
    assert!(
        ppls.last().unwrap() < ppls.first().unwrap(),
        "perplexity should improve: {ppls:?}"
    );
    // Better than the uniform-prediction bound by the end.
    assert!(*ppls.last().unwrap() < 300.0, "{ppls:?}");
}

#[test]
fn char_lm_perplexity_improves_over_epochs() {
    let mut cfg = base_cfg();
    cfg.model = ModelKind::Char { vocab: 64 };
    cfg.base_lr = 0.8;
    cfg.epochs = 3;
    let rep = train(&cfg).expect("run");
    let ppls: Vec<f64> = rep.epochs.iter().map(|e| e.valid_ppl()).collect();
    assert!(ppls.last().unwrap() < ppls.first().unwrap(), "{ppls:?}");
    assert!(*ppls.last().unwrap() < 64.0, "{ppls:?}");
}

#[test]
fn more_gpus_same_accuracy_regime() {
    // Figure 5/8's qualitative claim: scaling GPUs (with the lr rule)
    // lands in the same accuracy regime after the same epochs.
    let run = |g: usize| {
        let mut cfg = base_cfg();
        cfg.gpus = g;
        train(&cfg).expect("run").final_ppl()
    };
    let p2 = run(2);
    let p4 = run(4);
    let p8 = run(8);
    // Not exact equality (different effective batch), but same regime:
    // within 2× of each other and all improving on initial ~vocab ppl.
    for (label, p) in [("2", p2), ("4", p4), ("8", p8)] {
        assert!(p < 200.0, "{label} gpus: ppl {p}");
    }
    let max = p2.max(p4).max(p8);
    let min = p2.min(p4).min(p8);
    assert!(
        max / min < 2.5,
        "spread too wide: {p2:.1} / {p4:.1} / {p8:.1}"
    );
}

#[test]
fn compression_does_not_hurt_accuracy() {
    // §V-A: ppl 84.12 (with) vs 84.68 (without) — sub-1% difference.
    let mut cfg = base_cfg();
    cfg.method = Method::unique_seeded();
    let exact = train(&cfg).expect("run").final_ppl();
    cfg.method = Method::full();
    let compressed = train(&cfg).expect("run").final_ppl();
    let rel = (compressed - exact).abs() / exact;
    assert!(
        rel < 0.08,
        "compression changed ppl too much: {exact:.2} vs {compressed:.2}"
    );
}

#[test]
fn seeding_accuracy_ordering_matches_figure7() {
    // Figure 7: Zipf's-freq tracks per-GPU seeds; heavy sharing
    // (AllSame) must not be catastrophically worse on this small scale,
    // but PerGpu/ZipfFreq should be at least as good on average.
    let run = |s: SeedStrategy| {
        let mut cfg = base_cfg();
        cfg.gpus = 8;
        cfg.batch = 2;
        cfg.method = Method {
            unique: true,
            seeding: s,
            compression: None,
        };
        train(&cfg).expect("run").final_ppl()
    };
    let per_gpu = run(SeedStrategy::PerGpu);
    let zipf = run(SeedStrategy::ZipfFreq);
    let all_same = run(SeedStrategy::AllSame);
    // Zipf-freq within 25% of full diversity (the paper: "similar
    // perplexities as G seeds").
    assert!(
        (zipf - per_gpu).abs() / per_gpu < 0.25,
        "zipf {zipf:.1} vs per-gpu {per_gpu:.1}"
    );
    // All strategies still learn.
    for (l, p) in [("perGpu", per_gpu), ("zipf", zipf), ("same", all_same)] {
        assert!(p < 250.0, "{l}: {p}");
    }
}

#[test]
fn single_gpu_training_works() {
    let mut cfg = base_cfg();
    cfg.gpus = 1;
    let rep = train(&cfg).expect("run");
    assert!(rep.final_ppl().is_finite());
    assert_eq!(rep.traffic.allgather_bytes(), 0);
    assert_eq!(rep.traffic.allreduce_bytes(), 0);
}

#[test]
fn simulated_time_reported_and_positive() {
    let rep = train(&base_cfg()).expect("run");
    assert!(rep.total_sim_time() > 0.0);
    for s in &rep.steps {
        assert!(s.sim_time_ps > 0);
    }
}

#[test]
fn synchronized_step_metrics_agree_across_ranks() {
    // `StepMetrics` documents which fields are synchronised (identical
    // on every rank: replicas step in lockstep on the same global batch)
    // and which are rank-local. Pin the synchronised set bit-for-bit.
    let mut cfg = base_cfg();
    cfg.gpus = 4;
    cfg.steps_per_epoch = 5;
    cfg.epochs = 1;
    let reps: Vec<_> = run(&cfg, &RunOptions::default())
        .ranks
        .into_iter()
        .map(|r| r.expect("rank failed"))
        .collect();
    assert_eq!(reps.len(), 4);
    for rep in &reps[1..] {
        assert_eq!(rep.steps.len(), reps[0].steps.len());
        for (mine, r0) in rep.steps.iter().zip(&reps[0].steps) {
            assert_eq!(mine.step, r0.step);
            assert_eq!(mine.train_loss.to_bits(), r0.train_loss.to_bits());
            assert_eq!(mine.sim_time_ps, r0.sim_time_ps);
            assert_eq!(
                mine.input_exchange.local_tokens,
                r0.input_exchange.local_tokens
            );
            assert_eq!(
                mine.input_exchange.unique_global,
                r0.input_exchange.unique_global
            );
            let (a, b) = (&mine.output_exchange, &r0.output_exchange);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.local_tokens, b.local_tokens);
                assert_eq!(a.unique_global, b.unique_global);
            }
        }
    }
}

#[test]
fn lr_decay_applied_across_epochs() {
    // With aggressive decay the later epochs move less; just verify the
    // run is stable (no NaN/divergence) under decay extremes.
    let mut cfg = base_cfg();
    cfg.lr_decay = 0.5;
    cfg.epochs = 4;
    let rep = train(&cfg).expect("run");
    for e in &rep.epochs {
        assert!(e.train_loss.is_finite() && e.valid_ppl().is_finite());
    }
}
