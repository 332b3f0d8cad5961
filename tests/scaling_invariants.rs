//! The paper's complexity claims, asserted against *measured* wire bytes
//! and buffer sizes across GPU sweeps: baseline Θ(G·K·D) vs uniqueness
//! Θ(G·K + Ug·D), plus the Ug ∝ (G·K)^0.64 law end-to-end through the
//! trainer, the perfmodel's full-scale invariants, and the trainer and
//! the perfmodel pricing their loads on one clock.

use perfmodel::schedule::{CommOp, StepClock, StepLoad, StepSchedule};
use perfmodel::{memory, CharScale, TechniqueStack, WordScale};
use simgpu::{secs_to_ps, CostModel, HardwareConfig};
use zipf::fit_power_law;
use zipf_lm::{
    run, train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, RunOptions,
    SeedStrategy, TraceConfig, TrainConfig, TrainReport,
};

fn cfg(gpus: usize, method: Method) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 3000 },
        gpus,
        batch: 8,
        seq_len: 16,
        steps_per_epoch: 4,
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.95,
        method,
        seed: 77,
        tokens: 120_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

#[test]
fn baseline_exchange_bytes_scale_linearly_with_g() {
    // Per-rank exchange wire bytes under baseline ∝ (G−1)·K·D.
    let grab = |g: usize| {
        let rep = train(&cfg(g, Method::baseline())).expect("run");
        rep.steps[0].input_exchange.wire_bytes as f64
    };
    let b2 = grab(2);
    let b8 = grab(8);
    let ratio = b8 / b2;
    assert!(
        (ratio - 7.0).abs() < 0.8,
        "ratio {ratio} (expect ≈ (8−1)/(2−1))"
    );
}

#[test]
fn unique_exchange_bytes_scale_sublinearly_vs_baseline() {
    // At 4× the GPUs, the unique path's wire-byte growth must be
    // clearly below the baseline's (whose per-rank bytes grow ∝ G−1).
    let grab = |m: Method, g: usize| {
        let rep = train(&cfg(g, m)).expect("run");
        rep.steps[0].input_exchange.wire_bytes as f64
    };
    let u_ratio = grab(Method::unique_seeded(), 8) / grab(Method::unique_seeded(), 2);
    let b_ratio = grab(Method::baseline(), 8) / grab(Method::baseline(), 2);
    assert!(
        u_ratio < 0.8 * b_ratio,
        "unique growth {u_ratio:.2} vs baseline growth {b_ratio:.2}"
    );
    // And Ug itself grows sublinearly: 4× tokens, < 3× unique words.
    let ug = |g: usize| {
        train(&cfg(g, Method::unique_seeded()))
            .expect("run")
            .mean_unique_global
    };
    let ug_ratio = ug(8) / ug(2);
    assert!(ug_ratio < 3.0, "Ug ratio {ug_ratio:.2}");
}

#[test]
fn unique_global_follows_power_law_through_trainer() {
    // Measure Ug end-to-end across a G sweep and fit Ug = a·(G·K)^α.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for g in [1usize, 2, 4, 8] {
        let c = cfg(g, Method::unique_seeded());
        let rep = train(&c).expect("run");
        xs.push((g * c.local_batch_tokens()) as f64);
        ys.push(rep.mean_unique_global);
    }
    let fit = fit_power_law(&xs, &ys).unwrap();
    assert!(
        (0.4..0.95).contains(&fit.exponent),
        "measured exponent {} (paper: 0.64)",
        fit.exponent
    );
    assert!(fit.r_squared > 0.95, "r2 {}", fit.r_squared);
}

#[test]
fn peak_memory_baseline_grows_ours_stays_flat() {
    // Compare *growth over the 2-GPU point*, which isolates the
    // exchange buffers from the G-independent model allocation.
    let peak = |g: usize, m: Method| train(&cfg(g, m)).expect("run").peak_mem_bytes as f64;
    let b_growth = peak(8, Method::baseline()) - peak(2, Method::baseline());
    let u_growth = peak(8, Method::unique_seeded()) - peak(2, Method::unique_seeded());
    assert!(
        b_growth > 100_000.0,
        "baseline growth too small: {b_growth}"
    );
    assert!(
        b_growth > 3.0 * u_growth.max(1.0),
        "baseline growth {b_growth} vs ours {u_growth}"
    );
}

#[test]
fn seeding_strategies_order_output_exchange_size() {
    // Fewer seeds ⇒ fewer unique sampled words ⇒ smaller output
    // exchange; the ordering must be monotone in the seed count.
    let ug = |s: SeedStrategy| {
        let rep = train(&cfg(
            8,
            Method {
                unique: true,
                seeding: s,
                compression: None,
            },
        ))
        .expect("run");
        rep.steps
            .iter()
            .filter_map(|st| st.output_exchange.map(|e| e.unique_global))
            .sum::<usize>() as f64
            / rep.steps.len() as f64
    };
    let all_same = ug(SeedStrategy::AllSame);
    let log10 = ug(SeedStrategy::Log10);
    let zipf = ug(SeedStrategy::ZipfFreq);
    let per_gpu = ug(SeedStrategy::PerGpu);
    assert!(
        all_same <= log10 && log10 <= zipf && zipf <= per_gpu,
        "ordering violated: same {all_same}, log10 {log10}, zipf {zipf}, perGpu {per_gpu}"
    );
    assert!(
        per_gpu > 1.5 * all_same,
        "spread too small to be meaningful"
    );
}

#[test]
fn compression_halves_wire_bytes() {
    let bytes = |m: Method| train(&cfg(4, m)).expect("run").traffic.total_bytes() as f64;
    let plain = bytes(Method::unique_seeded());
    let compressed = bytes(Method::full());
    let ratio = plain / compressed;
    // Index gathers stay 4-byte, so the ratio is below 2 but well above 1.
    assert!((1.3..2.05).contains(&ratio), "ratio {ratio}");
}

#[test]
fn perfmodel_memory_crossover_between_24_and_32() {
    let limit = HardwareConfig::titan_x_cluster().gpu_mem_bytes as f64 / 1e9;
    let (word, char_lm) = (WordScale::paper(), CharScale::paper());
    let base = TechniqueStack::Baseline;
    let baseline = [
        ("word", [24, 32].map(|g| word.memory_gb(g, base))),
        ("char", [24, 32].map(|g| char_lm.memory_gb(g, base))),
    ];
    for (name, [at24, at32]) in baseline {
        assert!(
            at24 < limit && at32 > limit,
            "{name} baseline: {at24} GB at 24 GPUs, {at32} at 32, limit {limit}"
        );
    }
    for g in [8usize, 16, 24, 32, 64, 128, 192] {
        assert!(
            word.memory_gb(g, TechniqueStack::Full) < 2.0,
            "ours must stay ~1.2 GB at {g} GPUs"
        );
    }
}

/// The cross-model check: a live unbucketed word run at G = 8 and
/// `perfmodel`'s prediction at the same dimensions meet in one clock.
/// (a) Each step's measured load, priced by `perfmodel::schedule`,
/// reproduces every rank's recorded clock bit for bit. (b) The step
/// `perfmodel` predicts carries the same compute (one FLOP count) and
/// runs the same collectives — labels, count and so every rank's α,
/// which counts hops, not bytes — over the same dense payload and
/// per-rank rows; where the two models differ is the Heaps-law `Ug`
/// against the measured one. (c) The exchanges `perfmodel` predicts for
/// memory gather the live run's rows at its row widths, and with the
/// measured `Ui` / `Ug` in place of the Heaps-law ones the one buffer
/// count, `perfmodel::memory::exchange_bytes`, is what every rank charged
/// its device for both exchanges at every step.
#[test]
fn measured_and_predicted_loads_price_on_one_clock() {
    let g = 8;
    let c = cfg(g, Method::unique());
    let ranks: Vec<TrainReport> = run(&c, &RunOptions::default())
        .ranks
        .into_iter()
        .map(|r| r.expect("rank completes"))
        .collect();
    let steps = &ranks[0].steps;
    let mc = c.model.word_config();
    let cost = CostModel::new(HardwareConfig::titan_x_cluster(), c.model.utilization());
    let flops = c.model.flops_per_step(c.local_batch_tokens());
    let mut live = StepSchedule {
        cost: &cost,
        xcfg: TechniqueStack::Unique.exchange(),
        gpus: g,
        gpn: cost.hardware().gpus_per_node,
        overlap: false,
        compute_ps: secs_to_ps(cost.compute_time(flops)),
        dense_elems: (steps[0].dense_raw_bytes / 4) as usize,
        dim: mc.embed_dim,
        out_dim: mc.proj_dim,
        delay_ps: vec![0; g],
        load: StepLoad::default(),
    };
    let mut ops = Vec::new();
    for (s, step) in steps.iter().enumerate() {
        live.load = step.load();
        let peaks = live.price_all(&mut ops);
        for (q, rank) in ranks.iter().enumerate() {
            let want = &rank.steps[s];
            let want = StepClock {
                sim_time_ps: want.sim_time_ps,
                attribution: want.attribution,
                wire_intra_alpha_ps: want.wire_intra_alpha_ps,
                wire_inter_alpha_ps: want.wire_inter_alpha_ps,
            };
            assert_eq!(
                live.clock(q, peaks, &mut ops, None),
                want,
                "step {s} rank {q}"
            );
        }
    }

    let model = WordScale {
        vocab: mc.vocab,
        embed_dim: mc.embed_dim,
        hidden: mc.hidden,
        proj_dim: mc.proj_dim,
        local_tokens: c.local_batch_tokens(),
        samples: mc.samples,
        cost: cost.clone(),
        ..WordScale::paper()
    };
    let predicted = model.schedule(g, TechniqueStack::Unique);
    assert_eq!(predicted.compute_ps, live.compute_ps, "compute");
    assert_eq!(predicted.dense_elems, live.dense_elems, "dense payload");
    let rows = |l: &StepLoad| {
        let out = l.output.expect("a word LM has an output exchange");
        (
            (l.input.local_tokens, out.local_tokens),
            (l.input.unique_global, out.unique_global),
        )
    };
    let (want_k, measured_ug) = rows(&live.load);
    let (got_k, heaps_ug) = rows(&predicted.load);
    assert_eq!(got_k, want_k, "rows per rank (input, output)");
    let (mut live_ops, mut predicted_ops) = (Vec::new(), Vec::new());
    for q in 0..g {
        let (_, live_alpha) = live.ops_for(&mut live_ops, q);
        let (_, predicted_alpha) = predicted.ops_for(&mut predicted_ops, q);
        let labels = |ops: &[CommOp]| ops.iter().map(|o| o.label).collect::<Vec<_>>();
        let why = format!(
            "rank {q}: Ug (input, output) measured {measured_ug:?}, Heaps-predicted {heaps_ug:?}"
        );
        assert_eq!(labels(&predicted_ops), labels(&live_ops), "{why}");
        assert_eq!(predicted_alpha, live_alpha, "{why}");
    }

    let exchanges = model.exchanges(g, TechniqueStack::Unique);
    let shapes: Vec<_> = exchanges
        .iter()
        .map(|&(n, dim, distinct)| (n, dim, distinct.is_some()))
        .collect();
    let gathered = |k: usize| (g * k) as u64;
    assert_eq!(
        shapes,
        [
            (gathered(want_k.0), mc.embed_dim, true),
            (gathered(want_k.1), mc.proj_dim, true)
        ],
        "gathered rows, row widths and the unique path (input, output)"
    );
    for (q, rank) in ranks.iter().enumerate() {
        for (s, step) in rank.steps.iter().enumerate() {
            let live = [Some(step.input_exchange), step.output_exchange];
            for (&(n, dim, heaps), x) in exchanges.iter().zip(live) {
                let x = x.expect("a word LM has an output exchange");
                let measured = (x.unique_local as u64, x.unique_global as u64);
                let why = format!(
                    "step {s} rank {q}: (Ui, Ug) measured {measured:?}, Heaps-predicted {heaps:?}"
                );
                assert_eq!(
                    memory::exchange_bytes(n, dim, Some(measured)),
                    x.peak_buffer_bytes,
                    "{why}"
                );
            }
        }
    }
}
