//! The simulated device's memory charge, pinned: every case's
//! `peak_mem_bytes`, and each exchange's `peak_buffer_bytes` for rank 0
//! and the last rank at the first and the last step, as literal
//! constants. The word LM runs the baseline, unique and full methods at
//! G = 1 / 3 / 8; one char run covers the model without an output
//! exchange. A change to how a step's buffers are counted either leaves
//! every byte here alone or names the one that moved.

use zipf_lm::{
    run, CheckpointConfig, CommConfig, ExchangeStats, Method, MetricsConfig, ModelKind, RunOptions,
    TraceConfig, TrainConfig, TrainReport,
};

const STEPS: usize = 3;

fn cfg(model: ModelKind, gpus: usize, method: Method) -> TrainConfig {
    TrainConfig {
        model,
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: STEPS,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method,
        seed: 11,
        tokens: 60_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

/// `[input, output]` exchange buffer bytes (0 without an output
/// exchange) at the first and the last step.
type Buffers = [[u64; 2]; 2];

/// `(peak_mem_bytes, [rank 0, last rank])`.
type Observed = (u64, [Buffers; 2]);

fn observe(ranks: &[TrainReport]) -> Observed {
    let buffers = |rep: &TrainReport| {
        let at = |s: usize| {
            let step = &rep.steps[s];
            let bytes = |x: Option<&ExchangeStats>| x.map_or(0, |x| x.peak_buffer_bytes);
            [
                bytes(Some(&step.input_exchange)),
                bytes(step.output_exchange.as_ref()),
            ]
        };
        [at(0), at(STEPS - 1)]
    };
    let last = ranks.last().expect("at least one rank");
    (ranks[0].peak_mem_bytes, [buffers(&ranks[0]), buffers(last)])
}

#[test]
fn device_charge_is_pinned_per_rank_and_step() {
    let word = ModelKind::Word { vocab: 300 };
    let mut cases = Vec::new();
    for method in [Method::baseline(), Method::unique(), Method::full()] {
        cases.extend([1, 3, 8].map(|g| cfg(word, g, method)));
    }
    cases.push(cfg(ModelKind::Char { vocab: 48 }, 3, Method::unique()));
    assert_eq!(cases.len(), WANT.len());
    let mut failed = Vec::new();
    for (cfg, (name, want)) in cases.iter().zip(WANT) {
        let ranks: Vec<TrainReport> = run(cfg, &RunOptions::default())
            .ranks
            .into_iter()
            .map(|r| r.expect("rank failed"))
            .collect();
        let got = observe(&ranks);
        if got != want {
            failed.push(format!("{name}: got {got:?}, want {want:?}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// `(case, (peak_mem_bytes, [rank 0, last rank] × [first, last step] ×
/// [input, output]))`, in the order the test builds the cases.
#[rustfmt::skip]
const WANT: [(&str, Observed); 10] = [
    ("word baseline G1", (672_608, [[[ 1_584, 10_032], [ 1_584, 10_032]], [[ 1_584, 10_032], [ 1_584, 10_032]]])),
    ("word baseline G3", (695_840, [[[ 4_752, 30_096], [ 4_752, 30_096]], [[ 4_752, 30_096], [ 4_752, 30_096]]])),
    ("word baseline G8", (753_920, [[[12_672, 80_256], [12_672, 80_256]], [[12_672, 80_256], [12_672, 80_256]]])),
    ("word unique G1",   (681_364, [[[ 2_648, 17_204], [ 2_908, 17_464]], [[ 2_648, 17_204], [ 2_908, 17_464]]])),
    ("word unique G3",   (693_084, [[[ 4_540, 26_904], [ 4_148, 27_680]], [[ 4_408, 27_168], [ 4_280, 27_680]]])),
    ("word unique G8",   (708_552, [[[ 6_572, 38_792], [ 7_332, 39_040]], [[ 6_440, 38_792], [ 7_464, 39_436]]])),
    ("word full G1",     (681_364, [[[ 2_648, 17_204], [ 2_908, 17_464]], [[ 2_648, 17_204], [ 2_908, 17_464]]])),
    ("word full G3",     (693_084, [[[ 4_540, 26_904], [ 4_148, 27_680]], [[ 4_408, 27_168], [ 4_280, 27_680]]])),
    ("word full G8",     (701_896, [[[ 6_572, 31_240], [ 7_332, 32_384]], [[ 6_440, 31_240], [ 7_464, 32_648]]])),
    ("char unique G3",   (317_180, [[[ 2_288,      0], [ 2_868,      0]], [[ 2_288,      0], [ 2_868,      0]]])),
];
