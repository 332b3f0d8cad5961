//! The simulated clock's bit oracle for the pricing shapes no golden
//! artifact covers: a ragged world on the default 8-GPU nodes (flat and
//! two-tier), the F16 wire, a lossless codec under the overlapped
//! bucketed schedule, and the baseline's flat-priced row gather inside
//! a hierarchical config. Every step's `sim_time_ps` and all seven
//! `TimeAttribution` buckets of rank 0 and of the last rank are literal
//! constants, so a change to how collectives are priced either leaves
//! them alone or shows exactly which picosecond moved. The same runs pin
//! all eight `TrafficSnapshot` fields of `TrainReport::traffic`, on rank
//! 0 and on the last rank, so a change to how bytes are booked shows
//! exactly which byte or op count moved.

use simgpu::{TrafficSnapshot, WireCodecId};
use zipf_lm::{
    run, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, RunOptions, StepMetrics,
    TraceConfig, TrainConfig, TrainReport,
};

/// Ragged on the preset's 8-GPU nodes: 8 + 3.
const WORLD: usize = 11;

fn cfg(method: Method, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 300 },
        gpus: WORLD,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 2,
        epochs: 1,
        base_lr: 0.3,
        lr_decay: 0.95,
        method,
        seed: 7,
        tokens: 60_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

/// `[sim_time_ps, the seven buckets in TimeAttribution::BUCKETS order]`
/// per step.
type Steps = [[u64; 8]; 2];

fn observe(report: &TrainReport) -> Steps {
    let row = |s: &StepMetrics| {
        let b = s.attribution.buckets();
        [s.sim_time_ps, b[0], b[1], b[2], b[3], b[4], b[5], b[6]]
    };
    [row(&report.steps[0]), row(&report.steps[1])]
}

/// `TrainReport::traffic` in declaration order: ALLREDUCE bytes, intra,
/// inter, ops, then the same four for ALLGATHER.
type Traffic = [u64; 8];

fn traffic(t: &TrafficSnapshot) -> Traffic {
    [
        t.allreduce_bytes,
        t.allreduce_intra_bytes,
        t.allreduce_inter_bytes,
        t.allreduce_ops,
        t.allgather_bytes,
        t.allgather_intra_bytes,
        t.allgather_inter_bytes,
        t.allgather_ops,
    ]
}

#[test]
fn priced_picoseconds_are_pinned_on_shapes_no_golden_covers() {
    let hier = CommConfig::hierarchical_pooled(4);
    let cases: [(&str, TrainConfig, [Steps; 2], Traffic); 5] = [
        (
            "ragged flat",
            cfg(Method::unique(), CommConfig::flat()),
            RAGGED_FLAT,
            RAGGED_FLAT_TRAFFIC,
        ),
        (
            "ragged two-tier",
            cfg(Method::unique(), hier),
            RAGGED_TWO_TIER,
            RAGGED_TWO_TIER_TRAFFIC,
        ),
        (
            "f16 wire",
            cfg(Method::full(), hier),
            F16_WIRE,
            F16_WIRE_TRAFFIC,
        ),
        (
            "lossless codec, overlapped 1 KiB buckets",
            cfg(
                Method::unique(),
                hier.with_codec(WireCodecId::Lossless).overlapped(1 << 10),
            ),
            LOSSLESS_OVERLAPPED,
            LOSSLESS_OVERLAPPED_TRAFFIC,
        ),
        (
            "baseline row gather under a hierarchical config",
            cfg(Method::baseline(), hier),
            BASELINE_HIERARCHICAL,
            BASELINE_HIERARCHICAL_TRAFFIC,
        ),
    ];
    for (name, cfg, want, want_traffic) in cases {
        let ranks: Vec<TrainReport> = run(&cfg, &RunOptions::default())
            .ranks
            .into_iter()
            .map(|r| r.expect("rank failed"))
            .collect();
        let got = [observe(&ranks[0]), observe(&ranks[WORLD - 1])];
        assert_eq!(got, want, "{name}: [rank 0, rank {}]", WORLD - 1);
        let got = [&ranks[0], &ranks[WORLD - 1]].map(|r| traffic(&r.traffic));
        assert_eq!(
            got,
            [want_traffic; 2],
            "{name}: traffic of [rank 0, rank {}]",
            WORLD - 1
        );
    }
}

// Rank 0's two steps, then the last rank's.
#[rustfmt::skip]
const RAGGED_FLAT: [Steps; 2] = [
    [[2_436_724_229, 973_297, 2_435_750_932,             0,   0, 0, 0, 0],
     [2_436_504_175, 970_309, 2_435_533_332,             0, 534, 0, 0, 0]],
    [[2_436_724_229, 973_297,             0, 2_435_750_932,   0, 0, 0, 0],
     [2_436_504_175, 970_309,             0, 2_435_533_866,   0, 0, 0, 0]],
];

#[rustfmt::skip]
const RAGGED_TWO_TIER: [Steps; 2] = [
    [[835_053_315, 973_297, 451_785_000, 379_545_601,   2_749_417, 0, 0, 0],
     [834_781_859, 970_309, 451_344_000, 379_426_133,   3_041_417, 0, 0, 0]],
    [[835_053_315, 973_297, 139_140_000, 480_375_467, 214_564_551, 0, 0, 0],
     [834_781_859, 970_309, 139_084_000, 480_375_467, 214_352_083, 0, 0, 0]],
];

#[rustfmt::skip]
const F16_WIRE: [Steps; 2] = [
    [[812_202_493, 951_110, 414_331_500, 369_399_466,  27_520_417, 0, 0, 0],
     [811_927_803, 945_136, 413_890_500, 369_280_000,  27_812_167, 0, 0, 0]],
    [[812_202_493, 951_110, 134_384_000, 480_375_467, 196_491_916, 0, 0, 0],
     [811_927_803, 945_136, 134_328_000, 480_375_467, 196_279_200, 0, 0, 0]],
];

#[rustfmt::skip]
const LOSSLESS_OVERLAPPED: [Steps; 2] = [
    [[20_777_082_708, 126_294, 11_938_730_184, 8_837_379_227,              0, 0, 0, 847_003],
     [20_635_278_537, 123_306, 11_857_030_714, 8_777_277_514,              0, 0, 0, 847_003]],
    [[20_777_082_708, 126_294,  4_391_811_674,   480_135_467, 15_904_162_270, 0, 0, 847_003],
     [20_635_278_537, 123_306,  4_361_614_638,   480_135_467, 15_792_558_123, 0, 0, 847_003]],
];

#[rustfmt::skip]
const BASELINE_HIERARCHICAL: [Steps; 2] = [
    [[824_084_083, 1_260_016, 748_471_000,  74_353_067,           0, 0, 0, 0],
     [824_084_083, 1_260_016, 748_471_000,  74_353_067,           0, 0, 0, 0]],
    [[824_084_083, 1_260_016,  36_728_000, 615_488_000, 170_608_067, 0, 0, 0],
     [824_084_083, 1_260_016,  36_728_000, 615_488_000, 170_608_067, 0, 0, 0]],
];

// Each case's `TrainReport::traffic`, the same on every rank.
#[rustfmt::skip]
const RAGGED_FLAT_TRAFFIC: Traffic =
    [5_805_280, 4_749_324, 1_055_956,   6,    77_440,    43_648,    33_792, 4];
#[rustfmt::skip]
const RAGGED_TWO_TIER_TRAFFIC: Traffic =
    [6_252_632, 5_671_512,   581_120,   6,    77_440,    43_648,    33_792, 4];
#[rustfmt::skip]
const F16_WIRE_TRAFFIC: Traffic =
    [2_974_164, 2_697_428,   276_736,   6,    77_440,    43_648,    33_792, 4];
#[rustfmt::skip]
const LOSSLESS_OVERLAPPED_TRAFFIC: Traffic =
    [5_629_098, 5_108_194,   520_904, 287,    28_220,    15_999,    12_221, 4];
#[rustfmt::skip]
const BASELINE_HIERARCHICAL_TRAFFIC: Traffic =
    [4_639_592, 4_208_232,   431_360,   2, 2_555_520, 1_440_384, 1_115_136, 8];
