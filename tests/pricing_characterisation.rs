//! The simulated clock's bit oracle for the pricing shapes no golden
//! artifact covers: a ragged world on the default 8-GPU nodes (flat and
//! two-tier), the F16 wire, a lossless codec under the overlapped
//! bucketed schedule, and the baseline's flat-priced row gather inside
//! a hierarchical config, and a straggled last rank, whose injected
//! delay sets the step time apart from the slowest critical path. Every
//! step's `sim_time_ps` and all seven
//! `TimeAttribution` buckets of rank 0 and of the last rank are literal
//! constants, so a change to how collectives are priced either leaves
//! them alone or shows exactly which picosecond moved. The same runs pin
//! all eight `TrafficSnapshot` fields of `TrainReport::traffic`, on rank
//! 0 and on the last rank, so a change to how bytes are booked shows
//! exactly which byte or op count moved.

use simgpu::{FaultPlan, TrafficSnapshot, WireCodecId};
use std::time::Duration;
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
    let straggled = RunOptions {
        faults: FaultPlan::none().straggle(WORLD - 1, Duration::from_millis(1)),
        ..RunOptions::default()
    };
    let cases: [(&str, TrainConfig, RunOptions, [Steps; 2], Traffic); 6] = [
        (
            "ragged flat",
            cfg(Method::unique(), CommConfig::flat()),
            RunOptions::default(),
            RAGGED_FLAT,
            RAGGED_FLAT_TRAFFIC,
        ),
        (
            "ragged two-tier",
            cfg(Method::unique(), hier),
            RunOptions::default(),
            RAGGED_TWO_TIER,
            RAGGED_TWO_TIER_TRAFFIC,
        ),
        (
            "f16 wire",
            cfg(Method::full(), hier),
            RunOptions::default(),
            F16_WIRE,
            F16_WIRE_TRAFFIC,
        ),
        (
            "lossless codec, overlapped 1 KiB buckets",
            cfg(
                Method::unique(),
                hier.with_codec(WireCodecId::Lossless).overlapped(1 << 10),
            ),
            RunOptions::default(),
            LOSSLESS_OVERLAPPED,
            LOSSLESS_OVERLAPPED_TRAFFIC,
        ),
        (
            "baseline row gather under a hierarchical config",
            cfg(Method::baseline(), hier),
            RunOptions::default(),
            BASELINE_HIERARCHICAL,
            BASELINE_HIERARCHICAL_TRAFFIC,
        ),
        (
            "ragged two-tier, last rank straggled 1 ms",
            cfg(Method::unique(), hier),
            straggled,
            RAGGED_TWO_TIER_STRAGGLED,
            RAGGED_TWO_TIER_TRAFFIC,
        ),
    ];
    for (name, cfg, opts, want, want_traffic) in cases {
        let ranks: Vec<TrainReport> = run(&cfg, &opts)
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
    [[712_637_498, 973_297, 452_149_000, 259_515_201,           0, 0, 0, 0],
     [712_055_926, 970_309, 451_695_750, 259_389_867,           0, 0, 0, 0]],
    [[712_637_498, 973_297, 119_118_000,           0, 592_546_201, 0, 0, 0],
     [712_055_926, 970_309, 119_062_000,           0, 592_023_617, 0, 0, 0]],
];

#[rustfmt::skip]
const RAGGED_TWO_TIER_STRAGGLED: [Steps; 2] = [
    [[1_120_091_297, 973_297, 452_149_000, 259_515_201, 0, 407_453_799,             0, 0],
     [1_120_032_309, 970_309, 451_695_750, 259_389_867, 0, 407_976_383,             0, 0]],
    [[1_120_091_297, 973_297, 119_118_000,           0, 0,           0, 1_000_000_000, 0],
     [1_120_032_309, 970_309, 119_062_000,           0, 0,           0, 1_000_000_000, 0]],
];

#[rustfmt::skip]
const F16_WIRE: [Steps; 2] = [
    [[664_906_010, 951_110, 414_604_500, 249_350_400,           0, 0, 0, 0],
     [664_310_803, 945_136, 414_139_000, 249_226_667,           0, 0, 0, 0]],
    [[664_906_010, 951_110, 114_362_000,           0, 549_592_900, 0, 0, 0],
     [664_310_803, 945_136, 114_306_000,           0, 549_059_667, 0, 0, 0]],
];

#[rustfmt::skip]
const LOSSLESS_OVERLAPPED: [Steps; 2] = [
    [[20_657_271_533, 126_294, 11_938_929_809, 8_717_368_427,              0, 0, 0, 847_003],
     [20_515_453_603, 123_306, 11_857_218_714, 8_657_264_580,              0, 0, 0, 847_003]],
    [[20_657_271_533, 126_294,  4_371_635_737,             0, 16_284_662_499, 0, 0, 847_003],
     [20_515_453_603, 123_306,  4_341_436_951,             0, 16_173_046_343, 0, 0, 847_003]],
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
    [6_252_632, 5_671_512,   581_120,   6,    29_832,    26_604,     3_228, 4];
#[rustfmt::skip]
const F16_WIRE_TRAFFIC: Traffic =
    [2_974_164, 2_697_428,   276_736,   6,    25_320,    22_628,     2_692, 4];
#[rustfmt::skip]
const LOSSLESS_OVERLAPPED_TRAFFIC: Traffic =
    [5_629_098, 5_108_194,   520_904, 287,    11_189,     9_976,     1_213, 4];
#[rustfmt::skip]
const BASELINE_HIERARCHICAL_TRAFFIC: Traffic =
    [4_639_592, 4_208_232,   431_360,   2, 2_555_520, 1_440_384, 1_115_136, 8];
