//! Tier-1 acceptance for the overlapped, bucketed step schedule: the
//! seven `TimeAttribution` buckets (now including `overlapped_ps`) must
//! sum *exactly* to `sim_time_ps` with overlap on — at paper-scale
//! worlds and under injected stragglers — the critical-path step time
//! must never exceed the serial schedule's, numerics must be untouched
//! by both bucketing and overlap, and the simulated-timeline exporter
//! must actually show comm spans running concurrently with compute.

mod common;

use simgpu::FaultPlan;
use std::time::Duration;
use zipf_lm::{
    run, sim_trace_json, train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind,
    SimStream, TraceConfig, TrainConfig, TrainReport,
};

/// Small enough to slice every payload in these configs into several
/// buckets, large enough to keep op counts reasonable.
const BUCKET: u64 = 4096;

/// Run slots for the paper-scale pooled worlds.
const POOL: usize = 8;

fn word_cfg(gpus: usize, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus,
        batch: 4,
        seq_len: 8,
        steps_per_epoch: 4,
        epochs: 1,
        base_lr: 0.4,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 7,
        tokens: 20_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

fn char_cfg(gpus: usize, comm: CommConfig) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Char { vocab: 32 },
        gpus,
        batch: 1,
        seq_len: 4,
        steps_per_epoch: 2,
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 11,
        tokens: 60_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

fn run_all(cfg: &TrainConfig, plan: &FaultPlan) -> Vec<TrainReport> {
    run(cfg, &common::faulted(plan.clone()))
        .ranks
        .into_iter()
        .map(|r| r.expect("rank failed"))
        .collect()
}

/// Exact seven-bucket reconciliation on every rank and step, with real
/// comm hidden under compute (`overlapped_ps > 0`) at world 4.
#[test]
fn overlapped_attribution_reconciles_exactly_at_world_4() {
    let cfg = word_cfg(4, CommConfig::flat().overlapped(BUCKET));
    let reps = run_all(&cfg, &FaultPlan::none());
    let mut hidden = 0u64;
    for (r, rep) in reps.iter().enumerate() {
        for (s, step) in rep.steps.iter().enumerate() {
            assert_eq!(
                step.attribution.total_ps(),
                step.sim_time_ps,
                "rank {r} step {s}: buckets {:?} do not sum to sim_time_ps",
                step.attribution,
            );
            assert_eq!(
                step.sim_time_ps, reps[0].steps[s].sim_time_ps,
                "rank {r} step {s}: synchronous step time differs from rank 0"
            );
            hidden += step.attribution.overlapped_ps;
        }
    }
    assert!(
        hidden > 0,
        "overlap on but no comm was hidden under compute"
    );
}

/// Same exactness at paper-scale worlds, multiplexed over `POOL` run
/// slots with the two-tier hierarchical schedule and overlap on.
#[test]
fn overlapped_attribution_reconciles_at_worlds_48_and_192() {
    for world in [48usize, 192] {
        let comm = CommConfig::hierarchical_pooled(POOL).overlapped(BUCKET);
        let rep = train(&char_cfg(world, comm)).expect("overlapped pooled run");
        let mut hidden = 0u64;
        for (s, step) in rep.steps.iter().enumerate() {
            assert_eq!(
                step.attribution.total_ps(),
                step.sim_time_ps,
                "world {world} step {s}: buckets {:?} do not sum to sim_time_ps",
                step.attribution,
            );
            hidden += step.attribution.overlapped_ps;
        }
        assert!(hidden > 0, "world {world}: no comm hidden under compute");
        assert!(
            rep.attribution.wire_inter_ps > 0,
            "world {world} spans nodes"
        );
    }
}

/// Injected stragglers do not break the exact identity: skew lands on
/// the victims, the self-delay on the straggler, and every rank's seven
/// buckets still sum to its step time.
#[test]
fn straggler_attribution_reconciles_with_overlap_on() {
    let straggler = 1usize;
    let cfg = word_cfg(4, CommConfig::flat().overlapped(BUCKET));
    let plan = FaultPlan::none().straggle(straggler, Duration::from_millis(40));
    let reps = run_all(&cfg, &plan);
    for (r, rep) in reps.iter().enumerate() {
        for step in &rep.steps {
            assert_eq!(step.attribution.total_ps(), step.sim_time_ps);
        }
        let a = &rep.attribution;
        if r == straggler {
            assert!(a.self_delay_ps > 0, "straggler lost its own delay bucket");
            assert_eq!(a.skew_ps, 0, "skew charged to the straggler itself");
        } else {
            assert_eq!(a.self_delay_ps, 0, "rank {r} was not delayed");
            assert!(a.skew_ps > 0, "rank {r} waited on the straggler");
        }
    }
}

/// Overlap is a pure timing-model change: with the same bucket size the
/// collectives move the same bytes in the same order, so losses are
/// bit-identical, and the critical-path step time never exceeds the
/// serial schedule's (same buckets, overlap off).
#[test]
fn overlap_never_increases_step_time_and_preserves_losses() {
    let serial_comm = CommConfig {
        bucket_bytes: BUCKET,
        ..CommConfig::flat()
    };
    let off = run_all(&word_cfg(4, serial_comm), &FaultPlan::none());
    let on = run_all(
        &word_cfg(4, CommConfig::flat().overlapped(BUCKET)),
        &FaultPlan::none(),
    );
    // Bucketed slicing itself moves no bits either: the unbucketed
    // default must coincide with both.
    let flat = run_all(&word_cfg(4, CommConfig::flat()), &FaultPlan::none());
    for ((f, o), n) in flat[0].steps.iter().zip(&off[0].steps).zip(&on[0].steps) {
        assert_eq!(f.train_loss.to_bits(), o.train_loss.to_bits());
        assert_eq!(f.train_loss.to_bits(), n.train_loss.to_bits());
        assert!(
            n.sim_time_ps <= o.sim_time_ps,
            "step {}: critical path {} exceeds serial {}",
            f.step,
            n.sim_time_ps,
            o.sim_time_ps
        );
        assert_eq!(
            o.attribution.overlapped_ps, 0,
            "overlap off must never hide comm"
        );
        // α is what the ops were priced at, not what stayed exposed:
        // the same buckets carry the same latency with overlap on,
        // and with overlap off it is a share of the wire bucket.
        let alpha = |s: &zipf_lm::StepMetrics| (s.wire_intra_alpha_ps, s.wire_inter_alpha_ps);
        assert_eq!(alpha(n), alpha(o), "step {}", f.step);
        assert!(alpha(o).0 > alpha(f).0, "every bucket pays its own α");
        assert!(alpha(o).0 <= o.attribution.wire_intra_ps);
        assert!(alpha(o).1 <= o.attribution.wire_inter_ps);
    }
}

/// At a wire-heavy paper-scale world the overlap is not just exact but
/// *useful*: total simulated time strictly drops versus the serial
/// schedule with identical buckets.
#[test]
fn world_48_overlap_strictly_reduces_sim_time() {
    let serial_comm = CommConfig {
        bucket_bytes: BUCKET,
        ..CommConfig::hierarchical_pooled(POOL)
    };
    let off = train(&char_cfg(48, serial_comm)).expect("serial run");
    let on = train(&char_cfg(
        48,
        CommConfig::hierarchical_pooled(POOL).overlapped(BUCKET),
    ))
    .expect("overlapped run");
    let total = |r: &TrainReport| r.steps.iter().map(|s| s.sim_time_ps).sum::<u64>();
    assert!(
        total(&on) < total(&off),
        "overlap did not reduce sim time: {} vs {}",
        total(&on),
        total(&off)
    );
    assert_eq!(
        off.epochs[0].train_loss.to_bits(),
        on.epochs[0].train_loss.to_bits(),
        "overlap changed numerics"
    );
}

/// The simulated-timeline exporter shows the overlap: comm-stream spans
/// run concurrently with the same step's compute span, and the Chrome
/// JSON declares the two tracks per rank.
#[test]
fn schedule_trace_shows_concurrent_spans() {
    let mut cfg = word_cfg(2, CommConfig::flat().overlapped(BUCKET));
    cfg.trace = TraceConfig::on();
    let reps = run_all(&cfg, &FaultPlan::none());
    let rep = &reps[0];
    assert!(!rep.sim_spans.is_empty(), "tracing produced no sim spans");

    let mut concurrent = false;
    for c in rep.sim_spans.iter().filter(|s| s.stream == SimStream::Comm) {
        if rep.sim_spans.iter().any(|k| {
            k.stream == SimStream::Compute
                && k.step == c.step
                && k.label == "compute"
                && c.t_start_ps < k.t_end_ps
                && k.t_start_ps < c.t_end_ps
        }) {
            concurrent = true;
            break;
        }
    }
    assert!(
        concurrent,
        "no comm span overlapped its step's compute span"
    );

    let json = sim_trace_json(&rep.sim_spans);
    assert!(json.contains("rank 0 compute"), "missing compute track");
    assert!(json.contains("rank 0 comm"), "missing comm track");
    assert!(json.contains("dense_allreduce"), "missing bucketed op span");
}
