//! Fleet-metrics acceptance: the RunSummary quantiles are ordered at
//! paper-scale worlds, the health monitor names the injected straggler
//! rank, and metrics off changes nothing — the observability contract
//! DESIGN.md §13 pins down.
//!
//! Training runs go through the same watchdog idiom as
//! `fault_injection.rs` / `pool_scaling.rs`: a metrics-induced deadlock
//! (e.g. wait-tracking interacting with the barrier) must fail fast.

mod common;

use common::{faulted, with_watchdog};
use simgpu::FaultPlan;
use std::time::Duration;
use zipf_lm::{
    run, train, CheckpointConfig, CommConfig, HealthEvent, Method, MetricsConfig, ModelKind,
    TraceConfig, TrainConfig,
};

/// Small-but-real shape that still finishes at world 192.
fn cfg(gpus: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Char { vocab: 32 },
        gpus,
        batch: 1,
        seq_len: 4,
        steps_per_epoch: 3,
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.95,
        method: Method::unique(),
        seed: 11,
        tokens: 60_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::on(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

fn assert_summary_shape(world: usize) {
    let c = cfg(world);
    let rep = with_watchdog(move || train(&cfg(world)).expect("metrics run"));
    let s = rep.run_summary(&c);
    assert_eq!(s.world, world);
    assert_eq!(s.steps, 3);
    // Quantiles are order statistics of the recorded step times:
    // ordered, and each one of the steps.
    assert!(s.step_p50_ps > 0, "world {world}: p50 must be positive");
    assert!(s.step_p50_ps <= s.step_p95_ps, "world {world}: p50 <= p95");
    assert!(s.step_p95_ps <= s.step_p99_ps, "world {world}: p95 <= p99");
    assert!(s.step_p99_ps <= s.step_max_ps, "world {world}: p99 <= max");
    assert!(
        s.step_max_ps <= s.sim_time_ps,
        "world {world}: one step cannot exceed the whole run"
    );
    for q in [s.step_p50_ps, s.step_p95_ps, s.step_p99_ps] {
        assert!(
            rep.steps.iter().any(|st| st.sim_time_ps == q),
            "world {world}: quantile {q} is not a recorded step time"
        );
    }
}

#[test]
fn run_summary_quantiles_ordered_at_world_4() {
    assert_summary_shape(4);
}

#[test]
fn run_summary_quantiles_ordered_at_world_48() {
    assert_summary_shape(48);
}

#[test]
fn run_summary_quantiles_ordered_at_world_192() {
    assert_summary_shape(192);
}

/// End-to-end straggler detection: inject a 2 ms/step delay on rank 1
/// of 4 and the health monitor must name exactly that rank, on every
/// rank's report (the medians are rank-invariant).
#[test]
fn health_monitor_names_injected_straggler_rank() {
    let mut c = cfg(4);
    c.model = ModelKind::Word { vocab: 200 };
    c.batch = 2;
    c.seq_len = 6;
    c.steps_per_epoch = 6;
    c.tokens = 30_000;
    let plan = FaultPlan::none().straggle(1, Duration::from_millis(2));
    let results = with_watchdog(move || run(&c, &faulted(plan)).ranks);
    for (r, res) in results.iter().enumerate() {
        let rep = res.as_ref().expect("rank report");
        let stragglers: Vec<_> = rep
            .health
            .iter()
            .filter_map(|e| match e {
                HealthEvent::Straggler {
                    rank, factor_milli, ..
                } => Some((*rank, *factor_milli)),
                _ => None,
            })
            .collect();
        assert_eq!(
            stragglers.len(),
            1,
            "rank {r}: exactly one straggler event, got {:?}",
            rep.health
        );
        let (flagged, factor_milli) = stragglers[0];
        assert_eq!(flagged, 1, "rank {r} must name the injected straggler");
        assert!(
            factor_milli >= 1500,
            "rank {r}: flagged factor {factor_milli} below threshold"
        );
    }
}

/// A clean uniform run must stay quiet: no straggler events, and with
/// tracing off no truncation events either.
#[test]
fn health_monitor_is_silent_without_a_straggler() {
    let rep = with_watchdog(|| train(&cfg(4)).expect("metrics run"));
    assert!(
        rep.health.is_empty(),
        "uniform run flagged health events: {:?}",
        rep.health
    );
}

/// `MetricsConfig::off()` (the default) leaves the report exactly as
/// before the subsystem existed: no health events, no barrier-wait
/// timing, and the run itself bit-identical to a metrics-on run.
#[test]
fn metrics_off_is_absent_and_does_not_perturb_training() {
    let (on, off) = with_watchdog(|| {
        let on = train(&cfg(4)).expect("metrics on");
        let mut c = cfg(4);
        c.metrics = MetricsConfig::off();
        let off = train(&c).expect("metrics off");
        (on, off)
    });
    assert!(off.health.is_empty());
    assert!(off.steps.iter().all(|s| s.barrier_wait_wall_ns == 0));
    // Observability must never touch the math or the simulated clock.
    assert_eq!(
        on.epochs[0].train_loss.to_bits(),
        off.epochs[0].train_loss.to_bits()
    );
    let total = |r: &zipf_lm::TrainReport| r.steps.iter().map(|s| s.sim_time_ps).sum::<u64>();
    assert_eq!(total(&on), total(&off));
}
