//! Tier-1 acceptance for the tracing tentpole: every rank's
//! `TimeAttribution` buckets must sum *exactly* (integer picoseconds, no
//! epsilon) to its simulated step time, traced byte totals must equal
//! the traffic recorder's, and injected straggler skew must land on the
//! victims — never on the straggler itself.

mod common;

use simgpu::{FaultPlan, SpanKind};
use std::time::Duration;
use zipf_lm::{
    CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig, TrainConfig,
    TrainReport,
};

fn traced_cfg(gpus: usize) -> TrainConfig {
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
        trace: TraceConfig::on(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm: CommConfig::flat(),
    }
}

fn run(cfg: &TrainConfig, plan: &FaultPlan) -> Vec<TrainReport> {
    zipf_lm::run(cfg, &common::faulted(plan.clone()))
        .ranks
        .into_iter()
        .map(|r| r.expect("rank failed"))
        .collect()
}

/// Buckets sum to `sim_time_ps` on every rank and every step; the step
/// time itself is synchronised; run totals accumulate exactly; the sum
/// of traced bytes over ranks equals the communicator's own ledger.
#[test]
fn attribution_reconciles_exactly_at_world_2_and_4() {
    for gpus in [2usize, 4] {
        let cfg = traced_cfg(gpus);
        let reps = run(&cfg, &FaultPlan::none());
        assert_eq!(reps.len(), gpus);

        let mut traced_bytes = 0u64;
        for (r, rep) in reps.iter().enumerate() {
            assert!(!rep.steps.is_empty(), "rank {r} recorded no steps");
            let mut total = zipf_lm::TimeAttribution::default();
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
                total.accumulate(&step.attribution);
            }
            assert_eq!(
                rep.attribution, total,
                "rank {r}: report attribution != sum of step attributions"
            );

            let log = rep.trace.as_ref().expect("tracing was on");
            assert_eq!(log.rank, r as u32);
            assert_eq!(log.dropped, 0, "rank {r} overflowed the ring buffer");
            traced_bytes += log.total_bytes();
        }
        // Every byte the communicator charged appears on exactly one
        // rank's span events (and vice versa).
        assert_eq!(
            traced_bytes,
            reps[0].traffic.total_bytes(),
            "world {gpus}: traced bytes != traffic recorder total"
        );
    }
}

/// With a lossless codec enabled, trace events carry the *compressed*
/// byte counts: every rank's traced bytes still equal the traffic
/// recorder's ledger exactly, that total is strictly below the identity
/// run's, and `TimeAttribution` still sums to `sim_time_ps` with zero
/// tolerance — the codec's encode/decode picoseconds fold into the wire
/// buckets without breaking the exact decomposition.
#[test]
fn codec_traces_compressed_bytes_and_attribution_still_exact() {
    let gpus = 4usize;
    let identity = run(&traced_cfg(gpus), &FaultPlan::none());
    let identity_total = identity[0].traffic.total_bytes();
    for codec in simgpu::WireCodecId::lossless_ladder() {
        let mut cfg = traced_cfg(gpus);
        cfg.comm = cfg.comm.with_codec(codec);
        let reps = run(&cfg, &FaultPlan::none());
        let mut traced_bytes = 0u64;
        for (r, rep) in reps.iter().enumerate() {
            for (s, step) in rep.steps.iter().enumerate() {
                assert_eq!(
                    step.attribution.total_ps(),
                    step.sim_time_ps,
                    "{}: rank {r} step {s} buckets do not sum to sim_time_ps",
                    codec.name()
                );
                assert_eq!(
                    step.sim_time_ps,
                    reps[0].steps[s].sim_time_ps,
                    "{}: rank {r} step {s} step time not synchronised",
                    codec.name()
                );
            }
            let log = rep.trace.as_ref().expect("tracing was on");
            assert_eq!(log.dropped, 0);
            traced_bytes += log.total_bytes();
        }
        // Traced span bytes are the recorder's ledger — compressed
        // sizes flow through both, so they still agree to the byte.
        assert_eq!(
            traced_bytes,
            reps[0].traffic.total_bytes(),
            "{}: traced bytes != traffic recorder total",
            codec.name()
        );
        // And compression is visible end-to-end: strictly fewer bytes
        // than identity (every ladder member carries the index codec or
        // the gradient codec over these raw-f32 payloads).
        assert!(
            traced_bytes < identity_total,
            "{}: traced {traced_bytes} not below identity {identity_total}",
            codec.name()
        );
    }
}

/// With rank 1 straggling 40 ms/step (≫ the tens-of-µs modelled work),
/// the skew bucket is nonzero *only* on the victims, the self-delay
/// bucket only on the straggler, and the wall-clock trace shows the
/// matching `StragglerDelay` / `BarrierWait` spans.
#[test]
fn straggler_skew_lands_on_victims_only() {
    let gpus = 4usize;
    let straggler = 1usize;
    let cfg = traced_cfg(gpus);
    let plan = FaultPlan::none().straggle(straggler, Duration::from_millis(40));
    let reps = run(&cfg, &plan);
    let steps = reps[0].steps.len() as u64;
    assert!(steps > 0);

    for (r, rep) in reps.iter().enumerate() {
        // Per-step exactness holds under injected faults too.
        for step in &rep.steps {
            assert_eq!(step.attribution.total_ps(), step.sim_time_ps);
        }
        let a = &rep.attribution;
        let log = rep.trace.as_ref().expect("tracing was on");
        let delay_events = log
            .events
            .iter()
            .filter(|e| e.span == SpanKind::StragglerDelay)
            .count() as u64;
        if r == straggler {
            assert!(a.self_delay_ps > 0, "straggler lost its own delay bucket");
            assert_eq!(
                a.skew_ps, 0,
                "skew must be charged to victims, not rank {r}"
            );
            assert_eq!(delay_events, steps, "one StragglerDelay span per step");
        } else {
            assert_eq!(a.self_delay_ps, 0, "rank {r} was not delayed");
            assert!(
                a.skew_ps > 0,
                "rank {r} waited on a 40 ms straggler but recorded no skew"
            );
            assert_eq!(delay_events, 0, "rank {r} emitted a spurious delay span");
            // The victims really parked at the barrier: wall-clock wait
            // spans are present and in total comparable to the injected
            // delays (loose bound — scheduler noise).
            assert!(
                log.span_ns(SpanKind::BarrierWait) > 0,
                "rank {r} shows no barrier wait despite a 40 ms straggler"
            );
        }
    }
}
