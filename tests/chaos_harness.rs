//! Seeded chaos sweep: arbitrary fault sequences, no deadlocks, no
//! panics, typed errors only.
//!
//! Every seed expands ([`ChaosPlan::from_seed`]) into a composition of
//! kills, transient kills, stragglers, one-sided OOM, silent hangs,
//! in-flight wire corruption, and disk faults against the durable
//! checkpoint store. The sweep asserts, for every seed:
//!
//! * the run **terminates under the watchdog** — hangs are converted to
//!   [`TrainError::Timeout`] by the barrier deadline, never a deadlock;
//! * the outcome is `Ok` or a **typed** [`TrainError`] — a panic in any
//!   rank thread fails the test;
//! * the outcome is **deterministic**: the same seed run twice yields
//!   byte-identical terminal checkpoints (or an error of the identical
//!   kind — timeout attribution is a wall-clock race, see [`digest`]);
//! * when the plan cannot shrink the world and injects no time skew,
//!   a completed run is **bit-identical to the clean reference** —
//!   terminal checkpoint bytes and all;
//! * when it merely preserves the world (stragglers allowed), final
//!   params and per-epoch losses still match the clean reference
//!   bit-for-bit (only simulated-time fields may differ).

mod common;

use common::{checkpointing, recovering, with_watchdog, TempDir};
use simgpu::FaultPlan;
use std::fs;
use std::sync::Arc;
use std::time::Duration;
use zipf_lm::{
    run, BarrierDeadline, ChaosPlan, CheckpointConfig, CheckpointDir, CommConfig, MemoryBackend,
    Method, MetricsConfig, ModelKind, RecoveryPolicy, RunOptions, RunOutcome, TraceConfig,
    TrainConfig, TrainError,
};

const SEEDS: u64 = 32;
const WORLD: usize = 4;
const TOTAL_STEPS: u64 = 12;
const CKPT_EVERY: u64 = 2;

fn cfg() -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus: WORLD,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique_seeded(),
        seed: 7,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig {
            every_steps: CKPT_EVERY,
            keep_last: 8,
        },
        comm: CommConfig::flat(),
    }
}

/// One chaos run: expand the seed, arm the config, share a durable
/// directory (tagged, so hygiene checks can target their own runs),
/// run with recovery on.
fn run_chaos(seed: u64, tag: &str) -> (ChaosPlan, RunOutcome) {
    let plan = ChaosPlan::from_seed(seed, WORLD, TOTAL_STEPS, CKPT_EVERY);
    let mut c = cfg();
    plan.apply(&mut c);
    let tmp = TempDir::new(tag);
    let backend = Arc::new(
        CheckpointDir::open_with_faults(tmp.path(), c.checkpoint.keep_last, plan.disk.clone())
            .unwrap(),
    );
    let policy = RecoveryPolicy {
        max_restarts: WORLD,
        backoff: Duration::from_millis(5),
    };
    let opts = RunOptions {
        checkpoints: Some(backend),
        ..recovering(plan.faults.clone(), policy)
    };
    let outcome = run(&c, &opts);
    (plan, outcome)
}

/// Condensed, comparable form of an outcome: terminal checkpoint bytes
/// and epoch losses on success, the rendered error otherwise — a
/// `Timeout` whole: the lockstep driver names the lowest rank still
/// talking and the deadline's whole budget in simulated time, so which
/// rank it names and how long it waited are seed-controlled too.
fn digest(o: &RunOutcome) -> String {
    match o.clone().report() {
        Ok(report) => format!(
            "ok world={} fin={:?} losses={:?}",
            o.final_world,
            o.final_checkpoint.as_ref().map(|c| c.to_bytes()),
            report
                .epochs
                .iter()
                .map(|e| (e.train_loss.to_bits(), e.valid_ppl().to_bits()))
                .collect::<Vec<_>>(),
        ),
        Err(e) => format!("err {e:?}"),
    }
}

#[test]
fn chaos_sweep_terminates_cleanly_and_deterministically_on_every_seed() {
    let failures = with_watchdog(|| {
        // Clean reference: uninterrupted run at the sweep's world size.
        let c = cfg();
        let backend = Arc::new(MemoryBackend::new(c.checkpoint.keep_last));
        let res = run(&c, &checkpointing(backend, FaultPlan::none(), None));
        let clean = res.ranks[0].as_ref().expect("clean reference").clone();
        let clean_fin = res.final_checkpoint.expect("clean terminal snapshot");
        let clean_bits: Vec<u32> = clean_fin.params.iter().map(|v| v.to_bits()).collect();

        let mut failures: Vec<String> = Vec::new();
        let mut completed = 0usize;
        let mut errored = 0usize;
        for seed in 0..SEEDS {
            let (plan, outcome) = run_chaos(seed, "sweep");
            let (_, replay) = run_chaos(seed, "sweep");
            if digest(&outcome) != digest(&replay) {
                failures.push(format!("{}: outcome not deterministic", plan.describe()));
                continue;
            }
            match &outcome.clone().report() {
                Err(TrainError::Timeout { rank, waited_ps }) => {
                    errored += 1;
                    if !plan.expects_timeout() {
                        failures.push(format!(
                            "{}: unexpected timeout (rank {rank}, {waited_ps} ps)",
                            plan.describe()
                        ));
                    }
                }
                Err(_) => errored += 1, // typed error: acceptable outcome
                Ok(report) => {
                    completed += 1;
                    if plan.expects_timeout() && outcome.recoveries.is_empty() {
                        // A scheduled hang can only be bypassed when an
                        // earlier recovery dropped the hung slot.
                        failures.push(format!(
                            "{}: hang neither timed out nor was recovered around",
                            plan.describe()
                        ));
                    }
                    if plan.world_preserving() {
                        if outcome.final_world != WORLD {
                            failures.push(format!(
                                "{}: world shrank under a world-preserving plan",
                                plan.describe()
                            ));
                            continue;
                        }
                        let fin = outcome.final_checkpoint.as_ref().expect("terminal");
                        let bits: Vec<u32> = fin.params.iter().map(|v| v.to_bits()).collect();
                        if bits != clean_bits {
                            failures.push(format!(
                                "{}: params differ from clean reference",
                                plan.describe()
                            ));
                        }
                        for (a, b) in report.epochs.iter().zip(&clean.epochs) {
                            if a.train_loss.to_bits() != b.train_loss.to_bits()
                                || a.valid_ppl().to_bits() != b.valid_ppl().to_bits()
                            {
                                failures.push(format!(
                                    "{}: losses differ from clean reference",
                                    plan.describe()
                                ));
                            }
                        }
                        // No injected time skew ⇒ even the simulated
                        // clocks must agree: full byte identity.
                        let skewed = (0..WORLD).any(|r| plan.faults.straggler_delay(r).is_some());
                        if !skewed && fin.to_bytes() != clean_fin.to_bytes() {
                            failures.push(format!(
                                "{}: terminal checkpoint bytes differ from clean reference",
                                plan.describe()
                            ));
                        }
                    }
                }
            }
        }
        assert!(completed > 0, "no seed completed — generator degenerate");
        assert!(errored > 0, "no seed errored — generator degenerate");
        failures
    });
    assert!(
        failures.is_empty(),
        "chaos sweep failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn silent_peer_times_out_with_a_typed_error_instead_of_hanging() {
    // The distilled silent-peer scenario: one rank goes quiet, no one
    // aborts. Without a deadline this deadlocks by design; with one,
    // the run must return `TrainError::Timeout` naming a waiting rank.
    let err = with_watchdog(|| {
        let mut c = cfg();
        c.comm.deadline = Some(BarrierDeadline {
            timeout: Duration::from_millis(25),
            retries: 2,
        });
        let plan = FaultPlan::none().hang_rank(1, 4);
        run(&c, &recovering(plan, RecoveryPolicy::default()))
            .report()
            .expect_err("a silent peer cannot be recovered around")
    });
    match err {
        TrainError::Timeout { rank, waited_ps } => {
            assert_ne!(rank, 1, "the *waiting* rank reports, not the hung one");
            // Three slices of doubling backoff: 25 + 50 + 100 ms.
            assert!(
                waited_ps >= 175_000_000_000,
                "timeout fired before the full retry budget: {waited_ps} ps"
            );
        }
        other => panic!("expected TrainError::Timeout, got {other:?}"),
    }
}

#[test]
fn chaos_runs_leave_no_checkpoint_litter() {
    // Tmpdir hygiene: after a chaos run (including its injected disk
    // faults) drops its TempDir, nothing with our prefix survives.
    let marker = with_watchdog(|| {
        let (_, result) = run_chaos(3, "hygiene");
        drop(result);
        std::process::id()
    });
    let leftovers: Vec<_> = fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("zlm-ckpt-hygiene-") && n.contains(&format!("-{marker}-")))
        .collect();
    assert!(leftovers.is_empty(), "checkpoint litter: {leftovers:?}");
}
