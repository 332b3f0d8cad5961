//! The end-to-end half of a workload: timed `train()` calls with every
//! observer off, the end-to-end metrics taken from them — each call's
//! times divided by the host's slowdown while it ran (`calib.rs`) — and
//! the output checks. Nothing here comes from a traced call.

use crate::calib::Calibrator;
use crate::spec::{Sibling, Workload, MIN_TIMED_REPS};
use crate::stats::{cpu_times, median, peak_rss_mb, summarize, Summary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use zipf_lm::{train, TrainConfig, TrainReport};

/// Uniqueness changes the order in which duplicate rows are summed in
/// f32, not what is summed: per-step losses of the two exchange paths
/// agree to rounding, not to the bit (the repository's own equivalence
/// tests allow 1e-5 on the updated tables; 2e-8 is what ten steps show).
const UNIQUE_LOSS_TOLERANCE: f64 = 1e-6;
/// Seeding and FP16 change which candidates are sampled and how
/// gradients round, so the full stack's final loss is not the
/// baseline's; over ten seeds it was at most 1.026 x it.
const FULL_STACK_LOSS_SLACK: f64 = 1.10;
/// Last-step loss over first-step loss beyond which a run has diverged.
const DIVERGED: f64 = 1.5;

/// Operations attempted and failed. Every `train()` call is one
/// operation; a failed output check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed with the results.
    pub failures: Vec<String>,
}

impl Ops {
    /// Records `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Runs `call` as one operation; an `Err` or a panic fails it.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        call: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(format!("{what}: {e}"));
                None
            }
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    pub fn absorb(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// One timed `train()` call.
pub struct Call {
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub report: TrainReport,
}

/// Calls `train(cfg)` once from this thread, timing wall and CPU.
pub fn timed_train(ops: &mut Ops, what: &str, cfg: &TrainConfig) -> Option<Call> {
    let (user0, sys0) = cpu_times();
    let t0 = Instant::now();
    let report = ops.attempt(what, || train(cfg))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let (user1, sys1) = cpu_times();
    Some(Call {
        wall_s,
        cpu_user_s: user1 - user0,
        cpu_sys_s: sys1 - sys0,
        report,
    })
}

/// What the output checks compare between two calls of one config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Per-step training losses, bit for bit.
    pub loss_bits: Vec<u64>,
    /// Σ `sim_time_ps` over the steps.
    pub sim_ps: u64,
    /// `traffic.total_bytes()`.
    pub wire_bytes: u64,
}

impl Fingerprint {
    pub fn of(report: &TrainReport) -> Self {
        Self {
            loss_bits: report
                .steps
                .iter()
                .map(|s| s.train_loss.to_bits())
                .collect(),
            sim_ps: sim_total_ps(report),
            wire_bytes: report.traffic.total_bytes(),
        }
    }
}

pub fn sim_total_ps(report: &TrainReport) -> u64 {
    report.steps.iter().map(|s| s.sim_time_ps).sum()
}

/// Checks any call's report can satisfy on its own.
pub fn check_report(ops: &mut Ops, what: &str, report: &TrainReport, steps: usize) {
    ops.check(
        report.steps.len() == steps && report.epochs.len() == 1,
        || {
            format!(
                "{what}: {} steps, {} epochs reported",
                report.steps.len(),
                report.epochs.len()
            )
        },
    );
    for s in &report.steps {
        ops.check(s.attribution.total_ps() == s.sim_time_ps, || {
            format!(
                "{what}: step {} attribution does not sum to sim_time_ps",
                s.step
            )
        });
        ops.check(s.train_loss.is_finite(), || {
            format!("{what}: step {} loss not finite", s.step)
        });
    }
}

/// A workload's own run must not diverge. This is a guard, not a bar
/// on learning: every step sees another batch, and on the exchange
/// workloads' four-cell model the last step's loss reached 1.17 x the
/// first's over ten seeds.
pub fn check_learning(ops: &mut Ops, what: &str, report: &TrainReport) {
    if let (Some(first), Some(last)) = (report.steps.first(), report.steps.last()) {
        ops.check(last.train_loss <= DIVERGED * first.train_loss, || {
            format!(
                "{what}: loss rose from {} to {}",
                first.train_loss, last.train_loss
            )
        });
    }
}

/// Checks `report` against `sibling`, the report of the workload's
/// sibling configuration.
pub fn check_sibling(ops: &mut Ops, kind: Sibling, report: &TrainReport, sibling: &TrainReport) {
    match kind {
        Sibling::UniqueMatches => {
            let gap = max_loss_gap(report, sibling);
            ops.check(gap <= UNIQUE_LOSS_TOLERANCE, || {
                format!("Method::unique() per-step losses differ from the baseline's by {gap:e}")
            })
        }
        Sibling::BaselineBoundsLoss => {
            let (ours, theirs) = (loss(report), loss(sibling));
            ops.check(ours <= FULL_STACK_LOSS_SLACK * theirs, || {
                format!("final loss {ours} above {FULL_STACK_LOSS_SLACK} x the baseline's {theirs}")
            })
        }
    }
}

/// Largest relative difference between two runs' per-step losses.
fn max_loss_gap(a: &TrainReport, b: &TrainReport) -> f64 {
    a.steps
        .iter()
        .zip(&b.steps)
        .map(|(x, y)| ((x.train_loss - y.train_loss) / x.train_loss).abs())
        .fold(0.0, f64::max)
}

/// The end-to-end result of one workload.
pub struct Timed {
    /// Metric values by name, in `spec::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Quartiles behind each host timing, by metric name.
    pub summaries: Vec<(&'static str, Summary)>,
    /// The host timings as the clock read them, before they were
    /// divided by the host's slowdown: medians, by metric name.
    pub raw: Vec<(&'static str, f64)>,
    /// Median of the calibration samples: how much slower than nominal
    /// the host ran over the window.
    pub host_slowdown: f64,
    pub reps: usize,
    /// True when `host_peak_rss_mb` covers this workload only.
    pub rss_is_per_workload: bool,
    pub ops: Ops,
}

/// A timed call and the host's slowdown while it ran: the mean of the
/// calibration samples taken just before and just after it.
struct Sample {
    call: Call,
    slowdown: f64,
}

impl Sample {
    fn wall_s(&self) -> f64 {
        self.call.wall_s / self.slowdown
    }

    fn cpu_s(&self) -> f64 {
        self.raw_cpu_s() / self.slowdown
    }

    fn raw_wall_s(&self) -> f64 {
        self.call.wall_s
    }

    fn raw_cpu_s(&self) -> f64 {
        self.call.cpu_user_s + self.call.cpu_sys_s
    }
}

fn column(samples: &[Sample], of: fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(of).collect()
}

/// Runs the end-to-end half of `w`: one discarded warm-up call, cycles
/// of a one-step call and an S-step call for `seconds`, a calibration
/// sample between any two calls, then the reference-world call behind
/// `sim_weak_scaling_ratio`.
pub fn run(w: &Workload, seed: u64, seconds: u64, rss_is_per_workload: bool) -> Timed {
    let mut ops = Ops::default();
    let cfg = w.config(seed);
    let setup_cfg = TrainConfig {
        steps_per_epoch: 1,
        ..cfg.clone()
    };
    let mut calibrator = Calibrator::new();

    // Warm-up: the allocator and page cache settle; results discarded.
    timed_train(&mut ops, "warm-up call", &setup_cfg);
    calibrator.slowdown();

    // Closed loop, one call at a time, for the measuring window. Each
    // cycle is a one-step call — set-up: corpus, vocabulary, split,
    // replica init, rank spawn, the cold first step, end-of-epoch
    // validation, join — and then an S-step call, so both kinds of
    // sample are spread over the same stretch of host time.
    let window = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut setups: Vec<Sample> = Vec::new();
    let mut calls: Vec<Sample> = Vec::new();
    let mut slowdowns = vec![calibrator.slowdown()];
    while calls.len() < MIN_TIMED_REPS || started.elapsed() < window {
        let mut sample = |what: &str, cfg: &TrainConfig| {
            let call = timed_train(&mut ops, what, cfg)?;
            let before = slowdowns[slowdowns.len() - 1];
            slowdowns.push(calibrator.slowdown());
            let slowdown = (before + slowdowns[slowdowns.len() - 1]) / 2.0;
            Some(Sample { call, slowdown })
        };
        let (Some(setup), Some(call)) = (
            sample("set-up call", &setup_cfg),
            sample("timed call", &cfg),
        ) else {
            break;
        };
        setups.push(setup);
        calls.push(call);
    }
    let peak_rss = peak_rss_mb();

    let reference = timed_train(&mut ops, "reference-world call", &w.ref_config(seed));

    let mut timed = Timed {
        metrics: Vec::new(),
        summaries: Vec::new(),
        raw: Vec::new(),
        host_slowdown: median(&slowdowns),
        reps: calls.len(),
        rss_is_per_workload,
        ops,
    };
    let (Some(first), Some(reference)) = (calls.first(), reference.as_ref()) else {
        return timed;
    };
    let ops = &mut timed.ops;

    // Output checks.
    let want = Fingerprint::of(&first.call.report);
    check_learning(ops, "timed calls", &first.call.report);
    for (i, s) in calls.iter().enumerate() {
        check_report(ops, &format!("timed call {i}"), &s.call.report, w.steps);
        ops.check(Fingerprint::of(&s.call.report) == want, || {
            format!("timed call {i}: losses, sim time or wire bytes differ from call 0")
        });
    }
    for (i, s) in setups.iter().enumerate() {
        check_report(ops, &format!("set-up call {i}"), &s.call.report, 1);
        ops.check(
            Fingerprint::of(&s.call.report).loss_bits.first() == want.loss_bits.first(),
            || format!("set-up call {i}: first-step loss differs from the timed calls'"),
        );
    }
    check_report(ops, "reference-world call", &reference.report, w.steps);
    if cfg.gpus > simgpu::HardwareConfig::titan_x_cluster().gpus_per_node {
        ops.check(first.call.report.traffic.inter_bytes() > 0, || {
            "a multi-node world moved no inter-node bytes".to_string()
        });
    }

    // End-to-end metrics: medians over the window of times divided by
    // the host's slowdown while each call ran.
    let steps = w.steps as f64;
    let tokens_per_call = (cfg.global_batch_tokens() * w.steps) as f64;
    let setup = summarize(&column(&setups, Sample::wall_s));
    let wall = summarize(&column(&calls, Sample::wall_s));
    let cpu = summarize(&column(&calls, Sample::cpu_s));
    let per_step = |call_s: f64, setup_s: f64| (call_s - setup_s) / (steps - 1.0) * 1e3;
    let report = &first.call.report;
    timed.metrics = vec![
        ("setup_s", setup.median),
        ("step_ms", per_step(wall.median, setup.median)),
        ("tokens_per_s", tokens_per_call / wall.median),
        ("cpu_s", cpu.median),
        ("host_peak_rss_mb", peak_rss),
        ("final_train_loss", loss(report)),
        (
            "sim_wire_kb_per_step_per_gpu",
            report.traffic.total_bytes() as f64 / (steps * cfg.gpus as f64) / 1024.0,
        ),
        (
            "sim_peak_mem_mb",
            report.peak_mem_bytes as f64 / (1024.0 * 1024.0),
        ),
        (
            "sim_weak_scaling_ratio",
            sim_total_ps(report) as f64 / sim_total_ps(&reference.report) as f64,
        ),
    ];
    timed.summaries = vec![
        ("setup_s", setup),
        (
            "step_ms",
            Summary {
                median: per_step(wall.median, setup.median),
                p25: per_step(wall.p25, setup.median),
                p75: per_step(wall.p75, setup.median),
                samples: wall.samples,
            },
        ),
        (
            "tokens_per_s",
            Summary {
                median: tokens_per_call / wall.median,
                p25: tokens_per_call / wall.p75,
                p75: tokens_per_call / wall.p25,
                samples: wall.samples,
            },
        ),
        ("cpu_s", cpu),
    ];
    let raw_setup = median(&column(&setups, Sample::raw_wall_s));
    let raw_wall = median(&column(&calls, Sample::raw_wall_s));
    timed.raw = vec![
        ("setup_s", raw_setup),
        ("step_ms", per_step(raw_wall, raw_setup)),
        ("tokens_per_s", tokens_per_call / raw_wall),
        ("cpu_s", median(&column(&calls, Sample::raw_cpu_s))),
    ];
    for (name, value) in &timed.metrics {
        timed.ops.check(value.is_finite() && *value > 0.0, || {
            format!("{name} = {value} is not a positive finite number")
        });
    }
    timed
}

/// Mean training loss of the (only) epoch.
fn loss(report: &TrainReport) -> f64 {
    report.epochs.last().map_or(f64::NAN, |e| e.train_loss)
}
