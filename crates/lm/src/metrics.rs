//! Training metrics and reports.
//!
//! Besides the per-step/per-epoch records, this module carries the
//! fleet-metrics layer (DESIGN.md §13): [`StepObserver`] feeds each
//! rank's [`simgpu::MetricsRegistry`] on the trainer's hot path,
//! [`HealthMonitor`] watches per-rank busy time for stragglers, and
//! [`RunSummary`] is the byte-stable machine-readable run artifact the
//! `bench-diff` regression gate compares.

use crate::checkpoint::Checkpoint;
use crate::config::{MetricsConfig, TrainConfig};
use crate::exchange::{ExchangeStats, PhaseTimings};
use simgpu::{
    CounterId, CounterTrack, GaugeId, Histogram, HistogramId, MetricsRegistry, TraceLog,
    TrafficSnapshot,
};

/// Where one rank's simulated step time went, in integer picoseconds.
///
/// The trainer models a synchronous step: `T = max over ranks of
/// (modelled work + injected straggler delay)`, computed identically on
/// every rank from the α–β cost model (ring schedules and fault plans
/// are global knowledge, so no extra communication is needed). Each
/// rank then splits its own share of `T` into these buckets.
///
/// **Invariant** (asserted in `tests/trace_attribution.rs` and
/// `tests/schedule_overlap.rs`): the seven buckets sum to the step's
/// `sim_time_ps` *exactly*, on every rank — all arithmetic is integer
/// picoseconds, each α–β term quantised individually via
/// [`simgpu::secs_to_ps`], so there is no epsilon.
///
/// Wire time is split by interconnect tier, mirroring
/// [`simgpu::Tier`]: `wire_intra_ps` for node-local PCIe hops and
/// `wire_inter_ps` for Infiniband hops between nodes. Flat collectives
/// charge whichever tier the group occupies (intra when it fits in one
/// node, inter otherwise — the same switch [`simgpu::HardwareConfig`]'s
/// `ring_bandwidth` makes); hierarchical collectives split the two
/// tiers exactly. The legacy total is the
/// [`wire_ps`](TimeAttribution::wire_ps) method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimeAttribution {
    /// Local model compute plus gradient-application memory touches.
    pub compute_ps: u64,
    /// Collective latency terms plus this rank's exact wire bytes over
    /// node-local links (PCIe tier).
    pub wire_intra_ps: u64,
    /// Collective latency terms plus this rank's exact wire bytes over
    /// links between nodes (Infiniband tier).
    pub wire_inter_ps: u64,
    /// Time parked waiting for slower peers' *modelled work* — load
    /// imbalance inherent to the step (uneven ring shares).
    pub barrier_wait_ps: u64,
    /// Extra wait caused by peers' *injected* straggler delays. Zero on
    /// the straggler itself — skew is attributed to its victims.
    pub skew_ps: u64,
    /// This rank's own injected straggler delay.
    pub self_delay_ps: u64,
    /// Communication hidden under compute by the overlapped step
    /// schedule (`CommConfig::overlap`): wall-clock where this rank's
    /// compute and comm streams were *both* busy. Carved out of
    /// `compute_ps` — the wire buckets carry only the *exposed* comm
    /// time — so the seven buckets still sum to `sim_time_ps` exactly.
    /// Always zero when overlap is off.
    pub overlapped_ps: u64,
}

impl TimeAttribution {
    /// Total wire time across both tiers — the pre-split `wire_ps`
    /// bucket, kept as a method for display and downstream tooling.
    pub fn wire_ps(&self) -> u64 {
        self.wire_intra_ps + self.wire_inter_ps
    }

    /// Sum of all buckets — equals the step's `sim_time_ps` exactly.
    pub fn total_ps(&self) -> u64 {
        self.compute_ps
            + self.wire_intra_ps
            + self.wire_inter_ps
            + self.barrier_wait_ps
            + self.skew_ps
            + self.self_delay_ps
            + self.overlapped_ps
    }

    /// Elementwise accumulation (for per-run totals).
    pub fn accumulate(&mut self, other: &TimeAttribution) {
        self.compute_ps += other.compute_ps;
        self.wire_intra_ps += other.wire_intra_ps;
        self.wire_inter_ps += other.wire_inter_ps;
        self.barrier_wait_ps += other.barrier_wait_ps;
        self.skew_ps += other.skew_ps;
        self.self_delay_ps += other.self_delay_ps;
        self.overlapped_ps += other.overlapped_ps;
    }
}

/// Per-step measurements, collected on **every** rank (each rank's
/// [`TrainReport`] carries its own copy).
///
/// Synchronised fields — bit-identical across ranks: `step`,
/// `train_loss`, `sim_time_ps` / `sim_time_s`, and the exchanges'
/// `local_tokens` / `unique_global`. Rank-local fields — they differ
/// per rank: `dense_bytes` and the exchanges' `wire_bytes` (each rank's
/// exact ring-schedule share), `unique_local`, `peak_buffer_bytes`, the
/// wall-clock `timings`, and the `attribution` buckets (every rank
/// splits the *same* step time by its own work). Cross-rank agreement
/// of the synchronised fields is asserted in
/// `tests/training_end_to_end.rs`.
#[derive(Debug, Clone, Default)]
pub struct StepMetrics {
    /// Global step index.
    pub step: u64,
    /// Mean training loss across GPUs (nats).
    pub train_loss: f64,
    /// Simulated step time in integer picoseconds on the Table II
    /// hardware model — the synchronous-step `T` described on
    /// [`TimeAttribution`]. Identical on all ranks.
    pub sim_time_ps: u64,
    /// `sim_time_ps` in seconds (`× 1e-12`), kept for display and
    /// backward compatibility.
    pub sim_time_s: f64,
    /// This rank's exact split of the step time.
    pub attribution: TimeAttribution,
    /// Input-embedding exchange statistics.
    pub input_exchange: ExchangeStats,
    /// Output-embedding exchange statistics (word LM only).
    pub output_exchange: Option<ExchangeStats>,
    /// Bytes this rank moved for the dense (RNN/projection) ALLREDUCE
    /// (rank-local: ring chunk shares differ when the payload does not
    /// divide by `G`).
    pub dense_bytes: u64,
}

/// Per-epoch summary, collected on rank 0 only (validation is evaluated
/// there; replicas are identical, so the values are representative —
/// and `train_loss` / `sim_time_s` are synchronised quantities anyway).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch (nats).
    pub train_loss: f64,
    /// Validation perplexity at epoch end.
    pub valid_ppl: f64,
    /// Validation bits-per-token at epoch end.
    pub valid_bpc: f64,
    /// Simulated seconds for the epoch.
    pub sim_time_s: f64,
}

/// One elastic-recovery round: which ranks failed, how the world
/// shrank, and what was restored (recorded by [`crate::run`] under
/// [`crate::RunOptions::recovery`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryEvent {
    /// 1-based restart count (the first recovery is restart 1).
    pub restart: usize,
    /// Ranks (in the pre-shrink numbering) whose own failure triggered
    /// this recovery.
    pub failed_ranks: Vec<usize>,
    /// World size before the shrink.
    pub world_before: usize,
    /// World size after the shrink (`survivors.len()`).
    pub world_after: usize,
    /// Global step of the consistent checkpoint restored from, or
    /// `None` when no common snapshot existed (fresh restart).
    pub restored_step: Option<u64>,
    /// Completed steps discarded by rolling back to the restored cut
    /// (max survivor progress − restored step).
    pub steps_lost: u64,
    /// Wall-clock nanoseconds from observing the failure to relaunching
    /// the shrunken world. Backoff is *not* in here — it is simulated,
    /// not slept (see [`RecoveryEvent::backoff_ps`]).
    pub stall_ns: u64,
    /// Simulated backoff charged to this recovery: the policy's base
    /// backoff doubled per consecutive restart
    /// (`base · 2^(restart−1)`), converted to picoseconds. Recorded on
    /// the event instead of sleeping the calling thread.
    pub backoff_ps: u64,
    /// Restart attempts consumed so far, including this one — equals
    /// [`RecoveryEvent::restart`], carried explicitly so summaries
    /// need not infer it from event ordering.
    pub attempts: u32,
    /// The snapshot every survivor was restored from — starting a fresh
    /// run at the new world size from this checkpoint is bit-identical
    /// to the recovered run (asserted in `tests/elastic_recovery.rs`).
    pub restored_from: Option<Checkpoint>,
}

/// Result of a full training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch summaries.
    pub epochs: Vec<EpochMetrics>,
    /// Per-step detail.
    pub steps: Vec<StepMetrics>,
    /// Peak simulated device memory over all ranks (bytes).
    pub peak_mem_bytes: u64,
    /// Total communicator traffic over the run.
    pub traffic: TrafficSnapshot,
    /// Number of GPUs used.
    pub gpus: usize,
    /// Mean globally-unique words per step (`Ug`), if the unique path
    /// ran.
    pub mean_unique_global: f64,
    /// Run-total time attribution for this rank (sum of every step's
    /// [`StepMetrics::attribution`]).
    pub attribution: TimeAttribution,
    /// This rank's span trace, when tracing was enabled in
    /// `TrainConfig::trace`. Export with [`simgpu::chrome_trace_json`].
    pub trace: Option<TraceLog>,
    /// This rank's *simulated-timeline* step-schedule spans (compute,
    /// each comm op, apply, barrier wait), when tracing was enabled.
    /// Comm spans that overlap the compute span show the hidden
    /// communication as concurrent tracks; export with
    /// [`simgpu::sim_trace_json`] or
    /// [`TrainReport::schedule_trace_json`].
    pub sim_spans: Vec<simgpu::SimSpan>,
    /// Elastic-recovery rounds survived en route to this report (empty
    /// without [`crate::RunOptions::recovery`]).
    pub recoveries: Vec<RecoveryEvent>,
    /// This rank's metric registry, when `TrainConfig::metrics` was
    /// enabled. Merge across ranks (exactly — see [`simgpu::metrics`])
    /// for the fleet view, or read `fleet_metrics` on rank 0's report.
    pub metrics: Option<MetricsRegistry>,
    /// The merged fleet registry — every rank's [`TrainReport::metrics`]
    /// folded together by the driver. Present on rank 0's report only.
    pub fleet_metrics: Option<MetricsRegistry>,
    /// Health findings for the run. [`HealthEvent::Straggler`] entries
    /// are computed from synchronised quantities and identical on every
    /// rank; [`HealthEvent::TraceTruncated`] entries are rank-local
    /// (the driver folds all ranks' into rank 0's report).
    pub health: Vec<HealthEvent>,
}

impl TrainReport {
    /// Final validation perplexity.
    pub fn final_ppl(&self) -> f64 {
        self.epochs.last().map(|e| e.valid_ppl).unwrap_or(f64::NAN)
    }

    /// Total simulated seconds across epochs.
    pub fn total_sim_time(&self) -> f64 {
        self.epochs.iter().map(|e| e.sim_time_s).sum()
    }

    /// Total measured exchange wall-time per phase across all steps
    /// (input and output exchanges combined, rank 0's measurements).
    pub fn exchange_phase_totals(&self) -> PhaseTimings {
        let mut total = PhaseTimings::default();
        for s in &self.steps {
            total.accumulate(&s.input_exchange.timings);
            if let Some(out) = &s.output_exchange {
                total.accumulate(&out.timings);
            }
        }
        total
    }

    /// Serialises per-step telemetry as JSON Lines: one object per step,
    /// newline-terminated, fields in a fixed order (golden-tested in
    /// `tests/telemetry_golden.rs` so downstream tooling can rely on
    /// the schema). Attribution buckets are this rank's; `sim_time_ps`
    /// and `train_loss` are synchronised across ranks.
    pub fn steps_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.steps {
            let a = &s.attribution;
            out.push_str(&format!(
                "{{\"step\":{},\"train_loss\":{},\"sim_time_ps\":{},\
                 \"compute_ps\":{},\"wire_ps\":{},\"wire_intra_ps\":{},\
                 \"wire_inter_ps\":{},\"barrier_wait_ps\":{},\
                 \"skew_ps\":{},\"self_delay_ps\":{},\"overlapped_ps\":{},\
                 \"dense_bytes\":{},\
                 \"input_wire_bytes\":{},\"output_wire_bytes\":{},\"unique_global\":{}}}\n",
                s.step,
                json_f64(s.train_loss),
                s.sim_time_ps,
                a.compute_ps,
                a.wire_ps(),
                a.wire_intra_ps,
                a.wire_inter_ps,
                a.barrier_wait_ps,
                a.skew_ps,
                a.self_delay_ps,
                a.overlapped_ps,
                s.dense_bytes,
                s.input_exchange.wire_bytes,
                s.output_exchange.map(|e| e.wire_bytes).unwrap_or(0),
                s.input_exchange.unique_global,
            ));
        }
        out
    }

    /// Chrome-trace JSON of this rank's simulated step schedule
    /// ([`TrainReport::sim_spans`]): two tracks per rank (compute stream
    /// and comm stream) positioned in simulated picoseconds, so
    /// overlapped collectives render as spans running concurrently with
    /// compute. Empty-array JSON when tracing was off.
    pub fn schedule_trace_json(&self) -> String {
        simgpu::sim_trace_json(&self.sim_spans)
    }

    /// Mean wire bytes per step across the run.
    pub fn mean_step_bytes(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .steps
            .iter()
            .map(|s| {
                s.dense_bytes
                    + s.input_exchange.wire_bytes
                    + s.output_exchange.map(|e| e.wire_bytes).unwrap_or(0)
            })
            .sum();
        total as f64 / self.steps.len() as f64
    }

    /// Total wire bytes one step moved on this rank (dense ALLREDUCE
    /// share plus both exchanges).
    fn step_wire_bytes(s: &StepMetrics) -> u64 {
        s.dense_bytes
            + s.input_exchange.wire_bytes
            + s.output_exchange.map(|e| e.wire_bytes).unwrap_or(0)
    }

    /// Chrome-trace counter tracks derived from the per-step telemetry:
    /// wire bytes per step and the globally-unique word count `Ug` per
    /// step, one point per step. When a wall-clock trace is attached the
    /// points sit at each step's last recorded span end (so they align
    /// with the span tracks); otherwise timestamps fall back to the
    /// cumulative simulated clock (ps → ns). Render with
    /// [`simgpu::chrome_trace_json_with_counters`].
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        let mut wire = Vec::with_capacity(self.steps.len());
        let mut ug = Vec::with_capacity(self.steps.len());
        let mut sim_ps = 0u64;
        for s in &self.steps {
            sim_ps += s.sim_time_ps;
            let t_ns = self
                .trace
                .as_ref()
                .and_then(|log| {
                    log.events
                        .iter()
                        .filter(|e| e.step == s.step)
                        .map(|e| e.t_end_ns)
                        .max()
                })
                .unwrap_or(sim_ps / 1000);
            wire.push((t_ns, Self::step_wire_bytes(s)));
            ug.push((t_ns, s.input_exchange.unique_global as u64));
        }
        vec![
            CounterTrack {
                name: "wire_bytes_per_step",
                points: wire,
            },
            CounterTrack {
                name: "unique_global_per_step",
                points: ug,
            },
        ]
    }

    /// Builds the run's [`RunSummary`] artifact. Works with metrics on
    /// or off: step-time quantiles come from pooling the synchronised
    /// `sim_time_ps` of every recorded step into a fresh
    /// [`simgpu::Histogram`] (identical to the registry's
    /// `step_time_ps` series, which observed the same values),
    /// attribution totals are this rank's, wire bytes come from the
    /// shared traffic snapshot.
    pub fn run_summary(&self, cfg: &TrainConfig) -> RunSummary {
        let mut h = Histogram::new();
        let mut codec_raw = 0u64;
        let mut codec_enc = 0u64;
        for s in &self.steps {
            h.observe(s.sim_time_ps);
            codec_raw += s.input_exchange.reduce_raw_bytes;
            codec_enc += s.input_exchange.reduce_enc_bytes;
            if let Some(out) = &s.output_exchange {
                codec_raw += out.reduce_raw_bytes;
                codec_enc += out.reduce_enc_bytes;
            }
        }
        let a = &self.attribution;
        RunSummary {
            world: self.gpus,
            config_fingerprint: format!("{:016x}", config_fingerprint(cfg)),
            steps: self.steps.len() as u64,
            sim_time_ps: self.steps.iter().map(|s| s.sim_time_ps).sum(),
            step_p50_ps: h.quantile(0.50),
            step_p95_ps: h.quantile(0.95),
            step_p99_ps: h.quantile(0.99),
            step_max_ps: h.max().unwrap_or(0),
            compute_ps: a.compute_ps,
            wire_intra_ps: a.wire_intra_ps,
            wire_inter_ps: a.wire_inter_ps,
            barrier_wait_ps: a.barrier_wait_ps,
            skew_ps: a.skew_ps,
            self_delay_ps: a.self_delay_ps,
            overlapped_ps: a.overlapped_ps,
            wire_intra_bytes: self.traffic.intra_bytes(),
            wire_inter_bytes: self.traffic.inter_bytes(),
            codec_raw_bytes: codec_raw,
            codec_enc_bytes: codec_enc,
            codec_ratio_milli: if codec_raw == 0 {
                1000
            } else {
                ((codec_enc as u128 * 1000) / codec_raw as u128) as u64
            },
            train_loss: self.steps.last().map(|s| s.train_loss).unwrap_or(f64::NAN),
            dropped_spans: self.trace.as_ref().map(|t| t.dropped).unwrap_or(0),
            health_events: self.health.len() as u64,
            recoveries: self.recoveries.len() as u64,
            corruptions: self
                .health
                .iter()
                .filter(|e| matches!(e, HealthEvent::CheckpointCorrupt { .. }))
                .count() as u64,
        }
    }
}

/// FNV-1a hash of the config's canonical debug rendering — a stable
/// identity for "same run configuration" in [`RunSummary`] artifacts
/// (derive-`Debug` output is deterministic, and floats print in
/// shortest round-trip form).
pub fn config_fingerprint(cfg: &TrainConfig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed finding from the online health layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthEvent {
    /// One rank's busy time (modelled work + injected delay) exceeded
    /// `factor_milli/1000 ×` the world median for the configured number
    /// of consecutive steps. Fired once per rank per run, at the step
    /// that completed the streak.
    Straggler {
        /// The slow rank.
        rank: usize,
        /// Busy-time-to-median ratio in milli-units at detection
        /// (e.g. 2500 = 2.5× the median).
        factor_milli: u64,
        /// Global step at which the streak completed.
        step: u64,
    },
    /// A rank's trace ring overwrote `dropped` spans — the attached
    /// `TraceLog` is truncated and must not be treated as complete.
    TraceTruncated {
        /// Rank whose ring overflowed.
        rank: usize,
        /// Spans overwritten.
        dropped: u64,
    },
    /// The recovery scan found a damaged checkpoint copy (torn write,
    /// bit rot, or a manifested-but-missing file) and skipped past it.
    /// One event per damaged copy encountered.
    CheckpointCorrupt {
        /// Rank whose copy was damaged (pre-shrink numbering).
        rank: usize,
        /// Step of the damaged snapshot.
        step: u64,
    },
    /// One elastic-recovery round completed: the world shrank and
    /// training resumed from the best consistent checkpoint.
    Recovery {
        /// 1-based recovery round (matches `RecoveryEvent::restart`).
        round: usize,
        /// World size after the shrink.
        survivors: usize,
    },
}

/// Online straggler detection over per-rank busy time.
///
/// Fed once per step with the same rank-invariant `work_ps`/`delay_ps`
/// tables every rank already computes for the synchronous step time, so
/// detection needs no extra communication and every rank derives the
/// identical event list. A rank is flagged when its busy time stays
/// above `straggler_factor_milli/1000 ×` the world median (lower median
/// — robust to the straggler itself pulling the middle up in tiny
/// worlds) for `straggler_window` consecutive steps; each rank fires at
/// most once per run.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    factor_milli: u64,
    window: u32,
    streaks: Vec<u32>,
    flagged: Vec<bool>,
    scratch: Vec<u64>,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// A monitor for `world` ranks under `cfg`'s thresholds.
    pub fn new(world: usize, cfg: &MetricsConfig) -> Self {
        Self {
            factor_milli: cfg.straggler_factor_milli.max(1),
            window: cfg.straggler_window.max(1),
            streaks: vec![0; world],
            flagged: vec![false; world],
            scratch: Vec::with_capacity(world),
            events: Vec::new(),
        }
    }

    /// Observes one step's per-rank busy times (`work_ps[q] +
    /// delay_ps[q]`). Allocation-free after the first call.
    pub fn observe_step(&mut self, step: u64, work_ps: &[u64], delay_ps: &[u64]) {
        debug_assert_eq!(work_ps.len(), self.streaks.len());
        self.scratch.clear();
        self.scratch
            .extend(work_ps.iter().zip(delay_ps).map(|(&w, &d)| w + d));
        self.scratch.sort_unstable();
        let median = self.scratch[(self.scratch.len() - 1) / 2];
        if median == 0 {
            return;
        }
        for q in 0..work_ps.len() {
            let busy = work_ps[q] + delay_ps[q];
            let factor_milli = ((busy as u128 * 1000) / median as u128) as u64;
            if factor_milli >= self.factor_milli {
                self.streaks[q] += 1;
                if self.streaks[q] >= self.window && !self.flagged[q] {
                    self.flagged[q] = true;
                    self.events.push(HealthEvent::Straggler {
                        rank: q,
                        factor_milli,
                        step,
                    });
                }
            } else {
                self.streaks[q] = 0;
            }
        }
    }

    /// Records a damaged checkpoint copy found by the recovery scan.
    pub fn note_checkpoint_corrupt(&mut self, rank: usize, step: u64) {
        self.events
            .push(HealthEvent::CheckpointCorrupt { rank, step });
    }

    /// Records a completed elastic-recovery round.
    pub fn note_recovery(&mut self, round: usize, survivors: usize) {
        self.events.push(HealthEvent::Recovery { round, survivors });
    }

    /// Findings so far.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Consumes the monitor, returning its findings.
    pub fn into_events(self) -> Vec<HealthEvent> {
        self.events
    }
}

/// One step's inputs to [`StepObserver::on_step`] — everything the
/// trainer already has in hand at the end of a step.
#[derive(Debug)]
pub struct StepSample<'a> {
    /// Global step index.
    pub step: u64,
    /// The synchronised step time `T`.
    pub sim_time_ps: u64,
    /// This rank's attribution of `T`.
    pub attribution: &'a TimeAttribution,
    /// Wire bytes this rank moved this step (dense + exchanges).
    pub wire_bytes: u64,
    /// Globally-unique words this step (0 on the baseline path).
    pub unique_global: u64,
    /// Raw bytes of this step's codec-framed ALLREDUCE payloads.
    pub codec_raw_bytes: u64,
    /// The same payloads' encoded bytes (== raw when no codec).
    pub codec_enc_bytes: u64,
    /// Every rank's modelled work this step (rank-invariant table).
    pub work_ps: &'a [u64],
    /// Every rank's injected delay this step (rank-invariant table).
    pub delay_ps: &'a [u64],
    /// Wall-clock nanoseconds this rank spent parked in barrier waits
    /// this step (0 when wait tracking is off).
    pub barrier_wait_wall_ns: u64,
}

/// Per-rank metrics front-end for the trainer's step loop: owns the
/// rank's [`simgpu::MetricsRegistry`] and [`HealthMonitor`] behind one
/// `Option`, so the disabled path is a single branch per step (the
/// `exchange_steady/metrics_overhead` bench guards exactly this).
#[derive(Debug, Default)]
pub struct StepObserver {
    inner: Option<ObserverInner>,
}

#[derive(Debug)]
struct ObserverInner {
    registry: MetricsRegistry,
    monitor: HealthMonitor,
    h_step: HistogramId,
    h_compute: HistogramId,
    h_wire_intra: HistogramId,
    h_wire_inter: HistogramId,
    h_barrier: HistogramId,
    h_skew: HistogramId,
    h_self_delay: HistogramId,
    h_overlapped: HistogramId,
    h_wire_bytes: HistogramId,
    h_unique: HistogramId,
    h_wait_wall: HistogramId,
    c_steps: CounterId,
    c_wire_bytes: CounterId,
    c_codec_raw: CounterId,
    c_codec_enc: CounterId,
    g_world: GaugeId,
}

impl StepObserver {
    /// The disabled observer: every call is a no-op behind one branch.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// An observer for one rank of a `world`-rank run; disabled (and
    /// allocation-free) unless `cfg.enabled`.
    pub fn new(world: usize, cfg: &MetricsConfig) -> Self {
        if !cfg.enabled {
            return Self::off();
        }
        let mut registry = MetricsRegistry::new();
        let inner = ObserverInner {
            h_step: registry.histogram("step_time_ps"),
            h_compute: registry.histogram("compute_ps"),
            h_wire_intra: registry.histogram("wire_intra_ps"),
            h_wire_inter: registry.histogram("wire_inter_ps"),
            h_barrier: registry.histogram("barrier_wait_ps"),
            h_skew: registry.histogram("skew_ps"),
            h_self_delay: registry.histogram("self_delay_ps"),
            h_overlapped: registry.histogram("overlapped_ps"),
            h_wire_bytes: registry.histogram("step_wire_bytes"),
            h_unique: registry.histogram("unique_global"),
            h_wait_wall: registry.histogram("barrier_wait_wall_ns"),
            c_steps: registry.counter("steps_total"),
            c_wire_bytes: registry.counter("wire_bytes_total"),
            c_codec_raw: registry.counter("codec_raw_bytes_total"),
            c_codec_enc: registry.counter("codec_enc_bytes_total"),
            g_world: registry.gauge("world"),
            monitor: HealthMonitor::new(world, cfg),
            registry,
        };
        Self { inner: Some(inner) }
    }

    /// True when metrics are being collected.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one finished step. O(series) integer work, no
    /// allocation; a single branch when disabled.
    pub fn on_step(&mut self, s: &StepSample<'_>) {
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        let reg = &mut inner.registry;
        let a = s.attribution;
        reg.observe(inner.h_step, s.sim_time_ps);
        reg.observe(inner.h_compute, a.compute_ps);
        reg.observe(inner.h_wire_intra, a.wire_intra_ps);
        reg.observe(inner.h_wire_inter, a.wire_inter_ps);
        reg.observe(inner.h_barrier, a.barrier_wait_ps);
        reg.observe(inner.h_skew, a.skew_ps);
        reg.observe(inner.h_self_delay, a.self_delay_ps);
        reg.observe(inner.h_overlapped, a.overlapped_ps);
        reg.observe(inner.h_wire_bytes, s.wire_bytes);
        reg.observe(inner.h_unique, s.unique_global);
        reg.observe(inner.h_wait_wall, s.barrier_wait_wall_ns);
        reg.inc(inner.c_steps, 1);
        reg.inc(inner.c_wire_bytes, s.wire_bytes);
        reg.inc(inner.c_codec_raw, s.codec_raw_bytes);
        reg.inc(inner.c_codec_enc, s.codec_enc_bytes);
        inner.monitor.observe_step(s.step, s.work_ps, s.delay_ps);
    }

    /// Finalises the rank's registry: end-of-run gauges from the shared
    /// traffic snapshot (gauge merge is max, so globally-identical
    /// values fold idempotently across ranks) plus this rank's device
    /// peak, and a [`HealthEvent::TraceTruncated`] finding when the
    /// trace ring overwrote spans. Returns `(None, [])` when disabled.
    pub fn finish(
        self,
        world: usize,
        rank: usize,
        traffic: &TrafficSnapshot,
        peak_mem_bytes: u64,
        dropped_spans: u64,
    ) -> (Option<MetricsRegistry>, Vec<HealthEvent>) {
        let Some(mut inner) = self.inner else {
            return (None, Vec::new());
        };
        let reg = &mut inner.registry;
        reg.gauge_max(inner.g_world, world as u64);
        let g = reg.gauge("wire_intra_bytes");
        reg.gauge_max(g, traffic.intra_bytes());
        let g = reg.gauge("wire_inter_bytes");
        reg.gauge_max(g, traffic.inter_bytes());
        let g = reg.gauge("peak_mem_bytes");
        reg.gauge_max(g, peak_mem_bytes);
        let g = reg.gauge("dropped_spans");
        reg.gauge_max(g, dropped_spans);
        let mut events = inner.monitor.into_events();
        if dropped_spans > 0 {
            events.push(HealthEvent::TraceTruncated {
                rank,
                dropped: dropped_spans,
            });
        }
        (Some(inner.registry), events)
    }
}

/// The machine-readable run artifact: one flat record of what a run
/// was (world, config fingerprint) and what it measured (step-time
/// quantiles, attribution totals, wire bytes by tier, codec ratio).
///
/// [`to_json`](RunSummary::to_json) is byte-stable for identical
/// contents and [`from_json`](RunSummary::from_json) is its exact
/// inverse — encode→decode→encode is the identity on bytes
/// (property-tested). Two summaries are what the `bench-diff`
/// regression gate compares under tolerance rules.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// World size `G`.
    pub world: usize,
    /// Hex [`config_fingerprint`] of the run's `TrainConfig`.
    pub config_fingerprint: String,
    /// Steps recorded.
    pub steps: u64,
    /// Total simulated picoseconds across recorded steps.
    pub sim_time_ps: u64,
    /// Median step time (bucket upper bound, ≤ 12.5% relative error).
    pub step_p50_ps: u64,
    /// 95th-percentile step time.
    pub step_p95_ps: u64,
    /// 99th-percentile step time.
    pub step_p99_ps: u64,
    /// Exact maximum step time.
    pub step_max_ps: u64,
    /// Run-total compute picoseconds (this rank's attribution).
    pub compute_ps: u64,
    /// Run-total intra-node wire picoseconds.
    pub wire_intra_ps: u64,
    /// Run-total inter-node wire picoseconds.
    pub wire_inter_ps: u64,
    /// Run-total barrier-wait picoseconds.
    pub barrier_wait_ps: u64,
    /// Run-total skew picoseconds.
    pub skew_ps: u64,
    /// Run-total own-injected-delay picoseconds.
    pub self_delay_ps: u64,
    /// Run-total comm picoseconds hidden under compute.
    pub overlapped_ps: u64,
    /// Intra-node (PCIe) bytes over the whole run, all collectives.
    pub wire_intra_bytes: u64,
    /// Inter-node (Infiniband) bytes over the whole run.
    pub wire_inter_bytes: u64,
    /// Raw bytes of the codec-framed ALLREDUCE payloads.
    pub codec_raw_bytes: u64,
    /// Encoded bytes of the same payloads (== raw when no codec ran).
    pub codec_enc_bytes: u64,
    /// `enc/raw` in milli-units (1000 = no compression).
    pub codec_ratio_milli: u64,
    /// Final training loss (synchronised across ranks).
    pub train_loss: f64,
    /// Trace spans overwritten by the ring (0 when tracing was off).
    pub dropped_spans: u64,
    /// Health findings attached to the report.
    pub health_events: u64,
    /// Elastic-recovery rounds survived en route to this report.
    pub recoveries: u64,
    /// Damaged checkpoint copies the recovery scans skipped past
    /// ([`HealthEvent::CheckpointCorrupt`] findings).
    pub corruptions: u64,
}

/// Schema tag of the [`RunSummary`] JSON encoding. v2 appended the
/// durability fields (`recoveries`, `corruptions`); the parser rejects
/// v1 documents explicitly rather than guessing defaults.
pub const RUN_SUMMARY_SCHEMA: &str = "zlm.run_summary.v2";

impl RunSummary {
    /// Serialises to the canonical JSON encoding: fixed field order,
    /// two-space indent, no trailing newline. Byte-stable for identical
    /// contents (golden-tested in `tests/telemetry_golden.rs`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"world\": {},\n  \"config_fingerprint\": \"{}\",\n  \
             \"steps\": {},\n  \"sim_time_ps\": {},\n  \"step_p50_ps\": {},\n  \
             \"step_p95_ps\": {},\n  \"step_p99_ps\": {},\n  \"step_max_ps\": {},\n  \
             \"compute_ps\": {},\n  \"wire_intra_ps\": {},\n  \"wire_inter_ps\": {},\n  \
             \"barrier_wait_ps\": {},\n  \"skew_ps\": {},\n  \"self_delay_ps\": {},\n  \
             \"overlapped_ps\": {},\n  \"wire_intra_bytes\": {},\n  \"wire_inter_bytes\": {},\n  \
             \"codec_raw_bytes\": {},\n  \"codec_enc_bytes\": {},\n  \"codec_ratio_milli\": {},\n  \
             \"train_loss\": {},\n  \"dropped_spans\": {},\n  \"health_events\": {},\n  \
             \"recoveries\": {},\n  \"corruptions\": {}\n}}",
            RUN_SUMMARY_SCHEMA,
            self.world,
            self.config_fingerprint,
            self.steps,
            self.sim_time_ps,
            self.step_p50_ps,
            self.step_p95_ps,
            self.step_p99_ps,
            self.step_max_ps,
            self.compute_ps,
            self.wire_intra_ps,
            self.wire_inter_ps,
            self.barrier_wait_ps,
            self.skew_ps,
            self.self_delay_ps,
            self.overlapped_ps,
            self.wire_intra_bytes,
            self.wire_inter_bytes,
            self.codec_raw_bytes,
            self.codec_enc_bytes,
            self.codec_ratio_milli,
            json_f64(self.train_loss),
            self.dropped_spans,
            self.health_events,
            self.recoveries,
            self.corruptions,
        )
    }

    /// Strict inverse of [`RunSummary::to_json`]: parses the canonical
    /// encoding (any `"key": value` line order is accepted; values must
    /// be well-formed), so `from_json(s.to_json()).to_json()` is
    /// byte-identical to `s.to_json()`. Errors name the offending field.
    pub fn from_json(s: &str) -> Result<RunSummary, String> {
        let mut fields: Vec<(&str, &str)> = Vec::new();
        for line in s.lines() {
            let line = line.trim().trim_end_matches(',');
            if line == "{" || line == "}" || line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line: {line}"))?;
            let key = key.trim().trim_matches('"');
            fields.push((key, value.trim()));
        }
        let get = |name: &str| -> Result<&str, String> {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing field: {name}"))
        };
        let get_u64 = |name: &str| -> Result<u64, String> {
            get(name)?
                .parse::<u64>()
                .map_err(|e| format!("bad {name}: {e}"))
        };
        let schema = get("schema")?.trim_matches('"');
        if schema != RUN_SUMMARY_SCHEMA {
            return Err(format!("unknown schema: {schema}"));
        }
        let loss = match get("train_loss")? {
            "null" => f64::NAN,
            v => v
                .parse::<f64>()
                .map_err(|e| format!("bad train_loss: {e}"))?,
        };
        Ok(RunSummary {
            world: get_u64("world")? as usize,
            config_fingerprint: get("config_fingerprint")?.trim_matches('"').to_string(),
            steps: get_u64("steps")?,
            sim_time_ps: get_u64("sim_time_ps")?,
            step_p50_ps: get_u64("step_p50_ps")?,
            step_p95_ps: get_u64("step_p95_ps")?,
            step_p99_ps: get_u64("step_p99_ps")?,
            step_max_ps: get_u64("step_max_ps")?,
            compute_ps: get_u64("compute_ps")?,
            wire_intra_ps: get_u64("wire_intra_ps")?,
            wire_inter_ps: get_u64("wire_inter_ps")?,
            barrier_wait_ps: get_u64("barrier_wait_ps")?,
            skew_ps: get_u64("skew_ps")?,
            self_delay_ps: get_u64("self_delay_ps")?,
            overlapped_ps: get_u64("overlapped_ps")?,
            wire_intra_bytes: get_u64("wire_intra_bytes")?,
            wire_inter_bytes: get_u64("wire_inter_bytes")?,
            codec_raw_bytes: get_u64("codec_raw_bytes")?,
            codec_enc_bytes: get_u64("codec_enc_bytes")?,
            codec_ratio_milli: get_u64("codec_ratio_milli")?,
            train_loss: loss,
            dropped_spans: get_u64("dropped_spans")?,
            health_events: get_u64("health_events")?,
            recoveries: get_u64("recoveries")?,
            corruptions: get_u64("corruptions")?,
        })
    }
}

/// Finite floats print via `{}` (shortest round-trip form); non-finite
/// values become JSON `null` instead of the invalid bare `NaN`/`inf`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_totals_and_accumulates() {
        let a = TimeAttribution {
            compute_ps: 5,
            wire_intra_ps: 3,
            wire_inter_ps: 1,
            barrier_wait_ps: 3,
            skew_ps: 2,
            self_delay_ps: 1,
            overlapped_ps: 4,
        };
        assert_eq!(a.wire_ps(), 4);
        assert_eq!(a.total_ps(), 19);
        let mut sum = TimeAttribution::default();
        sum.accumulate(&a);
        sum.accumulate(&a);
        assert_eq!(sum.total_ps(), 38);
        assert_eq!(sum.compute_ps, 10);
        assert_eq!(sum.wire_intra_ps, 6);
        assert_eq!(sum.wire_inter_ps, 2);
        assert_eq!(sum.overlapped_ps, 8);
    }

    #[test]
    fn jsonl_escapes_non_finite_losses() {
        let mut r = TrainReport::default();
        r.steps.push(StepMetrics {
            train_loss: f64::NAN,
            ..Default::default()
        });
        let line = r.steps_jsonl();
        assert!(line.contains("\"train_loss\":null"));
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn report_aggregates() {
        let mut r = TrainReport::default();
        assert!(r.final_ppl().is_nan());
        r.epochs.push(EpochMetrics {
            epoch: 0,
            valid_ppl: 120.0,
            sim_time_s: 10.0,
            ..Default::default()
        });
        r.epochs.push(EpochMetrics {
            epoch: 1,
            valid_ppl: 80.0,
            sim_time_s: 9.0,
            ..Default::default()
        });
        assert_eq!(r.final_ppl(), 80.0);
        assert_eq!(r.total_sim_time(), 19.0);
    }

    #[test]
    fn mean_step_bytes() {
        let mut r = TrainReport::default();
        assert_eq!(r.mean_step_bytes(), 0.0);
        r.steps.push(StepMetrics {
            dense_bytes: 100,
            input_exchange: ExchangeStats {
                wire_bytes: 50,
                ..Default::default()
            },
            output_exchange: Some(ExchangeStats {
                wire_bytes: 30,
                ..Default::default()
            }),
            ..Default::default()
        });
        r.steps.push(StepMetrics {
            dense_bytes: 20,
            ..Default::default()
        });
        assert_eq!(r.mean_step_bytes(), 100.0);
    }

    #[test]
    fn health_monitor_names_the_slow_rank_after_the_window() {
        let cfg = MetricsConfig::on(); // 1.5× median, 3-step window
        let mut m = HealthMonitor::new(4, &cfg);
        let work = [100u64, 100, 100, 100];
        let slow_delay = [0u64, 0, 300, 0];
        m.observe_step(0, &work, &slow_delay);
        m.observe_step(1, &work, &slow_delay);
        assert!(m.events().is_empty(), "window not yet met");
        m.observe_step(2, &work, &slow_delay);
        assert_eq!(
            m.events(),
            &[HealthEvent::Straggler {
                rank: 2,
                factor_milli: 4000,
                step: 2
            }]
        );
        // Fires once per rank, even if the rank stays slow.
        m.observe_step(3, &work, &slow_delay);
        assert_eq!(m.events().len(), 1);
    }

    #[test]
    fn health_monitor_resets_streak_on_recovery() {
        let cfg = MetricsConfig::on();
        let mut m = HealthMonitor::new(2, &cfg);
        m.observe_step(0, &[100, 100], &[0, 200]);
        m.observe_step(1, &[100, 100], &[0, 200]);
        m.observe_step(2, &[100, 100], &[0, 0]); // recovered
        m.observe_step(3, &[100, 100], &[0, 200]);
        m.observe_step(4, &[100, 100], &[0, 200]);
        assert!(m.events().is_empty(), "streak must restart after recovery");
    }

    #[test]
    fn step_observer_off_is_inert_and_on_feeds_series() {
        let mut off = StepObserver::off();
        assert!(!off.enabled());
        let attr = TimeAttribution::default();
        off.on_step(&StepSample {
            step: 0,
            sim_time_ps: 1,
            attribution: &attr,
            wire_bytes: 0,
            unique_global: 0,
            codec_raw_bytes: 0,
            codec_enc_bytes: 0,
            work_ps: &[1],
            delay_ps: &[0],
            barrier_wait_wall_ns: 0,
        });
        let (reg, health) = off.finish(1, 0, &TrafficSnapshot::default(), 0, 0);
        assert!(reg.is_none() && health.is_empty());

        let mut on = StepObserver::new(2, &MetricsConfig::on());
        assert!(on.enabled());
        for step in 0..4u64 {
            on.on_step(&StepSample {
                step,
                sim_time_ps: 100 + step,
                attribution: &attr,
                wire_bytes: 64,
                unique_global: 7,
                codec_raw_bytes: 10,
                codec_enc_bytes: 5,
                work_ps: &[100, 100],
                delay_ps: &[0, 0],
                barrier_wait_wall_ns: 3,
            });
        }
        let (reg, health) = on.finish(2, 1, &TrafficSnapshot::default(), 555, 9);
        let reg = reg.expect("registry");
        assert_eq!(reg.find_counter("steps_total"), Some(4));
        assert_eq!(reg.find_counter("wire_bytes_total"), Some(256));
        assert_eq!(reg.find_counter("codec_enc_bytes_total"), Some(20));
        assert_eq!(reg.find_gauge("peak_mem_bytes"), Some(555));
        assert_eq!(reg.find_gauge("world"), Some(2));
        assert_eq!(reg.find_gauge("dropped_spans"), Some(9));
        let h = reg.find_histogram("step_time_ps").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(103));
        assert_eq!(
            health,
            vec![HealthEvent::TraceTruncated {
                rank: 1,
                dropped: 9
            }]
        );
    }

    #[test]
    fn run_summary_roundtrips_bytes() {
        let s = RunSummary {
            world: 48,
            config_fingerprint: "00ff00ff00ff00ff".into(),
            steps: 12,
            sim_time_ps: 999,
            step_p50_ps: 80,
            step_p95_ps: 95,
            step_p99_ps: 99,
            step_max_ps: 103,
            compute_ps: 1,
            wire_intra_ps: 2,
            wire_inter_ps: 3,
            barrier_wait_ps: 4,
            skew_ps: 5,
            self_delay_ps: 6,
            overlapped_ps: 7,
            wire_intra_bytes: 8,
            wire_inter_bytes: 9,
            codec_raw_bytes: 100,
            codec_enc_bytes: 50,
            codec_ratio_milli: 500,
            train_loss: 3.25,
            dropped_spans: 0,
            health_events: 1,
            recoveries: 2,
            corruptions: 1,
        };
        let j = s.to_json();
        let back = RunSummary::from_json(&j).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.to_json(), j, "encode→decode→encode is identity");
        // Non-finite losses encode as null and survive the round trip.
        let nan = RunSummary {
            train_loss: f64::NAN,
            ..s
        };
        let j = nan.to_json();
        assert!(j.contains("\"train_loss\": null"));
        assert_eq!(RunSummary::from_json(&j).unwrap().to_json(), j);
    }

    #[test]
    fn run_summary_parser_rejects_drift() {
        let s = RunSummary {
            world: 1,
            config_fingerprint: "0".into(),
            steps: 0,
            sim_time_ps: 0,
            step_p50_ps: 0,
            step_p95_ps: 0,
            step_p99_ps: 0,
            step_max_ps: 0,
            compute_ps: 0,
            wire_intra_ps: 0,
            wire_inter_ps: 0,
            barrier_wait_ps: 0,
            skew_ps: 0,
            self_delay_ps: 0,
            overlapped_ps: 0,
            wire_intra_bytes: 0,
            wire_inter_bytes: 0,
            codec_raw_bytes: 0,
            codec_enc_bytes: 0,
            codec_ratio_milli: 1000,
            train_loss: 0.0,
            dropped_spans: 0,
            health_events: 0,
            recoveries: 0,
            corruptions: 0,
        };
        let j = s.to_json();
        assert!(RunSummary::from_json(&j.replace("zlm.run_summary.v2", "v999")).is_err());
        assert!(RunSummary::from_json(&j.replace("\"steps\"", "\"stepz\"")).is_err());
        // The v1 schema (no durability fields) is rejected, not defaulted.
        assert!(
            RunSummary::from_json(&j.replace("zlm.run_summary.v2", "zlm.run_summary.v1")).is_err()
        );
    }

    #[test]
    fn health_monitor_note_methods_append_events() {
        let mut m = HealthMonitor::new(2, &MetricsConfig::on());
        m.note_checkpoint_corrupt(1, 8);
        m.note_recovery(1, 1);
        assert_eq!(
            m.into_events(),
            vec![
                HealthEvent::CheckpointCorrupt { rank: 1, step: 8 },
                HealthEvent::Recovery {
                    round: 1,
                    survivors: 1
                },
            ]
        );
    }

    #[test]
    fn run_summary_counts_recoveries_and_corruptions() {
        let mut r = TrainReport {
            gpus: 2,
            ..Default::default()
        };
        r.recoveries.push(RecoveryEvent::default());
        r.health
            .push(HealthEvent::CheckpointCorrupt { rank: 1, step: 4 });
        r.health.push(HealthEvent::Recovery {
            round: 1,
            survivors: 1,
        });
        let s = r.run_summary(&TrainConfig::default());
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.corruptions, 1);
        assert_eq!(s.health_events, 2);
    }

    #[test]
    fn counter_tracks_follow_steps() {
        let mut r = TrainReport::default();
        for i in 0..3u64 {
            r.steps.push(StepMetrics {
                step: i,
                sim_time_ps: 1_000_000,
                dense_bytes: 10 * (i + 1),
                input_exchange: ExchangeStats {
                    unique_global: 5,
                    wire_bytes: 1,
                    ..Default::default()
                },
                ..Default::default()
            });
        }
        let tracks = r.counter_tracks();
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].name, "wire_bytes_per_step");
        assert_eq!(tracks[0].points, vec![(1000, 11), (2000, 21), (3000, 31)]);
        assert_eq!(tracks[1].name, "unique_global_per_step");
        assert_eq!(tracks[1].points[0], (1000, 5));
    }

    #[test]
    fn run_summary_from_report_pools_step_times() {
        let mut r = TrainReport {
            gpus: 4,
            ..Default::default()
        };
        for i in 0..10u64 {
            r.steps.push(StepMetrics {
                step: i,
                sim_time_ps: 100 + i,
                train_loss: 2.0,
                ..Default::default()
            });
        }
        let cfg = TrainConfig::default();
        let s = r.run_summary(&cfg);
        assert_eq!(s.world, 4);
        assert_eq!(s.steps, 10);
        assert!(s.step_p50_ps <= s.step_p95_ps && s.step_p95_ps <= s.step_p99_ps);
        assert!(s.step_p99_ps <= s.step_max_ps);
        assert_eq!(s.step_max_ps, 109);
        assert_eq!(s.codec_ratio_milli, 1000, "no codec ⇒ ratio 1.000");
        assert_eq!(s.config_fingerprint.len(), 16);
        assert_eq!(
            s.config_fingerprint,
            format!("{:016x}", config_fingerprint(&cfg))
        );
    }
}
