//! Training metrics and reports.
//!
//! [`StepMetrics`] is the one record the step loop writes — once per
//! step per rank, deterministic but for its wall-clock fields — and
//! everything downstream is a pure function of a rank's
//! `&[StepMetrics]` (DESIGN.md §13 tabulates the folds and who runs
//! them): the straggler findings ([`stragglers`], over all ranks'
//! records at once), the run totals on [`TrainReport`], and
//! [`RunSummary`], the one run roll-up — the byte-stable
//! machine-readable artifact the `bench-diff` regression gate compares.

use crate::checkpoint::Checkpoint;
use crate::config::TrainConfig;
use crate::exchange::{ExchangeStats, PhaseTimings};
use crate::schedule::{ExchangeLoad, StepLoad};
pub use perfmodel::schedule::TimeAttribution;
use simgpu::{CounterTrack, TraceLog, TrafficSnapshot};

/// Per-step measurements, collected on **every** rank (each rank's
/// [`TrainReport`] carries its own copy) — the only telemetry the step
/// loop writes; health findings, run totals and summaries are folds
/// over these records.
///
/// Synchronised fields — bit-identical across ranks: `step`,
/// `train_loss`, `sim_time_ps`, `dense_raw_bytes` /
/// `dense_enc_bytes`, and the exchanges' `local_tokens` /
/// `unique_global`. Rank-local fields — they differ per rank:
/// `dense_bytes` and the exchanges' `wire_bytes` (each rank's exact
/// ring-schedule share), `unique_local`, `peak_buffer_bytes`, the
/// wall-clock `timings` and `barrier_wait_wall_ns`, and the
/// `attribution` buckets (every rank splits the *same* step time by its
/// own work). Cross-rank agreement of the synchronised fields is
/// asserted in `tests/training_end_to_end.rs`.
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
    /// This rank's exact split of the step time.
    pub attribution: TimeAttribution,
    /// Of the intra-tier wire time this rank's collectives were
    /// *priced* at this step, the hop-latency (α) part; the rest is
    /// byte time (β) and, under a codec, codec compute. Priced, not
    /// exposed: with overlap off it is a share of
    /// `attribution.wire_intra_ps`, with overlap on some of it may be
    /// hidden under compute.
    pub wire_intra_alpha_ps: u64,
    /// The same for the inter-node tier.
    pub wire_inter_alpha_ps: u64,
    /// Input-embedding exchange statistics.
    pub input_exchange: ExchangeStats,
    /// Output-embedding exchange statistics (word LM only).
    pub output_exchange: Option<ExchangeStats>,
    /// Bytes this rank moved for the dense (RNN/projection) ALLREDUCE
    /// (rank-local: ring chunk shares differ when the payload does not
    /// divide by `G`).
    pub dense_bytes: u64,
    /// Raw payload bytes of the dense ALLREDUCE: elements × the wire
    /// format's element size.
    pub dense_raw_bytes: u64,
    /// The same payload as encoded by the wire format (`==
    /// dense_raw_bytes` when no gradient codec is active).
    pub dense_enc_bytes: u64,
    /// Wall-clock nanoseconds this rank spent parked in barrier waits
    /// this step (0 unless tracing or metrics turned wait tracking on).
    pub barrier_wait_wall_ns: u64,
}

impl StepMetrics {
    /// The step's one or two embedding exchanges.
    fn exchanges(&self) -> impl Iterator<Item = &ExchangeStats> {
        std::iter::once(&self.input_exchange).chain(&self.output_exchange)
    }

    /// Total wire bytes this rank moved this step (dense ALLREDUCE
    /// share plus both exchanges).
    pub fn wire_bytes(&self) -> u64 {
        self.dense_bytes + self.exchanges().map(|e| e.wire_bytes).sum::<u64>()
    }

    /// Picoseconds of the step this rank was busy — its modelled work
    /// plus its own injected delay: every bucket but the two that are
    /// waiting for peers, i.e. `sim_time_ps − barrier_wait_ps −
    /// skew_ps`.
    pub fn busy_ps(&self) -> u64 {
        let a = &self.attribution;
        a.total_ps() - a.barrier_wait_ps - a.skew_ps
    }

    /// What the step clock priced this step at: its synchronised
    /// payload sizes. The one step → [`StepLoad`] projection.
    pub fn load(&self) -> StepLoad {
        StepLoad {
            dense: (self.dense_enc_bytes, self.dense_raw_bytes),
            input: (&self.input_exchange).into(),
            output: self.output_exchange.as_ref().map(ExchangeLoad::from),
        }
    }
}

/// `(raw, encoded)` bytes of the codec-framed ALLREDUCE payloads of
/// `steps` — the dense ALLREDUCE and both exchanges' `Ug×D` ALLREDUCEs:
/// [`RunSummary`]'s codec fields.
pub fn codec_bytes(steps: &[StepMetrics]) -> (u64, u64) {
    steps.iter().fold((0, 0), |(raw, enc), s| {
        (
            raw + s.dense_raw_bytes + s.exchanges().map(|e| e.reduce_raw_bytes).sum::<u64>(),
            enc + s.dense_enc_bytes + s.exchanges().map(|e| e.reduce_enc_bytes).sum::<u64>(),
        )
    })
}

/// The nearest-rank `q`-quantile of ascending `sorted`:
/// `sorted[⌈q·n⌉ − 1]`, the rank clamped to `[1, n]`; 0 when empty.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// The run totals a resume carries over: a checkpoint stores them, and
/// the totals at any later point are *that base + Σ steps since*.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunTotals {
    /// Σ of every step's [`StepMetrics::attribution`].
    pub attribution: TimeAttribution,
    /// Σ `Ug` over the unique path's steps.
    pub unique_sum: f64,
    /// Steps contributing to `unique_sum`.
    pub unique_count: u64,
}

impl RunTotals {
    /// `self + Σ steps`, in step order. `unique` says whether the
    /// unique path ran (`Method::unique`): the baseline path has no
    /// `Ug` to average.
    pub fn plus(mut self, steps: &[StepMetrics], unique: bool) -> Self {
        for s in steps {
            self.attribution.accumulate(&s.attribution);
            if unique {
                self.unique_sum += s.input_exchange.unique_global as f64;
                self.unique_count += 1;
            }
        }
        self
    }

    /// Mean `Ug` per step; 0 when the unique path never ran.
    pub fn mean_unique_global(&self) -> f64 {
        if self.unique_count > 0 {
            self.unique_sum / self.unique_count as f64
        } else {
            0.0
        }
    }
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
    /// The snapshot every survivor was restored from — starting a fresh
    /// run at the new world size from this checkpoint is bit-identical
    /// to the recovered run (asserted in `tests/elastic_recovery.rs`).
    /// `None` when no common snapshot existed (fresh restart).
    pub restored_from: Option<Checkpoint>,
}

impl RecoveryEvent {
    /// Global step of the consistent checkpoint restored from, or
    /// `None` on a fresh restart.
    pub fn restored_step(&self) -> Option<u64> {
        self.restored_from.as_ref().map(|ck| ck.step)
    }
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
    /// Every rank's sends in the last round, summed once its ranks
    /// join: bytes are the sum over ranks of what each rank's
    /// collectives returned, per class and tier; ops count group calls
    /// (each rank's ledger counts them alike, so they are one rank's);
    /// the per-step scalar loss reduction charges ALLREDUCE bytes but
    /// counts no op. The same on every rank's report.
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
    /// [`simgpu::sim_trace_json`] (an empty array when tracing was off).
    pub sim_spans: Vec<simgpu::SimSpan>,
    /// Elastic-recovery rounds survived en route to this report (empty
    /// without [`crate::RunOptions::recovery`]).
    pub recoveries: Vec<RecoveryEvent>,
    /// Health findings for the run, stamped by the driver when metrics
    /// are enabled. [`HealthEvent::Straggler`] entries are one list
    /// ([`stragglers`] over all ranks' records), identical on every
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
        for e in self.steps.iter().flat_map(StepMetrics::exchanges) {
            total.accumulate(&e.timings);
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
                 \"input_wire_bytes\":{},\"output_wire_bytes\":{},\"unique_global\":{},\
                 \"wire_intra_alpha_ps\":{},\"wire_inter_alpha_ps\":{}}}\n",
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
                s.wire_intra_alpha_ps,
                s.wire_inter_alpha_ps,
            ));
        }
        out
    }

    /// Mean wire bytes per step across the run.
    pub fn mean_step_bytes(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let total: u64 = self.steps.iter().map(StepMetrics::wire_bytes).sum();
        total as f64 / self.steps.len() as f64
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
            wire.push((t_ns, s.wire_bytes()));
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

    /// Spans this rank's trace ring overwrote (0 when tracing was off).
    pub(crate) fn dropped_spans(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.dropped)
    }

    /// Builds the run's [`RunSummary`] artifact. Works with metrics on
    /// or off: step-time quantiles are exact nearest-rank order
    /// statistics of the synchronised `sim_time_ps` of every recorded
    /// step, codec bytes come from [`codec_bytes`], attribution totals
    /// are this rank's, wire bytes are [`TrainReport::traffic`]'s (every
    /// rank's, summed).
    pub fn run_summary(&self, cfg: &TrainConfig) -> RunSummary {
        let mut times: Vec<u64> = self.steps.iter().map(|s| s.sim_time_ps).collect();
        times.sort_unstable();
        let (codec_raw, codec_enc) = codec_bytes(&self.steps);
        let a = &self.attribution;
        RunSummary {
            world: self.gpus,
            config_fingerprint: format!("{:016x}", config_fingerprint(cfg)),
            steps: self.steps.len() as u64,
            sim_time_ps: times.iter().sum(),
            step_p50_ps: nearest_rank(&times, 0.50),
            step_p95_ps: nearest_rank(&times, 0.95),
            step_p99_ps: nearest_rank(&times, 0.99),
            step_max_ps: times.last().copied().unwrap_or(0),
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
            dropped_spans: self.dropped_spans(),
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

/// A typed finding about a run's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthEvent {
    /// One rank's busy time (modelled work + injected delay) stayed
    /// far above the world median for several consecutive steps (see
    /// [`stragglers`]). Fired once per rank per round, at the step that
    /// completed the streak.
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

/// A rank is a straggler when its busy time reaches this many
/// thousandths of the world median …
const STRAGGLER_FACTOR_MILLI: u64 = 1500;
/// … on this many consecutive steps.
const STRAGGLER_WINDOW: u32 = 3;

/// Straggler findings of one round, from every rank's own step records
/// (`ranks[q]` is rank `q`'s; rank `q`'s busy time in a step is its
/// [`StepMetrics::busy_ps`]). A rank is flagged when its busy time
/// stays at or above 1.5× the world median (lower median — robust to
/// the straggler itself pulling the middle up in tiny worlds) for 3
/// consecutive steps; each rank fires at most once, at the step that
/// completed its streak. A step whose median is zero is skipped.
pub fn stragglers(ranks: &[&[StepMetrics]]) -> Vec<HealthEvent> {
    let steps = ranks.iter().map(|r| r.len()).min().unwrap_or(0);
    let mut streaks = vec![0u32; ranks.len()];
    let mut flagged = vec![false; ranks.len()];
    let mut sorted = Vec::with_capacity(ranks.len());
    let mut events = Vec::new();
    for i in 0..steps {
        sorted.clear();
        sorted.extend(ranks.iter().map(|r| r[i].busy_ps()));
        sorted.sort_unstable();
        let median = sorted[(sorted.len() - 1) / 2];
        if median == 0 {
            continue;
        }
        for (q, r) in ranks.iter().enumerate() {
            let factor_milli = ((r[i].busy_ps() as u128 * 1000) / median as u128) as u64;
            if factor_milli < STRAGGLER_FACTOR_MILLI {
                streaks[q] = 0;
                continue;
            }
            streaks[q] += 1;
            if streaks[q] >= STRAGGLER_WINDOW && !flagged[q] {
                flagged[q] = true;
                events.push(HealthEvent::Straggler {
                    rank: q,
                    factor_milli,
                    step: r[i].step,
                });
            }
        }
    }
    events
}

/// The machine-readable run artifact: one flat record of what a run
/// was (world, config fingerprint) and what it measured (step-time
/// quantiles, attribution totals, wire bytes by tier, codec ratio).
///
/// [`to_json`](RunSummary::to_json) is byte-stable for identical
/// contents. Two summaries are what the `bench-diff` regression gate
/// compares under tolerance rules.
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
    /// Median step time: the exact nearest-rank order statistic,
    /// `sorted[⌈q·n⌉ − 1]`.
    pub step_p50_ps: u64,
    /// 95th-percentile step time (exact, nearest rank).
    pub step_p95_ps: u64,
    /// 99th-percentile step time (exact, nearest rank).
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
/// durability fields (`recoveries`, `corruptions`).
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
    use proptest::prelude::*;

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
    fn bucket_table_covers_every_field_in_struct_order() {
        // Every field is a `u64`, so the struct's size counts them.
        assert_eq!(
            TimeAttribution::BUCKETS.len() * std::mem::size_of::<u64>(),
            std::mem::size_of::<TimeAttribution>()
        );
        let a = TimeAttribution::from_buckets([1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(TimeAttribution::from_buckets(a.buckets()), a);
        // The names sit next to the values they name: reading each
        // bucket back through the derived `Debug` rendering, which
        // prints fields in declaration order under their own names.
        let rendered = format!("{a:?}");
        let mut at = 0;
        for (name, v) in TimeAttribution::BUCKETS.iter().zip(a.buckets()) {
            let found = rendered[at..].find(&format!("{name}: {v}"));
            at += found.unwrap_or_else(|| panic!("{name}: {v} out of order in {rendered}"));
        }
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

    /// The pre-fold online detector, kept verbatim as the reference
    /// [`stragglers`] is checked against (its thresholds were
    /// `MetricsConfig` fields, now the two constants).
    struct HealthMonitor {
        factor_milli: u64,
        window: u32,
        streaks: Vec<u32>,
        flagged: Vec<bool>,
        scratch: Vec<u64>,
        events: Vec<HealthEvent>,
    }

    impl HealthMonitor {
        fn new(world: usize) -> Self {
            Self {
                factor_milli: STRAGGLER_FACTOR_MILLI.max(1),
                window: STRAGGLER_WINDOW.max(1),
                streaks: vec![0; world],
                flagged: vec![false; world],
                scratch: Vec::with_capacity(world),
                events: Vec::new(),
            }
        }

        fn observe_step(&mut self, step: u64, work_ps: &[u64], delay_ps: &[u64]) {
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
    }

    /// `table[step][rank]` busy times as the records the trainer would
    /// write: every rank sees the same `T = max busy`, and splits what
    /// it did not spend busy between barrier wait and skew.
    fn records_of(table: &[Vec<u64>]) -> Vec<Vec<StepMetrics>> {
        let world = table.first().map_or(0, Vec::len);
        let mut ranks = vec![Vec::new(); world];
        for (step, busy) in table.iter().enumerate() {
            let t = busy.iter().copied().max().unwrap_or(0);
            for (q, &b) in busy.iter().enumerate() {
                ranks[q].push(StepMetrics {
                    step: 10 + step as u64,
                    sim_time_ps: t,
                    attribution: TimeAttribution {
                        compute_ps: b,
                        barrier_wait_ps: (t - b) / 2,
                        skew_ps: (t - b) - (t - b) / 2,
                        ..Default::default()
                    },
                    ..Default::default()
                });
            }
        }
        ranks
    }

    /// Both detectors over one busy table: the fold, and the reference.
    fn detect(table: &[Vec<u64>]) -> (Vec<HealthEvent>, Vec<HealthEvent>) {
        let records = records_of(table);
        let slices: Vec<&[StepMetrics]> = records.iter().map(Vec::as_slice).collect();
        let world = table.first().map_or(0, Vec::len);
        let mut reference = HealthMonitor::new(world);
        for (step, busy) in table.iter().enumerate() {
            reference.observe_step(10 + step as u64, busy, &vec![0; world]);
        }
        (stragglers(&slices), reference.events)
    }

    #[test]
    fn health_monitor_names_the_slow_rank_after_the_window() {
        // 1.5× median, 3-step window.
        let step = vec![100u64, 100, 400, 100];
        let (got, _) = detect(&vec![step.clone(); 2]);
        assert!(got.is_empty(), "window not yet met");
        // Fires once per rank, even if the rank stays slow.
        let (got, reference) = detect(&vec![step; 4]);
        assert_eq!(
            got,
            vec![HealthEvent::Straggler {
                rank: 2,
                factor_milli: 4000,
                step: 12
            }]
        );
        assert_eq!(got, reference);
    }

    #[test]
    fn health_monitor_resets_streak_on_recovery() {
        let (slow, ok) = (vec![100u64, 300], vec![100u64, 100]);
        let table = [slow.clone(), slow.clone(), ok, slow.clone(), slow];
        let (got, reference) = detect(&table);
        assert!(got.is_empty(), "streak must restart after recovery");
        assert_eq!(got, reference);
    }

    #[test]
    fn stragglers_match_the_online_detector_on_edge_tables() {
        let tables: Vec<Vec<Vec<u64>>> = vec![
            // G = 1: a lone rank is its own median and never 1.5× it.
            vec![vec![100]; 5],
            // An all-zero median skips the step without touching the
            // streak: rank 2's three slow steps straddle it and fire.
            vec![
                vec![100, 100, 300],
                vec![100, 100, 300],
                vec![0, 0, 300],
                vec![100, 100, 300],
            ],
            // A streak broken one step short of the window, then a
            // second one that is again too short.
            vec![
                vec![100, 100, 150],
                vec![100, 100, 150],
                vec![100, 100, 149],
                vec![100, 100, 150],
                vec![100, 100, 150],
            ],
            // Two ranks crossing in the same step, reported in rank
            // order; each with its own factor.
            vec![vec![100, 100, 100, 200, 350]; 3],
            // No steps; no ranks.
            vec![],
        ];
        for table in &tables {
            let (got, reference) = detect(table);
            assert_eq!(got, reference, "table {table:?}");
        }
        let (got, _) = detect(&tables[1]);
        assert_eq!(got.len(), 1, "zero-median step must not reset the streak");
        let (got, _) = detect(&tables[2]);
        assert!(got.is_empty());
        let (got, _) = detect(&tables[3]);
        assert_eq!(
            got,
            vec![
                HealthEvent::Straggler {
                    rank: 3,
                    factor_milli: 2000,
                    step: 12
                },
                HealthEvent::Straggler {
                    rank: 4,
                    factor_milli: 3500,
                    step: 12
                },
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The straggler fold equals the online detector it replaced,
        /// on busy tables drawn from a palette that sits on both sides
        /// of the 1.5× threshold and includes zero.
        #[test]
        fn stragglers_match_the_online_detector(
            world in 1usize..=6,
            picks in proptest::collection::vec(0usize..7, 0..72),
        ) {
            const PALETTE: [u64; 7] = [0, 100, 100, 100, 149, 150, 400];
            let table: Vec<Vec<u64>> = picks
                .chunks_exact(world)
                .map(|row| row.iter().map(|&i| PALETTE[i]).collect())
                .collect();
            let (got, reference) = detect(&table);
            prop_assert_eq!(got, reference);
        }
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
        // Recorded out of order: the quantiles are order statistics.
        for i in (0..10u64).rev() {
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
        assert_eq!(s.sim_time_ps, 1045);
        // Nearest rank over 100..=109: ⌈0.5·10⌉ = 5th → 104, ⌈0.95·10⌉ =
        // ⌈0.99·10⌉ = 10th → 109.
        assert_eq!(s.step_p50_ps, 104);
        assert_eq!((s.step_p95_ps, s.step_p99_ps), (109, 109));
        assert_eq!(s.step_max_ps, 109);
        assert_eq!(s.codec_ratio_milli, 1000, "no codec ⇒ ratio 1.000");
        assert_eq!(s.config_fingerprint.len(), 16);
        assert_eq!(
            s.config_fingerprint,
            format!("{:016x}", config_fingerprint(&cfg))
        );
    }
}
