//! The step clock: one step's collectives as an explicit op schedule,
//! priced by the α–β cost model and evaluated on its critical path.
//!
//! Two callers price a step here, from two sources of the same
//! [`StepLoad`]: the trainer *measures* it (every step's synchronised
//! payload sizes) and the full-scale models in this crate *predict* it
//! from the paper's dimensions and the unique-words law. Both then call
//! [`StepSchedule::clock`], so a simulated step time is derived in one
//! place. Everything here is pure integer arithmetic on its inputs — no
//! thread, lock or communicator — so any rank, a lockstep driver or an
//! analytic model can evaluate any rank's step.
//!
//! A step runs on two streams per rank:
//!
//! * a **compute stream** running the forward/backward pass for
//!   `compute_ps`, then the gradient application (`apply_ps`) once all
//!   comm finished;
//! * a **comm stream** running the step's collective ops ([`CommOp`])
//!   serialized in program order, each no earlier than its `ready_ps` —
//!   the compute-stream time at which its payload exists.
//!
//! The DAG is exactly: `produce(op b) → op b` (the `ready_ps` edge,
//! gradients appear as the backward pass streams through the
//! parameters) and `op b → op b+1` (one fabric, ops serialize). The
//! step's simulated time is the critical path:
//!
//! ```text
//! T = compute_ps + exposed_comm_ps + apply_ps
//! ```
//!
//! where `exposed_comm_ps` is the comm time *not* hidden under compute.
//! Every quantity is integer picoseconds, so the identity is exact — no
//! epsilon. With overlap off every `ready_ps` is pinned to
//! `compute_ps`, the comm stream degenerates to the serial chain, and
//! `T` equals the pre-schedule `compute + wire + touch` sum bit for bit.
//!
//! **Attribution contract** ([`TimeAttribution`]): the hidden comm time
//! is reported as `overlapped_ps` and carved out of the compute bucket
//! (`compute_ps_bucket = compute_ps + apply_ps − overlapped_ps`), while
//! the wire buckets carry only each op's *exposed* remainder — so the
//! seven buckets still sum to `T` exactly. Within one op the hidden
//! prefix is charged intra-tier first (the hierarchical schedule's
//! node-local phases precede its inter-node ring; for flat ops one tier
//! is zero and the convention is vacuous).

use simgpu::{secs_to_ps, CostModel, NodeLayout, SimSpan, SimStream, TierCost, Topology, Wire};
use std::ops::Range;

/// How a step's exchanges and gradient collectives run: the strategy,
/// wire format, topology and bucketing every collective of the step —
/// and so its price — follows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeConfig {
    /// Use the uniqueness technique (§III-A) instead of dense ALLGATHER.
    pub unique: bool,
    /// FP16 wire compression with this scaling factor (§III-C), if any.
    pub compression: Option<f32>,
    /// Nonzero runs the unique path's collectives on their two-tier
    /// schedules, on the group's own node layout, when the group spans
    /// multiple nodes: the index gather deduplicates per node and only
    /// the node leaders cross Infiniband
    /// (`simgpu::unique_gather_tier_bytes`), and the `Ug×D` ALLREDUCE
    /// takes the hierarchical schedule — compressed payloads included
    /// (the two tiers carry the f16 wire format, bit-identical to the
    /// flat f16 ring). `0` keeps everything on the flat single-tier
    /// schedules. Only zero versus nonzero is read: the node size is the
    /// group's ([`StepSchedule::gpn`] on the clock). Results are
    /// bit-identical either way; only the wire schedule and per-tier
    /// byte accounting differ.
    pub gpus_per_node: usize,
    /// Gradient-bucket size in wire bytes for the unique path's `Ug×D`
    /// ALLREDUCE: `> 0` slices the payload into consecutive element
    /// ranges of at most this many wire bytes, each reduced by its own
    /// collective call — the bucketed schedule the trainer overlaps
    /// with compute. `0` keeps the single whole-payload collective.
    /// Reduction is elementwise with a canonical leader order, so
    /// bucketing moves no bits; `wire_bytes` becomes the sum of the
    /// per-bucket ring shares the collectives return.
    pub bucket_bytes: u64,
    /// Lossless wire codec for the unique path's collectives (see
    /// [`simgpu::codec`]): the index codec frames the index gather,
    /// the gradient codec frames step 6's ALLREDUCE buckets whenever
    /// `compression` is `None` (an FP16 wire is already its own format
    /// and keeps its own accounting). The baseline dense exchange
    /// ignores the codec — it is the paper's uncompressed yardstick.
    /// Results are bit-identical to `Identity`; only wire bytes move.
    pub codec: simgpu::WireCodecId,
}

impl ExchangeConfig {
    /// Wire schedule of this config's collectives, for the wire and for
    /// the clock (`gpus_per_node == 0` is the flat ring; the collective
    /// and its price both fall back to the ring when the group fits in
    /// one node). Keys off the topology alone: the wire format (FP16,
    /// codec) never disables the two-tier schedule.
    pub fn topology(&self) -> Topology {
        match self.gpus_per_node {
            0 => Topology::Flat,
            _ => Topology::TwoTier,
        }
    }

    /// Wire format of this config's gradient ALLREDUCEs — the one place
    /// `compression` and `codec` are resolved against each other: an
    /// FP16 wire is already its own format and keeps its own
    /// accounting, so the gradient codec only frames raw-f32 payloads.
    pub fn grad_wire(&self) -> Wire<'static> {
        match (self.compression, self.codec.grad_codec()) {
            (Some(scale), _) => Wire::F16 { scale },
            (None, Some(codec)) => Wire::Codec(codec),
            (None, None) => Wire::F32,
        }
    }
}

/// What [`StepSchedule::ops_for`] reads of one embedding exchange — all
/// of it identical on every rank of a step (the trainer's measured
/// stats are synchronised by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeLoad {
    /// Rows each rank contributes (`K`, duplicates included; the mean
    /// over ranks when contributions are ragged).
    pub local_tokens: usize,
    /// Rows distinct across the world (`Ug`); 0 on the baseline path.
    pub unique_global: usize,
    /// Σ over ranks of the unique path's encoded index frames `J_r`
    /// (raw equivalent: `local_tokens · 4 · G`).
    pub index_enc_bytes: u64,
    /// `Σ_n |U_n|`: the node sets the leaders exchange when the unique
    /// path's index gather runs its two-tier node schedule; 0 when it
    /// runs flat.
    pub node_unique: usize,
    /// The `Ug×D` ALLREDUCE's `(enc, raw)` bytes.
    pub reduce: (u64, u64),
}

/// Every per-step input of [`StepSchedule::ops_for`]: two steps whose
/// loads are equal price the same, whatever else differs between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepLoad {
    /// The dense ALLREDUCE's `(enc, raw)` bytes (`enc == raw` when no
    /// codec is active).
    pub dense: (u64, u64),
    /// The input-embedding exchange.
    pub input: ExchangeLoad,
    /// The output-embedding exchange (word LM only).
    pub output: Option<ExchangeLoad>,
}

/// One collective operation on the step's comm stream, priced per
/// interconnect tier for one specific rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommOp {
    /// Stable op name (also the sim-trace span label).
    pub label: &'static str,
    /// Bucket index within the op's payload (0 for unbucketed ops).
    pub bucket: u32,
    /// Node-local (PCIe-tier) picoseconds of this op for this rank.
    pub intra_ps: u64,
    /// Inter-node (Infiniband-tier) picoseconds for this rank.
    pub inter_ps: u64,
    /// Compute-stream time (ps from step start) at which the op's
    /// payload exists; the op cannot start earlier. Never exceeds the
    /// schedule's `compute_ps` (payloads are products of the backward
    /// pass).
    pub ready_ps: u64,
}

impl CommOp {
    /// Total modelled duration across both tiers.
    pub fn duration_ps(&self) -> u64 {
        self.intra_ps + self.inter_ps
    }
}

/// Result of evaluating one rank's step schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleOutcome {
    /// Critical-path step time for this rank:
    /// `compute_ps + exposed_intra_ps + exposed_inter_ps + apply_ps`,
    /// exactly.
    pub total_ps: u64,
    /// Intra-tier comm not hidden under compute.
    pub exposed_intra_ps: u64,
    /// Inter-tier comm not hidden under compute.
    pub exposed_inter_ps: u64,
    /// Comm hidden under compute — wall-clock where both streams were
    /// busy. At most `compute_ps`; zero whenever every op's `ready_ps`
    /// equals `compute_ps` (overlap off).
    pub overlapped_ps: u64,
}

impl ScheduleOutcome {
    /// Exposed comm across both tiers.
    pub fn exposed_ps(&self) -> u64 {
        self.exposed_intra_ps + self.exposed_inter_ps
    }
}

/// Evaluates the schedule, additionally reporting each comm op's
/// placement as `on_op(op_index, start_ps, end_ps)` (step-relative) —
/// the hook [`StepSchedule::clock`] lays a [`Timeline`] out with.
/// See [`evaluate`] for the model.
pub fn evaluate_with<F: FnMut(usize, u64, u64)>(
    compute_ps: u64,
    apply_ps: u64,
    ops: &[CommOp],
    mut on_op: F,
) -> ScheduleOutcome {
    let mut out = ScheduleOutcome::default();
    let mut comm_end = 0u64; // comm-stream clock
    for (i, op) in ops.iter().enumerate() {
        debug_assert!(
            op.ready_ps <= compute_ps,
            "payloads are produced by the backward pass"
        );
        let start = comm_end.max(op.ready_ps.min(compute_ps));
        let dur = op.duration_ps();
        let end = start + dur;
        // Portion of this op inside the compute window [0, compute_ps]:
        // both streams busy — hidden. The remainder is exposed.
        let hidden = end.min(compute_ps).saturating_sub(start.min(compute_ps));
        let hidden_intra = op.intra_ps.min(hidden);
        let hidden_inter = hidden - hidden_intra;
        out.overlapped_ps += hidden;
        out.exposed_intra_ps += op.intra_ps - hidden_intra;
        out.exposed_inter_ps += op.inter_ps - hidden_inter;
        comm_end = end;
        on_op(i, start, end);
    }
    out.total_ps = compute_ps + out.exposed_ps() + apply_ps;
    // The comm stream never idles past the compute window (every
    // ready_ps ≤ compute_ps), so the critical path really is the last
    // stream to finish plus the apply.
    debug_assert_eq!(out.total_ps, comm_end.max(compute_ps) + apply_ps);
    debug_assert_eq!(
        out.exposed_ps() + out.overlapped_ps,
        ops.iter().map(CommOp::duration_ps).sum::<u64>(),
        "every comm picosecond is either exposed or hidden"
    );
    out
}

/// Evaluates one rank's step schedule: `compute_ps` of model work
/// producing the ops' payloads, the ops serialized on the comm stream
/// (each starting at `max(previous end, ready_ps)`), and `apply_ps` of
/// gradient application once both streams drain. Pure integer
/// arithmetic — every rank can evaluate every other rank's schedule
/// locally, which is what keeps the trainer's synchronous step-time
/// model communication-free.
pub fn evaluate(compute_ps: u64, apply_ps: u64, ops: &[CommOp]) -> ScheduleOutcome {
    evaluate_with(compute_ps, apply_ps, ops, |_, _, _| {})
}

/// Serial reference: the pre-schedule step model,
/// `compute + Σ op + apply`. [`evaluate`] equals this exactly when
/// every op's `ready_ps` is `compute_ps`, and never exceeds it.
pub fn serial_total_ps(compute_ps: u64, apply_ps: u64, ops: &[CommOp]) -> u64 {
    compute_ps + ops.iter().map(CommOp::duration_ps).sum::<u64>() + apply_ps
}

/// Splits a payload of `n_elems` elements (`elem_bytes` each on the
/// wire) into consecutive element ranges of at most `bucket_bytes` wire
/// bytes — the gradient buckets of the overlapped schedule, walked
/// without allocating. Each range becomes one collective op paying its
/// own latency term. `bucket_bytes == 0` (or ≥ the payload) yields a
/// single range, which is the whole-payload collective byte-for-byte;
/// a sub-element `bucket_bytes` clamps to one element per bucket. Empty
/// payloads yield one empty range so the op structure stays stable.
pub fn buckets(
    n_elems: usize,
    elem_bytes: u64,
    bucket_bytes: u64,
) -> impl Iterator<Item = Range<usize>> {
    let per = if bucket_bytes == 0 || n_elems == 0 {
        n_elems.max(1)
    } else {
        ((bucket_bytes / elem_bytes.max(1)) as usize).clamp(1, n_elems)
    };
    // `max(1)`: an empty payload still starts one (empty) bucket.
    (0..n_elems.max(1))
        .step_by(per)
        .map(move |start| start..(start + per).min(n_elems))
}

/// Ready time of a payload whose last byte is the `produced_bytes`-th
/// of the step's `total_bytes` of gradients, under the uniform
/// production model: the backward pass emits gradient bytes at a
/// constant rate over `compute_ps`, and a bucket may launch once its
/// last byte exists. Monotone in `produced_bytes` and never past
/// `compute_ps`.
pub fn ready_at(compute_ps: u64, produced_bytes: u64, total_bytes: u64) -> u64 {
    debug_assert!(produced_bytes <= total_bytes);
    if total_bytes == 0 {
        return compute_ps;
    }
    ((compute_ps as u128 * produced_bytes as u128) / total_bytes as u128) as u64
}

/// Where one rank's simulated step time went, in integer picoseconds.
///
/// The clock models a synchronous step: `T = max over ranks of
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
/// `wire_inter_ps` for Infiniband hops between nodes. A flat ring's
/// time lands on the tier of the rank's own egress link (intra unless
/// `r → r+1` crosses a node boundary); hierarchical collectives split
/// the two tiers exactly — [`simgpu::CostModel::allreduce`] decides
/// both. The legacy total is the [`wire_ps`](TimeAttribution::wire_ps)
/// method.
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
    /// The buckets' names, in struct order — which is also the
    /// checkpoint layout and the histogram registration order. Every
    /// walk over "all buckets" goes through this table and
    /// [`buckets`](Self::buckets) / [`from_buckets`](Self::from_buckets).
    pub const BUCKETS: [&'static str; 7] = [
        "compute_ps",
        "wire_intra_ps",
        "wire_inter_ps",
        "barrier_wait_ps",
        "skew_ps",
        "self_delay_ps",
        "overlapped_ps",
    ];

    /// The bucket values, aligned with [`Self::BUCKETS`].
    pub fn buckets(&self) -> [u64; 7] {
        // Destructured without `..`: a new field that misses the table
        // does not compile.
        let Self {
            compute_ps,
            wire_intra_ps,
            wire_inter_ps,
            barrier_wait_ps,
            skew_ps,
            self_delay_ps,
            overlapped_ps,
        } = *self;
        [
            compute_ps,
            wire_intra_ps,
            wire_inter_ps,
            barrier_wait_ps,
            skew_ps,
            self_delay_ps,
            overlapped_ps,
        ]
    }

    /// Inverse of [`buckets`](Self::buckets).
    pub fn from_buckets(buckets: [u64; 7]) -> Self {
        let [compute_ps, wire_intra_ps, wire_inter_ps, barrier_wait_ps, skew_ps, self_delay_ps, overlapped_ps] =
            buckets;
        Self {
            compute_ps,
            wire_intra_ps,
            wire_inter_ps,
            barrier_wait_ps,
            skew_ps,
            self_delay_ps,
            overlapped_ps,
        }
    }

    /// Total wire time across both tiers — the pre-split `wire_ps`
    /// bucket, kept as a method for display and downstream tooling.
    pub fn wire_ps(&self) -> u64 {
        self.wire_intra_ps + self.wire_inter_ps
    }

    /// Sum of all buckets — equals the step's `sim_time_ps` exactly.
    pub fn total_ps(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Elementwise accumulation (for per-run totals).
    pub fn accumulate(&mut self, other: &TimeAttribution) {
        let (a, b) = (self.buckets(), other.buckets());
        *self = Self::from_buckets(std::array::from_fn(|i| a[i] + b[i]));
    }
}

/// The step's op schedule, priced for any rank — the inputs of the
/// local, communication-free step-time model.
///
/// Every rank holds the *same* `StepSchedule`: its fields are fixed for
/// a run except `load`, whose payload sizes are rank-invariant
/// (`local_tokens` is `batch·seq_len` (+ samples) on every rank and
/// `unique_global` is synchronised by construction). The critical path
/// of rank `q` ([`Self::critical_path`]: [`Self::ops_for`] +
/// [`evaluate`]) is pure arithmetic on it. The synchronous step time
/// `T = max_q (critical_path(q) + delay_ps[q])` is a max over ranks:
/// [`Self::price_all`] takes it over every rank at once, and a live run
/// reduces each rank's own pair at a rendezvous it already holds.
///
/// Launch order is readiness order: the unique path's index
/// ALLGATHERs first (ready at 0 — the token indices are known the
/// moment the batch loads), then the gradient-dependent ops in
/// production order — dense ALLREDUCE buckets, input-exchange `Ug×D`
/// ALLREDUCE buckets, output exchange likewise. Readiness follows the
/// uniform gradient-production model ([`ready_at`]): the backward pass
/// emits the step's gradient elements at a constant rate over
/// `compute_ps` in call order, so bucket `i` of a payload becomes ready
/// when its last element exists. With `overlap` off every op is pinned
/// ready at `compute_ps`, op order stops mattering (the evaluation
/// degenerates to the serial sum), and [`evaluate`] reproduces the
/// legacy serial `compute + wire + touch` sum bit for bit.
pub struct StepSchedule<'a> {
    /// The cluster every op is priced on.
    pub cost: &'a CostModel,
    /// Topology, bucket size and wire format of every collective. Under
    /// a codec, wire bytes scale by the measured enc/raw ratio of each
    /// payload and the encode+decode compute is priced via
    /// [`CostModel::codec_time`].
    pub xcfg: ExchangeConfig,
    /// World size `G`.
    pub gpus: usize,
    /// Resolved node layout (what the collectives tier their bytes by).
    pub gpn: usize,
    /// Launch each op when its payload exists instead of after compute.
    pub overlap: bool,
    /// Forward/backward picoseconds per rank.
    pub compute_ps: u64,
    /// Elements of the dense (RNN + projection) gradient.
    pub dense_elems: usize,
    /// Row width of the input exchange's table.
    pub dim: usize,
    /// Row width of the output exchange's table.
    pub out_dim: usize,
    /// Every rank's injected straggler delay, picoseconds.
    pub delay_ps: Vec<u64>,
    /// The step's payloads.
    pub load: StepLoad,
}

/// One rank's clock for one step — what [`StepSchedule::clock`]
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepClock {
    /// The synchronous step time: the slowest rank's critical path plus
    /// its injected delay. Identical on every rank.
    pub sim_time_ps: u64,
    /// This rank's exact split of `sim_time_ps`.
    pub attribution: TimeAttribution,
    /// Of the intra-tier wire time this rank's ops were *priced* at,
    /// the hop-latency (α) part.
    pub wire_intra_alpha_ps: u64,
    /// The same for the inter-node tier.
    pub wire_inter_alpha_ps: u64,
}

/// One rank's step laid out on the simulated timeline, at offsets from
/// the step's start.
pub struct Timeline<'a> {
    /// Where the spans go.
    pub spans: &'a mut Vec<SimSpan>,
    /// The rank laid out.
    pub rank: u32,
    /// The step laid out.
    pub step: u64,
    /// Simulated time at the step's start.
    pub base_ps: u64,
}

impl Timeline<'_> {
    fn span(&mut self, stream: SimStream, label: &'static str, bucket: u32, from: u64, to: u64) {
        self.spans.push(SimSpan {
            rank: self.rank,
            step: self.step,
            stream,
            label,
            bucket,
            t_start_ps: self.base_ps + from,
            t_end_ps: self.base_ps + to,
        });
    }
}

impl StepSchedule<'_> {
    /// The critical path of rank `q` this step: its op list priced and
    /// evaluated. `ops` is a hoisted buffer; it is left holding `q`'s
    /// ops.
    pub fn critical_path(&self, q: usize, ops: &mut Vec<CommOp>) -> u64 {
        let (apply_ps, _) = self.ops_for(ops, q);
        evaluate(self.compute_ps, apply_ps, ops).total_ps
    }

    /// The step's two peaks over every rank: `[max_q critical path,
    /// max_q (critical path + delay)]` — the pair [`Self::clock`]
    /// takes, and what a live run's ranks reduce instead.
    pub fn price_all(&self, ops: &mut Vec<CommOp>) -> [u64; 2] {
        (0..self.gpus).fold([0; 2], |[t0, t], q| {
            let cp = self.critical_path(q, ops);
            [t0.max(cp), t.max(cp + self.delay_ps[q])]
        })
    }

    /// The clock of rank `q` for the step: the synchronous step time
    /// (the slowest rank's critical path plus injected delay), `q`'s
    /// exact split of it and the α of `q`'s ops. `peaks` is the step's
    /// `[max critical path, max (critical path + delay)]` over every
    /// rank, `q` included, as [`Self::price_all`] returns it; with a
    /// `timeline`, `q`'s compute, ops, apply, delay and wait are laid
    /// out on it. `ops` is a hoisted buffer.
    pub fn clock(
        &self,
        q: usize,
        [t0_ps, t_ps]: [u64; 2],
        ops: &mut Vec<CommOp>,
        mut timeline: Option<Timeline<'_>>,
    ) -> StepClock {
        let (apply_ps, [wire_intra_alpha_ps, wire_inter_alpha_ps]) = self.ops_for(ops, q);
        let (ops, compute_ps, delay_ps) = (&*ops, self.compute_ps, &self.delay_ps);
        if let Some(tl) = &mut timeline {
            tl.span(SimStream::Compute, "compute", 0, 0, compute_ps);
        }
        let own = evaluate_with(compute_ps, apply_ps, ops, |i, from, to| {
            if let Some(tl) = &mut timeline {
                tl.span(SimStream::Comm, ops[i].label, ops[i].bucket, from, to);
            }
        });
        let busy = own.total_ps + delay_ps[q];
        debug_assert!(
            own.total_ps <= t0_ps && busy <= t_ps,
            "peaks without rank {q}"
        );
        // Exact decomposition of T for this rank: whatever exceeds its
        // busy time is waiting — up to T0 − cp it is inherent load
        // imbalance (barrier wait), beyond that it can only be caused by
        // peers' injected delays (skew). The comm hidden under compute
        // is carved out of the compute bucket into `overlapped_ps`, so
        // the seven buckets still sum to T exactly.
        let wait_ps = t_ps - busy;
        let barrier_wait_ps = wait_ps.min(t0_ps - own.total_ps);
        if let Some(tl) = &mut timeline {
            let apply_from = own.total_ps - apply_ps;
            tl.span(SimStream::Compute, "apply", 0, apply_from, own.total_ps);
            if delay_ps[q] > 0 {
                tl.span(SimStream::Compute, "self_delay", 0, own.total_ps, busy);
            }
            if t_ps > busy {
                tl.span(SimStream::Compute, "barrier_wait", 0, busy, t_ps);
            }
        }
        let attribution = TimeAttribution {
            compute_ps: compute_ps + apply_ps - own.overlapped_ps,
            wire_intra_ps: own.exposed_intra_ps,
            wire_inter_ps: own.exposed_inter_ps,
            overlapped_ps: own.overlapped_ps,
            barrier_wait_ps,
            skew_ps: wait_ps - barrier_wait_ps,
            self_delay_ps: delay_ps[q],
        };
        debug_assert_eq!(attribution.total_ps(), t_ps);
        StepClock {
            sim_time_ps: t_ps,
            attribution,
            wire_intra_alpha_ps,
            wire_inter_alpha_ps,
        }
    }

    /// Gradient elements the backward pass produces — dense plus both
    /// exchanges' collective payloads — the denominator of the
    /// production model.
    fn total_grad_elems(&self) -> u64 {
        let payload = |x: &ExchangeLoad, dim: usize| {
            dim * if self.xcfg.unique {
                x.unique_global
            } else {
                x.local_tokens
            }
        };
        let output = self.load.output.map_or(0, |x| payload(&x, self.out_dim));
        (self.dense_elems + payload(&self.load.input, self.dim) + output) as u64
    }

    /// Ready time of a gradient payload whose last element is the
    /// `cum_elems`-th produced this step; pinned to `compute_ps` when
    /// overlap is off (serial schedule).
    fn grad_ready(&self, cum_elems: u64) -> u64 {
        if self.overlap {
            ready_at(self.compute_ps, cum_elems * 4, self.total_grad_elems() * 4)
        } else {
            self.compute_ps
        }
    }

    /// Scales identity wire bytes by a payload's measured enc/raw
    /// codec ratio in exact integer arithmetic (`u128` — no rounding
    /// drift across ranks, and a byte-exact no-op when `enc == raw`).
    fn scaled(bytes: u64, (enc, raw): (u64, u64)) -> u64 {
        if raw == 0 || enc == raw {
            bytes
        } else {
            ((bytes as u128 * enc as u128) / raw as u128) as u64
        }
    }

    /// Picoseconds a wire codec spends on `raw_bytes` of payload — zero
    /// without one. Codecs run on-node before the NIC, so callers add
    /// this to an op's intra tier.
    fn codec_ps<T>(&self, codec: Option<&dyn simgpu::WireCodec<T>>, raw_bytes: u64) -> u64 {
        codec.map_or(0, |c| {
            secs_to_ps(self.cost.codec_time(raw_bytes, c.throughput_bps()))
        })
    }

    /// Appends one unique exchange's index gather, priced under the
    /// config's topology like the ALLREDUCEs: the flat peer gather, or
    /// across nodes the node schedule (`simgpu::unique_gather_tier_bytes`)
    /// at the load's mean frames — `K` indices per rank, `Σ|U_n| / N`
    /// per node set, `Ug` for the broadcast and the smaller of `K` and
    /// the node set for a member's hand-off. The indices are known the
    /// moment the batch loads, so with overlap on the op is ready at 0 —
    /// which is also why [`Self::ops_for`] launches these *first*: they
    /// are the only ops that can cover the head of the compute window,
    /// before any gradient exists.
    fn push_index_gather(&self, w: &mut Walk, x: &ExchangeLoad, label: &'static str) {
        // With an index codec every frame is priced at the measured
        // enc/raw ratio of the published frames (`index_enc_bytes` is
        // their Σ over ranks, identical everywhere), scaled in exact
        // integer math so identity stays bit-for-bit the raw price.
        let raw = x.local_tokens as u64 * 4;
        let ratio = (x.index_enc_bytes, raw * self.gpus as u64);
        let topology = self.xcfg.topology();
        let split = NodeLayout::new(self.gpus, self.gpn).two_tier(topology);
        let nodes = split.map_or(1, NodeLayout::nodes);
        let node = (x.node_unique / nodes) as u64 * 4;
        let (local, global) = (raw.min(node), x.unique_global as u64 * 4);
        let frames = simgpu::UniqueFrames {
            indices: Self::scaled(raw, ratio),
            local: Self::scaled(local, ratio),
            node: Self::scaled(node, ratio),
            global: Self::scaled(global, ratio),
        };
        // Raw bytes through the codec kernel. Flat: one encode of the
        // own frame and G decodes. Node schedule: a member encodes Ĵ and
        // decodes Î; a leader decodes its members' Ĵ, encodes U_n,
        // decodes the other leaders' and encodes Î.
        let codec_raw = match split {
            None => (self.gpus as u64 + 1) * raw,
            Some(layout) if layout.is_leader(w.q) => {
                let members = layout.members(w.q) as u64;
                (members - 1) * local + nodes as u64 * node + global
            }
            Some(_) => local + global,
        };
        let sent = simgpu::unique_gather_tier_bytes(self.gpus, self.gpn, topology, w.q, frames);
        let price = self
            .cost
            .unique_gather(sent, self.gpus, self.gpn, topology, w.q);
        let codec_ps = self.codec_ps(self.xcfg.codec.index_codec(), codec_raw);
        let ready_ps = if self.overlap { 0 } else { self.compute_ps };
        w.push(label, 0, price, codec_ps, ready_ps);
    }

    /// Appends one op per gradient bucket of an `n`-element ALLREDUCE
    /// payload — the same [`buckets`] walk the collectives took, each
    /// bucket priced on the rank's exact per-tier bytes under the
    /// config's topology — advancing the gradient production cursor.
    /// With a codec the identity byte counts shrink by the payload's
    /// measured `(enc, raw)` ratio (1 exactly when no codec is active)
    /// and the encode+decode passes (one over sent chunks, one over
    /// received — ≈ 2× the identity send volume) are charged as codec
    /// time.
    fn push_allreduce_buckets(
        &self,
        w: &mut Walk,
        label: &'static str,
        n: usize,
        ratio: (u64, u64),
    ) {
        let (wire, topology) = (self.xcfg.grad_wire(), self.xcfg.topology());
        let elem = wire.elem_bytes();
        for (bucket, range) in buckets(n, elem, self.xcfg.bucket_bytes).enumerate() {
            let ident =
                simgpu::allreduce_send_bytes(range.len(), self.gpus, self.gpn, topology, w.q, elem);
            let sent = simgpu::TierBytes {
                intra: Self::scaled(ident.intra, ratio),
                inter: Self::scaled(ident.inter, ratio),
            };
            let price = self
                .cost
                .allreduce(sent, self.gpus, self.gpn, topology, w.q);
            let codec_ps = self.codec_ps(wire.codec(), 2 * ident.total());
            w.cum += range.len() as u64;
            let ready_ps = self.grad_ready(w.cum);
            w.push(label, bucket as u32, price, codec_ps, ready_ps);
        }
    }

    /// Appends one exchange's gradient-dependent ops (advancing the
    /// gradient production cursor) and returns its local memory-touch
    /// (apply) picoseconds. The unique path's index ALLGATHER is *not*
    /// emitted here — see [`Self::push_index_gather`].
    fn push_exchange_ops(
        &self,
        w: &mut Walk,
        x: &ExchangeLoad,
        dim: usize,
        (gather_label, reduce_label): (&'static str, &'static str),
    ) -> u64 {
        let rows = if self.xcfg.unique {
            // Ug×D ALLREDUCE gradient buckets.
            self.push_allreduce_buckets(w, reduce_label, x.unique_global * dim, x.reduce);
            x.unique_global
        } else {
            // Baseline: one dense ALLGATHER of K×D rows + indices, on
            // the flat ring whatever the config's topology — the
            // payload *is* the gradient, so it is ready only once its
            // rows are produced — then a Θ(G·K·D) local update touch.
            w.cum += (x.local_tokens * dim) as u64;
            let elem = self.xcfg.grad_wire().elem_bytes();
            let bytes = x.local_tokens as u64 * (dim as u64 * elem + 4);
            let price = self.cost.allgather(bytes, self.gpus, self.gpn, w.q);
            w.push(gather_label, 0, price, 0, self.grad_ready(w.cum));
            self.gpus * x.local_tokens
        };
        secs_to_ps(self.cost.memory_touch_time(rows as u64 * dim as u64 * 4))
    }

    /// Rebuilds `ops` with rank `q`'s full op list for this step, in
    /// program order, and returns `q`'s apply (memory-touch)
    /// picoseconds — the inputs of [`evaluate`] — and the α of the ops
    /// it priced as `[intra, inter]`. `ops` is a caller-hoisted buffer
    /// so a steady-state loop stays allocation-free.
    pub fn ops_for(&self, ops: &mut Vec<CommOp>, q: usize) -> (u64, [u64; 2]) {
        ops.clear();
        let mut w = Walk {
            q,
            ops,
            cum: 0,
            alpha_ps: [0; 2],
        };
        let load = &self.load;
        // Unique-path index ALLGATHERs launch first: ready at batch
        // load, they are the only comm the schedule can run before the
        // backward pass produces its first gradient bucket. (Baseline
        // ALLGATHERs carry the gradient rows themselves and stay in
        // production order below.)
        if self.xcfg.unique {
            self.push_index_gather(&mut w, &load.input, "in_allgather");
            if let Some(x) = &load.output {
                self.push_index_gather(&mut w, x, "out_allgather");
            }
        }
        // Dense gradient buckets (LSTM/RHN + projection).
        self.push_allreduce_buckets(&mut w, "dense_allreduce", self.dense_elems, load.dense);
        let labels = ("in_allgather", "in_grad_allreduce");
        let mut apply = self.push_exchange_ops(&mut w, &load.input, self.dim, labels);
        if let Some(x) = &load.output {
            let labels = ("out_allgather", "out_grad_allreduce");
            apply += self.push_exchange_ops(&mut w, x, self.out_dim, labels);
        }
        debug_assert_eq!(w.cum, self.total_grad_elems());
        (apply, w.alpha_ps)
    }
}

/// One rank's walk over a step's collectives, in program order.
struct Walk<'a> {
    /// The rank being priced.
    q: usize,
    ops: &'a mut Vec<CommOp>,
    /// Gradient elements produced up to the last op pushed.
    cum: u64,
    /// Σ α of the ops pushed, `[intra, inter]`.
    alpha_ps: [u64; 2],
}

impl Walk<'_> {
    /// Appends one priced collective: each tier's α + β quantised as
    /// one term is the op's time on that tier (`codec_ps` joins the
    /// intra tier), its α quantised on its own joins the α account.
    fn push(
        &mut self,
        label: &'static str,
        bucket: u32,
        price: TierCost,
        codec_ps: u64,
        ready_ps: u64,
    ) {
        self.alpha_ps[0] += price.intra.alpha_ps();
        self.alpha_ps[1] += price.inter.alpha_ps();
        self.ops.push(CommOp {
            label,
            bucket,
            intra_ps: price.intra.wire_ps() + codec_ps,
            inter_ps: price.inter.wire_ps(),
            ready_ps,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TechniqueStack;
    use proptest::prelude::*;
    use simgpu::{HardwareConfig, WireCodecId};

    fn op(intra: u64, inter: u64, ready: u64) -> CommOp {
        CommOp {
            label: "op",
            bucket: 0,
            intra_ps: intra,
            inter_ps: inter,
            ready_ps: ready,
        }
    }

    #[test]
    fn serial_readiness_reproduces_the_sum() {
        let c = 1000;
        let ops = [op(300, 0, c), op(0, 450, c), op(20, 7, c)];
        let out = evaluate(c, 111, &ops);
        assert_eq!(out.total_ps, serial_total_ps(c, 111, &ops));
        assert_eq!(out.overlapped_ps, 0);
        assert_eq!(out.exposed_intra_ps, 320);
        assert_eq!(out.exposed_inter_ps, 457);
    }

    #[test]
    fn early_ops_hide_under_compute() {
        // One op fully hidden, one straddling the compute boundary.
        let c = 1000;
        let ops = [op(200, 0, 0), op(100, 300, 700)];
        let out = evaluate(c, 50, &ops);
        // Op 0: [0, 200] — fully hidden. Op 1: [700, 1100] — 300 hidden
        // (100 intra first, then 200 of the inter), 100 inter exposed.
        assert_eq!(out.overlapped_ps, 500);
        assert_eq!(out.exposed_intra_ps, 0);
        assert_eq!(out.exposed_inter_ps, 100);
        assert_eq!(out.total_ps, 1000 + 100 + 50);
        assert!(out.total_ps < serial_total_ps(c, 50, &ops));
    }

    #[test]
    fn comm_backlog_serializes() {
        // Two long ops ready early: the second queues behind the first,
        // so only the compute window's worth of comm can hide.
        let c = 100;
        let ops = [op(400, 0, 0), op(400, 0, 10)];
        let out = evaluate(c, 0, &ops);
        assert_eq!(out.overlapped_ps, 100);
        assert_eq!(out.exposed_intra_ps, 700);
        assert_eq!(out.total_ps, 100 + 700);
    }

    #[test]
    fn op_placement_is_reported() {
        let c = 1000;
        let ops = [op(200, 0, 500), op(50, 25, 600)];
        let mut placed = Vec::new();
        let out = evaluate_with(c, 10, &ops, |i, s, e| placed.push((i, s, e)));
        assert_eq!(placed, vec![(0, 500, 700), (1, 700, 775)]);
        assert_eq!(out.overlapped_ps, 275);
        assert_eq!(out.total_ps, 1010);
    }

    #[test]
    fn empty_schedule_is_compute_plus_apply() {
        let out = evaluate(123, 45, &[]);
        assert_eq!(out.total_ps, 168);
        assert_eq!(out.overlapped_ps, 0);
        assert_eq!(out.exposed_ps(), 0);
    }

    #[test]
    fn buckets_cover_exactly_without_overlap() {
        for (n, elem, bytes, want_buckets) in [
            (100usize, 4u64, 0u64, 1usize), // unbucketed
            (100, 4, 4000, 1),              // bucket ≥ payload
            (100, 4, 100, 4),               // 25 elems per bucket
            (100, 4, 120, 4),               // 30,30,30,10
            (7, 4, 8, 4),                   // 2,2,2,1 — ragged
            (5, 4, 1, 5),                   // sub-element bucket clamps to 1
            (0, 4, 64, 1),                  // empty payload, stable shape
        ] {
            let ranges: Vec<_> = buckets(n, elem, bytes).collect();
            assert_eq!(ranges.len(), want_buckets, "n={n} bytes={bytes}");
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "gapless");
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(next, n, "covers the payload");
        }
    }

    #[test]
    fn ready_at_is_monotone_and_bounded() {
        let c = 1_000_000u64;
        let total = 977u64;
        let mut last = 0u64;
        for b in 0..=total {
            let t = ready_at(c, b, total);
            assert!(t >= last && t <= c);
            last = t;
        }
        assert_eq!(ready_at(c, total, total), c, "last byte lands at C");
        assert_eq!(ready_at(c, 0, 0), c, "no gradients → ready at end");
    }

    proptest! {
        /// Critical path never exceeds the serial sum, equals it when
        /// overlap is off (ready = compute), and the outcome satisfies
        /// the exact identities the attribution relies on.
        #[test]
        fn critical_path_bounded_by_serial_sum(
            compute in 0u64..2_000_000,
            apply in 0u64..100_000,
            intra in proptest::collection::vec(0u64..500_000, 0..12),
            inter in proptest::collection::vec(0u64..500_000, 0..12),
            frac in proptest::collection::vec(0f64..1.0, 0..12),
        ) {
            let n = intra.len().min(inter.len()).min(frac.len());
            let ops: Vec<CommOp> = (0..n)
                .map(|i| op(intra[i], inter[i], (compute as f64 * frac[i]) as u64))
                .collect();
            let total_comm: u64 = ops.iter().map(CommOp::duration_ps).sum();
            let out = evaluate(compute, apply, &ops);
            let serial = serial_total_ps(compute, apply, &ops);
            prop_assert!(out.total_ps <= serial);
            prop_assert!(out.total_ps >= compute + apply);
            // Exact partition identities — no epsilon anywhere.
            prop_assert_eq!(out.exposed_ps() + out.overlapped_ps, total_comm);
            prop_assert_eq!(out.total_ps, compute + out.exposed_ps() + apply);
            prop_assert!(out.overlapped_ps <= compute);
            // Overlap off: pin every ready to compute — exact equality.
            let serial_ops: Vec<CommOp> =
                ops.iter().map(|o| CommOp { ready_ps: compute, ..*o }).collect();
            let off = evaluate(compute, apply, &serial_ops);
            prop_assert_eq!(off.total_ps, serial);
            prop_assert_eq!(off.overlapped_ps, 0);
            prop_assert_eq!(off.exposed_intra_ps, ops.iter().map(|o| o.intra_ps).sum::<u64>());
            prop_assert_eq!(off.exposed_inter_ps, ops.iter().map(|o| o.inter_ps).sum::<u64>());
        }
    }

    /// A hand-built word-LM step at `gpus` ranks: a dense payload, an
    /// input and an output exchange, every payload `k`× the unit one at
    /// fixed codec ratios (identity unless `xcfg` names a codec).
    fn step(
        cost: &CostModel,
        xcfg: ExchangeConfig,
        gpus: usize,
        gpn: usize,
        k: u64,
    ) -> StepSchedule<'_> {
        let coded = |raw: u64| match xcfg.codec {
            WireCodecId::Identity => raw,
            _ => raw * 3 / 4,
        };
        let elem = xcfg.grad_wire().elem_bytes();
        let (dim, tokens) = (16usize, 96 * k as usize);
        let exchange = |ug: u64| {
            let (index_raw, reduce_raw) =
                (tokens as u64 * 4 * gpus as u64, ug * k * dim as u64 * elem);
            ExchangeLoad {
                local_tokens: tokens,
                unique_global: (ug * k) as usize,
                index_enc_bytes: coded(index_raw),
                // Each node sees two thirds of the global set.
                node_unique: gpus.div_ceil(gpn) * (ug * k) as usize * 2 / 3,
                reduce: (coded(reduce_raw), reduce_raw),
            }
        };
        let dense_elems = 5_003 * k as usize;
        let dense_raw = dense_elems as u64 * elem;
        StepSchedule {
            cost,
            xcfg,
            gpus,
            gpn,
            overlap: xcfg.bucket_bytes > 0,
            compute_ps: 3_000_000,
            dense_elems,
            dim,
            out_dim: dim,
            delay_ps: vec![0; gpus],
            load: StepLoad {
                dense: (coded(dense_raw), dense_raw),
                input: exchange(50),
                output: Some(exchange(59)),
            },
        }
    }

    /// Every rank's clock for `sched`, no delays.
    fn clocks(sched: &StepSchedule) -> Vec<StepClock> {
        let mut ops = Vec::new();
        let peaks = sched.price_all(&mut ops);
        (0..sched.gpus)
            .map(|q| sched.clock(q, peaks, &mut ops, None))
            .collect()
    }

    /// `xcfg` on its two-tier schedules: any nonzero `gpus_per_node`
    /// selects them, on the nodes of the group the step is priced on.
    fn two_tier(xcfg: ExchangeConfig) -> ExchangeConfig {
        ExchangeConfig {
            gpus_per_node: 1,
            ..xcfg
        }
    }

    /// The exchange stacks the clock must price: the baseline, unique,
    /// unique + FP16, unique + lossless codec, unique overlapped in
    /// 1 KiB buckets — flat and two-tier.
    fn stacks() -> Vec<ExchangeConfig> {
        let codec = ExchangeConfig {
            codec: WireCodecId::Lossless,
            ..TechniqueStack::Unique.exchange()
        };
        let bucketed = ExchangeConfig {
            bucket_bytes: 1 << 10,
            ..TechniqueStack::Unique.exchange()
        };
        let flat = [
            TechniqueStack::Baseline.exchange(),
            TechniqueStack::Unique.exchange(),
            TechniqueStack::Full.exchange(),
            codec,
            bucketed,
        ];
        flat.into_iter().chain(flat.map(two_tier)).collect()
    }

    /// A rank's α account is Σ over its ops of each op's quantised α,
    /// which no payload moves: the op count of each collective times
    /// that collective's α on an empty payload, and at most the ops'
    /// time on that tier. Flat over three nodes; two-tier with a ragged
    /// last node of one; two-tier with codec-framed payloads in buckets.
    #[test]
    fn alpha_account_is_op_count_times_empty_payload_alpha() {
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        let two_tier = ExchangeConfig {
            gpus_per_node: 3,
            ..TechniqueStack::Full.exchange()
        };
        let codec = ExchangeConfig {
            gpus_per_node: 3,
            bucket_bytes: 1 << 10,
            codec: WireCodecId::Lossless,
            ..TechniqueStack::Unique.exchange()
        };
        for (xcfg, gpus, gpn) in [
            (TechniqueStack::Unique.exchange(), 5, 2),
            (two_tier, 7, 3),
            (codec, 7, 3),
        ] {
            let sched = step(&cost, xcfg, gpus, gpn, 1);
            let topology = xcfg.topology();
            let empty = simgpu::TierBytes::default();
            for q in 0..gpus {
                let mut ops = Vec::new();
                let (_, alpha) = sched.ops_for(&mut ops, q);
                let gather = cost.unique_gather(empty, gpus, gpn, topology, q);
                let reduce = cost.allreduce(empty, gpus, gpn, topology, q);
                let gathers = ops
                    .iter()
                    .filter(|o| o.label.ends_with("allgather"))
                    .count() as u64;
                let reduces = ops.len() as u64 - gathers;
                let want = [
                    gathers * gather.intra.alpha_ps() + reduces * reduce.intra.alpha_ps(),
                    gathers * gather.inter.alpha_ps() + reduces * reduce.inter.alpha_ps(),
                ];
                assert_eq!(alpha, want, "{xcfg:?} {gpus}/{gpn} rank {q}");
                assert!(alpha[0] <= ops.iter().map(|o| o.intra_ps).sum());
                assert!(alpha[1] <= ops.iter().map(|o| o.inter_ps).sum());
            }
        }
    }

    /// α counts hops, never bytes: scaling every payload of a step
    /// leaves each rank's α account bit-unchanged. (With buckets the
    /// payload sets the op count, and α follows the op count, so the
    /// bucketed stack is left out.)
    #[test]
    fn step_alpha_is_payload_independent() {
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        for xcfg in stacks().into_iter().filter(|x| x.bucket_bytes == 0) {
            for (gpus, gpn) in [(4, 8), (11, 4), (12, 4)] {
                let alpha = |k| {
                    clocks(&step(&cost, xcfg, gpus, gpn, k))
                        .iter()
                        .map(|c| [c.wire_intra_alpha_ps, c.wire_inter_alpha_ps])
                        .collect::<Vec<_>>()
                };
                let unit = alpha(1);
                assert!(unit.iter().any(|a| a != &[0; 2]), "{xcfg:?} {gpus}/{gpn}");
                for k in [2, 3, 64] {
                    assert_eq!(alpha(k), unit, "{xcfg:?} {gpus}/{gpn} k {k}");
                }
            }
        }
    }

    /// A faster fabric never lengthens a step: halving either latency
    /// or doubling either bandwidth never raises any rank's step time.
    #[test]
    fn faster_links_never_lengthen_a_step() {
        let hw = HardwareConfig::titan_x_cluster();
        let slow = CostModel::new(hw.clone(), 0.4);
        for fast in hw.faster_links().map(|hw| CostModel::new(hw, 0.4)) {
            for xcfg in stacks() {
                for (gpus, gpn) in [(4, 8), (11, 4), (12, 4)] {
                    let t = |cost| {
                        clocks(&step(cost, xcfg, gpus, gpn, 1))
                            .iter()
                            .map(|c| c.sim_time_ps)
                            .collect::<Vec<_>>()
                    };
                    let (fast, slow) = (t(&fast), t(&slow));
                    for (q, (f, s)) in fast.iter().zip(&slow).enumerate() {
                        assert!(f <= s, "{xcfg:?} {gpus}/{gpn} rank {q}: {f} > {s}");
                    }
                }
            }
        }
    }

    /// Weak scaling at a fixed per-rank payload never gets faster with
    /// more nodes: 8 GPUs per node, 1..=24 nodes, flat and two-tier.
    #[test]
    fn step_time_is_monotone_in_nodes() {
        let cost = CostModel::new(HardwareConfig::titan_x_cluster(), 0.4);
        for xcfg in stacks() {
            let mut last = 0;
            for nodes in 1..=24 {
                let t = clocks(&step(&cost, xcfg, 8 * nodes, 8, 1))[0].sim_time_ps;
                assert!(t >= last, "{xcfg:?}: {nodes} nodes {t} < {last}");
                last = t;
            }
        }
    }
}
