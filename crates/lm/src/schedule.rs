//! Explicit step op schedule with critical-path timing.
//!
//! The trainer's step used to be a hardcoded serial sequence — compute,
//! then every collective, then apply — so modelled wire time and compute
//! time always *added*. This module makes the step an explicit schedule
//! of ops with dependency edges, evaluated against the α–β cost model:
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
//! epsilon. With overlap off the caller pins every `ready_ps` to
//! `compute_ps`, the comm stream degenerates to the serial chain, and
//! `T` equals the pre-schedule `compute + wire + touch` sum bit for bit.
//!
//! **Attribution contract** (`TimeAttribution`): the hidden comm time is
//! reported as `overlapped_ps` and carved out of the compute bucket
//! (`compute_ps_bucket = compute_ps + apply_ps − overlapped_ps`), while
//! the wire buckets carry only each op's *exposed* remainder — so the
//! seven buckets still sum to `T` exactly. Within one op the hidden
//! prefix is charged intra-tier first (the hierarchical schedule's
//! node-local phases precede its inter-node ring; for flat ops one tier
//! is zero and the convention is vacuous).

use simgpu::{CommError, Rank, TierBytes, Topology, Wire};
use std::ops::Range;

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
/// the hook the trainer uses to emit simulated-timeline trace spans.
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

/// What one bucketed ALLREDUCE put on the wire for this rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReducedBytes {
    /// Per-tier bytes the collectives charged this rank — Σ over
    /// buckets of what [`Rank::all_reduce`] returned.
    pub sent: TierBytes,
    /// Raw payload bytes: elements × the wire format's element size.
    pub raw: u64,
    /// The same payloads as single frames in the wire format: Σ over
    /// buckets of the codec's encoded length on the *reduced* bucket
    /// (rank-invariant — the reduced payload is identical everywhere).
    /// Equals `raw` for fixed-width formats, so the step scheduler's
    /// enc/raw ratio collapses to exactly 1; never exceeds it (codecs
    /// never expand).
    pub enc: u64,
}

/// ALLREDUCEs `data` in place, one collective call per gradient bucket
/// of at most `bucket_bytes` wire bytes (see [`buckets`]) — the only
/// place gradient buckets meet a collective: the trainer's dense
/// ALLREDUCE and the exchange's step-6 `Ug×D` ALLREDUCE both call it.
/// Reduction is elementwise under a canonical leader order, so neither
/// the slicing nor the topology moves a bit; the returned bytes are
/// the collective's own, exact even when a bucket does not divide by
/// the world size.
pub fn all_reduce_bucketed(
    rank: &Rank,
    data: &mut [f32],
    wire: Wire<'_>,
    topology: Topology,
    bucket_bytes: u64,
) -> Result<ReducedBytes, CommError> {
    let mut out = ReducedBytes {
        raw: data.len() as u64 * wire.elem_bytes(),
        ..ReducedBytes::default()
    };
    for range in buckets(data.len(), wire.elem_bytes(), bucket_bytes) {
        let bucket = &mut data[range];
        out.sent += rank.all_reduce(bucket, wire, topology)?;
        out.enc += wire.encoded_len(bucket);
    }
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
}
