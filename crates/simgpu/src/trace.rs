//! Per-rank structured tracing: span records, ring-buffer recorder and
//! the Chrome-trace exporter.
//!
//! The simulator already *measures* (collectives' returned bytes, phase
//! timers) and *models* (α–β cost) — this module makes individual
//! events visible. Each rank owns one [`TraceRecorder`]: a pre-allocated ring buffer of
//! [`TraceEvent`]s written by that rank's thread only, so the hot path
//! takes no lock and performs no allocation. When the buffer fills, the
//! oldest events are overwritten and counted in `dropped` — recording
//! never blocks and never grows.
//!
//! Two clocks coexist deliberately:
//!
//! * **wall-clock nanoseconds** (`t_start_ns` / `t_end_ns`, measured
//!   from the recorder's origin `Instant`) order events for the
//!   `chrome://tracing` timeline — they rank the *implementation*;
//! * **simulated picoseconds** (see [`secs_to_ps`]) carry the α–β cost
//!   model's attribution in exact integer arithmetic — they rank the
//!   *modelled fabric*. `zipf_lm`'s `TimeAttribution` buckets are sums
//!   of these and reconcile exactly against the step's simulated time.
//!
//! [`chrome_trace_json`] serialises a set of per-rank [`TraceLog`]s into
//! the Trace Event Format (load via `chrome://tracing` or Perfetto):
//! every rank gets two tracks, one for work spans and one for barrier
//! waits, so skew is visible as aligned gaps.

use std::time::Instant;

/// What a [`TraceEvent`] spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Local forward/backward model work.
    Compute,
    /// Index (and, for the baseline path, row) ALLGATHER.
    Gather,
    /// Local duplicate reduction / global unique-set derivation.
    Unique,
    /// Scatter of reduced rows into the canonical `Ug×D` layout.
    Scatter,
    /// Ring ALLREDUCE (dense gradients, `Ug×D` matrix, scalar loss).
    AllReduce,
    /// Wall-clock time this rank spent parked in `AbortBarrier::wait`.
    BarrierWait,
    /// Injected `FaultPlan` straggler delay served by this rank.
    StragglerDelay,
    /// Application of the synchronised update to the local table.
    Apply,
    /// Elastic-recovery stall: wall-clock between a failure being
    /// observed and the shrunken world resuming from a checkpoint
    /// (appended by the recovery driver, not recorded on the hot path).
    Recovery,
}

impl SpanKind {
    /// Stable display name (also the Chrome-trace event name).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Compute => "Compute",
            SpanKind::Gather => "Gather",
            SpanKind::Unique => "Unique",
            SpanKind::Scatter => "Scatter",
            SpanKind::AllReduce => "AllReduce",
            SpanKind::BarrierWait => "BarrierWait",
            SpanKind::StragglerDelay => "StragglerDelay",
            SpanKind::Apply => "Apply",
            SpanKind::Recovery => "Recovery",
        }
    }
}

/// One recorded span on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Rank that recorded the span.
    pub rank: u32,
    /// Global training step the span belongs to.
    pub step: u64,
    /// Span kind.
    pub span: SpanKind,
    /// Wall-clock start, nanoseconds since the recorder's origin.
    pub t_start_ns: u64,
    /// Wall-clock end, nanoseconds since the recorder's origin.
    pub t_end_ns: u64,
    /// Wire bytes this rank put on the fabric during the span (0 for
    /// local work), as its collectives returned them. Summed over all
    /// ranks' events these reconcile exactly with `TrainReport::traffic`.
    pub bytes: u64,
}

impl TraceEvent {
    /// Span duration in wall-clock nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// A finished rank's trace: events in chronological record order.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Rank the log belongs to.
    pub rank: u32,
    /// Recorded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring filled.
    pub dropped: u64,
}

impl TraceLog {
    /// Total wire bytes across all recorded events.
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| e.bytes).sum()
    }

    /// Summed wall-clock duration of all spans of `kind`.
    pub fn span_ns(&self, kind: SpanKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.span == kind)
            .map(TraceEvent::duration_ns)
            .sum()
    }
}

/// Per-rank span recorder: single-writer ring buffer, no locks, no
/// steady-state allocation.
///
/// The buffer is allocated once at construction; `record` either pushes
/// (while filling) or overwrites the oldest slot (once full), bumping
/// `dropped`. Timestamps come from one origin `Instant` per recorder,
/// so all logs of one run share a clock when the recorders are created
/// from [`TraceRecorder::group`].
#[derive(Debug)]
pub struct TraceRecorder {
    rank: u32,
    origin: Instant,
    step: u64,
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder for `rank` holding at most `capacity` events
    /// (clamped to ≥ 1), with its own clock origin.
    pub fn new(rank: u32, capacity: usize) -> Self {
        Self::with_origin(rank, capacity, Instant::now())
    }

    /// A recorder whose timestamps count from `origin` — use one shared
    /// origin per run so ranks' timelines align.
    pub fn with_origin(rank: u32, capacity: usize, origin: Instant) -> Self {
        let capacity = capacity.max(1);
        Self {
            rank,
            origin,
            step: 0,
            events: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// One recorder per rank, all sharing a single clock origin.
    pub fn group(world: usize, capacity: usize) -> Vec<TraceRecorder> {
        let origin = Instant::now();
        (0..world)
            .map(|r| Self::with_origin(r as u32, capacity, origin))
            .collect()
    }

    /// Rank this recorder belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Nanoseconds since the recorder's origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `t` on this recorder's clock: nanoseconds since its origin.
    pub(crate) fn ns_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stamps subsequent events with `step`, so call sites below the
    /// trainer (the exchange phases) need no step plumbing.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Records one span. O(1), lock-free, allocation-free once the ring
    /// reached capacity (and the ring never exceeds it).
    pub fn record(&mut self, span: SpanKind, t_start_ns: u64, t_end_ns: u64, bytes: u64) {
        let event = TraceEvent {
            rank: self.rank,
            step: self.step,
            span,
            t_start_ns,
            t_end_ns,
            bytes,
        };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Convenience: records a span ending now that began `start_ns`
    /// (a value from an earlier [`TraceRecorder::now_ns`] call).
    pub fn record_since(&mut self, span: SpanKind, start_ns: u64, bytes: u64) {
        let end = self.now_ns();
        self.record(span, start_ns, end, bytes);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the recorder, un-rotating the ring so the returned log
    /// is oldest-first even after wraparound.
    pub fn finish(mut self) -> TraceLog {
        if self.dropped > 0 {
            self.events.rotate_left(self.head);
        }
        TraceLog {
            rank: self.rank,
            events: self.events,
            dropped: self.dropped,
        }
    }
}

/// Converts cost-model seconds to integer picoseconds.
///
/// Attribution arithmetic happens on these integers: each α–β term is
/// quantised *individually*, so sums of terms equal the sum of their
/// quantisations by construction — the reconciliation invariant
/// (`TimeAttribution` buckets summing exactly to a step's simulated
/// time) needs no epsilon.
pub fn secs_to_ps(secs: f64) -> u64 {
    (secs.max(0.0) * 1e12).round() as u64
}

/// Microsecond string with nanosecond precision (`ns/1000.ns%1000`),
/// via integer math so output is bit-stable across platforms.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_meta(out: &mut String, first: &mut bool, tid: u64, name: &str, sort_index: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
         \"args\":{{\"name\":\"{name}\"}}}},\
         {{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
         \"args\":{{\"sort_index\":{sort_index}}}}}"
    ));
}

/// One Chrome Trace counter series: a named track of `(t_ns, value)`
/// points rendered as a "C"-phase event each, so tracing UIs plot the
/// trend (wire bytes per step, unique-set size per step, …) alongside
/// the span tracks without external scripts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterTrack {
    /// Track (and series) name shown by the tracing UI.
    pub name: &'static str,
    /// `(wall-clock ns since origin, value)` samples in display order.
    pub points: Vec<(u64, u64)>,
}

/// Serialises per-rank logs into Chrome Trace Event Format JSON.
///
/// Load the string (saved as a `.json` file) in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Track layout: rank `r`'s work spans live
/// on `tid = 2r` ("rank r"), its [`SpanKind::BarrierWait`] spans on
/// `tid = 2r + 1` ("rank r waits"), declared in ascending rank order.
/// Timestamps are microseconds with nanosecond precision; each event's
/// `args` carry its step and wire bytes. Output is byte-stable for
/// identical input logs (golden-tested in `tests/telemetry_golden.rs`).
///
/// A log with `dropped > 0` additionally carries one
/// `trace_truncated` metadata event on its work track naming the
/// overwritten-span count, so a truncated trace is never silently
/// trusted (logs with `dropped == 0` serialise exactly as before).
pub fn chrome_trace_json(logs: &[TraceLog]) -> String {
    chrome_trace_json_with_counters(logs, &[])
}

/// [`chrome_trace_json`] plus counter tracks: each [`CounterTrack`]
/// point becomes a `"ph":"C"` event on `tid = 0`, named after the
/// track, after the span events. With an empty `counters` slice the
/// output is byte-identical to [`chrome_trace_json`].
pub fn chrome_trace_json_with_counters(logs: &[TraceLog], counters: &[CounterTrack]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for log in logs {
        let r = u64::from(log.rank);
        push_meta(&mut out, &mut first, 2 * r, &format!("rank {r}"), 2 * r);
        push_meta(
            &mut out,
            &mut first,
            2 * r + 1,
            &format!("rank {r} waits"),
            2 * r + 1,
        );
    }
    for log in logs {
        if log.dropped > 0 {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"rank\":{},\"dropped\":{}}}}}",
                2 * u64::from(log.rank),
                log.rank,
                log.dropped,
            ));
        }
    }
    for log in logs {
        for e in &log.events {
            if !first {
                out.push(',');
            }
            first = false;
            let tid = match e.span {
                SpanKind::BarrierWait => 2 * u64::from(e.rank) + 1,
                _ => 2 * u64::from(e.rank),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"step\":{},\"bytes\":{}}}}}",
                e.span.label(),
                micros(e.t_start_ns),
                micros(e.duration_ns()),
                e.step,
                e.bytes,
            ));
        }
    }
    for track in counters {
        for &(t_ns, value) in &track.points {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\
                 \"ts\":{},\"args\":{{\"{}\":{}}}}}",
                track.name,
                micros(t_ns),
                track.name,
                value,
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Which execution stream of the modelled step a [`SimSpan`] occupies.
///
/// The overlapped step schedule runs two streams per rank: the compute
/// stream (forward/backward, then the gradient application) and the
/// comm stream (the serialized collective ops). A comm span whose
/// interval intersects a compute span *is* the overlap — the hidden
/// time the `overlapped_ps` attribution bucket counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimStream {
    /// Local model work and gradient application.
    Compute,
    /// Collective operations (serialized per rank).
    Comm,
}

/// One op instance on a rank's *simulated* step timeline, positioned in
/// integer picoseconds since the start of the run — the cost model's
/// clock, not wall clock. Produced by the trainer's step schedule and
/// rendered by [`sim_trace_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpan {
    /// Rank the span belongs to.
    pub rank: u32,
    /// Global training step.
    pub step: u64,
    /// Stream the span occupies (one Chrome track per stream per rank).
    pub stream: SimStream,
    /// Stable op name (e.g. `"DenseAllReduce"`).
    pub label: &'static str,
    /// Bucket index within the op family (0 for unbucketed ops).
    pub bucket: u32,
    /// Simulated start, picoseconds since run start.
    pub t_start_ps: u64,
    /// Simulated end, picoseconds since run start.
    pub t_end_ps: u64,
}

/// Microsecond string with picosecond precision (`ps/1e6.ps%1e6`), via
/// integer math so output is bit-stable across platforms.
fn micros_ps(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Serialises simulated-schedule spans into Chrome Trace Event Format
/// JSON (load in `chrome://tracing` or Perfetto, like
/// [`chrome_trace_json`] — but this timeline is the *cost model's*, in
/// exact picoseconds, not wall clock). Track layout: rank `r`'s compute
/// stream on `tid = 2r` ("rank r compute"), its comm stream on
/// `tid = 2r + 1` ("rank r comm"), declared in first-appearance order —
/// so overlapped collectives render as comm spans running concurrently
/// with the compute span directly above them. Byte-stable for identical
/// input.
pub fn sim_trace_json(spans: &[SimSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut seen: Vec<u32> = Vec::new();
    for s in spans {
        if !seen.contains(&s.rank) {
            seen.push(s.rank);
        }
    }
    for &r in &seen {
        let r = u64::from(r);
        push_meta(
            &mut out,
            &mut first,
            2 * r,
            &format!("rank {r} compute"),
            2 * r,
        );
        push_meta(
            &mut out,
            &mut first,
            2 * r + 1,
            &format!("rank {r} comm"),
            2 * r + 1,
        );
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = match s.stream {
            SimStream::Compute => 2 * u64::from(s.rank),
            SimStream::Comm => 2 * u64::from(s.rank) + 1,
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{{\"step\":{},\"bucket\":{}}}}}",
            s.label,
            micros_ps(s.t_start_ps),
            micros_ps(s.t_end_ps.saturating_sub(s.t_start_ps)),
            s.step,
            s.bucket,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_then_overwrites_oldest() {
        let mut rec = TraceRecorder::new(3, 4);
        for i in 0..6u64 {
            rec.set_step(i);
            rec.record(SpanKind::Compute, i * 10, i * 10 + 5, i);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 2);
        let log = rec.finish();
        // Oldest-first after un-rotation: steps 2..6 survive.
        let steps: Vec<u64> = log.events.iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![2, 3, 4, 5]);
        assert_eq!(log.dropped, 2);
        assert_eq!(log.total_bytes(), 2 + 3 + 4 + 5);
        assert!(log.events.iter().all(|e| e.rank == 3));
    }

    #[test]
    fn capacity_never_exceeded_and_no_realloc() {
        let mut rec = TraceRecorder::new(0, 8);
        let cap = rec.events.capacity();
        for _ in 0..100 {
            rec.record(SpanKind::Gather, 0, 1, 2);
        }
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.events.capacity(), cap, "ring must not reallocate");
        assert_eq!(rec.dropped(), 92);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut rec = TraceRecorder::new(0, 0);
        rec.record(SpanKind::Apply, 1, 2, 0);
        rec.record(SpanKind::Apply, 3, 4, 0);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let rec = TraceRecorder::new(0, 4);
        let a = rec.now_ns();
        let b = rec.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn group_shares_an_origin() {
        let recs = TraceRecorder::group(3, 16);
        assert_eq!(recs.len(), 3);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.rank(), i as u32);
            assert_eq!(r.origin, recs[0].origin);
        }
    }

    #[test]
    fn secs_to_ps_quantises_exactly() {
        assert_eq!(secs_to_ps(0.0), 0);
        assert_eq!(secs_to_ps(1.0), 1_000_000_000_000);
        assert_eq!(secs_to_ps(2.5e-6), 2_500_000);
        assert_eq!(secs_to_ps(-1.0), 0, "negative time clamps to zero");
    }

    #[test]
    fn span_ns_sums_by_kind() {
        let mut rec = TraceRecorder::new(0, 8);
        rec.record(SpanKind::Gather, 0, 10, 0);
        rec.record(SpanKind::Apply, 10, 15, 0);
        rec.record(SpanKind::Gather, 15, 30, 0);
        let log = rec.finish();
        assert_eq!(log.span_ns(SpanKind::Gather), 25);
        assert_eq!(log.span_ns(SpanKind::Apply), 5);
        assert_eq!(log.span_ns(SpanKind::AllReduce), 0);
    }

    #[test]
    fn sim_json_routes_streams_and_keeps_ps_precision() {
        let spans = [
            SimSpan {
                rank: 0,
                step: 3,
                stream: SimStream::Compute,
                label: "Compute",
                bucket: 0,
                t_start_ps: 0,
                t_end_ps: 2_000_001,
            },
            SimSpan {
                rank: 0,
                step: 3,
                stream: SimStream::Comm,
                label: "DenseAllReduce",
                bucket: 1,
                t_start_ps: 1_000_000,
                t_end_ps: 1_500_007,
            },
        ];
        let json = sim_trace_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"rank 0 compute\""));
        assert!(json.contains("\"name\":\"rank 0 comm\""));
        // Compute on tid 0, comm on tid 1; ps precision survives as
        // six fractional digits of the microsecond timestamps.
        assert!(json.contains("\"name\":\"Compute\",\"cat\":\"sched\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0.000000,\"dur\":2.000001"));
        assert!(json.contains("\"name\":\"DenseAllReduce\",\"cat\":\"sched\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000000,\"dur\":0.500007"));
        assert!(json.contains("\"args\":{\"step\":3,\"bucket\":1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(sim_trace_json(&[]).ends_with("[]}"));
    }

    #[test]
    fn chrome_json_is_wellformed_and_routes_waits() {
        let mut rec = TraceRecorder::new(1, 8);
        rec.set_step(7);
        rec.record(SpanKind::AllReduce, 1000, 2500, 64);
        rec.record(SpanKind::BarrierWait, 2500, 3000, 0);
        let json = chrome_trace_json(&[rec.finish()]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Work span on tid 2, wait span on tid 3.
        assert!(json
            .contains("\"name\":\"AllReduce\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":2"));
        assert!(json
            .contains("\"name\":\"BarrierWait\",\"cat\":\"sim\",\"ph\":\"X\",\"pid\":0,\"tid\":3"));
        assert!(json.contains("\"ts\":1.000,\"dur\":1.500"));
        assert!(json.contains("\"args\":{\"step\":7,\"bytes\":64}"));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"name\":\"rank 1 waits\""));
        // Balanced braces — cheap well-formedness proxy.
        assert_eq!(json.matches('{').count(), json.matches('}').count(),);
    }

    #[test]
    fn dropped_spans_surface_as_metadata_only_when_nonzero() {
        let clean = TraceLog {
            rank: 0,
            events: vec![],
            dropped: 0,
        };
        assert!(!chrome_trace_json(std::slice::from_ref(&clean)).contains("trace_truncated"));
        let truncated = TraceLog {
            rank: 2,
            events: vec![],
            dropped: 17,
        };
        let json = chrome_trace_json(&[clean, truncated]);
        assert!(json.contains(
            "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":0,\"tid\":4,\
             \"args\":{\"rank\":2,\"dropped\":17}}"
        ));
        assert_eq!(json.matches("trace_truncated").count(), 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn counter_tracks_emit_c_phase_events() {
        let track = CounterTrack {
            name: "wire_bytes_per_step",
            points: vec![(1000, 64), (2000, 128)],
        };
        let json = chrome_trace_json_with_counters(&[], &[track]);
        assert!(json.contains(
            "{\"name\":\"wire_bytes_per_step\",\"cat\":\"sim\",\"ph\":\"C\",\"pid\":0,\
             \"tid\":0,\"ts\":1.000,\"args\":{\"wire_bytes_per_step\":64}}"
        ));
        assert!(json.contains("\"ts\":2.000,\"args\":{\"wire_bytes_per_step\":128}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // No counters → byte-identical to the plain exporter.
        assert_eq!(
            chrome_trace_json_with_counters(&[], &[]),
            chrome_trace_json(&[])
        );
    }
}
