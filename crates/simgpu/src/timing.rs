//! Lightweight phase timing for collective-heavy hot loops.
//!
//! The exchange layer wants per-phase wall-clock (gather / unique /
//! scatter / allreduce / apply) in two places — its own stats and,
//! when tracing is on, the rank's [`TraceRecorder`] — without paying
//! for more than one monotonic clock read per phase. [`PhaseTimer`] is
//! a resettable stopwatch: `lap()` closes the current lap with a single
//! clock read, feeds both sinks from it, and opens the next lap.
//!
//! A lockstep driver runs every rank's phases in turn on one thread, so
//! a rank's time is not one stopwatch: [`RankClock`] remembers when the
//! rank last finished a phase, and a collective that starts later
//! charges the gap to the rank as barrier wait.

use crate::trace::{SpanKind, TraceLog, TraceRecorder};
use std::time::Instant;

/// A monotonic lap timer over an optional trace recorder; each
/// [`PhaseTimer::lap`] call closes the current lap and opens the next.
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    last: Instant,
    trace: Option<&'a mut TraceRecorder>,
}

impl<'a> PhaseTimer<'a> {
    /// Starts the first lap. With `trace` given, every lap is also
    /// recorded there as a span; `None` costs one branch per lap.
    pub fn start(trace: Option<&'a mut TraceRecorder>) -> Self {
        PhaseTimer {
            last: Instant::now(),
            trace,
        }
    }

    /// Closes the current lap: returns its nanoseconds (saturating at
    /// `u64::MAX`) and, when tracing, records it as `span` carrying
    /// `bytes` over exactly `[previous lap, now]`.
    pub fn lap(&mut self, span: SpanKind, bytes: u64) -> u64 {
        let now = Instant::now();
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(span, trace.ns_at(self.last), trace.ns_at(now), bytes);
        }
        let dt = now.duration_since(self.last);
        self.last = now;
        u64::try_from(dt.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Nanoseconds from `a` to `b`, saturating.
fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// One rank's wall clock under a lockstep driver: its optional trace
/// recorder, the instant it finished its latest phase (`ready`) and the
/// barrier wait it accrued since the last [`RankClock::take_waited_ns`].
/// A collective every rank joins starts once the last one is ready;
/// each rank waited from its own `ready` to that start.
#[derive(Debug)]
pub struct RankClock {
    trace: Option<TraceRecorder>,
    ready: Instant,
    /// Whether waits are summed (`waited_ns` stays 0 otherwise).
    track_wait: bool,
    waited_ns: u64,
}

impl RankClock {
    /// A rank ready now, recording into `trace` when given and summing
    /// its barrier waits when `track_wait`.
    pub fn new(trace: Option<TraceRecorder>, track_wait: bool) -> Self {
        RankClock {
            trace,
            ready: Instant::now(),
            track_wait,
            waited_ns: 0,
        }
    }

    /// The rank's trace recorder, when tracing.
    pub fn trace(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.as_mut()
    }

    /// Runs `f` as one of the rank's own phases, recorded (when
    /// tracing) as a `kind` span carrying `bytes` of its result. Returns
    /// the result and the phase's nanoseconds; the rank is ready when it
    /// ends.
    pub fn phase<T>(
        &mut self,
        kind: SpanKind,
        f: impl FnOnce() -> T,
        bytes: impl FnOnce(&T) -> u64,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if let Some(rec) = self.trace.as_mut() {
            rec.record(kind, rec.ns_at(start), rec.ns_at(end), bytes(&out));
        }
        self.ready = end;
        (out, ns_between(start, end))
    }

    /// The rank finished a phase of its own just now (one not worth a
    /// span of its own).
    pub fn ready_now(&mut self) {
        self.ready = Instant::now();
    }

    /// The rank was busy on its own over `[start, end]` (an injected
    /// delay), recorded as a `kind` span; it is ready at `end`.
    pub fn busy(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        if let Some(rec) = self.trace.as_mut() {
            rec.record(kind, rec.ns_at(start), rec.ns_at(end), 0);
        }
        self.ready = end;
    }

    /// The rank took part in a collective that ran over `[start, end]`:
    /// it waited from when it was ready to `start` (a `BarrierWait` span
    /// and, when tracked, barrier wait), and its `kind` span — like a
    /// threaded rank's call, parking included — runs from then to `end`,
    /// carrying `bytes`. Returns that span's nanoseconds.
    pub fn joined(&mut self, kind: SpanKind, start: Instant, end: Instant, bytes: u64) -> u64 {
        let waited = ns_between(self.ready, start);
        if self.track_wait {
            self.waited_ns += waited;
        }
        if let Some(rec) = self.trace.as_mut() {
            let (ready, start, end) = (rec.ns_at(self.ready), rec.ns_at(start), rec.ns_at(end));
            if waited > 0 {
                rec.record(SpanKind::BarrierWait, ready, start, 0);
            }
            rec.record(kind, ready, end, bytes);
        }
        let ns = ns_between(self.ready, end);
        self.ready = end;
        ns
    }

    /// The barrier wait accrued since the previous call (0 unless
    /// tracked); the count restarts at zero.
    pub fn take_waited_ns(&mut self) -> u64 {
        std::mem::take(&mut self.waited_ns)
    }

    /// The rank's trace, when tracing.
    pub fn finish(self) -> Option<TraceLog> {
        self.trace.map(TraceRecorder::finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_are_monotone_and_reset() {
        let mut t = PhaseTimer::start(None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a = t.lap(SpanKind::Compute, 0);
        assert!(a >= 2_000_000, "lap too short: {a}");
        // Second lap measures only the time since the first.
        let b = t.lap(SpanKind::Compute, 0);
        assert!(b < a, "lap did not reset: {b} vs {a}");
    }

    #[test]
    fn traced_laps_tile_the_timeline_and_match_the_returned_nanos() {
        let mut rec = TraceRecorder::new(0, 8);
        let mut t = PhaseTimer::start(Some(&mut rec));
        let a = t.lap(SpanKind::Gather, 7);
        let b = t.lap(SpanKind::Apply, 0);
        let log = rec.finish();
        let ev = &log.events;
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].span, ev[0].bytes), (SpanKind::Gather, 7));
        assert_eq!((ev[1].span, ev[1].bytes), (SpanKind::Apply, 0));
        // One clock read per lap: spans abut and carry the lap's time.
        assert_eq!(ev[0].t_end_ns, ev[1].t_start_ns);
        assert_eq!(ev[0].t_end_ns - ev[0].t_start_ns, a);
        assert_eq!(ev[1].t_end_ns - ev[1].t_start_ns, b);
    }
}
