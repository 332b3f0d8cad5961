//! Lightweight phase timing for collective-heavy hot loops.
//!
//! The exchange layer wants per-phase wall-clock (gather / unique /
//! scatter / allreduce / apply) in two places — its own stats and,
//! when tracing is on, the rank's [`TraceRecorder`] — without paying
//! for more than one monotonic clock read per phase. [`PhaseTimer`] is
//! a resettable stopwatch: `lap()` closes the current lap with a single
//! clock read, feeds both sinks from it, and opens the next lap.

use crate::trace::{SpanKind, TraceRecorder};
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
