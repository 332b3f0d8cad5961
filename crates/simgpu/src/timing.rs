//! Lightweight phase timing for collective-heavy hot loops.
//!
//! A threaded rank's exchange wants per-phase wall-clock (gather /
//! unique / scatter / allreduce / apply) in its stats without paying
//! for more than one monotonic clock read per phase. [`PhaseTimer`] is
//! a resettable stopwatch: `lap()` closes the current lap with a single
//! clock read and opens the next one.
//!
//! A lockstep driver runs every rank's phases in turn on one thread, so
//! a rank's time is not one stopwatch: [`RankClock`] remembers when the
//! rank last finished a phase, and a collective that starts later
//! charges the gap to the rank as barrier wait.

use crate::trace::{SpanKind, TraceLog, TraceRecorder};
use std::time::Instant;

/// A monotonic lap timer; each [`PhaseTimer::lap`] call closes the
/// current lap and opens the next.
#[derive(Debug)]
pub struct PhaseTimer {
    last: Instant,
}

impl PhaseTimer {
    /// Starts the first lap.
    pub fn start() -> Self {
        PhaseTimer {
            last: Instant::now(),
        }
    }

    /// Closes the current lap: returns its nanoseconds (saturating at
    /// `u64::MAX`).
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = ns_between(self.last, now);
        self.last = now;
        ns
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
        let mut t = PhaseTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let a = t.lap();
        assert!(a >= 2_000_000, "lap too short: {a}");
        // Second lap measures only the time since the first.
        let b = t.lap();
        assert!(b < a, "lap did not reset: {b} vs {a}");
    }
}
