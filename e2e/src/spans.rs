//! The benchmark's own spans: recorded in memory around the calls it
//! makes into each layer, folded into self times, and written as one
//! Chrome-trace file per workload when the workload ends.

use std::time::Instant;

/// Track (Chrome `tid`) of spans recorded on the driver thread; rank
/// `r`'s spans go on track `r + 1`.
pub const DRIVER_TRACK: u32 = 0;

/// One span: a named interval on one track, caused by `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    pub track: u32,
}

/// Spans of one workload, on one clock.
pub struct Spans {
    pub workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    /// Open driver-thread spans, innermost last.
    open: Vec<usize>,
}

impl Spans {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span of this workload is read from; handed to
    /// rank threads so their intervals line up with the driver's.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a driver-thread span named `name`, nested in
    /// whichever span is open; returns `f`'s result and the span's id.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            track: DRIVER_TRACK,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Adds a finished interval (measured elsewhere on this clock, e.g.
    /// on a rank thread) as a child of span `parent`.
    pub fn add_child(&mut self, parent: usize, name: &str, start_ns: u64, end_ns: u64, track: u32) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: Some(parent),
            track,
        });
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome Trace Event Format (`chrome://tracing`, Perfetto): one
    /// complete event per span, timestamps in microseconds, each with
    /// its parent's name and its self time.
    pub fn chrome_trace_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut events: Vec<String> = tracks
            .iter()
            .map(|&t| {
                let label = match t {
                    DRIVER_TRACK => "benchmark driver".to_string(),
                    r => format!("rank {}", r - 1),
                };
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
                )
            })
            .collect();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let parent = s.parent.map_or("", |p| self.spans[p].name.as_str());
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\",\"self_us\":{:.3}}}}}",
                s.track,
                s.name,
                self.workload,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                parent,
                *own as f64 / 1e3,
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (ranks run
/// concurrently), so coverage is the union of their intervals, clipped
/// to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, track: u32) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            track,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let tree = vec![
            span("call", 0, 100, None, 0),
            // Two overlapping children on different ranks cover [10, 50).
            span("a", 10, 40, Some(0), 1),
            span("b", 30, 50, Some(0), 2),
            // A disjoint child, and one sticking out past the parent's end.
            span("c", 60, 70, Some(0), 1),
            span("d", 90, 130, Some(0), 2),
            // A grandchild only reduces its own parent's self time.
            span("a.inner", 15, 25, Some(1), 1),
            span("leaf", 200, 260, None, 0),
        ];
        let own = self_times(&tree);
        assert_eq!(own[0], 100 - (40 + 10 + 10));
        assert_eq!(own[1], 30 - 10);
        assert_eq!(own[2], 20);
        assert_eq!(own[4], 40);
        assert_eq!(own[5], 10);
        assert_eq!(own[6], 60);
    }

    #[test]
    fn scoped_spans_nest_and_export() {
        let mut spans = Spans::new("w");
        let ((), outer) = spans.scoped("outer", |s| {
            let ((), inner) = s.scoped("inner", |_| {});
            assert_eq!(s.span(inner).parent, Some(0));
        });
        let (start, end) = (spans.span(outer).start_ns, spans.span(outer).end_ns);
        spans.add_child(outer, "rank", start, end, 3);
        assert_eq!(spans.span(outer).parent, None);
        assert!(spans.all().iter().all(|s| s.end_ns >= s.start_ns));
        let json = spans.chrome_trace_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":\"outer\""));
        assert!(json.contains("rank 2"));
        let leaves = zlm_bench::diff::flatten(&json).expect("trace file is valid JSON");
        assert!(leaves.iter().any(|(path, _)| path.contains("self_us")));
    }
}
