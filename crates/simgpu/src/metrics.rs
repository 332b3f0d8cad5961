//! Fleet metrics: counters, gauges and exactly-mergeable histograms.
//!
//! The tracing layer (PR 3) answers "what happened on this rank, in
//! order"; this module answers the distributional questions the paper's
//! tables are made of — p50/p95/p99 step time, wire bytes by tier,
//! attribution totals — in a form that **merges exactly**. Every rank
//! gets a private [`MetricsRegistry`], built after the run from that
//! rank's step records; the trainer merges them into the fleet view.
//! The invariant that makes cross-rank and cross-run rollups
//! trustworthy:
//!
//! > merging per-rank histograms == histogramming the pooled samples
//!
//! which holds *exactly* (not approximately) because bucketing is a
//! pure function of the sample value — deterministic log-spaced bucket
//! boundaries shared by construction, never rescaled or re-centred at
//! runtime. Property-tested in `tests/property_invariants.rs`.
//!
//! [`Histogram`] is HDR-style: below [`HIST_SUB_BUCKETS`] every integer
//! has its own bucket; above, each power-of-two octave is split into
//! [`HIST_SUB_BUCKETS`] sub-buckets, so the relative quantile error is
//! bounded by `1 / HIST_SUB_BUCKETS` (12.5%) while the whole `u64`
//! range fits in [`HIST_BUCKETS`] fixed slots. Values are whatever
//! integers the caller chooses — the trainer records integer
//! picoseconds and bytes.
//!
//! [`prometheus_text`](MetricsRegistry::prometheus_text) renders the
//! registry in Prometheus text exposition format, byte-stable for
//! identical contents (golden-tested in `tests/telemetry_golden.rs`).

/// Sub-buckets per power-of-two octave (and the denominator of the
/// relative-error bound).
pub const HIST_SUB_BUCKETS: u64 = 8;

/// log2 of [`HIST_SUB_BUCKETS`].
const SUB_BITS: u32 = 3;

/// Total bucket count covering all of `u64`.
///
/// Index layout: values `< 8` map to their own index; a value with most
/// significant bit `m ≥ 3` maps to group `m − 2`, sub-bucket
/// `(v >> (m−3)) & 7`, i.e. index `((m − 2) << 3) | sub`. The largest
/// group is `m = 63` → indices 488..=495.
pub const HIST_BUCKETS: usize = 496;

/// Bucket index for a sample value. Pure function — the whole merge
/// story rests on this never depending on histogram state.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB_BUCKETS {
        v as usize
    } else {
        let m = 63 - v.leading_zeros();
        let sub = (v >> (m - SUB_BITS)) & (HIST_SUB_BUCKETS - 1);
        (((m - SUB_BITS + 1) << SUB_BITS) | sub as u32) as usize
    }
}

/// Inclusive `[lower, upper]` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < HIST_BUCKETS);
    if i < 2 * HIST_SUB_BUCKETS as usize {
        // Groups 0 and 1: one value per bucket.
        (i as u64, i as u64)
    } else {
        let g = (i as u64) >> SUB_BITS;
        let sub = i as u64 & (HIST_SUB_BUCKETS - 1);
        let shift = (g - 1) as u32;
        let lower = (HIST_SUB_BUCKETS + sub) << shift;
        let width = 1u64 << shift;
        (lower, lower + (width - 1))
    }
}

/// A fixed-layout log-bucketed histogram over `u64` samples.
///
/// Because bucket boundaries are compile-time constants,
/// [`merge`](Histogram::merge) is plain per-bucket count addition and
/// is *exactly* equivalent to having observed both sample streams into
/// one histogram. `min`, `max`, `count` and `sum` are tracked exactly;
/// quantiles are bucket upper bounds clamped into `[min, max]`, so the
/// relative error of any reported quantile is ≤ `1/HIST_SUB_BUCKETS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (all [`HIST_BUCKETS`] slots allocated up
    /// front, so `observe` never allocates).
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. O(1), allocation-free.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self`. Exactly equivalent to observing
    /// `other`'s samples here — the merged-equals-pooled law.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the
    /// bucket holding the sample of rank `⌈q·count⌉`, clamped into
    /// `[min, max]`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = bucket_bounds(i);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(upper_bound, count)`, ascending — the
    /// exporter's iteration order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).1, c))
    }
}

/// One rank's metric series: monotonically-increasing counters
/// (cross-rank merge: addition), gauges (merge: maximum — so a
/// globally-shared snapshot value recorded by every rank merges
/// idempotently), and [`Histogram`]s (merge: exact).
///
/// Series are keyed by `&'static str` names and created by their first
/// update, in update order. Nothing updates a registry on a hot path —
/// the trainer builds each one after the run, as a fold over the
/// rank's step records — so an update is a linear name lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

/// The value of series `name`, appended empty on first use.
fn series<'a, T: Default>(list: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let i = match list.iter().position(|(n, _)| *n == name) {
        Some(i) => i,
        None => {
            list.push((name, T::default()));
            list.len() - 1
        }
    };
    &mut list[i].1
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`.
    pub fn inc(&mut self, name: &'static str, delta: u64) {
        *series(&mut self.counters, name) += delta;
    }

    /// Raises the gauge `name` to `v` if larger (gauges merge by max,
    /// so sets follow the same law).
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        let g = series(&mut self.gauges, name);
        *g = (*g).max(v);
    }

    /// Records every sample into the histogram `name` (which exists
    /// afterwards even when `samples` is empty).
    pub fn observe(&mut self, name: &'static str, samples: impl IntoIterator<Item = u64>) {
        let h = series(&mut self.histograms, name);
        samples.into_iter().for_each(|v| h.observe(v));
    }

    /// Look up a series by name (for reports and tests).
    pub fn find_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Look up a counter by name.
    pub fn find_counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn find_gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Folds `other` into `self` by series name: counters add, gauges
    /// take the max, histograms merge exactly. Series unseen here are
    /// adopted, so merging a fleet of per-rank registries into an empty
    /// one yields the fleet rollup.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for &(name, v) in &other.counters {
            self.inc(name, v);
        }
        for &(name, v) in &other.gauges {
            self.gauge_max(name, v);
        }
        for (name, h) in &other.histograms {
            series(&mut self.histograms, name).merge(h);
        }
    }

    /// Prometheus text exposition of every series, sorted by name
    /// within each type (counters, then gauges, then histograms), each
    /// name prefixed `zlm_`. Histograms render cumulative `le` buckets
    /// (only non-empty boundaries, then `+Inf`), `_sum` and `_count`.
    /// Byte-stable for identical registry contents.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by_key(|(n, _)| *n);
        for (name, v) in counters {
            out.push_str(&format!(
                "# TYPE zlm_{name} counter\nzlm_{name} {v}\n",
                name = name,
                v = v
            ));
        }
        let mut gauges: Vec<_> = self.gauges.iter().collect();
        gauges.sort_by_key(|(n, _)| *n);
        for (name, v) in gauges {
            out.push_str(&format!(
                "# TYPE zlm_{name} gauge\nzlm_{name} {v}\n",
                name = name,
                v = v
            ));
        }
        let mut hists: Vec<_> = self.histograms.iter().collect();
        hists.sort_by_key(|(n, _)| *n);
        for (name, h) in hists {
            out.push_str(&format!("# TYPE zlm_{name} histogram\n"));
            let mut cum = 0u64;
            for (upper, c) in h.nonzero_buckets() {
                cum += c;
                out.push_str(&format!("zlm_{name}_bucket{{le=\"{upper}\"}} {cum}\n"));
            }
            out.push_str(&format!(
                "zlm_{name}_bucket{{le=\"+Inf\"}} {count}\nzlm_{name}_sum {sum}\nzlm_{name}_count {count}\n",
                name = name,
                sum = h.sum(),
                count = h.count(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_u64_and_bounds_invert_it() {
        // Every bucket's bounds map back to that bucket, bounds tile
        // the axis with no gap or overlap, and extremes are in range.
        let mut prev_upper: Option<u64> = None;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi, "bucket {i}");
            assert_eq!(bucket_index(lo), i, "lower bound of {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of {i}");
            if let Some(p) = prev_upper {
                assert_eq!(lo, p + 1, "gap/overlap before bucket {i}");
            }
            prev_upper = Some(hi);
        }
        assert_eq!(prev_upper, Some(u64::MAX), "buckets must tile u64");
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_error_is_bounded() {
        // For any v ≥ 8, the bucket upper bound overestimates v by at
        // most a factor of 1 + 1/8.
        for &v in &[8u64, 100, 12_345, 1 << 40, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            let err = (hi - lo) as f64 / lo as f64;
            assert!(err <= 1.0 / HIST_SUB_BUCKETS as f64, "v={v} err={err}");
        }
    }

    #[test]
    fn merge_equals_pooled() {
        let samples_a = [0u64, 1, 7, 8, 9, 1000, 1 << 50];
        let samples_b = [3u64, 1000, u64::MAX, 42];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut pooled = Histogram::new();
        for &v in &samples_a {
            a.observe(v);
            pooled.observe(v);
        }
        for &v in &samples_b {
            b.observe(v);
            pooled.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        let max = h.quantile(1.0);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(max, 1000, "p100 is the exact max");
        assert!((500..=563).contains(&p50), "p50={p50}");
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn registry_updates_by_name_and_merge_follows_type_laws() {
        let mut a = MetricsRegistry::new();
        a.inc("steps", 1);
        a.inc("steps", 2);
        assert_eq!(a.find_counter("steps"), Some(3), "same name, same series");
        a.gauge_max("peak_bytes", 100);
        a.gauge_max("peak_bytes", 40);
        assert_eq!(a.find_gauge("peak_bytes"), Some(100), "never lowers");
        a.observe("step_ps", [10]);
        a.observe("idle_ps", []);
        assert!(a.find_histogram("idle_ps").is_some_and(Histogram::is_empty));

        let mut b = MetricsRegistry::new();
        b.inc("steps", 5);
        b.gauge_max("peak_bytes", 70);
        b.observe("step_ps", [20]);
        b.inc("only_in_b", 1);

        a.merge(&b);
        assert_eq!(a.find_counter("steps"), Some(8));
        assert_eq!(a.find_gauge("peak_bytes"), Some(100));
        assert_eq!(a.find_counter("only_in_b"), Some(1));
        let merged = a.find_histogram("step_ps").unwrap();
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), Some(10));
        assert_eq!(merged.max(), Some(20));
    }

    #[test]
    fn prometheus_text_is_sorted_and_cumulative() {
        let mut r = MetricsRegistry::new();
        r.inc("b_total", 2);
        r.inc("a_total", 1);
        r.observe("lat_ps", [5, 5, 100]);
        let text = r.prometheus_text();
        let a_pos = text.find("zlm_a_total 1").unwrap();
        let b_pos = text.find("zlm_b_total 2").unwrap();
        assert!(a_pos < b_pos, "counters sorted by name");
        assert!(text.contains("zlm_lat_ps_bucket{le=\"5\"} 2\n"));
        // 100 lands in bucket [96, 103]; cumulative count includes
        // the two 5s.
        assert!(text.contains("zlm_lat_ps_bucket{le=\"103\"} 3\n"));
        assert!(text.contains("zlm_lat_ps_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("zlm_lat_ps_sum 110\n"));
        assert!(text.contains("zlm_lat_ps_count 3\n"));
        // Byte-stable: same contents, same text.
        assert_eq!(text, r.prometheus_text());
    }
}
