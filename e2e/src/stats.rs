//! Order statistics over timing samples, and this process's own
//! counters from `/proc/self`.

use std::fs;

/// Median and quartiles of a sample, as reported for every host timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub samples: usize,
}

/// The value at quantile `q` of `sorted`, interpolating between
/// neighbours at position `q·(n+1)` — the rule of Python's
/// `statistics.quantiles` (the "exclusive" method), so the quartiles
/// printed here match the ones the acceptance procedure computes.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
    let below = pos.floor() as usize;
    let frac = pos - below as f64;
    let lo = sorted[below - 1];
    let hi = sorted[below.min(n - 1)];
    lo + (hi - lo) * frac
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        p25: quantile(&sorted, 0.25),
        p75: quantile(&sorted, 0.75),
        samples: sorted.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ; fixed
/// at 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used so far, as `(user, sys)`.
pub fn cpu_times() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the parenthesis that closes it. utime and stime are fields
    // 14 and 15, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let user = ticks();
    let sys = ticks();
    (user / TICKS_PER_S, sys / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next reading
/// covers one workload only. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    // From the C library std already links; `mask` is a `cpu_set_t`.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process — this thread and every thread it starts from
/// here on — to one of the CPUs it may run on, the highest-numbered,
/// and returns which. The program then sees a one-core host: the
/// vendored rayon runs its loops in place instead of spawning a thread
/// per call, ranks take turns on the core, and wall time is CPU time.
/// What is left to measure is the program's own work, not how the
/// kernel of a shared host spreads some hundred short-lived threads
/// over two virtual CPUs. `None` where the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // a 1024-CPU cpu_set_t
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is WORDS * 8 writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is WORDS * 8 readable bytes, the size passed.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        assert_eq!(s.samples, 10);
        // Odd count, unsorted input; quantiles([5,1,3], n=4) == [1, 3, 5].
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 3.0, 5.0));
        // A single sample is its own median and quartiles.
        let s = summarize(&[7.0]);
        assert_eq!((s.p25, s.median, s.p75), (7.0, 7.0, 7.0));
    }

    #[test]
    fn proc_counters_read() {
        let (user, sys) = cpu_times();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
