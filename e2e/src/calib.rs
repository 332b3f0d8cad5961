//! How fast the host is right now, measured by a fixed piece of work
//! of the benchmark's own.
//!
//! The sandbox is a few cores of a shared machine. For a minute or two
//! at a time its memory system and kernel entry run 1.5–1.8 x slower
//! than in the minutes either side (arithmetic on cached data slows by
//! a tenth at most), and every `train()` call slows with them: the same
//! call costs 1.9 s of CPU in one minute and 2.9 s in the next. A run
//! of half a minute lands in one phase or the other, so raw times from
//! ten runs of the same code spread by a third to a half of their
//! median. The calibration sample tracks the phase: taken before and
//! after each timed call, it says how much slower than nominal the host
//! ran while the call did, and the call's times are divided by that.
//!
//! The sample is no part of the program and calls none of its code, so
//! no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Floats streamed through: 16 MiB, beyond any cache level a core of a
/// shared host keeps to itself.
const STREAM_LEN: usize = 4 << 20;
const STREAM_PASSES: usize = 48;
/// Threads spawned and joined one after another: kernel entry, stack
/// mapping and unmapping, a wake-up each.
const SPAWNS: usize = 2500;

/// What the two parts take on a quiet core of the machine the benchmark
/// was sized on (2.1 GHz Xeon guest). A sample is reported against
/// these, so 1.0 means "as fast as that", 1.5 "half as slow again".
const STREAM_NOMINAL_MS: f64 = 37.0;
const SPAWN_NOMINAL_MS: f64 = 42.0;

pub struct Calibrator {
    stream: Vec<f32>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            stream: vec![1.0; STREAM_LEN],
        }
    }

    /// One sample, about 80 ms of work: the host's slowdown against
    /// nominal, averaged over the memory part and the kernel part.
    pub fn slowdown(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..STREAM_PASSES {
            for x in self.stream.iter_mut() {
                *x = *x * 0.999 + 0.001;
            }
        }
        black_box(&self.stream[17]);
        let stream_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        for _ in 0..SPAWNS {
            // A spawn that fails leaves the sample short, never wrong
            // by much: the others still ran.
            if let Ok(handle) = std::thread::Builder::new().spawn(|| black_box(1)) {
                handle.join().ok();
            }
        }
        let spawn_ms = t1.elapsed().as_secs_f64() * 1e3;

        (stream_ms / STREAM_NOMINAL_MS + spawn_ms / SPAWN_NOMINAL_MS) / 2.0
    }
}
