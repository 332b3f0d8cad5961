//! Bounded worker pool for rank execution.
//!
//! The paper's cluster runs 50 nodes × 8 GPUs (192 GPUs in Table V's
//! weak-scaling column), but a thread-per-rank simulator that *pins* an
//! OS thread per rank stops scaling long before that on a small CI
//! machine. The fix is a counting semaphore — a [`RunGate`] — that
//! bounds how many rank threads *run* concurrently: every rank still
//! owns a (cheap, small-stack) OS thread for its program state, but a
//! rank must hold one of `cap` run slots to execute. At every
//! collective rendezvous the rank releases its slot before parking on
//! the group barrier and re-acquires it afterwards, so parked ranks
//! cost no CPU and the set of *runnable* ranks never exceeds the pool
//! cap. This makes world sizes of 48–192 practical in tests and
//! benches on a single-digit-core box.
//!
//! The gate deliberately bounds *concurrency*, not thread count: rank
//! program state (deep in a training step, holding model buffers) is
//! exactly what a stack is, so re-using threads as stacks and gating
//! execution is the same scheduling structure as a task pool with
//! parked coroutines, without needing an async runtime. Stacks are
//! spawned small (see [`run_ranks`]) to keep 192 ranks affordable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Counting semaphore bounding how many ranks run concurrently.
///
/// Slots are released while a rank is parked at a collective rendezvous
/// and re-acquired on wake-up; [`peak_running`](RunGate::peak_running)
/// records the high-water mark of concurrently running ranks so tests
/// can assert the bound held (`peak_running() <= cap()`).
#[derive(Debug)]
pub struct RunGate {
    cap: usize,
    available: Mutex<usize>,
    cvar: Condvar,
    running: AtomicUsize,
    peak: AtomicUsize,
}

impl RunGate {
    /// A gate with `cap` run slots (`cap` is clamped to at least 1).
    pub fn new(cap: usize) -> Arc<Self> {
        let cap = cap.max(1);
        Arc::new(Self {
            cap,
            available: Mutex::new(cap),
            cvar: Condvar::new(),
            running: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        })
    }

    /// Number of run slots.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Ranks currently holding a run slot.
    pub fn running(&self) -> usize {
        self.running.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently running ranks over the gate's
    /// lifetime. The scheduling invariant is `peak_running() <= cap()`.
    pub fn peak_running(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Blocks until a run slot is free, then takes it.
    pub(crate) fn acquire(&self) {
        let mut avail = lock_ignore_poison(&self.available);
        while *avail == 0 {
            avail = match self.cvar.wait(avail) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        *avail -= 1;
        // `running`/`peak` are updated under the slot mutex, so the
        // count is exact, not a racy approximation.
        let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Returns a run slot. Saturates at `cap`, so a stray release (a
    /// rank that never held a slot, e.g. in an ungated helper) can
    /// never inflate the budget past the configured bound.
    pub(crate) fn release(&self) {
        let mut avail = lock_ignore_poison(&self.available);
        if *avail < self.cap {
            *avail += 1;
            self.running.fetch_sub(1, Ordering::Relaxed);
        }
        drop(avail);
        // One slot was freed, so one waiter can take it: waking them all
        // (192 ranks over 2 slots) only sends all but one back to park.
        self.cvar.notify_one();
    }
}

/// RAII run-slot held for the duration of a rank body; acquired by
/// [`run_ranks`] before the rank's closure runs and released on drop
/// (including on panic, so a dying rank can never leak the pool dry).
pub(crate) struct SlotGuard(Option<Arc<RunGate>>);

impl SlotGuard {
    pub(crate) fn occupy(gate: Option<Arc<RunGate>>) -> Self {
        if let Some(g) = &gate {
            g.acquire();
        }
        Self(gate)
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(g) = &self.0 {
            g.release();
        }
    }
}

/// Stack size for rank threads spawned by [`run_ranks`]: rank bodies
/// are iterative (no deep recursion), so 2 MiB is generous while
/// keeping 192 ranks cheap.
pub const RANK_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Runs `f` once per rank, each on its own (small-stack) thread, and
/// returns the per-rank results in rank order.
///
/// If the ranks' group carries a [`RunGate`] (see
/// `CommGroup::create_full`), each rank acquires a run slot before
/// its body starts and holds it except while parked at a collective
/// rendezvous — bounding concurrent execution at the pool cap no
/// matter how large the world is. Ungated ranks just run.
///
/// Panics in a rank body propagate (after every other rank has been
/// joined or has panicked too).
pub fn run_ranks<T, F>(ranks: Vec<crate::comm::Rank>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(crate::comm::Rank) -> T + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|rank| {
                let f = &f;
                std::thread::Builder::new()
                    .stack_size(RANK_STACK_BYTES)
                    .spawn_scoped(s, move || {
                        let _slot = SlotGuard::occupy(rank.run_gate());
                        f(rank)
                    })
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_and_tracks_peak() {
        let gate = RunGate::new(3);
        assert_eq!(gate.cap(), 3);
        gate.acquire();
        gate.acquire();
        assert_eq!(gate.running(), 2);
        gate.release();
        gate.acquire();
        gate.acquire();
        assert_eq!(gate.running(), 3);
        assert_eq!(gate.peak_running(), 3);
        gate.release();
        gate.release();
        gate.release();
        assert_eq!(gate.running(), 0);
        assert_eq!(gate.peak_running(), 3);
    }

    #[test]
    fn release_saturates_at_cap() {
        let gate = RunGate::new(2);
        // Stray releases must not mint extra slots.
        gate.release();
        gate.release();
        gate.acquire();
        gate.acquire();
        assert_eq!(gate.running(), 2);
        assert_eq!(gate.peak_running(), 2);
    }

    #[test]
    fn zero_cap_clamps_to_one() {
        let gate = RunGate::new(0);
        assert_eq!(gate.cap(), 1);
        gate.acquire();
        gate.release();
    }

    #[test]
    fn contended_acquire_never_exceeds_cap() {
        let gate = RunGate::new(2);
        std::thread::scope(|s| {
            for _ in 0..16 {
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    for _ in 0..50 {
                        gate.acquire();
                        assert!(gate.running() <= 2);
                        gate.release();
                    }
                });
            }
        });
        assert_eq!(gate.running(), 0);
        assert!(gate.peak_running() <= 2);
    }
}
