//! Helpers shared by the integration suites (each test binary compiles
//! this module for itself and uses a subset of it).
#![allow(dead_code)]

use simgpu::FaultPlan;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use zipf_lm::{Checkpoint, CheckpointBackend, RecoveryPolicy, RunOptions};

/// Generous ceiling for any single scenario; a deadlocked rank trips
/// this instead of hanging `cargo test` forever.
const WATCHDOG_SECS: u64 = 300;

/// Runs `f` on a helper thread and fails the test if it does not
/// finish in time.
pub fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    // Deliberately not scoped: if `f` deadlocks, the thread is leaked
    // and the test fails fast instead of blocking the harness.
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS))
        .expect("watchdog expired: scenario deadlocked")
}

/// RAII temp directory (no tempfile dependency): unique per call via
/// pid + counter, removed on drop so `cargo test` leaves no litter.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("zlm-ckpt-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Default options with `plan` injected.
pub fn faulted(plan: FaultPlan) -> RunOptions {
    RunOptions {
        faults: plan,
        ..RunOptions::default()
    }
}

/// [`faulted`] options that also recover from failures per `policy`
/// (snapshots in memory unless the caller attaches a backend).
pub fn recovering(plan: FaultPlan, policy: RecoveryPolicy) -> RunOptions {
    RunOptions {
        recovery: Some(policy),
        ..faulted(plan)
    }
}

/// [`faulted`] options that deposit snapshots into `backend` and,
/// given `resume`, start from it.
pub fn checkpointing(
    backend: Arc<dyn CheckpointBackend>,
    plan: FaultPlan,
    resume: Option<Checkpoint>,
) -> RunOptions {
    RunOptions {
        checkpoints: Some(backend),
        resume: resume.map(Arc::new),
        ..faulted(plan)
    }
}
