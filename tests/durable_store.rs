//! Durable on-disk checkpoint store, end-to-end.
//!
//! The headline invariant: **kill-and-resume through the disk-backed
//! store is bit-identical — final parameters, per-epoch losses, and the
//! terminal checkpoint byte-for-byte — to both the in-memory store and
//! an uninterrupted run**, at world 4 and at paper-scale world 48. The
//! restore even crosses a simulated process boundary: the scan reads a
//! *reopened* directory handle, exactly what a fresh driver process
//! would do.
//!
//! Plus the damage-tolerance laws of the recovery scan, property-tested
//! over arbitrarily corrupted directories: random truncations, bit
//! flips, deletions, and duplicate manifest entries never panic the
//! scan and it returns exactly the newest fully-intact consistent step.
//! And the CRC framing detects **every** single-bit flip (exhaustive,
//! not sampled).

mod common;

use common::{checkpointing, recovering, with_watchdog, TempDir};
use proptest::prelude::*;
use simgpu::{DiskFault, DiskFaultPlan, FaultPlan};
use std::fs;
use std::sync::Arc;
use std::time::Duration;
use zipf_lm::ckpt_disk::{crc32, frame_payload, unframe};
use zipf_lm::{
    run, Checkpoint, CheckpointBackend, CheckpointConfig, CheckpointDir, CheckpointError,
    CheckpointStore, CommConfig, HealthEvent, MemoryBackend, Method, MetricsConfig, ModelKind,
    RecoveryPolicy, RunOptions, TraceConfig, TrainConfig,
};

/// Two epochs of six steps with a snapshot every other step — the same
/// shape `tests/elastic_recovery.rs` uses, so invariants line up.
fn cfg(gpus: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Word { vocab: 200 },
        gpus,
        batch: 2,
        seq_len: 6,
        steps_per_epoch: 6,
        epochs: 2,
        base_lr: 0.3,
        lr_decay: 0.95,
        method: Method::unique_seeded(),
        seed: 7,
        tokens: 30_000,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig {
            every_steps: 2,
            keep_last: 8,
        },
        comm: CommConfig::flat(),
    }
}

/// Kill a rank mid-epoch-1, persist checkpoints to disk, restore the
/// full world from a *reopened* directory (a fresh process's view), and
/// finish. Compared bit-for-bit against the in-memory store's restore
/// of the same failure and against an uninterrupted run.
fn disk_kill_and_resume_matches_memory_and_clean(gpus: usize) {
    let (fin_clean, epochs_clean, fin_disk, epochs_disk, ck_disk_bytes, ck_mem_bytes) =
        with_watchdog(move || {
            let c = cfg(gpus);
            let all: Vec<usize> = (0..gpus).collect();
            let plan = FaultPlan::none().kill_rank_transient(gpus - 1, 8);

            // Reference: uninterrupted run over the in-memory store.
            let memory = || Arc::new(MemoryBackend::new(c.checkpoint.keep_last));
            let out_a = run(&c, &checkpointing(memory(), FaultPlan::none(), None));
            let rep_a = out_a.ranks[0].as_ref().expect("uninterrupted run").clone();
            let fin_a = out_a.final_checkpoint.expect("terminal snapshot");

            // In-memory interrupted run: the restored cut we must match.
            let mem = memory();
            let out_m = run(&c, &checkpointing(mem.clone(), plan.clone(), None));
            assert!(
                out_m.ranks.iter().all(|r| r.is_err()),
                "kill fails the group"
            );
            let ck_mem = CheckpointStore::with_backend(gpus, mem)
                .latest_consistent(&all)
                .expect("consistent cut");

            // Disk interrupted run: same failure, durable directory.
            let tmp = TempDir::new("resume");
            let dir_b = Arc::new(
                CheckpointDir::open(tmp.path().join("run"), c.checkpoint.keep_last).unwrap(),
            );
            let out_b = run(&c, &checkpointing(dir_b, plan, None));
            assert!(
                out_b.ranks.iter().all(|r| r.is_err()),
                "kill fails the group"
            );

            // A fresh process's view: reopen the directory and scan.
            let reopened = Arc::new(
                CheckpointDir::open(tmp.path().join("run"), c.checkpoint.keep_last).unwrap(),
            );
            let scan = CheckpointStore::with_backend(gpus, reopened).scan(&all);
            assert!(scan.corrupt.is_empty(), "clean kill damages no files");
            let ck_disk = scan.checkpoint.expect("consistent cut on disk");

            // Resume the full world from the disk-restored snapshot,
            // writing the resumed run's checkpoints to disk as well.
            let dir_c = Arc::new(
                CheckpointDir::open(tmp.path().join("resumed"), c.checkpoint.keep_last).unwrap(),
            );
            let resumed = checkpointing(dir_c, FaultPlan::none(), Some(ck_disk.clone()));
            let out_c = run(&c, &resumed);
            let rep_c = out_c.ranks[0].as_ref().expect("resumed run").clone();
            let fin_c = out_c.final_checkpoint.expect("terminal snapshot");
            (
                fin_a,
                rep_a.epochs,
                fin_c,
                rep_c.epochs,
                ck_disk.to_bytes(),
                ck_mem.to_bytes(),
            )
        });

    assert_eq!(
        ck_disk_bytes, ck_mem_bytes,
        "disk scan restores byte-identically to the in-memory store"
    );
    assert_eq!(epochs_clean.len(), 2);
    assert_eq!(epochs_clean, epochs_disk, "per-epoch metrics bit-identical");
    let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&fin_clean.params),
        bits(&fin_disk.params),
        "params bit-identical to the uninterrupted run"
    );
    assert_eq!(
        fin_clean.to_bytes(),
        fin_disk.to_bytes(),
        "terminal checkpoints byte-identical"
    );
}

#[test]
fn disk_kill_and_resume_is_bit_identical_at_world_4() {
    disk_kill_and_resume_matches_memory_and_clean(4);
}

#[test]
fn disk_kill_and_resume_is_bit_identical_at_world_48() {
    disk_kill_and_resume_matches_memory_and_clean(48);
}

#[test]
fn elastic_durable_matches_elastic_memory_bit_for_bit() {
    // The whole elastic loop — shrink, restore, resume — over disk vs
    // memory: identical failure schedule must yield identical outcomes.
    let (mem, disk) = with_watchdog(|| {
        let c = cfg(4);
        let plan = FaultPlan::none().kill_rank_transient(2, 5);
        let opts = recovering(plan, RecoveryPolicy::default());
        let mem = run(&c, &opts);
        let tmp = TempDir::new("elastic");
        let backend = Arc::new(CheckpointDir::open(tmp.path(), c.checkpoint.keep_last).unwrap());
        let durable = RunOptions {
            checkpoints: Some(backend),
            ..opts
        };
        (mem, run(&c, &durable))
    });
    assert_eq!(mem.final_world, disk.final_world);
    assert_eq!(
        mem.recoveries[0].restored_step(),
        disk.recoveries[0].restored_step()
    );
    assert_eq!(
        mem.recoveries[0]
            .restored_from
            .as_ref()
            .map(Checkpoint::to_bytes),
        disk.recoveries[0]
            .restored_from
            .as_ref()
            .map(Checkpoint::to_bytes),
        "restored snapshots byte-identical"
    );
    let mem_report = mem.ranks[0].as_ref().expect("memory recovers");
    let disk_report = disk.ranks[0].as_ref().expect("disk recovers");
    assert_eq!(mem_report.epochs, disk_report.epochs);
    assert_eq!(
        mem.final_checkpoint.as_ref().map(Checkpoint::to_bytes),
        disk.final_checkpoint.as_ref().map(Checkpoint::to_bytes),
        "terminal checkpoints byte-identical"
    );
}

#[test]
fn elastic_durable_skips_damaged_cut_and_reports_corruption() {
    // Rank 1's step-4 checkpoint rots on disk; the kill at step 5 then
    // forces a recovery. The scan must fall back to step 2, surface the
    // damage as a typed health event, and the run summary must count it.
    let outcome = with_watchdog(|| {
        let c = cfg(4);
        let faults = DiskFaultPlan::none().inject(1, 4, DiskFault::BitFlip { byte: 45, bit: 2 });
        let tmp = TempDir::new("damaged");
        let backend = Arc::new(
            CheckpointDir::open_with_faults(tmp.path(), c.checkpoint.keep_last, faults).unwrap(),
        );
        let plan = FaultPlan::none().kill_rank_transient(2, 5);
        let policy = RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(10),
        };
        let opts = RunOptions {
            checkpoints: Some(backend),
            ..recovering(plan, policy)
        };
        run(&c, &opts)
    });
    let report = outcome.ranks[0].as_ref().expect("recovers past the damage");
    let ev = &outcome.recoveries[0];
    assert_eq!(
        ev.restored_step(),
        Some(2),
        "newest cut (4) is damaged; scan falls back"
    );
    assert_eq!(ev.steps_lost, 3, "steps 3..=5's progress rolled back");
    // Simulated backoff: 10 ms base, first restart ⇒ 10 ms in ps.
    assert_eq!(ev.backoff_ps, 10_000_000_000);
    assert_eq!(ev.restart, 1);
    assert!(
        report
            .health
            .contains(&HealthEvent::CheckpointCorrupt { rank: 1, step: 4 }),
        "damage surfaced as a typed health event: {:?}",
        report.health
    );
    assert!(report.health.contains(&HealthEvent::Recovery {
        round: 1,
        survivors: 3
    }));
    let summary = report.run_summary(&cfg(4));
    assert_eq!(summary.recoveries, 1);
    assert_eq!(summary.corruptions, 1);
    assert_eq!(outcome.final_world, 3);
    assert!(outcome.final_checkpoint.is_some());
}

#[test]
fn crc_framing_rejects_every_single_bit_flip() {
    // Exhaustive, not sampled: flip each of the frame's bits in turn;
    // every flip must surface as a typed error, never decode silently.
    let payload: Vec<u8> = (0..257u32).flat_map(|v| v.to_le_bytes()).collect();
    let framed = frame_payload(&payload);
    assert!(unframe(&framed).is_ok());
    for byte in 0..framed.len() {
        for bit in 0..8 {
            let mut dam = framed.clone();
            dam[byte] ^= 1 << bit;
            assert!(
                unframe(&dam).is_err(),
                "flip of bit {bit} in byte {byte} decoded silently"
            );
        }
    }
    // And every torn length is rejected too.
    for keep in 0..framed.len() {
        assert!(unframe(&framed[..keep]).is_err(), "torn at {keep} decoded");
    }
    // Sanity: crc32 itself matches the IEEE check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// Sample snapshot for the proptest directory (world 3).
fn snapshot(rank: u32, step: u64) -> Checkpoint {
    let mut ck = Checkpoint {
        world: 3,
        rank,
        step,
        epoch: 0,
        step_in_epoch: step,
        lr: 0.5,
        fingerprint: zipf_lm::checkpoint::Fingerprint::of(&cfg(3), 997),
        params: vec![0.25; 16],
        metrics: Default::default(),
    };
    ck.params[0] = rank as f32 + step as f32 / 100.0;
    ck
}

/// One random act of vandalism against a checkpoint file.
#[derive(Debug, Clone)]
enum Vandalism {
    Truncate { rank: usize, slot: usize, frac: u8 },
    FlipBit { rank: usize, slot: usize, pos: u16 },
    Delete { rank: usize, slot: usize },
    DuplicateManifestLine { rank: usize, slot: usize },
}

/// Decode one random word into an act of vandalism. The vendored
/// proptest shim has no `prop_oneof`/`prop_map`, so the generator draws
/// raw `u64`s and this unpacks kind + coordinates from the bits.
fn vandalism(word: u64) -> Vandalism {
    let rank = ((word >> 2) % 3) as usize;
    let slot = ((word >> 8) % 4) as usize;
    match word % 4 {
        0 => Vandalism::Truncate {
            rank,
            slot,
            frac: (word >> 16) as u8,
        },
        1 => Vandalism::FlipBit {
            rank,
            slot,
            pos: (word >> 24) as u16,
        },
        2 => Vandalism::Delete { rank, slot },
        _ => Vandalism::DuplicateManifestLine { rank, slot },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrarily corrupted directories never panic the scan, and it
    /// returns exactly the newest step at which every rank's copy is
    /// still intact (or none when no such step is left).
    #[test]
    fn scan_finds_exactly_the_newest_intact_step(words in proptest::collection::vec(0u64..=u64::MAX, 0..12)) {
        let ops: Vec<Vandalism> = words.iter().map(|&w| vandalism(w)).collect();
        const STEPS: [u64; 4] = [2, 4, 6, 8];
        let tmp = TempDir::new("prop");
        let dir = CheckpointDir::open(tmp.path(), 8).unwrap();
        for &step in &STEPS {
            for rank in 0..3u32 {
                dir.deposit(snapshot(rank, step)).unwrap();
            }
        }
        // Shadow model of which copies are still intact.
        let mut intact = [[true; 4]; 3];
        for op in &ops {
            match *op {
                Vandalism::Truncate { rank, slot, frac } => {
                    let path = tmp.path().join(format!("rank{rank}"))
                        .join(format!("step{:020}.ckpt", STEPS[slot]));
                    if let Ok(bytes) = fs::read(&path) {
                        let keep = (bytes.len() * frac as usize) / 255;
                        // Keeping every byte is not damage.
                        if keep < bytes.len() {
                            fs::write(&path, &bytes[..keep]).unwrap();
                            intact[rank][slot] = false;
                        }
                    }
                }
                Vandalism::FlipBit { rank, slot, pos } => {
                    let path = tmp.path().join(format!("rank{rank}"))
                        .join(format!("step{:020}.ckpt", STEPS[slot]));
                    if let Ok(mut bytes) = fs::read(&path) {
                        if !bytes.is_empty() {
                            let idx = pos as usize % (bytes.len() * 8);
                            bytes[idx / 8] ^= 1 << (idx % 8);
                            fs::write(&path, &bytes).unwrap();
                            intact[rank][slot] = false;
                        }
                    }
                }
                Vandalism::Delete { rank, slot } => {
                    let path = tmp.path().join(format!("rank{rank}"))
                        .join(format!("step{:020}.ckpt", STEPS[slot]));
                    if fs::remove_file(&path).is_ok() {
                        intact[rank][slot] = false;
                    }
                }
                Vandalism::DuplicateManifestLine { rank, slot } => {
                    // Duplicate steps in the manifest must be harmless.
                    let path = tmp.path().join(format!("rank{rank}")).join("MANIFEST");
                    let mut text = fs::read_to_string(&path).unwrap();
                    text.push_str(&format!("{}\n", STEPS[slot]));
                    fs::write(&path, text).unwrap();
                }
            }
        }
        let expected = STEPS
            .iter()
            .enumerate()
            .rev()
            .find(|&(slot, _)| (0..3).all(|r| intact[r][slot]))
            .map(|(_, &step)| step);
        let store = CheckpointStore::with_backend(3, Arc::new(dir) as Arc<dyn CheckpointBackend>);
        let scan = store.scan(&[0, 1, 2]);
        prop_assert_eq!(scan.checkpoint.map(|c| c.step), expected);
        // Every recorded corruption is a typed error, never a panic.
        for c in &scan.corrupt {
            prop_assert!(matches!(
                c.error,
                CheckpointError::Truncated
                    | CheckpointError::BadMagic
                    | CheckpointError::BadVersion(_)
                    | CheckpointError::BadCrc { .. }
                    | CheckpointError::TrailingBytes(_)
                    | CheckpointError::Missing
                    | CheckpointError::Io(_)
            ));
        }
    }
}
