//! The four benchmark workloads' `train()` results, pinned: per-step
//! losses and simulated step times, the run's traffic ledger, the
//! simulated peak memory and the validation loss, as literals, at seed
//! 1234 with each workload's configuration spelled out as the benchmark
//! package states it. A change to how the host runs a step — where its
//! buffers live, when a gradient is reduced, how many copies of the
//! weights it keeps — must leave every figure here alone.

use nn::model::WordLmConfig;
use zipf_lm::{
    train, CheckpointConfig, CommConfig, Method, MetricsConfig, ModelKind, TraceConfig,
    TrainConfig, TrainReport,
};

const SEED: u64 = 1234;

const WORD_COMPUTE: ModelKind = ModelKind::WordCustom(WordLmConfig {
    vocab: 4000,
    embed_dim: 64,
    hidden: 256,
    proj_dim: 64,
    samples: 256,
});

const WORD_EXCHANGE: ModelKind = ModelKind::WordCustom(WordLmConfig {
    vocab: 20_000,
    embed_dim: 512,
    hidden: 4,
    proj_dim: 8,
    samples: 8,
});

/// A workload's timed configuration: `steps` steps of one epoch, every
/// observer off.
#[allow(clippy::too_many_arguments)]
fn config(
    model: ModelKind,
    gpus: usize,
    batch: usize,
    seq_len: usize,
    steps: usize,
    tokens: usize,
    method: Method,
    comm: CommConfig,
) -> TrainConfig {
    TrainConfig {
        model,
        gpus,
        batch,
        seq_len,
        steps_per_epoch: steps,
        epochs: 1,
        base_lr: 0.2,
        lr_decay: 0.9,
        method,
        seed: SEED,
        tokens,
        trace: TraceConfig::off(),
        metrics: MetricsConfig::off(),
        checkpoint: CheckpointConfig::off(),
        comm,
    }
}

/// Every figure this file pins, in one line: each step's loss bits and
/// simulated picoseconds, the traffic ledger, the peak memory and the
/// validation loss bits.
fn render(rep: &TrainReport) -> String {
    let losses: Vec<String> = rep
        .steps
        .iter()
        .map(|s| format!("{:x}", s.train_loss.to_bits()))
        .collect();
    let sim_ps: Vec<u64> = rep.steps.iter().map(|s| s.sim_time_ps).collect();
    let t = rep.traffic;
    let traffic = [
        t.allreduce_intra_bytes,
        t.allreduce_inter_bytes,
        t.allreduce_ops,
        t.allgather_intra_bytes,
        t.allgather_inter_bytes,
        t.allgather_ops,
    ];
    let valid: Vec<String> = rep
        .epochs
        .iter()
        .map(|e| format!("{:x}", e.valid_nll.to_bits()))
        .collect();
    format!(
        "losses {losses:?} sim_ps {sim_ps:?} traffic {traffic:?} peak_mem {} valid_nll {valid:?}",
        rep.peak_mem_bytes
    )
}

fn pinned(name: &str, cfg: &TrainConfig, want: &str) {
    let rep = train(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(render(&rep), want, "{name} moved");
}

#[test]
fn word_compute_g2_is_pinned() {
    let cfg = config(
        WORD_COMPUTE,
        2,
        16,
        20,
        6,
        200_000,
        Method::full(),
        CommConfig::flat(),
    );
    pinned(
        "word_compute_g2",
        &cfg,
        r#"losses ["40231ec1b9b33333", "40234074fd800000", "4022cdb263666666", "402303636f266666", "40233aaf5e800000", "402312c116cccccc"] sim_ps [412945894, 412839654, 413016720, 413034428, 412777681, 412945894] traffic [9303392, 0, 18, 43008, 0, 12] peak_mem 11956676 valid_nll ["40208498039e4129"]"#,
    );
}

#[test]
fn word_exchange_full_g8_is_pinned() {
    let cfg = config(
        WORD_EXCHANGE,
        8,
        512,
        4,
        6,
        400_000,
        Method::full(),
        CommConfig::flat(),
    );
    pinned(
        "word_exchange_full_g8",
        &cfg,
        r#"losses ["4017e0c646a78000", "40179758bb944000", "401935d268e30000", "4014ba772a0d8000", "4016fd08b2ed8000", "4019be89d7490000"] sim_ps [737947368, 737379228, 738628765, 735646958, 736250374, 734848591] traffic [92377376, 0, 18, 5515776, 0, 12] peak_mem 45963956 valid_nll ["4021a2a2ff800000"]"#,
    );
}

#[test]
fn word_exchange_baseline_g8_is_pinned() {
    let cfg = config(
        WORD_EXCHANGE,
        8,
        512,
        4,
        6,
        400_000,
        Method::baseline(),
        CommConfig::flat(),
    );
    pinned(
        "word_exchange_baseline_g8",
        &cfg,
        r#"losses ["4017f0a43e9d0000", "40187da906338000", "401937a615070000", "4017ed030dbd0000", "4016d700cc150000", "401970c5e5e58000"] sim_ps [2310314568, 2310314568, 2310314568, 2310314568, 2310314568, 2310314568] traffic [2795520, 0, 6, 1436908032, 0, 24] peak_mem 77126528 valid_nll ["4021a2c610eaaaab"]"#,
    );
}

#[test]
fn char_weak_g192_is_pinned() {
    let cfg = config(
        ModelKind::Char { vocab: 48 },
        192,
        1,
        6,
        4,
        960_000,
        Method::unique(),
        CommConfig::hierarchical_pooled(2),
    );
    pinned(
        "char_weak_g192",
        &cfg,
        r#"losses ["400ef89a39c00005", "400ec0c77fdc71cf", "400e7b1f2aa38e3c", "400e3a3501800003"] sim_ps [3740119361, 3740131627, 3740119361, 3740119361] traffic [113826048, 15791616, 8, 142924, 199456, 4] peak_mem 321732 valid_nll ["400e0b3a7e38e390"]"#,
    );
}
