//! What one GPU holds for a step, counted once: each embedding
//! exchange's buffers ([`exchange_bytes`]) and the model replica
//! ([`replica_bytes`]).
//!
//! The trainer charges exactly these to its simulated device — every
//! exchange's `ExchangeStats::peak_buffer_bytes` is an
//! [`exchange_bytes`] call on the rows it gathered and the distinct rows
//! it measured, the model allocation a [`replica_bytes`] call. The
//! full-scale models predict memory by summing [`exchange_bytes`] over
//! the exchanges they predict, adding the baseline's densified
//! vocabulary-wide tables, then applying each model's resident GB and
//! (char baseline only, calibrated) buffer replication. The §III-A
//! worked example is priced through the same function:
//!
//! "Consider a real-word example, where the sequence length is c = 150,
//! the number of sequences per GPU is 128, … local batch size K =
//! 19,200, embedding dimension 1792. With 32-bit gradients, on 256 GPUs,
//! the old scheme of ALLGATHER would require 35.2 GB of memory per GPU.
//! … with our uniqueness technique where the power-law exponent is 0.64,
//! we would require only 0.137 GB — a 256× memory saving."

use crate::law::unique_words;

/// Bytes one GPU holds at once for one embedding exchange that leaves
/// `gathered` `u32` indices on it, rows `dim` wide in FP32. `distinct`
/// is `(Ui, Ug)` on the unique path, `None` on the baseline:
/// * baseline — every gathered index and row, `G·K·(1+D)·4`
///   (`gathered` is `G·K`);
/// * unique — the gathered indices, the `Ui` locally reduced indices and
///   rows step 5 scatters from, and the `Ug×D` matrix it scatters into,
///   all alive at the ALLREDUCE: `gathered·4 + Ui·(1+D)·4 + Ug·D·4`.
///   `gathered` is `G·K` when the index gather runs flat, and the node
///   sets plus the global set, `Σ_n|U_n| + Ug`, on its two-tier node
///   schedule.
pub fn exchange_bytes(gathered: u64, dim: usize, distinct: Option<(u64, u64)>) -> u64 {
    let d = dim as u64;
    match distinct {
        None => gathered * (1 + d) * 4,
        Some((ui, ug)) => gathered * 4 + ui * (1 + d) * 4 + ug * d * 4,
    }
}

/// Bytes of one model replica of `params` FP32 parameters: the weights,
/// their gradients and one optimiser slot, `params · 4 · 3`. The third
/// copy is *modelled*: the trainer updates with plain SGD and keeps no
/// optimiser state, but the slot stays so the miniature charges what the
/// paper's runs held (model + gradients + Adam).
pub fn replica_bytes(params: u64) -> u64 {
    params * 4 * 3
}

/// The §III-A worked example, returning `(baseline GB, unique GB,
/// saving factor)`. Distinct rows follow the paper's own prefactor-1
/// arithmetic, `U = N^0.64`, at `K` (`Ui`) and at `G·K` (`Ug`).
pub fn worked_example() -> (f64, f64, f64) {
    let (g, k, d) = (256u64, 19_200u64, 1792);
    let law = |n| unique_words(n, 1.0, 0.64, usize::MAX);
    let base = exchange_bytes(g * k, d, None) as f64 / 1e9;
    let ours = exchange_bytes(g * k, d, Some((law(k), law(g * k)))) as f64 / 1e9;
    (base, ours, base / ours)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_matches_paper() {
        // Baseline and unique GB, and the saving.
        assert_eq!(crate::paper::assert_bounded("memex."), 3);
    }

    #[test]
    fn baseline_linear_in_gpus() {
        let b1 = exchange_bytes(8 * 640, 512, None);
        let b2 = exchange_bytes(16 * 640, 512, None);
        assert_eq!(b2, 2 * b1);
    }

    #[test]
    fn unique_sublinear_in_gpus() {
        let at = |g: u64| {
            let law = |n| unique_words(n, 1.0, 0.64, usize::MAX);
            exchange_bytes(g * 640, 512, Some((law(640), law(g * 640))))
        };
        let (u1, u2) = (at(8), at(64));
        // 8× GPUs must cost far less than 8× memory.
        assert!((u2 as f64) < 4.5 * u1 as f64, "u1 {u1} u2 {u2}");
    }

    #[test]
    fn paper_example_note_k_arithmetic() {
        // The paper's text says "K = 150 ∗ 120 = 19,200" — a typo
        // (128 · 150 = 19,200); our constant uses the correct product.
        assert_eq!(128 * 150, 19_200);
    }
}
