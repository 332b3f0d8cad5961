//! Full softmax + cross-entropy — the char LM's output layer.
//!
//! §V-B: "seeding technique was not used for character LM as the
//! vocabulary size is small, hence full softmax was used instead of
//! sampled softmax layer." The probability of word `w` at step `t` is
//! `exp(o_w) / Σ_v exp(o_v)` (§II-A); the loss is mean negative
//! log-likelihood, whose exponential is the perplexity reported in every
//! accuracy figure.

use tensor::ops::log_sum_exp;
use tensor::Matrix;

/// Result of a fused softmax + cross-entropy forward/backward.
#[derive(Debug, Clone)]
pub struct SoftmaxLoss {
    /// Mean negative log-likelihood over the batch (nats).
    pub loss: f64,
    /// `∂L/∂logits`, shape `n×V`, already divided by `n`.
    pub dlogits: Matrix,
}

/// Computes mean cross-entropy of `logits` (`n×V`) against `targets`
/// (`n` class ids) and its gradient in one pass.
pub fn softmax_cross_entropy(logits: &Matrix, targets: &[u32]) -> SoftmaxLoss {
    let n = logits.rows();
    let v = logits.cols();
    assert_eq!(targets.len(), n, "target count mismatch");
    assert!(n > 0, "empty batch");

    let mut dlogits = Matrix::zeros(n, v);
    let inv_n = 1.0 / n as f32;
    let mut total = 0.0f64;
    #[allow(clippy::needless_range_loop)] // i indexes logits, targets and dlogits in lockstep
    for i in 0..n {
        let row = logits.row(i);
        let t = targets[i] as usize;
        assert!(t < v, "target {t} out of range");
        let lse = log_sum_exp(row);
        total += (lse - row[t]) as f64;
        let drow = dlogits.row_mut(i);
        for (j, (&x, d)) in row.iter().zip(drow.iter_mut()).enumerate() {
            let p = (x - lse).exp();
            *d = (p - if j == t { 1.0 } else { 0.0 }) * inv_n;
        }
    }
    SoftmaxLoss {
        loss: total / n as f64,
        dlogits,
    }
}

/// Mean cross-entropy of `logits` (`n×V`) against `targets` (`n` class
/// ids) without the gradient: the loss [`softmax_cross_entropy`]
/// reports, by the same per-row sum, for passes that never go backward.
pub fn mean_nll(logits: &Matrix, targets: &[u32]) -> f64 {
    let n = logits.rows();
    let v = logits.cols();
    assert_eq!(targets.len(), n, "target count mismatch");
    assert!(n > 0, "empty batch");
    let mut total = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let row = logits.row(i);
        let t = t as usize;
        assert!(t < v, "target {t} out of range");
        total += (log_sum_exp(row) - row[t]) as f64;
    }
    total / n as f64
}

/// Perplexity of a mean NLL (nats): `exp(loss)`.
pub fn perplexity(mean_nll: f64) -> f64 {
    mean_nll.exp()
}

/// Bits-per-character of a mean NLL (nats): `loss / ln 2` — the metric
/// §V-D compares against \[21\] ("1.208 BPC vs 1.218").
pub fn bits_per_char(mean_nll: f64) -> f64 {
    mean_nll / std::f64::consts::LN_2
}

/// The paper's §V-C compression-ratio metric: a perplexity `p` implies
/// `log2(p)` bits per character, i.e. a ratio of `bits_per_source_char /
/// log2(p)` against a `bits_per_source_char`-bit encoding (16 for the
/// UTF-16-style 2-byte Chinese chars the paper's arithmetic implies).
pub fn compression_ratio(perplexity: f64, bits_per_source_char: f64) -> f64 {
    bits_per_source_char / perplexity.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The loss-only pass is the fused pass's loss, to the bit.
        #[test]
        fn mean_nll_is_the_fused_loss(
            n in 1usize..12,
            v in 1usize..40,
            logits in proptest::collection::vec(-30.0f32..30.0, 12 * 40),
            targets in proptest::collection::vec(0u32..40, 12),
        ) {
            let targets: Vec<u32> = targets[..n].iter().map(|&t| t % v as u32).collect();
            let logits = Matrix::from_vec(n, v, logits[..n * v].to_vec());
            prop_assert_eq!(
                mean_nll(&logits, &targets).to_bits(),
                softmax_cross_entropy(&logits, &targets).loss.to_bits()
            );
        }
    }

    #[test]
    fn uniform_logits_loss_is_log_v() {
        let logits = Matrix::zeros(4, 10);
        let out = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((out.loss - (10.0f64).ln()).abs() < 1e-6);
        assert!((perplexity(out.loss) - 10.0).abs() < 1e-4);
    }

    #[test]
    fn confident_correct_prediction_low_loss() {
        let mut logits = Matrix::zeros(1, 5);
        logits.set(0, 2, 20.0);
        let out = softmax_cross_entropy(&logits, &[2]);
        assert!(out.loss < 1e-6);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let out = softmax_cross_entropy(&logits, &[0, 2]);
        for i in 0..2 {
            let s: f32 = out.dlogits.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_numerical() {
        let logits = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.0, 1.0, 1.0, -0.5, 0.3]);
        let targets = [2u32, 0];
        let out = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..8 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let num = (softmax_cross_entropy(&lp, &targets).loss
                - softmax_cross_entropy(&lm, &targets).loss) as f32
                / (2.0 * eps);
            assert!(
                (out.dlogits.as_slice()[i] - num).abs() < 1e-3,
                "dlogits[{i}]"
            );
        }
    }

    #[test]
    fn stable_under_huge_logits() {
        let mut logits = Matrix::zeros(1, 3);
        logits.set(0, 0, 1e4);
        logits.set(0, 1, 1e4);
        let out = softmax_cross_entropy(&logits, &[0]);
        assert!(out.loss.is_finite());
        assert!(out.dlogits.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn bpc_and_compression_ratio() {
        // §V-D: perplexity 2^1.11 has BPC 1.11.
        let nll = 1.11 * std::f64::consts::LN_2;
        assert!((bits_per_char(nll) - 1.11).abs() < 1e-12);
        // §V-C: "perplexity of 11.1 equates to compression ratio of 6.3"
        // against ~22 bits/char (93.12 GB / 34.36 G chars ≈ 2.71 B/char).
        let bits_per_char_tieba = 93.12e9 * 8.0 / 34.36e9;
        let ratio = compression_ratio(11.1, bits_per_char_tieba);
        assert!((ratio - 6.3).abs() < 0.15, "ratio {ratio}");
        // And [21]'s: BPC 1.11 on 8-bit text ⇒ ratio ≈ 7 (paper says 6.8
        // from corpus-size arithmetic).
        let r21 = compression_ratio(2f64.powf(1.11), 8.0);
        assert!((r21 - 6.8).abs() < 0.5, "r21 {r21}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let logits = Matrix::zeros(1, 3);
        softmax_cross_entropy(&logits, &[3]);
    }
}
