//! Numerically-stable reductions and pointwise nonlinearities.
//!
//! Softmax over large vocabularies is exactly where the paper's LMs spend
//! their FLOPs; everything here subtracts the row maximum before
//! exponentiating so full-softmax over a 100 K vocabulary stays finite.

use crate::matrix::Matrix;

/// In-place row-wise softmax.
pub fn softmax_rows(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_mut(cols) {
        softmax_in_place(row);
    }
}

/// In-place softmax of a single slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// log(Σ exp(xᵢ)) computed stably.
pub fn log_sum_exp(row: &[f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = row.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of sigmoid expressed via its output `y = σ(x)`.
#[inline]
pub fn dsigmoid_from_y(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Derivative of tanh expressed via its output `y = tanh(x)`.
#[inline]
pub fn dtanh_from_y(y: f32) -> f32 {
    1.0 - y * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let row = m.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut row = vec![1000.0f32, 1001.0, 1002.0];
        softmax_in_place(&mut row);
        assert!(row.iter().all(|x| x.is_finite()));
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_matches_naive_in_safe_range() {
        let row = [0.1f32, -0.4, 2.0, 1.5];
        let naive = row.iter().map(|&x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&row) - naive).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_stable_for_large_values() {
        let row = [500.0f32, 500.0];
        let got = log_sum_exp(&row);
        assert!((got - (500.0 + 2.0f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_symmetry_and_bounds() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn derivative_identities() {
        let y = sigmoid(0.7);
        assert!((dsigmoid_from_y(y) - y * (1.0 - y)).abs() < 1e-9);
        let t = 0.7f32.tanh();
        assert!((dtanh_from_y(t) - (1.0 - t * t)).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn softmax_probabilities(xs in proptest::collection::vec(-30.0f32..30.0, 1..64)) {
            let mut row = xs;
            softmax_in_place(&mut row);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn log_sum_exp_at_least_max(xs in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(log_sum_exp(&xs) >= max - 1e-5);
        }
    }
}
