//! Numerically-stable reductions and pointwise nonlinearities.
//!
//! Softmax over large vocabularies is exactly where the paper's LMs spend
//! their FLOPs; [`log_sum_exp`] subtracts the row maximum before
//! exponentiating so a full softmax over a 100 K vocabulary stays finite.
//! The gates' `tanh` and sigmoid are lane-wise kernels over a whole block,
//! [`tanh_in_place`] and [`sigmoid_in_place`].

pub use crate::activation::{sigmoid_in_place, tanh_in_place};

/// log(Σ exp(xᵢ)) computed stably.
pub fn log_sum_exp(row: &[f32]) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = row.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
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

    /// One element through [`sigmoid_in_place`].
    fn sigmoid(x: f32) -> f32 {
        let mut v = [x];
        sigmoid_in_place(&mut v);
        v[0]
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
        fn log_sum_exp_at_least_max(xs in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(log_sum_exp(&xs) >= max - 1e-5);
        }
    }
}
