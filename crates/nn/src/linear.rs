//! Fully-connected projection layer.
//!
//! The word LM projects the 2048-cell LSTM state down to 512 dimensions
//! before the output embedding (the "projection" of Jozefowicz et al.
//! that §IV-B adopts); the char LM projects RHN state to the alphabet.

use crate::params;
use tensor::{init, Matrix};

/// `y = x·W + b`, with `W: in×out`, `b: out`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
}

/// Gradients of a [`Linear`] layer from one backward pass.
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// `∂L/∂W`, same shape as `W`.
    pub dw: Matrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl Linear {
    /// Xavier-initialised layer.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        Self {
            w: init::xavier(rng, in_dim, out_dim),
            b: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Read access to the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Number of parameters (weights + bias).
    pub fn param_count(&self) -> usize {
        params::count(self.params())
    }

    /// Forward: `x (n×in) → n×out`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "input dim mismatch");
        let mut y = x.matmul(&self.w);
        y.add_row_bias(&self.b);
        y
    }

    /// Backward: given the forward input `x` and `∂L/∂y`, returns
    /// `(∂L/∂x, grads)`.
    pub fn backward(&self, x: &Matrix, dy: &Matrix) -> (Matrix, LinearGrads) {
        assert_eq!(dy.cols(), self.out_dim());
        assert_eq!(x.rows(), dy.rows());
        let dx = dy.matmul_transpose_b(&self.w);
        let dw = x.transpose_a_matmul(dy);
        let db = dy.sum_rows();
        (dx, LinearGrads { dw, db })
    }

    /// The parameters in their flat order: `w` row-major, then `b`.
    pub(crate) fn params(&self) -> impl Iterator<Item = &[f32]> {
        [self.w.as_slice(), &self.b[..]].into_iter()
    }

    /// [`Linear::params`], mutably.
    pub(crate) fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        [self.w.as_mut_slice(), &mut self.b[..]].into_iter()
    }
}

impl LinearGrads {
    /// The gradients in the order of [`Linear::params`].
    pub(crate) fn parts(&self) -> impl Iterator<Item = &[f32]> {
        [self.dw.as_slice(), &self.db[..]].into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(rng: &mut StdRng, r: usize, c: usize) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn forward_known_values() {
        let mut l = Linear::new(&mut StdRng::seed_from_u64(0), 2, 2);
        l.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        l.b = vec![10., 20.];
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[14., 26.]);
    }

    /// Central-difference numerical gradient check of the full layer.
    #[test]
    fn gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut l = Linear::new(&mut rng, 3, 2);
        let x = rand_matrix(&mut rng, 4, 3);
        // Loss = sum(y^2)/2 so dL/dy = y.
        let y = l.forward(&x);
        let (dx, grads) = l.backward(&x, &y);

        let eps = 1e-3f32;
        let loss = |l: &Linear, x: &Matrix| -> f64 {
            let y = l.forward(x);
            y.as_slice()
                .iter()
                .map(|&v| (v as f64) * (v as f64) / 2.0)
                .sum()
        };

        // Check dW.
        for i in [0usize, 2, 5] {
            let orig = l.w.as_slice()[i];
            l.w.as_mut_slice()[i] = orig + eps;
            let lp = loss(&l, &x);
            l.w.as_mut_slice()[i] = orig - eps;
            let lm = loss(&l, &x);
            l.w.as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (grads.dw.as_slice()[i] - num).abs() < 2e-2,
                "dw[{i}]: analytic {} vs numeric {num}",
                grads.dw.as_slice()[i]
            );
        }
        // Check db.
        for i in 0..2 {
            let orig = l.b[i];
            l.b[i] = orig + eps;
            let lp = loss(&l, &x);
            l.b[i] = orig - eps;
            let lm = loss(&l, &x);
            l.b[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((grads.db[i] - num).abs() < 2e-2);
        }
        // Check dx.
        let mut x2 = x.clone();
        for i in [0usize, 7, 11] {
            let orig = x2.as_slice()[i];
            x2.as_mut_slice()[i] = orig + eps;
            let lp = loss(&l, &x2);
            x2.as_mut_slice()[i] = orig - eps;
            let lm = loss(&l, &x2);
            x2.as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((dx.as_slice()[i] - num).abs() < 2e-2);
        }
    }

    #[test]
    fn apply_moves_against_gradient() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(&mut rng, 2, 2);
        let x = rand_matrix(&mut rng, 8, 2);
        let before: f64 = l.forward(&x).norm_sq();
        for _ in 0..20 {
            let y = l.forward(&x);
            let (_, grads) = l.backward(&x, &y);
            let mut flat = Vec::new();
            params::flatten(grads.parts(), &mut flat);
            params::sgd(l.params_mut(), &flat, 0.05);
        }
        let after: f64 = l.forward(&x).norm_sq();
        assert!(after < before * 0.5, "before {before}, after {after}");
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = Linear::new(&mut rng, 3, 4);
        let x = rand_matrix(&mut rng, 2, 3);
        let y = l.forward(&x);
        let (_, grads) = l.backward(&x, &y);
        // Gradients flatten part for part like the parameters...
        let mut flat = vec![99.0f32]; // offset 1
        params::flatten(grads.parts(), &mut flat);
        assert_eq!(flat.len(), 1 + l.param_count());
        assert_eq!(&flat[1..13], grads.dw.as_slice());
        assert_eq!(&flat[13..], &grads.db[..]);
        assert!(l
            .params()
            .map(<[f32]>::len)
            .eq(grads.parts().map(<[f32]>::len)));
        // ...and a flat buffer loads back into the same places.
        let mut restored = Linear::new(&mut rng, 3, 4);
        params::load(restored.params_mut(), &flat[1..]);
        assert_eq!(restored.w.as_slice(), grads.dw.as_slice());
        assert_eq!(restored.b, grads.db);
    }

    #[test]
    fn param_count() {
        let l = Linear::new(&mut StdRng::seed_from_u64(0), 512, 2048);
        assert_eq!(l.param_count(), 512 * 2048 + 2048);
    }
}
