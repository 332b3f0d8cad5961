//! Helpers the layer and model test modules share.

use rand::rngs::StdRng;
use rand::Rng;
use tensor::Matrix;

/// A t-major `(t·b)×d` sequence, uniform in `(-1, 1)`.
pub(crate) fn rand_seq(rng: &mut StdRng, t: usize, b: usize, d: usize) -> Matrix {
    Matrix::from_vec(
        t * b,
        d,
        (0..t * b * d).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// `Σ‖h‖²/2`, the loss whose gradient with respect to `h` is `h`.
pub(crate) fn sq_loss(h_all: &Matrix) -> f64 {
    h_all.norm_sq() / 2.0
}

/// Rows `t·b..(t+1)·b` of a t-major matrix as a matrix of their own.
pub(crate) fn step_of(all: &Matrix, t: usize, b: usize) -> Matrix {
    let cols = all.cols();
    Matrix::from_vec(
        b,
        cols,
        all.as_slice()[t * b * cols..(t + 1) * b * cols].to_vec(),
    )
}

/// Logistic sigmoid through libm's `expf`: the oracle the layers'
/// references compute, against `tensor`'s lane-wise kernel.
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The values' bit patterns, for `to_bits` equality with a readable diff.
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
