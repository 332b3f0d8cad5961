//! A layer's weight matrices and their GEMM packs, built once per change
//! of weights.
//!
//! A recurrent layer multiplies many row blocks by the same matrices:
//! every timestep's state by its recurrent matrices — forward by each
//! one, backward by its transpose — and every block of input rows by its
//! input matrices, whose transposes make the input gradient's rows. The
//! GEMM driver's packed layout ([`PackedB`]) of each is worth building
//! once and reading many times. [`Weights`] holds the matrices and builds
//! each pack lazily, on the first pass that reads it after the weights
//! changed. Its only `&mut` path to the matrices drops both packs, so a
//! stale pack cannot exist. Under synchronous SGD the weights change
//! once per step and every rank's pass reads them in between: one
//! packing per update, not one per rank. A clone shares the packs until
//! either side's weights change. A layer whose passes never run builds
//! no pack.
//!
//! The two pack builders below are the only `PackedB::new` calls in
//! this crate (CI greps for the others).

use crate::block::fit;
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};
use tensor::{Matrix, PackedB, Rhs, Store};

/// A layer's weight matrices, read as a slice, with their packs.
#[derive(Debug, Clone)]
pub(crate) struct Weights {
    weights: Vec<Matrix>,
    /// Each matrix packed for `A·W`, once built.
    plain: OnceLock<Arc<[PackedB]>>,
    /// Each matrix packed for `A·Wᵀ`, once built.
    transposed: OnceLock<Arc<[PackedB]>>,
}

impl Weights {
    /// `weights`, nothing packed yet.
    pub(crate) fn new(weights: Vec<Matrix>) -> Self {
        Self {
            weights,
            plain: OnceLock::new(),
            transposed: OnceLock::new(),
        }
    }

    /// The matrices, mutably; both packs are dropped.
    pub(crate) fn weights_mut(&mut self) -> &mut [Matrix] {
        self.plain = OnceLock::new();
        self.transposed = OnceLock::new();
        &mut self.weights
    }

    /// Each matrix packed for `A·W` (the forward pass's products).
    pub(crate) fn packed(&self) -> &[PackedB] {
        self.plain.get_or_init(|| {
            self.weights
                .iter()
                .map(|w| PackedB::new(w.view()))
                .collect()
        })
    }

    /// Each matrix packed for `A·Wᵀ` (the backward pass's products).
    pub(crate) fn packed_t(&self) -> &[PackedB] {
        self.transposed.get_or_init(|| {
            self.weights
                .iter()
                .map(|w| PackedB::new(w.view().t()))
                .collect()
        })
    }

    /// Rows `rows` of `Σ_i dz[i]·W_iᵀ` into the first rows of `out` (see
    /// [`fit`]): the first product stored, each next one added to it, so
    /// every row is the row of the sum over all rows, to the bit. For a
    /// layer whose input products are these matrices, the rows of its
    /// input gradient.
    pub(crate) fn sum_products_t(&self, dz: &[Matrix], rows: Range<usize>, out: &mut Matrix) {
        assert_eq!(dz.len(), self.weights.len(), "one gradient per matrix");
        let n = rows.len();
        fit(out, n, self.weights[0].rows());
        for (i, (dz, w)) in dz.iter().zip(self.packed_t()).enumerate() {
            let store = if i == 0 { Store::Set } else { Store::Add };
            out.gemm_rows(0..n, dz.rows_view(rows.clone()), Rhs::Packed(w), store);
        }
    }

    /// Whether either pack is built.
    #[cfg(test)]
    pub(crate) fn is_packed(&self) -> bool {
        self.plain.get().is_some() || self.transposed.get().is_some()
    }
}

impl Deref for Weights {
    type Target = [Matrix];

    fn deref(&self) -> &[Matrix] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn weights() -> Weights {
        let mut rng = StdRng::seed_from_u64(3);
        Weights::new(vec![
            init::xavier(&mut rng, 5, 7),
            init::xavier(&mut rng, 5, 7),
        ])
    }

    /// `a · packs[i]` into a fresh matrix.
    fn product(a: &Matrix, packs: &[PackedB], i: usize, n: usize) -> Vec<u32> {
        let mut c = Matrix::zeros(a.rows(), n);
        c.gemm_rows(0..a.rows(), a.view(), Rhs::Packed(&packs[i]), Store::Set);
        c.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn packs_are_built_on_first_read_and_dropped_by_every_write() {
        let mut r = weights();
        assert!(!r.is_packed(), "nothing is packed before a pass reads it");
        let a = Matrix::from_vec(2, 5, (0..10).map(|i| i as f32 * 0.25 - 1.0).collect());
        let before = product(&a, r.packed(), 1, 7);
        assert!(r.is_packed());
        let packs = r.packed().as_ptr();
        assert_eq!(r.packed().as_ptr(), packs, "a second read reuses the pack");

        r.weights_mut()[1].as_mut_slice()[0] += 1.0;
        assert!(!r.is_packed(), "a write drops both packs");
        let after = product(&a, r.packed(), 1, 7);
        assert_ne!(before, after, "the new pack reads the new weights");
        let want = a.matmul(&r[1]);
        let want: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(after, want);

        let at = Matrix::from_vec(2, 7, (0..14).map(|i| i as f32 * 0.5 - 3.0).collect());
        let want = at.matmul_transpose_b(&r[0]);
        let want: Vec<u32> = want.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(product(&at, r.packed_t(), 0, 5), want);
    }

    #[test]
    fn a_clone_shares_the_packs_until_it_is_written() {
        let src = weights();
        let packs = src.packed().as_ptr();
        let mut copy = src.clone();
        assert_eq!(copy.packed().as_ptr(), packs, "a clone shares the pack");
        copy.weights_mut()[0].as_mut_slice()[0] = 9.0;
        assert!(!copy.is_packed());
        assert_eq!(src.packed().as_ptr(), packs, "the source keeps its pack");
        assert_ne!(copy.packed().as_ptr(), packs);
    }
}
