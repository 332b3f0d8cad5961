//! Embedding layers and their sparse gradients.
//!
//! The forward pass is the gather of Figure 2: token `w` at position `i`
//! reads row `w` of the `V×D` table as row `i` of the `K×D` activations
//! ([`Embedding::lookup`] hands a recurrent layer those rows a block at a
//! time, so the `K×D` matrix is never stored). The backward pass is the
//! scatter-accumulate of §II-A: row `i` of the `K×D` gradient must be
//! *added* into row `w` of the table — and because tokens repeat,
//! updates to the same row must accumulate (the serialisation hazard the
//! paper's uniqueness scheme eliminates).
//!
//! Crucially for the paper, no model's backward pass touches the table:
//! the gradient comes back as a [`SparseGrad`] (token indices +
//! token-aligned gradient rows). How that gradient crosses GPUs — dense
//! ALLGATHER or the unique scheme — is the `lm` crate's business.

use crate::block::Input;
use tensor::{init, Matrix};

/// A `V×D` embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    weights: Matrix,
}

/// Token-aligned sparse gradient for an embedding table: row `i` of
/// `rows` is the gradient for table row `indices[i]`. Indices may repeat.
#[derive(Debug, Clone)]
pub struct SparseGrad {
    /// Table row per gradient row (the paper's vector `J`).
    pub indices: Vec<u32>,
    /// One `D`-dim gradient per token occurrence (the paper's `∆`).
    pub rows: Matrix,
}

impl SparseGrad {
    /// Locally reduces duplicate indices (step 2 of §III-A): gradient
    /// rows with equal indices are summed, order of first occurrence is
    /// preserved. Returns `(Ĵ, ∆̂)` with `Ĵ` duplicate-free.
    ///
    /// ```
    /// use nn::SparseGrad;
    /// use tensor::Matrix;
    /// // The repeated token "a" from the paper's Figure 2 example.
    /// let grad = SparseGrad {
    ///     indices: vec![1, 1],
    ///     rows: Matrix::from_vec(2, 2, vec![1.0, 2.0, 10.0, 20.0]),
    /// };
    /// let reduced = grad.local_reduce();
    /// assert_eq!(reduced.indices, vec![1]);
    /// assert_eq!(reduced.rows.row(0), &[11.0, 22.0]);
    /// ```
    pub fn local_reduce(&self) -> SparseGrad {
        let d = self.rows.cols();
        let mut first_slot: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        let mut indices = Vec::new();
        let mut rows_data: Vec<f32> = Vec::new();
        for (i, &idx) in self.indices.iter().enumerate() {
            match first_slot.get(&idx) {
                Some(&slot) => {
                    let dst = &mut rows_data[slot * d..(slot + 1) * d];
                    for (a, &b) in dst.iter_mut().zip(self.rows.row(i)) {
                        *a += b;
                    }
                }
                None => {
                    first_slot.insert(idx, indices.len());
                    indices.push(idx);
                    rows_data.extend_from_slice(self.rows.row(i));
                }
            }
        }
        let n = indices.len();
        SparseGrad {
            indices,
            rows: Matrix::from_vec(n, d, rows_data),
        }
    }

    /// Number of gradient rows.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True if there are no gradient rows.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

impl Embedding {
    /// Creates a table with `U(−1/√D, 1/√D)` init.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R, vocab: usize, dim: usize) -> Self {
        Self {
            weights: init::embedding(rng, vocab, dim),
        }
    }

    /// Wraps an existing table.
    pub fn from_matrix(weights: Matrix) -> Self {
        Self { weights }
    }

    /// Vocabulary size `V`.
    pub fn vocab(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimension `D`.
    pub fn dim(&self) -> usize {
        self.weights.cols()
    }

    /// Read access to the table.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the table (used by exchange strategies when
    /// applying synchronized updates).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// The rows of `tokens` as a recurrent layer's input, gathered a
    /// block at a time as the layer reads them. Panics on a token outside
    /// the vocabulary.
    pub fn lookup<'a>(&'a self, tokens: &'a [u32]) -> Input<'a> {
        if let Some(t) = tokens.iter().find(|&&t| t as usize >= self.vocab()) {
            panic!("token {t} out of vocabulary");
        }
        Input::Lookup {
            table: &self.weights,
            tokens,
        }
    }

    /// Forward gather: returns the `len(tokens)×D` activation matrix.
    pub fn forward(&self, tokens: &[u32]) -> Matrix {
        let d = self.dim();
        let mut out = Matrix::zeros(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            assert!((t as usize) < self.vocab(), "token {t} out of vocabulary");
            out.row_mut(i).copy_from_slice(self.weights.row(t as usize));
        }
        out
    }

    /// SGD-style in-place update: `W[idx] -= lr · row` for each pair.
    /// With duplicate-free indices (post-reduction) each table row is
    /// touched once — the race-free property §III-A points out.
    pub fn apply_rows(&mut self, indices: &[u32], rows: &Matrix, lr: f32) {
        assert_eq!(indices.len(), rows.rows());
        assert_eq!(rows.cols(), self.dim());
        for (i, &idx) in indices.iter().enumerate() {
            let dst = self.weights.row_mut(idx as usize);
            for (w, &g) in dst.iter_mut().zip(rows.row(i)) {
                *w -= lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Embedding {
        // 5 words, D = 3, rows are recognisable.
        let w = Matrix::from_vec(
            5,
            3,
            vec![
                0., 0., 0., //
                1., 1., 1., //
                2., 2., 2., //
                3., 3., 3., //
                4., 4., 4.,
            ],
        );
        Embedding::from_matrix(w)
    }

    #[test]
    fn forward_gathers_rows() {
        let e = table();
        // The paper's "I want a pen and a" example: repeated token "a".
        let out = e.forward(&[4, 1, 0, 3, 2, 0]);
        assert_eq!(out.row(0), &[4., 4., 4.]);
        assert_eq!(out.row(2), &[0., 0., 0.]);
        assert_eq!(out.row(5), &[0., 0., 0.]); // "a" again
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn forward_rejects_oov() {
        table().forward(&[5]);
    }

    #[test]
    #[should_panic(expected = "token 5 out of vocabulary")]
    fn lookup_rejects_oov() {
        table().lookup(&[1, 5]);
    }

    #[test]
    fn local_reduce_accumulates_duplicates() {
        let grad = SparseGrad {
            indices: vec![3, 1, 3, 3],
            rows: Matrix::from_vec(4, 2, vec![1., 1., 5., 5., 2., 2., 4., 4.]),
        };
        let reduced = grad.local_reduce();
        assert_eq!(reduced.indices, vec![3, 1]);
        assert_eq!(reduced.rows.row(0), &[7., 7.]); // 1+2+4
        assert_eq!(reduced.rows.row(1), &[5., 5.]);
    }

    #[test]
    fn local_reduce_no_duplicates_is_identity() {
        let grad = SparseGrad {
            indices: vec![2, 0, 4],
            rows: Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]),
        };
        let reduced = grad.local_reduce();
        assert_eq!(reduced.indices, grad.indices);
        assert_eq!(reduced.rows.as_slice(), grad.rows.as_slice());
    }

    #[test]
    fn apply_rows_subtracts_scaled_gradient() {
        let mut e = table();
        let rows = Matrix::from_vec(2, 3, vec![1., 1., 1., 2., 2., 2.]);
        e.apply_rows(&[0, 4], &rows, 0.5);
        assert_eq!(e.weights().row(0), &[-0.5, -0.5, -0.5]);
        assert_eq!(e.weights().row(4), &[3., 3., 3.]);
        assert_eq!(e.weights().row(2), &[2., 2., 2.]); // untouched
    }

    #[test]
    fn reduce_then_apply_equals_apply_duplicates() {
        // The uniqueness invariant in miniature: applying the reduced
        // gradient equals applying the raw duplicated gradient.
        let grad = SparseGrad {
            indices: vec![1, 1, 2],
            rows: Matrix::from_vec(3, 3, vec![1., 0., 0., 0., 1., 0., 9., 9., 9.]),
        };
        let mut a = table();
        a.apply_rows(&grad.indices, &grad.rows, 0.1);
        let mut b = table();
        let red = grad.local_reduce();
        b.apply_rows(&red.indices, &red.rows, 0.1);
        assert!(a.weights().max_abs_diff(b.weights()) < 1e-6);
    }

    #[test]
    fn new_is_seed_deterministic() {
        let a = Embedding::new(&mut StdRng::seed_from_u64(1), 10, 4);
        let b = Embedding::new(&mut StdRng::seed_from_u64(1), 10, 4);
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
    }
}
