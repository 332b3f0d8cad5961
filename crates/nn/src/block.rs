//! Row blocks: how a recurrent layer reads its input and how its input
//! gradient's rows are made, a cache-sized block at a time.
//!
//! A word LM's `K×D` input activations are rows of the input embedding
//! table, one per token, and its `K×D` input gradient is `dz·Wxᵀ` row
//! for row. Neither has to exist whole: the forward's input products
//! read [`BLOCK_ROWS`] gathered rows at a time ([`Input::block`]), the
//! backward's `dWx` reads one timestep's `B` rows at a time, and the
//! input gradient's rows are made block by block by whoever consumes
//! them. Every element of `tensor`'s GEMM is one lane summed from `+0.0`
//! in ascending `p`, so a row of a product computed inside a block is
//! the row of the whole product, to the bit.

use std::ops::Range;
use tensor::{Matrix, View};

/// Rows of a block: at `D = 512` a block is 128 KB, which stays in L2
/// while its product runs. One timestep's 512 rows (1 MB) did not.
pub const BLOCK_ROWS: usize = 64;

/// `0..n` in consecutive ranges of at most [`BLOCK_ROWS`] rows.
pub fn blocks(n: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n)
        .step_by(BLOCK_ROWS)
        .map(move |r| r..(r + BLOCK_ROWS).min(n))
}

/// Makes `block` at least `rows × cols`, so its first `rows` rows can
/// take a block of that width: it is left alone when it already is, and
/// otherwise reshaped in its own allocation, which grows only when it
/// must. A buffer reused for blocks of several heights thus settles at
/// the tallest and stops writing anything but the rows it is given.
pub(crate) fn fit(block: &mut Matrix, rows: usize, cols: usize) {
    if block.cols() != cols || block.rows() < rows {
        *block = Matrix::recycled(rows, cols, std::mem::take(block).into_vec());
    }
}

/// A recurrent layer's t-major `(T·B)×D` input, read a block of rows at
/// a time.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Row `i` is row `tokens[i]` of `table`: an embedding lookup, whose
    /// rows are gathered as a block of them is read.
    Lookup {
        /// The `V×D` embedding table.
        table: &'a Matrix,
        /// One table row per input row, every one below `V`.
        tokens: &'a [u32],
    },
    /// A stored matrix, read in place.
    Dense(&'a Matrix),
}

impl<'a> From<&'a Matrix> for Input<'a> {
    fn from(m: &'a Matrix) -> Self {
        Input::Dense(m)
    }
}

impl Input<'_> {
    /// Rows `T·B`.
    pub fn rows(&self) -> usize {
        match self {
            Input::Lookup { tokens, .. } => tokens.len(),
            Input::Dense(m) => m.rows(),
        }
    }

    /// Row width `D`.
    pub fn cols(&self) -> usize {
        match self {
            Input::Lookup { table, .. } => table.cols(),
            Input::Dense(m) => m.cols(),
        }
    }

    /// Rows `rows` as a GEMM operand: a dense input's own rows, with no
    /// copy, or a lookup's rows gathered into the first rows of `block`,
    /// which grows to hold them and keeps its allocation.
    pub fn block<'s>(&'s self, rows: Range<usize>, block: &'s mut Matrix) -> View<'s> {
        match *self {
            Input::Dense(m) => m.rows_view(rows),
            Input::Lookup { table, tokens } => {
                let n = rows.len();
                fit(block, n, table.cols());
                for (i, &t) in tokens[rows].iter().enumerate() {
                    block.row_mut(i).copy_from_slice(table.row(t as usize));
                }
                block.rows_view(0..n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::{Rhs, Store};

    /// A view's elements, read through a product with the identity.
    fn read(view: View<'_>, rows: usize, cols: usize) -> Vec<f32> {
        let mut eye = Matrix::zeros(cols, cols);
        (0..cols).for_each(|j| eye.set(j, j, 1.0));
        let mut out = Matrix::zeros(rows, cols);
        out.gemm_rows(0..rows, view, Rhs::View(eye.view()), Store::Set);
        out.into_vec()
    }

    #[test]
    fn blocks_cover_every_row_once_in_order() {
        for n in [0, 1, 63, 64, 65, 128, 200] {
            let got: Vec<usize> = blocks(n).flatten().collect();
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "n {n}");
            assert!(blocks(n).all(|b| !b.is_empty() && b.len() <= BLOCK_ROWS));
        }
    }

    #[test]
    fn a_lookup_block_is_the_gathered_rows_and_a_dense_block_is_a_view() {
        let table = Matrix::from_vec(4, 2, (0..8).map(|v| v as f32).collect());
        let tokens = [3, 0, 3, 1, 2];
        let lookup = Input::Lookup {
            table: &table,
            tokens: &tokens,
        };
        assert_eq!((lookup.rows(), lookup.cols()), (5, 2));
        let mut block = Matrix::default();
        let view = lookup.block(1..4, &mut block);
        assert_eq!(read(view, 3, 2), [0., 1., 6., 7., 2., 3.]);

        // A shorter block reuses the taller buffer; a wider one reshapes it.
        let (ptr, rows) = (block.as_slice().as_ptr(), block.rows());
        let view = lookup.block(4..5, &mut block);
        assert_eq!(read(view, 1, 2), [4., 5.]);
        assert_eq!((block.as_slice().as_ptr(), block.rows()), (ptr, rows));
        fit(&mut block, 1, 6);
        assert_eq!((block.rows(), block.cols()), (1, 6));

        let dense = Matrix::from_vec(2, 2, vec![9., 8., 7., 6.]);
        let mut untouched = Matrix::default();
        let input = Input::from(&dense);
        let view = input.block(1..2, &mut untouched);
        assert_eq!(read(view, 1, 2), [7., 6.]);
        assert!(untouched.is_empty(), "a dense input copies nothing");
    }
}
