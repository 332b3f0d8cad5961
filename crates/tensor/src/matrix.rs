//! Row-major `f32` matrices and their GEMM.
//!
//! The hot paths in LM training are `activations × weights` products; on a
//! GPU these run as thread-block kernels, here all three products
//! (`A·B`, `A·Bᵀ`, `Aᵀ·B`) run through one sequential register-tiled
//! kernel, [`gemm`]: an `MR×NR` block of `C` stays in registers across
//! the whole `k` loop and `B` is read once per `MR`-row block instead of
//! once per row. The kernel spawns no threads — a simulated GPU rank is
//! already the unit of host parallelism.
//!
//! Every `C[i][j]` is accumulated from `+0.0` in ascending `p` with a
//! separate multiply and add, whatever the tile shape, so the three
//! products agree with each other and with a textbook triple loop to the
//! bit. Nothing is skipped: a zero in `A` against an `inf`/`NaN` in `B`
//! yields `NaN` (IEEE `0·inf`), which is what a loss-scaling overflow
//! check needs to see.

use std::fmt;

/// Rows of `C` one tile keeps in registers.
const MR: usize = 2;
/// Columns of `C` one tile keeps in registers (the width of a `B` panel).
const NR: usize = 16;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element setter (debug-checked).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// `self += other`, elementwise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`, elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`, elementwise.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius-norm squared (sum of squares) — used by loss-scaling
    /// overflow checks and gradient-norm diagnostics.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }

    /// `C = A · B` where `A` is `m×k`, `B` is `k×n`.
    ///
    /// All three products share one kernel: each `C[i][j]` is summed from
    /// `+0.0` in ascending `p`, and non-finite values propagate (a zero
    /// in `A` does not mask an `inf` or `NaN` in `B`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        gemm(self.view(), other.view())
    }

    /// `C = A · Bᵀ` where `A` is `m×k`, `B` is `n×k`. Used by output
    /// projections against embedding matrices, which are stored `V×D`,
    /// and by every `dz · Wᵀ` of the backward passes.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimension mismatch");
        gemm(self.view(), other.view().t())
    }

    /// `C = Aᵀ · B` where `A` is `k×m`, `B` is `k×n`. Used by weight
    /// gradients (`dW = xᵀ · dy`).
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "inner dimension mismatch");
        gemm(self.view().t(), other.view())
    }

    fn view(&self) -> View<'_> {
        View {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            row_stride: self.cols,
            col_stride: 1,
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds `bias` (length `cols`) to every row.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (x, &b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Sums the rows into a length-`cols` vector (bias gradients).
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for row in self.data.chunks(self.cols) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        out
    }

    /// Maximum absolute difference against another matrix (test helper,
    /// also used by exchange-equivalence assertions in `lm`).
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// A strided read-only view of a stored matrix: element `(r, c)` is
/// `data[r * row_stride + c * col_stride]`. Transposing swaps the
/// strides, which is how the three products reach one kernel.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl View<'_> {
    fn t(self) -> Self {
        View {
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
            ..self
        }
    }

    /// Copies columns `j0..j0 + w` into `panel` as `rows` groups of `NR`
    /// (`p`-major, zero-padded past `w`), so the tile loop reads `B`
    /// contiguously whichever way it is stored.
    fn pack_panel(self, j0: usize, w: usize, panel: &mut [f32]) {
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            let row = &self.data[p * self.row_stride + j0 * self.col_stride..];
            if self.col_stride == 1 {
                dst[..w].copy_from_slice(&row[..w]);
            } else {
                for (j, d) in dst[..w].iter_mut().enumerate() {
                    *d = row[j * self.col_stride];
                }
            }
            dst[w..].fill(0.0);
        }
    }
}

/// `C = A · B` over strided views; the one accumulation loop behind
/// [`Matrix::matmul`], [`Matrix::matmul_transpose_b`] and
/// [`Matrix::transpose_a_matmul`].
fn gemm(a: View<'_>, b: View<'_>) -> Matrix {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    debug_assert_eq!(k, b.rows);
    let mut out = Matrix::zeros(m, n);
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let w = NR.min(n - j0);
        b.pack_panel(j0, w, &mut panel);
        for i0 in (0..m).step_by(MR) {
            let c_block = &mut out.data[i0 * n + j0..];
            // MR = 2 leaves a one-row remainder at most.
            match m - i0 {
                1 => tile::<1>(a, i0, &panel, c_block, n, w),
                _ => tile::<MR>(a, i0, &panel, c_block, n, w),
            }
        }
    }
    out
}

/// One `R×NR` tile of `C`: `R·NR` independent sums, each advanced once
/// per `p` in ascending order. Writes the first `w` columns.
#[inline(always)]
fn tile<const R: usize>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; NR]; R];
    for (p, b_row) in panel.chunks_exact(NR).enumerate() {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let a_ip = a.data[(i0 + i) * a.row_stride + p * a.col_stride];
            // Indexed, not zipped: written as `zip` over the two rows,
            // rustc 1.95 compiles this loop to under half the rate
            // (8 vs 18 GFLOP/s at 16×1024×256).
            for j in 0..NR {
                acc_row[j] += a_ip * b_row[j];
            }
        }
    }
    for (i, acc_row) in acc.iter().enumerate() {
        c_block[i * c_stride..][..w].copy_from_slice(&acc_row[..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// In-order reference: every `C[i][j]` from `+0.0` in ascending `p`.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a.get(i, p) * b.get(p, j);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    /// Uniform in `(-2, 2)` with every seventh element an exact zero, so
    /// a kernel that skipped zero terms or reordered around them shows.
    fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|x| {
                if x % 7 == 3 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}: shape"
        );
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// All three products of an `m×k` by `k×n` pair against the in-order
    /// reference, bit for bit.
    fn check_products(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(&mut rng, m, k);
        let b = random(&mut rng, k, n);
        let want = naive_matmul(&a, &b);
        let shape = format!("{m}x{k}x{n}");
        assert_bits_eq(&a.matmul(&b), &want, &format!("matmul {shape}"));
        assert_bits_eq(
            &a.matmul_transpose_b(&b.transpose()),
            &want,
            &format!("matmul_transpose_b {shape}"),
        );
        assert_bits_eq(
            &a.transpose().transpose_a_matmul(&b),
            &want,
            &format!("transpose_a_matmul {shape}"),
        );
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let mut eye = Matrix::zeros(4, 4);
        for i in 0..4 {
            eye.set(i, i, 1.0);
        }
        let a = Matrix::from_vec(4, 4, (0..16).map(|x| x as f32).collect());
        assert_eq!(a.matmul(&eye).as_slice(), a.as_slice());
        assert_eq!(eye.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.25).collect());
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_transpose_b(&b);
        assert_bits_eq(&direct, &via_t, "A·Bᵀ");
    }

    #[test]
    fn transpose_a_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., -2., 3., 0.5, 5., -6.]);
        let b = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32 * 0.5 - 2.0).collect());
        let via_t = a.transpose().matmul(&b);
        let direct = a.transpose_a_matmul(&b);
        assert_bits_eq(&direct, &via_t, "Aᵀ·B");
    }

    #[test]
    fn products_bit_identical_at_workload_and_edge_shapes() {
        // The e2e workloads' GEMMs as `m×k×n` (ᵀ marks the ones issued
        // as `A·Bᵀ`; every shape is checked through all three products).
        let workloads = [
            (16, 64, 1024),
            (16, 1024, 256), // ᵀ
            (512, 512, 16),
            (512, 16, 4), // ᵀ
            (1, 48, 48),
            (320, 64, 4000), // ᵀ
        ];
        // k = 0, m < MR, m and n straddling a tile boundary.
        let edges = [
            (3, 0, 5),
            (1, 1, 1),
            (MR - 1, 7, NR - 1),
            (MR + 1, 9, NR + 1),
            (2 * MR + 3, 5, 2 * NR + 3),
        ];
        for (seed, &(m, k, n)) in workloads.iter().chain(&edges).enumerate() {
            check_products(m, k, n, seed as u64);
        }
    }

    #[test]
    fn non_finite_values_propagate_through_every_product() {
        // Row 0 of A is all zeros, row 1 all ones; B holds one inf and
        // one NaN. 0·inf = NaN must reach C through all three products:
        // a kernel that skips `a == 0.0` terms would mask it.
        let a = Matrix::from_vec(2, 2, vec![0., 0., 1., 1.]);
        let b = Matrix::from_vec(2, 3, vec![f32::INFINITY, 1., 2., 3., f32::NAN, 4.]);
        let products = [
            a.matmul(&b),
            a.matmul_transpose_b(&b.transpose()),
            a.transpose().transpose_a_matmul(&b),
        ];
        for c in &products {
            assert!(c.get(0, 0).is_nan(), "0·inf masked: {}", c.get(0, 0));
            assert!(c.get(0, 1).is_nan(), "0·NaN masked: {}", c.get(0, 1));
            assert_eq!(c.get(0, 2), 0.0);
            assert_eq!(c.get(1, 0), f32::INFINITY);
            assert!(c.get(1, 1).is_nan());
            assert_eq!(c.get(1, 2), 6.0);
            assert!(!c.norm_sq().is_finite());
        }
    }

    #[test]
    fn add_row_bias_and_sum_rows() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_bias(&[1.0, -2.0]);
        assert_eq!(m.as_slice(), &[1., -2., 1., -2., 1., -2.]);
        assert_eq!(m.sum_rows(), vec![3.0, -6.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Matrix::from_vec(1, 3, vec![10., 20., 30.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6., 12., 18.]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12., 24., 36.]);
    }

    #[test]
    fn norm_sq() {
        let m = Matrix::from_vec(1, 3, vec![3., 4., 0.]);
        assert!((m.norm_sq() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    proptest! {
        #[test]
        fn products_bit_identical_to_naive(
            m in 1usize..40, k in 1usize..40, n in 1usize..40,
            seed in 0u64..1000,
        ) {
            check_products(m, k, n, seed);
        }

        #[test]
        fn transpose_involution(m in 1usize..6, n in 1usize..6) {
            let a = Matrix::from_vec(m, n, (0..m*n).map(|x| x as f32).collect());
            let tt = a.transpose().transpose();
            prop_assert_eq!(tt.as_slice(), a.as_slice());
        }
    }
}
