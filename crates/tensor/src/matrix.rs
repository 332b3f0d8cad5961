//! Row-major `f32` matrices and their GEMM.
//!
//! The hot paths in LM training are `activations × weights` products; on a
//! GPU these run as thread-block kernels, here every product — the three
//! allocating ones (`A·B`, `A·Bᵀ`, `Aᵀ·B`) and the in-place
//! [`Matrix::gemm_rows`] — runs through one sequential register-tiled
//! driver, `gemm`, with one loop nest: `B` is packed in column blocks of
//! at most `BLOCK_FLOATS` (64 KB; all of `B` when it fits, one 16-column
//! panel at least), and within a block `C` is walked row tile by row
//! tile, each `R×16` tile's sums in registers across the whole `k` loop,
//! each row tile across every panel of the block before the next. A
//! small-`k` product thus writes each row of `C` contiguously. The kernel
//! spawns no threads — a simulated GPU rank is already the unit of host
//! parallelism.
//!
//! **Width.** The tile is instantiated at the widest vector unit the CPU
//! reports (`Width`; CPUID only — no build flag, feature or option
//! selects it): a `16×16` tile of explicit AVX-512F multiplies and adds,
//! the generic tile body at `4×16` compiled under `avx2`, or the same
//! body at `2×16` for the build's baseline ISA. The per-width code is the
//! tile's inner `p` loop, plus the AVX-512 tile's store of a full-width
//! tile straight from its registers (a load, a separate add under `Add`,
//! a store per row); partial panels and the other widths share one
//! epilogue, `store_tile`.
//!
//! **Order.** Every `C[i][j]` is one lane accumulated from `+0.0` in
//! ascending `p` with a separate multiply and add — never a fused one —
//! whatever the tile shape, so all widths and all operand layouts agree
//! with each other and with a textbook triple loop to the bit. Nothing is
//! skipped: a zero in `A` against an `inf`/`NaN` in `B` yields `NaN`
//! (IEEE `0·inf`), which is what a loss-scaling overflow check needs to
//! see.
//!
//! **In place.** [`Matrix::gemm_rows`] writes a row range of an existing
//! matrix from operand [`View`]s (a row range of a stored matrix,
//! optionally transposed — no copy) and a right operand that is either a
//! view or a [`PackedB`] (its panels, built once and reused), under a
//! [`Store`] mode: `Add` stores `C[i][j] + s` where `s` is the very sum
//! from `+0.0` that `Set` would store, so it is bitwise
//! `c.add_assign(&a.matmul(b))` without the temporary or the second pass.
//! `AddRuns(run)` adds one such sum per `run` consecutive `p`, in order,
//! the tile's `C` held across the runs: a sum over `t` of per-step
//! products issued as one call, each step's term associated as its own
//! call would have associated it. Its tiles are their own (`tile_runs`,
//! `tile_avx512_runs`); the driver, its blocks and its packing are shared.
//!
//! This module holds the workspace's `unsafe`, but for the width dispatch
//! of the gate kernels (`activation`): the calls into the
//! `#[target_feature]` tiles (the feature was detected first), the
//! AVX-512 tile's 512-bit loads and stores (each pointer comes from a
//! slice of exactly sixteen floats) and its unchecked reads of `A` (the
//! largest index is asserted once per tile).

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::Range;

/// Columns of `C` one tile keeps in registers (the width of a `B` panel).
const NR: usize = 16;

/// Floats of packed `B` the driver walks `C` against at once (64 KB, an
/// L2-resident block): as many whole panels as fit, and at least one.
/// All of `B` fits for every `k = 16` and `n = 16` product of the `e2e`
/// workloads, so such a product writes each row tile of `C` once,
/// contiguously, instead of 64 bytes of it per panel.
const BLOCK_FLOATS: usize = 16 * 1024;

/// A dense row-major matrix of `f32`. The default is `0×0`, holding no
/// allocation.
#[derive(Clone, PartialEq, Default)]
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

    /// A `rows × cols` matrix in `buf`'s allocation, holding whatever
    /// `buf` held (zeros past its old length): the output of a product
    /// stored with [`Store::Set`], which writes every element, without a
    /// fresh allocation to fault in.
    pub fn recycled(rows: usize, cols: usize, mut buf: Vec<f32>) -> Self {
        buf.resize(rows * cols, 0.0);
        Self::from_vec(rows, cols, buf)
    }

    /// The row-major buffer, the matrix ended (to be
    /// [`Matrix::recycled`]).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
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
    /// All products share one kernel: each `C[i][j]` is summed from
    /// `+0.0` in ascending `p`, and non-finite values propagate (a zero
    /// in `A` does not mask an `inf` or `NaN` in `B`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        product(self.view(), other.view())
    }

    /// `C = A · Bᵀ` where `A` is `m×k`, `B` is `n×k`. Used by output
    /// projections against embedding matrices, which are stored `V×D`,
    /// and by every `dz · Wᵀ` of the backward passes.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "inner dimension mismatch");
        product(self.view(), other.view().t())
    }

    /// `C = Aᵀ · B` where `A` is `k×m`, `B` is `k×n`. Used by weight
    /// gradients (`dW = xᵀ · dy`).
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "inner dimension mismatch");
        product(self.view().t(), other.view())
    }

    /// `self[rows] = a · b` ([`Store::Set`]) or `self[rows] += a · b`
    /// ([`Store::Add`], [`Store::AddRuns`]), in place: the entry the three
    /// allocating products wrap. `a` is `rows.len()×k`; `b` ([`Rhs`]: a
    /// [`View`] or a [`PackedB`]) is `k×self.cols()`. `Add` adds each
    /// finished sum to what `C` held, so it equals
    /// `add_assign(&a.matmul(b))` to the bit; `AddRuns` adds one such sum
    /// per run of `p`, in order.
    pub fn gemm_rows(&mut self, rows: Range<usize>, a: View<'_>, b: Rhs<'_>, store: Store) {
        assert_eq!(a.rows, rows.len(), "row count mismatch");
        assert_eq!(a.cols, b.rows(), "inner dimension mismatch");
        assert_eq!(b.cols(), self.cols, "column count mismatch");
        GEMM_MACS.set(GEMM_MACS.get() + (a.rows * a.cols * self.cols) as u64);
        let c = &mut self.data[rows.start * self.cols..rows.end * self.cols];
        let width = Width::detect();
        match store {
            Store::Set => gemm::<SET>(width, c, a, b, 0),
            Store::Add => gemm::<ADD>(width, c, a, b, 0),
            Store::AddRuns(run) => {
                assert!(run >= 1, "a run holds at least one p");
                gemm::<RUNS>(width, c, a, b, run.min(a.cols.max(1)))
            }
        }
    }

    /// The whole matrix as a GEMM operand.
    pub fn view(&self) -> View<'_> {
        self.rows_view(0..self.rows)
    }

    /// Rows `rows` as a GEMM operand, without a copy: step `t`'s `B×D`
    /// block of a t-major `(T·B)×D` matrix is `rows_view(t*B..(t+1)*B)`.
    pub fn rows_view(&self, rows: Range<usize>) -> View<'_> {
        View {
            data: &self.data[rows.start * self.cols..rows.end * self.cols],
            rows: rows.len(),
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

/// A strided read-only view of (a row range of) a stored matrix: element
/// `(r, c)` is `data[r * row_stride + c * col_stride]`. Transposing swaps
/// the strides, which is how every operand layout reaches one kernel.
///
/// Built only by [`Matrix::view`], [`Matrix::rows_view`] and [`View::t`],
/// so `data` always holds exactly `rows × cols` elements.
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl View<'_> {
    /// The transpose of this view (no data moves).
    pub fn t(self) -> Self {
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

/// A right operand packed once: all `⌈n/16⌉` panels of a `k×n` view,
/// each the contiguous zero-padded `k×16` block the tile loop reads.
/// What `gemm` otherwise builds per call, block by block; worth keeping
/// when the same `B` meets many left operands, as a recurrent weight
/// does at every timestep. Pack `m.view()` for `A·M`, `m.view().t()` for
/// `A·Mᵀ`.
#[derive(Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs every panel of `b`.
    pub fn new(b: View<'_>) -> Self {
        let (k, n) = (b.rows, b.cols);
        let mut panels = vec![0.0f32; n.div_ceil(NR) * k * NR];
        // `k = 0` packs nothing; `max(1)` only keeps `chunks_mut` legal.
        for (j0, panel) in (0..n).step_by(NR).zip(panels.chunks_mut((k * NR).max(1))) {
            b.pack_panel(j0, NR.min(n - j0), panel);
        }
        Self { k, n, panels }
    }
}

/// The right operand of [`Matrix::gemm_rows`]: packed per call from a
/// view, or packed beforehand.
#[derive(Clone, Copy)]
pub enum Rhs<'a> {
    /// Pack each block of panels as the product reaches it.
    View(View<'a>),
    /// Read the panels of a [`PackedB`].
    Packed(&'a PackedB),
}

impl Rhs<'_> {
    fn rows(&self) -> usize {
        match self {
            Rhs::View(v) => v.rows,
            Rhs::Packed(p) => p.k,
        }
    }

    fn cols(&self) -> usize {
        match self {
            Rhs::View(v) => v.cols,
            Rhs::Packed(p) => p.n,
        }
    }
}

/// What [`Matrix::gemm_rows`] does with each finished sum.
#[derive(Clone, Copy, Debug)]
pub enum Store {
    /// `C[i][j] = sum`.
    Set,
    /// `C[i][j] += sum`.
    Add,
    /// `C[i][j] += s_0`, then `+= s_1`, … : `s_q` is the sum over the
    /// `q`-th run of `run` consecutive `p` (the last run may be shorter),
    /// each summed from `+0.0` in ascending `p` like every sum here, and
    /// the runs are added to `C` in ascending `q`. `run ≥ 1`; a run longer
    /// than `k` is one run, so for `k ≥ 1` `AddRuns(k)` is `Add` to the
    /// bit, and `AddRuns(1)` adds each product `a(i,p)·b(p,j)` to `C` on
    /// its own (as `0.0 + a·b`, which is `+0.0` where `a·b` is `−0.0`).
    ///
    /// It is `for q { c.add_assign(&a_q.matmul(b_q)) }` over the runs'
    /// column blocks of `A` and row blocks of `B`, in one pass: the
    /// tile's `C` stays in registers across the runs. Two things follow
    /// from that sum. A `−0.0` in `C` stays `−0.0` only while every run
    /// sums to `−0.0`, which no run summed from `+0.0` does (`+0.0 +
    /// −0.0` is `+0.0`); `k = 0` has no runs and leaves `C` as it was,
    /// where `Add` would add one `+0.0`. And nothing is skipped: a zero in
    /// `A` against an `inf` or `NaN` in `B` makes `C` `NaN`.
    AddRuns(usize),
}

/// The vector unit the tile loop runs on. Chosen from what the CPU
/// reports and nothing else; every width computes the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Width {
    /// `2×16` tile compiled for the build's baseline ISA (on x86-64,
    /// 128-bit SSE2). Every target has it; the tests' bit reference.
    Portable,
    /// `4×16` tile: the same body compiled under `avx2` (256-bit).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// `16×16` tile of explicit AVX-512F multiplies and adds. Explicit
    /// because LLVM prefers 256-bit vectors when it vectorises for
    /// `avx512f` itself, which runs at the AVX2 rate.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Width {
    /// Every width, widest first.
    pub(crate) const ALL: &'static [Width] = &[
        #[cfg(target_arch = "x86_64")]
        Width::Avx512,
        #[cfg(target_arch = "x86_64")]
        Width::Avx2,
        Width::Portable,
    ];

    /// Whether this CPU can run the width's tile. `std` executes CPUID
    /// once per process and caches the answer, so this is a load and a
    /// bit test.
    pub(crate) fn supported(self) -> bool {
        match self {
            Width::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => is_x86_feature_detected!("avx512f"),
        }
    }

    /// The widest width this CPU supports, unless [`for_each_width`]
    /// holds this thread at another.
    pub(crate) fn detect() -> Width {
        FORCED_WIDTH.get().unwrap_or_else(|| {
            *Width::ALL
                .iter()
                .find(|w| w.supported())
                .expect("the portable width is always supported")
        })
    }

    /// Rows of a full tile.
    fn tile_rows(self) -> usize {
        match self {
            Width::Portable => 2,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => 4,
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => 16,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Width::Portable => "portable 2x16 (baseline ISA)",
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => "avx2 4x16 (256-bit)",
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => "avx512f 16x16 (512-bit)",
        }
    }
}

/// The tile the kernel selected on this host, for benchmark logs.
pub fn kernel_width() -> &'static str {
    Width::detect().name()
}

thread_local! {
    /// Running total behind [`gemm_macs`].
    static GEMM_MACS: Cell<u64> = const { Cell::new(0) };
    /// The width [`for_each_width`] holds this thread's products at.
    static FORCED_WIDTH: Cell<Option<Width>> = const { Cell::new(None) };
    /// The buffer `gemm` packs a [`View`] right operand's block into,
    /// kept for the thread's next product: it grows to the largest block
    /// packed so far, `BLOCK_FLOATS` or one larger panel. A fresh zeroed
    /// buffer per call cost the small products (`1×48×48`, `6×24×48`) a
    /// tenth of their time once a block held several panels.
    static PACK_BUF: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` once per tile width this CPU supports, widest first, with
/// every product and gate kernel the calling thread issues inside `f`
/// held at that width; `f` gets the width's name. A test seam: it lets
/// an integration test pin the bits of the public entry points at every
/// width, and `--bench gemm` time the gate kernels at each. Every width
/// computes the same bits, so nothing else has a reason to call it.
#[doc(hidden)]
pub fn for_each_width(mut f: impl FnMut(&'static str)) {
    for &width in Width::ALL.iter().filter(|w| w.supported()) {
        FORCED_WIDTH.set(Some(width));
        f(width.name());
    }
    FORCED_WIDTH.set(None);
}

/// Multiply-adds every product on this thread has performed so far:
/// `m·k·n` per [`Matrix::gemm_rows`] call, which every product goes
/// through. The difference across a call is what that call performed.
pub fn gemm_macs() -> u64 {
    GEMM_MACS.get()
}

/// An allocating product: `a · b` into a fresh matrix.
fn product(a: View<'_>, b: View<'_>) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    out.gemm_rows(0..a.rows, a, Rhs::View(b), Store::Set);
    out
}

/// The driver's store modes, a const parameter so that each tile is
/// compiled for one of them: [`Store::Set`], [`Store::Add`] and
/// [`Store::AddRuns`].
const SET: u8 = 0;
const ADD: u8 = 1;
const RUNS: u8 = 2;

/// `C = A · B` (`SET`), `C += A · B` (`ADD`) or `C += ` one sum per `run`
/// of `p` (`RUNS`; `run` is read by that mode alone) over a row-major
/// `m×n` block `c`; the one driver behind every product. `B`'s columns
/// are taken in blocks of [`BLOCK_FLOATS`] packed floats; within a block,
/// rows are walked in tiles of `width.tile_rows()`, then in halving
/// power-of-two tiles over what is left, and each row tile runs across
/// every panel of the block before the next.
fn gemm<const MODE: u8>(width: Width, c: &mut [f32], a: View<'_>, b: Rhs<'_>, run: usize) {
    let (m, k, n) = (a.rows, a.cols, b.cols());
    debug_assert_eq!(k, b.rows());
    debug_assert_eq!(c.len(), m * n);
    assert!(width.supported(), "{width:?} tile on a CPU without it");
    let (panel_len, panels) = (k * NR, n.div_ceil(NR));
    // All of `B` when it fits the budget, else as many panels as fit, and
    // at least one.
    let per_block = (BLOCK_FLOATS / panel_len.max(1)).clamp(1, panels.max(1));
    let mut buf = Vec::new();
    if let Rhs::View(_) = b {
        buf = PACK_BUF.take();
        buf.resize(buf.len().max(per_block * panel_len), 0.0);
    }
    for q0 in (0..panels).step_by(per_block) {
        let block = q0..panels.min(q0 + per_block);
        let mut i0 = 0;
        while i0 < m {
            let r = 1 << width.tile_rows().min(m - i0).ilog2();
            for q in block.clone() {
                let j0 = q * NR;
                let w = NR.min(n - j0);
                let panel: &[f32] = match b {
                    Rhs::View(v) => {
                        // Packed just before the first row tile reads it,
                        // so a one-tile product finds each panel in L1.
                        let panel = &mut buf[(q - q0) * panel_len..][..panel_len];
                        if i0 == 0 {
                            v.pack_panel(j0, w, panel);
                        }
                        panel
                    }
                    Rhs::Packed(p) => &p.panels[q * panel_len..][..panel_len],
                };
                let c_block = &mut c[i0 * n + j0..];
                match width {
                    Width::Portable => match r {
                        2 => tile_portable::<2, MODE>(a, i0, panel, c_block, n, w, run),
                        _ => tile_portable::<1, MODE>(a, i0, panel, c_block, n, w, run),
                    },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `width.supported()` was asserted on entry, so
                    // the CPU has the `avx2` these tiles are compiled for.
                    Width::Avx2 => unsafe {
                        match r {
                            4 => tile_avx2::<4, MODE>(a, i0, panel, c_block, n, w, run),
                            2 => tile_avx2::<2, MODE>(a, i0, panel, c_block, n, w, run),
                            _ => tile_avx2::<1, MODE>(a, i0, panel, c_block, n, w, run),
                        }
                    },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `width.supported()` was asserted on entry, so
                    // the CPU has the `avx512f` these tiles are compiled for.
                    Width::Avx512 => unsafe {
                        match r {
                            16 => tile_avx512::<16, MODE>(a, i0, panel, c_block, n, w, run),
                            8 => tile_avx512::<8, MODE>(a, i0, panel, c_block, n, w, run),
                            4 => tile_avx512::<4, MODE>(a, i0, panel, c_block, n, w, run),
                            2 => tile_avx512::<2, MODE>(a, i0, panel, c_block, n, w, run),
                            _ => tile_avx512::<1, MODE>(a, i0, panel, c_block, n, w, run),
                        }
                    },
                }
            }
            i0 += r;
        }
    }
    if let Rhs::View(_) = b {
        PACK_BUF.set(buf);
    }
}

/// One `R×NR` tile of `C`: `R·NR` independent sums, each advanced once
/// per `p` in ascending order, then stored to the first `w` columns.
#[inline(always)]
fn tile<const R: usize, const MODE: u8>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
) {
    let acc = sums::<R>(a, i0, 0, panel);
    store_tile::<R, MODE>(&acc, c_block, c_stride, w);
}

/// The `R×NR` sums of rows `i0..i0 + R` of `A` against `panel`, rows
/// `p0..` of a `B` panel, each from `+0.0` in ascending `p`.
#[inline(always)]
fn sums<const R: usize>(a: View<'_>, i0: usize, p0: usize, panel: &[f32]) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (dp, b_row) in panel.chunks_exact(NR).enumerate() {
        let p = p0 + dp;
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
    acc
}

/// The first `w` columns of the `R` rows of `C` from `c_block`,
/// `c_stride` apart, zero-padded.
#[inline(always)]
fn load_tile<const R: usize>(c_block: &[f32], c_stride: usize, w: usize) -> [[f32; NR]; R] {
    let mut out = [[0.0f32; NR]; R];
    for (i, row) in out.iter_mut().enumerate() {
        let c_row = &c_block[i * c_stride..][..w];
        for (j, x) in row.iter_mut().enumerate() {
            *x = c_row.get(j).copied().unwrap_or(0.0);
        }
    }
    out
}

/// The `RUNS` tile: `C`'s `R×NR` tile loaded once into `total`; per run
/// of `run` rows of the panel, [`sums`] over them, added to `total`;
/// `total` stored once.
#[inline(always)]
fn tile_runs<const R: usize>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
    run: usize,
) {
    let mut total = load_tile::<R>(c_block, c_stride, w);
    for (q, chunk) in panel.chunks(run * NR).enumerate() {
        let acc = sums::<R>(a, i0, q * run, chunk);
        for (total_row, acc_row) in total.iter_mut().zip(&acc) {
            for j in 0..NR {
                total_row[j] += acc_row[j];
            }
        }
    }
    store_tile::<R, SET>(&total, c_block, c_stride, w);
}

/// The tile's epilogue. The store mode is a const parameter so that the
/// autovectorised tiles see one straight-line loop nest each: the issue's
/// prototype took it as a runtime flag and measured the portable tile at
/// 15 instead of 18–21 GFLOP/s.
#[inline(always)]
fn store_tile<const R: usize, const MODE: u8>(
    acc: &[[f32; NR]; R],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
) {
    for (i, acc_row) in acc.iter().enumerate() {
        let c_row = &mut c_block[i * c_stride..][..w];
        if MODE == ADD {
            for (c, s) in c_row.iter_mut().zip(acc_row) {
                *c += s;
            }
        } else {
            c_row.copy_from_slice(&acc_row[..w]);
        }
    }
}

/// [`tile`], or [`tile_runs`] under `RUNS`, compiled for the build's
/// baseline ISA. A function of its own like the other widths': inlined
/// into the driver's dispatch, the accumulators spilled every `p` (5–7
/// instead of 18–21 GFLOP/s).
#[inline(never)]
fn tile_portable<const R: usize, const MODE: u8>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
    run: usize,
) {
    if MODE == RUNS {
        tile_runs::<R>(a, i0, panel, c_block, c_stride, w, run);
    } else {
        tile::<R, MODE>(a, i0, panel, c_block, c_stride, w);
    }
}

/// [`tile`], or [`tile_runs`] under `RUNS`, compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tile_avx2<const R: usize, const MODE: u8>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
    run: usize,
) {
    if MODE == RUNS {
        tile_runs::<R>(a, i0, panel, c_block, c_stride, w, run);
    } else {
        tile::<R, MODE>(a, i0, panel, c_block, c_stride, w);
    }
}

/// [`tile`] with one 512-bit register per row of the tile: the same
/// lane-per-`C[i][j]` sums in the same order, multiply then add. Under
/// `RUNS`, [`tile_avx512_runs`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_avx512<const R: usize, const MODE: u8>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
    run: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    if MODE == RUNS {
        return tile_avx512_runs::<R>(a, i0, panel, c_block, c_stride, w, run);
    }
    let mut acc = [_mm512_setzero_ps(); R];
    // The largest `A` index the loop below forms, checked once here
    // instead of `R` times per `p`: with the checks inside, the
    // recurrence's `16×256×1024` product ran at 57 instead of 77 GFLOP/s.
    let k = panel.len() / NR;
    assert!(k == 0 || (i0 + R - 1) * a.row_stride + (k - 1) * a.col_stride < a.data.len());
    for (p, b_row) in panel.chunks_exact(NR).enumerate() {
        // SAFETY: `chunks_exact(NR)` yields slices of exactly NR = 16
        // floats, the 64 bytes an unaligned 512-bit load reads.
        let b = unsafe { _mm512_loadu_ps(b_row.as_ptr()) };
        for (i, acc_i) in acc.iter_mut().enumerate() {
            // SAFETY: `i < R` and `p < k`, so the index is at most the
            // one asserted to be inside `a.data` above.
            let a_ip = unsafe {
                *a.data
                    .get_unchecked((i0 + i) * a.row_stride + p * a.col_stride)
            };
            *acc_i = _mm512_add_ps(*acc_i, _mm512_mul_ps(_mm512_set1_ps(a_ip), b));
        }
    }
    if w == NR {
        // A full tile stores straight from the registers; under `Add`
        // each sum gets one separate add to what `C` held, `C` first as
        // in `store_tile`.
        for (i, acc_i) in acc.into_iter().enumerate() {
            let c_row = &mut c_block[i * c_stride..][..NR];
            let out = if MODE == ADD {
                // SAFETY: `c_row` is a slice of exactly NR = 16 floats,
                // the 64 bytes an unaligned 512-bit load reads.
                _mm512_add_ps(unsafe { _mm512_loadu_ps(c_row.as_ptr()) }, acc_i)
            } else {
                acc_i
            };
            // SAFETY: as above, the 64 bytes an unaligned 512-bit store
            // writes.
            unsafe { _mm512_storeu_ps(c_row.as_mut_ptr(), out) };
        }
        return;
    }
    let mut sums = [[0.0f32; NR]; R];
    for (row, acc_i) in sums.iter_mut().zip(acc) {
        // SAFETY: `row` is an array of exactly NR = 16 floats, the 64
        // bytes an unaligned 512-bit store writes.
        unsafe { _mm512_storeu_ps(row.as_mut_ptr(), acc_i) };
    }
    store_tile::<R, MODE>(&sums, c_block, c_stride, w);
}

/// [`tile_runs`] with one 512-bit register per row for `C`'s running
/// total and one per row for the run's sum: per run, `R` fresh `+0.0`
/// sums advanced in ascending `p`, then each added to its total.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn tile_avx512_runs<const R: usize>(
    a: View<'_>,
    i0: usize,
    panel: &[f32],
    c_block: &mut [f32],
    c_stride: usize,
    w: usize,
    run: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    let mut total = [_mm512_setzero_ps(); R];
    let padded = (w < NR).then(|| load_tile::<R>(c_block, c_stride, w));
    for (i, total_i) in total.iter_mut().enumerate() {
        let row = match &padded {
            Some(rows) => &rows[i][..],
            None => &c_block[i * c_stride..][..NR],
        };
        // SAFETY: `row` is a slice of exactly NR = 16 floats, the 64
        // bytes an unaligned 512-bit load reads.
        *total_i = unsafe { _mm512_loadu_ps(row.as_ptr()) };
    }
    // The largest `A` index the loop below forms, checked once (see
    // `tile_avx512`).
    let k = panel.len() / NR;
    assert!(k == 0 || (i0 + R - 1) * a.row_stride + (k - 1) * a.col_stride < a.data.len());
    for (q, chunk) in panel.chunks(run * NR).enumerate() {
        let mut acc = [_mm512_setzero_ps(); R];
        for (dp, b_row) in chunk.chunks_exact(NR).enumerate() {
            let p = q * run + dp;
            // SAFETY: `chunks_exact(NR)` yields slices of exactly NR = 16
            // floats, the 64 bytes an unaligned 512-bit load reads.
            let b = unsafe { _mm512_loadu_ps(b_row.as_ptr()) };
            for (i, acc_i) in acc.iter_mut().enumerate() {
                // SAFETY: `i < R` and `p < k`, so the index is at most the
                // one asserted to be inside `a.data` above.
                let a_ip = unsafe {
                    *a.data
                        .get_unchecked((i0 + i) * a.row_stride + p * a.col_stride)
                };
                *acc_i = _mm512_add_ps(*acc_i, _mm512_mul_ps(_mm512_set1_ps(a_ip), b));
            }
        }
        for (total_i, acc_i) in total.iter_mut().zip(acc) {
            *total_i = _mm512_add_ps(*total_i, acc_i);
        }
    }
    let mut sums = [[0.0f32; NR]; R];
    for (i, total_i) in total.into_iter().enumerate() {
        let row = if w == NR {
            &mut c_block[i * c_stride..][..NR]
        } else {
            &mut sums[i][..]
        };
        // SAFETY: `row` is a slice of exactly NR = 16 floats, the 64
        // bytes an unaligned 512-bit store writes.
        unsafe { _mm512_storeu_ps(row.as_mut_ptr(), total_i) };
    }
    if w < NR {
        store_tile::<R, SET>(&sums, c_block, c_stride, w);
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

    /// The widths this host can run, portable first.
    fn widths() -> Vec<Width> {
        let mut all: Vec<Width> = Width::ALL
            .iter()
            .copied()
            .filter(|w| w.supported())
            .collect();
        all.reverse();
        assert_eq!(all[0], Width::Portable);
        all
    }

    /// `a · b` on a forced tile width.
    fn product_at(width: Width, a: View<'_>, b: Rhs<'_>) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols());
        gemm::<SET>(width, &mut out.data, a, b, 0);
        out
    }

    /// An `m×k` by `k×n` pair through every operand layout (stored,
    /// transposed, packed once) on every width the host offers, against
    /// the in-order reference and the portable tile, bit for bit; then
    /// the three public products, which run at the detected width.
    fn check_products(m: usize, k: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random(&mut rng, m, k);
        let b = random(&mut rng, k, n);
        let (at, bt) = (a.transpose(), b.transpose());
        let want = naive_matmul(&a, &b);
        let portable = product_at(Width::Portable, a.view(), Rhs::View(b.view()));
        let packed = [PackedB::new(b.view()), PackedB::new(bt.view().t())];
        for width in widths() {
            let layouts = [
                ("A·B", product_at(width, a.view(), Rhs::View(b.view()))),
                (
                    "A·(Bᵀ)ᵀ",
                    product_at(width, a.view(), Rhs::View(bt.view().t())),
                ),
                (
                    "(Aᵀ)ᵀ·B",
                    product_at(width, at.view().t(), Rhs::View(b.view())),
                ),
                (
                    "A·packed(B)",
                    product_at(width, a.view(), Rhs::Packed(&packed[0])),
                ),
                (
                    "A·packed((Bᵀ)ᵀ)",
                    product_at(width, a.view(), Rhs::Packed(&packed[1])),
                ),
                (
                    "(Aᵀ)ᵀ·packed(B)",
                    product_at(width, at.view().t(), Rhs::Packed(&packed[0])),
                ),
            ];
            for (layout, got) in &layouts {
                let what = format!("{layout} {m}x{k}x{n} at {width:?}");
                assert_bits_eq(got, &want, &what);
                assert_bits_eq(got, &portable, &format!("{what} vs portable"));
            }
        }
        let shape = format!("{m}x{k}x{n}");
        assert_bits_eq(&a.matmul(&b), &want, &format!("matmul {shape}"));
        assert_bits_eq(
            &a.matmul_transpose_b(&bt),
            &want,
            &format!("matmul_transpose_b {shape}"),
        );
        assert_bits_eq(
            &at.transpose_a_matmul(&b),
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
        // as `A·Bᵀ`; every shape is checked through every layout).
        // 512×512×16 is also the LSTM's `x_tᵀ·dz_t`, an `Aᵀ·B` under
        // `Store::Add`, which the `Add` test below runs at that shape.
        let workloads = [
            (16, 64, 1024),
            (16, 1024, 256), // ᵀ
            (512, 512, 16),
            (512, 16, 4), // ᵀ
            (1, 48, 48),
            (320, 64, 4000), // ᵀ
            (2048, 16, 512), // ᵀ
        ];
        // k = 0; every remainder path of a 16-row tile (15 = 8+4+2+1,
        // 17 and 33 = full tiles + 1) against n below, at and across a
        // panel boundary.
        let mut edges = vec![(3, 0, 5), (1, 1, 1)];
        for m in [1, 15, 16, 17, 33] {
            for n in [4, 17] {
                edges.push((m, 9, n));
            }
        }
        for (seed, &(m, k, n)) in workloads.iter().chain(&edges).enumerate() {
            check_products(m, k, n, seed as u64);
        }
    }

    #[test]
    fn non_finite_values_propagate_through_every_product() {
        // Row 0 of A is all zeros, row 1 all ones; B holds one inf and
        // one NaN. 0·inf = NaN must reach C through every layout on
        // every width: a kernel that skips `a == 0.0` terms would mask it.
        let a = Matrix::from_vec(2, 2, vec![0., 0., 1., 1.]);
        let b = Matrix::from_vec(2, 3, vec![f32::INFINITY, 1., 2., 3., f32::NAN, 4.]);
        let (at, bt) = (a.transpose(), b.transpose());
        let mut products = vec![
            a.matmul(&b),
            a.matmul_transpose_b(&bt),
            at.transpose_a_matmul(&b),
        ];
        for width in widths() {
            products.push(product_at(width, a.view(), Rhs::View(b.view())));
            products.push(product_at(width, a.view(), Rhs::View(bt.view().t())));
            products.push(product_at(width, at.view().t(), Rhs::View(b.view())));
            let packed = PackedB::new(b.view());
            products.push(product_at(width, a.view(), Rhs::Packed(&packed)));
        }
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
    fn add_store_is_add_assign_of_the_product_bitwise() {
        // `Add` into rows 3..3+m of a larger C, for every operand layout
        // (row-range views into larger matrices included) on every
        // width: equal to `add_assign(&matmul)` on those rows, and the
        // rows outside the range untouched.
        let mut rng = StdRng::seed_from_u64(42);
        for (m, k, n) in [
            (16, 256, 1024),
            (512, 512, 16),
            (5, 9, 17),
            (33, 16, 4),
            (1, 1, 1),
            (2, 0, 3),
        ] {
            let big_a = random(&mut rng, m + 5, k);
            let big_at = random(&mut rng, k + 2, m);
            let b = random(&mut rng, k, n);
            let bt = b.transpose();
            let c0 = random(&mut rng, m + 4, n);
            let packed = PackedB::new(b.view());
            // (what, A as an m×k view, the same A as a stored matrix)
            let a_rows = big_a.rows_view(2..2 + m);
            let a_t = big_at.rows_view(1..1 + k).t();
            for (a_what, a) in [("rows of A", a_rows), ("(rows of Aᵀ)ᵀ", a_t)] {
                let mut want = c0.clone();
                let block = {
                    let mut blk = Matrix::from_vec(m, n, c0.data[3 * n..(3 + m) * n].to_vec());
                    blk.add_assign(&stored(a).matmul(&b));
                    blk
                };
                want.data[3 * n..(3 + m) * n].copy_from_slice(&block.data);
                let rhs: [(&str, Rhs<'_>); 3] = [
                    ("B", Rhs::View(b.view())),
                    ("(Bᵀ)ᵀ", Rhs::View(bt.view().t())),
                    ("packed(B)", Rhs::Packed(&packed)),
                ];
                for width in widths() {
                    for (b_what, b) in rhs {
                        let mut c = c0.clone();
                        gemm::<ADD>(width, &mut c.data[3 * n..(3 + m) * n], a, b, 0);
                        let what = format!("{a_what} · {b_what} {m}x{k}x{n} at {width:?}");
                        assert_bits_eq(&c, &want, &what);
                    }
                }
                // The public entry, at the detected width, both modes.
                let mut c = c0.clone();
                c.gemm_rows(3..3 + m, a, Rhs::Packed(&packed), Store::Add);
                assert_bits_eq(&c, &want, &format!("gemm_rows Add {a_what}"));
                c.gemm_rows(3..3 + m, a, Rhs::View(b.view()), Store::Set);
                want.data[3 * n..(3 + m) * n].copy_from_slice(stored(a).matmul(&b).as_slice());
                assert_bits_eq(&c, &want, &format!("gemm_rows Set {a_what}"));
            }
        }
    }

    /// In-order reference for `Store::AddRuns(run)`: each `C[i][j]` plus
    /// each run's sum, the sum from `+0.0` in ascending `p`, the runs in
    /// ascending order.
    fn naive_add_runs(c: &Matrix, a: &Matrix, b: &Matrix, run: usize) -> Matrix {
        let mut out = c.clone();
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut total = c.get(i, j);
                for p0 in (0..a.cols()).step_by(run) {
                    let mut acc = 0.0;
                    for p in p0..(p0 + run).min(a.cols()) {
                        acc += a.get(i, p) * b.get(p, j);
                    }
                    total += acc;
                }
                out.set(i, j, total);
            }
        }
        out
    }

    /// A view's elements as a stored matrix.
    fn stored(v: View<'_>) -> Matrix {
        let mut out = Matrix::zeros(v.rows, v.cols);
        for r in 0..v.rows {
            for c in 0..v.cols {
                out.set(r, c, v.data[r * v.row_stride + c * v.col_stride]);
            }
        }
        out
    }

    /// `m×n` of `C` uniform in `(-2, 2)` with planted `+0.0` and `-0.0`.
    fn seeded_c(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        let mut c = random(rng, m, n);
        for (x, v) in c.as_mut_slice().iter_mut().enumerate() {
            if x % 5 == 1 {
                *v = -0.0;
            }
        }
        c
    }

    #[test]
    fn add_runs_is_the_in_order_sum_of_runs() {
        // Into rows 3..3+m of a larger C seeded with non-zero values,
        // `+0.0` and `-0.0`, every operand layout, every width: equal to
        // the in-order reference, rows outside the range untouched. The
        // runs: one product per run, all of `k`, runs that do not divide
        // `k` (the last one shorter), and a run longer than `k`.
        let mut rng = StdRng::seed_from_u64(17);
        let shapes = [
            (320, 256, 64), // sampled softmax dh = D·C, run 1
            (256, 320, 48), // the LSTM's dWh, run B = 16
            (5, 9, 17),
            (33, 16, 4),
            (17, 21, 33),
            (1, 1, 1),
            (16, 40, 16),
        ];
        for (m, k, n) in shapes {
            let big_a = random(&mut rng, m + 5, k);
            let big_at = random(&mut rng, k + 2, m);
            let b = random(&mut rng, k, n);
            let bt = b.transpose();
            let c0 = seeded_c(&mut rng, m + 4, n);
            let packed = PackedB::new(b.view());
            let a_rows = big_a.rows_view(2..2 + m);
            let a_t = big_at.rows_view(1..1 + k).t();
            let (a_stored, a_t_stored) = (stored(a_rows), stored(a_t));
            let mut runs = vec![1, 3, 16, k, k + 5];
            runs.dedup();
            for run in runs {
                for (a_what, a, stored) in [
                    ("rows of A", a_rows, &a_stored),
                    ("(rows of Aᵀ)ᵀ", a_t, &a_t_stored),
                ] {
                    let mut want = c0.clone();
                    let c_rows = Matrix::from_vec(m, n, c0.data[3 * n..(3 + m) * n].to_vec());
                    let block = naive_add_runs(&c_rows, stored, &b, run);
                    want.data[3 * n..(3 + m) * n].copy_from_slice(&block.data);
                    let rhs: [(&str, Rhs<'_>); 3] = [
                        ("B", Rhs::View(b.view())),
                        ("(Bᵀ)ᵀ", Rhs::View(bt.view().t())),
                        ("packed(B)", Rhs::Packed(&packed)),
                    ];
                    for width in widths() {
                        for (b_what, b) in rhs {
                            let mut c = c0.clone();
                            let rows = &mut c.data[3 * n..(3 + m) * n];
                            gemm::<RUNS>(width, rows, a, b, run.min(k));
                            let what =
                                format!("{a_what} · {b_what} {m}x{k}x{n} run {run} at {width:?}");
                            assert_bits_eq(&c, &want, &what);
                        }
                    }
                    // The public entry at every width.
                    for_each_width(|width| {
                        let mut c = c0.clone();
                        c.gemm_rows(3..3 + m, a, Rhs::View(b.view()), Store::AddRuns(run));
                        let what = format!("gemm_rows AddRuns({run}) {a_what} at {width}");
                        assert_bits_eq(&c, &want, &what);
                    });
                }
            }
        }
    }

    #[test]
    fn add_runs_of_all_k_is_add() {
        // For k ≥ 1 one run of all of `k` (or longer) is `Add`'s one
        // sum, `-0.0` seeds included.
        let mut rng = StdRng::seed_from_u64(23);
        for (m, k, n) in [(16, 256, 1024), (33, 16, 4), (5, 9, 17), (1, 1, 1)] {
            let (a, b) = (random(&mut rng, m, k), random(&mut rng, k, n));
            let c0 = seeded_c(&mut rng, m, n);
            let mut add = c0.clone();
            add.gemm_rows(0..m, a.view(), Rhs::View(b.view()), Store::Add);
            for run in [k, k + 1, usize::MAX] {
                let mut runs = c0.clone();
                runs.gemm_rows(0..m, a.view(), Rhs::View(b.view()), Store::AddRuns(run));
                assert_bits_eq(&runs, &add, &format!("{m}x{k}x{n} AddRuns({run})"));
            }
        }
    }

    #[test]
    fn add_runs_signed_zeros_and_non_finite_values() {
        // A `-0.0` seed: with `k = 0` there is no run and it stays; a run
        // of `-0.0` products sums to `+0.0` from `+0.0`, so it becomes
        // `+0.0`; a seed of `+0.0` never becomes `-0.0`. A zero in A
        // against an `inf` or `NaN` in B reaches C as `NaN`.
        let (a0, b0) = (Matrix::zeros(2, 0), Matrix::zeros(0, 3));
        let a = Matrix::from_vec(2, 2, vec![-1., 0., 1., 1.]);
        let b = Matrix::from_vec(2, 3, vec![0., f32::INFINITY, 1., 0., 2., f32::NAN]);
        for width in widths() {
            let mut c = Matrix::from_vec(2, 3, vec![-0.0; 6]);
            gemm::<RUNS>(width, &mut c.data, a0.view(), Rhs::View(b0.view()), 1);
            assert!(c.data.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            for run in [1, 2] {
                let mut c = Matrix::from_vec(2, 3, vec![-0.0, -0.0, -0.0, 0.0, 0.0, 0.0]);
                gemm::<RUNS>(width, &mut c.data, a.view(), Rhs::View(b.view()), run);
                // Row 0: (-1)·0 + 0·0 = -0.0 + +0.0 per run → +0.0.
                assert_eq!(
                    c.get(0, 0).to_bits(),
                    0.0f32.to_bits(),
                    "{width:?} run {run}"
                );
                // (-1)·inf + 0·2 = -inf; (-1)·1 + 0·NaN = NaN.
                assert_eq!(c.get(0, 1), f32::NEG_INFINITY);
                assert!(c.get(0, 2).is_nan(), "0·NaN masked at {width:?} run {run}");
                assert_eq!(c.get(1, 0).to_bits(), 0.0f32.to_bits());
                assert_eq!(c.get(1, 1), f32::INFINITY);
                assert!(c.get(1, 2).is_nan());
            }
        }
    }

    #[test]
    #[should_panic(expected = "a run holds at least one p")]
    fn add_runs_of_zero_panics() {
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(3, 2));
        Matrix::zeros(2, 2).gemm_rows(0..2, a.view(), Rhs::View(b.view()), Store::AddRuns(0));
    }

    #[test]
    fn packed_b_holds_the_per_call_panels() {
        let mut rng = StdRng::seed_from_u64(9);
        for (k, n) in [(256, 1024), (7, 17), (3, 4), (5, 32), (0, 5)] {
            let m = random(&mut rng, k, n);
            let mt = m.transpose();
            let mut want = vec![f32::NAN; n.div_ceil(NR) * k * NR];
            for (j0, panel) in (0..n).step_by(NR).zip(want.chunks_mut((k * NR).max(1))) {
                m.view().pack_panel(j0, NR.min(n - j0), panel);
            }
            // Float `p·16 + j` of panel `q` is `M[p][16q + j]`, or a zero
            // past column `n`.
            for (i, &x) in want.iter().enumerate() {
                let (q, p, j) = (i / (k * NR), i / NR % k, i % NR);
                let col = q * NR + j;
                let expect = if col < n { m.get(p, col) } else { 0.0 };
                assert_eq!(x.to_bits(), expect.to_bits(), "{k}x{n}: packed float {i}");
            }
            for (what, packed) in [
                ("M", PackedB::new(m.view())),
                ("(Mᵀ)ᵀ", PackedB::new(mt.view().t())),
            ] {
                assert_eq!((packed.k, packed.n), (k, n), "{what} {k}x{n}: shape");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&packed.panels), bits(&want), "{what} {k}x{n}: panels");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn gemm_rows_dimension_mismatch_panics() {
        let (a, b) = (Matrix::zeros(2, 3), Matrix::zeros(2, 3));
        Matrix::zeros(2, 3).gemm_rows(0..2, a.view(), Rhs::View(b.view()), Store::Set);
    }

    #[test]
    fn gemm_macs_counts_m_k_n_per_product() {
        let (a, b) = (Matrix::zeros(3, 5), Matrix::zeros(5, 7));
        let packed = PackedB::new(b.view());
        let mut c = Matrix::zeros(4, 7);
        let before = gemm_macs();
        let _ = a.matmul(&b); // 3·5·7
        let _ = b.transpose_a_matmul(&b); // 7·5·7
        let _ = a.matmul_transpose_b(&a); // 3·5·3
        c.gemm_rows(1..3, a.rows_view(0..2), Rhs::Packed(&packed), Store::Add); // 2·5·7
        assert_eq!(gemm_macs() - before, 105 + 245 + 45 + 70);
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
