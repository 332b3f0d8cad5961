//! LSTM layer with truncated-BPTT backward — the word LM's recurrent
//! core (§IV-B: "one LSTM layer with 2048 cells").
//!
//! The layer runs the standard cell
//!
//! ```text
//! z = x_t·Wx + h_{t−1}·Wh + b          (B×4H, gate order [i f g o])
//! i, f, o = σ(·);  g = tanh(·)
//! c_t = f ∘ c_{t−1} + i ∘ g
//! h_t = o ∘ tanh(c_t)
//! ```
//!
//! over a whole sequence in **t-major rows**: step `t`'s `B` lanes are
//! rows `t·B..(t+1)·B` of a `(T·B)×·` matrix, which is how the
//! projection consumes its input, so nothing is reshaped on the way in
//! or out. The input is an [`Input`]: a word LM's embedding lookup, whose
//! rows are gathered a block at a time and never stored whole, or a
//! stored matrix. That layout lets the GEMMs be issued the cheap way
//! round, with every bit equal to the per-timestep formulation (kept as
//! the tests' reference):
//!
//! * the input products leave the recurrence — `Z = X·Wx` forward runs
//!   over [`BLOCK_ROWS`](crate::block::BLOCK_ROWS)-row blocks of input
//!   rows, and the backward returns `DZ`, from which
//!   [`LstmLayer::input_grad`] makes any block of the input gradient's
//!   rows `DZ·Wxᵀ` (rows of a product are independent sums);
//! * `Wx`, `Wh` (forward) and `Wxᵀ`, `Whᵀ` (backward) are packed
//!   ([`PackedB`](tensor::PackedB)) once per change of weights, on the
//!   first pass that reads them, instead of once per step or block; the
//!   only `&mut` path to them drops the packs (see `crate::packs`);
//! * `Z[t] += h_{t−1}·Wh` and `dWx += x_tᵀ·dz_t` accumulate in place
//!   ([`Store::Add`]) on row-range views — no temporary, no second pass.
//!   `dWx` stays **per step, in descending `t`**, `x_t` read from one
//!   reused `B×D` block: one `k = T·B` product over a lookup's input
//!   would need all `T·B` gathered rows at once;
//! * `dWh` is **one run-wise product** after the recurrence, under
//!   [`Store::AddRuns`]`(B)`, over `T·B`-row operands with their steps in
//!   descending `t`: `dz`, which the recurrence writes last step first
//!   and which is reversed in place afterwards, and a copy of the
//!   `h_{t−1}` blocks. Each step is one `B`-long run of `p`, summed from
//!   `+0.0` and added to `dWh` in descending `t`, so the bits are those
//!   of one product per step; a plain `k = T·B` sum would associate over
//!   `t` differently and move the low bits.
//!
//! `Z` is activated in place and *is* the gate cache: each step's `B×4H`
//! block goes through `tensor`'s lane-wise [`sigmoid_in_place`] in one
//! call, its `g` columns and its cell states through [`tanh_in_place`] —
//! a call per step block, not per row (at `H = 4` a row is 16 floats),
//! and the bits of libm's `tanhf` / `expf`, which the reference calls.
//! State is
//! zero-initialised per window (truncated BPTT over the `seq_len`-token
//! windows the batcher produces). The forget-gate bias is initialised to
//! 1, the standard trick for gradient flow.

use crate::block::{blocks, Input};
use crate::packs::Weights;
use crate::params;
use std::ops::Range;
use tensor::ops::{dsigmoid_from_y, dtanh_from_y, sigmoid_in_place, tanh_in_place};
use tensor::{init, Matrix, Rhs, Store};

/// One LSTM layer's parameters.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// `Wx`, the one input matrix.
    wx: Weights,
    /// `Wh`, the one recurrent matrix.
    wh: Weights,
    b: Vec<f32>,
    hidden: usize,
}

/// Forward-pass activations kept for backward, all t-major; the input
/// is borrowed, not stored.
#[derive(Debug)]
pub struct LstmCache<'a> {
    /// Lanes per step `B`.
    batch: usize,
    /// Inputs (`(T·B)×D`).
    xs: Input<'a>,
    /// Post-activation gates (`(T·B)×4H`, order [i f g o]).
    gates: Matrix,
    /// Cell states (`((T+1)·B)×H`): block 0 is the initial zero state,
    /// block `t+1` the state after step `t`.
    cs: Matrix,
    /// Hidden states, same indexing as `cs`.
    hs: Matrix,
}

/// Dense gradients of an [`LstmLayer`].
#[derive(Debug, Clone)]
pub struct LstmGrads {
    /// `∂L/∂Wx`.
    pub dwx: Matrix,
    /// `∂L/∂Wh`.
    pub dwh: Matrix,
    /// `∂L/∂b`.
    pub db: Vec<f32>,
}

impl LstmLayer {
    /// Xavier-initialised layer mapping `input_dim → hidden`.
    pub fn new<R: rand::Rng + ?Sized>(rng: &mut R, input_dim: usize, hidden: usize) -> Self {
        let wx = init::xavier(rng, input_dim, 4 * hidden);
        let wh = init::xavier(rng, hidden, 4 * hidden);
        let mut b = vec![0.0f32; 4 * hidden];
        // Forget-gate bias = 1.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            wx: Weights::new(vec![wx]),
            wh: Weights::new(vec![wh]),
            b,
            hidden,
        }
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension `D`.
    pub fn input_dim(&self) -> usize {
        self.wx[0].rows()
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        params::count(self.params())
    }

    /// Zeroed gradient holder.
    pub fn zero_grads(&self) -> LstmGrads {
        LstmGrads {
            dwx: Matrix::zeros(self.wx[0].rows(), self.wx[0].cols()),
            dwh: Matrix::zeros(self.wh[0].rows(), self.wh[0].cols()),
            db: vec![0.0; self.b.len()],
        }
    }

    /// Runs the layer from zero state over the t-major `(T·B)×D` inputs
    /// `xs` (`batch` = `B` lanes per step); returns the t-major `(T·B)×H`
    /// hidden states and the backward cache, which borrows `xs`.
    pub fn forward<'a>(&self, xs: impl Into<Input<'a>>, batch: usize) -> (Matrix, LstmCache<'a>) {
        self.forward_in(xs.into(), batch, &mut Matrix::default())
    }

    /// [`LstmLayer::forward`] with a lookup's rows gathered into `block`
    /// (its contents replaced): a caller that runs many passes keeps one.
    pub fn forward_in<'a>(
        &self,
        xs: Input<'a>,
        batch: usize,
        block: &mut Matrix,
    ) -> (Matrix, LstmCache<'a>) {
        assert!(xs.rows() > 0, "empty sequence");
        assert_eq!(xs.rows() % batch, 0, "rows are not whole steps");
        assert_eq!(xs.cols(), self.input_dim(), "input dim mismatch");
        let (b, h) = (batch, self.hidden);
        let steps = xs.rows() / b;

        let mut z = Matrix::zeros(xs.rows(), 4 * h);
        let wx = &self.wx.packed()[0];
        for rows in blocks(xs.rows()) {
            let x = xs.block(rows.clone(), block);
            z.gemm_rows(rows, x, Rhs::Packed(wx), Store::Set);
        }
        let wh = &self.wh.packed()[0];
        let mut cs = Matrix::zeros((steps + 1) * b, h);
        let mut hs = Matrix::zeros((steps + 1) * b, h);
        // The step's `g` pre-activations, set aside while the whole
        // block goes through the sigmoid.
        let mut g = vec![0.0f32; b * h];
        for t in 0..steps {
            let step = t * b..(t + 1) * b;
            // Block `t` of `hs` is h_{t−1}; the step writes block `t+1`.
            let h_prev = hs.rows_view(step.clone());
            z.gemm_rows(step.clone(), h_prev, Rhs::Packed(wh), Store::Add);
            let zs = &mut z.as_mut_slice()[step.start * 4 * h..step.end * 4 * h];
            for (zr, gr) in zs.chunks_exact_mut(4 * h).zip(g.chunks_exact_mut(h)) {
                for (x, &bias) in zr.iter_mut().zip(&self.b) {
                    *x += bias;
                }
                gr.copy_from_slice(&zr[2 * h..3 * h]);
            }
            // Activate in place: [i f g o], the block's `i`, `f`, `o`
            // through the sigmoid, then `g` through tanh.
            sigmoid_in_place(zs);
            tanh_in_place(&mut g);
            for (zr, gr) in zs.chunks_exact_mut(4 * h).zip(g.chunks_exact(h)) {
                zr[2 * h..3 * h].copy_from_slice(gr);
            }
            let (c_prev, c_t) = cs.as_mut_slice()[t * b * h..(t + 2) * b * h].split_at_mut(b * h);
            let rows = zs.chunks_exact(4 * h).zip(c_prev.chunks_exact(h));
            for ((zr, cp), cr) in rows.zip(c_t.chunks_exact_mut(h)) {
                for j in 0..h {
                    cr[j] = zr[h + j] * cp[j] + zr[j] * zr[2 * h + j];
                }
            }
            // h_t = o ∘ tanh(c_t), as tanh(c_t) ∘ o: an IEEE product is
            // commutative.
            let h_t = &mut hs.as_mut_slice()[(t + 1) * b * h..(t + 2) * b * h];
            h_t.copy_from_slice(c_t);
            tanh_in_place(h_t);
            for (zr, hr) in zs.chunks_exact(4 * h).zip(h_t.chunks_exact_mut(h)) {
                for (y, &o) in hr.iter_mut().zip(&zr[3 * h..]) {
                    *y *= o;
                }
            }
        }
        let h_all = Matrix::from_vec(steps * b, h, hs.as_slice()[b * h..].to_vec());
        let cache = LstmCache {
            batch,
            xs,
            gates: z,
            cs,
            hs,
        };
        (h_all, cache)
    }

    /// Back-propagates the t-major `(T·B)×H` upstream gradients `dh_all`
    /// through the cached forward pass; returns the t-major `(T·B)×D`
    /// input gradients and the parameter gradients.
    pub fn backward(&self, cache: &LstmCache, dh_all: &Matrix) -> (Matrix, LstmGrads) {
        let (dz, grads) = self.backward_dz(cache, dh_all, &mut Matrix::default());
        let mut dx = Matrix::default();
        self.input_grad(&dz, 0..dh_all.rows(), &mut dx);
        (dx, grads)
    }

    /// [`LstmLayer::backward`] without the input gradient's rows: returns
    /// `[dz]`, the t-major `(T·B)×4H` pre-activation gradients from which
    /// [`LstmLayer::input_grad`] makes those rows, and the parameter
    /// gradients. A lookup's `x_t` is gathered into `block` (its contents
    /// replaced).
    pub fn backward_dz(
        &self,
        cache: &LstmCache,
        dh_all: &Matrix,
        block: &mut Matrix,
    ) -> (Vec<Matrix>, LstmGrads) {
        let (b, h) = (cache.batch, self.hidden);
        let steps = cache.gates.rows() / b;
        assert_eq!(
            (dh_all.rows(), dh_all.cols()),
            (steps * b, h),
            "upstream shape mismatch"
        );

        let mut grads = self.zero_grads();
        let wh_t = &self.wh.packed_t()[0];
        // Pre-activation gate gradients of every step, layout [i f g o],
        // the last step's block first until the steps are reversed below.
        let mut dz = Matrix::zeros(steps * b, 4 * h);
        let mut dh_carry = Matrix::zeros(b, h);
        let mut dc_carry = Matrix::zeros(b, h);
        let mut db_step = vec![0.0f32; 4 * h];
        // tanh(c_t) of the step's block.
        let mut tanh_c = vec![0.0f32; b * h];

        for t in (0..steps).rev() {
            let step = t * b..(t + 1) * b;
            let desc = (steps - 1 - t) * b..(steps - t) * b;
            tanh_c.copy_from_slice(&cache.cs.as_slice()[(t + 1) * b * h..(t + 2) * b * h]);
            tanh_in_place(&mut tanh_c);
            // The same pass leaves dc_{t−1} = dc · f in `dc_carry`.
            for lane in 0..b {
                let r = t * b + lane;
                let g = cache.gates.row(r);
                let tcr = &tanh_c[lane * h..(lane + 1) * h];
                let cp = cache.cs.row(r);
                let dh_up = dh_all.row(r);
                let dh_c = dh_carry.row(lane);
                let dc_c = dc_carry.row_mut(lane);
                let dzr = dz.row_mut(desc.start + lane);
                for j in 0..h {
                    let dh = dh_up[j] + dh_c[j];
                    let tc = tcr[j];
                    let o = g[3 * h + j];
                    // do, then dc via h = o·tanh(c).
                    let d_o = dh * tc;
                    let dc = dh * o * dtanh_from_y(tc) + dc_c[j];
                    let i = g[j];
                    let f = g[h + j];
                    let gg = g[2 * h + j];
                    dzr[j] = dc * gg * dsigmoid_from_y(i);
                    dzr[h + j] = dc * cp[j] * dsigmoid_from_y(f);
                    dzr[2 * h + j] = dc * i * dtanh_from_y(gg);
                    dzr[3 * h + j] = d_o * dsigmoid_from_y(o);
                    dc_c[j] = dc * f;
                }
            }

            // `dWx`, one step's term at a time so the sum over `t`
            // associates as it always has.
            let dz_t = dz.rows_view(desc.clone());
            let x_t = cache.xs.block(step, block);
            let d = self.input_dim();
            grads
                .dwx
                .gemm_rows(0..d, x_t.t(), Rhs::View(dz_t), Store::Add);
            db_step.fill(0.0);
            for r in desc {
                for (s, &v) in db_step.iter_mut().zip(dz.row(r)) {
                    *s += v;
                }
            }
            for (acc, &v) in grads.db.iter_mut().zip(&db_step) {
                *acc += v;
            }
            dh_carry.gemm_rows(0..b, dz_t, Rhs::Packed(wh_t), Store::Set);
        }
        // `dWh += h_{t−1}ᵀ·dz_t` over every step in one product: with both
        // operands' steps in descending `t`, each step is one `B`-long run
        // of `p`, summed on its own and added to `dWh` in descending `t`,
        // the association of one product per step.
        let hs = &cache.hs.as_slice()[..steps * b * h];
        let mut h_prev = Matrix::from_vec(steps * b, h, hs.to_vec());
        reverse_steps(&mut h_prev, b);
        let dz_all = Rhs::View(dz.view());
        grads
            .dwh
            .gemm_rows(0..h, h_prev.view().t(), dz_all, Store::AddRuns(b));
        reverse_steps(&mut dz, b);
        (vec![dz], grads)
    }

    /// Rows `rows` of the input gradient `dz·Wxᵀ` into the first rows of
    /// `out` (grown to hold them), `dz` as [`LstmLayer::backward_dz`]
    /// returned it: each row is the row of the whole product, so a
    /// consumer can take the gradient a block at a time.
    pub fn input_grad(&self, dz: &[Matrix], rows: Range<usize>, out: &mut Matrix) {
        self.wx.sum_products_t(dz, rows, out);
    }

    /// The parameters in their flat order: `wx`, `wh` (row-major), `b`.
    pub(crate) fn params(&self) -> impl Iterator<Item = &[f32]> {
        [self.wx[0].as_slice(), self.wh[0].as_slice(), &self.b[..]].into_iter()
    }

    /// [`LstmLayer::params`], mutably; the packs are dropped.
    pub(crate) fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        [
            self.wx.weights_mut()[0].as_mut_slice(),
            self.wh.weights_mut()[0].as_mut_slice(),
            &mut self.b[..],
        ]
        .into_iter()
    }
}

/// Reverses the order of `m`'s blocks of `b` rows, in place.
fn reverse_steps(m: &mut Matrix, b: usize) {
    let step = b * m.cols();
    let data = m.as_mut_slice();
    let steps = data.len() / step;
    for t in 0..steps / 2 {
        let (head, tail) = data.split_at_mut((steps - 1 - t) * step);
        head[t * step..(t + 1) * step].swap_with_slice(&mut tail[..step]);
    }
}

impl LstmGrads {
    /// The gradients in the order of [`LstmLayer::params`].
    pub(crate) fn parts(&self) -> impl Iterator<Item = &[f32]> {
        [self.dwx.as_slice(), self.dwh.as_slice(), &self.db[..]].into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, rand_seq, sigmoid, sq_loss, step_of};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The per-timestep formulation the layer used before it moved onto
    /// t-major matrices: one `b×D` matrix per step, every GEMM allocating,
    /// `Wx`/`Wh` re-packed inside each call. Kept as the bit reference.
    struct Reference {
        xs: Vec<Matrix>,
        gates: Vec<Matrix>,
        cs: Vec<Matrix>,
        hs: Vec<Matrix>,
    }

    fn reference_forward(layer: &LstmLayer, xs: &[Matrix]) -> Reference {
        let b = xs[0].rows();
        let h = layer.hidden;
        let mut cache = Reference {
            xs: xs.to_vec(),
            gates: Vec::new(),
            cs: vec![Matrix::zeros(b, h)],
            hs: vec![Matrix::zeros(b, h)],
        };
        for x in xs {
            let h_prev = cache.hs.last().unwrap();
            let c_prev = cache.cs.last().unwrap();
            let mut z = x.matmul(&layer.wx[0]);
            let zh = h_prev.matmul(&layer.wh[0]);
            z.add_assign(&zh);
            z.add_row_bias(&layer.b);
            let mut c_t = Matrix::zeros(b, h);
            let mut h_t = Matrix::zeros(b, h);
            for r in 0..b {
                let zr = z.row_mut(r);
                for j in 0..h {
                    zr[j] = sigmoid(zr[j]);
                    zr[h + j] = sigmoid(zr[h + j]);
                    zr[2 * h + j] = zr[2 * h + j].tanh();
                    zr[3 * h + j] = sigmoid(zr[3 * h + j]);
                }
                let cp = c_prev.row(r);
                let cr = c_t.row_mut(r);
                for j in 0..h {
                    cr[j] = zr[h + j] * cp[j] + zr[j] * zr[2 * h + j];
                }
                let hr = h_t.row_mut(r);
                for j in 0..h {
                    hr[j] = zr[3 * h + j] * cr[j].tanh();
                }
            }
            cache.gates.push(z);
            cache.cs.push(c_t);
            cache.hs.push(h_t);
        }
        cache
    }

    fn reference_backward(
        layer: &LstmLayer,
        cache: &Reference,
        dhs: &[Matrix],
    ) -> (Vec<Matrix>, LstmGrads) {
        let steps = cache.gates.len();
        let b = cache.xs[0].rows();
        let h = layer.hidden;
        let mut grads = layer.zero_grads();
        let mut dxs = vec![Matrix::zeros(0, 0); steps];
        let mut dh_carry = Matrix::zeros(b, h);
        let mut dc_carry = Matrix::zeros(b, h);
        for t in (0..steps).rev() {
            let gates = &cache.gates[t];
            let (c_t, c_prev, h_prev) = (&cache.cs[t + 1], &cache.cs[t], &cache.hs[t]);
            let mut dz = Matrix::zeros(b, 4 * h);
            for r in 0..b {
                let g = gates.row(r);
                let (ct, cp) = (c_t.row(r), c_prev.row(r));
                let (dh_up, dh_c) = (dhs[t].row(r), dh_carry.row(r));
                let dc_c = dc_carry.row_mut(r);
                let dzr = dz.row_mut(r);
                for j in 0..h {
                    let dh = dh_up[j] + dh_c[j];
                    let tc = ct[j].tanh();
                    let o = g[3 * h + j];
                    let d_o = dh * tc;
                    let dc = dh * o * dtanh_from_y(tc) + dc_c[j];
                    let (i, f, gg) = (g[j], g[h + j], g[2 * h + j]);
                    dzr[j] = dc * gg * dsigmoid_from_y(i);
                    dzr[h + j] = dc * cp[j] * dsigmoid_from_y(f);
                    dzr[2 * h + j] = dc * i * dtanh_from_y(gg);
                    dzr[3 * h + j] = d_o * dsigmoid_from_y(o);
                    dc_c[j] = dc * f;
                }
            }
            grads.dwx.add_assign(&cache.xs[t].transpose_a_matmul(&dz));
            grads.dwh.add_assign(&h_prev.transpose_a_matmul(&dz));
            for (acc, v) in grads.db.iter_mut().zip(dz.sum_rows()) {
                *acc += v;
            }
            dxs[t] = dz.matmul_transpose_b(&layer.wx[0]);
            dh_carry = dz.matmul_transpose_b(&layer.wh[0]);
        }
        (dxs, grads)
    }

    #[test]
    fn bit_identical_to_the_per_timestep_reference() {
        // (T, B, D, H): the two e2e word shapes, then T = 1, B = 1, H
        // not a multiple of the 16-wide panel, and everything odd.
        let shapes = [
            (20, 16, 64, 256),
            (4, 512, 512, 4),
            (1, 3, 5, 8),
            (6, 1, 4, 16),
            (3, 2, 7, 5),
            (5, 17, 3, 19),
        ];
        for (seed, &(t, b, d, h)) in shapes.iter().enumerate() {
            let shape = format!("T{t} B{b} D{d} H{h}");
            let mut rng = StdRng::seed_from_u64(100 + seed as u64);
            let layer = LstmLayer::new(&mut rng, d, h);
            let x_all = rand_seq(&mut rng, t, b, d);
            let dh_all = rand_seq(&mut rng, t, b, h);
            let xs: Vec<Matrix> = (0..t).map(|s| step_of(&x_all, s, b)).collect();
            let dhs: Vec<Matrix> = (0..t).map(|s| step_of(&dh_all, s, b)).collect();

            let reference = reference_forward(&layer, &xs);
            let (want_dxs, want) = reference_backward(&layer, &reference, &dhs);
            let (h_all, cache) = layer.forward(&x_all, b);
            let (dx_all, got) = layer.backward(&cache, &dh_all);

            assert_eq!((h_all.rows(), h_all.cols()), (t * b, h), "{shape}");
            assert_eq!((dx_all.rows(), dx_all.cols()), (t * b, d), "{shape}");
            // The reference's per-step matrices, laid end to end, are the
            // t-major matrix.
            let flat = |steps: &[Matrix]| -> Vec<u32> {
                steps.iter().flat_map(|m| bits(m.as_slice())).collect()
            };
            assert_eq!(
                bits(h_all.as_slice()),
                flat(&reference.hs[1..]),
                "{shape}: h"
            );
            assert_eq!(bits(dx_all.as_slice()), flat(&want_dxs), "{shape}: dx");
            assert_eq!(
                bits(got.dwx.as_slice()),
                bits(want.dwx.as_slice()),
                "{shape}: dwx"
            );
            assert_eq!(
                bits(got.dwh.as_slice()),
                bits(want.dwh.as_slice()),
                "{shape}: dwh"
            );
            assert_eq!(bits(&got.db), bits(&want.db), "{shape}: db");
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = LstmLayer::new(&mut rng, 3, 5);
        let xs = rand_seq(&mut rng, 4, 2, 3);
        let (h_all, _) = layer.forward(&xs, 2);
        assert_eq!(h_all.rows(), 4 * 2);
        assert_eq!(h_all.cols(), 5);
    }

    #[test]
    fn hidden_states_bounded() {
        // h = o·tanh(c) with σ, tanh keeps |h| < 1... c can grow, but
        // tanh(c) is in (−1, 1) and o in (0, 1).
        let mut rng = StdRng::seed_from_u64(2);
        let layer = LstmLayer::new(&mut rng, 4, 6);
        let xs = rand_seq(&mut rng, 20, 3, 4);
        let (h_all, _) = layer.forward(&xs, 3);
        assert!(h_all.as_slice().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let layer = LstmLayer::new(&mut StdRng::seed_from_u64(3), 2, 4);
        assert!(layer.b[4..8].iter().all(|&v| v == 1.0));
        assert!(layer.b[..4].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = LstmLayer::new(&mut rng, 3, 4);
        let (steps, b, d) = (3, 2, 3);
        let xs = rand_seq(&mut rng, steps, b, d);
        let (h_all, cache) = layer.forward(&xs, b);
        // loss = Σ‖h‖²/2 ⇒ dL/dh = h
        let (dx_all, grads) = layer.backward(&cache, &h_all);

        let eps = 1e-3f32;
        let loss_of = |l: &LstmLayer, xs: &Matrix| sq_loss(&l.forward(xs, b).0);

        // Wx probes.
        for i in [0usize, 5, 20, 47] {
            let orig = layer.wx[0].as_slice()[i];
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grads.dwx.as_slice()[i];
            assert!((ana - num).abs() < 3e-2, "dwx[{i}]: {ana} vs {num}");
        }
        // Wh probes.
        for i in [0usize, 17, 63] {
            let orig = layer.wh[0].as_slice()[i];
            layer.wh.weights_mut()[0].as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wh.weights_mut()[0].as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wh.weights_mut()[0].as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grads.dwh.as_slice()[i];
            assert!((ana - num).abs() < 3e-2, "dwh[{i}]: {ana} vs {num}");
        }
        // Bias probes (include a forget-gate entry).
        for i in [0usize, 5, 10, 15] {
            let orig = layer.b[i];
            layer.b[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.b[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.b[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((grads.db[i] - num).abs() < 3e-2, "db[{i}]");
        }
        // Input probes across timesteps.
        for t in 0..steps {
            for i in [0usize, 3] {
                let at = t * b * d + i;
                let mut xs2 = xs.clone();
                xs2.as_mut_slice()[at] += eps;
                let lp = loss_of(&layer, &xs2);
                xs2.as_mut_slice()[at] -= 2.0 * eps;
                let lm = loss_of(&layer, &xs2);
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let ana = dx_all.as_slice()[at];
                assert!((ana - num).abs() < 3e-2, "dx[{t}][{i}]: {ana} vs {num}");
            }
        }
    }

    #[test]
    fn training_reduces_state_norm() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = LstmLayer::new(&mut rng, 3, 4);
        let xs = rand_seq(&mut rng, 5, 4, 3);
        let before = sq_loss(&layer.forward(&xs, 4).0);
        for _ in 0..30 {
            let (h_all, cache) = layer.forward(&xs, 4);
            let (_, grads) = layer.backward(&cache, &h_all);
            let mut flat = Vec::new();
            params::flatten(grads.parts(), &mut flat);
            params::sgd(layer.params_mut(), &flat, 0.1);
        }
        assert!(sq_loss(&layer.forward(&xs, 4).0) < before * 0.5);
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = LstmLayer::new(&mut rng, 3, 4);
        let xs = rand_seq(&mut rng, 2, 2, 3);
        let (h_all, cache) = layer.forward(&xs, 2);
        let (_, grads) = layer.backward(&cache, &h_all);
        // Gradients flatten part for part like the parameters...
        let mut flat = Vec::new();
        params::flatten(grads.parts(), &mut flat);
        assert_eq!(flat.len(), layer.param_count());
        assert!(layer
            .params()
            .map(<[f32]>::len)
            .eq(grads.parts().map(<[f32]>::len)));
        // ...and a flat buffer loads back into the same places.
        let mut restored = LstmLayer::new(&mut rng, 3, 4);
        params::load(restored.params_mut(), &flat);
        assert_eq!(restored.wx[0].as_slice(), grads.dwx.as_slice());
        assert_eq!(restored.wh[0].as_slice(), grads.dwh.as_slice());
        assert_eq!(restored.b, grads.db);
    }

    #[test]
    fn param_count_matches_paper_model() {
        // §IV-B word LM: D = 512 (projection feeds back), H = 2048.
        let layer = LstmLayer::new(&mut StdRng::seed_from_u64(0), 512, 2048);
        assert_eq!(
            layer.param_count(),
            512 * 4 * 2048 + 2048 * 4 * 2048 + 4 * 2048
        );
    }
}
