//! Recurrent Highway Network — the char LM's recurrent core.
//!
//! §IV-B: "a recurrent highway network (RHN) layer of depth 10, each with
//! 1792 LSTM cells … 213 million parameters" (the architecture of
//! Hestness et al. / Zilly et al.). We implement the coupled-gate RHN:
//! per timestep the state passes through `L` micro-layers
//!
//! ```text
//! h_l = tanh(x·Wh·[l=0] + s_{l−1}·Rh_l + bh_l)
//! t_l = σ   (x·Wt·[l=0] + s_{l−1}·Rt_l + bt_l)
//! s_l = h_l ∘ t_l + s_{l−1} ∘ (1 − t_l)
//! ```
//!
//! with the carry gate coupled to the transform gate (`c = 1 − t`).
//! Transform-gate biases start at −2 so the network initially carries,
//! the standard RHN depth-stability trick.
//!
//! The layer runs over a whole sequence in the same **t-major rows** as
//! the LSTM (step `t`'s `B` lanes are rows `t·B..(t+1)·B`, read through
//! an [`Input`]; see `lstm.rs`), with the same three moves and every bit
//! equal to the per-timestep formulation (kept as the tests'
//! reference):
//!
//! * the input products leave the recurrence — `X·Wh`, `X·Wt` forward
//!   run over [`BLOCK_ROWS`](crate::block::BLOCK_ROWS)-row blocks of
//!   input rows, one gather per block for both, and the backward returns
//!   `DZh`, `DZt`, from which [`RhnLayer::input_grad`] makes any block of
//!   the input gradient's rows `DZh·Whᵀ + DZt·Wtᵀ`;
//! * `Wh`, `Wt`, every `Rh_l` / `Rt_l` (forward) and their transposes
//!   (backward) are packed ([`PackedB`](tensor::PackedB)) once per
//!   change of weights, on the first pass that reads them, instead of
//!   once per block or `(t, l)` — see `crate::packs`;
//! * products are stored in place ([`Store`]) on row blocks of three
//!   cache matrices — nothing is allocated inside the `(t, l)` loop. The
//!   weight and bias gradients stay **per `(t, l)`, in descending
//!   order**: a taller product would sum over `t` in a different
//!   association and move the low bits. Depth 0's `x_t` is read from
//!   one reused `B×D` block.
//!
//! Each `(t, l)`'s `B×H` candidate and gate blocks go through `tensor`'s
//! lane-wise [`tanh_in_place`] and [`sigmoid_in_place`], one call each,
//! with the bits of the libm calls the reference makes.
//!
//! Storing a product with `Set` where the reference added it to a zeroed
//! matrix is the same bits: a sum started from `+0.0` is never `−0.0`,
//! so `0 + a·b` is `a·b`.

use crate::block::{blocks, Input};
use crate::packs::Weights;
use crate::params;
use std::ops::Range;
use tensor::ops::{dsigmoid_from_y, dtanh_from_y, sigmoid_in_place, tanh_in_place};
use tensor::{init, Matrix, Rhs, Store};

/// One RHN layer's parameters.
#[derive(Debug, Clone)]
pub struct RhnLayer {
    /// The input matrices: `Wx_h` (to the candidate), then `Wx_t` (to
    /// the transform gate).
    wx: Weights,
    r_h: Weights,
    r_t: Weights,
    b_h: Vec<Vec<f32>>,
    b_t: Vec<Vec<f32>>,
    hidden: usize,
}

/// Forward-pass activations kept for backward, in `B`-row blocks; the
/// input is borrowed, not stored.
#[derive(Debug)]
pub struct RhnCache<'a> {
    /// Lanes per step `B`.
    batch: usize,
    /// Inputs (`(T·B)×D`, t-major).
    xs: Input<'a>,
    /// The chain of states (`((T·L+1)·B)×H`): block `t·L + l` enters
    /// micro-layer `l` of step `t` and block `t·L + l + 1` leaves it, so
    /// block 0 is the initial zero state and block `(t+1)·L` is `h_t`.
    s: Matrix,
    /// tanh candidates (`(L·T·B)×H`), **depth-major**: micro-layer `l` of
    /// step `t` is block `l·T + t`, so depth 0 — the only one that sees
    /// the input — is the first `T·B` rows, where `X·Wh` lands whole.
    hcand: Matrix,
    /// Transform gates, same indexing as `hcand`.
    tgate: Matrix,
}

/// Dense gradients of an [`RhnLayer`].
#[derive(Debug, Clone)]
pub struct RhnGrads {
    /// Input-to-candidate weights gradient.
    pub dwx_h: Matrix,
    /// Input-to-transform weights gradient.
    pub dwx_t: Matrix,
    /// Recurrent candidate weights gradients per depth.
    pub dr_h: Vec<Matrix>,
    /// Recurrent transform weights gradients per depth.
    pub dr_t: Vec<Matrix>,
    /// Candidate bias gradients per depth.
    pub db_h: Vec<Vec<f32>>,
    /// Transform bias gradients per depth.
    pub db_t: Vec<Vec<f32>>,
}

impl RhnLayer {
    /// Creates a depth-`depth` RHN mapping `input_dim → hidden`.
    pub fn new<R: rand::Rng + ?Sized>(
        rng: &mut R,
        input_dim: usize,
        hidden: usize,
        depth: usize,
    ) -> Self {
        assert!(depth >= 1, "RHN needs at least one micro-layer");
        let wx_h = init::xavier(rng, input_dim, hidden);
        let wx_t = init::xavier(rng, input_dim, hidden);
        Self {
            wx: Weights::new(vec![wx_h, wx_t]),
            r_h: Weights::new(
                (0..depth)
                    .map(|_| init::xavier(rng, hidden, hidden))
                    .collect(),
            ),
            r_t: Weights::new(
                (0..depth)
                    .map(|_| init::xavier(rng, hidden, hidden))
                    .collect(),
            ),
            b_h: (0..depth).map(|_| vec![0.0; hidden]).collect(),
            b_t: (0..depth).map(|_| vec![-2.0; hidden]).collect(),
            hidden,
        }
    }

    /// Recurrence depth `L`.
    pub fn depth(&self) -> usize {
        self.r_h.len()
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension `D`.
    pub fn input_dim(&self) -> usize {
        self.wx[0].rows()
    }

    /// Number of parameters: `2·D·H + L·(2·H² + 2·H)`, 70.68 M at
    /// `(D=1792, H=1792, L=10)`.
    pub fn param_count(&self) -> usize {
        params::count(self.params())
    }

    /// Zeroed gradient holder.
    pub fn zero_grads(&self) -> RhnGrads {
        let h = self.hidden;
        let l = self.depth();
        RhnGrads {
            dwx_h: Matrix::zeros(self.input_dim(), h),
            dwx_t: Matrix::zeros(self.input_dim(), h),
            dr_h: (0..l).map(|_| Matrix::zeros(h, h)).collect(),
            dr_t: (0..l).map(|_| Matrix::zeros(h, h)).collect(),
            db_h: (0..l).map(|_| vec![0.0; h]).collect(),
            db_t: (0..l).map(|_| vec![0.0; h]).collect(),
        }
    }

    /// Runs the layer from zero state over the t-major `(T·B)×D` inputs
    /// `xs` (`batch` = `B` lanes per step); returns the t-major `(T·B)×H`
    /// outputs `h_t = s_{t,L}` and the backward cache, which borrows `xs`.
    pub fn forward<'a>(&self, xs: impl Into<Input<'a>>, batch: usize) -> (Matrix, RhnCache<'a>) {
        self.forward_in(xs.into(), batch, &mut Matrix::default())
    }

    /// [`RhnLayer::forward`] with a lookup's rows gathered into `block`
    /// (its contents replaced): a caller that runs many passes keeps one.
    pub fn forward_in<'a>(
        &self,
        xs: Input<'a>,
        batch: usize,
        block: &mut Matrix,
    ) -> (Matrix, RhnCache<'a>) {
        assert!(xs.rows() > 0, "empty sequence");
        assert_eq!(xs.rows() % batch, 0, "rows are not whole steps");
        assert_eq!(xs.cols(), self.input_dim(), "input dim mismatch");
        let (b, h, depth) = (batch, self.hidden, self.depth());
        let (steps, tb) = (xs.rows() / b, xs.rows());

        let (r_h, r_t) = (self.r_h.packed(), self.r_t.packed());
        let mut s = Matrix::zeros((steps * depth + 1) * b, h);
        let mut hcand = Matrix::zeros(depth * tb, h);
        let mut tgate = Matrix::zeros(depth * tb, h);
        let (wx_h, wx_t) = (&self.wx.packed()[0], &self.wx.packed()[1]);
        for rows in blocks(tb) {
            let x = xs.block(rows.clone(), block);
            hcand.gemm_rows(rows.clone(), x, Rhs::Packed(wx_h), Store::Set);
            tgate.gemm_rows(rows, x, Rhs::Packed(wx_t), Store::Set);
        }
        let mut h_all = Matrix::zeros(tb, h);
        for t in 0..steps {
            for l in 0..depth {
                // First rows of the entering state and of the gate block.
                let (chain, gate) = ((t * depth + l) * b, (l * steps + t) * b);
                // Depth 0 adds to the input product already there.
                let store = if l == 0 { Store::Add } else { Store::Set };
                let s_in = s.rows_view(chain..chain + b);
                hcand.gemm_rows(gate..gate + b, s_in, Rhs::Packed(&r_h[l]), store);
                tgate.gemm_rows(gate..gate + b, s_in, Rhs::Packed(&r_t[l]), store);
                let n = b * h;
                let hc = &mut hcand.as_mut_slice()[gate * h..][..n];
                let tg = &mut tgate.as_mut_slice()[gate * h..][..n];
                for (hr, tr) in hc.chunks_exact_mut(h).zip(tg.chunks_exact_mut(h)) {
                    for j in 0..h {
                        hr[j] += self.b_h[l][j];
                        tr[j] += self.b_t[l][j];
                    }
                }
                tanh_in_place(hc);
                sigmoid_in_place(tg);
                let (s_prev, s_next) =
                    s.as_mut_slice()[chain * h..(chain + 2 * b) * h].split_at_mut(n);
                for i in 0..n {
                    s_next[i] = hc[i] * tg[i] + s_prev[i] * (1.0 - tg[i]);
                }
            }
            let out = (t + 1) * depth * b;
            h_all.as_mut_slice()[t * b * h..(t + 1) * b * h]
                .copy_from_slice(&s.as_slice()[out * h..(out + b) * h]);
        }
        let cache = RhnCache {
            batch,
            xs,
            s,
            hcand,
            tgate,
        };
        (h_all, cache)
    }

    /// Back-propagates the t-major `(T·B)×H` upstream gradients `dh_all`
    /// through depth and time; returns the t-major `(T·B)×D` input
    /// gradients and the parameter gradients.
    pub fn backward(&self, cache: &RhnCache, dh_all: &Matrix) -> (Matrix, RhnGrads) {
        let (dz, grads) = self.backward_dz(cache, dh_all, &mut Matrix::default());
        let mut dx = Matrix::default();
        self.input_grad(&dz, 0..dh_all.rows(), &mut dx);
        (dx, grads)
    }

    /// [`RhnLayer::backward`] without the input gradient's rows: returns
    /// `[dzh, dzt]`, depth 0's t-major `(T·B)×H` pre-activation gradients
    /// from which [`RhnLayer::input_grad`] makes those rows, and the
    /// parameter gradients. A lookup's `x_t` is gathered into `block`
    /// (its contents replaced).
    pub fn backward_dz(
        &self,
        cache: &RhnCache,
        dh_all: &Matrix,
        block: &mut Matrix,
    ) -> (Vec<Matrix>, RhnGrads) {
        let (b, h, depth) = (cache.batch, self.hidden, self.depth());
        let (d, steps) = (self.input_dim(), cache.xs.rows() / b);
        assert_eq!(
            (dh_all.rows(), dh_all.cols()),
            (steps * b, h),
            "upstream shape mismatch"
        );

        let mut grads = self.zero_grads();
        let (r_h_t, r_t_t) = (self.r_h.packed_t(), self.r_t.packed_t());
        // Pre-activation gradients, one block per step: each micro-layer
        // overwrites its step's block, so the descending walk leaves
        // depth 0's — the ones the input products read — in every block.
        let mut dzh = Matrix::zeros(steps * b, h);
        let mut dzt = Matrix::zeros(steps * b, h);
        // `∂L/∂s` on its way down the chain of states.
        let mut ds = Matrix::zeros(b, h);

        for t in (0..steps).rev() {
            let step = t * b..(t + 1) * b;
            let dh_t = &dh_all.as_slice()[step.start * h..step.end * h];
            for (acc, &up) in ds.as_mut_slice().iter_mut().zip(dh_t) {
                *acc += up;
            }
            for l in (0..depth).rev() {
                let (chain, gate) = ((t * depth + l) * b, (l * steps + t) * b);
                // Every block is `B` whole rows: one flat walk.
                let n = b * h;
                let hc = &cache.hcand.as_slice()[gate * h..][..n];
                let tg = &cache.tgate.as_slice()[gate * h..][..n];
                let sp = &cache.s.as_slice()[chain * h..][..n];
                let dzh_b = &mut dzh.as_mut_slice()[step.start * h..][..n];
                let dzt_b = &mut dzt.as_mut_slice()[step.start * h..][..n];
                for (i, dv) in ds.as_mut_slice().iter_mut().enumerate() {
                    dzh_b[i] = *dv * tg[i] * dtanh_from_y(hc[i]);
                    dzt_b[i] = *dv * (hc[i] - sp[i]) * dsigmoid_from_y(tg[i]);
                    *dv *= 1.0 - tg[i];
                }

                // Parameter gradients, one `(t, l)` term at a time so
                // every sum associates as it always has.
                let dzh_t = dzh.rows_view(step.clone());
                let dzt_t = dzt.rows_view(step.clone());
                let s_in = cache.s.rows_view(chain..chain + b);
                grads.dr_h[l].gemm_rows(0..h, s_in.t(), Rhs::View(dzh_t), Store::Add);
                grads.dr_t[l].gemm_rows(0..h, s_in.t(), Rhs::View(dzt_t), Store::Add);
                for j in 0..h {
                    let (mut sum_h, mut sum_t) = (0.0f32, 0.0f32);
                    for r in step.clone() {
                        sum_h += dzh.get(r, j);
                        sum_t += dzt.get(r, j);
                    }
                    grads.db_h[l][j] += sum_h;
                    grads.db_t[l][j] += sum_t;
                }
                ds.gemm_rows(0..b, dzh_t, Rhs::Packed(&r_h_t[l]), Store::Add);
                ds.gemm_rows(0..b, dzt_t, Rhs::Packed(&r_t_t[l]), Store::Add);
                if l == 0 {
                    // Depth 0 also read `x_t`.
                    let x_t = cache.xs.block(step.clone(), block).t();
                    grads
                        .dwx_h
                        .gemm_rows(0..d, x_t, Rhs::View(dzh_t), Store::Add);
                    grads
                        .dwx_t
                        .gemm_rows(0..d, x_t, Rhs::View(dzt_t), Store::Add);
                }
            }
        }
        (vec![dzh, dzt], grads)
    }

    /// Rows `rows` of the input gradient `dzh·Wx_hᵀ + dzt·Wx_tᵀ` into the
    /// first rows of `out` (grown to hold them), `[dzh, dzt]` as
    /// [`RhnLayer::backward_dz`] returned them: each row is the row of
    /// the whole sum, so a consumer can take the gradient a block at a
    /// time.
    pub fn input_grad(&self, dz: &[Matrix], rows: Range<usize>, out: &mut Matrix) {
        self.wx.sum_products_t(dz, rows, out);
    }

    /// The parameters in their flat order: `wx_h`, `wx_t`, then `r_h`,
    /// `r_t`, `b_h`, `b_t` of each depth in turn.
    pub(crate) fn params(&self) -> impl Iterator<Item = &[f32]> {
        let per_depth = (self.r_h.iter().zip(self.r_t.iter()))
            .zip(self.b_h.iter().zip(&self.b_t))
            .flat_map(|((rh, rt), (bh, bt))| [rh.as_slice(), rt.as_slice(), &bh[..], &bt[..]]);
        self.wx.iter().map(Matrix::as_slice).chain(per_depth)
    }

    /// [`RhnLayer::params`], mutably; the packs are dropped.
    pub(crate) fn params_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let recurrent = self.r_h.weights_mut().iter_mut();
        let per_depth = (recurrent.zip(self.r_t.weights_mut()))
            .zip(self.b_h.iter_mut().zip(&mut self.b_t))
            .flat_map(|((rh, rt), (bh, bt))| {
                [
                    rh.as_mut_slice(),
                    rt.as_mut_slice(),
                    &mut bh[..],
                    &mut bt[..],
                ]
            });
        let wx = self.wx.weights_mut().iter_mut();
        wx.map(Matrix::as_mut_slice).chain(per_depth)
    }
}

impl RhnGrads {
    /// The gradients in the order of [`RhnLayer::params`].
    pub(crate) fn parts(&self) -> impl Iterator<Item = &[f32]> {
        let per_depth = (self.dr_h.iter().zip(&self.dr_t))
            .zip(self.db_h.iter().zip(&self.db_t))
            .flat_map(|((rh, rt), (bh, bt))| [rh.as_slice(), rt.as_slice(), &bh[..], &bt[..]]);
        [self.dwx_h.as_slice(), self.dwx_t.as_slice()]
            .into_iter()
            .chain(per_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, rand_seq, sigmoid, sq_loss, step_of};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-timestep formulation the layer used before it moved onto
    /// t-major matrices, verbatim: one `b×D` matrix per step, a matrix
    /// per `(t, l)` in the cache, every GEMM allocating and re-packing
    /// its weight. Kept as the bit reference.
    struct Reference {
        xs: Vec<Matrix>,
        s_in: Vec<Vec<Matrix>>,
        hcand: Vec<Vec<Matrix>>,
        tgate: Vec<Vec<Matrix>>,
    }

    fn reference_forward(layer: &RhnLayer, xs: &[Matrix]) -> (Vec<Matrix>, Reference) {
        assert!(!xs.is_empty(), "empty sequence");
        let b = xs[0].rows();
        let h = layer.hidden;
        let depth = layer.depth();

        let mut cache = Reference {
            xs: xs.to_vec(),
            s_in: Vec::with_capacity(xs.len()),
            hcand: Vec::with_capacity(xs.len()),
            tgate: Vec::with_capacity(xs.len()),
        };
        let mut outputs = Vec::with_capacity(xs.len());
        let mut s = Matrix::zeros(b, h);
        for x in xs {
            assert_eq!(x.cols(), layer.input_dim(), "input dim mismatch");
            // Input projections computed once per step.
            let xh = x.matmul(&layer.wx[0]);
            let xt = x.matmul(&layer.wx[1]);
            let mut s_ins = Vec::with_capacity(depth);
            let mut hcands = Vec::with_capacity(depth);
            let mut tgates = Vec::with_capacity(depth);
            for l in 0..depth {
                let mut zh = s.matmul(&layer.r_h[l]);
                let mut zt = s.matmul(&layer.r_t[l]);
                if l == 0 {
                    zh.add_assign(&xh);
                    zt.add_assign(&xt);
                }
                zh.add_row_bias(&layer.b_h[l]);
                zt.add_row_bias(&layer.b_t[l]);
                for v in zh.as_mut_slice() {
                    *v = v.tanh();
                }
                for v in zt.as_mut_slice() {
                    *v = sigmoid(*v);
                }
                let mut s_next = Matrix::zeros(b, h);
                for ((sn, (&hc, &tg)), &sp) in s_next
                    .as_mut_slice()
                    .iter_mut()
                    .zip(zh.as_slice().iter().zip(zt.as_slice()))
                    .zip(s.as_slice())
                {
                    *sn = hc * tg + sp * (1.0 - tg);
                }
                s_ins.push(s);
                hcands.push(zh);
                tgates.push(zt);
                s = s_next;
            }
            cache.s_in.push(s_ins);
            cache.hcand.push(hcands);
            cache.tgate.push(tgates);
            outputs.push(s.clone());
        }
        (outputs, cache)
    }

    fn reference_backward(
        layer: &RhnLayer,
        cache: &Reference,
        dhs: &[Matrix],
    ) -> (Vec<Matrix>, RhnGrads) {
        let steps = cache.xs.len();
        assert_eq!(dhs.len(), steps, "upstream step count mismatch");
        let b = cache.xs[0].rows();
        let depth = layer.depth();

        let mut grads = layer.zero_grads();
        let mut dxs: Vec<Matrix> = (0..steps)
            .map(|_| Matrix::zeros(b, layer.input_dim()))
            .collect();
        let mut ds_time = Matrix::zeros(b, layer.hidden);

        for t in (0..steps).rev() {
            let mut ds = dhs[t].clone();
            ds.add_assign(&ds_time);
            for l in (0..depth).rev() {
                let s_in = &cache.s_in[t][l];
                let hc = &cache.hcand[t][l];
                let tg = &cache.tgate[t][l];

                // Pointwise gate gradients.
                let mut dzh = Matrix::zeros(b, layer.hidden);
                let mut dzt = Matrix::zeros(b, layer.hidden);
                let mut ds_in = Matrix::zeros(b, layer.hidden);
                let n = ds.len();
                {
                    let dsv = ds.as_slice();
                    let hcv = hc.as_slice();
                    let tgv = tg.as_slice();
                    let siv = s_in.as_slice();
                    let dzhv = dzh.as_mut_slice();
                    let dztv = dzt.as_mut_slice();
                    let dsiv = ds_in.as_mut_slice();
                    for i in 0..n {
                        let d = dsv[i];
                        let dhc = d * tgv[i];
                        let dtg = d * (hcv[i] - siv[i]);
                        dsiv[i] = d * (1.0 - tgv[i]);
                        dzhv[i] = dhc * dtanh_from_y(hcv[i]);
                        dztv[i] = dtg * dsigmoid_from_y(tgv[i]);
                    }
                }

                grads.dr_h[l].add_assign(&s_in.transpose_a_matmul(&dzh));
                grads.dr_t[l].add_assign(&s_in.transpose_a_matmul(&dzt));
                for (acc, v) in grads.db_h[l].iter_mut().zip(dzh.sum_rows()) {
                    *acc += v;
                }
                for (acc, v) in grads.db_t[l].iter_mut().zip(dzt.sum_rows()) {
                    *acc += v;
                }
                ds_in.add_assign(&dzh.matmul_transpose_b(&layer.r_h[l]));
                ds_in.add_assign(&dzt.matmul_transpose_b(&layer.r_t[l]));
                if l == 0 {
                    grads
                        .dwx_h
                        .add_assign(&cache.xs[t].transpose_a_matmul(&dzh));
                    grads
                        .dwx_t
                        .add_assign(&cache.xs[t].transpose_a_matmul(&dzt));
                    dxs[t].add_assign(&dzh.matmul_transpose_b(&layer.wx[0]));
                    dxs[t].add_assign(&dzt.matmul_transpose_b(&layer.wx[1]));
                }
                ds = ds_in;
            }
            ds_time = ds;
        }
        (dxs, grads)
    }

    #[test]
    fn bit_identical_to_the_per_timestep_reference() {
        // (T, B, D, H, L): `char_weak_g192`'s shape (B = 1), everything
        // odd, a wider batch, depth 1 with H past one 16-column panel,
        // and a batch that fills the widest tile.
        let shapes = [
            (6, 1, 24, 48, 3),
            (5, 3, 7, 5, 2),
            (4, 4, 24, 48, 3),
            (3, 2, 4, 17, 1),
            (8, 16, 24, 48, 3),
        ];
        for (seed, &(t, b, d, h, depth)) in shapes.iter().enumerate() {
            let shape = format!("T{t} B{b} D{d} H{h} L{depth}");
            let mut rng = StdRng::seed_from_u64(200 + seed as u64);
            let mut layer = RhnLayer::new(&mut rng, d, h, depth);
            // Biases start at 0 / −2; make every part carry information.
            for bias in layer.b_h.iter_mut().chain(&mut layer.b_t) {
                for v in bias.iter_mut() {
                    *v += rng.gen_range(-0.5f32..0.5);
                }
            }
            let x_all = rand_seq(&mut rng, t, b, d);
            let dh_all = rand_seq(&mut rng, t, b, h);
            let xs: Vec<Matrix> = (0..t).map(|s| step_of(&x_all, s, b)).collect();
            let dhs: Vec<Matrix> = (0..t).map(|s| step_of(&dh_all, s, b)).collect();

            let (want_hs, reference) = reference_forward(&layer, &xs);
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
            assert_eq!(bits(h_all.as_slice()), flat(&want_hs), "{shape}: h");
            assert_eq!(bits(dx_all.as_slice()), flat(&want_dxs), "{shape}: dx");
            // wx_h, wx_t, then r_h, r_t, b_h, b_t per depth.
            assert_eq!(got.parts().count(), 2 + 4 * depth, "{shape}");
            for (i, (g, w)) in got.parts().zip(want.parts()).enumerate() {
                assert_eq!(bits(g), bits(w), "{shape}: gradient part {i}");
            }
        }
    }

    #[test]
    fn forward_shapes_and_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = RhnLayer::new(&mut rng, 3, 5, 4);
        assert_eq!(layer.depth(), 4);
        let xs = rand_seq(&mut rng, 3, 2, 3);
        let (h_all, cache) = layer.forward(&xs, 2);
        assert_eq!(h_all.rows(), 3 * 2);
        assert_eq!(h_all.cols(), 5);
        // One gate block per micro-layer per step, one more state.
        assert_eq!(cache.hcand.rows(), 4 * 3 * 2);
        assert_eq!(cache.s.rows(), (4 * 3 + 1) * 2);
    }

    #[test]
    fn carry_bias_keeps_early_state_small() {
        // bt = −2 ⇒ transform gate ≈ 0.12, so the initial zero state
        // mostly carries: outputs start small.
        let mut rng = StdRng::seed_from_u64(2);
        let layer = RhnLayer::new(&mut rng, 4, 8, 3);
        let xs = rand_seq(&mut rng, 1, 2, 4);
        let (h_all, _) = layer.forward(&xs, 2);
        let max = h_all.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max < 0.6, "max {max}");
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = RhnLayer::new(&mut rng, 3, 4, 3);
        let (steps, b, d) = (2, 2, 3);
        let xs = rand_seq(&mut rng, steps, b, d);
        let (h_all, cache) = layer.forward(&xs, b);
        let (dx_all, grads) = layer.backward(&cache, &h_all);

        let eps = 1e-3f32;
        let loss_of = |l: &RhnLayer, xs: &Matrix| sq_loss(&l.forward(xs, b).0);

        // wx_h / wx_t probes.
        for i in [0usize, 5, 11] {
            let orig = layer.wx[0].as_slice()[i];
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wx.weights_mut()[0].as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((grads.dwx_h.as_slice()[i] - num).abs() < 2e-2, "dwx_h[{i}]");
        }
        // Recurrent weights at each depth.
        for l in 0..3 {
            for i in [0usize, 7, 15] {
                let orig = layer.r_h[l].as_slice()[i];
                layer.r_h.weights_mut()[l].as_mut_slice()[i] = orig + eps;
                let lp = loss_of(&layer, &xs);
                layer.r_h.weights_mut()[l].as_mut_slice()[i] = orig - eps;
                let lm = loss_of(&layer, &xs);
                layer.r_h.weights_mut()[l].as_mut_slice()[i] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (grads.dr_h[l].as_slice()[i] - num).abs() < 2e-2,
                    "dr_h[{l}][{i}]"
                );
                let orig = layer.r_t[l].as_slice()[i];
                layer.r_t.weights_mut()[l].as_mut_slice()[i] = orig + eps;
                let lp = loss_of(&layer, &xs);
                layer.r_t.weights_mut()[l].as_mut_slice()[i] = orig - eps;
                let lm = loss_of(&layer, &xs);
                layer.r_t.weights_mut()[l].as_mut_slice()[i] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (grads.dr_t[l].as_slice()[i] - num).abs() < 2e-2,
                    "dr_t[{l}][{i}]"
                );
            }
            // Biases.
            for i in [0usize, 3] {
                let orig = layer.b_t[l][i];
                layer.b_t[l][i] = orig + eps;
                let lp = loss_of(&layer, &xs);
                layer.b_t[l][i] = orig - eps;
                let lm = loss_of(&layer, &xs);
                layer.b_t[l][i] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!((grads.db_t[l][i] - num).abs() < 2e-2, "db_t[{l}][{i}]");
            }
        }
        // Inputs.
        for t in 0..steps {
            for i in [0usize, 4] {
                let at = t * b * d + i;
                let mut xs2 = xs.clone();
                xs2.as_mut_slice()[at] += eps;
                let lp = loss_of(&layer, &xs2);
                xs2.as_mut_slice()[at] -= 2.0 * eps;
                let lm = loss_of(&layer, &xs2);
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!((dx_all.as_slice()[at] - num).abs() < 2e-2, "dx[{t}][{i}]");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = RhnLayer::new(&mut rng, 3, 4, 2);
        let xs = rand_seq(&mut rng, 4, 4, 3);
        let before = sq_loss(&layer.forward(&xs, 4).0);
        for _ in 0..40 {
            let (h_all, cache) = layer.forward(&xs, 4);
            let (_, grads) = layer.backward(&cache, &h_all);
            let mut flat = Vec::new();
            params::flatten(grads.parts(), &mut flat);
            params::sgd(layer.params_mut(), &flat, 0.1);
        }
        assert!(sq_loss(&layer.forward(&xs, 4).0) < before * 0.6);
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = RhnLayer::new(&mut rng, 3, 4, 3);
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
        let mut restored = RhnLayer::new(&mut rng, 3, 4, 3);
        params::load(restored.params_mut(), &flat);
        for l in 0..3 {
            assert_eq!(restored.r_h[l].as_slice(), grads.dr_h[l].as_slice());
            assert_eq!(restored.b_t[l], grads.db_t[l]);
        }
    }

    #[test]
    fn paper_scale_param_count() {
        // §IV-B: depth-10 RHN with 1792 cells ⇒ recurrent params alone
        // are 10 · 2 · 1792² ≈ 64 M; with 1792-dim inputs, 70.68 M in the
        // recurrent stack. Tieba's 15 K-char output layer and input
        // embedding bring the whole model to ≈126 M, still short of
        // §IV-B's 213 M, which is ≈ 3× the 98-char model's 70.86 M dense
        // parameters (a weight and Adam's two moments).
        let layer = RhnLayer::new(&mut StdRng::seed_from_u64(0), 1792, 1792, 10);
        let expected = 2 * 1792 * 1792 + 10 * (2 * 1792 * 1792 + 2 * 1792);
        assert_eq!(layer.param_count(), expected);
        // A layer that never runs a pass packs nothing.
        assert!(!layer.r_h.is_packed() && !layer.r_t.is_packed());
    }
}
