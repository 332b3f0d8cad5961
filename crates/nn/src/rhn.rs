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

use tensor::ops::{dsigmoid_from_y, dtanh_from_y, sigmoid};
use tensor::{init, Matrix};

/// One RHN layer's parameters.
#[derive(Debug, Clone)]
pub struct RhnLayer {
    wx_h: Matrix,
    wx_t: Matrix,
    r_h: Vec<Matrix>,
    r_t: Vec<Matrix>,
    b_h: Vec<Vec<f32>>,
    b_t: Vec<Vec<f32>>,
    hidden: usize,
}

/// Cached activations of one forward pass.
#[derive(Debug)]
pub struct RhnCache {
    xs: Vec<Matrix>,
    /// `s_in[t][l]`: state entering micro-layer `l` at step `t` (`b×H`).
    s_in: Vec<Vec<Matrix>>,
    /// `hcand[t][l]`: tanh candidate.
    hcand: Vec<Vec<Matrix>>,
    /// `tgate[t][l]`: transform gate.
    tgate: Vec<Vec<Matrix>>,
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
        Self {
            wx_h: init::xavier(rng, input_dim, hidden),
            wx_t: init::xavier(rng, input_dim, hidden),
            r_h: (0..depth)
                .map(|_| init::xavier(rng, hidden, hidden))
                .collect(),
            r_t: (0..depth)
                .map(|_| init::xavier(rng, hidden, hidden))
                .collect(),
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
        self.wx_h.rows()
    }

    /// Number of parameters — matches the paper's 213 M at
    /// `(D=1792, H=1792, L=10)` plus embedding/softmax.
    pub fn param_count(&self) -> usize {
        let l = self.depth();
        self.wx_h.len() + self.wx_t.len() + l * (2 * self.hidden * self.hidden + 2 * self.hidden)
    }

    /// Zeroed gradient holder.
    pub fn zero_grads(&self) -> RhnGrads {
        let h = self.hidden;
        let l = self.depth();
        RhnGrads {
            dwx_h: Matrix::zeros(self.wx_h.rows(), h),
            dwx_t: Matrix::zeros(self.wx_t.rows(), h),
            dr_h: (0..l).map(|_| Matrix::zeros(h, h)).collect(),
            dr_t: (0..l).map(|_| Matrix::zeros(h, h)).collect(),
            db_h: (0..l).map(|_| vec![0.0; h]).collect(),
            db_t: (0..l).map(|_| vec![0.0; h]).collect(),
        }
    }

    /// Runs the layer over the per-step inputs from zero state.
    pub fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, RhnCache) {
        assert!(!xs.is_empty(), "empty sequence");
        let b = xs[0].rows();
        let h = self.hidden;
        let depth = self.depth();

        let mut cache = RhnCache {
            xs: xs.to_vec(),
            s_in: Vec::with_capacity(xs.len()),
            hcand: Vec::with_capacity(xs.len()),
            tgate: Vec::with_capacity(xs.len()),
        };
        let mut outputs = Vec::with_capacity(xs.len());
        let mut s = Matrix::zeros(b, h);
        for x in xs {
            assert_eq!(x.cols(), self.input_dim(), "input dim mismatch");
            // Input projections computed once per step.
            let xh = x.matmul(&self.wx_h);
            let xt = x.matmul(&self.wx_t);
            let mut s_ins = Vec::with_capacity(depth);
            let mut hcands = Vec::with_capacity(depth);
            let mut tgates = Vec::with_capacity(depth);
            for l in 0..depth {
                let mut zh = s.matmul(&self.r_h[l]);
                let mut zt = s.matmul(&self.r_t[l]);
                if l == 0 {
                    zh.add_assign(&xh);
                    zt.add_assign(&xt);
                }
                zh.add_row_bias(&self.b_h[l]);
                zt.add_row_bias(&self.b_t[l]);
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

    /// Back-propagates through depth and time.
    pub fn backward(&self, cache: &RhnCache, dhs: &[Matrix]) -> (Vec<Matrix>, RhnGrads) {
        let steps = cache.xs.len();
        assert_eq!(dhs.len(), steps, "upstream step count mismatch");
        let b = cache.xs[0].rows();
        let depth = self.depth();

        let mut grads = self.zero_grads();
        let mut dxs: Vec<Matrix> = (0..steps)
            .map(|_| Matrix::zeros(b, self.input_dim()))
            .collect();
        let mut ds_time = Matrix::zeros(b, self.hidden);

        for t in (0..steps).rev() {
            let mut ds = dhs[t].clone();
            ds.add_assign(&ds_time);
            for l in (0..depth).rev() {
                let s_in = &cache.s_in[t][l];
                let hc = &cache.hcand[t][l];
                let tg = &cache.tgate[t][l];

                // Pointwise gate gradients.
                let mut dzh = Matrix::zeros(b, self.hidden);
                let mut dzt = Matrix::zeros(b, self.hidden);
                let mut ds_in = Matrix::zeros(b, self.hidden);
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
                ds_in.add_assign(&dzh.matmul_transpose_b(&self.r_h[l]));
                ds_in.add_assign(&dzt.matmul_transpose_b(&self.r_t[l]));
                if l == 0 {
                    grads
                        .dwx_h
                        .add_assign(&cache.xs[t].transpose_a_matmul(&dzh));
                    grads
                        .dwx_t
                        .add_assign(&cache.xs[t].transpose_a_matmul(&dzt));
                    dxs[t].add_assign(&dzh.matmul_transpose_b(&self.wx_h));
                    dxs[t].add_assign(&dzt.matmul_transpose_b(&self.wx_t));
                }
                ds = ds_in;
            }
            ds_time = ds;
        }
        (dxs, grads)
    }

    /// SGD step.
    pub fn apply(&mut self, grads: &RhnGrads, lr: f32) {
        self.wx_h.axpy(-lr, &grads.dwx_h);
        self.wx_t.axpy(-lr, &grads.dwx_t);
        for l in 0..self.depth() {
            self.r_h[l].axpy(-lr, &grads.dr_h[l]);
            self.r_t[l].axpy(-lr, &grads.dr_t[l]);
            for (b, &g) in self.b_h[l].iter_mut().zip(&grads.db_h[l]) {
                *b -= lr * g;
            }
            for (b, &g) in self.b_t[l].iter_mut().zip(&grads.db_t[l]) {
                *b -= lr * g;
            }
        }
    }

    /// Appends all gradients to a flat buffer (fixed layout).
    pub fn flatten_grads(grads: &RhnGrads, out: &mut Vec<f32>) {
        out.extend_from_slice(grads.dwx_h.as_slice());
        out.extend_from_slice(grads.dwx_t.as_slice());
        for l in 0..grads.dr_h.len() {
            out.extend_from_slice(grads.dr_h[l].as_slice());
            out.extend_from_slice(grads.dr_t[l].as_slice());
            out.extend_from_slice(&grads.db_h[l]);
            out.extend_from_slice(&grads.db_t[l]);
        }
    }

    /// Appends the layer's parameters to `out`, in the same fixed
    /// layout as [`RhnLayer::flatten_grads`] — the basis of bit-exact
    /// checkpoint snapshots.
    pub fn flatten_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.wx_h.as_slice());
        out.extend_from_slice(self.wx_t.as_slice());
        for l in 0..self.depth() {
            out.extend_from_slice(self.r_h[l].as_slice());
            out.extend_from_slice(self.r_t[l].as_slice());
            out.extend_from_slice(&self.b_h[l]);
            out.extend_from_slice(&self.b_t[l]);
        }
    }

    /// Overwrites the layer's parameters from `flat` at `offset` (the
    /// [`RhnLayer::flatten_params`] layout); returns the new offset.
    pub fn load_params(&mut self, flat: &[f32], mut offset: usize) -> usize {
        let mut take = |dst: &mut [f32]| {
            dst.copy_from_slice(&flat[offset..offset + dst.len()]);
            offset += dst.len();
        };
        take(self.wx_h.as_mut_slice());
        take(self.wx_t.as_mut_slice());
        for l in 0..self.r_h.len() {
            take(self.r_h[l].as_mut_slice());
            take(self.r_t[l].as_mut_slice());
            take(&mut self.b_h[l]);
            take(&mut self.b_t[l]);
        }
        offset
    }

    /// Restores gradients from the flat buffer; returns the new offset.
    pub fn unflatten_grads(&self, flat: &[f32], mut offset: usize, grads: &mut RhnGrads) -> usize {
        let take = |flat: &[f32], offset: &mut usize, n: usize| -> std::ops::Range<usize> {
            let r = *offset..*offset + n;
            assert!(r.end <= flat.len(), "flat buffer too short");
            *offset += n;
            r
        };
        let n = self.wx_h.len();
        grads
            .dwx_h
            .as_mut_slice()
            .copy_from_slice(&flat[take(flat, &mut offset, n)]);
        grads
            .dwx_t
            .as_mut_slice()
            .copy_from_slice(&flat[take(flat, &mut offset, n)]);
        for l in 0..self.depth() {
            let hh = self.hidden * self.hidden;
            grads.dr_h[l]
                .as_mut_slice()
                .copy_from_slice(&flat[take(flat, &mut offset, hh)]);
            grads.dr_t[l]
                .as_mut_slice()
                .copy_from_slice(&flat[take(flat, &mut offset, hh)]);
            grads.db_h[l].copy_from_slice(&flat[take(flat, &mut offset, self.hidden)]);
            grads.db_t[l].copy_from_slice(&flat[take(flat, &mut offset, self.hidden)]);
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_steps(rng: &mut StdRng, t: usize, b: usize, d: usize) -> Vec<Matrix> {
        (0..t)
            .map(|_| Matrix::from_vec(b, d, (0..b * d).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    fn sq_loss(hs: &[Matrix]) -> f64 {
        hs.iter().map(|h| h.norm_sq() / 2.0).sum()
    }

    #[test]
    fn forward_shapes_and_depth() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = RhnLayer::new(&mut rng, 3, 5, 4);
        assert_eq!(layer.depth(), 4);
        let xs = rand_steps(&mut rng, 3, 2, 3);
        let (hs, cache) = layer.forward(&xs);
        assert_eq!(hs.len(), 3);
        assert_eq!(hs[0].rows(), 2);
        assert_eq!(hs[0].cols(), 5);
        assert_eq!(cache.s_in[0].len(), 4);
    }

    #[test]
    fn carry_bias_keeps_early_state_small() {
        // bt = −2 ⇒ transform gate ≈ 0.12, so the initial zero state
        // mostly carries: outputs start small.
        let mut rng = StdRng::seed_from_u64(2);
        let layer = RhnLayer::new(&mut rng, 4, 8, 3);
        let xs = rand_steps(&mut rng, 1, 2, 4);
        let (hs, _) = layer.forward(&xs);
        let max = hs[0].as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max < 0.6, "max {max}");
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = RhnLayer::new(&mut rng, 3, 4, 3);
        let xs = rand_steps(&mut rng, 2, 2, 3);
        let (hs, cache) = layer.forward(&xs);
        let (dxs, grads) = layer.backward(&cache, &hs);

        let eps = 1e-3f32;
        let loss_of = |l: &RhnLayer, xs: &[Matrix]| {
            let (hs, _) = l.forward(xs);
            sq_loss(&hs)
        };

        // wx_h / wx_t probes.
        for i in [0usize, 5, 11] {
            let orig = layer.wx_h.as_slice()[i];
            layer.wx_h.as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wx_h.as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wx_h.as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!((grads.dwx_h.as_slice()[i] - num).abs() < 2e-2, "dwx_h[{i}]");
        }
        // Recurrent weights at each depth.
        for l in 0..3 {
            for i in [0usize, 7, 15] {
                let orig = layer.r_h[l].as_slice()[i];
                layer.r_h[l].as_mut_slice()[i] = orig + eps;
                let lp = loss_of(&layer, &xs);
                layer.r_h[l].as_mut_slice()[i] = orig - eps;
                let lm = loss_of(&layer, &xs);
                layer.r_h[l].as_mut_slice()[i] = orig;
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!(
                    (grads.dr_h[l].as_slice()[i] - num).abs() < 2e-2,
                    "dr_h[{l}][{i}]"
                );
                let orig = layer.r_t[l].as_slice()[i];
                layer.r_t[l].as_mut_slice()[i] = orig + eps;
                let lp = loss_of(&layer, &xs);
                layer.r_t[l].as_mut_slice()[i] = orig - eps;
                let lm = loss_of(&layer, &xs);
                layer.r_t[l].as_mut_slice()[i] = orig;
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
        for t in 0..2 {
            for i in [0usize, 4] {
                let mut xs2 = xs.clone();
                xs2[t].as_mut_slice()[i] += eps;
                let lp = loss_of(&layer, &xs2);
                xs2[t].as_mut_slice()[i] -= 2.0 * eps;
                let lm = loss_of(&layer, &xs2);
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                assert!((dxs[t].as_slice()[i] - num).abs() < 2e-2, "dx[{t}][{i}]");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = RhnLayer::new(&mut rng, 3, 4, 2);
        let xs = rand_steps(&mut rng, 4, 4, 3);
        let (hs0, _) = layer.forward(&xs);
        let before = sq_loss(&hs0);
        for _ in 0..40 {
            let (hs, cache) = layer.forward(&xs);
            let (_, grads) = layer.backward(&cache, &hs);
            layer.apply(&grads, 0.1);
        }
        let (hs1, _) = layer.forward(&xs);
        assert!(sq_loss(&hs1) < before * 0.6);
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let layer = RhnLayer::new(&mut rng, 3, 4, 3);
        let xs = rand_steps(&mut rng, 2, 2, 3);
        let (hs, cache) = layer.forward(&xs);
        let (_, grads) = layer.backward(&cache, &hs);
        let mut flat = Vec::new();
        RhnLayer::flatten_grads(&grads, &mut flat);
        assert_eq!(flat.len(), layer.param_count());
        let mut restored = layer.zero_grads();
        let end = layer.unflatten_grads(&flat, 0, &mut restored);
        assert_eq!(end, flat.len());
        for l in 0..3 {
            assert_eq!(restored.dr_h[l].as_slice(), grads.dr_h[l].as_slice());
            assert_eq!(restored.db_t[l], grads.db_t[l]);
        }
    }

    #[test]
    fn paper_scale_param_count() {
        // §IV-B: depth-10 RHN with 1792 cells ⇒ recurrent params alone
        // are 10 · 2 · 1792² ≈ 64 M; with 1792-dim inputs, ~70 M in the
        // recurrent stack (the 213 M total includes the 15 K-char softmax
        // in the Tieba config and embeddings).
        let layer = RhnLayer::new(&mut StdRng::seed_from_u64(0), 1792, 1792, 10);
        let expected = 2 * 1792 * 1792 + 10 * (2 * 1792 * 1792 + 2 * 1792);
        assert_eq!(layer.param_count(), expected);
    }
}
