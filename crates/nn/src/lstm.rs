//! LSTM layer with truncated-BPTT backward — the word LM's recurrent
//! core (§IV-B: "one LSTM layer with 2048 cells").
//!
//! Processing is timestep-major: the layer consumes one `b×D` input per
//! step and runs the standard cell
//!
//! ```text
//! z = x_t·Wx + h_{t−1}·Wh + b          (b×4H, gate order [i f g o])
//! i, f, o = σ(·);  g = tanh(·)
//! c_t = f ∘ c_{t−1} + i ∘ g
//! h_t = o ∘ tanh(c_t)
//! ```
//!
//! State is zero-initialised per window (truncated BPTT over the
//! `seq_len`-token windows the batcher produces). The forget-gate bias is
//! initialised to 1, the standard trick for gradient flow.

use tensor::ops::{dsigmoid_from_y, dtanh_from_y, sigmoid};
use tensor::{init, Matrix};

/// One LSTM layer's parameters.
#[derive(Debug, Clone)]
pub struct LstmLayer {
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
    hidden: usize,
}

/// Forward-pass activations kept for backward.
#[derive(Debug)]
pub struct LstmCache {
    /// Inputs per step (`b×D`).
    xs: Vec<Matrix>,
    /// Post-activation gates per step (`b×4H`, order [i f g o]).
    gates: Vec<Matrix>,
    /// Cell states per step (`b×H`), including the initial zero state at
    /// index 0 (so `cs[t+1]` is the state after step `t`).
    cs: Vec<Matrix>,
    /// Hidden states, same indexing as `cs`.
    hs: Vec<Matrix>,
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
        Self { wx, wh, b, hidden }
    }

    /// Hidden size `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension `D`.
    pub fn input_dim(&self) -> usize {
        self.wx.rows()
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.wx.len() + self.wh.len() + self.b.len()
    }

    /// Zeroed gradient holder.
    pub fn zero_grads(&self) -> LstmGrads {
        LstmGrads {
            dwx: Matrix::zeros(self.wx.rows(), self.wx.cols()),
            dwh: Matrix::zeros(self.wh.rows(), self.wh.cols()),
            db: vec![0.0; self.b.len()],
        }
    }

    /// Runs the layer over `xs` (one `b×D` matrix per step) from zero
    /// state; returns per-step hidden states and the backward cache.
    pub fn forward(&self, xs: &[Matrix]) -> (Vec<Matrix>, LstmCache) {
        assert!(!xs.is_empty(), "empty sequence");
        let b = xs[0].rows();
        let h = self.hidden;
        let mut cache = LstmCache {
            xs: xs.to_vec(),
            gates: Vec::with_capacity(xs.len()),
            cs: vec![Matrix::zeros(b, h)],
            hs: vec![Matrix::zeros(b, h)],
        };
        for x in xs {
            assert_eq!(x.rows(), b, "inconsistent batch size");
            assert_eq!(x.cols(), self.input_dim(), "input dim mismatch");
            let h_prev = cache.hs.last().unwrap();
            let c_prev = cache.cs.last().unwrap();

            let mut z = x.matmul(&self.wx);
            let zh = h_prev.matmul(&self.wh);
            z.add_assign(&zh);
            z.add_row_bias(&self.b);

            // Activate in place: [i f g o].
            let mut c_t = Matrix::zeros(b, h);
            let mut h_t = Matrix::zeros(b, h);
            for r in 0..b {
                let zr = z.row_mut(r);
                for j in 0..h {
                    zr[j] = sigmoid(zr[j]); // i
                    zr[h + j] = sigmoid(zr[h + j]); // f
                    zr[2 * h + j] = zr[2 * h + j].tanh(); // g
                    zr[3 * h + j] = sigmoid(zr[3 * h + j]); // o
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
        let hs_out = cache.hs[1..].to_vec();
        (hs_out, cache)
    }

    /// Back-propagates per-step upstream gradients `dhs` through the
    /// cached forward pass; returns per-step input gradients and the
    /// parameter gradients.
    pub fn backward(&self, cache: &LstmCache, dhs: &[Matrix]) -> (Vec<Matrix>, LstmGrads) {
        let steps = cache.gates.len();
        assert_eq!(dhs.len(), steps, "upstream step count mismatch");
        let b = cache.xs[0].rows();
        let h = self.hidden;

        let mut grads = self.zero_grads();
        let mut dxs: Vec<Matrix> = (0..steps)
            .map(|_| Matrix::zeros(b, self.input_dim()))
            .collect();
        let mut dh_carry = Matrix::zeros(b, h);
        let mut dc_carry = Matrix::zeros(b, h);

        for t in (0..steps).rev() {
            let gates = &cache.gates[t];
            let c_t = &cache.cs[t + 1];
            let c_prev = &cache.cs[t];
            let h_prev = &cache.hs[t];

            // dz holds pre-activation gate gradients, layout [i f g o];
            // the same pass leaves dc_{t−1} = dc · f in `dc_carry`.
            let mut dz = Matrix::zeros(b, 4 * h);
            for r in 0..b {
                let g = gates.row(r);
                let ct = c_t.row(r);
                let cp = c_prev.row(r);
                let dh_up = dhs[t].row(r);
                let dh_c = dh_carry.row(r);
                let dc_c = dc_carry.row_mut(r);
                let dzr = dz.row_mut(r);
                for j in 0..h {
                    let dh = dh_up[j] + dh_c[j];
                    let tc = ct[j].tanh();
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

            // Parameter and input gradients.
            grads.dwx.add_assign(&cache.xs[t].transpose_a_matmul(&dz));
            grads.dwh.add_assign(&h_prev.transpose_a_matmul(&dz));
            for (acc, v) in grads.db.iter_mut().zip(dz.sum_rows()) {
                *acc += v;
            }
            dxs[t] = dz.matmul_transpose_b(&self.wx);
            dh_carry = dz.matmul_transpose_b(&self.wh);
        }
        (dxs, grads)
    }

    /// SGD step.
    pub fn apply(&mut self, grads: &LstmGrads, lr: f32) {
        self.wx.axpy(-lr, &grads.dwx);
        self.wh.axpy(-lr, &grads.dwh);
        for (b, &g) in self.b.iter_mut().zip(&grads.db) {
            *b -= lr * g;
        }
    }

    /// Appends `(dwx, dwh, db)` to a flat buffer (fixed layout).
    pub fn flatten_grads(grads: &LstmGrads, out: &mut Vec<f32>) {
        out.extend_from_slice(grads.dwx.as_slice());
        out.extend_from_slice(grads.dwh.as_slice());
        out.extend_from_slice(&grads.db);
    }

    /// Appends the layer's parameters `(wx, wh, b)` to `out`, in the
    /// same fixed layout as [`LstmLayer::flatten_grads`] — the basis of
    /// bit-exact checkpoint snapshots.
    pub fn flatten_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.wx.as_slice());
        out.extend_from_slice(self.wh.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Overwrites the layer's parameters from `flat` at `offset` (the
    /// [`LstmLayer::flatten_params`] layout); returns the new offset.
    pub fn load_params(&mut self, flat: &[f32], offset: usize) -> usize {
        let nwx = self.wx.len();
        let nwh = self.wh.len();
        let nb = self.b.len();
        self.wx
            .as_mut_slice()
            .copy_from_slice(&flat[offset..offset + nwx]);
        self.wh
            .as_mut_slice()
            .copy_from_slice(&flat[offset + nwx..offset + nwx + nwh]);
        self.b
            .copy_from_slice(&flat[offset + nwx + nwh..offset + nwx + nwh + nb]);
        offset + nwx + nwh + nb
    }

    /// Restores gradients from the flat buffer; returns the new offset.
    pub fn unflatten_grads(&self, flat: &[f32], offset: usize, grads: &mut LstmGrads) -> usize {
        let nwx = self.wx.len();
        let nwh = self.wh.len();
        let nb = self.b.len();
        grads
            .dwx
            .as_mut_slice()
            .copy_from_slice(&flat[offset..offset + nwx]);
        grads
            .dwh
            .as_mut_slice()
            .copy_from_slice(&flat[offset + nwx..offset + nwx + nwh]);
        grads
            .db
            .copy_from_slice(&flat[offset + nwx + nwh..offset + nwx + nwh + nb]);
        offset + nwx + nwh + nb
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
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = LstmLayer::new(&mut rng, 3, 5);
        let xs = rand_steps(&mut rng, 4, 2, 3);
        let (hs, _) = layer.forward(&xs);
        assert_eq!(hs.len(), 4);
        assert_eq!(hs[0].rows(), 2);
        assert_eq!(hs[0].cols(), 5);
    }

    #[test]
    fn hidden_states_bounded() {
        // h = o·tanh(c) with σ, tanh keeps |h| < 1... c can grow, but
        // tanh(c) is in (−1, 1) and o in (0, 1).
        let mut rng = StdRng::seed_from_u64(2);
        let layer = LstmLayer::new(&mut rng, 4, 6);
        let xs = rand_steps(&mut rng, 20, 3, 4);
        let (hs, _) = layer.forward(&xs);
        for h in &hs {
            assert!(h.as_slice().iter().all(|&v| v.abs() < 1.0));
        }
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
        let xs = rand_steps(&mut rng, 3, 2, 3);
        let (hs, cache) = layer.forward(&xs);
        let dhs: Vec<Matrix> = hs.clone(); // loss = Σ‖h‖²/2 ⇒ dL/dh = h
        let (dxs, grads) = layer.backward(&cache, &dhs);

        let eps = 1e-3f32;
        let loss_of = |l: &LstmLayer, xs: &[Matrix]| {
            let (hs, _) = l.forward(xs);
            sq_loss(&hs)
        };

        // Wx probes.
        for i in [0usize, 5, 20, 47] {
            let orig = layer.wx.as_slice()[i];
            layer.wx.as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wx.as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wx.as_mut_slice()[i] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = grads.dwx.as_slice()[i];
            assert!((ana - num).abs() < 3e-2, "dwx[{i}]: {ana} vs {num}");
        }
        // Wh probes.
        for i in [0usize, 17, 63] {
            let orig = layer.wh.as_slice()[i];
            layer.wh.as_mut_slice()[i] = orig + eps;
            let lp = loss_of(&layer, &xs);
            layer.wh.as_mut_slice()[i] = orig - eps;
            let lm = loss_of(&layer, &xs);
            layer.wh.as_mut_slice()[i] = orig;
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
        for t in 0..3 {
            for i in [0usize, 3] {
                let mut xs2: Vec<Matrix> = xs.clone();
                xs2[t].as_mut_slice()[i] += eps;
                let lp = loss_of(&layer, &xs2);
                xs2[t].as_mut_slice()[i] -= 2.0 * eps;
                let lm = loss_of(&layer, &xs2);
                let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let ana = dxs[t].as_slice()[i];
                assert!((ana - num).abs() < 3e-2, "dx[{t}][{i}]: {ana} vs {num}");
            }
        }
    }

    #[test]
    fn training_reduces_state_norm() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = LstmLayer::new(&mut rng, 3, 4);
        let xs = rand_steps(&mut rng, 5, 4, 3);
        let (hs0, _) = layer.forward(&xs);
        let before = sq_loss(&hs0);
        for _ in 0..30 {
            let (hs, cache) = layer.forward(&xs);
            let (_, grads) = layer.backward(&cache, &hs);
            layer.apply(&grads, 0.1);
        }
        let (hs1, _) = layer.forward(&xs);
        assert!(sq_loss(&hs1) < before * 0.5);
    }

    #[test]
    fn flatten_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        let layer = LstmLayer::new(&mut rng, 3, 4);
        let xs = rand_steps(&mut rng, 2, 2, 3);
        let (hs, cache) = layer.forward(&xs);
        let (_, grads) = layer.backward(&cache, &hs);
        let mut flat = Vec::new();
        LstmLayer::flatten_grads(&grads, &mut flat);
        assert_eq!(flat.len(), layer.param_count());
        let mut restored = layer.zero_grads();
        let end = layer.unflatten_grads(&flat, 0, &mut restored);
        assert_eq!(end, flat.len());
        assert_eq!(restored.dwx.as_slice(), grads.dwx.as_slice());
        assert_eq!(restored.dwh.as_slice(), grads.dwh.as_slice());
        assert_eq!(restored.db, grads.db);
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
