//! Sampled softmax — the word LM's output layer (§II-A, §IV-B).
//!
//! Computing the full softmax over a 100 K-word vocabulary dominates the
//! word LM's cost, so the paper (following Jean et al. / TF's
//! `sampled_softmax_loss`) scores only `S` randomly drawn candidate words
//! plus the true target per position, drawn from the **log-uniform**
//! (Zipfian) candidate distribution, with the standard `−ln(S·Q(w))`
//! expected-count correction and accidental-hit masking.
//!
//! Two details matter for the paper's techniques:
//!
//! * The candidate set is drawn from a *caller-supplied RNG* — this is
//!   the hook the seeding strategy (§III-B) uses: GPUs sharing a seed
//!   draw identical candidate sets, shrinking the union of sampled words
//!   that the output-embedding exchange must move.
//! * The backward pass returns a token-aligned [`SparseGrad`] over the
//!   output embedding table (targets first, then candidates), exactly the
//!   shape the exchange strategies operate on.

use crate::embedding::{Embedding, SparseGrad};
use rand::Rng;
use std::collections::HashSet;
use tensor::ops::log_sum_exp;
use tensor::{Matrix, Rhs, Store};
use zipf::LogUniform;

/// Sampled-softmax layer over an external output-embedding table.
#[derive(Debug, Clone)]
pub struct SampledSoftmax {
    sampler: LogUniform,
    samples: usize,
}

/// Result of one sampled-softmax forward/backward.
#[derive(Debug, Clone)]
pub struct SampledSoftmaxOutput {
    /// Mean negative log-likelihood over the candidate set (nats).
    pub loss: f64,
    /// `∂L/∂h`, shape `n×P`.
    pub dh: Matrix,
    /// Sparse gradient over the output embedding table. Indices are the
    /// `n` targets followed by the `S` candidates.
    pub grad: SparseGrad,
    /// The candidate word ids drawn this step (size `S`, unique).
    pub candidates: Vec<u32>,
}

impl SampledSoftmax {
    /// Creates the layer for a vocabulary of `vocab` words drawing
    /// `samples` candidates per step.
    pub fn new(vocab: usize, samples: usize) -> Self {
        assert!(samples >= 1, "need at least one sample");
        assert!(
            samples < vocab,
            "sample count {samples} must be below vocabulary {vocab}"
        );
        Self {
            sampler: LogUniform::new(vocab),
            samples,
        }
    }

    /// Number of candidates per step (`S`).
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Draws `S` *unique* candidates from the log-uniform distribution
    /// using the supplied RNG (rejection sampling; cheap since `S ≪ V`).
    pub fn draw_candidates<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u32> {
        let mut seen = HashSet::with_capacity(self.samples * 2);
        let mut out = Vec::with_capacity(self.samples);
        while out.len() < self.samples {
            let c = self.sampler.sample(rng) as u32;
            if seen.insert(c) {
                out.push(c);
            }
        }
        out
    }

    /// Convenience: draw candidates and run
    /// [`SampledSoftmax::forward_backward_with_candidates`].
    pub fn forward_backward<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        h: &Matrix,
        targets: &[u32],
        table: &Embedding,
    ) -> SampledSoftmaxOutput {
        let cands = self.draw_candidates(rng);
        self.forward_backward_with_candidates(h, targets, table, cands)
    }

    /// Scores `h` (`n×P`) against the true targets plus the given
    /// candidate set and back-propagates the mean cross-entropy.
    ///
    /// Per row the class list is `[target_i, cand_0 … cand_{S−1}]`; each
    /// logit gets the `−ln(S·Q(w))` correction; candidates equal to the
    /// row's target are masked to `−1e9` (accidental-hit removal).
    pub fn forward_backward_with_candidates(
        &self,
        h: &Matrix,
        targets: &[u32],
        table: &Embedding,
        candidates: Vec<u32>,
    ) -> SampledSoftmaxOutput {
        let n = h.rows();
        let p = h.cols();
        let s = candidates.len();
        assert_eq!(targets.len(), n, "target count mismatch");
        assert_eq!(table.dim(), p, "table dim mismatch");
        assert!(n > 0, "empty batch");

        // Gather candidate embedding rows once (shared across rows).
        let cand_rows = table.forward(&candidates);
        let cand_corr: Vec<f32> = candidates
            .iter()
            .map(|&c| (s as f64 * self.sampler.prob(c as usize)).ln() as f32)
            .collect();

        let inv_n = 1.0 / n as f32;
        let mut total = 0.0f64;
        let mut dh = Matrix::zeros(n, p);
        // Sparse grad: one row per target occurrence + one per candidate.
        let mut grad_rows = Matrix::zeros(n + s, p);
        let mut indices = Vec::with_capacity(n + s);
        indices.extend_from_slice(targets);
        indices.extend_from_slice(&candidates);

        // Every row's candidate dots in one GEMM (`n×S`); the correction
        // and the accidental-hit mask are applied per row below, which
        // then overwrites the row with its candidate gradients `D`.
        let mut d = h.matmul_transpose_b(&cand_rows);

        let mut logits = vec![0.0f32; s + 1];
        #[allow(clippy::needless_range_loop)] // i indexes h, targets, d, dh, grad_rows
        for i in 0..n {
            let hi = h.row(i);
            let t = targets[i];
            let t_row = table.weights().row(t as usize);

            // True-class logit with correction.
            let mut dot = 0.0f32;
            for (&a, &b) in hi.iter().zip(t_row) {
                dot += a * b;
            }
            let t_corr = (s as f64 * self.sampler.prob(t as usize)).ln() as f32;
            logits[0] = dot - t_corr;

            // Candidate logits.
            let d_row = d.row_mut(i);
            for j in 0..s {
                logits[j + 1] = if candidates[j] == t {
                    -1e9 // accidental hit
                } else {
                    d_row[j] - cand_corr[j]
                };
            }

            let lse = log_sum_exp(&logits);
            total += (lse - logits[0]) as f64;

            // dlogit_j = (softmax_j − 1[j == true]) / n. The target's term
            // starts row i of dh and is row i of the table gradient.
            let dt = ((logits[0] - lse).exp() - 1.0) * inv_n;
            if dt != 0.0 {
                for (dhv, &cv) in dh.row_mut(i).iter_mut().zip(t_row) {
                    *dhv += dt * cv;
                }
                for (g, &hv) in grad_rows.row_mut(i).iter_mut().zip(hi) {
                    *g += dt * hv;
                }
            }
            // The candidates' terms into D; a masked logit's is exactly
            // zero.
            for j in 0..s {
                d_row[j] = if candidates[j] == t {
                    0.0
                } else {
                    (logits[j + 1] - lse).exp() * inv_n
                };
            }
        }

        // The candidates' table rows are `Dᵀ·H`, and `dh` adds `D·C` one
        // class at a time after the target's term (`AddRuns(1)`). Both
        // sums start at `+0.0`, so neither ever holds `−0.0` and the `±0`
        // terms of masked or underflowed classes add nothing to them.
        let cands = n..n + s;
        grad_rows.gemm_rows(cands, d.view().t(), Rhs::View(h.view()), Store::Set);
        dh.gemm_rows(
            0..n,
            d.view(),
            Rhs::View(cand_rows.view()),
            Store::AddRuns(1),
        );

        SampledSoftmaxOutput {
            loss: total / n as f64,
            dh,
            grad: SparseGrad {
                indices,
                rows: grad_rows,
            },
            candidates,
        }
    }
}

/// Full-vocabulary evaluation loss (mean NLL, nats) for validation:
/// `logits = h · Eᵀ`, exact softmax. Used to report perplexity — the
/// paper evaluates with the true distribution even when training with
/// sampled softmax.
pub fn full_softmax_eval_loss(h: &Matrix, targets: &[u32], table: &Embedding) -> f64 {
    let logits = h.matmul_transpose_b(table.weights());
    crate::softmax::mean_nll(&logits, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::init;

    fn setup(vocab: usize, p: usize, n: usize, seed: u64) -> (Embedding, Matrix, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = Embedding::new(&mut rng, vocab, p);
        let h = init::uniform(&mut rng, n, p, 1.0);
        let targets: Vec<u32> = (0..n).map(|i| (i * 7 % vocab) as u32).collect();
        (table, h, targets)
    }

    #[test]
    fn candidates_unique_and_in_range() {
        let ss = SampledSoftmax::new(1000, 50);
        let mut rng = StdRng::seed_from_u64(1);
        let c = ss.draw_candidates(&mut rng);
        assert_eq!(c.len(), 50);
        let set: HashSet<u32> = c.iter().copied().collect();
        assert_eq!(set.len(), 50);
        assert!(c.iter().all(|&x| x < 1000));
    }

    #[test]
    fn same_seed_same_candidates() {
        // The mechanism seeding (§III-B) relies on.
        let ss = SampledSoftmax::new(5000, 64);
        let a = ss.draw_candidates(&mut StdRng::seed_from_u64(42));
        let b = ss.draw_candidates(&mut StdRng::seed_from_u64(42));
        let c = ss.draw_candidates(&mut StdRng::seed_from_u64(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn candidates_skew_zipfian() {
        // Log-uniform sampling favours frequent (low-id) words.
        let ss = SampledSoftmax::new(100_000, 200);
        let mut rng = StdRng::seed_from_u64(2);
        let mut low = 0usize;
        for _ in 0..20 {
            let c = ss.draw_candidates(&mut rng);
            low += c.iter().filter(|&&x| x < 1000).count();
        }
        // Under uniform sampling the expectation would be 40 of 4000.
        assert!(low > 400, "low-rank count {low}");
    }

    #[test]
    fn loss_decreases_with_training_signal() {
        let (mut table, h, targets) = setup(500, 8, 16, 3);
        let ss = SampledSoftmax::new(500, 32);
        let mut rng = StdRng::seed_from_u64(9);
        let first = ss.forward_backward(&mut rng, &h, &targets, &table);
        // Apply the sparse gradient a few times; loss on the same
        // candidates must drop.
        let cands = first.candidates.clone();
        let mut last = first.loss;
        for _ in 0..25 {
            let out = ss.forward_backward_with_candidates(&h, &targets, &table, cands.clone());
            let red = out.grad.local_reduce();
            table.apply_rows(&red.indices, &red.rows, 0.5);
            last = out.loss;
        }
        assert!(last < first.loss * 0.8, "first {} last {last}", first.loss);
    }

    #[test]
    fn table_gradient_matches_numerical() {
        let (table, h, targets) = setup(50, 4, 3, 11);
        let ss = SampledSoftmax::new(50, 8);
        let cands = ss.draw_candidates(&mut StdRng::seed_from_u64(5));
        let out = ss.forward_backward_with_candidates(&h, &targets, &table, cands.clone());
        let red = out.grad.local_reduce();

        // Build a dense view of the analytic table gradient.
        let mut dense = Matrix::zeros(50, 4);
        for (i, &idx) in red.indices.iter().enumerate() {
            for (d, &g) in dense.row_mut(idx as usize).iter_mut().zip(red.rows.row(i)) {
                *d += g;
            }
        }

        let eps = 1e-3f32;
        let loss_at = |t: &Embedding| {
            ss.forward_backward_with_candidates(&h, &targets, t, cands.clone())
                .loss
        };
        // Probe the target rows and two candidate rows.
        let mut probes: Vec<u32> = targets.clone();
        probes.push(cands[0]);
        probes.push(cands[3]);
        for &row in &probes {
            for col in 0..4 {
                let mut tp = table.clone();
                tp.weights_mut().row_mut(row as usize)[col] += eps;
                let mut tm = table.clone();
                tm.weights_mut().row_mut(row as usize)[col] -= eps;
                let num = ((loss_at(&tp) - loss_at(&tm)) / (2.0 * eps as f64)) as f32;
                let ana = dense.get(row as usize, col);
                assert!(
                    (ana - num).abs() < 2e-3,
                    "row {row} col {col}: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn dh_matches_numerical() {
        let (table, h, targets) = setup(40, 4, 3, 13);
        let ss = SampledSoftmax::new(40, 6);
        let cands = ss.draw_candidates(&mut StdRng::seed_from_u64(8));
        let out = ss.forward_backward_with_candidates(&h, &targets, &table, cands.clone());
        let eps = 1e-3f32;
        for i in 0..h.len() {
            let mut hp = h.clone();
            hp.as_mut_slice()[i] += eps;
            let mut hm = h.clone();
            hm.as_mut_slice()[i] -= eps;
            let lp = ss
                .forward_backward_with_candidates(&hp, &targets, &table, cands.clone())
                .loss;
            let lm = ss
                .forward_backward_with_candidates(&hm, &targets, &table, cands.clone())
                .loss;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = out.dh.as_slice()[i];
            assert!((ana - num).abs() < 2e-3, "dh[{i}]: {ana} vs {num}");
        }
    }

    #[test]
    fn accidental_hits_masked() {
        let (table, h, _) = setup(30, 4, 2, 17);
        let ss = SampledSoftmax::new(30, 4);
        // Force candidate 0 to equal row 0's target.
        let targets = vec![7u32, 9];
        let cands = vec![7u32, 1, 2, 3];
        let out = ss.forward_backward_with_candidates(&h, &targets, &table, cands);
        assert!(out.loss.is_finite());
        // Row 0's target gradient row must exist; candidate 7's gradient
        // only receives contributions from row 1.
        assert_eq!(out.grad.indices[0], 7);
        assert_eq!(out.grad.indices[2], 7); // candidate position
    }

    #[test]
    fn full_eval_matches_sampled_direction() {
        // Full-softmax eval loss should be ≥ 0 and finite.
        let (table, h, targets) = setup(100, 8, 10, 19);
        let loss = full_softmax_eval_loss(&h, &targets, &table);
        assert!(loss.is_finite() && loss > 0.0);
        // Near-uniform random embeddings score close to ln V.
        assert!((loss - (100.0f64).ln()).abs() < 1.5, "loss {loss}");
    }

    #[test]
    #[should_panic(expected = "below vocabulary")]
    fn too_many_samples_rejected() {
        SampledSoftmax::new(10, 10);
    }
}
