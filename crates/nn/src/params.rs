//! Folds over a parameter list.
//!
//! Each dense layer states its flat order **once**, as an iterator of
//! slices (`params()` / `params_mut()`, and `parts()` on its gradients in
//! the same order); a model chains its layers' lists. Everything that
//! walks that order — counting, snapshotting, restoring, the SGD update
//! from the ALLREDUCEd flat gradient — is one of the four folds below, so
//! no second spelling of a layout exists to drift from the first.
//!
//! The orders are the checkpoint contract (`lm::checkpoint` stores
//! `param_vector()` verbatim) and the dense ALLREDUCE payload's layout:
//! LSTM `wx, wh, b`; RHN `wx_h, wx_t`, then `r_h, r_t, b_h, b_t` per
//! depth; Linear `w, b`; a model is input table, recurrent core,
//! projection, then (word LM) output table. `model::tests` pins them by
//! hash.

/// Total number of values in the list.
pub(crate) fn count<'a>(parts: impl Iterator<Item = &'a [f32]>) -> usize {
    parts.map(<[f32]>::len).sum()
}

/// Appends every part to `out`, in order.
pub(crate) fn flatten<'a>(parts: impl Iterator<Item = &'a [f32]>, out: &mut Vec<f32>) {
    for p in parts {
        out.extend_from_slice(p);
    }
}

/// Overwrites every part from the front of `flat`, in order.
pub(crate) fn load<'a>(parts: impl Iterator<Item = &'a mut [f32]>, mut flat: &[f32]) {
    for p in parts {
        let (src, rest) = flat.split_at(p.len());
        p.copy_from_slice(src);
        flat = rest;
    }
}

/// SGD straight from a flat gradient laid out like the list: `p -= lr·g`,
/// which is `axpy(−lr, g)` to the bit.
pub(crate) fn sgd<'a>(parts: impl Iterator<Item = &'a mut [f32]>, mut flat: &[f32], lr: f32) {
    for p in parts {
        let (grad, rest) = flat.split_at(p.len());
        for (w, &g) in p.iter_mut().zip(grad) {
            *w -= lr * g;
        }
        flat = rest;
    }
}
