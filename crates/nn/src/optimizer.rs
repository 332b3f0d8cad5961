//! The paper's `lr · ln(nodes)` learning-rate scaling rule.
//!
//! §IV-B: the word LM uses SGD with base lr 0.2 scaled by `ln |nodes|`;
//! the char LM uses Adam at base lr 1e-3 with the same node scaling.
//! Both decay by 0.85–0.95 per epoch. Here both models train with plain
//! SGD ([`crate::WordLm::apply_dense`] / [`crate::CharLm::apply_dense`]).

/// The paper's learning-rate scaling rule: base lr (for one node)
/// multiplied by `ln(nodes)` for a job on `nodes` nodes (§IV-B, §V-A:
/// "0.2 × log_e(|nodes|)", e.g. factor 0.41 … ≈ 2.07 at 64 GPUs, 8
/// nodes). The caller counts the nodes.
pub fn scaled_lr(base: f32, nodes: usize) -> f32 {
    assert!(nodes >= 1);
    if nodes == 1 {
        base
    } else {
        base * (nodes as f32).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_scaling_matches_paper_numbers() {
        // 8 GPUs = 1 node: base. 64 GPUs = 8 nodes: ln 8 ≈ 2.08.
        assert_eq!(scaled_lr(0.2, 1), 0.2);
        let lr64 = scaled_lr(0.2, 8);
        assert!((lr64 - 0.2 * (8f32).ln()).abs() < 1e-6);
        assert!((lr64 / 0.2 - 2.08).abs() < 0.01);
        // §V-A quotes "0.41 for 64 GPUs" as the *learning rate* (0.2 ×
        // ln 8 ≈ 0.416).
        assert!((lr64 - 0.416).abs() < 0.01);
        // Char LM: 1e-3 base → "2.07 × 10−3 for 64 GPUs".
        let c = scaled_lr(1e-3, 8);
        assert!((c - 2.07e-3).abs() < 2e-5, "c {c}");
    }
}
