//! The unique-words (Heaps/Zipf) law: `U = a · N^α`, capped at the
//! vocabulary size.
//!
//! Figure 1 fits `a = 7.02`, `α = 0.64` on Amazon Reviews; the §III-A
//! worked example uses `a = 1` (the paper's own conservative arithmetic).

/// The paper's measured Heaps exponent.
pub const ALPHA: f64 = 0.64;

/// The Figure 1 prefactor (Amazon Reviews fit).
pub const FIG1_PREFACTOR: f64 = 7.02;

/// Distinct candidate sets of §III-B's Zipf's-frequency seeding on `g`
/// GPUs: `⌈G^α⌉` seed groups, with the unique-words law's exponent.
pub fn seed_groups(g: usize) -> usize {
    (g as f64).powf(ALPHA).ceil() as usize
}

/// Expected unique words among `tokens` tokens: `min(a·N^α, cap)`.
pub fn unique_words(tokens: u64, prefactor: f64, alpha: f64, cap: usize) -> u64 {
    assert!(prefactor > 0.0 && alpha > 0.0 && cap >= 1);
    let u = prefactor * (tokens as f64).powf(alpha);
    (u.round() as u64).min(cap as u64).max(1.min(tokens))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fig1_headline() {
        // "When N is 40-million total tokens …, U is ∼100× smaller."
        let n = 40_000_000u64;
        let u = unique_words(n, FIG1_PREFACTOR, ALPHA, usize::MAX);
        let ratio = n as f64 / u as f64;
        assert!((50.0..200.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn caps_at_vocabulary() {
        assert_eq!(unique_words(1 << 40, 7.0, 0.64, 100_000), 100_000);
    }

    #[test]
    fn zero_tokens_zero_types() {
        assert_eq!(unique_words(0, 7.0, 0.64, 100), 0);
    }

    #[test]
    fn monotone_in_tokens() {
        let mut prev = 0;
        for n in [10u64, 100, 1000, 10_000, 100_000] {
            let u = unique_words(n, 7.0, 0.64, usize::MAX);
            assert!(u >= prev);
            prev = u;
        }
    }
}
