//! One literal over the bits of every product `tensor` issues, on every
//! tile width this CPU runs.
//!
//! Each public entry point — `matmul`, `matmul_transpose_b`,
//! `transpose_a_matmul`, and `gemm_rows` under `Store::Set` and
//! `Store::Add` against a `View` and a `PackedB` — runs at the GEMM shapes
//! of the four `e2e` workloads' LSTM and RHN layers, at ragged shapes that
//! reach every remainder tile, and at shapes on both sides of the packed
//! block budget. One FNV-1a digest folds the `to_bits` of every result; a
//! change to the driver's loop order, its packing or its epilogue that
//! moves one bit anywhere fails here and nowhere else first.
//!
//! Inputs hold planted zeros and a zero against an `inf` (IEEE `0·inf`),
//! and `Add` lands on a `C` with planted `-0.0`, so a kernel that skips
//! zero terms or an epilogue that skips a `+0.0` sum changes the digest.
//! Every NaN is folded as one canonical value: its sign and payload are
//! what the CPU makes of `0·inf`, not what the kernel decides.

use tensor::matrix::for_each_width;
use tensor::{Matrix, PackedB, Rhs, Store};

/// The digest of [`fold_case`] over [`shapes`], the same at every width.
const DIGEST: u64 = 0x2feb_0a4d_be8e_b550;

/// `(m, k, n)` of `C[m×n] = A[m×k]·B[k×n]`.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        // word_compute_g2 (B 16, T 20, D 64, H 256): X·Wx, h·Wh,
        // x_tᵀ·dz_t, hᵀ·dz, dz·Whᵀ, DZ·Wxᵀ.
        (320, 64, 1024),
        (16, 256, 1024),
        (64, 16, 1024),
        (256, 16, 1024),
        (16, 1024, 256),
        (320, 1024, 64),
        // word_exchange_*_g8 (B 512, T 4, D 512, H 4): the same six.
        (2048, 512, 16),
        (512, 4, 16),
        (512, 512, 16),
        (4, 512, 16),
        (512, 16, 4),
        (2048, 16, 512),
        // char_weak_g192's RHN (B 1, T 6, D 24, H 48): X·Wx, s·R,
        // sᵀ·dz, x_tᵀ·dz, DZ·Wxᵀ.
        (6, 24, 48),
        (1, 48, 48),
        (48, 1, 48),
        (24, 1, 48),
        (6, 48, 24),
        // Both sides of a 16 K-float block: all of B at the budget and
        // one panel past it; one 16-column panel at and past it; blocks
        // of three panels with a ragged last panel.
        (33, 16, 1024),
        (33, 16, 1040),
        (17, 1024, 16),
        (17, 1025, 17),
        (40, 300, 70),
    ];
    // Every remainder path of a 16-row tile (15 = 8+4+2+1; 17 and 33 =
    // full tiles + 1) against n below and across a panel boundary.
    for m in [1, 15, 17, 33] {
        for n in [4, 17] {
            for k in [0, 1, 16] {
                shapes.push((m, k, n));
            }
        }
    }
    shapes
}

/// SplitMix64: a fixed stream, so the literal does not depend on `rand`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `rows × cols` uniform in `[-2, 2)`, every `zero_every`-th element
    /// replaced by `zero`.
    fn matrix(&mut self, rows: usize, cols: usize, zero_every: usize, zero: f32) -> Matrix {
        let data = (0..rows * cols)
            .map(|x| {
                let u = (self.next() >> 40) as f32 / (1u64 << 24) as f32;
                if x % zero_every == 3 {
                    zero
                } else {
                    4.0 * u - 2.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }
}

/// One shape's operands: `A`, `B`, their transposes, and the `C` that
/// `gemm_rows` writes rows `1..1 + m` of.
struct Case {
    a: Matrix,
    at: Matrix,
    b: Matrix,
    bt: Matrix,
    c0: Matrix,
}

fn case(seed: u64, (m, k, n): (usize, usize, usize)) -> Case {
    let mut s = Stream(seed);
    let mut a = s.matrix(m, k, 7, 0.0);
    let mut b = s.matrix(k, n, 7, 0.0);
    if k > 0 {
        // Column n/2 of B holds an inf at p = k/2; rows 0 and m-1 of A
        // are zero there, so their C[i][n/2] is 0·inf = NaN.
        b.set(k / 2, n / 2, f32::INFINITY);
        a.set(0, k / 2, 0.0);
        a.set(m - 1, k / 2, 0.0);
    }
    let c0 = s.matrix(m + 2, n, 5, -0.0);
    let (at, bt) = (a.transpose(), b.transpose());
    Case { a, at, b, bt, c0 }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, m: &Matrix) -> u64 {
    for x in m.as_slice() {
        let bits = if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() };
        for byte in bits.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Every entry point on one case, folded in a fixed order.
fn fold_case(mut h: u64, case: &Case) -> u64 {
    let Case { a, at, b, bt, c0 } = case;
    let m = a.rows();
    h = fold(h, &a.matmul(b));
    h = fold(h, &a.matmul_transpose_b(bt));
    h = fold(h, &at.transpose_a_matmul(b));
    let packed = [PackedB::new(b.view()), PackedB::new(bt.view().t())];
    for store in [Store::Set, Store::Add] {
        for a in [a.view(), at.view().t()] {
            let rhs = [
                Rhs::View(b.view()),
                Rhs::View(bt.view().t()),
                Rhs::Packed(&packed[0]),
                Rhs::Packed(&packed[1]),
            ];
            for b in rhs {
                let mut c = c0.clone();
                c.gemm_rows(1..1 + m, a, b, store);
                h = fold(h, &c);
            }
        }
    }
    h
}

#[test]
fn every_product_at_every_width_has_the_pinned_bits() {
    let cases: Vec<Case> = shapes()
        .into_iter()
        .enumerate()
        .map(|(seed, shape)| case(seed as u64, shape))
        .collect();
    let mut digests = Vec::new();
    for_each_width(|width| {
        digests.push((width, cases.iter().fold(FNV_OFFSET, fold_case)));
    });
    assert!(!digests.is_empty());
    for (width, digest) in digests {
        assert_eq!(digest, DIGEST, "{width}: digest {digest:#018x}");
    }
}
