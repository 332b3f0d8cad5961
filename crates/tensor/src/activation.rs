//! The gate nonlinearities, a block at a time: [`tanh_in_place`] and
//! [`sigmoid_in_place`] reproduce glibc 2.36's `tanhf` and
//! `1/(1+expf(−x))` bit for bit, for every input, at every [`Width`].
//!
//! **What is ported.** The constants and the order of every IEEE
//! operation were read from the x86-64 `libm.so.6` of glibc 2.36 with
//! `objdump`; the comments name the C source each step comes from.
//!
//! * `tanhf` and the `expm1f` it calls are Sun's `s_tanhf.c` and
//!   `s_expm1f.c` in `float` arithmetic (the float conversion by Ian
//!   Lance Taylor, Cygnus Support). Their notice:
//!
//!   > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//!   >
//!   > Developed at SunPro, a Sun Microsystems, Inc. business.
//!   > Permission to use, copy, modify, and distribute this
//!   > software is freely granted, provided that this notice
//!   > is preserved.
//!
//!   `tanhf` hands `expm1f` only `2|x|` for `1 ≤ |x| < 22` and `−2|x|`
//!   for `2⁻⁵⁵ ≤ |x| < 1`; [`expm1`] ports the branches those arguments
//!   take and no others.
//! * `expf` is the algorithm of Arm's optimized-routines (Szabolcs Nagy,
//!   Copyright (c) 2017-2018 Arm Limited, MIT licence, later MIT OR
//!   Apache-2.0 WITH LLVM-exception), which glibc carries since 2.27:
//!   `f64` arithmetic on a 32-entry table of `2^(i/32)`. glibc selects
//!   an FMA build of it on hosts that have FMA; that build rounds two
//!   inputs of all 2³² one ulp apart from the separate multiply-and-add
//!   form. [`expf`] is the separate form on every host: a sigmoid built
//!   on it equals the one built on either build for all 2³² inputs, so
//!   the gates need no fused multiply-add (DESIGN §15).
//!
//! **Lane-wise, equal at every width by construction.** Each kernel runs
//! one lane per element, and each lane performs the scalar algorithm's
//! IEEE operations in the scalar's order. Its branches become selects:
//! every lane computes every path and keeps the one its input takes, or
//! picks the operands of an operation the paths share. Rust contracts no
//! multiply and add into an FMA and reassociates nothing, so the one
//! body compiles to the same bits for the baseline ISA, under `avx2` and
//! under `avx512f` — only the number of lanes a vector instruction holds
//! differs. [`LANES`] elements go through the body at once; a slice's
//! last partial group is padded.

use crate::matrix::Width;

/// Elements one pass of the lane body takes: one 512-bit register of
/// `f32`, two of `f64`.
const LANES: usize = 16;

/// `tanh(x)` for every element of `v`, in place: glibc 2.36's `tanhf`.
pub fn tanh_in_place(v: &mut [f32]) {
    apply(Width::detect(), v, tanh);
}

/// `1/(1+exp(−x))` for every element of `v`, in place, with glibc
/// 2.36's `expf` (its separate multiply-and-add form).
pub fn sigmoid_in_place(v: &mut [f32]) {
    apply(Width::detect(), v, sigmoid);
}

/// Runs `f` over `v` at `width`.
#[allow(unsafe_code)]
#[deny(clippy::undocumented_unsafe_blocks)]
fn apply(width: Width, v: &mut [f32], f: impl Fn(f32) -> f32 + Copy) {
    assert!(width.supported(), "{width:?} kernel on a CPU without it");
    match width {
        Width::Portable => lanes_portable(v, f),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `width.supported()` was asserted above, so the CPU has
        // the `avx2` this function is compiled for.
        Width::Avx2 => unsafe { lanes_avx2(v, f) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, for `avx512f`.
        Width::Avx512 => unsafe { lanes_avx512(v, f) },
    }
}

/// `f` over `v`, [`LANES`] elements at a time; the last partial group is
/// padded with zeros, whose results are dropped.
#[inline(always)]
fn lanes(v: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut groups = v.chunks_exact_mut(LANES);
    for group in &mut groups {
        for x in group {
            *x = f(*x);
        }
    }
    let rest = groups.into_remainder();
    if !rest.is_empty() {
        let mut pad = [0.0f32; LANES];
        pad[..rest.len()].copy_from_slice(rest);
        for x in &mut pad {
            *x = f(*x);
        }
        rest.copy_from_slice(&pad[..rest.len()]);
    }
}

/// [`lanes`] compiled for the build's baseline ISA.
#[inline(never)]
fn lanes_portable(v: &mut [f32], f: impl Fn(f32) -> f32) {
    lanes(v, f);
}

/// [`lanes`] compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lanes_avx2(v: &mut [f32], f: impl Fn(f32) -> f32) {
    lanes(v, f);
}

/// [`lanes`] compiled with 512-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lanes_avx512(v: &mut [f32], f: impl Fn(f32) -> f32) {
    lanes(v, f);
}

/// `s_tanhf.c`, branch-free.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let negative = x.to_bits() >> 31 != 0;
    let a = f32::from_bits(ix);
    // |x| ≥ 1: t = expm1f(2|x|), z = 1 − 2/(t+2).
    // |x| < 1: t = expm1f(−2|x|), z = −t/(t+2).
    let wide = ix >= 0x3f80_0000;
    let t = expm1(if wide { a + a } else { a * -2.0 });
    // The two quotients, and inf / NaN's `1/x`, are one division whose
    // operands each lane picks.
    let special = ix >= 0x7f80_0000;
    let num = if special {
        1.0
    } else if wide {
        2.0
    } else {
        -t
    };
    let q = num / if special { x } else { t + 2.0 };
    // |x| ≥ 22: `one - tiny`, which rounds to 1.
    let z = if ix >= 0x41b0_0000 {
        1.0
    } else if wide {
        1.0 - q
    } else {
        q
    };
    let z = if negative { -z } else { z };
    // |x| < 2⁻⁵⁵ (and ±0): x·(1+x).
    let z = if ix < 0x2400_0000 { (1.0 + x) * x } else { z };
    // inf or NaN: 1/x + 1, or 1/x − 1 when the sign bit is set.
    if !special {
        z
    } else if negative {
        q - 1.0
    } else {
        q + 1.0
    }
}

// `s_expm1f.c`'s constants (glibc 2.36 `libm.so.6`, 0x98db8..0x98dd8).
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `s_expm1f.c` on the arguments [`tanh`] passes: finite, and either in
/// `[2, 44)` or in `(−2, 0)`. Every other argument takes a branch (the
/// `k = 1` result, `x ≤ −27·ln2`, overflow, inf and NaN) this does not
/// port; the lanes of [`tanh`] that would pass one discard the result.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction, x = k·ln2 + (hi − lo).
    // 0.5·ln2 < |x| < 1.5·ln2 (only x < 0 here): k = −1.
    let near = hx < 0x3f85_1592;
    // Otherwise k = (int)(invln2·x ± 0.5), truncated.
    let half = if x.to_bits() >> 31 != 0 { -0.5 } else { 0.5 };
    let k_far = (INVLN2 * x + half) as i32;
    let t = k_far as f32;
    let (hi, lo, k) = if near {
        (x + LN2_HI, -LN2_LO, -1)
    } else {
        (x - t * LN2_HI, t * LN2_LO, k_far)
    };
    // |x| ≤ 0.5·ln2: no reduction, k = 0.
    let reduced = hx > 0x3eb1_7218;
    let k = if reduced { k } else { 0 };
    let xr = if reduced { hi - lo } else { x };
    let c = (hi - xr) - lo;

    // x is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    // k = 0: x − (x·e − hxs).
    let unreduced = xr - (xr * e - hxs);
    let e = (xr * (e - c) - c) - hxs;
    // k = −1: 0.5·(x − e) − 0.5.
    let minus_one = 0.5 * (xr - e) - 0.5;
    // Otherwise y carries k in its exponent. k ≤ −2 or k > 56:
    // y = 1 − (e − x), returned as y − 1. 2 ≤ k < 23: y = (1 − 2⁻ᵏ) −
    // (e − x), where 1 − 2⁻ᵏ is exact, the value of glibc's
    // `0x3f800000 − (0x1000000 >> k)`. 23 ≤ k ≤ 56: y = (x − (e + 2⁻ᵏ)) + 1.
    let outer = k <= -2 || k > 56;
    let two_to_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let y = if k < 23 || outer {
        (if outer { 1.0 } else { 1.0 - two_to_minus_k }) - (e - xr)
    } else {
        (xr - (e + two_to_minus_k)) + 1.0
    };
    let y = f32::from_bits(y.to_bits().wrapping_add((k as u32).wrapping_shl(23)));
    let scaled = if outer { y - 1.0 } else { y };
    if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵: x.
        x
    } else if k == 0 {
        unreduced
    } else if k == -1 {
        minus_one
    } else {
        scaled
    }
}

/// `1/(1+expf(−x))`.
#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + expf(-x))
}

// `e_expf.c`'s constants (glibc 2.36 `libm.so.6`: `InvLn2N`, `SHIFT` and
// `C0..C2` at 0xade60..0xade80, the table at 0xadd40).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `T[i] = asuint64(2^(i/32)) − (i << 47)`.
const EXP2F_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `e_expf.c` without fused multiply-adds: exp(x) = 2^(k/32) · 2^(r/32)
/// ≈ s·(C0·r³ + C1·r² + C2·r + 1).
#[inline(always)]
fn expf(x: f32) -> f32 {
    let xd = f64::from(x);
    // x·32/ln2 = k + r, k rounded to nearest by the 1.5·2⁵² shift.
    let z = INV_LN2_N * xd;
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let r = z - (kd - SHIFT);
    let s = f64::from_bits(EXP2F_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
    let e = (y * s) as f32;
    // |x| ≥ 88 or NaN: the special cases, each a constant of
    // `math_err.c` squared.
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop < 0x42b {
        e
    } else if x.to_bits() == 0xff80_0000 {
        0.0
    } else if abstop >= 0x7f8 {
        x + x
    } else if x > f32::from_bits(0x42b1_7217) {
        // __math_oflowf: 2⁹⁷·2⁹⁷.
        f32::INFINITY
    } else if x < f32::from_bits(0xc2cf_f1b4) {
        // __math_uflowf: 2⁻⁹⁵·2⁻⁹⁵.
        0.0
    } else if x < f32::from_bits(0xc2ce_8ecf) {
        // __math_may_uflowf: 0x1.4p−75 squared, the least subnormal.
        f32::from_bits(1)
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracles: what the standard library's calls into libm return.
    fn libm_tanh(x: f32) -> f32 {
        x.tanh()
    }

    fn libm_sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// A kernel's name, the kernel at a width (its lane body inlined
    /// into that width's build, as the public entry points run it), and
    /// its oracle.
    type Kernel = (&'static str, fn(Width, &mut [f32]), fn(f32) -> f32);

    const KERNELS: [Kernel; 2] = [
        ("tanh", |w, v| apply(w, v, tanh), libm_tanh),
        ("sigmoid", |w, v| apply(w, v, sigmoid), libm_sigmoid),
    ];

    fn widths() -> Vec<Width> {
        Width::ALL
            .iter()
            .copied()
            .filter(|w| w.supported())
            .collect()
    }

    /// Runs every kernel at every width over `xs` and checks each result
    /// against the oracle's bits.
    fn check(xs: &[f32]) {
        for width in widths() {
            for (name, kernel, oracle) in KERNELS {
                let mut got = xs.to_vec();
                kernel(width, &mut got);
                for (&x, &y) in xs.iter().zip(&got) {
                    assert_eq!(
                        y.to_bits(),
                        oracle(x).to_bits(),
                        "{name}({x:e} = {:#010x}) at {width:?}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// `count` consecutive bit patterns on each side of `bits`, both
    /// signs.
    fn around(bits: u32, count: u32) -> Vec<f32> {
        (bits.saturating_sub(count)..=bits.saturating_add(count))
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    #[test]
    fn zeros_infinities_nans_and_subnormals_match_libm() {
        let mut xs: Vec<f32> = [
            0x0000_0000,
            0x7f80_0000,
            0x7fc0_0000,
            0x7f80_0001,
            0x7fbf_ffff,
            0x7fc0_1234,
            0x7fff_ffff,
            0x0000_0001,
            0x0000_1234,
            0x007f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
        ]
        .into_iter()
        .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
        .collect();
        xs.extend(around(0, 64));
        check(&xs);
    }

    #[test]
    fn tanh_cut_offs_match_libm() {
        let mut xs = Vec::new();
        // tanhf: |x| < 2⁻⁵⁵, |x| < 1, |x| < 22.
        for bits in [0x2400_0000, 0x3f80_0000, 0x41b0_0000] {
            xs.extend(around(bits, 256));
        }
        // expm1f's cut-offs, at the x whose 2|x| lands on them: 2⁻²⁵,
        // 0.5·ln2, 1.5·ln2, 27·ln2.
        for bits in [0x3300_0000_u32, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844] {
            xs.extend(around(bits - 0x0080_0000, 256));
        }
        // Where k leaves 22 for 23 and 56 for 57: 2|x| = (k − ½)·ln2.
        for k in [23.0f32, 57.0] {
            let x = (k - 0.5) * std::f32::consts::LN_2 / 2.0;
            xs.extend(around(x.to_bits(), 4096));
        }
        check(&xs);
    }

    #[test]
    fn sigmoid_special_band_matches_libm() {
        let mut xs = Vec::new();
        // expf(−x): |−x| ≥ 88, overflow above 88.72, the underflow bands
        // below −103.28 and −103.97.
        for bits in [0x42b0_0000, 0x42b1_7217, 0x42ce_8ecf, 0x42cf_f1b4] {
            xs.extend(around(bits, 1024));
        }
        // The two inputs where glibc's FMA and non-FMA `expf` differ,
        // as sigmoid inputs: the sigmoid does not see the difference.
        xs.extend([f32::from_bits(0xc202_422f), f32::from_bits(0x427c_65d9)]);
        check(&xs);
    }

    #[test]
    fn every_slice_length_around_a_lane_group_matches_libm() {
        let mut rng = StdRng::seed_from_u64(5);
        for len in [0, 1, 15, 16, 17, 31, 33, 48] {
            let xs: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();
            check(&xs);
        }
    }

    #[test]
    fn random_rows_match_libm() {
        let mut rng = StdRng::seed_from_u64(11);
        // Gate pre-activations: mostly a few units wide, with tails.
        for scale in [0.1f32, 1.7, 12.0, 60.0] {
            let xs: Vec<f32> = (0..4096)
                .map(|_| {
                    let u: f32 = rng.gen_range(-1.0..1.0);
                    scale * u * u.abs()
                })
                .collect();
            check(&xs);
        }
    }

    #[test]
    fn the_libm_digests_hold_at_every_width() {
        // The sweep and the literals of
        // `tests/activation_characterisation.rs`, which pins libm itself.
        const TANH_DIGEST: u64 = 0xfe8c_7bdd_0e52_3897;
        const SIGMOID_DIGEST: u64 = 0xbdca_c290_3fe3_a0c1;
        const SPECIALS: [u32; 11] = [
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x7fc0_0000,
            0xffc0_0000,
            0x7f80_0001,
            0xff80_0001,
            0x7f7f_ffff,
            0xff7f_ffff,
            0x0000_0001,
            0x8000_0001,
        ];
        let xs: Vec<f32> = (0..=u32::MAX)
            .step_by(251)
            .chain(SPECIALS)
            .map(f32::from_bits)
            .collect();
        for width in widths() {
            for ((name, kernel, _), want) in KERNELS.into_iter().zip([TANH_DIGEST, SIGMOID_DIGEST])
            {
                let mut ys = xs.clone();
                kernel(width, &mut ys);
                let got = ys.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, y| {
                    y.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                });
                assert_eq!(got, want, "{name} at {width:?}: {got:#018x}");
            }
        }
    }

    /// All 2³² inputs at every width against libm; minutes in release:
    /// `cargo test --release -p tensor -- --ignored every_input`.
    #[test]
    #[ignore]
    fn every_input_matches_libm_at_every_width() {
        const BLOCK: u32 = 1 << 16;
        for (name, kernel, oracle) in KERNELS {
            let mut mismatches = 0u64;
            let (mut xs, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
            for start in (0..=u32::MAX).step_by(BLOCK as usize) {
                xs.clear();
                xs.extend((start..=start + (BLOCK - 1)).map(f32::from_bits));
                want.clear();
                want.extend(xs.iter().map(|&x| oracle(x).to_bits()));
                for width in widths() {
                    got.clear();
                    got.extend_from_slice(&xs);
                    kernel(width, &mut got);
                    for (i, (y, w)) in got.iter().zip(&want).enumerate() {
                        if y.to_bits() != *w {
                            if mismatches < 8 {
                                eprintln!(
                                    "{name}({:#010x}) at {width:?}: {:#010x}, libm {w:#010x}",
                                    start + i as u32,
                                    y.to_bits()
                                );
                            }
                            mismatches += 1;
                        }
                    }
                }
            }
            assert_eq!(mismatches, 0, "{name}: {mismatches} mismatches");
        }
    }
}
