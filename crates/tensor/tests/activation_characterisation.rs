//! One literal each over the bits of the two gate nonlinearities the
//! recurrent layers compute: `tanh` and the logistic sigmoid
//! `1/(1+exp(−x))`, as `f32::tanh` and `f32::exp` compute them here —
//! glibc 2.36's `tanhf` (Sun's, through `expm1f`) and `expf` (Arm's
//! optimized-routines algorithm).
//!
//! Every loss, byte and golden of the workspace passes through these
//! roundings, so this is a dependency every golden has always had: a libm
//! that rounds one input differently fails here first. The sweep takes
//! every 251st bit pattern of all 2³² — finite values of both signs,
//! subnormals, and NaNs with their sign and payload — plus the
//! patterns a stride misses: ±0, ±inf, quiet and signalling NaNs and the
//! extremes of the finite range. A NaN result is folded as its exact
//! bits, since the sign and payload a NaN input comes back with are part
//! of what the functions compute.
//!
//! Raw `expf` is not pinned: which `expf` a process runs depends on
//! whether the host has FMA (glibc picks it at load time), and the two
//! variants round two inputs of all 2³² apart. Neither input moves the
//! sigmoid.

/// FNV-1a over the little-endian bytes of `f(x)` for `x` in [`sweep`].
const TANH_DIGEST: u64 = 0xfe8c_7bdd_0e52_3897;
/// The same digest of `1/(1+exp(−x))`.
const SIGMOID_DIGEST: u64 = 0xbdca_c290_3fe3_a0c1;

/// Distance between two swept bit patterns: a prime, so the sweep is
/// aligned to no field of the format and meets every exponent and sign.
const STRIDE: usize = 251;

/// Bit patterns the stride does not reach (it starts at +0).
const SPECIALS: [u32; 11] = [
    0x8000_0000, // −0
    0x7f80_0000, // +inf
    0xff80_0000, // −inf
    0x7fc0_0000, // quiet NaN
    0xffc0_0000, // quiet NaN, negative
    0x7f80_0001, // signalling NaN, smallest payload
    0xff80_0001,
    0x7f7f_ffff, // largest finite
    0xff7f_ffff,
    0x0000_0001, // smallest subnormal
    0x8000_0001,
];

fn sweep() -> impl Iterator<Item = f32> {
    (0..=u32::MAX)
        .step_by(STRIDE)
        .chain(SPECIALS)
        .map(f32::from_bits)
}

fn digest(f: impl Fn(f32) -> f32) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    sweep().fold(FNV_OFFSET, |h, x| {
        f(x).to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    })
}

#[test]
fn libm_tanh_is_glibc_2_36s() {
    let d = digest(f32::tanh);
    assert_eq!(d, TANH_DIGEST, "{d:#018x}");
}

#[test]
fn libm_sigmoid_is_glibc_2_36s() {
    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    let d = digest(sigmoid);
    assert_eq!(d, SIGMOID_DIGEST, "{d:#018x}");
}
