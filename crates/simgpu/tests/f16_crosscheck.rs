//! Exhaustive bit-for-bit agreement between `simgpu`'s binary16
//! converters (duplicated to keep the substrate dependency-acyclic) and
//! `tensor::F16`, the reference implementation. Any drift between the
//! two would silently change what the compressed collectives put on the
//! wire versus what the accuracy experiments model.
//!
//! The second half pins `simgpu::quantize_f16` — the fused round trip
//! the FP16 ALLREDUCE runs per element per hop — to `decode∘encode` of
//! those converters, bit for bit: on every neighbourhood where a
//! rounding decision can flip in tier-1, and on all 2³² inputs in the
//! `#[ignore]`d sweep CI runs in release.

use simgpu::{f16_bits_to_f32, f32_to_f16_bits, quantize_f16};
use tensor::F16;

#[test]
fn f16_to_f32_agrees_for_every_bit_pattern() {
    for bits in 0u16..=0xffff {
        let ours = f16_bits_to_f32(bits);
        let reference = F16(bits).to_f32();
        assert_eq!(
            ours.to_bits(),
            reference.to_bits(),
            "bits {bits:#06x}: simgpu {ours} vs tensor {reference}"
        );
    }
}

#[test]
fn f32_to_f16_agrees_on_every_half_value_and_neighbours() {
    // Every binary16 value, exactly representable in f32, plus the f32
    // immediately below and above it — the neighbourhoods where rounding
    // decisions (round-to-nearest-even, carry into exponent, subnormal
    // shift) can diverge.
    for bits in 0u16..=0xffff {
        let x = F16(bits).to_f32();
        for probe in [x, f32_next_down(x), f32_next_up(x)] {
            assert_eq!(
                f32_to_f16_bits(probe),
                F16::from_f32(probe).0,
                "probe {probe:e} (from bits {bits:#06x})"
            );
        }
    }
}

#[test]
fn f32_to_f16_agrees_on_halfway_points() {
    // Midpoints between consecutive finite binary16 values are the
    // round-to-nearest-even tie cases; check the tie and both sides.
    for bits in 0u16..0x7bff {
        let lo = F16(bits);
        if lo.is_nan() || lo.is_infinite() {
            continue;
        }
        let hi = F16(bits + 1);
        if hi.is_nan() || hi.is_infinite() {
            continue;
        }
        let mid = (lo.to_f32() as f64 + hi.to_f32() as f64) / 2.0;
        let mid = mid as f32;
        for probe in [mid, f32_next_down(mid), f32_next_up(mid)] {
            assert_eq!(
                f32_to_f16_bits(probe),
                F16::from_f32(probe).0,
                "midpoint probe {probe:e} between {bits:#06x} and {:#06x}",
                bits + 1
            );
        }
    }
}

#[test]
fn f32_to_f16_agrees_on_specials_and_deterministic_sweep() {
    let specials = [
        0.0f32,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        65504.0,
        65505.0,
        65520.0, // first f32 that rounds to f16 infinity
        6.103_515_6e-5,
        5.96e-8,
        1e-8,
    ];
    for &x in &specials {
        assert_eq!(f32_to_f16_bits(x), F16::from_f32(x).0, "special {x:e}");
    }
    // SplitMix64-driven sweep over arbitrary f32 bit patterns.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..1_000_000 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let x = f32::from_bits((z ^ (z >> 31)) as u32);
        assert_eq!(
            f32_to_f16_bits(x),
            F16::from_f32(x).0,
            "sweep value {x:e} ({:#010x})",
            x.to_bits()
        );
    }
}

/// `quantize_f16` against the two-step reference at one bit pattern.
fn quantize_matches(bits: u32) -> bool {
    let x = f32::from_bits(bits);
    quantize_f16(x).to_bits() == f16_bits_to_f32(f32_to_f16_bits(x)).to_bits()
}

#[track_caller]
fn assert_quantize_matches(x: f32) {
    assert!(
        quantize_matches(x.to_bits()),
        "{x:e} ({:#010x}): fused {:#010x} vs reference {:#010x}",
        x.to_bits(),
        quantize_f16(x).to_bits(),
        f16_bits_to_f32(f32_to_f16_bits(x)).to_bits()
    );
}

/// `x` and the two f32 values on either side of it.
fn within_two_ulps(x: f32) -> [f32; 5] {
    let (d1, u1) = (f32_next_down(x), f32_next_up(x));
    [f32_next_down(d1), d1, x, u1, f32_next_up(u1)]
}

#[test]
fn quantize_agrees_on_every_half_value_and_neighbours() {
    for bits in 0u16..=0xffff {
        for probe in within_two_ulps(F16(bits).to_f32()) {
            assert_quantize_matches(probe);
        }
    }
}

#[test]
fn quantize_agrees_on_halfway_points() {
    // Every tie between consecutive finite binary16 values of either
    // sign, and the last one: 65 520, halfway to the 2¹⁶ binary16 lacks.
    for bits in (0u16..0x7bff).chain(0x8000..0xfbff) {
        let mid = (F16(bits).to_f32() as f64 + F16(bits + 1).to_f32() as f64) / 2.0;
        let mid = mid as f32;
        for probe in [mid, f32_next_down(mid), f32_next_up(mid)] {
            assert_quantize_matches(probe);
        }
    }
    for probe in within_two_ulps(65520.0) {
        assert_quantize_matches(probe);
        assert_quantize_matches(-probe);
    }
}

#[test]
fn quantize_agrees_on_specials_and_strided_sweep() {
    let specials = [
        0.0f32,
        f32::INFINITY,
        f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN, smallest payload
        f32::from_bits(0x7fbf_ffff), // signalling NaN, largest payload
        f32::from_bits(0x7fff_ffff), // quiet NaN, every payload bit set
        f32::from_bits(0x0000_0001), // smallest f32 subnormal
        f32::from_bits(0x007f_ffff), // largest f32 subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
        65504.0,  // largest finite binary16
        65519.99, // still rounds down to it
        65520.0,  // first value that rounds to infinity
        65536.0,
        6.103_515_6e-5, // 2⁻¹⁴, smallest normal binary16
        5.960_464_5e-8, // 2⁻²⁴, smallest subnormal binary16
        2.980_232_2e-8, // 2⁻²⁵, the tie that rounds to zero
        1e-8,
    ];
    for &x in &specials {
        for probe in within_two_ulps(x) {
            assert_quantize_matches(probe);
            assert_quantize_matches(-probe);
        }
    }
    for bits in (0..=u32::MAX).step_by(257) {
        assert_quantize_matches(f32::from_bits(bits));
    }
}

/// All 2³² bit patterns. About 25 s in release; CI runs it with
/// `--include-ignored` beside `compression_scaling`.
#[test]
#[ignore = "exhaustive: all 2^32 f32 bit patterns"]
fn quantize_agrees_on_all_f32_bit_patterns() {
    let t0 = std::time::Instant::now();
    let mismatches = (0..=u32::MAX).filter(|&b| !quantize_matches(b)).count();
    println!(
        "quantize_f16 vs decode∘encode: {mismatches} mismatches over 2^32 inputs in {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(mismatches, 0);
}

/// Largest f32 strictly below `x` (next_down, stable-Rust substitute).
fn f32_next_down(x: f32) -> f32 {
    if x.is_nan() || x == f32::NEG_INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x == 0.0 {
        0x8000_0001 // -min_subnormal (covers both +0.0 and -0.0)
    } else if bits >> 31 == 0 {
        bits - 1
    } else {
        bits + 1
    };
    f32::from_bits(next)
}

/// Smallest f32 strictly above `x`.
fn f32_next_up(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    let bits = x.to_bits();
    let next = if x == 0.0 {
        0x0000_0001
    } else if bits >> 31 == 0 {
        bits + 1
    } else {
        bits - 1
    };
    f32::from_bits(next)
}
