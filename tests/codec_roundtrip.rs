//! Property proofs for the wire-codec ladder (ISSUE: bit-exact
//! round-trip on *arbitrary* payloads, not just friendly ones).
//!
//! Three laws per codec, each on the payload type it codes (`u32`
//! index lists for delta-varint, `f32` gradient rows for exp-pack):
//!
//! * **Round trip**: `decode(encode(x)) == x` bit-for-bit — exercised
//!   on arbitrary f32 *bit patterns* (NaN payloads, −0.0, subnormals,
//!   infinities — anything a gradient buffer could hold after a wild
//!   reduction) and on arbitrary u32 index lists, sorted or not,
//!   including empty and single-element payloads.
//! * **Never expand**: `encoded_len ≤ 4·n` always, and `encoded_len`
//!   always equals the actual encoded buffer length.
//! * **Total decoder**: truncating or corrupting the frame yields a
//!   typed [`simgpu::CodecError`], never a panic and never a silent
//!   wrong answer of the right length.
//!
//! The f32 round trip compares *bit patterns* (`to_bits`), because
//! NaN != NaN would make a float `==` vacuously fail the law we care
//! about. Arbitrary f32s are generated as full-range u32 bit patterns
//! reinterpreted via `from_bits`, so every NaN payload and subnormal
//! is as likely as any ordinary value.

use proptest::prelude::*;
use simgpu::{CodecError, DeltaVarintCodec, ExpPackCodec, WireCodec};

/// Encodes `data`, checks the length contract and never-expand, and
/// decodes the frame back.
fn roundtrip<T>(codec: &dyn WireCodec<T>, data: &[T]) -> Result<Vec<T>, CodecError> {
    let mut wire = Vec::new();
    codec.encode(data, &mut wire);
    assert_eq!(
        wire.len() as u64,
        codec.encoded_len(data),
        "{}: encoded_len must equal the actual frame length",
        codec.name()
    );
    assert!(
        wire.len() as u64 <= data.len() as u64 * 4,
        "{}: frame expanded past raw",
        codec.name()
    );
    let mut out = Vec::new();
    codec.decode(&wire, data.len(), &mut out)?;
    Ok(out)
}

/// Truncating `data`'s frame to `cut_seed mod len` bytes must fail.
fn truncation_errs<T>(codec: &dyn WireCodec<T>, data: &[T], cut_seed: u64) {
    let mut wire = Vec::new();
    codec.encode(data, &mut wire);
    assert!(!wire.is_empty());
    let cut = (cut_seed % wire.len() as u64) as usize;
    let mut out = Vec::new();
    assert!(
        codec.decode(&wire[..cut], data.len(), &mut out).is_err(),
        "{}: truncation to {} of {} bytes must error",
        codec.name(),
        cut,
        wire.len()
    );
}

fn as_f32_bits(bits: &[u32]) -> Vec<f32> {
    bits.iter().copied().map(f32::from_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The index codec round-trips arbitrary full-range u32 index lists
    /// byte-identically — unsorted, duplicated, empty or single-element.
    #[test]
    fn u32_roundtrip_is_bit_exact(
        data in proptest::collection::vec(0u32..=u32::MAX, 0..600),
    ) {
        let out = roundtrip(&DeltaVarintCodec, &data).expect("delta+varint rejected its own frame");
        prop_assert_eq!(&out, &data);
    }

    /// Vocabulary-bounded index lists — the distribution the exchange
    /// actually ships (small deltas, heavy duplication).
    #[test]
    fn vocab_indices_roundtrip_is_bit_exact(
        data in proptest::collection::vec(0u32..50_000, 0..600),
    ) {
        let out = roundtrip(&DeltaVarintCodec, &data).expect("delta+varint rejected its own frame");
        prop_assert_eq!(&out, &data);
    }

    /// The gradient codec round-trips arbitrary f32 *bit patterns* —
    /// NaN payloads, −0.0, subnormals, infinities — exactly.
    #[test]
    fn f32_roundtrip_is_bit_exact(
        bits in proptest::collection::vec(0u32..=u32::MAX, 0..600),
    ) {
        let data = as_f32_bits(&bits);
        let out = roundtrip(&ExpPackCodec, &data).expect("exp-pack rejected its own frame");
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&got, &bits);
    }

    /// Sorted index lists are delta+varint's home turf — it must still
    /// be exact there.
    #[test]
    fn sorted_indices_roundtrip(
        mut data in proptest::collection::vec(0u32..1_000_000, 0..600),
    ) {
        data.sort_unstable();
        let out = roundtrip(&DeltaVarintCodec, &data).expect("delta+varint rejected its own frame");
        prop_assert_eq!(&out, &data);
    }

    /// Truncating a valid frame at any strictly shorter length must
    /// produce a typed error — never a panic, never an `Ok` (a shorter
    /// frame of the *same* payload would be a silent corruption).
    #[test]
    fn truncated_frames_error_not_panic(
        data in proptest::collection::vec(0u32..=u32::MAX, 1..600),
        cut_seed in 0u64..=u64::MAX,
    ) {
        truncation_errs(&DeltaVarintCodec, &data, cut_seed);
    }

    /// Same law for the gradient codec's f32 frames.
    #[test]
    fn truncated_f32_frames_error_not_panic(
        bits in proptest::collection::vec(0u32..=u32::MAX, 1..600),
        cut_seed in 0u64..=u64::MAX,
    ) {
        truncation_errs(&ExpPackCodec, &as_f32_bits(&bits), cut_seed);
    }

    /// Feeding *arbitrary garbage* to the decoders must never panic:
    /// either a typed error, or — when the garbage happens to parse —
    /// exactly `n` decoded elements.
    #[test]
    fn arbitrary_bytes_never_panic_decoders(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..300),
        n in 0usize..128,
    ) {
        let mut out_u = Vec::new();
        if DeltaVarintCodec.decode(&bytes, n, &mut out_u).is_ok() {
            prop_assert_eq!(out_u.len(), n, "delta-varint decode length");
        }
        let mut out_f = Vec::new();
        if ExpPackCodec.decode(&bytes, n, &mut out_f).is_ok() {
            prop_assert_eq!(out_f.len(), n, "exp-pack decode length");
        }
    }
}

/// Directed edge cases the strategies above hit only probabilistically.
#[test]
fn directed_hostile_payloads_roundtrip() {
    let hostile_f32 = [
        f32::from_bits(0x7fc0_dead), // quiet NaN with payload
        f32::from_bits(0xffc0_0001), // negative NaN
        f32::from_bits(0x7f80_0000), // +inf
        f32::from_bits(0xff80_0000), // −inf
        -0.0f32,
        0.0f32,
        f32::from_bits(1),           // smallest subnormal
        f32::from_bits(0x8000_0001), // smallest negative subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
    ];
    let hostile_u32 = [u32::MAX, 0, u32::MAX, 1, u32::MAX - 1, 0];
    let f = roundtrip(&ExpPackCodec, &hostile_f32).unwrap();
    assert_eq!(
        f.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        hostile_f32.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "exp-pack hostile f32"
    );
    let u = roundtrip(&DeltaVarintCodec, &hostile_u32).unwrap();
    assert_eq!(u, hostile_u32, "delta-varint hostile u32");
    // Empty and single-element payloads.
    assert_eq!(
        roundtrip(&DeltaVarintCodec, &[]).unwrap(),
        Vec::<u32>::new()
    );
    assert_eq!(roundtrip(&DeltaVarintCodec, &[7]).unwrap(), vec![7]);
    assert!(roundtrip(&ExpPackCodec, &[]).unwrap().is_empty());
    assert_eq!(
        roundtrip(&ExpPackCodec, &[-0.0]).unwrap()[0].to_bits(),
        (-0.0f32).to_bits()
    );
}
