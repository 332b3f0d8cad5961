//! Bit oracle for the two lossless wire codecs. One FNV-1a hash folds,
//! for every fixed payload below:
//!
//! * the codec's `encoded_len` of it;
//! * the encoded frame, length and every byte;
//! * the decoded round trip, value by value (`f32` as its bits).
//!
//! Delta-varint codes `u32` index lists: empty, one element, sorted,
//! unsorted, repeated Zipf-like runs, `0 ↔ u32::MAX` jumps, and deltas
//! whose varints pack to exactly the raw length. Exp-pack codes `f32`
//! gradient rows: ±0.0, NaN payloads, subnormals, one exponent, a few
//! exponents, all 256 exponents, and every length in 0..=40 under one,
//! two, three, five and seventeen exponents, on both sides of the
//! never-expand fallback.
//!
//! A change to either codec's framing, length or decoder either leaves
//! the literal alone or fails here, whichever payload it moved.

use simgpu::{DeltaVarintCodec, ExpPackCodec, WireCodec};

/// 64-bit FNV-1a over the little-endian bytes of each folded word.
struct Fnv(u64);

impl Fnv {
    fn byte(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn frame(&mut self, frame: &[u8]) {
        self.fold(frame.len() as u64);
        for &byte in frame {
            self.byte(byte);
        }
    }
}

/// SplitMix64: a fixed stream, so the payloads are the same on every run.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn index_payloads() -> Vec<Vec<u32>> {
    let mut s = Stream(0x1d3a);
    let sorted: Vec<u32> = (0..300u32).map(|i| i * 7 + i % 3).collect();
    let unsorted: Vec<u32> = (0..300).map(|_| s.below(50_000) as u32).collect();
    // Zipf-like: rank ~ V / (u·V + 1) puts most draws on the head.
    let zipf_run: Vec<u32> = (0..120)
        .map(|_| (50_000 / (s.below(50_000) + 1)) as u32)
        .collect();
    let zipf_runs: Vec<u32> = zipf_run
        .iter()
        .cycle()
        .take(3 * zipf_run.len())
        .copied()
        .collect();
    let jumps: Vec<u32> = (0..40)
        .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
        .collect();
    // Deltas of 2^20 zigzag to 2^21: four varint bytes each, exactly raw.
    let four_byte: Vec<u32> = (0..64u32).map(|i| i << 20).collect();
    let mut mixed = sorted.clone();
    mixed.extend_from_slice(&[u32::MAX, 0, 1, u32::MAX - 1, 5]);
    vec![
        vec![],
        vec![0],
        vec![7],
        vec![u32::MAX],
        sorted,
        unsorted,
        zipf_run,
        zipf_runs,
        jumps,
        four_byte,
        mixed,
        vec![42; 50],
    ]
}

/// `n` values whose exponent bytes cycle through `exps`, with arbitrary
/// sign and mantissa bits.
fn with_exponents(s: &mut Stream, exps: &[u32], n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let sign_mantissa = s.next() as u32 & 0x807f_ffff;
            f32::from_bits(sign_mantissa | (exps[i % exps.len()] << 23))
        })
        .collect()
}

fn grad_payloads() -> Vec<Vec<f32>> {
    let mut s = Stream(0x5eed);
    let mut out = vec![
        vec![],
        vec![0.0],
        vec![-0.0],
        vec![0.0, -0.0, 0.0, -0.0],
        vec![
            f32::NAN,
            f32::from_bits(0x7fc0_dead),
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0x7f80_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ],
        (1..=48u32)
            .map(|i| f32::from_bits((i * 0x1_0203) | ((i & 1) << 31)))
            .collect(),
        vec![
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            1.0e-3,
            -2.5e8,
            f32::MAX,
        ],
        with_exponents(&mut s, &[127], 64),
        with_exponents(&mut s, &[120, 121, 122, 125], 200),
        with_exponents(&mut s, &(0..256).collect::<Vec<_>>(), 512),
        with_exponents(&mut s, &(0..255).collect::<Vec<_>>(), 1024),
        (0..512).map(|i| (i as f32 - 256.0) * 1.0e-3).collect(),
    ];
    for exps in [
        &[127][..],
        &[0, 255],
        &[100, 101, 102],
        &[1, 60, 61, 62, 200],
    ] {
        for n in 0..=40 {
            out.push(with_exponents(&mut s, exps, n));
        }
    }
    let seventeen: Vec<u32> = (110..127).collect();
    for n in 0..=40 {
        out.push(with_exponents(&mut s, &seventeen, n));
    }
    out
}

#[test]
fn codec_frames_are_the_literal() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for data in index_payloads() {
        let len = DeltaVarintCodec.encoded_len(&data);
        let mut frame = Vec::new();
        DeltaVarintCodec.encode(&data, &mut frame);
        assert_eq!(frame.len() as u64, len, "delta-varint len contract");
        let mut back = Vec::new();
        DeltaVarintCodec
            .decode(&frame, data.len(), &mut back)
            .expect("delta-varint decodes its own frame");
        assert_eq!(back, data, "delta-varint round trip");
        h.fold(len);
        h.frame(&frame);
        back.iter().for_each(|&v| h.fold(u64::from(v)));
    }
    for data in grad_payloads() {
        let len = ExpPackCodec.encoded_len(&data);
        let mut frame = Vec::new();
        ExpPackCodec.encode(&data, &mut frame);
        assert_eq!(frame.len() as u64, len, "exp-pack len contract");
        let mut back = Vec::new();
        ExpPackCodec
            .decode(&frame, data.len(), &mut back)
            .expect("exp-pack decodes its own frame");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&data), "exp-pack round trip");
        h.fold(len);
        h.frame(&frame);
        back.iter().for_each(|v| h.fold(u64::from(v.to_bits())));
    }
    assert_eq!(
        h.0, 0xe3da_ef7c_702f_ecb2,
        "codec frames moved: 0x{:016x}",
        h.0
    );
}
