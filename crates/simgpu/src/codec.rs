//! Pluggable wire codecs for collective payloads.
//!
//! The paper stops its exchange-volume reduction at FP32→FP16
//! compression-scaling (§III-C). ZipCCL-style stacks go one step
//! further: *lossless* compression of collective payloads, exploiting
//! the low-entropy exponent distribution of gradient values and the
//! small deltas of gathered index lists. This module provides that
//! ladder as a [`WireCodec`] trait plus three rungs (the paper's own
//! lossy FP16 rung is not one: training reaches it through
//! `Method::compression`, which owns the loss-scaling story):
//!
//! * [`IdentityCodec`] — raw little-endian bytes, the baseline.
//! * [`DeltaVarintCodec`] — lossless index codec: zigzag deltas between
//!   consecutive `u32` values, LEB128 varint-coded. Gathered unique
//!   index lists are near-sorted with small vocab-bounded gaps, so most
//!   deltas fit one byte.
//! * [`ExpPackCodec`] — lossless gradient codec: the distinct exponent
//!   bytes of an `f32` payload form a small dictionary; each value is
//!   stored as a dictionary index plus its raw 24-bit sign+mantissa
//!   field (bitplane packing of the exponent plane).
//!
//! # Never-expand framing
//!
//! Every codec guarantees `encoded_len ≤ 4·n` for an `n`-element
//! payload: the encoder computes the packed form and falls back to raw
//! little-endian bytes (exactly `4·n`) whenever packing would not win.
//! Decoders disambiguate by length — an emitted packed form is always
//! strictly shorter than raw, so `len == 4·n` *is* the raw marker. This
//! is what lets every codec-framed collective promise "compressed bytes
//! ≤ identity bytes" unconditionally.
//!
//! # Bit-exactness contract
//!
//! Lossless codecs round-trip **bit**-identically: arbitrary `u32`
//! values and arbitrary `f32` bit patterns — NaN payloads, −0.0,
//! subnormals — survive encode→decode exactly (`tests/codec_roundtrip.rs`
//! proves this by proptest). Training with a lossless codec is therefore
//! bit-identical to the identity codec in losses, parameters and
//! checkpoints; only wire bytes and simulated time change.
//!
//! Decoders never panic on truncated or corrupt input: every failure is
//! a typed [`CodecError`].

use std::fmt;

/// Decode-side failure. Decoders return these instead of panicking on
/// malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the declared element count was decoded.
    Truncated,
    /// Input is structurally invalid for the declared element count.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded payload truncated"),
            CodecError::Corrupt(detail) => write!(f, "encoded payload corrupt: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A wire codec: how a collective payload is turned into bytes on the
/// interconnect. Implementations must uphold two contracts:
///
/// * `encoded_len_*` equals the exact byte length `encode_*` produces
///   for the same payload (it is the analytic charging function used by
///   the collectives' returned bytes and the cost model).
/// * `encoded_len_*` never exceeds `4 · payload.len()` (never-expand).
///
/// Decoders take the element count out of band — the receiver of a
/// collective always knows how many elements to expect from the
/// collective's metadata, which (like rendezvous metadata generally) is
/// not charged as wire bytes. Decoded values are **appended** to `out`.
pub trait WireCodec: Sync {
    /// Stable short name used in errors, traces and bench artifacts.
    fn name(&self) -> &'static str;

    /// Exact encoded size of `data` in bytes, without encoding.
    fn encoded_len_u32(&self, data: &[u32]) -> u64;
    fn encode_u32(&self, data: &[u32], out: &mut Vec<u8>);
    fn decode_u32(&self, bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError>;

    /// Exact encoded size of `data` in bytes, without encoding.
    fn encoded_len_f32(&self, data: &[f32]) -> u64;
    fn encode_f32(&self, data: &[f32], out: &mut Vec<u8>);
    fn decode_f32(&self, bytes: &[u8], n: usize, out: &mut Vec<f32>) -> Result<(), CodecError>;

    /// Modelled encode/decode throughput in raw payload bytes per
    /// second, for the cost model's volume-vs-compute tradeoff. The
    /// identity codec reports infinity (zero codec time).
    fn throughput_bps(&self) -> f64;
}

/// Modelled throughput of [`DeltaVarintCodec`] (raw payload bytes/s).
pub const DELTA_VARINT_BPS: f64 = 16.0e9;
/// Modelled throughput of [`ExpPackCodec`] (raw payload bytes/s).
pub const EXP_PACK_BPS: f64 = 12.0e9;

/// Static codec instances, so call sites can hold `&'static dyn WireCodec`.
pub static IDENTITY: IdentityCodec = IdentityCodec;
pub static DELTA_VARINT: DeltaVarintCodec = DeltaVarintCodec;
pub static EXP_PACK: ExpPackCodec = ExpPackCodec;

/// Which wire codec a run uses, as carried by `CommConfig::codec`.
/// Only the identity and the *lossless* rungs are selectable: the lossy
/// FP16 rung stays expressed through `Method::compression` exactly as
/// before, and composes with the index codec (indices are `u32` either
/// way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodecId {
    /// Raw bytes on the wire (the seed behaviour).
    #[default]
    Identity,
    /// Delta+varint the ALLGATHERed unique-index lists; gradients raw.
    LosslessIndex,
    /// Exponent-pack the gradient ALLREDUCE payloads; indices raw.
    LosslessGrad,
    /// Both lossless rungs at once.
    Lossless,
}

impl WireCodecId {
    /// Codec applied to `u32` index ALLGATHERs, if any.
    pub fn index_codec(self) -> Option<&'static dyn WireCodec> {
        match self {
            WireCodecId::LosslessIndex | WireCodecId::Lossless => Some(&DELTA_VARINT),
            _ => None,
        }
    }

    /// Codec applied to `f32` gradient ALLREDUCEs, if any. Callers must
    /// still give `Method::compression` precedence: an FP16 wire is
    /// already 2 bytes/element and owns its own accounting.
    pub fn grad_codec(self) -> Option<&'static dyn WireCodec> {
        match self {
            WireCodecId::LosslessGrad | WireCodecId::Lossless => Some(&EXP_PACK),
            _ => None,
        }
    }

    /// Stable name used in bench artifacts and docs.
    pub fn name(self) -> &'static str {
        match self {
            WireCodecId::Identity => "identity",
            WireCodecId::LosslessIndex => "lossless-index",
            WireCodecId::LosslessGrad => "lossless-grad",
            WireCodecId::Lossless => "lossless",
        }
    }

    /// The two lossless rungs plus their composition — every selectable
    /// codec that must be bit-exact (test/bench sweep helper).
    pub fn lossless_ladder() -> [WireCodecId; 3] {
        [
            WireCodecId::LosslessIndex,
            WireCodecId::LosslessGrad,
            WireCodecId::Lossless,
        ]
    }
}

// ---------------------------------------------------------------------------
// Raw little-endian helpers (the shared fallback framing).

fn encode_raw_u32(data: &[u32], out: &mut Vec<u8>) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn decode_raw_u32(bytes: &[u8], out: &mut Vec<u32>) {
    out.reserve(bytes.len() / 4);
    for c in bytes.chunks_exact(4) {
        out.push(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
}

fn encode_raw_f32(data: &[f32], out: &mut Vec<u8>) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn decode_raw_f32(bytes: &[u8], out: &mut Vec<f32>) {
    out.reserve(bytes.len() / 4);
    for c in bytes.chunks_exact(4) {
        out.push(f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
    }
}

// ---------------------------------------------------------------------------
// Identity

/// Raw little-endian bytes: 4 bytes per element, zero codec time.
pub struct IdentityCodec;

impl WireCodec for IdentityCodec {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn encoded_len_u32(&self, data: &[u32]) -> u64 {
        data.len() as u64 * 4
    }

    fn encode_u32(&self, data: &[u32], out: &mut Vec<u8>) {
        encode_raw_u32(data, out);
    }

    fn decode_u32(&self, bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        if bytes.len() != n * 4 {
            return Err(if bytes.len() < n * 4 {
                CodecError::Truncated
            } else {
                CodecError::Corrupt("trailing bytes after raw u32 payload")
            });
        }
        decode_raw_u32(bytes, out);
        Ok(())
    }

    fn encoded_len_f32(&self, data: &[f32]) -> u64 {
        data.len() as u64 * 4
    }

    fn encode_f32(&self, data: &[f32], out: &mut Vec<u8>) {
        encode_raw_f32(data, out);
    }

    fn decode_f32(&self, bytes: &[u8], n: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        if bytes.len() != n * 4 {
            return Err(if bytes.len() < n * 4 {
                CodecError::Truncated
            } else {
                CodecError::Corrupt("trailing bytes after raw f32 payload")
            });
        }
        decode_raw_f32(bytes, out);
        Ok(())
    }

    fn throughput_bps(&self) -> f64 {
        f64::INFINITY
    }
}

// ---------------------------------------------------------------------------
// Delta + varint (lossless index codec)

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn varint_len(mut z: u64) -> u64 {
    let mut len = 1;
    while z >= 0x80 {
        z >>= 7;
        len += 1;
    }
    len
}

fn push_varint(mut z: u64, out: &mut Vec<u8>) {
    while z >= 0x80 {
        out.push((z & 0x7f) as u8 | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut z = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(CodecError::Corrupt("varint overflows 64 bits"));
        }
        z |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(z);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Exact packed (pre-fallback) delta+varint size of `data` in bytes.
fn delta_varint_packed_len(data: &[u32]) -> u64 {
    let mut prev = 0i64;
    let mut len = 0u64;
    for &v in data {
        len += varint_len(zigzag(i64::from(v) - prev));
        prev = i64::from(v);
    }
    len
}

/// Analytic encoded size of `data` under [`DeltaVarintCodec`], with the
/// never-expand raw fallback applied. Exported so tests and the
/// exchange layer can predict a collective's charge without encoding.
pub fn delta_varint_len(data: &[u32]) -> u64 {
    delta_varint_packed_len(data).min(data.len() as u64 * 4)
}

/// Lossless `u32` index codec: consecutive deltas (signed, so unsorted
/// lists still round-trip), zigzag-mapped and LEB128 varint-coded, with
/// the raw fallback whenever packing would not be strictly smaller.
/// `f32` payloads pass through raw — this rung compresses index lists
/// only.
pub struct DeltaVarintCodec;

impl WireCodec for DeltaVarintCodec {
    fn name(&self) -> &'static str {
        "delta-varint"
    }

    fn encoded_len_u32(&self, data: &[u32]) -> u64 {
        delta_varint_len(data)
    }

    fn encode_u32(&self, data: &[u32], out: &mut Vec<u8>) {
        let raw = data.len() as u64 * 4;
        if delta_varint_packed_len(data) >= raw {
            encode_raw_u32(data, out);
            return;
        }
        let mut prev = 0i64;
        for &v in data {
            push_varint(zigzag(i64::from(v) - prev), out);
            prev = i64::from(v);
        }
    }

    fn decode_u32(&self, bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        if bytes.len() == n * 4 {
            decode_raw_u32(bytes, out);
            return Ok(());
        }
        let mut pos = 0usize;
        let mut prev = 0i64;
        out.reserve(n);
        for _ in 0..n {
            let v = prev
                .checked_add(unzigzag(read_varint(bytes, &mut pos)?))
                .ok_or(CodecError::Corrupt("delta sequence overflows"))?;
            if v < 0 || v > i64::from(u32::MAX) {
                return Err(CodecError::Corrupt("delta sequence leaves u32 range"));
            }
            out.push(v as u32);
            prev = v;
        }
        if pos != bytes.len() {
            return Err(CodecError::Corrupt("trailing bytes after delta payload"));
        }
        Ok(())
    }

    fn encoded_len_f32(&self, data: &[f32]) -> u64 {
        data.len() as u64 * 4
    }

    fn encode_f32(&self, data: &[f32], out: &mut Vec<u8>) {
        encode_raw_f32(data, out);
    }

    fn decode_f32(&self, bytes: &[u8], n: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        IDENTITY.decode_f32(bytes, n, out)
    }

    fn throughput_bps(&self) -> f64 {
        DELTA_VARINT_BPS
    }
}

// ---------------------------------------------------------------------------
// Exponent pack (lossless gradient codec)

fn exp_index_bits(k: usize) -> u32 {
    if k <= 1 {
        0
    } else {
        usize::BITS - (k - 1).leading_zeros()
    }
}

/// Distinct exponent bytes of `data`, ascending. Returns `None` when
/// all 256 exponents occur (the dictionary index no longer fits `u8`
/// and packing cannot win anyway).
fn exp_dictionary(data: &[f32]) -> Option<Vec<u8>> {
    let mut seen = [false; 256];
    for v in data {
        seen[(v.to_bits() >> 23 & 0xff) as usize] = true;
    }
    let dict: Vec<u8> = (0u16..256)
        .filter(|&e| seen[e as usize])
        .map(|e| e as u8)
        .collect();
    if dict.len() == 256 {
        None
    } else {
        Some(dict)
    }
}

fn exp_packed_len(n: usize, k: usize) -> u64 {
    let b = u64::from(exp_index_bits(k));
    1 + k as u64 + (n as u64 * b).div_ceil(8) + 3 * n as u64
}

/// Analytic encoded size of `data` under [`ExpPackCodec`], with the
/// never-expand raw fallback applied. Exported so tests and the
/// exchange layer can predict a collective's charge without encoding.
pub fn exp_pack_len(data: &[f32]) -> u64 {
    let raw = data.len() as u64 * 4;
    match exp_dictionary(data) {
        Some(dict) => exp_packed_len(data.len(), dict.len()).min(raw),
        None => raw,
    }
}

/// LSB-first bit writer over a byte vector.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    bits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            bits: 0,
        }
    }

    fn push(&mut self, value: u64, width: u32) {
        self.acc |= value << self.bits;
        self.bits += width;
        while self.bits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.bits -= 8;
        }
    }

    fn finish(self) {
        if self.bits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
    }
}

/// LSB-first bit reader over a byte slice.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    bits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            bits: 0,
        }
    }

    fn read(&mut self, width: u32) -> Result<u64, CodecError> {
        while self.bits < width {
            let b = *self.bytes.get(self.pos).ok_or(CodecError::Truncated)?;
            self.pos += 1;
            self.acc |= u64::from(b) << self.bits;
            self.bits += 8;
        }
        let v = self.acc & ((1u64 << width) - 1);
        self.acc >>= width;
        self.bits -= width;
        Ok(v)
    }
}

/// Lossless `f32` gradient codec: bitplane-packs the exponent plane.
///
/// Packed layout (all fields LSB-first, little-endian):
///
/// ```text
/// [k: u8]                      distinct exponent count, 1 ≤ k ≤ 255
/// [dict: k bytes]              the exponent bytes, strictly ascending
/// [idx: ceil(n·b/8) bytes]     per-value dictionary index, b = ⌈log2 k⌉
/// [tail: 3·n bytes]            per-value (sign << 23) | mantissa
/// ```
///
/// Gradient payloads cluster in a few dozen exponents, so `b` ≈ 4–6
/// bits and the packed size ≈ (25+b)/32 of raw. Exact round-trip of
/// every `f32` bit pattern — sign, NaN payload, subnormal mantissa —
/// because the sign+mantissa field is stored verbatim. `u32` payloads
/// pass through raw — this rung compresses gradient rows only.
pub struct ExpPackCodec;

impl WireCodec for ExpPackCodec {
    fn name(&self) -> &'static str {
        "exp-pack"
    }

    fn encoded_len_u32(&self, data: &[u32]) -> u64 {
        data.len() as u64 * 4
    }

    fn encode_u32(&self, data: &[u32], out: &mut Vec<u8>) {
        encode_raw_u32(data, out);
    }

    fn decode_u32(&self, bytes: &[u8], n: usize, out: &mut Vec<u32>) -> Result<(), CodecError> {
        IDENTITY.decode_u32(bytes, n, out)
    }

    fn encoded_len_f32(&self, data: &[f32]) -> u64 {
        exp_pack_len(data)
    }

    fn encode_f32(&self, data: &[f32], out: &mut Vec<u8>) {
        let n = data.len();
        let raw = n as u64 * 4;
        let dict = match exp_dictionary(data) {
            Some(dict) if exp_packed_len(n, dict.len()) < raw => dict,
            _ => {
                encode_raw_f32(data, out);
                return;
            }
        };
        let k = dict.len();
        let b = exp_index_bits(k);
        let mut slot = [0u8; 256];
        for (i, &e) in dict.iter().enumerate() {
            slot[e as usize] = i as u8;
        }
        out.reserve(exp_packed_len(n, k) as usize);
        out.push(k as u8);
        out.extend_from_slice(&dict);
        let mut bw = BitWriter::new(out);
        for v in data {
            bw.push(u64::from(slot[(v.to_bits() >> 23 & 0xff) as usize]), b);
        }
        bw.finish();
        for v in data {
            let bits = v.to_bits();
            let field = (bits >> 31 << 23) | (bits & 0x7f_ffff);
            out.extend_from_slice(&field.to_le_bytes()[..3]);
        }
    }

    fn decode_f32(&self, bytes: &[u8], n: usize, out: &mut Vec<f32>) -> Result<(), CodecError> {
        if bytes.len() == n * 4 {
            decode_raw_f32(bytes, out);
            return Ok(());
        }
        let &k = bytes.first().ok_or(CodecError::Truncated)?;
        let k = k as usize;
        if k == 0 {
            return Err(CodecError::Corrupt("empty exponent dictionary"));
        }
        let dict = bytes.get(1..1 + k).ok_or(CodecError::Truncated)?;
        if !dict.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Corrupt("exponent dictionary not ascending"));
        }
        let b = exp_index_bits(k);
        let idx_bytes = (n as u64 * u64::from(b)).div_ceil(8) as usize;
        let idx_end = 1 + k + idx_bytes;
        let total = idx_end + 3 * n;
        if bytes.len() < total {
            return Err(CodecError::Truncated);
        }
        if bytes.len() > total {
            return Err(CodecError::Corrupt("trailing bytes after exp-pack payload"));
        }
        let mut br = BitReader::new(&bytes[1 + k..idx_end]);
        out.reserve(n);
        for t in bytes[idx_end..].chunks_exact(3) {
            let code = if b == 0 { 0 } else { br.read(b)? as usize };
            if code >= k {
                return Err(CodecError::Corrupt("exponent index out of dictionary"));
            }
            let field = u32::from_le_bytes([t[0], t[1], t[2], 0]);
            let bits = (field >> 23 << 31) | (u32::from(dict[code]) << 23) | (field & 0x7f_ffff);
            out.push(f32::from_bits(bits));
        }
        Ok(())
    }

    fn throughput_bps(&self) -> f64 {
        EXP_PACK_BPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u32(codec: &dyn WireCodec, data: &[u32]) {
        let mut bytes = Vec::new();
        codec.encode_u32(data, &mut bytes);
        assert_eq!(
            bytes.len() as u64,
            codec.encoded_len_u32(data),
            "len contract"
        );
        assert!(bytes.len() as u64 <= data.len() as u64 * 4, "never-expand");
        let mut back = Vec::new();
        codec
            .decode_u32(&bytes, data.len(), &mut back)
            .expect("decode");
        assert_eq!(back, data);
    }

    fn roundtrip_f32(codec: &dyn WireCodec, data: &[f32]) {
        let mut bytes = Vec::new();
        codec.encode_f32(data, &mut bytes);
        assert_eq!(
            bytes.len() as u64,
            codec.encoded_len_f32(data),
            "len contract"
        );
        assert!(bytes.len() as u64 <= data.len() as u64 * 4, "never-expand");
        let mut back = Vec::new();
        codec
            .decode_f32(&bytes, data.len(), &mut back)
            .expect("decode");
        let want: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "bit-exact round-trip");
    }

    #[test]
    fn identity_roundtrips_raw() {
        roundtrip_u32(&IDENTITY, &[]);
        roundtrip_u32(&IDENTITY, &[7]);
        roundtrip_u32(&IDENTITY, &[0, u32::MAX, 1, 1]);
        roundtrip_f32(&IDENTITY, &[]);
        roundtrip_f32(&IDENTITY, &[1.5, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0]);
    }

    #[test]
    fn delta_varint_roundtrips_sorted_and_unsorted() {
        roundtrip_u32(&DELTA_VARINT, &[]);
        roundtrip_u32(&DELTA_VARINT, &[0]);
        roundtrip_u32(&DELTA_VARINT, &[u32::MAX]);
        roundtrip_u32(&DELTA_VARINT, &[1, 2, 3, 5, 8, 13, 21]);
        roundtrip_u32(&DELTA_VARINT, &[9, 2, 5, 7, 0, 1, u32::MAX, 0]);
    }

    #[test]
    fn delta_varint_compresses_dense_index_lists() {
        let data: Vec<u32> = (0..1024u32).map(|i| i * 3 % 257).collect();
        assert!(delta_varint_len(&data) * 2 < data.len() as u64 * 4);
        roundtrip_u32(&DELTA_VARINT, &data);
    }

    #[test]
    fn exp_pack_roundtrips_hostile_bit_patterns() {
        roundtrip_f32(&EXP_PACK, &[]);
        roundtrip_f32(&EXP_PACK, &[0.0]);
        let hostile = [
            0.0,
            -0.0,
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN payload
            f32::from_bits(0xffc0_0001),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x807f_ffff),
            1.0e-3,
            -2.5e8,
        ];
        roundtrip_f32(&EXP_PACK, &hostile);
    }

    #[test]
    fn exp_pack_compresses_exponent_clustered_payloads() {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 - 256.0) * 1.0e-3).collect();
        let enc = exp_pack_len(&data);
        assert!(enc < data.len() as u64 * 4, "{enc} vs {}", data.len() * 4);
        roundtrip_f32(&EXP_PACK, &data);
    }

    #[test]
    fn decoders_reject_truncated_and_corrupt_input() {
        let data: Vec<u32> = (0..64u32).collect();
        let mut bytes = Vec::new();
        DELTA_VARINT.encode_u32(&data, &mut bytes);
        let mut out = Vec::new();
        assert_eq!(
            DELTA_VARINT.decode_u32(&bytes[..bytes.len() - 1], data.len(), &mut out),
            Err(CodecError::Truncated)
        );
        out.clear();
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(matches!(
            DELTA_VARINT.decode_u32(&longer, data.len(), &mut out),
            Err(CodecError::Corrupt(_))
        ));

        let grads: Vec<f32> = (0..64).map(|i| i as f32 * 0.125).collect();
        let mut gbytes = Vec::new();
        EXP_PACK.encode_f32(&grads, &mut gbytes);
        out.clear();
        let mut gout = Vec::new();
        assert_eq!(
            EXP_PACK.decode_f32(&gbytes[..3], grads.len(), &mut gout),
            Err(CodecError::Truncated)
        );
        let mut corrupt = gbytes.clone();
        corrupt[1] = 0xff; // dictionary no longer ascending
        gout.clear();
        assert!(matches!(
            EXP_PACK.decode_f32(&corrupt, grads.len(), &mut gout),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn codec_id_ladder_exposes_the_right_rungs() {
        assert!(WireCodecId::default().index_codec().is_none());
        assert!(WireCodecId::default().grad_codec().is_none());
        assert!(WireCodecId::LosslessIndex.index_codec().is_some());
        assert!(WireCodecId::LosslessIndex.grad_codec().is_none());
        assert!(WireCodecId::LosslessGrad.grad_codec().is_some());
        assert!(WireCodecId::Lossless.index_codec().is_some());
        assert!(WireCodecId::Lossless.grad_codec().is_some());
        for id in WireCodecId::lossless_ladder() {
            assert_ne!(id, WireCodecId::Identity);
        }
    }
}
