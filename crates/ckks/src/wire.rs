//! Wire format for ciphertexts — the client↔server transport whose byte
//! counts drive the paper's DRAM-traffic analysis.
//!
//! One strict versioned little-endian layout (no external dependencies):
//!
//! ```text
//! magic    "ABCF"            4 B
//! version  u16 (= 3)         2 B
//! kind     u8 (1=full ct)    1 B
//! log_n    u8                1 B
//! primes   u16               2 B
//! scale_exp i32              4 B   ─┐
//! num_len  u16               2 B    │ exact rational scale:
//! den_len  u16               2 B    │ num·2^exp / ∏den
//! num      num_len B         var    │ (num little-endian bigint,
//! den      den_len · 8 B     var   ─┘  den the dropped primes)
//! widths                     primes · 1 B (per-prime residue bit width)
//! c0 residues                Σ ⌈N·wᵢ/8⌉ B
//! c1 residues                same as c0
//! ```
//!
//! The scale travels as the **exact rational** the evaluator tracks
//! ([`crate::scale::ExactScale`]) instead of a lossy `f64`, and **every
//! residue is bit-packed to its prime's width**, taken from the RNS
//! basis (not from the data): the bootstrappable basis is 36-bit primes
//! plus the 3-bit-widened special prime q₀ (39 bits), so a packed
//! coefficient averages (23·36 + 39)/24 = 36.125 bits against the 64-bit
//! words it occupies in memory — **×0.57** of those bytes (not the ×0.69
//! a uniform 44-bit residue would give; 44 bits is the *hardware
//! datapath* width, which never appears on this wire). The packed byte
//! count is exactly what `abc-sim`'s DRAM/stream model charges when
//! configured with `SimConfig::with_wire_widths`. This is version 3 and
//! the only one: a header carrying any other version number — the
//! full-word version 2 this format replaced included — is rejected like
//! any other malformed input.
//!
//! All five v3 kinds share one packer and one unpacker (`pack_bits`,
//! `unpack_bits`), and both move whole words: eight residues are exactly
//! `width` bytes, appended as one group, and a residue is read back as a
//! shift and a mask of the 16-byte window it starts in. The serializers'
//! check that every residue fits its declared width is an OR
//! accumulated in the pack pass itself; a polynomial is looked through
//! a second time only to name the offending residue in the error.
//!
//! **Compressed (seeded) ciphertexts** serialize via kind 2: the shared
//! ciphertext header, then the 16-byte mask seed in
//! place of `c1`, then the width table and the packed `c0` residues —
//! roughly half the bytes of a kind-1 v3 ciphertext.
//!
//! **Evaluation keys** (kinds 3/4) carry the RNS-gadget
//! key-switching material a server needs — `digits · limbs` polynomial
//! pairs, each residue bit-packed to its prime's width:
//!
//! ```text
//! magic    "ABCF"             4 B
//! version  u16 (= 3)          2 B
//! kind     u8 (3=eval key, 4=Galois key)
//! log_n    u8                 1 B
//! limbs    u16                2 B   (primes per digit)
//! digits   u16                2 B   (decomposition digits)
//! element  u64                8 B   (kind 4 only: the Galois element)
//! widths   limbs · 1 B
//! payload  per digit: b residues packed, then a residues packed
//! ```

use crate::cipher::{Ciphertext, Degree2Ciphertext};
use crate::key::{EvalKey, GaloisKey, KeySwitchKey};
use crate::scale::ExactScale;
use crate::symmetric::CompressedCiphertext;
use crate::CkksError;
use abc_math::{Modulus, UBig};
use abc_prng::Seed;
use abc_transform::pool;

const MAGIC: &[u8; 4] = b"ABCF";
const VERSION_PACKED: u16 = 3;

/// What a wire blob carries — the kind byte every header holds after the
/// magic and the version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireKind {
    /// A two-component ciphertext ([`deserialize_ciphertext`]).
    Full = 1,
    /// A seed-compressed ciphertext ([`deserialize_compressed_ciphertext`]).
    Compressed = 2,
    /// A relinearization key ([`deserialize_eval_key`]).
    EvalKey = 3,
    /// A Galois key ([`deserialize_galois_key`]).
    GaloisKey = 4,
}

/// Validates what every header starts with — magic, version, a kind this
/// format defines — and says which deserializer the blob is for.
///
/// # Errors
///
/// [`CkksError::InvalidParams`] for a blob cut before the kind byte, a
/// wrong magic or version, and an undefined kind.
pub fn kind_of(bytes: &[u8]) -> Result<WireKind, CkksError> {
    let err = |msg: &str| CkksError::InvalidParams(format!("wire: {msg}"));
    let Some(&[m0, m1, m2, m3, v0, v1, kind]) = bytes.first_chunk() else {
        return Err(err("truncated header"));
    };
    if [m0, m1, m2, m3] != *MAGIC {
        return Err(err("bad magic"));
    }
    if u16::from_le_bytes([v0, v1]) != VERSION_PACKED {
        return Err(err("unsupported version"));
    }
    [
        WireKind::Full,
        WireKind::Compressed,
        WireKind::EvalKey,
        WireKind::GaloisKey,
    ]
    .into_iter()
    .find(|&k| k as u8 == kind)
    .ok_or_else(|| err("unsupported kind"))
}

/// Bytes before the variable-length scale payload.
const FIXED_HEADER: usize = 18;
/// Key header bytes before the `element` field / width table.
const KEY_FIXED_HEADER: usize = 12;

/// Per-prime residue bit widths of a basis — the packing schedule of the
/// v3 format (`⌈log2 qᵢ⌉`; residues are `< qᵢ`).
pub fn residue_widths(moduli: &[Modulus]) -> Vec<u32> {
    moduli.iter().map(|m| 64 - m.q().leading_zeros()).collect()
}

/// Mean payload bits per packed coefficient under `widths` — the figure
/// the simulator charges per transported residue.
pub fn packed_bits_per_coeff(widths: &[u32]) -> f64 {
    if widths.is_empty() {
        return 64.0;
    }
    widths.iter().map(|&w| w as f64).sum::<f64>() / widths.len() as f64
}

/// Packed bytes of one residue polynomial (`n` coefficients at `width`
/// bits, byte-aligned per polynomial).
fn packed_poly_bytes(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Appends `words` to `out`, `width` bits each, LSB-first, and returns
/// the OR of all of them (a bit at or above `width` in it means some
/// word did not fit). Eight words make exactly `width` bytes, so the
/// stream moves in such groups — 64-bit lanes filled from one shift
/// accumulator, one append per group; a last partial group leaves
/// byte by byte.
fn pack_bits(out: &mut Vec<u8>, words: &[u64], width: u32) -> u64 {
    let mut seen = 0u64;
    let mut groups = words.chunks_exact(8);
    for group in &mut groups {
        // 8 × 64 bits at most, plus the lane the accumulator drains to.
        let mut lanes = [0u8; 72];
        let mut lane = 0;
        let mut acc: u128 = 0;
        let mut nbits = 0u32;
        for &w in group {
            seen |= w;
            acc |= (w as u128) << nbits;
            nbits += width;
            if nbits >= 64 {
                lanes[lane..lane + 8].copy_from_slice(&(acc as u64).to_le_bytes());
                lane += 8;
                acc >>= 64;
                nbits -= 64;
            }
        }
        lanes[lane..lane + 8].copy_from_slice(&(acc as u64).to_le_bytes());
        out.extend_from_slice(&lanes[..width as usize]);
    }
    let mut acc: u128 = 0;
    let mut nbits = 0u32;
    for &w in groups.remainder() {
        seen |= w;
        acc |= (w as u128) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
    seen
}

/// [`pack_bits`] for one residue polynomial, rejecting residues that do
/// not fit `width` bits (corrupt data: the blob could not round-trip).
/// The check rides in the pack pass; the polynomial is looked through
/// again only to name the residue in the error.
fn pack_poly(out: &mut Vec<u8>, poly: &[u64], width: u32) -> Result<(), CkksError> {
    let seen = pack_bits(out, poly, width);
    if width < 64 && seen >> width != 0 {
        let bad = poly
            .iter()
            .find(|&&x| x >> width != 0)
            .expect("a bit past the width came from some residue");
        return Err(CkksError::InvalidParams(format!(
            "wire: residue {bad:#x} exceeds {width}-bit width"
        )));
    }
    Ok(())
}

/// Reads `n` words of `width` bits (LSB-first) from `bytes`: word `j`
/// is a shift and a mask of the 16-byte window at its first byte. The
/// last few words, whose window would pass the end of `bytes`, are read
/// the same way from a zero-padded copy of the tail. The polynomial is a
/// limb-pool buffer: inside a ciphertext it goes back there on drop, a
/// key keeps it for good.
fn unpack_bits(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let word_at = |src: &[u8], bit: usize| {
        let at = bit >> 3;
        let window = u128::from_le_bytes(src[at..at + 16].try_into().expect("16 bytes"));
        (window >> (bit & 7)) as u64 & mask
    };
    let width = width as usize;
    // Words whose first byte is at most `len − 16` have their window
    // inside `bytes`.
    let direct = match bytes.len().checked_sub(16) {
        Some(last) => n.min(((last + 1) * 8).div_ceil(width)),
        None => 0,
    };
    let mut out = pool::take(n);
    out.clear();
    out.extend((0..direct).map(|j| word_at(bytes, j * width)));
    let tail_at = (direct * width) >> 3;
    let mut tail = [0u8; 32];
    tail[..bytes.len() - tail_at].copy_from_slice(&bytes[tail_at..]);
    out.extend((direct..n).map(|j| word_at(&tail, j * width - tail_at * 8)));
    out
}

/// Unpacks one polynomial per entry of `widths` from `bytes` at
/// `*cursor`, advancing it. The caller has checked that the payload is
/// there.
fn unpack_polys(bytes: &[u8], cursor: &mut usize, n: usize, widths: &[u32]) -> Vec<Vec<u64>> {
    let polys = widths.iter().map(|&w| {
        let len = packed_poly_bytes(n, w);
        let poly = unpack_bits(&bytes[*cursor..*cursor + len], n, w);
        *cursor += len;
        poly
    });
    polys.collect()
}

/// The shared header + exact-scale payload (kinds 1/2).
fn write_header(out: &mut Vec<u8>, kind: WireKind, n: usize, primes: usize, scale: &ExactScale) {
    let (num, exp, den) = scale.raw_parts();
    let num_bytes = num.to_le_bytes();
    let num_len =
        u16::try_from(num_bytes.len()).expect("scale numerator exceeds the wire format's 64 KiB");
    let den_len =
        u16::try_from(den.len()).expect("scale denominator exceeds the wire format's u16 count");
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_PACKED.to_le_bytes());
    out.push(kind as u8);
    out.push(n.trailing_zeros() as u8);
    out.extend_from_slice(&(primes as u16).to_le_bytes());
    out.extend_from_slice(&exp.to_le_bytes());
    out.extend_from_slice(&num_len.to_le_bytes());
    out.extend_from_slice(&den_len.to_le_bytes());
    out.extend_from_slice(&num_bytes);
    for &q in den {
        out.extend_from_slice(&q.to_le_bytes());
    }
}

fn scale_header_len(scale: &ExactScale) -> usize {
    let (num, _, den) = scale.raw_parts();
    FIXED_HEADER + num.to_le_bytes().len() + den.len() * 8
}

fn header_len(ct: &Ciphertext) -> usize {
    scale_header_len(ct.exact_scale())
}

/// Exact serialized size in the v3 packed format under `widths`.
pub fn packed_serialized_len(ct: &Ciphertext, widths: &[u32]) -> usize {
    let polys: usize = widths.iter().map(|&w| packed_poly_bytes(ct.n(), w)).sum();
    header_len(ct) + ct.num_primes() + 2 * polys
}

/// Exact v3-packed size of a degree-2 intermediate under `widths` —
/// the same header and width table as [`packed_serialized_len`], with
/// three bit-packed components instead of two.
pub fn packed_degree2_serialized_len(ct: &Degree2Ciphertext, widths: &[u32]) -> usize {
    let polys: usize = widths.iter().map(|&w| packed_poly_bytes(ct.n(), w)).sum();
    scale_header_len(ct.exact_scale()) + ct.num_primes() + 3 * polys
}

/// Serializes a ciphertext to the v3 wire format, bit-packing each
/// residue polynomial to its prime's width. `widths` comes from the
/// basis ([`residue_widths`] /
/// [`crate::CkksContext::wire_widths`]), one entry per carried prime.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if `widths` doesn't match the
/// ciphertext's prime count, a width is 0 or > 64, or any residue does
/// not fit its declared width (corrupt data — packing it would emit a
/// blob that cannot round-trip).
///
/// # Panics
///
/// Panics if the exact-scale encoding exceeds the format's `u16`
/// length fields (a numerator beyond 64 KiB or more than 65535 dropped
/// primes — thousands of unreduced multiplications past any modulus
/// budget); truncating silently would emit a blob the decoder rejects.
pub fn serialize_ciphertext_packed(ct: &Ciphertext, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    let err = |msg: String| CkksError::InvalidParams(format!("wire: {msg}"));
    if widths.len() != ct.num_primes() {
        return Err(err(format!(
            "{} widths for {} primes",
            widths.len(),
            ct.num_primes()
        )));
    }
    if let Some(&w) = widths.iter().find(|&&w| w == 0 || w > 64) {
        return Err(err(format!("residue width {w} out of 1..=64")));
    }
    let (c0, c1) = ct.components();
    let mut out = Vec::with_capacity(packed_serialized_len(ct, widths));
    write_header(
        &mut out,
        WireKind::Full,
        ct.n(),
        ct.num_primes(),
        ct.exact_scale(),
    );
    for &w in widths {
        out.push(w as u8);
    }
    for component in [c0, c1] {
        for (poly, &w) in component.iter().zip(widths) {
            pack_poly(&mut out, poly, w)?;
        }
    }
    Ok(out)
}

/// Parsed common ciphertext header (kinds 1 and 2).
struct CtHeader {
    n: usize,
    primes: usize,
    scale: ExactScale,
    /// Offset of the first byte after the variable-length scale payload.
    scale_end: usize,
}

/// Parses and validates the shared magic/version/kind/shape/scale header
/// of ciphertext-carrying blobs (kind 1 full, kind 2 seed-compressed).
fn parse_ct_header(bytes: &[u8], expect_kind: WireKind) -> Result<CtHeader, CkksError> {
    let err = |msg: &str| CkksError::InvalidParams(format!("wire: {msg}"));
    if kind_of(bytes)? != expect_kind {
        return Err(err("unsupported kind"));
    }
    if bytes.len() < FIXED_HEADER {
        return Err(err("truncated header"));
    }
    let log_n = bytes[7] as u32;
    if log_n == 0 || log_n > 20 {
        return Err(err("implausible ring degree"));
    }
    let n = 1usize << log_n;
    let primes = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes")) as usize;
    if primes == 0 || primes > 64 {
        return Err(err("implausible prime count"));
    }
    let exp = i32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes"));
    let num_len = u16::from_le_bytes(bytes[14..16].try_into().expect("2 bytes")) as usize;
    let den_len = u16::from_le_bytes(bytes[16..18].try_into().expect("2 bytes")) as usize;
    let scale_end = FIXED_HEADER + num_len + den_len * 8;
    if bytes.len() < scale_end {
        return Err(err("truncated scale payload"));
    }
    let num = UBig::from_le_bytes(&bytes[FIXED_HEADER..FIXED_HEADER + num_len]);
    let den: Vec<u64> = (0..den_len)
        .map(|i| {
            let at = FIXED_HEADER + num_len + i * 8;
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
        })
        .collect();
    let scale =
        ExactScale::from_raw_parts(num, exp, den).ok_or_else(|| err("invalid scale encoding"))?;
    Ok(CtHeader {
        n,
        primes,
        scale,
        scale_end,
    })
}

/// Deserializes a ciphertext from the wire format.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for malformed input: bad magic,
/// unsupported version/kind, truncated payload, inconsistent sizes, or
/// an invalid scale encoding.
pub fn deserialize_ciphertext(bytes: &[u8]) -> Result<Ciphertext, CkksError> {
    let err = |msg: &str| CkksError::InvalidParams(format!("wire: {msg}"));
    let CtHeader {
        n,
        primes,
        scale,
        scale_end,
    } = parse_ct_header(bytes, WireKind::Full)?;

    // Per-prime widths, then bit-packed polynomials.
    if bytes.len() < scale_end + primes {
        return Err(err("truncated width table"));
    }
    let widths: Vec<u32> = bytes[scale_end..scale_end + primes]
        .iter()
        .map(|&b| b as u32)
        .collect();
    if widths.iter().any(|&w| w == 0 || w > 64) {
        return Err(err("implausible residue width"));
    }
    let polys: usize = widths.iter().map(|&w| packed_poly_bytes(n, w)).sum();
    let expected = scale_end + primes + 2 * polys;
    if bytes.len() != expected {
        return Err(err("payload length mismatch"));
    }
    let mut cursor = scale_end + primes;
    let c0 = unpack_polys(bytes, &mut cursor, n, &widths).into();
    let c1 = unpack_polys(bytes, &mut cursor, n, &widths).into();
    Ciphertext::from_limbs(c0, c1, scale)
}

/// Exact serialized size of a seed-compressed ciphertext in the v3
/// packed format under `widths` (header + 16-byte seed + width table +
/// packed `c0`).
pub fn compressed_serialized_len(cct: &CompressedCiphertext, widths: &[u32]) -> usize {
    let polys: usize = widths.iter().map(|&w| packed_poly_bytes(cct.n(), w)).sum();
    scale_header_len(cct.exact_scale()) + 16 + cct.num_primes() + polys
}

/// Serializes a seed-compressed (symmetric) ciphertext to the v3 wire
/// format (kind 2): the 16-byte mask seed stands in for the whole `c1`
/// component, and `c0` is bit-packed to the basis widths — the upload
/// format of a client that derives masks on-chip.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if `widths` doesn't match the
/// ciphertext's prime count, a width is 0 or > 64, or a residue does not
/// fit its declared width.
///
/// # Panics
///
/// Panics on oversize scale encodings, as [`serialize_ciphertext_packed`].
pub fn serialize_compressed_ciphertext(
    cct: &CompressedCiphertext,
    widths: &[u32],
) -> Result<Vec<u8>, CkksError> {
    let err = |msg: String| CkksError::InvalidParams(format!("wire: {msg}"));
    if widths.len() != cct.num_primes() {
        return Err(err(format!(
            "{} widths for {} primes",
            widths.len(),
            cct.num_primes()
        )));
    }
    if let Some(&w) = widths.iter().find(|&&w| w == 0 || w > 64) {
        return Err(err(format!("residue width {w} out of 1..=64")));
    }
    let mut out = Vec::with_capacity(compressed_serialized_len(cct, widths));
    write_header(
        &mut out,
        WireKind::Compressed,
        cct.n(),
        cct.num_primes(),
        cct.exact_scale(),
    );
    out.extend_from_slice(&cct.mask_seed().0);
    for &w in widths {
        out.push(w as u8);
    }
    for (poly, &w) in cct.c0().iter().zip(widths) {
        pack_poly(&mut out, poly, w)?;
    }
    Ok(out)
}

/// Deserializes a seed-compressed ciphertext (kind 2).
/// Expand it back into a full ciphertext with
/// [`CompressedCiphertext::expand`].
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for malformed input: bad magic,
/// wrong version/kind, truncated seed/width table/payload, trailing
/// garbage, or an invalid scale encoding.
pub fn deserialize_compressed_ciphertext(bytes: &[u8]) -> Result<CompressedCiphertext, CkksError> {
    let err = |msg: &str| CkksError::InvalidParams(format!("wire: {msg}"));
    let CtHeader {
        n,
        primes,
        scale,
        scale_end,
    } = parse_ct_header(bytes, WireKind::Compressed)?;
    if bytes.len() < scale_end + 16 {
        return Err(err("truncated mask seed"));
    }
    let seed = Seed(
        bytes[scale_end..scale_end + 16]
            .try_into()
            .expect("16 bytes"),
    );
    let widths_at = scale_end + 16;
    if bytes.len() < widths_at + primes {
        return Err(err("truncated width table"));
    }
    let widths: Vec<u32> = bytes[widths_at..widths_at + primes]
        .iter()
        .map(|&b| b as u32)
        .collect();
    if widths.iter().any(|&w| w == 0 || w > 64) {
        return Err(err("implausible residue width"));
    }
    let polys: usize = widths.iter().map(|&w| packed_poly_bytes(n, w)).sum();
    if bytes.len() != widths_at + primes + polys {
        return Err(err("payload length mismatch"));
    }
    let mut cursor = widths_at + primes;
    let c0 = unpack_polys(bytes, &mut cursor, n, &widths).into();
    Ok(CompressedCiphertext {
        c0,
        mask_seed: seed,
        scale,
        n,
    })
}

/// Exact serialized size of a key-switching key in the v3 packed key
/// format (shared by eval and Galois keys; the latter adds 8 bytes for
/// the element field).
pub fn packed_key_len(ksk: &KeySwitchKey, widths: &[u32], n: usize) -> usize {
    let per_digit: usize = widths.iter().map(|&w| packed_poly_bytes(n, w)).sum();
    KEY_FIXED_HEADER + widths.len() + ksk.num_digits() * 2 * per_digit
}

/// Shared validation + packing of the `digits · limbs` polynomial pairs.
fn serialize_ksk(
    out: &mut Vec<u8>,
    kind: WireKind,
    element: Option<u64>,
    ksk: &KeySwitchKey,
    widths: &[u32],
) -> Result<(), CkksError> {
    let err = |msg: String| CkksError::InvalidParams(format!("wire: {msg}"));
    let digits = ksk.num_digits();
    let limbs = ksk.num_primes();
    if digits == 0 || limbs == 0 {
        return Err(err("empty key-switching key".to_owned()));
    }
    if widths.len() != limbs {
        return Err(err(format!(
            "{} widths for {limbs} key limbs",
            widths.len()
        )));
    }
    if let Some(&w) = widths.iter().find(|&&w| w == 0 || w > 64) {
        return Err(err(format!("residue width {w} out of 1..=64")));
    }
    let n = ksk.b[0][0].len();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_PACKED.to_le_bytes());
    out.push(kind as u8);
    out.push(n.trailing_zeros() as u8);
    out.extend_from_slice(&(limbs as u16).to_le_bytes());
    out.extend_from_slice(&(digits as u16).to_le_bytes());
    if let Some(g) = element {
        out.extend_from_slice(&g.to_le_bytes());
    }
    for &w in widths {
        out.push(w as u8);
    }
    for (b_digit, a_digit) in ksk.b.iter().zip(&ksk.a) {
        for component in [b_digit, a_digit] {
            for (poly, &w) in component.iter().zip(widths) {
                pack_poly(out, poly, w)?;
            }
        }
    }
    Ok(())
}

/// Serializes a relinearization key to the v3 packed key format
/// (kind 3). `widths` comes from the basis, one entry per key limb.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if `widths` doesn't match the
/// key's limb count, a width is out of range, or a residue overflows
/// its declared width.
pub fn serialize_eval_key(key: &EvalKey, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    let mut out = Vec::with_capacity(packed_key_len(&key.ksk, widths, key.ksk.b[0][0].len()));
    serialize_ksk(&mut out, WireKind::EvalKey, None, &key.ksk, widths)?;
    Ok(out)
}

/// Serializes a Galois key to the v3 packed key format (kind 4, the
/// Galois element in the header).
///
/// # Errors
///
/// As [`serialize_eval_key`].
pub fn serialize_galois_key(key: &GaloisKey, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    let mut out = Vec::with_capacity(packed_key_len(&key.ksk, widths, key.ksk.b[0][0].len()) + 8);
    serialize_ksk(
        &mut out,
        WireKind::GaloisKey,
        Some(key.element()),
        &key.ksk,
        widths,
    )?;
    Ok(out)
}

/// Shared key-header parse + payload unpack.
fn deserialize_ksk(bytes: &[u8], kind: WireKind) -> Result<(Option<u64>, KeySwitchKey), CkksError> {
    let err = |msg: &str| CkksError::InvalidParams(format!("wire: {msg}"));
    if kind_of(bytes)? != kind {
        return Err(err("unexpected key kind"));
    }
    if bytes.len() < KEY_FIXED_HEADER {
        return Err(err("truncated key header"));
    }
    let log_n = bytes[7] as u32;
    if log_n == 0 || log_n > 20 {
        return Err(err("implausible ring degree"));
    }
    let n = 1usize << log_n;
    let limbs = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes")) as usize;
    let digits = u16::from_le_bytes(bytes[10..12].try_into().expect("2 bytes")) as usize;
    if limbs == 0 || limbs > 64 || digits == 0 || digits > 64 {
        return Err(err("implausible key shape"));
    }
    let mut cursor = KEY_FIXED_HEADER;
    let element = if kind == WireKind::GaloisKey {
        if bytes.len() < cursor + 8 {
            return Err(err("truncated key header"));
        }
        let g = u64::from_le_bytes(bytes[cursor..cursor + 8].try_into().expect("8 bytes"));
        cursor += 8;
        if g % 2 == 0 || g as usize >= 2 * n {
            return Err(err("invalid Galois element"));
        }
        Some(g)
    } else {
        None
    };
    if bytes.len() < cursor + limbs {
        return Err(err("truncated width table"));
    }
    let widths: Vec<u32> = bytes[cursor..cursor + limbs]
        .iter()
        .map(|&b| b as u32)
        .collect();
    cursor += limbs;
    if widths.iter().any(|&w| w == 0 || w > 64) {
        return Err(err("implausible residue width"));
    }
    let per_digit: usize = widths.iter().map(|&w| packed_poly_bytes(n, w)).sum();
    if bytes.len() != cursor + digits * 2 * per_digit {
        return Err(err("key payload length mismatch"));
    }
    let mut b = Vec::with_capacity(digits);
    let mut a = Vec::with_capacity(digits);
    for _ in 0..digits {
        b.push(unpack_polys(bytes, &mut cursor, n, &widths));
        a.push(unpack_polys(bytes, &mut cursor, n, &widths));
    }
    Ok((element, KeySwitchKey { b, a }))
}

/// Deserializes a relinearization key (kind 3).
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for malformed input: bad magic,
/// wrong version/kind, implausible shape, or a truncated payload.
pub fn deserialize_eval_key(bytes: &[u8]) -> Result<EvalKey, CkksError> {
    let (_, ksk) = deserialize_ksk(bytes, WireKind::EvalKey)?;
    Ok(EvalKey { ksk })
}

/// Deserializes a Galois key (kind 4).
///
/// # Errors
///
/// As [`deserialize_eval_key`], plus an invalid Galois element.
pub fn deserialize_galois_key(bytes: &[u8]) -> Result<GaloisKey, CkksError> {
    let (element, ksk) = deserialize_ksk(bytes, WireKind::GaloisKey)?;
    Ok(GaloisKey {
        element: element.expect("kind 4 always parses an element"),
        ksk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::evaluator;
    use crate::params::CkksParams;
    use abc_float::Complex;
    use abc_prng::Seed;

    fn sample_ct() -> (CkksContext, Ciphertext) {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(3)
                .secret_hamming_weight(None)
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (_, pk) = ctx.keygen(Seed::from_u128(1));
        let msg = vec![Complex::new(0.25, -0.5); 16];
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("e"), &pk, Seed::from_u128(2));
        (ctx, ct)
    }

    #[test]
    fn roundtrip_bit_exact() {
        // At every level a server can send back, not only fresh.
        let (ctx, fresh) = sample_ct();
        for primes in 1..=fresh.num_primes() {
            let ct = fresh.truncated(primes);
            let widths = ctx.wire_widths(primes);
            let bytes = serialize_ciphertext_packed(&ct, &widths).expect("pack");
            assert_eq!(bytes.len(), packed_serialized_len(&ct, &widths));
            let back = deserialize_ciphertext(&bytes).expect("roundtrip");
            assert_eq!(back, ct, "{primes} primes");
        }
    }

    #[test]
    fn version_2_headers_are_rejected_like_any_unknown_version() {
        // The full-word v2 format is gone: its version number gets the
        // same typed error as one that never existed, for both
        // ciphertext kinds (the version is checked before the kind).
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let good = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        let unsupported = Some(CkksError::InvalidParams(
            "wire: unsupported version".to_owned(),
        ));
        for version in [2u16, 99] {
            let mut blob = good.clone();
            blob[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(deserialize_ciphertext(&blob).err(), unsupported);
            assert_eq!(deserialize_compressed_ciphertext(&blob).err(), unsupported);
        }
    }

    #[test]
    fn packed_roundtrip_bit_exact() {
        let (ctx, ct) = sample_ct();
        let widths = residue_widths(&ctx.basis().moduli()[..ct.num_primes()]);
        let bytes = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        assert_eq!(bytes.len(), packed_serialized_len(&ct, &widths));
        let back = deserialize_ciphertext(&bytes).expect("roundtrip");
        assert_eq!(back, ct);
    }

    #[test]
    fn compressed_roundtrip_bit_exact() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(3)
                .secret_hamming_weight(Some(16))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, _) = ctx.keygen(Seed::from_u128(11));
        let msg = vec![Complex::new(0.25, -0.5); 16];
        let pt = ctx.encode(&msg).expect("encode");
        let cct =
            crate::symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(12));
        let widths = ctx.wire_widths(cct.num_primes());
        let bytes = serialize_compressed_ciphertext(&cct, &widths).expect("pack");
        assert_eq!(bytes.len(), compressed_serialized_len(&cct, &widths));
        let back = deserialize_compressed_ciphertext(&bytes).expect("roundtrip");
        assert_eq!(back, cct);
        // And the expanded ciphertext still decrypts to the message.
        let out = ctx
            .decode(
                &ctx.decrypt(&back.expand(&ctx).expect("expand"), &sk)
                    .expect("decrypt"),
            )
            .expect("decode");
        assert!(out[0].dist(msg[0]) < 1e-4);
    }

    #[test]
    fn compressed_wire_is_about_half_the_full_ct() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(3)
                .secret_hamming_weight(Some(16))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(13));
        let pt = ctx.encode(&[Complex::new(0.5, 0.0); 8]).expect("encode");
        let full = ctx.encrypt(&pt, &pk, Seed::from_u128(14));
        let cct =
            crate::symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(14));
        let widths = ctx.wire_widths(full.num_primes());
        let full_bytes = serialize_ciphertext_packed(&full, &widths).expect("pack");
        let cct_bytes = serialize_compressed_ciphertext(&cct, &widths).expect("pack");
        // One packed component + 16 B seed vs two packed components.
        assert!(
            2 * cct_bytes.len() <= full_bytes.len() + 64,
            "compressed {} vs full {}",
            cct_bytes.len(),
            full_bytes.len()
        );
    }

    #[test]
    fn kind_confusion_is_rejected_both_ways() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let full_bytes = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        assert!(deserialize_compressed_ciphertext(&full_bytes).is_err());
        let (sk, _) = ctx.keygen(Seed::from_u128(15));
        let pt = ctx.encode(&[Complex::new(0.1, 0.2); 4]).expect("encode");
        let cct =
            crate::symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(16));
        let cct_bytes = serialize_compressed_ciphertext(&cct, &widths).expect("pack");
        assert!(deserialize_ciphertext(&cct_bytes).is_err());
    }

    #[test]
    fn compressed_rejects_truncation_and_garbage() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(2)
                .secret_hamming_weight(Some(16))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, _) = ctx.keygen(Seed::from_u128(17));
        let pt = ctx.encode(&[Complex::new(0.3, 0.4); 4]).expect("encode");
        let cct =
            crate::symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(18));
        let widths = ctx.wire_widths(cct.num_primes());
        let bytes = serialize_compressed_ciphertext(&cct, &widths).expect("pack");
        assert!(deserialize_compressed_ciphertext(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(deserialize_compressed_ciphertext(&longer).is_err());
    }

    #[test]
    fn packed_shrinks_by_the_width_ratio() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let full = ct.byte_size();
        let packed = serialize_ciphertext_packed(&ct, &widths)
            .expect("pack")
            .len();
        // Basis: ~39-bit special prime + 36-bit primes, vs the 64-bit
        // words of the ciphertext in memory.
        let expect_ratio = packed_bits_per_coeff(&widths) / 64.0;
        let got_ratio = packed as f64 / full as f64;
        assert!(
            (got_ratio - expect_ratio).abs() < 0.01,
            "got ×{got_ratio:.3}, widths predict ×{expect_ratio:.3}"
        );
        assert!(got_ratio < 0.62, "packing saves ≥38%: ×{got_ratio:.3}");
    }

    #[test]
    fn bootstrappable_packing_ratio_is_057() {
        // The honest headline: 23 primes at 36 bits + q0 at 39 bits →
        // 36.125 bits/coeff → ×0.5645 of the 64-bit words. (The stale ×0.69
        // figure assumed the 44-bit *datapath* width on the wire.)
        let widths: Vec<u32> = std::iter::once(39).chain([36; 23]).collect();
        let ratio = packed_bits_per_coeff(&widths) / 64.0;
        assert!((ratio - 0.5645).abs() < 0.001, "ratio {ratio:.4}");
    }

    #[test]
    fn pack_unpack_inverse_at_odd_widths() {
        for width in [1u32, 7, 13, 36, 39, 44, 63, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let words: Vec<u64> = (0..131u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let mut packed = Vec::new();
            pack_bits(&mut packed, &words, width);
            assert_eq!(packed.len(), packed_poly_bytes(words.len(), width));
            assert_eq!(unpack_bits(&packed, words.len(), width), words, "w={width}");
        }
    }

    /// The byte-at-a-time packer the word-wise [`pack_bits`] replaced,
    /// kept as its oracle: the bytes on the wire must not change.
    fn pack_bits_bytewise(out: &mut Vec<u8>, words: &[u64], width: u32) {
        let mut acc: u128 = 0;
        let mut nbits = 0u32;
        for &w in words {
            acc |= (w as u128) << nbits;
            nbits += width;
            while nbits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push(acc as u8);
        }
    }

    #[test]
    fn word_wise_packing_keeps_the_wire_bytes_at_every_width() {
        // Lengths around the 8-word group and the 16-byte window.
        for width in 1u32..=64 {
            let mask = u64::MAX >> (64 - width);
            for n in [1usize, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1 << 10] {
                let mut words: Vec<u64> = (0..n as u64)
                    .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                    .collect();
                // Every bit of the width occurs, first and last word.
                words[0] = mask;
                words[n - 1] = mask;
                let mut want = vec![0xA5];
                pack_bits_bytewise(&mut want, &words, width);
                let mut got = vec![0xA5];
                let seen = pack_bits(&mut got, &words, width);
                assert_eq!(got, want, "w={width} n={n}");
                assert_eq!(seen, mask, "w={width} n={n}");
                assert_eq!(got.len() - 1, packed_poly_bytes(n, width));
                assert_eq!(unpack_bits(&got[1..], n, width), words, "w={width} n={n}");
            }
        }
    }

    #[test]
    fn over_width_residue_is_named_wherever_it_sits() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let (n, last_limb) = (ct.n(), ct.num_primes() - 1);
        for in_c1 in [false, true] {
            for (limb, at) in [(0, 0), (1, n / 2 + 3), (last_limb, n - 1)] {
                let mut bad = ct.clone();
                let poly = if in_c1 { &mut bad.c1 } else { &mut bad.c0 };
                let residue = poly[limb][at] | 1 << widths[limb];
                poly[limb][at] = residue;
                match serialize_ciphertext_packed(&bad, &widths) {
                    Err(CkksError::InvalidParams(msg)) => assert_eq!(
                        msg,
                        format!(
                            "wire: residue {residue:#x} exceeds {}-bit width",
                            widths[limb]
                        )
                    ),
                    other => panic!("c1={in_c1} limb={limb} at={at}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn packed_rejects_bad_inputs() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        // Wrong width count.
        assert!(serialize_ciphertext_packed(&ct, &widths[..1]).is_err());
        // Width too narrow for the residues.
        let narrow = vec![4u32; ct.num_primes()];
        assert!(serialize_ciphertext_packed(&ct, &narrow).is_err());
        // Width out of range.
        let zero = vec![0u32; ct.num_primes()];
        assert!(serialize_ciphertext_packed(&ct, &zero).is_err());
    }

    #[test]
    fn rescaled_exact_scale_survives_the_wire() {
        // The whole point of the exact-scale header: a server-side
        // rescale history (exact rational scale, dropped primes
        // included) round-trips.
        let (ctx, ct) = sample_ct();
        let prod =
            evaluator::plaintext_mul(&ctx, &ct, &ctx.encode(&[Complex::new(0.5, 0.0)]).unwrap())
                .expect("mul");
        let rescaled = evaluator::rescale(&ctx, &prod).expect("rescale");
        assert!(!rescaled.exact_scale().dropped_primes().is_empty());
        let widths = ctx.wire_widths(rescaled.num_primes());
        let packed = serialize_ciphertext_packed(&rescaled, &widths).expect("pack");
        let back = deserialize_ciphertext(&packed).expect("wire");
        assert_eq!(back.exact_scale(), rescaled.exact_scale());
        assert_eq!(back, rescaled);
    }

    #[test]
    fn wire_size_matches_accounting() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let bytes = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        // Fresh power-of-two scale: num = 1 (one byte), empty den; then
        // a width byte per prime and 256 residues per polynomial at its
        // prime's width (256·w bits is whole bytes: 32·w).
        let polys: usize = widths.iter().map(|&w| 32 * w as usize).sum();
        assert_eq!(bytes.len(), FIXED_HEADER + 1 + 3 + 2 * polys);
    }

    #[test]
    fn deserialized_ciphertext_still_decrypts() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(3)
                .secret_hamming_weight(None)
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(3));
        let msg = vec![Complex::new(0.25, -0.5); 16];
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("e"), &pk, Seed::from_u128(4));
        let widths = ctx.wire_widths(ct.num_primes());
        let packed = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        let back = deserialize_ciphertext(&packed).expect("wire");
        let out = ctx
            .decode(&ctx.decrypt(&back, &sk).expect("d"))
            .expect("decode");
        assert!(out[0].dist(msg[0]) < 1e-4);
    }

    #[test]
    fn eval_and_galois_keys_roundtrip_bit_exact() {
        let (ctx, _) = sample_ct();
        let (sk, _) = ctx.keygen(Seed::from_u128(5));
        let widths = ctx.wire_widths(ctx.basis().len());
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(6));
        let bytes = serialize_eval_key(&evk, &widths).expect("serialize");
        assert_eq!(
            bytes.len(),
            packed_key_len(evk.key_switch_key(), &widths, ctx.params().n())
        );
        assert_eq!(deserialize_eval_key(&bytes).expect("roundtrip"), evk);
        let gk = ctx
            .gen_rotation_key(&sk, 1, Seed::from_u128(7))
            .expect("key");
        let bytes = serialize_galois_key(&gk, &widths).expect("serialize");
        let back = deserialize_galois_key(&bytes).expect("roundtrip");
        assert_eq!(back.element(), gk.element());
        assert_eq!(back, gk);
    }

    #[test]
    fn key_wire_rejects_malformed_input() {
        let (ctx, _) = sample_ct();
        let (sk, _) = ctx.keygen(Seed::from_u128(8));
        let widths = ctx.wire_widths(ctx.basis().len());
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(9));
        let good = serialize_eval_key(&evk, &widths).expect("serialize");
        // Truncated at every structural boundary.
        assert!(deserialize_eval_key(&good[..good.len() - 1]).is_err());
        assert!(deserialize_eval_key(&good[..KEY_FIXED_HEADER + 1]).is_err());
        assert!(deserialize_eval_key(&good[..6]).is_err());
        // Kind confusion: an eval key is not a Galois key (and vice versa).
        assert!(deserialize_galois_key(&good).is_err());
        let gk = ctx
            .gen_conjugation_key(&sk, Seed::from_u128(10))
            .expect("key");
        let gk_bytes = serialize_galois_key(&gk, &widths).expect("serialize");
        assert!(deserialize_eval_key(&gk_bytes).is_err());
        // A ciphertext blob is neither.
        let (_, ct) = sample_ct();
        let ct_bytes = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        assert!(deserialize_eval_key(&ct_bytes).is_err());
        // Corrupt element: even values are not Galois group members.
        let mut bad = gk_bytes.clone();
        bad[KEY_FIXED_HEADER] &= !1;
        assert!(deserialize_galois_key(&bad).is_err());
        // Zero width in the table.
        let mut bad = good.clone();
        bad[KEY_FIXED_HEADER] = 0;
        assert!(deserialize_eval_key(&bad).is_err());
        // Serializer rejects width/limb mismatches.
        assert!(serialize_eval_key(&evk, &widths[..1]).is_err());
        assert!(serialize_eval_key(&evk, &vec![4u32; widths.len()]).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let good = serialize_ciphertext_packed(&ct, &widths).expect("pack");
        // Truncated.
        assert!(deserialize_ciphertext(&good[..good.len() - 1]).is_err());
        assert!(deserialize_ciphertext(&good[..10]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(deserialize_ciphertext(&bad).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(deserialize_ciphertext(&bad).is_err());
        // Bad kind.
        let mut bad = good.clone();
        bad[6] = 7;
        assert!(deserialize_ciphertext(&bad).is_err());
        // Implausible prime count.
        let mut bad = good.clone();
        bad[8] = 0;
        bad[9] = 0;
        assert!(deserialize_ciphertext(&bad).is_err());
        // Scale numerator of zero is invalid.
        let mut bad = good.clone();
        bad[FIXED_HEADER] = 0; // num = 0 (single byte)
        assert!(deserialize_ciphertext(&bad).is_err());
        // Truncated inside the width table.
        assert!(deserialize_ciphertext(&good[..FIXED_HEADER + 2]).is_err());
        // Zero width in the table.
        let mut bad = good;
        bad[FIXED_HEADER + 1] = 0; // first width byte (after 1-byte num)
        assert!(deserialize_ciphertext(&bad).is_err());
    }
}
