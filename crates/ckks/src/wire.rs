//! Wire format for ciphertexts and evaluation keys — the client↔server
//! transport whose byte counts drive the paper's DRAM-traffic analysis.
//!
//! One strict versioned little-endian layout (no external dependencies),
//! four kinds of blob, every header field bounded:
//!
//! ```text
//! field      type      kinds  bound
//! magic      "ABCF"    all
//! version    u16       all    = 3
//! kind       u8        all    1 ciphertext · 2 seeded ciphertext ·
//!                             3 eval key · 4 Galois key
//! log_n      u8        all    1 ..= 20
//! limbs      u16       all    1 ..= 64  (a ciphertext's primes)
//! scale_exp  i32       1 2    |exp| ≤ 2^24        ─┐ exact rational scale
//! num_len    u16       1 2    1 ..= 8192           │ num·2^exp / ∏den
//! den_len    u16       1 2    0 ..= 8192           │ (den: the primes
//! num        num_len B 1 2    odd, last byte ≠ 0   │ rescaling dropped)
//! den        u64 each  1 2    odd, > 1, ascending ─┘
//! seed       16 B      2      (the mask seed, in place of c1)
//! digits     u16       3 4    1 ..= 64
//! element    u64       4      odd, < 2N
//! widths     u8 each   all    1 ..= 64, one per limb
//! payload    components · Σ ⌈N·wᵢ/8⌉ B, exactly to the end of the blob:
//!            c0 c1 (kind 1) · c0 (kind 2) · b a per digit (kinds 3/4)
//! ```
//!
//! A blob is outside input: the parser refuses — and the serializers
//! refuse to write — whatever falls outside the bounds column, and the
//! total length is checked from the header alone, before the scale or
//! any polynomial is built, so a blob is rejected in time proportional
//! to its header. The scale rows bound its *representation*, which the
//! evaluator never reduces (`k` squarings with a rescale each carry
//! `2^k − 1` dropped primes at a value still near Δ), by what decode
//! costs in it — an unbounded `exp` was minutes of `ldexp`, 65535
//! dropped primes seconds of multiplication — and live with the type as
//! `ExactScale::MAX_*`.
//!
//! The scale travels as the **exact rational** the evaluator tracks
//! ([`crate::scale::ExactScale`]) instead of a lossy `f64`, and **every
//! residue is bit-packed to its prime's width**, taken from the RNS
//! basis (not from the data): the bootstrappable basis is 36-bit primes
//! plus the 3-bit-widened special prime q₀ (39 bits), so a packed
//! coefficient averages (23·36 + 39)/24 = 36.125 bits against the 64-bit
//! words it occupies in memory — **×0.57** of those bytes (not the ×0.69
//! of a uniform 44-bit residue: 44 bits is the *hardware datapath*
//! width, which never appears on this wire). The packed byte count is
//! exactly what `abc-sim`'s DRAM/stream model charges when configured
//! with `SimConfig::with_wire_widths`. This is version 3 and the only
//! one: any other version number in a header — the full-word version 2
//! this format replaced included — is malformed input.
//!
//! All four kinds share one header description ([`Layout`]: the only
//! header writer, parser and length formula), one packer and one
//! unpacker (`pack_into`, `unpack_into`: groups of eight words — `width`
//! bytes — at a time, instantiated per width; the fits-its-width check
//! an OR accumulated in the pack pass). Both run per polynomial on the
//! process-wide fan-out ([`abc_transform::fanout`], `n` words a
//! polynomial weighed as element-wise): the v3 layout fixes every
//! polynomial's byte range before packing starts, so the packer writes
//! each `(component, limb)` straight into its range of the blob's spare
//! capacity (`Layout::append`, the one blob writer — the fused upload
//! packs each limb there as it computes it), and the unpacker fills
//! every pooled limb in parallel. A
//! residue past its width is named as the serial packer named it: the
//! first one of the first polynomial that has one. **Seeded
//! ciphertexts** (kind 2) are roughly half the bytes of kind 1;
//! **evaluation keys** (kinds 3/4) carry `digits · limbs` polynomial pairs.

use crate::cipher::Ciphertext;
use crate::key::{EvalKey, GaloisKey, KeySwitchKey};
use crate::scale::ExactScale;
use crate::symmetric::CompressedCiphertext;
use crate::CkksError;
use abc_math::{Modulus, UBig};
use abc_prng::Seed;
use abc_transform::fanout::{self, LimbWork};
use abc_transform::pool;
use std::borrow::Cow;
use std::mem::MaybeUninit;

const MAGIC: &[u8; 4] = b"ABCF";
const VERSION_PACKED: u16 = 3;
const FIXED_HEADER: usize = 18; // ciphertext header bytes before the numerator
const KEY_FIXED_HEADER: usize = 12; // key header bytes before the element / width table
const TRUNCATED: &str = "truncated header";

/// The module's typed error for malformed or out-of-bounds input.
fn err(msg: impl core::fmt::Display) -> CkksError {
    CkksError::InvalidParams(format!("wire: {msg}"))
}

/// What a wire blob carries: the kind byte of its header.
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

/// `f::<W> args` for the residue width `width` as the const `W`: the
/// group packer and unpacker are instantiated once per width, so a
/// group's lane indices and shifts are immediates. A runtime-width
/// group packer was measured 1.4–1.6 × slower here — its variable
/// shifts, without BMI2 in the baseline target, cost several µops each.
macro_rules! by_width {
    ($width:expr, $f:ident $args:tt) => {
        by_width!(@ $width, $f $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
            32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59
            60 61 62 63 64)
    };
    (@ $width:expr, $f:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $f::<$w> $args,)*
            w => unreachable!("residue width {w} out of 1..=64"),
        }
    };
}

/// Writes `words` into `dst`, `width` bits each, LSB-first, and returns
/// the OR of all of them (a bit at or above `width` in it means some word
/// did not fit). Eight words make exactly `width` bytes, so the stream
/// moves in such groups ([`pack_groups`]); a last partial group leaves
/// byte by byte. `dst` is the polynomial's byte range of the payload,
/// [`packed_poly_bytes`] long, and every byte of it is written.
fn pack_into(dst: &mut [MaybeUninit<u8>], words: &[u64], width: u32) -> u64 {
    let (groups, tail) = dst.split_at_mut(words.len() / 8 * width as usize);
    let mut seen = by_width!(width, pack_groups(groups, words));
    let mut tail = tail.iter_mut();
    let mut acc: u128 = 0;
    let mut nbits = 0u32;
    for &w in words.chunks_exact(8).remainder() {
        seen |= w;
        acc |= (w as u128) << nbits;
        nbits += width;
        while nbits >= 8 {
            tail.next().expect("range fits the words").write(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        tail.next().expect("range fits the words").write(acc as u8);
    }
    assert!(tail.next().is_none(), "range longer than the packed words");
    seen
}

/// The full groups of eight words of [`pack_into`] at width `W`, and
/// the OR of their words. Each group is built in nine independent
/// 64-bit lanes — word `k` at bit `k·W`, the part past its lane
/// spilling into the next — and its `W` bytes written at once.
fn pack_groups<const W: usize>(dst: &mut [MaybeUninit<u8>], words: &[u64]) -> u64 {
    let mut seen = 0u64;
    for (group, out) in words.chunks_exact(8).zip(dst.chunks_exact_mut(W)) {
        let mut lanes = [0u64; 9];
        for (k, &x) in group.iter().enumerate() {
            seen |= x;
            let (lane, off) = (k * W / 64, (k * W % 64) as u32);
            lanes[lane] |= x << off;
            // `x >> (64 − off)`, which is 0 (not a shift by 64) at `off = 0`.
            lanes[lane + 1] |= (x >> 1) >> (63 - off);
        }
        let mut bytes = [0u8; 72];
        for (dst, lane) in bytes.chunks_exact_mut(8).zip(lanes) {
            dst.copy_from_slice(&lane.to_le_bytes());
        }
        out.write_copy_of_slice(&bytes[..W]);
    }
    seen
}

/// One polynomial's byte range of a blob being written
/// ([`Layout::append`]): where its residues go, at which width, and what
/// packing them found.
pub(crate) struct PolyOut<'a> {
    dst: &'a mut [MaybeUninit<u8>],
    width: u32,
    packed: bool,
    /// The first residue past `width`, if packing met one.
    over: Option<u64>,
}

impl PolyOut<'_> {
    /// Bit-packs `words` (`n` residues) into this polynomial's range,
    /// every byte of it.
    pub(crate) fn pack(&mut self, words: &[u64]) {
        let seen = pack_into(self.dst, words, self.width);
        self.over = over_width(words, self.width, seen);
        self.packed = true;
    }
}

/// The residue of `words` that does not fit `width` bits, if `seen` (the
/// OR of `words`) says there is one.
fn over_width(words: &[u64], width: u32, seen: u64) -> Option<u64> {
    if width == 64 || seen >> width == 0 {
        return None;
    }
    words.iter().copied().find(|&x| x >> width != 0)
}

/// Reads `words.len()` words of `width` bits (LSB-first) from `bytes`,
/// the inverse of [`pack_into`]: the full groups of eight words, `width`
/// bytes each, through [`unpack_groups`], and the words of a last partial
/// group through [`unpack_windows`]. Bits past the last word are ignored.
fn unpack_into(bytes: &[u8], words: &mut [u64], width: u32) {
    let n = words.len();
    let (grouped, rest) = words.split_at_mut(n - n % 8);
    by_width!(width, unpack_groups(bytes, grouped));
    unpack_windows(&bytes[grouped.len() / 8 * width as usize..], rest, width);
}

/// The full groups of [`unpack_into`] at width `W`, filling `words`
/// (a multiple of eight long): each group's `W` bytes are read into nine
/// 64-bit lanes, and word `k` is the bits from `k·W` on — the rest of
/// its lane, the part spilled into the next one — under the width mask.
fn unpack_groups<const W: usize>(bytes: &[u8], words: &mut [u64]) {
    let mask = u64::MAX >> (64 - W);
    for (group, src) in words.chunks_exact_mut(8).zip(bytes.chunks_exact(W)) {
        let mut buf = [0u8; 72];
        buf[..W].copy_from_slice(src);
        let mut lanes = [0u64; 9];
        for (lane, le) in lanes.iter_mut().zip(buf.chunks_exact(8)) {
            *lane = u64::from_le_bytes(le.try_into().expect("8 bytes"));
        }
        for (k, x) in group.iter_mut().enumerate() {
            let (lane, off) = (k * W / 64, (k * W % 64) as u32);
            // `y << (64 − off)`, which is 0 (not a shift by 64) at `off = 0`.
            *x = ((lanes[lane] >> off) | ((lanes[lane + 1] << 1) << (63 - off))) & mask;
        }
    }
}

/// Fills `words` with consecutive `width`-bit words of `bytes`, from its
/// first bit: word `j` is a shift and a mask of the 16-byte window at
/// its first byte. The last few words, whose window would pass the end
/// of `bytes`, are read the same way from a zero-padded copy of the tail.
fn unpack_windows(bytes: &[u8], words: &mut [u64], width: u32) {
    let mask = u64::MAX >> (64 - width);
    let word_at = |src: &[u8], bit: usize| {
        let at = bit >> 3;
        let window = u128::from_le_bytes(src[at..at + 16].try_into().expect("16 bytes"));
        (window >> (bit & 7)) as u64 & mask
    };
    let width = width as usize;
    // Words whose first byte is at most `len − 16` have their window
    // inside `bytes`.
    let direct = match bytes.len().checked_sub(16) {
        Some(last) => words.len().min(((last + 1) * 8).div_ceil(width)),
        None => 0,
    };
    let (inside, past) = words.split_at_mut(direct);
    for (j, x) in inside.iter_mut().enumerate() {
        *x = word_at(bytes, j * width);
    }
    let tail_at = (direct * width) >> 3;
    let mut tail = [0u8; 32];
    tail[..bytes.len() - tail_at].copy_from_slice(&bytes[tail_at..]);
    for (j, x) in (direct..).zip(past) {
        *x = word_at(&tail, j * width - tail_at * 8);
    }
}

/// Unpacks the components that fill `payload` — `limbs` polynomials of
/// `n` words each, under `widths` — every polynomial into a pooled limb of
/// its own and on the fan-out (`n` words a polynomial, element-wise). The
/// caller has checked that the payload is all there. A limb goes back to
/// the pool when its ciphertext drops; a key keeps it for good.
fn unpack_polys(
    payload: &[u8],
    n: usize,
    widths: &[u32],
    threads: usize,
) -> impl Iterator<Item = Vec<Vec<u64>>> + use<> {
    let limbs = widths.len();
    let offset = |limb: usize| -> usize {
        widths[..limb]
            .iter()
            .map(|&w| packed_poly_bytes(n, w))
            .sum()
    };
    let component_len = offset(limbs);
    let count = payload.len() / component_len;
    let mut polys: Vec<Vec<u64>> = (0..count * limbs).map(|_| pool::take(n)).collect();
    fanout::for_each_chunk(
        threads,
        &mut polys,
        n,
        LimbWork::Elementwise,
        |first, chunk| {
            for (i, poly) in (first..).zip(chunk) {
                let (c, limb) = (i / limbs, i % limbs);
                let at = c * component_len + offset(limb);
                let width = widths[limb];
                unpack_into(&payload[at..at + packed_poly_bytes(n, width)], poly, width);
            }
        },
    );
    let mut polys = polys.into_iter();
    (0..count).map(move |_| polys.by_ref().take(limbs).collect())
}

/// `fn u16(&mut self) -> Result<u16, CkksError>` and its like.
macro_rules! int_readers {
    ($($int:ident)*) => {$(
        fn $int(&mut self) -> Result<$int, CkksError> {
            self.array().map($int::from_le_bytes)
        }
    )*};
}

/// A cursor over a blob: every read is checked against the end and fails
/// with the module's typed error instead of slicing past it.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkksError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(|| err(TRUNCATED))?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const K: usize>(&mut self) -> Result<[u8; K], CkksError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(|| err(TRUNCATED))?;
        self.0 = rest;
        Ok(*head)
    }

    int_readers!(u8 u16 i32 u64);

    /// What every header starts with: magic, version, a kind the format defines.
    fn kind(&mut self) -> Result<WireKind, CkksError> {
        use WireKind::{Compressed, EvalKey, Full, GaloisKey};
        if self.array()? != *MAGIC {
            return Err(err("bad magic"));
        }
        if self.u16()? != VERSION_PACKED {
            return Err(err("unsupported version"));
        }
        let kind = self.u8()?;
        let mut defined = [Full, Compressed, EvalKey, GaloisKey].into_iter();
        let found = defined.find(|&k| k as u8 == kind);
        found.ok_or_else(|| err("unsupported kind"))
    }
}

/// The header of one v3 blob: what it carries and in which shape — with
/// the width table, the byte range of every limb in it. The format's
/// only header writer, only header parser and only length formula, and
/// in its `check` the bounds column of the module doc. `W` is how
/// the width table is held: the basis's `u32`s under a writer, the
/// blob's own bytes after [`Self::parse`].
#[derive(Debug)]
pub struct Layout<'a, W = u8> {
    kind: WireKind,
    n: usize,
    /// Per-limb residue bit widths; as many as the blob has limbs.
    widths: &'a [W],
    /// Key digits (kinds 3/4); a ciphertext counts as one.
    digits: usize,
    /// Kinds 1/2: the exact scale; 2: the mask seed; 4: the Galois element.
    scale: Option<Cow<'a, ExactScale>>,
    seed: Option<Seed>,
    element: Option<u64>,
}

impl<'a> Layout<'a> {
    /// Parses and bounds the header of `bytes` and checks the blob's
    /// exact length against it — all on borrowed bytes: nothing is
    /// allocated until the length has matched, and then the scale.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParams`] for a bad magic, version or kind, a
    /// truncated header, a field outside the module's bounds, and a blob
    /// not exactly as long as its header says.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CkksError> {
        let mut r = Reader(bytes);
        let kind = r.kind()?;
        let n = 1usize.checked_shl(r.u8()?.into()).unwrap_or(0);
        let limbs = usize::from(r.u16()?);
        let (mut raw_scale, mut digits) = (None, 1);
        if matches!(kind, WireKind::Full | WireKind::Compressed) {
            let exp = r.i32()?;
            let (num_len, den_len) = (usize::from(r.u16()?), usize::from(r.u16()?));
            raw_scale = Some((exp, r.take(num_len)?, Reader(r.take(8 * den_len)?)));
        } else {
            digits = usize::from(r.u16()?);
        }
        let seed = (kind == WireKind::Compressed).then(|| r.array().map(Seed));
        let element = (kind == WireKind::GaloisKey).then(|| r.u64());
        let mut layout = Layout {
            kind,
            n,
            widths: r.take(limbs)?,
            digits,
            scale: None,
            seed: seed.transpose()?,
            element: element.transpose()?,
        };
        layout.check()?;
        if r.0.len() != layout.payload_len() {
            return Err(err("payload length mismatch"));
        }
        // Minimal numerator bytes (and, in `from_raw_parts`, the scale
        // rows and a sorted denominator): a parsed blob re-serializes to
        // its own bytes.
        if let Some((exp, num, mut den)) = raw_scale {
            let den = std::iter::from_fn(|| den.u64().ok()).collect();
            let scale = ExactScale::from_raw_parts(UBig::from_le_bytes(num), exp, den)
                .filter(|_| num.last() != Some(&0))
                .ok_or_else(|| err("invalid scale encoding"))?;
            layout.scale = Some(Cow::Owned(scale));
        }
        Ok(layout)
    }
}

impl<'a, W: Copy + Into<u32>> Layout<'a, W> {
    pub(crate) fn ciphertext(
        n: usize,
        scale: &'a ExactScale,
        seed: Option<Seed>,
        widths: &'a [W],
    ) -> Self {
        Self {
            kind: seed.map_or(WireKind::Full, |_| WireKind::Compressed),
            n,
            widths,
            digits: 1,
            scale: Some(Cow::Borrowed(scale)),
            seed,
            element: None,
        }
    }

    fn key(n: usize, ksk: &KeySwitchKey, element: Option<u64>, widths: &'a [W]) -> Self {
        Self {
            kind: element.map_or(WireKind::EvalKey, |_| WireKind::GaloisKey),
            n,
            widths,
            digits: ksk.num_digits(),
            scale: None,
            seed: None,
            element,
        }
    }

    /// Which of the four kinds the blob is.
    pub fn kind(&self) -> WireKind {
        self.kind
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// RNS limbs per component (a ciphertext's prime count).
    pub fn limbs(&self) -> usize {
        self.widths.len()
    }

    fn widths(&self) -> impl Iterator<Item = u32> + 'a {
        self.widths.iter().map(|&w| w.into())
    }

    /// Bytes of one component (`limbs` polynomials): the unit of every length.
    fn component_len(&self) -> usize {
        self.widths().map(|w| packed_poly_bytes(self.n, w)).sum()
    }

    /// Components after the header: `b a` per digit, which for a
    /// ciphertext is `c0 c1` — less the `c1` a seed stands in for.
    fn component_count(&self) -> usize {
        2 * self.digits - usize::from(self.seed.is_some())
    }

    /// Bytes after the header.
    fn payload_len(&self) -> usize {
        self.component_count() * self.component_len()
    }

    /// Exact length of the whole blob: header fields, width table, payload.
    fn total_len(&self) -> usize {
        let fields = self.scale.as_ref().map_or(KEY_FIXED_HEADER, |scale| {
            let (num, _, den) = scale.raw_parts();
            FIXED_HEADER + num.bits().div_ceil(8) as usize + 8 * den.len()
        });
        let seed = self.seed.map_or(0, |s| s.0.len());
        fields + seed + self.element.map_or(0, |_| 8) + self.limbs() + self.payload_len()
    }

    /// The bounds column, refused by the parser and the serializers alike.
    fn check(&self) -> Result<(), CkksError> {
        let (counted, n) = (|x: usize| (1..=64).contains(&x), self.n as u64);
        if !self.n.is_power_of_two() || !(1..=20).contains(&self.n.trailing_zeros()) {
            return Err(err("implausible ring degree"));
        }
        if !counted(self.limbs()) {
            return Err(err("implausible prime count"));
        }
        if let Some(w) = self.widths().find(|&w| !counted(w as usize)) {
            return Err(err(format!("residue width {w} out of 1..=64")));
        }
        if !counted(self.digits) {
            return Err(err("implausible key shape"));
        }
        if self.element.is_some_and(|g| g % 2 == 0 || g >= 2 * n) {
            return Err(err("invalid Galois element"));
        }
        match &self.scale {
            Some(scale) if !scale.is_bounded() => Err(err("scale outside the format's bounds")),
            _ => Ok(()),
        }
    }

    /// The whole blob: every polynomial of `components` bit-packed to its
    /// limb's width, each into its own byte range on a fan-out of
    /// `threads` (`n` words a polynomial, element-wise).
    fn serialize<'c>(
        &self,
        components: impl IntoIterator<Item = &'c [Vec<u64>]>,
        threads: usize,
    ) -> Result<Vec<u8>, CkksError> {
        self.check()?;
        let mut polys: Vec<&[u64]> = Vec::new();
        for component in components {
            if component.len() != self.limbs() {
                let (widths, limbs) = (self.limbs(), component.len());
                return Err(err(format!("{widths} widths for {limbs} limbs")));
            }
            polys.extend(component.iter().map(Vec::as_slice));
        }
        let mut out = Vec::new();
        self.append(&mut out, |ranges| {
            let work = LimbWork::Elementwise;
            fanout::for_each_chunk(threads, ranges, self.n, work, |first, chunk| {
                for (range, words) in chunk.iter_mut().zip(&polys[first..]) {
                    range.pack(words);
                }
            });
        })?;
        Ok(out)
    }

    /// Appends the blob to `out`: the header, then the payload, which
    /// `fill` writes through one [`PolyOut`] per polynomial, in blob
    /// order (component-major), by packing each exactly once. The format's
    /// only writer: [`Self::serialize`] packs polynomials it holds, the
    /// fused upload ([`crate::CkksContext::encode_encrypt_into`]) each limb
    /// as it is computed. Every range is cut from `out`'s spare capacity
    /// before `fill` runs, so the payload is written once, in place.
    ///
    /// # Errors
    ///
    /// Refuses a layout outside the module's bounds before `out` is
    /// touched, and a residue past its width after `fill` (naming the
    /// first such residue of the first polynomial that has one), with
    /// `out` truncated back to its length on entry.
    ///
    /// # Panics
    ///
    /// Panics if `fill` leaves a range unpacked.
    pub(crate) fn append(
        &self,
        out: &mut Vec<u8>,
        fill: impl FnOnce(&mut [PolyOut<'_>]),
    ) -> Result<(), CkksError> {
        self.check()?;
        let start = out.len();
        out.reserve(self.total_len());
        self.write_header(out);
        let (header, payload) = (out.len(), self.payload_len());
        let mut free = &mut out.spare_capacity_mut()[..payload];
        let mut ranges = Vec::with_capacity(self.component_count() * self.limbs());
        for width in (0..self.component_count()).flat_map(|_| self.widths()) {
            let len = packed_poly_bytes(self.n, width);
            let (dst, rest) = std::mem::take(&mut free).split_at_mut(len);
            free = rest;
            ranges.push(PolyOut {
                dst,
                width,
                packed: false,
                over: None,
            });
        }
        fill(&mut ranges);
        assert!(ranges.iter().all(|r| r.packed), "a range left unpacked");
        let over = ranges.iter().find_map(|r| r.over.map(|x| (x, r.width)));
        drop(ranges);
        // SAFETY: the ranges tile `spare_capacity_mut()[..payload]` in
        // order, one per polynomial, and `pack_into` wrote every byte of
        // each (it panics otherwise) — each was packed, as just asserted.
        unsafe { out.set_len(header + payload) };
        match over {
            Some((residue, width)) => {
                out.truncate(start);
                Err(err(format!(
                    "residue {residue:#x} exceeds {width}-bit width"
                )))
            }
            None => Ok(()),
        }
    }

    /// The header, after `check` (every field then fits the integer it is
    /// written as), appended to `out`.
    fn write_header(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION_PACKED.to_le_bytes());
        out.extend([self.kind as u8, self.n.trailing_zeros() as u8]);
        out.extend_from_slice(&(self.limbs() as u16).to_le_bytes());
        if let Some(scale) = &self.scale {
            let (num, exp, den) = scale.raw_parts();
            let num = num.to_le_bytes();
            out.extend_from_slice(&exp.to_le_bytes());
            out.extend_from_slice(&(num.len() as u16).to_le_bytes());
            out.extend_from_slice(&(den.len() as u16).to_le_bytes());
            out.extend_from_slice(&num);
            out.extend(den.iter().flat_map(|q| q.to_le_bytes()));
        } else {
            out.extend_from_slice(&(self.digits as u16).to_le_bytes());
        }
        out.extend(self.seed.iter().flat_map(|s| s.0));
        out.extend(self.element.iter().flat_map(|g| g.to_le_bytes()));
        out.extend(self.widths().map(|w| w as u8));
    }

    /// Every component of the blob this layout was parsed from, unpacked
    /// in one pass at `threads`.
    fn components(&self, bytes: &[u8], threads: usize) -> impl Iterator<Item = Vec<Vec<u64>>> {
        let widths: Vec<u32> = self.widths().collect();
        let payload = &bytes[bytes.len() - self.payload_len()..];
        unpack_polys(payload, self.n, &widths, threads)
    }
}

/// Exact serialized size in the v3 packed format under `widths`.
pub fn packed_serialized_len(ct: &Ciphertext, widths: &[u32]) -> usize {
    Layout::ciphertext(ct.n(), ct.exact_scale(), None, widths).total_len()
}

/// Serializes a ciphertext to the v3 wire format, bit-packing each
/// residue polynomial to its prime's width. `widths` comes from the basis
/// ([`crate::CkksContext::wire_widths`]), one entry per carried prime.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if `widths` doesn't match the
/// ciphertext's prime count, a width is 0 or > 64, any residue does
/// not fit its declared width (corrupt data — packing it would emit a
/// blob that cannot round-trip), or the exact scale's representation is
/// outside the module's bounds (the parser would refuse the blob).
pub fn serialize_ciphertext_packed(ct: &Ciphertext, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    let (c0, c1) = ct.components();
    Layout::ciphertext(ct.n(), ct.exact_scale(), None, widths)
        .serialize([c0, c1], fanout::threads())
}

/// Deserializes a ciphertext from the wire format.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for malformed input: bad magic,
/// unsupported version/kind, truncated payload, inconsistent sizes, a
/// field outside the module's bounds, or an invalid scale encoding.
pub fn deserialize_ciphertext(bytes: &[u8]) -> Result<Ciphertext, CkksError> {
    let layout = Layout::parse(bytes)?;
    let (WireKind::Full, Some(scale)) = (layout.kind, &layout.scale) else {
        return Err(err("unsupported kind"));
    };
    let scale = scale.clone().into_owned();
    let mut components = layout.components(bytes, fanout::threads());
    let mut component = || components.next().expect("a full ciphertext has two").into();
    Ciphertext::from_limbs(component(), component(), scale)
}

/// Exact serialized size of a seed-compressed ciphertext under `widths`.
pub fn compressed_serialized_len(cct: &CompressedCiphertext, widths: &[u32]) -> usize {
    Layout::ciphertext(cct.n(), cct.exact_scale(), Some(cct.mask_seed()), widths).total_len()
}

/// Serializes a seed-compressed (symmetric) ciphertext to the v3 wire
/// format (kind 2): the 16-byte mask seed stands in for the whole `c1`
/// component — the upload format of a client that derives masks
/// on-chip. Errors as [`serialize_ciphertext_packed`].
pub fn serialize_compressed_ciphertext(
    cct: &CompressedCiphertext,
    widths: &[u32],
) -> Result<Vec<u8>, CkksError> {
    Layout::ciphertext(cct.n(), cct.exact_scale(), Some(cct.mask_seed()), widths)
        .serialize([cct.c0()], fanout::threads())
}

/// Deserializes a seed-compressed ciphertext (kind 2). Expand it back
/// into a full ciphertext with [`CompressedCiphertext::expand`]. Errors
/// as [`deserialize_ciphertext`].
pub fn deserialize_compressed_ciphertext(bytes: &[u8]) -> Result<CompressedCiphertext, CkksError> {
    let layout = Layout::parse(bytes)?;
    let (Some(scale), Some(mask_seed)) = (&layout.scale, layout.seed) else {
        return Err(err("unsupported kind"));
    };
    let (n, scale) = (layout.n, scale.clone().into_owned());
    let c0 = layout
        .components(bytes, fanout::threads())
        .next()
        .expect("one component");
    let c0 = c0.into();
    Ok(CompressedCiphertext {
        c0,
        mask_seed,
        scale,
        n,
    })
}

/// Exact serialized size of a key-switching key as an eval key (a
/// Galois key adds 8 bytes for the element field).
pub fn packed_key_len(ksk: &KeySwitchKey, widths: &[u32], n: usize) -> usize {
    Layout::key(n, ksk, None, widths).total_len()
}

/// Both key kinds: the header, then `b` and `a` of every digit.
fn serialize_ksk(ksk: &KeySwitchKey, g: Option<u64>, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    let n = ksk.b.iter().flatten().next().map_or(0, Vec::len);
    let pairs = ksk.b.iter().zip(&ksk.a);
    Layout::key(n, ksk, g, widths)
        .serialize(pairs.flat_map(|(b, a)| [&b[..], &a[..]]), fanout::threads())
}

/// Serializes a relinearization key to the v3 packed key format
/// (kind 3). `widths` comes from the basis, one entry per key limb.
/// Errors as [`serialize_ciphertext_packed`], the scale apart.
pub fn serialize_eval_key(key: &EvalKey, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    serialize_ksk(&key.ksk, None, widths)
}

/// Serializes a Galois key to the v3 packed key format (kind 4, the
/// Galois element in the header). Errors as [`serialize_eval_key`].
pub fn serialize_galois_key(key: &GaloisKey, widths: &[u32]) -> Result<Vec<u8>, CkksError> {
    serialize_ksk(&key.ksk, Some(key.element()), widths)
}

/// Both key kinds: the `b a` pair of every digit of a parsed blob.
fn unpack_ksk(bytes: &[u8], layout: &Layout) -> KeySwitchKey {
    let mut components = layout.components(bytes, fanout::threads());
    let mut component = || components.next().expect("two components a digit");
    let pairs = (0..layout.digits).map(|_| (component(), component()));
    let (b, a) = pairs.unzip();
    KeySwitchKey { b, a }
}

/// Deserializes a relinearization key (kind 3). Errors as
/// [`deserialize_ciphertext`].
pub fn deserialize_eval_key(bytes: &[u8]) -> Result<EvalKey, CkksError> {
    let layout = Layout::parse(bytes)?;
    if layout.kind != WireKind::EvalKey {
        return Err(err("unexpected key kind"));
    }
    let ksk = unpack_ksk(bytes, &layout);
    Ok(EvalKey { ksk })
}

/// Deserializes a Galois key (kind 4). Errors as
/// [`deserialize_ciphertext`], an invalid Galois element included.
pub fn deserialize_galois_key(bytes: &[u8]) -> Result<GaloisKey, CkksError> {
    let layout = Layout::parse(bytes)?;
    let Some(element) = layout.element else {
        return Err(err("unexpected key kind"));
    };
    let ksk = unpack_ksk(bytes, &layout);
    Ok(GaloisKey { element, ksk })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::evaluator;
    use crate::params::CkksParams;
    use abc_float::Complex;
    use abc_prng::Seed;

    /// [`pack_into`] appending to `out`: the packer as the oracles below
    /// compare it.
    fn pack_bits(out: &mut Vec<u8>, words: &[u64], width: u32) -> u64 {
        let len = packed_poly_bytes(words.len(), width);
        out.reserve(len);
        let seen = pack_into(&mut out.spare_capacity_mut()[..len], words, width);
        // SAFETY: `pack_into` wrote every byte of the `len` spare bytes
        // (it panics otherwise).
        unsafe { out.set_len(out.len() + len) };
        seen
    }

    /// [`unpack_into`] into a fresh vector.
    fn unpack_bits(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
        let mut words = vec![0; n];
        unpack_into(bytes, &mut words, width);
        words
    }

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

    /// [`pack_bits`] against the byte-at-a-time oracle, at every width.
    mod group_packer {
        use super::{pack_bits, pack_bits_bytewise};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn keeps_the_bytewise_stream(len in 0usize..=1024, salt in any::<u64>()) {
                // A length that is a multiple of 8 one time in eight: full
                // groups, and the bytewise tail after them.
                for width in 1u32..=64 {
                    let mask = u64::MAX >> (64 - width);
                    let words: Vec<u64> = (0..len as u64)
                        .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                        .collect();
                    let mut want = vec![0x5A];
                    pack_bits_bytewise(&mut want, &words, width);
                    let mut got = vec![0x5A];
                    let seen = pack_bits(&mut got, &words, width);
                    prop_assert_eq!(&got, &want, "w={} len={}", width, len);
                    prop_assert_eq!(seen, words.iter().fold(0, |a, &x| a | x));
                }
            }
        }
    }

    /// The byte-at-a-time reader: `n` words of `width` bits, LSB-first.
    fn unpack_bits_bytewise(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
        let mask = u64::MAX >> (64 - width);
        let (mut acc, mut nbits, mut bytes) = (0u128, 0u32, bytes.iter());
        let mut word = || {
            while nbits < width {
                acc |= u128::from(*bytes.next().expect("payload long enough")) << nbits;
                nbits += 8;
            }
            let x = acc as u64 & mask;
            (acc, nbits) = (acc >> width, nbits - width);
            x
        };
        (0..n).map(|_| word()).collect()
    }

    /// [`unpack_bits`] against the byte-at-a-time reader, at every width.
    mod group_unpacker {
        use super::{packed_poly_bytes, unpack_bits, unpack_bits_bytewise};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn keeps_the_bytewise_stream(len in 0usize..=1024, salt in any::<u64>()) {
                // Random payload bytes: the bits past the last word of a
                // partial last byte are set as often as not, and always
                // in the last byte.
                let mut x = salt;
                for width in 1u32..=64 {
                    let mut payload: Vec<u8> = (0..packed_poly_bytes(len, width))
                        .map(|_| {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (x >> 56) as u8
                        })
                        .collect();
                    if let Some(last) = payload.last_mut() {
                        *last |= 0x80;
                    }
                    let want = unpack_bits_bytewise(&payload, len, width);
                    let got = unpack_bits(&payload, len, width);
                    prop_assert_eq!(got, want, "w={} len={}", width, len);
                }
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
    fn over_width_residue_is_named_alike_at_every_thread_count() {
        // 2 components × 4 limbs × 2^13 words = 2^16 words: the packer
        // and the unpacker fan out from two threads on.
        let (n, widths) = (1usize << 13, [39u32, 36, 36, 36]);
        let scale = sample_ct().1.exact_scale().clone();
        let component = |salt: u64| -> Vec<Vec<u64>> {
            let residue = |i: usize, j: u64| {
                (j ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - widths[i])
            };
            (0..widths.len())
                .map(|i| (0..n as u64).map(|j| residue(i, j)).collect())
                .collect()
        };
        let (c0, c1) = (component(1), component(2));
        let layout = Layout::ciphertext(n, &scale, None, &widths);
        let good = layout.serialize([&c0[..], &c1[..]], 1).expect("pack");
        let last = widths.len() - 1;
        for threads in 1..=4 {
            let blob = layout.serialize([&c0[..], &c1[..]], threads).expect("pack");
            assert_eq!(blob, good, "threads={threads}");
            let parsed = Layout::parse(&good).expect("parse");
            let back: Vec<_> = parsed.components(&good, threads).collect();
            assert_eq!(back, [c0.clone(), c1.clone()], "threads={threads}");
            // A residue past its width in the first limb of c0 or the last
            // of c1; a second one further on is not the one named.
            for (in_c1, limb, at) in [(false, 0, 0), (false, 0, n - 1), (true, last, n - 1)] {
                let (mut bad0, mut bad1) = (c0.clone(), c1.clone());
                let poly = if in_c1 {
                    &mut bad1[limb]
                } else {
                    &mut bad0[limb]
                };
                let residue = poly[at] | 1 << widths[limb];
                poly[at] = residue;
                if !in_c1 {
                    bad1[last][0] |= 1 << widths[last];
                }
                match layout.serialize([&bad0[..], &bad1[..]], threads) {
                    Err(CkksError::InvalidParams(msg)) => assert_eq!(
                        msg,
                        format!(
                            "wire: residue {residue:#x} exceeds {}-bit width",
                            widths[limb]
                        )
                    ),
                    other => panic!("threads={threads} c1={in_c1} limb={limb}: {other:?}"),
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

    /// A kind-1 and a kind-2 blob of the same message, each with its
    /// deserializer boiled down to "was it accepted".
    type Accepts = fn(&[u8]) -> Result<(), CkksError>;
    fn both_ciphertext_kinds() -> [(Vec<u8>, Accepts); 2] {
        let (ctx, ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let (sk, _) = ctx.keygen(Seed::from_u128(21));
        let pt = ctx.encode(&[Complex::new(0.1, 0.2); 4]).expect("encode");
        let cct =
            crate::symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(22));
        [
            (
                serialize_ciphertext_packed(&ct, &widths).expect("pack"),
                |b| deserialize_ciphertext(b).map(drop),
            ),
            (
                serialize_compressed_ciphertext(&cct, &widths).expect("pack"),
                |b| deserialize_compressed_ciphertext(b).map(drop),
            ),
        ]
    }

    /// `blob` with the fresh scale's `num = 1`, `den = []` replaced.
    fn with_scale_payload(blob: &[u8], num: &[u8], den: &[u64]) -> Vec<u8> {
        let mut out = blob[..FIXED_HEADER - 4].to_vec();
        out.extend_from_slice(&(num.len() as u16).to_le_bytes());
        out.extend_from_slice(&(den.len() as u16).to_le_bytes());
        out.extend_from_slice(num);
        out.extend(den.iter().flat_map(|q| q.to_le_bytes()));
        out.extend_from_slice(&blob[FIXED_HEADER + 1..]);
        out
    }

    fn assert_typed_rejection(accepts: Accepts, blob: &[u8], what: &str) {
        match accepts(blob) {
            Err(CkksError::InvalidParams(msg)) => assert!(msg.starts_with("wire: "), "{what}"),
            other => panic!("{what}: {other:?}"),
        }
    }

    #[test]
    fn scale_exponent_outside_the_bounds_is_rejected() {
        // Accepted, `i32::MIN` held the decoding thread for minutes:
        // `ldexp` by the exponent, per coefficient.
        let max = ExactScale::MAX_EXP;
        for (good, accepts) in both_ciphertext_kinds() {
            for exp in [i32::MIN, i32::MAX, 1 << 25, -(1 << 25), max + 1, -max - 1] {
                let mut blob = good.clone();
                blob[10..14].copy_from_slice(&exp.to_le_bytes());
                assert_typed_rejection(accepts, &blob, &format!("exp {exp}"));
            }
            let mut blob = good.clone();
            blob[10..14].copy_from_slice(&ExactScale::MAX_EXP.to_le_bytes());
            accepts(&blob).expect("the bound itself is inside");
        }
    }

    #[test]
    fn scale_denominator_and_numerator_are_bounded_and_canonical() {
        let q = 0xF_FFF0_0001u64;
        for (good, accepts) in both_ciphertext_kinds() {
            let reject = |num: &[u8], den: &[u64], what: &str| {
                assert_typed_rejection(accepts, &with_scale_payload(&good, num, den), what);
            };
            // Accepted, 65535 entries cost seconds: the product is quadratic.
            reject(&[1], &vec![q; 65535], "den_len 65535");
            reject(
                &[1],
                &vec![q; ExactScale::MAX_DEN_LEN + 1],
                "den_len past the bound",
            );
            reject(&[1], &[q - 1], "even denominator entry");
            reject(&[1], &[1], "denominator entry of 1");
            reject(&[1], &[0], "denominator entry of 0");
            reject(&[1], &[q, q - 2], "descending denominator");
            let mut wide = vec![0u8; ExactScale::MAX_NUM_BYTES + 1];
            (wide[0], wide[ExactScale::MAX_NUM_BYTES]) = (1, 1);
            reject(&wide, &[], "numerator a byte past the bound");
            reject(&[1, 0], &[], "numerator with a trailing zero byte");
            reject(&[2], &[], "even numerator");
            reject(&[], &[], "empty numerator");
            // The bounds themselves are inside, and the header length
            // the layout computes still finds the payload.
            wide.pop();
            wide[ExactScale::MAX_NUM_BYTES - 1] = 1;
            let full = with_scale_payload(&good, &wide, &vec![q; ExactScale::MAX_DEN_LEN]);
            accepts(&full).expect("largest scale the format carries");
        }
    }

    #[test]
    fn a_scale_the_parser_would_refuse_is_not_written() {
        // Was a documented panic (for lengths past `u16`) or a blob no
        // deserializer takes back (for anything else).
        let (ctx, mut ct) = sample_ct();
        let widths = ctx.wire_widths(ct.num_primes());
        let half = ExactScale::from_log2(ExactScale::MAX_EXP as u32 / 2 + 1);
        ct.scale = half.mul(&half);
        let refused = serialize_ciphertext_packed(&ct, &widths);
        assert_eq!(
            refused.err(),
            Some(CkksError::InvalidParams(
                "wire: scale outside the format's bounds".to_owned()
            ))
        );
        ct.scale = (0..=ExactScale::MAX_DEN_LEN).fold(half, |s, _| s.div_prime(97));
        assert!(serialize_ciphertext_packed(&ct, &widths).is_err());
    }

    #[test]
    fn a_squaring_chain_past_depth_7_survives_the_wire() {
        // `mul` concatenates the operands' denominators and adds their
        // exponents: k squarings with a rescale each carry 2^k − 1
        // dropped primes and a 2^k-fold exponent at a value still near Δ.
        // Bounds of 128 entries and 2^15 refused this ciphertext at depth
        // 8, well inside the modulus budget.
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(6)
                .num_primes(10)
                .secret_hamming_weight(Some(16))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(31));
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(32));
        let x = Complex::new(0.995, 0.0);
        let pt = ctx.encode(&[x; 32]).expect("encode");
        let mut ct = ctx.encrypt(&pt, &pk, Seed::from_u128(33));
        for depth in 1..=9u32 {
            let squared = evaluator::mul_relin(&ctx, &ct, &ct, &evk).expect("square");
            ct = evaluator::rescale(&ctx, &squared).expect("rescale");
            let (_, exp, den) = ct.exact_scale().raw_parts();
            assert_eq!((den.len(), exp), ((1 << depth) - 1, 36 << depth));
            let widths = ctx.wire_widths(ct.num_primes());
            let blob = serialize_ciphertext_packed(&ct, &widths).expect("pack");
            assert_eq!(blob.len(), packed_serialized_len(&ct, &widths));
            assert_eq!(
                deserialize_ciphertext(&blob).expect("wire"),
                ct,
                "depth {depth}"
            );
        }
        let out = ctx
            .decode(&ctx.decrypt(&ct, &sk).expect("decrypt"))
            .expect("decode");
        let want = 0.995f64.powi(512);
        assert!((out[0].re - want).abs() < 1e-2, "{} vs {want}", out[0].re);
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
