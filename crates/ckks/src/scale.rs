//! Exact rational scale bookkeeping for ciphertexts and plaintexts.
//!
//! A CKKS scale starts life as a power of two (Δ = 2^36, or
//! Δ_eff = 2^72 under the double-scale technique) and is then *divided
//! by RNS primes* as rescaling drops them. The primes are close to — but
//! never exactly — powers of two, so an `f64` updated by repeated
//! division drifts: over the paper's 24-prime chain the accumulated
//! representation error corrupts the low bits of every decoded
//! coefficient. [`ExactScale`] instead tracks the scale as the exact
//! rational
//!
//! ```text
//!           num · 2^exp
//! scale = ──────────────        (num odd, den = the dropped primes)
//!            ∏ den[i]
//! ```
//!
//! so decode always divides by the *true* scale. The numerator is a big
//! integer (products of encoding scales exceed `u64` quickly), and all
//! float conversions go through [`abc_float::ExtF64`] double-double
//! arithmetic so the single rounding happens at the very end.
//!
//! Decode divides every CRT-lifted coefficient by the scale through a
//! [`ScaleDivisor`]: one coefficient at a time ([`ScaleDivisor::apply_u128`],
//! [`ScaleDivisor::apply_ext`]) or a lifted block at a time
//! ([`ScaleDivisor::apply_block`], eight words per step on AVX-512F
//! and bit-identical to `apply_u128`).
//!
//! `PartialEq` compares *representations*. Normalization (odd `num`,
//! sorted `den`) makes equal provenance compare equal — e.g. one fused
//! pair-rescale and two successive single rescales of the same
//! ciphertext produce identical `ExactScale`s.

use abc_float::ExtF64;
use abc_math::{CpuCaps, KernelTier, UBig};

/// An exact, positive rational scale: `num · 2^exp / ∏ den`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactScale {
    /// Odd numerator (normalization moves powers of two into `exp`).
    num: UBig,
    /// Binary exponent (may be negative).
    exp: i32,
    /// Dropped primes, sorted ascending (duplicates allowed).
    den: Vec<u64>,
}

impl ExactScale {
    /// The pure power-of-two scale `2^bits` — a fresh encoding scale.
    pub fn from_log2(bits: u32) -> Self {
        Self {
            num: UBig::one(),
            exp: bits as i32,
            den: Vec::new(),
        }
    }

    /// Represents a positive finite `f64` exactly (every `f64` is a
    /// dyadic rational). Returns `None` for zero, negative, or
    /// non-finite inputs.
    pub fn from_f64(x: f64) -> Option<Self> {
        if !(x > 0.0 && x.is_finite()) {
            return None;
        }
        let (_, mant, exp) = decompose_f64(x);
        let tz = mant.trailing_zeros();
        Some(Self {
            num: UBig::from(mant >> tz),
            exp: exp + tz as i32,
            den: Vec::new(),
        })
    }

    /// Largest `|exp|` of a scale that crosses the wire. The bounds here
    /// are on the *representation*, which `Self::mul` never reduces —
    /// squaring `k` times doubles `exp`, the numerator's length and the
    /// denominator's `k` times over while the value stays near `Δ` — so
    /// they come from what decode costs, not from how large a scale can
    /// meaningfully be. `ExtF64::ldexp` is O(1) for any exponent; this
    /// one only keeps the `i64` sums of `exp` and the two bit lengths
    /// (below `2^20` each) that `Self::to_f64` and [`Self::divisor`]
    /// narrow to `i32` far from wrapping.
    pub const MAX_EXP: i32 = 1 << 24;
    /// Longest numerator encoding in bytes. Its cost is linear; the
    /// bound caps what a header can make the parser allocate.
    pub(crate) const MAX_NUM_BYTES: usize = 8192;
    /// Most dropped primes. [`Self::divisor`] multiplies them out one
    /// word at a time, which is quadratic: 20–40 ms here, against seconds
    /// for the 65535 the length field could say. A chain of `k` squarings
    /// with a rescale each holds `2^k − 1` entries (twice that when
    /// rescales drop prime pairs), so this is depth 13 (12).
    pub(crate) const MAX_DEN_LEN: usize = 8192;

    /// Reassembles a scale from its raw parts (wire deserialization):
    /// `Some` exactly for what [`Self::raw_parts`] of a scale inside the
    /// bounds above can return — `num` odd, `|exp| ≤` [`Self::MAX_EXP`],
    /// `num` within 8192 bytes, at most 8192 denominator entries, each
    /// odd and above 1, in ascending order. [`Self::to_f64`], encode's
    /// rounding and [`Self::divisor`] cost time polynomial in those
    /// sizes, which is why outside input is held to them here.
    pub(crate) fn from_raw_parts(num: UBig, exp: i32, den: Vec<u64>) -> Option<Self> {
        let scale = Self { num, exp, den };
        (scale.is_bounded() && scale.den.is_sorted()).then_some(scale)
    }

    /// Whether the scale is one [`Self::from_raw_parts`] accepts, i.e.
    /// one the wire format carries.
    pub(crate) fn is_bounded(&self) -> bool {
        self.num.trailing_zeros() == 0
            && !self.num.is_zero()
            && self.num.bits() as usize <= 8 * Self::MAX_NUM_BYTES
            && self.exp.unsigned_abs() <= Self::MAX_EXP.unsigned_abs()
            && self.den.len() <= Self::MAX_DEN_LEN
            && self.den.iter().all(|&q| q % 2 == 1 && q > 1)
    }

    /// The raw parts `(num, exp, den)` — the wire codec's view.
    pub fn raw_parts(&self) -> (&UBig, i32, &[u64]) {
        (&self.num, self.exp, &self.den)
    }

    /// The primes this scale has been divided by (rescale history).
    pub fn dropped_primes(&self) -> &[u64] {
        &self.den
    }

    /// `Some(e)` iff the scale is exactly `2^e`.
    pub(crate) fn as_pow2(&self) -> Option<i32> {
        // `num` is normalized: one bit means one.
        if self.den.is_empty() && self.num.bits() == 1 {
            Some(self.exp)
        } else {
            None
        }
    }

    /// Product of two scales (plaintext–ciphertext multiplication).
    #[must_use]
    pub(crate) fn mul(&self, other: &Self) -> Self {
        let mut den = [self.den.as_slice(), other.den.as_slice()].concat();
        den.sort_unstable();
        Self {
            num: self.num.mul(&other.num),
            exp: self.exp + other.exp,
            den,
        }
    }

    /// The scale after dropping prime `q` (one rescale step).
    ///
    /// # Panics
    ///
    /// Panics if `q` is zero.
    #[must_use]
    pub fn div_prime(&self, q: u64) -> Self {
        assert!(q != 0, "cannot divide a scale by zero");
        let mut den = self.den.clone();
        den.push(q);
        den.sort_unstable();
        Self {
            num: self.num.clone(),
            exp: self.exp,
            den,
        }
    }

    /// The scale as `f64`, correctly rounded via double-double
    /// arithmetic (exact for power-of-two scales).
    pub(crate) fn to_f64(&self) -> f64 {
        match self.as_pow2() {
            Some(e) if (-1022..=1023).contains(&e) => abc_float::extended::pow2(e),
            _ => {
                let (nm, ne) = ubig_ext(&self.num);
                let (dm, de) = ubig_ext(&den_product(&self.den));
                (nm / dm).ldexp((ne - de + self.exp as i64) as i32).to_f64()
            }
        }
    }

    /// Precomputes the denominator product for repeated
    /// [`ScaleRounder::round`] calls (encode rounds `N` coefficients at
    /// one scale).
    pub(crate) fn rounder(&self) -> ScaleRounder<'_> {
        ScaleRounder {
            scale: self,
            den_product: den_product(&self.den),
        }
    }

    /// Precomputes the reciprocal factors decode applies to every
    /// CRT-lifted coefficient (`N` coefficients share one scale).
    pub fn divisor(&self) -> ScaleDivisor {
        let (nm, ne) = ubig_ext(&self.num);
        let (dm, de) = ubig_ext(&den_product(&self.den));
        ScaleDivisor {
            factor: dm / nm,
            exp: de - ne - self.exp as i64,
        }
    }
}

/// The exact Δ-rounding kernel of one [`ExactScale`], with the
/// denominator product hoisted out of the per-coefficient loop.
#[derive(Debug, Clone)]
pub(crate) struct ScaleRounder<'a> {
    scale: &'a ExactScale,
    /// `∏den`, computed once per encode.
    den_product: UBig,
}

impl ScaleRounder<'_> {
    /// Rounds `x · scale` to the nearest integer (ties away from zero,
    /// matching `f64::round`), exactly, as a sign and magnitude — the
    /// double-scale encode path, where `x · 2^72` exceeds the `f64`
    /// mantissa.
    ///
    /// Returns zero for `x == 0`; the caller guards non-finite inputs.
    pub(crate) fn round(&self, x: f64) -> (bool, UBig) {
        if x == 0.0 {
            return (false, UBig::zero());
        }
        debug_assert!(x.is_finite());
        let (negative, mant, mant_exp) = decompose_f64(x);
        self.round_mantissa(negative, UBig::from(mant), mant_exp as i64)
    }

    /// [`Self::round`] for a double-double input: the `ExtF64` embedding
    /// datapath's Δ-quantizer. Both components are dyadic rationals, so
    /// `x = hi + lo` combines into one exact big-integer mantissa
    /// (`|lo| ≤ ulp(hi)/2` guarantees `hi`'s sign and exponent dominate)
    /// and the rounding is exact — no bit of the ~106-bit coefficient is
    /// discarded before the single final rounding.
    pub(crate) fn round_ext(&self, x: ExtF64) -> (bool, UBig) {
        if x.lo() == 0.0 {
            return self.round(x.hi());
        }
        debug_assert!(x.hi().is_finite() && x.lo().is_finite());
        let (neg_h, mh, eh) = decompose_f64(x.hi());
        let (neg_l, ml, el) = decompose_f64(x.lo());
        // |lo| < |hi| ⇒ eh ≥ el once both are in mantissa·2^exp form.
        let shift = (eh as i64 - el as i64) as u32;
        let hi_big = UBig::from(mh).shl(shift);
        let mant = if neg_h == neg_l {
            hi_big.add(&UBig::from(ml))
        } else {
            hi_big.sub(&UBig::from(ml))
        };
        self.round_mantissa(neg_h, mant, el as i64)
    }

    /// Shared kernel: `round(±mant·2^e · scale)` exactly.
    fn round_mantissa(&self, negative: bool, mant: UBig, mant_exp: i64) -> (bool, UBig) {
        // |x|·scale = T · 2^E / P with T = num·mant, P = ∏den.
        let t = self.scale.num.mul(&mant);
        let e = self.scale.exp as i64 + mant_exp;
        // round(T·2^E/P) with ties away from zero is
        // floor((2·T·2^E + P') / (2·P')) where P' absorbs negative E;
        // nested floor divisions by the positive factors are exact.
        let (doubled, den_shift) = if e >= 0 {
            (t.shl(e as u32 + 1), 0u32)
        } else {
            (t.shl(1), (-e) as u32)
        };
        let p_shifted = self.den_product.shl(den_shift);
        let mut acc = doubled.add(&p_shifted);
        for &q in &self.scale.den {
            acc = acc.div_rem_u64(q).0;
        }
        let mag = acc.shr(den_shift + 1);
        if mag.is_zero() {
            (false, mag)
        } else {
            (negative, mag)
        }
    }
}

/// The precomputed reciprocal of an [`ExactScale`]: maps an exactly
/// CRT-lifted centered coefficient to its real value `coeff / scale` with
/// one final rounding.
#[derive(Debug, Clone, Copy)]
pub struct ScaleDivisor {
    /// `∏den / num` as a normalized double-double.
    factor: ExtF64,
    /// Binary exponent completing the reciprocal.
    exp: i64,
}

impl ScaleDivisor {
    /// `±mag / scale` in double-double precision — the `ExtF64`
    /// embedding datapath's decode entry: the quotient keeps ~106
    /// significant bits so the FFT sees the full Δ_eff = 2^72 payload
    /// instead of an `f64`-truncated view.
    pub fn apply_ext(&self, negative: bool, mag: &UBig) -> ExtF64 {
        if mag.is_zero() {
            return ExtF64::zero();
        }
        let (xm, xe) = ubig_ext(mag);
        self.scale_mantissa(negative, xm, xe)
    }

    /// [`Self::apply_ext`] for a magnitude that fits a word pair — what
    /// the word-sized CRT lift produces. Bit-identical to `apply_ext`
    /// on the same value, for every `u128` (magnitudes past 106 bits
    /// drop the same low bits).
    pub fn apply_u128(&self, negative: bool, mag: u128) -> ExtF64 {
        if mag == 0 {
            return ExtF64::zero();
        }
        let shift = (128 - mag.leading_zeros()).saturating_sub(106);
        self.scale_mantissa(negative, ExtF64::from_u106(mag >> shift), shift as i64)
    }

    /// [`Self::apply_u128`] of every centered word of `xs` (`|x|` with
    /// the sign of `x`) into `out` — decode's division of a lifted
    /// block. `tier` is the rung of the lift that produced the block
    /// ([`abc_math::rns::WordLift::tier`]): on `Simd` an AVX-512F host
    /// divides eight words per step with
    /// [`abc_float::extended::mul_words_x8`], the scalar sequence on
    /// `f64` lanes and so bit-identical; a word of `2^106` or more,
    /// every word of a scale whose exponent leaves `±900`, the sub-8
    /// tail and the `Scalar` rung take `apply_u128` itself.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `xs`.
    pub fn apply_block(&self, tier: KernelTier, xs: &[i128], out: &mut [ExtF64]) {
        let out = &mut out[..xs.len()];
        let scalar = |x: i128| self.apply_u128(x < 0, x.unsigned_abs());
        let simd_ok = CpuCaps::detect().avx512f && (-900..=900).contains(&self.exp);
        let done = match tier.degrade(simd_ok) {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => {
                abc_float::extended::mul_words_x8(xs, self.factor, self.exp as i32, out, scalar)
            }
            _ => 0,
        };
        for (o, &x) in out[done..].iter_mut().zip(&xs[done..]) {
            *o = scalar(x);
        }
    }

    /// `±xm·2^xe / scale`.
    fn scale_mantissa(&self, negative: bool, xm: ExtF64, xe: i64) -> ExtF64 {
        let v = (xm * self.factor).ldexp((xe + self.exp) as i32);
        if negative {
            -v
        } else {
            v
        }
    }
}

/// Splits a finite nonzero `f64` into `(sign, mantissa, exponent)` with
/// `|x| = mantissa · 2^exponent` exactly.
fn decompose_f64(x: f64) -> (bool, u64, i32) {
    debug_assert!(x.is_finite() && x != 0.0);
    let bits = x.abs().to_bits();
    let raw_exp = (bits >> 52) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if raw_exp == 0 {
        (x < 0.0, frac, -1074) // subnormal
    } else {
        (x < 0.0, frac | (1u64 << 52), raw_exp - 1075)
    }
}

/// `∏den` as a big integer (1 for the empty product).
fn den_product(den: &[u64]) -> UBig {
    den.iter().fold(UBig::one(), |acc, &q| acc.mul_u64(q))
}

/// Normalizes a big integer to `(mantissa, exp)` with the mantissa a
/// double-double holding the top ≤106 bits exactly and
/// `value ≈ mantissa · 2^exp` (exact when `bits() ≤ 106`).
fn ubig_ext(x: &UBig) -> (ExtF64, i64) {
    let shift = x.bits().saturating_sub(106);
    let top = if shift == 0 {
        x.to_u128()
    } else {
        x.shr(shift).to_u128()
    }
    .expect("106-bit prefix");
    (ExtF64::from_u106(top), shift as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_scales_are_exact() {
        let s = ExactScale::from_log2(72);
        assert_eq!(s.as_pow2(), Some(72));
        assert_eq!(s.to_f64(), 2f64.powi(72));
        let t = ExactScale::from_f64(2f64.powi(36)).expect("positive");
        assert_eq!(t.as_pow2(), Some(36));
        assert_eq!(s.mul(&t).as_pow2(), Some(108));
    }

    #[test]
    fn from_f64_is_exact_rational() {
        assert!(ExactScale::from_f64(0.0).is_none());
        assert!(ExactScale::from_f64(-1.0).is_none());
        assert!(ExactScale::from_f64(f64::INFINITY).is_none());
        for x in [1.5, 0.1, 3.75e10, 2f64.powi(-40) * 3.0] {
            let s = ExactScale::from_f64(x).expect("positive finite");
            assert_eq!(s.to_f64(), x, "x = {x}");
        }
    }

    #[test]
    fn division_by_primes_tracks_exact_product() {
        // Δ² / (q0·q1) as f64 must match the big-rational evaluation,
        // not a drifted repeated division.
        let q0 = 0xF_FFF0_0001u64; // 2^36 - 2^20 + 1
        let q1 = 0xF_FFEA_C001u64;
        let s = ExactScale::from_log2(72)
            .mul(&ExactScale::from_log2(72))
            .div_prime(q0)
            .div_prime(q1);
        let expect = 2f64.powi(144) / (q0 as f64 * q1 as f64);
        let got = s.to_f64();
        assert!(
            ((got - expect) / expect).abs() < 1e-14,
            "got {got}, expect ~{expect}"
        );
        assert_eq!(s.dropped_primes(), &[q1.min(q0), q1.max(q0)]);
        assert_eq!(s.as_pow2(), None);
    }

    #[test]
    fn rescale_order_is_canonical() {
        let a = ExactScale::from_log2(72).div_prime(97).div_prime(101);
        let b = ExactScale::from_log2(72).div_prime(101).div_prime(97);
        assert_eq!(a, b);
    }

    #[test]
    fn round_scaled_matches_f64_inside_the_mantissa() {
        // Where f64 is exact (|x·Δ| < 2^53), the exact path must agree
        // with the classic `(x * Δ).round()`.
        let s = ExactScale::from_log2(36);
        for x in [0.0, 1.0, -1.0, 0.3333, -2.717, 1e-9, -4.9e-5] {
            let (neg, mag) = s.rounder().round(x);
            let classic = (x * 2f64.powi(36)).round();
            assert_eq!(neg, classic < 0.0 && classic != 0.0, "x = {x}");
            assert_eq!(mag.to_f64(), classic.abs(), "x = {x}");
        }
    }

    #[test]
    fn round_scaled_beyond_f64_mantissa() {
        // x·2^72 for an f64 x is still exact: the result is x's mantissa
        // shifted — verify against the direct mantissa computation.
        let s = ExactScale::from_log2(72);
        let x = 0.75 + 2f64.powi(-50);
        let (neg, mag) = s.rounder().round(x);
        assert!(!neg);
        // x = (3·2^48 + 1)·2^-50, so x·2^72 = (3·2^48 + 1)·2^22.
        let expect = UBig::from(3u64 * (1 << 48) + 1).shl(22);
        assert_eq!(mag, expect);
    }

    #[test]
    fn round_scaled_ties_away_from_zero() {
        // scale 1/2: x = 3 → 1.5 → 2 (away from zero), x = -3 → -2.
        let s = ExactScale::from_f64(0.5).expect("positive");
        let (neg, mag) = s.rounder().round(3.0);
        assert!(!neg);
        assert_eq!(mag, UBig::from(2u64));
        let (neg, mag) = s.rounder().round(-3.0);
        assert!(neg);
        assert_eq!(mag, UBig::from(2u64));
    }

    #[test]
    fn round_scaled_rational_denominator() {
        // scale = 2^40/97: x·scale for x = 97 is exactly 2^40.
        let s = ExactScale::from_log2(40).div_prime(97);
        let (neg, mag) = s.rounder().round(97.0);
        assert!(!neg);
        assert_eq!(mag, UBig::from(1u64).shl(40));
        // x = 1: 2^40/97 = 11334717724.4... → rounds to 11334717724.
        let (_, mag) = s.rounder().round(1.0);
        assert_eq!(mag, UBig::from((1u64 << 40) / 97));
    }

    #[test]
    fn divisor_inverts_round_scaled() {
        // decode(encode(x)) at a non-trivial rational scale recovers x
        // up to the ±½ quantization at that scale (≈2^36 here), i.e.
        // an absolute slot error below 2^-36.
        let s = ExactScale::from_log2(72).div_prime(0xF_FFF0_0001);
        let div = s.divisor();
        let quant = 0.5 / s.to_f64();
        for x in [1.0, -0.731, 1e-3, -123.456] {
            let (neg, mag) = s.rounder().round(x);
            let back = div.apply_ext(neg, &mag).to_f64();
            assert!(
                (back - x).abs() <= quant * (1.0 + x.abs()),
                "x = {x}, back = {back}"
            );
        }
    }

    #[test]
    fn round_ext_agrees_with_round_on_f64_inputs() {
        // lo == 0 must take the identical path (encode bit-compat for
        // the f64 embedding datapath).
        let s = ExactScale::from_log2(72).div_prime(0xF_FFF0_0001);
        let r = s.rounder();
        for x in [0.0, 1.0, -0.731, 1e-3, -123.456, 0.5 + 2f64.powi(-40)] {
            assert_eq!(r.round_ext(ExtF64::from_f64(x)), r.round(x), "x = {x}");
        }
    }

    #[test]
    fn round_ext_keeps_bits_beyond_the_f64_mantissa() {
        // x = 1 + 2^-70: at Δ = 2^72 the exact product is 2^72 + 4. A
        // plain f64 coefficient would have dropped the tail entirely.
        let s = ExactScale::from_log2(72);
        let r = s.rounder();
        let x = ExtF64::from_f64(1.0) + ExtF64::from_f64(2f64.powi(-70));
        let (neg, mag) = r.round_ext(x);
        assert!(!neg);
        assert_eq!(mag, UBig::from(1u64).shl(72).add(&UBig::from(4u64)));
        // Negative lo component: 1 − 2^-70 → 2^72 − 4.
        let y = ExtF64::from_f64(1.0) - ExtF64::from_f64(2f64.powi(-70));
        let (neg, mag) = r.round_ext(y);
        assert!(!neg);
        assert_eq!(mag, UBig::from(1u64).shl(72).sub(&UBig::from(4u64)));
        // And the divisor inverts it losslessly in extended precision.
        let back = s.divisor().apply_ext(false, &mag);
        let residual = back - y;
        assert_eq!(residual.to_f64(), 0.0);
    }

    #[test]
    fn round_ext_rational_scale_matches_bigint_model() {
        // scale = 2^80/q: feed x = hi + lo with a live lo component and
        // verify against an independent i128/UBig evaluation.
        let q = 97u64;
        let s = ExactScale::from_log2(80).div_prime(q);
        let r = s.rounder();
        let x = ExtF64::from_f64(3.0) + ExtF64::from_f64(2f64.powi(-60));
        // x·2^80 = 3·2^80 + 2^20 exactly; round(x·2^80/97):
        let t = UBig::from(3u64).shl(80).add(&UBig::from(1u64 << 20));
        let expect = t.mul_u64(2).add(&UBig::from(q)).div_rem_u64(2 * q).0;
        let (neg, mag) = r.round_ext(x);
        assert!(!neg);
        assert_eq!(mag, expect);
    }

    #[test]
    fn divisor_is_bit_exact_for_pow2_scales() {
        // The double-scale decode: integer / 2^72 must equal the
        // correctly rounded f64 cast — bit for bit.
        let s = ExactScale::from_log2(72);
        let div = s.divisor();
        for v in [1u128 << 72, (1 << 72) + (1 << 19), (1 << 74) - 1, 12345] {
            let got = div.apply_ext(false, &UBig::from(v)).to_f64();
            let expect = (v as f64) / 2f64.powi(72);
            assert_eq!(got.to_bits(), expect.to_bits(), "v = {v}");
            assert_eq!(div.apply_ext(true, &UBig::from(v)).to_f64(), -expect);
        }
    }

    #[test]
    fn raw_parts_roundtrip() {
        let s = ExactScale::from_log2(72).div_prime(97).div_prime(89);
        let (num, exp, den) = s.raw_parts();
        let back = ExactScale::from_raw_parts(num.clone(), exp, den.to_vec()).expect("valid parts");
        assert_eq!(back, s);
        assert!(ExactScale::from_raw_parts(UBig::zero(), 0, vec![]).is_none());
        assert!(ExactScale::from_raw_parts(UBig::from(2u64), 0, vec![]).is_none());
        assert!(ExactScale::from_raw_parts(UBig::one(), 0, vec![0]).is_none());
        // What outside input could make expensive or ambiguous.
        let parts = |exp: i32, den: Vec<u64>| ExactScale::from_raw_parts(UBig::one(), exp, den);
        assert!(parts(ExactScale::MAX_EXP, vec![]).is_some());
        assert!(parts(-ExactScale::MAX_EXP, vec![]).is_some());
        assert!(parts(ExactScale::MAX_EXP + 1, vec![]).is_none());
        assert!(parts(i32::MIN, vec![]).is_none());
        assert!(parts(0, vec![97; ExactScale::MAX_DEN_LEN]).is_some());
        assert!(parts(0, vec![97; ExactScale::MAX_DEN_LEN + 1]).is_none());
        assert!(parts(0, vec![1]).is_none());
        assert!(parts(0, vec![96]).is_none());
        assert!(parts(0, vec![97, 89]).is_none(), "not repaired: refused");
        let wide = UBig::one()
            .shl(8 * ExactScale::MAX_NUM_BYTES as u32)
            .add(&UBig::one());
        assert!(ExactScale::from_raw_parts(wide, 0, vec![]).is_none());
    }
}
