//! Double-double extended precision — the ≈106-bit real datapath the
//! double-scale encoding needs.
//!
//! With the paper's double-scale technique the effective encoding scale
//! is Δ_eff = 2^72, beyond the 53-bit mantissa of `f64`: a plain
//! `f64` multiply-and-cast on the decode side would throw away up to
//! 20 low bits of every CRT-lifted coefficient. [`ExtF64`] represents a
//! real number as an unevaluated sum `hi + lo` of two `f64`s with
//! `|lo| ≤ ulp(hi)/2`, giving ~106 significant bits — enough to divide
//! a 75-bit centered coefficient by the exact rational scale and round
//! *once*, at the very end, to `f64`.
//!
//! The arithmetic uses the classical error-free transforms (Knuth
//! two-sum, Dekker split product); no FMA is required, so results are
//! identical on every target.
//!
//! Decode divides a whole block of CRT-lifted words by one scale:
//! [`mul_words_x8`] (x86-64, AVX-512F) is the eight-lane twin of
//! [`ExtF64::from_u106`], the product and the power of two, the same
//! operations in the same order on `f64` lanes, so it is bit-identical
//! to them.
//!
//! # Example
//!
//! ```
//! use abc_float::ExtF64;
//!
//! // 2^72 + 1 is not representable in f64, but is in ExtF64.
//! let x = ExtF64::from_f64(2f64.powi(72)) + ExtF64::from_f64(1.0);
//! let back = x - ExtF64::from_f64(2f64.powi(72));
//! assert_eq!(back.to_f64(), 1.0);
//! ```

/// An extended-precision real: the unevaluated sum `hi + lo`, laid out
/// `hi` first (what [`mul_words_x8`] stores).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct ExtF64 {
    hi: f64,
    lo: f64,
}

/// Knuth's two-sum: `a + b = s + e` exactly, `s = fl(a + b)`.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Fast two-sum, valid when `|a| ≥ |b|`.
#[inline]
fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Dekker's splitting constant: 2^27 + 1.
const SPLIT: f64 = 134217729.0;

/// Dekker's two-product: `a · b = p + e` exactly (no FMA needed).
#[inline]
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, e)
}

/// Splits `a` into high/low 26-bit halves with `a = h + l` exactly.
#[inline]
fn split(a: f64) -> (f64, f64) {
    let t = SPLIT * a;
    let h = t - (t - a);
    (h, a - h)
}

impl ExtF64 {
    /// The value zero.
    pub fn zero() -> Self {
        Self { hi: 0.0, lo: 0.0 }
    }

    /// Lifts an `f64` exactly.
    pub fn from_f64(x: f64) -> Self {
        Self { hi: x, lo: 0.0 }
    }

    /// Builds from an unnormalized pair `a + b`.
    pub fn from_sum(a: f64, b: f64) -> Self {
        let (hi, lo) = two_sum(a, b);
        Self { hi, lo }
    }

    /// Lifts a `u64` exactly (64 bits exceed one mantissa; the residual
    /// lands in `lo` via an exact integer difference).
    pub fn from_u64(x: u64) -> Self {
        let hi = x as f64; // rounds: |error| ≤ 2^11
        let lo = (x as i128 - hi as i128) as f64; // exact small integer
        Self { hi, lo }
    }

    /// Lifts an integer below `2^106` exactly: its top and bottom 53
    /// bits are each an exact `f64`, joined by a two-sum.
    ///
    /// # Panics
    ///
    /// Debug-asserts `x < 2^106`.
    pub fn from_u106(x: u128) -> Self {
        debug_assert!(x >> 106 == 0);
        let hi = ((x >> 53) as u64) as f64 * pow2(53);
        let lo = (x as u64 & ((1u64 << 53) - 1)) as f64;
        Self::from_sum(hi, lo)
    }

    /// The leading component.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The trailing component (`|lo| ≤ ulp(hi)/2` after normalization).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Rounds to a single `f64`.
    pub fn to_f64(&self) -> f64 {
        self.hi + self.lo
    }

    /// Rounds to the nearest integer as `i128` (ties away from zero) —
    /// the double-scale encode quantizer, where the scaled coefficient
    /// exceeds one `f64` mantissa. When `lo == 0` this is exactly
    /// `hi.round()`, matching the plain-`f64` encode path bit for bit.
    /// With a live `lo` the fractional part is resolved *exactly* via a
    /// two-sum: a rounded `rem + lo` could collapse onto ±½ and misfire
    /// the tie rule even though the true value sits strictly off the
    /// tie (e.g. `hi = 2.5, lo = 2⁻⁶⁰` must round to 3, not 2).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `hi` is finite and within `i128` range.
    pub fn round_to_i128(&self) -> i128 {
        debug_assert!(self.hi.is_finite() && self.hi.abs() < 2f64.powi(120));
        if self.lo == 0.0 {
            // `hi.round() as i128` in integer arithmetic: |hi| = m·2^e
            // with the 53-bit significand m. Below 2^0 the half of the
            // dropped bits is added before they go (ties away from
            // zero); below ½ (e < −53: zeros and subnormals too) nothing
            // is left.
            let bits = self.hi.to_bits();
            let e = (bits >> 52 & 0x7ff) as i32 - 1075;
            let m = u128::from(bits & ((1 << 52) - 1) | 1 << 52);
            let mag = match e {
                ..-53 => 0,
                -53..=-1 => (m + (1 << (-e - 1))) >> -e,
                _ => m << e,
            } as i128;
            return if bits >> 63 == 0 { mag } else { -mag };
        }
        let rh = self.hi.round();
        // rem is exact (|hi − rh| ≤ ½ and both share an exponent range),
        // and two_sum keeps the fractional part exact: frac = s + e.
        let rem = self.hi - rh;
        let (s, e) = two_sum(rem, self.lo);
        let base = rh as i128;
        if s.abs() != 0.5 {
            // s is the correctly rounded f64 of frac and is not a tie
            // point, so its own rounding is decisive.
            return base + s.round() as i128;
        }
        // s = ±½: the true fractional part is ±½ + e. An exact tie
        // (e == 0) rounds away from zero of the *total* value.
        let away_from_zero = if rh != 0.0 { rh > 0.0 } else { s > 0.0 };
        if s > 0.0 {
            base + i128::from(e > 0.0 || (e == 0.0 && away_from_zero))
        } else {
            base - i128::from(e < 0.0 || (e == 0.0 && !away_from_zero))
        }
    }

    /// Exact scaling by 2^e (both components shift their exponents; no
    /// rounding while the results stay normal). Large shifts apply in
    /// two steps so the scale factor itself never leaves the `f64`
    /// exponent range, and any `i32` costs a handful of multiplies:
    /// past ±2200 every `f64` has already left the range (2^-1074·2^2200
    /// overflows, 2^1024·2^-2200 rounds to zero), so the shift stops
    /// there.
    #[must_use]
    pub fn ldexp(self, e: i32) -> Self {
        if !(-900..=900).contains(&e) {
            let e = e.clamp(-2200, 2200);
            let h = e / 2;
            return self.ldexp(h).ldexp(e - h);
        }
        let f = pow2(e);
        Self {
            hi: self.hi * f,
            lo: self.lo * f,
        }
    }
}

impl core::ops::Neg for ExtF64 {
    type Output = ExtF64;

    /// Negation (exact).
    fn neg(self) -> ExtF64 {
        ExtF64 {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl core::ops::Add for ExtF64 {
    type Output = ExtF64;

    /// Extended addition (error ≈ 2^-104 relative).
    fn add(self, other: ExtF64) -> ExtF64 {
        let (s, e) = two_sum(self.hi, other.hi);
        let (t, f) = two_sum(self.lo, other.lo);
        let (s2, e2) = quick_two_sum(s, e + t);
        let (hi, lo) = quick_two_sum(s2, e2 + f);
        ExtF64 { hi, lo }
    }
}

impl core::ops::Sub for ExtF64 {
    type Output = ExtF64;

    /// Extended subtraction.
    fn sub(self, other: ExtF64) -> ExtF64 {
        self + (-other)
    }
}

impl core::ops::Mul for ExtF64 {
    type Output = ExtF64;

    /// Extended multiplication (error ≈ 2^-104 relative).
    fn mul(self, other: ExtF64) -> ExtF64 {
        let (p, e) = two_prod(self.hi, other.hi);
        let e = e + (self.hi * other.lo + self.lo * other.hi);
        let (hi, lo) = quick_two_sum(p, e);
        ExtF64 { hi, lo }
    }
}

impl core::ops::Div for ExtF64 {
    type Output = ExtF64;

    /// Extended division (error ≈ 2^-104 relative): Newton-corrected
    /// `f64` quotient estimates.
    fn div(self, other: ExtF64) -> ExtF64 {
        let q1 = self.hi / other.hi;
        // r = self - q1·other, evaluated in extended precision.
        let r = self - other * ExtF64::from_f64(q1);
        let q2 = r.hi / other.hi;
        let r2 = r - other * ExtF64::from_f64(q2);
        let q3 = r2.hi / other.hi;
        let (s, e) = quick_two_sum(q1, q2);
        let (hi, lo) = quick_two_sum(s, e + q3);
        ExtF64 { hi, lo }
    }
}

/// Eight words at a time, `(ExtF64::from_u106(|x|) * factor).ldexp(e)`
/// negated for a negative `x`, into `out` — the scalar ops' sequence
/// on AVX-512F `f64` lanes: the exact 53-bit split (each half converted
/// by the `2^52` exponent-bias trick and one exact add), `two_sum`,
/// Dekker's `two_prod` against `factor` and its cross terms,
/// `quick_two_sum`, the multiply by `2^e`, and the sign as an XOR. No
/// FMA and the scalar order, so every lane is bit-identical to the
/// scalar ops; `x = 0` is `ExtF64::zero()`. A word with `|x| ≥ 2^106`
/// is handed to `wide` instead. Full 8-lane groups only: returns the
/// count handled (`len − len % 8`), the tail being the caller's.
///
/// # Panics
///
/// Asserts AVX-512F ([`abc_math::CpuCaps`]), `out.len() ≥ xs.len()` and
/// `|e| ≤ 900` (the range in which [`ExtF64::ldexp`] is one multiply).
#[cfg(target_arch = "x86_64")]
pub fn mul_words_x8(
    xs: &[i128],
    factor: ExtF64,
    e: i32,
    out: &mut [ExtF64],
    wide: impl Fn(i128) -> ExtF64,
) -> usize {
    assert!(
        abc_math::CpuCaps::detect().avx512f,
        "no AVX-512F on this CPU"
    );
    assert!(out.len() >= xs.len());
    assert!((-900..=900).contains(&e), "2^{e} is not one multiply");
    let n8 = xs.len() - xs.len() % 8;
    // SAFETY: the asserts above prove AVX-512F and that `out` holds the
    // `n8` (a multiple of 8) words of `xs[..n8]`.
    unsafe { mul_words_impl(&xs[..n8], factor, e, &mut out[..n8], &wide) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F (the public wrapper asserts it);
/// `xs.len()` must be a multiple of 8, `out` equally long, and `|e| ≤
/// 900`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mul_words_impl(
    xs: &[i128],
    factor: ExtF64,
    e: i32,
    out: &mut [ExtF64],
    wide: &impl Fn(i128) -> ExtF64,
) {
    use core::arch::x86_64::*;
    let zero = _mm512_setzero_si512();
    let low53 = _mm512_set1_epi64((1 << 53) - 1);
    let two53 = _mm512_set1_pd(pow2(53));
    let (fh, fl) = (_mm512_set1_pd(factor.hi), _mm512_set1_pd(factor.lo));
    // Dekker's split of the factor is the same for every lane.
    let (bh, bl) = split(factor.hi);
    let (bh, bl) = (_mm512_set1_pd(bh), _mm512_set1_pd(bl));
    let scale = _mm512_set1_pd(pow2(e));
    // The words of four i128s apart, then (hi, lo) pairs back together.
    let (even, odd) = (
        _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0),
        _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1),
    );
    let (first, second) = (
        _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0),
        _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4),
    );
    let mut j = 0;
    while j < xs.len() {
        // SAFETY: j + 8 <= xs.len() == out.len(); `ExtF64` is two `f64`
        // fields in `repr(C)` order, so eight of them are sixteen.
        let mut wide_lanes = unsafe {
            let p = xs.as_ptr().add(j) as *const __m512i;
            let (a, b) = (_mm512_loadu_si512(p), _mm512_loadu_si512(p.add(1)));
            let lo = _mm512_permutex2var_epi64(a, even, b);
            let hi = _mm512_permutex2var_epi64(a, odd, b);
            // |x|: −x = (!hi + carry, −lo), the carry when lo = 0.
            let negative = _mm512_cmplt_epi64_mask(hi, zero);
            let carry = negative & _mm512_cmpeq_epi64_mask(lo, zero);
            let not_hi = _mm512_mask_xor_epi64(hi, negative, hi, _mm512_set1_epi64(-1));
            let hi = _mm512_mask_add_epi64(not_hi, carry, not_hi, _mm512_set1_epi64(1));
            let lo = _mm512_mask_sub_epi64(lo, negative, zero, lo);
            let wide_lanes = _mm512_test_epi64_mask(hi, _mm512_set1_epi64(-1 << 42));
            let zero_lanes = _mm512_cmpeq_epi64_mask(_mm512_or_si512(lo, hi), zero);
            // from_u106: the top and bottom 53 bits, each exact.
            let top = _mm512_or_si512(_mm512_srli_epi64(lo, 53), _mm512_slli_epi64(hi, 11));
            let top = u53_to_f64_x8(_mm512_and_si512(top, low53));
            let bottom = u53_to_f64_x8(_mm512_and_si512(lo, low53));
            let (xh, xl) = two_sum_x8(_mm512_mul_pd(top, two53), bottom);
            // ExtF64::mul: two_prod of the leading parts, then the cross
            // terms, then quick_two_sum.
            let prod = _mm512_mul_pd(xh, fh);
            let (ah, al) = split_x8(xh);
            let err = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_add_pd(
                        _mm512_sub_pd(_mm512_mul_pd(ah, bh), prod),
                        _mm512_mul_pd(ah, bl),
                    ),
                    _mm512_mul_pd(al, bh),
                ),
                _mm512_mul_pd(al, bl),
            );
            let err = _mm512_add_pd(
                err,
                _mm512_add_pd(_mm512_mul_pd(xh, fl), _mm512_mul_pd(xl, fh)),
            );
            let s = _mm512_add_pd(prod, err);
            let t = _mm512_sub_pd(err, _mm512_sub_pd(s, prod));
            // ldexp, the sign, and zero as ExtF64::zero().
            let keep = !zero_lanes;
            let h = scale_sign_x8(s, scale, negative, keep);
            let l = scale_sign_x8(t, scale, negative, keep);
            let dst = out.as_mut_ptr().add(j) as *mut f64;
            _mm512_storeu_pd(dst, _mm512_permutex2var_pd(h, first, l));
            _mm512_storeu_pd(dst.add(8), _mm512_permutex2var_pd(h, second, l));
            wide_lanes
        };
        // Past 106 bits the scalar path drops low bits first: its lanes
        // are the caller's.
        while wide_lanes != 0 {
            let b = wide_lanes.trailing_zeros() as usize;
            out[j + b] = wide(xs[j + b]);
            wide_lanes &= wide_lanes - 1;
        }
        j += 8;
    }
}

/// An integer below `2^53` on each lane, exactly as `f64`: its low 52
/// bits under the exponent of `2^52` read `2^52 + low`, and one exact
/// add takes the `2^52` off the lanes whose bit 52 is clear.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel, register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn u53_to_f64_x8(v: core::arch::x86_64::__m512i) -> core::arch::x86_64::__m512d {
    use core::arch::x86_64::*;
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let bit52 = _mm512_set1_epi64(1 << 52);
        let two52 = _mm512_set1_pd(pow2(52));
        let low = _mm512_andnot_si512(bit52, v);
        let biased = _mm512_castsi512_pd(_mm512_or_si512(low, _mm512_castpd_si512(two52)));
        let clear = !_mm512_test_epi64_mask(v, bit52);
        _mm512_mask_sub_pd(biased, clear, biased, two52)
    }
}

/// [`two_sum`] on eight lanes.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel, register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn two_sum_x8(
    a: core::arch::x86_64::__m512d,
    b: core::arch::x86_64::__m512d,
) -> (core::arch::x86_64::__m512d, core::arch::x86_64::__m512d) {
    use core::arch::x86_64::*;
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let s = _mm512_add_pd(a, b);
        let bb = _mm512_sub_pd(s, a);
        let e = _mm512_add_pd(_mm512_sub_pd(a, _mm512_sub_pd(s, bb)), _mm512_sub_pd(b, bb));
        (s, e)
    }
}

/// [`split`] on eight lanes.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel, register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn split_x8(
    a: core::arch::x86_64::__m512d,
) -> (core::arch::x86_64::__m512d, core::arch::x86_64::__m512d) {
    use core::arch::x86_64::*;
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let t = _mm512_mul_pd(_mm512_set1_pd(SPLIT), a);
        let h = _mm512_sub_pd(t, _mm512_sub_pd(t, a));
        (h, _mm512_sub_pd(a, h))
    }
}

/// `v·scale` (`ldexp` by a power of two), its sign flipped on the
/// `negative` lanes (what `Neg` does) and zero off the `keep` lanes.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel, register-only.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn scale_sign_x8(
    v: core::arch::x86_64::__m512d,
    scale: core::arch::x86_64::__m512d,
    negative: core::arch::x86_64::__mmask8,
    keep: core::arch::x86_64::__mmask8,
) -> core::arch::x86_64::__m512d {
    use core::arch::x86_64::*;
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let v = _mm512_castpd_si512(_mm512_mul_pd(v, scale));
        let v = _mm512_mask_xor_epi64(v, negative, v, _mm512_set1_epi64(i64::MIN));
        _mm512_castsi512_pd(_mm512_maskz_mov_epi64(keep, v))
    }
}

/// `2^e` as `f64`, for `e` within the normal range.
///
/// # Panics
///
/// Debug-asserts `-1022 ≤ e ≤ 1023` (the exact-scaling range).
pub fn pow2(e: i32) -> f64 {
    debug_assert!(
        (-1022..=1023).contains(&e),
        "pow2 exponent {e} out of range"
    );
    f64::from_bits(((e + 1023) as u64) << 52)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_free_transforms() {
        let (s, e) = two_sum(1.0, 2f64.powi(-60));
        assert_eq!(s, 1.0);
        assert_eq!(e, 2f64.powi(-60));
        let (p, e) = two_prod(1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30));
        // (1+2^-30)^2 = 1 + 2^-29 + 2^-60: the tail is exactly 2^-60.
        assert_eq!(p, 1.0 + 2f64.powi(-29));
        assert_eq!(e, 2f64.powi(-60));
    }

    #[test]
    fn u64_roundtrip_is_exact() {
        for x in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D] {
            let e = ExtF64::from_u64(x);
            // hi + lo reconstructs x exactly in integer arithmetic.
            assert_eq!(e.hi() as i128 + e.lo as i128, x as i128, "x = {x}");
        }
    }

    #[test]
    fn add_keeps_106_bits() {
        let big = ExtF64::from_f64(2f64.powi(80));
        let one = ExtF64::from_f64(1.0);
        let sum = big + one;
        assert_eq!((sum - big).to_f64(), 1.0);
        assert_eq!(sum.to_f64(), 2f64.powi(80)); // rounds only on exit
    }

    #[test]
    fn mul_exact_for_wide_integers() {
        // (2^36 + 1)^2 = 2^72 + 2^37 + 1 needs 73 bits.
        let x = ExtF64::from_f64(2f64.powi(36) + 1.0);
        let sq = x * x;
        let expect_hi = 2f64.powi(72) + 2f64.powi(37);
        assert_eq!(sq.hi(), expect_hi);
        assert_eq!((sq - ExtF64::from_f64(expect_hi)).to_f64(), 1.0);
    }

    #[test]
    fn div_recovers_exact_ratios() {
        // (a·b)/b == a to full extended precision for wide integers.
        let a = ExtF64::from_u64((1 << 61) + 12345);
        let b = ExtF64::from_u64(0xF_FFF0_0001);
        let q = a * b / b;
        let err = q - a;
        assert!(
            err.to_f64().abs() <= 2f64.powi(-40),
            "residual {}",
            err.to_f64()
        );
        // And a plain f64 division is reproduced exactly.
        let x = ExtF64::from_f64(1.0) / ExtF64::from_f64(3.0);
        assert!((x.to_f64() - 1.0 / 3.0).abs() < 1e-18);
    }

    #[test]
    fn ldexp_and_pow2() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(72), 2f64.powi(72));
        assert_eq!(pow2(-72), 2f64.powi(-72));
        let x = ExtF64::from_u64(u64::MAX);
        let scaled = x.ldexp(-64);
        assert_eq!(scaled.ldexp(64).to_f64(), u64::MAX as f64);
        assert!((scaled.to_f64() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn ldexp_is_constant_time_for_any_exponent() {
        // One recursion per 900 of |e| used to make an exponent from
        // outside input (a wire blob's scale) 2.4 million calls per
        // coefficient; a million extreme shifts now fit any budget.
        let x = ExtF64::from_f64(1.5);
        for _ in 0..250_000 {
            let x = std::hint::black_box(x);
            assert_eq!(x.ldexp(i32::MIN).to_f64(), 0.0);
            assert_eq!(x.ldexp(i32::MAX).to_f64(), f64::INFINITY);
            assert_eq!((-x).ldexp(i32::MAX).to_f64(), f64::NEG_INFINITY);
            assert_eq!((-x).ldexp(i32::MIN).to_f64(), 0.0);
        }
        // Inside the clamp nothing moved: two-step shifts compose, and
        // the smallest subnormal still reaches the largest binade.
        assert_eq!(x.ldexp(1000).ldexp(-1000).to_f64(), 1.5);
        let tiny = ExtF64::from_f64(f64::from_bits(1));
        assert_eq!(tiny.ldexp(2097).to_f64(), 2f64.powi(1023));
        assert_eq!(tiny.ldexp(2098).to_f64(), f64::INFINITY);
    }

    #[test]
    fn round_to_i128_matches_f64_round() {
        for x in [0.0, 0.49, 0.5, 1.5, -0.5, -1.5, 1e15 + 0.5, -123.456] {
            assert_eq!(ExtF64::from_f64(x).round_to_i128(), x.round() as i128);
        }
        // Beyond the f64 mantissa: 2^72 + 0.75 rounds to 2^72 + 1.
        let v = ExtF64::from_f64(2f64.powi(72)) + ExtF64::from_f64(0.75);
        assert_eq!(v.round_to_i128(), (1i128 << 72) + 1);
        let w = ExtF64::from_f64(2f64.powi(72)) + ExtF64::from_f64(0.25);
        assert_eq!(w.round_to_i128(), 1i128 << 72);
        assert_eq!((-v).round_to_i128(), -((1i128 << 72) + 1));
    }

    #[test]
    fn round_to_i128_of_one_word_is_f64_round_bit_for_bit() {
        // The integer arm (`lo == 0`) against `f64::round` at the edges —
        // zeros, ties away from zero, the last binades with a fraction,
        // the first without, the top of the encode range — and at
        // random bit patterns below 2^120.
        let p = |e: i32| 2f64.powi(e);
        let mut edges = vec![0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 1.0, 0.25];
        edges.extend([p(52) - 1.0, p(52), p(52) + 1.0, p(53), p(53) + 2.0]);
        edges.extend([p(51) + 0.5, p(52) - 0.5, p(119), p(120) - p(67)]);
        edges.extend([f64::MIN_POSITIVE, f64::from_bits(1), p(-1) + p(-53)]);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..100_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Exponents from 2^-60 to 2^119, any significand.
            let exp = (state >> 52) % 180 + 1023 - 60;
            edges.push(f64::from_bits(exp << 52 | state & ((1 << 52) - 1)));
        }
        for x in edges.iter().flat_map(|&x| [x, -x]) {
            let got = ExtF64::from_f64(x).round_to_i128();
            assert_eq!(got, x.round() as i128, "{x:e}");
        }
        assert_eq!(ExtF64::from_f64(-0.0).round_to_i128(), 0);
    }

    #[test]
    fn round_to_i128_resolves_near_tie_fractions_exactly() {
        // hi exactly on a half-integer, lo a tiny nudge: the rounded
        // f64 sum rem + lo collapses onto ±½, but the *true* value is
        // strictly off the tie and must round accordingly.
        let eps = 2f64.powi(-60);
        let just_above = ExtF64::from_sum(2.5, eps); // 2.5 + 2^-60 → 3
        assert_eq!(just_above.round_to_i128(), 3);
        let just_below = ExtF64::from_sum(2.5, -eps); // 2.5 − 2^-60 → 2
        assert_eq!(just_below.round_to_i128(), 2);
        assert_eq!(ExtF64::from_sum(-2.5, -eps).round_to_i128(), -3);
        assert_eq!(ExtF64::from_sum(-2.5, eps).round_to_i128(), -2);
        // Half-integer + small positive lo at wide magnitudes too
        // (2^51 + ½ is the largest-scale exactly representable
        // half-integer regime in f64).
        let wide = ExtF64::from_f64(2f64.powi(51) + 0.5) + ExtF64::from_f64(eps);
        assert_eq!(wide.round_to_i128(), (1i128 << 51) + 1);
        let wide_down = ExtF64::from_f64(2f64.powi(51) + 0.5) - ExtF64::from_f64(eps);
        assert_eq!(wide_down.round_to_i128(), 1i128 << 51);
        // Exact ties (lo folds to a true ±½) stay away-from-zero.
        assert_eq!(ExtF64::from_sum(2.25, 0.25).round_to_i128(), 3);
        assert_eq!(ExtF64::from_sum(-2.25, -0.25).round_to_i128(), -3);
        // ±0.5 totals round away from zero.
        assert_eq!(ExtF64::from_sum(0.25, 0.25).round_to_i128(), 1);
        assert_eq!(ExtF64::from_sum(-0.25, -0.25).round_to_i128(), -1);
    }

    #[test]
    fn division_by_power_of_two_is_exact() {
        // The double-scale decode path: integer / 2^72 must be the
        // correctly rounded f64 of the exact ratio.
        let x = (1u128 << 72) + (1 << 20); // 73-bit integer
        let e = ExtF64::from_f64((x >> 64) as f64 * 2f64.powi(64)) + ExtF64::from_u64(x as u64);
        let v = e / ExtF64::from_f64(2f64.powi(72));
        assert_eq!(v.to_f64(), (x as f64) / 2f64.powi(72));
        assert_eq!(v.to_f64(), 1.0 + 2f64.powi(-52));
    }
}
