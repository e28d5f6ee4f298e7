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

/// An extended-precision real: the unevaluated sum `hi + lo`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
        let rh = self.hi.round();
        if self.lo == 0.0 {
            return rh as i128;
        }
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
