//! Datapath contexts: arithmetic routed through a context object so the
//! same kernel runs at full, reduced, or extended precision.

use crate::complex::Complex;
use crate::extended::ExtF64;
use crate::softfloat::round_to_mantissa;
use crate::trig;

/// A real-arithmetic datapath over an associated scalar type.
///
/// Numeric kernels (the CKKS special FFT in `abc-transform`) are generic
/// over this trait. The scalar [`Self::Real`] flowing through the kernel
/// is chosen by the datapath: plain `f64` for the reference and the
/// paper's reduced FP55 formats, double-double [`ExtF64`] for the
/// ≈106-bit embedding needed by double-scale (Δ_eff = 2^72) decoding.
/// Instantiating a kernel with [`SoftFloatField`] reproduces the rounding
/// behaviour of a narrow hardware FPU after *every* operation, which is
/// what the paper's Fig. 3c sweep measures.
pub trait RealField: Clone + Send + Sync + 'static {
    /// The scalar values that flow through this datapath.
    type Real: Copy + PartialEq + Default + core::fmt::Debug + Send + Sync;

    /// Rounds an `f64` constant into the datapath format.
    #[allow(clippy::wrong_self_convention)] // `self` carries the datapath width
    fn from_f64(&self, x: f64) -> Self::Real;

    /// Rounds a datapath value to `f64` (measurement / output side).
    fn to_f64(&self, x: Self::Real) -> f64;

    /// Rounds a double-double value into the datapath (the decode path:
    /// exactly divided coefficients enter the embedding FFT).
    #[allow(clippy::wrong_self_convention)] // `self` carries the datapath width
    fn from_ext(&self, x: ExtF64) -> Self::Real;

    /// Lifts a datapath value into double-double (the encode path:
    /// embedding output meets the exact Δ-rounding).
    fn to_ext(&self, x: Self::Real) -> ExtF64;

    /// Addition in the datapath.
    fn add(&self, a: Self::Real, b: Self::Real) -> Self::Real;

    /// Subtraction in the datapath.
    fn sub(&self, a: Self::Real, b: Self::Real) -> Self::Real;

    /// Multiplication in the datapath.
    fn mul(&self, a: Self::Real, b: Self::Real) -> Self::Real;

    /// Negation (sign flip is exact in every binary float format).
    fn neg(&self, a: Self::Real) -> Self::Real;

    /// `(cos, sin)` of the dyadic angle `π·num/2^log2_den` at (at least)
    /// the datapath's native accuracy — the planned-twiddle generator.
    /// Wide datapaths must *not* derive this from `f64::sin_cos`; the
    /// `ExtF64` instance evaluates a fixed-point Taylor series seeded by
    /// a 192-bit π after exact integer octant reduction.
    fn sincos_pi_frac(&self, num: u64, log2_den: u32) -> (Self::Real, Self::Real);

    /// Human-readable datapath name for reports.
    fn name(&self) -> String;

    /// The slots as plain `Complex<f64>`, if this datapath *is* IEEE
    /// binary64 arithmetic — what lets a planned transform hand them to
    /// an `f64` SIMD kernel. `None` for every datapath that rounds or
    /// widens, whatever scalar type it carries.
    fn as_f64_slots<'a>(
        &self,
        _slots: &'a mut [Complex<Self::Real>],
    ) -> Option<&'a mut [Complex<f64>]> {
        None
    }
}

/// The full-precision IEEE binary64 datapath.
///
/// # Example
///
/// ```
/// use abc_float::{F64Field, RealField};
///
/// assert_eq!(F64Field.mul(0.1, 10.0), 0.1 * 10.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct F64Field;

impl RealField for F64Field {
    type Real = f64;

    fn from_f64(&self, x: f64) -> f64 {
        x
    }

    fn to_f64(&self, x: f64) -> f64 {
        x
    }

    fn from_ext(&self, x: ExtF64) -> f64 {
        x.to_f64()
    }

    fn to_ext(&self, x: f64) -> ExtF64 {
        ExtF64::from_f64(x)
    }

    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn sub(&self, a: f64, b: f64) -> f64 {
        a - b
    }

    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn neg(&self, a: f64) -> f64 {
        -a
    }

    fn sincos_pi_frac(&self, num: u64, log2_den: u32) -> (f64, f64) {
        trig::sincos_pi_frac_f64(num, log2_den)
    }

    fn name(&self) -> String {
        "fp64".to_owned()
    }

    fn as_f64_slots<'a>(&self, slots: &'a mut [Complex<f64>]) -> Option<&'a mut [Complex<f64>]> {
        Some(slots)
    }
}

/// A reduced-precision datapath that rounds to `mantissa_bits` fraction
/// bits after every operation.
///
/// # Example
///
/// ```
/// use abc_float::{RealField, SoftFloatField};
///
/// let f = SoftFloatField::new(10);
/// // 1 + 2^-14 collapses to 1 in a 10-bit-mantissa format.
/// assert_eq!(f.add(1.0, 2.0_f64.powi(-14)), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftFloatField {
    mantissa_bits: u32,
}

/// Mantissa width (fraction bits, excluding the implicit leading 1) of the
/// paper's custom FP55 format: 55 = 1 sign + 11 exponent + 43 mantissa.
const FP55_MANTISSA_BITS: u32 = 43;

impl SoftFloatField {
    /// Creates a datapath with the given mantissa width.
    ///
    /// # Panics
    ///
    /// Panics if `mantissa_bits` is 0 or exceeds 52.
    pub fn new(mantissa_bits: u32) -> Self {
        assert!(
            (1..=52).contains(&mantissa_bits),
            "mantissa_bits must be in 1..=52, got {mantissa_bits}"
        );
        Self { mantissa_bits }
    }

    /// The paper's FP55 datapath (43 mantissa bits).
    pub fn fp55() -> Self {
        Self::new(FP55_MANTISSA_BITS)
    }

    /// Total storage width of the format (1 sign + 11 exponent + mantissa),
    /// the per-coefficient cost the hardware model charges.
    fn storage_bits(&self) -> u32 {
        1 + 11 + self.mantissa_bits
    }
}

impl RealField for SoftFloatField {
    type Real = f64;

    fn from_f64(&self, x: f64) -> f64 {
        round_to_mantissa(x, self.mantissa_bits)
    }

    fn to_f64(&self, x: f64) -> f64 {
        x
    }

    fn from_ext(&self, x: ExtF64) -> f64 {
        round_to_mantissa(x.to_f64(), self.mantissa_bits)
    }

    fn to_ext(&self, x: f64) -> ExtF64 {
        ExtF64::from_f64(x)
    }

    fn add(&self, a: f64, b: f64) -> f64 {
        round_to_mantissa(a + b, self.mantissa_bits)
    }

    fn sub(&self, a: f64, b: f64) -> f64 {
        round_to_mantissa(a - b, self.mantissa_bits)
    }

    fn mul(&self, a: f64, b: f64) -> f64 {
        round_to_mantissa(a * b, self.mantissa_bits)
    }

    fn neg(&self, a: f64) -> f64 {
        -a
    }

    fn sincos_pi_frac(&self, num: u64, log2_den: u32) -> (f64, f64) {
        let (c, s) = trig::sincos_pi_frac_f64(num, log2_den);
        (
            round_to_mantissa(c, self.mantissa_bits),
            round_to_mantissa(s, self.mantissa_bits),
        )
    }

    fn name(&self) -> String {
        format!("fp{}", self.storage_bits())
    }
}

/// The double-double (~106-bit) extended-precision datapath: the
/// embedding FFT that is accurate enough for the double-scale encoding's
/// full Δ_eff = 2^72, where the `f64` datapath masks ≈20 low bits of
/// every coefficient.
///
/// # Example
///
/// ```
/// use abc_float::{ExtF64Field, RealField};
///
/// let f = ExtF64Field;
/// let big = f.from_f64(2f64.powi(80));
/// let sum = f.add(big, f.from_f64(1.0));
/// // The unit survives next to 2^80 — impossible in plain f64.
/// assert_eq!(f.to_f64(f.sub(sum, big)), 1.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtF64Field;

impl RealField for ExtF64Field {
    type Real = ExtF64;

    fn from_f64(&self, x: f64) -> ExtF64 {
        ExtF64::from_f64(x)
    }

    fn to_f64(&self, x: ExtF64) -> f64 {
        x.to_f64()
    }

    fn from_ext(&self, x: ExtF64) -> ExtF64 {
        x
    }

    fn to_ext(&self, x: ExtF64) -> ExtF64 {
        x
    }

    fn add(&self, a: ExtF64, b: ExtF64) -> ExtF64 {
        a + b
    }

    fn sub(&self, a: ExtF64, b: ExtF64) -> ExtF64 {
        a - b
    }

    fn mul(&self, a: ExtF64, b: ExtF64) -> ExtF64 {
        a * b
    }

    fn neg(&self, a: ExtF64) -> ExtF64 {
        -a
    }

    fn sincos_pi_frac(&self, num: u64, log2_den: u32) -> (ExtF64, ExtF64) {
        trig::sincos_pi_frac_ext(num, log2_den)
    }

    fn name(&self) -> String {
        "extf64".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_field_is_exact() {
        let f = F64Field;
        assert_eq!(f.add(0.1, 0.2), 0.1 + 0.2);
        assert_eq!(f.sub(0.1, 0.2), 0.1 - 0.2);
        assert_eq!(f.mul(0.1, 0.2), 0.1 * 0.2);
        assert_eq!(f.neg(0.1), -0.1);
        assert_eq!(f.from_f64(0.1), 0.1);
        assert_eq!(f.name(), "fp64");
    }

    #[test]
    fn softfloat_field_rounds_each_op() {
        let f = SoftFloatField::new(10);
        let exact = F64Field;
        // Accumulating many small values: reduced precision loses them,
        // full precision keeps them.
        let tiny = 2f64.powi(-15);
        let mut lo = 1.0;
        let mut hi = 1.0;
        for _ in 0..100 {
            lo = f.add(lo, tiny);
            hi = exact.add(hi, tiny);
        }
        assert_eq!(lo, 1.0);
        assert!(hi > 1.0);
    }

    #[test]
    fn fp55_naming_and_width() {
        let f = SoftFloatField::fp55();
        assert_eq!(f.mantissa_bits, 43);
        assert_eq!(f.storage_bits(), 55);
        assert_eq!(f.name(), "fp55");
    }

    #[test]
    #[should_panic(expected = "mantissa_bits")]
    fn rejects_wide_mantissa() {
        SoftFloatField::new(53);
    }

    #[test]
    fn monotone_precision() {
        // Wider mantissa ⇒ result at least as close to the f64 answer.
        let x = 1.0 / 7.0;
        let y = core::f64::consts::E;
        let exact = x * y;
        let mut last_err = f64::INFINITY;
        for m in [8u32, 16, 24, 32, 40, 48, 52] {
            let f = SoftFloatField::new(m);
            let err = (f.mul(f.from_f64(x), f.from_f64(y)) - exact).abs();
            assert!(err <= last_err, "m={m}");
            last_err = err;
        }
        assert_eq!(last_err, 0.0);
    }

    #[test]
    fn extended_field_keeps_sub_f64_bits() {
        let f = ExtF64Field;
        let third = f.from_f64(1.0) / f.from_f64(3.0);
        let one = f.mul(third, f.from_f64(3.0));
        let err = f.to_f64(f.sub(one, f.from_f64(1.0)));
        assert!(err.abs() < 2f64.powi(-100), "residual {err:e}");
        assert_eq!(f.name(), "extf64");
    }

    #[test]
    fn ext_roundtrip_conversions() {
        let f = ExtF64Field;
        let x = f.from_f64(0.1);
        assert_eq!(f.to_ext(x), x);
        assert_eq!(f.from_ext(x), x);
        // f64 fields round from_ext to their mantissa width.
        let g = SoftFloatField::new(12);
        let wide = ExtF64Field.add(ExtF64::from_f64(1.0), ExtF64::from_f64(2f64.powi(-40)));
        assert_eq!(g.from_ext(wide), 1.0);
        assert_eq!(F64Field.from_ext(wide), 1.0 + 2f64.powi(-40));
    }

    #[test]
    fn sincos_matches_reference_across_fields() {
        for k in [0u64, 1, 7, 100, 1023] {
            let (c64, s64) = F64Field.sincos_pi_frac(k, 10);
            let theta = core::f64::consts::PI * k as f64 / 1024.0;
            assert!((c64 - theta.cos()).abs() < 1e-15, "k={k}");
            assert!((s64 - theta.sin()).abs() < 1e-15, "k={k}");
            let (ce, se) = ExtF64Field.sincos_pi_frac(k, 10);
            assert!((ce.to_f64() - c64).abs() < 1e-15, "k={k}");
            assert!((se.to_f64() - s64).abs() < 1e-15, "k={k}");
            let fp55 = SoftFloatField::fp55();
            let (c55, _) = fp55.sincos_pi_frac(k, 10);
            assert_eq!(c55, crate::round_to_mantissa(c64, 43), "k={k}");
        }
    }
}
