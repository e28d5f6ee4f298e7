//! Complex arithmetic over a [`RealField`] datapath.
//!
//! The reconfigurable PNL evaluates one complex multiplication with four
//! real multipliers (paper Eq. 12: `(a+bi)(c+di) = (ac−bd) + i(ad+bc)`);
//! [`Complex::mul_in`] follows exactly that 4-mul/2-add structure so that
//! reduced-precision rounding lands in the same places as the hardware.
//!
//! The component type is generic: `Complex` (defaulting to
//! `Complex<f64>`) carries the reference and reduced-precision datapaths,
//! while `Complex<ExtF64>` carries the double-double embedding datapath.
//! Arithmetic always routes through a [`RealField`] whose
//! [`RealField::Real`] matches the component type.

use crate::field::RealField;

/// A complex number whose arithmetic routes through a [`RealField`].
///
/// # Example
///
/// ```
/// use abc_float::{Complex, F64Field};
///
/// let i = Complex::new(0.0, 1.0);
/// assert_eq!(i.mul_in(&F64Field, i), Complex::new(-1.0, 0.0));
/// ```
///
/// `repr(C)`: a `[Complex<f64>]` is the interleaved `re, im, re, im, …`
/// array of `f64` that a vector kernel loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex<R = f64> {
    /// Real part.
    pub re: R,
    /// Imaginary part.
    pub im: R,
}

impl<R> Complex<R> {
    /// Creates a complex number from parts (no rounding applied).
    pub const fn new(re: R, im: R) -> Self {
        Self { re, im }
    }
}

impl<R: Copy> Complex<R> {
    /// Complex conjugate (exact in any binary format).
    pub fn conj(self) -> Self
    where
        R: core::ops::Neg<Output = R>,
    {
        Self::new(self.re, -self.im)
    }

    /// Addition in the datapath.
    pub fn add_in<F: RealField<Real = R>>(self, f: &F, rhs: Self) -> Self {
        Self::new(f.add(self.re, rhs.re), f.add(self.im, rhs.im))
    }

    /// Subtraction in the datapath.
    pub fn sub_in<F: RealField<Real = R>>(self, f: &F, rhs: Self) -> Self {
        Self::new(f.sub(self.re, rhs.re), f.sub(self.im, rhs.im))
    }

    /// Multiplication in the datapath with the hardware's 4-multiplier
    /// structure (paper Eq. 12).
    pub fn mul_in<F: RealField<Real = R>>(self, f: &F, rhs: Self) -> Self {
        let ac = f.mul(self.re, rhs.re);
        let bd = f.mul(self.im, rhs.im);
        let ad = f.mul(self.re, rhs.im);
        let bc = f.mul(self.im, rhs.re);
        Self::new(f.sub(ac, bd), f.add(ad, bc))
    }

    /// Scales both parts by a real factor in the datapath.
    pub fn scale_in<F: RealField<Real = R>>(self, f: &F, s: R) -> Self {
        Self::new(f.mul(self.re, s), f.mul(self.im, s))
    }

    /// Rounds both components to `f64` through the datapath — the
    /// measurement/output conversion.
    pub fn to_f64_in<F: RealField<Real = R>>(self, f: &F) -> Complex<f64> {
        Complex::new(f.to_f64(self.re), f.to_f64(self.im))
    }
}

impl Complex<f64> {
    /// The additive identity.
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Lifts both components into a datapath's native scalar.
    pub fn lift_in<F: RealField>(self, f: &F) -> Complex<F::Real> {
        Complex::new(f.from_f64(self.re), f.from_f64(self.im))
    }

    /// Squared magnitude, evaluated exactly in `f64` (measurement only —
    /// not part of the datapath).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude of the difference from `other` (measurement only).
    pub fn dist(self, other: Self) -> f64 {
        let dr = self.re - other.re;
        let di = self.im - other.im;
        (dr * dr + di * di).sqrt()
    }
}

impl core::fmt::Display for Complex<f64> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extended::ExtF64;
    use crate::field::{ExtF64Field, F64Field, SoftFloatField};

    #[test]
    fn ring_identities() {
        let f = F64Field;
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.mul_in(&f, Complex::new(1.0, 0.0)), z);
        assert_eq!(z.add_in(&f, Complex::zero()), z);
        assert_eq!(z.sub_in(&f, z), Complex::zero());
        // z * conj(z) = |z|^2
        let p = z.mul_in(&f, z.conj());
        assert_eq!(p, Complex::new(25.0, 0.0));
        assert_eq!(z.norm_sqr(), 25.0);
    }

    #[test]
    fn polar_roots_of_unity() {
        let f = F64Field;
        let n = 16u64;
        // w = e^{2πi/n} = e^{πi·2/n}: the datapath's twiddle generator.
        let (c, s) = f.sincos_pi_frac(2, 4);
        let w = Complex::new(c, s);
        let mut acc = Complex::new(1.0, 0.0);
        for _ in 0..n {
            acc = acc.mul_in(&f, w);
        }
        assert!(acc.dist(Complex::new(1.0, 0.0)) < 1e-14);
    }

    #[test]
    fn reduced_precision_rounds_products() {
        let lo = SoftFloatField::new(12);
        let hi = F64Field;
        let a = Complex::new(1.0 / 3.0, 1.0 / 7.0);
        let b = Complex::new(1.0 / 11.0, 1.0 / 13.0);
        let p_lo = a.mul_in(&lo, b);
        let p_hi = a.mul_in(&hi, b);
        assert!(p_lo.dist(p_hi) > 0.0);
        assert!(p_lo.dist(p_hi) < 1e-3);
    }

    #[test]
    fn extended_components_roundtrip() {
        let f = ExtF64Field;
        let z = Complex::new(0.3, -0.7).lift_in(&f);
        let w = Complex::new(ExtF64::from_f64(2f64.powi(60)), ExtF64::zero());
        let back = z.mul_in(&f, w).to_f64_in(&f);
        assert_eq!(back.re, 0.3 * 2f64.powi(60));
        // i·i = −1 exactly in the extended datapath too.
        let i = Complex::new(ExtF64::zero(), ExtF64::from_f64(1.0));
        assert_eq!(i.mul_in(&f, i).to_f64_in(&f), Complex::new(-1.0, 0.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }
}
