//! The mantissa-rounding primitive: what the reduced-precision datapath
//! ([`SoftFloatField`](crate::SoftFloatField)) applies after every
//! operation.

/// Rounds `x` to `mantissa_bits` fraction bits using round-to-nearest-even,
/// emulating a hardware FPU with a narrower significand.
///
/// `mantissa_bits` counts explicit fraction bits (the implicit leading 1 is
/// excluded), matching IEEE-754 conventions: `f64` has 52. Values that are
/// not finite are returned unchanged; subnormals are rounded in the same
/// bit positions (adequate for this crate's FFT workloads, which never
/// produce subnormals).
///
/// # Panics
///
/// Panics if `mantissa_bits` is 0 or exceeds 52.
///
/// # Example
///
/// ```
/// use abc_float::round_to_mantissa;
///
/// // 1/3 = 1.0101…b × 2^-2; with 8 fraction bits that is 1.01010101b × 2^-2.
/// let r = round_to_mantissa(1.0 / 3.0, 8);
/// assert_eq!(r, 341.0 / 1024.0);
/// assert!((r - 1.0 / 3.0).abs() < 2.0_f64.powi(-9));
/// // 52 bits is the identity on f64.
/// assert_eq!(round_to_mantissa(0.1, 52), 0.1);
/// ```
#[inline]
pub fn round_to_mantissa(x: f64, mantissa_bits: u32) -> f64 {
    assert!(
        (1..=52).contains(&mantissa_bits),
        "mantissa_bits must be in 1..=52, got {mantissa_bits}"
    );
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    let drop = 52 - mantissa_bits;
    if drop == 0 {
        return x;
    }
    let bits = x.to_bits();
    let mask = (1u64 << drop) - 1;
    let frac = bits & mask;
    let half = 1u64 << (drop - 1);
    let mut out = bits & !mask;
    let keep_lsb = (bits >> drop) & 1;
    if frac > half || (frac == half && keep_lsb == 1) {
        // Round up; carry may ripple into the exponent, which is exactly
        // the correct behaviour (1.111..b rounds to 10.000b).
        out += 1u64 << drop;
    }
    f64::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RealField, SoftFloatField};

    #[test]
    fn identity_at_full_width() {
        for x in [0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e300, -1e-300] {
            assert_eq!(round_to_mantissa(x, 52), x);
        }
    }

    #[test]
    fn rounds_to_nearest_even() {
        // 1 + 2^-20 at 19 mantissa bits: fraction = 0.5 ulp exactly, LSB of
        // kept part is 0 -> round down to 1.0.
        let x = 1.0 + 2f64.powi(-20);
        assert_eq!(round_to_mantissa(x, 19), 1.0);
        // 1 + 3*2^-20 at 19 bits: fraction 0.5 ulp, kept LSB 1 -> round up.
        let x = 1.0 + 3.0 * 2f64.powi(-20);
        assert_eq!(round_to_mantissa(x, 19), 1.0 + 4.0 * 2f64.powi(-20));
        // Just above half rounds up regardless.
        let x = 1.0 + 2f64.powi(-20) + 2f64.powi(-40);
        assert_eq!(round_to_mantissa(x, 19), 1.0 + 2f64.powi(-19));
    }

    #[test]
    fn carry_into_exponent() {
        // 1.111...1b rounds up to 2.0 at reduced width.
        let x = 2.0 - 2f64.powi(-30);
        assert_eq!(round_to_mantissa(x, 10), 2.0);
    }

    #[test]
    fn sign_preserved() {
        let x = -(1.0 + 2f64.powi(-25));
        let r = round_to_mantissa(x, 10);
        assert_eq!(r, -1.0);
    }

    #[test]
    fn non_finite_passthrough() {
        assert!(round_to_mantissa(f64::NAN, 10).is_nan());
        assert_eq!(round_to_mantissa(f64::INFINITY, 10), f64::INFINITY);
        assert_eq!(round_to_mantissa(f64::NEG_INFINITY, 10), f64::NEG_INFINITY);
        assert_eq!(round_to_mantissa(0.0, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "mantissa_bits")]
    fn zero_width_panics() {
        round_to_mantissa(1.0, 0);
    }

    #[test]
    fn error_bounded_by_half_ulp() {
        let xs = [1.0 / 3.0, core::f64::consts::PI, 1e10 / 7.0, -0.12345];
        for m in [10u32, 20, 30, 43, 52] {
            for &x in &xs {
                let r = round_to_mantissa(x, m);
                let rel = ((r - x) / x).abs();
                assert!(rel <= 2f64.powi(-(m as i32 + 1)) * 1.0001, "m={m} x={x}");
            }
        }
    }

    #[test]
    fn softfloat_ops_round() {
        let f = SoftFloatField::new(10);
        let eps = f.from_f64(2f64.powi(-14));
        // 1 + 2^-14 is not representable with 10 mantissa bits.
        assert_eq!(f.add(1.0, eps), 1.0);
        assert_eq!(f.sub(1.0, eps), 1.0);
        let third = f.from_f64(1.0 / 3.0);
        assert_eq!(third, round_to_mantissa(1.0 / 3.0, 10));
        assert_eq!(f.mul(third, 3.0), round_to_mantissa(third * 3.0, 10));
        assert_ne!(f.mul(third, 3.0), third * 3.0);
        assert_eq!(f.neg(1.0), -1.0);
    }

    #[test]
    fn fp55_preset() {
        let f = SoftFloatField::fp55();
        assert_eq!(f, SoftFloatField::new(43));
        assert_eq!(f.from_f64(1.0 / 3.0), round_to_mantissa(1.0 / 3.0, 43));
    }
}
