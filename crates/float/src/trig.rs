//! High-precision twiddle generation: `cos/sin(π·num/2^d)` without
//! `f64::sin_cos`.
//!
//! The planned `SpecialFft` twiddles are roots of unity at *dyadic*
//! angles `π·k/2^d` — the argument is an exact rational, so reduction to
//! the first octant is pure integer arithmetic (no floating-point `mod 2π`
//! at all). Inside the octant the extended-precision path evaluates the
//! Taylor series in 192-fractional-bit [`UBig`] fixed point seeded by a
//! 192-bit constant of π, then rounds once into [`ExtF64`]; every twiddle
//! is accurate to better than 2^-100 — far below the ≈2^-106 double-double
//! working precision, so the `ExtF64` embedding is never limited by its
//! twiddle ROM. The `f64` path shares the same integer octant reduction
//! (which already beats calling `sin_cos` on the full angle) and finishes
//! with the libm `sin_cos` of the reduced argument.

use crate::extended::ExtF64;
use abc_math::UBig;

/// Fractional bits of the fixed-point Taylor evaluation.
const FRAC_BITS: u32 = 192;

/// `⌊π·2^192⌋` as little-endian 64-bit limbs (the classical hex
/// expansion π = 3.243F6A8885A308D313198A2E03707344A4093822299F31D0…).
const PI_FRAC_LIMBS: [u64; 4] = [
    0xA409_3822_299F_31D0,
    0x1319_8A2E_0370_7344,
    0x243F_6A88_85A3_08D3,
    0x3,
];

fn pi_fixed() -> UBig {
    let mut bytes = Vec::with_capacity(32);
    for limb in PI_FRAC_LIMBS {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    UBig::from_le_bytes(&bytes)
}

/// Integer octant reduction of the angle `π·num/2^d`: returns
/// `(mm, swap, quadrant)` with the base angle `φ = π·mm/2^d ∈ [0, π/4]`;
/// `swap` exchanges sin/cos (second octant of the quadrant) and
/// `quadrant ∈ 0..4` applies the sign/axis pattern.
fn reduce_octant(num: u64, d: u32) -> (u64, bool, u64) {
    debug_assert!(d < 63, "log2 denominator {d} out of range");
    let t = num & ((1u64 << (d + 1)) - 1); // angle mod 2π
    if d == 0 {
        // Angle is a multiple of π.
        return (0, false, (t & 1) * 2);
    }
    let quad = t >> (d - 1);
    let m = t & ((1u64 << (d - 1)) - 1);
    if d >= 2 && m > (1u64 << (d - 2)) {
        ((1u64 << (d - 1)) - m, true, quad)
    } else {
        (m, false, quad)
    }
}

/// Applies the quadrant sign/axis pattern to the first-octant pair.
fn apply_quadrant<T: Copy + core::ops::Neg<Output = T>>(
    (c, s): (T, T),
    swap: bool,
    quad: u64,
) -> (T, T) {
    let (c0, s0) = if swap { (s, c) } else { (c, s) };
    match quad {
        0 => (c0, s0),
        1 => (-s0, c0),
        2 => (-c0, -s0),
        _ => (s0, -c0),
    }
}

/// `(cos, sin)` of `π·num/2^d` in `f64`: exact integer octant reduction,
/// then the platform `sin_cos` on the small reduced argument.
pub(crate) fn sincos_pi_frac_f64(num: u64, d: u32) -> (f64, f64) {
    let (mm, swap, quad) = reduce_octant(num, d);
    let phi = core::f64::consts::PI * mm as f64 * 2f64.powi(-(d as i32));
    let (s, c) = phi.sin_cos();
    apply_quadrant((c, s), swap, quad)
}

/// `(cos, sin)` of `π·num/2^d` in double-double precision, accurate to
/// better than 2^-100 (absolute): the `ExtF64` twiddle generator.
pub(crate) fn sincos_pi_frac_ext(num: u64, d: u32) -> (ExtF64, ExtF64) {
    let (mm, swap, quad) = reduce_octant(num, d);
    apply_quadrant(sincos_taylor_fixed(mm, d), swap, quad)
}

/// `(cos, sin)` of `φ = π·mm/2^d ≤ π/4` by fixed-point Taylor series.
fn sincos_taylor_fixed(mm: u64, d: u32) -> (ExtF64, ExtF64) {
    if mm == 0 {
        return (ExtF64::from_f64(1.0), ExtF64::zero());
    }
    // φ in 192-fractional-bit fixed point: exact product π·mm, then an
    // exact dyadic shift (only the bits below 2^-192 are dropped).
    let phi = pi_fixed().mul_u64(mm).shr(d);
    let phi2 = fx_mul(&phi, &phi);
    // sin = φ − φ³/3! + φ⁵/5! − …   cos = 1 − φ²/2! + φ⁴/4! − …
    // UBig is unsigned: accumulate the alternating series into separate
    // positive/negative sums (terms decrease strictly, so pos ≥ neg).
    let one = UBig::one().shl(FRAC_BITS);
    let (mut sin_pos, mut sin_neg) = (phi.clone(), UBig::zero());
    let (mut cos_pos, mut cos_neg) = (one, UBig::zero());
    let mut sin_term = phi;
    let mut cos_term = UBig::one().shl(FRAC_BITS);
    let mut k = 1u64;
    let mut negative = true;
    while !(sin_term.is_zero() && cos_term.is_zero()) {
        // Next cos term: φ^{2k}/(2k)!; next sin term: φ^{2k+1}/(2k+1)!.
        cos_term = fx_mul(&cos_term, &phi2)
            .div_rem_u64((2 * k - 1) * (2 * k))
            .0;
        sin_term = fx_mul(&sin_term, &phi2).div_rem_u64(2 * k * (2 * k + 1)).0;
        if negative {
            cos_neg = cos_neg.add(&cos_term);
            sin_neg = sin_neg.add(&sin_term);
        } else {
            cos_pos = cos_pos.add(&cos_term);
            sin_pos = sin_pos.add(&sin_term);
        }
        negative = !negative;
        k += 1;
    }
    (
        fixed_to_ext(&cos_pos.sub(&cos_neg)),
        fixed_to_ext(&sin_pos.sub(&sin_neg)),
    )
}

/// Fixed-point product: `(a·b) >> FRAC_BITS`.
fn fx_mul(a: &UBig, b: &UBig) -> UBig {
    a.mul(b).shr(FRAC_BITS)
}

/// Rounds a 192-fractional-bit fixed-point value (≤ ~2) into [`ExtF64`]
/// by taking its top ≤106 bits exactly.
fn fixed_to_ext(x: &UBig) -> ExtF64 {
    let bits = x.bits();
    if bits == 0 {
        return ExtF64::zero();
    }
    let shift = bits.saturating_sub(106);
    let top = x.shr(shift).to_u128().expect("≤106-bit prefix fits u128");
    let hi = ((top >> 53) as u64) as f64 * 2f64.powi(53);
    let lo = (top as u64 & ((1u64 << 53) - 1)) as f64;
    ExtF64::from_sum(hi, lo).ldexp(shift as i32 - FRAC_BITS as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pi_constant_matches_f64_pi() {
        let approx = fixed_to_ext(&pi_fixed()).to_f64();
        assert_eq!(approx, core::f64::consts::PI);
    }

    #[test]
    fn exact_axis_values() {
        // Multiples of π/2 are exact in both datapaths.
        for d in [0u32, 1, 4, 10] {
            let n = 1u64 << d;
            for (num, expect) in [(0, (1.0, 0.0)), (n, (-1.0, 0.0)), (2 * n, (1.0, 0.0))] {
                assert_eq!(sincos_pi_frac_f64(num, d), expect, "d={d} num={num}");
                let (c, s) = sincos_pi_frac_ext(num, d);
                assert_eq!((c.to_f64(), s.to_f64()), expect, "d={d} num={num}");
            }
            if d >= 1 {
                assert_eq!(sincos_pi_frac_f64(n / 2, d), (0.0, 1.0));
                assert_eq!(sincos_pi_frac_f64(3 * n / 2, d), (0.0, -1.0));
            }
        }
    }

    #[test]
    fn ext_agrees_with_f64_everywhere() {
        let d = 7u32;
        for num in 0..(2u64 << d) {
            let (c, s) = sincos_pi_frac_f64(num, d);
            let (ce, se) = sincos_pi_frac_ext(num, d);
            assert!((ce.to_f64() - c).abs() < 1e-15, "num={num}: {c} vs cos");
            assert!((se.to_f64() - s).abs() < 1e-15, "num={num}: {s} vs sin");
        }
    }

    #[test]
    fn pythagorean_identity_to_double_double_precision() {
        // cos² + sin² = 1 to ~2^-100 — only holds if both values are
        // accurate well beyond f64.
        for num in [1u64, 3, 7, 100, 255, 511, 513, 1000] {
            let (c, s) = sincos_pi_frac_ext(num, 10);
            let r = c * c + s * s - ExtF64::from_f64(1.0);
            assert!(
                r.to_f64().abs() < 2f64.powi(-98),
                "num={num}: residual {:e}",
                r.to_f64()
            );
        }
    }

    #[test]
    fn double_angle_identity_in_extended_precision() {
        // cos(2φ) = 2cos²φ − 1 across the table — ties distinct entries
        // together at full double-double accuracy.
        for num in [1u64, 5, 33, 200, 450] {
            let (c, _) = sincos_pi_frac_ext(num, 10);
            let (c2, _) = sincos_pi_frac_ext(2 * num, 10);
            let r = ExtF64::from_f64(2.0) * c * c - ExtF64::from_f64(1.0) - c2;
            assert!(
                r.to_f64().abs() < 2f64.powi(-96),
                "num={num}: residual {:e}",
                r.to_f64()
            );
        }
    }

    #[test]
    fn octant_reduction_symmetries() {
        // sin(π − x) = sin(x), cos(π − x) = −cos(x), bit-exactly — both
        // sides reduce to the same octant representative. The exact
        // diagonals (odd multiples of π/4) are excluded: there sin and
        // cos of the *rounded* argument differ in the last ulp by
        // construction, whichever representative is chosen.
        let d = 9u32;
        let n = 1u64 << d;
        for num in (1..n / 2).filter(|k| k % (n / 4) != 0) {
            let (c, s) = sincos_pi_frac_f64(num, d);
            let (cr, sr) = sincos_pi_frac_f64(n - num, d);
            assert_eq!(s.to_bits(), sr.to_bits(), "num={num}");
            assert_eq!((-c).to_bits(), cr.to_bits(), "num={num}");
        }
    }
}
