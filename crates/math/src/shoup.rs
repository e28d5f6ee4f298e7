//! Shoup-precomputed modular multiplication and lazy-reduction helpers —
//! the software analogue of the datapath trick the paper's Table I is
//! about: when one factor is a *constant* (an NTT twiddle), dividing by
//! `q` can be replaced by two 64-bit high-multiplies and at most one
//! conditional subtraction (Harvey, "Faster arithmetic for
//! number-theoretic transforms"; refs \[27\]/\[30\] of the paper).
//!
//! For a constant `w < q` the precomputation is
//! `w' = floor(w · 2^64 / q)`; then for any `a`
//!
//! ```text
//! hi  = floor(a · w' / 2^64)          (one mulhi)
//! r   = a·w − hi·q   (both mod 2^64)  (two mullo)
//! ```
//!
//! satisfies `r ≡ a·w (mod q)` and `r ∈ [0, 2q)` — *without any hardware
//! division*. One conditional subtraction normalizes to `[0, q)`.
//!
//! The lazy helpers let NTT butterflies defer even that subtraction:
//! values travel in `[0, 2q)` or `[0, 4q)` across stages and are
//! normalized once at the end. All routines here require **`q < 2^62`**
//! so that `4q` fits in a `u64` — the bound every [`crate::Modulus`]
//! meets; the workspace's RNS primes are 36–47 bits, far inside it.
//!
//! # Example
//!
//! ```
//! use abc_math::shoup::{mul_shoup, shoup_precompute};
//! use abc_math::Modulus;
//!
//! # fn main() -> Result<(), abc_math::MathError> {
//! let m = Modulus::new(0xFFF_FFFF_C001)?; // 2^44 - 2^14 + 1
//! let w = 123_456_789_012_345 % m.q();
//! let w_shoup = shoup_precompute(w, m.q());
//! for a in [0u64, 1, 42, m.q() - 1] {
//!     assert_eq!(mul_shoup(a, w, w_shoup, m.q()), m.mul(a, w));
//! }
//! # Ok(())
//! # }
//! ```

/// The workspace's one datapath width: `q < 2^62` keeps every lazy
/// intermediate (`< 4q`) inside a `u64`, and [`crate::Modulus::new`]
/// refuses every modulus at or above it.
pub(crate) const MAX_SHOUP_MODULUS: u64 = 1 << 62;

/// Largest modulus the radix-2^52 (AVX-512IFMA) variant supports:
/// `q < 2^50` keeps lazy values (`< 4q`) inside the 52-bit lanes of
/// `vpmadd52{lo,hi}`.
pub const MAX_SHOUP52_MODULUS: u64 = 1 << 50;

/// Low-52-bit mask, the lane width of the IFMA datapath.
pub(crate) const MASK52: u64 = (1 << 52) - 1;

/// Precomputes the Shoup quotient `floor(w · 2^64 / q)` for a constant
/// `w < q`.
///
/// # Panics
///
/// Debug-asserts `w < q` (the quotient would overflow 64 bits otherwise).
#[inline]
pub fn shoup_precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "Shoup constant must be reduced: w={w} q={q}");
    (((w as u128) << 64) / q as u128) as u64
}

/// Shoup multiplication with **lazy** output: `r ≡ a·w (mod q)` with
/// `r ∈ [0, 2q)`, for *any* `a` (not only reduced ones) and `w < q`.
///
/// Cost: one `mulhi`, two `mullo`, one subtraction — no division.
/// Requires `q < 2^62` (see `MAX_SHOUP_MODULUS`).
#[inline(always)]
pub fn mul_shoup_lazy(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    debug_assert!(q < MAX_SHOUP_MODULUS);
    let hi = ((a as u128 * w_shoup as u128) >> 64) as u64;
    let r = a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
    debug_assert!(r < 2 * q, "Shoup residue out of range: r={r} q={q}");
    r
}

/// Shoup multiplication with fully reduced output in `[0, q)`.
///
/// Same contract as [`mul_shoup_lazy`] plus one conditional subtraction.
#[inline(always)]
pub fn mul_shoup(a: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let r = mul_shoup_lazy(a, w, w_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Precomputes the radix-2^52 Shoup quotient `floor(w · 2^52 / q)` for
/// a constant `w < q < 2^50` — the twiddle format of the AVX-512IFMA
/// butterfly (`vpmadd52` multiplies 52-bit lanes).
///
/// # Panics
///
/// Debug-asserts `w < q < 2^50`.
#[inline]
pub fn shoup_precompute52(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "Shoup constant must be reduced: w={w} q={q}");
    debug_assert!(q < MAX_SHOUP52_MODULUS);
    (((w as u128) << 52) / q as u128) as u64
}

/// Radix-2^52 Shoup multiplication with lazy output: `r ≡ a·w (mod q)`
/// with `r ∈ [0, 2q)`, for `a < 2^52` and `w < q < 2^50`. This is the
/// scalar model of one `vpmadd52hi` + two `vpmadd52lo` lanes; the
/// vector kernel in `abc-transform` computes exactly these words.
#[inline(always)]
pub(crate) fn mul_shoup52_lazy(a: u64, w: u64, w_shoup52: u64, q: u64) -> u64 {
    debug_assert!(q < MAX_SHOUP52_MODULUS && a <= MASK52);
    let hi = ((a as u128 * w_shoup52 as u128) >> 52) as u64;
    let r = a.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q)) & MASK52;
    debug_assert!(r < 2 * q, "Shoup-52 residue out of range: r={r} q={q}");
    r
}

/// Lazy addition: for `a, b ∈ [0, 2q)` returns `a + b` reduced once by
/// `2q`, i.e. a value in `[0, 2q)` congruent to `a + b (mod q)`.
#[inline(always)]
pub fn add_lazy(a: u64, b: u64, two_q: u64) -> u64 {
    debug_assert!(a < two_q && b < two_q);
    let s = a + b;
    if s >= two_q {
        s - two_q
    } else {
        s
    }
}

/// Lazy subtraction: for `a, b ∈ [0, 2q)` returns `a + 2q − b ∈ (0, 4q)`
/// — congruent to `a − b (mod q)` without any branch.
#[inline(always)]
pub fn sub_lazy(a: u64, b: u64, two_q: u64) -> u64 {
    debug_assert!(a < two_q && b < two_q);
    a + two_q - b
}

/// One conditional subtraction: maps `[0, 2m)` into `[0, m)`.
#[inline(always)]
pub fn reduce_once(x: u64, m: u64) -> u64 {
    if x >= m {
        x - m
    } else {
        x
    }
}

/// Normalizes a lazy value in `[0, 4q)` to the canonical `[0, q)`.
#[inline(always)]
pub fn normalize_4q(x: u64, q: u64) -> u64 {
    debug_assert!(x < 4 * q);
    reduce_once(reduce_once(x, 2 * q), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modulus;

    fn test_moduli() -> Vec<Modulus> {
        [
            97u64,
            65537,
            0xFFF0_0001,       // 2^32 - 2^20 + 1
            0xF_FFF0_0001,     // 2^36 - 2^20 + 1
            0xFFF_FFFF_C001,   // 2^44 - 2^14 + 1
            (1u64 << 62) - 57, // largest supported width
        ]
        .into_iter()
        .map(|q| Modulus::new(q).unwrap())
        .collect()
    }

    #[test]
    fn matches_golden_mul() {
        for m in test_moduli() {
            let q = m.q();
            let mut w = 0x9E37_79B9_7F4A_7C15u64 % q;
            for _ in 0..16 {
                w = w.wrapping_mul(6364136223846793005).wrapping_add(1) % q;
                let ws = shoup_precompute(w, q);
                for a in [0u64, 1, 2, q / 2, q - 1, q, 2 * q - 1, u64::MAX] {
                    // mul_shoup accepts unreduced `a`; compare against the
                    // golden model on `a mod q`.
                    assert_eq!(mul_shoup(a, w, ws, q), m.mul(a % q, w), "q={q} a={a} w={w}");
                    assert!(mul_shoup_lazy(a, w, ws, q) < 2 * q);
                }
            }
        }
    }

    #[test]
    fn mul_shoup52_matches_golden() {
        for m in test_moduli() {
            let q = m.q();
            if q >= MAX_SHOUP52_MODULUS {
                continue;
            }
            let mut w = 0x9E37_79B9_7F4A_7C15u64 % q;
            for _ in 0..16 {
                w = w.wrapping_mul(6364136223846793005).wrapping_add(1) % q;
                let ws = shoup_precompute52(w, q);
                for a in [0u64, 1, 2, q - 1, 2 * q - 1, 4 * q - 1, MASK52] {
                    let r = mul_shoup52_lazy(a, w, ws, q);
                    assert!(r < 2 * q, "q={q} a={a} w={w}");
                    assert_eq!(r % q, m.mul(a % q, w), "q={q} a={a} w={w}");
                }
            }
        }
    }

    #[test]
    fn lazy_helpers_stay_in_range() {
        let q = 0xF_FFF0_0001u64;
        let two_q = 2 * q;
        for a in [0u64, 1, q, two_q - 1] {
            for b in [0u64, 1, q, two_q - 1] {
                let s = add_lazy(a, b, two_q);
                assert!(s < two_q);
                assert_eq!(s % q, (a as u128 + b as u128) as u64 % q);
                let d = sub_lazy(a, b, two_q);
                assert!(d < 2 * two_q);
                assert_eq!(d % q, ((a + two_q - b) % q), "a={a} b={b}");
                assert!(normalize_4q(d, q) < q);
            }
        }
    }

    #[test]
    fn normalize_covers_full_lazy_range() {
        let q = 65537u64;
        for x in (0..4 * q).step_by(257) {
            assert_eq!(normalize_4q(x, q), x % q);
        }
        assert_eq!(normalize_4q(4 * q - 1, q), (4 * q - 1) % q);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Shoup constant must be reduced")]
    fn rejects_unreduced_constant() {
        shoup_precompute(100, 97);
    }
}
