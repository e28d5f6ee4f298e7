//! A single RNS prime modulus with reference modular arithmetic.

use crate::shoup::MAX_SHOUP_MODULUS;
use crate::MathError;

/// A prime modulus `q < 2^62` together with reference modular operations.
///
/// This type is the *golden model*: all operations route through `u128`
/// widening arithmetic and are used in tests to validate the hardware-style
/// reducers in [`crate::reduce`] and the kernels of
/// [`crate::dyadic::DyadicEngine`].
///
/// The bound is the workspace's one datapath width,
/// `MAX_SHOUP_MODULUS`: every kernel may keep a value lazy in
/// `[0, 4q)`, which must fit a `u64`, so no kernel needs a path for a
/// wider modulus.
///
/// # Example
///
/// ```
/// use abc_math::Modulus;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(97)?;
/// assert_eq!(m.add(90, 10), 3);
/// assert_eq!(m.pow(3, 96), 1); // Fermat
/// assert_eq!(m.mul(m.inv(5)?, 5), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if `q < 3`, `q` is even, or
    /// `q ≥ 2^62` (`MAX_SHOUP_MODULUS`).
    pub fn new(q: u64) -> Result<Self, MathError> {
        if q < 3 || q.is_multiple_of(2) || q >= MAX_SHOUP_MODULUS {
            return Err(MathError::InvalidModulus(q));
        }
        Ok(Self { q })
    }

    /// The raw modulus value.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Number of bits in the modulus (position of the highest set bit).
    #[inline]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary `u64` into `[0, q)`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        x % self.q
    }

    /// Reduces an arbitrary `u128` into `[0, q)`.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        (x % self.q as u128) as u64
    }

    /// Modular addition of two elements already in `[0, q)`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of two elements already in `[0, q)`.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of an element already in `[0, q)`.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication via `u128` widening (reference path).
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        ((a as u128 * b as u128) % self.q as u128) as u64
    }

    /// Fused multiply-add: `(a*b + c) mod q`.
    #[inline]
    pub(crate) fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        ((a as u128 * b as u128 + c as u128) % self.q as u128) as u64
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base %= self.q;
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`q` must be prime).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotInvertible`] if `a ≡ 0 (mod q)`.
    pub fn inv(&self, a: u64) -> Result<u64, MathError> {
        let a = a % self.q;
        if a == 0 {
            return Err(MathError::NotInvertible {
                value: a,
                modulus: self.q,
            });
        }
        Ok(self.pow(a, self.q - 2))
    }

    /// Maps a signed integer into `[0, q)`.
    #[inline]
    pub fn from_i64(&self, x: i64) -> u64 {
        let r = x.rem_euclid(self.q as i64);
        r as u64
    }

    /// Maps a signed 128-bit integer into `[0, q)`.
    #[inline]
    pub fn from_i128(&self, x: i128) -> u64 {
        x.rem_euclid(self.q as i128) as u64
    }

    /// Interprets `a ∈ [0, q)` as a centered representative in
    /// `(-q/2, q/2]`.
    #[inline]
    pub fn to_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }

    /// Finds a generator of the multiplicative group `Z_q^*`.
    ///
    /// Uses trial division to factor `q - 1` (fast for NTT primes, whose
    /// odd part is small) and tests candidates against every prime factor.
    fn primitive_generator(&self) -> u64 {
        let factors = distinct_prime_factors(self.q - 1);
        'cand: for g in 2..self.q {
            for &p in &factors {
                if self.pow(g, (self.q - 1) / p) == 1 {
                    continue 'cand;
                }
            }
            return g;
        }
        unreachable!("prime modulus always has a generator")
    }

    /// Returns a primitive `order`-th root of unity modulo `q`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] unless `order` divides `q - 1`.
    pub fn primitive_root_of_unity(&self, order: u64) -> Result<u64, MathError> {
        if order == 0 || !(self.q - 1).is_multiple_of(order) {
            return Err(MathError::NoRootOfUnity {
                modulus: self.q,
                order,
            });
        }
        let g = self.primitive_generator();
        let root = self.pow(g, (self.q - 1) / order);
        debug_assert_eq!(self.pow(root, order), 1);
        debug_assert_ne!(self.pow(root, order / 2), 1);
        Ok(root)
    }
}

impl core::fmt::Display for Modulus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Z_{}", self.q)
    }
}

/// Distinct prime factors of `n` by trial division.
///
/// NTT-prime group orders are `odd_part · 2^e` with a small odd part, so
/// trial division is fast in all uses inside this crate.
fn distinct_prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = 2u64;
    while d as u128 * d as u128 <= n as u128 {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_moduli() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(2).is_err());
        assert!(Modulus::new(10).is_err());
        assert!(Modulus::new(1 << 63).is_err());
        // The datapath stops at 2^62: the bound itself and an odd
        // modulus past it are refused, the widest odd one below it is not.
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new((1 << 62) + 135).is_err());
        assert!(Modulus::new((1 << 62) - 57).is_ok());
        assert!(Modulus::new(97).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        // A 62-bit NTT prime: near the top of the supported range.
        let m = Modulus::new(4611686018427322369).unwrap();
        for a in [0u64, 1, 5, m.q() - 1] {
            for b in [0u64, 1, 7, m.q() - 1] {
                assert_eq!(m.sub(m.add(a, b), b), a);
            }
            assert_eq!(m.add(a, m.neg(a)), 0);
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(65537).unwrap();
        assert_eq!(m.pow(3, 0), 1);
        assert_eq!(m.pow(0, 5), 0);
        for a in 1..100u64 {
            let inv = m.inv(a).unwrap();
            assert_eq!(m.mul(a, inv), 1);
        }
        assert!(m.inv(0).is_err());
    }

    #[test]
    fn centered_representatives() {
        let m = Modulus::new(17).unwrap();
        assert_eq!(m.to_centered(0), 0);
        assert_eq!(m.to_centered(8), 8);
        assert_eq!(m.to_centered(9), -8);
        assert_eq!(m.to_centered(16), -1);
        assert_eq!(m.from_i64(-1), 16);
        assert_eq!(m.from_i128(-18), 16);
    }

    #[test]
    fn roots_of_unity() {
        // 97 - 1 = 96 = 2^5 * 3, so 32nd roots exist but 64th do not.
        let m = Modulus::new(97).unwrap();
        let w = m.primitive_root_of_unity(32).unwrap();
        assert_eq!(m.pow(w, 32), 1);
        assert_ne!(m.pow(w, 16), 1);
        assert!(m.primitive_root_of_unity(64).is_err());
    }

    #[test]
    fn factorization() {
        assert_eq!(distinct_prime_factors(96), vec![2, 3]);
        assert_eq!(distinct_prime_factors(97), vec![97]);
        assert_eq!(distinct_prime_factors(1), Vec::<u64>::new());
    }
}
