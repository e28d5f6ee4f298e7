//! The two textbook scalar modular reducers: Montgomery (the scalar
//! rung of [`crate::dyadic::DyadicEngine`]) and Barrett.
//!
//! The paper's Table I compares them with a third, the NTT-friendly
//! shift-and-add Montgomery; that one, and the strategy trait the
//! comparison runs through, are hardware models and live in `abc-hw`,
//! which is where Barrett runs.

use crate::modulus::Modulus;

/// Textbook Barrett reduction (paper refs \[4\]): approximates division by a
/// multiplication with the precomputed constant `mu = floor(2^(2k) / q)`.
///
/// # Example
///
/// ```
/// use abc_math::reduce::Barrett;
/// use abc_math::Modulus;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(0x0000_000F_FFFF_FF01)?; // any odd modulus works
/// let b = Barrett::new(m);
/// assert_eq!(b.reduce(123456789 * 987654321), m.mul(123456789, 987654321));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Barrett {
    m: Modulus,
    /// `floor(2^(2k) / q)` where `k = bits(q)`, so `2^(k-1) <= q < 2^k`.
    mu: u128,
    k: u32,
}

impl Barrett {
    /// Precomputes the Barrett constant for `m`.
    pub fn new(m: Modulus) -> Self {
        // The classical parameterization: k = bits(q), i.e.
        // 2^(k-1) <= q < 2^k. (With any looser k — e.g. bits(q) + 1 —
        // the t >> (k-1) truncation alone can cost two quotient units
        // and the undershoot bound below becomes 3, not 2.)
        let k = m.bits();
        // 2^(2k) fits in u128: bits(q) <= 62 => 2k <= 124.
        let mu = (1u128 << (2 * k)) / m.q() as u128;
        Self { m, mu, k }
    }

    /// Reduces `t < 2^(2k)` (`k = bits(q)`) to `[0, q)`.
    ///
    /// The proven input domain is HAC Alg. 14.42's actual hypothesis
    /// `t < b^(2k)` — **not** merely `t < q²`. Since
    /// `q² + q − 1 < 2^(2k)`, every fused product `a·b + c` with
    /// `a, b, c ∈ [0, q)` is inside the domain, but a product of two *lazy*
    /// `[0, 2q)` operands can reach `4q² ≥ 2^(2k)` and is **out of
    /// contract** — lazy paths must reduce at least one operand first
    /// (debug-asserted below).
    #[inline]
    pub fn reduce(&self, t: u128) -> u64 {
        debug_assert!(
            t >> (2 * self.k) == 0,
            "Barrett input {t} outside the proven domain t < 2^(2k), k={}",
            self.k
        );
        let q = self.m.q() as u128;
        // Estimate the quotient: qhat = floor( floor(t / 2^(k-1)) * mu / 2^(k+1) ).
        let thi = t >> (self.k - 1);
        // thi < 2^(2k) / 2^(k-1) = 2^(k+1); mu <= 2^(k+1); product < 2^(2k+2) <= 2^128.
        // Split to avoid overflow: use 128x128->hi via decomposition
        // into 64-bit halves.
        let qhat = mul_hi_shift(thi, self.mu, self.k + 1);
        // With 2^(k-1) <= q < 2^k the estimate undershoots floor(t/q)
        // by at most 2 (HAC Alg. 14.42), so the remainder lands in
        // [0, 3q): exactly two conditional subtractions normalize it —
        // no data-dependent loop.
        let mut r = t - qhat * q;
        debug_assert!(r < 3 * q, "Barrett remainder {r} outside [0, 3q) for q={q}");
        if r >= q {
            r -= q;
        }
        if r >= q {
            r -= q;
        }
        debug_assert!(r < q);
        r as u64
    }
}

/// Computes `floor(a * b / 2^s)` where the 256-bit product is formed from
/// 128-bit halves. In Barrett's use `s = k + 1 ≤ 63` (since
/// `k = bits(q) ≤ 62`), so the `s < 128` branch below is the live one;
/// the function handles any `s < 192` generically so it stays correct
/// for other callers and parameterizations.
#[inline]
fn mul_hi_shift(a: u128, b: u128, s: u32) -> u128 {
    // Split both operands into 64-bit limbs: a = a1*2^64 + a0.
    let (a1, a0) = ((a >> 64) as u64, a as u64);
    let (b1, b0) = ((b >> 64) as u64, b as u64);
    let p00 = a0 as u128 * b0 as u128;
    let p01 = a0 as u128 * b1 as u128;
    let p10 = a1 as u128 * b0 as u128;
    let p11 = a1 as u128 * b1 as u128;
    // 256-bit product = p11<<128 + (p01 + p10)<<64 + p00, accumulated carefully.
    let mid = p01.wrapping_add(p10);
    let mid_carry = (mid < p01) as u128; // carry into bit 192
    let lo = p00.wrapping_add(mid << 64);
    let lo_carry = (lo < p00) as u128;
    let hi = p11 + (mid >> 64) + (mid_carry << 64) + lo_carry;
    if s < 128 {
        (lo >> s) | (hi << (128 - s))
    } else {
        hi >> (s - 128)
    }
}

/// Vanilla Montgomery multiplication (paper refs \[25\]) with `R = 2^64`.
///
/// A single product converts the REDC output back by a second REDC
/// against `R^2 mod q` ([`Montgomery::r2`]), matching how a hardware
/// pipeline hides domain conversion inside the twiddle constants.
///
/// # Batch (vector) use — the Montgomery-domain lifecycle
///
/// Element-wise loops amortize the domain conversion instead of paying
/// it per multiply: **enter** one operand once per polynomial
/// (`Montgomery::to_mont_slice`, `b̃ = b·R mod q`), **operate** with a
/// single fused REDC per element (`redc(a·b̃) = a·b mod q` — the entry
/// factor cancels the REDC's `R^{-1}`), and **exit** for free (outputs
/// are already ordinary-domain). [`crate::dyadic::DyadicEngine`] wraps
/// this lifecycle (and its radix-2^52 AVX-512IFMA counterpart) behind a
/// kernel-dispatched API.
#[derive(Debug, Clone, Copy)]
pub struct Montgomery {
    m: Modulus,
    /// `-q^{-1} mod 2^64`.
    qinv_neg: u64,
    /// `R^2 mod q` for domain entry.
    r2: u64,
}

impl Montgomery {
    /// Precomputes the Montgomery constants for `m`.
    pub fn new(m: Modulus) -> Self {
        let qinv = inv_mod_2_64(m.q());
        let qinv_neg = qinv.wrapping_neg();
        // R mod q, then square it.
        let r = ((1u128 << 64) % m.q() as u128) as u64;
        let r2 = m.mul(r, r);
        Self { m, qinv_neg, r2 }
    }

    /// Montgomery reduction: computes `t · R^{-1} mod q` for `t < q·R`.
    #[inline]
    pub fn redc(&self, t: u128) -> u64 {
        let q = self.m.q();
        let m = (t as u64).wrapping_mul(self.qinv_neg);
        let t2 = (t + m as u128 * q as u128) >> 64;
        let t2 = t2 as u64;
        if t2 >= q {
            t2 - q
        } else {
            t2
        }
    }

    /// Maps `a` into the Montgomery domain (`a·R mod q`).
    #[inline]
    pub fn to_mont(&self, a: u64) -> u64 {
        self.redc(a as u128 * self.r2 as u128)
    }

    /// Maps a Montgomery-domain value back to the ordinary domain.
    #[inline]
    pub fn from_mont(&self, a: u64) -> u64 {
        self.redc(a as u128)
    }

    /// Multiplies two Montgomery-domain values, staying in the domain.
    #[inline]
    pub fn mont_mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// The precomputed `R² mod q` (the domain-entry constant).
    #[inline]
    pub fn r2(&self) -> u64 {
        self.r2
    }

    /// Batch domain entry: maps every element of `a` into the
    /// Montgomery domain in place (`a[i] ← a[i]·R mod q`).
    pub(crate) fn to_mont_slice(self, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = self.to_mont(*x);
        }
    }
}

/// Newton iteration for the inverse of an odd number modulo `2^64`.
fn inv_mod_2_64(q: u64) -> u64 {
    debug_assert!(q % 2 == 1);
    let mut x = q; // correct mod 2^3
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(x)));
    }
    debug_assert_eq!(q.wrapping_mul(x), 1);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_primes() -> Vec<u64> {
        // A mix of NTT-friendly primes (structured) and general primes.
        vec![
            97,
            65537,
            0xFFF0_0001,         // 2^32 - 2^20 + 1 (structured prime)
            0xF_FFF0_0001,       // 2^36 - 2^20 + 1 (structured prime)
            0xFFF_FFFF_C001,     // 2^44 - 2^14 + 1 (structured prime)
            4611686018427387847, // large odd (primality irrelevant for reduction)
        ]
    }

    #[test]
    fn barrett_matches_reference() {
        for q in test_primes() {
            let m = Modulus::new(q).unwrap();
            let b = Barrett::new(m);
            for (x, y) in sample_pairs(q) {
                assert_eq!(
                    b.reduce(x as u128 * y as u128),
                    m.mul(x, y),
                    "q={q} x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn barrett_exhaustive_small_moduli() {
        // q = 1031, a = 1030, b = 1022 is a witness that the looser
        // k = bits(q)+1 parameterization undershoots the quotient by 3,
        // escaping two conditional subtractions. Exhaust every product
        // — plain and fused with both extreme addends — for several odd
        // moduli (including that witness) to pin the [0, 3q) remainder
        // bound across the whole proven domain.
        for q in [3u64, 5, 7, 31, 97, 127, 1031] {
            let m = Modulus::new(q).unwrap();
            let b = Barrett::new(m);
            for x in 0..q {
                for y in 0..q {
                    assert_eq!(
                        b.reduce(x as u128 * y as u128),
                        m.mul(x, y),
                        "q={q} x={x} y={y}"
                    );
                    for c in [1, q - 1] {
                        let t = x as u128 * y as u128 + c as u128;
                        assert_eq!(
                            b.reduce(t),
                            (t % q as u128) as u64,
                            "q={q} x={x} y={y} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn barrett_fused_boundary_every_width_class() {
        // The proven domain is t < 2^(2k) (HAC 14.42), not t < q²: for
        // every modulus width class k = 2..=62 hit the fused extreme
        // a = b = c = q − 1 (t = q² − q, a fused product's worst case)
        // and the absolute domain boundary t = 2^(2k) − 1, on both the
        // smallest and the largest odd modulus of the class.
        for k in 2u32..=62 {
            let lo = (1u64 << (k - 1)) | 1; // smallest odd with bits() == k
            let hi = (1u64 << k) - 1; // largest odd below 2^k
            for q in [lo, hi] {
                let m = Modulus::new(q).unwrap();
                assert_eq!(m.bits(), k);
                let b = Barrett::new(m);
                let qq = q as u128;
                let fused = (qq - 1) * (qq - 1) + (qq - 1);
                assert_eq!(b.reduce(fused), (fused % qq) as u64, "fused q={q}");
                let top = (1u128 << (2 * k)) - 1;
                assert_eq!(b.reduce(top), (top % qq) as u64, "domain top q={q}");
                assert_eq!(b.reduce(0), 0, "zero q={q}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the proven domain")]
    fn barrett_rejects_out_of_domain_input() {
        // 4q² (two lazy [0, 2q) operands multiplied) exceeds 2^(2k).
        let m = Modulus::new(97).unwrap();
        let b = Barrett::new(m);
        let t = 4u128 * 97 * 97;
        b.reduce(t);
    }

    #[test]
    fn montgomery_batch_lifecycle_roundtrip() {
        // enter → operate → (free) exit: the slice helpers agree with
        // the golden model element-wise and to_mont/from_mont invert.
        for q in [97u64, 0xF_FFF0_0001, 0xFFF_FFFF_C001] {
            let m = Modulus::new(q).unwrap();
            let mg = Montgomery::new(m);
            let a0: Vec<u64> = (0..33u64).map(|i| i.wrapping_mul(0x9E37) % q).collect();
            let b0: Vec<u64> = (0..33u64)
                .map(|i| i.wrapping_mul(0x1234_5677) % q)
                .collect();
            let mut b_mont = b0.clone();
            mg.to_mont_slice(&mut b_mont);
            let back: Vec<u64> = b_mont.iter().map(|&x| mg.from_mont(x)).collect();
            assert_eq!(back, b0, "q={q}");
            for i in 0..a0.len() {
                let product = mg.mont_mul(a0[i], b_mont[i]);
                assert_eq!(product, m.mul(a0[i], b0[i]), "q={q} i={i}");
            }
        }
    }

    #[test]
    fn montgomery_matches_reference() {
        for q in test_primes() {
            let m = Modulus::new(q).unwrap();
            let mg = Montgomery::new(m);
            for (x, y) in sample_pairs(q) {
                // One operand entered: redc(x·ỹ) = x·y mod q.
                assert_eq!(
                    mg.mont_mul(x, mg.to_mont(y)),
                    m.mul(x, y),
                    "q={q} x={x} y={y}"
                );
                // Domain round-trip.
                assert_eq!(mg.from_mont(mg.to_mont(x)), x);
                // In-domain multiply.
                let xm = mg.to_mont(x);
                let ym = mg.to_mont(y);
                assert_eq!(mg.from_mont(mg.mont_mul(xm, ym)), m.mul(x, y));
            }
        }
    }

    fn sample_pairs(q: u64) -> Vec<(u64, u64)> {
        let mut v = vec![
            (0, 0),
            (0, 1),
            (1, 1),
            (q - 1, q - 1),
            (q - 1, 1),
            (q / 2, 2),
        ];
        let mut x = 0x0123_4567_89AB_CDEFu64 % q;
        let mut y = 0x0FED_CBA9_8765_4321u64 % q;
        for _ in 0..32 {
            v.push((x, y));
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                % q;
            y = y.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % q;
        }
        v
    }
}
