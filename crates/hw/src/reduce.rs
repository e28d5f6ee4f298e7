//! The three modular-multiplication algorithms compared in the paper's
//! Table I — Barrett, vanilla Montgomery, and the NTT-friendly Montgomery
//! whose `Q^-1` multiplication collapses to shift-and-add — behind one
//! [`ModMul`] strategy trait.
//!
//! Barrett and Montgomery are `abc_math::reduce`'s, the reducers the
//! client runs (the dyadic scalar rung and the test oracles); the
//! NTT-friendly one exists only here, as the functional model of the
//! datapath the area model prices. All three compute identical results;
//! what they cost in hardware (multipliers, pipeline depth, area) is
//! stated once, in [`crate::multiplier::MulAlgorithm`].

use abc_math::reduce::{Barrett, Montgomery};
use abc_math::{MathError, Modulus};

/// A modular-multiplication strategy over a fixed modulus.
///
/// Implementations must satisfy `mul_mod(a, b) = a·b mod q` for all
/// `a, b ∈ [0, q)`; the property-test suite checks each implementation
/// against the `u128` golden model.
pub trait ModMul {
    /// Computes `a·b mod q` for `a, b ∈ [0, q)`.
    fn mul_mod(&self, a: u64, b: u64) -> u64;
}

impl ModMul for Barrett {
    fn mul_mod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }
}

impl ModMul for Montgomery {
    fn mul_mod(&self, a: u64, b: u64) -> u64 {
        // redc(a*b) = a*b*R^-1; multiply by R^2 then redc to restore.
        let t = self.redc(a as u128 * b as u128);
        self.redc(t as u128 * self.r2() as u128)
    }
}

/// A canonical-signed-digit (CSD) decomposition term: `sign * 2^shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsdTerm {
    /// `+1` or `-1`.
    pub sign: i8,
    /// Power-of-two shift amount.
    pub shift: u32,
}

/// Canonical signed-digit decomposition of `x`: the minimal-weight
/// representation `x = Σ sign_i · 2^shift_i` with no two adjacent non-zero
/// digits. The number of terms is the adder count of a shift-and-add
/// multiplier by the constant `x`.
pub fn csd(x: u64) -> Vec<CsdTerm> {
    let mut terms = Vec::new();
    let mut v = x as u128;
    let mut shift = 0u32;
    while v != 0 {
        if v & 1 == 1 {
            // Look at the two low bits to decide between +1 and -1 digit.
            if v & 3 == 3 {
                terms.push(CsdTerm { sign: -1, shift });
                v += 1; // borrow propagates as +1
            } else {
                terms.push(CsdTerm { sign: 1, shift });
                v -= 1;
            }
        }
        v >>= 1;
        shift += 1;
    }
    terms
}

/// Evaluates a CSD decomposition back to a value modulo `2^64` (wrapping),
/// used to verify decompositions of constants that live modulo `R`.
pub fn csd_eval_wrapping(terms: &[CsdTerm]) -> u64 {
    let mut acc = 0u64;
    for t in terms {
        let v = if t.shift >= 64 { 0 } else { 1u64 << t.shift };
        if t.sign > 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc = acc.wrapping_sub(v);
        }
    }
    acc
}

/// The paper's NTT-friendly Montgomery multiplier (§IV-A, Eq. 8–11).
///
/// Uses the Montgomery radix `R = 2^r` with `r = bits(q) + 2`, the smallest
/// convenient power of two above the prime. For structured primes
/// `Q = 2^bw + k·2^(n+1) + 1` with `k = ±2^a ± 2^b ± 2^c` (paper Eq. 8),
/// both `-Q^{-1} mod R` *and* `Q` have low canonical-signed-digit weight:
/// writing `Q = 1 + c` with `c = 2^bw + k·2^(n+1)` (trailing zeros ≥ n+1),
/// the Neumann series `Q^{-1} = 1 - c + c^2 - …` truncates after two or
/// three sparse terms modulo `2^r`. Both inner REDC products are therefore
/// evaluated *through shift-and-add networks* — faithfully modelling the
/// hardware datapath, which keeps a single true multiplier (Table I).
#[derive(Debug, Clone)]
pub struct NttFriendlyMontgomery {
    m: Modulus,
    /// Radix exponent: `R = 2^r`.
    r: u32,
    /// `-q^{-1} mod 2^r`.
    qinv_neg: u64,
    /// `R^2 mod q` for restoring the ordinary domain after REDC.
    r2: u64,
    /// CSD decomposition of `-q^{-1} mod 2^r`.
    qinv_csd: Vec<CsdTerm>,
    /// CSD decomposition of `q` itself (the `m·Q` network).
    q_csd: Vec<CsdTerm>,
}

impl NttFriendlyMontgomery {
    /// Maximum shift-add terms per network before it stops being cheaper
    /// than a real multiplier. Structured primes land well under this;
    /// random primes exceed it and are rejected.
    pub const MAX_CSD_WEIGHT: usize = 9;

    /// Builds the shift-add REDC network for `m`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if the CSD weight of
    /// `-q^{-1} mod 2^r` or of `q` exceeds [`Self::MAX_CSD_WEIGHT`] —
    /// i.e. the prime is not NTT-friendly in the paper's sense and a
    /// shift-add network would be larger than a real multiplier.
    pub fn new(m: Modulus) -> Result<Self, MathError> {
        let r = m.bits() + 2;
        debug_assert!(r <= 65);
        let r = r.min(63); // keep (t mod R) in u64 with headroom
        if (1u64 << r) <= m.q() {
            return Err(MathError::InvalidModulus(m.q()));
        }
        let mask = (1u64 << r) - 1;
        let qinv = inv_mod_2_64(m.q()) & mask;
        let qinv_neg = qinv.wrapping_neg() & mask;
        debug_assert_eq!(m.q().wrapping_mul(qinv) & mask, 1);
        let r_mod_q = ((1u128 << r) % m.q() as u128) as u64;
        let r2 = m.mul(r_mod_q, r_mod_q);
        let qinv_csd = csd(qinv_neg);
        let q_csd = csd(m.q());
        if qinv_csd.len() > Self::MAX_CSD_WEIGHT || q_csd.len() > Self::MAX_CSD_WEIGHT {
            return Err(MathError::InvalidModulus(m.q()));
        }
        Ok(Self {
            m,
            r,
            qinv_neg,
            r2,
            qinv_csd,
            q_csd,
        })
    }

    /// Number of shift-add terms in the `Q^{-1}` network.
    pub fn csd_weight(&self) -> usize {
        self.qinv_csd.len()
    }

    /// Number of shift-add terms in the `Q` network.
    pub fn q_csd_weight(&self) -> usize {
        self.q_csd.len()
    }

    /// Total adder count of both shift-add networks (area-model input).
    pub fn total_adders(&self) -> usize {
        // An n-term CSD network needs n-1 adders.
        self.qinv_csd.len().saturating_sub(1) + self.q_csd.len().saturating_sub(1)
    }

    /// The Montgomery radix exponent `r` (so `R = 2^r`).
    pub fn radix_bits(&self) -> u32 {
        self.r
    }

    /// REDC with `R = 2^r`: computes `t · R^{-1} mod q` for `t < q·R`,
    /// with both inner products evaluated by shift-and-add networks.
    #[inline]
    pub fn redc_shift_add(&self, t: u128) -> u64 {
        let mask = (1u64 << self.r) - 1;
        let t_lo = (t as u64) & mask;
        // Network 1: m = t_lo * (-q^{-1}) mod 2^r via shifts and adds.
        let mut mm = 0u64;
        for term in &self.qinv_csd {
            let shifted = t_lo.wrapping_shl(term.shift);
            if term.sign > 0 {
                mm = mm.wrapping_add(shifted);
            } else {
                mm = mm.wrapping_sub(shifted);
            }
        }
        let mm = mm & mask;
        debug_assert_eq!(mm, t_lo.wrapping_mul(self.qinv_neg) & mask);
        // Network 2: m * q via shifts and adds (u128 accumulation).
        let mut mq = 0i128;
        for term in &self.q_csd {
            let shifted = (mm as u128) << term.shift;
            if term.sign > 0 {
                mq += shifted as i128;
            } else {
                mq -= shifted as i128;
            }
        }
        debug_assert_eq!(mq as u128, mm as u128 * self.m.q() as u128);
        let t2 = ((t + mq as u128) >> self.r) as u64;
        if t2 >= self.m.q() {
            t2 - self.m.q()
        } else {
            t2
        }
    }
}

impl ModMul for NttFriendlyMontgomery {
    fn mul_mod(&self, a: u64, b: u64) -> u64 {
        let t = self.redc_shift_add(a as u128 * b as u128);
        self.redc_shift_add(t as u128 * self.r2 as u128)
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

    #[test]
    fn ntt_friendly_matches_reference() {
        // Structured primes where the CSD weight is small.
        for q in [0xFFF0_0001u64, 0xF_FFF0_0001, 0xFFF_FFFF_C001] {
            let m = Modulus::new(q).unwrap();
            let nf = NttFriendlyMontgomery::new(m).unwrap();
            assert!(nf.csd_weight() <= NttFriendlyMontgomery::MAX_CSD_WEIGHT);
            // Both networks together stay under the weight bound.
            assert!(nf.total_adders() <= 2 * (NttFriendlyMontgomery::MAX_CSD_WEIGHT - 1));
            for (x, y) in sample_pairs(q) {
                assert_eq!(nf.mul_mod(x, y), m.mul(x, y), "q={q} x={x} y={y}");
            }
        }
    }

    #[test]
    fn csd_is_minimal_weight_and_correct() {
        for x in [
            0u64,
            1,
            2,
            3,
            7,
            0xF0F0,
            0xDEAD_BEEF,
            u64::MAX,
            0x8000_0000_0000_0001,
        ] {
            let terms = csd(x);
            assert_eq!(csd_eval_wrapping(&terms), x, "x={x:#x}");
            // CSD property: no two adjacent nonzero digits.
            let mut shifts: Vec<u32> = terms.iter().map(|t| t.shift).collect();
            shifts.sort_unstable();
            for w in shifts.windows(2) {
                assert!(w[1] - w[0] >= 2, "adjacent digits in CSD of {x:#x}");
            }
        }
        // Classic example: 15 = 16 - 1 (weight 2, not 4).
        assert_eq!(csd(15).len(), 2);
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
