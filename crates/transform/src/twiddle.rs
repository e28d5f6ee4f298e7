//! The twiddle table of the negacyclic NTT.
//!
//! A [`TwiddleTable`] holds **one** column, the forward twiddles
//! `ψ^{brv(k)}`, and `N^{-1}`. Since `ψ^N = −1`,
//!
//! ```text
//! inverse(h, i) = ψ^{-brv(h+i)} = −ψ^{brv(h + (h−1−i))} = q − forward(h, h−1−i)
//! ```
//!
//! so a Gentleman–Sande stage walks the forward stage block `[h, 2h)`
//! from its top down and swaps the operands of its subtract
//! (`(x − y)·(−w) = (y − x)·w`). The Shoup quotients the fast kernels
//! multiply through are a [`crate::ntt::NttPlan`]'s, in its one radix.
//! The paper's on-the-fly generator, which regenerates the same column
//! from one seed per stage, is a model in `abc-hw`, checked twiddle for
//! twiddle against this table.

use crate::bitrev::bit_reverse;
use abc_math::{MathError, Modulus};

/// Precomputed twiddle table: the forward column `ψ^{brv(k)}` and
/// `N^{-1}` (module docs).
#[derive(Debug, Clone)]
pub struct TwiddleTable {
    n: usize,
    /// `fwd[k] = ψ^{brv(k)}`.
    fwd: Vec<u64>,
    n_inv: u64,
}

impl TwiddleTable {
    /// Builds the table for transform size `n` over modulus `m`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] if `q ≢ 1 (mod 2n)` and
    /// [`MathError::InvalidModulus`] if `n` is not a power of two ≥ 2.
    pub fn new(m: Modulus, n: usize) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::InvalidModulus(n as u64));
        }
        let psi = m.primitive_root_of_unity(2 * n as u64)?;
        Self::with_psi(m, n, psi)
    }

    /// Builds the table from an explicit 2N-th root `psi`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] if `psi` is not a primitive
    /// 2N-th root of unity.
    pub fn with_psi(m: Modulus, n: usize, psi: u64) -> Result<Self, MathError> {
        if m.pow(psi, 2 * n as u64) != 1 || m.pow(psi, n as u64) == 1 {
            return Err(MathError::NoRootOfUnity {
                modulus: m.q(),
                order: 2 * n as u64,
            });
        }
        let bits = n.trailing_zeros();
        // Powers in natural exponent order, each stored straight at its
        // bit-reversed index.
        let mut fwd = vec![0u64; n];
        let mut p = 1u64;
        for k in 0..n {
            fwd[bit_reverse(k, bits)] = p;
            p = m.mul(p, psi);
        }
        Ok(Self {
            n,
            fwd,
            n_inv: m.inv(n as u64).expect("n < q"),
        })
    }

    /// The 2N-th root this table was built from: the natural power 1,
    /// which lives at the bit-reversed index of 1.
    pub fn psi(&self) -> u64 {
        self.fwd[bit_reverse(1, self.n.trailing_zeros())]
    }

    /// The forward column `ψ^{brv(k)}`: stage `m`, index `i` lives at
    /// `k = m + i`; GS group `i` of `h` reads `q −` entry `2h − 1 − i`.
    #[inline]
    pub fn forward_column(&self) -> &[u64] {
        &self.fwd
    }

    /// `N^{-1} mod q`, applied at the end of the INTT.
    pub fn n_inv(&self) -> u64 {
        self.n_inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulus() -> Modulus {
        Modulus::new(0xFFF0_0001).unwrap() // 2^32 - 2^20 + 1, 2^20 | q-1
    }

    #[test]
    fn rejects_bad_sizes_and_roots() {
        let m = modulus();
        assert!(TwiddleTable::new(m, 3).is_err());
        assert!(TwiddleTable::new(m, 0).is_err());
        // 2^22 exceeds the 2-adicity of q-1 (2^20).
        assert!(TwiddleTable::new(m, 1 << 22).is_err());
        // An element that is not a primitive 2N-th root.
        assert!(TwiddleTable::with_psi(m, 16, 1).is_err());
    }
}
