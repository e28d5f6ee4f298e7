//! Security estimation against the Homomorphic Encryption Standard.
//!
//! The paper targets "the 128-bit security standard" (§II-A, ref \[5\]):
//! achieving high level counts at 128-bit security is *why* polynomial
//! degrees of 2^14–2^16 are required. This module encodes the
//! HomomorphicEncryption.org standard's table of maximum ciphertext
//! modulus bits per ring degree (ternary secret, classical attacks) and
//! checks parameter sets against it.

/// Security table rows: `(log2 N, max log2 Q)` for ≥128-bit classical
/// security with ternary secrets (HE Standard / \[5\]).
const MAX_MODULUS_BITS_128: [(u32, u32); 7] = [
    (10, 27),
    (11, 54),
    (12, 109),
    (13, 218),
    (14, 438),
    (15, 881),
    (16, 1772),
];

/// Classification of a parameter set against the 128-bit standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityLevel {
    /// Meets the 128-bit standard.
    Standard128,
    /// Modulus too large for the ring degree — fewer than 128 bits.
    Below128,
    /// Ring degree outside the standard's table.
    Unspecified,
}

/// Looks up the maximum total modulus bits allowed at 128-bit security
/// for `log_n`.
fn max_modulus_bits_128(log_n: u32) -> Option<u32> {
    MAX_MODULUS_BITS_128
        .iter()
        .find(|(ln, _)| *ln == log_n)
        .map(|(_, q)| *q)
}

/// Classifies `(log_n, modulus_bits)` against the standard.
fn classify(log_n: u32, modulus_bits: u32) -> SecurityLevel {
    match max_modulus_bits_128(log_n) {
        Some(max) if modulus_bits <= max => SecurityLevel::Standard128,
        Some(_) => SecurityLevel::Below128,
        None => SecurityLevel::Unspecified,
    }
}

/// How many `prime_bits`-bit RNS primes fit at 128-bit security for
/// `log_n` — the "level budget" the paper's parameter discussion is
/// about (20–40 levels need large N).
fn max_primes_at_128(log_n: u32, prime_bits: u32) -> Option<u32> {
    max_modulus_bits_128(log_n).map(|q| q / prime_bits)
}

/// How many *multiplicative levels* fit at 128-bit security, with the
/// level accounting derived from the scale mode: a
/// [`ScaleMode::DoublePair`](crate::params::ScaleMode) level consumes
/// two primes, so the same modulus budget buys half as many (but
/// Δ_eff-sized) levels. At the paper's setting
/// (`log_n = 16`, 36-bit primes) the budget is 49 single-scale or 24
/// double-scale levels — comfortably above the 12 the preset uses.
fn max_levels_at_128(log_n: u32, prime_bits: u32, mode: crate::params::ScaleMode) -> Option<u32> {
    max_primes_at_128(log_n, prime_bits).map(|p| p / mode.primes_per_level() as u32)
}

impl crate::params::CkksParams {
    /// Classifies this parameter set against the 128-bit HE standard.
    ///
    /// # Example
    ///
    /// ```
    /// use abc_ckks::params::CkksParams;
    /// use abc_ckks::security::SecurityLevel;
    ///
    /// # fn main() -> Result<(), abc_ckks::CkksError> {
    /// // The paper's headline setting is standard-compliant…
    /// let p16 = CkksParams::bootstrappable(16)?;
    /// assert_eq!(p16.security_level(), SecurityLevel::Standard128);
    /// // …but the same 24-prime modulus at N = 2^13 would not be.
    /// let p13 = CkksParams::bootstrappable(13)?;
    /// assert_eq!(p13.security_level(), SecurityLevel::Below128);
    /// # Ok(())
    /// # }
    /// ```
    pub fn security_level(&self) -> SecurityLevel {
        classify(self.log_n(), self.modulus_bits())
    }

    /// The multiplicative-level budget at 128-bit security for this
    /// ring/prime-width/scale-mode combination (`None` outside the
    /// standard's table). Pair accounting under the double scale.
    pub fn max_levels_at_128(&self) -> Option<u32> {
        max_levels_at_128(self.log_n(), self.prime_bits(), self.scale_mode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    #[test]
    fn table_monotone() {
        for w in MAX_MODULUS_BITS_128.windows(2) {
            assert!(w[1].0 == w[0].0 + 1);
            assert!(w[1].1 > w[0].1, "budget must grow with N");
        }
    }

    #[test]
    fn paper_headline_setting_is_secure() {
        // N = 2^16 with 24 x 36-bit primes: 864 <= 1772.
        assert_eq!(classify(16, 24 * 36), SecurityLevel::Standard128);
        // N = 2^15 with the same modulus: 864 <= 881, still fine.
        assert_eq!(classify(15, 24 * 36), SecurityLevel::Standard128);
        // N = 2^14: 864 > 438 — bootstrappable level counts *require*
        // large rings, the paper's core parameter argument.
        assert_eq!(classify(14, 24 * 36), SecurityLevel::Below128);
    }

    #[test]
    fn level_budget_motivates_large_rings() {
        // "20-40 encryption levels" of 32-36-bit primes need N >= 2^15.
        assert!(max_primes_at_128(16, 36).expect("in table") >= 40);
        assert!(max_primes_at_128(15, 36).expect("in table") >= 20);
        assert!(max_primes_at_128(13, 36).expect("in table") < 20);
    }

    #[test]
    fn pair_level_budget_halves_under_double_scale() {
        use crate::params::ScaleMode;
        assert_eq!(max_levels_at_128(16, 36, ScaleMode::Single), Some(49));
        assert_eq!(max_levels_at_128(16, 36, ScaleMode::DoublePair), Some(24));
        assert_eq!(max_levels_at_128(20, 36, ScaleMode::DoublePair), None);
        // The paper's preset fits its 12 double-scale levels at N=2^16.
        let p = CkksParams::bootstrappable(16).expect("preset");
        let budget = p.max_levels_at_128().expect("in table");
        assert!(
            p.multiplicative_levels() as u32 <= budget,
            "budget {budget}"
        );
    }

    #[test]
    fn params_method() {
        let p = CkksParams::bootstrappable(16).expect("preset");
        assert_eq!(p.security_level(), SecurityLevel::Standard128);
        let small = CkksParams::builder()
            .log_n(9)
            .num_primes(2)
            .build()
            .expect("params");
        assert_eq!(small.security_level(), SecurityLevel::Unspecified);
    }
}
