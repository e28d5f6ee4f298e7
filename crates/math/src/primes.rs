//! Prime generation for RNS-CKKS: deterministic Miller–Rabin, generic
//! NTT-prime search, and the paper's structured-`k` NTT-friendly search
//! (Eq. 8: `Q = 2^bw + k·2^(n+1) + 1`, `k = ±2^a ± 2^b ± 2^c`).

use crate::MathError;

/// Deterministic Miller–Rabin primality test, valid for all `u64`.
///
/// Uses the minimal witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`
/// proven sufficient below `3.3 × 10^24`.
///
/// # Example
///
/// ```
/// use abc_math::primes::is_prime;
///
/// assert!(is_prime(0xF_FFF0_0001)); // 2^36 - 2^20 + 1
/// assert!(!is_prime(1 << 36));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod(a: u64, b: u64, n: u64) -> u64 {
    ((a as u128 * b as u128) % n as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, n: u64) -> u64 {
    base %= n;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, n);
        }
        base = mul_mod(base, base, n);
        exp >>= 1;
    }
    acc
}

/// Generates `count` distinct primes of exactly `bits` bits with
/// `q ≡ 1 (mod two_n)`, descending from `2^bits - 1`.
///
/// These are the moduli of an RNS basis for a negacyclic NTT of degree
/// `two_n / 2`.
///
/// # Errors
///
/// Returns [`MathError::PrimeSearchExhausted`] if fewer than `count`
/// suitable primes exist at that bit width — with nothing found for a
/// width outside `17..=62` (62 bits is the widest [`crate::Modulus`]
/// admits) — and [`MathError::InvalidModulus`]`(two_n)` if `two_n` is
/// not a power of two.
pub fn generate_ntt_primes(bits: u32, count: usize, two_n: u64) -> Result<Vec<u64>, MathError> {
    if !two_n.is_power_of_two() {
        return Err(MathError::InvalidModulus(two_n));
    }
    if !(17..=62).contains(&bits) {
        return Err(MathError::PrimeSearchExhausted {
            bits,
            found: 0,
            requested: count,
        });
    }
    let hi = (1u64 << bits) - 1;
    let lo = 1u64 << (bits - 1);
    // Largest candidate ≡ 1 mod two_n at or below hi.
    let mut cand = hi - ((hi - 1) % two_n);
    let mut out = Vec::with_capacity(count);
    while cand >= lo && out.len() < count {
        if is_prime(cand) {
            out.push(cand);
        }
        if cand < two_n {
            break;
        }
        cand -= two_n;
    }
    if out.len() < count {
        return Err(MathError::PrimeSearchExhausted {
            bits,
            found: out.len(),
            requested: count,
        });
    }
    Ok(out)
}

/// A structured NTT-friendly prime in the paper's form (Eq. 8):
/// `q = 2^bw ± 2^(a+n1) ± 2^(b+n1) ± 2^(c+n1) + 1` where `n1 = log2(2N)`
/// and up to three signed power-of-two terms make up `k·2^(n+1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructuredPrime {
    /// The prime value.
    pub q: u64,
    /// The leading exponent `bw` (so `q ≈ 2^bw`).
    pub bw: u32,
    /// Signed power-of-two terms `(sign, exponent)` composing `k·2^(n+1)`.
    pub terms: [(i8, u32); 3],
    /// Number of valid entries in `terms` (1..=3).
    pub num_terms: u8,
}

impl StructuredPrime {
    /// Bit length of the prime.
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }
}

/// Searches for all structured NTT-friendly primes (paper Eq. 8) with bit
/// length in `bit_range` that support a negacyclic NTT of degree `n`
/// (i.e. `q ≡ 1 mod 2n`).
///
/// `k` is restricted to at most three signed power-of-two terms, the form
/// the paper's shift-and-add Montgomery reduction requires. The paper
/// reports **443** such 32–36-bit primes for `N = 2^16`.
///
/// The range is clamped to 62 bits, the widest [`crate::Modulus`]
/// admits, before the search starts. Results are deduplicated by value
/// and sorted ascending.
pub fn search_structured_primes(
    bit_range: core::ops::RangeInclusive<u32>,
    n: u64,
) -> Vec<StructuredPrime> {
    let bit_range = *bit_range.start()..=(*bit_range.end()).min(62);
    let n1 = (2 * n).trailing_zeros(); // exponent of 2N
    let mut found: std::collections::BTreeMap<u64, StructuredPrime> = Default::default();
    for bw in bit_range.clone() {
        if bw <= n1 {
            continue;
        }
        let base = 1u64 << bw;
        // Enumerate k = ±2^a (± 2^b (± 2^c)) with n1 <= c+n1 < b+n1 < a+n1 < 63.
        // Exponents here are the *absolute* exponents e = log2 of each term
        // of k·2^(n+1), so e ranges over [n1, bw].
        let e_hi = bw; // terms beyond 2^bw would flip the leading power
        let exps: Vec<u32> = (n1..=e_hi).collect();
        let mut consider = |q_i: i128, terms: [(i8, u32); 3], num_terms: u8, bw: u32| {
            if q_i <= 2 {
                return;
            }
            let q = q_i as u64;
            let bits = 64 - q.leading_zeros();
            if !bit_range.contains(&bits) {
                return;
            }
            if !(q - 1).is_multiple_of(2 * n) {
                return;
            }
            if is_prime(q) {
                found.entry(q).or_insert(StructuredPrime {
                    q,
                    bw,
                    terms,
                    num_terms,
                });
            }
        };
        // One term.
        for (i, &a) in exps.iter().enumerate() {
            for sa in [1i8, -1] {
                let q1 = base as i128 + sa as i128 * (1i128 << a) + 1;
                consider(q1, [(sa, a), (0, 0), (0, 0)], 1, bw);
                // Two terms.
                for &b in &exps[..i] {
                    for sb in [1i8, -1] {
                        let q2 = q1 + sb as i128 * (1i128 << b);
                        consider(q2, [(sa, a), (sb, b), (0, 0)], 2, bw);
                        // Three terms.
                        for &c in &exps[..exps.iter().position(|&x| x == b).unwrap()] {
                            for sc in [1i8, -1] {
                                let q3 = q2 + sc as i128 * (1i128 << c);
                                consider(q3, [(sa, a), (sb, b), (sc, c)], 3, bw);
                            }
                        }
                    }
                }
            }
        }
    }
    found.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 65537, 0xF_FFF0_0001];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        let composites = [0u64, 1, 4, 9, 91, 65535, 1 << 36, 3215031751];
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn strong_pseudoprimes_rejected() {
        // Known strong pseudoprimes to small bases.
        for n in [2047u64, 1373653, 25326001, 3215031751, 2152302898747] {
            assert!(!is_prime(n), "{n} is composite");
        }
    }

    #[test]
    fn generated_primes_fit_constraints() {
        let two_n = 1u64 << 15; // N = 2^14
        let primes = generate_ntt_primes(36, 8, two_n).unwrap();
        assert_eq!(primes.len(), 8);
        let mut seen = std::collections::HashSet::new();
        for q in primes {
            assert!(is_prime(q));
            assert_eq!(64 - q.leading_zeros(), 36);
            assert_eq!((q - 1) % two_n, 0);
            assert!(seen.insert(q));
        }
    }

    #[test]
    fn generate_rejects_bad_args() {
        let none_at = |bits, requested| MathError::PrimeSearchExhausted {
            bits,
            found: 0,
            requested,
        };
        // A width outside 17..=62 names the width, not `two_n`.
        assert_eq!(generate_ntt_primes(5, 1, 1 << 15), Err(none_at(5, 1)));
        assert_eq!(generate_ntt_primes(16, 2, 1 << 4), Err(none_at(16, 2)));
        assert_eq!(generate_ntt_primes(63, 1, 1 << 15), Err(none_at(63, 1)));
        assert!(generate_ntt_primes(17, 1, 1 << 4).is_ok());
        assert!(generate_ntt_primes(62, 1, 1 << 15).is_ok());
        assert_eq!(
            generate_ntt_primes(36, 1, 12345),
            Err(MathError::InvalidModulus(12345))
        );
        // 2^17-bit primes congruent to 1 mod 2^17 barely exist at tiny widths.
        assert!(generate_ntt_primes(18, 1000, 1 << 17).is_err());
        // The structured search stops at 62 bits: a range reaching past
        // 62 returns no prime a `Modulus` would refuse.
        assert!(search_structured_primes(63..=63, 1 << 13).is_empty());
        let wide = search_structured_primes(62..=63, 1 << 16);
        assert!(wide.iter().all(|p| p.bits() == 62), "a 63-bit prime");
    }

    #[test]
    fn structured_search_finds_known_prime() {
        // 2^36 - 2^20 + 1 is prime and ≡ 1 mod 2^17, so it supports
        // N = 2^16; it must show up in the one-term search.
        let primes = search_structured_primes(36..=36, 1 << 16);
        assert!(primes.iter().any(|p| p.q == 0xF_FFF0_0001));
        for p in &primes {
            assert!(is_prime(p.q));
            assert_eq!((p.q - 1) % (1 << 17), 0);
            assert_eq!(p.bits(), 36);
        }
    }
}
