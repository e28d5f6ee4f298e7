//! Golden-value regression tests for the math hot paths.
//!
//! Every constant in this file was computed *outside* the crate (Python
//! big-integer arithmetic; derivations quoted inline), so these tests pin
//! the Montgomery domain and the prime search against an independent
//! reference rather than against the crate's own arithmetic. The Table I
//! reducers' pinned products are `abc-hw`'s `tests/golden.rs`.

use abc_math::primes::{generate_ntt_primes, is_prime, search_structured_primes};
use abc_math::reduce::Montgomery;
use abc_math::Modulus;

/// The paper's structured primes used throughout: 2^44−2^14+1,
/// 2^36−2^20+1, 2^32−2^20+1.
const Q44: u64 = 0xFFF_FFFF_C001;
const Q36: u64 = 0xF_FFF0_0001;
const Q32: u64 = 0xFFF0_0001;

#[test]
fn montgomery_domain_constants() {
    // Round-trip through the Montgomery domain is exact for pinned
    // values; `to_mont(1) = R mod q`, computed independently.
    let m = Modulus::new(Q44).expect("modulus");
    let mont = Montgomery::new(m);
    // Python: (2**64) % (2**44 - 2**14 + 1) = 17178820608
    assert_eq!(mont.to_mont(1), 17_178_820_608);
    for x in [0u64, 1, 12345, Q44 - 1] {
        assert_eq!(mont.from_mont(mont.to_mont(x)), x);
    }
}

#[test]
fn ntt_prime_generation_is_pinned() {
    // Descending 36-bit primes ≡ 1 (mod 2^14), verified with sympy:
    // [0xffffc4001, 0xffff00001, 0xfffeec001, 0xfffe58001]
    assert_eq!(
        generate_ntt_primes(36, 4, 1 << 14).expect("primes"),
        vec![0xF_FFFC_4001, 0xF_FFF0_0001, 0xF_FFEE_C001, 0xF_FFE5_8001]
    );
    // Descending 44-bit primes ≡ 1 (mod 2^15):
    // [0xfffffdf8001, 0xfffffd78001]
    assert_eq!(
        generate_ntt_primes(44, 2, 1 << 15).expect("primes"),
        vec![0xFFF_FFDF_8001, 0xFFF_FFD7_8001]
    );
}

#[test]
fn primality_spot_checks_against_reference() {
    // Verified with sympy.isprime.
    for q in [Q44, Q36, Q32, 0xF_FFFC_4001, 0xFFF_FFDF_8001] {
        assert!(is_prime(q), "{q:#x} is prime");
    }
    // Composite neighbours of the structured primes (q ± 2) and
    // well-known strong-pseudoprime traps.
    for c in [Q44 + 2, Q36 - 2, Q32 + 2, 3_215_031_751, 2_152_302_898_747] {
        assert!(!is_prime(c), "{c:#x} is composite");
    }
}

#[test]
fn structured_search_contains_the_papers_anchor_primes() {
    // The Table-I / §IV-A anchor primes must come out of the Eq. 8
    // search for their respective (bits, N) settings.
    let p36 = search_structured_primes(36..=36, 1 << 16);
    assert!(p36.iter().any(|p| p.q == Q36));
    let p32 = search_structured_primes(32..=32, 1 << 10);
    assert!(p32.iter().any(|p| p.q == Q32));
    // Every reported prime re-verifies under the independent checks.
    for p in p36.iter().chain(&p32) {
        assert!(is_prime(p.q));
        assert_eq!(p.q % (1 << 11), 1);
    }
}
