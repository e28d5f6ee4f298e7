//! Modular-arithmetic substrate for the ABC-FHE reproduction.
//!
//! ABC-FHE (Yune et al., DAC 2025) performs all client-side CKKS integer
//! arithmetic in the residue number system over *NTT-friendly* primes
//! `Q = 2^bw + k·2^(n+1) + 1` where `k = ±2^a ± 2^b ± 2^c` (paper Eq. 8).
//! This crate provides everything below the transform layer:
//!
//! * [`Modulus`] — a single RNS prime with reference (`u128`-based) modular
//!   operations, primitive roots and inverses.
//! * [`reduce`] — the two textbook scalar reducers:
//!   [`reduce::Montgomery`], the dyadic engine's scalar rung, and
//!   [`reduce::Barrett`]. The paper's Table I comparison — the
//!   NTT-friendly shift-and-add Montgomery beside these two — is a model
//!   in `abc-hw`.
//! * [`primes`] — deterministic Miller–Rabin primality, generic NTT-prime
//!   generation, and the structured-`k` search that backs the paper's claim
//!   of 443 usable 32–36-bit primes for `N = 2^16`.
//! * [`bigint`] — a minimal unsigned big integer ([`bigint::UBig`]) used by
//!   exact scale arithmetic and by the CRT lift's oracle and fallback.
//! * [`rns`] — RNS bases, the scalar rung of division-free expansion of
//!   signed coefficient slices into residues ([`rns::SignedCoeffs`]), and the two CRT lifts: the word-sized verified [`rns::WordLift`] that decode and
//!   rescale run (AVX-512IFMA → scalar, its vector rung in `simd`), and
//!   the big-integer Garner recombination of [`rns::RnsBasis`] it falls
//!   back to and is tested against.
//! * [`poly`] — element-wise polynomial (vector) operations over `Z_q`, the
//!   workload of the paper's Modular Streaming Engine, as loops over the
//!   [`Modulus`] ops: the oracle of the dyadic kernels.
//! * [`dyadic`] — the [`DyadicEngine`] that dispatches those element-wise
//!   ops, and RNS expansion, per modulus to the fastest kernel
//!   (AVX-512IFMA radix-2^52 → scalar).
//! * [`simd`] (`x86_64` only) — the AVX-512IFMA datapath in one place:
//!   the element-wise, expansion and lift kernels behind the dyadic
//!   engine and the word lift, and the IFMA butterfly passes that
//!   `NttPlan` in `abc-transform` runs through three safe functions.
//! * [`kernel`] — the one kernel ladder ([`KernelTier`], [`CpuCaps`],
//!   `ABC_FHE_KERNEL`) that the dyadic engine and the word lift here and
//!   the NTT and FFT plans in `abc-transform` all select their kernels
//!   through.
//! * [`shoup`] — Shoup-precomputed constant multiplication and the lazy
//!   `[0, 2q)`/`[0, 4q)` reduction helpers behind the Harvey NTT
//!   butterflies in `abc-transform`.
//!
//! # Example
//!
//! ```
//! use abc_math::{Modulus, primes::generate_ntt_primes};
//!
//! # fn main() -> Result<(), abc_math::MathError> {
//! // Three 36-bit primes usable for a negacyclic NTT of degree 2^14.
//! let qs = generate_ntt_primes(36, 3, 1 << 15)?;
//! let m = Modulus::new(qs[0])?;
//! assert_eq!(m.mul(m.q() - 1, m.q() - 1), 1); // (-1)·(-1) = 1
//! # Ok(())
//! # }
//! ```

// Every unsafe operation inside an `unsafe fn` must sit in its own
// `unsafe {}` block with a SAFETY comment — enforced here and audited
// by `cargo run -p abc-analysis -- check`.
#![deny(unsafe_op_in_unsafe_fn)]
// Public APIs in the hardened crates must be documented (the unsafe
// ones additionally need a `# Safety` section, enforced by abc-analysis).
#![deny(missing_docs)]

pub mod bigint;
pub mod dyadic;
pub mod envtest;
pub mod kernel;
pub mod modulus;
pub mod poly;
pub mod primes;
pub mod reduce;
pub mod rns;
pub mod shoup;
#[cfg(target_arch = "x86_64")]
pub mod simd;

pub use bigint::UBig;
pub use dyadic::DyadicEngine;
pub use kernel::{CpuCaps, KernelTier};
pub use modulus::Modulus;
pub use rns::RnsBasis;

/// Errors produced by the math substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MathError {
    /// The modulus was zero, one, even, or too large for the 62-bit
    /// datapath (`shoup::MAX_SHOUP_MODULUS`).
    InvalidModulus(u64),
    /// A multiplicative inverse was requested for a non-invertible element.
    NotInvertible {
        /// The element with no inverse.
        value: u64,
        /// The modulus it was inverted against.
        modulus: u64,
    },
    /// Prime generation could not find enough primes under the constraints.
    PrimeSearchExhausted {
        /// Requested bit width.
        bits: u32,
        /// How many primes were found before the search space ran out.
        found: usize,
        /// How many primes were requested.
        requested: usize,
    },
    /// The modulus is not congruent to 1 modulo `2N`, so no 2N-th root of
    /// unity exists and the negacyclic NTT is undefined.
    NoRootOfUnity {
        /// The offending modulus.
        modulus: u64,
        /// The root order (`2N`) that was requested.
        order: u64,
    },
    /// An RNS basis was constructed from non-coprime or repeated moduli.
    BasisNotCoprime {
        /// First member of the non-coprime pair.
        a: u64,
        /// Second member of the non-coprime pair.
        b: u64,
    },
    /// An empty RNS basis or empty polynomial was supplied.
    Empty,
}

impl core::fmt::Display for MathError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MathError::InvalidModulus(q) => write!(f, "invalid modulus {q}"),
            MathError::NotInvertible { value, modulus } => {
                write!(f, "{value} is not invertible modulo {modulus}")
            }
            MathError::PrimeSearchExhausted {
                bits,
                found,
                requested,
            } => write!(
                f,
                "prime search exhausted: found {found} of {requested} {bits}-bit primes"
            ),
            MathError::NoRootOfUnity { modulus, order } => {
                write!(
                    f,
                    "modulus {modulus} admits no primitive {order}-th root of unity"
                )
            }
            MathError::BasisNotCoprime { a, b } => {
                write!(f, "moduli {a} and {b} are not coprime")
            }
            MathError::Empty => write!(f, "empty basis or polynomial"),
        }
    }
}

impl std::error::Error for MathError {}
