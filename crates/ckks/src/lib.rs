//! Client-side RNS-CKKS — the workload ABC-FHE accelerates.
//!
//! This crate implements, from scratch, everything a CKKS *client* does
//! (paper Fig. 2a):
//!
//! * **Encoding** — slot vector → canonical-embedding IFFT → scale by Δ →
//!   round to integer coefficients ([`CkksContext::encode`]); RNS
//!   expansion → per-prime NTT runs where the residues are needed.
//! * **Encrypt** — public-key encryption with on-chip-style PRNG-derived
//!   mask/error polynomials, the error added to the message's
//!   coefficients before the RNS expansion and NTT
//!   ([`CkksContext::encrypt`]).
//! * **Decrypt** — `c0 + c1·s` per prime, computed in the first pass of
//!   its per-prime INTT, which also refuses a residue past its prime
//!   ([`CkksContext::decrypt`]).
//! * **Decoding** — exact centered CRT lift (word-sized and verified;
//!   big-integer only where the check fails) → /Δ → canonical-embedding
//!   FFT → slot vector ([`CkksContext::decode`]).
//!
//! Parameters cover the paper's **bootstrappable** regime: `N = 2^13 …
//! 2^16`, 36-bit double-scale primes, up to 24 RNS levels
//! ([`params::CkksParams::bootstrappable`]).
//!
//! A context's embedding runs on FP64. [`precision`] measures the
//! paper's precision metric on any other embedding datapath — the FP55
//! hardware datapath of Fig. 3c's mantissa-width sweep, or double-double
//! `ExtF64` — on a plan it builds per call, without the context running
//! it.
//!
//! # Example
//!
//! ```
//! use abc_ckks::{params::CkksParams, CkksContext};
//! use abc_float::Complex;
//! use abc_prng::Seed;
//!
//! # fn main() -> Result<(), abc_ckks::CkksError> {
//! let params = CkksParams::builder().log_n(10).num_primes(3).build()?;
//! let ctx = CkksContext::new(params)?;
//! let (sk, pk) = ctx.keygen(Seed::from_u128(7));
//!
//! let msg: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64 * 0.1, 0.0)).collect();
//! let pt = ctx.encode(&msg)?;
//! let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(99));
//! let decoded = ctx.decode(&ctx.decrypt(&ct, &sk)?)?;
//! for (a, b) in decoded.iter().zip(&msg) {
//!     assert!(a.dist(*b) < 1e-4);
//! }
//! # Ok(())
//! # }
//! ```

mod cipher;
pub mod context;
pub mod evaluator;
pub mod key;
pub mod noise;
pub mod params;
pub mod precision;
pub mod scale;
pub mod security;
pub mod symmetric;
pub mod wire;

pub use cipher::{Ciphertext, Degree2Ciphertext, Plaintext};
pub use context::{CkksContext, EmbeddingEngine};
pub use key::{EvalKey, GaloisKey, KeySwitchKey, PublicKey, SecretKey};
pub use scale::ExactScale;

/// The process-wide limb pool every plaintext and ciphertext limb lives
/// in — `limb_pool::stats()` is its per-class hit / miss / resident-byte
/// snapshot, for binaries that hold contexts but not `abc-transform`.
pub use abc_transform::pool as limb_pool;

/// The kernel ladder every context's plans were built through — the
/// CPU features found (`kernel::CpuCaps`) and the `ABC_FHE_KERNEL` tier
/// (`kernel::KernelTier`) — for the same binaries.
pub use abc_math::kernel;

/// Errors produced by the CKKS layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CkksError {
    /// Parameter validation failed.
    InvalidParams(String),
    /// The message has more slots than the parameters allow.
    TooManySlots {
        /// Slots supplied.
        got: usize,
        /// Slots available (`N/2`).
        max: usize,
    },
    /// A ciphertext/plaintext was used with a context of different
    /// parameters.
    ContextMismatch,
    /// The underlying math substrate failed (prime generation, roots…).
    Math(abc_math::MathError),
}

impl core::fmt::Display for CkksError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CkksError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            CkksError::TooManySlots { got, max } => {
                write!(f, "message has {got} slots but parameters allow {max}")
            }
            CkksError::ContextMismatch => write!(f, "object belongs to a different context"),
            CkksError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for CkksError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkksError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<abc_math::MathError> for CkksError {
    fn from(e: abc_math::MathError) -> Self {
        CkksError::Math(e)
    }
}
