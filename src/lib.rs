//! # ABC-FHE — reproduction of the DAC 2025 client-side FHE accelerator
//!
//! A from-scratch Rust implementation of the system described in
//! *"ABC-FHE: A Resource-Efficient Accelerator Enabling Bootstrappable
//! Parameters for Client-Side Fully Homomorphic Encryption"*
//! (Yune et al., DAC 2025): the full client-side CKKS pipeline, the
//! algorithmic innovations (NTT-friendly Montgomery multiplication,
//! merged twiddle scheduling, on-the-fly twiddle generation, seeded
//! on-chip randomness), a cycle-level simulator of the streaming
//! accelerator, and an anchored area/power model.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here. The first six are the product a client runs; the
//! last two model the paper's accelerator and depend on the product,
//! never the other way round.
//!
//! | Module | Crate | Kind | Contents |
//! |---|---|---|---|
//! | [`math`] | `abc-math` | product | Modular arithmetic, NTT-friendly primes, RNS/CRT, big integers |
//! | [`float`] | `abc-float` | product | Configurable-precision floats (FP55), complex arithmetic |
//! | [`prng`] | `abc-prng` | product | ChaCha20 PRNG, uniform/ternary/Gaussian samplers |
//! | [`transform`] | `abc-transform` | product | Negacyclic NTT, CKKS special FFT, RNS limb engine |
//! | [`ckks`] | `abc-ckks` | product | Encode/encrypt/decrypt/decode, evaluator, precision sweeps |
//! | [`gateway`] | `abc-gateway` | product | Fault-tolerant multi-tenant encryption gateway (bounded admission, deadlines, chaos testing) |
//! | [`hw`] | `abc-hw` | model | OTF twiddles, streaming dataflows, Table I reducers, Fig. 2/4 counts, area/power (Tables I & II, Fig. 6a, tech scaling) |
//! | [`sim`] | `abc-sim` | model | Cycle-level simulator: latency, lane sweep, memory configs |
//!
//! # Quickstart
//!
//! ```
//! use abc_fhe::ckks::{params::CkksParams, CkksContext};
//! use abc_fhe::float::Complex;
//! use abc_fhe::prng::Seed;
//!
//! # fn main() -> Result<(), abc_fhe::ckks::CkksError> {
//! // A small parameter set (tests/examples); use
//! // `CkksParams::bootstrappable(16)` for the paper's full setting.
//! let ctx = CkksContext::new(
//!     CkksParams::builder().log_n(10).num_primes(3).build()?,
//! )?;
//! let (sk, pk) = ctx.keygen(Seed::from_u128(1));
//! let msg = vec![Complex::new(0.5, -0.25); 16];
//! let ct = ctx.encrypt(&ctx.encode(&msg)?, &pk, Seed::from_u128(2));
//! let out = ctx.decode(&ctx.decrypt(&ct, &sk)?)?;
//! assert!(out[0].dist(msg[0]) < 1e-4);
//! # Ok(())
//! # }
//! ```

pub use abc_ckks as ckks;
pub use abc_float as float;
pub use abc_gateway as gateway;
pub use abc_hw as hw;
pub use abc_math as math;
pub use abc_prng as prng;
pub use abc_sim as sim;
pub use abc_transform as transform;

/// Commonly used items in one import.
pub mod prelude {
    pub use abc_ckks::{
        params::{CkksParams, EmbeddingPrecision},
        Ciphertext, CkksContext, Plaintext,
    };
    pub use abc_float::{Complex, ExtF64Field, F64Field, RealField, SoftFloatField};
    pub use abc_math::{Modulus, RnsBasis};
    pub use abc_prng::Seed;
    pub use abc_sim::{simulate, SimConfig, Workload};
    pub use abc_transform::{NttPlan, RnsNttEngine, SpecialFft, SpecialFftEngine};
}
