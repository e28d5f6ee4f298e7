//! Fourier-like transforms for the ABC-FHE reproduction.
//!
//! The client-side CKKS pipeline (paper Fig. 2a) needs **both** transform
//! families the Reconfigurable Fourier Engine supports:
//!
//! * integer **NTT/INTT** over each RNS prime — [`ntt::NttPlan`], a
//!   negacyclic transform with the nega-cyclic pre/post-processing merged
//!   into the stage twiddles (paper Eq. 2/3, refs \[27\]/\[30\]), read
//!   from one precomputed [`twiddle::TwiddleTable`] column; its `ifma`
//!   butterfly passes are `abc_math::simd`'s, beside the element-wise
//!   kernels they share a datapath with;
//! * complex **FFT/IFFT** on the canonical-embedding slots —
//!   [`fft::SpecialFft`], generic over the [`abc_float::RealField`]
//!   datapath so the same kernel runs at FP64, the paper's FP55, or the
//!   double-double `ExtF64` embedding, with per-(slots, datapath)
//!   twiddle tables materialized once per plan (OTF kernels retained as
//!   the hardware-generator model, oracle and benchmark baseline; the
//!   AVX-512 kernel runs split re/im 8-lane butterflies in
//!   `fft_avx512`, bit-identical to the scalar path).
//!
//! Both families pick their kernel through the one ladder in
//! [`abc_math::kernel`] — `Simd` (`ifma` / `avx512`) → `Scalar`
//! (`harvey` / `scalar`), forced with an [`abc_math::KernelTier`];
//! `ABC_FHE_KERNEL` moves `Auto` between the two. Their oracles,
//! [`ntt::NttPlan::forward_golden`] / [`ntt::NttPlan::inverse_golden`]
//! and [`fft::SpecialFft::forward_otf`] /
//! [`fft::SpecialFft::inverse_otf`], are methods of every plan, not
//! rungs.
//!
//! [`rns_ntt::RnsNttEngine`] batches the NTT across all RNS limbs of a
//! polynomial — one plan per prime, and the limb fan-out over
//! [`fanout`]'s parked workers (`ABC_FHE_THREADS` override), the **only**
//! threads the library crates start — and draws every limb it hands out
//! from [`pool`], the process-wide limb pool whose retention follows the
//! live engines ([`pool::PooledLimbs`] is the one owning limb container).
//! It is the only memory a client operation recycles: the AVX-512 FFT's
//! split planes are one of its limbs too.
//! [`fft_engine::SpecialFftEngine`] is the embedding FFT as a context
//! holds it: a shared plan and no memory of its own, every transform on
//! the calling thread.
//!
//! [`bitrev`] holds the shared bit-reversal helpers.
//!
//! This crate is product code: everything in it runs, or is the oracle
//! of something that runs, when a client encrypts or decrypts. The
//! paper's models of the same transforms — the on-the-fly twiddle
//! generator, the streaming NTT and FFT dataflows and the MDC
//! multiplier counts of Fig. 4 — live in `abc-hw`, checked there
//! against the plans here.
//!
//! # Example: negacyclic polynomial product via NTT
//!
//! ```
//! use abc_math::{Modulus, poly::negacyclic_mul_schoolbook};
//! use abc_transform::ntt::NttPlan;
//!
//! # fn main() -> Result<(), abc_math::MathError> {
//! let m = Modulus::new(0xFFF0_0001)?; // 2^32 - 2^20 + 1, supports N ≤ 2^19
//! let plan = NttPlan::new(m, 8)?;
//! let a = vec![1, 2, 3, 4, 5, 6, 7, 8];
//! let b = vec![8, 7, 6, 5, 4, 3, 2, 1];
//! let fast = plan.negacyclic_mul(&a, &b);
//! assert_eq!(fast, negacyclic_mul_schoolbook(&m, &a, &b));
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

pub mod bitrev;
pub mod fanout;
pub mod fft;
mod fft_avx512;
mod fft_engine;
pub mod ntt;
pub mod pool;
pub mod rns_ntt;
pub mod twiddle;

pub use fft::SpecialFft;
pub use fft_engine::SpecialFftEngine;
pub use ntt::NttPlan;
pub use pool::PooledLimbs;
pub use rns_ntt::{LimbWork, RnsNttEngine};
pub use twiddle::TwiddleTable;
