//! Configurable-precision floating point — the model of ABC-FHE's custom
//! FP55 datapath.
//!
//! The paper (Fig. 3c) shrinks the FFT datapath from FP64 to a custom
//! 55-bit format (1 sign + 11 exponent + 43 mantissa bits) by measuring
//! bootstrapping precision while sweeping the mantissa width; 43 bits
//! keeps 23.39 bits of precision, above the 19.29-bit threshold that
//! preserves AI-model accuracy.
//!
//! This crate provides:
//!
//! * [`round_to_mantissa`] — round-to-nearest-even truncation of an `f64`
//!   to an arbitrary mantissa width `1..=52`,
//! * [`RealField`] — a *datapath context* abstraction with an associated
//!   [`RealField::Real`] scalar: every arithmetic op routes through the
//!   context so reduced-precision rounding is applied after each
//!   operation, exactly as a narrow hardware FPU would,
//! * [`F64Field`] / [`SoftFloatField`] / [`ExtF64Field`] — full-precision,
//!   reduced-precision, and double-double extended-precision datapaths,
//! * [`Complex`] — complex arithmetic over any [`RealField`] (generic in
//!   the component scalar, `f64` by default), including the 4-multiplier
//!   product the paper's reconfigurable PNL implements (Eq. 12),
//! * [`ExtF64`] — double-double (~106-bit) extended precision for the
//!   double-scale (Δ_eff = 2^72) encode/decode rounding paths, where a
//!   single `f64` mantissa cannot hold the scaled coefficients,
//! * [`trig`] — `cos/sin(π·k/2^d)` twiddle generation from exact integer
//!   octant reduction + a 192-bit fixed-point Taylor series (`UBig`), so
//!   `ExtF64` twiddles reach ≥2^-100 accuracy without `f64::sin_cos`.
//!
//! # Example
//!
//! ```
//! use abc_float::{RealField, SoftFloatField, F64Field};
//!
//! let fp55 = SoftFloatField::fp55();
//! let full = F64Field;
//! let x = 1.0 / 3.0;
//! // The reduced datapath rounds the product.
//! let lo = fp55.mul(x, x);
//! let hi = full.mul(x, x);
//! assert!((lo - hi).abs() > 0.0);
//! assert!((lo - hi).abs() < 1e-12);
//! ```

// The one unsafe code here is the AVX-512F block division in
// `extended`; the deny keeps every unsafe op inside an `unsafe fn` in
// an explicit `unsafe {}` block (audited by `cargo run -p abc-analysis
// -- check`).
#![deny(unsafe_op_in_unsafe_fn)]
// Public APIs in the hardened crates must be documented (the unsafe
// ones additionally need a `# Safety` section, enforced by abc-analysis).
#![deny(missing_docs)]

pub mod complex;
pub mod extended;
pub mod field;
pub mod softfloat;
pub mod trig;

pub use complex::Complex;
pub use extended::ExtF64;
pub use field::{ExtF64Field, F64Field, RealField, SoftFloatField};
pub use softfloat::round_to_mantissa;

/// Mantissa width (fraction bits, excluding the implicit leading 1) of the
/// paper's custom FP55 format: 55 = 1 sign + 11 exponent + 43 mantissa.
pub const FP55_MANTISSA_BITS: u32 = 43;

/// Mantissa width of IEEE-754 binary64.
pub const F64_MANTISSA_BITS: u32 = 52;
