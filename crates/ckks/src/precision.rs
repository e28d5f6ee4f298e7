//! Bootstrapping-precision measurement (paper Fig. 3c).
//!
//! The paper sizes the FP55 datapath by sweeping the FFT mantissa width
//! and measuring "bootstrapping precision" — the effective message
//! precision after a full round trip. ≥43 mantissa bits keep 23.39 bits,
//! above the 19.29-bit threshold \[19\] that preserves AI-model accuracy;
//! below ~40 bits the precision drops off linearly (the rounding noise of
//! the transforms dominates the scheme's own noise floor).
//!
//! We proxy the measurement with the full client round trip — encode →
//! encrypt → decrypt → decode — with both embedding transforms running on
//! the reduced datapath. The plateau level is set by encryption noise and
//! Δ-quantization; the drop-off point by the mantissa width. Both
//! features of Fig. 3c reproduce.
//!
//! A datapath is an argument here, not a context option: every
//! measurement takes a [`RealField`] and builds its embedding plan for
//! that call. A context encodes and decodes on FP64 only; the paper's
//! FP55 (`SoftFloatField::fp55()`) and the double-double `ExtF64Field`,
//! which resolves the ~20 bits of the double scale's Δ_eff = 2^72 that
//! an FP64 embedding loses, are measured this way.

use crate::context::CkksContext;
use crate::scale::ExactScale;
use crate::symmetric::encrypt_symmetric_compressed;
use crate::CkksError;
use abc_float::{Complex, RealField, SoftFloatField};
use abc_prng::chacha::ChaCha20;
use abc_prng::Seed;
use abc_transform::SpecialFft;

/// Result of one precision measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionPoint {
    /// FFT datapath mantissa width (fraction bits).
    pub mantissa_bits: u32,
    /// Measured precision in bits: `-log2(RMS slot error)` for unit-scale
    /// messages.
    pub precision_bits: f64,
}

/// `-log2(RMS slot error)` of `round_trip` over `trials` (at least one)
/// random unit-scale full-slot messages drawn from `msg_seed`; the
/// closure gets the trial number and the message and returns the slots
/// that came back.
fn rms_precision(
    ctx: &CkksContext,
    trials: usize,
    msg_seed: Seed,
    mut round_trip: impl FnMut(u64, &[Complex]) -> Result<Vec<Complex>, CkksError>,
) -> Result<f64, CkksError> {
    let slots = ctx.params().slots();
    let mut msg_rng = ChaCha20::from_seed(msg_seed);
    let mut sq_err_sum = 0.0f64;
    let mut count = 0usize;
    for t in 0..trials.max(1) {
        let msg: Vec<Complex> = (0..slots)
            .map(|_| {
                Complex::new(
                    2.0 * msg_rng.next_f64() - 1.0,
                    2.0 * msg_rng.next_f64() - 1.0,
                )
            })
            .collect();
        for (a, b) in round_trip(t as u64, &msg)?.iter().zip(&msg) {
            let d = a.dist(*b);
            sq_err_sum += d * d;
            count += 1;
        }
    }
    let rms = (sq_err_sum / count as f64).sqrt();
    Ok(-rms.log2())
}

/// Measures round-trip precision on an arbitrary datapath.
///
/// Runs `trials` random unit-scale messages through
/// encode → encrypt → decrypt → decode, both embeddings on one plan
/// built for `field` by this call, and returns `-log2(RMS error)`.
///
/// # Errors
///
/// Propagates [`CkksError`] from the pipeline (parameters of the context
/// are assumed valid, so errors indicate internal misuse).
pub fn measure_precision<F: RealField>(
    ctx: &CkksContext,
    field: &F,
    trials: usize,
    seed: Seed,
) -> Result<f64, CkksError> {
    let fft = SpecialFft::with_field(field.clone(), ctx.params().slots());
    let scale = fresh_scale(ctx);
    let (sk, pk) = ctx.keygen(seed.derive(1));
    rms_precision(ctx, trials, seed.derive(2), |t, msg| {
        let pt = ctx.encode_core(&fft, msg, scale.clone())?;
        let ct = ctx.encrypt(&pt, &pk, seed.derive(100 + t));
        ctx.decode_core(&fft, &ctx.decrypt(&ct, &sk)?)
    })
}

/// The scale [`CkksContext::encode`] uses.
fn fresh_scale(ctx: &CkksContext) -> ExactScale {
    ExactScale::from_log2(ctx.params().effective_scale_bits())
}

/// Measures round-trip precision on `field`'s embedding datapath with
/// encryption in the loop: encode → symmetric encrypt → decrypt →
/// decode, both embeddings on one plan built for `field` by this call.
///
/// The symmetric (secret-key, seed-compressed) path is the paper's
/// client flow; its fresh noise is just `e`, so the measurement exposes
/// the embedding datapath rather than the much larger `e·v` noise of
/// public-key encryption.
///
/// # Errors
///
/// Propagates [`CkksError`] from the pipeline.
pub fn measure_configured_precision<F: RealField>(
    ctx: &CkksContext,
    field: &F,
    trials: usize,
    seed: Seed,
) -> Result<f64, CkksError> {
    let fft = SpecialFft::with_field(field.clone(), ctx.params().slots());
    let scale = fresh_scale(ctx);
    let (sk, _) = ctx.keygen(seed.derive(1));
    rms_precision(ctx, trials, seed.derive(2), |t, msg| {
        let pt = ctx.encode_core(&fft, msg, scale.clone())?;
        let cct = encrypt_symmetric_compressed(ctx, &pt, &sk, seed.derive(100 + t));
        ctx.decode_core(&fft, &ctx.decrypt(&cct.expand(ctx)?, &sk)?)
    })
}

/// Measures the *embedding* round trip — encode → decode on `field`'s
/// datapath, no encryption, one plan built by this call — the precision
/// the datapath alone sets: Δ-quantization plus FFT datapath noise,
/// nothing else.
///
/// # Errors
///
/// Propagates [`CkksError`] from encode/decode.
pub fn measure_embedding_precision<F: RealField>(
    ctx: &CkksContext,
    field: &F,
    trials: usize,
    seed: Seed,
) -> Result<f64, CkksError> {
    let fft = SpecialFft::with_field(field.clone(), ctx.params().slots());
    let scale = fresh_scale(ctx);
    rms_precision(ctx, trials, seed.derive(3), |_, msg| {
        ctx.decode_core(&fft, &ctx.encode_core(&fft, msg, scale.clone())?)
    })
}

/// Sweeps mantissa widths and returns one [`PrecisionPoint`] per width —
/// the data series of Fig. 3c.
///
/// # Errors
///
/// Propagates [`CkksError`] from the round-trip pipeline.
pub fn precision_sweep(
    ctx: &CkksContext,
    mantissa_widths: &[u32],
    trials: usize,
    seed: Seed,
) -> Result<Vec<PrecisionPoint>, CkksError> {
    mantissa_widths
        .iter()
        .map(|&m| {
            let field = SoftFloatField::new(m);
            Ok(PrecisionPoint {
                mantissa_bits: m,
                precision_bits: measure_precision(ctx, &field, trials, seed)?,
            })
        })
        .collect()
}

/// Locates the paper's "drop-off point": the smallest mantissa width in
/// the sweep whose precision is within `tolerance_bits` of the plateau
/// (the precision at the widest mantissa measured).
pub fn drop_off_point(points: &[PrecisionPoint], tolerance_bits: f64) -> Option<u32> {
    let plateau = points
        .iter()
        .map(|p| p.precision_bits)
        .fold(f64::NEG_INFINITY, f64::max);
    points
        .iter()
        .filter(|p| p.precision_bits >= plateau - tolerance_bits)
        .map(|p| p.mantissa_bits)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use abc_float::F64Field;

    fn ctx() -> CkksContext {
        CkksContext::new(
            CkksParams::builder()
                .log_n(9)
                .num_primes(3)
                .secret_hamming_weight(Some(32))
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn full_precision_beats_threshold() {
        let ctx = ctx();
        let p = measure_precision(&ctx, &F64Field, 1, Seed::from_u128(1)).unwrap();
        // Paper threshold is 19.29 bits; FP64 round trip clears it easily.
        assert!(p > 19.29, "precision = {p}");
    }

    #[test]
    fn precision_monotone_until_plateau() {
        let ctx = ctx();
        let pts = precision_sweep(&ctx, &[16, 24, 32, 45, 52], 1, Seed::from_u128(2)).unwrap();
        assert_eq!(pts.len(), 5);
        // Narrow mantissa strictly worse than plateau.
        assert!(pts[0].precision_bits + 2.0 < pts[4].precision_bits);
        // Plateau: 45 vs 52 nearly identical (scheme noise dominates).
        assert!((pts[3].precision_bits - pts[4].precision_bits).abs() < 2.0);
    }

    #[test]
    fn extended_embedding_beats_f64_embedding() {
        use abc_float::ExtF64Field;
        // Same small double-scale parameters, embedding datapath swapped:
        // ExtF64 must decode well above the FP64 embedding ceiling.
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(9)
                .num_primes(4)
                .prime_bits(40)
                .scale_bits(36)
                .scale_mode(crate::params::ScaleMode::DoublePair)
                .secret_hamming_weight(Some(32))
                .build()
                .unwrap(),
        )
        .unwrap();
        let seed = Seed::from_u128(99);
        let f64_bits = measure_embedding_precision(&ctx, &F64Field, 1, seed).unwrap();
        let ext_bits = measure_embedding_precision(&ctx, &ExtF64Field, 1, seed).unwrap();
        assert!(
            ext_bits > f64_bits + 8.0,
            "extf64 {ext_bits:.2} vs fp64 {f64_bits:.2}"
        );
        // With encryption in the loop the gain survives (noise floor is
        // higher, but still above what FP64 resolves at Δ_eff = 2^72).
        let f64_enc = measure_configured_precision(&ctx, &F64Field, 1, seed).unwrap();
        let ext_enc = measure_configured_precision(&ctx, &ExtF64Field, 1, seed).unwrap();
        assert!(
            ext_enc > f64_enc,
            "encrypted: extf64 {ext_enc:.2} vs fp64 {f64_enc:.2}"
        );
    }

    #[test]
    fn drop_off_detection() {
        let pts = vec![
            PrecisionPoint {
                mantissa_bits: 20,
                precision_bits: 5.0,
            },
            PrecisionPoint {
                mantissa_bits: 30,
                precision_bits: 15.0,
            },
            PrecisionPoint {
                mantissa_bits: 40,
                precision_bits: 24.0,
            },
            PrecisionPoint {
                mantissa_bits: 45,
                precision_bits: 24.5,
            },
            PrecisionPoint {
                mantissa_bits: 52,
                precision_bits: 24.6,
            },
        ];
        assert_eq!(drop_off_point(&pts, 1.0), Some(40));
        assert_eq!(drop_off_point(&pts, 0.05), Some(52));
        assert_eq!(drop_off_point(&[], 1.0), None);
    }
}
