//! Encryption-noise prediction and measurement.
//!
//! CKKS correctness hinges on the fresh-encryption noise staying far
//! below Δ. The public-key noise term is `v·e_pk + e0 + e1·s` (ring
//! products), giving a per-coefficient variance of approximately
//! `σ²·(N/2 + h + 1)` for ZO(1/2) ephemerals and an `h`-sparse ternary
//! secret. This module predicts that figure from parameters and measures
//! it from actual ciphertexts, letting tests pin the implementation's
//! noise behaviour (and catch, e.g., a broken sampler or a transform
//! normalization bug, both of which show up as noise blow-ups long
//! before they corrupt high-magnitude messages).

use crate::cipher::Ciphertext;
use crate::context::CkksContext;
use crate::key::SecretKey;
use crate::CkksError;
use abc_float::Complex;

/// Noise statistics of one ciphertext.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseReport {
    /// Standard deviation of the noise coefficients.
    pub std_dev: f64,
    /// Largest |noise coefficient|.
    pub max_abs: f64,
    /// `log2(Δ / max_abs)` — bits of headroom before the message is
    /// corrupted.
    pub headroom_bits: f64,
}

/// Predicted standard deviation of fresh public-key encryption noise.
pub fn predicted_fresh_std(n: usize, sigma: f64, secret_hamming_weight: Option<usize>) -> f64 {
    let h = secret_hamming_weight.unwrap_or(n / 2) as f64;
    // v·e_pk: ZO(1/2) ephemeral (var 1/2) times Gaussian, ring product
    // sums n terms; e1·s: h ternary taps; e0: itself.
    sigma * (n as f64 / 2.0 + h + 1.0).sqrt()
}

/// Predicted round-trip precision in bits, `-log2(RMS slot error)`, for
/// a fresh encrypt→decrypt cycle at the given parameters — the model
/// behind the paper's §V-B precision claim and the reason the
/// double-scale technique exists.
///
/// Coefficient errors (fresh noise plus the ±½ Δ-quantization) are
/// approximately i.i.d. with standard deviation `σ̂`; the forward
/// embedding sums `N` of them per slot, so the RMS slot error is
/// `σ̂·√N / Δ_eff`:
///
/// ```text
/// precision ≈ effective_scale_bits − log2(σ̂) − log2(N)/2
/// ```
///
/// At `N = 2^16` single-scale (Δ = 2^36) this lands at ≈18.8 bits —
/// *below* the paper's 19.29-bit floor — while
/// [`ScaleMode::DoublePair`](crate::params::ScaleMode) (Δ_eff = 2^72)
/// predicts ≈54.8, far above it (the measured figure saturates near the
/// `f64` FFT datapath limit instead). The prediction accounts levels in
/// *prime pairs* under the double scale via
/// the parameters' effective scale bits.
pub fn predicted_roundtrip_precision_bits(params: &crate::params::CkksParams) -> f64 {
    let n = params.n();
    let sigma_hat = predicted_fresh_std(n, params.error_sigma(), params.secret_hamming_weight())
        .hypot((1.0f64 / 12.0).sqrt()); // ±½ quantization: variance 1/12
    params.effective_scale_bits() as f64 - sigma_hat.log2() - (n as f64).log2() / 2.0
}

/// Predicted standard deviation of the noise one RNS-gadget key switch
/// adds (see [`crate::key`] for the decomposition): the switched
/// polynomial splits into one centered digit `|Dᵢ| ≤ qᵢ/2` per carried
/// prime, and the accumulated error `Σ Dᵢ·eᵢ` sums `primes` ring
/// convolutions of `N` terms each:
///
/// ```text
/// std ≈ σ·√(N/12 · Σ qᵢ²)
/// ```
///
/// with the basis widths `params` generates (the head prime widened
/// 3 bits, the rest at `prime_bits`). Relinearization and rotation add
/// exactly one key switch each, so this figure *is* their noise
/// prediction — compare it to the operating scale: against the
/// DoublePair product scale Δ_eff² = 2^144 it is ≈2^-99 relative, and
/// against Δ_eff = 2^72 still ≈2^-27; against a Single-mode Δ = 2^36 it
/// would dominate, which is why keyed ops belong to double-scale
/// parameters.
pub fn predicted_keyswitch_std(params: &crate::params::CkksParams, primes: usize) -> f64 {
    let widths = params.residue_widths(primes);
    let sum_q_sq: f64 = widths.iter().map(|&w| 4.0f64.powi(w as i32)).sum();
    params.error_sigma() * (params.n() as f64 / 12.0 * sum_q_sq).sqrt()
}

/// Measures the actual noise of `ct` for the known plaintext
/// `reference` (both from the same context): decrypts, subtracts the
/// reference's coefficients, and reads centered coefficients modulo the
/// first prime (valid while |noise| < q₀/2).
///
/// # Errors
///
/// Returns [`CkksError::ContextMismatch`] on cross-context inputs, and
/// what [`CkksContext::decrypt`] returns.
pub fn measure_noise(
    ctx: &CkksContext,
    ct: &Ciphertext,
    sk: &SecretKey,
    reference: &crate::cipher::Plaintext,
) -> Result<NoiseReport, CkksError> {
    if ct.n() != ctx.params().n() || reference.n() != ctx.params().n() {
        return Err(CkksError::ContextMismatch);
    }
    let decrypted = ctx.decrypt(ct, sk)?;
    let m = &ctx.basis().moduli()[0];
    // diff = d - INTT(m_ref) mod q0: decrypt leaves d in the coefficient
    // domain, so only the reference's limb takes an inverse transform.
    let d = decrypted
        .coefficient_limbs()
        .expect("a decrypted plaintext holds coefficient limbs");
    let mut diff = reference.residues()[0].to_vec();
    ctx.ntt_plans()[0].inverse(&mut diff);
    for (x, &d) in diff.iter_mut().zip(&d[0]) {
        *x = m.sub(d, *x);
    }
    let mut sum_sq = 0.0f64;
    let mut max_abs = 0.0f64;
    for &c in &diff {
        let v = m.to_centered(c) as f64;
        sum_sq += v * v;
        max_abs = max_abs.max(v.abs());
    }
    let std_dev = (sum_sq / diff.len() as f64).sqrt();
    Ok(NoiseReport {
        std_dev,
        max_abs,
        headroom_bits: (ct.scale() / max_abs.max(1.0)).log2(),
    })
}

/// Slot-domain noise statistics: per-slot error of a decrypted,
/// decoded ciphertext against the known message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotNoiseReport {
    /// Root-mean-square slot error `√(Σ|zⱼ − refⱼ|²/slots)`.
    pub rms: f64,
    /// Largest per-slot error.
    pub max_abs: f64,
    /// `-log2(rms)` — bits of message precision surviving the
    /// round-trip (≈54 fresh under DoublePair; compare the paper's
    /// 19.29-bit floor).
    pub precision_bits: f64,
}

/// Measures noise in the **slot domain**: decrypts, decodes, and
/// compares each slot against the expected `reference` values.
///
/// [`measure_noise`] reads coefficients modulo the *first prime only*,
/// so it is blind to key-switch noise, whose magnitude (≈2^44 for the
/// default basis) wraps the 39-bit head prime — after any
/// relinearization or rotation its report is meaningless. This helper
/// sees the true end-to-end error at the cost of one decode, and is
/// what the gateway's degradation tests use to show seed-compressed
/// (symmetric) uploads cost no slot precision versus public-key
/// encryption.
///
/// # Errors
///
/// Returns [`CkksError::ContextMismatch`] on cross-context inputs or
/// when `reference` exceeds the slot count, and propagates
/// decrypt/decode failures.
pub fn measure_slot_noise(
    ctx: &CkksContext,
    ct: &Ciphertext,
    sk: &SecretKey,
    reference: &[Complex],
) -> Result<SlotNoiseReport, CkksError> {
    if ct.n() != ctx.params().n() || reference.len() > ctx.params().slots() {
        return Err(CkksError::ContextMismatch);
    }
    let out = ctx.decode(&ctx.decrypt(ct, sk)?)?;
    let mut sum_sq = 0.0f64;
    let mut max_abs = 0.0f64;
    for (z, r) in out.iter().zip(reference) {
        let d = z.dist(*r);
        sum_sq += d * d;
        max_abs = max_abs.max(d);
    }
    let slots = reference.len().max(1);
    let rms = (sum_sq / slots as f64).sqrt();
    Ok(SlotNoiseReport {
        rms,
        max_abs,
        precision_bits: -rms.max(f64::MIN_POSITIVE).log2(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use abc_float::Complex;
    use abc_prng::Seed;

    fn ctx(h: Option<usize>) -> CkksContext {
        CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .num_primes(3)
                .secret_hamming_weight(h)
                .build()
                .expect("params"),
        )
        .expect("ctx")
    }

    fn msg(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new((i as f64 * 0.19).sin(), 0.0))
            .collect()
    }

    #[test]
    fn measured_noise_tracks_prediction() {
        let ctx = ctx(Some(64));
        let (sk, pk) = ctx.keygen(Seed::from_u128(1));
        let pt = ctx.encode(&msg(ctx.params().slots())).expect("encode");
        let predicted = predicted_fresh_std(ctx.params().n(), 3.2, Some(64));
        let mut ratio_sum = 0.0;
        const TRIALS: u32 = 4;
        for t in 0..TRIALS {
            let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(100 + t as u128));
            let report = measure_noise(&ctx, &ct, &sk, &pt).expect("measure");
            ratio_sum += report.std_dev / predicted;
        }
        let mean_ratio = ratio_sum / TRIALS as f64;
        assert!(
            mean_ratio > 0.4 && mean_ratio < 2.5,
            "measured/predicted = {mean_ratio}"
        );
    }

    #[test]
    fn noise_headroom_is_large_for_fresh_ciphertexts() {
        let ctx = ctx(Some(64));
        let (sk, pk) = ctx.keygen(Seed::from_u128(2));
        let pt = ctx.encode(&msg(16)).expect("encode");
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(3));
        let report = measure_noise(&ctx, &ct, &sk, &pt).expect("measure");
        // Δ = 2^36 vs noise of a few hundred: > 20 bits of headroom.
        assert!(report.headroom_bits > 20.0, "{report:?}");
        assert!(report.max_abs >= report.std_dev);
    }

    #[test]
    fn sparser_secret_means_less_noise() {
        let dense = ctx(None);
        let sparse = ctx(Some(16));
        let run = |c: &CkksContext| {
            let (sk, pk) = c.keygen(Seed::from_u128(4));
            let pt = c.encode(&msg(16)).expect("encode");
            let ct = c.encrypt(&pt, &pk, Seed::from_u128(5));
            measure_noise(c, &ct, &sk, &pt).expect("measure").std_dev
        };
        // Prediction agrees in direction with measurement.
        assert!(predicted_fresh_std(1024, 3.2, Some(16)) < predicted_fresh_std(1024, 3.2, None));
        // Measurement is noisy; require only a non-inverted ordering
        // with slack.
        assert!(run(&sparse) < 2.0 * run(&dense));
    }

    #[test]
    fn double_scale_closes_the_precision_floor_in_the_model() {
        // The analytic model reproduces the measured single-scale
        // shortfall at N = 2^16 (≈18.8 bits < 19.29) and shows the
        // double scale clearing it with ~35 bits to spare — the whole
        // argument for ScaleMode::DoublePair, checkable in tier-1
        // without a 2^16 run.
        use crate::params::{CkksParams, ScaleMode};
        let double = CkksParams::bootstrappable(16).expect("preset");
        assert_eq!(double.scale_mode(), ScaleMode::DoublePair);
        let single = CkksParams::builder()
            .log_n(16)
            .num_primes(24)
            .scale_mode(ScaleMode::Single)
            .build()
            .expect("params");
        let p_single = predicted_roundtrip_precision_bits(&single);
        let p_double = predicted_roundtrip_precision_bits(&double);
        assert!(
            p_single < 19.29 && p_single > 18.0,
            "single-scale model predicts {p_single}"
        );
        assert!(
            p_double > 19.29 + 30.0,
            "double-scale model predicts {p_double}"
        );
        assert!((p_double - p_single - 36.0).abs() < 1e-9, "gap is one Δ");
        // Precision degrades ~1 bit per doubling of N (√N noise in the
        // coefficients and another √N from the slot embedding).
        let p15 =
            predicted_roundtrip_precision_bits(&CkksParams::bootstrappable(15).expect("preset"));
        assert!(
            (p15 - p_double - 1.0).abs() < 0.05,
            "N-slope {}",
            p15 - p_double
        );
    }

    #[test]
    fn keyswitch_prediction_scales_with_level_and_matches_magnitude() {
        let params = CkksParams::builder()
            .log_n(10)
            .num_primes(6)
            .secret_hamming_weight(Some(64))
            .build()
            .expect("params");
        // More carried primes ⇒ more digits ⇒ more accumulated noise.
        assert!(predicted_keyswitch_std(&params, 2) < predicted_keyswitch_std(&params, 6));
        // Dominated by the 39-bit head prime: σ·√(N/12·Σq²) ≈ 2^44.
        let bits = predicted_keyswitch_std(&params, 6).log2();
        assert!((41.0..47.0).contains(&bits), "keyswitch std 2^{bits:.1}");
    }

    #[test]
    fn measured_rotation_noise_tracks_keyswitch_prediction() {
        // Rotation noise ≈ one key switch; in the slot domain the RMS
        // error is std·√N/Δ_eff. The coefficient noise (≈2^44) wraps the
        // 39-bit head prime, so measure in slots rather than via
        // measure_noise's limb-0 path.
        use crate::evaluator;
        use crate::params::ScaleMode;
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .num_primes(6)
                .scale_mode(ScaleMode::DoublePair)
                .secret_hamming_weight(Some(64))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(40));
        let slots = ctx.params().slots();
        let a = msg(slots);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(41));
        let gk = ctx
            .gen_rotation_key(&sk, 1, Seed::from_u128(42))
            .expect("key");
        let rotated = evaluator::rotate(&ctx, &ct, 1, &gk).expect("rotate");
        let expected: Vec<Complex> = (0..slots).map(|j| a[(j + 1) % slots]).collect();
        let measured_rms = measure_slot_noise(&ctx, &rotated, &sk, &expected)
            .expect("measure")
            .rms;
        let n = ctx.params().n() as f64;
        let predicted_rms = predicted_keyswitch_std(ctx.params(), ct.num_primes()) * n.sqrt()
            / ctx.params().scale();
        let ratio = measured_rms / predicted_rms;
        assert!(
            (0.05..20.0).contains(&ratio),
            "measured {measured_rms:.3e} vs predicted {predicted_rms:.3e} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn slot_noise_sees_what_limb0_measurement_cannot() {
        // After a rotation the coefficient noise (≈2^44) wraps the
        // 39-bit head prime, so limb-0 measure_noise reports garbage on
        // the order of q0 while the slot-domain report still shows >15
        // bits of surviving precision under Δ_eff = 2^72 (the model
        // predicts ≈24 at N = 2^9 with 4 primes: std·√N/Δ_eff).
        use crate::evaluator;
        use crate::params::ScaleMode;
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(9)
                .num_primes(4)
                .scale_mode(ScaleMode::DoublePair)
                .secret_hamming_weight(Some(32))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(50));
        let slots = ctx.params().slots();
        let a = msg(slots);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(51));
        let gk = ctx
            .gen_rotation_key(&sk, 1, Seed::from_u128(52))
            .expect("key");
        let rotated = evaluator::rotate(&ctx, &ct, 1, &gk).expect("rotate");
        let expected: Vec<Complex> = (0..slots).map(|j| a[(j + 1) % slots]).collect();
        let report = measure_slot_noise(&ctx, &rotated, &sk, &expected).expect("measure");
        assert!(
            report.precision_bits > 15.0,
            "slot precision {:.1} bits",
            report.precision_bits
        );
        assert!(report.max_abs >= report.rms);
        // Fresh (un-rotated) ciphertexts measure even cleaner.
        let fresh = measure_slot_noise(&ctx, &ct, &sk, &a).expect("measure");
        assert!(fresh.rms <= report.rms * 4.0);
        // Foreign-length reference is rejected.
        let too_many = vec![Complex::new(0.0, 0.0); slots + 1];
        assert!(matches!(
            measure_slot_noise(&ctx, &ct, &sk, &too_many),
            Err(CkksError::ContextMismatch)
        ));
    }

    #[test]
    fn zero_noise_for_unencrypted_plaintext() {
        // A "ciphertext" with c1 = 0 and c0 = m has no noise.
        let ctx = ctx(Some(64));
        let (sk, _) = ctx.keygen(Seed::from_u128(6));
        let pt = ctx.encode(&msg(16)).expect("encode");
        let n = ctx.params().n();
        let ct = Ciphertext::from_components_exact(
            pt.residues().to_vec(),
            vec![vec![0u64; n]; pt.num_primes()],
            pt.exact_scale().clone(),
        )
        .expect("components");
        let report = measure_noise(&ctx, &ct, &sk, &pt).expect("measure");
        assert_eq!(report.std_dev, 0.0);
        assert_eq!(report.max_abs, 0.0);
    }
}
