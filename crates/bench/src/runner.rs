//! Measured host-CPU baseline: times our from-scratch Rust CKKS client
//! doing exactly the paper's workloads (the role Lattigo-on-i7 plays in
//! the paper).

use abc_ckks::{params::CkksParams, CkksContext, CkksError};
use abc_float::Complex;
use abc_prng::Seed;
use std::hint::black_box;
use std::time::Duration;

/// A measured host run.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuMeasurement {
    /// `log2(N)`.
    pub log_n: u32,
    /// Encryption-side primes.
    pub enc_primes: usize,
    /// Decryption-side primes.
    pub dec_primes: usize,
    /// Encode+encrypt wall time (ms), the median of the timed ops.
    pub enc_ms: f64,
    /// Decrypt+decode wall time (ms), the median of the timed ops.
    pub dec_ms: f64,
}

/// The full-slot message every timed client op of this crate carries.
pub fn client_message(slots: usize) -> Vec<Complex> {
    (0..slots)
        .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

/// Times encode+encrypt under `params` and decrypt+decode of its
/// ciphertext cut to `dec_primes` on the host CPU: one warm-up op of
/// each (the limb pool's first use falls there), then the median of
/// five ops each, timed alternately.
///
/// # Errors
///
/// Propagates [`CkksError`] from context construction or the pipeline.
pub fn measure_host_cpu(
    params: CkksParams,
    dec_primes: usize,
) -> Result<CpuMeasurement, CkksError> {
    let ctx = CkksContext::new(params)?;
    let (sk, pk) = ctx.keygen(Seed::from_u128(2024));
    let msg = client_message(ctx.params().slots());
    let enc_primes = ctx.params().num_primes();

    // The warm-up ops, and a sanity check: the round trip must work.
    let ct = ctx.encrypt(&ctx.encode(&msg)?, &pk, Seed::from_u128(7));
    let low = ct.truncated(dec_primes.min(enc_primes));
    let err = ctx
        .decode(&ctx.decrypt(&low, &sk)?)?
        .iter()
        .zip(&msg)
        .map(|(a, b)| a.dist(*b))
        .fold(0.0, f64::max);
    assert!(err < 1e-2, "round trip failed during measurement: {err}");

    let mut enc = || {
        let pt = ctx.encode(&msg).expect("encoded once already");
        black_box(ctx.encrypt(&pt, &pk, Seed::from_u128(7)));
    };
    let mut dec = || {
        let pt = ctx.decrypt(&low, &sk).expect("decrypted once already");
        black_box(ctx.decode(&pt).expect("decoded once already"));
    };
    let [enc, dec] = crate::time_alternately(Duration::ZERO, 5, [&mut enc, &mut dec]);
    let median_ms = |secs: &[f64]| crate::quantiles(secs, [0.5])[0] * 1e3;
    Ok(CpuMeasurement {
        log_n: ctx.params().log_n(),
        enc_primes,
        dec_primes: low.num_primes(),
        enc_ms: median_ms(&enc),
        dec_ms: median_ms(&dec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_runs() {
        let params = CkksParams::builder()
            .log_n(10)
            .num_primes(3)
            .build()
            .unwrap();
        let m = measure_host_cpu(params, 2).unwrap();
        assert!(m.enc_ms > 0.0);
        assert!(m.dec_ms > 0.0);
        assert_eq!((m.log_n, m.enc_primes, m.dec_primes), (10, 3, 2));
    }
}
