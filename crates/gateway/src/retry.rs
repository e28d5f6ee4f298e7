//! Caller-side retry with jittered exponential backoff.
//!
//! Retries are restricted to [`GatewayError::is_transient`] failures:
//! re-submitting a `BadRequest` burns queue slots on bytes that can
//! never parse, and retrying a compute-stage timeout re-runs work that
//! is already known not to fit the budget. Jitter is derived from a
//! [`Seed`] rather than the system clock so chaos runs replay exactly.

use crate::error::GatewayError;
use abc_prng::Seed;
use std::time::Duration;

/// Total attempts of [`crate::Gateway::call_with_retry`], the first
/// included.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(2);
/// Upper bound on any single backoff.
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// The jittered delay before retry number `attempt` (1-based):
/// `BACKOFF_BASE·2^(attempt-1)` capped at [`BACKOFF_CAP`], scaled by a
/// deterministic factor in `[0.5, 1.0)` drawn from `seed` —
/// decorrelating colliding clients without sacrificing replayability.
pub(crate) fn backoff(attempt: u32, seed: Seed) -> Duration {
    let exp = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
        .min(BACKOFF_CAP);
    let raw = seed.derive(u64::from(attempt)).low64();
    let jitter = 0.5 + (raw % 1024) as f64 / 2048.0;
    exp.mul_f64(jitter)
}

/// Runs `op` up to [`MAX_ATTEMPTS`] times, sleeping the jittered
/// backoff between attempts, retrying only transient errors. Invokes
/// `on_retry` before each re-attempt (metrics hook).
///
/// # Errors
///
/// Returns the last error once attempts are exhausted, or the first
/// non-transient error immediately.
pub(crate) fn call_with_retry<T>(
    seed: Seed,
    mut on_retry: impl FnMut(),
    mut op: impl FnMut() -> Result<T, GatewayError>,
) -> Result<T, GatewayError> {
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < MAX_ATTEMPTS => {
                std::thread::sleep(backoff(attempt, seed));
                on_retry();
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TimeoutStage;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let s = Seed::from_u128(9);
        let d1 = backoff(1, s);
        let d2 = backoff(2, s);
        let d8 = backoff(8, s);
        assert_eq!(d1, backoff(1, s), "deterministic");
        // Jitter keeps each delay within [0.5, 1.0) of the exponential:
        // 2 ms, 4 ms, then 256 ms capped at 100 ms.
        assert!(d1 >= Duration::from_millis(1) && d1 < Duration::from_millis(2));
        assert!(d2 >= Duration::from_millis(2) && d2 < Duration::from_millis(4));
        assert!(d8 >= BACKOFF_CAP / 2 && d8 < BACKOFF_CAP, "capped");
    }

    #[test]
    fn retries_only_transient_errors() {
        let mut calls = 0;
        let out: Result<(), _> = call_with_retry(
            Seed::from_u128(1),
            || {},
            || {
                calls += 1;
                Err(GatewayError::Overloaded { depth: 1 })
            },
        );
        assert_eq!(out, Err(GatewayError::Overloaded { depth: 1 }));
        assert_eq!(calls, MAX_ATTEMPTS, "transient: exhausted all attempts");

        let mut calls = 0;
        let out: Result<(), _> = call_with_retry(
            Seed::from_u128(1),
            || {},
            || {
                calls += 1;
                Err(GatewayError::BadRequest("junk".into()))
            },
        );
        assert!(matches!(out, Err(GatewayError::BadRequest(_))));
        assert_eq!(calls, 1, "permanent: no retry");

        let mut calls = 0;
        let out = call_with_retry(
            Seed::from_u128(1),
            || {},
            || {
                calls += 1;
                if calls < 3 {
                    Err(GatewayError::Timeout(TimeoutStage::Queued))
                } else {
                    Ok(42)
                }
            },
        );
        assert_eq!(out, Ok(42), "recovers after transient failures");
    }
}
