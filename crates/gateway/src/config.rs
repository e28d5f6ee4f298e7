//! Gateway configuration and the degradation watermarks.
//!
//! The three queue thresholds encode the shedding ladder (§README
//! "Gateway"): as depth crosses `degrade_watermark`, `Auto`-mode
//! uploads drop to seed-compressed form (half the wire bytes, same
//! slot precision); past `batch_shed_watermark`, batch-encode requests
//! are refused while single requests still flow; at `queue_capacity`
//! everything is refused with `Overloaded`. Bulk work dies first,
//! sessions die last.

use crate::error::GatewayError;
use crate::fault::FaultPlan;
use crate::retry::RetryPolicy;
use abc_prng::Seed;
use std::time::Duration;

/// Startup configuration for [`crate::Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads; all of them run on the one `CkksContext` the
    /// gateway builds at start (its limb-pool allowance follows this
    /// count).
    pub workers: usize,
    /// Admission-queue capacity (hard memory bound on buffered work).
    pub queue_capacity: usize,
    /// Depth at which `Auto` uploads degrade to seed-compressed.
    pub degrade_watermark: usize,
    /// Depth at which batch-encode requests are shed.
    pub batch_shed_watermark: usize,
    /// LRU session-cache capacity (evicted tenants re-derive their
    /// keys deterministically on the next request).
    pub session_capacity: usize,
    /// Ring-degree exponent of the pooled contexts.
    pub log_n: u32,
    /// RNS primes of the pooled contexts.
    pub num_primes: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Duration,
    /// Root of the per-tenant key derivation and per-request
    /// encryption randomness.
    pub master_seed: Seed,
    /// Caller-side retry policy used by `call_with_retry`.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule (disabled in production).
    pub fault_plan: FaultPlan,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            degrade_watermark: 16,
            batch_shed_watermark: 32,
            session_capacity: 32,
            log_n: 10,
            num_primes: 4,
            default_deadline: Duration::from_secs(5),
            master_seed: Seed::from_u128(0xABCF_8A7E),
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::disabled(),
        }
    }
}

impl GatewayConfig {
    /// Validates the watermark ladder and pool shape.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::InvalidConfig`] naming the violated
    /// constraint.
    pub fn validate(&self) -> Result<(), GatewayError> {
        let fail = |msg: String| Err(GatewayError::InvalidConfig(msg));
        if self.workers == 0 {
            return fail("workers must be >= 1".into());
        }
        if self.queue_capacity == 0 {
            return fail("queue_capacity must be >= 1".into());
        }
        if !(self.degrade_watermark <= self.batch_shed_watermark
            && self.batch_shed_watermark <= self.queue_capacity)
        {
            return fail(format!(
                "watermark ladder violated: degrade ({}) <= batch_shed ({}) <= capacity ({})",
                self.degrade_watermark, self.batch_shed_watermark, self.queue_capacity
            ));
        }
        if self.session_capacity == 0 {
            return fail("session_capacity must be >= 1".into());
        }
        if self.default_deadline.is_zero() {
            return fail("default_deadline must be non-zero".into());
        }
        if self.retry.max_attempts == 0 {
            return fail("retry.max_attempts must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        GatewayConfig::default().validate().expect("default valid");
    }

    #[test]
    fn watermark_ladder_is_enforced() {
        let mut cfg = GatewayConfig {
            degrade_watermark: 40,
            batch_shed_watermark: 20,
            ..GatewayConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(GatewayError::InvalidConfig(_))
        ));
        cfg.degrade_watermark = 10;
        cfg.batch_shed_watermark = 100; // above capacity 64
        assert!(cfg.validate().is_err());
        cfg.batch_shed_watermark = 20;
        cfg.validate().expect("repaired ladder");
    }

    #[test]
    fn zero_pools_are_rejected() {
        for breaker in [
            |c: &mut GatewayConfig| c.workers = 0,
            |c: &mut GatewayConfig| c.queue_capacity = 0,
            |c: &mut GatewayConfig| c.session_capacity = 0,
            |c: &mut GatewayConfig| c.default_deadline = Duration::ZERO,
            |c: &mut GatewayConfig| c.retry.max_attempts = 0,
        ] {
            let mut cfg = GatewayConfig::default();
            breaker(&mut cfg);
            assert!(cfg.validate().is_err());
        }
    }
}
