//! Gateway configuration and the shedding ladder derived from it.
//!
//! The ladder (§README "Gateway") is a function of `queue_capacity`
//! alone ([`GatewayConfig::watermarks`]): as depth crosses a quarter of
//! the queue, `Auto`-mode uploads drop to seed-compressed form (half the
//! wire bytes, same slot precision); past half of it, batch requests are
//! refused while single requests still flow; at `queue_capacity`
//! everything is refused with `Overloaded`. Bulk work dies first,
//! sessions die last.

use crate::error::GatewayError;
use abc_prng::Seed;

/// Startup configuration for [`crate::Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads; all of them run on the one `CkksContext` the
    /// gateway builds at start (its limb-pool allowance follows this
    /// count).
    pub workers: usize,
    /// Admission-queue capacity (hard memory bound on buffered work);
    /// the shedding ladder's watermarks are fractions of it.
    pub queue_capacity: usize,
    /// Ring-degree exponent of the shared context.
    pub log_n: u32,
    /// RNS primes of the shared context.
    pub num_primes: usize,
    /// Root of the per-tenant key derivation and per-request
    /// encryption randomness.
    pub master_seed: Seed,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            log_n: 10,
            num_primes: 4,
            master_seed: Seed::from_u128(0xABCF_8A7E),
        }
    }
}

impl GatewayConfig {
    /// The shedding ladder's `(degrade, batch_shed)` depths: a quarter
    /// and a half of `queue_capacity`, rounded up — ordered, and at most
    /// the capacity, for every capacity.
    pub fn watermarks(&self) -> (usize, usize) {
        (
            self.queue_capacity.div_ceil(4),
            self.queue_capacity.div_ceil(2),
        )
    }

    /// Validates the pool shape.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::InvalidConfig`] naming the violated
    /// constraint.
    pub(crate) fn validate(&self) -> Result<(), GatewayError> {
        let fail = |msg: &str| Err(GatewayError::InvalidConfig(msg.into()));
        if self.workers == 0 {
            return fail("workers must be >= 1");
        }
        if self.queue_capacity == 0 {
            return fail("queue_capacity must be >= 1");
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
    fn the_ladder_is_a_quarter_and_a_half_of_the_queue() {
        for (queue_capacity, ladder) in [(64, (16, 32)), (8, (2, 4)), (1, (1, 1))] {
            let cfg = GatewayConfig {
                queue_capacity,
                ..GatewayConfig::default()
            };
            assert_eq!(cfg.watermarks(), ladder, "capacity {queue_capacity}");
        }
    }

    #[test]
    fn zero_pools_are_rejected() {
        for breaker in [
            |c: &mut GatewayConfig| c.workers = 0,
            |c: &mut GatewayConfig| c.queue_capacity = 0,
        ] {
            let mut cfg = GatewayConfig::default();
            breaker(&mut cfg);
            assert!(cfg.validate().is_err());
        }
    }
}
