//! Multi-tenant session store: an LRU cache of per-tenant key
//! material.
//!
//! Tenant keys are derived deterministically from the gateway's master
//! seed (`master_seed.derive(tenant)`), which makes eviction benign —
//! an evicted tenant's next request simply re-derives the identical
//! keys — and makes the concurrent create race harmless: two workers
//! deriving the same tenant concurrently produce bit-identical keys,
//! and whichever insert lands second overwrites an equal value.

use crate::lru::LruCache;
use abc_ckks::{CkksContext, PublicKey, SecretKey};
use abc_prng::Seed;
use std::sync::{Arc, Mutex};

/// Sessions a gateway caches (evicted tenants re-derive their keys
/// deterministically on the next request).
pub(crate) const SESSION_CAPACITY: usize = 32;

/// One tenant's key material.
#[derive(Debug)]
pub(crate) struct TenantSession {
    /// Secret key (the gateway models the *client-side* pipeline, so
    /// it legitimately holds tenant secrets — it is the fleet of
    /// clients, not the FHE server).
    pub(crate) sk: SecretKey,
    /// Matching public key.
    pub(crate) pk: PublicKey,
}

/// Thread-safe LRU of tenant sessions.
pub(crate) struct SessionStore {
    cache: Mutex<LruCache<u64, Arc<TenantSession>>>,
    master_seed: Seed,
}

impl SessionStore {
    /// Creates a store holding at most `capacity` sessions.
    pub(crate) fn new(capacity: usize, master_seed: Seed) -> Self {
        Self {
            cache: Mutex::new(LruCache::new(capacity)),
            master_seed,
        }
    }

    /// Fetches the tenant's session, deriving and caching it on miss.
    /// `ctx` supplies the key-generation pipeline; all workers share
    /// one parameter set, so sessions are context-portable.
    pub(crate) fn get_or_create(&self, tenant: u64, ctx: &CkksContext) -> Arc<TenantSession> {
        if let Some(hit) = crate::sync::lock(&self.cache).get(&tenant) {
            return Arc::clone(hit);
        }
        // Keygen outside the lock: it is the expensive step, and the
        // derivation is deterministic so a concurrent duplicate is
        // bit-identical.
        let (sk, pk) = ctx.keygen(self.master_seed.derive(tenant));
        let session = Arc::new(TenantSession { sk, pk });
        crate::sync::lock(&self.cache).insert(tenant, Arc::clone(&session));
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_ckks::params::CkksParams;

    fn cached(store: &SessionStore) -> usize {
        crate::sync::lock(&store.cache).len()
    }

    fn ctx() -> CkksContext {
        CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(2)
                .secret_hamming_weight(Some(16))
                .build()
                .expect("params"),
        )
        .expect("ctx")
    }

    #[test]
    fn sessions_are_cached_and_deterministic() {
        let ctx = ctx();
        let store = SessionStore::new(2, Seed::from_u128(7));
        let a1 = store.get_or_create(1, &ctx);
        let a2 = store.get_or_create(1, &ctx);
        assert!(Arc::ptr_eq(&a1, &a2), "second lookup hits the cache");
        assert_eq!(cached(&store), 1);
    }

    #[test]
    fn eviction_rederives_identical_keys() {
        let ctx = ctx();
        let store = SessionStore::new(1, Seed::from_u128(8));
        let first = store.get_or_create(1, &ctx);
        store.get_or_create(2, &ctx); // evicts tenant 1
        assert_eq!(cached(&store), 1);
        let again = store.get_or_create(1, &ctx);
        assert!(!Arc::ptr_eq(&first, &again), "session was re-created");
        assert_eq!(first.sk, again.sk, "but the keys are bit-identical");
        assert_eq!(first.pk, again.pk);
    }

    #[test]
    fn tenants_get_distinct_keys() {
        let ctx = ctx();
        let store = SessionStore::new(4, Seed::from_u128(9));
        let a = store.get_or_create(1, &ctx);
        let b = store.get_or_create(2, &ctx);
        assert_ne!(a.sk, b.sk);
    }
}
