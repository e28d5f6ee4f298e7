//! Symmetric (secret-key) encryption with seed-compressed ciphertexts.
//!
//! A client encrypting under its *own* key does not need the public-key
//! path: it can sample the mask `a` from a PRNG seed and send only
//! `(c0, seed)` — the server re-expands `a` itself. This halves upload
//! traffic, composing naturally with ABC-FHE's on-chip generation story
//! (the hardware already derives `a` from a 128-bit seed; transmitting
//! the seed instead of the polynomial is free). This is an extension
//! beyond the paper (Lattigo ships the same trick as "seeded
//! ciphertexts"); `abc-sim` exposes it as the `compressed_upload` knob.

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::CkksContext;
use crate::key::SecretKey;
use crate::scale::ExactScale;
use crate::CkksError;
use abc_prng::sampler::GaussianSampler;
use abc_prng::Seed;
use abc_transform::{LimbWork, PooledLimbs};

/// A seed-compressed symmetric ciphertext: the full `c0` component plus
/// the 128-bit seed that regenerates `c1 = a`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedCiphertext {
    pub(crate) c0: PooledLimbs,
    pub(crate) mask_seed: Seed,
    pub(crate) scale: ExactScale,
    pub(crate) n: usize,
}

impl CompressedCiphertext {
    /// Number of RNS primes.
    pub fn num_primes(&self) -> usize {
        self.c0.len()
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The exact rational encoding scale.
    pub fn exact_scale(&self) -> &ExactScale {
        &self.scale
    }

    /// Read-only view of the `c0` residue polynomials.
    pub fn c0(&self) -> &[Vec<u64>] {
        &self.c0
    }

    /// The seed that regenerates the mask component.
    pub fn mask_seed(&self) -> Seed {
        self.mask_seed
    }

    /// Expands back into a full two-component ciphertext (what the
    /// server does on receipt).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] if the ciphertext carries
    /// more primes than the context provides.
    pub fn expand(&self, ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
        if self.n != ctx.params().n() || self.num_primes() > ctx.basis().len() {
            return Err(CkksError::ContextMismatch);
        }
        let mut c1 = ctx.ntt_engine().take_limbs(self.num_primes());
        ctx.fill_mask(self.mask_seed, &mut c1);
        Ciphertext::from_limbs(self.c0.clone(), c1, self.scale.clone())
    }
}

/// Symmetric encryption: `ct = (-(a·s) + m + e, a)` with `a` derived
/// from `seed` — the compressed form keeps only `c0` and the seed.
///
/// # Panics
///
/// Panics if the plaintext belongs to a different context (encode from
/// the same context always matches).
pub fn encrypt_symmetric_compressed(
    ctx: &CkksContext,
    pt: &Plaintext,
    sk: &SecretKey,
    seed: Seed,
) -> CompressedCiphertext {
    assert_eq!(pt.n(), ctx.params().n(), "plaintext from different context");
    let n = ctx.params().n();
    let lvl = pt.num_primes();
    let mask_seed = seed.derive(0);
    let mut gauss = GaussianSampler::new(seed.derive(1), 0, ctx.params().error_sigma());
    let e = gauss.sample_poly(n);
    // Error polynomial into NTT domain under every prime in one batched,
    // thread-fanned pass (pooled limbs, back in the pool on return).
    let engine = ctx.ntt_engine();
    let e_ntt = engine.expand_and_ntt_pooled(&e, lvl);
    // c0 = -(a·s) + e + m as ONE fused RNS-wide pass: multiply, negate
    // and both additions land in a single read-modify-write of each
    // limb (the mask is consumed here; expansion re-derives it from the
    // seed).
    let mut c0 = engine.take_limbs(lvl);
    ctx.fill_mask(mask_seed, &mut c0);
    let m = pt.residues();
    engine.for_each_limb(&mut c0, LimbWork::Elementwise, |i, plan, limb| {
        plan.dyadic()
            .mul_neg_add2_assign(limb, &sk.ntt[i], &e_ntt[i], &m[i])
    });
    CompressedCiphertext {
        c0,
        mask_seed,
        scale: pt.exact_scale().clone(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use abc_float::Complex;

    fn ctx() -> CkksContext {
        CkksContext::new(
            CkksParams::builder()
                .log_n(9)
                .num_primes(4)
                .secret_hamming_weight(Some(32))
                .build()
                .expect("params"),
        )
        .expect("ctx")
    }

    fn msg(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.2).cos()))
            .collect()
    }

    #[test]
    fn compressed_roundtrip() {
        let ctx = ctx();
        let (sk, _) = ctx.keygen(Seed::from_u128(1));
        let m = msg(ctx.params().slots());
        let pt = ctx.encode(&m).expect("encode");
        let cct = encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(2));
        let ct = cct.expand(&ctx).expect("expand");
        let out = ctx
            .decode(&ctx.decrypt(&ct, &sk).expect("decrypt"))
            .expect("decode");
        let err = out
            .iter()
            .zip(&m)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0, f64::max);
        assert!(err < 1e-4, "err = {err}");
    }

    #[test]
    fn compression_halves_size() {
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(3));
        let pt = ctx.encode(&msg(8)).expect("encode");
        let full = ctx.encrypt(&pt, &pk, Seed::from_u128(4));
        let compressed = encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(4));
        // On the wire the seed stands in for the packed `c1`.
        let widths = ctx.wire_widths(full.num_primes());
        let c1_bytes: usize = widths
            .iter()
            .map(|&w| (full.n() * w as usize).div_ceil(8))
            .sum();
        assert_eq!(
            crate::wire::compressed_serialized_len(&compressed, &widths),
            crate::wire::packed_serialized_len(&full, &widths) - c1_bytes + 16
        );
        assert_eq!(compressed.num_primes(), full.num_primes());
    }

    #[test]
    fn expansion_is_deterministic() {
        let ctx = ctx();
        let (sk, _) = ctx.keygen(Seed::from_u128(5));
        let pt = ctx.encode(&msg(8)).expect("encode");
        let cct = encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(6));
        assert_eq!(cct.expand(&ctx).expect("a"), cct.expand(&ctx).expect("b"));
    }

    #[test]
    fn foreign_context_rejected() {
        let ctx_a = ctx();
        let ctx_b = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(2)
                .secret_hamming_weight(None)
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, _) = ctx_a.keygen(Seed::from_u128(7));
        let pt = ctx_a.encode(&msg(4)).expect("encode");
        let cct = encrypt_symmetric_compressed(&ctx_a, &pt, &sk, Seed::from_u128(8));
        assert!(matches!(
            cct.expand(&ctx_b),
            Err(CkksError::ContextMismatch)
        ));
    }
}
