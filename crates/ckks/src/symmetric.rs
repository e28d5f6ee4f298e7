//! Symmetric (secret-key) encryption with seed-compressed ciphertexts,
//! and the one RLWE body every secret-key sample runs.
//!
//! A client encrypting under its *own* key does not need the public-key
//! path: it can sample the mask `a` from a PRNG seed and send only
//! `(c0, seed)` — the server re-expands `a` itself. This halves upload
//! traffic, composing naturally with ABC-FHE's on-chip generation story
//! (the hardware already derives `a` from a 128-bit seed; transmitting
//! the seed instead of the polynomial is free). This is an extension
//! beyond the paper (Lattigo ships the same trick as "seeded
//! ciphertexts"); `abc-sim` exposes it as the `compressed_upload` knob.
//!
//! A public key and each key-switching digit are secret-key samples too
//! — of zero and of the gadget term — so all three run `rlwe_sample`,
//! one limb at a time on the thread that owns it, like the paper's
//! per-prime stream (Fig. 2a).

use crate::cipher::{Ciphertext, Plaintext};
use crate::context::{fold_error, CkksContext};
use crate::key::SecretKey;
use crate::scale::ExactScale;
use crate::CkksError;
use abc_math::dyadic::Tail;
use abc_math::rns::{SignedCoeffs, SignedWord};
use abc_prng::sampler::{GaussianSampler, UniformSampler};
use abc_prng::Seed;
use abc_transform::{LimbWork, NttPlan, PooledLimbs, RnsNttEngine};
use std::borrow::Cow;

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
        let engine = ctx.ntt_engine();
        let mut c1 = engine.take_limbs(self.num_primes());
        engine.for_each_limb(&mut c1, LimbWork::Elementwise, |i, plan, limb| {
            draw_mask(self.mask_seed, i, plan, limb)
        });
        Ciphertext::from_limbs(self.c0.clone(), c1, self.scale.clone())
    }
}

/// Symmetric encryption: `ct = (-(a·s) + m + e, a)` with `a` derived
/// from `seed` — the compressed form keeps only `c0` and the seed.
///
/// An encoded plaintext's coefficients take the error before anything is
/// transformed (`with_upload_sample`), so a limb is one forward
/// transform of `m + e`; a decrypted plaintext, or one whose residues
/// were already made, is added in the NTT domain in the transform's
/// last pass. Both give the same `c0`.
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
    // c0 = e + m − a·s; the mask is consumed here (expansion re-derives
    // it from the seed).
    let engine = ctx.ntt_engine();
    let mut c0 = engine.take_limbs(pt.num_primes());
    let mask_seed = match pt.coefficients() {
        Some(m) => with_upload_sample(ctx, sk, seed, Cow::Borrowed(m), |sample| {
            sample.run(engine, |_| None, &mut c0, None);
            sample.mask_seed
        }),
        None => {
            let (mask_seed, m) = (seed.derive(0), pt.residues());
            let t = |i: usize| Some(&m[i][..]);
            rlwe_sample(ctx, &sk.ntt, mask_seed, seed.derive(1), t, &mut c0, None);
            mask_seed
        }
    };
    CompressedCiphertext {
        c0,
        mask_seed,
        scale: pt.exact_scale().clone(),
        n: pt.n(),
    }
}

/// Limb `i` of the uniform mask of `seed`: stream `i`, under `plan`'s
/// prime, sampled directly in NTT domain (the distribution is invariant
/// under the NTT).
fn draw_mask(seed: Seed, i: usize, plan: &NttPlan, limb: &mut [u64]) {
    UniformSampler::new(seed, i as u64).sample_poly(plan.modulus(), limb)
}

/// One RLWE sample under the secret `s` (NTT domain), into `b`
/// ([`RlweSample::run`]) with the Gaussian error of `error_seed` as its
/// source: `b_i = ê_i (+ t(i)) − a_i·s_i`, the mask `a_i` copied into
/// `a_i` when it is kept.
pub(crate) fn rlwe_sample<'t>(
    ctx: &CkksContext,
    s: &[Vec<u64>],
    mask_seed: Seed,
    error_seed: Seed,
    t: impl Fn(usize) -> Option<&'t [u64]> + Sync,
    b: &mut [Vec<u64>],
    a: Option<&mut [Vec<u64>]>,
) {
    let e = draw_error(ctx, error_seed);
    let e = SignedCoeffs::scan(&e);
    let sample = RlweSample {
        s,
        mask_seed,
        e: &e,
    };
    sample.run(ctx.ntt_engine(), t, b, a);
}

/// `f` on the seeded upload's RLWE sample of `seed` under `sk`: the mask
/// of `seed.derive(0)`, and the Gaussian error of `seed.derive(1)` folded
/// into the message's coefficients `m` ([`fold_error`]), so `m + e` is
/// the source and `t` is `None`. Both seeded uploads run it:
/// [`encrypt_symmetric_compressed`] lends an encoded plaintext's
/// coefficients, [`CkksContext::encode_encrypt_compressed_into`] hands
/// over its own.
pub(crate) fn with_upload_sample<R>(
    ctx: &CkksContext,
    sk: &SecretKey,
    seed: Seed,
    m: Cow<'_, [i128]>,
    f: impl FnOnce(&RlweSample<'_, i128>) -> R,
) -> R {
    let m_e = fold_error(m, draw_error(ctx, seed.derive(1)));
    let m_e = SignedCoeffs::scan(&m_e);
    f(&RlweSample {
        s: &sk.ntt,
        mask_seed: seed.derive(0),
        e: &m_e,
    })
}

/// The Gaussian error of an RLWE sample: one polynomial of `error_seed`.
fn draw_error(ctx: &CkksContext, error_seed: Seed) -> Vec<i64> {
    let (n, sigma) = (ctx.params().n(), ctx.params().error_sigma());
    GaussianSampler::new(error_seed, 0, sigma).sample_poly(n)
}

/// An RLWE sample's secret (NTT domain), mask seed and error source —
/// the Gaussian error, or a seeded upload's `m + e`.
pub(crate) struct RlweSample<'a, X> {
    pub(crate) s: &'a [Vec<u64>],
    pub(crate) mask_seed: Seed,
    pub(crate) e: &'a SignedCoeffs<'a, X>,
}

impl<X: SignedWord> RlweSample<'_, X> {
    /// Limb `i`: the mask `a_i` — stream `i` of `mask_seed`, the draw
    /// [`CompressedCiphertext::expand`] repeats — drawn into `b` (and
    /// copied into `a` when the mask is kept), then the error streamed
    /// through the scratch limb `e_hat` ([`NttPlan::forward_stream`]),
    /// whose last pass leaves `b = ê (+ t) − a_i·s_i`, canonical whichever
    /// kernel and thread count run it.
    pub(crate) fn limb(
        &self,
        i: usize,
        plan: &NttPlan,
        t: Option<&[u64]>,
        b: &mut [u64],
        a: Option<&mut [u64]>,
        e_hat: &mut Vec<u64>,
    ) {
        draw_mask(self.mask_seed, i, plan, b);
        if let Some(a) = a {
            a.copy_from_slice(b);
        }
        let tail = Tail::NegMulAdd {
            dst: b,
            s: &self.s[i],
            t,
        };
        plan.forward_stream(self.e, e_hat, tail);
    }

    /// Every limb of `b` by [`Self::limb`], in one engine fan-out, the
    /// mask kept in `a` when given.
    fn run<'t>(
        &self,
        engine: &RnsNttEngine,
        t: impl Fn(usize) -> Option<&'t [u64]> + Sync,
        b: &mut [Vec<u64>],
        a: Option<&mut [Vec<u64>]>,
    ) {
        match a {
            // A key keeps its mask: the pair pass lends each thread its
            // scratch limb for `ê`.
            Some(a) => {
                engine.for_each_limb_pair(b, a, LimbWork::Transform, |i, plan, b, a, e_hat| {
                    self.limb(i, plan, t(i), b, Some(a), e_hat)
                })
            }
            None => engine.for_each_limb(b, LimbWork::Transform, |i, plan, b| {
                self.limb(i, plan, t(i), b, None, &mut engine.take_limbs(1)[0])
            }),
        }
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
