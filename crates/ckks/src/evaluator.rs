//! Server-side homomorphic operations on client ciphertexts.
//!
//! The client-side accelerator exists so that a *server* can compute on
//! the ciphertexts; this module provides the full primitive set of a
//! CKKS evaluation server:
//!
//! * the degree-preserving, key-free operations — [`add`],
//!   [`add_plaintext`], [`plaintext_mul`] — enough for linear layers;
//! * RNS **rescaling** ([`rescale`]), the paper's "level" mechanism;
//! * keyed compute: ciphertext–ciphertext [`mul`] (degree-2
//!   intermediate), [`relinearize`] under an [`EvalKey`], and the
//!   Galois automorphisms [`rotate`] / [`conjugate`] under
//!   [`GaloisKey`]s — the building blocks of dot products, matvecs and
//!   every rotate-and-add reduction. All keyed ops share one
//!   RNS-gadget key-switch core (see [`crate::key`] for the
//!   decomposition choice and its noise model).
//!
//! Rescaling in RNS drops the last prime `q_L`:
//! `c'_i = (c_i − [c]_{q_L}) · q_L^{-1} (mod q_i)`, which divides the
//! underlying integer (and the scale) by `q_L` exactly. It needs the
//! last residue polynomial in *coefficient* form, so each rescale costs
//! one INTT plus `L` NTTs — the reason server-side accelerators care
//! about transform throughput just as the client does.
//!
//! Under the paper's **double-scale** parameters
//! ([`crate::params::ScaleMode::DoublePair`]) one multiplicative level is a prime
//! *pair*: [`rescale`] drops the last two primes in one fused step
//! (`c'_i = (c_i − [c]_{q_{L-1}·q_L}) · (q_{L-1}·q_L)^{-1} mod q_i`,
//! with the tail CRT-lifted across both primes), dividing the scale by
//! ≈Δ_eff = 2^72. Scales are tracked *exactly* as rationals
//! ([`crate::scale::ExactScale`]): no `f64` drift over the 24-prime
//! chain, and operand scales are compared by **exact equality** of
//! that normalized representation, not an `f64` tolerance.

use crate::cipher::{Ciphertext, Degree2Ciphertext, Plaintext};
use crate::context::{add_limbs, mul_limbs, CkksContext};
use crate::key::{EvalKey, GaloisKey, KeySwitchKey};
use crate::CkksError;
use abc_math::dyadic::Tail;
use abc_math::rns::{SignedCoeffs, WordLift};
use abc_math::RnsBasis;
use abc_transform::{LimbWork, PooledLimbs};

/// Shared entry-point validation for every evaluator operation: the
/// operand must carry this context's ring degree and no more primes
/// than the context's basis — an oversized ciphertext would otherwise
/// index out of bounds inside the engine instead of failing cleanly.
fn validate_operand(ctx: &CkksContext, n: usize, num_primes: usize) -> Result<(), CkksError> {
    if n != ctx.params().n() || num_primes > ctx.basis().len() {
        return Err(CkksError::ContextMismatch);
    }
    Ok(())
}

/// Homomorphic addition: `enc(a) + enc(b) = enc(a + b)`.
///
/// Operand scales must be equal as exact rationals: two different
/// rescale histories are rejected even when their `f64` images collide,
/// since inheriting one operand's [`crate::scale::ExactScale`] would
/// corrupt the exact-rational chain.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if levels or scales mismatch and
/// [`CkksError::ContextMismatch`] for foreign ciphertexts.
pub fn add(ctx: &CkksContext, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, a.n(), a.num_primes())?;
    validate_operand(ctx, b.n(), b.num_primes())?;
    if a.num_primes() != b.num_primes() {
        return Err(CkksError::InvalidParams(format!(
            "level mismatch: {} vs {} primes",
            a.num_primes(),
            b.num_primes()
        )));
    }
    if a.exact_scale() != b.exact_scale() {
        return Err(CkksError::InvalidParams(
            "scale mismatch in homomorphic addition".to_owned(),
        ));
    }
    let (a0, a1) = a.components();
    let (b0, b1) = b.components();
    let mut c0 = PooledLimbs::copy_of(a0);
    let mut c1 = PooledLimbs::copy_of(a1);
    let engine = ctx.ntt_engine();
    add_limbs(engine, &mut c0, b0);
    add_limbs(engine, &mut c1, b1);
    Ciphertext::from_limbs(c0, c1, a.exact_scale().clone())
}

/// Plaintext-ciphertext addition at matching scale:
/// `enc(a) + pt(b) = enc(a + b)` (only `c0` changes).
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] on scale/level mismatch and
/// [`CkksError::ContextMismatch`] for foreign inputs.
pub fn add_plaintext(
    ctx: &CkksContext,
    ct: &Ciphertext,
    pt: &Plaintext,
) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, ct.n(), ct.num_primes())?;
    validate_operand(ctx, pt.n(), pt.num_primes())?;
    if pt.num_primes() < ct.num_primes() {
        return Err(CkksError::InvalidParams(
            "plaintext carries fewer primes than the ciphertext".to_owned(),
        ));
    }
    if ct.exact_scale() != pt.exact_scale() {
        return Err(CkksError::InvalidParams(
            "scale mismatch in plaintext addition".to_owned(),
        ));
    }
    let (c0, c1) = ct.components();
    let mut n0 = PooledLimbs::copy_of(c0);
    add_limbs(ctx.ntt_engine(), &mut n0, pt.residues());
    Ciphertext::from_limbs(n0, PooledLimbs::copy_of(c1), ct.exact_scale().clone())
}

/// Plaintext-ciphertext multiplication: `enc(a) · pt(b) = enc(a ⊙ b)` at
/// scale `Δ_a · Δ_b` (follow with [`rescale`]).
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if the plaintext has fewer
/// primes than the ciphertext and [`CkksError::ContextMismatch`] for
/// foreign inputs.
pub fn plaintext_mul(
    ctx: &CkksContext,
    ct: &Ciphertext,
    pt: &Plaintext,
) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, ct.n(), ct.num_primes())?;
    validate_operand(ctx, pt.n(), pt.num_primes())?;
    if pt.num_primes() < ct.num_primes() {
        return Err(CkksError::InvalidParams(
            "plaintext carries fewer primes than the ciphertext".to_owned(),
        ));
    }
    let (c0, c1) = ct.components();
    let mut n0 = PooledLimbs::copy_of(c0);
    let mut n1 = PooledLimbs::copy_of(c1);
    // Each plaintext limb enters the dyadic kernel's domain once, in the
    // thread's scratch limb, for both components.
    let (engine, m) = (ctx.ntt_engine(), pt.residues());
    engine.for_each_limb_pair(
        &mut n0,
        &mut n1,
        LimbWork::Elementwise,
        |i, plan, x0, x1, pre| {
            pre.copy_from_slice(&m[i]);
            let d = plan.dyadic();
            d.premul(pre);
            d.mul_assign_premul(x0, pre);
            d.mul_assign_premul(x1, pre);
        },
    );
    Ciphertext::from_limbs(n0, n1, ct.exact_scale().mul(pt.exact_scale()))
}

/// RNS rescaling by one multiplicative *level* of the context's
/// [`ScaleMode`](crate::params::ScaleMode): drops one prime in `Single`,
/// a fused prime *pair* in `DoublePair` (the paper's double-scale levels).
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if too few primes remain to drop
/// a level and [`CkksError::ContextMismatch`] for foreign ciphertexts.
pub fn rescale(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    drop_tail(ctx, ct, ctx.params().scale_mode().primes_per_level())
}

/// Single-prime RNS rescaling: drops the last prime and divides the
/// scale by it, exactly.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for single-prime ciphertexts
/// (nothing left to drop) and [`CkksError::ContextMismatch`] for foreign
/// ciphertexts.
pub fn rescale_prime(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    drop_tail(ctx, ct, 1)
}

/// Fused pair rescaling — one double-scale level. Drops the last *two*
/// primes at once: the tail is CRT-lifted to the centered residue modulo
/// `q_{L-1}·q_L` (≤ ~75 bits, inside `i128`) and
/// `c'_i = (c_i − [c]_{q_{L-1}·q_L}) · (q_{L-1}·q_L)^{-1} mod q_i`
/// divides the underlying integer — and the exact scale — by the pair
/// product in a single step. Equivalent to two successive
/// [`rescale_prime`] calls up to one unit of per-prime rounding (the
/// fused form rounds once, the sequential form twice).
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if fewer than three primes
/// remain (a pair must drop and at least one prime must survive) and
/// [`CkksError::ContextMismatch`] for foreign ciphertexts.
pub fn rescale_pair(ctx: &CkksContext, ct: &Ciphertext) -> Result<Ciphertext, CkksError> {
    drop_tail(ctx, ct, 2)
}

/// Drops the last `t` primes (1 or 2) in one step: with `T` their
/// product, `c'_i = (c_i − [c]_T) · T^{-1} mod q_i` on every kept limb,
/// and the exact scale divided by each dropped prime.
fn drop_tail(ctx: &CkksContext, ct: &Ciphertext, t: usize) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, ct.n(), ct.num_primes())?;
    let lvl = ct.num_primes();
    if lvl <= t {
        return Err(CkksError::InvalidParams(format!(
            "cannot drop {t} prime(s) from a {lvl}-prime ciphertext"
        )));
    }
    let keep = lvl - t;
    let (kept_moduli, tail_moduli) = ctx.basis().moduli()[..lvl].split_at(keep);
    let engine = ctx.ntt_engine();
    // `T^{-1} mod q_i` and the CRT lift over the tail depend only on the
    // basis — built once, not once per component per limb. Two primes
    // below 2^62 keep `T` inside a `u128`.
    let tail_product: u128 = tail_moduli.iter().map(|m| m.q() as u128).product();
    let tail_inv: Vec<u64> = kept_moduli
        .iter()
        .map(|m| m.inv(m.reduce_u128(tail_product)).expect("coprime basis"))
        .collect();
    let tail_lift = WordLift::new(RnsBasis::new(tail_moduli.iter().map(|m| m.q()).collect())?);
    // Each component's tail back to coefficient domain (the copy folds
    // into the first inverse-NTT stage), then CRT-lifted per coefficient
    // into (−T/2, T/2]: `i64`-sized for one prime, ~75 bits for a pair.
    let (c0, c1) = ct.components();
    let centered = [c0, c1].map(|component| {
        let mut tails = engine.take_limbs(t);
        for (tail, i) in tails.iter_mut().zip(keep..) {
            engine.plan(i).inverse_from(&component[i], tail);
        }
        let mut centered = vec![0i128; ct.n()];
        tail_lift.lift_centered_i128(&tails[..], &mut centered);
        centered
    });
    let tails = centered.each_ref().map(|c| SignedCoeffs::scan(c));
    // c'_i = (c_i − NTT(tail)) · T^{-1} mod q_i in one pair pass, each
    // tail streamed through the thread's scratch limb, whose last pass
    // subtracts and multiplies into the kept limb.
    let mut out0 = PooledLimbs::copy_of(&c0[..keep]);
    let mut out1 = PooledLimbs::copy_of(&c1[..keep]);
    engine.for_each_limb_pair(
        &mut out0,
        &mut out1,
        LimbWork::Transform,
        |i, plan, x0, x1, t| {
            for (dst, tail) in [(x0, &tails[0]), (x1, &tails[1])] {
                let w = tail_inv[i];
                plan.forward_stream(tail, t, Tail::SubScalarMul { dst, w });
            }
        },
    );
    let scale = tail_moduli
        .iter()
        .fold(ct.exact_scale().clone(), |s, m| s.div_prime(m.q()));
    Ciphertext::from_limbs(out0, out1, scale)
}

/// Ciphertext–ciphertext multiplication, producing the degree-2
/// intermediate `(d0, d1, d2) = (a0·b0, a0·b1 + a1·b0, a1·b1)` at scale
/// `Δ_a·Δ_b`. Fold it back to degree 1 with [`relinearize`] (or use
/// [`mul_relin`]), then [`rescale`].
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] on level or scale-provenance
/// pathologies (levels must match; scales may differ — the product
/// scale is tracked exactly) and [`CkksError::ContextMismatch`] for
/// foreign ciphertexts.
pub fn mul(
    ctx: &CkksContext,
    a: &Ciphertext,
    b: &Ciphertext,
) -> Result<Degree2Ciphertext, CkksError> {
    validate_operand(ctx, a.n(), a.num_primes())?;
    validate_operand(ctx, b.n(), b.num_primes())?;
    if a.num_primes() != b.num_primes() {
        return Err(CkksError::InvalidParams(format!(
            "level mismatch: {} vs {} primes",
            a.num_primes(),
            b.num_primes()
        )));
    }
    let engine = ctx.ntt_engine();
    let (a0, a1) = a.components();
    let (b0, b1) = b.components();
    // All three products run on NTT-domain limbs: four dyadic passes
    // total, with the cross term fused as d1 = a0·b1 + (a1·b0).
    let mut d0 = PooledLimbs::copy_of(a0);
    mul_limbs(engine, &mut d0, b0);
    let mut d2 = PooledLimbs::copy_of(a1);
    mul_limbs(engine, &mut d2, b1);
    let mut cross = PooledLimbs::copy_of(a1);
    mul_limbs(engine, &mut cross, b0);
    let mut d1 = PooledLimbs::copy_of(a0);
    engine.dyadic_mul_add_all(&mut d1, b1, &cross);
    Ok(Degree2Ciphertext {
        c0: d0,
        c1: d1,
        c2: d2,
        scale: a.exact_scale().mul(b.exact_scale()),
        n: a.n(),
    })
}

/// The shared key-switch core: adds `(ks0, ks1)` onto `(acc0, acc1)`.
/// Decomposes the NTT-domain polynomial `a` into one *centered* digit
/// per carried prime — limb `i` goes back to coefficient domain, centers
/// into `(−q_i/2, q_i/2]`, and re-expands under all carried primes —
/// and accumulates `Σ Dᵢ·(bᵢ, aᵢ)`, one pair pass per digit: per carried
/// prime the digit streams through the forward transform into the
/// thread's scratch limb, entered into the dyadic domain by the
/// transform's tail (`Tail::Premul`), and multiply–accumulates into both
/// halves. The sum satisfies `ks0 + ks1·s ≈ a·t` up to the
/// gadget noise `Σ Dᵢ·eᵢ` ([`crate::noise::predicted_keyswitch_std`]).
///
/// Because the RNS gadget is an indicator basis, a full-level key
/// prefix-truncates: a ciphertext carrying `k` limbs uses digits
/// `0..k`, each restricted to limbs `0..k`.
fn key_switch(
    ctx: &CkksContext,
    a: &[Vec<u64>],
    ksk: &KeySwitchKey,
    acc0: &mut [Vec<u64>],
    acc1: &mut [Vec<u64>],
) -> Result<(), CkksError> {
    let k = a.len();
    if ksk.num_digits() < k || ksk.num_primes() < k {
        return Err(CkksError::ContextMismatch);
    }
    let engine = ctx.ntt_engine();
    let moduli = ctx.basis().moduli();
    let mut centered = vec![0i64; ctx.params().n()];
    let mut tail = engine.take_limbs(1);
    for (i, limb) in a.iter().enumerate() {
        engine.plan(i).inverse_from(limb, &mut tail[0]);
        for (dst, &x) in centered.iter_mut().zip(tail[0].iter()) {
            *dst = moduli[i].to_centered(x);
        }
        let digit = SignedCoeffs::scan(&centered);
        let (b, a) = (&ksk.b[i], &ksk.a[i]);
        engine.for_each_limb_pair(acc0, acc1, LimbWork::Transform, |j, plan, x0, x1, pre| {
            plan.forward_stream(&digit, pre, Tail::Premul);
            let d = plan.dyadic();
            d.mul_acc_assign_premul(x0, &b[j], pre);
            d.mul_acc_assign_premul(x1, &a[j], pre);
        });
    }
    Ok(())
}

/// Folds the degree-2 component of a ciphertext product back onto
/// `(c0, c1)` by key-switching `c2` from `s²` to `s` under the
/// relinearization key: `(c0 + ks0, c1 + ks1)`. The scale is unchanged.
///
/// # Errors
///
/// Returns [`CkksError::ContextMismatch`] for foreign ciphertexts or an
/// evaluation key carrying fewer digits/limbs than the ciphertext.
pub fn relinearize(
    ctx: &CkksContext,
    ct: &Degree2Ciphertext,
    evk: &EvalKey,
) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, ct.n(), ct.num_primes())?;
    let (mut c0, mut c1) = (ct.c0.clone(), ct.c1.clone());
    key_switch(ctx, &ct.c2, &evk.ksk, &mut c0, &mut c1)?;
    Ciphertext::from_limbs(c0, c1, ct.exact_scale().clone())
}

/// [`mul`] followed by [`relinearize`] — the common path for
/// ciphertext–ciphertext products.
///
/// # Errors
///
/// Propagates the errors of [`mul`] and [`relinearize`].
pub fn mul_relin(
    ctx: &CkksContext,
    a: &Ciphertext,
    b: &Ciphertext,
    evk: &EvalKey,
) -> Result<Ciphertext, CkksError> {
    let product = mul(ctx, a, b)?;
    relinearize(ctx, &product, evk)
}

/// Shared Galois path: the automorphism `X → X^g` on both components
/// in one pair pass — per limb, back to coefficient domain in the
/// thread's scratch limb, permuted `j → j·g mod 2N` into the output limb
/// (with `X^N = −1` folding the upper half as a negation) and
/// transformed forward again — then key-switch `σ_g(c1)` from `σ_g(s)`
/// back to `s`.
fn apply_galois(
    ctx: &CkksContext,
    ct: &Ciphertext,
    gk: &GaloisKey,
    expected_element: u64,
) -> Result<Ciphertext, CkksError> {
    validate_operand(ctx, ct.n(), ct.num_primes())?;
    if gk.element() != expected_element {
        return Err(CkksError::InvalidParams(format!(
            "Galois key element {} does not match the requested automorphism {expected_element}",
            gk.element()
        )));
    }
    let (g, k) = (gk.element() as usize, ct.num_primes());
    let engine = ctx.ntt_engine();
    let (c0, c1) = ct.components();
    let (mut g0, mut g1) = (engine.take_limbs(k), engine.take_limbs(k));
    engine.for_each_limb_pair(
        &mut g0,
        &mut g1,
        LimbWork::Transform,
        |i, plan, x0, x1, c| {
            for (dst, src) in [(x0, c0), (x1, c1)] {
                plan.inverse_from(&src[i], c);
                automorphism(c, g, dst, |x| plan.modulus().neg(x));
                plan.forward(dst);
            }
        },
    );
    // (σ(c0), 0) + key switch of σ(c1); pooled limbs hold whatever their
    // last owner left, so the second accumulator is cleared first.
    let mut out1 = engine.take_limbs(k);
    out1.iter_mut().for_each(|limb| limb.fill(0));
    key_switch(ctx, &g1, &gk.ksk, &mut g0, &mut out1)?;
    Ciphertext::from_limbs(g0, out1, ct.exact_scale().clone())
}

/// `dst = σ_g(src)` on a coefficient-domain polynomial: coefficient `j`
/// lands at `j·g mod 2N`, through `neg` when it wraps past `N`
/// (`X^N = −1`). An odd `g` makes this a permutation of `0..N`, so every
/// word of `dst` is written.
pub(crate) fn automorphism<T: Copy>(src: &[T], g: usize, dst: &mut [T], neg: impl Fn(T) -> T) {
    let n = src.len();
    for (j, &c) in src.iter().enumerate() {
        let idx = (j * g) & (2 * n - 1);
        if idx < n {
            dst[idx] = c;
        } else {
            dst[idx - n] = neg(c);
        }
    }
}

/// Homomorphic slot rotation by `steps`: slot `j` of the result holds
/// slot `(j + steps) mod N/2` of the input (a rotation *toward* lower
/// indices). The key must have been generated with
/// [`CkksContext::gen_rotation_key`] for the same `steps`. The scale is
/// unchanged.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] if the key's Galois element
/// does not match `steps` and [`CkksError::ContextMismatch`] for
/// foreign inputs.
pub fn rotate(
    ctx: &CkksContext,
    ct: &Ciphertext,
    steps: usize,
    gk: &GaloisKey,
) -> Result<Ciphertext, CkksError> {
    apply_galois(ctx, ct, gk, ctx.galois_element_for_rotation(steps))
}

/// Homomorphic complex conjugation of every slot (the automorphism
/// `X → X^{2N−1}`). The key must come from
/// [`CkksContext::gen_conjugation_key`]. The scale is unchanged.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] on a key element mismatch and
/// [`CkksError::ContextMismatch`] for foreign inputs.
pub fn conjugate(
    ctx: &CkksContext,
    ct: &Ciphertext,
    gk: &GaloisKey,
) -> Result<Ciphertext, CkksError> {
    let expected = 2 * ctx.params().n() as u64 - 1;
    apply_galois(ctx, ct, gk, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use crate::scale::ExactScale;
    use abc_float::Complex;
    use abc_prng::Seed;

    fn ctx() -> CkksContext {
        CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .num_primes(5)
                .secret_hamming_weight(Some(64))
                .build()
                .expect("params"),
        )
        .expect("ctx")
    }

    fn msg(slots: usize, phase: f64) -> Vec<Complex> {
        (0..slots)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.21 + phase).sin() * 0.5,
                    (i as f64 * 0.11).cos() * 0.3,
                )
            })
            .collect()
    }

    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
    }

    #[test]
    fn homomorphic_add_correct() {
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(1));
        let a = msg(ctx.params().slots(), 0.0);
        let b = msg(ctx.params().slots(), 1.0);
        let ca = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(2));
        let cb = ctx.encrypt(&ctx.encode(&b).expect("e"), &pk, Seed::from_u128(3));
        let sum = add(&ctx, &ca, &cb).expect("add");
        let out = ctx
            .decode(&ctx.decrypt(&sum, &sk).expect("d"))
            .expect("decode");
        let expected: Vec<Complex> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| Complex::new(x.re + y.re, x.im + y.im))
            .collect();
        assert!(max_err(&out, &expected) < 1e-4);
    }

    #[test]
    fn plaintext_mul_then_rescale() {
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(4));
        let a = msg(ctx.params().slots(), 0.0);
        let w = msg(ctx.params().slots(), 2.0);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(5));
        let product = plaintext_mul(&ctx, &ct, &ctx.encode(&w).expect("e")).expect("mul");
        assert_eq!(product.scale(), ct.scale() * ctx.params().scale());
        let rescaled = rescale(&ctx, &product).expect("rescale");
        // One prime dropped; the resulting scale is exactly Δ²/q_last —
        // not "within 2×" but equal as an exact rational.
        assert_eq!(rescaled.num_primes(), ct.num_primes() - 1);
        let q_last = ctx.basis().moduli()[ct.num_primes() - 1].q();
        let expected_scale = ct
            .exact_scale()
            .mul(&crate::scale::ExactScale::from_log2(
                ctx.params().effective_scale_bits(),
            ))
            .div_prime(q_last);
        assert_eq!(rescaled.exact_scale(), &expected_scale);
        assert_eq!(rescaled.exact_scale().dropped_primes(), &[q_last]);
        let out = ctx
            .decode(&ctx.decrypt(&rescaled, &sk).expect("d"))
            .expect("decode");
        let expected: Vec<Complex> = a
            .iter()
            .zip(&w)
            .map(|(x, y)| Complex::new(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re))
            .collect();
        let err = max_err(&out, &expected);
        assert!(err < 1e-3, "slot error {err}");
    }

    #[test]
    fn rescale_chain_to_bottom_level() {
        // Drive a fresh ciphertext all the way down: multiply by the
        // all-ones plaintext and rescale until two primes remain —
        // exactly the paper's "server returns a 2-level ciphertext".
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(6));
        let a = msg(ctx.params().slots(), 0.5);
        let ones = vec![Complex::new(1.0, 0.0); ctx.params().slots()];
        let ones_pt = ctx.encode(&ones).expect("e");
        let mut ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(7));
        while ct.num_primes() > 2 {
            let prod = plaintext_mul(&ctx, &ct, &ones_pt).expect("mul");
            ct = rescale(&ctx, &prod).expect("rescale");
        }
        assert_eq!(ct.level(), 1);
        let out = ctx
            .decode(&ctx.decrypt(&ct, &sk).expect("d"))
            .expect("decode");
        assert!(max_err(&out, &a) < 1e-2, "err {}", max_err(&out, &a));
    }

    #[test]
    fn rescale_chain_scale_is_bigint_exact() {
        // The divide-as-you-go f64 scale drifts over a rescale chain;
        // the exact tracker must match the independently computed
        // big-rational Δ^(k+1)/∏(dropped qᵢ) — representation *and*
        // value — after a full chain to the bottom level.
        use abc_math::UBig;
        let ctx = ctx();
        let (_, pk) = ctx.keygen(Seed::from_u128(12));
        let slots = ctx.params().slots();
        let ones_pt = ctx.encode(&vec![Complex::new(1.0, 0.0); slots]).expect("e");
        let mut ct = ctx.encrypt(
            &ctx.encode(&msg(slots, 1.0)).expect("e"),
            &pk,
            Seed::from_u128(13),
        );
        let mut dropped = Vec::new();
        let mut muls = 0u32;
        while ct.num_primes() > 2 {
            let prod = plaintext_mul(&ctx, &ct, &ones_pt).expect("mul");
            dropped.push(ctx.basis().moduli()[prod.num_primes() - 1].q());
            ct = rescale(&ctx, &prod).expect("rescale");
            muls += 1;
        }
        assert!(muls >= 3, "chain long enough to expose f64 drift");
        // Independent big-rational evaluation of the final scale.
        let sb = ctx.params().effective_scale_bits();
        let num = UBig::one().shl(sb * (muls + 1));
        let den = dropped.iter().fold(UBig::one(), |acc, &q| acc.mul_u64(q));
        let expected_f64 = num.to_f64() / den.to_f64();
        let got = ct.scale();
        assert!(
            ((got - expected_f64) / expected_f64).abs() < 1e-12,
            "scale {got} vs bigint-exact {expected_f64}"
        );
        // And the representation itself carries the true prime history.
        let mut sorted = dropped.clone();
        sorted.sort_unstable();
        assert_eq!(ct.exact_scale().dropped_primes(), sorted.as_slice());
        let (num_repr, exp, _) = ct.exact_scale().raw_parts();
        assert_eq!(num_repr, &UBig::one());
        assert_eq!(exp, (sb * (muls + 1)) as i32);
    }

    #[test]
    fn pair_rescale_drops_two_primes_with_exact_scale() {
        // A double-scale context: `rescale` consumes one *pair* per
        // level and the scale divides by the exact pair product.
        let ctx = double_ctx();
        assert_eq!(ctx.params().scale(), 2f64.powi(72));
        let (sk, pk) = ctx.keygen(Seed::from_u128(20));
        let a = msg(ctx.params().slots(), 0.3);
        let w = msg(ctx.params().slots(), 1.3);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(21));
        let product = plaintext_mul(&ctx, &ct, &ctx.encode(&w).expect("e")).expect("mul");
        let rescaled = rescale(&ctx, &product).expect("pair rescale");
        assert_eq!(rescaled.num_primes(), ct.num_primes() - 2);
        let qa = ctx.basis().moduli()[4].q();
        let qb = ctx.basis().moduli()[5].q();
        let mut expect_dropped = [qa, qb];
        expect_dropped.sort_unstable();
        assert_eq!(
            rescaled.exact_scale().dropped_primes(),
            expect_dropped.as_slice()
        );
        // Scale is back within a couple bits of Δ_eff: 2^144/(qa·qb).
        let ratio = rescaled.scale() / ctx.params().scale();
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
        let out = ctx
            .decode(&ctx.decrypt(&rescaled, &sk).expect("d"))
            .expect("decode");
        let expected: Vec<Complex> = a
            .iter()
            .zip(&w)
            .map(|(x, y)| Complex::new(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re))
            .collect();
        let err = max_err(&out, &expected);
        assert!(err < 1e-6, "slot error {err}");
        // A bias at that scale — rational, no power of two, so encoding
        // it rounds through the big-integer arm of `quantize`
        // before the expansion every encode shares — adds slot-wise.
        assert!(rescaled.exact_scale().as_pow2().is_none());
        let bias = msg(ctx.params().slots(), 2.1);
        let bias_pt = ctx.encode_with_exact_scale(&bias, rescaled.exact_scale());
        let sum = add_plaintext(&ctx, &rescaled, &bias_pt.expect("encode")).expect("add");
        let out = ctx
            .decode(&ctx.decrypt(&sum, &sk).expect("d"))
            .expect("decode");
        let expected: Vec<Complex> = expected
            .iter()
            .zip(&bias)
            .map(|(p, b)| Complex::new(p.re + b.re, p.im + b.im))
            .collect();
        let err = max_err(&out, &expected);
        assert!(err < 1e-6, "slot error with bias {err}");
    }

    #[test]
    fn pair_rescale_rejects_short_ciphertexts() {
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
        let (_, pk) = ctx.keygen(Seed::from_u128(22));
        let ct = ctx
            .encrypt(
                &ctx.encode(&msg(8, 0.0)).expect("e"),
                &pk,
                Seed::from_u128(23),
            )
            .truncated(2);
        assert!(matches!(
            rescale(&ctx, &ct),
            Err(CkksError::InvalidParams(_))
        ));
    }

    #[test]
    fn add_rejects_mismatches() {
        let ctx = ctx();
        let (_, pk) = ctx.keygen(Seed::from_u128(8));
        let a = ctx.encrypt(
            &ctx.encode(&msg(8, 0.0)).expect("e"),
            &pk,
            Seed::from_u128(9),
        );
        let b = a.truncated(3);
        assert!(matches!(
            add(&ctx, &a, &b),
            Err(CkksError::InvalidParams(_))
        ));
    }

    fn slot_product(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
        a.iter()
            .zip(b)
            .map(|(x, y)| Complex::new(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re))
            .collect()
    }

    #[test]
    fn mul_relin_rescale_matches_slotwise_product() {
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(30));
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(31));
        let slots = ctx.params().slots();
        let a = msg(slots, 0.0);
        let b = msg(slots, 1.7);
        let ca = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(32));
        let cb = ctx.encrypt(&ctx.encode(&b).expect("e"), &pk, Seed::from_u128(33));
        let product = mul(&ctx, &ca, &cb).expect("mul");
        assert_eq!(product.num_primes(), ca.num_primes());
        assert_eq!(product.exact_scale().to_f64(), ca.scale() * cb.scale());
        let relin = relinearize(&ctx, &product, &evk).expect("relinearize");
        assert_eq!(relin.exact_scale(), product.exact_scale());
        let rescaled = rescale(&ctx, &relin).expect("rescale");
        let out = ctx
            .decode(&ctx.decrypt(&rescaled, &sk).expect("d"))
            .expect("decode");
        let err = max_err(&out, &slot_product(&a, &b));
        assert!(err < 1e-3, "slot error {err}");
        // The convenience wrapper is exactly the staged pipeline.
        let fused = mul_relin(&ctx, &ca, &cb, &evk).expect("mul_relin");
        assert_eq!(fused, relin);
    }

    #[test]
    fn keyswitch_keys_prefix_truncate_to_lower_levels() {
        // One full-level eval key serves every level: the RNS-indicator
        // gadget restricts to digits 0..k / limbs 0..k.
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(34));
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(35));
        let slots = ctx.params().slots();
        let a = msg(slots, 0.4);
        let b = msg(slots, 2.2);
        let ca = ctx
            .encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(36))
            .truncated(3);
        let cb = ctx
            .encrypt(&ctx.encode(&b).expect("e"), &pk, Seed::from_u128(37))
            .truncated(3);
        let relin = mul_relin(&ctx, &ca, &cb, &evk).expect("low-level mul_relin");
        assert_eq!(relin.num_primes(), 3);
        let rescaled = rescale(&ctx, &relin).expect("rescale");
        let out = ctx
            .decode(&ctx.decrypt(&rescaled, &sk).expect("d"))
            .expect("decode");
        let err = max_err(&out, &slot_product(&a, &b));
        assert!(err < 1e-3, "slot error {err}");
    }

    /// A double-scale context: Galois key-switch noise (≈q_max·σ·√(Nk/12),
    /// see [`crate::key`]) needs the DoublePair Δ_eff = 2^72 budget —
    /// against a Single-mode Δ = 2^36 it would dominate the message.
    fn double_ctx() -> CkksContext {
        use crate::params::ScaleMode;
        CkksContext::new(
            CkksParams::builder()
                .log_n(10)
                .num_primes(6)
                .scale_mode(ScaleMode::DoublePair)
                .secret_hamming_weight(Some(64))
                .build()
                .expect("params"),
        )
        .expect("ctx")
    }

    #[test]
    fn rotate_matches_slot_permutation() {
        let ctx = double_ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(40));
        let slots = ctx.params().slots();
        let a = msg(slots, 0.9);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(41));
        for steps in [1usize, 3, slots / 2, slots - 1] {
            let gk = ctx
                .gen_rotation_key(&sk, steps, Seed::from_u128(42 + steps as u128))
                .expect("rotation key");
            let rotated = rotate(&ctx, &ct, steps, &gk).expect("rotate");
            assert_eq!(rotated.exact_scale(), ct.exact_scale());
            let out = ctx
                .decode(&ctx.decrypt(&rotated, &sk).expect("d"))
                .expect("decode");
            let expected: Vec<Complex> = (0..slots).map(|j| a[(j + steps) % slots]).collect();
            let err = max_err(&out, &expected);
            assert!(err < 1e-3, "steps {steps}: slot error {err}");
        }
    }

    #[test]
    fn conjugate_matches_slot_conjugation() {
        let ctx = double_ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(44));
        let slots = ctx.params().slots();
        let a = msg(slots, 0.2);
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(45));
        let gk = ctx
            .gen_conjugation_key(&sk, Seed::from_u128(46))
            .expect("conjugation key");
        let conj = conjugate(&ctx, &ct, &gk).expect("conjugate");
        let out = ctx
            .decode(&ctx.decrypt(&conj, &sk).expect("d"))
            .expect("decode");
        let expected: Vec<Complex> = a.iter().map(|z| Complex::new(z.re, -z.im)).collect();
        let err = max_err(&out, &expected);
        assert!(err < 1e-3, "slot error {err}");
    }

    #[test]
    fn rotate_rejects_mismatched_key_element() {
        let ctx = ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(47));
        let ct = ctx.encrypt(
            &ctx.encode(&msg(8, 0.0)).expect("e"),
            &pk,
            Seed::from_u128(48),
        );
        let gk = ctx
            .gen_rotation_key(&sk, 1, Seed::from_u128(49))
            .expect("key");
        assert!(matches!(
            rotate(&ctx, &ct, 2, &gk),
            Err(CkksError::InvalidParams(_))
        ));
        assert!(matches!(
            conjugate(&ctx, &ct, &gk),
            Err(CkksError::InvalidParams(_))
        ));
    }

    #[test]
    fn mul_rejects_level_mismatch() {
        let ctx = ctx();
        let (_, pk) = ctx.keygen(Seed::from_u128(50));
        let ct = ctx.encrypt(
            &ctx.encode(&msg(8, 0.0)).expect("e"),
            &pk,
            Seed::from_u128(51),
        );
        assert!(matches!(
            mul(&ctx, &ct, &ct.truncated(3)),
            Err(CkksError::InvalidParams(_))
        ));
    }

    /// Regression: the old evaluator compared scales with an `f64`
    /// relative tolerance of 1e-9, silently accepting two *different*
    /// exact rescale histories whose `f64` images collide. Exact-scale
    /// operands must match by representation.
    #[test]
    fn add_rejects_distinct_exact_scale_histories() {
        use abc_math::UBig;
        let ctx = ctx();
        let n = ctx.params().n();
        let q_last = ctx.basis().moduli()[4].q();
        // The true post-rescale scale 2^72/q_last …
        let true_scale = ExactScale::from_log2(72).div_prime(q_last);
        // … and an impostor (2^40+1)·2^32/q_last, off by 2^-40 relative —
        // far inside the old 1e-9 tolerance.
        let near =
            ExactScale::from_raw_parts(UBig::one().shl(40).add(&UBig::one()), 32, vec![q_last])
                .expect("valid raw parts");
        let rel = (near.to_f64() - true_scale.to_f64()).abs() / true_scale.to_f64();
        assert!(rel < 1e-9, "impostor must defeat the old f64 check: {rel}");
        let limbs = vec![vec![0u64; n]; 3];
        let a = Ciphertext::from_components_exact(limbs.clone(), limbs.clone(), true_scale)
            .expect("ct");
        let b = Ciphertext::from_components_exact(limbs.clone(), limbs, near).expect("ct");
        assert!(matches!(
            add(&ctx, &a, &b),
            Err(CkksError::InvalidParams(_))
        ));
    }

    /// Regression: ciphertexts carrying more primes than the context's
    /// basis used to panic (out-of-bounds plan/modulus indexing) in
    /// `add`/`add_plaintext`/`plaintext_mul`; every entry point must
    /// return [`CkksError::ContextMismatch`] instead.
    #[test]
    fn oversized_ciphertext_is_rejected_not_a_panic() {
        let ctx = ctx();
        let n = ctx.params().n();
        let limbs = vec![vec![0u64; n]; ctx.basis().len() + 1];
        let ct = Ciphertext::from_components_exact(limbs.clone(), limbs, ExactScale::from_log2(36))
            .expect("ct");
        let pt = ctx.encode(&msg(8, 0.0)).expect("encode");
        assert!(matches!(
            add(&ctx, &ct, &ct),
            Err(CkksError::ContextMismatch)
        ));
        assert!(matches!(
            add_plaintext(&ctx, &ct, &pt),
            Err(CkksError::ContextMismatch)
        ));
        assert!(matches!(
            plaintext_mul(&ctx, &ct, &pt),
            Err(CkksError::ContextMismatch)
        ));
        assert!(matches!(
            rescale(&ctx, &ct),
            Err(CkksError::ContextMismatch)
        ));
        assert!(matches!(
            mul(&ctx, &ct, &ct),
            Err(CkksError::ContextMismatch)
        ));
    }

    #[test]
    fn rescale_rejects_bottom() {
        let ctx = ctx();
        let (_, pk) = ctx.keygen(Seed::from_u128(10));
        let ct = ctx
            .encrypt(
                &ctx.encode(&msg(8, 0.0)).expect("e"),
                &pk,
                Seed::from_u128(11),
            )
            .truncated(1);
        assert!(matches!(
            rescale(&ctx, &ct),
            Err(CkksError::InvalidParams(_))
        ));
    }
}
