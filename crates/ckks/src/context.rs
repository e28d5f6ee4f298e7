//! The CKKS client context: encode, encrypt, decrypt, decode.

use crate::cipher::{Ciphertext, Plaintext};
use crate::key::{EvalKey, GaloisKey, KeySwitchKey, PublicKey, SecretKey};
use crate::params::{CkksParams, EmbeddingPrecision};
use crate::scale::ExactScale;
use crate::CkksError;
use abc_float::{Complex, ExtF64Field, F64Field, RealField};
use abc_math::rns::{Lifted, WordLift};
use abc_math::RnsBasis;
use abc_prng::sampler::{GaussianSampler, TernarySampler, UniformSampler};
use abc_prng::Seed;
use abc_transform::{LimbWork, NttPlan, PooledLimbs, RnsNttEngine, SpecialFftEngine};

/// The context's canonical-embedding engine, instantiated at the
/// datapath selected by [`CkksParams::embedding_precision`] — one
/// planned per-(slots, datapath) twiddle table, built once per context.
/// Every embedding FFT runs on the calling thread.
#[derive(Debug)]
pub enum EmbeddingEngine {
    /// IEEE binary64 (the reference datapath).
    F64(SpecialFftEngine<F64Field>),
    /// Double-double ≈106-bit — decodes above the FP64 ceiling.
    ExtF64(SpecialFftEngine<ExtF64Field>),
}

impl EmbeddingEngine {
    fn build(precision: EmbeddingPrecision, slots: usize) -> Self {
        match precision {
            EmbeddingPrecision::F64 => Self::F64(SpecialFftEngine::new(F64Field, slots)),
            EmbeddingPrecision::ExtF64 => Self::ExtF64(SpecialFftEngine::new(ExtF64Field, slots)),
        }
    }
}

/// Dispatches a method call over the active embedding datapath.
macro_rules! with_embedding {
    ($self:expr, $engine:ident => $body:expr) => {
        match &$self.embedding {
            EmbeddingEngine::F64($engine) => $body,
            EmbeddingEngine::ExtF64($engine) => $body,
        }
    };
}

/// A ready-to-use CKKS client: owns the RNS basis, a batched
/// [`RnsNttEngine`] (one Harvey-butterfly NTT plan per prime, limb
/// fan-out across threads), and a [`SpecialFftEngine`] holding the
/// planned canonical-embedding twiddle table at the configured
/// [`EmbeddingPrecision`].
///
/// The four public operations mirror the paper's Fig. 2a:
/// [`encode`](Self::encode) (IFFT → expand RNS → NTT),
/// [`encrypt`](Self::encrypt) (PRNG mask/error + public-key combination),
/// [`decrypt`](Self::decrypt) (`c0 + c1·s`),
/// [`decode`](Self::decode) (INTT → combine CRT → FFT).
///
/// Like the accelerator, a context streams **one message at a time**:
/// the only threads an operation starts are the engine's limb fan-out.
/// A caller holding several messages loops the single-op path (dropping
/// each plaintext before making the next keeps the limb pool inside its
/// one-operation allowance). A caller with several *threads* shares one
/// context between them, as the gateway's workers do: every method
/// takes `&self`, the context is `Send + Sync`, and its tables — 24 MiB
/// at `N = 2^16`, 24 primes — are then resident once. Such a caller
/// registers the limb-pool allowance of the extra concurrent operations
/// with [`RnsNttEngine::allow_concurrent_ops`].
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    basis: RnsBasis,
    engine: RnsNttEngine,
    embedding: EmbeddingEngine,
}

/// Threads share one context by reference (`Arc<CkksContext>` in the
/// gateway); nothing in it may stop being `Send + Sync` unnoticed.
const _: fn() = || {
    fn ok<T: Send + Sync>() {}
    ok::<CkksContext>()
};

impl CkksContext {
    /// Builds a context: generates the NTT-prime basis and all transform
    /// plans.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::Math`] if prime generation or root finding
    /// fails for the requested parameters.
    pub fn new(params: CkksParams) -> Result<Self, CkksError> {
        let n = params.n();
        // The level-0 prime carries headroom above the scale: a coefficient
        // of a maximal-amplitude message reaches Δ·√2, so decryption at
        // level 1 needs q_0 > 2Δ·√2. Uniform prime widths (the paper's
        // Table setting) would make q_0 ≈ Δ and wrap such coefficients;
        // like SEAL's "special prime" convention we widen only q_0.
        let head_bits = params.head_prime_bits();
        let mut primes = abc_math::primes::generate_ntt_primes(head_bits, 1, 2 * n as u64)?;
        if params.num_primes() > 1 {
            primes.extend(abc_math::primes::generate_ntt_primes(
                params.prime_bits(),
                params.num_primes() - 1,
                2 * n as u64,
            )?);
        }
        let basis = RnsBasis::new(primes)?;
        let engine = RnsNttEngine::new(basis.moduli(), n)?;
        let embedding = EmbeddingEngine::build(params.embedding_precision(), params.slots());
        Ok(Self {
            params,
            basis,
            engine,
            embedding,
        })
    }

    /// The parameters this context was built with.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The RNS basis (all primes).
    pub fn basis(&self) -> &RnsBasis {
        &self.basis
    }

    /// The per-prime NTT plans (in basis order).
    pub fn ntt_plans(&self) -> &[NttPlan] {
        self.engine.plans()
    }

    /// The batched RNS NTT engine (thread fan-out; its limbs come from
    /// the process-wide pool, whose retention it backs while it lives).
    pub fn ntt_engine(&self) -> &RnsNttEngine {
        &self.engine
    }

    /// The canonical-embedding engine at the configured
    /// [`EmbeddingPrecision`] (planned twiddles).
    pub fn embedding(&self) -> &EmbeddingEngine {
        &self.embedding
    }

    /// Bytes this context keeps resident while it lives, by owner:
    /// `(ntt_tables, fft_plans, pool_allowance)` — the twiddle and
    /// quotient columns of the per-prime NTT plans, the embedding FFT's
    /// tables, and the limb-pool retention the engine registers for one
    /// operation (`4 × limbs × N × 8`; the pool fills it on first use).
    /// Keys are not counted. No FFT slot buffers are retained: the
    /// embedding keeps none, and the AVX-512 kernel's split planes are a
    /// limb of the pool allowance.
    pub fn resident_bytes(&self) -> (usize, usize, usize) {
        let (ntt_tables, pool_allowance) = self.engine.resident_bytes();
        let fft_plans = with_embedding!(self, e => e.plan().resident_bytes());
        (ntt_tables, fft_plans, pool_allowance)
    }

    /// Per-prime residue bit widths of the first `primes` basis entries —
    /// the v3 wire format's packing schedule
    /// ([`crate::wire::serialize_ciphertext_packed`]).
    ///
    /// # Panics
    ///
    /// Panics if `primes` exceeds the basis size.
    pub fn wire_widths(&self, primes: usize) -> Vec<u32> {
        crate::wire::residue_widths(&self.basis.moduli()[..primes])
    }

    /// Checks that `limbs` — a component of a ciphertext from outside the
    /// program — is canonical under this context: every word of limb `i`
    /// below prime `i`. The wire parser only bounds a residue by its bit
    /// width (it has no basis to hold it against), and every kernel
    /// behind [`Self::decrypt`] takes canonical operands on trust: a
    /// word at or above its prime is a `debug_assert!` panic there in
    /// debug builds and a wrong answer in release. One compare per word.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] for more limbs than the
    /// context has primes, [`CkksError::InvalidParams`] for a word at or
    /// above its prime.
    pub fn check_residues(&self, limbs: &[Vec<u64>]) -> Result<(), CkksError> {
        if limbs.len() > self.basis.len() {
            return Err(CkksError::ContextMismatch);
        }
        for (i, (m, limb)) in self.basis.moduli().iter().zip(limbs).enumerate() {
            if !limb.iter().all(|&x| x < m.q()) {
                return Err(CkksError::InvalidParams(format!(
                    "limb {i} holds a residue at or above its prime"
                )));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Encode / decode
    // ------------------------------------------------------------------

    /// Encodes a slot vector on the context's configured embedding
    /// datapath, through the planned-twiddle engine.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] if `message` exceeds `N/2`
    /// entries.
    pub fn encode(&self, message: &[Complex]) -> Result<Plaintext, CkksError> {
        let scale = ExactScale::from_log2(self.params.effective_scale_bits());
        self.encode_with_exact_scale(message, &scale)
    }

    /// Encodes at an exact rational scale on the configured embedding
    /// datapath — needed when matching the scale of an evaluated
    /// ciphertext (e.g. adding a bias after a rescale, at its
    /// [`Ciphertext::exact_scale`]). The Δ-rounding is *exact* for any
    /// scale and any datapath:
    ///
    /// * the embedding output is lifted losslessly into double-double
    ///   (`ExtF64`) form — for `f64`-backed datapaths the low component
    ///   is zero and the classic paths are reproduced bit for bit;
    /// * power-of-two scales (fresh Δ_eff = 2^72 included) shift the
    ///   exponents exactly and round once through `i128`;
    /// * rational scales (post-rescale, `Δ²/∏qᵢ`) round through the
    ///   big-integer lift `round((hi + lo)·num·2^e / ∏den)`, since a
    ///   single `f64` product would corrupt up to 20 low bits at
    ///   double-scale magnitudes.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] for oversize messages and
    /// [`CkksError::InvalidParams`] if a scaled coefficient is too large
    /// to encode (non-finite or beyond 2^120).
    pub fn encode_with_exact_scale(
        &self,
        message: &[Complex],
        scale: &ExactScale,
    ) -> Result<Plaintext, CkksError> {
        with_embedding!(self, e => self.encode_core(e, message, scale))
    }

    /// The generic encode kernel: inverse embedding on `engine`'s
    /// datapath, then exact Δ-rounding into RNS + NTT domain.
    pub(crate) fn encode_core<F: RealField>(
        &self,
        engine: &SpecialFftEngine<F>,
        message: &[Complex],
        scale: &ExactScale,
    ) -> Result<Plaintext, CkksError> {
        let slots = self.params.slots();
        if message.len() > slots {
            return Err(CkksError::TooManySlots {
                got: message.len(),
                max: slots,
            });
        }
        let field = engine.plan().field().clone();
        // Slot vector, zero-padded, through the inverse embedding.
        let mut vals = engine.take_buf();
        for (dst, &m) in vals.iter_mut().zip(message) {
            *dst = m.lift_in(&field);
        }
        engine.inverse(&mut vals);
        let rns = self.quantize_coeffs(&field, &vals, scale)?;
        Ok(Plaintext {
            rns,
            scale: scale.clone(),
            n: self.params.n(),
        })
    }

    /// Exact Δ-rounding of the inverse embedding's output into NTT-domain
    /// RNS residues, in pooled limbs: one pass over the `N` coefficients,
    /// each lifted, range-checked and rounded as it is read. Coefficient
    /// `j` is the real part of slot `j`, coefficient `j + N/2` its
    /// imaginary part.
    fn quantize_coeffs<F: RealField>(
        &self,
        field: &F,
        vals: &[Complex<F::Real>],
        scale: &ExactScale,
    ) -> Result<PooledLimbs, CkksError> {
        let coeffs = vals.iter().map(|v| v.re).chain(vals.iter().map(|v| v.im));
        let scale_f = scale.to_f64();
        // Lift losslessly into double-double; zero `lo` for f64-backed
        // datapaths keeps their classic rounding paths bit-identical.
        let lift = |c: F::Real| {
            let ext = field.to_ext(c);
            let v = ext.to_f64() * scale_f;
            if !v.is_finite() || v.abs() >= 2f64.powi(120) {
                return Err(CkksError::InvalidParams(format!(
                    "scaled coefficient {v:e} too large to encode"
                )));
            }
            Ok(ext)
        };
        if let Some(exp) = scale.as_pow2() {
            // Exact: a power-of-two scale only shifts both exponents;
            // one rounding through `i128`.
            let mut ints = Vec::with_capacity(2 * vals.len());
            for c in coeffs {
                ints.push(lift(c)?.ldexp(exp).round_to_i128());
            }
            Ok(self.engine.expand_and_ntt_pooled(&ints, self.basis.len()))
        } else {
            // Rational scale: exact big-integer rounding, residues per
            // prime, then the batched forward NTT.
            assert_eq!(
                2 * vals.len(),
                self.params.n(),
                "coefficient count must equal N"
            );
            let moduli = self.basis.moduli();
            let rounder = scale.rounder();
            let mut rows = self.engine.take_limbs(moduli.len());
            for (j, c) in coeffs.enumerate() {
                let (negative, mag) = rounder.round_ext(lift(c)?);
                for (row, m) in rows.iter_mut().zip(moduli) {
                    let r = mag.rem_u64(m.q());
                    row[j] = if negative { m.neg(r) } else { r };
                }
            }
            self.engine.forward_all(&mut rows);
            Ok(rows)
        }
    }

    /// Decodes a plaintext back to slot values on the context's
    /// configured embedding datapath.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] if the plaintext belongs to
    /// different parameters.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<Complex>, CkksError> {
        match &self.embedding {
            // The f64 datapath's slot vector is the result itself.
            EmbeddingEngine::F64(e) => self.decode_to_slots(e, pt),
            EmbeddingEngine::ExtF64(e) => self.decode_core(e, pt),
        }
    }

    /// The generic decode kernel: INTT, exact CRT lift, double-double
    /// scale division, forward embedding on `engine`'s datapath, then
    /// each slot rounded to `f64`.
    pub(crate) fn decode_core<F: RealField>(
        &self,
        engine: &SpecialFftEngine<F>,
        pt: &Plaintext,
    ) -> Result<Vec<Complex>, CkksError> {
        let vals = self.decode_to_slots(engine, pt)?;
        let field = engine.plan().field();
        Ok(vals.iter().map(|v| v.to_f64_in(field)).collect())
    }

    /// Decode on `engine`'s datapath, as one streaming pass and then the
    /// forward embedding: out-of-place INTT into pooled limbs, then per
    /// coefficient the exact centered CRT lift (word-sized and verified
    /// against every residue; big-integer only where that check fails,
    /// see [`WordLift`]) and the division by the exact rational scale in
    /// double-double precision, written straight into a fresh slot
    /// vector (coefficient `j` is the real part of slot `j`, coefficient
    /// `j + N/2` its imaginary part). The quotient enters the embedding
    /// at the datapath's full width: ExtF64 keeps all ~106 bits, the
    /// f64 view is one final rounding.
    ///
    /// The lift runs on the engine's fan-out by slot range: the thread
    /// owning slots `a..b` lifts coefficients `a..b` into their real
    /// parts and `N/2 + a..N/2 + b` into their imaginary parts, through
    /// per-limb views of those ranges. A coefficient is a function of its
    /// own residues alone, so the slots do not depend on where the
    /// ranges are cut. The pass reads the `lvl × N` words the INTT
    /// wrote and fans out under the transform cut-off, as the INTT does.
    fn decode_to_slots<F: RealField>(
        &self,
        engine: &SpecialFftEngine<F>,
        pt: &Plaintext,
    ) -> Result<Vec<Complex<F::Real>>, CkksError> {
        if pt.n != self.params.n() || pt.num_primes() > self.basis.len() {
            return Err(CkksError::ContextMismatch);
        }
        let lvl = pt.num_primes();
        // Paper: INTT stage of decoding, all limbs batched through the
        // engine's thread fan-out.
        let mut res = self.engine.take_limbs(lvl);
        self.engine
            .for_each_limb(&mut res, LimbWork::Transform, |i, plan, limb| {
                plan.inverse_from(&pt.rns[i], limb)
            });
        let lift = WordLift::new(self.basis.truncated(lvl));
        let divisor = pt.scale.divisor();
        let field = engine.plan().field();
        let slots = self.params.slots();
        let coeff = |negative, mag: Lifted<'_>| {
            field.from_ext(match mag {
                Lifted::Word(mag) => divisor.apply_u128(negative, mag),
                Lifted::Big(mag) => divisor.apply_ext(negative, mag),
            })
        };
        // One view vector per chunk, re-pointed for the imaginary half.
        let lift_range = |a: usize, chunk: &mut [Complex<F::Real>]| {
            let b = a + chunk.len();
            let mut views: Vec<&[u64]> = res.iter().map(|limb| &limb[a..b]).collect();
            lift.lift_centered(&views, |j, negative, mag| {
                chunk[j].re = coeff(negative, mag)
            });
            for (view, limb) in views.iter_mut().zip(res.iter()) {
                *view = &limb[slots + a..slots + b];
            }
            lift.lift_centered(&views, |j, negative, mag| {
                chunk[j].im = coeff(negative, mag)
            });
        };
        let mut vals = engine.take_buf();
        let words_per_slot = 2 * lvl;
        self.engine
            .for_each_chunk(&mut vals, words_per_slot, LimbWork::Transform, lift_range);
        // Back to the pool before the embedding takes its planes from it.
        drop(res);
        engine.forward(&mut vals);
        Ok(vals)
    }

    // ------------------------------------------------------------------
    // Keys
    // ------------------------------------------------------------------

    /// The uniform mask `a` of a key or a seeded ciphertext, sampled
    /// directly in NTT domain (the distribution is invariant under the
    /// NTT): limb `i` is stream `i` of `seed`, under prime `i`. Written
    /// once because [`crate::symmetric::CompressedCiphertext::expand`]
    /// must regenerate the same mask bit for bit. Each limb owns its
    /// stream, so the limbs are drawn on the engine's fan-out.
    pub(crate) fn fill_mask(&self, seed: Seed, limbs: &mut [Vec<u64>]) {
        self.engine
            .for_each_limb(limbs, LimbWork::Elementwise, |i, plan, limb| {
                UniformSampler::new(seed, i as u64).sample_poly(plan.modulus(), limb)
            });
    }

    /// One RLWE sample `(−(a·s) + e, a)` under every prime — what a
    /// public key and each key-switching digit are: the mask `a` from
    /// `mask_seed`, Gaussian `e` from `error_seed`, and the product in
    /// ONE fused RNS-wide pass (limb fan-out across threads,
    /// IFMA/Montgomery dyadic kernels).
    fn rlwe_sample(
        &self,
        s_ntt: &[Vec<u64>],
        mask_seed: Seed,
        error_seed: Seed,
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let (n, k) = (self.params.n(), self.basis.len());
        let e = GaussianSampler::new(error_seed, 0, self.params.error_sigma()).sample_poly(n);
        let e_ntt = self.engine.expand_and_ntt_pooled(&e, k);
        let mut a = vec![vec![0u64; n]; k];
        self.fill_mask(mask_seed, &mut a);
        let mut b = a.clone();
        self.engine
            .for_each_limb(&mut b, LimbWork::Elementwise, |i, plan, limb| {
                plan.dyadic().mul_neg_add_assign(limb, &s_ntt[i], &e_ntt[i])
            });
        (b, a)
    }

    /// Generates a key pair deterministically from `seed`.
    pub fn keygen(&self, seed: Seed) -> (SecretKey, PublicKey) {
        let n = self.params.n();
        let mut ternary = TernarySampler::new(seed.derive(0), 0);
        let s = ternary.sample_poly(n, self.params.secret_hamming_weight());
        let s_ntt = self.engine.expand_and_ntt(&s);
        let mask_seed = seed.derive(1);
        let (pk0, pk1) = self.rlwe_sample(&s_ntt, mask_seed, seed.derive(2));
        (
            SecretKey {
                coeffs: s,
                ntt: s_ntt,
            },
            PublicKey {
                pk0,
                pk1,
                seed: mask_seed,
            },
        )
    }

    /// Generates the relinearization key (key-switching target `s²`)
    /// deterministically from `seed`. See [`crate::key`] for the
    /// RNS-gadget decomposition and its noise model.
    pub fn gen_eval_key(&self, sk: &SecretKey, seed: Seed) -> EvalKey {
        // s² limb-wise in NTT domain: the evaluation representation of
        // the polynomial s·s mod (X^N+1, q_i).
        let mut s2 = sk.ntt.clone();
        mul_limbs(&self.engine, &mut s2, &sk.ntt);
        EvalKey {
            ksk: self.gen_key_switch_key(&s2, sk, seed),
        }
    }

    /// Generates a Galois key for the automorphism `X → X^element`
    /// (key-switching target `σ_g(s)`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] unless `element` is odd and
    /// in `1..2N` (the Galois group of the 2N-th cyclotomic).
    pub fn gen_galois_key(
        &self,
        sk: &SecretKey,
        element: u64,
        seed: Seed,
    ) -> Result<GaloisKey, CkksError> {
        let n = self.params.n();
        let two_n = 2 * n as u64;
        if element.is_multiple_of(2) || element == 0 || element >= two_n {
            return Err(CkksError::InvalidParams(format!(
                "Galois element {element} not odd in 1..{two_n}"
            )));
        }
        // σ_g(s) in coefficient domain: coefficient j lands at
        // j·g mod 2N, negated when it wraps past N (X^N = −1).
        let mut permuted = vec![0i8; n];
        for (j, &c) in sk.coeffs.iter().enumerate() {
            let idx = (j * element as usize) & (2 * n - 1);
            if idx < n {
                permuted[idx] = c;
            } else {
                permuted[idx - n] = -c;
            }
        }
        let t_ntt = self.engine.expand_and_ntt(&permuted);
        Ok(GaloisKey {
            element,
            ksk: self.gen_key_switch_key(&t_ntt, sk, seed),
        })
    }

    /// Generates the Galois key for a slot rotation by `steps`
    /// ([`crate::evaluator::rotate`]).
    ///
    /// # Errors
    ///
    /// See [`Self::gen_galois_key`].
    pub fn gen_rotation_key(
        &self,
        sk: &SecretKey,
        steps: usize,
        seed: Seed,
    ) -> Result<GaloisKey, CkksError> {
        self.gen_galois_key(sk, self.galois_element_for_rotation(steps), seed)
    }

    /// Generates the Galois key for slot conjugation
    /// ([`crate::evaluator::conjugate`]): element `2N − 1 ≡ −1`.
    ///
    /// # Errors
    ///
    /// See [`Self::gen_galois_key`].
    pub fn gen_conjugation_key(&self, sk: &SecretKey, seed: Seed) -> Result<GaloisKey, CkksError> {
        self.gen_galois_key(sk, 2 * self.params.n() as u64 - 1, seed)
    }

    /// The Galois element `5^steps mod 2N` realizing a slot rotation by
    /// `steps` (slot `j` of the result holds slot `(j + steps) mod N/2`
    /// of the input): the canonical embedding indexes slots along the
    /// orbit of 5 in `(Z/2N)^×`, so stepping the automorphism walks the
    /// slots.
    pub fn galois_element_for_rotation(&self, steps: usize) -> u64 {
        let two_n = 2 * self.params.n() as u64;
        let steps = steps % self.params.slots();
        let mut g: u64 = 1;
        for _ in 0..steps {
            g = (g as u128 * 5 % two_n as u128) as u64;
        }
        g
    }

    /// The RNS-gadget key-switching key encrypting `target_ntt` under
    /// `sk`: digit `i` is `(−a_i·s + e_i + ẽ_i·t, a_i)` with the CRT
    /// idempotent `ẽ_i` applied as an RNS indicator (limb `i` alone
    /// picks up `t`). Samplers follow the keygen idiom: each digit's
    /// error from `seed.derive(2i+1)`, its mask per prime from
    /// `seed.derive(2i)`, uniform directly in NTT domain.
    fn gen_key_switch_key(
        &self,
        target_ntt: &[Vec<u64>],
        sk: &SecretKey,
        seed: Seed,
    ) -> KeySwitchKey {
        let digits = self.basis.len();
        let mut b_digits = Vec::with_capacity(digits);
        let mut a_digits = Vec::with_capacity(digits);
        for digit in 0..digits {
            // b = −(a·s) + e, then the gadget term on the digit's own
            // limb.
            let d = 2 * digit as u64;
            let (mut b, a) = self.rlwe_sample(&sk.ntt, seed.derive(d), seed.derive(d + 1));
            let m = &self.basis.moduli()[digit];
            for (dst, &t) in b[digit].iter_mut().zip(&target_ntt[digit]) {
                *dst = m.add(*dst, t);
            }
            b_digits.push(b);
            a_digits.push(a);
        }
        KeySwitchKey {
            b: b_digits,
            a: a_digits,
        }
    }

    // ------------------------------------------------------------------
    // Encrypt / decrypt
    // ------------------------------------------------------------------

    /// Public-key encryption: `ct = (pk0·v + e0 + m, pk1·v + e1)` with
    /// `v` ternary and `e0, e1` Gaussian, all derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext or key do not match this context's
    /// parameters (encode/keygen from the same context always match).
    pub fn encrypt(&self, pt: &Plaintext, pk: &PublicKey, seed: Seed) -> Ciphertext {
        assert_eq!(pt.n, self.params.n(), "plaintext from different context");
        assert_eq!(
            pk.num_primes(),
            self.basis.len(),
            "public key from different context"
        );
        let n = self.params.n();

        let v = TernarySampler::new(seed.derive(0), 0).sample_poly(n, None);
        let sigma = self.params.error_sigma();
        let e0 = GaussianSampler::new(seed.derive(1), 0, sigma).sample_poly(n);
        let e1 = GaussianSampler::new(seed.derive(2), 0, sigma).sample_poly(n);
        // c0 = pk0·v + e0 + m and c1 = pk1·v + e1 as ONE limb-streaming
        // engine pass over the plaintext's primes: per limb, v, e0 and e1
        // are expanded, transformed and combined with the key read
        // in place; c0 and c1 come out of the limb pool.
        let (c0, c1) = self
            .engine
            .pk_encrypt_all(&v, &e0, &e1, &pk.pk0, &pk.pk1, &pt.rns);
        Ciphertext {
            c0,
            c1,
            scale: pt.scale.clone(),
            n,
        }
    }

    /// Decryption: `d = c0 + c1·s` per prime, returned still in NTT
    /// domain (decode performs the INTT, matching the paper's pipeline).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] if the ciphertext carries
    /// more primes than the context.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Result<Plaintext, CkksError> {
        if ct.n != self.params.n() || ct.num_primes() > self.basis.len() {
            return Err(CkksError::ContextMismatch);
        }
        // d = c1·s + c0: one fused RNS-wide multiply-add into pooled
        // limbs, each filled with its limb of c1 by the thread that owns
        // it.
        let mut rns = self.engine.take_limbs(ct.num_primes());
        self.engine
            .for_each_limb(&mut rns, LimbWork::Elementwise, |i, plan, limb| {
                limb.copy_from_slice(&ct.c1[i]);
                plan.dyadic().mul_add_assign(limb, &sk.ntt[i], &ct.c0[i]);
            });
        Ok(Plaintext {
            rns,
            scale: ct.scale.clone(),
            n: ct.n,
        })
    }
}

/// `a[i] += b[i]` under prime `i`, for every limb of `a`.
pub(crate) fn add_limbs(engine: &RnsNttEngine, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
    engine.for_each_limb(a, LimbWork::Elementwise, |i, plan, limb| {
        plan.dyadic().add_assign(limb, &b[i])
    });
}

/// `a[i] ⊙= b[i]` under prime `i`, for every limb of `a`.
pub(crate) fn mul_limbs(engine: &RnsNttEngine, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
    engine.for_each_limb(a, LimbWork::Elementwise, |i, plan, limb| {
        plan.dyadic().mul_assign(limb, &b[i])
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_context() -> CkksContext {
        let params = CkksParams::builder()
            .log_n(9)
            .num_primes(4)
            .secret_hamming_weight(Some(64))
            .build()
            .unwrap();
        CkksContext::new(params).unwrap()
    }

    fn test_message(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos() * 0.5))
            .collect()
    }

    fn max_dist(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ctx = small_context();
        let msg = test_message(ctx.params().slots());
        let pt = ctx.encode(&msg).unwrap();
        assert_eq!(pt.num_primes(), 4);
        let back = ctx.decode(&pt).unwrap();
        // Only Δ-quantization error: ~2^-36 · N-ish.
        assert!(
            max_dist(&back, &msg) < 1e-7,
            "err = {}",
            max_dist(&back, &msg)
        );
    }

    #[test]
    fn encode_partial_message_pads() {
        let ctx = small_context();
        let msg = test_message(5);
        let pt = ctx.encode(&msg).unwrap();
        let back = ctx.decode(&pt).unwrap();
        assert_eq!(back.len(), ctx.params().slots());
        assert!(max_dist(&back[..5], &msg) < 1e-7);
        for v in &back[5..] {
            assert!(v.norm_sqr() < 1e-14);
        }
    }

    #[test]
    fn encode_rejects_oversize() {
        let ctx = small_context();
        let msg = test_message(ctx.params().slots() + 1);
        assert!(matches!(
            ctx.encode(&msg),
            Err(CkksError::TooManySlots { .. })
        ));
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let ctx = small_context();
        let (sk, pk) = ctx.keygen(Seed::from_u128(42));
        let msg = test_message(ctx.params().slots());
        let pt = ctx.encode(&msg).unwrap();
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(1000));
        let back = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
        let err = max_dist(&back, &msg);
        // Encryption noise: e0 + e1·s + ... over Δ = 2^36.
        assert!(err < 1e-4, "err = {err}");
        assert!(err > 0.0, "encryption must add noise");
    }

    #[test]
    fn decrypt_truncated_ciphertext() {
        // The paper's decode workload: server returns a low-level ct.
        let ctx = small_context();
        let (sk, pk) = ctx.keygen(Seed::from_u128(43));
        let msg = test_message(ctx.params().slots());
        let pt = ctx.encode(&msg).unwrap();
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(2000)).truncated(2);
        assert_eq!(ct.level(), 1);
        let back = ctx.decode(&ctx.decrypt(&ct, &sk).unwrap()).unwrap();
        assert!(max_dist(&back, &msg) < 1e-4);
    }

    #[test]
    fn encryption_is_deterministic_in_seed() {
        let ctx = small_context();
        let (_, pk) = ctx.keygen(Seed::from_u128(44));
        let pt = ctx.encode(&test_message(8)).unwrap();
        let a = ctx.encrypt(&pt, &pk, Seed::from_u128(5));
        let b = ctx.encrypt(&pt, &pk, Seed::from_u128(5));
        let c = ctx.encrypt(&pt, &pk, Seed::from_u128(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let ctx = small_context();
        let (_, pk) = ctx.keygen(Seed::from_u128(45));
        let (sk2, _) = ctx.keygen(Seed::from_u128(46));
        let msg = test_message(ctx.params().slots());
        let pt = ctx.encode(&msg).unwrap();
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(7));
        let garbage = ctx.decode(&ctx.decrypt(&ct, &sk2).unwrap()).unwrap();
        assert!(max_dist(&garbage, &msg) > 1.0);
    }

    #[test]
    fn secret_key_respects_hamming_weight() {
        let ctx = small_context();
        let (sk, _) = ctx.keygen(Seed::from_u128(47));
        assert_eq!(sk.hamming_weight(), 64);
        assert_eq!(sk.n(), 512);
    }

    #[test]
    fn public_key_size_accounting() {
        let ctx = small_context();
        let (_, pk) = ctx.keygen(Seed::from_u128(48));
        assert_eq!(pk.byte_size(), 2 * 4 * 512 * 8);
        assert_eq!(pk.num_primes(), 4);
    }

    #[test]
    fn wire_widths_are_the_params_residue_widths() {
        // At 60-bit primes q₀'s three headroom bits hit the 61-bit cap.
        for (prime_bits, head_bits) in [(36, 39), (60, 61)] {
            let params = CkksParams::builder()
                .log_n(6)
                .num_primes(4)
                .prime_bits(prime_bits)
                .secret_hamming_weight(Some(8))
                .build()
                .unwrap();
            assert_eq!(params.head_prime_bits(), head_bits);
            let ctx = CkksContext::new(params).unwrap();
            for k in 1..=4 {
                assert_eq!(
                    ctx.wire_widths(k),
                    ctx.params().residue_widths(k),
                    "prime_bits {prime_bits}, {k} primes"
                );
            }
        }
    }

    /// FNV-1a over the bits of decoded slots, real part first.
    fn slot_bits_hash(slots: &[Complex]) -> u64 {
        let bytes = slots
            .iter()
            .flat_map(|z| [z.re, z.im])
            .flat_map(|x| x.to_bits().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn decode_equals_the_parents() {
        // Slot bits of four decodes, captured before the CRT lift ran on
        // the fan-out by slot range: chunk boundaries move with the
        // thread count (run the suite under ABC_FHE_THREADS=1..4), the
        // bits must not. The message is rational, so no libm call
        // shapes it.
        let message: Vec<Complex> = (0..1usize << 12)
            .map(|j| {
                let re = (j * 37 % 101) as f64 - 50.0;
                let im = (j * 53 % 97) as f64 - 48.0;
                Complex::new(re / 64.0, im / 64.0)
            })
            .collect();
        let hash = |ctx: &CkksContext, pt: &Plaintext| slot_bits_hash(&ctx.decode(pt).unwrap());
        // A fresh 24-prime ciphertext at the paper's preset, and the same
        // ciphertext as a server returns it at the last level.
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).unwrap()).unwrap();
        let (sk, pk) = ctx.keygen(Seed::from_u128(2801));
        let ct = ctx.encrypt(&ctx.encode(&message).unwrap(), &pk, Seed::from_u128(2802));
        let fresh = ctx.decrypt(&ct, &sk).unwrap();
        let last = ctx.decrypt(&ct.truncated(2), &sk).unwrap();
        // A product before its rescale: scale 2^144 puts every coefficient
        // past the 3-prime word prefix, so the big-integer fallback runs
        // inside every chunk.
        let params = CkksParams::builder()
            .log_n(13)
            .num_primes(6)
            .scale_mode(crate::params::ScaleMode::DoublePair)
            .build()
            .unwrap();
        let small = CkksContext::new(params.clone()).unwrap();
        let (sk, pk) = small.keygen(Seed::from_u128(2803));
        let evk = small.gen_eval_key(&sk, Seed::from_u128(2804));
        let ct = small.encrypt(&small.encode(&message).unwrap(), &pk, Seed::from_u128(2805));
        let squared = crate::evaluator::mul_relin(&small, &ct, &ct, &evk).unwrap();
        let product = small.decrypt(&squared, &sk).unwrap();
        let mut coeffs = product.residues().to_vec();
        small.ntt_engine().inverse_all(&mut coeffs);
        let lift = WordLift::new(small.basis().clone());
        assert_eq!(lift.lift_centered(&coeffs, |_, _, _| {}), 1 << 13);
        // The same product through the double-double embedding.
        let ext = CkksContext::new(params.with_embedding(EmbeddingPrecision::ExtF64)).unwrap();
        // Captured at the parent with 1, 2 and 3 threads. The first two
        // agree: truncation keeps the decrypted integer, and the 24-limb
        // verified lift and the 2-limb Garner lift both find it.
        let parents = [
            0x778b_d49c_aa0e_9117,
            0x778b_d49c_aa0e_9117,
            0xf7c4_b6de_458c_48b7,
            0x43a8_427f_2dfc_a9ab,
        ];
        let got = [
            hash(&ctx, &fresh),
            hash(&ctx, &last),
            hash(&small, &product),
            hash(&ext, &product),
        ];
        assert_eq!(got, parents);
    }

    #[test]
    fn decode_rejects_foreign_plaintext() {
        let ctx = small_context();
        let other = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(2)
                .secret_hamming_weight(None)
                .build()
                .unwrap(),
        )
        .unwrap();
        let pt = other.encode(&test_message(4)).unwrap();
        assert!(matches!(ctx.decode(&pt), Err(CkksError::ContextMismatch)));
    }
}
