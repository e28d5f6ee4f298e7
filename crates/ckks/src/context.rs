//! The CKKS client context: encode, encrypt, decrypt, decode.

use crate::cipher::{Ciphertext, Plaintext};
use crate::evaluator::automorphism;
use crate::key::{EvalKey, GaloisKey, KeySwitchKey, PublicKey, SecretKey};
use crate::params::CkksParams;
use crate::scale::ExactScale;
use crate::symmetric::{rlwe_sample, with_upload_sample};
use crate::CkksError;
use abc_float::{Complex, ExtF64, F64Field, RealField};
use abc_math::dyadic::{Head, Tail};
use abc_math::rns::{SignedCoeffs, SignedWord, WordLift, LIFT_BLOCK};
use abc_math::RnsBasis;
use abc_prng::sampler::{GaussianSampler, TernarySampler};
use abc_prng::Seed;
use abc_transform::{
    fanout, LimbWork, NttPlan, PooledLimbs, RnsNttEngine, SpecialFft, SpecialFftEngine,
};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The context's canonical-embedding engine: the FP64 datapath's
/// planned twiddle table, built once per context. Encode's inverse FFT
/// runs on the calling thread, decode's forward one on the engine's
/// fan-out from `N = 2^14` on. Other datapaths (double-double `ExtF64`,
/// the paper's FP55) are not a context option: [`crate::precision`]
/// measures them on a plan it builds per call. One variant, kept an
/// enum only because the reference benchmark matches on
/// `EmbeddingEngine::F64`.
#[derive(Debug)]
pub enum EmbeddingEngine {
    /// IEEE binary64.
    F64(SpecialFftEngine<F64Field>),
}

/// A ready-to-use CKKS client: owns the RNS basis, a batched
/// [`RnsNttEngine`] (one Harvey-butterfly NTT plan per prime, limb
/// fan-out across threads), and the planned FP64 canonical-embedding
/// twiddle table ([`EmbeddingEngine`]).
///
/// The four public operations mirror the paper's Fig. 2a:
/// [`encode`](Self::encode) (IFFT → Δ-rounding to integer coefficients),
/// [`encrypt`](Self::encrypt) (PRNG mask/error, `m + e0` → expand RNS →
/// NTT, public-key combination),
/// [`decrypt`](Self::decrypt) (`c0 + c1·s` → INTT, in one pass),
/// [`decode`](Self::decode) (combine CRT → FFT).
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
    /// Shared with every plaintext this context encodes, which makes its
    /// residues on it.
    engine: Arc<RnsNttEngine>,
    embedding: EmbeddingEngine,
    /// Decode's CRT lift of every level: `lifts[k - 1]` over the first
    /// `k` primes.
    lifts: Vec<WordLift>,
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
        let engine = Arc::new(RnsNttEngine::new(basis.moduli(), n)?);
        let embedding = EmbeddingEngine::F64(SpecialFftEngine::new(F64Field, params.slots()));
        let lifts = (1..=basis.len())
            .map(|k| WordLift::new(basis.truncated(k)))
            .collect();
        Ok(Self {
            params,
            basis,
            engine,
            embedding,
            lifts,
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

    /// The canonical-embedding engine (planned FP64 twiddles).
    pub fn embedding(&self) -> &EmbeddingEngine {
        &self.embedding
    }

    /// The embedding FFT plan every encode and decode runs.
    fn fft(&self) -> &SpecialFft<F64Field> {
        let EmbeddingEngine::F64(engine) = &self.embedding;
        engine.plan()
    }

    /// Decode's CRT lift over the first `primes` primes, built once with
    /// the context.
    ///
    /// # Panics
    ///
    /// Panics if `primes` is zero or exceeds the basis size.
    pub fn word_lift(&self, primes: usize) -> &WordLift {
        &self.lifts[primes - 1]
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
        let fft_plans = self.fft().resident_bytes();
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
    /// width (it has no basis to hold it against). [`Self::decrypt`]
    /// makes this check itself, on the words its transform loads; every
    /// other kernel takes canonical operands on trust — a word at or
    /// above its prime is a `debug_assert!` panic there in debug builds
    /// and a wrong answer in release — so whoever computes on an
    /// unpacked component otherwise (a seeded upload's `c0`, the
    /// evaluator's operands) calls this first. One compare per word.
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

    /// Encodes a slot vector through the planned FP64 embedding.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::TooManySlots`] if `message` exceeds `N/2`
    /// entries.
    pub fn encode(&self, message: &[Complex]) -> Result<Plaintext, CkksError> {
        let scale = ExactScale::from_log2(self.params.effective_scale_bits());
        self.encode_core(self.fft(), message, scale)
    }

    /// Encodes at an exact rational scale — needed when matching the
    /// scale of an evaluated ciphertext (e.g. adding a bias after a
    /// rescale, at its [`Ciphertext::exact_scale`]). The Δ-rounding is
    /// *exact* for any scale and any datapath:
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
    /// Both kinds keep their `i128` coefficients in the plaintext, as
    /// [`Self::encode`] does: the same RNS expansion and forward NTT make
    /// its residues when they are read.
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
        self.encode_core(self.fft(), message, scale.clone())
    }

    /// The generic encode kernel: inverse embedding on `fft`'s datapath
    /// and exact Δ-rounding ([`Self::quantize`]) for either kind of
    /// scale. The plaintext keeps the integer coefficients: no limb is
    /// taken and nothing is transformed here. [`Self::encrypt`] folds its
    /// error into them first; whoever reads [`Plaintext::residues`] makes
    /// the limbs then (one RNS expansion + forward NTT per prime).
    pub(crate) fn encode_core<F: RealField>(
        &self,
        fft: &SpecialFft<F>,
        message: &[Complex],
        scale: ExactScale,
    ) -> Result<Plaintext, CkksError> {
        let ints = self.quantize(fft, message, &scale)?;
        Ok(Plaintext::from_coefficients(ints, &self.engine, scale))
    }

    /// The message's `N` integer coefficients at `scale`: the slot
    /// vector, zero-padded, through the inverse embedding on `fft`'s
    /// datapath, then one pass over the coefficients, each lifted,
    /// range-checked and rounded to an `i128` as it is read. Coefficient
    /// `j` is the real part of slot `j`, coefficient `j + N/2` its
    /// imaginary part. What an encoded plaintext keeps, and what both
    /// public-key uploads add `e0` to.
    fn quantize<F: RealField>(
        &self,
        fft: &SpecialFft<F>,
        message: &[Complex],
        scale: &ExactScale,
    ) -> Result<Vec<i128>, CkksError> {
        let slots = self.params.slots();
        if message.len() > slots {
            return Err(CkksError::TooManySlots {
                got: message.len(),
                max: slots,
            });
        }
        let field = fft.field();
        let mut vals = vec![Complex::default(); slots];
        for (dst, &m) in vals.iter_mut().zip(message) {
            *dst = m.lift_in(field);
        }
        fft.inverse(&mut vals);
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
        let mut ints = Vec::with_capacity(2 * slots);
        if let Some(exp) = scale.as_pow2() {
            // Exact: a power-of-two scale only shifts both exponents;
            // one rounding through `i128`.
            for c in coeffs {
                ints.push(lift(c)?.ldexp(exp).round_to_i128());
            }
        } else {
            // Rational scale: exact big-integer rounding. `lift` bounds
            // |x·Δ| below 2^120, so every rounded magnitude fits an `i128`.
            let rounder = scale.rounder();
            for c in coeffs {
                let (negative, mag) = rounder.round_ext(lift(c)?);
                let mag = mag.to_u128().expect("|x·Δ| < 2^121") as i128;
                ints.push(if negative { -mag } else { mag });
            }
        }
        Ok(ints)
    }

    /// Decodes a plaintext back to slot values through the planned FP64
    /// embedding.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] if the plaintext belongs to
    /// different parameters.
    pub fn decode(&self, pt: &Plaintext) -> Result<Vec<Complex>, CkksError> {
        // The f64 datapath's slot vector is the result itself.
        self.decode_to_slots(self.fft(), pt)
    }

    /// The generic decode kernel: exact CRT lift (of the INTT decrypt
    /// ran, or of one here for any other plaintext), double-double scale
    /// division, forward embedding on `fft`'s datapath, then each slot
    /// rounded to `f64`.
    pub(crate) fn decode_core<F: RealField>(
        &self,
        fft: &SpecialFft<F>,
        pt: &Plaintext,
    ) -> Result<Vec<Complex>, CkksError> {
        let vals = self.decode_to_slots(fft, pt)?;
        let field = fft.field();
        Ok(vals.iter().map(|v| v.to_f64_in(field)).collect())
    }

    /// Decode on `fft`'s datapath, as one streaming pass and then the
    /// forward embedding: per block of coefficients the exact centered
    /// CRT lift of the level (word-sized and verified against every
    /// residue; big-integer only where that check fails, see
    /// [`WordLift`]) and the division by the exact rational scale in
    /// double-double precision
    /// ([`crate::scale::ScaleDivisor::apply_block`], on the lift's
    /// rung), written straight into a fresh slot vector (coefficient `j`
    /// is the real part of slot `j`, coefficient `j + N/2` its imaginary
    /// part). The quotient enters the embedding at the datapath's full
    /// width: ExtF64 keeps all ~106 bits, the f64 view is one final
    /// rounding.
    ///
    /// The lift reads a decrypted plaintext's coefficient-domain limbs as
    /// they are: [`Self::decrypt`] ran the INTT. Any other plaintext's
    /// NTT-domain residues (an encoded one makes them first, on the
    /// calling thread: [`Plaintext::residues`]) go through an
    /// out-of-place INTT into pooled limbs first.
    ///
    /// The lift runs on the engine's fan-out by slot range: the thread
    /// owning slots `a..b` lifts coefficients `a..b` into their real
    /// parts and `N/2 + a..N/2 + b` into their imaginary parts, through
    /// per-limb views of those ranges. A coefficient is a function of its
    /// own residues alone, so the slots do not depend on where the
    /// ranges are cut. The pass reads `lvl × N` words and is weighed as
    /// element-wise work: on the vector rung a lifted word costs less
    /// than a dyadic one, so a 2-limb `N = 2^13` decode (`2^14` words)
    /// stays on the calling thread.
    ///
    /// The embedding runs split on the fan-out too
    /// ([`SpecialFft::forward_split`]), weighed as a transform of its
    /// `N` words: from `N = 2^14` on, at the engine's thread count.
    fn decode_to_slots<F: RealField>(
        &self,
        fft: &SpecialFft<F>,
        pt: &Plaintext,
    ) -> Result<Vec<Complex<F::Real>>, CkksError> {
        if pt.n() != self.params.n() || pt.num_primes() > self.basis.len() {
            return Err(CkksError::ContextMismatch);
        }
        // Paper: INTT stage of decoding — done by decrypt, whose
        // plaintext holds coefficient-domain limbs; any other plaintext's
        // residues go through the inverse here, all limbs batched through
        // the engine's thread fan-out.
        let mut transformed = None;
        let res: &[Vec<u64>] = match pt.coefficient_limbs() {
            Some(limbs) => limbs,
            None => {
                let rns = pt.residues();
                let mut limbs = self.engine.take_limbs(rns.len());
                self.engine
                    .for_each_limb(&mut limbs, LimbWork::Transform, |i, plan, limb| {
                        plan.inverse_from(&rns[i], limb)
                    });
                transformed.insert(limbs)
            }
        };
        let lvl = res.len();
        let lift = self.word_lift(lvl);
        let divisor = pt.exact_scale().divisor();
        let field = fft.field();
        let slots = self.params.slots();
        // Lifts `views` into the real (or imaginary) parts of `chunk`.
        let lift_part = |views: &[&[u64]], chunk: &mut [Complex<F::Real>], imag: bool| {
            let mut quotients = [ExtF64::zero(); LIFT_BLOCK];
            lift.lift_blocks(views, |block| {
                let words = block.words();
                let quotients = &mut quotients[..words.len()];
                divisor.apply_block(lift.tier(), words, quotients);
                for i in block.fell_back() {
                    let (negative, mag) = block.big(i);
                    quotients[i] = divisor.apply_ext(negative, &mag);
                }
                for (c, &v) in chunk[block.start()..].iter_mut().zip(quotients.iter()) {
                    let v = field.from_ext(v);
                    if imag {
                        c.im = v;
                    } else {
                        c.re = v;
                    }
                }
            });
        };
        // One view vector per chunk, re-pointed for the imaginary half.
        let lift_range = |a: usize, chunk: &mut [Complex<F::Real>]| {
            let b = a + chunk.len();
            let mut views: Vec<&[u64]> = res.iter().map(|limb| &limb[a..b]).collect();
            lift_part(&views, chunk, false);
            for (view, limb) in views.iter_mut().zip(res.iter()) {
                *view = &limb[slots + a..slots + b];
            }
            lift_part(&views, chunk, true);
        };
        let mut vals = vec![Complex::default(); slots];
        let words_per_slot = 2 * lvl;
        fanout::for_each_chunk(
            self.engine.threads(),
            &mut vals,
            words_per_slot,
            LimbWork::Elementwise,
            lift_range,
        );
        // Back to the pool before the embedding takes its planes from it.
        drop(transformed);
        let threads = LimbWork::Transform.threads_for(self.engine.threads(), 2 * slots);
        fft.forward_split(&mut vals, threads);
        Ok(vals)
    }

    // ------------------------------------------------------------------
    // Keys
    // ------------------------------------------------------------------

    /// One RLWE sample `(b, a) = (e (+ t) − a·s, a)` under every prime —
    /// what a public key and each key-switching digit are — in fresh
    /// limbs: keys live as long as their context, outside the pool.
    fn rlwe_key<'t>(
        &self,
        s_ntt: &[Vec<u64>],
        mask_seed: Seed,
        error_seed: Seed,
        t: impl Fn(usize) -> Option<&'t [u64]> + Sync,
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let (n, k) = (self.params.n(), self.basis.len());
        let (mut b, mut a) = (vec![vec![0u64; n]; k], vec![vec![0u64; n]; k]);
        rlwe_sample(self, s_ntt, mask_seed, error_seed, t, &mut b, Some(&mut a));
        (b, a)
    }

    /// Generates a key pair deterministically from `seed`.
    pub fn keygen(&self, seed: Seed) -> (SecretKey, PublicKey) {
        let n = self.params.n();
        let mut ternary = TernarySampler::new(seed.derive(0), 0);
        let s = ternary.sample_poly(n, self.params.secret_hamming_weight());
        let s_ntt = self.engine.expand_and_ntt(&s);
        let mask_seed = seed.derive(1);
        let (pk0, pk1) = self.rlwe_key(&s_ntt, mask_seed, seed.derive(2), |_| None);
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
        let mut permuted = vec![0i8; n];
        automorphism(&sk.coeffs, element as usize, &mut permuted, |c| -c);
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
    pub(crate) fn galois_element_for_rotation(&self, steps: usize) -> u64 {
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
        let (b, a) = (0..self.basis.len())
            .map(|digit| {
                let d = 2 * digit as u64;
                let t = |i: usize| (i == digit).then(|| &target_ntt[digit][..]);
                self.rlwe_key(&sk.ntt, seed.derive(d), seed.derive(d + 1), t)
            })
            .unzip();
        KeySwitchKey { b, a }
    }

    // ------------------------------------------------------------------
    // Encrypt / decrypt
    // ------------------------------------------------------------------

    /// Public-key encryption: `ct = (pk0·v + e0 + m, pk1·v + e1)` with
    /// `v` ternary and `e0, e1` Gaussian, all derived from `seed`, in one
    /// pair pass over the plaintext's primes of three streamed forward
    /// transforms a limb (`PkSample::limb`).
    ///
    /// An encoded plaintext's coefficients take `e0` before anything is
    /// transformed: by linearity of the NTT, `NTT(m + e0) = m̂ + ê0` under
    /// every prime, so `m + e0` is expanded and transformed as one
    /// polynomial and the plaintext never is. A plaintext from
    /// [`Self::decrypt`], or one whose residues were already made, is
    /// added in the NTT domain inside `c0`'s multiply–accumulate. Both
    /// give the same ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext or key do not match this context's
    /// parameters (encode/keygen from the same context always match).
    pub fn encrypt(&self, pt: &Plaintext, pk: &PublicKey, seed: Seed) -> Ciphertext {
        assert_eq!(pt.n(), self.params.n(), "plaintext from different context");
        self.check_public_key(pk);
        let k = pt.num_primes();
        let (c0, c1) = match pt.coefficients() {
            Some(m) => self.with_pk_sample(pk, seed, Cow::Borrowed(m), |sample| {
                self.pk_limbs(sample, k)
            }),
            None => {
                let (v, [e0, e1]) = self.draw_pk_samples(seed);
                let (v, e0, e1) = (
                    SignedCoeffs::scan(&v),
                    SignedCoeffs::scan(&e0),
                    SignedCoeffs::scan(&e1),
                );
                let m = Some(pt.residues());
                let sample = PkSample {
                    v: &v,
                    e0: &e0,
                    e1: &e1,
                    pk,
                    m,
                };
                self.pk_limbs(&sample, k)
            }
        };
        Ciphertext {
            c0,
            c1,
            scale: pt.exact_scale().clone(),
            n: self.params.n(),
        }
    }

    /// `c0` and `c1` of `sample` under the first `k` primes: one pair
    /// pass, each limb by [`PkSample::limb`] with the thread's scratch
    /// limb as `v̂`.
    fn pk_limbs<X: SignedWord>(
        &self,
        sample: &PkSample<'_, X>,
        k: usize,
    ) -> (PooledLimbs, PooledLimbs) {
        let engine = &self.engine;
        let (mut c0, mut c1) = (engine.take_limbs(k), engine.take_limbs(k));
        engine.for_each_limb_pair(
            &mut c0,
            &mut c1,
            LimbWork::Transform,
            |i, plan, x0, x1, v_hat| sample.limb(i, plan, v_hat, x0, x1),
        );
        (c0, c1)
    }

    /// Encodes `message` and encrypts it under `pk` as [`Self::encode`] →
    /// [`Self::encrypt`] → [`crate::wire::serialize_ciphertext_packed`]
    /// do, byte for byte, and appends the blob to `out` — in one pass per
    /// limb, with no plaintext or ciphertext limb parked between them.
    ///
    /// The message is quantized once and takes the error `e0` in place,
    /// as an encoded plaintext's coefficients do in [`Self::encrypt`]
    /// (three forward transforms a limb). Each limb then runs the body
    /// [`Self::encrypt`] runs — `v̂`, `pk0·v̂ + NTT(m + e0)`,
    /// `pk1·v̂ + ê1` — into three scratch limbs of the thread that owns
    /// it, which packs `c0` and `c1` straight into that limb's byte ranges
    /// of the blob ([`crate::wire::Layout`]'s one writer).
    ///
    /// # Errors
    ///
    /// As [`Self::encode`]: [`CkksError::TooManySlots`] for an oversize
    /// message, [`CkksError::InvalidParams`] for a coefficient too large
    /// to encode (non-finite included). `out` is then left as it was.
    ///
    /// # Panics
    ///
    /// Panics if the key does not match this context's parameters.
    pub fn encode_encrypt_into(
        &self,
        message: &[Complex],
        pk: &PublicKey,
        seed: Seed,
        out: &mut Vec<u8>,
    ) -> Result<(), CkksError> {
        self.check_public_key(pk);
        let scale = ExactScale::from_log2(self.params.effective_scale_bits());
        let m = self.quantize(self.fft(), message, &scale)?;
        self.with_pk_sample(pk, seed, Cow::Owned(m), |sample| {
            self.upload_into(out, &scale, None, |ranges| {
                let (r0, r1) = ranges.split_at_mut(ranges.len() / 2);
                let mut limbs: Vec<_> = r0.iter_mut().zip(r1).collect();
                self.for_each_limb_chunk(&mut limbs, 2, |first, chunk| {
                    let mut scratch = self.engine.take_limbs(3);
                    let [v_hat, x0, x1] = &mut scratch[..] else {
                        unreachable!("three scratch limbs")
                    };
                    for (i, (r0, r1)) in (first..).zip(chunk) {
                        sample.limb(i, self.engine.plan(i), v_hat, x0, x1);
                        r0.pack(x0);
                        r1.pack(x1);
                    }
                });
            })
        })
    }

    /// The seeded twin of [`Self::encode_encrypt_into`]: encodes
    /// `message`, encrypts it under `sk` and appends the seed-compressed
    /// blob (kind 2) to `out`, as [`Self::encode`] →
    /// [`crate::symmetric::encrypt_symmetric_compressed`] →
    /// [`crate::wire::serialize_compressed_ciphertext`] do, byte for byte.
    /// The message is quantized once and takes the error `e` in place, as
    /// an encoded plaintext's coefficients do in that encrypt (one forward
    /// transform a limb): the thread that owns a limb draws the mask and
    /// runs the RLWE body every secret-key sample runs
    /// (`symmetric::RlweSample::limb`, `c0 = NTT(m + e) − a·s`)
    /// into two scratch limbs, and packs `c0` into the limb's byte range.
    ///
    /// # Errors
    ///
    /// As [`Self::encode_encrypt_into`]; `out` is then left as it was.
    pub fn encode_encrypt_compressed_into(
        &self,
        message: &[Complex],
        sk: &SecretKey,
        seed: Seed,
        out: &mut Vec<u8>,
    ) -> Result<(), CkksError> {
        let scale = ExactScale::from_log2(self.params.effective_scale_bits());
        let m = self.quantize(self.fft(), message, &scale)?;
        with_upload_sample(self, sk, seed, Cow::Owned(m), |sample| {
            self.upload_into(out, &scale, Some(sample.mask_seed), |ranges| {
                self.for_each_limb_chunk(ranges, 1, |first, chunk| {
                    let mut scratch = self.engine.take_limbs(2);
                    let [b, e_hat] = &mut scratch[..] else {
                        unreachable!("two scratch limbs")
                    };
                    for (i, range) in (first..).zip(chunk) {
                        sample.limb(i, self.engine.plan(i), None, b, None, e_hat);
                        range.pack(b);
                    }
                });
            })
        })
    }

    /// Panics unless `pk` holds a limb per prime of this context.
    fn check_public_key(&self, pk: &PublicKey) {
        assert_eq!(
            pk.num_primes(),
            self.basis.len(),
            "public key from different context"
        );
    }

    /// Public-key encryption's samples of `seed`: the ternary `v` and
    /// the Gaussian `e0`, `e1`. They come from three independent
    /// streams, so one fan-out over three jobs draws them side by side.
    fn draw_pk_samples(&self, seed: Seed) -> (Vec<i8>, [Vec<i64>; 2]) {
        let (n, sigma) = (self.params.n(), self.params.error_sigma());
        let (v, e) = (OnceLock::new(), [OnceLock::new(), OnceLock::new()]);
        fanout::run(self.engine.threads(), 3, &|j| match j {
            0 => {
                v.get_or_init(|| TernarySampler::new(seed.derive(0), 0).sample_poly(n, None));
            }
            _ => {
                let draw = || GaussianSampler::new(seed.derive(j as u64), 0, sigma).sample_poly(n);
                e[j - 1].get_or_init(draw);
            }
        });
        let drawn = "every job ran";
        let v = v.into_inner().expect(drawn);
        (v, e.map(|e| e.into_inner().expect(drawn)))
    }

    /// `f` on the public-key sample of `seed` under `pk` with `e0` folded
    /// into the message's coefficients `m` ([`fold_error`]): `c0`'s
    /// source is `m + e0`, added in no other form (`m: None`). The
    /// samples are [`Self::draw_pk_samples`]'s. Both public-key uploads
    /// run it: [`Self::encrypt`] lends an encoded plaintext's
    /// coefficients, [`Self::encode_encrypt_into`] hands over its own.
    fn with_pk_sample<R>(
        &self,
        pk: &PublicKey,
        seed: Seed,
        m: Cow<'_, [i128]>,
        f: impl FnOnce(&PkSample<'_, i128>) -> R,
    ) -> R {
        let (v, [e0, e1]) = self.draw_pk_samples(seed);
        let m_e0 = fold_error(m, e0);
        let (v, m_e0, e1) = (
            SignedCoeffs::scan(&v),
            SignedCoeffs::scan(&m_e0),
            SignedCoeffs::scan(&e1),
        );
        f(&PkSample {
            v: &v,
            e0: &m_e0,
            e1: &e1,
            pk,
            m: None,
        })
    }

    /// Appends a fresh ciphertext blob at `scale` to `out` — a seeded one
    /// (kind 2) given the mask seed — whose polynomials `fill` packs
    /// ([`crate::wire::Layout::append`]). Both fused uploads end here.
    fn upload_into(
        &self,
        out: &mut Vec<u8>,
        scale: &ExactScale,
        mask_seed: Option<Seed>,
        fill: impl FnOnce(&mut [crate::wire::PolyOut<'_>]),
    ) -> Result<(), CkksError> {
        let widths = self.wire_widths(self.basis.len());
        let layout = crate::wire::Layout::ciphertext(self.params.n(), scale, mask_seed, &widths);
        layout.append(out, fill)
    }

    /// `f(first, chunk)` over `items`, one per limb of a fused upload
    /// writing `components` polynomials a limb, cut as the engine's pair
    /// and single passes cut theirs: at its thread count, weighed as
    /// transform work of `components × N` words a limb.
    fn for_each_limb_chunk<T: Send>(
        &self,
        items: &mut [T],
        components: usize,
        f: impl Fn(usize, &mut [T]) + Sync,
    ) {
        let (threads, words) = (self.engine.threads(), components * self.params.n());
        fanout::for_each_chunk(threads, items, words, LimbWork::Transform, f);
    }

    /// Decryption: `d = INTT(c1·s + c0)` per prime — the paper's
    /// download as one stream (Fig. 2a: `c0 + c1·s`, then the INTT that
    /// starts decode), one pass of the engine's fan-out. Each limb is one
    /// inverse transform ([`NttPlan::inverse_stream`]) whose first pass
    /// loads `c1`, `s` and `c0` and computes `c1·s + c0` in registers, so
    /// the NTT-domain product is never written; the thread that owns a
    /// limb writes its coefficients straight into the plaintext's pooled
    /// limb. The plaintext holds those canonical coefficient-domain
    /// limbs: [`Self::decode`] lifts them as they are, and
    /// [`Plaintext::residues`] (what [`Self::encrypt`] of it adds in the
    /// NTT domain) transforms them forward on first use, bit for bit the
    /// NTT-domain `c1·s + c0`.
    ///
    /// A ciphertext from outside the program is checked on the way: the
    /// wire format bounds a residue by its width, not by its prime, and
    /// the same loads refuse a word of `c0` or `c1` at or above its
    /// prime, in every build.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ContextMismatch`] if the ciphertext carries
    /// more primes than the context, and [`CkksError::InvalidParams`]
    /// naming the first limb that holds a residue at or above its prime.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Result<Plaintext, CkksError> {
        if ct.n != self.params.n() || ct.num_primes() > self.basis.len() {
            return Err(CkksError::ContextMismatch);
        }
        let mut limbs = self.engine.take_limbs(ct.num_primes());
        let refused = AtomicUsize::new(usize::MAX);
        self.engine
            .for_each_limb(&mut limbs, LimbWork::Transform, |i, plan, limb| {
                let (c1, s, c0) = (&ct.c1[i][..], &sk.ntt[i][..], &ct.c0[i][..]);
                if !plan.inverse_stream(Head::MulAdd { c1, s, c0 }, limb) {
                    refused.fetch_min(i, Ordering::Relaxed);
                }
            });
        match refused.into_inner() {
            usize::MAX => Ok(Plaintext::from_coefficient_limbs(
                limbs,
                &self.engine,
                ct.scale.clone(),
            )),
            i => Err(CkksError::InvalidParams(format!(
                "limb {i} holds a residue at or above its prime"
            ))),
        }
    }
}

/// `m + e` into one vector, written once: `m`'s own when the caller
/// hands it over, a new one when it lends it. The error goes back to the
/// allocator here, before anything is transformed.
pub(crate) fn fold_error(m: Cow<'_, [i128]>, e: Vec<i64>) -> Vec<i128> {
    match m {
        Cow::Owned(mut m) => {
            for (m, &e) in m.iter_mut().zip(&e) {
                *m += i128::from(e);
            }
            m
        }
        Cow::Borrowed(m) => m.iter().zip(&e).map(|(&m, &e)| m + i128::from(e)).collect(),
    }
}

/// A public-key encryption's samples and key, with `m` the plaintext's
/// limbs when it is added in NTT domain (a decrypted plaintext, or one
/// whose residues were made, in [`CkksContext::encrypt`]) and `None` when
/// `e0` already carries it ([`CkksContext::with_pk_sample`]).
struct PkSample<'a, X> {
    v: &'a SignedCoeffs<'a, i8>,
    e0: &'a SignedCoeffs<'a, X>,
    e1: &'a SignedCoeffs<'a, i64>,
    pk: &'a PublicKey,
    m: Option<&'a [Vec<u64>]>,
}

impl<X: SignedWord> PkSample<'_, X> {
    /// Limb `i` of `c0 = pk0·v + e0 (+ m)` into `x0` and of
    /// `c1 = pk1·v + e1` into `x1`: three streamed transforms
    /// ([`NttPlan::forward_stream`]) — `v̂` into `v_hat`, left entered
    /// into the kernel's domain by its last pass; then `e0` and `e1`,
    /// each finished by its multiply–accumulate against the key, read in
    /// place. Every value is canonical.
    fn limb(
        &self,
        i: usize,
        plan: &NttPlan,
        v_hat: &mut Vec<u64>,
        x0: &mut Vec<u64>,
        x1: &mut Vec<u64>,
    ) {
        plan.forward_stream(self.v, v_hat, Tail::Premul);
        let (b, d_pre, c) = (&self.pk.pk0[i][..], &v_hat[..], self.m.map(|m| &m[i][..]));
        plan.forward_stream(self.e0, x0, Tail::MulAcc { b, d_pre, c });
        let (b, c) = (&self.pk.pk1[i][..], None);
        plan.forward_stream(self.e1, x1, Tail::MulAcc { b, d_pre, c });
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
    use abc_float::ExtF64Field;
    use proptest::prelude::*;

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
    fn fused_uploads_reject_what_encode_rejects_and_leave_out_alone() {
        let ctx = small_context();
        let (sk, pk) = ctx.keygen(Seed::from_u128(49));
        let oversize = test_message(ctx.params().slots() + 1);
        let mut non_finite = test_message(8);
        non_finite[3] = Complex::new(f64::NAN, 0.0);
        let seed = Seed::from_u128(50);
        for (msg, too_many) in [(&oversize, true), (&non_finite, false)] {
            let mut outs = [vec![1u8, 2, 3], vec![1u8, 2, 3]];
            let results = [
                ctx.encode_encrypt_into(msg, &pk, seed, &mut outs[0]),
                ctx.encode_encrypt_compressed_into(msg, &sk, seed, &mut outs[1]),
            ];
            for (result, out) in results.into_iter().zip(&outs) {
                match result {
                    Err(CkksError::TooManySlots { got, max }) => {
                        assert!(too_many && got == max + 1);
                    }
                    Err(CkksError::InvalidParams(_)) => assert!(!too_many),
                    other => panic!("expected an encode error, got {other:?}"),
                }
                assert_eq!(out, &[1, 2, 3]);
            }
        }
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
        assert_eq!(sk.coeffs.iter().filter(|&&c| c != 0).count(), 64);
        assert_eq!(sk.coeffs.len(), 512);
    }

    #[test]
    fn public_key_size_accounting() {
        let ctx = small_context();
        let (_, pk) = ctx.keygen(Seed::from_u128(48));
        let words: usize = pk.pk0.iter().chain(&pk.pk1).map(Vec::len).sum();
        assert_eq!(words, 2 * 4 * 512);
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

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// FNV-1a over the bits of decoded slots, real part first.
    fn slot_bits_hash(slots: &[Complex]) -> u64 {
        fnv1a(
            slots
                .iter()
                .flat_map(|z| [z.re, z.im])
                .flat_map(|x| x.to_bits().to_le_bytes()),
        )
    }

    /// FNV-1a over the packed wire form of a ciphertext.
    fn blob_hash(ctx: &CkksContext, ct: &Ciphertext) -> u64 {
        let widths = ctx.wire_widths(ct.num_primes());
        fnv1a(crate::wire::serialize_ciphertext_packed(ct, &widths).unwrap())
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
        let small = CkksContext::new(params).unwrap();
        let (sk, pk) = small.keygen(Seed::from_u128(2803));
        let evk = small.gen_eval_key(&sk, Seed::from_u128(2804));
        let ct = small.encrypt(&small.encode(&message).unwrap(), &pk, Seed::from_u128(2805));
        let squared = crate::evaluator::mul_relin(&small, &ct, &ct, &evk).unwrap();
        let product = small.decrypt(&squared, &sk).unwrap();
        let mut coeffs = product.residues().to_vec();
        small.ntt_engine().inverse_all(&mut coeffs);
        let lift = WordLift::new(small.basis().clone());
        assert_eq!(lift.lift_blocks(&coeffs, |_| {}), 1 << 13);
        // The same product through the double-double embedding, on a
        // plan built for this call.
        let ext = SpecialFft::with_field(ExtF64Field, small.params().slots());
        // Captured at the parent with 1, 2 and 3 threads, and again on
        // the scalar rung at one thread when the Gaussian took one `u64`
        // per coefficient. The first two agree: truncation keeps the
        // decrypted integer, and the 24-limb verified lift and the
        // 2-limb Garner lift both find it.
        let parents = [
            0x2140_391c_4845_eadb,
            0x2140_391c_4845_eadb,
            0xfa0e_9e18_11c0_9468,
            0x382e_9a6c_cecb_bab6,
        ];
        let got = [
            hash(&ctx, &fresh),
            hash(&ctx, &last),
            hash(&small, &product),
            slot_bits_hash(&small.decode_core(&ext, &product).unwrap()),
        ];
        assert_eq!(got, parents);
    }

    #[test]
    fn encrypt_equals_the_parents() {
        // Bytes of an upload and of its two rescales, captured before RNS
        // expansion had a vector rung. Every expansion site feeds them:
        // keygen's ternary secret and Gaussian error, encode's i128
        // message, encrypt's i8 / i64 samples, and the rescales' centered
        // tails (i128 for a pair, i64 for one prime). Then the residues
        // of an encode at the rescaled (rational) scale and the bits of
        // `measure_noise`'s report, captured before that encode shared
        // the expansion and before the inverse NTT lost its fused
        // subtrahend. CI pins them on both kernel rungs and at three
        // threads. Every value that keygen's or encrypt's Gaussian errors
        // reach was re-captured on the scalar rung at one thread when the
        // Gaussian took one `u64` per coefficient; the two rescales kept
        // theirs, as dividing by a 50-bit or larger prime product rounds
        // the changed error away.
        let message: Vec<Complex> = (0..1usize << 12)
            .map(|j| {
                let re = (j * 41 % 103) as f64 - 51.0;
                let im = (j * 59 % 89) as f64 - 44.0;
                Complex::new(re / 32.0, im / 32.0)
            })
            .collect();
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).unwrap()).unwrap();
        let (sk, pk) = ctx.keygen(Seed::from_u128(3301));
        let pt = ctx.encode(&message).unwrap();
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(3302));
        let rescaled = crate::evaluator::rescale(&ctx, &ct).unwrap();
        let scale = rescaled.exact_scale();
        assert!(scale.as_pow2().is_none());
        let rational = ctx.encode_with_exact_scale(&message, scale).unwrap();
        let residues = rational.residues().iter().flatten();
        let noise = crate::noise::measure_noise(&ctx, &ct, &sk, &pt).unwrap();
        // Then, on 8 primes at N = 2^13 (k·N = 2^16, where every pass
        // fans out), the bytes of what an RLWE sample or a pair pass
        // writes — a seeded upload, a plaintext product, a relinearized
        // square, the eval key, a rotation and its Galois key — captured
        // before keygen, key-switch keys and seeded encrypt shared one
        // per-limb body, those passes left the NTT engine and the
        // automorphism became one pair pass.
        let params = CkksParams::builder()
            .log_n(13)
            .num_primes(8)
            .scale_mode(crate::params::ScaleMode::DoublePair)
            .build()
            .unwrap();
        let small = CkksContext::new(params).unwrap();
        let (small_sk, small_pk) = small.keygen(Seed::from_u128(3303));
        let evk = small.gen_eval_key(&small_sk, Seed::from_u128(3304));
        let small_pt = small.encode(&message).unwrap();
        let small_ct = small.encrypt(&small_pt, &small_pk, Seed::from_u128(3305));
        let seeded = crate::symmetric::encrypt_symmetric_compressed(
            &small,
            &small_pt,
            &small_sk,
            Seed::from_u128(3306),
        );
        let gk = small
            .gen_rotation_key(&small_sk, 5, Seed::from_u128(3307))
            .unwrap();
        let rotated = crate::evaluator::rotate(&small, &small_ct, 5, &gk).unwrap();
        let widths = small.wire_widths(8);
        let got = [
            blob_hash(&ctx, &ct),
            blob_hash(&ctx, &rescaled),
            blob_hash(&ctx, &crate::evaluator::rescale_prime(&ctx, &ct).unwrap()),
            fnv1a(residues.flat_map(|r| r.to_le_bytes())),
            noise.std_dev.to_bits(), // 213.38129836330768
            noise.max_abs.to_bits(), // 836.0
            fnv1a(crate::wire::serialize_compressed_ciphertext(&seeded, &widths).unwrap()),
            blob_hash(
                &small,
                &crate::evaluator::plaintext_mul(&small, &small_ct, &small_pt).unwrap(),
            ),
            blob_hash(
                &small,
                &crate::evaluator::mul_relin(&small, &small_ct, &small_ct, &evk).unwrap(),
            ),
            fnv1a(crate::wire::serialize_eval_key(&evk, &widths).unwrap()),
            blob_hash(&small, &rotated),
            fnv1a(crate::wire::serialize_galois_key(&gk, &widths).unwrap()),
        ];
        let parents = [
            0xdb59_3b8d_e353_ba43,
            0x5002_3f4a_251c_85f7,
            0x8b22_a137_6aac_385e,
            0x5393_c217_aa02_2325,
            0x406a_ac33_98a0_0d98,
            0x408a_2000_0000_0000,
            0xd51b_07ef_f743_cb35,
            0x2259_f766_c7ab_1133,
            0x6865_8aa8_41fa_b834,
            0xae11_8271_9b34_80f6,
            0x0c03_9230_e870_499b,
            0xa77d_36c0_dd47_4265,
        ];
        assert_eq!(got, parents);
    }

    #[test]
    fn relinearize_and_rotate_equal_the_parents() {
        // Bytes of a relinearized square and of a rotation on 8 primes at
        // N = 2^10, captured before key switching streamed each digit
        // through the forward transform with the domain entry as its
        // tail. The two products key-switch a digit per prime; at 4
        // threads the per-digit pair pass (2·k·N = 2^14 words) fans out.
        // Re-captured on the scalar rung at one thread when the Gaussian
        // took one `u64` per coefficient.
        use abc_math::envtest::EnvGuard;
        use abc_transform::rns_ntt::THREADS_ENV;
        let params = CkksParams::builder()
            .log_n(10)
            .num_primes(8)
            .scale_mode(crate::params::ScaleMode::DoublePair)
            .build()
            .unwrap();
        let message: Vec<Complex> = (0..params.slots())
            .map(|j| {
                let re = (j * 43 % 107) as f64 - 53.0;
                let im = (j * 61 % 83) as f64 - 41.0;
                Complex::new(re / 32.0, im / 32.0)
            })
            .collect();
        let mut env = EnvGuard::lock();
        let mut got = Vec::new();
        for threads in [1usize, 4] {
            env.set(THREADS_ENV, &threads.to_string());
            let ctx = CkksContext::new(params.clone()).unwrap();
            assert_eq!(ctx.ntt_engine().threads(), threads);
            let (sk, pk) = ctx.keygen(Seed::from_u128(4201));
            let evk = ctx.gen_eval_key(&sk, Seed::from_u128(4202));
            let gk = ctx.gen_rotation_key(&sk, 3, Seed::from_u128(4203)).unwrap();
            let ct = ctx.encrypt(&ctx.encode(&message).unwrap(), &pk, Seed::from_u128(4204));
            let squared = crate::evaluator::mul_relin(&ctx, &ct, &ct, &evk).unwrap();
            let rotated = crate::evaluator::rotate(&ctx, &ct, 3, &gk).unwrap();
            got.push([blob_hash(&ctx, &squared), blob_hash(&ctx, &rotated)]);
        }
        let parents = [0x99dd_9c8d_15d9_64b4, 0x09f0_e16b_9b3b_fd3f];
        assert_eq!(got, [parents, parents]);
    }

    #[test]
    fn decode_is_the_same_at_one_two_and_three_threads() {
        // At N = 2^14 the embedding is split across the fan-out from two
        // threads on (and at three the lift's chunks are ragged): the
        // slot bits of the f64 decode and of the double-double one, whose
        // plan always runs the scalar kernel, must not move.
        use abc_math::envtest::EnvGuard;
        use abc_transform::rns_ntt::THREADS_ENV;
        let params = CkksParams::builder()
            .log_n(14)
            .num_primes(3)
            .build()
            .unwrap();
        let ext = SpecialFft::with_field(ExtF64Field, params.slots());
        let mut env = EnvGuard::lock();
        let mut got = Vec::new();
        for threads in [1usize, 2, 3] {
            env.set(THREADS_ENV, &threads.to_string());
            let ctx = CkksContext::new(params.clone()).unwrap();
            assert_eq!(ctx.ntt_engine().threads(), threads);
            let (sk, pk) = ctx.keygen(Seed::from_u128(5101));
            let msg = test_message(ctx.params().slots());
            let ct = ctx.encrypt(&ctx.encode(&msg).unwrap(), &pk, Seed::from_u128(5102));
            let pt = ctx.decrypt(&ct, &sk).unwrap();
            got.push([
                slot_bits_hash(&ctx.decode(&pt).unwrap()),
                slot_bits_hash(&ctx.decode_core(&ext, &pt).unwrap()),
            ]);
        }
        assert_eq!(got[1], got[0], "two threads");
        assert_eq!(got[2], got[0], "three threads");
    }

    #[test]
    fn encrypt_is_the_unfused_public_key_sequence() {
        // The limb-streaming encrypt pass against the sequence it fuses,
        // spelt with the engine's named ops from the same sampler seeds:
        // three escaping expansions, then pk0·v + e0 + m and pk1·v + e1
        // on copies of the key — with the plaintext at and below the
        // key's level, at every thread fan-out (2·k·N ≥ 2^14 spawns from
        // two limbs up at N = 2^12).
        use abc_math::envtest::EnvGuard;
        use abc_transform::rns_ntt::THREADS_ENV;
        let params = CkksParams::builder()
            .log_n(12)
            .num_primes(6)
            .secret_hamming_weight(Some(64))
            .build()
            .unwrap();
        let mut env = EnvGuard::lock();
        for threads in [1usize, 2, 4] {
            env.set(THREADS_ENV, &threads.to_string());
            let ctx = CkksContext::new(params.clone()).unwrap();
            let engine = ctx.ntt_engine();
            assert_eq!(engine.threads(), threads);
            let n = ctx.params().n();
            let sigma = ctx.params().error_sigma();
            let (_, pk) = ctx.keygen(Seed::from_u128(71));
            let full = ctx.encode(&test_message(ctx.params().slots())).unwrap();
            for lvl in [6usize, 5, 2, 1] {
                // The full level as encoded (`e0` folds into its
                // coefficients), the lower ones as NTT-domain residues.
                let pt = match lvl {
                    6 => full.clone(),
                    _ => Plaintext::from_residues(
                        PooledLimbs::copy_of(&full.residues()[..lvl]),
                        full.exact_scale().clone(),
                        n,
                    ),
                };
                let seed = Seed::from_u128(72 + lvl as u128);
                let ct = ctx.encrypt(&pt, &pk, seed);
                let v = TernarySampler::new(seed.derive(0), 0).sample_poly(n, None);
                let e0 = GaussianSampler::new(seed.derive(1), 0, sigma).sample_poly(n);
                let e1 = GaussianSampler::new(seed.derive(2), 0, sigma).sample_poly(n);
                let v_ntt = engine.expand_and_ntt(&v);
                let mut want0 = pk.pk0[..lvl].to_vec();
                engine.dyadic_mul_add2_all(
                    &mut want0,
                    &v_ntt,
                    &engine.expand_and_ntt(&e0),
                    pt.residues(),
                );
                let mut want1 = pk.pk1[..lvl].to_vec();
                engine.dyadic_mul_add_all(&mut want1, &v_ntt, &engine.expand_and_ntt(&e1));
                let (c0, c1) = ct.components();
                assert_eq!(c0, &want0[..], "c0 threads={threads} lvl={lvl}");
                assert_eq!(c1, &want1[..], "c1 threads={threads} lvl={lvl}");
            }
        }
    }

    #[test]
    fn encode_residues_equal_the_parents() {
        // The residues an encoded plaintext makes on first use, captured
        // when encode still made them itself: at the paper's preset
        // (24 primes, Δ_eff = 2^72) and at a small single-scale context.
        let message: Vec<Complex> = (0..1usize << 12)
            .map(|j| {
                let re = (j * 29 % 109) as f64 - 54.0;
                let im = (j * 47 % 79) as f64 - 39.0;
                Complex::new(re / 16.0, im / 16.0)
            })
            .collect();
        let residues_hash = |ctx: &CkksContext| {
            let pt = ctx.encode(&message[..ctx.params().slots()]).unwrap();
            let words = pt.residues().iter().flatten();
            fnv1a(words.flat_map(|r| r.to_le_bytes()))
        };
        let paper = CkksContext::new(CkksParams::bootstrappable(13).unwrap()).unwrap();
        let got = [residues_hash(&paper), residues_hash(&small_context())];
        assert_eq!(got, [0xcb8c_e688_ed05_ff3f, 0xbe80_1b6b_d97c_9440]);
    }

    #[test]
    fn two_threads_making_one_plaintexts_residues_read_one_set_of_limbs() {
        let ctx = small_context();
        let msg = test_message(ctx.params().slots());
        let want = ctx.encode(&msg).unwrap().residues().to_vec();
        let pt = Arc::new(ctx.encode(&msg).unwrap());
        let start = Arc::new(std::sync::Barrier::new(2));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (pt, start) = (Arc::clone(&pt), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let rns = pt.residues();
                    (rns.as_ptr() as usize, rns.to_vec())
                })
            })
            .collect();
        let got: Vec<_> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        assert_eq!(got[0].0, got[1].0, "one set of limbs");
        assert_eq!(got[0].1, want);
        assert_eq!(got[1].1, want);
        assert!(
            pt.coefficients().is_none(),
            "made residues are what encrypt adds"
        );
    }

    #[test]
    fn a_plaintext_equals_its_clone_whether_or_not_residues_are_made() {
        let ctx = small_context();
        let encode = |msg: &[Complex]| ctx.encode(msg).unwrap();
        let msg = test_message(ctx.params().slots());
        for (made_a, made_b) in [(false, false), (true, false), (false, true), (true, true)] {
            let pt = encode(&msg);
            let (a, b) = (pt.clone(), pt.clone());
            if made_a {
                a.residues();
            }
            if made_b {
                b.residues();
            }
            assert_eq!(a, b, "made: {made_a}, {made_b}");
            assert_eq!(pt, a, "made: {made_a}, {made_b}");
        }
        assert_ne!(encode(&msg), encode(&msg[1..]));
        // Shape and scale, not 4 × 512 residues or the engine's tables.
        let shown = format!("{:?}", encode(&msg));
        assert!(shown.len() < 200, "{shown}");
    }

    #[test]
    fn encrypt_of_a_decrypted_plaintext_round_trips() {
        // Decrypt's plaintext has no coefficients: encrypt adds it in
        // the NTT domain.
        let ctx = small_context();
        let (sk, pk) = ctx.keygen(Seed::from_u128(61));
        let msg = test_message(ctx.params().slots());
        let ct = ctx.encrypt(&ctx.encode(&msg).unwrap(), &pk, Seed::from_u128(62));
        let decrypted = ctx.decrypt(&ct, &sk).unwrap();
        assert!(decrypted.coefficients().is_none());
        let again = ctx.encrypt(&decrypted, &pk, Seed::from_u128(63));
        let back = ctx.decode(&ctx.decrypt(&again, &sk).unwrap()).unwrap();
        let err = max_dist(&back, &msg);
        assert!(err < 1e-4, "err = {err}");
    }

    #[test]
    fn decrypt_is_the_ntt_domain_multiply_add_bit_for_bit() {
        // Decrypt runs `c1·s + c0` in the first pass of each limb's
        // inverse transform. Against the composition it replaces — the
        // NTT-domain plaintext `mul_add_assign` makes over a copy of `c1`,
        // which decode inverse-transforms itself — the slots, the
        // residues and a re-encryption are bit-identical: at N = 2^4 …
        // 2^13 (both parities of the IFMA pass count) and 1–3 threads, at
        // the full level and truncated.
        use abc_math::envtest::EnvGuard;
        use abc_transform::rns_ntt::THREADS_ENV;
        let mut env = EnvGuard::lock();
        for threads in [1usize, 2, 3] {
            env.set(THREADS_ENV, &threads.to_string());
            for log_n in 4..=13u32 {
                let params = CkksParams::builder()
                    .log_n(log_n)
                    .num_primes(3)
                    .secret_hamming_weight(Some(1 << (log_n - 1)))
                    .build()
                    .unwrap();
                let ctx = CkksContext::new(params).unwrap();
                let (sk, pk) = ctx.keygen(Seed::from_u128(81));
                let msg = test_message(ctx.params().slots());
                let full = ctx.encrypt(&ctx.encode(&msg).unwrap(), &pk, Seed::from_u128(82));
                for ct in [full.clone(), full.truncated(2)] {
                    let at = format!("threads {threads} log_n {log_n} primes {}", ct.num_primes());
                    let (c0, c1) = ct.components();
                    let mut want = PooledLimbs::copy_of(c1);
                    for (i, limb) in want.iter_mut().enumerate() {
                        let dyadic = ctx.ntt_plans()[i].dyadic();
                        dyadic.mul_add_assign(limb, &sk.ntt[i], &c0[i]);
                    }
                    let want = Plaintext::from_residues(want, ct.exact_scale().clone(), ct.n());
                    let got = ctx.decrypt(&ct, &sk).unwrap();
                    let slots = |pt: &Plaintext| slot_bits_hash(&ctx.decode(pt).unwrap());
                    assert_eq!(slots(&got), slots(&want), "slots {at}");
                    assert_eq!(got.residues(), want.residues(), "residues {at}");
                    let again = |pt: &Plaintext| {
                        blob_hash(&ctx, &ctx.encrypt(pt, &pk, Seed::from_u128(83)))
                    };
                    let fresh = ctx.decrypt(&ct, &sk).unwrap();
                    assert_eq!(again(&fresh), again(&want), "re-encryption {at}");
                }
            }
        }
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

    /// Decode as it was before the word lift, on `fft`'s datapath: every
    /// coefficient through the big-integer Garner lift and `apply_ext`.
    /// The FP64 case is `tests/proptests.rs`'s, through the public
    /// decode; the ExtF64 one needs [`CkksContext::decode_core`].
    fn oracle_decode<F: RealField>(
        ctx: &CkksContext,
        fft: &SpecialFft<F>,
        pt: &Plaintext,
    ) -> Vec<Complex> {
        let mut res = pt.residues().to_vec();
        ctx.ntt_engine().inverse_all(&mut res);
        let basis = ctx.basis().truncated(pt.num_primes());
        let product = basis.product();
        let divisor = pt.exact_scale().divisor();
        let field = fft.field();
        let coeffs: Vec<F::Real> = (0..pt.n())
            .map(|j| {
                let residues: Vec<u64> = res.iter().map(|limb| limb[j]).collect();
                let (negative, mag) = basis.combine_centered_big_with_product(&residues, &product);
                field.from_ext(divisor.apply_ext(negative, &mag))
            })
            .collect();
        let mut vals = fft.coeffs_to_slots(&coeffs);
        fft.forward(&mut vals);
        vals.into_iter().map(|v| v.to_f64_in(field)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn extf64_decode_is_bit_identical_to_the_bigint_oracle(seed in any::<u64>()) {
            // Six double-scale primes: the word lift's prefix is three
            // of them, the other three verify.
            let params = CkksParams::builder()
                .log_n(7)
                .num_primes(6)
                .scale_mode(crate::params::ScaleMode::DoublePair)
                .secret_hamming_weight(None)
                .build()
                .unwrap();
            let ctx = CkksContext::new(params).unwrap();
            let fft = SpecialFft::with_field(ExtF64Field, ctx.params().slots());
            let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128));
            let msg: Vec<Complex> = (0..ctx.params().slots() as u64)
                .map(|i| {
                    let x = (seed.wrapping_mul(i * 2 + 1) % 2001) as f64 / 1000.0 - 1.0;
                    let y = (seed.wrapping_add(i * 13) % 2001) as f64 / 1000.0 - 1.0;
                    Complex::new(x, y)
                })
                .collect();
            let pt = ctx.encode_core(&fft, &msg, ExactScale::from_log2(72)).unwrap();
            let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(seed as u128 + 1));
            // One prime wraps the 2^72 payload; decode is defined all the same.
            for primes in [1, 2, 3, 4, 6] {
                let pt = ctx.decrypt(&ct.truncated(primes), &sk).unwrap();
                let got = ctx.decode_core(&fft, &pt).unwrap();
                let want = oracle_decode(&ctx, &fft, &pt);
                prop_assert_eq!(slot_bits_hash(&got), slot_bits_hash(&want));
            }
        }
    }
}
