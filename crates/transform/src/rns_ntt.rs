//! Batched NTT over all RNS limbs of a polynomial, with thread fan-out
//! and limbs drawn from the process-wide pool.
//!
//! The paper's client pipeline (Fig. 2a) transforms every RNS residue
//! polynomial of a message — up to 24 limbs at `N = 2^16` — and each
//! limb's transform is independent of the others. [`RnsNttEngine`] owns
//! one [`NttPlan`] per prime and fans the limbs out on the process-wide
//! fan-out ([`crate::fanout`]: parked workers the caller wakes and helps;
//! the build environment is offline, so no rayon). The thread count is
//! the fan-out's ([`fanout::threads`]): the machine's parallelism, or
//! the `ABC_FHE_THREADS` environment variable.
//!
//! ABC-FHE streams one message at a time and all of its parallelism sits
//! in the lanes working on that message, so every per-limb op funnels
//! into one chunk shape that decides serial vs parallel from the op's
//! work estimate and its cut-off, and the fan-out's workers are the only
//! threads the library crates (`math`, `float`, `prng`, `transform`,
//! `ckks`) start. Parallelism *across* messages belongs to whoever holds
//! several of them — the gateway's worker pool. The `thread-site` rule of
//! `abc-analysis` keeps it that way.
//!
//! Every limb the engine hands out — scratch, and the polynomials that
//! escape into plaintexts and ciphertexts — is a [`PooledLimbs`] checked
//! out of the one limb pool ([`crate::pool`]) and returned to it on drop,
//! and the engine registers what one operation can have checked out
//! (`4 × limbs` buffers of `N` words) as the pool's allowance for as
//! long as it lives; a caller that runs several operations on one engine
//! at once adds theirs with [`RnsNttEngine::allow_concurrent_ops`]. Only
//! [`RnsNttEngine::expand_and_ntt`], the key and probe entry point,
//! allocates outside the pool.
//!
//! Beyond the transforms, every per-limb pass is a closure handed to
//! one combinator: [`RnsNttEngine::for_each_limb`] runs
//! `f(i, plan_i, limb_i)` on each limb with the same thread fan-out, and
//! the caller names the pass's weight ([`LimbWork`]) so the engine picks
//! the serial/parallel cut-off. A ciphertext-level dyadic product, sum
//! or out-of-place inverse is that call with a closure over
//! `plan.dyadic()` ([`abc_math::dyadic::DyadicEngine`], AVX-512IFMA →
//! Montgomery dispatch) or `plan.inverse_from` — a new fused shape costs
//! no engine method. `forward_all`, `inverse_all`, `dyadic_mul_add_all`
//! and `dyadic_mul_add2_all` are such one-liners kept under a name.
//!
//! The fan-out is not tied to limbs: [`crate::fanout::for_each_chunk`]
//! at the engine's thread count ([`RnsNttEngine::threads`]) splits any
//! slice into contiguous ranges, one per thread, under the same
//! cut-offs. Decode's CRT lift runs on it by slot range — the
//! thread owning slots `a..b` lifts coefficients `a..b` and
//! `N/2 + a..N/2 + b` from every limb — because a coefficient's lift
//! reads only its own residues.
//!
//! What the engine does name is what a closure cannot hold:
//! [`RnsNttEngine::for_each_limb_pair`] keeps limb `i` of two components
//! on one thread and lends each thread one pooled scratch limb. The
//! engine knows no scheme — an encrypt, an RLWE sample, a key-switch
//! digit or a rescale is its caller's closure, in `abc-ckks`.
//!
//! Every expansion is the prologue of a streamed transform
//! ([`NttPlan::forward_stream`]): the coefficient slice is scanned once
//! for its largest magnitude ([`abc_math::rns::SignedCoeffs`]) and each
//! limb then reduces by sign-select (below the prime) or Shoup fold — no
//! division. On the AVX-512IFMA rung the reduction happens in the
//! registers of the transform's first pass, and the dyadic op that
//! follows the transform ([`abc_math::dyadic::Tail`]) in its last one,
//! so a limb is one memory pass per transform stage pair and nothing
//! else; on the scalar rung the same call is the composition
//! [`abc_math::dyadic::DyadicEngine::expand_into`] → transform →
//! [`abc_math::dyadic::DyadicEngine::apply_tail`], bit-identically.
//!
//! Transforms and dyadic ops are **bit-identical** to running each limb
//! through its [`NttPlan`] serially — threading only changes
//! scheduling, never values — which the property suite asserts for
//! thread counts 1/2/4, and the chunk shape's unit test for 1–4.

use crate::fanout;
use crate::ntt::NttPlan;
use crate::pool::{Allowance, PooledLimbs};
use abc_math::dyadic::Tail;
use abc_math::rns::{SignedCoeffs, SignedWord};
use abc_math::{MathError, Modulus};

pub use crate::fanout::{parse_threads, LimbWork, THREADS_ENV};

/// Polynomials of `limbs` limbs one operation on a context can have
/// checked out of the pool at once: one plaintext, two ciphertext
/// components and one of scratch (a download holds `c0`, `c1`, the
/// decrypted plaintext and decode's coefficient limbs; an upload only
/// `c0`, `c1` and a scratch limb per thread, or three scratch limbs per
/// thread when fused — an encoded plaintext keeps integer coefficients
/// and takes limbs only if its residues are read). The scratch
/// polynomial is also the AVX-512 embedding FFT's split planes: one
/// `N`-word limb, taken when at most three polynomials are out.
const POLYS_PER_OP: usize = 4;

/// Batched forward/inverse negacyclic NTT across the RNS limbs of a
/// polynomial: one [`NttPlan`] per prime, limb fan-out over the
/// process-wide parked workers, and limbs from the process-wide pool.
///
/// # Example
///
/// ```
/// use abc_math::{primes::generate_ntt_primes, Modulus};
/// use abc_transform::RnsNttEngine;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let primes = generate_ntt_primes(36, 3, 32)?;
/// let moduli: Vec<Modulus> = primes
///     .into_iter()
///     .map(Modulus::new)
///     .collect::<Result<_, _>>()?;
/// let engine = RnsNttEngine::with_threads(&moduli, 16, 2)?;
/// let mut limbs: Vec<Vec<u64>> = (0..3).map(|i| vec![i as u64; 16]).collect();
/// let original = limbs.clone();
/// engine.forward_all(&mut limbs);
/// engine.inverse_all(&mut limbs);
/// assert_eq!(limbs, original);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RnsNttEngine {
    plans: Vec<NttPlan>,
    n: usize,
    threads: usize,
    /// Keeps `POLYS_PER_OP × limbs` buffers of `N` words retained in the
    /// limb pool while this engine lives.
    _allowance: Allowance,
}

impl RnsNttEngine {
    /// Builds an engine for transform size `n` over `moduli` at the
    /// process's thread count ([`fanout::threads`]: [`THREADS_ENV`], or
    /// the machine's available parallelism capped at 8), captured now.
    ///
    /// # Errors
    ///
    /// Propagates [`NttPlan::new`] errors (no 2N-th root, bad size).
    pub fn new(moduli: &[Modulus], n: usize) -> Result<Self, MathError> {
        Self::with_threads(moduli, n, fanout::threads())
    }

    /// Builds an engine with an explicit thread count (≥ 1); used by
    /// tests to prove thread-count invariance without touching the
    /// process environment.
    ///
    /// # Errors
    ///
    /// Propagates [`NttPlan::new`] errors (no 2N-th root, bad size).
    pub fn with_threads(moduli: &[Modulus], n: usize, threads: usize) -> Result<Self, MathError> {
        let plans = moduli
            .iter()
            .map(|&m| NttPlan::new(m, n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            plans,
            n,
            threads: threads.max(1),
            _allowance: Allowance::new(n, POLYS_PER_OP * moduli.len()),
        })
    }

    /// Transform size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured thread fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-prime plans, in basis order.
    pub fn plans(&self) -> &[NttPlan] {
        &self.plans
    }

    /// The plan for limb `i`.
    pub fn plan(&self, i: usize) -> &NttPlan {
        &self.plans[i]
    }

    /// Registers the limb-pool allowance of `ops` more operations running
    /// on this engine at once (`4 × limbs` buffers of `N` words each, as
    /// the engine holds for one); withdrawn when the guard drops. Threads
    /// can share the engine as it is, but `k` of them hold `k` operations'
    /// limbs, and the pool retains only what was registered.
    pub fn allow_concurrent_ops(&self, ops: usize) -> Allowance {
        Allowance::new(self.n, ops * POLYS_PER_OP * self.plans.len())
    }

    /// Bytes this engine keeps resident while it lives: the twiddle
    /// memory of its plans, and its one-operation limb-pool allowance.
    pub fn resident_bytes(&self) -> (usize, usize) {
        let tables = self.plans.iter().map(NttPlan::resident_bytes).sum();
        (tables, POLYS_PER_OP * self.plans.len() * self.n * 8)
    }

    /// Checks `k` limbs of `N` words out of the limb pool; they go back
    /// when the returned [`PooledLimbs`] drops. Their contents are
    /// **unspecified** (recycled buffers are not cleared), so overwrite
    /// before reading.
    pub fn take_limbs(&self, k: usize) -> PooledLimbs {
        PooledLimbs::take(k, self.n)
    }

    /// In-place forward NTT of `limbs[i]` under prime `i`, fanned out
    /// across threads.
    ///
    /// # Panics
    ///
    /// Panics if there are more limbs than plans or any limb's length
    /// differs from `N`.
    pub fn forward_all(&self, limbs: &mut [Vec<u64>]) {
        self.for_each_limb(limbs, LimbWork::Transform, |_, plan, limb| {
            plan.forward(limb)
        });
    }

    /// In-place inverse NTT of `limbs[i]` under prime `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are more limbs than plans or any limb's length
    /// differs from `N`.
    pub fn inverse_all(&self, limbs: &mut [Vec<u64>]) {
        self.for_each_limb(limbs, LimbWork::Transform, |_, plan, limb| {
            plan.inverse(limb)
        });
    }

    /// Expands signed integers into RNS residues and forward-transforms
    /// every limb — the encode-side `expand ∘ NTT` as one streamed
    /// transform per limb, division-free ([`SignedCoeffs`]: one scan of
    /// `ints`, then each limb sign-selects or folds by magnitude inside
    /// [`NttPlan::forward_stream`]).
    /// Returns one freshly allocated limb per prime: this is the key and
    /// probe entry point, deliberately outside the pool — keys live as
    /// long as their context and are never recycled. Plaintexts go
    /// through [`Self::expand_and_ntt_pooled`].
    ///
    /// # Panics
    ///
    /// Panics if `ints.len() != N`.
    pub fn expand_and_ntt<X>(&self, ints: &[X]) -> Vec<Vec<u64>>
    where
        X: SignedWord,
    {
        // Reserved, not touched: the thread that fills a limb is the
        // first to write it.
        let mut out: Vec<Vec<u64>> = (0..self.plans.len())
            .map(|_| Vec::with_capacity(self.n))
            .collect();
        self.expand_and_ntt_into(ints, &mut out);
        out
    }

    /// [`Self::expand_and_ntt`] under the first `k` primes, into pooled
    /// limbs. An encoded plaintext's residues — its Δ-rounded message
    /// coefficients (`i128`, up to ~2^73 at Δ_eff = 2^72) made into
    /// limbs when they are first read — and the key-switch hot path,
    /// where an INTT'd, centered `i64` digit re-enters NTT domain under
    /// every carried prime.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N` or `k` exceeds the basis size.
    pub fn expand_and_ntt_pooled<X>(&self, coeffs: &[X], k: usize) -> PooledLimbs
    where
        X: SignedWord,
    {
        let mut out = self.take_limbs(k);
        self.expand_and_ntt_into(coeffs, &mut out);
        out
    }

    /// `out[i] = NTT(coeffs mod q_i)`: one scan of `coeffs`, then every
    /// limb streamed ([`NttPlan::forward_stream`]) by the thread that
    /// owns it.
    fn expand_and_ntt_into<X>(&self, coeffs: &[X], out: &mut [Vec<u64>])
    where
        X: SignedWord,
    {
        assert_eq!(coeffs.len(), self.n, "coefficient count must equal N");
        let src = SignedCoeffs::scan(coeffs);
        self.for_each_limb(out, LimbWork::Transform, |_, plan, limb| {
            plan.forward_stream(&src, limb, Tail::Canonical)
        });
    }

    /// `a[i][j] = a[i][j]·b[i][j] + c[i][j] mod q_i` — the RNS-wide
    /// shape of `c1·s + c0` (decrypt runs it fused with its copy of
    /// `c1`) and of the evaluator's cross term. `b` and `c` may carry
    /// more limbs than `a`; the leading ones are used.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more limbs than plans, `b` or `c` has fewer
    /// limbs than `a`, or paired limb lengths differ.
    pub fn dyadic_mul_add_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>], c: &[Vec<u64>]) {
        self.for_each_limb(a, LimbWork::Elementwise, |i, plan, limb| {
            plan.dyadic().mul_add_assign(limb, &b[i], &c[i])
        });
    }

    /// `a[i][j] = a[i][j]·b[i][j] + c[i][j] + d[i][j] mod q_i` — the
    /// `pk0·v + e0 + m` chain as **one** RNS-wide pass.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_add_all`], extended to `d`.
    pub fn dyadic_mul_add2_all(
        &self,
        a: &mut [Vec<u64>],
        b: &[Vec<u64>],
        c: &[Vec<u64>],
        d: &[Vec<u64>],
    ) {
        self.for_each_limb(a, LimbWork::Elementwise, |i, plan, limb| {
            plan.dyadic().mul_add2_assign(limb, &b[i], &c[i], &d[i])
        });
    }

    /// The limb combinator: applies `f(i, plan_i, limb_i)` to every limb
    /// of `limbs`, limb `i` under the plan of prime `i`, fanned out
    /// across the engine's threads once `limbs × N` reaches the cut-off
    /// `work` names. Threading changes scheduling only — `f` sees each
    /// limb exactly once, alone — so the result does not depend on the
    /// thread count. Operands `f` reads besides its limb are captured
    /// and indexed by `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are more limbs than plans.
    pub fn for_each_limb<F>(&self, limbs: &mut [Vec<u64>], work: LimbWork, f: F)
    where
        F: Fn(usize, &NttPlan, &mut Vec<u64>) + Sync,
    {
        let k = limbs.len();
        assert!(k <= self.plans.len(), "more limbs than plans");
        fanout::split(
            self.threads,
            k,
            k * self.n,
            work,
            |chunk| limbs.chunks_mut(chunk),
            |first, chunk| {
                for (i, limb) in (first..).zip(chunk) {
                    f(i, &self.plans[i], limb);
                }
            },
        );
    }

    /// [`Self::for_each_limb`] over the paired limbs of two components,
    /// with one limb of scratch: `f(i, plan_i, a0_i, a1_i, scratch)`, so
    /// limb `i` of both stays on one thread. Each thread checks the
    /// scratch limb out of the pool once for its whole chunk and returns
    /// it when done, or unwinding. Its `N` words are **unspecified** (the
    /// previous limb's, or its last owner's), so `f` writes before it
    /// reads. The cut-off counts both components' work (`2 × limbs × N`).
    ///
    /// # Panics
    ///
    /// Panics if the two components' limb counts differ or exceed the
    /// plans.
    pub fn for_each_limb_pair<F>(
        &self,
        a0: &mut [Vec<u64>],
        a1: &mut [Vec<u64>],
        work: LimbWork,
        f: F,
    ) where
        F: Fn(usize, &NttPlan, &mut Vec<u64>, &mut Vec<u64>, &mut Vec<u64>) + Sync,
    {
        let k = a0.len();
        assert_eq!(k, a1.len(), "component limb counts differ");
        assert!(k <= self.plans.len(), "more limbs than plans");
        fanout::split(
            self.threads,
            k,
            2 * k * self.n,
            work,
            |chunk| a0.chunks_mut(chunk).zip(a1.chunks_mut(chunk)),
            |first, (c0, c1)| {
                let mut scratch = self.take_limbs(1);
                for (i, (x0, x1)) in (first..).zip(c0.iter_mut().zip(c1)) {
                    f(i, &self.plans[i], x0, x1, &mut scratch[0]);
                }
            },
        );
    }
}

#[cfg(test)]
mod env_tests {
    use super::*;

    #[test]
    fn unset_or_blank_means_no_override() {
        assert_eq!(parse_threads(None).expect("unset"), None);
        assert_eq!(parse_threads(Some("")).expect("blank"), None);
        assert_eq!(parse_threads(Some("  ")).expect("spaces"), None);
    }

    #[test]
    fn valid_counts_win_with_whitespace_tolerance() {
        assert_eq!(parse_threads(Some("1")).expect("1"), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")).expect("8"), Some(8));
        assert_eq!(parse_threads(Some("64")).expect("64"), Some(64));
    }

    #[test]
    fn garbage_and_out_of_range_are_loud_errors() {
        for bad in ["four", "-2", "0", "65", "1000", "3.5", "8x"] {
            let msg = parse_threads(Some(bad)).expect_err(bad);
            assert!(
                msg.contains(THREADS_ENV) && msg.contains("1..=64"),
                "error for {bad:?} must name the variable and range: {msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use abc_math::primes::generate_ntt_primes;

    fn moduli(count: usize, two_n: u64) -> Vec<Modulus> {
        generate_ntt_primes(36, count, two_n)
            .unwrap()
            .into_iter()
            .map(|q| Modulus::new(q).unwrap())
            .collect()
    }

    fn pseudo_limbs(ms: &[Modulus], n: usize, seed: u64) -> Vec<Vec<u64>> {
        ms.iter()
            .enumerate()
            .map(|(i, m)| {
                let mut x = seed.wrapping_add(i as u64) | 1;
                (0..n)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x % m.q()
                    })
                    .collect()
            })
            .collect()
    }

    // The limb pool is shared by every test of this binary: the tests
    // that read its counters each use a ring degree no other test does.

    #[test]
    fn pool_retention_follows_the_live_engines() {
        let n = 128usize;
        let ms = moduli(3, 2 * n as u64);
        let class = || pool::class_stats(n).expect("registered by an engine");
        let engine = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        assert_eq!(class().allowance, 4 * 3);
        // However many adopted, cloned and checked-out limbs are dropped
        // into it, the class never holds more than the engine allows.
        for _ in 0..4 {
            let adopted = PooledLimbs::from(vec![vec![0u64; n]; 7]);
            let cloned = adopted.clone();
            let taken = engine.take_limbs(9);
            assert!(taken.iter().all(|limb| limb.len() == n));
            drop((adopted, cloned, taken));
            assert!(class().resident <= 12, "resident {}", class().resident);
        }
        assert_eq!(class().resident, 12);
        assert_eq!(class().resident_bytes(), 12 * n * 8);
        // A second engine of the same N adds its allowance; dropping it
        // frees the excess at once.
        let second = RnsNttEngine::with_threads(&ms[..2], n, 1).unwrap();
        assert_eq!(class().allowance, 12 + 8);
        drop(PooledLimbs::from(vec![vec![0u64; n]; 30]));
        assert_eq!(class().resident, 20);
        drop(second);
        assert_eq!((class().allowance, class().resident), (12, 12));
        // A capacity no live engine registered is not retained.
        drop(PooledLimbs::from(vec![vec![0u64; n + n / 2]; 2]));
        assert_eq!(pool::class_stats(n + n / 2), None);
        // Dropping the last engine empties the class, and with no live
        // engine it keeps nothing.
        drop(engine);
        assert_eq!((class().allowance, class().resident), (0, 0));
        drop(PooledLimbs::from(vec![vec![0u64; n]; 2]));
        assert_eq!(class().resident, 0);
    }

    /// A pair pass with the plaintext-product shape: `c0 = a0 ⊙ b` and
    /// `c1 = a1 ⊙ b` into pooled limbs, `b_i` entered into the kernel's
    /// domain once in the thread's scratch limb. Weighed as a transform,
    /// so it fans out from `2·k·N = 2^14`.
    fn pair_product(
        engine: &RnsNttEngine,
        a0: &[Vec<u64>],
        a1: &[Vec<u64>],
        b: &[Vec<u64>],
    ) -> (PooledLimbs, PooledLimbs) {
        let k = a0.len();
        let (mut c0, mut c1) = (engine.take_limbs(k), engine.take_limbs(k));
        engine.for_each_limb_pair(
            &mut c0,
            &mut c1,
            LimbWork::Transform,
            |i, plan, x0, x1, pre| {
                let d = plan.dyadic();
                x0.copy_from_slice(&a0[i]);
                x1.copy_from_slice(&a1[i]);
                pre.copy_from_slice(&b[i]);
                d.premul(pre);
                d.mul_assign_premul(x0, pre);
                d.mul_assign_premul(x1, pre);
            },
        );
        (c0, c1)
    }

    #[test]
    fn limbs_checked_out_when_a_limb_pass_panics_go_back_to_the_pool() {
        // 2·k·n = 2^14 reaches PARALLEL_THRESHOLD, so with two threads the
        // panic may unwind a parked worker holding its scratch limb.
        let n = 1usize << 11;
        let ms = moduli(4, 2 * n as u64);
        let class = || pool::class_stats(n).expect("registered by an engine");
        let a0 = pseudo_limbs(&ms, n, 5);
        let a1 = pseudo_limbs(&ms, n, 6);
        let b = pseudo_limbs(&ms, n, 7);
        // The last multiplier limb is one word short: copying it into the
        // scratch limb panics with c0, c1 and a scratch limb checked out.
        let mut short = b.clone();
        short[3].pop();
        for threads in [1usize, 2] {
            let engine = RnsNttEngine::with_threads(&ms, n, threads).unwrap();
            // The reference run also leaves the limbs it used in the pool.
            let (c0, c1) = pair_product(&engine, &a0, &a1, &b);
            let want = (c0.to_vec(), c1.to_vec());
            drop((c0, c1));
            // Two workers that ran one after the other shared one scratch
            // limb; top the class up to what overlapping ones need (c0,
            // c1 and a scratch limb per worker).
            drop(engine.take_limbs(2 * ms.len() + threads));
            let before = class();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pair_product(&engine, &a0, &a1, &short)
            }));
            assert!(unwound.is_err(), "threads={threads}");
            let after = class();
            assert_eq!(
                after.kept - before.kept,
                after.hits - before.hits,
                "threads={threads}: every limb taken went back"
            );
            assert_eq!(after.misses, before.misses, "threads={threads}");
            // And the pool serves the next request.
            let (c0, c1) = pair_product(&engine, &a0, &a1, &b);
            assert_eq!((c0.to_vec(), c1.to_vec()), want, "threads={threads}");
            assert_eq!(class().misses, before.misses, "threads={threads}");
        }
    }

    #[test]
    fn engine_matches_per_limb_plans_across_thread_counts() {
        // n·k = 2^13·6 clears PARALLEL_THRESHOLD, so the workers really join.
        let n = 1usize << 13;
        let ms = moduli(6, 2 * n as u64);
        let limbs0 = pseudo_limbs(&ms, n, 42);
        let mut reference = limbs0.clone();
        for (m, limb) in ms.iter().zip(reference.iter_mut()) {
            NttPlan::new(*m, n).unwrap().forward(limb);
        }
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&ms, n, threads).unwrap();
            let mut limbs = limbs0.clone();
            engine.forward_all(&mut limbs);
            assert_eq!(limbs, reference, "threads={threads}");
            engine.inverse_all(&mut limbs);
            assert_eq!(limbs, limbs0, "threads={threads}");
        }
    }

    #[test]
    fn partial_batches_use_leading_plans() {
        let n = 64usize;
        let ms = moduli(4, 2 * n as u64);
        let engine = RnsNttEngine::with_threads(&ms, n, 2).unwrap();
        // A truncated ciphertext: fewer limbs than plans, aligned from 0.
        let mut limbs = pseudo_limbs(&ms[..2], n, 7);
        let expected = {
            let mut e = limbs.clone();
            for (m, limb) in ms[..2].iter().zip(e.iter_mut()) {
                NttPlan::new(*m, n).unwrap().forward(limb);
            }
            e
        };
        engine.forward_all(&mut limbs);
        assert_eq!(limbs, expected);
    }

    #[test]
    fn expand_and_ntt_matches_manual_expansion() {
        let n = 32usize;
        let ms = moduli(3, 2 * n as u64);
        let engine = RnsNttEngine::with_threads(&ms, n, 4).unwrap();
        let ints: Vec<i128> = (0..n as i128).map(|i| i * 12345 - 98765).collect();
        let got = engine.expand_and_ntt(&ints);
        for (i, m) in ms.iter().enumerate() {
            let mut manual: Vec<u64> = ints.iter().map(|&x| m.from_i128(x)).collect();
            engine.plan(i).forward(&mut manual);
            assert_eq!(got[i], manual, "limb {i}");
        }
        // Pooled, `i64` coefficients, against the same manual path.
        let small: Vec<i64> = (0..n as i64).map(|i| i - 16).collect();
        let pooled = engine.expand_and_ntt_pooled(&small, 2);
        for (i, m) in ms[..2].iter().enumerate() {
            let mut manual: Vec<u64> = small.iter().map(|&x| m.from_i64(x)).collect();
            engine.plan(i).forward(&mut manual);
            assert_eq!(pooled[i], manual, "limb {i}");
        }
        drop(pooled);
        // Pooled, pair-rescale-sized (≈75-bit) centered `i128` values.
        let wide: Vec<i128> = (0..n as i128)
            .map(|i| (i - 16) * ((1i128 << 70) + 12345))
            .collect();
        let pooled = engine.expand_and_ntt_pooled(&wide, 2);
        for (i, m) in ms[..2].iter().enumerate() {
            let mut manual: Vec<u64> = wide.iter().map(|&x| m.from_i128(x)).collect();
            engine.plan(i).forward(&mut manual);
            assert_eq!(pooled[i], manual, "limb {i}");
        }
    }

    #[test]
    fn mul_acc_pair_matches_manual_across_thread_counts() {
        // 2·k·n = 2^16 reaches DYADIC_PARALLEL_THRESHOLD at k = 4,
        // n = 2^13, so the threaded path really runs.
        let n = 1usize << 13;
        let ms = moduli(4, 2 * n as u64);
        let d = pseudo_limbs(&ms, n, 11);
        let b = pseudo_limbs(&ms, n, 22);
        let a = pseudo_limbs(&ms, n, 33);
        let acc0_init = pseudo_limbs(&ms, n, 44);
        let acc1_init = pseudo_limbs(&ms, n, 55);
        let mut reference0 = acc0_init.clone();
        let mut reference1 = acc1_init.clone();
        for (i, m) in ms.iter().enumerate() {
            for j in 0..n {
                reference0[i][j] = m.add(reference0[i][j], m.mul(d[i][j], b[i][j]));
                reference1[i][j] = m.add(reference1[i][j], m.mul(d[i][j], a[i][j]));
            }
        }
        for threads in [1usize, 4] {
            let engine = RnsNttEngine::with_threads(&ms, n, threads).unwrap();
            let mut acc0 = acc0_init.clone();
            let mut acc1 = acc1_init.clone();
            // The key-switch shape: the digit enters the kernel's domain
            // once, in the thread's scratch limb, for both products.
            engine.for_each_limb_pair(
                &mut acc0,
                &mut acc1,
                LimbWork::Elementwise,
                |i, plan, x0, x1, pre| {
                    let dy = plan.dyadic();
                    pre.copy_from_slice(&d[i]);
                    dy.premul(pre);
                    dy.mul_acc_assign_premul(x0, &b[i], pre);
                    dy.mul_acc_assign_premul(x1, &a[i], pre);
                },
            );
            assert_eq!(acc0, reference0, "threads={threads}");
            assert_eq!(acc1, reference1, "threads={threads}");
        }
    }

    /// The rescale kept-limb chain on two components in one pair pass,
    /// the shape `abc-ckks` runs it in — `k_c[i] = (k_c[i] − NTT(t_c mod
    /// q_i))·s[i]`: each tail streamed through the thread's scratch limb,
    /// the subtract and scalar multiply in the transform's last pass.
    fn rescale_pair<X: SignedWord, Y: SignedWord>(
        engine: &RnsNttEngine,
        (k0, k1): (&mut [Vec<u64>], &mut [Vec<u64>]),
        (t0, t1): (&[X], &[Y]),
        s: &[u64],
    ) {
        let (t0, t1) = (SignedCoeffs::scan(t0), SignedCoeffs::scan(t1));
        engine.for_each_limb_pair(k0, k1, LimbWork::Transform, |i, plan, x0, x1, t| {
            let w = s[i];
            plan.forward_stream(&t0, t, Tail::SubScalarMul { dst: x0, w });
            plan.forward_stream(&t1, t, Tail::SubScalarMul { dst: x1, w });
        });
    }

    #[test]
    fn fused_ops_match_unfused_sequences_across_thread_counts() {
        // k·n = 8·2^13 = 2^16 reaches both cut-offs, so the threaded
        // paths really run. References are spelt with `Modulus` ops and
        // each limb's own plan — nothing the fused passes share.
        let n = 1usize << 13;
        let ms = moduli(8, 2 * n as u64);
        let a0 = pseudo_limbs(&ms, n, 101);
        let b = pseudo_limbs(&ms, n, 202);
        let c = pseudo_limbs(&ms, n, 303);
        let d = pseudo_limbs(&ms, n, 404);
        let coeffs64: Vec<i64> = (0..n as i64).map(|i| (i * 77 - 999) % 100_000).collect();
        let coeffs128: Vec<i128> = (0..n as i128)
            .map(|i| (i - 4096) * ((1i128 << 70) + 321))
            .collect();
        let scalars: Vec<u64> = ms
            .iter()
            .enumerate()
            .map(|(i, m)| m.q() / (i as u64 + 2))
            .collect();
        let serial = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        let per_limb = |f: &dyn Fn(usize, &Modulus, &mut Vec<u64>)| {
            let mut out = a0.clone();
            for (i, limb) in out.iter_mut().enumerate() {
                f(i, &ms[i], limb);
            }
            out
        };
        let mul_add2 = per_limb(&|i, m, l| {
            for (j, x) in l.iter_mut().enumerate() {
                *x = m.add(m.add(m.mul(*x, b[i][j]), c[i][j]), d[i][j]);
            }
        });
        let inv = per_limb(&|i, _, l| serial.plan(i).inverse(l));
        let rescale = |tail_of: &dyn Fn(&Modulus) -> Vec<u64>| {
            per_limb(&|i, m, l| {
                let mut tail = tail_of(m);
                serial.plan(i).forward(&mut tail);
                for (x, &t) in l.iter_mut().zip(&tail) {
                    *x = m.mul(m.sub(*x, t), scalars[i]);
                }
            })
        };
        let resc64 = rescale(&|m| coeffs64.iter().map(|&x| m.from_i64(x)).collect());
        let resc128 = rescale(&|m| coeffs128.iter().map(|&x| m.from_i128(x)).collect());
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&ms, n, threads).unwrap();
            let mut got = a0.clone();
            engine.dyadic_mul_add2_all(&mut got, &b, &c, &d);
            assert_eq!(got, mul_add2, "mul_add2 threads={threads}");
            let mut got = vec![vec![u64::MAX; n]; ms.len()];
            engine.for_each_limb(&mut got, LimbWork::Transform, |i, plan, limb| {
                plan.inverse_from(&a0[i], limb)
            });
            assert_eq!(got, inv, "inverse_from threads={threads}");
            let (mut got64, mut got128) = (a0.clone(), a0.clone());
            let kept = (&mut got64[..], &mut got128[..]);
            rescale_pair(&engine, kept, (&coeffs64, &coeffs128), &scalars);
            assert_eq!(got64, resc64, "fused rescale i64 threads={threads}");
            assert_eq!(got128, resc128, "fused rescale i128 threads={threads}");
        }
    }

    #[test]
    fn chunk_shape_visits_every_item_once_at_its_index() {
        // Two words per item against the transform cut-off (2^14): 8191
        // items run as one chunk on the calling thread, 8192 fan out.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ms = moduli(1, 32);
        for threads in 1usize..=4 {
            let engine = RnsNttEngine::with_threads(&ms, 16, threads).unwrap();
            for len in [0usize, 1, 3, 8191, 8192] {
                // (index the pass saw, visits)
                let mut items = vec![(usize::MAX, 0u32); len];
                let calls = AtomicUsize::new(0);
                fanout::for_each_chunk(
                    engine.threads(),
                    &mut items,
                    2,
                    LimbWork::Transform,
                    |first, chunk| {
                        calls.fetch_add(1, Ordering::Relaxed);
                        for (i, (at, visits)) in (first..).zip(chunk) {
                            *at = i;
                            *visits += 1;
                        }
                    },
                );
                for (i, &(at, visits)) in items.iter().enumerate() {
                    assert_eq!((at, visits), (i, 1), "threads={threads} len={len}");
                }
                let chunks = match len {
                    0 => 0,
                    8192 => threads,
                    _ => 1,
                };
                assert_eq!(calls.into_inner(), chunks, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more limbs than plans")]
    fn too_many_limbs_panics() {
        let n = 16usize;
        let ms = moduli(2, 2 * n as u64);
        let engine = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        let mut limbs = vec![vec![0u64; n]; 3];
        engine.forward_all(&mut limbs);
    }

    #[test]
    fn env_override_is_honoured() {
        let mut env = abc_math::envtest::EnvGuard::lock();
        env.set(THREADS_ENV, "3");
        let n = 16usize;
        let ms = moduli(1, 2 * n as u64);
        let engine = RnsNttEngine::new(&ms, n).unwrap();
        drop(env);
        assert_eq!(engine.threads(), 3);
        // With the override gone the default applies (an invalid value
        // would panic in `fanout::threads`, not fall back).
        assert!(fanout::threads() >= 1);
    }
}
