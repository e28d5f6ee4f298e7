//! Batched NTT over all RNS limbs of a polynomial, with thread fan-out
//! and reusable scratch buffers.
//!
//! The paper's client pipeline (Fig. 2a) transforms every RNS residue
//! polynomial of a message — up to 24 limbs at `N = 2^16` — and each
//! limb's transform is independent of the others. [`RnsNttEngine`] owns
//! one [`NttPlan`] per prime and fans the limbs out across OS threads
//! with [`std::thread::scope`] (the build environment is offline, so no
//! rayon; `std` is all we need). The thread count defaults to the
//! machine's parallelism and can be pinned with the `ABC_FHE_THREADS`
//! environment variable.
//!
//! Every temporary the engine needs is drawn from an internal buffer
//! pool and recycled, so steady-state operation performs no per-op
//! allocation ([`PooledLimbs`] returns its buffers on drop).
//!
//! Beyond the transforms, the engine exposes **RNS-wide element-wise
//! operations** (`dyadic_mul_all`, `dyadic_mul_add_all`,
//! `dyadic_scalar_mul_all`, add/sub/neg) so a ciphertext-level dyadic
//! product is one engine call instead of a per-limb loop: limb `i`
//! runs on its plan's [`abc_math::dyadic::DyadicEngine`]
//! (AVX-512IFMA → Montgomery dispatch) with the same thread fan-out.
//!
//! On top of those sit the **fused chain ops** — `dyadic_mul_neg_add_all`
//! / `dyadic_mul_neg_add2_all` (the keygen/encrypt `−(a·s)+e(+m)`
//! shapes), `dyadic_mul_add2_all` (`pk·v+e+m`) and `sub_scalar_mul_all`
//! (the rescale shape) — which collapse what used to be two-to-four
//! full memory passes per ciphertext component into one. The NTT stage
//! boundaries fuse too: `forward_all_then_mul` hands `[0, 4q)`-lazy
//! transform output straight to the dyadic kernel,
//! `expand_ntt_sub_scalar_mul_all_{i64,i128}` run the whole rescale
//! kept-limb chain (expand → lazy NTT → subtract → scalar-multiply) in
//! one per-limb pass, and `sub_then_inverse_all` / `inverse_all_from`
//! fold a subtraction or an out-of-place copy into the first
//! inverse-NTT stage. `pk_encrypt_all` is the whole public-key encrypt
//! as one limb-streaming pass — per limb, expand `v`, `e0`, `e1`,
//! transform, multiply-accumulate against the key read in place and add
//! the message, writing only the two output limbs. All are bit-identical
//! to the unfused sequences they replace.
//!
//! Every expansion (`expand_and_ntt*`, the fused rescale and encrypt
//! passes) goes through [`abc_math::rns::SignedCoeffs`]: the coefficient
//! slice is scanned once for its largest magnitude and each limb then
//! reduces by sign-select or Shoup fold — no division.
//!
//! Transforms and dyadic ops are **bit-identical** to running each limb
//! through its [`NttPlan`] serially — threading only changes
//! scheduling, never values — which the property suite asserts for
//! thread counts 1/2/4.

use crate::ntt::NttPlan;
use abc_math::rns::SignedCoeffs;
use abc_math::{MathError, Modulus};
use std::sync::Mutex;

/// Environment variable overriding the engine's thread count.
pub const THREADS_ENV: &str = "ABC_FHE_THREADS";

/// Cap on pooled scratch buffers, bounding steady-state memory.
const MAX_POOLED_BUFS: usize = 64;

/// High-water cap on pooled scratch **bytes**: a burst at a large ring
/// degree must not pin its peak memory forever, so buffers returned
/// past this watermark are dropped (evicted) instead of retained.
pub const MAX_POOLED_BYTES: usize = 1 << 23;

/// Below this much total work (`limbs × N`), thread spawn overhead
/// outweighs the fan-out and the engine runs serially.
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Parallel threshold for the element-wise (dyadic) ops: they are
/// `O(N)` per limb instead of `O(N log N)`, so spawning threads pays
/// off only on larger batches.
const DYADIC_PARALLEL_THRESHOLD: usize = 1 << 16;

/// A recycling pool of `Vec<u64>` scratch buffers, capped both by
/// count and by retained bytes ([`MAX_POOLED_BYTES`]).
#[derive(Debug, Default)]
struct BufferPool {
    bufs: Mutex<PoolState>,
}

/// Pool contents plus their retained byte total (capacity of every
/// buffer), tracked so the byte-watermark eviction is O(1) on return.
#[derive(Debug, Default)]
struct PoolState {
    bufs: Vec<Vec<u64>>,
    bytes: usize,
}

impl BufferPool {
    /// Takes a buffer of length `n` with **unspecified contents** —
    /// recycled buffers keep their stale words rather than paying a
    /// memset that every caller immediately overwrites.
    fn take(&self, n: usize) -> Vec<u64> {
        let mut guard = self.bufs.lock().expect("buffer pool poisoned");
        match guard.bufs.pop() {
            Some(mut b) => {
                guard.bytes -= b.capacity() * core::mem::size_of::<u64>();
                b.resize(n, 0);
                b
            }
            None => vec![0u64; n],
        }
    }

    /// Returns a buffer, dropping it instead when retention would pass
    /// the count cap or the [`MAX_POOLED_BYTES`] high-water mark.
    fn put(&self, b: Vec<u64>) {
        let bytes = b.capacity() * core::mem::size_of::<u64>();
        let mut guard = self.bufs.lock().expect("buffer pool poisoned");
        if guard.bufs.len() < MAX_POOLED_BUFS && guard.bytes + bytes <= MAX_POOLED_BYTES {
            guard.bytes += bytes;
            guard.bufs.push(b);
        }
    }

    fn bytes(&self) -> usize {
        self.bufs.lock().expect("buffer pool poisoned").bytes
    }

    fn len(&self) -> usize {
        self.bufs.lock().expect("buffer pool poisoned").bufs.len()
    }
}

/// Residue limbs checked out of an [`RnsNttEngine`]'s buffer pool;
/// dereferences to `[Vec<u64>]` and returns every buffer to the pool on
/// drop.
#[derive(Debug)]
pub struct PooledLimbs<'a> {
    engine: &'a RnsNttEngine,
    bufs: Vec<Vec<u64>>,
}

impl std::ops::Deref for PooledLimbs<'_> {
    type Target = [Vec<u64>];
    fn deref(&self) -> &[Vec<u64>] {
        &self.bufs
    }
}

impl std::ops::DerefMut for PooledLimbs<'_> {
    fn deref_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.bufs
    }
}

impl Drop for PooledLimbs<'_> {
    fn drop(&mut self) {
        for b in self.bufs.drain(..) {
            self.engine.pool.put(b);
        }
    }
}

/// Batched forward/inverse negacyclic NTT across the RNS limbs of a
/// polynomial: one [`NttPlan`] per prime, limb fan-out over scoped
/// threads, and pooled scratch.
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
    pool: BufferPool,
}

impl RnsNttEngine {
    /// Builds an engine for transform size `n` over `moduli`, reading
    /// the thread count from [`THREADS_ENV`] (default: the machine's
    /// available parallelism, capped at 8).
    ///
    /// # Errors
    ///
    /// Propagates [`NttPlan::new`] errors (no 2N-th root, bad size).
    pub fn new(moduli: &[Modulus], n: usize) -> Result<Self, MathError> {
        Self::with_threads(moduli, n, threads_from_env())
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
            pool: BufferPool::default(),
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

    /// Checks a scratch buffer of length `N` out of the pool; its
    /// contents are **unspecified** (recycled buffers are not cleared),
    /// so overwrite before reading. Hand it back with
    /// [`Self::recycle`] (or wrap batches in [`PooledLimbs`] via
    /// [`Self::take_limbs`]).
    pub fn take_buf(&self) -> Vec<u64> {
        self.pool.take(self.n)
    }

    /// Returns a scratch buffer to the pool (dropped instead when the
    /// pool sits at its count cap or [`MAX_POOLED_BYTES`] watermark).
    pub fn recycle(&self, buf: Vec<u64>) {
        self.pool.put(buf);
    }

    /// Bytes currently retained by the scratch pool (capacity of every
    /// pooled buffer) — always ≤ [`MAX_POOLED_BYTES`].
    pub fn pooled_bytes(&self) -> usize {
        self.pool.bytes()
    }

    /// Number of buffers currently retained by the scratch pool.
    pub fn pooled_bufs(&self) -> usize {
        self.pool.len()
    }

    /// Checks out `k` limb buffers (contents unspecified, as in
    /// [`Self::take_buf`]) that recycle on drop.
    pub fn take_limbs(&self, k: usize) -> PooledLimbs<'_> {
        PooledLimbs {
            engine: self,
            bufs: (0..k).map(|_| self.pool.take(self.n)).collect(),
        }
    }

    /// In-place forward NTT of `limbs[i]` under prime `i`, fanned out
    /// across threads.
    ///
    /// # Panics
    ///
    /// Panics if there are more limbs than plans or any limb's length
    /// differs from `N`.
    pub fn forward_all(&self, limbs: &mut [Vec<u64>]) {
        self.for_each_limb(limbs, |_, plan, limb| plan.forward(limb));
    }

    /// In-place inverse NTT of `limbs[i]` under prime `i`.
    ///
    /// # Panics
    ///
    /// Panics if there are more limbs than plans or any limb's length
    /// differs from `N`.
    pub fn inverse_all(&self, limbs: &mut [Vec<u64>]) {
        self.for_each_limb(limbs, |_, plan, limb| plan.inverse(limb));
    }

    /// Expands signed integers into RNS residues and forward-transforms
    /// every limb — the encode-side `expand ∘ NTT` fused into one
    /// parallel pass, division-free ([`SignedCoeffs`]: one scan of
    /// `ints`, then sign-select or Shoup fold per limb by magnitude).
    /// Returns one freshly allocated limb per prime: the buffers escape
    /// into plaintexts and keys, whose owners free them, so they are
    /// never handed back to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `ints.len() != N`.
    pub fn expand_and_ntt<X>(&self, ints: &[X]) -> Vec<Vec<u64>>
    where
        X: Copy + Into<i128> + Sync,
    {
        let mut out = self.reserve_limbs(self.plans.len());
        self.expand_and_ntt_into(ints, &mut out);
        out
    }

    /// Expands centered `i64` coefficients under the first `k` primes
    /// and forward-transforms each limb, drawing the limb buffers from
    /// the pool (they recycle when the returned [`PooledLimbs`] drops).
    /// This is the rescale hot path: the INTT'd tail limb re-enters NTT
    /// domain under every remaining prime.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N` or `k` exceeds the basis size.
    pub fn expand_and_ntt_i64(&self, coeffs: &[i64], k: usize) -> PooledLimbs<'_> {
        let mut out = self.take_limbs(k);
        self.expand_and_ntt_into(coeffs, &mut out);
        out
    }

    /// Expands centered `i128` coefficients under the first `k` primes
    /// and forward-transforms each limb, pooled like
    /// [`Self::expand_and_ntt_i64`]. This is the *pair*-rescale hot
    /// path: the CRT-lifted two-prime tail (up to ~75 bits, centered)
    /// re-enters NTT domain under every remaining prime.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N` or `k` exceeds the basis size.
    pub fn expand_and_ntt_i128(&self, coeffs: &[i128], k: usize) -> PooledLimbs<'_> {
        let mut out = self.take_limbs(k);
        self.expand_and_ntt_into(coeffs, &mut out);
        out
    }

    /// `out[i] = NTT(coeffs mod q_i)`: one scan of `coeffs`, then every
    /// limb refilled and transformed by the thread that owns it.
    fn expand_and_ntt_into<X>(&self, coeffs: &[X], out: &mut [Vec<u64>])
    where
        X: Copy + Into<i128> + Sync,
    {
        assert_eq!(coeffs.len(), self.n, "coefficient count must equal N");
        let src = SignedCoeffs::scan(coeffs);
        self.for_each_limb(out, |_, plan, limb| {
            src.expand_into(plan.modulus(), limb);
            plan.forward(limb);
        });
    }

    /// `k` empty limbs with room for `N` words each — reserved, not
    /// touched: the thread that fills a limb is the first to write it.
    fn reserve_limbs(&self, k: usize) -> Vec<Vec<u64>> {
        (0..k).map(|_| Vec::with_capacity(self.n)).collect()
    }

    /// The fused rescale hot path: for every kept limb `i`, expand the
    /// centered tail coefficients under `q_i`, forward-transform them
    /// with a **lazy** last stage, and fold the result straight into
    /// `kept[i] = (kept[i] − NTT(tail))·s[i]` — expand, transform,
    /// subtract and scalar-multiply in one per-limb pass with pooled
    /// scratch, instead of a pooled-limbs round trip between separate
    /// engine calls. Bit-identical to [`Self::expand_and_ntt_i64`] +
    /// subtract + scalar-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`, `kept` has more limbs than plans,
    /// or fewer scalars than limbs are supplied.
    pub fn expand_ntt_sub_scalar_mul_all_i64(
        &self,
        kept: &mut [Vec<u64>],
        coeffs: &[i64],
        s: &[u64],
    ) {
        self.expand_ntt_sub_scalar_mul_generic(kept, coeffs, s);
    }

    /// [`Self::expand_ntt_sub_scalar_mul_all_i64`] for the *pair*-rescale
    /// tail: centered `i128` coefficients (the CRT-lifted two-prime
    /// residue, up to ~75 bits).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::expand_ntt_sub_scalar_mul_all_i64`].
    pub fn expand_ntt_sub_scalar_mul_all_i128(
        &self,
        kept: &mut [Vec<u64>],
        coeffs: &[i128],
        s: &[u64],
    ) {
        self.expand_ntt_sub_scalar_mul_generic(kept, coeffs, s);
    }

    fn expand_ntt_sub_scalar_mul_generic<X>(&self, kept: &mut [Vec<u64>], coeffs: &[X], s: &[u64])
    where
        X: Copy + Into<i128> + Sync,
    {
        assert_eq!(coeffs.len(), self.n, "coefficient count must equal N");
        assert!(s.len() >= kept.len(), "fewer scalars than limbs");
        let src = SignedCoeffs::scan(coeffs);
        self.for_each_limb(kept, |i, plan, limb| {
            let mut tail = self.pool.take(self.n);
            src.expand_into(plan.modulus(), &mut tail);
            plan.forward_lazy(&mut tail);
            plan.dyadic().sub_scalar_mul_assign(limb, &tail, s[i]);
            self.pool.put(tail);
        });
    }

    /// The fused public-key-encrypt pass: `c0 = pk0·v + e0 + m` and
    /// `c1 = pk1·v + e1` over the `m.len()` leading primes, limb by limb
    /// on the thread that owns the limb — expand `v` into one pooled
    /// scratch limb, transform and enter it into the dyadic kernel's
    /// domain once; expand `e0` straight into the output limb `c0[i]`,
    /// transform, accumulate `pk0[i]·v̂` onto it and add `m[i]`; the same
    /// for `c1[i]` from `e1` and `pk1[i]`. The two returned polynomials
    /// are the only ones allocated (reserved here, each limb written
    /// once, by its own thread), the key is read in place, and a limb
    /// leaves the cache once.
    ///
    /// `pk0`, `pk1` and `m` are canonical NTT-domain residues in
    /// `[0, q_i)`; every intermediate is canonical too (the transforms
    /// are [`NttPlan::forward`], not its lazy variant, because the
    /// accumulate kernel takes a canonical accumulator), and so is the
    /// result — bit-identical to [`Self::expand_and_ntt`] of `v`, `e0`,
    /// `e1` followed by [`Self::dyadic_mul_add2_all`] and
    /// [`Self::dyadic_mul_add_all`] on copies of the key.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient slice is not `N` long, `m` has more limbs
    /// than plans, a key component has fewer limbs than `m`, or any limb
    /// length differs from `N`.
    pub fn pk_encrypt_all(
        &self,
        v: &[i8],
        e0: &[i64],
        e1: &[i64],
        pk0: &[Vec<u64>],
        pk1: &[Vec<u64>],
        m: &[Vec<u64>],
    ) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let k = m.len();
        assert!(
            v.len() == self.n && e0.len() == self.n && e1.len() == self.n,
            "coefficient count must equal N"
        );
        assert!(pk0.len() >= k && pk1.len() >= k, "fewer key limbs than m");
        let (v, e0, e1) = (
            SignedCoeffs::scan(v),
            SignedCoeffs::scan(e0),
            SignedCoeffs::scan(e1),
        );
        let (mut c0, mut c1) = (self.reserve_limbs(k), self.reserve_limbs(k));
        self.for_each_limb_pair(&mut c0, &mut c1, PARALLEL_THRESHOLD, |i, plan, x0, x1| {
            let (q, d) = (plan.modulus(), plan.dyadic());
            let mut v_hat = self.pool.take(self.n);
            v.expand_into(q, &mut v_hat);
            plan.forward(&mut v_hat);
            d.premul(&mut v_hat);
            for (x, e, pk) in [(&mut *x0, &e0, &pk0[i]), (&mut *x1, &e1, &pk1[i])] {
                e.expand_into(q, x);
                plan.forward(x);
                d.mul_acc_assign_premul(x, pk, &v_hat);
            }
            d.add_assign(x0, &m[i]);
            self.pool.put(v_hat);
        });
        (c0, c1)
    }

    // ------------------------------------------------------------------
    // RNS-wide element-wise (dyadic) operations
    // ------------------------------------------------------------------
    //
    // One engine call per ciphertext-level operation instead of a
    // per-limb loop at every call site: limb `i` runs on its plan's
    // [`abc_math::dyadic::DyadicEngine`] (ifma → montgomery dispatch)
    // and the limbs fan out across the same scoped threads the
    // transforms use. Bit-identical to the serial per-limb loop.

    /// `a[i][j] = a[i][j]·b[i][j] mod q_i` — the RNS-wide dyadic
    /// product (`b` may carry more limbs than `a`; the leading ones are
    /// used).
    ///
    /// # Panics
    ///
    /// Panics if `a` has more limbs than plans, `b` has fewer limbs
    /// than `a`, or paired limb lengths differ.
    pub fn dyadic_mul_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().mul_assign(limb, &b[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = a[i][j]·b[i][j] + c[i][j] mod q_i` — the fused RNS-wide
    /// kernel behind `pk·v + e` (encrypt) and `c1·s + c0` (decrypt).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`], extended to `c`.
    pub fn dyadic_mul_add_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>], c: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        assert!(c.len() >= a.len(), "fewer addend limbs than targets");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().mul_add_assign(limb, &b[i], &c[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = c[i][j] − a[i][j]·b[i][j] mod q_i` — the keygen shape
    /// `−(a·s) + e` as **one** RNS-wide pass (multiply, negate and add
    /// fused per element; previously three full memory passes).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`], extended to `c`.
    pub fn dyadic_mul_neg_add_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>], c: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        assert!(c.len() >= a.len(), "fewer addend limbs than targets");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().mul_neg_add_assign(limb, &b[i], &c[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = c[i][j] + d[i][j] − a[i][j]·b[i][j] mod q_i` — the
    /// symmetric-encrypt `c0` chain `−(a·s) + e + m` as **one** RNS-wide
    /// pass (previously four).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`], extended to `c`/`d`.
    pub fn dyadic_mul_neg_add2_all(
        &self,
        a: &mut [Vec<u64>],
        b: &[Vec<u64>],
        c: &[Vec<u64>],
        d: &[Vec<u64>],
    ) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        assert!(
            c.len() >= a.len() && d.len() >= a.len(),
            "fewer addend limbs than targets"
        );
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().mul_neg_add2_assign(limb, &b[i], &c[i], &d[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = a[i][j]·b[i][j] + c[i][j] + d[i][j] mod q_i` — the
    /// public-key-encrypt `c0` chain `pk0·v + e0 + m` as **one** RNS-wide
    /// pass.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`], extended to `c`/`d`.
    pub fn dyadic_mul_add2_all(
        &self,
        a: &mut [Vec<u64>],
        b: &[Vec<u64>],
        c: &[Vec<u64>],
        d: &[Vec<u64>],
    ) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        assert!(
            c.len() >= a.len() && d.len() >= a.len(),
            "fewer addend limbs than targets"
        );
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().mul_add2_assign(limb, &b[i], &c[i], &d[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = (a[i][j] − b[i][j])·s[i] mod q_i` — the rescale shape
    /// `(c_i − tail)·q_last^{-1}` as **one** RNS-wide pass (previously a
    /// subtract pass plus a scalar-multiply pass). Subtrahend limbs may
    /// arrive `[0, 4q_i)`-**lazy** straight out of
    /// [`NttPlan::forward_lazy`]; scalars are reduced on entry.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more limbs than plans or `b`/`s` carry fewer
    /// entries than `a` has limbs.
    pub fn sub_scalar_mul_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>], s: &[u64]) {
        assert!(b.len() >= a.len(), "fewer subtrahend limbs than targets");
        assert!(s.len() >= a.len(), "fewer scalars than limbs");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().sub_scalar_mul_assign(limb, &b[i], s[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// Forward NTT of every limb with the last stage fused into the
    /// following dyadic multiply: `a[i] = NTT(a[i]) ⊙ b[i]`. The
    /// transform leaves its output `[0, 4q)`-lazy and the multiply
    /// normalizes in-register, so the stage boundary costs no extra
    /// memory pass. Bit-identical to [`Self::forward_all`] followed by
    /// [`Self::dyadic_mul_all`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::forward_all`], plus `b` must carry at
    /// least as many limbs as `a`.
    pub fn forward_all_then_mul(&self, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer multiplier limbs than targets");
        self.for_each_limb(a, |i, plan, limb| {
            plan.forward_lazy(limb);
            plan.dyadic().mul_assign_lazy(limb, &b[i]);
        });
    }

    /// `a[i] = INTT(a[i] − b[i])` per limb — the canonical subtraction
    /// fused into the first inverse-NTT stage (one read of each operand
    /// instead of a subtract pass plus a transform pass).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::inverse_all`], plus `b` must carry at
    /// least as many limbs as `a`.
    pub fn sub_then_inverse_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer subtrahend limbs than targets");
        self.for_each_limb(a, |i, plan, limb| plan.sub_then_inverse(limb, &b[i]));
    }

    /// `dst[i] = INTT(src[i])` per limb — out-of-place batched inverse
    /// with the copy folded into the first inverse-NTT stage (`src` is
    /// read once, directly by the transform).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::inverse_all`] on `dst`, plus `src` must
    /// carry at least as many limbs as `dst`.
    pub fn inverse_all_from(&self, src: &[Vec<u64>], dst: &mut [Vec<u64>]) {
        assert!(src.len() >= dst.len(), "fewer source limbs than targets");
        self.for_each_limb(dst, |i, plan, limb| plan.inverse_from(&src[i], limb));
    }

    /// Multiplies **both** ciphertext components by the same RNS vector
    /// (`a0[i] ⊙= b[i]`, `a1[i] ⊙= b[i]`), entering `b` into each
    /// kernel's Montgomery domain once per limb and reusing the
    /// premultiplied form for the pair — the plaintext-multiplication
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if the component limb counts differ, exceed the plans, or
    /// `b` carries fewer limbs; and if any limb's length differs from
    /// `N`.
    pub fn dyadic_mul_pair_all(&self, a0: &mut [Vec<u64>], a1: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a0.len(), "fewer multiplier limbs than targets");
        self.for_each_limb_pair(a0, a1, DYADIC_PARALLEL_THRESHOLD, |i, plan, x0, x1| {
            let d = plan.dyadic();
            // Enter b_i once (pooled scratch), multiply both components
            // against the premultiplied form — one conversion pass
            // amortized over two products.
            let mut pre = self.pool.take(self.n);
            pre.copy_from_slice(&b[i]);
            d.premul(&mut pre);
            d.mul_assign_premul(x0, &pre);
            d.mul_assign_premul(x1, &pre);
            self.pool.put(pre);
        });
    }

    /// Fused key-switch accumulate: for every limb `i`,
    /// `acc0[i] += d[i]·b[i]` and `acc1[i] += d[i]·a[i]` (mod `q_i`).
    /// The digit `d` enters each kernel's Montgomery domain once per
    /// limb and the premultiplied form is reused for both products —
    /// the inner loop of RNS-gadget key switching, where one decomposed
    /// digit multiplies both halves of its key-switching-key pair.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator limb counts differ, exceed the plans,
    /// or `d`/`b`/`a` carry fewer limbs; and if any limb's length
    /// differs from `N`.
    pub fn dyadic_mul_acc_pair_all(
        &self,
        acc0: &mut [Vec<u64>],
        acc1: &mut [Vec<u64>],
        d: &[Vec<u64>],
        b: &[Vec<u64>],
        a: &[Vec<u64>],
    ) {
        let k = acc0.len();
        assert!(d.len() >= k, "fewer digit limbs than accumulators");
        assert!(
            b.len() >= k && a.len() >= k,
            "fewer key limbs than accumulators"
        );
        self.for_each_limb_pair(acc0, acc1, DYADIC_PARALLEL_THRESHOLD, |i, plan, x0, x1| {
            let dy = plan.dyadic();
            // Enter d_i once (pooled scratch); each product folds
            // straight into its accumulator through the fused
            // multiply-accumulate — no per-product scratch buffer and
            // no separate add pass.
            let mut pre = self.pool.take(self.n);
            pre.copy_from_slice(&d[i]);
            dy.premul(&mut pre);
            dy.mul_acc_assign_premul(x0, &b[i], &pre);
            dy.mul_acc_assign_premul(x1, &a[i], &pre);
            self.pool.put(pre);
        });
    }

    /// `a[i][j] = a[i][j]·s[i] mod q_i` — per-limb scalar multiply (the
    /// rescale `q_last^{-1}` pass). Scalars are reduced on entry.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more limbs than plans or fewer scalars than
    /// limbs are supplied.
    pub fn dyadic_scalar_mul_all(&self, a: &mut [Vec<u64>], s: &[u64]) {
        assert!(s.len() >= a.len(), "fewer scalars than limbs");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().scalar_mul_assign(limb, s[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = a[i][j] + b[i][j] mod q_i`, RNS-wide.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`].
    pub fn add_assign_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer addend limbs than targets");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().add_assign(limb, &b[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = a[i][j] − b[i][j] mod q_i`, RNS-wide.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::dyadic_mul_all`].
    pub fn sub_assign_all(&self, a: &mut [Vec<u64>], b: &[Vec<u64>]) {
        assert!(b.len() >= a.len(), "fewer subtrahend limbs than targets");
        self.for_each_limb_threshold(
            a,
            |i, plan, limb| plan.dyadic().sub_assign(limb, &b[i]),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// `a[i][j] = −a[i][j] mod q_i`, RNS-wide.
    ///
    /// # Panics
    ///
    /// Panics if `a` has more limbs than plans.
    pub fn neg_assign_all(&self, a: &mut [Vec<u64>]) {
        self.for_each_limb_threshold(
            a,
            |_, plan, limb| plan.dyadic().neg_assign(limb),
            DYADIC_PARALLEL_THRESHOLD,
        );
    }

    /// Applies `f(i, plan_i, limb_i)` to every limb, splitting the limbs
    /// into contiguous chunks across scoped threads. Small batches
    /// (`limbs × N` below [`PARALLEL_THRESHOLD`]) run serially: thread
    /// spawn costs more than it saves there.
    fn for_each_limb<F>(&self, limbs: &mut [Vec<u64>], f: F)
    where
        F: Fn(usize, &NttPlan, &mut Vec<u64>) + Sync,
    {
        self.for_each_limb_threshold(limbs, f, PARALLEL_THRESHOLD);
    }

    /// [`Self::for_each_limb`] with an explicit serial/parallel cutoff
    /// (the dyadic ops amortize spawns over less work per limb).
    fn for_each_limb_threshold<F>(&self, limbs: &mut [Vec<u64>], f: F, threshold: usize)
    where
        F: Fn(usize, &NttPlan, &mut Vec<u64>) + Sync,
    {
        let k = limbs.len();
        assert!(k <= self.plans.len(), "more limbs than plans");
        let plans = &self.plans[..k];
        let threads = self.threads.min(k);
        if threads <= 1 || k * self.n < threshold {
            for (i, (plan, limb)) in plans.iter().zip(limbs.iter_mut()).enumerate() {
                f(i, plan, limb);
            }
            return;
        }
        let chunk = k.div_ceil(threads);
        let f = &f;
        std::thread::scope(|s| {
            for (t, (pc, lc)) in plans.chunks(chunk).zip(limbs.chunks_mut(chunk)).enumerate() {
                s.spawn(move || {
                    for (j, (plan, limb)) in pc.iter().zip(lc.iter_mut()).enumerate() {
                        f(t * chunk + j, plan, limb);
                    }
                });
            }
        });
    }

    /// [`Self::for_each_limb_threshold`] over the paired limbs of two
    /// components: `f(i, plan_i, a0_i, a1_i)`, so limb `i` of both stays
    /// on one thread. The cutoff counts both components' work
    /// (`2 × limbs × N`).
    fn for_each_limb_pair<F>(
        &self,
        a0: &mut [Vec<u64>],
        a1: &mut [Vec<u64>],
        threshold: usize,
        f: F,
    ) where
        F: Fn(usize, &NttPlan, &mut Vec<u64>, &mut Vec<u64>) + Sync,
    {
        let k = a0.len();
        assert_eq!(k, a1.len(), "component limb counts differ");
        assert!(k <= self.plans.len(), "more limbs than plans");
        let plans = &self.plans[..k];
        let threads = self.threads.min(k);
        if threads <= 1 || 2 * k * self.n < threshold {
            for (i, ((plan, x0), x1)) in plans.iter().zip(a0).zip(a1).enumerate() {
                f(i, plan, x0, x1);
            }
            return;
        }
        let chunk = k.div_ceil(threads);
        let f = &f;
        std::thread::scope(|s| {
            let chunks = plans
                .chunks(chunk)
                .zip(a0.chunks_mut(chunk))
                .zip(a1.chunks_mut(chunk));
            for (t, ((pc, c0), c1)) in chunks.enumerate() {
                s.spawn(move || {
                    for (j, ((plan, x0), x1)) in pc.iter().zip(c0).zip(c1).enumerate() {
                        f(t * chunk + j, plan, x0, x1);
                    }
                });
            }
        });
    }
}

/// Parses a raw `ABC_FHE_THREADS` value: `None` or a blank string means
/// "no override" (`Ok(None)`); a thread count in `1..=64` wins.
///
/// Pure so the policy is testable without mutating process environment;
/// env readers go through [`threads_from_env`].
///
/// # Errors
///
/// Anything else — garbage, `0`, out-of-range — is an error naming the
/// variable and the accepted range. A typo'd override must not silently
/// bench on a default thread count.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(t) if (1..=64).contains(&t) => Ok(Some(t)),
        _ => Err(format!(
            "{THREADS_ENV}={raw:?} is not a thread count in 1..=64 \
             (unset it or pass e.g. {THREADS_ENV}=4)"
        )),
    }
}

/// Resolves the engine thread count: a valid `ABC_FHE_THREADS` value in
/// `1..=64` wins; unset/blank falls back to the machine's available
/// parallelism, capped at 8.
///
/// # Panics
///
/// Panics with one clear message on an invalid override (see
/// [`parse_threads`]) — engines are constructed at startup, where
/// failing fast beats silently running every benchmark on the wrong
/// thread count.
pub fn threads_from_env() -> usize {
    match parse_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
        Ok(Some(t)) => t,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8),
        Err(msg) => panic!("{msg}"),
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

    #[test]
    fn pool_evicts_past_byte_watermark() {
        // 2^14 words × 8 B = 128 KiB per buffer: 128 returned buffers
        // would retain 16 MiB without the byte cap; the watermark keeps
        // only MAX_POOLED_BYTES / 128 KiB = 64... capped at
        // MAX_POOLED_BUFS first, so double the length to make the byte
        // cap bind: 2^15 words = 256 KiB per buffer → 32 retained.
        let n = 1usize << 15;
        let ms = moduli(1, 2 * n as u64);
        let engine = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        let bufs: Vec<_> = (0..128).map(|_| engine.take_buf()).collect();
        for b in bufs {
            engine.recycle(b);
        }
        assert!(engine.pooled_bytes() <= MAX_POOLED_BYTES);
        let per_buf = n * core::mem::size_of::<u64>();
        assert_eq!(engine.pooled_bufs(), MAX_POOLED_BYTES / per_buf);
        // Taking drains the accounting symmetrically.
        let b = engine.take_buf();
        assert_eq!(
            engine.pooled_bytes(),
            MAX_POOLED_BYTES / per_buf * per_buf - per_buf
        );
        engine.recycle(b);
    }

    #[test]
    fn engine_matches_per_limb_plans_across_thread_counts() {
        // n·k = 2^13·6 clears PARALLEL_THRESHOLD, so threads really spawn.
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
        // i64 variant against the same manual path.
        let small: Vec<i64> = (0..n as i64).map(|i| i - 16).collect();
        let pooled = engine.expand_and_ntt_i64(&small, 2);
        for (i, m) in ms[..2].iter().enumerate() {
            let mut manual: Vec<u64> = small.iter().map(|&x| m.from_i64(x)).collect();
            engine.plan(i).forward(&mut manual);
            assert_eq!(pooled[i], manual, "limb {i}");
        }
        drop(pooled);
        // i128 variant with pair-rescale-sized (≈75-bit) centered values.
        let wide: Vec<i128> = (0..n as i128)
            .map(|i| (i - 16) * ((1i128 << 70) + 12345))
            .collect();
        let pooled = engine.expand_and_ntt_i128(&wide, 2);
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
            engine.dyadic_mul_acc_pair_all(&mut acc0, &mut acc1, &d, &b, &a);
            assert_eq!(acc0, reference0, "threads={threads}");
            assert_eq!(acc1, reference1, "threads={threads}");
        }
    }

    #[test]
    fn fused_ops_match_unfused_sequences_across_thread_counts() {
        // k·n = 8·2^13 = 2^16 reaches both PARALLEL_THRESHOLD and
        // DYADIC_PARALLEL_THRESHOLD, so the threaded paths really run.
        let n = 1usize << 13;
        let ms = moduli(8, 2 * n as u64);
        let k = ms.len();
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
        // Unfused references on a single-threaded engine.
        let serial = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        let refs = {
            let mut mul_neg_add = a0.clone();
            serial.dyadic_mul_all(&mut mul_neg_add, &b);
            serial.neg_assign_all(&mut mul_neg_add);
            serial.add_assign_all(&mut mul_neg_add, &c);
            let mut mul_neg_add2 = a0.clone();
            serial.dyadic_mul_all(&mut mul_neg_add2, &b);
            serial.neg_assign_all(&mut mul_neg_add2);
            serial.add_assign_all(&mut mul_neg_add2, &c);
            serial.add_assign_all(&mut mul_neg_add2, &d);
            let mut mul_add2 = a0.clone();
            serial.dyadic_mul_add_all(&mut mul_add2, &b, &c);
            serial.add_assign_all(&mut mul_add2, &d);
            let mut sub_scalar = a0.clone();
            serial.sub_assign_all(&mut sub_scalar, &b);
            serial.dyadic_scalar_mul_all(&mut sub_scalar, &scalars);
            let mut fwd_mul = a0.clone();
            serial.forward_all(&mut fwd_mul);
            serial.dyadic_mul_all(&mut fwd_mul, &b);
            let mut sub_inv = a0.clone();
            serial.sub_assign_all(&mut sub_inv, &b);
            serial.inverse_all(&mut sub_inv);
            let mut inv = a0.clone();
            serial.inverse_all(&mut inv);
            let mut resc64 = a0.clone();
            let tails = serial.expand_and_ntt_i64(&coeffs64, k);
            serial.sub_assign_all(&mut resc64, &tails);
            serial.dyadic_scalar_mul_all(&mut resc64, &scalars);
            drop(tails);
            let mut resc128 = a0.clone();
            let tails = serial.expand_and_ntt_i128(&coeffs128, k);
            serial.sub_assign_all(&mut resc128, &tails);
            serial.dyadic_scalar_mul_all(&mut resc128, &scalars);
            (
                mul_neg_add,
                mul_neg_add2,
                mul_add2,
                sub_scalar,
                fwd_mul,
                sub_inv,
                inv,
                resc64,
                resc128,
            )
        };
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&ms, n, threads).unwrap();
            let mut got = a0.clone();
            engine.dyadic_mul_neg_add_all(&mut got, &b, &c);
            assert_eq!(got, refs.0, "mul_neg_add threads={threads}");
            let mut got = a0.clone();
            engine.dyadic_mul_neg_add2_all(&mut got, &b, &c, &d);
            assert_eq!(got, refs.1, "mul_neg_add2 threads={threads}");
            let mut got = a0.clone();
            engine.dyadic_mul_add2_all(&mut got, &b, &c, &d);
            assert_eq!(got, refs.2, "mul_add2 threads={threads}");
            let mut got = a0.clone();
            engine.sub_scalar_mul_all(&mut got, &b, &scalars);
            assert_eq!(got, refs.3, "sub_scalar_mul threads={threads}");
            let mut got = a0.clone();
            engine.forward_all_then_mul(&mut got, &b);
            assert_eq!(got, refs.4, "forward_then_mul threads={threads}");
            let mut got = a0.clone();
            engine.sub_then_inverse_all(&mut got, &b);
            assert_eq!(got, refs.5, "sub_then_inverse threads={threads}");
            let mut got = vec![vec![u64::MAX; n]; k];
            engine.inverse_all_from(&a0, &mut got);
            assert_eq!(got, refs.6, "inverse_all_from threads={threads}");
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all_i64(&mut got, &coeffs64, &scalars);
            assert_eq!(got, refs.7, "fused rescale i64 threads={threads}");
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all_i128(&mut got, &coeffs128, &scalars);
            assert_eq!(got, refs.8, "fused rescale i128 threads={threads}");
        }
    }

    #[test]
    fn pool_recycles_buffers() {
        let n = 16usize;
        let ms = moduli(2, 2 * n as u64);
        let engine = RnsNttEngine::with_threads(&ms, n, 1).unwrap();
        let mut buf = engine.take_buf();
        buf[0] = 0xDEAD;
        let ptr = buf.as_ptr();
        engine.recycle(buf);
        // The same allocation comes back (contents unspecified — no
        // memset on the hot path).
        let again = engine.take_buf();
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), n);
        drop(again);
        // PooledLimbs returns its buffers on drop: the next checkout
        // reuses the allocations instead of growing the pool.
        let (p0, p1) = {
            let mut limbs = engine.take_limbs(2);
            limbs[0][0] = 1;
            (limbs[0].as_ptr(), limbs[1].as_ptr())
        };
        let back = engine.take_limbs(2);
        let ptrs = [back[0].as_ptr(), back[1].as_ptr()];
        assert!(ptrs.contains(&p0) && ptrs.contains(&p1));
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
        // would panic in `threads_from_env`, not fall back).
        assert!(threads_from_env() >= 1);
    }
}
