//! Negacyclic NTT/INTT with merged twiddles (paper Eq. 2/3).
//!
//! The nega-cyclic property of `Z_q[X]/(X^N + 1)` normally requires a
//! pre-multiplication by `ψ^i` before a cyclic NTT and a post-
//! multiplication by `ψ^{-k}` after the INTT. Following refs \[27\]/\[30\],
//! both are *merged* into the stage twiddles: the forward transform runs
//! Cooley–Tukey butterflies on `ψ^{brv(m+i)}` (odd powers of the 2N-th
//! root), the inverse runs Gentleman–Sande on the inverse powers and a
//! final `N^{-1}` scale. No extra multiplier columns remain — this is the
//! algorithmic fact behind the paper's twiddle-factor-scheduling area
//! saving (Fig. 6a).
//!
//! A plan is resident as **two `N`-word columns**: the forward twiddles
//! of its [`TwiddleTable`] and their quotients in the one radix its
//! kernel multiplies through. The inverse direction reads the same two
//! backwards (`ψ^N = −1`, see [`crate::twiddle`]).
//!
//! Two kernels run a plan, one per rung of the kernel ladder: `ifma`
//! and `harvey`. The plan owns the table, the quotient column, the rung
//! choice and the `harvey` kernel; the `ifma` butterfly passes live with
//! the rest of the AVX-512IFMA datapath in `abc_math::simd`, which the
//! plan calls through three safe functions. The golden model — plain
//! `u128` modular arithmetic over the same table, Longa–Naehrig
//! Algorithms 1 and 2 — is not a rung: it is [`NttPlan::forward_golden`]
//! / [`NttPlan::inverse_golden`], the oracle the suites pin both kernels
//! against.

use crate::twiddle::TwiddleTable;
use abc_math::dyadic::{DyadicEngine, Head, Tail};
use abc_math::rns::{SignedCoeffs, SignedWord};
use abc_math::shoup::{self, MAX_SHOUP52_MODULUS};
use abc_math::{CpuCaps, KernelTier, MathError, Modulus};

/// Debug builds: panics unless every lane of `a` is below `bound` once
/// the stage `what` has run — the lazy domains the `harvey` kernel hands
/// on (`[0, 4q)` forward, `[0, 2q)` inverse, `[0, q)` once canonical),
/// checked where the next stage relies on them.
#[cfg(debug_assertions)]
fn assert_domain(a: &[u64], bound: u64, what: core::fmt::Arguments<'_>) {
    if let Some(i) = a.iter().position(|&x| x >= bound) {
        panic!("{what}: lane {i} = {} is not below {bound}", a[i]);
    }
}

/// A ready-to-run negacyclic NTT over one RNS prime.
///
/// Construction precomputes a [`TwiddleTable`]. [`NttPlan::forward`]
/// and [`NttPlan::inverse`] run **Harvey butterflies**: every twiddle
/// multiply becomes high-products against the plan's precomputed Shoup
/// quotients (eight 52-bit lanes at a time on AVX-512IFMA machines, two
/// 64-bit `mulhi`s scalar otherwise) and reduction is deferred — values
/// travel in `[0, 4q)` (forward) / `[0, 2q)` (inverse) across stages
/// and are normalized once at the end. This needs `q < 2^62`, which
/// every [`Modulus`] is; every output is bit-identical to the golden
/// model ([`NttPlan::forward_golden`], [`NttPlan::inverse_golden`]).
///
/// # Example
///
/// ```
/// use abc_math::Modulus;
/// use abc_transform::ntt::NttPlan;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let plan = NttPlan::new(Modulus::new(0xFFF0_0001)?, 16)?;
/// let mut poly: Vec<u64> = (0..16).collect();
/// let original = poly.clone();
/// plan.forward(&mut poly);
/// plan.inverse(&mut poly);
/// assert_eq!(poly, original);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttPlan {
    m: Modulus,
    n: usize,
    table: TwiddleTable,
    /// Shoup quotients of the table's forward column in the radix the
    /// kernel reads — `floor(w·2^52/q)` for `Simd`, `floor(w·2^64/q)`
    /// for `Scalar`.
    quotients: Vec<u64>,
    /// The quotient of `N^{-1}` in the same radix.
    n_inv_quotient: u64,
    /// The ladder rung [`NttPlan::with_kernel`] landed on: `Simd` =
    /// ifma (never off x86-64), `Scalar` = harvey.
    kernel: KernelTier,
    /// Element-wise engine for the dyadic stage of negacyclic products,
    /// built on the same tier as the butterfly kernel.
    dyadic: DyadicEngine,
}

impl NttPlan {
    /// Builds a plan for transform size `n` (power of two ≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] if `q ≢ 1 (mod 2n)` and
    /// [`MathError::InvalidModulus`] for non-power-of-two sizes.
    pub fn new(m: Modulus, n: usize) -> Result<Self, MathError> {
        Self::with_kernel(m, n, KernelTier::Auto)
    }

    /// Builds a plan on an explicit rung of the kernel ladder
    /// ([`KernelTier::Auto`] honours the `ABC_FHE_KERNEL` override,
    /// explicit tiers do not). Capability rules still apply — `Simd`
    /// needs `q < 2^50`, `N ≥ 16` and an AVX-512IFMA CPU and degrades
    /// to `Scalar` without them; check [`NttPlan::kernel_name`]. Used by
    /// the test suites to exercise every kernel regardless of which one
    /// [`NttPlan::new`] would pick on this machine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NttPlan::new`].
    ///
    /// # Panics
    ///
    /// Panics if `Auto` reads an unparseable override.
    pub fn with_kernel(m: Modulus, n: usize, tier: KernelTier) -> Result<Self, MathError> {
        let tier = tier.or_env();
        let q = m.q();
        let ifma_ok = q < MAX_SHOUP52_MODULUS && n >= 16 && CpuCaps::detect().ifma();
        // The rung first, then the one quotient column that rung reads.
        let kernel = tier.degrade(ifma_ok);
        let precompute: fn(u64, u64) -> u64 = match kernel {
            KernelTier::Simd => shoup::shoup_precompute52,
            _ => shoup::shoup_precompute,
        };
        let table = TwiddleTable::new(m, n)?;
        let column = table.forward_column().iter();
        let quotients = column.map(|&w| precompute(w, q)).collect();
        let n_inv_quotient = precompute(table.n_inv(), q);
        Ok(Self {
            m,
            n,
            table,
            quotients,
            n_inv_quotient,
            kernel,
            // The dyadic engine takes the same tier, degraded by its own
            // capability facts.
            dyadic: DyadicEngine::with_kernel(m, tier),
        })
    }

    /// The element-wise (dyadic) engine matched to this plan's modulus.
    pub fn dyadic(&self) -> &DyadicEngine {
        &self.dyadic
    }

    /// Name of the butterfly kernel this plan dispatches to (`"harvey"`
    /// or `"ifma"`), for diagnostics and bench labelling.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            KernelTier::Simd => "ifma",
            _ => "harvey",
        }
    }

    /// The modulus of this plan.
    pub fn modulus(&self) -> &Modulus {
        &self.m
    }

    /// Transform size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The precomputed twiddle table (share its `ψ` with an OTF
    /// generator via [`TwiddleTable::psi`]).
    pub fn table(&self) -> &TwiddleTable {
        &self.table
    }

    /// Bytes of twiddle memory this plan keeps resident: the table's
    /// forward column plus the kernel's quotient column, `2·N·8`.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.table.forward_column().len() + self.quotients.len()) * 8
    }

    /// In-place forward negacyclic NTT (coefficients → evaluations, in
    /// bit-reversed order internally — `forward` then `inverse` is the
    /// identity, and dyadic products between forward outputs are valid).
    ///
    /// The output is canonical in `[0, q)` and bit-identical to
    /// [`NttPlan::forward_golden`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal N");
        let q = self.m.q();
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => {
                abc_math::simd::ntt_forward(a, q, self.table.forward_column(), &self.quotients);
            }
            _ => {
                self.forward_harvey_lazy(a);
                a.iter_mut().for_each(|x| *x = shoup::normalize_4q(*x, q));
            }
        }
    }

    /// The streamed forward transform: `ŷ = NTT(src mod q)` into `buf`
    /// (cleared and refilled to `N` words), finished by `tail` — the
    /// dyadic op that follows a transform, named by [`Tail`]: none,
    /// [`DyadicEngine::premul`], `ŷ + b·d̃ (+ c)` into `buf`, or
    /// `dst = ŷ (+ t) − dst·s` / `dst = (dst − ŷ)·w` into the tail's own
    /// `dst`, `buf` then being scratch. Every operand is canonical in
    /// `[0, q)`, and so is the result, bit-identical on both rungs to the
    /// composition `expand_into → forward → apply_tail`.
    ///
    /// On the `ifma` rung that composition is one transform
    /// ([`abc_math::simd::ntt_forward_stream`]): its first
    /// pass loads `src`'s signed coefficients and reduces them in
    /// registers, and its last pass applies the tail to the lanes it
    /// already holds, so no residue limb is written before the transform
    /// and no element-wise pass follows it. The `harvey` rung runs the
    /// composition itself ([`DyadicEngine::expand_into`], the transform,
    /// [`DyadicEngine::apply_tail`]). Debug builds check the tail's
    /// operands and the result for `[0, q)`.
    ///
    /// # Panics
    ///
    /// Panics if `src` does not hold `N` coefficients or a tail operand
    /// is not `N` words long.
    pub fn forward_stream<X: SignedWord>(
        &self,
        src: &SignedCoeffs<'_, X>,
        buf: &mut Vec<u64>,
        tail: Tail<'_>,
    ) {
        assert_eq!(src.coeffs().len(), self.n, "coefficient count must equal N");
        #[cfg(debug_assertions)]
        for (k, operand) in tail.operands().into_iter().flatten().enumerate() {
            let what = format_args!("forward_stream tail operand {k}");
            assert_domain(operand, self.m.q(), what);
        }
        #[cfg_attr(not(debug_assertions), allow(unused_variables))]
        let out = match self.kernel {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => abc_math::simd::ntt_forward_stream(
                src,
                buf,
                self.table.forward_column(),
                &self.quotients,
                &self.dyadic,
                tail,
            ),
            _ => {
                self.dyadic.expand_into(src, buf);
                self.forward(buf);
                self.dyadic.apply_tail(buf, tail)
            }
        };
        #[cfg(debug_assertions)]
        assert_domain(out, self.m.q(), format_args!("forward_stream result"));
    }

    /// In-place inverse negacyclic INTT, bit-identical to
    /// [`NttPlan::inverse_golden`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        self.inverse_stream(Head::InPlace, a);
    }

    /// Out-of-place inverse: `dst = INTT(src)`, with the copy fused
    /// into the first inverse stage (the fast kernels read `src` and
    /// write `dst` in the same butterfly pass — one memory trip fewer
    /// than `copy_from_slice` + [`NttPlan::inverse`]). `src` must be
    /// canonical; `dst` contents are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either length differs from `N`.
    pub fn inverse_from(&self, src: &[u64], dst: &mut [u64]) {
        self.inverse_stream(Head::Words(src), dst);
    }

    /// The streamed inverse transform: `dst = INTT(x)`, where `x` is what
    /// `head` names — `dst` itself, another slice, or decryption's
    /// `c1·s + c0` — read by the transform's first stage, so no pass
    /// precedes it. Every operand is canonical in `[0, q)` (checked for
    /// `s` in debug builds), and so is the result, bit-identical on both
    /// rungs to the head's op into `dst` ([`DyadicEngine::mul_add_assign`]
    /// over a copy of `c1`, for [`Head::MulAdd`]) followed by
    /// [`NttPlan::inverse`].
    ///
    /// On the `ifma` rung ([`abc_math::simd::ntt_inverse`]) the head is
    /// a loader of the first pass, computing `c1·s + c0` in registers;
    /// the `harvey` rung runs the same step per word
    /// ([`DyadicEngine::mul_add_word`]) in its first stage's loads.
    ///
    /// Returns whether every `c1` and `c0` word of a [`Head::MulAdd`] was
    /// below `q` — the one check a ciphertext from outside the program
    /// needs before arithmetic, made on words the transform loads anyway.
    /// A lane whose word was not enters the transform as 0, so `dst` is
    /// then a transform of something else and the caller discards it.
    /// The other heads always report `true`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` or a head operand does not hold `N` words.
    pub fn inverse_stream(&self, head: Head<'_>, dst: &mut [u64]) -> bool {
        assert_eq!(dst.len(), self.n, "polynomial length must equal N");
        for operand in head.operands().into_iter().flatten() {
            assert_eq!(operand.len(), self.n, "source length must equal N");
        }
        #[cfg(debug_assertions)]
        if let Head::MulAdd { s, .. } = head {
            assert_domain(s, self.m.q(), format_args!("inverse_stream multiplier"));
        }
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => abc_math::simd::ntt_inverse(
                dst,
                head,
                self.table.forward_column(),
                &self.quotients,
                self.table.n_inv(),
                self.n_inv_quotient,
                &self.dyadic,
            ),
            _ => self.inverse_harvey(dst, head),
        }
    }

    /// Cooley–Tukey forward transform with Harvey butterflies: the
    /// twiddle multiply is `mul_shoup_lazy` (two `mulhi`s, no division)
    /// and stage outputs stay in `[0, 4q)`, the last stage's included —
    /// the caller normalizes to `[0, q)`, or a fused consumer does.
    fn forward_harvey_lazy(&self, a: &mut [u64]) {
        let q = self.m.q();
        let two_q = 2 * q;
        let (tw, tw_shoup) = (self.table.forward_column(), &self.quotients[..]);
        let n = self.n;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            // Stage with `m` groups of 2t lanes: group `i` is the chunk
            // a[2it .. 2(i+1)t] and multiplies by tw[m + i]. Iterator
            // chunking keeps the hot loop free of bounds checks.
            let stage_w = tw[m..2 * m].iter().zip(&tw_shoup[m..2 * m]);
            for (chunk, (&w, &ws)) in a.chunks_exact_mut(2 * t).zip(stage_w) {
                let (lo, hi) = chunk.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // Invariant: inputs < 4q. One conditional subtract
                    // brings the upper leg into [0, 2q); the twiddle leg
                    // is fine at any u64 (mul_shoup_lazy reduces it).
                    let u = shoup::reduce_once(*x, two_q);
                    let v = shoup::mul_shoup_lazy(*y, w, ws, q);
                    *x = u + v;
                    *y = u + two_q - v;
                }
            }
            #[cfg(debug_assertions)]
            assert_domain(a, 4 * q, format_args!("harvey forward, span {t}"));
            m <<= 1;
        }
    }

    /// Gentleman–Sande inverse transform with Harvey butterflies: sums
    /// are reduced lazily into `[0, 2q)`, differences go through
    /// `mul_shoup_lazy`, and the final `N^{-1}` scale doubles as the
    /// normalization to `[0, q)`. Group `i` of a stage of `h` groups
    /// multiplies by `−tw[2h − 1 − i]`: each stage zips its chunks with
    /// the **forward** block `[h, 2h)` reversed and lifts the difference
    /// the other way round, `v + 2q − u ∈ (0, 4q)`. The first stage's
    /// loads read through `head` ([`NttPlan::inverse_stream`]'s contract
    /// and return value).
    fn inverse_harvey(&self, a: &mut [u64], head: Head<'_>) -> bool {
        let mut refused = false;
        match head {
            Head::InPlace => self.inverse_harvey_with(a, |a, j| a[j]),
            Head::Words(src) => self.inverse_harvey_with(a, |_, j| src[j]),
            Head::MulAdd { c1, s, c0 } => {
                let (q, dyadic) = (self.m.q(), &self.dyadic);
                self.inverse_harvey_with(a, |_, j| {
                    // A refused word enters as 0: `0·s + 0`.
                    let ok = c1[j] < q && c0[j] < q;
                    refused |= !ok;
                    let keep = u64::from(ok).wrapping_neg();
                    dyadic.mul_add_word(c1[j] & keep, s[j], c0[j] & keep)
                });
            }
        }
        !refused
    }

    /// [`NttPlan::inverse_harvey`] with its first stage's word `j` read
    /// by `load` (given `a` as it stands, before the stage writes pair
    /// `j / 2`).
    fn inverse_harvey_with(&self, a: &mut [u64], mut load: impl FnMut(&[u64], usize) -> u64) {
        let q = self.m.q();
        let two_q = 2 * q;
        let (tw, tw_shoup) = (self.table.forward_column(), &self.quotients[..]);
        let stage_w = |h: usize| tw[h..2 * h].iter().zip(&tw_shoup[h..2 * h]).rev();
        let n = self.n;
        // Fused first stage (t = 1, adjacent pairs): read through
        // `load`, write `a`. Lanes land < 2q, as every stage expects.
        for (i, (&w, &ws)) in stage_w(n >> 1).enumerate() {
            let (u, v) = (load(a, 2 * i), load(a, 2 * i + 1));
            a[2 * i] = shoup::add_lazy(u, v, two_q);
            a[2 * i + 1] = shoup::mul_shoup_lazy(v + two_q - u, w, ws, q);
        }
        #[cfg(debug_assertions)]
        assert_domain(a, two_q, format_args!("harvey inverse, span 1"));
        let mut t = 2usize;
        let mut m = n >> 1;
        while m > 1 {
            let h = m >> 1;
            // Stage with `h` groups of 2t lanes: group `i` is the chunk
            // a[2it .. 2(i+1)t] and multiplies by −tw[2h − 1 − i].
            for (chunk, (&w, &ws)) in a.chunks_exact_mut(2 * t).zip(stage_w(h)) {
                let (lo, hi) = chunk.split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    // Invariant: inputs < 2q, so v + 2q − u ∈ (0, 4q).
                    let u = *x;
                    let v = *y;
                    *x = shoup::add_lazy(u, v, two_q);
                    *y = shoup::mul_shoup_lazy(v + two_q - u, w, ws, q);
                }
            }
            #[cfg(debug_assertions)]
            assert_domain(a, two_q, format_args!("harvey inverse, span {t}"));
            t <<= 1;
            m = h;
        }
        let (n_inv, n_inv_shoup) = (self.table.n_inv(), self.n_inv_quotient);
        for x in a.iter_mut() {
            *x = shoup::mul_shoup(*x, n_inv, n_inv_shoup, q);
        }
    }

    /// The golden forward transform: Cooley–Tukey decimation-in-time
    /// over the table's forward column, canonical `u128` arithmetic in
    /// every butterfly (Longa–Naehrig Algorithm 1). The oracle of
    /// [`NttPlan::forward`], which is bit-identical to it and many times
    /// faster.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward_golden(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal N");
        let q = &self.m;
        let tw = self.table.forward_column();
        let n = self.n;
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let s = tw[m + i];
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = q.mul(a[j + t], s);
                    a[j] = q.add(u, v);
                    a[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// The golden inverse transform: Gentleman–Sande
    /// decimation-in-frequency, group `i` of a stage of `h` groups
    /// multiplying by `ψ^{-brv(h+i)} = q − tw[2h − 1 − i]`, then the
    /// `N^{-1}` scale (Longa–Naehrig Algorithm 2). The oracle of
    /// [`NttPlan::inverse`] and [`NttPlan::inverse_from`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse_golden(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "polynomial length must equal N");
        let q = &self.m;
        let tw = self.table.forward_column();
        let n = self.n;
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                // A power of ψ is never 0, so this stays canonical.
                let s = q.q() - tw[2 * h - 1 - i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = q.add(u, v);
                    a[j + t] = q.mul(q.sub(u, v), s);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = self.table.n_inv();
        for x in a.iter_mut() {
            *x = q.mul(*x, n_inv);
        }
    }

    /// Negacyclic polynomial product `a · b` in `Z_q[X]/(X^N + 1)` via
    /// two forward transforms, a dyadic multiply and one inverse
    /// transform, in two fresh buffers.
    ///
    /// # Panics
    ///
    /// Panics if input lengths differ from `N`.
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let (mut out, mut rhs) = (a.to_vec(), b.to_vec());
        self.forward(&mut out);
        self.forward(&mut rhs);
        self.dyadic.mul_assign(&mut out, &rhs);
        self.inverse(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_math::poly::negacyclic_mul_schoolbook;

    fn modulus() -> Modulus {
        Modulus::new(0xFFF0_0001).unwrap()
    }

    fn pseudo_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x % q
            })
            .collect()
    }

    #[test]
    fn roundtrip_many_sizes() {
        let m = modulus();
        for n in [2usize, 4, 8, 64, 1024, 4096] {
            let plan = NttPlan::new(m, n).unwrap();
            let original = pseudo_poly(n, m.q(), n as u64);
            let mut a = original.clone();
            plan.forward(&mut a);
            assert_ne!(a, original, "transform must not be identity (n={n})");
            plan.inverse(&mut a);
            assert_eq!(a, original, "roundtrip failed at n={n}");
        }
    }

    #[test]
    fn matches_schoolbook_negacyclic() {
        let m = modulus();
        for n in [4usize, 8, 32, 128] {
            let plan = NttPlan::new(m, n).unwrap();
            let a = pseudo_poly(n, m.q(), 1);
            let b = pseudo_poly(n, m.q(), 2);
            assert_eq!(
                plan.negacyclic_mul(&a, &b),
                negacyclic_mul_schoolbook(&m, &a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn linearity() {
        let m = modulus();
        let n = 64;
        let plan = NttPlan::new(m, n).unwrap();
        let a = pseudo_poly(n, m.q(), 3);
        let b = pseudo_poly(n, m.q(), 4);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        // NTT(a) + NTT(b) == NTT(a + b)
        let mut sum = a.clone();
        abc_math::poly::add_assign(&m, &mut sum, &b);
        plan.forward(&mut sum);
        let mut fsum = fa.clone();
        abc_math::poly::add_assign(&m, &mut fsum, &fb);
        assert_eq!(sum, fsum);
    }

    #[test]
    fn x_times_x_is_minus_one_at_degree_two_wrap() {
        let m = modulus();
        let n = 4;
        let plan = NttPlan::new(m, n).unwrap();
        // X^2 * X^2 = X^4 = -1 in Z[X]/(X^4+1).
        let x2 = vec![0, 0, 1, 0];
        let prod = plan.negacyclic_mul(&x2, &x2);
        assert_eq!(prod, vec![m.q() - 1, 0, 0, 0]);
    }

    #[test]
    fn parseval_like_energy_check() {
        // The all-ones polynomial transforms to values whose dyadic square
        // inverse-transforms to the negacyclic square of the input.
        let m = modulus();
        let n = 16;
        let plan = NttPlan::new(m, n).unwrap();
        let ones = vec![1u64; n];
        let sq = plan.negacyclic_mul(&ones, &ones);
        assert_eq!(sq, negacyclic_mul_schoolbook(&m, &ones, &ones));
    }

    #[test]
    #[should_panic(expected = "length")]
    fn length_mismatch_panics() {
        let plan = NttPlan::new(modulus(), 8).unwrap();
        let mut short = vec![0u64; 4];
        plan.forward(&mut short);
    }

    #[test]
    fn fast_kernels_bit_identical_to_golden() {
        // Every fast path must be indistinguishable from the golden
        // model, not merely congruent mod q. Forcing each tier
        // exercises the scalar Harvey kernel even on machines whose
        // Auto choice is IFMA, and vice versa (an unavailable tier
        // degrades, so this stays green off x86-64 too).
        for q in [0xFFF0_0001u64, 0xF_FFF0_0001, 0xFFF_FFFF_C001] {
            let m = Modulus::new(q).unwrap();
            for n in [4usize, 64, 1024] {
                for pref in [KernelTier::Auto, KernelTier::Scalar, KernelTier::Simd] {
                    let plan = NttPlan::with_kernel(m, n, pref).unwrap();
                    let a0 = pseudo_poly(n, q, q ^ n as u64);
                    let mut fast = a0.clone();
                    let mut golden = a0.clone();
                    plan.forward(&mut fast);
                    plan.forward_golden(&mut golden);
                    assert_eq!(fast, golden, "forward q={q} n={n} {pref:?}");
                    plan.inverse(&mut fast);
                    plan.inverse_golden(&mut golden);
                    assert_eq!(fast, golden, "inverse q={q} n={n} {pref:?}");
                    assert_eq!(fast, a0);
                }
            }
        }
    }

    #[test]
    fn fused_inverse_is_bit_identical_to_copy_and_inverse() {
        // The fused-copy inverse is bit-identical to copy + inverse, on
        // every kernel.
        for q in [0xFFF0_0001u64, 0xFFF_FFFF_C001] {
            let m = Modulus::new(q).unwrap();
            for n in [4usize, 64, 1024] {
                for pref in [KernelTier::Scalar, KernelTier::Auto, KernelTier::Simd] {
                    let plan = NttPlan::with_kernel(m, n, pref).unwrap();
                    let a0 = pseudo_poly(n, q, q ^ (n as u64) << 1);
                    // Unfused reference: copy, then inverse.
                    let mut want = a0.clone();
                    plan.inverse(&mut want);
                    let mut got = vec![u64::MAX; n]; // dst contents ignored
                    plan.inverse_from(&a0, &mut got);
                    assert_eq!(got, want, "inverse_from {pref:?} q={q} n={n}");
                }
            }
        }
    }

    #[test]
    fn simd_plan_is_bit_identical_at_every_size_on_edge_inputs() {
        // Every n = 2^4 … 2^16 covers both parities of the IFMA long-stage
        // count (log n − 3), so the inverse's N⁻¹ fold lands in a radix-2
        // and in a radix-4 last pass; the 50-bit prime puts 4q just
        // under the 52-bit lane. Off IFMA the plan degrades to Harvey
        // and the same checks hold.
        use abc_math::primes::generate_ntt_primes;
        let mut primes = generate_ntt_primes(36, 1, 1 << 17).unwrap();
        primes.extend(generate_ntt_primes(50, 1, 1 << 17).unwrap());
        for q in primes {
            let m = Modulus::new(q).unwrap();
            for log_n in 4..=16u32 {
                let n = 1usize << log_n;
                let plan = NttPlan::with_kernel(m, n, KernelTier::Simd).unwrap();
                let alternating = (0..n).map(|i| if i % 2 == 0 { 0 } else { q - 1 }).collect();
                let inputs = [pseudo_poly(n, q, q ^ n as u64), vec![q - 1; n], alternating];
                for (k, x) in inputs.iter().enumerate() {
                    let at = format!("q={q} n={n} input {k}");
                    let mut want = x.clone();
                    plan.forward_golden(&mut want);
                    let mut got = x.clone();
                    plan.forward(&mut got);
                    assert_eq!(got, want, "forward {at}");
                    // The same residues streamed from signed words.
                    let signed: Vec<i64> = x.iter().map(|&r| r as i64).collect();
                    let mut got = Vec::new();
                    plan.forward_stream(&SignedCoeffs::scan(&signed), &mut got, Tail::Canonical);
                    assert_eq!(got, want, "forward_stream {at}");
                    let mut want = x.clone();
                    plan.inverse_golden(&mut want);
                    let mut got = x.clone();
                    plan.inverse(&mut got);
                    assert_eq!(got, want, "inverse {at}");
                    let mut got = vec![u64::MAX; n];
                    plan.inverse_from(x, &mut got);
                    assert_eq!(got, want, "inverse_from {at}");
                }
            }
        }
    }

    #[test]
    fn env_override_forces_auto_plans_only() {
        // One variable moves every layer. `scalar` is concurrency-safe
        // in this binary: Auto plans stay bit-identical.
        use crate::fft::SpecialFft;
        use abc_float::F64Field;
        let mut env = abc_math::envtest::EnvGuard::lock();
        env.set(abc_math::kernel::KERNEL_ENV, "scalar");
        let auto = NttPlan::with_kernel(modulus(), 64, KernelTier::Auto).unwrap();
        let auto_dyadic = DyadicEngine::new(modulus());
        let auto_fft = SpecialFft::with_field_kernel(F64Field, 64, KernelTier::Auto);
        let explicit = NttPlan::with_kernel(modulus(), 64, KernelTier::Simd).unwrap();
        let explicit_fft = SpecialFft::with_field_kernel(F64Field, 64, KernelTier::Simd);
        drop(env);
        assert_eq!(auto.kernel_name(), "harvey");
        assert_eq!(auto.dyadic().kernel_name(), "montgomery");
        assert_eq!(auto_dyadic.kernel_name(), "montgomery");
        assert_eq!(auto_fft.kernel_name(), "scalar");
        // Explicit tiers are never overridden: they land where the CPU
        // lets them.
        let caps = CpuCaps::detect();
        let (ntt, dyadic) = match caps.ifma() {
            true => ("ifma", "ifma"),
            false => ("harvey", "montgomery"),
        };
        assert_eq!(explicit.kernel_name(), ntt);
        assert_eq!(explicit.dyadic().kernel_name(), dyadic);
        let fft = if caps.avx512f { "avx512" } else { "scalar" };
        assert_eq!(explicit_fft.kernel_name(), fft);
    }

    #[test]
    fn kernel_preferences_degrade_by_capability() {
        let m = modulus();
        // Harvey is always honoured; n < 16 rules IFMA out regardless
        // of the host CPU.
        let harvey = NttPlan::with_kernel(m, 64, KernelTier::Scalar).unwrap();
        assert_eq!(harvey.kernel_name(), "harvey");
        let small = NttPlan::with_kernel(m, 8, KernelTier::Simd).unwrap();
        assert_eq!(small.kernel_name(), "harvey");
        // The twiddle diet: forward twiddles plus the one quotient
        // column the rung reads, nothing for the inverse direction.
        let simd = NttPlan::with_kernel(m, 64, KernelTier::Simd).unwrap();
        assert_eq!(harvey.resident_bytes(), 2 * 64 * 8);
        assert_eq!(simd.resident_bytes(), 2 * 64 * 8);
    }
}
