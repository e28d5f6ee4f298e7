//! The dyadic (element-wise, NTT-domain) vector engine — the paper's
//! Table I modular-multiplication strategies applied to the *hot* path.
//!
//! Every post-transform ciphertext operation is element-wise over `Z_q`
//! (`c0·v`, `c1·s`, plaintext products, rescale scalar passes…), so this
//! is the Modular Streaming Engine's entire client-side workload once
//! the transforms are done — and so is the pass before them, the RNS
//! expansion of signed coefficients into residues. [`DyadicEngine`]
//! picks the fastest applicable kernel per modulus, exactly like
//! `NttPlan` does for butterflies:
//!
//! * **`ifma`** — AVX-512IFMA radix-2^52 Montgomery REDC, eight lanes
//!   per instruction ([`crate::simd`]); requires `q < 2^50` and an
//!   IFMA-capable x86-64 CPU.
//! * **`montgomery`** — scalar Montgomery with `R = 2^64`
//!   ([`crate::reduce::Montgomery`]): per element one widening product
//!   and one REDC against precomputed `-q^{-1} mod 2^64`, with the
//!   domain factor folded into a premultiplied operand. Any modulus.
//!
//! These are the dyadic rungs of the workspace's one kernel ladder
//! ([`crate::kernel`]: `Simd` / `Scalar`). Both kernels produce
//! canonical `[0, q)` outputs, so they are **bit-identical** — asserted
//! by the property suites over 36–62-bit NTT primes against the
//! [`Modulus`] ops (`u128 %`), the oracle that shares no reducer with
//! either; [`KernelTier`] lets tests force each one on whatever machine
//! they run.
//!
//! # Montgomery-domain lifecycle
//!
//! Montgomery-style kernels compute `REDC(x·y) = x·y·R^{-1} mod q`
//! (`R = 2^64` scalar, `2^52` IFMA). The engine hides the domain from
//! callers by *pre-entering one operand*:
//!
//! 1. **enter** — [`DyadicEngine::premul`] maps `b` to `b̃ = b·R mod q`
//!    once per polynomial (a Shoup multiply by the constant `R mod q`,
//!    or one REDC against `R² mod q`);
//! 2. **operate** — each element costs a single fused
//!    `REDC(a·b̃) = a·b·R·R^{-1} = a·b mod q`;
//! 3. **exit** — nothing: the entry factor is consumed by the REDC, so
//!    results are already ordinary-domain canonical residues.
//!
//! Premultiplied vectors are kernel-specific opaque values — reuse them
//! only with the engine that produced them ([`DyadicEngine::premul`] +
//! [`DyadicEngine::mul_assign_premul`] amortize the entry pass when one
//! operand multiplies several polynomials, e.g. a plaintext against
//! both ciphertext components). The one-shot entry points
//! ([`DyadicEngine::mul_assign`], [`DyadicEngine::mul_add_assign`])
//! fuse the conversion into the loop and need no scratch at all.
//!
//! # One multiply–accumulate datapath
//!
//! The layer is memory-bound, so whole ciphertext call-site chains are
//! single passes rather than op sequences: one loop, `dst = ±(x·b) +
//! Σ addends`, whose shape (multiplier pre-entered or not, product
//! negated or not, 0–2 addends, destination as multiplicand or as
//! accumulator) is compile-time data of one private core with one
//! domain contract — every operand canonical `[0, q)` on entry, the
//! destination canonical on exit, asserted in debug builds. The public
//! names are its instantiations:
//!
//! * [`DyadicEngine::mul_assign`] — `a = a·b`;
//! * [`DyadicEngine::mul_add_assign`] — `a = a·b + c` (decrypt);
//! * [`DyadicEngine::mul_add2_assign`] — `a = a·b + c + d`;
//! * [`DyadicEngine::mul_assign_premul`] — `a = a·b̃`;
//! * [`DyadicEngine::mul_acc_assign_premul`] — `acc += b·d̃` (public-key
//!   encrypt, key-switch accumulation; no scratch copies);
//! * [`Tail::NegMulAdd`] through [`DyadicEngine::apply_tail`] — `a = c
//!   (+ d) − a·b`, the RLWE sample of keygen, key-switch keygen and
//!   seeded encrypt.
//!
//! Multiplying by a *constant* is a different datapath (Shoup, a
//! precomputed quotient): [`Tail::SubScalarMul`] — `a = (a − b)·s`,
//! rescale — reached, like the RLWE shape, only as a tail.
//!
//! # Tails and expansion
//!
//! Most of these ops run right after a forward transform of the operand
//! they multiply or add. [`Tail`] names the five shapes that do —
//! canonical, [`DyadicEngine::premul`], the accumulate `ŷ + b·d̃ (+ c)`,
//! the RLWE `ŷ (+ t) − x·s` and the rescale `(x − ŷ)·w` — so that
//! `NttPlan::forward_stream` in `abc-transform` can apply one in the
//! transform's last pass: on the `ifma` rung through
//! [`crate::simd::ntt_forward_stream`], which maps each to its eight-lane
//! step, and on the scalar rung as the transform, then
//! [`DyadicEngine::apply_tail`]. On the `ifma` rung every op here runs on
//! one eight-lane driver (`simd::stream`) through the same steps
//! (`simd::TailX8`) the transform's last pass applies, so a fused shape
//! has one vector form, in or out of the transform.
//!
//! [`DyadicEngine::expand_into`] is the paper's "Expand RNS": signed
//! coefficients of any [`SignedWord`] width and magnitude in, canonical
//! residues out — on the `ifma` rung the transform's prologue run into
//! memory, on the `montgomery` rung the scalar loop of [`SignedCoeffs`],
//! beside its oracle [`Modulus::from_i128`] in [`crate::rns`].
//!
//! Every fused kernel is bit-identical to the composition of its
//! unfused ops (canonical outputs; pinned by the property suites across
//! kernels, moduli widths and thread counts).

use crate::kernel::{CpuCaps, KernelTier};
use crate::modulus::Modulus;
use crate::reduce::Montgomery;
use crate::rns::{SignedCoeffs, SignedWord};
use crate::shoup;
#[cfg(target_arch = "x86_64")]
use crate::simd;

/// What a streamed forward transform (`NttPlan::forward_stream` in
/// `abc-transform`) does with its canonical output `ŷ`: the dyadic op
/// that would otherwise be a pass of its own after the transform. Every
/// operand is canonical in `[0, q)` (a premultiplied one as
/// [`DyadicEngine::premul`] leaves it), and so is every result; `buf` is
/// the transform's buffer.
#[derive(Debug)]
pub enum Tail<'a> {
    /// `buf = ŷ`.
    Canonical,
    /// `buf = premul(ŷ)`, entered into the kernel's domain.
    Premul,
    /// `buf = ŷ + b·d̃ (+ c)` against `d̃` from [`DyadicEngine::premul`]:
    /// public-key encryption's `e + pk·v̂ (+ m)`.
    MulAcc {
        /// The multiplicand.
        b: &'a [u64],
        /// The premultiplied multiplier.
        d_pre: &'a [u64],
        /// An optional second addend.
        c: Option<&'a [u64]>,
    },
    /// `dst = ŷ (+ t) − dst·s`, into `dst` (`buf` is scratch): an RLWE
    /// sample `b = ê (+ t) − a·s` over the mask drawn into `dst`.
    NegMulAdd {
        /// The multiplicand in, the result out.
        dst: &'a mut [u64],
        /// The multiplier.
        s: &'a [u64],
        /// An optional second addend.
        t: Option<&'a [u64]>,
    },
    /// `dst = (dst − ŷ)·w mod q`, into `dst` (`buf` is scratch): the
    /// rescale `x = (x − ŷ)·T⁻¹`. `w` is reduced on entry.
    SubScalarMul {
        /// The minuend in, the result out.
        dst: &'a mut [u64],
        /// The constant factor.
        w: u64,
    },
}

impl Tail<'_> {
    /// The slices the tail reads, `dst` included, for domain checks.
    pub fn operands(&self) -> [Option<&[u64]>; 3] {
        match self {
            Tail::Canonical | Tail::Premul => [None; 3],
            Tail::MulAcc { b, d_pre, c } => [Some(b), Some(d_pre), *c],
            Tail::NegMulAdd { dst, s, t } => [Some(dst), Some(s), *t],
            Tail::SubScalarMul { dst, .. } => [Some(dst), None, None],
        }
    }
}

/// Which kernel an engine dispatches to, with its constants.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kernel {
    Montgomery(Montgomery),
    /// With the radix-2^52 constants of the modulus (`q < 2^50`).
    #[cfg(target_arch = "x86_64")]
    Ifma(crate::simd::Mont52),
}

/// Element-wise vector operations over one RNS prime, dispatched to the
/// fastest applicable kernel (ifma → montgomery).
///
/// # Example
///
/// ```
/// use abc_math::dyadic::DyadicEngine;
/// use abc_math::Modulus;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(0xFFF_FFFF_C001)?; // 2^44 - 2^14 + 1
/// let engine = DyadicEngine::new(m);
/// let mut a = vec![1u64, 2, 3, m.q() - 1];
/// let b = vec![5u64, 6, 7, m.q() - 1];
/// let expected: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
/// engine.mul_assign(&mut a, &b);
/// assert_eq!(a, expected);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DyadicEngine {
    m: Modulus,
    /// Read by the streamed IFMA transform, whose tails multiply with the
    /// same constants (`crate::simd`).
    pub(crate) kernel: Kernel,
}

impl DyadicEngine {
    /// Builds an engine with the fastest applicable kernel for `m`.
    pub fn new(m: Modulus) -> Self {
        Self::with_kernel(m, KernelTier::Auto)
    }

    /// Builds an engine on an explicit rung of the kernel ladder
    /// ([`KernelTier::Auto`] honours the `ABC_FHE_KERNEL` override,
    /// explicit tiers do not). `Simd` needs `q < 2^50` and an
    /// AVX-512IFMA CPU and degrades to `Scalar` without them; check
    /// [`DyadicEngine::kernel_name`].
    ///
    /// # Panics
    ///
    /// Panics if `Auto` reads an unparseable override.
    pub fn with_kernel(m: Modulus, tier: KernelTier) -> Self {
        let ifma_ok = m.q() < shoup::MAX_SHOUP52_MODULUS && CpuCaps::detect().ifma();
        let kernel = match tier.or_env().degrade(ifma_ok) {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => Kernel::Ifma(crate::simd::Mont52::new(m.q())),
            _ => Kernel::Montgomery(Montgomery::new(m)),
        };
        Self { m, kernel }
    }

    /// The modulus of this engine.
    pub(crate) fn modulus(&self) -> &Modulus {
        &self.m
    }

    /// Name of the dispatched kernel (`"montgomery"` or `"ifma"`), for
    /// diagnostics and bench labels.
    pub fn kernel_name(&self) -> &'static str {
        match &self.kernel {
            Kernel::Montgomery(_) => "montgomery",
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(_) => "ifma",
        }
    }

    /// Applies `tail` to the canonical transform `y` (see [`Tail`]) —
    /// the last step of a streamed transform's scalar rung, one
    /// multiply–accumulate pass or none. Returns where the result went:
    /// `y`, or the tail's `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the tail's operands are not as long as `y`.
    pub fn apply_tail<'a>(&self, y: &'a mut [u64], tail: Tail<'a>) -> &'a [u64] {
        match tail {
            Tail::Canonical => {}
            Tail::Premul => self.premul(y),
            Tail::MulAcc { b, d_pre, c: None } => self.mul_acc_assign_premul(y, b, d_pre),
            Tail::MulAcc {
                b,
                d_pre,
                c: Some(c),
            } => self.mac::<true, false, true, 2>(y, d_pre, [b, c]),
            Tail::NegMulAdd { dst, s, t } => {
                match t {
                    None => self.mac::<false, true, false, 1>(dst, s, [y]),
                    Some(t) => self.mac::<false, true, false, 2>(dst, s, [y, t]),
                }
                return dst;
            }
            Tail::SubScalarMul { dst, w } => {
                self.sub_scalar_mul(dst, y, w);
                return dst;
            }
        }
        y
    }

    /// `a[i] = a[i]·b[i] mod q` — the dyadic product of two NTT-domain
    /// polynomials, canonical inputs and outputs.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ (as every `mul_*` method does).
    pub fn mul_assign(&self, a: &mut [u64], b: &[u64]) {
        self.mac::<false, false, false, 0>(a, b, []);
    }

    /// `a[i] = a[i]·b[i] + c[i] mod q` — what decryption runs
    /// (`c1·s + c0`).
    pub fn mul_add_assign(&self, a: &mut [u64], b: &[u64], c: &[u64]) {
        self.mac::<false, false, false, 1>(a, b, [c]);
    }

    /// `a[i] = a[i]·b[i] + c[i] + d[i] mod q` — the `pk·v+e+m` chain as
    /// one pass.
    pub fn mul_add2_assign(&self, a: &mut [u64], b: &[u64], c: &[u64], d: &[u64]) {
        self.mac::<false, false, false, 2>(a, b, [c, d]);
    }

    /// `acc[i] += b[i]·d_pre[i] mod q` against a vector entered with
    /// [`DyadicEngine::premul`] — public-key encryption's `e + pk·v̂` and
    /// the key-switch inner product `acc += key·digit`, with no scratch
    /// copy of either operand.
    pub fn mul_acc_assign_premul(&self, acc: &mut [u64], b: &[u64], d_pre: &[u64]) {
        self.mac::<true, false, true, 1>(acc, d_pre, [b]);
    }

    /// `a[i] = a[i]·b[i] mod q` against a vector already entered with
    /// [`DyadicEngine::premul`] — step 2 of the lifecycle; the REDC
    /// consumes the domain factor, so outputs are ordinary canonical
    /// residues (no exit step).
    pub fn mul_assign_premul(&self, a: &mut [u64], b_pre: &[u64]) {
        self.mac::<true, false, false, 0>(a, b_pre, []);
    }

    /// The multiply–accumulate datapath behind every `mul_*` method:
    /// `dst[i] = ±(x[i]·b[i]) + Σ addends[i] mod q`, one pass, the shape
    /// as compile-time parameters (those of `simd::Mac`):
    /// `PRE` — `b` came through [`Self::premul`]; `NEG` — the product is
    /// subtracted; `ACC` — `dst` is the first addend and `src[0]` the
    /// multiplicand `x`, otherwise `dst` is `x` and every `src` an addend.
    ///
    /// Every operand is canonical `[0, q)` (a premultiplied one too:
    /// `premul` canonicalises) and so is the result — checked in debug
    /// builds, which is what makes the kernels interchangeable bit for
    /// bit.
    fn mac<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>(
        &self,
        dst: &mut [u64],
        b: &[u64],
        src: [&[u64]; SRC],
    ) {
        let n = dst.len();
        assert_eq!(n, b.len());
        assert!(src.iter().all(|s| s.len() == n));
        let q = self.m.q();
        let canonical = |v: &[u64]| v.iter().all(|&x| x < q);
        debug_assert!(canonical(dst) && canonical(b) && src.iter().all(|s| canonical(s)));
        match &self.kernel {
            Kernel::Montgomery(mont) => {
                // Fused enter+REDC: b̃ = REDC(b·R²) ∈ [0, q), then
                // REDC(x·b̃) = x·b mod q (see the module lifecycle doc).
                let r2 = mont.r2();
                for (i, (z, &y)) in dst.iter_mut().zip(b).enumerate() {
                    let (x, addends) = operands::<ACC, SRC>(*z, &src, i);
                    let y_dom = if PRE {
                        y
                    } else {
                        mont.redc(y as u128 * r2 as u128)
                    };
                    let p = mont.redc(x as u128 * y_dom as u128);
                    *z = accumulate::<NEG, SRC>(p, addends, q);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(k) => {
                let tail = simd::Mac::<PRE, NEG, ACC, SRC>::new(k, b, src);
                let done = simd::stream(dst, &simd::InPlace, &tail);
                for i in done..n {
                    let (x, addends) = operands::<ACC, SRC>(dst[i], &src, i);
                    let p = if PRE {
                        k.mul_premul(x, b[i])
                    } else {
                        k.mul(x, b[i])
                    };
                    dst[i] = accumulate::<NEG, SRC>(p, addends, q);
                }
            }
        }
        debug_assert!(canonical(dst));
    }

    /// Fused `a[i] = (a[i] − b[i])·s mod q`, [`Tail::SubScalarMul`]'s
    /// pass. `s` is reduced on entry (any `u64`). Both operands are
    /// canonical in `[0, q)`, and so is the result — checked in debug
    /// builds, on every kernel. Panics if slice lengths differ.
    fn sub_scalar_mul(&self, a: &mut [u64], b: &[u64], s: u64) {
        assert_eq!(a.len(), b.len());
        let q = self.m.q();
        debug_assert!(a.iter().all(|&x| x < q), "minuend outside [0, q)");
        debug_assert!(b.iter().all(|&y| y < q), "subtrahend outside [0, q)");
        let s = if s >= q { self.m.reduce(s) } else { s };
        match &self.kernel {
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(_) => {
                let tail = simd::SubScalarMul::new(q, a, s);
                let done = simd::stream(&mut [], &simd::Words(b), &tail);
                let s52 = shoup::shoup_precompute52(s, q);
                for (x, &y) in a[done..].iter_mut().zip(&b[done..]) {
                    *x = shoup::reduce_once(shoup::mul_shoup52_lazy(*x + q - y, s, s52, q), q);
                }
            }
            // Montgomery takes the 64-bit Shoup path: a constant factor
            // admits a precomputed quotient, which beats any general
            // two-operand reduction.
            Kernel::Montgomery(_) => {
                let ss = shoup::shoup_precompute(s, q);
                for (x, &y) in a.iter_mut().zip(b) {
                    *x = shoup::mul_shoup(*x + q - y, s, ss, q);
                }
            }
        }
        debug_assert!(a.iter().all(|&x| x < q), "result outside [0, q)");
    }

    /// `a[i] = a[i] + b[i] mod q`, canonical.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ.
    pub fn add_assign(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len());
        #[cfg(target_arch = "x86_64")]
        if matches!(self.kernel, Kernel::Ifma(_)) {
            let done = simd::stream(a, &simd::InPlace, &simd::Add { q: self.m.q(), b });
            for (x, &y) in a[done..].iter_mut().zip(&b[done..]) {
                *x = self.m.add(*x, y);
            }
            return;
        }
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.m.add(*x, y);
        }
    }

    /// Refills `dst` with the residues `x mod q` of signed coefficients,
    /// canonical in `[0, q)` — RNS expansion ("Expand RNS" of the
    /// paper's Fig. 2a), the pass that feeds every forward transform.
    /// Any signed word is accepted (`i8`, `i64`, `i128`, the slice's
    /// magnitude picking the datapath); the result is bit-identical to
    /// [`Modulus::from_i128`] on every kernel.
    ///
    /// The `ifma` kernel runs eight lanes at a time
    /// (`simd::expand_with`: a sign-select below `q`, radix-2^52
    /// Shoup folds above), writing into `dst`'s spare capacity; the
    /// `montgomery` rung and the sub-8 tail run the scalar loop of
    /// [`SignedCoeffs`]. `dst` is cleared first and its capacity reused,
    /// so a recycled buffer and a fresh `Vec::with_capacity` are both
    /// written exactly once, by the thread that calls this.
    ///
    /// # Example
    ///
    /// ```
    /// use abc_math::{dyadic::DyadicEngine, rns::SignedCoeffs, Modulus};
    ///
    /// # fn main() -> Result<(), abc_math::MathError> {
    /// let m = Modulus::new(97)?;
    /// let engine = DyadicEngine::new(m);
    /// let mut out = Vec::new();
    /// engine.expand_into(&SignedCoeffs::scan(&[-1i8, 0, 1]), &mut out);
    /// assert_eq!(out, [96, 0, 1]);
    /// engine.expand_into(&SignedCoeffs::scan(&[-98i128, 1 << 100, 97]), &mut out);
    /// assert_eq!(out, [96, m.from_i128(1 << 100), 0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn expand_into<X: SignedWord>(&self, src: &SignedCoeffs<'_, X>, dst: &mut Vec<u64>) {
        match &self.kernel {
            Kernel::Montgomery(_) => src.expand_into(&self.m, dst),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(k) => {
                let n = src.coeffs().len();
                dst.clear();
                dst.reserve(n);
                let done = simd::expand_with(src, k.q, &mut dst.spare_capacity_mut()[..n]);
                // SAFETY: the driver wrote `dst[..done]`, inside the
                // capacity reserved above.
                unsafe { dst.set_len(done) };
                src.append_from(&self.m, done, dst);
            }
        }
        let q = self.m.q();
        debug_assert!(dst.len() == src.coeffs().len() && dst.iter().all(|&r| r < q));
    }

    /// Enters `b` into this kernel's multiplication domain in place —
    /// step 1 of the Montgomery lifecycle (see the module docs). The
    /// result is **kernel-specific and opaque**: feed it only to
    /// [`DyadicEngine::mul_assign_premul`] on the same engine.
    pub fn premul(&self, b: &mut [u64]) {
        match &self.kernel {
            Kernel::Montgomery(mont) => mont.to_mont_slice(b),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma(k) => {
                // Canonical entry (one csub after the lazy Shoup) keeps
                // the premultiplied vector reusable by the vector and
                // scalar-tail paths alike.
                let q = self.m.q();
                let done = simd::stream(b, &simd::InPlace, &simd::Premul(k));
                for y in b[done..].iter_mut() {
                    *y = shoup::reduce_once(shoup::mul_shoup52_lazy(*y, k.r52, k.r52_shoup, q), q);
                }
            }
        }
    }
}

/// Element `i` of a multiply–accumulate pass: the multiplicand and the
/// addends. `dst` and `src[0]` trade places in the accumulate form.
#[inline(always)]
fn operands<const ACC: bool, const SRC: usize>(
    dst: u64,
    src: &[&[u64]; SRC],
    i: usize,
) -> (u64, [u64; SRC]) {
    let mut addends = [0; SRC];
    for (y, s) in addends.iter_mut().zip(src) {
        *y = s[i];
    }
    if ACC {
        (core::mem::replace(&mut addends[0], dst), addends)
    } else {
        (dst, addends)
    }
}

/// `±p + Σ addends mod q` for a canonical product and canonical addends,
/// without a data-dependent branch (one here costs ~5×). A negated
/// product folds into its first addend as the modular difference
/// `y − p` (a borrow adds `q` back); every other partial sum is
/// `< 2q < 2^64` and one conditional subtract — `min` picks the in-range
/// representative, the wrapped value is huge — brings it back to
/// `[0, q)`.
#[inline(always)]
fn accumulate<const NEG: bool, const SRC: usize>(p: u64, addends: [u64; SRC], q: u64) -> u64 {
    const { assert!(!NEG || SRC >= 1) };
    let mut t = p;
    for (k, y) in addends.into_iter().enumerate() {
        if NEG && k == 0 {
            let (d, borrow) = y.overflowing_sub(t);
            t = d.wrapping_add(if borrow { q } else { 0 });
        } else {
            t += y;
            t = t.min(t.wrapping_sub(q));
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefs() -> [KernelTier; 3] {
        [KernelTier::Auto, KernelTier::Scalar, KernelTier::Simd]
    }

    fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
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
    fn every_kernel_matches_golden_model() {
        // 36-, 44- and 62-bit moduli: the 62-bit one forces the Simd
        // tier to degrade to Montgomery.
        for q in [0xF_FFF0_0001u64, 0xFFF_FFFF_C001, (1 << 62) - 57] {
            let m = Modulus::new(q).unwrap();
            // Length 21 crosses the 8-lane boundary with a tail of 5.
            let n = 21;
            let a0 = {
                let mut v = pseudo(n, q, q);
                (v[0], v[1], v[2]) = (q - 1, 0, 1);
                v
            };
            let b = {
                let mut v = pseudo(n, q, q ^ 7);
                (v[0], v[1], v[2]) = (q - 1, q - 1, 0);
                v
            };
            let c = {
                let mut v = pseudo(n, q, q ^ 13);
                v[0] = q - 1;
                v
            };
            for pref in prefs() {
                let e = DyadicEngine::with_kernel(m, pref);
                if q >= shoup::MAX_SHOUP52_MODULUS {
                    assert_ne!(e.kernel_name(), "ifma", "q={q} must exclude ifma");
                }
                let mut got = a0.clone();
                e.mul_assign(&mut got, &b);
                for i in 0..n {
                    assert_eq!(got[i], m.mul(a0[i], b[i]), "mul {pref:?} q={q} i={i}");
                }
                let mut got = a0.clone();
                e.mul_add_assign(&mut got, &b, &c);
                for i in 0..n {
                    assert_eq!(
                        got[i],
                        m.mul_add(a0[i], b[i], c[i]),
                        "mul_add {pref:?} q={q} i={i}"
                    );
                }
                let mut got = a0.clone();
                e.add_assign(&mut got, &b);
                for i in 0..n {
                    assert_eq!(got[i], m.add(a0[i], b[i]), "add {pref:?} q={q} i={i}");
                }
                // Lifecycle: premul once, multiply twice (the plaintext
                // × both-components pattern).
                let mut b_pre = b.clone();
                e.premul(&mut b_pre);
                for seed in [3u64, 4] {
                    let x0 = pseudo(n, q, seed);
                    let mut x = x0.clone();
                    e.mul_assign_premul(&mut x, &b_pre);
                    for i in 0..n {
                        assert_eq!(x[i], m.mul(x0[i], b[i]), "premul {pref:?} q={q} i={i}");
                    }
                }
                // Fused chain kernels vs the golden composition.
                let d = pseudo(n, q, q ^ 29);
                for t in [None, Some(&d[..])] {
                    let mut got = a0.clone();
                    let tail = Tail::NegMulAdd {
                        dst: &mut got,
                        s: &b,
                        t,
                    };
                    e.apply_tail(&mut c.clone(), tail);
                    for i in 0..n {
                        let want = m.sub(c[i], m.mul(a0[i], b[i]));
                        let want = t.map_or(want, |t| m.add(want, t[i]));
                        assert_eq!(got[i], want, "neg_mul_add {pref:?} q={q} t={t:?} i={i}");
                    }
                }
                let mut got = a0.clone();
                e.mul_add2_assign(&mut got, &b, &c, &d);
                for i in 0..n {
                    let want = m.add(m.mul_add(a0[i], b[i], c[i]), d[i]);
                    assert_eq!(got[i], want, "mul_add2 {pref:?} q={q} i={i}");
                }
                for s in [0u64, 1, q - 1, q, u64::MAX] {
                    let mut got = a0.clone();
                    let tail = Tail::SubScalarMul {
                        dst: &mut got,
                        w: s,
                    };
                    e.apply_tail(&mut b.clone(), tail);
                    for i in 0..n {
                        let want = m.mul(m.sub(a0[i], b[i]), s % q);
                        assert_eq!(got[i], want, "sub_scalar {pref:?} q={q} s={s} i={i}");
                    }
                }
                let mut d_pre = d.clone();
                e.premul(&mut d_pre);
                let mut got = a0.clone();
                e.mul_acc_assign_premul(&mut got, &b, &d_pre);
                for i in 0..n {
                    let want = m.mul_add(b[i], d[i], a0[i]);
                    assert_eq!(got[i], want, "mul_acc {pref:?} q={q} i={i}");
                }
            }
        }
    }

    #[test]
    fn preferences_degrade_by_capability() {
        let wide = Modulus::new((1 << 62) - 57).unwrap();
        let e = DyadicEngine::with_kernel(wide, KernelTier::Simd);
        assert_eq!(e.kernel_name(), "montgomery");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "subtrahend outside [0, q)")]
    fn sub_scalar_mul_rejects_a_subtrahend_at_q() {
        // Lane 0 of a full vector block: on an IFMA host the vector
        // lanes check nothing themselves, so the engine's entry must.
        let m = Modulus::new(0xF_FFF0_0001).unwrap();
        let e = DyadicEngine::with_kernel(m, KernelTier::Simd);
        let mut a = vec![1u64; 16];
        let mut b = vec![0u64; 16];
        b[0] = m.q();
        e.apply_tail(&mut b, Tail::SubScalarMul { dst: &mut a, w: 5 });
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let e = DyadicEngine::new(Modulus::new(97).unwrap());
        let mut a = vec![1, 2];
        e.mul_assign(&mut a, &[1]);
    }
}
