//! AVX-512IFMA element-wise vector kernels: radix-2^52 Montgomery
//! products on eight lanes per instruction — the dyadic (post-NTT)
//! counterpart of the `vpmadd52` butterfly kernels in `abc-transform`.
//!
//! The NTT kernels get away with Shoup multiplication because one factor
//! is a *constant* twiddle; the dyadic workload multiplies two varying
//! vectors, so no quotient can be precomputed per element. Instead each
//! lane runs one radix-2^52 Montgomery reduction (REDC): for
//! `q < 2^50` the full 104-bit product `a·b̃` is formed by
//! `vpmadd52{lo,hi}uq`, the low 52 bits are cancelled with the
//! precomputed `-q^{-1} mod 2^52`, and the quotient word drops out in
//! two more IFMA instructions — five 8-lane multiplies replace eight
//! scalar Barrett reductions (each ~6 wide multiplies).
//!
//! The Montgomery factor `2^-52` is absorbed *before* the loop: the
//! `b` operand enters the radix-2^52 domain once per polynomial
//! (`b̃ = b·2^52 mod q`, a Shoup multiply by the constant `2^52 mod q`),
//! so `REDC52(a·b̃) = a·b mod q` directly and no exit conversion exists.
//! See [`crate::dyadic`] for the domain lifecycle and the dispatch.
//!
//! # One multiply–accumulate loop
//!
//! The element-wise layer is memory-bound, so whole ciphertext-chain
//! shapes run as one load/store pass per operand — and every shape of
//! the multiply family is the *same* loop: load, enter `b` (or not),
//! REDC, negate (or not), add 0–2 addends, conditionally subtract.
//! [`mac_assign`] is that loop once, generic over compile-time facts
//! only, so each instantiation (`a·b`, `a·b + c`, `c − a·b`,
//! `c + d − a·b`, `a·b + c + d`, `a·b̃`, `a + b·d̃` — named in
//! [`crate::dyadic`]) monomorphises to its own straight-line code, and
//! the lazy-domain argument that licenses the fusion is written once,
//! beside its `csub`s.
//!
//! Multiplication by a *constant* is a different datapath (Shoup, no
//! REDC): [`scalar_mul_assign`] (the domain entry of
//! [`crate::dyadic::DyadicEngine::premul`]), and [`sub_scalar_mul_assign`] —
//! `a = (a − b)·w`, both rescales — which accepts its subtrahend **lazy
//! in `[0, 4q)`**, the raw output of a forward NTT whose closing
//! normalization pass was skipped, fusing the last NTT stage into the
//! dyadic pass (see `NttPlan::forward_lazy` in `abc-transform`).
//!
//! All kernels return **canonical** `[0, q)` values and are therefore
//! bit-identical to the `u128 %` golden model (asserted by the
//! property suites). Everything is `x86_64`-only and gated at runtime
//! behind [`CpuCaps::detect`]; slices are processed in full 8-lane blocks and
//! the sub-8 tail is left to the scalar caller (each function returns
//! the number of elements it handled).

#![cfg(target_arch = "x86_64")]

use crate::kernel::CpuCaps;
use crate::shoup;
use core::arch::x86_64::*;

/// Constants of the radix-2^52 Montgomery domain for one modulus
/// `q < 2^50`, shared by every kernel below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mont52 {
    /// The modulus.
    pub q: u64,
    /// `-q^{-1} mod 2^52` — the REDC cancellation constant.
    pub qinv_neg52: u64,
    /// `R = 2^52 mod q` — the domain-entry constant.
    pub r52: u64,
    /// Shoup-52 quotient of `r52` (`floor(r52·2^52/q)`).
    pub r52_shoup: u64,
}

impl Mont52 {
    /// Precomputes the radix-2^52 constants for an odd `q < 2^50`.
    pub fn new(q: u64) -> Self {
        debug_assert!(q % 2 == 1 && q < shoup::MAX_SHOUP52_MODULUS);
        // Newton iteration for q^{-1} mod 2^52 (converges past 52 bits).
        let mut x = q;
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(x)));
        }
        debug_assert_eq!(q.wrapping_mul(x) & shoup::MASK52, 1);
        let qinv_neg52 = x.wrapping_neg() & shoup::MASK52;
        let r52 = ((1u128 << 52) % q as u128) as u64;
        let r52_shoup = shoup::shoup_precompute52(r52, q);
        Self {
            q,
            qinv_neg52,
            r52,
            r52_shoup,
        }
    }

    /// Scalar model of one radix-2^52 REDC: `t·2^{-52} mod q`, output in
    /// `[0, 2q)` for `t < 2^52·q` — exactly the words the vector kernel
    /// computes, used for the sub-8-lane tails.
    #[inline(always)]
    pub fn redc52_lazy(&self, t: u128) -> u64 {
        debug_assert!(t < (self.q as u128) << 52);
        let t_lo = (t as u64) & shoup::MASK52;
        let m = t_lo.wrapping_mul(self.qinv_neg52) & shoup::MASK52;
        let r = ((t + m as u128 * self.q as u128) >> 52) as u64;
        debug_assert!(r < 2 * self.q);
        r
    }

    /// Scalar model of the fused multiply: `a·b mod q`, canonical, for
    /// `a ∈ [0, 2q)` (lazy inputs welcome) and `b < q`.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        // Enter b into the domain lazily ([0, 2q)), REDC the product.
        let b_dom = shoup::mul_shoup52_lazy(b, self.r52, self.r52_shoup, self.q);
        let r = self.redc52_lazy(a as u128 * b_dom as u128);
        shoup::reduce_once(r, self.q)
    }

    /// Scalar model of [`Self::mul`] against a *pre-entered* operand
    /// `b_dom ∈ [0, 2q)` (see [`crate::dyadic::DyadicEngine::premul`]).
    #[inline(always)]
    pub fn mul_premul(&self, a: u64, b_dom: u64) -> u64 {
        let r = self.redc52_lazy(a as u128 * b_dom as u128);
        shoup::reduce_once(r, self.q)
    }
}

/// Eight-lane radix-2^52 Shoup multiply by the constant pair
/// `(w, w52)`: lanes in `[0, 2q)` (mirror of the NTT kernel's helper).
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into (register-only arithmetic,
/// no memory access).
#[inline(always)]
unsafe fn mul_shoup52_x8(y: __m512i, w: __m512i, w52: __m512i, vq: __m512i) -> __m512i {
    // SAFETY: register-only IFMA arithmetic; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mask52 = _mm512_set1_epi64(shoup::MASK52 as i64);
        let hi = _mm512_madd52hi_epu64(zero, y, w52);
        let t1 = _mm512_madd52lo_epu64(zero, y, w);
        let t2 = _mm512_madd52lo_epu64(zero, hi, vq);
        _mm512_and_si512(_mm512_sub_epi64(t1, t2), mask52)
    }
}

/// Eight-lane conditional subtract: `min(x, x − m)` unsigned maps
/// `[0, 2m)` into `[0, m)`.
///
/// # Safety
///
/// As [`mul_shoup52_x8`]: AVX-512F via inlining into a
/// `target_feature` kernel, register-only.
#[inline(always)]
unsafe fn csub_x8(x: __m512i, m: __m512i) -> __m512i {
    // SAFETY: register-only arithmetic; the caller guarantees AVX-512F.
    unsafe { _mm512_min_epu64(x, _mm512_sub_epi64(x, m)) }
}

/// Eight-lane radix-2^52 REDC of the product `a·b_dom`: returns lanes
/// in `[0, 2q)` congruent to `a·b_dom·2^{-52} (mod q)`, for
/// `a < 2^52`, `b_dom < 2q < 2^51`.
///
/// # Safety
///
/// As [`mul_shoup52_x8`]: AVX-512F+IFMA via inlining into a
/// `target_feature` kernel, register-only.
#[inline(always)]
unsafe fn redc52_x8(va: __m512i, vb_dom: __m512i, vq: __m512i, vqinv: __m512i) -> __m512i {
    // SAFETY: register-only IFMA arithmetic; the caller guarantees the
    // features.
    unsafe {
        let zero = _mm512_setzero_si512();
        // 104-bit product split at bit 52.
        let t_lo = _mm512_madd52lo_epu64(zero, va, vb_dom);
        let t_hi = _mm512_madd52hi_epu64(zero, va, vb_dom);
        // m = t_lo · (−q^{-1}) mod 2^52 (madd52lo keeps only low 52).
        let m = _mm512_madd52lo_epu64(zero, t_lo, vqinv);
        // (t + m·q) / 2^52 = t_hi + hi52(m·q) + carry(t_lo + lo52(m·q)).
        let hi = _mm512_madd52hi_epu64(t_hi, m, vq);
        let lo_sum = _mm512_madd52lo_epu64(t_lo, m, vq);
        let carry = _mm512_srli_epi64(lo_sum, 52);
        _mm512_add_epi64(hi, carry)
    }
}

/// The multiply–accumulate pass, every fused shape of it:
/// `dst[i] = ±(x[i]·b[i]) + Σ addends[i] mod q` over full 8-lane blocks;
/// returns the count handled (`len − len % 8`). Canonical inputs and
/// outputs. The shape is compile-time data, so each instantiation
/// monomorphises to its own straight-line loop:
///
/// * `PRE` — `b` is already in the radix-2^52 domain (`b̃ = b·2^52 mod
///   q`, lanes `< 2q`, see `DyadicEngine::premul`) instead of being
///   entered inside the loop;
/// * `NEG` — the product is subtracted instead of added;
/// * `ACC` — the destination is the first *addend* and `src[0]` the
///   multiplicand (`dst += src[0]·b`, needs `SRC ≥ 1`); otherwise the
///   destination is the multiplicand and every `src` an addend;
/// * `SRC` — the number of `src` streams, which either way is the number
///   of addends (0–2).
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`] (soundness: the `target_feature` body
/// would be UB on a CPU without IFMA) and equal slice lengths.
pub fn mac_assign<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>(
    k: &Mont52,
    dst: &mut [u64],
    b: &[u64],
    src: [&[u64]; SRC],
) -> usize {
    const { assert!(SRC <= 2 && (!ACC || SRC >= 1)) };
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert_eq!(dst.len(), b.len());
    assert!(src.iter().all(|s| s.len() == dst.len()));
    let n8 = dst.len() - dst.len() % 8;
    // SAFETY: the asserts above prove the required target features and
    // that every slice holds at least `n8` (a multiple of 8) words.
    unsafe { mac_assign_impl::<PRE, NEG, ACC, SRC>(k, &mut dst[..n8], &b[..n8], src) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here), `dst.len()` must
/// be a multiple of 8 and `b` and every `src` at least that long.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn mac_assign_impl<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>(
    k: &Mont52,
    dst: &mut [u64],
    b: &[u64],
    src: [&[u64]; SRC],
) {
    let vq = _mm512_set1_epi64(k.q as i64);
    let v2q = _mm512_set1_epi64(2 * k.q as i64);
    let vqinv = _mm512_set1_epi64(k.qinv_neg52 as i64);
    let vr = _mm512_set1_epi64(k.r52 as i64);
    let vrs = _mm512_set1_epi64(k.r52_shoup as i64);
    let mut j = 0;
    while j < dst.len() {
        // SAFETY: j + 8 <= dst.len() <= len of every other slice.
        unsafe {
            let pd = dst.as_mut_ptr().add(j) as *mut __m512i;
            let mut vx = _mm512_loadu_si512(pd);
            let vb = _mm512_loadu_si512(b.as_ptr().add(j) as *const __m512i);
            // Plain loops, not `map`: a closure would not carry this
            // function's target features unless it inlined.
            let mut vs = [_mm512_setzero_si512(); SRC];
            for (v, s) in vs.iter_mut().zip(src) {
                *v = _mm512_loadu_si512(s.as_ptr().add(j) as *const __m512i);
            }
            if ACC {
                core::mem::swap(&mut vx, &mut vs[0]);
            }
            // b enters the radix-2^52 domain ([0, 2q)) here unless it
            // came pre-entered; REDC takes the product back out — the
            // two conversions cancel into `x·b mod q`.
            let vb_dom = if PRE {
                vb
            } else {
                mul_shoup52_x8(vb, vr, vrs, vq)
            };
            // The lazy-domain bound of every shape: REDC ∈ [0, 2q); the
            // negated product is 2q − REDC ∈ (0, 2q]; each of the ≤ 2
            // addends is canonical, so the sum stays < 4q < 2^52
            // (q < 2^50) and csub(2q), csub(q) normalise [0, 4q) to
            // [0, q). The bare positive product is still in [0, 2q) and
            // takes the one csub(q).
            let mut r = redc52_x8(vx, vb_dom, vq, vqinv);
            if NEG {
                r = _mm512_sub_epi64(v2q, r);
            }
            for v in vs {
                r = _mm512_add_epi64(r, v);
            }
            if NEG || SRC > 0 {
                r = csub_x8(r, v2q);
            }
            _mm512_storeu_si512(pd, csub_x8(r, vq));
        }
        j += 8;
    }
}

/// Fused `a[i] = (a[i] − b[i])·w mod q` (the rescale shape) for a
/// constant `w < q` with Shoup-52 quotient `w52`, over full 8-lane
/// blocks; returns the count handled.
///
/// The subtrahend `b` may be **lazy in `[0, 4q)`** — e.g. the raw
/// output of a forward-NTT whose final normalization pass was skipped;
/// it is normalized in-register, fusing that NTT stage into this pass.
///
/// # Panics
///
/// Same contract as [`mac_assign`].
pub fn sub_scalar_mul_assign(k: &Mont52, a: &mut [u64], b: &[u64], w: u64, w52: u64) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert_eq!(a.len(), b.len());
    let n8 = a.len() - a.len() % 8;
    // SAFETY: the assert above proves the required target features.
    unsafe { sub_scalar_mul_assign_impl(k, &mut a[..n8], &b[..n8], w, w52) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here), and every slice
/// argument must have the same length, a multiple of 8.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn sub_scalar_mul_assign_impl(k: &Mont52, a: &mut [u64], b: &[u64], w: u64, w52: u64) {
    let vq = _mm512_set1_epi64(k.q as i64);
    let v2q = _mm512_set1_epi64(2 * k.q as i64);
    let vw = _mm512_set1_epi64(w as i64);
    let vw52 = _mm512_set1_epi64(w52 as i64);
    let mut j = 0;
    while j < a.len() {
        // SAFETY: j + 8 <= a.len() == b.len().
        unsafe {
            let pa = a.as_mut_ptr().add(j) as *mut __m512i;
            let pb = b.as_ptr().add(j) as *const __m512i;
            let va = _mm512_loadu_si512(pa);
            let vb = _mm512_loadu_si512(pb);
            // Normalize the (possibly 4q-lazy) subtrahend in-register,
            // then a + (q − b) ∈ (0, 2q) < 2^51 feeds the Shoup multiply.
            let vbn = csub_x8(csub_x8(vb, v2q), vq);
            let t = _mm512_add_epi64(va, _mm512_sub_epi64(vq, vbn));
            let r = mul_shoup52_x8(t, vw, vw52, vq);
            _mm512_storeu_si512(pa, csub_x8(r, vq));
        }
        j += 8;
    }
}

/// `a[i] = a[i]·w mod q` for a constant `w < q` with Shoup-52 quotient
/// `w52`, over full 8-lane blocks; returns the count handled.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`].
pub fn scalar_mul_assign(k: &Mont52, a: &mut [u64], w: u64, w52: u64) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n8 = a.len() - a.len() % 8;
    // SAFETY: the assert above proves the required target features.
    unsafe { scalar_mul_assign_impl(k, &mut a[..n8], w, w52) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here), and every slice
/// argument must have the same length, a multiple of 8.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn scalar_mul_assign_impl(k: &Mont52, a: &mut [u64], w: u64, w52: u64) {
    let vq = _mm512_set1_epi64(k.q as i64);
    let vw = _mm512_set1_epi64(w as i64);
    let vw52 = _mm512_set1_epi64(w52 as i64);
    let mut j = 0;
    while j < a.len() {
        // SAFETY: j + 8 <= a.len().
        unsafe {
            let pa = a.as_mut_ptr().add(j) as *mut __m512i;
            let va = _mm512_loadu_si512(pa);
            let r = mul_shoup52_x8(va, vw, vw52, vq);
            _mm512_storeu_si512(pa, csub_x8(r, vq));
        }
        j += 8;
    }
}

/// Canonical element-wise `a[i] = a[i] + b[i] mod q` over full 8-lane
/// blocks; returns the count handled.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`] and equal slice lengths.
pub fn add_assign(q: u64, a: &mut [u64], b: &[u64]) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert_eq!(a.len(), b.len());
    let n8 = a.len() - a.len() % 8;
    // SAFETY: the assert above proves the required target features.
    unsafe { add_assign_impl(q, &mut a[..n8], &b[..n8]) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here), and every slice
/// argument must have the same length, a multiple of 8.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn add_assign_impl(q: u64, a: &mut [u64], b: &[u64]) {
    let vq = _mm512_set1_epi64(q as i64);
    let mut j = 0;
    while j < a.len() {
        // SAFETY: j + 8 <= a.len() == b.len().
        unsafe {
            let pa = a.as_mut_ptr().add(j) as *mut __m512i;
            let pb = b.as_ptr().add(j) as *const __m512i;
            let va = _mm512_loadu_si512(pa);
            let vb = _mm512_loadu_si512(pb);
            // a + b lands in [0, 2q): one conditional subtract.
            _mm512_storeu_si512(pa, csub_x8(_mm512_add_epi64(va, vb), vq));
        }
        j += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modulus;

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
    fn mont52_scalar_model_matches_golden() {
        for q in [97u64, 65537, 0xFFF0_0001, 0xF_FFF0_0001, 0xFFF_FFFF_C001] {
            let m = Modulus::new(q).unwrap();
            let k = Mont52::new(q);
            for (a, b) in [
                (0u64, 0u64),
                (1, 1),
                (q - 1, q - 1),
                (q / 2, 2),
                (2 * q - 1, q - 1),
            ] {
                assert_eq!(k.mul(a, b), m.mul(a % q, b), "q={q} a={a} b={b}");
            }
        }
    }

    #[test]
    fn vector_kernels_match_golden() {
        if !CpuCaps::detect().ifma() {
            return;
        }
        let q = 0xFFF_FFFF_C001u64; // 2^44 - 2^14 + 1
        let m = Modulus::new(q).unwrap();
        let k = Mont52::new(q);
        let n = 40; // full blocks only (tails are the caller's job)
        let a0 = pseudo(n, q, 1);
        let b = pseudo(n, q, 2);
        let w = q - 2;
        let w52 = crate::shoup::shoup_precompute52(w, q);
        let mut a = a0.clone();
        assert_eq!(scalar_mul_assign(&k, &mut a, w, w52), n);
        for i in 0..n {
            assert_eq!(a[i], m.mul(a0[i], w), "scalar i={i}");
        }
        let mut a = a0.clone();
        assert_eq!(add_assign(q, &mut a, &b), n);
        for i in 0..n {
            assert_eq!(a[i], m.add(a0[i], b[i]), "add i={i}");
        }
        let w = q / 3;
        let w52 = crate::shoup::shoup_precompute52(w, q);
        // A canonical subtrahend, then a lazy [0, 4q) one: same result.
        let b_lazy: Vec<u64> = b
            .iter()
            .enumerate()
            .map(|(i, &x)| x + q * ((i % 4) as u64))
            .collect();
        for sub in [&b, &b_lazy] {
            let mut a = a0.clone();
            assert_eq!(sub_scalar_mul_assign(&k, &mut a, sub, w, w52), n);
            for i in 0..n {
                let want = m.mul(m.sub(a0[i], b[i]), w);
                assert_eq!(a[i], want, "sub_scalar_mul i={i}");
            }
        }
    }

    /// One instantiation of [`mac_assign`] on `n` words against the
    /// golden model: the full 8-lane blocks hold `±(x·b) + Σ addends`,
    /// the `n % 8` tail words are as they were.
    fn check_shape<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>(n: usize) {
        let q = 0xFFF_FFFF_C001u64; // 2^44 - 2^14 + 1
        let m = Modulus::new(q).unwrap();
        let k = Mont52::new(q);
        let shape = format!("PRE={PRE} NEG={NEG} ACC={ACC} SRC={SRC} n={n}");
        let dst0 = pseudo(n, q, 11);
        let b = pseudo(n, q, 12);
        let src: [Vec<u64>; SRC] = std::array::from_fn(|s| pseudo(n, q, 13 + s as u64));
        // Pre-entered: b̃ = b·2^52 mod q lane-wise, left lazy in [0, 2q).
        let b_in: Vec<u64> = if PRE {
            b.iter()
                .map(|&y| crate::shoup::mul_shoup52_lazy(y, k.r52, k.r52_shoup, q))
                .collect()
        } else {
            b.clone()
        };
        let mut dst = dst0.clone();
        let done =
            mac_assign::<PRE, NEG, ACC, SRC>(&k, &mut dst, &b_in, src.each_ref().map(|s| &s[..]));
        assert_eq!(done, n - n % 8, "{shape}");
        for i in 0..done {
            let mut addends: Vec<u64> = src.iter().map(|s| s[i]).collect();
            let x = if ACC {
                std::mem::replace(&mut addends[0], dst0[i])
            } else {
                dst0[i]
            };
            let p = m.mul(x, b[i]);
            let signed = if NEG { m.neg(p) } else { p };
            let want = addends.iter().fold(signed, |t, &y| m.add(t, y));
            assert_eq!(dst[i], want, "{shape} i={i}");
        }
        assert_eq!(&dst[done..], &dst0[done..], "{shape}: tail touched");
    }

    /// The seven shapes `DyadicEngine` names, and the two corners of the
    /// parameter space beyond them.
    fn check_every_shape(n: usize) {
        check_shape::<false, false, false, 0>(n); // a·b
        check_shape::<true, false, false, 0>(n); // a·b̃
        check_shape::<false, false, false, 1>(n); // a·b + c
        check_shape::<false, true, false, 1>(n); // c − a·b
        check_shape::<false, true, false, 2>(n); // c + d − a·b
        check_shape::<false, false, false, 2>(n); // a·b + c + d
        check_shape::<true, false, true, 1>(n); // a + b·d̃
        check_shape::<false, true, false, 0>(n); // −a·b
        check_shape::<true, true, true, 2>(n); // a + d − c·b̃
    }

    #[test]
    fn fused_kernels_match_golden() {
        if CpuCaps::detect().ifma() {
            check_every_shape(40);
        }
    }

    #[test]
    fn tail_is_left_untouched() {
        if CpuCaps::detect().ifma() {
            for n in [5, 13, 47] {
                check_every_shape(n);
            }
        }
    }
}
