//! AVX-512IFMA negacyclic NTT kernels: Harvey butterflies on eight
//! 52-bit lanes per instruction.
//!
//! `vpmadd52{lo,hi}uq` multiply the low 52 bits of two lanes and
//! accumulate the low/high 52 bits of the 104-bit product — exactly the
//! two high-products of a radix-2^52 Shoup multiply. With RNS primes
//! below 2^50 (the paper's are 36-bit) every lazy intermediate
//! (`< 4q < 2^52`) fits a lane, so one 512-bit instruction replaces
//! eight scalar `mulhi`s. This is the technique Intel HEXL ships for
//! sub-50-bit CKKS primes; here it rides on the [`TwiddleTable`]'s
//! forward column and the radix-2^52 quotients its `NttPlan` builds
//! beside it. Both directions read those two and nothing else: the
//! inverse twiddle of group `i` in a stage of `h` is `−tw[2h − 1 − i]`
//! ([`crate::twiddle`]), so the Gentleman–Sande stages walk the forward
//! stage block top down and lift `y + 2q − x`, not `x + 2q − y`.
//!
//! A transform of `N = 2^k` is `⌈(k − 3)/2⌉ + 1` memory passes:
//!
//! - **Long spans (`t ≥ 8`), two stages per pass.** A radix-4 block
//!   loads four vectors `t` words apart, runs both stages' butterflies
//!   on them with the group's three twiddles broadcast, and stores them
//!   once. An odd count of long stages leaves one radix-2 pass: the
//!   first forward pass, the last inverse one. Lanes stay in `[0, 4q)`
//!   (forward) or `[0, 2q)` (inverse) from pass to pass.
//! - **Short spans (`t = 4, 2, 1`), one pass over two vectors.** Per 16
//!   words, `vshufi64x2` splits the pair of vectors into the low and
//!   high halves of the `t = 4` butterflies, a `vpermt2q` pair regroups
//!   them for `t = 2`, `vpunpck{l,h}qdq` for `t = 1`, and two more
//!   `vpermt2q` restore natural order (the inverse runs the moves
//!   backwards). Every butterfly fills all eight lanes, and each stage's
//!   per-lane twiddles are one column load (plus a `vpermq` at
//!   `t = 4, 2`, and at `t = 1` for the inverse, which reads the block
//!   reversed).
//! - **`N⁻¹` rides the last inverse stage.** Its butterfly computes
//!   `(x + y)·N⁻¹` and `(y + 2q − x)·(w₁·N⁻¹)` (both multiplier inputs
//!   `< 4q < 2^52`) and reduces each once to `[0, q)`, so no scaling
//!   pass follows. The passes are ordered so that the last one always
//!   holds that stage.
//!
//! # The streamed forward transform
//!
//! [`forward_stream`] is the forward transform with its neighbours
//! folded into its first and last passes — the host's version of the
//! paper's Fourier engine, which takes each limb from the PRNG and the
//! RNS expansion straight through the NTT into the modular
//! multiply–add without a trip to memory (§IV, Fig. 6b):
//!
//! - **Prologue, in the first pass** (the lone radix-2 pass, or the first
//!   radix-4 one). Its loads read signed `i8` / `i64` / `i128`
//!   coefficients instead of residues and reduce them in registers by
//!   the expansion's digit fold ([`simd::ExpandX8`]: a sign-select below
//!   `q`, Shoup folds of radix-2^52 digits above), so the lanes enter
//!   the butterflies canonical in `[0, q)` — inside the `[0, 4q)` the
//!   pass takes — and the first store is the first write of the buffer.
//!   No residue limb exists before the transform.
//! - **Tail, in the short-span pass.** After the `t = 1` stage the pass
//!   holds two vectors in natural order; it normalizes them from
//!   `[0, 4q)` to `[0, q)` and hands them to a [`TailX8`] instead of
//!   storing them: a plain store ([`simd::Store`], what [`forward`]
//!   runs), the domain entry ([`simd::Premul`]), `ŷ + b·d̃ (+ c)`
//!   ([`simd::Mac`]), or a result written elsewhere —
//!   `dst = ŷ (+ t) − dst·s` ([`simd::NegMulAdd`]) and
//!   `dst = (dst − ŷ)·w` ([`simd::SubScalarMul`]), which leave the
//!   buffer as scratch. Every operand the tail reads is canonical in
//!   `[0, q)` and so is what it writes: the tails are the steps the
//!   element-wise ops run over memory (`abc_math::simd::stream`), so
//!   the fused result is the unfused one bit for bit.
//!
//! The passes in between are [`forward`]'s. The prologue's passes are
//! instantiated per source width and digit count, the tail's per tail;
//! the two meet only through the buffer, so neither multiplies the
//! other's code.
//!
//! Lazy representatives are always congruent mod `q`, so a transform
//! that ends canonical is **bit-identical** to the golden model
//! (asserted by the tier-1 suites); debug builds also check every
//! pass's output domain, and `NttPlan::forward_stream` the tail's
//! operands and result.
//!
//! Everything here is `x86_64`-only and gated at runtime behind
//! [`CpuCaps::detect`]; other architectures (and machines without
//! IFMA) take the scalar Harvey path in [`crate::ntt::NttPlan`].
//!
//! [`TwiddleTable`]: crate::twiddle::TwiddleTable

#![cfg(target_arch = "x86_64")]

#[cfg(debug_assertions)]
use crate::ntt::assert_domain;
use abc_math::rns::{SignedCoeffs, SignedWord};
use abc_math::simd::{self, TailX8};
use abc_math::{shoup, CpuCaps};
use core::arch::x86_64::*;

/// Forward negacyclic NTT in place, Cooley–Tukey, values lazily in
/// `[0, 4q)` between passes and canonical in `[0, q)` at the end.
///
/// `tw`/`tw_shoup52` are the [`TwiddleTable`] value column and its
/// radix-2^52 quotients, in `ψ^{brv(k)}` layout.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], a power-of-two length of at least 16 and
/// columns of that length; debug-asserts `q < 2^50`.
///
/// [`TwiddleTable`]: crate::twiddle::TwiddleTable
pub fn forward(a: &mut [u64], q: u64, tw: &[u64], tw_shoup52: &[u64]) {
    // Hard assert: this is a safe public fn, so executing the
    // target_feature impl on a CPU without IFMA would be UB reachable
    // from safe code. One branch is noise next to an N ≥ 16 transform.
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert_columns(a.len(), tw, tw_shoup52);
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // SAFETY: the asserts above prove the required target features and
    // the slice shapes.
    unsafe {
        let t = first_in_place(a.as_mut_ptr(), a.len(), q, tw, tw_shoup52);
        forward_rest(a, t, q, tw, tw_shoup52, &simd::Store);
    }
    #[cfg(debug_assertions)]
    assert_domain(a, q, format_args!("ifma forward, last pass"));
}

/// The streamed forward transform: `buf = NTT(src mod q)`, finished by
/// `tail` in the last pass. The first pass loads `src`'s signed
/// coefficients and reduces them to canonical `[0, q)` residues in
/// registers ([`simd::ExpandX8`]), writing `buf` for the first time;
/// the short-span pass hands each pair of natural-order vectors,
/// canonical in `[0, q)`, to [`TailX8::finish`] instead of storing
/// them. `buf` is cleared and refilled to `N` words whatever it held; a
/// tail that writes elsewhere leaves it holding the transform's lazy
/// `[0, 4q)` words before the last pass.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], a power-of-two coefficient count `N` of
/// at least 16, columns and tail operands of that length; debug-asserts
/// `q < 2^50`.
pub fn forward_stream<X: SignedWord, T: TailX8>(
    buf: &mut Vec<u64>,
    src: &SignedCoeffs<'_, X>,
    q: u64,
    tw: &[u64],
    tw_shoup52: &[u64],
    tail: &T,
) {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n = src.coeffs().len();
    assert_columns(n, tw, tw_shoup52);
    assert!(
        tail.operand_len().is_none_or(|len| len == n),
        "tail operands"
    );
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    buf.clear();
    buf.reserve(n);
    let p = buf.spare_capacity_mut().as_mut_ptr().cast::<u64>();
    // SAFETY: the asserts above prove the required target features and
    // the shapes; `p` has room for `n` words, which the first pass
    // writes before any pass reads them; the digit count is the slice's.
    unsafe {
        let t = match simd::expand_digits(src.max_abs(), q) {
            0 => first_expanded::<X, 0>(p, src, q, tw, tw_shoup52),
            1 => first_expanded::<X, 1>(p, src, q, tw, tw_shoup52),
            2 => first_expanded::<X, 2>(p, src, q, tw, tw_shoup52),
            _ => first_expanded::<X, 3>(p, src, q, tw, tw_shoup52),
        };
        buf.set_len(n);
        forward_rest(buf, t, q, tw, tw_shoup52, tail);
    }
}

/// Inverse negacyclic NTT, Gentleman–Sande, values lazily in `[0, 2q)`,
/// scaled by `N^{-1}` (canonical `[0, q)`) in the last stage: `a =
/// INTT(src)`, with the copy from `src` (when given, else `a` itself)
/// folded into the first pass's loads — no copy pass precedes it.
///
/// `tw`/`tw_shoup52` are the same **forward** columns [`forward`]
/// takes. `src` lanes must be canonical `[0, q)`.
///
/// # Panics
///
/// Same contract as [`forward`], plus equal slice lengths.
pub fn inverse_fused(
    a: &mut [u64],
    src: Option<&[u64]>,
    q: u64,
    tw: &[u64],
    tw_shoup52: &[u64],
    n_inv: u64,
    n_inv_shoup52: u64,
) {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    if let Some(s) = src {
        assert_eq!(a.len(), s.len());
    }
    assert_columns(a.len(), tw, tw_shoup52);
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // The last stage (one group) multiplies its difference by tw[1];
    // with N⁻¹ folded in, by the canonical w₁·N⁻¹ and its quotient.
    let w1 = shoup::reduce_once(shoup::mul_shoup52_lazy(tw[1], n_inv, n_inv_shoup52, q), q);
    let fold = [n_inv, n_inv_shoup52, w1, shoup::shoup_precompute52(w1, q)];
    // SAFETY: the asserts above prove the required target features and
    // the slice shapes.
    unsafe { inverse_impl(a, src, q, tw, tw_shoup52, fold) }
}

/// The shape every kernel's raw reads rest on: a power-of-two length of
/// at least 16, and twiddle columns of exactly that length.
fn assert_columns(n: usize, tw: &[u64], tw_shoup52: &[u64]) {
    assert!(n >= 16 && n.is_power_of_two(), "length {n}");
    assert!(tw.len() == n && tw_shoup52.len() == n, "twiddle columns");
}

/// The modulus `q`, `2q` and `2^52 − q` in every lane.
#[derive(Clone, Copy)]
struct Lanes {
    q: __m512i,
    q2: __m512i,
    /// `2^52 − q`: a product by it is `−q·x` modulo `2^52`.
    qn: __m512i,
}

impl Lanes {
    /// # Safety
    ///
    /// AVX-512F, inherited from the kernel it inlines into.
    #[inline(always)]
    unsafe fn new(q: u64) -> Self {
        // SAFETY: register-only broadcasts; the kernel owns the features.
        unsafe {
            Self {
                q: _mm512_set1_epi64(q as i64),
                q2: _mm512_set1_epi64(2 * q as i64),
                qn: _mm512_set1_epi64(((1 << 52) - q) as i64),
            }
        }
    }
}

/// A Shoup multiplier per lane: the constant and its radix-2^52
/// quotient.
#[derive(Clone, Copy)]
struct Tw {
    w: __m512i,
    w52: __m512i,
}

/// Eight-lane radix-2^52 Shoup multiply: returns `r ≡ y·w (mod q)` with
/// every lane in `[0, 2q)`, for lanes `y < 2^52`, `w < q < 2^50`.
/// # Safety
///
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn mul_shoup52_x8(y: __m512i, w: Tw, k: Lanes) -> __m512i {
    // SAFETY: register-only; the calling kernel owns the features.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mask52 = _mm512_set1_epi64(shoup::MASK52 as i64);
        // hi = floor(y·w' / 2^52); r = (lo52(y·w) − lo52(hi·q)) mod 2^52,
        // the subtraction an accumulate of lo52(hi·(2^52 − q)): both
        // terms are below 2^52, so the sum fits before the mask.
        let hi = _mm512_madd52hi_epu64(zero, y, w.w52);
        let t = _mm512_madd52lo_epu64(zero, y, w.w);
        _mm512_and_si512(_mm512_madd52lo_epu64(t, hi, k.qn), mask52)
    }
}

/// Eight-lane conditional subtract: `min(x, x − m)` unsigned maps
/// `[0, 2m)` into `[0, m)` (the wrapped lane is huge, so `min` picks
/// the in-range representative).
/// # Safety
///
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn csub_x8(x: __m512i, m: __m512i) -> __m512i {
    // SAFETY: register-only; the calling kernel owns the features.
    unsafe { _mm512_min_epu64(x, _mm512_sub_epi64(x, m)) }
}

/// Cooley–Tukey butterfly on eight lane pairs `x, y ∈ [0, 4q)`: with
/// `u = x` reduced into `[0, 2q)` and `v = y·w ∈ [0, 2q)`, returns
/// `(u + v, u + 2q − v)`, both in `[0, 4q)`.
/// # Safety
///
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn ct(x: __m512i, y: __m512i, w: Tw, k: Lanes) -> (__m512i, __m512i) {
    // SAFETY: register-only; the calling kernel owns the features.
    unsafe {
        let u = csub_x8(x, k.q2);
        let v = mul_shoup52_x8(y, w, k);
        let d = _mm512_sub_epi64(_mm512_add_epi64(u, k.q2), v);
        (_mm512_add_epi64(u, v), d)
    }
}

/// Gentleman–Sande butterfly on eight lane pairs `x, y ∈ [0, 2q)`, `w`
/// the negated inverse twiddle: returns `x + y` reduced into `[0, 2q)`
/// and `(y + 2q − x)·w ∈ [0, 2q)`. With `scale = Some(N⁻¹)` — the last
/// stage, whose `w` carries `N⁻¹` too — the sum is multiplied by `N⁻¹`
/// instead, and both outputs leave canonical in `[0, q)`.
/// # Safety
///
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn gs(x: __m512i, y: __m512i, w: Tw, scale: Option<Tw>, k: Lanes) -> (__m512i, __m512i) {
    // SAFETY: register-only; the calling kernel owns the features.
    unsafe {
        let s = _mm512_add_epi64(x, y);
        let d = mul_shoup52_x8(_mm512_sub_epi64(_mm512_add_epi64(y, k.q2), x), w, k);
        match scale {
            None => (csub_x8(s, k.q2), d),
            Some(n_inv) => (csub_x8(mul_shoup52_x8(s, n_inv, k), k.q), csub_x8(d, k.q)),
        }
    }
}

/// One long-span memory pass over the `n` words at `a`: for every
/// group of `R·t` words, loads the `R` vectors `t` words apart at each
/// offset `j < t` through `load` (the word index in, eight lanes out),
/// runs `butterflies` on them with the group's `twiddles`, and stores
/// them at `a`. `R = 2` is one stage of span `t`; `R = 4` is two stages,
/// spans `2t` then `t` (forward) or `t` then `2t` (inverse).
/// # Safety
///
/// `t` must be a multiple of 8, `R·t` divide `n`, `a` be valid for
/// writing `n` words and `load` for reading any 8-aligned run below
/// `n`; AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn pass<const R: usize, W: Copy>(
    a: *mut u64,
    n: usize,
    t: usize,
    load: impl Fn(usize) -> __m512i,
    twiddles: impl Fn(usize) -> W,
    butterflies: impl Fn(&mut [__m512i; R], W),
) {
    debug_assert!(t.is_multiple_of(8) && n.is_multiple_of(R * t));
    for g in 0..n / (R * t) {
        let w = twiddles(g);
        let base = g * R * t;
        for j in (0..t).step_by(8) {
            // SAFETY: `base + r·t + j + 8 ≤ (g + 1)·R·t ≤ n` for `r < R`
            // and `j < t`, both multiples of 8. The rest is
            // register-only on the caller's features.
            unsafe {
                let mut v = [_mm512_setzero_si512(); R];
                for (r, x) in v.iter_mut().enumerate() {
                    *x = load(base + r * t + j);
                }
                butterflies(&mut v, w);
                for (r, x) in v.into_iter().enumerate() {
                    _mm512_storeu_si512(a.add(base + r * t + j).cast(), x);
                }
            }
        }
    }
}

/// Eight words at `p + i`: the in-place loader of a pass.
/// # Safety
///
/// `p + i` valid for reading eight words; AVX-512F, inherited from the
/// kernel it inlines into.
#[inline(always)]
unsafe fn load_words(p: *const u64, i: usize) -> __m512i {
    // SAFETY: by the contract.
    unsafe { _mm512_loadu_si512(p.add(i).cast()) }
}

/// The twiddle `tw[i]` and its quotient in every lane.
/// # Safety
///
/// `i` in bounds of both columns; AVX-512F, inherited from the kernel
/// it inlines into.
#[inline(always)]
unsafe fn splat_at(tw: &[u64], tw52: &[u64], i: usize) -> Tw {
    // SAFETY: register-only broadcasts, by the contract.
    unsafe {
        Tw {
            w: _mm512_set1_epi64(tw[i] as i64),
            w52: _mm512_set1_epi64(tw52[i] as i64),
        }
    }
}

/// Both forward stages of a radix-4 block `x0..x3`, lanes in `[0, 4q)`
/// in and out: spans `2t` with `w0`, then `t` with `w1` / `w2`.
/// # Safety
///
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn ct4(v: &mut [__m512i; 4], [w0, w1, w2]: [Tw; 3], k: Lanes) {
    // SAFETY: register-only arithmetic on the caller's features.
    unsafe {
        let [x0, x1, x2, x3] = *v;
        let (x0, x2) = ct(x0, x2, w0, k);
        let (x1, x3) = ct(x1, x3, w0, k);
        let (x0, x1) = ct(x0, x1, w1, k);
        let (x2, x3) = ct(x2, x3, w2, k);
        *v = [x0, x1, x2, x3];
    }
}

/// Per-lane twiddles of a short-span stage: the eight column entries
/// from `i` on, permuted by `idx` when given.
/// # Safety
///
/// `i + 8` must not exceed the columns' length; AVX-512F + IFMA,
/// inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn tw_lanes(tw: &[u64], tw52: &[u64], i: usize, idx: Option<__m512i>) -> Tw {
    debug_assert!(i + 8 <= tw.len() && tw.len() == tw52.len());
    // SAFETY: `i + 8 ≤ len` is the caller's contract; register-only
    // otherwise.
    unsafe {
        let w = _mm512_loadu_si512(tw.as_ptr().add(i).cast());
        let w52 = _mm512_loadu_si512(tw52.as_ptr().add(i).cast());
        match idx {
            None => Tw { w, w52 },
            Some(idx) => Tw {
                w: _mm512_permutexvar_epi64(idx, w),
                w52: _mm512_permutexvar_epi64(idx, w52),
            },
        }
    }
}

/// The first forward pass, reading its lanes through `load`: the lone
/// radix-2 pass when the long-stage count `log n − 3` is odd, else the
/// first radix-4 pass. Lanes in `[0, 4q)` in and out (`load` gives
/// canonical or `[0, 4q)` ones). Returns the span the next pass starts
/// at.
/// # Safety
///
/// `a` valid for writing `n` words, `n` a power of two ≥ 16 and the
/// columns that long, `load` valid for any 8-aligned run below `n`;
/// AVX-512F + IFMA, inherited from the kernel it inlines into.
#[inline(always)]
unsafe fn first_pass(
    a: *mut u64,
    n: usize,
    q: u64,
    tw: &[u64],
    tw52: &[u64],
    load: impl Fn(usize) -> __m512i,
) -> usize {
    // SAFETY: by the contract; register-only broadcasts and butterflies.
    unsafe {
        let k = Lanes::new(q);
        let at = |i: usize| splat_at(tw, tw52, i);
        let t = n / 2;
        let next = if n.trailing_zeros().is_multiple_of(2) {
            // One group of span t = n/2 ≥ 8, multiplied by tw[1].
            pass::<2, _>(
                a,
                n,
                t,
                load,
                |_| at(1),
                |[x, y], w| (*x, *y) = ct(*x, *y, w, k),
            );
            t / 2
        } else {
            // Spans (n/2, n/4): one group, twiddles tw[1], tw[2], tw[3].
            let twiddles = |_| [1, 2, 3].map(at);
            pass::<4, _>(a, n, t / 2, load, twiddles, |v, w| ct4(v, w, k));
            t / 4
        };
        #[cfg(debug_assertions)]
        assert_domain(
            core::slice::from_raw_parts(a, n),
            4 * q,
            format_args!("ifma forward first pass"),
        );
        next
    }
}

/// [`first_pass`] in place.
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); `a` holds `n`
/// words, a power of two ≥ 16, and the columns are that long.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn first_in_place(a: *mut u64, n: usize, q: u64, tw: &[u64], tw52: &[u64]) -> usize {
    // SAFETY: by the contract; the loader reads the words the pass then
    // overwrites, each before its store.
    unsafe { first_pass(a, n, q, tw, tw52, |i| load_words(a, i)) }
}

/// How far ahead of a prologue load, in words, the first pass asks for
/// its destination line (1 KiB).
const WRITE_AHEAD: usize = 128;

/// [`first_pass`] with the prologue: lanes loaded from `src` and
/// reduced to canonical `[0, q)` residues in registers. The pass writes
/// `a` without reading it, so each load also asks for the line
/// [`WRITE_AHEAD`] words past its own in `a` with intent to write
/// (`prefetchw`): a store that misses costs the pass more than the
/// prologue's arithmetic.
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); `a` is valid for
/// writing as many words as `src` holds, a power of two ≥ 16, the
/// columns are that long, and `D` is `src`'s digit count under `q`.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn first_expanded<X: SignedWord, const D: usize>(
    a: *mut u64,
    src: &SignedCoeffs<'_, X>,
    q: u64,
    tw: &[u64],
    tw52: &[u64],
) -> usize {
    // SAFETY: by the contract; `ExpandX8::new` checks `D`. A prefetch
    // never faults, and `wrapping_add` keeps an address past the end
    // from being UB.
    unsafe {
        let prologue = simd::ExpandX8::<X, D>::new(src, q);
        let load = |i: usize| {
            _mm_prefetch::<_MM_HINT_ET0>(a.wrapping_add(i + WRITE_AHEAD).cast());
            prologue.load(i)
        };
        first_pass(a, src.coeffs().len(), q, tw, tw52, load)
    }
}

/// The forward passes after the first, lanes in `[0, 4q)`: radix-4
/// passes from span `t` down to 16, then the short-span pass, whose
/// natural-order vectors leave canonical in `[0, q)` through `tail`.
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); `a.len()` is a
/// power of two ≥ 16, the columns and the tail's operands are that long,
/// `a` holds `[0, 4q)` lanes and `t` is what [`first_pass`] returned.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn forward_rest<T: TailX8>(
    a: &mut [u64],
    mut t: usize,
    q: u64,
    tw: &[u64],
    tw52: &[u64],
    tail: &T,
) {
    let n = a.len();
    // SAFETY: register-only broadcasts on this kernel's features.
    let k = unsafe { Lanes::new(q) };
    // SAFETY: register-only broadcasts with `i < n`.
    let at = |i: usize| unsafe { splat_at(tw, tw52, i) };
    // Long spans top down, stage `m` (groups of 2t words) multiplying
    // group `g` by tw[m + g]: radix-4 passes over spans (t, t/2).
    while t >= 16 {
        let m = n / (2 * t);
        let twiddles = |g: usize| [m + g, 2 * m + 2 * g, 2 * m + 2 * g + 1].map(at);
        let p = a.as_mut_ptr();
        // SAFETY: t/2 ≥ 8 is a power of two and 2t divides n; the
        // loader reads the words the pass then overwrites, each before
        // its store; the butterflies are register-only.
        unsafe {
            pass::<4, _>(
                p,
                n,
                t / 2,
                |i| load_words(p, i),
                twiddles,
                |v, w| ct4(v, w, k),
            )
        };
        #[cfg(debug_assertions)]
        assert_domain(a, 4 * q, format_args!("ifma forward radix-4, spans {t}"));
        t /= 4;
    }
    debug_assert_eq!(t, 4);
    // Short spans t = 4, 2, 1 on 16 words (block b) at a time, the
    // normalization [0, 4q) → [0, q), and the tail on the two vectors in
    // natural order.
    let to_t2 = [
        _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
        _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15),
    ];
    let to_natural = [
        _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
        _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
    ];
    let lanes_t4 = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    let lanes_t2 = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    // SAFETY: register-only broadcasts, by this kernel's features.
    let finish = unsafe { tail.lanes() };
    let p = a.as_mut_ptr();
    for b in 0..n / 16 {
        // SAFETY: 16b + 16 ≤ n, the length of `a` and of the tail's
        // operands; the column reads end at n/8 + 2b + 8, n/4 + 4b + 8
        // and n/2 + 8b + 8, all ≤ n since b < n/16.
        unsafe {
            let at = p.add(16 * b);
            let lo = _mm512_loadu_si512(at.cast());
            let hi = _mm512_loadu_si512(at.add(8).cast());
            // t = 4: x = words 0–3 | 8–11, y = 4–7 | 12–15.
            let x = _mm512_shuffle_i64x2::<0x44>(lo, hi);
            let y = _mm512_shuffle_i64x2::<0xEE>(lo, hi);
            let (x, y) = ct(x, y, tw_lanes(tw, tw52, n / 8 + 2 * b, Some(lanes_t4)), k);
            // t = 2: x = words {0,1,4,5,8,9,12,13}, y = the rest.
            let x2 = _mm512_permutex2var_epi64(x, to_t2[0], y);
            let y2 = _mm512_permutex2var_epi64(x, to_t2[1], y);
            let (x, y) = ct(x2, y2, tw_lanes(tw, tw52, n / 4 + 4 * b, Some(lanes_t2)), k);
            // t = 1: x = even words, y = odd words.
            let x1 = _mm512_unpacklo_epi64(x, y);
            let y1 = _mm512_unpackhi_epi64(x, y);
            let (x, y) = ct(x1, y1, tw_lanes(tw, tw52, n / 2 + 8 * b, None), k);
            let x = csub_x8(csub_x8(x, k.q2), k.q);
            let y = csub_x8(csub_x8(y, k.q2), k.q);
            let [lo, hi] = to_natural.map(|idx| _mm512_permutex2var_epi64(x, idx, y));
            tail.finish(&finish, 16 * b, lo, p);
            tail.finish(&finish, 16 * b + 8, hi, p);
        }
    }
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); slice lengths are a
/// power of two ≥ 16, all equal, with twiddle tables of the same size.
/// `fold` is `[N⁻¹, its quotient, w₁·N⁻¹, its quotient]`, canonical.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn inverse_impl(
    a: &mut [u64],
    src: Option<&[u64]>,
    q: u64,
    tw: &[u64],
    tw52: &[u64],
    fold: [u64; 4],
) {
    let n = a.len();
    // SAFETY: register-only broadcasts on this kernel's features.
    let k = unsafe { Lanes::new(q) };
    let splat = |w: u64, w52: u64| Tw {
        w: _mm512_set1_epi64(w as i64),
        w52: _mm512_set1_epi64(w52 as i64),
    };
    let at = |i: usize| splat(tw[i], tw52[i]);
    // Short spans t = 1, 2, 4 on 16 words (block b) at a time: the CT
    // lane moves backwards, each stage's twiddles the forward block's
    // mirror reversed. This first pass also absorbs the optional
    // out-of-place read from `src`, whose canonical lanes satisfy the GS
    // input invariant (< 2q).
    let to_t1 = [
        _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
        _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
    ];
    let to_t4 = [
        _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13),
        _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15),
    ];
    let lanes_t1 = _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let lanes_t2 = _mm512_setr_epi64(3, 3, 2, 2, 1, 1, 0, 0);
    let lanes_t4 = _mm512_setr_epi64(1, 1, 1, 1, 0, 0, 0, 0);
    for b in 0..n / 16 {
        // SAFETY: 16b + 16 ≤ n (equal lengths asserted by the callers);
        // the column reads start at n − 8b − 8, n/2 − 4b − 4 and
        // n/4 − 2b − 2 (≥ 0 since b < n/16) and end ≤ n.
        unsafe {
            let p = a.as_mut_ptr().add(16 * b);
            let s = src.map_or(p.cast_const(), |s| s.as_ptr().add(16 * b));
            let lo = _mm512_loadu_si512(s.cast());
            let hi = _mm512_loadu_si512(s.add(8).cast());
            // t = 1: x = even words, y = odd words.
            let x1 = _mm512_permutex2var_epi64(lo, to_t1[0], hi);
            let y1 = _mm512_permutex2var_epi64(lo, to_t1[1], hi);
            let w = tw_lanes(tw, tw52, n - 8 * b - 8, Some(lanes_t1));
            let (x, y) = gs(x1, y1, w, None, k);
            // t = 2: x = words {0,1,4,5,8,9,12,13}, y = the rest.
            let x2 = _mm512_unpacklo_epi64(x, y);
            let y2 = _mm512_unpackhi_epi64(x, y);
            let w = tw_lanes(tw, tw52, n / 2 - 4 * b - 4, Some(lanes_t2));
            let (x, y) = gs(x2, y2, w, None, k);
            // t = 4: x = words 0–3 | 8–11, y = 4–7 | 12–15.
            let x4 = _mm512_permutex2var_epi64(x, to_t4[0], y);
            let y4 = _mm512_permutex2var_epi64(x, to_t4[1], y);
            let w = tw_lanes(tw, tw52, n / 4 - 2 * b - 2, Some(lanes_t4));
            let (x, y) = gs(x4, y4, w, None, k);
            _mm512_storeu_si512(p.cast(), _mm512_shuffle_i64x2::<0x44>(x, y));
            _mm512_storeu_si512(p.add(8).cast(), _mm512_shuffle_i64x2::<0xEE>(x, y));
        }
    }
    #[cfg(debug_assertions)]
    assert_domain(a, 2 * q, format_args!("ifma inverse tail"));
    // Long spans bottom up, stage `h` (groups of 2t words) multiplying
    // group `g` by −tw[2h − 1 − g]: radix-4 passes over spans (t, 2t)
    // while a stage is left after them, then the last pass — radix-4 or
    // a lone radix-2 — holds the one-group stage, with N⁻¹ folded in.
    let gs4 = |v: &mut [__m512i; 4], [w0, w1, w2]: [Tw; 3], scale: Option<Tw>| {
        let [x0, x1, x2, x3] = *v;
        // SAFETY: register-only arithmetic on this kernel's features.
        unsafe {
            let (x0, x1) = gs(x0, x1, w0, None, k);
            let (x2, x3) = gs(x2, x3, w1, None, k);
            let (x0, x2) = gs(x0, x2, w2, scale, k);
            let (x1, x3) = gs(x1, x3, w2, scale, k);
            *v = [x0, x1, x2, x3];
        }
    };
    let mut t = 8;
    while 4 * t < n {
        let h = n / (4 * t);
        let twiddles = |g: usize| [4 * h - 1 - 2 * g, 4 * h - 2 - 2 * g, 2 * h - 1 - g].map(at);
        let p = a.as_mut_ptr();
        // SAFETY: t ≥ 8 is a power of two and 4t divides n; the loader
        // reads the words the pass then overwrites, each before its store.
        unsafe {
            pass::<4, _>(
                p,
                n,
                t,
                |i| load_words(p, i),
                twiddles,
                |v, w| gs4(v, w, None),
            )
        };
        #[cfg(debug_assertions)]
        assert_domain(a, 2 * q, format_args!("ifma inverse radix-4, spans {t}"));
        t *= 4;
    }
    let [n_inv, n_inv52, w1, w1_52] = fold;
    let (scale, w1) = (Some(splat(n_inv, n_inv52)), splat(w1, w1_52));
    let p = a.as_mut_ptr();
    if 4 * t == n {
        let twiddles = |_| [at(3), at(2), w1];
        // SAFETY: t ≥ 8 is a power of two and 4t = n; the loader reads
        // the words the pass then overwrites, each before its store.
        unsafe {
            pass::<4, _>(
                p,
                n,
                t,
                |i| load_words(p, i),
                twiddles,
                |v, w| gs4(v, w, scale),
            )
        };
    } else {
        let gs2 = |[x, y]: &mut [__m512i; 2], w| {
            // SAFETY: register-only butterflies on this kernel's features.
            unsafe { (*x, *y) = gs(*x, *y, w, scale, k) }
        };
        // SAFETY: t = n/2 ≥ 8 is a power of two; the loader reads the
        // words the pass then overwrites, each before its store.
        unsafe { pass::<2, _>(p, n, t, |i| load_words(p, i), |_| w1, gs2) };
    }
    #[cfg(debug_assertions)]
    assert_domain(a, q, format_args!("ifma inverse last pass, span {t}"));
}
