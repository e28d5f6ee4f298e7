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
//! Stages whose butterfly span `t` is at least one vector (8 lanes) use
//! straight loads; the three short-span stages (`t = 4, 2, 1`) are
//! **fused into one in-register pass** per 8-element block, pairing
//! lanes with `vpermq` and blending the butterfly halves with lane
//! masks — no scalar fallback remains. Lazy representatives are always
//! congruent mod `q`, so after the closing normalization the transform
//! is **bit-identical** to the golden kernel (asserted by the tier-1
//! suites).
//!
//! Everything here is `x86_64`-only and gated at runtime behind
//! [`CpuCaps::detect`]; other architectures (and machines without
//! IFMA) take the scalar Harvey path in [`crate::ntt::NttPlan`].
//!
//! [`TwiddleTable`]: crate::twiddle::TwiddleTable

#![cfg(target_arch = "x86_64")]

use abc_math::{shoup, CpuCaps};
use core::arch::x86_64::*;

/// Forward negacyclic NTT, Cooley–Tukey, values lazily in `[0, 4q)`,
/// normalized to `[0, q)` at the end — unless `normalize` is off, when
/// output lanes stay lazy in `[0, 4q)` for a consumer that normalizes in
/// its own pass (the NTT-edge fusion of
/// `DyadicEngine::sub_scalar_mul_assign`).
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
pub fn forward(a: &mut [u64], q: u64, tw: &[u64], tw_shoup52: &[u64], normalize: bool) {
    // Hard assert: this is a safe public fn, so executing the
    // target_feature impl on a CPU without IFMA would be UB reachable
    // from safe code. One branch is noise next to an N ≥ 16 transform.
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert_columns(a, tw, tw_shoup52);
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // SAFETY: the asserts above prove the required target features and
    // the slice shapes.
    unsafe { forward_impl(a, q, tw, tw_shoup52, normalize) }
}

/// Inverse negacyclic NTT, Gentleman–Sande, values lazily in `[0, 2q)`,
/// scaled by `N^{-1}` (canonical `[0, q)`) at the end: `a = INTT(src −
/// sub)`, with the copy from `src` (when given, else `a` itself) and
/// the canonical subtraction of `sub` (when given) folded into the
/// first stage's loads — the preceding element-wise pass never touches
/// DRAM.
///
/// `tw`/`tw_shoup52` are the same **forward** columns [`forward`]
/// takes. `src` and `sub` lanes must be canonical `[0, q)`.
///
/// # Panics
///
/// Same contract as [`forward`], plus equal slice lengths.
#[allow(clippy::too_many_arguments)] // the plan's precomputed tables, flattened
pub fn inverse_fused(
    a: &mut [u64],
    src: Option<&[u64]>,
    sub: Option<&[u64]>,
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
    if let Some(b) = sub {
        assert_eq!(a.len(), b.len());
    }
    assert_columns(a, tw, tw_shoup52);
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // SAFETY: the asserts above prove the required target features and
    // the slice shapes.
    unsafe { inverse_impl(a, src, sub, q, tw, tw_shoup52, n_inv, n_inv_shoup52) }
}

/// The shape every kernel's raw reads rest on: a power-of-two length of
/// at least 16, and twiddle columns of exactly that length.
fn assert_columns(a: &[u64], tw: &[u64], tw_shoup52: &[u64]) {
    let n = a.len();
    assert!(n >= 16 && n.is_power_of_two(), "length {n}");
    assert!(tw.len() == n && tw_shoup52.len() == n, "twiddle columns");
}

/// Eight-lane radix-2^52 Shoup multiply: returns `r ≡ y·w (mod q)` with
/// every lane in `[0, 2q)`, for lanes `y < 2^52`, `w < q < 2^50`.
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into.
#[inline(always)]
unsafe fn mul_shoup52_x8(y: __m512i, w: __m512i, w52: __m512i, vq: __m512i) -> __m512i {
    // SAFETY: register-only IFMA arithmetic; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        let zero = _mm512_setzero_si512();
        let mask52 = _mm512_set1_epi64(shoup::MASK52 as i64);
        // hi = floor(y·w' / 2^52); r = (lo52(y·w) − lo52(hi·q)) mod 2^52.
        let hi = _mm512_madd52hi_epu64(zero, y, w52);
        let t1 = _mm512_madd52lo_epu64(zero, y, w);
        let t2 = _mm512_madd52lo_epu64(zero, hi, vq);
        _mm512_and_si512(_mm512_sub_epi64(t1, t2), mask52)
    }
}

/// Eight-lane conditional subtract: `min(x, x − m)` unsigned maps
/// `[0, 2m)` into `[0, m)` (the wrapped lane is huge, so `min` picks
/// the in-range representative).
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into.
#[inline(always)]
unsafe fn csub_x8(x: __m512i, m: __m512i) -> __m512i {
    // SAFETY: register-only arithmetic; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe { _mm512_min_epu64(x, _mm512_sub_epi64(x, m)) }
}

/// Lane-pairing tables for one in-register butterfly layer: each lane
/// reads its pair's low element through `idx_lo`, its high element
/// through `idx_hi`, and `hi_mask` marks the lanes that receive the
/// `u + 2q − v` half.
struct LayerPerm {
    idx_lo: __m512i,
    idx_hi: __m512i,
    hi_mask: __mmask8,
}

/// Builds the three short-span layer permutations (t = 4, 2, 1).
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into.
#[inline(always)]
unsafe fn layer_perms() -> [LayerPerm; 3] {
    // SAFETY: register-only table builds; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        [
            // t = 4: pairs (l, l+4).
            LayerPerm {
                idx_lo: _mm512_set_epi64(3, 2, 1, 0, 3, 2, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 5, 4, 7, 6, 5, 4),
                hi_mask: 0xF0,
            },
            // t = 2: pairs (l, l+2) within each half.
            LayerPerm {
                idx_lo: _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2),
                hi_mask: 0xCC,
            },
            // t = 1: adjacent pairs (2l, 2l+1).
            LayerPerm {
                idx_lo: _mm512_set_epi64(6, 6, 4, 4, 2, 2, 0, 0),
                idx_hi: _mm512_set_epi64(7, 7, 5, 5, 3, 3, 1, 1),
                hi_mask: 0xAA,
            },
        ]
    }
}

/// Per-lane twiddle vectors for the short-span layers of block `b`
/// (`n/8` blocks of 8 lanes): layer t=4 uses one twiddle, t=2 two,
/// t=1 four, each repeated across its chunk's lanes (adjacent in the
/// column, so each vector is one load and one `vpermq`). With `rev`
/// they are the inverse direction's: GS group `i` of `h` multiplies by
/// (minus) forward entry `2h − 1 − i`, which for block `b` is forward
/// block `n/8 − 1 − b` with each layer's twiddles in reverse order.
/// # Safety
///
/// `col` must hold `n` entries and `b` be below `n/8`. The CPU must
/// support AVX-512F and AVX-512IFMA; the helper is `#[inline(always)]`
/// so it inherits the features of the kernel it inlines into.
#[inline(always)]
unsafe fn layer_twiddles(col: &[u64], n: usize, b: usize, rev: bool) -> [__m512i; 3] {
    let b = if rev { n / 8 - 1 - b } else { b };
    debug_assert!(col.len() == n && b < n / 8);
    // SAFETY: the column holds `n` entries (hard-asserted by the public
    // wrappers) and `b < n/8` (the caller's loop bound, so its mirror
    // too): the one-, two- and four-word reads at `n/8 + b`, `n/4 + 2b`
    // and `n/2 + 4b` end at or before `n`. The rest is register-only;
    // the caller (an avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        let p = col.as_ptr();
        let w4 = _mm512_set1_epi64(*p.add(n / 8 + b) as i64);
        let w2 = _mm512_castsi128_si512(_mm_loadu_si128(p.add(n / 4 + 2 * b).cast()));
        let w1 = _mm512_castsi256_si512(_mm256_loadu_si256(p.add(n / 2 + 4 * b).cast()));
        // Lane `l` takes twiddle `l / 4` of the pair and `l / 2` of the
        // quad, counted from the other end (index XOR top) when reversed.
        let (top2, top1) = if rev { (1, 3) } else { (0, 0) };
        let i2 = _mm512_set_epi64(1, 1, 1, 1, 0, 0, 0, 0);
        let i1 = _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0);
        let i2 = _mm512_xor_si512(i2, _mm512_set1_epi64(top2));
        let i1 = _mm512_xor_si512(i1, _mm512_set1_epi64(top1));
        [
            w4,
            _mm512_permutexvar_epi64(i2, w2),
            _mm512_permutexvar_epi64(i1, w1),
        ]
    }
}

/// One Cooley–Tukey layer fully inside a vector: every lane computes
/// `u = csub(lo)`, `v = lo-lane·w`, then takes `u + v` (low half) or
/// `u + 2q − v` (high half).
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into.
#[inline(always)]
unsafe fn ct_layer(
    v: __m512i,
    p: &LayerPerm,
    w: __m512i,
    w52: __m512i,
    vq: __m512i,
    v2q: __m512i,
) -> __m512i {
    // SAFETY: register-only arithmetic through [`mul_shoup52_x8`]/[`csub_x8`]; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        let lo = _mm512_permutexvar_epi64(p.idx_lo, v);
        let hi = _mm512_permutexvar_epi64(p.idx_hi, v);
        let u = csub_x8(lo, v2q);
        let t = mul_shoup52_x8(hi, w, w52, vq);
        let plus = _mm512_add_epi64(u, t);
        let minus = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), t);
        _mm512_mask_blend_epi64(p.hi_mask, plus, minus)
    }
}

/// One Gentleman–Sande layer inside a vector: low half takes the lazily
/// reduced sum, high half multiplies the lifted difference `hi + 2q −
/// lo ∈ (0, 4q)` (inputs `[0, 2q)`) by the **negated** inverse twiddle.
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA; the helper is
/// `#[inline(always)]` so it inherits the features of the
/// `target_feature` kernel it inlines into.
#[inline(always)]
unsafe fn gs_layer(
    v: __m512i,
    p: &LayerPerm,
    w: __m512i,
    w52: __m512i,
    vq: __m512i,
    v2q: __m512i,
) -> __m512i {
    // SAFETY: register-only arithmetic through [`mul_shoup52_x8`]/[`csub_x8`]; the caller (an
    // avx512f+avx512ifma kernel) guarantees the features.
    unsafe {
        let lo = _mm512_permutexvar_epi64(p.idx_lo, v);
        let hi = _mm512_permutexvar_epi64(p.idx_hi, v);
        let s = csub_x8(_mm512_add_epi64(lo, hi), v2q);
        let d = _mm512_sub_epi64(_mm512_add_epi64(hi, v2q), lo);
        let t = mul_shoup52_x8(d, w, w52, vq);
        _mm512_mask_blend_epi64(p.hi_mask, s, t)
    }
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); slice lengths are a
/// power of two ≥ 16, all equal, with twiddle tables of the same size.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn forward_impl(a: &mut [u64], q: u64, tw: &[u64], tw_shoup52: &[u64], normalize: bool) {
    let n = a.len();
    let vq = _mm512_set1_epi64(q as i64);
    let v2q = _mm512_set1_epi64(2 * q as i64);
    // Long-span stages (t ≥ 8): straight vector loads.
    let mut t = n;
    let mut m = 1usize;
    while m <= n / 16 {
        t >>= 1;
        for i in 0..m {
            let w = _mm512_set1_epi64(tw[m + i] as i64);
            let w52 = _mm512_set1_epi64(tw_shoup52[m + i] as i64);
            let base = 2 * i * t;
            let mut j = 0;
            while j < t {
                // SAFETY: base + j + t + 8 <= base + 2t <= n.
                unsafe {
                    let px = a.as_mut_ptr().add(base + j) as *mut __m512i;
                    let py = a.as_mut_ptr().add(base + t + j) as *mut __m512i;
                    let x = _mm512_loadu_si512(px);
                    let y = _mm512_loadu_si512(py);
                    // Invariant: x, y < 4q. u < 2q; v < 2q.
                    let u = csub_x8(x, v2q);
                    let v = mul_shoup52_x8(y, w, w52, vq);
                    _mm512_storeu_si512(px, _mm512_add_epi64(u, v));
                    let d = _mm512_sub_epi64(_mm512_add_epi64(u, v2q), v);
                    _mm512_storeu_si512(py, d);
                }
                j += 8;
            }
        }
        m <<= 1;
    }
    // Short-span stages t = 4, 2, 1, fused in-register per 8-lane
    // block, then the closing normalization [0, 4q) → [0, q) — skipped
    // in lazy mode, where the following dyadic pass normalizes instead.
    debug_assert_eq!(m, n / 8);
    // SAFETY: this `target_feature` kernel already owns the features
    // `layer_perms` needs.
    let perms = unsafe { layer_perms() };
    for b in 0..n / 8 {
        // SAFETY: 8b + 8 <= n; twiddle reads stay inside the table.
        unsafe {
            let p = a.as_mut_ptr().add(8 * b) as *mut __m512i;
            let ws = layer_twiddles(tw, n, b, false);
            let ws52 = layer_twiddles(tw_shoup52, n, b, false);
            let mut v = _mm512_loadu_si512(p);
            for l in 0..3 {
                v = ct_layer(v, &perms[l], ws[l], ws52[l], vq, v2q);
            }
            let out = if normalize {
                csub_x8(csub_x8(v, v2q), vq)
            } else {
                v
            };
            _mm512_storeu_si512(p, out);
        }
    }
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrappers
/// assert [`CpuCaps::ifma`] before dispatching here); slice lengths are a
/// power of two ≥ 16, all equal, with twiddle tables of the same size.
#[target_feature(enable = "avx512f,avx512ifma")]
#[allow(clippy::too_many_arguments)]
unsafe fn inverse_impl(
    a: &mut [u64],
    src: Option<&[u64]>,
    sub: Option<&[u64]>,
    q: u64,
    tw: &[u64],
    tw_shoup52: &[u64],
    n_inv: u64,
    n_inv_shoup52: u64,
) {
    let n = a.len();
    let vq = _mm512_set1_epi64(q as i64);
    let v2q = _mm512_set1_epi64(2 * q as i64);
    // Short-span stages t = 1, 2, 4 fused in-register (the GS order is
    // the CT order reversed, so the layer tables run back to front).
    // This first pass also absorbs the optional out-of-place read from
    // `src` and canonical subtraction of `sub`: a + (q − b) ∈ (0, 2q)
    // satisfies the GS input invariant without an extra memory pass.
    // SAFETY: this `target_feature` kernel already owns the features
    // `layer_perms` needs.
    let perms = unsafe { layer_perms() };
    for b in 0..n / 8 {
        // SAFETY: 8b + 8 <= n (equal lengths asserted by the callers);
        // twiddle reads stay inside the table.
        unsafe {
            let p = a.as_mut_ptr().add(8 * b) as *mut __m512i;
            let mut v = match src {
                Some(s) => _mm512_loadu_si512(s.as_ptr().add(8 * b) as *const __m512i),
                None => _mm512_loadu_si512(p),
            };
            if let Some(s) = sub {
                let vb = _mm512_loadu_si512(s.as_ptr().add(8 * b) as *const __m512i);
                v = _mm512_add_epi64(v, _mm512_sub_epi64(vq, vb));
            }
            let ws = layer_twiddles(tw, n, b, true);
            let ws52 = layer_twiddles(tw_shoup52, n, b, true);
            for l in [2usize, 1, 0] {
                v = gs_layer(v, &perms[l], ws[l], ws52[l], vq, v2q);
            }
            _mm512_storeu_si512(p, v);
        }
    }
    // Long-span stages (t ≥ 8).
    let mut t = 8usize;
    let mut m = n / 8;
    while m > 1 {
        let h = m >> 1;
        for i in 0..h {
            // Group i's inverse twiddle is −tw[2h − 1 − i].
            let w = _mm512_set1_epi64(tw[2 * h - 1 - i] as i64);
            let w52 = _mm512_set1_epi64(tw_shoup52[2 * h - 1 - i] as i64);
            let base = 2 * i * t;
            let mut j = 0;
            while j < t {
                // SAFETY: base + j + t + 8 <= base + 2t <= n.
                unsafe {
                    let px = a.as_mut_ptr().add(base + j) as *mut __m512i;
                    let py = a.as_mut_ptr().add(base + t + j) as *mut __m512i;
                    let x = _mm512_loadu_si512(px);
                    let y = _mm512_loadu_si512(py);
                    // Invariant: x, y < 2q. Sum reduced once; the
                    // difference y + 2q − x (< 4q < 2^52) goes through
                    // the 52-bit multiply by the negated twiddle.
                    let s = csub_x8(_mm512_add_epi64(x, y), v2q);
                    _mm512_storeu_si512(px, s);
                    let d = _mm512_sub_epi64(_mm512_add_epi64(y, v2q), x);
                    _mm512_storeu_si512(py, mul_shoup52_x8(d, w, w52, vq));
                }
                j += 8;
            }
        }
        t <<= 1;
        m = h;
    }
    // Closing N^{-1} scale, fully reduced to canonical [0, q).
    let w = _mm512_set1_epi64(n_inv as i64);
    let w52 = _mm512_set1_epi64(n_inv_shoup52 as i64);
    let mut j = 0;
    while j < n {
        // SAFETY: j + 8 <= n.
        unsafe {
            let p = a.as_mut_ptr().add(j) as *mut __m512i;
            let x = _mm512_loadu_si512(p);
            let r = mul_shoup52_x8(x, w, w52, vq);
            _mm512_storeu_si512(p, csub_x8(r, vq));
        }
        j += 8;
    }
}
