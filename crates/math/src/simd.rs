//! The AVX-512IFMA datapath: every kernel that multiplies on eight
//! 52-bit lanes per `vpmadd52{lo,hi}uq`, in one module — the host's
//! version of the one multiplier datapath the paper's Fourier engine and
//! its modular streaming engine share (§IV-A).
//!
//! Outside the crate the module is three safe functions, the butterfly
//! passes of `NttPlan` in `abc-transform` ([`ntt_forward`],
//! [`ntt_forward_stream`], [`ntt_inverse`], in the `ntt` submodule); the
//! element-wise, expansion and lift kernels are reached through
//! [`crate::dyadic::DyadicEngine`] and [`crate::rns::WordLift`]. Every
//! lane type, trait and `unsafe fn` here is crate-private, so each unsafe
//! contract is written and relied on inside this crate.
//!
//! # Two multiplies
//!
//! * **Shoup** (`mul_shoup52_x8`) — a product by a *constant* with a
//!   precomputed radix-2^52 quotient: every butterfly twiddle, the domain
//!   entry, the rescale factor, the expansion's digit weights and the
//!   lift's Garner steps. Three IFMA instructions, lanes in `[0, 2q)`.
//! * **Montgomery** (`redc52_x8`) — the dyadic workload multiplies two
//!   varying vectors, so no quotient can be precomputed per element.
//!   Each lane runs one radix-2^52 REDC: for `q < 2^50` the 104-bit
//!   product `a·b̃` is formed by `vpmadd52{lo,hi}uq`, the low 52 bits are
//!   cancelled with the precomputed `-q^{-1} mod 2^52`, and the quotient
//!   word drops out in two more IFMA instructions. The Montgomery factor
//!   `2^-52` is absorbed *before* the loop: `b` enters the radix-2^52
//!   domain once per polynomial (`b̃ = b·2^52 mod q`, a Shoup multiply by
//!   `2^52 mod q`), so `REDC52(a·b̃) = a·b mod q` directly and no exit
//!   conversion exists. See [`crate::dyadic`] for the domain lifecycle.
//!
//! # One eight-lane driver
//!
//! The element-wise layer is memory-bound, so a whole ciphertext-chain
//! shape is one load/store pass, and every such pass is `stream`: the
//! streamed forward transform's short-span pass without its butterflies.
//! It loads eight lanes through a `LoadX8` — its own buffer (`InPlace`),
//! another slice (`Words`) or signed coefficients through the
//! expansion's digit fold (`Expand`) — and hands them to a `TailX8`, the
//! step the transform's last pass applies to its lanes in registers.
//! The loaders are the transforms' first passes' too, and one more
//! serves only the inverse: decryption's `c1·s + c0` (`MulAdd`), which
//! also refuses a `c1` or `c0` word at or above `q`.
//! Each fused shape is written once, for both:
//!
//! * `Mac` — the multiply family `±(x·b) + Σ addends` (`a·b`, `a·b + c`,
//!   `c − a·b`, `c + d − a·b`, `a·b + c + d`, `a·b̃`, `a + b·d̃`, named in
//!   [`crate::dyadic`]), generic over compile-time facts only: each shape
//!   monomorphises to straight-line code, and the lazy-domain argument is
//!   written once, beside its `csub`s (`Mont52X8::mac`);
//! * `Premul` and `SubScalarMul` (`(a − b)·w`, both rescales) —
//!   products by a *constant*, so Shoup, not REDC;
//! * `NegMulAdd`, `Add` and `Store`.
//!
//! Expansion is the one loader that reads signed coefficients: eight
//! `i8`, `i64` or `i128` per step (`Lanes`), a sign-select when the
//! slice's largest magnitude is below `q`, otherwise radix-2^52 digits of
//! `|x|` folded by Shoup multiplies by `1`, `2^52` and `2^104 mod q`
//! (`expand_digits`). `expand_with` is the one place a loader is built
//! at the slice's width and digit count; it runs into `Store` for
//! [`crate::dyadic::DyadicEngine::expand_into`] and feeds the
//! transform's first pass, so a limb goes from signed coefficients to a
//! multiply–accumulated NTT without an element-wise pass.
//!
//! # The CRT lift
//!
//! The word lift's vector rung (`lift`, the way back from residues)
//! runs the prefix Garner steps of [`crate::rns::WordLift`] as Shoup-52
//! multiplies, forms `x = v0 + q0·v1 (+ q0q1·v2)` as radix-2^52 digits,
//! centers it against `⌊Q_k/2⌋` digit by digit, and checks every limb
//! past the prefix with the *same* digit fold expansion runs — one
//! `#[inline(always)]` helper, `FoldX8::residue`, serves both: the
//! residue of `±|x|` from `D ≤ 3` digits, compared with the limb's
//! residue into a per-lane verified mask.
//!
//! All kernels return **canonical** `[0, q)` values (the lift: the
//! centered words of the scalar rung) and are therefore bit-identical
//! to the `u128 %` golden model (asserted by the property suites).
//! Everything is `x86_64`-only and gated at runtime behind
//! [`CpuCaps::detect`]; the element-wise slices are processed in full
//! 8-lane blocks and the sub-8 remainder is left to the scalar caller
//! (`stream` and `lift` return the number of elements they handled).

#![cfg(target_arch = "x86_64")]

use crate::kernel::CpuCaps;
use crate::rns::sealed::Width;
use crate::rns::{SignedCoeffs, SignedWord};
use crate::shoup;
use core::arch::x86_64::*;
use core::mem::MaybeUninit;

mod ntt;

pub use ntt::{ntt_forward, ntt_forward_stream, ntt_inverse};

/// Constants of the radix-2^52 Montgomery domain for one modulus
/// `q < 2^50`, shared by every kernel below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mont52 {
    /// The modulus.
    pub(crate) q: u64,
    /// `-q^{-1} mod 2^52` — the REDC cancellation constant.
    qinv_neg52: u64,
    /// `R = 2^52 mod q` — the domain-entry constant.
    pub(crate) r52: u64,
    /// Shoup-52 quotient of `r52` (`floor(r52·2^52/q)`).
    pub(crate) r52_shoup: u64,
}

impl Mont52 {
    /// Precomputes the radix-2^52 constants for an odd `q < 2^50`.
    pub(crate) fn new(q: u64) -> Self {
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
    fn redc52_lazy(&self, t: u128) -> u64 {
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
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        // Enter b into the domain lazily ([0, 2q)), REDC the product.
        let b_dom = shoup::mul_shoup52_lazy(b, self.r52, self.r52_shoup, self.q);
        let r = self.redc52_lazy(a as u128 * b_dom as u128);
        shoup::reduce_once(r, self.q)
    }

    /// Scalar model of [`Self::mul`] against a *pre-entered* operand
    /// `b_dom ∈ [0, 2q)` (see [`crate::dyadic::DyadicEngine::premul`]).
    #[inline(always)]
    pub(crate) fn mul_premul(&self, a: u64, b_dom: u64) -> u64 {
        let r = self.redc52_lazy(a as u128 * b_dom as u128);
        shoup::reduce_once(r, self.q)
    }
}

/// Eight-lane radix-2^52 Shoup multiply by the constant pair
/// `(w, w52)`: returns `r ≡ y·w (mod q)` with every lane in `[0, 2q)`,
/// for lanes `y < 2^52`, `w < q < 2^50`.
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
        // r = (lo52(y·w) − lo52(hi·q)) mod 2^52, the subtraction an
        // accumulate of lo52(hi·(2^52 − q)) (a loop constant once
        // inlined): both terms are below 2^52, so the sum fits.
        let qn = _mm512_sub_epi64(_mm512_set1_epi64(1 << 52), vq);
        let hi = _mm512_madd52hi_epu64(zero, y, w52);
        let t = _mm512_madd52lo_epu64(zero, y, w);
        _mm512_and_si512(_mm512_madd52lo_epu64(t, hi, qn), mask52)
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
        // The low sum is ≡ 0 mod 2^52 by the choice of m: exactly 2^52
        // (a carry of one) unless t_lo = 0, when m = 0 and it is 0 — so
        // the carry is a mask test, not a fifth multiply.
        let hi = _mm512_madd52hi_epu64(t_hi, m, vq);
        let carry = _mm512_test_epi64_mask(t_lo, t_lo);
        _mm512_mask_add_epi64(hi, carry, hi, _mm512_set1_epi64(1))
    }
}

/// A [`Mont52`] broadcast to eight lanes: what one multiply–accumulate
/// step reads besides its operands.
#[derive(Clone, Copy)]
pub(crate) struct Mont52X8 {
    vq: __m512i,
    v2q: __m512i,
    vqinv: __m512i,
    vr: __m512i,
    vrs: __m512i,
}

impl Mont52X8 {
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn new(k: &Mont52) -> Self {
        // SAFETY: register-only AVX-512F broadcasts, by the contract.
        unsafe {
            Self {
                vq: _mm512_set1_epi64(k.q as i64),
                v2q: _mm512_set1_epi64(2 * k.q as i64),
                vqinv: _mm512_set1_epi64(k.qinv_neg52 as i64),
                vr: _mm512_set1_epi64(k.r52 as i64),
                vrs: _mm512_set1_epi64(k.r52_shoup as i64),
            }
        }
    }

    /// One eight-lane step of the [`Mac`] shape `PRE`, `NEG`, `ACC`,
    /// `SRC`: `±(x·b) + Σ src`, canonical (`ACC` swaps `x` with
    /// `src[0]`). Every operand canonical in `[0, q)` (a premultiplied
    /// `b` in `[0, 2q)`).
    ///
    /// # Safety
    ///
    /// AVX-512F+IFMA via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn mac<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>(
        &self,
        mut x: __m512i,
        b: __m512i,
        mut src: [__m512i; SRC],
    ) -> __m512i {
        const { assert!(SRC <= 2 && (!ACC || SRC >= 1)) };
        // SAFETY: register-only IFMA arithmetic, by the contract.
        unsafe {
            if ACC {
                core::mem::swap(&mut x, &mut src[0]);
            }
            // b enters the radix-2^52 domain ([0, 2q)) here unless it
            // came pre-entered; REDC takes the product back out — the
            // two conversions cancel into `x·b mod q`.
            let b_dom = if PRE {
                b
            } else {
                mul_shoup52_x8(b, self.vr, self.vrs, self.vq)
            };
            // The lazy-domain bound of every shape: REDC ∈ [0, 2q); the
            // negated product is 2q − REDC ∈ (0, 2q]; each of the ≤ 2
            // addends is canonical, so the sum stays < 4q < 2^52
            // (q < 2^50) and csub(2q), csub(q) normalise [0, 4q) to
            // [0, q). The bare positive product is still in [0, 2q) and
            // takes the one csub(q).
            let mut r = redc52_x8(x, b_dom, self.vq, self.vqinv);
            if NEG {
                r = _mm512_sub_epi64(self.v2q, r);
            }
            for v in src {
                r = _mm512_add_epi64(r, v);
            }
            if NEG || SRC > 0 {
                r = csub_x8(r, self.v2q);
            }
            csub_x8(r, self.vq)
        }
    }
}

/// A coefficient width the expansion kernel reads eight at a time —
/// the three widths of [`crate::rns::SignedWord`]: `i8` through
/// `vpmovsxbq`, `i64` as is, `i128` as its two words.
///
/// # Safety
///
/// `Expand` is safe and trusts its loads: an implementation may read
/// only the eight coefficients at `p`, and must return their signs and
/// magnitudes as documented on [`Lanes::magnitude_x8`].
pub(crate) unsafe trait Lanes: Copy {
    /// The sign mask (bit `j` set when `p[j] < 0`) and the two words of
    /// `|p[j]|`, low then high.
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading eight coefficients, and the method
    /// must inline into an AVX-512F `target_feature` kernel.
    unsafe fn magnitude_x8(p: *const Self) -> (__mmask8, __m512i, __m512i);
}

/// The sign mask and magnitude of eight signed words: one word each
/// (`i64::MIN`'s 2^63 read unsigned), the high words zero.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel.
#[inline(always)]
unsafe fn word_magnitude_x8(v: __m512i) -> (__mmask8, __m512i, __m512i) {
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let zero = _mm512_setzero_si512();
        let negative = _mm512_cmplt_epi64_mask(v, zero);
        (negative, _mm512_mask_sub_epi64(v, negative, zero, v), zero)
    }
}

// SAFETY: the load reads exactly the eight coefficients at `p` (eight bytes).
unsafe impl Lanes for i8 {
    /// # Safety
    ///
    /// As [`Lanes::magnitude_x8`]: reads eight bytes.
    #[inline(always)]
    unsafe fn magnitude_x8(p: *const i8) -> (__mmask8, __m512i, __m512i) {
        // SAFETY: eight readable bytes and AVX-512F, by the contract;
        // `movq` has no alignment requirement.
        unsafe { word_magnitude_x8(_mm512_cvtepi8_epi64(_mm_loadl_epi64(p as *const __m128i))) }
    }
}

// SAFETY: the load reads exactly the eight coefficients at `p` (eight words).
unsafe impl Lanes for i64 {
    /// # Safety
    ///
    /// As [`Lanes::magnitude_x8`]: reads eight words.
    #[inline(always)]
    unsafe fn magnitude_x8(p: *const i64) -> (__mmask8, __m512i, __m512i) {
        // SAFETY: eight readable words and AVX-512F, by the contract.
        unsafe { word_magnitude_x8(_mm512_loadu_si512(p as *const __m512i)) }
    }
}

// SAFETY: both loads read exactly the eight coefficients at `p`.
unsafe impl Lanes for i128 {
    /// # Safety
    ///
    /// As [`Lanes::magnitude_x8`]: reads sixteen words.
    #[inline(always)]
    unsafe fn magnitude_x8(p: *const i128) -> (__mmask8, __m512i, __m512i) {
        // SAFETY: sixteen readable words and AVX-512F, by the contract;
        // the rest is register-only AVX-512F arithmetic.
        unsafe {
            // Little-endian: each coefficient's low word first in memory.
            let a = _mm512_loadu_si512(p as *const __m512i);
            let b = _mm512_loadu_si512((p as *const __m512i).add(1));
            let lo = _mm512_permutex2var_epi64(a, _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0), b);
            let hi = _mm512_permutex2var_epi64(a, _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1), b);
            let zero = _mm512_setzero_si512();
            let negative = _mm512_cmplt_epi64_mask(hi, zero);
            // −x = (!hi + carry, −lo): `!lo + 1` carries into the high
            // word only when lo = 0. i128::MIN's 2^127 reads unsigned.
            let carry = _mm512_cmpeq_epi64_mask(lo, zero);
            let not_hi = _mm512_xor_si512(hi, _mm512_set1_epi64(-1));
            let neg_hi = _mm512_mask_add_epi64(not_hi, carry, not_hi, _mm512_set1_epi64(1));
            (
                negative,
                _mm512_mask_sub_epi64(lo, negative, zero, lo),
                _mm512_mask_mov_epi64(hi, negative, neg_hi),
            )
        }
    }
}

/// The digit count `D` of the expansion datapath for a slice whose
/// largest magnitude is `max_abs`, under `q < 2^50`: 0 (the sign-select)
/// below `q`, else the radix-2^52 digits `max_abs` spans (at most 3).
fn expand_digits(max_abs: u128, q: u64) -> usize {
    if max_abs < q as u128 {
        0
    } else {
        (128 - max_abs.leading_zeros()).div_ceil(52) as usize
    }
}

/// The element-wise driver: over the full 8-lane blocks of `n` words,
/// loads eight lanes through `load` and hands them to `tail` with
/// `buf` — the streamed forward transform's short-span pass without its
/// butterflies. `n` is the loader's length, or `buf`'s for [`InPlace`];
/// returns the count handled (`n − n % 8`), the remainder being the
/// caller's. `buf` may be empty when the tail writes only its own
/// destination ([`TailX8::WRITES_BUF`]).
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], tail operands of length `n`, and that
/// `buf` holds `n` words when the tail writes it.
pub(crate) fn stream<L: LoadX8, T: TailX8>(buf: &mut [L::Buf], load: &L, tail: &T) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n = load.source_len().unwrap_or(buf.len());
    assert!(
        tail.operand_len().is_none_or(|len| len == n),
        "tail operands"
    );
    assert!(
        !T::WRITES_BUF || buf.len() >= n,
        "buffer shorter than the pass"
    );
    let n8 = n - n % 8;
    // SAFETY: the asserts above prove the required target features, the
    // tail's operands and, where the tail writes it, `buf`; `L::Buf` is a
    // word (the loader's contract), read only by a loader whose `Buf` is
    // an initialised `u64`.
    unsafe { stream_impl(load, n8, buf.as_mut_ptr().cast(), tail) }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here); `n8` is a multiple
/// of 8, at most the length of the loader's source and of the tail's
/// operands, and `buf` valid for the words `n8` spans that `load` reads
/// or `tail` writes.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn stream_impl<L: LoadX8, T: TailX8>(load: &L, n8: usize, buf: *mut u64, tail: &T) {
    // SAFETY: register-only broadcasts on this kernel's features.
    let (from, finish) = unsafe { (load.lanes(), tail.lanes()) };
    let mut j = 0;
    while j < n8 {
        // SAFETY: j + 8 <= n8, within every slice by the contract.
        unsafe { tail.finish(&finish, j, load.load(&from, j, buf), buf) };
        j += 8;
    }
}

/// Where the eight lanes of [`stream`] and of either transform's first
/// pass come from. Like a [`TailX8`], a loader is plain data whose
/// broadcast constants are made inside the kernel, so its
/// `#[inline(always)]` steps inherit the kernel's target features.
///
/// # Safety
///
/// `Buf` is `u64` or `MaybeUninit<u64>`, and `u64` if
/// [`LoadX8::load`] reads `buf`; the load reads only the eight words at
/// `j` of `buf` or of the source the loader was built over, which holds
/// [`LoadX8::source_len`] words.
pub(crate) unsafe trait LoadX8 {
    /// What the driver's buffer holds on entry.
    type Buf;
    /// The broadcast constants one load reads.
    type Lanes;

    /// The length of the loader's source, `None` if it reads the buffer.
    fn source_len(&self) -> Option<usize>;

    /// Broadcasts the loader's constants.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel.
    unsafe fn lanes(&self) -> Self::Lanes;

    /// Words `j..j + 8`, canonical in `[0, q)` for the tail.
    ///
    /// # Safety
    ///
    /// AVX-512F+IFMA via inlining into a `target_feature` kernel; `j + 8`
    /// at most the source's length, `buf` valid for reading those words
    /// if the loader reads it.
    unsafe fn load(&self, lanes: &Self::Lanes, j: usize, buf: *const u64) -> __m512i;

    /// [`LoadX8::load`] and the lanes the loader refuses: bit `l` set
    /// when a source word of lane `l` lies outside the loader's range,
    /// that lane then loaded as 0. Only [`MulAdd`] refuses any.
    ///
    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load_checked(
        &self,
        lanes: &Self::Lanes,
        j: usize,
        buf: *const u64,
    ) -> (__m512i, __mmask8) {
        // SAFETY: the same contract.
        (unsafe { self.load(lanes, j, buf) }, 0)
    }
}

/// [`stream`]'s lanes from its own buffer: an op updating an operand in
/// place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InPlace;

// SAFETY: reads the eight words at `j` of `buf`, an initialised `u64`.
unsafe impl LoadX8 for InPlace {
    type Buf = u64;
    type Lanes = ();

    fn source_len(&self) -> Option<usize> {
        None
    }

    /// # Safety
    ///
    /// As [`LoadX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) {}

    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load(&self, _: &(), j: usize, buf: *const u64) -> __m512i {
        // SAFETY: `buf` is readable at `j..j + 8`, by the contract.
        unsafe { load_at(buf, j) }
    }
}

/// [`stream`]'s lanes from another slice: the subtrahend of
/// [`SubScalarMul`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Words<'a>(pub(crate) &'a [u64]);

// SAFETY: reads the eight words at `j` of the slice; `buf` is not read.
unsafe impl LoadX8 for Words<'_> {
    type Buf = core::mem::MaybeUninit<u64>;
    type Lanes = ();

    fn source_len(&self) -> Option<usize> {
        Some(self.0.len())
    }

    /// # Safety
    ///
    /// As [`LoadX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) {}

    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load(&self, _: &(), j: usize, _: *const u64) -> __m512i {
        // SAFETY: in bounds and AVX-512F, by the contract.
        unsafe { load_at(self.0.as_ptr(), j) }
    }
}

/// Lanes `c1·s + c0`, canonical: decryption, as the inverse transform's
/// first pass reads it — the [`Mac`] step of `mul_add_assign`
/// (`Mont52X8::mac`, `x·b + src[0]`) on three loads. `s` must be
/// canonical; a lane whose `c1` or `c0` word is not below `q` is
/// refused ([`LoadX8::load_checked`]): it loads as 0, so the butterflies
/// see only canonical lanes, and its bit is reported.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MulAdd<'a> {
    k: &'a Mont52,
    c1: &'a [u64],
    s: &'a [u64],
    c0: &'a [u64],
}

impl<'a> MulAdd<'a> {
    /// The loader over `c1`, `s` and `c0` under `k`'s modulus.
    ///
    /// # Panics
    ///
    /// Unless the three are equally long.
    pub(crate) fn new(k: &'a Mont52, c1: &'a [u64], s: &'a [u64], c0: &'a [u64]) -> Self {
        assert!(s.len() == c1.len() && c0.len() == c1.len(), "head operands");
        Self { k, c1, s, c0 }
    }
}

// SAFETY: reads the eight words at `j` of `c1`, `s` and `c0`, all
// `source_len` long (`new` checks it); `buf` is not read.
unsafe impl LoadX8 for MulAdd<'_> {
    type Buf = MaybeUninit<u64>;
    type Lanes = Mont52X8;

    fn source_len(&self) -> Option<usize> {
        Some(self.c1.len())
    }

    /// # Safety
    ///
    /// As [`LoadX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> Mont52X8 {
        // SAFETY: by the contract.
        unsafe { Mont52X8::new(self.k) }
    }

    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load(&self, k: &Mont52X8, j: usize, buf: *const u64) -> __m512i {
        // SAFETY: the same contract.
        unsafe { self.load_checked(k, j, buf).0 }
    }

    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load_checked(&self, k: &Mont52X8, j: usize, _: *const u64) -> (__m512i, __mmask8) {
        // SAFETY: every operand holds `j + 8` words, by the contract; the
        // rest is register-only. A refused lane's product is garbage (its
        // multiplicand may exceed the REDC's bound) but never UB, and it
        // is masked to 0 before anything reads it.
        unsafe {
            let (c1, s, c0) = (
                load_at(self.c1.as_ptr(), j),
                load_at(self.s.as_ptr(), j),
                load_at(self.c0.as_ptr(), j),
            );
            let refused = _mm512_cmpge_epu64_mask(c1, k.vq) | _mm512_cmpge_epu64_mask(c0, k.vq);
            let r = k.mac::<false, false, false, 1>(c1, s, [c0]);
            (_mm512_maskz_mov_epi64(!refused, r), refused)
        }
    }
}

/// Lanes from signed coefficients, reduced in registers by the
/// expansion's digit fold: RNS expansion through [`stream`], or the
/// streamed forward transform's prologue. Built only by [`expand_with`], so `D` is the
/// slice's [`expand_digits`] under `q` and bounds every coefficient.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expand<'a, X, const D: usize> {
    xs: &'a [X],
    q: u64,
}

// SAFETY: reads the eight coefficients at `j` of the source, whose
// magnitudes `D` bounds (`expand_with` picks it); `buf` is not read.
unsafe impl<X: Lanes, const D: usize> LoadX8 for Expand<'_, X, D> {
    type Buf = MaybeUninit<u64>;
    type Lanes = FoldX8;

    fn source_len(&self) -> Option<usize> {
        Some(self.xs.len())
    }

    /// # Safety
    ///
    /// As [`LoadX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> FoldX8 {
        // SAFETY: register-only broadcasts, by the contract.
        unsafe { FoldX8::new(&Fold52::new(self.q)) }
    }

    /// # Safety
    ///
    /// As [`LoadX8::load`].
    #[inline(always)]
    unsafe fn load(&self, fold: &FoldX8, j: usize, _: *const u64) -> __m512i {
        debug_assert!(j + 8 <= self.xs.len());
        // SAFETY: eight coefficients from `j` on and the features, by the
        // contract; `D` bounds their magnitudes.
        unsafe { fold.load::<X, D>(self.xs.as_ptr().add(j)) }
    }
}

/// A pass over signed coefficients that reads them through an
/// [`Expand`] loader — what [`expand_with`] runs, once, at the slice's
/// width and digit count.
pub(crate) trait ExpandPass {
    /// What the pass returns.
    type Out;

    /// Runs the pass with its lanes from `from`.
    fn run<X: Lanes, const D: usize>(self, from: &Expand<'_, X, D>) -> Self::Out;
}

/// Runs `pass` over `src` under `q < 2^50`, with the loader at the
/// slice's concrete width and its [`expand_digits`]: the one place an
/// [`Expand`] is built.
pub(crate) fn expand_with<X: SignedWord, P: ExpandPass>(
    src: &SignedCoeffs<'_, X>,
    q: u64,
    pass: P,
) -> P::Out {
    fn digits<X: Lanes, P: ExpandPass>(xs: &[X], max_abs: u128, q: u64, pass: P) -> P::Out {
        match expand_digits(max_abs, q) {
            0 => pass.run(&Expand::<X, 0> { xs, q }),
            1 => pass.run(&Expand::<X, 1> { xs, q }),
            2 => pass.run(&Expand::<X, 2> { xs, q }),
            _ => pass.run(&Expand::<X, 3> { xs, q }),
        }
    }
    let max_abs = src.max_abs();
    match X::width(src.coeffs()) {
        Width::I8(xs) => digits(xs, max_abs, q, pass),
        Width::I64(xs) => digits(xs, max_abs, q, pass),
        Width::I128(xs) => digits(xs, max_abs, q, pass),
    }
}

/// RNS expansion into a buffer as long as the source: [`stream`] into
/// [`Store`], returning the count of residues written.
impl ExpandPass for &mut [MaybeUninit<u64>] {
    type Out = usize;

    fn run<X: Lanes, const D: usize>(self, from: &Expand<'_, X, D>) -> usize {
        stream(self, from, &Store)
    }
}

/// The epilogue of a streamed forward transform: what its last pass
/// does with eight output lanes `ŷ[j..j + 8]`, canonical in `[0, q)`,
/// in place of storing them — one of the shapes of
/// [`crate::dyadic::Tail`], or of an element-wise op `stream` runs
/// over lanes from memory. Every step is canonical, so a tail is
/// bit-identical to the unfused op.
///
/// # Safety
///
/// [`TailX8::finish`] reads and writes only the eight words at `j` of
/// the operands the tail was built over, each of which holds
/// [`TailX8::operand_len`] words, and writes — never reads — those of
/// `buf`, only if [`TailX8::WRITES_BUF`].
pub(crate) unsafe trait TailX8 {
    /// The broadcast constants one step reads.
    type Lanes: Copy;

    /// Whether the result goes to `buf`, not to a destination of the
    /// tail's own.
    const WRITES_BUF: bool = true;

    /// The length of the tail's operands, `None` if it has none.
    fn operand_len(&self) -> Option<usize>;

    /// Broadcasts the tail's constants.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel.
    unsafe fn lanes(&self) -> Self::Lanes;

    /// Finishes words `j..j + 8` from the canonical lanes `y`.
    ///
    /// # Safety
    ///
    /// AVX-512F+IFMA via inlining into a `target_feature` kernel;
    /// `j + 8` at most [`TailX8::operand_len`], and `buf` valid for
    /// writing the eight words at `j` if [`TailX8::WRITES_BUF`].
    unsafe fn finish(&self, lanes: &Self::Lanes, j: usize, y: __m512i, buf: *mut u64);
}

/// The eight words at `p + j`.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel; `p + j` valid
/// for reading eight words.
#[inline(always)]
unsafe fn load_at(p: *const u64, j: usize) -> __m512i {
    // SAFETY: in bounds and AVX-512F, by the contract.
    unsafe { _mm512_loadu_si512(p.add(j).cast()) }
}

/// `v` into the eight words at `p + j`.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel; `p + j` valid
/// for writing eight words.
#[inline(always)]
unsafe fn store_at(p: *mut u64, j: usize, v: __m512i) {
    // SAFETY: in bounds and AVX-512F, by the contract.
    unsafe { _mm512_storeu_si512(p.add(j).cast(), v) }
}

/// `buf = ŷ`: the plain canonical transform, or expansion's residues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Store;

// SAFETY: writes the eight words at `j` of `buf` and nothing else.
unsafe impl TailX8 for Store {
    type Lanes = ();

    fn operand_len(&self) -> Option<usize> {
        None
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) {}

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, _: &(), j: usize, y: __m512i, buf: *mut u64) {
        // SAFETY: `buf` is writable at `j..j + 8`, by the contract.
        unsafe { store_at(buf, j, y) }
    }
}

/// `buf = premul(ŷ)`: the transform entered into the radix-2^52 domain
/// ([`crate::dyadic::DyadicEngine::premul`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Premul<'a>(pub(crate) &'a Mont52);

// SAFETY: writes the eight words at `j` of `buf` and nothing else.
unsafe impl TailX8 for Premul<'_> {
    type Lanes = Mont52X8;

    fn operand_len(&self) -> Option<usize> {
        None
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> Mont52X8 {
        // SAFETY: by the contract.
        unsafe { Mont52X8::new(self.0) }
    }

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, k: &Mont52X8, j: usize, y: __m512i, buf: *mut u64) {
        // SAFETY: `buf` is writable at `j..j + 8`, by the contract. The
        // Shoup multiply by 2^52 mod q lands in [0, 2q): one csub.
        unsafe {
            let r = csub_x8(mul_shoup52_x8(y, k.vr, k.vrs, k.vq), k.vq);
            store_at(buf, j, r);
        }
    }
}

/// `buf = ±(ŷ·b) + Σ src`, canonical: the multiply–accumulate family,
/// every fused shape of it, on `Mont52X8::mac`. The shape is
/// compile-time data, so each instantiation monomorphises to its own
/// straight-line step:
///
/// * `PRE` — `b` is already in the radix-2^52 domain (`b̃ = b·2^52 mod
///   q`, see [`crate::dyadic::DyadicEngine::premul`]) instead of being
///   entered in the step;
/// * `NEG` — the product is subtracted instead of added;
/// * `ACC` — `ŷ` is the first *addend* and `src[0]` the multiplicand
///   (`buf = ŷ + src[0]·b (+ src[1])`, the accumulate of public-key
///   encryption's `e + pk·v̂ (+ m)`; needs `SRC ≥ 1`); otherwise `ŷ` is
///   the multiplicand and every `src` an addend;
/// * `SRC` — the number of `src` streams, which either way is the number
///   of addends (0–2).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mac<'a, const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize> {
    k: &'a Mont52,
    b: &'a [u64],
    src: [&'a [u64]; SRC],
}

impl<'a, const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize>
    Mac<'a, PRE, NEG, ACC, SRC>
{
    /// The tail over `b` and `src`, canonical in `[0, q)` (a
    /// premultiplied `b` as `premul` leaves it).
    ///
    /// # Panics
    ///
    /// Unless the operands' lengths are equal.
    pub(crate) fn new(k: &'a Mont52, b: &'a [u64], src: [&'a [u64]; SRC]) -> Self {
        const { assert!(SRC <= 2 && (!ACC || SRC >= 1)) };
        assert!(src.iter().all(|s| s.len() == b.len()));
        Self { k, b, src }
    }
}

// SAFETY: reads the eight words at `j` of `b` and every `src`, all
// `len` long, and writes those of `buf`.
unsafe impl<const PRE: bool, const NEG: bool, const ACC: bool, const SRC: usize> TailX8
    for Mac<'_, PRE, NEG, ACC, SRC>
{
    type Lanes = Mont52X8;

    fn operand_len(&self) -> Option<usize> {
        Some(self.b.len())
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> Mont52X8 {
        // SAFETY: by the contract.
        unsafe { Mont52X8::new(self.k) }
    }

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, k: &Mont52X8, j: usize, y: __m512i, buf: *mut u64) {
        // SAFETY: every operand holds `j + 8` words and `buf` is
        // writable there, by the contract.
        unsafe {
            // Plain loops, not `map`: a closure would not carry the
            // driver's target features unless it inlined.
            let mut vs = [_mm512_setzero_si512(); SRC];
            for (v, s) in vs.iter_mut().zip(self.src) {
                *v = load_at(s.as_ptr(), j);
            }
            let r = k.mac::<PRE, NEG, ACC, SRC>(y, load_at(self.b.as_ptr(), j), vs);
            store_at(buf, j, r);
        }
    }
}

/// `buf = ŷ + b`, canonical: [`crate::dyadic::DyadicEngine::add_assign`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Add<'a> {
    /// The modulus.
    pub(crate) q: u64,
    /// The addend, canonical in `[0, q)`.
    pub(crate) b: &'a [u64],
}

// SAFETY: reads the eight words at `j` of `b` and writes those of `buf`.
unsafe impl TailX8 for Add<'_> {
    type Lanes = __m512i;

    fn operand_len(&self) -> Option<usize> {
        Some(self.b.len())
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> __m512i {
        // SAFETY: a register-only broadcast, by the contract.
        unsafe { _mm512_set1_epi64(self.q as i64) }
    }

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, &vq: &__m512i, j: usize, y: __m512i, buf: *mut u64) {
        // SAFETY: `b` holds `j + 8` words and `buf` is writable there, by
        // the contract. ŷ + b lands in [0, 2q): one conditional subtract.
        unsafe {
            let r = csub_x8(_mm512_add_epi64(y, load_at(self.b.as_ptr(), j)), vq);
            store_at(buf, j, r);
        }
    }
}

/// `dst = ŷ (+ t) − dst·s`, into `dst`, not the transform's buffer: the
/// RLWE shape of [`crate::dyadic::Tail::NegMulAdd`], with the transform
/// as the first addend.
#[derive(Debug)]
pub(crate) struct NegMulAdd<'a> {
    k: &'a Mont52,
    dst: *mut u64,
    len: usize,
    s: &'a [u64],
    t: Option<&'a [u64]>,
    _dst: core::marker::PhantomData<&'a mut [u64]>,
}

impl<'a> NegMulAdd<'a> {
    /// The tail into `dst` with `s` and `t`, canonical in `[0, q)`.
    ///
    /// # Panics
    ///
    /// Unless the operands' lengths are equal.
    pub(crate) fn new(
        k: &'a Mont52,
        dst: &'a mut [u64],
        s: &'a [u64],
        t: Option<&'a [u64]>,
    ) -> Self {
        assert_eq!(dst.len(), s.len());
        assert!(t.is_none_or(|t| t.len() == s.len()));
        let (dst, len, _dst) = (dst.as_mut_ptr(), s.len(), core::marker::PhantomData);
        Self {
            k,
            dst,
            len,
            s,
            t,
            _dst,
        }
    }
}

// SAFETY: reads and writes the eight words at `j` of `dst` and reads
// those of `s` and `t`, all `len` long; `buf` is not touched.
unsafe impl TailX8 for NegMulAdd<'_> {
    type Lanes = Mont52X8;
    const WRITES_BUF: bool = false;

    fn operand_len(&self) -> Option<usize> {
        Some(self.len)
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> Mont52X8 {
        // SAFETY: by the contract.
        unsafe { Mont52X8::new(self.k) }
    }

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, k: &Mont52X8, j: usize, y: __m512i, _: *mut u64) {
        // SAFETY: `dst` (borrowed mutably for the tail's life), `s` and
        // `t` hold `j + 8` words, by the contract.
        unsafe {
            let (x, s) = (load_at(self.dst, j), load_at(self.s.as_ptr(), j));
            let r = match self.t {
                None => k.mac::<false, true, false, 1>(x, s, [y]),
                Some(t) => k.mac::<false, true, false, 2>(x, s, [y, load_at(t.as_ptr(), j)]),
            };
            store_at(self.dst, j, r);
        }
    }
}

/// `dst = (dst − ŷ)·w` for a constant `w < q`, into `dst`, not the
/// transform's buffer: the rescale shape of
/// [`crate::dyadic::Tail::SubScalarMul`].
#[derive(Debug)]
pub(crate) struct SubScalarMul<'a> {
    q: u64,
    dst: *mut u64,
    len: usize,
    w: u64,
    w52: u64,
    _dst: core::marker::PhantomData<&'a mut [u64]>,
}

impl<'a> SubScalarMul<'a> {
    /// The tail into `dst`, canonical in `[0, q)`, by `w < q`.
    pub(crate) fn new(q: u64, dst: &'a mut [u64], w: u64) -> Self {
        debug_assert!(w < q && q < shoup::MAX_SHOUP52_MODULUS);
        Self {
            q,
            dst: dst.as_mut_ptr(),
            len: dst.len(),
            w,
            w52: shoup::shoup_precompute52(w, q),
            _dst: core::marker::PhantomData,
        }
    }
}

// SAFETY: reads and writes the eight words at `j` of `dst`, `len` long;
// `buf` is not touched.
unsafe impl TailX8 for SubScalarMul<'_> {
    type Lanes = [__m512i; 3];
    const WRITES_BUF: bool = false;

    fn operand_len(&self) -> Option<usize> {
        Some(self.len)
    }

    /// # Safety
    ///
    /// As [`TailX8::lanes`].
    #[inline(always)]
    unsafe fn lanes(&self) -> [__m512i; 3] {
        // SAFETY: register-only broadcasts, by the contract.
        unsafe {
            [
                _mm512_set1_epi64(self.q as i64),
                _mm512_set1_epi64(self.w as i64),
                _mm512_set1_epi64(self.w52 as i64),
            ]
        }
    }

    /// # Safety
    ///
    /// As [`TailX8::finish`].
    #[inline(always)]
    unsafe fn finish(&self, &[vq, w, w52]: &[__m512i; 3], j: usize, y: __m512i, _: *mut u64) {
        // SAFETY: `dst` (borrowed mutably for the tail's life) holds
        // `j + 8` words, by the contract. Both operands are canonical, so
        // x + (q − ŷ) ∈ (0, 2q) < 2^51 feeds the Shoup multiply by w < q,
        // whose [0, 2q) result one csub brings to [0, q).
        unsafe {
            let t = _mm512_add_epi64(load_at(self.dst, j), _mm512_sub_epi64(vq, y));
            store_at(self.dst, j, csub_x8(mul_shoup52_x8(t, w, w52, vq), vq));
        }
    }
}

/// The digit fold of one modulus `q < 2^50`: the weights `1`, `2^52`
/// and `2^104 mod q` of a magnitude's radix-2^52 digits, with their
/// Shoup-52 quotients — what expansion reduces a wide coefficient by,
/// and what the lift checks a limb past its prefix with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fold52 {
    q: u64,
    /// `(w, floor(w·2^52/q))` per digit.
    weights: [(u64, u64); 3],
}

impl Fold52 {
    pub(crate) fn new(q: u64) -> Self {
        debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
        let weight = |w: u128| {
            let w = (w % q as u128) as u64;
            (w, shoup::shoup_precompute52(w, q))
        };
        Self {
            q,
            weights: [weight(1), weight(1 << 52), weight(1 << 104)],
        }
    }
}

/// A [`Fold52`] broadcast to eight lanes.
#[derive(Clone, Copy)]
pub(crate) struct FoldX8 {
    vq: __m512i,
    v2q: __m512i,
    v4q: __m512i,
    weights: [(__m512i, __m512i); 3],
}

impl FoldX8 {
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn new(f: &Fold52) -> Self {
        // SAFETY: register-only AVX-512F broadcasts, by the contract.
        unsafe {
            let mut weights = [(_mm512_setzero_si512(), _mm512_setzero_si512()); 3];
            for (v, &(w, w52)) in weights.iter_mut().zip(&f.weights) {
                *v = (_mm512_set1_epi64(w as i64), _mm512_set1_epi64(w52 as i64));
            }
            Self {
                vq: _mm512_set1_epi64(f.q as i64),
                v2q: _mm512_set1_epi64(2 * f.q as i64),
                v4q: _mm512_set1_epi64(4 * f.q as i64),
                weights,
            }
        }
    }

    /// `±|x| mod q`, canonical, for `|x|` given as radix-2^52 digits
    /// and its sign as `negative`: `D = 0` takes `|x| < q` as its own
    /// residue, otherwise the first `D` digits fold by Shoup multiplies
    /// by their weights (each in `[0, 2q)`, so the sum is below
    /// `2Dq ≤ 6q < 2^53`) and csub(4q) / csub(2q) / csub(q) bring
    /// `[0, 6q)` / `[0, 4q)` / `[0, 2q)` down to `[0, q)`. The sign comes
    /// last: `q − t ∈ (0, q]` for a negative `x`, and `q` itself folds
    /// to 0. Digits past the `D`th are not read.
    ///
    /// # Safety
    ///
    /// AVX-512F+IFMA via inlining into a `target_feature` kernel,
    /// register-only; every digit below `2^52`.
    #[inline(always)]
    unsafe fn residue<const D: usize>(&self, digit: &[__m512i; 3], negative: __mmask8) -> __m512i {
        // SAFETY: register-only IFMA arithmetic, by the contract.
        unsafe {
            let mut t = if D == 0 {
                digit[0]
            } else {
                _mm512_setzero_si512()
            };
            for (&x, &(w, w52)) in digit.iter().zip(&self.weights).take(D) {
                t = _mm512_add_epi64(t, mul_shoup52_x8(x, w, w52, self.vq));
            }
            if D == 3 {
                t = csub_x8(t, self.v4q);
            }
            if D >= 2 {
                t = csub_x8(t, self.v2q);
            }
            if D >= 1 {
                t = csub_x8(t, self.vq);
            }
            csub_x8(_mm512_mask_sub_epi64(t, negative, self.vq, t), self.vq)
        }
    }
}

impl FoldX8 {
    /// `x mod q`, canonical, for the eight coefficients at `p`: their
    /// signs and magnitudes ([`Lanes::magnitude_x8`]), then
    /// [`Self::residue`] of the magnitude's digits.
    ///
    /// # Safety
    ///
    /// AVX-512F+IFMA via inlining into a `target_feature` kernel; `p`
    /// valid for reading eight coefficients, each below `q` (`D = 0`) or
    /// `2^{52·D}` in magnitude.
    #[inline(always)]
    unsafe fn load<X: Lanes, const D: usize>(&self, p: *const X) -> __m512i {
        // SAFETY: eight readable coefficients and the features, by the
        // contract.
        unsafe {
            let (negative, lo, hi) = X::magnitude_x8(p);
            self.residue::<D>(&digits_x8(lo, hi), negative)
        }
    }
}

/// The three radix-2^52 digits of a magnitude below `2^128` given as
/// its low and high words.
///
/// # Safety
///
/// AVX-512F via inlining into a `target_feature` kernel, register-only.
#[inline(always)]
unsafe fn digits_x8(lo: __m512i, hi: __m512i) -> [__m512i; 3] {
    // SAFETY: register-only AVX-512F arithmetic, by the contract.
    unsafe {
        let mask52 = _mm512_set1_epi64(shoup::MASK52 as i64);
        [
            _mm512_and_si512(lo, mask52),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64(lo, 52), _mm512_slli_epi64(hi, 12)),
                mask52,
            ),
            _mm512_srli_epi64(hi, 40),
        ]
    }
}

/// The constants of the vector CRT lift of one basis whose moduli are
/// all below `2^50` — see [`lift`]. Built by [`crate::rns::WordLift`].
#[derive(Debug, Clone)]
pub(crate) struct Lift52 {
    /// The prefix moduli `q_0, q_1, q_2` (0 past the prefix).
    q: [u64; 3],
    /// The Garner steps `s10`, `s20`, `s21` as `(lift, w, w52)`: the
    /// scalar `GarnerStep` with the Shoup-52 quotient of its inverse.
    steps: [(u64, u64, u64); 3],
    /// `q_0·q_1`, `Q_k` and `⌊Q_k/2⌋` as radix-2^52 digits.
    q01: [u64; 3],
    product: [u64; 3],
    half: [u64; 3],
    /// One fold per limb past the prefix.
    verify: Vec<Fold52>,
}

impl Lift52 {
    /// The lift of a word prefix `prefix` (one to three moduli, product
    /// below `2^127`) with Garner steps `(lift, q_i⁻¹ mod q_j)` in the
    /// order `s10, s20, s21` (as many as the prefix has), checked
    /// against the moduli `verify`. Every modulus below `2^50`.
    pub(crate) fn new(prefix: &[u64], steps: &[(u64, u64)], verify: &[u64]) -> Self {
        debug_assert!((1..=3).contains(&prefix.len()));
        let digits = |x: u128| [0, 52, 104].map(|s| (x >> s) as u64 & shoup::MASK52);
        let mut q = [0; 3];
        q[..prefix.len()].copy_from_slice(prefix);
        let product: u128 = prefix.iter().map(|&q| q as u128).product();
        let mut shoup_steps = [(0, 0, 0); 3];
        for ((s, &(lift, w)), qj) in shoup_steps.iter_mut().zip(steps).zip([q[1], q[2], q[2]]) {
            *s = (lift, w, shoup::shoup_precompute52(w, qj));
        }
        Self {
            q,
            steps: shoup_steps,
            q01: digits(q[0] as u128 * q[1] as u128),
            product: digits(product),
            half: digits(product / 2),
            verify: verify.iter().map(|&q| Fold52::new(q)).collect(),
        }
    }
}

/// The vector rung of the word lift, over the full 8-lane groups of
/// one block of coefficients: `run(i)` is limb `i`'s run of residues
/// (canonical, as long as `xs`), the first limbs the prefix of `k`, the
/// rest the limbs it verifies. Per group of eight coefficients:
///
/// * the prefix Garner steps, a Shoup-52 multiply and one csub each —
///   the canonical digit the scalar `GarnerStep::digit` computes;
/// * `x = v0 + q0·v1 (+ q0q1·v2)` as three radix-2^52 digits, compared
///   with `⌊Q_k/2⌋` digit by digit and replaced by `Q_k − x` (digit
///   borrows) where greater, the lane then negative — `Q_k` is odd, so
///   no value is a tie;
/// * the signed value into `xs`, and an all-ones mask into
///   `verified[g]`;
///
/// then per limb past the prefix, the digit fold of [`Expand`] on every
/// group, its residue compared with the limb's and ANDed into the
/// group's mask (bit `b` is coefficient `8g + b`). Returns the count
/// handled, `len − len % 8`; the tail is the caller's.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], at most [`crate::rns::LIFT_BLOCK`]
/// coefficients, one mask byte per group, and that no run is shorter
/// than `xs`.
pub(crate) fn lift<'a>(
    k: &Lift52,
    run: impl Fn(usize) -> &'a [u64],
    xs: &mut [i128],
    verified: &mut [u8],
) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n8 = xs.len() - xs.len() % 8;
    assert!(n8 <= crate::rns::LIFT_BLOCK && verified.len() >= n8 / 8);
    let prefix = k.q.iter().take_while(|&&q| q != 0).count();
    let runs = |i: usize| {
        let r = run(i);
        assert!(r.len() >= n8, "a limb's run is shorter than the block");
        r
    };
    let xs = &mut xs[..n8];
    // SAFETY: the asserts above prove the required target features, a
    // mask byte per group and `n8` residues in every run; the prefix
    // length picks the digit count its product needs.
    unsafe {
        match prefix {
            1 => lift_impl::<1>(k, runs, xs, verified),
            2 => lift_impl::<2>(k, runs, xs, verified),
            _ => lift_impl::<3>(k, runs, xs, verified),
        }
    }
    n8
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the public wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here); `xs.len()` must
/// be a multiple of 8 and at most [`crate::rns::LIFT_BLOCK`], every
/// `run(i)` at least that long and canonical under its modulus,
/// `verified` one byte per group, and `P` the prefix length of `k`.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn lift_impl<'a, const P: usize>(
    k: &Lift52,
    run: impl Fn(usize) -> &'a [u64],
    xs: &mut [i128],
    verified: &mut [u8],
) {
    const GROUPS: usize = crate::rns::LIFT_BLOCK / 8;
    let zero = _mm512_setzero_si512();
    let mask52 = _mm512_set1_epi64(shoup::MASK52 as i64);
    let ones = _mm512_set1_epi64(-1);
    let one = _mm512_set1_epi64(1);
    let [mut q, mut q01, mut product, mut half] = [[zero; 3]; 4];
    let mut steps = [[zero; 3]; 3];
    for d in 0..3 {
        q[d] = _mm512_set1_epi64(k.q[d] as i64);
        q01[d] = _mm512_set1_epi64(k.q01[d] as i64);
        product[d] = _mm512_set1_epi64(k.product[d] as i64);
        half[d] = _mm512_set1_epi64(k.half[d] as i64);
        let (lift, w, w52) = k.steps[d];
        steps[d] = [
            _mm512_set1_epi64(lift as i64),
            _mm512_set1_epi64(w as i64),
            _mm512_set1_epi64(w52 as i64),
        ];
    }
    // Low words then high words of four i128s, into memory order.
    let first = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
    let second = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
    let runs: [&[u64]; P] = core::array::from_fn(&run);
    // |x| of every group as digits, and its sign: what the checks read
    // (written for every group before any check runs, so left
    // uninitialised rather than cleared per block).
    let mut mags = [core::mem::MaybeUninit::<[__m512i; 3]>::uninit(); GROUPS];
    let mut signs: [__mmask8; GROUPS] = [0; GROUPS];
    let groups = xs.len() / 8;
    debug_assert!(groups <= GROUPS);
    for g in 0..groups {
        // SAFETY: 8g + 8 <= xs.len() <= every run's length.
        unsafe {
            let v0 = load_at(runs[0].as_ptr(), 8 * g);
            // x = v0 + q0·v1 + q0q1·v2 accumulated per digit: every term
            // below 2^52, a handful per digit, then one carry pass.
            let mut acc = [v0, zero, zero];
            if P >= 2 {
                let r1 = load_at(runs[1].as_ptr(), 8 * g);
                let v1 = garner_x8(r1, v0, &steps[0], q[1]);
                acc[0] = _mm512_madd52lo_epu64(acc[0], q[0], v1);
                acc[1] = _mm512_madd52hi_epu64(acc[1], q[0], v1);
                if P == 3 {
                    let r2 = load_at(runs[2].as_ptr(), 8 * g);
                    let v2 = garner_x8(garner_x8(r2, v0, &steps[1], q[2]), v1, &steps[2], q[2]);
                    acc[0] = _mm512_madd52lo_epu64(acc[0], q01[0], v2);
                    acc[1] = _mm512_madd52hi_epu64(acc[1], q01[0], v2);
                    acc[1] = _mm512_madd52lo_epu64(acc[1], q01[1], v2);
                    acc[2] = _mm512_madd52hi_epu64(acc[2], q01[1], v2);
                }
            }
            acc[1] = _mm512_add_epi64(acc[1], _mm512_srli_epi64(acc[0], 52));
            acc[2] = _mm512_add_epi64(acc[2], _mm512_srli_epi64(acc[1], 52));
            let x = [
                _mm512_and_si512(acc[0], mask52),
                _mm512_and_si512(acc[1], mask52),
                acc[2],
            ];
            // x > ⌊Q_k/2⌋, lexicographically from the top digit. Past
            // the first P digits x, Q_k and ⌊Q_k/2⌋ are all 0
            // (Q_k < 2^{50P}).
            let mut negative: __mmask8 = _mm512_cmpgt_epu64_mask(x[0], half[0]);
            for d in 1..P {
                negative = _mm512_cmpgt_epu64_mask(x[d], half[d])
                    | (_mm512_cmpeq_epu64_mask(x[d], half[d]) & negative);
            }
            // Q_k − x with a borrow per digit (none out of the top one:
            // x < Q_k), kept where x is negative.
            let mut borrow = zero;
            let mut mag = x;
            for d in 0..P {
                let t = _mm512_sub_epi64(_mm512_sub_epi64(product[d], x[d]), borrow);
                borrow = _mm512_srli_epi64(t, 63);
                let t = if d < 2 {
                    _mm512_and_si512(t, mask52)
                } else {
                    t
                };
                mag[d] = _mm512_mask_mov_epi64(x[d], negative, t);
            }
            mags[g].write(mag);
            signs[g] = negative;
            verified[g] = 0xFF;
            // The signed value as an i128: the words of |x|, negated
            // where negative (−x = (!hi + carry, −lo), the carry when lo
            // = 0), interleaved low word first.
            let lo = _mm512_or_si512(mag[0], _mm512_slli_epi64(mag[1], 52));
            let hi = _mm512_or_si512(_mm512_srli_epi64(mag[1], 12), _mm512_slli_epi64(mag[2], 40));
            let carry = negative & _mm512_cmpeq_epi64_mask(lo, zero);
            let not_hi = _mm512_mask_xor_epi64(hi, negative, hi, ones);
            let hi = _mm512_mask_add_epi64(not_hi, carry, not_hi, one);
            let lo = _mm512_mask_sub_epi64(lo, negative, zero, lo);
            let out = xs.as_mut_ptr().add(8 * g) as *mut __m512i;
            _mm512_storeu_si512(out, _mm512_permutex2var_epi64(lo, first, hi));
            _mm512_storeu_si512(out.add(1), _mm512_permutex2var_epi64(lo, second, hi));
        }
    }
    // Every limb past the prefix: |x| < Q_k < 2^{52P}, so P digits fold.
    for (i, check) in k.verify.iter().enumerate() {
        let r = run(P + i);
        // SAFETY: register-only broadcasts; the kernel's features.
        let fold = unsafe { FoldX8::new(check) };
        for g in 0..groups {
            // SAFETY: 8g + 8 <= xs.len() <= the run's length, and the
            // prefix loop above wrote `mags[g]` for every g < groups.
            unsafe {
                let rg = load_at(r.as_ptr(), 8 * g);
                let t = fold.residue::<P>(mags[g].assume_init_ref(), signs[g]);
                verified[g] &= _mm512_cmpeq_epu64_mask(t, rg);
            }
        }
    }
}

/// One Garner step on eight lanes, `(r + lift − d)·q_i⁻¹ mod q_j`
/// canonical, for `step = (lift, w, w52)`: `r + lift − d < q_i + 2q_j <
/// 2^52` enters the Shoup-52 multiply and one csub brings `[0, 2q_j)`
/// to the digit the scalar `GarnerStep::digit` computes.
///
/// # Safety
///
/// AVX-512F+IFMA via inlining into a `target_feature` kernel,
/// register-only; `r < q_j`, `d < q_i`, both moduli below `2^50`.
#[inline(always)]
unsafe fn garner_x8(r: __m512i, d: __m512i, step: &[__m512i; 3], qj: __m512i) -> __m512i {
    // SAFETY: register-only IFMA arithmetic, by the contract.
    unsafe {
        let y = _mm512_sub_epi64(_mm512_add_epi64(r, step[0]), d);
        csub_x8(mul_shoup52_x8(y, step[1], step[2], qj), qj)
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
        let mut a = a0.clone();
        assert_eq!(stream(&mut a, &InPlace, &Premul(&k)), n);
        for i in 0..n {
            assert_eq!(a[i], m.mul(a0[i], k.r52), "premul i={i}");
        }
        let mut a = a0.clone();
        assert_eq!(stream(&mut a, &InPlace, &Add { q, b: &b }), n);
        for i in 0..n {
            assert_eq!(a[i], m.add(a0[i], b[i]), "add i={i}");
        }
        let w = q / 3;
        let mut a = a0.clone();
        assert_eq!(
            stream(&mut [], &Words(&b), &SubScalarMul::new(q, &mut a, w)),
            n
        );
        for i in 0..n {
            let want = m.mul(m.sub(a0[i], b[i]), w);
            assert_eq!(a[i], want, "sub_scalar_mul i={i}");
        }
    }

    /// One instantiation of the [`Mac`] tail, run in place on `n` words
    /// against the golden model: the full 8-lane blocks hold
    /// `±(x·b) + Σ addends`, the `n % 8` remainder words are as they were.
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
        let tail = Mac::<PRE, NEG, ACC, SRC>::new(&k, &b_in, src.each_ref().map(|s| &s[..]));
        let done = stream(&mut dst, &InPlace, &tail);
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
