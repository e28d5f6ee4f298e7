//! The IFMA negacyclic NTT: Harvey butterflies on eight 52-bit lanes per
//! instruction, built on the module's Shoup multiply, conditional
//! subtract, loaders and tails.
//!
//! With RNS primes below 2^50 (the paper's are 36-bit) every lazy
//! intermediate (`< 4q < 2^52`) fits a lane, so the two high-products of
//! a radix-2^52 Shoup multiply are one `vpmadd52{lo,hi}uq` each and one
//! 512-bit instruction replaces eight scalar `mulhi`s. This is the
//! technique Intel HEXL ships for sub-50-bit CKKS primes. The passes read
//! the plan's forward twiddle column and its radix-2^52 quotients
//! (`NttPlan` in `abc-transform` builds both) and nothing else: the
//! inverse twiddle of group `i` in a stage of `h` is `−tw[2h − 1 − i]`,
//! so the Gentleman–Sande stages walk the forward stage block top down
//! and lift `y + 2q − x`, not `x + 2q − y`.
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
//! [`ntt_forward_stream`] is the forward transform with its neighbours
//! folded into its first and last passes — the host's version of the
//! paper's Fourier engine, which takes each limb from the PRNG and the
//! RNS expansion straight through the NTT into the modular
//! multiply–add without a trip to memory (§IV, Fig. 6b):
//!
//! - **Prologue, in the first pass** (the lone radix-2 pass, or the first
//!   radix-4 one). The pass reads its lanes through a `LoadX8`, as
//!   `stream` does: [`ntt_forward`] its own buffer (`InPlace`), the
//!   streamed transform signed `i8` / `i64` / `i128` coefficients through
//!   the expansion's digit fold (`Expand`: a sign-select below `q`,
//!   Shoup folds of radix-2^52 digits above). Those lanes enter the
//!   butterflies canonical in `[0, q)` — inside the `[0, 4q)` the pass
//!   takes — and the first store is the first write of the buffer, so no
//!   residue limb exists before the transform.
//! - **Tail, in the short-span pass.** After the `t = 1` stage the pass
//!   holds two vectors in natural order; it normalizes them from
//!   `[0, 4q)` to `[0, q)` and hands them to a `TailX8` instead of
//!   storing them: `Store` (what [`ntt_forward`] runs), `Premul`, a
//!   `Mac`, or a result written elsewhere (`NegMulAdd`, `SubScalarMul`),
//!   which leaves the buffer as scratch. The one `match` from
//!   [`crate::dyadic::Tail`] to those steps is [`ntt_forward_stream`]'s.
//!   Every operand a tail reads is canonical in `[0, q)` and so is what
//!   it writes: the tails are the steps the element-wise ops run over
//!   memory, so the fused result is the unfused one bit for bit.
//!
//! The passes in between are [`ntt_forward`]'s. The prologue's pass is
//! instantiated per source width and digit count, the tail's per tail;
//! the two meet only through the buffer, so neither multiplies the
//! other's code.
//!
//! # The streamed inverse transform
//!
//! [`ntt_inverse`] reads its first pass — the short-span one, which
//! holds each 16 words in registers — through a `LoadX8` too: its own
//! buffer (`InPlace`), another slice (`Words`, the out-of-place
//! inverse), or decryption's `c1·s + c0` (`MulAdd`: three loads and the
//! `Mac` step `mul_add_assign` runs), so a decrypted limb is never
//! written before its transform. The `MulAdd` loader also compares `c1`
//! and `c0` with `q`: a lane at or above it enters the butterflies as 0
//! and its bit joins a mask the pass returns, the range check a
//! ciphertext from outside the program needs, made on loads the pass
//! does anyway. The passes after the first are the same for every head.
//!
//! Lazy representatives are always congruent mod `q`, so a transform
//! that ends canonical is **bit-identical** to the golden model
//! (asserted by the tier-1 suites); debug builds also check every pass's
//! output domain.

use super::{
    csub_x8, expand_with, load_at, mul_shoup52_x8, store_at, Expand, ExpandPass, InPlace, Lanes,
    LoadX8, Mac, MulAdd, NegMulAdd, Premul, Store, SubScalarMul, TailX8, Words,
};
use crate::dyadic::{DyadicEngine, Head, Kernel, Tail};
use crate::kernel::CpuCaps;
use crate::rns::{SignedCoeffs, SignedWord};
use crate::shoup;
use core::arch::x86_64::*;
use core::mem::MaybeUninit;

/// Forward negacyclic NTT in place, Cooley–Tukey, values lazily in
/// `[0, 4q)` between passes and canonical in `[0, q)` at the end.
///
/// `tw` / `tw_shoup52` are the plan's forward twiddle column (`ψ^{brv(k)}`
/// layout) and its radix-2^52 quotients.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], a power-of-two length of at least 16 and
/// columns of that length; debug-asserts `q < 2^50`.
pub fn ntt_forward(a: &mut [u64], q: u64, tw: &[u64], tw_shoup52: &[u64]) {
    // Hard assert: this is a safe public fn, so executing the
    // target_feature impl on a CPU without IFMA would be UB reachable
    // from safe code. One branch is noise next to an N ≥ 16 transform.
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let t = first_pass(a, q, tw, tw_shoup52, &InPlace);
    // SAFETY: the assert above proves the required target features, and
    // `first_pass` the slice shapes; it left `[0, 4q)` lanes.
    unsafe { forward_rest(a, t, q, tw, tw_shoup52, &Store) };
    #[cfg(debug_assertions)]
    assert_domain(a, q, format_args!("ifma forward, last pass"));
}

/// The streamed forward transform: `ŷ = NTT(src mod q)` into `buf`
/// (cleared and refilled to `N` words), finished by `tail` in the last
/// pass, under the modulus of `dyadic`, an `ifma` engine. The first pass
/// loads `src`'s signed coefficients and reduces them to canonical
/// `[0, q)` residues in registers; the short-span pass applies the tail
/// to each pair of natural-order vectors it already holds. Returns where
/// the result went: `buf`, or the tail's `dst` — `buf` then holds the
/// transform's lazy `[0, 4q)` words before the last pass.
///
/// Every tail operand is canonical in `[0, q)`, and so is the result,
/// bit-identical to `dyadic`'s `expand_into`, [`ntt_forward`] and
/// `apply_tail` in turn.
///
/// # Panics
///
/// Asserts an `ifma` engine, [`CpuCaps::ifma`], a power-of-two
/// coefficient count `N` of at least 16, and columns and tail operands
/// of that length.
pub fn ntt_forward_stream<'a, X: SignedWord>(
    src: &SignedCoeffs<'_, X>,
    buf: &'a mut Vec<u64>,
    tw: &[u64],
    tw_shoup52: &[u64],
    dyadic: &DyadicEngine,
    tail: Tail<'a>,
) -> &'a [u64] {
    let Kernel::Ifma(k) = &dyadic.kernel else {
        panic!("the IFMA transform streams into an ifma engine");
    };
    let (q, cols) = (k.q, (tw, tw_shoup52));
    match tail {
        Tail::Canonical => forward_stream_with(src, buf, q, cols, &Store),
        Tail::Premul => forward_stream_with(src, buf, q, cols, &Premul(k)),
        // ŷ + b·d̃ (+ c): ŷ the first addend, `b` the multiplicand.
        Tail::MulAcc { b, d_pre, c: None } => {
            let tail = Mac::<true, false, true, 1>::new(k, d_pre, [b]);
            forward_stream_with(src, buf, q, cols, &tail)
        }
        Tail::MulAcc {
            b,
            d_pre,
            c: Some(c),
        } => {
            let tail = Mac::<true, false, true, 2>::new(k, d_pre, [b, c]);
            forward_stream_with(src, buf, q, cols, &tail)
        }
        Tail::NegMulAdd { dst, s, t } => {
            forward_stream_with(src, buf, q, cols, &NegMulAdd::new(k, &mut *dst, s, t));
            return dst;
        }
        Tail::SubScalarMul { dst, w } => {
            let w = if w >= q {
                dyadic.modulus().reduce(w)
            } else {
                w
            };
            forward_stream_with(src, buf, q, cols, &SubScalarMul::new(q, &mut *dst, w));
            return dst;
        }
    }
    buf
}

/// Inverse negacyclic NTT, Gentleman–Sande, values lazily in `[0, 2q)`,
/// scaled by `N^{-1}` (canonical `[0, q)`) in the last stage: `a =
/// INTT(x)`, where `x` is what `head` names — `a` itself, another
/// slice, or decryption's `c1·s + c0` — computed by the first pass's
/// loads (`InPlace`, `Words`, `MulAdd`), so no pass precedes it.
///
/// `tw` / `tw_shoup52` are the same **forward** columns [`ntt_forward`]
/// takes, `n_inv_shoup52` the radix-2^52 quotient of `n_inv`, and
/// `dyadic` the plan's `ifma` engine, whose constants the `MulAdd` head
/// multiplies with. A `Words` source and the `MulAdd` multiplier `s`
/// must be canonical. Returns whether every `c1` and `c0` word of a
/// `MulAdd` head was below `q`: a lane whose word was not enters the
/// butterflies as 0, so the transform still runs on canonical lanes
/// only, and the result is `false` (the other heads report `true`).
///
/// # Panics
///
/// Same contract as [`ntt_forward`], plus an `ifma` engine and head
/// operands of `a`'s length.
pub fn ntt_inverse(
    a: &mut [u64],
    head: Head<'_>,
    tw: &[u64],
    tw_shoup52: &[u64],
    n_inv: u64,
    n_inv_shoup52: u64,
    dyadic: &DyadicEngine,
) -> bool {
    let Kernel::Ifma(k) = &dyadic.kernel else {
        panic!("the IFMA inverse reads its head through an ifma engine");
    };
    let q = k.q;
    assert_columns(a.len(), tw, tw_shoup52);
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // The last stage (one group) multiplies its difference by tw[1];
    // with N⁻¹ folded in, by the canonical w₁·N⁻¹ and its quotient.
    let w1 = shoup::reduce_once(shoup::mul_shoup52_lazy(tw[1], n_inv, n_inv_shoup52, q), q);
    let fold = [n_inv, n_inv_shoup52, w1, shoup::shoup_precompute52(w1, q)];
    let cols = (tw, tw_shoup52);
    let refused = match head {
        Head::InPlace => inverse_with(a, q, cols, fold, &InPlace),
        Head::Words(src) => inverse_with(a, q, cols, fold, &Words(src)),
        Head::MulAdd { c1, s, c0 } => inverse_with(a, q, cols, fold, &MulAdd::new(k, c1, s, c0)),
    };
    refused == 0
}

/// [`ntt_inverse`] with its first pass's loader: the lanes it refused.
fn inverse_with<L: LoadX8>(
    a: &mut [u64],
    q: u64,
    (tw, tw52): (&[u64], &[u64]),
    fold: [u64; 4],
    from: &L,
) -> __mmask8 {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    assert!(from.source_len().is_none_or(|len| len == a.len()), "source");
    // SAFETY: the asserts above prove the required target features and
    // the source's length, the caller the columns' shape; `a` is an
    // initialised `u64` buffer, whatever the loader's `Buf`.
    unsafe { inverse_impl(a, q, tw, tw52, fold, from) }
}

/// Debug builds: panics unless every lane of `a` is below `bound` once
/// the pass `what` has run — the lazy domains the passes hand on
/// (`[0, 4q)` forward, `[0, 2q)` inverse, `[0, q)` once canonical).
#[cfg(debug_assertions)]
fn assert_domain(a: &[u64], bound: u64, what: core::fmt::Arguments<'_>) {
    if let Some(i) = a.iter().position(|&x| x >= bound) {
        panic!("{what}: lane {i} = {} is not below {bound}", a[i]);
    }
}

/// The shape every kernel's raw reads rest on: a power-of-two length of
/// at least 16, and twiddle columns of exactly that length.
fn assert_columns(n: usize, tw: &[u64], tw_shoup52: &[u64]) {
    assert!(n >= 16 && n.is_power_of_two(), "length {n}");
    assert!(tw.len() == n && tw_shoup52.len() == n, "twiddle columns");
}

/// [`ntt_forward_stream`] with the tail's eight-lane step.
fn forward_stream_with<X: SignedWord, T: TailX8>(
    src: &SignedCoeffs<'_, X>,
    buf: &mut Vec<u64>,
    q: u64,
    (tw, tw52): (&[u64], &[u64]),
    tail: &T,
) {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n = src.coeffs().len();
    assert!(
        tail.operand_len().is_none_or(|len| len == n),
        "tail operands"
    );
    buf.clear();
    buf.reserve(n);
    let into = &mut buf.spare_capacity_mut()[..n];
    let t = expand_with(src, q, FirstPass { into, tw, tw52 });
    // SAFETY: the first pass wrote all `n` words of `buf` (`[0, 4q)`
    // lanes) after checking the shapes; the asserts above prove the
    // target features and the tail's operands.
    unsafe {
        buf.set_len(n);
        forward_rest(buf, t, q, tw, tw52, tail);
    }
}

/// The first forward pass into `into`, with lanes from signed
/// coefficients: the streamed transform's prologue.
struct FirstPass<'b> {
    into: &'b mut [MaybeUninit<u64>],
    tw: &'b [u64],
    tw52: &'b [u64],
}

impl ExpandPass for FirstPass<'_> {
    type Out = usize;

    fn run<X: Lanes, const D: usize>(self, from: &Expand<'_, X, D>) -> usize {
        first_pass(self.into, from.q, self.tw, self.tw52, from)
    }
}

/// The modulus and its double in every lane.
#[derive(Clone, Copy)]
struct Q {
    q: __m512i,
    q2: __m512i,
}

impl Q {
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn new(q: u64) -> Self {
        // SAFETY: register-only broadcasts, by the contract.
        unsafe {
            Self {
                q: _mm512_set1_epi64(q as i64),
                q2: _mm512_set1_epi64(2 * q as i64),
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

impl Tw {
    /// `w` and its quotient `w52` in every lane.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn splat(w: u64, w52: u64) -> Self {
        // SAFETY: register-only broadcasts, by the contract.
        unsafe {
            Self {
                w: _mm512_set1_epi64(w as i64),
                w52: _mm512_set1_epi64(w52 as i64),
            }
        }
    }

    /// The eight column entries from `i` on, permuted by `idx` when
    /// given: the per-lane twiddles of a short-span stage.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel; `i + 8` at
    /// most the columns' length.
    #[inline(always)]
    unsafe fn lanes(tw: &[u64], tw52: &[u64], i: usize, idx: Option<__m512i>) -> Self {
        debug_assert!(i + 8 <= tw.len() && tw.len() == tw52.len());
        // SAFETY: `i + 8 ≤ len` by the contract; register-only otherwise.
        unsafe {
            let (w, w52) = (load_at(tw.as_ptr(), i), load_at(tw52.as_ptr(), i));
            match idx {
                None => Self { w, w52 },
                Some(idx) => Self {
                    w: _mm512_permutexvar_epi64(idx, w),
                    w52: _mm512_permutexvar_epi64(idx, w52),
                },
            }
        }
    }
}

/// Cooley–Tukey butterfly on eight lane pairs `x, y ∈ [0, 4q)`: with
/// `u = x` reduced into `[0, 2q)` and `v = y·w ∈ [0, 2q)`, returns
/// `(u + v, u + 2q − v)`, both in `[0, 4q)`.
///
/// # Safety
///
/// AVX-512F+IFMA via inlining into a `target_feature` kernel,
/// register-only.
#[inline(always)]
unsafe fn ct(x: __m512i, y: __m512i, w: Tw, k: Q) -> (__m512i, __m512i) {
    // SAFETY: register-only IFMA arithmetic, by the contract.
    unsafe {
        let u = csub_x8(x, k.q2);
        let v = mul_shoup52_x8(y, w.w, w.w52, k.q);
        let d = _mm512_sub_epi64(_mm512_add_epi64(u, k.q2), v);
        (_mm512_add_epi64(u, v), d)
    }
}

/// Gentleman–Sande butterfly on eight lane pairs `x, y ∈ [0, 2q)`, `w`
/// the negated inverse twiddle: returns `x + y` reduced into `[0, 2q)`
/// and `(y + 2q − x)·w ∈ [0, 2q)`. With `scale = Some(N⁻¹)` — the last
/// stage, whose `w` carries `N⁻¹` too — the sum is multiplied by `N⁻¹`
/// instead, and both outputs leave canonical in `[0, q)`.
///
/// # Safety
///
/// AVX-512F+IFMA via inlining into a `target_feature` kernel,
/// register-only.
#[inline(always)]
unsafe fn gs(x: __m512i, y: __m512i, w: Tw, scale: Option<Tw>, k: Q) -> (__m512i, __m512i) {
    // SAFETY: register-only IFMA arithmetic, by the contract.
    unsafe {
        let s = _mm512_add_epi64(x, y);
        let d = _mm512_sub_epi64(_mm512_add_epi64(y, k.q2), x);
        let d = mul_shoup52_x8(d, w.w, w.w52, k.q);
        match scale {
            None => (csub_x8(s, k.q2), d),
            Some(n) => (
                csub_x8(mul_shoup52_x8(s, n.w, n.w52, k.q), k.q),
                csub_x8(d, k.q),
            ),
        }
    }
}

/// Both forward stages of a radix-4 block `x0..x3`, lanes in `[0, 4q)`
/// in and out: spans `2t` with `w0`, then `t` with `w1` / `w2`.
///
/// # Safety
///
/// AVX-512F+IFMA via inlining into a `target_feature` kernel,
/// register-only.
#[inline(always)]
unsafe fn ct4(v: &mut [__m512i; 4], [w0, w1, w2]: [Tw; 3], k: Q) {
    // SAFETY: register-only IFMA arithmetic, by the contract.
    unsafe {
        let [x0, x1, x2, x3] = *v;
        let (x0, x2) = ct(x0, x2, w0, k);
        let (x1, x3) = ct(x1, x3, w0, k);
        let (x0, x1) = ct(x0, x1, w1, k);
        let (x2, x3) = ct(x2, x3, w2, k);
        *v = [x0, x1, x2, x3];
    }
}

/// One long-span memory pass over the `n` words at `a`: for every
/// group of `R·t` words, loads the `R` vectors `t` words apart at each
/// offset `j < t` through `load` (the word index in, eight lanes out),
/// runs `butterflies` on them with the group's `twiddles`, and stores
/// them at `a`. `R = 2` is one stage of span `t`; `R = 4` is two stages,
/// spans `2t` then `t` (forward) or `t` then `2t` (inverse).
///
/// # Safety
///
/// `t` must be a multiple of 8, `R·t` divide `n`, `a` be valid for
/// writing `n` words and `load` for reading any 8-aligned run below
/// `n`; AVX-512F+IFMA via inlining into a `target_feature` kernel.
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
                    store_at(a, base + r * t + j, x);
                }
            }
        }
    }
}

/// How far ahead of a load from a source of its own, in words, the first
/// pass asks for its destination line (1 KiB).
const WRITE_AHEAD: usize = 128;

/// The first forward pass over `buf`, reading its lanes through `from`:
/// the lone radix-2 pass when the long-stage count `log n − 3` is odd,
/// else the first radix-4 pass. Lanes in `[0, 4q)` in and out (`from`
/// gives canonical or `[0, 4q)` ones). Returns the span the next pass
/// starts at.
///
/// # Panics
///
/// Asserts [`CpuCaps::ifma`], a power-of-two length `n ≥ 16`, columns of
/// that length and a source of it; debug-asserts `q < 2^50`.
fn first_pass<L: LoadX8>(buf: &mut [L::Buf], q: u64, tw: &[u64], tw52: &[u64], from: &L) -> usize {
    assert!(CpuCaps::detect().ifma(), "no AVX-512IFMA on this CPU");
    let n = buf.len();
    assert_columns(n, tw, tw52);
    assert!(from.source_len().is_none_or(|len| len == n), "source");
    debug_assert!(q < shoup::MAX_SHOUP52_MODULUS);
    // SAFETY: the asserts above prove the required target features and
    // the shapes; `L::Buf` is a word (the loader's contract), read only
    // by a loader whose `Buf` is an initialised `u64`.
    unsafe { first_pass_impl(buf.as_mut_ptr().cast(), n, q, tw, tw52, from) }
}

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the safe wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here); `a` is valid for
/// writing `n` words, a power of two ≥ 16, and for reading them if
/// `from` reads its buffer; the columns and `from`'s source are `n`
/// long.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn first_pass_impl<L: LoadX8>(
    a: *mut u64,
    n: usize,
    q: u64,
    tw: &[u64],
    tw52: &[u64],
    from: &L,
) -> usize {
    // SAFETY: register-only broadcasts on this kernel's features.
    let (k, lanes) = unsafe { (Q::new(q), from.lanes()) };
    // A loader with a source of its own writes `a` without reading it,
    // so each load also asks for the line `WRITE_AHEAD` words past its
    // own in `a` with intent to write (`prefetchw`): a store that misses
    // costs the pass more than the prologue's arithmetic. A prefetch
    // never faults, and `wrapping_add` keeps an address past the end
    // from being UB.
    let ahead = from.source_len().is_some();
    let load = |i: usize| {
        if ahead {
            _mm_prefetch::<_MM_HINT_ET0>(a.wrapping_add(i + WRITE_AHEAD).cast());
        }
        // SAFETY: `pass` loads 8-aligned runs below `n`, each before its
        // store, by the contract.
        unsafe { from.load(&lanes, i, a) }
    };
    // SAFETY: the twiddle indices are below 4 ≤ n.
    let at = |i: usize| unsafe { Tw::splat(tw[i], tw52[i]) };
    let t = n / 2;
    // SAFETY: `t` (or `t/2`) ≥ 8 is a power of two dividing `n`, `a` holds
    // `n` words and `load` reads any 8-aligned run below `n`; the
    // butterflies are register-only.
    let next = unsafe {
        if n.trailing_zeros().is_multiple_of(2) {
            // One group of span t = n/2 ≥ 8, multiplied by tw[1].
            let ct2 = |[x, y]: &mut [__m512i; 2], w| (*x, *y) = ct(*x, *y, w, k);
            pass::<2, _>(a, n, t, load, |_| at(1), ct2);
            t / 2
        } else {
            // Spans (n/2, n/4): one group, twiddles tw[1], tw[2], tw[3].
            let twiddles = |_| [1, 2, 3].map(at);
            pass::<4, _>(a, n, t / 2, load, twiddles, |v, w| ct4(v, w, k));
            t / 4
        }
    };
    #[cfg(debug_assertions)]
    // SAFETY: the pass wrote all `n` words.
    assert_domain(
        unsafe { core::slice::from_raw_parts(a, n) },
        4 * q,
        format_args!("ifma forward first pass"),
    );
    next
}

/// The forward passes after the first, lanes in `[0, 4q)`: radix-4
/// passes from span `t` down to 16, then the short-span pass, whose
/// natural-order vectors leave canonical in `[0, q)` through `tail`.
///
/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA (the safe wrappers
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
    let k = unsafe { Q::new(q) };
    // SAFETY: register-only broadcasts with `i < n`.
    let at = |i: usize| unsafe { Tw::splat(tw[i], tw52[i]) };
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
                |i| load_at(p, i),
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
            let (lo, hi) = (load_at(p, 16 * b), load_at(p, 16 * b + 8));
            // t = 4: x = words 0–3 | 8–11, y = 4–7 | 12–15.
            let x = _mm512_shuffle_i64x2::<0x44>(lo, hi);
            let y = _mm512_shuffle_i64x2::<0xEE>(lo, hi);
            let (x, y) = ct(x, y, Tw::lanes(tw, tw52, n / 8 + 2 * b, Some(lanes_t4)), k);
            // t = 2: x = words {0,1,4,5,8,9,12,13}, y = the rest.
            let x2 = _mm512_permutex2var_epi64(x, to_t2[0], y);
            let y2 = _mm512_permutex2var_epi64(x, to_t2[1], y);
            let (x, y) = ct(
                x2,
                y2,
                Tw::lanes(tw, tw52, n / 4 + 4 * b, Some(lanes_t2)),
                k,
            );
            // t = 1: x = even words, y = odd words.
            let x1 = _mm512_unpacklo_epi64(x, y);
            let y1 = _mm512_unpackhi_epi64(x, y);
            let (x, y) = ct(x1, y1, Tw::lanes(tw, tw52, n / 2 + 8 * b, None), k);
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
/// The CPU must support AVX-512F and AVX-512IFMA (the safe wrapper
/// asserts [`CpuCaps::ifma`] before dispatching here); `a.len()` is a
/// power of two ≥ 16, and the twiddle columns and `from`'s source are
/// that long. `fold` is `[N⁻¹, its quotient, w₁·N⁻¹, its quotient]`,
/// canonical.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn inverse_impl<L: LoadX8>(
    a: &mut [u64],
    q: u64,
    tw: &[u64],
    tw52: &[u64],
    fold: [u64; 4],
    from: &L,
) -> __mmask8 {
    let n = a.len();
    // SAFETY: register-only broadcasts on this kernel's features.
    let (k, lanes) = unsafe { (Q::new(q), from.lanes()) };
    // SAFETY: register-only broadcasts with `i < n`.
    let at = |i: usize| unsafe { Tw::splat(tw[i], tw52[i]) };
    // Short spans t = 1, 2, 4 on 16 words (block b) at a time: the CT
    // lane moves backwards, each stage's twiddles the forward block's
    // mirror reversed. This first pass reads its lanes through `from`,
    // whose canonical lanes satisfy the GS input invariant (< 2q), and
    // gathers the lanes it refused.
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
    let p = a.as_mut_ptr();
    let mut refused: __mmask8 = 0;
    for b in 0..n / 16 {
        // SAFETY: 16b + 16 ≤ n, the length of `a` and of the loader's
        // source; the loads of `a`'s words precede their stores; the
        // column reads start at n − 8b − 8, n/2 − 4b − 4 and
        // n/4 − 2b − 2 (≥ 0 since b < n/16) and end ≤ n.
        unsafe {
            let (lo, lo_refused) = from.load_checked(&lanes, 16 * b, p);
            let (hi, hi_refused) = from.load_checked(&lanes, 16 * b + 8, p);
            refused |= lo_refused | hi_refused;
            // t = 1: x = even words, y = odd words.
            let x1 = _mm512_permutex2var_epi64(lo, to_t1[0], hi);
            let y1 = _mm512_permutex2var_epi64(lo, to_t1[1], hi);
            let w = Tw::lanes(tw, tw52, n - 8 * b - 8, Some(lanes_t1));
            let (x, y) = gs(x1, y1, w, None, k);
            // t = 2: x = words {0,1,4,5,8,9,12,13}, y = the rest.
            let x2 = _mm512_unpacklo_epi64(x, y);
            let y2 = _mm512_unpackhi_epi64(x, y);
            let w = Tw::lanes(tw, tw52, n / 2 - 4 * b - 4, Some(lanes_t2));
            let (x, y) = gs(x2, y2, w, None, k);
            // t = 4: x = words 0–3 | 8–11, y = 4–7 | 12–15.
            let x4 = _mm512_permutex2var_epi64(x, to_t4[0], y);
            let y4 = _mm512_permutex2var_epi64(x, to_t4[1], y);
            let w = Tw::lanes(tw, tw52, n / 4 - 2 * b - 2, Some(lanes_t4));
            let (x, y) = gs(x4, y4, w, None, k);
            store_at(p, 16 * b, _mm512_shuffle_i64x2::<0x44>(x, y));
            store_at(p, 16 * b + 8, _mm512_shuffle_i64x2::<0xEE>(x, y));
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
        unsafe { pass::<4, _>(p, n, t, |i| load_at(p, i), twiddles, |v, w| gs4(v, w, None)) };
        #[cfg(debug_assertions)]
        assert_domain(a, 2 * q, format_args!("ifma inverse radix-4, spans {t}"));
        t *= 4;
    }
    let [n_inv, n_inv52, w1, w1_52] = fold;
    // SAFETY: register-only broadcasts on this kernel's features.
    let (scale, w1) = unsafe { (Some(Tw::splat(n_inv, n_inv52)), Tw::splat(w1, w1_52)) };
    let p = a.as_mut_ptr();
    // SAFETY (both arms): the loader reads the words the pass then
    // overwrites, each before its store.
    let load = |i: usize| unsafe { load_at(p, i) };
    if 4 * t == n {
        let twiddles = |_| [at(3), at(2), w1];
        // SAFETY: t ≥ 8 is a power of two and 4t = n.
        unsafe { pass::<4, _>(p, n, t, load, twiddles, |v, w| gs4(v, w, scale)) };
    } else {
        let gs2 = |[x, y]: &mut [__m512i; 2], w| {
            // SAFETY: register-only butterflies on this kernel's features.
            unsafe { (*x, *y) = gs(*x, *y, w, scale, k) }
        };
        // SAFETY: t = n/2 ≥ 8 is a power of two.
        unsafe { pass::<2, _>(p, n, t, load, |_| w1, gs2) };
    }
    #[cfg(debug_assertions)]
    assert_domain(a, q, format_args!("ifma inverse last pass, span {t}"));
    refused
}
