//! AVX-512 split re/im (SoA) butterfly kernel for the f64 special FFT.
//!
//! The generic [`crate::fft::SpecialFft`] kernel walks `Complex<f64>`
//! pairs one butterfly at a time. This module runs the same butterfly
//! network eight lanes wide: the plan's per-stage twiddles are laid out
//! as **split re/im planes** (structure-of-arrays), so a complex
//! butterfly is plain lane-wise f64 arithmetic with no shuffling between
//! real and imaginary parts. The working planes are one `N`-word limb
//! of the limb pool ([`crate::pool`]): `[..slots]` the re plane and
//! `[slots..]` the im plane, each word the bit pattern of an `f64`.
//!
//! At `slots = 2^k` the transform has `k` stages: three sub-vector
//! stages (spans 1, 2, 4) and `k − 3` **long stages** (spans 8 …
//! `slots/2`) on whole vectors. Long stages run **two per memory pass**
//! (radix 4: four vectors `h` apart meet the span-`h` and the span-`2h`
//! stage in registers, with `tw_h[j]`, `tw_2h[j]` and `tw_2h[h + j]`); an
//! odd count leaves one radix-2 pass at span 8. The end passes hold the
//! sub-vector stages, the bit reversal, the `1/slots` scale and the
//! copies to and from the caller's AoS slice:
//!
//! * **forward** — (1) *gather + tail*: read as 8 rows of `slots/8`
//!   columns, the AoS input holds lane `l` of bit-reversed block
//!   `rev(c)` at row `rev3(l)`, column `c`; eight columns of the eight
//!   rows load as eight registers, run the three sub-vector stages
//!   lane-wise (lane `l` of eight blocks per register, twiddles
//!   broadcast), and transpose into eight blocks of the planes;
//!   (2) the radix-2 pass when `k − 3` is odd; (3) the radix-4 passes,
//!   spans ascending, the last of which (spans `slots/4`, `slots/2`)
//!   writes the AoS slice.
//! * **inverse** — (1) the radix-4 passes, spans descending, the first
//!   of which reads the AoS slice; (2) the radix-2 pass when `k − 3` is
//!   odd; (3) *tail + scale + scatter*: the forward's first pass
//!   backwards — eight blocks transpose into registers, run the three
//!   sub-vector stages and the `1/slots` scale, and store as rows of the
//!   bit-reversed AoS slice.
//!
//! That is `1 + ⌈(k − 3)/2⌉` memory passes per transform: 7 at `2^14`
//! and `2^15` slots, where one stage per pass made 15 at `2^15` (split,
//! tail, 12 long stages, merge). At 8 slots the one tail pass reads and
//! writes the AoS slice itself. A pass's long-stage twiddles stream in
//! the order it reads them, re and im side by side.
//!
//! **The forward split** (`forward_split`, from 32 slots) runs the
//! same passes as two fan-out passes of two chunks each. In the first,
//! chunk `p` is a half-size sub-transform: bit-reversed, the AoS slots
//! `2i + p` are the transform's slots `p·slots/2 …`, so the gather +
//! tail pass reads them with a stride of two into half `p` of the
//! planes, and every long pass but the last runs there (its blocks, at
//! most `slots/4`, lie inside the half). In the second, the last pass —
//! radix 4 over spans `slots/4` and `slots/2`, writing the AoS slice —
//! is cut by butterfly range, each chunk reading both halves. The same
//! butterflies with the same twiddles, so the same bits; the twiddle
//! streams are the serial plan's.
//!
//! **Bit-identity.** Every element sees the scalar kernel's butterflies
//! with the same twiddles in the same order, and every lane performs
//! the scalar kernel's exact operation sequence — the 4-multiply
//! complex product (paper Eq. 12) followed by one sub/add, with **no FMA
//! contraction** — so the vector transform is bit-identical to the
//! scalar planned kernel on every input: a 0-ulp bound, asserted by the
//! property suite at every dispatched size. The speedup comes from
//! 8-wide data parallelism and fewer memory passes, not from
//! reassociating float arithmetic.

use crate::{fanout, pool};
use abc_float::Complex;
use abc_math::CpuCaps;

/// Minimum slot count for the SIMD kernel: at `slots ≥ 8` the three
/// in-register tail layers (spans 1/2/4) all exist and every longer
/// span is a multiple of the 8-lane vector width.
pub(crate) const MIN_SIMD_SLOTS: usize = 8;

/// Minimum slot count for the split forward: the last pass is a radix-4
/// one (spans `slots/4` and `slots/2`), and each half fills the tail.
const MIN_SPLIT_SLOTS: usize = 32;

/// One memory pass over the long stages — one stage of span `h`
/// (radix 2) or two, of spans `h` and `2h` (radix 4; run forward as
/// `h` then `2h`, inverse as `2h` then `h`) — with its twiddles as
/// streams in the order it reads them: `tw_h[j]`, then (radix 4)
/// `tw_2h[j]` and `tw_2h[h + j]`, each stream the re and im vectors of
/// its eight positions per step `j`. Every block reads the same streams
/// (one twiddle per butterfly position, as in the scalar plan), and no
/// stream is larger than one stage's twiddles.
#[derive(Debug)]
struct Pass {
    h: usize,
    /// One stream (radix 2) or three (radix 4) of 8-lane vectors.
    tw: Vec<Vec<[f64; 8]>>,
}

impl Pass {
    /// The pass over the span-`h` stage `th` and, for radix 4, the
    /// span-`2h` stage `t2h`.
    fn new(th: &[Complex<f64>], t2h: Option<&[Complex<f64>]>) -> Self {
        let h = th.len();
        let stream = |w: &[Complex<f64>]| -> Vec<[f64; 8]> {
            let mut lanes = Vec::with_capacity(w.len() / 4);
            for w8 in w.chunks_exact(8) {
                lanes.push(core::array::from_fn(|l| w8[l].re));
                lanes.push(core::array::from_fn(|l| w8[l].im));
            }
            lanes
        };
        let mut tw = vec![stream(th)];
        if let Some(t2h) = t2h {
            tw.extend([stream(&t2h[..h]), stream(&t2h[h..])]);
        }
        Self { h, tw }
    }
}

/// Twiddle tables of one direction, laid out for the SIMD kernel.
#[derive(Debug)]
struct DirTables {
    /// The long stages (span ≥ 8) grouped into memory passes, in
    /// execution order.
    passes: Vec<Pass>,
    /// The three sub-vector stages' twiddles in execution order (spans
    /// 1, 2, 4 forward; 4, 2, 1 inverse): `span` of them each, zero
    /// above.
    tail: [[Complex<f64>; 4]; 3],
}

impl DirTables {
    /// Splits one direction's per-stage twiddles (execution order; the
    /// stage span equals the table length) into the three tail stages
    /// and the long stages' passes, two stages per pass.
    fn build(stages: &[Vec<Complex<f64>>], inverse: bool) -> Self {
        let (short, mut long): (Vec<_>, Vec<_>) = stages.iter().partition(|tw| tw.len() < 8);
        let spans: Vec<usize> = short.iter().map(|tw| tw.len()).collect();
        let want = if inverse { [4, 2, 1] } else { [1, 2, 4] };
        assert_eq!(
            spans, want,
            "the three sub-vector stages, in execution order"
        );
        let tail = core::array::from_fn(|k| {
            core::array::from_fn(|j| short[k].get(j).copied().unwrap_or_default())
        });
        // An odd stage count leaves one radix-2 pass at span 8, next to
        // the tail: first of the forward's long passes, last of the
        // inverse's. The radix-4 passes then end (forward) or start
        // (inverse) at the one-block spans `slots/4` and `slots/2`.
        let single = match (long.len() % 2, inverse) {
            (0, _) => None,
            (_, false) => Some(long.remove(0)),
            (_, true) => long.pop(),
        };
        let mut passes: Vec<Pass> = long
            .chunks_exact(2)
            .map(|pair| {
                // Execution order: span h then 2h forward, 2h then h
                // inverse.
                let (h, h2) = if inverse {
                    (pair[1], pair[0])
                } else {
                    (pair[0], pair[1])
                };
                Pass::new(h, Some(h2))
            })
            .collect();
        if let Some(s) = single {
            passes.insert(if inverse { passes.len() } else { 0 }, Pass::new(s, None));
        }
        Self { passes, tail }
    }
}

/// The SIMD layout of one `(slots, f64)` plan: SoA twiddle tables for
/// both directions.
#[derive(Debug)]
pub(crate) struct SimdPlan {
    slots: usize,
    fwd: DirTables,
    inv: DirTables,
    /// The inverse transform's trailing `1/slots` scale, fused into the
    /// last pass (same one multiply per component as the scalar loop).
    inv_scale: f64,
}

impl SimdPlan {
    /// Lays the generic plan's twiddle stages out for the SIMD kernel.
    ///
    /// # Panics
    ///
    /// Panics if `slots < MIN_SIMD_SLOTS`.
    pub(crate) fn build(
        slots: usize,
        fwd_stages: &[Vec<Complex<f64>>],
        inv_stages: &[Vec<Complex<f64>>],
    ) -> Self {
        assert!(slots >= MIN_SIMD_SLOTS, "SIMD plan needs ≥ 8 slots");
        Self {
            slots,
            fwd: DirTables::build(fwd_stages, false),
            inv: DirTables::build(inv_stages, true),
            inv_scale: 1.0 / slots as f64,
        }
    }

    /// Bytes of the SoA twiddle tables.
    pub(crate) fn table_bytes(&self) -> usize {
        let passes = self.fwd.passes.iter().chain(&self.inv.passes);
        let streams = passes.flat_map(|p| &p.tw);
        streams.map(|t| t.len() * size_of::<[f64; 8]>()).sum()
    }
}

/// One transform, forward or inverse (the inverse includes the
/// `1/slots` scale), in the passes listed in the module doc.
/// Bit-identical to the scalar planned kernel.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F or `vals.len() != slots`.
pub(crate) fn run(plan: &SimdPlan, vals: &mut [Complex<f64>], inverse: bool) {
    // A `target_feature` call on an unsupported CPU would be UB, so the
    // safe entry hard-asserts (same contract as `ntt_ifma`).
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    assert_eq!(vals.len(), plan.slots, "length must equal slot count");
    // `2·slots = N` words: the class every `RnsNttEngine` of this ring
    // degree registers with the limb pool. Bare rather than a
    // `PooledLimbs`, whose limb list would allocate per transform.
    let mut planes = pool::take(2 * plan.slots);
    #[cfg(target_arch = "x86_64")]
    {
        let (re, im) = planes.split_at_mut(plan.slots);
        let dir = if inverse { &plan.inv } else { &plan.fwd };
        // SAFETY: the assert above proves AVX-512F, the only hardware
        // precondition the kernels document; `vals` and both planes
        // hold `slots` elements (the planes are the two halves of one
        // `2·slots`-word limb), a power of two ≥ 8, and `dir` was built
        // from this plan's stages (`DirTables::build`).
        unsafe { kern::transform(dir, vals, re, im, plan.inv_scale, inverse) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("AVX-512 FFT kernel requires x86_64");
    pool::put(planes);
}

/// The forward transform in two fan-out passes at `threads` ≥ 2 (the
/// module doc's split); [`run`] below 32 slots or at one thread.
/// Bit-identical to [`run`].
///
/// # Panics
///
/// As [`run`].
pub(crate) fn forward_split(plan: &SimdPlan, vals: &mut [Complex<f64>], threads: usize) {
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    assert_eq!(vals.len(), plan.slots, "length must equal slot count");
    if threads < 2 || plan.slots < MIN_SPLIT_SLOTS {
        return run(plan, vals, false);
    }
    let mut planes = pool::take(2 * plan.slots);
    #[cfg(target_arch = "x86_64")]
    {
        let (half, h) = (plan.slots / 2, plan.slots / 4);
        let (re, im) = planes.split_at_mut(plan.slots);
        let dir = &plan.fwd;
        let src = &*vals;
        let (re_halves, im_halves) = (re.split_at_mut(half), im.split_at_mut(half));
        let halves = [(re_halves.0, im_halves.0), (re_halves.1, im_halves.1)];
        fanout::run_parts(threads, halves, |p, (re, im)| {
            // SAFETY: the assert above proves AVX-512F; `src` holds
            // `slots` slots and each part is half `p` of both planes,
            // `slots / 2 ≥ 16` words, a power of two; `dir` was built
            // from this plan's forward stages.
            unsafe { kern::forward_half(dir, src, p, re, im) }
        });
        // The last pass by butterfly range: two runs of whole steps
        // (the second empty at 32 slots), each writing its positions of
        // the four quarters of `vals`.
        let (steps, per) = (h / 8, (h / 8).div_ceil(2));
        let (re, im) = (&*re, &*im);
        let (q01, q23) = vals.split_at_mut(half);
        let ((q0, q1), (q2, q3)) = (q01.split_at_mut(h), q23.split_at_mut(h));
        let [q0, q1, q2, q3] = [q0, q1, q2, q3].map(|q| q.split_at_mut(8 * per));
        let runs = [[q0.0, q1.0, q2.0, q3.0], [q0.1, q1.1, q2.1, q3.1]];
        fanout::run_parts(threads, runs, |c, quarters| {
            let run = (c * per).min(steps)..((c + 1) * per).min(steps);
            // SAFETY: AVX-512F as above; both planes hold the two
            // finished halves (`slots` words each), the run ends by
            // `h/8`, and each quarter holds its `8 · run.len()` slots.
            unsafe { kern::forward_last(dir, re, im, run, quarters) }
        });
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("AVX-512 FFT kernel requires x86_64");
    pool::put(planes);
}

#[cfg(target_arch = "x86_64")]
mod kern {
    use super::{DirTables, Pass};
    use crate::bitrev::bit_reverse;
    use abc_float::Complex;
    use core::arch::x86_64::*;
    use core::ops::Range;

    /// Eight complex values as split re/im vectors.
    #[derive(Clone, Copy)]
    struct C8 {
        re: __m512d,
        im: __m512d,
    }

    impl C8 {
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel,
        /// register-only.
        #[inline(always)]
        unsafe fn zero() -> Self {
            // SAFETY: register-only, by the contract.
            let z = unsafe { _mm512_setzero_pd() };
            Self { re: z, im: z }
        }
    }

    /// Where a pass loads and stores its slots.
    trait Side: Copy {
        /// The eight slots from `i` on.
        ///
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel; slots
        /// `i..i + 8` in bounds of the side's memory.
        unsafe fn load(self, i: usize) -> C8;

        /// Stores the eight slots from `i` on.
        ///
        /// # Safety
        ///
        /// As [`Side::load`].
        unsafe fn store(self, i: usize, v: C8);
    }

    /// The split planes: f64 bit patterns, one word per slot in each.
    #[derive(Clone, Copy)]
    struct Planes {
        re: *mut f64,
        im: *mut f64,
    }

    impl Side for Planes {
        /// # Safety
        ///
        /// As [`Side::load`].
        #[inline(always)]
        unsafe fn load(self, i: usize) -> C8 {
            // SAFETY: `i + 8` slots in bounds, by the contract.
            unsafe {
                C8 {
                    re: _mm512_loadu_pd(self.re.add(i)),
                    im: _mm512_loadu_pd(self.im.add(i)),
                }
            }
        }

        /// # Safety
        ///
        /// As [`Side::store`].
        #[inline(always)]
        unsafe fn store(self, i: usize, v: C8) {
            // SAFETY: `i + 8` slots in bounds, by the contract.
            unsafe {
                _mm512_storeu_pd(self.re.add(i), v.re);
                _mm512_storeu_pd(self.im.add(i), v.im);
            }
        }
    }

    /// The caller's slice: interleaved `re, im` pairs (`Complex` is
    /// `repr(C)`), two vectors per eight slots.
    #[derive(Clone, Copy)]
    struct Aos(*mut f64);

    impl Side for Aos {
        /// # Safety
        ///
        /// As [`Side::load`].
        #[inline(always)]
        unsafe fn load(self, i: usize) -> C8 {
            // SAFETY: slots `i..i + 8` are the words `2i..2i + 16`, in
            // bounds by the contract; register-only otherwise.
            unsafe {
                let a = _mm512_loadu_pd(self.0.add(2 * i));
                deinterleave(a, _mm512_loadu_pd(self.0.add(2 * i + 8)))
            }
        }

        /// # Safety
        ///
        /// As [`Side::store`].
        #[inline(always)]
        unsafe fn store(self, i: usize, v: C8) {
            // SAFETY: as `load`.
            unsafe {
                let (a, b) = interleave(v);
                _mm512_storeu_pd(self.0.add(2 * i), a);
                _mm512_storeu_pd(self.0.add(2 * i + 8), b);
            }
        }
    }

    /// Where the forward's first pass reads its rows.
    trait Rows: Copy {
        /// The `w ∈ {1, 2, 4, 8}` slots from `i` on, in lanes `0..w`
        /// (zero above).
        ///
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel; slots
        /// `i..i + w` in bounds of the source.
        unsafe fn load_n(self, i: usize, w: usize) -> C8;
    }

    /// The caller's slice in four pieces, for a slice of a pass whose
    /// blocks are the whole transform (`4h = slots`): slot `k·h + j`,
    /// `first ≤ j < h`, is slot `j − first` of piece `k`.
    #[derive(Clone, Copy)]
    struct Quarters {
        base: [*mut f64; 4],
        h: usize,
        first: usize,
    }

    impl Quarters {
        /// The AoS piece holding slot `i`, and the slot's index in it.
        #[inline(always)]
        fn at(self, i: usize) -> (Aos, usize) {
            (Aos(self.base[i / self.h]), i % self.h - self.first)
        }
    }

    impl Side for Quarters {
        /// # Safety
        ///
        /// As [`Side::load`], in the piece of slot `i`.
        #[inline(always)]
        unsafe fn load(self, i: usize) -> C8 {
            let (piece, j) = self.at(i);
            // SAFETY: by the contract, slots `j..j + 8` of the piece.
            unsafe { piece.load(j) }
        }

        /// # Safety
        ///
        /// As [`Side::store`], in the piece of slot `i`.
        #[inline(always)]
        unsafe fn store(self, i: usize, v: C8) {
            let (piece, j) = self.at(i);
            // SAFETY: by the contract, slots `j..j + 8` of the piece.
            unsafe { piece.store(j, v) }
        }
    }

    impl Rows for Aos {
        /// # Safety
        ///
        /// As [`Rows::load_n`].
        #[inline(always)]
        unsafe fn load_n(self, i: usize, w: usize) -> C8 {
            // SAFETY: `w < 8` slots are `2w ≤ 8` words from `2i`, and the
            // masked load touches only those; register-only otherwise.
            unsafe {
                if w == 8 {
                    return self.load(i);
                }
                let a =
                    _mm512_maskz_loadu_pd(((1u32 << (2 * w)) - 1) as __mmask8, self.0.add(2 * i));
                deinterleave(a, _mm512_setzero_pd())
            }
        }
    }

    /// Every other slot of the caller's slice, from slot `p`: slot `i`
    /// is the AoS slot `2i + p` — the input of the split's half `p`.
    #[derive(Clone, Copy)]
    struct Strided {
        aos: *const f64,
        /// Lanes `0..4` of a vector pair (and `4..8` of the next pair)
        /// that hold the re (im) words of slots `p`, `p + 2`, ….
        re: __m512i,
        im: __m512i,
    }

    impl Strided {
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel,
        /// register-only; `p < 2`.
        #[inline(always)]
        unsafe fn new(aos: *const f64, p: usize) -> Self {
            let p = 2 * p as i64;
            // SAFETY: register-only, by the contract. _mm512_set_epi64
            // lists lanes high-to-low; an index ≥ 8 picks a lane of the
            // second vector.
            let re = unsafe { _mm512_set_epi64(12 + p, 8 + p, 4 + p, p, 12 + p, 8 + p, 4 + p, p) };
            // SAFETY: as above.
            let im = unsafe { _mm512_add_epi64(re, _mm512_set1_epi64(1)) };
            Self { aos, re, im }
        }
    }

    impl Rows for Strided {
        /// # Safety
        ///
        /// As [`Rows::load_n`]: strided slots `i..i + w` are within the
        /// AoS slots `2i .. 2i + 2w`.
        #[inline(always)]
        unsafe fn load_n(self, i: usize, w: usize) -> C8 {
            // SAFETY: the four loads cover the words of the AoS slots
            // `2i .. 2i + 2w` — `4w ≤ 32` words from `4i` — and a masked
            // load touches only the words below that end; register-only
            // otherwise.
            unsafe {
                let base = self.aos.add(4 * i);
                let v: [__m512d; 4] = core::array::from_fn(|k| {
                    let n = (4 * w).saturating_sub(8 * k).min(8);
                    if n == 8 {
                        _mm512_loadu_pd(base.add(8 * k))
                    } else {
                        _mm512_maskz_loadu_pd(((1u32 << n) - 1) as __mmask8, base.add(8 * k))
                    }
                });
                let pick = |idx| {
                    let lo = _mm512_permutex2var_pd(v[0], idx, v[1]);
                    let hi = _mm512_permutex2var_pd(v[2], idx, v[3]);
                    _mm512_mask_blend_pd(0xF0, lo, hi)
                };
                C8 {
                    re: pick(self.re),
                    im: pick(self.im),
                }
            }
        }
    }

    impl Aos {
        /// Stores lanes `0..w` of `v` to the `w ∈ {1, 2, 4, 8}` slots
        /// from `i` on.
        ///
        /// # Safety
        ///
        /// As [`Rows::load_n`].
        #[inline(always)]
        unsafe fn store_n(self, i: usize, w: usize, v: C8) {
            // SAFETY: as `load_n`.
            unsafe {
                if w == 8 {
                    return self.store(i, v);
                }
                let mask = ((1u32 << (2 * w)) - 1) as __mmask8;
                _mm512_mask_storeu_pd(self.0.add(2 * i), mask, interleave(v).0);
            }
        }
    }

    /// Eight slots from two AoS vectors (`a` slots 0–3, `b` slots 4–7).
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn deinterleave(a: __m512d, b: __m512d) -> C8 {
        // SAFETY: register-only, by the contract. _mm512_set_epi64
        // lists lanes high-to-low; an index ≥ 8 picks a lane of `b`.
        unsafe {
            let even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
            let odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
            C8 {
                re: _mm512_permutex2var_pd(a, even, b),
                im: _mm512_permutex2var_pd(a, odd, b),
            }
        }
    }

    /// The two AoS vectors of eight slots: slots 0–3, then 4–7.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn interleave(v: C8) -> (__m512d, __m512d) {
        // SAFETY: register-only, by the contract.
        unsafe {
            let lo = _mm512_set_epi64(11, 3, 10, 2, 9, 1, 8, 0);
            let hi = _mm512_set_epi64(15, 7, 14, 6, 13, 5, 12, 4);
            (
                _mm512_permutex2var_pd(v.re, lo, v.im),
                _mm512_permutex2var_pd(v.re, hi, v.im),
            )
        }
    }

    impl Pass {
        /// The twiddles of step `step` (positions `8·step … 8·step + 7`)
        /// of stream `k`.
        ///
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel;
        /// `k < tw.len()` and `8·step < h`.
        #[inline(always)]
        unsafe fn tw(&self, k: usize, step: usize) -> C8 {
            debug_assert!(k < self.tw.len() && 8 * step < self.h);
            // SAFETY: stream `k` exists and holds 2 vectors per step of
            // `h/8`, by the contract.
            unsafe {
                let stream = self.tw.get_unchecked(k);
                C8 {
                    re: _mm512_loadu_pd(stream.get_unchecked(2 * step).as_ptr()),
                    im: _mm512_loadu_pd(stream.get_unchecked(2 * step + 1).as_ptr()),
                }
            }
        }
    }

    /// `a + b` and `a − b`, lane-wise.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn add_sub(a: C8, b: C8) -> (C8, C8) {
        // SAFETY: register-only arithmetic, by the contract.
        unsafe {
            (
                C8 {
                    re: _mm512_add_pd(a.re, b.re),
                    im: _mm512_add_pd(a.im, b.im),
                },
                C8 {
                    re: _mm512_sub_pd(a.re, b.re),
                    im: _mm512_sub_pd(a.im, b.im),
                },
            )
        }
    }

    /// `a · w` with the scalar kernel's exact operation order — four
    /// independent multiplies, then one sub and one add (paper Eq. 12),
    /// **no FMA** — so every lane is bit-identical to `Complex::mul_in`.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn cmul(a: C8, w: C8) -> C8 {
        // SAFETY: register-only arithmetic, by the contract.
        unsafe {
            let ac = _mm512_mul_pd(a.re, w.re);
            let bd = _mm512_mul_pd(a.im, w.im);
            let ad = _mm512_mul_pd(a.re, w.im);
            let bc = _mm512_mul_pd(a.im, w.re);
            C8 {
                re: _mm512_sub_pd(ac, bd),
                im: _mm512_add_pd(ad, bc),
            }
        }
    }

    /// One butterfly, eight lanes: Cooley–Tukey `(u + v·w, u − v·w)`
    /// forward, Gentleman–Sande `(u + v, (u − v)·w)` inverse.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn butterfly(u: C8, v: C8, w: C8, inverse: bool) -> (C8, C8) {
        // SAFETY: register-only arithmetic, by the contract.
        unsafe {
            if inverse {
                let (s, d) = add_sub(u, v);
                (s, cmul(d, w))
            } else {
                add_sub(u, cmul(v, w))
            }
        }
    }

    /// The three tail stages of one direction, each twiddle broadcast
    /// to all eight lanes: they run on eight blocks at once, lane `l`
    /// of every block in register `l`.
    struct Tail([[C8; 4]; 3]);

    impl Tail {
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel,
        /// register-only.
        #[inline(always)]
        unsafe fn new(dir: &DirTables) -> Self {
            // SAFETY: register-only broadcasts, by the contract.
            unsafe {
                let mut w = [[C8::zero(); 4]; 3];
                for (wk, tk) in w.iter_mut().zip(&dir.tail) {
                    for (v, t) in wk.iter_mut().zip(tk) {
                        *v = C8 {
                            re: _mm512_set1_pd(t.re),
                            im: _mm512_set1_pd(t.im),
                        };
                    }
                }
                Self(w)
            }
        }

        /// Runs the three stages (spans 1, 2, 4 forward; 4, 2, 1
        /// inverse) on `x`, whose register `l` holds lane `l` of eight
        /// blocks: lane `l` pairs with lane `l + span` under twiddle
        /// `l % span`, exactly as in the scalar kernel.
        ///
        /// # Safety
        ///
        /// AVX-512F via inlining into a `target_feature` kernel,
        /// register-only.
        #[inline(always)]
        unsafe fn run(&self, x: &mut [C8; 8], inverse: bool) {
            for (k, w) in self.0.iter().enumerate() {
                let span = if inverse { 4 >> k } else { 1 << k };
                for l in (0..8).filter(|l| l & span == 0) {
                    // SAFETY: register-only arithmetic, by the contract.
                    let (a, b) = unsafe { butterfly(x[l], x[l + span], w[l % span], inverse) };
                    (x[l], x[l + span]) = (a, b);
                }
            }
        }
    }

    /// The 8×8 transpose of `x` (register `r`, lane `c` → register `c`,
    /// lane `r`): off-diagonal blocks of 1, 2, then 4 lanes swap between
    /// registers `r` and `r + 1`, `r + 2`, `r + 4`.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn transpose(x: [__m512d; 8]) -> [__m512d; 8] {
        // SAFETY: register-only permutes, by the contract.
        unsafe {
            let mut y = x;
            for r in [0, 2, 4, 6] {
                y[r] = _mm512_unpacklo_pd(x[r], x[r + 1]);
                y[r + 1] = _mm512_unpackhi_pd(x[r], x[r + 1]);
            }
            // _mm512_set_epi64 lists lanes high-to-low.
            let lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
            let hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
            let mut z = y;
            for r in [0, 1, 4, 5] {
                z[r] = _mm512_permutex2var_pd(y[r], lo, y[r + 2]);
                z[r + 2] = _mm512_permutex2var_pd(y[r], hi, y[r + 2]);
            }
            let mut t = z;
            for r in 0..4 {
                t[r] = _mm512_shuffle_f64x2::<0b01_00_01_00>(z[r], z[r + 4]);
                t[r + 4] = _mm512_shuffle_f64x2::<0b11_10_11_10>(z[r], z[r + 4]);
            }
            t
        }
    }

    /// [`transpose`] of both parts.
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel,
    /// register-only.
    #[inline(always)]
    unsafe fn transpose_c8(x: [C8; 8]) -> [C8; 8] {
        // SAFETY: register-only permutes, by the contract.
        unsafe {
            let re = transpose(x.map(|v| v.re));
            let im = transpose(x.map(|v| v.im));
            core::array::from_fn(|l| C8 {
                re: re[l],
                im: im[l],
            })
        }
    }

    /// `rev3(l)`: the bit reversal of a lane index.
    const REV3: [usize; 8] = [0, 4, 2, 6, 1, 5, 3, 7];

    /// The whole transform of one direction over `vals`, through the
    /// split planes `re` / `im`.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F, `vals`, `re` and `im` of one length
    /// `slots`, a power of two ≥ 8, and `dir` built from the stages of a
    /// `slots`-slot plan in direction `inverse`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn transform(
        dir: &DirTables,
        vals: &mut [Complex<f64>],
        re: &mut [u64],
        im: &mut [u64],
        inv_scale: f64,
        inverse: bool,
    ) {
        let slots = vals.len();
        debug_assert!(slots >= 8 && slots.is_power_of_two());
        debug_assert!(re.len() == slots && im.len() == slots);
        // Every access below goes through these three pointers; the
        // references are not used again.
        let aos = Aos(vals.as_mut_ptr().cast::<f64>());
        let planes = Planes {
            re: re.as_mut_ptr().cast::<f64>(),
            im: im.as_mut_ptr().cast::<f64>(),
        };
        let last = dir.passes.len().wrapping_sub(1);
        // SAFETY: every pass below touches slots `< slots` of the
        // buffer it names (`Aos` or `Planes`, each `slots` slots long)
        // and runs on the feature this fn enables. A `u64` has the size
        // and alignment of an `f64`, and every bit pattern is a valid
        // `f64`. The AoS end passes read or write the caller's slice
        // while the planes hold the data; at 8 slots, where the tail
        // pass is the only pass, it loads its one block before it
        // stores it.
        unsafe {
            let tail = Tail::new(dir);
            if inverse {
                for (k, pass) in dir.passes.iter().enumerate() {
                    if k == 0 {
                        long_pass(pass, aos, planes, slots, 0..pass.h / 8, true);
                    } else {
                        long_pass(pass, planes, planes, slots, 0..pass.h / 8, true);
                    }
                }
                if dir.passes.is_empty() {
                    scatter_pass(aos, aos, slots, &tail, inv_scale);
                } else {
                    scatter_pass(planes, aos, slots, &tail, inv_scale);
                }
            } else {
                if dir.passes.is_empty() {
                    gather_pass(aos, aos, slots, &tail);
                } else {
                    gather_pass(aos, planes, slots, &tail);
                }
                for (k, pass) in dir.passes.iter().enumerate() {
                    if k == last {
                        long_pass(pass, planes, aos, slots, 0..pass.h / 8, false);
                    } else {
                        long_pass(pass, planes, planes, slots, 0..pass.h / 8, false);
                    }
                }
            }
        }
    }

    /// Half `p` of the split forward transform: every stage of the
    /// plan's passes but the last on the slots `2i + p` of `vals`, whose
    /// bit-reversed order is slots `p·slots/2 …` of the whole
    /// transform's — the gather + tail pass from the strided slots, then
    /// the long passes, whose blocks (at most `slots/4`) lie inside the
    /// half.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F, `p < 2`, `re` and `im` of one length
    /// `slots / 2`, a power of two ≥ 16, `vals` of length `slots`, and
    /// `dir` built from the forward stages of a `slots`-slot plan.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_half(
        dir: &DirTables,
        vals: &[Complex<f64>],
        p: usize,
        re: &mut [u64],
        im: &mut [u64],
    ) {
        let half = re.len();
        debug_assert!(half >= 16 && half.is_power_of_two() && p < 2);
        debug_assert!(im.len() == half && vals.len() == 2 * half);
        let planes = Planes {
            re: re.as_mut_ptr().cast::<f64>(),
            im: im.as_mut_ptr().cast::<f64>(),
        };
        let rest = &dir.passes[..dir.passes.len() - 1];
        // SAFETY: `Strided` reads the `slots` AoS slots of `vals` only,
        // and every pass below touches slots `< half` of the planes, on
        // the feature this fn enables.
        unsafe {
            let tail = Tail::new(dir);
            gather_pass(Strided::new(vals.as_ptr().cast(), p), planes, half, &tail);
            for pass in rest {
                long_pass(pass, planes, planes, half, 0..pass.h / 8, false);
            }
        }
    }

    /// Steps `steps` of the plan's last forward pass (the radix-4 pass
    /// over spans `slots/4` and `slots/2`, `h = slots/4`), from the
    /// planes both halves wrote into the caller's quarters: `quarters[k]`
    /// is the slots `k·h + 8·steps.start …` of the transform's output,
    /// `8 · steps.len()` of them.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F, `re` and `im` of one length `slots`,
    /// a power of two ≥ 32, `steps` ending by `slots/32`, each quarter of
    /// `8 · steps.len()` slots, and `dir` as in [`forward_half`].
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn forward_last(
        dir: &DirTables,
        re: &[u64],
        im: &[u64],
        steps: Range<usize>,
        quarters: [&mut [Complex<f64>]; 4],
    ) {
        let last = dir.passes.last().expect("≥ 32 slots have a long pass");
        let slots = re.len();
        debug_assert!(last.tw.len() == 3 && 4 * last.h == slots && im.len() == slots);
        debug_assert!(steps.end <= last.h / 8);
        debug_assert!(quarters.iter().all(|q| q.len() == 8 * steps.len()));
        // Read only: `long_pass` stores nothing to its source.
        let planes = Planes {
            re: re.as_ptr().cast::<f64>().cast_mut(),
            im: im.as_ptr().cast::<f64>().cast_mut(),
        };
        let out = Quarters {
            base: quarters.map(|q| q.as_mut_ptr().cast::<f64>()),
            h: last.h,
            first: 8 * steps.start,
        };
        // SAFETY: the pass reads slots `< slots` of the planes and
        // stores, through `out`, only the slots `k·h + j` with `j` in
        // the steps' positions, each inside quarter `k`; on the feature
        // this fn enables.
        unsafe { long_pass(last, planes, out, slots, steps, false) }
    }

    /// The forward's first pass: the bit-reversed input, eight blocks
    /// at a time, through the three tail stages into `dst`. Read as 8
    /// rows of `q = slots/8` columns, the AoS slice holds lane `l` of
    /// block `rev(c)` at row `rev3(l)`, column `c`: eight rows of eight
    /// columns load as eight registers, run the tail stages lane-wise,
    /// and transpose into the eight blocks (`q < 8`: one group of `q`).
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel; `vals` and
    /// `dst` hold `slots` slots, a power of two ≥ 8; if they overlap,
    /// `slots = 8`.
    #[inline(always)]
    unsafe fn gather_pass<R: Rows, D: Side>(vals: R, dst: D, slots: usize, tail: &Tail) {
        let q = slots / 8;
        let (w, bits) = (q.min(8), q.trailing_zeros());
        for c in (0..q).step_by(w) {
            // SAFETY: row `m < 8`, columns `c..c + w ≤ q` are slots
            // below `slots`, and block `rev(c + t) < q` ends at slot
            // `8·rev(c + t) + 8 ≤ slots`; every load precedes every
            // store; the rest is register-only.
            unsafe {
                let mut x = [C8::zero(); 8];
                for (l, xl) in x.iter_mut().enumerate() {
                    *xl = vals.load_n(REV3[l] * q + c, w);
                }
                tail.run(&mut x, false);
                for (t, block) in transpose_c8(x).into_iter().take(w).enumerate() {
                    dst.store(8 * bit_reverse(c + t, bits), block);
                }
            }
        }
    }

    /// The inverse's last pass, [`gather_pass`] backwards: eight blocks
    /// from `src` transpose into eight registers, run the three tail
    /// stages and the `1/slots` scale, and store as rows of the
    /// bit-reversed AoS slice.
    ///
    /// # Safety
    ///
    /// As [`gather_pass`], with `src` for `dst`.
    #[inline(always)]
    unsafe fn scatter_pass<S: Side>(src: S, vals: Aos, slots: usize, tail: &Tail, scale: f64) {
        let q = slots / 8;
        let (w, bits) = (q.min(8), q.trailing_zeros());
        // SAFETY: the slots of `gather_pass`, in the other direction;
        // register-only otherwise.
        unsafe {
            let s = _mm512_set1_pd(scale);
            for c in (0..q).step_by(w) {
                let mut blocks = [C8::zero(); 8];
                for (t, b) in blocks.iter_mut().take(w).enumerate() {
                    *b = src.load(8 * bit_reverse(c + t, bits));
                }
                let mut x = transpose_c8(blocks);
                tail.run(&mut x, true);
                for (l, xl) in x.into_iter().enumerate() {
                    let scaled = C8 {
                        re: _mm512_mul_pd(xl.re, s),
                        im: _mm512_mul_pd(xl.im, s),
                    };
                    vals.store_n(REV3[l] * q + c, w, scaled);
                }
            }
        }
    }

    /// One long-stage pass from `src` to `dst`: blocks of `4h` slots
    /// (radix 4; the stage pair in direction order) or `2h` (radix 2),
    /// and in each block the butterfly positions of `steps`, eight per
    /// step (`0..h/8` is the whole pass).
    ///
    /// # Safety
    ///
    /// AVX-512F via inlining into a `target_feature` kernel; `src` and
    /// `dst` hold `slots` slots, the same memory or disjoint, the pass's
    /// block length divides `slots`, and `steps` ends by `h/8`.
    #[inline(always)]
    unsafe fn long_pass<S: Side, D: Side>(
        pass: &Pass,
        src: S,
        dst: D,
        slots: usize,
        steps: Range<usize>,
        inverse: bool,
    ) {
        let h = pass.h;
        if pass.tw.len() == 1 {
            for base in (0..slots).step_by(2 * h) {
                for step in steps.clone() {
                    let j = base + 8 * step;
                    // SAFETY: `j + h + 8 ≤ base + 2h ≤ slots`, `step <
                    // h/8` of the one stream; each step loads its slots
                    // before it stores them.
                    unsafe {
                        let w = pass.tw(0, step);
                        let (a, b) = butterfly(src.load(j), src.load(j + h), w, inverse);
                        dst.store(j, a);
                        dst.store(j + h, b);
                    }
                }
            }
            return;
        }
        for base in (0..slots).step_by(4 * h) {
            for step in steps.clone() {
                let i = base + 8 * step;
                // SAFETY: `i + 3h + 8 ≤ base + 4h ≤ slots`, `step < h/8`
                // of the three streams; each step loads its slots before
                // it stores them.
                unsafe {
                    let x = [
                        src.load(i),
                        src.load(i + h),
                        src.load(i + 2 * h),
                        src.load(i + 3 * h),
                    ];
                    let (w, w2a, w2b) = (pass.tw(0, step), pass.tw(1, step), pass.tw(2, step));
                    let y = if inverse {
                        // Span 2h, then span h.
                        let (x0, x2) = butterfly(x[0], x[2], w2a, true);
                        let (x1, x3) = butterfly(x[1], x[3], w2b, true);
                        let (y0, y1) = butterfly(x0, x1, w, true);
                        let (y2, y3) = butterfly(x2, x3, w, true);
                        [y0, y1, y2, y3]
                    } else {
                        // Span h, then span 2h.
                        let (x0, x1) = butterfly(x[0], x[1], w, false);
                        let (x2, x3) = butterfly(x[2], x[3], w, false);
                        let (y0, y2) = butterfly(x0, x2, w2a, false);
                        let (y1, y3) = butterfly(x1, x3, w2b, false);
                        [y0, y1, y2, y3]
                    };
                    for (k, yk) in y.into_iter().enumerate() {
                        dst.store(i + k * h, yk);
                    }
                }
            }
        }
    }
}
