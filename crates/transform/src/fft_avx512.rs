//! AVX-512 split re/im (SoA) butterfly kernel for the f64 special FFT.
//!
//! The generic [`crate::fft::SpecialFft`] kernel walks `Complex<f64>`
//! pairs one butterfly at a time. This module runs the same butterfly
//! network eight lanes wide: the plan's per-stage twiddles are laid out
//! as **split re/im planes** (structure-of-arrays), so a complex
//! butterfly is plain lane-wise f64 arithmetic with no shuffling between
//! real and imaginary parts.
//!
//! Layout of one transform:
//!
//! 1. **split** — copy the AoS input into the re/im planes: one `N`-word
//!    limb of the limb pool ([`crate::pool`]), `[..slots]` the re plane
//!    and `[slots..]` the im plane, each word the bit pattern of an
//!    `f64`. The forward direction fuses the bit-reversal permutation
//!    into this copy (the inverse fuses it, plus the trailing `1/slots`
//!    scale, into the merge).
//! 2. **tail** — the three sub-vector stages (spans 1, 2, 4) run fused
//!    in registers per 8-element block using `vpermpd` lane pairing and
//!    masked blends.
//!    Special-FFT twiddles are shared across blocks, so each tail layer
//!    needs just one precomputed 8-lane twiddle pattern.
//! 3. **long stages** — spans ≥ 8 stream whole 8-lane vectors straight
//!    from the planes, with twiddle vectors loaded from the SoA tables.
//! 4. **merge** — copy the planes back into the AoS slice.
//!
//! **Bit-identity.** Every lane performs the scalar kernel's exact
//! operation sequence — the 4-multiply complex product (paper Eq. 12)
//! followed by one sub/add, with **no FMA contraction** — so the vector
//! transform is bit-identical to the scalar planned kernel on every
//! input: a 0-ulp bound, asserted by the property suite. The speedup
//! comes from 8-wide data parallelism, not from reassociating float
//! arithmetic.

use crate::bitrev::bit_reverse;
use crate::pool;
use abc_float::Complex;
use abc_math::CpuCaps;

/// Minimum slot count for the SIMD kernel: at `slots ≥ 8` the three
/// in-register tail layers (spans 1/2/4) all exist and every longer
/// span is a multiple of the 8-lane vector width.
pub const MIN_SIMD_SLOTS: usize = 8;

/// Twiddle tables of one direction, laid out for the SIMD kernel.
#[derive(Debug)]
struct DirTables {
    /// Vector-span stages (span ≥ 8) in execution order:
    /// `(span, tw_re, tw_im)`, one twiddle per butterfly position
    /// (shared across blocks, as in the scalar plan).
    long: Vec<(usize, Vec<f64>, Vec<f64>)>,
    /// `log2(span)` of the three in-register tail layers in execution
    /// order (0/1/2 forward, 2/1/0 inverse) — indexes the lane-pairing
    /// permutation table.
    tail_span_log: [usize; 3],
    /// 8-lane twiddle patterns of the tail layers: lane `l` holds the
    /// twiddle of butterfly position `l % span`. Twiddles are shared
    /// across blocks, so one pattern serves the whole stage.
    tail_re: [[f64; 8]; 3],
    tail_im: [[f64; 8]; 3],
}

impl DirTables {
    /// Splits one direction's per-stage twiddles (execution order; the
    /// stage span equals the table length) into SoA long-stage planes
    /// and the three tail patterns.
    fn build(stages: &[Vec<Complex<f64>>]) -> Self {
        let mut long = Vec::new();
        let mut tail_idx = 0usize;
        let mut tail_span_log = [0usize; 3];
        let mut tail_re = [[0.0; 8]; 3];
        let mut tail_im = [[0.0; 8]; 3];
        for tw in stages {
            let span = tw.len();
            if span >= 8 {
                long.push((
                    span,
                    tw.iter().map(|w| w.re).collect(),
                    tw.iter().map(|w| w.im).collect(),
                ));
            } else {
                assert!(tail_idx < 3, "more than three sub-vector stages");
                for l in 0..8 {
                    tail_re[tail_idx][l] = tw[l % span].re;
                    tail_im[tail_idx][l] = tw[l % span].im;
                }
                tail_span_log[tail_idx] = span.trailing_zeros() as usize;
                tail_idx += 1;
            }
        }
        assert_eq!(tail_idx, 3, "expected exactly three sub-vector stages");
        Self {
            long,
            tail_span_log,
            tail_re,
            tail_im,
        }
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
    /// merge pass (same one multiply per component as the scalar loop).
    inv_scale: f64,
    /// Precomputed bit-reversal permutation (`brv[i] = bit_reverse(i)`),
    /// so the fused split/merge passes stream an index table instead of
    /// running the multi-op software `reverse_bits` per element.
    brv: Vec<u32>,
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
        let bits = slots.trailing_zeros();
        Self {
            slots,
            fwd: DirTables::build(fwd_stages),
            inv: DirTables::build(inv_stages),
            inv_scale: 1.0 / slots as f64,
            brv: (0..slots).map(|i| bit_reverse(i, bits) as u32).collect(),
        }
    }

    /// Bytes of the SoA twiddle tables and the bit-reversal table.
    pub(crate) fn table_bytes(&self) -> usize {
        let long = [&self.fwd, &self.inv].into_iter().flat_map(|d| &d.long);
        let twiddles: usize = long.map(|(_, re, im)| re.len() + im.len()).sum();
        twiddles * 8 + self.brv.len() * 4
    }
}

/// One transform, forward or inverse (the inverse includes the
/// `1/slots` scale): split → butterfly passes → merge. Bit-identical to
/// the scalar planned kernel.
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
    let (re, im) = planes.split_at_mut(plan.slots);
    split(vals, re, im, &plan.brv, inverse);
    #[cfg(target_arch = "x86_64")]
    {
        let dir = if inverse { &plan.inv } else { &plan.fwd };
        // SAFETY: the assert above proves AVX-512F, the only hardware
        // precondition the kernels document; both planes hold `slots`
        // words (the two halves of one `2·slots`-word limb), a power of
        // two ≥ 8, and every long stage's span is a power of two in
        // `[8, slots/2]` with `span`-element twiddle planes
        // (`DirTables::build`).
        unsafe {
            if inverse {
                for (span, twr, twi) in &dir.long {
                    kern::long_stage(re, im, *span, twr, twi, true);
                }
                kern::tail_pass(re, im, dir, true);
            } else {
                kern::tail_pass(re, im, dir, false);
                for (span, twr, twi) in &dir.long {
                    kern::long_stage(re, im, *span, twr, twi, false);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("AVX-512 FFT kernel requires x86_64");
    merge(vals, re, im, &plan.brv, plan.inv_scale, inverse);
    pool::put(planes);
}

/// Copies the AoS input into the split planes as f64 bit patterns; the
/// forward direction reads through the precomputed bit-reversal table
/// (the scalar kernel's in-place permute, fused into the copy).
fn split(vals: &[Complex<f64>], re: &mut [u64], im: &mut [u64], brv: &[u32], inverse: bool) {
    let planes = re.iter_mut().zip(im);
    if inverse {
        for ((re, im), z) in planes.zip(vals) {
            (*re, *im) = (z.re.to_bits(), z.im.to_bits());
        }
    } else {
        for ((re, im), &j) in planes.zip(brv) {
            let z = vals[j as usize];
            (*re, *im) = (z.re.to_bits(), z.im.to_bits());
        }
    }
}

/// Merges the split planes back into the AoS slice; the inverse
/// direction reads through the bit-reversal table and applies the
/// `1/slots` scale (one multiply per component, exactly as the scalar
/// trailing loops).
fn merge(
    vals: &mut [Complex<f64>],
    re: &[u64],
    im: &[u64],
    brv: &[u32],
    inv_scale: f64,
    inverse: bool,
) {
    if inverse {
        for (v, &j) in vals.iter_mut().zip(brv) {
            let (r, i) = (
                f64::from_bits(re[j as usize]),
                f64::from_bits(im[j as usize]),
            );
            *v = Complex::new(r * inv_scale, i * inv_scale);
        }
    } else {
        for ((v, &r), &i) in vals.iter_mut().zip(re).zip(im) {
            *v = Complex::new(f64::from_bits(r), f64::from_bits(i));
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod kern {
    use super::DirTables;
    use core::arch::x86_64::*;

    /// Lane pairing of one in-register layer: `idx_lo`/`idx_hi` gather
    /// each lane's butterfly operands with `vpermpd`, `hi_mask` selects
    /// which lanes receive the "hi" result.
    struct LayerPerm {
        idx_lo: __m512i,
        idx_hi: __m512i,
        hi_mask: __mmask8,
    }

    /// Permutation tables indexed by `log2(span)` for spans 1, 2, 4.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F (pure in-register table builds, no
    /// memory access — the feature is the only precondition).
    #[target_feature(enable = "avx512f")]
    unsafe fn layer_perms() -> [LayerPerm; 3] {
        // _mm512_set_epi64 lists lanes high-to-low.
        [
            LayerPerm {
                // span 1: adjacent pairs (u, v).
                idx_lo: _mm512_set_epi64(6, 6, 4, 4, 2, 2, 0, 0),
                idx_hi: _mm512_set_epi64(7, 7, 5, 5, 3, 3, 1, 1),
                hi_mask: 0b1010_1010,
            },
            LayerPerm {
                // span 2: blocks of 4 (u0 u1 v0 v1).
                idx_lo: _mm512_set_epi64(5, 4, 5, 4, 1, 0, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 7, 6, 3, 2, 3, 2),
                hi_mask: 0b1100_1100,
            },
            LayerPerm {
                // span 4: one block of 8 (u0..u3 v0..v3).
                idx_lo: _mm512_set_epi64(3, 2, 1, 0, 3, 2, 1, 0),
                idx_hi: _mm512_set_epi64(7, 6, 5, 4, 7, 6, 5, 4),
                hi_mask: 0b1111_0000,
            },
        ]
    }

    /// `(ar + i·ai) · (wr + i·wi)` with the scalar kernel's exact
    /// operation order — four independent multiplies, then one sub and
    /// one add (paper Eq. 12), **no FMA** — so every lane is
    /// bit-identical to `Complex::mul_in`.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F (register-only arithmetic, no memory
    /// access — the feature is the only precondition).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn cmul(ar: __m512d, ai: __m512d, wr: __m512d, wi: __m512d) -> (__m512d, __m512d) {
        let ac = _mm512_mul_pd(ar, wr);
        let bd = _mm512_mul_pd(ai, wi);
        let ad = _mm512_mul_pd(ar, wi);
        let bc = _mm512_mul_pd(ai, wr);
        (_mm512_sub_pd(ac, bd), _mm512_add_pd(ad, bc))
    }

    /// Runs the three sub-vector layers fully in registers, one
    /// 8-element block of both planes at a time. The planes hold f64 bit
    /// patterns.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F and equal plane lengths, a multiple
    /// of 8.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tail_pass(re: &mut [u64], im: &mut [u64], dir: &DirTables, inverse: bool) {
        // SAFETY: caller guarantees AVX-512F (the only precondition of
        // `layer_perms`).
        let perms = unsafe { layer_perms() };
        let mut w = [(_mm512_setzero_pd(), _mm512_setzero_pd()); 3];
        for (l, wl) in w.iter_mut().enumerate() {
            // SAFETY: each tail twiddle table holds exactly 8 lanes.
            *wl = unsafe {
                (
                    _mm512_loadu_pd(dir.tail_re[l].as_ptr()),
                    _mm512_loadu_pd(dir.tail_im[l].as_ptr()),
                )
            };
        }
        for (br, bi) in re.chunks_exact_mut(8).zip(im.chunks_exact_mut(8)) {
            // SAFETY: each chunk is exactly the 8 lanes one load/store
            // touches; `cmul` needs only the feature the caller
            // guarantees. A `u64` has the size and alignment of an
            // `f64`, and every bit pattern is a valid `f64`.
            unsafe {
                let pr = br.as_mut_ptr().cast::<f64>();
                let pi = bi.as_mut_ptr().cast::<f64>();
                let mut vr = _mm512_loadu_pd(pr);
                let mut vi = _mm512_loadu_pd(pi);
                for (l, &(wr, wi)) in w.iter().enumerate() {
                    let p = &perms[dir.tail_span_log[l]];
                    let lo_r = _mm512_permutexvar_pd(p.idx_lo, vr);
                    let lo_i = _mm512_permutexvar_pd(p.idx_lo, vi);
                    let hi_r = _mm512_permutexvar_pd(p.idx_hi, vr);
                    let hi_i = _mm512_permutexvar_pd(p.idx_hi, vi);
                    if inverse {
                        // u = lo + hi; v = (lo − hi)·w (Gentleman–Sande).
                        let sr = _mm512_add_pd(lo_r, hi_r);
                        let si = _mm512_add_pd(lo_i, hi_i);
                        let dr = _mm512_sub_pd(lo_r, hi_r);
                        let di = _mm512_sub_pd(lo_i, hi_i);
                        let (tr, ti) = cmul(dr, di, wr, wi);
                        vr = _mm512_mask_blend_pd(p.hi_mask, sr, tr);
                        vi = _mm512_mask_blend_pd(p.hi_mask, si, ti);
                    } else {
                        // v = hi·w; u ± v (Cooley–Tukey).
                        let (tr, ti) = cmul(hi_r, hi_i, wr, wi);
                        let ar = _mm512_add_pd(lo_r, tr);
                        let ai = _mm512_add_pd(lo_i, ti);
                        let sr = _mm512_sub_pd(lo_r, tr);
                        let si = _mm512_sub_pd(lo_i, ti);
                        vr = _mm512_mask_blend_pd(p.hi_mask, ar, sr);
                        vi = _mm512_mask_blend_pd(p.hi_mask, ai, si);
                    }
                }
                _mm512_storeu_pd(pr, vr);
                _mm512_storeu_pd(pi, vi);
            }
        }
    }

    /// One vector-span stage: blocks of `2·span` elements, eight
    /// butterflies (one vector of each half, one twiddle vector) per
    /// step. The planes hold f64 bit patterns.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F, equal plane lengths that are a
    /// multiple of `2·span`, `span` a multiple of 8, and twiddle planes
    /// of length `span`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn long_stage(
        re: &mut [u64],
        im: &mut [u64],
        span: usize,
        twr: &[f64],
        twi: &[f64],
        inverse: bool,
    ) {
        for (br, bi) in re
            .chunks_exact_mut(2 * span)
            .zip(im.chunks_exact_mut(2 * span))
        {
            let (lo_re, hi_re) = br.split_at_mut(span);
            let (lo_im, hi_im) = bi.split_at_mut(span);
            for j in (0..span).step_by(8) {
                // SAFETY: `span` is a multiple of 8, so `j + 8 ≤ span`,
                // the length of the four half-blocks and (caller's
                // promise) of both twiddle planes; `cmul` needs only
                // the feature the caller guarantees. A `u64` has the
                // size and alignment of an `f64`, and every bit pattern
                // is a valid `f64`.
                unsafe {
                    let plo_r = lo_re.as_mut_ptr().add(j).cast::<f64>();
                    let plo_i = lo_im.as_mut_ptr().add(j).cast::<f64>();
                    let phi_r = hi_re.as_mut_ptr().add(j).cast::<f64>();
                    let phi_i = hi_im.as_mut_ptr().add(j).cast::<f64>();
                    let lo_r = _mm512_loadu_pd(plo_r);
                    let lo_i = _mm512_loadu_pd(plo_i);
                    let hi_r = _mm512_loadu_pd(phi_r);
                    let hi_i = _mm512_loadu_pd(phi_i);
                    let wr = _mm512_loadu_pd(twr.as_ptr().add(j));
                    let wi = _mm512_loadu_pd(twi.as_ptr().add(j));
                    if inverse {
                        let sr = _mm512_add_pd(lo_r, hi_r);
                        let si = _mm512_add_pd(lo_i, hi_i);
                        let dr = _mm512_sub_pd(lo_r, hi_r);
                        let di = _mm512_sub_pd(lo_i, hi_i);
                        let (tr, ti) = cmul(dr, di, wr, wi);
                        _mm512_storeu_pd(plo_r, sr);
                        _mm512_storeu_pd(plo_i, si);
                        _mm512_storeu_pd(phi_r, tr);
                        _mm512_storeu_pd(phi_i, ti);
                    } else {
                        let (tr, ti) = cmul(hi_r, hi_i, wr, wi);
                        _mm512_storeu_pd(plo_r, _mm512_add_pd(lo_r, tr));
                        _mm512_storeu_pd(plo_i, _mm512_add_pd(lo_i, ti));
                        _mm512_storeu_pd(phi_r, _mm512_sub_pd(lo_r, tr));
                        _mm512_storeu_pd(phi_i, _mm512_sub_pd(lo_i, ti));
                    }
                }
            }
        }
    }
}
