//! The CKKS "special" FFT/IFFT over the canonical embedding — planned,
//! generic over the real datapath.
//!
//! CKKS encodes a slot vector `z ∈ C^{N/2}` as the real polynomial
//! `m(X) ∈ R[X]/(X^N + 1)` with `m(ζ^{5^j}) = z_j`, where `ζ = e^{iπ/N}`
//! is a primitive 2N-th root of unity. The fast algorithm (HEAAN/Lattigo
//! lineage) is a radix-2 butterfly network whose twiddles are indexed by
//! the multiplicative subgroup generated by 5 modulo 2N.
//!
//! Everything is generic over [`RealField`], so the identical kernel runs
//! on the FP64 reference datapath, the paper's reduced FP55, or the
//! double-double `ExtF64` embedding — that is how the Fig. 3c
//! bootstrapping-precision sweep and the double-scale decode above the
//! FP64 ceiling are produced.
//!
//! A plan **materializes its twiddle table once per (slots, datapath)**
//! (the FFT analogue of the NTT's `TwiddleTable`): one complex root per
//! butterfly *position*, shared by every block of a stage, kept in the
//! one layout its kernel reads. The seed
//! implementation regenerated `ξ^k` with two trig calls per butterfly —
//! `O(N log N)` transcendental evaluations per transform; the planned
//! kernel loads them. The on-the-fly kernels remain available as
//! [`SpecialFft::forward_otf`]/[`SpecialFft::inverse_otf`] (the hardware
//! OTF-generator model, the oracle the planned kernels are pinned
//! against, and the benchmark baseline) — methods, not a rung.
//!
//! # Kernel dispatch
//!
//! A plan resolves its butterfly kernel at build time from a
//! [`KernelTier`] — the FFT rungs of the workspace's one kernel ladder
//! ([`abc_math::kernel`]; `ABC_FHE_KERNEL` moves `Auto` plans),
//! degrading by capability:
//!
//! * **avx512** (`Simd`) — split re/im (structure-of-arrays)
//!   butterflies, eight f64 lanes per vector op. The plan lays each
//!   stage's twiddles out as re/im vectors in the order the passes read
//!   them (`fft_avx512`): spans ≥ 8 stream whole vectors, two
//!   stages per memory pass, and spans 1/2/4 run in registers inside
//!   the end passes that also hold the bit reversal and the AoS copies
//!   — 7 memory passes at `2^15` slots. The vector kernel preserves the
//!   scalar kernel's exact operation order — the 4-multiply complex product of
//!   paper Eq. 12, no FMA contraction — so it is **bit-identical** to
//!   the scalar planned path (a 0-ulp bound, pinned by the property
//!   suite). Requires x86-64 AVX-512F, the [`F64Field`] datapath and
//!   ≥ 8 slots.
//! * **scalar** (`Scalar`) — the generic planned kernel, any
//!   [`RealField`].
//!
//! Both kernels also run the forward transform split across the
//! fan-out ([`SpecialFft::forward_split`]): two half-size sub-transforms
//! in one pass, then the last stages cut by butterfly range in another,
//! bit-identical to the serial transform.

use crate::{fanout, fft_avx512};
use abc_float::{Complex, F64Field, RealField};
use abc_math::{CpuCaps, KernelTier};
use std::sync::Arc;

/// The kernel a plan resolved to, with the twiddles it reads.
#[derive(Debug, Clone)]
enum FftKernel<R> {
    /// With the SoA twiddle layout only (shared by clones; the split
    /// planes are a limb of the limb pool); implies `F = F64Field`.
    Avx512(Arc<fft_avx512::SimdPlan>),
    /// With both directions' tables in execution order: forward stage
    /// `s` covers block length `len = 2^{s+1}` and holds `len/2` roots
    /// (one per butterfly position, shared across blocks); the inverse
    /// stages run `len` from `slots` down to 2.
    Scalar {
        fwd: Vec<Vec<Complex<R>>>,
        inv: Vec<Vec<Complex<R>>>,
    },
}

/// A planned special FFT for slot count `slots = N/2`, with per-stage
/// twiddle tables materialized on a [`RealField`] datapath.
///
/// # Example
///
/// ```
/// use abc_float::{Complex, F64Field};
/// use abc_transform::fft::SpecialFft;
///
/// let plan = SpecialFft::new(8); // N = 16, 8 slots, FP64 datapath
/// let z: Vec<Complex> = (0..8).map(|i| Complex::new(i as f64, -(i as f64))).collect();
/// let mut v = z.clone();
/// plan.inverse(&mut v); // slots -> coefficient side
/// plan.forward(&mut v); // back to slots
/// for (a, b) in v.iter().zip(&z) {
///     assert!(a.dist(*b) < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SpecialFft<F: RealField = F64Field> {
    field: F,
    /// Slot count `M = N/2`.
    slots: usize,
    /// Ring degree `N = 2·slots`.
    n: usize,
    /// The butterfly kernel this plan resolved to, and its twiddles.
    kernel: FftKernel<F::Real>,
}

impl SpecialFft<F64Field> {
    /// Plans an FP64 transform for `slots` slots (power of two ≥ 1; the
    /// ring degree is `2·slots`).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(slots: usize) -> Self {
        Self::with_field(F64Field, slots)
    }
}

impl<F: RealField> SpecialFft<F> {
    /// Plans a transform on an arbitrary datapath, materializing both
    /// twiddle tables at the datapath's native accuracy. Kernel
    /// selection is [`KernelTier::Auto`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn with_field(field: F, slots: usize) -> Self {
        Self::with_field_kernel(field, slots, KernelTier::Auto)
    }

    /// Plans a transform on an explicit rung of the kernel ladder
    /// ([`KernelTier::Auto`] honours the `ABC_FHE_KERNEL` override,
    /// explicit tiers do not). `Simd` needs the [`F64Field`] datapath
    /// (the field says so itself, through
    /// [`RealField::as_f64_slots`] — `SoftFloatField` also carries `f64`
    /// scalars but rounds after every op), an AVX-512F host and ≥ 8
    /// slots, and degrades to `Scalar` without them; check
    /// [`SpecialFft::kernel_name`].
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two, or if `Auto` reads an
    /// unparseable override.
    pub fn with_field_kernel(field: F, slots: usize, tier: KernelTier) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        let n = 2 * slots;
        let mut plan = Self {
            field,
            slots,
            n,
            kernel: FftKernel::Scalar {
                fwd: Vec::new(),
                inv: Vec::new(),
            },
        };
        let (fwd, inv) = (plan.stage_twiddles(false), plan.stage_twiddles(true));
        let simd_ok = plan.field.as_f64_slots(&mut []).is_some()
            && slots >= fft_avx512::MIN_SIMD_SLOTS
            && CpuCaps::detect().avx512f;
        plan.kernel = match tier.or_env().degrade(simd_ok) {
            KernelTier::Simd => {
                // `F = F64Field` here, so `to_f64` is the identity and
                // the SoA tables are bit-identical to the scalar tables.
                let lower = |tw: &Vec<Complex<F::Real>>| -> Vec<Complex<f64>> {
                    tw.iter().map(|w| w.to_f64_in(&plan.field)).collect()
                };
                let to64 = |stages: &[Vec<_>]| stages.iter().map(lower).collect::<Vec<_>>();
                FftKernel::Avx512(Arc::new(fft_avx512::SimdPlan::build(
                    slots,
                    &to64(&fwd),
                    &to64(&inv),
                )))
            }
            _ => FftKernel::Scalar { fwd, inv },
        };
        plan
    }

    /// The name of the butterfly kernel this plan resolved to
    /// (`"avx512"` or `"scalar"`) — for reports, benches and dispatch
    /// tests.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            FftKernel::Avx512(_) => "avx512",
            FftKernel::Scalar { .. } => "scalar",
        }
    }

    /// The rotation group `5^j mod 2N` for `j = 0, 1, …`: the orbit the
    /// slots are indexed along. Only plan construction and the reference
    /// kernels walk it, so it is generated where it is read, not kept.
    fn rot_group(&self) -> impl Iterator<Item = usize> {
        // 2N is a power of two: the reduction is a mask.
        let mask = 2 * self.n - 1;
        core::iter::successors(Some(1usize), move |&g| Some((g * 5) & mask))
    }

    /// The twiddles of one stage: position `j` of every block of length
    /// `len` multiplies by `ξ^{idx(j)}` (forward) or its inverse power.
    fn build_stage(&self, len: usize, inverse: bool) -> Vec<Complex<F::Real>> {
        let lenh = len >> 1;
        let lenq = len << 2;
        let two_n = 2 * self.n;
        self.rot_group()
            .take(lenh)
            .map(|g| {
                let idx = if inverse {
                    (lenq - (g % lenq)) * (two_n / lenq)
                } else {
                    (g % lenq) * (two_n / lenq)
                };
                self.ksi(idx)
            })
            .collect()
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The datapath this plan was materialized on.
    pub fn field(&self) -> &F {
        &self.field
    }

    /// Twiddle words of a planned (non-OTF) transform, both directions:
    /// `slots − 1` roots each (`len/2` per stage) — the ROM size the
    /// hardware model charges.
    fn twiddle_words(&self) -> usize {
        2 * (self.slots - 1)
    }

    /// Bytes of table memory the plan keeps resident: the twiddles in
    /// its kernel's layout — both directions' tables for the scalar
    /// kernel, the SoA twiddle streams for AVX-512.
    pub fn resident_bytes(&self) -> usize {
        match &self.kernel {
            FftKernel::Avx512(plan) => plan.table_bytes(),
            FftKernel::Scalar { .. } => {
                self.twiddle_words() * core::mem::size_of::<Complex<F::Real>>()
            }
        }
    }

    /// The plan's twiddle table for one direction, stages in execution
    /// order: each stage holds one root per butterfly position, shared
    /// by every block. Generated on each call by the generator the plan
    /// was built with, so it is the kernel's table bit for bit whatever
    /// layout the kernel keeps — for models that must mirror it (the
    /// streaming dataflow in `abc-hw`).
    pub fn stage_twiddles(&self, inverse: bool) -> Vec<Vec<Complex<F::Real>>> {
        let lens = (1..=self.slots.trailing_zeros()).map(|s| 1usize << s);
        let stage = |len| self.build_stage(len, inverse);
        if inverse {
            lens.rev().map(stage).collect()
        } else {
            lens.map(stage).collect()
        }
    }

    /// The root power `ξ^k = e^{2πi·k/(2N)}` generated on the datapath —
    /// the OTF twiddle generator (`2N` is a power of two, so the angle
    /// is the dyadic rational `π·k/N` and the generator runs on exact
    /// integer argument reduction).
    fn ksi(&self, k: usize) -> Complex<F::Real> {
        let log2_n = self.n.trailing_zeros();
        let (c, s) = self.field.sincos_pi_frac(k as u64, log2_n);
        Complex::new(c, s)
    }

    /// Forward special FFT: coefficient side → slot values (used by
    /// **decoding**), dispatched to the plan's resolved kernel. Both
    /// kernels are bit-identical to [`Self::forward_otf`] (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&self, vals: &mut [Complex<F::Real>]) {
        match &self.kernel {
            FftKernel::Avx512(simd) => fft_avx512::run(simd, self.f64_slots(vals), false),
            FftKernel::Scalar { fwd, .. } => self.forward_scalar(vals, fwd),
        }
    }

    /// [`Self::forward`] on up to `threads` participants of the fan-out
    /// ([`crate::fanout`]), bit-identical to it. The stages below the
    /// last pass run as two contiguous half-size sub-transforms, one per
    /// participant; the last pass — on the AVX-512 kernel the radix-4
    /// pass over spans `slots/4` and `slots/2` that writes `vals`, on the
    /// scalar kernel the span-`slots/2` stage — as one more pass cut by
    /// butterfly range. Two chunks whatever `threads` is; at one thread,
    /// or below 32 slots on the AVX-512 kernel, it is [`Self::forward`].
    /// Fans out at any size: the caller weighs whether the transform is
    /// worth two passes ([`crate::LimbWork::threads_for`]).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward_split(&self, vals: &mut [Complex<F::Real>], threads: usize) {
        match &self.kernel {
            FftKernel::Avx512(simd) => {
                fft_avx512::forward_split(simd, self.f64_slots(vals), threads);
            }
            FftKernel::Scalar { fwd, .. } => self.forward_scalar_split(vals, fwd, threads),
        }
    }

    /// Inverse special FFT: slot values → coefficient side (used by
    /// **encoding**). Includes the `1/slots` scale. Dispatched to the
    /// plan's resolved kernel.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&self, vals: &mut [Complex<F::Real>]) {
        match &self.kernel {
            FftKernel::Avx512(simd) => fft_avx512::run(simd, self.f64_slots(vals), true),
            FftKernel::Scalar { inv, .. } => self.inverse_scalar(vals, inv),
        }
    }

    /// The slots as the AVX-512 kernel takes them; a plan resolves to
    /// that kernel only on a field whose slots *are* `Complex<f64>`.
    fn f64_slots<'a>(&self, vals: &'a mut [Complex<F::Real>]) -> &'a mut [Complex<f64>] {
        self.field
            .as_f64_slots(vals)
            .expect("the AVX-512 kernel is planned for f64 fields only")
    }

    /// The generic scalar planned kernel (forward direction) over the
    /// forward table `fwd`: stage `s` runs blocks of `2·span` elements,
    /// `span = 2^s`, and position `j` of every block multiplies by the
    /// stage's `j`-th twiddle.
    fn forward_scalar(&self, vals: &mut [Complex<F::Real>], fwd: &[Vec<Complex<F::Real>>]) {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        crate::bitrev::bit_reverse_permute(vals);
        self.forward_stages(vals, fwd);
    }

    /// [`Self::forward_scalar`] in the two fan-out passes of
    /// [`Self::forward_split`]: after the bit reversal the halves of
    /// `vals` are the two sub-transforms, in place.
    fn forward_scalar_split(
        &self,
        vals: &mut [Complex<F::Real>],
        fwd: &[Vec<Complex<F::Real>>],
        threads: usize,
    ) {
        let Some((last, stages)) = fwd.split_last().filter(|_| threads > 1) else {
            return self.forward_scalar(vals, fwd);
        };
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        crate::bitrev::bit_reverse_permute(vals);
        let half = self.slots / 2;
        let (lo, hi) = vals.split_at_mut(half);
        fanout::run_parts(threads, [lo, hi], |_, part| {
            self.forward_stages(part, stages);
        });
        // The last stage by butterfly range (the second range empty at 2
        // slots).
        let chunk = half.div_ceil(2);
        let (lo, hi) = vals.split_at_mut(half);
        let ((lo0, lo1), (hi0, hi1)) = (lo.split_at_mut(chunk), hi.split_at_mut(chunk));
        let (tw0, tw1) = last.split_at(chunk);
        let ranges = [(lo0, hi0, tw0), (lo1, hi1, tw1)];
        fanout::run_parts(threads, ranges, |_, (x, y, tw)| self.butterflies(x, y, tw));
    }

    /// The forward stages `fwd` over `vals` in bit-reversed order: stage
    /// `s` runs blocks of `2·span` elements, `span = 2^s`.
    fn forward_stages(&self, vals: &mut [Complex<F::Real>], fwd: &[Vec<Complex<F::Real>>]) {
        for tw in fwd {
            for block in vals.chunks_exact_mut(2 * tw.len()) {
                let (lo, hi) = block.split_at_mut(tw.len());
                self.butterflies(lo, hi, tw);
            }
        }
    }

    /// Cooley–Tukey butterflies `(x + y·w, x − y·w)` position by
    /// position.
    fn butterflies(
        &self,
        lo: &mut [Complex<F::Real>],
        hi: &mut [Complex<F::Real>],
        tw: &[Complex<F::Real>],
    ) {
        let f = &self.field;
        for ((x, y), &w) in lo.iter_mut().zip(hi).zip(tw) {
            let u = *x;
            let v = y.mul_in(f, w);
            *x = u.add_in(f, v);
            *y = u.sub_in(f, v);
        }
    }

    /// The generic scalar planned kernel (inverse direction over the
    /// inverse table `inv`, spans descending from `slots/2`, including
    /// the trailing bit-reversal and `1/slots` scale).
    fn inverse_scalar(&self, vals: &mut [Complex<F::Real>], inv: &[Vec<Complex<F::Real>>]) {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        let f = &self.field;
        for tw in inv {
            for block in vals.chunks_exact_mut(2 * tw.len()) {
                let (lo, hi) = block.split_at_mut(tw.len());
                for ((x, y), &w) in lo.iter_mut().zip(hi).zip(tw) {
                    let (a, c) = (*x, *y);
                    *x = a.add_in(f, c);
                    *y = a.sub_in(f, c).mul_in(f, w);
                }
            }
        }
        self.inverse_tail(vals);
    }

    /// The inverse transform's trailing bit-reversal + `1/slots` scale
    /// (shared by the planned scalar and on-the-fly kernels).
    fn inverse_tail(&self, vals: &mut [Complex<F::Real>]) {
        let f = &self.field;
        crate::bitrev::bit_reverse_permute(vals);
        let scale = f.from_f64(1.0 / self.slots as f64);
        for v in vals.iter_mut() {
            *v = v.scale_in(f, scale);
        }
    }

    /// The seed's on-the-fly forward kernel: regenerates every twiddle
    /// per butterfly (two trig evaluations each). Bit-identical to
    /// [`Self::forward`] — the planned table is materialized by the same
    /// generator — and so its oracle, and the baseline the planned
    /// kernel is benchmarked against.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward_otf(&self, vals: &mut [Complex<F::Real>]) {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        crate::bitrev::bit_reverse_permute(vals);
        let f = &self.field;
        let two_n = 2 * self.n;
        let mut len = 2usize;
        while len <= self.slots {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..self.slots).step_by(len) {
                for (j, g) in self.rot_group().take(lenh).enumerate() {
                    let idx = (g % lenq) * (two_n / lenq);
                    let w = self.ksi(idx);
                    let u = vals[i + j];
                    let v = vals[i + j + lenh].mul_in(f, w);
                    vals[i + j] = u.add_in(f, v);
                    vals[i + j + lenh] = u.sub_in(f, v);
                }
            }
            len <<= 1;
        }
    }

    /// The seed's on-the-fly inverse kernel (see [`Self::forward_otf`]).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse_otf(&self, vals: &mut [Complex<F::Real>]) {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        let f = &self.field;
        let two_n = 2 * self.n;
        let mut len = self.slots;
        while len >= 2 {
            let lenh = len >> 1;
            let lenq = len << 2;
            for i in (0..self.slots).step_by(len) {
                for (j, g) in self.rot_group().take(lenh).enumerate() {
                    let idx = (lenq - (g % lenq)) * (two_n / lenq);
                    let w = self.ksi(idx);
                    let u = vals[i + j].add_in(f, vals[i + j + lenh]);
                    let v = vals[i + j].sub_in(f, vals[i + j + lenh]).mul_in(f, w);
                    vals[i + j] = u;
                    vals[i + j + lenh] = v;
                }
            }
            len >>= 1;
        }
        self.inverse_tail(vals);
    }

    /// Converts slot values (after [`Self::inverse`]) to the `N` real
    /// coefficients of the ring element: real parts land in the low
    /// half, imaginary parts in the high half.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn slots_to_coeffs(&self, vals: &[Complex<F::Real>]) -> Vec<F::Real> {
        assert_eq!(vals.len(), self.slots);
        let mut out = vec![F::Real::default(); self.n];
        for (j, v) in vals.iter().enumerate() {
            out[j] = v.re;
            out[j + self.slots] = v.im;
        }
        out
    }

    /// Inverse of [`Self::slots_to_coeffs`].
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn coeffs_to_slots(&self, coeffs: &[F::Real]) -> Vec<Complex<F::Real>> {
        assert_eq!(coeffs.len(), self.n);
        (0..self.slots)
            .map(|j| Complex::new(coeffs[j], coeffs[j + self.slots]))
            .collect()
    }
}

#[cfg(test)]
impl SpecialFft<F64Field> {
    /// Evaluates the embedding directly: given real ring coefficients
    /// `coeffs` (length `N`, coefficient `j` of `X^j`), returns the slot
    /// values `m(ζ^{5^j})` by brute-force evaluation. `O(N²)` — the
    /// golden model the fast path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    fn embed_reference(&self, coeffs: &[f64]) -> Vec<Complex> {
        assert_eq!(coeffs.len(), self.n);
        let two_n = (2 * self.n) as f64;
        let mut out = Vec::with_capacity(self.slots);
        for g in self.rot_group().take(self.slots) {
            let mut acc = Complex::zero();
            for (k, &c) in coeffs.iter().enumerate() {
                let theta = 2.0 * core::f64::consts::PI * (g * k) as f64 / two_n;
                acc = Complex::new(acc.re + c * theta.cos(), acc.im + c * theta.sin());
            }
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::{ExtF64Field, SoftFloatField};

    #[test]
    fn roundtrip_identity() {
        for slots in [1usize, 2, 8, 64, 512] {
            let plan = SpecialFft::new(slots);
            let z: Vec<Complex> = (0..slots)
                .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
                .collect();
            let mut v = z.clone();
            plan.inverse(&mut v);
            plan.forward(&mut v);
            for (a, b) in v.iter().zip(&z) {
                assert!(a.dist(*b) < 1e-10, "slots={slots}");
            }
        }
    }

    #[test]
    fn planned_equals_otf_bit_for_bit() {
        // The table is materialized by the same generator the OTF kernel
        // calls, so planned and on-the-fly transforms agree exactly on
        // every datapath.
        let slots = 128;
        let z: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let plan = SpecialFft::new(slots);
        let mut a = z.clone();
        let mut b = z.clone();
        plan.forward(&mut a);
        plan.forward_otf(&mut b);
        assert_eq!(a, b);
        plan.inverse(&mut a);
        plan.inverse_otf(&mut b);
        assert_eq!(a, b);
        let fp55 = SpecialFft::with_field(SoftFloatField::fp55(), slots);
        let mut a = z.clone();
        let mut b = z;
        fp55.forward(&mut a);
        fp55.forward_otf(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_brute_force_embedding() {
        // inverse() must produce slot values that, interpreted as ring
        // coefficients, evaluate back to the inputs at the ζ^{5^j} points.
        let slots = 16;
        let plan = SpecialFft::new(slots);
        let z: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(0.1 * i as f64, -0.05 * i as f64 + 0.3))
            .collect();
        let mut v = z.clone();
        plan.inverse(&mut v);
        let coeffs = plan.slots_to_coeffs(&v);
        let evals = plan.embed_reference(&coeffs);
        for (a, b) in evals.iter().zip(&z) {
            assert!(a.dist(*b) < 1e-9, "embedding mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn inverse_then_coeffs_are_real_ring_element() {
        // The encoded object is a *real* polynomial: the complex slot
        // pattern must satisfy the conjugate symmetry implicitly, which the
        // re/im split realizes. Check that forward(coeffs_to_slots(...))
        // reproduces slot values from a real coefficient vector.
        let slots = 32;
        let plan = SpecialFft::new(slots);
        let coeffs: Vec<f64> = (0..plan.n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut v = plan.coeffs_to_slots(&coeffs);
        plan.forward(&mut v);
        let evals = plan.embed_reference(&coeffs);
        // forward works on the re/im-packed representation; compare to the
        // direct embedding of the same packing.
        for (a, b) in v.iter().zip(&evals) {
            assert!(a.dist(*b) < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn reduced_precision_increases_error_smoothly() {
        let slots = 64;
        let z: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.21).cos()))
            .collect();
        let mut last_err = f64::INFINITY;
        for mant in [20u32, 30, 43, 52] {
            let plan = SpecialFft::with_field(SoftFloatField::new(mant), slots);
            let mut v = z.clone();
            plan.inverse(&mut v);
            plan.forward(&mut v);
            let err: f64 = v
                .iter()
                .zip(&z)
                .map(|(a, b)| a.dist(*b))
                .fold(0.0, f64::max);
            assert!(err <= last_err * 1.5, "mant={mant} err={err}");
            last_err = err;
        }
        assert!(last_err < 1e-12);
    }

    #[test]
    fn extended_datapath_beats_f64_roundtrip_error() {
        // ExtF64's round-trip error must sit far below FP64's: the whole
        // point of running the embedding in double-double.
        let slots = 256;
        let msg: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.23).cos()))
            .collect();
        let f64_plan = SpecialFft::new(slots);
        let mut v = msg.clone();
        f64_plan.inverse(&mut v);
        f64_plan.forward(&mut v);
        let f64_err = v
            .iter()
            .zip(&msg)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0, f64::max);

        let ext_plan = SpecialFft::with_field(ExtF64Field, slots);
        let fe = ExtF64Field;
        let mut w: Vec<_> = msg.iter().map(|z| z.lift_in(&fe)).collect();
        ext_plan.inverse(&mut w);
        ext_plan.forward(&mut w);
        let ext_err = w
            .iter()
            .zip(&msg)
            .map(|(a, b)| a.to_f64_in(&fe).dist(*b))
            .fold(0.0, f64::max);
        // f64 is good to ~1e-15 here; ExtF64 keeps ≥100 bits (the
        // residue shows up only on zero-valued components, where f64 can
        // still represent it).
        assert!(f64_err > 0.0, "f64 round trip is never exact at 256 slots");
        assert!(
            ext_err < 2f64.powi(-100),
            "ext err {ext_err:e} above the double-double floor"
        );
        assert!(ext_err < f64_err * 1e-10, "no gain over f64: {ext_err:e}");
    }

    #[test]
    fn twiddle_rom_accounting() {
        let plan = SpecialFft::new(512);
        // Σ len/2 over stages = slots − 1, both directions.
        assert_eq!(plan.twiddle_words(), 2 * (512 - 1));
    }

    #[test]
    fn every_kernel_stages_the_scalar_tables() {
        // An AVX-512 plan keeps only its SoA planes, so its staged
        // twiddles are regenerated; they must be the tables a scalar plan
        // runs, bit for bit (and on a host without AVX-512F both plans
        // are scalar, and the same holds).
        let bits = |stages: &[Vec<Complex>]| -> Vec<Vec<(u64, u64)>> {
            let bits = |w: &Complex| (w.re.to_bits(), w.im.to_bits());
            stages
                .iter()
                .map(|s| s.iter().map(bits).collect())
                .collect()
        };
        for slots in [1usize, 8, 64, 1 << 10] {
            let simd = SpecialFft::with_field_kernel(F64Field, slots, KernelTier::Simd);
            let scalar = SpecialFft::with_field_kernel(F64Field, slots, KernelTier::Scalar);
            let FftKernel::Scalar { fwd, inv } = &scalar.kernel else {
                panic!("a forced scalar plan holds the scalar tables");
            };
            for (inverse, table) in [(false, fwd), (true, inv)] {
                let staged = bits(&simd.stage_twiddles(inverse));
                assert_eq!(staged, bits(table), "slots={slots} inverse={inverse}");
                assert_eq!(staged, bits(&scalar.stage_twiddles(inverse)));
            }
            let words: usize = fwd.iter().chain(inv).map(Vec::len).sum();
            assert_eq!(simd.twiddle_words(), words, "slots={slots}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        SpecialFft::new(3);
    }

    #[test]
    fn rot_group_is_multiplicative() {
        let plan = SpecialFft::new(16);
        let two_n = 2 * plan.n;
        let group: Vec<usize> = plan.rot_group().take(17).collect();
        for j in 1..16 {
            assert_eq!(group[j], (group[j - 1] * 5) % two_n);
        }
        // 5 has order N/2 = slots in (Z/2N)^×: the orbit closes there.
        assert_eq!((group[0], group[16]), (1, 1));
        assert!(group[1..16].iter().all(|&g| g != 1));
    }

    #[test]
    fn kernel_preferences_degrade_by_capability() {
        // Scalar is always honoured.
        let scalar = SpecialFft::with_field_kernel(F64Field, 64, KernelTier::Scalar);
        assert_eq!(scalar.kernel_name(), "scalar");
        // Non-`F64Field` datapaths never take the SIMD path, even when
        // forced: `SoftFloatField` carries f64 scalars but rounds after
        // every op, so the *field* type gates dispatch.
        let fp55 = SpecialFft::with_field_kernel(SoftFloatField::fp55(), 64, KernelTier::Simd);
        assert_eq!(fp55.kernel_name(), "scalar");
        let ext = SpecialFft::with_field_kernel(ExtF64Field, 64, KernelTier::Simd);
        assert_eq!(ext.kernel_name(), "scalar");
        // Transforms below a full 8-lane block fall back.
        let tiny = SpecialFft::with_field_kernel(F64Field, 4, KernelTier::Simd);
        assert_eq!(tiny.kernel_name(), "scalar");
        // On an AVX-512F host the f64 plan takes the vector kernel.
        let expected = if CpuCaps::detect().avx512f {
            "avx512"
        } else {
            "scalar"
        };
        let fast = SpecialFft::with_field_kernel(F64Field, 64, KernelTier::Simd);
        assert_eq!(fast.kernel_name(), expected);
    }

    #[test]
    fn forced_kernels_are_bit_identical() {
        // The dispatch ladder's core contract: whatever kernel a plan
        // resolves to, forward/inverse values are bit-identical to the
        // on-the-fly oracle (the AVX-512 kernel preserves the scalar
        // operation order — no FMA contraction — so the documented ulp
        // bound is 0).
        for slots in [8usize, 64, 1 << 10] {
            let z: Vec<Complex> = (0..slots)
                .map(|i| Complex::new((i as f64 * 0.31).sin(), (i as f64 * 0.17).cos()))
                .collect();
            let oracle = SpecialFft::new(slots);
            let mut want_f = z.clone();
            oracle.forward_otf(&mut want_f);
            let mut want_i = z.clone();
            oracle.inverse_otf(&mut want_i);
            for pref in [KernelTier::Simd, KernelTier::Scalar, KernelTier::Auto] {
                let plan = SpecialFft::with_field_kernel(F64Field, slots, pref);
                let mut got = z.clone();
                plan.forward(&mut got);
                assert_eq!(got, want_f, "forward {pref:?} slots={slots}");
                let mut got = z.clone();
                plan.inverse(&mut got);
                assert_eq!(got, want_i, "inverse {pref:?} slots={slots}");
            }
        }
    }
}
