//! Lattice-crypto samplers driven by the on-chip PRNG.
//!
//! Encryption needs three random polynomials per ciphertext (paper
//! Fig. 2a): a uniform mask, a ternary ephemeral secret, and small
//! Gaussian errors. All three are derived deterministically from a
//! [`Seed`](crate::Seed).
//!
//! # Two rungs, one output
//!
//! Each sampler draws on its generator's rung of the kernel ladder
//! ([`ChaCha20::kernel_name`], moved by `ABC_FHE_KERNEL` with the
//! keystream). On `scalar`, `sample_poly` is the per-coefficient
//! `sample()` / [`ChaCha20::next_bits`] loop, which stays the oracle. On
//! `avx512`, `sample_poly` reads the generator's refill buffer in bulk:
//!
//! * **uniform** — eight `u64` candidates per step (one keystream word
//!   each at ≤ 32 bits, two above), masked to `bits`, compared with `q`,
//!   the accepted lanes compressed in order;
//! * **Gaussian** — one `u64` per coefficient (two keystream words, low
//!   word first), eight lanes at a time: a count of the thresholds
//!   `≤ w >> 1` and a negation where `w & 1` is clear;
//! * **dense ternary** — one word per coefficient, mapped to
//!   `{-1, 0, +1}` by arithmetic, sixteen at a time.
//!
//! Both rungs consume the keystream in the same order, and every output
//! bit and the generator's position after the call are the same on both.
//! The Gaussian and the dense ternary read a fixed number of words per
//! coefficient, whole pairs and single words, so neither can straddle a
//! refill; a uniform candidate that would is drawn by the oracle.
//!
//! # What is constant-time
//!
//! The Gaussian (magnitude and sign) and the dense ternary are
//! branch-free on both rungs, and their keystream position after
//! coefficient `i` is fixed (`2(i + 1)` words and `i + 1`), so no load
//! address or refill point follows a sampled value. The functions that
//! compute them say so with a `Constant-time:` line, which the analyzer
//! (rule `constant-time`) holds to a body with no branch. Two draws
//! remain data-dependent, neither on a secret:
//!
//! * the uniform draw's time depends on how many candidates are
//!   rejected, which says nothing about the accepted ones; the mask it
//!   draws is public;
//! * sparse ternary (keygen only) places its non-zeros by rejection.

use crate::chacha::{ChaCha20, Kernel};
use abc_math::{CpuCaps, KernelTier, Modulus};

/// Uniform sampler over `[0, q)` using rejection from the next power of
/// two — unbiased, matching the hardware's rejection loop.
///
/// # Example
///
/// ```
/// use abc_prng::{sampler::UniformSampler, Seed};
/// use abc_math::Modulus;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(97)?;
/// let mut s = UniformSampler::new(Seed::from_u128(1), 0);
/// let v = s.sample(&m);
/// assert!(v < 97);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct UniformSampler {
    rng: ChaCha20,
}

impl UniformSampler {
    /// Creates a sampler on its own keystream (`stream` gives domain
    /// separation between polynomials).
    pub fn new(seed: crate::Seed, stream: u64) -> Self {
        Self {
            rng: ChaCha20::from_seed_and_stream(seed, stream),
        }
    }

    /// The same sampler on `tier`'s rung ([`ChaCha20::with_kernel`]);
    /// its output does not depend on it.
    pub fn with_kernel(mut self, tier: KernelTier) -> Self {
        self.rng = self.rng.with_kernel(tier);
        self
    }

    /// One uniform residue in `[0, q)`.
    pub fn sample(&mut self, m: &Modulus) -> u64 {
        let bits = m.bits();
        loop {
            let v = self.rng.next_bits(bits);
            if v < m.q() {
                return v;
            }
        }
    }

    /// Fills `out` with uniform residues.
    pub fn sample_poly(&mut self, m: &Modulus, out: &mut [u64]) {
        let mut done = 0;
        if self.rng.kernel() == Kernel::Avx512 {
            // Whole steps while eight lanes fit in `out`; where the
            // refill has less than a step left, one oracle sample
            // straddles it instead.
            let mask = u64::MAX >> (64 - m.bits());
            while out.len() - done >= 8 {
                let (used, written) =
                    uniform_bulk(self.rng.unread(), mask, m.q(), &mut out[done..]);
                if used == 0 {
                    out[done] = self.sample(m);
                    done += 1;
                }
                self.rng.advance(used);
                done += written;
            }
        }
        for x in &mut out[done..] {
            *x = self.sample(m);
        }
    }
}

/// Ternary sampler: coefficients in `{-1, 0, +1}`.
///
/// `hamming_weight = None` samples i.i.d. with `P(±1) = 1/4` each (dense
/// ternary); `Some(h)` places exactly `h` non-zeros at random positions
/// with random signs (sparse ternary, the usual CKKS secret-key
/// distribution).
#[derive(Debug, Clone)]
pub struct TernarySampler {
    rng: ChaCha20,
}

impl TernarySampler {
    /// Creates a sampler on its own keystream.
    pub fn new(seed: crate::Seed, stream: u64) -> Self {
        Self {
            rng: ChaCha20::from_seed_and_stream(seed, stream),
        }
    }

    /// The same sampler on `tier`'s rung ([`ChaCha20::with_kernel`]);
    /// its output does not depend on it.
    pub fn with_kernel(mut self, tier: KernelTier) -> Self {
        self.rng = self.rng.with_kernel(tier);
        self
    }

    /// Samples a length-`n` ternary polynomial with signed coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `hamming_weight > n`.
    pub fn sample_poly(&mut self, n: usize, hamming_weight: Option<usize>) -> Vec<i8> {
        match hamming_weight {
            None if self.rng.kernel() == Kernel::Avx512 => {
                // One word per coefficient: no draw can straddle.
                let mut out = vec![0i8; n];
                let mut done = 0;
                while done < n {
                    let words = self.rng.unread();
                    let take = words.len().min(n - done);
                    ternary_bulk(&words[..take], &mut out[done..done + take]);
                    self.rng.advance(take);
                    done += take;
                }
                out
            }
            None => (0..n).map(|_| ternary(self.rng.next_u32())).collect(),
            Some(h) => {
                assert!(h <= n, "hamming weight {h} exceeds degree {n}");
                let mut out = vec![0i8; n];
                let mut placed = 0usize;
                while placed < h {
                    let idx = (self.rng.next_u64() % n as u64) as usize;
                    if out[idx] == 0 {
                        out[idx] = if self.rng.next_bits(1) == 1 { 1 } else { -1 };
                        placed += 1;
                    }
                }
                out
            }
        }
    }
}

/// The dense ternary coefficient of one keystream word: its low two
/// bits `v` map to `(2v − 1) & ((v >> 1) − 1)`, that is −1, 1, 0, 0.
///
/// Constant-time: arithmetic only.
fn ternary(w: u32) -> i8 {
    let v = (w & 3) as i8;
    (2 * v - 1) & ((v >> 1) - 1)
}

/// Largest table a [`GaussianSampler`] holds: `⌈6σ⌉ + 1` entries, so
/// σ ≤ 10.5.
const CDT_CAPACITY: usize = 64;

/// Discrete Gaussian sampler with standard deviation `sigma` via a
/// cumulative-distribution table (CDT), tail-cut at `6σ` — the standard
/// error distribution for CKKS (σ ≈ 3.2).
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    rng: ChaCha20,
    /// `cdt[k] = P(|X| <= k)` scaled to 2^63, for k = 0..len; held
    /// inline, since a sampler is built per polynomial.
    cdt: [u64; CDT_CAPACITY],
    len: usize,
}

impl GaussianSampler {
    /// The paper-standard error width for CKKS.
    pub const DEFAULT_SIGMA: f64 = 3.2;

    /// Creates a sampler with the given σ on its own keystream.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive, or is above 10.5 (a
    /// table of more than 64 entries).
    pub fn new(seed: crate::Seed, stream: u64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        let tail = (6.0 * sigma).ceil() as usize;
        assert!(tail < CDT_CAPACITY, "sigma must be at most 10.5");
        let len = tail + 1;
        // rho(k) = exp(-k^2 / (2 sigma^2)); P(X = ±k) ∝ rho(k).
        let mut weights = [0.0f64; CDT_CAPACITY];
        for (k, w) in weights[..len].iter_mut().enumerate() {
            let rho = (-((k * k) as f64) / (2.0 * sigma * sigma)).exp();
            // k = 0 has a single lattice point; ±k have two.
            *w = if k == 0 { rho } else { 2.0 * rho };
        }
        let total: f64 = weights[..len].iter().sum();
        let mut acc = 0.0;
        let mut cdt = [0u64; CDT_CAPACITY];
        for (c, w) in cdt.iter_mut().zip(&weights[..len]) {
            acc += w / total;
            *c = (acc.min(1.0) * (1u64 << 63) as f64) as u64;
        }
        // The table sums to one; a rounded sum short of it would let a
        // `u` above the last threshold count past the tail.
        cdt[tail] = 1 << 63;
        Self {
            rng: ChaCha20::from_seed_and_stream(seed, stream),
            cdt,
            len,
        }
    }

    /// The same sampler on `tier`'s rung ([`ChaCha20::with_kernel`]);
    /// its output does not depend on it.
    pub fn with_kernel(mut self, tier: KernelTier) -> Self {
        self.rng = self.rng.with_kernel(tier);
        self
    }

    /// The table's thresholds, ascending.
    fn cdt(&self) -> &[u64] {
        &self.cdt[..self.len]
    }

    /// One signed sample from one keystream `u64` `w`: the magnitude
    /// `k` counts the thresholds `≤ w >> 1` (63 bits) and the result is
    /// `+k` if `w & 1` is set, else `−k`.
    ///
    /// Constant-time: the count runs over the whole table — the sorted
    /// table's partition point, the same `k` as a binary search without a
    /// search path — and the sign is applied by arithmetic.
    pub fn sample(&mut self) -> i64 {
        let w = self.rng.next_u64();
        let k = magnitude(self.cdt(), w >> 1) as i64;
        let flip = (w & 1) as i64 - 1; // 0 keeps `k`, −1 negates it
        (k ^ flip) - flip
    }

    /// Samples a length-`n` error polynomial.
    pub fn sample_poly(&mut self, n: usize) -> Vec<i64> {
        if self.rng.kernel() != Kernel::Avx512 {
            return (0..n).map(|_| self.sample()).collect();
        }
        // Two words per coefficient: the cursor stays even, so a refill
        // always holds whole samples.
        let cdt = &self.cdt[..self.len];
        let mut out = vec![0i64; n];
        let mut done = 0;
        while done < n {
            let words = self.rng.unread();
            let take = (words.len() / 2).min(n - done);
            gaussian_bulk(cdt, &words[..2 * take], &mut out[done..done + take]);
            self.rng.advance(2 * take);
            done += take;
        }
        out
    }
}

/// How many thresholds of `cdt` are `≤ u`: `c ≤ u` is the sign bit of
/// `c − (u + 1)`, which cannot wrap since `u < 2^63` and `c ≤ 2^63`.
///
/// Constant-time: a sum over the whole table, with no branch on `u`.
fn magnitude(cdt: &[u64], u: u64) -> u64 {
    cdt.iter().map(|&c| c.wrapping_sub(u + 1) >> 63).sum()
}

/// Gaussian samples of `words`, two each (as [`ChaCha20::next_u64`]
/// joins them), into `out`: the scalar [`GaussianSampler::sample`],
/// eight lanes at a time.
fn gaussian_bulk(cdt: &[u64], words: &[u32], out: &mut [i64]) {
    assert_eq!(words.len(), 2 * out.len(), "two words per coefficient");
    // Only the `avx512` rung calls this, so the assert never fires; a
    // `target_feature` call on an unsupported CPU would be UB (the
    // keystream kernel's contract).
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the asserts above prove AVX-512F and the lengths the
        // kernel requires.
        unsafe { kern::gaussian_x8(cdt, words, out) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cdt, words, out);
        unreachable!("the avx512 rung requires x86_64");
    }
}

/// Eight-lane uniform steps over `words` into `out` while a whole step
/// of words is left and eight lanes fit in `out`; returns (words read,
/// residues written), no words read only if `words` is short of a step
/// (8 words at `mask < 2^32`, else 16).
fn uniform_bulk(words: &[u32], mask: u64, q: u64, out: &mut [u64]) -> (usize, usize) {
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the assert above proves AVX-512F, the kernel's one
        // precondition.
        unsafe {
            if mask >> 32 == 0 {
                kern::uniform_x8::<false>(words, mask, q, out)
            } else {
                kern::uniform_x8::<true>(words, mask, q, out)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (words, mask, q, out);
        unreachable!("the avx512 rung requires x86_64");
    }
}

/// Dense ternary coefficients of `words`, one each, into `out` (of the
/// same length).
fn ternary_bulk(words: &[u32], out: &mut [i8]) {
    assert_eq!(words.len(), out.len(), "one word per coefficient");
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the asserts above prove AVX-512F and the equal
        // lengths the kernel requires.
        unsafe { kern::ternary_x16(words, out) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (words, out);
        unreachable!("the avx512 rung requires x86_64");
    }
}

#[cfg(target_arch = "x86_64")]
mod kern {
    use core::arch::x86_64::*;

    /// The mask of the first `len` lanes, `1 ≤ len ≤ 16`.
    fn lanes(len: usize) -> u16 {
        (u32::from(u16::MAX) >> (16 - len)) as u16
    }

    /// [`super::uniform_bulk`]: eight candidates per step, one word each
    /// (`WIDE = false`, `bits ≤ 32`) or two (`WIDE`, joined low word
    /// first, as [`super::ChaCha20::next_u64`] joins them).
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn uniform_x8<const WIDE: bool>(
        words: &[u32],
        mask: u64,
        q: u64,
        out: &mut [u64],
    ) -> (usize, usize) {
        let step = if WIDE { 16 } else { 8 };
        let (vmask, vq) = (_mm512_set1_epi64(mask as i64), _mm512_set1_epi64(q as i64));
        let (mut used, mut written) = (0, 0);
        while used + step <= words.len() && out.len() - written >= 8 {
            let src = words[used..used + step].as_ptr();
            // SAFETY: `src` has `step` words: 16 for the 512-bit load,
            // 8 for the 256-bit one.
            let x = unsafe {
                if WIDE {
                    _mm512_loadu_si512(src as *const __m512i)
                } else {
                    _mm512_cvtepu32_epi64(_mm256_loadu_si256(src as *const __m256i))
                }
            };
            let x = _mm512_and_si512(x, vmask);
            let keep = _mm512_cmplt_epu64_mask(x, vq);
            // The accepted lanes, in order, at the front; all eight
            // stored, the rejected tail overwritten by the next step or
            // the caller's oracle draws.
            let packed = _mm512_maskz_compress_epi64(keep, x);
            // SAFETY: `out[written..]` has at least 8 words (loop test).
            unsafe {
                _mm512_storeu_si512(out[written..].as_mut_ptr() as *mut __m512i, packed);
            }
            used += step;
            written += keep.count_ones() as usize;
        }
        (used, written)
    }

    /// [`super::gaussian_bulk`]: sixteen words as eight `u64` lanes, the
    /// tail masked; `k` counts the thresholds `≤ w >> 1` and is negated
    /// where `w & 1` is clear.
    ///
    /// Constant-time: every lane counts over the whole table and the
    /// sign is a masked subtract.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F and `words.len() == 2 * out.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gaussian_x8(cdt: &[u64], words: &[u32], out: &mut [i64]) {
        let (zero, one, minus_one) = (
            _mm512_setzero_si512(),
            _mm512_set1_epi64(1),
            _mm512_set1_epi64(-1),
        );
        for (w, o) in words.chunks(16).zip(out.chunks_mut(8)) {
            let live = lanes(o.len()) as __mmask8;
            // SAFETY: the masked load reads the `w.len()` words of `w`.
            let x = unsafe { _mm512_maskz_loadu_epi32(lanes(w.len()), w.as_ptr() as *const i32) };
            let u = _mm512_srli_epi64(x, 1);
            let mut k = zero;
            for &c in cdt {
                let le = _mm512_cmple_epu64_mask(_mm512_set1_epi64(c as i64), u);
                k = _mm512_mask_sub_epi64(k, le, k, minus_one);
            }
            let negative = _mm512_testn_epi64_mask(x, one); // `w & 1` clear
            let signed = _mm512_mask_sub_epi64(k, negative, zero, k);
            // SAFETY: as the load: `o`'s `o.len()` lanes only.
            unsafe { _mm512_mask_storeu_epi64(o.as_mut_ptr(), live, signed) };
        }
    }

    /// [`super::ternary_bulk`], sixteen words at a time, the tail masked:
    /// `v = w & 3` maps to `(2v − 1) & ((v >> 1) − 1)`, that is −1, 1, 0,
    /// 0 — the oracle's [`super::ternary`].
    ///
    /// Constant-time: arithmetic over every lane, the tail masked.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F and `words.len() == out.len()`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn ternary_x16(words: &[u32], out: &mut [i8]) {
        let (three, one) = (_mm512_set1_epi32(3), _mm512_set1_epi32(1));
        for (w, o) in words.chunks(16).zip(out.chunks_mut(16)) {
            let live = lanes(w.len());
            // SAFETY: the masked load reads the `w.len()` words of `w`.
            let v = unsafe { _mm512_maskz_loadu_epi32(live, w.as_ptr() as *const i32) };
            let v = _mm512_and_si512(v, three);
            let odd = _mm512_sub_epi32(_mm512_add_epi32(v, v), one);
            let keep = _mm512_sub_epi32(_mm512_srli_epi32(v, 1), one);
            let t = _mm512_and_si512(odd, keep);
            // SAFETY: as the load: `o`'s `w.len()` bytes only.
            unsafe { _mm512_mask_cvtepi32_storeu_epi8(o.as_mut_ptr(), live, t) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;

    fn modulus() -> Modulus {
        Modulus::new(0xF_FFF0_0001).unwrap()
    }

    #[test]
    fn uniform_in_range_and_deterministic() {
        let m = modulus();
        let mut a = UniformSampler::new(Seed::from_u128(1), 0);
        let mut b = UniformSampler::new(Seed::from_u128(1), 0);
        for _ in 0..1000 {
            let x = a.sample(&m);
            assert!(x < m.q());
            assert_eq!(x, b.sample(&m));
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let m = Modulus::new(97).unwrap();
        let mut s = UniformSampler::new(Seed::from_u128(2), 0);
        let n = 20_000;
        let mut sum = 0u64;
        for _ in 0..n {
            sum += s.sample(&m);
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 48.0).abs() < 2.0, "mean = {mean}");
    }

    #[test]
    fn ternary_dense_distribution() {
        let mut s = TernarySampler::new(Seed::from_u128(3), 0);
        let poly = s.sample_poly(40_000, None);
        let minus: usize = poly.iter().filter(|&&x| x == -1).count();
        let plus: usize = poly.iter().filter(|&&x| x == 1).count();
        let zero: usize = poly.iter().filter(|&&x| x == 0).count();
        assert_eq!(minus + plus + zero, 40_000);
        // P(±1) = 1/4 each, P(0) = 1/2.
        assert!((minus as f64 / 40_000.0 - 0.25).abs() < 0.02);
        assert!((plus as f64 / 40_000.0 - 0.25).abs() < 0.02);
        assert!((zero as f64 / 40_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ternary_sparse_exact_weight() {
        let mut s = TernarySampler::new(Seed::from_u128(4), 0);
        let poly = s.sample_poly(1024, Some(64));
        let nonzero = poly.iter().filter(|&&x| x != 0).count();
        assert_eq!(nonzero, 64);
        assert!(poly.iter().all(|&x| (-1..=1).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "hamming weight")]
    fn ternary_rejects_excess_weight() {
        TernarySampler::new(Seed::default(), 0).sample_poly(4, Some(5));
    }

    #[test]
    fn gaussian_moments() {
        let mut s = GaussianSampler::new(Seed::from_u128(5), 0, 3.2);
        let n = 50_000;
        let samples = s.sample_poly(n);
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.1, "mean = {mean}");
        assert!((var.sqrt() - 3.2).abs() < 0.15, "std = {}", var.sqrt());
        // Tail cut: nothing beyond 6σ.
        assert!(samples.iter().all(|&x| x.abs() <= 20));
    }

    #[test]
    fn gaussian_reads_two_words_per_coefficient_on_both_rungs() {
        // After `sample_poly(n)` the generator is `2n` words in, and a
        // polynomial split where the first part ends mid-refill (400 of
        // 256-word refills) is the same polynomial.
        for tier in [KernelTier::Scalar, KernelTier::Simd] {
            let sampler = || GaussianSampler::new(Seed::from_u128(9), 4, 3.2).with_kernel(tier);
            for n in [0, 1, 7, 127, 128, 129, 200, 533] {
                let mut s = sampler();
                s.sample_poly(n);
                let mut rng = ChaCha20::from_seed_and_stream(Seed::from_u128(9), 4);
                for _ in 0..2 * n {
                    rng.next_u32();
                }
                assert_eq!(s.rng.next_u64(), rng.next_u64(), "n = {n} on {tier:?}");
            }
            let mut split = sampler();
            let mut parts = split.sample_poly(200);
            parts.extend(split.sample_poly(333));
            assert_eq!(parts, sampler().sample_poly(533), "{tier:?}");
        }
    }

    #[test]
    fn gaussian_fits_its_table() {
        // χ² of 2^20 samples at σ = 3.2 against the table's own bin
        // probabilities: k = −12 … 12 and both tails beyond |k| = 12 as
        // one bin, 25 degrees of freedom; 52.6 is the 0.1 % critical
        // value. Then the signs of the non-zero samples, within 4σ of
        // balanced.
        let n = 1 << 20;
        let mut s = GaussianSampler::new(Seed::from_u128(13), 0, 3.2);
        let samples = s.sample_poly(n);
        let cdt = s.cdt();
        let scale = (1u64 << 63) as f64;
        let p_abs = |k: usize| (cdt[k] - if k == 0 { 0 } else { cdt[k - 1] }) as f64 / scale;
        let mut observed = [0u64; 26];
        for &x in &samples {
            observed[if x.abs() > 12 { 25 } else { (x + 12) as usize }] += 1;
        }
        let expected = |bin: usize| match bin {
            25 => 1.0 - cdt[12] as f64 / scale,
            12 => p_abs(0),
            _ => p_abs(bin.abs_diff(12)) / 2.0,
        };
        let chi2: f64 = (0..26)
            .map(|bin| {
                let e = expected(bin) * n as f64;
                (observed[bin] as f64 - e).powi(2) / e
            })
            .sum();
        assert!(chi2 < 52.6, "chi2 = {chi2}, bins {observed:?}");
        let plus = samples.iter().filter(|&&x| x > 0).count() as f64;
        let minus = samples.iter().filter(|&&x| x < 0).count() as f64;
        let z = (plus - minus) / (plus + minus).sqrt();
        assert!(z.abs() < 4.0, "z = {z}: {plus} positive, {minus} negative");
    }

    /// FNV-1a over a polynomial's coefficients.
    fn fnv(xs: impl IntoIterator<Item = u64>) -> u64 {
        xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn the_full_table_count_is_the_partition_point() {
        // At, just below and just above every threshold, and at the ends
        // of the 63-bit range (the last thresholds saturate at 2^63).
        for sigma in [1.0, 3.2, 7.9] {
            let sampler = GaussianSampler::new(Seed::default(), 0, sigma);
            let cdt = sampler.cdt();
            let edges = cdt.iter().flat_map(|&c| [c.saturating_sub(1), c, c + 1]);
            for u in edges.chain([0, (1 << 63) - 1]).filter(|&u| u < 1 << 63) {
                let want = cdt.partition_point(|&c| c <= u) as u64;
                assert_eq!(magnitude(cdt, u), want, "sigma={sigma} u={u:#x}");
            }
        }
    }

    #[test]
    fn no_sample_lies_past_the_tail() {
        // At σ = 3.2 and 10.5 the rounded running sum ends 2048 and 1024
        // short of 2^63; the largest 63-bit `u` must still count to the
        // tail, ⌈6σ⌉, and no further.
        for sigma in [1.0, 3.2, 7.9, 10.5] {
            let sampler = GaussianSampler::new(Seed::default(), 0, sigma);
            let tail = (6.0 * sigma).ceil() as u64;
            assert_eq!(
                magnitude(sampler.cdt(), (1 << 63) - 1),
                tail,
                "sigma={sigma}"
            );
        }
    }

    #[test]
    fn samplers_equal_the_parents_at_2_16() {
        // Hashes captured from the samplers before the 16-block keystream
        // and the full-table CDT count: same seed, same polynomial. The
        // Gaussian's was re-captured on the scalar rung when it took one
        // `u64` per coefficient.
        let n = 1 << 16;
        let gauss = GaussianSampler::new(Seed::from_u128(5), 0, 3.2).sample_poly(n);
        assert_eq!(fnv(gauss.iter().map(|&x| x as u64)), 0xbcfa_a146_86e4_b54e);
        let ternary = TernarySampler::new(Seed::from_u128(6), 0).sample_poly(n, None);
        assert_eq!(
            fnv(ternary.iter().map(|&x| x as u64)),
            0x9e6e_789c_ecea_ad79
        );
        let mut uniform = vec![0u64; n];
        UniformSampler::new(Seed::from_u128(7), 3).sample_poly(&modulus(), &mut uniform);
        assert_eq!(fnv(uniform), 0xa821_a1a2_0270_735a);
    }

    #[test]
    fn uniform_equals_the_parents_under_heavy_rejection() {
        // Hashes captured from the per-coefficient sampler before the
        // vector rung, at moduli just above 2^35 and 2^29: about half
        // of all candidates rejected, two words per candidate and one.
        for (q, want) in [
            (0x8_0000_0001, 0xcff2_7b03_6453_e29d),
            ((1 << 29) + 1, 0x6a4f_9db2_a121_84eb),
        ] {
            let mut uniform = vec![0u64; 1 << 16];
            let m = Modulus::new(q).unwrap();
            UniformSampler::new(Seed::from_u128(12), 5).sample_poly(&m, &mut uniform);
            assert_eq!(fnv(uniform), want, "q = {q:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn gaussian_rejects_wide_sigma() {
        GaussianSampler::new(Seed::default(), 0, 10.6);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn gaussian_rejects_bad_sigma() {
        GaussianSampler::new(Seed::default(), 0, -1.0);
    }

    #[test]
    fn streams_are_independent() {
        let seed = Seed::from_u128(6);
        let m = modulus();
        let mut a = UniformSampler::new(seed, 0);
        let mut b = UniformSampler::new(seed, 1);
        let va: Vec<u64> = (0..16).map(|_| a.sample(&m)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.sample(&m)).collect();
        assert_ne!(va, vb);
    }
}
