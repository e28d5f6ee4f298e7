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
//! * **Gaussian** — a sequential first pass records each sample's 63-bit
//!   `u` and its sign bit and moves the cursor by `2 + (u ≥ cdt[0])`
//!   words, as arithmetic; then an eight-lane count of the thresholds
//!   `≤ u`;
//! * **dense ternary** — one word per coefficient, mapped to
//!   `{-1, 0, +1}` by arithmetic, sixteen at a time.
//!
//! Both rungs consume the keystream in the same order: a sample that
//! would straddle a refill is drawn by the oracle, so every output bit
//! and the generator's position after the call are the same on both.
//!
//! # What is constant-time
//!
//! * The Gaussian magnitude is a branch-free count over the whole table
//!   on both rungs.
//! * The Gaussian's keystream position is not: a non-zero sample takes a
//!   third word for its sign. The oracle branches on it; the vector
//!   rung's first pass advances by arithmetic, but its next load address,
//!   and where the refill falls, still follow the sampled value. Only a
//!   fixed-rate layout (one word pair per coefficient) removes that, and
//!   it moves every `output_hash`.
//! * Dense ternary on the vector rung has no branch and no address that
//!   depends on a coefficient; the oracle's `match` may compile to one.
//!   Sparse ternary (keygen only) places its non-zeros by rejection.
//! * The uniform draw's time depends on how many candidates are
//!   rejected, which says nothing about the accepted ones; the mask it
//!   draws is public.

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
            None => (0..n)
                .map(|_| match self.rng.next_bits(2) {
                    0 => -1i8,
                    1 => 1,
                    _ => 0,
                })
                .collect(),
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
    sigma: f64,
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
        Self {
            rng: ChaCha20::from_seed_and_stream(seed, stream),
            cdt,
            len,
            sigma,
        }
    }

    /// The same sampler on `tier`'s rung ([`ChaCha20::with_kernel`]);
    /// its output does not depend on it.
    pub fn with_kernel(mut self, tier: KernelTier) -> Self {
        self.rng = self.rng.with_kernel(tier);
        self
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The table's thresholds, ascending.
    fn cdt(&self) -> &[u64] {
        &self.cdt[..self.len]
    }

    /// One signed sample.
    ///
    /// The magnitude is a branch-free count of the thresholds `≤ u` over
    /// the whole table — the sorted table's partition point, so the
    /// same `k` as a binary search, without a search path that depends
    /// on the secret `u`. The sign is still a conditional draw (none for
    /// `k = 0`): that is the timing channel left, and removing it moves
    /// the keystream position of every later sample, so it waits for
    /// the change that is allowed to move `output_hash`.
    pub fn sample(&mut self) -> i64 {
        let u = self.rng.next_u64() >> 1; // 63 random bits
        let k = magnitude(self.cdt(), u) as i64;
        if k == 0 {
            0
        } else if self.rng.next_bits(1) == 1 {
            k
        } else {
            -k
        }
    }

    /// Samples a length-`n` error polynomial.
    pub fn sample_poly(&mut self, n: usize) -> Vec<i64> {
        if self.rng.kernel() != Kernel::Avx512 {
            return (0..n).map(|_| self.sample()).collect();
        }
        let mut out = vec![0i64; n];
        let mut done = 0;
        while done < n {
            let words = self.rng.unread();
            let (used, drawn) = gaussian_words(words, self.cdt[0], &mut out[done..]);
            self.rng.advance(used);
            gaussian_count(self.cdt(), &mut out[done..done + drawn]);
            done += drawn;
            // The refill's last words, too few for a sample of three.
            if done < n {
                out[done] = self.sample();
                done += 1;
            }
        }
        out
    }
}

/// How many thresholds of `cdt` are `≤ u`, with no branch on `u`:
/// `c ≤ u` is the sign bit of `c − (u + 1)`, which cannot wrap since
/// `u < 2^63` and `c ≤ 2^63`.
fn magnitude(cdt: &[u64], u: u64) -> u64 {
    cdt.iter().map(|&c| c.wrapping_sub(u + 1) >> 63).sum()
}

/// The Gaussian's first pass: from the front of `words`, each sample's
/// 63-bit `u` (words `c`, `c + 1`, as [`ChaCha20::next_u64`] joins them,
/// shifted right by one) with the low bit of word `c + 2` in bit 63 —
/// its sign draw if `u ≥ cdt0`, an unused word otherwise. The cursor
/// moves by `2 + (u ≥ cdt0)`, by arithmetic. Stops before a sample
/// whose three words are not all in `words`, or when `out` is full;
/// returns (words read, samples written).
fn gaussian_words(words: &[u32], cdt0: u64, out: &mut [i64]) -> (usize, usize) {
    let (mut c, mut i) = (0, 0);
    while i < out.len() && c + 3 <= words.len() {
        let u = (words[c] as u64 | (words[c + 1] as u64) << 32) >> 1;
        let sign = (words[c + 2] as u64 & 1) << 63;
        out[i] = (u | sign) as i64;
        c += 2 + (u >= cdt0) as usize;
        i += 1;
    }
    (c, i)
}

/// Replaces each first-pass word of `xs` ([`gaussian_words`]) by its
/// signed sample: `+k` if the sign bit is set, else `−k`, `k` the count
/// of thresholds `≤ u`.
fn gaussian_count(cdt: &[u64], xs: &mut [i64]) {
    // Only the `avx512` rung calls this, so the assert never fires; a
    // `target_feature` call on an unsupported CPU would be UB (the
    // keystream kernel's contract).
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the assert above proves AVX-512F, the kernel's one
        // precondition.
        unsafe { kern::count_x8(cdt, xs) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cdt, xs);
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

    /// [`super::gaussian_count`], eight lanes at a time, the tail masked.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn count_x8(cdt: &[u64], xs: &mut [i64]) {
        let low63 = _mm512_set1_epi64(i64::MAX);
        let (zero, minus_one) = (_mm512_setzero_si512(), _mm512_set1_epi64(-1));
        for chunk in xs.chunks_mut(8) {
            let live = lanes(chunk.len()) as __mmask8;
            // SAFETY: the masked load reads the chunk's `chunk.len()`
            // lanes only.
            let x = unsafe { _mm512_maskz_loadu_epi64(live, chunk.as_ptr()) };
            let u = _mm512_and_si512(x, low63);
            let mut k = zero;
            for &c in cdt {
                let le = _mm512_cmple_epu64_mask(_mm512_set1_epi64(c as i64), u);
                k = _mm512_mask_sub_epi64(k, le, k, minus_one);
            }
            let negative = _mm512_cmpge_epi64_mask(x, zero); // sign bit clear
            let signed = _mm512_mask_sub_epi64(k, negative, zero, k);
            // SAFETY: as the load: the chunk's live lanes only.
            unsafe { _mm512_mask_storeu_epi64(chunk.as_mut_ptr(), live, signed) };
        }
    }

    /// [`super::ternary_bulk`], sixteen words at a time, the tail masked:
    /// `v = w & 3` maps to `(2v − 1) & ((v >> 1) − 1)`, that is −1, 1, 0,
    /// 0 — the oracle's `match`.
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
    fn samplers_equal_the_parents_at_2_16() {
        // Hashes captured from the samplers before the 16-block keystream
        // and the full-table CDT count: same seed, same polynomial.
        let n = 1 << 16;
        let gauss = GaussianSampler::new(Seed::from_u128(5), 0, 3.2).sample_poly(n);
        assert_eq!(fnv(gauss.iter().map(|&x| x as u64)), 0xc353_0015_d01f_d57d);
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
