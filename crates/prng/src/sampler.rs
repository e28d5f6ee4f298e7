//! Lattice-crypto samplers driven by the on-chip PRNG.
//!
//! Encryption needs three random polynomials per ciphertext (paper
//! Fig. 2a): a uniform mask, a ternary ephemeral secret, and small
//! Gaussian errors. All three are derived deterministically from a
//! [`Seed`](crate::Seed).

use crate::chacha::ChaCha20;
use abc_math::Modulus;

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
        for x in out.iter_mut() {
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

    /// Samples a length-`n` ternary polynomial with signed coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `hamming_weight > n`.
    pub fn sample_poly(&mut self, n: usize, hamming_weight: Option<usize>) -> Vec<i8> {
        match hamming_weight {
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

/// Discrete Gaussian sampler with standard deviation `sigma` via a
/// cumulative-distribution table (CDT), tail-cut at `6σ` — the standard
/// error distribution for CKKS (σ ≈ 3.2).
#[derive(Debug, Clone)]
pub struct GaussianSampler {
    rng: ChaCha20,
    /// `cdt[k] = P(|X| <= k)` scaled to 2^63, for k = 0..tail.
    cdt: Vec<u64>,
    sigma: f64,
}

impl GaussianSampler {
    /// The paper-standard error width for CKKS.
    pub const DEFAULT_SIGMA: f64 = 3.2;

    /// Creates a sampler with the given σ on its own keystream.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn new(seed: crate::Seed, stream: u64, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        let tail = (6.0 * sigma).ceil() as i64;
        // rho(k) = exp(-k^2 / (2 sigma^2)); P(X = ±k) ∝ rho(k).
        let mut weights = Vec::with_capacity(tail as usize + 1);
        for k in 0..=tail {
            let w = (-((k * k) as f64) / (2.0 * sigma * sigma)).exp();
            // k = 0 has a single lattice point; ±k have two.
            weights.push(if k == 0 { w } else { 2.0 * w });
        }
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdt = weights
            .iter()
            .map(|w| {
                acc += w / total;
                (acc.min(1.0) * (1u64 << 63) as f64) as u64
            })
            .collect();
        Self {
            rng: ChaCha20::from_seed_and_stream(seed, stream),
            cdt,
            sigma,
        }
    }

    /// The configured standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
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
        let k = magnitude(&self.cdt, u) as i64;
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
        (0..n).map(|_| self.sample()).collect()
    }
}

/// How many thresholds of `cdt` are `≤ u`, with no branch on `u`:
/// `c ≤ u` is the sign bit of `c − (u + 1)`, which cannot wrap since
/// `u < 2^63` and `c ≤ 2^63`.
fn magnitude(cdt: &[u64], u: u64) -> u64 {
    cdt.iter().map(|&c| c.wrapping_sub(u + 1) >> 63).sum()
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
            let cdt = GaussianSampler::new(Seed::default(), 0, sigma).cdt;
            let edges = cdt.iter().flat_map(|&c| [c.saturating_sub(1), c, c + 1]);
            for u in edges.chain([0, (1 << 63) - 1]).filter(|&u| u < 1 << 63) {
                let want = cdt.partition_point(|&c| c <= u) as u64;
                assert_eq!(magnitude(&cdt, u), want, "sigma={sigma} u={u:#x}");
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
