//! On-chip pseudo-random generation for the ABC-FHE reproduction.
//!
//! The accelerator stores only a 128-bit seed on-chip and derives every
//! mask, error and key polynomial from it (paper §IV-B), eliminating
//! 8.25 MB of external-memory traffic per ciphertext. This crate models
//! that path with a from-scratch [ChaCha20](chacha::ChaCha20) stream
//! cipher (RFC 8439 core) and the three samplers RNS-CKKS needs:
//!
//! * [`sampler::UniformSampler`] — rejection-sampled uniform residues for
//!   the public mask `a`,
//! * [`sampler::TernarySampler`] — sparse/dense ternary secrets,
//! * [`sampler::GaussianSampler`] — discrete Gaussian errors (σ ≈ 3.2)
//!   via a cumulative-distribution table.
//!
//! # Example
//!
//! ```
//! use abc_prng::{chacha::ChaCha20, Seed};
//!
//! let mut a = ChaCha20::from_seed(Seed::from_u128(42));
//! let mut b = ChaCha20::from_seed(Seed::from_u128(42));
//! assert_eq!(a.next_u64(), b.next_u64()); // deterministic
//! ```

pub mod chacha;
pub mod sampler;

/// A 128-bit PRNG seed — the only random state the accelerator keeps
/// on-chip (matching the paper's 128-bit security target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Seed(pub [u8; 16]);

impl Seed {
    /// Builds a seed from a `u128` (little-endian bytes).
    pub fn from_u128(x: u128) -> Self {
        Self(x.to_le_bytes())
    }

    /// Derives a sub-seed for an independent stream (domain separation),
    /// so mask/error/key generators never share a keystream.
    pub fn derive(&self, domain: u64) -> Self {
        let mut rng = chacha::ChaCha20::from_seed_and_stream(*self, domain ^ 0x5EED_D0E5_1234_5678);
        let lo = rng.next_u64() as u128;
        let hi = rng.next_u64() as u128;
        Self::from_u128(lo | (hi << 64))
    }

    /// The low 64 bits of the seed (little-endian) — a direct `u64` draw
    /// from a derived seed, with no fallible slice conversion.
    pub fn low64(&self) -> u64 {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low64_matches_the_le_byte_layout() {
        let seed = Seed::from_u128(0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00);
        assert_eq!(seed.low64(), 0x99AA_BBCC_DDEE_FF00);
        let derived = seed.derive(7);
        assert_eq!(
            derived.low64(),
            u64::from_le_bytes(derived.0[..8].try_into().unwrap())
        );
    }
}
