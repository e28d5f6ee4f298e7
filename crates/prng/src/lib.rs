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
    /// so mask/error/key generators never share a keystream: the first
    /// four words of block 0 of stream `domain ^ 0x5EED_D0E5_1234_5678`
    /// (one block, not a generator's refill).
    pub fn derive(&self, domain: u64) -> Self {
        let (key, nonce) = chacha::key_and_nonce(*self, domain ^ 0x5EED_D0E5_1234_5678);
        let block = chacha::chacha20_block(&key, 0, &nonce);
        let mut bytes = [0u8; 16];
        for (dst, w) in bytes.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
        Self(bytes)
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

    #[test]
    fn derive_equals_the_parents() {
        // Captured from the generator-backed `derive` this one replaced
        // (two `next_u64` of a fresh stream): every derived seed, and so
        // every key, mask and error, is where it was.
        for (seed, domain, want) in [
            (0u128, 0u64, 0x921599baf848f65cbf5952784bf99738u128),
            (9, 1, 0x3d1d862743ad0f4d3860bf00c60e0d10),
            (
                0xDEAD_BEEF_CAFE_F00D,
                0x5EED,
                0x027d8507cec33de6352e0f976380026f,
            ),
            (u128::MAX, u64::MAX, 0x43faf6d3fd4c9f98b9c4925e92ee396a),
        ] {
            let got = Seed::from_u128(seed).derive(domain);
            assert_eq!(got, Seed::from_u128(want), "{seed:#x} / {domain:#x}");
        }
    }
}
