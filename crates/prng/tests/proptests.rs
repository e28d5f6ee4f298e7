//! Property-based tests for the PRNG layer.

use abc_math::{CpuCaps, KernelTier, Modulus};
use abc_prng::chacha::{chacha20_block, chacha20_blocks, ChaCha20, BLOCKS};
use abc_prng::sampler::{GaussianSampler, TernarySampler, UniformSampler};
use abc_prng::Seed;
use proptest::prelude::*;

/// A 256-bit key and 96-bit nonce from three draws.
fn key_nonce(k0: u128, k1: u128, nonce: u128) -> ([u32; 8], [u32; 3]) {
    let words = |x: u128| [0, 32, 64, 96].map(|s| (x >> s) as u32);
    let (lo, hi, n) = (words(k0), words(k1), words(nonce));
    (
        [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]],
        [n[0], n[1], n[2]],
    )
}

/// A counter anywhere, or within 16 of `u32::MAX` so a refill wraps.
fn counter(near_wrap: bool, raw: u32) -> u32 {
    if near_wrap {
        u32::MAX - raw % 16
    } else {
        raw
    }
}

/// Draws from `rng` in the order `ops` (a splitmix64 state) dictates —
/// words, double words, bit fields and byte runs that straddle refills —
/// and returns everything drawn, as bytes.
fn interleaved_draws(rng: &mut ChaCha20, mut ops: u64) -> Vec<u8> {
    let mut next = || {
        ops = ops.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (ops ^ (ops >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::new();
    for _ in 0..64 {
        let pick = next();
        match pick % 4 {
            0 => out.extend(rng.next_u32().to_le_bytes()),
            1 => out.extend(rng.next_u64().to_le_bytes()),
            2 => out.extend(rng.next_bits((pick >> 8) as u32 % 64 + 1).to_le_bytes()),
            _ => {
                // Up to 1.5 refills of bytes, odd lengths included.
                let mut bytes = vec![0u8; (pick >> 8) as usize % 1536];
                rng.fill_bytes(&mut bytes);
                out.extend(bytes);
            }
        }
    }
    out
}

/// An odd modulus of `bits` bits (2 … 62): just above `2^(bits − 1)`
/// when `heavy`, so about half of all candidates are rejected, else
/// anywhere in the width.
fn modulus(bits: u32, heavy: bool, raw: u64) -> Modulus {
    let (lo, hi) = ((1u64 << (bits - 1)) + 1, (1u64 << bits) - 1);
    let odd_steps = (hi - lo) / 2 + 1;
    let span = if heavy { odd_steps.min(32) } else { odd_steps };
    Modulus::new(lo + 2 * (raw % span)).expect("odd q >= 3")
}

proptest! {
    #[test]
    fn uniform_rungs_are_bit_identical(
        seed in any::<u128>(),
        bits in 2u32..=62,
        heavy in any::<bool>(),
        raw in any::<u64>(),
        skip in 0usize..40,
        len in 0usize..=600,
    ) {
        // `skip` oracle draws first put the first step anywhere in the
        // refill; the draws after the polynomial check the position.
        let m = modulus(bits, heavy, raw);
        let draw = |tier| {
            let mut s = UniformSampler::new(Seed::from_u128(seed), 1).with_kernel(tier);
            let head: Vec<u64> = (0..skip).map(|_| s.sample(&m)).collect();
            let mut poly = vec![0u64; len];
            s.sample_poly(&m, &mut poly);
            let tail: Vec<u64> = (0..3).map(|_| s.sample(&m)).collect();
            (head, poly, tail)
        };
        let (scalar, simd) = (draw(KernelTier::Scalar), draw(KernelTier::Simd));
        prop_assert!(scalar.1.iter().all(|&x| x < m.q()));
        prop_assert_eq!(simd, scalar, "q = {:#x}", m.q());
    }

    #[test]
    fn gaussian_rungs_are_bit_identical(
        seed in any::<u128>(),
        which in 0usize..3,
        skip in 0usize..40,
        len in 0usize..=600,
    ) {
        let sigma = [1.0, 3.2, 7.9][which];
        let draw = |tier| {
            let mut s = GaussianSampler::new(Seed::from_u128(seed), 2, sigma).with_kernel(tier);
            let head: Vec<i64> = (0..skip).map(|_| s.sample()).collect();
            let poly = s.sample_poly(len);
            let tail: Vec<i64> = (0..3).map(|_| s.sample()).collect();
            (head, poly, tail)
        };
        prop_assert_eq!(draw(KernelTier::Simd), draw(KernelTier::Scalar), "sigma = {}", sigma);
    }

    #[test]
    fn dense_ternary_rungs_are_bit_identical(
        seed in any::<u128>(),
        skip in 0usize..40,
        len in 0usize..=600,
    ) {
        let draw = |tier| {
            let mut s = TernarySampler::new(Seed::from_u128(seed), 3).with_kernel(tier);
            let head = s.sample_poly(skip, None);
            let poly = s.sample_poly(len, None);
            let tail = s.sample_poly(3, Some(2));
            (head, poly, tail)
        };
        prop_assert_eq!(draw(KernelTier::Simd), draw(KernelTier::Scalar));
    }

    #[test]
    fn sixteen_block_kernel_equals_sixteen_scalar_blocks(
        k0 in any::<u128>(),
        k1 in any::<u128>(),
        nonce in any::<u128>(),
        near_wrap in any::<bool>(),
        raw in any::<u32>(),
    ) {
        if !CpuCaps::detect().avx512f {
            return Ok(()); // the oracle is all this host runs
        }
        let (key, nonce) = key_nonce(k0, k1, nonce);
        let counter = counter(near_wrap, raw);
        let mut got = [0u32; 16 * BLOCKS];
        chacha20_blocks(&key, counter, &nonce, &mut got);
        for (b, block) in got.chunks_exact(16).enumerate() {
            let want = chacha20_block(&key, counter.wrapping_add(b as u32), &nonce);
            prop_assert_eq!(block, &want[..], "block {} of counter {:#x}", b, counter);
        }
    }

    #[test]
    fn keystream_is_equal_across_forced_tiers(
        k0 in any::<u128>(),
        nonce in any::<u128>(),
        near_wrap in any::<bool>(),
        raw in any::<u32>(),
        ops in any::<u64>(),
    ) {
        let (key, nonce) = key_nonce(k0, k0.rotate_left(64), nonce);
        let counter = counter(near_wrap, raw);
        let draws = |tier| {
            let mut rng = ChaCha20::from_raw_parts(key, nonce, counter).with_kernel(tier);
            interleaved_draws(&mut rng, ops)
        };
        let scalar = draws(KernelTier::Scalar);
        prop_assert_eq!(draws(KernelTier::Simd), scalar.clone());
        prop_assert_eq!(draws(KernelTier::Auto), scalar);
    }

    #[test]
    fn keystream_deterministic_per_seed(seed in any::<u128>(), stream in any::<u64>()) {
        let mut a = ChaCha20::from_seed_and_stream(Seed::from_u128(seed), stream);
        let mut b = ChaCha20::from_seed_and_stream(Seed::from_u128(seed), stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge(seed in any::<u128>()) {
        let mut a = ChaCha20::from_seed(Seed::from_u128(seed));
        let mut b = ChaCha20::from_seed(Seed::from_u128(seed ^ 1));
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn next_bits_respects_width(seed in any::<u128>(), bits in 1u32..=64) {
        let mut rng = ChaCha20::from_seed(Seed::from_u128(seed));
        for _ in 0..16 {
            let v = rng.next_bits(bits);
            if bits < 64 {
                prop_assert!(v < (1u64 << bits));
            }
        }
    }

    #[test]
    fn uniform_sampler_in_range(seed in any::<u128>(), q_raw in 3u64..(1 << 50)) {
        let q = q_raw | 1;
        let m = Modulus::new(q).expect("odd q >= 3");
        let mut s = UniformSampler::new(Seed::from_u128(seed), 0);
        for _ in 0..64 {
            prop_assert!(s.sample(&m) < q);
        }
    }

    #[test]
    fn ternary_sparse_weight_exact(seed in any::<u128>(), log_n in 4u32..10, frac in 1usize..4) {
        let n = 1usize << log_n;
        let h = n / (frac * 2);
        let mut s = TernarySampler::new(Seed::from_u128(seed), 0);
        let poly = s.sample_poly(n, Some(h));
        prop_assert_eq!(poly.iter().filter(|&&x| x != 0).count(), h);
        prop_assert!(poly.iter().all(|&x| (-1..=1).contains(&x)));
    }

    #[test]
    fn gaussian_within_tail(seed in any::<u128>(), sigma_tenths in 10u32..80) {
        let sigma = sigma_tenths as f64 / 10.0;
        let mut s = GaussianSampler::new(Seed::from_u128(seed), 0, sigma);
        let tail = (6.0 * sigma).ceil() as i64;
        for _ in 0..128 {
            let x = s.sample();
            prop_assert!(x.abs() <= tail, "sample {x} beyond 6 sigma = {tail}");
        }
    }

    #[test]
    fn derived_seeds_are_distinct(seed in any::<u128>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let s = Seed::from_u128(seed);
        prop_assert_ne!(s.derive(a), s.derive(b));
    }
}
