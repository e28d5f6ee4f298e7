//! A from-scratch ChaCha20 stream cipher (RFC 8439 block function) used as
//! the deterministic on-chip PRNG.
//!
//! The 128-bit [`Seed`] is expanded into the 256-bit ChaCha
//! key by repetition (a common construction when the security target is
//! 128 bits, as in the paper); the stream number selects independent
//! keystreams for domain separation.
//!
//! The generator refills [`BLOCKS`] blocks at a time, on the crate's rung
//! of the kernel ladder: [`chacha20_blocks`] (one AVX-512F pass, lane *i*
//! of every state word is block *i*) where the CPU has it, else
//! [`BLOCKS`] calls of [`chacha20_block`], which stays the RFC-vector
//! oracle. Both rungs emit the blocks in counter order, so a seed names
//! one keystream whatever the host — [`ChaCha20::kernel_name`] says
//! which rung made it.

use crate::Seed;
use abc_math::{CpuCaps, KernelTier};
use std::sync::OnceLock;

/// RFC 8439 blocks per refill: one per 32-bit lane of a 512-bit register.
pub const BLOCKS: usize = 16;

/// Keystream words per refill.
const WORDS: usize = 16 * BLOCKS;

/// The ChaCha constants, "expand 32-byte k".
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// Which rung refills a generator's buffer, and which rung the samplers
/// built on the generator read it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// [`chacha20_blocks`]: 16 blocks in one AVX-512F pass.
    Avx512,
    /// [`BLOCKS`] calls of [`chacha20_block`], the scalar rung and the
    /// RFC-vector oracle.
    Scalar,
}

impl Kernel {
    /// Where `tier` lands on this CPU.
    fn for_tier(tier: KernelTier) -> Self {
        match tier.or_env().degrade(CpuCaps::detect().avx512f) {
            KernelTier::Simd => Self::Avx512,
            _ => Self::Scalar,
        }
    }

    /// [`KernelTier::Auto`], resolved once per process: generators are
    /// built per polynomial, far too often to read the environment each
    /// time.
    fn auto() -> Self {
        static AUTO: OnceLock<Kernel> = OnceLock::new();
        *AUTO.get_or_init(|| Self::for_tier(KernelTier::Auto))
    }
}

/// ChaCha20 keystream generator.
///
/// # Example
///
/// ```
/// use abc_prng::{chacha::ChaCha20, Seed};
///
/// let mut rng = ChaCha20::from_seed(Seed::from_u128(7));
/// let x = rng.next_u64();
/// let y = rng.next_u64();
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    /// Counter of the first block the next refill makes.
    counter: u32,
    /// Keystream of the last refill: [`BLOCKS`] blocks in counter order.
    buffer: [u32; WORDS],
    /// Next word index into `buffer`; `WORDS` means exhausted.
    cursor: usize,
    kernel: Kernel,
}

/// The RFC 8439 key and nonce of stream `stream` of `seed`.
pub(crate) fn key_and_nonce(seed: Seed, stream: u64) -> ([u32; 8], [u32; 3]) {
    let mut key = [0u32; 8];
    for (i, word) in seed.0.chunks_exact(4).enumerate() {
        let w = u32::from_le_bytes(word.try_into().expect("4 bytes"));
        key[i] = w;
        key[i + 4] = w; // 128-bit seed repeated to fill the 256-bit key
    }
    (key, [stream as u32, (stream >> 32) as u32, 0])
}

impl ChaCha20 {
    /// Creates a generator from a 128-bit seed on stream 0.
    pub fn from_seed(seed: Seed) -> Self {
        Self::from_seed_and_stream(seed, 0)
    }

    /// Creates a generator on an independent stream (the stream number is
    /// folded into the nonce, giving domain separation).
    pub fn from_seed_and_stream(seed: Seed, stream: u64) -> Self {
        let (key, nonce) = key_and_nonce(seed, stream);
        Self::from_raw_parts(key, nonce, 0)
    }

    /// Creates a generator from raw RFC 8439 parameters (tests and
    /// vector-checking only).
    pub fn from_raw_parts(key: [u32; 8], nonce: [u32; 3], counter: u32) -> Self {
        Self {
            key,
            nonce,
            counter,
            buffer: [0; WORDS],
            cursor: WORDS,
            kernel: Kernel::auto(),
        }
    }

    /// The same generator refilled on `tier`'s rung (degraded by this
    /// CPU's features; `Auto` honours `ABC_FHE_KERNEL`). The keystream
    /// does not depend on it.
    pub fn with_kernel(mut self, tier: KernelTier) -> Self {
        self.kernel = Kernel::for_tier(tier);
        self
    }

    /// The rung this generator refills on: `avx512` or `scalar`.
    pub fn kernel_name(&self) -> &'static str {
        match self.kernel {
            Kernel::Avx512 => "avx512",
            Kernel::Scalar => "scalar",
        }
    }

    /// The rung this generator refills on.
    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The unread words of the last refill, in keystream order, after a
    /// refill if none are left: a bulk reader takes what it needs from
    /// the front and [`advance`](Self::advance)s past it.
    pub(crate) fn unread(&mut self) -> &[u32] {
        if self.cursor >= WORDS {
            self.refill();
        }
        &self.buffer[self.cursor..]
    }

    /// Marks the first `words` words of [`unread`](Self::unread) as read.
    pub(crate) fn advance(&mut self, words: usize) {
        debug_assert!(words <= WORDS - self.cursor, "advanced past the refill");
        self.cursor += words;
    }

    fn refill(&mut self) {
        match self.kernel {
            Kernel::Avx512 => {
                chacha20_blocks(&self.key, self.counter, &self.nonce, &mut self.buffer)
            }
            Kernel::Scalar => {
                for (b, block) in self.buffer.chunks_exact_mut(16).enumerate() {
                    let counter = self.counter.wrapping_add(b as u32);
                    block.copy_from_slice(&chacha20_block(&self.key, counter, &self.nonce));
                }
            }
        }
        self.counter = self.counter.wrapping_add(BLOCKS as u32);
        self.cursor = 0;
    }

    /// Next 32 bits of keystream.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.cursor >= WORDS {
            self.refill();
        }
        let w = self.buffer[self.cursor];
        self.cursor += 1;
        w
    }

    /// Next 64 bits of keystream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Next `bits`-bit value (`bits <= 64`), drawn from the low bits of the
    /// keystream.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    #[inline]
    pub fn next_bits(&mut self, bits: u32) -> u64 {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64");
        if bits == 64 {
            self.next_u64()
        } else if bits <= 32 {
            (self.next_u32() as u64) & ((1u64 << bits) - 1)
        } else {
            self.next_u64() & ((1u64 << bits) - 1)
        }
    }

    /// A uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills a byte slice with keystream.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

/// The ChaCha20 block function (RFC 8439 §2.3): 20 rounds over the
/// 16-word state, then a feed-forward addition of the input state.
pub fn chacha20_block(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u32; 16] {
    let state = initial_state(key, counter, nonce);
    let mut w = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut w, 0, 4, 8, 12);
        quarter_round(&mut w, 1, 5, 9, 13);
        quarter_round(&mut w, 2, 6, 10, 14);
        quarter_round(&mut w, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut w, 0, 5, 10, 15);
        quarter_round(&mut w, 1, 6, 11, 12);
        quarter_round(&mut w, 2, 7, 8, 13);
        quarter_round(&mut w, 3, 4, 9, 14);
    }
    for i in 0..16 {
        w[i] = w[i].wrapping_add(state[i]);
    }
    w
}

/// Blocks `counter … counter + 15` (each counter `wrapping_add`ed, as
/// [`chacha20_block`] would be called) into `out`, block `i` at words
/// `16i … 16i + 15`: one AVX-512F pass, lane `i` of every state word
/// holding block `i`, then a 16 × 16 transpose.
///
/// # Panics
///
/// Panics if the CPU lacks AVX-512F.
pub fn chacha20_blocks(
    key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    out: &mut [u32; 16 * BLOCKS],
) {
    // A `target_feature` call on an unsupported CPU would be UB, so the
    // safe entry hard-asserts (same contract as the FFT and NTT kernels).
    assert!(CpuCaps::detect().avx512f, "no AVX-512F on this CPU");
    let state = initial_state(key, counter, nonce);
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: the assert above proves AVX-512F, the kernel's only
        // precondition; `out` is exactly its 256 words.
        unsafe { kern::blocks(&state, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (state, out);
        unreachable!("AVX-512 keystream kernel requires x86_64");
    }
}

/// The RFC 8439 §2.3 input state: constants, key, counter, nonce.
fn initial_state(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter;
    state[13..16].copy_from_slice(nonce);
    state
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(target_arch = "x86_64")]
mod kern {
    use core::arch::x86_64::*;

    /// [`super::quarter_round`] on 16 blocks at once, word `j` of block
    /// `i` in lane `i` of `x[j]`.
    macro_rules! quarter_round_x16 {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32(_mm512_xor_si512($x[$d], $x[$a]), 16);
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32(_mm512_xor_si512($x[$b], $x[$c]), 12);
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32(_mm512_xor_si512($x[$d], $x[$a]), 8);
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32(_mm512_xor_si512($x[$b], $x[$c]), 7);
        };
    }

    /// The 16 blocks whose input states are `state` with counters
    /// `state[12] + 0 … 15`, block-major into `out`.
    ///
    /// # Safety
    ///
    /// Caller guarantees AVX-512F; `out` is 256 words (its type), and
    /// every store writes 16 of them at a multiple of 16.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn blocks(state: &[u32; 16], out: &mut [u32; 256]) {
        let mut input = [_mm512_setzero_si512(); 16];
        for (v, &w) in input.iter_mut().zip(state) {
            *v = _mm512_set1_epi32(w as i32);
        }
        // Lane `i` runs block `counter + i`, wrapping like `u32`.
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        input[12] = _mm512_add_epi32(input[12], lanes);
        let mut x = input;
        for _ in 0..10 {
            quarter_round_x16!(x, 0, 4, 8, 12);
            quarter_round_x16!(x, 1, 5, 9, 13);
            quarter_round_x16!(x, 2, 6, 10, 14);
            quarter_round_x16!(x, 3, 7, 11, 15);
            quarter_round_x16!(x, 0, 5, 10, 15);
            quarter_round_x16!(x, 1, 6, 11, 12);
            quarter_round_x16!(x, 2, 7, 8, 13);
            quarter_round_x16!(x, 3, 4, 9, 14);
        }
        for (v, i) in x.iter_mut().zip(input) {
            *v = _mm512_add_epi32(*v, i);
        }
        // Transpose: within each 128-bit chunk `c`, words `4g … 4g + 3`
        // of blocks `4c … 4c + 3` (two unpack rounds), then the 4 × 4
        // grid of chunks across the word groups `g` (two shuffle rounds).
        let mut rows = [[_mm512_setzero_si512(); 4]; 4]; // rows[r][g]
        for g in 0..4 {
            let w = &x[4 * g..4 * g + 4];
            let a0 = _mm512_unpacklo_epi32(w[0], w[1]);
            let a1 = _mm512_unpackhi_epi32(w[0], w[1]);
            let a2 = _mm512_unpacklo_epi32(w[2], w[3]);
            let a3 = _mm512_unpackhi_epi32(w[2], w[3]);
            // Chunk `c` of `rows[r][g]`: words 4g … 4g + 3 of block 4c + r.
            rows[0][g] = _mm512_unpacklo_epi64(a0, a2);
            rows[1][g] = _mm512_unpackhi_epi64(a0, a2);
            rows[2][g] = _mm512_unpacklo_epi64(a1, a3);
            rows[3][g] = _mm512_unpackhi_epi64(a1, a3);
        }
        let dst = out.as_mut_ptr() as *mut __m512i;
        for (r, y) in rows.iter().enumerate() {
            let z0 = _mm512_shuffle_i32x4(y[0], y[1], 0x44); // y0.c0 y0.c1 y1.c0 y1.c1
            let z1 = _mm512_shuffle_i32x4(y[0], y[1], 0xEE); // y0.c2 y0.c3 y1.c2 y1.c3
            let z2 = _mm512_shuffle_i32x4(y[2], y[3], 0x44);
            let z3 = _mm512_shuffle_i32x4(y[2], y[3], 0xEE);
            // Block 4c + r: chunk c of y0, y1, y2, y3.
            let blocks = [
                _mm512_shuffle_i32x4(z0, z2, 0x88),
                _mm512_shuffle_i32x4(z0, z2, 0xDD),
                _mm512_shuffle_i32x4(z1, z3, 0x88),
                _mm512_shuffle_i32x4(z1, z3, 0xDD),
            ];
            for (c, block) in blocks.into_iter().enumerate() {
                // SAFETY: block `4c + r` < 16 is 16 words at word
                // `16 (4c + r)` of the 256-word `out`.
                unsafe { _mm512_storeu_si512(dst.add(4 * c + r), block) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector for the block function.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u32; 8] = [
            0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c, 0x13121110, 0x17161514, 0x1b1a1918,
            0x1f1e1d1c,
        ];
        let nonce: [u32; 3] = [0x09000000, 0x4a000000, 0x00000000];
        let out = chacha20_block(&key, 1, &nonce);
        let expected: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
            0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
            0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(out, expected);
        // Block 1 of a generator started at counter 0, on every rung.
        for tier in [KernelTier::Simd, KernelTier::Scalar] {
            let mut rng = ChaCha20::from_raw_parts(key, nonce, 0).with_kernel(tier);
            let words: Vec<u32> = (0..32).map(|_| rng.next_u32()).collect();
            assert_eq!(words[16..], expected, "{}", rng.kernel_name());
        }
    }

    #[test]
    fn determinism_and_stream_separation() {
        let seed = Seed::from_u128(0xDEAD_BEEF_CAFE_F00D);
        let mut a = ChaCha20::from_seed(seed);
        let mut b = ChaCha20::from_seed(seed);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha20::from_seed_and_stream(seed, 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn keystream_equals_the_parents() {
        // FNV-1a over 5000 words (19½ refills) of stream 9
        // of seed 8, captured from the one-block-per-refill generator
        // this one replaced: the keystream a seed names has not moved.
        for tier in [KernelTier::Simd, KernelTier::Scalar] {
            let mut rng = ChaCha20::from_seed_and_stream(Seed::from_u128(8), 9).with_kernel(tier);
            let hash = (0..5000).fold(0xcbf2_9ce4_8422_2325u64, |h, _| {
                (h ^ rng.next_u32() as u64).wrapping_mul(0x0000_0100_0000_01B3)
            });
            assert_eq!(hash, 0x5c68_219a_1a86_06cd, "{}", rng.kernel_name());
        }
    }

    #[test]
    fn next_bits_in_range() {
        let mut rng = ChaCha20::from_seed(Seed::from_u128(1));
        for bits in 1..=64u32 {
            for _ in 0..8 {
                let v = rng.next_bits(bits);
                if bits < 64 {
                    assert!(v < (1u64 << bits), "bits={bits} v={v}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn next_bits_rejects_zero() {
        ChaCha20::from_seed(Seed::default()).next_bits(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = ChaCha20::from_seed(Seed::from_u128(2));
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of 1000 uniforms should be near 0.5.
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn fill_bytes_matches_words() {
        let seed = Seed::from_u128(3);
        let mut a = ChaCha20::from_seed(seed);
        let mut b = ChaCha20::from_seed(seed);
        let mut buf = [0u8; 11];
        a.fill_bytes(&mut buf);
        let w0 = b.next_u32().to_le_bytes();
        let w1 = b.next_u32().to_le_bytes();
        let w2 = b.next_u32().to_le_bytes();
        assert_eq!(&buf[..4], &w0);
        assert_eq!(&buf[4..8], &w1);
        assert_eq!(&buf[8..11], &w2[..3]);
    }

    #[test]
    fn derived_seeds_differ() {
        let s = Seed::from_u128(9);
        assert_ne!(s.derive(0), s.derive(1));
        assert_eq!(s.derive(5), s.derive(5));
    }
}
