//! The unified on-the-fly twiddle generator (paper §IV-B), as a model.
//!
//! The paper's key memory optimization replaces 8.25 MB of precomputed
//! twiddle tables with a generator that reconstructs each stage's
//! twiddles from a compact per-stage seed (~27 KB total), a >99.9 %
//! on-chip memory reduction. [`OtfTwiddleGen`] models the generator;
//! the conventional table is the one an [`NttPlan`] holds
//! (`abc_transform::TwiddleTable`), read here through [`TwiddleSource`].
//! The two are bit-identical twiddle for twiddle (tests below), and the
//! streaming pipeline's NTT mode ([`crate::stream::StreamingNtt`]) runs
//! a whole transform on either, so the memory model ([`crate::memory`])
//! can charge them different SRAM/DRAM costs for the same result.

use abc_math::{MathError, Modulus};
use abc_transform::bitrev::bit_reverse;
use abc_transform::NttPlan;

/// Supplies the merged twiddles `ψ^{brv(m+i)}` consumed by the
/// Cooley–Tukey negacyclic NTT and their inverses for the Gentleman–Sande
/// INTT.
pub trait TwiddleSource {
    /// Forward twiddle for the CT stage with `m` groups, group `i`:
    /// `ψ^{brv_{log2(2m)}(m+i)}` (odd powers of the 2N-th root `ψ`).
    fn forward(&self, m: usize, i: usize) -> u64;

    /// Inverse twiddle for the GS stage with `h` groups, group `i`:
    /// `ψ^{-brv(h+i)}`.
    fn inverse(&self, h: usize, i: usize) -> u64;

    /// `N^{-1} mod q`, applied at the end of the INTT.
    fn n_inv(&self) -> u64;

    /// The modulus `q` the twiddles live in.
    fn modulus(&self) -> Modulus;

    /// The transform size `N` (a power of two ≥ 2).
    fn n(&self) -> usize;
}

/// The plan's table — the conventional design ABC-FHE's `ABC-FHE_Base`
/// configuration fetches from DRAM. The host keeps only the forward
/// column; since `ψ^N = −1`, GS group `i` of `h` is `q −` forward entry
/// `2h − 1 − i`.
impl TwiddleSource for NttPlan {
    fn forward(&self, m: usize, i: usize) -> u64 {
        self.table().forward_column()[m + i]
    }

    fn inverse(&self, h: usize, i: usize) -> u64 {
        // A power of ψ is never 0, so this stays canonical.
        self.modulus().q() - self.table().forward_column()[2 * h - 1 - i]
    }

    fn n_inv(&self) -> u64 {
        self.table().n_inv()
    }

    fn modulus(&self) -> Modulus {
        *NttPlan::modulus(self)
    }

    fn n(&self) -> usize {
        NttPlan::n(self)
    }
}

/// On-chip bytes the conventional table of an `n`-point transform
/// occupies (both directions, 8 B words) — what the `ABC-FHE_Base`
/// memory model charges: the modelled datapath's price, not the host's
/// residency (`NttPlan::resident_bytes`).
pub fn table_bytes(n: usize) -> usize {
    2 * n * 8
}

/// The unified on-the-fly twiddle factor generator (paper §IV-B).
///
/// Stores only one seed per stage — the stage step `ψ^{N/(2m)}` — plus
/// `ψ` itself and `N^{-1}`; every twiddle is regenerated on demand as
/// `(step²)^{brv(i)} · step`, i.e. an odd power of the stage step,
/// by square-and-multiply over the bits of `brv(i)` (the hardware walks
/// the same recurrence with one modular multiplier per lane group).
///
/// # Example
///
/// ```
/// use abc_hw::twiddle::{OtfTwiddleGen, TwiddleSource};
/// use abc_math::Modulus;
/// use abc_transform::NttPlan;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(0xFFF0_0001)?;
/// let plan = NttPlan::new(m, 16)?;
/// let otf = OtfTwiddleGen::with_psi(m, 16, plan.table().psi())?;
/// for i in 0..8 {
///     assert_eq!(TwiddleSource::forward(&plan, 8, i), otf.forward(8, i));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OtfTwiddleGen {
    m: Modulus,
    psi: u64,
    psi_inv: u64,
    /// `seeds[s] = ψ^{N/(2·2^s)}` — the step for the stage with `m = 2^s`
    /// groups. `log2(N)` words per modulus: the entire seed memory.
    seeds: Vec<u64>,
    /// Inverse-direction seeds.
    seeds_inv: Vec<u64>,
    n_inv: u64,
}

impl OtfTwiddleGen {
    /// Builds the generator for transform size `n` over modulus `m`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] if `q ≢ 1 (mod 2n)` and
    /// [`MathError::InvalidModulus`] if `n` is not a power of two ≥ 2.
    pub fn new(m: Modulus, n: usize) -> Result<Self, MathError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(MathError::InvalidModulus(n as u64));
        }
        let psi = m.primitive_root_of_unity(2 * n as u64)?;
        Self::with_psi(m, n, psi)
    }

    /// Builds the generator from an explicit 2N-th root (for comparing
    /// against a table built with the same root).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NoRootOfUnity`] if `psi` is not a primitive
    /// 2N-th root of unity.
    pub fn with_psi(m: Modulus, n: usize, psi: u64) -> Result<Self, MathError> {
        if m.pow(psi, 2 * n as u64) != 1 || m.pow(psi, n as u64) == 1 {
            return Err(MathError::NoRootOfUnity {
                modulus: m.q(),
                order: 2 * n as u64,
            });
        }
        let psi_inv = m.inv(psi).expect("root of unity is invertible");
        let stages = n.trailing_zeros() as usize;
        let mut seeds = Vec::with_capacity(stages);
        let mut seeds_inv = Vec::with_capacity(stages);
        for s in 0..stages {
            let step = (n >> (s + 1)) as u64; // N/(2m) for m = 2^s
            seeds.push(m.pow(psi, step));
            seeds_inv.push(m.pow(psi_inv, step));
        }
        let n_inv = m.inv(n as u64).expect("n < q");
        Ok(Self {
            m,
            psi,
            psi_inv,
            seeds,
            seeds_inv,
            n_inv,
        })
    }

    /// The 2N-th root of unity in use.
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// The inverse root `ψ^{-1}` (seed of the inverse direction).
    pub fn psi_inv(&self) -> u64 {
        self.psi_inv
    }

    /// Seed-memory bytes (both directions + ψ, ψ⁻¹, N⁻¹; 8 B words) —
    /// what the OTF configurations charge instead of [`table_bytes`].
    pub fn seed_bytes(&self) -> usize {
        (self.seeds.len() + self.seeds_inv.len() + 3) * 8
    }

    /// Generates `base^{2·brv(i)+1}` by square-and-multiply — the
    /// generator's multiplier recurrence.
    fn odd_power(&self, base: u64, i: usize, stage_bits: u32) -> u64 {
        let e = 2 * bit_reverse(i, stage_bits) as u64 + 1;
        self.m.pow(base, e)
    }
}

impl TwiddleSource for OtfTwiddleGen {
    fn forward(&self, m: usize, i: usize) -> u64 {
        let s = m.trailing_zeros();
        self.odd_power(self.seeds[s as usize], i, s)
    }

    fn inverse(&self, h: usize, i: usize) -> u64 {
        let s = h.trailing_zeros();
        self.odd_power(self.seeds_inv[s as usize], i, s)
    }

    fn n_inv(&self) -> u64 {
        self.n_inv
    }

    fn modulus(&self) -> Modulus {
        self.m
    }

    fn n(&self) -> usize {
        1 << self.seeds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modulus() -> Modulus {
        Modulus::new(0xFFF0_0001).unwrap() // 2^32 - 2^20 + 1, 2^20 | q-1
    }

    #[test]
    fn table_and_otf_agree_everywhere() {
        let m = modulus();
        for n in [4usize, 16, 64, 256] {
            let table = NttPlan::new(m, n).unwrap();
            let otf = OtfTwiddleGen::with_psi(m, n, table.table().psi()).unwrap();
            let mut mm = 1usize;
            while mm < n {
                for i in 0..mm {
                    assert_eq!(
                        TwiddleSource::forward(&table, mm, i),
                        otf.forward(mm, i),
                        "fwd n={n} m={mm} i={i}"
                    );
                    assert_eq!(
                        TwiddleSource::inverse(&table, mm, i),
                        otf.inverse(mm, i),
                        "inv n={n} m={mm} i={i}"
                    );
                }
                mm *= 2;
            }
            assert_eq!(table.n_inv(), otf.n_inv());
        }
    }

    #[test]
    fn inverse_is_the_forward_block_backwards_and_negated() {
        // ψ^N = −1, which the one-column table and both fast GS kernels
        // rest on — on the generator, whose ψ⁻¹ seeds are its own.
        let m = modulus();
        for n in [4usize, 16, 64, 256] {
            let otf = OtfTwiddleGen::new(m, n).unwrap();
            for h in (0..n.trailing_zeros()).map(|s| 1usize << s) {
                for i in 0..h {
                    let negated = m.q() - otf.forward(h, h - 1 - i);
                    assert_eq!(otf.inverse(h, i), negated, "n={n} h={h} i={i}");
                }
            }
        }
    }

    #[test]
    fn twiddles_are_odd_psi_powers() {
        let m = modulus();
        let n = 64usize;
        let table = NttPlan::new(m, n).unwrap();
        let psi = table.table().psi();
        // Every forward twiddle at stage m, index i must equal
        // ψ^{(2·brv(i)+1)·N/(2m)} — an odd multiple of the stage step,
        // which is what the generator exploits.
        let mut mm = 1usize;
        while mm < n {
            let step = (n / (2 * mm)) as u64;
            for i in 0..mm {
                let e = (2 * bit_reverse(i, mm.trailing_zeros()) as u64 + 1) * step;
                assert_eq!(TwiddleSource::forward(&table, mm, i), m.pow(psi, e));
            }
            mm *= 2;
        }
    }

    #[test]
    fn memory_accounting_ratio() {
        let n = 1 << 12;
        let otf = OtfTwiddleGen::new(modulus(), n).unwrap();
        // The generator's seed memory must be orders of magnitude smaller.
        assert!(otf.seed_bytes() * 100 < table_bytes(n));
    }

    #[test]
    fn rejects_bad_sizes_and_roots() {
        let m = modulus();
        assert!(OtfTwiddleGen::new(m, 3).is_err());
        assert!(OtfTwiddleGen::new(m, 0).is_err());
        // 2^22 exceeds the 2-adicity of q-1 (2^20).
        assert!(OtfTwiddleGen::new(m, 1 << 22).is_err());
        // An element that is not a primitive 2N-th root.
        assert!(OtfTwiddleGen::with_psi(m, 16, 1).is_err());
    }

    #[test]
    fn psi_recovery() {
        let m = modulus();
        let table = NttPlan::new(m, 32).unwrap();
        let psi = table.table().psi();
        let otf = OtfTwiddleGen::with_psi(m, 32, psi).unwrap();
        assert_eq!(otf.psi(), psi);
        assert_eq!(m.mul(otf.psi(), otf.psi_inv()), 1);
        assert_eq!(m.pow(psi, 64), 1);
        assert_ne!(m.pow(psi, 32), 1);
    }
}
