//! Workload inputs, all derived from `--seed`. The generator is the
//! benchmark's own: the library receives only the generated values.

use abc_float::Complex;
use abc_prng::Seed;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough to
/// draw message slots.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// How many distinct messages a workload cycles through: enough that
/// consecutive ops never reuse a hot input, few enough to stay in RAM
/// at N = 2^16.
pub const MESSAGES: usize = 8;

/// `MESSAGES` full-slot messages, real and imaginary parts uniform in
/// [-1, 1).
pub fn messages(seed: u64, slots: usize) -> Vec<Vec<Complex>> {
    let mut rng = SplitMix64::new(seed);
    (0..MESSAGES)
        .map(|_| {
            (0..slots)
                .map(|_| Complex::new(rng.next_unit(), rng.next_unit()))
                .collect()
        })
        .collect()
}

/// The library seed for item `i` of purpose `stream` in this run.
pub fn derive_seed(seed: u64, stream: u64, i: u64) -> Seed {
    Seed::from_u128(seed as u128).derive(stream).derive(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_slots_stay_in_range() {
        let a = messages(2026, 64);
        assert_eq!(a, messages(2026, 64));
        assert_ne!(a, messages(2027, 64));
        assert_eq!((a.len(), a[0].len()), (MESSAGES, 64));
        assert_ne!(a[0], a[1]);
        for z in a.iter().flatten() {
            assert!((-1.0..1.0).contains(&z.re) && (-1.0..1.0).contains(&z.im));
        }
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_item() {
        let base = derive_seed(1, 0, 0);
        assert_eq!(base, derive_seed(1, 0, 0));
        for other in [
            derive_seed(2, 0, 0),
            derive_seed(1, 1, 0),
            derive_seed(1, 0, 1),
        ] {
            assert_ne!(base, other);
        }
    }
}
