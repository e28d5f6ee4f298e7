//! Property tests pinning the embedding-FFT kernel lattice together:
//! every [`KernelTier`] must agree with the on-the-fly oracle
//! (`forward_otf` / `inverse_otf`), and the engine's single-vector entry
//! points with the planned scalar kernel.
//!
//! The AVX-512 kernel preserves the scalar operation order exactly
//! (4-multiply complex product, no FMA contraction), so the pinned
//! bound here is **bit identity** — 0 ulp, well inside the ≤ 1-ulp
//! contract documented on the dispatch ladder.

use abc_float::{Complex, F64Field};
use abc_math::KernelTier;
use abc_transform::{SpecialFft, SpecialFftEngine};
use proptest::prelude::*;

fn message(slots: usize, seed: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (seed.wrapping_mul(2 * i as u64 + 1) % 2048) as f64 / 1024.0 - 1.0;
            let y = (seed.wrapping_add(13 * i as u64) % 2048) as f64 / 1024.0 - 1.0;
            Complex::new(x, y)
        })
        .collect()
}

/// A message whose parts span many binades: `|x|` from 2^-30 to 2^30,
/// either sign, with full 52-bit mantissas, so the butterflies' products
/// round as often as real slot values do (a `k/1024` grid rounds rarely).
fn binade_message(slots: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed;
    let mut part = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = state;
        let mantissa = 1.0 + (r >> 12) as f64 / (1u64 << 52) as f64;
        let exponent = (r % 60) as i32 - 30;
        let sign = if r & (1 << 6) == 0 { 1.0 } else { -1.0 };
        sign * mantissa * 2f64.powi(exponent)
    };
    (0..slots).map(|_| Complex::new(part(), part())).collect()
}

/// Reference transform: the planned scalar kernel.
fn scalar_plan(slots: usize) -> SpecialFft {
    SpecialFft::with_field_kernel(F64Field, slots, KernelTier::Scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Every kernel preference produces forward and inverse transforms
    // bit-identical to the on-the-fly oracle across the full
    // dispatchable size range.
    #[test]
    fn all_kernel_preferences_bit_identical(seed in any::<u64>(), log_slots in 4u32..=12) {
        let slots = 1usize << log_slots;
        let oracle = scalar_plan(slots);
        let msg = message(slots, seed);
        let mut want_f = msg.clone();
        oracle.forward_otf(&mut want_f);
        let mut want_i = msg.clone();
        oracle.inverse_otf(&mut want_i);
        for pref in [KernelTier::Auto, KernelTier::Simd, KernelTier::Scalar] {
            let plan = SpecialFft::with_field_kernel(F64Field, slots, pref);
            let mut got = msg.clone();
            plan.forward(&mut got);
            prop_assert_eq!(&got, &want_f, "forward {} (pref {:?})", plan.kernel_name(), pref);
            let mut got = msg.clone();
            plan.inverse(&mut got);
            prop_assert_eq!(&got, &want_i, "inverse {} (pref {:?})", plan.kernel_name(), pref);
        }
    }

    // The engine's entry points never change a bit relative to the
    // serial planned kernel (they run the shared plan on the calling
    // thread).
    #[test]
    fn engine_threading_bit_identical(seed in any::<u64>(), log_slots in 4u32..=12) {
        let slots = 1usize << log_slots;
        let reference = scalar_plan(slots);
        let msg = message(slots, seed);
        let mut want = msg.clone();
        reference.forward(&mut want);
        let mut want_inv = msg.clone();
        reference.inverse(&mut want_inv);
        let engine = SpecialFftEngine::new(F64Field, slots);
        let mut got = msg.clone();
        engine.forward(&mut got);
        prop_assert_eq!(&got, &want, "forward");
        let mut got = msg.clone();
        engine.inverse(&mut got);
        prop_assert_eq!(&got, &want_inv, "inverse");
    }
}

#[test]
fn avx512_is_the_scalar_kernel_bit_for_bit_at_every_dispatched_size() {
    // 2^3 slots has no long stage (one tail pass); from 2^4 on the count
    // of long stages, log_slots − 3, alternates odd (a radix-2 pass
    // beside the radix-4 ones) and even, through the presets' 2^12 …
    // 2^15. Bits, not `==`, so a zero's sign counts too.
    let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    for log_slots in 3..=15 {
        let slots = 1usize << log_slots;
        let simd = SpecialFft::with_field_kernel(F64Field, slots, KernelTier::Simd);
        let scalar = scalar_plan(slots);
        let messages = [
            ("k/1024 grid", message(slots, 0x5eed)),
            ("2^-30…2^30", binade_message(slots, 0xb1a5)),
        ];
        for (name, msg) in messages {
            for inverse in [false, true] {
                let (mut got, mut want) = (msg.clone(), msg.clone());
                if inverse {
                    simd.inverse(&mut got);
                    scalar.inverse(&mut want);
                } else {
                    simd.forward(&mut got);
                    scalar.forward(&mut want);
                }
                let (got, want) = (bits(&got), bits(&want));
                let first = got.iter().zip(&want).position(|(a, b)| a != b);
                assert_eq!(
                    first,
                    None,
                    "{} slots 2^{log_slots}, {name}, inverse={inverse}",
                    simd.kernel_name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The forward split across the fan-out is the serial forward bit for
    // bit on both rungs, at every size it can cut (2^3 stays serial on
    // the AVX-512 rung: a half needs eight slots) and at any thread
    // count (three and four run the same two chunks on more posts).
    #[test]
    fn the_split_forward_is_the_serial_forward_bit_for_bit(
        seed in any::<u64>(),
        threads in 1usize..=4,
    ) {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for log_slots in 3..=15 {
            let slots = 1usize << log_slots;
            let msg = binade_message(slots, seed);
            for tier in [KernelTier::Simd, KernelTier::Scalar] {
                let plan = SpecialFft::with_field_kernel(F64Field, slots, tier);
                let (mut got, mut want) = (msg.clone(), msg.clone());
                plan.forward_split(&mut got, threads);
                plan.forward(&mut want);
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} slots 2^{}, {} threads",
                    plan.kernel_name(),
                    log_slots,
                    threads
                );
            }
        }
    }
}
