//! Property tests pinning the embedding-FFT kernel lattice together:
//! every [`KernelTier`], the engine's single-vector entry points and the
//! SoA split/merge helpers must agree with the planned scalar kernel.
//!
//! The AVX-512 kernel preserves the scalar operation order exactly
//! (4-multiply complex product, no FMA contraction), so the pinned
//! bound here is **bit identity** — 0 ulp, well inside the ≤ 1-ulp
//! contract documented on the dispatch ladder.

use abc_float::{soa, Complex, F64Field};
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

/// Reference transform: the planned scalar kernel.
fn scalar_plan(slots: usize) -> SpecialFft {
    SpecialFft::with_field_kernel(F64Field, slots, KernelTier::Scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Every kernel preference produces bit-identical forward and
    // inverse transforms across the full dispatchable size range.
    #[test]
    fn all_kernel_preferences_bit_identical(seed in any::<u64>(), log_slots in 4u32..=12) {
        let slots = 1usize << log_slots;
        let reference = scalar_plan(slots);
        let msg = message(slots, seed);
        let mut want_f = msg.clone();
        reference.forward(&mut want_f);
        let mut want_i = msg.clone();
        reference.inverse(&mut want_i);
        for pref in [
            KernelTier::Auto,
            KernelTier::Simd,
            KernelTier::Scalar,
            KernelTier::Reference,
        ] {
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

    // SoA split/merge round-trips losslessly and the scaled merge is
    // one multiply per component, exactly as the scalar tail loop.
    #[test]
    fn soa_split_merge_bit_exact(seed in any::<u64>(), log_slots in 2u32..=10, scale in 1e-6f64..1e6) {
        let slots = 1usize << log_slots;
        let msg = message(slots, seed);
        let mut re = vec![0.0; slots];
        let mut im = vec![0.0; slots];
        soa::split_complex(&msg, &mut re, &mut im);
        let mut back = vec![Complex::default(); slots];
        soa::merge_complex(&re, &im, &mut back);
        prop_assert_eq!(&back, &msg);
        soa::merge_complex_scaled(&re, &im, scale, &mut back);
        let want: Vec<Complex> = msg.iter().map(|z| Complex::new(z.re * scale, z.im * scale)).collect();
        prop_assert_eq!(back, want);
    }
}
