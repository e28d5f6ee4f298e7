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
use abc_math::{primes::generate_ntt_primes, KernelTier, Modulus};
use abc_transform::{pool, RnsNttEngine, SpecialFft, SpecialFftEngine};
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
fn warm_avx512_transforms_take_their_planes_from_the_limb_pool() {
    // N = 2^14: the proptests above stop at 2^12 slots, and the pool is
    // process-wide, so no other test of this binary touches this class.
    let n = 1usize << 14;
    let plan = SpecialFft::with_field_kernel(F64Field, n / 2, KernelTier::Simd);
    if plan.kernel_name() != "avx512" {
        return;
    }
    // A live engine of ring degree N registers the N-word class, as every
    // context that runs this plan does.
    let q = generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
    let _engine = RnsNttEngine::new(&[Modulus::new(q).expect("modulus")], n).expect("engine");
    let mut vals = message(n / 2, 5);
    plan.forward(&mut vals);
    let warm = pool::class_stats(n).expect("registered by the engine");
    let k = 6u64;
    for _ in 0..k / 2 {
        plan.inverse(&mut vals);
        plan.forward(&mut vals);
    }
    let after = pool::class_stats(n).expect("registered by the engine");
    assert_eq!(
        (after.hits - warm.hits, after.misses - warm.misses),
        (k, 0),
        "each warm transform takes exactly one limb, and from the pool"
    );
}
