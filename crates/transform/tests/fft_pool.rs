//! A warm AVX-512 embedding FFT takes its planes from the limb pool.
//!
//! Its own test binary: the pool is process-wide, and the kernel suites
//! run 2^13-slot transforms, whose planes are the same 2^14-word class,
//! on parallel threads, so in their binary the count depends on which
//! test takes a limb first.

use abc_float::{Complex, F64Field};
use abc_math::{primes::generate_ntt_primes, KernelTier, Modulus};
use abc_transform::{pool, RnsNttEngine, SpecialFft};

#[test]
fn warm_avx512_transforms_take_their_planes_from_the_limb_pool() {
    let n = 1usize << 14;
    let plan = SpecialFft::with_field_kernel(F64Field, n / 2, KernelTier::Simd);
    if plan.kernel_name() != "avx512" {
        return;
    }
    // A live engine of ring degree N registers the N-word class, as every
    // context that runs this plan does.
    let q = generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
    let _engine = RnsNttEngine::new(&[Modulus::new(q).expect("modulus")], n).expect("engine");
    let mut vals: Vec<Complex> = (0..n / 2)
        .map(|i| Complex::new((i % 2048) as f64 / 1024.0 - 1.0, (i % 7) as f64 / 8.0))
        .collect();
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
