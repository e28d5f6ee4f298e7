//! Tier-1 guarantees for the Harvey NTT substrate: the Shoup/lazy fast
//! path must be **bit-identical** to the golden model at every
//! bootstrappable preset size, and the batched [`RnsNttEngine`] must be
//! invariant under its thread fan-out.

use abc_fhe::math::KernelTier;
use abc_fhe::math::{primes::generate_ntt_primes, Modulus};
use abc_fhe::transform::rns_ntt::{threads_from_env, THREADS_ENV};
use abc_fhe::transform::{NttPlan, RnsNttEngine};

fn preset_moduli(log_n: u32, count: usize) -> Vec<Modulus> {
    // The presets' prime shape: 36-bit NTT primes ≡ 1 mod 2N.
    generate_ntt_primes(36, count, 1u64 << (log_n + 1))
        .expect("preset primes exist")
        .into_iter()
        .map(|q| Modulus::new(q).expect("valid modulus"))
        .collect()
}

fn pseudo_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % q
        })
        .collect()
}

#[test]
fn fast_kernels_equal_golden_on_all_presets() {
    // Every bootstrappable preset size (N = 2^13 … 2^16): the fast
    // paths behind `forward`/`inverse` and the plan's golden model
    // (`forward_golden`/`inverse_golden`) must agree bit for bit, not
    // merely modulo q. The scalar Harvey kernel is forced explicitly so
    // it is asserted even on machines whose Auto choice is the
    // AVX-512IFMA kernel (and vice versa: Auto covers IFMA where the
    // CPU has it).
    for log_n in 13u32..=16 {
        let n = 1usize << log_n;
        for (k, m) in preset_moduli(log_n, 3).into_iter().enumerate() {
            for pref in [KernelTier::Auto, KernelTier::Scalar] {
                let plan = NttPlan::with_kernel(m, n, pref).expect("plan");
                let poly = pseudo_poly(n, m.q(), (log_n as u64) << 8 | k as u64);
                let mut fast = poly.clone();
                let mut golden = poly.clone();
                plan.forward(&mut fast);
                plan.forward_golden(&mut golden);
                assert_eq!(fast, golden, "forward log_n={log_n} prime {k} {pref:?}");
                plan.inverse(&mut fast);
                plan.inverse_golden(&mut golden);
                assert_eq!(fast, golden, "inverse log_n={log_n} prime {k} {pref:?}");
                assert_eq!(fast, poly, "roundtrip log_n={log_n} prime {k} {pref:?}");
            }
        }
    }
}

#[test]
fn rns_engine_bit_identical_across_presets_and_threads() {
    // The batched engine must reproduce the serial per-limb plans at
    // every preset size for thread fan-outs 1, 2 and 4.
    for log_n in 13u32..=16 {
        let n = 1usize << log_n;
        let moduli = preset_moduli(log_n, 4);
        let original: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| pseudo_poly(n, m.q(), 1 + ((log_n as u64) << 8 | i as u64)))
            .collect();
        let mut reference = original.clone();
        for (m, limb) in moduli.iter().zip(reference.iter_mut()) {
            NttPlan::new(*m, n).expect("plan").forward(limb);
        }
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut limbs = original.clone();
            engine.forward_all(&mut limbs);
            assert_eq!(limbs, reference, "forward log_n={log_n} threads={threads}");
            engine.inverse_all(&mut limbs);
            assert_eq!(limbs, original, "inverse log_n={log_n} threads={threads}");
        }
    }
}

#[test]
fn abc_fhe_threads_env_controls_engine() {
    // `ABC_FHE_THREADS` pins the fan-out of engines built with
    // `RnsNttEngine::new` — and the result stays bit-identical to the
    // serial reference. (Other tests in this binary construct engines
    // only through `with_threads`, so the temporary override is safe.)
    let mut env = abc_fhe::math::envtest::EnvGuard::lock();
    env.set(THREADS_ENV, "4");
    assert_eq!(threads_from_env(), 4);
    let n = 1usize << 13;
    let moduli = preset_moduli(13, 4);
    let engine = RnsNttEngine::new(&moduli, n).expect("engine");
    drop(env);
    assert_eq!(engine.threads(), 4);
    let original: Vec<Vec<u64>> = moduli
        .iter()
        .enumerate()
        .map(|(i, m)| pseudo_poly(n, m.q(), 99 + i as u64))
        .collect();
    let mut limbs = original.clone();
    engine.forward_all(&mut limbs);
    for (i, m) in moduli.iter().enumerate() {
        let mut reference = original[i].clone();
        NttPlan::new(*m, n).expect("plan").forward(&mut reference);
        assert_eq!(limbs[i], reference, "limb {i}");
    }
}
