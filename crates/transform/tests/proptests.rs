//! Property-based tests for the transform layer.

use abc_float::{Complex, ExtF64Field};
use abc_math::poly::{self, negacyclic_mul_schoolbook};
use abc_math::primes::generate_ntt_primes;
use abc_math::Modulus;
use abc_transform::{LimbWork, NttPlan, RnsNttEngine, SpecialFft};
use proptest::prelude::*;

fn fft_message(slots: usize, seed: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (seed.wrapping_mul(i as u64 + 1) % 1000) as f64 / 500.0 - 1.0;
            let y = (seed.wrapping_add(i as u64 * 7) % 1000) as f64 / 500.0 - 1.0;
            Complex::new(x, y)
        })
        .collect()
}

/// `count` 36-bit NTT primes for ring degree `n`.
fn moduli_36(count: usize, n: usize) -> Vec<Modulus> {
    generate_ntt_primes(36, count, 2 * n as u64)
        .expect("primes")
        .into_iter()
        .map(|q| Modulus::new(q).expect("valid"))
        .collect()
}

/// One pseudo-random canonical limb of `n` residues per modulus.
fn residues(moduli: &[Modulus], n: usize, seed: u64, salt: u64) -> Vec<Vec<u64>> {
    moduli
        .iter()
        .enumerate()
        .map(|(i, m)| {
            (0..n as u64)
                .map(|j| seed.wrapping_mul(salt + i as u64).wrapping_add(j * 29) % m.q())
                .collect()
        })
        .collect()
}

fn arb_prime_modulus() -> impl Strategy<Value = Modulus> {
    // A pool of NTT primes at varied widths, all ≡ 1 mod 2^14 (rings up
    // to 2^13). The 50-bit ones sit just below the IFMA kernel's 2^50
    // cap, where its lazy `4q` is just under the 52-bit lane.
    let mut pool = Vec::new();
    for bits in [30u32, 36, 44, 50] {
        pool.extend(generate_ntt_primes(bits, 4, 1 << 14).expect("primes exist"));
    }
    prop::sample::select(pool).prop_map(|q| Modulus::new(q).expect("generated primes are valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ntt_roundtrip_random_polys(m in arb_prime_modulus(), seed in any::<u64>(), log_n in 2u32..10) {
        let n = 1usize << log_n;
        let plan = NttPlan::new(m, n).expect("2^13-friendly prime covers n <= 2^12");
        let poly: Vec<u64> = (0..n as u64)
            .map(|i| (seed.wrapping_mul(i * 2 + 1)) % m.q())
            .collect();
        let mut a = poly.clone();
        plan.forward(&mut a);
        plan.inverse(&mut a);
        prop_assert_eq!(a, poly);
    }

    #[test]
    fn convolution_theorem(m in arb_prime_modulus(), seed in any::<u64>()) {
        let n = 32usize;
        let plan = NttPlan::new(m, n).expect("plan");
        let a: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_mul(i + 1) % m.q()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * i) % m.q()).collect();
        prop_assert_eq!(
            plan.negacyclic_mul(&a, &b),
            negacyclic_mul_schoolbook(&m, &a, &b)
        );
    }

    #[test]
    fn ntt_is_linear(m in arb_prime_modulus(), seed in any::<u64>(), c in any::<u64>()) {
        let n = 64usize;
        let plan = NttPlan::new(m, n).expect("plan");
        let c = c % m.q();
        let a: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_mul(i | 1) % m.q()).collect();
        // NTT(c·a) = c·NTT(a)
        let mut scaled = a.clone();
        abc_math::poly::scalar_mul_assign(&m, &mut scaled, c);
        plan.forward(&mut scaled);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        abc_math::poly::scalar_mul_assign(&m, &mut fa, c);
        prop_assert_eq!(scaled, fa);
    }

    #[test]
    fn fast_kernels_are_bit_identical_to_golden(m in arb_prime_modulus(), seed in any::<u64>(), log_n in 4u32..=13) {
        // `forward`/`inverse` take a fast kernel (scalar Harvey forced,
        // plus whatever Auto picks — IFMA on capable machines); the
        // plan's `forward_golden`/`inverse_golden` run the golden model
        // over the same table. Outputs must match bit for bit. Sizes
        // 2^4 … 2^13 draw both parities of the IFMA long-stage count.
        use abc_math::KernelTier;
        let n = 1usize << log_n;
        let poly: Vec<u64> = (0..n as u64)
            .map(|i| (seed.wrapping_mul(i * 2 + 1)) % m.q())
            .collect();
        for pref in [KernelTier::Auto, KernelTier::Scalar] {
            let plan = NttPlan::with_kernel(m, n, pref).expect("plan");
            let mut fast = poly.clone();
            let mut golden = poly.clone();
            plan.forward(&mut fast);
            plan.forward_golden(&mut golden);
            prop_assert_eq!(&fast, &golden, "forward {:?}", pref);
            plan.inverse(&mut fast);
            plan.inverse_golden(&mut golden);
            prop_assert_eq!(&fast, &golden, "inverse {:?}", pref);
            prop_assert_eq!(fast, poly, "roundtrip {:?}", pref);
        }
    }

    #[test]
    fn rns_engine_invariant_under_thread_count(seed in any::<u64>(), log_n in 4u32..9, limbs in 1usize..6) {
        // Batched + threaded transforms must equal the serial per-limb
        // plans for every thread fan-out.
        let n = 1usize << log_n;
        let pool = generate_ntt_primes(36, limbs, 1 << 13).expect("primes");
        let moduli: Vec<abc_math::Modulus> = pool
            .into_iter()
            .map(|q| abc_math::Modulus::new(q).expect("valid"))
            .collect();
        let original: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (0..n as u64)
                    .map(|j| seed.wrapping_mul(i as u64 + 1).wrapping_add(j * 17) % m.q())
                    .collect()
            })
            .collect();
        let mut reference = original.clone();
        for (m, limb) in moduli.iter().zip(reference.iter_mut()) {
            NttPlan::new(*m, n).expect("plan").forward(limb);
        }
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut limbs_t = original.clone();
            engine.forward_all(&mut limbs_t);
            prop_assert_eq!(&limbs_t, &reference, "threads = {}", threads);
            engine.inverse_all(&mut limbs_t);
            prop_assert_eq!(&limbs_t, &original, "threads = {}", threads);
        }
    }

    #[test]
    fn for_each_limb_invariant_under_thread_count(
        seed in any::<u64>(),
        limbs in 1usize..=6,
        log_n in prop::sample::select(vec![11u32, 12, 14]),
        elementwise in any::<bool>(),
    ) {
        // The combinator hands every limb to the closure exactly once,
        // with its own index and plan, whatever the fan-out: any
        // per-limb closure gives the serial loop's result bit for bit.
        // limbs × N lands on both sides of each cut-off — 2^14 words for
        // `Transform` (below it at N = 2^11, above from 4 limbs of
        // 2^12), 2^16 for `Elementwise` (reached by 4 limbs of 2^14) —
        // so both the calling-thread path and the spawning one run.
        let n = 1usize << log_n;
        let work = if elementwise { LimbWork::Elementwise } else { LimbWork::Transform };
        let moduli = moduli_36(limbs, n);
        let original = residues(&moduli, n, seed, 1);
        let pass = |i: usize, plan: &NttPlan, limb: &mut Vec<u64>| {
            // Depends on the index, the plan's prime and the position,
            // and does not commute with itself: a limb visited twice,
            // skipped, or paired with another limb's plan shows.
            let m = plan.modulus();
            let salt = m.reduce(seed ^ (i as u64 + 1));
            for (j, x) in limb.iter_mut().enumerate() {
                *x = m.add(m.mul(*x, salt), j as u64);
            }
        };
        let serial = RnsNttEngine::with_threads(&moduli, n, 1).expect("engine");
        let mut reference = original.clone();
        for (i, (plan, limb)) in serial.plans().iter().zip(reference.iter_mut()).enumerate() {
            pass(i, plan, limb);
        }
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut got = original.clone();
            engine.for_each_limb(&mut got, work, pass);
            prop_assert_eq!(&got, &reference, "threads = {} {:?}", threads, work);
        }
    }

    #[test]
    fn fused_rns_ops_match_unfused_sequences(seed in any::<u64>(), limbs in 1usize..6) {
        // Every engine op that fuses a chain — the named multiply-add
        // shapes, the pre-entered pair ops, the fused rescale chain and
        // an out-of-place inverse through the combinator — against the
        // unfused composition spelt with `abc_math::poly` / `Modulus`
        // ops (`u128 %`: no code shared with the dyadic kernels) and
        // each limb's own plan, for every thread fan-out.
        let n = 1usize << 12;
        let moduli = moduli_36(limbs, n);
        let gen = |salt: u64| residues(&moduli, n, seed, salt);
        let (a0, b, c, d) = (gen(3), gen(107), gen(1013), gen(10007));
        let scalars: Vec<u64> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| seed.wrapping_add(i as u64 * 31) % m.q())
            .collect();
        let coeffs64: Vec<i64> = (0..n as i64).map(|i| (i - 2048) * 12289).collect();
        let coeffs128: Vec<i128> = (0..n as i128)
            .map(|i| (i - 2048) * ((1i128 << 70) + 321))
            .collect();
        let plans: Vec<NttPlan> =
            moduli.iter().map(|&m| NttPlan::new(m, n).expect("plan")).collect();
        let apply_ref = |start: &[Vec<u64>], f: &dyn Fn(usize, &Modulus, &mut Vec<u64>)| {
            let mut out = start.to_vec();
            for (i, limb) in out.iter_mut().enumerate() {
                f(i, &moduli[i], limb);
            }
            out
        };
        let mul_ref = apply_ref(&a0, &|i, m, l| poly::mul_assign(m, l, &b[i]));
        let mul_c_ref = apply_ref(&c, &|i, m, l| poly::mul_assign(m, l, &b[i]));
        let ma_ref = apply_ref(&mul_ref, &|i, m, l| poly::add_assign(m, l, &c[i]));
        let ma2_ref = apply_ref(&ma_ref, &|i, m, l| poly::add_assign(m, l, &d[i]));
        // acc0 = a0 + d·b, acc1 = c + d·a0 (digit d, key halves b and a0).
        let acc0_ref = apply_ref(&d, &|i, m, l| {
            poly::mul_assign(m, l, &b[i]);
            poly::add_assign(m, l, &a0[i]);
        });
        let acc1_ref = apply_ref(&d, &|i, m, l| {
            poly::mul_assign(m, l, &a0[i]);
            poly::add_assign(m, l, &c[i]);
        });
        let inv_ref = apply_ref(&a0, &|i, _, l| plans[i].inverse(l));
        let rescale_ref = |tail_of: &dyn Fn(&Modulus) -> Vec<u64>| {
            apply_ref(&a0, &|i, m, l| {
                let mut tail = tail_of(m);
                plans[i].forward(&mut tail);
                for (x, &t) in l.iter_mut().zip(&tail) {
                    *x = m.mul(m.sub(*x, t), scalars[i]);
                }
            })
        };
        let rescale_ref64 = rescale_ref(&|m| coeffs64.iter().map(|&x| m.from_i64(x)).collect());
        let rescale_ref128 = rescale_ref(&|m| coeffs128.iter().map(|&x| m.from_i128(x)).collect());
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut got = a0.clone();
            engine.dyadic_mul_add_all(&mut got, &b, &c);
            prop_assert_eq!(&got, &ma_ref, "mul_add threads = {}", threads);
            let mut got = a0.clone();
            engine.dyadic_mul_add2_all(&mut got, &b, &c, &d);
            prop_assert_eq!(&got, &ma2_ref, "mul_add2 threads = {}", threads);
            let (mut p0, mut p1) = (a0.clone(), c.clone());
            engine.dyadic_mul_pair_all(&mut p0, &mut p1, &b);
            prop_assert_eq!(&p0, &mul_ref, "pair c0 threads = {}", threads);
            prop_assert_eq!(&p1, &mul_c_ref, "pair c1 threads = {}", threads);
            let (mut acc0, mut acc1) = (a0.clone(), c.clone());
            engine.dyadic_mul_acc_pair_all(&mut acc0, &mut acc1, &d, &b, &a0);
            prop_assert_eq!(&acc0, &acc0_ref, "acc pair c0 threads = {}", threads);
            prop_assert_eq!(&acc1, &acc1_ref, "acc pair c1 threads = {}", threads);
            let mut got = vec![vec![u64::MAX; n]; moduli.len()];
            engine.for_each_limb(&mut got, LimbWork::Transform, |i, plan, limb| {
                plan.inverse_from(&a0[i], limb)
            });
            prop_assert_eq!(&got, &inv_ref, "inverse_from threads = {}", threads);
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all(&mut got, &coeffs64, &scalars);
            prop_assert_eq!(&got, &rescale_ref64, "rescale i64 threads = {}", threads);
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all(&mut got, &coeffs128, &scalars);
            prop_assert_eq!(&got, &rescale_ref128, "rescale i128 threads = {}", threads);
        }
    }

    #[test]
    fn fused_pk_encrypt_matches_unfused_reference(
        seed in any::<u64>(),
        limbs in 1usize..=6,
        dropped in 0usize..6,
    ) {
        // The limb-streaming encrypt pass against the sequence it
        // replaced, rebuilt here from the public engine ops: three
        // escaping expansions, then pk0·v + e0 + m and pk1·v + e1 on
        // copies of the key — on a CKKS-shaped basis (39-bit head, 36-bit
        // rest), with the plaintext at or below the key's level, for
        // every thread fan-out (2·lvl·N ≥ 2^14 spawns from two limbs up).
        let n = 1usize << 12;
        let mut primes = generate_ntt_primes(39, 1, 1 << 13).expect("head prime");
        primes.extend(generate_ntt_primes(36, limbs - 1, 1 << 13).expect("primes"));
        let moduli: Vec<Modulus> = primes
            .into_iter()
            .map(|q| Modulus::new(q).expect("valid"))
            .collect();
        let lvl = limbs - dropped.min(limbs - 1);
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let v: Vec<i8> = (0..n).map(|_| (next() % 3) as i8 - 1).collect();
        let e0: Vec<i64> = (0..n).map(|_| (next() % 41) as i64 - 20).collect();
        let e1: Vec<i64> = (0..n).map(|_| (next() % 41) as i64 - 20).collect();
        let mut rows = |count: usize| -> Vec<Vec<u64>> {
            moduli[..count]
                .iter()
                .map(|m| (0..n).map(|_| next() % m.q()).collect())
                .collect()
        };
        let (pk0, pk1, m) = (rows(limbs), rows(limbs), rows(lvl));
        let widen = |xs: &[i64]| -> Vec<i128> { xs.iter().map(|&x| x as i128).collect() };
        let v_wide: Vec<i128> = v.iter().map(|&x| x as i128).collect();
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let v_ntt = engine.expand_and_ntt(&v_wide);
            let mut want0 = pk0[..lvl].to_vec();
            engine.dyadic_mul_add2_all(&mut want0, &v_ntt, &engine.expand_and_ntt(&widen(&e0)), &m);
            let mut want1 = pk1[..lvl].to_vec();
            engine.dyadic_mul_add_all(&mut want1, &v_ntt, &engine.expand_and_ntt(&widen(&e1)));
            let (c0, c1) = engine.pk_encrypt_all(&v, &e0, &e1, &pk0, &pk1, &m);
            prop_assert_eq!(&c0, &want0, "c0 threads = {} lvl = {}", threads, lvl);
            prop_assert_eq!(&c1, &want1, "c1 threads = {} lvl = {}", threads, lvl);
        }
    }

    #[test]
    fn special_fft_roundtrip(seed in any::<u64>(), log_slots in 1u32..9) {
        let slots = 1usize << log_slots;
        let plan = SpecialFft::new(slots);
        let z = fft_message(slots, seed);
        let mut v = z.clone();
        plan.inverse(&mut v);
        plan.forward(&mut v);
        for (a, b) in v.iter().zip(&z) {
            prop_assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn f64_and_extf64_ffts_agree(seed in any::<u64>(), log_slots in 1u32..9) {
        // The same transform on the two datapaths must agree to ~f64
        // accuracy at the f64 view: forward and inverse both within
        // 1e-12 per slot. (ExtF64 is the more accurate of the two; this
        // pins the f64 kernel's error as well as the ExtF64 plumbing.)
        let slots = 1usize << log_slots;
        let plan64 = SpecialFft::new(slots);
        let fe = ExtF64Field;
        let plan_ext = SpecialFft::with_field(fe, slots);
        let z = fft_message(slots, seed);

        let mut fwd64 = z.clone();
        plan64.forward(&mut fwd64);
        let mut fwd_ext: Vec<_> = z.iter().map(|c| c.lift_in(&fe)).collect();
        plan_ext.forward(&mut fwd_ext);
        for (a, b) in fwd64.iter().zip(&fwd_ext) {
            prop_assert!(a.dist(b.to_f64_in(&fe)) < 1e-12, "{} vs {}", a, b.to_f64_in(&fe));
        }

        let mut inv64 = z.clone();
        plan64.inverse(&mut inv64);
        let mut inv_ext: Vec<_> = z.iter().map(|c| c.lift_in(&fe)).collect();
        plan_ext.inverse(&mut inv_ext);
        for (a, b) in inv64.iter().zip(&inv_ext) {
            prop_assert!(a.dist(b.to_f64_in(&fe)) < 1e-12, "{} vs {}", a, b.to_f64_in(&fe));
        }
    }

}
