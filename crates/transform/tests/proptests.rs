//! Property-based tests for the transform layer.

use abc_float::{Complex, ExtF64Field};
use abc_math::poly::negacyclic_mul_schoolbook;
use abc_math::primes::generate_ntt_primes;
use abc_math::Modulus;
use abc_transform::radix::{MdcDesign, TransformKind};
use abc_transform::{NttPlan, OtfTwiddleGen, RnsNttEngine, SpecialFft};
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

fn arb_prime_modulus() -> impl Strategy<Value = Modulus> {
    // A pool of NTT primes at varied widths, all ≡ 1 mod 2^13.
    let mut pool = Vec::new();
    for bits in [30u32, 36, 44] {
        pool.extend(generate_ntt_primes(bits, 4, 1 << 13).expect("primes exist"));
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
    fn otf_equals_table_on_random_queries(m in arb_prime_modulus(), idx in any::<u64>()) {
        use abc_transform::twiddle::{TwiddleSource, TwiddleTable};
        let n = 512usize;
        let table = TwiddleTable::new(m, n).expect("table");
        let otf = OtfTwiddleGen::with_psi(m, n, table.psi()).expect("otf");
        let mut mm = 1usize;
        while mm < n {
            let i = (idx as usize) % mm;
            prop_assert_eq!(table.forward(mm, i), otf.forward(mm, i));
            prop_assert_eq!(table.inverse(mm, i), otf.inverse(mm, i));
            mm <<= 1;
        }
    }

    #[test]
    fn fast_kernels_are_bit_identical_to_golden(m in arb_prime_modulus(), seed in any::<u64>(), log_n in 2u32..10) {
        // `forward`/`inverse` take a fast kernel (scalar Harvey forced,
        // plus whatever Auto picks — IFMA on capable machines);
        // `forward_with`/`inverse_with` on the same table run the golden
        // scalar kernel. Outputs must match bit for bit.
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
            plan.forward_with(plan.table(), &mut golden);
            prop_assert_eq!(&fast, &golden, "forward {:?}", pref);
            plan.inverse(&mut fast);
            plan.inverse_with(plan.table(), &mut golden);
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
    fn rns_dyadic_ops_invariant_under_thread_count(seed in any::<u64>(), limbs in 1usize..6) {
        // The engine-wide dyadic calls must equal the serial per-limb
        // DyadicEngine loop for every thread fan-out, bit for bit.
        // limbs × N reaches 5 × 2^14 > DYADIC_PARALLEL_THRESHOLD
        // (= 2^16), so the widest cases really spawn threads.
        let n = 1usize << 14;
        let pool = generate_ntt_primes(36, limbs, 1 << 15).expect("primes");
        let moduli: Vec<Modulus> = pool
            .into_iter()
            .map(|q| Modulus::new(q).expect("valid"))
            .collect();
        let gen = |salt: u64| -> Vec<Vec<u64>> {
            moduli
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    (0..n as u64)
                        .map(|j| seed.wrapping_mul(salt + i as u64).wrapping_add(j * 23) % m.q())
                        .collect()
                })
                .collect()
        };
        let (a0, b, c) = (gen(1), gen(101), gen(1009));
        let scalars: Vec<u64> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| seed.wrapping_add(i as u64) % m.q())
            .collect();
        // Serial reference through each plan's own dyadic engine.
        let plans: Vec<NttPlan> = moduli.iter().map(|&m| NttPlan::new(m, n).expect("plan")).collect();
        let apply_ref = |f: &dyn Fn(usize, &mut Vec<u64>)| -> Vec<Vec<u64>> {
            let mut out = a0.clone();
            for (i, limb) in out.iter_mut().enumerate() {
                f(i, limb);
            }
            out
        };
        let mul_ref = apply_ref(&|i, l| plans[i].dyadic().mul_assign(l, &b[i]));
        let fused_ref = apply_ref(&|i, l| plans[i].dyadic().mul_add_assign(l, &b[i], &c[i]));
        let scaled_ref = apply_ref(&|i, l| plans[i].dyadic().scalar_mul_assign(l, scalars[i]));
        let sub_ref = apply_ref(&|i, l| plans[i].dyadic().sub_assign(l, &b[i]));
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut mul = a0.clone();
            engine.dyadic_mul_all(&mut mul, &b);
            prop_assert_eq!(&mul, &mul_ref, "mul threads = {}", threads);
            let mut fused = a0.clone();
            engine.dyadic_mul_add_all(&mut fused, &b, &c);
            prop_assert_eq!(&fused, &fused_ref, "mul_add threads = {}", threads);
            let mut scaled = a0.clone();
            engine.dyadic_scalar_mul_all(&mut scaled, &scalars);
            prop_assert_eq!(&scaled, &scaled_ref, "scalar threads = {}", threads);
            let mut sub = a0.clone();
            engine.sub_assign_all(&mut sub, &b);
            prop_assert_eq!(&sub, &sub_ref, "sub threads = {}", threads);
            // The pair call (premul amortized over two components)
            // equals two plain engine-wide muls.
            let (mut p0, mut p1) = (a0.clone(), c.clone());
            engine.dyadic_mul_pair_all(&mut p0, &mut p1, &b);
            prop_assert_eq!(&p0, &mul_ref, "pair c0 threads = {}", threads);
            let mut p1_ref = c.clone();
            engine.dyadic_mul_all(&mut p1_ref, &b);
            prop_assert_eq!(&p1, &p1_ref, "pair c1 threads = {}", threads);
        }
    }

    #[test]
    fn fused_rns_ops_match_unfused_sequences(seed in any::<u64>(), limbs in 1usize..6) {
        // Every fused engine-wide chain op — the encrypt/keygen
        // −(a·b)+c(+d) shapes, the fused rescale chain, and the
        // NTT-edge fused entries — must be bit-identical to the serial
        // composition of the unfused per-limb calls it replaces, for
        // every thread fan-out.
        let n = 1usize << 12;
        let pool = generate_ntt_primes(36, limbs, 1 << 13).expect("primes");
        let moduli: Vec<Modulus> = pool
            .into_iter()
            .map(|q| Modulus::new(q).expect("valid"))
            .collect();
        let gen = |salt: u64| -> Vec<Vec<u64>> {
            moduli
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    (0..n as u64)
                        .map(|j| seed.wrapping_mul(salt + i as u64).wrapping_add(j * 29) % m.q())
                        .collect()
                })
                .collect()
        };
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
        let apply_ref = |f: &dyn Fn(usize, &mut Vec<u64>)| -> Vec<Vec<u64>> {
            let mut out = a0.clone();
            for (i, limb) in out.iter_mut().enumerate() {
                f(i, limb);
            }
            out
        };
        let mna_ref = apply_ref(&|i, l| {
            let dy = plans[i].dyadic();
            dy.mul_assign(l, &b[i]);
            dy.neg_assign(l);
            dy.add_assign(l, &c[i]);
        });
        let mna2_ref = apply_ref(&|i, l| {
            let dy = plans[i].dyadic();
            dy.mul_assign(l, &b[i]);
            dy.neg_assign(l);
            dy.add_assign(l, &c[i]);
            dy.add_assign(l, &d[i]);
        });
        let ma2_ref = apply_ref(&|i, l| {
            let dy = plans[i].dyadic();
            dy.mul_add_assign(l, &b[i], &c[i]);
            dy.add_assign(l, &d[i]);
        });
        let inv_ref = apply_ref(&|i, l| plans[i].inverse(l));
        let expand_ref64 = apply_ref(&|i, l| {
            let m = plans[i].modulus();
            let mut tail: Vec<u64> = coeffs64.iter().map(|&x| m.from_i64(x)).collect();
            plans[i].forward(&mut tail);
            let dy = plans[i].dyadic();
            dy.sub_assign(l, &tail);
            dy.scalar_mul_assign(l, scalars[i]);
        });
        let expand_ref128 = apply_ref(&|i, l| {
            let m = plans[i].modulus();
            let mut tail: Vec<u64> = coeffs128.iter().map(|&x| m.from_i128(x)).collect();
            plans[i].forward(&mut tail);
            let dy = plans[i].dyadic();
            dy.sub_assign(l, &tail);
            dy.scalar_mul_assign(l, scalars[i]);
        });
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let mut got = a0.clone();
            engine.dyadic_mul_neg_add_all(&mut got, &b, &c);
            prop_assert_eq!(&got, &mna_ref, "mul_neg_add threads = {}", threads);
            let mut got = a0.clone();
            engine.dyadic_mul_neg_add2_all(&mut got, &b, &c, &d);
            prop_assert_eq!(&got, &mna2_ref, "mul_neg_add2 threads = {}", threads);
            let mut got = a0.clone();
            engine.dyadic_mul_add2_all(&mut got, &b, &c, &d);
            prop_assert_eq!(&got, &ma2_ref, "mul_add2 threads = {}", threads);
            let mut got = vec![vec![u64::MAX; n]; moduli.len()];
            engine.inverse_all_from(&a0, &mut got);
            prop_assert_eq!(&got, &inv_ref, "inverse_from threads = {}", threads);
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all_i64(&mut got, &coeffs64, &scalars);
            prop_assert_eq!(&got, &expand_ref64, "expand i64 threads = {}", threads);
            let mut got = a0.clone();
            engine.expand_ntt_sub_scalar_mul_all_i128(&mut got, &coeffs128, &scalars);
            prop_assert_eq!(&got, &expand_ref128, "expand i128 threads = {}", threads);
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

    #[test]
    fn merged_design_never_beaten(s in 4u32..20, p_exp in 1u32..6) {
        let p = 1u32 << p_exp;
        let merged = MdcDesign::radix_2n(s).multiplier_count(p, TransformKind::Ntt);
        for k in 1..=4u32.min(s) {
            let d = MdcDesign::radix_2k(s, k);
            prop_assert!(d.multiplier_count(p, TransformKind::Ntt) > merged);
            prop_assert!(d.multiplier_count(p, TransformKind::Fft) > merged);
        }
        // Merged hits exactly the theoretical minimum.
        prop_assert_eq!(merged, (p / 2 * s) as f64);
    }
}
