//! Property-based tests for the math substrate: both scalar reducers
//! agree with the `u128` golden model, RNS decompose/combine round-trips, the word-sized CRT lift agrees
//! with the big-integer one on both rungs, wherever it verifies and wherever it does not,
//! division-free RNS expansion agrees with `Modulus::from_i128`, and every element-wise
//! op and tail of the `Simd` dyadic engine equals the `Scalar` one at every length.

use abc_math::dyadic::{DyadicEngine, Tail};
use abc_math::primes::{generate_ntt_primes, is_prime};
use abc_math::reduce::{Barrett, Montgomery};
use abc_math::rns::{SignedCoeffs, SignedWord, WordLift};
use abc_math::{poly, shoup, CpuCaps, KernelTier, Modulus, RnsBasis, UBig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A strategy producing odd moduli across the full supported range.
fn arb_modulus() -> impl Strategy<Value = Modulus> {
    (2u64..(1 << 62))
        .prop_map(|x| x | 1)
        .prop_filter("q >= 3", |&q| q >= 3)
        .prop_map(|q| Modulus::new(q).expect("odd q in range"))
}

/// A strategy of real NTT primes spanning the whole Shoup-supported
/// width range (36–62 bits, all ≡ 1 mod 2^13).
fn arb_ntt_prime() -> impl Strategy<Value = Modulus> {
    let mut pool = Vec::new();
    for bits in [36u32, 40, 44, 50, 56, 62] {
        pool.extend(generate_ntt_primes(bits, 2, 1 << 13).expect("primes exist at this width"));
    }
    prop::sample::select(pool).prop_map(|q| Modulus::new(q).expect("generated primes are valid"))
}

proptest! {
    #[test]
    fn barrett_agrees_with_reference(m in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let a = a % m.q();
        let b = b % m.q();
        let barrett = Barrett::new(m);
        prop_assert_eq!(barrett.reduce(a as u128 * b as u128), m.mul(a, b));
    }

    #[test]
    fn montgomery_agrees_with_reference(m in arb_modulus(), a in any::<u64>(), b in any::<u64>()) {
        let a = a % m.q();
        let b = b % m.q();
        let mont = Montgomery::new(m);
        prop_assert_eq!(mont.mont_mul(a, mont.to_mont(b)), m.mul(a, b));
        prop_assert_eq!(mont.from_mont(mont.to_mont(a)), a);
    }

    #[test]
    fn mul_shoup_agrees_with_reference(m in arb_ntt_prime(), a in any::<u64>(), w in any::<u64>()) {
        // The Shoup path must equal the u128 golden model for every
        // NTT prime width the transform layer supports (36–62 bits).
        let q = m.q();
        let w = w % q;
        let ws = shoup::shoup_precompute(w, q);
        prop_assert_eq!(shoup::mul_shoup(a % q, w, ws, q), m.mul(a % q, w));
        // The lazy variant accepts *unreduced* operands: still congruent
        // and still inside [0, 2q).
        let lazy = shoup::mul_shoup_lazy(a, w, ws, q);
        prop_assert!(lazy < 2 * q);
        prop_assert_eq!(lazy % q, ((a as u128 * w as u128) % q as u128) as u64);
    }

    #[test]
    fn shoup_lazy_helpers_are_congruent(m in arb_ntt_prime(), a in any::<u64>(), b in any::<u64>()) {
        let q = m.q();
        let two_q = 2 * q;
        let (a, b) = (a % two_q, b % two_q);
        let s = shoup::add_lazy(a, b, two_q);
        prop_assert!(s < two_q);
        prop_assert_eq!(s % q, ((a as u128 + b as u128) % q as u128) as u64);
        let d = shoup::sub_lazy(a, b, two_q);
        prop_assert!(d < 4 * q);
        prop_assert_eq!(d % q, m.sub(a % q, b % q));
        prop_assert_eq!(shoup::normalize_4q(d, q), m.sub(a % q, b % q));
    }

    #[test]
    fn modular_ring_axioms(m in arb_modulus(), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (a % m.q(), b % m.q(), c % m.q());
        // Commutativity and associativity of add.
        prop_assert_eq!(m.add(a, b), m.add(b, a));
        prop_assert_eq!(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
        // Distributivity.
        prop_assert_eq!(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
        // Subtraction inverts addition.
        prop_assert_eq!(m.sub(m.add(a, b), b), a);
    }

    #[test]
    fn ubig_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let ua = UBig::from(a);
        let ub = UBig::from(b);
        let s = ua.add(&ub);
        prop_assert_eq!(s.sub(&ub), ua.clone());
        prop_assert_eq!(s.sub(&ua), ub);
    }

    #[test]
    fn ubig_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let p = UBig::from(a).mul_u64(b);
        prop_assert_eq!(p, UBig::from(a as u128 * b as u128));
    }

    #[test]
    fn ubig_rem_matches_u128(a in any::<u128>(), m in 1u64..) {
        prop_assert_eq!(UBig::from(a).rem_u64(m), (a % m as u128) as u64);
    }

    #[test]
    fn ubig_full_mul_and_div_roundtrip(a in any::<u128>(), b in any::<u64>()) {
        // (a·b) / b == a with zero remainder, and a general mul agrees
        // with the single-limb one.
        prop_assume!(b != 0);
        let p = UBig::from(a).mul(&UBig::from(b));
        prop_assert_eq!(&p, &UBig::from(a).mul_u64(b));
        let (q, r) = p.div_rem_u64(b);
        prop_assert_eq!(q, UBig::from(a));
        prop_assert_eq!(r, 0);
    }

    #[test]
    fn ubig_shift_is_pow2_mul(a in any::<u128>(), s in 0u32..130) {
        let x = UBig::from(a);
        let shifted = x.shl(s);
        // shl(s) == repeated doubling; shr undoes it exactly.
        let mut doubled = x.clone();
        for _ in 0..s {
            doubled = doubled.mul_u64(2);
        }
        prop_assert_eq!(&shifted, &doubled);
        prop_assert_eq!(shifted.shr(s), x);
    }

    #[test]
    fn poly_dyadic_barrett_path_matches_golden(
        m in arb_ntt_prime(),
        seed in any::<u64>(),
    ) {
        // Barrett (the Table I reducer `abc-hw` prices) on the dyadic
        // products and their fused form, and the `poly` oracle the
        // dyadic kernels are checked against, must agree with the u128
        // `%` golden model element-wise over every supported NTT-prime
        // width (36–62 bits).
        let q = m.q();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state % q
        };
        let mut a: Vec<u64> = (0..64).map(|_| next()).collect();
        let mut b: Vec<u64> = (0..64).map(|_| next()).collect();
        let mut c: Vec<u64> = (0..64).map(|_| next()).collect();
        // Pin the extremes: the worst-case product and the zero element.
        (a[0], b[0], c[0]) = (q - 1, q - 1, q - 1);
        (a[1], b[1], c[1]) = (0, q - 1, 0);
        let barrett = Barrett::new(m);
        let mut got = a.clone();
        poly::mul_assign(&m, &mut got, &b);
        let mut fused = a.clone();
        poly::mul_add_assign(&m, &mut fused, &b, &c);
        for i in 0..a.len() {
            let ab = a[i] as u128 * b[i] as u128;
            let abc = ab + c[i] as u128;
            prop_assert_eq!(got[i], (ab % q as u128) as u64);
            prop_assert_eq!(barrett.reduce(ab), got[i]);
            prop_assert_eq!(fused[i], (abc % q as u128) as u64);
            prop_assert_eq!(barrett.reduce(abc), fused[i]);
        }
    }

    #[test]
    fn dyadic_engine_kernels_bit_identical_to_golden(
        m in arb_ntt_prime(),
        seed in any::<u64>(),
    ) {
        // Every DyadicEngine kernel — scalar Montgomery and IFMA
        // (which degrades to Montgomery at q ≥ 2^50 and off-IFMA
        // hosts) — must equal the u128 `%` model
        // element-wise over the full supported NTT-prime width range
        // (36–62 bits). Length 37 exercises the 8-lane vector body and
        // a 5-element scalar tail.
        let q = m.q();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state % q
        };
        let mut a: Vec<u64> = (0..37).map(|_| next()).collect();
        let mut b: Vec<u64> = (0..37).map(|_| next()).collect();
        let c: Vec<u64> = (0..37).map(|_| next()).collect();
        // Pin the extremes alongside the random body.
        (a[0], b[0]) = (q - 1, q - 1);
        (a[1], b[1]) = (0, q - 1);
        (a[2], b[2]) = (1, q - 1);
        for pref in [KernelTier::Auto, KernelTier::Scalar, KernelTier::Simd] {
            let e = DyadicEngine::with_kernel(m, pref);
            if q >= shoup::MAX_SHOUP52_MODULUS {
                // The IFMA-fallback boundary: q ≥ 2^50 must never
                // dispatch to the 52-bit kernel.
                prop_assert_ne!(e.kernel_name(), "ifma");
            }
            let mut mul = a.clone();
            e.mul_assign(&mut mul, &b);
            let mut fused = a.clone();
            e.mul_add_assign(&mut fused, &b, &c);
            let mut pre = b.clone();
            e.premul(&mut pre);
            let mut premul = a.clone();
            e.mul_assign_premul(&mut premul, &pre);
            for i in 0..a.len() {
                let ab = (a[i] as u128 * b[i] as u128 % q as u128) as u64;
                prop_assert_eq!(mul[i], ab, "mul {:?} q={} i={}", pref, q, i);
                prop_assert_eq!(premul[i], ab, "premul {:?} q={} i={}", pref, q, i);
                prop_assert_eq!(
                    fused[i],
                    ((a[i] as u128 * b[i] as u128 + c[i] as u128) % q as u128) as u64,
                    "mul_add {:?} q={} i={}", pref, q, i
                );
            }
        }
    }
    #[test]
    fn fused_dyadic_kernels_bit_identical_to_unfused_composition(
        m in arb_ntt_prime(),
        seed in any::<u64>(),
        s in any::<u64>(),
    ) {
        // Every fused chain kernel — the keygen/encrypt −(a·b)+c(+d)
        // shapes, the rescale (a−b)·s shape and
        // premultiplied accumulation — must be bit-identical to the
        // composition of the unfused ops it replaces, composed from the
        // independent `Modulus` oracle in `abc_math::poly`, on every
        // kernel (Montgomery, IFMA with its q ≥ 2^50 degradation) over
        // the full 36–62-bit NTT-prime range.
        let q = m.q();
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state % q
        };
        let mut a: Vec<u64> = (0..37).map(|_| next()).collect();
        let mut b: Vec<u64> = (0..37).map(|_| next()).collect();
        let mut c: Vec<u64> = (0..37).map(|_| next()).collect();
        let d: Vec<u64> = (0..37).map(|_| next()).collect();
        (a[0], b[0], c[0]) = (q - 1, q - 1, q - 1);
        (a[1], b[1], c[1]) = (0, q - 1, 0);
        (a[2], b[2], c[2]) = (1, q - 1, q - 1);
        for pref in [KernelTier::Auto, KernelTier::Scalar, KernelTier::Simd] {
            let e = DyadicEngine::with_kernel(m, pref);
            if q >= shoup::MAX_SHOUP52_MODULUS {
                prop_assert_ne!(e.kernel_name(), "ifma");
            }
            // c + d − a·b (and its single-addend form) vs mul/neg/add.
            let mut mna = a.clone();
            poly::mul_assign(&m, &mut mna, &b);
            poly::neg_assign(&m, &mut mna);
            poly::add_assign(&m, &mut mna, &c);
            let mut got = a.clone();
            e.apply_tail(&mut c.clone(), Tail::NegMulAdd { dst: &mut got, s: &b, t: None });
            prop_assert_eq!(&got, &mna, "neg_mul_add {:?} q={}", pref, q);
            let mut mna2 = mna.clone();
            poly::add_assign(&m, &mut mna2, &d);
            let mut got = a.clone();
            e.apply_tail(&mut c.clone(), Tail::NegMulAdd { dst: &mut got, s: &b, t: Some(&d) });
            prop_assert_eq!(&got, &mna2, "neg_mul_add2 {:?} q={}", pref, q);
            // a·b + c + d vs mul_add/add.
            let mut ma2 = a.clone();
            poly::mul_add_assign(&m, &mut ma2, &b, &c);
            poly::add_assign(&m, &mut ma2, &d);
            let mut got = a.clone();
            e.mul_add2_assign(&mut got, &b, &c, &d);
            prop_assert_eq!(&got, &ma2, "mul_add2 {:?} q={}", pref, q);
            // (a − b)·s vs sub/scalar_mul (any u64 s, reduced on entry).
            let mut ssm = a.clone();
            poly::sub_assign(&m, &mut ssm, &b);
            poly::scalar_mul_assign(&m, &mut ssm, s);
            let mut got = a.clone();
            e.apply_tail(&mut b.clone(), Tail::SubScalarMul { dst: &mut got, w: s });
            prop_assert_eq!(&got, &ssm, "sub_scalar_mul {:?} q={}", pref, q);
            // acc += b·d via the premultiplied fused accumulate vs
            // mul + add.
            let mut d_pre = d.clone();
            e.premul(&mut d_pre);
            let mut acc_ref = b.clone();
            poly::mul_assign(&m, &mut acc_ref, &d);
            poly::add_assign(&m, &mut acc_ref, &a);
            let mut got = a.clone();
            e.mul_acc_assign_premul(&mut got, &b, &d_pre);
            prop_assert_eq!(&got, &acc_ref, "mul_acc_premul {:?} q={}", pref, q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rns_roundtrip_random_values(x in any::<i64>()) {
        let basis = RnsBasis::new(generate_ntt_primes(36, 4, 1 << 14).expect("primes"))
            .expect("basis");
        let residues: Vec<u64> = basis.moduli().iter().map(|m| m.from_i128(x as i128)).collect();
        let got = basis.combine_centered_big_with_product(&residues, &basis.product());
        prop_assert_eq!(got, (x < 0, UBig::from(x.unsigned_abs())));
    }

    #[test]
    fn generated_primes_are_prime(bits in 30u32..45) {
        let qs = generate_ntt_primes(bits, 2, 1 << 14).expect("primes exist at this width");
        for q in qs {
            prop_assert!(is_prime(q));
            prop_assert_eq!(64 - q.leading_zeros(), bits);
            prop_assert_eq!((q - 1) % (1 << 14), 0);
        }
    }
}

/// The first `limbs` primes of a CKKS-shaped basis (a 39-bit head prime,
/// then 36-bit primes: the word prefix is three moduli, ≈ 2^111) or of a
/// 60-bit basis (the prefix stops at two moduli, 2^120).
fn lift_basis(wide: bool, limbs: usize) -> RnsBasis {
    let primes = if wide {
        generate_ntt_primes(60, 24, 1 << 14).expect("60-bit primes")
    } else {
        let mut p = generate_ntt_primes(39, 1, 1 << 14).expect("head prime");
        p.extend(generate_ntt_primes(36, 23, 1 << 14).expect("36-bit primes"));
        p
    };
    RnsBasis::new(primes[..limbs].to_vec()).expect("coprime primes")
}

/// `(Q_k, k)`: the product of the word prefix the lift must choose, and
/// its length.
fn word_prefix(basis: &RnsBasis) -> (u128, usize) {
    let mut product = 1u128;
    let mut k = 0;
    for m in basis.moduli().iter().take(3) {
        match product.checked_mul(m.q() as u128) {
            Some(p) if p < 1 << 127 => product = p,
            _ => break,
        }
        k += 1;
    }
    (product, k)
}

/// Residues of `±mag`, one single-coefficient column per value, as the
/// limb-major rows the lift reads.
fn limb_rows(basis: &RnsBasis, values: &[(bool, UBig)]) -> Vec<Vec<u64>> {
    basis
        .moduli()
        .iter()
        .map(|m| {
            values
                .iter()
                .map(|(negative, mag)| {
                    let r = mag.rem_u64(m.q());
                    if *negative {
                        m.neg(r)
                    } else {
                        r
                    }
                })
                .collect()
        })
        .collect()
}

/// Both rungs of the word lift of `basis`: `Simd` (the IFMA kernel where
/// the host and every modulus allow it) and `Scalar`.
fn lift_rungs(basis: &RnsBasis) -> [WordLift; 2] {
    let simd = WordLift::with_kernel(basis.clone(), KernelTier::Simd);
    if basis
        .moduli()
        .iter()
        .any(|m| m.q() >= shoup::MAX_SHOUP52_MODULUS)
    {
        assert_eq!(simd.kernel_name(), "scalar");
    }
    [
        simd,
        WordLift::with_kernel(basis.clone(), KernelTier::Scalar),
    ]
}

/// Lifts `rows` through the word lift on both rungs and checks every
/// coefficient, sign and magnitude, against the big-integer Garner lift;
/// returns which coefficients took the fallback (the same on both).
fn lift_and_check(basis: &RnsBasis, rows: &[Vec<u64>]) -> Result<Vec<bool>, TestCaseError> {
    let product = basis.product();
    let mut rungs = Vec::new();
    for lift in lift_rungs(basis) {
        let kernel = lift.kernel_name();
        let mut got = Vec::new();
        let fell_back = lift.lift_blocks(rows, |block| {
            assert_eq!(block.start(), got.len(), "coefficients arrive in order");
            let mut big = block.fell_back().peekable();
            for (i, &x) in block.words().iter().enumerate() {
                got.push(if big.next_if_eq(&i).is_some() {
                    let (negative, mag) = block.big(i);
                    (negative, mag, true)
                } else {
                    (x < 0, UBig::from(x.unsigned_abs()), false)
                });
            }
        });
        prop_assert_eq!(got.len(), rows[0].len());
        for (j, (negative, mag, _)) in got.iter().enumerate() {
            let residues: Vec<u64> = rows.iter().map(|row| row[j]).collect();
            let want = basis.combine_centered_big_with_product(&residues, &product);
            prop_assert_eq!(
                (*negative, mag),
                (want.0, &want.1),
                "{} coefficient {}",
                kernel,
                j
            );
        }
        let flags: Vec<bool> = got.into_iter().map(|g| g.2).collect();
        prop_assert_eq!(
            flags.iter().filter(|&&f| f).count(),
            fell_back,
            "{}",
            kernel
        );
        rungs.push(flags);
    }
    prop_assert_eq!(
        &rungs[0],
        &rungs[1],
        "the rungs fall back on the same coefficients"
    );
    Ok(rungs.swap_remove(0))
}

/// The bases the two rungs are compared on: word prefixes of one, two
/// and three moduli that are the whole basis, a 49-bit basis whose
/// prefix stops at two with two limbs to check, and the paper's
/// 24-prime chain (three, then 21 checks).
fn rung_bases() -> Vec<RnsBasis> {
    let wide = generate_ntt_primes(49, 4, 1 << 14).expect("49-bit primes");
    vec![
        lift_basis(false, 1),
        lift_basis(false, 2),
        lift_basis(false, 3),
        RnsBasis::new(wide).expect("coprime primes"),
        lift_basis(false, 24),
    ]
}

#[test]
fn word_lift_rungs_agree_on_the_edges_at_every_length() {
    for basis in rung_bases() {
        let (prefix_product, k) = word_prefix(&basis);
        let half = UBig::from(prefix_product / 2);
        let past = half.add(&UBig::one());
        let edges: Vec<(bool, UBig)> = [UBig::zero(), UBig::one(), half, past.clone()]
            .into_iter()
            .flat_map(|mag| [(false, mag.clone()), (!mag.is_zero(), mag)])
            .chain([
                (true, UBig::from(12345u64)),
                (false, UBig::from(1u64 << 40)),
            ])
            .collect();
        // Every tail length of the 8-lane groups, and lengths either
        // side of powers of two across the lift's 256-coefficient block.
        let lengths = (0..=17).chain((4..=10).flat_map(|k| [(1 << k) - 3, (1 << k) + 3]));
        for len in lengths {
            let values: Vec<(bool, UBig)> = edges.iter().cloned().cycle().take(len).collect();
            let flags = lift_and_check(&basis, &limb_rows(&basis, &values)).unwrap();
            // One past ⌊Q_k/2⌋ falls back exactly when limbs are left to
            // check; everything else verifies.
            let beyond = basis.len() > k;
            let want: Vec<bool> = values
                .iter()
                .map(|(_, mag)| beyond && *mag == past)
                .collect();
            assert_eq!(flags, want, "{} limbs, length {len}", basis.len());
        }
    }
}

#[test]
fn word_lift_falls_back_one_lane_of_a_verified_group() {
    // Lane 3 of the second 8-lane group lies past the prefix; its
    // neighbours, and the whole first group, verify.
    for basis in rung_bases().into_iter().skip(3) {
        let (prefix_product, _) = word_prefix(&basis);
        let mut values: Vec<(bool, UBig)> = (0..16u64)
            .map(|j| (j % 3 == 0, UBig::from(j * 1_000_003)))
            .collect();
        values[11] = (true, UBig::from(prefix_product / 2 + 7));
        let flags = lift_and_check(&basis, &limb_rows(&basis, &values)).unwrap();
        let want: Vec<bool> = (0..16).map(|j| j == 11).collect();
        assert_eq!(flags, want, "{} limbs", basis.len());
    }
}

/// A SplitMix64 stream for the cases that need many values per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn word_lift_small_values_never_fall_back(
        wide in any::<bool>(),
        limbs in 1usize..=24,
        seed in any::<u64>(),
    ) {
        // 300 values: more than one lift block, with a ragged tail.
        let basis = lift_basis(wide, limbs);
        let (prefix_product, _) = word_prefix(&basis);
        // Magnitudes of every width up to the one ⌊Q_k/2⌋ has, exclusive.
        let max_width = 127 - (prefix_product / 2).leading_zeros() as u64;
        let mut state = seed;
        let values: Vec<(bool, UBig)> = (0..300)
            .map(|_| {
                let word = (splitmix(&mut state) as u128) << 64 | splitmix(&mut state) as u128;
                let mag = word >> (128 - splitmix(&mut state) % max_width - 1);
                (splitmix(&mut state) & 1 == 1 && mag != 0, UBig::from(mag))
            })
            .collect();
        let flags = lift_and_check(&basis, &limb_rows(&basis, &values))?;
        prop_assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn word_lift_centring_boundaries(wide in any::<bool>(), limbs in 1usize..=24) {
        let basis = lift_basis(wide, limbs);
        let (prefix_product, k) = word_prefix(&basis);
        let half = UBig::from(prefix_product / 2);
        let past = half.add(&UBig::one());
        let values = [
            (false, half.clone()),
            (true, half),
            (false, past.clone()),
            (true, past),
        ];
        let flags = lift_and_check(&basis, &limb_rows(&basis, &values))?;
        // ±⌊Q_k/2⌋ is the last value the prefix holds. One past it wraps
        // to the other sign when the prefix is the whole basis, and is
        // the first value only the fallback can represent otherwise.
        let beyond = limbs > k;
        prop_assert_eq!(flags, vec![false, false, beyond, beyond]);
    }

    #[test]
    fn word_lift_past_the_prefix_falls_back(
        wide in any::<bool>(),
        limbs in 4usize..=24,
        offsets in (any::<u64>(), any::<u64>(), any::<u64>()),
        signs in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        // ⌊Q_k/2⌋ + 1 + offset: past the prefix range, far inside Q/2.
        let basis = lift_basis(wide, limbs);
        let (prefix_product, _) = word_prefix(&basis);
        let first_past = UBig::from(prefix_product / 2).add(&UBig::one());
        let values: Vec<(bool, UBig)> = [(offsets.0, signs.0), (offsets.1, signs.1), (offsets.2, signs.2)]
            .into_iter()
            .map(|(offset, negative)| (negative, first_past.add(&UBig::from(offset))))
            .collect();
        let flags = lift_and_check(&basis, &limb_rows(&basis, &values))?;
        prop_assert!(flags.iter().all(|&f| f));
    }

    #[test]
    fn word_lift_random_residues(wide in any::<bool>(), limbs in 1usize..=24, seed in any::<u64>()) {
        // A uniform residue vector is a uniform value mod Q: inside the
        // prefix range with probability Q_k/Q, which is 1 or < 2^-35.
        let basis = lift_basis(wide, limbs);
        let (_, k) = word_prefix(&basis);
        let mut state = seed;
        let rows: Vec<Vec<u64>> = basis
            .moduli()
            .iter()
            .map(|m| (0..300).map(|_| splitmix(&mut state) % m.q()).collect())
            .collect();
        let flags = lift_and_check(&basis, &rows)?;
        prop_assert!(flags.iter().all(|&f| f == (limbs > k)));
        if limbs <= k {
            let product = basis.product();
            for lift in lift_rungs(&basis) {
                let mut xs = vec![0i128; 300];
                lift.lift_centered_i128(&rows, &mut xs);
                for (j, &x) in xs.iter().enumerate() {
                    let residues: Vec<u64> = rows.iter().map(|row| row[j]).collect();
                    let (negative, mag) = basis.combine_centered_big_with_product(&residues, &product);
                    prop_assert_eq!((x < 0, UBig::from(x.unsigned_abs())), (negative, mag));
                }
            }
        }
    }
}

/// The moduli expansion is pinned on: the 39-bit head prime and a 36-bit
/// prime of a CKKS basis, a 49-bit NTT prime (the widest the IFMA rung
/// takes), and the widest odd modulus the datapath admits, where the
/// Shoup fold runs at its bound and the vector rung must degrade.
fn expansion_moduli() -> [Modulus; 4] {
    let basis = lift_basis(false, 2);
    let q49 = generate_ntt_primes(49, 1, 1 << 14).expect("49-bit prime")[0];
    let q49 = Modulus::new(q49).expect("odd, below 2^50");
    let widest = Modulus::new((1 << 62) - 57).expect("odd, below 2^62");
    [basis.moduli()[0], basis.moduli()[1], q49, widest]
}

/// Both rungs of expansion under `m`: `Simd` (the IFMA kernel where the
/// host and `q` allow it) and `Scalar`.
fn expansion_engines(m: Modulus) -> [DyadicEngine; 2] {
    let simd = DyadicEngine::with_kernel(m, KernelTier::Simd);
    if m.q() >= shoup::MAX_SHOUP52_MODULUS {
        assert_eq!(simd.kernel_name(), "montgomery", "q = {}", m.q());
    }
    [simd, DyadicEngine::with_kernel(m, KernelTier::Scalar)]
}

/// Expands `coeffs` under `m` on both rungs and checks every residue
/// against the dividing oracle; returns the slice's scanned magnitude.
fn expand_and_check<X>(m: &Modulus, coeffs: &[X]) -> Result<u128, TestCaseError>
where
    X: SignedWord + core::fmt::Debug,
{
    let src = SignedCoeffs::scan(coeffs);
    let want: Vec<u64> = coeffs.iter().map(|&x| m.from_i128(x.into())).collect();
    for engine in expansion_engines(*m) {
        // Stale contents and a wrong length: the refill must not care.
        let mut got = vec![u64::MAX; 3];
        engine.expand_into(&src, &mut got);
        let kernel = engine.kernel_name();
        prop_assert_eq!(
            &got,
            &want,
            "{} q = {}, coeffs = {:?}",
            kernel,
            m.q(),
            coeffs
        );
    }
    Ok(src.max_abs())
}

/// The first `len` elements of `values` repeated.
fn cycled<X: Copy>(values: &[X], len: usize) -> Vec<X> {
    values.iter().copied().cycle().take(len).collect()
}

#[test]
fn expansion_named_values_match_the_oracle() {
    for m in expansion_moduli() {
        let q = m.q() as i128;
        let magnitudes = [0, 1, q - 1, q, (1 << 63) - 1, 1 << 64, (1 << 120) - 1];
        let mut wide: Vec<i128> = magnitudes.iter().flat_map(|&x| [x, -x]).collect();
        // −k·2^64: a zero low word, so negation carries into the high one.
        wide.extend([-(1 << 64), -(3 << 64), -(5 << 100), i128::MIN + 1]);
        // All at once (the widest value picks the path for the slice),
        // then one at a time (each value picks its own, across a vector
        // block and a tail).
        assert_eq!(expand_and_check(&m, &wide).unwrap(), i128::MAX as u128);
        for &x in &wide {
            assert_eq!(expand_and_check(&m, &[x; 11]).unwrap(), x.unsigned_abs());
        }
        let words: Vec<i64> = wide
            .iter()
            .filter_map(|&x| i64::try_from(x).ok())
            .chain([i64::MIN])
            .collect();
        for &x in &words {
            expand_and_check(&m, &[x; 11]).unwrap();
            assert_eq!(m.from_i64(x), m.from_i128(x as i128), "the two oracles");
        }
        expand_and_check(&m, &words).unwrap();
        let ternary = [-1i8, 0, 1, i8::MIN, i8::MAX];
        expand_and_check(&m, &ternary).unwrap();
        assert_eq!(expand_and_check::<i8>(&m, &[]).unwrap(), 0);
        // Below q at every width: the sign-select path.
        let narrow = [0, 1, -1, q - 1, 1 - q, q / 3, -q / 5];
        let narrow64: Vec<i64> = narrow.iter().map(|&x| x as i64).collect();
        // Every tail length of the 8-lane blocks, and block counts
        // either side of powers of two.
        let lengths = (0..=17).chain((4..=8).flat_map(|k| [(1 << k) - 3, (1 << k) + 3]));
        for len in lengths {
            expand_and_check(&m, &cycled(&wide, len)).unwrap();
            expand_and_check(&m, &cycled(&narrow, len)).unwrap();
            expand_and_check(&m, &cycled(&words, len)).unwrap();
            expand_and_check(&m, &cycled(&narrow64, len)).unwrap();
            expand_and_check(&m, &cycled(&ternary, len)).unwrap();
        }
    }
    // A modulus inside i8's range: the ternary slice takes the fold.
    let tiny = Modulus::new(97).expect("odd");
    expand_and_check(&tiny, &cycled(&[-1i8, 0, 1, i8::MIN, i8::MAX], 11)).unwrap();
}

#[test]
fn expansion_reduces_folds_that_sum_past_4q() {
    // An odd modulus whose Shoup-52 quotients of 1 and of 2^52 both fall
    // short by almost a whole unit, and a value whose three lazy folds
    // then sum to 4.9q: the one input class the vector rung's csub(4q)
    // is there for. The CKKS primes never get past 3.3q.
    let m = Modulus::new(182_724_061_545).expect("odd, below 2^50");
    let x: i128 = 41_753_672_481_441_117_875_835_800_188_539_109_375;
    for len in [1, 8, 11] {
        expand_and_check(&m, &cycled(&[x, -x], len)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expansion_matches_the_oracle_on_random_slices(
        seed in any::<u64>(),
        len in 1usize..=300,
        at in 0usize..300,
        wide_bits in 40u32..=120,
    ) {
        let at = at % len;
        let mut state = seed;
        // Sampler-sized: a ternary slice and a Gaussian-tail-sized one.
        let ternary: Vec<i8> = (0..len).map(|_| (splitmix(&mut state) % 3) as i8 - 1).collect();
        let small: Vec<i64> = (0..len).map(|_| (splitmix(&mut state) % 41) as i64 - 20).collect();
        // Uniform signed words, and magnitudes of every width to 2^120.
        let words: Vec<i64> = (0..len).map(|_| splitmix(&mut state) as i64).collect();
        let wides: Vec<i128> = (0..len)
            .map(|_| {
                let x = ((splitmix(&mut state) as u128) << 64 | splitmix(&mut state) as u128) as i128;
                x >> (7 + splitmix(&mut state) % 121)
            })
            .collect();
        // One wide value among sampler-sized ones: the slice must leave
        // the sign-select path (which would return x + q for it).
        let mut mixed: Vec<i128> = small.iter().map(|&x| x as i128).collect();
        mixed[at] = ((1i128 << wide_bits) + splitmix(&mut state) as i128 % (1 << 39))
            * if splitmix(&mut state) & 1 == 1 { -1 } else { 1 };
        for m in expansion_moduli() {
            prop_assert_eq!(
                expand_and_check(&m, &ternary)?,
                u128::from(ternary.iter().any(|&t| t != 0))
            );
            prop_assert!(expand_and_check(&m, &small)? <= 20);
            expand_and_check(&m, &words)?;
            expand_and_check(&m, &wides)?;
            let max_abs = expand_and_check(&m, &mixed)?;
            prop_assert_eq!(max_abs, mixed[at].unsigned_abs());
            // Wider than both CKKS primes (the two wider moduli may hold it).
            prop_assert!(max_abs >= m.q() as u128 || m.bits() > 39);
        }
    }
}

/// NTT primes of 30 to 50 bits: every width the `Simd` dyadic rung takes
/// (`q < 2^50`) on an AVX-512IFMA host.
fn arb_ifma_prime() -> impl Strategy<Value = Modulus> {
    let mut pool = Vec::new();
    for bits in [30u32, 36, 42, 46, 50] {
        pool.extend(generate_ntt_primes(bits, 2, 1 << 11).expect("primes exist at this width"));
    }
    prop::sample::select(pool).prop_map(|q| Modulus::new(q).expect("generated primes are valid"))
}

/// Every op of `e` on `a` (with `b`, `c`, `d`, the constant `w` and the
/// signed slices as its other operands), and every [`Tail`] through
/// [`DyadicEngine::apply_tail`] with `a` as the transform, by name.
/// Premultiplied vectors are the kernel's own, so each is read through
/// the product that consumes it.
fn every_dyadic_op(
    e: &DyadicEngine,
    [a, b, c, d]: &[Vec<u64>; 4],
    w: u64,
    signed: &[i64],
    small: &[i8],
) -> Vec<(&'static str, Vec<u64>)> {
    let pre = |v: &[u64]| {
        let mut v = v.to_vec();
        e.premul(&mut v);
        v
    };
    let (b_pre, d_pre) = (pre(b), pre(d));
    let mut outs = Vec::new();
    let mut op = |name, f: &dyn Fn(&mut Vec<u64>)| {
        let mut x = a.clone();
        f(&mut x);
        outs.push((name, x));
    };
    op("mul", &|x| e.mul_assign(x, b));
    op("mul_add", &|x| e.mul_add_assign(x, b, c));
    for (name, t) in [("mul_neg_add", None), ("mul_neg_add2", Some(&d[..]))] {
        op(name, &|x| {
            e.apply_tail(&mut c.clone(), Tail::NegMulAdd { dst: x, s: b, t });
        });
    }
    op("mul_add2", &|x| e.mul_add2_assign(x, b, c, d));
    op("mul_premul", &|x| e.mul_assign_premul(x, &b_pre));
    op("mul_acc_premul", &|x| e.mul_acc_assign_premul(x, b, &d_pre));
    op("sub_scalar_mul", &|x| {
        e.apply_tail(&mut b.clone(), Tail::SubScalarMul { dst: x, w });
    });
    op("add", &|x| e.add_assign(x, b));
    op("premul", &|x| {
        let mut y = c.clone();
        e.mul_assign_premul(&mut y, &pre(x));
        *x = y;
    });
    op("expand_i64", &|x| {
        e.expand_into(&SignedCoeffs::scan(signed), x)
    });
    op("expand_i8", &|x| {
        e.expand_into(&SignedCoeffs::scan(small), x)
    });
    op("tail_canonical", &|x| {
        e.apply_tail(x, Tail::Canonical);
    });
    op("tail_premul", &|x| {
        e.apply_tail(x, Tail::Premul);
        let mut y = c.clone();
        e.mul_assign_premul(&mut y, x);
        *x = y;
    });
    for (name, c) in [("tail_mul_acc", None), ("tail_mul_acc2", Some(&c[..]))] {
        op(name, &|x| {
            e.apply_tail(
                x,
                Tail::MulAcc {
                    b,
                    d_pre: &d_pre,
                    c,
                },
            );
        });
    }
    for (name, t) in [
        ("tail_neg_mul_add", None),
        ("tail_neg_mul_add2", Some(&d[..])),
    ] {
        op(name, &|x| {
            let mut dst = c.clone();
            e.apply_tail(
                x,
                Tail::NegMulAdd {
                    dst: &mut dst,
                    s: b,
                    t,
                },
            );
            *x = dst;
        });
    }
    op("tail_sub_scalar_mul", &|x| {
        let mut dst = c.clone();
        e.apply_tail(x, Tail::SubScalarMul { dst: &mut dst, w });
        *x = dst;
    });
    outs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simd_dyadic_ops_equal_the_scalar_rung_at_every_length(
        m in arb_ifma_prime(),
        n in 1usize..48,
        seed in any::<u64>(),
        w in any::<u64>(),
    ) {
        // The element-wise driver runs the full 8-lane blocks and the
        // engine the sub-8 remainder: every op and every tail on the
        // forced-`Simd` engine (IFMA on a capable host) must equal the
        // `Scalar` engine at every length from 1 to 47.
        let q = m.q();
        let [simd, scalar] = [KernelTier::Simd, KernelTier::Scalar].map(|t| DyadicEngine::with_kernel(m, t));
        if CpuCaps::detect().ifma() {
            prop_assert_eq!(simd.kernel_name(), "ifma");
        }
        let mut state = seed;
        // Random canonical operands, each with q − 1 somewhere.
        let operands: [Vec<u64>; 4] = core::array::from_fn(|k| {
            (0..n).map(|i| if i == k % n { q - 1 } else { splitmix(&mut state) % q }).collect()
        });
        let signed: Vec<i64> = (0..n).map(|_| splitmix(&mut state) as i64).collect();
        let small: Vec<i8> = signed.iter().map(|&x| x as i8).collect();
        let want = every_dyadic_op(&scalar, &operands, w, &signed, &small);
        for ((op, got), (_, want)) in every_dyadic_op(&simd, &operands, w, &signed, &small).iter().zip(&want) {
            prop_assert_eq!(got, want, "{} q = {} n = {}", op, q, n);
        }
    }
}
