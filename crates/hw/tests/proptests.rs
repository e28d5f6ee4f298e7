//! Property-based tests for the paper's datapath models, each against
//! the product code it models: the on-the-fly twiddle generator against
//! the NTT plan's table, both modes of the streaming pipeline against the
//! planned NTT and special FFT, the Table I reducers against the `u128`
//! golden model, and the Fig. 4 multiplier counts against their
//! theoretical minimum.

use abc_float::{Complex, F64Field};
use abc_hw::radix::{MdcDesign, TransformKind};
use abc_hw::reduce::{csd, csd_eval_wrapping, ModMul, NttFriendlyMontgomery};
use abc_hw::stream::{StreamingNtt, StreamingSpecialFft};
use abc_hw::twiddle::{OtfTwiddleGen, TwiddleSource};
use abc_math::primes::{generate_ntt_primes, search_structured_primes};
use abc_math::Modulus;
use abc_transform::{NttPlan, SpecialFft};
use proptest::prelude::*;

fn arb_prime_modulus() -> impl Strategy<Value = Modulus> {
    // A pool of NTT primes at varied widths, all ≡ 1 mod 2^14 (rings up
    // to 2^13).
    let mut pool = Vec::new();
    for bits in [30u32, 36, 44, 50] {
        pool.extend(generate_ntt_primes(bits, 4, 1 << 14).expect("primes exist"));
    }
    prop::sample::select(pool).prop_map(|q| Modulus::new(q).expect("generated primes are valid"))
}

fn message(slots: usize, seed: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (seed.wrapping_mul(2 * i as u64 + 1) % 2048) as f64 / 1024.0 - 1.0;
            let y = (seed.wrapping_add(13 * i as u64) % 2048) as f64 / 1024.0 - 1.0;
            Complex::new(x, y)
        })
        .collect()
}

proptest! {
    #[test]
    fn csd_reevaluates(x in any::<u64>()) {
        let terms = csd(x);
        prop_assert_eq!(csd_eval_wrapping(&terms), x);
        // Non-adjacency (the "canonical" in CSD).
        let mut shifts: Vec<u32> = terms.iter().map(|t| t.shift).collect();
        shifts.sort_unstable();
        for w in shifts.windows(2) {
            prop_assert!(w[1] - w[0] >= 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ntt_friendly_montgomery_agrees(seed in any::<u64>()) {
        // Structured primes only — the four with the fewest terms, the
        // cheapest shift-add networks.
        let mut found = search_structured_primes(36..=36, 1 << 13);
        found.sort_by_key(|p| (p.num_terms, std::cmp::Reverse(p.q)));
        for q in found.iter().take(4).map(|p| p.q) {
            let m = Modulus::new(q).expect("prime is valid modulus");
            let nf = NttFriendlyMontgomery::new(m).expect("structured prime is NTT-friendly");
            let a = seed % q;
            let b = seed.wrapping_mul(0x9E3779B97F4A7C15) % q;
            prop_assert_eq!(nf.mul_mod(a, b), m.mul(a, b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn otf_equals_table_on_random_queries(m in arb_prime_modulus(), idx in any::<u64>()) {
        let n = 512usize;
        let table = NttPlan::new(m, n).expect("plan");
        let otf = OtfTwiddleGen::with_psi(m, n, table.table().psi()).expect("otf");
        let mut mm = 1usize;
        while mm < n {
            let i = (idx as usize) % mm;
            prop_assert_eq!(TwiddleSource::forward(&table, mm, i), otf.forward(mm, i));
            prop_assert_eq!(TwiddleSource::inverse(&table, mm, i), otf.inverse(mm, i));
            mm <<= 1;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Both modes of the streaming pipeline match the planned kernel bit
    // for bit at any lane count, whatever kernel the plan dispatched to.
    #[test]
    fn streaming_matches_planned(
        seed in any::<u64>(),
        log_slots in 4u32..=10,
        m in arb_prime_modulus(),
        log_n in 1u32..=13,
        log_lanes in 0u32..=3,
    ) {
        let n = 1usize << log_n;
        let plan = NttPlan::new(m, n).expect("plan");
        let poly: Vec<u64> = (0..n as u64)
            .map(|i| seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % m.q())
            .collect();
        let mut want = poly.clone();
        plan.forward(&mut want);
        let lanes = 1usize << log_lanes.min(log_n);
        prop_assert_eq!(StreamingNtt::new(&plan, lanes).transform(&poly), want);

        let slots = 1usize << log_slots;
        let plan = SpecialFft::with_field(F64Field, slots);
        let mut streamer = StreamingSpecialFft::new(&plan, 1 << log_lanes);
        let msg = message(slots, seed);
        let mut want = msg.clone();
        plan.forward(&mut want);
        prop_assert_eq!(streamer.forward(&msg), want);
        let mut want = msg.clone();
        plan.inverse(&mut want);
        prop_assert_eq!(streamer.inverse(&msg), want);
    }
}
