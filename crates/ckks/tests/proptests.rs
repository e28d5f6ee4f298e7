//! Property-based tests for the CKKS client pipeline.

use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::symmetric::encrypt_symmetric_compressed;
use abc_ckks::{evaluator, noise, wire, Ciphertext, CkksContext, ExactScale, Plaintext};
use abc_float::{Complex, F64Field, RealField};
use abc_math::rns::WordLift;
use abc_math::{KernelTier, UBig};
use abc_prng::Seed;
use abc_transform::rns_ntt::THREADS_ENV;
use abc_transform::SpecialFft;
use proptest::prelude::*;
use std::sync::OnceLock;

fn small_ctx(log_n: u32, primes: usize) -> CkksContext {
    CkksContext::new(
        CkksParams::builder()
            .log_n(log_n)
            .num_primes(primes)
            .secret_hamming_weight(Some(1 << (log_n - 3)))
            .build()
            .expect("valid params"),
    )
    .expect("context")
}

fn message_from_seed(slots: usize, seed: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (seed.wrapping_mul(i as u64 * 2 + 1) % 2001) as f64 / 1000.0 - 1.0;
            let y = (seed.wrapping_add(i as u64 * 13) % 2001) as f64 / 1000.0 - 1.0;
            Complex::new(x, y)
        })
        .collect()
}

/// A double-scale context (Δ_eff = 2^72, 39-bit head prime then 36-bit
/// primes — the paper presets' shape) with six primes: the word lift's
/// prefix is three of them, the other three verify.
fn lift_ctx() -> CkksContext {
    CkksContext::new(
        CkksParams::builder()
            .log_n(7)
            .num_primes(6)
            .scale_mode(ScaleMode::DoublePair)
            .secret_hamming_weight(None)
            .build()
            .expect("valid params"),
    )
    .expect("context")
}

/// `pt`'s residues in coefficient domain, and the basis they are over.
fn coefficient_limbs(ctx: &CkksContext, pt: &Plaintext) -> (Vec<Vec<u64>>, abc_math::RnsBasis) {
    let mut res = pt.residues().to_vec();
    ctx.ntt_engine().inverse_all(&mut res);
    (res, ctx.basis().truncated(pt.num_primes()))
}

/// Decode as it was before the word lift: every coefficient through
/// the big-integer Garner lift and `apply_ext`, then the forward FP64
/// embedding on a plan of its own. (The crate's unit tests hold the
/// ExtF64 case: its decode is crate-private.)
fn oracle_decode(ctx: &CkksContext, pt: &Plaintext) -> Vec<Complex> {
    let (res, basis) = coefficient_limbs(ctx, pt);
    let product = basis.product();
    let divisor = pt.exact_scale().divisor();
    let coeffs: Vec<f64> = (0..pt.n())
        .map(|j| {
            let residues: Vec<u64> = res.iter().map(|limb| limb[j]).collect();
            let (negative, mag) = basis.combine_centered_big_with_product(&residues, &product);
            F64Field.from_ext(divisor.apply_ext(negative, &mag))
        })
        .collect();
    let fft = SpecialFft::with_field(F64Field, ctx.params().slots());
    let mut vals = fft.coeffs_to_slots(&coeffs);
    fft.forward(&mut vals);
    vals
}

/// Scales decode divides by: a power of two (reciprocal 1), rational
/// ones (reciprocal not 1), and exponents past ±900, where `ldexp` is
/// two multiplies and the block goes scalar.
fn division_scales() -> Vec<ExactScale> {
    vec![
        ExactScale::from_log2(72),
        ExactScale::from_log2(144)
            .div_prime(0xF_FFF0_0001)
            .div_prime(0xF_FFEA_C001),
        ExactScale::from_f64(1.5e11)
            .expect("positive")
            .div_prime(97),
        ExactScale::from_log2(1000).div_prime(97),
        ExactScale::from_f64(2f64.powi(-950)).expect("positive"),
    ]
}

/// `apply_block` on both rungs, bit for bit against `apply_u128`.
fn check_block_division(scale: &ExactScale, xs: &[i128]) {
    let divisor = scale.divisor();
    for tier in [KernelTier::Simd, KernelTier::Scalar] {
        let mut out = vec![abc_float::ExtF64::from_f64(f64::NAN); xs.len() + 1];
        divisor.apply_block(tier, xs, &mut out);
        for (j, (&x, got)) in xs.iter().zip(&out).enumerate() {
            let want = divisor.apply_u128(x < 0, x.unsigned_abs());
            assert_eq!(
                (got.hi().to_bits(), got.lo().to_bits()),
                (want.hi().to_bits(), want.lo().to_bits()),
                "{tier} lane {j}, x = {x}, scale = {scale:?}"
            );
        }
        assert!(out[xs.len()].hi().is_nan(), "{tier}: past the block");
    }
}

#[test]
fn apply_block_is_apply_u128_at_the_named_magnitudes() {
    let magnitudes = [
        0,
        1,
        3,
        (1 << 72) + (1 << 19),
        (1 << 105) - 1,
        1 << 105,
        (1 << 105) + 1,
        (1 << 106) - 1,
        1 << 106,
        (1 << 106) + 1,
        1 << 110,
        i128::MAX as u128,
    ];
    let mut xs: Vec<i128> = magnitudes
        .iter()
        .flat_map(|&m| [m as i128, -(m as i128)])
        .collect();
    xs.push(i128::MIN);
    for scale in division_scales() {
        check_block_division(&scale, &xs);
        // Each value alone across a vector group and a tail.
        for &x in &xs {
            check_block_division(&scale, &[x; 11]);
        }
    }
}

/// How many of `pt`'s coefficients the word lift hands to the fallback.
fn fallbacks(ctx: &CkksContext, pt: &Plaintext) -> usize {
    let (res, basis) = coefficient_limbs(ctx, pt);
    WordLift::new(basis).lift_blocks(&res, |_| {})
}

fn assert_bit_identical(got: &[Complex], want: &[Complex]) {
    assert_eq!(got.len(), want.len());
    for (j, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "slot {j} re");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "slot {j} im");
    }
}

#[test]
fn wrong_key_decode_falls_back_to_the_same_garbage() {
    let ctx = lift_ctx();
    let (_, pk) = ctx.keygen(Seed::from_u128(61));
    let (other_sk, _) = ctx.keygen(Seed::from_u128(62));
    let msg = message_from_seed(ctx.params().slots(), 63);
    let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(64));
    let pt = ctx.decrypt(&ct, &other_sk).expect("decrypt");
    // Uniform mod Q: no coefficient is within the three-prime prefix.
    assert_eq!(fallbacks(&ctx, &pt), pt.n());
    assert_bit_identical(&ctx.decode(&pt).expect("decode"), &oracle_decode(&ctx, &pt));
}

#[test]
fn unrescaled_product_decodes_past_the_prefix() {
    // Scale 2^144 against a prefix of ≈ 2^111: the payload itself is out
    // of the word lift's range, and Q ≈ 2^219 still holds it.
    let ctx = lift_ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(71));
    let evk = ctx.gen_eval_key(&sk, Seed::from_u128(72));
    let slots = ctx.params().slots();
    let (a, b) = (message_from_seed(slots, 73), message_from_seed(slots, 74));
    let ca = ctx.encrypt(&ctx.encode(&a).expect("encode"), &pk, Seed::from_u128(75));
    let cb = ctx.encrypt(&ctx.encode(&b).expect("encode"), &pk, Seed::from_u128(76));
    let product = evaluator::mul_relin(&ctx, &ca, &cb, &evk).expect("mul_relin");
    let pt = ctx.decrypt(&product, &sk).expect("decrypt");
    assert_eq!(pt.exact_scale(), &ExactScale::from_log2(144));
    assert!(fallbacks(&ctx, &pt) > pt.n() * 9 / 10);
    let out = ctx.decode(&pt).expect("decode");
    assert_bit_identical(&out, &oracle_decode(&ctx, &pt));
    for ((o, x), y) in out.iter().zip(&a).zip(&b) {
        let want = Complex::new(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re);
        assert!(o.dist(want) < 1e-6, "{o} vs {want}");
    }
}

#[test]
fn two_prime_download_has_nothing_to_verify() {
    // The paper's download: both limbs are word prefix, so the lift is
    // plain Garner + centring and never falls back.
    let ctx = lift_ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(81));
    let msg = message_from_seed(ctx.params().slots(), 82);
    let ct = ctx
        .encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(83))
        .truncated(2);
    let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
    assert_eq!(fallbacks(&ctx, &pt), 0);
    let out = ctx.decode(&pt).expect("decode");
    assert_bit_identical(&out, &oracle_decode(&ctx, &pt));
    for (o, m) in out.iter().zip(&msg) {
        assert!(o.dist(*m) < 1e-6, "{o} vs {m}");
    }
}

/// Two contexts of the smallest double-scale shape whose passes all fan
/// out, one serial and one on four threads, built once per test binary.
/// The engine runs a pass serially below `2^14` words of `k·N` for a
/// transform and below `2^16` for element-wise work, so `k·N` must reach
/// `2^16`: 8 primes at `N = 2^13` (a pair pass weighs twice that).
fn fan_out_contexts() -> (&'static CkksContext, &'static CkksContext) {
    static CONTEXTS: OnceLock<(CkksContext, CkksContext)> = OnceLock::new();
    let (ctx1, ctx4) = CONTEXTS.get_or_init(|| {
        let build = || {
            CkksContext::new(
                CkksParams::builder()
                    .log_n(13)
                    .num_primes(8)
                    .scale_mode(ScaleMode::DoublePair)
                    .build()
                    .expect("params"),
            )
            .expect("ctx")
        };
        // Engines capture the thread count at construction, so build one
        // context per fan-out under a temporary env override.
        let mut env = abc_math::envtest::EnvGuard::lock();
        env.set(THREADS_ENV, "1");
        let ctx1 = build();
        env.set(THREADS_ENV, "4");
        let ctx4 = build();
        (ctx1, ctx4)
    });
    assert_eq!(
        (ctx1.ntt_engine().threads(), ctx4.ntt_engine().threads()),
        (1, 4)
    );
    assert!(ctx1.params().num_primes() * ctx1.params().n() >= 1 << 16);
    (ctx1, ctx4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decode_is_bit_identical_to_the_bigint_oracle(seed in any::<u64>()) {
        let ctx = lift_ctx();
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128));
        let msg = message_from_seed(ctx.params().slots(), seed);
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(seed as u128 + 1));
        // One prime wraps the 2^72 payload; decode is defined all the same.
        for primes in [1, 2, 3, 4, 6] {
            let pt = ctx.decrypt(&ct.truncated(primes), &sk).expect("decrypt");
            assert_bit_identical(&ctx.decode(&pt).expect("decode"), &oracle_decode(&ctx, &pt));
        }
    }

    #[test]
    fn apply_u128_is_apply_ext(
        word in any::<u128>(),
        bits in 1u32..=127,
        negative in any::<bool>(),
        scale in prop::sample::select(vec![
            ExactScale::from_log2(72),
            ExactScale::from_log2(144)
                .div_prime(0xF_FFF0_0001)
                .div_prime(0xF_FFEA_C001),
            ExactScale::from_f64(1.5e11).expect("positive").div_prime(97),
        ]),
    ) {
        // Exactly `bits` significant bits: past 106 the low ones are
        // dropped, and both entries must drop the same ones.
        let mag = (word | 1 << 127) >> (128 - bits);
        let divisor = scale.divisor();
        let (got, want) = (divisor.apply_u128(negative, mag), divisor.apply_ext(negative, &UBig::from(mag)));
        prop_assert_eq!(got.hi().to_bits(), want.hi().to_bits(), "hi, mag = {}", mag);
        prop_assert_eq!(got.lo().to_bits(), want.lo().to_bits(), "lo, mag = {}", mag);
    }

    #[test]
    fn apply_block_is_apply_u128(
        seed in any::<u64>(),
        len in 0usize..=40,
        scale in prop::sample::select(division_scales()),
    ) {
        // Words of every width to 2^127 and either sign, each lane with
        // its own: a block mixes vector lanes with ones past 2^106.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 29)
        };
        let xs: Vec<i128> = (0..len)
            .map(|_| (((next() as u128) << 64 | next() as u128) as i128) >> (next() % 128))
            .collect();
        check_block_division(&scale, &xs);
    }

    #[test]
    fn roundtrip_over_random_messages(seed in any::<u64>(), log_n in 7u32..10) {
        let ctx = small_ctx(log_n, 3);
        let msg = message_from_seed(ctx.params().slots(), seed);
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128));
        let pt = ctx.encode(&msg).expect("encode");
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(seed as u128 + 1));
        let out = ctx.decode(&ctx.decrypt(&ct, &sk).expect("decrypt")).expect("decode");
        for (a, b) in out.iter().zip(&msg) {
            prop_assert!(a.dist(*b) < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn encode_decode_error_within_quantization(seed in any::<u64>()) {
        // Without encryption the only error is Δ-quantization.
        let ctx = small_ctx(9, 2);
        let msg = message_from_seed(ctx.params().slots(), seed);
        let pt = ctx.encode(&msg).expect("encode");
        let out = ctx.decode(&pt).expect("decode");
        for (a, b) in out.iter().zip(&msg) {
            // Δ = 2^36; allow N·2^-36 ≈ 1e-8 of spread.
            prop_assert!(a.dist(*b) < 1e-6);
        }
    }

    #[test]
    fn scale_invariance_of_decode(seed in any::<u64>(), shift in 0u32..3) {
        // Encoding at a larger Δ (builder scale_bits) yields strictly
        // more precision, never less.
        let msg_seed = seed | 1;
        let mut errs = Vec::new();
        for scale_bits in [20 + 6 * shift, 36] {
            let ctx = CkksContext::new(
                CkksParams::builder()
                    .log_n(8)
                    .num_primes(2)
                    .prime_bits(40)
                    .scale_bits(scale_bits)
                    .secret_hamming_weight(None)
                    .build()
                    .expect("params"),
            )
            .expect("ctx");
            let msg = message_from_seed(ctx.params().slots(), msg_seed);
            let out = ctx.decode(&ctx.encode(&msg).expect("encode")).expect("decode");
            let err = out
                .iter()
                .zip(&msg)
                .map(|(a, b)| a.dist(*b))
                .fold(0.0f64, f64::max);
            errs.push(err);
        }
        prop_assert!(errs[1] <= errs[0] * 1.5, "{errs:?}");
    }

    #[test]
    fn ciphertexts_differ_across_messages(seed in any::<u64>()) {
        let ctx = small_ctx(7, 2);
        let (_, pk) = ctx.keygen(Seed::from_u128(1));
        let a = message_from_seed(ctx.params().slots(), seed);
        let b = message_from_seed(ctx.params().slots(), seed.wrapping_add(999));
        let ca = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(2));
        let cb = ctx.encrypt(&ctx.encode(&b).expect("e"), &pk, Seed::from_u128(2));
        // Same encryption randomness, different messages: c0 differs,
        // c1 identical (c1 carries only the mask).
        prop_assert_ne!(ca.components().0, cb.components().0);
        prop_assert_eq!(ca.components().1, cb.components().1);
    }

    #[test]
    fn roundtrip_error_bounded_by_noise_model(
        key_seed in any::<u128>(),
        enc_seed in any::<u128>(),
        msg_seed in any::<u64>(),
        log_n in 7u32..10,
        used_slots_frac in 1usize..5,
    ) {
        // Full encode→encrypt→decrypt→decode with *random* key and
        // encryption seeds and a random number of occupied slots; the
        // slot error must stay under the analytic bound derived from the
        // fresh-noise model: each slot is a sum of ≤ N coefficient
        // errors (12σ̂ tail + Δ-quantization of ½ per coefficient).
        let ctx = small_ctx(log_n, 3);
        let p = ctx.params();
        let used = p.slots() / used_slots_frac;
        prop_assume!(used > 0);
        let msg = message_from_seed(used, msg_seed);
        let (sk, pk) = ctx.keygen(Seed::from_u128(key_seed));
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(enc_seed));
        let out = ctx.decode(&ctx.decrypt(&ct, &sk).expect("decrypt")).expect("decode");
        let noise_std = noise::predicted_fresh_std(
            p.n(), p.error_sigma(), p.secret_hamming_weight(),
        );
        let bound = p.n() as f64 * (12.0 * noise_std + 0.5) / p.scale();
        for (i, (a, b)) in out.iter().take(used).zip(&msg).enumerate() {
            prop_assert!(
                a.dist(*b) < bound,
                "slot {i}: {} vs {} (err {:e} > bound {:e})", a, b, a.dist(*b), bound
            );
        }
        // Unused slots decode to ~zero under the same bound.
        for (i, a) in out.iter().enumerate().skip(used) {
            prop_assert!(a.dist(Complex::zero()) < bound, "pad slot {i} = {}", a);
        }
    }

    #[test]
    fn wire_roundtrip_is_bit_exact(
        seed in any::<u64>(),
        log_n in 4u32..9,
        primes in 1usize..5,
        truncate_to in 1usize..5,
    ) {
        // serialize → deserialize is the identity on any fresh or
        // truncated ciphertext, and the byte length matches the header
        // (fresh pow-2 scale: one numerator byte) + width table +
        // 2·Σ⌈N·wᵢ/8⌉ accounting the traffic model charges.
        let truncate_to = truncate_to.min(primes);
        let ctx = small_ctx(log_n, primes);
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128 + 17));
        let msg = message_from_seed(ctx.params().slots(), seed);
        let ct = ctx
            .encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(seed as u128 + 18))
            .truncated(truncate_to);
        let widths = ctx.wire_widths(truncate_to);
        let bytes = wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
        prop_assert_eq!(bytes.len(), wire::packed_serialized_len(&ct, &widths));
        let polys: usize = widths
            .iter()
            .map(|&w| (ctx.params().n() * w as usize).div_ceil(8))
            .sum();
        prop_assert_eq!(bytes.len(), 18 + 1 + truncate_to + 2 * polys);
        let back = wire::deserialize_ciphertext(&bytes).expect("deserialize");
        prop_assert_eq!(&back, &ct);
        // And the deserialized ciphertext still decrypts to the message.
        let out = ctx.decode(&ctx.decrypt(&back, &sk).expect("decrypt")).expect("decode");
        for (a, b) in out.iter().zip(&msg) {
            prop_assert!(a.dist(*b) < 1e-4, "{} vs {}", a, b);
        }
    }

    #[test]
    fn double_pair_encode_decode_bit_exact_vs_bigint_model(
        seed in any::<u64>(),
        log_n in 7u32..9,
    ) {
        // The double-scale pipeline (Δ_eff = 2^72 > 2^53) against an
        // independent golden model that works entirely in exact
        // integers: the same inverse embedding, then an i128
        // scale-and-round (exact: a power-of-two multiply only shifts
        // the f64 exponent), residues by explicit i128 remainders, and
        // slots recovered from the correctly rounded integer cast.
        // Residues AND decoded slots must match *bit for bit*.
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(log_n)
                .num_primes(4)
                .prime_bits(40)
                .scale_bits(36)
                .scale_mode(ScaleMode::DoublePair)
                .secret_hamming_weight(None)
                .build()
                .expect("params"),
        )
        .expect("ctx");
        prop_assert_eq!(ctx.params().scale(), 2f64.powi(72));
        let slots = ctx.params().slots();
        let msg = message_from_seed(slots, seed);
        let pt = ctx.encode(&msg).expect("encode");

        // Golden integer coefficients, from an independently planned
        // FP64 embedding (same (slots, datapath) table construction the
        // context's engine uses).
        let fft = SpecialFft::new(slots);
        let mut vals = msg.clone();
        fft.inverse(&mut vals);
        let coeffs = fft.slots_to_coeffs(&vals);
        let scale = 2f64.powi(72);
        let ints: Vec<i128> = coeffs.iter().map(|&c| (c * scale).round() as i128).collect();

        // Golden residues: explicit i128 remainder + the same NTT.
        for (i, m) in ctx.basis().moduli().iter().enumerate() {
            let q = m.q() as i128;
            let mut golden: Vec<u64> = ints.iter().map(|&x| (((x % q) + q) % q) as u64).collect();
            ctx.ntt_plans()[i].forward(&mut golden);
            prop_assert_eq!(&pt.residues()[i], &golden, "residue limb {} differs", i);
        }

        // Golden slots: correctly rounded integer → exact 2^-72 scaling
        // → the same forward embedding.
        let golden_coeffs: Vec<f64> = ints.iter().map(|&x| (x as f64) / scale).collect();
        let mut golden_slots = fft.coeffs_to_slots(&golden_coeffs);
        fft.forward(&mut golden_slots);
        let out = ctx.decode(&pt).expect("decode");
        for (j, (a, b)) in out.iter().zip(&golden_slots).enumerate() {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "slot {} re", j);
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "slot {} im", j);
        }
        // And the round trip itself is quantization-grade accurate: the
        // 2^-72 grid is far below the f64 embedding noise.
        for (a, b) in out.iter().zip(&msg) {
            prop_assert!(a.dist(*b) < 1e-10, "{} vs {}", a, b);
        }
    }

    #[test]
    fn pair_rescale_equals_two_single_rescales(seed in any::<u64>()) {
        // One fused pair-rescale ≡ two successive single-prime
        // rescales: identical exact scales, and ciphertexts that
        // decrypt to the same slots within the one-unit rounding the
        // fused form saves (≪ any message scale).
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_n(8)
                .num_primes(6)
                .prime_bits(40)
                .scale_bits(36)
                .scale_mode(ScaleMode::DoublePair)
                .secret_hamming_weight(Some(32))
                .build()
                .expect("params"),
        )
        .expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128));
        let a = message_from_seed(ctx.params().slots(), seed);
        let w = message_from_seed(ctx.params().slots(), seed.wrapping_add(7));
        let ct = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(seed as u128 + 1));
        let prod = evaluator::plaintext_mul(&ctx, &ct, &ctx.encode(&w).expect("e")).expect("mul");
        let fused = evaluator::rescale_pair(&ctx, &prod).expect("pair");
        let sequential = evaluator::rescale_prime(
            &ctx,
            &evaluator::rescale_prime(&ctx, &prod).expect("first"),
        )
        .expect("second");
        prop_assert_eq!(fused.num_primes(), sequential.num_primes());
        prop_assert_eq!(fused.exact_scale(), sequential.exact_scale());
        let df = ctx.decode(&ctx.decrypt(&fused, &sk).expect("d")).expect("decode");
        let ds = ctx.decode(&ctx.decrypt(&sequential, &sk).expect("d")).expect("decode");
        for (x, y) in df.iter().zip(&ds) {
            // Both carry the product noise; they differ only by the
            // extra rounding unit of the sequential path.
            prop_assert!(x.dist(*y) < 1e-12, "{} vs {}", x, y);
        }
        // And both decode to the actual slot-wise product.
        let expected: Vec<Complex> = a.iter().zip(&w)
            .map(|(x, y)| Complex::new(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re))
            .collect();
        for (x, e) in df.iter().zip(&expected) {
            prop_assert!(x.dist(*e) < 1e-5, "{} vs {}", x, e);
        }
    }

    #[test]
    fn mul_relin_pinned_to_schoolbook_i128_model(seed in any::<u64>()) {
        // ct×ct multiply against a fully independent golden model.
        //
        // The degree-2 product (d0, d1, d2) must satisfy the *ring
        // identity* d0 + d1·s + d2·s² = (a0 + a1·s)·(b0 + b1·s), i.e.
        // the full decryption of the product equals the negacyclic
        // product of the individual decryptions. We evaluate both sides
        // with nothing but the public API and exact integer arithmetic:
        //
        // * the left side via decrypt — s and s² are applied by
        //   decrypting the auxiliary ciphertexts (0, d2) → d2·s and
        //   (0, d2·s) → d2·s², then summing residues per prime;
        // * the right side by a schoolbook i128 negacyclic convolution
        //   of the decrypted coefficient vectors, reduced per prime.
        //
        // The comparison is bit-for-bit: any mismatch in the dyadic
        // cross terms, NTT plumbing, or component ordering fails loudly.
        let ctx = small_ctx(10, 3);
        let n = ctx.params().n();
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128 + 100));
        let a = message_from_seed(ctx.params().slots(), seed);
        let b = message_from_seed(ctx.params().slots(), seed.wrapping_add(31));
        let ca = ctx.encrypt(&ctx.encode(&a).expect("e"), &pk, Seed::from_u128(seed as u128 + 101));
        let cb = ctx.encrypt(&ctx.encode(&b).expect("e"), &pk, Seed::from_u128(seed as u128 + 102));
        let prod = evaluator::mul(&ctx, &ca, &cb).expect("mul");
        let (d0, d1, d2) = prod.components();

        let scale = ca.exact_scale().clone();
        let zero = vec![vec![0u64; n]; ca.num_primes()];
        let dec = |c0: &[Vec<u64>], c1: &[Vec<u64>]| -> Vec<Vec<u64>> {
            let ct = Ciphertext::from_components_exact(c0.to_vec(), c1.to_vec(), scale.clone())
                .expect("ct");
            ctx.decrypt(&ct, &sk).expect("decrypt").residues().to_vec()
        };
        let (ca0, ca1) = ca.components();
        let (cb0, cb1) = cb.components();
        let ma = dec(ca0, ca1);
        let mb = dec(cb0, cb1);
        let p1 = dec(d0, d1); // d0 + d1·s
        let u = dec(&zero, d2); // d2·s
        let v = dec(&zero, &u); // d2·s²

        for (i, m) in ctx.basis().moduli().iter().enumerate() {
            // Left side: (d0 + d1·s) + d2·s² in the NTT domain, then back
            // to coefficients.
            let mut total: Vec<u64> =
                p1[i].iter().zip(&v[i]).map(|(&x, &y)| m.add(x, y)).collect();
            ctx.ntt_plans()[i].inverse(&mut total);
            // Right side: schoolbook negacyclic convolution of the
            // coefficient-domain decryptions, exact in i128/u128.
            let mut am = ma[i].clone();
            let mut bm = mb[i].clone();
            ctx.ntt_plans()[i].inverse(&mut am);
            ctx.ntt_plans()[i].inverse(&mut bm);
            let q = u128::from(m.q());
            let golden: Vec<u64> = (0..n)
                .map(|k| {
                    let (mut pos, mut neg) = (0u128, 0u128);
                    for (j, &aj) in am.iter().enumerate() {
                        let term = u128::from(aj) * u128::from(bm[(k + n - j) % n]) % q;
                        if j <= k {
                            pos += term;
                        } else {
                            neg += term; // X^n ≡ −1 wraps with a sign flip
                        }
                    }
                    ((pos % q + q - neg % q) % q) as u64
                })
                .collect();
            prop_assert_eq!(&total, &golden, "limb {} violates the ring identity", i);
        }

        // And the (relinearized, rescaled) product still decodes to the
        // slot-wise product. The bound is dominated by key-switch noise
        // (≈2^44 against the Δ² = 2^72 product scale, ×√N in slots).
        let evk = ctx.gen_eval_key(&sk, Seed::from_u128(seed as u128 + 103));
        let relin = evaluator::relinearize(&ctx, &prod, &evk).expect("relin");
        let out = ctx
            .decode(&ctx.decrypt(&evaluator::rescale_prime(&ctx, &relin).expect("rescale"), &sk)
                .expect("d"))
            .expect("decode");
        for (j, (x, (xa, xb))) in out.iter().zip(a.iter().zip(&b)).enumerate() {
            let e = Complex::new(
                xa.re * xb.re - xa.im * xb.im,
                xa.re * xb.im + xa.im * xb.re,
            );
            prop_assert!(x.dist(e) < 1e-4, "slot {}: {} vs {}", j, x, e);
        }
    }

    #[test]
    fn rotate_is_the_slot_permutation_at_any_thread_count(
        seed in any::<u64>(),
        raw_steps in 1usize..512,
    ) {
        // rotate(k) ≡ the forward slot permutation out[j] = in[(j+k) mod
        // N/2] for *random* k — and the engine's thread fan-out must not
        // change a single bit of it, nor of any other pass a context
        // runs: keygen, key-switch keys, public-key and seeded encrypt,
        // expansion, the plaintext and ciphertext products, rescale.
        // Keyed ops run on the double-scale profile (Δ_eff = 2^72):
        // key-switch noise (≈2^44) would drown a single 2^36 scale but
        // sits 27 bits under Δ_eff.
        let (ctx1, ctx4) = fan_out_contexts();
        let slots = ctx1.params().slots();
        let steps = raw_steps % slots;
        let msg = message_from_seed(slots, seed);
        let weights = message_from_seed(slots, seed ^ 0x5eed);
        let seed = seed as u128;
        let mut runs = Vec::new();
        for ctx in [ctx1, ctx4] {
            let (sk, pk) = ctx.keygen(Seed::from_u128(seed + 5));
            let gk = ctx
                .gen_rotation_key(&sk, steps, Seed::from_u128(seed + 6))
                .expect("rotation key");
            let evk = ctx.gen_eval_key(&sk, Seed::from_u128(seed + 8));
            let pt = ctx.encode(&msg).expect("e");
            let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(seed + 7));
            let rot = evaluator::rotate(ctx, &ct, steps, &gk).expect("rotate");
            prop_assert_eq!(rot.exact_scale(), ct.exact_scale());
            let out = ctx.decode(&ctx.decrypt(&rot, &sk).expect("d")).expect("decode");
            for (j, z) in out.iter().enumerate() {
                let e = msg[(j + steps) % slots];
                prop_assert!(z.dist(e) < 1e-3, "slot {}: {} vs {}", j, z, e);
            }
            let product = evaluator::plaintext_mul(ctx, &ct, &ctx.encode(&weights).expect("e"))
                .expect("plaintext_mul");
            let rescaled = evaluator::rescale(ctx, &product).expect("rescale");
            let squared = evaluator::mul_relin(ctx, &ct, &ct, &evk).expect("mul_relin");
            let seeded = encrypt_symmetric_compressed(ctx, &pt, &sk, Seed::from_u128(seed + 9));
            let expanded = seeded.expand(ctx).expect("expand");
            runs.push((pk, evk, ct, rot, product, rescaled, squared, seeded, expanded));
        }
        // Bit-identical across thread counts: same keys, same seeds,
        // same arithmetic — fan-out is an implementation detail.
        prop_assert!(runs[0] == runs[1]);
    }

    #[test]
    fn fused_uploads_are_the_pinned_sequence_byte_for_byte(
        seed in any::<u64>(),
        log_n in 10u32..=13,
        threads in 1usize..=4,
        short in any::<bool>(),
    ) {
        // Both fused uploads against the pinned encode → encrypt →
        // serialize sequence of each mode, from the same seeds, appended
        // after a byte already in `out`; and both against the same
        // plaintext with its residues made before each encrypt, which
        // adds it in the NTT domain (four transforms a public-key limb,
        // two a seeded one) where the others fold the error into its
        // coefficients. Six primes: a fused pass fans out from N = 2^11
        // (2·6·2^11 words) on, and at three threads its chunks are
        // ragged. The suite's kernel rung is the one the environment
        // selects (CI's forced-scalar pass runs the scalar one). A short
        // message is zero-padded, the empty one included.
        let ctx = {
            let mut env = abc_math::envtest::EnvGuard::lock();
            env.set(THREADS_ENV, &threads.to_string());
            small_ctx(log_n, 6)
        };
        prop_assert_eq!(ctx.ntt_engine().threads(), threads);
        let slots = ctx.params().slots();
        let len = if short { seed as usize % slots } else { slots };
        let msg = message_from_seed(len, seed);
        let (sk, pk) = ctx.keygen(Seed::from_u128(seed as u128));
        let enc_seed = Seed::from_u128(seed as u128 ^ 0xfeed);
        let widths = ctx.wire_widths(ctx.params().num_primes());
        let pinned = |made: bool| {
            let pt = ctx.encode(&msg).expect("encode");
            if made {
                pt.residues();
            }
            let full = ctx.encrypt(&pt, &pk, enc_seed);
            let seeded = encrypt_symmetric_compressed(&ctx, &pt, &sk, enc_seed);
            [
                wire::serialize_ciphertext_packed(&full, &widths).expect("pack"),
                wire::serialize_compressed_ciphertext(&seeded, &widths).expect("pack"),
            ]
        };
        let (want, ntt_domain) = (pinned(false), pinned(true));
        let mut got = [vec![0xA5], vec![0xA5]];
        ctx.encode_encrypt_into(&msg, &pk, enc_seed, &mut got[0]).expect("fused");
        ctx.encode_encrypt_compressed_into(&msg, &sk, enc_seed, &mut got[1]).expect("fused");
        for ((got, want), ntt_domain) in got.iter().zip(&want).zip(&ntt_domain) {
            prop_assert_eq!(got[0], 0xA5);
            prop_assert!(got[1..] == want[..], "log_n {} threads {} len {}", log_n, threads, len);
            prop_assert!(ntt_domain == want, "log_n {} threads {} len {}", log_n, threads, len);
        }
    }

    #[test]
    fn truncation_never_increases_precision(seed in any::<u64>()) {
        let ctx = small_ctx(8, 4);
        let (sk, pk) = ctx.keygen(Seed::from_u128(3));
        let msg = message_from_seed(ctx.params().slots(), seed);
        let ct = ctx.encrypt(&ctx.encode(&msg).expect("e"), &pk, Seed::from_u128(4));
        let err_at = |primes: usize| {
            let out = ctx
                .decode(&ctx.decrypt(&ct.truncated(primes), &sk).expect("d"))
                .expect("decode");
            out.iter().zip(&msg).map(|(a, b)| a.dist(*b)).fold(0.0f64, f64::max)
        };
        // All levels decrypt correctly; the error stays in the noise
        // regime at every level (no cliff).
        for primes in 1..=4usize {
            prop_assert!(err_at(primes) < 1e-4);
        }
    }
}
