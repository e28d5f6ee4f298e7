//! Integration tests spanning the whole stack: CKKS pipeline over the
//! transform/math/prng substrates, at bootstrappable parameters.

use abc_fhe::ckks::{params::CkksParams, CkksContext};
use abc_fhe::float::{Complex, SoftFloatField};
use abc_fhe::prng::Seed;

fn max_dist(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

fn message(slots: usize) -> Vec<Complex> {
    (0..slots)
        .map(|i| Complex::new((i as f64 * 0.37).sin() * 0.8, (i as f64 * 0.13).cos() * 0.5))
        .collect()
}

#[test]
fn bootstrappable_roundtrip_n13() {
    // The smallest bootstrappable preset, full 24-prime modulus.
    let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(1));
    let msg = message(ctx.params().slots());
    let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(2));
    assert_eq!(ct.level(), 23);
    let out = ctx
        .decode(&ctx.decrypt(&ct, &sk).expect("decrypt"))
        .expect("decode");
    let err = max_dist(&out, &msg);
    assert!(
        err < 1e-4,
        "error {err} too large for bootstrappable params"
    );
}

#[test]
fn fp55_datapath_roundtrip_matches_paper_threshold() {
    // Running both embeddings on the FP55 datapath must stay above the
    // paper's 19.29-bit precision threshold — the paper's metric,
    // -log2(RMS slot error), over encode → encrypt → decrypt → decode.
    use abc_fhe::ckks::precision::measure_precision;
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(11)
            .num_primes(8)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let precision_bits =
        measure_precision(&ctx, &SoftFloatField::fp55(), 1, Seed::from_u128(3)).expect("measure");
    assert!(
        precision_bits > 19.29,
        "FP55 round-trip precision {precision_bits} below the paper threshold"
    );
}

#[test]
fn decryption_at_every_level() {
    // Ciphertexts truncated to any prime count must still decrypt.
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(10)
            .num_primes(6)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(5));
    let msg = message(ctx.params().slots());
    let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(6));
    for primes in 1..=6usize {
        let out = ctx
            .decode(&ctx.decrypt(&ct.truncated(primes), &sk).expect("decrypt"))
            .expect("decode");
        let err = max_dist(&out, &msg);
        assert!(err < 1e-4, "level {} error {err}", primes - 1);
    }
}

#[test]
fn homomorphic_addition_in_ntt_domain() {
    // enc(a) + enc(b) (dyadic component-wise addition) decrypts to a+b:
    // the property the MSE's element-wise adders serve.
    use abc_fhe::ckks::Ciphertext;
    use abc_fhe::math::poly;
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(10)
            .num_primes(4)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(7));
    let a = message(ctx.params().slots());
    let b: Vec<Complex> = a.iter().map(|z| Complex::new(z.im, -z.re)).collect();
    let ca = ctx.encrypt(&ctx.encode(&a).expect("encode"), &pk, Seed::from_u128(8));
    let cb = ctx.encrypt(&ctx.encode(&b).expect("encode"), &pk, Seed::from_u128(9));
    let (a0, a1) = ca.components();
    let (b0, b1) = cb.components();
    let mut s0 = a0.to_vec();
    let mut s1 = a1.to_vec();
    for (i, m) in ctx.basis().moduli().iter().enumerate() {
        poly::add_assign(m, &mut s0[i], &b0[i]);
        poly::add_assign(m, &mut s1[i], &b1[i]);
    }
    let sum_ct =
        Ciphertext::from_components_exact(s0, s1, ca.exact_scale().clone()).expect("rebuild");
    let out = ctx
        .decode(&ctx.decrypt(&sum_ct, &sk).expect("decrypt"))
        .expect("decode");
    let expected: Vec<Complex> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| Complex::new(x.re + y.re, x.im + y.im))
        .collect();
    assert!(max_dist(&out, &expected) < 1e-4);
}

// ---------------------------------------------------------------------
// Tier-2: full bootstrappable-parameter runs (N = 2^14 … 2^16, 24-prime
// modulus). Gated behind `--ignored` because each takes seconds to
// minutes; tier-1 covers N = 2^13 above.
// ---------------------------------------------------------------------

fn bootstrappable_roundtrip(log_n: u32) {
    let ctx = CkksContext::new(CkksParams::bootstrappable(log_n).expect("preset")).expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(log_n as u128));
    let msg = message(ctx.params().slots());
    let ct = ctx.encrypt(
        &ctx.encode(&msg).expect("encode"),
        &pk,
        Seed::from_u128(log_n as u128 + 100),
    );
    assert_eq!(ct.level(), 23);
    let out = ctx
        .decode(&ctx.decrypt(&ct, &sk).expect("decrypt"))
        .expect("decode");
    let err = max_dist(&out, &msg);
    assert!(err < 1e-4, "N=2^{log_n}: error {err} too large");
}

#[test]
#[ignore = "tier-2: bootstrappable run at N = 2^14"]
fn tier2_bootstrappable_roundtrip_n14() {
    bootstrappable_roundtrip(14);
}

#[test]
#[ignore = "tier-2: bootstrappable run at N = 2^15"]
fn tier2_bootstrappable_roundtrip_n15() {
    bootstrappable_roundtrip(15);
}

#[test]
#[ignore = "tier-2: bootstrappable run at N = 2^16 (the paper's headline setting)"]
fn tier2_bootstrappable_roundtrip_n16() {
    bootstrappable_roundtrip(16);
}

#[test]
#[ignore = "tier-2: FP55 datapath at bootstrappable parameters"]
fn tier2_fp55_precision_at_bootstrappable_n13() {
    // The paper's reduced-precision datapath must hold its 19.29-bit
    // threshold at true bootstrappable parameters, not just small rings.
    // Precision is the paper's metric: -log2(RMS slot error), as
    // implemented by `ckks::precision::measure_precision` (worst-slot
    // error is a few bits tighter and is not what Fig. 3c plots).
    use abc_fhe::ckks::precision::measure_precision;
    let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
    let fp55 = SoftFloatField::fp55();
    let precision_bits = measure_precision(&ctx, &fp55, 1, Seed::from_u128(55)).expect("measure");
    assert!(
        precision_bits > 19.29,
        "FP55 precision {precision_bits} below the paper threshold at N=2^13"
    );
}

#[test]
#[ignore = "tier-2: ExtF64 embedding precision floor, N = 2^13 … 2^16"]
fn tier2_extf64_embedding_precision_floor() {
    // The EmbeddingPrecision::ExtF64 knob on the DoublePair
    // bootstrappable presets must decode far above the ~49-bit FP64
    // embedding ceiling (PR 3 measured 48.93 bits at N = 2^16):
    //
    // * the embedding round trip (encode → decode, the path the knob
    //   controls) must hold ≥ 55 bits at every preset size, and beat
    //   the FP64 figure by ≥ 8 bits at N = 2^16;
    // * with encryption in the loop (the paper's symmetric client
    //   flow), the measured precision must *also* hold the 55-bit
    //   floor — the embedding no longer masks the scheme's own noise.
    use abc_fhe::ckks::precision::{measure_configured_precision, measure_embedding_precision};
    use abc_fhe::prelude::EmbeddingPrecision;
    for log_n in 13..=16u32 {
        let params = CkksParams::bootstrappable(log_n)
            .expect("preset")
            .with_embedding(EmbeddingPrecision::ExtF64);
        let ctx = CkksContext::new(params).expect("ctx");
        let seed = Seed::from_u128(7000 + log_n as u128);
        let embed_bits = measure_embedding_precision(&ctx, 1, seed).expect("measure");
        assert!(
            embed_bits >= 55.0,
            "N=2^{log_n}: ExtF64 embedding precision {embed_bits:.2} below the 55-bit floor"
        );
        let enc_bits = measure_configured_precision(&ctx, 1, seed).expect("measure");
        assert!(
            enc_bits >= 55.0,
            "N=2^{log_n}: encrypted ExtF64 precision {enc_bits:.2} below the 55-bit floor"
        );
        if log_n == 16 {
            // ≥ 8 bits over PR 3's 48.93-bit FP64 figure.
            assert!(
                embed_bits >= 48.93 + 8.0,
                "N=2^16: {embed_bits:.2} bits is less than 8 over the 48.93-bit FP64 ceiling"
            );
        }
        println!(
            "N=2^{log_n} extf64: embedding {embed_bits:.2} bits, encrypted {enc_bits:.2} bits"
        );
    }
}

/// Encrypted dot product of two 64-slot vectors: ct×ct multiply →
/// relinearize → log₂-depth rotate-and-add at the Δ_eff² product scale
/// → one pair-rescale. Returns the accurate bits of slot 0 against the
/// cleartext ⟨w, x⟩.
fn encrypted_dot_product_bits(ctx: &CkksContext) -> f64 {
    use abc_fhe::ckks::evaluator;
    const FEATURES: usize = 64;
    let (sk, pk) = ctx.keygen(Seed::from_u128(41));
    let x: Vec<Complex> = (0..FEATURES)
        .map(|i| Complex::new((i as f64 * 0.37).sin() * 0.8, 0.0))
        .collect();
    let w: Vec<Complex> = (0..FEATURES)
        .map(|i| Complex::new((i as f64 * 0.19).cos() * 0.6, 0.0))
        .collect();
    let cx = ctx.encrypt(&ctx.encode(&x).expect("e"), &pk, Seed::from_u128(42));
    let cw = ctx.encrypt(&ctx.encode(&w).expect("e"), &pk, Seed::from_u128(43));
    let evk = ctx.gen_eval_key(&sk, Seed::from_u128(44));
    let product = evaluator::mul(ctx, &cx, &cw).expect("mul");
    let mut acc = evaluator::relinearize(ctx, &product, &evk).expect("relin");
    for k in 0..FEATURES.ilog2() {
        let steps = 1usize << k;
        let gk = ctx
            .gen_rotation_key(&sk, steps, Seed::from_u128(50 + k as u128))
            .expect("rotation key");
        let rotated = evaluator::rotate(ctx, &acc, steps, &gk).expect("rotate");
        acc = evaluator::add(ctx, &acc, &rotated).expect("add");
    }
    let returned = evaluator::rescale(ctx, &acc).expect("rescale");
    let out = ctx
        .decode(&ctx.decrypt(&returned, &sk).expect("decrypt"))
        .expect("decode");
    let expected: f64 = x.iter().zip(&w).map(|(a, b)| a.re * b.re).sum();
    let err = out[0].dist(Complex::new(expected, 0.0));
    -(err / expected.abs()).log2()
}

#[test]
fn encrypted_dot_product_holds_forty_bits_small_ring() {
    // Tier-1 smoke of the full keyed pipeline at log_n = 10 on the same
    // DoublePair profile the bootstrappable presets use.
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(10)
            .num_primes(24)
            .prime_bits(36)
            .scale_bits(36)
            .scale_mode(abc_fhe::ckks::params::ScaleMode::DoublePair)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let bits = encrypted_dot_product_bits(&ctx);
    assert!(
        bits >= 40.0,
        "encrypted dot product below the 40-bit budget at log_n=10: {bits:.1} bits"
    );
}

fn tier2_encrypted_dot_product(log_n: u32) {
    let ctx = CkksContext::new(CkksParams::bootstrappable(log_n).expect("preset")).expect("ctx");
    let bits = encrypted_dot_product_bits(&ctx);
    println!("N=2^{log_n}: encrypted dot product accurate to {bits:.1} bits");
    assert!(
        bits >= 40.0,
        "N=2^{log_n}: encrypted dot product below the 40-bit budget: {bits:.1} bits"
    );
}

#[test]
#[ignore = "tier-2: encrypted dot product at N = 2^13"]
fn tier2_encrypted_dot_product_n13() {
    tier2_encrypted_dot_product(13);
}

#[test]
#[ignore = "tier-2: encrypted dot product at N = 2^14"]
fn tier2_encrypted_dot_product_n14() {
    tier2_encrypted_dot_product(14);
}

#[test]
#[ignore = "tier-2: encrypted dot product at N = 2^15"]
fn tier2_encrypted_dot_product_n15() {
    tier2_encrypted_dot_product(15);
}

#[test]
#[ignore = "tier-2: encrypted dot product at N = 2^16 (the paper's headline setting)"]
fn tier2_encrypted_dot_product_n16() {
    tier2_encrypted_dot_product(16);
}

#[test]
fn seeded_pipeline_is_fully_reproducible() {
    // Identical seeds must produce bit-identical ciphertexts across
    // independently constructed contexts — the property that lets the
    // accelerator regenerate everything from 128-bit seeds.
    let params = CkksParams::builder()
        .log_n(9)
        .num_primes(3)
        .build()
        .expect("params");
    let msg = message(1 << 8);
    let make = || {
        let ctx = CkksContext::new(params.clone()).expect("ctx");
        let (_, pk) = ctx.keygen(Seed::from_u128(10));
        ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(11))
    };
    assert_eq!(make(), make());
}

#[test]
fn client_runs_below_the_vector_cutoffs() {
    // N = 4 and 8 are the only rings where a plan's NTT runs `harvey`
    // beside an IFMA dyadic engine (the IFMA transform needs N ≥ 16),
    // the embedding FFT runs scalar (its AVX-512 rung needs ≥ 8 slots)
    // and every wire polynomial is a partial group of eight. Both
    // uploads and the download, in both scale modes.
    use abc_fhe::ckks::params::ScaleMode;
    use abc_fhe::ckks::symmetric::encrypt_symmetric_compressed;
    use abc_fhe::ckks::wire;
    for log_n in [2u32, 3] {
        for mode in [ScaleMode::Single, ScaleMode::DoublePair] {
            let at = format!("log_n {log_n} {mode:?}");
            let params = CkksParams::builder()
                .log_n(log_n)
                .num_primes(4)
                .scale_mode(mode)
                .secret_hamming_weight(Some(1 << (log_n - 1)))
                .build()
                .expect("params");
            let ctx = CkksContext::new(params).expect("ctx");
            let (sk, pk) = ctx.keygen(Seed::from_u128(21));
            let msg = message(ctx.params().slots());
            let pt = ctx.encode(&msg).expect("encode");
            let widths = ctx.wire_widths(ctx.params().num_primes());
            let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(22));
            let blob = wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
            let back = wire::deserialize_ciphertext(&blob).expect("unpack");
            assert_eq!(back, ct, "{at}: public-key upload");
            let seeded = encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(23));
            let blob = wire::serialize_compressed_ciphertext(&seeded, &widths).expect("pack");
            let seeded = wire::deserialize_compressed_ciphertext(&blob).expect("unpack");
            let expanded = seeded.expand(&ctx).expect("expand");
            for (what, ct) in [("public-key", back), ("seeded", expanded)] {
                let out = ctx
                    .decode(&ctx.decrypt(&ct, &sk).expect("decrypt"))
                    .expect("decode");
                let err = max_dist(&out, &msg);
                assert!(err < 1e-6, "{at}: {what} upload decodes {err} off");
            }
        }
    }
}
