//! Failure-injection tests: the pipeline must degrade loudly, not
//! silently, when inputs are corrupted or misused.

use abc_fhe::ckks::{noise, params::CkksParams, Ciphertext, CkksContext};
use abc_fhe::float::Complex;
use abc_fhe::prng::Seed;

fn ctx() -> CkksContext {
    CkksContext::new(
        CkksParams::builder()
            .log_n(9)
            .num_primes(3)
            .secret_hamming_weight(Some(32))
            .build()
            .expect("params"),
    )
    .expect("ctx")
}

fn msg(slots: usize) -> Vec<Complex> {
    (0..slots)
        .map(|i| Complex::new((i as f64 * 0.23).sin(), (i as f64 * 0.31).cos() * 0.4))
        .collect()
}

fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x.dist(*y)).fold(0.0, f64::max)
}

/// Flips one residue coefficient of `c0` in prime `prime`.
fn corrupt(ct: &Ciphertext, prime: usize, coeff: usize) -> Ciphertext {
    let (c0, c1) = ct.components();
    let mut n0 = c0.to_vec();
    n0[prime][coeff] ^= 1 << 20;
    Ciphertext::from_components_exact(n0, c1.to_vec(), ct.exact_scale().clone())
        .expect("same shape")
}

#[test]
fn single_bit_corruption_destroys_the_slot_plane() {
    let ctx = ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(1));
    let m = msg(ctx.params().slots());
    let ct = ctx.encrypt(&ctx.encode(&m).expect("encode"), &pk, Seed::from_u128(2));
    let clean = ctx
        .decode(&ctx.decrypt(&ct, &sk).expect("d"))
        .expect("decode");
    assert!(max_err(&clean, &m) < 1e-4);
    // One flipped bit in one residue: CRT spreads it across the whole
    // integer range, the FFT across every slot.
    let bad = corrupt(&ct, 1, 7);
    let garbled = ctx
        .decode(&ctx.decrypt(&bad, &sk).expect("d"))
        .expect("decode");
    assert!(
        max_err(&garbled, &m) > 1.0,
        "corruption must not decode quietly: err = {}",
        max_err(&garbled, &m)
    );
}

#[test]
fn corruption_is_visible_in_noise_measurement() {
    let ctx = ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(3));
    let pt = ctx.encode(&msg(16)).expect("encode");
    let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(4));
    let clean = noise::measure_noise(&ctx, &ct, &sk, &pt).expect("measure");
    let bad = corrupt(&ct, 0, 3);
    let dirty = noise::measure_noise(&ctx, &bad, &sk, &pt).expect("measure");
    // The noise monitor is the detection mechanism: orders of magnitude.
    assert!(dirty.max_abs > 1000.0 * clean.max_abs.max(1.0));
    assert!(dirty.headroom_bits < clean.headroom_bits);
}

#[test]
fn mismatched_seed_fails_symmetric_expansion() {
    use abc_fhe::ckks::symmetric;
    let ctx = ctx();
    let (sk, _) = ctx.keygen(Seed::from_u128(5));
    let m = msg(ctx.params().slots());
    let pt = ctx.encode(&m).expect("encode");
    let cct = symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(6));
    // Correct expansion decrypts fine.
    let good = cct.expand(&ctx).expect("expand");
    let out = ctx
        .decode(&ctx.decrypt(&good, &sk).expect("d"))
        .expect("decode");
    assert!(max_err(&out, &m) < 1e-4);
    // An attacker (or a bug) substituting a different mask seed yields
    // garbage — the c0/c1 pair no longer cancels under the key.
    let (c0, _) = good.components();
    let wrong_mask = {
        let other = symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(999));
        other.expand(&ctx).expect("expand")
    };
    let (_, wrong_c1) = wrong_mask.components();
    let franken = Ciphertext::from_components_exact(
        c0.to_vec(),
        wrong_c1.to_vec(),
        good.exact_scale().clone(),
    )
    .expect("shape");
    let garbled = ctx
        .decode(&ctx.decrypt(&franken, &sk).expect("d"))
        .expect("decode");
    assert!(max_err(&garbled, &m) > 1.0);
}

#[test]
fn oversized_message_magnitude_wraps_at_low_level() {
    // A message so large that Δ·m exceeds a single prime: decoding at
    // one prime wraps; decoding with the full basis still works.
    let ctx = ctx();
    let big: Vec<Complex> = (0..ctx.params().slots())
        .map(|_| Complex::new(30.0, 0.0))
        .collect();
    let pt = ctx.encode(&big).expect("encode");
    let full = ctx.decode(&pt).expect("decode");
    assert!(max_err(&full, &big) < 1e-4, "full basis must hold 30·2^36");
    // Single-prime view of the same plaintext: 30·2^36 ≈ 2^40.9 > q/2.
    let pt_low = {
        let residues = pt.residues()[..1].to_vec();
        // A one-prime plaintext: decrypt a truncated ciphertext whose c1
        // is zero, so `d = c0`.
        let ct = Ciphertext::from_components_exact(
            residues.clone(),
            vec![vec![0u64; ctx.params().n()]; 1],
            pt.exact_scale().clone(),
        )
        .expect("shape");
        let (sk, _) = ctx.keygen(Seed::from_u128(7));
        let d = ctx.decrypt(&ct, &sk).expect("d");
        ctx.decode(&d).expect("decode")
    };
    assert!(
        max_err(&pt_low, &big) > 1.0,
        "single-prime wrap must corrupt large messages"
    );
}

#[test]
fn evaluator_rejects_cross_level_operands() {
    use abc_fhe::ckks::evaluator;
    let ctx = ctx();
    let (_, pk) = ctx.keygen(Seed::from_u128(8));
    let a = ctx.encrypt(&ctx.encode(&msg(8)).expect("e"), &pk, Seed::from_u128(9));
    let b = a.truncated(2);
    assert!(evaluator::add(&ctx, &a, &b).is_err());
    // And scale mismatches.
    let w = ctx.encode(&msg(8)).expect("e");
    let scaled = evaluator::plaintext_mul(&ctx, &a, &w).expect("mul");
    assert!(evaluator::add(&ctx, &a, &scaled).is_err());
}

#[test]
fn wrong_galois_element_is_rejected_before_any_arithmetic() {
    use abc_fhe::ckks::evaluator;
    let ctx = ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(10));
    let m = msg(ctx.params().slots());
    let ct = ctx.encrypt(&ctx.encode(&m).expect("e"), &pk, Seed::from_u128(11));
    let gk1 = ctx
        .gen_rotation_key(&sk, 1, Seed::from_u128(12))
        .expect("rotation key");
    // A rotate-by-3 request against a rotate-by-1 key must fail loudly
    // — silently key-switching under the wrong automorphism would
    // decrypt to garbage with no error surfaced anywhere.
    let err = evaluator::rotate(&ctx, &ct, 3, &gk1).unwrap_err();
    assert!(matches!(err, abc_fhe::ckks::CkksError::InvalidParams(_)));
    // Conjugation (element 2N−1) is not a rotation key either.
    assert!(evaluator::conjugate(&ctx, &ct, &gk1).is_err());
    // The right pairing still works.
    let rot = evaluator::rotate(&ctx, &ct, 1, &gk1).expect("rotate");
    assert_eq!(rot.num_primes(), ct.num_primes());
}

#[test]
fn every_prefix_of_every_ciphertext_wire_form_is_rejected() {
    // The same strictness guarantee for both ciphertext encodings:
    // bit-packed (kind 1) and seed-compressed (kind 2). Every strict
    // prefix must fail and trailing garbage must fail — a partial
    // download or a concatenation bug can never parse.
    use abc_fhe::ckks::{symmetric, wire};
    let ctx = ctx();
    let (sk, pk) = ctx.keygen(Seed::from_u128(20));
    let pt = ctx.encode(&msg(16)).expect("encode");
    let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(21));
    let widths = ctx.params().residue_widths(ct.num_primes());
    let cct = symmetric::encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(22));

    type Parses = Box<dyn Fn(&[u8]) -> bool>;
    let forms: Vec<(&str, Vec<u8>, Parses)> = vec![
        (
            "bit-packed ciphertext",
            wire::serialize_ciphertext_packed(&ct, &widths).expect("serialize"),
            Box::new(|b: &[u8]| wire::deserialize_ciphertext(b).is_ok()),
        ),
        (
            "seed-compressed ciphertext",
            wire::serialize_compressed_ciphertext(&cct, &widths).expect("serialize"),
            Box::new(|b: &[u8]| wire::deserialize_compressed_ciphertext(b).is_ok()),
        ),
    ];
    for (name, bytes, parses) in &forms {
        assert!(parses(bytes), "{name}: the intact blob must deserialize");
        for cut in 0..bytes.len() {
            assert!(
                !parses(&bytes[..cut]),
                "{name}: prefix of {cut}/{} bytes must not deserialize",
                bytes.len()
            );
        }
        for garbage in [1usize, 8] {
            let mut long = bytes.clone();
            long.resize(long.len() + garbage, 0xA5);
            assert!(
                !parses(&long),
                "{name}: {garbage} trailing bytes must be rejected"
            );
        }
    }
}

#[test]
fn truncated_eval_key_on_the_wire_is_rejected() {
    use abc_fhe::ckks::wire;
    let ctx = ctx();
    let (sk, _) = ctx.keygen(Seed::from_u128(13));
    let evk = ctx.gen_eval_key(&sk, Seed::from_u128(14));
    let widths = ctx.params().residue_widths(ctx.basis().len());
    let bytes = wire::serialize_eval_key(&evk, &widths).expect("serialize");
    assert!(wire::deserialize_eval_key(&bytes).is_ok());
    // Every strict prefix must fail — a short read can never produce a
    // structurally valid (let alone correct) key-switching key.
    for cut in [0, 1, 11, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            wire::deserialize_eval_key(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not deserialize"
        );
    }
    // Trailing garbage is a length mismatch, not extra digits.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0u8; 8]);
    assert!(wire::deserialize_eval_key(&long).is_err());
    // And an eval-key blob is not a Galois key.
    assert!(wire::deserialize_galois_key(&bytes).is_err());
}
