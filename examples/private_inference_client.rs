//! The paper's motivating scenario (Fig. 1): a client ships encrypted
//! features to a cloud model and decrypts the prediction.
//!
//! This example plays *both* sides locally — and the model is private
//! too: the client encrypts the feature vector **and** the weight
//! vector, so the "server" computes a true encrypted dot product
//!
//! ```text
//! ⟨w, x⟩ = rescale( Σ_k rot( relin(enc(x)·enc(w)), 2^k ) )
//! ```
//!
//! with a ciphertext×ciphertext multiply, relinearization, and a
//! log₂-depth rotate-and-add reduction — the full keyed-evaluator
//! pipeline. The rotations run at the *product* scale (Δ_eff² = 2^144),
//! where the key-switch noise (≈2^45) is ~99 bits under the scale; one
//! pair-rescale at the end returns a Δ_eff ciphertext. The client
//! decrypts slot 0 and verifies ≥ 40 bits of slot accuracy against the
//! cleartext dot product.
//!
//! ```text
//! cargo run --release --example private_inference_client
//! ```

use abc_fhe::ckks::params::{CkksParams, ScaleMode};
use abc_fhe::ckks::{evaluator, wire, Ciphertext, CkksContext, EvalKey, GaloisKey};
use abc_fhe::hw::opcount;
use abc_fhe::prelude::*;

const FEATURES: usize = 64;

/// Power-of-two rotation steps for the log₂-depth reduction over
/// [`FEATURES`] slots.
fn reduction_steps() -> Vec<usize> {
    (0..FEATURES.ilog2()).map(|k| 1usize << k).collect()
}

/// Server-side evaluator: encrypted dot product of two ciphertexts via
/// multiply → relinearize → rotate-and-add → pair-rescale. After the
/// reduction, slot 0 carries `Σ_i x_i·w_i`.
fn server_dot_product(
    ctx: &CkksContext,
    cx: &Ciphertext,
    cw: &Ciphertext,
    evk: &EvalKey,
    rotation_keys: &[(usize, GaloisKey)],
) -> Result<Ciphertext, Box<dyn std::error::Error>> {
    let product = evaluator::mul(ctx, cx, cw)?;
    let mut acc = evaluator::relinearize(ctx, &product, evk)?;
    // Lazy rescale: reduce at the Δ_eff² product scale so each rotation's
    // key-switch noise stays ~99 bits under the scale, then drop a
    // double-scale prime pair once.
    for (steps, gk) in rotation_keys {
        let rotated = evaluator::rotate(ctx, &acc, *steps, gk)?;
        acc = evaluator::add(ctx, &acc, &rotated)?;
    }
    Ok(evaluator::rescale(ctx, &acc)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Bootstrappable parameters at the small end (N = 2^13) so the
    // example runs in seconds; the paper's headline is 2^16.
    // `ABC_FHE_LOG_N` overrides the ring degree (CI smoke-tests at
    // log_n = 10, below the bootstrappable floor, via the builder —
    // still on the DoublePair profile the keyed ops need). Unparseable
    // overrides abort here rather than silently demoing at 2^13.
    let params = match abc_fhe::ckks::params::log_n_from_env(13)? {
        log_n if log_n < 13 => CkksParams::builder()
            .log_n(log_n)
            .num_primes(24)
            .prime_bits(36)
            .scale_bits(36)
            .scale_mode(ScaleMode::DoublePair)
            .build()?,
        log_n => CkksParams::bootstrappable(log_n)?,
    };
    let ctx = CkksContext::new(params)?;
    let (sk, pk) = ctx.keygen(Seed::from_u128(0x5EC2E7));

    // Client: encode + encrypt the features AND the (private) weights.
    let features: Vec<Complex> = (0..FEATURES)
        .map(|i| Complex::new(((i * 37) % 100) as f64 / 100.0, 0.0))
        .collect();
    let weights: Vec<Complex> = (0..FEATURES)
        .map(|i| Complex::new(if i % 2 == 0 { 0.5 } else { -0.25 }, 0.0))
        .collect();
    let cx = ctx.encrypt(&ctx.encode(&features)?, &pk, Seed::from_u128(7));
    let cw = ctx.encrypt(&ctx.encode(&weights)?, &pk, Seed::from_u128(8));

    // One-time evaluation keys: relinearization plus one Galois key per
    // power-of-two rotation step.
    let evk = ctx.gen_eval_key(&sk, Seed::from_u128(100));
    let rotation_keys: Vec<(usize, GaloisKey)> = reduction_steps()
        .into_iter()
        .map(|s| {
            let gk = ctx
                .gen_rotation_key(&sk, s, Seed::from_u128(200 + s as u128))
                .expect("rotation key");
            (s, gk)
        })
        .collect();

    // Uplink traffic, charged at the v3 bit-packed wire sizes (the 8
    // B/coefficient `byte_size` figures overstate 36-bit residues ~1.8×).
    let widths = ctx.params().residue_widths(ctx.basis().len());
    let key_bytes = wire::serialize_eval_key(&evk, &widths)?.len()
        + rotation_keys
            .iter()
            .map(|(_, gk)| wire::serialize_galois_key(gk, &widths).map(|b| b.len()))
            .sum::<Result<usize, _>>()?;
    println!(
        "client sends 2 × {:.2} MiB ciphertexts + {:.1} MiB one-time keys (N = {}, level {})",
        cx.packed_byte_size(ctx.params()) as f64 / (1024.0 * 1024.0),
        key_bytes as f64 / (1024.0 * 1024.0),
        ctx.params().n(),
        cx.level()
    );

    // "Server": the encrypted dot product.
    let returned = server_dot_product(&ctx, &cx, &cw, &evk, &rotation_keys)?;
    println!(
        "server returns level-{} ciphertext at scale 2^{:.0} ({:.2} MiB packed)",
        returned.level(),
        returned.scale().log2(),
        returned.packed_byte_size(ctx.params()) as f64 / (1024.0 * 1024.0)
    );

    // Client: decrypt + decode slot 0, verify against cleartext ⟨w, x⟩.
    let scores = ctx.decode(&ctx.decrypt(&returned, &sk)?)?;
    let expected = features
        .iter()
        .zip(&weights)
        .fold(Complex::zero(), |acc, (x, w)| {
            Complex::new(
                acc.re + x.re * w.re - x.im * w.im,
                acc.im + x.re * w.im + x.im * w.re,
            )
        });
    let err = scores[0].dist(expected);
    let accuracy_bits = -(err / expected.dist(Complex::zero()).max(1e-300)).log2();
    println!(
        "slot 0 = {:.12} vs cleartext ⟨w,x⟩ = {:.12}: {accuracy_bits:.1} accurate bits",
        scores[0].re, expected.re
    );
    assert!(
        accuracy_bits >= 40.0,
        "encrypted dot product below the 40-bit budget: {accuracy_bits:.1} bits (err {err:.3e})"
    );

    // What the server ops cost at these parameters (Fig. 2b-style rows)…
    for row in opcount::server_op_rows(ctx.params().n() as u64, ctx.basis().len() as u64) {
        println!(
            "server op {:>11}: {:>8.1} Mops ({:.0}% NTT)",
            row.phase, row.mops, row.category_pct[1]
        );
    }
    // …and what the accelerator would cost the client, end to end.
    let cfg = SimConfig::paper_default();
    let up = simulate(&Workload::encode_encrypt(13, 24), &cfg);
    let down = simulate(&Workload::decode_decrypt(13, 3), &cfg);
    println!(
        "ABC-FHE client cost: {:.4} ms up + {:.4} ms down per inference",
        up.time_ms, down.time_ms
    );
    Ok(())
}
