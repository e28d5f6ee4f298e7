//! The client datapath against the process-wide limb pool: steady state
//! is hit-only, and recycled limbs never leak into a result.
//!
//! The pool is shared by every test of this binary, so each test reads
//! the counters of a ring degree no other test here uses.

use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::symmetric::encrypt_symmetric_compressed;
use abc_ckks::{wire, CkksContext};
use abc_float::Complex;
use abc_prng::Seed;
use abc_transform::pool;
use abc_transform::rns_ntt::THREADS_ENV;

/// The bootstrappable preset's shape (24 primes, double scale), shrunk
/// to `N = 2^log_n`, on an engine of `threads` threads.
fn context(log_n: u32, threads: usize) -> CkksContext {
    let params = CkksParams::builder()
        .log_n(log_n)
        .num_primes(24)
        .scale_mode(ScaleMode::DoublePair)
        .secret_hamming_weight(Some(64))
        .build()
        .expect("params");
    // Engines capture the thread count at construction.
    let mut env = abc_math::envtest::EnvGuard::lock();
    env.set(THREADS_ENV, &threads.to_string());
    CkksContext::new(params).expect("context")
}

fn message(slots: usize, salt: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (salt.wrapping_mul(i as u64 * 2 + 1) % 2001) as f64 / 1000.0 - 1.0;
            Complex::new(x, -x / 3.0)
        })
        .collect()
}

fn worst_slot_error(got: &[Complex], want: &[Complex]) -> f64 {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .map(|(a, b)| a.dist(*b))
        .fold(0.0, f64::max)
}

#[test]
fn steady_state_takes_every_limb_from_the_pool() {
    // 24 limbs × 2^11 clears the engine's fan-out threshold, so the 2-
    // and 4-thread contexts really spawn.
    let log_n = 11;
    let n = 1usize << log_n;
    let class = || pool::class_stats(n).expect("registered by the context");
    for threads in [1usize, 2, 4] {
        let ctx = context(log_n, threads);
        assert_eq!(ctx.ntt_engine().threads(), threads);
        let (sk, pk) = ctx.keygen(Seed::from_u128(1));
        let widths = ctx.wire_widths(24);
        let msgs = [
            message(ctx.params().slots(), 3),
            message(ctx.params().slots(), 4),
        ];
        // Every flow once, each dropping its limbs where a client or a
        // server would: an upload, a 24-limb download, a download the
        // receiver truncates to 2 limbs, a seeded upload with its
        // expansion, and both messages encoded and decoded in turn.
        let cycle = |op: u64| {
            let seed = Seed::from_u128(100 + op as u128);
            let blob = {
                let pt = ctx.encode(&msgs[0]).expect("encode");
                let ct = ctx.encrypt(&pt, &pk, seed);
                wire::serialize_ciphertext_packed(&ct, &widths).expect("pack")
            };
            for limbs in [24usize, 2] {
                let ct = wire::deserialize_ciphertext(&blob).expect("unpack");
                let ct = if limbs < 24 { ct.truncated(limbs) } else { ct };
                let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
                let slots = ctx.decode(&pt).expect("decode");
                assert!(worst_slot_error(&slots, &msgs[0]) < 1e-6, "{limbs} limbs");
            }
            let seeded = {
                let pt = ctx.encode(&msgs[1]).expect("encode");
                let cct = encrypt_symmetric_compressed(&ctx, &pt, &sk, seed);
                wire::serialize_compressed_ciphertext(&cct, &widths).expect("pack")
            };
            {
                let cct = wire::deserialize_compressed_ciphertext(&seeded).expect("unpack");
                let ct = cct.expand(&ctx).expect("expand");
                assert_eq!(ct.num_primes(), 24);
            }
            for msg in &msgs {
                let pt = ctx.encode(msg).expect("encode");
                let slots = ctx.decode(&pt).expect("decode");
                assert!(worst_slot_error(&slots, msg) < 1e-6);
            }
        };
        cycle(0);
        let warm = class();
        for op in 1..=8 {
            cycle(op);
        }
        let steady = class();
        assert_eq!(
            steady.misses, warm.misses,
            "threads={threads}: a limb-sized request missed the pool"
        );
        assert!(steady.hits > warm.hits);
        assert!(steady.resident <= steady.allowance);
        assert_eq!(steady.allowance, 4 * 24);
        // The context takes its allowance with it, and the class keeps
        // nothing once no engine backs it.
        drop(ctx);
        assert_eq!((class().allowance, class().resident), (0, 0));
    }
}

#[test]
fn recycled_limbs_never_reach_a_result() {
    // Debug builds overwrite every returned limb with `pool::STALE`, so
    // a consumer that read a pooled limb before writing it would make
    // the second ciphertext differ from the first.
    let ctx = context(10, 2);
    let (sk, pk) = ctx.keygen(Seed::from_u128(7));
    let widths = ctx.wire_widths(24);
    let msg = message(ctx.params().slots(), 9);
    let upload = |msg: &[Complex], seed: u128| {
        let ct = ctx.encrypt(
            &ctx.encode(msg).expect("encode"),
            &pk,
            Seed::from_u128(seed),
        );
        let blob = wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
        (ct, blob)
    };
    let (ct, blob) = upload(&msg, 42);
    // Unrelated traffic through the same pool: other messages and seeds,
    // a decrypt + decode, a 2-limb truncation.
    for other in 0..3u128 {
        let (noise_ct, noise_blob) = upload(&message(msg.len(), 11 + other as u64), 500 + other);
        let back = wire::deserialize_ciphertext(&noise_blob).expect("unpack");
        assert_eq!(back, noise_ct);
        let low = back.truncated(2);
        ctx.decode(&ctx.decrypt(&low, &sk).expect("decrypt"))
            .expect("decode");
    }
    let (again, again_blob) = upload(&msg, 42);
    assert_eq!(again, ct, "same message and seed, different ciphertext");
    assert_eq!(again_blob, blob, "same message and seed, different blob");
    assert!(again
        .components()
        .0
        .iter()
        .chain(again.components().1)
        .flatten()
        .all(|&w| w != pool::STALE));
    let slots = ctx
        .decode(&ctx.decrypt(&again, &sk).expect("decrypt"))
        .expect("decode");
    assert!(worst_slot_error(&slots, &msg) < 1e-6);
}
