//! A batch request holds one operation's worth of limbs, whatever its
//! size: the limb pool's allowance (`4 × limbs` per engine — one
//! plaintext, two ciphertext components, one polynomial of scratch) is
//! sized for one message in flight, so a worker that parked all `k`
//! plaintexts of an `EncryptBatch` before the first encrypt took
//! `(k − 1) × limbs` buffers from `malloc` on every such request and
//! freed them again.
//!
//! The pool is process-wide, so this test lives in a binary of its own.

use abc_ckks::limb_pool;
use abc_float::Complex;
use abc_gateway::{Gateway, GatewayConfig, Operation, Request, Response, UploadMode};

const LOG_N: u32 = 9;
const PRIMES: usize = 24;
const BATCH: usize = 8;

fn message(slots: usize, salt: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (salt.wrapping_mul(i as u64 * 2 + 1) % 2001) as f64 / 1000.0 - 1.0;
            Complex::new(x, -x / 3.0)
        })
        .collect()
}

#[test]
fn batch_requests_stay_inside_the_pool_allowance() {
    let n = 1usize << LOG_N;
    let gw = Gateway::start(GatewayConfig {
        workers: 1,
        log_n: LOG_N,
        num_primes: PRIMES,
        ..GatewayConfig::default()
    })
    .expect("start");
    let class = || limb_pool::class_stats(n).expect("registered by the worker's context");
    let round = |salt: u64| {
        let messages: Vec<_> = (0..BATCH as u64)
            .map(|i| message(n / 2, salt * 100 + i))
            .collect();
        let Response::EncryptedBatch { blobs, .. } = gw
            .call(Request {
                tenant: 1,
                deadline: None,
                op: Operation::EncryptBatch {
                    messages: messages.clone(),
                    mode: UploadMode::Full,
                },
            })
            .expect("batch encrypt")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(blobs.len(), BATCH);
        let Response::DecryptedBatch { slots } = gw
            .call(Request {
                tenant: 1,
                deadline: None,
                op: Operation::DecryptBatch { blobs },
            })
            .expect("batch decrypt")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(slots.len(), BATCH);
        for (got, want) in slots.iter().zip(&messages) {
            let worst = got
                .iter()
                .zip(want)
                .map(|(g, w)| g.dist(*w))
                .fold(0.0, f64::max);
            assert!(worst < 1e-4, "slot error {worst}");
        }
    };
    round(0);
    let warm = class();
    assert_eq!(warm.allowance, 4 * PRIMES);
    for salt in 1..=4 {
        round(salt);
    }
    let steady = class();
    assert_eq!(
        steady.misses, warm.misses,
        "a batch request took limbs from the allocator"
    );
    assert!(steady.hits > warm.hits);
    assert!(steady.resident <= steady.allowance, "{steady:?}");
    gw.shutdown();
}
