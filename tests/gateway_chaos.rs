//! Chaos suite for the gateway (tier-1): under a seeded, replayable
//! fault storm — injected worker panics, corrupted/truncated wire
//! blobs, stalls, queue-full bursts — every submitted request must
//! resolve to success or a typed error (zero lost/hung requests),
//! panicked workers must resume, and a clean phase after the storm must
//! be as clean as one before it. The wall-clock half — post-storm
//! throughput within 10% of the clean baseline — is tier-2 (`--ignored`):
//! on a shared machine two 100 ms windows differ by more than that on
//! their own, whatever the gateway does.

use abc_fhe::ckks::limb_pool;
use abc_fhe::float::Complex;
use abc_fhe::gateway::{
    FaultPlan, Gateway, GatewayConfig, GatewayError, Operation, Request, Response, UploadMode,
};
use abc_fhe::prng::Seed;
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Silences the expected panic spam from injected faults (process-wide,
/// so installed once); genuine panics still print.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected worker fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn config() -> GatewayConfig {
    GatewayConfig {
        workers: 2,
        log_n: 9,
        num_primes: 2,
        ..GatewayConfig::default()
    }
}

fn storm() -> FaultPlan {
    FaultPlan::storm(
        Seed::from_u128(0xBAD_CAFE),
        0..u64::MAX,
        120, // ~12% worker panics
        120, // ~12% blob corruption/truncation
        80,  // ~8% stalls
        Duration::from_millis(1),
    )
}

fn msg(slots: usize, salt: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (salt.wrapping_mul(2 * i as u64 + 1) % 1999) as f64 / 1000.0 - 1.0;
            Complex::new(x, x / 3.0)
        })
        .collect()
}

/// A mixed workload: encrypts, decrypts of a known-good blob, ingests,
/// and batches. Returns per-request terminal outcomes.
fn run_workload(
    gw: &Arc<Gateway>,
    clients: usize,
    per_client: usize,
    salt: u64,
    retry: bool,
) -> Vec<Result<(), GatewayError>> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let gw = Arc::clone(gw);
            std::thread::spawn(move || {
                let tenant = 1 + c as u64;
                let call = |req: Request| {
                    if retry {
                        gw.call_with_retry(req)
                    } else {
                        gw.call(req)
                    }
                };
                // A decryptable blob for this tenant (retried past any
                // injected faults; permanent failure is impossible for
                // a well-formed encrypt).
                let mut blob = None;
                for _ in 0..50 {
                    match call(Request {
                        tenant,
                        deadline: None,
                        op: Operation::Encrypt {
                            message: msg(8, salt + c as u64),
                            mode: UploadMode::Full,
                        },
                    }) {
                        Ok(Response::Encrypted { blob: b, .. }) => {
                            blob = Some(b);
                            break;
                        }
                        _ => continue,
                    }
                }
                let blob = blob.expect("a clean encrypt eventually lands");
                (0..per_client)
                    .map(|i| {
                        let op = match i % 6 {
                            0..=2 => Operation::Encrypt {
                                message: msg(8, salt + i as u64),
                                mode: UploadMode::Auto,
                            },
                            3 => Operation::Decrypt { blob: blob.clone() },
                            4 => Operation::Ingest { blob: blob.clone() },
                            _ => Operation::EncryptBatch {
                                messages: vec![msg(8, salt + i as u64)],
                                mode: UploadMode::Full,
                            },
                        };
                        call(Request {
                            tenant,
                            deadline: Some(Duration::from_secs(10)),
                            op,
                        })
                        .map(|_| ())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread survives"))
        .collect()
}

#[test]
fn every_request_resolves_under_the_storm_and_workers_resume() {
    quiet_injected_panics();
    // A ring degree of its own: the limb pool is process-wide, and this
    // test reads the allowance of its size class.
    let (log_n, n) = (8, 1usize << 8);
    let gw = Arc::new(Gateway::start(GatewayConfig { log_n, ..config() }).expect("start"));
    // One context however many workers: each holds a reference to the
    // one `start` built, and the pool retains an operation's limbs
    // (4 polynomials × 2 primes) per worker for it. A panic changes
    // neither.
    let one_context_two_workers = |when: &str| {
        assert_eq!(Arc::strong_count(gw.context()), 2 + 1, "{when}");
        let class = limb_pool::class_stats(n).expect("registered by the gateway");
        assert_eq!(class.allowance, 2 * 4 * 2, "{when}");
    };
    let starting = Instant::now();
    while gw.live_workers() < 2 && starting.elapsed() < Duration::from_secs(10) {
        std::thread::yield_now();
    }
    one_context_two_workers("before the storm");
    gw.set_fault_plan(storm());
    let outcomes = run_workload(&gw, 3, 40, 10_000, true);
    gw.set_fault_plan(FaultPlan::disabled());
    assert_eq!(outcomes.len(), 120, "every request produced an outcome");
    for out in &outcomes {
        match out {
            Ok(()) => {}
            Err(e) => {
                // Typed, classified errors only — the taxonomy is the
                // contract; an unclassifiable failure is a bug.
                assert!(
                    matches!(
                        e,
                        GatewayError::Overloaded { .. }
                            | GatewayError::BatchShed
                            | GatewayError::Timeout(_)
                            | GatewayError::WorkerPanicked
                            | GatewayError::BadRequest(_)
                    ),
                    "unexpected error class: {e:?}"
                );
            }
        }
    }
    assert!(gw.drain(Duration::from_secs(30)), "queue drains");
    let snap = gw.metrics();
    assert_eq!(snap.in_flight(), 0, "zero lost requests: {snap:?}");
    assert!(snap.worker_panics > 0, "storm injected panics: {snap:?}");
    assert_eq!(gw.live_workers(), 2, "every panicked worker resumed");
    one_context_two_workers("after the storm");
    // The gateway still works after the storm.
    let after = gw.call(Request {
        tenant: 9,
        deadline: None,
        op: Operation::Encrypt {
            message: msg(8, 1),
            mode: UploadMode::Full,
        },
    });
    assert!(after.is_ok(), "post-storm request failed: {after:?}");
    let Ok(gw) = Arc::try_unwrap(gw) else {
        panic!("clients still hold the gateway");
    };
    gw.shutdown();
    let class = limb_pool::class_stats(n).expect("class outlives its allowance");
    assert_eq!(class.allowance, 0, "shutdown withdraws the allowance");
}

/// Turns the storm on for one retried workload, then off, and waits for
/// the queue to drain.
fn run_storm(gw: &Arc<Gateway>) {
    gw.set_fault_plan(storm());
    run_workload(gw, 3, 30, 30_000, true);
    gw.set_fault_plan(FaultPlan::disabled());
    assert!(gw.drain(Duration::from_secs(30)));
}

#[test]
fn a_clean_phase_is_clean_before_and_after_the_storm() {
    quiet_injected_panics();
    let gw = Arc::new(Gateway::start(config()).expect("start"));
    let clean_phase = |salt: u64| {
        let outcomes = run_workload(&gw, 3, 30, salt, false);
        assert_eq!(outcomes.len(), 90);
        assert!(outcomes.iter().all(|o| o.is_ok()), "clean phase is clean");
    };
    clean_phase(20_000);
    run_storm(&gw);
    clean_phase(40_000);
    let snap = gw.metrics();
    assert!(snap.worker_panics > 0, "storm injected panics: {snap:?}");
    assert_eq!(snap.in_flight(), 0, "zero lost requests across all phases");
    assert_eq!(gw.live_workers(), 2, "pool at full strength");
}

#[test]
#[ignore = "tier-2: compares wall-clock rates, needs a machine to itself"]
fn post_storm_throughput_is_within_ten_percent_of_pre_storm() {
    quiet_injected_panics();
    let gw = Arc::new(Gateway::start(config()).expect("start"));
    // Warm up pools and sessions, then size a measured phase by request
    // count so that it runs for at least 100 ms: a phase of a few
    // milliseconds measures the scheduler, not the gateway.
    run_workload(&gw, 3, 8, 0, false);
    let t = Instant::now();
    run_workload(&gw, 3, 30, 10_000, false);
    let per_client = (30.0 * 0.1 / t.elapsed().as_secs_f64()).ceil().max(30.0) as usize;
    // Best of three clean phases, stopping early at `enough`: the fault
    // schedule is off, so re-measuring only re-rolls OS scheduler noise.
    // Both sides of the comparison are measured this way, in one run.
    let best_rate = |salt: u64, enough: f64| {
        let mut best = 0.0f64;
        for attempt in 0..3u64 {
            let t = Instant::now();
            let outcomes = run_workload(&gw, 3, per_client, salt + attempt, false);
            let elapsed = t.elapsed();
            assert!(outcomes.iter().all(|o| o.is_ok()), "clean phase is clean");
            best = best.max(outcomes.len() as f64 / elapsed.as_secs_f64());
            if best >= enough {
                break;
            }
        }
        best
    };
    let pre_rate = best_rate(20_000, f64::INFINITY);
    run_storm(&gw);
    let post_rate = best_rate(40_000, 0.9 * pre_rate);
    assert!(
        post_rate >= 0.9 * pre_rate,
        "post-storm rate {post_rate:.1}/s < 90% of pre-storm {pre_rate:.1}/s"
    );
}

#[test]
fn queue_full_bursts_shed_with_typed_errors_and_degrade_uploads() {
    quiet_injected_panics();
    let gw = Arc::new(
        Gateway::start(GatewayConfig {
            workers: 1,
            queue_capacity: 8,
            log_n: 9,
            num_primes: 2,
            ..GatewayConfig::default()
        })
        .expect("start"),
    );
    // Stall every request a little so the burst backs up the queue.
    gw.set_fault_plan(FaultPlan::storm(
        Seed::from_u128(0x510),
        0..u64::MAX,
        0,
        0,
        1024,
        Duration::from_millis(10),
    ));
    let mut tickets = Vec::new();
    let mut overloaded = 0;
    let mut batch_shed = 0;
    for i in 0..40u64 {
        let op = if i % 5 == 4 {
            Operation::EncryptBatch {
                messages: vec![msg(8, i)],
                mode: UploadMode::Full,
            }
        } else {
            Operation::Encrypt {
                message: msg(8, i),
                mode: UploadMode::Auto,
            }
        };
        match gw.submit(Request {
            tenant: 1 + i % 3,
            deadline: Some(Duration::from_secs(10)),
            op,
        }) {
            Ok(t) => tickets.push(t),
            Err(GatewayError::Overloaded { .. }) => overloaded += 1,
            Err(GatewayError::BatchShed) => batch_shed += 1,
            Err(e) => panic!("unexpected admission error: {e:?}"),
        }
    }
    assert!(overloaded > 0, "burst past capacity sheds with Overloaded");
    assert!(batch_shed > 0, "batch work sheds first");
    let mut compressed = 0;
    for t in tickets {
        if let Response::Encrypted {
            compressed: true, ..
        } = t.wait().expect("admitted requests resolve")
        {
            compressed += 1;
        }
    }
    assert!(
        compressed > 0,
        "Auto uploads degrade to seed-compressed past the watermark"
    );
    gw.set_fault_plan(FaultPlan::disabled());
    assert!(gw.drain(Duration::from_secs(30)));
    let snap = gw.metrics();
    assert_eq!(snap.in_flight(), 0, "zero lost requests: {snap:?}");
    assert_eq!(snap.shed_overload, overloaded);
    assert_eq!(snap.shed_batch, batch_shed);
    assert!(snap.degraded_compressed >= compressed);
}

#[test]
fn damaged_wire_blobs_are_typed_rejections_not_crashes() {
    quiet_injected_panics();
    let gw = Gateway::start(config()).expect("start");
    let Response::Encrypted { blob, .. } = gw
        .call(Request {
            tenant: 1,
            deadline: None,
            op: Operation::Encrypt {
                message: msg(8, 5),
                mode: UploadMode::Full,
            },
        })
        .expect("encrypt")
    else {
        panic!("wrong response kind");
    };
    // Break the magic, cut the tail, append garbage: all BadRequest.
    // (Payload bit-flips parse — the wire format has no checksum — and
    // are instead caught downstream by the noise monitor; see
    // tests/failure_injection.rs.)
    let mut flipped = blob.clone();
    flipped[0] ^= 0x41;
    let mut truncated = blob.clone();
    truncated.truncate(blob.len() / 2);
    let mut padded = blob.clone();
    padded.extend_from_slice(b"xx");
    for bad in [flipped, truncated, padded] {
        let out = gw.call(Request {
            tenant: 1,
            deadline: None,
            op: Operation::Ingest { blob: bad },
        });
        assert!(
            matches!(out, Err(GatewayError::BadRequest(_))),
            "damaged blob accepted: {out:?}"
        );
    }
    // The pristine blob still ingests — the gateway is unharmed.
    let ok = gw.call(Request {
        tenant: 1,
        deadline: None,
        op: Operation::Ingest { blob },
    });
    assert!(ok.is_ok(), "{ok:?}");
    let snap = gw.metrics();
    assert_eq!(snap.bad_requests, 3);
    assert_eq!(snap.worker_panics, 0, "rejection is not a panic");
}

#[test]
fn hostile_scale_headers_are_bad_requests_not_stalls() {
    // Two blobs that used to parse: a scale exponent of `i32::MIN`
    // (decode then spent |exp|/900 `ldexp` steps per coefficient — over
    // a minute at N = 2^13) and 65535 "dropped primes" (a quadratic
    // product per decode). The compute deadline is only read before and
    // after the work, so each parked a worker; now neither gets past
    // the header.
    quiet_injected_panics();
    let gw = Gateway::start(config()).expect("start");
    let Response::Encrypted { blob, .. } = gw
        .call(Request {
            tenant: 1,
            deadline: None,
            op: Operation::Encrypt {
                message: msg(8, 5),
                mode: UploadMode::Full,
            },
        })
        .expect("encrypt")
    else {
        panic!("wrong response kind");
    };
    // Fresh scale: `exp` at 10..14, `den_len` at 16..18, one numerator
    // byte at 18, the denominator (empty) after it.
    let mut min_exp = blob.clone();
    min_exp[10..14].copy_from_slice(&i32::MIN.to_le_bytes());
    let mut long_den = blob[..19].to_vec();
    long_den[16..18].copy_from_slice(&u16::MAX.to_le_bytes());
    long_den.extend((0..u16::MAX).flat_map(|_| 0xF_FFF0_0001u64.to_le_bytes()));
    long_den.extend_from_slice(&blob[19..]);

    for bad in [min_exp, long_den] {
        for op in [
            Operation::Decrypt { blob: bad.clone() },
            Operation::Ingest { blob: bad.clone() },
        ] {
            let out = gw.call(Request {
                tenant: 1,
                deadline: None,
                op,
            });
            assert!(
                matches!(out, Err(GatewayError::BadRequest(_))),
                "hostile header got past the door: {out:?}"
            );
        }
    }
    // The honest blob still decrypts on the same workers.
    let ok = gw.call(Request {
        tenant: 1,
        deadline: None,
        op: Operation::Decrypt { blob },
    });
    assert!(ok.is_ok(), "{ok:?}");
    let snap = gw.metrics();
    assert_eq!(snap.bad_requests, 4);
    assert_eq!(snap.worker_panics, 0, "rejection is not a panic");
}

#[test]
fn a_residue_at_or_above_q_is_a_bad_request_in_every_profile() {
    // The parser bounds a residue by its bit width; the last 8 bytes of
    // a packed blob set to 0xFF are the top residues of its last limb at
    // `2^w − 1`, above the prime. Unchecked, the dyadic core's canonical
    // `debug_assert!` unwound the worker in the debug profile
    // (`WorkerPanicked`, which `call_with_retry` re-submits) and release
    // answered `Ok` with garbage slots.
    quiet_injected_panics();
    let gw = Gateway::start(config()).expect("start");
    let encrypt = |mode| {
        let out = gw.call(Request {
            tenant: 1,
            deadline: None,
            op: Operation::Encrypt {
                message: msg(8, 5),
                mode,
            },
        });
        let Ok(Response::Encrypted { mut blob, .. }) = out else {
            panic!("encrypt: {out:?}");
        };
        let honest = blob.clone();
        let tail = blob.len() - 8;
        blob[tail..].fill(0xFF);
        (honest, blob)
    };
    let (full, bad_full) = encrypt(UploadMode::Full);
    let (seeded, bad_seeded) = encrypt(UploadMode::Compressed);
    let ops = [
        Operation::Decrypt {
            blob: bad_full.clone(),
        },
        Operation::DecryptBatch {
            blobs: vec![full.clone(), bad_full],
        },
        Operation::Ingest { blob: bad_seeded },
    ];
    let hostile = ops.len() as u64;
    for op in ops {
        let out = gw.call(Request {
            tenant: 1,
            deadline: None,
            op,
        });
        assert!(
            matches!(out, Err(GatewayError::BadRequest(_))),
            "a residue above its prime got to the arithmetic: {out:?}"
        );
    }
    // The honest blobs still pass on the same workers.
    for op in [
        Operation::Decrypt { blob: full },
        Operation::Ingest { blob: seeded },
    ] {
        let ok = gw.call(Request {
            tenant: 1,
            deadline: None,
            op,
        });
        assert!(ok.is_ok(), "{ok:?}");
    }
    let snap = gw.metrics();
    assert_eq!(snap.bad_requests, hostile);
    assert_eq!(snap.worker_panics, 0, "rejection is not a panic");
    assert_eq!(snap.in_flight(), 0, "{snap:?}");
}

#[test]
fn fault_schedule_replays_bit_exactly() {
    quiet_injected_panics();
    // Same seed + same single-threaded submission order ⇒ identical
    // per-request outcome classes on two independent gateways.
    let run = || {
        let gw = Gateway::start(config()).expect("start");
        gw.set_fault_plan(storm());
        (0..40u64)
            .map(|i| {
                let out = gw.call(Request {
                    tenant: 1,
                    deadline: None,
                    op: Operation::Encrypt {
                        message: msg(8, i),
                        mode: UploadMode::Full,
                    },
                });
                match out {
                    Ok(_) => 0u8,
                    Err(GatewayError::WorkerPanicked) => 1,
                    Err(_) => 2,
                }
            })
            .collect::<Vec<u8>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos run is not replayable");
    assert!(a.contains(&1), "storm injected at least one panic");
}
