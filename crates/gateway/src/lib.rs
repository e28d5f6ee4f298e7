//! # abc-gateway — fault-tolerant multi-tenant encryption gateway
//!
//! The ABC-FHE paper frames client-side CKKS as infrastructure for
//! *fleets* of users; this crate is the service tier that framing
//! implies, built robustness-first on `std::thread` only:
//!
//! - **Bounded admission** ([`queue`]): one fixed-capacity FIFO between
//!   clients and workers. Over-capacity work is rejected with
//!   [`GatewayError::Overloaded`] at the door — backpressure, never
//!   unbounded buffering.
//! - **Graceful degradation** ([`config`]): as queue depth climbs past
//!   a quarter of its capacity, `Auto`-mode uploads drop to
//!   seed-compressed wire (kind 2, ~half the bytes, identical slot
//!   precision — measurable with [`abc_ckks::noise::measure_slot_noise`]),
//!   past half of it batch work is shed, and only at capacity are single
//!   requests refused. Bulk work dies first; sessions die last.
//! - **Deadlines** ([`error::TimeoutStage`]): each request carries a
//!   deadline checked when dequeued and after compute, classifying
//!   *where* the budget went — queue timeouts are transient (retry
//!   into a shallower queue), compute timeouts are not.
//! - **Panic isolation** (`worker`): every request runs under
//!   `catch_unwind`; a panicking worker resolves its caller with
//!   [`GatewayError::WorkerPanicked`] via a drop guard and resumes on
//!   the gateway's one shared `CkksContext`, which is immutable after
//!   construction. A caller is never left hanging — the
//!   **zero-lost-request invariant**: every submission resolves to
//!   success or a typed error, checkable as `submitted == resolved` in
//!   [`metrics`].
//! - **Retry** ([`Gateway::call_with_retry`]): caller-side jittered
//!   exponential backoff, transient errors only, jitter derived from a
//!   seed so chaos runs replay bit-exactly.
//! - **Sessions** (`session`): per-tenant keys in an LRU cache,
//!   derived deterministically from the master seed — eviction is
//!   benign, re-derivation is exact.
//! - **Strict ingress** (`worker`): uploaded wire blobs go through
//!   the v3 deserializers' full validation; damaged bytes are
//!   [`GatewayError::BadRequest`], never a panic or a stored corrupt
//!   blob.
//! - **Deterministic chaos** ([`FaultPlan`]): the entire fault schedule
//!   (worker panics, blob corruption/truncation, stalls) is a pure
//!   function of a seed and the request sequence number, windowed so a
//!   single run measures pre-fault, storm, and recovery phases.
//!
//! The `gateway_loadgen` binary drives all of this under a seeded
//! fault storm and reports ciphertexts/sec, p95 latency, and the
//! shed/retry/panic counters; `tests/gateway_chaos.rs` (workspace
//! root) asserts the invariants.

pub mod config;
pub mod error;
mod fault;
pub mod lru;
pub mod metrics;
pub mod queue;
mod retry;
mod service;
mod session;
pub(crate) mod sync;
pub(crate) mod worker;

pub use config::GatewayConfig;
pub use error::{GatewayError, TimeoutStage};
pub use fault::{Fault, FaultPlan};
pub use metrics::MetricsSnapshot;
pub use service::{Gateway, Operation, Request, Response, Ticket, UploadMode};

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::Complex;
    use std::time::Duration;

    fn msg(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.17).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    fn small_config() -> GatewayConfig {
        GatewayConfig {
            workers: 2,
            log_n: 8,
            num_primes: 2,
            ..GatewayConfig::default()
        }
    }

    #[test]
    fn encrypt_then_decrypt_roundtrips_through_the_wire() {
        let gw = Gateway::start(small_config()).expect("start");
        let message = msg(16);
        let encrypted = gw
            .call(Request {
                tenant: 7,
                deadline: None,
                op: Operation::Encrypt {
                    message: message.clone(),
                    mode: UploadMode::Full,
                },
            })
            .expect("encrypt");
        let Response::Encrypted { blob, compressed } = encrypted else {
            panic!("wrong response kind");
        };
        assert!(!compressed);
        let decrypted = gw
            .call(Request {
                tenant: 7,
                deadline: None,
                op: Operation::Decrypt { blob },
            })
            .expect("decrypt");
        let Response::Decrypted { slots } = decrypted else {
            panic!("wrong response kind");
        };
        assert!(slots[3].dist(message[3]) < 1e-4);
        gw.shutdown();
    }

    #[test]
    fn compressed_mode_halves_upload_and_ingests_cleanly() {
        let gw = Gateway::start(small_config()).expect("start");
        let message = msg(16);
        let encrypt = |mode| {
            let Response::Encrypted { blob, compressed } = gw
                .call(Request {
                    tenant: 1,
                    deadline: None,
                    op: Operation::Encrypt {
                        message: message.clone(),
                        mode,
                    },
                })
                .expect("encrypt")
            else {
                panic!("wrong response kind");
            };
            (blob, compressed)
        };
        let (full, fc) = encrypt(UploadMode::Full);
        let (small, sc) = encrypt(UploadMode::Compressed);
        assert!(!fc && sc);
        assert!(
            2 * small.len() <= full.len() + 64,
            "compressed {} vs full {}",
            small.len(),
            full.len()
        );
        // Both forms pass strict ingress.
        for (blob, want_compressed) in [(full, false), (small, true)] {
            let Response::Ingested {
                compressed, primes, ..
            } = gw
                .call(Request {
                    tenant: 1,
                    deadline: None,
                    op: Operation::Ingest { blob },
                })
                .expect("ingest")
            else {
                panic!("wrong response kind");
            };
            assert_eq!(compressed, want_compressed);
            assert_eq!(primes, 2);
        }
        gw.shutdown();
    }

    #[test]
    fn cross_tenant_decryption_garbles() {
        // Tenant isolation: tenant 2 decrypting tenant 1's upload gets
        // noise, not the message (keys are per-tenant).
        let gw = Gateway::start(small_config()).expect("start");
        let message = msg(16);
        let Response::Encrypted { blob, .. } = gw
            .call(Request {
                tenant: 1,
                deadline: None,
                op: Operation::Encrypt {
                    message: message.clone(),
                    mode: UploadMode::Full,
                },
            })
            .expect("encrypt")
        else {
            panic!("wrong response kind");
        };
        let Response::Decrypted { slots } = gw
            .call(Request {
                tenant: 2,
                deadline: None,
                op: Operation::Decrypt { blob },
            })
            .expect("decrypt runs — wrong key, garbage out")
        else {
            panic!("wrong response kind");
        };
        assert!(
            slots[0].dist(message[0]) > 1e-2,
            "cross-tenant decrypt must not recover the message"
        );
        gw.shutdown();
    }

    #[test]
    fn garbage_blobs_are_typed_errors() {
        let gw = Gateway::start(small_config()).expect("start");
        for blob in [
            vec![],
            vec![0u8; 3],
            vec![0xFFu8; 200],
            b"ABCF____junk".to_vec(),
            // Cut right before the kind byte; a kind the format lacks;
            // a kind that is no ciphertext (an eval key).
            b"ABCF\x03\x00".to_vec(),
            b"ABCF\x03\x00\x09\x0a\x02\x00".to_vec(),
            b"ABCF\x03\x00\x03\x0a\x02\x00\x02\x00".to_vec(),
        ] {
            let out = gw.call(Request {
                tenant: 3,
                deadline: None,
                op: Operation::Ingest { blob },
            });
            assert!(
                matches!(out, Err(GatewayError::BadRequest(_))),
                "got {out:?}"
            );
        }
        let snap = gw.metrics();
        assert_eq!(snap.bad_requests, 7);
        assert_eq!(snap.in_flight(), 0);
        gw.shutdown();
    }

    #[test]
    fn tiny_deadline_times_out_with_classification() {
        let gw = Gateway::start(small_config()).expect("start");
        let out = gw.call(Request {
            tenant: 4,
            deadline: Some(Duration::from_nanos(1)),
            op: Operation::Encrypt {
                message: msg(16),
                mode: UploadMode::Full,
            },
        });
        assert!(matches!(out, Err(GatewayError::Timeout(_))), "got {out:?}");
        assert!(gw.drain(Duration::from_secs(5)), "request still resolves");
        gw.shutdown();
    }

    #[test]
    fn batch_encrypt_works_when_unpressured() {
        let gw = Gateway::start(small_config()).expect("start");
        let Response::EncryptedBatch { blobs, .. } = gw
            .call(Request {
                tenant: 5,
                deadline: None,
                op: Operation::EncryptBatch {
                    messages: vec![msg(8), msg(8), msg(8)],
                    mode: UploadMode::Full,
                },
            })
            .expect("batch")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(blobs.len(), 3);
        assert!(blobs.iter().all(|b| !b.is_empty()));
        gw.shutdown();
    }

    #[test]
    fn batch_decrypt_round_trips() {
        let gw = Gateway::start(small_config()).expect("start");
        let messages = vec![msg(8), msg(12), msg(16)];
        let Response::EncryptedBatch { blobs, .. } = gw
            .call(Request {
                tenant: 6,
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
        let Response::DecryptedBatch { slots } = gw
            .call(Request {
                tenant: 6,
                deadline: None,
                op: Operation::DecryptBatch { blobs },
            })
            .expect("batch decrypt")
        else {
            panic!("wrong response kind");
        };
        assert_eq!(slots.len(), messages.len());
        for (got, want) in slots.iter().zip(&messages) {
            for (g, w) in got.iter().zip(want) {
                assert!(g.dist(*w) < 1e-4, "slot error {}", g.dist(*w));
            }
        }
        // A malformed blob in a batch is a typed client error.
        let out = gw.call(Request {
            tenant: 6,
            deadline: None,
            op: Operation::DecryptBatch {
                blobs: vec![b"ABCF____junk".to_vec()],
            },
        });
        assert!(matches!(out, Err(GatewayError::BadRequest(_))), "{out:?}");
        gw.shutdown();
    }

    #[test]
    fn a_bad_second_item_fails_the_whole_batch() {
        // No partial response: the first message / blob is fine, the
        // second is not, and the caller hears one typed error.
        let gw = Gateway::start(small_config()).expect("start");
        let slots = 1usize << (small_config().log_n - 1);
        let out = gw.call(Request {
            tenant: 8,
            deadline: None,
            op: Operation::EncryptBatch {
                messages: vec![msg(8), msg(slots + 1)],
                mode: UploadMode::Full,
            },
        });
        assert!(matches!(out, Err(GatewayError::BadRequest(_))), "{out:?}");
        let Response::Encrypted { blob, .. } = gw
            .call(Request {
                tenant: 8,
                deadline: None,
                op: Operation::Encrypt {
                    message: msg(8),
                    mode: UploadMode::Full,
                },
            })
            .expect("encrypt")
        else {
            panic!("wrong response kind");
        };
        let truncated = blob[..blob.len() - 1].to_vec();
        let out = gw.call(Request {
            tenant: 8,
            deadline: None,
            op: Operation::DecryptBatch {
                blobs: vec![blob, truncated],
            },
        });
        assert!(matches!(out, Err(GatewayError::BadRequest(_))), "{out:?}");
        assert_eq!(gw.metrics().bad_requests, 2);
        gw.shutdown();
    }

    #[test]
    fn a_batch_decrypts_like_its_messages_sent_one_by_one() {
        let gw = Gateway::start(small_config()).expect("start");
        let messages = vec![msg(8), msg(12), msg(16)];
        let call = |op| {
            gw.call(Request {
                tenant: 9,
                deadline: None,
                op,
            })
        };
        let Ok(Response::EncryptedBatch { blobs, .. }) = call(Operation::EncryptBatch {
            messages: messages.clone(),
            mode: UploadMode::Full,
        }) else {
            panic!("batch encrypt");
        };
        let Ok(Response::DecryptedBatch { slots: batch }) = call(Operation::DecryptBatch { blobs })
        else {
            panic!("batch decrypt");
        };
        for (message, from_batch) in messages.iter().zip(&batch) {
            let Ok(Response::Encrypted { blob, .. }) = call(Operation::Encrypt {
                message: message.clone(),
                mode: UploadMode::Full,
            }) else {
                panic!("encrypt");
            };
            let Ok(Response::Decrypted { slots: single }) = call(Operation::Decrypt { blob })
            else {
                panic!("decrypt");
            };
            // Same key, same message, independent encryption noise.
            assert_eq!(single.len(), from_batch.len());
            for (s, b) in single.iter().zip(from_batch) {
                assert!(s.dist(*b) < 2e-4, "single vs batch: {}", s.dist(*b));
            }
        }
        gw.shutdown();
    }
}
