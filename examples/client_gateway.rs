//! The client-side encryption gateway, end to end: real multi-tenant
//! traffic through `abc_fhe::gateway` (bounded admission, deadlines,
//! panic isolation, seed-compressed degradation), then the measured
//! wire bytes cross-charged to the cycle-level simulator's two
//! Reconfigurable Streaming Cores (paper §III's operational modes).
//!
//! ```text
//! cargo run --release --example client_gateway
//! ABC_FHE_LOG_N=12 cargo run --release --example client_gateway
//! ```

use abc_fhe::float::Complex;
use abc_fhe::gateway::{
    FaultPlan, Gateway, GatewayConfig, Operation, Request, Response, UploadMode,
};
use abc_fhe::prng::Seed;
use abc_fhe::sim::schedule::{batch_makespan_ms, best_mode, Batch, RscMode};
use abc_fhe::sim::SimConfig;
use std::sync::Arc;
use std::time::Duration;

fn msg(slots: usize, salt: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = ((salt + i as u64) as f64 * 0.37).sin() * 0.8;
            Complex::new(x, x * 0.25)
        })
        .collect()
}

/// Silences the backtraces from *injected* chaos panics; real ones
/// still print.
fn quiet_injected_panics() {
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
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    quiet_injected_panics();
    let log_n = abc_fhe::ckks::params::log_n_from_env(11)?;
    let config = GatewayConfig {
        workers: 2,
        log_n,
        num_primes: 4,
        queue_capacity: 64,
        degrade_watermark: 16,
        batch_shed_watermark: 32,
        master_seed: Seed::from_u128(0x6A7E),
        ..GatewayConfig::default()
    };
    let gw = Arc::new(Gateway::start(config)?);

    println!("--- multi-tenant traffic through the gateway (N = 2^{log_n}) ---");
    let mut wire_bytes = Vec::new();
    let mut full_blob = None;
    for tenant in 1..=3u64 {
        for i in 0..4u64 {
            let mode = if i % 2 == 0 {
                UploadMode::Full
            } else {
                UploadMode::Compressed
            };
            let Response::Encrypted { blob, compressed } = gw.call(Request {
                tenant,
                deadline: Some(Duration::from_secs(30)),
                op: Operation::Encrypt {
                    message: msg(16, tenant * 100 + i),
                    mode,
                },
            })?
            else {
                unreachable!("encrypt returns Encrypted");
            };
            wire_bytes.push((compressed, blob.len()));
            if !compressed && full_blob.is_none() {
                full_blob = Some((tenant, blob.clone()));
            }
        }
    }
    let full: Vec<usize> = wire_bytes
        .iter()
        .filter(|(c, _)| !c)
        .map(|&(_, b)| b)
        .collect();
    let seeded: Vec<usize> = wire_bytes
        .iter()
        .filter(|(c, _)| *c)
        .map(|&(_, b)| b)
        .collect();
    let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
    println!(
        "uploads: {} full ({:.1} KiB each), {} seed-compressed ({:.1} KiB each, {:.0}% saved)",
        full.len(),
        avg(&full) / 1024.0,
        seeded.len(),
        avg(&seeded) / 1024.0,
        100.0 * (1.0 - avg(&seeded) / avg(&full))
    );

    // Round-trip one tenant's ciphertext and ingest it back.
    let (owner, blob) = full_blob.expect("at least one full upload");
    if let Response::Decrypted { slots } = gw.call(Request {
        tenant: owner,
        deadline: None,
        op: Operation::Decrypt { blob: blob.clone() },
    })? {
        let want = msg(16, owner * 100);
        let err = slots
            .iter()
            .zip(&want)
            .map(|(a, b)| a.dist(*b))
            .fold(0.0, f64::max);
        println!("round-trip for tenant {owner}: max slot error {err:.2e}");
    }
    if let Response::Ingested {
        primes, wire_bytes, ..
    } = gw.call(Request {
        tenant: owner,
        deadline: None,
        op: Operation::Ingest { blob },
    })? {
        println!("ingest validated: {primes} primes, {wire_bytes} wire bytes");
    }

    // A short seeded fault storm: injected worker panics surface as
    // typed errors, retries absorb them, the pool respawns.
    println!("\n--- seeded fault storm (replayable chaos) ---");
    gw.set_fault_plan(FaultPlan::storm(
        Seed::from_u128(0xC4A05),
        0..u64::MAX,
        200,
        0,
        0,
        Duration::from_millis(1),
    ));
    let mut ok = 0;
    let mut failed = 0;
    for i in 0..24u64 {
        match gw.call_with_retry(Request {
            tenant: 1 + i % 3,
            deadline: Some(Duration::from_secs(30)),
            op: Operation::Encrypt {
                message: msg(16, 7000 + i),
                mode: UploadMode::Auto,
            },
        }) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    gw.set_fault_plan(FaultPlan::disabled());
    gw.drain(Duration::from_secs(30));
    let snap = gw.metrics();
    println!(
        "storm: {ok} ok / {failed} typed errors; panics={} retries={} lost={}",
        snap.worker_panics,
        snap.retries,
        snap.in_flight()
    );

    // Cross-charge the gateway's measured traffic to the accelerator
    // simulator: the same per-prime residue widths the wire layer
    // packed with, the same enc/dec mix, scheduled across the two RSCs.
    println!("\n--- cross-charging gateway traffic to the 2-core simulator ---");
    let ctx_probe = abc_fhe::ckks::CkksContext::new(
        abc_fhe::ckks::params::CkksParams::builder()
            .log_n(log_n)
            .num_primes(4)
            .build()?,
    )?;
    let widths = ctx_probe.params().residue_widths(4);
    let cfg = SimConfig::paper_default().with_wire_widths(&widths);
    println!(
        "{:<26} {:>12} {:>12} {:>12}   best",
        "batch (enc/dec)", "dual-enc", "dual-dec", "concurrent"
    );
    for (enc, dec) in [(12, 0), (8, 4), (4, 12), (0, 24)] {
        let batch = Batch {
            log_n,
            encryptions: enc,
            decryptions: dec,
            enc_primes: 4,
            dec_primes: 2,
        };
        let times: Vec<f64> = RscMode::ALL
            .iter()
            .map(|&m| batch_makespan_ms(&batch, m, &cfg))
            .collect();
        let (best, _) = best_mode(&batch, &cfg);
        println!(
            "{:<26} {:>9.3} ms {:>9.3} ms {:>9.3} ms   {}",
            format!("{enc} enc / {dec} dec"),
            times[0],
            times[1],
            times[2],
            best.name()
        );
    }
    Ok(())
}
