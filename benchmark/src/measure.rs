//! One run of one workload: set-up, warm-up, and the timed loop with its
//! checks (`--trace 0`). The traced run (`--trace 1`) is in `traced`.

use crate::client::{self, timed_setup, Client, Keyed, Pass};
use crate::hostref::{self, Slices};
use crate::inputs;
use crate::json::Value;
use crate::procfs;
use crate::service::{self, Service, Started, MIX, WINDOW};
use crate::spec::{Kind, Workload};
use crate::stats::median;
use crate::trace::Tracer;
use crate::traced::{client_traced, gateway_traced};
use abc_ckks::params::CkksParams;
use abc_ckks::CkksContext;
use abc_float::Complex;
use std::time::Instant;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value) in the order of the spec's metric list.
    pub metrics: Vec<(&'static str, f64)>,
    /// Evidence that rides along in the result file: output hash,
    /// sample counts, kernels the library chose.
    pub detail: Vec<(&'static str, Value)>,
    pub tracer: Tracer,
}

/// Set-up is repeated so its metric is a median, not one cold sample:
/// at least [`SETUP_MIN_REPS`] times, and on until two seconds have gone
/// into it (a 30 ms set-up needs more samples than a 120 ms one for
/// the same steadiness).
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 30;
const SETUP_SPEND_S: f64 = 2.0;
/// Ops run before sampling starts: pools and lazy tables fill first.
const WARM_UP_OPS: u64 = 3;

/// Repeats `setup`, each time between two slices of the host-speed
/// reference, showing each product and its host factor to `record`
/// (which keeps the timings), and returns the last.
fn repeat_setup<T, E>(
    mut setup: impl FnMut() -> Result<T, E>,
    mut record: impl FnMut(&T, f64),
) -> Result<T, E> {
    let mut slices = Slices::new();
    slices.take();
    let mut last = None;
    let mut spent_s = 0.0;
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && spent_s >= SETUP_SPEND_S {
            break;
        }
        // Drop the previous repetition first: two contexts alive at once
        // would double the peak RSS the run reports.
        drop(last.take());
        let t = Instant::now();
        let product = setup()?;
        spent_s += t.elapsed().as_secs_f64();
        slices.take();
        record(&product, hostref::factor(slices.ms(), rep));
        last = Some(product);
    }
    Ok(last.expect("at least one repetition"))
}

/// Medians over the repetitions: `CkksContext::new` and `keygen` as
/// measured, and their sum on the nominal host.
pub(crate) struct ClientSetup {
    pub(crate) context_ms: f64,
    pub(crate) keygen_ms: f64,
    pub(crate) setup_s: f64,
}

pub(crate) fn timed_client_setup(
    args: &Args,
    params: &CkksParams,
) -> Result<(Keyed, ClientSetup), String> {
    let (mut context_ms, mut keygen_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let keyed = repeat_setup(
        || timed_setup(params, args.seed),
        |k: &Keyed, host_factor| {
            context_ms.push(k.context_ms);
            keygen_ms.push(k.keygen_ms);
            setup_s.push((k.context_ms + k.keygen_ms) / 1e3 * host_factor);
        },
    )
    .map_err(|e| e.to_string())?;
    let medians = ClientSetup {
        context_ms: median(&context_ms),
        keygen_ms: median(&keygen_ms),
        setup_s: median(&setup_s),
    };
    Ok((keyed, medians))
}

/// The seven end-to-end metrics of a finished pass; the timings among
/// them as on the nominal host (see `hostref`).
fn end_to_end(pass: &Pass, ops: u64, setup_s: f64, rss_mib: f64) -> Vec<(&'static str, f64)> {
    let scaled_wall_s = pass.scaled_wall_s();
    let scaled_cpu_s = pass.cpu_s * scaled_wall_s / pass.wall_s;
    vec![
        ("op_p50_ms", median(&pass.scaled_op_ms())),
        ("ops_per_s", ops as f64 / scaled_wall_s),
        ("cpu_ms_per_op", scaled_cpu_s * 1e3 / ops as f64),
        ("peak_rss_mib", rss_mib),
        ("wire_bytes_per_op", pass.wire_bytes as f64 / ops as f64),
        ("precision_bits", pass.precision_bits()),
        ("setup_s", setup_s),
    ]
}

pub(crate) fn evidence(pass: &Pass, ops: u64, ctx: &CkksContext) -> Vec<(&'static str, Value)> {
    vec![
        ("output_hash", Value::Str(format!("{:#018x}", pass.hash))),
        ("ops", Value::Num(ops as f64)),
        ("latency_samples", Value::Num(pass.op_ms.len() as f64)),
        ("outputs_checked", Value::Num(pass.checked as f64)),
        (
            "worst_precision_bits",
            Value::Num(pass.worst_precision_bits()),
        ),
        // As measured, before scaling to the nominal host.
        ("raw_op_p50_ms", Value::Num(median(&pass.op_ms))),
        ("raw_ops_per_s", Value::Num(ops as f64 / pass.wall_s)),
        (
            "raw_cpu_ms_per_op",
            Value::Num(pass.cpu_s * 1e3 / ops as f64),
        ),
        (
            "host_factor",
            Value::Num(pass.scaled_wall_s() / pass.wall_s),
        ),
        // In run order, so any other statistic can be recomputed.
        ("latencies_ms", Value::nums(&pass.op_ms)),
        (
            "latency_stretch",
            Value::nums(
                &pass
                    .op_stretch
                    .iter()
                    .map(|&k| k as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("stretch_s", Value::nums(&pass.stretch_s)),
        ("reference_slice_ms", Value::nums(&pass.slice_ms)),
        ("kernels", client::kernels(ctx)),
    ]
}

pub fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let params = client::params(w, args.smoke).map_err(|e| e.to_string())?;
    let messages = inputs::messages(args.seed, params.slots());
    match (w.kind, args.trace) {
        (Kind::Gateway, false) => gateway_timed(args, &params, messages),
        (Kind::Gateway, true) => gateway_traced(args, &params, messages),
        (_, false) => client_timed(args, &params, messages),
        (_, true) => client_traced(args, &params, messages),
    }
}

pub(crate) fn set_up_client(
    args: &Args,
    params: &CkksParams,
    messages: Vec<Vec<Complex>>,
) -> Result<(Client, ClientSetup), String> {
    let (keyed, timings) = timed_client_setup(args, params)?;
    let client =
        Client::new(keyed, args.workload, messages, args.seed).map_err(|e| e.to_string())?;
    // Warm-up ops are not sampled.
    let mut off = Tracer::new(false);
    for op in 0..WARM_UP_OPS {
        match args.workload.kind {
            Kind::Upload => drop(client.upload_op(op, &mut off)),
            _ => drop(client.download_op(client.down_blob(op), op, &mut off)),
        }
    }
    Ok((client, timings))
}

fn client_timed(
    args: &Args,
    params: &CkksParams,
    messages: Vec<Vec<Complex>>,
) -> Result<Report, String> {
    let (client, setup) = set_up_client(args, params, messages)?;
    let mut tracer = Tracer::new(false);
    let mut pass = client.timed_pass(args.workload.kind, args.seconds, &mut tracer);
    // Read before the upload checks run: those decode 24-limb blobs,
    // which no upload does.
    let rss_mib = procfs::peak_rss_mib();
    client.verify_uploads(&mut pass, &mut tracer);
    let ops = pass.op_ms.len() as u64;
    Ok(Report {
        attempted: ops,
        failed: pass.failed,
        metrics: end_to_end(&pass, ops, setup.setup_s, rss_mib),
        detail: evidence(&pass, ops, &client.ctx),
        tracer,
    })
}

pub(crate) struct GatewaySetup {
    pub(crate) service: Service,
    /// Medians over the set-up repetitions.
    pub(crate) setup_s: f64,
    pub(crate) start_ms: f64,
    pub(crate) cold_tenant_ms: f64,
}

/// `w` is the gateway workload; `ctx` a context of its parameters.
pub(crate) fn set_up_gateway(
    w: &Workload,
    seed: u64,
    ctx: &CkksContext,
    messages: &[Vec<Complex>],
) -> Result<GatewaySetup, String> {
    let params = ctx.params();
    let config = service::config(params.log_n(), params.num_primes(), seed);
    let (mut setup_s, mut start_ms, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = repeat_setup(
        || service::timed_start(&config, messages),
        |s: &Started, host_factor| {
            setup_s.push(s.setup_s * host_factor);
            start_ms.push(s.start_ms);
            cold_ms.push(median(&s.cold_tenant_ms));
        },
    )
    .map_err(|e| e.to_string())?;
    let service = Service::new(started, ctx, w, messages.to_vec())?;
    // One cycle of the mix, not sampled.
    service.windowed_pass(&MIX, WINDOW, 0.0, &mut Tracer::new(false));
    Ok(GatewaySetup {
        service,
        setup_s: median(&setup_s),
        start_ms: median(&start_ms),
        cold_tenant_ms: median(&cold_ms),
    })
}

fn gateway_timed(
    args: &Args,
    params: &CkksParams,
    messages: Vec<Vec<Complex>>,
) -> Result<Report, String> {
    // Only for its wire widths and kernel names.
    let ctx = CkksContext::new(params.clone()).map_err(|e| e.to_string())?;
    let set_up = set_up_gateway(args.workload, args.seed, &ctx, &messages)?;
    let mut tracer = Tracer::new(false);
    let mut run = set_up
        .service
        .windowed_pass(&MIX, WINDOW, args.seconds, &mut tracer);
    let rss_mib = procfs::peak_rss_mib();
    set_up.service.verify_kept(&mut run);
    Ok(Report {
        attempted: run.requests,
        failed: run.pass.failed,
        metrics: end_to_end(&run.pass, run.requests, set_up.setup_s, rss_mib),
        detail: evidence(&run.pass, run.requests, &ctx),
        tracer,
    })
}
