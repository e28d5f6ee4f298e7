//! The traced run (`--trace 1`): the workload's loop with the spans of
//! every other op recorded, the complementary direction, the stage
//! probes, the gateway section and the cycle model, folded into the
//! per-layer rows.

use crate::alloc;
use crate::client::{self, timed_setup, Client};
use crate::inputs;
use crate::measure::{evidence, set_up_client, set_up_gateway, timed_client_setup, Args, Report};
use crate::probes::{self, attributed_ms, Model, DECODE_STAGES, ENCODE_STAGES, ENCRYPT_STAGES};
use crate::service::{Req, Service, ServicePass, MIX, WINDOW};
use crate::spec::{self, Kind, Workload, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use abc_ckks::params::CkksParams;
use abc_float::Complex;

/// Shares of `--seconds` a library workload's traced run gives its
/// parts. The loop traces every other op.
const LOOP_SHARE: f64 = 0.5;
const PROBE_SHARE: f64 = 0.3;
const GATEWAY_SHARE: f64 = 0.2;
/// Calls of the direction the workload's op does not take, so every
/// `ckks.*` span has samples on every workload.
const COMPLEMENT_OPS: u64 = 5;

/// Total time (ms) inside the spans that have a parent (the calls the
/// traced ops made) and inside those that have none (the ops).
fn call_and_op_ms(spans: &[Span]) -> (f64, f64) {
    let total = |with_parent: bool| {
        let picked = spans.iter().filter(|s| s.parent.is_some() == with_parent);
        picked.map(Span::ms).sum()
    };
    (total(true), total(false))
}

/// The per-layer rows every workload fills the same way: call spans,
/// probes, and what the probes leave unattributed.
fn library_rows(
    client: &Client,
    upload_side: bool,
    budget_s: f64,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let probes = probes::stage_probes(client, budget_s, tr);
    let call = |name: &str| median(&tr.durations_ms(name));
    let (encode, encrypt, serialize) = (
        call("ckks.encode"),
        call("ckks.encrypt"),
        call("ckks.wire_serialize"),
    );
    let (deserialize, decrypt, decode) = (
        call("ckks.wire_deserialize"),
        call("ckks.decrypt"),
        call("ckks.decode"),
    );
    let encode_rest = encode - attributed_ms(&ENCODE_STAGES, &probes);
    let encrypt_rest = encrypt - attributed_ms(&ENCRYPT_STAGES, &probes);
    let decode_rest = decode - attributed_ms(&DECODE_STAGES, &probes);
    // Packing, unpacking and decrypt are stages in themselves.
    let stage_coverage = if upload_side {
        1.0 - (encode_rest + encrypt_rest) / (encode + encrypt + serialize)
    } else {
        1.0 - decode_rest / (deserialize + decrypt + decode)
    };
    let mut rows = probes;
    rows.extend([
        ("ckks.encode_ms", encode),
        ("ckks.encrypt_ms", encrypt),
        ("ckks.wire_serialize_ms", serialize),
        ("ckks.wire_deserialize_ms", deserialize),
        ("ckks.decrypt_ms", decrypt),
        ("ckks.decode_ms", decode),
        ("ckks.encode_unattributed_ms", encode_rest),
        ("ckks.encrypt_unattributed_ms", encrypt_rest),
        ("ckks.decode_unattributed_ms", decode_rest),
        ("trace.stage_coverage_frac", stage_coverage),
    ]);
    rows
}

/// Orders `rows` as the spec lists them. Only the two
/// `sim.measured_over_modeled_*` ratios can be missing (each belongs to
/// one workload); a missing one reads 0.
fn per_layer(rows: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    for (name, _) in &rows {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the spec"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                rows.iter()
                    .find(|(k, _)| *k == m.name)
                    .map_or(0.0, |(_, v)| *v),
            )
        })
        .collect()
}

/// Runs `body` with the allocation counters on; returns (calls, MiB)
/// counted. Kept out of the traced loop: a bigint lift allocates per
/// coefficient, and two atomic adds per allocation would read as
/// tracing overhead.
fn count_allocations(body: impl FnOnce()) -> (f64, f64) {
    let (calls0, bytes0) = alloc::counted();
    alloc::set_counting(true);
    body();
    alloc::set_counting(false);
    let (calls, bytes) = alloc::counted();
    (
        (calls - calls0) as f64,
        (bytes - bytes0) as f64 / (1u64 << 20) as f64,
    )
}

/// Ops run with the allocation counters on.
const COUNTED_OPS: u64 = 8;

pub(crate) fn client_traced(
    args: &Args,
    params: &CkksParams,
    messages: Vec<Vec<Complex>>,
) -> Result<Report, String> {
    let kind = args.workload.kind;
    let (client, setup) = set_up_client(args, params, messages)?;
    let mut tracer = Tracer::new(true);
    let mut pass = client.timed_pass(kind, args.seconds * LOOP_SHARE, &mut tracer);
    let ops = pass.op_ms.len() as u64;
    // Only the traced ops' spans exist so far: every span with a parent
    // is a call into the library made by one of them.
    let traced_ops = pass.op_ms.iter().zip(&pass.op_traced);
    let traced_ms: f64 = traced_ops.filter(|(_, &t)| t).map(|(ms, _)| ms).sum();
    let op_coverage = call_and_op_ms(tracer.spans()).0 / traced_ms;

    tracer.set_enabled(false);
    let (allocs, alloc_mib) = count_allocations(|| {
        for op in 0..COUNTED_OPS {
            match kind {
                Kind::Upload => drop(client.upload_op(op, &mut tracer)),
                _ => drop(client.download_op(client.down_blob(op), op, &mut tracer)),
            }
        }
    });
    tracer.set_enabled(true);

    if kind == Kind::Upload {
        // The upload checks are downloads of fresh blobs.
        client.verify_uploads(&mut pass, &mut tracer);
    } else {
        for op in 0..COMPLEMENT_OPS {
            if client.upload_op(op, &mut tracer).is_err() {
                pass.failed += 1;
            }
        }
    }
    let mut rows = library_rows(
        &client,
        kind == Kind::Upload,
        args.seconds * PROBE_SHARE,
        &mut tracer,
    );
    let model = Model::run();
    rows.extend(model.rows());
    // Host latency over the accelerator model's, base = the model: the
    // repo's analogue of the paper's 1112x / 963x. Only the two N = 2^16
    // workloads run what the model simulates. As measured, like every
    // per-layer row: the untraced ops of this loop, not scaled.
    let untraced = pass.op_ms.iter().zip(&pass.op_traced);
    let p50 = median(
        &untraced
            .filter(|(_, &t)| !t)
            .map(|(ms, _)| *ms)
            .collect::<Vec<_>>(),
    );
    match (args.workload.name, args.smoke) {
        ("upload_n16", false) => {
            rows.push(("sim.measured_over_modeled_upload", p50 / model.upload_ms))
        }
        ("download_n16", false) => rows.push((
            "sim.measured_over_modeled_download",
            p50 / model.download_ms,
        )),
        _ => {}
    }
    rows.extend([
        ("ckks.context_new_ms", setup.context_ms),
        ("ckks.keygen_ms", setup.keygen_ms),
        ("ckks.op_p90_ms", percentile(&pass.op_ms, 90.0)),
        ("ckks.allocs_per_op", allocs / COUNTED_OPS as f64),
        ("ckks.alloc_mib_per_op", alloc_mib / COUNTED_OPS as f64),
        ("trace.op_coverage_frac", op_coverage),
        (
            "trace.overhead_frac",
            pass.scaled_p50_ms(true) / pass.scaled_p50_ms(false) - 1.0,
        ),
        ("host.reference_ms", median(&pass.slice_ms)),
    ]);

    // After `library_rows` has read this workload's call spans: the
    // section's direct loops add `ckks.*` spans of another ring size.
    let gw = spec::workload("gateway_mixed_n13").expect("the gateway workload");
    let gw_params = client::params(gw, args.smoke).map_err(|e| e.to_string())?;
    let gw_messages = inputs::messages(args.seed, gw_params.slots());
    let keyed = timed_setup(&gw_params, args.seed).map_err(|e| e.to_string())?;
    let gw_client = Client::new(keyed, gw, gw_messages, args.seed).map_err(|e| e.to_string())?;
    let section = gateway_section(gw, &gw_client, args.seconds * GATEWAY_SHARE, &mut tracer)?;
    rows.extend(section.rows);

    Ok(Report {
        attempted: ops + section.attempted,
        failed: pass.failed + section.failed,
        metrics: per_layer(rows),
        detail: evidence(&pass, ops, &client.ctx),
        tracer,
    })
}

/// Shares of its budget the gateway section gives its loops.
const GW_LOOP_SHARE: f64 = 0.55;
const GW_WINDOW1_SHARE: f64 = 0.15;
const GW_DIRECT_SHARE: f64 = 0.15;

/// What a traced run learns from a running gateway.
struct GatewaySection {
    service: Service,
    /// The loop of the mix, every other stretch traced.
    run: ServicePass,
    /// Σ `submit` + `wait` spans ÷ Σ request spans of the loop.
    op_coverage: f64,
    /// Every `gateway.*` row.
    rows: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

/// The gateway part of every traced run, always at the gateway
/// workload's own parameters, so its rows are measured (never a
/// constant) whichever workload the run is for. `client` is the direct
/// baseline: the same parameters with no gateway around.
fn gateway_section(
    w: &Workload,
    client: &Client,
    budget_s: f64,
    tracer: &mut Tracer,
) -> Result<GatewaySection, String> {
    let set_up = set_up_gateway(w, client.seed, &client.ctx, &client.messages)?;
    let service = set_up.service;

    tracer.set_enabled(true);
    let spans_before = tracer.spans().len();
    let mut run = service.windowed_pass(&MIX, WINDOW, budget_s * GW_LOOP_SHARE, tracer);
    service.verify_kept(&mut run);
    let (in_calls, in_requests) = call_and_op_ms(&tracer.spans()[spans_before..]);

    // Overhead: one full upload at a time through the gateway against
    // the same three calls made directly, same process, same minute.
    let window1 =
        service.windowed_pass(&[Req::EncryptFull], 1, budget_s * GW_WINDOW1_SHARE, tracer);
    let direct_up = client.timed_pass(Kind::Upload, budget_s * GW_DIRECT_SHARE, tracer);
    let direct_down = client.timed_pass(Kind::Download, budget_s * GW_DIRECT_SHARE, tracer);

    let kind_p50 = |run: &ServicePass, req: Req| median(&run.by_kind[req as usize]);
    let all_ms: Vec<f64> = run.by_kind.iter().flatten().copied().collect();
    let mut rows = vec![
        ("gateway.encrypt_p50_ms", kind_p50(&run, Req::EncryptAuto)),
        (
            "gateway.encrypt_compressed_p50_ms",
            kind_p50(&run, Req::EncryptCompressed),
        ),
        ("gateway.decrypt_p50_ms", kind_p50(&run, Req::Decrypt)),
        ("gateway.ingest_p50_ms", kind_p50(&run, Req::Ingest)),
        (
            "gateway.encrypt_batch_p50_ms",
            kind_p50(&run, Req::EncryptBatch),
        ),
        ("gateway.request_p90_ms", percentile(&all_ms, 90.0)),
        ("gateway.submit_us", median(&run.submit_us)),
        ("gateway.queue_depth_max", run.queue_depth_max as f64),
        ("gateway.start_ms", set_up.start_ms),
        ("gateway.cold_tenant_ms", set_up.cold_tenant_ms),
        (
            "gateway.overhead_ms",
            kind_p50(&window1, Req::EncryptFull) - median(&direct_up.op_ms),
        ),
    ];
    rows.extend(service.counters());
    Ok(GatewaySection {
        attempted: run.requests
            + window1.requests
            + (direct_up.op_ms.len() + direct_down.op_ms.len()) as u64,
        failed: run.pass.failed + window1.pass.failed + direct_up.failed + direct_down.failed,
        service,
        run,
        op_coverage: in_calls / in_requests,
        rows,
    })
}

/// Shares of `--seconds` the gateway workload's traced run gives the
/// gateway section and the stage probes.
const GW_RUN_SECTION_SHARE: f64 = 0.7;
const GW_RUN_PROBE_SHARE: f64 = 0.3;

pub(crate) fn gateway_traced(
    args: &Args,
    params: &CkksParams,
    messages: Vec<Vec<Complex>>,
) -> Result<Report, String> {
    let (keyed, setup) = timed_client_setup(args, params)?;
    let client =
        Client::new(keyed, args.workload, messages, args.seed).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(false);
    // The section's direct loops leave the `ckks.*` call spans (at the
    // gateway's parameters) that `library_rows` reads.
    let section = gateway_section(
        args.workload,
        &client,
        args.seconds * GW_RUN_SECTION_SHARE,
        &mut tracer,
    )?;

    // One cycle of the mix with the allocation counters on (zero
    // seconds: the loop still finishes the cycle it starts).
    tracer.set_enabled(false);
    let mut counted_requests = 0;
    let (allocs, alloc_mib) = count_allocations(|| {
        counted_requests = section
            .service
            .windowed_pass(&MIX, WINDOW, 0.0, &mut tracer)
            .requests;
    });
    tracer.set_enabled(true);

    let mut rows = library_rows(
        &client,
        true,
        args.seconds * GW_RUN_PROBE_SHARE,
        &mut tracer,
    );
    let run = &section.run;
    rows.extend([
        ("ckks.context_new_ms", setup.context_ms),
        ("ckks.keygen_ms", setup.keygen_ms),
        ("ckks.op_p90_ms", percentile(&run.pass.op_ms, 90.0)),
        ("ckks.allocs_per_op", allocs / counted_requests as f64),
        ("ckks.alloc_mib_per_op", alloc_mib / counted_requests as f64),
        ("trace.op_coverage_frac", section.op_coverage),
        (
            "trace.overhead_frac",
            run.pass.scaled_p50_ms(true) / run.pass.scaled_p50_ms(false) - 1.0,
        ),
        ("host.reference_ms", median(&run.pass.slice_ms)),
    ]);
    rows.extend(section.rows);
    rows.extend(Model::run().rows());

    let detail = evidence(&run.pass, run.requests, &client.ctx);
    Ok(Report {
        attempted: section.attempted,
        failed: section.failed,
        metrics: per_layer(rows),
        detail,
        tracer,
    })
}
