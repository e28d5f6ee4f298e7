//! The gateway workload: one generator thread keeps a closed-loop
//! window of tickets on a running `Gateway` and waits for them in
//! submission order, so the generator sleeps while the workers run.

use crate::client::{hash_slots, Pass};
use crate::hostref::Slices;
use crate::inputs::{self, MESSAGES};
use crate::procfs;
use crate::spec::Workload;
use crate::stats::fnv1a;
use crate::trace::{SpanId, Tracer};
use abc_ckks::{wire, CkksContext};
use abc_float::Complex;
use abc_gateway::{
    Gateway, GatewayConfig, GatewayError, Operation, Request, Response, Ticket, UploadMode,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Tenants sharing the gateway: more than workers, fewer than the
/// session LRU holds, so sessions stay warm and workers change tenant.
pub const TENANTS: u64 = 4;
/// Tickets in flight: twice the workers, so a worker never idles
/// waiting for the generator, and far below the degrade watermark (16),
/// so `Auto` uploads stay full and nothing is shed.
pub const WINDOW: usize = 4;
pub const WORKERS: usize = 2;

/// Loop time between two slices of the host-speed reference (see
/// `hostref`). A slice needs idle workers, so the window drains first;
/// a quarter second (≈ 5 cycles of the mix) keeps what the drain idles
/// away near 1 % of the stretch.
const SLICE_EVERY_S: f64 = 0.25;

const STREAM_MASTER: u64 = 5;
/// Every this-many-th `Auto` upload is kept and decrypted afterwards;
/// at most [`KEPT_MAX`] of the latest, so memory held does not grow
/// with speed.
const VERIFY_EVERY: u64 = 16;
const KEPT_MAX: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    EncryptAuto,
    EncryptCompressed,
    Decrypt,
    Ingest,
    EncryptBatch,
    /// Only in the window-1 overhead pass.
    EncryptFull,
}

pub const KINDS: usize = 6;

/// The request mix: uploads dominate a client gateway, half as many
/// results come back, and bulk and validation traffic ride along.
pub const MIX: [Req; 8] = [
    Req::EncryptAuto,
    Req::Decrypt,
    Req::EncryptAuto,
    Req::EncryptCompressed,
    Req::Ingest,
    Req::Decrypt,
    Req::EncryptAuto,
    Req::EncryptBatch,
];

pub fn config(log_n: u32, num_primes: usize, seed: u64) -> GatewayConfig {
    GatewayConfig {
        workers: WORKERS,
        log_n,
        num_primes,
        master_seed: inputs::derive_seed(seed, STREAM_MASTER, 0),
        ..GatewayConfig::default()
    }
}

/// One timed `Gateway::start` + first request of every tenant.
pub struct Started {
    gw: Gateway,
    /// Tenant `t`'s full upload of message `t`.
    first_blobs: Vec<Vec<u8>>,
    pub start_ms: f64,
    pub cold_tenant_ms: Vec<f64>,
    pub setup_s: f64,
}

pub fn timed_start(
    config: &GatewayConfig,
    messages: &[Vec<Complex>],
) -> Result<Started, GatewayError> {
    let t = Instant::now();
    let gw = Gateway::start(config.clone())?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut first_blobs = Vec::new();
    let mut cold_tenant_ms = Vec::new();
    for tenant in 0..TENANTS {
        let t_req = Instant::now();
        let response = gw.call(Request {
            tenant,
            deadline: None,
            op: Operation::Encrypt {
                message: messages[tenant as usize].clone(),
                mode: UploadMode::Full,
            },
        })?;
        cold_tenant_ms.push(t_req.elapsed().as_secs_f64() * 1e3);
        let Response::Encrypted { blob, .. } = response else {
            return Err(GatewayError::Internal(
                "Encrypt answered with another kind".into(),
            ));
        };
        first_blobs.push(blob);
    }
    Ok(Started {
        gw,
        first_blobs,
        start_ms,
        cold_tenant_ms,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// What one windowed loop saw, beyond [`Pass`]. `pass.op_ms` holds the
/// `EncryptAuto` latencies: the mix is bimodal, so a median over all
/// requests would describe none of them.
pub struct ServicePass {
    pub pass: Pass,
    pub requests: u64,
    pub by_kind: [Vec<f64>; KINDS],
    pub submit_us: Vec<f64>,
    pub queue_depth_max: usize,
    autos: u64,
    /// (message, tenant, blob) of `Auto` uploads awaiting `verify_kept`.
    kept: VecDeque<(usize, u64, Vec<u8>)>,
}

struct InFlight {
    index: u64,
    req: Req,
    tenant: u64,
    submitted: Instant,
    ticket: Ticket,
    span: SpanId,
}

pub struct Service {
    gw: Gateway,
    messages: Vec<Vec<Complex>>,
    /// Per tenant: its full upload, and the same re-packed at 2 primes
    /// as a server would return it.
    full_blobs: Vec<Vec<u8>>,
    small_blobs: Vec<Vec<u8>>,
    primes: usize,
    floor_bits: f64,
}

impl Service {
    /// `ctx` is a context of the gateway's parameters, used only for its
    /// wire widths.
    pub fn new(
        started: Started,
        ctx: &CkksContext,
        w: &Workload,
        messages: Vec<Vec<Complex>>,
    ) -> Result<Self, String> {
        let down_limbs = w.down_limbs.expect("gateway downloads are truncated");
        let widths = ctx.wire_widths(down_limbs);
        let small_blobs = started
            .first_blobs
            .iter()
            .map(|blob| {
                let ct = wire::deserialize_ciphertext(blob)?.truncated(down_limbs);
                wire::serialize_ciphertext_packed(&ct, &widths)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("re-packing a tenant's upload: {e}"))?;
        Ok(Self {
            gw: started.gw,
            messages,
            full_blobs: started.first_blobs,
            small_blobs,
            primes: ctx.params().num_primes(),
            floor_bits: w.floor_bits,
        })
    }

    fn operation(&self, req: Req, index: u64, tenant: u64) -> Operation {
        let message = || self.messages[index as usize % MESSAGES].clone();
        match req {
            Req::EncryptAuto => Operation::Encrypt {
                message: message(),
                mode: UploadMode::Auto,
            },
            Req::EncryptFull => Operation::Encrypt {
                message: message(),
                mode: UploadMode::Full,
            },
            Req::EncryptCompressed => Operation::Encrypt {
                message: message(),
                mode: UploadMode::Compressed,
            },
            Req::EncryptBatch => Operation::EncryptBatch {
                messages: vec![
                    message(),
                    self.messages[(index as usize + 1) % MESSAGES].clone(),
                ],
                mode: UploadMode::Auto,
            },
            Req::Decrypt => Operation::Decrypt {
                blob: self.small_blobs[tenant as usize].clone(),
            },
            Req::Ingest => Operation::Ingest {
                blob: self.full_blobs[tenant as usize].clone(),
            },
        }
    }

    /// Keeps `window` requests of `mix` in flight until the stretches
    /// have taken `seconds` (at least one cycle of the mix). A stretch
    /// ends at a cycle boundary: submission stops, the window drains, and
    /// a reference slice runs while the workers are idle. Given an enabled
    /// tracer it records the spans of every other stretch (each starts
    /// on an empty queue), so traced and untraced requests see the same
    /// host and the same queue.
    pub fn windowed_pass(
        &self,
        mix: &[Req],
        window: usize,
        seconds: f64,
        tr: &mut Tracer,
    ) -> ServicePass {
        let mut out = ServicePass {
            pass: Pass::new(self.floor_bits),
            requests: 0,
            by_kind: Default::default(),
            submit_us: Vec::new(),
            queue_depth_max: 0,
            autos: 0,
            kept: VecDeque::new(),
        };
        let tracing = tr.enabled();
        // At least four stretches, so a short loop has both kinds.
        let slice_every_s = SLICE_EVERY_S.min(seconds / 4.0);
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut slices = Slices::new();
        let cpu0 = procfs::cpu_seconds();
        slices.take();
        let mut stretch_start = Instant::now();
        let mut next = 0u64;
        loop {
            while in_flight.len() < window {
                let in_stretch = stretch_start.elapsed().as_secs_f64();
                let at_boundary = next > 0 && (next as usize).is_multiple_of(mix.len());
                if at_boundary
                    && (in_stretch >= slice_every_s || out.pass.wall_s + in_stretch >= seconds)
                {
                    break;
                }
                let req = mix[next as usize % mix.len()];
                // Rotate tenants against the mix so every tenant sends
                // every kind.
                let tenant = (next + next / mix.len() as u64) % TENANTS;
                let op = self.operation(req, next, tenant);
                tr.set_enabled(tracing && out.pass.stretch_s.len() % 2 == 1);
                let span = tr.begin("gateway.request", None, next);
                let submitted = Instant::now();
                let ticket = tr.span("gateway.submit", span, next, || {
                    self.gw.submit(Request {
                        tenant,
                        deadline: None,
                        op,
                    })
                });
                out.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
                out.queue_depth_max = out.queue_depth_max.max(self.gw.queue_depth());
                out.requests += 1;
                match ticket {
                    Ok(ticket) => in_flight.push_back(InFlight {
                        index: next,
                        req,
                        tenant,
                        submitted,
                        ticket,
                        span,
                    }),
                    Err(_) => {
                        tr.end(span);
                        out.pass.failed += 1;
                    }
                }
                next += 1;
            }
            let Some(job) = in_flight.pop_front() else {
                // Drained at a cycle boundary: the stretch is over.
                let stretch_s = stretch_start.elapsed().as_secs_f64();
                out.pass.stretch_s.push(stretch_s);
                out.pass.wall_s += stretch_s;
                slices.take();
                if out.pass.wall_s >= seconds {
                    break;
                }
                stretch_start = Instant::now();
                continue;
            };
            tr.set_enabled(job.span.is_some());
            let result = tr.span("gateway.wait", job.span, job.index, || job.ticket.wait());
            tr.end(job.span);
            let ms = job.submitted.elapsed().as_secs_f64() * 1e3;
            out.by_kind[job.req as usize].push(ms);
            if job.req == Req::EncryptAuto {
                out.pass.op_ms.push(ms);
                out.pass.op_stretch.push(out.pass.stretch_s.len());
                out.pass.op_traced.push(job.span.is_some());
            }
            match result {
                Ok(response) => self.settle(&mut out, job.index, job.req, job.tenant, response),
                Err(_) => out.pass.failed += 1,
            }
        }
        out.pass.cpu_s = procfs::cpu_seconds() - cpu0 - slices.cpu_s();
        out.pass.slice_ms = slices.ms().to_vec();
        tr.set_enabled(tracing);
        out
    }

    /// Checks one response and folds it into the counts.
    fn settle(&self, out: &mut ServicePass, index: u64, req: Req, tenant: u64, response: Response) {
        let pass = &mut out.pass;
        let hashed = index < MIX.len() as u64;
        let ok = match (req, response) {
            (
                Req::EncryptAuto | Req::EncryptFull | Req::EncryptCompressed,
                Response::Encrypted { blob, compressed },
            ) => {
                pass.wire_bytes += blob.len() as u64;
                if hashed {
                    pass.hash = fnv1a(pass.hash, &blob);
                }
                if req == Req::EncryptAuto {
                    if out.autos.is_multiple_of(VERIFY_EVERY) {
                        if out.kept.len() == KEPT_MAX {
                            out.kept.pop_front();
                        }
                        out.kept
                            .push_back((index as usize % MESSAGES, tenant, blob));
                    }
                    out.autos += 1;
                }
                compressed == (req == Req::EncryptCompressed)
            }
            (Req::EncryptBatch, Response::EncryptedBatch { blobs, compressed }) => {
                for blob in &blobs {
                    pass.wire_bytes += blob.len() as u64;
                    if hashed {
                        pass.hash = fnv1a(pass.hash, blob);
                    }
                }
                blobs.len() == 2 && !compressed
            }
            (Req::Decrypt, Response::Decrypted { slots }) => {
                pass.wire_bytes += self.small_blobs[tenant as usize].len() as u64;
                if hashed {
                    pass.hash = hash_slots(pass.hash, &slots);
                }
                // Tenant t's blob carries message t (see `timed_start`).
                pass.check_slots(&slots, &self.messages[tenant as usize]);
                true
            }
            (
                Req::Ingest,
                Response::Ingested {
                    compressed,
                    primes,
                    wire_bytes,
                },
            ) => {
                let sent = self.full_blobs[tenant as usize].len();
                pass.wire_bytes += sent as u64;
                !compressed && primes == self.primes && wire_bytes == sent
            }
            _ => false,
        };
        if !ok {
            pass.failed += 1;
        }
    }

    /// Sends the kept uploads back through `Decrypt` and compares the
    /// slots with the messages they encrypted.
    pub fn verify_kept(&self, out: &mut ServicePass) {
        for (message, tenant, blob) in std::mem::take(&mut out.kept) {
            let op = Operation::Decrypt { blob };
            match self.gw.call(Request {
                tenant,
                deadline: None,
                op,
            }) {
                Ok(Response::Decrypted { slots }) => {
                    out.pass.check_slots(&slots, &self.messages[message])
                }
                _ => {
                    out.pass.checked += 1;
                    out.pass.failed += 1;
                }
            }
        }
    }

    /// Shed / degraded / timed-out shares of everything submitted so
    /// far, and the retry count, from `Gateway::metrics()`.
    pub fn counters(&self) -> [(&'static str, f64); 4] {
        let m = self.gw.metrics();
        let share = |count: u64| count as f64 / m.submitted.max(1) as f64;
        [
            ("gateway.shed_frac", share(m.shed_overload + m.shed_batch)),
            ("gateway.degraded_frac", share(m.degraded_compressed)),
            (
                "gateway.timeout_frac",
                share(m.timeout_queued + m.timeout_compute + m.timeout_await),
            ),
            ("gateway.retries", m.retries as f64),
        ]
    }
}
