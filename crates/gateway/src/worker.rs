//! Worker threads: one shared CKKS context, panic isolation, and the
//! zero-lost-request drop guard.
//!
//! [`Gateway::start`](crate::Gateway::start) builds **one**
//! `CkksContext` and every worker borrows it: the context is immutable
//! after construction (`Send + Sync`, every method `&self`), so its
//! tables are built once and resident once however many workers run.
//! What workers contend on is one short critical section — the
//! process-wide limb pool, a pop or a push under a lock that recovers
//! from a panic (the embedding FFT keeps no memory of its own, and its
//! AVX-512 split planes are a limb of that pool). A panic caught
//! mid-request therefore costs nothing to recover from: the context has
//! no state an unwind could leave half-written, the limbs the request
//! had checked out go back while it unwinds, and the worker resumes on
//! the same context with the next job. The in-flight request is resolved
//! by [`Responder`]'s drop guard — a panicking worker can *never* strand
//! its caller.
//!
//! Requests are the gateway's unit of parallelism (one per worker); a
//! batch request is a loop of the single-message path on its worker, so
//! whatever its size it holds one operation's worth of limbs at a time.

use crate::config::GatewayConfig;
use crate::error::{GatewayError, TimeoutStage};
use crate::fault::Fault;
use crate::metrics::{inc, Metrics};
use crate::service::{Operation, Response, Shared, UploadMode};
use crate::session::TenantSession;
use abc_ckks::params::CkksParams;
use abc_ckks::wire::{self, WireKind};
use abc_ckks::{CkksContext, CkksError};
use abc_float::Complex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// One admitted request, owned by the queue and then by a worker.
pub(crate) struct Job {
    pub(crate) seq: u64,
    pub tenant: u64,
    pub op: Operation,
    pub deadline: Instant,
    pub(crate) responder: Responder,
}

/// Single-shot response channel with a drop guard: if a job is dropped
/// without an explicit resolution (the only way is a panic unwinding
/// the handler), the guard sends `WorkerPanicked` — the caller always
/// hears *something*, and metrics count exactly one terminal outcome
/// per admitted request.
pub(crate) struct Responder {
    tx: Option<mpsc::Sender<Result<Response, GatewayError>>>,
    metrics: Arc<Metrics>,
    submitted_at: Instant,
}

impl Responder {
    pub(crate) fn new(
        tx: mpsc::Sender<Result<Response, GatewayError>>,
        metrics: Arc<Metrics>,
    ) -> Self {
        Self {
            tx: Some(tx),
            metrics,
            submitted_at: Instant::now(),
        }
    }

    /// Resolves the request (exactly once; the drop guard disarms).
    pub(crate) fn resolve(mut self, result: Result<Response, GatewayError>) {
        self.finish(result);
    }

    fn finish(&mut self, result: Result<Response, GatewayError>) {
        let Some(tx) = self.tx.take() else { return };
        match &result {
            Ok(_) => inc(&self.metrics.succeeded),
            Err(e) => {
                inc(&self.metrics.failed);
                match e {
                    GatewayError::Timeout(TimeoutStage::Queued) => {
                        inc(&self.metrics.timeout_queued)
                    }
                    GatewayError::Timeout(TimeoutStage::Compute) => {
                        inc(&self.metrics.timeout_compute)
                    }
                    GatewayError::BadRequest(_) => inc(&self.metrics.bad_requests),
                    _ => {}
                }
            }
        }
        self.metrics.record_latency(self.submitted_at.elapsed());
        // A disconnected receiver (caller gave up waiting) is fine —
        // the request is still accounted as resolved above.
        let _ = tx.send(result);
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.finish(Err(GatewayError::WorkerPanicked));
    }
}

/// Builds the gateway's context from its parameters; the error is what
/// `Gateway::start` reports for CKKS parameters the builder rejects.
pub(crate) fn build_context(config: &GatewayConfig) -> Result<CkksContext, GatewayError> {
    CkksParams::builder()
        .log_n(config.log_n)
        .num_primes(config.num_primes)
        .secret_hamming_weight(Some((1usize << config.log_n) / 8))
        .build()
        .and_then(CkksContext::new)
        .map_err(|e| GatewayError::InvalidConfig(format!("{e}")))
}

/// The worker thread body: pop → handle (panic-isolated) → repeat.
pub(crate) fn worker_main(shared: Arc<Shared>, live_workers: Arc<AtomicU64>) {
    let ctx = Arc::clone(&shared.ctx);
    live_workers.fetch_add(1, Ordering::SeqCst);
    while let Some(job) = shared.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_job(&ctx, &shared, job)));
        if outcome.is_err() {
            // The job's Responder drop guard has already resolved the
            // caller with WorkerPanicked during unwinding, and the
            // shared context holds nothing an unwind can damage: the
            // worker resumes on it.
            inc(&shared.metrics.worker_panics);
        }
    }
    live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Handles one job end to end; every exit path resolves the responder.
fn handle_job(ctx: &CkksContext, shared: &Shared, mut job: Job) {
    if Instant::now() >= job.deadline {
        job.responder
            .resolve(Err(GatewayError::Timeout(TimeoutStage::Queued)));
        return;
    }
    let plan = crate::sync::lock(&shared.fault).clone();
    match plan.fault_for(job.seq) {
        Fault::PanicWorker => panic!("injected worker fault (seq {})", job.seq),
        Fault::ExtraLatency(d) => std::thread::sleep(d),
        Fault::CorruptBlob | Fault::TruncateBlob => match &mut job.op {
            Operation::Decrypt { blob } | Operation::Ingest { blob } => {
                plan.damage_blob(job.seq, blob);
            }
            Operation::DecryptBatch { blobs } => {
                // One fault per request: damage the first blob so the
                // whole batch must fail as a typed error.
                if let Some(blob) = blobs.first_mut() {
                    plan.damage_blob(job.seq, blob);
                }
            }
            _ => {}
        },
        Fault::None => {}
    }
    let result = execute(ctx, shared, &job);
    if Instant::now() >= job.deadline {
        job.responder
            .resolve(Err(GatewayError::Timeout(TimeoutStage::Compute)));
        return;
    }
    job.responder.resolve(result);
}

/// Maps pipeline errors: anything provoked by client-supplied data is
/// `BadRequest`; internal inconsistencies stay `Internal`.
fn client_err(e: CkksError) -> GatewayError {
    match e {
        CkksError::Math(_) => GatewayError::Internal(format!("{e}")),
        other => GatewayError::BadRequest(format!("{other}")),
    }
}

fn execute(ctx: &CkksContext, shared: &Shared, job: &Job) -> Result<Response, GatewayError> {
    let session = shared.sessions.get_or_create(job.tenant, ctx);
    let enc_seed = shared.config.master_seed.derive(job.seq).derive(1);
    match &job.op {
        Operation::Encrypt { message, mode } => {
            let (blob, compressed) = encrypt_to_wire(ctx, message, &session, *mode, enc_seed)?;
            Ok(Response::Encrypted { blob, compressed })
        }
        Operation::EncryptBatch { messages, mode } => {
            // One message at a time through the single-op path: the
            // request holds one operation's limbs whatever its size.
            let mut blobs = Vec::with_capacity(messages.len());
            let mut compressed = false;
            for (i, message) in messages.iter().enumerate() {
                let seed = enc_seed.derive(i as u64);
                let (blob, c) = encrypt_to_wire(ctx, message, &session, *mode, seed)?;
                compressed = c;
                blobs.push(blob);
            }
            Ok(Response::EncryptedBatch { blobs, compressed })
        }
        Operation::Decrypt { blob } => {
            let slots = decrypt_from_wire(ctx, blob, &session)?;
            Ok(Response::Decrypted { slots })
        }
        Operation::DecryptBatch { blobs } => {
            let slots = blobs
                .iter()
                .map(|blob| decrypt_from_wire(ctx, blob, &session))
                .collect::<Result<_, _>>()?;
            Ok(Response::DecryptedBatch { slots })
        }
        Operation::Ingest { blob } => {
            let (primes, compressed) = ingest(ctx, blob)?;
            Ok(Response::Ingested {
                compressed,
                primes,
                wire_bytes: blob.len(),
            })
        }
    }
}

/// Encodes and encrypts one message to wire bytes in the requested
/// upload mode (`Auto` has been resolved to a concrete mode at
/// admission), through the fused upload of that mode: each limb is
/// computed and packed by the thread that owns it, and no plaintext or
/// ciphertext is held, so a caller looping over messages holds one
/// upload's scratch at a time.
fn encrypt_to_wire(
    ctx: &CkksContext,
    message: &[Complex],
    session: &TenantSession,
    mode: UploadMode,
    seed: abc_prng::Seed,
) -> Result<(Vec<u8>, bool), GatewayError> {
    let mut blob = Vec::new();
    let compressed = match mode {
        UploadMode::Compressed => ctx
            .encode_encrypt_compressed_into(message, &session.sk, seed, &mut blob)
            .map(|()| true),
        UploadMode::Full | UploadMode::Auto => ctx
            .encode_encrypt_into(message, &session.pk, seed, &mut blob)
            .map(|()| false),
    };
    Ok((blob, compressed.map_err(client_err)?))
}

/// Validates, decrypts and decodes one wire blob to its slots. The
/// parser bounds a residue by its width only; decrypt holds each one
/// against its prime as its transform loads it, and refuses the blob.
fn decrypt_from_wire(
    ctx: &CkksContext,
    blob: &[u8],
    session: &TenantSession,
) -> Result<Vec<Complex>, GatewayError> {
    let ct = wire::deserialize_ciphertext(blob).map_err(client_err)?;
    let pt = ctx.decrypt(&ct, &session.sk).map_err(client_err)?;
    ctx.decode(&pt).map_err(client_err)
}

/// Strict ingress validation, from one parse of the header: its
/// [`wire::Layout`] has every field bounded and the length exact. A full
/// ciphertext is then only held against the gateway's parameters —
/// header-only: no polynomial is unpacked, so its residues are bounded
/// by their widths and not yet by their primes (`Decrypt`'s decrypt
/// refuses one past its prime as it loads it; nothing here computes on
/// them). A seeded upload is
/// deserialized, its residues checked against the basis, and expanded
/// against the shared context. Malformed bytes are rejected with
/// `BadRequest`, never stored or forwarded.
fn ingest(ctx: &CkksContext, blob: &[u8]) -> Result<(usize, bool), GatewayError> {
    let layout = wire::Layout::parse(blob).map_err(client_err)?;
    match layout.kind() {
        WireKind::Full => {
            if layout.n() != ctx.params().n() || layout.limbs() > ctx.params().num_primes() {
                return Err(GatewayError::BadRequest(
                    "ciphertext shape does not match gateway parameters".into(),
                ));
            }
            Ok((layout.limbs(), false))
        }
        WireKind::Compressed => {
            let cct = wire::deserialize_compressed_ciphertext(blob).map_err(client_err)?;
            ctx.check_residues(cct.c0()).map_err(client_err)?;
            let ct = cct.expand(ctx).map_err(client_err)?;
            Ok((ct.num_primes(), true))
        }
        other => Err(GatewayError::BadRequest(format!(
            "unsupported wire kind {other:?} at ingress"
        ))),
    }
}
