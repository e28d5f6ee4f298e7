//! The gateway service: admission, degradation ladder, deadlines, and
//! lifecycle.

use crate::config::GatewayConfig;
use crate::error::{GatewayError, TimeoutStage};
use crate::fault::FaultPlan;
use crate::metrics::{inc, Metrics, MetricsSnapshot};
use crate::queue::{BoundedQueue, PushError};
use crate::retry;
use crate::session::{SessionStore, SESSION_CAPACITY};
use crate::worker::{self, Job, Responder};
use abc_ckks::limb_pool::Allowance;
use abc_ckks::CkksContext;
use abc_float::Complex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Deadline of a request that does not carry its own.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// How an encryption result should be shipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadMode {
    /// Public-key ciphertext, v3 bit-packed wire (kind 1).
    Full,
    /// Seed-compressed symmetric ciphertext (kind 2) — about half the
    /// wire bytes at identical slot precision.
    Compressed,
    /// Let the gateway decide: `Full` normally, `Compressed` once the
    /// queue reaches the degrade watermark ([`GatewayConfig::watermarks`]).
    Auto,
}

/// The work a request asks for.
#[derive(Debug, Clone)]
pub enum Operation {
    /// Encode + encrypt one message to wire bytes.
    Encrypt {
        message: Vec<Complex>,
        mode: UploadMode,
    },
    /// Encode + encrypt a batch (shed first under pressure).
    EncryptBatch {
        messages: Vec<Vec<Complex>>,
        mode: UploadMode,
    },
    /// Validate + decrypt + decode wire bytes to slots.
    Decrypt { blob: Vec<u8> },
    /// Decrypt + decode a batch of wire blobs (shed first under
    /// pressure, like [`Operation::EncryptBatch`]).
    DecryptBatch { blobs: Vec<Vec<u8>> },
    /// Strictly validate an uploaded wire blob (kind 1 or 2), expanding
    /// seeded uploads to prove they are well-formed.
    Ingest { blob: Vec<u8> },
}

/// One gateway request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant identifier (keys are derived per tenant).
    pub tenant: u64,
    /// Per-request deadline; `None` uses the default of 5 s.
    pub deadline: Option<Duration>,
    /// The operation to perform.
    pub op: Operation,
}

/// A successful resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Wire bytes of one ciphertext.
    Encrypted { blob: Vec<u8>, compressed: bool },
    /// Wire bytes of a batch.
    EncryptedBatch {
        blobs: Vec<Vec<u8>>,
        compressed: bool,
    },
    /// Decoded slots.
    Decrypted { slots: Vec<Complex> },
    /// Decoded slots of a batch, in request order.
    DecryptedBatch { slots: Vec<Vec<Complex>> },
    /// Ingress validation report.
    Ingested {
        compressed: bool,
        primes: usize,
        wire_bytes: usize,
    },
}

/// Shared state between the service facade and its workers.
pub(crate) struct Shared {
    pub(crate) config: GatewayConfig,
    /// The one CKKS context every worker runs on.
    pub(crate) ctx: Arc<CkksContext>,
    /// Limb-pool retention for the `workers − 1` operations beside the
    /// one the context's engine registers: `workers × 4 × limbs` in all.
    _pool_allowance: Allowance,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) sessions: SessionStore,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) seq: AtomicU64,
    /// Live fault schedule — swappable at runtime so a chaos driver
    /// can run clean / storm / recovery phases against one gateway
    /// (disabled at start).
    pub(crate) fault: Mutex<FaultPlan>,
}

/// Handle for one in-flight request.
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, GatewayError>>,
    deadline: Instant,
    metrics: Arc<Metrics>,
}

impl Ticket {
    /// Blocks until the request resolves or the deadline (plus a small
    /// grace period, so worker-side classification usually wins)
    /// passes. A caller-side timeout does not cancel the work; the
    /// worker still resolves and accounts the request.
    pub fn wait(self) -> Result<Response, GatewayError> {
        let budget = self
            .deadline
            .saturating_duration_since(Instant::now())
            .saturating_add(Duration::from_millis(100));
        match self.rx.recv_timeout(budget) {
            Ok(result) => result,
            Err(_) => {
                inc(&self.metrics.timeout_await);
                Err(GatewayError::Timeout(TimeoutStage::Await))
            }
        }
    }
}

/// The multi-tenant encryption gateway. See the crate docs for the
/// architecture; constructed by [`Gateway::start`], torn down by
/// [`Gateway::shutdown`] or drop.
pub struct Gateway {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    live_workers: Arc<AtomicU64>,
}

impl Gateway {
    /// Validates `config`, builds the CKKS context the workers share,
    /// spins up the worker pool, and returns the running gateway.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::InvalidConfig`] for a bad configuration
    /// (zero pools, CKKS parameters the builder rejects).
    pub fn start(config: GatewayConfig) -> Result<Self, GatewayError> {
        config.validate()?;
        let ctx = Arc::new(worker::build_context(&config)?);
        let shared = Arc::new(Shared {
            _pool_allowance: ctx.ntt_engine().allow_concurrent_ops(config.workers - 1),
            ctx,
            sessions: SessionStore::new(SESSION_CAPACITY, config.master_seed),
            queue: BoundedQueue::new(config.queue_capacity),
            metrics: Arc::new(Metrics::default()),
            seq: AtomicU64::new(0),
            fault: Mutex::new(FaultPlan::disabled()),
            config,
        });
        let live_workers = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let worker_shared = Arc::clone(&shared);
            let live = Arc::clone(&live_workers);
            let spawned = std::thread::Builder::new()
                .name(format!("gw-worker-{i}"))
                .spawn(move || worker::worker_main(worker_shared, live));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(err) => {
                    // Unwind cleanly: close the queue and join the
                    // workers already running so no thread outlives
                    // the failed constructor.
                    shared.queue.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(GatewayError::Internal(format!(
                        "cannot spawn worker thread {i}: {err}"
                    )));
                }
            }
        }
        Ok(Self {
            shared,
            workers: Mutex::new(workers),
            live_workers,
        })
    }

    /// Admits a request, applying the degradation ladder, and returns
    /// a [`Ticket`] to wait on. Never blocks: over-capacity work is
    /// rejected here with a typed error.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Overloaded`] at capacity, [`GatewayError::BatchShed`]
    /// for batch work past the batch watermark, [`GatewayError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, request: Request) -> Result<Ticket, GatewayError> {
        let metrics = &self.shared.metrics;
        let depth = self.shared.queue.len();
        let (degrade, batch_shed) = self.shared.config.watermarks();
        let mut op = request.op;
        // Degradation ladder: shed bulk work first, then degrade Auto
        // uploads to the cheap path, and only at capacity shed whole
        // requests (checked by try_push under the queue lock).
        if matches!(
            op,
            Operation::EncryptBatch { .. } | Operation::DecryptBatch { .. }
        ) && depth >= batch_shed
        {
            inc(&metrics.shed_batch);
            return Err(GatewayError::BatchShed);
        }
        if let Operation::Encrypt { mode, .. } | Operation::EncryptBatch { mode, .. } = &mut op {
            if *mode == UploadMode::Auto {
                if depth >= degrade {
                    *mode = UploadMode::Compressed;
                    inc(&metrics.degraded_compressed);
                } else {
                    *mode = UploadMode::Full;
                }
            }
        }
        let deadline = Instant::now() + request.deadline.unwrap_or(DEFAULT_DEADLINE);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            seq: self.shared.seq.fetch_add(1, Ordering::SeqCst),
            tenant: request.tenant,
            op,
            deadline,
            responder: Responder::new(tx, Arc::clone(metrics)),
        };
        // Count the submission before resolution can race it: shed
        // requests resolve synchronously below, and `submitted` must
        // always read >= `resolved` in any snapshot.
        inc(&metrics.submitted);
        match self.shared.queue.try_push(job) {
            Ok(_) => Ok(Ticket {
                rx,
                deadline,
                metrics: Arc::clone(metrics),
            }),
            Err(PushError::Full(job)) => {
                inc(&metrics.shed_overload);
                // Resolve through the typed path (not the drop guard,
                // which would misclassify this shed as a panic).
                job.responder
                    .resolve(Err(GatewayError::Overloaded { depth }));
                Err(GatewayError::Overloaded { depth })
            }
            Err(PushError::Closed(job)) => {
                job.responder.resolve(Err(GatewayError::ShuttingDown));
                Err(GatewayError::ShuttingDown)
            }
        }
    }

    /// [`submit`](Self::submit) + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// Any [`GatewayError`]; see the admission and wait paths.
    pub fn call(&self, request: Request) -> Result<Response, GatewayError> {
        self.submit(request)?.wait()
    }

    /// [`call`](Self::call) wrapped in jittered exponential backoff
    /// (4 attempts, a 2 ms backoff doubling up to 100 ms, each scaled
    /// by a seeded jitter); only transient errors are retried.
    ///
    /// # Errors
    ///
    /// The final error after exhausting attempts, or the first
    /// non-transient error.
    pub fn call_with_retry(&self, request: Request) -> Result<Response, GatewayError> {
        let seed = self
            .shared
            .config
            .master_seed
            .derive(request.tenant ^ 0x5E77)
            .derive(2);
        let metrics = Arc::clone(&self.shared.metrics);
        retry::call_with_retry(
            seed,
            || inc(&metrics.retries),
            || self.call(request.clone()),
        )
    }

    /// Swaps the live fault schedule (chaos drivers use this to phase
    /// a single gateway through clean → storm → recovery).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *crate::sync::lock(&self.shared.fault) = plan;
    }

    /// The CKKS context every worker runs on (one per gateway, however
    /// many workers), to read parameters, kernels and resident bytes off.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.shared.ctx
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Workers currently alive (a caught panic does not end its worker:
    /// this only drops from the configured pool size during shutdown).
    pub fn live_workers(&self) -> u64 {
        self.live_workers.load(Ordering::SeqCst)
    }

    /// Counter snapshot with latency percentiles.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Blocks until the queue is empty and all admitted requests have
    /// resolved (or `timeout` passes; returns whether it drained).
    pub fn drain(&self, timeout: Duration) -> bool {
        let until = Instant::now() + timeout;
        loop {
            let snap = self.metrics();
            if self.shared.queue.is_empty() && snap.in_flight() == 0 {
                return true;
            }
            if Instant::now() >= until {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops admissions, drains the queue, and joins the workers.
    /// Requests admitted before shutdown still resolve.
    pub fn shutdown(self) {
        // Drop runs the actual teardown.
    }

    fn teardown(&self) {
        self.shared.queue.close();
        let workers = std::mem::take(&mut *crate::sync::lock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.teardown();
    }
}
