//! The gateway's error taxonomy.
//!
//! Every submitted request resolves to exactly one of `Ok(Response)` or
//! one of these variants — never a hang, never a silent drop. The
//! taxonomy is the contract the retry layer keys off: only
//! [`GatewayError::is_transient`] errors are worth re-submitting,
//! everything else is either the caller's fault ([`BadRequest`]) or a
//! terminal state ([`ShuttingDown`]).
//!
//! [`BadRequest`]: GatewayError::BadRequest
//! [`ShuttingDown`]: GatewayError::ShuttingDown

use std::fmt;

/// Where a deadline was exceeded — the classification callers use to
/// tell "the queue was too deep" (transient, back off and retry) from
/// "the work itself was too slow for the budget" (retrying the same
/// request will time out again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutStage {
    /// The deadline expired while the request sat in the admission
    /// queue; the work was never started. Transient — a retry after
    /// backoff lands in a shallower queue.
    Queued,
    /// The worker finished after the deadline (result discarded) or
    /// observed the expiry mid-pipeline. Not transient: the budget was
    /// too small for the operation.
    Compute,
    /// The caller stopped waiting on the response channel. The worker
    /// still resolves the request internally (zero-lost accounting);
    /// this is the caller-side classification.
    Await,
}

impl fmt::Display for TimeoutStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TimeoutStage::Queued => "queued",
            TimeoutStage::Compute => "compute",
            TimeoutStage::Await => "await",
        })
    }
}

/// Typed failure of one gateway request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Admission queue at capacity — the request was shed at the door
    /// (backpressure, never unbounded growth). Transient.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
    },
    /// A batch-encode request was shed under pressure while single
    /// requests were still admitted (graceful degradation sheds bulk
    /// work before sessions). Transient — retry later or split.
    BatchShed,
    /// The per-request deadline expired at the given stage.
    Timeout(TimeoutStage),
    /// The worker handling this request panicked; the worker resumed on
    /// the shared context, which an unwind cannot damage, and the
    /// request is safe to retry.
    WorkerPanicked,
    /// Malformed input (wire-format validation failed at ingress, bad
    /// slot counts, …). Permanent: retrying identical bytes cannot
    /// succeed.
    BadRequest(String),
    /// The gateway is shutting down and no longer admits work.
    ShuttingDown,
    /// Configuration rejected at startup.
    InvalidConfig(String),
    /// An internal pipeline failure that is not the caller's fault
    /// (kept rare: a context mismatch between the shared context and a
    /// session would surface here).
    Internal(String),
}

impl GatewayError {
    /// Whether a retry (with backoff) can plausibly succeed. The retry
    /// layer refuses to spin on anything else.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GatewayError::Overloaded { .. }
                | GatewayError::BatchShed
                | GatewayError::WorkerPanicked
                | GatewayError::Timeout(TimeoutStage::Queued)
        )
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Overloaded { depth } => {
                write!(
                    f,
                    "gateway overloaded (queue depth {depth}); retry with backoff"
                )
            }
            GatewayError::BatchShed => {
                f.write_str("batch work shed under pressure; retry later or split the batch")
            }
            GatewayError::Timeout(stage) => write!(f, "deadline exceeded ({stage})"),
            GatewayError::WorkerPanicked => {
                f.write_str("worker panicked handling this request (worker resumed)")
            }
            GatewayError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            GatewayError::ShuttingDown => f.write_str("gateway is shutting down"),
            GatewayError::InvalidConfig(msg) => write!(f, "invalid gateway config: {msg}"),
            GatewayError::Internal(msg) => write!(f, "internal gateway error: {msg}"),
        }
    }
}

impl std::error::Error for GatewayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        assert!(GatewayError::Overloaded { depth: 9 }.is_transient());
        assert!(GatewayError::BatchShed.is_transient());
        assert!(GatewayError::WorkerPanicked.is_transient());
        assert!(GatewayError::Timeout(TimeoutStage::Queued).is_transient());
        assert!(!GatewayError::Timeout(TimeoutStage::Compute).is_transient());
        assert!(!GatewayError::Timeout(TimeoutStage::Await).is_transient());
        assert!(!GatewayError::BadRequest("nope".into()).is_transient());
        assert!(!GatewayError::ShuttingDown.is_transient());
        assert!(!GatewayError::Internal("x".into()).is_transient());
    }

    #[test]
    fn display_names_the_stage() {
        let msg = format!("{}", GatewayError::Timeout(TimeoutStage::Queued));
        assert!(msg.contains("queued"), "{msg}");
    }
}
