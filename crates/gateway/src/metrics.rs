//! Gateway counters and latency tracking.
//!
//! The central invariant — **zero lost requests** — is checkable from
//! here alone: every admission increments `submitted`, every terminal
//! resolution (success or typed error, whether sent by a worker, the
//! drop-guard of a panicked worker, or the admission path shedding
//! load) increments exactly one resolution counter, and after a drain
//! `submitted == resolved()`.
//!
//! Everything here is a fixed set of atomics: recording takes no lock
//! and the metrics occupy the same few KiB after the billionth request
//! as after the first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-buckets per power of two of the latency histogram, as a shift.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power of two.
const SUBS: usize = 1 << SUB_BITS;
/// Buckets covering every `u64` microsecond count: the values below
/// [`SUBS`] one bucket each, then [`SUBS`] per leading-bit position.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// Log-linear latency histogram over microseconds: bucket widths double
/// every [`SUBS`] buckets, so a bucket of lower edge `lo ≥ 8` is `lo/8`
/// wide at most and its midpoint is within **1/16** of every sample in
/// it (samples below 8 µs are exact). 496 counters, 3.9 KiB.
#[derive(Debug)]
struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    /// The bucket `us` falls into.
    fn bucket(us: u64) -> usize {
        if us < SUBS as u64 {
            return us as usize;
        }
        let top = 63 - us.leading_zeros();
        let sub = (us >> (top - SUB_BITS)) as usize & (SUBS - 1);
        (top - SUB_BITS + 1) as usize * SUBS + sub
    }

    /// The value reported for a sample in `bucket`: its midpoint.
    fn midpoint(bucket: usize) -> u64 {
        if bucket < SUBS {
            return bucket as u64;
        }
        let shift = (bucket / SUBS - 1) as u32;
        let lo = ((SUBS + bucket % SUBS) as u64) << shift;
        lo + ((1u64 << shift) >> 1)
    }

    fn record(&self, us: u64) {
        self.counts[Self::bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank (upper) percentiles of the samples recorded so far,
    /// one per entry of `ps`, ascending; 0 when empty.
    fn percentiles<const K: usize>(&self, ps: [f64; K]) -> [u64; K] {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|b| self.counts[b].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        let mut out = [0; K];
        if total == 0 {
            return out;
        }
        let (mut bucket, mut below) = (0, 0u64);
        for (slot, p) in out.iter_mut().zip(ps) {
            // 0-based rank, conservative at small samples.
            let rank = ((total - 1) as f64 * p).ceil() as u64;
            while below + counts[bucket] <= rank {
                below += counts[bucket];
                bucket += 1;
            }
            *slot = Self::midpoint(bucket);
        }
        out
    }
}

/// Monotonic event counters plus a latency histogram.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests entering admission — including ones shed at the door,
    /// which resolve synchronously with a typed error.
    pub submitted: AtomicU64,
    /// Requests resolved with `Ok`.
    pub succeeded: AtomicU64,
    /// Requests resolved with a typed error (any variant).
    pub failed: AtomicU64,
    /// `Overloaded` rejections at admission.
    pub shed_overload: AtomicU64,
    /// `BatchShed` rejections at admission.
    pub shed_batch: AtomicU64,
    /// Auto-mode requests downgraded to seed-compressed uploads.
    pub degraded_compressed: AtomicU64,
    /// Deadline expiries noticed while queued.
    pub timeout_queued: AtomicU64,
    /// Deadline expiries noticed at/after compute.
    pub timeout_compute: AtomicU64,
    /// Caller-side await timeouts (the request still resolves).
    pub timeout_await: AtomicU64,
    /// Wire-validation rejections.
    pub bad_requests: AtomicU64,
    /// Worker panics caught.
    pub worker_panics: AtomicU64,
    /// Retry attempts made by `call_with_retry` (beyond the first).
    pub retries: AtomicU64,
    latencies_us: LatencyHistogram,
}

/// Point-in-time copy of the counters with derived percentiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub shed_overload: u64,
    pub shed_batch: u64,
    pub degraded_compressed: u64,
    pub timeout_queued: u64,
    pub timeout_compute: u64,
    pub timeout_await: u64,
    pub bad_requests: u64,
    pub worker_panics: u64,
    pub retries: u64,
    /// Median end-to-end latency, microseconds (0 when empty), within
    /// 1/16 of the median sample.
    pub p50_us: u64,
    /// 95th-percentile end-to-end latency, microseconds, to the same
    /// 1/16.
    pub p95_us: u64,
}

impl MetricsSnapshot {
    /// Requests that reached a terminal state.
    pub fn resolved(&self) -> u64 {
        self.succeeded + self.failed
    }

    /// Admitted requests not yet resolved — must be 0 after a drain;
    /// anything else is a lost request.
    pub fn in_flight(&self) -> u64 {
        self.submitted.saturating_sub(self.resolved())
    }
}

/// Bumps a counter by one.
pub(crate) fn inc(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Metrics {
    /// Records one end-to-end request latency.
    pub fn record_latency(&self, latency: Duration) {
        self.latencies_us
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Copies the counters and computes latency percentiles.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let [p50_us, p95_us] = self.latencies_us.percentiles([0.50, 0.95]);
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: get(&self.submitted),
            succeeded: get(&self.succeeded),
            failed: get(&self.failed),
            shed_overload: get(&self.shed_overload),
            shed_batch: get(&self.shed_batch),
            degraded_compressed: get(&self.degraded_compressed),
            timeout_queued: get(&self.timeout_queued),
            timeout_compute: get(&self.timeout_compute),
            timeout_await: get(&self.timeout_await),
            bad_requests: get(&self.bad_requests),
            worker_panics: get(&self.worker_panics),
            retries: get(&self.retries),
            p50_us,
            p95_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_accounting() {
        let m = Metrics::default();
        for us in [100u64, 200, 300, 400, 1000] {
            m.record_latency(Duration::from_micros(us));
        }
        inc(&m.submitted);
        inc(&m.submitted);
        inc(&m.succeeded);
        let snap = m.snapshot();
        assert!(within_a_sixteenth(snap.p50_us, 300), "{}", snap.p50_us);
        assert!(within_a_sixteenth(snap.p95_us, 1000), "{}", snap.p95_us);
        assert_eq!(snap.resolved(), 1);
        assert_eq!(snap.in_flight(), 1);
    }

    /// The histogram's stated bound: `got` within 1/16 of `sample`.
    fn within_a_sixteenth(got: u64, sample: u64) -> bool {
        got.abs_diff(sample) <= sample / 16
    }

    #[test]
    fn buckets_tile_the_range_and_keep_the_error_bound() {
        assert!(core::mem::size_of::<LatencyHistogram>() <= 4096);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), BUCKETS - 1);
        let mut edges: Vec<u64> = (0..64).collect();
        for bit in 3..64 {
            for sub in 0..=SUBS as u64 {
                let v = (1u64 << bit).saturating_add(sub << (bit - 3));
                edges.extend([v.wrapping_sub(1), v, v.saturating_add(1)]);
            }
        }
        edges.sort_unstable();
        let mut last = 0;
        for v in edges {
            let b = LatencyHistogram::bucket(v);
            assert!(b == last || b == last + 1, "bucket order breaks at {v}");
            last = b;
            let mid = LatencyHistogram::midpoint(b);
            assert!(within_a_sixteenth(mid, v), "{v} reported as {mid}");
            assert_eq!(LatencyHistogram::bucket(mid), b, "midpoint of {v}'s bucket");
        }
    }

    #[test]
    fn a_million_latencies_stay_in_the_same_bytes() {
        let m = Metrics::default();
        let bytes = core::mem::size_of_val(&m);
        // 1 µs … 10 s, log-uniform: exact percentiles are known in
        // closed form from the generator.
        let sample = |i: u64| 10f64.powf(7.0 * i as f64 / 999_999.0) as u64;
        for i in 0..1_000_000 {
            m.record_latency(Duration::from_micros(sample(i)));
        }
        // Inline atomics only: nothing to grow, and within 4 KiB plus
        // the thirteen counters.
        assert_eq!(core::mem::size_of_val(&m), bytes);
        assert!(bytes <= 4096 + 13 * 8, "{bytes} B");
        let snap = m.snapshot();
        for (got, p) in [(snap.p50_us, 0.50), (snap.p95_us, 0.95)] {
            let exact = sample((999_999.0f64 * p).ceil() as u64);
            assert!(within_a_sixteenth(got, exact), "p{p}: {got} vs {exact}");
        }
    }

    #[test]
    fn empty_reservoir_reports_zero() {
        let snap = Metrics::default().snapshot();
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p95_us, 0);
    }
}
