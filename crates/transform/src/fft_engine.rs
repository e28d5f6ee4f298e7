//! Batched canonical-embedding FFT over many slot vectors, with thread
//! fan-out and reusable scratch buffers — the FFT-side sibling of
//! [`crate::rns_ntt::RnsNttEngine`].
//!
//! The client pipeline encodes and decodes *streams* of messages (the
//! paper's Fig. 1 gateway serves many users); every vector's transform is
//! independent, so the engine fans a batch out across OS threads with
//! [`std::thread::scope`] (no rayon in the offline build environment).
//! The thread count defaults to the machine's parallelism and can be
//! pinned with the `ABC_FHE_THREADS` environment variable — the same
//! knob the NTT engine reads. A single transform always runs on the
//! calling thread (a barrier per stage costs more than the stage).
//!
//! Scratch slot buffers are drawn from an internal pool and recycled, so
//! steady-state encode/decode performs no per-op slot allocation.
//!
//! Transforms are **bit-identical** to running each vector through the
//! shared [`SpecialFft`] plan serially — threading only changes
//! scheduling, never values — which the tests below assert for thread
//! counts 1/2/4.

use crate::fft::SpecialFft;
use crate::rns_ntt::threads_from_env;
use abc_float::{Complex, RealField};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cap on pooled scratch buffers, bounding steady-state memory.
const MAX_POOLED_BUFS: usize = 64;

/// High-water cap on pooled scratch **bytes**: a burst of large-slot
/// batches must not pin peak memory forever, so buffers returned past
/// this watermark are dropped (evicted) instead of retained.
pub const MAX_POOLED_BYTES: usize = 1 << 22;

/// Below this much total work (`vectors × slots`), thread spawn overhead
/// outweighs the fan-out and the engine runs serially.
const PARALLEL_THRESHOLD: usize = 1 << 12;

/// Scratch pool state: the buffers plus their retained byte total
/// (tracked so eviction is O(1) on return).
#[derive(Debug, Default)]
struct PoolState<R> {
    bufs: Vec<Vec<Complex<R>>>,
    bytes: usize,
}

/// Batched forward/inverse special FFT: one shared per-(slots, datapath)
/// [`SpecialFft`] plan, vector fan-out over scoped threads, and pooled
/// scratch.
///
/// # Example
///
/// ```
/// use abc_float::{Complex, F64Field};
/// use abc_transform::SpecialFftEngine;
///
/// let engine = SpecialFftEngine::with_threads(F64Field, 16, 2);
/// let mut batch: Vec<Vec<Complex>> = (0..4)
///     .map(|k| (0..16).map(|i| Complex::new((i + k) as f64, 0.0)).collect())
///     .collect();
/// let original = batch.clone();
/// engine.inverse_batch(&mut batch);
/// engine.forward_batch(&mut batch);
/// for (v, o) in batch.iter().zip(&original) {
///     for (a, b) in v.iter().zip(o) {
///         assert!(a.dist(*b) < 1e-12);
///     }
/// }
/// ```
#[derive(Debug)]
pub struct SpecialFftEngine<F: RealField> {
    plan: SpecialFft<F>,
    threads: usize,
    pool: Mutex<PoolState<F::Real>>,
}

impl<F: RealField> SpecialFftEngine<F> {
    /// Builds an engine for `slots` slots on `field`, reading the thread
    /// count from `ABC_FHE_THREADS` (default: the machine's available
    /// parallelism, capped at 8).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(field: F, slots: usize) -> Self {
        Self::with_threads(field, slots, threads_from_env())
    }

    /// Builds an engine with an explicit thread count (≥ 1); used by
    /// tests to prove thread-count invariance without touching the
    /// process environment.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn with_threads(field: F, slots: usize, threads: usize) -> Self {
        Self {
            plan: SpecialFft::with_field(field, slots),
            threads: threads.max(1),
            pool: Mutex::new(PoolState::default()),
        }
    }

    /// The shared plan (twiddle tables included).
    pub fn plan(&self) -> &SpecialFft<F> {
        &self.plan
    }

    /// Slot count per vector.
    pub fn slots(&self) -> usize {
        self.plan.slots()
    }

    /// The configured thread fan-out.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Forward transform of a single vector through the shared plan,
    /// on the calling thread whatever the engine's thread count (only
    /// batches fan out).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.forward(vals);
    }

    /// Inverse transform of a single vector through the shared plan,
    /// on the calling thread like [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.inverse(vals);
    }

    /// In-place forward FFT of every vector, fanned out across threads.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `slots`.
    pub fn forward_batch(&self, batch: &mut [Vec<Complex<F::Real>>]) {
        self.for_each_vec(batch, |plan, v| plan.forward(v));
    }

    /// In-place inverse FFT of every vector, fanned out across threads.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `slots`.
    pub fn inverse_batch(&self, batch: &mut [Vec<Complex<F::Real>>]) {
        self.for_each_vec(batch, |plan, v| plan.inverse(v));
    }

    /// Checks a zeroed slot buffer of length `slots` out of the pool;
    /// hand it back with [`Self::recycle`].
    pub fn take_buf(&self) -> Vec<Complex<F::Real>> {
        let recycled = {
            let mut guard = self.lock_pool();
            let b = guard.bufs.pop();
            if let Some(b) = &b {
                guard.bytes -= b.capacity() * core::mem::size_of::<Complex<F::Real>>();
            }
            b
        };
        match recycled {
            Some(mut b) => {
                b.clear();
                b.resize(self.plan.slots(), Complex::default());
                b
            }
            None => vec![Complex::default(); self.plan.slots()],
        }
    }

    /// Returns a scratch buffer to the pool. Buffers whose retention
    /// would push the pool past [`MAX_POOLED_BYTES`] (or the count cap)
    /// are dropped instead — a burst of batches must not pin its peak
    /// memory forever.
    pub fn recycle(&self, buf: Vec<Complex<F::Real>>) {
        let bytes = buf.capacity() * core::mem::size_of::<Complex<F::Real>>();
        let mut guard = self.lock_pool();
        if guard.bufs.len() < MAX_POOLED_BUFS && guard.bytes + bytes <= MAX_POOLED_BYTES {
            guard.bytes += bytes;
            guard.bufs.push(buf);
        }
    }

    /// Bytes currently retained by the scratch pool (capacity of every
    /// pooled buffer) — always ≤ [`MAX_POOLED_BYTES`].
    pub fn pooled_bytes(&self) -> usize {
        self.lock_pool().bytes
    }

    /// Number of buffers currently retained by the scratch pool.
    pub fn pooled_bufs(&self) -> usize {
        self.lock_pool().bufs.len()
    }

    /// Locks the scratch pool. A poisoned lock is recovered, as in
    /// [`crate::pool`]: the state is a buffer list and a byte count,
    /// valid at every step of every update, so one panicking worker
    /// must not turn every later encode / decode into a panic.
    fn lock_pool(&self) -> MutexGuard<'_, PoolState<F::Real>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `op(plan, vec)` to every vector, splitting the batch into
    /// contiguous chunks across scoped threads. Small batches run
    /// serially: thread spawn costs more than it saves there.
    fn for_each_vec<Op>(&self, batch: &mut [Vec<Complex<F::Real>>], op: Op)
    where
        Op: Fn(&SpecialFft<F>, &mut [Complex<F::Real>]) + Sync,
    {
        let k = batch.len();
        let threads = self.threads.min(k);
        if threads <= 1 || k * self.plan.slots() < PARALLEL_THRESHOLD {
            for v in batch.iter_mut() {
                op(&self.plan, v);
            }
            return;
        }
        let chunk = k.div_ceil(threads);
        let plan = &self.plan;
        let op = &op;
        std::thread::scope(|s| {
            for vc in batch.chunks_mut(chunk) {
                s.spawn(move || {
                    for v in vc.iter_mut() {
                        op(plan, v);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::{ExtF64Field, F64Field};

    fn sample(slots: usize, seed: u64) -> Vec<Complex> {
        (0..slots)
            .map(|i| {
                let x = (seed.wrapping_mul(i as u64 * 2 + 1) % 1000) as f64 / 500.0 - 1.0;
                let y = (seed.wrapping_add(i as u64 * 7) % 1000) as f64 / 500.0 - 1.0;
                Complex::new(x, y)
            })
            .collect()
    }

    #[test]
    fn engine_matches_plan_across_thread_counts() {
        // 8 vectors × 1024 slots clears PARALLEL_THRESHOLD, so threads
        // really spawn.
        let slots = 1usize << 10;
        let batch0: Vec<Vec<Complex>> = (0..8).map(|k| sample(slots, 40 + k)).collect();
        let plan = SpecialFft::new(slots);
        let mut reference = batch0.clone();
        for v in reference.iter_mut() {
            plan.forward(v);
        }
        for threads in [1usize, 2, 4] {
            let engine = SpecialFftEngine::with_threads(F64Field, slots, threads);
            let mut batch = batch0.clone();
            engine.forward_batch(&mut batch);
            assert_eq!(batch, reference, "threads={threads}");
            engine.inverse_batch(&mut batch);
            // inverse(forward(x)) is not bit-identical to x (floating
            // point), but engine-vs-plan must be.
            let mut round = reference.clone();
            for v in round.iter_mut() {
                plan.inverse(v);
            }
            assert_eq!(batch, round, "threads={threads}");
        }
    }

    #[test]
    fn extended_engine_is_thread_invariant_too() {
        // 8 × 2^9 = PARALLEL_THRESHOLD: the threaded path really runs.
        let slots = 1usize << 9;
        let fe = ExtF64Field;
        let batch0: Vec<Vec<Complex<abc_float::ExtF64>>> = (0..8)
            .map(|k| sample(slots, k).iter().map(|z| z.lift_in(&fe)).collect())
            .collect();
        let serial = {
            let engine = SpecialFftEngine::with_threads(ExtF64Field, slots, 1);
            let mut b = batch0.clone();
            engine.inverse_batch(&mut b);
            b
        };
        let engine = SpecialFftEngine::with_threads(ExtF64Field, slots, 4);
        let mut b = batch0;
        engine.inverse_batch(&mut b);
        assert_eq!(b, serial);
    }

    #[test]
    fn pool_recycles_buffers() {
        let engine = SpecialFftEngine::with_threads(F64Field, 16, 1);
        let mut buf = engine.take_buf();
        buf[0] = Complex::new(1.0, -1.0);
        let ptr = buf.as_ptr();
        engine.recycle(buf);
        let again = engine.take_buf();
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(again.len(), 16);
        // Pooled buffers come back zeroed: encode pads unused slots with
        // exact zeros.
        assert_eq!(again[0], Complex::zero());
    }

    #[test]
    #[should_panic(expected = "length must equal slot count")]
    fn wrong_length_vector_panics() {
        let engine = SpecialFftEngine::with_threads(F64Field, 16, 1);
        let mut batch = vec![vec![Complex::zero(); 8]];
        engine.forward_batch(&mut batch);
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        // A worker that panics while holding the slot pool (the chaos
        // harness injects such panics) must not take encode / decode
        // away from the context: every pool entry point recovers.
        let engine = std::sync::Arc::new(SpecialFftEngine::with_threads(F64Field, 16, 1));
        engine.recycle(engine.take_buf());
        let worker = std::sync::Arc::clone(&engine);
        let poisoner = std::thread::spawn(move || {
            let _guard = worker.pool.lock().unwrap();
            panic!("poison the slot pool");
        });
        assert!(poisoner.join().is_err() && engine.pool.is_poisoned());
        assert_eq!(engine.pooled_bufs(), 1);
        let buf = engine.take_buf();
        assert_eq!((buf.len(), engine.pooled_bytes()), (16, 0));
        engine.recycle(buf);
        assert_eq!(engine.pooled_bufs(), 1);
    }

    #[test]
    fn pool_evicts_past_byte_watermark() {
        // 2^13 slots × 16 B = 128 KiB per buffer: 128 returned buffers
        // would retain 16 MiB without the byte cap; the watermark keeps
        // only MAX_POOLED_BYTES / 128 KiB = 32 of them.
        let slots = 1usize << 13;
        let engine = SpecialFftEngine::with_threads(F64Field, slots, 1);
        let bufs: Vec<_> = (0..128).map(|_| engine.take_buf()).collect();
        for b in bufs {
            engine.recycle(b);
        }
        assert!(engine.pooled_bytes() <= MAX_POOLED_BYTES);
        let per_buf = slots * core::mem::size_of::<Complex<f64>>();
        assert_eq!(engine.pooled_bufs(), MAX_POOLED_BYTES / per_buf);
        // Taking drains the accounting symmetrically.
        let b = engine.take_buf();
        assert_eq!(
            engine.pooled_bytes(),
            MAX_POOLED_BYTES / per_buf * per_buf - per_buf
        );
        engine.recycle(b);
    }
}
