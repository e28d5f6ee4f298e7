//! The canonical-embedding FFT as a context holds it: one planned
//! [`SpecialFft`] plus a pool of reusable slot buffers.
//!
//! Every transform runs on the calling thread. The embedding FFT is a
//! few percent of an encode or decode, so neither a barrier per stage
//! nor a second thread per message pays for itself; the client
//! pipeline's parallelism is the limb fan-out of
//! [`crate::rns_ntt::RnsNttEngine`], and nothing here starts a thread.
//!
//! Scratch slot buffers are drawn from an internal pool and recycled, so
//! steady-state encode/decode performs no per-op slot allocation.

use crate::fft::SpecialFft;
use abc_float::{Complex, RealField};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Cap on pooled scratch buffers, bounding steady-state memory.
const MAX_POOLED_BUFS: usize = 64;

/// High-water cap on pooled scratch **bytes**: a burst of large-slot
/// requests must not pin peak memory forever, so buffers returned past
/// this watermark are dropped (evicted) instead of retained.
pub const MAX_POOLED_BYTES: usize = 1 << 22;

/// Scratch pool state: the buffers plus their retained byte total
/// (tracked so eviction is O(1) on return).
#[derive(Debug, Default)]
struct PoolState<R> {
    bufs: Vec<Vec<Complex<R>>>,
    bytes: usize,
}

/// Forward/inverse special FFT through one shared per-(slots, datapath)
/// [`SpecialFft`] plan, with pooled scratch.
///
/// # Example
///
/// ```
/// use abc_float::{Complex, F64Field};
/// use abc_transform::SpecialFftEngine;
///
/// let engine = SpecialFftEngine::new(F64Field, 16);
/// let mut vals = engine.take_buf();
/// for (i, v) in vals.iter_mut().enumerate() {
///     *v = Complex::new(i as f64, 0.0);
/// }
/// let original = vals.clone();
/// engine.inverse(&mut vals);
/// engine.forward(&mut vals);
/// for (a, b) in vals.iter().zip(&original) {
///     assert!(a.dist(*b) < 1e-12);
/// }
/// engine.recycle(vals);
/// ```
#[derive(Debug)]
pub struct SpecialFftEngine<F: RealField> {
    plan: SpecialFft<F>,
    pool: Mutex<PoolState<F::Real>>,
}

impl<F: RealField> SpecialFftEngine<F> {
    /// Builds an engine for `slots` slots on `field`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(field: F, slots: usize) -> Self {
        Self {
            plan: SpecialFft::with_field(field, slots),
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

    /// Always 1: every transform runs on the calling thread. Kept only
    /// because the reference benchmark records it in its result header;
    /// it goes when the benchmark stops reading it.
    pub fn threads(&self) -> usize {
        1
    }

    /// Forward transform of one vector through the shared plan.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.forward(vals);
    }

    /// Inverse transform of one vector through the shared plan.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&self, vals: &mut [Complex<F::Real>]) {
        self.plan.inverse(vals);
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
    /// are dropped instead — a burst of requests must not pin its peak
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::F64Field;

    #[test]
    fn pool_recycles_buffers() {
        let engine = SpecialFftEngine::new(F64Field, 16);
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
        let engine = SpecialFftEngine::new(F64Field, 16);
        engine.forward(&mut [Complex::zero(); 8]);
    }

    #[test]
    fn pool_survives_a_poisoned_lock() {
        // A worker that panics while holding the slot pool (the chaos
        // harness injects such panics) must not take encode / decode
        // away from the context: every pool entry point recovers.
        let engine = std::sync::Arc::new(SpecialFftEngine::new(F64Field, 16));
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
        let engine = SpecialFftEngine::new(F64Field, slots);
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
