//! The canonical-embedding FFT as a context holds it: one planned
//! [`SpecialFft`].
//!
//! The engine's two transforms run on the calling thread, and nothing
//! here starts a thread. Decode's forward transform does not go through
//! them: it runs [`SpecialFft::forward_split`] on the plan, across the
//! process's fan-out ([`crate::fanout`]) at the `RnsNttEngine`'s thread
//! count — two half-size sub-transforms, then the last pass cut by
//! butterfly range, bit-identical to the serial transform. Serial, the
//! forward transform was 0.31–0.40 ms of a 1.0–1.25 ms `download_n16`
//! op at two threads (≈ 30 %). Encode's inverse transform stays serial.
//!
//! The engine keeps no memory of its own: a slot vector belongs to its
//! caller (encode quantizes straight off it, decode returns it), and the
//! AVX-512 kernel's split planes are one limb of the process-wide limb
//! pool ([`crate::pool`]).

use crate::fft::SpecialFft;
use abc_float::{Complex, RealField};

/// Forward/inverse special FFT through one shared per-(slots, datapath)
/// [`SpecialFft`] plan.
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
/// ```
#[derive(Debug)]
pub struct SpecialFftEngine<F: RealField> {
    plan: SpecialFft<F>,
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
        }
    }

    /// The shared plan (twiddle tables included).
    pub fn plan(&self) -> &SpecialFft<F> {
        &self.plan
    }

    /// Always 1: the engine's transforms run on the calling thread (a
    /// caller that splits the forward one passes its own thread count to
    /// [`SpecialFft::forward_split`]). Kept only because the reference
    /// benchmark records it in its result header; it goes when the
    /// benchmark stops reading it.
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

    /// A fresh zeroed slot vector of length `slots` — encode relies on
    /// the zeros to pad a short message.
    pub fn take_buf(&self) -> Vec<Complex<F::Real>> {
        vec![Complex::default(); self.plan.slots()]
    }

    /// Drops `buf`: the engine keeps no memory. Kept only because the
    /// reference benchmark calls it; it goes when the benchmark stops.
    pub fn recycle(&self, buf: Vec<Complex<F::Real>>) {
        drop(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::F64Field;

    #[test]
    fn take_buf_hands_out_a_zeroed_slots_long_vector() {
        // Encode pads the slots past the message with these zeros.
        let engine = SpecialFftEngine::new(F64Field, 16);
        let mut buf = engine.take_buf();
        buf[0] = Complex::new(1.0, -1.0);
        engine.recycle(buf);
        let again = engine.take_buf();
        assert_eq!(again, vec![Complex::zero(); 16]);
    }

    #[test]
    #[should_panic(expected = "length must equal slot count")]
    fn wrong_length_vector_panics() {
        let engine = SpecialFftEngine::new(F64Field, 16);
        engine.forward(&mut [Complex::zero(); 8]);
    }
}
