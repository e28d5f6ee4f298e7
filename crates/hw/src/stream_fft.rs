//! Streaming dataflow for the CKKS special FFT — the RFE's complex mode.
//!
//! The reconfigurable engine runs the FFT through the *same* pipeline
//! skeleton as the NTT (paper §IV-A): butterfly columns with halving/
//! doubling delay buffers, with four modular multipliers ganged into one
//! complex multiplier. This module mirrors [`crate::stream`] for the
//! canonical-embedding transform: per-stage streaming operators whose
//! outputs are asserted identical to [`SpecialFft`].
//!
//! The streamer copies its per-stage twiddle columns from the planned
//! [`SpecialFft`] it is built from ([`SpecialFft::stage_twiddles`]) —
//! one table per (slots, datapath), shared by the in-place kernel, the
//! streaming model and the batch engine — so dataflow and reference are
//! twiddle-identical by construction on every datapath (FP64, FP55,
//! `ExtF64`).
//!
//! The bit-reversal permutation (front of the forward transform, back of
//! the inverse) is realized by a full reorder buffer — the hardware's
//! input/output shuffling network, with `slots` words of storage.

use abc_float::{Complex, F64Field, RealField};
use abc_transform::bitrev::bit_reverse_permute;
use abc_transform::SpecialFft;

/// One complex butterfly column as a streaming operator.
///
/// Unlike the NTT stage (one twiddle per *block*), the special FFT uses
/// one twiddle per *position inside the half-block*, shared by every
/// block of the stage.
#[derive(Debug, Clone)]
struct FftStreamStage<R> {
    /// Half-block span `t`.
    t: usize,
    /// Twiddles indexed by position within the half-block (length `t`).
    twiddles: Vec<Complex<R>>,
    delay: std::collections::VecDeque<Complex<R>>,
    reorder: std::collections::VecDeque<Complex<R>>,
    ready: std::collections::VecDeque<Complex<R>>,
    pos: usize,
}

impl<R: Copy> FftStreamStage<R> {
    fn new(twiddles: Vec<Complex<R>>) -> Self {
        Self {
            t: twiddles.len(),
            twiddles,
            delay: Default::default(),
            reorder: Default::default(),
            ready: Default::default(),
            pos: 0,
        }
    }

    /// Drains transient state so the column can stream a fresh vector
    /// (the twiddle ROM is permanent; only the delay/reorder buffers
    /// reset between transforms).
    fn reset(&mut self) {
        self.delay.clear();
        self.reorder.clear();
        self.ready.clear();
        self.pos = 0;
    }

    /// Cooley–Tukey column (forward direction): twiddle on the *input*
    /// of the second half, outputs `u ± v·w`.
    fn tick<F: RealField<Real = R>>(&mut self, f: &F, x: Option<Complex<R>>) -> Option<Complex<R>> {
        if let Some(x) = x {
            if self.pos < self.t {
                self.delay.push_back(x);
            } else {
                let u = self.delay.pop_front().expect("first half buffered");
                let w = self.twiddles[self.pos - self.t];
                let v = x.mul_in(f, w);
                self.ready.push_back(u.add_in(f, v));
                self.reorder.push_back(u.sub_in(f, v));
            }
            self.pos += 1;
            if self.pos == 2 * self.t {
                self.pos = 0;
                self.ready.append(&mut std::mem::take(&mut self.reorder));
            }
        }
        self.ready.pop_front()
    }

    /// Gentleman–Sande column (inverse direction): outputs `u + v` and
    /// `(u − v)·w`.
    fn tick_gs<F: RealField<Real = R>>(
        &mut self,
        f: &F,
        x: Option<Complex<R>>,
    ) -> Option<Complex<R>> {
        if let Some(x) = x {
            if self.pos < self.t {
                self.delay.push_back(x);
            } else {
                let u = self.delay.pop_front().expect("first half buffered");
                let w = self.twiddles[self.pos - self.t];
                self.ready.push_back(u.add_in(f, x));
                self.reorder.push_back(u.sub_in(f, x).mul_in(f, w));
            }
            self.pos += 1;
            if self.pos == 2 * self.t {
                self.pos = 0;
                self.ready.append(&mut std::mem::take(&mut self.reorder));
            }
        }
        self.ready.pop_front()
    }
}

/// A streaming special FFT (forward = decode direction), built over the
/// twiddle tables of a planned [`SpecialFft`].
///
/// # Example
///
/// ```
/// use abc_float::Complex;
/// use abc_hw::stream_fft::StreamingSpecialFft;
/// use abc_transform::SpecialFft;
///
/// let plan = SpecialFft::new(16);
/// let mut streamer = StreamingSpecialFft::new(&plan);
/// let vals: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
/// let streamed = streamer.forward(&vals);
/// let mut reference = vals.clone();
/// plan.forward(&mut reference);
/// for (a, b) in streamed.iter().zip(&reference) {
///     assert!(a.dist(*b) < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSpecialFft<F: RealField = F64Field> {
    field: F,
    slots: usize,
    /// Forward butterfly columns, execution order, twiddles copied from
    /// the plan **once** at construction (per-call work touches only
    /// the delay/reorder buffers).
    fwd_stages: Vec<FftStreamStage<F::Real>>,
    /// Inverse butterfly columns, execution order.
    inv_stages: Vec<FftStreamStage<F::Real>>,
}

impl<F: RealField> StreamingSpecialFft<F> {
    /// Builds the streamer for the same geometry *and twiddle table* as
    /// `plan` — no twiddle is ever regenerated.
    pub fn new(plan: &SpecialFft<F>) -> Self {
        let columns = |inverse| {
            plan.stage_twiddles(inverse)
                .iter()
                .map(|tw| FftStreamStage::new(tw.clone()))
                .collect()
        };
        Self {
            field: plan.field().clone(),
            slots: plan.slots(),
            fwd_stages: columns(false),
            inv_stages: columns(true),
        }
    }

    /// Slot count.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Reorder-buffer words of the input/output shuffling network.
    pub fn shuffle_buffer_words(&self) -> usize {
        self.slots
    }

    /// Streaming forward transform (decode direction): shuffle network →
    /// ascending-span butterfly columns.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        let mut permuted = vals.to_vec();
        bit_reverse_permute(&mut permuted);
        for s in self.fwd_stages.iter_mut() {
            s.reset();
        }
        run_stages(&self.field, &mut self.fwd_stages, &permuted, false)
    }

    /// Streaming inverse transform (encode direction): descending-span
    /// butterfly columns → shuffle network → `1/slots` scale.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        for s in self.inv_stages.iter_mut() {
            s.reset();
        }
        let mut out = run_stages(&self.field, &mut self.inv_stages, vals, true);
        bit_reverse_permute(&mut out);
        let f = &self.field;
        let scale = f.from_f64(1.0 / self.slots as f64);
        for v in out.iter_mut() {
            *v = v.scale_in(f, scale);
        }
        out
    }
}

/// Drives `input` through the butterfly columns, one sample per tick,
/// draining the pipeline tail with bubbles.
fn run_stages<F: RealField>(
    f: &F,
    stages: &mut [FftStreamStage<F::Real>],
    input: &[Complex<F::Real>],
    gs: bool,
) -> Vec<Complex<F::Real>> {
    let mut out = Vec::with_capacity(input.len());
    let feed = |x: Option<Complex<F::Real>>, stages: &mut [FftStreamStage<F::Real>]| {
        let mut carry = x;
        for s in stages.iter_mut() {
            carry = if gs {
                s.tick_gs(f, carry)
            } else {
                s.tick(f, carry)
            };
        }
        carry
    };
    for &x in input {
        if let Some(y) = feed(Some(x), stages) {
            out.push(y);
        }
    }
    while out.len() < input.len() {
        if let Some(y) = feed(None, stages) {
            out.push(y);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abc_float::{ExtF64Field, SoftFloatField};

    fn sample(slots: usize) -> Vec<Complex> {
        (0..slots)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.19).cos()))
            .collect()
    }

    #[test]
    fn streamed_forward_matches_plan_bit_exactly() {
        for slots in [2usize, 8, 64, 256] {
            let plan = SpecialFft::new(slots);
            let mut streamer = StreamingSpecialFft::new(&plan);
            let vals = sample(slots);
            let streamed = streamer.forward(&vals);
            let mut reference = vals.clone();
            plan.forward(&mut reference);
            // Same twiddle table, same butterfly arithmetic: the
            // dataflow is *bit-identical* to the in-place kernel.
            assert_eq!(streamed, reference, "slots={slots}");
        }
    }

    #[test]
    fn streamed_inverse_matches_plan_bit_exactly() {
        for slots in [2usize, 8, 64, 256] {
            let plan = SpecialFft::new(slots);
            let mut streamer = StreamingSpecialFft::new(&plan);
            let vals = sample(slots);
            let streamed = streamer.inverse(&vals);
            let mut reference = vals.clone();
            plan.inverse(&mut reference);
            assert_eq!(streamed, reference, "slots={slots}");
        }
    }

    #[test]
    fn streaming_roundtrip() {
        let plan = SpecialFft::new(128);
        let mut streamer = StreamingSpecialFft::new(&plan);
        let vals = sample(128);
        let back = streamer.forward(&streamer.clone().inverse(&vals));
        for (a, b) in back.iter().zip(&vals) {
            assert!(a.dist(*b) < 1e-9);
        }
    }

    #[test]
    fn reduced_precision_dataflow_matches_reduced_plan() {
        // The streaming pipeline must round in the same places as the
        // in-place kernel when both run on FP55.
        let plan = SpecialFft::with_field(SoftFloatField::fp55(), 64);
        let mut streamer = StreamingSpecialFft::new(&plan);
        let vals = sample(64);
        let streamed = streamer.forward(&vals);
        let mut reference = vals;
        plan.forward(&mut reference);
        assert_eq!(streamed, reference);
    }

    #[test]
    fn extended_precision_dataflow_matches_extended_plan() {
        let fe = ExtF64Field;
        let plan = SpecialFft::with_field(fe, 64);
        let mut streamer = StreamingSpecialFft::new(&plan);
        let vals: Vec<_> = sample(64).iter().map(|z| z.lift_in(&fe)).collect();
        let streamed = streamer.inverse(&vals);
        let mut reference = vals;
        plan.inverse(&mut reference);
        assert_eq!(streamed, reference);
    }

    #[test]
    fn shuffle_buffer_accounting() {
        let plan = SpecialFft::new(512);
        let streamer = StreamingSpecialFft::new(&plan);
        assert_eq!(streamer.shuffle_buffer_words(), 512);
        assert_eq!(streamer.slots(), 512);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        let plan = SpecialFft::new(8);
        let mut s = StreamingSpecialFft::new(&plan);
        s.forward(&sample(4));
    }
}
