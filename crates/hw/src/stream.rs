//! Functional model of the RFE's *streaming* pipeline — the PNL dataflow
//! in both of its modes.
//!
//! The reconfigurable Fourier engine runs the NTT and the CKKS special
//! FFT through one pipeline skeleton (paper §IV-A): a chain of butterfly
//! columns, each consuming and producing **one sample per tick** once
//! primed, with four modular multipliers ganged into one complex
//! multiplier in the FFT mode. The model has one private column type and
//! one drive loop; a mode is a configuration of them:
//!
//! | mode | samples | butterfly | twiddle read |
//! |---|---|---|---|
//! | [`StreamingNtt`] | `Z_q` | Cooley–Tukey `(u + w·x, u − w·x)` | one per block (the merged `ψ^{brv(m+i)}` schedule) |
//! | [`StreamingSpecialFft::forward`] | `Complex<F::Real>` | Cooley–Tukey | one per position inside the half-block |
//! | [`StreamingSpecialFft::inverse`] | `Complex<F::Real>` | Gentleman–Sande `(u + x, (u − x)·w)` | one per position inside the half-block |
//!
//! A column of span `t` buffers the first half of each `2t`-sample block
//! in a delay queue (the MDC "2n FIFO / shuffling unit"), butterflies the
//! second half against it, and emits the block's first-half outputs
//! while the second halves wait in a reorder queue — the MDC's two-path
//! commutator with the reordering folded into the queue, so outputs
//! leave in natural order.
//!
//! **Buffer accounting.** Spans halve from `N/2` down to `1`, so the
//! columns buffer `Σ 2t = 2(N−1)` words (delay + reorder) and the
//! pipeline fills in `N − 1` ticks; sustained throughput is one
//! transform per `N` ticks (`N/P` cycles with `P` lanes — the lane
//! parallelization is pure data partitioning and is accounted by
//! `abc-sim`). The FFT mode adds the bit-reversal permutation (front of
//! the forward transform, back of the inverse) as a full reorder buffer
//! of `slots` words, the hardware's input/output shuffling network.
//!
//! Both modes are bit-identical to the product kernels they model —
//! [`NttPlan::forward`] on the plan's table and on the on-the-fly
//! generator alike, and [`SpecialFft`] on every datapath (FP64, FP55,
//! `ExtF64`), whose per-stage twiddle columns the FFT mode copies
//! ([`SpecialFft::stage_twiddles`]) so dataflow and reference are
//! twiddle-identical by construction.

use crate::twiddle::TwiddleSource;
use abc_float::{Complex, F64Field, RealField};
use abc_math::{MathError, Modulus};
use abc_transform::bitrev::bit_reverse_permute;
use abc_transform::{NttPlan, SpecialFft};
use std::collections::VecDeque;

/// Which twiddle a column's butterfly reads.
#[derive(Debug, Clone, Copy)]
enum Tap {
    /// One per block, indexed by the block's place in the transform.
    PerBlock,
    /// One per position inside the half-block, shared by every block.
    PerPosition,
}

/// One butterfly column as a streaming operator. The butterfly itself
/// is handed to [`Column::tick`] as `(u, x, w) ↦ (first, second)`.
#[derive(Debug, Clone)]
struct Column<T> {
    /// Butterfly span `t` = half the block size at this column.
    t: usize,
    /// The column's twiddle ROM, read as `tap` says.
    twiddles: Vec<T>,
    tap: Tap,
    /// Delay buffer holding the block's first half (capacity `t`).
    delay: VecDeque<T>,
    /// Second-half outputs waiting for the first halves to leave.
    reorder: VecDeque<T>,
    /// Outputs ready to emit.
    ready: VecDeque<T>,
    /// Position of the next input within the current block (0..2t).
    pos: usize,
    /// Index of the current block within the transform.
    block: usize,
}

impl<T: Copy> Column<T> {
    fn new(t: usize, twiddles: Vec<T>, tap: Tap) -> Self {
        Self {
            t,
            twiddles,
            tap,
            delay: VecDeque::new(),
            reorder: VecDeque::new(),
            ready: VecDeque::new(),
            pos: 0,
            block: 0,
        }
    }

    /// Clears the transient state so the column can stream a fresh
    /// vector (the twiddle ROM is permanent).
    fn reset(&mut self) {
        self.delay.clear();
        self.reorder.clear();
        self.ready.clear();
        self.pos = 0;
        self.block = 0;
    }

    /// Pushes one sample in (`None` is a bubble while the pipeline
    /// drains); returns one sample out once the column is primed.
    fn tick(&mut self, x: Option<T>, butterfly: impl Fn(T, T, T) -> (T, T)) -> Option<T> {
        if let Some(x) = x {
            if self.pos < self.t {
                self.delay.push_back(x);
            } else {
                let u = self.delay.pop_front().expect("delay holds the first half");
                let w = self.twiddles[match self.tap {
                    Tap::PerBlock => self.block,
                    Tap::PerPosition => self.pos - self.t,
                }];
                let (first, second) = butterfly(u, x, w);
                self.ready.push_back(first);
                self.reorder.push_back(second);
            }
            self.pos += 1;
            if self.pos == 2 * self.t {
                // Block complete: its second halves leave after its
                // first halves.
                self.pos = 0;
                self.block += 1;
                self.ready.append(&mut self.reorder);
            }
        }
        self.ready.pop_front()
    }
}

/// Streams `input` through `columns`, one sample per tick, and drains
/// the pipeline tail with bubbles.
fn drive<T: Copy>(
    columns: &mut [Column<T>],
    input: &[T],
    butterfly: impl Fn(T, T, T) -> (T, T),
) -> Vec<T> {
    columns.iter_mut().for_each(Column::reset);
    let mut feed = input.iter().copied();
    let mut out = Vec::with_capacity(input.len());
    while out.len() < input.len() {
        let mut carry = feed.next();
        for c in columns.iter_mut() {
            carry = c.tick(carry, &butterfly);
        }
        out.extend(carry);
    }
    out
}

/// The RFE in NTT mode: a full streaming forward NTT of `log2 N`
/// chained Cooley–Tukey columns over `Z_q`.
///
/// # Example
///
/// ```
/// use abc_hw::stream::StreamingNtt;
/// use abc_math::Modulus;
/// use abc_transform::NttPlan;
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let m = Modulus::new(0xFFF0_0001)?;
/// let plan = NttPlan::new(m, 16)?;
/// let mut streamer = StreamingNtt::from_plan(&plan)?;
/// let input: Vec<u64> = (0..16).collect();
/// let streamed = streamer.transform(&input);
/// let mut reference = input.clone();
/// plan.forward(&mut reference);
/// assert_eq!(streamed, reference);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingNtt {
    m: Modulus,
    n: usize,
    stages: Vec<Column<u64>>,
}

impl StreamingNtt {
    /// Builds the pipeline from a plan's modulus/size/twiddles.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] if the plan size is below 2
    /// (no stages).
    pub fn from_plan(plan: &NttPlan) -> Result<Self, MathError> {
        Self::new(*plan.modulus(), plan.n(), plan)
    }

    /// Builds the pipeline from any twiddle source.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidModulus`] for sizes below 2.
    pub fn new<T: TwiddleSource>(m: Modulus, n: usize, tw: &T) -> Result<Self, MathError> {
        if n < 2 || !n.is_power_of_two() {
            return Err(MathError::InvalidModulus(n as u64));
        }
        let mut stages = Vec::new();
        let mut groups = 1usize;
        while groups < n {
            let twiddles = (0..groups).map(|i| tw.forward(groups, i)).collect();
            stages.push(Column::new(n / (2 * groups), twiddles, Tap::PerBlock));
            groups <<= 1;
        }
        Ok(Self { m, n, stages })
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of butterfly columns (`log2 N`).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total delay-buffer words across all stages — the paper's halving
    /// "2n FIFO" budget (`2(N−1)` words counting both queues).
    pub fn total_buffer_words(&self) -> usize {
        self.stages.iter().map(|s| 2 * s.t).sum()
    }

    /// Streams a polynomial through the pipeline, one coefficient per
    /// tick, and returns the transformed polynomial (natural emission
    /// order, matching [`NttPlan::forward`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != N`.
    pub fn transform(&mut self, input: &[u64]) -> Vec<u64> {
        assert_eq!(input.len(), self.n, "input length must equal N");
        let m = self.m;
        drive(&mut self.stages, input, |u, x, w| {
            let v = m.mul(x, w);
            (m.add(u, v), m.sub(u, v))
        })
    }

    /// Latency in ticks from first input to first output (pipeline
    /// fill): the sum of per-stage spans, `N − 1`.
    pub fn fill_ticks(&self) -> usize {
        self.stages.iter().map(|s| s.t).sum()
    }
}

/// The RFE in FFT mode: a streaming special FFT (forward = decode
/// direction) over the twiddle tables of a planned [`SpecialFft`].
///
/// # Example
///
/// ```
/// use abc_float::Complex;
/// use abc_hw::stream::StreamingSpecialFft;
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
    /// Forward columns in execution order, twiddles copied from the plan
    /// **once** at construction (per-call work touches only the queues).
    fwd_stages: Vec<Column<Complex<F::Real>>>,
    /// Inverse columns in execution order.
    inv_stages: Vec<Column<Complex<F::Real>>>,
}

impl<F: RealField> StreamingSpecialFft<F> {
    /// Builds the streamer for the same geometry *and twiddle table* as
    /// `plan` — no twiddle is ever regenerated.
    pub fn new(plan: &SpecialFft<F>) -> Self {
        let columns = |inverse| {
            plan.stage_twiddles(inverse)
                .into_iter()
                .map(|tw| Column::new(tw.len(), tw, Tap::PerPosition))
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
    /// ascending-span Cooley–Tukey columns.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        let mut permuted = vals.to_vec();
        bit_reverse_permute(&mut permuted);
        let f = &self.field;
        drive(&mut self.fwd_stages, &permuted, |u, x, w| {
            let v = x.mul_in(f, w);
            (u.add_in(f, v), u.sub_in(f, v))
        })
    }

    /// Streaming inverse transform (encode direction): descending-span
    /// Gentleman–Sande columns → shuffle network → `1/slots` scale.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots, "length must equal slot count");
        let f = &self.field;
        let mut out = drive(&mut self.inv_stages, vals, |u, x, w| {
            (u.add_in(f, x), u.sub_in(f, x).mul_in(f, w))
        });
        bit_reverse_permute(&mut out);
        let scale = f.from_f64(1.0 / self.slots as f64);
        for v in out.iter_mut() {
            *v = v.scale_in(f, scale);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twiddle::OtfTwiddleGen;

    fn modulus() -> Modulus {
        Modulus::new(0xFFF0_0001).unwrap()
    }

    fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x % q
            })
            .collect()
    }

    #[test]
    fn streamed_equals_in_place_for_many_sizes() {
        let m = modulus();
        for n in [2usize, 4, 8, 32, 256, 1024] {
            let plan = NttPlan::new(m, n).unwrap();
            let mut streamer = StreamingNtt::from_plan(&plan).unwrap();
            let input = pseudo(n, m.q(), n as u64);
            let streamed = streamer.transform(&input);
            let mut reference = input.clone();
            plan.forward(&mut reference);
            assert_eq!(streamed, reference, "n = {n}");
        }
    }

    #[test]
    fn streaming_pipeline_reusable_back_to_back() {
        let m = modulus();
        let plan = NttPlan::new(m, 64).unwrap();
        let mut streamer = StreamingNtt::from_plan(&plan).unwrap();
        for seed in 1..5u64 {
            let input = pseudo(64, m.q(), seed);
            let mut reference = input.clone();
            plan.forward(&mut reference);
            assert_eq!(streamer.transform(&input), reference, "seed {seed}");
        }
    }

    #[test]
    fn works_with_otf_twiddles() {
        let m = modulus();
        let n = 128;
        let plan = NttPlan::new(m, n).unwrap();
        let otf = OtfTwiddleGen::with_psi(m, n, plan.table().psi()).unwrap();
        let mut streamer = StreamingNtt::new(m, n, &otf).unwrap();
        let input = pseudo(n, m.q(), 9);
        let mut reference = input.clone();
        plan.forward(&mut reference);
        assert_eq!(streamer.transform(&input), reference);
    }

    #[test]
    fn buffer_budget_is_two_n_minus_two() {
        // Spans halve per stage: Σ 2t = 2(N/2 + N/4 + … + 1) = 2(N−1),
        // the "2n FIFO" sizing the paper's shuffling units implement.
        let m = modulus();
        for n in [8usize, 64, 512] {
            let plan = NttPlan::new(m, n).unwrap();
            let s = StreamingNtt::from_plan(&plan).unwrap();
            assert_eq!(s.total_buffer_words(), 2 * (n - 1), "n = {n}");
            assert_eq!(s.stage_count(), n.trailing_zeros() as usize);
            assert_eq!(s.fill_ticks(), n - 1);
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        let m = modulus();
        let plan = NttPlan::new(m, 16).unwrap();
        let mut s = StreamingNtt::from_plan(&plan).unwrap();
        s.transform(&[1, 2, 3]);
    }

    #[test]
    fn rejects_degenerate_sizes() {
        let m = modulus();
        let plan = NttPlan::new(m, 16).unwrap();
        assert!(StreamingNtt::new(m, 1, &plan).is_err());
        assert!(StreamingNtt::new(m, 12, &plan).is_err());
    }

    /// The FFT mode, against the planned special FFT.
    mod fft {
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
}
