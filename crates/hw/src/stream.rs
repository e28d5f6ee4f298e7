//! Functional model of the RFE's *streaming* pipeline — the PNL dataflow
//! in both of its modes, and the one stepped model of the engine.
//!
//! The reconfigurable Fourier engine runs the NTT and the CKKS special
//! FFT through one pipeline skeleton (paper §IV-A): a chain of butterfly
//! columns on a `P`-lane multi-path delay commutator (the paper's PNL,
//! `P` = [`crate::rfe::LANES`] = 8), with four modular multipliers
//! ganged into one complex multiplier in the FFT mode. The model has one
//! private column type and one drive loop; a mode is a configuration of
//! them:
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
//! **Lanes and ticks.** A tick is one step of every column: the first
//! takes the next `P` samples, and each pushes what it was handed
//! through its butterfly one sample at a time, in order, then hands up
//! to `P` outputs on — so the outputs are the same at every `P` by
//! construction. Ticks count from 0, the tick the first sample enters.
//! [`Ticks`] are measured by stepping the columns, frames back to back
//! with no reset: a span `t ≥ P` delays the stream `t/P` ticks, so an
//! `N`-point transform's first output leaves in tick `N/P − 1` and a
//! frame issues every `N/P`. Butterflies take no ticks here;
//! `abc_sim::pipeline` adds the multiplier's depth per column.
//!
//! **Buffer accounting.** A span `t < P` holds no buffer: its blocks
//! arrive whole in one tick, so it is one of the MDC's in-register
//! stages (a debug assertion checks it is empty after every tick). The
//! spans `N/2 … P` buffer `2t` words each (delay + reorder), `2(N − P)`
//! in all. The FFT mode adds the bit-reversal permutation (front of the
//! forward transform, back of the inverse) as a full reorder buffer of
//! `slots` words, the hardware's shuffling network; it is not stepped.
//!
//! Both modes are bit-identical to the product kernels they model —
//! [`NttPlan::forward`] on the plan's table and on the on-the-fly
//! generator alike, and [`SpecialFft`] on every datapath (FP64, FP55,
//! `ExtF64`), whose per-stage twiddle columns the FFT mode copies
//! ([`SpecialFft::stage_twiddles`]) so dataflow and reference are
//! twiddle-identical by construction.
//!
//! [`NttPlan::forward`]: abc_transform::NttPlan::forward

use crate::twiddle::TwiddleSource;
use abc_float::{Complex, F64Field, RealField};
use abc_math::Modulus;
use abc_transform::bitrev::bit_reverse_permute;
use abc_transform::SpecialFft;
use std::collections::VecDeque;

/// Which twiddle a column's butterfly reads.
#[derive(Debug, Clone, Copy)]
enum Tap {
    /// One per block, indexed by the current block's place in the frame
    /// (wrapping at the ROM length, so frames stream back to back).
    PerBlock(usize),
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
        }
    }

    /// One tick: pushes the samples in `lane` (at most `lanes`) through
    /// the butterfly one at a time, in order, and refills `lane` with up
    /// to `lanes` outputs.
    fn tick(&mut self, lane: &mut Vec<T>, lanes: usize, butterfly: &impl Fn(T, T, T) -> (T, T)) {
        for x in lane.drain(..) {
            if self.pos < self.t {
                self.delay.push_back(x);
            } else {
                let u = self.delay.pop_front().expect("delay holds the first half");
                let w = self.twiddles[match self.tap {
                    Tap::PerBlock(block) => block,
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
                if let Tap::PerBlock(block) = &mut self.tap {
                    *block = (*block + 1) % self.twiddles.len();
                }
                self.ready.append(&mut self.reorder);
            }
        }
        lane.extend(self.ready.drain(..self.ready.len().min(lanes)));
        let registers = self.pos == 0 && self.ready.is_empty();
        debug_assert!(self.t >= lanes || registers, "a span under P held a sample");
    }
}

/// The outputs of a drive and, per frame, the tick its first output left.
type Streamed<T> = (Vec<T>, Vec<usize>);

/// A chain of columns streaming `frame`-sample frames on `lanes` lanes.
#[derive(Debug, Clone)]
struct Pipeline<T> {
    lanes: usize,
    frame: usize,
    columns: Vec<Column<T>>,
}

impl<T: Copy> Pipeline<T> {
    /// Panics unless `lanes` is a power of two no larger than `frame`.
    fn new(lanes: usize, frame: usize, columns: Vec<Column<T>>) -> Self {
        assert!(
            lanes.is_power_of_two() && lanes <= frame,
            "lanes must be a power of two no larger than the {frame}-sample frame, got {lanes}"
        );
        Self {
            lanes,
            frame,
            columns,
        }
    }

    /// Streams `input` — whole frames, back to back — `lanes` samples per
    /// tick, and drains the pipeline.
    fn drive(&mut self, input: &[T], butterfly: impl Fn(T, T, T) -> (T, T)) -> Streamed<T> {
        let mut feed = input.chunks(self.lanes);
        let mut out = Vec::with_capacity(input.len());
        let mut first_out = Vec::with_capacity(input.len() / self.frame);
        let mut lane = Vec::with_capacity(self.lanes);
        let mut tick = 0;
        while out.len() < input.len() {
            lane.extend_from_slice(feed.next().unwrap_or_default());
            for c in self.columns.iter_mut() {
                c.tick(&mut lane, self.lanes, &butterfly);
            }
            if out.len().next_multiple_of(self.frame) < out.len() + lane.len() {
                first_out.push(tick);
            }
            out.append(&mut lane);
            tick += 1;
        }
        (out, first_out)
    }
}

/// Tick counts of a pipeline, measured by stepping its columns (the
/// convention is in the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticks {
    /// Ticks from the first sample in to the first sample out.
    pub fill: usize,
    /// Ticks between the first outputs of two back-to-back frames.
    pub per_frame: usize,
}

impl Ticks {
    /// Reads the counts off the first-output ticks of two frames.
    fn of(first_out: &[usize]) -> Self {
        Self {
            fill: first_out[0],
            per_frame: first_out[1] - first_out[0],
        }
    }
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
/// let plan = NttPlan::new(Modulus::new(0xFFF0_0001)?, 16)?;
/// let mut streamer = StreamingNtt::new(&plan, 4);
/// let input: Vec<u64> = (0..16).collect();
/// let streamed = streamer.transform(&input);
/// let mut reference = input.clone();
/// plan.forward(&mut reference);
/// assert_eq!(streamed, reference);
/// // Spans 8 and 4 delay two ticks at four lanes; 2 and 1 are registers.
/// assert_eq!(streamer.ticks().fill, 16 / 4 - 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingNtt {
    m: Modulus,
    stages: Pipeline<u64>,
}

impl StreamingNtt {
    /// Builds a `lanes`-lane pipeline for the source's modulus and size,
    /// its twiddle ROMs read out of `tw` once.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two no larger than the
    /// source's size.
    pub fn new<T: TwiddleSource>(tw: &T, lanes: usize) -> Self {
        let n = tw.n();
        let mut stages = Vec::new();
        let mut groups = 1usize;
        while groups < n {
            let twiddles = (0..groups).map(|i| tw.forward(groups, i)).collect();
            stages.push(Column::new(n / (2 * groups), twiddles, Tap::PerBlock(0)));
            groups <<= 1;
        }
        Self {
            m: tw.modulus(),
            stages: Pipeline::new(lanes, n, stages),
        }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.stages.frame
    }

    /// Total delay-buffer words across the buffered columns — the
    /// paper's halving "2n FIFO" budget, `2(N − P)` words counting both
    /// queues (spans under `P` are registers).
    pub fn total_buffer_words(&self) -> usize {
        let Pipeline { lanes, columns, .. } = &self.stages;
        let buffered = columns.iter().filter(|c| c.t >= *lanes);
        buffered.map(|c| 2 * c.t).sum()
    }

    /// Streams polynomials through the pipeline, `P` coefficients per
    /// tick and frame after frame with no gap, and returns them
    /// transformed (natural emission order, frame by frame equal to
    /// [`NttPlan::forward`](abc_transform::NttPlan::forward)).
    ///
    /// # Panics
    ///
    /// Panics if the input length is not a positive multiple of `N`.
    pub fn transform(&mut self, input: &[u64]) -> Vec<u64> {
        assert!(
            !input.is_empty() && input.len().is_multiple_of(self.n()),
            "input length must be a positive multiple of N"
        );
        self.run(input).0
    }

    /// Fill and per-frame ticks, measured by streaming two frames.
    pub fn ticks(&mut self) -> Ticks {
        Ticks::of(&self.run(&vec![0; 2 * self.n()]).1)
    }

    fn run(&mut self, input: &[u64]) -> Streamed<u64> {
        let m = self.m;
        self.stages.drive(input, |u, x, w| {
            let v = m.mul(x, w);
            (m.add(u, v), m.sub(u, v))
        })
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
/// let mut streamer = StreamingSpecialFft::new(&plan, 4);
/// let vals: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
/// let streamed = streamer.forward(&vals);
/// let mut reference = vals.clone();
/// plan.forward(&mut reference);
/// assert_eq!(streamed, reference);
/// assert_eq!(streamer.ticks(false).per_frame, 16 / 4);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingSpecialFft<F: RealField = F64Field> {
    field: F,
    /// Forward columns in execution order, twiddles copied from the plan
    /// **once** at construction (per-call work touches only the queues).
    fwd_stages: Pipeline<Complex<F::Real>>,
    /// Inverse columns in execution order.
    inv_stages: Pipeline<Complex<F::Real>>,
}

impl<F: RealField> StreamingSpecialFft<F> {
    /// Builds a `lanes`-lane streamer (complex points per tick) for the
    /// same geometry *and twiddle table* as `plan` — no twiddle is ever
    /// regenerated.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is a power of two no larger than the slot
    /// count.
    pub fn new(plan: &SpecialFft<F>, lanes: usize) -> Self {
        let columns = |inverse| {
            let stages = plan.stage_twiddles(inverse).into_iter();
            let columns = stages.map(|tw| Column::new(tw.len(), tw, Tap::PerPosition));
            Pipeline::new(lanes, plan.slots(), columns.collect())
        };
        Self {
            field: plan.field().clone(),
            fwd_stages: columns(false),
            inv_stages: columns(true),
        }
    }

    /// Slot count.
    pub fn slots(&self) -> usize {
        self.fwd_stages.frame
    }

    /// Reorder-buffer words of the input/output shuffling network.
    pub fn shuffle_buffer_words(&self) -> usize {
        self.slots()
    }

    /// Streaming forward transform (decode direction): shuffle network →
    /// ascending-span Cooley–Tukey columns.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn forward(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots(), "length must equal slot count");
        let mut permuted = vals.to_vec();
        bit_reverse_permute(&mut permuted);
        self.run(false, &permuted).0
    }

    /// Streaming inverse transform (encode direction): descending-span
    /// Gentleman–Sande columns → shuffle network → `1/slots` scale.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != slots`.
    pub fn inverse(&mut self, vals: &[Complex<F::Real>]) -> Vec<Complex<F::Real>> {
        assert_eq!(vals.len(), self.slots(), "length must equal slot count");
        let mut out = self.run(true, vals).0;
        bit_reverse_permute(&mut out);
        let f = &self.field;
        let scale = f.from_f64(1.0 / vals.len() as f64);
        for v in out.iter_mut() {
            *v = v.scale_in(f, scale);
        }
        out
    }

    /// Fill and per-frame ticks of the forward (`inverse = false`) or
    /// inverse columns, measured by streaming two frames; the shuffle
    /// network is not stepped.
    pub fn ticks(&mut self, inverse: bool) -> Ticks {
        let zeros = vec![Complex::default(); 2 * self.slots()];
        Ticks::of(&self.run(inverse, &zeros).1)
    }

    fn run(&mut self, inverse: bool, vals: &[Complex<F::Real>]) -> Streamed<Complex<F::Real>> {
        let f = &self.field;
        if inverse {
            self.inv_stages.drive(vals, |u, x, w| {
                (u.add_in(f, x), u.sub_in(f, x).mul_in(f, w))
            })
        } else {
            self.fwd_stages.drive(vals, |u, x, w| {
                let v = x.mul_in(f, w);
                (u.add_in(f, v), u.sub_in(f, v))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twiddle::OtfTwiddleGen;
    use abc_transform::NttPlan;

    /// The lane counts every mode is checked at, down to the frame size.
    const LANES: [usize; 4] = [1, 2, 4, 8];

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
            let input = pseudo(n, m.q(), n as u64);
            let mut reference = input.clone();
            plan.forward(&mut reference);
            for lanes in LANES.into_iter().filter(|&p| p <= n) {
                let streamed = StreamingNtt::new(&plan, lanes).transform(&input);
                assert_eq!(streamed, reference, "n = {n}, P = {lanes}");
            }
        }
    }

    #[test]
    fn streaming_pipeline_reusable_back_to_back() {
        // Four frames stream with no gap and no reset, twice over; every
        // frame equals its own in-place transform.
        let m = modulus();
        let plan = NttPlan::new(m, 64).unwrap();
        let input: Vec<u64> = (1..5u64).flat_map(|seed| pseudo(64, m.q(), seed)).collect();
        let mut reference = input.clone();
        reference.chunks_exact_mut(64).for_each(|f| plan.forward(f));
        for lanes in LANES {
            let mut streamer = StreamingNtt::new(&plan, lanes);
            for pass in 0..2 {
                assert_eq!(
                    streamer.transform(&input),
                    reference,
                    "P = {lanes}, pass {pass}"
                );
            }
        }
    }

    #[test]
    fn works_with_otf_twiddles() {
        let m = modulus();
        let n = 128;
        let plan = NttPlan::new(m, n).unwrap();
        let otf = OtfTwiddleGen::with_psi(m, n, plan.table().psi()).unwrap();
        let input = pseudo(n, m.q(), 9);
        let mut reference = input.clone();
        plan.forward(&mut reference);
        for lanes in LANES {
            let streamed = StreamingNtt::new(&otf, lanes).transform(&input);
            assert_eq!(streamed, reference, "P = {lanes}");
        }
    }

    #[test]
    fn the_source_sets_size_and_modulus() {
        // A plan of another size or modulus is a different source, not a
        // mismatch the caller can write.
        let otf = OtfTwiddleGen::new(modulus(), 32).unwrap();
        let s = StreamingNtt::new(&otf, 1);
        assert_eq!((s.n(), s.stages.columns.len()), (32, 5));
        assert_eq!(s.m, modulus());
    }

    #[test]
    fn buffer_budget_is_two_n_minus_two() {
        // Spans halve per stage: Σ 2t = 2(N/2 + N/4 + … + 1) = 2(N−1),
        // the "2n FIFO" sizing the paper's shuffling units implement;
        // at P lanes the spans under P are registers, so 2(N − P).
        let m = modulus();
        for n in [8usize, 64, 512] {
            let plan = NttPlan::new(m, n).unwrap();
            for lanes in LANES {
                let s = StreamingNtt::new(&plan, lanes);
                assert_eq!(
                    s.total_buffer_words(),
                    2 * (n - lanes),
                    "n = {n}, P = {lanes}"
                );
                assert_eq!(s.stages.columns.len(), n.trailing_zeros() as usize);
            }
            assert_eq!(StreamingNtt::new(&plan, 1).ticks().fill, n - 1);
        }
    }

    #[test]
    fn measured_ticks_are_the_spans_at_or_over_p() {
        // A span t ≥ P delays its stream t/P ticks; shorter spans are
        // registers; a frame issues every N/P ticks.
        let m = modulus();
        for n in [8usize, 64, 1024] {
            let plan = NttPlan::new(m, n).unwrap();
            for lanes in LANES {
                let mut s = StreamingNtt::new(&plan, lanes);
                let spans = s.stages.columns.iter().filter(|c| c.t >= lanes);
                let fill = spans.map(|c| c.t / lanes).sum();
                let want = Ticks {
                    fill,
                    per_frame: n / lanes,
                };
                assert_eq!(s.ticks(), want, "n = {n}, P = {lanes}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length")]
    fn wrong_length_panics() {
        let plan = NttPlan::new(modulus(), 16).unwrap();
        StreamingNtt::new(&plan, 1).transform(&[1, 2, 3]);
    }

    #[test]
    fn rejects_degenerate_sizes() {
        // No lanes, a lane count that is not a power of two, and more
        // lanes than a frame has samples.
        let plan = NttPlan::new(modulus(), 16).unwrap();
        for lanes in [0, 3, 32] {
            let built = std::panic::catch_unwind(|| StreamingNtt::new(&plan, lanes));
            let panic = built.expect_err("degenerate lanes");
            let msg = panic.downcast_ref::<String>().unwrap();
            assert!(msg.starts_with("lanes must be a power of two"), "{msg}");
        }
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

        /// Streams `sample(slots)` one way at every lane count and
        /// demands the plan's bits.
        fn check<F: RealField>(field: F, slots: usize, inverse: bool) {
            let plan = SpecialFft::with_field(field.clone(), slots);
            let vals: Vec<_> = sample(slots).iter().map(|z| z.lift_in(&field)).collect();
            let mut reference = vals.clone();
            if inverse {
                plan.inverse(&mut reference);
            } else {
                plan.forward(&mut reference);
            }
            for lanes in LANES.into_iter().filter(|&p| p <= slots) {
                let mut streamer = StreamingSpecialFft::new(&plan, lanes);
                let streamed = if inverse {
                    streamer.inverse(&vals)
                } else {
                    streamer.forward(&vals)
                };
                // Same twiddle table, same butterfly arithmetic: the
                // dataflow is *bit-identical* to the in-place kernel.
                assert_eq!(streamed, reference, "slots={slots} P={lanes}");
            }
        }

        #[test]
        fn streamed_forward_matches_plan_bit_exactly() {
            for slots in [1usize, 2, 8, 64, 256] {
                check(F64Field, slots, false);
            }
        }

        #[test]
        fn streamed_inverse_matches_plan_bit_exactly() {
            for slots in [1usize, 2, 8, 64, 256] {
                check(F64Field, slots, true);
            }
        }

        #[test]
        fn streaming_roundtrip() {
            let plan = SpecialFft::new(128);
            let mut streamer = StreamingSpecialFft::new(&plan, 8);
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
            for inverse in [false, true] {
                check(SoftFloatField::fp55(), 64, inverse);
            }
        }

        #[test]
        fn extended_precision_dataflow_matches_extended_plan() {
            for inverse in [false, true] {
                check(ExtF64Field, 64, inverse);
            }
        }

        #[test]
        fn shuffle_buffer_accounting() {
            let plan = SpecialFft::new(512);
            let mut streamer = StreamingSpecialFft::new(&plan, 16);
            assert_eq!(streamer.shuffle_buffer_words(), 512);
            assert_eq!(streamer.slots(), 512);
            // Spans 256 … 16 delay 16 + 8 + 4 + 2 + 1 ticks in either
            // direction; the shuffle network is not stepped.
            for inverse in [false, true] {
                let want = Ticks {
                    fill: 31,
                    per_frame: 32,
                };
                assert_eq!(streamer.ticks(inverse), want, "inverse = {inverse}");
            }
        }

        #[test]
        #[should_panic(expected = "length")]
        fn wrong_length_panics() {
            let plan = SpecialFft::new(8);
            let mut s = StreamingSpecialFft::new(&plan, 2);
            s.forward(&sample(4));
        }
    }
}
