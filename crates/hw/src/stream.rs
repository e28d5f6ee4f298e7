//! Functional model of the *streaming* pipelined NTT — the PNL dataflow.
//!
//! The in-place kernels of `abc_transform::ntt` compute the right answer
//! but say nothing about how a streaming pipeline computes it. This module
//! builds the pipeline: one stage object per butterfly column, each with
//! the delay buffer the MDC "2n FIFO / shuffling unit" realizes, each
//! consuming and producing **one coefficient per tick** once primed.
//! Feeding a polynomial through all `log2 N` stages produces exactly the
//! same output as [`NttPlan::forward`] — asserted by tests, on the plan's
//! table and on the on-the-fly generator alike —
//! while exposing the structural quantities the paper's hardware sizing
//! rests on: per-stage buffer depths halve from `N/2` down to `1`
//! (summing to `N−1` words per direction), and sustained throughput is
//! one transform per `N` ticks (`N/P` cycles with `P` lanes; the lane
//! parallelization is pure data partitioning and is accounted by
//! `abc-sim`).
//!
//! The stage emits the block's first-half outputs while the second-half
//! results wait in a reorder queue, so outputs leave in natural order —
//! functionally equivalent to the MDC's two-path commutator with the
//! reordering folded into the queue.

use crate::twiddle::TwiddleSource;
use abc_math::{MathError, Modulus};
use abc_transform::NttPlan;

/// One Cooley–Tukey butterfly column as a streaming operator.
#[derive(Debug, Clone)]
struct StreamStage {
    m: Modulus,
    /// Butterfly span `t` = half the block size at this stage.
    t: usize,
    /// Twiddles per group index (the stage's `ψ^{brv(m+i)}` sequence).
    twiddles: Vec<u64>,
    /// Delay buffer holding the block's first half (capacity `t`).
    delay: std::collections::VecDeque<u64>,
    /// Reorder queue holding computed outputs not yet emitted
    /// (capacity `t`, the second halves).
    reorder: std::collections::VecDeque<u64>,
    /// Ready outputs (first halves, emitted before the reorder queue
    /// drains).
    ready: std::collections::VecDeque<u64>,
    /// Position of the next input within the current block (0..2t).
    pos: usize,
    /// Group index within the whole transform (selects the twiddle).
    group: usize,
}

impl StreamStage {
    fn new(m: Modulus, t: usize, twiddles: Vec<u64>) -> Self {
        Self {
            m,
            t,
            twiddles,
            delay: Default::default(),
            reorder: Default::default(),
            ready: Default::default(),
            pos: 0,
            group: 0,
        }
    }

    /// Peak words this stage ever buffers (delay + reorder).
    fn buffer_words(&self) -> usize {
        2 * self.t
    }

    /// Pushes one coefficient in; returns one coefficient out once the
    /// stage is primed (`None` during the initial fill).
    fn tick(&mut self, x: u64) -> Option<u64> {
        if self.pos < self.t {
            // First half of the block: buffer only.
            self.delay.push_back(x);
        } else {
            // Second half: butterfly against the buffered partner.
            let u = self.delay.pop_front().expect("delay holds first half");
            let s = self.twiddles[self.group];
            let v = self.m.mul(x, s);
            self.ready.push_back(self.m.add(u, v));
            self.reorder.push_back(self.m.sub(u, v));
        }
        self.pos += 1;
        if self.pos == 2 * self.t {
            self.pos = 0;
            self.group += 1;
            if self.group == self.twiddles.len() {
                self.group = 0;
            }
            // Block complete: second halves become emittable after the
            // first halves.
            self.ready.append(&mut std::mem::take(&mut self.reorder));
        }
        self.ready.pop_front()
    }

    /// Drains remaining outputs after the input stream ends.
    fn drain(&mut self) -> Option<u64> {
        self.ready.pop_front()
    }
}

/// A full streaming forward NTT: `log2 N` chained butterfly columns.
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
    n: usize,
    stages: Vec<StreamStage>,
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
        let mut t = n / 2;
        while groups < n {
            let twiddles: Vec<u64> = (0..groups).map(|i| tw.forward(groups, i)).collect();
            stages.push(StreamStage::new(m, t, twiddles));
            groups <<= 1;
            t >>= 1;
        }
        Ok(Self { n, stages })
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
        self.stages.iter().map(|s| s.buffer_words()).sum()
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
        for s in &mut self.stages {
            s.delay.clear();
            s.reorder.clear();
            s.ready.clear();
            s.pos = 0;
            s.group = 0;
        }
        let mut out = Vec::with_capacity(self.n);
        // Feed every input tick, propagating through the chain.
        for &x in input {
            let mut carry = Some(x);
            for s in &mut self.stages {
                carry = match carry {
                    Some(v) => s.tick(v),
                    None => s.drain(),
                };
            }
            if let Some(y) = carry {
                out.push(y);
            }
        }
        // Drain the pipeline.
        while out.len() < self.n {
            let mut carry: Option<u64> = None;
            for s in &mut self.stages {
                carry = match carry {
                    Some(v) => s.tick(v),
                    None => s.drain(),
                };
            }
            if let Some(y) = carry {
                out.push(y);
            }
        }
        out
    }

    /// Latency in ticks from first input to first output (pipeline
    /// fill): the sum of per-stage spans, `N − 1`.
    pub fn fill_ticks(&self) -> usize {
        self.stages.iter().map(|s| s.t).sum()
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
}
