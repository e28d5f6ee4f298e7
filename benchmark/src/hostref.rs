//! The host-speed reference: a fixed piece of integer work that belongs
//! to the benchmark, run between ops, so timings taken on a host whose
//! speed changes from second to second can be compared.
//!
//! The build box is a 2-vCPU guest on a shared socket. Its cores switch
//! between an uncontended and a contended state (a neighbour on the
//! sibling hyperthread) many times a second and stay mostly in one or
//! the other for minutes: the same op reads 16 ms or 26 ms, CPU time
//! included, and no percentile of a 15 s run is the same run to run.
//! The reference sees the same states. Every timed stretch of ops sits
//! between two slices of it, and the end-to-end timings are scaled by
//! [`NOMINAL_MS`] ÷ the mean of those two slices: they read as on a
//! host on which a slice takes [`NOMINAL_MS`]. Raw timings stay in the
//! result file, and per-layer metrics are never scaled.
//!
//! The work is scalar multiply-reduce butterflies over 512 KiB per CPU:
//! early stages stride through L2, late ones stay in L1, as the
//! library's own transforms do. It does not change with the library, so
//! parent and change are scaled by the same yardstick. A slice is one
//! pass and starts with its lane out of L2 (every op here streams
//! several times the 4 MiB) and in L3: timing a second, L2-warm pass
//! instead was tried, and a purely core-bound slice slows more under
//! contention than the ops do, so the scaled timings leaned further.

use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on the build box when nothing contends.
pub const NOMINAL_MS: f64 = 1.25;

/// Words per lane: 2^16 × 8 B = 512 KiB, an eighth of a core's L2.
const LOG_LEN: u32 = 16;
const Q: u64 = 0x0fff_ffff_fffc_0001;

/// x·w folded below 2^61 and reduced once: the shape of a word-sized
/// modular multiply. Only the cost matters; the arithmetic wraps.
#[inline(always)]
fn mul_fold(x: u64, w: u64) -> u64 {
    let p = x as u128 * w as u128;
    let hi = (p >> 60) as u64;
    let lo = p as u64 & ((1 << 60) - 1);
    let r = lo.wrapping_add(hi.wrapping_mul(0x3_ffff));
    if r >= Q {
        r - Q
    } else {
        r
    }
}

/// All `LOG_LEN` radix-2 stages over `buf`, widest first.
fn butterflies(buf: &mut [u64]) {
    let mut half = buf.len() / 2;
    let mut w = 5u64;
    while half >= 1 {
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = mul_fold(*b, w);
                let (s, d) = (a.wrapping_add(t), a.wrapping_sub(t).wrapping_add(Q));
                *a = if s >= Q { s - Q } else { s };
                *b = if d >= Q { d - Q } else { d };
            }
        }
        w = mul_fold(w, w) | 1;
        half /= 2;
    }
}

/// The slices taken along a timed loop. Stretch `k` is the ops between
/// slice `k` and slice `k + 1`.
pub struct Slices {
    /// One buffer per CPU: a slice keeps every core busy at once, as a
    /// threaded op does, so it sees the state of each.
    lanes: Vec<Vec<u64>>,
    ms: Vec<f64>,
    /// CPU seconds the slices used (every lane runs unpreempted for
    /// about its own wall time), to be taken off a loop's CPU time.
    cpu_s: f64,
}

impl Default for Slices {
    fn default() -> Self {
        Self::new()
    }
}

impl Slices {
    pub fn new() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let lane: Vec<u64> = (0..1u64 << LOG_LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % Q)
            .collect();
        let mut slices = Self {
            lanes: vec![lane; cpus],
            ms: Vec::new(),
            cpu_s: 0.0,
        };
        // Page the buffers in.
        slices.run_ms();
        slices
    }

    /// Runs the work once on every CPU at the same time; the mean of the
    /// lanes' times, in ms.
    fn run_ms(&mut self) -> f64 {
        let timed = |lane: &mut Vec<u64>| {
            let t = Instant::now();
            butterflies(black_box(lane));
            t.elapsed().as_secs_f64() * 1e3
        };
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = rest.iter_mut().map(|l| s.spawn(|| timed(l))).collect();
            let own = timed(first);
            own + others
                .into_iter()
                .map(|h| h.join().expect("a reference lane panicked"))
                .sum::<f64>()
        });
        total / self.lanes.len() as f64
    }

    /// Takes a slice: ends the current stretch, if any, and opens the
    /// next.
    pub fn take(&mut self) {
        let ms = self.run_ms();
        self.cpu_s += ms * self.lanes.len() as f64 / 1e3;
        self.ms.push(ms);
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_s
    }

    pub fn ms(&self) -> &[f64] {
        &self.ms
    }
}

/// The factor that scales a timing taken during stretch `k`, given the
/// slices around it.
pub fn factor(slice_ms: &[f64], k: usize) -> f64 {
    NOMINAL_MS / ((slice_ms[k] + slice_ms[k + 1]) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed_and_every_lane_does_it() {
        let (mut a, mut b) = (Slices::new(), Slices::new());
        a.take();
        b.take();
        assert!(a.ms()[0] > 0.0 && a.cpu_s() > 0.0);
        // Same start, same number of slices: same words, on every lane.
        assert_eq!(a.lanes, b.lanes);
        assert!(a.lanes.iter().all(|l| l == &a.lanes[0]));
        let before = a.lanes[0].clone();
        a.take();
        assert_ne!(a.lanes[0], before, "a slice rewrites its buffer");
        assert_eq!(a.ms().len(), 2);
    }

    #[test]
    fn factor_is_nominal_over_the_mean_of_the_two_slices_around() {
        let ms = [NOMINAL_MS, NOMINAL_MS, 3.0 * NOMINAL_MS];
        assert_eq!(factor(&ms, 0), 1.0);
        assert_eq!(factor(&ms, 1), 0.5);
    }
}
