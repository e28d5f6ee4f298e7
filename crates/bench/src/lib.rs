//! Reproduction harness: published comparator baselines and the report
//! generators behind the `figures` binary.
//!
//! The paper compares ABC-FHE against (a) a PC-grade CPU running Lattigo
//! (Intel i7-12700, one core), (b) the SOTA client-side accelerators
//! \[22\] (Aloha-HE, DATE'24) and \[34\] (TCAS-II'24), and (c), for the
//! system-level Fig. 1, the server-side accelerator \[9\] (Trinity). As
//! the paper itself does, comparator numbers are *published constants*
//! (normalized to 600 MHz and scaled to bootstrappable parameters); our
//! own contributions are the simulated ABC-FHE latencies and a measured
//! host-CPU run of the from-scratch Rust client.

use abc_sim::{simulate, SimConfig, Workload};
use std::time::{Duration, Instant};

pub mod fig1;
pub mod runner;

/// Samples a timing keeps at most, per body.
const MAX_SAMPLES: usize = 10_000;

/// Per-call seconds of each of `fs`, one sample of each per round, in
/// turn, until `budget` has passed and at least `min_rounds` rounds ran.
/// Bodies timed together see the same host load, so the ratio of their
/// medians is steadier than either median. A sample is one call, or —
/// for a body so short that 10 000 (`MAX_SAMPLES`) single calls would
/// not span the budget — a batch of calls, timed together and divided
/// by their count: each body's batch is sized from its fastest sample so
/// far to take about `budget / (K · MAX_SAMPLES)`, so the samples span
/// the budget instead of stopping at the cap a few milliseconds in.
/// Nothing is warmed up: the caller makes its own warm-up calls.
pub fn time_alternately<const K: usize>(
    budget: Duration,
    min_rounds: usize,
    mut fs: [&mut dyn FnMut(); K],
) -> [Vec<f64>; K] {
    let start = Instant::now();
    let per_sample = budget.as_secs_f64() / (K * MAX_SAMPLES) as f64;
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    let mut fastest = [f64::INFINITY; K];
    while (start.elapsed() < budget || samples[0].len() < min_rounds)
        && samples[0].len() < MAX_SAMPLES
    {
        for ((f, samples), fastest) in fs.iter_mut().zip(&mut samples).zip(&mut fastest) {
            let batch = (per_sample / *fastest).ceil().max(1.0) as u32;
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let secs = t.elapsed().as_secs_f64() / f64::from(batch);
            *fastest = fastest.min(secs);
            samples.push(secs);
        }
    }
    samples
}

/// The `ps` quantiles of `samples`, each interpolated linearly between
/// the two nearest ranks: the median of an even count is the mean of
/// its two middle samples. The one statistic of every timing here.
pub fn quantiles<const K: usize>(samples: &[f64], ps: [f64; K]) -> [f64; K] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let last = sorted.len() - 1;
    ps.map(|p| {
        let rank = p * last as f64;
        let below = rank.floor() as usize;
        sorted[below] + rank.fract() * (sorted[(below + 1).min(last)] - sorted[below])
    })
}

/// Paper speed-up constants (Fig. 5a).
pub mod speedups {
    /// Encode+encrypt vs CPU (Intel i7-12700, Lattigo, 1 core).
    pub const ENC_VS_CPU: f64 = 1112.0;
    /// Encode+encrypt vs the best prior client-side accelerator.
    pub const ENC_VS_SOTA: f64 = 214.0;
    /// Decode+decrypt vs CPU.
    pub const DEC_VS_CPU: f64 = 963.0;
    /// Decode+decrypt vs the best prior client-side accelerator.
    pub const DEC_VS_SOTA: f64 = 82.0;
}

/// One comparator row of Fig. 5a.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Platform label.
    pub platform: String,
    /// Encode+encrypt latency (ms).
    pub enc_ms: f64,
    /// Decode+decrypt latency (ms).
    pub dec_ms: f64,
    /// Source of the number.
    pub source: &'static str,
}

/// Builds the Fig. 5a latency table: ABC-FHE from our cycle simulator,
/// comparators from the paper's published speed-ups, and optionally a
/// measured host-CPU row appended by the caller.
pub fn fig5a_rows(cfg: &SimConfig) -> Vec<LatencyRow> {
    let abc_enc = simulate(&Workload::encode_encrypt(16, 24), cfg).time_ms;
    let abc_dec = simulate(&Workload::decode_decrypt(16, 2), cfg).time_ms;
    vec![
        LatencyRow {
            platform: "CPU (i7-12700, Lattigo, 1 core)".into(),
            enc_ms: abc_enc * speedups::ENC_VS_CPU,
            dec_ms: abc_dec * speedups::DEC_VS_CPU,
            source: "paper speed-up x simulated ABC-FHE",
        },
        LatencyRow {
            platform: "SOTA client accel [22]/[34] (600 MHz norm.)".into(),
            enc_ms: abc_enc * speedups::ENC_VS_SOTA,
            dec_ms: abc_dec * speedups::DEC_VS_SOTA,
            source: "paper speed-up x simulated ABC-FHE",
        },
        LatencyRow {
            platform: "ABC-FHE (this work, cycle simulator)".into(),
            enc_ms: abc_enc,
            dec_ms: abc_dec,
            source: "abc-sim",
        },
    ]
}

/// Formats a float with engineering-friendly precision.
pub fn fmt_ms(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders a simple ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    line(
        &mut out,
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
    );
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_table_structure() {
        let rows = fig5a_rows(&SimConfig::paper_default());
        assert_eq!(rows.len(), 3);
        // CPU slowest, ABC fastest, with the paper's exact ratios.
        let cpu = &rows[0];
        let sota = &rows[1];
        let abc = &rows[2];
        assert!((cpu.enc_ms / abc.enc_ms - 1112.0).abs() < 1e-6);
        assert!((sota.dec_ms / abc.dec_ms - 82.0).abs() < 1e-6);
        assert!(cpu.enc_ms > sota.enc_ms && sota.enc_ms > abc.enc_ms);
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("a    bb"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        // An even count: the median is the mean of the middle two, not
        // either one of them.
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantiles(&samples, [0.0, 0.5, 1.0]), [1.0, 2.5, 4.0]);
        assert_eq!(quantiles(&samples, [0.25, 0.75]), [1.75, 3.25]);
        assert_eq!(quantiles(&[7.0], [0.5, 0.95]), [7.0, 7.0]);
    }

    #[test]
    fn short_bodies_are_timed_in_batches_that_span_the_budget() {
        // A body of ≈ 100 ns: 10 000 single calls would end the timing
        // after about a millisecond of a 50 ms budget.
        let mut calls = 0u64;
        let mut body = || {
            calls += 1;
            let mut x = calls;
            for _ in 0..100 {
                x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (x >> 7));
            }
            std::hint::black_box(x);
        };
        let start = Instant::now();
        let [samples] = time_alternately(Duration::from_millis(50), 5, [&mut body]);
        let spanned = start.elapsed();
        assert!(spanned >= Duration::from_millis(40), "spanned {spanned:?}");
        assert!(samples.len() <= MAX_SAMPLES);
        // Samples are per call, not per batch.
        let per_call = spanned.as_secs_f64() / calls as f64;
        let [median] = quantiles(&samples, [0.5]);
        assert!(
            median < 4.0 * per_call,
            "median {median:e} vs {per_call:e} a call"
        );
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(fmt_ms(123.4), "123");
        assert_eq!(fmt_ms(12.345), "12.35");
        assert_eq!(fmt_ms(0.12345), "0.1235");
    }
}
