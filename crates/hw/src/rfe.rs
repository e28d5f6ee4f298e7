//! The Fig. 6a optimization walk: how the Reconfigurable Fourier Engine's
//! area falls as the paper's three optimizations are applied.
//!
//! The comparison (paper §V-C) is for hardware producing **one FFT result
//! and four NTT results** per N/P cycles — the RFE's job during encoding.
//!
//! 1. **Baseline** — radix-2 pipelines with *separate* NTT and FFT
//!    engines; vanilla Montgomery modular multipliers.
//! 2. **+ TF scheduling** — merged radix-2^n twiddle scheduling removes
//!    the pre/post-processing multiplier columns (multiplier count drops
//!    to the theoretical minimum `P/2·log2 N`).
//! 3. **+ MontMul optimization** — NTT-friendly Montgomery multipliers
//!    (Table I: 11 328 µm² vs 19 255 µm²).
//! 4. **+ Reconfigurable** — the FFT engine is absorbed into the four
//!    PNLs (four modular multipliers gang into one complex FP multiply,
//!    Eq. 12) at a datapath-muxing overhead.
//!
//! Constants are calibrated so the final configuration equals the Table II
//! `4× PNL` area (10.717 mm²) and the total reduction is the paper's 31 %;
//! the *shape* of the walk then follows purely from the structural counts
//! in [`crate::radix`] and the Table I multiplier areas.

use crate::multiplier::MulAlgorithm;
use crate::radix::{MdcDesign, TransformKind};
use crate::AreaPower;

/// Lanes per pipeline (paper: P = 8 MDC backbone).
pub const LANES: u32 = 8;

/// NTT pipelines in one RFE (paper: 4 PNLs).
pub const PNL_COUNT: u32 = 4;

/// log2(N) at the evaluation point (N = 2^16).
pub const STAGES: u32 = 16;

/// Fixed (non-multiplier) area of the four-lane engine: shuffling FIFOs,
/// butterfly adders, commutators, control. Calibrated so configuration ④
/// equals the Table II `4× PNL` row.
pub const FIXED_AREA_MM2: f64 = 7.382;

/// Area of one complex FP55 multiplier (4 real multipliers + adders),
/// µm². Calibrated jointly with [`FIXED_AREA_MM2`].
pub const COMPLEX_FP_MULT_UM2: f64 = 21_000.0;

/// Datapath-muxing overhead of making the modular multipliers
/// reconfigurable into complex FP multipliers.
pub const RECONFIG_OVERHEAD: f64 = 1.15;

/// One step of the Fig. 6a walk.
#[derive(Debug, Clone, PartialEq)]
pub struct RfeStep {
    /// Step label (①–④ in the paper).
    pub label: String,
    /// Absolute area in mm².
    pub area_mm2: f64,
    /// Area relative to the baseline.
    pub relative: f64,
}

fn ntt_mult_count(merged: bool) -> f64 {
    let d = if merged {
        MdcDesign::radix_2n(STAGES)
    } else {
        MdcDesign::radix_2k(STAGES, 1)
    };
    d.multiplier_count(LANES, TransformKind::Ntt)
}

fn fft_mult_count(merged: bool) -> f64 {
    let d = if merged {
        MdcDesign::radix_2n(STAGES)
    } else {
        MdcDesign::radix_2k(STAGES, 1)
    };
    d.multiplier_count(LANES, TransformKind::Fft)
}

/// Computes the four-step Fig. 6a walk.
pub fn optimization_walk() -> Vec<RfeStep> {
    let um2 = 1e-6; // µm² → mm²
    let vanilla = MulAlgorithm::Montgomery.anchor_area_um2() * um2;
    let nttf = MulAlgorithm::NttFriendlyMontgomery.anchor_area_um2() * um2;
    let cfp = COMPLEX_FP_MULT_UM2 * um2;

    // ① Baseline: radix-2 unmerged, separate FFT engine, vanilla MontMul.
    let a1 = FIXED_AREA_MM2
        + PNL_COUNT as f64 * ntt_mult_count(false) * vanilla
        + fft_mult_count(false) * cfp;
    // ② Merged twiddle scheduling on both engines.
    let a2 = FIXED_AREA_MM2
        + PNL_COUNT as f64 * ntt_mult_count(true) * vanilla
        + fft_mult_count(true) * cfp;
    // ③ NTT-friendly Montgomery multipliers.
    let a3 = FIXED_AREA_MM2
        + PNL_COUNT as f64 * ntt_mult_count(true) * nttf
        + fft_mult_count(true) * cfp;
    // ④ Reconfigurable: FFT absorbed into the PNLs.
    let a4 = FIXED_AREA_MM2 + PNL_COUNT as f64 * ntt_mult_count(true) * nttf * RECONFIG_OVERHEAD;

    let steps = [
        ("1: baseline (radix-2, separate FFT/NTT)", a1),
        ("2: + twiddle-factor scheduling", a2),
        ("3: + NTT-friendly Montgomery", a3),
        ("4: + reconfigurable FFT/NTT", a4),
    ];
    steps
        .iter()
        .map(|(label, a)| RfeStep {
            label: (*label).to_owned(),
            area_mm2: *a,
            relative: *a / a1,
        })
        .collect()
}

/// Total area reduction of the full walk (paper: 31 %).
pub fn total_reduction() -> f64 {
    let walk = optimization_walk();
    1.0 - walk.last().expect("walk is non-empty").relative
}

/// Area/power estimate of the final RFE configuration (power scaled from
/// the Table II `4× PNL` row).
pub fn final_rfe() -> AreaPower {
    let area = optimization_walk().last().expect("non-empty").area_mm2;
    // Power tracks the Table II PNL row, scaled by area ratio.
    let table2 = AreaPower::new(10.717, 1.397);
    AreaPower::new(area, table2.power_w * area / table2.area_mm2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_monotone_decreasing() {
        let walk = optimization_walk();
        assert_eq!(walk.len(), 4);
        for w in walk.windows(2) {
            assert!(w[1].area_mm2 < w[0].area_mm2, "{w:?}");
        }
        assert_eq!(walk[0].relative, 1.0);
    }

    #[test]
    fn final_config_matches_table2_pnl_row() {
        let last = optimization_walk().pop_last_area();
        assert!((last - 10.717).abs() < 0.05, "final area = {last}");
    }

    #[test]
    fn total_reduction_near_31_percent() {
        let r = total_reduction();
        assert!((r - 0.31).abs() < 0.02, "reduction = {r}");
    }

    #[test]
    fn multiplier_counts_anchor() {
        // Structural counts feeding the walk: radix-2 NTT = 84,
        // merged = 64 (theoretical minimum), radix-2 FFT = 80.
        assert_eq!(ntt_mult_count(false), 84.0);
        assert_eq!(ntt_mult_count(true), 64.0);
        assert_eq!(fft_mult_count(false), 80.0);
        assert_eq!(fft_mult_count(true), 64.0);
    }

    trait PopLastArea {
        fn pop_last_area(self) -> f64;
    }

    impl PopLastArea for Vec<RfeStep> {
        fn pop_last_area(self) -> f64 {
            self.last().expect("non-empty").area_mm2
        }
    }
}
