//! Modular-multiplier area model (paper Table I) — the one statement
//! of each algorithm's multiplier count and pipeline depth; the
//! functional reducers they describe are [`crate::reduce`]'s.
//!
//! Anchor points: 44-bit datapath, 28 nm, 600 MHz —
//! Barrett 35 054 µm² / 4 stages, vanilla Montgomery 19 255 µm² /
//! 3 stages, NTT-friendly Montgomery 11 328 µm² / 3 stages. Other widths
//! scale quadratically (array-multiplier area ∝ width²).

/// The three modular-multiplication algorithms of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulAlgorithm {
    /// Textbook Barrett reduction (3 multipliers, deepest pipeline).
    Barrett,
    /// Vanilla Montgomery REDC (3 multipliers).
    Montgomery,
    /// The paper's shift-and-add Montgomery for structured primes
    /// (1 multiplier + two CSD adder networks).
    NttFriendlyMontgomery,
}

/// Datapath width the Table I anchors were synthesized at.
pub const ANCHOR_BITS: u32 = 44;

impl MulAlgorithm {
    /// All algorithms, in Table I order.
    pub const ALL: [MulAlgorithm; 3] = [
        MulAlgorithm::Barrett,
        MulAlgorithm::Montgomery,
        MulAlgorithm::NttFriendlyMontgomery,
    ];

    /// Synthesized area at the 44-bit anchor (µm², Table I).
    pub fn anchor_area_um2(self) -> f64 {
        match self {
            MulAlgorithm::Barrett => 35054.0,
            MulAlgorithm::Montgomery => 19255.0,
            MulAlgorithm::NttFriendlyMontgomery => 11328.0,
        }
    }

    /// Pipeline depth in cycles at 600 MHz (Table I).
    pub fn pipeline_stages(self) -> u32 {
        match self {
            MulAlgorithm::Barrett => 4,
            MulAlgorithm::Montgomery | MulAlgorithm::NttFriendlyMontgomery => 3,
        }
    }

    /// True integer multipliers inside the unit (the quantity the
    /// shift-and-add optimization removes).
    pub fn multiplier_count(self) -> u32 {
        match self {
            MulAlgorithm::Barrett | MulAlgorithm::Montgomery => 3,
            MulAlgorithm::NttFriendlyMontgomery => 1,
        }
    }

    /// Area at an arbitrary datapath width (µm²), quadratic scaling from
    /// the anchor.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 64.
    pub fn area_um2(self, bits: u32) -> f64 {
        assert!((1..=64).contains(&bits), "datapath width out of range");
        let ratio = bits as f64 / ANCHOR_BITS as f64;
        self.anchor_area_um2() * ratio * ratio
    }

    /// Human-readable name matching Table I.
    pub fn name(self) -> &'static str {
        match self {
            MulAlgorithm::Barrett => "Vanilla Barrett",
            MulAlgorithm::Montgomery => "Vanilla Montgomery",
            MulAlgorithm::NttFriendlyMontgomery => "NTT-Friendly Montgomery",
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Area in µm² at the 44-bit anchor.
    pub area_um2: f64,
    /// Pipeline stages.
    pub stages: u32,
}

/// Regenerates Table I.
pub fn table1() -> Vec<Table1Row> {
    MulAlgorithm::ALL
        .iter()
        .map(|&a| Table1Row {
            algorithm: a.name(),
            area_um2: a.anchor_area_um2(),
            stages: a.pipeline_stages(),
        })
        .collect()
}

/// Area reduction of `b` relative to `a`, as a fraction in `[0, 1)`.
pub fn area_reduction(a: MulAlgorithm, b: MulAlgorithm) -> f64 {
    1.0 - b.anchor_area_um2() / a.anchor_area_um2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].area_um2, 35054.0);
        assert_eq!(rows[1].area_um2, 19255.0);
        assert_eq!(rows[2].area_um2, 11328.0);
        assert_eq!(rows[0].stages, 4);
        assert_eq!(rows[2].stages, 3);
    }

    #[test]
    fn paper_reduction_percentages() {
        // Paper §IV-A: 67.7 % vs Barrett, 41.2 % vs vanilla Montgomery.
        let vs_barrett = area_reduction(MulAlgorithm::Barrett, MulAlgorithm::NttFriendlyMontgomery);
        let vs_mont = area_reduction(
            MulAlgorithm::Montgomery,
            MulAlgorithm::NttFriendlyMontgomery,
        );
        assert!((vs_barrett - 0.677).abs() < 0.002, "{vs_barrett}");
        assert!((vs_mont - 0.412).abs() < 0.002, "{vs_mont}");
    }

    #[test]
    fn quadratic_width_scaling() {
        let a = MulAlgorithm::Montgomery;
        assert_eq!(a.area_um2(44), a.anchor_area_um2());
        assert!((a.area_um2(22) - a.anchor_area_um2() / 4.0).abs() < 1e-9);
        assert!(a.area_um2(64) > a.area_um2(44));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        MulAlgorithm::Barrett.area_um2(0);
    }
}
