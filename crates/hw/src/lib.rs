//! The paper's hardware, as models: the crate holds everything that
//! models or checks ABC-FHE's accelerator and that a client's
//! encode → encrypt → decrypt → decode never runs. The product crates
//! (`abc-math`, `abc-transform`, `abc-ckks`, `abc-gateway`) do not
//! depend on it; it depends on them, to check its datapath models
//! against the kernels they model.
//!
//! **Datapath models** — functional, bit-exact against the product code:
//!
//! * [`twiddle`] — the unified on-the-fly twiddle generator (§IV-B),
//!   checked twiddle for twiddle against the NTT plan's table.
//! * [`stream`] — the RFE's streaming pipeline and its one stepped
//!   model: butterfly columns on `P` lanes as the NTT mode (`Z_q`) or the
//!   special-FFT mode (any datapath), equal to `NttPlan::forward` and
//!   `SpecialFft` output for output; its measured ticks check
//!   `abc_sim::pipeline`'s closed forms.
//! * [`reduce`] — the Table I reducers behind one strategy trait: the
//!   client's Barrett and Montgomery beside the NTT-friendly shift-add
//!   Montgomery.
//! * [`radix`] — MDC design enumeration and multiplier counts (Fig. 4).
//! * [`opcount`] — the client and server op counts of Fig. 2.
//!
//! **Cost models** — the paper evaluates area and power by synthesis
//! (Design Compiler); these modules substitute an **anchored analytical
//! model**: per-component constants are taken from the paper's published
//! synthesis results (Table I for modular multipliers, Table II for the
//! chip breakdown) and everything architectural — how multiplier counts,
//! optimization steps and configurations compose into chip area — is
//! computed structurally. That preserves exactly the conclusions the
//! paper draws from the numbers (the Fig. 6a optimization walk, the 6 %
//! generator overhead, the Table II totals) while being honest that
//! transistor-level values are inherited, not re-synthesized.
//!
//! * [`multiplier`] — Table I: Barrett / Montgomery / NTT-friendly
//!   Montgomery area at any datapath width.
//! * [`component`] — Table II leaf components and SRAM macro model.
//! * [`chip`] — composition to RSC and full-chip level (Table II).
//! * [`rfe`] — the Fig. 6a RFE area-optimization walk (−31 %).
//! * [`memory`] — §IV-B client memory accounting (16.5 MB pk, 8.25 MB
//!   masks/errors, 8.25 MB twiddles vs ~27 KB of seeds).
//! * [`scaling`] — DeepScaleTool-style 28 nm → 7 nm scaling
//!   (→ ≈0.9 mm², ≈2.1 W).
//! * [`dse`] — area/power of configurations the paper did not build.
//!
//! The cycle model of the same chip is `abc-sim`.

pub mod chip;
pub mod component;
pub mod dse;
pub mod memory;
pub mod multiplier;
pub mod opcount;
pub mod radix;
pub mod reduce;
pub mod rfe;
pub mod scaling;
pub mod stream;
pub mod twiddle;

/// Clock frequency of every synthesized number in this crate (Hz).
pub const CLOCK_HZ: f64 = 600e6;

/// Technology node of the anchor constants (nm).
pub const NODE_NM: u32 = 28;

/// An (area, power) pair: mm² and watts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaPower {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Power in watts.
    pub power_w: f64,
}

impl AreaPower {
    /// Creates a new pair.
    pub const fn new(area_mm2: f64, power_w: f64) -> Self {
        Self { area_mm2, power_w }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Self) -> Self {
        Self {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_w: self.power_w + other.power_w,
        }
    }

    /// Scales both members (e.g. for instance counts).
    pub fn times(self, k: f64) -> Self {
        Self {
            area_mm2: self.area_mm2 * k,
            power_w: self.power_w * k,
        }
    }
}

impl core::iter::Sum for AreaPower {
    fn sum<I: Iterator<Item = AreaPower>>(iter: I) -> Self {
        iter.fold(AreaPower::default(), AreaPower::plus)
    }
}

impl core::fmt::Display for AreaPower {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.3} mm², {:.3} W", self.area_mm2, self.power_w)
    }
}
