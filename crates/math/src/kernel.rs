//! The kernel ladder: the one selection spine shared by the NTT
//! butterflies, the dyadic (element-wise) engine, the CRT lift and the
//! special FFT.
//!
//! Every layer has the same two rungs, and a constructor that takes a
//! [`KernelTier`] and degrades it downward by the capability facts only
//! that layer knows:
//!
//! | tier | NTT (`NttPlan`) | dyadic ([`crate::dyadic::DyadicEngine`]) | CRT lift ([`crate::rns::WordLift`]) | FFT (`SpecialFft`) |
//! |---|---|---|---|---|
//! | [`Simd`](KernelTier::Simd) | `ifma` — `q < 2^50`, `N ≥ 16`, AVX-512IFMA | `ifma` (products and RNS expansion) — `q < 2^50`, AVX-512IFMA | `ifma` (and decode's scale division on AVX-512F) — every `q < 2^50`, AVX-512IFMA | `avx512` — `F64Field`, `slots ≥ 8`, AVX-512F |
//! | [`Scalar`](KernelTier::Scalar) | `harvey` | `montgomery` (expansion: `SignedCoeffs`' scalar loop) | `scalar` | `scalar` |
//!
//! Both rungs of a layer are **bit-identical**, so a tier only changes
//! speed. The property suites pin them against each layer's oracle,
//! which is not a rung: `NttPlan::{forward_golden, inverse_golden}`,
//! the [`crate::Modulus`] ops, the big-integer
//! [`crate::RnsBasis::combine_centered_big_with_product`] (with
//! `ScaleDivisor::apply_u128` for the division), and
//! `SpecialFft::{forward_otf, inverse_otf}`. [`CpuCaps::detect`] is the workspace's only runtime
//! CPU-feature probe, and [`KERNEL_ENV`] its only kernel override.

use core::fmt;
use std::sync::OnceLock;

/// Environment variable overriding the tier of everything built with
/// [`KernelTier::Auto`]: `auto`, `simd` or `scalar` (case-insensitive;
/// blank means `auto`).
///
/// Explicit tiers are never overridden and capability degradation
/// still applies. CI sets `scalar` to run tier-1 down the non-SIMD
/// paths on AVX-512 hosts.
pub const KERNEL_ENV: &str = "ABC_FHE_KERNEL";

/// Which rung of the kernel ladder a plan or engine is asked for. A
/// rung the layer cannot run degrades to the next one down; each
/// layer's `kernel_name()` says where it landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelTier {
    /// The fastest applicable rung, honouring [`KERNEL_ENV`].
    #[default]
    Auto,
    /// The AVX-512 vector kernels.
    Simd,
    /// The portable fast kernels (lazy-reduction Harvey butterflies,
    /// scalar Montgomery, planned-twiddle FFT), always applicable.
    Scalar,
}

impl KernelTier {
    /// Parses a [`KERNEL_ENV`] value. `None`, empty and blank mean
    /// [`KernelTier::Auto`]; anything unrecognized is an error, which
    /// [`KernelTier::or_env`] turns into a loud panic rather than
    /// silently mis-dispatching a forced-tier CI run.
    fn parse(raw: Option<&str>) -> Result<Self, String> {
        let raw = raw.unwrap_or("");
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(Self::Auto),
            "simd" => Ok(Self::Simd),
            "scalar" => Ok(Self::Scalar),
            _ => Err(format!(
                "{KERNEL_ENV} must be auto|simd|scalar, got {raw:?}"
            )),
        }
    }

    /// [`KernelTier::Auto`] takes the [`KERNEL_ENV`] override (and stays
    /// `Auto` when there is none); an explicit tier is returned as is,
    /// without reading the environment.
    ///
    /// # Panics
    ///
    /// Panics if the override does not parse.
    pub fn or_env(self) -> Self {
        match self {
            Self::Auto => Self::from_raw(std::env::var(KERNEL_ENV).ok().as_deref()),
            forced => forced,
        }
    }

    /// The panicking half of [`KernelTier::or_env`], apart from the
    /// environment read so a test can feed it garbage without setting
    /// the variable under concurrently running tests.
    fn from_raw(raw: Option<&str>) -> Self {
        Self::parse(raw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Walks down the ladder from this tier to the first rung the
    /// caller can run: `simd_ok` is the layer's own capability fact (CPU
    /// feature, modulus width, size, datapath); the scalar rung always
    /// applies. Never returns `Auto`.
    pub fn degrade(self, simd_ok: bool) -> Self {
        match self {
            Self::Auto | Self::Simd if simd_ok => Self::Simd,
            _ => Self::Scalar,
        }
    }
}

impl fmt::Display for KernelTier {
    /// The tier's name — the one `KernelTier::parse` accepts for it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Auto => "auto",
            Self::Simd => "simd",
            Self::Scalar => "scalar",
        })
    }
}

/// The CPU features the SIMD rungs need, probed once per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCaps {
    /// AVX-512 Foundation — enough for the f64 FFT butterflies.
    pub avx512f: bool,
    /// AVX-512 IFMA (`vpmadd52{lo,hi}uq`), on top of `avx512f`.
    pub(crate) avx512ifma: bool,
}

impl CpuCaps {
    /// The features of the CPU this process runs on (all `false` off
    /// x86-64). Every safe entry point of a `#[target_feature]` kernel
    /// asserts the field it needs from here, and `abc-analysis`
    /// (`simd-gating`) checks that it does.
    pub fn detect() -> Self {
        static CAPS: OnceLock<CpuCaps> = OnceLock::new();
        *CAPS.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            let (avx512f, avx512ifma) = (
                std::arch::is_x86_feature_detected!("avx512f"),
                std::arch::is_x86_feature_detected!("avx512ifma"),
            );
            #[cfg(not(target_arch = "x86_64"))]
            let (avx512f, avx512ifma) = (false, false);
            Self {
                avx512f,
                avx512ifma,
            }
        })
    }

    /// Whether the IFMA NTT and dyadic kernels can run (they use both
    /// feature sets).
    pub fn ifma(self) -> bool {
        self.avx512f && self.avx512ifma
    }
}

impl fmt::Display for CpuCaps {
    /// `avx512f+avx512ifma`, `avx512f`, or `none`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match (self.avx512f, self.avx512ifma) {
            (true, true) => "avx512f+avx512ifma",
            (true, false) => "avx512f",
            (false, true) => "avx512ifma",
            (false, false) => "none",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::KernelTier::{Auto, Scalar, Simd};
    use super::*;

    #[test]
    fn parse_accepts_three_tiers_and_rejects_reference_and_garbage() {
        assert_eq!(KernelTier::parse(None), Ok(Auto));
        for (raw, want) in [
            ("", Auto),
            ("  ", Auto),
            (" Auto ", Auto),
            ("SIMD", Simd),
            ("Scalar\n", Scalar),
        ] {
            assert_eq!(KernelTier::parse(Some(raw)), Ok(want), "{raw:?}");
        }
        // Each parseable tier prints as the name it parses from.
        for tier in [Auto, Simd, Scalar] {
            assert_eq!(KernelTier::parse(Some(&tier.to_string())), Ok(tier));
        }
        // Neither `reference` nor a layer's kernel name is a tier; the
        // error names the values that are.
        for garbage in [
            "reference",
            "ifma",
            "harvey",
            "montgomery",
            "avx512",
            "golden",
            "2",
        ] {
            let err = KernelTier::parse(Some(garbage)).unwrap_err();
            assert!(err.contains(KERNEL_ENV) && err.contains(garbage), "{err}");
            assert!(err.contains("auto|simd|scalar,"), "{err}");
            // What every `with_kernel` constructor does with it.
            assert!(std::panic::catch_unwind(|| KernelTier::from_raw(Some(garbage))).is_err());
        }
    }

    #[test]
    fn caps_print_their_feature_names() {
        let caps = |avx512f, avx512ifma| CpuCaps {
            avx512f,
            avx512ifma,
        };
        assert_eq!(caps(true, true).to_string(), "avx512f+avx512ifma");
        assert_eq!(caps(true, false).to_string(), "avx512f");
        assert_eq!(caps(false, false).to_string(), "none");
        assert!(caps(true, true).ifma() && !caps(true, false).ifma() && !caps(false, true).ifma());
    }
}
