//! CKKS parameter sets, including the paper's bootstrappable regime.
//!
//! The embedding FFT's datapath is not a parameter: every context
//! encodes and decodes on FP64, and [`crate::precision`] measures other
//! datapaths (the paper's FP55, double-double `ExtF64`) per call.

use crate::CkksError;

/// How RNS primes map to the encoding scale.
///
/// CKKS wants every rescale to divide the scale by ≈Δ, which normally
/// forces the primes to be ≈Δ-sized. NTT-friendliness caps the usable
/// prime width at 36 bits for `N = 2^16`, yet a 36-bit Δ cannot hold the
/// paper's 19.29-bit precision floor at that ring size (fresh noise
/// ∝ √N eats into it). The paper's **double-scale technique** (§II-B,
/// ref \[1\]) squares the scale instead of the primes: encode at
/// Δ_eff = Δ² = 2^72 and consume the primes in adjacent *pairs* — each
/// multiplicative level drops two ≈2^36 primes, dividing the scale by
/// ≈2^72 while every individual prime stays NTT-friendly at 36 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScaleMode {
    /// One prime per level; the encoding scale is `2^scale_bits`.
    #[default]
    Single,
    /// Adjacent prime *pairs* per level; the effective encoding scale is
    /// `2^(2·scale_bits)` (Δ_eff = 2^72 at the paper's parameters) and
    /// rescaling drops two primes at a time.
    DoublePair,
}

impl ScaleMode {
    /// RNS primes consumed per multiplicative level (1 or 2).
    pub(crate) fn primes_per_level(&self) -> usize {
        match self {
            ScaleMode::Single => 1,
            ScaleMode::DoublePair => 2,
        }
    }
}

/// Validated CKKS client-side parameters.
///
/// The paper's evaluation setting (§V-B): `N = 2^16`, 36-bit primes under
/// the double-scale technique \[1\] (level count doubled from 12 to 24),
/// encryption at 24 levels, decryption of 2-level ciphertexts.
///
/// # Example
///
/// ```
/// use abc_ckks::params::CkksParams;
///
/// # fn main() -> Result<(), abc_ckks::CkksError> {
/// let p = CkksParams::bootstrappable(16)?;
/// assert_eq!(p.n(), 1 << 16);
/// assert_eq!(p.num_primes(), 24);
/// assert_eq!(p.prime_bits(), 36);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CkksParams {
    log_n: u32,
    num_primes: usize,
    prime_bits: u32,
    scale_bits: u32,
    scale_mode: ScaleMode,
    secret_hamming_weight: Option<usize>,
}

impl CkksParams {
    /// Starts building a parameter set.
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::default()
    }

    /// The paper's bootstrappable preset for `log_n ∈ 13..=16`: 24
    /// 36-bit primes consumed in pairs ([`ScaleMode::DoublePair`], so
    /// Δ_eff = 2^72 over 12 multiplicative levels), σ = 3.2, sparse
    /// ternary secret (h = 192). The double scale is what holds the
    /// paper's 19.29-bit precision floor at `N = 2^16`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if `log_n` is outside
    /// `13..=16`.
    pub fn bootstrappable(log_n: u32) -> Result<Self, CkksError> {
        if !(13..=16).contains(&log_n) {
            return Err(CkksError::InvalidParams(format!(
                "bootstrappable parameters require log_n in 13..=16, got {log_n}"
            )));
        }
        Self::builder()
            .log_n(log_n)
            .num_primes(24)
            .prime_bits(36)
            .scale_bits(36)
            .scale_mode(ScaleMode::DoublePair)
            .build()
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// `log2(N)`.
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Number of message slots (`N/2`).
    pub fn slots(&self) -> usize {
        1 << (self.log_n - 1)
    }

    /// Number of RNS primes (the maximum ciphertext level + 1).
    pub fn num_primes(&self) -> usize {
        self.num_primes
    }

    /// Bit width of each RNS prime.
    pub fn prime_bits(&self) -> u32 {
        self.prime_bits
    }

    /// The *effective* encoding scale: `2^scale_bits` in
    /// [`ScaleMode::Single`], `2^(2·scale_bits)` in
    /// [`ScaleMode::DoublePair`].
    pub fn scale(&self) -> f64 {
        2f64.powi(self.effective_scale_bits() as i32)
    }

    /// `log2` of the effective encoding scale
    /// (`scale_bits · primes_per_level`; 72 under the double scale).
    pub(crate) fn effective_scale_bits(&self) -> u32 {
        self.scale_bits * self.scale_mode.primes_per_level() as u32
    }

    /// How primes map to levels ([`ScaleMode`]).
    pub(crate) fn scale_mode(&self) -> ScaleMode {
        self.scale_mode
    }

    /// Multiplicative levels the modulus supports: `num_primes` divided
    /// by the primes each level consumes (the paper's 24 primes are 12
    /// double-scale levels).
    pub fn multiplicative_levels(&self) -> usize {
        self.num_primes / self.scale_mode.primes_per_level()
    }

    /// Error distribution width σ: 3.2, the one value every parameter
    /// set runs.
    pub fn error_sigma(&self) -> f64 {
        3.2
    }

    /// Secret-key sparsity (`None` = dense ternary).
    pub fn secret_hamming_weight(&self) -> Option<usize> {
        self.secret_hamming_weight
    }

    /// Total ciphertext modulus bits at the top level
    /// (`num_primes · prime_bits`, approximately).
    pub fn modulus_bits(&self) -> u32 {
        self.num_primes as u32 * self.prime_bits
    }

    /// Bit width of the level-0 prime `q₀`: `prime_bits` plus 3 bits of
    /// headroom above the scale, capped at 61 — the width
    /// [`crate::CkksContext::new`] generates `q₀` at.
    pub(crate) fn head_prime_bits(&self) -> u32 {
        (self.prime_bits + 3).min(61)
    }

    /// Per-prime residue bit widths of the basis these parameters
    /// generate — the v3 wire packing schedule, derivable without a
    /// built context: `q₀` is `prime_bits + 3` wide (61 at most), the
    /// rest `prime_bits`. Matches [`crate::CkksContext::wire_widths`] for a
    /// context built from these parameters.
    ///
    /// # Panics
    ///
    /// Panics if `primes` is zero or exceeds `num_primes`.
    pub fn residue_widths(&self, primes: usize) -> Vec<u32> {
        assert!(
            primes >= 1 && primes <= self.num_primes,
            "prime count {primes} out of range 1..={}",
            self.num_primes
        );
        std::iter::once(self.head_prime_bits())
            .chain(std::iter::repeat(self.prime_bits))
            .take(primes)
            .collect()
    }
}

/// Builder for [`CkksParams`].
#[derive(Debug, Clone)]
pub struct CkksParamsBuilder {
    log_n: u32,
    num_primes: usize,
    prime_bits: u32,
    scale_bits: u32,
    scale_mode: ScaleMode,
    secret_hamming_weight: Option<usize>,
}

impl Default for CkksParamsBuilder {
    fn default() -> Self {
        Self {
            log_n: 14,
            num_primes: 24,
            prime_bits: 36,
            scale_bits: 36,
            scale_mode: ScaleMode::Single,
            secret_hamming_weight: Some(192),
        }
    }
}

impl CkksParamsBuilder {
    /// Sets `log2(N)` (ring degree exponent), `2..=17`.
    pub fn log_n(mut self, log_n: u32) -> Self {
        self.log_n = log_n;
        self
    }

    /// Sets the number of RNS primes (1..=64).
    pub fn num_primes(mut self, num_primes: usize) -> Self {
        self.num_primes = num_primes;
        self
    }

    /// Sets the prime bit width (20..=60).
    pub fn prime_bits(mut self, prime_bits: u32) -> Self {
        self.prime_bits = prime_bits;
        self
    }

    /// Sets `log2` of the per-prime scale.
    pub fn scale_bits(mut self, scale_bits: u32) -> Self {
        self.scale_bits = scale_bits;
        self
    }

    /// Sets the prime-to-level mapping ([`ScaleMode`]).
    pub fn scale_mode(mut self, mode: ScaleMode) -> Self {
        self.scale_mode = mode;
        self
    }

    /// Sets the secret-key Hamming weight (`None` for dense ternary).
    pub fn secret_hamming_weight(mut self, h: Option<usize>) -> Self {
        self.secret_hamming_weight = h;
        self
    }

    /// Validates and produces the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] for out-of-range fields or
    /// inconsistent combinations (e.g. a Hamming weight above `N`, or a
    /// scale too large for the top-level modulus).
    pub fn build(self) -> Result<CkksParams, CkksError> {
        if !(2..=17).contains(&self.log_n) {
            return Err(CkksError::InvalidParams(format!(
                "log_n must be in 2..=17, got {}",
                self.log_n
            )));
        }
        if self.num_primes == 0 || self.num_primes > 64 {
            return Err(CkksError::InvalidParams(format!(
                "num_primes must be in 1..=64, got {}",
                self.num_primes
            )));
        }
        if !(20..=60).contains(&self.prime_bits) {
            return Err(CkksError::InvalidParams(format!(
                "prime_bits must be in 20..=60, got {}",
                self.prime_bits
            )));
        }
        if self.scale_bits == 0 || self.scale_bits > self.prime_bits {
            return Err(CkksError::InvalidParams(format!(
                "scale_bits must be in 1..=prime_bits ({}), got {}",
                self.prime_bits, self.scale_bits
            )));
        }
        if self.prime_bits <= self.log_n + 1 {
            return Err(CkksError::InvalidParams(format!(
                "prime_bits ({}) must exceed log_n + 1 ({}) for 2N-th roots to exist",
                self.prime_bits,
                self.log_n + 1
            )));
        }
        if let Some(h) = self.secret_hamming_weight {
            if h == 0 || h > (1 << self.log_n) {
                return Err(CkksError::InvalidParams(format!(
                    "secret hamming weight {h} out of range for N = {}",
                    1u64 << self.log_n
                )));
            }
        }
        if self.scale_mode == ScaleMode::DoublePair && !self.num_primes.is_multiple_of(2) {
            return Err(CkksError::InvalidParams(format!(
                "double-scale pairing requires an even prime count, got {}",
                self.num_primes
            )));
        }
        Ok(CkksParams {
            log_n: self.log_n,
            num_primes: self.num_primes,
            prime_bits: self.prime_bits,
            scale_bits: self.scale_bits,
            scale_mode: self.scale_mode,
            secret_hamming_weight: self.secret_hamming_weight,
        })
    }
}

/// Environment variable overriding the ring-degree exponent in examples
/// and smoke tests (`ABC_FHE_LOG_N=10` shrinks every demo to CI size).
const LOG_N_ENV: &str = "ABC_FHE_LOG_N";

/// Parses a raw `ABC_FHE_LOG_N` value: `None` or an empty/whitespace
/// string yields `default`; a valid exponent in the builder's `2..=17`
/// range yields that exponent.
///
/// Pure so it is testable without mutating process environment — env
/// readers go through [`log_n_from_env`].
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] naming the variable and the
/// offending value for anything else (garbage, out-of-range) — a typo'd
/// override must never silently fall back to the default and report
/// figures for the wrong ring degree.
fn parse_log_n_override(raw: Option<&str>, default: u32) -> Result<u32, CkksError> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(default);
    }
    match trimmed.parse::<u32>() {
        Ok(log_n) if (2..=17).contains(&log_n) => Ok(log_n),
        _ => Err(CkksError::InvalidParams(format!(
            "{LOG_N_ENV}={raw:?} is not a ring-degree exponent in 2..=17 \
             (unset it or pass e.g. {LOG_N_ENV}=10)"
        ))),
    }
}

/// Reads the `ABC_FHE_LOG_N` override from the process environment,
/// falling back to `default` when unset or blank.
///
/// # Errors
///
/// Returns [`CkksError::InvalidParams`] for unparseable values and for
/// exponents outside `2..=17`.
pub fn log_n_from_env(default: u32) -> Result<u32, CkksError> {
    parse_log_n_override(std::env::var(LOG_N_ENV).ok().as_deref(), default)
}

#[cfg(test)]
mod env_tests {
    use super::*;

    #[test]
    fn unset_or_blank_falls_back_to_default() {
        assert_eq!(parse_log_n_override(None, 12).expect("default"), 12);
        assert_eq!(parse_log_n_override(Some(""), 13).expect("blank"), 13);
        assert_eq!(parse_log_n_override(Some("  "), 14).expect("spaces"), 14);
    }

    #[test]
    fn valid_overrides_parse_with_whitespace_tolerance() {
        assert_eq!(parse_log_n_override(Some("10"), 12).expect("10"), 10);
        assert_eq!(parse_log_n_override(Some(" 17 "), 12).expect("17"), 17);
        assert_eq!(parse_log_n_override(Some("2"), 12).expect("2"), 2);
    }

    #[test]
    fn garbage_and_out_of_range_are_loud_errors() {
        for bad in ["ten", "1O", "-3", "1.5", "0", "1", "18", "99", "0x10"] {
            let err = parse_log_n_override(Some(bad), 12).expect_err(bad);
            let msg = format!("{err}");
            assert!(
                msg.contains(LOG_N_ENV) && msg.contains("2..=17"),
                "error for {bad:?} must name the variable and range: {msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrappable_presets() {
        for log_n in 13..=16u32 {
            let p = CkksParams::bootstrappable(log_n).unwrap();
            assert_eq!(p.n(), 1usize << log_n);
            assert_eq!(p.slots(), 1usize << (log_n - 1));
            assert_eq!(p.num_primes(), 24);
            assert_eq!(p.modulus_bits(), 24 * 36);
            // Double-scale: 24 primes = 12 levels at Δ_eff = 2^72.
            assert_eq!(p.scale_mode(), ScaleMode::DoublePair);
            assert_eq!(p.effective_scale_bits(), 72);
            assert_eq!(p.scale(), 2f64.powi(72));
            assert_eq!(p.multiplicative_levels(), 12);
        }
        assert!(CkksParams::bootstrappable(12).is_err());
        assert!(CkksParams::bootstrappable(17).is_err());
    }

    #[test]
    fn scale_mode_accounting() {
        let p = CkksParams::builder().num_primes(6).build().unwrap();
        assert_eq!(p.scale_mode(), ScaleMode::Single);
        assert_eq!(p.effective_scale_bits(), 36);
        assert_eq!(p.multiplicative_levels(), 6);
        let d = CkksParams::builder()
            .num_primes(6)
            .scale_mode(ScaleMode::DoublePair)
            .build()
            .unwrap();
        assert_eq!(d.scale(), 2f64.powi(72));
        assert_eq!(d.multiplicative_levels(), 3);
        // Pairing requires an even prime count.
        assert!(CkksParams::builder()
            .num_primes(5)
            .scale_mode(ScaleMode::DoublePair)
            .build()
            .is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(CkksParams::builder().log_n(1).build().is_err());
        assert!(CkksParams::builder().num_primes(0).build().is_err());
        assert!(CkksParams::builder().prime_bits(10).build().is_err());
        assert!(CkksParams::builder()
            .prime_bits(36)
            .scale_bits(40)
            .build()
            .is_err());
        assert!(CkksParams::builder()
            .log_n(4)
            .secret_hamming_weight(Some(17))
            .build()
            .is_err());
        // Largest supported ring still builds.
        assert!(CkksParams::builder()
            .log_n(17)
            .prime_bits(36)
            .secret_hamming_weight(None)
            .build()
            .is_ok());

        let p = CkksParams::builder()
            .log_n(10)
            .num_primes(3)
            .secret_hamming_weight(None)
            .build()
            .unwrap();
        assert_eq!(p.secret_hamming_weight(), None);
    }
}
