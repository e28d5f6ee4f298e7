//! Plaintext and ciphertext containers (RNS, NTT domain).
//!
//! Their residue limbs are [`PooledLimbs`]: checked out of the
//! process-wide limb pool by whoever produced them and handed back when
//! the container drops, so a steady-state client op recycles the memory
//! of the previous one. A plaintext keeps the form its producer left it
//! in — encode's integer coefficients, or decrypt's coefficient-domain
//! limbs — and makes its NTT-domain residue limbs only when something
//! reads them ([`Plaintext::residues`]): encrypt folds its error into
//! encode's coefficients, and decode lifts decrypt's limbs, so neither
//! needs them.
//!
//! The module is private; its three types are re-exported at the crate
//! root.

use crate::scale::ExactScale;
use abc_transform::{LimbWork, PooledLimbs, RnsNttEngine};
use std::sync::{Arc, OnceLock};

/// An encoded message at the scale it was encoded at: one residue
/// polynomial per RNS prime in the NTT (evaluation) domain, made on
/// first use from what the plaintext holds — the `N` integer
/// coefficients of [`CkksContext::encode`](crate::CkksContext::encode),
/// or the coefficient-domain residue limbs of
/// [`CkksContext::decrypt`](crate::CkksContext::decrypt).
///
/// [`CkksContext::encrypt`](crate::CkksContext::encrypt) of an encoded
/// plaintext adds its error to the coefficients and transforms the sum,
/// so the plaintext itself is never transformed; one from decrypt, or
/// whose residues were already made, is added in the NTT domain. Both
/// give the same ciphertext. [`CkksContext::decode`](crate::CkksContext::decode)
/// of a decrypted plaintext lifts its limbs as they are.
#[derive(Clone)]
pub struct Plaintext {
    /// What the residues are made from, and the engine that makes them;
    /// `None` for a plaintext made in the NTT domain, whose residues are
    /// set from the start.
    coeffs: Option<Coefficients>,
    /// `rns[i][j]` = coefficient `j` of the residue polynomial mod `q_i`,
    /// in NTT domain: set at construction, or made from `coeffs` once.
    rns: OnceLock<PooledLimbs>,
    /// Exact encoding scale (Δ_eff for double-scale parameters).
    scale: ExactScale,
    /// Ring degree (for cheap validation).
    n: usize,
}

/// A plaintext's coefficient form, under each prime of `engine`.
#[derive(Clone)]
struct Coefficients {
    form: Form,
    engine: Arc<RnsNttEngine>,
}

/// The two coefficient forms a plaintext is made in.
#[derive(Clone)]
enum Form {
    /// Encode's quantized coefficients, under every prime of the engine.
    Ints(Vec<i128>),
    /// Decrypt's residues, canonical, in the coefficient domain: one
    /// limb per prime of the ciphertext.
    Limbs(PooledLimbs),
}

impl Plaintext {
    /// A plaintext of encode's `ints` at `scale`, over every prime of
    /// `engine`: its residues are made on first use.
    pub(crate) fn from_coefficients(
        ints: Vec<i128>,
        engine: &Arc<RnsNttEngine>,
        scale: ExactScale,
    ) -> Self {
        assert_eq!(ints.len(), engine.n(), "coefficient count must equal N");
        Self::made_from(Form::Ints(ints), engine, scale)
    }

    /// A plaintext of decrypt's canonical coefficient-domain `limbs` at
    /// `scale`, one per leading prime of `engine`: its residues are made
    /// on first use.
    pub(crate) fn from_coefficient_limbs(
        limbs: PooledLimbs,
        engine: &Arc<RnsNttEngine>,
        scale: ExactScale,
    ) -> Self {
        assert!(limbs.iter().all(|limb| limb.len() == engine.n()));
        Self::made_from(Form::Limbs(limbs), engine, scale)
    }

    /// A plaintext of `form` under `engine`, residues not yet made.
    fn made_from(form: Form, engine: &Arc<RnsNttEngine>, scale: ExactScale) -> Self {
        Self {
            coeffs: Some(Coefficients {
                form,
                engine: Arc::clone(engine),
            }),
            rns: OnceLock::new(),
            scale,
            n: engine.n(),
        }
    }

    /// A plaintext of NTT-domain residue limbs of `n` words at `scale`.
    #[cfg(test)]
    pub(crate) fn from_residues(rns: PooledLimbs, scale: ExactScale, n: usize) -> Self {
        Self {
            coeffs: None,
            rns: OnceLock::from(rns),
            scale,
            n,
        }
    }

    /// The coefficient form the residues are made from, if any.
    fn form(&self) -> Option<&Form> {
        self.coeffs.as_ref().map(|coeffs| &coeffs.form)
    }

    /// Encode's integer coefficients, while the residues are not made:
    /// what encrypt folds its error into. `None` once they are, and for
    /// a plaintext of another form.
    pub(crate) fn coefficients(&self) -> Option<&[i128]> {
        match (self.form(), self.rns.get()) {
            (Some(Form::Ints(ints)), None) => Some(ints),
            _ => None,
        }
    }

    /// Decrypt's coefficient-domain limbs, canonical — what decode lifts.
    /// `None` for a plaintext of another form.
    pub(crate) fn coefficient_limbs(&self) -> Option<&[Vec<u64>]> {
        match self.form() {
            Some(Form::Limbs(limbs)) => Some(limbs),
            _ => None,
        }
    }

    /// Number of RNS primes this plaintext carries (level + 1).
    pub fn num_primes(&self) -> usize {
        match &self.coeffs {
            Some(Coefficients {
                form: Form::Ints(_),
                engine,
            }) => engine.plans().len(),
            Some(Coefficients {
                form: Form::Limbs(limbs),
                ..
            }) => limbs.len(),
            None => self.residues().len(),
        }
    }

    /// The exact rational scale.
    pub fn exact_scale(&self) -> &ExactScale {
        &self.scale
    }

    /// Ring degree `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read-only view of the residue polynomials, in NTT domain. A
    /// plaintext from encode or decrypt makes them on the first call (a
    /// forward NTT per prime of its coefficients, on the engine's
    /// fan-out: streamed from encode's integers, over a copy of each of
    /// decrypt's limbs) into pooled limbs it keeps; a concurrent first
    /// call waits for that one. Call it before a fan-out pass that reads
    /// the limbs, not inside one.
    pub fn residues(&self) -> &[Vec<u64>] {
        self.rns.get_or_init(|| {
            let Coefficients { form, engine } = self
                .coeffs
                .as_ref()
                .expect("a plaintext without residues has coefficients");
            match form {
                Form::Ints(ints) => engine.expand_and_ntt_pooled(ints, engine.plans().len()),
                Form::Limbs(limbs) => {
                    let mut rns = engine.take_limbs(limbs.len());
                    engine.for_each_limb(&mut rns, LimbWork::Transform, |i, plan, limb| {
                        limb.copy_from_slice(&limbs[i]);
                        plan.forward(limb);
                    });
                    rns
                }
            }
        })
    }
}

/// Shape and scale, the form, and whether the residues are made — not
/// the coefficients, residues or engine tables.
impl std::fmt::Debug for Plaintext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let form = match self.form() {
            Some(Form::Ints(_)) => "encoded",
            Some(Form::Limbs(_)) => "decrypted",
            None => "residues",
        };
        f.debug_struct("Plaintext")
            .field("num_primes", &self.num_primes())
            .field("n", &self.n)
            .field("scale", &self.scale)
            .field("form", &form)
            .field("residues_made", &self.rns.get().is_some())
            .finish()
    }
}

/// Equal residues at an equal scale: a plaintext equals its clone
/// whether or not either has made its residues (comparing makes them).
impl PartialEq for Plaintext {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.scale == other.scale && self.residues() == other.residues()
    }
}

/// A CKKS ciphertext `(c0, c1)` in RNS + NTT domain.
///
/// Decryption computes `c0 + c1·s`. The *level* of the ciphertext is
/// `num_primes() - 1`; the paper's client encrypts at 24 primes and
/// decrypts server outputs carrying 2 primes (one double-scale pair).
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    pub(crate) c0: PooledLimbs,
    pub(crate) c1: PooledLimbs,
    pub(crate) scale: ExactScale,
    pub(crate) n: usize,
}

impl Ciphertext {
    /// Assembles a ciphertext from raw components — the entry point for
    /// *evaluator* code (server-side homomorphic operations) that
    /// produces new ciphertexts from existing ones. The scale is exact,
    /// so the operands' rescale history survives.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CkksError::InvalidParams`] for empty, ragged, or
    /// mismatched component shapes.
    pub fn from_components_exact(
        c0: Vec<Vec<u64>>,
        c1: Vec<Vec<u64>>,
        scale: ExactScale,
    ) -> Result<Self, crate::CkksError> {
        Self::from_limbs(c0.into(), c1.into(), scale)
    }

    /// [`Self::from_components_exact`] for components that already live
    /// in the limb pool (rejected components go back to it).
    pub(crate) fn from_limbs(
        c0: PooledLimbs,
        c1: PooledLimbs,
        scale: ExactScale,
    ) -> Result<Self, crate::CkksError> {
        if c0.is_empty() || c0.len() != c1.len() {
            return Err(crate::CkksError::InvalidParams(
                "component prime counts must match and be non-zero".to_owned(),
            ));
        }
        let n = c0[0].len();
        if n == 0
            || !n.is_power_of_two()
            || c0.iter().any(|p| p.len() != n)
            || c1.iter().any(|p| p.len() != n)
        {
            return Err(crate::CkksError::InvalidParams(
                "residue polynomials must all share one power-of-two length".to_owned(),
            ));
        }
        Ok(Self { c0, c1, scale, n })
    }

    /// Number of RNS primes (level + 1).
    pub fn num_primes(&self) -> usize {
        self.c0.len()
    }

    /// Ciphertext level (`num_primes - 1`).
    pub fn level(&self) -> usize {
        self.c0.len().saturating_sub(1)
    }

    /// The scale carried by this ciphertext, as `f64`.
    pub fn scale(&self) -> f64 {
        self.scale.to_f64()
    }

    /// The exact rational scale (numerator, binary exponent, and the
    /// primes rescaling has divided out).
    pub fn exact_scale(&self) -> &ExactScale {
        &self.scale
    }

    /// Ring degree `N`.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Read-only views of the two components.
    pub fn components(&self) -> (&[Vec<u64>], &[Vec<u64>]) {
        (&self.c0, &self.c1)
    }

    /// Drops RNS primes beyond the first `count`, emulating a ciphertext
    /// that the server has rescaled down to a lower level (the paper's
    /// decryption workload receives 2-prime ciphertexts).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the current prime count.
    pub fn truncated(&self, count: usize) -> Self {
        assert!(
            count >= 1 && count <= self.c0.len(),
            "prime count {count} out of range 1..={}",
            self.c0.len()
        );
        Self {
            c0: PooledLimbs::copy_of(&self.c0[..count]),
            c1: PooledLimbs::copy_of(&self.c1[..count]),
            scale: self.scale.clone(),
            n: self.n,
        }
    }

    /// In-memory size in bytes (both components, full 8 B per residue
    /// coefficient). The wire format bit-packs residues to their
    /// prime's width — use [`Self::packed_byte_size`] for the bytes
    /// actually transported (and charged by the simulator).
    pub fn byte_size(&self) -> usize {
        2 * self.num_primes() * self.n * 8
    }

    /// Exact wire-v3 (bit-packed) serialized size in bytes under the
    /// widths `params` generates — what
    /// [`crate::wire::serialize_ciphertext_packed`] emits and what the
    /// simulator's DRAM/stream model charges for transport.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext carries more primes than `params`.
    pub fn packed_byte_size(&self, params: &crate::params::CkksParams) -> usize {
        let widths = params.residue_widths(self.num_primes());
        crate::wire::packed_serialized_len(self, &widths)
    }
}

/// The degree-2 intermediate of a ciphertext–ciphertext product
/// `(c0, c1, c2)`: decrypts as `c0 + c1·s + c2·s²`. Produced by
/// [`crate::evaluator::mul`]; fold it back to a regular [`Ciphertext`]
/// with [`crate::evaluator::relinearize`] before further rotations or
/// serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Degree2Ciphertext {
    pub(crate) c0: PooledLimbs,
    pub(crate) c1: PooledLimbs,
    pub(crate) c2: PooledLimbs,
    pub(crate) scale: ExactScale,
    pub(crate) n: usize,
}

/// Borrowed `(d0, d1, d2)` views of a [`Degree2Ciphertext`].
pub(crate) type Degree2Components<'a> = (&'a [Vec<u64>], &'a [Vec<u64>], &'a [Vec<u64>]);

impl Degree2Ciphertext {
    /// Number of RNS primes (level + 1).
    pub(crate) fn num_primes(&self) -> usize {
        self.c0.len()
    }

    /// The exact rational product scale.
    pub(crate) fn exact_scale(&self) -> &ExactScale {
        &self.scale
    }

    /// Ring degree `N`.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Read-only views of the three components.
    pub fn components(&self) -> Degree2Components<'_> {
        (&self.c0, &self.c1, &self.c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_ct(primes: usize, n: usize) -> Ciphertext {
        Ciphertext {
            c0: vec![vec![0u64; n]; primes].into(),
            c1: vec![vec![0u64; n]; primes].into(),
            scale: ExactScale::from_log2(36),
            n,
        }
    }

    #[test]
    fn level_accounting() {
        let ct = dummy_ct(24, 64);
        assert_eq!(ct.num_primes(), 24);
        assert_eq!(ct.level(), 23);
        let low = ct.truncated(2);
        assert_eq!(low.level(), 1);
        assert_eq!(low.scale(), ct.scale());
        assert_eq!(low.n(), 64);
    }

    #[test]
    fn byte_size_formula() {
        let ct = dummy_ct(24, 1 << 16);
        // 2 components × 24 primes × 65536 coeffs × 8 B = 25.2 MB
        assert_eq!(ct.byte_size(), 2 * 24 * 65536 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn truncate_zero_panics() {
        dummy_ct(4, 8).truncated(0);
    }
}
