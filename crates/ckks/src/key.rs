//! Secret, public, and evaluation (key-switching) keys.
//!
//! # Key-switching decomposition
//!
//! [`EvalKey`] and [`GaloisKey`] wrap a [`KeySwitchKey`]: the plain
//! **RNS-gadget** (per-prime digit) decomposition of the full RNS-CKKS
//! construction (Cheon et al., "A Full RNS Variant of Approximate
//! Homomorphic Encryption"). The gadget vector is the CRT idempotent
//! basis `ẽ_i = q̂_i·[q̂_i⁻¹]_{q_i}`, which in RNS representation is the
//! *indicator* vector (limb `i` = 1, every other limb = 0) — so key
//! generation needs no big-integer arithmetic, and truncating every
//! digit's limbs to a prefix of the basis yields a valid key for any
//! lower level. Digit `i` of the key is the pair
//! `(b_i, a_i) = (−a_i·s + e_i + ẽ_i·t, a_i)` encrypting the target
//! polynomial `t` (s² for relinearization, σ_g(s) for a Galois
//! element `g`).
//!
//! **Noise model.** Switching a `k`-limb polynomial decomposes each limb
//! into a centered digit `|D_i| ≤ q_i/2` and accumulates `Σ D_i·e_i`:
//! per coefficient a sum of `k` ring convolutions of `N` terms each,
//! giving standard deviation `σ·√(N/12·Σq_i²)` ≈ `q_max·σ·√(N·k/12)`
//! ([`crate::noise::predicted_keyswitch_std`]). At the bootstrappable
//! parameters (N = 2^13, 24 36-bit primes, σ = 3.2) that is ≈2^45 —
//! against a degree-2 scale of Δ_eff² = 2^144, a relative slot error
//! near 2^-92, so the plain per-prime gadget holds the DoublePair
//! precision budget with no hybrid/special-modulus decomposition.

/// The secret key: a ternary polynomial, stored both as signed
/// coefficients and per-prime in NTT domain (decryption uses the latter).
#[derive(Debug, Clone, PartialEq)]
pub struct SecretKey {
    /// Signed ternary coefficients.
    pub(crate) coeffs: Vec<i8>,
    /// `ntt[i][j]`: the secret reduced mod `q_i`, NTT domain.
    pub(crate) ntt: Vec<Vec<u64>>,
}

/// The public key `(pk0, pk1) = (-(a·s) + e, a)`, one residue polynomial
/// pair per RNS prime, NTT domain.
///
/// The paper never stores `a` in memory: it is regenerated from the PRNG
/// seed on demand (16.5 MB of public-key storage avoided, §IV-B). The
/// `seed` field records the stream used so the simulator can
/// model either choice.
#[derive(Debug, Clone, PartialEq)]
pub struct PublicKey {
    pub(crate) pk0: Vec<Vec<u64>>,
    pub(crate) pk1: Vec<Vec<u64>>,
    /// PRNG seed the mask `a` was derived from.
    pub(crate) seed: abc_prng::Seed,
}

impl PublicKey {
    /// Number of RNS primes the key covers.
    pub(crate) fn num_primes(&self) -> usize {
        self.pk0.len()
    }
}

/// An RNS-gadget key-switching key: one `(b_i, a_i)` pair per digit
/// (= per basis prime), each pair spanning the full basis in NTT
/// domain. See the module docs for the decomposition and noise model.
#[derive(Debug, Clone, PartialEq)]
pub struct KeySwitchKey {
    /// `b[i][j]`: digit `i`'s masked component mod `q_j`, NTT domain
    /// (`−a_i·s + e_i + ẽ_i·t`).
    pub(crate) b: Vec<Vec<Vec<u64>>>,
    /// `a[i][j]`: digit `i`'s uniform mask mod `q_j`, NTT domain.
    pub(crate) a: Vec<Vec<Vec<u64>>>,
}

impl KeySwitchKey {
    /// Number of decomposition digits (= basis primes at generation).
    pub(crate) fn num_digits(&self) -> usize {
        self.b.len()
    }

    /// Limbs carried by each digit pair.
    pub(crate) fn num_primes(&self) -> usize {
        self.b.first().map_or(0, Vec::len)
    }
}

/// The relinearization key: a [`KeySwitchKey`] whose target is `s²`,
/// used by [`crate::evaluator::relinearize`] to fold the degree-2
/// component of a ciphertext product back onto `(c0, c1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalKey {
    pub(crate) ksk: KeySwitchKey,
}

/// A Galois key for one automorphism `X → X^g`: a [`KeySwitchKey`]
/// whose target is `σ_g(s)`, used by [`crate::evaluator::rotate`] and
/// [`crate::evaluator::conjugate`]. Each rotation step needs its own
/// key (the paper's server holds a set for the power-of-two steps of a
/// rotate-and-add reduction).
#[derive(Debug, Clone, PartialEq)]
pub struct GaloisKey {
    /// The Galois element `g` (odd, modulo `2N`) this key switches from.
    pub(crate) element: u64,
    pub(crate) ksk: KeySwitchKey,
}

impl GaloisKey {
    /// The Galois element `g` of the automorphism `X → X^g`.
    pub(crate) fn element(&self) -> u64 {
        self.element
    }
}
