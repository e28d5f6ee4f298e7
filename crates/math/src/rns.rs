//! Residue number system bases and CRT recombination.
//!
//! The client-side CKKS pipeline expands each encoded coefficient into
//! residues modulo every prime of the current level ("Expand RNS" in the
//! paper's Fig. 2a) and, on decryption, recombines residues back into a
//! centered integer ("Combine CRT").
//!
//! Expansion of a whole coefficient slice is [`SignedCoeffs`]: one scan
//! for the largest magnitude, then per limb a sign-select (values below
//! the prime) or a two-word Shoup fold (wider ones) — no division.
//! That loop is the **scalar rung** of expansion, kept here as the
//! neighbour of [`Modulus::from_i128`], the oracle both rungs are tested
//! against; the one public entry, with the vector rung and the dispatch
//! between them, is [`crate::dyadic::DyadicEngine::expand_into`].
//!
//! Two lifts exist. [`WordLift`] is the decode and rescale path: Garner
//! over the longest basis prefix whose product fits a `u128`, centered,
//! then *verified* against every remaining residue — a coefficient that
//! verifies is the exact centered representative modulo the whole
//! basis. A coefficient that does not verify is recombined by
//! [`RnsBasis::combine_centered_big_with_product`], the big-integer
//! Garner lift that also serves as the oracle the word lift is tested
//! against. Which one runs is decided per coefficient by that check and
//! by nothing else.
//!
//! The word lift has the two rungs of the kernel ladder
//! ([`crate::kernel`]), bit-identical: `ifma` runs the prefix Garner
//! steps, the centering and every check on eight coefficients per step
//! ([`crate::simd`]), `scalar` is the loop here. Both fill one block of
//! [`LIFT_BLOCK`] words and verified flags at a time — the one lift
//! core, [`WordLift::lift_blocks`] — and hand the coefficients that did
//! not verify to the big-integer lift unchanged.

use crate::bigint::UBig;
use crate::kernel::{CpuCaps, KernelTier};
use crate::modulus::Modulus;
use crate::shoup::{self, mul_shoup, shoup_precompute};
use crate::MathError;

/// An ordered RNS basis `q_0, …, q_{L}` of pairwise-coprime odd primes.
///
/// # Example
///
/// ```
/// use abc_math::{bigint::UBig, RnsBasis, primes::generate_ntt_primes};
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let basis = RnsBasis::new(generate_ntt_primes(36, 3, 1 << 14)?)?;
/// let residues: Vec<u64> = basis.moduli().iter().map(|m| m.from_i128(-42)).collect();
/// let (negative, magnitude) = basis.combine_centered_big_with_product(&residues, &basis.product());
/// assert!(negative);
/// assert_eq!(magnitude, UBig::from(42u64));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    /// Garner constants: `inv[j][i] = q_i^{-1} mod q_j` for `i < j`.
    garner_inv: Vec<Vec<u64>>,
}

impl RnsBasis {
    /// Builds a basis from raw prime values.
    ///
    /// # Errors
    ///
    /// * [`MathError::Empty`] for an empty list.
    /// * [`MathError::InvalidModulus`] if any modulus is invalid.
    /// * [`MathError::BasisNotCoprime`] if two moduli share a factor
    ///   (equal moduli included).
    pub fn new(primes: Vec<u64>) -> Result<Self, MathError> {
        if primes.is_empty() {
            return Err(MathError::Empty);
        }
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&q| Modulus::new(q))
            .collect::<Result<_, _>>()?;
        for i in 0..primes.len() {
            for j in (i + 1)..primes.len() {
                if gcd(primes[i], primes[j]) != 1 {
                    return Err(MathError::BasisNotCoprime {
                        a: primes[i],
                        b: primes[j],
                    });
                }
            }
        }
        let mut garner_inv = Vec::with_capacity(moduli.len());
        for (j, mj) in moduli.iter().enumerate() {
            let mut row = Vec::with_capacity(j);
            for mi in &moduli[..j] {
                let qi_mod_qj = mj.reduce(mi.q());
                row.push(mj.inv(qi_mod_qj).expect("coprime moduli are invertible"));
            }
            garner_inv.push(row);
        }
        Ok(Self { moduli, garner_inv })
    }

    /// The moduli of the basis, in order.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of primes in the basis (`L + 1` for level `L`).
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// A sub-basis containing only the first `count` primes.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or exceeds the basis size.
    pub fn truncated(&self, count: usize) -> Self {
        assert!(count >= 1 && count <= self.moduli.len());
        Self {
            moduli: self.moduli[..count].to_vec(),
            garner_inv: self.garner_inv[..count].to_vec(),
        }
    }

    /// Product of all moduli as a big integer.
    pub fn product(&self) -> UBig {
        let mut p = UBig::one();
        for m in &self.moduli {
            p = p.mul_u64(m.q());
        }
        p
    }

    /// Garner (mixed-radix) recombination of one residue vector into the
    /// unique `x ∈ [0, Q)` with `x ≡ r_i (mod q_i)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    #[allow(clippy::needless_range_loop)] // Garner recurrence is positional (i < j)
    fn combine(&self, residues: &[u64]) -> UBig {
        assert_eq!(residues.len(), self.moduli.len());
        // Mixed-radix digits: x = v0 + v1·q0 + v2·q0·q1 + …
        let mut digits = Vec::with_capacity(residues.len());
        for j in 0..residues.len() {
            let mj = &self.moduli[j];
            let mut v = mj.reduce(residues[j]);
            // v = (r_j - (v0 + v1 q0 + ...)) * prod_inv mod q_j, evaluated
            // incrementally (Garner).
            for i in 0..j {
                let di = mj.reduce(digits[i]);
                v = mj.sub(v, di);
                v = mj.mul(v, self.garner_inv[j][i]);
                // Fold q_i into the running product implicitly: Garner's
                // recurrence v := (v - d_i) * q_i^{-1} applied in sequence.
            }
            digits.push(v);
        }
        // Evaluate the mixed-radix expansion with big integers.
        let mut acc = UBig::zero();
        let mut radix = UBig::one();
        for (j, &d) in digits.iter().enumerate() {
            acc = acc.add(&radix.mul_u64(d));
            radix = radix.mul_u64(self.moduli[j].q());
        }
        acc
    }

    /// Recombines residues and centers into `(-Q/2, Q/2]`, returned
    /// **exactly** as a sign and magnitude — the lossless form decode
    /// divides by the exact scale. `product` is [`Self::product`],
    /// computed once by the caller (decode loops over `N` coefficients;
    /// the product only depends on the basis).
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the basis size.
    pub fn combine_centered_big_with_product(
        &self,
        residues: &[u64],
        product: &UBig,
    ) -> (bool, UBig) {
        let x = self.combine(residues);
        // x > Q/2  ⇔  2x > Q (Q is odd, so no tie).
        if x.mul_u64(2) > *product {
            (true, product.sub(&x))
        } else {
            (false, x)
        }
    }
}

/// A constant `w ∈ [0, q)` with its Shoup quotient: [`Self::mul`] is
/// `a·w mod q` for **any** `a: u64` — with `w = 1`, a word reduction.
#[derive(Debug, Clone, Copy)]
struct ShoupConst {
    w: u64,
    w_shoup: u64,
    q: u64,
}

impl ShoupConst {
    fn new(w: u64, q: u64) -> Self {
        Self {
            w,
            w_shoup: shoup_precompute(w, q),
            q,
        }
    }

    /// `a·w mod q`, in `[0, q)`.
    #[inline(always)]
    fn mul(&self, a: u64) -> u64 {
        mul_shoup(a, self.w, self.w_shoup, self.q)
    }
}

/// One Garner step `(r − d)·q_i⁻¹ mod q_j` for a residue `r ∈ [0, q_j)`
/// and an earlier digit `d ∈ [0, q_i)`.
#[derive(Debug, Clone, Copy)]
struct GarnerStep {
    /// The smallest multiple of `q_j` that is `≥ q_i`: keeps `r − d`
    /// non-negative without reducing `d` first. Below `q_i + q_j`, so
    /// `r + lift − d < q_i + 2q_j` stays inside a word for `q < 2^62`.
    lift: u64,
    inv: ShoupConst,
}

impl GarnerStep {
    fn new(qi: &Modulus, qj: &Modulus, qi_inv_mod_qj: u64) -> Self {
        Self {
            lift: qi.q().div_ceil(qj.q()) * qj.q(),
            inv: ShoupConst::new(qi_inv_mod_qj, qj.q()),
        }
    }

    #[inline(always)]
    fn digit(&self, r: u64, d: u64) -> u64 {
        self.inv.mul(r + self.lift - d)
    }
}

/// Division-free reduction of a signed two-word value modulo one prime
/// `q < 2^62`: the word lift's residue check and the wide path of the
/// scalar expansion rung, [`SignedCoeffs::expand_into`].
#[derive(Debug, Clone, Copy)]
struct WordFold {
    /// `1 mod q`: reduces the low word of a magnitude.
    one: ShoupConst,
    /// `2^64 mod q`: folds the high word in.
    two64: ShoupConst,
}

impl WordFold {
    fn new(m: &Modulus) -> Self {
        Self {
            one: ShoupConst::new(1, m.q()),
            two64: ShoupConst::new(m.reduce_u128(1 << 64), m.q()),
        }
    }

    /// `x mod q`, canonical in `[0, q)`, for any `x`; no branch depends
    /// on the value.
    #[inline(always)]
    fn residue(&self, x: i128) -> u64 {
        let q = self.one.q;
        let mag = x.unsigned_abs();
        let t = self.two64.mul((mag >> 64) as u64) + self.one.mul(mag as u64);
        let t = t.min(t.wrapping_sub(q));
        // −t mod q: q − t lies in (0, q], and q itself folds to 0.
        let n = q - t;
        let n = n.min(n.wrapping_sub(q));
        let negative = (x >> 127) as u64;
        (t & !negative) | (n & negative)
    }
}

/// The coefficient widths [`SignedCoeffs`] expands: `i8` ternary
/// secrets, `i64` Gaussian errors, key-switch digits and rescale tails,
/// `i128` scaled messages and pair-rescale tails. Sealed: each width
/// scans at its own size and, on x86-64, has its own vector load in the
/// IFMA rung ([`crate::simd`]).
pub trait SignedWord: sealed::Sealed + Into<i128> + Send + Sync {}

impl SignedWord for i8 {}
impl SignedWord for i64 {}
impl SignedWord for i128 {}

pub(crate) mod sealed {
    /// A slice of signed words at its concrete width: how a kernel
    /// generic over [`super::SignedWord`] reaches the per-width vector
    /// load of the IFMA rung.
    #[derive(Debug, Clone, Copy)]
    pub enum Width<'a> {
        I8(&'a [i8]),
        I64(&'a [i64]),
        I128(&'a [i128]),
    }

    /// The per-width half of [`super::SignedWord`].
    pub trait Sealed: Copy {
        /// The largest `|x|` of `xs`, compared at the width of `x`.
        fn max_abs(xs: &[Self]) -> u128;

        /// `xs` at its concrete width.
        fn width(xs: &[Self]) -> Width<'_>;
    }

    macro_rules! sealed {
        ($($x:ty => $w:ident),*) => {$(
            impl Sealed for $x {
                fn max_abs(xs: &[$x]) -> u128 {
                    xs.iter().map(|x| x.unsigned_abs()).max().map_or(0, u128::from)
                }

                fn width(xs: &[$x]) -> Width<'_> {
                    Width::$w(xs)
                }
            }
        )*};
    }
    sealed!(i8 => I8, i64 => I64, i128 => I128);
}

/// Signed coefficients on their way into RNS form (paper "Expand RNS"):
/// the slice together with its largest magnitude, found by one scan when
/// the value is built. An expansion picks its reduction from that
/// magnitude and the modulus alone, so a slice is scanned once however
/// many limbs it is expanded under.
///
/// Its crate-private `expand_into` is the **scalar rung** of
/// expansion, and lives here beside its oracle [`Modulus::from_i128`];
/// callers expand through [`crate::dyadic::DyadicEngine::expand_into`],
/// which runs the AVX-512IFMA kernel where the engine's tier allows and
/// this loop otherwise — bit-identically.
///
/// # Example
///
/// ```
/// use abc_math::{dyadic::DyadicEngine, rns::SignedCoeffs, Modulus};
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let src = SignedCoeffs::scan(&[-98i128, 1 << 100, 97]);
/// assert_eq!(src.max_abs(), 1 << 100);
/// // One scan, expanded under as many limbs as the basis has.
/// let mut limbs = [Vec::new(), Vec::new()];
/// for (q, limb) in [97, 101].into_iter().zip(&mut limbs) {
///     let m = Modulus::new(q)?;
///     DyadicEngine::new(m).expand_into(&src, limb);
///     assert_eq!(*limb, [m.from_i128(-98), m.from_i128(1 << 100), m.from_i128(97)]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SignedCoeffs<'a, X> {
    coeffs: &'a [X],
    max_abs: u128,
}

impl<'a, X: SignedWord> SignedCoeffs<'a, X> {
    /// Scans `coeffs` for its largest magnitude.
    pub fn scan(coeffs: &'a [X]) -> Self {
        Self {
            coeffs,
            max_abs: X::max_abs(coeffs),
        }
    }

    /// The largest `|x|` in the slice (0 when empty).
    pub fn max_abs(&self) -> u128 {
        self.max_abs
    }

    /// The scanned slice.
    pub fn coeffs(&self) -> &'a [X] {
        self.coeffs
    }

    /// Refills `dst` with `coeffs[j] mod q`, canonical in `[0, q)` —
    /// equal to [`Modulus::from_i128`] on every input, without its
    /// division:
    ///
    /// * `max|x| < q` (samplers, key material, rescale tails): every
    ///   `|x| < q`, so the residue is `x` or `x + q`, selected by the
    ///   sign bit;
    /// * wider values (messages at 2^72): the two words of `|x|` fold
    ///   through the Shoup constants `1 mod q` and `2^64 mod q`, the
    ///   sign applied last.
    ///
    /// `dst` is cleared first and its capacity reused.
    pub(crate) fn expand_into(&self, m: &Modulus, dst: &mut Vec<u64>) {
        dst.clear();
        self.append_from(m, 0, dst);
    }

    /// Appends `coeffs[from..] mod q` to `dst` — the scalar rung's loop,
    /// and the vector rung's sub-8-lane tail.
    pub(crate) fn append_from(&self, m: &Modulus, from: usize, dst: &mut Vec<u64>) {
        let q = m.q();
        let coeffs = &self.coeffs[from..];
        if self.max_abs < q as u128 {
            debug_assert!(
                coeffs.iter().all(|&x| x.into().unsigned_abs() < q as u128),
                "sign-select takes |x| < q"
            );
            dst.extend(coeffs.iter().map(|&x| {
                // |x| < q < 2^62: the low word is the value.
                let v = x.into() as i64;
                (v + ((v >> 63) & q as i64)) as u64
            }));
            debug_assert!(dst.iter().all(|&r| r < q), "sign-select left [0, q)");
        } else {
            let fold = WordFold::new(m);
            dst.extend(coeffs.iter().map(|&x| fold.residue(x.into())));
        }
    }
}

/// Coefficients lifted per pass over the limbs: the prefix values and
/// their flags stay on the stack, each limb is read in contiguous runs.
pub const LIFT_BLOCK: usize = 256;

/// The word-sized verified CRT lift of a basis.
///
/// Garner runs over the *word prefix* — the longest prefix of at most
/// three moduli whose product `Q_k` stays below `2^127` — and centers
/// the result in `(−Q_k/2, Q_k/2]`. Every remaining limb `j` then checks
/// `x mod q_j == r_j`. A value that passes every check is congruent to
/// the residues modulo the whole product `Q` and has `|x| ≤ Q_k/2 <
/// Q/2`, so it *is* the centered representative modulo `Q`: the result
/// is exact for every input. A value that fails a check (its true
/// magnitude exceeds `Q_k/2`) is recombined by
/// [`RnsBasis::combine_centered_big_with_product`].
///
/// The lift runs [`LIFT_BLOCK`] coefficients at a time
/// ([`Self::lift_blocks`]) on one of two rungs of the kernel ladder,
/// bit-identical: `ifma` (eight coefficients per step, [`crate::simd`];
/// every modulus below `2^50`, an AVX-512IFMA CPU) or `scalar`.
///
/// All residues handed to the lift must be canonical, in `[0, q)` of
/// their limb — what `NttPlan::inverse` produces. The hot loops reduce
/// through precomputed Shoup constants only (no `%`).
///
/// # Example
///
/// ```
/// use abc_math::{rns::WordLift, RnsBasis, primes::generate_ntt_primes};
///
/// # fn main() -> Result<(), abc_math::MathError> {
/// let basis = RnsBasis::new(generate_ntt_primes(36, 5, 1 << 14)?)?;
/// let limbs: Vec<Vec<u64>> = basis.moduli().iter().map(|m| vec![m.from_i128(-42)]).collect();
/// let lift = WordLift::new(basis);
/// let fell_back = lift.lift_blocks(&limbs, |block| {
///     assert_eq!(block.words(), &[-42]);
///     assert_eq!(block.fell_back().count(), 0);
/// });
/// assert_eq!(fell_back, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WordLift {
    /// The whole basis: the fallback lift and its Garner constants.
    basis: RnsBasis,
    /// `Q`, for the fallback's centering.
    product: UBig,
    prefix: Prefix,
    /// `Q_k`, the prefix product.
    prefix_product: u128,
    /// One check per limb past the prefix.
    verify: Vec<WordFold>,
    rung: Rung,
}

/// The rung a lift runs on, with the vector rung's constants.
#[derive(Debug, Clone)]
enum Rung {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Ifma(Box<crate::simd::Lift52>),
}

/// The Garner constants of a word prefix of one, two or three moduli.
#[derive(Debug, Clone, Copy)]
enum Prefix {
    One,
    Two {
        q0: u64,
        s10: GarnerStep,
    },
    Three {
        q0: u64,
        q01: u128,
        s10: GarnerStep,
        s20: GarnerStep,
        s21: GarnerStep,
    },
}

impl WordLift {
    /// Builds the lift of `basis` — any coprime moduli, a context's
    /// level prefix or an ad-hoc pair alike — on the fastest rung.
    pub fn new(basis: RnsBasis) -> Self {
        Self::with_kernel(basis, KernelTier::Auto)
    }

    /// Builds the lift on an explicit rung of the kernel ladder
    /// ([`KernelTier::Auto`] honours the `ABC_FHE_KERNEL` override,
    /// explicit tiers do not). `Simd` needs every modulus below `2^50`
    /// and an AVX-512IFMA CPU, and degrades to `Scalar` without them;
    /// check [`Self::kernel_name`].
    ///
    /// # Panics
    ///
    /// Panics if `Auto` reads an unparseable override.
    pub fn with_kernel(basis: RnsBasis, tier: KernelTier) -> Self {
        let moduli = basis.moduli();
        let mut len = 1;
        let mut prefix_product = moduli[0].q() as u128;
        while len < moduli.len().min(3) {
            match prefix_product.checked_mul(moduli[len].q() as u128) {
                Some(p) if p < 1 << 127 => prefix_product = p,
                _ => break,
            }
            len += 1;
        }
        let step =
            |i: usize, j: usize| GarnerStep::new(&moduli[i], &moduli[j], basis.garner_inv[j][i]);
        let q0 = moduli[0].q();
        let prefix = match len {
            1 => Prefix::One,
            2 => Prefix::Two {
                q0,
                s10: step(0, 1),
            },
            _ => Prefix::Three {
                q0,
                q01: q0 as u128 * moduli[1].q() as u128,
                s10: step(0, 1),
                s20: step(0, 2),
                s21: step(1, 2),
            },
        };
        let simd_ok =
            CpuCaps::detect().ifma() && moduli.iter().all(|m| m.q() < shoup::MAX_SHOUP52_MODULUS);
        let rung = match tier.or_env().degrade(simd_ok) {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Simd => {
                // s10, s20, s21: as many as the prefix has.
                let steps: Vec<(u64, u64)> = [(0, 1), (0, 2), (1, 2)][..len * (len - 1) / 2]
                    .iter()
                    .map(|&(i, j)| {
                        let s = step(i, j);
                        (s.lift, s.inv.w)
                    })
                    .collect();
                let q = |ms: &[Modulus]| ms.iter().map(Modulus::q).collect::<Vec<_>>();
                Rung::Ifma(Box::new(crate::simd::Lift52::new(
                    &q(&moduli[..len]),
                    &steps,
                    &q(&moduli[len..]),
                )))
            }
            _ => Rung::Scalar,
        };
        Self {
            product: basis.product(),
            prefix,
            prefix_product,
            verify: moduli[len..].iter().map(WordFold::new).collect(),
            rung,
            basis,
        }
    }

    /// The rung this lift runs on: [`KernelTier::Simd`] or
    /// [`KernelTier::Scalar`], never `Auto` — decode hands it to the
    /// scale division that follows the lift.
    pub fn tier(&self) -> KernelTier {
        match self.rung {
            Rung::Scalar => KernelTier::Scalar,
            #[cfg(target_arch = "x86_64")]
            Rung::Ifma(_) => KernelTier::Simd,
        }
    }

    /// Name of the dispatched kernel (`"ifma"` or `"scalar"`), for
    /// diagnostics and bench labels.
    pub fn kernel_name(&self) -> &'static str {
        match self.rung {
            Rung::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Rung::Ifma(_) => "ifma",
        }
    }

    /// Lifts every coefficient of `limbs` (limb-major: `limbs[i][j]` is
    /// coefficient `j` modulo `q_i`, canonical in `[0, q_i)`) to its
    /// centered representative in `(−Q/2, Q/2]`, [`LIFT_BLOCK`]
    /// coefficients at a time, and hands each block to `sink` in
    /// coefficient order. Returns how many coefficients did not verify
    /// — the ones [`LiftedBlock::big`] recombines.
    ///
    /// # Panics
    ///
    /// Panics unless there is one limb per modulus, all of one length.
    pub fn lift_blocks<L: AsRef<[u64]>>(
        &self,
        limbs: &[L],
        mut sink: impl FnMut(&LiftedBlock<'_, L>),
    ) -> usize {
        let n = self.check_shape(limbs);
        let mut words = [0i128; LIFT_BLOCK];
        let mut verified = [0u8; LIFT_BLOCK / 8];
        let mut fell_back = 0;
        for start in (0..n).step_by(LIFT_BLOCK) {
            let len = LIFT_BLOCK.min(n - start);
            self.lift_block(limbs, start, &mut words[..len], &mut verified);
            let block = LiftedBlock {
                lift: self,
                limbs,
                start,
                words: &words[..len],
                verified: &verified,
            };
            fell_back += block.fell_back().count();
            sink(&block);
        }
        fell_back
    }

    /// [`Self::lift_blocks`] for a basis that is all word prefix (at
    /// most three moduli, product below `2^127`): every centered value
    /// fits an `i128`, nothing is left to verify, nothing falls back.
    /// Residues are canonical, in `[0, q_i)`.
    ///
    /// # Panics
    ///
    /// Panics if the basis reaches past its word prefix, or on the
    /// shape conditions of [`Self::lift_blocks`] with `out` as one
    /// more limb.
    pub fn lift_centered_i128<L: AsRef<[u64]>>(&self, limbs: &[L], out: &mut [i128]) {
        assert!(
            self.verify.is_empty(),
            "basis product does not fit the word lift"
        );
        assert_eq!(self.check_shape(limbs), out.len());
        let mut verified = [0u8; LIFT_BLOCK / 8];
        for (block, xs) in out.chunks_mut(LIFT_BLOCK).enumerate() {
            self.lift_block(limbs, block * LIFT_BLOCK, xs, &mut verified);
        }
    }

    /// Checks one limb per modulus, all of one length; returns it.
    fn check_shape<L: AsRef<[u64]>>(&self, limbs: &[L]) -> usize {
        assert_eq!(limbs.len(), self.basis.len(), "one limb per modulus");
        let n = limbs[0].as_ref().len();
        assert!(
            limbs.iter().all(|l| l.as_ref().len() == n),
            "limbs differ in length"
        );
        n
    }

    /// The one lift core: coefficients `start..start + xs.len()` (at
    /// most [`LIFT_BLOCK`]) lifted over the prefix and centered into
    /// `xs`, bit `i % 8` of `verified[i / 8]` set where coefficient
    /// `start + i` passed every check. The vector rung takes the full
    /// 8-lane groups, the scalar loop the rest.
    fn lift_block<L: AsRef<[u64]>>(
        &self,
        limbs: &[L],
        start: usize,
        xs: &mut [i128],
        verified: &mut [u8],
    ) {
        let moduli = self.basis.moduli();
        let len = xs.len();
        let run = |i: usize| canonical_run(limbs[i].as_ref(), start, len, moduli[i].q());
        let done = match &self.rung {
            Rung::Scalar => 0,
            #[cfg(target_arch = "x86_64")]
            Rung::Ifma(k) => crate::simd::lift(k, run, xs, verified),
        };
        let tail = |i: usize| &run(i)[done..];
        self.lift_prefix(tail, &mut xs[done..]);
        // Bits past `len` in the last byte stay set: they never read as
        // a coefficient that fell back.
        verified[done / 8..len.div_ceil(8)].fill(0xFF);
        let past_prefix = moduli.len() - self.verify.len();
        for (i, check) in (past_prefix..).zip(&self.verify) {
            for ((j, &x), &r) in (done..).zip(&xs[done..]).zip(tail(i)) {
                verified[j / 8] &= !(u8::from(check.residue(x) != r) << (j % 8));
            }
        }
    }

    /// The scalar rung's Garner over the prefix limbs: `run(i)` is limb
    /// `i`'s residues of the coefficients of `xs`, which are centered in
    /// `(−Q_k/2, Q_k/2]`.
    fn lift_prefix<'a>(&self, run: impl Fn(usize) -> &'a [u64], xs: &mut [i128]) {
        // Q_k is odd: no value sits on the tie.
        let half = self.prefix_product / 2;
        let center = |x: u128| {
            if x > half {
                -((self.prefix_product - x) as i128)
            } else {
                x as i128
            }
        };
        match self.prefix {
            Prefix::One => {
                for (x, &v0) in xs.iter_mut().zip(run(0)) {
                    *x = center(v0 as u128);
                }
            }
            Prefix::Two { q0, s10 } => {
                for ((x, &v0), &r1) in xs.iter_mut().zip(run(0)).zip(run(1)) {
                    let v1 = s10.digit(r1, v0);
                    *x = center(v0 as u128 + q0 as u128 * v1 as u128);
                }
            }
            Prefix::Three {
                q0,
                q01,
                s10,
                s20,
                s21,
            } => {
                for (((x, &v0), &r1), &r2) in xs.iter_mut().zip(run(0)).zip(run(1)).zip(run(2)) {
                    let v1 = s10.digit(r1, v0);
                    let v2 = s21.digit(s20.digit(r2, v0), v1);
                    *x = center(v0 as u128 + q0 as u128 * v1 as u128 + q01 * v2 as u128);
                }
            }
        }
    }
}

/// One block of a lift, as [`WordLift::lift_blocks`] hands it to its
/// sink: up to [`LIFT_BLOCK`] consecutive coefficients as centered
/// words, with the ones that did not verify marked.
#[derive(Debug)]
pub struct LiftedBlock<'a, L> {
    lift: &'a WordLift,
    limbs: &'a [L],
    start: usize,
    words: &'a [i128],
    /// Bit `i % 8` of byte `i / 8`: word `i` verified (bits past the
    /// last word set).
    verified: &'a [u8],
}

impl<L: AsRef<[u64]>> LiftedBlock<'_, L> {
    /// Index of the block's first coefficient.
    pub fn start(&self) -> usize {
        self.start
    }

    /// The block's coefficients lifted over the word prefix and
    /// centered: word `i` is coefficient `start + i`'s centered
    /// representative modulo the whole basis unless `i` is one of
    /// [`Self::fell_back`], where it is only the prefix's.
    pub fn words(&self) -> &[i128] {
        self.words
    }

    /// The offsets of the words that did not verify, ascending.
    pub fn fell_back(&self) -> impl Iterator<Item = usize> + '_ {
        let bytes = &self.verified[..self.words.len().div_ceil(8)];
        bytes.iter().enumerate().flat_map(|(g, &byte)| {
            let mut missing = !byte;
            core::iter::from_fn(move || {
                let b = missing.trailing_zeros() as usize;
                missing &= missing.wrapping_sub(1);
                (b < 8).then_some(8 * g + b)
            })
        })
    }

    /// Coefficient `start + i` recombined by the big-integer lift
    /// ([`RnsBasis::combine_centered_big_with_product`]) as a sign and
    /// magnitude — what a word that did not verify stands for.
    pub fn big(&self, i: usize) -> (bool, UBig) {
        let j = self.start + i;
        let residues: Vec<u64> = self.limbs.iter().map(|limb| limb.as_ref()[j]).collect();
        self.lift
            .basis
            .combine_centered_big_with_product(&residues, &self.lift.product)
    }
}

/// `limb[start..start + len]`, debug-checked canonical in `[0, q)`.
#[inline(always)]
fn canonical_run(limb: &[u64], start: usize, len: usize, q: u64) -> &[u64] {
    let run = &limb[start..start + len];
    debug_assert!(
        run.iter().all(|&r| r < q),
        "word lift takes canonical residues"
    );
    run
}

/// Greatest common divisor.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::generate_ntt_primes;

    fn basis(n: usize) -> RnsBasis {
        RnsBasis::new(generate_ntt_primes(36, n, 1 << 14).unwrap()).unwrap()
    }

    /// `x mod q_i` under every prime of `b`.
    fn residues(b: &RnsBasis, x: i128) -> Vec<u64> {
        b.moduli().iter().map(|m| m.from_i128(x)).collect()
    }

    /// The centered value of `r` as `(negative, magnitude)`.
    fn centered(b: &RnsBasis, r: &[u64]) -> (bool, UBig) {
        b.combine_centered_big_with_product(r, &b.product())
    }

    /// `x` as `(negative, magnitude)`.
    fn signed(x: i128) -> (bool, UBig) {
        (x < 0, UBig::from(x.unsigned_abs()))
    }

    #[test]
    fn rejects_bad_bases() {
        assert!(matches!(RnsBasis::new(vec![]), Err(MathError::Empty)));
        assert!(matches!(
            RnsBasis::new(vec![97, 97]),
            Err(MathError::BasisNotCoprime { .. })
        ));
        assert!(matches!(
            RnsBasis::new(vec![15, 21]), // share factor 3
            Err(MathError::BasisNotCoprime { .. })
        ));
    }

    #[test]
    fn word_lift_rejects_moduli_shoup_cannot_reduce() {
        // A modulus past the 62-bit datapath is refused where the basis is
        // built, so no `WordLift` can ever hold it.
        let q = (1u64 << 62) + 135; // odd, coprime to 97
        assert_eq!(
            RnsBasis::new(vec![97, q]).unwrap_err(),
            MathError::InvalidModulus(q)
        );
    }

    #[test]
    fn decompose_combine_roundtrip_small() {
        let b = basis(3);
        for x in [-1000i128, -1, 0, 1, 42, 1 << 40, -(1 << 40)] {
            assert_eq!(centered(&b, &residues(&b, x)), signed(x), "x = {x}");
        }
    }

    #[test]
    fn combine_matches_product_structure() {
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        // x = 23: residues (2, 3, 2)
        let x = b.combine(&[2, 3, 2]);
        assert_eq!(x, UBig::from(23u64));
        assert_eq!(b.product(), UBig::from(105u64));
    }

    #[test]
    fn centered_negative() {
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        // -1 mod 105 = 104 -> residues (2, 4, 6)
        assert_eq!(centered(&b, &[2, 4, 6]), signed(-1));
        // +52 = floor(105/2) stays positive
        let r: Vec<u64> = vec![52 % 3, 52 % 5, 52 % 7];
        assert_eq!(centered(&b, &r), signed(52));
        // 53 > 105/2 -> -52
        let r: Vec<u64> = vec![53 % 3, 53 % 5, 53 % 7];
        assert_eq!(centered(&b, &r), signed(-52));
    }

    #[test]
    fn truncation() {
        let b = basis(5);
        let t = b.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(centered(&t, &residues(&t, 123456789)), signed(123456789));
    }

    #[test]
    fn word_lift_centers_tiny_basis() {
        let b = RnsBasis::new(vec![3, 5, 7]).unwrap();
        let lift = WordLift::new(b.clone());
        // Every value mod 105, one coefficient each.
        let rows: Vec<Vec<u64>> = [3u64, 5, 7]
            .iter()
            .map(|q| (0..105).map(|x| x % q).collect())
            .collect();
        let mut xs = vec![0i128; 105];
        lift.lift_centered_i128(&rows, &mut xs);
        for (x, &got) in xs.iter().enumerate() {
            let want = if x > 52 { x as i128 - 105 } else { x as i128 };
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the word lift")]
    fn word_lift_i128_needs_a_word_sized_basis() {
        let lift = WordLift::new(basis(4));
        let rows = vec![vec![0u64]; 4];
        lift.lift_centered_i128(&rows, &mut [0i128]);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }
}
