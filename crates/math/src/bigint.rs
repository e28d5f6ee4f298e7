//! Minimal unsigned big-integer substrate for CRT reconstruction.
//!
//! Decryption at level `L` recombines RNS residues into an integer modulo
//! `Q = q_0·…·q_L`, which exceeds 128 bits for `L ≥ 3`. Only the small set
//! of operations Garner recombination and float conversion need are
//! provided — this is deliberately not a general bignum library.

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs).
///
/// # Example
///
/// ```
/// use abc_math::UBig;
///
/// let a = UBig::from(u64::MAX);
/// let b = a.mul_u64(2).add(&UBig::from(2u64));
/// assert_eq!(b.to_f64(), 2.0 * (u64::MAX as f64) + 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UBig {
    /// Little-endian limbs; no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl From<u64> for UBig {
    fn from(x: u64) -> Self {
        if x == 0 {
            Self { limbs: Vec::new() }
        } else {
            Self { limbs: vec![x] }
        }
    }
}

impl From<u128> for UBig {
    fn from(x: u128) -> Self {
        let mut s = Self {
            limbs: vec![x as u64, (x >> 64) as u64],
        };
        s.normalize();
        s
    }
}

impl UBig {
    /// The value zero.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The value one.
    pub fn one() -> Self {
        Self::from(1u64)
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() as u32) * 64 - top.leading_zeros(),
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Returns `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(longer.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.limbs.len() {
            let a = longer.limbs[i];
            let b = shorter.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (this substrate never needs signed results
    /// at this level; callers handle centering explicitly).
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "UBig::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> u32 {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i as u32 * 64 + l.trailing_zeros();
            }
        }
        0
    }

    /// Returns `self << bits`.
    pub fn shl(&self, bits: u32) -> Self {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let (words, rem) = ((bits / 64) as usize, bits % 64);
        let mut out = vec![0u64; words];
        if rem == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << rem) | carry);
                carry = l >> (64 - rem);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self >> bits` (bits shifted out are discarded).
    pub fn shr(&self, bits: u32) -> Self {
        let (words, rem) = ((bits / 64) as usize, bits % 64);
        if words >= self.limbs.len() {
            return Self::zero();
        }
        let mut out: Vec<u64> = self.limbs[words..].to_vec();
        if rem != 0 {
            for i in 0..out.len() {
                out[i] >>= rem;
                if i + 1 < out.len() {
                    out[i] |= out[i + 1] << (64 - rem);
                }
            }
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Returns `self * other` (schoolbook over 64-bit limbs).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let p = a as u128 * b as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = p as u64;
                carry = (p >> 64) as u64;
            }
            out[i + other.limbs.len()] = carry;
        }
        let mut r = Self { limbs: out };
        r.normalize();
        r
    }

    /// Floor division by a single limb: returns `(self / d, self mod d)`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut q = Self { limbs: out };
        q.normalize();
        (q, rem as u64)
    }

    /// Returns `self * m` for a single limb `m`.
    pub fn mul_u64(&self, m: u64) -> Self {
        if m == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in &self.limbs {
            let p = l as u128 * m as u128 + carry as u128;
            out.push(p as u64);
            carry = (p >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        Self { limbs: out }
    }

    /// Returns `self mod m` for a single limb `m != 0`.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0);
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % m as u128;
        }
        rem as u64
    }

    /// Returns the value as `u128` if it fits (`bits() <= 128`).
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }

    /// Minimal little-endian byte encoding (empty for zero).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in &self.limbs {
            out.extend_from_slice(&l.to_le_bytes());
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Decodes a little-endian byte string (inverse of
    /// [`Self::to_le_bytes`]; trailing zero bytes are tolerated).
    pub fn from_le_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            limbs.push(u64::from_le_bytes(word));
        }
        let mut r = Self { limbs };
        r.normalize();
        r
    }

    /// Converts to `f64` with round-to-nearest on the top bits (values
    /// beyond `f64` range become `inf`).
    pub fn to_f64(&self) -> f64 {
        match self.limbs.len() {
            0 => 0.0,
            1 => self.limbs[0] as f64,
            2 => (self.limbs[1] as f64) * 1.8446744073709552e19 + self.limbs[0] as f64,
            n => {
                // Take the top 128 bits and scale by the remaining limbs.
                let top = (self.limbs[n - 1] as u128) << 64 | self.limbs[n - 2] as u128;
                let exp = (n - 2) as i32 * 64;
                (top as f64) * 2f64.powi(exp)
            }
        }
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            core::cmp::Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        core::cmp::Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                core::cmp::Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl core::fmt::Display for UBig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut limbs = self.limbs.clone();
        let mut chunks = Vec::new();
        while !limbs.is_empty() {
            let mut rem = 0u128;
            for l in limbs.iter_mut().rev() {
                let cur = (rem << 64) | *l as u128;
                *l = (cur / CHUNK as u128) as u64;
                rem = cur % CHUNK as u128;
            }
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            chunks.push(rem as u64);
        }
        let mut it = chunks.iter().rev();
        write!(f, "{}", it.next().expect("nonzero has at least one chunk"))?;
        for c in it {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_normalization() {
        assert!(UBig::zero().is_zero());
        assert_eq!(UBig::from(0u64), UBig::zero());
        assert_eq!(UBig::from(0u128), UBig::zero());
        assert_eq!(UBig::from(5u64).bits(), 3);
        assert_eq!(UBig::from(1u128 << 100).bits(), 101);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = UBig::from(u128::MAX);
        let b = UBig::from(u64::MAX);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
        assert_eq!(UBig::zero().add(&UBig::zero()), UBig::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = UBig::from(1u64).sub(&UBig::from(2u64));
    }

    #[test]
    fn mul_and_rem() {
        let a = UBig::from(0xFFFF_FFFF_FFFF_FFFFu64);
        let b = a.mul_u64(0xFFFF_FFFF_FFFF_FFFF);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(b, UBig::from((u128::MAX - (1u128 << 65)) + 2));
        assert_eq!(b.rem_u64(97), {
            let m = (u128::MAX - (1u128 << 65) + 2) % 97;
            m as u64
        });
        assert_eq!(UBig::zero().mul_u64(123), UBig::zero());
    }

    #[test]
    fn ordering() {
        let a = UBig::from(5u64);
        let b = UBig::from(1u128 << 80);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(UBig::from(12345u64).to_f64(), 12345.0);
        let x = UBig::from(1u128 << 100);
        assert_eq!(x.to_f64(), 2f64.powi(100));
        // Three-limb value.
        let y = UBig::from(1u128 << 127).mul_u64(4);
        assert_eq!(y.to_f64(), 2f64.powi(129));
    }

    #[test]
    fn shifts_roundtrip() {
        let a = UBig::from(0xDEAD_BEEF_u64);
        assert_eq!(a.shl(0), a);
        assert_eq!(a.shl(64).shr(64), a);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shl(7).shr(3), UBig::from(0xDEAD_BEEF_u64 << 4));
        assert_eq!(a.shr(200), UBig::zero());
        assert_eq!(UBig::zero().shl(17), UBig::zero());
        assert_eq!(UBig::from(1u64).shl(100), UBig::from(1u128 << 100));
    }

    #[test]
    fn power_of_two_and_trailing_zeros() {
        assert_eq!(UBig::from(1u128 << 90).trailing_zeros(), 90);
        assert_eq!(UBig::from(12u64).trailing_zeros(), 2);
        assert_eq!(UBig::zero().trailing_zeros(), 0);
    }

    #[test]
    fn full_mul_matches_u128() {
        let a = UBig::from(0xFFFF_FFFF_FFFF_FFFBu64);
        let b = UBig::from(0xFFFF_FFFF_FFFF_FFC5u64);
        assert_eq!(
            a.mul(&b),
            UBig::from(0xFFFF_FFFF_FFFF_FFFBu128 * 0xFFFF_FFFF_FFFF_FFC5u128)
        );
        // Multi-limb: (2^100 + 3)·(2^90 + 7) = 2^190 + 7·2^100 + 3·2^90 + 21.
        let x = UBig::from((1u128 << 100) + 3);
        let y = UBig::from((1u128 << 90) + 7);
        let expect = UBig::from(1u64)
            .shl(190)
            .add(&UBig::from(7u64).shl(100))
            .add(&UBig::from(3u64).shl(90))
            .add(&UBig::from(21u64));
        assert_eq!(x.mul(&y), expect);
        assert_eq!(x.mul(&UBig::zero()), UBig::zero());
        assert_eq!(x.mul(&UBig::one()), x);
    }

    #[test]
    fn div_rem_single_limb() {
        let a = UBig::from(1u128 << 100);
        let (q, r) = a.div_rem_u64(97);
        assert_eq!(q.mul_u64(97).add(&UBig::from(r)), a);
        assert!(r < 97);
        let (q, r) = UBig::from(12345u64).div_rem_u64(100);
        assert_eq!(q, UBig::from(123u64));
        assert_eq!(r, 45);
        // Nested floor division equals division by the product.
        let x = UBig::from(0xABCD_EF01_2345_6789u128 << 40);
        let (q1, _) = x.div_rem_u64(1_000_003);
        let (q2, _) = q1.div_rem_u64(999_983);
        let (qp, _) = x.div_rem_u64(1_000_003); // recompute for clarity
        assert_eq!(q2, qp.div_rem_u64(999_983).0);
    }

    #[test]
    fn u128_extraction() {
        assert_eq!(UBig::zero().to_u128(), Some(0));
        assert_eq!(UBig::from(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!(UBig::from(1u64).shl(128).to_u128(), None);
    }

    #[test]
    fn byte_encoding_roundtrip() {
        for x in [
            UBig::zero(),
            UBig::from(1u64),
            UBig::from(u128::MAX),
            UBig::from(0xAB_CDEFu64).shl(200),
        ] {
            assert_eq!(UBig::from_le_bytes(&x.to_le_bytes()), x);
        }
        assert_eq!(UBig::from(0x0102u64).to_le_bytes(), vec![0x02, 0x01]);
        assert_eq!(
            UBig::from_le_bytes(&[0x02, 0x01, 0, 0]),
            UBig::from(0x0102u64)
        );
    }

    #[test]
    fn display_decimal() {
        assert_eq!(UBig::zero().to_string(), "0");
        assert_eq!(UBig::from(12345u64).to_string(), "12345");
        assert_eq!(
            UBig::from(u128::MAX).to_string(),
            "340282366920938463463374607431768211455"
        );
        assert_eq!(
            UBig::from(10_000_000_000_000_000_000u64)
                .mul_u64(10)
                .to_string(),
            "100000000000000000000"
        );
    }
}
