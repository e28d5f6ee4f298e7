//! Element-wise polynomial operations over `Z_q` — the SIMD workload of
//! the paper's Modular Streaming Engine (MSE).
//!
//! Polynomials in NTT (evaluation) domain multiply point-wise, so every
//! client-side ciphertext operation after the transforms reduces to
//! these vector operations. Here each is a plain loop over the
//! [`Modulus`] ops: the oracle [`crate::dyadic::DyadicEngine`], which
//! runs them, is checked against, sharing no reducer with it.

use crate::modulus::Modulus;

/// `out[i] = (a[i] + b[i]) mod q`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn add_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.add(*x, y);
    }
}

/// `out[i] = (a[i] - b[i]) mod q`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn sub_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.sub(*x, y);
    }
}

/// `out[i] = (a[i] * b[i]) mod q` (dyadic product in NTT domain), one
/// [`Modulus::mul`] per element. Hot paths use
/// [`crate::dyadic::DyadicEngine::mul_assign`], bit-identical and
/// checked against this.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn mul_assign(m: &Modulus, a: &mut [u64], b: &[u64]) {
    assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x = m.mul(*x, y);
    }
}

/// `a[i] = (a[i] * b[i] + c[i]) mod q` — decryption's `c1·s + c0`
/// shape — one `Modulus::mul_add` per element.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn mul_add_assign(m: &Modulus, a: &mut [u64], b: &[u64], c: &[u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
        *x = m.mul_add(*x, y, z);
    }
}

/// `a[i] = -a[i] mod q`.
pub fn neg_assign(m: &Modulus, a: &mut [u64]) {
    for x in a.iter_mut() {
        *x = m.neg(*x);
    }
}

/// `a[i] = (a[i] * s) mod q` for any scalar `s` (reduced on entry, as
/// every scalar the dyadic engine takes is), one [`Modulus::mul`] per
/// element.
pub fn scalar_mul_assign(m: &Modulus, a: &mut [u64], s: u64) {
    let s = m.reduce(s);
    for x in a.iter_mut() {
        *x = m.mul(*x, s);
    }
}

/// Negacyclic *schoolbook* polynomial multiplication in `Z_q[X]/(X^N + 1)`,
/// `O(N^2)`. This is the reference against which the NTT path is tested —
/// it must stay independent of the transform code.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
#[allow(clippy::needless_range_loop)] // positional schoolbook indices (k = i + j wrap)
pub fn negacyclic_mul_schoolbook(m: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        for j in 0..n {
            let p = m.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                out[k] = m.add(out[k], p);
            } else {
                // X^N = -1 wraps with a sign flip.
                out[k - n] = m.sub(out[k - n], p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Modulus {
        Modulus::new(97).unwrap()
    }

    #[test]
    fn elementwise_ops() {
        let m = m();
        let mut a = vec![10, 90, 0, 96];
        add_assign(&m, &mut a, &[10, 10, 0, 1]);
        assert_eq!(a, vec![20, 3, 0, 0]);
        sub_assign(&m, &mut a, &[21, 3, 1, 0]);
        assert_eq!(a, vec![96, 0, 96, 0]);
        mul_assign(&m, &mut a, &[2, 5, 0, 9]);
        assert_eq!(a, vec![95, 0, 0, 0]);
        neg_assign(&m, &mut a);
        assert_eq!(a, vec![2, 0, 0, 0]);
        scalar_mul_assign(&m, &mut a, 50);
        assert_eq!(a, vec![3, 0, 0, 0]);
    }

    #[test]
    fn fused_mul_add() {
        let m = m();
        let mut a = vec![3, 96];
        mul_add_assign(&m, &mut a, &[4, 2], &[1, 10]);
        assert_eq!(a, vec![13, (96 * 2 + 10) % 97]);
    }

    #[test]
    fn scalar_mul_accepts_unreduced_scalars() {
        // s ≥ q is reduced on entry, up to the widest modulus: pin
        // s = q and s = u64::MAX against the `u128 %` model.
        for q in [97u64, 0xFFF_FFFF_C001, (1 << 62) - 57] {
            let m = Modulus::new(q).unwrap();
            let a0: Vec<u64> = vec![0, 1, q / 2, q - 1];
            for s in [q, q + 1, u64::MAX] {
                let mut a = a0.clone();
                scalar_mul_assign(&m, &mut a, s);
                for (got, &x) in a.iter().zip(&a0) {
                    let want = (x as u128 * (s % q) as u128 % q as u128) as u64;
                    assert_eq!(*got, want, "q={q} s={s} x={x}");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let m = m();
        let mut a = vec![1, 2];
        add_assign(&m, &mut a, &[1]);
    }

    #[test]
    fn schoolbook_negacyclic_wraps_sign() {
        let m = m();
        // (X) * (X) = X^2 in Z[X]/(X^2+1) => -1
        let out = negacyclic_mul_schoolbook(&m, &[0, 1], &[0, 1]);
        assert_eq!(out, vec![96, 0]);
        // (1 + X)(1 + X) = 1 + 2X + X^2 = 2X in Z[X]/(X^2+1)
        let out = negacyclic_mul_schoolbook(&m, &[1, 1], &[1, 1]);
        assert_eq!(out, vec![0, 2]);
    }

    #[test]
    fn schoolbook_identity() {
        let m = m();
        let a = vec![5, 7, 11, 13];
        let mut one = vec![0u64; 4];
        one[0] = 1;
        assert_eq!(negacyclic_mul_schoolbook(&m, &a, &one), a);
    }
}
