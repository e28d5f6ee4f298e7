//! Golden-value regression tests for the Table I reducers: every
//! constant in this file was computed *outside* the workspace (Python
//! big-integer arithmetic; derivations quoted inline), so these tests pin
//! the three [`ModMul`] strategies and the shift-add networks against an
//! independent reference rather than against the crates' own arithmetic.

use abc_hw::reduce::{csd, ModMul, NttFriendlyMontgomery};
use abc_math::reduce::{Barrett, Montgomery};
use abc_math::Modulus;

/// The paper's structured primes used throughout: 2^44−2^14+1,
/// 2^36−2^20+1, 2^32−2^20+1.
const Q44: u64 = 0xFFF_FFFF_C001;
const Q36: u64 = 0xF_FFF0_0001;
const Q32: u64 = 0xFFF0_0001;

/// Pinned products `a·b mod q` for `a = 0x1234_5678_9ABC mod q`,
/// `b = 0xFEDC_BA98_7654 mod q` (Python: `a * b % q`).
const MUL_GOLDEN: [(u64, u64); 3] = [
    (Q44, 0xD2_EDBB_2E11),
    (Q36, 0x2_E5FD_1BB0),
    (Q32, 0x5A8B_3083),
];

#[test]
fn reducers_match_independent_products() {
    for (q, expected) in MUL_GOLDEN {
        let m = Modulus::new(q).expect("modulus");
        let a = 0x1234_5678_9ABCu64 % q;
        let b = 0xFEDC_BA98_7654u64 % q;
        assert_eq!(m.mul(a, b), expected, "reference u128 path, q={q:#x}");
        assert_eq!(Barrett::new(m).mul_mod(a, b), expected, "Barrett, q={q:#x}");
        assert_eq!(
            Montgomery::new(m).mul_mod(a, b),
            expected,
            "Montgomery, q={q:#x}"
        );
        assert_eq!(
            NttFriendlyMontgomery::new(m)
                .expect("structured")
                .mul_mod(a, b),
            expected,
            "NTT-friendly Montgomery, q={q:#x}"
        );
    }
}

#[test]
fn reducers_match_on_boundary_values() {
    // (q−1)² ≡ 1 (mod q) for every q — and 0/1 edge cases.
    for q in [Q44, Q36, Q32] {
        let m = Modulus::new(q).expect("modulus");
        let mont = Montgomery::new(m);
        let barrett = Barrett::new(m);
        let nf = NttFriendlyMontgomery::new(m).expect("structured");
        for r in [&barrett as &dyn ModMul, &mont, &nf] {
            assert_eq!(r.mul_mod(q - 1, q - 1), 1, "(q-1)^2 mod q, q={q:#x}");
            assert_eq!(r.mul_mod(0, q - 1), 0);
            assert_eq!(r.mul_mod(1, q - 1), q - 1);
        }
    }
}

#[test]
fn shift_add_network_shapes_are_pinned() {
    // The paper's area argument rests on these CSD weights (Python:
    // CSD of -q^{-1} mod 2^r and of q, r = bits(q)+2).
    let cases = [
        // (q, radix_bits, qinv_csd_weight, q_csd_weight, total_adders)
        (Q44, 46, 5, 3, 6),
        (Q36, 38, 3, 3, 4),
        (Q32, 34, 3, 3, 4),
    ];
    for (q, r, w_qinv, w_q, adders) in cases {
        let nf = NttFriendlyMontgomery::new(Modulus::new(q).expect("modulus"))
            .expect("structured prime");
        assert_eq!(nf.radix_bits(), r, "radix, q={q:#x}");
        assert_eq!(nf.csd_weight(), w_qinv, "Q^-1 network, q={q:#x}");
        assert_eq!(nf.q_csd_weight(), w_q, "Q network, q={q:#x}");
        assert_eq!(nf.total_adders(), adders, "adders, q={q:#x}");
    }
}

#[test]
fn csd_of_structured_primes_is_three_terms() {
    // q = 2^bw − 2^t + 1 decomposes as exactly {+2^bw, −2^t, +2^0}.
    for (q, bw, t) in [(Q44, 44, 14), (Q36, 36, 20), (Q32, 32, 20)] {
        let terms = csd(q);
        assert_eq!(terms.len(), 3, "q={q:#x}");
        let mut pairs: Vec<(i8, u32)> = terms.iter().map(|c| (c.sign, c.shift)).collect();
        pairs.sort_by_key(|&(_, s)| s);
        assert_eq!(pairs, vec![(1, 0), (-1, t), (1, bw)], "q={q:#x}");
    }
}
