//! The kernel ladder, as one table: forced tier × capability →
//! `kernel_name()` for the NTT, the dyadic engine, the special FFT and
//! the PRNG keystream.
//!
//! Each row fixes the facts only its layer knows (modulus width,
//! transform size, datapath, slot count) and names the kernel every
//! rung lands on. The CPU feature is the one fact a test cannot force:
//! the `Simd` column is what a host *with* the feature runs, and a host
//! without it must land on the `Scalar` column instead.

use abc_float::{ExtF64Field, F64Field, RealField, SoftFloatField};
use abc_math::dyadic::DyadicEngine;
use abc_math::primes::generate_ntt_primes;
use abc_math::KernelTier::{self, Auto, Reference, Scalar, Simd};
use abc_math::{CpuCaps, Modulus};
use abc_prng::{chacha::ChaCha20, Seed};
use abc_transform::{NttPlan, SpecialFft};

/// The tiers every row is built at; `Auto` is checked against whatever
/// it means in this process.
const TIERS: [KernelTier; 4] = [Simd, Scalar, Reference, Auto];

fn plans(q: u64, n: usize) -> [NttPlan; 4] {
    TIERS.map(|t| NttPlan::with_kernel(Modulus::new(q).expect("modulus"), n, t).expect("plan"))
}

fn ntt(q: u64, n: usize) -> [&'static str; 4] {
    plans(q, n).map(|p| p.kernel_name())
}

/// The dyadic engine an `NttPlan` carries.
fn carried(q: u64, n: usize) -> [&'static str; 4] {
    plans(q, n).map(|p| p.dyadic().kernel_name())
}

fn dyadic(q: u64) -> [&'static str; 4] {
    TIERS.map(|t| DyadicEngine::with_kernel(Modulus::new(q).expect("modulus"), t).kernel_name())
}

fn fft<F: RealField>(field: F, slots: usize) -> [&'static str; 4] {
    TIERS.map(|t| SpecialFft::with_field_kernel(field.clone(), slots, t).kernel_name())
}

/// The rung a PRNG keystream refills on.
fn keystream() -> [&'static str; 4] {
    TIERS.map(|t| {
        ChaCha20::from_seed(Seed::default())
            .with_kernel(t)
            .kernel_name()
    })
}

#[test]
fn every_layer_walks_the_same_ladder() {
    // The pure ladder: Auto and Simd take the first applicable rung,
    // Scalar never climbs, Reference never moves.
    for (tier, simd_ok, scalar_ok, want) in [
        (Auto, true, true, Simd),
        (Auto, false, true, Scalar),
        (Auto, false, false, Reference),
        (Simd, true, true, Simd),
        (Simd, false, true, Scalar),
        (Simd, false, false, Reference),
        (Scalar, true, true, Scalar),
        (Scalar, true, false, Reference),
        (Reference, true, true, Reference),
    ] {
        let got = tier.degrade(simd_ok, scalar_ok);
        assert_eq!(got, want, "{tier} simd_ok={simd_ok} scalar_ok={scalar_ok}");
    }

    // 36-bit: every rung applies. 55-bit: too wide for the 52-bit IFMA
    // lanes. 63-bit (4099·2^50 + 1): too wide for lazy Shoup butterflies.
    let q36 = 0xF_FFF0_0001u64;
    let q55 = generate_ntt_primes(55, 1, 128).expect("prime")[0];
    let q63 = 4615063718147915777u64;
    let (ifma, avx512f) = (CpuCaps::detect().ifma(), CpuCaps::detect().avx512f);
    // Kernel names on the [Simd, Scalar, Reference] rungs: each layer's
    // full ladder, and what is left of it once a layer fact rules the
    // SIMD (NTT: and then the scalar) rung out.
    let ntt_full = ["ifma", "harvey", "golden"];
    let ntt_no_simd = ["harvey", "harvey", "golden"];
    let dyadic_full = ["ifma", "montgomery", "golden"];
    let dyadic_no_simd = ["montgomery", "montgomery", "golden"];
    let fft_full = ["avx512", "scalar", "otf"];
    let fft_no_simd = ["scalar", "scalar", "otf"];
    // (row, host has the feature the layer's SIMD rung needs, names at
    // TIERS, expected ladder).
    let table = [
        ("ntt", ifma, ntt(q36, 64), ntt_full),
        ("ntt, n < 16", ifma, ntt(q36, 8), ntt_no_simd),
        ("ntt, q >= 2^50", ifma, ntt(q55, 64), ntt_no_simd),
        ("ntt, q >= 2^62", ifma, ntt(q63, 64), ["golden"; 3]),
        ("dyadic", ifma, dyadic(q36), dyadic_full),
        ("dyadic, q >= 2^50", ifma, dyadic(q55), dyadic_no_simd),
        ("dyadic, q >= 2^62", ifma, dyadic(q63), dyadic_no_simd),
        // The engine a plan carries sits on the plan's tier, degraded
        // by its own facts only: `n < 16` costs the NTT its SIMD rung,
        // not the dyadic engine.
        ("carried, n < 16", ifma, carried(q36, 8), dyadic_full),
        ("fft", avx512f, fft(F64Field, 64), fft_full),
        ("fft, slots < 8", avx512f, fft(F64Field, 4), fft_no_simd),
        (
            "fft, fp55",
            avx512f,
            fft(SoftFloatField::fp55(), 64),
            fft_no_simd,
        ),
        ("fft, extf64", avx512f, fft(ExtF64Field, 64), fft_no_simd),
        // The keystream's scalar rung is its own oracle: nothing below it.
        (
            "keystream",
            avx512f,
            keystream(),
            ["avx512", "scalar", "scalar"],
        ),
    ];
    // What `Auto` means in this process: the first rung, or whatever
    // `ABC_FHE_KERNEL` says (CI's forced-scalar pass runs this test too).
    let auto = match Auto.or_env() {
        Auto => 0,
        forced => TIERS.iter().position(|&t| t == forced).expect("a rung"),
    };
    for (row, feature, got, [simd, scalar, reference]) in table {
        // Forced `Simd` on a host without the feature lands on `Scalar`.
        let want = [if feature { simd } else { scalar }, scalar, reference];
        assert_eq!(got, [want[0], want[1], want[2], want[auto]], "{row}");
    }
}
