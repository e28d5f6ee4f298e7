//! The kernel ladder, as one table: forced tier × capability →
//! `kernel_name()` for the NTT, the dyadic engine, the CRT lift, the
//! special FFT and the PRNG keystream.
//!
//! Each row fixes the facts only its layer knows (modulus width,
//! transform size, datapath, slot count) and names the kernel every
//! rung lands on. The CPU feature is the one fact a test cannot force:
//! the `Simd` column is what a host *with* the feature runs, and a host
//! without it must land on the `Scalar` column instead.

use abc_float::{ExtF64Field, F64Field, RealField, SoftFloatField};
use abc_math::dyadic::DyadicEngine;
use abc_math::primes::generate_ntt_primes;
use abc_math::rns::WordLift;
use abc_math::KernelTier::{self, Auto, Scalar, Simd};
use abc_math::{CpuCaps, Modulus, RnsBasis};
use abc_prng::{chacha::ChaCha20, Seed};
use abc_transform::{NttPlan, SpecialFft};

/// The tiers every row is built at; `Auto` is checked against whatever
/// it means in this process.
const TIERS: [KernelTier; 3] = [Simd, Scalar, Auto];

fn plans(q: u64, n: usize) -> [NttPlan; 3] {
    TIERS.map(|t| NttPlan::with_kernel(Modulus::new(q).expect("modulus"), n, t).expect("plan"))
}

fn ntt(q: u64, n: usize) -> [&'static str; 3] {
    plans(q, n).map(|p| p.kernel_name())
}

/// The dyadic engine an `NttPlan` carries.
fn carried(q: u64, n: usize) -> [&'static str; 3] {
    plans(q, n).map(|p| p.dyadic().kernel_name())
}

fn dyadic(q: u64) -> [&'static str; 3] {
    TIERS.map(|t| DyadicEngine::with_kernel(Modulus::new(q).expect("modulus"), t).kernel_name())
}

/// The rung decode's CRT lift of `primes` runs on.
fn lift(primes: &[u64]) -> [&'static str; 3] {
    let basis = RnsBasis::new(primes.to_vec()).expect("coprime primes");
    TIERS.map(|t| WordLift::with_kernel(basis.clone(), t).kernel_name())
}

fn fft<F: RealField>(field: F, slots: usize) -> [&'static str; 3] {
    TIERS.map(|t| SpecialFft::with_field_kernel(field.clone(), slots, t).kernel_name())
}

/// The rung a PRNG keystream refills on.
fn keystream() -> [&'static str; 3] {
    TIERS.map(|t| {
        ChaCha20::from_seed(Seed::default())
            .with_kernel(t)
            .kernel_name()
    })
}

#[test]
fn every_layer_walks_the_same_ladder() {
    // The pure ladder: Auto and Simd take the SIMD rung where it
    // applies, and Scalar never climbs.
    for (tier, simd_ok, want) in [
        (Auto, true, Simd),
        (Auto, false, Scalar),
        (Simd, true, Simd),
        (Simd, false, Scalar),
        (Scalar, true, Scalar),
        (Scalar, false, Scalar),
    ] {
        assert_eq!(tier.degrade(simd_ok), want, "{tier} simd_ok={simd_ok}");
    }

    // 36-bit: both rungs apply. 55-bit: too wide for the 52-bit IFMA
    // lanes.
    let q36 = 0xF_FFF0_0001u64;
    let q55 = generate_ntt_primes(55, 1, 128).expect("prime")[0];
    let q39 = generate_ntt_primes(39, 1, 128).expect("prime")[0];
    let (ifma, avx512f) = (CpuCaps::detect().ifma(), CpuCaps::detect().avx512f);
    // Kernel names on the [Simd, Scalar] rungs: each layer's full
    // ladder, and what is left of it once a layer fact rules the SIMD
    // rung out.
    let ntt_full = ["ifma", "harvey"];
    let ntt_no_simd = ["harvey", "harvey"];
    let dyadic_full = ["ifma", "montgomery"];
    let dyadic_no_simd = ["montgomery", "montgomery"];
    let fft_full = ["avx512", "scalar"];
    let fft_no_simd = ["scalar", "scalar"];
    // (row, host has the feature the layer's SIMD rung needs, names at
    // TIERS, expected ladder).
    let table = [
        ("ntt", ifma, ntt(q36, 64), ntt_full),
        ("ntt, n < 16", ifma, ntt(q36, 8), ntt_no_simd),
        ("ntt, q >= 2^50", ifma, ntt(q55, 64), ntt_no_simd),
        ("dyadic", ifma, dyadic(q36), dyadic_full),
        ("dyadic, q >= 2^50", ifma, dyadic(q55), dyadic_no_simd),
        // The engine a plan carries sits on the plan's tier, degraded
        // by its own facts only: `n < 16` costs the NTT its SIMD rung,
        // not the dyadic engine.
        ("carried, n < 16", ifma, carried(q36, 8), dyadic_full),
        // One modulus past the IFMA lanes takes the whole lift off the
        // vector rung.
        ("lift", ifma, lift(&[q39, q36]), ["ifma", "scalar"]),
        (
            "lift, q >= 2^50",
            ifma,
            lift(&[q39, q55]),
            ["scalar", "scalar"],
        ),
        ("fft", avx512f, fft(F64Field, 64), fft_full),
        ("fft, slots < 8", avx512f, fft(F64Field, 4), fft_no_simd),
        (
            "fft, fp55",
            avx512f,
            fft(SoftFloatField::fp55(), 64),
            fft_no_simd,
        ),
        ("fft, extf64", avx512f, fft(ExtF64Field, 64), fft_no_simd),
        ("keystream", avx512f, keystream(), ["avx512", "scalar"]),
    ];
    // What `Auto` means in this process: the first rung, or whatever
    // `ABC_FHE_KERNEL` says (CI's forced-scalar pass runs this test too).
    let auto = match Auto.or_env() {
        Auto => 0,
        forced => TIERS.iter().position(|&t| t == forced).expect("a rung"),
    };
    for (row, feature, got, [simd, scalar]) in table {
        // Forced `Simd` on a host without the feature lands on `Scalar`.
        let want = [if feature { simd } else { scalar }, scalar];
        assert_eq!(got, [want[0], want[1], want[auto]], "{row}");
    }
}
