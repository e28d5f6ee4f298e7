//! Criterion benchmarks for the element-wise (dyadic) polynomial
//! kernels — the post-transform ciphertext workload of the Modular
//! Streaming Engine.
//!
//! Sweeps `mul_assign` over every `DyadicEngine` kernel (golden `u128 %`
//! reference, scalar Montgomery, and the AVX-512IFMA radix-2^52 REDC)
//! at N = 2^12…2^16, plus the fused `mul_add_assign` and the Shoup/IFMA
//! `scalar_mul_assign` at N = 2^15.

use abc_math::dyadic::DyadicEngine;
use abc_math::{KernelTier, Modulus};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// The kernels swept, with the tier that forces each.
const KERNELS: [(&str, KernelTier); 3] = [
    ("golden", KernelTier::Reference),
    ("montgomery", KernelTier::Scalar),
    ("ifma", KernelTier::Simd),
];

fn pseudo(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % q
        })
        .collect()
}

fn bench_poly_dyadic(c: &mut Criterion) {
    // The paper's 36-bit prime width (q < 2^50, so IFMA applies).
    let m = Modulus::new(0xF_FFF0_0001).expect("prime");
    let q = m.q();
    let mut g = c.benchmark_group("poly_dyadic");
    for log_n in [12u32, 13, 14, 15, 16] {
        let n = 1usize << log_n;
        let a0 = pseudo(n, q, 1);
        let b = pseudo(n, q, 2);
        let mut buf = a0.clone();
        for (label, pref) in KERNELS {
            let engine = DyadicEngine::with_kernel(m, pref);
            // On hosts without IFMA the forced tier degrades to
            // Montgomery; label the row by what actually runs so the
            // JSON trajectory never reports a kernel it didn't measure.
            if engine.kernel_name() != label {
                continue;
            }
            g.bench_with_input(
                BenchmarkId::new(format!("mul_assign_{label}"), n),
                &n,
                |bch, _| {
                    bch.iter(|| {
                        buf.copy_from_slice(&a0);
                        engine.mul_assign(black_box(&mut buf), &b);
                    })
                },
            );
        }
    }
    // Fused and scalar variants at the acceptance size only.
    let n = 1usize << 15;
    let a0 = pseudo(n, q, 3);
    let b = pseudo(n, q, 4);
    let cc = pseudo(n, q, 5);
    let s = q - 12345;
    let mut buf = a0.clone();
    for (label, pref) in KERNELS {
        let engine = DyadicEngine::with_kernel(m, pref);
        if engine.kernel_name() != label {
            continue;
        }
        g.bench_with_input(
            BenchmarkId::new(format!("mul_add_assign_{label}"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    buf.copy_from_slice(&a0);
                    engine.mul_add_assign(black_box(&mut buf), &b, &cc);
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new(format!("scalar_mul_assign_{label}"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    buf.copy_from_slice(&a0);
                    engine.scalar_mul_assign(black_box(&mut buf), s);
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_poly_dyadic);
criterion_main!(benches);
