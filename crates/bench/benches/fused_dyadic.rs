//! Criterion benchmarks for the single-pass fused element-wise layer:
//! each fused chain kernel against the unfused op sequence it replaces,
//! on every `DyadicEngine` backend at N = 2^12…2^16.
//!
//! Two shapes carry the acceptance headline (fused ≥ 1.5× unfused at
//! N = 2^15):
//!
//! * `mul_neg_add2` — the symmetric-encrypt c0 chain
//!   `c0 = e + m − a·s`, one pass instead of mul + neg + add + add;
//! * `sub_scalar_mul` — the rescale kernel
//!   `kept = (kept − tail)·q_last⁻¹`, one pass instead of sub + scalar
//!   mul.
//!
//! The general accumulate (`mul_acc` via premul, the key-switch inner
//! loop) rides along at the acceptance size.

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

fn bench_fused_dyadic(c: &mut Criterion) {
    // The paper's 36-bit prime width (q < 2^50, so IFMA applies).
    let m = Modulus::new(0xF_FFF0_0001).expect("prime");
    let q = m.q();
    let mut g = c.benchmark_group("fused_dyadic");
    for log_n in [12u32, 13, 14, 15, 16] {
        let n = 1usize << log_n;
        let a0 = pseudo(n, q, 1);
        let b = pseudo(n, q, 2);
        let cc = pseudo(n, q, 3);
        let d = pseudo(n, q, 4);
        let s = q - 12345;
        let mut buf = a0.clone();
        for (label, pref) in KERNELS {
            let engine = DyadicEngine::with_kernel(m, pref);
            // On hosts without IFMA the forced tier degrades to
            // Montgomery; label the row by what actually runs so the
            // JSON trajectory never reports a kernel it didn't measure.
            if engine.kernel_name() != label {
                continue;
            }
            // Symmetric-encrypt c0 shape: a = c + d − a·b.
            g.bench_with_input(
                BenchmarkId::new(format!("mul_neg_add2_fused_{label}"), n),
                &n,
                |bch, _| {
                    bch.iter(|| {
                        buf.copy_from_slice(&a0);
                        engine.mul_neg_add2_assign(black_box(&mut buf), &b, &cc, &d);
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("mul_neg_add2_unfused_{label}"), n),
                &n,
                |bch, _| {
                    bch.iter(|| {
                        buf.copy_from_slice(&a0);
                        let x = black_box(&mut buf);
                        engine.mul_assign(x, &b);
                        engine.neg_assign(x);
                        engine.add_assign(x, &cc);
                        engine.add_assign(x, &d);
                    })
                },
            );
            // Rescale shape: a = (a − b)·s.
            g.bench_with_input(
                BenchmarkId::new(format!("sub_scalar_mul_fused_{label}"), n),
                &n,
                |bch, _| {
                    bch.iter(|| {
                        buf.copy_from_slice(&a0);
                        engine.sub_scalar_mul_assign(black_box(&mut buf), &b, s);
                    })
                },
            );
            g.bench_with_input(
                BenchmarkId::new(format!("sub_scalar_mul_unfused_{label}"), n),
                &n,
                |bch, _| {
                    bch.iter(|| {
                        buf.copy_from_slice(&a0);
                        let x = black_box(&mut buf);
                        engine.sub_assign(x, &b);
                        engine.scalar_mul_assign(x, s);
                    })
                },
            );
        }
    }
    // Key-switch accumulate at the acceptance size only: acc += b·d with
    // d premultiplied once (amortized across the gadget digits).
    let n = 1usize << 15;
    let a0 = pseudo(n, q, 5);
    let b = pseudo(n, q, 6);
    let d = pseudo(n, q, 7);
    let mut buf = a0.clone();
    let mut t = vec![0u64; n];
    for (label, pref) in KERNELS {
        let engine = DyadicEngine::with_kernel(m, pref);
        if engine.kernel_name() != label {
            continue;
        }
        let mut d_pre = d.clone();
        engine.premul(&mut d_pre);
        g.bench_with_input(
            BenchmarkId::new(format!("mul_acc_fused_{label}"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    buf.copy_from_slice(&a0);
                    engine.mul_acc_assign_premul(black_box(&mut buf), &b, &d_pre);
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new(format!("mul_acc_unfused_{label}"), n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    buf.copy_from_slice(&a0);
                    t.copy_from_slice(&b);
                    let x = black_box(&mut buf);
                    engine.mul_assign_premul(&mut t, &d_pre);
                    engine.add_assign(x, &t);
                })
            },
        );
    }
    // Engine-level chain shape at the acceptance size: the real
    // symmetric-encrypt c0 chain is RNS-wide (many limbs at N = 2^15,
    // so the working set lives beyond L2) and the win is the eliminated
    // memory passes — one fused engine call versus the unfused call
    // sequence the site used to run.
    {
        use abc_transform::{LimbWork, RnsNttEngine};
        let n = 1usize << 15;
        let k = 8usize;
        let primes = abc_math::primes::generate_ntt_primes(36, k, 2 * n as u64).expect("primes");
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&q| Modulus::new(q).expect("modulus"))
            .collect();
        let engine = RnsNttEngine::with_threads(&moduli, n, 1).expect("engine");
        let gen = |salt: u64| -> Vec<Vec<u64>> {
            moduli
                .iter()
                .enumerate()
                .map(|(i, m)| pseudo(n, m.q(), salt + i as u64))
                .collect()
        };
        let (a0, b, cc, d) = (gen(11), gen(211), gen(3011), gen(40011));
        // The chain maps canonical residues to canonical residues and
        // its cost is data-oblivious, so the iterations compose in
        // place — no reset copy inflating either side.
        let mut buf = a0.clone();
        // Symmetric-encrypt c0: c0 = e + m − mask·s, one fused pass of
        // the limb combinator vs the mul/neg/add/add sequence of four
        // passes the call site used to run.
        g.bench_with_input(
            BenchmarkId::new("rns_mul_neg_add2_fused", n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    engine.for_each_limb(black_box(&mut buf), LimbWork::Elementwise, |i, p, x| {
                        p.dyadic().mul_neg_add2_assign(x, &b[i], &cc[i], &d[i])
                    });
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("rns_mul_neg_add2_unfused", n),
            &n,
            |bch, _| {
                bch.iter(|| {
                    let x = black_box(&mut buf);
                    let w = LimbWork::Elementwise;
                    engine.for_each_limb(x, w, |i, p, x| p.dyadic().mul_assign(x, &b[i]));
                    engine.for_each_limb(x, w, |_, p, x| p.dyadic().neg_assign(x));
                    engine.for_each_limb(x, w, |i, p, x| p.dyadic().add_assign(x, &cc[i]));
                    engine.for_each_limb(x, w, |i, p, x| p.dyadic().add_assign(x, &d[i]));
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fused_dyadic);
criterion_main!(benches);
