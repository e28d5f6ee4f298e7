//! Criterion benchmarks for the Fourier layer: negacyclic NTT — Harvey
//! fast path vs the golden scalar kernel vs on-the-fly twiddles —
//! batched RNS transforms at 1 and many threads, and the CKKS special
//! FFT: on-the-fly vs planned-twiddle, on the FP64, FP55 and ExtF64
//! datapaths.

use abc_float::{Complex, ExtF64Field, F64Field, RealField, SoftFloatField};
use abc_math::{primes::generate_ntt_primes, KernelTier, Modulus};
use abc_transform::{NttPlan, OtfTwiddleGen, RnsNttEngine, SpecialFft};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_ntt(c: &mut Criterion) {
    let m = abc_math::Modulus::new(0xF_FFF0_0001).expect("prime");
    let mut g = c.benchmark_group("ntt");
    for log_n in [12u32, 13, 14, 15, 16] {
        let n = 1usize << log_n;
        let plan = NttPlan::new(m, n).expect("plan");
        let poly: Vec<u64> = (0..n as u64).map(|i| i % m.q()).collect();
        // A preallocated buffer refreshed by memcpy per iteration keeps
        // the allocator (fresh mmap + page faults at these sizes) out
        // of the measurement for every variant below.
        let mut buf = vec![0u64; n];
        // Fast path: Shoup twiddles + lazy reduction (AVX-512IFMA when
        // the CPU has it, scalar Harvey otherwise — `kernel_name()`
        // says which; this box reports "ifma").
        g.bench_with_input(BenchmarkId::new("forward_table", n), &n, |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&poly);
                plan.forward(black_box(&mut buf));
            })
        });
        // The pre-Harvey scalar kernel (u128 widening multiply + divide
        // per twiddle), still reachable through the TwiddleSource path.
        g.bench_with_input(BenchmarkId::new("forward_golden", n), &n, |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&poly);
                plan.forward_with(plan.table(), black_box(&mut buf));
            })
        });
        g.bench_with_input(BenchmarkId::new("roundtrip_table", n), &n, |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&poly);
                plan.forward(&mut buf);
                plan.inverse(black_box(&mut buf));
            })
        });
        // OTF twiddle regeneration is O(log N) multiplies per twiddle —
        // too slow to sweep at every size.
        if log_n <= 14 {
            let otf = OtfTwiddleGen::with_psi(m, n, plan.table().psi()).expect("otf");
            g.bench_with_input(BenchmarkId::new("forward_otf", n), &n, |b, _| {
                b.iter(|| {
                    buf.copy_from_slice(&poly);
                    plan.forward_with(&otf, black_box(&mut buf));
                })
            });
        }
    }
    g.finish();
}

fn bench_rns_engine(c: &mut Criterion) {
    // The client-pipeline shape: one polynomial, many RNS limbs.
    const LIMBS: usize = 8;
    let mut g = c.benchmark_group("rns_ntt");
    for log_n in [12u32, 13, 14, 15, 16] {
        let n = 1usize << log_n;
        let moduli: Vec<Modulus> = generate_ntt_primes(36, LIMBS, 1u64 << (log_n + 1))
            .expect("primes")
            .into_iter()
            .map(|q| Modulus::new(q).expect("valid"))
            .collect();
        let limbs: Vec<Vec<u64>> = moduli
            .iter()
            .enumerate()
            .map(|(i, m)| (0..n as u64).map(|j| (j * 31 + i as u64) % m.q()).collect())
            .collect();
        let mut bufs = limbs.clone();
        for threads in [1usize, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            let id = BenchmarkId::new(format!("forward_8limbs_t{threads}"), n);
            g.bench_with_input(id, &n, |b, _| {
                b.iter(|| {
                    for (dst, src) in bufs.iter_mut().zip(&limbs) {
                        dst.copy_from_slice(src);
                    }
                    engine.forward_all(black_box(&mut bufs));
                })
            });
        }
    }
    g.finish();
}

/// One datapath's forward/OTF/engine sweep at a given slot count.
fn bench_fft_field<F: RealField>(
    g: &mut criterion::BenchmarkGroup,
    field: F,
    label: &str,
    slots: usize,
    with_otf: bool,
) {
    let plan = SpecialFft::with_field(field.clone(), slots);
    let vals: Vec<Complex<F::Real>> = (0..slots)
        .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()).lift_in(&field))
        .collect();
    let mut buf = vals.clone();
    // Planned-twiddle kernel through the Auto dispatch (avx512 on this
    // datapath/CPU where eligible, scalar otherwise).
    g.bench_with_input(
        BenchmarkId::new(format!("forward_planned_{label}"), slots),
        &slots,
        |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&vals);
                plan.forward(black_box(&mut buf));
            })
        },
    );
    // When Auto dispatched past the scalar kernel, pin a forced-scalar
    // row too so the vector speedup is measured in the same sweep.
    if plan.kernel_name() != "scalar" {
        let scalar = SpecialFft::with_field_kernel(field.clone(), slots, KernelTier::Scalar);
        g.bench_with_input(
            BenchmarkId::new(format!("forward_scalar_{label}"), slots),
            &slots,
            |b, _| {
                b.iter(|| {
                    buf.copy_from_slice(&vals);
                    scalar.forward(black_box(&mut buf));
                })
            },
        );
    }
    // The seed's on-the-fly kernel: two trig evaluations per butterfly.
    if with_otf {
        g.bench_with_input(
            BenchmarkId::new(format!("forward_otf_{label}"), slots),
            &slots,
            |b, _| {
                b.iter(|| {
                    buf.copy_from_slice(&vals);
                    plan.forward_otf(black_box(&mut buf));
                })
            },
        );
    }
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("special_fft");
    for log_slots in [11u32, 12, 13, 14] {
        let slots = 1usize << log_slots;
        // OTF at every size: the planned-vs-OTF ratio is the headline
        // (acceptance: planned ≥ 3× OTF at N = 2^15, i.e. 2^14 slots).
        bench_fft_field(&mut g, F64Field, "fp64", slots, true);
        // Reduced and extended datapaths: planned only at the
        // small sizes (ExtF64 OTF regenerates 192-bit fixed-point
        // twiddles per butterfly — benchmarked once, below).
        if log_slots <= 12 {
            bench_fft_field(&mut g, SoftFloatField::fp55(), "fp55", slots, false);
            bench_fft_field(&mut g, ExtF64Field, "extf64", slots, log_slots == 11);
        }
    }
    g.finish();
}

criterion_group!(benches, bench_ntt, bench_rns_engine, bench_fft);
criterion_main!(benches);
