//! Criterion benchmarks for the supporting substrates: streaming vs
//! in-place transforms (the dataflow-model overhead), the on-chip PRNG,
//! and CRT recombination (the decode-side "other" work): the big-integer
//! Garner lift beside the word-sized verified lift decode runs.

use abc_math::rns::{Lifted, WordLift};
use abc_math::{primes::generate_ntt_primes, Modulus, RnsBasis};
use abc_prng::{chacha::ChaCha20, sampler::UniformSampler, Seed};
use abc_transform::{stream::StreamingNtt, NttPlan};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_streaming_vs_inplace(c: &mut Criterion) {
    let m = Modulus::new(0xF_FFF0_0001).expect("prime");
    let mut g = c.benchmark_group("ntt_dataflow");
    for log_n in [10u32, 12] {
        let n = 1usize << log_n;
        let plan = NttPlan::new(m, n).expect("plan");
        let mut streamer = StreamingNtt::from_plan(&plan).expect("streamer");
        let poly: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 3) % m.q()).collect();
        g.bench_with_input(BenchmarkId::new("in_place", n), &n, |b, _| {
            b.iter(|| {
                let mut a = poly.clone();
                plan.forward(black_box(&mut a));
                a
            })
        });
        g.bench_with_input(BenchmarkId::new("streaming_dataflow", n), &n, |b, _| {
            b.iter(|| streamer.transform(black_box(&poly)))
        });
    }
    g.finish();
}

fn bench_prng(c: &mut Criterion) {
    let mut g = c.benchmark_group("prng");
    g.bench_function("chacha20_block_throughput", |b| {
        let mut rng = ChaCha20::from_seed(Seed::from_u128(1));
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1024 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            acc
        })
    });
    g.bench_function("uniform_poly_1024", |b| {
        let m = Modulus::new(0xF_FFF0_0001).expect("prime");
        let mut s = UniformSampler::new(Seed::from_u128(2), 0);
        let mut buf = vec![0u64; 1024];
        b.iter(|| {
            s.sample_poly(&m, black_box(&mut buf));
            buf[0]
        })
    });
    g.finish();
}

fn bench_crt(c: &mut Criterion) {
    let mut g = c.benchmark_group("garner_crt");
    for primes in [2usize, 8, 24] {
        let basis = RnsBasis::new(generate_ntt_primes(36, primes, 1 << 14).expect("primes"))
            .expect("basis");
        let residues: Vec<u64> = basis
            .moduli()
            .iter()
            .map(|m| m.q() / 3 + primes as u64)
            .collect();
        g.bench_with_input(
            BenchmarkId::new("combine_centered", primes),
            &primes,
            |b, _| b.iter(|| basis.combine_centered(black_box(&residues))),
        );
        // One coefficient per limb, a value every residue check passes
        // (the decode case): Garner over the word prefix + verification.
        let rows: Vec<Vec<u64>> = basis
            .decompose_i128(-(1 << 72) / 3)
            .into_iter()
            .map(|r| vec![r])
            .collect();
        let lift = WordLift::new(basis.clone()).expect("36-bit primes");
        g.bench_with_input(
            BenchmarkId::new("word_lift_centered", primes),
            &primes,
            |b, _| {
                b.iter(|| {
                    let mut out = 0u128;
                    let fell_back = lift.lift_centered(black_box(&rows), |_, _, mag| {
                        if let Lifted::Word(mag) = mag {
                            out = mag;
                        }
                    });
                    (out, fell_back)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_streaming_vs_inplace, bench_prng, bench_crt);
criterion_main!(benches);
