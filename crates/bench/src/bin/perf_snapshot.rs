//! The workspace's kernel timer: a fast machine-readable perf +
//! precision snapshot for CI artifacts.
//!
//! ```text
//! cargo run --release -p abc-bench --bin perf_snapshot -- [OUT.json [BEFORE.json]]
//! ```
//!
//! Times the kernels (NTT fast path and its oracle, every dyadic shape
//! on every tier, the batched RNS engine, RNS expansion and the CRT
//! lifts, the PRNG keystream on both rungs and the Gaussian sampler,
//! wire packing, the embedding FFT ladder and datapaths) with
//! short measurement windows, measures the round-trip precision of both
//! scale modes at the smallest bootstrappable ring, and writes
//! everything to one JSON file (default `BENCH_snapshot.json`). It is
//! the only harness that times a kernel — a number a README sentence
//! quotes is a row here. Whole-op client timings are not here:
//! `benchmark/` owns them (its four workloads, with a host header and
//! per-layer rows).
//!
//! ```json
//! {
//!   "benches":    [{"id": ..., "mean_ns": ..., "median_ns": ..., "p95_ns": ..., "iters": ...}],
//!   "throughput": [{"id": ..., "bytes_per_op": ..., "median_ns": ..., "gib_per_s": ...}],
//!   "precision":  [{"id": ..., "log_n": ..., "scale_mode": ..., "precision_bits": ..., "paper_floor": 19.29}],
//!   "steady":     [{"id": ..., "ops": ..., "ms": ..., "pool_misses_per_op": ..., "minor_faults_per_op": ..., "sys_ms_per_op": ...}],
//!   "reference_spread": {"rows": ..., "min_ratio": ..., "max_ratio": ...},
//!   "before":     [{"id": ..., "parent_median_ns": ..., "median_ns": ..., "ratio": ...}]
//! }
//! ```
//!
//! The last two sections are written when BEFORE.json is given.
//!
//! The `"steady"` rows run a whole client op — every limb dropped inside
//! it — back to back after a warm-up, and report what no timer shows:
//! limb-pool misses per op, and (on Linux, from `/proc/self/stat`; absent
//! elsewhere) minor page faults and kernel CPU time per op. A miss count
//! is an exact function of the commit: the binary **exits non-zero** if
//! a steady row's is not 0, after writing the file. Timings and fault
//! counts are reported, not gated — with one exception, a ratio of two
//! medians of the same run: on the IFMA rung the binary also exits
//! non-zero if `ntt/forward_stream_macc/2^16` (encrypt's limb body as
//! one streamed transform) is not faster than
//! `ntt/expand_forward_macc/2^16` (the same operands through expand,
//! transform and one multiply–accumulate pass).
//!
//! The set of row ids is the other exact function of the commit: run
//! from the repository root, the binary reads the committed
//! `BENCH_snapshot.json` before it writes anything and **exits
//! non-zero** (again after writing) if a `benches`,
//! `precision` or `steady` id of that file is missing from the fresh
//! run — a row cannot vanish without the committed file being
//! regenerated in the same change. A kernel this host cannot run (no
//! AVX-512 IFMA) excuses its own rows.
//!
//! `BEFORE.json` is a snapshot this binary wrote from the parent commit
//! on the same host. For every `benches` id in both runs, `"before"`
//! holds the parent's median, this run's and their ratio (this run over
//! the parent). `"reference_spread"` is the least and the greatest of
//! that ratio over the **reference rows** — the oracles and scalar
//! rungs (ids with `golden`, `_scalar`, `_montgomery`, `bigint` or
//! `otf`), whose code a kernel change does not touch — so it is what
//! two runs of the same code differ by on this host, in the same two
//! processes. One pair of runs shows a change to a row only when the
//! row's ratio lies outside that spread; inside it, the pair cannot tell
//! the row from noise. The `rns/lift_*` and `rns/expand_*` rows are
//! nanoseconds per coefficient (all limbs), the `wire/*` rows
//! nanoseconds per residue, the `prng/chacha20_blocks_*` rows
//! nanoseconds per 64-byte block; every other row is per call.
//!
//! The whole run stays under ~50 s so it can ride along on every CI
//! push — this is the repo's perf trajectory, archived as an artifact.

use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::precision::{
    measure_configured_precision, measure_embedding_precision, measure_precision,
};
use abc_ckks::CkksContext;
use abc_float::{Complex, ExtF64, ExtF64Field, F64Field, RealField, SoftFloatField};
use abc_math::dyadic::{DyadicEngine, Tail};
use abc_math::rns::{SignedCoeffs, SignedWord, WordLift, LIFT_BLOCK};
use abc_math::KernelTier;
use abc_prng::chacha::{chacha20_block, chacha20_blocks, BLOCKS};
use abc_prng::sampler::{GaussianSampler, TernarySampler};
use abc_prng::Seed;
use abc_transform::{NttPlan, RnsNttEngine, SpecialFft};
use std::cell::RefCell;
use std::time::Instant;

/// The committed snapshot, relative to the repository root.
const COMMITTED: &str = "BENCH_snapshot.json";

/// One finished measurement: a row of the `"benches"` array.
struct BenchRecord {
    /// `group/function/parameter`.
    id: String,
    mean_secs: f64,
    /// Nearest-rank percentiles over the per-call times.
    median_secs: f64,
    p95_secs: f64,
    iters: u64,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        format!(
            "  {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"iters\": {}}}",
            self.id,
            self.mean_secs * 1e9,
            self.median_secs * 1e9,
            self.p95_secs * 1e9,
            self.iters
        )
    }
}

/// Times `f` repeatedly for ~`budget_ms`, returning a [`BenchRecord`]
/// with nearest-rank median/p95 over the per-call times.
fn measure(id: &str, budget_ms: u64, f: impl FnMut()) -> BenchRecord {
    let [rec] = measure_alternately([id], budget_ms, [Box::new(f) as Box<dyn FnMut()>]);
    rec
}

/// [`measure`] for several bodies at once: one call of each per round,
/// in turn, so the rows of one call see the same host load and the
/// ratio of their medians is steadier than either median.
fn measure_alternately<const K: usize>(
    ids: [&str; K],
    budget_ms: u64,
    mut fs: [Box<dyn FnMut() + '_>; K],
) -> [BenchRecord; K] {
    // One warm-up call each (not sampled).
    fs.iter_mut().for_each(|f| f());
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    while start.elapsed() < budget || samples[0].len() < 5 {
        for (f, samples) in fs.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            f();
            samples.push(t.elapsed().as_secs_f64());
        }
        if samples[0].len() >= 10_000 {
            break;
        }
    }
    let mut samples = samples.into_iter();
    ids.map(|id| record(id, samples.next().expect("one sample set per id")))
}

/// The row of `id` from its per-call times.
fn record(id: &str, mut samples: Vec<f64>) -> BenchRecord {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let rank = |p: f64| samples[((p * samples.len() as f64).ceil() as usize).max(1) - 1];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    BenchRecord {
        id: id.to_owned(),
        mean_secs: mean,
        median_secs: rank(0.50),
        p95_secs: rank(0.95),
        iters: samples.len() as u64,
    }
}

/// Minor page faults (field 10 of `/proc/self/stat`) and kernel CPU
/// milliseconds (field 15, in `USER_HZ` = 100 ticks per second) of this
/// process so far, all threads; `None` where there is no `/proc`.
fn faults_and_sys_ms() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces: count from its `)`.
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    let minflt: f64 = fields.nth(7)?.parse().ok()?;
    let stime_ticks: f64 = fields.nth(4)?.parse().ok()?;
    Some((minflt, stime_ticks * 10.0))
}

/// One `"steady"` row: `op` (a whole client op at ring degree `n`, its
/// limbs dropped inside it) twice to warm the pool, then back to back
/// for ~`budget_ms`. Returns the JSON row and the pool misses per op.
fn steady_row(id: &str, n: usize, budget_ms: u64, mut op: impl FnMut()) -> (String, f64) {
    let misses = || abc_ckks::limb_pool::class_stats(n).map_or(0, |class| class.misses);
    op();
    op();
    let (misses0, proc0) = (misses(), faults_and_sys_ms());
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < budget || samples.len() < 5 {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let ops = samples.len() as f64;
    let misses_per_op = (misses() - misses0) as f64 / ops;
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let ms = samples[samples.len() / 2];
    let kernel = proc0
        .zip(faults_and_sys_ms())
        .map_or(String::new(), |(a, b)| {
            format!(
                ", \"minor_faults_per_op\": {:.1}, \"sys_ms_per_op\": {:.2}",
                (b.0 - a.0) / ops,
                (b.1 - a.1) / ops
            )
        });
    let row = format!(
        "  {{\"id\": \"{id}\", \"ops\": {ops}, \"ms\": {ms:.3}, \
         \"pool_misses_per_op\": {misses_per_op}{kernel}}}"
    );
    println!("{}", row.trim());
    (row, misses_per_op)
}

/// The rows of the `"benches"` array of a snapshot this binary wrote
/// (they hold no brackets, so the array ends at the first `]`).
fn bench_rows_of(snapshot: &str) -> &str {
    let key = "\"benches\": [";
    let start = snapshot.find(key).expect("snapshot has a benches array") + key.len();
    let len = snapshot[start..].find(']').expect("benches array ends");
    snapshot[start..start + len].trim_matches('\n')
}

/// The `(id, median_ns)` of every `"benches"` row of a snapshot.
fn medians_of(snapshot: &str) -> Vec<(&str, f64)> {
    fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
        let at = row.find(key)? + key.len();
        row[at..]
            .split([',', '"', '}'])
            .find(|s| !s.trim().is_empty())
    }
    bench_rows_of(snapshot)
        .lines()
        .filter_map(|row| {
            let median = field(row, "\"median_ns\":")?.trim().parse().ok()?;
            Some((field(row, "\"id\": \"")?, median))
        })
        .collect()
}

/// Whether a row times code a kernel change leaves alone: an oracle or
/// a scalar rung.
fn is_reference(id: &str) -> bool {
    ["golden", "_scalar", "_montgomery", "bigint", "otf"]
        .iter()
        .any(|k| id.contains(k))
}

/// The `"reference_spread"` and `"before"` sections comparing the
/// snapshot `change` with the snapshot `parent`: per `benches` id in
/// both, the two medians and their ratio (change over parent), and the
/// least and greatest ratio over the reference rows ([`is_reference`]).
fn compare(parent: &str, change: &str) -> String {
    let parent = medians_of(parent);
    let pairs: Vec<(&str, f64, f64)> = medians_of(change)
        .into_iter()
        .filter_map(|(id, median)| {
            let (_, before) = parent.iter().find(|(p, _)| *p == id)?;
            Some((id, *before, median))
        })
        .collect();
    let reference: Vec<f64> = pairs
        .iter()
        .filter(|(id, ..)| is_reference(id))
        .map(|&(_, before, after)| after / before)
        .collect();
    let min = reference.iter().copied().fold(f64::INFINITY, f64::min);
    let max = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let rows: Vec<String> = pairs
        .iter()
        .map(|&(id, before, after)| {
            format!(
                "  {{\"id\": \"{id}\", \"parent_median_ns\": {before:.1}, \
                 \"median_ns\": {after:.1}, \"ratio\": {:.3}}}",
                after / before
            )
        })
        .collect();
    format!(
        ",\n\"reference_spread\": {{\"rows\": {}, \"min_ratio\": {min:.3}, \"max_ratio\": {max:.3}}},\n\
         \"before\": [\n{}\n]",
        reference.len(),
        rows.join(",\n")
    )
}

/// Every row id of a snapshot outside its `"before"` array (the last
/// one, and the parent's rows rather than this commit's).
fn ids_of(snapshot: &str) -> Vec<&str> {
    let own = snapshot.split("\"before\": [").next().unwrap_or(snapshot);
    let key = "\"id\": \"";
    own.match_indices(key)
        .filter_map(|(at, _)| own[at + key.len()..].split('"').next())
        .collect()
}

/// One forced-scalar `special_fft` row on the datapath `field`: what the
/// planned kernel costs when the arithmetic is not the host's `f64`.
fn fft_scalar_row<F: RealField>(field: F, label: &str, slots: usize) -> BenchRecord {
    let plan = SpecialFft::with_field_kernel(field.clone(), slots, KernelTier::Scalar);
    let vals: Vec<Complex<F::Real>> = (0..slots)
        .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()).lift_in(&field))
        .collect();
    let mut buf = vals.clone();
    let id = format!("special_fft/forward_scalar_{label}/2^{}", slots.ilog2());
    measure(&id, 400, || {
        buf.copy_from_slice(&vals);
        plan.forward(&mut buf);
    })
}

/// One `precision/embedding_*` row: the embedding round trip and the
/// encrypted round trip of `ctx` with both embeddings on `field`'s
/// datapath. An exact round trip (every recovered slot re-rounds to its
/// original f64 — routine on ExtF64 at small N) measures ∞; both are
/// capped at 120 bits so the JSON stays finite.
fn embedding_precision_row<F: RealField>(ctx: &CkksContext, field: &F, seed: Seed) -> String {
    let label = field.name();
    let log_n = ctx.params().log_n();
    let embed_bits = measure_embedding_precision(ctx, field, 1, seed)
        .expect("measure")
        .min(120.0);
    let enc_bits = measure_configured_precision(ctx, field, 1, seed)
        .expect("measure")
        .min(120.0);
    println!(
        "precision/embedding_{label}/2^{log_n}       {embed_bits:.2} bits (encrypted {enc_bits:.2})"
    );
    format!(
        "  {{\"id\": \"precision/embedding_{label}/2^{log_n}\", \"log_n\": {log_n}, \"embedding\": \"{label}\", \
         \"embedding_bits\": {embed_bits:.3}, \"encrypted_bits\": {enc_bits:.3}, \"paper_floor\": 19.29}}"
    )
}

/// The full-slot message the client ops of this binary carry.
fn client_message(ctx: &CkksContext) -> Vec<Complex> {
    (0..ctx.params().slots())
        .map(|i| Complex::new((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
        .collect()
}

/// Message-sized coefficients: |x| < 2^73, as a Δ_eff = 2^72 payload
/// has.
fn message_sized_ints(n: usize) -> Vec<i128> {
    (0..n as i128)
        .map(|i| (i * 0x9E37_79B9_7F4A_7C15 % (1 << 74)) - (1 << 73))
        .collect()
}

/// One row of the `"throughput"` section.
fn throughput_row(id: &str, bytes: usize, median_secs: f64) -> String {
    let gib_s = bytes as f64 / median_secs / (1u64 << 30) as f64;
    format!(
        "  {{\"id\": \"{id}\", \"bytes_per_op\": {bytes}, \
         \"median_ns\": {:.1}, \"gib_per_s\": {gib_s:.2}}}",
        median_secs * 1e9
    )
}

/// Expansion of `coeffs` under every modulus through the dyadic engine
/// on `tier` (what the transform engine dispatches to), scan included,
/// as nanoseconds per coefficient.
fn expand_row<X: SignedWord>(
    id: &str,
    coeffs: &[X],
    moduli: &[abc_math::Modulus],
    tier: KernelTier,
) -> BenchRecord {
    let engines: Vec<DyadicEngine> = moduli
        .iter()
        .map(|&m| DyadicEngine::with_kernel(m, tier))
        .collect();
    let mut limb = Vec::with_capacity(coeffs.len());
    let rec = measure(id, 300, || {
        let src = SignedCoeffs::scan(std::hint::black_box(coeffs));
        for e in &engines {
            e.expand_into(&src, &mut limb);
            std::hint::black_box(&limb);
        }
    });
    per_coeff(rec, coeffs.len())
}

/// `rec` with its per-call times divided over `n` coefficients.
fn per_coeff(mut rec: BenchRecord, n: usize) -> BenchRecord {
    rec.mean_secs /= n as f64;
    rec.median_secs /= n as f64;
    rec.p95_secs /= n as f64;
    rec
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_snapshot.json".to_owned());
    let before = std::env::args()
        .nth(2)
        .map(|path| std::fs::read_to_string(&path).expect("read the BEFORE snapshot"));
    // Read before OUT.json is written: by default they are one file.
    let committed = std::fs::read_to_string(COMMITTED).ok();
    let mut benches = Vec::new();

    // --- NTT fast path, the paper's dominant kernel: both directions at
    // the gateway's, a mid-size and the paper's ring (at 2^16 the two
    // twiddle columns no longer fit L2; the inverse reads them
    // backwards); `forward_golden` is the plan's oracle (`u128` multiply
    // and a division per twiddle) over the same table ---
    type Transform = fn(&NttPlan, &mut [u64]);
    let forward = NttPlan::forward as Transform;
    let golden = NttPlan::forward_golden as Transform;
    let inverse = NttPlan::inverse as Transform;
    for (log_n, direction, transform) in [
        (13u32, "forward", forward),
        (13, "forward_golden", golden),
        (14, "forward", forward),
        (16, "forward", forward),
        (13, "inverse", inverse),
        (14, "inverse", inverse),
        (16, "inverse", inverse),
    ] {
        let n = 1usize << log_n;
        let q = abc_math::primes::generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
        let m = abc_math::Modulus::new(q).expect("modulus");
        let plan = NttPlan::new(m, n).expect("plan");
        let mut data: Vec<u64> = (0..n as u64).map(|i| i % q).collect();
        benches.push(measure(&format!("ntt/{direction}/2^{log_n}"), 300, || {
            transform(&plan, &mut data);
        }));
    }

    // --- The streamed forward transform at the paper's ring: encrypt's
    // limb body `x = NTT(e mod q) + pk·v̂ + m` from an `i64` source, as
    // one `forward_stream` and as the composition it replaces (expand
    // into the limb, transform, one multiply–accumulate pass), same
    // operands, same run ---
    let stream_pair = {
        let n = 1usize << 16;
        let q = abc_math::primes::generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
        let m = abc_math::Modulus::new(q).expect("modulus");
        let plan = NttPlan::new(m, n).expect("plan");
        let d = plan.dyadic();
        let e = GaussianSampler::new(Seed::from_u128(5), 0, GaussianSampler::DEFAULT_SIGMA)
            .sample_poly(n);
        let e = SignedCoeffs::scan(&e);
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 5) % q).collect();
        let c: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 11) % q).collect();
        let mut d_pre: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
        d.premul(&mut d_pre);
        let tail = || Tail::MulAcc {
            b: &b,
            d_pre: &d_pre,
            c: Some(&c),
        };
        // Timed alternately: the gate below reads their ratio. Both write
        // one output buffer, so they see the same memory: the body whose
        // output starts 48 bytes into a cache line runs up to 13 % slower,
        // and two buffers from consecutive allocations sit 16 bytes apart
        // modulo a line, at a phase set by whatever the heap held before
        // them (the argument strings among it).
        let out = RefCell::new(Vec::with_capacity(n));
        let [streamed, unfused] = measure_alternately(
            [
                "ntt/forward_stream_macc/2^16",
                "ntt/expand_forward_macc/2^16",
            ],
            800,
            [
                Box::new(|| plan.forward_stream(&e, &mut out.borrow_mut(), tail())),
                Box::new(|| {
                    let y = &mut *out.borrow_mut();
                    d.expand_into(&e, y);
                    plan.forward(y);
                    d.apply_tail(y, tail());
                }),
            ],
        );
        let pair = (
            plan.kernel_name(),
            streamed.median_secs,
            unfused.median_secs,
        );
        benches.push(streamed);
        benches.push(unfused);
        pair
    };

    // --- Dyadic element-wise kernels: per-kernel throughput rows ---
    //
    // Each kernel row also lands in the `"throughput"` JSON section
    // with its memory traffic (`bytes_per_op` = streams × N × 8) and
    // the derived bandwidth, so the CI trajectory can compare fused
    // kernels against the unfused sequences they replace in GiB/s
    // rather than raw nanoseconds.
    let mut throughput_rows = Vec::new();
    let mut unavailable = Vec::new();
    {
        use abc_math::dyadic::DyadicEngine;
        let n = 1usize << 15;
        let q = abc_math::primes::generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
        let m = abc_math::Modulus::new(q).expect("modulus");
        let a0: Vec<u64> = (0..n as u64).map(|i| (i * 31) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 5) % q).collect();
        let c: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 11) % q).collect();
        let d: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
        let s = q - 12345;
        let mut buf = a0.clone();
        for (tier, kernel) in [
            (KernelTier::Scalar, "montgomery"),
            (KernelTier::Simd, "ifma"),
        ] {
            let engine = DyadicEngine::with_kernel(m, tier);
            let label = engine.kernel_name();
            // A degraded tier would re-measure another kernel's row
            // under a misleading id; skip it.
            if label != kernel {
                unavailable.push(kernel);
                continue;
            }
            // (id, bytes/op, the kernel body) — bytes/op counts each
            // input stream read once plus the in-place write-back.
            let mut d_pre = d.clone();
            engine.premul(&mut d_pre);
            let (mut c_scratch, mut b_scratch) = (c.clone(), b.clone());
            type Pass<'a> = Box<dyn FnMut(&mut [u64]) + 'a>;
            let passes: [(&str, usize, Pass); 5] = [
                (
                    "poly_dyadic/mul_assign",
                    3,
                    Box::new(|x| engine.mul_assign(x, &b)),
                ),
                // The download kernel (`decrypt`: c1·s + c0).
                (
                    "poly_dyadic/mul_add",
                    4,
                    Box::new(|x| engine.mul_add_assign(x, &b, &c)),
                ),
                // The RLWE tail (`c + d − x·b`) and the rescale tail
                // (`(x − b)·s`), outside a transform: its output is read
                // from a scratch copy, which neither tail writes.
                (
                    "fused_dyadic/mul_neg_add2",
                    5,
                    Box::new(|x| {
                        let tail = Tail::NegMulAdd {
                            dst: x,
                            s: &b,
                            t: Some(&d),
                        };
                        engine.apply_tail(&mut c_scratch, tail);
                    }),
                ),
                // The upload kernel (`CkksContext::encrypt`'s pair
                // pass: e + pk·v̂) and the key-switch accumulation.
                (
                    "fused_dyadic/mul_acc_premul",
                    4,
                    Box::new(|x| engine.mul_acc_assign_premul(x, &b, &d_pre)),
                ),
                (
                    "fused_dyadic/sub_scalar_mul",
                    3,
                    Box::new(|x| {
                        engine.apply_tail(&mut b_scratch, Tail::SubScalarMul { dst: x, w: s });
                    }),
                ),
            ];
            // bytes/op counts each input stream read once plus the
            // in-place write-back.
            for (family, streams, mut pass) in passes {
                let id = format!("{family}_{label}/2^15");
                let rec = measure(&id, 200, || {
                    buf.copy_from_slice(&a0);
                    pass(std::hint::black_box(&mut buf));
                });
                throughput_rows.push(throughput_row(&id, streams * n * 8, rec.median_secs));
                benches.push(rec);
            }
        }
    }

    // --- Batched RNS limb fan-out (24 limbs = the paper's chain) ---
    {
        let n = 1usize << 13;
        let primes = abc_math::primes::generate_ntt_primes(36, 24, 2 * n as u64).expect("primes");
        let moduli: Vec<abc_math::Modulus> = primes
            .iter()
            .map(|&q| abc_math::Modulus::new(q).expect("modulus"))
            .collect();
        let engine = RnsNttEngine::new(&moduli, n).expect("engine");
        let mut limbs: Vec<Vec<u64>> = moduli
            .iter()
            .map(|m| (0..n as u64).map(|i| i % m.q()).collect())
            .collect();
        benches.push(measure("rns_ntt/forward_24limbs/2^13", 300, || {
            engine.forward_all(&mut limbs);
        }));
        benches.push(measure("rns_ntt/inverse_24limbs/2^13", 300, || {
            engine.inverse_all(&mut limbs);
        }));
        // Thread-scaling rows (flat on the 1-vCPU CI box; the ids keep
        // multi-core hosts comparable in the same artifact).
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            benches.push(measure(
                &format!("rns_ntt/forward_24limbs_t{threads}/2^13"),
                200,
                || {
                    engine.forward_all(&mut limbs);
                },
            ));
        }
        // What one parallel pass costs before any work: post to a parked
        // worker, run both chunks, take the post back or wait for it.
        benches.push(measure("fanout/roundtrip", 300, || {
            abc_transform::fanout::run(2, 2, &|t| {
                std::hint::black_box(t);
            });
        }));
    }

    // --- Decode's CRT lift + scale division, ns per coefficient: the
    // dispatched block path decode runs (the verified word lift, then
    // the block division on the lift's rung) and its forced-scalar twin,
    // beside the big-integer lift it falls back to, at the paper's
    // download (2 limbs) and fresh (24) depths ---
    {
        let n = 1usize << 13;
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
        let divisor = abc_ckks::ExactScale::from_log2(72).divisor();
        let ints = message_sized_ints(n);
        for limbs in [2usize, 24] {
            let basis = ctx.basis().truncated(limbs);
            let rows: Vec<Vec<u64>> = basis
                .moduli()
                .iter()
                .map(|m| ints.iter().map(|&x| m.from_i128(x)).collect())
                .collect();
            for (id, tier) in [
                ("lift_word", KernelTier::Auto),
                ("lift_word_scalar", KernelTier::Scalar),
            ] {
                let lift = WordLift::with_kernel(basis.clone(), tier);
                let mut quotients = [ExtF64::zero(); LIFT_BLOCK];
                let mut slots = [0.0f64; LIFT_BLOCK];
                let word = measure(&format!("rns/{id}/{limbs}limbs"), 300, || {
                    let fell_back = lift.lift_blocks(std::hint::black_box(&rows), |block| {
                        let quotients = &mut quotients[..block.words().len()];
                        divisor.apply_block(lift.tier(), block.words(), quotients);
                        // Decode's `F64Field::from_ext` into its slots.
                        for (slot, q) in slots.iter_mut().zip(quotients.iter()) {
                            *slot = q.to_f64();
                        }
                        std::hint::black_box(&slots);
                    });
                    assert_eq!(fell_back, 0, "message-sized values verify");
                });
                benches.push(per_coeff(word, n));
            }
            let product = basis.product();
            let mut residues = vec![0u64; limbs];
            let bigint = measure(&format!("rns/lift_bigint/{limbs}limbs"), 300, || {
                let mut acc = 0.0;
                for j in 0..n {
                    for (r, row) in residues.iter_mut().zip(std::hint::black_box(&rows)) {
                        *r = row[j];
                    }
                    let (neg, mag) = basis.combine_centered_big_with_product(&residues, &product);
                    acc += divisor.apply_ext(neg, &mag).to_f64();
                }
                std::hint::black_box(acc);
            });
            benches.push(per_coeff(bigint, n));
        }
    }

    // --- The on-chip PRNG: the keystream kernel on both rungs (ns per
    // 64-byte block; the scalar rung is the RFC 8439 oracle) and the
    // error sampler it feeds, one upload-sized polynomial per call ---
    {
        let key = [0x0302_0100u32; 8];
        let nonce = [0x0900_0000, 0x4a00_0000, 0];
        let mut out = [0u32; 16 * BLOCKS];
        const REFILLS: u32 = 64;
        type Refill = fn(&[u32; 8], u32, &[u32; 3], &mut [u32; 16 * BLOCKS]);
        let simd: Refill = chacha20_blocks;
        let scalar: Refill = |key, counter, nonce, out| {
            for (b, block) in out.chunks_exact_mut(16).enumerate() {
                block.copy_from_slice(&chacha20_block(key, counter + b as u32, nonce));
            }
        };
        for (rung, refill) in [("simd", simd), ("scalar", scalar)] {
            if rung == "simd" && !abc_math::CpuCaps::detect().avx512f {
                unavailable.push(rung);
                continue;
            }
            let id = format!("prng/chacha20_blocks_{rung}/64B");
            let rec = measure(&id, 300, || {
                for r in 0..REFILLS {
                    refill(&key, r * BLOCKS as u32, &nonce, &mut out);
                    std::hint::black_box(&out);
                }
            });
            benches.push(per_coeff(rec, (REFILLS as usize) * BLOCKS));
        }
        let sigma = GaussianSampler::DEFAULT_SIGMA;
        benches.push(measure("prng/gaussian_poly/2^16", 300, || {
            let mut sampler = GaussianSampler::new(Seed::from_u128(11), 0, sigma);
            std::hint::black_box(sampler.sample_poly(1 << 16));
        }));
    }

    // --- The layers of the paper's upload at N = 2^16, 24 primes: RNS
    // expansion of sampler-sized and of message-sized coefficients
    // under all 24 primes (ns per coefficient) and 36-bit wire packing
    // (ns per residue) ---
    {
        let ctx = CkksContext::new(CkksParams::bootstrappable(16).expect("preset")).expect("ctx");
        let n = ctx.params().n();
        let (_, pk) = ctx.keygen(Seed::from_u128(2026));
        let pt = ctx.encode(&client_message(&ctx)).expect("encode");
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(7));

        let moduli = ctx.basis().moduli();
        let ternary = TernarySampler::new(Seed::from_u128(8), 0).sample_poly(n, None);
        let small =
            GaussianSampler::new(Seed::from_u128(9), 0, ctx.params().error_sigma()).sample_poly(n);
        let message = message_sized_ints(n);
        // Each input on the dispatched path, then on the scalar rung:
        // the kernel ratio of the sign-select (ternary, small) and of
        // the fold (i128).
        for (tier, suffix) in [(KernelTier::Auto, ""), (KernelTier::Scalar, "_scalar")] {
            let id = |input: &str| format!("rns/expand_{input}{suffix}/24limbs");
            benches.push(expand_row(&id("ternary"), &ternary, moduli, tier));
            benches.push(expand_row(&id("small"), &small, moduli, tier));
            benches.push(expand_row(&id("i128"), &message, moduli, tier));
        }

        // The 23 limbs behind the 39-bit head prime: 36 bits each.
        let (c0, c1) = ct.components();
        let body = abc_ckks::Ciphertext::from_components_exact(
            c0[1..].to_vec(),
            c1[1..].to_vec(),
            ct.exact_scale().clone(),
        )
        .expect("same shape as the ciphertext");
        let widths = &ctx.wire_widths(ct.num_primes())[1..];
        assert!(widths.iter().all(|&w| w == 36), "body primes are 36-bit");
        let residues = 2 * widths.len() * n;
        let mut blob = Vec::new();
        let pack = measure("wire/pack_36bit", 500, || {
            blob = abc_ckks::wire::serialize_ciphertext_packed(&body, widths).expect("pack");
        });
        let unpack = measure("wire/unpack_36bit", 500, || {
            std::hint::black_box(abc_ckks::wire::deserialize_ciphertext(&blob).expect("unpack"));
        });
        for rec in [pack, unpack] {
            throughput_rows.push(throughput_row(&rec.id, blob.len(), rec.median_secs));
            benches.push(per_coeff(rec, residues));
        }
    }

    // --- Steady state: whole ops, limbs dropped inside them, warm pool ---
    let mut steady = Vec::new();
    {
        let ctx = CkksContext::new(CkksParams::bootstrappable(15).expect("preset")).expect("ctx");
        let (_, pk) = ctx.keygen(Seed::from_u128(2026));
        let msg = client_message(&ctx);
        let widths = ctx.wire_widths(ctx.params().num_primes());
        steady.push(steady_row(
            "client/upload_steady/2^15",
            ctx.params().n(),
            1500,
            || {
                let pt = ctx.encode(&msg).expect("encode");
                let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(7));
                let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct, &widths);
                std::hint::black_box(blob.expect("pack"));
            },
        ));
    }
    {
        // The paper's upload (Fig. 5a) at the largest preset, the shape
        // of benchmark/'s `upload_n16`.
        let ctx = CkksContext::new(CkksParams::bootstrappable(16).expect("preset")).expect("ctx");
        let (_, pk) = ctx.keygen(Seed::from_u128(2026));
        let msg = client_message(&ctx);
        let widths = ctx.wire_widths(ctx.params().num_primes());
        steady.push(steady_row(
            "client/upload_steady/2^16x24",
            ctx.params().n(),
            1500,
            || {
                let pt = ctx.encode(&msg).expect("encode");
                let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(7));
                let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct, &widths);
                std::hint::black_box(blob.expect("pack"));
            },
        ));
    }
    {
        let ctx = CkksContext::new(CkksParams::bootstrappable(14).expect("preset")).expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(2026));
        let ct = ctx.encrypt(
            &ctx.encode(&client_message(&ctx)).expect("encode"),
            &pk,
            Seed::from_u128(7),
        );
        let widths = ctx.wire_widths(ct.num_primes());
        let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
        drop(ct);
        steady.push(steady_row(
            "client/download24_steady/2^14",
            ctx.params().n(),
            1500,
            || {
                let ct = abc_ckks::wire::deserialize_ciphertext(&blob).expect("unpack");
                let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
                std::hint::black_box(ctx.decode(&pt).expect("decode"));
            },
        ));
    }

    {
        // The paper's download (Fig. 5a): a 2-prime result at the
        // largest preset, the shape of benchmark/'s `download_n16`.
        let ctx = CkksContext::new(CkksParams::bootstrappable(16).expect("preset")).expect("ctx");
        let (sk, pk) = ctx.keygen(Seed::from_u128(2026));
        let ct = ctx
            .encrypt(
                &ctx.encode(&client_message(&ctx)).expect("encode"),
                &pk,
                Seed::from_u128(7),
            )
            .truncated(2);
        let widths = ctx.wire_widths(ct.num_primes());
        let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
        drop(ct);
        steady.push(steady_row(
            "client/download2_steady/2^16",
            ctx.params().n(),
            1500,
            || {
                let ct = abc_ckks::wire::deserialize_ciphertext(&blob).expect("unpack");
                let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
                std::hint::black_box(ctx.decode(&pt).expect("decode"));
            },
        ));
    }

    // --- SpecialFft: kernel ladder ---
    {
        let slots = 1usize << 14; // N = 2^15
        let plan = SpecialFft::new(slots);
        // The AVX-512 kernel's split planes are an N-word limb of the limb
        // pool. Every real caller holds an engine of that N, whose
        // allowance keeps the limb warm; without one each transform would
        // time a 256 KiB `malloc` as well.
        let n = 2 * slots;
        let q = abc_math::primes::generate_ntt_primes(36, 1, 2 * n as u64).expect("prime")[0];
        let modulus = abc_math::Modulus::new(q).expect("modulus");
        let _engine = RnsNttEngine::new(&[modulus], n).expect("engine");
        let vals: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut buf = vals.clone();
        // `forward_planned` follows the Auto dispatch (avx512 on this
        // CPU — `kernel_name()` says which kernel the row measured).
        let planned = measure("special_fft/forward_planned_fp64/2^14", 400, || {
            buf.copy_from_slice(&vals);
            plan.forward(&mut buf);
        });
        // Forced-scalar rows: avx512 against the planned-scalar kernel
        // reads straight off the planned/scalar median ratio, and the
        // reduced (FP55) and extended (double-double) datapaths sit
        // beside the host's `f64` on the same kernel.
        let scalar = fft_scalar_row(F64Field, "fp64", slots);
        println!(
            "special_fft {} vs scalar speedup: {:.2}x",
            plan.kernel_name(),
            scalar.median_secs / planned.median_secs
        );
        // Transform throughput rows: each pass streams the split re/im
        // planes (read + write) per stage, log2(slots) stages deep.
        let bytes = 2 * slots * 16 * slots.ilog2() as usize;
        for rec in [&planned, &scalar] {
            throughput_rows.push(throughput_row(&rec.id, bytes, rec.median_secs));
        }
        benches.push(planned);
        benches.push(scalar);
        benches.push(fft_scalar_row(SoftFloatField::fp55(), "fp55", slots));
        benches.push(fft_scalar_row(ExtF64Field, "extf64", slots));
        benches.push(measure("special_fft/forward_otf_fp64/2^14", 400, || {
            buf.copy_from_slice(&vals);
            plan.forward_otf(&mut buf);
        }));
    }

    // --- Embedding datapaths: precision ---
    let mut precision_rows = {
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
        vec![
            embedding_precision_row(&ctx, &F64Field, Seed::from_u128(1300)),
            embedding_precision_row(&ctx, &ExtF64Field, Seed::from_u128(1301)),
        ]
    };

    // --- Measured precision: the §V-B claim, both scale modes ---
    for (label, mode) in [
        ("single_scale", ScaleMode::Single),
        ("double_scale", ScaleMode::DoublePair),
    ] {
        let params = CkksParams::builder()
            .log_n(13)
            .num_primes(24)
            .scale_mode(mode)
            .build()
            .expect("params");
        let ctx = CkksContext::new(params).expect("ctx");
        let bits = measure_precision(&ctx, &F64Field, 1, Seed::from_u128(13)).expect("measure");
        println!("precision/{label}/2^13            {bits:.2} bits");
        precision_rows.push(format!(
            "  {{\"id\": \"precision/{label}/2^13\", \"log_n\": 13, \"scale_mode\": \"{label}\", \
             \"precision_bits\": {bits:.3}, \"paper_floor\": 19.29}}"
        ));
    }

    let bench_rows: Vec<String> = benches.iter().map(BenchRecord::to_json).collect();
    let steady_rows: Vec<&str> = steady.iter().map(|(row, _)| row.as_str()).collect();
    let mut json = format!(
        "{{\n\"benches\": [\n{}\n],\n\"throughput\": [\n{}\n],\n\"precision\": [\n{}\n],\n\
         \"steady\": [\n{}\n]",
        bench_rows.join(",\n"),
        throughput_rows.join(",\n"),
        precision_rows.join(",\n"),
        steady_rows.join(",\n")
    );
    if let Some(parent) = &before {
        let section = compare(parent, &json);
        println!(
            "against BEFORE: {}",
            section.lines().nth(1).unwrap_or_default()
        );
        json.push_str(&section);
    }
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    for r in &benches {
        println!(
            "{:<40} median {:>10.1} ns  p95 {:>10.1} ns  ({} iters)",
            r.id,
            r.median_secs * 1e9,
            r.p95_secs * 1e9,
            r.iters
        );
    }
    println!("wrote {out_path}");
    if steady
        .iter()
        .any(|&(_, misses_per_op)| misses_per_op != 0.0)
    {
        eprintln!("FAIL: a steady-state op missed the limb pool (pool_misses_per_op above)");
        std::process::exit(1);
    }
    // The streamed transform must beat the composition it replaces, in
    // the same process: a ratio of two medians of one run, gated on the
    // rung that fuses (on the scalar rung the two are the same code).
    let (kernel, streamed, unfused) = stream_pair;
    println!(
        "ntt/forward_stream_macc over ntt/expand_forward_macc ({kernel}): {:.3}",
        streamed / unfused
    );
    if kernel == "ifma" && streamed >= unfused {
        eprintln!("FAIL: the streamed forward transform is not faster than expand + forward + mac");
        std::process::exit(1);
    }
    let fresh = ids_of(&json);
    let missing: Vec<&str> = committed
        .as_deref()
        .map_or(Vec::new(), ids_of)
        .into_iter()
        .filter(|id| !fresh.contains(id))
        .filter(|id| !unavailable.iter().any(|k| id.contains(&format!("_{k}/"))))
        .collect();
    if !missing.is_empty() {
        eprintln!("FAIL: {COMMITTED} has rows this run did not produce: {missing:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: &str = r#"{
"benches": [
  {"id": "ntt/forward/2^13", "mean_ns": 30.0, "median_ns": 20.0, "p95_ns": 40.0, "iters": 9},
  {"id": "ntt/forward_golden/2^13", "mean_ns": 110.0, "median_ns": 100.0, "p95_ns": 120.0, "iters": 9},
  {"id": "rns/lift_word_scalar/2limbs", "mean_ns": 5.0, "median_ns": 4.0, "p95_ns": 6.0, "iters": 9},
  {"id": "gone/row", "mean_ns": 1.0, "median_ns": 1.0, "p95_ns": 1.0, "iters": 9}
],
"throughput": [
  {"id": "wire/pack_36bit", "bytes_per_op": 8, "median_ns": 1.0, "gib_per_s": 1.00}
],
"steady": [
]
}
"#;

    #[test]
    fn compare_pairs_rows_and_spreads_the_references() {
        // The change's own snapshot, `"before"` included: only its
        // `benches` rows are read, never the parent rows it embeds.
        let change = PARENT
            .replace("\"median_ns\": 20.0", "\"median_ns\": 10.0")
            .replace("\"median_ns\": 100.0", "\"median_ns\": 105.0")
            .replace("\"median_ns\": 4.0", "\"median_ns\": 3.6")
            .replace("gone/row", "new/row")
            + "\"before\": [\n  {\"id\": \"gone/row\", \"median_ns\": 1.0}\n]";
        let section = compare(PARENT, &change);
        assert!(section.contains(
            "\"reference_spread\": {\"rows\": 2, \"min_ratio\": 0.900, \"max_ratio\": 1.050}"
        ));
        assert!(section.contains(
            "{\"id\": \"ntt/forward/2^13\", \"parent_median_ns\": 20.0, \"median_ns\": 10.0, \"ratio\": 0.500}"
        ));
        assert!(section.contains("\"ratio\": 1.050"));
        // Rows in one run only are not paired.
        assert!(!section.contains("gone/row") && !section.contains("new/row"));
        // The section's ids stay out of the snapshot's own id list.
        let whole = format!("{{\n\"benches\": [\n]{section}\n}}");
        assert!(ids_of(&whole).is_empty());
    }
}
