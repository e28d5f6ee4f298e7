//! Per-layer stage probes: each stage of the client ops, called alone
//! through the layer's public functions on operands of the op's shape,
//! with the context's own engines. One span per call; a probe's metric
//! is the median of its spans.

use crate::client::Client;
use crate::inputs;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use abc_ckks::EmbeddingEngine;
use abc_prng::sampler::{GaussianSampler, TernarySampler, UniformSampler};
use abc_sim::{simulate, SimConfig, Workload as SimWorkload};
use std::hint::black_box;
use std::time::{Duration, Instant};

const STREAM_PROBES: u64 = 4;

/// A probe repeats until its share of the budget is spent, but at
/// least this often (a 24-limb lift at N = 2^14 takes 85 ms).
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 200;

/// Stage calls per op, as `CkksContext` makes them today: `encode` =
/// inverse FFT + one expand-and-NTT; `encrypt` = one ternary and two
/// Gaussian polynomials, three expand-and-NTTs, the fused dyadic pair;
/// `decode` = inverse NTT + CRT lift + forward FFT. `*_unattributed_ms`
/// is a call's span minus these.
pub const ENCODE_STAGES: [(&str, f64); 2] = [
    ("transform.fft_inverse_ms", 1.0),
    ("transform.rns_expand_and_ntt_ms", 1.0),
];
pub const ENCRYPT_STAGES: [(&str, f64); 4] = [
    ("prng.ternary_poly_ms", 1.0),
    ("prng.gaussian_poly_ms", 2.0),
    ("transform.rns_expand_and_ntt_ms", 3.0),
    ("math.dyadic_fused_ms", 1.0),
];
pub const DECODE_STAGES: [(&str, f64); 3] = [
    ("transform.ntt_inverse_all_ms", 1.0),
    ("math.crt_lift_ms", 1.0),
    ("transform.fft_forward_ms", 1.0),
];

fn repeat(budget: Duration, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || (reps < MAX_REPS && start.elapsed() < budget) {
        body();
        reps += 1;
    }
}

/// The median of the spans called `name`, as a metric row.
fn row(tr: &Tracer, name: &'static str) -> (&'static str, f64) {
    (name, median(&tr.durations_ms(name)))
}

/// Repeats `call`, each time as one span called `name`; returns the
/// probe's row.
fn probe(
    tr: &mut Tracer,
    root: SpanId,
    budget: Duration,
    name: &'static str,
    mut call: impl FnMut(),
) -> (&'static str, f64) {
    repeat(budget, || tr.span(name, root, 0, &mut call));
    row(tr, name)
}

/// Runs every stage probe within about `budget_s` and returns
/// (metric, value) rows, derived rows included.
pub fn stage_probes(client: &Client, budget_s: f64, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    const PROBES: f64 = 11.0;
    let each = Duration::from_secs_f64(budget_s / PROBES);
    let ctx = &client.ctx;
    let engine = ctx.ntt_engine();
    let moduli = ctx.basis().moduli();
    let (n, limbs, down) = (ctx.params().n(), moduli.len(), client.down_limbs);
    let sigma = ctx.params().error_sigma();
    let seed = inputs::derive_seed(client.seed, STREAM_PROBES, 0);
    let root = tr.begin("probes", None, 0);

    // Error-sized coefficients: three of an upload's four expansions
    // (v, e0, e1) are this small; only the message's is 2^72-sized.
    let ints: Vec<i128> = GaussianSampler::new(seed.derive(1), 0, sigma)
        .sample_poly(n)
        .into_iter()
        .map(i128::from)
        .collect();
    let expand_and_ntt = probe(tr, root, each, "transform.rns_expand_and_ntt_ms", || {
        black_box(engine.expand_and_ntt(black_box(&ints)));
    });
    let mut rows = engine.expand_and_ntt(&ints);
    let forward_all = probe(tr, root, each, "transform.ntt_forward_all_ms", || {
        engine.forward_all(black_box(&mut rows))
    });
    let mut down_rows = rows[..down].to_vec();
    let inverse_all = probe(tr, root, each, "transform.ntt_inverse_all_ms", || {
        engine.inverse_all(black_box(&mut down_rows))
    });

    let EmbeddingEngine::F64(fft) = ctx.embedding() else {
        panic!("the benchmark's workloads run the F64 embedding datapath");
    };
    // Inverse then forward, alternating: the buffer returns to the
    // message each round instead of shrinking into denormals, and each
    // direction sees the data the op gives it.
    let mut vals = fft.take_buf();
    vals.copy_from_slice(client.message(0));
    repeat(2 * each, || {
        tr.span("transform.fft_inverse_ms", root, 0, || {
            fft.inverse(black_box(&mut vals))
        });
        tr.span("transform.fft_forward_ms", root, 0, || {
            fft.forward(black_box(&mut vals))
        });
    });
    fft.recycle(vals);

    let ternary = probe(tr, root, each, "prng.ternary_poly_ms", || {
        black_box(TernarySampler::new(seed.derive(0), 0).sample_poly(n, None));
    });
    let gaussian = probe(tr, root, each, "prng.gaussian_poly_ms", || {
        black_box(GaussianSampler::new(seed.derive(1), 0, sigma).sample_poly(n));
    });
    let mut limb = vec![0u64; n];
    let uniform = probe(tr, root, each, "prng.uniform_poly24_ms", || {
        for (i, m) in moduli.iter().enumerate() {
            UniformSampler::new(seed.derive(2), i as u64).sample_poly(m, black_box(&mut limb));
        }
    });

    // encrypt's two fused passes, c0 = c0·v + e0 + m and c1 = c1·v + e1,
    // on NTT-domain rows; the accumulators stay reduced, so they are
    // reused across repetitions.
    let (mut c0, mut c1) = (rows.clone(), rows.clone());
    let dyadic = probe(tr, root, each, "math.dyadic_fused_ms", || {
        engine.dyadic_mul_add2_all(black_box(&mut c0), &rows, &rows, &rows);
        engine.dyadic_mul_add_all(black_box(&mut c1), &rows, &rows);
    });

    // decode's per-coefficient loop, on a really decrypted ciphertext.
    let ct = abc_ckks::wire::deserialize_ciphertext(client.down_blob(0)).expect("own blob parses");
    let pt = ctx
        .decrypt(&ct, &client.sk)
        .expect("own ciphertext decrypts");
    let mut res = pt.residues().to_vec();
    engine.inverse_all(&mut res);
    let basis = ctx.basis().truncated(down);
    let product = basis.product();
    let divisor = pt.exact_scale().divisor();
    let mut residues = vec![0u64; down];
    let crt_lift = probe(tr, root, each, "math.crt_lift_ms", || {
        for j in 0..n {
            for (r, limb) in residues.iter_mut().zip(&res) {
                *r = limb[j];
            }
            let (negative, mag) = basis.combine_centered_big_with_product(&residues, &product);
            black_box(divisor.apply_ext(negative, &mag));
        }
    });
    tr.end(root);

    let ((_, fused), (_, forward), (_, lift)) = (expand_and_ntt, forward_all, crt_lift);
    let mut out = vec![
        expand_and_ntt,
        forward_all,
        inverse_all,
        row(tr, "transform.fft_inverse_ms"),
        row(tr, "transform.fft_forward_ms"),
        ternary,
        gaussian,
        uniform,
        dyadic,
        crt_lift,
    ];
    // Computed bytes: each limb read once and written once per
    // transform, the least an in-place NTT can move. Not a measured
    // memory bandwidth.
    let moved_gib = (limbs * n * 8 * 2) as f64 / (1u64 << 30) as f64;
    out.extend([
        ("transform.rns_expand_ms", fused - forward),
        ("transform.ntt_forward_gib_s", moved_gib / (forward / 1e3)),
        ("math.crt_lift_ns_per_coeff", lift * 1e6 / n as f64),
    ]);
    out
}

/// Σ count × probe over a call's stages.
pub fn attributed_ms(stages: &[(&str, f64)], probes: &[(&'static str, f64)]) -> f64 {
    stages
        .iter()
        .map(|(name, count)| {
            count
                * probes
                    .iter()
                    .find(|(k, _)| k == name)
                    .expect("stage has a probe")
                    .1
        })
        .sum()
}

/// The cycle model's latency for the paper's two client flows, and
/// what a `simulate` call costs the host. The cycle counts are pure
/// functions of the model: they must repeat bit for bit (which is why
/// they are reported as counts; a time that reads the same in every run
/// looks like a number nobody measured).
pub struct Model {
    pub upload_ms: f64,
    pub download_ms: f64,
    rows: [(&'static str, f64); 3],
}

impl Model {
    pub fn run() -> Self {
        let cfg = SimConfig::paper_default();
        let upload = SimWorkload::encode_encrypt(16, 24);
        let download = SimWorkload::decode_decrypt(16, 2);
        let mut host_us = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            black_box(simulate(black_box(&upload), &cfg));
            black_box(simulate(black_box(&download), &cfg));
            host_us.push(t.elapsed().as_secs_f64() * 1e6 / 2.0);
        }
        let (up, down) = (simulate(&upload, &cfg), simulate(&download, &cfg));
        Self {
            upload_ms: up.time_ms,
            download_ms: down.time_ms,
            rows: [
                ("sim.upload_n16_cycles", up.total_cycles),
                ("sim.download_n16_cycles", down.total_cycles),
                ("sim.host_us_per_simulate", median(&host_us)),
            ],
        }
    }

    pub fn rows(&self) -> [(&'static str, f64); 3] {
        self.rows
    }
}
