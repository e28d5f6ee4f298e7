//! Cross-crate consistency checks: the functional layer, hardware model
//! and simulator must tell one coherent story.

use abc_fhe::hw::reduce::{ModMul, NttFriendlyMontgomery};
use abc_fhe::hw::rfe::LANES;
use abc_fhe::hw::stream::{StreamingNtt, StreamingSpecialFft};
use abc_fhe::hw::twiddle::OtfTwiddleGen;
use abc_fhe::math::reduce::{Barrett, Montgomery};
use abc_fhe::math::{primes, Modulus};
use abc_fhe::sim::{pipeline, SimConfig};
use abc_fhe::transform::{NttPlan, SpecialFft};

#[test]
fn all_reducers_agree_on_structured_primes() {
    // Every reduction algorithm must agree on every structured prime we
    // can build a shift-add network for.
    let found = primes::search_structured_primes(32..=36, 1 << 13);
    let mut tested = 0usize;
    for p in found.iter().take(40) {
        let m = Modulus::new(p.q).expect("modulus");
        let barrett = Barrett::new(m);
        let mont = Montgomery::new(m);
        let Ok(nf) = NttFriendlyMontgomery::new(m) else {
            continue;
        };
        tested += 1;
        let mut x = 0x1234_5678u64;
        for _ in 0..64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = x % m.q();
            let b = (x >> 7) % m.q();
            let want = m.mul(a, b);
            assert_eq!(barrett.mul_mod(a, b), want);
            assert_eq!(mont.mul_mod(a, b), want);
            assert_eq!(nf.mul_mod(a, b), want);
        }
    }
    assert!(
        tested >= 20,
        "too few structured primes admitted networks: {tested}"
    );
}

#[test]
fn transform_layer_consistent_across_twiddle_sources_and_sizes() {
    let q = primes::generate_ntt_primes(36, 1, 1 << 13).expect("prime")[0];
    let m = Modulus::new(q).expect("modulus");
    for log_n in [3u32, 6, 9, 12] {
        let n = 1usize << log_n;
        // The golden model over the table, the fast kernel, and the
        // streaming dataflow fed by the on-the-fly generator.
        let plan = NttPlan::new(m, n).expect("plan");
        let otf = OtfTwiddleGen::with_psi(m, n, plan.table().psi()).expect("otf");
        let poly: Vec<u64> = (0..n as u64).map(|i| (i * i + 7) % q).collect();
        let mut a = poly.clone();
        plan.forward_golden(&mut a);
        let mut b = poly.clone();
        plan.forward(&mut b);
        assert_eq!(a, b, "n = {n}");
        let mut c = StreamingNtt::new(&otf, LANES as usize).transform(&poly);
        assert_eq!(a, c, "n = {n}");
        plan.inverse(&mut c);
        assert_eq!(c, poly, "n = {n}");
    }
}

#[test]
fn stepped_column_meets_the_pipeline_closed_forms() {
    // The column computes the transform (bit for bit, in `abc-hw`), so
    // its ticks check the cycle counts the simulator sets beside every
    // host stage. It steps its butterflies in zero ticks; the closed
    // forms add the multiplier's pipeline per column, so that term is
    // added back. Its fill is the tick the first output leaves in,
    // counted from 0, so it may fall one short of the closed form.
    let cfg = SimConfig::paper_default();
    assert_eq!((cfg.lanes, cfg.mult_stages), (LANES, 3));
    let q = primes::generate_ntt_primes(36, 1, 1 << 17).expect("prime")[0];
    let m = Modulus::new(q).expect("modulus");
    for log_n in 4u32..=16 {
        let n = 1usize << log_n;
        let ticks = StreamingNtt::new(&NttPlan::new(m, n).expect("plan"), LANES as usize).ticks();
        let fill = ticks.fill as f64 + (log_n * (cfg.mult_stages + 2)) as f64;
        let want = pipeline::ntt_fill_cycles(n as u64, LANES, cfg.mult_stages);
        assert!(
            (fill - want).abs() <= 1.0,
            "N = {n}: fill {fill}, closed form {want}"
        );
        let stream = pipeline::ntt_stream_cycles(n as u64, LANES);
        assert_eq!(ticks.per_frame as f64, stream, "N = {n}");
    }
    // FFT mode: the PNLs of one core gang into complex multipliers, four
    // modular ones each, for `pnls_per_rsc · lanes / 2` points per tick.
    let (p, pnls) = (cfg.lanes, cfg.pnls_per_rsc);
    let points = (pnls * p / 2) as usize;
    for log_slots in points.trailing_zeros()..=15 {
        let slots = 1usize << log_slots;
        let mut streamer = StreamingSpecialFft::new(&SpecialFft::new(slots), points);
        let want = pipeline::fft_fill_cycles(slots as u64, p, pnls, cfg.mult_stages);
        let stream = pipeline::fft_stream_cycles(slots as u64, p, pnls);
        for inverse in [false, true] {
            let ticks = streamer.ticks(inverse);
            let fill = ticks.fill as f64 + (log_slots * (cfg.mult_stages + 3)) as f64;
            assert!(
                (fill - want).abs() <= 1.0,
                "slots = {slots}, inverse = {inverse}: fill {fill}, closed form {want}"
            );
            assert_eq!(ticks.per_frame as f64, stream, "slots = {slots}");
        }
    }
}

#[test]
fn simulator_workload_matches_opcount_shape() {
    // The simulator's compute-cycle ratio between the two flows should
    // track the op-count imbalance (both derive from the same dataflow).
    use abc_fhe::hw::opcount;
    use abc_fhe::sim::{simulate, Workload};
    let cfg = SimConfig::paper_default();
    let enc = simulate(&Workload::encode_encrypt(16, 24), &cfg);
    let dec = simulate(&Workload::decode_decrypt(16, 2), &cfg);
    let cycle_ratio = enc.compute_cycles / dec.compute_cycles;
    let ops = opcount::count_client_ops(1 << 16, 24, 2);
    let op_ratio = ops.imbalance();
    // Same order of magnitude: the accelerator parallelizes both flows
    // with the same resources.
    assert!(
        cycle_ratio > op_ratio / 5.0 && cycle_ratio < op_ratio * 5.0,
        "cycles {cycle_ratio} vs ops {op_ratio}"
    );
}

#[test]
fn seed_memory_model_matches_otf_generator() {
    // The memory model's seed accounting and the generator model's
    // actual seed words must agree on the order of magnitude.
    use abc_fhe::hw::memory;
    let q = primes::generate_ntt_primes(36, 1, 1 << 14).expect("prime")[0];
    let m = Modulus::new(q).expect("modulus");
    let otf = OtfTwiddleGen::new(m, 1 << 13).expect("otf");
    let per_prime_actual = otf.seed_bytes();
    let model = memory::seed_footprint(1 << 13, 36, 24, 1);
    let per_prime_model = model.twiddle_seed_bytes / 24;
    assert!(
        per_prime_model / 4 <= per_prime_actual && per_prime_actual <= per_prime_model * 4,
        "actual {per_prime_actual} vs model {per_prime_model}"
    );
}

#[test]
fn ciphertext_byte_size_matches_sim_traffic() {
    // The ciphertext the CKKS layer produces must weigh what the
    // simulator's DRAM model charges for writing it out.
    use abc_fhe::ckks::{params::CkksParams, CkksContext};
    use abc_fhe::float::Complex;
    use abc_fhe::prng::Seed;
    use abc_fhe::sim::{simulate, Workload};
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(10)
            .num_primes(4)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let (_, pk) = ctx.keygen(Seed::from_u128(1));
    let msg = vec![Complex::new(0.1, 0.2); 16];
    let ct = ctx.encrypt(&ctx.encode(&msg).expect("encode"), &pk, Seed::from_u128(2));
    let mut cfg = SimConfig::paper_default();
    cfg.coeff_bits = 64; // our software residues are u64 words
    let r = simulate(&Workload::encode_encrypt(10, 4), &cfg);
    assert_eq!(ct.byte_size() as f64, r.traffic.payload_out);

    // And the v3 bit-packed wire: what `packed_byte_size` reports for a
    // real ciphertext must equal the traffic the simulator charges under
    // `with_wire_widths`, up to the serialization header (scale encoding
    // + per-prime width table) the payload model doesn't bill.
    let widths = ctx.params().residue_widths(ct.num_primes());
    let packed = simulate(
        &Workload::encode_encrypt(10, 4),
        &cfg.clone().with_wire_widths(&widths),
    );
    // Fixed 18 bytes + the one-byte numerator of a fresh power-of-two
    // scale.
    let header = 18 + 1;
    assert_eq!(
        ct.packed_byte_size(ctx.params()),
        packed.traffic.payload_out as usize + header + ct.num_primes()
    );
    assert!(
        (ct.packed_byte_size(ctx.params()) as f64) < 0.7 * ct.byte_size() as f64,
        "36-bit residues must pack well under 8 B/coeff"
    );
}
