//! Workbench for the paper's NTT-friendly primes (§IV-A): search the
//! structured space `Q = 2^bw + k·2^(n+1) + 1`, inspect the
//! shift-and-add Montgomery networks they admit, and validate the
//! transforms they support.
//!
//! ```text
//! cargo run --release --example prime_workbench
//! ```

use abc_fhe::hw::reduce::{ModMul, NttFriendlyMontgomery};
use abc_fhe::hw::rfe::LANES;
use abc_fhe::hw::stream::StreamingNtt;
use abc_fhe::hw::twiddle::{table_bytes, OtfTwiddleGen};
use abc_fhe::math::primes::search_structured_primes;
use abc_fhe::math::Modulus;
use abc_fhe::transform::NttPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Structured 34-36-bit primes supporting N = 2^14 negacyclic NTTs.
    // `ABC_FHE_LOG_N` overrides the ring-degree exponent (CI smoke);
    // garbage values abort instead of silently reporting N = 2^14.
    let log_n = abc_fhe::ckks::params::log_n_from_env(14)?;
    let n = 1u64 << log_n;
    let primes = search_structured_primes(34..=36, n);
    println!(
        "structured NTT-friendly primes (34-36 bit, N = 2^{log_n}): {}",
        primes.len()
    );

    // Inspect the cheapest few: how small are their shift-add networks?
    let mut rows: Vec<_> = primes
        .iter()
        .filter_map(|p| {
            let m = Modulus::new(p.q).ok()?;
            let nf = NttFriendlyMontgomery::new(m).ok()?;
            Some((p, nf))
        })
        .collect();
    rows.sort_by_key(|(_, nf)| nf.total_adders());
    println!("\n q (hex)          terms  q^-1 CSD  q CSD  adders  (shift-add REDC networks)");
    for (p, nf) in rows.iter().take(8) {
        println!(
            " {:#014x}  {:>5}  {:>8}  {:>5}  {:>6}",
            p.q,
            p.num_terms,
            nf.csd_weight(),
            nf.q_csd_weight(),
            nf.total_adders()
        );
    }

    // Take the cheapest one and prove it works end to end: the shift-add
    // reducer agrees with the reference, and the NTT it enables
    // multiplies polynomials correctly with on-the-fly twiddles.
    let (best, nf) = &rows[0];
    let m = Modulus::new(best.q)?;
    println!(
        "\nselected q = {} ({} adders total)",
        best.q,
        nf.total_adders()
    );
    let mut agree = true;
    for i in 0..1000u64 {
        let a = (i * 0x9E37_79B9) % m.q();
        let b = (i * 0x85EB_CA6B + 1) % m.q();
        agree &= nf.mul_mod(a, b) == m.mul(a, b);
    }
    println!("shift-add REDC agrees with u128 reference on 1000 samples: {agree}");
    assert!(agree);

    let plan = NttPlan::new(m, 1 << 10)?;
    let otf = OtfTwiddleGen::with_psi(m, 1 << 10, plan.table().psi())?;
    let a: Vec<u64> = (0..1u64 << 10).map(|i| i % m.q()).collect();
    let mut fwd_table = a.clone();
    plan.forward(&mut fwd_table);
    let fwd_otf = StreamingNtt::new(&otf, LANES as usize).transform(&a);
    println!(
        "table-based and on-the-fly twiddles produce identical NTTs: {}",
        fwd_table == fwd_otf
    );
    assert_eq!(fwd_table, fwd_otf);

    // Memory story: table vs seeds for this modulus at the full ring.
    let full_otf = OtfTwiddleGen::new(m, n as usize)?;
    let table = table_bytes(n as usize);
    println!(
        "twiddle storage at N = 2^{log_n}: table {} KiB vs seeds {} B ({}x reduction)",
        table / 1024,
        full_otf.seed_bytes(),
        table / full_otf.seed_bytes()
    );
    Ok(())
}
