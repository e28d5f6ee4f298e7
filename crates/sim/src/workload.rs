//! Client-side workloads mapped onto the streaming architecture.
//!
//! The scheduler realizes the paper's task mapping: during encryption the
//! four per-prime transforms (`m`, `v`, `e0`, `e1`) occupy the four PNLs
//! of a core simultaneously while primes stream through the two RSCs;
//! the IFFT/FFT gangs all lanes of a core into complex multipliers.
//! Dyadic MSE work, PRNG generation and the OTF twiddle generator run in
//! lock-step with the streams and add no cycles of their own — that is
//! the point of the streaming design.

use crate::config::{MemoryConfig, SimConfig};
use crate::dram::Traffic;
use crate::pipeline;
use crate::report::{BoundBy, PhaseCycles, SimReport};

/// Per-lane twiddle register capacity (words) assumed for the `Base`
/// configuration: stages whose twiddle set fits are fetched once; larger
/// stages re-stream every transform.
pub const TWIDDLE_BUFFER_WORDS: u64 = 64;

/// Polynomials transformed per prime during encryption
/// (`m`, `v`, `e0`, `e1`): the paper's four-PNL mapping. The host runs
/// three per prime, transforming `m + e0` as one polynomial, on both of
/// its upload paths: the fused `CkksContext::encode_encrypt_into`, and
/// `encode` → `encrypt`, whose plaintext keeps its integer coefficients
/// until `encrypt` folds `e0` into them. The model keeps the paper's
/// count.
pub const ENC_TRANSFORMS_PER_PRIME: u32 = 4;

/// The two client flows of the paper's Fig. 2a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Message → IFFT → expand RNS → NTT → pk combination → ciphertext.
    EncodeEncrypt,
    /// Ciphertext → `c0 + c1·s` → INTT → combine CRT → FFT → message.
    DecodeDecrypt,
}

/// A concrete workload instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Which flow.
    pub kind: WorkloadKind,
    /// `log2(N)`.
    pub log_n: u32,
    /// RNS primes carried by the object (24 for fresh encryptions, 2 for
    /// server-returned ciphertexts in the paper's setup).
    pub primes: usize,
}

impl Workload {
    /// Encode+encrypt at `primes` RNS primes.
    pub fn encode_encrypt(log_n: u32, primes: usize) -> Self {
        Self {
            kind: WorkloadKind::EncodeEncrypt,
            log_n,
            primes,
        }
    }

    /// Decode+decrypt of a `primes`-prime ciphertext.
    pub fn decode_decrypt(log_n: u32, primes: usize) -> Self {
        Self {
            kind: WorkloadKind::DecodeDecrypt,
            log_n,
            primes,
        }
    }

    /// Ring degree `N`.
    pub fn n(&self) -> u64 {
        1u64 << self.log_n
    }

    /// Slot count `N/2`.
    pub fn slots(&self) -> u64 {
        1u64 << (self.log_n - 1)
    }

    /// Runs the workload under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the lane count reaches `N`.
    pub fn run(&self, cfg: &SimConfig) -> SimReport {
        cfg.validate();
        match self.kind {
            WorkloadKind::EncodeEncrypt => self.run_encode_encrypt(cfg),
            WorkloadKind::DecodeDecrypt => self.run_decode_decrypt(cfg),
        }
    }

    fn run_encode_encrypt(&self, cfg: &SimConfig) -> SimReport {
        let n = self.n();
        let cb = cfg.coeff_bytes();
        let primes = self.primes as f64;

        // --- Compute phases ---
        // IFFT on one core's ganged lanes.
        let ifft = pipeline::fft_stream_cycles(self.slots(), cfg.lanes, cfg.pnls_per_rsc);
        // Per-prime transforms: 4 polynomials across the core's PNLs,
        // primes split across cores.
        let primes_per_core = (self.primes as u32).div_ceil(cfg.rsc_count);
        let serialization = ENC_TRANSFORMS_PER_PRIME.div_ceil(cfg.pnls_per_rsc);
        let ntt_phase = primes_per_core as f64
            * serialization as f64
            * pipeline::ntt_stream_cycles(n, cfg.lanes);
        let compute = ifft + ntt_phase;

        // --- DRAM traffic ---
        // Seed-compressed symmetric upload ships only c0 plus a 16 B
        // seed instead of both components. Ciphertext transport is
        // charged at the wire width (v3 bit-packed when configured);
        // on-chip parameters stay at the datapath width.
        let components = if cfg.compressed_upload { 1.0 } else { 2.0 };
        let wire_cb = cfg.wire_coeff_bytes();
        let mut traffic = Traffic {
            payload_in: self.slots() as f64 * cfg.message_bits_per_slot as f64 / 8.0,
            payload_out: primes * components * n as f64 * wire_cb
                + if cfg.compressed_upload { 16.0 } else { 0.0 },
            parameters: 0.0,
        };
        let transforms = primes * ENC_TRANSFORMS_PER_PRIME as f64;
        match cfg.memory {
            MemoryConfig::Base => {
                // Twiddles stream per transform; public key, mask and
                // errors are fetched materialized.
                traffic.parameters +=
                    transforms * pipeline::streamed_twiddle_words(n, TWIDDLE_BUFFER_WORDS) * cb;
                // IFFT twiddles (complex words).
                traffic.parameters +=
                    pipeline::streamed_twiddle_words(self.slots(), TWIDDLE_BUFFER_WORDS) * 2.0 * cb;
                traffic.parameters += 2.0 * primes * n as f64 * cb; // pk
                traffic.parameters += primes * n as f64 * cb; // masks+errors
            }
            MemoryConfig::TfGen => {
                traffic.parameters += 2.0 * primes * n as f64 * cb; // pk
                traffic.parameters += primes * n as f64 * cb; // masks+errors
            }
            MemoryConfig::All => {}
        }

        self.finish(
            cfg,
            "encode+encrypt",
            compute,
            traffic,
            vec![
                PhaseCycles {
                    label: "IFFT (canonical embedding)".into(),
                    compute: ifft,
                },
                PhaseCycles {
                    label: "NTT x4/prime + MSE".into(),
                    compute: ntt_phase,
                },
            ],
        )
    }

    fn run_decode_decrypt(&self, cfg: &SimConfig) -> SimReport {
        let n = self.n();
        let cb = cfg.coeff_bytes();
        let primes = self.primes as f64;

        // --- Compute phases ---
        // INTTs of c0 + c1·s, one per prime, spread over every PNL.
        let total_pnls = cfg.pnls_per_rsc * cfg.rsc_count;
        let intt_rounds = (self.primes as u32).div_ceil(total_pnls);
        let intt = intt_rounds as f64 * pipeline::ntt_stream_cycles(n, cfg.lanes);
        // FFT back to slots on one core's ganged lanes.
        let fft = pipeline::fft_stream_cycles(self.slots(), cfg.lanes, cfg.pnls_per_rsc);
        let compute = intt + fft;

        // --- DRAM traffic ---
        // Returned ciphertexts arrive over the wire: packed width when
        // the v3 codec is configured.
        let mut traffic = Traffic {
            payload_in: 2.0 * primes * n as f64 * cfg.wire_coeff_bytes(),
            payload_out: self.slots() as f64 * cfg.message_bits_per_slot as f64 / 8.0,
            parameters: 0.0,
        };
        match cfg.memory {
            MemoryConfig::Base => {
                traffic.parameters +=
                    primes * pipeline::streamed_twiddle_words(n, TWIDDLE_BUFFER_WORDS) * cb;
                traffic.parameters +=
                    pipeline::streamed_twiddle_words(self.slots(), TWIDDLE_BUFFER_WORDS) * 2.0 * cb;
                traffic.parameters += primes * n as f64 * cb; // expanded secret key
            }
            MemoryConfig::TfGen => {
                traffic.parameters += primes * n as f64 * cb; // expanded secret key
            }
            MemoryConfig::All => {}
        }

        self.finish(
            cfg,
            "decode+decrypt",
            compute,
            traffic,
            vec![
                PhaseCycles {
                    label: "INTT per prime + MSE/CRT".into(),
                    compute: intt,
                },
                PhaseCycles {
                    label: "FFT (canonical embedding)".into(),
                    compute: fft,
                },
            ],
        )
    }

    fn finish(
        &self,
        cfg: &SimConfig,
        label: &str,
        compute: f64,
        traffic: Traffic,
        phases: Vec<PhaseCycles>,
    ) -> SimReport {
        let dram = cfg.dram.transfer_cycles(traffic.total(), cfg.clock_hz);
        // Double-buffered scratchpads overlap compute and transfer; fills
        // and the first DRAM access do not overlap.
        let fill = pipeline::ntt_fill_cycles(self.n(), cfg.lanes, cfg.mult_stages)
            + pipeline::fft_fill_cycles(self.slots(), cfg.lanes, cfg.pnls_per_rsc, cfg.mult_stages)
            + cfg.dram.prologue_cycles(cfg.clock_hz);
        let steady = compute.max(dram);
        let total = steady + fill;
        SimReport {
            workload: format!("{label} (N=2^{}, {} primes)", self.log_n, self.primes),
            total_cycles: total,
            time_ms: cfg.cycles_to_ms(total),
            compute_cycles: compute,
            dram_cycles: dram,
            fill_cycles: fill,
            traffic,
            bound_by: if compute >= dram {
                BoundBy::Compute
            } else {
                BoundBy::Memory
            },
            phases,
            throughput_per_s: cfg.clock_hz / steady,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::paper_default()
    }

    #[test]
    fn paper_point_latencies_are_sub_millisecond() {
        let enc = Workload::encode_encrypt(16, 24).run(&cfg());
        let dec = Workload::decode_decrypt(16, 2).run(&cfg());
        // ABC-FHE's headline: client ops complete in fractions of a ms.
        assert!(enc.time_ms > 0.05 && enc.time_ms < 1.0, "{}", enc.time_ms);
        assert!(dec.time_ms > 0.005 && dec.time_ms < 0.2, "{}", dec.time_ms);
        // Encryption side is several times heavier (paper: ~10x ops).
        let ratio = enc.total_cycles / dec.total_cycles;
        assert!(ratio > 3.0 && ratio < 20.0, "ratio = {ratio}");
    }

    #[test]
    fn encode_is_memory_bound_at_paper_point() {
        // At P = 8 with LPDDR5 the paper observes the memory ceiling —
        // that is why more lanes stop helping (Fig. 5b).
        let enc = Workload::encode_encrypt(16, 24).run(&cfg());
        assert_eq!(enc.bound_by, BoundBy::Memory);
    }

    #[test]
    fn fewer_lanes_make_it_compute_bound() {
        let enc = Workload::encode_encrypt(16, 24).run(&cfg().with_lanes(2));
        assert_eq!(enc.bound_by, BoundBy::Compute);
        let enc8 = Workload::encode_encrypt(16, 24).run(&cfg());
        assert!(enc.total_cycles > enc8.total_cycles);
    }

    #[test]
    fn lanes_beyond_eight_give_no_speedup() {
        let t8 = Workload::encode_encrypt(16, 24).run(&cfg().with_lanes(8));
        let t64 = Workload::encode_encrypt(16, 24).run(&cfg().with_lanes(64));
        // Memory wall: the paper caps the design at 8 lanes. Only the
        // (small) pipeline-fill latency still shrinks with more lanes.
        assert!(t64.total_cycles > 0.90 * t8.total_cycles);
    }

    #[test]
    fn base_config_is_many_times_slower() {
        use crate::config::MemoryConfig;
        for log_n in [13u32, 14, 15, 16] {
            let all = Workload::encode_encrypt(log_n, 24).run(&cfg());
            let base =
                Workload::encode_encrypt(log_n, 24).run(&cfg().with_memory(MemoryConfig::Base));
            let tf =
                Workload::encode_encrypt(log_n, 24).run(&cfg().with_memory(MemoryConfig::TfGen));
            let r = base.slowdown_vs(&all);
            // Paper Fig. 6b: 8.2–9.3x; our traffic model lands in the
            // same several-fold band and rises with N.
            assert!(r > 3.0 && r < 14.0, "log_n={log_n} ratio={r}");
            // TF_Gen sits strictly between Base and All.
            assert!(tf.total_cycles < base.total_cycles);
            assert!(tf.total_cycles > all.total_cycles);
        }
    }

    #[test]
    fn traffic_accounting_matches_closed_form() {
        let enc = Workload::encode_encrypt(16, 24).run(&cfg());
        // Ciphertext out: 24 primes x 2 polys x 65536 x 5.5 B.
        assert_eq!(enc.traffic.payload_out, 24.0 * 2.0 * 65536.0 * 5.5);
        // Message in: 32768 slots x 16 B.
        assert_eq!(enc.traffic.payload_in, 32768.0 * 16.0);
        assert_eq!(enc.traffic.parameters, 0.0);
    }

    #[test]
    fn packed_wire_reduces_ciphertext_traffic() {
        // The bootstrappable basis packs to 36.125 bits/coeff; charging
        // the v3 wire must shrink ciphertext payloads by exactly that
        // ratio and leave message + parameter traffic untouched.
        let widths: Vec<u32> = std::iter::once(39).chain([36u32; 23]).collect();
        let packed_cfg = cfg().with_wire_widths(&widths);
        packed_cfg.validate();
        assert!((packed_cfg.wire_coeff_bytes() - 36.125 / 8.0).abs() < 1e-12);
        let full = Workload::encode_encrypt(16, 24).run(&cfg());
        let packed = Workload::encode_encrypt(16, 24).run(&packed_cfg);
        let ratio = packed.traffic.payload_out / full.traffic.payload_out;
        assert!((ratio - 36.125 / 44.0).abs() < 1e-9, "ratio {ratio}");
        assert_eq!(packed.traffic.payload_in, full.traffic.payload_in);
        assert_eq!(packed.traffic.parameters, full.traffic.parameters);
        assert!(packed.total_cycles < full.total_cycles);
        // Decode side: the returned ciphertext shrinks too.
        let dec_full = Workload::decode_decrypt(16, 2).run(&cfg());
        let dec_packed = Workload::decode_decrypt(16, 2).run(&packed_cfg);
        assert!(
            (dec_packed.traffic.payload_in / dec_full.traffic.payload_in - 36.125 / 44.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn throughput_reciprocal_to_steady_cycles() {
        let enc = Workload::encode_encrypt(16, 24).run(&cfg());
        let steady = enc.compute_cycles.max(enc.dram_cycles);
        assert!((enc.throughput_per_s - 600e6 / steady).abs() < 1e-6);
    }

    #[test]
    fn compressed_upload_relieves_the_memory_wall() {
        let full = Workload::encode_encrypt(16, 24).run(&cfg());
        let compressed = Workload::encode_encrypt(16, 24).run(&cfg().with_compressed_upload(true));
        // Half the write-back traffic: the memory-bound point moves and
        // latency improves substantially.
        assert!(compressed.traffic.payload_out < 0.51 * full.traffic.payload_out);
        assert!(compressed.total_cycles < 0.75 * full.total_cycles);
        // With the wall relieved, the paper configuration becomes
        // compute-bound.
        assert_eq!(compressed.bound_by, BoundBy::Compute);
    }

    #[test]
    fn report_displays() {
        let s = Workload::decode_decrypt(14, 2).run(&cfg()).to_string();
        assert!(s.contains("decode+decrypt"));
        assert!(s.contains("FFT"));
    }
}
