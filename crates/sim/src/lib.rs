//! Cycle-level simulator of the ABC-FHE streaming accelerator.
//!
//! The paper evaluates latency with a cycle-level simulator at 600 MHz;
//! this crate is that simulator, rebuilt from the architecture the paper
//! describes:
//!
//! * **Streaming MDC pipelines** ([`pipeline`]) — each Pipelined NTT Lane
//!   (PNL) is a P-parallel multi-path delay commutator that accepts P
//!   coefficients per cycle; a transform of `N` points streams in `N/P`
//!   cycles after a fill latency set by the butterfly pipeline depth and
//!   the commutator FIFOs. These closed forms are checked against the
//!   ticks of `abc_hw::stream`, the stepped column that computes the
//!   transform (`tests/cross_validation.rs` at the workspace root).
//! * **LPDDR5 DRAM model** ([`dram`]) — 68.4 GB/s shared by fetch and
//!   write-back; the global scratchpad is double-buffered so compute and
//!   transfer overlap, making total latency `max(compute, dram) + fill`.
//! * **Memory configurations** ([`config::MemoryConfig`]) — `Base`
//!   fetches twiddles, keys, masks and errors from DRAM (the prior-work
//!   pattern the paper criticizes); `TfGen` generates twiddles on-chip;
//!   `All` also generates keys/masks/errors from the PRNG seed (paper
//!   Fig. 6b).
//! * **Workload scheduler** ([`workload`]) — the client-side flows of
//!   Fig. 2a mapped onto 2 RSCs × 4 PNLs: the four per-prime transforms
//!   of encryption (`m`, `v`, `e0`, `e1`) run on the four PNLs in
//!   parallel while primes stream through the cores.
//!
//! [`sweep`] reproduces the evaluation sweeps: lane count (Fig. 5b) and
//! memory configuration across polynomial degrees (Fig. 6b).
//!
//! # Example
//!
//! ```
//! use abc_sim::config::SimConfig;
//! use abc_sim::workload::Workload;
//! use abc_sim::simulate;
//!
//! let cfg = SimConfig::paper_default();
//! let enc = simulate(&Workload::encode_encrypt(16, 24), &cfg);
//! let dec = simulate(&Workload::decode_decrypt(16, 2), &cfg);
//! // The paper's headline asymmetry: encryption-side work is much larger.
//! assert!(enc.total_cycles > 4.0 * dec.total_cycles);
//! ```

pub mod config;
pub mod dram;
pub mod pipeline;
pub mod report;
pub mod schedule;
pub mod sweep;
pub mod workload;

pub use config::SimConfig;
pub use report::{BoundBy, SimReport};
pub use workload::Workload;

/// Runs a workload under a configuration and returns the cycle report.
pub fn simulate(workload: &Workload, cfg: &SimConfig) -> SimReport {
    workload.run(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    /// FNV-1a over a byte stream.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Every report field of both client flows at the paper's presets,
    /// under every memory configuration and three lane counts, hashed
    /// per (flow, `log_n`) — values captured before the second stepped
    /// model of the RFE was deleted, so a change to the analytic model
    /// shows here and not only in a figure.
    #[test]
    fn reports_equal_the_parents() {
        let pinned: [(Workload, u64); 8] = [
            (Workload::encode_encrypt(13, 24), 0xd8a0_f681_e16a_e427),
            (Workload::encode_encrypt(14, 24), 0xd7c5_5d70_205a_11d1),
            (Workload::encode_encrypt(15, 24), 0x09ed_e7a3_83d7_30ec),
            (Workload::encode_encrypt(16, 24), 0x0433_8362_54b2_57c2),
            (Workload::decode_decrypt(13, 2), 0xd62f_b061_87e6_0c56),
            (Workload::decode_decrypt(14, 2), 0xca9c_1729_5437_8e9a),
            (Workload::decode_decrypt(15, 2), 0x6ca7_6f9e_28f0_140b),
            (Workload::decode_decrypt(16, 2), 0x115a_cdd7_e203_68a4),
        ];
        for (w, want) in pinned {
            let mut text = String::new();
            for memory in MemoryConfig::ALL {
                for lanes in [4, 8, 16] {
                    let cfg = SimConfig::paper_default()
                        .with_memory(memory)
                        .with_lanes(lanes);
                    text += &format!("{:?}\n", simulate(&w, &cfg));
                }
            }
            assert_eq!(fnv1a(text.as_bytes()), want, "{w:?}");
        }
    }
}
