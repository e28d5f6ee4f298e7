//! Deterministic, seed-driven fault injection.
//!
//! Chaos testing a threaded service is only useful when a failing run
//! can be replayed: every fault decision here is a pure function of
//! `(plan seed, request sequence number)` via the ChaCha-based
//! [`Seed::derive`], so a fixed seed produces the identical fault
//! schedule on every run and every machine. The plan's *window*
//! confines faults to a sequence range, letting one gateway run a
//! clean warm-up, a fault storm, and a recovery phase in a single
//! process — which is exactly how the chaos suite measures post-fault
//! throughput recovery.

use abc_prng::Seed;
use std::ops::Range;
use std::time::Duration;

/// The fault injected into one request, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault.
    None,
    /// The worker panics mid-request (exercises `catch_unwind`
    /// isolation, responder drop-guards, and the worker resuming on the
    /// shared context).
    PanicWorker,
    /// One byte of the request's wire blob is flipped (exercises
    /// strict deserializer validation). No-op for blob-less requests.
    CorruptBlob,
    /// The request's wire blob is truncated (ditto).
    TruncateBlob,
    /// The worker stalls for the given duration before processing
    /// (exercises deadlines and queue backpressure).
    ExtraLatency(Duration),
}

/// A deterministic fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: Seed,
    /// Request-sequence window in which faults fire.
    window: Range<u64>,
    /// Per-1024 incidence of each fault class, applied cumulatively.
    panic_per_1024: u16,
    corrupt_per_1024: u16,
    latency_per_1024: u16,
    latency: Duration,
}

impl FaultPlan {
    /// A plan that never fires — production configuration.
    pub fn disabled() -> Self {
        Self {
            seed: Seed::from_u128(0),
            window: 0..0,
            panic_per_1024: 0,
            corrupt_per_1024: 0,
            latency_per_1024: 0,
            latency: Duration::ZERO,
        }
    }

    /// A storm plan: within `window`, inject panics, blob damage, and
    /// stalls at the given per-1024 rates (cumulative order: panic,
    /// corrupt/truncate, latency).
    pub fn storm(
        seed: Seed,
        window: Range<u64>,
        panic_per_1024: u16,
        corrupt_per_1024: u16,
        latency_per_1024: u16,
        latency: Duration,
    ) -> Self {
        Self {
            seed,
            window,
            panic_per_1024,
            corrupt_per_1024,
            latency_per_1024,
            latency,
        }
    }

    /// The fault (if any) for request number `seq` — pure and
    /// replayable.
    pub fn fault_for(&self, seq: u64) -> Fault {
        if !self.window.contains(&seq) {
            return Fault::None;
        }
        let raw = self.seed.derive(seq).low64();
        let roll = (raw % 1024) as u16;
        let pick = raw >> 10;
        let mut bound = self.panic_per_1024;
        if roll < bound {
            return Fault::PanicWorker;
        }
        bound += self.corrupt_per_1024;
        if roll < bound {
            return if pick & 1 == 0 {
                Fault::CorruptBlob
            } else {
                Fault::TruncateBlob
            };
        }
        bound += self.latency_per_1024;
        if roll < bound {
            return Fault::ExtraLatency(self.latency);
        }
        Fault::None
    }

    /// Applies blob damage for `seq` in place (flip one byte, or cut
    /// the tail) — deterministic in the same way as [`fault_for`].
    /// Leaves empty blobs alone.
    ///
    /// [`fault_for`]: Self::fault_for
    pub(crate) fn damage_blob(&self, seq: u64, blob: &mut Vec<u8>) {
        if blob.is_empty() {
            return;
        }
        let raw = self.seed.derive(seq ^ 0x00D0_DE5E_ED00_0000).low64();
        match self.fault_for(seq) {
            Fault::CorruptBlob => {
                let at = (raw as usize) % blob.len();
                blob[at] ^= 0x40 | ((raw >> 32) as u8 & 0x3F) | 1;
            }
            Fault::TruncateBlob => {
                let keep = (raw as usize) % blob.len();
                blob.truncate(keep);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        FaultPlan::storm(
            Seed::from_u128(0xFA017),
            100..200,
            100,
            100,
            100,
            Duration::from_millis(5),
        )
    }

    #[test]
    fn deterministic_and_windowed() {
        let plan = storm();
        for seq in 0..300 {
            assert_eq!(plan.fault_for(seq), plan.fault_for(seq), "seq {seq}");
            if !(100..200).contains(&seq) {
                assert_eq!(plan.fault_for(seq), Fault::None, "seq {seq} outside window");
            }
        }
        // ~30% incidence over the window: expect a healthy count of
        // each class with this seed.
        let faults: Vec<Fault> = (100..200).map(|s| plan.fault_for(s)).collect();
        let count = |f: fn(&Fault) -> bool| faults.iter().filter(|x| f(x)).count();
        assert!(count(|f| matches!(f, Fault::PanicWorker)) > 2);
        assert!(count(|f| matches!(f, Fault::CorruptBlob | Fault::TruncateBlob)) > 2);
        assert!(count(|f| matches!(f, Fault::ExtraLatency(_))) > 2);
        assert!(count(|f| matches!(f, Fault::None)) > 30);
    }

    #[test]
    fn disabled_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!((0..1000).all(|s| plan.fault_for(s) == Fault::None));
    }

    #[test]
    fn blob_damage_changes_bytes_deterministically() {
        let plan = storm();
        let seq = (100..200)
            .find(|&s| plan.fault_for(s) == Fault::CorruptBlob)
            .expect("storm has corruption");
        let original = vec![0xABu8; 64];
        let mut a = original.clone();
        let mut b = original.clone();
        plan.damage_blob(seq, &mut a);
        plan.damage_blob(seq, &mut b);
        assert_eq!(a, b, "replayable");
        assert_ne!(a, original, "actually damaged");

        let seq = (100..200)
            .find(|&s| plan.fault_for(s) == Fault::TruncateBlob)
            .expect("storm has truncation");
        let mut t = original.clone();
        plan.damage_blob(seq, &mut t);
        assert!(t.len() < original.len());
    }
}
