//! The library side of every workload: one CKKS context with its keys,
//! the two client ops wrapped in spans, and the timed loop.
//!
//! The upload and download workloads run their op here; the gateway
//! workload uses the same harness for its direct (no-gateway) baseline.

use crate::hostref::{self, Slices};
use crate::inputs::{self, MESSAGES};
use crate::json::Value;
use crate::procfs;
use crate::spec::{Kind, Workload, SMOKE_LOG_N, SMOKE_PRIMES};
use crate::stats::{fnv1a, median, FNV_OFFSET};
use crate::trace::Tracer;
use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::{wire, CkksContext, CkksError, EmbeddingEngine, PublicKey, SecretKey};
use abc_float::Complex;
use abc_prng::Seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seed streams, so no two purposes share library randomness.
const STREAM_KEYS: u64 = 1;
const STREAM_UPLOAD: u64 = 2;
const STREAM_DOWNLOAD_INPUT: u64 = 3;

/// Every this-many-th upload is decrypted and compared to its message.
const VERIFY_EVERY: u64 = 16;
/// Ops whose outputs feed the hash: one pass over the messages, which
/// every run completes, so the hash does not depend on speed.
const HASHED_OPS: u64 = MESSAGES as u64;

/// The CKKS parameters a workload runs at.
pub fn params(w: &Workload, smoke: bool) -> Result<CkksParams, CkksError> {
    let log_n = if smoke { SMOKE_LOG_N } else { w.log_n };
    let builder = match (w.kind, smoke) {
        (Kind::Upload | Kind::Download, false) => return CkksParams::bootstrappable(log_n),
        // The bootstrappable preset, shrunk.
        (Kind::Upload | Kind::Download, true) => CkksParams::builder()
            .num_primes(SMOKE_PRIMES)
            .scale_mode(ScaleMode::DoublePair),
        // What `abc_gateway`'s workers build from `GatewayConfig`.
        (Kind::Gateway, _) => CkksParams::builder()
            .num_primes(if smoke { SMOKE_PRIMES } else { GATEWAY_PRIMES })
            .secret_hamming_weight(Some((1usize << log_n) / 8)),
    };
    builder.log_n(log_n).build()
}

pub const GATEWAY_PRIMES: usize = 24;

/// Op time between two slices of the host-speed reference (see
/// `hostref`): about every second upload, every sixth 2-limb download.
const SLICE_EVERY_S: f64 = 0.1;

/// What one timed loop saw. Timings are as measured; the `scaled_*`
/// methods read them on the nominal host.
pub struct Pass {
    /// Latency of every sampled op, the stretch it ran in, and whether
    /// its spans were recorded.
    pub op_ms: Vec<f64>,
    pub op_stretch: Vec<usize>,
    pub op_traced: Vec<bool>,
    /// Wall and CPU seconds the ops took, reference slices excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall seconds of every stretch, and the reference slices around
    /// them (one more than stretches).
    pub stretch_s: Vec<f64>,
    pub slice_ms: Vec<f64>,
    pub wire_bytes: u64,
    /// Worst slot error of every checked op.
    pub errs: Vec<f64>,
    /// A checked op whose worst slot error exceeds this has failed.
    max_err: f64,
    /// Ops checked, whether or not an error could be read off them.
    pub checked: u64,
    pub failed: u64,
    /// FNV-1a over the outputs of the first [`HASHED_OPS`] ops.
    pub hash: u64,
    /// (op, blob hash) of uploads to decrypt once the loop is over.
    pub to_verify: Vec<(u64, u64)>,
}

impl Pass {
    pub fn new(floor_bits: f64) -> Self {
        Self {
            max_err: (-floor_bits).exp2(),
            op_ms: Vec::new(),
            op_stretch: Vec::new(),
            op_traced: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            stretch_s: Vec::new(),
            slice_ms: Vec::new(),
            wire_bytes: 0,
            errs: Vec::new(),
            checked: 0,
            failed: 0,
            hash: FNV_OFFSET,
            to_verify: Vec::new(),
        }
    }

    /// Folds one decoded op into the precision and failure counts.
    pub fn check_slots(&mut self, got: &[Complex], want: &[Complex]) {
        let err = worst_slot_error(got, want);
        self.checked += 1;
        self.errs.push(err);
        if err.is_nan() || err > self.max_err {
            self.failed += 1;
        }
    }

    /// Every op latency as the nominal host would have taken it.
    pub fn scaled_op_ms(&self) -> Vec<f64> {
        let ops = self.op_ms.iter().zip(&self.op_stretch);
        ops.map(|(ms, &k)| ms * hostref::factor(&self.slice_ms, k))
            .collect()
    }

    /// The median scaled latency of the ops that were (or were not)
    /// traced.
    pub fn scaled_p50_ms(&self, traced: bool) -> f64 {
        let ops = self.scaled_op_ms().into_iter().zip(&self.op_traced);
        median(
            &ops.filter(|(_, &t)| t == traced)
                .map(|(ms, _)| ms)
                .collect::<Vec<_>>(),
        )
    }

    /// `wall_s` as the nominal host would have taken it.
    pub fn scaled_wall_s(&self) -> f64 {
        let stretches = self.stretch_s.iter().enumerate();
        stretches
            .map(|(k, s)| s * hostref::factor(&self.slice_ms, k))
            .sum()
    }

    /// Bits the worst slot keeps, in the median checked op. (The worst
    /// op is held to the floor by `failed`; as a metric it is the
    /// maximum of a few dozen noise draws and repeats poorly.)
    pub fn precision_bits(&self) -> f64 {
        -median(&self.errs).log2()
    }

    pub fn worst_precision_bits(&self) -> f64 {
        -self.errs.iter().copied().fold(0.0, f64::max).log2()
    }
}

pub fn worst_slot_error(got: &[Complex], want: &[Complex]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(a, b)| a.dist(*b))
        .fold(0.0, f64::max)
}

pub fn hash_slots(state: u64, slots: &[Complex]) -> u64 {
    slots.iter().fold(state, |h, z| {
        fnv1a(
            fnv1a(h, &z.re.to_bits().to_le_bytes()),
            &z.im.to_bits().to_le_bytes(),
        )
    })
}

/// One timed `CkksContext::new` + `keygen`.
pub struct Keyed {
    pub ctx: CkksContext,
    pub sk: SecretKey,
    pub pk: PublicKey,
    pub context_ms: f64,
    pub keygen_ms: f64,
}

pub fn timed_setup(params: &CkksParams, seed: u64) -> Result<Keyed, CkksError> {
    let t = Instant::now();
    let ctx = CkksContext::new(params.clone())?;
    let context_ms = t.elapsed().as_secs_f64() * 1e3;
    let (sk, pk) = ctx.keygen(inputs::derive_seed(seed, STREAM_KEYS, 0));
    let keygen_ms = t.elapsed().as_secs_f64() * 1e3 - context_ms;
    Ok(Keyed {
        ctx,
        sk,
        pk,
        context_ms,
        keygen_ms,
    })
}

pub struct Client {
    pub ctx: CkksContext,
    pub sk: SecretKey,
    pub pk: PublicKey,
    pub messages: Vec<Vec<Complex>>,
    pub seed: u64,
    /// Primes a downloaded ciphertext carries.
    pub down_limbs: usize,
    floor_bits: f64,
    up_widths: Vec<u32>,
    /// One packed `down_limbs`-prime ciphertext per message.
    down_blobs: Vec<Vec<u8>>,
}

impl Client {
    /// Wraps a set-up context and prepares the download inputs (not part
    /// of set-up time: a client receives these from the server).
    pub fn new(
        keyed: Keyed,
        w: &Workload,
        messages: Vec<Vec<Complex>>,
        seed: u64,
    ) -> Result<Self, CkksError> {
        let Keyed { ctx, sk, pk, .. } = keyed;
        let primes = ctx.params().num_primes();
        let down_limbs = w.down_limbs.map_or(primes, |l| l.min(primes));
        let down_widths = ctx.wire_widths(down_limbs);
        let down_blobs = messages
            .iter()
            .enumerate()
            .map(|(i, msg)| {
                let seed = inputs::derive_seed(seed, STREAM_DOWNLOAD_INPUT, i as u64);
                let ct = ctx.encrypt(&ctx.encode(msg)?, &pk, seed);
                wire::serialize_ciphertext_packed(&ct.truncated(down_limbs), &down_widths)
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            up_widths: ctx.wire_widths(primes),
            ctx,
            sk,
            pk,
            messages,
            seed,
            down_limbs,
            floor_bits: w.floor_bits,
            down_blobs,
        })
    }

    pub fn message(&self, op: u64) -> &[Complex] {
        &self.messages[op as usize % MESSAGES]
    }

    pub fn down_blob(&self, op: u64) -> &[u8] {
        &self.down_blobs[op as usize % MESSAGES]
    }

    /// The upload op: `encode` → `encrypt` → `serialize_ciphertext_packed`.
    pub fn upload_op(&self, op: u64, tr: &mut Tracer) -> Result<Vec<u8>, CkksError> {
        let seed: Seed = inputs::derive_seed(self.seed, STREAM_UPLOAD, op);
        let root = tr.begin("op.upload", None, op);
        let pt = tr.span("ckks.encode", root, op, || {
            self.ctx.encode(self.message(op))
        })?;
        let ct = tr.span("ckks.encrypt", root, op, || {
            self.ctx.encrypt(&pt, &self.pk, seed)
        });
        let blob = tr.span("ckks.wire_serialize", root, op, || {
            wire::serialize_ciphertext_packed(&ct, &self.up_widths)
        })?;
        // Freeing 37 MB of limbs is part of the op, and of its spans.
        tr.span("ckks.drop", root, op, || drop((pt, ct)));
        tr.end(root);
        Ok(blob)
    }

    /// The download op: `deserialize_ciphertext` → `decrypt` → `decode`.
    pub fn download_op(
        &self,
        blob: &[u8],
        op: u64,
        tr: &mut Tracer,
    ) -> Result<Vec<Complex>, CkksError> {
        let root = tr.begin("op.download", None, op);
        let ct = tr.span("ckks.wire_deserialize", root, op, || {
            wire::deserialize_ciphertext(blob)
        })?;
        let pt = tr.span("ckks.decrypt", root, op, || self.ctx.decrypt(&ct, &self.sk))?;
        let slots = tr.span("ckks.decode", root, op, || self.ctx.decode(&pt))?;
        tr.span("ckks.drop", root, op, || drop((ct, pt)));
        tr.end(root);
        Ok(slots)
    }

    /// Runs `kind`'s op back to back, one caller, until the ops alone
    /// have taken `seconds`; checks every output outside the timed part.
    /// Given an enabled tracer it records the spans of every other op,
    /// so traced and untraced ops see the same host.
    pub fn timed_pass(&self, kind: Kind, seconds: f64, tr: &mut Tracer) -> Pass {
        let tracing = tr.enabled();
        let mut pass = Pass::new(self.floor_bits);
        let mut slices = Slices::new();
        let cpu0 = procfs::cpu_seconds();
        slices.take();
        let mut stretch_s = 0.0;
        let mut op = 0u64;
        // When tracing, at least one op of each kind.
        while pass.wall_s < seconds || (tracing && op < 2) {
            tr.set_enabled(tracing && op % 2 == 1);
            pass.op_traced.push(tr.enabled());
            let t = Instant::now();
            let done = match kind {
                Kind::Upload => catch_unwind(AssertUnwindSafe(|| {
                    self.upload_op(op, tr).map(Output::Blob)
                })),
                _ => catch_unwind(AssertUnwindSafe(|| {
                    self.download_op(self.down_blob(op), op, tr)
                        .map(Output::Slots)
                })),
            };
            let dt = t.elapsed().as_secs_f64();
            pass.wall_s += dt;
            stretch_s += dt;
            pass.op_ms.push(dt * 1e3);
            pass.op_stretch.push(pass.stretch_s.len());
            match done {
                Ok(Ok(Output::Blob(blob))) => {
                    pass.wire_bytes += blob.len() as u64;
                    if op < HASHED_OPS {
                        pass.hash = fnv1a(pass.hash, &blob);
                    }
                    if op.is_multiple_of(VERIFY_EVERY) {
                        pass.to_verify.push((op, fnv1a(FNV_OFFSET, &blob)));
                    }
                }
                Ok(Ok(Output::Slots(slots))) => {
                    pass.wire_bytes += self.down_blob(op).len() as u64;
                    if op < HASHED_OPS {
                        pass.hash = hash_slots(pass.hash, &slots);
                    }
                    pass.check_slots(&slots, self.message(op));
                }
                Ok(Err(_)) | Err(_) => pass.failed += 1,
            }
            op += 1;
            if stretch_s >= SLICE_EVERY_S || pass.wall_s >= seconds {
                pass.stretch_s.push(std::mem::take(&mut stretch_s));
                slices.take();
            }
        }
        // The checks above ride along (< 1 % of an op); the CPU clock
        // ticks at 10 ms, too coarse to subtract them per op.
        pass.cpu_s = procfs::cpu_seconds() - cpu0 - slices.cpu_s();
        pass.slice_ms = slices.ms().to_vec();
        tr.set_enabled(tracing);
        pass
    }

    /// Decrypts the uploads `pass` set aside: each is produced again
    /// from its seed (so the loop holds no blob, and peak RSS stays the
    /// library's), must hash the same, and must decode to its message.
    pub fn verify_uploads(&self, pass: &mut Pass, tr: &mut Tracer) {
        for (op, want_hash) in std::mem::take(&mut pass.to_verify) {
            let decoded = catch_unwind(AssertUnwindSafe(|| {
                let blob = self.upload_op(op, &mut Tracer::new(false))?;
                if fnv1a(FNV_OFFSET, &blob) != want_hash {
                    return Err(CkksError::InvalidParams("same seed, different blob".into()));
                }
                self.download_op(&blob, op, tr)
            }));
            match decoded {
                Ok(Ok(slots)) => pass.check_slots(&slots, self.message(op)),
                Ok(Err(_)) | Err(_) => {
                    pass.checked += 1;
                    pass.failed += 1;
                }
            }
        }
    }
}

enum Output {
    Blob(Vec<u8>),
    Slots(Vec<Complex>),
}

/// Which kernels and thread counts the library chose on its own for a
/// context: recorded, never set.
pub fn kernels(ctx: &CkksContext) -> Value {
    let plan = &ctx.ntt_plans()[0];
    let EmbeddingEngine::F64(fft) = ctx.embedding() else {
        panic!("the benchmark's workloads run the F64 embedding datapath");
    };
    Value::obj([
        ("ntt", Value::str(plan.kernel_name())),
        ("dyadic", Value::str(plan.dyadic().kernel_name())),
        ("fft", Value::str(fft.plan().kernel_name())),
        ("ntt_threads", Value::Num(ctx.ntt_engine().threads() as f64)),
        ("fft_threads", Value::Num(fft.threads() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostref::NOMINAL_MS;

    #[test]
    fn scaled_timings_use_the_slices_around_each_stretch() {
        let mut pass = Pass::new(19.29);
        // Stretch 0 ran at nominal speed, stretch 1 at half of it.
        pass.slice_ms = vec![NOMINAL_MS, NOMINAL_MS, 3.0 * NOMINAL_MS];
        pass.op_ms = vec![10.0, 20.0, 30.0];
        pass.op_stretch = vec![0, 1, 1];
        pass.op_traced = vec![false, true, false];
        pass.stretch_s = vec![1.0, 3.0];
        assert_eq!(pass.scaled_op_ms(), vec![10.0, 10.0, 15.0]);
        assert_eq!(pass.scaled_p50_ms(true), 10.0);
        assert_eq!(pass.scaled_p50_ms(false), 10.0);
        assert_eq!(pass.scaled_wall_s(), 2.5);
    }
}
