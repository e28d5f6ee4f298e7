//! The workspace's kernel timer: a fast machine-readable perf +
//! precision snapshot for CI artifacts, and the paired comparison of two
//! builds of it that a kernel claim rests on.
//!
//! ```text
//! cargo run --release -p abc-bench --bin perf_snapshot -- [--rows PREFIX[,PREFIX…]] [OUT.json]
//! cargo run --release -p abc-bench --bin perf_snapshot -- pair PARENT_BIN [--rows PREFIX[,PREFIX…]] [OUT.json]
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
//!   "host":       {"cpu_model": ..., "caps": ..., "l2_kib": ..., "l3_kib": ..., "threads": ..., "commit": ..., "rustc": ...},
//!   "benches":    [{"id": ..., "mean_ns": ..., "median_ns": ..., "p95_ns": ..., "iters": ...}],
//!   "throughput": [{"id": ..., "bytes_per_op": ..., "median_ns": ..., "gib_per_s": ...}],
//!   "precision":  [{"id": ..., "log_n": ..., "scale_mode": ..., "precision_bits": ..., "paper_floor": 19.29}],
//!   "steady":     [{"id": ..., "ops": ..., "ms": ..., "pool_misses_per_op": ..., "minor_faults_per_op": ..., "sys_ms_per_op": ...}]
//! }
//! ```
//!
//! The `"host"` header says what the rows were timed on: they depend on
//! whether the host delivered two CPUs. The `fanout/wake/gap*us` rows
//! add `p90_ns` and `p99_ns` (the time from a pass's post to its
//! worker's first chunk, after the caller was busy alone for the gap),
//! the `fanout/two_chunks_*us` rows `over_one_chunk` (a pass of two
//! equal spin chunks after a 300 µs gap, over one chunk), and the two
//! download `"steady"` rows `ms_1t` and `speedup_2t` (the same op on one
//! thread, timed alternately with the row, and its `ms` over the row's).
//! The one-thread op outlasts the fan-out's bounded wait, so each of the
//! row's ops starts with a parked worker: its `ms` includes one cold
//! wake per op, where back-to-back downloads find the worker awake.
//!
//! The `"steady"` rows run a whole client op — every limb dropped inside
//! it — back to back after a warm-up (the pinned and the fused upload at
//! 2^16 in turn, call by call, so their ratio is one window's), and
//! report what no timer shows:
//! limb-pool misses per op, and (on Linux, from `/proc/self/stat`; absent
//! elsewhere) minor page faults and kernel CPU time per op. A miss count
//! is an exact function of the commit: the binary **exits non-zero** if
//! a steady row's is not 0, after writing the file. Timings and fault
//! counts are reported, not gated — with two exceptions, each a ratio
//! of two medians of the same run: on the IFMA rung the binary also exits
//! non-zero if `ntt/forward_stream_macc/2^16` (encrypt's limb body as
//! one streamed transform) is not faster than
//! `ntt/expand_forward_macc/2^16` (the same operands through expand,
//! transform and one multiply–accumulate pass), or if
//! `client/upload_steady/2^16x24` (encode → encrypt → pack) reads 1.2×
//! `client/upload_fused_steady/2^16x24` (the same upload in one call) or
//! more: both run 72 transforms, and the two are timed alternately.
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
//! `--rows` times only the rows whose id starts with a prefix and sets
//! up no section without one. It writes OUT.json only when named (never
//! `BENCH_snapshot.json`) and skips the id-set gate; the other two gates
//! hold for the rows it ran. `pair` is the kernel-claim method: per
//! selected row, ten rounds, each one run of `PARENT_BIN` (the parent
//! commit's build) and one of this binary, as child processes timing
//! that row in the same environment, the parent first on odd rounds.
//! Per `benches` median and `steady` `ms` it reports (as JSON `"pairs"`
//! rows too, given OUT.json) the median and IQR of the per-round ratios
//! (change over parent), the change's `wins` (a tie counts for neither
//! side) and each side's own IQR over its median. A row has changed
//! when it wins at least 9 of 10 (at most 1, for a slowdown) and its
//! ratio median differs from 1 by more than `parent_iqr`.
//!
//! The `rns/lift_*` and `rns/expand_*` rows are nanoseconds per
//! coefficient (all limbs), the `wire/*` rows nanoseconds per residue,
//! the `prng/chacha20_blocks_*` rows nanoseconds per 64-byte block;
//! every other row is per call.
//!
//! The whole run stays under ~50 s so it can ride along on every CI
//! push — this is the repo's perf trajectory, archived as an artifact.

use abc_bench::runner::client_message;
use abc_bench::{quantiles, time_alternately};
use abc_ckks::params::{CkksParams, ScaleMode};
use abc_ckks::precision::{
    measure_configured_precision, measure_embedding_precision, measure_precision,
};
use abc_ckks::CkksContext;
use abc_float::{Complex, ExtF64, ExtF64Field, F64Field, RealField, SoftFloatField};
use abc_math::dyadic::{DyadicEngine, Tail};
use abc_math::envtest::EnvGuard;
use abc_math::rns::{SignedCoeffs, SignedWord, WordLift, LIFT_BLOCK};
use abc_math::KernelTier;
use abc_prng::chacha::{chacha20_block, chacha20_blocks, BLOCKS};
use abc_prng::sampler::{GaussianSampler, TernarySampler, UniformSampler};
use abc_prng::Seed;
use abc_transform::fanout::THREADS_ENV;
use abc_transform::{NttPlan, RnsNttEngine, SpecialFft};
use std::cell::RefCell;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The committed snapshot, relative to the repository root.
const COMMITTED: &str = "BENCH_snapshot.json";

/// The gate on `client/upload_steady/2^16x24` over
/// `client/upload_fused_steady/2^16x24` (IFMA rung): one upload in 72
/// transforms either way, the pinned one read 1.29–1.38× the fused one
/// while encode still transformed the plaintext (96), ≈ 1.10× since.
const PINNED_OVER_FUSED: f64 = 1.2;

/// Rounds of a `pair`: the fewest that can show a change at 9 of 10.
const ROUNDS: usize = 10;

/// The rows a run times: those whose id starts with one of the
/// `--rows` prefixes, or every row of a full run (`None`).
struct Rows(Option<Vec<String>>);

impl Rows {
    /// Whether the row `id` is timed.
    fn has(&self, id: &str) -> bool {
        self.0
            .as_ref()
            .is_none_or(|ps| ps.iter().any(|p| id.starts_with(p.as_str())))
    }

    /// Whether a row whose id starts with `stem` may be timed: a section
    /// whose ids share `stem` is set up only then.
    fn may(&self, stem: &str) -> bool {
        let meets = |p: &String| stem.starts_with(p.as_str()) || p.starts_with(stem);
        self.0.as_ref().is_none_or(|ps| ps.iter().any(meets))
    }

    /// Times `f` repeatedly for ~`budget_ms` after one warm-up call, if
    /// the row `id` is timed: a [`BenchRecord`] of the median/p95 per call.
    fn measure(&self, id: &str, budget_ms: u64, mut f: impl FnMut()) -> Option<BenchRecord> {
        self.has(id).then(|| {
            f();
            let [samples] = time_alternately(Duration::from_millis(budget_ms), 5, [&mut f]);
            record(id, samples)
        })
    }
}

/// One finished measurement: a row of the `"benches"` array.
struct BenchRecord {
    /// `group/function/parameter`.
    id: String,
    mean_secs: f64,
    /// Percentiles over the per-call times ([`quantiles`]).
    median_secs: f64,
    p95_secs: f64,
    /// Samples: calls, or batches of calls for a sub-µs body
    /// ([`time_alternately`]).
    iters: u64,
    /// Fields a row adds after `iters` (`p90_ns`, a ratio), in order.
    extra: Vec<(&'static str, f64)>,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let extra: String = (self.extra.iter())
            .map(|(key, value)| format!(", \"{key}\": {value:.3}"))
            .collect();
        format!(
            "  {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"iters\": {}{extra}}}",
            self.id,
            self.mean_secs * 1e9,
            self.median_secs * 1e9,
            self.p95_secs * 1e9,
            self.iters
        )
    }
}

/// The row of `id` from its per-call times.
fn record(id: &str, samples: Vec<f64>) -> BenchRecord {
    let [median, p95] = quantiles(&samples, [0.5, 0.95]);
    BenchRecord {
        id: id.to_owned(),
        mean_secs: samples.iter().sum::<f64>() / samples.len() as f64,
        median_secs: median,
        p95_secs: p95,
        iters: samples.len() as u64,
        extra: Vec::new(),
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

/// What the calls of one steady op added up to: calls, limb-pool
/// misses, and minor faults and kernel CPU ms where there is `/proc`.
#[derive(Clone, Copy, Default)]
struct Tally {
    calls: f64,
    misses: u64,
    faults: Option<(f64, f64)>,
}

/// The `"steady"` rows `ids` of `ops` — whole client ops at ring degree
/// `n`, their limbs dropped inside them: each op twice to warm the pool,
/// then all of them in turn, call by call, for ~1.5 s. Ops timed
/// together see the same host load, so the ratio of two rows' `ms` is
/// read from one window. Misses, faults and kernel time are read around
/// each call (the `/proc` read, ≈ 8 µs, inside the timed call). Returns
/// each JSON row, its pool misses per op and its `ms`.
fn steady_rows<const K: usize>(
    ids: [&str; K],
    n: usize,
    mut ops: [&mut dyn FnMut(); K],
) -> [(String, f64, f64); K] {
    let misses = || abc_ckks::limb_pool::class_stats(n).map_or(0, |class| class.misses);
    for op in &mut ops {
        op();
        op();
    }
    let tallies = [Tally::default(); K].map(std::cell::Cell::new);
    let mut k = 0;
    let mut counted = ops.map(|op| {
        let tally = &tallies[k];
        k += 1;
        move || {
            let (misses0, proc0) = (misses(), faults_and_sys_ms());
            op();
            let mut t = tally.get();
            t.calls += 1.0;
            t.misses += misses() - misses0;
            t.faults = proc0.zip(faults_and_sys_ms()).map(|(a, b)| {
                let (faults, sys_ms) = t.faults.unwrap_or_default();
                (faults + b.0 - a.0, sys_ms + b.1 - a.1)
            });
            tally.set(t);
        }
    });
    let fs = counted.each_mut().map(|f| f as &mut dyn FnMut());
    let samples = time_alternately(Duration::from_millis(1500), 5, fs);
    let mut k = 0;
    samples.map(|samples| {
        let (id, t) = (ids[k], tallies[k].get());
        k += 1;
        let misses_per_op = t.misses as f64 / t.calls;
        let ms = quantiles(&samples, [0.5])[0] * 1e3;
        let kernel = t.faults.map_or(String::new(), |(faults, sys_ms)| {
            format!(
                ", \"minor_faults_per_op\": {:.1}, \"sys_ms_per_op\": {:.2}",
                faults / t.calls,
                sys_ms / t.calls
            )
        });
        let row = format!(
            "  {{\"id\": \"{id}\", \"ops\": {}, \"ms\": {ms:.3}, \
             \"pool_misses_per_op\": {misses_per_op}{kernel}}}",
            t.calls
        );
        (row, misses_per_op, ms)
    })
}

/// The rows of [`steady_rows`] as the snapshot keeps them, printed.
fn kept<const K: usize>(rows: [(String, f64, f64); K]) -> Vec<(String, f64)> {
    let rows = rows.map(|(row, misses, _)| (row, misses));
    rows.iter().for_each(|(row, _)| println!("{}", row.trim()));
    rows.into()
}

/// A same-process ratio of two rows, and the NTT kernel it was read on.
type Ratio = (&'static str, f64);

/// The `"steady"` row `id` of an upload (encode, encrypt, pack) at
/// `bootstrappable(log_n)`, and, given `fused_id`, the row of the one
/// call that runs the same upload a limb at a time
/// ([`CkksContext::encode_encrypt_into`]), timed alternately with it,
/// with the NTT kernel and the ratio of the two rows' `ms` (pinned over
/// fused). Each op writes a fresh blob.
fn upload_steady(
    id: &str,
    fused_id: Option<&str>,
    log_n: u32,
) -> (Vec<(String, f64)>, Option<Ratio>) {
    let ctx = CkksContext::new(CkksParams::bootstrappable(log_n).expect("preset")).expect("ctx");
    let (_, pk) = ctx.keygen(Seed::from_u128(2026));
    let msg = client_message(ctx.params().slots());
    let widths = ctx.wire_widths(ctx.params().num_primes());
    let mut pinned = || {
        let pt = ctx.encode(&msg).expect("encode");
        let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(7));
        let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct, &widths);
        std::hint::black_box(blob.expect("pack"));
    };
    let mut fused = || {
        let mut blob = Vec::new();
        let upload = ctx.encode_encrypt_into(&msg, &pk, Seed::from_u128(7), &mut blob);
        upload.expect("upload");
        std::hint::black_box(blob);
    };
    let n = ctx.params().n();
    match fused_id {
        Some(fused_id) => {
            let rows = steady_rows([id, fused_id], n, [&mut pinned, &mut fused]);
            let ratio = rows[0].2 / rows[1].2;
            let kernel = ctx.ntt_plans()[0].kernel_name();
            (kept(rows), Some((kernel, ratio)))
        }
        None => (kept(steady_rows([id], n, [&mut pinned])), None),
    }
}

/// The `"steady"` row `id` of a download (unpack, decrypt, decode) of a
/// fresh ciphertext cut to `limbs` primes at `bootstrappable(log_n)`,
/// with the same op on one thread timed alternately with it, call by
/// call: its `ms_1t`, and `speedup_2t`, the one-thread `ms` over the
/// row's (at the process's thread count, 2 on a 2-CPU host). The row's
/// op follows a one-thread op, so its worker has parked: `ms` includes a
/// cold wake.
fn download_steady(id: &str, log_n: u32, limbs: usize) -> (String, f64) {
    let params = CkksParams::bootstrappable(log_n).expect("preset");
    let ctx = CkksContext::new(params.clone()).expect("ctx");
    // One thread: an engine built at one, and the wire codec, which reads
    // the count per blob, at one during each of that op's calls.
    let env = RefCell::new(EnvGuard::lock());
    let threads = env.borrow().get(THREADS_ENV);
    let at = |threads: Option<&str>| match threads {
        Some(threads) => env.borrow_mut().set(THREADS_ENV, threads),
        None => env.borrow_mut().remove(THREADS_ENV),
    };
    at(Some("1"));
    let ctx_1t = CkksContext::new(params).expect("ctx");
    at(threads.as_deref());
    let (sk, pk) = ctx.keygen(Seed::from_u128(2026));
    let pt = ctx.encode(&client_message(ctx.params().slots()));
    let ct = ctx.encrypt(&pt.expect("encode"), &pk, Seed::from_u128(7));
    let widths = ctx.wire_widths(limbs);
    let blob = abc_ckks::wire::serialize_ciphertext_packed(&ct.truncated(limbs), &widths);
    let blob = blob.expect("pack");
    drop(ct);
    let download = |ctx: &CkksContext| {
        let ct = abc_ckks::wire::deserialize_ciphertext(&blob).expect("unpack");
        let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
        std::hint::black_box(ctx.decode(&pt).expect("decode"));
    };
    let [(row, misses, ms), (_, misses_1t, ms_1t)] = steady_rows(
        [id, id],
        ctx.params().n(),
        [&mut || download(&ctx), &mut || {
            at(Some("1"));
            download(&ctx_1t);
            at(threads.as_deref());
        }],
    );
    let row = format!(
        "{}, \"ms_1t\": {ms_1t:.3}, \"speedup_2t\": {:.3}}}",
        row.strip_suffix('}').expect("a JSON object"),
        ms_1t / ms
    );
    println!("{}", row.trim());
    (row, misses.max(misses_1t))
}

/// The `(id, median)` of every timed row of a snapshot this binary
/// wrote: `median_ns` of a `"benches"` row, `ms` of a `"steady"` one
/// (a section starts on a line of its own, and a row is one line).
fn medians_of(snapshot: &str) -> Vec<(&str, f64)> {
    fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
        let at = row.find(key)? + key.len();
        row[at..]
            .split([',', '"', '}'])
            .find(|s| !s.trim().is_empty())
    }
    let keys = [("benches\"", "\"median_ns\":"), ("steady\"", "\"ms\":")];
    let key = |section: &str| keys.iter().find(|(name, _)| section.starts_with(name));
    (snapshot.split("\n\""))
        .flat_map(|section| {
            section.lines().filter_map(move |row| {
                let median = field(row, key(section)?.1)?.trim().parse().ok()?;
                Some((field(row, "\"id\": \"")?, median))
            })
        })
        .collect()
}

/// Every row id of a snapshot.
fn ids_of(snapshot: &str) -> Vec<&str> {
    let key = "\"id\": \"";
    snapshot
        .match_indices(key)
        .filter_map(|(at, _)| snapshot[at + key.len()..].split('"').next())
        .collect()
}

/// [`ROUNDS`] rounds of `run(side)`, one run of each side per round —
/// side 0 the parent, side 1 the change — the parent first on odd
/// rounds (counting from 1): per round, the two sides' snapshots.
fn rounds(mut run: impl FnMut(usize) -> String) -> Vec<[String; 2]> {
    (1..=ROUNDS)
        .map(|round| {
            let mut runs = [(round + 1) % 2, round % 2].map(|side| (side, run(side)));
            runs.sort_by_key(|&(side, _)| side);
            runs.map(|(_, snapshot)| snapshot)
        })
        .collect()
}

/// Per row of the first round's change snapshot, over the rounds whose
/// two snapshots both hold it (a row in no parent is left out): its id,
/// those rounds, the change's wins,
/// and the ratio median, the ratio IQR and the parent's and the
/// change's IQRs relative to their medians.
fn paired(rounds: &[[String; 2]]) -> Vec<(&str, usize, usize, [f64; 4])> {
    let median = |snapshot, id| medians_of(snapshot).into_iter().find(|&(i, _)| i == id);
    let quartiles = |xs: Vec<f64>| (!xs.is_empty()).then(|| quantiles(&xs, [0.25, 0.5, 0.75]));
    let ids = medians_of(&rounds[0][1]).into_iter().map(|(id, _)| id);
    ids.filter_map(|id| {
        let pairs: Vec<[f64; 2]> = rounds
            .iter()
            .filter_map(|[p, c]| Some([median(p, id)?.1, median(c, id)?.1]))
            .collect();
        let [lo, ratio, hi] = quartiles(pairs.iter().map(|[p, c]| c / p).collect())?;
        let own = |side: usize| {
            let [lo, mid, hi] = quartiles(pairs.iter().map(|pc| pc[side]).collect())?;
            Some((hi - lo) / mid)
        };
        let wins = pairs.iter().filter(|[p, c]| c < p).count();
        Some((id, pairs.len(), wins, [ratio, hi - lo, own(0)?, own(1)?]))
    })
    .collect()
}

/// `pair PARENT_BIN`: every row `rows` selects, in [`ROUNDS`] rounds
/// of the parent binary and this one, as a table and, given `out`, as
/// JSON. Each row is paired on its own, in children that time only it:
/// the two sides of a round are then a fraction of a second apart, not
/// a whole `--rows` run (on the 2-vCPU host the speed of the machine
/// steps by ≈ 1.45× every few seconds, which a 5 s gap straddles).
fn pair(parent: &str, rows: &Rows, out: Option<&str>) {
    let tmp =
        |name| std::env::temp_dir().join(format!("perf_snapshot_{}.{name}", std::process::id()));
    // Both sides run as copies at paths of one length: the path is in a
    // child's argv and on top of its stack, and two lengths shift the
    // heap and the stack under the timed buffers by a cache-line phase
    // (≈ 10 % on the 2^13 NTT rows of one binary paired with itself).
    let this = std::env::current_exe().expect("this binary's path");
    let bins = [(parent.as_ref(), tmp("0")), (this.as_path(), tmp("1"))];
    for (bin, copy) in &bins {
        std::fs::copy(bin, copy).expect("a copy of the binary");
    }
    let snapshot = tmp("json");
    let run = |side: usize, prefixes: Option<&[String]>| {
        let mut child = Command::new(&bins[side].1);
        if let Some(prefixes) = prefixes {
            child.args(["--rows", &prefixes.join(",")]);
        }
        let status = child.arg(&snapshot).stdout(Stdio::null()).status();
        assert!(
            status.expect("a child").success(),
            "{:?} failed",
            bins[side].0
        );
        std::fs::read_to_string(&snapshot).expect("the child's snapshot")
    };
    let selected = run(1, rows.0.as_deref());
    let mut json = Vec::new();
    for (id, _) in medians_of(&selected) {
        let rounds = rounds(|side| run(side, Some(&[id.to_owned()])));
        for (id, n, wins, [ratio, iqr, parent_iqr, change_iqr]) in paired(&rounds) {
            println!(
                "{id:<40} ratio {ratio:.3} (IQR {iqr:.3})  wins {wins:>2}/{n}  \
                 own IQR: parent {:.1} %, change {:.1} %",
                parent_iqr * 100.0,
                change_iqr * 100.0
            );
            json.push(format!(
                "  {{\"id\": \"{id}\", \"rounds\": {n}, \"ratio_median\": {ratio:.4}, \
                 \"ratio_iqr\": {iqr:.4}, \"wins\": {wins}, \"parent_iqr\": {parent_iqr:.4}, \
                 \"change_iqr\": {change_iqr:.4}}}"
            ));
        }
    }
    let _ = [&bins[0].1, &bins[1].1, &snapshot].map(std::fs::remove_file);
    if let Some(out) = out {
        let json = format!("{{\n\"pairs\": [\n{}\n]\n}}\n", json.join(",\n"));
        std::fs::write(out, json).expect("write the pair");
        println!("wrote {out}");
    }
}

/// The snapshot's `"host"` header, what two snapshots are compared
/// under: the CPU (`/proc/cpuinfo`'s model name and model number), the
/// features the kernel dispatch saw, the L2 and L3 sizes of CPU 0
/// (`/sys`), the process's thread count, the commit of the working tree
/// (`-dirty` with uncommitted changes to tracked files) and the compiler
/// that built this binary. What cannot be read is `"unknown"`, or 0 for
/// a size.
fn host_header() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = |key: &str| {
        let line = cpuinfo
            .lines()
            .find(|l| l.split(':').next().map(str::trim) == Some(key));
        line.and_then(|l| l.split_once(':'))
            .map_or("unknown".to_owned(), |(_, v)| v.trim().replace('"', "'"))
    };
    let cache_kib = |level: &str| -> u64 {
        let dir = "/sys/devices/system/cpu/cpu0/cache";
        let read = |index: usize, file: &str| {
            std::fs::read_to_string(format!("{dir}/index{index}/{file}")).ok()
        };
        let size = |index| {
            let found = read(index, "level")?.trim() == level
                && read(index, "type")?.trim() != "Instruction";
            let size = read(index, "size").filter(|_| found)?;
            let size = size.trim();
            let (digits, scale) = match size.strip_suffix('M') {
                Some(mib) => (mib, 1024),
                None => (size.trim_end_matches('K'), 1),
            };
            Some(digits.parse::<u64>().ok()? * scale)
        };
        (0..8).find_map(size).unwrap_or(0)
    };
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let commit = match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
            Some(changes) if changes.is_empty() => head,
            _ => format!("{head}-dirty"),
        },
        None => "unknown".to_owned(),
    };
    format!(
        "\"host\": {{\"cpu_model\": \"{} (model {})\", \"caps\": \"{}\", \"l2_kib\": {}, \
         \"l3_kib\": {}, \"threads\": {}, \"commit\": \"{commit}\", \"rustc\": \"{}\"}}",
        cpu("model name"),
        cpu("model"),
        abc_math::CpuCaps::detect(),
        cache_kib("2"),
        cache_kib("3"),
        abc_transform::fanout::threads(),
        env!("ABC_BENCH_RUSTC")
    )
}

/// Passes per `fanout/wake` or `fanout/two_chunks` row (a tenth more
/// run first, untimed).
const WAKE_PASSES: usize = 400;

/// The idle gap before each `fanout/two_chunks` pass.
const WAKE_GAP: Duration = Duration::from_micros(300);

/// How long the caller's chunk of a `fanout/wake` pass waits for the
/// worker: a pass it never joins counts as this.
const WAKE_TIMEOUT: Duration = Duration::from_millis(2);

/// Keeps the calling thread busy for `d`: a chunk's work, or the serial
/// stretch between two passes.
fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Seconds from the post of a two-chunk pass to the worker's claim of a
/// chunk, after the caller has been busy alone for `gap`. The caller's
/// own chunk holds it until the worker has joined, so the worker cannot
/// find the counter dry; a worker that has not joined after
/// [`WAKE_TIMEOUT`] counts as that.
fn wake_secs(gap: Duration) -> f64 {
    spin_for(gap);
    let caller = std::thread::current().id();
    let joined_ns = AtomicU64::new(0);
    let t0 = Instant::now();
    abc_transform::fanout::run(2, 2, &|_| {
        if std::thread::current().id() != caller {
            joined_ns.store(t0.elapsed().as_nanos().max(1) as u64, Ordering::Relaxed);
        } else {
            while joined_ns.load(Ordering::Relaxed) == 0 && t0.elapsed() < WAKE_TIMEOUT {
                std::hint::spin_loop();
            }
        }
    });
    match joined_ns.into_inner() {
        0 => WAKE_TIMEOUT.as_secs_f64(),
        ns => ns as f64 * 1e-9,
    }
}

/// One forced-scalar `special_fft` row on the datapath `field`: what the
/// planned kernel costs when the arithmetic is not the host's `f64`.
fn fft_scalar_row<F: RealField>(
    rows: &Rows,
    field: F,
    label: &str,
    slots: usize,
) -> Option<BenchRecord> {
    let id = format!("special_fft/forward_scalar_{label}/2^{}", slots.ilog2());
    let plan = SpecialFft::with_field_kernel(field.clone(), slots, KernelTier::Scalar);
    let vals: Vec<Complex<F::Real>> = (0..slots)
        .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()).lift_in(&field))
        .collect();
    let mut buf = vals.clone();
    rows.measure(&id, 400, || {
        buf.copy_from_slice(&vals);
        plan.forward(&mut buf);
    })
}

/// One `precision/embedding_*` row: the embedding round trip and the
/// encrypted round trip of `ctx` with both embeddings on `field`'s
/// datapath. An exact round trip (every recovered slot re-rounds to its
/// original f64 — routine on ExtF64 at small N) measures ∞; both are
/// capped at 120 bits so the JSON stays finite.
fn embedding_precision_row<F: RealField>(
    rows: &Rows,
    ctx: &CkksContext,
    field: &F,
    seed: Seed,
) -> Option<String> {
    let label = field.name();
    let log_n = ctx.params().log_n();
    if !rows.has(&format!("precision/embedding_{label}/2^{log_n}")) {
        return None;
    }
    let embed_bits = measure_embedding_precision(ctx, field, 1, seed)
        .expect("measure")
        .min(120.0);
    let enc_bits = measure_configured_precision(ctx, field, 1, seed)
        .expect("measure")
        .min(120.0);
    println!(
        "precision/embedding_{label}/2^{log_n}       {embed_bits:.2} bits (encrypted {enc_bits:.2})"
    );
    Some(format!(
        "  {{\"id\": \"precision/embedding_{label}/2^{log_n}\", \"log_n\": {log_n}, \"embedding\": \"{label}\", \
         \"embedding_bits\": {embed_bits:.3}, \"encrypted_bits\": {enc_bits:.3}, \"paper_floor\": 19.29}}"
    ))
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
    rows: &Rows,
    id: &str,
    coeffs: &[X],
    moduli: &[abc_math::Modulus],
    tier: KernelTier,
) -> Option<BenchRecord> {
    let engines: Vec<DyadicEngine> = moduli
        .iter()
        .map(|&m| DyadicEngine::with_kernel(m, tier))
        .collect();
    let mut limb = Vec::with_capacity(coeffs.len());
    let rec = rows.measure(id, 300, || {
        let src = SignedCoeffs::scan(std::hint::black_box(coeffs));
        for e in &engines {
            e.expand_into(&src, &mut limb);
            std::hint::black_box(&limb);
        }
    });
    rec.map(|rec| per_coeff(rec, coeffs.len()))
}

/// `rec` with its per-call times divided over `n` coefficients.
fn per_coeff(mut rec: BenchRecord, n: usize) -> BenchRecord {
    rec.mean_secs /= n as f64;
    rec.median_secs /= n as f64;
    rec.p95_secs /= n as f64;
    rec
}

/// The first `count` 36-bit NTT-friendly moduli for ring degree `n`.
fn ntt_moduli(count: usize, n: usize) -> Vec<abc_math::Modulus> {
    let primes = abc_math::primes::generate_ntt_primes(36, count, 2 * n as u64).expect("primes");
    primes
        .into_iter()
        .map(|q| abc_math::Modulus::new(q).expect("modulus"))
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let parent = args
        .next_if_eq("pair")
        .map(|_| args.next().expect("pair PARENT_BIN"));
    let (mut rows, mut out) = (Rows(None), None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => {
                let list = args.next().expect("--rows PREFIX[,PREFIX…]");
                rows = Rows(Some(list.split(',').map(str::to_owned).collect()));
            }
            _ => assert!(out.replace(arg).is_none(), "one OUT.json at most"),
        }
    }
    if let Some(parent) = parent {
        return pair(&parent, &rows, out.as_deref());
    }
    let partial = rows.0.is_some();
    if partial && out.as_ref().is_some_and(|out| out.ends_with(COMMITTED)) {
        panic!("a --rows run never writes {COMMITTED}");
    }
    let out = out.or_else(|| (!partial).then(|| COMMITTED.to_owned()));
    // Read before OUT.json is written: by default they are one file.
    let committed = std::fs::read_to_string(COMMITTED).ok();
    let (json, failures) = snapshot(&rows, committed.as_deref());
    if let Some(out) = out {
        std::fs::write(&out, &json).expect("write snapshot");
        println!("wrote {out}");
    }
    if !failures.is_empty() {
        eprintln!("FAIL: {}", failures.join("\nFAIL: "));
        std::process::exit(1);
    }
}

/// Times the rows `rows` selects. Returns the snapshot's JSON and the
/// gates it fails; the id-set gate, against the `committed` snapshot,
/// only on a full run.
fn snapshot(rows: &Rows, committed: Option<&str>) -> (String, Vec<String>) {
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
        let id = format!("ntt/{direction}/2^{log_n}");
        if !rows.has(&id) {
            continue;
        }
        let plan = NttPlan::new(ntt_moduli(1, 1 << log_n)[0], 1 << log_n).expect("plan");
        let mut data: Vec<u64> = (0..1u64 << log_n).map(|i| i % plan.modulus().q()).collect();
        benches.extend(rows.measure(&id, 300, || transform(&plan, &mut data)));
    }

    // --- The streamed forward transform at the paper's ring: encrypt's
    // limb body `x = NTT(e mod q) + pk·v̂ + m` from an `i64` source, as
    // one `forward_stream` and as the composition it replaces (expand
    // into the limb, transform, one multiply–accumulate pass), same
    // operands, same run ---
    let stream_ids = [
        "ntt/forward_stream_macc/2^16",
        "ntt/expand_forward_macc/2^16",
    ];
    let stream_pair = stream_ids.iter().any(|id| rows.has(id)).then(|| {
        let n = 1usize << 16;
        let plan = NttPlan::new(ntt_moduli(1, n)[0], n).expect("plan");
        let (d, q) = (plan.dyadic(), plan.modulus().q());
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
        // Timed alternately, whichever of the two is selected: the gate
        // below reads their ratio. Both write one output buffer, so they
        // see the same memory: the body whose output starts 48 bytes into
        // a cache line runs up to 13 % slower, and two buffers from
        // consecutive allocations sit 16 bytes apart modulo a line, at a
        // phase set by whatever the heap held before them (the argument
        // strings among it).
        let out = RefCell::new(Vec::with_capacity(n));
        let mut streamed = || plan.forward_stream(&e, &mut out.borrow_mut(), tail());
        let mut unfused = || {
            let y = &mut *out.borrow_mut();
            d.expand_into(&e, y);
            plan.forward(y);
            d.apply_tail(y, tail());
        };
        streamed();
        unfused();
        let budget = Duration::from_millis(800);
        let samples = time_alternately(budget, 5, [&mut streamed, &mut unfused]);
        let [streamed, unfused] = [0, 1].map(|i| record(stream_ids[i], samples[i].clone()));
        let pair = (
            plan.kernel_name(),
            streamed.median_secs,
            unfused.median_secs,
        );
        benches.extend([streamed, unfused].into_iter().filter(|r| rows.has(&r.id)));
        pair
    });

    // --- Dyadic element-wise kernels: per-kernel throughput rows ---
    //
    // Each kernel row also lands in the `"throughput"` JSON section
    // with its memory traffic (`bytes_per_op` = streams × N × 8) and
    // the derived bandwidth, so the CI trajectory can compare fused
    // kernels against the unfused sequences they replace in GiB/s
    // rather than raw nanoseconds.
    let mut throughput_rows = Vec::new();
    let mut unavailable = Vec::new();
    if rows.may("poly_dyadic/") || rows.may("fused_dyadic/") {
        let n = 1usize << 15;
        let m = ntt_moduli(1, n)[0];
        let q = m.q();
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
                if let Some(rec) = rows.measure(&id, 200, || {
                    buf.copy_from_slice(&a0);
                    pass(std::hint::black_box(&mut buf));
                }) {
                    throughput_rows.push(throughput_row(&id, streams * n * 8, rec.median_secs));
                    benches.push(rec);
                }
            }
        }
    }

    // --- Batched RNS limb fan-out (24 limbs = the paper's chain) ---
    if rows.may("rns_ntt/") {
        let n = 1usize << 13;
        let moduli = ntt_moduli(24, n);
        let engine = RnsNttEngine::new(&moduli, n).expect("engine");
        let mut limbs: Vec<Vec<u64>> = moduli
            .iter()
            .map(|m| (0..n as u64).map(|i| i % m.q()).collect())
            .collect();
        benches.extend(rows.measure("rns_ntt/forward_24limbs/2^13", 300, || {
            engine.forward_all(&mut limbs);
        }));
        benches.extend(rows.measure("rns_ntt/inverse_24limbs/2^13", 300, || {
            engine.inverse_all(&mut limbs);
        }));
        // Thread-scaling rows (flat on the 1-vCPU CI box; the ids keep
        // multi-core hosts comparable in the same artifact).
        for threads in [1usize, 2, 4] {
            let engine = RnsNttEngine::with_threads(&moduli, n, threads).expect("engine");
            benches.extend(rows.measure(
                &format!("rns_ntt/forward_24limbs_t{threads}/2^13"),
                200,
                || {
                    engine.forward_all(&mut limbs);
                },
            ));
        }
    }
    // What one parallel pass costs before any work: post to a parked
    // worker, run both chunks, take the post back or wait for it.
    benches.extend(rows.measure("fanout/roundtrip", 300, || {
        abc_transform::fanout::run(2, 2, &|t| {
            std::hint::black_box(t);
        });
    }));
    // How soon the worker joins a pass posted after the caller has been
    // busy alone for a gap (the serial stretch between two passes), and
    // what that costs a pass of two equal chunks, over one chunk.
    for gap_us in [0, 50, 300] {
        let id = format!("fanout/wake/gap{gap_us}us");
        if rows.has(&id) {
            let gap = Duration::from_micros(gap_us);
            (0..WAKE_PASSES / 10).for_each(|_| _ = wake_secs(gap));
            let samples: Vec<f64> = (0..WAKE_PASSES).map(|_| wake_secs(gap)).collect();
            let mut rec = record(&id, samples.clone());
            let [p90, p99] = quantiles(&samples, [0.9, 0.99]);
            rec.extra = vec![("p90_ns", p90 * 1e9), ("p99_ns", p99 * 1e9)];
            benches.push(rec);
        }
    }
    for chunk_us in [8, 34, 160] {
        let id = format!("fanout/two_chunks_{chunk_us}us");
        if rows.has(&id) {
            let chunk = Duration::from_micros(chunk_us);
            // One pass of two chunks, then one chunk alone, timed; the
            // caller stays busy until the next post is `WAKE_GAP` after
            // the pass ended.
            let sample = || {
                let t = Instant::now();
                abc_transform::fanout::run(2, 2, &|_| spin_for(chunk));
                let (two, idle) = (t.elapsed(), Instant::now());
                spin_for(chunk);
                let one = idle.elapsed();
                spin_for(WAKE_GAP.saturating_sub(idle.elapsed()));
                (two.as_secs_f64(), one.as_secs_f64())
            };
            (0..WAKE_PASSES / 10).for_each(|_| _ = sample());
            let (twos, ones): (Vec<f64>, Vec<f64>) = (0..WAKE_PASSES).map(|_| sample()).unzip();
            let mut rec = record(&id, twos);
            let ratio = rec.median_secs / quantiles(&ones, [0.5])[0];
            println!("{id} over one chunk: {ratio:.3}");
            rec.extra = vec![("over_one_chunk", ratio)];
            benches.push(rec);
        }
    }

    // --- Decode's CRT lift + scale division, ns per coefficient: the
    // dispatched block path decode runs (the verified word lift, then
    // the block division on the lift's rung) and its forced-scalar twin,
    // beside the big-integer lift it falls back to, at the paper's
    // download (2 limbs) and fresh (24) depths ---
    if rows.may("rns/lift_") {
        let n = 1usize << 13;
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
        let divisor = abc_ckks::ExactScale::from_log2(72).divisor();
        let ints = message_sized_ints(n);
        for limbs in [2usize, 24] {
            let basis = ctx.basis().truncated(limbs);
            let words: Vec<Vec<u64>> = basis
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
                let id = format!("rns/{id}/{limbs}limbs");
                let word = rows.measure(&id, 300, || {
                    let fell_back = lift.lift_blocks(std::hint::black_box(&words), |block| {
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
                benches.extend(word.map(|word| per_coeff(word, n)));
            }
            let product = basis.product();
            let mut residues = vec![0u64; limbs];
            let id = format!("rns/lift_bigint/{limbs}limbs");
            let bigint = rows.measure(&id, 300, || {
                let mut acc = 0.0;
                for j in 0..n {
                    for (r, row) in residues.iter_mut().zip(std::hint::black_box(&words)) {
                        *r = row[j];
                    }
                    let (neg, mag) = basis.combine_centered_big_with_product(&residues, &product);
                    acc += divisor.apply_ext(neg, &mag).to_f64();
                }
                std::hint::black_box(acc);
            });
            benches.extend(bigint.map(|bigint| per_coeff(bigint, n)));
        }
    }

    // --- The on-chip PRNG: the keystream kernel on both rungs (ns per
    // 64-byte block; the scalar rung is the RFC 8439 oracle) and the
    // three samplers it feeds, one upload-sized polynomial (the uniform
    // mask: one per prime) per call ---
    if rows.may("prng/") {
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
            let rec = rows.measure(&id, 300, || {
                for r in 0..REFILLS {
                    refill(&key, r * BLOCKS as u32, &nonce, &mut out);
                    std::hint::black_box(&out);
                }
            });
            benches.extend(rec.map(|rec| per_coeff(rec, (REFILLS as usize) * BLOCKS)));
        }
        let sigma = GaussianSampler::DEFAULT_SIGMA;
        benches.extend(rows.measure("prng/gaussian_poly/2^16", 300, || {
            let mut sampler = GaussianSampler::new(Seed::from_u128(11), 0, sigma);
            std::hint::black_box(sampler.sample_poly(1 << 16));
        }));
        benches.extend(rows.measure("prng/ternary_poly/2^16", 300, || {
            let mut sampler = TernarySampler::new(Seed::from_u128(13), 0);
            std::hint::black_box(sampler.sample_poly(1 << 16, None));
        }));
        if rows.has("prng/uniform_poly24/2^16") {
            // An upload's mask `a`: one limb per prime of
            // `bootstrappable(16)`.
            let ctx =
                CkksContext::new(CkksParams::bootstrappable(16).expect("preset")).expect("ctx");
            let mut limb = vec![0u64; ctx.params().n()];
            benches.extend(rows.measure("prng/uniform_poly24/2^16", 300, || {
                for (i, m) in ctx.basis().moduli().iter().enumerate() {
                    let mut sampler = UniformSampler::new(Seed::from_u128(12), i as u64);
                    sampler.sample_poly(m, std::hint::black_box(&mut limb));
                }
            }));
        }
    }

    // --- The layers of the paper's upload at N = 2^16, 24 primes: RNS
    // expansion of sampler-sized and of message-sized coefficients
    // under all 24 primes (ns per coefficient) and 36-bit wire packing
    // (ns per residue) ---
    if rows.may("rns/expand_") || rows.may("wire/") {
        let ctx = CkksContext::new(CkksParams::bootstrappable(16).expect("preset")).expect("ctx");
        let n = ctx.params().n();
        let (_, pk) = ctx.keygen(Seed::from_u128(2026));
        let pt = ctx
            .encode(&client_message(ctx.params().slots()))
            .expect("encode");
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
            benches.extend(expand_row(rows, &id("ternary"), &ternary, moduli, tier));
            benches.extend(expand_row(rows, &id("small"), &small, moduli, tier));
            benches.extend(expand_row(rows, &id("i128"), &message, moduli, tier));
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
        let pack = || abc_ckks::wire::serialize_ciphertext_packed(&body, widths).expect("pack");
        let mut blob = pack();
        for (id, unpack) in [("wire/pack_36bit", false), ("wire/unpack_36bit", true)] {
            if let Some(rec) = rows.measure(id, 500, || match unpack {
                true => _ = std::hint::black_box(abc_ckks::wire::deserialize_ciphertext(&blob)),
                false => blob = pack(),
            }) {
                throughput_rows.push(throughput_row(id, blob.len(), rec.median_secs));
                benches.push(per_coeff(rec, residues));
            }
        }
    }

    // --- Steady state: whole ops, limbs dropped inside them, warm pool;
    // the paper's upload and download (Fig. 5a) at the largest preset
    // are the shapes of benchmark/'s `upload_n16` and `download_n16` ---
    let mut steady = Vec::new();
    // The fused upload (one pass per limb) is timed alternately with the
    // pinned sequence (the plaintext's coefficients between the calls,
    // the ciphertext parked whole before packing); both run 72 transforms.
    let mut upload_pair = None;
    let upload_ids = [
        "client/upload_steady/2^16x24",
        "client/upload_fused_steady/2^16x24",
    ];
    for (id, fused_id, log_n) in [
        ("client/upload_steady/2^15", None, 15),
        (upload_ids[0], Some(upload_ids[1]), 16),
    ] {
        if rows.has(id) || fused_id.is_some_and(|id| rows.has(id)) {
            let (timed, pair) = upload_steady(id, fused_id, log_n);
            upload_pair = upload_pair.or(pair);
            steady.extend(
                timed
                    .into_iter()
                    .filter(|(row, _)| rows.has(ids_of(row)[0])),
            );
        }
    }
    for (id, log_n, limbs) in [
        ("client/download24_steady/2^14", 14, 24),
        ("client/download2_steady/2^16", 16, 2),
    ] {
        if rows.has(id) {
            steady.push(download_steady(id, log_n, limbs));
        }
    }

    // --- SpecialFft: kernel ladder ---
    if rows.may("special_fft/") {
        let slots = 1usize << 14; // N = 2^15
        let plan = SpecialFft::new(slots);
        // The AVX-512 kernel's split planes are an N-word limb of the limb
        // pool. Every real caller holds an engine of that N, whose
        // allowance keeps the limb warm; without one each transform would
        // time a 256 KiB `malloc` as well.
        let n = 2 * slots;
        let _engine = RnsNttEngine::new(&ntt_moduli(1, n), n).expect("engine");
        let vals: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let mut buf = vals.clone();
        // `forward_planned` follows the Auto dispatch (avx512 on this
        // CPU — `kernel_name()` says which kernel the row measured).
        let planned = rows.measure("special_fft/forward_planned_fp64/2^14", 400, || {
            buf.copy_from_slice(&vals);
            plan.forward(&mut buf);
        });
        // Forced-scalar rows: avx512 against the planned-scalar kernel
        // reads straight off the planned/scalar median ratio, and the
        // reduced (FP55) and extended (double-double) datapaths sit
        // beside the host's `f64` on the same kernel.
        let scalar = fft_scalar_row(rows, F64Field, "fp64", slots);
        if let (Some(planned), Some(scalar)) = (&planned, &scalar) {
            println!(
                "special_fft {} vs scalar speedup: {:.2}x",
                plan.kernel_name(),
                scalar.median_secs / planned.median_secs
            );
        }
        // Transform throughput rows: nominal bytes, the slots read and
        // written once per stage, log2(slots) stages deep (the avx512
        // kernel makes two stages per memory pass).
        let bytes = 2 * slots * 16 * slots.ilog2() as usize;
        for rec in planned.iter().chain(&scalar) {
            throughput_rows.push(throughput_row(&rec.id, bytes, rec.median_secs));
        }
        benches.extend(planned.into_iter().chain(scalar));
        benches.extend(fft_scalar_row(rows, SoftFloatField::fp55(), "fp55", slots));
        benches.extend(fft_scalar_row(rows, ExtF64Field, "extf64", slots));
        benches.extend(rows.measure("special_fft/forward_otf_fp64/2^14", 400, || {
            buf.copy_from_slice(&vals);
            plan.forward_otf(&mut buf);
        }));
        // The preset ring, N = 2^16: decode's forward (serial, and split
        // across the fan-out at the process's thread count, as decode
        // runs it) and encode's inverse at the slot count of
        // `download_n16` and `upload_n16`, with an engine of that N alive
        // so the planes hit the pool.
        let ids = [
            ("special_fft/forward_planned_fp64/2^15", Some(1)),
            (
                "special_fft/forward_planned_fp64_split/2^15",
                Some(abc_transform::fanout::threads()),
            ),
            ("special_fft/inverse_planned_fp64/2^15", None),
        ];
        if ids.iter().any(|(id, _)| rows.may(id)) {
            let slots = 1usize << 15;
            let n = 2 * slots;
            let plan = SpecialFft::new(slots);
            let _engine = RnsNttEngine::new(&ntt_moduli(1, n), n).expect("engine");
            let vals: Vec<Complex> = (0..slots)
                .map(|i| Complex::new((i as f64).sin(), (i as f64).cos()))
                .collect();
            let mut buf = vals.clone();
            for (id, forward_threads) in ids {
                benches.extend(rows.measure(id, 400, || {
                    buf.copy_from_slice(&vals);
                    match forward_threads {
                        Some(1) => plan.forward(&mut buf),
                        Some(threads) => plan.forward_split(&mut buf, threads),
                        None => plan.inverse(&mut buf),
                    }
                }));
            }
        }
    }

    // --- Embedding datapaths: precision ---
    let mut precision_rows = Vec::new();
    if rows.may("precision/embedding_") {
        let ctx = CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("ctx");
        let embedded = [
            embedding_precision_row(rows, &ctx, &F64Field, Seed::from_u128(1300)),
            embedding_precision_row(rows, &ctx, &ExtF64Field, Seed::from_u128(1301)),
        ];
        precision_rows.extend(embedded.into_iter().flatten());
    }

    // --- Measured precision: the §V-B claim, both scale modes ---
    for (label, mode) in [
        ("single_scale", ScaleMode::Single),
        ("double_scale", ScaleMode::DoublePair),
    ] {
        if !rows.has(&format!("precision/{label}/2^13")) {
            continue;
        }
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
    let json = format!(
        "{{\n{},\n\"benches\": [\n{}\n],\n\"throughput\": [\n{}\n],\n\"precision\": [\n{}\n],\n\
         \"steady\": [\n{}\n]\n}}\n",
        host_header(),
        bench_rows.join(",\n"),
        throughput_rows.join(",\n"),
        precision_rows.join(",\n"),
        steady_rows.join(",\n")
    );
    for row in &bench_rows {
        println!("{}", row.trim());
    }
    let mut failures = Vec::new();
    if steady.iter().any(|&(_, misses)| misses != 0.0) {
        failures.push("a steady-state op missed the limb pool (pool_misses_per_op above)".into());
    }
    // The streamed transform must beat the composition it replaces, in
    // the same process: a ratio of two medians of one run, gated on the
    // rung that fuses (on the scalar rung the two are the same code).
    if let Some((kernel, streamed, unfused)) = stream_pair {
        println!(
            "ntt/forward_stream_macc over ntt/expand_forward_macc ({kernel}): {:.3}",
            streamed / unfused
        );
        if kernel == "ifma" && streamed >= unfused && stream_ids.iter().all(|id| rows.has(id)) {
            failures.push(
                "the streamed forward transform is not faster than expand + forward + mac".into(),
            );
        }
    }
    // The pinned upload folds `e0` into encode's coefficients, as the
    // fused one does: the same transforms, so what is left between them
    // (the parked ciphertext, the separate packing) stays under
    // `PINNED_OVER_FUSED` of the fused op, in the same process.
    if let Some((kernel, ratio)) = upload_pair {
        println!(
            "{} over {} ({kernel}): {ratio:.3}",
            upload_ids[0], upload_ids[1]
        );
        if kernel == "ifma"
            && ratio >= PINNED_OVER_FUSED
            && upload_ids.iter().all(|id| rows.has(id))
        {
            failures.push(format!(
                "the pinned upload is not within {PINNED_OVER_FUSED}× of the fused one"
            ));
        }
    }
    let missing: Vec<&str> = (rows.0.is_none().then_some(committed).flatten())
        .map_or(Vec::new(), ids_of)
        .into_iter()
        .filter(|id| !ids_of(&json).contains(id))
        .filter(|id| !unavailable.iter().any(|k| id.contains(&format!("_{k}/"))))
        .collect();
    if !missing.is_empty() {
        failures.push(format!(
            "{COMMITTED} has rows this run did not produce: {missing:?}"
        ));
    }
    (json, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of one bench row and one steady row.
    fn snapshot_of(median_ns: f64, ms: f64) -> String {
        format!(
            "{{\n\"benches\": [\n  {{\"id\": \"k/row\", \"mean_ns\": 1.0, \"median_ns\": {median_ns:.1}, \
             \"p95_ns\": 1.0, \"iters\": 9}}\n],\n\"throughput\": [\n],\n\"precision\": [\n],\n\
             \"steady\": [\n  {{\"id\": \"client/op\", \"ops\": 9, \"ms\": {ms:.3}, \
             \"pool_misses_per_op\": 0}}\n]\n}}\n"
        )
    }

    #[test]
    fn pair_alternates_and_reads_ratios_wins_and_spreads() {
        // The change's bench median per round against a parent at 100:
        // seven wins, two ties (for neither side) and one loss.
        let change = [
            80.0, 90.0, 90.0, 90.0, 90.0, 100.0, 100.0, 110.0, 90.0, 90.0,
        ];
        let mut calls = Vec::new();
        let rounds = rounds(|side| {
            calls.push(side);
            let round = calls.len().div_ceil(2);
            match side {
                0 => snapshot_of(100.0, 2.0),
                _ => snapshot_of(change[round - 1], 1.0),
            }
        });
        // The parent (side 0) runs first on odd rounds, second on even
        // ones.
        assert_eq!(calls, [[0, 1], [1, 0]].repeat(ROUNDS / 2).concat());
        let table = paired(&rounds);
        assert_eq!(table.len(), 2);
        let (id, n, wins, [ratio, iqr, parent_iqr, change_iqr]) = table[0];
        assert_eq!((id, n, wins), ("k/row", ROUNDS, 7));
        // Ratios 0.8, 0.9 ×6, 1.0 ×2, 1.1: quartiles 0.9, 0.9 and 0.975.
        assert!((ratio - 0.9).abs() < 1e-12 && (iqr - 0.075).abs() < 1e-12);
        assert_eq!(parent_iqr, 0.0);
        assert!((change_iqr - 7.5 / 90.0).abs() < 1e-12);
        // The steady row's `ms` is paired as well.
        assert_eq!(
            table[1],
            ("client/op", ROUNDS, ROUNDS, [0.5, 0.0, 0.0, 0.0])
        );
        // A row the parent does not have is left out, not a panic.
        let added = [
            snapshot_of(1.0, 1.0),
            snapshot_of(1.0, 1.0).replace("k/", "new/"),
        ];
        let table = paired(std::slice::from_ref(&added));
        assert_eq!(
            table.iter().map(|row| row.0).collect::<Vec<_>>(),
            ["client/op"]
        );
    }

    #[test]
    fn a_rows_run_times_only_its_prefixes_and_skips_the_id_gate() {
        // The committed file has rows a `fanout/round` run does not
        // produce; the prefix selects one row by its start.
        let committed = snapshot_of(1.0, 1.0);
        let (json, failures) = snapshot(&Rows(Some(vec!["fanout/round".into()])), Some(&committed));
        assert_eq!(ids_of(&json), ["fanout/roundtrip"]);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(Rows(Some(vec!["ntt/forward/2^16".into()])).may("ntt/"));
        assert!(!Rows(Some(vec!["ntt/".into()])).has("rns_ntt/forward_24limbs/2^13"));
    }

    #[test]
    fn a_bench_row_and_a_steady_row_share_the_median() {
        // An even count: the mean of the middle two samples.
        let samples = vec![4e-9, 1e-9, 3e-9, 2e-9];
        assert_eq!(
            record("x", samples.clone()).median_secs,
            quantiles(&samples, [0.5])[0]
        );
        assert!((record("x", samples).median_secs - 2.5e-9).abs() < 1e-24);
    }
}
