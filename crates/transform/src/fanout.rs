//! The process-wide fan-out: parked workers that a caller wakes for one
//! pass and helps.
//!
//! The paper's client (Fig. 2a) keeps its lanes running; nothing starts a
//! lane per operation. This module is the software equivalent: up to
//! `threads − 1` workers, started on first use and then parked, serve
//! every parallel pass of the process — the limb passes of
//! [`RnsNttEngine`](crate::RnsNttEngine), decode's CRT lift, the wire
//! codec and encrypt's samplers. Waking a parked worker is one `unpark`;
//! the per-call thread spawns it replaces cost ≈ 28 µs a pass.
//!
//! A pass is a **job**: a `&(dyn Fn(usize) + Sync)` over chunk indices
//! plus an atomic chunk counter, both on the caller's stack. The caller
//! posts the job to idle workers — a CAS on each worker's slot, no lock —
//! and then claims chunks from the counter itself, so a chunk nobody woke
//! up for in time runs on the caller. When the counter runs dry it takes
//! back every post a worker has not picked up yet (the reverse CAS), and
//! parks on the job's latch until every worker that joined has left.
//!
//! - **Concurrent and nested callers.** A worker serves one job at a
//!   time, and a caller that finds no idle worker runs every chunk of its
//!   own, so no call ever waits on another call's work: two gateway
//!   workers may fan out at once, and a chunk may fan out again.
//! - **Panics.** A panicking chunk is caught where it ran. The caller
//!   re-raises the first payload after the latch, and the worker goes
//!   back to its slot.
//! - **No spinning.** Workers and callers wait with `thread::park`, so an
//!   idle fan-out costs no CPU.
//!
//! [`for_each_chunk`] is the shape every caller outside this crate uses:
//! contiguous chunks of `k.div_ceil(threads)` items under the two
//! [`LimbWork`] cut-offs, so a pass whose items are functions of
//! themselves gives the same bytes at every thread count. `start_worker`
//! is the only function in the library crates that starts a thread
//! (`abc-analysis` rule `thread-site`).

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};

/// Environment variable overriding the process's thread count.
pub const THREADS_ENV: &str = "ABC_FHE_THREADS";

/// Parses a raw `ABC_FHE_THREADS` value: `None` or a blank string means
/// "no override" (`Ok(None)`); a thread count in `1..=64` wins.
///
/// Pure so the policy is testable without mutating process environment;
/// the one env reader is [`threads`].
///
/// # Errors
///
/// Anything else — garbage, `0`, out-of-range — is an error naming the
/// variable and the accepted range. A typo'd override must not silently
/// bench on a default thread count.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(t) if (1..=64).contains(&t) => Ok(Some(t)),
        _ => Err(format!(
            "{THREADS_ENV}={raw:?} is not a thread count in 1..=64 \
             (unset it or pass e.g. {THREADS_ENV}=4)"
        )),
    }
}

/// The process's thread count, the one place it is resolved: a valid
/// `ABC_FHE_THREADS` value in `1..=64` wins; unset/blank falls back to
/// the machine's available parallelism, capped at 8. The variable is
/// read at each call — an [`RnsNttEngine`](crate::RnsNttEngine)
/// captures the count when it is built (so an engine built under an
/// override keeps it), and the wire codec of `abc-ckks` reads it per
/// blob — while the machine's parallelism, which costs system calls and
/// cgroup file reads, is asked for once per process.
///
/// # Panics
///
/// Panics with one clear message on an invalid override (see
/// [`parse_threads`]) — engines are constructed at startup, where
/// failing fast beats silently running every benchmark on the wrong
/// thread count.
pub fn threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    match parse_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
        Ok(Some(t)) => t,
        Ok(None) => *MACHINE.get_or_init(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        }),
        Err(msg) => panic!("{msg}"),
    }
}

/// Below this much total work (`limbs × N`), waking workers costs more
/// than the fan-out saves and the pass runs serially.
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Parallel threshold for the element-wise (dyadic) passes: they are
/// `O(N)` per limb instead of `O(N log N)`, so a fan-out pays off only on
/// larger batches.
const DYADIC_PARALLEL_THRESHOLD: usize = 1 << 16;

/// How heavy one item of a pass is — which of the two serial/parallel
/// cut-offs applies. A pass that is not per limb names the variant whose
/// words cost nearest its own: a CRT-lift word, eight to a step on the
/// vector rung, or a packed residue, is element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimbWork {
    /// `O(N log N)` per limb — the pass runs a transform. Fans out from
    /// `2^14` words of `limbs × N`.
    Transform,
    /// `O(N)` per limb — element-wise arithmetic only. Fans out from
    /// `2^16` words.
    Elementwise,
}

impl LimbWork {
    fn cutoff(self) -> usize {
        match self {
            LimbWork::Transform => PARALLEL_THRESHOLD,
            LimbWork::Elementwise => DYADIC_PARALLEL_THRESHOLD,
        }
    }
}

/// Cuts `items` into contiguous chunks of `k.div_ceil(threads)` and runs
/// `f(first, chunk)` on each, `first` being the index of the chunk's first
/// item, across up to `threads` participants. The pass names its weight
/// as `words` per item — what it reads or writes — and fans out once
/// `items × words` reaches the cut-off `work` names; below it, or with
/// one thread, the pass is one chunk on the calling thread (no call at
/// all for no items). Chunk boundaries move with the thread count, so `f`
/// must make each item a function of that item alone; then the result
/// does not depend on the thread count.
pub fn for_each_chunk<T, F>(threads: usize, items: &mut [T], words: usize, work: LimbWork, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let k = items.len();
    split(
        threads,
        k,
        k * words,
        work,
        |chunk| items.chunks_mut(chunk),
        f,
    );
}

/// The chunk shape behind [`for_each_chunk`] and the engine's limb
/// passes: cuts `k` parts into contiguous chunks and hands each —
/// `run_chunk(index of its first part, its operands)`, with `cut(chunk_len)`
/// yielding the operand chunks in order — to one participant of [`run`].
/// Below the cut-off of `work` words, or with one thread, there is one
/// chunk on the calling thread. What a participant sets up once for its
/// chunk (a scratch limb) lives at the top of `run_chunk`.
pub(crate) fn split<C, I>(
    threads: usize,
    k: usize,
    words: usize,
    work: LimbWork,
    cut: impl FnOnce(usize) -> I,
    run_chunk: impl Fn(usize, C) + Sync,
) where
    C: Send,
    I: Iterator<Item = C>,
{
    let threads = threads.min(k);
    if threads <= 1 || words < work.cutoff() {
        // One chunk (none when `k` is 0), on the calling thread.
        cut(k.max(1)).for_each(|operands| run_chunk(0, operands));
        return;
    }
    let chunk = k.div_ceil(threads);
    let parts = Parts(cut(chunk).map(|c| UnsafeCell::new(Some(c))).collect());
    run(threads, parts.0.len(), &|t| {
        run_chunk(t * chunk, parts.take(t))
    });
}

/// One chunk's operands per index, each moved out by the participant the
/// job's counter handed that index to.
struct Parts<C>(Vec<UnsafeCell<Option<C>>>);

// SAFETY: a `Parts` is shared only with the participants of one `run`,
// whose counter yields every index at most once, so no two threads reach
// the same cell; what moves out is `C: Send`.
unsafe impl<C: Send> Sync for Parts<C> {}

impl<C> Parts<C> {
    fn take(&self, t: usize) -> C {
        // SAFETY: `t` came from the job's counter, which hands each index
        // to one participant once (see the `Sync` impl): this is the only
        // access to cell `t`.
        let part = unsafe { &mut *self.0[t].get() };
        part.take().expect("each chunk index is claimed once")
    }
}

/// Runs `job(t)` for every `t` in `0..chunks`, each exactly once, on the
/// calling thread and up to `threads − 1` parked workers it finds idle.
/// Returns when every chunk has run and every worker has left the job.
///
/// # Panics
///
/// Re-raises, with its original payload, the first panic of a chunk,
/// after every participant has left; the workers stay usable.
pub fn run(threads: usize, chunks: usize, job: &(dyn Fn(usize) + Sync)) {
    let job = Job {
        run: job,
        next: AtomicUsize::new(0),
        chunks,
        pending: AtomicUsize::new(0),
        caller: thread::current(),
        panic: OnceLock::new(),
    };
    let posted = job.post(threads.min(chunks).saturating_sub(1));
    job.work();
    job.revoke(posted);
    while job.pending.load(Ordering::Acquire) != 0 {
        thread::park();
    }
    if let Some(payload) = job.panic.into_inner() {
        panic::resume_unwind(payload);
    }
}

/// Workers a process can hold: the thread count's bound (`1..=64`) less
/// the caller.
const MAX_WORKERS: usize = 63;

/// One fan-out pass, on its caller's stack.
///
/// Orderings: a post's `Release` CAS pairs with the worker's `Acquire`
/// CAS that picks it up (the worker sees the job's fields), and a
/// worker's `AcqRel` decrement in `leave` pairs with the caller's
/// `Acquire` load of `pending` (the caller sees every chunk's writes).
/// The chunk counter and the caller's own count changes publish nothing
/// and are `Relaxed`.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    /// The next chunk index to claim.
    next: AtomicUsize,
    chunks: usize,
    /// Workers that hold a post of this job: the latch the caller parks on.
    pending: AtomicUsize,
    caller: Thread,
    /// The first panic payload of a chunk.
    panic: OnceLock<Box<dyn Any + Send>>,
}

impl Job<'_> {
    /// Claims chunks until the counter runs dry, catching a panic (after
    /// which this participant claims no more).
    fn work(&self) {
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.chunks {
                break;
            }
            (self.run)(t);
        }));
        if let Err(payload) = claimed {
            // A second panic's payload is dropped: the first one is raised.
            let _ = self.panic.set(payload);
        }
    }

    /// Posts this job to up to `helpers` idle workers and wakes them;
    /// returns the set posted to, one bit per worker.
    fn post(&self, helpers: usize) -> u64 {
        let me = self.erased();
        let mut posted = 0u64;
        for (j, worker) in WORKERS.iter().enumerate().take(helpers) {
            let Some(thread) = worker.thread(j) else {
                continue;
            };
            // Counted before the worker can see the post, so its leave
            // never precedes the count.
            self.pending.fetch_add(1, Ordering::Relaxed);
            let idle = ptr::null_mut();
            if worker
                .job
                .compare_exchange(idle, me, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                thread.unpark();
                posted |= 1 << j;
            } else {
                self.pending.fetch_sub(1, Ordering::Relaxed);
            }
        }
        posted
    }

    /// Takes back every post in `posted` that its worker has not picked
    /// up: the counter is dry, so that worker would find nothing to do.
    fn revoke(&self, posted: u64) {
        let me = self.erased();
        for (j, worker) in WORKERS.iter().enumerate() {
            if posted & (1 << j) != 0
                && worker
                    .job
                    .compare_exchange(me, ptr::null_mut(), Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                self.pending.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// A worker's last touch of the job: once `pending` reaches 0 the
    /// caller may return and the job is gone.
    fn leave(&self) {
        let caller = self.caller.clone();
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }

    /// This job as a worker slot holds it, its lifetime erased.
    fn erased(&self) -> *mut Job<'static> {
        ptr::from_ref(self).cast_mut().cast()
    }
}

/// One parked worker: its slot — null when idle, [`busy`] while it runs a
/// job, else a posted job — and its thread, started on first use.
struct Worker {
    job: AtomicPtr<Job<'static>>,
    thread: OnceLock<Option<Thread>>,
}

impl Worker {
    /// The worker's thread, started by the first caller that needs it;
    /// `None` if the system refused the thread (its chunks then run on
    /// the callers).
    fn thread(&'static self, j: usize) -> Option<&'static Thread> {
        self.thread.get_or_init(|| start_worker(j)).as_ref()
    }

    /// The worker's life: pick up a posted job, claim its chunks, leave
    /// it; park whenever the slot holds nothing to pick up.
    fn serve(&'static self) {
        loop {
            let posted = self.job.load(Ordering::Relaxed);
            let picked = !posted.is_null()
                && posted != busy()
                && self
                    .job
                    .compare_exchange(posted, busy(), Ordering::Acquire, Ordering::Relaxed)
                    .is_ok();
            if !picked {
                thread::park();
                continue;
            }
            // SAFETY: the lifetime erasure. A caller posts its stack
            // `Job` only after counting this worker in `pending`, and
            // returns (ending the job's lifetime) only once `pending` is
            // 0. The CAS above swapped the post out of the slot, so the
            // caller can no longer revoke it: the count drops only in
            // `leave` below, and until then the job is alive.
            let job = unsafe { &*posted };
            job.work();
            self.job.store(ptr::null_mut(), Ordering::Release);
            job.leave();
        }
    }
}

/// The slot value of a worker that is running a job: never the address of
/// a live `Job`.
fn busy() -> *mut Job<'static> {
    NonNull::dangling().as_ptr()
}

static WORKERS: [Worker; MAX_WORKERS] = [const {
    Worker {
        job: AtomicPtr::new(ptr::null_mut()),
        thread: OnceLock::new(),
    }
}; MAX_WORKERS];

/// Starts worker `j`, which parks until a caller posts to it. The only
/// function in the library crates that starts a thread. The handle is
/// dropped on purpose: the worker lives as long as the process, and
/// catches every chunk's panic itself for its caller to raise.
fn start_worker(j: usize) -> Option<Thread> {
    let worker = &WORKERS[j];
    thread::Builder::new()
        .name(format!("abc-fanout-{j}"))
        .spawn(move || worker.serve())
        .ok()
        .map(|handle| handle.thread().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_chunk_runs_once_at_any_thread_count() {
        for threads in 1..=5 {
            for chunks in [0usize, 1, 2, 3, 7] {
                let seen: Vec<AtomicU32> = (0..chunks).map(|_| AtomicU32::new(0)).collect();
                run(threads, chunks, &|t| {
                    seen[t].fetch_add(1, Ordering::Relaxed);
                });
                let seen: Vec<u32> = seen.into_iter().map(AtomicU32::into_inner).collect();
                assert_eq!(seen, vec![1; chunks], "threads={threads}");
            }
        }
    }

    #[test]
    fn a_panicking_chunk_is_raised_on_the_caller_and_the_workers_stay_usable() {
        for round in 0..3 {
            // Every chunk panics, so the assertions hold however the
            // chunks land; the sleep only makes it likely that workers
            // claim some and unwind too.
            let unwound = panic::catch_unwind(|| {
                run(4, 4, &|t| {
                    thread::sleep(std::time::Duration::from_millis(1));
                    panic!("chunk {t} of round {round} failed");
                })
            });
            let payload = unwound.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            let mut raised = (0..4).map(|t| format!("chunk {t} of round {round} failed"));
            assert!(raised.any(|m| &m == msg), "{msg}");
            // The next fan-out in the process runs every chunk.
            let ran = AtomicUsize::new(0);
            run(4, 4, &|_| {
                thread::sleep(std::time::Duration::from_millis(1));
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.into_inner(), 4, "round {round}");
        }
    }

    #[test]
    fn a_fan_out_inside_a_chunk_completes() {
        let cells: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        run(4, 4, &|outer| {
            run(4, 4, &|inner| {
                cells[4 * outer + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        let cells: Vec<u32> = cells.into_iter().map(AtomicU32::into_inner).collect();
        assert_eq!(cells, vec![1; 16]);
    }

    #[test]
    fn concurrent_fan_outs_on_one_engine_match_a_serial_run() {
        use crate::RnsNttEngine;
        use abc_math::{primes::generate_ntt_primes, Modulus};
        // 6 limbs × 2^12 words clears the transform cut-off: every call
        // fans out, and four callers compete for three workers.
        let n = 1usize << 12;
        let moduli: Vec<Modulus> = generate_ntt_primes(36, 6, 2 * n as u64)
            .expect("primes")
            .into_iter()
            .map(|q| Modulus::new(q).expect("modulus"))
            .collect();
        let limbs = |salt: u64| -> Vec<Vec<u64>> {
            let word = |i: u64, j: u64| (i << 32 ^ j ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let limb = |(i, m): (usize, &Modulus)| {
                (0..n as u64).map(|j| word(i as u64, j) % m.q()).collect()
            };
            moduli.iter().enumerate().map(limb).collect()
        };
        let serial = RnsNttEngine::with_threads(&moduli, n, 1).expect("engine");
        let want: Vec<Vec<Vec<u64>>> = (0..4)
            .map(|salt| {
                let mut x = limbs(salt);
                serial.forward_all(&mut x);
                x
            })
            .collect();
        let engine =
            std::sync::Arc::new(RnsNttEngine::with_threads(&moduli, n, 4).expect("engine"));
        let _allowance = engine.allow_concurrent_ops(3);
        let callers: Vec<_> = (0..4)
            .map(|salt| {
                let (engine, mut x) = (engine.clone(), limbs(salt));
                thread::spawn(move || {
                    for _ in 0..8 {
                        engine.forward_all(&mut x);
                        engine.inverse_all(&mut x);
                    }
                    engine.forward_all(&mut x);
                    x
                })
            })
            .collect();
        for (salt, caller) in callers.into_iter().enumerate() {
            assert_eq!(caller.join().expect("caller"), want[salt], "caller {salt}");
        }
    }
}
