//! Allocations of the client ops once warm, counted on every thread: a
//! counting global allocator (its own test binary, one test, so nothing
//! else allocates while it counts) sees the caller's and the fan-out
//! workers' allocations alike. An op takes its limbs from the limb pool,
//! so what an upload allocates is per-op bookkeeping, the integer
//! polynomials of the message and the samplers, and (the pinned
//! sequence) the blob, and what the download allocates is bookkeeping
//! and its slot vector; the named constants below only go down. The pool itself is filled to its
//! allowance before anything is counted, so its growth — a class's
//! first miss under a new peak of concurrent checkouts, and the free
//! list it grows — never lands in an op's count.

use abc_fhe::ckks::params::CkksParams;
use abc_fhe::ckks::{wire, CkksContext};
use abc_fhe::float::Complex;
use abc_fhe::math::envtest::EnvGuard;
use abc_fhe::prng::Seed;
use abc_fhe::transform::pool;
use abc_fhe::transform::rns_ntt::THREADS_ENV;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations of one [`CkksContext::encode_encrypt_into`] into a reused
/// blob, at up to three threads. Serially 11: the scale's numerator, the
/// slot vector and the message coefficients (3), the three samples (3;
/// a Gaussian sampler holds its table inline), the width table, the
/// numerator bytes of the header and the byte ranges (3), their
/// per-limb pairing and the one chunk's scratch checkout (2) — plus the
/// fan-out's chunk operands and one scratch checkout per further chunk
/// when the pass fans out (14 at three threads).
const FUSED_UPLOAD_ALLOCS: u64 = 14;

/// Allocations of one [`CkksContext::encode_encrypt_compressed_into`]
/// into a reused blob, at up to three threads: as [`FUSED_UPLOAD_ALLOCS`]
/// with one sample, and no pairing (8 serially).
const FUSED_COMPRESSED_ALLOCS: u64 = 11;

/// Allocations of one pinned upload — [`CkksContext::encode`] →
/// [`CkksContext::encrypt`] → `wire::serialize_ciphertext_packed`, a fresh
/// blob each — at up to three threads. Serially 17: encode's three (the
/// scale's numerator, which the plaintext keeps, the slot vector, the
/// coefficients the plaintext keeps), encrypt's eight (the three
/// samples, `m + e0`, the two component tables, the pair pass's scratch
/// checkout, the scale) and the packing's six (the blob among them) —
/// plus the fan-out's chunk operands and scratch checkouts when the
/// passes fan out (20 at three threads).
const PINNED_UPLOAD_ALLOCS: u64 = 20;

/// Allocations of one download — `wire::deserialize_ciphertext` →
/// [`CkksContext::decrypt`] → [`CkksContext::decode`] of a fresh
/// 24-prime blob — at up to three threads. Serially 14: nine to unpack
/// the blob, decrypt's two (the plaintext's limb table and its copy of
/// the scale) and decode's three (the slot vector among them) — plus the
/// fan-out's chunk operands and one lift view vector per further chunk
/// when the passes fan out (18 at three threads).
const DOWNLOAD_ALLOCS: u64 = 18;

/// Every allocation of the process, from any thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is an atomic, and touching it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    /// The caller upholds the contract of `GlobalAlloc::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// The caller upholds the contract of `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// # Safety
    /// The caller upholds the contract of `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with `layout`; the
        // caller's `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Checks out every limb each registered pool class may retain and
/// hands them all back, so the classes hold their full allowance.
fn fill_the_pool() {
    for class in pool::stats() {
        let limbs: Vec<Vec<u64>> = (0..class.allowance)
            .map(|_| pool::take(class.words))
            .collect();
        limbs.into_iter().for_each(pool::put);
    }
}

/// Limb-pool misses so far, over every class.
fn pool_misses() -> u64 {
    pool::stats().iter().map(|class| class.misses).sum()
}

/// Allocations per call of `op`, over four calls after two warm-ups and
/// a filled pool (rounded up, so one extra allocation in four calls
/// counts), and the pool misses of those four calls.
fn allocs_per_op(mut op: impl FnMut()) -> (u64, u64) {
    op();
    op();
    fill_the_pool();
    let misses = pool_misses();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..4 {
        op();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs.div_ceil(4), pool_misses() - misses)
}

#[test]
fn client_ops_allocate_at_most_their_named_counts() {
    // The gateway's shape (N = 2^13, 24 primes), serial and fanned out:
    // from two threads on, every op's passes run on the parked workers.
    let mut counts = Vec::new();
    for threads in [1usize, 2, 3] {
        let ctx = {
            let mut env = EnvGuard::lock();
            env.set(THREADS_ENV, &threads.to_string());
            CkksContext::new(CkksParams::bootstrappable(13).expect("preset")).expect("context")
        };
        let (sk, pk) = ctx.keygen(Seed::from_u128(1));
        let message: Vec<Complex> = (0..ctx.params().slots())
            .map(|j| Complex::new((j % 17) as f64 / 16.0, -((j % 5) as f64) / 4.0))
            .collect();
        let widths = ctx.wire_widths(ctx.params().num_primes());
        let pinned = allocs_per_op(|| {
            let pt = ctx.encode(&message).expect("encode");
            let ct = ctx.encrypt(&pt, &pk, Seed::from_u128(2));
            let blob = wire::serialize_ciphertext_packed(&ct, &widths).expect("pack");
            std::hint::black_box(blob);
        });
        let mut blob = Vec::new();
        let full = allocs_per_op(|| {
            blob.clear();
            let upload = ctx.encode_encrypt_into(&message, &pk, Seed::from_u128(2), &mut blob);
            upload.expect("upload");
        });
        let compressed = allocs_per_op(|| {
            blob.clear();
            let upload =
                ctx.encode_encrypt_compressed_into(&message, &sk, Seed::from_u128(3), &mut blob);
            upload.expect("upload");
        });
        let down = wire::serialize_ciphertext_packed(
            &ctx.encrypt(
                &ctx.encode(&message).expect("encode"),
                &pk,
                Seed::from_u128(4),
            ),
            &widths,
        )
        .expect("pack");
        let download = allocs_per_op(|| {
            let ct = wire::deserialize_ciphertext(&down).expect("unpack");
            let pt = ctx.decrypt(&ct, &sk).expect("decrypt");
            std::hint::black_box(ctx.decode(&pt).expect("decode"));
        });
        counts.push((threads, [pinned, full, compressed, download]));
    }
    let named = [
        PINNED_UPLOAD_ALLOCS,
        FUSED_UPLOAD_ALLOCS,
        FUSED_COMPRESSED_ALLOCS,
        DOWNLOAD_ALLOCS,
    ];
    let within = |(_, ops): &(usize, [(u64, u64); 4])| {
        ops.iter()
            .zip(named)
            .all(|(&(allocs, misses), most)| allocs <= most && misses == 0)
    };
    assert!(
        counts.iter().all(within),
        "(allocations per op, pool misses in four ops) \
         (threads, [pinned, full, compressed, download]): \
         {counts:?}"
    );
}
