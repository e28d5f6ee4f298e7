//! The process-wide limb pool and [`PooledLimbs`], the one owning limb
//! container.
//!
//! Every limb-sized `Vec<u64>` on the client datapath — plaintext and
//! ciphertext residues, polynomials unpacked from the wire, engine
//! scratch, and the AVX-512 embedding FFT's split re/im planes (one
//! `N`-word limb holding `f64` bit patterns) — is checked out of this
//! pool and handed back when its owner drops, so a steady-state
//! operation touches no page it did not touch on the previous one. It
//! is the only memory a client operation recycles, and its lock the only
//! one the library crates take (`abc-analysis` rule `lock-site`). Left to `malloc`, a 24-limb upload at `N = 2^16`
//! frees 37 MiB to the top of the heap per op, the allocator trims it
//! back to the kernel, and the next op re-faults every page.
//!
//! The pool is process-wide rather than owned by a context because the
//! wire deserializers build limbs without one, and a half-pooled
//! datapath only moves the allocator's thresholds around.
//!
//! **Size classes** are keyed by exact capacity in words: [`take`] pops
//! a buffer of the requested class or allocates one, [`put`] keeps the
//! buffer while its class holds fewer than its allowance and frees it
//! otherwise. A request never receives a buffer of another class.
//!
//! **Retention is derived from the live engines, not tuned.** An
//! [`RnsNttEngine`](crate::RnsNttEngine) holds an allowance of
//! `4 × limbs` buffers of `N` words — one plaintext, two ciphertext
//! components and one polynomial of scratch (the split planes of an
//! embedding FFT among it), which is what one operation on that context
//! can have checked out — for as long as it
//! lives, and a caller that runs several operations on one engine at
//! once (the gateway's workers) holds one more per extra operation.
//! Allowances sharing `N` add up; when one is dropped the class frees
//! its excess at once, and a class nobody registered keeps nothing. A
//! miss is always correct: it falls back to the allocator and is merely
//! slower.
//!
//! The contents of a checked-out buffer are **unspecified**. Debug
//! builds make that executable: a returned buffer is overwritten with
//! [`STALE`], a word above every modulus [`abc_math::Modulus::new`]
//! accepts, so a consumer that reads before writing cannot pass a stale
//! word off as a residue.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What debug builds overwrite a returned buffer with: at least `2^63`,
/// so never a canonical (or lazily reduced) residue.
pub const STALE: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// One size class: the free buffers of one capacity and its counters.
#[derive(Debug, Default)]
struct Class {
    free: Vec<Vec<u64>>,
    allowance: usize,
    hits: u64,
    misses: u64,
    kept: u64,
    freed: u64,
}

/// Classes by capacity in words. An entry is created by the first
/// allowance for its size and stays (with its counters) afterwards,
/// so the map is bounded by the distinct ring degrees the process uses.
static POOL: Mutex<BTreeMap<usize, Class>> = Mutex::new(BTreeMap::new());

/// Locks the pool, recovering the guard from a poisoned mutex: the state
/// is lists of buffers and counters, valid at every point a panic can
/// unwind through the lock, and one panicking caller must not take the
/// pool away from every other context in the process.
fn lock() -> MutexGuard<'static, BTreeMap<usize, Class>> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Checks out a buffer of `words` words (length and capacity both
/// `words`). Its contents are **unspecified**: overwrite before reading.
pub fn take(words: usize) -> Vec<u64> {
    let hit = lock().get_mut(&words).and_then(|class| {
        let buf = class.free.pop();
        match buf {
            Some(_) => class.hits += 1,
            None => class.misses += 1,
        }
        buf
    });
    match hit {
        Some(mut buf) => {
            // A no-op unless the previous owner shortened it.
            buf.resize(words, 0);
            buf
        }
        None => vec![0; words],
    }
}

/// Hands a buffer back. It is kept while its class (its exact capacity)
/// holds fewer buffers than the live engines allow, and freed otherwise.
pub fn put(mut buf: Vec<u64>) {
    if cfg!(debug_assertions) {
        buf.clear();
        buf.resize(buf.capacity(), STALE);
    }
    let mut pool = lock();
    if let Some(class) = pool.get_mut(&buf.capacity()) {
        if class.free.len() < class.allowance {
            class.kept += 1;
            class.free.push(buf);
            return;
        }
        class.freed += 1;
    }
    // Freed here, after the lock is released.
    drop(pool);
}

/// The right to have `bufs` buffers of `words` words retained in the
/// pool (an engine's for one operation, or
/// `RnsNttEngine::allow_concurrent_ops`'s for more); withdrawn on drop,
/// when the class frees whatever it then holds in excess.
#[derive(Debug)]
pub struct Allowance {
    words: usize,
    bufs: usize,
}

impl Allowance {
    /// Adds `bufs` buffers to the allowance of the `words`-word class.
    pub(crate) fn new(words: usize, bufs: usize) -> Self {
        lock().entry(words).or_default().allowance += bufs;
        Self { words, bufs }
    }
}

impl Drop for Allowance {
    fn drop(&mut self) {
        let mut pool = lock();
        let Some(class) = pool.get_mut(&self.words) else {
            return;
        };
        class.allowance -= self.bufs;
        let keep = class.allowance.min(class.free.len());
        let excess = class.free.split_off(keep);
        drop(pool);
        drop(excess);
    }
}

/// Counters and gauges of one size class, as [`stats`] reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Capacity of the class's buffers, in words.
    pub words: usize,
    /// Buffers the live engines allow the class to retain.
    pub allowance: usize,
    /// Buffers the class holds right now.
    pub resident: usize,
    /// Requests served by a retained buffer.
    pub hits: u64,
    /// Requests that fell back to the allocator.
    pub misses: u64,
    /// Returned buffers the class kept.
    pub kept: u64,
    /// Returned buffers freed because the class was at its allowance.
    pub freed: u64,
}

impl ClassStats {
    /// Bytes the class holds right now.
    pub fn resident_bytes(&self) -> usize {
        self.resident * self.words * 8
    }

    /// Bytes the class may hold: its allowance times its buffer size.
    pub fn allowance_bytes(&self) -> usize {
        self.allowance * self.words * 8
    }
}

/// A snapshot of every class an engine ever registered, by ascending
/// buffer size.
pub fn stats() -> Vec<ClassStats> {
    let pool = lock();
    let classes = pool.iter().map(|(&words, class)| ClassStats {
        words,
        allowance: class.allowance,
        resident: class.free.len(),
        hits: class.hits,
        misses: class.misses,
        kept: class.kept,
        freed: class.freed,
    });
    classes.collect()
}

/// The snapshot of the `words`-word class, if an engine ever registered
/// one.
pub fn class_stats(words: usize) -> Option<ClassStats> {
    stats().into_iter().find(|class| class.words == words)
}

/// Residue limbs whose buffers belong to the limb pool: dereferences to
/// `[Vec<u64>]`, clones out of the pool, and hands every limb back on
/// drop — also while a panic unwinds.
///
/// Limbs built elsewhere are adopted with `From<Vec<Vec<u64>>>`, without
/// copying; they join the pool when the container drops.
#[derive(Debug, PartialEq, Eq)]
pub struct PooledLimbs {
    bufs: Vec<Vec<u64>>,
}

impl PooledLimbs {
    /// Checks out `k` limbs of `words` words each, contents unspecified
    /// (see [`take`]).
    pub(crate) fn take(k: usize, words: usize) -> Self {
        Self {
            bufs: (0..k).map(|_| take(words)).collect(),
        }
    }

    /// Pooled copies of `limbs`.
    pub fn copy_of(limbs: &[Vec<u64>]) -> Self {
        let copy = |limb: &Vec<u64>| {
            let mut buf = take(limb.len());
            buf.copy_from_slice(limb);
            buf
        };
        Self {
            bufs: limbs.iter().map(copy).collect(),
        }
    }
}

impl From<Vec<Vec<u64>>> for PooledLimbs {
    fn from(bufs: Vec<Vec<u64>>) -> Self {
        Self { bufs }
    }
}

/// Contents against limbs that are not pooled (a reference built by
/// hand).
impl PartialEq<Vec<Vec<u64>>> for PooledLimbs {
    fn eq(&self, other: &Vec<Vec<u64>>) -> bool {
        self.bufs == *other
    }
}

impl Clone for PooledLimbs {
    fn clone(&self) -> Self {
        Self::copy_of(&self.bufs)
    }
}

impl std::ops::Deref for PooledLimbs {
    type Target = [Vec<u64>];
    fn deref(&self) -> &[Vec<u64>] {
        &self.bufs
    }
}

impl std::ops::DerefMut for PooledLimbs {
    fn deref_mut(&mut self) -> &mut [Vec<u64>] {
        &mut self.bufs
    }
}

impl Drop for PooledLimbs {
    fn drop(&mut self) {
        for buf in self.bufs.drain(..) {
            put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test owns a size class no other test of this binary uses
    // (none is a power of two, so no engine registers it either): the
    // pool is shared by all of them.

    #[test]
    fn class_keeps_up_to_its_allowance_and_frees_the_rest() {
        let words = 1000;
        let allowance = Allowance::new(words, 3);
        let bufs: Vec<_> = (0..5).map(|_| take(words)).collect();
        let before = class_stats(words).expect("registered");
        assert_eq!((before.hits, before.misses, before.resident), (0, 5, 0));
        bufs.into_iter().for_each(put);
        let after = class_stats(words).expect("registered");
        assert_eq!((after.kept, after.freed, after.resident), (3, 2, 3));
        assert_eq!(after.resident_bytes(), 3 * words * 8);
        assert_eq!(after.allowance_bytes(), after.resident_bytes());
        // A second allowance adds to the first; withdrawing it frees the
        // excess at once, withdrawing both empties the class.
        let second = Allowance::new(words, 2);
        let bufs: Vec<_> = (0..5).map(|_| take(words)).collect();
        bufs.into_iter().for_each(put);
        assert_eq!(class_stats(words).expect("registered").resident, 5);
        drop(second);
        assert_eq!(class_stats(words).expect("registered").resident, 3);
        drop(allowance);
        let end = class_stats(words).expect("counters outlive the allowance");
        assert_eq!((end.allowance, end.resident), (0, 0));
        assert_eq!(end.hits, 3, "the second round reused the three kept");
    }

    #[test]
    fn unregistered_capacities_are_freed_and_classes_never_mix() {
        let (words, other) = (1001, 1003);
        let _allowance = Allowance::new(words, 4);
        // No engine registered `other`: its buffers are not retained,
        // whichever way they arrive.
        put(vec![0; other]);
        drop(PooledLimbs::from(vec![vec![0; other]; 2]));
        assert_eq!(class_stats(other), None);
        // A buffer whose capacity is not its class's is not kept as one.
        let mut roomy = Vec::with_capacity(words + 1);
        roomy.resize(words, 0);
        put(roomy);
        assert_eq!(class_stats(words).expect("registered").resident, 0);
        // And a request is served from its own class only.
        put(vec![0; words]);
        let got = take(other);
        assert_eq!((got.len(), got.capacity()), (other, other));
        assert_eq!(class_stats(words).expect("registered").resident, 1);
        let got = take(words);
        assert_eq!((got.len(), got.capacity()), (words, words));
        assert_eq!(class_stats(words).expect("registered").resident, 0);
    }

    #[test]
    fn pooled_limbs_adopt_clone_and_compare() {
        let words = 1005;
        let _allowance = Allowance::new(words, 8);
        let built: Vec<Vec<u64>> = (0..2u64).map(|i| vec![i + 1; words]).collect();
        let ptrs = [built[0].as_ptr(), built[1].as_ptr()];
        let adopted = PooledLimbs::from(built);
        assert_eq!([adopted[0].as_ptr(), adopted[1].as_ptr()], ptrs, "no copy");
        let copy = adopted.clone();
        assert_eq!(copy, adopted, "== compares contents");
        assert!(copy[0].as_ptr() != adopted[0].as_ptr(), "clone is deep");
        // The original's limbs go back and are reused by someone else;
        // the clone does not notice.
        drop(adopted);
        let mut reused = PooledLimbs::take(2, words);
        assert!(ptrs.contains(&reused[0].as_ptr()) && ptrs.contains(&reused[1].as_ptr()));
        reused.iter_mut().for_each(|limb| limb.fill(77));
        assert_eq!(copy[0], vec![1; words]);
        assert_eq!(copy[1], vec![2; words]);
        assert_ne!(copy, reused);
    }

    #[test]
    fn a_shortened_buffer_comes_back_at_full_length() {
        let words = 1007;
        let _allowance = Allowance::new(words, 1);
        let mut buf = take(words);
        buf.truncate(10);
        put(buf);
        assert_eq!(take(words).len(), words);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_overwrite_returned_buffers() {
        let words = 1009;
        let _allowance = Allowance::new(words, 1);
        put(vec![5; words]);
        assert_eq!(take(words), vec![STALE; words]);
        assert!(abc_math::Modulus::new(STALE | 1).is_err());
    }

    #[test]
    fn a_poisoned_lock_still_serves() {
        let words = 1011;
        let _allowance = Allowance::new(words, 2);
        put(vec![0; words]);
        let holder = std::thread::spawn(|| {
            let _guard = POOL.lock();
            panic!("unwinding through the pool lock");
        });
        assert!(holder.join().is_err());
        assert!(POOL.is_poisoned());
        let buf = take(words);
        put(buf);
        let class = class_stats(words).expect("registered");
        assert_eq!((class.hits, class.resident), (1, 1));
    }

    #[test]
    fn limbs_checked_out_during_a_panic_are_returned_while_unwinding() {
        let words = 1013;
        let _allowance = Allowance::new(words, 2);
        let unwound = std::panic::catch_unwind(|| {
            let _held = PooledLimbs::take(2, words);
            panic!("between take and put");
        });
        assert!(unwound.is_err());
        let class = class_stats(words).expect("registered");
        assert_eq!((class.misses, class.kept, class.resident), (2, 2, 2));
        drop(PooledLimbs::take(2, words));
        assert_eq!(class_stats(words).expect("registered").hits, 2);
    }
}
