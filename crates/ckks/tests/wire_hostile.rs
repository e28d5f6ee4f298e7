//! Structure-aware hostile-input sweep over the one wire parser.
//!
//! For each of the four blob kinds, every header field is mutated in
//! turn — edge values plus ChaCha-seeded random ones — along with the
//! blob's length and its payload bits, and each mutant goes through all
//! four deserializers. The only outcomes allowed: a typed
//! `InvalidParams("wire: …")`, or a value that serializes back to the
//! mutant's own bytes. Never a panic, and never memory in proportion to
//! what a header *claims*: a counting allocator checks that a rejected
//! blob costs at most a header's worth, and that one whose length does
//! not match its header costs the error message alone.

use abc_ckks::params::CkksParams;
use abc_ckks::scale::ExactScale;
use abc_ckks::symmetric::encrypt_symmetric_compressed;
use abc_ckks::{evaluator, wire, CkksContext, CkksError, Plaintext, SecretKey};
use abc_float::Complex;
use abc_prng::chacha::ChaCha20;
use abc_prng::Seed;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a `Cell` in const-initialized
// thread-local storage, touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    /// # Safety
    /// The caller upholds the contract of `GlobalAlloc::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// The caller upholds the contract of `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A rejected blob whose length matched may cost what its header — here
/// under 100 bytes — holds: the scale it turned out not to carry, the
/// width table, and the message.
const HEADER_WORTH: usize = 4096;
/// `InvalidParams("wire: …")` and nothing else.
const MESSAGE_WORTH: usize = 160;

/// Where a mutant's length stands against its header.
#[derive(Clone, Copy, PartialEq)]
enum Length {
    /// The mutation moved a length or a field a length is computed
    /// from: the blob cannot match its header.
    Broken,
    /// The length still matches; the field's own bound decides.
    Kept,
}

/// Deserialize a blob, then serialize the value under the widths the
/// blob carries.
type Reserialize = fn(&[u8], &[u32]) -> Result<Vec<u8>, CkksError>;

/// One honest blob, the byte offsets of its header fields, and how to
/// take any blob of its kind apart and put it back together.
struct Subject {
    name: &'static str,
    blob: Vec<u8>,
    /// Offset of the width table (its length is `limbs`).
    widths_at: usize,
    limbs: usize,
    reserialize: Reserialize,
}

fn subjects() -> Vec<Subject> {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(8)
            .num_primes(3)
            .secret_hamming_weight(Some(16))
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(1));
    let pt = ctx.encode(&[Complex::new(0.25, -0.5); 16]).expect("encode");
    // A rescaled ciphertext: its scale has a numerator, an exponent and
    // a dropped prime, so every scale field is live.
    let fresh = ctx.encrypt(&pt, &pk, Seed::from_u128(2));
    let full = evaluator::rescale(
        &ctx,
        &evaluator::plaintext_mul(&ctx, &fresh, &pt).expect("mul"),
    )
    .expect("rescale");
    assert_eq!(full.exact_scale().dropped_primes().len(), 1);
    let seeded = encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(3));
    let evk = ctx.gen_eval_key(&sk, Seed::from_u128(4));
    let gk = ctx
        .gen_rotation_key(&sk, 1, Seed::from_u128(5))
        .expect("key");

    let all = ctx.wire_widths(ctx.basis().len());
    let full_widths = ctx.wire_widths(full.num_primes());
    // Header sizes, from the module doc's field table.
    let (num_len, den_len) = {
        let (num, _, den) = full.exact_scale().raw_parts();
        (num.to_le_bytes().len(), den.len())
    };
    vec![
        Subject {
            name: "full",
            blob: wire::serialize_ciphertext_packed(&full, &full_widths).expect("pack"),
            widths_at: 18 + num_len + 8 * den_len,
            limbs: full_widths.len(),
            reserialize: |b, w| {
                wire::serialize_ciphertext_packed(&wire::deserialize_ciphertext(b)?, w)
            },
        },
        Subject {
            name: "seeded",
            blob: wire::serialize_compressed_ciphertext(&seeded, &all).expect("pack"),
            widths_at: 18 + 1 + 16,
            limbs: all.len(),
            reserialize: |b, w| {
                wire::serialize_compressed_ciphertext(
                    &wire::deserialize_compressed_ciphertext(b)?,
                    w,
                )
            },
        },
        Subject {
            name: "eval key",
            blob: wire::serialize_eval_key(&evk, &all).expect("pack"),
            widths_at: 12,
            limbs: all.len(),
            reserialize: |b, w| wire::serialize_eval_key(&wire::deserialize_eval_key(b)?, w),
        },
        Subject {
            name: "galois key",
            blob: wire::serialize_galois_key(&gk, &all).expect("pack"),
            widths_at: 12 + 8,
            limbs: all.len(),
            reserialize: |b, w| wire::serialize_galois_key(&wire::deserialize_galois_key(b)?, w),
        },
    ]
}

/// Runs `mutant` through every subject's deserializer and checks the
/// only two outcomes allowed. Returns how many accepted it.
fn check(
    subjects: &[Subject],
    origin: &Subject,
    mutant: &[u8],
    length: Length,
    what: &str,
) -> usize {
    // The widths an accepting parse must have read: the table sits
    // where the (unmutated) fields before it put it.
    let widths: Vec<u32> = mutant
        .get(origin.widths_at..origin.widths_at + origin.limbs)
        .unwrap_or(&[])
        .iter()
        .map(|&w| u32::from(w))
        .collect();
    let mut accepted = 0;
    for s in subjects {
        let before = REQUESTED.get();
        let outcome = (s.reserialize)(mutant, &widths);
        let cost = REQUESTED.get() - before;
        let context = format!("{} blob, {what}, read as {}", origin.name, s.name);
        match outcome {
            Ok(bytes) => {
                assert!(
                    bytes == mutant,
                    "{context}: accepted, but re-serializes differently"
                );
                assert!(s.name == origin.name, "{context}: accepted as another kind");
                assert!(
                    length == Length::Kept,
                    "{context}: accepted with a broken length"
                );
                accepted += 1;
            }
            Err(CkksError::InvalidParams(msg)) => {
                assert!(msg.starts_with("wire: "), "{context}: {msg}");
                let allowance = match length {
                    Length::Broken => MESSAGE_WORTH,
                    Length::Kept => HEADER_WORTH,
                };
                assert!(
                    cost <= allowance,
                    "{context}: rejection allocated {cost} B ({msg})"
                );
            }
            Err(other) => panic!("{context}: untyped rejection {other:?}"),
        }
    }
    accepted
}

/// `blob` with `bytes` written at `at`.
fn poke(blob: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    let mut out = blob.to_vec();
    out[at..at + bytes.len()].copy_from_slice(bytes);
    out
}

#[test]
fn every_header_field_of_every_kind_is_bounded_at_the_door() {
    let subjects = subjects();
    let mut rng = ChaCha20::from_seed(Seed::from_u128(0xD00B));
    let mut accepted = 0;
    for s in &subjects {
        assert_eq!(check(&subjects, s, &s.blob, Length::Kept, "honest"), 1);
        let blob = &s.blob;
        let mut mutate = |at: usize, bytes: &[u8], length: Length, what: &str| {
            if blob[at..at + bytes.len()] != *bytes {
                accepted += check(&subjects, s, &poke(blob, at, bytes), length, what);
            }
        };

        // Magic, version, kind: the prefix every header parse checks first.
        for at in 0..4 {
            mutate(at, &[rng.next_u32() as u8], Length::Broken, "magic");
        }
        for version in [0u16, 2, 4, 0x0300, rng.next_u32() as u16] {
            mutate(4, &version.to_le_bytes(), Length::Broken, "version");
        }
        for kind in 0..=u8::MAX {
            // Another defined kind reads the following fields as its
            // own; an undefined one is refused on the spot.
            mutate(6, &[kind], Length::Broken, "kind");
        }
        // Shape: ring degree, limb count.
        for log_n in 0..=u8::MAX {
            mutate(7, &[log_n], Length::Broken, "log_n");
        }
        for limbs in [0u16, 1, 2, 4, 64, 65, 256, u16::MAX, rng.next_u32() as u16] {
            mutate(8, &limbs.to_le_bytes(), Length::Broken, "limbs");
        }
        // The kind's own fields.
        if s.name == "full" || s.name == "seeded" {
            let max = ExactScale::MAX_EXP;
            for exp in [i32::MIN, i32::MAX, 1 << 25, -(1 << 25), max + 1, -max - 1] {
                mutate(
                    10,
                    &exp.to_le_bytes(),
                    Length::Kept,
                    "scale_exp past the bound",
                );
            }
            for exp in [max, -max, 0, 1 << 20, rng.next_bits(24) as i32] {
                mutate(
                    10,
                    &exp.to_le_bytes(),
                    Length::Kept,
                    "scale_exp inside the bound",
                );
            }
            for len in [0u16, 1, 2, 8192, 8193, u16::MAX, rng.next_u32() as u16] {
                mutate(14, &len.to_le_bytes(), Length::Broken, "num_len");
                mutate(16, &len.to_le_bytes(), Length::Broken, "den_len");
            }
            let num_len = usize::from(u16::from_le_bytes([blob[14], blob[15]]));
            for at in 18..18 + num_len {
                // Even, zero (at the top: non-minimal) and random bytes.
                for byte in [0, 2, rng.next_u32() as u8] {
                    mutate(at, &[byte], Length::Kept, "numerator byte");
                }
            }
            let den_len = usize::from(u16::from_le_bytes([blob[16], blob[17]]));
            for entry in 0..den_len {
                let at = 18 + num_len + 8 * entry;
                for q in [0u64, 1, 2, 3, u64::MAX, u64::MAX - 1, rng.next_u64() | 1] {
                    mutate(at, &q.to_le_bytes(), Length::Kept, "denominator entry");
                }
            }
        }
        if s.name == "seeded" {
            for at in s.widths_at - 16..s.widths_at {
                mutate(at, &[rng.next_u32() as u8], Length::Kept, "mask seed");
            }
        }
        if s.name == "eval key" || s.name == "galois key" {
            for digits in [0u16, 1, 2, 4, 64, 65, u16::MAX, rng.next_u32() as u16] {
                mutate(10, &digits.to_le_bytes(), Length::Broken, "digits");
            }
        }
        if s.name == "galois key" {
            let two_n = 2u64 << blob[7];
            for g in [0, 2, two_n, two_n + 1, u64::MAX, rng.next_u64() & !1] {
                mutate(
                    12,
                    &g.to_le_bytes(),
                    Length::Kept,
                    "element outside the group",
                );
            }
            for g in [1, 3, two_n - 1, (rng.next_u64() % two_n) | 1] {
                mutate(
                    12,
                    &g.to_le_bytes(),
                    Length::Kept,
                    "element inside the group",
                );
            }
        }
        for limb in 0..s.limbs {
            for width in [0u8, 1, 35, 37, 63, 64, 65, u8::MAX, rng.next_u32() as u8] {
                mutate(s.widths_at + limb, &[width], Length::Broken, "width");
            }
        }
        // Payload bits: no field bounds them (N ≥ 8 makes every
        // polynomial whole bytes, so each bit is a residue bit) — they
        // must come back as they went in.
        let payload_at = s.widths_at + s.limbs;
        for _ in 0..64 {
            let at = payload_at + rng.next_u64() as usize % (blob.len() - payload_at);
            let flipped = blob[at] ^ (1 << rng.next_bits(3));
            mutate(at, &[flipped], Length::Kept, "payload bit");
        }

        // Length: every prefix through the header, then ±1 and ±8.
        for cut in (0..payload_at + 2).chain([blob.len() - 8, blob.len() - 1]) {
            accepted += check(&subjects, s, &blob[..cut], Length::Broken, "truncated");
        }
        for extra in [1, 8] {
            let longer = [&blob[..], &vec![0; extra]].concat();
            accepted += check(&subjects, s, &longer, Length::Broken, "extended");
        }
    }
    // The sweep is not vacuous on the accepting side either: every
    // payload flip, plus in-bound exponents, odd numerators and
    // denominators, group elements and seeds.
    assert!(accepted > 4 * 64, "only {accepted} mutants were accepted");
}

/// Whether a blob is seeded, the honest blob, and its mutants with the
/// width `w` of the limb each pokes.
type ResidueCase = (bool, Vec<u8>, Vec<(u32, Vec<u8>)>);

/// A 3-prime context at `N = 2^8`, its secret key, and per wire kind
/// (full, then seeded) the honest blob and its residue mutants: in
/// mutant `i`, residue 0 of limb `i` of the last component (a full
/// blob's `c1`, a seeded one's `c0`) is `2^w − 1`. Every field stays
/// below `2^w`, so each mutant parses; each lies past its prime.
fn residue_mutants() -> (CkksContext, SecretKey, [ResidueCase; 2]) {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(8)
            .num_primes(3)
            .build()
            .expect("params"),
    )
    .expect("ctx");
    let (sk, pk) = ctx.keygen(Seed::from_u128(1));
    let pt = ctx.encode(&[Complex::new(0.25, -0.5); 16]).expect("encode");
    let widths = ctx.wire_widths(3);
    let full =
        wire::serialize_ciphertext_packed(&ctx.encrypt(&pt, &pk, Seed::from_u128(2)), &widths)
            .expect("pack");
    let seeded = wire::serialize_compressed_ciphertext(
        &encrypt_symmetric_compressed(&ctx, &pt, &sk, Seed::from_u128(3)),
        &widths,
    )
    .expect("pack");
    // Limb `i` of the last component, counted back from the end of the blob.
    let limb_at = |blob: &[u8], i: usize| {
        let tail = widths[i..]
            .iter()
            .map(|&w| ctx.params().n() * w as usize / 8);
        blob.len() - tail.sum::<usize>()
    };
    let mutants = |blob: &[u8]| -> Vec<(u32, Vec<u8>)> {
        let mutant = |(i, &w): (usize, &u32)| {
            let at = limb_at(blob, i);
            let ones = (u64::MAX >> (64 - w)).to_le_bytes();
            let mut bad = poke(blob, at, &ones[..w as usize / 8]);
            bad[at + w as usize / 8] |= ones[w as usize / 8];
            (w, bad)
        };
        widths.iter().enumerate().map(mutant).collect()
    };
    let (full_mutants, seeded_mutants) = (mutants(&full), mutants(&seeded));
    let kinds = [(false, full, full_mutants), (true, seeded, seeded_mutants)];
    (ctx, sk, kinds)
}

#[test]
fn a_residue_past_its_prime_parses_and_is_refused_by_the_context() {
    // The format bounds a residue by its width, the basis by its prime:
    // residue 0 of each limb in turn set to `2^w − 1` still parses (every
    // field < 2^w), and `CkksContext::check_residues` is what refuses it
    // before any arithmetic runs; the honest blobs pass both.
    let (ctx, _, kinds) = residue_mutants();
    let verdict = |blob: &[u8], seeded: bool| -> Result<(), CkksError> {
        if seeded {
            ctx.check_residues(wire::deserialize_compressed_ciphertext(blob)?.c0())
        } else {
            let ct = wire::deserialize_ciphertext(blob)?;
            ctx.check_residues(ct.components().0)?;
            ctx.check_residues(ct.components().1)
        }
    };
    for (is_seeded, blob, mutants) in &kinds {
        assert_eq!(verdict(blob, *is_seeded), Ok(()), "honest blob");
        for (i, (w, bad)) in mutants.iter().enumerate() {
            let refused = verdict(bad, *is_seeded);
            let names_the_limb = |m: &String| m.contains(&format!("limb {i} "));
            assert!(
                matches!(&refused, Err(CkksError::InvalidParams(m)) if names_the_limb(m)),
                "limb {i}: a residue of 2^{w} - 1 got {refused:?}"
            );
        }
    }
}

#[test]
fn a_residue_past_its_prime_is_refused_by_decrypt() {
    // The same mutants straight into `CkksContext::decrypt`, with no
    // `check_residues` before it: its transform loads every word of `c0`
    // and `c1` and refuses the limb holding one at or above its prime —
    // an `InvalidParams` naming that limb, in debug and release builds
    // alike, never a panic (a seeded blob's `c0` reaches it through
    // `expand`, which computes nothing on it). The honest blobs decrypt.
    let (ctx, sk, kinds) = residue_mutants();
    let decrypt = |blob: &[u8], seeded: bool| -> Result<Plaintext, CkksError> {
        let ct = match seeded {
            true => wire::deserialize_compressed_ciphertext(blob)?.expand(&ctx)?,
            false => wire::deserialize_ciphertext(blob)?,
        };
        ctx.decrypt(&ct, &sk)
    };
    for (is_seeded, blob, mutants) in &kinds {
        let honest = decrypt(blob, *is_seeded).expect("honest blob");
        let slots = ctx.decode(&honest).expect("decode");
        assert!((slots[0].re - 0.25).abs() < 1e-3, "{:?}", slots[0]);
        for (i, (w, bad)) in mutants.iter().enumerate() {
            let refused = decrypt(bad, *is_seeded);
            let names_the_limb = |m: &String| m.contains(&format!("limb {i} "));
            assert!(
                matches!(&refused, Err(CkksError::InvalidParams(m)) if names_the_limb(m)),
                "seeded {is_seeded}, limb {i}: a residue of 2^{w} - 1 got {refused:?}"
            );
        }
    }
}
