//! Fixture tests: every rule must fire on the broken form and stay
//! silent on the fixed form, including the lexing edge cases that sank
//! naive regex-based checkers (`unsafe` inside strings and comments,
//! raw strings, nested block comments, `#[cfg(test)]` regions).

use abc_analysis::allowlist;
use abc_analysis::{analyze, Finding};

/// Runs the analyzer over a single in-memory file. A lone file has no
/// outside callers, so every `pub` item of a product crate in it would
/// be a `pub-reach` finding; that rule's fixtures (rule 9 below) give it
/// a workspace of several files, and it is left out here.
fn findings(path: &str, src: &str) -> Vec<Finding> {
    analyze(&[(path.to_string(), src.to_string())])
        .into_iter()
        .filter(|f| f.rule != "pub-reach")
        .collect()
}

/// Runs the analyzer over several in-memory files and keeps the
/// `pub-reach` findings.
fn reach_findings(files: &[(&str, &str)]) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, c)| (p.to_string(), c.to_string()))
        .collect();
    analyze(&files)
        .into_iter()
        .filter(|f| f.rule == "pub-reach")
        .collect()
}

fn rules(found: &[Finding]) -> Vec<&str> {
    found.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- rule 1

#[test]
fn unsafe_block_without_safety_comment_fires() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    unsafe { *p }
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["unsafe-safety-comment"], "{found:?}");
    assert_eq!(found[0].line, 3);
}

#[test]
fn unsafe_block_with_safety_comment_is_clean() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    // SAFETY: the caller promises `p` is valid and aligned.
    unsafe { *p }
}
"#;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn safety_comment_jumps_over_attributes_and_multiline_statements() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    // SAFETY: the caller promises `p` is valid.
    #[allow(clippy::let_and_return)]
    let v =
        unsafe { *p };
    v
}
"#;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn unsafe_fn_requires_safety_doc_section() {
    let bad = r#"
/// Reads a raw pointer.
pub unsafe fn read(p: *const u64) -> u64 {
    // SAFETY: caller contract.
    unsafe { *p }
}
"#;
    let found = findings("crates/x/src/a.rs", bad);
    assert_eq!(rules(&found), ["unsafe-safety-comment"], "{found:?}");

    let good = r#"
/// Reads a raw pointer.
///
/// # Safety
///
/// `p` must be valid and aligned.
pub unsafe fn read(p: *const u64) -> u64 {
    // SAFETY: caller upholds the contract above.
    unsafe { *p }
}
"#;
    assert!(findings("crates/x/src/a.rs", good).is_empty());
}

#[test]
fn unsafe_keyword_in_strings_and_comments_is_ignored() {
    let src = r##"
pub fn describe() -> &'static str {
    // This mentions unsafe { code } but is only a comment.
    /* so does unsafe { this } */
    "unsafe { not_code() }"
}

pub fn raw() -> &'static str {
    r#"unsafe fn looks_like_code() { "nested \"quotes\" stay in" }"#
}
"##;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn nested_block_comments_hide_code() {
    let src = r#"
/* outer /* unsafe { inner() } */ still a comment */
pub fn fine() {}
"#;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn safety_comment_inside_a_string_does_not_count() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    let _banner = "// SAFETY: not a comment";
    unsafe { *p }
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["unsafe-safety-comment"], "{found:?}");
}

// ---------------------------------------------------------------- rule 2

#[test]
fn intrinsic_without_target_feature_fires() {
    let src = r#"
use std::arch::x86_64::*;

pub fn bad(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}
"#;
    let found = findings("crates/x/src/simd.rs", src);
    assert_eq!(rules(&found), ["simd-gating"], "{found:?}");
}

#[test]
fn gated_kernel_with_detected_dispatch_is_clean() {
    let src = r#"
use std::arch::x86_64::*;

/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn kernel(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}

pub fn dispatch(a: __m512i, b: __m512i) -> __m512i {
    assert!(CpuCaps::detect().avx512f);
    // SAFETY: the assert above proves the feature is present.
    unsafe { kernel(a, b) }
}
"#;
    assert!(findings("crates/x/src/simd.rs", src).is_empty());
}

#[test]
fn cpu_detection_outside_the_registry_fires() {
    // `CpuCaps::detect` in `crates/math/src/kernel.rs` is the one
    // function that may probe the CPU; the same body anywhere else (or
    // under another name) is a second detection site.
    let src = r#"
pub fn detect() -> bool {
    is_x86_feature_detected!("avx512f")
}
"#;
    assert!(findings("crates/math/src/kernel.rs", src).is_empty());
    for (path, src) in [
        ("crates/x/src/simd.rs", src.to_string()),
        (
            "crates/math/src/kernel.rs",
            src.replace("detect()", "available()"),
        ),
    ] {
        let found = findings(path, &src);
        assert_eq!(rules(&found), ["simd-gating"], "{path}: {found:?}");
        assert!(found[0].message.contains("CpuCaps::detect"));
    }
}

#[test]
fn calling_target_feature_fn_without_detection_fires() {
    let src = r#"
use std::arch::x86_64::*;

/// # Safety
///
/// The CPU must support AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn kernel(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}

pub fn dispatch(a: __m512i, b: __m512i) -> __m512i {
    // SAFETY: (wrong!) nothing checked the feature.
    unsafe { kernel(a, b) }
}
"#;
    let found = findings("crates/x/src/simd.rs", src);
    assert_eq!(rules(&found), ["simd-gating"], "{found:?}");
    assert!(found[0].message.contains("CpuCaps::detect"));
}

#[test]
fn ifma_outside_its_home_fires() {
    // A gated, documented IFMA kernel: clean by checks 1–3, so only the
    // home check can fire — once for the intrinsic, once for the feature.
    let src = r#"
use std::arch::x86_64::*;

/// # Safety
///
/// The CPU must support AVX-512F and AVX-512IFMA.
#[target_feature(enable = "avx512f,avx512ifma")]
unsafe fn kernel(a: __m512i, b: __m512i) -> __m512i {
    // `_mm512_madd52lo_epu64` in a comment is no use.
    _mm512_madd52lo_epu64(a, a, b)
}

pub fn dispatch(a: __m512i, b: __m512i) -> __m512i {
    assert!(CpuCaps::detect().ifma());
    // SAFETY: the assert above proves the features are present.
    unsafe { kernel(a, b) }
}
"#;
    let found = findings("crates/transform/src/ntt.rs", src);
    assert_eq!(rules(&found), ["simd-gating"; 2], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (7, 10));
    assert!(found
        .iter()
        .all(|f| f.message.contains("crates/math/src/simd")));
    // The datapath's home, and crates that are not product code, are
    // silent.
    for path in [
        "crates/math/src/simd.rs",
        "crates/math/src/simd/ntt.rs",
        "crates/hw/src/stream.rs",
        "crates/bench/src/bin/perf_snapshot.rs",
    ] {
        assert!(findings(path, src).is_empty(), "{path}");
    }
}

// ---------------------------------------------------------------- rule 3

#[test]
fn lazy_fn_without_domain_doc_fires() {
    let src = r#"
pub fn mul_assign_lazy(a: &mut [u64], b: &[u64]) {
    let _ = (a, b);
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["lazy-domain-doc"], "{found:?}");
}

#[test]
fn lazy_fn_with_domain_doc_is_clean() {
    let src = r#"
/// Lazy product: outputs stay in the lazy domain `[0, 2q)`.
pub fn mul_assign_lazy(a: &mut [u64], b: &[u64]) {
    let _ = (a, b);
}
"#;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

#[test]
fn lazy_fn_inside_cfg_test_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    fn helper_lazy(a: &mut [u64]) {
        let _ = a;
    }
}
"#;
    assert!(findings("crates/x/src/a.rs", src).is_empty());
}

// ---------------------------------------------------------------- rule 4

#[test]
fn direct_env_var_on_abc_fhe_key_fires() {
    let src = r#"
pub fn threads() -> Option<String> {
    std::env::var("ABC_FHE_THREADS").ok()
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["env-access"], "{found:?}");
}

#[test]
fn env_var_through_const_is_still_caught() {
    let src = r#"
pub const THREADS_ENV: &str = "ABC_FHE_THREADS";

pub fn threads() -> Option<String> {
    std::env::var(THREADS_ENV).ok()
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["env-access"], "{found:?}");
    assert!(found[0].message.contains("ABC_FHE_THREADS"));
}

#[test]
fn set_var_in_tests_is_also_flagged() {
    // The whole point of the rule: tests must use EnvGuard, not raw
    // set_var, so parallel tests cannot race each other.
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn racy() {
        std::env::set_var("ABC_FHE_THREADS", "1");
    }
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(rules(&found), ["env-access"], "{found:?}");
}

#[test]
fn non_abc_keys_and_envtest_module_are_exempt() {
    let other = r#"
pub fn path() -> Option<String> {
    std::env::var("PATH").ok()
}
"#;
    assert!(findings("crates/x/src/a.rs", other).is_empty());

    let guard = r#"
pub fn set(key: &str, value: &str) {
    std::env::set_var("ABC_FHE_THREADS", value);
    let _ = key;
}
"#;
    assert!(findings("crates/math/src/envtest.rs", guard).is_empty());
}

// ---------------------------------------------------------------- rule 5

#[test]
fn unwrap_in_gateway_request_path_fires() {
    let src = r#"
pub fn depth(q: &std::sync::Mutex<Vec<u64>>) -> usize {
    q.lock().unwrap().len()
}
"#;
    let found = findings("crates/gateway/src/queue.rs", src);
    assert_eq!(rules(&found), ["gateway-panic-free"], "{found:?}");
}

#[test]
fn panic_macros_in_gateway_fire_but_tests_and_other_crates_do_not() {
    let src = r#"
pub fn boom() {
    panic!("nope");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_can_unwrap() {
        Some(1).unwrap();
        panic!("fine in tests");
    }
}
"#;
    let found = findings("crates/gateway/src/worker.rs", src);
    assert_eq!(rules(&found), ["gateway-panic-free"], "{found:?}");
    assert_eq!(found[0].line, 3);

    // Same source outside the gateway: out of the rule's scope.
    assert!(findings("crates/math/src/a.rs", src).is_empty());
    // Gateway binaries (loadgen harness) are out of scope too.
    assert!(findings("crates/gateway/src/bin/loadgen.rs", src).is_empty());
}

#[test]
fn unwrap_or_else_is_not_unwrap() {
    let src = r#"
pub fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
"#;
    assert!(findings("crates/gateway/src/sync.rs", src).is_empty());
}

// ---------------------------------------------------------------- rule 6

#[test]
fn a_second_thread_site_in_a_library_crate_fires() {
    let src = r#"
pub fn encode_many(messages: &[Vec<f64>]) {
    std::thread::scope(|s| {
        s.spawn(|| messages.len());
    });
}

pub fn detached() {
    let _ = std::thread::Builder::new().spawn(|| ());
    std::thread::spawn(|| ());
}
"#;
    let found = findings("crates/ckks/src/context.rs", src);
    assert_eq!(rules(&found), ["thread-site"; 3], "{found:?}");
    assert_eq!(found[0].line, 3);
    // Another function of the fan-out's own file is still a second site.
    let found = findings("crates/transform/src/fanout.rs", src);
    assert_eq!(rules(&found), ["thread-site"; 3], "{found:?}");
    // A per-call scope is a finding even in the worker-start function and
    // in tests: the parked workers replaced it.
    let scoped = r#"
fn start_worker(j: usize) {
    std::thread::scope(|s| {
        s.spawn(|| j);
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn joins() {
        std::thread::scope(|_| ());
    }
}
"#;
    let found = findings("crates/transform/src/fanout.rs", scoped);
    assert_eq!(rules(&found), ["thread-site"; 2], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (3, 12), "{found:?}");
    // The retired limb fan-out is no longer a registered site.
    let old = r#"
fn fan_out(k: usize) {
    std::thread::scope(|s| {
        for _ in 0..k {
            s.spawn(|| ());
        }
    });
}
"#;
    let found = findings("crates/transform/src/rns_ntt.rs", old);
    assert_eq!(rules(&found), ["thread-site"], "{found:?}");
}

#[test]
fn the_fan_out_tests_and_the_gateway_may_start_threads() {
    let src = r#"
/// Starts a parked worker with `std::thread::Builder`.
fn start_worker(j: usize) -> Option<std::thread::Thread> {
    // thread::scope would join at once; a parked worker lives on.
    std::thread::Builder::new()
        .name(format!("w{j}"))
        .spawn(|| std::thread::park())
        .ok()
        .map(|handle| handle.thread().clone())
}

pub fn sleepy() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    #[test]
    fn poisoner() {
        std::thread::spawn(|| panic!("poison")).join().unwrap_err();
    }
}
"#;
    assert!(findings("crates/transform/src/fanout.rs", src).is_empty());
    // The worker pool parallelises across requests: out of scope.
    let pool = r#"
pub fn start() {
    let _ = std::thread::Builder::new().spawn(|| ());
}
"#;
    assert!(findings("crates/gateway/src/service.rs", pool).is_empty());
    assert!(findings("crates/transform/tests/proptests.rs", pool).is_empty());
}

// ---------------------------------------------------------------- rule 7

#[test]
fn a_second_lock_in_a_library_crate_fires() {
    let src = r#"
use std::sync::Mutex;

/// A `Mutex` in a doc comment is not a lock.
pub struct SlotPool {
    bufs: Mutex<Vec<Vec<f64>>>,
}

#[cfg(test)]
mod tests {
    static SERIAL: std::sync::RwLock<()> = std::sync::RwLock::new(());
}
"#;
    let found = findings("crates/transform/src/fft_engine.rs", src);
    assert_eq!(rules(&found), ["lock-site"; 2], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (2, 6));
    // The gateway's queue and session cache serialise requests: out of
    // scope.
    assert!(findings("crates/gateway/src/queue.rs", src).is_empty());
}

#[test]
fn the_limb_pool_and_the_env_lock_may_hold_a_lock() {
    let src = r#"
use std::sync::{Mutex, MutexGuard, PoisonError};

static POOL: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());
"#;
    assert!(findings("crates/transform/src/pool.rs", src).is_empty());
    assert!(findings("crates/math/src/envtest.rs", src).is_empty());
    // The same source in another file of those crates is a second lock.
    let found = findings("crates/math/src/rns.rs", src);
    assert_eq!(rules(&found), ["lock-site"; 3], "{found:?}");
}

// ---------------------------------------------------------------- rule 8

#[test]
fn a_model_path_in_a_product_crate_fires() {
    let src = r#"
use abc_hw::memory::MemoryModel;

/// Costs an upload the way `abc_sim::simulate` would (a doc may say so).
pub fn modelled_cycles(n: usize) -> u64 {
    abc_sim::simulate(n) + abc_hw::chip::cycles(n)
}

#[cfg(test)]
mod tests {
    #[test]
    fn against_the_model() {
        let _ = abc_sim::simulate(1);
    }
}
"#;
    let found = findings("crates/ckks/src/context.rs", src);
    assert_eq!(rules(&found), ["model-boundary"; 3], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (2, 6));
    // The gateway is a product crate too.
    let found = findings("crates/gateway/src/worker.rs", src);
    assert_eq!(rules(&found), ["model-boundary"; 3], "{found:?}");
}

#[test]
fn the_models_their_users_and_tests_may_name_the_models() {
    let src = r#"
use abc_sim::SimConfig;

pub fn report() -> u64 {
    abc_hw::chip::cycles(16)
}
"#;
    for path in [
        "crates/hw/src/chip.rs",
        "crates/sim/src/lib.rs",
        "crates/bench/src/fig1.rs",
        "crates/ckks/tests/proptests.rs",
        "tests/paper_claims.rs",
    ] {
        assert!(findings(path, src).is_empty(), "{path}");
    }
}

// ---------------------------------------------------------------- rule 9

/// A product-crate file with one `pub fn` and one `pub const`.
const HELPERS: &str = r#"
/// Doubles `x`.
pub fn helper(x: u64) -> u64 {
    2 * x + LIMIT
}

/// A bound.
pub const LIMIT: u64 = 7;
"#;

#[test]
fn an_item_named_outside_its_src_is_reached() {
    let caller = "fn go() -> u64 { abc_math::a::helper(abc_math::a::LIMIT) }\n";
    for outside in [
        "crates/ckks/src/context.rs",
        "crates/math/tests/proptests.rs",
        "benchmark/src/probes.rs",
        "examples/quickstart.rs",
        "crates/gateway/src/bin/gateway_loadgen.rs",
    ] {
        let found = reach_findings(&[("crates/math/src/a.rs", HELPERS), (outside, caller)]);
        assert!(found.is_empty(), "{outside}: {found:?}");
    }
}

#[test]
fn an_item_named_only_in_comments_doctests_or_its_own_src_fires() {
    let mentions = r#"
//! Calls [`abc_math::a::helper`] somewhere.
/// ```
/// let y = abc_math::a::helper(abc_math::a::LIMIT);
/// ```
pub fn unrelated() -> &'static str {
    "helper LIMIT" // strings are not identifiers either
}
"#;
    let same_crate = "pub(crate) fn go() -> u64 { crate::a::helper(crate::a::LIMIT) }\n";
    let found = reach_findings(&[
        ("crates/math/src/a.rs", HELPERS),
        ("crates/math/src/b.rs", same_crate),
        ("crates/ckks/tests/docs.rs", mentions),
    ]);
    assert_eq!(rules(&found), ["pub-reach"; 2], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (3, 8));
    assert!(found[0].message.contains("`pub fn helper`"), "{found:?}");
    assert!(found[1].message.contains("`pub const LIMIT`"), "{found:?}");
}

#[test]
fn restricted_test_only_and_non_product_items_are_ignored() {
    let src = r#"
pub(crate) fn narrow() {}
pub(super) const ALSO: u8 = 1;
pub struct Kept;

#[cfg(test)]
pub const FIXTURE: u8 = 2;

#[cfg(test)]
mod tests {
    pub fn shared_helper() {}
}
"#;
    assert!(reach_findings(&[("crates/math/src/a.rs", src)]).is_empty());
    // Crates outside the product set have no reach contract.
    for path in [
        "crates/hw/src/chip.rs",
        "crates/bench/src/lib.rs",
        "src/lib.rs",
    ] {
        assert!(reach_findings(&[(path, HELPERS)]).is_empty(), "{path}");
    }
}

#[test]
fn allowlisted_api_passes_and_a_stale_entry_is_reported() {
    let found = reach_findings(&[("crates/ckks/src/evaluator.rs", HELPERS)]);
    assert_eq!(found.len(), 2, "{found:?}");
    let toml = r#"
[[allow]]
rule = "pub-reach"
path = "crates/ckks/src/evaluator.rs"
contains = "pub fn helper"
justification = "user API"

[[allow]]
rule = "pub-reach"
path = "crates/ckks/src/noise.rs"
justification = "nothing unreached is left there: reported stale"
"#;
    let entries = allowlist::parse(toml).expect("parse");
    let (reported, allowed, stale) = allowlist::apply(found, &entries);
    assert_eq!(allowed.len(), 1, "{allowed:?}");
    assert!(allowed[0].finding.excerpt.contains("helper"));
    assert_eq!(rules(&reported), ["pub-reach"], "the const is not API");
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("noise.rs"), "{stale:?}");
}

// ---------------------------------------------------------------- rule 10

#[test]
fn a_marked_gaussian_draw_with_a_conditional_sign_fires() {
    // The variable-rate Gaussian draw: no sign word for `k = 0`, a
    // branch on the one drawn for the rest.
    let src = r#"
impl GaussianSampler {
    /// One signed sample.
    ///
    /// Constant-time: claimed, not kept.
    pub fn sample(&mut self) -> i64 {
        let u = self.rng.next_u64() >> 1; // if the comment says `match`, no finding
        let k = magnitude(self.cdt(), u) as i64;
        if k == 0 {
            0
        } else if self.rng.next_bits(1) == 1 {
            k
        } else {
            -k
        }
    }
}
"#;
    let found = findings("crates/prng/src/sampler.rs", src);
    assert_eq!(rules(&found), ["constant-time"; 2], "{found:?}");
    assert_eq!((found[0].line, found[1].line), (9, 11));
    assert!(
        found[0].message.contains("`if` in fn `sample`"),
        "{found:?}"
    );
}

#[test]
fn a_marked_for_over_a_table_is_clean() {
    let src = r#"
/// How many thresholds of `cdt` are `≤ u`.
///
/// Constant-time: a sum over the whole table.
fn magnitude(cdt: &[u64], u: u64) -> u64 {
    let mut k = 0;
    for &c in cdt {
        k += c.wrapping_sub(u + 1) >> 63;
    }
    let _ = "if && || ?";
    k
}
"#;
    assert!(findings("crates/prng/src/sampler.rs", src).is_empty());
}

#[test]
fn unmarked_branches_and_other_searches_are_ignored() {
    let src = r#"
/// One uniform residue; its rejection loop is not constant-time, and
/// says so in prose only.
fn sample(q: u64, w: u64) -> Option<u64> {
    if w < q && q > 1 {
        return Some(w);
    }
    let cdt = [1u64, 2];
    let _ = cdt.partition_point(|&c| c <= w);
    None
}
"#;
    assert!(findings("crates/prng/src/sampler.rs", src).is_empty());
    // The same body under the marker: `if`, `&&`, `return` and the search.
    let marked = src.replace("/// says so", "/// Constant-time: no.\n/// says so");
    let found = findings("crates/prng/src/sampler.rs", &marked);
    assert_eq!(rules(&found), ["constant-time"; 4], "{found:?}");
}

// ------------------------------------------------------------ allowlist

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let src = r#"
pub fn threads() -> Option<String> {
    std::env::var("ABC_FHE_THREADS").ok()
}
"#;
    let found = findings("crates/x/src/a.rs", src);
    assert_eq!(found.len(), 1);

    let toml = r#"
[[allow]]
rule = "env-access"
path = "crates/x/src/a.rs"
contains = "ABC_FHE_THREADS"
justification = "fixture"

[[allow]]
rule = "env-access"
path = "crates/x/src/gone.rs"
justification = "matches nothing: reported stale"
"#;
    let entries = allowlist::parse(toml).expect("parse");
    assert_eq!(entries.len(), 2);
    let (reported, allowed, stale) = allowlist::apply(found, &entries);
    assert!(reported.is_empty(), "{reported:?}");
    assert_eq!(allowed.len(), 1);
    assert_eq!(allowed[0].justification, "fixture");
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("gone.rs"), "{stale:?}");
}

#[test]
fn allowlist_rejects_entries_without_justification() {
    let toml = r#"
[[allow]]
rule = "env-access"
path = "crates/x/src/a.rs"
"#;
    let errors = allowlist::parse(toml).expect_err("must fail");
    assert!(
        errors.iter().any(|e| e.contains("justification")),
        "{errors:?}"
    );
}

#[test]
fn allowlist_matches_by_path_suffix_only() {
    let src = r#"
pub fn boom() {
    panic!("nope");
}
"#;
    let found = findings("crates/gateway/src/worker.rs", src);
    let toml = r#"
[[allow]]
rule = "gateway-panic-free"
path = "src/other.rs"
justification = "wrong file: must not match"
"#;
    let entries = allowlist::parse(toml).expect("parse");
    let (reported, allowed, stale) = allowlist::apply(found, &entries);
    assert_eq!(reported.len(), 1);
    assert!(allowed.is_empty());
    assert_eq!(stale.len(), 1);
}

// ------------------------------------------------------------- ordering

#[test]
fn findings_are_sorted_and_deterministic() {
    let src = r#"
pub fn two(p: *const u64) -> u64 {
    let a = unsafe { *p };
    let b = unsafe { *p.add(1) };
    a + b
}
"#;
    let a = findings("crates/x/src/a.rs", src);
    let b = findings("crates/x/src/a.rs", src);
    assert_eq!(a, b);
    assert_eq!(a.len(), 2);
    assert!(a[0].line < a[1].line);
}
