//! Records the compiler that builds this crate, for the host header of
//! `perf_snapshot`'s JSON.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=ABC_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
