//! The host header every result carries: which machine, which commit,
//! which compiler, and which `ABC_FHE_*` overrides were taken away.

use crate::json::Value;
use crate::procfs::CpuInfo;
use std::process::Command;

/// Removes every `ABC_FHE_*` variable from this process's environment,
/// so the library runs its own default kernel and thread policy, and
/// returns the names removed. Call before any thread starts.
pub fn strip_library_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ABC_FHE_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// First line of a command's standard output, or "unknown" (the
/// pipeline's checkout is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn header(stripped: &[String]) -> Value {
    let cpu = CpuInfo::parse(&std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("cpu_model", Value::Str(cpu.model.clone())),
        ("avx512f", Value::Bool(cpu.has("avx512f"))),
        ("avx512ifma", Value::Bool(cpu.has("avx512ifma"))),
        ("nproc", Value::Num(nproc as f64)),
        (
            "commit",
            Value::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::Str(first_line("rustc", &["--version"]))),
        (
            "stripped_env",
            Value::Arr(stripped.iter().map(Value::str).collect()),
        ),
    ])
}
