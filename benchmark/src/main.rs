//! See `benchmark/README.md` and the crate documentation.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    abc_benchmark::cli(&args)
}
