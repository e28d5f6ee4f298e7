//! What the kernel knows about this process and this host, read from
//! `/proc`. Parsers take the file text so tests need no `/proc`.

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI Rust targets; reading it needs libc.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// ticks. The command name (field 2) may hold spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   <n> kB` line of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The first processor's `model name` and flag list in `/proc/cpuinfo`.
pub struct CpuInfo {
    pub model: String,
    flags: String,
}

impl CpuInfo {
    pub fn parse(cpuinfo: &str) -> Self {
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map_or("", |(_, v)| v.trim())
                .to_owned()
        };
        Self {
            model: field("model name"),
            flags: field("flags"),
        }
    }

    /// Whether `flag` is listed as a whole word.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.split_ascii_whitespace().any(|f| f == flag)
    }
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kib(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (abc bench) R) S 1 4242 4242 0 -1 4194304 9000 0 0 0 \
                    1234 56 7 8 20 0 3 0 100 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_lines_parse_to_kib() {
        let status = "Name:\tabc\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kib(status, "Vm"), None);
    }

    #[test]
    fn cpuinfo_model_and_whole_word_flags() {
        let info = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) @ 2.10GHz\n\
                    flags\t\t: fpu avx2 avx512f avx512_vnni\nprocessor\t: 1\n\
                    model name\t: other\n";
        let cpu = CpuInfo::parse(info);
        assert_eq!(cpu.model, "Intel(R) Xeon(R) @ 2.10GHz");
        assert!(cpu.has("avx512f") && cpu.has("avx2"));
        assert!(!cpu.has("avx512ifma") && !cpu.has("avx512"));
        let none = CpuInfo::parse("");
        assert!(none.model.is_empty() && !none.has("fpu"));
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
    }
}
