//! An idle fan-out costs no CPU: after a pass, the worker and the caller
//! wait in a bounded window and then park, so the process's CPU time
//! over the next second stays under a millisecond.
//!
//! Its own test binary, so no other test's threads run in the process
//! while the second is counted.

use abc_transform::fanout;
use std::thread;
use std::time::{Duration, Instant};

/// This process's CPU time so far, all threads, in milliseconds, and the
/// resolution of the reading. Each task's `sched` file gives its run
/// time to the nanosecond where the kernel has one; otherwise
/// `/proc/self/stat` gives user and system time in 10 ms ticks.
fn cpu_ms() -> Option<(f64, f64)> {
    let mut precise = 0.0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let sched = std::fs::read_to_string(task.ok()?.path().join("sched"));
        let Some(ms) = sched.ok().and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("se.sum_exec_runtime"))?;
            line.rsplit(':').next()?.trim().parse::<f64>().ok()
        }) else {
            return ticks_ms().map(|ms| (ms, 10.0));
        };
        precise += ms;
    }
    Some((precise, 0.0))
}

/// User plus system time of `/proc/self/stat` (fields 14 and 15, in
/// `USER_HZ` = 100 ticks a second), in milliseconds.
fn ticks_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces: count from its `)`.
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

#[test]
fn an_idle_fan_out_parks_within_a_millisecond_of_cpu() {
    if cpu_ms().is_none() {
        return; // No `/proc`: nothing to read the CPU time from.
    }
    // A pass the worker joins: each chunk spins until both participants
    // have one, or 100 ms.
    let caller = thread::current().id();
    let mut joined = false;
    for _ in 0..20 {
        let workers = std::sync::atomic::AtomicUsize::new(0);
        fanout::run(2, 2, &|_| {
            if thread::current().id() != caller {
                workers.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            let start = Instant::now();
            while workers.load(std::sync::atomic::Ordering::Relaxed) == 0
                && start.elapsed() < Duration::from_millis(100)
            {
                std::hint::spin_loop();
            }
        });
        if workers.into_inner() != 0 {
            joined = true;
            break;
        }
    }
    assert!(joined, "the worker joined none of 20 passes");
    // Past both bounded waits, so the second counts only the parked
    // state.
    thread::sleep(Duration::from_millis(10));
    let (before, resolution) = cpu_ms().expect("read above");
    thread::sleep(Duration::from_secs(1));
    let (after, _) = cpu_ms().expect("read above");
    assert!(
        after - before <= 1.0 + resolution,
        "{:.3} ms of CPU in the second after a pass (resolution {resolution} ms)",
        after - before
    );
}
