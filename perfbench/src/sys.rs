//! Process and machine facts for the run header and the memory metric.

use std::hint::black_box;
use std::time::Instant;

/// Usable cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The source revision from `git rev-parse` when the checkout is a git
/// repository, else `unknown`.
pub fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A machine-speed score: millions of iterations per second of a fixed
/// integer loop, best of three, so runs on different machines can be
/// told apart.
pub fn calibration_score() -> f64 {
    const ITERS: u64 = 20_000_000;
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            ITERS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}

fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Reset the peak-RSS mark to the current RSS, so [`peak_rss_mb`]
/// covers only what follows. Returns false where the kernel refuses, in
/// which case the peak covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size in MiB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}
