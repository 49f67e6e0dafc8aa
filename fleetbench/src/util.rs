//! Small measurement helpers: the process CPU clock and peak RSS from
//! `/proc`, exact quantiles, the machine stamp, and a minimal JSON
//! writer (the benchmark depends on nothing but the repository's own
//! crates).

use std::fmt::Write as _;

/// Nanoseconds of CPU time consumed by every thread of this process
/// (sum of `/proc/self/task/*/schedstat` run times). Threads that have
/// already exited are not counted; the fleet's executors are persistent.
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .map(|e| read_schedstat(&e.path().join("schedstat")))
        .sum()
}

fn read_schedstat(path: &std::path::Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Exact quantile of `v` (sorted in place) by the nearest-rank rule;
/// `0` for an empty sample.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a small float sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Runs `program args…` and returns its trimmed standard output, or
/// `"unknown"`. `output()` waits for the child to exit. Git may not
/// search above the working directory, so a checkout without its own
/// `.git` stamps `unknown` instead of some enclosing repository's commit.
fn command_line(program: &str, args: &[&str]) -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build this run measured, one `key: value` per line.
pub fn machine_stamp(seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"]);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        ("rustflags", env!("FLEETBENCH_RUSTFLAGS").to_string()),
        ("commit", commit),
        ("seed", seed.to_string()),
    ]
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with exactly the keys the contract
/// names.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Shortest round-trip decimal form, always with a digit after the
/// point so every value parses as a JSON number.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('E') {
        format!("{v:.12e}")
    } else {
        s
    }
}
