//! Minimal benchmark harness (offline stand-in for criterion).
//!
//! The container this workspace builds in has no registry access, so the
//! bench targets use this hand-rolled harness: auto-calibrated iteration
//! counts, multiple timed samples, median/mean/min reporting and a JSON
//! dump for the perf-trajectory baselines checked in at the repo root
//! (`BENCH_*.json`).
//!
//! Environment knobs:
//!
//! * `BENCH_SAMPLE_MS` — target wall-clock per sample in milliseconds
//!   (default 50; CI smoke runs set a small value);
//! * `BENCH_SAMPLES` — samples per benchmark (default 7);
//! * `BENCH_FILTER` — substring filter on benchmark names: non-matching
//!   benchmarks are skipped (recorded as nothing, returned as NaN), so a
//!   CI smoke run can execute a single benchmark out of a suite. Bench
//!   targets can pre-check [`Harness::enabled`] to skip expensive setup
//!   for filtered-out benchmarks.

use std::hint::black_box;
use std::time::Instant;

pub use std::hint::black_box as bb;

/// One benchmark's timing summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
}

/// Collects benchmark records and renders/report/serialises them.
#[derive(Debug, Default)]
pub struct Harness {
    records: Vec<BenchRecord>,
    /// Explicit per-sample budget override (else `BENCH_SAMPLE_MS`).
    sample_ms: Option<f64>,
    /// Explicit sample-count override (else `BENCH_SAMPLES`).
    samples: Option<usize>,
    /// Name-substring filter (else `BENCH_FILTER`); `Some` skips
    /// non-matching benchmarks.
    filter: Option<String>,
}

fn sample_ms() -> f64 {
    std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50.0)
}

fn n_samples() -> usize {
    std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
        .max(1)
}

fn env_filter() -> Option<String> {
    std::env::var("BENCH_FILTER").ok().filter(|f| !f.is_empty())
}

impl Harness {
    /// Empty harness; timing knobs and the name filter come from the
    /// environment (`BENCH_SAMPLE_MS`, `BENCH_SAMPLES`, `BENCH_FILTER`).
    pub fn new() -> Self {
        Harness {
            filter: env_filter(),
            ..Harness::default()
        }
    }

    /// Harness with explicit timing knobs, fully environment-independent
    /// (neither the timing variables nor `BENCH_FILTER` apply — explicit
    /// configuration means explicit behaviour).
    pub fn with_config(sample_ms: f64, samples: usize) -> Self {
        Harness {
            sample_ms: Some(sample_ms),
            samples: Some(samples.max(1)),
            ..Harness::default()
        }
    }

    /// Whether a `BENCH_FILTER` restriction is in effect — baseline
    /// writers check this so a filtered run (with NaN ratios for the
    /// skipped benchmarks) never overwrites a committed baseline.
    pub fn filter_active(&self) -> bool {
        self.filter.is_some()
    }

    /// Whether `name` passes the `BENCH_FILTER` substring filter — lets
    /// bench targets skip expensive setup for filtered-out benchmarks.
    pub fn enabled(&self, name: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| name.contains(f))
    }

    /// Times `f`, auto-calibrating the per-sample iteration count so one
    /// sample takes roughly `BENCH_SAMPLE_MS`, and records the summary.
    /// Returns the median ns/iter for ad-hoc comparisons (NaN when the
    /// benchmark is filtered out by `BENCH_FILTER`).
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) -> f64 {
        if !self.enabled(name) {
            eprintln!("{name:<48} skipped (BENCH_FILTER)");
            return f64::NAN;
        }
        // Calibration: run once (warm-up), then scale to the target budget.
        let t0 = Instant::now();
        black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1) as f64;
        let budget_ns = self.sample_ms.unwrap_or_else(sample_ms) * 1e6;
        let iters = ((budget_ns / once_ns).ceil() as u64).clamp(1, 1_000_000);

        let samples = self.samples.unwrap_or_else(n_samples);
        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter.sort_by(f64::total_cmp);
        let median_ns = per_iter[per_iter.len() / 2];
        let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let min_ns = per_iter[0];
        eprintln!("{name:<48} {:>12}/iter (x{iters} iters)", fmt_ns(median_ns));
        self.records.push(BenchRecord {
            name: name.to_string(),
            iters,
            samples,
            median_ns,
            mean_ns,
            min_ns,
        });
        median_ns
    }

    /// Recorded results so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Renders the summary table to stdout.
    pub fn report(&self) {
        println!(
            "\n{:<48} {:>14} {:>14} {:>14}",
            "benchmark", "median", "mean", "min"
        );
        for r in &self.records {
            println!(
                "{:<48} {:>14} {:>14} {:>14}",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns)
            );
        }
    }

    /// Serialises all records (plus free-form metadata pairs) as JSON.
    pub fn to_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in metadata {
            out.push_str(&format!("  {}: {},\n", json_str(k), json_str(v)));
        }
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"iters\": {}, \"samples\": {}, \
                 \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}}}{}\n",
                json_str(&r.name),
                r.iters,
                r.samples,
                r.median_ns,
                r.mean_ns,
                r.min_ns,
                if i + 1 == self.records.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON dump to `path`.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure (bench binaries want loud failures).
    pub fn write_json(&self, path: &str, metadata: &[(&str, String)]) {
        std::fs::write(path, self.to_json(metadata)).expect("write bench json");
        eprintln!("wrote {path}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_and_reports() {
        let mut h = Harness::with_config(1.0, 3);
        let mut acc = 0u64;
        let med = h.bench("noop_add", || {
            acc = acc.wrapping_add(1);
            acc
        });
        assert!(med > 0.0);
        assert_eq!(h.records().len(), 1);
        assert_eq!(h.records()[0].samples, 3);
        let json = h.to_json(&[("host", "test".to_string())]);
        assert!(json.contains("\"noop_add\""));
        assert!(json.contains("\"host\": \"test\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut h = Harness {
            filter: Some("keep".to_string()),
            ..Harness::with_config(1.0, 2)
        };
        assert!(h.enabled("keep_this"));
        assert!(!h.enabled("drop_this"));
        let skipped = h.bench("drop_this", || 1);
        assert!(skipped.is_nan());
        let ran = h.bench("keep_this", || 1);
        assert!(ran.is_finite());
        assert_eq!(h.records().len(), 1);
        assert_eq!(h.records()[0].name, "keep_this");
    }
}
