//! Shared harness for the paper-regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale tiny|lite|paper   dataset preset (default: lite)
//! --seed N                  master seed (default: 42)
//! --csv DIR                 also dump CSV files into DIR
//! --workers N               flush executors for fleet binaries
//!                           (default: size to the machine)
//! --tick-ms N               serving-clock cadence for the fleet tick
//!                           scenario (fleet_sim; default 5)
//! --overload X              offered load as a multiple of per-tick
//!                           capacity in the tick scenario (default 2.0)
//! ```

use ecg_sim::dataset::{DatasetSpec, Scale};
use seizure_core::assemble::{build_feature_matrix_with_stats, AssembleStats};
use std::io::Write as _;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Dataset preset.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Optional CSV output directory.
    pub csv_dir: Option<String>,
    /// Flush executors for the fleet binaries
    /// ([`seizure_core::fleet::FleetConfig::workers`]); `None` sizes to
    /// the machine. Ignored by binaries without a fleet stage.
    pub workers: Option<usize>,
    /// Serving-clock cadence in milliseconds for the fleet tick
    /// scenario ([`seizure_core::clock::TickConfig`]); `None` keeps the
    /// binary's default. Ignored by binaries without a tick stage.
    pub tick_ms: Option<u64>,
    /// Offered load for the tick scenario as a multiple of per-tick
    /// classification capacity (e.g. `2.0` = twice what one tick can
    /// decide); `None` keeps the binary's default.
    pub overload: Option<f64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            scale: Scale::Lite,
            seed: 42,
            csv_dir: None,
            workers: None,
            tick_ms: None,
            overload: None,
        }
    }
}

impl RunConfig {
    /// Parses `std::env::args()`-style arguments (the first element is the
    /// program name and is skipped). Unknown flags abort with a message.
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments — these are CLI entry points, so a
    /// loud failure with usage text is the desired behaviour.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> RunConfig {
        let mut cfg = RunConfig::default();
        let mut it = args.into_iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    cfg.scale = match v.as_str() {
                        "tiny" => Scale::Tiny,
                        "lite" => Scale::Lite,
                        "paper" => Scale::Paper,
                        other => panic!("unknown scale `{other}` (tiny|lite|paper)"),
                    };
                }
                "--seed" => {
                    cfg.seed = it
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("--seed must be an integer");
                }
                "--csv" => {
                    cfg.csv_dir = Some(it.next().expect("--csv needs a directory"));
                }
                "--workers" => {
                    let n: usize = it
                        .next()
                        .expect("--workers needs a value")
                        .parse()
                        .expect("--workers must be an integer");
                    assert!(
                        n >= 1,
                        "--workers must be >= 1 (omit to size to the machine)"
                    );
                    cfg.workers = Some(n);
                }
                "--tick-ms" => {
                    let n: u64 = it
                        .next()
                        .expect("--tick-ms needs a value")
                        .parse()
                        .expect("--tick-ms must be an integer");
                    assert!(n >= 1, "--tick-ms must be >= 1");
                    cfg.tick_ms = Some(n);
                }
                "--overload" => {
                    let x: f64 = it
                        .next()
                        .expect("--overload needs a value")
                        .parse()
                        .expect("--overload must be a number");
                    assert!(
                        x.is_finite() && x > 0.0,
                        "--overload must be a positive finite multiple of capacity"
                    );
                    cfg.overload = Some(x);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale tiny|lite|paper  --seed N  --csv DIR  --workers N  \
                         --tick-ms N  --overload X"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}`"),
            }
        }
        cfg
    }

    /// Builds (and reports on) the feature dataset for this run.
    pub fn build_dataset(&self) -> (ecg_features::FeatureMatrix, AssembleStats) {
        let spec = DatasetSpec::new(self.scale, self.seed);
        eprintln!(
            "dataset: {:?}, {} sessions, {:.1} h, {} seizures (seed {})",
            self.scale,
            spec.sessions.len(),
            spec.total_hours(),
            spec.n_seizures(),
            self.seed
        );
        let t0 = std::time::Instant::now();
        let (m, stats) = build_feature_matrix_with_stats(&spec);
        eprintln!(
            "extracted {} windows ({} positive, {} dropped) in {:.1}s",
            m.n_rows(),
            stats.positives,
            stats.windows_dropped,
            t0.elapsed().as_secs_f64()
        );
        (m, stats)
    }
}

/// Renders an ASCII table with aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut width: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (j, cell) in r.iter().enumerate().take(ncol) {
            width[j] = width[j].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &width {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&width) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    line(&mut out);
    for r in rows {
        out.push('|');
        for (c, w) in r.iter().zip(&width) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

/// Writes a CSV file (headers + rows) into `dir/name.csv`, creating the
/// directory if necessary. I/O errors abort: these are experiment dumps.
///
/// # Panics
///
/// Panics on I/O failure.
pub fn write_csv(dir: &str, name: &str, headers: &[&str], rows: &[Vec<String>]) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = format!("{dir}/{name}.csv");
    let mut f = std::fs::File::create(&path).expect("create csv file");
    writeln!(f, "{}", headers.join(",")).expect("write csv header");
    for r in rows {
        writeln!(f, "{}", r.join(",")).expect("write csv row");
    }
    eprintln!("wrote {path}");
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        "n/a".to_string()
    } else {
        format!("{:.1}", 100.0 * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        std::iter::once("prog".to_string())
            .chain(s.iter().map(|v| v.to_string()))
            .collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = RunConfig::parse(args(&[]));
        assert_eq!(d, RunConfig::default());
        assert_eq!(d.workers, None);
        let c = RunConfig::parse(args(&[
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--csv",
            "/tmp/x",
            "--workers",
            "2",
            "--tick-ms",
            "3",
            "--overload",
            "2.5",
        ]));
        assert_eq!(c.scale, Scale::Tiny);
        assert_eq!(c.seed, 7);
        assert_eq!(c.csv_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(c.workers, Some(2));
        assert_eq!(c.tick_ms, Some(3));
        assert_eq!(c.overload, Some(2.5));
    }

    #[test]
    #[should_panic(expected = "--tick-ms must be >= 1")]
    fn parse_rejects_zero_tick() {
        let _ = RunConfig::parse(args(&["--tick-ms", "0"]));
    }

    #[test]
    #[should_panic(expected = "--overload must be a positive")]
    fn parse_rejects_nonpositive_overload() {
        let _ = RunConfig::parse(args(&["--overload", "0"]));
    }

    #[test]
    #[should_panic(expected = "--workers must be >= 1")]
    fn parse_rejects_zero_workers() {
        let _ = RunConfig::parse(args(&["--workers", "0"]));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn parse_rejects_unknown() {
        let _ = RunConfig::parse(args(&["--bogus"]));
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn parse_rejects_bad_scale() {
        let _ = RunConfig::parse(args(&["--scale", "huge"]));
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["Kernel", "GM"],
            &[
                vec!["Linear".into(), "72.9".into()],
                vec!["Quadratic".into(), "86.8".into()],
            ],
        );
        assert!(t.contains("| Kernel    | GM   |"));
        assert!(t.contains("| Quadratic | 86.8 |"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.868), "86.8");
        assert_eq!(pct(f64::NAN), "n/a");
    }
}
