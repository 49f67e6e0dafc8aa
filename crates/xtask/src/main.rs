//! CLI for the repo-native static analysis. See the library docs
//! (`xtask` crate) and README "Static analysis" for the rule catalogue.
//!
//! ```text
//! cargo run -p xtask -- lint             # lint, exit 1 on findings
//! cargo run -p xtask -- lint --root DIR  # lint another workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "lint" if cmd.is_none() => cmd = Some("lint"),
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = PathBuf::from(dir),
                    None => {
                        eprintln!("--root needs a directory argument");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: cargo run -p xtask -- lint [--root DIR]");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if cmd != Some("lint") {
        eprintln!("usage: cargo run -p xtask -- lint [--root DIR]");
        return ExitCode::from(2);
    }

    // Accept being launched from a crate directory too: walk up to the
    // first directory holding a `crates/` tree.
    let mut base = root.canonicalize().unwrap_or(root);
    while !base.join("crates").is_dir() {
        match base.parent() {
            Some(p) => base = p.to_path_buf(),
            None => {
                eprintln!("no `crates/` tree found above the starting directory");
                return ExitCode::from(2);
            }
        }
    }

    match xtask::run_lint(&base) {
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            println!(
                "xtask lint: {} files, {} finding{}",
                report.files,
                report.findings.len(),
                if report.findings.len() == 1 { "" } else { "s" },
            );
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask lint: i/o error: {e}");
            ExitCode::from(2)
        }
    }
}
