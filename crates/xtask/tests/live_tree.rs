//! Runs over the real workspace tree: the full lint exactly as the CI
//! step does, which keeps the repo at zero findings, and the manifest
//! check that keeps `unsafe_code = "forbid"` in force for every member.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let report = xtask::run_lint(&root).expect("lint walk over the live tree");
    assert!(report.files > 50, "walk found only {} files", report.files);
    assert!(
        report.findings.is_empty(),
        "live tree has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The lines of TOML table `[header]` in `manifest`, with comments and
/// all whitespace removed (`unsafe_code = "forbid"` reads
/// `unsafe_code="forbid"`).
fn table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").replace([' ', '\t'], ""))
        .skip_while(|l| *l != format!("[{header}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The only no-unsafe gate is the compiler's: the workspace forbids
/// `unsafe_code` (an inner `allow` cannot lower a `forbid`), and every
/// member crate inherits the workspace lint table.
#[test]
fn workspace_forbids_unsafe_code() {
    let root = workspace_root();
    let rust_lints = table(&read(&root.join("Cargo.toml")), "workspace.lints.rust");
    assert!(
        rust_lints.iter().any(|l| l == r#"unsafe_code="forbid""#),
        "root Cargo.toml [workspace.lints.rust] must hold `unsafe_code = \"forbid\"`, \
         found {rust_lints:?}"
    );

    let mut members = 0;
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let lints = table(&read(&manifest), "lints");
        assert!(
            lints.iter().any(|l| l == "workspace=true"),
            "{} must inherit the workspace lints with `[lints] workspace = true`, \
             found {lints:?}",
            manifest.display()
        );
        members += 1;
    }
    assert!(members >= 10, "found only {members} member manifests");
}
