//! # xtask — repo-native static analysis
//!
//! Offline, dependency-free linter (`cargo run -p xtask -- lint`)
//! enforcing the three load-bearing contracts the serving stack is
//! built on (see README "Static analysis"):
//!
//! 1. **hot-panic / hot-index** — designated hot modules (streaming /
//!    fleet / DSP-kernel / SVM-kernel serving paths) stay free of
//!    panic-family calls and unhoisted slice indexing;
//! 2. **hot-alloc** — `*_into` / `*_in_place` / scratch-taking
//!    functions stay allocation-free after warm-up;
//! 3. **float-det** — bit-identity-critical kernel/lane modules use no
//!    `mul_add` and no `as f32` / `as f64` casts outside the approved
//!    `Scalar` conversion helpers.
//!
//! No `unsafe` is a compiler gate, not a rule here: the workspace lint
//! `unsafe_code = "forbid"` rejects every site, and the `live_tree`
//! test `workspace_forbids_unsafe_code` pins that every member inherits
//! it.
//!
//! Sites with a reviewed justification are waived in source:
//! `// lint: allow(<rule>) — <reason>` (same line or the line above) or
//! `// lint: allow-file(<rule>) — <reason>` for a whole file. Test code
//! (`#[cfg(test)]` items; `tests/`, `benches/`, `examples/` trees) is
//! exempt from the hot-path rules.

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{FileClass, Finding};

use rules::{
    apply_waivers, float_det_pass, hot_alloc_pass, hot_index_pass, hot_panic_pass, parse_waivers,
};

/// Hot modules: the allocation-free, panic-free serving paths
/// (streaming ingest → extraction kernels → fleet flush → SVM kernel).
const HOT_MODULES: &[&str] = &[
    "crates/dsp/src/kernels.rs",
    "crates/dsp/src/lanes.rs",
    "crates/dsp/src/qrs.rs",
    "crates/dsp/src/filter.rs",
    "crates/dsp/src/stream.rs",
    "crates/core/src/fleet.rs",
    "crates/core/src/stream.rs",
    "crates/core/src/clock.rs",
    "crates/core/src/kernels.rs",
    "crates/svm/src/kernel.rs",
    "crates/svm/src/kernel/block.rs",
];

/// Bit-identity-critical modules: the fused/lane DSP kernels whose
/// expression ordering is pinned bit-for-bit against staged references.
const FLOAT_MODULES: &[&str] = &[
    "crates/dsp/src/kernels.rs",
    "crates/dsp/src/lanes.rs",
    "crates/dsp/src/qrs.rs",
    "crates/dsp/src/filter.rs",
];

/// Classifies a workspace-relative path (always `/`-separated) into the
/// passes that apply to it.
pub fn classify(rel: &str) -> FileClass {
    let testish =
        rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/");
    FileClass {
        hot: HOT_MODULES.contains(&rel),
        float: FLOAT_MODULES.contains(&rel),
        alloc: !testish,
    }
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Post-waiver findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
}

/// Lints one file's source text. Exposed for the fixture tests; the
/// workspace driver is [`run_lint`].
pub fn lint_source(rel: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let toks = lexer::strip_cfg_test(lexed.toks);

    let (waivers, mut findings) = parse_waivers(rel, &lexed.comments, &toks);
    let mut raw = Vec::new();
    if class.hot {
        raw.extend(hot_panic_pass(rel, &toks));
        raw.extend(hot_index_pass(rel, &toks));
    }
    if class.alloc {
        raw.extend(hot_alloc_pass(rel, &toks));
    }
    if class.float {
        raw.extend(float_det_pass(rel, &toks));
    }
    findings.extend(apply_waivers(raw, &waivers));
    findings.sort_by(|a, b| (a.line, a.rule, &a.msg).cmp(&(b.line, b.rule, &b.msg)));
    findings.dedup();
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // `fixtures/` holds deliberate rule violations for the
            // linter's own tests; `target/` is build output.
            if matches!(name, "target" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every pass over the workspace rooted at `root` (the directory
/// holding the top-level `Cargo.toml` and `crates/`).
pub fn run_lint(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files)?;

    let mut report = Report::default();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(path)?;
        report
            .findings
            .extend(lint_source(&rel, &src, classify(&rel)));
        report.files += 1;
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::{FLOAT_MODULES, HOT_MODULES};
    use std::path::Path;

    /// A renamed or moved module would silently drop out of the
    /// hot-path and float-determinism rules.
    #[test]
    fn hot_and_float_modules_exist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_MODULES.iter().chain(FLOAT_MODULES) {
            assert!(
                root.join(rel).is_file(),
                "{rel} is listed in HOT_MODULES/FLOAT_MODULES but does not exist"
            );
        }
    }
}
