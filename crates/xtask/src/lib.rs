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
//! 3. **unsafe-ledger** — every `unsafe` site carries a `// SAFETY:`
//!    justification and appears in the committed `UNSAFE_LEDGER.md`;
//! 4. **float-det** — bit-identity-critical kernel/lane modules use no
//!    `mul_add` and no `as f32` / `as f64` casts outside the approved
//!    `Scalar` conversion helpers.
//!
//! Sites with a reviewed justification are waived in source:
//! `// lint: allow(<rule>) — <reason>` (same line or the line above) or
//! `// lint: allow-file(<rule>) — <reason>` for a whole file. Test code
//! (`#[cfg(test)]` items; `tests/`, `benches/`, `examples/` trees) is
//! exempt from the hot-path rules but still feeds the unsafe ledger.

pub mod ledger;
pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use ledger::UnsafeSite;
pub use rules::{FileClass, Finding};

use ledger::{render_ledger, unsafe_pass};
use rules::{
    apply_waivers, float_det_pass, hot_alloc_pass, hot_index_pass, hot_panic_pass, parse_waivers,
};

/// Committed ledger filename at the workspace root.
pub const LEDGER_FILE: &str = "UNSAFE_LEDGER.md";

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
    /// Full unsafe inventory (documented sites included).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Files scanned.
    pub files: usize,
    /// The regenerated ledger markdown.
    pub ledger: String,
}

/// Lints one file's source text. Exposed for the fixture tests; the
/// workspace driver is [`run_lint`].
pub fn lint_source(rel: &str, src: &str, class: FileClass) -> (Vec<Finding>, Vec<UnsafeSite>) {
    let lexed = lexer::lex(src);
    let toks = lexer::strip_cfg_test(lexed.toks);
    let lines: Vec<&str> = src.lines().collect();

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
    let (sites, unsafe_findings) = unsafe_pass(rel, &toks, &lexed.comments, &lines);
    raw.extend(unsafe_findings);
    findings.extend(apply_waivers(raw, &waivers));
    findings.sort_by(|a, b| (a.line, a.rule, &a.msg).cmp(&(b.line, b.rule, &b.msg)));
    findings.dedup();
    (findings, sites)
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
/// holding the top-level `Cargo.toml` and `crates/`). When
/// `write_ledger` is set the regenerated inventory is written to
/// [`LEDGER_FILE`]; otherwise a difference from the committed ledger is
/// a finding.
pub fn run_lint(root: &Path, write_ledger: bool) -> std::io::Result<Report> {
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
        let (findings, sites) = lint_source(&rel, &src, classify(&rel));
        report.findings.extend(findings);
        report.unsafe_sites.extend(sites);
        report.files += 1;
    }

    report.ledger = render_ledger(&report.unsafe_sites);
    let ledger_path = root.join(LEDGER_FILE);
    if write_ledger {
        std::fs::write(&ledger_path, &report.ledger)?;
    } else {
        let committed = std::fs::read_to_string(&ledger_path).unwrap_or_default();
        if committed != report.ledger {
            report.findings.push(Finding {
                file: LEDGER_FILE.into(),
                line: 1,
                rule: "unsafe-ledger",
                msg: format!(
                    "{LEDGER_FILE} does not match the regenerated unsafe inventory \
                     ({} sites); run `cargo run -p xtask -- lint --write-ledger` \
                     and review the diff",
                    report.unsafe_sites.len()
                ),
            });
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}
