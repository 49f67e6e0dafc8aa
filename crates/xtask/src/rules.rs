//! The lint passes and the waiver machinery.
//!
//! Every rule reports [`Finding`]s against the stripped token stream of
//! one file (see [`crate::lexer`]); suppression happens afterwards via
//! waiver comments:
//!
//! * `// lint: allow(<rule>[, <rule>...]) — <reason>` waives findings
//!   on its own line (trailing comment) or on the next code line
//!   (standalone comment directly above the site);
//! * `// lint: allow-file(<rule>) — <reason>` waives a rule for the
//!   whole file (used where a pattern is the module's idiom, e.g.
//!   bounds-hoisted slice indexing in the fused kernels).
//!
//! A waiver without a written reason is itself a finding
//! (`waiver-syntax`): the justification is the point.

use crate::lexer::{Comment, Tok, TokKind};

/// One lint finding, pre- or post-waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (`hot-panic`, `hot-index`, `hot-alloc`,
    /// `unsafe-ledger`, `float-det`, `waiver-syntax`).
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Which passes apply to a file (driven by its workspace-relative path;
/// see [`crate::classify`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Hot module: panic-family and slice-indexing bans apply.
    pub hot: bool,
    /// Bit-identity-critical module: float-determinism ban applies.
    pub float: bool,
    /// Allocation lint applies (all first-party source files; test,
    /// bench and example trees are exempt).
    pub alloc: bool,
}

/// A parsed waiver comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rules this waiver names.
    pub rules: Vec<String>,
    /// Whole-file waiver (`allow-file`) vs. per-site (`allow`).
    pub file_level: bool,
    /// Line the waiver suppresses findings on (per-site only): the
    /// comment's own line for trailing comments, else the next line
    /// that carries any code token.
    pub covers_line: u32,
}

/// Parses every waiver in `comments`; malformed waivers come back as
/// `waiver-syntax` findings. `toks` is needed to resolve which code
/// line a standalone waiver comment covers.
pub fn parse_waivers(
    file: &str,
    comments: &[Comment],
    toks: &[Tok],
) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let text = c.text.trim_start_matches(['/', '!']).trim();
        let Some(rest) = text.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (file_level, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow") {
            (false, r)
        } else {
            findings.push(Finding {
                file: file.into(),
                line: c.line,
                rule: "waiver-syntax",
                msg: format!("unrecognized lint directive: `lint:{rest}`"),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (rules, reason) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((inside, after)) => {
                let rules: Vec<String> = inside
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                (rules, after)
            }
            None => {
                findings.push(Finding {
                    file: file.into(),
                    line: c.line,
                    rule: "waiver-syntax",
                    msg: "waiver must name its rule(s): `lint: allow(<rule>) — <reason>`".into(),
                });
                continue;
            }
        };
        let reason = reason
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim();
        if rules.is_empty() || reason.is_empty() {
            findings.push(Finding {
                file: file.into(),
                line: c.line,
                rule: "waiver-syntax",
                msg: "waiver needs a rule list and a written reason: \
                      `lint: allow(<rule>) — <reason>`"
                    .into(),
            });
            continue;
        }
        // Trailing comment waives its own line; a standalone comment
        // waives the next line that carries code.
        let covers_line = if toks.iter().any(|t| t.line == c.line) {
            c.line
        } else {
            toks.iter()
                .map(|t| t.line)
                .filter(|&l| l > c.end_line)
                .min()
                .unwrap_or(c.end_line)
        };
        waivers.push(Waiver {
            rules,
            file_level,
            covers_line,
        });
    }
    (waivers, findings)
}

/// Applies `waivers` to `findings`, dropping every suppressed finding.
/// `waiver-syntax` findings are never waivable.
pub fn apply_waivers(findings: Vec<Finding>, waivers: &[Waiver]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            if f.rule == "waiver-syntax" {
                return true;
            }
            !waivers.iter().any(|w| {
                w.rules.iter().any(|r| r == f.rule) && (w.file_level || w.covers_line == f.line)
            })
        })
        .collect()
}

/// Keywords that can directly precede a `[` without it being an index
/// expression (`&mut [f64]`, `dyn [..]`-ish type positions, `return [..]`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "fn", "for", "if",
    "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static",
    "struct", "super", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Macro names whose invocation panics (debug_assert* excluded: they
/// compile out of release hot paths by design).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Pass 1 — hot-path panic & indexing hygiene. In hot modules flags
/// `.unwrap()` / `.expect(...)`, panicking macros, and direct slice
/// indexing (`expr[...]`), all of which can abort a serving thread or
/// hide an unhoisted bounds check in a per-sample loop.
pub fn hot_panic_pass(file: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let after_dot = i > 0 && toks[i - 1].is_punct('.');
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if after_dot && called {
                out.push(Finding {
                    file: file.into(),
                    line: t.line,
                    rule: "hot-panic",
                    msg: format!(
                        "`.{}()` in a hot module: return a typed error or waive with a \
                         written invariant",
                        t.text
                    ),
                });
            }
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "hot-panic",
                msg: format!("`{}!` in a hot module", t.text),
            });
        }
    }
    out
}

/// Pass 1b — direct slice indexing in hot modules: `ident[`, `)[`, `][`
/// are index expressions; every other `[` (types, array literals,
/// attributes, macro brackets) has punctuation or a keyword before it.
pub fn hot_index_pass(file: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct('[') || i == 0 {
            continue;
        }
        let p = &toks[i - 1];
        let indexes = match p.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
            TokKind::Punct => p.is_punct(')') || p.is_punct(']'),
            // Tuple-field access: `pair.0[i]` — a number subscripted
            // only when it is itself a field projection.
            TokKind::Num => i >= 2 && toks[i - 2].is_punct('.'),
            _ => false,
        };
        if indexes {
            out.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "hot-index",
                msg: "direct slice indexing in a hot module (panics on out-of-bounds; \
                      hoist the bounds check or waive with the invariant)"
                    .into(),
            });
        }
    }
    out
}

/// Allocation calls that defeat the `*_into` / scratch-reuse contract.
fn alloc_call(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
    let path_head = prev_path.then(|| toks.get(i.saturating_sub(3))).flatten();
    let after_dot = i > 0 && toks[i - 1].is_punct('.');
    let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    let banged = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
    match t.text.as_str() {
        "new" | "with_capacity" if prev_path && called => {
            match path_head.map(|h| h.text.as_str()) {
                Some("Vec" | "Box" | "String" | "VecDeque" | "HashMap" | "BTreeMap") => {
                    Some("constructor allocates")
                }
                _ => None,
            }
        }
        "from" if prev_path && called => match path_head.map(|h| h.text.as_str()) {
            Some("String") => Some("String::from allocates"),
            _ => None,
        },
        "vec" | "format" if banged => Some("allocating macro"),
        "to_vec" | "to_owned" | "to_string" | "collect" | "cloned" if after_dot && called => {
            Some("allocating adapter")
        }
        // `.clone()` is flagged; `Arc::clone(&x)` (refcount bump, no
        // heap traffic) deliberately is not.
        "clone" if after_dot && called => Some("clone allocates"),
        _ => None,
    }
}

/// Pass 2 — allocation inside hot-loop-shaped functions: any function
/// named `*_into` / `*_in_place`, or taking a scratch parameter, is
/// part of the allocation-free-after-warm-up contract (see README
/// "Performance"), so allocating calls inside it are findings.
pub fn hot_alloc_pass(file: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        // Signature: from after the name to the body `{` (or `;` for
        // body-less trait methods).
        let mut j = i + 2;
        let mut body_start = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                body_start = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(body_start) = body_start else {
            i = j + 1;
            continue;
        };
        let sig = &toks[i + 2..body_start];
        let scratch_taking = sig.iter().any(|t| {
            t.kind == TokKind::Ident && (t.text == "scratch" || t.text.ends_with("Scratch"))
        });
        let in_contract =
            name.text.ends_with("_into") || name.text.ends_with("_in_place") || scratch_taking;
        // Body extent via brace matching.
        let mut depth = 0usize;
        let mut body_end = toks.len();
        for (k, t) in toks.iter().enumerate().skip(body_start) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    body_end = k;
                    break;
                }
            }
        }
        if in_contract {
            for k in body_start..body_end {
                if let Some(why) = alloc_call(toks, k) {
                    out.push(Finding {
                        file: file.into(),
                        line: toks[k].line,
                        rule: "hot-alloc",
                        msg: format!(
                            "`{}` inside `{}` ({}): scratch-contract functions must be \
                             allocation-free after warm-up",
                            toks[k].text, name.text, why
                        ),
                    });
                }
            }
        }
        // Continue scanning after the signature; nested fns inside the
        // body are found by the normal scan (i advances token by token
        // through bodies of non-contract fns).
        i = body_start + 1;
    }
    out
}

/// Pass 4 — float determinism: in bit-identity-critical kernel/lane
/// modules, `mul_add` (FMA contracts the rounding step the staged
/// reference performs) and `as f32` / `as f64` casts (precision changes
/// outside the approved `Scalar` conversion helpers) are banned.
/// `impl Scalar for ...` and `trait Scalar` blocks are exempt — those
/// *are* the approved helpers.
pub fn float_det_pass(file: &str, toks: &[Tok]) -> Vec<Finding> {
    // Token ranges of `impl Scalar for ...` / `trait Scalar` bodies.
    let mut exempt: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let headish = (t.is_ident("impl") || t.is_ident("trait"))
            && toks
                .iter()
                .skip(i + 1)
                .take(8)
                .take_while(|t| !t.is_punct('{'))
                .any(|t| t.is_ident("Scalar"));
        if !headish {
            continue;
        }
        let mut depth = 0usize;
        for (k, t) in toks.iter().enumerate().skip(i) {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    exempt.push((i, k));
                    break;
                }
            }
        }
    }
    let exempted = |i: usize| exempt.iter().any(|&(a, b)| a <= i && i <= b);

    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if exempted(i) {
            continue;
        }
        if t.is_ident("mul_add") {
            out.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "float-det",
                msg: "`mul_add` fuses the multiply-add rounding step: bit-identity with the \
                      staged reference expressions breaks"
                    .into(),
            });
        }
        if t.is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("f32") || n.is_ident("f64"))
        {
            let target = &toks[i + 1].text;
            out.push(Finding {
                file: file.into(),
                line: t.line,
                rule: "float-det",
                msg: format!(
                    "`as {target}` cast in a bit-identity-critical module: use the approved \
                     `Scalar` conversion helpers, or waive exact integer→float casts"
                ),
            });
        }
    }
    out
}
