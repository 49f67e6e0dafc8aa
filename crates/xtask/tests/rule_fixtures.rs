//! One positive/negative fixture pair per rule, linted through the same
//! `lint_source` entry point the live walk uses. Positive fixtures must
//! produce at least one finding of their rule; negative fixtures must be
//! clean under the same (maximally strict) file classification.

use xtask::{lint_source, FileClass};

const ALL: FileClass = FileClass {
    hot: true,
    float: true,
    alloc: true,
};

fn findings(src: &str) -> Vec<xtask::Finding> {
    lint_source("fixture.rs", src, ALL)
}

fn rules(src: &str) -> Vec<&'static str> {
    findings(src).into_iter().map(|f| f.rule).collect()
}

macro_rules! fixture {
    ($name:literal, $side:literal) => {
        include_str!(concat!("../fixtures/", $name, "/", $side, ".rs"))
    };
}

#[test]
fn hot_panic_pair() {
    let hits = rules(fixture!("hot-panic", "pos"));
    assert!(
        hits.iter().filter(|r| **r == "hot-panic").count() >= 5,
        "{hits:?}"
    );
    let clean = findings(fixture!("hot-panic", "neg"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn hot_index_pair() {
    let hits = rules(fixture!("hot-index", "pos"));
    assert!(
        hits.iter().filter(|r| **r == "hot-index").count() >= 3,
        "{hits:?}"
    );
    let clean = findings(fixture!("hot-index", "neg"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn hot_alloc_pair() {
    let hits = rules(fixture!("hot-alloc", "pos"));
    assert!(
        hits.iter().filter(|r| **r == "hot-alloc").count() >= 3,
        "{hits:?}"
    );
    let clean = findings(fixture!("hot-alloc", "neg"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn float_det_pair() {
    let hits = rules(fixture!("float-det", "pos"));
    assert!(
        hits.iter().filter(|r| **r == "float-det").count() >= 3,
        "{hits:?}"
    );
    let clean = findings(fixture!("float-det", "neg"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn waiver_pair() {
    let hits = findings(fixture!("waiver", "pos"));
    // Every malformed waiver is itself a finding, and the panics it
    // failed to waive still surface.
    assert!(
        hits.iter().filter(|f| f.rule == "waiver-syntax").count() >= 4,
        "{hits:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.rule == "waiver-syntax" && f.msg.contains("`hot-panik`")),
        "a misspelt rule name is a finding: {hits:?}"
    );
    assert!(
        hits.iter().filter(|f| f.rule == "hot-panic").count() >= 3,
        "malformed waivers must not suppress: {hits:?}"
    );
    let clean = findings(fixture!("waiver", "neg"));
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn rules_only_fire_for_their_file_class() {
    let cold = FileClass {
        hot: false,
        float: false,
        alloc: false,
    };
    for name in ["hot-panic", "hot-index", "hot-alloc", "float-det"] {
        let src = match name {
            "hot-panic" => fixture!("hot-panic", "pos"),
            "hot-index" => fixture!("hot-index", "pos"),
            "hot-alloc" => fixture!("hot-alloc", "pos"),
            _ => fixture!("float-det", "pos"),
        };
        let finds = lint_source("fixture.rs", src, cold);
        assert!(
            finds.is_empty(),
            "{name} fired outside its class: {finds:?}"
        );
    }
}

#[test]
fn waiver_round_trip() {
    // The exact waiver grammar documented in the README: a finding
    // appears without the waiver and disappears with it, in all three
    // shapes.
    let bare = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert_eq!(rules(bare), vec!["hot-panic"]);

    let trailing = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(hot-panic) — fixture: caller checked.\n";
    assert!(findings(trailing).is_empty());

    let standalone = "// lint: allow(hot-panic) — fixture: caller checked.\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(findings(standalone).is_empty());

    let file_level = "// lint: allow-file(hot-panic) — fixture: whole file is panic-tolerant.\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(y: Option<u32>) -> u32 { y.unwrap() }\n";
    assert!(findings(file_level).is_empty());

    // A waiver for rule A does not leak onto rule B on the same line.
    let wrong_rule = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(hot-alloc) — fixture: wrong rule on purpose.\n";
    assert_eq!(rules(wrong_rule), vec!["hot-panic"]);
}

#[test]
fn waivers_inside_cfg_test_are_unnecessary() {
    // Test modules are stripped before rules run, so test-only panics
    // need no waivers at all.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1 + 1, 2); Some(3).unwrap(); }\n}\n";
    assert!(findings(src).is_empty());
}
