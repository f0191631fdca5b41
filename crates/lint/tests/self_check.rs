//! The lint's own acceptance test: running the analyzer over this very
//! workspace must find no violations. This is the same check CI runs via
//! `cargo run -p mellow-lint`, kept here so plain `cargo test` catches
//! regressions too.

use std::path::PathBuf;

use mellow_lint::runner;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_has_no_violations() {
    let violations =
        runner::collect_violations(&workspace_root()).expect("workspace scan succeeds");
    let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(
        violations.is_empty(),
        "lint violations:\n  {}",
        lines.join("\n  "),
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = workspace_root();
    let a = runner::collect_violations(&root).expect("first scan");
    let b = runner::collect_violations(&root).expect("second scan");
    assert_eq!(
        a, b,
        "two scans of the same tree must agree token-for-token"
    );
}
