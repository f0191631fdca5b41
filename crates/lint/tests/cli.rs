//! The `mellow-lint` binary's contract: exit 0 on a clean tree, 1 on any
//! violation (one GitHub annotation each under `--format github`), and 2
//! on an unknown option.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A throwaway workspace holding one simulation-crate file with `src`,
/// removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str, src: &str) -> Tree {
        let root =
            std::env::temp_dir().join(format!("mellow-lint-cli-{}-{name}", std::process::id()));
        let dir = root.join("crates/engine/src");
        std::fs::create_dir_all(&dir).expect("create the temp tree");
        std::fs::write(dir.join("x.rs"), src).expect("write the temp source");
        Tree(root)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mellow-lint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run mellow-lint")
}

const CLEAN: &str = "pub fn first(v: &[u32]) -> Option<u32> { v.first().copied() }\n";
const UNWRAP: &str = "pub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";

#[test]
fn clean_tree_exits_zero() {
    let tree = Tree::new("clean", CLEAN);
    for format in ["text", "github"] {
        let out = lint(&tree.0, &["--format", format]);
        assert_eq!(out.status.code(), Some(0), "{format}: {out:?}");
    }
}

#[test]
fn a_violation_exits_one_with_one_github_annotation() {
    let tree = Tree::new("unwrap", UNWRAP);
    assert_eq!(lint(&tree.0, &[]).status.code(), Some(1));

    let out = lint(&tree.0, &["--format", "github"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one annotation per violation: {stdout}");
    assert!(
        lines[0].starts_with(
            "::error file=crates/engine/src/x.rs,line=2,title=mellow-lint panic-policy::"
        ),
        "{stdout}"
    );
}

#[test]
fn a_cross_file_stats_violation_reaches_the_binary() {
    let tree = Tree::new("stats", "pub struct FooStats {\n    pub dead: u64,\n}\n");
    let out = lint(&tree.0, &["--format", "github"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        stdout.starts_with(
            "::error file=crates/engine/src/x.rs,line=2,title=mellow-lint stats-exhaustiveness::"
        ),
        "{stdout}"
    );
}

#[test]
fn baseline_and_list_options_are_unknown() {
    let tree = Tree::new("options", CLEAN);
    for args in [&["--write-baseline"][..], &["--baseline", "F"], &["--list"]] {
        let out = lint(&tree.0, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
