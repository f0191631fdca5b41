//! The `figures` binary's contract: `--help` names every target, an
//! unknown target or option exits 2, and the analytic targets print
//! their blocks of the committed `results_quick.txt` without simulating.

use std::process::{Command, Output};

/// Every target `figures` accepts.
const TARGETS: &[&str] = &[
    "fig1",
    "tab5",
    "tab6",
    "fig2",
    "fig3",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "calibrate",
    "ablate",
    "graded",
    "faults",
    "leveling",
    "retention",
    "main",
    "all",
];

/// The committed quick-scale output of `figures all`.
const RESULTS_QUICK: &str = include_str!("../../../results_quick.txt");

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

/// The block of `results_quick.txt` whose header starts with `title`:
/// from the blank line before it to the blank line before the next one.
fn block(title: &str) -> &'static str {
    let start = RESULTS_QUICK
        .find(&format!("\n{title}"))
        .unwrap_or_else(|| panic!("no {title:?} in results_quick.txt"));
    let end = RESULTS_QUICK[start + 1..]
        .find("\n===")
        .map_or(RESULTS_QUICK.len(), |len| start + 1 + len);
    &RESULTS_QUICK[start..end]
}

#[test]
fn help_exits_zero_and_names_every_target() {
    let out = figures(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let words: Vec<&str> = help.split_whitespace().collect();
    for target in TARGETS {
        assert!(words.contains(target), "--help omits {target}:\n{help}");
    }
}

#[test]
fn unknown_targets_and_options_exit_two() {
    for args in [
        &["fig99", "--no-cache"][..],
        &["tabvi", "--no-cache"],
        &["--frobnicate"],
        &["fig1", "--no-cache", "-x"],
    ] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

#[test]
fn analytic_targets_print_their_committed_blocks_without_simulating() {
    for (target, title) in [("fig1", "=== Fig. 1:"), ("tab5", "=== Tables V/VI:")] {
        let out = figures(&[target, "--no-cache"]);
        assert_eq!(out.status.code(), Some(0), "{target}: {out:?}");
        assert!(
            out.stderr.is_empty(),
            "{target} must simulate nothing, got stderr {:?}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(stdout, format!("{}\n", block(title)), "{target}");
    }
}
