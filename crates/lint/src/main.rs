//! CLI for the workspace lint. Exit codes: 0 clean, 1 violations, 2
//! usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mellow_lint::{runner, Violation};

const USAGE: &str = "\
mellow-lint — workspace static-analysis pass

USAGE:
    cargo run -p mellow-lint [--release] -- [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root (default: auto-detected)
    --format <FMT>      Output format: text (default) or github
                        (GitHub Actions `::error` annotations)
    -h, --help          Show this help

Exits 0 when no rule fires, 1 on any violation, 2 on a usage or I/O error.
";

/// How violations are rendered on stdout.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// Human-readable lines plus a summary (the default).
    Text,
    /// GitHub Actions workflow commands: one `::error` annotation per
    /// violation, so CI failures land as inline pull-request annotations.
    Github,
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`, falling back to this crate's
/// grandparent directory (it lives at `<root>/crates/lint`).
fn find_root(start: &Path) -> PathBuf {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return d.to_path_buf();
            }
        }
        dir = d.parent();
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--root requires a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                Some(other) => {
                    eprintln!("--format must be text or github, got `{other}`\n{USAGE}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("--format requires a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root.unwrap_or_else(|| find_root(&cwd));

    let violations = match runner::collect_violations(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mellow-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Text => print_text(&violations),
        Format::Github => print_github(&violations),
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The default human-readable report: each violation, then a per-rule
/// summary line.
fn print_text(violations: &[Violation]) {
    for v in violations {
        println!("{v}");
    }
    let summary: Vec<String> = runner::counts(violations)
        .iter()
        .map(|(r, n)| format!("{r}: {n}"))
        .collect();
    println!(
        "mellow-lint: {} file-scoped violation(s) ({})",
        violations.len(),
        summary.join(", "),
    );
}

/// Escapes the free-text (message) part of a GitHub Actions workflow
/// command.
fn github_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a property value (file, title) of a GitHub Actions workflow
/// command, which additionally reserves `,` and `:`.
fn github_escape_prop(s: &str) -> String {
    github_escape_data(s)
        .replace(',', "%2C")
        .replace(':', "%3A")
}

/// GitHub Actions annotations: one `::error` per violation, so a
/// failing CI lint step surfaces inline on the pull-request diff.
fn print_github(violations: &[Violation]) {
    for v in violations {
        println!(
            "::error file={},line={},title=mellow-lint {}::{}",
            github_escape_prop(&v.file),
            v.line,
            github_escape_prop(v.rule.name()),
            github_escape_data(&v.message)
        );
    }
}
