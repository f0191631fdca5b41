//! CLI for the workspace lint. Exit codes: 0 clean, 1 violations (new or
//! stale baseline entries), 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mellow_lint::baseline::Baseline;
use mellow_lint::runner;

const USAGE: &str = "\
mellow-lint — workspace static-analysis pass

USAGE:
    cargo run -p mellow-lint [--release] -- [OPTIONS]

OPTIONS:
    --root <DIR>        Workspace root (default: auto-detected)
    --baseline <FILE>   Baseline path (default: <root>/lint-baseline.toml)
    --write-baseline    Rewrite the baseline to cover current violations
    --list              Print every violation, including baselined ones
    --format <FMT>      Output format: text (default) or github
                        (GitHub Actions `::error` annotations)
    -h, --help          Show this help
";

/// How violations are rendered on stdout.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// Human-readable lines plus a summary (the default).
    Text,
    /// GitHub Actions workflow commands: one `::error` annotation per
    /// fresh violation or stale baseline entry, so CI failures land as
    /// inline PR annotations.
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
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut list = false;
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
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--baseline requires a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => write_baseline = true,
            "--list" => list = true,
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
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.toml"));

    let all = match runner::collect_violations(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mellow-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        let text = runner::baseline_for(&all).render();
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("mellow-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "mellow-lint: wrote baseline with {} entr{} to {}",
            all.len(),
            if all.len() == 1 { "y" } else { "ies" },
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mellow-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = runner::diff(all, &baseline);

    match format {
        Format::Text => print_text(&report, list),
        Format::Github => print_github(&report),
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The default human-readable report: each fresh violation (plus every
/// baselined one under `--list`), stale baseline entries, and a
/// per-rule summary line.
fn print_text(report: &runner::Report, list: bool) {
    if list {
        for v in &report.all {
            println!("{v}");
        }
    }
    for v in &report.fresh {
        println!("{v}");
    }
    for e in &report.stale {
        println!(
            "{}:{}: [baseline] stale entry for rule `{}` — violation no longer fires, remove it",
            e.file, e.line, e.rule
        );
    }

    let summary: Vec<String> = runner::counts(&report.all)
        .iter()
        .map(|(r, n)| format!("{r}: {n}"))
        .collect();
    println!(
        "mellow-lint: {} file-scoped violation(s) ({}); {} new, {} stale baseline entr{}",
        report.all.len(),
        summary.join(", "),
        report.fresh.len(),
        report.stale.len(),
        if report.stale.len() == 1 { "y" } else { "ies" },
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

/// GitHub Actions annotations: one `::error` per fresh violation and
/// per stale baseline entry, so a failing CI lint step surfaces inline
/// on the PR diff. Baselined violations are intentionally silent.
fn print_github(report: &runner::Report) {
    for v in &report.fresh {
        println!(
            "::error file={},line={},title=mellow-lint {}::{}",
            github_escape_prop(&v.file),
            v.line,
            github_escape_prop(v.rule.name()),
            github_escape_data(&v.message)
        );
    }
    for e in &report.stale {
        println!(
            "::error file={},line={},title=mellow-lint baseline::stale entry for rule `{}` — \
             violation no longer fires, remove it from lint-baseline.toml",
            github_escape_prop(&e.file),
            e.line,
            github_escape_data(&e.rule)
        );
    }
}
