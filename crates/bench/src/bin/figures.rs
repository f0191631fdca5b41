//! Regenerates the tables and figures of the Mellow Writes evaluation.
//!
//! ```text
//! figures <target> [--full] [--threads N] [--store PATH] [--no-cache]
//! ```
//!
//! `--help` lists the targets in `all`'s print order, then `main` and
//! `all`. `main` runs the shared Figs. 10–17 matrix once and prints
//! Fig. 3 and Figs. 10–17 from it; `all` prints every table: Fig. 1,
//! Tables V/VI, Fig. 2, those figures, Figs. 18 and 19, then the
//! calibration, ablation, `+GR`, fault, leveling and retention tables.
//! Its stdout at the default scale is the committed `results_quick.txt`.
//! Simulations run at the quick scale by default; `--full` uses the
//! publication scale (slower).
//!
//! Simulations run on all available cores (`--threads N` overrides) and
//! land in a JSON-lines result cache (`target/sweep-cache.jsonl` by
//! default), so a repeated or interrupted invocation only simulates
//! cells it has not already finished. `--store PATH` relocates the
//! cache; `--no-cache` disables it.

use mellow_bench::figures;
use mellow_bench::{Scale, SweepSettings};
use mellow_sim::Metrics;
use std::cell::OnceCell;
use std::path::PathBuf;
use std::process::exit;

const DEFAULT_STORE: &str = "target/sweep-cache.jsonl";

/// What the tables read: the run settings, and the two shared matrices,
/// each simulated on first use.
struct Inputs {
    scale: Scale,
    settings: SweepSettings,
    matrix: OnceCell<Vec<Metrics>>,
    statics: OnceCell<Vec<Metrics>>,
}

impl Inputs {
    /// The shared policy matrix of Fig. 3 and Figs. 10–17.
    fn matrix(&self) -> &[Metrics] {
        self.matrix.get_or_init(|| {
            eprintln!("running the shared policy matrix (11 workloads x 9 policies)...");
            figures::main_matrix_with(self.scale, &self.settings)
        })
    }

    /// The static-latency matrix of Figs. 2 and 19.
    fn statics(&self) -> &[Metrics] {
        self.statics.get_or_init(|| {
            eprintln!("running the static-latency matrix (11 workloads x 8 policies)...");
            figures::static_matrix_with(self.scale, &self.settings)
        })
    }
}

/// Renders one table.
type Table = fn(&Inputs) -> String;

/// Every table with the target names that select it, in `all`'s print
/// order.
const TARGETS: &[(&[&str], Table)] = &[
    (&["fig1"], |_| figures::fig1()),
    (&["tab5", "tab6"], |_| figures::tab_energy()),
    (&["fig2"], |i| figures::fig2(i.statics())),
    (&["fig3"], |i| figures::fig3(i.matrix())),
    (&["fig10"], |i| figures::fig10(i.matrix())),
    (&["fig11"], |i| figures::fig11(i.matrix())),
    (&["fig12"], |i| figures::fig12(i.matrix())),
    (&["fig13"], |i| figures::fig13(i.matrix())),
    (&["fig14"], |i| figures::fig14(i.matrix())),
    (&["fig15"], |i| figures::fig15(i.matrix())),
    (&["fig16"], |i| figures::fig16(i.matrix())),
    (&["fig17"], |i| figures::fig17(i.matrix())),
    (&["fig18"], |i| figures::fig18(i.scale, &i.settings)),
    (&["fig19"], |i| figures::fig19(i.statics(), i.matrix())),
    (&["calibrate"], |i| figures::calibrate(i.matrix())),
    (&["ablate"], |i| figures::ablate(i.scale, &i.settings)),
    (&["graded"], |i| figures::graded(i.scale, &i.settings)),
    (&["faults"], |i| figures::faults(i.scale, &i.settings)),
    (&["leveling"], |i| figures::leveling(i.scale, &i.settings)),
    (&["retention"], |i| figures::retention(i.scale, &i.settings)),
];

/// The tables `main` prints: Fig. 3 and Figs. 10–17.
const MAIN: &[&str] = &[
    "fig3", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
];

/// The `--help` text, naming every target.
fn usage() -> String {
    let names: Vec<&str> = TARGETS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .chain(["main", "all (default)"])
        .collect();
    let lines: Vec<String> = names.chunks(10).map(|line| line.join(" ")).collect();
    format!(
        "\
usage: figures <target> [--full] [--threads N] [--store PATH] [--no-cache]

targets: {}

  --full        publication scale (slower)
  --threads N   worker threads (default: all cores)
  --store PATH  result cache file (default: target/sweep-cache.jsonl)
  --no-cache    run every cell, ignore and don't write the cache",
        lines.join("\n         ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with('-')
            && !matches!(
                a.as_str(),
                "--full" | "--threads" | "--store" | "--no-cache"
            )
    }) {
        eprintln!("unknown option {bad:?}\n{}", usage());
        exit(2);
    }
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let flag_value = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        })
    };
    let threads = flag_value("--threads").map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("--threads needs a positive integer, got {v:?}");
            exit(2);
        })
    });
    let store = if args.iter().any(|a| a == "--no-cache") {
        None
    } else {
        Some(PathBuf::from(
            flag_value("--store").unwrap_or_else(|| DEFAULT_STORE.to_owned()),
        ))
    };
    let settings = SweepSettings { threads, store };
    let mut positional = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect::<Vec<_>>();
    // Skip values consumed by flags.
    for flag in ["--threads", "--store"] {
        if let Some(v) = flag_value(flag) {
            if let Some(i) = positional.iter().position(|a| *a == v) {
                positional.remove(i);
            }
        }
    }
    let target = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_owned());

    let tables: Vec<Table> = TARGETS
        .iter()
        .filter(|(names, _)| match target.as_str() {
            "all" => true,
            "main" => names.iter().any(|n| MAIN.contains(n)),
            name => names.contains(&name),
        })
        .map(|&(_, table)| table)
        .collect();
    if tables.is_empty() {
        eprintln!("unknown target {target:?}\n{}", usage());
        exit(2);
    }
    let inputs = Inputs {
        scale,
        settings,
        matrix: OnceCell::new(),
        statics: OnceCell::new(),
    };
    let out: String = tables.iter().map(|table| table(&inputs)).collect();
    println!("{out}");
}
