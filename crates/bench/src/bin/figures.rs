//! Regenerates the tables and figures of the Mellow Writes evaluation.
//!
//! ```text
//! figures <target> [--full] [--threads N] [--store PATH] [--no-cache]
//!
//! targets: fig1 fig2 fig3 tab5 tab6 fig10 fig11 fig12 fig13 fig14
//!          fig15 fig16 fig17 fig18 fig19 calibrate ablate graded
//!          faults leveling retention perf main all
//! ```
//!
//! `main` runs the shared Figs. 10–17 matrix once and prints all of
//! them; `all` additionally runs Figs. 1–3, 18, 19 and the tables.
//! `--full` uses the publication scale (slower); `--tiny` a CI smoke
//! scale. `perf` is not a paper artifact: it times the system's
//! event kernel against the reference one-cycle-at-a-time loop,
//! which also ticks the controller in full on every edge, on
//! full-system runs (always uncached, since it measures wall clock
//! rather than simulated results), then appends the measurements to
//! `BENCH_system.json` at the repo root.
//! With `--guard` it additionally exits nonzero when the geomean
//! speedup regresses below 0.8x the last committed same-scale entry
//! (the CI perf-smoke check).
//!
//! Simulations run on all available cores (`--threads N` overrides) and
//! land in a JSON-lines result cache (`target/sweep-cache.jsonl` by
//! default), so a repeated or interrupted invocation only simulates
//! cells it has not already finished. `--store PATH` relocates the
//! cache; `--no-cache` disables it.

use mellow_bench::figures;
use mellow_bench::{Scale, SweepSettings};
use std::path::PathBuf;
use std::process::exit;

const DEFAULT_STORE: &str = "target/sweep-cache.jsonl";

const USAGE: &str = "\
usage: figures <target> [--full|--tiny] [--threads N] [--store PATH] [--no-cache] [--guard]

targets: fig1 fig2 fig3 tab5 tab6 fig10 fig11 fig12 fig13 fig14
         fig15 fig16 fig17 fig18 fig19 calibrate ablate graded
         faults leveling retention perf main all (default)

  --full        publication scale (slower)
  --tiny        CI smoke scale (fast, not meaningful for artifacts)
  --threads N   worker threads (default: all cores)
  --store PATH  result cache file (default: target/sweep-cache.jsonl)
  --no-cache    run every cell, ignore and don't write the cache
  --guard       (perf only) exit nonzero if the run_instructions geomean
                speedup regresses below 0.8x the last committed
                same-scale BENCH_system.json entry";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with('-')
            && !matches!(
                a.as_str(),
                "--full" | "--tiny" | "--threads" | "--store" | "--no-cache" | "--guard"
            )
    }) {
        eprintln!("unknown option {bad:?}\n{USAGE}");
        exit(2);
    }
    let full = args.iter().any(|a| a == "--full");
    let tiny = args.iter().any(|a| a == "--tiny");
    if full && tiny {
        eprintln!("--full and --tiny are mutually exclusive\n{USAGE}");
        exit(2);
    }
    let (scale, scale_label) = if full {
        (Scale::full(), "full")
    } else if tiny {
        (Scale::tiny(), "tiny")
    } else {
        (Scale::quick(), "quick")
    };
    let guard = args.iter().any(|a| a == "--guard");
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

    let needs_matrix = matches!(
        target.as_str(),
        "fig3" | "fig10" | "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17"
    ) || matches!(target.as_str(), "fig19" | "main" | "all");
    let matrix = if needs_matrix {
        eprintln!("running the shared policy matrix (11 workloads x 9 policies)...");
        figures::main_matrix_with(scale, &settings)
    } else {
        Vec::new()
    };
    let needs_statics = matches!(target.as_str(), "fig2" | "fig19" | "all");
    let statics = if needs_statics {
        eprintln!("running the static-latency matrix (11 workloads x 8 policies)...");
        figures::static_matrix_with(scale, &settings)
    } else {
        Vec::new()
    };

    let print_main = |out: &mut String| {
        out.push_str(&figures::fig3(&matrix));
        out.push_str(&figures::fig10(&matrix));
        out.push_str(&figures::fig11(&matrix));
        out.push_str(&figures::fig12(&matrix));
        out.push_str(&figures::fig13(&matrix));
        out.push_str(&figures::fig14(&matrix));
        out.push_str(&figures::fig15(&matrix));
        out.push_str(&figures::fig16(&matrix));
        out.push_str(&figures::fig17(&matrix));
    };

    let mut out = String::new();
    match target.as_str() {
        "fig1" => out.push_str(&figures::fig1()),
        "tab5" | "tab6" | "tabvi" => out.push_str(&figures::tab_energy()),
        "fig2" => out.push_str(&figures::fig2(&statics)),
        "fig3" => out.push_str(&figures::fig3(&matrix)),
        "fig10" => out.push_str(&figures::fig10(&matrix)),
        "fig11" => out.push_str(&figures::fig11(&matrix)),
        "fig12" => out.push_str(&figures::fig12(&matrix)),
        "fig13" => out.push_str(&figures::fig13(&matrix)),
        "fig14" => out.push_str(&figures::fig14(&matrix)),
        "fig15" => out.push_str(&figures::fig15(&matrix)),
        "fig16" => out.push_str(&figures::fig16(&matrix)),
        "fig17" => out.push_str(&figures::fig17(&matrix)),
        "fig18" => out.push_str(&figures::fig18(scale, &settings)),
        "fig19" => out.push_str(&figures::fig19(&statics, &matrix)),
        "calibrate" => out.push_str(&figures::calibrate(scale, &settings)),
        "ablate" => out.push_str(&figures::ablate(scale, &settings)),
        "graded" => out.push_str(&figures::graded(scale, &settings)),
        "faults" => out.push_str(&figures::faults(scale, &settings)),
        "leveling" => out.push_str(&figures::leveling(scale, &settings)),
        "retention" => out.push_str(&figures::retention(scale, &settings)),
        "perf" => {
            let (report, guard_ok) = perf_report(scale, scale_label, guard);
            out.push_str(&report);
            if !guard_ok {
                println!("{out}");
                eprintln!("perf guard FAILED: see report above");
                exit(1);
            }
        }
        "main" => print_main(&mut out),
        "all" => {
            out.push_str(&figures::fig1());
            out.push_str(&figures::tab_energy());
            out.push_str(&figures::fig2(&statics));
            print_main(&mut out);
            out.push_str(&figures::fig18(scale, &settings));
            out.push_str(&figures::fig19(&statics, &matrix));
        }
        other => {
            eprintln!("unknown target {other:?}\n{USAGE}");
            exit(2);
        }
    }
    println!("{out}");
}

/// Times the event kernel against the reference
/// one-cycle-at-a-time loop (which also ticks the controller in full,
/// so it checks the controller's skip as well as the kernel's jumps) on
/// a representative workload spread (streaming, random, write-heavy,
/// multi-stream), reporting per-workload wall clock plus geomean
/// speedups. Every row must read `identical` — the loops differ only
/// in wall clock, never in simulated results. Measurements are
/// appended to `BENCH_system.json` at the repository root.
///
/// Returns the report and whether the `--guard` regression check
/// passed (always true when `guard` is off or no previous same-scale
/// entry exists).
fn perf_report(scale: Scale, scale_label: &str, guard: bool) -> (String, bool) {
    use mellow_bench::trajectory::{
        append_records, git_state, last_record, machine_threads, repo_root, BenchRecord,
    };
    use mellow_bench::{compare_system_loops, microbench_system_loops};
    use mellow_core::WritePolicy;

    let workloads = ["stream", "gups", "lbm", "GemsFDTD"];
    let (git, dirty) = git_state();
    let threads = machine_threads();
    let record = |bench: String, ns_per_op, ips, speedup, scale: &str| BenchRecord {
        bench,
        ns_per_op,
        ips,
        speedup,
        scale: scale.to_owned(),
        threads,
        git: git.clone(),
        dirty,
    };
    let mut out = String::new();

    eprintln!("timing full-tick cycle vs event-kernel system loops on {workloads:?} (uncached)...");
    let rows = compare_system_loops(&workloads, WritePolicy::be_mellow_sc(), scale)
        .expect("perf workloads are Table IV presets");
    out.push_str("== system tick-loop wall clock (full-tick cycle vs event, be_mellow_sc) ==\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>9} {:>9} {:>11} {:>8}  {}\n",
        "workload", "instr", "cycle s", "event s", "event ips", "speedup", "metrics"
    ));
    let mut log_sum = 0.0;
    let mut sys_records = Vec::new();
    for r in &rows {
        log_sum += r.speedup().ln();
        out.push_str(&format!(
            "{:<12} {:>10} {:>9.3} {:>9.3} {:>11.0} {:>7.2}x  {}\n",
            r.workload,
            r.instructions,
            r.cycle_secs,
            r.event_secs,
            r.event_ips(),
            r.speedup(),
            if r.metrics_match {
                "identical"
            } else {
                "MISMATCH"
            }
        ));
        sys_records.push(record(
            format!("run_instructions/{}", r.workload),
            None,
            Some(r.event_ips()),
            r.speedup(),
            scale_label,
        ));
    }
    let sys_geomean = (log_sum / rows.len() as f64).exp();
    out.push_str(&format!("geomean speedup: {sys_geomean:.2}x\n"));

    // The guard compares the geomean speedup (event kernel over the
    // cycle oracle, machine-independent by construction) against the
    // last committed same-scale entry, before this run is appended.
    let previous = last_record(
        &repo_root().join("BENCH_system.json"),
        "run_instructions/geomean",
        scale_label,
    )
    .and_then(|r| r.get("speedup").and_then(mellow_engine::json::Json::as_f64));
    let mut guard_ok = true;
    if guard {
        match previous {
            Some(prev) if sys_geomean < 0.8 * prev => {
                guard_ok = false;
                out.push_str(&format!(
                    "perf guard: FAIL — geomean {sys_geomean:.2}x is below 0.8x the last \
                     committed {scale_label}-scale entry ({prev:.2}x)\n"
                ));
            }
            Some(prev) => out.push_str(&format!(
                "perf guard: ok — geomean {sys_geomean:.2}x vs last committed \
                 {scale_label}-scale entry {prev:.2}x\n"
            )),
            None => out.push_str(&format!(
                "perf guard: no previous {scale_label}-scale entry, nothing to compare\n"
            )),
        }
    }
    sys_records.push(record(
        "run_instructions/geomean".to_owned(),
        None,
        None,
        sys_geomean,
        scale_label,
    ));

    eprintln!("timing run_instructions microbench (20k instructions, scaled caches)...");
    let rows = microbench_system_loops(&["gups", "stream"], 10)
        .expect("microbench workloads are Table IV presets");
    out.push_str("\n== run_instructions microbench (20k instructions, 64 KiB LLC) ==\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>11} {:>8}  {}\n",
        "workload", "cycle ns", "event ns", "event ips", "speedup", "metrics"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<12} {:>12.0} {:>12.0} {:>11.0} {:>7.2}x  {}\n",
            r.workload,
            r.cycle_secs * 1e9,
            r.event_secs * 1e9,
            r.event_ips(),
            r.speedup(),
            if r.metrics_match {
                "identical"
            } else {
                "MISMATCH"
            }
        ));
        sys_records.push(record(
            format!("run_instructions_20k/{}", r.workload),
            Some(r.event_secs * 1e9 / r.instructions as f64),
            Some(r.event_ips()),
            r.speedup(),
            "micro",
        ));
    }

    let path = repo_root().join("BENCH_system.json");
    match append_records(&path, &sys_records) {
        Ok(total) => out.push_str(&format!(
            "recorded {} measurements in BENCH_system.json ({total} total)\n",
            sys_records.len()
        )),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    (out, guard_ok)
}
