//! One function per table/figure of the paper's evaluation.
//!
//! Simulation-backed figures take the shared policy-matrix results (so
//! `all` runs each `(workload, policy)` cell exactly once); analytic
//! artifacts (Fig. 1, Tables V/VI) compute directly from the models.

use crate::{Cell, Scale, Sweep, SweepSettings};
use mellow_core::WritePolicy;
use mellow_engine::stats::geometric_mean;
use mellow_memctrl::MemConfig;
use mellow_nvm::energy::{CellKind, EnergyModel};
use mellow_nvm::{EnduranceModel, ExpoFactor, LevelerConfig, SECONDS_PER_YEAR};
use mellow_sim::Metrics;
use std::fmt::Write as _;

/// The Table IV workload names, in the paper's plot order.
pub const WORKLOADS: [&str; 11] = [
    "leslie3d",
    "GemsFDTD",
    "libquantum",
    "stream",
    "hmmer",
    "zeusmp",
    "bwaves",
    "gups",
    "milc",
    "mcf",
    "lbm",
];

/// The policies of Figs. 10–16, plus `Slow+SC` for Fig. 17.
pub fn main_policies() -> Vec<WritePolicy> {
    let mut v = WritePolicy::paper_set();
    v.push(WritePolicy::slow().with_cancel_slow());
    v
}

/// The cells of the shared policy matrix used by Figs. 3 and 10–17, in
/// workload-major order.
pub fn main_cells() -> Vec<Cell> {
    matrix_cells(&WORKLOADS, &main_policies())
}

/// Runs the shared policy matrix used by Figs. 3 and 10–17.
pub fn main_matrix_with(scale: Scale, settings: &SweepSettings) -> Vec<Metrics> {
    run_cells(scale, settings, main_cells())
}

fn matrix_cells(workloads: &[&str], policies: &[WritePolicy]) -> Vec<Cell> {
    workloads
        .iter()
        .flat_map(|&w| policies.iter().map(move |&p| Cell::new(w, p)))
        .collect()
}

fn run_cells(scale: Scale, settings: &SweepSettings, cells: Vec<Cell>) -> Vec<Metrics> {
    settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("matrix cells use Table IV names")
        .into_iter()
        .map(|r| r.metrics)
        .collect()
}

fn find<'m>(matrix: &'m [Metrics], workload: &str, policy: &str) -> Option<&'m Metrics> {
    matrix
        .iter()
        .find(|m| m.workload == workload && m.policy == policy)
}

fn header(title: &str, cols: &[&str]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\n=== {title} ===");
    let _ = write!(s, "{:<12}", "workload");
    for c in cols {
        let _ = write!(s, " {c:>14}");
    }
    s.push('\n');
    s
}

fn geo_row(label: &str, matrix_vals: &[Vec<f64>]) -> String {
    let mut s = format!("{label:<12}");
    for col in matrix_vals {
        let positive: Vec<f64> = col.iter().copied().filter(|v| *v > 0.0).collect();
        let g = geometric_mean(&positive).unwrap_or(0.0);
        let _ = write!(s, " {g:>14.3}");
    }
    s.push('\n');
    s
}

/// Fig. 1 — the write-latency/endurance trade-off (analytic).
pub fn fig1() -> String {
    let mut s = String::from("\n=== Fig. 1: write latency vs endurance (Eq. 2) ===\n");
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>14} {:>14} {:>14} {:>14} {:>14}",
        "factor", "latency(ns)", "E@1.0", "E@1.5", "E@2.0", "E@2.5", "E@3.0"
    );
    let factors: Vec<f64> = (4..=12).map(|i| i as f64 / 4.0).collect();
    for f in factors {
        let base = EnduranceModel::reram_default();
        let _ = write!(s, "{f:<10.2} {:>12.1}", base.write_latency(f).as_ns());
        for e in ExpoFactor::SENSITIVITY_SWEEP {
            let m = base.with_expo_factor(e);
            let _ = write!(s, " {:>14.3e}", m.endurance_at_factor(f));
        }
        s.push('\n');
    }
    s
}

/// Tables V and VI — the ReRAM energy model (analytic).
pub fn tab_energy() -> String {
    let mut s = String::from("\n=== Tables V/VI: per-operation memory energy (pJ) ===\n");
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>12} {:>8}",
        "cell", "buffer-read", "norm-write", "slow-write", "ratio"
    );
    for cell in CellKind::ALL {
        let (b, n, sl, r) = EnergyModel::for_cell(cell).table_vi_row();
        let _ = writeln!(
            s,
            "{:<8} {b:>12.1} {n:>12.1} {sl:>12.1} {r:>8.2}",
            cell.name()
        );
    }
    s
}

/// The static-latency policy sweep of Figs. 2 and 19: fixed 1.0/1.5/
/// 2.0/3.0× latency, with and without cancellation.
pub fn static_policies() -> Vec<WritePolicy> {
    vec![
        WritePolicy::norm(),
        WritePolicy::norm().with_cancel_normal(),
        WritePolicy::slow().with_slow_factor(1.5),
        WritePolicy::slow().with_slow_factor(1.5).with_cancel_slow(),
        WritePolicy::slow().with_slow_factor(2.0),
        WritePolicy::slow().with_slow_factor(2.0).with_cancel_slow(),
        WritePolicy::slow().with_slow_factor(3.0),
        WritePolicy::slow().with_slow_factor(3.0).with_cancel_slow(),
    ]
}

/// The cells of the static-latency matrix shared by Figs. 2 and 19.
pub fn static_cells() -> Vec<Cell> {
    matrix_cells(&WORKLOADS, &static_policies())
}

/// Runs the static-latency matrix shared by Figs. 2 and 19.
pub fn static_matrix_with(scale: Scale, settings: &SweepSettings) -> Vec<Metrics> {
    run_cells(scale, settings, static_cells())
}

/// Fig. 2 — static write latencies (1.0/1.5/2.0/3.0×) with and without
/// cancellation: normalized IPC and lifetime per workload.
pub fn fig2(statics: &[Metrics]) -> String {
    static_report(
        "Fig. 2: static write latencies — IPC (normalized to Norm) and lifetime (years)",
        statics,
        &static_policies(),
    )
}

fn static_report(title: &str, matrix: &[Metrics], policies: &[WritePolicy]) -> String {
    let names: Vec<String> = policies.iter().map(|p| p.to_string()).collect();
    let cols: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut s = header(&format!("{title} — normalized IPC"), &cols);
    let mut ipc_cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let mut life_cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for w in WORKLOADS {
        let base = find(matrix, w, &names[0]).map(|m| m.ipc).unwrap_or(1.0);
        let _ = write!(s, "{w:<12}");
        for (i, name) in names.iter().enumerate() {
            if let Some(m) = find(matrix, w, name) {
                let norm = if base > 0.0 { m.ipc / base } else { 0.0 };
                ipc_cols[i].push(norm);
                life_cols[i].push(m.lifetime_years);
                let _ = write!(s, " {norm:>14.3}");
            }
        }
        s.push('\n');
    }
    s.push_str(&geo_row("geomean", &ipc_cols));
    s.push_str(&header("lifetime (years)", &cols));
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(s, "{w:<12}");
        for col in life_cols.iter() {
            let _ = write!(s, " {:>14.2}", col.get(wi).copied().unwrap_or(f64::NAN));
        }
        s.push('\n');
    }
    s.push_str(&geo_row("geomean", &life_cols));
    s
}

/// Fig. 3 — average bank utilization under normal writes.
pub fn fig3(matrix: &[Metrics]) -> String {
    let mut s = String::from("\n=== Fig. 3: average bank utilization, Norm policy ===\n");
    for w in WORKLOADS {
        if let Some(m) = find(matrix, w, "Norm") {
            let _ = writeln!(s, "{w:<12} {:>6.2}%", m.avg_bank_utilization * 100.0);
        }
    }
    s
}

/// The per-workload, per-policy metric table shared by Figs. 10–13.
fn policy_table<F: Fn(&Metrics, &Metrics) -> f64>(
    title: &str,
    matrix: &[Metrics],
    policies: &[&str],
    metric: F,
) -> String {
    let mut s = header(title, policies);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    for w in WORKLOADS {
        let Some(base) = find(matrix, w, "Norm") else {
            continue;
        };
        let _ = write!(s, "{w:<12}");
        for (i, p) in policies.iter().enumerate() {
            match find(matrix, w, p) {
                Some(m) => {
                    let v = metric(m, base);
                    cols[i].push(v);
                    let _ = write!(s, " {v:>14.3}");
                }
                None => {
                    let _ = write!(s, " {:>14}", "-");
                }
            }
        }
        s.push('\n');
    }
    s.push_str(&geo_row("geomean", &cols));
    s
}

/// The eight policies plotted in Figs. 10–16.
pub const PLOT_POLICIES: [&str; 8] = [
    "Norm",
    "E-Norm+NC",
    "E-Slow+SC",
    "B-Mellow+SC",
    "BE-Mellow+SC",
    "Norm+WQ",
    "B-Mellow+SC+WQ",
    "BE-Mellow+SC+WQ",
];

/// Fig. 10 — IPC normalized to `Norm`.
pub fn fig10(matrix: &[Metrics]) -> String {
    policy_table(
        "Fig. 10: IPC (normalized to Norm)",
        matrix,
        &PLOT_POLICIES,
        |m, base| {
            if base.ipc > 0.0 {
                m.ipc / base.ipc
            } else {
                0.0
            }
        },
    )
}

/// Fig. 11 — lifetime in years.
pub fn fig11(matrix: &[Metrics]) -> String {
    policy_table(
        "Fig. 11: lifetime (years)",
        matrix,
        &PLOT_POLICIES,
        |m, _| m.lifetime_years,
    )
}

/// Fig. 12 — average bank utilization (%).
pub fn fig12(matrix: &[Metrics]) -> String {
    policy_table(
        "Fig. 12: average bank utilization (%)",
        matrix,
        &PLOT_POLICIES,
        |m, _| m.avg_bank_utilization * 100.0,
    )
}

/// Fig. 13 — write-drain time as % of execution.
pub fn fig13(matrix: &[Metrics]) -> String {
    policy_table(
        "Fig. 13: write-drain time (% of execution)",
        matrix,
        &PLOT_POLICIES,
        |m, _| m.drain_fraction * 100.0,
    )
}

/// Fig. 14 — memory requests from the LLC, normalized to `Norm`, broken
/// into reads / demand writebacks / eager writebacks.
pub fn fig14(matrix: &[Metrics]) -> String {
    let mut s =
        String::from("\n=== Fig. 14: memory requests from LLC (normalized to Norm total) ===\n");
    let _ = writeln!(
        s,
        "{:<12} {:<16} {:>8} {:>8} {:>8} {:>8}",
        "workload", "policy", "reads", "writes", "eager", "total"
    );
    for w in WORKLOADS {
        let Some(base) = find(matrix, w, "Norm") else {
            continue;
        };
        let (br, bw, be) = base.llc_requests();
        let total = (br + bw + be).max(1) as f64;
        for p in ["Norm", "BE-Mellow+SC", "BE-Mellow+SC+WQ"] {
            if let Some(m) = find(matrix, w, p) {
                let (r, wr, e) = m.llc_requests();
                let _ = writeln!(
                    s,
                    "{w:<12} {p:<16} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                    r as f64 / total,
                    wr as f64 / total,
                    e as f64 / total,
                    (r + wr + e) as f64 / total,
                );
            }
        }
    }
    s
}

/// Fig. 15 — requests issued to banks (cancel retries included),
/// normalized to `Norm`.
pub fn fig15(matrix: &[Metrics]) -> String {
    policy_table(
        "Fig. 15: requests issued to banks (normalized to Norm)",
        matrix,
        &PLOT_POLICIES,
        |m, base| {
            let b = base.issued_to_banks().max(1) as f64;
            (m.issued_to_banks() + m.ctrl.writes_cancelled) as f64 / b
        },
    )
}

/// Fig. 16 — main-memory energy (CellC), normalized to `Norm`.
pub fn fig16(matrix: &[Metrics]) -> String {
    let model = EnergyModel::fig16_default();
    policy_table(
        "Fig. 16: main-memory energy, CellC (normalized to Norm)",
        matrix,
        &PLOT_POLICIES,
        move |m, base| {
            let b = base.memory_energy_pj(&model).max(1.0);
            m.memory_energy_pj(&model) / b
        },
    )
}

/// Recomputes a run's lifetime under a different endurance exponent
/// (valid for non-WQ policies; see `BankWear::wear_under`).
pub fn lifetime_under(m: &Metrics, expo: f64, slow_factor: f64) -> f64 {
    let budget = MemConfig::paper_default()
        .lifetime_model(&EnduranceModel::reram_default())
        .bank_wear_budget();
    m.bank_wear
        .iter()
        .map(|b| {
            let wear = b.wear_under(expo, slow_factor);
            if wear <= 0.0 {
                f64::INFINITY
            } else {
                budget / (wear / m.elapsed_secs) / SECONDS_PER_YEAR
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// Fig. 17 — lifetime sensitivity to `Expo_Factor` for `Slow+SC` and
/// `BE-Mellow+SC` (geomean years over workloads, plus the ratio to
/// `Norm`).
pub fn fig17(matrix: &[Metrics]) -> String {
    let mut s = String::from(
        "\n=== Fig. 17: lifetime sensitivity to Expo_Factor (geomean years; xN = vs Norm) ===\n",
    );
    let _ = writeln!(
        s,
        "{:<14} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "policy", "E=1.0", "E=1.5", "E=2.0", "E=2.5", "E=3.0"
    );
    for policy in ["Slow+SC", "BE-Mellow+SC"] {
        let mut years_row = format!("{policy:<14}");
        let mut ratio_row = format!("{:<14}", format!("  (x Norm)"));
        for e in [1.0, 1.5, 2.0, 2.5, 3.0] {
            let mut years = Vec::new();
            let mut ratios = Vec::new();
            for w in WORKLOADS {
                let (Some(m), Some(norm)) = (find(matrix, w, policy), find(matrix, w, "Norm"))
                else {
                    continue;
                };
                let y = lifetime_under(m, e, 3.0);
                let ny = lifetime_under(norm, e, 3.0);
                if y.is_finite() && ny.is_finite() && ny > 0.0 {
                    years.push(y);
                    ratios.push(y / ny);
                }
            }
            let gy = geometric_mean(&years).unwrap_or(0.0);
            let gr = geometric_mean(&ratios).unwrap_or(0.0);
            let _ = write!(years_row, " {gy:>9.2}");
            let _ = write!(ratio_row, " {gr:>8.2}x");
        }
        s.push_str(&years_row);
        s.push('\n');
        s.push_str(&ratio_row);
        s.push('\n');
    }
    s
}

/// Fig. 18 — bank-level-parallelism sensitivity on GemsFDTD: lifetime,
/// utilization, eager writes, and issued normal writes at 16/8/4 banks.
pub fn fig18(scale: Scale, settings: &SweepSettings) -> String {
    const BANKS: [(usize, usize); 3] = [(16, 4), (8, 2), (4, 1)];
    let cells = BANKS.iter().flat_map(|&(banks, ranks)| {
        [WritePolicy::norm(), WritePolicy::be_mellow_sc()]
            .into_iter()
            .map(move |policy| {
                Cell::new("GemsFDTD", policy)
                    .with_edit(move |c| c.mem = c.mem.clone().with_banks(banks, ranks))
            })
    });
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("GemsFDTD is a Table IV name");

    let mut s = String::from("\n=== Fig. 18: GemsFDTD vs number of banks ===\n");
    let _ = writeln!(
        s,
        "{:<6} {:<14} {:>7} {:>10} {:>8} {:>12} {:>14} {:>12}",
        "banks",
        "policy",
        "IPC",
        "life(yr)",
        "util%",
        "eager-wr",
        "norm-wr-issued",
        "slow-wr-issued"
    );
    let mut rows = results.iter();
    for (banks, _) in BANKS {
        for _ in 0..2 {
            let m = &rows.next().expect("one row per cell").metrics;
            let _ = writeln!(
                s,
                "{banks:<6} {:<14} {:>7.3} {:>10.2} {:>8.2} {:>12} {:>14} {:>12}",
                m.policy,
                m.ipc,
                m.lifetime_years,
                m.avg_bank_utilization * 100.0,
                m.ctrl.eager_writes_accepted,
                m.ctrl.writes_issued_normal,
                m.ctrl.writes_issued_slow,
            );
        }
    }
    s
}

/// Fig. 19 — `BE-Mellow+SC+WQ` against the best static policy per
/// workload (the static policy with ≥ 8-year lifetime and the best
/// IPC).
pub fn fig19(static_matrix: &[Metrics], matrix: &[Metrics]) -> String {
    let mut s =
        String::from("\n=== Fig. 19: BE-Mellow+SC+WQ vs best static policy (8-year floor) ===\n");
    let _ = writeln!(
        s,
        "{:<12} {:<22} {:>10} {:>12} {:>12} {:>8}",
        "workload", "best-static", "static-IPC", "mellow-IPC", "mellow-life", "win?"
    );
    let mut wins = 0;
    let mut total = 0;
    for w in WORKLOADS {
        let dynamic = ["E-Norm+NC", "E-Slow+SC"]
            .iter()
            .filter_map(|p| find(matrix, w, p));
        let candidates = static_matrix
            .iter()
            .filter(|m| m.workload == w)
            .chain(dynamic);
        let mut best: Option<&Metrics> = None;
        for m in candidates.filter(|m| m.lifetime_years >= 8.0) {
            if best.is_none_or(|b| m.ipc > b.ipc) {
                best = Some(m);
            }
        }
        let Some(mellow) = find(matrix, w, "BE-Mellow+SC+WQ") else {
            continue;
        };
        total += 1;
        let (bname, bipc) = best.map_or(("none-meets-floor", 0.0), |m| (m.policy.as_str(), m.ipc));
        // "Outperforms or equals": treat a <=2% gap as a bar-chart tie.
        let win = mellow.ipc >= bipc * 0.98;
        wins += win as u32;
        let _ = writeln!(
            s,
            "{w:<12} {bname:<22} {bipc:>10.3} {:>12.3} {:>11.2}y {:>8}",
            mellow.ipc,
            mellow.lifetime_years,
            if win { "yes" } else { "no" },
        );
    }
    let _ = writeln!(
        s,
        "BE-Mellow+SC+WQ matches (within 2%) or beats the best static policy on \
         {wins}/{total} workloads"
    );
    s
}

/// Graded-latency extension study (`+GR`, the paper's §VI-I future
/// work): on the workloads the paper says lose to the best static
/// policy because they are latency-sensitive (hmmer, lbm, stream),
/// compare two-level BE-Mellow against the graded variant.
pub fn graded(scale: Scale, settings: &SweepSettings) -> String {
    // Write-queue pressure is what grading responds to; the 16-bank
    // default rarely builds any, so the study runs the bank-starved
    // 4-bank configuration of Fig. 18 alongside it.
    const BANKS: [(usize, usize); 2] = [(16, 4), (4, 1)];
    const GRADED_WORKLOADS: [&str; 3] = ["lbm", "stream", "libquantum"];
    let policies = || {
        [
            WritePolicy::norm(),
            WritePolicy::be_mellow_sc().with_wear_quota(),
            WritePolicy::be_mellow_sc()
                .with_wear_quota()
                .with_graded_latency(),
        ]
    };
    let cells = BANKS.iter().flat_map(|&(banks, ranks)| {
        GRADED_WORKLOADS.iter().flat_map(move |&w| {
            policies().into_iter().map(move |policy| {
                Cell::new(w, policy)
                    .with_edit(move |c| c.mem = c.mem.clone().with_banks(banks, ranks))
            })
        })
    });
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("graded study uses Table IV names");

    let mut s = String::from(
        "
=== Extension: graded multi-latency Mellow Writes (+GR, paper future work) ===
",
    );
    let _ = writeln!(
        s,
        "{:<12} {:<22} {:>7} {:>10} {:>10}",
        "workload", "policy", "IPC", "life(yr)", "slow-frac"
    );
    let mut rows = results.iter();
    for (banks, _) in BANKS {
        let _ = writeln!(s, "--- {banks} banks ---");
        for w in GRADED_WORKLOADS {
            for _ in policies() {
                let m = &rows.next().expect("one row per cell").metrics;
                let _ = writeln!(
                    s,
                    "{w:<12} {:<22} {:>7.3} {:>10.2} {:>9.1}%",
                    m.policy,
                    m.ipc,
                    m.lifetime_years,
                    m.slow_write_fraction * 100.0
                );
            }
        }
    }
    s
}

/// Calibration — measured MPKI and IPC under `Norm` vs Table IV targets,
/// read from the shared matrix's `Norm` column.
pub fn calibrate(matrix: &[Metrics]) -> String {
    let mut s = String::from("\n=== Calibration: MPKI vs Table IV (Norm policy) ===\n");
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "workload", "mpki", "target", "IPC", "util%", "drain%", "life(yr)"
    );
    for w in WORKLOADS {
        let Some(m) = find(matrix, w, "Norm") else {
            continue;
        };
        let target = mellow_workloads::WorkloadSpec::try_by_name(w)
            .map(|s| s.target_mpki)
            .unwrap_or(f64::NAN);
        let _ = writeln!(
            s,
            "{w:<12} {:>10.2} {target:>10.2} {:>8.3} {:>8.2} {:>8.2} {:>10.2}",
            m.mpki,
            m.ipc,
            m.avg_bank_utilization * 100.0,
            m.drain_fraction * 100.0,
            m.lifetime_years,
        );
    }
    s
}

/// Ablation — sensitivity of the reproduction's own design knobs (the
/// deviations documented in DESIGN.md §9): the write-cancellation
/// completion threshold and retry cap, the Eager Mellow queue depth,
/// and the cancelled-write wear-charging policy.
pub fn ablate(scale: Scale, settings: &SweepSettings) -> String {
    use mellow_nvm::CancelWear;
    let base = || Cell::new("libquantum", WritePolicy::be_mellow_sc());
    let variants: Vec<(&str, Cell)> = vec![
        ("default (thr 0.75, 4 cancels)", base()),
        (
            "always cancel (thr 1.0, unbounded)",
            base().with_edit(|c| {
                c.mem.cancel_threshold = 1.0;
                c.mem.max_cancels = u32::MAX;
            }),
        ),
        (
            "never cancel (thr 0.0)",
            base().with_edit(|c| c.mem.cancel_threshold = 0.0),
        ),
        (
            "thr 0.5",
            base().with_edit(|c| c.mem.cancel_threshold = 0.5),
        ),
        (
            "single retry (max_cancels 1)",
            base().with_edit(|c| c.mem.max_cancels = 1),
        ),
        (
            "eager queue 4",
            base().with_edit(|c| c.mem.eager_queue_cap = 4),
        ),
        (
            "eager queue 64",
            base().with_edit(|c| c.mem.eager_queue_cap = 64),
        ),
        (
            "cancel wear: full",
            base().with_edit(|c| c.cancel_wear = CancelWear::Full),
        ),
        (
            "cancel wear: none",
            base().with_edit(|c| c.cancel_wear = CancelWear::None),
        ),
        (
            "Start-Gap psi 10",
            base().with_edit(|c| {
                c.mem.leveler = LevelerConfig::start_gap(10, c.mem.spares_per_bank())
            }),
        ),
        (
            "+WP write pausing (extension)",
            base().with_edit(|c| c.policy = c.policy.with_write_pausing()),
        ),
        (
            "+WP, always yield (thr 1.0)",
            base().with_edit(|c| {
                c.policy = c.policy.with_write_pausing();
                c.mem.cancel_threshold = 1.0;
                c.mem.max_cancels = u32::MAX;
            }),
        ),
    ];
    let (labels, cells): (Vec<&str>, Vec<Cell>) = variants.into_iter().unzip();
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("libquantum is a Table IV name");

    let mut s =
        String::from("\n=== Ablation: reproduction design knobs (libquantum, BE-Mellow+SC) ===\n");
    let _ = writeln!(
        s,
        "{:<34} {:>7} {:>10} {:>11} {:>10}",
        "variant", "IPC", "life(yr)", "cancelled", "slow-frac"
    );
    for (label, r) in labels.iter().zip(&results) {
        let m = &r.metrics;
        let _ = writeln!(
            s,
            "{label:<34} {:>7.3} {:>10.2} {:>11} {:>9.1}%",
            m.ipc,
            m.lifetime_years,
            m.ctrl.writes_cancelled,
            m.slow_write_fraction * 100.0
        );
    }
    s
}

/// The fault/degradation sweep (not a paper artifact): fault rate x
/// verify-retry budget on the write-heavy `gups` workload with
/// endurance variation on, reporting verify failures, remaps,
/// uncorrectable losses, the usable-capacity fraction, and the
/// capacity-threshold lifetimes beside the first-failure projection.
pub fn faults(scale: Scale, settings: &SweepSettings) -> String {
    const WORKLOAD: &str = "gups";
    const RATES: [f64; 3] = [0.0, 0.005, 0.02];
    const BUDGETS: [u32; 3] = [0, 1, 4];
    let mut cells = Vec::new();
    for &rate in &RATES {
        for &budget in &BUDGETS {
            cells.push(
                Cell::new(WORKLOAD, WritePolicy::be_mellow_sc()).with_edit(move |c| {
                    c.mem.fault.enabled = true;
                    c.mem.fault.endurance_sigma = 0.25;
                    c.mem.fault.transient_rate = rate;
                    c.mem.max_write_retries = budget;
                    c.mem.set_spares_per_bank(4);
                }),
            );
        }
    }
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("gups is a Table IV name");

    let mut s = String::from(
        "\n=== Fault sweep: transient rate x retry budget (gups, BE-Mellow+SC, sigma 0.25) ===\n",
    );
    let _ = writeln!(
        s,
        "{:<22} {:>7} {:>7} {:>7} {:>6} {:>8} {:>9} {:>10} {:>10}",
        "variant",
        "vfails",
        "retry",
        "remaps",
        "lost",
        "usable%",
        "life(yr)",
        "cap99(yr)",
        "cap95(yr)"
    );
    for (i, r) in results.iter().enumerate() {
        let rate = RATES[i / BUDGETS.len()];
        let budget = BUDGETS[i % BUDGETS.len()];
        let m = &r.metrics;
        let f = &m.faults;
        let _ = writeln!(
            s,
            "rate {rate:<6} retries {budget} {:>7} {:>7} {:>7} {:>6} {:>7.2}% {:>9.2} {:>10.2} {:>10.2}",
            f.verify_failures,
            f.retries,
            f.remaps,
            f.uncorrectable,
            m.usable_capacity_fraction * 100.0,
            m.lifetime_years,
            m.capacity_99_years,
            m.capacity_95_years,
        );
    }
    s
}

/// The wear-leveling comparison (not a paper artifact): the three
/// `WearLeveler` implementations — Start-Gap, the WoLFRaM-style
/// programmable remap table, and the SoftWear-style page leveler —
/// under the fault-sweep operating points (endurance variation on, a
/// clean point plus transient-failure and stuck-at points from the
/// chaos grid), on the write-heavy `gups` workload. Reports lifetime,
/// the capacity-threshold projections, leveling overhead writes and
/// migrations, and the fault counters.
///
/// Like the chaos grid (and the `sample_period` scaling everywhere
/// else), the cells shrink the memory to 4 MiB and the rotation
/// intervals by 10x so a short measured window spans many leveling
/// rounds and actually lands on stuck-at blocks; the relative overhead
/// of the three schemes (1 copy per Ψ for Start-Gap, 2 per interval
/// for WoLFRaM, 2 pages per epoch for SoftWear) is preserved. A device
/// that small wears out in about a day, so lifetimes print in days.
pub fn leveling(scale: Scale, settings: &SweepSettings) -> String {
    const WORKLOAD: &str = "gups";
    const LEVELERS: [(&str, LevelerConfig); 3] = [
        (
            "start-gap",
            LevelerConfig::StartGap {
                gap_interval: 10,
                spares_per_bank: 4,
            },
        ),
        (
            "wolfram",
            LevelerConfig::Wolfram {
                remap_interval: 10,
                spares_per_bank: 4,
            },
        ),
        (
            // 8-block pages at a 160-write epoch: the same 10%
            // relative overhead as the scaled Start-Gap/WoLFRaM knobs
            // (2 x 8 copies per 160 writes), reachable within a short
            // measured window.
            "softwear",
            LevelerConfig::SoftWear {
                epoch_writes: 160,
                page_blocks: 8,
                spares_per_bank: 4,
            },
        ),
    ];
    // Fault operating points from the PR5 chaos grid: a clean run, a
    // transient-failure point, and a stuck-at point, all with endurance
    // variation on and a 1-retry budget so remaps actually happen.
    const POINTS: [(&str, f64, u64); 3] = [
        ("clean", 0.0, 0),
        ("transient 0.02", 0.02, 0),
        ("stuck-at 16", 0.0, 16),
    ];
    let mut cells = Vec::new();
    for &(_, leveler) in &LEVELERS {
        for &(_, rate, stuck) in &POINTS {
            cells.push(
                Cell::new(WORKLOAD, WritePolicy::be_mellow_sc()).with_edit(move |c| {
                    c.mem.capacity_bytes = 4 << 20;
                    c.mem.leveler = leveler;
                    c.mem.fault.enabled = true;
                    c.mem.fault.endurance_sigma = 0.25;
                    c.mem.fault.transient_rate = rate;
                    c.mem.fault.stuck_at_per_bank = stuck;
                    c.mem.max_write_retries = 1;
                }),
            );
        }
    }
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("gups is a Table IV name");

    let mut s = String::from(
        "\n=== Leveling sweep: WearLeveler implementations x fault points (gups, BE-Mellow+SC, sigma 0.25) ===\n",
    );
    let _ = writeln!(
        s,
        "{:<26} {:>9} {:>10} {:>8} {:>7} {:>7} {:>6} {:>8} {:>10}",
        "variant",
        "life(d)",
        "cap99(d)",
        "ovhd-wr",
        "migr",
        "vfails",
        "lost",
        "usable%",
        "slow-frac"
    );
    let days_per_year = SECONDS_PER_YEAR / 86_400.0;
    for (i, r) in results.iter().enumerate() {
        let (lname, _) = LEVELERS[i / POINTS.len()];
        let (pname, _, _) = POINTS[i % POINTS.len()];
        let m = &r.metrics;
        let f = &m.faults;
        let lv = &m.leveling;
        let _ = writeln!(
            s,
            "{lname:<9} {pname:<16} {:>9.2} {:>10.2} {:>8} {:>7} {:>7} {:>6} {:>7.2}% {:>9.1}%",
            m.lifetime_years * days_per_year,
            m.capacity_99_years * days_per_year,
            lv.overhead_writes,
            lv.migrations,
            f.verify_failures,
            f.uncorrectable,
            m.usable_capacity_fraction * 100.0,
            m.slow_write_fraction * 100.0,
        );
    }
    s
}

/// The retention/scrub sweep (not a paper artifact): drift rate (base
/// retention) x scrub interval x slow-write policy on the write-heavy
/// `gups` workload, with the fault layer armed so retention repairs
/// can themselves fail and walk the remap/degradation path. Reports
/// demand-read detections, scrub activity, repairs, retention losses,
/// and the usable-capacity fraction; slow pulses widen the drift
/// window (`slow_write_boost`), so the BE-Mellow+SC rows show the
/// retention benefit of slow write backs beside the plain-fast
/// baseline at the same drift rate.
///
/// Like the leveling sweep, the cells shrink the memory — to 1 MiB
/// here, so a full scrub sweep (blocks-per-bank x interval) completes
/// inside a short measured window and the cursor actually revisits
/// written blocks after their deadline; a zero interval disables the
/// scrubber (demand-read detection only), isolating its contribution.
pub fn retention(scale: Scale, settings: &SweepSettings) -> String {
    use mellow_engine::Duration;

    const WORKLOAD: &str = "gups";
    /// Base retention in microseconds: smaller = faster drift.
    const DRIFTS_US: [u64; 2] = [50, 10];
    /// Scrub interval in nanoseconds; 0 disables the scrubber.
    const SCRUBS_NS: [u64; 3] = [0, 200, 2_000];
    let policies: [(&str, WritePolicy); 2] = [
        ("Norm", WritePolicy::norm()),
        ("BE-Mellow+SC", WritePolicy::be_mellow_sc()),
    ];
    let mut cells = Vec::new();
    for &base_us in &DRIFTS_US {
        for &scrub_ns in &SCRUBS_NS {
            for &(_, policy) in &policies {
                cells.push(Cell::new(WORKLOAD, policy).with_edit(move |c| {
                    c.mem.capacity_bytes = 1 << 20;
                    c.mem.retention.enabled = true;
                    c.mem.retention.base_retention = Duration::from_us(base_us);
                    c.mem.retention.drift_sigma = 0.3;
                    c.mem.retention.slow_write_boost = 2.0;
                    c.mem.retention.wear_sensitivity = 1.0;
                    c.mem.scrub_interval = Duration::from_ns(scrub_ns);
                    c.mem.fault.enabled = true;
                    c.mem.fault.endurance_sigma = 0.25;
                    c.mem.fault.transient_rate = 0.02;
                    c.mem.max_write_retries = 1;
                    c.mem.set_spares_per_bank(4);
                }));
            }
        }
    }
    let results = settings
        .apply(Sweep::new(scale).cells(cells))
        .run()
        .expect("gups is a Table IV name");

    let mut s = String::from(
        "\n=== Retention sweep: drift rate x scrub interval x policy (gups, sigma 0.3, boost 2.0) ===\n",
    );
    let _ = writeln!(
        s,
        "{:<34} {:>7} {:>9} {:>8} {:>7} {:>8} {:>8} {:>8} {:>10}",
        "variant",
        "dverify",
        "scrub-rd",
        "scrub-rw",
        "repair",
        "ret-lost",
        "conflict",
        "usable%",
        "slow-frac"
    );
    let mut ret_total = mellow_memctrl::RetentionStats::default();
    let mut scrub_total = mellow_memctrl::ScrubStats::default();
    let per_drift = SCRUBS_NS.len() * policies.len();
    for (i, r) in results.iter().enumerate() {
        let base_us = DRIFTS_US[i / per_drift];
        let scrub_ns = SCRUBS_NS[(i / policies.len()) % SCRUBS_NS.len()];
        let (pname, _) = policies[i % policies.len()];
        let m = &r.metrics;
        let ret = &m.retention;
        let sc = &m.scrub;
        ret_total.demand_verify_failures += ret.demand_verify_failures;
        ret_total.repairs += ret.repairs;
        ret_total.retention_uncorrectable += ret.retention_uncorrectable;
        scrub_total.scrub_reads += sc.scrub_reads;
        scrub_total.scrub_rewrites += sc.scrub_rewrites;
        let _ = writeln!(
            s,
            "base {base_us:>3}us scrub {scrub_ns:>5}ns {pname:<12} {:>7} {:>9} {:>8} {:>7} {:>8} {:>8} {:>7.2}% {:>9.1}%",
            ret.demand_verify_failures,
            sc.scrub_reads,
            sc.scrub_rewrites,
            ret.repairs,
            ret.retention_uncorrectable,
            sc.scrub_bank_conflicts,
            m.usable_capacity_fraction * 100.0,
            m.slow_write_fraction * 100.0,
        );
    }
    let _ = writeln!(
        s,
        "totals: {} demand detections, {} scrub reads, {} scrub rewrites, {} repairs, {} lost",
        ret_total.demand_verify_failures,
        scrub_total.scrub_reads,
        scrub_total.scrub_rewrites,
        ret_total.repairs,
        ret_total.retention_uncorrectable,
    );
    s
}
