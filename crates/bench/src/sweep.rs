//! The parallel, cached experiment sweep — the engine behind every
//! simulation-backed table and figure.
//!
//! A [`Sweep`] takes any iterator of [`Cell`]s (a workload/policy pair
//! plus optional config edits and seed), builds each into an
//! [`Experiment`] at a given [`Scale`], and executes the cells on a
//! pool of worker threads. Each cell is an independently-seeded,
//! self-contained simulation, so results are bit-identical to running
//! the same cells sequentially — the thread count changes wall-clock
//! time, never numbers.
//!
//! With a [`ResultStore`] attached, finished cells are flushed to disk
//! as they complete and looked up before simulating, so repeated and
//! interrupted sweeps only pay for cells they have not already run.
//!
//! # Examples
//!
//! ```no_run
//! use mellow_bench::{Cell, Scale, Sweep};
//! use mellow_core::WritePolicy;
//!
//! let results = Sweep::new(Scale::quick())
//!     .cells(["lbm", "gups"].map(|w| Cell::new(w, WritePolicy::be_mellow_sc())))
//!     .threads(4)
//!     .store("target/sweep-cache.jsonl")
//!     .run()
//!     .unwrap();
//! for r in &results {
//!     println!("{} {}", if r.cached { "cached" } else { "ran" }, r.metrics.summary());
//! }
//! ```

use crate::{try_experiment_for, CellKey, ResultStore, Scale, StoreError};
use mellow_core::WritePolicy;
use mellow_sim::{Experiment, Metrics, SystemConfig};
use mellow_workloads::UnknownWorkload;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A configuration edit applied to a cell's [`SystemConfig`] after the
/// scale defaults, in the order added.
pub type ConfigEdit = Box<dyn Fn(&mut SystemConfig) + Send + Sync>;

/// One point of a sweep: a workload/policy pair, optional configuration
/// edits, and an optional seed override.
pub struct Cell {
    /// Table IV workload name (validated when the sweep runs).
    pub workload: String,
    /// Write policy for this cell.
    pub policy: WritePolicy,
    /// Config edits, applied in order after the scale's defaults.
    pub config_edits: Vec<ConfigEdit>,
    /// Master-seed override; `None` keeps the config default.
    pub seed: Option<u64>,
}

impl Cell {
    /// Creates a cell with no config edits and the default seed.
    pub fn new(workload: impl Into<String>, policy: WritePolicy) -> Cell {
        Cell {
            workload: workload.into(),
            policy,
            config_edits: Vec::new(),
            seed: None,
        }
    }

    /// Overrides the master seed for this cell.
    pub fn with_seed(mut self, seed: u64) -> Cell {
        self.seed = Some(seed);
        self
    }

    /// Adds a configuration edit (bank count, endurance exponent, …).
    pub fn with_edit<F: Fn(&mut SystemConfig) + Send + Sync + 'static>(mut self, f: F) -> Cell {
        self.config_edits.push(Box::new(f));
        self
    }

    /// Builds the experiment this cell describes at `scale`.
    fn build(&self, scale: Scale) -> Result<Experiment, UnknownWorkload> {
        let mut e = try_experiment_for(&self.workload, self.policy, scale)?;
        if let Some(seed) = self.seed {
            e = e.seed(seed);
        }
        for edit in &self.config_edits {
            e = e.configure(|c| edit(c));
        }
        Ok(e)
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("workload", &self.workload)
            .field("policy", &self.policy)
            .field("config_edits", &self.config_edits.len())
            .field("seed", &self.seed)
            .finish()
    }
}

/// One finished cell of a sweep, in the order the cells were added.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Whether the row came from the store instead of a simulation.
    pub cached: bool,
    /// The measured row.
    pub metrics: Metrics,
}

/// Why a sweep could not run.
#[derive(Debug)]
pub enum SweepError {
    /// A cell named a workload outside the Table IV presets.
    UnknownWorkload(UnknownWorkload),
    /// The result store failed to open or append.
    Store(StoreError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UnknownWorkload(e) => write!(f, "{e}"),
            SweepError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::UnknownWorkload(e) => Some(e),
            SweepError::Store(e) => Some(e),
        }
    }
}

impl From<UnknownWorkload> for SweepError {
    fn from(e: UnknownWorkload) -> SweepError {
        SweepError::UnknownWorkload(e)
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> SweepError {
        SweepError::Store(e)
    }
}

/// Builder for a parallel, optionally-cached batch of experiments.
///
/// See the [crate docs](crate) for the full picture; the life of a
/// sweep is `Sweep::new(scale).cells(…)` plus any of:
///
/// - [`threads`](Sweep::threads) — worker count (defaults to the
///   machine's available parallelism),
/// - [`store`](Sweep::store) — attach a [`ResultStore`] for caching
///   and kill-resume,
/// - [`quiet`](Sweep::quiet) — suppress stderr progress lines,
///
/// then [`run`](Sweep::run).
pub struct Sweep {
    scale: Scale,
    cells: Vec<Cell>,
    threads: usize,
    store_path: Option<PathBuf>,
    progress: bool,
}

impl Sweep {
    /// Creates an empty sweep at `scale`.
    pub fn new(scale: Scale) -> Sweep {
        Sweep {
            scale,
            cells: Vec::new(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            store_path: None,
            progress: true,
        }
    }

    /// Appends every cell of `iter`, preserving order.
    pub fn cells<I: IntoIterator<Item = Cell>>(mut self, iter: I) -> Sweep {
        self.cells.extend(iter);
        self
    }

    /// Appends one cell.
    pub fn cell(mut self, cell: Cell) -> Sweep {
        self.cells.push(cell);
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn threads(mut self, n: usize) -> Sweep {
        self.threads = n.max(1);
        self
    }

    /// Attaches a JSON-lines [`ResultStore`] at `path`: cached cells
    /// are not re-simulated, and finished cells are flushed to disk as
    /// they complete.
    pub fn store(mut self, path: impl Into<PathBuf>) -> Sweep {
        self.store_path = Some(path.into());
        self
    }

    /// Suppresses the per-cell stderr progress lines.
    pub fn quiet(mut self) -> Sweep {
        self.progress = false;
        self
    }

    /// Builds every cell, replays the cached ones, runs the rest on the
    /// worker pool, and returns one [`CellResult`] per cell in input
    /// order.
    ///
    /// Fails fast — before any simulation starts — if a cell names an
    /// unknown workload or the store cannot be opened.
    pub fn run(self) -> Result<Vec<CellResult>, SweepError> {
        let mut store = self.store_path.map(ResultStore::open).transpose()?;

        // Build + partition: cached cells resolve immediately, the rest
        // become jobs for the worker pool.
        struct Job {
            slot: usize,
            experiment: Experiment,
            key: CellKey,
        }
        let mut results: Vec<Option<CellResult>> = Vec::with_capacity(self.cells.len());
        results.resize_with(self.cells.len(), || None);
        let mut jobs = Vec::new();
        for (slot, cell) in self.cells.iter().enumerate() {
            let experiment = cell.build(self.scale)?;
            let key = CellKey::for_experiment(&experiment);
            match store.as_ref().and_then(|s| s.get(&key)) {
                Some(metrics) => {
                    results[slot] = Some(CellResult {
                        cached: true,
                        metrics: metrics.clone(),
                    });
                }
                None => jobs.push(Job {
                    slot,
                    experiment,
                    key,
                }),
            }
        }
        let cached = self.cells.len() - jobs.len();
        if self.progress && cached > 0 {
            eprintln!(
                "replaying {cached} cached cell{} from {}",
                if cached == 1 { "" } else { "s" },
                store
                    .as_ref()
                    .map_or_else(String::new, |s| s.path().display().to_string()),
            );
        }

        // Workers pull jobs off a shared index and report finished rows
        // over a channel; this thread is the single reporter, printing
        // progress and flushing the store, so output never interleaves
        // and a kill loses at most the cells still in flight.
        let total = jobs.len();
        if total > 0 {
            let start = Instant::now();
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Metrics)>();
            let store_result: Result<(), StoreError> = std::thread::scope(|scope| {
                let jobs = &jobs;
                let next = &next;
                for _ in 0..self.threads.min(total) {
                    let tx = tx.clone();
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let metrics = job.experiment.run();
                        if tx.send((i, metrics)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                let mut done = 0usize;
                for (i, metrics) in rx {
                    done += 1;
                    if let Some(store) = store.as_mut() {
                        store.insert(&jobs[i].key, &metrics)?;
                    }
                    if self.progress {
                        let elapsed = start.elapsed();
                        let eta = elapsed.mul_f64((total - done) as f64 / done as f64);
                        eprintln!(
                            "[{done}/{total}] {} ({}, eta {})",
                            metrics.summary(),
                            fmt_duration(elapsed),
                            fmt_duration(eta),
                        );
                    }
                    results[jobs[i].slot] = Some(CellResult {
                        cached: false,
                        metrics,
                    });
                }
                Ok(())
            });
            store_result?;
        }
        // Leave the cache in canonical sorted-key form: whatever order
        // the workers finished in, a re-run of the same sweep now
        // produces a byte-identical file.
        if let Some(store) = store.as_mut() {
            store.compact()?;
        }

        Ok(results
            .into_iter()
            .map(|r| r.expect("every cell is either cached or executed"))
            .collect())
    }
}

/// Caller-facing sweep options (thread count, cache location) that the
/// figure generators thread down from the `figures` CLI to every sweep
/// they launch.
#[derive(Debug, Clone, Default)]
pub struct SweepSettings {
    /// Worker-thread override; `None` uses available parallelism.
    pub threads: Option<usize>,
    /// Result-store path; `None` disables caching.
    pub store: Option<PathBuf>,
}

impl SweepSettings {
    /// Applies these settings to a sweep under construction.
    pub fn apply(&self, mut sweep: Sweep) -> Sweep {
        if let Some(n) = self.threads {
            sweep = sweep.threads(n);
        }
        if let Some(path) = &self.store {
            sweep = sweep.store(path);
        }
        sweep
    }
}

impl fmt::Debug for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sweep")
            .field("scale", &self.scale)
            .field("cells", &self.cells.len())
            .field("threads", &self.threads)
            .field("store_path", &self.store_path)
            .finish()
    }
}

fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs < 60.0 {
        format!("{secs:.1}s")
    } else if secs < 3600.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else {
        format!(
            "{}h{:02}m",
            (secs / 3600.0) as u64,
            ((secs % 3600.0) / 60.0) as u64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scale small enough for multi-cell tests: high-MPKI workloads
    /// fill the shrunken warm-up quickly.
    fn tiny() -> Scale {
        Scale {
            measure: 25_000,
            min_warmup: 5_000,
            llc_fills: 0.02,
            sample_period: mellow_engine::Duration::from_us(10),
        }
    }

    fn tiny_cells() -> Vec<Cell> {
        ["lbm", "mcf"]
            .iter()
            .flat_map(|w| {
                [WritePolicy::norm(), WritePolicy::be_mellow_sc()]
                    .into_iter()
                    .map(|p| Cell::new(*w, p).with_seed(42))
            })
            .collect()
    }

    fn temp_store(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mellow-sweep-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn unknown_workload_fails_before_running() {
        let err = Sweep::new(tiny())
            .cell(Cell::new("quake", WritePolicy::norm()))
            .quiet()
            .run()
            .unwrap_err();
        match err {
            SweepError::UnknownWorkload(e) => assert_eq!(e.requested, "quake"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let seq = Sweep::new(tiny())
            .cells(tiny_cells())
            .threads(1)
            .quiet()
            .run()
            .unwrap();
        let par = Sweep::new(tiny())
            .cells(tiny_cells())
            .threads(4)
            .quiet()
            .run()
            .unwrap();
        assert_eq!(seq.len(), 4);
        assert_eq!(par.len(), seq.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.metrics.workload, p.metrics.workload);
            assert_eq!(s.metrics.policy, p.metrics.policy);
            assert_eq!(s.metrics.ipc.to_bits(), p.metrics.ipc.to_bits());
            assert_eq!(
                s.metrics.total_wear.to_bits(),
                p.metrics.total_wear.to_bits()
            );
            assert_eq!(s.metrics.ctrl, p.metrics.ctrl);
        }
    }

    #[test]
    fn warm_store_runs_zero_simulations() {
        let path = temp_store("warm");
        let _ = std::fs::remove_file(&path);
        let cold = Sweep::new(tiny())
            .cells(tiny_cells())
            .store(&path)
            .quiet()
            .run()
            .unwrap();
        assert!(cold.iter().all(|r| !r.cached));
        let warm = Sweep::new(tiny())
            .cells(tiny_cells())
            .store(&path)
            .quiet()
            .run()
            .unwrap();
        assert!(warm.iter().all(|r| r.cached));
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.metrics.ipc.to_bits(), w.metrics.ipc.to_bits());
            assert_eq!(c.metrics.ctrl, w.metrics.ctrl);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_results() {
        let path = temp_store("resume");
        let _ = std::fs::remove_file(&path);
        let reference = Sweep::new(tiny())
            .cells(tiny_cells())
            .quiet()
            .run()
            .unwrap();
        // "Kill" a sweep after two cells: run only a prefix, then
        // corrupt the tail as an in-flight append would.
        let partial_cells: Vec<Cell> = tiny_cells().into_iter().take(2).collect();
        Sweep::new(tiny())
            .cells(partial_cells)
            .store(&path)
            .quiet()
            .run()
            .unwrap();
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"key\": \"dead\", \"metri").unwrap();
        }
        let resumed = Sweep::new(tiny())
            .cells(tiny_cells())
            .store(&path)
            .quiet()
            .run()
            .unwrap();
        assert_eq!(resumed.iter().filter(|r| r.cached).count(), 2);
        assert_eq!(resumed.iter().filter(|r| !r.cached).count(), 2);
        for (a, b) in reference.iter().zip(&resumed) {
            assert_eq!(a.metrics.ipc.to_bits(), b.metrics.ipc.to_bits());
            assert_eq!(
                a.metrics.total_wear.to_bits(),
                b.metrics.total_wear.to_bits()
            );
            assert_eq!(a.metrics.ctrl, b.metrics.ctrl);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn seeds_and_edits_reach_the_experiment() {
        let scale = tiny();
        let cell = Cell::new("gups", WritePolicy::norm())
            .with_seed(7)
            .with_edit(|c| c.mem = c.mem.clone().with_banks(4, 1));
        let e = cell.build(scale).unwrap();
        assert_eq!(e.config().seed, 7);
        assert_eq!(e.config().mem.num_banks, 4);
    }

    #[test]
    fn parallel_results_keep_input_order() {
        let results = Sweep::new(tiny())
            .cells(tiny_cells())
            .threads(4)
            .quiet()
            .run()
            .unwrap();
        assert_eq!(results[0].metrics.workload, "lbm");
        assert_eq!(results[0].metrics.policy, WritePolicy::norm().to_string());
        assert_eq!(results[3].metrics.workload, "mcf");
        assert_eq!(
            results[3].metrics.policy,
            WritePolicy::be_mellow_sc().to_string()
        );
    }

    #[test]
    fn durations_format_readably() {
        assert_eq!(fmt_duration(Duration::from_millis(12_340)), "12.3s");
        assert_eq!(fmt_duration(Duration::from_secs(192)), "3m12s");
        assert_eq!(fmt_duration(Duration::from_secs(3_725)), "1h02m");
    }
}
