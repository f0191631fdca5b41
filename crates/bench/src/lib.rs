//! Benchmark harness regenerating every table and figure of the Mellow
//! Writes evaluation.
//!
//! The entry point is the `figures` binary:
//!
//! ```text
//! cargo run -p mellow-bench --release --bin figures -- all
//! cargo run -p mellow-bench --release --bin figures -- fig11 --full --threads 8
//! cargo run -p mellow-bench --release --bin figures -- calibrate --no-cache
//! ```
//!
//! Each `figN`/`tabN` subcommand prints the same rows/series the paper
//! reports (see DESIGN.md §4 for the experiment index). Simulation-based
//! figures accept `--quick` (default) or `--full` scale; analytic
//! artifacts (Fig. 1, Tables V/VI) are exact either way.
//!
//! Simulations run through [`Sweep`]: a parallel, deterministic batch
//! runner backed by a JSON-lines [`ResultStore`], so repeated or
//! interrupted invocations only simulate cells they have not already
//! finished (`--no-cache` opts out; `--store PATH` relocates the
//! cache).

pub mod figures;
mod runner;
mod store;
mod sweep;
pub mod trajectory;

pub use runner::{
    compare_system_loops, microbench_system_loops, try_experiment_for, LoopComparison, MatrixKey,
    Scale,
};
pub use store::{CellKey, ResultStore, StoreError};
pub use sweep::{into_matrix, Cell, CellResult, ConfigEdit, Sweep, SweepError, SweepSettings};
