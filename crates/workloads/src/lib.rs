//! Synthetic, seeded memory-trace generators for the Mellow Writes
//! evaluation.
//!
//! The paper evaluates nine memory-intensive SPEC2006 benchmarks plus
//! GUPS and stream (Table IV). SPEC binaries and traces cannot be
//! redistributed, so this crate provides *synthetic* generators modelled
//! on each benchmark's published memory behaviour and calibrated to the
//! paper's MPKI (LLC misses per 1000 instructions with a 2 MB LLC):
//!
//! | workload | MPKI | character |
//! |----------|------|-----------|
//! | leslie3d | 5.95 | multi-stream stencil |
//! | GemsFDTD | 15.34 | many-stream FDTD sweep |
//! | libquantum | 30.12 | single hot stream |
//! | stream | 12.28 | 3-stream copy/add kernel |
//! | hmmer | 1.34 | cache-resident, store-heavy |
//! | zeusmp | 4.53 | streams + scattered accesses |
//! | bwaves | 5.58 | block-structured streams |
//! | gups | 8.91 | random read-modify-write |
//! | milc | 19.49 | scattered lattice accesses |
//! | mcf | 56.34 | dependent pointer chasing |
//! | lbm | 31.72 | streaming, write-heavy |
//!
//! What the generators preserve (and what the paper's mechanisms
//! exploit): miss rate, read/write mix, spatial pattern (hence bank
//! spread and row-buffer behaviour), memory-level parallelism (dependent
//! loads serialize misses), and dirty-line lifetime in the LLC.
//!
//! # Examples
//!
//! ```
//! use mellow_cpu::TraceSource;
//! use mellow_workloads::{SyntheticWorkload, WorkloadSpec};
//!
//! let spec = WorkloadSpec::by_name("gups").unwrap();
//! let mut trace = SyntheticWorkload::new(spec, 42);
//! let rec = trace.next_record();
//! assert!(rec.instructions() > 0);
//! ```

mod spec;
mod synth;

pub use spec::{AccessPattern, UnknownWorkload, WorkloadSpec};
pub use synth::SyntheticWorkload;
