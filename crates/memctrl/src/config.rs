//! Memory-system configuration (Table II of the paper).

use mellow_engine::{Clock, Duration};
use mellow_nvm::{FaultConfig, LevelerConfig, RetentionConfig};

/// Geometry and timing of the resistive main memory (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Memory channel clock (400 MHz).
    pub clock: Clock,
    /// Total capacity in bytes. The paper does not state capacity; 16 GiB
    /// puts `Norm` lifetimes of write-heavy workloads in the paper's
    /// single-digit-years range (see DESIGN.md).
    pub capacity_bytes: u64,
    /// Number of banks (Table II: 4, 8 or 16; default 16).
    pub num_banks: usize,
    /// Number of ranks the banks spread over (1, 2 or 4; default 4).
    pub num_ranks: usize,
    /// Cache-line (memory write block) size in bytes.
    pub line_bytes: u64,
    /// Row size per bank in bytes (16 KB).
    pub row_bytes: u64,
    /// Row-to-column activate delay (48 memory cycles = 120 ns).
    pub t_rcd: Duration,
    /// Column access latency (1 cycle = 2.5 ns).
    pub t_cas: Duration,
    /// Four-activation window per rank (50 ns).
    pub t_faw: Duration,
    /// Normal write pulse time (60 cycles = 150 ns).
    pub t_wp: Duration,
    /// Line transfer time on the 64-bit 400 MHz data bus (20 ns / 64 B).
    pub t_bus: Duration,
    /// Read queue capacity (32, highest priority).
    pub read_queue_cap: usize,
    /// Write queue capacity (32, middle priority).
    pub write_queue_cap: usize,
    /// Eager Mellow queue capacity (16, lowest priority).
    pub eager_queue_cap: usize,
    /// Write-drain trigger occupancy (32 = full queue).
    pub drain_high: usize,
    /// Write-drain release occupancy (16).
    pub drain_low: usize,
    /// Wear Quota sample period (`T_sample`, 500 µs in the paper).
    /// Scaled-down simulations shrink it proportionally so quota
    /// dynamics span many periods within the measured window.
    pub sample_period: Duration,
    /// Write-cancellation completion threshold (Qureshi et al.,
    /// HPCA'10): an in-flight write whose pulse is at least this
    /// fraction complete is allowed to finish rather than cancel.
    /// Bounds the wasted wear of cancel/retry churn.
    pub cancel_threshold: f64,
    /// Maximum cancellations per write; after this many aborted
    /// attempts the write runs to completion (prevents livelock under a
    /// steady read stream).
    pub max_cancels: u32,
    /// Wear-leveling scheme and its knobs (gap/rotation interval,
    /// spare-pool size). Replaces the old `startgap_interval` and
    /// `spares_per_bank` scalars; the default is Start-Gap at the
    /// paper's Ψ = 100 with 8 spares per bank, exactly as before.
    pub leveler: LevelerConfig,
    /// Wear-leveling efficiency η used for lifetime projection.
    pub leveling_efficiency: f64,
    /// Write-verify retry budget: a write whose verify fails is retried
    /// up to this many times (each retry charges wear and bank busy
    /// time) before its block is remapped to a spare.
    pub max_write_retries: u32,
    /// Fault-injection layer (endurance variation, stuck-at blocks,
    /// transient write failures). Disabled by default: no fault state
    /// is constructed and the controller is bit-identical to a
    /// faultless build.
    pub fault: FaultConfig,
    /// Retention-drift layer (per-block drift deadlines, widened by
    /// slow pulses, narrowed by wear). Disabled by default: no drift
    /// state is constructed and the read path is bit-identical to a
    /// drift-free build.
    pub retention: RetentionConfig,
    /// Time between background scrub visits per bank. The scrubber is
    /// active only when retention is enabled *and* this is non-zero;
    /// each visit reads one block at the bank's scrub pointer during an
    /// idle-bank window and rewrites it if its drift deadline passed.
    pub scrub_interval: Duration,
    /// Arbitration between a due scrub visit and a queued eager write
    /// contending for the same idle-bank window.
    pub scrub_priority: ScrubPriority,
    /// Base backoff a verify-failed repair rewrite waits before
    /// re-entering its queue, doubling per consumed retry (so retry
    /// storms spread across memory-clock edges instead of hammering
    /// the same ones). `ZERO` retries immediately, like ordinary
    /// verify-failed writes.
    pub repair_backoff: Duration,
}

/// Who wins an idle-bank window when a due scrub visit and a queued
/// eager write both want it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubPriority {
    /// Eager writebacks keep their PR-era priority; the scrubber only
    /// gets banks with no queued work at all (the default).
    EagerFirst,
    /// A due scrub visit preempts eager writebacks (demand writes still
    /// win): retention repair is favored over wear-motivated early
    /// writebacks.
    ScrubFirst,
}

impl MemConfig {
    /// The paper's default 16-bank configuration.
    pub fn paper_default() -> Self {
        MemConfig {
            clock: Clock::from_mhz(400),
            capacity_bytes: 16 << 30,
            num_banks: 16,
            num_ranks: 4,
            line_bytes: 64,
            row_bytes: 16 << 10,
            t_rcd: Duration::from_ns(120),
            t_cas: Duration::from_ps(2500),
            t_faw: Duration::from_ns(50),
            t_wp: Duration::from_ns(150),
            t_bus: Duration::from_ns(20),
            read_queue_cap: 32,
            write_queue_cap: 32,
            eager_queue_cap: 16,
            drain_high: 32,
            drain_low: 16,
            sample_period: Duration::from_us(500),
            cancel_threshold: 0.75,
            max_cancels: 4,
            leveler: LevelerConfig::start_gap_default(),
            leveling_efficiency: 0.9,
            max_write_retries: 2,
            fault: FaultConfig::disabled(),
            retention: RetentionConfig::disabled(),
            scrub_interval: Duration::from_us(100),
            scrub_priority: ScrubPriority::EagerFirst,
            repair_backoff: Duration::from_ns(20),
        }
    }

    /// The 8-bank / 2-rank variant of the bank-parallelism study
    /// (Fig. 18).
    pub fn with_banks(mut self, banks: usize, ranks: usize) -> Self {
        self.num_banks = banks;
        self.num_ranks = ranks;
        self
    }

    /// Returns the number of 64 B lines the memory holds.
    pub fn total_lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes
    }

    /// Returns lines per row (row-buffer reach of one activation).
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / self.line_bytes
    }

    /// Returns memory blocks (lines) per bank — the paper's
    /// `BlkNum_bank`.
    pub fn blocks_per_bank(&self) -> u64 {
        self.total_lines() / self.num_banks as u64
    }

    /// Maps a global line index to `(bank, row, logical block within
    /// bank)`.
    ///
    /// Consecutive lines interleave across banks (maximizing bank-level
    /// parallelism for streams) while consecutive per-bank lines share a
    /// row (preserving row-buffer locality) — the conventional
    /// NVMain-style layout.
    pub fn map_line(&self, line: u64) -> LineMapping {
        let line = line % self.total_lines();
        let bank = (line % self.num_banks as u64) as usize;
        let idx = line / self.num_banks as u64;
        let lpr = self.lines_per_row();
        LineMapping {
            bank,
            row: idx / lpr,
            block: idx,
        }
    }

    /// Returns the rank a bank belongs to.
    pub fn rank_of(&self, bank: usize) -> usize {
        bank % self.num_ranks
    }

    /// Spare blocks per bank backing the verify/retry/remap path,
    /// whichever layer owns the pool (back-compat accessor for the old
    /// `spares_per_bank` field).
    pub fn spares_per_bank(&self) -> u64 {
        self.leveler.spares_per_bank()
    }

    /// Resizes the per-bank spare pool, keeping the leveling scheme
    /// (back-compat setter for the old `spares_per_bank` field).
    pub fn set_spares_per_bank(&mut self, spares: u64) {
        self.leveler.set_spares_per_bank(spares);
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration.
    pub fn validate(&self) {
        assert!(self.num_banks > 0, "bank count must be non-zero");
        assert!(self.num_ranks > 0, "rank count must be non-zero");
        assert_eq!(
            self.num_banks % self.num_ranks,
            0,
            "banks must divide evenly into ranks"
        );
        assert!(self.line_bytes.is_power_of_two(), "line size power of two");
        assert!(
            self.row_bytes.is_multiple_of(self.line_bytes),
            "rows must hold whole lines"
        );
        assert!(
            self.total_lines().is_multiple_of(self.num_banks as u64),
            "lines must divide evenly across banks"
        );
        assert!(
            self.drain_low < self.drain_high && self.drain_high <= self.write_queue_cap,
            "drain thresholds must satisfy low < high <= capacity"
        );
        assert!(
            self.leveling_efficiency > 0.0 && self.leveling_efficiency <= 1.0,
            "leveling efficiency in (0, 1]"
        );
        assert!(
            self.sample_period > Duration::ZERO,
            "sample period must be non-zero"
        );
        assert!(
            (0.0..=1.0).contains(&self.cancel_threshold),
            "cancel threshold must be in [0, 1]"
        );
        self.leveler.validate();
        if let LevelerConfig::SoftWear { page_blocks, .. } = self.leveler {
            assert!(
                self.blocks_per_bank().is_multiple_of(page_blocks),
                "SoftWear page size must divide the bank block count"
            );
        }
        self.fault.validate();
        self.retention.validate();
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Where a line lives: `(bank, row, logical block within the bank)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMapping {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Logical block index within the bank (pre-Start-Gap).
    pub block: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_consistent() {
        let c = MemConfig::paper_default();
        c.validate();
        assert_eq!(c.lines_per_row(), 256);
        assert_eq!(c.total_lines(), (16u64 << 30) / 64);
        assert_eq!(c.blocks_per_bank(), (16u64 << 30) / 64 / 16);
    }

    #[test]
    fn sequential_lines_interleave_across_banks_preserving_rows() {
        let c = MemConfig::paper_default();
        // Consecutive lines spread across all 16 banks...
        for i in 0..16u64 {
            assert_eq!(c.map_line(i).bank, i as usize);
        }
        // ...and a bank's consecutive lines stay in one row for 256
        // visits (16 KB row / 64 B lines).
        let a = c.map_line(0);
        let b = c.map_line(16);
        let far = c.map_line(16 * 256);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, far.bank);
        assert_ne!(a.row, far.row);
    }

    #[test]
    fn mapping_is_injective_over_a_window() {
        let mut c = MemConfig::paper_default();
        c.capacity_bytes = 1 << 20; // small for an exhaustive check
        c.validate();
        let mut seen = std::collections::HashSet::new();
        for line in 0..c.total_lines() {
            let m = c.map_line(line);
            assert!(
                seen.insert((m.bank, m.block)),
                "duplicate mapping for line {line}"
            );
            assert!(m.block < c.blocks_per_bank());
            assert!(m.bank < c.num_banks);
        }
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let c = MemConfig::paper_default();
        assert_eq!(c.map_line(0), c.map_line(c.total_lines()));
    }

    #[test]
    fn rank_assignment_round_robins() {
        let c = MemConfig::paper_default();
        assert_eq!(c.rank_of(0), 0);
        assert_eq!(c.rank_of(5), 1);
        assert_eq!(c.rank_of(15), 3);
    }

    #[test]
    fn bank_variants() {
        for (banks, ranks) in [(4, 1), (8, 2), (16, 4)] {
            let c = MemConfig::paper_default().with_banks(banks, ranks);
            c.validate();
            assert_eq!(c.num_banks, banks);
        }
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn bad_drain_thresholds_rejected() {
        let mut c = MemConfig::paper_default();
        c.drain_low = 32;
        c.validate();
    }
}
