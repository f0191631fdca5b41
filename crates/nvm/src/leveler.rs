//! The unified wear-leveling API: one trait covering logical→physical
//! remapping, wear-rotation feedback, and verify-failure remaps.
//!
//! The paper evaluates against bank-granularity Start-Gap, and the
//! fault layer added a second, independent remapping mechanism (the
//! per-bank spare pool) next to it. This module closes that seam the
//! way WoLFRaM does — one programmable address decoder serving both
//! wear leveling and fault remapping — by putting every remapper
//! behind [`WearLeveler`] and letting the controller route both paths
//! through it:
//!
//! - [`StartGapLeveler`] — the paper's Start-Gap registers, unchanged
//!   (it owns no spares, so fault remaps delegate to the fault layer's
//!   per-bank pool). Selected by default and bit-identical to the
//!   pre-trait controller.
//! - [`WolframLeveler`] — a WoLFRaM-style programmable remap table:
//!   periodic wear rotation *and* verify-failure remaps are both
//!   serviced from one per-bank spare pool by rewriting table entries.
//! - [`SoftWearLeveler`] — a SoftWear-style software leveler at page
//!   granularity, driven by per-page hot-block write counts; every
//!   epoch it swaps the hottest logical page with a rotating cold
//!   physical page.
//!
//! All three keep per-bank overhead/migration counters
//! ([`LevelerStats`]).

use crate::StartGap;
use std::collections::BTreeMap;
use std::fmt;

/// Which wear-leveling scheme a memory controller runs, plus its knobs.
///
/// Carried by `MemConfig::leveler`. Every variant sizes its spare pool
/// with a `spares_per_bank` field; the default is the
/// [`StartGap`](Self::StartGap) variant with the paper's values
/// (Ψ = 100, 8 spares per bank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LevelerConfig {
    /// Start-Gap registers (Qureshi et al., MICRO'09): one gap slot per
    /// bank, rotated every Ψ writes. Fault remaps are delegated to the
    /// fault layer's per-bank spare pool.
    StartGap {
        /// Demand writes between gap movements (Ψ, 100 in the paper).
        gap_interval: u32,
        /// Spare blocks per bank backing the verify/retry/remap path.
        spares_per_bank: u64,
    },
    /// WoLFRaM-style programmable remap table: one sparse permutation
    /// per bank services periodic wear rotation (a two-block swap every
    /// `remap_interval` writes) and verify-failure remaps from the same
    /// spare pool.
    Wolfram {
        /// Demand writes between rotation swaps (each swap rewrites two
        /// blocks, so overhead is `2 / remap_interval`).
        remap_interval: u32,
        /// Spare physical blocks per bank, consumed by fault remaps.
        spares_per_bank: u64,
    },
    /// SoftWear-style software leveling at page granularity: per-page
    /// write counts accumulate each epoch, then the hottest logical
    /// page swaps with a rotating cold physical page.
    SoftWear {
        /// Demand writes per bank between page swaps. A swap copies two
        /// pages (`2 * page_blocks` writes), so the default budget
        /// matches Start-Gap's ≈1% overhead.
        epoch_writes: u64,
        /// Blocks per leveling page; must divide the bank's block count.
        page_blocks: u64,
        /// Spare blocks per bank for the fault layer's pool (SoftWear
        /// itself owns no spares).
        spares_per_bank: u64,
    },
}

impl LevelerConfig {
    /// The paper's default: Start-Gap with Ψ = 100 and 8 spares per bank.
    pub fn start_gap_default() -> Self {
        LevelerConfig::StartGap {
            gap_interval: 100,
            spares_per_bank: 8,
        }
    }

    /// Start-Gap with an explicit gap interval and spare-pool size.
    pub fn start_gap(gap_interval: u32, spares_per_bank: u64) -> Self {
        LevelerConfig::StartGap {
            gap_interval,
            spares_per_bank,
        }
    }

    /// The WoLFRaM-style table at the Start-Gap-equivalent rotation
    /// interval (Ψ = 100) and the default 8-spare pool.
    pub fn wolfram_default() -> Self {
        LevelerConfig::Wolfram {
            remap_interval: 100,
            spares_per_bank: 8,
        }
    }

    /// The SoftWear-style page leveler at the default 64-block pages
    /// and a swap budget matching Start-Gap's ≈1% overhead
    /// (`2 * 64 * 100` writes per epoch).
    pub fn soft_wear_default() -> Self {
        LevelerConfig::SoftWear {
            epoch_writes: 12_800,
            page_blocks: 64,
            spares_per_bank: 8,
        }
    }

    /// The scheme's short name (`start-gap`, `wolfram`, `softwear`).
    pub fn name(&self) -> &'static str {
        match self {
            LevelerConfig::StartGap { .. } => "start-gap",
            LevelerConfig::Wolfram { .. } => "wolfram",
            LevelerConfig::SoftWear { .. } => "softwear",
        }
    }

    /// Spare blocks per bank, whichever layer ends up owning them.
    pub fn spares_per_bank(&self) -> u64 {
        match *self {
            LevelerConfig::StartGap {
                spares_per_bank, ..
            }
            | LevelerConfig::Wolfram {
                spares_per_bank, ..
            }
            | LevelerConfig::SoftWear {
                spares_per_bank, ..
            } => spares_per_bank,
        }
    }

    /// Resizes the per-bank spare pool, keeping the scheme.
    pub fn set_spares_per_bank(&mut self, spares: u64) {
        match self {
            LevelerConfig::StartGap {
                spares_per_bank, ..
            }
            | LevelerConfig::Wolfram {
                spares_per_bank, ..
            }
            | LevelerConfig::SoftWear {
                spares_per_bank, ..
            } => *spares_per_bank = spares,
        }
    }

    /// Panics on out-of-range parameters.
    ///
    /// # Panics
    ///
    /// Panics if any rotation interval, epoch length, or page size is
    /// zero.
    pub fn validate(&self) {
        match *self {
            LevelerConfig::StartGap { gap_interval, .. } => {
                assert!(gap_interval > 0, "gap interval must be non-zero");
            }
            LevelerConfig::Wolfram { remap_interval, .. } => {
                assert!(remap_interval > 0, "remap interval must be non-zero");
            }
            LevelerConfig::SoftWear {
                epoch_writes,
                page_blocks,
                ..
            } => {
                assert!(epoch_writes > 0, "epoch length must be non-zero");
                assert!(page_blocks > 0, "page size must be non-zero");
            }
        }
    }

    /// Builds the configured leveler for `banks` banks of
    /// `blocks_per_bank` logical blocks each.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`validate`](Self::validate),
    /// either dimension is zero, or (SoftWear) the page size does not
    /// divide the bank's block count.
    pub fn build(&self, banks: usize, blocks_per_bank: u64) -> Box<dyn WearLeveler> {
        self.validate();
        match *self {
            LevelerConfig::StartGap {
                gap_interval,
                spares_per_bank,
            } => Box::new(StartGapLeveler::new(
                banks,
                blocks_per_bank,
                gap_interval,
                spares_per_bank,
            )),
            LevelerConfig::Wolfram {
                remap_interval,
                spares_per_bank,
            } => Box::new(WolframLeveler::new(
                banks,
                blocks_per_bank,
                remap_interval,
                spares_per_bank,
            )),
            LevelerConfig::SoftWear {
                epoch_writes,
                page_blocks,
                spares_per_bank,
            } => Box::new(SoftWearLeveler::new(
                banks,
                blocks_per_bank,
                epoch_writes,
                page_blocks,
                spares_per_bank,
            )),
        }
    }
}

impl Default for LevelerConfig {
    fn default() -> Self {
        LevelerConfig::start_gap_default()
    }
}

/// How a leveler serviced (or declined) a verify-failure remap request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapOutcome {
    /// The leveler rewired the logical block onto a fresh spare from
    /// its own pool; the caller should retry the write, which will now
    /// land on the new physical block.
    Remapped,
    /// The leveler owns no spare pool; the caller should fall back to
    /// the fault layer's per-bank spares (Start-Gap / SoftWear path).
    Delegate,
    /// The leveler owns the spare pool and it is empty: the block's
    /// data is lost.
    Exhausted,
}

/// Overhead and migration counters a leveler keeps per bank.
///
/// `overhead_writes` counts extra physical block writes performed by
/// leveling activity (gap moves, swap copies, page copies) — the same
/// events the wear ledger charges as leveling writes. `migrations`
/// counts leveling *events* (one gap move, one block swap, one page
/// swap). `fault_remaps` counts verify-failure remaps the leveler
/// serviced from its own pool (always zero for delegating levelers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelerStats {
    /// Extra physical block writes performed by leveling activity.
    pub overhead_writes: u64,
    /// Leveling events (gap moves / block swaps / page swaps).
    pub migrations: u64,
    /// Verify-failure remaps serviced from the leveler's own pool.
    pub fault_remaps: u64,
}

impl LevelerStats {
    /// Component-wise sum.
    pub fn add(&self, other: &LevelerStats) -> LevelerStats {
        LevelerStats {
            overhead_writes: self.overhead_writes + other.overhead_writes,
            migrations: self.migrations + other.migrations,
            fault_remaps: self.fault_remaps + other.fault_remaps,
        }
    }

    /// Counters accumulated since `base` was captured (saturating, so a
    /// stale baseline cannot underflow).
    pub fn since(&self, base: &LevelerStats) -> LevelerStats {
        LevelerStats {
            overhead_writes: self.overhead_writes.saturating_sub(base.overhead_writes),
            migrations: self.migrations.saturating_sub(base.migrations),
            fault_remaps: self.fault_remaps.saturating_sub(base.fault_remaps),
        }
    }
}

mellow_engine::impl_json_fields!(LevelerStats {
    overhead_writes,
    migrations,
    fault_remaps,
});

/// A bank-granularity wear leveler: the memory controller's single
/// interface to logical→physical remapping, wear-rotation feedback,
/// and verify-failure remaps.
///
/// # Contract
///
/// - [`remap`](Self::remap) is a bijection from live logical blocks
///   `[0, logical_blocks_per_bank)` into the physical space
///   `[0, physical_blocks_per_bank)`: no two logical blocks may ever
///   share a physical block.
/// - [`note_write`](Self::note_write) is called once per completed
///   demand/eager write with the *logical* block written; any extra
///   physical writes the leveler performs for rotation are appended to
///   `moved` so the caller can charge their wear. Overhead counters are
///   monotone non-decreasing.
/// - [`remap_faulty`](Self::remap_faulty) is the fault hook: called
///   when a write to the block exhausted its verify-retry budget. A
///   pool-owning leveler rewires the block to a fresh spare
///   ([`RemapOutcome::Remapped`]) or reports the pool empty
///   ([`RemapOutcome::Exhausted`]); others return
///   [`RemapOutcome::Delegate`]. A remap must never alias two logical
///   blocks onto one physical block.
pub trait WearLeveler: fmt::Debug + Send {
    /// The scheme's short name (matches [`LevelerConfig::name`]).
    fn name(&self) -> &'static str;

    /// Number of banks served.
    fn banks(&self) -> usize;

    /// Logical blocks served per bank.
    fn logical_blocks_per_bank(&self) -> u64;

    /// Physical blocks per bank the scheme addresses (logical blocks
    /// plus any gap slot or leveler-owned spares). The fault layer and
    /// block-wear tables size themselves from this.
    fn physical_blocks_per_bank(&self) -> u64;

    /// Maps a logical block to its current physical block within `bank`.
    fn remap(&self, bank: usize, logical: u64) -> u64;

    /// Records one completed demand/eager write to `logical` in `bank`.
    /// Physical blocks rewritten by any triggered leveling activity are
    /// appended to `moved` (the caller charges their wear).
    fn note_write(&mut self, bank: usize, logical: u64, moved: &mut Vec<u64>);

    /// Services a verify-failure remap request for `logical` in `bank`.
    fn remap_faulty(&mut self, bank: usize, logical: u64) -> RemapOutcome;

    /// Spare blocks per bank the *fault layer* should own. Zero for
    /// pool-owning levelers (they service remaps themselves).
    fn fault_pool_spares(&self) -> u64;

    /// Total unconsumed spares across banks when the leveler owns the
    /// pool, `None` when the fault layer does.
    fn spare_pool(&self) -> Option<u64>;

    /// Overhead/migration counters for one bank.
    fn bank_stats(&self, bank: usize) -> LevelerStats;

    /// Overhead/migration counters summed over banks.
    fn stats(&self) -> LevelerStats {
        (0..self.banks()).fold(LevelerStats::default(), |acc, b| {
            acc.add(&self.bank_stats(b))
        })
    }
}

// ---------------------------------------------------------------------
// Start-Gap
// ---------------------------------------------------------------------

/// The paper's Start-Gap scheme behind the [`WearLeveler`] trait: one
/// [`StartGap`] register pair per bank, exactly as the controller wired
/// them before the trait existed (and bit-identical to it). Owns no
/// spares — fault remaps delegate to the fault layer's pool.
#[derive(Debug, Clone)]
pub struct StartGapLeveler {
    banks: Vec<StartGap>,
    spares_per_bank: u64,
}

impl StartGapLeveler {
    /// One Start-Gap per bank over `blocks_per_bank` logical lines.
    ///
    /// # Panics
    ///
    /// Panics if either dimension or the interval is zero.
    pub fn new(
        banks: usize,
        blocks_per_bank: u64,
        gap_interval: u32,
        spares_per_bank: u64,
    ) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        StartGapLeveler {
            banks: (0..banks)
                .map(|_| StartGap::new(blocks_per_bank, gap_interval))
                .collect(),
            spares_per_bank,
        }
    }
}

impl WearLeveler for StartGapLeveler {
    fn name(&self) -> &'static str {
        "start-gap"
    }

    fn banks(&self) -> usize {
        self.banks.len()
    }

    fn logical_blocks_per_bank(&self) -> u64 {
        self.banks[0].logical_lines()
    }

    fn physical_blocks_per_bank(&self) -> u64 {
        self.banks[0].physical_lines()
    }

    fn remap(&self, bank: usize, logical: u64) -> u64 {
        self.banks[bank].remap(logical)
    }

    fn note_write(&mut self, bank: usize, _logical: u64, moved: &mut Vec<u64>) {
        if let Some(m) = self.banks[bank].note_write() {
            moved.push(m);
        }
    }

    fn remap_faulty(&mut self, _bank: usize, _logical: u64) -> RemapOutcome {
        RemapOutcome::Delegate
    }

    fn fault_pool_spares(&self) -> u64 {
        self.spares_per_bank
    }

    fn spare_pool(&self) -> Option<u64> {
        None
    }

    fn bank_stats(&self, bank: usize) -> LevelerStats {
        LevelerStats {
            overhead_writes: self.banks[bank].overhead_writes(),
            migrations: self.banks[bank].overhead_writes(),
            fault_remaps: 0,
        }
    }
}

// ---------------------------------------------------------------------
// WoLFRaM-style programmable remap table
// ---------------------------------------------------------------------

/// One bank's programmable remap table: a sparse permutation (identity
/// where absent) over `[0, blocks + spares)`.
#[derive(Debug, Clone)]
struct WolframBank {
    /// Logical → physical overrides; an absent key maps to itself.
    /// Rotation swaps values between two keys; fault remaps point a key
    /// at a fresh spare, retiring its old physical block from the image
    /// of the permutation for good.
    table: BTreeMap<u64, u64>,
    /// Spares consumed so far (spare `i` is physical block
    /// `blocks + i`).
    spares_used: u64,
    /// Demand writes since the last rotation swap.
    since_rotate: u32,
    /// Next logical block the rotation sweep will swap forward.
    cursor: u64,
    overhead_writes: u64,
    migrations: u64,
    fault_remaps: u64,
}

impl WolframBank {
    fn map(&self, logical: u64) -> u64 {
        self.table.get(&logical).copied().unwrap_or(logical)
    }

    /// Points `logical` at `phys`, pruning entries that return to
    /// identity so the table stays sparse.
    fn set(&mut self, logical: u64, phys: u64) {
        if logical == phys {
            self.table.remove(&logical);
        } else {
            self.table.insert(logical, phys);
        }
    }
}

/// A WoLFRaM-style programmable remap table: per-bank sparse
/// permutations service periodic wear rotation *and* verify-failure
/// remaps from one spare pool.
///
/// Rotation: every `remap_interval` demand writes the table swaps the
/// physical backing of two adjacent logical blocks (a sweeping cursor),
/// costing two block copies — `2 / remap_interval` overhead, twice
/// Start-Gap's, the price of rotating without a dedicated gap slot.
///
/// Fault remap: the failing logical block is rewired to the next spare
/// physical block (`blocks + i`); its worn-out old block leaves the
/// permutation image permanently. The requeued write performs the data
/// copy, so no extra overhead write is charged — mirroring the fault
/// layer's own spare path.
#[derive(Debug, Clone)]
pub struct WolframLeveler {
    blocks: u64,
    remap_interval: u32,
    spares_per_bank: u64,
    banks: Vec<WolframBank>,
}

impl WolframLeveler {
    /// A remap table per bank over `blocks_per_bank` logical blocks
    /// with `spares_per_bank` spare physical blocks each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension or the interval is zero.
    pub fn new(
        banks: usize,
        blocks_per_bank: u64,
        remap_interval: u32,
        spares_per_bank: u64,
    ) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        assert!(blocks_per_bank > 0, "block count must be non-zero");
        assert!(remap_interval > 0, "remap interval must be non-zero");
        WolframLeveler {
            blocks: blocks_per_bank,
            remap_interval,
            spares_per_bank,
            banks: (0..banks)
                .map(|_| WolframBank {
                    table: BTreeMap::new(),
                    spares_used: 0,
                    since_rotate: 0,
                    cursor: 0,
                    overhead_writes: 0,
                    migrations: 0,
                    fault_remaps: 0,
                })
                .collect(),
        }
    }
}

impl WearLeveler for WolframLeveler {
    fn name(&self) -> &'static str {
        "wolfram"
    }

    fn banks(&self) -> usize {
        self.banks.len()
    }

    fn logical_blocks_per_bank(&self) -> u64 {
        self.blocks
    }

    fn physical_blocks_per_bank(&self) -> u64 {
        self.blocks + self.spares_per_bank
    }

    fn remap(&self, bank: usize, logical: u64) -> u64 {
        assert!(
            logical < self.blocks,
            "logical block {logical} out of range (n = {})",
            self.blocks
        );
        self.banks[bank].map(logical)
    }

    fn note_write(&mut self, bank: usize, _logical: u64, moved: &mut Vec<u64>) {
        let interval = self.remap_interval;
        let n = self.blocks;
        let b = &mut self.banks[bank];
        b.since_rotate += 1;
        if b.since_rotate < interval {
            return;
        }
        b.since_rotate = 0;
        if n < 2 {
            return; // a one-block bank has nothing to rotate
        }
        // Swap the physical backing of the cursor block and its
        // neighbour; both physical blocks are rewritten by the copy.
        let a = b.cursor;
        let c = (b.cursor + 1) % n;
        b.cursor = c;
        let (pa, pc) = (b.map(a), b.map(c));
        b.set(a, pc);
        b.set(c, pa);
        moved.push(pa);
        moved.push(pc);
        b.overhead_writes += 2;
        b.migrations += 1;
    }

    fn remap_faulty(&mut self, bank: usize, logical: u64) -> RemapOutcome {
        assert!(
            logical < self.blocks,
            "logical block {logical} out of range (n = {})",
            self.blocks
        );
        let n = self.blocks;
        let spares = self.spares_per_bank;
        let b = &mut self.banks[bank];
        if b.spares_used >= spares {
            return RemapOutcome::Exhausted;
        }
        let fresh = n + b.spares_used;
        b.spares_used += 1;
        // The old physical block leaves the permutation image for good;
        // `fresh` was never mapped, so injectivity is preserved.
        b.set(logical, fresh);
        b.fault_remaps += 1;
        RemapOutcome::Remapped
    }

    fn fault_pool_spares(&self) -> u64 {
        0 // the table owns the pool; the fault layer keeps none
    }

    fn spare_pool(&self) -> Option<u64> {
        Some(
            self.banks
                .iter()
                .map(|b| self.spares_per_bank - b.spares_used)
                .sum(),
        )
    }

    fn bank_stats(&self, bank: usize) -> LevelerStats {
        let b = &self.banks[bank];
        LevelerStats {
            overhead_writes: b.overhead_writes,
            migrations: b.migrations,
            fault_remaps: b.fault_remaps,
        }
    }
}

// ---------------------------------------------------------------------
// SoftWear-style page-granularity software leveler
// ---------------------------------------------------------------------

/// One bank's page state: a sparse page permutation plus the epoch's
/// hot-page write counts.
#[derive(Debug, Clone)]
struct SoftWearBank {
    /// Logical page → physical page overrides (identity where absent).
    pages: BTreeMap<u64, u64>,
    /// Per-logical-page write counts this epoch — the software mirror
    /// of the wear ledger's hot-block counting, held at page
    /// granularity.
    heat: BTreeMap<u64, u64>,
    since_epoch: u64,
    /// Physical page the next epoch's hot page rotates onto.
    cold_cursor: u64,
    overhead_writes: u64,
    migrations: u64,
}

impl SoftWearBank {
    fn map(&self, page: u64) -> u64 {
        self.pages.get(&page).copied().unwrap_or(page)
    }

    fn set(&mut self, page: u64, phys: u64) {
        if page == phys {
            self.pages.remove(&page);
        } else {
            self.pages.insert(page, phys);
        }
    }

    /// The logical page currently backed by physical page `phys`. The
    /// page table is a permutation, so exactly one owner exists; the
    /// scan is over the sparse override set only (identity otherwise)
    /// and runs once per epoch.
    fn owner(&self, phys: u64) -> u64 {
        self.pages
            .iter()
            .find(|&(_, &p)| p == phys)
            .map(|(&l, _)| l)
            .unwrap_or(phys)
    }
}

/// A SoftWear-style software wear leveler at page granularity: write
/// counts accumulate per logical page, and every `epoch_writes` demand
/// writes the hottest page swaps with a rotating cold physical page
/// (copying both pages). Owns no spares — fault remaps delegate to the
/// fault layer's pool, like Start-Gap.
#[derive(Debug, Clone)]
pub struct SoftWearLeveler {
    blocks: u64,
    pages: u64,
    page_blocks: u64,
    epoch_writes: u64,
    spares_per_bank: u64,
    banks: Vec<SoftWearBank>,
}

impl SoftWearLeveler {
    /// A page table per bank over `blocks_per_bank` blocks grouped into
    /// `page_blocks`-block pages.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `page_blocks` does not divide
    /// `blocks_per_bank`.
    pub fn new(
        banks: usize,
        blocks_per_bank: u64,
        epoch_writes: u64,
        page_blocks: u64,
        spares_per_bank: u64,
    ) -> Self {
        assert!(banks > 0, "bank count must be non-zero");
        assert!(blocks_per_bank > 0, "block count must be non-zero");
        assert!(epoch_writes > 0, "epoch length must be non-zero");
        assert!(page_blocks > 0, "page size must be non-zero");
        assert!(
            blocks_per_bank.is_multiple_of(page_blocks),
            "page size {page_blocks} must divide the bank block count {blocks_per_bank}"
        );
        SoftWearLeveler {
            blocks: blocks_per_bank,
            pages: blocks_per_bank / page_blocks,
            page_blocks,
            epoch_writes,
            spares_per_bank,
            banks: (0..banks)
                .map(|_| SoftWearBank {
                    pages: BTreeMap::new(),
                    heat: BTreeMap::new(),
                    since_epoch: 0,
                    cold_cursor: 0,
                    overhead_writes: 0,
                    migrations: 0,
                })
                .collect(),
        }
    }
}

impl WearLeveler for SoftWearLeveler {
    fn name(&self) -> &'static str {
        "softwear"
    }

    fn banks(&self) -> usize {
        self.banks.len()
    }

    fn logical_blocks_per_bank(&self) -> u64 {
        self.blocks
    }

    fn physical_blocks_per_bank(&self) -> u64 {
        self.blocks // pure software remap: no gap slot, no owned spares
    }

    fn remap(&self, bank: usize, logical: u64) -> u64 {
        assert!(
            logical < self.blocks,
            "logical block {logical} out of range (n = {})",
            self.blocks
        );
        let page = logical / self.page_blocks;
        self.banks[bank].map(page) * self.page_blocks + logical % self.page_blocks
    }

    fn note_write(&mut self, bank: usize, logical: u64, moved: &mut Vec<u64>) {
        let page = logical / self.page_blocks;
        let epoch = self.epoch_writes;
        let pages = self.pages;
        let page_blocks = self.page_blocks;
        let b = &mut self.banks[bank];
        *b.heat.entry(page).or_insert(0) += 1;
        b.since_epoch += 1;
        if b.since_epoch < epoch {
            return;
        }
        b.since_epoch = 0;
        if pages < 2 {
            b.heat.clear();
            return; // a one-page bank has nowhere to rotate
        }
        // The hottest logical page this epoch (ties: lowest index, so
        // the fold below only replaces on a strictly larger count;
        // BTreeMap iteration is ordered, keeping the choice
        // deterministic).
        let (hot, _) = b.heat.iter().fold(
            (0u64, 0u64),
            |(bl, bc), (&l, &c)| {
                if c > bc {
                    (l, c)
                } else {
                    (bl, bc)
                }
            },
        );
        let hot_phys = b.map(hot);
        // Rotate onto the cold cursor, skipping over the hot page's own
        // physical page.
        let mut target = b.cold_cursor;
        b.cold_cursor = (b.cold_cursor + 1) % pages;
        if target == hot_phys {
            target = b.cold_cursor;
            b.cold_cursor = (b.cold_cursor + 1) % pages;
        }
        let displaced = b.owner(target);
        b.set(hot, target);
        b.set(displaced, hot_phys);
        // Both physical pages are rewritten by the copy.
        for k in 0..page_blocks {
            moved.push(target * page_blocks + k);
            moved.push(hot_phys * page_blocks + k);
        }
        b.overhead_writes += 2 * page_blocks;
        b.migrations += 1;
        b.heat.clear();
    }

    fn remap_faulty(&mut self, _bank: usize, _logical: u64) -> RemapOutcome {
        RemapOutcome::Delegate
    }

    fn fault_pool_spares(&self) -> u64 {
        self.spares_per_bank
    }

    fn spare_pool(&self) -> Option<u64> {
        None
    }

    fn bank_stats(&self, bank: usize) -> LevelerStats {
        let b = &self.banks[bank];
        LevelerStats {
            overhead_writes: b.overhead_writes,
            migrations: b.migrations,
            fault_remaps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const BANKS: usize = 2;
    const BLOCKS: u64 = 64;
    const SPARES: u64 = 3;

    /// Every implementation under its test-sized geometry.
    fn all_levelers() -> Vec<Box<dyn WearLeveler>> {
        vec![
            LevelerConfig::start_gap(5, SPARES).build(BANKS, BLOCKS),
            LevelerConfig::Wolfram {
                remap_interval: 5,
                spares_per_bank: SPARES,
            }
            .build(BANKS, BLOCKS),
            LevelerConfig::SoftWear {
                epoch_writes: 16,
                page_blocks: 8,
                spares_per_bank: SPARES,
            }
            .build(BANKS, BLOCKS),
        ]
    }

    fn assert_bijection(lv: &dyn WearLeveler, bank: usize) {
        let mut seen = HashSet::new();
        for l in 0..lv.logical_blocks_per_bank() {
            let p = lv.remap(bank, l);
            assert!(
                p < lv.physical_blocks_per_bank(),
                "{}: block {l} mapped outside the physical space ({p})",
                lv.name()
            );
            assert!(
                seen.insert(p),
                "{}: two logical blocks share physical block {p}",
                lv.name()
            );
        }
    }

    #[test]
    fn initial_mapping_is_identity_for_all_levelers() {
        for lv in all_levelers() {
            for l in 0..BLOCKS {
                assert_eq!(lv.remap(0, l), l, "{}", lv.name());
            }
        }
    }

    #[test]
    fn remap_stays_a_bijection_through_rotation() {
        for mut lv in all_levelers() {
            let mut moved = Vec::new();
            for i in 0..2000u64 {
                let bank = (i % BANKS as u64) as usize;
                lv.note_write(bank, i % BLOCKS, &mut moved);
                for &m in &moved {
                    assert!(m < lv.physical_blocks_per_bank(), "{}", lv.name());
                }
                moved.clear();
                if i % 97 == 0 {
                    for bank in 0..BANKS {
                        assert_bijection(&*lv, bank);
                    }
                }
            }
            for bank in 0..BANKS {
                assert_bijection(&*lv, bank);
            }
        }
    }

    #[test]
    fn overhead_counters_are_monotone_and_consistent() {
        for mut lv in all_levelers() {
            let mut prev = LevelerStats::default();
            let mut moved = Vec::new();
            let mut charged = 0u64;
            for i in 0..500u64 {
                lv.note_write(0, i % BLOCKS, &mut moved);
                charged += moved.len() as u64;
                moved.clear();
                let s = lv.stats();
                assert!(
                    s.overhead_writes >= prev.overhead_writes && s.migrations >= prev.migrations,
                    "{}: counters went backwards",
                    lv.name()
                );
                prev = s;
            }
            assert_eq!(
                prev.overhead_writes,
                charged,
                "{}: overhead counter disagrees with the moved blocks it reported",
                lv.name()
            );
            assert!(
                prev.migrations > 0,
                "{}: 500 writes at short intervals must rotate",
                lv.name()
            );
        }
    }

    #[test]
    fn fault_remap_never_aliases_two_logical_blocks() {
        for mut lv in all_levelers() {
            for l in [3u64, 17, 42] {
                match lv.remap_faulty(0, l) {
                    RemapOutcome::Remapped => {}
                    RemapOutcome::Delegate => break, // fault layer owns the pool
                    RemapOutcome::Exhausted => panic!("{}: pool empty too early", lv.name()),
                }
            }
            assert_bijection(&*lv, 0);
            // The untouched bank is unaffected either way.
            assert_bijection(&*lv, 1);
        }
    }

    #[test]
    fn wolfram_services_remaps_from_its_own_pool_until_exhausted() {
        let mut lv = LevelerConfig::Wolfram {
            remap_interval: 5,
            spares_per_bank: 2,
        }
        .build(1, 16);
        assert_eq!(lv.fault_pool_spares(), 0);
        assert_eq!(lv.spare_pool(), Some(2));
        let before = lv.remap(0, 9);
        assert_eq!(lv.remap_faulty(0, 9), RemapOutcome::Remapped);
        let after = lv.remap(0, 9);
        assert_ne!(before, after, "remap must move the block");
        assert!(after >= 16, "the fresh backing comes from the spare region");
        assert_eq!(lv.remap_faulty(0, 9), RemapOutcome::Remapped);
        assert_eq!(lv.spare_pool(), Some(0));
        assert_eq!(lv.remap_faulty(0, 9), RemapOutcome::Exhausted);
        assert_eq!(lv.stats().fault_remaps, 2);
        assert_bijection(&*lv, 0);
    }

    #[test]
    fn wolfram_rotation_and_remap_share_one_table() {
        let mut lv = WolframLeveler::new(1, 8, 1, 2);
        let mut moved = Vec::new();
        // Remap block 0 onto spare 8, then rotate across it: the spare
        // participates in rotation like any other backing.
        assert_eq!(lv.remap_faulty(0, 0), RemapOutcome::Remapped);
        assert_eq!(lv.remap(0, 0), 8);
        for i in 0..8 {
            lv.note_write(0, i, &mut moved);
        }
        assert_bijection(&lv, 0);
        // The worn-out physical block 0 never re-enters the image.
        let image: HashSet<u64> = (0..8).map(|l| lv.remap(0, l)).collect();
        assert!(!image.contains(&0), "retired block resurfaced: {image:?}");
    }

    #[test]
    fn softwear_moves_the_hottest_page_at_epoch_end() {
        let mut lv = SoftWearLeveler::new(1, 64, 10, 8, 0);
        let mut moved = Vec::new();
        // Hammer page 3 (blocks 24..32) for a whole epoch.
        for _ in 0..10 {
            lv.note_write(0, 25, &mut moved);
        }
        assert_eq!(moved.len(), 16, "two 8-block pages are copied");
        assert_ne!(lv.remap(0, 25), 25, "the hot page must move");
        assert_bijection(&lv, 0);
        assert_eq!(lv.stats().migrations, 1);
        assert_eq!(lv.stats().overhead_writes, 16);
    }

    #[test]
    fn start_gap_leveler_tracks_raw_start_gap_exactly() {
        let mut lv = StartGapLeveler::new(1, 32, 7, 8);
        let mut raw = StartGap::new(32, 7);
        let mut moved = Vec::new();
        for i in 0..300u64 {
            assert_eq!(lv.remap(0, i % 32), raw.remap(i % 32));
            lv.note_write(0, i % 32, &mut moved);
            let raw_moved = raw.note_write();
            assert_eq!(moved.first().copied(), raw_moved);
            moved.clear();
        }
        assert_eq!(lv.stats().overhead_writes, raw.overhead_writes());
    }

    #[test]
    fn config_round_trips_names_and_spares() {
        for (cfg, name) in [
            (LevelerConfig::start_gap_default(), "start-gap"),
            (LevelerConfig::wolfram_default(), "wolfram"),
            (LevelerConfig::soft_wear_default(), "softwear"),
        ] {
            assert_eq!(cfg.name(), name);
            assert_eq!(cfg.spares_per_bank(), 8);
            let mut cfg = cfg;
            cfg.set_spares_per_bank(3);
            assert_eq!(cfg.spares_per_bank(), 3);
            let lv = cfg.build(2, 64);
            assert_eq!(lv.name(), name);
            assert_eq!(lv.banks(), 2);
            assert_eq!(lv.logical_blocks_per_bank(), 64);
        }
        assert_eq!(LevelerConfig::default(), LevelerConfig::start_gap(100, 8));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn softwear_rejects_non_dividing_pages() {
        let _ = SoftWearLeveler::new(1, 60, 10, 8, 0);
    }
}
