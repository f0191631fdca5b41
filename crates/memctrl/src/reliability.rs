//! The controller's reliability pipeline: write verify → retry → remap
//! → spare (the fault layer), drift detection (the retention layer), and
//! the background scrubber with its parked repair retries.
//!
//! The scheduler in the `controller` module owns the queues, banks, bus,
//! wear ledger and energy account; it calls in here at a few points — a
//! write pulse landed, a read returned, a bank has an idle window, a
//! memory edge passed — and asks [`Reliability::next_due`] for the
//! pipeline's next wake-up, which it folds into its own horizon on
//! every full tick. The event kernel reads that horizon fresh on every
//! jump, so this module tracks no changes of its own.
//!
//! With faults and retention both disabled (the default) no fault or
//! drift state exists: every hook is one `None` check and no fault or
//! drift randomness is drawn (the additivity guarantee).

use crate::queues::{due_mask, QueuedReq, RequestQueues};
use crate::{LineMapping, MemConfig};
use mellow_engine::{Duration, SimTime};
use mellow_nvm::{
    EnduranceModel, FaultState, ReadVerify, RemapOutcome, RetentionState, WearLeveler, WriteVerify,
};
use std::collections::VecDeque;

/// Counters for the fault layer's write-verify → retry → remap path.
///
/// `spares_remaining` is a gauge (the current unallocated spare-pool
/// size, summed over banks); the other fields are monotone counters.
/// Every verify failure is resolved exactly one way, so
/// `verify_failures == retries + remaps + uncorrectable` at any drain
/// point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Write completions whose verify step failed (stuck-at block,
    /// endurance exhaustion, or a transient fault).
    pub verify_failures: u64,
    /// Failed writes re-queued for another attempt within the
    /// [`MemConfig::max_write_retries`] budget.
    pub retries: u64,
    /// Blocks remapped to a per-bank spare after exhausting their retry
    /// budget.
    pub remaps: u64,
    /// Spare blocks still unallocated, summed over banks.
    pub spares_remaining: u64,
    /// Writes dropped with data loss: the retry budget and the bank's
    /// spare pool were both exhausted.
    pub uncorrectable: u64,
}

mellow_engine::impl_json_fields!(FaultStats {
    verify_failures,
    retries,
    remaps,
    spares_remaining,
    uncorrectable,
});

/// Counters for the retention layer's detect → repair → degrade path.
///
/// Every detected drift failure — a demand read or a scrub visit
/// finding a block past its deadline — is resolved exactly one way:
/// repaired by a rewrite, or declared uncorrectable once the retry
/// budget and spare pool both run out. So at any drain point
/// `demand_verify_failures + ScrubStats::scrub_rewrites == repairs +
/// retention_uncorrectable` (the retention analogue of the fault
/// layer's resolution invariant).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetentionStats {
    /// Demand reads that found their block past its drift deadline
    /// (served through ECC; a repair rewrite was enqueued).
    pub demand_verify_failures: u64,
    /// Repair rewrites that completed with a clean verify, restamping
    /// the block's drift clock (from either detection path).
    pub repairs: u64,
    /// Detected drift failures whose repair could not be completed:
    /// the rewrite kept failing verify and the remap path found no
    /// spare, so the block's data is lost and capacity shrinks —
    /// exactly the fault layer's `uncorrectable` ending, never a
    /// silent loss.
    pub retention_uncorrectable: u64,
}

mellow_engine::impl_json_fields!(RetentionStats {
    demand_verify_failures,
    repairs,
    retention_uncorrectable,
});

/// Background scrub engine activity counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubStats {
    /// Blocks the scrubber visited (one verify read each).
    pub scrub_reads: u64,
    /// Scrub visits that found the block past its drift deadline and
    /// enqueued a repair rewrite (the scrub-detected failures of the
    /// retention resolution invariant).
    pub scrub_rewrites: u64,
    /// Idle-bank windows a due scrub visit lost to foreground work (a
    /// read, demand write or eager write).
    pub scrub_bank_conflicts: u64,
}

mellow_engine::impl_json_fields!(ScrubStats {
    scrub_reads,
    scrub_rewrites,
    scrub_bank_conflicts,
});

/// Base wait of a verify-failed repair rewrite before it re-enters the
/// write queue, doubling per consumed retry: the data is safe in the
/// controller, and spacing the attempts across memory-clock edges keeps
/// a failing block from monopolizing its bank.
const REPAIR_BACKOFF: Duration = Duration::from_ns(20);

/// How the verify step resolved a landed write pulse.
#[derive(Debug)]
pub(crate) enum Verified {
    /// The data latched: the write completes.
    Clean,
    /// The write must be driven again: re-queue this entry at the front
    /// of its queue (age priority preserved, like a cancel).
    Retry(QueuedReq),
    /// The pipeline took the write over — a repair parked in its
    /// backoff, or a write dropped as an uncorrectable loss.
    Absorbed,
}

/// Fault, drift and scrub state plus the policy that resolves a failed
/// verify (see the module docs).
#[derive(Debug)]
pub(crate) struct Reliability {
    /// Fault-injection state; `None` whenever `cfg.fault.enabled` is
    /// false.
    faults: Option<FaultState>,
    /// Retention-drift state; `None` whenever `cfg.retention.enabled`
    /// is false.
    retention: Option<RetentionState>,
    fault_stats: FaultStats,
    retention_stats: RetentionStats,
    scrub_stats: ScrubStats,
    /// Per-bank scrub cursor: the next logical block the background
    /// scrubber will verify-read at that bank.
    scrub_ptr: Vec<u64>,
    /// Per-bank earliest time the next scrub visit is due; the visit
    /// itself waits for an idle-bank window.
    next_scrub_at: Vec<SimTime>,
    /// Repair rewrites waiting out their verify-retry backoff, with
    /// their release times. Few entries, scanned in insertion order.
    parked: VecDeque<(SimTime, QueuedReq)>,
    endurance: EnduranceModel,
    max_write_retries: u32,
    scrub_interval: Duration,
    blocks_per_bank: u64,
}

impl Reliability {
    /// Builds the pipeline for `cfg`, covering `leveler`'s whole
    /// physical space.
    pub(crate) fn new(
        cfg: &MemConfig,
        endurance: EnduranceModel,
        leveler: &dyn WearLeveler,
    ) -> Self {
        let banks = cfg.num_banks;
        // The fault layer covers the leveler's whole physical space
        // (e.g. Start-Gap's gap spare) and owns only the spares the
        // leveler delegates (zero for pool-owning levelers).
        let faults = cfg.fault.enabled.then(|| {
            FaultState::new(
                cfg.fault,
                &endurance,
                banks,
                leveler.physical_blocks_per_bank(),
                leveler.fault_pool_spares(),
            )
        });
        // The drift clock is keyed by *logical* block: leveling moves
        // the data but conservatively keeps the old deadline (the cells
        // under it changed, but a fresh stamp would optimistically
        // extend retention without a write having happened).
        let retention = cfg
            .retention
            .enabled
            .then(|| RetentionState::new(cfg.retention, banks, cfg.blocks_per_bank()));
        Reliability {
            faults,
            retention,
            fault_stats: FaultStats::default(),
            retention_stats: RetentionStats::default(),
            scrub_stats: ScrubStats::default(),
            scrub_ptr: vec![0; banks],
            next_scrub_at: vec![SimTime::ZERO + cfg.scrub_interval; banks],
            parked: VecDeque::new(),
            endurance,
            max_write_retries: cfg.max_write_retries,
            scrub_interval: cfg.scrub_interval,
            blocks_per_bank: cfg.blocks_per_bank(),
        }
    }

    /// The verify step for a write pulse that landed on physical block
    /// `phys` at `end`, driven at latency `factor`. The caller has
    /// already charged the pulse's wear and energy.
    ///
    /// `retry` is the queue entry that drives the write again. A failed
    /// verify is retried within the [`MemConfig::max_write_retries`]
    /// budget (a repair rewrite parks for a doubling backoff first);
    /// past the budget the block is remapped — `leveler` first, then the
    /// fault layer's spare pool — and the budget starts over. With no
    /// spare left the write is dropped as an uncorrectable loss.
    pub(crate) fn verify_write(
        &mut self,
        mut retry: QueuedReq,
        phys: u64,
        factor: f64,
        end: SimTime,
        leveler: &mut dyn WearLeveler,
    ) -> Verified {
        let Some(faults) = &mut self.faults else {
            return Verified::Clean;
        };
        let LineMapping { bank, block, .. } = retry.mapping;
        let verdict = faults.verify_write(bank, phys, self.endurance.wear_per_write(factor));
        if verdict == WriteVerify::Ok {
            return Verified::Clean;
        }
        self.fault_stats.verify_failures += 1;
        if verdict == WriteVerify::Failed {
            if retry.retries < self.max_write_retries {
                self.fault_stats.retries += 1;
                retry.retries += 1;
                if !retry.repair {
                    return Verified::Retry(retry);
                }
                let doublings = (retry.retries - 1).min(16);
                let wait = REPAIR_BACKOFF.scale((1u64 << doublings) as f64);
                self.parked.push_back((end + wait, retry));
                return Verified::Absorbed;
            }
            // Retry budget spent: a pool-owning leveler (WoLFRaM)
            // rewires the logical block itself; others delegate to the
            // fault layer's per-bank spare pool. An exhausted leveler
            // pool still marks the block lost there (the fault layer
            // holds zero spares for pool-owning levelers).
            let remapped = match leveler.remap_faulty(bank, block) {
                RemapOutcome::Remapped => true,
                RemapOutcome::Delegate => faults.remap(bank, phys),
                RemapOutcome::Exhausted => {
                    let _ = faults.remap(bank, phys);
                    false
                }
            };
            if remapped {
                // A fresh spare: the retry budget starts over.
                self.fault_stats.remaps += 1;
                retry.retries = 0;
                return Verified::Retry(retry);
            }
        }
        // The data cannot be preserved. The write is not re-queued, so
        // it stops being pending and later reads go to the array.
        self.fault_stats.uncorrectable += 1;
        if retry.repair {
            // A lost repair ends a detected drift failure the hard way:
            // capacity shrinks through the fault layer's lost-block
            // accounting, never silently.
            self.retention_stats.retention_uncorrectable += 1;
        }
        if let Some(r) = &mut self.retention {
            // Nothing is left to scrub: the block's drift clock is
            // retired until a future write restamps it.
            r.forget(bank, block);
        }
        Verified::Absorbed
    }

    /// Restamps the drift clock of a write that verified clean: slow
    /// pulses widen the deadline, a worn block narrows it. A completed
    /// `repair` rewrite counts as a repair.
    pub(crate) fn restamp(
        &mut self,
        bank: usize,
        block: u64,
        phys: u64,
        end: SimTime,
        factor: f64,
        repair: bool,
    ) {
        if let Some(r) = &mut self.retention {
            let worn = self
                .faults
                .as_ref()
                .map_or(0.0, |f| f.wear_fraction(bank, phys));
            r.record_write(bank, block, end, factor, worn);
        }
        if repair {
            self.retention_stats.repairs += 1;
        }
    }

    /// Whether logical `block` at `bank`, read at `at`, is past its
    /// drift deadline (always `false` with retention disabled).
    pub(crate) fn expired(&self, bank: usize, block: u64, at: SimTime) -> bool {
        self.retention
            .as_ref()
            .is_some_and(|r| r.verify_read(bank, block, at) == ReadVerify::Failed)
    }

    /// Counts a drift failure a demand read detected.
    pub(crate) fn demand_detected(&mut self) {
        self.retention_stats.demand_verify_failures += 1;
    }

    /// Whether the background scrubber runs at all: retention must be
    /// enabled and the scrub interval non-zero. (Retention without a
    /// scrubber still detects drift on demand reads.)
    fn scrub_active(&self) -> bool {
        self.retention.is_some() && self.scrub_interval > Duration::ZERO
    }

    /// The banks with a scrub visit due at `now` (each still needs an
    /// idle window); zero when the scrubber is off.
    pub(crate) fn scrub_due_mask(&self, now: SimTime) -> u64 {
        if self.scrub_active() {
            due_mask(&self.next_scrub_at, now)
        } else {
            0
        }
    }

    /// Starts a due scrub visit at `bank`: advances the bank's cursor
    /// and due time and returns the logical block to verify-read.
    pub(crate) fn start_scrub(&mut self, bank: usize, now: SimTime) -> u64 {
        let block = self.scrub_ptr[bank] % self.blocks_per_bank;
        self.scrub_ptr[bank] = (block + 1) % self.blocks_per_bank;
        self.next_scrub_at[bank] = now + self.scrub_interval;
        self.scrub_stats.scrub_reads += 1;
        block
    }

    /// Counts a scrub visit that found its block expired.
    pub(crate) fn scrub_detected(&mut self) {
        self.scrub_stats.scrub_rewrites += 1;
    }

    /// Counts a due scrub visit whose idle window went to foreground
    /// work.
    pub(crate) fn scrub_lost_window(&mut self) {
        self.scrub_stats.scrub_bank_conflicts += 1;
    }

    /// Releases parked repair retries whose backoff has elapsed to the
    /// front of the write queue (age priority, like any retry).
    pub(crate) fn release_parked(&mut self, now: SimTime, queues: &mut RequestQueues) {
        self.parked.retain(|&(t, req)| {
            if t > now {
                return true;
            }
            queues.requeue_front(req);
            false
        });
    }

    /// Whether a repair of `line` is parked in its backoff (its data is
    /// pending in the controller).
    pub(crate) fn is_parked(&self, line: u64) -> bool {
        self.parked.iter().any(|(_, r)| r.line == line)
    }

    /// The pipeline's earliest future wake-up given each bank's busy
    /// time, or `SimTime::MAX` when it has none: a parked repair's
    /// release, or a scrub visit — at the later of its due time and its
    /// bank falling idle.
    ///
    /// Called after the tick's issue pass: a due visit either happened
    /// (pushing its due time past now) or lost its bank to foreground
    /// work (leaving the bank busy), and parked repairs always release
    /// in the future, so the result is strictly future — except under
    /// tFAW blocking, where the caller returns `ZERO` before asking.
    pub(crate) fn next_due(&self, busy_until: &[SimTime]) -> SimTime {
        let mut next = SimTime::MAX;
        for &(t, _) in &self.parked {
            next = next.min(t);
        }
        if self.scrub_active() {
            for (&due, &busy) in self.next_scrub_at.iter().zip(busy_until) {
                next = next.min(due.max(busy));
            }
        }
        next
    }

    /// The fault-layer counters with the spares-remaining gauge filled
    /// in. With faults disabled the gauge reports the full (untouched)
    /// spare pool, so a disabled controller serializes identically to
    /// an enabled one whose fault knobs are all zero.
    pub(crate) fn fault_stats(&self, leveler: &dyn WearLeveler) -> FaultStats {
        let mut s = self.fault_stats.clone();
        s.spares_remaining = match leveler.spare_pool() {
            // A pool-owning leveler (WoLFRaM) tracks its own spares.
            Some(remaining) => remaining,
            None => match &self.faults {
                Some(f) => f.total_spares_remaining(),
                // One scrub cursor per bank.
                None => self.scrub_ptr.len() as u64 * leveler.fault_pool_spares(),
            },
        };
        s
    }

    /// The retention-repair counters.
    pub(crate) fn retention_stats(&self) -> &RetentionStats {
        &self.retention_stats
    }

    /// The background scrub engine's counters.
    pub(crate) fn scrub_stats(&self) -> &ScrubStats {
        &self.scrub_stats
    }

    /// Fraction of physical blocks still usable.
    pub(crate) fn usable_fraction(&self) -> f64 {
        self.faults.as_ref().map_or(1.0, |f| f.usable_fraction())
    }

    /// Blocks declared lost after their bank's spare pool ran dry.
    pub(crate) fn lost_blocks(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.lost_blocks())
    }

    /// Zeroes the counters. Fault and drift state, scrub cursors and
    /// parked repairs are device state and persist, like the leveler's
    /// registers.
    pub(crate) fn reset_stats(&mut self) {
        self.fault_stats = FaultStats::default();
        self.retention_stats = RetentionStats::default();
        self.scrub_stats = ScrubStats::default();
    }
}
