//! The resistive-memory controller's scheduler: queues, bank state
//! machines, the shared bus, write drains, write cancellation, and the
//! Mellow Writes issue logic. Verify, drift detection and scrub live in
//! the `reliability` module, which the scheduler calls into.

use crate::queues::{banks_in, due_mask, OpKind, QueuedReq, ReadPick, RequestQueues};
use crate::reliability::{Reliability, Verified};
use crate::{FaultStats, MemConfig, RetentionStats, ScrubStats};
use mellow_core::{
    decide_write, BankQueueView, WearQuota, WearQuotaConfig, WriteDecision, WritePolicy, WriteSpeed,
};
use mellow_engine::stats::{BusyTracker, Histogram};
use mellow_engine::{Duration, MemCycles, SimTime, TimerQueue};
use mellow_nvm::energy::EnergyAccount;
use mellow_nvm::{
    CancelWear, EnduranceModel, LevelerStats, LifetimeProjection, WearLedger, WearLeveler,
};
use std::collections::VecDeque;

/// Counters exposed by the controller (the raw material of Figs. 2–3 and
/// 10–18).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtrlStats {
    /// Reads accepted into the read queue.
    pub reads_accepted: u64,
    /// Reads serviced by forwarding from a pending (queued or in-flight)
    /// write.
    pub reads_forwarded: u64,
    /// The subset of `reads_forwarded` whose write was in flight at its
    /// bank when the read arrived. Before forwarding covered in-flight
    /// writes, these reads entered the read queue and could cancel the
    /// very write holding their data.
    pub reads_forwarded_in_flight: u64,
    /// Reads rejected because the read queue was full.
    pub read_rejects: u64,
    /// Demand writes accepted into the write queue.
    pub demand_writes_accepted: u64,
    /// Demand writes rejected because the write queue was full.
    pub write_rejects: u64,
    /// Eager writes accepted into the Eager Mellow queue.
    pub eager_writes_accepted: u64,
    /// Row-buffer-hit reads issued to banks.
    pub rb_hit_reads: u64,
    /// Row-buffer-miss reads (array activations) issued to banks.
    pub rb_miss_reads: u64,
    /// Normal-speed write issues to banks (including later-cancelled).
    pub writes_issued_normal: u64,
    /// Slow-speed write issues to banks (including later-cancelled).
    pub writes_issued_slow: u64,
    /// Completed normal-speed demand writes.
    pub writes_completed_normal: u64,
    /// Completed slow-speed demand writes.
    pub writes_completed_slow: u64,
    /// Completed eager writes (any speed).
    pub eager_completed: u64,
    /// Write attempts cancelled by an incoming read.
    pub writes_cancelled: u64,
    /// Write attempts paused (and later resumed) for an incoming read
    /// (`+WP` policies).
    pub writes_paused: u64,
    /// Cancels/pauses that struck before the write pulse began (the
    /// line was still bursting over the bus): no data reached the bank,
    /// so the retry must re-transfer, and the aborted bus slot is
    /// released.
    pub pre_pulse_cancels: u64,
    /// Write-drain episodes entered.
    pub write_drains: u64,
    /// Read latency from enqueue to data return, in nanoseconds.
    pub read_latency_ns: Histogram,
}

mellow_engine::impl_json_fields!(CtrlStats {
    reads_accepted,
    reads_forwarded,
    reads_forwarded_in_flight,
    read_rejects,
    demand_writes_accepted,
    write_rejects,
    eager_writes_accepted,
    rb_hit_reads,
    rb_miss_reads,
    writes_issued_normal,
    writes_issued_slow,
    writes_completed_normal,
    writes_completed_slow,
    eager_completed,
    writes_cancelled,
    writes_paused,
    pre_pulse_cancels,
    write_drains,
    read_latency_ns,
});

impl CtrlStats {
    /// Total requests issued to banks (Fig. 15's metric): reads plus
    /// every write issue attempt.
    pub fn issued_to_banks(&self) -> u64 {
        self.rb_hit_reads + self.rb_miss_reads + self.writes_issued_normal + self.writes_issued_slow
    }
}

/// A request at its bank: the queued request, whose `remaining` is the
/// fraction of the pulse outstanding when this segment started, plus
/// what issue decided.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: QueuedReq,
    /// A write's pulse; `None` for a read.
    pulse: Option<Pulse>,
    /// When the bank is done: a read's data is back, a pulse has ended.
    end: SimTime,
}

/// What issue decided for a write.
#[derive(Debug, Clone, Copy)]
struct Pulse {
    /// The Figure 9 speed, which decides whether the write is cancellable.
    speed: WriteSpeed,
    /// Actual latency factor driven (1.0 normal; the policy's slow
    /// factor, or a graded level under `+GR`).
    factor: f64,
    /// When the pulse begins (after the bus transfer).
    start: SimTime,
}

/// Per-bank state in struct-of-arrays layout. The only sweep across
/// *all* banks, [`free_mask`](Self::free_mask) in
/// [`Controller::issue`] and [`Controller::compute_next_actionable`],
/// reads one field (`busy_until`), so keeping each field in its own
/// dense lane makes that sweep a contiguous scan; every other access
/// goes to the few banks a mask selects.
#[derive(Debug)]
struct Banks {
    open_row: Vec<Option<u64>>,
    busy_until: Vec<SimTime>,
    in_flight: Vec<Option<InFlight>>,
    busy_time: Vec<Duration>,
}

impl Banks {
    fn new(n: usize) -> Self {
        Banks {
            open_row: vec![None; n],
            busy_until: vec![SimTime::ZERO; n],
            in_flight: vec![None; n],
            busy_time: vec![Duration::ZERO; n],
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// The banks free at `now`: those whose last op ends at or before it.
    fn free_mask(&self, now: SimTime) -> u64 {
        due_mask(&self.busy_until, now)
    }
}

/// The cycle-level memory controller for a resistive main memory.
///
/// The controller owns three request queues (read > write > eager, in
/// priority), per-bank state machines with open-page row buffers, a
/// shared data bus, tFAW activation throttling, write drains, write
/// cancellation, Start-Gap wear leveling, and the wear/energy ledgers.
/// Write speeds follow the configured [`WritePolicy`] through the
/// Figure 9 decision tree.
///
/// The queues are held per bank (see the `queues` module), so bank
/// arbitration and read-forwarding lookups only walk the target bank,
/// each pass of a full tick visits only the banks its masks select,
/// and [`tick`](Self::tick) fast-paths any cycle provably before the
/// next actionable event. [`tick_full`](Self::tick_full) runs every
/// cycle in full and is the reference that skip is checked against.
///
/// Drive it by calling [`tick`](Self::tick) once per memory-clock cycle;
/// offer work with [`try_read`](Self::try_read) /
/// [`try_write`](Self::try_write) / [`try_eager`](Self::try_eager) and
/// collect read data with [`pop_read_done`](Self::pop_read_done).
///
/// # Examples
///
/// ```
/// use mellow_core::WritePolicy;
/// use mellow_engine::SimTime;
/// use mellow_memctrl::{Controller, MemConfig};
/// use mellow_nvm::{CancelWear, EnduranceModel};
///
/// let mut ctrl = Controller::new(
///     MemConfig::paper_default(),
///     WritePolicy::be_mellow_sc(),
///     EnduranceModel::reram_default(),
///     CancelWear::Prorated,
/// );
/// assert!(ctrl.try_read(42, SimTime::ZERO));
/// // Tick until the read returns (row miss: ~142.5 ns).
/// let mut done = None;
/// for c in 1..100 {
///     let now = SimTime::from_ps(c * 2500);
///     ctrl.tick(now);
///     if let Some(line) = ctrl.pop_read_done() {
///         done = Some(line);
///         break;
///     }
/// }
/// assert_eq!(done, Some(42));
/// ```
#[derive(Debug)]
pub struct Controller {
    cfg: MemConfig,
    policy: WritePolicy,
    queues: RequestQueues,
    banks: Banks,
    /// Recent activation times per rank, for tFAW.
    rank_acts: Vec<VecDeque<SimTime>>,
    bus_free_at: SimTime,
    /// The banks with an op in flight, keyed by its end: one entry per
    /// occupied `banks.in_flight` slot. A cancel removes its bank's
    /// entry, so the earliest entry is always a real completion.
    completions: TimerQueue<usize>,
    /// Forwarded reads awaiting their (bank-free) completion time.
    forwarded_pending: VecDeque<(SimTime, u64)>,
    read_done: VecDeque<u64>,
    ledger: WearLedger,
    /// The wear-leveling scheme: every logical→physical translation,
    /// rotation event, and verify-failure remap routes through this
    /// trait object (selected by `cfg.leveler`).
    leveler: Box<dyn WearLeveler>,
    /// Leveler counters at the last `reset_stats`, so reported leveling
    /// stats cover the measurement window only (registers and tables
    /// persist as device state, like Start-Gap's did).
    leveler_base: LevelerStats,
    quota: Option<WearQuota>,
    next_period_at: SimTime,
    draining: bool,
    drain_tracker: BusyTracker,
    energy: EnergyAccount,
    stats: CtrlStats,
    /// Fault, drift and scrub state, and the failed-verify policy.
    reliability: Reliability,
    rr_start: usize,
    /// No tick strictly before this time can act (see
    /// [`compute_next_actionable`](Self::compute_next_actionable));
    /// `tick` fast-paths such cycles. Reset to `ZERO` whenever a request
    /// is accepted.
    next_actionable: SimTime,
}

impl Controller {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`MemConfig::validate`]).
    pub fn new(
        cfg: MemConfig,
        policy: WritePolicy,
        endurance: EnduranceModel,
        cancel_wear: CancelWear,
    ) -> Self {
        cfg.validate();
        let banks = cfg.num_banks;
        let quota = policy.wear_quota.then(|| {
            let mut qc = WearQuotaConfig::paper_default(cfg.blocks_per_bank());
            qc.endurance_per_block = endurance.base_endurance();
            qc.ratio_quota = cfg.leveling_efficiency;
            qc.sample_period = cfg.sample_period;
            WearQuota::new(qc, banks)
        });
        let sample_period = cfg.sample_period;
        let leveler = cfg.leveler.build(banks, cfg.blocks_per_bank());
        let reliability = Reliability::new(&cfg, endurance, &*leveler);
        Controller {
            queues: RequestQueues::new(banks),
            banks: Banks::new(banks),
            rank_acts: (0..cfg.num_ranks).map(|_| VecDeque::new()).collect(),
            bus_free_at: SimTime::ZERO,
            completions: TimerQueue::new(),
            forwarded_pending: VecDeque::new(),
            read_done: VecDeque::new(),
            ledger: WearLedger::new(banks, endurance, cancel_wear),
            leveler,
            leveler_base: LevelerStats::default(),
            quota,
            next_period_at: SimTime::ZERO + sample_period,
            draining: false,
            drain_tracker: BusyTracker::new(),
            energy: EnergyAccount::default(),
            stats: CtrlStats::default(),
            reliability,
            rr_start: 0,
            next_actionable: SimTime::ZERO,
            policy,
            cfg,
        }
    }

    /// Enables per-block wear tracking (small configurations only: the
    /// table holds one `f64` per memory block).
    pub fn enable_block_tracking(&mut self) {
        // The leveler's full physical space (e.g. Start-Gap's gap spare).
        let blocks = self.leveler.physical_blocks_per_bank();
        // Rebuild the ledger with tracking; only valid before any wear.
        assert!(
            self.ledger.total_wear() == 0.0,
            "enable block tracking before simulating"
        );
        self.ledger = self.ledger.clone().with_block_tracking(blocks);
    }

    /// Returns the configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Returns the active write policy.
    pub fn policy(&self) -> &WritePolicy {
        &self.policy
    }

    /// Returns the counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Returns the wear ledger.
    pub fn ledger(&self) -> &WearLedger {
        &self.ledger
    }

    /// Returns the energy account.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Whether a demand/eager write for `line` is in flight at `bank`.
    fn write_in_flight_at(&self, line: u64, bank: usize) -> bool {
        self.banks.in_flight[bank].is_some_and(|op| op.req.line == line && op.pulse.is_some())
    }

    /// Whether a write for `line` (which maps to `bank`) is still
    /// pending: queued, in flight at the bank, or a repair parked in its
    /// verify-retry backoff. Every accepted write stays in one of these
    /// three sets until it completes or is lost. Walks only the line's
    /// bank queues and the few parked repairs.
    fn has_pending_write(&self, line: u64, bank: usize) -> bool {
        self.queues.has_queued_write(line, bank)
            || self.write_in_flight_at(line, bank)
            || self.reliability.is_parked(line)
    }

    /// Offers a read for `line`. Returns `false` when the read queue is
    /// full. Reads of lines with a pending write — queued, already in
    /// flight at the bank, or a repair parked in its backoff — are
    /// serviced by forwarding without touching the banks. (Were
    /// in-flight writes not forwarded, such a read would enter the read
    /// queue and could cancel the very write holding the only copy of
    /// its data.)
    pub fn try_read(&mut self, line: u64, now: SimTime) -> bool {
        let mapping = self.cfg.map_line(line);
        let bank = mapping.bank;
        if self.has_pending_write(line, bank) {
            // Forward from the pending write: data returns after the
            // column + bus latency without disturbing the banks.
            self.stats.reads_forwarded += 1;
            if self.write_in_flight_at(line, bank) {
                self.stats.reads_forwarded_in_flight += 1;
            }
            let end = now + self.cfg.t_cas + self.cfg.t_bus;
            self.stats
                .read_latency_ns
                .record(end.saturating_since(now).as_ns());
            self.forwarded_pending.push_back((end, line));
            self.next_actionable = SimTime::ZERO;
            return true;
        }
        if self.queues.read.len() >= self.cfg.read_queue_cap {
            self.stats.read_rejects += 1;
            return false;
        }
        self.queues
            .push(QueuedReq::new(OpKind::Read, line, mapping, now));
        self.stats.reads_accepted += 1;
        self.next_actionable = SimTime::ZERO;
        true
    }

    /// Offers a demand write (LLC dirty eviction) for `line`. Returns
    /// `false` when the write queue is full.
    pub fn try_write(&mut self, line: u64, now: SimTime) -> bool {
        if self.queues.write.len() >= self.cfg.write_queue_cap {
            self.stats.write_rejects += 1;
            return false;
        }
        let mapping = self.cfg.map_line(line);
        self.queues
            .push(QueuedReq::new(OpKind::DemandWrite, line, mapping, now));
        self.stats.demand_writes_accepted += 1;
        self.next_actionable = SimTime::ZERO;
        true
    }

    /// Returns `true` when the Eager Mellow queue can accept another
    /// entry (the LLC checks before probing for a candidate).
    #[inline]
    pub fn eager_has_room(&self) -> bool {
        self.queues.eager.len() < self.cfg.eager_queue_cap
    }

    /// Offers an eager writeback for `line`.
    ///
    /// # Panics
    ///
    /// Panics if the eager queue is full — callers must check
    /// [`eager_has_room`](Self::eager_has_room) first, because the LLC
    /// has already marked the line clean by the time it calls this.
    pub fn try_eager(&mut self, line: u64, now: SimTime) {
        assert!(self.eager_has_room(), "eager queue overflow");
        let mapping = self.cfg.map_line(line);
        self.queues
            .push(QueuedReq::new(OpKind::EagerWrite, line, mapping, now));
        self.stats.eager_writes_accepted += 1;
        self.next_actionable = SimTime::ZERO;
    }

    /// The controller's next-event hook, which the system's event kernel
    /// reads fresh on every jump (aligning it to the next memory-clock
    /// edge): the earliest time a future [`tick`](Self::tick) could do
    /// more than rotate the round-robin origin, or `None` when no
    /// future tick can act without new input (every `try_read`/
    /// `try_write`/`try_eager` resets the horizon to `ZERO`).
    ///
    /// A returned time at or before `now` — including `ZERO` while
    /// completed reads await draining — means the controller must be
    /// ticked at every memory-clock edge. Skipped idle edges must be
    /// replayed with [`fast_forward_idle`](Self::fast_forward_idle).
    #[inline]
    pub fn next_event(&self) -> Option<SimTime> {
        if !self.read_done.is_empty() {
            return Some(SimTime::ZERO);
        }
        if self.next_actionable == SimTime::MAX {
            None
        } else {
            Some(self.next_actionable)
        }
    }

    /// Batch-applies `edges` skipped memory-clock edges on which
    /// `tick`'s fast path would have run: each rotates the round-robin
    /// origin once and changes nothing else.
    pub fn fast_forward_idle(&mut self, edges: MemCycles) {
        let n = self.banks.len() as u64;
        self.rr_start = ((self.rr_start as u64 + edges.count() % n) % n) as usize;
    }

    /// Removes and returns the next completed read's line address.
    #[inline]
    pub fn pop_read_done(&mut self) -> Option<u64> {
        self.read_done.pop_front()
    }

    /// Whether [`next_event`](Self::next_event) may have moved since the
    /// last call: always `true`. The system's event kernel reads the
    /// horizon fresh on every jump, so the controller tracks no changes;
    /// a caller that still caches horizons re-queries every time, which
    /// is always correct.
    pub fn take_event_dirty(&mut self) -> bool {
        true
    }

    /// Advances the controller to memory-clock edge `now`, skipping
    /// the work of any edge before the next actionable time.
    ///
    /// Inlined into the caller: an edge before the next actionable time
    /// costs one compare and the round-robin rotation, and only an
    /// actionable edge calls the out-of-line
    /// [`tick_full`](Self::tick_full).
    #[inline]
    pub fn tick(&mut self, now: SimTime) {
        if now < self.next_actionable {
            // Nothing can act yet. Keep round-robin fairness identical
            // to a full tick (`issue` advances it once per call).
            self.rr_start = (self.rr_start + 1) % self.banks.len();
            return;
        }
        self.tick_full(now);
    }

    /// Advances the controller to memory-clock edge `now` in full,
    /// without [`tick`](Self::tick)'s skip: the reference that skip
    /// must match bit for bit. The system's cycle reference loop drives
    /// the controller through this.
    pub fn tick_full(&mut self, now: SimTime) {
        self.drain_forwarded(now);
        self.reliability.release_parked(now, &mut self.queues);
        self.process_completions(now);
        self.roll_periods(now);
        self.update_drain_state(now);
        self.cancel_writes_for_reads(now);
        let tfaw_blocked = self.issue(now);
        self.next_actionable = self.compute_next_actionable(now, tfaw_blocked);
    }

    /// The earliest time a future tick could act given current state —
    /// the license for `tick`'s fast path.
    ///
    /// Exactness: every event that could make an earlier tick act either
    /// (a) is scheduled and included in the minimum below — completions,
    /// pending forwarded reads, quota period boundaries, busy banks with
    /// issueable work, the reliability pipeline's scrub visits and parked
    /// repair releases ([`Reliability::next_due`]); (b) arrives through `try_read`/`try_write`/
    /// `try_eager`, each of which resets `next_actionable` to `ZERO`; or
    /// (c) is due immediately, in which case `ZERO` is returned — a
    /// pending drain transition, a tFAW-blocked activation, a free bank
    /// with issueable work. Cancel/pause decisions need no entry of
    /// their own: a declined cancel stays declined (pulse progress only
    /// grows and the cancel budget never refills), and every state
    /// change that *creates* a cancel candidate — a read arrival or a
    /// write issue — already runs through (a)–(c). A write-issue
    /// decision that is `Idle` now likewise stays `Idle` until one of
    /// those same events changes the bank's queue view.
    fn compute_next_actionable(&self, now: SimTime, tfaw_blocked: bool) -> SimTime {
        if tfaw_blocked {
            return SimTime::ZERO;
        }
        let wq = self.queues.write.len();
        let transition_pending = if self.draining {
            wq <= self.cfg.drain_low
        } else {
            wq >= self.cfg.drain_high
        };
        if transition_pending {
            return SimTime::ZERO;
        }
        let issueable = self.startable_mask();
        if issueable & self.banks.free_mask(now) != 0 {
            return SimTime::ZERO;
        }
        let mut next = SimTime::MAX;
        if let Some(t) = self.completions.next_due() {
            next = next.min(t);
        }
        if let Some(&(t, _)) = self.forwarded_pending.front() {
            next = next.min(t);
        }
        if self.quota.is_some() {
            next = next.min(self.next_period_at);
        }
        next = next.min(self.reliability.next_due(&self.banks.busy_until));
        // Every issueable bank is busy: each can act once it falls idle.
        for bank_idx in banks_in(issueable) {
            next = next.min(self.banks.busy_until[bank_idx]);
        }
        next
    }

    /// The banks with work an issue pass can start: a queued demand
    /// write while draining (reads are blocked and eager writes never
    /// drain), else any queued request. `decide_write` is non-idle
    /// exactly when a write is queued or an eager write is queued with
    /// no read ahead of it; OR-ed with the read check this collapses to
    /// plain queue occupancy, so no policy evaluation is needed here.
    fn startable_mask(&self) -> u64 {
        let q = &self.queues;
        if self.draining {
            q.write.mask()
        } else {
            q.read.mask() | q.write.mask() | q.eager.mask()
        }
    }

    fn drain_forwarded(&mut self, now: SimTime) {
        while let Some(&(t, line)) = self.forwarded_pending.front() {
            if t > now {
                break;
            }
            self.forwarded_pending.pop_front();
            self.read_done.push_back(line);
        }
    }

    fn process_completions(&mut self, now: SimTime) {
        while let Some(bank_idx) = self.completions.pop_due(now) {
            let InFlight { req, pulse, end } = self.banks.in_flight[bank_idx]
                .take()
                .expect("a scheduled bank holds its op");
            match pulse {
                Some(pulse) => self.complete_write(bank_idx, req, pulse.factor, end),
                None => {
                    self.read_done.push_back(req.line);
                    self.stats
                        .read_latency_ns
                        .record(end.saturating_since(req.enq).as_ns());
                    // The data itself is recovered through ECC; what
                    // must be repaired is the array copy.
                    if self.repair_if_expired(req.line, bank_idx, req.mapping.block, end) {
                        self.reliability.demand_detected();
                    }
                }
            }
        }
    }

    /// Completes a write pulse of latency `factor` that ended at `end`.
    fn complete_write(&mut self, bank_idx: usize, req: QueuedReq, factor: f64, end: SimTime) {
        // The pulse drove the cells whether or not it verifies: wear and
        // energy accrue before the verify step.
        let block = req.mapping.block;
        let phys = self.leveler.remap(bank_idx, block);
        self.ledger.record_write(bank_idx, Some(phys), factor);
        // Graded factors between 1x and 3x are charged slow-write
        // energy (a conservative overestimate; Table VI only
        // characterizes the two paper speeds).
        if factor > 1.0 {
            self.energy.add_slow_write();
        } else {
            self.energy.add_normal_write();
        }
        // A retry's data is still latched at the bank, so it skips the
        // bus transfer, and the write stays pending — reads keep
        // forwarding from it.
        let retry = QueuedReq {
            data_resident: true,
            remaining: 1.0,
            ..req
        };
        match self
            .reliability
            .verify_write(retry, phys, factor, end, &mut *self.leveler)
        {
            Verified::Clean => {}
            Verified::Retry(retry) => {
                // No completion counter and no leveling progress: the
                // data never landed, so there is nothing leveled to
                // rotate.
                self.queues.requeue_front(retry);
                return;
            }
            Verified::Absorbed => return,
        }
        let mut moved = Vec::new();
        self.leveler.note_write(bank_idx, block, &mut moved);
        for m in moved {
            self.ledger.record_leveling_write(bank_idx, Some(m));
        }
        self.reliability
            .restamp(bank_idx, block, phys, end, factor, req.repair);
        // Repair rewrites refresh data the host already owns: they drive
        // the cells (wear, energy, leveling above) but count as repairs
        // (in `restamp`), not demand/eager completions.
        if !req.repair {
            if factor > 1.0 {
                self.stats.writes_completed_slow += 1;
            } else {
                self.stats.writes_completed_normal += 1;
            }
        }
        if req.kind == OpKind::EagerWrite {
            self.stats.eager_completed += 1;
        }
    }

    /// One background scrub visit: verify-read the block under the
    /// bank's scrub cursor and enqueue a repair rewrite when the block
    /// is past its drift deadline.
    fn scrub_visit(&mut self, bank_idx: usize, now: SimTime) {
        let block = self.reliability.start_scrub(bank_idx, now);
        // The verify read drives the array like a row-miss read but
        // stays internal to the bank: no bus transfer, and the sense
        // amps are used directly, leaving the open row undisturbed.
        let end = now + self.cfg.t_rcd + self.cfg.t_cas;
        self.banks.busy_time[bank_idx] += end.saturating_since(now);
        self.banks.busy_until[bank_idx] = end;
        self.energy.add_buffer_read();
        let line = self.cfg.line_at(bank_idx, block);
        if self.repair_if_expired(line, bank_idx, block, now) {
            self.reliability.scrub_detected();
        }
    }

    /// After an array read of `line` (logical `block` at `bank`; a demand
    /// read returning or a scrub verify read) at `at`: enqueues a
    /// retention-repair rewrite on the demand write queue when the block
    /// is past its drift deadline. Returns whether it did. A line with a
    /// pending write needs no repair: that write restamps the drift
    /// clock when it lands (and scrub may already have enqueued the
    /// repair). The corrected data is latched at the controller, so the
    /// rewrite skips the bus transfer.
    fn repair_if_expired(&mut self, line: u64, bank: usize, block: u64, at: SimTime) -> bool {
        if !self.reliability.expired(bank, block, at) || self.has_pending_write(line, bank) {
            return false;
        }
        self.queues.push(QueuedReq {
            data_resident: true,
            repair: true,
            ..QueuedReq::new(OpKind::DemandWrite, line, self.cfg.map_line(line), at)
        });
        true
    }

    fn roll_periods(&mut self, now: SimTime) {
        let Some(quota) = &mut self.quota else {
            return;
        };
        let period = quota.config().sample_period;
        while now >= self.next_period_at {
            let wear: Vec<f64> = self.ledger.iter().map(|b| b.total_wear).collect();
            quota.start_period(&wear);
            self.next_period_at += period;
        }
    }

    fn update_drain_state(&mut self, now: SimTime) {
        if !self.draining && self.queues.write.len() >= self.cfg.drain_high {
            self.draining = true;
            self.stats.write_drains += 1;
            self.drain_tracker.set_busy(now);
        } else if self.draining && self.queues.write.len() <= self.cfg.drain_low {
            self.draining = false;
            self.drain_tracker.set_idle(now);
        }
    }

    fn cancel_writes_for_reads(&mut self, now: SimTime) {
        if self.draining {
            return; // drains must make forward progress
        }
        // A cancel requeues only writes, so the read mask holds for the
        // whole pass; ascending order keeps the wear and energy sums in
        // bank order.
        for bank_idx in banks_in(self.queues.read.mask()) {
            // Only a write in flight can yield.
            let Some(InFlight {
                req,
                pulse: Some(pulse),
                end,
            }) = self.banks.in_flight[bank_idx]
            else {
                continue;
            };
            if !self.policy.cancellable(pulse.speed) || now >= end {
                continue;
            }
            // Cancel or pause: yield the bank to the read and re-queue
            // the write at the front so it keeps its age priority.
            let in_pulse = now >= pulse.start;
            let length = end.saturating_since(pulse.start);
            let done = now.saturating_since(pulse.start);
            // Fraction of this *segment* driven so far.
            // `fraction_of` is 0.0 on an empty pulse, and `done` is
            // clamped below `length` by the `now < end` guard above.
            let segment_fraction = done.fraction_of(length).clamp(0.0, 1.0);
            // Fraction of the whole pulse driven (across pause resumes).
            let progress = 1.0 - req.remaining + req.remaining * segment_fraction;
            // Threshold rule [18]: a nearly-finished pulse runs to
            // completion; a repeatedly-yielding write stops yielding.
            if progress >= self.cfg.cancel_threshold || req.cancels >= self.cfg.max_cancels {
                continue;
            }
            let remaining = if self.policy.pause_writes {
                // Pause: progress is preserved; wear and energy are
                // charged once, at completion, for the full pulse.
                self.stats.writes_paused += 1;
                (1.0 - progress).max(0.0)
            } else {
                // Abort: the driven fraction is wasted — charge its wear
                // and energy at the factor it drove, and restart from
                // scratch.
                let phys = self.leveler.remap(bank_idx, req.mapping.block);
                let charged = req.remaining * segment_fraction;
                self.ledger
                    .record_cancelled(bank_idx, Some(phys), pulse.factor, charged);
                self.energy.add_cancelled(pulse.factor > 1.0, charged);
                self.stats.writes_cancelled += 1;
                1.0
            };
            // Refund the unspent busy time (saturating: the issue may
            // predate a measurement reset that zeroed busy_time).
            self.banks.busy_time[bank_idx] =
                self.banks.busy_time[bank_idx].saturating_sub(end.saturating_since(now));
            self.banks.busy_until[bank_idx] = now;
            self.banks.in_flight[bank_idx] = None;
            self.completions.retain(|&b| b != bank_idx);
            if !in_pulse {
                // The line was still bursting over the bus: no data has
                // reached the bank, so the retry is not `data_resident`,
                // and the aborted transfer's bus slot is released. (Bus
                // reservations grow strictly, so `bus_free_at` equals
                // this pulse's start exactly when it still holds the
                // newest reservation.)
                self.stats.pre_pulse_cancels += 1;
                if self.bus_free_at == pulse.start {
                    self.bus_free_at = now;
                }
            }
            self.queues.requeue_front(QueuedReq {
                data_resident: in_pulse,
                cancels: req.cancels + 1,
                remaining,
                ..req
            });
        }
    }

    fn bank_view(&self, bank: usize) -> BankQueueView {
        BankQueueView::new(
            self.queues.read.at(bank),
            self.queues.write.at(bank),
            self.queues.eager.at(bank),
            self.quota
                .as_ref()
                .map(|q| q.exceeded(bank))
                .unwrap_or(false),
        )
    }

    /// One round-robin arbitration pass over the banks. Returns whether
    /// any activation was blocked by tFAW (it must retry next cycle).
    ///
    /// Each visited bank issues its read (none while draining), else
    /// the write the Figure 9 tree decides. A drain moves only demand
    /// writes, so it declines an eager decision, which the tree makes
    /// only for a bank with no demand write queued: that bank's window
    /// goes to a due scrub visit, or stays idle.
    ///
    /// The pass visits only the free banks with startable work or a due
    /// scrub visit, a set fixed before it starts: visiting a bank
    /// changes only that bank's sub-queues, busy time, open row,
    /// in-flight slot and scrub clock (a scrub repair maps back to the
    /// scrubbed bank), and `draining` holds for the whole pass. The
    /// shared bus, tFAW and the write-queue total change *how* a later
    /// bank issues, never *whether* it is free, has work or is due.
    fn issue(&mut self, now: SimTime) -> bool {
        let n = self.banks.len();
        let start = self.rr_start;
        self.rr_start = (self.rr_start + 1) % n;
        let scrub_due = self.reliability.scrub_due_mask(now);
        let visit = self.banks.free_mask(now) & (self.startable_mask() | scrub_due);
        // Round-robin order: `start` and up, then the banks below it.
        let from_start = !0u64 << start;
        let mut tfaw_blocked = false;
        for bank_idx in banks_in(visit & from_start).chain(banks_in(visit & !from_start)) {
            // Reads have priority, row-buffer hit first, then oldest;
            // a drain blocks them.
            let read = if self.draining {
                None
            } else {
                self.queues
                    .pick_read(bank_idx, self.banks.open_row[bank_idx])
            };
            // Whether foreground work takes this idle-bank window; a due
            // scrub visit gets only the windows it leaves.
            let took_bank = if let Some((req, pick)) = read {
                if !self.issue_read(bank_idx, req, pick, now) {
                    // Retry next cycle; the window is neither used nor
                    // lost, so a due scrub visit waits too.
                    tfaw_blocked = true;
                    continue;
                }
                true
            } else {
                // Eager writes, like demand writes, win the window over
                // a due scrub visit.
                let write = match decide_write(&self.policy, self.bank_view(bank_idx)) {
                    WriteDecision::Demand(speed) => Some((&mut self.queues.write, speed)),
                    // A drain moves only demand writes.
                    WriteDecision::Eager(speed) if !self.draining => {
                        Some((&mut self.queues.eager, speed))
                    }
                    WriteDecision::Eager(_) | WriteDecision::Idle => None,
                };
                match write {
                    Some((queue, speed)) => {
                        let req = queue
                            .take(bank_idx)
                            .expect("the decision implies a queued write");
                        self.issue_write(bank_idx, req, speed, now);
                        true
                    }
                    None => false,
                }
            };
            if scrub_due & (1 << bank_idx) != 0 {
                if took_bank {
                    self.reliability.scrub_lost_window();
                } else {
                    self.scrub_visit(bank_idx, now);
                }
            }
        }
        tfaw_blocked
    }

    /// Returns `false` when tFAW blocks the needed activation (the read
    /// stays queued; `pick` is dropped untouched).
    fn issue_read(
        &mut self,
        bank_idx: usize,
        req: QueuedReq,
        pick: ReadPick,
        now: SimTime,
    ) -> bool {
        let hit = self.banks.open_row[bank_idx] == Some(req.mapping.row);
        if !hit && !self.try_activate(self.cfg.rank_of(bank_idx), now) {
            return false;
        }
        self.queues.remove_read(pick);
        let access_done = if hit {
            now + self.cfg.t_cas
        } else {
            self.banks.open_row[bank_idx] = Some(req.mapping.row);
            now + self.cfg.t_rcd + self.cfg.t_cas
        };
        let xfer_start = access_done.max(self.bus_free_at);
        let end = xfer_start + self.cfg.t_bus;
        self.bus_free_at = end;
        if hit {
            self.energy.add_rb_hit_read();
            self.stats.rb_hit_reads += 1;
        } else {
            self.energy.add_buffer_read();
            self.stats.rb_miss_reads += 1;
        }
        self.occupy(bank_idx, req, None, end, now);
        true
    }

    fn issue_write(&mut self, bank_idx: usize, req: QueuedReq, speed: WriteSpeed, now: SimTime) {
        let factor = match speed {
            WriteSpeed::Normal => 1.0,
            // +GR: grade the slowdown by write-queue pressure. Cancel
            // and pause requeues, verify retries and repairs enter the
            // write queue without the acceptance cap check, so it can
            // run past its cap; that is full pressure, not an error.
            WriteSpeed::Slow => self.policy.slow_factor_for_occupancy(
                (self.queues.write.len() as f64 / self.cfg.write_queue_cap as f64).min(1.0),
            ),
        };
        // A resumed (+WP) write only drives its outstanding fraction.
        let length = self.cfg.t_wp.scale(factor * req.remaining);
        // A cancelled write's data is still latched at the bank: its
        // retry starts the pulse immediately without re-bursting data.
        let start = if req.data_resident {
            now
        } else {
            let xfer_start = now.max(self.bus_free_at);
            self.bus_free_at = xfer_start + self.cfg.t_bus;
            xfer_start + self.cfg.t_bus
        };
        if factor > 1.0 {
            self.stats.writes_issued_slow += 1;
        } else {
            self.stats.writes_issued_normal += 1;
        }
        let pulse = Pulse {
            speed,
            factor,
            start,
        };
        self.occupy(bank_idx, req, Some(pulse), start + length, now);
    }

    /// Puts `req` in flight at its bank from `now` to `end`.
    fn occupy(
        &mut self,
        bank_idx: usize,
        req: QueuedReq,
        pulse: Option<Pulse>,
        end: SimTime,
        now: SimTime,
    ) {
        self.banks.busy_time[bank_idx] += end.saturating_since(now);
        self.banks.busy_until[bank_idx] = end;
        self.banks.in_flight[bank_idx] = Some(InFlight { req, pulse, end });
        self.completions.schedule(end, bank_idx);
    }

    fn try_activate(&mut self, rank: usize, now: SimTime) -> bool {
        let acts = &mut self.rank_acts[rank];
        while acts
            .front()
            .is_some_and(|&t| now.saturating_since(t) >= self.cfg.t_faw)
        {
            acts.pop_front();
        }
        if acts.len() >= 4 {
            return false;
        }
        acts.push_back(now);
        true
    }

    /// Returns each bank's utilization (busy fraction) over `elapsed`.
    pub fn bank_utilization(&self, elapsed: Duration) -> Vec<f64> {
        self.banks
            .busy_time
            .iter()
            .map(|b| b.fraction_of(elapsed))
            .collect()
    }

    /// Returns the mean bank utilization over `elapsed` (Figs. 3, 12).
    pub fn avg_bank_utilization(&self, elapsed: Duration) -> f64 {
        let v = self.bank_utilization(elapsed);
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Returns the total time spent in write-drain mode up to `now`
    /// (Fig. 13).
    pub fn drain_time(&self, now: SimTime) -> Duration {
        self.drain_tracker.busy_time(now)
    }

    /// Returns `true` while a write drain is in progress.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Projects memory lifetime from the wear accumulated over `elapsed`
    /// (the paper's cyclic-execution methodology).
    pub fn lifetime(&self, elapsed: Duration) -> LifetimeProjection {
        self.cfg
            .lifetime_model(self.ledger.endurance())
            .project(&self.ledger, elapsed)
    }

    /// Returns the fault-layer counters with the spares-remaining gauge
    /// filled in. With faults disabled the gauge reports the full
    /// (untouched) spare pool, so a disabled controller serializes
    /// identically to an enabled one whose fault knobs are all zero.
    pub fn fault_stats(&self) -> FaultStats {
        self.reliability.fault_stats(&*self.leveler)
    }

    /// Returns the retention-repair counters (see [`RetentionStats`] for
    /// the resolution invariant they satisfy).
    pub fn retention_stats(&self) -> &RetentionStats {
        self.reliability.retention_stats()
    }

    /// Returns the background scrub engine's counters.
    pub fn scrub_stats(&self) -> &ScrubStats {
        self.reliability.scrub_stats()
    }

    /// The active wear-leveling scheme's short name.
    pub fn leveler_name(&self) -> &'static str {
        self.leveler.name()
    }

    /// Leveling overhead/migration counters accumulated since the last
    /// [`reset_stats`](Self::reset_stats) (i.e. over the measurement
    /// window), summed across banks.
    pub fn leveler_stats(&self) -> LevelerStats {
        self.leveler.stats().since(&self.leveler_base)
    }

    /// Fraction of physical blocks still usable: 1.0 until spare
    /// exhaustion starts declaring blocks lost.
    pub fn usable_capacity_fraction(&self) -> f64 {
        self.reliability.usable_fraction()
    }

    /// Blocks declared lost after their bank's spare pool ran dry.
    pub fn lost_blocks(&self) -> u64 {
        self.reliability.lost_blocks()
    }

    /// Projects the years until the usable-capacity fraction drops below
    /// `capacity_fraction`, from the wear accumulated over `elapsed`
    /// (see [`mellow_nvm::LifetimeModel::years_to_capacity`]). Uses the
    /// configured endurance variation when faults are enabled; with
    /// faults disabled every block fails at the nominal endurance and the
    /// projection collapses onto the first-failure lifetime.
    pub fn capacity_years(&self, elapsed: Duration, capacity_fraction: f64) -> f64 {
        let model = self.cfg.lifetime_model(self.ledger.endurance());
        let sigma = if self.cfg.fault.enabled {
            self.cfg.fault.endurance_sigma
        } else {
            0.0
        };
        model.years_to_capacity(&self.ledger, elapsed, sigma, capacity_fraction)
    }

    /// Returns the current read/write/eager queue occupancies.
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        let q = &self.queues;
        (q.read.len(), q.write.len(), q.eager.len())
    }

    /// Returns how many banks the Wear Quota currently restricts to slow
    /// writes (0 when the policy has no `+WQ`).
    pub fn quota_restricted_banks(&self) -> usize {
        self.quota.as_ref().map_or(0, |q| q.exceeded_count())
    }

    /// Zeroes every measurement (counters, wear ledger, energy account,
    /// bank busy time, drain tracker, quota history) at an end-of-warmup
    /// boundary, preserving microarchitectural state (queues, open rows,
    /// in-flight operations, wear-leveler registers and tables).
    ///
    /// `now` re-anchors the period clock and the drain tracker.
    pub fn reset_stats(&mut self, now: SimTime) {
        self.stats = CtrlStats::default();
        self.energy = EnergyAccount::default();
        // Reliability *counters* reset with the measurement window; its
        // *state* (wear limits, stuck blocks, consumed spares, the drift
        // table, scrub cursors, parked repairs) is device state and
        // persists, like the Start-Gap registers.
        self.reliability.reset_stats();
        // Leveler registers/tables persist as device state; snapshot
        // the counters so reported stats cover the new window.
        self.leveler_base = self.leveler.stats();
        self.ledger.reset();
        self.banks.busy_time.fill(Duration::ZERO);
        let was_draining = self.draining;
        self.drain_tracker = BusyTracker::new();
        if was_draining {
            self.drain_tracker.set_busy(now);
        }
        if let Some(q) = &self.quota {
            let qc = *q.config();
            self.quota = Some(WearQuota::new(qc, self.cfg.num_banks));
            self.next_period_at = now + qc.sample_period;
        }
        self.next_actionable = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_core::WritePolicy;
    use mellow_nvm::{CancelWear, EnduranceModel, ExpoFactor, RetentionConfig};

    #[test]
    fn fast_forward_idle_matches_ticked_fast_path() {
        let mk = || {
            let mut cfg = MemConfig::paper_default();
            cfg.capacity_bytes = 1 << 26;
            let mut c = Controller::new(
                cfg,
                WritePolicy::norm(),
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            // Park the horizon in the future so every tick takes the
            // fast path (rotate round-robin, nothing else).
            c.next_actionable = SimTime::MAX;
            c
        };
        for edges in [0u64, 1, 15, 16, 17, 1_000_003] {
            let mut ticked = mk();
            let mut jumped = mk();
            for i in 0..edges.min(10_000) {
                ticked.tick(SimTime::from_ps(i * 2500));
            }
            jumped.fast_forward_idle(MemCycles::new(edges.min(10_000)));
            assert_eq!(ticked.rr_start, jumped.rr_start, "{edges} edges");
        }
        // Rotation is modular, so huge skips need no iteration at all.
        let mut far = mk();
        far.fast_forward_idle(MemCycles::new(1_000_003));
        let banks = far.banks.len() as u64;
        assert_eq!(far.rr_start as u64, 1_000_003 % banks);
    }

    fn small_cfg() -> MemConfig {
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 20;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg
    }

    fn drain(c: &mut Controller, cycles: u64) {
        for i in 1..=cycles {
            c.tick(SimTime::from_ps(i * 2500));
        }
    }

    #[test]
    fn failing_write_consumes_retries_then_spare_then_loses_data() {
        let mut cfg = small_cfg();
        cfg.max_write_retries = 1;
        cfg.set_spares_per_bank(1);
        cfg.fault.enabled = true;
        cfg.fault.transient_rate = 1.0; // every verify fails
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(7, SimTime::ZERO));
        drain(&mut c, 10_000);
        // Attempt 1 retries, attempt 2 exhausts the budget and remaps,
        // attempt 3 retries on the spare, attempt 4 finds no spare left.
        let f = c.fault_stats();
        assert_eq!(f.verify_failures, 4);
        assert_eq!(f.retries, 2);
        assert_eq!(f.remaps, 1);
        assert_eq!(f.uncorrectable, 1);
        assert_eq!(f.verify_failures, f.retries + f.remaps + f.uncorrectable);
        // The write's bank drained its single spare; the other three
        // banks' pools are untouched.
        assert_eq!(f.spares_remaining, 3);
        assert_eq!(c.lost_blocks(), 1);
        assert!(c.usable_capacity_fraction() < 1.0);
        // Nothing completed, but all four driven pulses charged wear.
        assert_eq!(c.stats().writes_completed_normal, 0);
        assert!((c.ledger().total_wear() - 4.0).abs() < 1e-12);
        // The lost write is no longer pending: a later read must go to
        // the array instead of forwarding stale write data.
        assert!(c.try_read(7, SimTime::from_ps(10_001 * 2500)));
        assert_eq!(c.stats().reads_forwarded, 0);
    }

    #[test]
    fn clean_fault_layer_leaves_writes_untouched() {
        let mut cfg = small_cfg();
        cfg.fault.enabled = true; // all knobs zero: nothing can fail
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(3, SimTime::ZERO));
        drain(&mut c, 1_000);
        assert_eq!(c.stats().writes_completed_normal, 1);
        let f = c.fault_stats();
        assert_eq!(f.verify_failures, 0);
        assert_eq!(f.spares_remaining, 4 * 8);
        assert_eq!(c.usable_capacity_fraction(), 1.0);
    }

    #[test]
    fn disabled_faults_report_the_full_spare_pool() {
        let c = Controller::new(
            small_cfg(),
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        let f = c.fault_stats();
        assert_eq!(
            f,
            FaultStats {
                spares_remaining: 4 * 8,
                ..FaultStats::default()
            }
        );
        assert_eq!(c.usable_capacity_fraction(), 1.0);
        assert_eq!(c.lost_blocks(), 0);
    }

    /// A 16 KiB / 4-bank config (64 logical blocks per bank) with the
    /// drift layer on: base retention 10 µs, no spread, and a 1 µs
    /// scrub interval, so one full scrub sweep of a bank takes 64 µs.
    fn retention_cfg() -> MemConfig {
        let mut cfg = MemConfig::paper_default();
        cfg.capacity_bytes = 1 << 14;
        cfg.num_banks = 4;
        cfg.num_ranks = 1;
        cfg.retention = RetentionConfig {
            enabled: true,
            base_retention: Duration::from_us(10),
            drift_sigma: 0.0,
            slow_write_boost: 0.0,
            wear_sensitivity: 0.0,
            seed: 0xD21F,
        };
        cfg.scrub_interval = Duration::from_us(1);
        cfg
    }

    fn run_span(c: &mut Controller, from_cycle: u64, to_cycle: u64) {
        for i in (from_cycle + 1)..=to_cycle {
            c.tick(SimTime::from_ps(i * 2500));
        }
    }

    #[test]
    fn scrubber_detects_and_repairs_expired_blocks() {
        let mut c = Controller::new(
            retention_cfg(),
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        // Line 7 = bank 3, block 1: stamped at completion (~0.4 µs),
        // expired on the scrubber's second visit to block 1 (~66 µs)
        // and on every 64 µs revisit after the repair restamps it.
        assert!(c.try_write(7, SimTime::ZERO));
        run_span(&mut c, 0, 60_000); // 150 µs
        let s = c.scrub_stats().clone();
        let r = c.retention_stats().clone();
        assert_eq!(s.scrub_rewrites, 2, "{s:?}");
        assert_eq!(r.demand_verify_failures, 0);
        assert_eq!(r.repairs, 2, "{r:?}");
        assert_eq!(r.retention_uncorrectable, 0);
        assert_eq!(
            r.demand_verify_failures + s.scrub_rewrites,
            r.repairs + r.retention_uncorrectable
        );
        // ~1 visit per µs per bank, minus busy windows.
        assert!(s.scrub_reads >= 400, "{s:?}");
        // Repairs are not demand completions: the host wrote once.
        assert_eq!(c.stats().writes_completed_normal, 1);
        // No fault layer: repairs cannot fail, nothing is lost.
        assert_eq!(c.fault_stats().verify_failures, 0);
        assert_eq!(c.usable_capacity_fraction(), 1.0);
    }

    #[test]
    fn demand_read_detects_expired_block_and_repairs() {
        let mut cfg = retention_cfg();
        cfg.scrub_interval = Duration::ZERO; // no scrubber: reads detect
        let mut c = Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        assert!(c.try_write(7, SimTime::ZERO));
        run_span(&mut c, 0, 8_000); // 20 µs: the block is past deadline
        assert_eq!(c.scrub_stats().scrub_reads, 0);
        assert!(c.try_read(7, SimTime::from_ps(8_000 * 2500)));
        run_span(&mut c, 8_000, 10_000);
        assert_eq!(c.pop_read_done(), Some(7));
        let r = c.retention_stats().clone();
        assert_eq!(r.demand_verify_failures, 1);
        assert_eq!(r.repairs, 1, "{r:?}");
        // The repair restamped the clock: a prompt re-read is clean.
        assert!(c.try_read(7, SimTime::from_ps(10_000 * 2500)));
        run_span(&mut c, 10_000, 12_000);
        assert_eq!(c.pop_read_done(), Some(7));
        assert_eq!(c.retention_stats().demand_verify_failures, 1);
    }

    /// The `retention_cfg` controller with one retry, one spare per bank
    /// and cells that endure two writes, so every repair rewrite to an
    /// already-written block fails verify.
    fn failing_repair_controller() -> Controller {
        let mut cfg = retention_cfg();
        cfg.max_write_retries = 1;
        cfg.set_spares_per_bank(1);
        cfg.fault.enabled = true; // sigma 0: every block endures 2 writes
        Controller::new(
            cfg,
            WritePolicy::norm(),
            EnduranceModel::new(Duration::from_ns(150), 2.0, ExpoFactor::QUADRATIC),
            CancelWear::Prorated,
        )
    }

    #[test]
    fn repair_write_failures_walk_the_remap_path() {
        let mut c = failing_repair_controller();
        assert!(c.try_write(7, SimTime::ZERO));
        // First expiry (~66 µs): repair fails, backs off, fails again,
        // remaps to the bank's one spare, succeeds there. Second expiry
        // (~130 µs): the spare also has one write spent, so the repair
        // fails through the empty pool and the block's data is lost.
        run_span(&mut c, 0, 60_000); // 150 µs
        let s = c.scrub_stats().clone();
        let r = c.retention_stats().clone();
        let f = c.fault_stats();
        assert_eq!(s.scrub_rewrites, 2, "{s:?}");
        assert_eq!(r.repairs, 1, "{r:?}");
        assert_eq!(r.retention_uncorrectable, 1);
        assert_eq!(
            r.demand_verify_failures + s.scrub_rewrites,
            r.repairs + r.retention_uncorrectable
        );
        assert_eq!(f.verify_failures, 4, "{f:?}");
        assert_eq!(f.retries, 2);
        assert_eq!(f.remaps, 1);
        assert_eq!(f.uncorrectable, 1);
        assert_eq!(f.verify_failures, f.retries + f.remaps + f.uncorrectable);
        assert_eq!(c.lost_blocks(), 1);
        assert!(c.usable_capacity_fraction() < 1.0);
        // The forgotten block stops re-detecting: nothing accrues after
        // the loss even though the scrubber keeps sweeping.
        run_span(&mut c, 60_000, 120_000);
        assert_eq!(c.scrub_stats().scrub_rewrites, 2);
        assert_eq!(c.retention_stats().retention_uncorrectable, 1);
    }

    #[test]
    fn reads_forward_from_a_parked_repair() {
        let mut c = failing_repair_controller();
        assert!(c.try_write(7, SimTime::ZERO));
        // The first repair of line 7 (~66 µs) fails verify and parks for
        // its 20 ns backoff.
        let mut cycle = 0;
        while !c.reliability.is_parked(7) {
            cycle += 1;
            assert!(cycle <= 60_000, "no repair parked within 150 µs");
            c.tick(SimTime::from_ps(cycle * 2500));
        }
        // The parked repair holds the line's data: a read forwards from
        // it rather than queueing for the drifted array copy.
        assert!(c.try_read(7, SimTime::from_ps(cycle * 2500)));
        assert_eq!(c.stats().reads_forwarded, 1);
        assert_eq!(c.queue_depths().0, 0);
    }

    #[test]
    fn eager_writes_win_idle_bank_windows_over_scrub() {
        let mut cfg = retention_cfg();
        cfg.retention.base_retention = Duration::from_ns(1_000_000); // never expires here
        cfg.scrub_interval = Duration::from_ps(2500); // due every edge
        let mut c = Controller::new(
            cfg,
            WritePolicy::be_mellow_sc(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        c.try_eager(0, SimTime::ZERO); // bank 0
        c.tick(SimTime::from_ps(2500));
        // The eager write wins bank 0 (one counted conflict); the three
        // idle banks scrub.
        assert_eq!(c.queue_depths().2, 0);
        assert_eq!(c.scrub_stats().scrub_reads, 3);
        assert_eq!(c.scrub_stats().scrub_bank_conflicts, 1);
    }

    /// A drain moves only demand writes: a free bank whose only queued
    /// work is an eager write gives its window to a due scrub visit, and
    /// the eager write waits for the drain to end.
    #[test]
    fn a_drain_leaves_an_eager_only_bank_to_its_scrub_visit() {
        let mut cfg = retention_cfg();
        cfg.retention.base_retention = Duration::from_ns(1_000_000); // never expires here
        cfg.scrub_interval = Duration::from_ps(2500); // due every edge
        let mut c = Controller::new(
            cfg,
            WritePolicy::be_mellow_sc(),
            EnduranceModel::reram_default(),
            CancelWear::Prorated,
        );
        // A full write queue on bank 0 starts a drain; bank 1 holds only
        // an eager write, and banks 2 and 3 nothing.
        for i in 0..32 {
            assert!(c.try_write(i * 4, SimTime::ZERO));
        }
        c.try_eager(1, SimTime::ZERO);
        c.tick(SimTime::from_ps(2500));
        assert!(c.is_draining());
        // Bank 0's demand write beats its scrub visit; banks 1, 2 and 3
        // scrub.
        assert_eq!(c.scrub_stats().scrub_reads, 3);
        assert_eq!(c.scrub_stats().scrub_bank_conflicts, 1);
        let mut cycle = 1;
        while c.is_draining() {
            assert_eq!(c.queue_depths().2, 1, "eager write issued mid-drain");
            cycle += 1;
            c.tick(SimTime::from_ps(cycle * 2500));
        }
        // Once the drain ends, the eager write wins bank 1's next window.
        run_span(&mut c, cycle, cycle + 300);
        assert_eq!(c.queue_depths().2, 0);
        assert_eq!(c.stats().eager_completed, 1);
    }

    #[test]
    fn zero_knob_retention_layer_is_inert() {
        let run = |enabled: bool| {
            let mut cfg = small_cfg();
            if enabled {
                cfg.retention.enabled = true;
                cfg.retention.base_retention = Duration::ZERO;
                cfg.retention.seed = 99;
                cfg.scrub_interval = Duration::ZERO;
            }
            let mut c = Controller::new(
                cfg,
                WritePolicy::be_mellow_sc(),
                EnduranceModel::reram_default(),
                CancelWear::Prorated,
            );
            assert!(c.try_write(3, SimTime::ZERO));
            c.try_eager(8, SimTime::ZERO);
            assert!(c.try_read(21, SimTime::ZERO));
            drain(&mut c, 5_000);
            format!(
                "{:?} {:?} {:?} {:?}",
                c.stats(),
                c.fault_stats(),
                c.retention_stats(),
                c.scrub_stats()
            )
        };
        assert_eq!(run(false), run(true));
    }
}
