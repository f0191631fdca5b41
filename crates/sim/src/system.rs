//! The wired full system and its tick loop.

use crate::{Metrics, SystemConfig};
use mellow_cache::{line_of, AccessId, Cache};
use mellow_cpu::{Core, CoreStall, ReqId, TraceSource};
#[cfg(feature = "sanitize")]
use mellow_engine::sanitize::Sanitizer;
use mellow_engine::{CoreCycles, DetRng, HorizonQueue, SimTime};
use mellow_memctrl::Controller;

/// Horizon sources for the event kernel's [`HorizonQueue`]: each
/// component (plus the utility sampler) owns one queue slot. The lint
/// pass `horizon-source-exhaustiveness` checks that every variant here
/// has a post site in [`System::refresh_horizons`] and a dispatch arm in
/// [`System::advance_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizonSource {
    /// The utility-monitor sampling boundary (always live).
    Sample,
    /// The L1 cache's next input/transfer head coming due.
    L1,
    /// The L2 cache's next input/transfer head coming due.
    L2,
    /// The last-level cache's next input/transfer head coming due.
    Llc,
    /// The memory controller's next actionable memory-clock edge.
    Ctrl,
}

impl HorizonSource {
    /// Every source, in queue-slot order.
    pub const ALL: [HorizonSource; 5] = [
        HorizonSource::Sample,
        HorizonSource::L1,
        HorizonSource::L2,
        HorizonSource::Llc,
        HorizonSource::Ctrl,
    ];

    /// This source's [`HorizonQueue`] slot.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> HorizonSource {
        Self::ALL[i]
    }
}

/// Drains one output queue into a consumer: items transfer in order
/// until `try_accept` reports the consumer full (backpressure). `peek`
/// and `pop` describe the queue on `src`; `pop` must remove the item
/// `peek` returned.
///
/// Every inter-level transfer in [`System::tick`] is an instance of
/// this loop, so the two tick loops share a single drain
/// implementation.
fn drain<S, T>(
    src: &mut S,
    peek: impl Fn(&S) -> Option<T>,
    pop: impl Fn(&mut S) -> Option<T>,
    mut try_accept: impl FnMut(T) -> bool,
) {
    while let Some(item) = peek(src) {
        if !try_accept(item) {
            break;
        }
        pop(src);
    }
}

/// The complete simulated system: core → L1 → L2 → LLC → memory
/// controller → ReRAM banks.
///
/// Construction wires the components; [`tick`](Self::tick) advances one
/// core cycle (500 ps), moving requests down the hierarchy and
/// responses back up, ticking the memory controller on every fifth core
/// cycle (400 MHz), probing for Eager Mellow Write candidates while the
/// LLC is idle, and sampling the utility monitor every `T_sample`.
/// [`run_instructions`](Self::run_instructions) additionally jumps
/// over provably idle spans using the event kernel's horizon queue
/// (see DESIGN.md §5 and §12), producing bit-identical results to the
/// reference cycle loop.
///
/// Most users should drive it through
/// [`Experiment`](crate::Experiment), which adds the paper's
/// warm-up/measure protocol.
pub struct System {
    cfg: SystemConfig,
    core: Core,
    l1: Cache,
    l2: Cache,
    llc: Cache,
    ctrl: Controller,
    eager_rng: DetRng,
    /// Per-source event horizons for the event-kernel loop: components
    /// post "my next work is at `t`" when their state changes and
    /// [`advance_event`](Self::advance_event) pops the earliest instead
    /// of polling every component.
    horizons: HorizonQueue,
    cycle: CoreCycles,
    now: SimTime,
    measure_start: SimTime,
    next_sample_at: SimTime,
    /// Core cycles per memory cycle (5 for 2 GHz / 400 MHz).
    mem_divisor: u64,
    /// The mellow-san shadow-state checker (see `mellow_engine::sanitize`).
    #[cfg(feature = "sanitize")]
    san: Sanitizer,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cycle", &self.cycle)
            .field("now", &self.now)
            .field("policy", &self.cfg.policy)
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see
    /// [`SystemConfig::validate`]) or the memory clock period is not a
    /// multiple of the core clock period.
    pub fn new(cfg: SystemConfig, trace: Box<dyn TraceSource>) -> Self {
        cfg.validate();
        let core_ps = cfg.core_clock.period().as_ps();
        let mem_ps = cfg.mem.clock.period().as_ps();
        assert_eq!(
            mem_ps % core_ps,
            0,
            "memory clock must divide evenly into core cycles"
        );
        let core = Core::new(cfg.core, trace);
        let l1 = Cache::new(cfg.l1.clone());
        let l2 = Cache::new(cfg.l2.clone());
        let mut llc = Cache::new(cfg.llc.clone());
        if cfg.policy.base.uses_eager() {
            llc.enable_eager();
        }
        let mut ctrl = Controller::new(cfg.mem.clone(), cfg.policy, cfg.endurance, cfg.cancel_wear);
        if cfg.track_block_wear {
            ctrl.enable_block_tracking();
        }
        let eager_rng = DetRng::seed_from(cfg.seed).derive(0x000E_A6EE);
        let next_sample_at = SimTime::ZERO + cfg.sample_period();
        #[cfg(feature = "sanitize")]
        let san = {
            // Sites the protocol forbids from raising the dirty flag:
            // output pops, stats resets and closed-form fast-forwards
            // cannot move a horizon (DESIGN §12), so a raise from one of
            // them masks real protocol bugs behind spurious refreshes.
            const CACHE_FORBIDDEN: &[&str] = &[
                "pop_completion",
                "pop_fill_up",
                "pop_miss_down",
                "pop_writeback_down",
                "reset_stats",
                "fast_forward_stalled",
                "fast_forward_rejected_inputs",
            ];
            let mut san = Sanitizer::new(
                &["sample", "l1", "l2", "llc", "ctrl"],
                Some(HorizonSource::Ctrl.index()),
                cfg.mem.clock.period(),
            );
            for src in [HorizonSource::L1, HorizonSource::L2, HorizonSource::Llc] {
                san.set_forbidden_sites(src.index(), CACHE_FORBIDDEN);
            }
            san.set_forbidden_sites(HorizonSource::Ctrl.index(), &["fast_forward_idle"]);
            san
        };
        System {
            core,
            l1,
            l2,
            llc,
            ctrl,
            eager_rng,
            horizons: HorizonQueue::new(HorizonSource::ALL.len()),
            cycle: CoreCycles::ZERO,
            now: SimTime::ZERO,
            measure_start: SimTime::ZERO,
            next_sample_at,
            mem_divisor: mem_ps / core_ps,
            #[cfg(feature = "sanitize")]
            san,
            cfg,
        }
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Returns the core (for inspection).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Returns the LLC (for inspection).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Returns the L1 data cache (for inspection).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Returns the L2 cache (for inspection).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Returns the memory controller (for inspection).
    pub fn controller(&self) -> &Controller {
        &self.ctrl
    }

    /// Advances the system by one core cycle.
    pub fn tick(&mut self) {
        self.cycle += CoreCycles::ONE;
        self.now = self.cycle.edge(&self.cfg.core_clock);
        let now = self.now;

        // Core: retire, dispatch, and issue memory ops into the L1.
        let line_bytes = self.cfg.l1.line_bytes;
        let l1 = &mut self.l1;
        self.core.tick(|acc| {
            l1.try_demand(
                AccessId(acc.id.0),
                line_of(acc.addr, line_bytes),
                acc.is_store,
                now,
            )
        });

        self.l1.tick(now);
        self.l2.tick(now);
        self.llc.tick(now);
        if self.cycle.is_multiple_of(self.mem_divisor) {
            // The cycle reference loop also forgoes the controller's
            // internal skip, so it checks that skip too.
            if self.cfg.use_cycle_loop {
                self.ctrl.tick_full(now);
            } else {
                self.ctrl.tick(now);
            }
        }

        // Responses upward.
        while let Some(id) = self.l1.pop_completion() {
            self.core.complete(ReqId(id.0));
        }
        while let Some(line) = self.l2.pop_fill_up() {
            self.l1.deliver_fill(line, now);
        }
        while let Some(line) = self.llc.pop_fill_up() {
            self.l2.deliver_fill(line, now);
        }
        while let Some(line) = self.ctrl.pop_read_done() {
            self.llc.deliver_fill(line, now);
        }

        // Requests downward. Writebacks drain before fetches so that an
        // eviction of line X followed by a re-fetch of X observes the
        // write.
        let Self {
            l1, l2, llc, ctrl, ..
        } = self;
        let (wb, miss) = (Cache::peek_writeback_down, Cache::peek_miss_down);
        let (pop_wb, pop_miss) = (Cache::pop_writeback_down, Cache::pop_miss_down);
        drain(l1, wb, pop_wb, |line| l2.try_writeback(line, now));
        drain(l1, miss, pop_miss, |line| l2.try_fetch(line, now));
        drain(l2, wb, pop_wb, |line| llc.try_writeback(line, now));
        drain(l2, miss, pop_miss, |line| llc.try_fetch(line, now));
        drain(llc, wb, pop_wb, |line| ctrl.try_write(line, now));
        drain(llc, miss, pop_miss, |line| ctrl.try_read(line, now));

        // Eager Mellow Writes: any idle-LLC cycle with room in the Eager
        // Mellow queue, probe one random set for a useless dirty line.
        if self.cfg.policy.base.uses_eager() && self.llc.input_idle() && self.ctrl.eager_has_room()
        {
            if let Some(line) = self.llc.eager_candidate(&mut self.eager_rng) {
                self.ctrl.try_eager(line, now);
            }
        }

        // Utility-monitor sampling every T_sample. A `while`, not an
        // `if`: should one tick ever cross two boundaries (a sub-cycle
        // sample period, or an event-kernel jump landing past one), every
        // elapsed period still gets its sample.
        while self.now >= self.next_sample_at {
            self.llc.sample_utility();
            self.next_sample_at += self.cfg.sample_period();
        }
    }

    /// Re-posts the horizon of every component whose event-affecting
    /// state changed since the last call (the event-dirty protocol:
    /// each component raises a flag on any mutation that can move its
    /// `next_event`, and is re-queried only when the flag is set). The
    /// sampler has no flag; its boundary is re-posted unconditionally —
    /// posting an unchanged horizon is a no-op.
    fn refresh_horizons(&mut self) {
        let now = self.now;
        self.post_horizon(HorizonSource::Sample, Some(self.next_sample_at));
        let l1_dirty = self.l1.take_event_dirty();
        #[cfg(feature = "sanitize")]
        {
            let sites = self.l1.take_dirty_sites();
            let due = self.l1.next_event(now);
            self.sanitize_component(HorizonSource::L1, l1_dirty, &sites, due);
        }
        if l1_dirty {
            let due = self.l1.next_event(now);
            self.post_horizon(HorizonSource::L1, due);
        }
        let l2_dirty = self.l2.take_event_dirty();
        #[cfg(feature = "sanitize")]
        {
            let sites = self.l2.take_dirty_sites();
            let due = self.l2.next_event(now);
            self.sanitize_component(HorizonSource::L2, l2_dirty, &sites, due);
        }
        if l2_dirty {
            let due = self.l2.next_event(now);
            self.post_horizon(HorizonSource::L2, due);
        }
        let llc_dirty = self.llc.take_event_dirty();
        #[cfg(feature = "sanitize")]
        {
            let sites = self.llc.take_dirty_sites();
            let due = self.llc.next_event(now);
            self.sanitize_component(HorizonSource::Llc, llc_dirty, &sites, due);
        }
        if llc_dirty {
            let due = self.llc.next_event(now);
            self.post_horizon(HorizonSource::Llc, due);
        }
        let ctrl_dirty = self.ctrl.take_event_dirty();
        #[cfg(feature = "sanitize")]
        {
            let sites = self.ctrl.take_dirty_sites();
            let due = self.ctrl.next_event().map(|t| self.ctrl_edge(t));
            self.sanitize_component(HorizonSource::Ctrl, ctrl_dirty, &sites, due);
        }
        if ctrl_dirty {
            // The controller acts only on memory-clock edges, so its
            // horizon posts pre-aligned to the first edge at or past
            // the actionable time (see [`ctrl_edge`](Self::ctrl_edge)).
            // `next_multiple_of` distributes over `max`, so the
            // per-jump "no earlier than the next cycle" clamp can move
            // to pop time (`ctrl_floor` in
            // [`advance_event`](Self::advance_event)) and the posted
            // horizon stays valid across jumps.
            let due = self.ctrl.next_event().map(|t| self.ctrl_edge(t));
            self.post_horizon(HorizonSource::Ctrl, due);
        }
    }

    /// The first whole memory-clock edge at or after `t` — the
    /// alignment every controller horizon posts at.
    fn ctrl_edge(&self, t: SimTime) -> SimTime {
        CoreCycles::at_or_after(t, &self.cfg.core_clock)
            .next_multiple_of(self.mem_divisor)
            .edge(&self.cfg.core_clock)
    }

    /// Posts (or, for `None`, withdraws) one source's horizon — the
    /// single funnel between component `next_event` answers and the
    /// [`HorizonQueue`], so the sanitizer can shadow every transition.
    fn post_horizon(&mut self, src: HorizonSource, due: Option<SimTime>) {
        #[cfg(feature = "sanitize")]
        self.san.record_post(self.cycle, self.now, src.index(), due);
        match due {
            Some(t) => self.horizons.post(src.index(), t),
            None => self.horizons.withdraw(src.index()),
        }
    }

    /// Feeds one component's refresh outcome to the sanitizer: a dirty
    /// component accounts for its raising sites, a clean one is checked
    /// for a horizon that silently moved earlier (a late wake).
    #[cfg(feature = "sanitize")]
    fn sanitize_component(
        &mut self,
        src: HorizonSource,
        dirty: bool,
        sites: &[&'static str],
        due: Option<SimTime>,
    ) {
        if dirty {
            for site in sites {
                self.san
                    .record_dirty(self.cycle, self.now, src.index(), site);
            }
        } else {
            self.san
                .check_posted_horizon(self.cycle, self.now, src.index(), due);
        }
    }

    /// Empties every component's dirty-site log unread.
    #[cfg(feature = "sanitize")]
    fn discard_dirty_sites(&mut self) {
        self.l1.take_dirty_sites();
        self.l2.take_dirty_sites();
        self.llc.take_dirty_sites();
        self.ctrl.take_dirty_sites();
    }

    /// Test hook: runs one horizon refresh under the sanitizer.
    #[cfg(feature = "sanitize")]
    pub fn sanitize_refresh(&mut self) {
        self.refresh_horizons();
    }

    /// Test hook: injects a late wake — pushes new earliest work into
    /// the L1, then suppresses the dirty flag the push raised, leaving a
    /// clean component whose true horizon moved earlier than its posted
    /// one. The next [`sanitize_refresh`](Self::sanitize_refresh) must
    /// panic.
    #[cfg(feature = "sanitize")]
    pub fn inject_late_horizon(&mut self) {
        self.refresh_horizons();
        self.l1.try_demand(AccessId(u64::MAX), 0, false, self.now);
        self.l1.sanitize_clear_dirty();
    }

    /// Test hook: raises the L1 dirty flag from a site the protocol
    /// forbids from raising it. The next
    /// [`sanitize_refresh`](Self::sanitize_refresh) must panic.
    #[cfg(feature = "sanitize")]
    pub fn inject_forbidden_dirty_site(&mut self) {
        self.l1.sanitize_raise_dirty("pop_completion");
    }

    /// Test hook: posts the controller horizon one picosecond off a
    /// memory-clock edge. Panics immediately.
    #[cfg(feature = "sanitize")]
    pub fn inject_misaligned_ctrl_horizon(&mut self) {
        let due = self.now + mellow_engine::Duration::from_ps(1);
        self.post_horizon(HorizonSource::Ctrl, Some(due));
    }

    /// The event kernel's jump: moves `cycle`/`now` to one cycle before
    /// the earliest posted horizon, replaying the per-cycle side effects
    /// the skipped no-op ticks would have had. Called after a completed
    /// [`tick`](Self::tick); does nothing unless every component is
    /// provably idle past the next cycle.
    ///
    /// The skipped span is a no-op by construction — each component's
    /// `next_event` hook promises it cannot act before its horizon, the
    /// [`HorizonQueue`] re-asks only components that flagged a state
    /// change, and new input can only originate from a component that
    /// acts. The remaining per-cycle effects are replayed exactly: the
    /// blocked core's cycle/stall counters (and its one doomed issue
    /// attempt per cycle against a full L1), MSHR-stall ticks, the
    /// controller's round-robin rotation on skipped memory-clock edges,
    /// and one eager-probe RNG draw per idle-LLC cycle, in closed form
    /// by [`Cache::eager_probe_span`]. The sample horizon clamps the
    /// jump, so no `T_sample` period is merged or skipped.
    fn advance_event(&mut self) {
        self.refresh_horizons();
        let stall = self.core.stall();
        match stall {
            CoreStall::Active => return,
            CoreStall::Blocked => {}
            CoreStall::BlockedWantsIssue => {
                if !self.l1.input_full() {
                    return;
                }
            }
        }
        if self.l1.has_pending_transfers()
            || self.l2.has_pending_transfers()
            || self.llc.has_pending_transfers()
        {
            return;
        }

        let clock = self.cfg.core_clock;
        let cycle_at = |t: SimTime| CoreCycles::at_or_after(t, &clock);
        // Pop horizons in raw-time order until the next raw horizon can
        // no longer beat the best effective cycle (raw time lower-bounds
        // the effective cycle), then re-post the inspected entries.
        let ctrl_floor = (self.cycle + CoreCycles::ONE).next_multiple_of(self.mem_divisor);
        let mut inspected = [(SimTime::ZERO, 0usize); HorizonSource::ALL.len()];
        let mut count = 0;
        let mut best: Option<CoreCycles> = None;
        while let Some((due, src)) = self.horizons.pop_earliest() {
            #[cfg(feature = "sanitize")]
            self.san.record_pop(self.cycle, self.now, src, due);
            inspected[count] = (due, src);
            count += 1;
            let lower = cycle_at(due);
            if best.is_some_and(|b| lower >= b) {
                break;
            }
            // The pop dispatch: core-clocked sources act at their posted
            // instant; the controller additionally clamps to the first
            // whole memory-clock edge after the current cycle.
            let eff = match HorizonSource::from_index(src) {
                HorizonSource::Sample
                | HorizonSource::L1
                | HorizonSource::L2
                | HorizonSource::Llc => lower,
                HorizonSource::Ctrl => lower.max(ctrl_floor),
            };
            best = Some(best.map_or(eff, |b| b.min(eff)));
        }
        for &(due, src) in &inspected[..count] {
            self.horizons.repost(src, due);
        }
        let Some(next) = best else {
            return; // unreachable: the sample horizon is always live
        };
        if next <= self.cycle + CoreCycles::ONE {
            return; // something acts on the very next cycle
        }
        let skip_to = next - CoreCycles::ONE;

        let start = self.cycle;
        let mut c = skip_to;
        // Replay the skipped eager probes in closed form: the span
        // consumes the same RNG stream as one probe per cycle, and a
        // successful probe enqueues the eager write — re-arming the
        // controller — so it truncates the jump at that cycle.
        if self.cfg.policy.base.uses_eager() && self.llc.input_idle() && self.ctrl.eager_has_room()
        {
            let (consumed, candidate) = self
                .llc
                .eager_probe_span(&mut self.eager_rng, (skip_to - start).count());
            if let Some(line) = candidate {
                c = start + CoreCycles::new(consumed);
                self.ctrl.try_eager(line, c.edge(&clock));
            } else {
                debug_assert_eq!(consumed, (skip_to - start).count());
            }
        }
        let skipped = c - start;
        self.core.fast_forward(skipped);
        if stall == CoreStall::BlockedWantsIssue {
            self.l1.fast_forward_rejected_inputs(skipped);
        }
        for cache in [&mut self.l1, &mut self.l2, &mut self.llc] {
            if cache.head_stalled_on_mshrs(self.now) {
                cache.fast_forward_stalled(skipped);
            }
        }
        self.ctrl
            .fast_forward_idle(c.to_mem(self.mem_divisor) - start.to_mem(self.mem_divisor));
        self.cycle = c;
        self.now = c.edge(&clock);
    }

    /// Runs until `n` more instructions retire.
    ///
    /// By default the event kernel drives the run: after each tick,
    /// provably idle spans are jumped directly to one cycle before the
    /// earliest posted horizon — a cache input head coming due, the
    /// controller's actionable memory-clock edge, or the
    /// utility-monitor sample boundary — batch-replaying the skipped
    /// ticks' side effects (see `advance_event`). The reference loop,
    /// [`SystemConfig::use_cycle_loop`], instead ticks every cycle and
    /// the controller in full, and produces bit-identical results; the
    /// equivalence tests pin it.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to retire them within `400 × n + 10⁷`
    /// cycles (a deadlock would otherwise spin forever).
    pub fn run_instructions(&mut self, n: u64) {
        let target = self.core.retired_instructions() + n;
        let cycle_cap = self.cycle + CoreCycles::new(400 * n + 10_000_000);
        while self.core.retired_instructions() < target {
            self.tick();
            // Never jump past the tick that retires the final
            // instruction: the loops must exit at the same cycle.
            if self.core.retired_instructions() < target && !self.cfg.use_cycle_loop {
                self.advance_event();
            }
            // Only the event kernel's horizon refresh drains the
            // dirty-site logs, so the cycle loop drops them instead of
            // letting them grow with the run.
            #[cfg(feature = "sanitize")]
            if self.cfg.use_cycle_loop {
                self.discard_dirty_sites();
            }
            assert!(
                self.cycle < cycle_cap,
                "no forward progress: {} of {} instructions after {}",
                self.core.retired_instructions(),
                target,
                self.cycle
            );
        }
    }

    /// Marks the end of warm-up: zeroes every counter while keeping all
    /// microarchitectural state (cache contents, queues, monitor
    /// decisions, Start-Gap registers).
    pub fn begin_measurement(&mut self) {
        self.core.reset_stats();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
        self.ctrl.reset_stats(self.now);
        self.measure_start = self.now;
    }

    /// Builds the metrics row for the measured window.
    pub fn metrics(&self, workload: &str) -> Metrics {
        Metrics::collect(
            workload,
            &self.cfg,
            &self.core,
            &self.llc,
            &self.ctrl,
            self.now,
            self.now.saturating_since(self.measure_start),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mellow_core::WritePolicy;
    use mellow_cpu::{MemOp, TraceRecord};
    use mellow_engine::Duration;

    /// A deterministic random-access trace (GUPS-like when `stride` is
    /// 0: independent loads over a large working set).
    struct Synth {
        lcg: u64,
        store_every: u64,
        n: u64,
    }

    impl Synth {
        fn new(seed: u64, store_every: u64) -> Box<Self> {
            Box::new(Synth {
                lcg: seed | 1,
                store_every,
                n: 0,
            })
        }
    }

    impl TraceSource for Synth {
        fn next_record(&mut self) -> TraceRecord {
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.n += 1;
            let addr = (self.lcg >> 11) % (64 << 20);
            let op = if self.store_every > 0 && self.n.is_multiple_of(self.store_every) {
                MemOp::store(addr)
            } else {
                MemOp::load(addr)
            };
            TraceRecord {
                nonmem: (self.lcg >> 7) as u32 % 3,
                op: Some(op),
            }
        }
    }

    fn nonmem_trace() -> Box<dyn TraceSource> {
        struct Compute;
        impl TraceSource for Compute {
            fn next_record(&mut self) -> TraceRecord {
                TraceRecord {
                    nonmem: 8,
                    op: None,
                }
            }
        }
        Box::new(Compute)
    }

    /// Small caches and memory so the loop-equivalence tests stress
    /// misses, MSHR stalls, and backpressure in few instructions.
    fn scaled_config(policy: WritePolicy) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(policy);
        cfg.l1.size_bytes = 4 << 10;
        cfg.l2.size_bytes = 16 << 10;
        cfg.llc.size_bytes = 64 << 10;
        cfg.mem.capacity_bytes = 1 << 26;
        cfg.mem.sample_period = Duration::from_us(2);
        cfg
    }

    #[test]
    fn sampling_catches_up_when_a_tick_crosses_two_boundaries() {
        // A 300 ps sample period makes every 500 ps tick cross at least
        // one boundary and some ticks cross two; the `while` loop must
        // fire once per elapsed period with no drift.
        let mut cfg = SystemConfig::paper_default(WritePolicy::norm());
        cfg.mem.sample_period = Duration::from_ps(300);
        let mut sys = System::new(cfg, nonmem_trace());
        for _ in 0..3 {
            sys.tick();
        }
        // now = 1500 ps: boundaries at 300/600/900/1200/1500 have all
        // fired, so the next one is 1800 ps.
        assert_eq!(sys.next_sample_at, SimTime::from_ps(1800));
    }

    /// Runs the same trace under the cycle reference loop and the event
    /// kernel and asserts bit-identical metrics and internal clocks.
    fn assert_loops_identical(policy: WritePolicy, store_every: u64, instructions: u64) {
        let run = |cycle_loop: bool| {
            let mut cfg = scaled_config(policy);
            cfg.use_cycle_loop = cycle_loop;
            let mut sys = System::new(cfg, Synth::new(0xDECAF, store_every));
            sys.run_instructions(instructions / 2);
            sys.begin_measurement();
            sys.run_instructions(instructions / 2);
            (
                sys.cycle,
                sys.now,
                sys.metrics("synth").to_json().to_string(),
            )
        };
        let (slow_cycle, slow_now, slow) = run(true);
        let (ev_cycle, ev_now, ev) = run(false);
        assert_eq!(slow_cycle, ev_cycle, "event kernel diverged in cycles");
        assert_eq!(slow_now, ev_now);
        assert_eq!(slow, ev, "event kernel diverged in metrics");
    }

    #[test]
    fn event_kernel_matches_cycle_loop_on_stalling_loads() {
        assert_loops_identical(WritePolicy::norm(), 0, 30_000);
    }

    #[test]
    fn event_kernel_matches_cycle_loop_with_stores_and_cancellation() {
        assert_loops_identical(WritePolicy::be_mellow_sc().with_wear_quota(), 4, 30_000);
    }

    #[test]
    fn event_kernel_matches_cycle_loop_under_eager_probing() {
        // `BEMellow` bases probe the LLC every idle cycle, drawing one
        // RNG value each — the batch replay must reproduce the stream.
        use mellow_core::BasePolicy;
        assert_loops_identical(WritePolicy::new(BasePolicy::BEMellow), 6, 30_000);
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn cycle_loop_keeps_no_dirty_site_backlog() {
        // Nothing refreshes horizons in the cycle loop, so unless the
        // loop drops the logs every controller edge and cache mutation
        // of the run stays queued (hundreds of thousands of entries
        // here).
        let mut cfg = scaled_config(WritePolicy::be_mellow_sc());
        cfg.use_cycle_loop = true;
        let mut sys = System::new(cfg, Synth::new(0xDECAF, 4));
        sys.run_instructions(20_000);
        let backlog = [
            sys.l1.take_dirty_sites().len(),
            sys.l2.take_dirty_sites().len(),
            sys.llc.take_dirty_sites().len(),
            sys.ctrl.take_dirty_sites().len(),
        ];
        assert_eq!(backlog, [0; 4], "L1, L2, LLC, controller");
    }

    #[test]
    fn event_kernel_skips_cycles_on_a_stall_heavy_trace() {
        // On independent random loads the core sits fully stalled most
        // cycles, so the kernel must jump: drive the loop by hand and
        // count iterations. With `advance_event` a no-op every
        // iteration advances exactly one cycle and this fails.
        let mut sys = System::new(scaled_config(WritePolicy::norm()), Synth::new(0xDECAF, 0));
        let mut iterations = 0u64;
        while sys.core().retired_instructions() < 20_000 {
            sys.tick();
            sys.advance_event();
            iterations += 1;
        }
        assert!(
            sys.cycle.count() > 2 * iterations,
            "{} cycles in {iterations} loop iterations: the kernel barely skips",
            sys.cycle.count()
        );
    }
}
