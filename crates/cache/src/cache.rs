//! A timed, set-associative, write-back, write-allocate cache level.

use crate::store::TagStore;
use crate::{AccessId, MshrFile};
use mellow_core::UtilityMonitor;
use mellow_engine::{CoreCycles, DetRng, Duration, SimTime};
use std::collections::VecDeque;

/// Static configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable level name (used in reports).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set (at most 64, the width of the per-set line-state
    /// masks).
    pub assoc: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Lookup latency from arrival to hit response / miss forwarding.
    pub hit_latency: Duration,
    /// Miss-status holding registers (bounds outstanding fills).
    pub mshrs: usize,
    /// Input-queue capacity (requests not yet looked up).
    pub input_capacity: usize,
    /// Lookups completed per tick (pipelined throughput).
    pub ports: u32,
}

impl CacheConfig {
    /// Table I L1 D-cache: 32 KB, 4-way, 2-cycle hit, 8 MSHRs.
    pub fn l1d() -> Self {
        CacheConfig {
            name: "L1D".to_owned(),
            size_bytes: 32 << 10,
            assoc: 4,
            line_bytes: 64,
            hit_latency: Duration::from_ps(2 * 500),
            mshrs: 8,
            input_capacity: 8,
            ports: 2,
        }
    }

    /// Table I L2: 256 KB, 8-way, 12-cycle hit, 12 MSHRs.
    pub fn l2() -> Self {
        CacheConfig {
            name: "L2".to_owned(),
            size_bytes: 256 << 10,
            assoc: 8,
            line_bytes: 64,
            hit_latency: Duration::from_ps(12 * 500),
            mshrs: 12,
            input_capacity: 16,
            ports: 1,
        }
    }

    /// Table I L3 (LLC): 2 MB, 16-way, 35-cycle hit, 32 MSHRs.
    pub fn llc() -> Self {
        CacheConfig {
            name: "LLC".to_owned(),
            size_bytes: 2 << 20,
            assoc: 16,
            line_bytes: 64,
            hit_latency: Duration::from_ps(35 * 500),
            mshrs: 32,
            input_capacity: 32,
            ports: 1,
        }
    }

    /// Returns the number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn num_sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines % self.assoc as u64,
            0,
            "cache lines must divide evenly into sets"
        );
        lines / self.assoc as u64
    }

    fn validate(&self) {
        assert!(self.size_bytes > 0, "cache size must be non-zero");
        assert!(self.assoc > 0, "associativity must be non-zero");
        assert!(
            self.assoc <= 64,
            "cache assoc must be at most 64, the width of the line-state masks"
        );
        assert!(
            self.ports > 0,
            "cache ports must be non-zero: a level with no lookup port never drains its input"
        );
        assert!(
            self.input_capacity > 0,
            "cache input_capacity must be non-zero: a level with no input slot accepts no request"
        );
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.num_sets() > 0, "cache must have at least one set");
    }
}

/// Counters exposed by a cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (read/fetch/store) accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed (primary and merged).
    pub demand_misses: u64,
    /// Line fetches forwarded to the next level (primary misses).
    pub fetches_down: u64,
    /// Misses merged into an outstanding MSHR.
    pub mshr_merges: u64,
    /// Writebacks received from the level above.
    pub writebacks_in: u64,
    /// Writebacks emitted to the level below (dirty evictions).
    pub writebacks_out: u64,
    /// Fills received from the level below.
    pub fills: u64,
    /// Eager Mellow writebacks issued from this level.
    pub eager_issued: u64,
    /// Eager writebacks wasted (line re-dirtied before eviction).
    pub eager_wasted: u64,
    /// Evictions that needed no writeback thanks to an eager clean.
    pub eager_saved_writebacks: u64,
    /// Ticks the head of the input queue stalled on a full MSHR file.
    pub mshr_stall_ticks: u64,
    /// Requests rejected at the input queue (backpressure).
    pub input_rejects: u64,
}

mellow_engine::impl_json_fields!(CacheStats {
    demand_hits,
    demand_misses,
    fetches_down,
    mshr_merges,
    writebacks_in,
    writebacks_out,
    fills,
    eager_issued,
    eager_wasted,
    eager_saved_writebacks,
    mshr_stall_ticks,
    input_rejects,
});

#[derive(Debug, Clone, Copy)]
enum Incoming {
    Demand {
        id: Option<AccessId>,
        line: u64,
        is_store: bool,
    },
    Writeback {
        line: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Timed {
    ready: SimTime,
    msg: Incoming,
}

/// A timed cache level.
///
/// The level is a passive component: the owner calls
/// [`tick`](Self::tick) once per core cycle and moves messages between
/// levels by draining the output queues (`pop_completion`,
/// `pop_fill_up`, `peek_miss_down`/`pop_miss_down`,
/// `peek_writeback_down`/`pop_writeback_down`) and feeding the input
/// methods (`try_demand`, `try_fetch`, `try_writeback`,
/// `deliver_fill`).
///
/// Misses allocate MSHRs (merging same-line requests); a full MSHR file
/// stalls the input head, which backpressures the requester through the
/// bounded input queue. The LLC additionally hosts the Eager Mellow
/// Writes machinery: a [`UtilityMonitor`] fed by every request, and
/// [`eager_candidate`](Self::eager_candidate) which emits the next
/// useless dirty line to write back eagerly.
///
/// Every level keeps its lines in one flat tag store: `num_sets × assoc`
/// tags, MRU first within each set, and two per-set bit masks, `dirty`
/// and `eager_cleaned`, indexed by LRU position. An eager probe tests
/// one word, the set's dirty mask against the useless positions, and a
/// live count of the sets holding a candidate lets
/// [`eager_probe_span`](Self::eager_probe_span) skip a span's draws
/// when there is none.
///
/// # Examples
///
/// ```
/// use mellow_cache::{AccessId, Cache, CacheConfig};
/// use mellow_engine::SimTime;
///
/// let mut l1 = Cache::new(CacheConfig::l1d());
/// let t0 = SimTime::ZERO;
/// assert!(l1.try_demand(AccessId(1), 0x40, false, t0));
/// // After the 2-cycle hit latency the lookup resolves as a miss and a
/// // fetch appears on the downward port.
/// let t1 = SimTime::from_ns(1);
/// l1.tick(t1);
/// assert_eq!(l1.peek_miss_down(), Some(0x40));
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: u64,
    store: TagStore,
    mshrs: MshrFile,
    input: VecDeque<Timed>,
    completions: VecDeque<AccessId>,
    fills_up: VecDeque<u64>,
    miss_down: VecDeque<u64>,
    wb_down: VecDeque<u64>,
    /// The Eager Mellow Writes utility monitor, on the LLC only.
    monitor: Option<UtilityMonitor>,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache level.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let num_sets = cfg.num_sets();
        let store = TagStore::new(num_sets as usize, cfg.assoc);
        let mshrs = MshrFile::new(cfg.mshrs);
        Cache {
            num_sets,
            store,
            mshrs,
            input: VecDeque::with_capacity(cfg.input_capacity),
            completions: VecDeque::new(),
            fills_up: VecDeque::new(),
            miss_down: VecDeque::new(),
            wb_down: VecDeque::new(),
            monitor: None,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// Attaches the Eager Mellow Writes utility monitor (normally only on
    /// the LLC).
    pub fn enable_eager(&mut self) {
        self.monitor = Some(UtilityMonitor::new(self.cfg.assoc));
        // A fresh monitor has no useless position yet.
        self.store.set_eager_position(self.cfg.assoc);
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Returns the counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the counters (end-of-warmup measurement boundary). Cache
    /// contents, MSHRs and in-flight requests are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns `true` when the input queue is empty (the "LLC idle"
    /// condition of §IV-B1).
    #[inline]
    pub fn input_idle(&self) -> bool {
        self.input.is_empty()
    }

    /// Returns `true` when the input queue is full, i.e. the next
    /// `try_demand`/`try_fetch`/`try_writeback` will be rejected.
    #[inline]
    pub fn input_full(&self) -> bool {
        self.input.len() >= self.cfg.input_capacity
    }

    /// The cache's next-event hook, which the system's event kernel reads
    /// fresh on every jump: the earliest time a future
    /// [`tick`](Self::tick) could change state, or `None` when no future
    /// tick can act without new input — the input queue is empty, or its
    /// head is stalled on a full MSHR file (a stall only a
    /// [`deliver_fill`](Self::deliver_fill) can clear, during which each
    /// tick is the batchable no-op applied by
    /// [`fast_forward_stalled`](Self::fast_forward_stalled)).
    ///
    /// A returned time at or before `now` means the cache still has due
    /// work (e.g. its per-tick port budget ran out) and must be ticked
    /// every cycle.
    #[inline]
    pub fn next_event(&self, now: SimTime) -> Option<SimTime> {
        let head = self.input.front()?;
        if self.head_stalled_on_mshrs(now) {
            return None;
        }
        Some(head.ready)
    }

    /// Returns `true` when the input head is due but cannot proceed
    /// because the MSHR file is full (the state in which `tick` counts
    /// one `mshr_stall_ticks` per cycle and changes nothing else).
    pub fn head_stalled_on_mshrs(&self, now: SimTime) -> bool {
        let Some(head) = self.input.front() else {
            return false;
        };
        if head.ready > now {
            return false;
        }
        match head.msg {
            Incoming::Demand { line, .. } => {
                let (set_idx, tag) = self.set_and_tag(line);
                self.store.probe(set_idx, tag).is_none()
                    && !self.mshrs.contains(line)
                    && self.mshrs.is_full()
            }
            Incoming::Writeback { .. } => false,
        }
    }

    /// Batch-applies `ticks` ticks spent MSHR-stalled (see
    /// [`head_stalled_on_mshrs`](Self::head_stalled_on_mshrs)): each
    /// counts one stall tick and changes nothing else.
    pub fn fast_forward_stalled(&mut self, ticks: CoreCycles) {
        self.stats.mshr_stall_ticks += ticks.count();
    }

    /// Batch-applies `ticks` rejected input offers (one per tick, as an
    /// upstream requester retrying against a full input queue produces):
    /// each counts one rejection and changes nothing else.
    pub fn fast_forward_rejected_inputs(&mut self, ticks: CoreCycles) {
        debug_assert!(self.input_full(), "rejects replayed on a non-full queue");
        self.stats.input_rejects += ticks.count();
    }

    /// Whether [`next_event`](Self::next_event) may have moved since the
    /// last call: always `true`. The system's event kernel reads the
    /// horizon fresh on every jump, so the cache tracks no changes; a
    /// caller that still caches horizons re-queries every time, which is
    /// always correct.
    pub fn take_event_dirty(&mut self) -> bool {
        true
    }

    /// Returns `true` while any output queue (completions, fills up,
    /// misses down, writebacks down) holds an undelivered message — the
    /// owner retries those transfers every cycle, so the cache cannot be
    /// skipped over.
    #[inline]
    pub fn has_pending_transfers(&self) -> bool {
        !(self.completions.is_empty()
            && self.fills_up.is_empty()
            && self.miss_down.is_empty()
            && self.wb_down.is_empty())
    }

    #[inline]
    fn set_and_tag(&self, line: u64) -> (usize, u64) {
        ((line % self.num_sets) as usize, line / self.num_sets)
    }

    #[inline]
    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        tag * self.num_sets + set as u64
    }

    #[inline]
    fn try_push(&mut self, msg: Incoming, now: SimTime) -> bool {
        if self.input.len() >= self.cfg.input_capacity {
            self.stats.input_rejects += 1;
            return false;
        }
        self.input.push_back(Timed {
            ready: now + self.cfg.hit_latency,
            msg,
        });
        true
    }

    /// Offers a demand access carrying a requester id (the core→L1
    /// interface). Returns `false` when the input queue is full.
    #[inline]
    pub fn try_demand(&mut self, id: AccessId, line: u64, is_store: bool, now: SimTime) -> bool {
        self.try_push(
            Incoming::Demand {
                id: Some(id),
                line,
                is_store,
            },
            now,
        )
    }

    /// Offers an id-less line fetch from the cache above. Returns
    /// `false` when the input queue is full.
    #[inline]
    pub fn try_fetch(&mut self, line: u64, now: SimTime) -> bool {
        self.try_push(
            Incoming::Demand {
                id: None,
                line,
                is_store: false,
            },
            now,
        )
    }

    /// Offers a writeback from the cache above. Returns `false` when the
    /// input queue is full.
    #[inline]
    pub fn try_writeback(&mut self, line: u64, now: SimTime) -> bool {
        self.try_push(Incoming::Writeback { line }, now)
    }

    /// Delivers a fill from the level below, resolving the line's MSHR:
    /// the line installs, merged stores dirty it, merged demand ids
    /// complete, and the fill propagates upward if the level above waits
    /// on it.
    ///
    /// # Panics
    ///
    /// Panics if no MSHR is outstanding for `line` (protocol violation).
    pub fn deliver_fill(&mut self, line: u64, _now: SimTime) {
        self.stats.fills += 1;
        let entry = self
            .mshrs
            .take(line)
            .expect("fill for line without outstanding MSHR");
        let (set_idx, pos) = self.install(line);
        if entry.any_store {
            self.mark_dirty(set_idx, pos);
        }
        for id in entry.ids {
            self.completions.push_back(id);
        }
        if entry.from_above {
            self.fills_up.push_back(line);
        }
    }

    /// Installs `line` (clean, MRU) unless already present, handling the
    /// victim. Returns the line's set and stack position.
    fn install(&mut self, line: u64) -> (usize, usize) {
        let (set_idx, tag) = self.set_and_tag(line);
        if let Some(pos) = self.store.probe(set_idx, tag) {
            // e.g. a writeback installed it while the fill was in flight
            return (set_idx, pos);
        }
        if let Some((victim_tag, dirty, eager_cleaned)) = self.store.insert(set_idx, tag) {
            if dirty {
                self.stats.writebacks_out += 1;
                self.wb_down.push_back(self.line_addr(set_idx, victim_tag));
            } else if eager_cleaned {
                self.stats.eager_saved_writebacks += 1;
            }
        }
        (set_idx, 0)
    }

    fn mark_dirty(&mut self, set_idx: usize, pos: usize) {
        if self.store.mark_dirty(set_idx, pos) {
            self.stats.eager_wasted += 1;
        }
    }

    /// Advances the cache by one tick, performing up to `ports` lookups
    /// whose latency has elapsed.
    ///
    /// Inlined into the caller as one compare: a tick with the input
    /// empty or its head not yet due changes nothing, so only a due head
    /// reaches the out-of-line port loop. A due head stalled on a full
    /// MSHR file still reaches it, to count its stall tick.
    #[inline]
    pub fn tick(&mut self, now: SimTime) {
        if self.input.front().is_some_and(|head| head.ready <= now) {
            self.tick_ports(now);
        }
    }

    /// The port loop behind [`tick`](Self::tick)'s guard: up to `ports`
    /// lookups, in input order, stopping at a head not yet due or
    /// stalled on a full MSHR file.
    fn tick_ports(&mut self, now: SimTime) {
        for _ in 0..self.cfg.ports {
            let Some(head) = self.input.front() else {
                break;
            };
            if head.ready > now {
                break;
            }
            let msg = head.msg;
            match msg {
                Incoming::Demand { id, line, is_store } => {
                    if !self.process_demand(id, line, is_store) {
                        // MSHR full: stall the head and retry next tick.
                        self.stats.mshr_stall_ticks += 1;
                        break;
                    }
                }
                Incoming::Writeback { line } => self.process_writeback(line),
            }
            self.input.pop_front();
        }
    }

    /// Returns `false` when the demand cannot proceed (MSHR file full).
    fn process_demand(&mut self, id: Option<AccessId>, line: u64, is_store: bool) -> bool {
        let (set_idx, tag) = self.set_and_tag(line);
        if let Some(pos) = self.store.probe(set_idx, tag) {
            if let Some(monitor) = &mut self.monitor {
                monitor.record_hit(pos);
            }
            self.store.touch(set_idx, pos);
            if is_store {
                self.mark_dirty(set_idx, 0);
            }
            self.stats.demand_hits += 1;
            match id {
                Some(id) => self.completions.push_back(id),
                None => self.fills_up.push_back(line),
            }
            return true;
        }
        // Miss: merge into an outstanding fill or allocate a new one.
        if self.mshrs.contains(line) {
            let entry = self.mshrs.entry_mut(line).expect("checked contains");
            match id {
                Some(id) => entry.ids.push(id),
                None => entry.from_above = true,
            }
            entry.any_store |= is_store;
            if let Some(monitor) = &mut self.monitor {
                monitor.record_miss();
            }
            self.stats.demand_misses += 1;
            self.stats.mshr_merges += 1;
            return true;
        }
        if self.mshrs.is_full() {
            return false;
        }
        let entry = self.mshrs.allocate(line).expect("not full");
        match id {
            Some(id) => entry.ids.push(id),
            None => entry.from_above = true,
        }
        entry.any_store |= is_store;
        if let Some(monitor) = &mut self.monitor {
            monitor.record_miss();
        }
        self.stats.demand_misses += 1;
        self.stats.fetches_down += 1;
        self.miss_down.push_back(line);
        true
    }

    fn process_writeback(&mut self, line: u64) {
        self.stats.writebacks_in += 1;
        let (set_idx, tag) = self.set_and_tag(line);
        if let Some(pos) = self.store.probe(set_idx, tag) {
            if let Some(monitor) = &mut self.monitor {
                monitor.record_hit(pos);
            }
            self.store.touch(set_idx, pos);
        } else {
            if let Some(monitor) = &mut self.monitor {
                monitor.record_miss();
            }
            // A full-line writeback installs without fetching.
            self.install(line);
        }
        // Either way the line now sits at the MRU position.
        self.mark_dirty(set_idx, 0);
    }

    /// Removes and returns the next completed demand id (top-level
    /// interface).
    #[inline]
    pub fn pop_completion(&mut self) -> Option<AccessId> {
        self.completions.pop_front()
    }

    /// Removes and returns the next line available for the level above.
    #[inline]
    pub fn pop_fill_up(&mut self) -> Option<u64> {
        self.fills_up.pop_front()
    }

    /// Returns the next line fetch for the level below without removing
    /// it.
    #[inline]
    pub fn peek_miss_down(&self) -> Option<u64> {
        self.miss_down.front().copied()
    }

    /// Removes the fetch returned by [`peek_miss_down`](Self::peek_miss_down).
    #[inline]
    pub fn pop_miss_down(&mut self) -> Option<u64> {
        self.miss_down.pop_front()
    }

    /// Returns the next writeback for the level below without removing
    /// it.
    #[inline]
    pub fn peek_writeback_down(&self) -> Option<u64> {
        self.wb_down.front().copied()
    }

    /// Removes the writeback returned by
    /// [`peek_writeback_down`](Self::peek_writeback_down).
    #[inline]
    pub fn pop_writeback_down(&mut self) -> Option<u64> {
        self.wb_down.pop_front()
    }

    /// Ends a utility-monitor profiling period (call every `T_sample`).
    /// This is the only place the eager position moves, so the tag
    /// store's useless positions and candidate count are recomputed here.
    ///
    /// Returns the new eager position, or `None` when the monitor is not
    /// enabled.
    pub fn sample_utility(&mut self) -> Option<usize> {
        let floor = self.monitor.as_mut()?.sample();
        self.store.set_eager_position(floor);
        Some(floor)
    }

    /// Probes one random set for a useless dirty line (§IV-B1): if
    /// found, the line is marked clean *without eviction* and its address
    /// returned for enqueueing as an Eager Mellow Write.
    ///
    /// Call only when the LLC is idle and the Eager Mellow Queue has
    /// room; returns `None` when the monitor is disabled or the probed
    /// set has no candidate.
    pub fn eager_candidate(&mut self, rng: &mut DetRng) -> Option<u64> {
        if !self.store.has_useless() {
            // Monitor disabled, or no useless position: no draw.
            return None;
        }
        let set_idx = rng.below(self.num_sets) as usize;
        let pos = self.store.candidate(set_idx)?;
        Some(self.clean_candidate(set_idx, pos))
    }

    /// Marks the found candidate clean-without-eviction and accounts it.
    fn clean_candidate(&mut self, set_idx: usize, pos: usize) -> u64 {
        self.store.eager_clean(set_idx, pos);
        self.stats.eager_issued += 1;
        self.line_addr(set_idx, self.store.tag(set_idx, pos))
    }

    /// Closed-form batch of up to `max_probes` idle-cycle eager probes:
    /// bit-identical to calling [`eager_candidate`](Self::eager_candidate)
    /// once per cycle and stopping at the first success, but without
    /// walking cycles that provably cannot succeed.
    ///
    /// Returns `(cycles_consumed, candidate)`: on success the span
    /// truncates at the successful probe (`cycles_consumed ≤ max_probes`);
    /// otherwise all `max_probes` cycles are consumed. The RNG stream is
    /// advanced exactly as the per-cycle loop would advance it — one
    /// `below(num_sets)` draw per probed cycle, none once the monitor
    /// reports no useless positions — using [`DetRng::skip`] when no set
    /// holds a candidate (a dirty line at a useless position; the tag
    /// store counts those sets, so the whole span's draws are provably
    /// discards; the skip is only valid when `num_sets` is a power of
    /// two, where `below` consumes exactly one raw output per call).
    ///
    /// The caller must hold the same preconditions frozen across the
    /// span that the per-cycle loop checks each cycle: LLC input idle,
    /// eager queue room, and no intervening cache activity (all true
    /// during an event-kernel jump).
    pub fn eager_probe_span(&mut self, rng: &mut DetRng, max_probes: u64) -> (u64, Option<u64>) {
        if !self.store.has_useless() {
            // Probes draw nothing and never succeed.
            return (max_probes, None);
        }
        if self.store.candidate_sets() == 0 {
            // No probe can find a candidate; advance the stream past the
            // span's draws without executing them.
            if self.num_sets.is_power_of_two() {
                rng.skip(max_probes);
            } else {
                for _ in 0..max_probes {
                    rng.below(self.num_sets);
                }
            }
            return (max_probes, None);
        }
        for cycle in 1..=max_probes {
            let set_idx = rng.below(self.num_sets) as usize;
            if let Some(pos) = self.store.candidate(set_idx) {
                return (cycle, Some(self.clean_candidate(set_idx, pos)));
            }
        }
        (max_probes, None)
    }

    /// Direct state inspection for tests: `(dirty, eager_cleaned)` of a
    /// line, when resident.
    pub fn line_state(&self, line: u64) -> Option<(bool, bool)> {
        let (set_idx, tag) = self.set_and_tag(line);
        let pos = self.store.probe(set_idx, tag)?;
        Some(self.store.state(set_idx, pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> CacheConfig {
        CacheConfig {
            name: "tiny".to_owned(),
            size_bytes: 4 * 64 * 2, // 4 sets, 2-way
            assoc: 2,
            line_bytes: 64,
            hit_latency: Duration::from_ns(1),
            mshrs: 2,
            input_capacity: 4,
            ports: 1,
        }
    }

    fn run(cache: &mut Cache, upto_ns: u64) {
        for ns in 0..=upto_ns {
            cache.tick(SimTime::from_ns(ns));
        }
    }

    #[test]
    fn geometry_of_paper_configs() {
        assert_eq!(CacheConfig::l1d().num_sets(), 128);
        assert_eq!(CacheConfig::l2().num_sets(), 512);
        assert_eq!(CacheConfig::llc().num_sets(), 2048);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(tiny_cfg());
        assert!(c.try_demand(AccessId(1), 100, false, SimTime::ZERO));
        run(&mut c, 2);
        assert_eq!(c.pop_miss_down(), Some(100));
        assert_eq!(c.stats().demand_misses, 1);
        assert!(c.pop_completion().is_none());

        c.deliver_fill(100, SimTime::from_ns(50));
        assert_eq!(c.pop_completion(), Some(AccessId(1)));

        // Second access hits.
        assert!(c.try_demand(AccessId(2), 100, false, SimTime::from_ns(60)));
        run(&mut c, 62);
        assert_eq!(c.pop_completion(), Some(AccessId(2)));
        assert_eq!(c.stats().demand_hits, 1);
        assert!(c.peek_miss_down().is_none());
    }

    #[test]
    fn same_line_misses_merge() {
        let mut c = Cache::new(tiny_cfg());
        c.try_demand(AccessId(1), 100, false, SimTime::ZERO);
        c.try_demand(AccessId(2), 100, true, SimTime::ZERO);
        run(&mut c, 2);
        // Only one fetch downstream.
        assert_eq!(c.pop_miss_down(), Some(100));
        assert!(c.pop_miss_down().is_none());
        assert_eq!(c.stats().mshr_merges, 1);

        c.deliver_fill(100, SimTime::from_ns(10));
        let mut done = vec![];
        while let Some(id) = c.pop_completion() {
            done.push(id);
        }
        assert_eq!(done, vec![AccessId(1), AccessId(2)]);
        // The merged store dirtied the line.
        assert_eq!(c.line_state(100), Some((true, false)));
    }

    #[test]
    fn store_miss_write_allocates_dirty() {
        let mut c = Cache::new(tiny_cfg());
        c.try_demand(AccessId(1), 7, true, SimTime::ZERO);
        run(&mut c, 2);
        c.deliver_fill(7, SimTime::from_ns(10));
        assert_eq!(c.line_state(7), Some((true, false)));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = Cache::new(tiny_cfg());
        // Lines 0, 4, 8 map to set 0 (4 sets). Dirty line 0, then evict it.
        for (i, line) in [0u64, 4, 8].iter().enumerate() {
            c.try_demand(AccessId(i as u64), *line, *line == 0, SimTime::ZERO);
            run(&mut c, 2);
            // Drain the fetch and fill immediately.
            while c.pop_miss_down().is_some() {}
            c.deliver_fill(*line, SimTime::from_ns(3));
        }
        // 2-way set: inserting 8 evicted 0 (LRU, dirty).
        assert_eq!(c.pop_writeback_down(), Some(0));
        assert_eq!(c.stats().writebacks_out, 1);
        assert!(c.line_state(0).is_none());
    }

    #[test]
    fn writeback_in_installs_dirty_without_fetch() {
        let mut c = Cache::new(tiny_cfg());
        assert!(c.try_writeback(42, SimTime::ZERO));
        run(&mut c, 2);
        assert_eq!(c.line_state(42), Some((true, false)));
        assert!(c.peek_miss_down().is_none(), "no fetch for full-line WB");
        assert_eq!(c.stats().writebacks_in, 1);
    }

    #[test]
    fn fetch_from_above_returns_fill_up() {
        let mut c = Cache::new(tiny_cfg());
        assert!(c.try_fetch(5, SimTime::ZERO));
        run(&mut c, 2);
        assert_eq!(c.pop_miss_down(), Some(5));
        c.deliver_fill(5, SimTime::from_ns(9));
        assert_eq!(c.pop_fill_up(), Some(5));
        // Hits from above also surface as fills-up.
        assert!(c.try_fetch(5, SimTime::from_ns(10)));
        run(&mut c, 12);
        assert_eq!(c.pop_fill_up(), Some(5));
    }

    #[test]
    fn mshr_full_stalls_head_until_fill() {
        let mut c = Cache::new(tiny_cfg()); // 2 MSHRs
        c.try_demand(AccessId(1), 1, false, SimTime::ZERO);
        c.try_demand(AccessId(2), 2, false, SimTime::ZERO);
        c.try_demand(AccessId(3), 3, false, SimTime::ZERO);
        run(&mut c, 5);
        // Only two fetches could allocate.
        assert_eq!(c.pop_miss_down(), Some(1));
        assert_eq!(c.pop_miss_down(), Some(2));
        assert!(c.pop_miss_down().is_none());
        assert!(c.stats().mshr_stall_ticks > 0);

        c.deliver_fill(1, SimTime::from_ns(6));
        run(&mut c, 8);
        assert_eq!(c.pop_miss_down(), Some(3), "stalled head proceeds");
    }

    #[test]
    fn input_queue_rejects_when_full() {
        let mut c = Cache::new(tiny_cfg()); // capacity 4
        for i in 0..4 {
            assert!(c.try_demand(AccessId(i), i, false, SimTime::ZERO));
        }
        assert!(!c.try_demand(AccessId(9), 9, false, SimTime::ZERO));
        assert_eq!(c.stats().input_rejects, 1);
    }

    #[test]
    fn hit_latency_respected() {
        let mut c = Cache::new(tiny_cfg());
        c.try_writeback(1, SimTime::ZERO);
        run(&mut c, 2);
        c.try_demand(AccessId(1), 1, false, SimTime::from_ns(10));
        // Not ready before 11 ns.
        c.tick(SimTime::from_ns(10));
        assert!(c.pop_completion().is_none());
        c.tick(SimTime::from_ns(11));
        assert_eq!(c.pop_completion(), Some(AccessId(1)));
    }

    #[test]
    fn eager_candidate_cleans_without_eviction() {
        let mut c = Cache::new(tiny_cfg());
        c.enable_eager();
        // Dirty a line, then make everything "useless" via an all-miss
        // profile.
        c.try_writeback(3, SimTime::ZERO);
        run(&mut c, 2);
        for i in 0..100u64 {
            // A fresh line every iteration keeps the profile all-miss.
            let line = 1000 + 16 * i; // distinct sets, never revisited
            c.try_demand(AccessId(99), line, false, SimTime::from_ns(5));
            run(&mut c, 7);
            if c.pop_miss_down().is_some() {
                c.deliver_fill(line, SimTime::from_ns(8));
            }
            c.pop_completion();
        }
        assert_eq!(
            c.sample_utility(),
            Some(0),
            "all-miss => everything useless"
        );

        let mut rng = DetRng::seed_from(1);
        let mut found = None;
        for _ in 0..64 {
            if let Some(line) = c.eager_candidate(&mut rng) {
                found = Some(line);
                break;
            }
        }
        assert_eq!(found, Some(3));
        assert_eq!(c.line_state(3), Some((false, true)), "clean, not evicted");
        assert_eq!(c.stats().eager_issued, 1);

        // Re-dirtying the line counts as a wasted eager write.
        c.try_writeback(3, SimTime::from_us(1));
        run(&mut c, 1001);
        assert_eq!(c.stats().eager_wasted, 1);
        assert_eq!(c.line_state(3), Some((true, false)));
    }

    #[test]
    fn eager_disabled_yields_no_candidates() {
        let mut c = Cache::new(tiny_cfg());
        let mut rng = DetRng::seed_from(2);
        assert!(c.eager_candidate(&mut rng).is_none());
        assert!(c.sample_utility().is_none());
    }

    #[test]
    fn saved_writeback_counted_on_clean_eviction() {
        let mut c = Cache::new(tiny_cfg());
        c.enable_eager();
        // Install dirty line 0 in set 0, eagerly clean it, then evict it
        // with lines 4 and 8.
        c.try_writeback(0, SimTime::ZERO);
        run(&mut c, 2);
        // Train the monitor to mark everything useless.
        for i in 0..50u64 {
            let line = 1001 + 16 * i; // set 1, never revisited: all-miss
            c.try_fetch(line, SimTime::from_ns(3));
            run(&mut c, 5);
            if c.pop_miss_down().is_some() {
                c.deliver_fill(line, SimTime::from_ns(6));
            }
            c.pop_fill_up();
        }
        c.sample_utility();
        let mut rng = DetRng::seed_from(3);
        let mut cleaned = false;
        for _ in 0..64 {
            if c.eager_candidate(&mut rng) == Some(0) {
                cleaned = true;
                break;
            }
        }
        assert!(cleaned);
        for line in [4u64, 8] {
            c.try_fetch(line, SimTime::from_ns(100));
            run(&mut c, 102);
            while c.pop_miss_down().is_some() {}
            c.deliver_fill(line, SimTime::from_ns(103));
        }
        assert!(c.line_state(0).is_none(), "line 0 evicted");
        assert_eq!(c.stats().eager_saved_writebacks, 1);
        assert!(c.peek_writeback_down().is_none(), "no WB for clean line");
    }

    #[test]
    #[should_panic(expected = "ports must be non-zero")]
    fn zero_ports_rejected() {
        let _ = Cache::new(CacheConfig {
            ports: 0,
            ..tiny_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "input_capacity must be non-zero")]
    fn zero_input_capacity_rejected() {
        let _ = Cache::new(CacheConfig {
            input_capacity: 0,
            ..tiny_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "assoc must be at most 64")]
    fn assoc_wider_than_the_masks_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64 * 128,
            assoc: 128,
            ..tiny_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "without outstanding MSHR")]
    fn unexpected_fill_panics() {
        let mut c = Cache::new(tiny_cfg());
        c.deliver_fill(1, SimTime::ZERO);
    }

    #[test]
    fn next_event_reports_head_ready_then_stall() {
        let mut c = Cache::new(tiny_cfg()); // 1 ns hit latency, 2 MSHRs
        assert_eq!(c.next_event(SimTime::ZERO), None, "empty input");
        assert!(!c.head_stalled_on_mshrs(SimTime::ZERO));

        c.try_demand(AccessId(1), 1, false, SimTime::ZERO);
        assert_eq!(c.next_event(SimTime::ZERO), Some(SimTime::from_ns(1)));

        // Fill the MSHR file, then queue a third miss: once its latency
        // elapses the head is stably stalled.
        c.try_demand(AccessId(2), 2, false, SimTime::ZERO);
        c.try_demand(AccessId(3), 3, false, SimTime::ZERO);
        run(&mut c, 5);
        assert!(c.head_stalled_on_mshrs(SimTime::from_ns(5)));
        assert_eq!(c.next_event(SimTime::from_ns(5)), None);
        // Before the head's latency elapses it is not a stall.
        assert!(!c.head_stalled_on_mshrs(SimTime::ZERO));

        // A fill clears the stall: the head becomes an ordinary event.
        c.deliver_fill(1, SimTime::from_ns(6));
        assert!(!c.head_stalled_on_mshrs(SimTime::from_ns(6)));
        assert!(c.next_event(SimTime::from_ns(6)).is_some());
    }

    #[test]
    fn fast_forward_stall_matches_ticked_stalls() {
        let mk = || {
            let mut c = Cache::new(tiny_cfg());
            c.try_demand(AccessId(1), 1, false, SimTime::ZERO);
            c.try_demand(AccessId(2), 2, false, SimTime::ZERO);
            c.try_demand(AccessId(3), 3, false, SimTime::ZERO);
            run(&mut c, 5);
            while c.pop_miss_down().is_some() {}
            c
        };
        let mut ticked = mk();
        let mut jumped = mk();
        assert!(ticked.head_stalled_on_mshrs(SimTime::from_ns(5)));
        for _ in 0..42 {
            ticked.tick(SimTime::from_ns(5));
        }
        jumped.fast_forward_stalled(CoreCycles::new(42));
        assert_eq!(ticked.stats(), jumped.stats());
    }

    /// Drains the four output queues: completions, fills up, misses
    /// down, writebacks down.
    fn drain_outputs(c: &mut Cache) -> (Vec<AccessId>, Vec<u64>, Vec<u64>, Vec<u64>) {
        (
            std::iter::from_fn(|| c.pop_completion()).collect(),
            std::iter::from_fn(|| c.pop_fill_up()).collect(),
            std::iter::from_fn(|| c.pop_miss_down()).collect(),
            std::iter::from_fn(|| c.pop_writeback_down()).collect(),
        )
    }

    /// `tick`'s guard must skip only ticks on which the port loop would
    /// change nothing. Two caches built alike take one random stream of
    /// demands, fetches, writebacks and fills at random times; one is
    /// ticked through `tick`, the other through the unguarded
    /// `tick_ports`. The cycle-vs-event tests cannot see a wrong guard,
    /// because both of their tick loops run the same `tick`.
    #[test]
    fn tick_guard_matches_the_port_loop() {
        let two_ports = CacheConfig {
            hit_latency: Duration::from_ps(1500),
            mshrs: 3,
            input_capacity: 6,
            ports: 2,
            ..tiny_cfg()
        };
        for (cfg, seed) in [(tiny_cfg(), 1), (two_ports, 2)] {
            let mut guarded = Cache::new(cfg.clone());
            let mut looped = Cache::new(cfg);
            let mut rng = DetRng::seed_from(seed);
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            let mut outstanding: Vec<u64> = Vec::new();
            // Ticks that met an empty input, a head not yet due, a due
            // head stalled on a full MSHR file, and a due head served.
            let mut seen = [0u32; 4];
            for step in 0..20_000u64 {
                // Mostly one 500 ps cycle, sometimes none or several.
                let cycles = [0, 1, 1, 1, 1, 1, 2, 5][rng.below(8) as usize];
                now += Duration::from_ps(500 * cycles);
                // Phases of busy input with fills, busy input without
                // (the MSHR file fills up), and sparse input (it drains).
                let (fill_chance, max_offers) =
                    [(0.3, 3), (0.02, 3), (0.3, 1)][(step / 400 % 3) as usize];
                if !outstanding.is_empty() && rng.chance(fill_chance) {
                    let pick = rng.below(outstanding.len() as u64) as usize;
                    let line = outstanding.swap_remove(pick);
                    guarded.deliver_fill(line, now);
                    looped.deliver_fill(line, now);
                }
                for _ in 0..rng.below(max_offers) {
                    let line = rng.below(24);
                    let accepted = match rng.below(4) {
                        0 | 1 => {
                            let (id, is_store) = (AccessId(next_id), rng.chance(0.3));
                            next_id += 1;
                            [&mut guarded, &mut looped]
                                .map(|c| c.try_demand(id, line, is_store, now))
                        }
                        2 => [&mut guarded, &mut looped].map(|c| c.try_fetch(line, now)),
                        _ => [&mut guarded, &mut looped].map(|c| c.try_writeback(line, now)),
                    };
                    assert_eq!(accepted[0], accepted[1], "step {step}");
                }
                seen[match looped.input.front() {
                    None => 0,
                    Some(head) if head.ready > now => 1,
                    Some(_) if looped.head_stalled_on_mshrs(now) => 2,
                    Some(_) => 3,
                }] += 1;
                guarded.tick(now);
                looped.tick_ports(now);
                assert_eq!(guarded.stats(), looped.stats(), "step {step}");
                assert_eq!(
                    guarded.next_event(now),
                    looped.next_event(now),
                    "step {step}"
                );
                let out = drain_outputs(&mut guarded);
                assert_eq!(out, drain_outputs(&mut looped), "step {step}");
                outstanding.extend(out.2);
            }
            assert!(
                seen.iter().all(|&n| n >= 500),
                "too few of some tick kind: {seen:?}"
            );
        }
    }

    #[test]
    fn pending_transfers_tracks_output_queues() {
        let mut c = Cache::new(tiny_cfg());
        assert!(!c.has_pending_transfers());
        c.try_demand(AccessId(1), 100, false, SimTime::ZERO);
        run(&mut c, 2);
        assert!(c.has_pending_transfers(), "miss queued downward");
        c.pop_miss_down();
        assert!(!c.has_pending_transfers());
        c.deliver_fill(100, SimTime::from_ns(3));
        assert!(c.has_pending_transfers(), "completion queued upward");
        c.pop_completion();
        assert!(!c.has_pending_transfers());
    }

    #[test]
    fn input_full_matches_rejection_and_replay() {
        let mut c = Cache::new(tiny_cfg()); // capacity 4
        for i in 0..4 {
            assert!(!c.input_full());
            c.try_demand(AccessId(i), i, false, SimTime::ZERO);
        }
        assert!(c.input_full());
        // One retry per cycle against a full queue, batched vs ticked.
        assert!(!c.try_demand(AccessId(9), 9, false, SimTime::ZERO));
        c.fast_forward_rejected_inputs(CoreCycles::new(10));
        assert_eq!(c.stats().input_rejects, 11);
    }

    /// Runs one demand load of `line` to completion, filling it on a
    /// miss.
    fn demand(c: &mut Cache, line: u64) {
        c.try_demand(AccessId(99), line, false, SimTime::ZERO);
        run(c, 2);
        if c.pop_miss_down().is_some() {
            c.deliver_fill(line, SimTime::from_ns(3));
        }
        c.pop_completion();
    }

    /// Installs or re-dirties `line` through a writeback from above.
    fn write_back(c: &mut Cache, line: u64) {
        c.try_writeback(line, SimTime::ZERO);
        run(c, 2);
    }

    /// A 2-way cache holding dirty `dirty_lines`, trained on an all-miss
    /// profile: every position useless (eager position 0).
    fn trained_all_miss(dirty_lines: &[u64]) -> Cache {
        let mut c = Cache::new(tiny_cfg());
        c.enable_eager();
        for &line in dirty_lines {
            write_back(&mut c, line);
        }
        for i in 0..100u64 {
            demand(&mut c, 1000 + 16 * i); // set 0, never revisited
        }
        assert_eq!(c.sample_utility(), Some(0));
        c
    }

    /// A 4-way cache trained to eager position 2 by hits at positions 0
    /// and 1 only. Set 1 holds dirty lines 5 (MRU) and 1 above the
    /// `clean` lines, which are fetched into it first.
    fn trained_floor_2(clean: &[u64]) -> Cache {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4 * 64 * 4, // 4 sets, 4-way
            assoc: 4,
            ..tiny_cfg()
        });
        c.enable_eager();
        for &line in clean {
            demand(&mut c, line);
        }
        write_back(&mut c, 1);
        write_back(&mut c, 5);
        for _ in 0..10 {
            demand(&mut c, 1); // each alternate access hits at position 1
            demand(&mut c, 5);
        }
        for _ in 0..50 {
            demand(&mut c, 5); // MRU hits
        }
        assert_eq!(c.sample_utility(), Some(2));
        c
    }

    /// The closed-form probe span must match the per-cycle probe loop
    /// bit for bit: same RNG stream position, same candidate, same
    /// truncation point, same stats and line states. Each row also pins
    /// the tag store's count of sets holding a candidate, which decides
    /// whether the span skips its draws.
    #[test]
    fn eager_probe_span_matches_per_cycle_probes() {
        type Build = fn() -> Cache;
        let rows: [(Build, u64, usize); 8] = [
            // No dirty lines: pure skip path.
            (|| trained_all_miss(&[]), 500, 0),
            // One candidate somewhere.
            (|| trained_all_miss(&[3]), 100, 1),
            // Single-probe span.
            (|| trained_all_miss(&[1, 2, 3]), 1, 3),
            // Several candidates, two in one set.
            (|| trained_all_miss(&[5, 6, 7, 9]), 64, 3),
            // Dirty lines resident, all below the eager position: the
            // skip path with dirty lines present.
            (|| trained_floor_2(&[]), 500, 0),
            // An insert pushes dirty line 1 to position 2.
            (
                || {
                    let mut c = trained_floor_2(&[]);
                    demand(&mut c, 9);
                    c
                },
                100,
                1,
            ),
            // A touch of the LRU line 9 pushes dirty line 1 to position 2.
            (
                || {
                    let mut c = trained_floor_2(&[9, 13]);
                    demand(&mut c, 9);
                    c
                },
                100,
                1,
            ),
            // A second, all-miss sample lowers the eager position to 0.
            (
                || {
                    let mut c = trained_floor_2(&[]);
                    for i in 0..10u64 {
                        demand(&mut c, 4 * i); // set 0
                    }
                    assert_eq!(c.sample_utility(), Some(0));
                    c
                },
                100,
                1,
            ),
        ];
        for (row, (build, span, candidates)) in rows.iter().enumerate() {
            for seed in 0..8u64 {
                let mut looped = build();
                let mut spanned = build();
                assert_eq!(spanned.store.candidate_sets(), *candidates, "row {row}");
                let mut rng_a = DetRng::seed_from(seed);
                let mut rng_b = rng_a.clone();

                let mut consumed_a = *span;
                let mut found_a = None;
                for cycle in 1..=*span {
                    if let Some(line) = looped.eager_candidate(&mut rng_a) {
                        consumed_a = cycle;
                        found_a = Some(line);
                        break;
                    }
                }
                let (consumed_b, found_b) = spanned.eager_probe_span(&mut rng_b, *span);
                assert_eq!((consumed_a, found_a), (consumed_b, found_b), "row {row}");
                assert_eq!(looped.stats(), spanned.stats());
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
                for line in 0..2600 {
                    assert_eq!(looped.line_state(line), spanned.line_state(line));
                }
            }
        }
    }

    /// Pins the RNG contract the event kernel's span replay depends on:
    /// each idle-LLC probe draws exactly one `below(num_sets)` value
    /// when the monitor has useless positions, and none at all when
    /// `eager_position == assoc`.
    #[test]
    fn eager_probe_draw_count_is_exact() {
        let mut c = Cache::new(tiny_cfg());
        c.enable_eager();

        // Fresh monitor: eager_position == assoc, so a probe must not
        // touch the generator.
        let mut rng = DetRng::seed_from(7);
        let mut untouched = rng.clone();
        for _ in 0..5 {
            assert!(c.eager_candidate(&mut rng).is_none());
        }
        assert_eq!(rng.next_u64(), untouched.next_u64());

        // Train an all-miss profile so everything becomes useless.
        for i in 0..100u64 {
            let line = 1000 + 16 * i;
            c.try_demand(AccessId(99), line, false, SimTime::from_ns(5));
            run(&mut c, 7);
            if c.pop_miss_down().is_some() {
                c.deliver_fill(line, SimTime::from_ns(8));
            }
            c.pop_completion();
        }
        assert_eq!(c.sample_utility(), Some(0));

        // Now every probe — hit or not — draws exactly one set index.
        let mut rng = DetRng::seed_from(7);
        let mut replay = rng.clone();
        let num_sets = c.config().num_sets();
        for _ in 0..64 {
            let _ = c.eager_candidate(&mut rng);
        }
        for _ in 0..64 {
            replay.below(num_sets);
        }
        assert_eq!(rng.next_u64(), replay.next_u64());
    }
}
