//! Event-horizon queue.
//!
//! A source (a sampler, a cache, a memory controller) exposes a
//! *horizon*: the earliest future instant at which it next has work.
//! Sources post their horizon here whenever it changes and a loop pops
//! the earliest one.
//!
//! The system's event kernel does not use this queue: with five sources,
//! it reads every `next_event` hook fresh on each jump and takes the
//! minimum, which leaves no cached horizon to keep current.
//!
//! The queue is index-addressed: each source owns a small integer id and
//! has **at most one live horizon** at a time. Re-posting a source
//! supersedes its previous horizon; superseded heap entries are dropped
//! lazily on pop via a per-source generation counter, so posting stays
//! `O(log n)` with no heap surgery.

use crate::{SimTime, TimerQueue};

/// A queue of per-source event horizons with last-write-wins semantics.
///
/// # Examples
///
/// ```
/// use mellow_engine::{HorizonQueue, SimTime};
///
/// let mut q = HorizonQueue::new(2);
/// q.post(0, SimTime::from_ns(30));
/// q.post(1, SimTime::from_ns(10));
/// q.post(0, SimTime::from_ns(5)); // supersedes source 0's first horizon
/// assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(5), 0)));
/// assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(10), 1)));
/// assert_eq!(q.pop_earliest(), None);
/// ```
#[derive(Debug, Clone)]
pub struct HorizonQueue {
    timers: TimerQueue<(usize, u64)>,
    /// Last-posted horizon per source; `SimTime::MAX` means "none".
    posted: Vec<SimTime>,
    /// Bumped on every horizon change; heap entries carry the generation
    /// they were scheduled under, so stale ones are recognized on pop.
    generation: Vec<u64>,
}

impl HorizonQueue {
    /// Creates a queue for `sources` independent horizon sources.
    pub fn new(sources: usize) -> Self {
        HorizonQueue {
            timers: TimerQueue::new(),
            posted: vec![SimTime::MAX; sources],
            generation: vec![0; sources],
        }
    }

    /// Posts (or supersedes) `source`'s horizon. Posting the already
    /// current horizon is a no-op, so callers may re-post unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn post(&mut self, source: usize, due: SimTime) {
        if self.posted[source] == due {
            return;
        }
        self.posted[source] = due;
        self.generation[source] += 1;
        self.timers.schedule(due, (source, self.generation[source]));
    }

    /// Withdraws `source`'s horizon (the source currently has no future
    /// work). Lazily drops any pending heap entry.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn withdraw(&mut self, source: usize) {
        if self.posted[source] == SimTime::MAX {
            return;
        }
        self.posted[source] = SimTime::MAX;
        self.generation[source] += 1;
    }

    /// Returns `source`'s current horizon, or `SimTime::MAX` if none.
    pub fn posted(&self, source: usize) -> SimTime {
        self.posted[source]
    }

    /// Removes and returns the earliest live `(horizon, source)` pair,
    /// skipping superseded entries. The source's horizon remains current
    /// (`posted` still reports it); use [`HorizonQueue::repost`] to make
    /// it poppable again after inspection.
    pub fn pop_earliest(&mut self) -> Option<(SimTime, usize)> {
        while let Some((due, (source, generation))) = self.timers.pop() {
            if generation == self.generation[source] {
                return Some((due, source));
            }
        }
        None
    }

    /// Re-queues a horizon previously returned by
    /// [`HorizonQueue::pop_earliest`], provided it is still current.
    /// Kernel loops pop a few entries to find the effective minimum, then
    /// repost the ones they only inspected.
    pub fn repost(&mut self, source: usize, due: SimTime) {
        if self.posted[source] == due {
            self.timers.schedule(due, (source, self.generation[source]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posts_pop_in_time_order() {
        let mut q = HorizonQueue::new(3);
        q.post(2, SimTime::from_ns(30));
        q.post(0, SimTime::from_ns(10));
        q.post(1, SimTime::from_ns(20));
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(10), 0)));
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(20), 1)));
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(30), 2)));
        assert_eq!(q.pop_earliest(), None);
    }

    #[test]
    fn reposting_supersedes() {
        let mut q = HorizonQueue::new(2);
        q.post(0, SimTime::from_ns(100));
        q.post(0, SimTime::from_ns(5));
        assert_eq!(q.posted(0), SimTime::from_ns(5));
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(5), 0)));
        // The stale ns(100) entry must not resurface.
        assert_eq!(q.pop_earliest(), None);
    }

    #[test]
    fn withdraw_drops_pending_horizon() {
        let mut q = HorizonQueue::new(1);
        q.post(0, SimTime::from_ns(7));
        q.withdraw(0);
        assert_eq!(q.posted(0), SimTime::MAX);
        assert_eq!(q.pop_earliest(), None);
        // Re-posting the same instant after a withdraw works.
        q.post(0, SimTime::from_ns(7));
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(7), 0)));
    }

    #[test]
    fn repost_restores_only_current_horizons() {
        let mut q = HorizonQueue::new(2);
        q.post(0, SimTime::from_ns(4));
        q.post(1, SimTime::from_ns(9));
        let (due, src) = q.pop_earliest().expect("live entry");
        q.repost(src, due);
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(4), 0)));
        // A popped-then-changed horizon must not be restorable.
        let (due, src) = q.pop_earliest().expect("live entry");
        q.post(src, SimTime::from_ns(50));
        q.repost(src, due);
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(50), 1)));
        assert_eq!(q.pop_earliest(), None);
    }

    #[test]
    fn repost_is_not_a_duplicate_source_of_growth() {
        let mut q = HorizonQueue::new(1);
        q.post(0, SimTime::from_ns(3));
        for _ in 0..100 {
            let (due, src) = q.pop_earliest().expect("live entry");
            q.repost(src, due);
        }
        assert_eq!(q.pop_earliest(), Some((SimTime::from_ns(3), 0)));
        assert_eq!(q.pop_earliest(), None);
    }

    #[test]
    fn same_instant_ties_break_by_insertion() {
        let mut q = HorizonQueue::new(2);
        let t = SimTime::from_ns(1);
        q.post(1, t);
        q.post(0, t);
        assert_eq!(q.pop_earliest(), Some((t, 1)));
        assert_eq!(q.pop_earliest(), Some((t, 0)));
    }
}
