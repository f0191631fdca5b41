//! Deterministic pending-completion queue.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-heap of `(due time, payload)` entries with deterministic FIFO
/// ordering among entries due at the same instant.
///
/// The memory controller schedules each in-flight bank operation here
/// and drains the due entries each tick. Determinism matters: two entries
/// scheduled for the same picosecond pop in insertion order, so a
/// simulation is a pure function of its configuration and seed.
///
/// # Examples
///
/// ```
/// use mellow_engine::{SimTime, TimerQueue};
///
/// let mut q = TimerQueue::new();
/// q.schedule(SimTime::from_ns(10), 'b');
/// q.schedule(SimTime::from_ns(5), 'a');
/// q.schedule(SimTime::from_ns(10), 'c');
/// assert_eq!(q.pop_due(SimTime::from_ns(10)), Some('a'));
/// assert_eq!(q.pop_due(SimTime::from_ns(10)), Some('b'));
/// assert_eq!(q.pop_due(SimTime::from_ns(10)), Some('c'));
/// assert_eq!(q.pop_due(SimTime::from_ns(10)), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimerQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    due: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (due, seq).
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl<T> TimerQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimerQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` to become due at `due`.
    pub fn schedule(&mut self, due: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { due, seq, payload });
    }

    /// Removes and returns the earliest entry due at or before `now`,
    /// or `None` if nothing is due yet.
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.due <= now) {
            Some(self.heap.pop().expect("peeked entry").payload)
        } else {
            None
        }
    }

    /// Returns the due time of the earliest pending entry, if any.
    ///
    /// Lets the simulation loop skip idle stretches instead of ticking
    /// through them.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.due)
    }

    /// Removes and returns the earliest pending entry regardless of the
    /// current time, or `None` when the queue is empty.
    ///
    /// [`HorizonQueue::pop_earliest`](crate::HorizonQueue::pop_earliest)
    /// uses this to pop the next *horizon* — a future instant at which
    /// some source next has work — where `pop_due`'s at-or-before-`now`
    /// gate would be meaningless.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.due, e.payload))
    }

    /// Returns the number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Keeps only the entries whose payload satisfies `keep`. Survivors
    /// keep their due times and insertion order, so their pop order does
    /// not change.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.heap.retain(|e| keep(&e.payload));
    }
}

impl<T> Default for TimerQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimerQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        assert_eq!(q.pop_due(SimTime::from_ns(100)), Some(1));
        assert_eq!(q.pop_due(SimTime::from_ns(100)), Some(2));
        assert_eq!(q.pop_due(SimTime::from_ns(100)), Some(3));
    }

    #[test]
    fn nothing_due_before_deadline() {
        let mut q = TimerQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        assert_eq!(q.pop_due(SimTime::from_ns(9)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::from_ns(10)), Some(()));
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = TimerQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_due(t), Some(i));
        }
    }

    #[test]
    fn next_due_reports_earliest() {
        let mut q = TimerQueue::new();
        assert_eq!(q.next_due(), None);
        q.schedule(SimTime::from_ns(7), ());
        q.schedule(SimTime::from_ns(3), ());
        assert_eq!(q.next_due(), Some(SimTime::from_ns(3)));
    }
}
