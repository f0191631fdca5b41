//! Statistics primitives.
//!
//! Every figure of the paper is computed from event counts (plain `u64`
//! fields of each component's stats row), time-in-state accumulations
//! ([`BusyTracker`], e.g. bank utilization and write-drain time), and
//! distributions ([`Histogram`], e.g. read latency). All are plain data
//! so experiment results can be dumped as JSON rows.

use crate::{Duration, SimTime};

/// Accumulates the total time a component spends in a boolean state
/// (busy/idle, draining/not), tolerating redundant transitions.
///
/// Drives the utilization metrics of Figs. 3, 12 and the write-drain
/// fraction of Fig. 13.
///
/// # Examples
///
/// ```
/// use mellow_engine::stats::BusyTracker;
/// use mellow_engine::{Duration, SimTime};
///
/// let mut bank = BusyTracker::new();
/// bank.set_busy(SimTime::from_ns(10));
/// bank.set_idle(SimTime::from_ns(25));
/// assert_eq!(bank.busy_time(SimTime::from_ns(100)), Duration::from_ns(15));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyTracker {
    accumulated: Duration,
    busy_since: Option<SimTime>,
}

impl BusyTracker {
    /// Creates a tracker that starts idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the state busy as of `now`; redundant calls are ignored.
    pub fn set_busy(&mut self, now: SimTime) {
        if self.busy_since.is_none() {
            self.busy_since = Some(now);
        }
    }

    /// Marks the state idle as of `now`; redundant calls are ignored.
    pub fn set_idle(&mut self, now: SimTime) {
        if let Some(since) = self.busy_since.take() {
            self.accumulated += now.saturating_since(since);
        }
    }

    /// Returns `true` while in the busy state.
    pub fn is_busy(&self) -> bool {
        self.busy_since.is_some()
    }

    /// Returns the total busy time up to `now`, including any open interval.
    pub fn busy_time(&self, now: SimTime) -> Duration {
        match self.busy_since {
            Some(since) => self.accumulated + now.saturating_since(since),
            None => self.accumulated,
        }
    }

    /// Returns busy time as a fraction of the span from the origin to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy_time(now).fraction_of(now.since_origin())
    }
}

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))`; bucket 0 also holds zero.
/// Used for latency distributions, which span several orders of magnitude
/// once write drains start delaying reads.
///
/// # Examples
///
/// ```
/// use mellow_engine::stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(100);
/// h.record(300);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), 200.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the arithmetic mean, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the largest recorded sample, or 0 with no samples.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Returns the per-bucket counts, bucket `i` covering `[2^i, 2^(i+1))`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

crate::impl_json_fields!(Histogram {
    buckets,
    count,
    sum,
    max,
});

/// Computes the geometric mean of a set of strictly positive values.
///
/// The paper reports geometric-mean IPC ratios (e.g. E-Slow+SC at 0.77×).
///
/// Returns `None` when `values` is empty or any value is non-positive.
///
/// # Examples
///
/// ```
/// use mellow_engine::stats::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(geometric_mean(&[]).is_none());
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_accumulates_intervals() {
        let mut t = BusyTracker::new();
        t.set_busy(SimTime::from_ns(0));
        t.set_idle(SimTime::from_ns(10));
        t.set_busy(SimTime::from_ns(20));
        t.set_idle(SimTime::from_ns(30));
        assert_eq!(t.busy_time(SimTime::from_ns(40)), Duration::from_ns(20));
        assert!((t.utilization(SimTime::from_ns(40)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_open_interval_counts() {
        let mut t = BusyTracker::new();
        t.set_busy(SimTime::from_ns(5));
        assert!(t.is_busy());
        assert_eq!(t.busy_time(SimTime::from_ns(15)), Duration::from_ns(10));
    }

    #[test]
    fn busy_tracker_ignores_redundant_transitions() {
        let mut t = BusyTracker::new();
        t.set_idle(SimTime::from_ns(5)); // already idle
        t.set_busy(SimTime::from_ns(10));
        t.set_busy(SimTime::from_ns(12)); // already busy: keeps original start
        t.set_idle(SimTime::from_ns(20));
        assert_eq!(t.busy_time(SimTime::from_ns(20)), Duration::from_ns(10));
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets()[0], 2); // 0 and 1
        assert_eq!(h.buckets()[1], 2); // 2 and 3
        assert_eq!(h.buckets()[10], 1); // 1024
    }

    #[test]
    fn histogram_mean_empty_is_zero() {
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn geometric_mean_matches_paper_usage() {
        // The geomean of per-benchmark IPC ratios should sit between min
        // and max and below the arithmetic mean.
        let vals = [0.5, 1.0, 2.0];
        let g = geometric_mean(&vals).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[-1.0]).is_none());
    }
}
