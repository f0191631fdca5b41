//! The synthetic trace generator.

use crate::{AccessPattern, WorkloadSpec};
use mellow_cpu::{MemOp, TraceRecord, TraceSource};
use mellow_engine::DetRng;

/// Stream id for the synthetic-trace generator: `b"mellow"` as a number.
/// Every workload stream is `xor_stream(seed, WORKLOAD_STREAM)` so trace
/// draws stay independent of any other consumer of the experiment seed.
const WORKLOAD_STREAM: u64 = 0x6d65_6c6c_6f77;

/// An endless synthetic instruction stream realizing a
/// [`WorkloadSpec`].
///
/// Deterministic: the same `(spec, seed)` pair always yields the same
/// trace.
///
/// # Examples
///
/// ```
/// use mellow_cpu::TraceSource;
/// use mellow_workloads::{SyntheticWorkload, WorkloadSpec};
///
/// let spec = WorkloadSpec::by_name("stream").unwrap();
/// let mut a = SyntheticWorkload::new(spec.clone(), 7);
/// let mut b = SyntheticWorkload::new(spec, 7);
/// for _ in 0..100 {
///     assert_eq!(a.next_record(), b.next_record());
/// }
/// ```
#[derive(Debug)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    rng: DetRng,
    /// Per-stream cursors (byte offsets into the working set).
    stream_pos: Vec<u64>,
    /// Which stream issues next (round-robin).
    next_stream: usize,
    /// Pending store half of an RMW pair.
    pending_store: Option<u64>,
}

impl SyntheticWorkload {
    /// Creates a generator for `spec` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`WorkloadSpec::validate`]).
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate();
        let mut rng = DetRng::xor_stream(seed, WORKLOAD_STREAM);
        let stream_pos = match spec.pattern {
            AccessPattern::Streams { count, .. } => {
                let segment = spec.working_set_bytes / count as u64;
                (0..count as u64)
                    .map(|i| i * segment + rng.below(segment.max(64) / 64) * 64 % segment)
                    .collect()
            }
            _ => Vec::new(),
        };
        SyntheticWorkload {
            spec,
            rng,
            stream_pos,
            next_stream: 0,
            pending_store: None,
        }
    }

    /// Draws a jittered inter-op instruction count around
    /// `avg_interval` (uniform in ±50%).
    fn draw_interval(&mut self) -> u32 {
        let avg = self.spec.avg_interval;
        if avg < 1.0 {
            return if self.rng.chance(avg) { 1 } else { 0 };
        }
        let lo = (avg * 0.5).floor() as u64;
        let hi = (avg * 1.5).ceil() as u64;
        (lo + self.rng.below(hi - lo + 1)) as u32
    }

    fn random_line_addr(&mut self, region_start: u64, region_bytes: u64) -> u64 {
        let lines = (region_bytes / 64).max(1);
        region_start + self.rng.below(lines) * 64
    }

    fn next_op(&mut self) -> MemOp {
        let ws = self.spec.working_set_bytes;
        match self.spec.pattern {
            AccessPattern::Streams { count, stride } => {
                let segment = ws / count as u64;
                let idx = self.next_stream;
                self.next_stream = (self.next_stream + 1) % count;
                let base = idx as u64 * segment;
                let pos = &mut self.stream_pos[idx];
                let addr = base + (*pos % segment);
                *pos = (*pos + stride) % segment;
                let is_store = self.rng.chance(self.spec.store_fraction);
                MemOp {
                    addr,
                    is_store,
                    depends_on_prev: false,
                }
            }
            AccessPattern::Random => {
                let addr = self.random_line_addr(0, ws);
                let is_store = self.rng.chance(self.spec.store_fraction);
                MemOp {
                    addr,
                    is_store,
                    depends_on_prev: false,
                }
            }
            AccessPattern::RandomRmw => {
                if let Some(addr) = self.pending_store.take() {
                    return MemOp::store(addr);
                }
                let addr = self.random_line_addr(0, ws);
                self.pending_store = Some(addr);
                MemOp::load(addr)
            }
            AccessPattern::PointerChase => {
                let addr = self.random_line_addr(0, ws);
                let is_store = self.rng.chance(self.spec.store_fraction);
                let depends = !is_store && self.rng.chance(self.spec.dependent_fraction);
                MemOp {
                    addr,
                    is_store,
                    depends_on_prev: depends,
                }
            }
            AccessPattern::HotCold {
                hot_bytes,
                hot_prob,
            } => {
                let addr = if self.rng.chance(hot_prob) {
                    self.random_line_addr(0, hot_bytes)
                } else {
                    self.random_line_addr(hot_bytes, ws - hot_bytes)
                };
                let is_store = self.rng.chance(self.spec.store_fraction);
                MemOp {
                    addr,
                    is_store,
                    depends_on_prev: false,
                }
            }
        }
    }
}

impl TraceSource for SyntheticWorkload {
    fn next_record(&mut self) -> TraceRecord {
        // The store half of an RMW pair follows its load immediately.
        let nonmem = if self.pending_store.is_some() {
            0
        } else {
            self.draw_interval()
        };
        TraceRecord {
            nonmem,
            op: Some(self.next_op()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(name: &str, seed: u64, n: usize) -> Vec<TraceRecord> {
        let spec = WorkloadSpec::by_name(name).unwrap();
        let mut w = SyntheticWorkload::new(spec, seed);
        (0..n).map(|_| w.next_record()).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(collect("mcf", 1, 500), collect("mcf", 1, 500));
        assert_ne!(collect("mcf", 1, 500), collect("mcf", 2, 500));
    }

    #[test]
    fn addresses_stay_in_working_set() {
        for name in ["stream", "gups", "mcf", "hmmer", "milc"] {
            let spec = WorkloadSpec::by_name(name).unwrap();
            let ws = spec.working_set_bytes;
            let mut w = SyntheticWorkload::new(spec, 3);
            for _ in 0..2000 {
                let op = w.next_record().op.unwrap();
                assert!(op.addr < ws, "{name}: addr {} >= ws {ws}", op.addr);
            }
        }
    }

    #[test]
    fn store_fraction_approximately_respected() {
        let spec = WorkloadSpec::by_name("lbm").unwrap();
        let expect = spec.store_fraction;
        let mut w = SyntheticWorkload::new(spec, 5);
        let n = 20_000;
        let stores = (0..n)
            .filter(|_| w.next_record().op.unwrap().is_store)
            .count();
        let frac = stores as f64 / n as f64;
        assert!(
            (frac - expect).abs() < 0.02,
            "store fraction {frac} vs {expect}"
        );
    }

    #[test]
    fn rmw_pairs_load_then_store_same_line() {
        let spec = WorkloadSpec::by_name("gups").unwrap();
        let mut w = SyntheticWorkload::new(spec, 7);
        for _ in 0..100 {
            let load = w.next_record();
            let store = w.next_record();
            let l = load.op.unwrap();
            let s = store.op.unwrap();
            assert!(!l.is_store && s.is_store);
            assert_eq!(l.addr, s.addr);
            assert_eq!(store.nonmem, 0, "store follows immediately");
        }
    }

    #[test]
    fn streams_advance_by_stride_within_segments() {
        let spec = WorkloadSpec::by_name("libquantum").unwrap(); // 1 stream
        let mut w = SyntheticWorkload::new(spec, 9);
        let a0 = w.next_record().op.unwrap().addr;
        let a1 = w.next_record().op.unwrap().addr;
        assert_eq!(a1.wrapping_sub(a0), 64, "unit-stride line walk");
    }

    #[test]
    fn pointer_chase_marks_dependent_loads() {
        let spec = WorkloadSpec::by_name("mcf").unwrap();
        let mut w = SyntheticWorkload::new(spec, 11);
        let n = 5000;
        let dependent = (0..n)
            .filter(|_| w.next_record().op.unwrap().depends_on_prev)
            .count();
        let frac = dependent as f64 / n as f64;
        // ~0.55 * (1 - store_fraction 0.15) ≈ 0.47 of all ops.
        assert!((0.40..0.55).contains(&frac), "dependent fraction {frac}");
    }

    #[test]
    fn hot_cold_concentrates_references() {
        let spec = WorkloadSpec::by_name("hmmer").unwrap();
        let (hot_bytes, _) = match spec.pattern {
            AccessPattern::HotCold {
                hot_bytes,
                hot_prob,
            } => (hot_bytes, hot_prob),
            _ => unreachable!(),
        };
        let mut w = SyntheticWorkload::new(spec, 13);
        let n = 20_000;
        let hot = (0..n)
            .filter(|_| w.next_record().op.unwrap().addr < hot_bytes)
            .count();
        let frac = hot as f64 / n as f64;
        assert!(frac > 0.98, "hot fraction {frac}");
    }

    #[test]
    fn intervals_track_the_average() {
        let spec = WorkloadSpec::by_name("zeusmp").unwrap();
        let avg = spec.avg_interval;
        let mut w = SyntheticWorkload::new(spec, 17);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| w.next_record().nonmem as u64).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - avg).abs() / avg < 0.05,
            "mean interval {mean} vs {avg}"
        );
    }
}
