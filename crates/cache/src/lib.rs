//! Set-associative write-back cache hierarchy with the LLC-side Eager
//! Mellow Writes machinery.
//!
//! The paper's cache hierarchy (Table I) is three levels of true-LRU,
//! write-back, write-allocate caches; the LLC additionally profiles hits
//! per LRU stack position to find *useless* dirty lines that can be
//! eagerly and slowly written back while their banks are idle (§IV-B).
//!
//! - A crate-private flat tag store that every level keeps its lines in:
//!   one array of `num_sets × assoc` tags ordered MRU → LRU within each
//!   set, plus per-set `dirty` and `eager_cleaned` bit masks indexed by
//!   LRU position, so the LLC's eager probe tests one word per set.
//! - [`MshrFile`] — bounded miss-status holding registers with same-line
//!   merging.
//! - [`Cache`] / [`CacheConfig`] — a timed cache level with input
//!   queueing, hit-latency pipelining, MSHR backpressure, and (for the
//!   LLC) the eager-candidate probe driven by
//!   [`mellow_core::UtilityMonitor`].
//!
//! Levels are wired together by the owner (see the `mellow-sim` crate),
//! which moves lines between the explicit output and input ports. The
//! line address convention throughout is `addr / line_bytes`.

mod cache;
mod mshr;
mod store;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use mshr::{MshrEntry, MshrFile};

/// Identifies a demand access at the top of the hierarchy (assigned by
/// the core; echoed back on completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub u64);

/// Returns the line index of a byte address for `line_bytes`-sized lines.
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two.
///
/// # Examples
///
/// ```
/// use mellow_cache::line_of;
///
/// assert_eq!(line_of(0x0, 64), 0);
/// assert_eq!(line_of(0x3F, 64), 0);
/// assert_eq!(line_of(0x40, 64), 1);
/// ```
#[inline]
pub fn line_of(addr: u64, line_bytes: u64) -> u64 {
    assert!(
        line_bytes.is_power_of_two(),
        "line size must be a power of two"
    );
    addr / line_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_maps_bytes_to_lines() {
        assert_eq!(line_of(127, 64), 1);
        assert_eq!(line_of(128, 64), 2);
        assert_eq!(line_of(1 << 30, 64), (1 << 30) / 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_rejected() {
        let _ = line_of(0, 63);
    }
}
