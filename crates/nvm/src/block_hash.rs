//! A fixed-cost hasher for the per-block tables keyed by block index.

use std::hash::Hasher;

/// rustc-hash's multiplier: odd, so the multiply is a bijection.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Brings product bits 44 to 63 down to the bucket index. Of the
/// rotations 14 to 39, it had the best worst case when consecutive and
/// strided indices (strides 1 to 16 and 32 to 4096) fill tables of 256
/// to 16,000 blocks.
const ROTATE: u32 = 20;

/// Hashes a block index with one multiply and one rotate.
///
/// The fault and retention layers look their per-block tables up
/// strictly by key and never iterate them, so the hash has one job: to
/// spread block indices over hashbrown's bucket index (the hash's low
/// bits) and its control tag (the top 7 bits). The multiply carries
/// each key bit only upwards, so a key strided by `2^k` has `k` zero low
/// product bits; the rotate brings the well-mixed high bits down to the
/// bucket index. Block indices come from the simulator's own address
/// map, not from outside the program, so the table needs no seed
/// against crafted collisions, and a fixed hash costs no per-process
/// seed either.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(ROTATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash(block: u64) -> u64 {
        let mut h = BlockHasher::default();
        h.write_u64(block);
        h.finish()
    }

    /// Consecutive and strided block indices, the patterns a bank's
    /// blocks are touched in, spread over the bucket index of the table
    /// hashbrown sizes for them (8192 buckets for 4096 blocks) and over
    /// every control tag. Without the rotate, a stride of 64 would reach
    /// at most 128 buckets.
    #[test]
    fn block_indices_spread_over_bucket_index_and_tag() {
        const KEYS: u64 = 4096;
        const BUCKETS: u64 = 2 * KEYS;
        for stride in [1, 2, 3, 4, 8, 16, 64, 4096] {
            let hashes: Vec<u64> = (0..KEYS).map(|i| hash(i * stride)).collect();
            let buckets: HashSet<u64> = hashes.iter().map(|h| h % BUCKETS).collect();
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                buckets.len() as u64 >= 3 * KEYS / 4,
                "stride {stride}: {} buckets for {KEYS} blocks",
                buckets.len()
            );
            assert_eq!(tags.len(), 128, "stride {stride}: control tags");
        }
    }
}
