//! Reduce partitioning: the one key→shard hash every executor shuffles by.
//!
//! This is the classic MapReduce shuffle, with one deliberate change:
//! shard selection uses the bias-free widening-multiply reduction
//! ([`shard_of_hash`]) instead of `hash % n`, which skews low shards for
//! non-power-of-two reducer counts. `run_job`, `run_merged`, the external
//! executor and the shared-scan server all route a key through
//! [`partition_of`], so a key lands on the same shard index whichever
//! executor ran it.

use std::hash::{Hash, Hasher};

/// Canonical 64-bit key hash used by every partitioning site (identical to
/// `fxhash::hash64`, spelled out so all call sites share one definition).
pub(crate) fn key_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = fxhash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Map a key hash onto `n` shards without modulo bias: the widening
/// multiply `(h × n) >> 64` scales `h / 2^64` into `[0, n)` — uniform for
/// every `n`, power of two or not, where `h % n` over-fills low shards by
/// up to `2^64 mod n` hashes each. `n == 0` is clamped to one shard so a
/// degenerate reducer count can never fault mid-reduce.
pub(crate) fn shard_of_hash(h: u64, n: usize) -> usize {
    ((h as u128 * n.max(1) as u128) >> 64) as usize
}

/// The reduce shard of `key` among `n` shards — the one routing every
/// executor shuffles by. `n == 0` clamps to one shard.
pub(crate) fn partition_of<K: Hash + ?Sized>(key: &K, n: usize) -> usize {
    shard_of_hash(key_hash(key), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shard assignment is pinned so the switch from `% n` to the
    /// widening multiply is deliberate and replay-stable. Expected values
    /// are the widening-multiply outputs for fxhash of these strings — any
    /// change to the hash or the reduction breaks this.
    #[test]
    fn hash_shard_assignment_snapshot() {
        let keys = ["apple", "banana", "cherry", "zipf", "s3", ""];
        let got: Vec<Vec<usize>> = [3usize, 5, 7, 8]
            .iter()
            .map(|&n| keys.iter().map(|k| shard_of_hash(key_hash(k), n)).collect())
            .collect();
        assert_eq!(
            got,
            vec![
                vec![2, 1, 2, 2, 0, 0], // n = 3
                vec![4, 2, 4, 4, 1, 0], // n = 5
                vec![6, 3, 5, 6, 2, 1], // n = 7
                vec![7, 4, 6, 7, 2, 1], // n = 8
            ]
        );
    }

    #[test]
    fn shard_of_hash_is_total_and_in_range() {
        for n in 1..=17usize {
            for h in [0, 1, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert!(shard_of_hash(h, n) < n, "h={h} n={n}");
            }
        }
        // Degenerate clamp: zero shards routes to shard 0, never faults.
        assert_eq!(shard_of_hash(u64::MAX, 0), 0);
    }
}
