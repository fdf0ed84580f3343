//! Hash partitioning and shuffles.
//!
//! Keyed operators repartition their inputs so that equal keys meet in the
//! same partition. The shuffle is where "network traffic" happens in a real
//! cluster, so [`shuffle_by_key`] reports how many records *moved* to a
//! different partition — co-partitioned inputs shuffle for free, exactly as
//! they would under Flink's partitioning properties.

use std::hash::Hash;

use crate::dataset::Partitions;
use crate::hash::fx_hash;

/// Identifier of a partition (`0..parallelism`). Partition `i` models the
/// state held by worker `i`; a failure of worker `i` loses partition `i` of
/// every dataset involved in the running iteration.
pub type PartitionId = usize;

/// The partition a key belongs to, for a given parallelism.
///
/// Deterministic across runs and platforms (see [`crate::hash`]), which the
/// experiments rely on when they name the partitions to fail.
#[inline]
pub fn hash_partition<K: Hash + ?Sized>(key: &K, parallelism: usize) -> PartitionId {
    debug_assert!(parallelism > 0);
    // Fold the high bits in before taking the remainder: the multiply-based
    // FxHash mixes poorly into the low bits (`v * ODD mod 2^k == v mod 2^k`
    // up to an odd factor), which would make sequential keys land exactly
    // round-robin and hide all shuffle traffic.
    let h = fx_hash(key);
    (((h >> 32) ^ (h & 0xFFFF_FFFF)) % parallelism as u64) as PartitionId
}

/// Outcome of a shuffle: the repartitioned dataset plus traffic accounting.
pub struct Shuffled<T> {
    /// Records grouped by their key's target partition.
    pub parts: Partitions<T>,
    /// Records that ended up in a different partition than they started in
    /// (i.e. records that would cross the network in a real deployment).
    pub moved: u64,
}

/// Repartition `input` so that every record lands in the partition of its
/// key. The output has the same number of partitions as the input.
pub fn shuffle_by_key<T, K, F>(input: Partitions<T>, key_of: F) -> Shuffled<T>
where
    K: Hash,
    F: Fn(&T) -> K,
{
    let p = input.num_partitions();
    let mut out: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    for (source_pid, records) in input.into_iter().enumerate() {
        for record in records {
            let target = hash_partition(&key_of(&record), p);
            if target != source_pid {
                moved += 1;
            }
            out[target].push(record);
        }
    }
    Shuffled { parts: Partitions::from_parts(out), moved }
}

/// [`shuffle_by_key`] for operators that only read their input: route
/// references to the records instead of moving them, in the same order and
/// with the same traffic accounting, so a shared input is never cloned.
pub fn shuffle_refs<T, K, F>(input: &Partitions<T>, key_of: F) -> Shuffled<&T>
where
    K: Hash,
    F: Fn(&T) -> K,
{
    let p = input.num_partitions();
    let mut out: Vec<Vec<&T>> = (0..p).map(|_| Vec::new()).collect();
    let mut moved = 0u64;
    for (source_pid, records) in input.iter() {
        for record in records {
            let target = hash_partition(&key_of(record), p);
            if target != source_pid {
                moved += 1;
            }
            out[target].push(record);
        }
    }
    Shuffled { parts: Partitions::from_parts(out), moved }
}

/// Copy every record of `input` into every partition (a broadcast).
/// All `p * n` copies count as moved traffic except the local ones.
pub fn broadcast<T: Clone>(input: &Partitions<T>, parallelism: usize) -> Shuffled<T> {
    let all: Vec<T> = input.iter_records().cloned().collect();
    let n = all.len() as u64;
    let parts = Partitions::from_parts((0..parallelism).map(|_| all.clone()).collect());
    // Each record already lived in exactly one partition, so `p - 1` copies
    // of each record travel.
    let moved = n * (parallelism as u64 - 1);
    Shuffled { parts, moved }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_groups_equal_keys() {
        let input = Partitions::round_robin((0u64..100).collect(), 4);
        let shuffled = shuffle_by_key(input, |v| *v % 10);
        for (_, records) in shuffled.parts.iter() {
            for r in records {
                assert_eq!(hash_partition(&(*r % 10), 4), hash_partition(&(records[0] % 10), 4));
            }
        }
        assert_eq!(shuffled.parts.total_len(), 100);
    }

    #[test]
    fn co_partitioned_input_moves_nothing() {
        // Pre-partition by key, then shuffle by the same key: zero traffic.
        let mut parts = Partitions::empty(4);
        for v in 0u64..50 {
            parts.partition_mut(hash_partition(&v, 4)).push(v);
        }
        let shuffled = shuffle_by_key(parts, |v| *v);
        assert_eq!(shuffled.moved, 0);
    }

    #[test]
    fn round_robin_input_mostly_moves() {
        let input = Partitions::round_robin((0u64..1000).collect(), 4);
        let shuffled = shuffle_by_key(input, |v| *v);
        // Statistically ~3/4 of records change partition.
        assert!(shuffled.moved > 500, "moved only {}", shuffled.moved);
    }

    #[test]
    fn reference_shuffle_matches_the_moving_shuffle() {
        let input = Partitions::round_robin((0u64..200).collect(), 3);
        let by_refs = shuffle_refs(&input, |v| *v % 17);
        let by_move = shuffle_by_key(input.clone(), |v| *v % 17);
        assert_eq!(by_refs.moved, by_move.moved);
        let copied: Vec<Vec<u64>> = by_refs
            .parts
            .into_parts()
            .into_iter()
            .map(|p| p.into_iter().copied().collect())
            .collect();
        assert_eq!(copied, by_move.parts.into_parts());
    }

    #[test]
    fn broadcast_replicates_everywhere() {
        let input = Partitions::round_robin(vec![1u32, 2, 3], 2);
        let b = broadcast(&input, 4);
        assert_eq!(b.parts.num_partitions(), 4);
        for (_, records) in b.parts.iter() {
            // Flattening visits partition 0 ([1, 3]) before partition 1 ([2]).
            assert_eq!(records, &[1, 3, 2]);
        }
        assert_eq!(b.moved, 3 * 3);
    }

    #[test]
    fn single_partition_shuffle_is_free() {
        let input = Partitions::round_robin((0u64..10).collect(), 1);
        let shuffled = shuffle_by_key(input, |v| *v);
        assert_eq!(shuffled.moved, 0);
        assert_eq!(shuffled.parts.num_partitions(), 1);
    }
}
