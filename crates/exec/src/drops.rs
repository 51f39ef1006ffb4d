//! Cross-batch fault dropping.
//!
//! A fault-simulation campaign drops a fault the moment it is detected:
//! later batches and later calls must never replay it again. Inside one
//! shard that is a local `detected` flag — but a campaign that runs in
//! *stages* (the pattern windows of a streaming campaign) needs the flags
//! to survive between stages and to round-trip through the shard
//! partitioning. [`DropMask`] is that persistent flag set: shards borrow a
//! contiguous snapshot of it on the way in ([`DropMask::shard`]) and merge
//! their updated flags back by range on the way out
//! ([`DropMask::merge_shard`]). Because shards are contiguous index ranges
//! and flags only ever go `false → true`, the merged mask is independent of
//! shard count and completion order — the same determinism contract as the
//! rest of this crate.

use std::ops::Range;

/// Persistent per-fault drop flags for a staged simulation campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DropMask {
    flags: Vec<bool>,
}

impl DropMask {
    /// All-clear mask for `len` faults.
    pub fn new(len: usize) -> Self {
        DropMask {
            flags: vec![false; len],
        }
    }

    /// Number of faults tracked.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True if the mask tracks no faults.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// The full flag slice, indexed by fault id.
    pub fn flags(&self) -> &[bool] {
        &self.flags
    }

    /// True if fault `i` has been dropped.
    pub fn is_dropped(&self, i: usize) -> bool {
        self.flags[i]
    }

    /// Drops fault `i` directly (collapsing, external verdicts).
    pub fn drop_fault(&mut self, i: usize) {
        self.flags[i] = true;
    }

    /// Number of dropped faults.
    pub fn dropped(&self) -> usize {
        self.flags.iter().filter(|&&f| f).count()
    }

    /// Snapshot of the flags for one contiguous shard, to seed a worker's
    /// local `detected` vector.
    pub fn shard(&self, range: Range<usize>) -> Vec<bool> {
        self.flags[range].to_vec()
    }

    /// Merges a shard's updated flags back. Flags are monotone (`false →
    /// true` only): a fault dropped before the shard ran stays dropped even
    /// if the shard's copy went stale.
    ///
    /// # Panics
    ///
    /// Panics if `flags` does not match the range length.
    pub fn merge_shard(&mut self, range: Range<usize>, flags: &[bool]) {
        assert_eq!(range.len(), flags.len(), "shard flag length mismatch");
        let mut newly_dropped = 0u64;
        for (slot, &f) in self.flags[range].iter_mut().zip(flags) {
            newly_dropped += u64::from(f && !*slot);
            *slot |= f;
        }
        if flh_obs::enabled() {
            // Which faults flip is decided by the patterns alone; the
            // per-range merges partition the flag set, so the total is
            // shard-count invariant.
            flh_obs::add(flh_obs::Counter::FaultsDropped, newly_dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn shard_round_trip_is_monotone_and_order_free() {
        let mut mask = DropMask::new(10);
        mask.drop_fault(3);
        assert!(mask.is_dropped(3));
        assert_eq!(mask.dropped(), 1);

        // Two shards, merged in either order, agree with a serial pass.
        let ranges = ThreadPool::partition(10, 2);
        let mut shards: Vec<Vec<bool>> = ranges.iter().map(|r| mask.shard(r.clone())).collect();
        shards[0][1] = true; // fault 1 detected by shard 0
        shards[1][9 - ranges[1].start] = true; // fault 9 detected by shard 1
        for (r, s) in ranges.iter().zip(&shards).rev() {
            mask.merge_shard(r.clone(), s);
        }
        let expected: Vec<bool> = (0..10).map(|i| matches!(i, 1 | 3 | 9)).collect();
        assert_eq!(mask.flags(), expected.as_slice());
        // Merging again (idempotent) and merging stale all-false shards
        // never clears a flag.
        mask.merge_shard(0..10, &vec![false; 10]);
        assert_eq!(mask.flags(), expected.as_slice());
    }

    #[test]
    #[should_panic(expected = "shard flag length mismatch")]
    fn merge_rejects_wrong_length() {
        DropMask::new(4).merge_shard(0..4, &[true]);
    }
}
