//! A timing wheel keyed by absolute cycle.
//!
//! The software form of the paper's shifted per-port bit vectors: instead
//! of shifting every vector each cycle, work is filed under the cycle it
//! falls due, and each cycle visits only its own bucket. The wheel has a
//! power-of-two number of buckets (the *horizon*); an entry remembers its
//! own cycle, so an entry filed beyond the horizon shares a bucket with an
//! earlier cycle but is passed over until its own cycle comes round — it
//! never aliases into the wrong cycle.
//!
//! Draining is tracked with a watermark: [`Calendar::drain_through`]
//! services every cycle from the last drained one up to its argument, so a
//! skipped cycle (a cancelled step) is caught up on the next drain rather
//! than left behind, and an entry filed for an already-drained cycle goes
//! into the next bucket to be drained.

use crate::types::Cycle;

/// A timing wheel of `T` entries keyed by cycle.
///
/// # Examples
///
/// ```
/// use noc::calendar::Calendar;
///
/// let mut cal: Calendar<u32> = Calendar::new(4);
/// cal.insert(2, 7);
/// cal.insert(6, 9); // beyond the horizon: shares bucket 2 but keeps its cycle
/// assert_eq!(cal.due(2).collect::<Vec<_>>(), vec![7]);
/// let mut out = Vec::new();
/// cal.drain_through(5, &mut out);
/// assert_eq!(out, vec![(2, 7)]);
/// assert_eq!(cal.due(6).collect::<Vec<_>>(), vec![9]);
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<T> {
    /// `(cycle, entry)` per bucket, in insertion order.
    buckets: Vec<Vec<(Cycle, T)>>,
    mask: Cycle,
    /// First cycle not yet drained.
    next: Cycle,
}

impl<T: Copy> Calendar<T> {
    /// A wheel covering at least `horizon` consecutive cycles without
    /// sharing a bucket (rounded up to a power of two, at least 1).
    pub fn new(horizon: Cycle) -> Self {
        let n = horizon.max(1).next_power_of_two();
        Calendar {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            mask: n - 1,
            next: 0,
        }
    }

    /// Number of consecutive cycles the wheel holds without two cycles
    /// sharing a bucket.
    pub fn horizon(&self) -> Cycle {
        self.mask + 1
    }

    #[inline]
    fn bucket(&self, cycle: Cycle) -> usize {
        // Lossless: the mask is below the bucket count, a `usize`.
        (cycle & self.mask) as usize
    }

    /// Files `entry` under `cycle`. An already-drained cycle is filed
    /// into the next bucket to drain, so the next
    /// [`Calendar::drain_through`] still returns it.
    // hot
    pub fn insert(&mut self, cycle: Cycle, entry: T) {
        let b = self.bucket(cycle.max(self.next));
        self.buckets[b].push((cycle, entry));
    }

    /// The entries filed under exactly `cycle`, in insertion order.
    /// `cycle` must not be drained yet.
    // hot
    pub fn due(&self, cycle: Cycle) -> impl Iterator<Item = T> + '_ {
        self.buckets[self.bucket(cycle)]
            .iter()
            .filter(move |&&(c, _)| c == cycle)
            .map(|&(_, e)| e)
    }

    /// Moves every entry filed under a cycle `<= through` into `out` (as
    /// `(cycle, entry)`, bucket by bucket in cycle order) and marks every
    /// cycle up to `through` drained. Entries for later cycles that share
    /// a serviced bucket stay put.
    // hot
    pub fn drain_through(&mut self, through: Cycle, out: &mut Vec<(Cycle, T)>) {
        if through < self.next {
            return;
        }
        // A gap as long as the wheel visits every bucket exactly once.
        let span = (through - self.next + 1).min(self.horizon());
        for c in self.next..self.next + span {
            let b = self.bucket(c);
            let bucket = &mut self.buckets[b];
            let mut keep = 0;
            for i in 0..bucket.len() {
                let e = bucket[i];
                if e.0 <= through {
                    out.push(e);
                } else {
                    bucket[keep] = e;
                    keep += 1;
                }
            }
            bucket.truncate(keep);
        }
        self.next = through + 1;
    }

    /// Whether no entry is filed.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(cal: &mut Calendar<u8>, through: Cycle) -> Vec<(Cycle, u8)> {
        let mut out = Vec::new();
        cal.drain_through(through, &mut out);
        out
    }

    #[test]
    fn horizon_rounds_up_to_a_power_of_two() {
        assert_eq!(Calendar::<u8>::new(0).horizon(), 1);
        assert_eq!(Calendar::<u8>::new(5).horizon(), 8);
        assert_eq!(Calendar::<u8>::new(8).horizon(), 8);
    }

    #[test]
    fn entries_come_due_at_their_own_cycle_only() {
        let mut cal = Calendar::new(4);
        cal.insert(1, 1);
        cal.insert(5, 2); // same bucket as cycle 1
        cal.insert(9, 3); // same bucket again, two wraps out
        assert_eq!(cal.due(1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(drained(&mut cal, 1), vec![(1, 1)]);
        assert_eq!(cal.due(5).collect::<Vec<_>>(), vec![2]);
        assert_eq!(drained(&mut cal, 4), vec![]);
        assert_eq!(drained(&mut cal, 5), vec![(5, 2)]);
        assert_eq!(drained(&mut cal, 8), vec![]);
        assert_eq!(drained(&mut cal, 9), vec![(9, 3)]);
        assert!(cal.is_empty());
    }

    #[test]
    fn skipped_cycles_are_caught_up_not_aliased() {
        let mut cal = Calendar::new(4);
        cal.insert(2, 1);
        cal.insert(3, 2);
        cal.insert(12, 3);
        // Cycles 0..=10 drained in one call (a gap longer than the wheel):
        // every past entry comes out once, in cycle order; the future one
        // stays for its own cycle.
        assert_eq!(drained(&mut cal, 10), vec![(2, 1), (3, 2)]);
        assert_eq!(cal.due(12).collect::<Vec<_>>(), vec![3]);
        assert_eq!(drained(&mut cal, 12), vec![(12, 3)]);
    }

    #[test]
    fn late_entries_go_to_the_next_drain() {
        let mut cal = Calendar::new(4);
        assert_eq!(drained(&mut cal, 6), vec![]);
        cal.insert(3, 7); // cycle 3 already drained
        assert_eq!(cal.due(7).count(), 0, "filed late, due at no later cycle");
        assert_eq!(drained(&mut cal, 7), vec![(3, 7)]);
    }
}
