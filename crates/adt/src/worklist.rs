//! Worklists for fixpoint solvers.
//!
//! Both worklists deduplicate membership: pushing an element already
//! queued is a no-op (the *in-queue guard*). [`FifoWorklist`] pops in
//! insertion order. [`Worklist`] pops the element with the smallest rank
//! first, FIFO within a rank, and counts its traffic; the flow-sensitive
//! solvers rank elements by the topological number of their SCC in a
//! dependence graph, which makes their fixpoints converge in far fewer
//! visits.

use crate::index::Idx;
use std::collections::VecDeque;

/// FIFO worklist with O(1) membership dedup.
///
/// # Examples
///
/// ```
/// use vsfs_adt::FifoWorklist;
///
/// let mut wl: FifoWorklist<usize> = FifoWorklist::new(10);
/// assert!(wl.push(3));
/// assert!(!wl.push(3)); // already queued
/// assert_eq!(wl.pop(), Some(3));
/// assert!(wl.push(3)); // may be re-queued after popping
/// ```
#[derive(Debug, Clone)]
pub struct FifoWorklist<I> {
    queue: VecDeque<I>,
    queued: Vec<bool>,
}

impl<I: Idx> FifoWorklist<I> {
    /// Creates a worklist for elements with indices `< capacity`.
    pub fn new(capacity: usize) -> Self {
        FifoWorklist { queue: VecDeque::new(), queued: vec![false; capacity] }
    }

    /// Enqueues `item` unless already queued; returns `true` if enqueued.
    pub fn push(&mut self, item: I) -> bool {
        let i = item.index();
        if i >= self.queued.len() {
            self.queued.resize(i + 1, false);
        }
        if self.queued[i] {
            return false;
        }
        self.queued[i] = true;
        self.queue.push_back(item);
        true
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<I> {
        let item = self.queue.pop_front()?;
        self.queued[item.index()] = false;
        Some(item)
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Counters describing one worklist's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorklistStats {
    /// Successful enqueues.
    pub pushes: usize,
    /// Enqueues suppressed by the in-queue guard (element already queued).
    pub suppressed: usize,
    /// Dequeues.
    pub pops: usize,
}

/// Bucketed min-priority worklist with membership dedup and traffic
/// counters.
///
/// Elements are popped in ascending rank order, FIFO within a rank, so
/// the pop sequence is fully deterministic: it depends only on the rank
/// table and the push sequence, never on element hash or heap layout.
/// Ranks are dense bucket indices (one `VecDeque` per rank), so push and
/// pop are O(1) amortised — the scan cursor only moves backwards when a
/// push lands below it, which data-flow solvers do exactly when a cycle
/// forces re-iteration.
///
/// Typical use: ranks are topological numbers of SCCs in a dependence
/// graph (see `vsfs_graph::Tarjan::ranks`), which makes a fixpoint
/// visit producers before consumers.
///
/// # Examples
///
/// ```
/// use vsfs_adt::Worklist;
///
/// let mut wl: Worklist<usize> = Worklist::new(vec![2, 0, 1]);
/// wl.push(0);
/// wl.push(1);
/// wl.push(2);
/// wl.push(0); // suppressed by the in-queue guard
/// assert_eq!(wl.pop(), Some(1)); // rank 0
/// assert_eq!(wl.pop(), Some(2)); // rank 1
/// assert_eq!(wl.pop(), Some(0)); // rank 2
/// assert_eq!(wl.stats().suppressed, 1);
/// assert_eq!(wl.stats().pops, 3);
/// ```
#[derive(Debug, Clone)]
pub struct Worklist<I> {
    /// One FIFO bucket per rank.
    buckets: Vec<VecDeque<I>>,
    rank: Vec<u32>,
    /// In-queue guard: element present in some bucket.
    queued: Vec<bool>,
    /// Occupancy bitmap: bit `r` of `occ0[r / 64]` set iff bucket `r` is
    /// non-empty.
    occ0: Vec<u64>,
    /// Summary: bit `w` of `occ1[w / 64]` set iff `occ0[w] != 0`. Two
    /// levels keep the min-bucket search near O(1): a fixpoint drains
    /// buckets in long sparse runs, and a flat cursor scan over them is
    /// quadratic in practice (re-walked after every re-arm of the list).
    occ1: Vec<u64>,
    /// Lowest `occ1` word that may be non-zero.
    min_w1: usize,
    len: usize,
    stats: WorklistStats,
}

impl<I: Idx> Worklist<I> {
    /// Creates a worklist where element `i` has rank `rank[i]`.
    pub fn new(rank: Vec<u32>) -> Self {
        let n = rank.len();
        let bucket_count = rank.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        let w0 = bucket_count.div_ceil(64);
        let w1 = w0.div_ceil(64);
        Worklist {
            buckets: (0..bucket_count).map(|_| VecDeque::new()).collect(),
            rank,
            queued: vec![false; n],
            occ0: vec![0; w0],
            occ1: vec![0; w1],
            min_w1: w1,
            len: 0,
            stats: WorklistStats::default(),
        }
    }

    /// Enqueues `item` unless already queued; returns `true` if enqueued.
    ///
    /// # Panics
    ///
    /// Panics if `item`'s index is out of range of the rank table.
    pub fn push(&mut self, item: I) -> bool {
        let i = item.index();
        if self.queued[i] {
            self.stats.suppressed += 1;
            return false;
        }
        self.queued[i] = true;
        let r = self.rank[i] as usize;
        self.buckets[r].push_back(item);
        self.occ0[r / 64] |= 1 << (r % 64);
        self.occ1[r / 4096] |= 1 << ((r / 64) % 64);
        self.min_w1 = self.min_w1.min(r / 4096);
        self.len += 1;
        self.stats.pushes += 1;
        true
    }

    /// Dequeues the oldest item of the smallest non-empty rank, if any.
    pub fn pop(&mut self) -> Option<I> {
        if self.len == 0 {
            self.min_w1 = self.occ1.len();
            return None;
        }
        while self.occ1[self.min_w1] == 0 {
            self.min_w1 += 1;
        }
        let w0 = self.min_w1 * 64 + self.occ1[self.min_w1].trailing_zeros() as usize;
        let r = w0 * 64 + self.occ0[w0].trailing_zeros() as usize;
        let item = self.buckets[r].pop_front().expect("occupancy bit set for empty bucket");
        if self.buckets[r].is_empty() {
            self.occ0[w0] &= !(1 << (r % 64));
            if self.occ0[w0] == 0 {
                self.occ1[self.min_w1] &= !(1 << (w0 % 64));
            }
        }
        self.queued[item.index()] = false;
        self.len -= 1;
        self.stats.pops += 1;
        Some(item)
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The traffic counters so far.
    pub fn stats(&self) -> WorklistStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_dedups_until_pop() {
        let mut wl: FifoWorklist<usize> = FifoWorklist::new(4);
        assert!(wl.push(1));
        assert!(wl.push(2));
        assert!(!wl.push(1));
        assert_eq!(wl.len(), 2);
        assert_eq!(wl.pop(), Some(1));
        assert!(wl.push(1));
        assert_eq!(wl.pop(), Some(2));
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), None);
        assert!(wl.is_empty());
    }

    #[test]
    fn fifo_grows_beyond_capacity() {
        let mut wl: FifoWorklist<usize> = FifoWorklist::new(1);
        assert!(wl.push(100));
        assert_eq!(wl.pop(), Some(100));
    }

    #[test]
    fn priority_orders_by_rank_not_insertion() {
        let mut wl: Worklist<usize> = Worklist::new(vec![5, 1, 3]);
        wl.push(0);
        wl.push(2);
        wl.push(1);
        assert!(!wl.push(1));
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), Some(2));
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn priority_is_fifo_within_a_rank() {
        let mut wl: Worklist<usize> = Worklist::new(vec![1, 0, 1, 1]);
        wl.push(3);
        wl.push(0);
        wl.push(2);
        wl.push(1);
        assert_eq!(wl.pop(), Some(1), "rank 0 first");
        // Rank 1 pops in push order, not index order.
        assert_eq!(wl.pop(), Some(3));
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), Some(2));
        assert!(wl.is_empty());
    }

    #[test]
    fn priority_cursor_rewinds_on_low_rank_push() {
        let mut wl: Worklist<usize> = Worklist::new(vec![0, 1, 2]);
        wl.push(2);
        assert_eq!(wl.pop(), Some(2)); // cursor now at rank 2
        wl.push(0); // rank 0: cursor must rewind
        wl.push(1);
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), None);
        // Re-queue after popping is allowed, like the FIFO list.
        assert!(wl.push(1));
        assert_eq!(wl.pop(), Some(1));
    }

    #[test]
    fn priority_handles_empty_rank_table() {
        let mut wl: Worklist<usize> = Worklist::new(Vec::new());
        assert!(wl.is_empty());
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn priority_counts_traffic() {
        let mut wl: Worklist<usize> = Worklist::new(vec![0, 1, 2]);
        assert!(wl.push(1));
        assert!(wl.push(2));
        assert!(!wl.push(1));
        assert_eq!(wl.len(), 2);
        assert!(!wl.is_empty());
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), Some(2));
        assert_eq!(wl.pop(), None);
        assert_eq!(wl.stats(), WorklistStats { pushes: 2, suppressed: 1, pops: 2 });
    }
}
