//! Merging partial answers: global top-k via a bounded binary heap, range
//! unions, and the lane partials of a split query.

use crate::query::{Query, QueryResult};
use crate::robust::Degraded;
use pmi_metric::Neighbor;
use std::collections::BinaryHeap;

/// A bounded max-heap keeping the `k` smallest [`Neighbor`]s seen so far —
/// exactly the structure the paper's best-first MkNNQ traversals maintain,
/// reused here to merge per-shard top-k lists into the global top-k.
///
/// Ordering follows [`Neighbor`]'s total order `(distance, id)`, so merges
/// are deterministic even across equal distances.
#[derive(Debug, Default)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// An empty collector for the `k` nearest. `k = 0` collects nothing.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(4096)),
        }
    }

    /// Offers a candidate, evicting the current worst if over capacity.
    #[inline]
    pub fn offer(&mut self, n: Neighbor) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(n);
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.push(n);
                self.heap.pop();
            }
        }
    }

    /// Offers every neighbor of a per-shard partial result.
    pub fn offer_all(&mut self, partial: impl IntoIterator<Item = Neighbor>) {
        for n in partial {
            self.offer(n);
        }
    }

    /// Current pruning threshold: the k-th best distance, or `+∞` while the
    /// heap is not yet full.
    pub fn threshold(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |n| n.dist)
        }
    }

    /// Number of collected neighbors.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The collected neighbors sorted ascending by `(distance, id)`.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Re-arms the collector for a new query with bound `k`, keeping the
    /// heap's allocation — the reuse hook for the batch-serving hot loop.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Drains the collected neighbors into a fresh exact-size vector sorted
    /// ascending by `(distance, id)`, leaving the collector empty (capacity
    /// intact) for reuse. The only allocation is the returned answer.
    pub fn drain_sorted(&mut self) -> Vec<Neighbor> {
        let mut v = Vec::with_capacity(self.heap.len());
        while let Some(n) = self.heap.pop() {
            v.push(n);
        }
        v.reverse();
        v
    }
}

/// Folds one query's lane partials (in lane order) into its answer and
/// wall. A query that ran whole has one part, returned as is. For a split
/// query the first lane that did not answer (`Failed`/`Shed`) decides;
/// otherwise range ids concatenate and sort once (shards are disjoint),
/// kNN lists merge through one [`TopK`], skipped shards add up under the
/// first skip's reason, and the wall is the slowest lane's.
pub(crate) fn merge_lanes<O>(
    query: &Query<O>,
    parts: &mut [Option<(QueryResult, u64)>],
) -> (QueryResult, u64) {
    let mut parts = parts
        .iter_mut()
        .map(|p| p.take().expect("every task served exactly once"));
    if parts.len() == 1 {
        return parts.next().expect("one part");
    }
    let k = match query {
        Query::Knn { k, .. } => *k,
        Query::Range { .. } => 0,
    };
    let (mut ids, mut topk) = (Vec::new(), TopK::new(k));
    let (mut wall, mut unanswered, mut degraded) = (0, None, None::<Degraded>);
    for (res, ns) in parts {
        wall = wall.max(ns);
        if let QueryResult::PartialRange(_, d) | QueryResult::PartialKnn(_, d) = &res {
            let acc = degraded.get_or_insert(Degraded {
                shards_skipped: 0,
                ..*d
            });
            acc.shards_skipped += d.shards_skipped;
        }
        match res {
            QueryResult::Range(v) | QueryResult::PartialRange(v, _) => ids.extend(v),
            QueryResult::Knn(v) | QueryResult::PartialKnn(v, _) => topk.offer_all(v),
            other => {
                unanswered.get_or_insert(other);
            }
        }
    }
    ids.sort_unstable();
    let res = match (unanswered, query, degraded) {
        (Some(res), ..) => res,
        (None, Query::Range { .. }, None) => QueryResult::Range(ids),
        (None, Query::Range { .. }, Some(d)) => QueryResult::PartialRange(ids, d),
        (None, Query::Knn { .. }, None) => QueryResult::Knn(topk.into_sorted()),
        (None, Query::Knn { .. }, Some(d)) => QueryResult::PartialKnn(topk.into_sorted(), d),
    };
    (res, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32, d: f64) -> Neighbor {
        Neighbor::new(id, d)
    }

    #[test]
    fn keeps_k_smallest() {
        let mut t = TopK::new(3);
        t.offer_all([n(0, 5.0), n(1, 1.0), n(2, 4.0), n(3, 2.0), n(4, 3.0)]);
        let got = t.into_sorted();
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn threshold_tracks_kth() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(n(0, 7.0));
        assert_eq!(t.threshold(), f64::INFINITY);
        t.offer(n(1, 3.0));
        assert_eq!(t.threshold(), 7.0);
        t.offer(n(2, 1.0));
        assert_eq!(t.threshold(), 3.0);
    }

    #[test]
    fn ties_break_by_id() {
        let mut t = TopK::new(2);
        t.offer_all([n(9, 1.0), n(3, 1.0), n(5, 1.0)]);
        let got = t.into_sorted();
        assert_eq!(got.iter().map(|x| x.id).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut t = TopK::new(0);
        t.offer(n(1, 1.0));
        assert!(t.is_empty());
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn lane_partials_merge_once() {
        let range = Query::range(0u8, 1.0);
        let mut parts = [
            Some((QueryResult::Range(vec![7, 1]), 5)),
            Some((QueryResult::Range(vec![]), 9)),
            Some((QueryResult::Range(vec![4, 2]), 3)),
        ];
        let merged = merge_lanes(&range, &mut parts);
        assert_eq!(merged, (QueryResult::Range(vec![1, 2, 4, 7]), 9));
        assert!(parts.iter().all(Option::is_none), "each part taken once");

        let quarantined = Degraded {
            shards_skipped: 1,
            reason: crate::robust::DegradeReason::Quarantined,
        };
        let mut parts = [
            Some((QueryResult::Knn(vec![n(9, 1.0), n(4, 3.0)]), 2)),
            Some((QueryResult::PartialKnn(vec![n(3, 1.0)], quarantined), 2)),
            Some((QueryResult::PartialKnn(vec![], quarantined), 2)),
        ];
        let (res, _) = merge_lanes(&Query::knn(0u8, 2), &mut parts);
        let twice = Degraded {
            shards_skipped: 2,
            ..quarantined
        };
        assert_eq!(
            res,
            QueryResult::PartialKnn(vec![n(3, 1.0), n(9, 1.0)], twice)
        );

        let failed = QueryResult::Failed(crate::robust::QueryError::Panicked { shard: Some(1) });
        let mut parts = [
            Some((QueryResult::Range(vec![3]), 1)),
            Some((failed.clone(), 1)),
        ];
        assert_eq!(merge_lanes(&range, &mut parts).0, failed);
        // A whole query passes through untouched.
        let mut whole = [Some((QueryResult::Shed, 0))];
        assert_eq!(merge_lanes(&range, &mut whole), (QueryResult::Shed, 0));
    }

    #[test]
    fn reset_and_drain_reuse_the_collector() {
        let mut t = TopK::new(2);
        t.offer_all([n(0, 5.0), n(1, 1.0), n(2, 3.0)]);
        let first = t.drain_sorted();
        assert_eq!(first.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(first.capacity(), first.len(), "exact-size answer");
        assert!(t.is_empty());
        t.reset(1);
        t.offer_all([n(7, 9.0), n(8, 2.0)]);
        assert_eq!(t.drain_sorted()[0].id, 8);
    }
}
