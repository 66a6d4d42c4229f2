//! One partition of a sharded dataset: an index plus the local→global id
//! mapping.

use crate::merge::TopK;
use pmi_metric::{
    ChunkedVec, Counters, MetricIndex, Neighbor, ObjId, QueryScratch, StorageFootprint,
};

/// One shard: any [`MetricIndex`] over a disjoint partition of the dataset,
/// plus the mapping from the index's local object ids back to global
/// dataset ids.
///
/// Local ids are whatever the wrapped index assigned at insertion time
/// (positions in its object table); the shard records the global id for
/// each local slot so merged answers always speak global ids.
pub struct Shard<O> {
    index: Box<dyn MetricIndex<O>>,
    /// Local id → global id, copy-on-write chunked so a fork shares it.
    /// Slots keep their last value after a removal; they are overwritten
    /// if the index reuses the local id.
    global_ids: ChunkedVec<ObjId>,
}

/// Local slots per chunk of a shard's local→global table.
const GLOBAL_ID_CHUNK: usize = 4096;

impl<O> Shard<O> {
    /// Wraps a freshly built index whose insertion order matched
    /// `global_ids` (i.e. local id `i` holds the object with global id
    /// `global_ids[i]`).
    pub fn new(index: Box<dyn MetricIndex<O>>, global_ids: Vec<ObjId>) -> Self {
        debug_assert_eq!(index.len(), global_ids.len());
        Shard {
            index,
            global_ids: ChunkedVec::from_vec(GLOBAL_ID_CHUNK, global_ids),
        }
    }

    /// Number of live objects in this shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The wrapped index (for name / storage inspection).
    pub fn index(&self) -> &dyn MetricIndex<O> {
        self.index.as_ref()
    }

    /// Translates a local id to its global id.
    #[inline]
    pub fn global_id(&self, local: ObjId) -> ObjId {
        self.global_ids[local as usize]
    }

    /// The full local→global slot table, **including stale slots**: a slot
    /// keeps its last global id after a removal, so only the engine's
    /// locator can say whether slot `i` still speaks for a live member of
    /// this shard. Lets the engine walk one shard's members without
    /// scanning the whole dataset.
    pub fn global_ids(&self) -> &ChunkedVec<ObjId> {
        &self.global_ids
    }

    /// Range query answered in global ids: appends the (unsorted) answers
    /// to `out`, all transient state in `scratch`.
    pub fn range_global_into(
        &self,
        q: &O,
        radius: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjId>,
    ) {
        let start = out.len();
        self.index.range_query_into(q, radius, scratch, out);
        for id in &mut out[start..] {
            *id = self.global_ids[*id as usize];
        }
    }

    /// Local top-k offered into a global [`TopK`] collector: the shard's
    /// local top-k lands in the reused `tmp` buffer and is offered into
    /// `topk` under global ids. `seed` is the collector's threshold
    /// *before* this shard is probed
    /// ([`TopK::threshold`](crate::merge::TopK::threshold)) — when the
    /// caller probes shards in sequence, passing it lets the index skip
    /// (and never verify) candidates the merge would reject anyway, with
    /// byte-identical merged results (see
    /// [`MetricIndex::knn_query_into_seeded`]). Pass `f64::INFINITY` to
    /// run unseeded.
    pub fn knn_into_with(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        tmp: &mut Vec<Neighbor>,
        topk: &mut TopK,
    ) {
        tmp.clear();
        self.index.knn_query_into_seeded(q, k, seed, scratch, tmp);
        for n in tmp.drain(..) {
            topk.offer(Neighbor::new(self.global_id(n.id), n.dist));
        }
    }

    /// Inserts an object carrying a global id; records the mapping.
    pub fn insert(&mut self, o: O, global: ObjId) -> ObjId {
        let local = self.index.insert(o);
        self.note_mapping(local, global);
        local
    }

    /// Inserts an object whose pivot row the engine already staged in the
    /// shared matrix at shared row `row` (distances in `row_data`):
    /// matrix-adopting indexes take the row by id (no remap); everything
    /// else falls back to a plain [`insert`](Self::insert).
    pub fn insert_adopted(&mut self, o: O, global: ObjId, row: ObjId, row_data: &[f64]) -> ObjId {
        match self.index.insert_adopted(o, row, row_data) {
            Ok(local) => {
                self.note_mapping(local, global);
                local
            }
            Err(o) => self.insert(o, global),
        }
    }

    /// Re-fetches the wrapped index's adopted matrix snapshot after the
    /// engine published staged rows (no-op for non-adopting kinds).
    pub fn refresh_rows(&mut self) {
        self.index.refresh_rows();
    }

    /// Engine-level compaction of the wrapped index: `keep` are the old
    /// local ids of this shard's survivors (ascending global id), `rows`
    /// their row ids in the freshly compacted shared matrix — which are
    /// also their new global ids, so a successful compaction replaces the
    /// local→global table wholesale. Returns whether the index compacted
    /// (non-adopting kinds keep their tombstones; only the live slots'
    /// global ids are remapped then).
    pub fn compact_rows(&mut self, keep: &[ObjId], rows: &[ObjId]) -> bool {
        if self.index.compact_rows(keep, rows) {
            self.global_ids = ChunkedVec::from_vec(GLOBAL_ID_CHUNK, rows.to_vec());
            true
        } else {
            for (&local, &gid) in keep.iter().zip(rows) {
                self.global_ids.set(local as usize, gid);
            }
            false
        }
    }

    fn note_mapping(&mut self, local: ObjId, global: ObjId) {
        let slot = local as usize;
        if slot == self.global_ids.len() {
            self.global_ids.push(global);
        } else if slot < self.global_ids.len() {
            self.global_ids.set(slot, global);
        } else {
            while self.global_ids.len() < slot {
                self.global_ids.push(ObjId::MAX);
            }
            self.global_ids.push(global);
        }
    }

    /// Removes by local id.
    pub fn remove_local(&mut self, local: ObjId) -> bool {
        self.index.remove(local)
    }

    /// Fetches a copy of a live object by local id.
    pub fn get_local(&self, local: ObjId) -> Option<O> {
        self.index.get(local)
    }

    /// Cost counter snapshot of the wrapped index.
    pub fn counters(&self) -> Counters {
        self.index.counters()
    }

    /// Resets the wrapped index's counters.
    pub fn reset_counters(&self) {
        self.index.reset_counters()
    }

    /// Storage footprint of the wrapped index.
    pub fn storage(&self) -> StorageFootprint {
        self.index.storage()
    }

    /// Forwards the page-cache knob to the wrapped index.
    pub fn set_page_cache(&self, bytes: usize) {
        self.index.set_page_cache(bytes)
    }

    /// Whether [`fork`](Self::fork) is supported by the wrapped index —
    /// the gate for the engine's copy-on-write apply transaction and for
    /// vending concurrent readers.
    pub fn forkable(&self) -> bool {
        self.index.forkable()
    }

    /// An independent copy of this shard for copy-on-write mutation (see
    /// [`MetricIndex::fork`]): byte-identical answers at fork time, a
    /// **shared** distance counter, and an independently mutable slot
    /// table whose chunks stay shared until written. `None` when the
    /// wrapped index kind does not support forking.
    pub fn fork(&self) -> Option<Shard<O>> {
        Some(Shard {
            index: self.index.fork()?,
            global_ids: self.global_ids.clone(),
        })
    }
}

/// One partition awaiting its index: the objects plus their global ids.
pub type Partition<O> = (Vec<O>, Vec<ObjId>);

/// Splits `objects` into `shards` balanced, geometry-agnostic partitions
/// (the "round-robin" baseline policy), returning each partition together
/// with the global ids of its objects (the positions in the input vector).
pub fn partition_round_robin<O>(objects: Vec<O>, shards: usize) -> Vec<Partition<O>> {
    let shards = shards.max(1);
    let n = objects.len();
    // Balanced *contiguous* runs rather than a stride: shard s takes the
    // next ⌈n/P⌉-or-⌊n/P⌋ ids in order. The split is just as
    // geometry-agnostic as a stride, but consecutive global ids keep every
    // shard's matrix slice one consecutive run, so the Lemma 1 kernel
    // streams contiguous storage instead of gathering rows strided P·l
    // apart — a stride makes each shard's scan touch one cache line per
    // row across the *whole* shared matrix, multiplying a batch's line
    // traffic by the shard count. (Compaction renumbers survivors in
    // global-id order, so contiguity also survives churn+compact.)
    let mut parts: Vec<Partition<O>> = Vec::with_capacity(shards);
    let mut next = 0usize;
    let mut iter = objects.into_iter();
    for s in 0..shards {
        let take = n / shards + usize::from(s < n % shards);
        let mut objs = Vec::with_capacity(take);
        let mut ids = Vec::with_capacity(take);
        for _ in 0..take {
            objs.push(iter.next().expect("sizes sum to n"));
            ids.push(next as ObjId);
            next += 1;
        }
        parts.push((objs, ids));
    }
    parts
}

/// Splits `objects` into `shards` partitions according to an explicit
/// per-object shard assignment (the router's pivot-space clustering),
/// preserving input order within each partition so global ids stay the
/// positions in the input vector.
pub fn partition_by_assignment<O>(
    objects: Vec<O>,
    assignment: &[usize],
    shards: usize,
) -> Vec<Partition<O>> {
    assert_eq!(
        objects.len(),
        assignment.len(),
        "one shard assignment per object"
    );
    let shards = shards.max(1);
    let mut parts: Vec<Partition<O>> = (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
    for (i, o) in objects.into_iter().enumerate() {
        let s = assignment[i];
        parts[s].0.push(o);
        parts[s].1.push(i as ObjId);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::{BruteForce, L2};

    #[test]
    fn assignment_partitioning_preserves_order() {
        let objects: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32]).collect();
        let parts = partition_by_assignment(objects, &[1, 0, 1, 1, 0, 2], 3);
        assert_eq!(parts[0].1, vec![1, 4]);
        assert_eq!(parts[1].1, vec![0, 2, 3]);
        assert_eq!(parts[2].1, vec![5]);
        assert_eq!(parts[1].0[1], vec![2.0f32]);
    }

    #[test]
    fn round_robin_covers_everything_disjointly() {
        let objects: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32]).collect();
        let parts = partition_round_robin(objects, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].1, vec![0, 1, 2, 3]);
        assert_eq!(parts[1].1, vec![4, 5, 6]);
        assert_eq!(parts[2].1, vec![7, 8, 9]);
        // Contiguous runs: each shard's ids are consecutive, so its matrix
        // slice takes the streaming (no-gather) kernel path.
        for (_, ids) in &parts {
            assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
        }
        let mut all: Vec<u32> = parts.iter().flat_map(|(_, ids)| ids.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_shards_than_objects() {
        let objects: Vec<Vec<f32>> = (0..2).map(|i| vec![i as f32]).collect();
        let parts = partition_round_robin(objects, 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts.iter().map(|(o, _)| o.len()).sum::<usize>(), 2);
    }

    #[test]
    fn shard_speaks_global_ids() {
        // Shard holds objects with global ids 4, 9, 14.
        let objs = vec![vec![0.0f32], vec![10.0], vec![20.0]];
        let idx = Box::new(BruteForce::new(objs.clone(), L2));
        let shard = Shard::new(idx as Box<dyn MetricIndex<_>>, vec![4, 9, 14]);
        let mut qs = QueryScratch::new();
        let mut hits = Vec::new();
        shard.range_global_into(&vec![0.0f32], 10.5, &mut qs, &mut hits);
        hits.sort_unstable();
        assert_eq!(hits, vec![4, 9]);
        let mut topk = TopK::new(2);
        let seed = f64::INFINITY;
        shard.knn_into_with(&vec![21.0f32], 2, seed, &mut qs, &mut Vec::new(), &mut topk);
        let got = topk.into_sorted();
        assert_eq!(got[0].id, 14);
        assert_eq!(got[1].id, 9);
    }

    #[test]
    fn insert_extends_mapping() {
        let idx = Box::new(BruteForce::new(vec![vec![0.0f32]], L2));
        let mut shard = Shard::new(idx as Box<dyn MetricIndex<_>>, vec![7]);
        shard.insert(vec![5.0f32], 42);
        assert_eq!(shard.len(), 2);
        let mut hits = Vec::new();
        shard.range_global_into(&vec![5.0f32], 0.1, &mut QueryScratch::new(), &mut hits);
        assert_eq!(hits, vec![42]);
    }
}
