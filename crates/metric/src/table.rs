//! A slotted in-memory object table with tombstoned removal.
//!
//! Every in-memory index of the paper keeps "the real data" in a separate
//! object table (§4.1: "we only store the identifiers in the tree
//! structures, and store the objects in a separate table"). Ids are slot
//! positions and stay stable until removal.

use crate::chunked::ChunkedVec;
use crate::stats::ObjId;

/// Slotted object storage with stable ids.
///
/// Slots live in a copy-on-write [`ChunkedVec`] of
/// [`CHUNK_SLOTS`](Self::CHUNK_SLOTS) slots: cloning a table (an index
/// fork) shares every chunk, and a push or removal copies at most the one
/// chunk it writes — including clones of that chunk's objects.
#[derive(Clone, Debug)]
pub struct ObjTable<O> {
    slots: ChunkedVec<Option<O>>,
    live: usize,
}

impl<O> Default for ObjTable<O> {
    fn default() -> Self {
        ObjTable::empty()
    }
}

impl<O> ObjTable<O> {
    /// Slots per chunk: the unit a fork's first write to a region copies
    /// (objects included, so smaller than the plain-data chunks).
    pub const CHUNK_SLOTS: usize = 1024;

    /// Builds a table from initial objects; ids are `0..n`.
    pub fn new(objects: Vec<O>) -> Self {
        ObjTable {
            live: objects.len(),
            slots: ChunkedVec::from_vec(Self::CHUNK_SLOTS, objects.into_iter().map(Some).collect()),
        }
    }

    /// An empty table.
    pub fn empty() -> Self {
        ObjTable {
            slots: ChunkedVec::new(Self::CHUNK_SLOTS),
            live: 0,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots. This **includes tombstones**: removal never shrinks
    /// the slot vector (ids are slot positions and must stay stable), so
    /// `slots() >= len()` always, with equality only while nothing has been
    /// removed. Use [`len`](Self::len) for the live count.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The object at `id`, if live.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&O> {
        self.slots.get(id as usize).and_then(|s| s.as_ref())
    }

    /// Iterates `(id, object)` over live slots in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &O)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|o| (i as ObjId, o)))
    }

    /// Linear lookup of an id, mimicking indexes whose deletion requires a
    /// sequential scan (paper §6.3 on LAESA/EPT*/CPT). Returns the number of
    /// slots visited and whether the id is live.
    pub fn scan_for(&self, id: ObjId) -> (usize, bool) {
        for (visited, (i, s)) in self.slots.iter().enumerate().enumerate() {
            if i as ObjId == id {
                return (visited + 1, s.is_some());
            }
        }
        (self.slots.len(), false)
    }
}

impl<O: Clone> ObjTable<O> {
    /// Appends an object, returning its id.
    pub fn push(&mut self, o: O) -> ObjId {
        self.slots.push(Some(o));
        self.live += 1;
        (self.slots.len() - 1) as ObjId
    }

    /// Tombstones `id`; returns the object if it was live.
    pub fn remove(&mut self, id: ObjId) -> Option<O> {
        self.get(id)?;
        let o = self.slots.get_mut(id as usize).take();
        self.live -= 1;
        o
    }

    /// Drops every tombstoned slot, re-adding the live objects in `keep`
    /// order (old slot ids) so that old slot `keep[i]` becomes new slot
    /// `i` — the engine-level compaction path, where `keep` is the shard's
    /// surviving members in ascending global-id order (exactly the slot
    /// order a from-scratch rebuild over the survivors would produce).
    /// Panics if any `keep` entry is not live or a live slot is omitted.
    pub fn compact(&mut self, keep: &[ObjId]) {
        assert_eq!(
            keep.len(),
            self.live,
            "compaction must keep every live slot"
        );
        let mut old =
            std::mem::replace(&mut self.slots, ChunkedVec::new(Self::CHUNK_SLOTS)).into_vec();
        self.slots = ChunkedVec::from_vec(
            Self::CHUNK_SLOTS,
            keep.iter()
                .map(|&id| {
                    Some(
                        old[id as usize]
                            .take()
                            .expect("compaction keeps only live slots"),
                    )
                })
                .collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_remove() {
        let mut t = ObjTable::new(vec!["a", "b"]);
        assert_eq!(t.len(), 2);
        let id = t.push("c");
        assert_eq!(id, 2);
        assert_eq!(t.get(1), Some(&"b"));
        assert_eq!(t.remove(1), Some("b"));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.get(1), None);
        assert_eq!(t.len(), 2);
        let ids: Vec<_> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn compact_drops_tombstones_in_keep_order() {
        let mut t = ObjTable::new(vec!["a", "b", "c", "d"]);
        t.remove(1);
        assert_eq!(t.slots(), 4, "slots() includes the tombstone");
        assert_eq!(t.len(), 3);
        // Keep order need not be slot order (post-recluster shards sort by
        // global id).
        t.compact(&[0, 3, 2]);
        assert_eq!(t.slots(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), Some(&"a"));
        assert_eq!(t.get(1), Some(&"d"));
        assert_eq!(t.get(2), Some(&"c"));
    }

    #[test]
    #[should_panic]
    fn compact_rejects_dead_slots() {
        let mut t = ObjTable::new(vec!["a", "b"]);
        t.remove(0);
        t.compact(&[0]);
    }

    #[test]
    fn scan_for_costs() {
        let t = ObjTable::new(vec![0, 1, 2, 3]);
        assert_eq!(t.scan_for(2), (3, true));
        assert_eq!(t.scan_for(99), (4, false));
    }
}
