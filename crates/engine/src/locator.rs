//! The engine's locator: global id → (shard, local slot).

use pmi_metric::{ChunkedVec, ObjId};

/// Tombstone entry: the global id is not live.
const DEAD: (u32, ObjId) = (u32::MAX, ObjId::MAX);

/// Entries per copy-on-write chunk (32 KiB).
const CHUNK: usize = 4096;

/// A dense table indexed by global id. Global ids are handed out densely —
/// `0..n` at build, the next id per insert, and a dense renumbering at
/// compaction — so the id *is* the position, and a removed id keeps a
/// tombstone. On matrix-bearing engines the global id also equals the
/// shared matrix row id.
///
/// The entries live in a [`ChunkedVec`]: an apply transaction clones the
/// locator in `O(n / CHUNK)` and each write copies at most one chunk.
#[derive(Clone, Debug)]
pub(crate) struct Locator {
    entries: ChunkedVec<(u32, ObjId)>,
}

impl Default for Locator {
    fn default() -> Self {
        Locator {
            entries: ChunkedVec::new(CHUNK),
        }
    }
}

impl Locator {
    /// A locator over global ids `0..n` whose shards list their members'
    /// global ids in local-slot order: `members[s][local]` is the global
    /// id at shard `s`, slot `local`. Ids no shard lists stay dead.
    pub(crate) fn from_members<'a, G>(
        n: usize,
        members: impl IntoIterator<Item = (usize, G)>,
    ) -> Self
    where
        G: IntoIterator<Item = &'a ObjId>,
    {
        let mut entries = vec![DEAD; n];
        for (s, gids) in members {
            for (local, &gid) in gids.into_iter().enumerate() {
                entries[gid as usize] = (s as u32, local as ObjId);
            }
        }
        Locator {
            entries: ChunkedVec::from_vec(CHUNK, entries),
        }
    }

    /// The global id the next insert receives (every id below it has been
    /// handed out).
    pub(crate) fn next_id(&self) -> ObjId {
        self.entries.len() as ObjId
    }

    /// Shard and local slot of a live global id.
    #[inline]
    pub(crate) fn get(&self, gid: ObjId) -> Option<(usize, ObjId)> {
        match self.entries.get(gid as usize) {
            Some(&(s, local)) if (s, local) != DEAD => Some((s as usize, local)),
            _ => None,
        }
    }

    /// Hands out the next global id, located at shard `s`, slot `local`.
    pub(crate) fn push(&mut self, s: usize, local: ObjId) -> ObjId {
        self.entries.push((s as u32, local));
        self.next_id() - 1
    }

    /// Moves a live global id to shard `s`, slot `local`.
    pub(crate) fn set(&mut self, gid: ObjId, s: usize, local: ObjId) {
        debug_assert!(self.get(gid).is_some(), "moving a dead global id");
        self.entries.set(gid as usize, (s as u32, local));
    }

    /// Tombstones a live global id, returning where it was.
    pub(crate) fn remove(&mut self, gid: ObjId) -> Option<(usize, ObjId)> {
        let at = self.get(gid)?;
        self.entries.set(gid as usize, DEAD);
        Some(at)
    }

    /// Live global ids with their location, ascending.
    pub(crate) fn live(&self) -> impl Iterator<Item = (ObjId, usize, ObjId)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e != DEAD)
            .map(|(gid, &(s, local))| (gid as ObjId, s as usize, local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_tombstones_and_moves() {
        let a: [ObjId; 2] = [0, 2];
        let b: [ObjId; 1] = [1];
        let mut l = Locator::from_members(3, [(0, &a[..]), (1, &b[..])]);
        assert_eq!(l.next_id(), 3);
        assert_eq!(l.get(2), Some((0, 1)));
        assert_eq!(l.get(1), Some((1, 0)));
        assert_eq!(l.push(1, 1), 3);
        assert_eq!(l.remove(0), Some((0, 0)));
        assert_eq!(l.remove(0), None);
        assert_eq!(l.get(0), None);
        assert_eq!(l.get(99), None);
        l.set(2, 1, 2);
        let live: Vec<_> = l.live().collect();
        assert_eq!(live, vec![(1, 1, 0), (2, 1, 2), (3, 1, 1)]);
    }
}
