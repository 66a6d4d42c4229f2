//! A copy-on-write chunked vector: the one storage type behind every
//! structure the engine's apply transaction forks.
//!
//! A [`ChunkedVec`] is a pointer array of `Arc`-shared fixed-capacity
//! chunks. Cloning it copies only the pointer array (one reference-count
//! increment per chunk); a write copies the one chunk it lands in if that
//! chunk is still shared (`Arc::make_mut` semantics). So a transaction that
//! forks a structure and touches `k` elements pays `O(chunks + k · chunk)`
//! instead of `O(len)`, and the published version it forked from is never
//! written: chunks reachable from a published snapshot are immutable.
//!
//! Every chunk copy is tallied per thread ([`copies`]), which is how an
//! engine commit reports what it copied.

use std::cell::Cell;
use std::sync::Arc;

/// Chunk copies made by copy-on-write writes: how many chunks and their
/// shallow byte size (`len · size_of::<T>()`; heap data owned by the
/// elements themselves is not counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkCopies {
    /// Chunks copied.
    pub chunks: u64,
    /// Shallow bytes copied.
    pub bytes: u64,
}

impl ChunkCopies {
    /// The copies made between `earlier` and `self` (both from [`copies`]
    /// on the same thread).
    pub fn since(self, earlier: ChunkCopies) -> ChunkCopies {
        ChunkCopies {
            chunks: self.chunks - earlier.chunks,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

thread_local! {
    static COPIES: Cell<ChunkCopies> = const { Cell::new(ChunkCopies { chunks: 0, bytes: 0 }) };
}

/// Running total of chunk copies made on the calling thread. Take the
/// difference of two readings ([`ChunkCopies::since`]) to attribute copies
/// to the work in between.
pub fn copies() -> ChunkCopies {
    COPIES.with(Cell::get)
}

fn note_copy(bytes: usize) {
    COPIES.with(|c| {
        let mut v = c.get();
        v.chunks += 1;
        v.bytes += bytes as u64;
        c.set(v);
    });
}

/// A growable vector stored as `Arc`-shared chunks of `chunk_len`
/// elements; every chunk but the last is full. See the module docs for the
/// copy-on-write rule.
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
    chunk: usize,
    /// `log2(chunk)` when `chunk` is a power of two (element lookup by
    /// shift and mask), `u32::MAX` otherwise (lookup by division).
    shift: u32,
}

impl<T> Clone for ChunkedVec<T> {
    /// Shares every chunk: `O(chunks)`, no element is copied.
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
            len: self.len,
            chunk: self.chunk,
            shift: self.shift,
        }
    }
}

impl<T> ChunkedVec<T> {
    /// An empty vector whose chunks hold `chunk_len` elements (at least 1).
    pub fn new(chunk_len: usize) -> Self {
        let chunk = chunk_len.max(1);
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
            chunk,
            shift: if chunk.is_power_of_two() {
                chunk.trailing_zeros()
            } else {
                u32::MAX
            },
        }
    }

    /// Moves `items` into chunks of `chunk_len` elements. The first chunk
    /// keeps `items`' own allocation, so a vector that fits one chunk is
    /// adopted without copying.
    pub fn from_vec(chunk_len: usize, mut items: Vec<T>) -> Self {
        let mut v = ChunkedVec::new(chunk_len);
        v.len = items.len();
        let mut chunks = Vec::with_capacity(items.len().div_ceil(v.chunk));
        // Cut from the back so that what remains is the first chunk.
        while items.len() > v.chunk {
            let start = (items.len() - 1) / v.chunk * v.chunk;
            chunks.push(Arc::new(items.split_off(start)));
        }
        if !items.is_empty() {
            items.shrink_to_fit();
            chunks.push(Arc::new(items));
        }
        chunks.reverse();
        v.chunks = chunks;
        v
    }

    /// Adopts pre-filled chunks: every chunk but the last must hold exactly
    /// `chunk_len` elements, the last at most that many.
    pub fn from_chunks(chunk_len: usize, chunks: Vec<Vec<T>>) -> Self {
        let mut v = ChunkedVec::new(chunk_len);
        for (c, chunk) in chunks.iter().enumerate() {
            assert!(
                chunk.len() == v.chunk || (c + 1 == chunks.len() && chunk.len() <= v.chunk),
                "only the last chunk may be partly filled"
            );
            v.len += chunk.len();
        }
        v.chunks = chunks
            .into_iter()
            .filter(|c| !c.is_empty())
            .map(Arc::new)
            .collect();
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk `c` as a slice (every chunk but the last is full).
    #[inline]
    pub fn chunk(&self, c: usize) -> &[T] {
        &self.chunks[c]
    }

    /// The chunks in order.
    pub fn chunks(&self) -> impl DoubleEndedIterator<Item = &[T]> + ExactSizeIterator + '_ {
        self.chunks.iter().map(|c| c.as_slice())
    }

    #[inline]
    fn locate(&self, i: usize) -> (usize, usize) {
        if self.shift != u32::MAX {
            (i >> self.shift, i & (self.chunk - 1))
        } else {
            (i / self.chunk, i % self.chunk)
        }
    }

    /// Element `i`, if in bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        // Every chunk but the last is full, so the chunk's own bounds are
        // the vector's.
        let (c, o) = self.locate(i);
        self.chunks.get(c)?.get(o)
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// Every element in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Whether chunk `c` is the same allocation in `self` and `other` —
    /// i.e. neither side has copied it since they were cloned apart.
    pub fn shares_chunk(&self, other: &ChunkedVec<T>, c: usize) -> bool {
        match (self.chunks.get(c), other.chunks.get(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Unwraps into a plain `Vec`, moving elements out of chunks this
    /// vector owns alone and cloning those still shared.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks {
            match Arc::try_unwrap(c) {
                Ok(v) => out.extend(v),
                Err(shared) => out.extend_from_slice(&shared),
            }
        }
        out
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Mutable access to chunk `c`, copying it first if it is shared.
    fn chunk_mut(&mut self, c: usize) -> &mut Vec<T> {
        let arc = &mut self.chunks[c];
        if Arc::get_mut(arc).is_none() {
            // A copied tail chunk gets its full capacity up front: the
            // writer that forced the copy is typically appending.
            let mut own = Vec::with_capacity(self.chunk);
            own.extend_from_slice(arc);
            note_copy(own.len() * std::mem::size_of::<T>());
            *arc = Arc::new(own);
        }
        Arc::get_mut(arc).expect("chunk is uniquely owned after the copy")
    }

    /// Mutable access to element `i`, copying its chunk first if shared.
    /// Panics if `i` is out of bounds.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let (c, o) = self.locate(i);
        &mut self.chunk_mut(c)[o]
    }

    /// Overwrites element `i` (copy-on-write). Panics if out of bounds.
    pub fn set(&mut self, i: usize, value: T) {
        *self.get_mut(i) = value;
    }

    /// Appends one element: copies the tail chunk if it is shared and
    /// partly filled, starts a new chunk if it is full.
    pub fn push(&mut self, value: T) {
        self.tail_with_room().push(value);
        self.len += 1;
    }

    /// Appends every element of `items`, chunk by chunk.
    pub fn extend_from_slice(&mut self, mut items: &[T]) {
        let chunk = self.chunk;
        while !items.is_empty() {
            let tail = self.tail_with_room();
            let take = (chunk - tail.len()).min(items.len());
            tail.extend_from_slice(&items[..take]);
            self.len += take;
            items = &items[take..];
        }
    }

    /// The tail chunk with room for at least one more element, grown
    /// geometrically up to the chunk capacity.
    fn tail_with_room(&mut self) -> &mut Vec<T> {
        if self.len == self.chunks.len() * self.chunk {
            self.chunks
                .push(Arc::new(Vec::with_capacity(self.chunk.min(16))));
        }
        let chunk = self.chunk;
        let last = self.chunks.len() - 1;
        let tail = self.chunk_mut(last);
        if tail.len() == tail.capacity() {
            let want = (tail.len() * 2).clamp(16, chunk);
            tail.reserve_exact(want - tail.len());
        }
        tail
    }
}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i)
            .unwrap_or_else(|| panic!("index {i} out of bounds (len {})", self.len))
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    /// Element-wise equality; chunk sizes do not matter.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_chunk_layout() {
        for chunk in [1usize, 3, 4, 16] {
            let mut v = ChunkedVec::new(chunk);
            for i in 0..50u32 {
                v.push(i);
            }
            assert_eq!(v.len(), 50);
            assert_eq!(v.num_chunks(), 50usize.div_ceil(chunk));
            assert!(v.chunks().rev().skip(1).all(|c| c.len() == chunk));
            for i in 0..50 {
                assert_eq!(v[i], i as u32);
            }
            assert_eq!(v.get(50), None);
            assert_eq!(
                v.iter().copied().collect::<Vec<_>>(),
                (0..50).collect::<Vec<_>>()
            );
            assert_eq!(v.last(), Some(&49));
            let w = ChunkedVec::from_vec(chunk, (0..50u32).collect());
            assert_eq!(v, w);
            let mut e = ChunkedVec::new(chunk);
            e.extend_from_slice(&(0..20u32).collect::<Vec<_>>());
            e.extend_from_slice(&(20..50u32).collect::<Vec<_>>());
            assert_eq!(e, v);
        }
    }

    #[test]
    fn clone_shares_and_writes_copy_one_chunk() {
        let mut a = ChunkedVec::from_vec(4, (0..10u64).collect());
        let b = a.clone();
        assert!((0..3).all(|c| a.shares_chunk(&b, c)));
        let before = copies();
        a.set(5, 99);
        let d = copies().since(before);
        assert_eq!(
            d,
            ChunkCopies {
                chunks: 1,
                bytes: 32
            }
        );
        assert!(a.shares_chunk(&b, 0) && !a.shares_chunk(&b, 1) && a.shares_chunk(&b, 2));
        assert_eq!(b[5], 5, "the clone never sees the write");
        assert_eq!(a[5], 99);
        // A second write to the now-owned chunk copies nothing.
        a.set(4, 7);
        assert_eq!(copies().since(before).chunks, 1);
        // Appending copies the shared, partly filled tail once.
        a.push(10);
        a.push(11);
        assert_eq!(copies().since(before).chunks, 2);
        assert_eq!(b.len(), 10);
        assert_eq!(a.len(), 12);
        assert_eq!(a.into_vec(), vec![0, 1, 2, 3, 7, 99, 6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn from_chunks_checks_fill() {
        let v = ChunkedVec::from_chunks(2, vec![vec![1, 2], vec![3]]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], 3);
        let e: ChunkedVec<u8> = ChunkedVec::from_chunks(2, vec![]);
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "partly filled")]
    fn from_chunks_rejects_short_inner_chunk() {
        let _ = ChunkedVec::from_chunks(2, vec![vec![1], vec![2, 3]]);
    }
}
