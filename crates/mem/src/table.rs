//! Dense key-indexed tables for per-line and per-page state.
//!
//! The functional walk keeps state for every line (or page) a simulated
//! program touches: footprint touch masks, off-chip classifier line
//! states, page-table mapped bits and the coherence directory's holder
//! masks. The bump allocator places buffers contiguously from two fixed
//! bases, so touched keys cluster in a few dense runs. A [`LineTable`]
//! stores them in fixed 4096-entry chunks found through a sorted list of
//! chunk ids, in front of which sits a small direct-mapped cache of
//! recently used chunks: a lookup that hits it is a shift, a compare and
//! an index, with no hashing and no per-key allocation. The cache holds
//! several chunks because the walk alternates between regions (a fill and
//! the eviction it causes, a producer and a consumer buffer). Keys
//! anywhere in `u64` work, so small test addresses and both allocator
//! bases share one table.

/// Entries per chunk, as a power of two.
const CHUNK_BITS: u32 = 12;
const CHUNK: usize = 1 << CHUNK_BITS;
const OFFSET_MASK: u64 = CHUNK as u64 - 1;
/// Entries of the recent-chunk cache, as a power of two.
const RECENT: usize = 64;
/// No chunk has this id: keys shifted right by `CHUNK_BITS` stay below it.
const NO_CHUNK: u64 = u64::MAX;

/// A map from `u64` keys to `T`, where every key starts at `T::default()`.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::LineTable;
///
/// let mut t: LineTable<u8> = LineTable::new();
/// assert_eq!(t.get(0x1000_0000_0042), 0);
/// *t.get_mut(0x1000_0000_0042) |= 4;
/// *t.get_mut(7) = 1;
/// assert_eq!(t.get(0x1000_0000_0042), 4);
/// assert_eq!(t.values().filter(|&&v| v != 0).count(), 2);
/// ```
#[derive(Clone)]
pub struct LineTable<T> {
    /// `(chunk id, index into chunks)`, ascending by chunk id (`key >>
    /// CHUNK_BITS`).
    ids: Vec<(u64, usize)>,
    /// Chunk storage in allocation order, so indices never move.
    chunks: Vec<Box<[T; CHUNK]>>,
    /// Direct-mapped by chunk id: `(chunk id, index into chunks)`, or
    /// `NO_CHUNK` when empty.
    recent: [(u64, usize); RECENT],
}

impl<T: Copy + Default> LineTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        LineTable {
            ids: Vec::new(),
            chunks: Vec::new(),
            recent: [(NO_CHUNK, 0); RECENT],
        }
    }

    /// The index into `chunks` of chunk `id`, if allocated.
    #[inline]
    fn find(&self, id: u64) -> Option<usize> {
        let (rid, i) = self.recent[(id as usize) & (RECENT - 1)];
        if rid == id {
            return Some(i);
        }
        let at = self.ids.binary_search_by_key(&id, |&(c, _)| c).ok()?;
        Some(self.ids[at].1)
    }

    /// The value at `key` (the default if it was never written).
    #[inline]
    pub fn get(&self, key: u64) -> T {
        match self.find(key >> CHUNK_BITS) {
            Some(i) => self.chunks[i][(key & OFFSET_MASK) as usize],
            None => T::default(),
        }
    }

    /// The value at `key`, for update; allocates its chunk on first use.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> &mut T {
        let id = key >> CHUNK_BITS;
        let (rid, i) = self.recent[(id as usize) & (RECENT - 1)];
        let i = if rid == id { i } else { self.select(id) };
        &mut self.chunks[i][(key & OFFSET_MASK) as usize]
    }

    /// Caches chunk `id` as recent, allocating it if needed; returns its
    /// index into `chunks`.
    #[inline(never)]
    fn select(&mut self, id: u64) -> usize {
        let i = match self.ids.binary_search_by_key(&id, |&(c, _)| c) {
            Ok(at) => self.ids[at].1,
            Err(at) => {
                let chunk: Box<[T; CHUNK]> = vec![T::default(); CHUNK]
                    .into_boxed_slice()
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("chunk has CHUNK entries"));
                self.chunks.push(chunk);
                self.ids.insert(at, (id, self.chunks.len() - 1));
                self.chunks.len() - 1
            }
        };
        self.recent[(id as usize) & (RECENT - 1)] = (id, i);
        i
    }

    /// Every stored value, chunk by chunk in allocation order, including
    /// the defaults of never-written keys that share a chunk with written
    /// ones.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T: Copy + Default> Default for LineTable<T> {
    fn default() -> Self {
        LineTable::new()
    }
}

impl<T> std::fmt::Debug for LineTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineTable")
            .field("chunks", &self.ids.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn absent_keys_read_default_and_allocate_nothing() {
        let t: LineTable<u32> = LineTable::new();
        assert_eq!(t.get(12345), 0);
        assert_eq!(t.values().count(), 0);
    }

    #[test]
    fn chunks_stay_sorted_whatever_the_insert_order() {
        let mut t: LineTable<u64> = LineTable::new();
        for key in [5 << CHUNK_BITS, 1, 3 << CHUNK_BITS, u64::MAX, 0] {
            *t.get_mut(key) = key ^ 1;
        }
        assert!(t.ids.windows(2).all(|w| w[0].0 < w[1].0));
        for key in [5 << CHUNK_BITS, 1, 3 << CHUNK_BITS, u64::MAX, 0] {
            assert_eq!(t.get(key), key ^ 1);
        }
    }

    /// Agrees with a `HashMap` under random keys from both allocator
    /// bases, low addresses and chunk edges.
    #[test]
    fn matches_hashmap_reference() {
        heteropipe_sim::check::cases(64, 0x7AB1E, |g| {
            let mut t: LineTable<u16> = LineTable::new();
            let mut r: HashMap<u64, u16> = HashMap::new();
            for _ in 0..g.usize(1, 600) {
                // Low test addresses, the CPU base, just below the GPU base.
                let bases = [0u64, 0x1000_0000 / 128, 0x1000_0000_0000 / 128 - 40];
                let base = bases[g.usize(0, bases.len())];
                let key = base + g.u64(0, 3 * CHUNK as u64);
                let v = g.u64(0, 1 << 16) as u16;
                if g.bool() {
                    *t.get_mut(key) ^= v;
                    *r.entry(key).or_default() ^= v;
                }
                assert_eq!(t.get(key), r.get(&key).copied().unwrap_or(0));
            }
            let nonzero = t.values().filter(|&&v| v != 0).count();
            assert_eq!(nonzero, r.values().filter(|&&v| v != 0).count());
        });
    }
}
