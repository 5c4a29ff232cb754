//! Set-associative writeback caches.
//!
//! A functional cache model: it tracks presence, dirtiness, and LRU order,
//! and reports hits, misses, and dirty evictions. Timing is applied by the
//! core models over the aggregate counts.
//!
//! Storage is structure-of-arrays: one flat tag array, one flat LRU array,
//! and a packed dirty bitset, so a set probe is a linear sweep over `ways`
//! adjacent tags instead of a strided walk over per-way structs. A slot
//! stores its tag plus one, so an empty slot (0) never matches and needs
//! no valid bit, and an empty slot's LRU tick is 0, below every filled
//! one, so the victim is simply the first least-recently-used way.
//! The set count is a power of two, so a line's set and tag are a mask
//! and a shift of its address: the access path divides nothing.

use std::fmt;

use crate::access::AccessKind;
use crate::addr::{AddrRange, LineAddr, LINE_BYTES};

/// Geometry of a cache.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::CacheConfig;
///
/// // The study's GPU-shared L2: 1 MiB, 16-way, 128 B lines.
/// let l2 = CacheConfig::new(1024 * 1024, 16);
/// assert_eq!(l2.sets(), 512);
/// assert_eq!(l2.lines(), 8192);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: u64,
    ways: u32,
}

impl CacheConfig {
    /// A cache of `capacity_bytes` with `ways`-way associativity and the
    /// study-wide 128 B line size.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is a positive multiple of
    /// `ways * LINE_BYTES` giving a power-of-two number of sets.
    pub fn new(capacity_bytes: u64, ways: u32) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            capacity_bytes > 0 && capacity_bytes.is_multiple_of(ways as u64 * LINE_BYTES),
            "capacity {capacity_bytes} must be a positive multiple of ways*line"
        );
        let sets = capacity_bytes / (ways as u64 * LINE_BYTES);
        assert!(
            sets.is_power_of_two(),
            "capacity {capacity_bytes} with {ways} ways gives {sets} sets, not a power of two"
        );
        CacheConfig {
            capacity_bytes,
            ways,
        }
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity.
    pub const fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub const fn sets(&self) -> u64 {
        self.capacity_bytes / (self.ways as u64 * LINE_BYTES)
    }

    /// Total line slots.
    pub const fn lines(&self) -> u64 {
        self.capacity_bytes / LINE_BYTES
    }
}

/// What happened on a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A dirty line displaced to make room, which must be written to the
    /// next level down.
    pub writeback: Option<LineAddr>,
    /// Any line displaced to make room, clean or dirty (a coherence
    /// directory drops this cache from the line's holders).
    pub evicted: Option<LineAddr>,
}

impl CacheOutcome {
    const HIT: CacheOutcome = CacheOutcome {
        hit: true,
        writeback: None,
        evicted: None,
    };
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line present.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines displaced by fills.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// A packed per-slot bitset (one bit per line slot).
#[derive(Clone, Default)]
struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    fn zeroed(slots: usize) -> Self {
        SlotBits {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, slot: usize) -> bool {
        self.words[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    #[inline]
    fn set(&mut self, slot: usize, value: bool) {
        let mask = 1u64 << (slot & 63);
        if value {
            self.words[slot >> 6] |= mask;
        } else {
            self.words[slot >> 6] &= !mask;
        }
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// A set-associative, write-allocate, writeback cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use heteropipe_mem::{CacheConfig, SetAssocCache, AccessKind, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(1024, 2)); // 8 lines
/// let miss = c.access(LineAddr(0), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = c.access(LineAddr(0), AccessKind::Write);
/// assert!(hit.hit);
/// assert!(c.contains(LineAddr(0)));
/// ```
pub struct SetAssocCache {
    config: CacheConfig,
    /// `log2(sets)`: a line's tag is its address shifted right by this.
    set_bits: u32,
    /// `sets - 1`: a line's set is its address masked by this.
    set_mask: u64,
    ways: usize,
    /// Tag plus one per slot (0 = empty), slot-major: set `s` occupies
    /// `[s*ways, (s+1)*ways)`.
    tags: Vec<u64>,
    /// Last-touch tick per slot (LRU order within a set; 0 = empty).
    lru: Vec<u64>,
    dirty: SlotBits,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let slots = (config.sets() * config.ways as u64) as usize;
        SetAssocCache {
            config,
            set_bits: config.sets().trailing_zeros(),
            set_mask: config.sets() - 1,
            ways: config.ways as usize,
            tags: vec![0; slots],
            lru: vec![0; slots],
            dirty: SlotBits::zeroed(slots),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The first slot of `line`'s set, and the tag slot value (tag plus
    /// one) that holds `line`.
    #[inline]
    fn set_range(&self, line: LineAddr) -> (usize, u64) {
        let set = (line.0 & self.set_mask) as usize;
        (set * self.ways, (line.0 >> self.set_bits) + 1)
    }

    /// The line held in the filled `slot` of set `set`.
    #[inline]
    fn line_of(&self, set: u64, slot: usize) -> LineAddr {
        LineAddr((self.tags[slot] - 1) << self.set_bits | set)
    }

    /// Linear sweep of one set's tag array for the slot holding `tag`.
    #[inline]
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Empties `slot`.
    fn clear_slot(&mut self, slot: usize) {
        self.tags[slot] = 0;
        self.lru[slot] = 0;
        self.dirty.set(slot, false);
    }

    /// Performs an access, allocating on miss. Returns whether it hit, and
    /// the line displaced by the fill, if any (also as a writeback when it
    /// was dirty).
    #[inline]
    pub fn access(&mut self, line: LineAddr, kind: AccessKind) -> CacheOutcome {
        self.tick += 1;
        let (base, tag) = self.set_range(line);
        if let Some(slot) = self.find(base, tag) {
            self.lru[slot] = self.tick;
            if kind.is_write() {
                self.dirty.set(slot, true);
            }
            self.stats.hits += 1;
            return CacheOutcome::HIT;
        }
        self.stats.misses += 1;
        // Fill the first least-recently-used way: an empty way if there
        // is one (tick 0), else the true-LRU line.
        let mut victim = base;
        let mut best = u64::MAX;
        for slot in base..base + self.ways {
            if self.lru[slot] < best {
                best = self.lru[slot];
                victim = slot;
            }
        }
        let mut out = CacheOutcome {
            hit: false,
            writeback: None,
            evicted: None,
        };
        if self.tags[victim] != 0 {
            let old = self.line_of(line.0 & self.set_mask, victim);
            out.evicted = Some(old);
            if self.dirty.get(victim) {
                out.writeback = Some(old);
                self.stats.writebacks += 1;
            }
        }
        self.tags[victim] = tag;
        self.dirty.set(victim, kind.is_write());
        self.lru[victim] = self.tick;
        out
    }

    /// Whether the line is currently resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, tag) = self.set_range(line);
        self.find(base, tag).is_some()
    }

    /// Whether the line is resident and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        let (base, tag) = self.set_range(line);
        self.find(base, tag)
            .is_some_and(|slot| self.dirty.get(slot))
    }

    /// Invalidates one line if present, returning whether it was dirty
    /// (i.e. a writeback to memory is required).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (base, tag) = self.set_range(line);
        let slot = self.find(base, tag)?;
        let was_dirty = self.dirty.get(slot);
        self.clear_slot(slot);
        Some(was_dirty)
    }

    /// Invalidates every line of `range` (as a DMA transfer does to the CPU
    /// caches in the discrete system). Returns `(lines_invalidated,
    /// dirty_writebacks)`.
    pub fn invalidate_range(&mut self, range: AddrRange) -> (u64, u64) {
        let mut inv = 0;
        let mut dirty = 0;
        for slot in self.slots_in(range) {
            inv += 1;
            if self.dirty.get(slot) {
                dirty += 1;
            }
            self.clear_slot(slot);
        }
        (inv, dirty)
    }

    /// Marks every resident line of `range` clean (as a DMA read's flush
    /// does), returning how many were dirty.
    pub fn clean_range(&mut self, range: AddrRange) -> u64 {
        let mut cleaned = 0;
        for slot in self.slots_in(range) {
            if self.dirty.get(slot) {
                self.dirty.set(slot, false);
                cleaned += 1;
            }
        }
        cleaned
    }

    /// The filled slots holding lines of `range`: found line by line for
    /// a range smaller than the cache, else by one sweep over the slots,
    /// so a DMA of many megabytes costs one pass over the cache.
    fn slots_in(&self, range: AddrRange) -> Vec<usize> {
        let n = range.line_count();
        if n <= self.tags.len() as u64 {
            return range
                .lines()
                .filter_map(|line| {
                    let (base, tag) = self.set_range(line);
                    self.find(base, tag)
                })
                .collect();
        }
        let first = range.start().line().0;
        (0..=self.set_mask)
            .flat_map(|set| {
                let base = set as usize * self.ways;
                (base..base + self.ways).filter(move |&slot| {
                    self.tags[slot] != 0 && self.line_of(set, slot).0.wrapping_sub(first) < n
                })
            })
            .collect()
    }

    /// Marks a resident line clean (after its data has been written back or
    /// transferred to another cache).
    pub fn clean(&mut self, line: LineAddr) {
        let (base, tag) = self.set_range(line);
        if let Some(slot) = self.find(base, tag) {
            self.dirty.set(slot, false);
        }
    }

    /// Every resident line, set by set.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        (0..=self.set_mask).flat_map(move |set| {
            let base = set as usize * self.ways;
            (base..base + self.ways)
                .filter(|&slot| self.tags[slot] != 0)
                .map(move |slot| self.line_of(set, slot))
        })
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != 0).count() as u64
    }

    /// Drops all contents (statistics are kept).
    pub fn flush_all(&mut self) {
        self.tags.fill(0);
        self.lru.fill(0);
        self.dirty.clear_all();
    }
}

impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("config", &self.config)
            .field("occupancy", &self.occupancy())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways = 8 lines.
        SetAssocCache::new(CacheConfig::new(1024, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(64 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
        assert_eq!(c.capacity_bytes(), 64 * 1024);
        assert_eq!(c.ways(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn config_rejects_bad_capacity() {
        let _ = CacheConfig::new(1000, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two_sets() {
        let _ = CacheConfig::new(3 * 2 * LINE_BYTES, 2);
    }

    #[test]
    fn every_shipped_geometry_has_power_of_two_sets() {
        // Table I caches and the GPU L2 capacity ablation.
        for (kib, ways) in [(64, 8), (256, 16), (24, 6), (1024, 16)] {
            assert!(CacheConfig::new(kib * 1024, ways).sets().is_power_of_two());
        }
        for mb in [256u64, 512, 1024, 2048, 4096] {
            assert!(CacheConfig::new(mb * 1024, 16).sets().is_power_of_two());
        }
    }

    #[test]
    fn evictions_report_clean_and_dirty_victims() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Write);
        c.access(LineAddr(4), AccessKind::Read);
        let out = c.access(LineAddr(8), AccessKind::Read); // evicts dirty 0
        assert_eq!(out.evicted, Some(LineAddr(0)));
        assert_eq!(out.writeback, Some(LineAddr(0)));
        let out = c.access(LineAddr(12), AccessKind::Read); // evicts clean 4
        assert_eq!(out.evicted, Some(LineAddr(4)));
        assert_eq!(out.writeback, None);
        assert_eq!(c.access(LineAddr(1), AccessKind::Read).evicted, None);
        let mut resident: Vec<u64> = c.resident_lines().map(|l| l.0).collect();
        resident.sort_unstable();
        assert_eq!(resident, [1, 8, 12]);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(LineAddr(5), AccessKind::Read).hit);
        assert!(c.access(LineAddr(5), AccessKind::Read).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets). Two ways: 0 and 4 fit.
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(4), AccessKind::Read);
        c.access(LineAddr(0), AccessKind::Read); // refresh 0; 4 becomes LRU
        c.access(LineAddr(8), AccessKind::Read); // evicts 4
        assert!(c.contains(LineAddr(0)));
        assert!(!c.contains(LineAddr(4)));
        assert!(c.contains(LineAddr(8)));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Write);
        c.access(LineAddr(4), AccessKind::Read);
        let out = c.access(LineAddr(8), AccessKind::Read); // evicts dirty 0
        assert_eq!(out.writeback, Some(LineAddr(0)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Read);
        c.access(LineAddr(4), AccessKind::Read);
        let out = c.access(LineAddr(8), AccessKind::Read);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_marks_dirty_and_clean_clears() {
        let mut c = tiny();
        c.access(LineAddr(3), AccessKind::Write);
        assert!(c.is_dirty(LineAddr(3)));
        c.clean(LineAddr(3));
        assert!(!c.is_dirty(LineAddr(3)));
        assert!(c.contains(LineAddr(3)));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(LineAddr(1), AccessKind::Write);
        c.access(LineAddr(2), AccessKind::Read);
        assert_eq!(c.invalidate(LineAddr(1)), Some(true));
        assert_eq!(c.invalidate(LineAddr(2)), Some(false));
        assert_eq!(c.invalidate(LineAddr(3)), None);
        assert!(!c.contains(LineAddr(1)));
    }

    #[test]
    fn invalidate_range_counts() {
        use crate::addr::Addr;
        let mut c = tiny();
        c.access(LineAddr(0), AccessKind::Write);
        c.access(LineAddr(1), AccessKind::Read);
        // Lines 0..4 = bytes 0..512.
        let (inv, dirty) = c.invalidate_range(AddrRange::new(Addr(0), 512));
        assert_eq!((inv, dirty), (2, 1));
        assert_eq!(c.occupancy(), 0);
    }

    /// Range invalidation and cleaning give the same results whether the
    /// range is walked line by line (smaller than the cache) or the cache
    /// is swept (larger), as a per-line reference.
    #[test]
    fn range_operations_match_per_line_reference() {
        use crate::addr::Addr;
        heteropipe_sim::check::cases(64, 0x4A76E, |g| {
            let mut c = tiny();
            let mut r = tiny();
            for _ in 0..g.usize(1, 300) {
                let line = LineAddr(g.u64(0, 64));
                let kind = if g.bool() {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(c.access(line, kind), r.access(line, kind));
                if g.usize(0, 10) == 0 {
                    let start = Addr(g.u64(0, 64 * LINE_BYTES));
                    let range = AddrRange::new(start, g.u64(1, 30 * LINE_BYTES));
                    if g.bool() {
                        let mut want = 0;
                        for l in range.lines() {
                            if r.is_dirty(l) {
                                r.clean(l);
                                want += 1;
                            }
                        }
                        assert_eq!(c.clean_range(range), want);
                    } else {
                        let mut want = (0, 0);
                        for l in range.lines() {
                            if let Some(d) = r.invalidate(l) {
                                want.0 += 1;
                                want.1 += u64::from(d);
                            }
                        }
                        assert_eq!(c.invalidate_range(range), want);
                    }
                }
            }
            for l in 0..64 {
                assert_eq!(c.contains(LineAddr(l)), r.contains(LineAddr(l)));
                assert_eq!(c.is_dirty(LineAddr(l)), r.is_dirty(LineAddr(l)));
            }
        });
    }

    #[test]
    fn flush_all_empties() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(LineAddr(i), AccessKind::Write);
        }
        assert!(c.occupancy() > 0);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = tiny();
        for i in 0..1000 {
            c.access(LineAddr(i), AccessKind::Read);
        }
        assert!(c.occupancy() <= c.config().lines());
    }

    #[test]
    fn streaming_larger_than_cache_reuses_nothing() {
        let mut c = tiny();
        // Two passes over 64 lines through an 8-line cache: second pass
        // must miss everywhere (LRU, capacity-bound).
        for _pass in 0..2 {
            for i in 0..64 {
                c.access(LineAddr(i), AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 128);
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = tiny();
        for _pass in 0..3 {
            for i in 0..8 {
                c.access(LineAddr(i), AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 16);
    }

    /// The cache never reports more writebacks than writes performed,
    /// and occupancy stays bounded.
    #[test]
    fn sanity_under_random_traffic() {
        heteropipe_sim::check::cases(64, 0xCAC4E, |g| {
            let ops = g.vec(1, 500, |g| (g.u64(0, 64), g.bool()));
            let mut c = tiny();
            let mut writes = 0u64;
            for (line, is_write) in ops {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                if is_write {
                    writes += 1;
                }
                c.access(LineAddr(line), kind);
                assert!(c.occupancy() <= 8);
            }
            assert!(c.stats().writebacks <= writes);
            assert_eq!(c.stats().accesses(), c.stats().hits + c.stats().misses);
        });
    }

    /// SoA model agrees with a naive per-way AoS reference (modulo and
    /// division set indexing) under random traffic: identical
    /// hit/miss/writeback/eviction sequences and final contents.
    #[test]
    fn matches_aos_reference() {
        #[derive(Clone)]
        struct Way {
            tag: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }
        struct Ref {
            sets: Vec<Way>,
            ways: usize,
            nsets: u64,
            tick: u64,
        }
        impl Ref {
            /// `(hit, writeback, evicted)`.
            fn access(
                &mut self,
                line: LineAddr,
                write: bool,
            ) -> (bool, Option<LineAddr>, Option<LineAddr>) {
                self.tick += 1;
                let set = (line.0 % self.nsets) as usize;
                let tag = line.0 / self.nsets;
                let base = set * self.ways;
                for w in 0..self.ways {
                    let s = &mut self.sets[base + w];
                    if s.valid && s.tag == tag {
                        s.lru = self.tick;
                        s.dirty |= write;
                        return (true, None, None);
                    }
                }
                let mut victim = 0;
                let mut best = u64::MAX;
                for w in 0..self.ways {
                    let s = &self.sets[base + w];
                    if !s.valid {
                        victim = w;
                        break;
                    }
                    if s.lru < best {
                        best = s.lru;
                        victim = w;
                    }
                }
                let s = &mut self.sets[base + victim];
                let old = LineAddr(s.tag * self.nsets + set as u64);
                let evicted = s.valid.then_some(old);
                let wb = evicted.filter(|_| s.dirty);
                s.tag = tag;
                s.valid = true;
                s.dirty = write;
                s.lru = self.tick;
                (false, wb, evicted)
            }
        }
        heteropipe_sim::check::cases(64, 0x50A0, |g| {
            let mut c = tiny();
            // Half the cases start just below the tick counter's wrap, so
            // the renumbering runs mid-stream.

            let mut r = Ref {
                sets: vec![
                    Way {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        lru: 0
                    };
                    8
                ],
                ways: 2,
                nsets: 4,
                tick: 0,
            };
            for (line, is_write) in g.vec(1, 400, |g| (g.u64(0, 64), g.bool())) {
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let out = c.access(LineAddr(line), kind);
                let (hit, wb, evicted) = r.access(LineAddr(line), is_write);
                assert_eq!(out.hit, hit);
                assert_eq!(out.writeback, wb);
                assert_eq!(out.evicted, evicted);
            }
            for line in 0..64 {
                let set = (line % 4) as usize;
                let tag = line / 4;
                let present = (0..2).any(|w| {
                    let s = &r.sets[set * 2 + w];
                    s.valid && s.tag == tag
                });
                assert_eq!(c.contains(LineAddr(line)), present);
            }
        });
    }
}
