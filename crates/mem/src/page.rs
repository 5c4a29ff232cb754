//! Page table and the CPU-handled GPU page-fault model.
//!
//! In the discrete system the GPU's memory is mapped by a GPU-specific
//! allocator before kernels run, so GPU accesses never fault. In the
//! heterogeneous processor CPU and GPU share one page table; a GPU access to
//! an unmapped page raises an interrupt to the CPU, which maps the page and
//! returns — serializing would-be-parallel GPU accesses (paper §III-D and
//! the Fig. 6 discussion: a geomean ~9% GPU slowdown, concentrated in
//! benchmarks whose GPU kernels write large never-touched allocations).

use crate::addr::{AddrRange, PageAddr};
use crate::table::LineTable;

/// Result of touching a page through the page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was already mapped; no fault.
    Mapped,
    /// The page was unmapped; a fault fired and it is now mapped.
    Faulted,
}

impl TouchOutcome {
    /// Whether this touch faulted.
    pub const fn is_fault(self) -> bool {
        matches!(self, TouchOutcome::Faulted)
    }
}

/// A single-address-space page table tracking which pages are mapped.
///
/// One bit per page, 64 pages to a word of a [`LineTable`].
///
/// # Examples
///
/// ```
/// use heteropipe_mem::{PageTable, AddrRange, Addr, TouchOutcome};
///
/// let mut pt = PageTable::new();
/// let buf = AddrRange::new(Addr(0), 8192);
/// assert_eq!(pt.touch(Addr(0).page()), TouchOutcome::Faulted);
/// assert_eq!(pt.touch(Addr(0).page()), TouchOutcome::Mapped);
/// pt.map_range(buf);
/// assert_eq!(pt.touch(Addr(4096).page()), TouchOutcome::Mapped);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Bit `p % 64` of word `p / 64` is set when page `p` is mapped.
    mapped: LineTable<u64>,
    mapped_pages: u64,
    faults: u64,
}

#[inline]
fn split(page: PageAddr) -> (u64, u64) {
    (page.0 >> 6, 1 << (page.0 & 63))
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Eagerly maps every page of `range` (e.g. CPU-initialized input data,
    /// or discrete-GPU allocations mapped by the GPU allocator).
    pub fn map_range(&mut self, range: AddrRange) {
        for p in range.pages() {
            self.map(p);
        }
    }

    /// Maps `page`, returning whether it was unmapped before.
    #[inline]
    fn map(&mut self, page: PageAddr) -> bool {
        let (word, bit) = split(page);
        let w = self.mapped.get_mut(word);
        let fresh = *w & bit == 0;
        *w |= bit;
        // A branch, not `+= fresh as u64`: rustc 1.95 at opt-level >= 2
        // drops that add when the caller also branches on `fresh`.
        if fresh {
            self.mapped_pages += 1;
        }
        fresh
    }

    /// Whether `page` is mapped.
    pub fn is_mapped(&self, page: PageAddr) -> bool {
        let (word, bit) = split(page);
        self.mapped.get(word) & bit != 0
    }

    /// Touches a page: maps it if unmapped and reports whether a fault
    /// fired.
    #[inline]
    pub fn touch(&mut self, page: PageAddr) -> TouchOutcome {
        if self.map(page) {
            self.faults += 1;
            TouchOutcome::Faulted
        } else {
            TouchOutcome::Mapped
        }
    }

    /// Number of faults taken so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Number of pages a sweep of `range` would fault on right now,
    /// without mapping them.
    pub fn unmapped_pages(&self, range: AddrRange) -> u64 {
        range.pages().filter(|&p| !self.is_mapped(p)).count() as u64
    }

    /// Total mapped pages.
    pub fn mapped_count(&self) -> u64 {
        self.mapped_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn first_touch_faults_once() {
        let mut pt = PageTable::new();
        let p = Addr(12345).page();
        assert!(pt.touch(p).is_fault());
        assert!(!pt.touch(p).is_fault());
        assert_eq!(pt.fault_count(), 1);
    }

    #[test]
    fn map_range_prevents_faults() {
        let mut pt = PageTable::new();
        let r = AddrRange::new(Addr(0), 16384);
        pt.map_range(r);
        assert_eq!(pt.unmapped_pages(r), 0);
        for p in r.pages() {
            assert_eq!(pt.touch(p), TouchOutcome::Mapped);
        }
        assert_eq!(pt.fault_count(), 0);
        assert_eq!(pt.mapped_count(), 4);
    }

    #[test]
    fn unmapped_pages_counts_without_mapping() {
        let mut pt = PageTable::new();
        let r = AddrRange::new(Addr(0), 16384);
        pt.touch(Addr(0).page());
        assert_eq!(pt.unmapped_pages(r), 3);
        assert_eq!(pt.unmapped_pages(r), 3); // still 3: not a mutation
        assert!(pt.is_mapped(Addr(0).page()));
        assert!(!pt.is_mapped(Addr(4096).page()));
    }

    /// The bitmap agrees with a `HashSet` of mapped pages under random
    /// touches and range maps that mix both allocator bases with low
    /// addresses and cross chunk boundaries.
    #[test]
    fn matches_hashset_reference() {
        use std::collections::HashSet;
        heteropipe_sim::check::cases(64, 0x9A6E, |g| {
            let mut pt = PageTable::new();
            let mut r: HashSet<u64> = HashSet::new();
            let mut faults = 0u64;
            for _ in 0..g.usize(1, 400) {
                // Low test addresses, the CPU base, just below the GPU base
                // (a chunk holds 4096 words of 64 pages).
                let bases = [0u64, 0x1000_0000 >> 12, (0x1000_0000_0000 >> 12) - 300];
                let page = bases[g.usize(0, bases.len())] + g.u64(0, 3 * 4096 * 64);
                if g.usize(0, 8) == 0 {
                    let range = AddrRange::new(PageAddr(page).base(), g.u64(1, 40_000));
                    assert_eq!(
                        pt.unmapped_pages(range),
                        range.pages().filter(|p| !r.contains(&p.0)).count() as u64
                    );
                    pt.map_range(range);
                    r.extend(range.pages().map(|p| p.0));
                } else {
                    let fresh = r.insert(page);
                    if fresh {
                        faults += 1;
                    }
                    assert_eq!(pt.touch(PageAddr(page)).is_fault(), fresh);
                }
                assert!(pt.is_mapped(PageAddr(page)) == r.contains(&page));
                assert_eq!(pt.mapped_count(), r.len() as u64);
            }
            assert_eq!(pt.fault_count(), faults);
            assert_eq!(pt.mapped_count(), r.len() as u64);
        });
    }
}
