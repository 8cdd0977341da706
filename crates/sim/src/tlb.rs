//! Address translation: per-PU TLBs with a fixed page-walk cost.
//!
//! The address-space design options differ in *who* maintains page tables
//! (§II-A: a virtually unified space needs mappings on both PUs, disjoint
//! spaces keep independent tables, and the PCI aperture pins a small shared
//! window). At the timing level those choices surface as TLB reach and page
//! walks, which this module models; the *policy* costs (page faults on first
//! touch of shared pages, `lib-pf`) are charged by the communication model.

/// Statistics for one TLB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed and paid a page walk.
    pub misses: u64,
}

impl TlbStats {
    /// Miss rate in `[0, 1]`; zero with no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A fully-associative, LRU translation look-aside buffer.
///
/// Pages and their recency stamps live in parallel vectors, and the two
/// most recently used slots are checked before the associative scan: a
/// streaming kernel keeps landing on the page it just used, and matrix
/// multiply alternates between an A-row page and a B-column page, so the
/// common case is one or two compares. A hint is only a slot index; it is
/// verified against the page it names, so flushing never has to clear it.
#[derive(Clone, Debug)]
pub struct Tlb {
    pages: Vec<u64>,
    last_use: Vec<u64>,
    /// Slots of the most and second-most recent translations.
    hints: [usize; 2],
    capacity: usize,
    page_shift: u32,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots for `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(entries: u32, page_bytes: u64) -> Tlb {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            pages: Vec::with_capacity(entries as usize),
            last_use: Vec::with_capacity(entries as usize),
            hints: [0; 2],
            capacity: entries as usize,
            page_shift: page_bytes.trailing_zeros(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Empties the TLB and zeroes its clock and counters (power-on state).
    pub fn reset(&mut self) {
        self.flush();
        self.clock = 0;
        self.stats = TlbStats::default();
    }

    /// Translates `addr`, returning `true` on a hit and `false` when a page
    /// walk is required (the entry is filled either way).
    pub fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr >> self.page_shift;
        let [first, second] = self.hints;
        let slot = if self.pages.get(first) == Some(&page) {
            Some(first)
        } else if self.pages.get(second) == Some(&page) {
            Some(second)
        } else {
            self.pages.iter().position(|&p| p == page)
        };
        let (slot, hit) = match slot {
            Some(slot) => {
                self.stats.hits += 1;
                (slot, true)
            }
            None if self.pages.len() < self.capacity => {
                self.stats.misses += 1;
                self.pages.push(page);
                self.last_use.push(0);
                (self.pages.len() - 1, false)
            }
            None => {
                self.stats.misses += 1;
                // Recency stamps are distinct, so the victim is unique.
                let (lru, _) = self
                    .last_use
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .expect("capacity > 0");
                self.pages[lru] = page;
                (lru, false)
            }
        };
        self.last_use[slot] = self.clock;
        if slot != first {
            self.hints = [slot, first];
        }
        hit
    }

    /// Drops all cached translations (e.g. on an ownership transfer that
    /// remaps the shared window).
    pub fn flush(&mut self) {
        self.pages.clear();
        self.last_use.clear();
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_access_to_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.translate(0x1000));
        assert!(t.translate(0x1FFF)); // same page
        assert!(!t.translate(0x2000)); // next page
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.translate(0x0000); // page 0
        t.translate(0x1000); // page 1
        t.translate(0x0000); // touch page 0 → page 1 becomes LRU
        t.translate(0x2000); // page 2 evicts page 1
        assert!(t.translate(0x0000), "page 0 must survive");
        assert!(!t.translate(0x1000), "page 1 must have been evicted");
    }

    #[test]
    fn flush_empties_the_tlb() {
        let mut t = Tlb::new(4, 4096);
        t.translate(0x1000);
        t.flush();
        assert!(!t.translate(0x1000));
    }

    #[test]
    fn miss_rate_reflects_reach() {
        let mut t = Tlb::new(64, 4096);
        // 64 pages of reach: a 128-page working set thrashes.
        for round in 0..4 {
            for page in 0..128u64 {
                t.translate(page * 4096);
            }
            let _ = round;
        }
        assert!(t.stats().miss_rate() > 0.9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_rejected() {
        let _ = Tlb::new(4, 1000);
    }
}
