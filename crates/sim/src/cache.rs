//! Set-associative caches with locality-aware replacement.
//!
//! Besides plain LRU, the cache implements the paper's *hybrid locality*
//! scheme for the shared second-level cache (§II-B5): each tag carries one
//! bit saying whether the block is implicitly managed (hardware caching) or
//! explicitly managed (placed by a `push`). The replacement logic compares
//! that bit: **an implicitly-managed block cannot evict an explicitly-managed
//! block**, and the explicitly-managed footprint is capped below the total
//! capacity so implicit traffic always retains at least one way per set.

use crate::config::CacheConfig;

/// How a block came to be in the cache (the tag's locality bit).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Brought in by ordinary hardware caching.
    #[default]
    Implicit,
    /// Placed by an explicit `push`; protected from implicit eviction.
    Explicit,
}

/// A block evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the evicted line.
    pub addr: u64,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the access hit.
    pub hit: bool,
    /// A line displaced by the miss fill, if any.
    pub evicted: Option<Evicted>,
    /// Whether the miss fill was refused because every candidate way is
    /// explicitly managed (the access bypasses the cache).
    pub bypassed: bool,
}

/// Largest supported associativity: a set's way hint is one byte.
pub(crate) const MAX_ASSOCIATIVITY: u32 = 1 << u8::BITS;

/// Per-line flag bits packed into one byte (see the SoA layout on [`Cache`]).
const VALID: u8 = 1 << 0;
const DIRTY: u8 = 1 << 1;
const EXPLICIT: u8 = 1 << 2;

/// Hit/miss/eviction counters for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Misses that could not fill because the set was fully explicit.
    pub bypasses: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when there have been no accesses.
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

/// A set-associative, write-back, write-allocate cache.
///
/// Line state is a structure-of-arrays: three flat vectors indexed
/// `set * associativity + way`. The all-zero state is "invalid line", so
/// construction is a handful of zeroed (lazily mapped) allocations instead
/// of one heap allocation per set — building the paper's 8 MB LLC costs
/// microseconds, which keeps per-job engine construction off the profile of
/// large sweeps. Hit scans also touch only the contiguous tag words of one
/// set instead of striding through padded line structs, and read a line's
/// flags only once its tag matches.
///
/// Each set also remembers the way it last hit or filled, and a lookup
/// tries that way before scanning: consecutive accesses to one line (a
/// stride smaller than the line) then cost one tag compare. The hint is
/// verified like any other way, so a stale hint after [`Cache::reset`] or
/// an invalidation only costs the scan it would have saved.
#[derive(Clone, Debug)]
pub struct Cache {
    tags: Vec<u64>,
    last_use: Vec<u64>,
    flags: Vec<u8>,
    /// Per-set way of the most recent hit or fill.
    hints: Vec<u8>,
    assoc: usize,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    /// When false, the locality bit is ignored and replacement is plain LRU
    /// (the ablation configuration).
    honor_locality: bool,
    /// Maximum explicitly-managed ways per set (< associativity).
    max_explicit_ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from its configuration, honouring locality bits.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate, the set count or line size is
    /// not a power of two, or the associativity exceeds 256.
    #[must_use]
    pub fn new(config: &CacheConfig) -> Cache {
        Cache::with_locality(config, true)
    }

    /// Builds a cache, choosing whether replacement honours the locality bit
    /// (§II-B5) or treats all blocks uniformly (plain LRU).
    ///
    /// # Panics
    ///
    /// As [`Cache::new`].
    #[must_use]
    pub fn with_locality(config: &CacheConfig, honor_locality: bool) -> Cache {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two, got {}",
            config.line_bytes
        );
        assert!(
            config.associativity <= MAX_ASSOCIATIVITY,
            "associativity {} exceeds {MAX_ASSOCIATIVITY}",
            config.associativity
        );
        let assoc = config.associativity as usize;
        let total = sets as usize * assoc;
        Cache {
            tags: vec![0; total],
            last_use: vec![0; total],
            flags: vec![0; total],
            hints: vec![0; sets as usize],
            assoc,
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            honor_locality,
            // Constraint (2) of §II-B5: the explicitly managed region must
            // be strictly smaller than the physical cache.
            max_explicit_ways: assoc.saturating_sub(1).max(1),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// The way of `set` holding `tag` as a valid line, trying the set's
    /// hint first.
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.assoc;
        let tags = &self.tags[base..base + self.assoc];
        let flags = &self.flags[base..base + self.assoc];
        let hint = usize::from(self.hints[set]);
        if tags[hint] == tag && flags[hint] & VALID != 0 {
            return Some(hint);
        }
        tags.iter()
            .zip(flags)
            .position(|(&t, &f)| t == tag && f & VALID != 0)
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Returns the cache to its power-on state: every line invalid, clock
    /// and counters at zero. Only the one-byte flag array is cleared — the
    /// tag and LRU words of invalid lines are never read — so resetting the
    /// paper's 2 MB LLC tile touches 32 KiB, not half a megabyte. This is
    /// what makes engine recycling (one simulation reused across sweep jobs)
    /// an order of magnitude cheaper than rebuilding. The way hints are
    /// left as they are: they are verified before use.
    pub fn reset(&mut self) {
        self.flags.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `addr` currently resides in the cache (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.find(set, tag).is_some()
    }

    /// Performs an access; on a miss the line is filled with the given
    /// placement according to the locality-aware replacement policy.
    pub fn access(&mut self, addr: u64, write: bool, placement: Placement) -> Lookup {
        self.clock += 1;
        let clock = self.clock;
        let honor = self.honor_locality;
        let max_explicit = self.max_explicit_ways;
        let (set_idx, tag) = self.set_and_tag(addr);
        let base = set_idx * self.assoc;
        let found = self.find(set_idx, tag);
        let tags = &mut self.tags[base..base + self.assoc];
        let flags = &mut self.flags[base..base + self.assoc];
        let last_use = &mut self.last_use[base..base + self.assoc];

        if let Some(idx) = found {
            self.hints[set_idx] = idx as u8;
            last_use[idx] = clock;
            if write {
                flags[idx] |= DIRTY;
            }
            // An explicit push over a cached block upgrades its bit (an
            // ordinary access never downgrades one) — but the upgrade is
            // subject to the same footprint cap as explicit fills: the
            // explicitly managed region must stay below the set size.
            if placement == Placement::Explicit && flags[idx] & EXPLICIT == 0 {
                let explicit_others = flags
                    .iter()
                    .enumerate()
                    .filter(|&(w, f)| w != idx && f & (VALID | EXPLICIT) == (VALID | EXPLICIT))
                    .count();
                if !honor || explicit_others < max_explicit {
                    flags[idx] |= EXPLICIT;
                }
            }
            self.stats.hits += 1;
            return Lookup {
                hit: true,
                evicted: None,
                bypassed: false,
            };
        }

        self.stats.misses += 1;

        // Victim selection. Invalid ways first; then LRU among the ways this
        // placement class is allowed to displace.
        let victim = if let Some(w) = flags.iter().position(|f| f & VALID == 0) {
            Some(w)
        } else {
            let evictable = |f: u8| {
                if !honor {
                    return true;
                }
                match placement {
                    // Implicit fills must not displace explicit blocks.
                    Placement::Implicit => f & EXPLICIT == 0,
                    Placement::Explicit => true,
                }
            };
            (0..flags.len())
                .filter(|&w| evictable(flags[w]))
                .min_by_key(|&w| last_use[w])
        };

        let Some(victim) = victim else {
            // Whole set explicitly managed: implicit traffic bypasses.
            self.stats.bypasses += 1;
            return Lookup {
                hit: false,
                evicted: None,
                bypassed: true,
            };
        };

        // Cap the explicit footprint below the set size.
        let placement = if honor
            && placement == Placement::Explicit
            && flags
                .iter()
                .enumerate()
                .filter(|&(w, f)| w != victim && f & (VALID | EXPLICIT) == (VALID | EXPLICIT))
                .count()
                >= max_explicit
        {
            Placement::Implicit
        } else {
            placement
        };

        let old = flags[victim];
        let evicted = if old & VALID != 0 {
            self.stats.evictions += 1;
            let dirty = old & DIRTY != 0;
            if dirty {
                self.stats.writebacks += 1;
            }
            let line = (tags[victim] << self.set_bits) | set_idx as u64;
            Some(Evicted {
                addr: line << self.line_shift,
                dirty,
            })
        } else {
            None
        };

        self.hints[set_idx] = victim as u8;
        tags[victim] = tag;
        last_use[victim] = clock;
        flags[victim] = VALID
            | if write { DIRTY } else { 0 }
            | if placement == Placement::Explicit {
                EXPLICIT
            } else {
                0
            };
        Lookup {
            hit: false,
            evicted,
            bypassed: false,
        }
    }

    /// Explicitly places every line of `[addr, addr + bytes)` in the cache
    /// with the [`Placement::Explicit`] bit set, returning the number of
    /// lines touched.
    pub fn push_region(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        for line in first..=last {
            let _ = self.access(line << self.line_shift, false, Placement::Explicit);
        }
        last - first + 1
    }

    /// Invalidates `addr`'s line if present, returning whether it was dirty
    /// (and therefore needs a write-back by the coherence protocol).
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        let w = set * self.assoc + self.find(set, tag)?;
        self.flags[w] &= !VALID;
        Some(self.flags[w] & DIRTY != 0)
    }

    /// Number of valid lines currently held with each placement.
    #[must_use]
    pub fn occupancy(&self) -> (u64, u64) {
        let mut implicit = 0;
        let mut explicit = 0;
        for &f in &self.flags {
            if f & VALID != 0 {
                if f & EXPLICIT != 0 {
                    explicit += 1;
                } else {
                    implicit += 1;
                }
            }
        }
        (implicit, explicit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets × 4 ways × 64 B = 1 KiB.
        Cache::new(&CacheConfig {
            capacity_bytes: 1024,
            associativity: 4,
            line_bytes: 64,
            latency_cycles: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache();
        assert!(!c.access(0x100, false, Placement::Implicit).hit);
        assert!(c.access(0x100, false, Placement::Implicit).hit);
        assert!(c.access(0x13F, false, Placement::Implicit).hit); // same line
        assert!(!c.access(0x140, false, Placement::Implicit).hit); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_cache();
        // Fill all 4 ways of set 0 (addresses 64 B apart × 4 sets stride).
        let stride = 64 * 4;
        for i in 0..4u64 {
            c.access(i * stride, false, Placement::Implicit);
        }
        // Touch line 0 so line 1 becomes LRU, then force an eviction.
        c.access(0, false, Placement::Implicit);
        let look = c.access(4 * stride, false, Placement::Implicit);
        assert_eq!(
            look.evicted,
            Some(Evicted {
                addr: stride,
                dirty: false
            })
        );
        assert!(c.contains(0));
        assert!(!c.contains(stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache();
        let stride = 64 * 4;
        c.access(0, true, Placement::Implicit);
        for i in 1..=4u64 {
            c.access(i * stride, false, Placement::Implicit);
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn implicit_cannot_evict_explicit() {
        let mut c = small_cache();
        let stride = 64 * 4;
        // Three explicit lines (the cap is assoc-1 = 3) + one implicit.
        for i in 0..3u64 {
            c.access(i * stride, false, Placement::Explicit);
        }
        c.access(3 * stride, false, Placement::Implicit);
        // A new implicit fill may only displace the one implicit line.
        let look = c.access(4 * stride, false, Placement::Implicit);
        assert_eq!(
            look.evicted,
            Some(Evicted {
                addr: 3 * stride,
                dirty: false
            })
        );
        for i in 0..3u64 {
            assert!(c.contains(i * stride), "explicit line {i} must survive");
        }
    }

    #[test]
    fn explicit_footprint_is_capped() {
        let mut c = small_cache();
        let stride = 64 * 4;
        for i in 0..4u64 {
            c.access(i * stride, false, Placement::Explicit);
        }
        let (implicit, explicit) = c.occupancy();
        // The fourth explicit fill is demoted to implicit by the cap.
        assert_eq!(explicit, 3);
        assert_eq!(implicit, 1);
    }

    #[test]
    fn explicit_upgrade_on_hit_respects_the_cap() {
        // Found by property testing: filling 3 explicit + 1 implicit and
        // then re-pushing the implicit line must NOT make the set fully
        // explicit — the cap applies to upgrades as well as fills.
        let mut c = small_cache();
        let stride = 64 * 4;
        for i in 0..3u64 {
            c.access(i * stride, false, Placement::Explicit);
        }
        c.access(3 * stride, false, Placement::Implicit);
        c.access(3 * stride, false, Placement::Explicit); // upgrade attempt
        let (implicit, explicit) = c.occupancy();
        assert_eq!(explicit, 3);
        assert_eq!(implicit, 1);
        // And implicit traffic can therefore still allocate in this set.
        let look = c.access(4 * stride, false, Placement::Implicit);
        assert!(!look.bypassed);
    }

    #[test]
    fn ignoring_locality_restores_plain_lru() {
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            associativity: 4,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::with_locality(&cfg, false);
        let stride = 64 * 4;
        for i in 0..4u64 {
            c.access(i * stride, false, Placement::Explicit);
        }
        let look = c.access(4 * stride, false, Placement::Implicit);
        // Plain LRU: the oldest (explicit) line is displaced.
        assert_eq!(
            look.evicted,
            Some(Evicted {
                addr: 0,
                dirty: false
            })
        );
    }

    #[test]
    fn push_region_counts_lines_and_pins_them() {
        let mut c = small_cache();
        let n = c.push_region(0x80, 130); // spans lines 0x80, 0xC0, 0x100
        assert_eq!(n, 3);
        assert!(c.contains(0x80) && c.contains(0xC0) && c.contains(0x100));
        let (_, explicit) = c.occupancy();
        assert_eq!(explicit, 3);
        assert_eq!(c.push_region(0, 0), 0);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small_cache();
        c.access(0x40, true, Placement::Implicit);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = small_cache();
        let stride = 64 * 4; // maps to set 0
        let base = 0x1000;
        for i in 0..5u64 {
            c.access(base + i * stride, false, Placement::Implicit);
        }
        // All five map to the same set; the first must have been evicted
        // with its full original address.
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains(base));
    }

    #[test]
    fn bypass_when_set_fully_explicit() {
        // Associativity 1: the cap max(assoc-1, 1) = 1 allows the single way
        // to be explicit, so implicit fills must bypass.
        let cfg = CacheConfig {
            capacity_bytes: 256,
            associativity: 1,
            line_bytes: 64,
            latency_cycles: 1,
        };
        let mut c = Cache::new(&cfg);
        c.access(0, false, Placement::Explicit);
        let look = c.access(256, false, Placement::Implicit); // same set
        assert!(look.bypassed);
        assert!(c.contains(0));
        assert_eq!(c.stats().bypasses, 1);
    }
}
