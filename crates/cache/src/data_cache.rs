//! The page-granular, set-associative read-write data cache of the SSD DRAM.
//!
//! Pages are fetched from flash on read misses (a whole page must be read
//! anyway) and cached to exploit spatial locality. The cache tracks per-page
//! dirty-cacheline bitmaps: in the **Base-CSSD** baseline dirty pages are
//! written back in full on eviction (the write-amplification problem of
//! §II-C); in SkyByte the write log absorbs writes instead and cached pages
//! stay clean unless explicitly updated in parallel with the log (W2 of
//! Figure 11).

use crate::policy::{Admission, Eviction, WayMeta};
use serde::{Deserialize, Serialize};
use skybyte_types::policy::{AdmissionPolicyKind, EvictionPolicyKind};
use skybyte_types::{CachelineIndex, Lpa, CACHELINES_PER_PAGE, PAGE_SIZE};

/// A page evicted from the data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedPage {
    /// The evicted logical page.
    pub lpa: Lpa,
    /// Bitmap of dirty cachelines (nonzero means the page must be written
    /// back to flash in a page-granular design).
    pub dirty_bitmap: u64,
}

impl EvictedPage {
    /// Whether any cacheline of the evicted page was dirty.
    pub fn is_dirty(&self) -> bool {
        self.dirty_bitmap != 0
    }

    /// Number of dirty cachelines in the evicted page.
    pub fn dirty_count(&self) -> u32 {
        self.dirty_bitmap.count_ones()
    }
}

/// Hit/miss statistics of the data cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Dirty pages evicted (requiring a flash write in page-granular mode).
    pub dirty_evictions: u64,
    /// Total dirty cachelines across all dirty evictions (for the Figure 6
    /// style locality accounting).
    pub dirty_cachelines_evicted: u64,
    /// Total accessed cachelines observed at eviction time (Figure 5 style).
    pub accessed_cachelines_evicted: u64,
    /// New-page insertions rejected by the admission policy (always zero
    /// under the default admit-all policy).
    pub admission_bypasses: u64,
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    lpa: Lpa,
    dirty_bitmap: u64,
    accessed_bitmap: u64,
}

/// A set-associative, page-granular cache indexed by logical page address.
///
/// Replacement and admission decisions are made by [`Eviction`] and
/// [`Admission`]; the defaults (pseudo-LRU, admit-all) reproduce the
/// original hard-wired cache decision for decision.
///
/// # Example
///
/// ```
/// use skybyte_cache::DataCache;
/// use skybyte_types::Lpa;
///
/// let mut cache = DataCache::new(8 * 4096, 2); // 8 pages, 2-way
/// assert!(cache.insert(Lpa::new(1)).is_none());
/// assert!(cache.contains(Lpa::new(1)));
/// cache.mark_dirty(Lpa::new(1), 3);
/// assert_eq!(cache.dirty_bitmap(Lpa::new(1)), Some(1 << 3));
/// ```
#[derive(Debug, Clone)]
pub struct DataCache {
    sets: Vec<Vec<PageEntry>>,
    /// Per-way replacement metadata, kept in lockstep with `sets`.
    meta: Vec<Vec<WayMeta>>,
    ways: usize,
    capacity_pages: usize,
    tick: u64,
    eviction: Eviction,
    admission: Admission,
    stats: DataCacheStats,
}

impl DataCache {
    /// Creates a cache of `size_bytes` capacity with the given associativity
    /// and the default policies (pseudo-LRU eviction, admit-all admission).
    /// The number of sets is rounded down to at least one.
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot hold at least one page or `ways == 0`.
    pub fn new(size_bytes: u64, ways: u32) -> Self {
        Self::with_policies(
            size_bytes,
            ways,
            EvictionPolicyKind::default(),
            AdmissionPolicyKind::default(),
        )
    }

    /// Creates a cache with explicit eviction and admission policies.
    ///
    /// # Panics
    ///
    /// Panics if the cache cannot hold at least one page or `ways == 0`.
    pub fn with_policies(
        size_bytes: u64,
        ways: u32,
        eviction: EvictionPolicyKind,
        admission: AdmissionPolicyKind,
    ) -> Self {
        assert!(ways > 0, "associativity must be at least 1");
        let capacity_pages = (size_bytes / PAGE_SIZE as u64) as usize;
        assert!(
            capacity_pages >= 1,
            "data cache too small: {size_bytes} bytes"
        );
        let ways = (ways as usize).min(capacity_pages);
        let sets = (capacity_pages / ways).max(1);
        DataCache {
            sets: vec![Vec::with_capacity(ways); sets],
            meta: vec![Vec::with_capacity(ways); sets],
            ways,
            capacity_pages: sets * ways,
            tick: 0,
            eviction: Eviction::new(eviction, sets, ways),
            admission: Admission::new(admission),
            stats: DataCacheStats::default(),
        }
    }

    fn set_of(&self, lpa: Lpa) -> usize {
        (lpa.index() % self.sets.len() as u64) as usize
    }

    /// Looks up a page, updating replacement state and recording the accessed
    /// cacheline. Returns `true` on a hit.
    pub fn access(&mut self, lpa: Lpa, cl: CachelineIndex) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(lpa);
        let found = self.sets[set].iter().position(|e| e.lpa == lpa);
        match found {
            Some(way) => {
                self.meta[set][way].last_access = tick;
                self.eviction.on_hit(way, &mut self.meta[set]);
                self.sets[set][way].accessed_bitmap |= 1u64 << (cl as usize % CACHELINES_PER_PAGE);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether the page is cached (no replacement update, no statistics).
    pub fn contains(&self, lpa: Lpa) -> bool {
        let set = self.set_of(lpa);
        self.sets[set].iter().any(|e| e.lpa == lpa)
    }

    /// Inserts a page fetched from flash, evicting the policy's victim if the
    /// set is full. Returns the evicted page, if any.
    ///
    /// Inserting an already-cached page refreshes its replacement position
    /// and returns `None`. A page the admission policy rejects is not
    /// inserted (and nothing is evicted); rejections are counted in
    /// [`DataCacheStats::admission_bypasses`].
    pub fn insert(&mut self, lpa: Lpa) -> Option<EvictedPage> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(lpa);
        if let Some(way) = self.sets[set].iter().position(|e| e.lpa == lpa) {
            self.meta[set][way].last_access = tick;
            self.eviction.on_hit(way, &mut self.meta[set]);
            return None;
        }
        if !self.admission.admit(lpa) {
            self.stats.admission_bypasses += 1;
            return None;
        }
        self.stats.insertions += 1;
        let mut evicted = None;
        if self.sets[set].len() >= self.ways {
            let victim_idx = self.eviction.victim(set, &mut self.meta[set]);
            let victim = self.sets[set].swap_remove(victim_idx);
            self.meta[set].swap_remove(victim_idx);
            self.stats.evictions += 1;
            self.stats.accessed_cachelines_evicted += victim.accessed_bitmap.count_ones() as u64;
            if victim.dirty_bitmap != 0 {
                self.stats.dirty_evictions += 1;
                self.stats.dirty_cachelines_evicted += victim.dirty_bitmap.count_ones() as u64;
            }
            evicted = Some(EvictedPage {
                lpa: victim.lpa,
                dirty_bitmap: victim.dirty_bitmap,
            });
        }
        self.sets[set].push(PageEntry {
            lpa,
            dirty_bitmap: 0,
            accessed_bitmap: 0,
        });
        self.meta[set].push(WayMeta::inserted(tick));
        evicted
    }

    /// Marks one cacheline of a cached page dirty (W2 of Figure 11 for
    /// SkyByte, or the write path of Base-CSSD). Returns `false` if the page
    /// is not cached.
    pub fn mark_dirty(&mut self, lpa: Lpa, cl: CachelineIndex) -> bool {
        let set = self.set_of(lpa);
        if let Some(e) = self.sets[set].iter_mut().find(|e| e.lpa == lpa) {
            let bit = 1u64 << (cl as usize % CACHELINES_PER_PAGE);
            e.dirty_bitmap |= bit;
            e.accessed_bitmap |= bit;
            true
        } else {
            false
        }
    }

    /// Clears the dirty bitmap of a cached page (after the page has been
    /// flushed to flash by compaction). Returns the previous bitmap.
    pub fn clean(&mut self, lpa: Lpa) -> Option<u64> {
        let set = self.set_of(lpa);
        self.sets[set].iter_mut().find(|e| e.lpa == lpa).map(|e| {
            let old = e.dirty_bitmap;
            e.dirty_bitmap = 0;
            old
        })
    }

    /// Dirty-cacheline bitmap of a cached page.
    pub fn dirty_bitmap(&self, lpa: Lpa) -> Option<u64> {
        let set = self.set_of(lpa);
        self.sets[set]
            .iter()
            .find(|e| e.lpa == lpa)
            .map(|e| e.dirty_bitmap)
    }

    /// Removes a page (used when it is promoted to host DRAM). Returns the
    /// removed page's eviction record if it was present.
    pub fn remove(&mut self, lpa: Lpa) -> Option<EvictedPage> {
        let set = self.set_of(lpa);
        let idx = self.sets[set].iter().position(|e| e.lpa == lpa)?;
        let e = self.sets[set].swap_remove(idx);
        self.meta[set].swap_remove(idx);
        Some(EvictedPage {
            lpa: e.lpa,
            dirty_bitmap: e.dirty_bitmap,
        })
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of pages the cache can hold.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &DataCacheStats {
        &self.stats
    }

    /// The LPAs of all currently cached pages (unordered).
    pub fn cached_pages(&self) -> Vec<Lpa> {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|e| e.lpa))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_and_access() {
        let mut c = DataCache::new(4 * 4096, 4);
        assert!(!c.access(Lpa::new(1), 0));
        c.insert(Lpa::new(1));
        assert!(c.access(Lpa::new(1), 5));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity_pages(), 4);
    }

    #[test]
    fn lru_eviction_within_set() {
        // 1 set, 2 ways.
        let mut c = DataCache::new(2 * 4096, 2);
        c.insert(Lpa::new(1));
        c.insert(Lpa::new(2));
        // Touch page 1 so page 2 becomes LRU.
        c.access(Lpa::new(1), 0);
        let evicted = c.insert(Lpa::new(3)).expect("eviction");
        assert_eq!(evicted.lpa, Lpa::new(2));
        assert!(!evicted.is_dirty());
        assert!(c.contains(Lpa::new(1)));
        assert!(c.contains(Lpa::new(3)));
        assert!(!c.contains(Lpa::new(2)));
    }

    #[test]
    fn dirty_tracking_and_clean() {
        let mut c = DataCache::new(2 * 4096, 2);
        c.insert(Lpa::new(1));
        assert!(c.mark_dirty(Lpa::new(1), 3));
        assert!(c.mark_dirty(Lpa::new(1), 10));
        assert!(!c.mark_dirty(Lpa::new(9), 0));
        assert_eq!(c.dirty_bitmap(Lpa::new(1)), Some((1 << 3) | (1 << 10)));
        assert_eq!(c.clean(Lpa::new(1)), Some((1 << 3) | (1 << 10)));
        assert_eq!(c.dirty_bitmap(Lpa::new(1)), Some(0));
        assert_eq!(c.clean(Lpa::new(42)), None);
    }

    #[test]
    fn dirty_eviction_statistics() {
        let mut c = DataCache::new(4096, 1);
        c.insert(Lpa::new(1));
        c.mark_dirty(Lpa::new(1), 0);
        c.mark_dirty(Lpa::new(1), 1);
        let e = c.insert(Lpa::new(2)).unwrap();
        assert!(e.is_dirty());
        assert_eq!(e.dirty_count(), 2);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().dirty_cachelines_evicted, 2);
    }

    #[test]
    fn remove_for_promotion() {
        let mut c = DataCache::new(4 * 4096, 4);
        c.insert(Lpa::new(7));
        c.mark_dirty(Lpa::new(7), 1);
        let removed = c.remove(Lpa::new(7)).unwrap();
        assert_eq!(removed.lpa, Lpa::new(7));
        assert!(removed.is_dirty());
        assert!(!c.contains(Lpa::new(7)));
        assert!(c.remove(Lpa::new(7)).is_none());
    }

    #[test]
    fn reinsert_refreshes_lru_without_eviction() {
        let mut c = DataCache::new(2 * 4096, 2);
        c.insert(Lpa::new(1));
        c.insert(Lpa::new(2));
        assert!(c.insert(Lpa::new(1)).is_none());
        // Page 2 is now LRU.
        let e = c.insert(Lpa::new(3)).unwrap();
        assert_eq!(e.lpa, Lpa::new(2));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = DataCache::new(8 * 4096, 2);
        for i in 0..100u64 {
            c.insert(Lpa::new(i));
            assert!(c.len() <= c.capacity_pages());
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_tiny_cache() {
        let _ = DataCache::new(100, 1);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_zero_ways() {
        let _ = DataCache::new(4096, 0);
    }

    #[test]
    fn default_policies_are_pseudo_lru_admit_all() {
        let c = DataCache::new(4 * 4096, 4);
        assert!(matches!(c.eviction, Eviction::PseudoLru));
        assert!(matches!(c.admission, Admission::AdmitAll));
    }

    #[test]
    fn clock_policy_spares_referenced_pages() {
        // 1 set, 2 ways, CLOCK.
        let mut c = DataCache::with_policies(
            2 * 4096,
            2,
            EvictionPolicyKind::Clock,
            AdmissionPolicyKind::AdmitAll,
        );
        c.insert(Lpa::new(1));
        c.insert(Lpa::new(2));
        c.access(Lpa::new(1), 0); // sets page 1's reference bit
        let e = c.insert(Lpa::new(3)).expect("eviction");
        assert_eq!(e.lpa, Lpa::new(2));
        assert!(c.contains(Lpa::new(1)));
    }

    #[test]
    fn two_q_policy_evicts_probationary_pages_first() {
        // 1 set, 4 ways, 2Q: page 1 is re-referenced (protected), the scan
        // pages 2..4 churn through the probationary segment.
        let mut c = DataCache::with_policies(
            4 * 4096,
            4,
            EvictionPolicyKind::TwoQ,
            AdmissionPolicyKind::AdmitAll,
        );
        for i in 1..=4u64 {
            c.insert(Lpa::new(i));
        }
        c.access(Lpa::new(1), 0); // promote to protected
        let e = c.insert(Lpa::new(5)).expect("eviction");
        assert_eq!(e.lpa, Lpa::new(2), "oldest probationary page goes first");
        assert!(c.contains(Lpa::new(1)));
    }

    #[test]
    fn fifo_policy_evicts_in_insertion_order() {
        let mut c = DataCache::with_policies(
            2 * 4096,
            2,
            EvictionPolicyKind::Fifo,
            AdmissionPolicyKind::AdmitAll,
        );
        c.insert(Lpa::new(1));
        c.insert(Lpa::new(2));
        c.access(Lpa::new(1), 0); // recency must not matter
        let e = c.insert(Lpa::new(3)).expect("eviction");
        assert_eq!(e.lpa, Lpa::new(1));
    }

    #[test]
    fn bypass_scan_admission_rejects_long_sequential_runs() {
        let mut c = DataCache::with_policies(
            64 * 4096,
            4,
            EvictionPolicyKind::PseudoLru,
            AdmissionPolicyKind::BypassScan,
        );
        for i in 0..32u64 {
            c.insert(Lpa::new(i));
        }
        assert!(c.stats().admission_bypasses > 0);
        assert!(
            c.len() < 32,
            "a long scan must not fully populate the cache"
        );
        // A non-sequential page is admitted again.
        c.insert(Lpa::new(1000));
        assert!(c.contains(Lpa::new(1000)));
    }

    proptest! {
        /// The cache never exceeds its capacity and `contains` is consistent
        /// with `cached_pages` under arbitrary insert/access/remove sequences.
        #[test]
        fn prop_capacity_and_consistency(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..300)) {
            let mut c = DataCache::new(16 * 4096, 4);
            for (op, page) in ops {
                match op {
                    0 => { c.insert(Lpa::new(page)); }
                    1 => { c.access(Lpa::new(page), (page % 64) as u8); }
                    _ => { c.remove(Lpa::new(page)); }
                }
                prop_assert!(c.len() <= c.capacity_pages());
                let cached = c.cached_pages();
                prop_assert_eq!(cached.len(), c.len());
                for lpa in cached {
                    prop_assert!(c.contains(lpa));
                }
            }
        }
    }
}
