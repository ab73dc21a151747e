//! The Promotion Look-aside Buffer (PLB) in the host bridge (§III-C and §IV).
//!
//! While a page is being promoted from the SSD to host DRAM, accesses to it
//! must stay consistent without stalling behind the copy. The PLB records
//! every in-flight migration: the source (SSD) page, the destination (host)
//! page, and a bitmap of cachelines already copied. Reads of a page under
//! promotion are served from the SSD DRAM; writes go to the most recent copy
//! — the host page if that cacheline has already migrated, the SSD otherwise.

use serde::{Deserialize, Serialize};
use skybyte_types::{CachelineIndex, PageNumber, CACHELINES_PER_PAGE};

/// Where a write to a page under promotion must be routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WriteRoute {
    /// The cacheline has already been copied: write the host DRAM copy.
    HostDram,
    /// The cacheline has not been copied yet: write the SSD copy.
    CxlSsd,
}

/// One PLB entry: an in-flight 4 KiB page promotion.
///
/// The paper sizes each entry at 24 B: source and destination page addresses
/// (8 B each), the migrated-cacheline bitmap (8 B) and a valid bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlbEntry {
    /// Source page in the SSD (device page number).
    pub source: PageNumber,
    /// Destination page in host DRAM (host page number).
    pub destination: PageNumber,
    /// Bit *i* set ⇔ cacheline *i* has been copied to the destination.
    pub migrated_bitmap: u64,
}

impl PlbEntry {
    /// Whether every cacheline of the page has been copied.
    pub fn is_complete(&self) -> bool {
        self.migrated_bitmap == u64::MAX
    }

    /// Number of cachelines copied so far.
    pub fn migrated_count(&self) -> u32 {
        self.migrated_bitmap.count_ones()
    }
}

/// The Promotion Look-aside Buffer: a small, fully-associative table of
/// in-flight page promotions (64 entries in the paper).
///
/// # Example
///
/// ```
/// use skybyte_cxl::{PromotionLookasideBuffer, WriteRoute};
/// use skybyte_types::PageNumber;
///
/// let mut plb = PromotionLookasideBuffer::new(64);
/// plb.begin(PageNumber(10), PageNumber(900)).unwrap();
/// assert_eq!(plb.route_write(PageNumber(10), 3), Some(WriteRoute::CxlSsd));
/// plb.mark_migrated(PageNumber(10), 3);
/// assert_eq!(plb.route_write(PageNumber(10), 3), Some(WriteRoute::HostDram));
/// let entry = plb.complete(PageNumber(10)).unwrap();
/// assert_eq!(entry.destination, PageNumber(900));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PromotionLookasideBuffer {
    capacity: usize,
    entries: Vec<PlbEntry>,
}

impl PromotionLookasideBuffer {
    /// Creates a PLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "PLB needs at least one entry");
        PromotionLookasideBuffer {
            capacity: capacity as usize,
            entries: Vec::new(),
        }
    }

    /// Starts tracking a promotion of `source` (SSD page) to `destination`
    /// (host page). Returns `Err` with the rejected pair if the PLB is full
    /// or the source page is already migrating.
    pub fn begin(
        &mut self,
        source: PageNumber,
        destination: PageNumber,
    ) -> Result<(), (PageNumber, PageNumber)> {
        if self.entries.len() >= self.capacity || self.lookup(source).is_some() {
            return Err((source, destination));
        }
        self.entries.push(PlbEntry {
            source,
            destination,
            migrated_bitmap: 0,
        });
        Ok(())
    }

    /// The entry tracking `source`, if it is under promotion.
    pub fn lookup(&self, source: PageNumber) -> Option<&PlbEntry> {
        self.entries.iter().find(|e| e.source == source)
    }

    /// Whether `source` is currently being promoted.
    pub fn is_migrating(&self, source: PageNumber) -> bool {
        self.lookup(source).is_some()
    }

    /// Records that cacheline `cl` of `source` has been copied to the host.
    /// Returns `false` if the page is not under promotion.
    pub fn mark_migrated(&mut self, source: PageNumber, cl: CachelineIndex) -> bool {
        if let Some(e) = self.entries.iter_mut().find(|e| e.source == source) {
            e.migrated_bitmap |= 1u64 << (cl as usize % CACHELINES_PER_PAGE);
            true
        } else {
            false
        }
    }

    /// Routing decision for a *write* to a page under promotion, or `None`
    /// if the page is not migrating (normal routing applies).
    pub fn route_write(&self, source: PageNumber, cl: CachelineIndex) -> Option<WriteRoute> {
        self.lookup(source).map(|e| {
            if e.migrated_bitmap & (1u64 << (cl as usize % CACHELINES_PER_PAGE)) != 0 {
                WriteRoute::HostDram
            } else {
                WriteRoute::CxlSsd
            }
        })
    }

    /// Finishes the promotion of `source`, removing and returning its entry.
    pub fn complete(&mut self, source: PageNumber) -> Option<PlbEntry> {
        let idx = self.entries.iter().position(|e| e.source == source)?;
        Some(self.entries.swap_remove(idx))
    }

    /// Number of promotions in flight.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether no more promotions can start.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_route_complete_cycle() {
        let mut plb = PromotionLookasideBuffer::new(2);
        plb.begin(PageNumber(1), PageNumber(100)).unwrap();
        assert!(plb.is_migrating(PageNumber(1)));
        assert!(!plb.is_migrating(PageNumber(2)));
        assert_eq!(plb.route_write(PageNumber(1), 0), Some(WriteRoute::CxlSsd));
        plb.mark_migrated(PageNumber(1), 0);
        assert_eq!(
            plb.route_write(PageNumber(1), 0),
            Some(WriteRoute::HostDram)
        );
        assert_eq!(plb.route_write(PageNumber(1), 1), Some(WriteRoute::CxlSsd));
        assert_eq!(plb.route_write(PageNumber(5), 0), None);
        let entry = plb.complete(PageNumber(1)).unwrap();
        assert_eq!(entry.destination, PageNumber(100));
        assert_eq!(entry.migrated_count(), 1);
        assert!(plb.complete(PageNumber(1)).is_none());
        assert_eq!(plb.occupancy(), 0);
    }

    #[test]
    fn capacity_and_duplicates_rejected() {
        let mut plb = PromotionLookasideBuffer::new(1);
        plb.begin(PageNumber(1), PageNumber(10)).unwrap();
        assert!(plb.is_full());
        assert!(plb.begin(PageNumber(2), PageNumber(20)).is_err());
        // Duplicate source also rejected.
        let mut plb2 = PromotionLookasideBuffer::new(4);
        plb2.begin(PageNumber(1), PageNumber(10)).unwrap();
        assert!(plb2.begin(PageNumber(1), PageNumber(11)).is_err());
        assert_eq!(plb2.capacity(), 4);
    }

    #[test]
    fn entry_completion_bitmap() {
        let mut plb = PromotionLookasideBuffer::new(1);
        plb.begin(PageNumber(3), PageNumber(30)).unwrap();
        for cl in 0..64u8 {
            plb.mark_migrated(PageNumber(3), cl);
        }
        assert!(plb.lookup(PageNumber(3)).unwrap().is_complete());
        assert!(!plb.mark_migrated(PageNumber(99), 0));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_empty_plb() {
        let _ = PromotionLookasideBuffer::new(0);
    }
}
