//! The host-DRAM promotion pool and Linux-style page reclamation.
//!
//! The host reserves a bounded budget of DRAM (2 GiB in Table II) for pages
//! promoted from the CXL-SSD. When the budget is exhausted, SkyByte uses the
//! existing Linux page-reclamation machinery to find a relatively cold page —
//! tracked with active/inactive lists — evict it back to the SSD, and reuse
//! its host frame (§III-C).
//!
//! Both lists are doubly linked through a slab indexed by host frame number,
//! so moving, appending or unlinking a page is O(1): `promote`,
//! `record_access` and `evict` cost one hash lookup plus a few index writes,
//! and `reclaim_candidate` is O(1) per page it ages. No list is ever scanned.

use skybyte_types::{FastHashMap, Lpa, PageNumber, PAGE_SIZE};

/// Result of asking the pool to make room for a new promotion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDecision {
    /// A free host frame was available.
    Allocated(PageNumber),
    /// The budget is full: the given cold page must be evicted back to the
    /// SSD first, then the promotion can retry.
    NeedsEviction(Lpa),
}

/// End-of-list marker for [`Link`] indices.
const NIL: usize = usize::MAX;

/// The list links of one host frame's slab slot.
#[derive(Debug, Clone, Copy)]
struct Link {
    lpa: Lpa,
    prev: usize,
    next: usize,
    /// Whether the frame is on the active list (else the inactive one).
    active: bool,
}

/// Head (oldest) and tail (newest) frame of one list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: usize,
    tail: usize,
    len: usize,
}

/// The active and inactive lists, linked through a slab indexed by frame.
#[derive(Debug, Clone)]
struct LruLists {
    links: Vec<Link>,
    /// `[inactive, active]`.
    ends: [Ends; 2],
}

impl LruLists {
    fn new() -> Self {
        let empty = Ends {
            head: NIL,
            tail: NIL,
            len: 0,
        };
        LruLists {
            links: Vec::new(),
            ends: [empty; 2],
        }
    }

    fn len(&self, active: bool) -> usize {
        self.ends[active as usize].len
    }

    fn front(&self, active: bool) -> Option<usize> {
        let head = self.ends[active as usize].head;
        (head != NIL).then_some(head)
    }

    /// Appends `frame`, holding `lpa`, to the newest end of a list. The frame
    /// must not be on either list.
    fn push_back(&mut self, frame: usize, lpa: Lpa, active: bool) {
        let ends = &mut self.ends[active as usize];
        let link = Link {
            lpa,
            prev: ends.tail,
            next: NIL,
            active,
        };
        match ends.tail {
            NIL => ends.head = frame,
            tail => self.links[tail].next = frame,
        }
        ends.tail = frame;
        ends.len += 1;
        // Frames are numbered densely, so a frame past the slab is the next.
        if frame == self.links.len() {
            self.links.push(link);
        } else {
            self.links[frame] = link;
        }
    }

    /// Removes `frame` from whichever list holds it.
    fn unlink(&mut self, frame: usize) {
        let Link {
            prev, next, active, ..
        } = self.links[frame];
        let ends = &mut self.ends[active as usize];
        match prev {
            NIL => ends.head = next,
            prev => self.links[prev].next = next,
        }
        match next {
            NIL => ends.tail = prev,
            next => self.links[next].prev = prev,
        }
        ends.len -= 1;
    }

    /// Moves `frame` to the newest end of the active list if `active`, else
    /// of the inactive one.
    fn move_to_back(&mut self, frame: usize, active: bool) {
        self.unlink(frame);
        self.push_back(frame, self.links[frame].lpa, active);
    }
}

/// The bounded pool of host-DRAM frames holding promoted SSD pages, with
/// active/inactive LRU lists for reclamation.
#[derive(Debug, Clone)]
pub struct HostMemoryPool {
    capacity_pages: u64,
    next_frame: u64,
    free_frames: Vec<PageNumber>,
    /// Promoted pages: SSD LPA → host frame.
    resident: FastHashMap<Lpa, PageNumber>,
    /// Recently-used promoted pages (newest at the tail) and pages not used
    /// recently, the eviction candidates (oldest at the head).
    lists: LruLists,
}

impl HostMemoryPool {
    /// Creates a pool with a budget of `capacity_bytes` of host DRAM.
    pub fn new(capacity_bytes: u64) -> Self {
        HostMemoryPool {
            capacity_pages: capacity_bytes / PAGE_SIZE as u64,
            next_frame: 0,
            free_frames: Vec::new(),
            resident: FastHashMap::default(),
            lists: LruLists::new(),
        }
    }

    /// Maximum number of promoted pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Number of pages currently promoted.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Whether `lpa` is currently promoted.
    pub fn contains(&self, lpa: Lpa) -> bool {
        self.resident.contains_key(&lpa)
    }

    /// Tries to allocate a host frame for promoting `lpa`.
    ///
    /// Returns [`PoolDecision::Allocated`] and records the residency when a
    /// frame is available, or [`PoolDecision::NeedsEviction`] naming the
    /// coldest resident page when the budget is full. Promoting a page that
    /// is already resident returns its existing frame.
    pub fn promote(&mut self, lpa: Lpa) -> PoolDecision {
        if let Some(&frame) = self.resident.get(&lpa) {
            return PoolDecision::Allocated(frame);
        }
        if self.resident.len() as u64 >= self.capacity_pages {
            let victim = self.reclaim_candidate();
            return match victim {
                Some(v) => PoolDecision::NeedsEviction(v),
                // Capacity zero: force the caller to skip promotion.
                None => PoolDecision::NeedsEviction(lpa),
            };
        }
        let frame = self.free_frames.pop().unwrap_or_else(|| {
            let f = PageNumber(self.next_frame);
            self.next_frame += 1;
            f
        });
        self.resident.insert(lpa, frame);
        self.lists.push_back(slot(frame), lpa, false);
        PoolDecision::Allocated(frame)
    }

    /// Records an access to a promoted page: second touches move the page
    /// from the inactive to the active list, like the Linux workingset code,
    /// and touches of an active page refresh its position in that list.
    pub fn record_access(&mut self, lpa: Lpa) {
        if let Some(&frame) = self.resident.get(&lpa) {
            self.lists.move_to_back(slot(frame), true);
        }
    }

    /// Evicts a promoted page, freeing its frame. Returns the freed frame, or
    /// `None` if the page was not resident.
    pub fn evict(&mut self, lpa: Lpa) -> Option<PageNumber> {
        let frame = self.resident.remove(&lpa)?;
        self.lists.unlink(slot(frame));
        self.free_frames.push(frame);
        Some(frame)
    }

    /// The page the reclamation policy would evict next: the oldest inactive
    /// page, falling back to the oldest active page (with active pages aged
    /// into the inactive list first, as in Linux).
    pub fn reclaim_candidate(&mut self) -> Option<Lpa> {
        if self.lists.len(false) == 0 {
            // Age the active list: move the oldest half to inactive.
            for _ in 0..self.lists.len(true).div_ceil(2) {
                let oldest = self.lists.front(true).expect("active list has len pages");
                self.lists.move_to_back(oldest, false);
            }
        }
        self.lists
            .front(false)
            .map(|frame| self.lists.links[frame].lpa)
    }
}

/// The slab slot of a host frame: frames are numbered densely from zero.
fn slot(frame: PageNumber) -> usize {
    usize::try_from(frame.0).expect("host frame numbers fit in usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn pool(pages: u64) -> HostMemoryPool {
        HostMemoryPool::new(pages * PAGE_SIZE as u64)
    }

    #[test]
    fn promote_until_full_then_reclaim() {
        let mut p = pool(2);
        assert_eq!(p.capacity_pages(), 2);
        let a = p.promote(Lpa::new(1));
        let b = p.promote(Lpa::new(2));
        assert!(matches!(a, PoolDecision::Allocated(_)));
        assert!(matches!(b, PoolDecision::Allocated(_)));
        assert_eq!(p.resident_pages(), 2);
        // Third promotion requires evicting the coldest page (LPA 1, never
        // re-touched).
        match p.promote(Lpa::new(3)) {
            PoolDecision::NeedsEviction(victim) => assert_eq!(victim, Lpa::new(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        let freed = p.evict(Lpa::new(1)).unwrap();
        assert_eq!(p.resident_pages(), 1);
        assert!(!p.contains(Lpa::new(1)));
        match p.promote(Lpa::new(3)) {
            PoolDecision::Allocated(frame) => assert_eq!(frame, freed),
            other => panic!("expected allocation, got {other:?}"),
        }
        assert_eq!(p.resident_pages(), 2);
        assert!(p.contains(Lpa::new(2)) && p.contains(Lpa::new(3)));
    }

    #[test]
    fn accessed_pages_are_protected_from_reclaim() {
        let mut p = pool(2);
        p.promote(Lpa::new(1));
        p.promote(Lpa::new(2));
        // Touch page 1: it moves to the active list; page 2 stays inactive.
        p.record_access(Lpa::new(1));
        match p.promote(Lpa::new(3)) {
            PoolDecision::NeedsEviction(victim) => assert_eq!(victim, Lpa::new(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn active_list_ages_when_inactive_empty() {
        let mut p = pool(2);
        p.promote(Lpa::new(1));
        p.promote(Lpa::new(2));
        p.record_access(Lpa::new(1));
        p.record_access(Lpa::new(2));
        // Both active; reclamation must still find a victim by aging.
        let victim = p.reclaim_candidate();
        assert!(victim.is_some());
    }

    #[test]
    fn repromoting_resident_page_returns_same_frame() {
        let mut p = pool(2);
        let first = match p.promote(Lpa::new(5)) {
            PoolDecision::Allocated(f) => f,
            _ => unreachable!(),
        };
        match p.promote(Lpa::new(5)) {
            PoolDecision::Allocated(f) => assert_eq!(f, first),
            _ => panic!("resident page should stay allocated"),
        }
        assert_eq!(p.resident_pages(), 1);
        assert!(p.contains(Lpa::new(5)));
    }

    #[test]
    fn evicting_missing_page_is_none() {
        let mut p = pool(1);
        assert!(p.evict(Lpa::new(9)).is_none());
        p.record_access(Lpa::new(9)); // harmless on non-resident pages
    }

    /// The pool as it was before the linked lists: `VecDeque` lists with a
    /// linear scan per access and per eviction. The equivalence test below
    /// drives both with the same operations.
    struct ReferencePool {
        capacity_pages: u64,
        next_frame: u64,
        free_frames: Vec<PageNumber>,
        resident: FastHashMap<Lpa, PageNumber>,
        active: VecDeque<Lpa>,
        inactive: VecDeque<Lpa>,
    }

    impl ReferencePool {
        fn new(capacity_pages: u64) -> Self {
            ReferencePool {
                capacity_pages,
                next_frame: 0,
                free_frames: Vec::new(),
                resident: FastHashMap::default(),
                active: VecDeque::new(),
                inactive: VecDeque::new(),
            }
        }

        fn promote(&mut self, lpa: Lpa) -> PoolDecision {
            if let Some(&frame) = self.resident.get(&lpa) {
                return PoolDecision::Allocated(frame);
            }
            if self.resident.len() as u64 >= self.capacity_pages {
                return PoolDecision::NeedsEviction(self.reclaim_candidate().unwrap_or(lpa));
            }
            let frame = self.free_frames.pop().unwrap_or_else(|| {
                self.next_frame += 1;
                PageNumber(self.next_frame - 1)
            });
            self.resident.insert(lpa, frame);
            self.inactive.push_back(lpa);
            PoolDecision::Allocated(frame)
        }

        fn record_access(&mut self, lpa: Lpa) {
            if !self.resident.contains_key(&lpa) {
                return;
            }
            if let Some(pos) = self.inactive.iter().position(|l| *l == lpa) {
                self.inactive.remove(pos);
            } else if let Some(pos) = self.active.iter().position(|l| *l == lpa) {
                self.active.remove(pos);
            }
            self.active.push_back(lpa);
        }

        fn evict(&mut self, lpa: Lpa) -> Option<PageNumber> {
            let frame = self.resident.remove(&lpa)?;
            self.active.retain(|l| *l != lpa);
            self.inactive.retain(|l| *l != lpa);
            self.free_frames.push(frame);
            Some(frame)
        }

        fn reclaim_candidate(&mut self) -> Option<Lpa> {
            if self.inactive.is_empty() {
                for _ in 0..self.active.len().div_ceil(2) {
                    let l = self.active.pop_front().expect("counted");
                    self.inactive.push_back(l);
                }
            }
            self.inactive.front().copied()
        }
    }

    #[test]
    fn linked_lists_match_the_scanning_reference() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;

        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(0x9001);
        for case in 0..400 {
            let capacity = case % 9;
            let mut fast = pool(capacity);
            let mut reference = ReferencePool::new(capacity);
            for step in 0..rng.gen_range(1..600) {
                let lpa = Lpa::new(rng.gen_range(0..16));
                let at = format!("case {case}, step {step}");
                match rng.gen_range(0..8) {
                    0..=2 => assert_eq!(fast.promote(lpa), reference.promote(lpa), "{at}"),
                    3..=5 => {
                        fast.record_access(lpa);
                        reference.record_access(lpa);
                    }
                    6 => assert_eq!(fast.evict(lpa), reference.evict(lpa), "{at}"),
                    _ => assert_eq!(
                        fast.reclaim_candidate(),
                        reference.reclaim_candidate(),
                        "{at}"
                    ),
                }
                assert_eq!(
                    fast.resident_pages(),
                    reference.resident.len() as u64,
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn zero_capacity_pool_never_allocates() {
        let mut p = pool(0);
        assert!(matches!(
            p.promote(Lpa::new(1)),
            PoolDecision::NeedsEviction(_)
        ));
        assert_eq!(p.resident_pages(), 0);
    }
}
