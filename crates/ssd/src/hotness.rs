//! Per-page access tracking for adaptive page migration (§III-C).
//!
//! The SSD controller counts accesses to each logical page and nominates
//! promotion candidates; SkyByte only promotes pages that are resident in
//! the SSD DRAM data cache (the candidate hot pages are there by
//! construction). *How* hotness is measured is chosen by
//! [`HotnessPolicyKind`], and [`HotnessTracker`] holds one of three
//! trackers:
//!
//! * [`HotPageTracker`] — the paper's design and the default: exact per-page
//!   counters with a fixed nomination threshold. Exactness costs memory —
//!   one counter per distinct page ever touched (the
//!   [`tracked_pages`](HotnessTracker::tracked_pages) gauge in `SsdStats`
//!   makes that growth observable). Zero-count entries are compacted away
//!   rather than stored.
//! * [`DecayTracker`] — exponentially decayed frequency: counters are halved
//!   every [`DECAY_PERIOD_ACCESSES`] recorded accesses and entries that
//!   decay to zero are dropped, bounding memory on long traces while still
//!   favouring sustained hotness over one-shot bursts.
//! * [`TopKTracker`] — windowed top-k: pages are counted inside a fixed
//!   window of [`TOPK_WINDOW_ACCESSES`] accesses and only the
//!   [`TOPK_CANDIDATES`] hottest re-referenced pages of each window are
//!   nominated; counts reset between windows, so memory is bounded by the
//!   window size.
//!
//! Each tracker owns only its counting rule. The pending candidates and
//! promoted marks, and everything done with them, are common to all three
//! and live in [`HotnessTracker`].

use skybyte_types::policy::HotnessPolicyKind;
use skybyte_types::{FastHashMap, FastHashSet, Lpa};
use std::cmp::Reverse;

/// Recorded accesses between two count-halving rounds of [`DecayTracker`].
pub const DECAY_PERIOD_ACCESSES: u32 = 4096;

/// Window length, in recorded accesses, of [`TopKTracker`].
pub const TOPK_WINDOW_ACCESSES: u32 = 1024;

/// Number of candidates [`TopKTracker`] nominates per window.
pub const TOPK_CANDIDATES: usize = 16;

/// The page state every tracker keeps.
#[derive(Debug, Clone, Default)]
struct Pages {
    /// Per-page hotness counts (0 for untracked or promoted pages).
    counts: FastHashMap<Lpa, u32>,
    /// Nominated pages that have not been taken yet.
    candidates: Vec<Lpa>,
    /// Pages promoted to host DRAM, which are no longer tracked.
    promoted: FastHashSet<Lpa>,
}

/// Exact per-page access counters with a fixed nomination threshold — the
/// paper's controller design and the default hotness policy.
#[derive(Debug, Clone)]
pub struct HotPageTracker {
    threshold: u32,
    pages: Pages,
}

impl HotPageTracker {
    fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "hotness threshold must be at least 1");
        HotPageTracker {
            threshold,
            pages: Pages::default(),
        }
    }

    fn record_access(&mut self, lpa: Lpa) -> bool {
        let count = self.pages.counts.entry(lpa).or_insert(0);
        *count += 1;
        if *count == self.threshold {
            self.pages.candidates.push(lpa);
            true
        } else {
            false
        }
    }
}

/// Exponentially decayed frequency counters: every
/// [`DECAY_PERIOD_ACCESSES`] recorded accesses all counts are halved and
/// zeroed entries dropped, so only pages with sustained traffic keep state.
#[derive(Debug, Clone)]
pub struct DecayTracker {
    threshold: u32,
    since_decay: u32,
    pages: Pages,
}

impl DecayTracker {
    fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "hotness threshold must be at least 1");
        DecayTracker {
            threshold,
            since_decay: 0,
            pages: Pages::default(),
        }
    }

    fn record_access(&mut self, lpa: Lpa) -> bool {
        self.since_decay += 1;
        if self.since_decay >= DECAY_PERIOD_ACCESSES {
            self.since_decay = 0;
            self.pages.counts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
        }
        let pages = &mut self.pages;
        let count = pages.counts.entry(lpa).or_insert(0);
        *count += 1;
        // Halving can bring a page back below the threshold, so guard
        // against duplicate nominations explicitly rather than relying on
        // crossing the threshold exactly once.
        if *count >= self.threshold && !pages.candidates.contains(&lpa) {
            pages.candidates.push(lpa);
            true
        } else {
            false
        }
    }
}

/// Windowed top-k: counts accesses inside a fixed window and nominates the
/// k hottest re-referenced pages when the window closes; counts reset
/// between windows, so memory never exceeds one window's distinct pages.
#[derive(Debug, Clone, Default)]
pub struct TopKTracker {
    in_window: u32,
    pages: Pages,
}

impl TopKTracker {
    fn record_access(&mut self, lpa: Lpa) -> bool {
        *self.pages.counts.entry(lpa).or_insert(0) += 1;
        self.in_window += 1;
        if self.in_window < TOPK_WINDOW_ACCESSES {
            return false;
        }
        self.in_window = 0;
        let pages = &mut self.pages;
        let mut hot: Vec<(Lpa, u32)> = pages
            .counts
            .drain()
            .filter(|&(lpa, c)| c >= 2 && !pages.candidates.contains(&lpa))
            .collect();
        // Deterministic order: hottest first, page index breaking ties.
        hot.sort_unstable_by_key(|&(lpa, c)| (Reverse(c), lpa.index()));
        let before = pages.candidates.len();
        pages
            .candidates
            .extend(hot.into_iter().take(TOPK_CANDIDATES).map(|(lpa, _)| lpa));
        pages.candidates.len() > before
    }
}

/// The controller's hotness tracker: the contender selected by
/// [`HotnessPolicyKind`].
#[derive(Debug, Clone)]
pub enum HotnessTracker {
    /// See [`HotPageTracker`].
    Threshold(HotPageTracker),
    /// See [`DecayTracker`].
    Decay(DecayTracker),
    /// See [`TopKTracker`].
    TopK(TopKTracker),
}

impl HotnessTracker {
    /// Constructs the contender selected by `kind` with the configured
    /// nomination `threshold` (ignored by the windowed top-k policy, which
    /// ranks pages instead of thresholding them).
    ///
    /// # Panics
    ///
    /// Panics if a thresholded contender is given a zero `threshold`.
    pub fn new(kind: HotnessPolicyKind, threshold: u32) -> Self {
        match kind {
            HotnessPolicyKind::Threshold => {
                HotnessTracker::Threshold(HotPageTracker::new(threshold))
            }
            HotnessPolicyKind::Decay => HotnessTracker::Decay(DecayTracker::new(threshold)),
            HotnessPolicyKind::TopK => HotnessTracker::TopK(TopKTracker::default()),
        }
    }

    fn pages(&self) -> &Pages {
        match self {
            HotnessTracker::Threshold(t) => &t.pages,
            HotnessTracker::Decay(t) => &t.pages,
            HotnessTracker::TopK(t) => &t.pages,
        }
    }

    fn pages_mut(&mut self) -> &mut Pages {
        match self {
            HotnessTracker::Threshold(t) => &mut t.pages,
            HotnessTracker::Decay(t) => &mut t.pages,
            HotnessTracker::TopK(t) => &mut t.pages,
        }
    }

    /// Records one access to `lpa`. Returns `true` if this access made the
    /// page a promotion candidate. Promoted pages are not counted.
    pub fn record_access(&mut self, lpa: Lpa) -> bool {
        if self.pages().promoted.contains(&lpa) {
            return false;
        }
        match self {
            HotnessTracker::Threshold(t) => t.record_access(lpa),
            HotnessTracker::Decay(t) => t.record_access(lpa),
            HotnessTracker::TopK(t) => t.record_access(lpa),
        }
    }

    /// Takes the next promotion candidate, filtered by `eligible` (typically
    /// "is the page still resident in the data cache"). The thresholded
    /// trackers reset an ineligible candidate's count so it can re-qualify;
    /// top-k's window counts were already reset when it was nominated.
    pub fn take_candidate(&mut self, mut eligible: impl FnMut(Lpa) -> bool) -> Option<Lpa> {
        let reset = !matches!(self, HotnessTracker::TopK(_));
        let pages = self.pages_mut();
        while let Some(lpa) = pages.candidates.pop() {
            if eligible(lpa) {
                return Some(lpa);
            }
            // A zero count and an absent entry are indistinguishable, so
            // compact the entry away instead of storing the zero.
            if reset {
                pages.counts.remove(&lpa);
            }
        }
        None
    }

    /// Marks a page as promoted so it is no longer tracked.
    pub fn mark_promoted(&mut self, lpa: Lpa) {
        let pages = self.pages_mut();
        pages.promoted.insert(lpa);
        pages.counts.remove(&lpa);
        pages.candidates.retain(|c| *c != lpa);
    }

    /// Marks a page as demoted back to the SSD so it is tracked again.
    pub fn mark_demoted(&mut self, lpa: Lpa) {
        let pages = self.pages_mut();
        pages.promoted.remove(&lpa);
        pages.counts.remove(&lpa);
    }

    /// Number of pages the tracker currently holds state for (counters,
    /// pending candidates and promoted marks) — the memory-growth gauge
    /// surfaced as `SsdStats::tracked_pages`.
    pub fn tracked_pages(&self) -> u64 {
        let pages = self.pages();
        (pages.counts.len() + pages.candidates.len() + pages.promoted.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold(t: u32) -> HotnessTracker {
        HotnessTracker::new(HotnessPolicyKind::Threshold, t)
    }

    fn count(t: &HotnessTracker, lpa: Lpa) -> u32 {
        t.pages().counts.get(&lpa).copied().unwrap_or(0)
    }

    fn pending(t: &HotnessTracker) -> usize {
        t.pages().candidates.len()
    }

    fn promoted(t: &HotnessTracker) -> usize {
        t.pages().promoted.len()
    }

    #[test]
    fn crosses_threshold_once() {
        let mut t = threshold(3);
        assert!(!t.record_access(Lpa::new(1)));
        assert!(!t.record_access(Lpa::new(1)));
        assert!(t.record_access(Lpa::new(1)));
        // Further accesses do not re-nominate.
        assert!(!t.record_access(Lpa::new(1)));
        assert_eq!(count(&t, Lpa::new(1)), 4);
        assert_eq!(pending(&t), 1);
    }

    #[test]
    fn take_candidate_respects_eligibility() {
        let mut t = threshold(1);
        t.record_access(Lpa::new(1));
        t.record_access(Lpa::new(2));
        // Page 2 is not eligible (e.g. evicted from the data cache).
        let got = t.take_candidate(|lpa| lpa == Lpa::new(1));
        assert_eq!(got, Some(Lpa::new(1)));
        assert_eq!(pending(&t), 0);
        // Page 2 was reset, not lost: it can re-qualify.
        assert_eq!(count(&t, Lpa::new(2)), 0);
        assert!(t.record_access(Lpa::new(2)));
    }

    #[test]
    fn promoted_pages_are_not_tracked() {
        let mut t = threshold(2);
        t.record_access(Lpa::new(5));
        t.mark_promoted(Lpa::new(5));
        assert_eq!(promoted(&t), 1);
        assert!(!t.record_access(Lpa::new(5)));
        assert_eq!(count(&t, Lpa::new(5)), 0);
        // After demotion the page is tracked again.
        t.mark_demoted(Lpa::new(5));
        assert_eq!(promoted(&t), 0);
        assert!(!t.record_access(Lpa::new(5)));
        assert!(t.record_access(Lpa::new(5)));
    }

    #[test]
    fn mark_promoted_clears_pending_candidacy() {
        let mut t = threshold(1);
        t.record_access(Lpa::new(9));
        assert_eq!(pending(&t), 1);
        t.mark_promoted(Lpa::new(9));
        assert_eq!(pending(&t), 0);
        assert_eq!(t.take_candidate(|_| true), None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let _ = threshold(0);
    }

    #[test]
    fn ineligible_candidates_are_compacted_away() {
        let mut t = threshold(1);
        t.record_access(Lpa::new(7));
        assert_eq!(t.take_candidate(|_| false), None);
        // The reset entry is removed, not stored as an explicit zero …
        assert_eq!(t.tracked_pages(), 0);
        // … which is observationally identical to a zero count.
        assert_eq!(count(&t, Lpa::new(7)), 0);
        assert!(t.record_access(Lpa::new(7)));
    }

    #[test]
    fn decay_halves_counts_and_drops_cold_entries() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Decay, 1000);
        // One access each to many one-shot pages, then enough traffic to a
        // hot page to trigger a decay round.
        for i in 0..100u64 {
            t.record_access(Lpa::new(i));
        }
        for _ in 0..DECAY_PERIOD_ACCESSES {
            t.record_access(Lpa::new(777));
        }
        // The one-shot pages decayed to zero and were dropped; the hot page
        // survives with a halved count.
        assert_eq!(count(&t, Lpa::new(5)), 0);
        assert!(count(&t, Lpa::new(777)) > 0);
        assert!(t.tracked_pages() < 100);
    }

    #[test]
    fn decay_renominates_without_duplicates() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::Decay, 2);
        assert!(!t.record_access(Lpa::new(1)));
        assert!(t.record_access(Lpa::new(1)));
        // Above-threshold accesses do not duplicate the pending candidacy.
        assert!(!t.record_access(Lpa::new(1)));
        assert_eq!(pending(&t), 1);
    }

    #[test]
    fn topk_nominates_the_hottest_pages_of_a_window() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::TopK, 2);
        let mut nominated = false;
        for i in 0..TOPK_WINDOW_ACCESSES {
            // Concentrate traffic on pages 0..4, spread the rest widely.
            let lpa = if i % 2 == 0 {
                Lpa::new((i % 4) as u64)
            } else {
                Lpa::new(1000 + i as u64)
            };
            nominated |= t.record_access(lpa);
        }
        assert!(nominated, "closing the window nominates candidates");
        assert!(pending(&t) <= TOPK_CANDIDATES);
        let got = t.take_candidate(|_| true).expect("candidate");
        assert!(got.index() < 4, "only re-referenced hot pages qualify");
        // Counts reset between windows: memory stays bounded.
        assert_eq!(count(&t, Lpa::new(0)), 0);
    }

    #[test]
    fn topk_memory_is_bounded_by_the_window() {
        let mut t = HotnessTracker::new(HotnessPolicyKind::TopK, 2);
        for i in 0..10 * TOPK_WINDOW_ACCESSES as u64 {
            t.record_access(Lpa::new(i)); // every page distinct
        }
        assert!(t.tracked_pages() <= TOPK_WINDOW_ACCESSES as u64 + TOPK_CANDIDATES as u64);
    }

    #[test]
    fn dispatch_enum_reports_kind_and_delegates() {
        for kind in HotnessPolicyKind::ALL {
            let mut t = HotnessTracker::new(kind, 2);
            assert!(matches!(
                (kind, &t),
                (HotnessPolicyKind::Threshold, HotnessTracker::Threshold(_))
                    | (HotnessPolicyKind::Decay, HotnessTracker::Decay(_))
                    | (HotnessPolicyKind::TopK, HotnessTracker::TopK(_))
            ));
            t.record_access(Lpa::new(1));
            t.mark_promoted(Lpa::new(9));
            assert_eq!(promoted(&t), 1);
            assert!(t.tracked_pages() >= 1);
            t.mark_demoted(Lpa::new(9));
            assert_eq!(promoted(&t), 0);
        }
    }
}
