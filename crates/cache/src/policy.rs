//! The eviction and admission decisions of the data cache.
//!
//! [`DataCache`](crate::DataCache) makes two policy decisions, each a
//! `match` on one enum built from its configured kind:
//!
//! * [`Eviction`] — which way of a full set to evict. It reads per-way
//!   [`WayMeta`] replacement metadata the cache keeps in lockstep with its
//!   entries; the cache itself stamps `last_access`/`inserted_at` ticks, so
//!   recency-based contenders need no state of their own.
//! * [`Admission`] — whether a missed page is admitted at all. A bypassed
//!   page is served from the flash buffer without displacing anything (the
//!   controller falls back to writing through for dirty data on bypassed
//!   pages).
//!
//! [`EvictionPolicyKind::PseudoLru`] and [`AdmissionPolicyKind::AdmitAll`]
//! are the defaults and reproduce the original hard-wired cache decision for
//! decision.

use skybyte_types::policy::{AdmissionPolicyKind, EvictionPolicyKind};
use skybyte_types::Lpa;

/// Number of consecutive sequential inserts after which
/// [`Admission::BypassScan`] classifies the stream as a scan and stops
/// admitting.
pub const SCAN_BYPASS_RUN: u32 = 8;

/// Per-way replacement metadata, maintained by the cache in lockstep with
/// its page entries and interpreted by [`Eviction`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WayMeta {
    /// Tick of the last lookup hit or (re)insertion of this way.
    pub last_access: u64,
    /// Tick at which the way was filled (FIFO order).
    pub inserted_at: u64,
    /// CLOCK reference bit, set on hits and cleared by the sweeping hand.
    pub referenced: bool,
    /// SLRU protected-segment membership (2Q).
    pub protected: bool,
}

impl WayMeta {
    /// Fresh metadata for a way filled at `now`.
    pub fn inserted(now: u64) -> Self {
        WayMeta {
            last_access: now,
            inserted_at: now,
            referenced: false,
            protected: false,
        }
    }
}

/// Index of the way with the smallest `key`, first match winning ties.
fn min_way_by(meta: &[WayMeta], key: impl Fn(&WayMeta) -> u64) -> usize {
    meta.iter()
        .enumerate()
        .min_by_key(|(_, m)| key(m))
        .map(|(i, _)| i)
        .expect("set not empty")
}

/// Picks eviction victims for a set-associative cache.
#[derive(Debug, Clone)]
pub enum Eviction {
    /// Evict the smallest `last_access` tick (the default). With the
    /// cache's unique per-access ticks this is exact LRU.
    PseudoLru,
    /// CLOCK (second chance): a per-set hand sweeps the ways, clearing
    /// reference bits, and evicts the first unreferenced way it lands on.
    Clock {
        /// The hand of each set.
        hands: Vec<usize>,
    },
    /// 2Q/SLRU: new pages are probationary; a re-reference promotes them to
    /// a protected segment capped at half the ways. Victims come from the
    /// probationary segment (LRU order) while it is non-empty.
    TwoQ {
        /// Maximum protected ways per set.
        protected_cap: usize,
    },
    /// FIFO: evict the oldest-inserted way regardless of use.
    Fifo,
}

impl Eviction {
    /// The contender selected by `kind` for a cache of `sets` × `ways`.
    pub fn new(kind: EvictionPolicyKind, sets: usize, ways: usize) -> Self {
        match kind {
            EvictionPolicyKind::PseudoLru => Eviction::PseudoLru,
            EvictionPolicyKind::Clock => Eviction::Clock {
                hands: vec![0; sets.max(1)],
            },
            EvictionPolicyKind::TwoQ => Eviction::TwoQ {
                protected_cap: (ways / 2).max(1),
            },
            EvictionPolicyKind::Fifo => Eviction::Fifo,
        }
    }

    /// Way `way` of a set was hit (or re-inserted). The cache has already
    /// stamped `meta[way].last_access`, so only the metadata a contender adds
    /// on top of recency is maintained here.
    pub fn on_hit(&mut self, way: usize, meta: &mut [WayMeta]) {
        match *self {
            Eviction::PseudoLru | Eviction::Fifo => {}
            Eviction::Clock { .. } => meta[way].referenced = true,
            Eviction::TwoQ { protected_cap } => {
                if meta[way].protected {
                    return;
                }
                meta[way].protected = true;
                if meta.iter().filter(|m| m.protected).count() > protected_cap {
                    // Demote the coldest protected way (other than the one
                    // just promoted) back to probationary.
                    if let Some(demote) = meta
                        .iter()
                        .enumerate()
                        .filter(|&(i, m)| m.protected && i != way)
                        .min_by_key(|(_, m)| m.last_access)
                        .map(|(i, _)| i)
                    {
                        meta[demote].protected = false;
                    }
                }
            }
        }
    }

    /// Picks the victim way of the full set `set`. `meta` is never empty.
    pub fn victim(&mut self, set: usize, meta: &mut [WayMeta]) -> usize {
        match self {
            Eviction::PseudoLru => min_way_by(meta, |m| m.last_access),
            Eviction::Fifo => min_way_by(meta, |m| m.inserted_at),
            Eviction::TwoQ { .. } => meta
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.protected)
                .min_by_key(|(_, m)| m.last_access)
                .map(|(i, _)| i)
                .unwrap_or_else(|| min_way_by(meta, |m| m.last_access)),
            Eviction::Clock { hands } => {
                let mut hand = hands[set] % meta.len();
                // At most one full sweep clears every reference bit, so the
                // second sweep is guaranteed to find a victim.
                for _ in 0..2 * meta.len() {
                    if meta[hand].referenced {
                        meta[hand].referenced = false;
                        hand = (hand + 1) % meta.len();
                    } else {
                        hands[set] = (hand + 1) % meta.len();
                        return hand;
                    }
                }
                unreachable!("CLOCK sweep always finds an unreferenced way");
            }
        }
    }
}

/// Decides whether a missed page is admitted into the cache at all.
#[derive(Debug, Clone)]
pub enum Admission {
    /// Admit everything (the default).
    AdmitAll,
    /// Bypass sequential scans: once [`SCAN_BYPASS_RUN`] consecutive
    /// insertions target consecutive pages, further pages of the run are not
    /// admitted — a streaming read would flush the cache without
    /// re-referencing anything.
    BypassScan {
        /// The page of the previous insertion attempt.
        last: Option<Lpa>,
        /// Length of the sequential run ending at `last`.
        run: u32,
    },
}

impl Admission {
    /// The contender selected by `kind`.
    pub fn new(kind: AdmissionPolicyKind) -> Self {
        match kind {
            AdmissionPolicyKind::AdmitAll => Admission::AdmitAll,
            AdmissionPolicyKind::BypassScan => Admission::BypassScan { last: None, run: 0 },
        }
    }

    /// Whether the page about to be inserted is admitted. Called once per
    /// new-page insertion attempt, in stream order.
    pub fn admit(&mut self, lpa: Lpa) -> bool {
        match self {
            Admission::AdmitAll => true,
            Admission::BypassScan { last, run } => {
                *run = match *last {
                    Some(prev) if lpa.index() == prev.index().wrapping_add(1) => *run + 1,
                    _ => 1,
                };
                *last = Some(lpa);
                *run < SCAN_BYPASS_RUN
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(stamps: &[(u64, bool, bool)]) -> Vec<WayMeta> {
        stamps
            .iter()
            .map(|&(last_access, referenced, protected)| WayMeta {
                last_access,
                inserted_at: last_access,
                referenced,
                protected,
            })
            .collect()
    }

    fn eviction(kind: EvictionPolicyKind, ways: usize) -> Eviction {
        Eviction::new(kind, 1, ways)
    }

    #[test]
    fn pseudo_lru_picks_the_oldest_tick() {
        let mut m = meta(&[(5, false, false), (2, false, false), (9, false, false)]);
        assert_eq!(Eviction::PseudoLru.victim(0, &mut m), 1);
    }

    #[test]
    fn clock_gives_referenced_ways_a_second_chance() {
        let mut p = eviction(EvictionPolicyKind::Clock, 3);
        let mut m = meta(&[(1, true, false), (2, false, false), (3, true, false)]);
        // Hand starts at 0: way 0 is referenced (cleared, skipped), way 1 is
        // the victim.
        assert_eq!(p.victim(0, &mut m), 1);
        assert!(!m[0].referenced, "sweep clears reference bits");
        // Hand resumes after the victim: way 2 cleared, wraps, evicts way 0.
        m[1] = WayMeta::inserted(4);
        assert_eq!(p.victim(0, &mut m), 0);
    }

    #[test]
    fn clock_all_referenced_sweeps_then_evicts_at_hand() {
        let mut p = eviction(EvictionPolicyKind::Clock, 2);
        let mut m = meta(&[(1, true, false), (2, true, false)]);
        assert_eq!(p.victim(0, &mut m), 0);
    }

    #[test]
    fn two_q_protects_rereferenced_ways() {
        let mut p = eviction(EvictionPolicyKind::TwoQ, 4);
        let mut m = meta(&[
            (1, false, false),
            (2, false, false),
            (3, false, false),
            (4, false, false),
        ]);
        p.on_hit(0, &mut m);
        assert!(m[0].protected);
        // Victim comes from the probationary segment, not the protected way
        // 0 even though it has the oldest tick.
        assert_eq!(p.victim(0, &mut m), 1);
    }

    #[test]
    fn two_q_caps_the_protected_segment() {
        let mut p = eviction(EvictionPolicyKind::TwoQ, 4); // cap = 2
        let mut m = meta(&[
            (1, false, false),
            (2, false, false),
            (3, false, false),
            (4, false, false),
        ]);
        p.on_hit(0, &mut m);
        p.on_hit(1, &mut m);
        p.on_hit(2, &mut m);
        // Promoting way 2 overflows the cap; the coldest other protected way
        // (way 0) is demoted.
        assert_eq!(m.iter().filter(|w| w.protected).count(), 2);
        assert!(!m[0].protected);
        assert!(m[1].protected && m[2].protected);
    }

    #[test]
    fn two_q_falls_back_when_everything_is_protected() {
        let mut p = eviction(EvictionPolicyKind::TwoQ, 2);
        let mut m = meta(&[(7, false, true), (3, false, true)]);
        assert_eq!(p.victim(0, &mut m), 1);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut m = meta(&[(1, false, false), (2, false, false)]);
        m[0].last_access = 100; // heavily re-referenced, still first in
        assert_eq!(Eviction::Fifo.victim(0, &mut m), 0);
    }

    #[test]
    fn bypass_scan_admits_until_the_run_threshold() {
        let mut p = Admission::new(AdmissionPolicyKind::BypassScan);
        for i in 0..SCAN_BYPASS_RUN as u64 - 1 {
            assert!(p.admit(Lpa::new(i)), "page {i} of the run is admitted");
        }
        assert!(!p.admit(Lpa::new(SCAN_BYPASS_RUN as u64 - 1)));
        assert!(!p.admit(Lpa::new(SCAN_BYPASS_RUN as u64)));
        // Breaking the run resets admission.
        assert!(p.admit(Lpa::new(1000)));
    }

    #[test]
    fn admit_all_always_admits() {
        let mut p = Admission::new(AdmissionPolicyKind::AdmitAll);
        for i in 0..100 {
            assert!(p.admit(Lpa::new(i)));
        }
    }
}
