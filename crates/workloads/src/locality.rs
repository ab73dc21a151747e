//! Page-locality analysis (Figures 5 and 6 of the paper).
//!
//! Figure 5 plots, for each page read from flash into the SSD DRAM, the CDF
//! of the fraction of its cachelines that are actually accessed; Figure 6
//! plots the same for dirty cachelines of flushed pages. Both show that most
//! workloads touch fewer than 40 % of the cachelines of most pages — the
//! motivation for the cacheline-granular write log. This module computes the
//! same CDFs directly from a generated trace.

use crate::generator::WorkUnit;
use serde::{Deserialize, Serialize};
use skybyte_types::{FastHashMap, CACHELINES_PER_PAGE};

/// A CDF over "fraction of cachelines touched per page".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalityCdf {
    /// `(coverage_ratio, fraction_of_pages_with_coverage <= ratio)` points,
    /// sorted by ratio.
    pub points: Vec<(f64, f64)>,
    /// Number of distinct pages observed.
    pub pages: u64,
}

impl LocalityCdf {
    /// Fraction of pages whose cacheline coverage is at most `ratio`.
    pub fn fraction_of_pages_below(&self, ratio: f64) -> f64 {
        let mut best = 0.0;
        for (r, f) in &self.points {
            if *r <= ratio {
                best = *f;
            } else {
                break;
            }
        }
        best
    }

    /// Mean cacheline coverage across pages.
    pub fn mean_coverage(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        // Reconstruct the mean from the CDF steps.
        let mut mean = 0.0;
        let mut prev_f = 0.0;
        for (r, f) in &self.points {
            mean += r * (f - prev_f);
            prev_f = *f;
        }
        mean
    }
}

/// Computes the read and write page-locality CDFs of a trace.
///
/// Returns `(read_cdf, write_cdf)`: the read CDF covers every accessed page
/// (Figure 5), the write CDF covers only pages with at least one written
/// cacheline (Figure 6).
pub fn page_locality_cdf<'a, I>(units: I) -> (LocalityCdf, LocalityCdf)
where
    I: IntoIterator<Item = &'a WorkUnit>,
{
    let mut read_sets: FastHashMap<u64, u64> = FastHashMap::default();
    let mut write_sets: FastHashMap<u64, u64> = FastHashMap::default();
    for u in units {
        let page = u.access.addr.page().index();
        let bit = 1u64 << u.access.addr.cacheline_in_page();
        *read_sets.entry(page).or_insert(0) |= bit;
        if u.access.kind.is_write() {
            *write_sets.entry(page).or_insert(0) |= bit;
        }
    }
    (build_cdf(&read_sets), build_cdf(&write_sets))
}

fn build_cdf(sets: &FastHashMap<u64, u64>) -> LocalityCdf {
    let pages = sets.len() as u64;
    if pages == 0 {
        return LocalityCdf {
            points: Vec::new(),
            pages: 0,
        };
    }
    let mut coverages: Vec<f64> = sets
        .values()
        .map(|bits| bits.count_ones() as f64 / CACHELINES_PER_PAGE as f64)
        .collect();
    coverages.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut points: Vec<(f64, f64)> = Vec::new();
    for (i, c) in coverages.iter().enumerate() {
        let f = (i + 1) as f64 / pages as f64;
        match points.last_mut() {
            Some((last_c, last_f)) if (*last_c - c).abs() < f64::EPSILON => *last_f = f,
            _ => points.push((*c, f)),
        }
    }
    LocalityCdf { points, pages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceGenerator;
    use crate::spec::WorkloadKind;
    use skybyte_types::{AccessKind, MemAccess, VirtAddr};

    fn unit(page: u64, cl: u64, write: bool) -> WorkUnit {
        WorkUnit {
            instructions: 10,
            access: MemAccess::new(
                VirtAddr::new(page * 4096 + cl * 64),
                if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            ),
        }
    }

    #[test]
    fn cdf_of_handcrafted_trace() {
        // Page 0: 2 cachelines read; page 1: 32 read, 1 written.
        let mut trace = vec![unit(0, 0, false), unit(0, 1, false), unit(1, 5, true)];
        for cl in 0..32 {
            trace.push(unit(1, cl, false));
        }
        let (read, write) = page_locality_cdf(&trace);
        assert_eq!(read.pages, 2);
        assert_eq!(write.pages, 1);
        // Page 0 covers 2/64 ≈ 0.031; page 1 covers 32/64 = 0.5.
        assert!((read.fraction_of_pages_below(0.1) - 0.5).abs() < 1e-9);
        assert!((read.fraction_of_pages_below(0.6) - 1.0).abs() < 1e-9);
        assert!((write.fraction_of_pages_below(0.05) - 1.0).abs() < 1e-9);
        assert!(read.mean_coverage() > 0.2 && read.mean_coverage() < 0.3);
    }

    #[test]
    fn empty_trace_has_empty_cdf() {
        let (read, write) = page_locality_cdf(&[]);
        assert_eq!(read.pages, 0);
        assert_eq!(write.pages, 0);
        assert_eq!(read.fraction_of_pages_below(1.0), 0.0);
        assert_eq!(read.mean_coverage(), 0.0);
        let _ = write;
    }

    #[test]
    fn generated_workloads_reproduce_paper_observation() {
        // "Many workloads only access less than 40% of the cache lines in
        // more than 75% of pages" — check it for the sparse workloads.
        for kind in [WorkloadKind::Bc, WorkloadKind::Dlrm, WorkloadKind::Ycsb] {
            let spec = kind.spec().scaled_to(32 << 20);
            let mut g = TraceGenerator::new(&spec, 0, 4, 21);
            let trace = g.generate(40_000);
            let (read, _write) = page_locality_cdf(&trace);
            assert!(
                read.fraction_of_pages_below(0.4) > 0.75,
                "{kind}: only {:.2} of pages below 40% coverage",
                read.fraction_of_pages_below(0.4)
            );
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let spec = WorkloadKind::Radix.spec().scaled_to(16 << 20);
        let mut g = TraceGenerator::new(&spec, 0, 2, 3);
        let trace = g.generate(20_000);
        let (read, write) = page_locality_cdf(&trace);
        for cdf in [&read, &write] {
            for w in cdf.points.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert!(w[0].1 <= w[1].1);
            }
            if let Some(last) = cdf.points.last() {
                assert!((last.1 - 1.0).abs() < 1e-9);
            }
        }
    }
}
