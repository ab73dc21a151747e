//! The CXL-SSD controller: request handling, compaction, GC coordination and
//! promotion support.

use crate::hotness::HotnessTracker;
use crate::stats::{AccessBreakdown, ServedBy, SsdStats};
use crate::trigger::ThresholdPolicy;
use skybyte_cache::{DataCache, DataCacheStats, WriteLog, WriteLogStats};
use skybyte_flash::{FlashArray, FlashStats};
use skybyte_ftl::{Ftl, FtlStats};
use skybyte_types::{CachelineIndex, FastHashMap, Lpa, Nanos, SimConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one cacheline access handled by the SSD controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdAccessOutcome {
    /// Time at which the data is ready in the SSD DRAM (reads) or the write
    /// has been durably accepted by the controller.
    ///
    /// With a delay hint this is also the wake-up time the `SkyByte-Delay`
    /// response carries to the OS. The controller has already queued the
    /// flash fill when it answers, so it is the scheduled completion of that
    /// fill (Algorithm 1's queue-counter estimate is only the trigger
    /// heuristic — it deliberately over-counts programs/erases that reads
    /// pre-empt, and waking on it would oversleep).
    pub ready_at: Nanos,
    /// Which structure served the access.
    pub served_by: ServedBy,
    /// Whether the controller answers with the `SkyByte-Delay` NDR opcode
    /// instead of making the host wait. Only set when the variant enables
    /// the coordinated context switch.
    pub delay_hint: bool,
    /// Device-side latency breakdown (Figure 17 components).
    pub breakdown: AccessBreakdown,
}

/// The device-side half of SkyByte.
///
/// See the crate-level documentation for an example and the paper's Figure 11
/// for the read (R1–R3) and write (W1–W3) paths implemented here.
#[derive(Debug, Clone)]
pub struct SsdController {
    flash: FlashArray,
    ftl: Ftl,
    write_log: Option<WriteLog>,
    data_cache: DataCache,
    hotness: HotnessTracker,
    trigger: ThresholdPolicy,

    context_switch: bool,
    dram_latency: Nanos,
    log_index_latency: Nanos,
    cache_index_latency: Nanos,
    mshr_capacity: usize,
    logical_pages: u64,

    /// Page fetches currently in flight (the controller's MSHRs): LPA → time
    /// the page lands in DRAM. Every insertion is mirrored in `fill_order`,
    /// and `lazy_tick` drops an entry once its time has passed.
    inflight_fills: FastHashMap<Lpa, Nanos>,
    /// Earliest-first index over `inflight_fills`. A re-fetch overwrites a
    /// page's entry and leaves its old `(ready, lpa)` here; such an entry is
    /// stale because the map no longer holds that `ready` for that page, and
    /// it is skipped when it reaches the top.
    fill_order: BinaryHeap<Reverse<(Nanos, Lpa)>>,
    /// Time at which the currently running log compaction finishes.
    compaction_active_until: Nanos,
    /// Monotonic version counter used as the write-log payload token.
    write_token: u64,
    stats: SsdStats,
}

impl SsdController {
    /// Builds a controller from the simulator configuration. The variant
    /// decides the design: the write log is instantiated only when
    /// [`VariantKind::write_log`](skybyte_types::VariantKind::write_log) holds
    /// (SkyByte-W and derived variants), otherwise the controller behaves as
    /// the Base-CSSD page-granular design; delay hints are sent only when
    /// [`VariantKind::context_switch`](skybyte_types::VariantKind::context_switch)
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn new(cfg: &SimConfig) -> Self {
        cfg.validate().expect("invalid simulator configuration");
        let ssd = &cfg.ssd;
        let write_log = cfg
            .variant
            .write_log()
            .then(|| WriteLog::new(ssd.dram.write_log_bytes, ssd.dram.index_resize_load_factor));
        // When the write log is disabled its DRAM budget goes to the data
        // cache so every variant uses the same total SSD DRAM (§VI-A).
        let cache_bytes = if write_log.is_some() {
            ssd.dram.data_cache_bytes
        } else {
            ssd.dram.data_cache_bytes + ssd.dram.write_log_bytes
        };
        let logical_pages =
            (ssd.geometry.total_pages() as f64 * (1.0 - ssd.overprovisioning)) as u64;
        SsdController {
            flash: FlashArray::new(ssd.geometry, ssd.flash),
            ftl: Ftl::new(ssd),
            write_log,
            data_cache: DataCache::with_policies(
                cache_bytes,
                ssd.dram.data_cache_ways,
                cfg.policy.eviction,
                cfg.policy.admission,
            ),
            hotness: HotnessTracker::new(cfg.policy.hotness, cfg.migration.hotness_threshold),
            trigger: ThresholdPolicy::new(cfg.cs_threshold),
            context_switch: cfg.variant.context_switch(),
            dram_latency: ssd.dram.access_latency,
            log_index_latency: ssd.dram.write_log_index_latency,
            cache_index_latency: ssd.dram.data_cache_index_latency,
            mshr_capacity: ssd.dram.mshrs as usize,
            logical_pages,
            inflight_fills: FastHashMap::default(),
            fill_order: BinaryHeap::new(),
            compaction_active_until: Nanos::ZERO,
            write_token: 0,
            stats: SsdStats::default(),
        }
    }

    /// Number of logical pages the device exposes over CXL (raw capacity
    /// minus over-provisioning).
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Handles a cacheline read arriving at the controller at `now`
    /// (R1/R2/R3 of Figure 11).
    pub fn handle_read(&mut self, lpa: Lpa, cl: CachelineIndex, now: Nanos) -> SsdAccessOutcome {
        self.stats.reads += 1;
        self.hotness.record_access(lpa);
        self.note_tracked_pages();
        self.lazy_tick(now);

        let index_latency = self.read_index_latency();
        let t_indexed = now + index_latency;

        // R2: the write log holds the newest copy of a logged cacheline.
        if let Some(log) = &mut self.write_log {
            if log.lookup(lpa, cl).is_some() {
                self.stats.read_log_hits += 1;
                return self.dram_served(ServedBy::WriteLog, now, index_latency);
            }
        }

        // R1: data-cache hit.
        if self.data_cache.access(lpa, cl) {
            self.stats.read_cache_hits += 1;
            return self.dram_served(ServedBy::DataCache, now, index_latency);
        }

        // Never-written pages are served as zeroes straight from DRAM.
        if !self.ftl.is_mapped(lpa) {
            self.stats.read_zero_fills += 1;
            self.insert_page_into_cache(lpa, t_indexed);
            return self.dram_served(ServedBy::ZeroFill, now, index_latency);
        }

        // R3: flash fetch required.
        self.stats.read_flash_misses += 1;
        let delay_hint = self.delay_hint(lpa, now);
        let flash_ready = self.fetch_page(lpa, t_indexed);
        self.insert_page_into_cache(lpa, flash_ready);
        self.data_cache.access(lpa, cl);
        self.maybe_prefetch(lpa, flash_ready);
        self.flash_served(t_indexed, index_latency, flash_ready, delay_hint)
    }

    /// Handles a cacheline write arriving at the controller at `now`
    /// (W1/W2/W3 of Figure 11 when the write log is enabled; page-granular
    /// read-modify-write otherwise).
    pub fn handle_write(&mut self, lpa: Lpa, cl: CachelineIndex, now: Nanos) -> SsdAccessOutcome {
        self.stats.writes += 1;
        self.hotness.record_access(lpa);
        self.note_tracked_pages();
        self.lazy_tick(now);

        if self.write_log.is_some() {
            return self.handle_logged_write(lpa, cl, now);
        }
        self.handle_page_granular_write(lpa, cl, now)
    }

    /// SkyByte write path: append to the log, update the cached copy in
    /// parallel, never touch flash on the critical path.
    fn handle_logged_write(
        &mut self,
        lpa: Lpa,
        cl: CachelineIndex,
        now: Nanos,
    ) -> SsdAccessOutcome {
        self.write_token += 1;
        let token = self.write_token;
        let log = self.write_log.as_mut().expect("write log enabled");
        let outcome = log.append(lpa, cl, token);
        self.stats.write_log_appends += 1;

        // W2: parallel update of the cached copy (keeps reads through the
        // cache coherent without marking the page dirty — the log owns the
        // dirty data, so evictions stay clean).
        if self.data_cache.access(lpa, cl) {
            self.stats.write_cache_hits += 1;
        }

        if outcome.log_full {
            self.execute_compaction(now);
        }
        self.dram_served(ServedBy::WriteLog, now, self.log_index_latency)
    }

    /// Base-CSSD write path: the DRAM cache is page-granular, so a write miss
    /// fetches the page from flash before the cacheline can be merged
    /// (read-modify-write), and dirty pages are written back in full on
    /// eviction.
    fn handle_page_granular_write(
        &mut self,
        lpa: Lpa,
        cl: CachelineIndex,
        now: Nanos,
    ) -> SsdAccessOutcome {
        let index_latency = self.cache_index_latency;
        let t_indexed = now + index_latency;

        if self.data_cache.access(lpa, cl) {
            self.data_cache.mark_dirty(lpa, cl);
            self.stats.write_cache_hits += 1;
            return self.dram_served(ServedBy::DataCache, now, index_latency);
        }

        if !self.ftl.is_mapped(lpa) {
            // First touch of the page: materialise it in the cache.
            self.insert_page_into_cache(lpa, t_indexed);
            if !self.data_cache.mark_dirty(lpa, cl) {
                // The admission policy bypassed the page; the write cannot
                // be buffered, so it goes straight to flash.
                self.write_through(lpa, t_indexed);
            }
            return self.dram_served(ServedBy::ZeroFill, now, index_latency);
        }

        self.stats.write_flash_misses += 1;
        let delay_hint = self.delay_hint(lpa, now);
        let flash_ready = self.fetch_page(lpa, t_indexed);
        self.insert_page_into_cache(lpa, flash_ready);
        if !self.data_cache.mark_dirty(lpa, cl) {
            self.write_through(lpa, flash_ready);
        }
        self.flash_served(t_indexed, index_latency, flash_ready, delay_hint)
    }

    /// Removes a page from the SSD caches because it has been promoted to
    /// host DRAM (§III-C): the data-cache entry is dropped and the write-log
    /// index entries are invalidated.
    pub fn promote_page(&mut self, lpa: Lpa) {
        self.data_cache.remove(lpa);
        if let Some(log) = &mut self.write_log {
            log.invalidate_page(lpa);
        }
        self.hotness.mark_promoted(lpa);
        self.note_tracked_pages();
        self.stats.pages_promoted += 1;
    }

    /// Accepts a page evicted from host DRAM back into the SSD: the page is
    /// written through the FTL and re-inserted clean into the data cache.
    /// Returns the completion time of the flash program.
    pub fn demote_page(&mut self, lpa: Lpa, now: Nanos) -> Nanos {
        self.hotness.mark_demoted(lpa);
        self.note_tracked_pages();
        let outcome = self.ftl.write_page(lpa, now, &mut self.flash);
        self.insert_page_into_cache(lpa, now);
        outcome.completes_at
    }

    /// Next promotion candidate that is still resident in the data cache, if
    /// any (adaptive policy of §III-C).
    pub fn promotion_candidate(&mut self) -> Option<Lpa> {
        let cache = &self.data_cache;
        let got = self.hotness.take_candidate(|lpa| cache.contains(lpa));
        self.note_tracked_pages();
        got
    }

    /// Refreshes the tracker-memory gauge surfaced in
    /// [`SsdStats::tracked_pages`].
    fn note_tracked_pages(&mut self) {
        self.stats.tracked_pages = Some(self.hotness.tracked_pages());
    }

    /// Whether a garbage-collection campaign is blocking the device at `now`.
    pub fn gc_active(&self, now: Nanos) -> bool {
        self.ftl.gc_active(now)
    }

    /// Whether a log compaction is running at `now`.
    pub fn compaction_active(&self, now: Nanos) -> bool {
        now < self.compaction_active_until
    }

    /// Time at which the most recently scheduled log compaction finishes.
    pub fn compaction_active_until(&self) -> Nanos {
        self.compaction_active_until
    }

    /// Pre-populates the FTL mapping with the given logical pages
    /// (§VI-A preconditioning so GC triggers during measurement).
    pub fn precondition<I: IntoIterator<Item = Lpa>>(&mut self, lpas: I) {
        self.ftl.precondition(lpas);
    }

    /// Controller statistics.
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    /// Flash traffic statistics (Figure 18 / Figure 20).
    pub fn flash_stats(&self) -> &FlashStats {
        self.flash.stats()
    }

    /// FTL statistics (write amplification, GC).
    pub fn ftl_stats(&self) -> &FtlStats {
        self.ftl.stats()
    }

    /// Write-log statistics, if the log is enabled.
    pub fn write_log_stats(&self) -> Option<&WriteLogStats> {
        self.write_log.as_ref().map(|l| l.stats())
    }

    /// Memory footprint of the write-log index, if the log is enabled.
    pub fn write_log_index_bytes(&self) -> Option<u64> {
        self.write_log.as_ref().map(|l| l.index_memory_bytes())
    }

    /// Data-cache statistics.
    pub fn data_cache_stats(&self) -> &DataCacheStats {
        self.data_cache.stats()
    }

    /// Aggregate busy time of all flash channels (bandwidth utilisation).
    pub fn flash_busy_time(&self) -> Nanos {
        self.flash.total_busy_time()
    }

    /// Aggregate flash busy time attributable to the window `[0, horizon]`:
    /// service committed to a still-draining backlog beyond `horizon` is
    /// excluded, so the result is bounded by `horizon × channels` and the
    /// derived bandwidth-utilisation ratio needs no clamp.
    pub fn flash_busy_time_within(&self, horizon: Nanos) -> Nanos {
        self.flash.busy_time_within(horizon)
    }

    /// Compaction busy time attributable to the window `[0, horizon]`. The
    /// union-of-windows measure in [`SsdStats::compaction_time`] can extend
    /// past `horizon` when the last campaign is still running; the final
    /// window is contiguous, so the overhang past the horizon is exactly
    /// `compaction_active_until - horizon`.
    pub fn compaction_time_within(&self, horizon: Nanos) -> Nanos {
        let overhang = self.compaction_active_until.saturating_sub(horizon);
        self.stats.compaction_time.saturating_sub(overhang)
    }

    /// Number of entries resident in the write log's active buffer, if the
    /// log is enabled (input to the audit's entry-conservation invariant).
    pub fn write_log_resident_entries(&self) -> Option<u64> {
        self.write_log.as_ref().map(|l| l.resident_entries())
    }

    /// Write-log occupancy as `(entries, capacity)`, if the log is enabled.
    /// A read-only telemetry probe of the active buffer's fill state.
    pub fn write_log_occupancy(&self) -> Option<(u64, u64)> {
        self.write_log
            .as_ref()
            .map(|l| (l.len() as u64, l.capacity() as u64))
    }

    /// Number of on-demand cache fills currently in flight (issued to flash
    /// but not yet landed in the data cache). A read-only telemetry probe.
    pub fn inflight_fill_count(&self) -> usize {
        self.inflight_fills.len()
    }

    /// Per-channel flash queue depths, indexed by channel. A read-only
    /// telemetry probe (see [`FlashArray::channel_depths`]).
    pub fn channel_depths(&self) -> Vec<usize> {
        self.flash.channel_depths()
    }

    /// Flushes all dirty state to flash: in page-granular mode every dirty
    /// page in the data cache is written back; in write-log mode the active
    /// log buffer is compacted. Used at the end of a measurement run so the
    /// write traffic of the two designs is compared on equal footing.
    /// Returns the completion time of the last flush.
    pub fn flush_all(&mut self, now: Nanos) -> Nanos {
        self.lazy_tick(now);
        let mut finish = now;
        if self.write_log.is_some() {
            self.execute_compaction(now);
            finish = finish.max(self.compaction_active_until);
        }
        let dirty: Vec<Lpa> = self
            .data_cache
            .cached_pages()
            .into_iter()
            .filter(|lpa| self.data_cache.dirty_bitmap(*lpa).unwrap_or(0) != 0)
            .collect();
        for lpa in dirty {
            self.data_cache.clean(lpa);
            self.stats.eviction_writebacks += 1;
            let outcome = self.ftl.write_page(lpa, now, &mut self.flash);
            finish = finish.max(outcome.completes_at);
        }
        finish
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Outcome of an access served from SSD DRAM: `indexing` of index
    /// lookup from `now`, then one SSD-DRAM access. No flash, no hint.
    fn dram_served(&self, served_by: ServedBy, now: Nanos, indexing: Nanos) -> SsdAccessOutcome {
        SsdAccessOutcome {
            ready_at: now + indexing + self.dram_latency,
            served_by,
            delay_hint: false,
            breakdown: AccessBreakdown {
                indexing,
                ssd_dram: self.dram_latency,
                flash: Nanos::ZERO,
            },
        }
    }

    /// Outcome of an access that waited for a flash fill: indexed at
    /// `t_indexed` after `indexing`, page in SSD DRAM at `flash_ready`, then
    /// one SSD-DRAM access.
    fn flash_served(
        &self,
        t_indexed: Nanos,
        indexing: Nanos,
        flash_ready: Nanos,
        delay_hint: bool,
    ) -> SsdAccessOutcome {
        SsdAccessOutcome {
            ready_at: flash_ready + self.dram_latency,
            served_by: ServedBy::Flash,
            delay_hint,
            breakdown: AccessBreakdown {
                indexing,
                ssd_dram: self.dram_latency,
                flash: flash_ready.since(t_indexed),
            },
        }
    }

    /// Decides the `SkyByte-Delay` hint for a flash-bound access of `lpa`
    /// arriving at `now` (Algorithm 1). The trigger policy is evaluated only
    /// when the variant enables the coordinated context switch, and before
    /// the fill is queued, so its estimate counts the commands already
    /// waiting on the channel.
    fn delay_hint(&mut self, lpa: Lpa, now: Nanos) -> bool {
        let hint = self.context_switch
            && self
                .trigger
                .should_context_switch(lpa, now, &self.ftl, &self.flash)
                .trigger;
        if hint {
            self.stats.delay_hints += 1;
        }
        hint
    }

    fn read_index_latency(&self) -> Nanos {
        if self.write_log.is_some() {
            // Parallel lookup of both indexes: the slower one dominates.
            self.log_index_latency.max(self.cache_index_latency)
        } else {
            self.cache_index_latency
        }
    }

    /// Housekeeping performed at the start of every request: retire finished
    /// flash commands and recycle finished compactions / page fills.
    fn lazy_tick(&mut self, now: Nanos) {
        self.flash.retire_completed(now);
        while let Some(&Reverse((ready, lpa))) = self.fill_order.peek() {
            if ready > now {
                break;
            }
            self.fill_order.pop();
            if self.inflight_fills.get(&lpa) == Some(&ready) {
                self.inflight_fills.remove(&lpa);
            }
        }
        if self.compaction_active_until <= now {
            if let Some(log) = &mut self.write_log {
                if log.compaction_in_progress() {
                    log.finish_compaction();
                }
            }
        }
    }

    /// Fetches a mapped page from flash, merging with an in-flight fill of
    /// the same page (controller MSHR behaviour). Returns the time the page
    /// is in SSD DRAM.
    fn fetch_page(&mut self, lpa: Lpa, now: Nanos) -> Nanos {
        if let Some(&ready) = self.inflight_fills.get(&lpa) {
            if ready > now {
                return ready;
            }
        }
        // Respect the controller MSHR capacity: when full, the new fetch
        // waits for the earliest outstanding fill to complete.
        let mut start = now;
        if self.inflight_fills.len() >= self.mshr_capacity {
            if let Some(earliest) = self.earliest_live_fill() {
                start = start.max(earliest);
            }
        }
        let ready = self
            .ftl
            .read_page(lpa, start, &mut self.flash)
            .unwrap_or(start);
        self.track_fill(lpa, ready);
        ready
    }

    /// Records an in-flight fill of `lpa` that lands at `ready`.
    fn track_fill(&mut self, lpa: Lpa, ready: Nanos) {
        self.inflight_fills.insert(lpa, ready);
        self.fill_order.push(Reverse((ready, lpa)));
    }

    /// Landing time of the earliest fill still in `inflight_fills`, dropping
    /// the stale index entries of re-fetched pages on the way.
    fn earliest_live_fill(&mut self) -> Option<Nanos> {
        while let Some(&Reverse((ready, lpa))) = self.fill_order.peek() {
            if self.inflight_fills.get(&lpa) == Some(&ready) {
                return Some(ready);
            }
            self.fill_order.pop();
        }
        None
    }

    /// Inserts a page into the data cache, handling dirty evictions
    /// (page-granular writeback in Base-CSSD mode) and merging any logged
    /// cachelines so the cached copy is up to date (R3 of Figure 11).
    fn insert_page_into_cache(&mut self, lpa: Lpa, at: Nanos) {
        if let Some(evicted) = self.data_cache.insert(lpa) {
            if evicted.is_dirty() {
                // Page-granular writeback of the whole page.
                self.stats.eviction_writebacks += 1;
                self.ftl.write_page(evicted.lpa, at, &mut self.flash);
            }
        }
        // State-wise merge of logged cachelines into the cached page: the log
        // remains authoritative, so nothing further to track here.
    }

    /// Writes a whole page through to flash because the data cache's
    /// admission policy bypassed it and the dirty cacheline has nowhere else
    /// to live. Never taken under the default admit-all policy.
    fn write_through(&mut self, lpa: Lpa, at: Nanos) {
        self.stats.write_throughs += 1;
        self.ftl.write_page(lpa, at, &mut self.flash);
    }

    /// Simple next-page prefetcher (one of the Base-CSSD optimisations the
    /// paper's baseline incorporates).
    fn maybe_prefetch(&mut self, lpa: Lpa, at: Nanos) {
        let next = Lpa::new(lpa.index() + 1);
        if next.index() >= self.logical_pages
            || self.data_cache.contains(next)
            || self.inflight_fills.contains_key(&next)
            || !self.ftl.is_mapped(next)
        {
            return;
        }
        if let Some(ready) = self.ftl.read_page(next, at, &mut self.flash) {
            self.track_fill(next, ready);
            self.insert_page_into_cache(next, ready);
            self.stats.prefetches += 1;
        }
    }

    /// Freezes the active log buffer and flushes the coalesced pages to flash
    /// in the background (Figure 13).
    fn execute_compaction(&mut self, now: Nanos) {
        let plan = match self.write_log.as_mut().and_then(|l| l.start_compaction()) {
            Some(p) => p,
            None => return,
        };
        self.stats.compactions += 1;
        self.stats.compaction_pages_flushed += plan.page_count() as u64;
        let mut finish = now;
        for flush in &plan.pages {
            let lpa = flush.lpa;
            let write_start = if self.data_cache.contains(lpa) {
                // L2: the cached copy already holds the merged data.
                self.data_cache.clean(lpa);
                now
            } else if self.ftl.is_mapped(lpa) {
                // L3/L4: load the page into the coalescing buffer and merge.
                self.ftl.read_page(lpa, now, &mut self.flash).unwrap_or(now)
            } else {
                // First write of this page: nothing to merge.
                now
            };
            // L5: write the merged page back, striped by the FTL allocator.
            let outcome = self.ftl.write_page(lpa, write_start, &mut self.flash);
            finish = finish.max(outcome.completes_at);
            if let Some(gc) = outcome.gc {
                finish = finish.max(gc.completes_at);
            }
        }
        // Account only the *non-overlapping extension* of the device's
        // compaction-busy window: overlapping campaigns used to each add
        // their full `finish - now` span, double-counting busy time that
        // `compaction_active_until` already modelled. The result is the
        // measure of the union of all campaign windows when campaigns start
        // in nondecreasing order, and a conservative lower bound otherwise
        // (a campaign whose whole window falls inside a gap *before*
        // `compaction_active_until` — possible because per-core clocks are
        // not globally monotone — contributes nothing rather than
        // double-counting). Either way the total never exceeds the covered
        // wall-clock span, which is what the conservation audit bounds by
        // the execution time.
        let busy_from = now.max(self.compaction_active_until);
        if finish > busy_from {
            self.stats.compaction_time += finish.since(busy_from);
        }
        self.compaction_active_until = self.compaction_active_until.max(finish);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::{SsdGeometry, VariantKind, MIB};

    fn small_cfg(variant: VariantKind) -> SimConfig {
        let mut cfg = SimConfig::default().with_variant(variant);
        cfg.ssd.geometry = SsdGeometry {
            channels: 4,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 32,
            page_size_bytes: 4096,
        };
        cfg.ssd.dram.data_cache_bytes = MIB;
        cfg.ssd.dram.write_log_bytes = 64 * 1024;
        cfg
    }

    #[test]
    fn skybyte_write_never_touches_flash_on_critical_path() {
        let cfg = small_cfg(VariantKind::SkyByteW);
        let mut ssd = SsdController::new(&cfg);
        let out = ssd.handle_write(Lpa::new(1), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::WriteLog);
        assert!(out.ready_at < Nanos::from_micros(1));
        assert_eq!(out.breakdown.flash, Nanos::ZERO);
        assert_eq!(ssd.flash_stats().pages_programmed, 0);
        assert_eq!(ssd.stats().write_log_appends, 1);
    }

    #[test]
    fn base_cssd_write_miss_fetches_page_from_flash() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        // Map the page first so the miss needs a real flash read.
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_write(Lpa::new(1), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::Flash);
        assert!(out.ready_at >= Nanos::from_micros(3));
        assert_eq!(ssd.stats().write_flash_misses, 1);
        // The second write to the same page hits the now-cached page.
        let out2 = ssd.handle_write(Lpa::new(1), 1, out.ready_at);
        assert_eq!(out2.served_by, ServedBy::DataCache);
    }

    #[test]
    fn read_after_logged_write_hits_the_log() {
        let cfg = small_cfg(VariantKind::SkyByteW);
        let mut ssd = SsdController::new(&cfg);
        ssd.handle_write(Lpa::new(5), 7, Nanos::ZERO);
        let r = ssd.handle_read(Lpa::new(5), 7, Nanos::new(500));
        assert_eq!(r.served_by, ServedBy::WriteLog);
        assert_eq!(ssd.stats().read_log_hits, 1);
        // A different cacheline of the same (unmapped) page is zero-filled.
        let r2 = ssd.handle_read(Lpa::new(5), 8, Nanos::new(1000));
        assert_eq!(r2.served_by, ServedBy::ZeroFill);
    }

    #[test]
    fn read_miss_of_mapped_page_goes_to_flash_and_caches() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(9)]);
        let r = ssd.handle_read(Lpa::new(9), 0, Nanos::ZERO);
        assert_eq!(r.served_by, ServedBy::Flash);
        assert!(r.breakdown.flash >= Nanos::from_micros(3));
        assert!(r.ready_at >= Nanos::from_micros(3));
        // Second read hits the data cache.
        let r2 = ssd.handle_read(Lpa::new(9), 1, r.ready_at);
        assert_eq!(r2.served_by, ServedBy::DataCache);
        assert_eq!(ssd.stats().read_cache_hits, 1);
    }

    #[test]
    fn delay_hint_only_when_enabled_and_slow() {
        // Context switching disabled: no hints even on flash misses.
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_read(Lpa::new(1), 0, Nanos::ZERO);
        assert!(!out.delay_hint);
        assert_eq!(ssd.stats().delay_hints, 0);

        // Context switching enabled: tR (3 µs) > threshold (2 µs) → hint.
        let cfg = small_cfg(VariantKind::SkyByteC);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(1)]);
        let out = ssd.handle_read(Lpa::new(1), 0, Nanos::ZERO);
        assert!(out.delay_hint);
        // The hint's wake-up time is the queued fill's completion.
        assert!(out.ready_at >= Nanos::from_micros(3));
        assert_eq!(out.breakdown.total(), out.ready_at);
        assert_eq!(ssd.stats().delay_hints, 1);

        // SSD-DRAM hits never send hints.
        let out2 = ssd.handle_read(Lpa::new(1), 0, Nanos::from_millis(1));
        assert!(!out2.delay_hint);
    }

    #[test]
    fn compaction_coalesces_and_reduces_flash_writes() {
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        // Tiny log: 8 KiB → 64 entries per buffer.
        cfg.ssd.dram.write_log_bytes = 8 * 1024;
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        // 256 writes, all to the same 4 pages: heavy coalescing.
        for i in 0..256u64 {
            ssd.handle_write(Lpa::new(i % 4), (i % 64) as u8, now);
            now += Nanos::new(100);
        }
        // Allow background work to be accounted.
        ssd.handle_read(Lpa::new(0), 0, now + Nanos::from_millis(10));
        let flash_writes = ssd.flash_stats().pages_programmed;
        assert!(ssd.stats().compactions >= 1, "log never compacted");
        assert!(
            flash_writes < 256,
            "compaction must coalesce: {flash_writes} programs for 256 writes"
        );
        assert!(ssd.stats().compaction_pages_flushed >= 4);
        assert!(ssd.stats().avg_compaction_time() > Nanos::ZERO);
    }

    #[test]
    fn overlapping_compactions_are_not_double_counted() {
        // Requests reach the controller with per-core clocks, so a second
        // compaction can start at a timestamp *inside* the window the first
        // one already occupies. The busy-time accounting must count the
        // overlap once (the union of the windows), not once per campaign.
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        cfg.ssd.dram.write_log_bytes = 8 * 1024; // 64 entries per buffer
        let mut ssd = SsdController::new(&cfg);
        // Campaign 1: fill the buffer with early-clock writes.
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(i % 16), (i % 64) as u8, Nanos::new(50 * i));
        }
        assert_eq!(ssd.stats().compactions, 1);
        let first_until = ssd.compaction_active_until();
        assert!(first_until > Nanos::from_micros(50));
        // A late-clock access retires campaign 1's frozen buffer.
        ssd.handle_read(Lpa::new(0), 0, first_until + Nanos::from_millis(10));
        // Campaign 2: an early-clock core fills the buffer again, starting a
        // compaction at a time the first window still covers.
        let overlap_start = Nanos::from_micros(5);
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(32 + i), 0, overlap_start);
        }
        assert_eq!(ssd.stats().compactions, 2, "need an overlapping campaign");
        // The busy-time union can never exceed the union span bound — with
        // the old per-campaign accounting the overlapping windows summed to
        // more than the covered wall-clock span.
        let span = ssd.compaction_active_until();
        assert!(
            ssd.stats().compaction_time <= span,
            "compaction busy time {} exceeds the union span bound {}",
            ssd.stats().compaction_time,
            span
        );
        assert!(ssd.stats().compaction_time > Nanos::ZERO);
    }

    #[test]
    fn windowed_compaction_time_is_bounded_by_the_horizon() {
        let mut cfg = small_cfg(VariantKind::SkyByteW);
        cfg.ssd.dram.write_log_bytes = 8 * 1024;
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        for i in 0..128u64 {
            ssd.handle_write(Lpa::new(i % 8), (i % 64) as u8, now);
            now += Nanos::new(50);
        }
        assert!(ssd.stats().compactions >= 1);
        // The last campaign extends past `now`; the windowed view excludes
        // the part beyond the horizon.
        assert!(ssd.compaction_time_within(now) <= now);
        let far = Nanos::from_secs(1);
        assert_eq!(ssd.compaction_time_within(far), ssd.stats().compaction_time);
    }

    #[test]
    fn windowed_flash_busy_time_is_bounded_by_channel_capacity() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition((0..64).map(Lpa::new));
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            let out = ssd.handle_read(Lpa::new(i), 0, now);
            now = now.max(out.ready_at / 2); // keep submissions dense
            now += Nanos::new(200);
        }
        let horizon = now;
        let channels = cfg.ssd.geometry.channels as u64;
        assert!(ssd.flash_busy_time_within(horizon) <= horizon * channels);
        // The unwindowed figure includes the draining backlog.
        assert!(ssd.flash_busy_time() >= ssd.flash_busy_time_within(horizon));
    }

    #[test]
    fn base_cssd_dirty_evictions_write_whole_pages() {
        let mut cfg = small_cfg(VariantKind::BaseCssd);
        // Cache of 4 pages so evictions happen quickly.
        cfg.ssd.dram.data_cache_bytes = 4 * 4096;
        cfg.ssd.dram.write_log_bytes = 4096; // unused (log disabled)
        let mut ssd = SsdController::new(&cfg);
        let mut now = Nanos::ZERO;
        for i in 0..64u64 {
            ssd.handle_write(Lpa::new(i), 0, now);
            now += Nanos::from_micros(1);
        }
        assert!(
            ssd.stats().eviction_writebacks > 0,
            "dirty pages must be written back on eviction"
        );
        assert!(ssd.flash_stats().pages_programmed > 0);
    }

    #[test]
    fn promotion_removes_page_and_demotion_restores_it() {
        let mut cfg = small_cfg(VariantKind::SkyByteFull);
        cfg.migration.hotness_threshold = 2;
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(3)]);
        let mut now = Nanos::ZERO;
        for _ in 0..3 {
            let out = ssd.handle_read(Lpa::new(3), 0, now);
            now = out.ready_at + Nanos::new(100);
        }
        let candidate = ssd.promotion_candidate();
        assert_eq!(candidate, Some(Lpa::new(3)));
        ssd.promote_page(Lpa::new(3));
        assert_eq!(ssd.stats().pages_promoted, 1);
        // After promotion the SSD no longer nominates the page.
        assert_eq!(ssd.promotion_candidate(), None);
        // Demotion programs the page back to flash.
        let done = ssd.demote_page(Lpa::new(3), now);
        assert!(done > now);
        assert_eq!(ssd.stats().tracked_pages, Some(0), "page 3 is untracked");
    }

    #[test]
    fn zero_fill_reads_do_not_touch_flash() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        let out = ssd.handle_read(Lpa::new(1234), 0, Nanos::ZERO);
        assert_eq!(out.served_by, ServedBy::ZeroFill);
        assert_eq!(ssd.flash_stats().pages_read, 0);
        assert_eq!(ssd.stats().read_zero_fills, 1);
    }

    #[test]
    fn inflight_fill_merging_avoids_duplicate_flash_reads() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = SsdController::new(&cfg);
        ssd.precondition([Lpa::new(7), Lpa::new(8)]);
        let a = ssd.handle_read(Lpa::new(7), 0, Nanos::ZERO);
        let reads_after_first = ssd.flash_stats().pages_read;
        // Second access to the same missing page before the fill completes.
        let b = ssd.handle_read(Lpa::new(7), 1, Nanos::new(100));
        // The page fill is shared; no additional *demand* read is issued for
        // the same page (prefetches may add reads for other pages).
        assert!(b.ready_at <= a.ready_at + cfg.ssd.dram.access_latency);
        assert!(ssd.flash_stats().pages_read <= reads_after_first + 1);
    }

    /// Base-CSSD with two MSHRs and pages 10, 20 and 30 mapped, one per
    /// channel. Their neighbours stay unmapped, so no prefetch issues a fill.
    fn two_mshr_controller(cfg: &mut SimConfig) -> SsdController {
        cfg.ssd.dram.mshrs = 2;
        let mut ssd = SsdController::new(cfg);
        ssd.precondition([Lpa::new(10), Lpa::new(20), Lpa::new(30)]);
        let channel = |lpa| ssd.ftl.translate(Lpa::new(lpa)).expect("mapped").channel;
        assert_eq!([channel(10), channel(20), channel(30)], [0, 1, 2]);
        ssd
    }

    #[test]
    fn mshr_full_miss_waits_for_the_earliest_live_fill() {
        let mut cfg = small_cfg(VariantKind::BaseCssd);
        let mut ssd = two_mshr_controller(&mut cfg);
        let (dram, index) = (
            cfg.ssd.dram.access_latency,
            cfg.ssd.dram.data_cache_index_latency,
        );
        let t_r = cfg.ssd.flash.read_latency;
        let first = ssd.handle_read(Lpa::new(10), 0, Nanos::ZERO).ready_at - dram;
        let second = ssd.handle_read(Lpa::new(20), 0, Nanos::new(500)).ready_at - dram;
        assert!(first < second);
        // Both MSHRs are busy: the third distinct miss, on an idle channel,
        // starts its flash read only when the earliest fill lands.
        let now = Nanos::new(1000);
        assert!(now + index < first);
        let third = ssd.handle_read(Lpa::new(30), 0, now);
        assert_eq!(third.served_by, ServedBy::Flash);
        assert_eq!(third.ready_at, first + t_r + dram);
        assert_eq!(third.breakdown.flash, (first + t_r).since(now + index));
    }

    #[test]
    fn mshr_wait_ignores_the_landed_fill_of_a_refetched_page() {
        let mut cfg = small_cfg(VariantKind::BaseCssd);
        // Two one-way sets: every even page competes for set 0.
        cfg.ssd.dram.data_cache_bytes = 4096;
        cfg.ssd.dram.write_log_bytes = 4096;
        cfg.ssd.dram.data_cache_ways = 1;
        let (dram, index) = (
            cfg.ssd.dram.access_latency,
            cfg.ssd.dram.data_cache_index_latency,
        );
        let t_r = cfg.ssd.flash.read_latency;
        // The third miss arrives one tick before page 10's first fill lands
        // (the fill is still queued for retirement, so the MSHR wait must
        // skip it) or exactly when it lands (retiring it must not free the
        // MSHR that page 10's re-fetch holds).
        for third_delay in [0, 1] {
            let mut ssd = two_mshr_controller(&mut cfg);
            let p_fill = ssd.handle_read(Lpa::new(10), 0, Nanos::ZERO).ready_at - dram;
            // Page 20's fill evicts page 10 from the cache.
            let q_fill = ssd.handle_read(Lpa::new(20), 0, Nanos::new(1000)).ready_at - dram;
            assert_eq!(q_fill, p_fill + Nanos::new(1000));
            // Page 10 misses again one tick before its first fill lands: that
            // fill has landed by the time the lookup finishes, so the
            // re-fetch neither merges with it nor waits for an MSHR.
            let now = p_fill - Nanos::new(1);
            let again = ssd.handle_read(Lpa::new(10), 0, now);
            assert_eq!(again.served_by, ServedBy::Flash);
            let p_refill = now + index + t_r;
            assert_eq!(again.ready_at, p_refill + dram);
            // Both MSHRs are busy, so the next miss starts at the earliest
            // live fill (page 20's), not at page 10's landed first fill.
            let live = q_fill.min(p_refill);
            let at = now + Nanos::new(third_delay);
            assert!(at + index < live);
            let third = ssd.handle_read(Lpa::new(30), 0, at);
            assert_eq!(third.ready_at, live + t_r + dram, "third miss at {at}");
        }
    }

    #[test]
    fn logical_capacity_respects_overprovisioning() {
        let cfg = small_cfg(VariantKind::BaseCssd);
        let ssd = SsdController::new(&cfg);
        let raw = cfg.ssd.geometry.total_pages();
        assert!(ssd.logical_pages() < raw);
        assert!(ssd.logical_pages() > raw * 9 / 10 - 1);
    }
}
