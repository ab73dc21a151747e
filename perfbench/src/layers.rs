//! Per-layer measurements, taken from outside the program around calls into
//! each layer's public functions, and the simulated counts that explain
//! them.

use crate::Metric;
use skybyte_sim::{SimResult, Simulation};
use skybyte_ssd::SsdController;
use skybyte_trace::{TraceError, TraceRecord, TraceSource, VecSource};
use skybyte_types::{LatencyHistogram, Lpa, Nanos, SimConfig, TenantId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wraps a trace source and times every `next_record` call into it.
///
/// The two clock reads per record are the tracing overhead the traced run
/// reports as `trace_overhead_frac`.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    calls: u64,
    busy: Duration,
}

impl<S: TraceSource> TimedSource<S> {
    /// Starts timing `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            calls: 0,
            busy: Duration::ZERO,
        }
    }

    /// `next_record` calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Host time spent inside the wrapped source so far.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Mean host nanoseconds per `next_record` call (0 before any call).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.busy.as_nanos() as f64 / self.calls as f64
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn threads(&self) -> u32 {
        self.inner.threads()
    }

    fn identity(&self) -> String {
        self.inner.identity()
    }

    fn next_record(&mut self, thread: u32) -> Result<Option<TraceRecord>, TraceError> {
        let started = Instant::now();
        let record = self.inner.next_record(thread);
        self.busy += started.elapsed();
        self.calls += 1;
        record
    }

    fn reset_thread(&mut self, thread: u32) -> Result<bool, TraceError> {
        self.inner.reset_thread(thread)
    }

    fn tenant_of(&self, thread: u32) -> TenantId {
        self.inner.tenant_of(thread)
    }
}

/// Host milliseconds of a run that simulates nothing: `sim` driven by a
/// source whose streams are all empty. What remains is building the devices,
/// preconditioning the FTL and assembling the result.
pub fn empty_run_ms(sim: &Simulation) -> f64 {
    let mut empty = VecSource::new("empty", vec![Vec::new(); sim.config().threads as usize]);
    let started = Instant::now();
    black_box(sim.run_with_source(&mut empty, u64::MAX));
    started.elapsed().as_secs_f64() * 1e3
}

/// Host nanoseconds per `SsdController::handle_read`/`handle_write` call,
/// driving `records` straight into a controller built from `cfg` whose FTL is
/// preconditioned with `precondition_pages` pages, as a simulation does. The
/// `n`-th access arrives at `n × gap`.
pub fn ssd_call_ns(
    cfg: &SimConfig,
    precondition_pages: u64,
    records: &[TraceRecord],
    gap: Nanos,
) -> f64 {
    let mut ssd = SsdController::new(cfg);
    let pages = precondition_pages.min(ssd.logical_pages());
    ssd.precondition((0..pages).map(Lpa::new));
    let started = Instant::now();
    let mut now = Nanos::ZERO;
    for record in records {
        let addr = record.access.addr;
        let lpa = Lpa::new(addr.page().index());
        let cl = addr.cacheline_in_page() as u8;
        let outcome = if record.access.kind.is_write() {
            ssd.handle_write(lpa, cl, now)
        } else {
            ssd.handle_read(lpa, cl, now)
        };
        black_box(outcome);
        now += gap;
    }
    started.elapsed().as_nanos() as f64 / records.len().max(1) as f64
}

/// Retired work units of a result: completed requests plus squashed
/// re-issues, the unit `RunTiming` counts.
pub fn units(r: &SimResult) -> u64 {
    r.requests.total() + r.squashed_accesses
}

/// Host microseconds per `audit::audit` call over `results`, best of a few
/// rounds so one slow round does not dominate.
pub fn audit_us(results: &[&SimResult]) -> f64 {
    let per_round = results.len().max(1) as f64;
    (0..5)
        .map(|_| {
            let started = Instant::now();
            for r in results {
                black_box(skybyte_sim::audit::audit(r));
            }
            started.elapsed().as_secs_f64() * 1e6 / per_round
        })
        .fold(f64::INFINITY, f64::min)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The simulated counts of `results`, summed (ratios of the sums where a
/// ratio is asked for). They repeat exactly for a fixed seed and explain
/// host time, which scales with the events simulated.
pub fn sim_counts(results: &[&SimResult]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let mut hist = LatencyHistogram::new();
    for r in results {
        hist.merge(&r.latency_hist);
    }
    let amat_total = sum(&|r| r.amat.total().as_nanos());
    let amat_accesses = sum(&|r| r.amat.accesses);
    let busy = sum(&|r| {
        let b = r.boundedness;
        (b.compute + b.memory + b.context_switch).as_nanos()
    });
    let ssd_reads = sum(&|r| r.layers.ssd.reads);
    let ssd_read_hits = sum(&|r| {
        let s = r.layers.ssd;
        s.read_log_hits + s.read_cache_hits + s.read_zero_fills
    });
    let flash_capacity = sum(&|r| r.exec_time.as_nanos() * r.flash_channels as u64);
    vec![
        Metric::new("sim.units", sum(&units), "count"),
        Metric::new("sim.exec_ms", sum(&|r| r.exec_time.as_nanos()) / 1e6, "ms"),
        Metric::new("sim.amat_ns", ratio(amat_total, amat_accesses), "ns"),
        Metric::new(
            "sim.amat_unattributed_frac",
            1.0 - ratio(amat_total, hist.total().as_nanos() as f64),
            "frac",
        ),
        Metric::new("sim.lat_p99_ns", hist.p99().as_nanos() as f64, "ns"),
        Metric::new(
            "cpu.memory_bound_frac",
            ratio(sum(&|r| r.boundedness.memory.as_nanos()), busy),
            "frac",
        ),
        Metric::new("os.context_switches", sum(&|r| r.context_switches), "count"),
        Metric::new("cxl.requests", sum(&|r| r.layers.cxl.requests), "count"),
        Metric::new("ssd.read_hit_frac", ratio(ssd_read_hits, ssd_reads), "frac"),
        Metric::new(
            "ssd.delay_hints",
            sum(&|r| r.layers.ssd.delay_hints),
            "count",
        ),
        Metric::new(
            "cache.log_appends",
            sum(&|r| r.layers.ssd.write_log_appends),
            "count",
        ),
        Metric::new(
            "cache.log_compactions",
            sum(&|r| r.layers.ssd.compactions),
            "count",
        ),
        Metric::new(
            "cache.evictions",
            sum(&|r| r.layers.ssd.eviction_writebacks),
            "count",
        ),
        Metric::new(
            "ftl.gc_campaigns",
            sum(&|r| r.layers.ftl.gc_campaigns),
            "count",
        ),
        Metric::new(
            "ftl.waf",
            ratio(
                sum(&|r| r.layers.ftl.flash_pages_programmed),
                sum(&|r| r.layers.ftl.host_pages_written),
            ),
            "ratio",
        ),
        Metric::new(
            "flash.pages_read",
            sum(&|r| r.layers.flash.pages_read),
            "count",
        ),
        Metric::new(
            "flash.pages_programmed",
            sum(&|r| r.layers.flash.pages_programmed),
            "count",
        ),
        Metric::new(
            "flash.util",
            ratio(sum(&|r| r.flash_busy_time.as_nanos()), flash_capacity),
            "frac",
        ),
        Metric::new(
            "migration.promotions",
            sum(&|r| r.layers.migration.promotions),
            "count",
        ),
        Metric::new(
            "migration.tlb_shootdowns",
            sum(&|r| r.layers.migration.tlb_shootdowns),
            "count",
        ),
    ]
}
