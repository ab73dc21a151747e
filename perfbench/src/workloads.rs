//! The benchmark's workloads: what one pass of each simulates, and the
//! sizes it runs at.
//!
//! Why these three (the notes in `perfbench/README.md` give the layer
//! table):
//!
//! * `base-tpcc-gc` — one long Base-CSSD run fed by the synthetic generator:
//!   every access crosses the CXL port, the data-cache miss and writeback
//!   path, the flash queues and FTL garbage collection.
//! * `full-tpcc-replay` — one long SkyByte-Full run replayed from an `.sbt`
//!   file: the write log with compaction, delay hints driving context
//!   switches, hot-page promotion with TLB shootdowns, the trace decoder, and
//!   a 4× larger footprint.
//! * `fleet-sweep` — the fleet figure on a fresh memoizing runner with the
//!   audit on: many short multi-tenant runs, where per-run set-up, the runner
//!   and the audit dominate.

use crate::check::Output;
use crate::layers::{units, TimedSource};
use serde::{Serialize, Value};
use skybyte_sim::fleet::{fleet_population, FLEET_GRID, FLEET_PLACEMENTS};
use skybyte_sim::{fig_fleet, run_fleet, ExperimentScale, FleetConfig, Runner, Simulation};
use skybyte_trace::{record_to_file, TraceFileSource, TraceHeader, TraceSource};
use skybyte_types::{SimConfig, TelemetryConfig, VariantKind};
use skybyte_workloads::{WorkloadKind, WorkloadSource};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Base-CSSD on tpcc at bench scale, generator-fed, with FTL GC.
    BaseTpccGc,
    /// SkyByte-Full on tpcc at default scale, replayed from an `.sbt` file.
    FullTpccReplay,
    /// The fleet figure at bench scale on a fresh auditing runner.
    FleetSweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::BaseTpccGc,
        Workload::FullTpccReplay,
        Workload::FleetSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BaseTpccGc => "base-tpcc-gc",
            Workload::FullTpccReplay => "full-tpcc-replay",
            Workload::FleetSweep => "fleet-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The sizes every workload runs at. The seed enters only through the
/// scales' `seed` field (see [`Profile::seeded`]).
#[derive(Debug, Clone)]
pub struct Profile {
    /// Name recorded in the manifest.
    pub name: &'static str,
    /// Scale of the `base-tpcc-gc` run.
    pub base: ExperimentScale,
    /// Scale of the `full-tpcc-replay` run.
    pub full: ExperimentScale,
    /// Scale of the `fleet-sweep` figure.
    pub fleet: ExperimentScale,
    /// Accesses driven straight into the SSD controller for `ssd.call_ns`.
    pub ssd_calls: usize,
}

impl Profile {
    /// The sizes the benchmark is defined at.
    pub fn bench() -> Self {
        Profile {
            name: "bench",
            // 8 cores x 100k = 800k units: enough writes for several GC
            // campaigns on the bench-scale device.
            base: ExperimentScale::bench().with_accesses_per_thread(100_000),
            // 8 cores x 60k = 480k records over 24 threads, plus about 77k
            // squashed re-issues.
            full: ExperimentScale::default_scale().with_accesses_per_thread(60_000),
            fleet: ExperimentScale::bench(),
            ssd_calls: 400_000,
        }
    }

    /// Tiny sizes for the benchmark's self-tests: same code paths, seconds
    /// of work.
    pub fn tiny() -> Self {
        Profile {
            name: "tiny",
            base: ExperimentScale::tiny().with_accesses_per_thread(2_000),
            full: ExperimentScale::tiny(),
            fleet: ExperimentScale::tiny().with_accesses_per_thread(200),
            ssd_calls: 5_000,
        }
    }

    /// This profile with every scale's seed set to `seed`: the generator,
    /// the `.sbt` recording and the fleet population all derive from it.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.base.seed = seed;
        self.full.seed = seed;
        self.fleet.seed = seed;
        self
    }
}

/// Application threads of the `full-tpcc-replay` run: three per core, so
/// delay hints have other threads to switch to.
pub const FULL_THREADS: u32 = 24;

/// Fleet runner workers. One: with two, the process's peak RSS depends on
/// which runs happen to overlap (each worker thread allocates from its own
/// malloc arena) and spread by over 20% between runs.
pub const FLEET_JOBS: usize = 1;

/// One measured repetition of a workload.
pub struct Pass {
    /// Retired work units (completed requests plus squashed re-issues).
    pub units: u64,
    /// Host wall time of the pass.
    pub wall: Duration,
    /// What the pass simulated, for the output check.
    pub output: Output,
    /// The fleet sweep's runner, kept for its per-run statistics.
    pub runner: Option<Runner>,
}

impl Pass {
    /// Work units per host second.
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 / self.wall.as_secs_f64()
    }

    fn single(result: skybyte_sim::SimResult, wall: Duration) -> Self {
        Pass {
            units: units(&result),
            wall,
            output: Output::of_results(vec![result]),
            runner: None,
        }
    }
}

/// A workload with its configuration built, ready to run passes.
pub enum Subject {
    /// One long simulation per pass.
    Single {
        /// The configured simulation.
        sim: Box<Simulation>,
        /// Its scale (the seed lives here).
        scale: ExperimentScale,
        /// Which benchmark workload this is.
        kind: Workload,
        /// The `.sbt` file passes replay (`None`: generate live).
        replay: Option<PathBuf>,
    },
    /// One fleet figure per pass.
    Fleet {
        /// Scale of every fleet device.
        scale: ExperimentScale,
    },
}

impl Subject {
    /// Builds `workload`'s configuration at `profile`'s sizes; a replay file
    /// goes into `work`.
    pub fn new(workload: Workload, profile: &Profile, work: &Path) -> Self {
        match workload {
            Workload::BaseTpccGc => Subject::Single {
                sim: Box::new(Simulation::build(
                    VariantKind::BaseCssd,
                    WorkloadKind::Tpcc,
                    &profile.base,
                )),
                scale: profile.base,
                kind: workload,
                replay: None,
            },
            Workload::FullTpccReplay => {
                let scale = profile.full;
                let cfg = scale
                    .apply(SimConfig::default().with_variant(VariantKind::SkyByteFull))
                    .with_threads(FULL_THREADS);
                let sim = Box::new(Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale));
                let replay = Some(work.join(sim.trace_file_name()));
                Subject::Single {
                    sim,
                    scale,
                    kind: workload,
                    replay,
                }
            }
            Workload::FleetSweep => Subject::Fleet {
                scale: profile.fleet,
            },
        }
    }

    /// The manifest entries that say what this workload simulates.
    pub fn describe(&self) -> Vec<(String, Value)> {
        let text = |v: &str| Value::Str(v.to_string());
        let entry = |k: &str, v: Value| (k.to_string(), v);
        match self {
            Subject::Single {
                sim, scale, replay, ..
            } => {
                let cfg = sim.config();
                let drive = if replay.is_some() {
                    "sbt-replay"
                } else {
                    "generator"
                };
                vec![
                    entry("variants", Value::Seq(vec![text(&cfg.variant.to_string())])),
                    entry("app", text(sim.workload().name())),
                    entry("threads", Value::UInt(cfg.threads.into())),
                    entry("cores", Value::UInt(cfg.cpu.cores.into())),
                    entry("per_thread_budget", Value::UInt(sim.per_thread_budget())),
                    entry("drive", text(drive)),
                    entry("jobs", Value::UInt(1)),
                    entry("scale", scale.serialize()),
                ]
            }
            Subject::Fleet { scale } => vec![
                entry(
                    "variants",
                    Value::Seq(vec![text(&VariantKind::SkyByteFull.to_string())]),
                ),
                entry("app", text("fig_fleet")),
                entry("jobs", Value::UInt(FLEET_JOBS as u64)),
                entry("audit", Value::Bool(true)),
                entry("scale", scale.serialize()),
            ],
        }
    }

    /// The single simulation, if this workload runs one.
    pub fn simulation(&self) -> Option<&Simulation> {
        match self {
            Subject::Single { sim, .. } => Some(sim),
            Subject::Fleet { .. } => None,
        }
    }

    /// A fresh generator of the single simulation's access stream.
    pub fn generator(&self) -> Option<WorkloadSource> {
        match self {
            Subject::Single { sim, scale, .. } => Some(WorkloadSource::new(
                &scale.workload_spec(sim.workload()),
                sim.config().threads,
                scale.seed,
            )),
            Subject::Fleet { .. } => None,
        }
    }

    /// Pages the simulation preconditions its FTL with.
    pub fn precondition_pages(&self) -> u64 {
        match self {
            Subject::Single { sim, scale, .. } => {
                let pages = scale.workload_spec(sim.workload()).footprint_pages();
                (pages as f64 * scale.precondition_fraction) as u64
            }
            Subject::Fleet { .. } => 0,
        }
    }

    /// Records the replayed stream (what `source` yields, one per-thread
    /// budget of records per thread) to `path`. Returns the records written
    /// and the host time taken.
    pub fn record_to<S: TraceSource>(
        &self,
        source: &mut S,
        path: &Path,
    ) -> Result<(u64, Duration), String> {
        let Subject::Single { sim, scale, .. } = self else {
            return Err("the fleet sweep records no trace".to_string());
        };
        let header = TraceHeader {
            threads: sim.config().threads,
            footprint_bytes: scale.workload_spec(sim.workload()).footprint_bytes,
            seed: scale.seed,
            source: source.identity(),
            tenant_of_thread: None,
        };
        let started = Instant::now();
        let records = record_to_file(source, path, &header, sim.per_thread_budget())
            .map_err(|e| format!("recording {}: {e}", path.display()))?;
        Ok((records, started.elapsed()))
    }

    /// Checks that the reference pass did the work the workload is there
    /// for: GC without context switches on `base-tpcc-gc`; compactions,
    /// context switches and promotions on `full-tpcc-replay`. (The fleet
    /// pass itself fails without memo hits.)
    pub fn exercises(&self, output: &Output) -> Result<(), String> {
        let Subject::Single { kind, .. } = self else {
            return Ok(());
        };
        let r = output
            .results
            .first()
            .ok_or("the pass produced no result")?;
        let wanted: &[(&str, bool)] = match kind {
            Workload::BaseTpccGc => &[
                ("FTL GC campaigns", r.gc_campaigns > 0),
                ("no context switches", r.context_switches == 0),
            ],
            _ => &[
                ("write-log compactions", r.compactions > 0),
                ("context switches", r.context_switches > 0),
                ("page promotions", r.layers.migration.promotions > 0),
            ],
        };
        match wanted.iter().find(|(_, ok)| !ok) {
            Some((what, _)) => Err(format!("{} does not exercise {what}", kind.name())),
            None => Ok(()),
        }
    }

    /// Set-up beyond building the configuration: records the replay file,
    /// if this workload replays one. Returns the records written and the
    /// host time taken.
    pub fn prepare(&self) -> Result<Option<(u64, Duration)>, String> {
        let Subject::Single {
            replay: Some(path), ..
        } = self
        else {
            return Ok(None);
        };
        let mut generator = self.generator().expect("single simulations have one");
        self.record_to(&mut generator, path).map(Some)
    }

    /// One untraced, timed pass.
    pub fn pass(&self) -> Result<Pass, String> {
        match self {
            Subject::Single { sim, replay, .. } => {
                let started = Instant::now();
                let result = match replay {
                    None => sim.try_run(),
                    Some(path) => sim.run_trace_file(path),
                }
                .map_err(|e| e.to_string())?;
                Ok(Pass::single(result, started.elapsed()))
            }
            Subject::Fleet { scale } => {
                let runner = Runner::new(FLEET_JOBS).with_audit(true);
                let started = Instant::now();
                let table = fig_fleet(&runner, scale);
                let wall = started.elapsed();
                let failures = runner.audit_failures();
                if let Some(first) = failures.first() {
                    return Err(format!(
                        "{} fleet runs fail the audit: {first}",
                        failures.len()
                    ));
                }
                if runner.truncated_runs() > 0 {
                    return Err(format!("{} fleet runs truncated", runner.truncated_runs()));
                }
                if runner.memo_hits() == 0 {
                    return Err("the fleet sweep made no memo hits".to_string());
                }
                let timings = runner.run_timings();
                Ok(Pass {
                    units: timings.iter().map(|t| t.work_units).sum(),
                    wall,
                    output: Output::of_table(table, &timings),
                    runner: Some(runner),
                })
            }
        }
    }

    /// One pass of the single simulation with its trace source wrapped in a
    /// [`TimedSource`]. Returns the pass and the source's host time and
    /// call count.
    pub fn traced_pass(&self) -> Result<(Pass, Duration, u64), String> {
        let Subject::Single { sim, replay, .. } = self else {
            return Err("the fleet sweep has no single trace source".to_string());
        };
        let (result, wall, busy, calls) = match replay {
            None => {
                let generator = self
                    .generator()
                    .expect("single simulations have a generator");
                timed_run(sim, TimedSource::new(generator), sim.per_thread_budget())
            }
            Some(path) => {
                let file = TraceFileSource::open(path).map_err(|e| e.to_string())?;
                timed_run(sim, TimedSource::new(file), u64::MAX)
            }
        };
        Ok((Pass::single(result, wall), busy, calls))
    }

    /// One pass of the single simulation with simulated-time telemetry on
    /// (the metrics sampler; no timeline).
    pub fn telemetry_pass(&self) -> Result<Pass, String> {
        let Subject::Single { sim, replay, .. } = self else {
            return Err("the fleet sweep runs no single simulation".to_string());
        };
        let mut sim = sim.clone();
        sim.config_mut().telemetry = TelemetryConfig {
            enabled: true,
            timeline: false,
            ..TelemetryConfig::default()
        };
        let started = Instant::now();
        let (result, telemetry) = match replay {
            None => sim.try_run_with_telemetry(),
            Some(path) => sim.run_trace_file_with_telemetry(path),
        }
        .map_err(|e| e.to_string())?;
        let wall = started.elapsed();
        if telemetry.is_none() {
            return Err("telemetry was enabled but produced no output".to_string());
        }
        Ok(Pass::single(result, wall))
    }
}

fn timed_run<S: TraceSource>(
    sim: &Simulation,
    mut source: TimedSource<S>,
    budget: u64,
) -> (skybyte_sim::SimResult, Duration, Duration, u64) {
    let started = Instant::now();
    let result = sim.run_with_source(&mut source, budget);
    (result, started.elapsed(), source.busy(), source.calls())
}

/// The device results of the fleet figure's placement × grid points, looked
/// up on `runner` after a pass (every one is a memo hit). Each distinct
/// device simulation appears once.
pub fn fleet_device_results(
    runner: &Runner,
    scale: &ExperimentScale,
) -> Vec<Arc<skybyte_sim::SimResult>> {
    let mut results: Vec<Arc<skybyte_sim::SimResult>> = Vec::new();
    for placement in FLEET_PLACEMENTS {
        for (devices, tenants) in FLEET_GRID {
            let mut cfg = FleetConfig::new(devices, VariantKind::SkyByteFull, *scale);
            cfg.tenants = fleet_population(scale, devices, tenants);
            cfg.placement = placement;
            for device in run_fleet(runner, &cfg).devices {
                if let Some(r) = device.result {
                    if !results.iter().any(|seen| Arc::ptr_eq(seen, &r)) {
                        results.push(r);
                    }
                }
            }
        }
    }
    results
}

/// A simulation shaped like one device of the fleet figure's largest grid
/// point (its first device's tenants), for timing an empty run.
pub fn fleet_device_probe(scale: &ExperimentScale) -> Simulation {
    let (devices, tenants) = FLEET_GRID[FLEET_GRID.len() - 1];
    let per_device = tenants / devices;
    let composition: Vec<(WorkloadKind, u32)> = fleet_population(scale, devices, tenants)
        .iter()
        .take(per_device)
        .map(|d| (d.workload, d.threads))
        .collect();
    Simulation::build_multi(VariantKind::SkyByteFull, &composition, scale)
}
