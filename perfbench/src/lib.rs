//! The repository benchmark of the SkyByte simulator.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload from the
//! repository root. It sets the workload up several times (configuration,
//! corpus check, `.sbt` recording, a warm-up pass), then repeats timed passes
//! until `--seconds` have passed, checks every pass's simulated output, and
//! prints a manifest line and, last, one JSON result line. Untraced, the
//! result holds the end-to-end metrics; traced (`--trace 1`), it holds the
//! per-layer metrics, measured from this package around calls into each
//! layer. `perfbench/README.md` has the notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod host;
pub mod layers;
pub mod workloads;

use check::{check, Output};
use host::{median, median_secs, quantile};
use layers::TimedSource;
use serde::Value;
use skybyte_sim::SimResult;
use skybyte_trace::TraceSource;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Pass, Subject};
pub use workloads::{Profile, Workload};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (enters only through the profile's scales).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Simulation sizes (seeded by [`run`]).
    pub profile: Profile,
    /// The repository checkout (holds `corpus/`; scratch files go under
    /// `perfbench/work/`).
    pub root: PathBuf,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Checked units of work attempted: corpus checks and passes.
    pub attempted: u64,
    /// Of those, how many panicked, were truncated or failed their check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// The end-to-end metrics, or the per-layer ones when traced.
    pub metrics: Vec<Metric>,
    /// How the result was produced: host, commit, sizes, seed, tracing.
    pub manifest: Value,
}

impl Report {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), Value::Map(entry))
            })
            .collect();
        let result = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&result).expect("a Value always renders")
    }

    /// The manifest line.
    pub fn manifest_json(&self) -> String {
        let wrapped = Value::Map(vec![("manifest".to_string(), self.manifest.clone())]);
        serde_json::to_string(&wrapped).expect("a Value always renders")
    }
}

/// Counts checked units of work and their failures.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Runs `f` as one checked unit of work: an error or a panic counts it
    /// as failed.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|panic| Err(format!("panicked: {}", panic_message(&panic))));
        outcome
            .map_err(|e| {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
            })
            .ok()
    }

    /// One pass, checked against `reference`.
    fn pass(
        &mut self,
        what: &str,
        reference: Option<&Output>,
        f: impl FnOnce() -> Result<Pass, String>,
    ) -> Option<Pass> {
        self.attempt(what, || {
            let pass = f()?;
            check(&pass.output, reference)?;
            Ok(pass)
        })
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// A per-invocation scratch directory under `perfbench/work/`, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<Self, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let dir = root.join("perfbench").join("work").join(name);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no concurrent invocation still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one invocation. `Err` means it could not start (no corpus: not a
/// repository checkout); everything after that is counted in the report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let corpus = opts.root.join("corpus");
    if !corpus.is_dir() {
        return Err(format!(
            "{} is not a repository checkout: no corpus/ directory",
            opts.root.display()
        ));
    }
    let profile = opts.profile.clone().seeded(opts.seed);
    let work = WorkDir::create(&opts.root)?;
    let mut tally = Tally::default();

    // Set-up, repeated so its median is steady. Each repetition builds the
    // configuration, checks the golden corpus, records the replay file and
    // makes a warm-up pass; the first warm-up is the reference output.
    let mut setup_walls = Vec::new();
    let mut recorded = None;
    let mut reference: Option<Output> = None;
    let mut subject = None;
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let started = Instant::now();
        let s = Subject::new(opts.workload, &profile, &work.0);
        tally.attempt("corpus check", || {
            // One job: a second thread would make the process's peak RSS
            // depend on scheduling.
            let report = skybyte_bench::corpus::verify(&corpus, 1)?;
            if report.is_clean() {
                Ok(())
            } else {
                Err(report.render_failures())
            }
        });
        if let Some(Some(record)) = tally.attempt("record", || s.prepare()) {
            recorded = Some(record);
        }
        let warm = tally.pass("warm-up pass", reference.as_ref(), || s.pass());
        setup_walls.push(started.elapsed());
        if let (None, Some(warm)) = (&reference, warm) {
            tally.attempt("workload coverage", || s.exercises(&warm.output));
            reference = Some(warm.output);
        }
        subject = Some(s);
    }
    let subject = subject.expect("at least one set-up");

    // The measured phase: timed passes until the time is up.
    let mut passes: Vec<Pass> = Vec::new();
    if tally.failed == 0 {
        let started = Instant::now();
        while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
            match tally.pass("pass", reference.as_ref(), || subject.pass()) {
                // Keep only what the metrics need: a fleet pass's runner
                // holds every result of the sweep.
                Some(mut pass) => {
                    pass.runner = None;
                    passes.push(pass);
                }
                None => break,
            }
        }
    }

    let metrics = if tally.failed > 0 || passes.is_empty() {
        Vec::new()
    } else if opts.trace {
        let reference = reference.as_ref().expect("a clean set-up has a reference");
        let extra = TracedInputs {
            subject: &subject,
            profile: &profile,
            reference,
            record: recorded,
            work: &work.0,
        };
        per_layer(&mut tally, &extra)
    } else {
        end_to_end(&passes, &setup_walls)
    };
    let manifest = manifest(opts, &profile, &subject, passes.len());
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        manifest,
    })
}

/// Throughput and pass wall time are totals over the measured phase, not
/// medians of passes: the host's speed drifts in regimes of several seconds,
/// longer than a pass, and the total weighs every regime by its length.
fn end_to_end(passes: &[Pass], setup_walls: &[Duration]) -> Vec<Metric> {
    let units: u64 = passes.iter().map(|p| p.units).sum();
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    vec![
        Metric::new("units_per_s", units as f64 / wall, "1/s"),
        Metric::new("wall_s", wall / passes.len() as f64, "s"),
        Metric::new("setup_s", median_secs(setup_walls), "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// What the traced run builds on.
struct TracedInputs<'a> {
    subject: &'a Subject,
    profile: &'a Profile,
    reference: &'a Output,
    /// Records in the replay file and the set-up's recording wall time.
    record: Option<(u64, Duration)>,
    /// The invocation's scratch directory.
    work: &'a Path,
}

/// Set-ups per untraced invocation (`setup_s` is their median).
const SETUP_REPS: usize = 3;
/// Measured passes made even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;
/// Traced passes repeated for the per-layer timings (medians reported).
const TRACED_PASSES: usize = 3;
/// Empty runs timed for `sim.build_ms` (median reported).
const EMPTY_RUNS: usize = 5;

/// The per-layer metrics. Every name is always present; a layer the
/// workload does not run reads 0.
fn per_layer(tally: &mut Tally, t: &TracedInputs) -> Vec<Metric> {
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let (counted, build_probe) = match t.subject {
        Subject::Single { sim, replay, .. } => {
            single_layers(tally, t, replay.as_deref(), &mut values);
            (
                vec![Arc::new(t.reference.results[0].clone())],
                (**sim).clone(),
            )
        }
        Subject::Fleet { scale } => (
            fleet_layers(tally, t, scale, &mut values),
            workloads::fleet_device_probe(scale),
        ),
    };
    let refs: Vec<&SimResult> = counted.iter().map(|r| r.as_ref()).collect();
    if !refs.is_empty() {
        values.push(("audit.us_per_run", layers::audit_us(&refs)));
    }
    let build = tally.attempt("empty runs", || {
        let runs: Vec<f64> = (0..EMPTY_RUNS)
            .map(|_| layers::empty_run_ms(&build_probe))
            .collect();
        Ok(median(&runs))
    });
    values.extend(build.map(|ms| ("sim.build_ms", ms)));

    let mut metrics: Vec<Metric> = LAYER_TIMINGS
        .iter()
        .map(|&(name, unit)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
            Metric::new(name, value, unit)
        })
        .collect();
    metrics.extend(layers::sim_counts(&refs));
    metrics
}

/// Runs an untraced pass and then `instrumented`, both checked against the
/// reference. Returns the instrumented pass's throughput loss against the
/// untraced one beside it (adjacent passes share the host's speed regime),
/// the pass, and what else `instrumented` measured.
fn paired<T>(
    tally: &mut Tally,
    what: &str,
    t: &TracedInputs,
    instrumented: impl FnOnce() -> Result<(Pass, T), String>,
) -> Option<(f64, Pass, T)> {
    tally.attempt(what, || {
        let plain = t.subject.pass()?;
        check(&plain.output, Some(t.reference))?;
        let (pass, extra) = instrumented()?;
        check(&pass.output, Some(t.reference))?;
        Ok((1.0 - pass.units_per_s() / plain.units_per_s(), pass, extra))
    })
}

/// The layers of a single long simulation: its trace source, the pipeline
/// behind it, telemetry, the recording and the SSD controller.
fn single_layers(
    tally: &mut Tally,
    t: &TracedInputs,
    replay: Option<&Path>,
    values: &mut Vec<(&'static str, f64)>,
) {
    let mut source_ns = Vec::new();
    let mut pipeline_ns = Vec::new();
    let mut overheads = Vec::new();
    for _ in 0..TRACED_PASSES {
        let traced = paired(tally, "traced pass", t, || {
            let (pass, busy, calls) = t.subject.traced_pass()?;
            Ok((pass, (busy, calls)))
        });
        if let Some((overhead, pass, (busy, calls))) = traced {
            source_ns.push(busy.as_nanos() as f64 / calls.max(1) as f64);
            let pipeline = pass.wall.saturating_sub(busy);
            pipeline_ns.push(pipeline.as_nanos() as f64 / pass.units.max(1) as f64);
            overheads.push(overhead);
        }
    }
    if !source_ns.is_empty() {
        let source = if replay.is_some() {
            "trace.next_record_ns"
        } else {
            "workloads.next_record_ns"
        };
        values.push((source, median(&source_ns)));
        values.push(("sim.pipeline_ns_per_unit", median(&pipeline_ns)));
        values.push(("trace_overhead_frac", median(&overheads)));
    }
    let telemetry = paired(tally, "telemetry pass", t, || {
        Ok((t.subject.telemetry_pass()?, ()))
    });
    if let Some((overhead, ..)) = telemetry {
        values.push(("telemetry.overhead_frac", overhead));
    }
    if let (Some(path), Some((records, wall))) = (replay, t.record) {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        values.push(("trace.record_s", wall.as_secs_f64()));
        values.push((
            "trace.bytes_per_record",
            bytes as f64 / records.max(1) as f64,
        ));
        // The generator runs only while recording here: time it in a second
        // recording, kept apart from the replayed file.
        let timed = tally.attempt("timed recording", || {
            let mut source = TimedSource::new(t.subject.generator().expect("single"));
            t.subject
                .record_to(&mut source, &t.work.join("timed.sbt"))?;
            Ok(source.ns_per_call())
        });
        values.extend(timed.map(|ns| ("workloads.next_record_ns", ns)));
    }
    let ssd = tally.attempt("ssd controller drive", || {
        let reference = &t.reference.results[0];
        let mut generator = t.subject.generator().expect("single");
        let threads = generator.threads();
        let records = (0..t.profile.ssd_calls)
            .map(|i| generator.next_record(i as u32 % threads))
            .filter_map(|r| r.transpose())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        // Arrivals spaced as the simulation spaced them on average.
        let gap = reference.exec_time / reference.ssd_accesses.max(1);
        let sim = t.subject.simulation().expect("single");
        let pages = t.subject.precondition_pages();
        Ok(layers::ssd_call_ns(sim.config(), pages, &records, gap))
    });
    values.extend(ssd.map(|ns| ("ssd.call_ns", ns)));
}

/// The runner layer of the fleet sweep, from one more pass. Returns the
/// distinct device results of the figure's grid points.
fn fleet_layers(
    tally: &mut Tally,
    t: &TracedInputs,
    scale: &skybyte_sim::ExperimentScale,
    values: &mut Vec<(&'static str, f64)>,
) -> Vec<Arc<SimResult>> {
    let Some((overhead, pass, ())) =
        paired(tally, "traced pass", t, || Ok((t.subject.pass()?, ())))
    else {
        return Vec::new();
    };
    let runner = pass
        .runner
        .as_ref()
        .expect("fleet passes keep their runner");
    let run_ms: Vec<f64> = runner
        .run_timings()
        .iter()
        .map(|r| r.wall_nanos as f64 / 1e6)
        .collect();
    let busy_s = run_ms.iter().sum::<f64>() / 1e3;
    values.push(("runner.runs_executed", runner.runs_executed() as f64));
    values.push(("runner.memo_hits", runner.memo_hits() as f64));
    if !run_ms.is_empty() {
        values.push(("runner.run_p50_ms", quantile(&run_ms, 0.5)));
        values.push(("runner.run_p90_ms", quantile(&run_ms, 0.9)));
    }
    values.push(("runner.run_samples", run_ms.len() as f64));
    let capacity = pass.wall.as_secs_f64() * workloads::FLEET_JOBS as f64;
    values.push(("runner.parallel_eff", busy_s / capacity));
    values.push(("trace_overhead_frac", overhead));
    workloads::fleet_device_results(runner, scale)
}

/// Host-time per-layer metrics, in `BENCHMARK.json` order, followed there by
/// the simulated counts of [`layers::sim_counts`].
const LAYER_TIMINGS: [(&str, &str); 16] = [
    ("workloads.next_record_ns", "ns"),
    ("trace.next_record_ns", "ns"),
    ("trace.record_s", "s"),
    ("trace.bytes_per_record", "B"),
    ("sim.pipeline_ns_per_unit", "ns"),
    ("sim.build_ms", "ms"),
    ("ssd.call_ns", "ns"),
    ("audit.us_per_run", "us"),
    ("runner.runs_executed", "count"),
    ("runner.memo_hits", "count"),
    ("runner.run_p50_ms", "ms"),
    ("runner.run_p90_ms", "ms"),
    ("runner.run_samples", "count"),
    ("runner.parallel_eff", "frac"),
    ("telemetry.overhead_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

fn manifest(opts: &Options, profile: &Profile, subject: &Subject, passes: usize) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let mut entries = vec![
        ("workload".to_string(), s(opts.workload.name())),
        ("seed".to_string(), Value::UInt(opts.seed)),
        ("tracing".to_string(), Value::Bool(opts.trace)),
        ("seconds".to_string(), Value::Float(opts.seconds)),
        ("profile".to_string(), s(profile.name)),
        ("commit".to_string(), s(&host::commit(&opts.root))),
        ("nproc".to_string(), Value::UInt(host::nproc() as u64)),
        ("cpu_model".to_string(), s(&host::cpu_model())),
        ("passes".to_string(), Value::UInt(passes as u64)),
    ];
    entries.extend(subject.describe());
    Value::Map(entries)
}
