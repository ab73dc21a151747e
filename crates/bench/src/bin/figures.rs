//! Regenerates the data series of every table and figure of the SkyByte
//! paper's evaluation section.
//!
//! ```text
//! cargo run --release -p skybyte-bench --bin figures -- --all
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --scale bench
//! cargo run --release -p skybyte-bench --bin figures -- --fig mt --audit
//! cargo run --release -p skybyte-bench --bin figures -- --all --jobs 8
//! cargo run --release -p skybyte-bench --bin figures -- --all --out results/
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --record-dir traces/
//! cargo run --release -p skybyte-bench --bin figures -- --fig 14 --replay-dir traces/
//! ```
//!
//! All simulations of one invocation run on a shared parallel, memoizing
//! runner (`--jobs N` workers, defaulting to the host's available
//! parallelism), so baselines needed by several figures are simulated once.
//! `--out DIR` additionally writes each regenerated table as `DIR/<id>.csv`
//! for plotting. `--record-dir DIR` tees every simulation's consumed
//! workload stream to an `.sbt` trace in `DIR`; `--replay-dir DIR` drives
//! the simulations from those traces instead of the live generators —
//! replayed output is bit-identical to the recorded run.
//!
//! Figures 1, 7, 8, 11, 12 and 13 are architecture diagrams without data
//! series and are therefore not listed.

use skybyte_bench::{figures_scale, harness_runner};
use skybyte_sim::report::{figure_table_named, paper_table, render, DATA_FIGURES};
use skybyte_sim::{chrome_trace_json, metrics_csv, ExperimentScale, TraceDrive};
use skybyte_types::{Nanos, PolicyOverride, TelemetryConfig};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    /// Requested figures: paper figure numbers (`"14"`) or named
    /// repository experiments (`"mt"`, `"policy"`).
    figures: Vec<String>,
    tables: Vec<u32>,
    scale: ExperimentScale,
    all: bool,
    jobs: Option<usize>,
    out: Option<PathBuf>,
    drive: TraceDrive,
    audit: bool,
    /// Write a machine-readable engine-throughput report (`--perf`,
    /// optionally `--perf PATH`; defaults to `perf.json`).
    perf: Option<PathBuf>,
    /// Policy names applied to every simulation (`--policy <name>`,
    /// repeatable), resolved through the unified registry.
    policies: Vec<PolicyOverride>,
    /// Write the merged telemetry time series of every executed run as CSV
    /// (`--metrics PATH`).
    metrics: Option<PathBuf>,
    /// Write the merged Chrome trace-event timeline of every executed run
    /// (`--timeline PATH`).
    timeline: Option<PathBuf>,
    /// Telemetry sampling cadence in microseconds of simulated time
    /// (`--sample-us N`, default 10).
    sample_us: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figures: Vec::new(),
        tables: Vec::new(),
        scale: ExperimentScale::bench(),
        all: false,
        jobs: None,
        out: None,
        drive: TraceDrive::Synthetic,
        audit: false,
        perf: None,
        policies: Vec::new(),
        metrics: None,
        timeline: None,
        sample_us: 10,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => opts.all = true,
            "--fig" | "--figure" => {
                i += 1;
                let name = args
                    .get(i)
                    .ok_or("--fig requires a number, 'mt', 'policy' or 'fleet'")?;
                if name != "mt" && name != "policy" && name != "fleet" {
                    name.parse::<u32>()
                        .map_err(|e| format!("invalid figure number: {e}"))?;
                }
                opts.figures.push(name.clone());
            }
            "--policy" => {
                i += 1;
                let name = args.get(i).ok_or("--policy requires a policy name")?;
                opts.policies.push(name.parse::<PolicyOverride>()?);
            }
            "--table" => {
                i += 1;
                let n = args
                    .get(i)
                    .ok_or("--table requires a number")?
                    .parse::<u32>()
                    .map_err(|e| format!("invalid table number: {e}"))?;
                opts.tables.push(n);
            }
            "--scale" => {
                i += 1;
                let name = args.get(i).ok_or("--scale requires a name")?;
                opts.scale = figures_scale(name)
                    .ok_or_else(|| format!("unknown scale '{name}' (tiny|bench|default)"))?;
            }
            "--jobs" | "-j" => {
                i += 1;
                let n = args
                    .get(i)
                    .ok_or("--jobs requires a number")?
                    .parse::<usize>()
                    .map_err(|e| format!("invalid job count: {e}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = Some(n);
            }
            "--out" => {
                i += 1;
                let dir = args.get(i).ok_or("--out requires a directory")?;
                opts.out = Some(PathBuf::from(dir));
            }
            "--record-dir" => {
                i += 1;
                let dir = args.get(i).ok_or("--record-dir requires a directory")?;
                if opts.drive != TraceDrive::Synthetic {
                    return Err("--record-dir and --replay-dir are mutually exclusive".into());
                }
                opts.drive = TraceDrive::Record {
                    dir: PathBuf::from(dir),
                };
            }
            "--replay-dir" => {
                i += 1;
                let dir = args.get(i).ok_or("--replay-dir requires a directory")?;
                if opts.drive != TraceDrive::Synthetic {
                    return Err("--record-dir and --replay-dir are mutually exclusive".into());
                }
                opts.drive = TraceDrive::Replay {
                    dir: PathBuf::from(dir),
                };
            }
            "--audit" => opts.audit = true,
            "--metrics" => {
                i += 1;
                let path = args.get(i).ok_or("--metrics requires a path")?;
                opts.metrics = Some(PathBuf::from(path));
            }
            "--timeline" => {
                i += 1;
                let path = args.get(i).ok_or("--timeline requires a path")?;
                opts.timeline = Some(PathBuf::from(path));
            }
            "--sample-us" => {
                i += 1;
                let us = args
                    .get(i)
                    .ok_or("--sample-us requires a number")?
                    .parse::<u64>()
                    .map_err(|e| format!("invalid sample interval: {e}"))?;
                if us == 0 {
                    return Err("--sample-us must be at least 1".to_string());
                }
                opts.sample_us = us;
            }
            "--perf" => {
                // An optional path may follow; anything starting with `--`
                // is the next flag, not a path.
                let path = match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        i += 1;
                        PathBuf::from(next)
                    }
                    _ => PathBuf::from("perf.json"),
                };
                opts.perf = Some(path);
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--all] [--fig N|mt|policy|fleet]... [--table N]... \
                     [--scale tiny|bench|default] [--jobs N] [--out DIR] \
                     [--record-dir DIR | --replay-dir DIR] [--audit] [--policy NAME]...\n\n\
                     --fig mt           the multi-tenant interference experiment\n\
                     \u{20}                  (ycsb + tpcc co-located, per-tenant slowdown vs solo)\n\
                     --fig policy       the pluggable-policy ablation (eviction x hotness,\n\
                     \u{20}                  plus admission and tenant-scheduling contenders)\n\
                     --fig fleet        the multi-device fleet sweep (placement policy x\n\
                     \u{20}                  fleet size, per-tenant tail slowdown + fairness)\n\
                     --policy NAME      apply a policy to every simulation (repeatable;\n\
                     \u{20}                  e.g. clock, 2q, bypass-scan, decay, topk,\n\
                     \u{20}                  fair-share, tpp, rr — unified name registry)\n\
                     --out DIR          also write each regenerated table as DIR/<id>.csv\n\
                     --record-dir DIR   tee every simulation's workload stream to .sbt traces\n\
                     --replay-dir DIR   drive the simulations from recorded .sbt traces\n\
                     --audit            run the cross-layer conservation audit on every\n\
                     \u{20}                  simulation and fail on any violated invariant\n\
                     --perf [PATH]      write a machine-readable engine-throughput report\n\
                     \u{20}                  (per-run wall clock + accesses/sec; default perf.json)\n\
                     --metrics PATH     write the telemetry time series of every executed\n\
                     \u{20}                  simulation as one merged CSV (observe-only)\n\
                     --timeline PATH    write a merged Chrome trace-event timeline of every\n\
                     \u{20}                  executed simulation (open in Perfetto)\n\
                     --sample-us N      telemetry sampling cadence in simulated microseconds\n\
                     \u{20}                  (default 10)\n\
                     (see the `trace` binary for standalone record/replay/stat/mix)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if !opts.all && opts.figures.is_empty() && opts.tables.is_empty() {
        // Default: the headline results.
        opts.figures = vec!["14".into(), "18".into()];
        opts.tables = vec![1, 3];
    }
    Ok(opts)
}

/// Regenerates, prints and (optionally) CSV-exports every requested table
/// and figure; returns the number of CSV files written.
fn regenerate(
    runner: &skybyte_sim::Runner,
    opts: &Options,
    tables: Vec<u32>,
    figures: Vec<String>,
) -> Result<usize, String> {
    let mut exported = 0usize;
    let all = tables
        .into_iter()
        .map(|n| (n.to_string(), true))
        .chain(figures.into_iter().map(|n| (n, false)));
    for (n, is_table) in all {
        let table = if is_table {
            paper_table(runner, n.parse().expect("table numbers"), &opts.scale)
        } else {
            figure_table_named(runner, &n, &opts.scale)?
        };
        println!("{}", render(&table));
        if let Some(dir) = &opts.out {
            let path = dir.join(format!("{}.csv", table.id));
            std::fs::write(&path, table.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            exported += 1;
        }
    }
    Ok(exported)
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("simulation panicked")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (figures, tables) = if opts.all {
        // `--all` regenerates every paper figure plus the repository's own
        // multi-tenant experiments. Trace drives are single-tenant
        // (multi-tenant runs compose their sources live), so recording or
        // replaying `--all` skips them.
        let mut figs: Vec<String> = DATA_FIGURES.iter().map(|n| n.to_string()).collect();
        if opts.drive == TraceDrive::Synthetic {
            figs.push("mt".into());
            figs.push("policy".into());
            figs.push("fleet".into());
        } else {
            eprintln!(
                "[figures] note: skipping figures mt/policy/fleet under --record-dir/--replay-dir"
            );
        }
        (figs, vec![1, 2, 3, 4])
    } else {
        (opts.figures.clone(), opts.tables.clone())
    };
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "error: cannot create --out directory {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    let telemetry = TelemetryConfig {
        enabled: opts.metrics.is_some() || opts.timeline.is_some(),
        sample_interval: Nanos::from_micros(opts.sample_us),
        timeline: opts.timeline.is_some(),
    };
    let runner = harness_runner(opts.jobs)
        .with_drive(opts.drive.clone())
        .with_policy_overrides(opts.policies.clone())
        .with_audit(opts.audit)
        .with_telemetry(telemetry);
    // Harness panics (a missing trace under --replay-dir, an invalid figure
    // number) should read as CLI errors, not backtraces: silence the hook,
    // catch the unwind, and report the payload on the binary's error path.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        regenerate(&runner, &opts, tables, figures)
    }));
    std::panic::set_hook(default_hook);
    let exported = match outcome {
        Ok(Ok(n)) => n,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        Err(payload) => {
            eprintln!("error: {}", panic_message(payload.as_ref()));
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "[figures] {} unique simulations on {} worker thread(s)",
        runner.runs_executed(),
        runner.jobs()
    );
    match runner.drive() {
        TraceDrive::Record { dir } => {
            eprintln!("[figures] recorded workload traces to {}", dir.display());
        }
        TraceDrive::Replay { dir } => {
            eprintln!("[figures] replayed workload traces from {}", dir.display());
        }
        TraceDrive::Synthetic => {}
    }
    if let Some(dir) = &opts.out {
        eprintln!(
            "[figures] wrote {exported} CSV file(s) to {}",
            dir.display()
        );
    }
    if telemetry.enabled {
        let outputs = runner.telemetry_outputs();
        // Memo hits recall a cached result without re-running, so they
        // carry no telemetry; say how many runs that left out.
        let skipped = runner.memo_hits();
        if let Some(path) = &opts.metrics {
            let csv = metrics_csv(
                outputs
                    .iter()
                    .map(|(label, o)| (label.as_str(), &o.metrics)),
            );
            if let Err(e) = std::fs::write(path, csv) {
                eprintln!("error: cannot write --metrics CSV {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[figures] metrics: {} run(s) sampled into {} \
                 ({skipped} memo hit(s) contributed no telemetry)",
                outputs.len(),
                path.display()
            );
        }
        if let Some(path) = &opts.timeline {
            let json = chrome_trace_json(
                outputs
                    .iter()
                    .map(|(label, o)| (label.as_str(), &o.timeline)),
            );
            if let Err(e) = std::fs::write(path, json) {
                eprintln!(
                    "error: cannot write --timeline JSON {}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[figures] timeline: {} run(s) written to {} (open in Perfetto; \
                 {skipped} memo hit(s) contributed no telemetry)",
                outputs.len(),
                path.display()
            );
        }
    }
    if let Some(path) = &opts.perf {
        let report = skybyte_sim::PerfReport::from_runner(&runner);
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: cannot write --perf report {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                for run in &report.runs {
                    eprintln!(
                        "[figures] perf: {}/{} — {:.3}s wall, {} work units \
                         ({:.0} accesses/sec), p50/p99/p999 {}/{}/{} ns",
                        run.variant,
                        run.workload,
                        run.wall_nanos as f64 / 1e9,
                        run.work_units,
                        run.units_per_sec,
                        run.p50_ns,
                        run.p99_ns,
                        run.p999_ns
                    );
                }
                eprintln!(
                    "[figures] perf: {} work units in {:.3}s wall ({:.0} accesses/sec \
                     aggregate) across {} run(s), {} memo hit(s); report written to {}",
                    report.total_work_units,
                    report.total_wall_nanos as f64 / 1e9,
                    report.aggregate_units_per_sec,
                    report.runs.len(),
                    runner.memo_hits(),
                    path.display()
                );
            }
            Err(e) => {
                eprintln!("error: cannot serialise --perf report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if runner.truncated_runs() > 0 {
        eprintln!(
            "[figures] warning: {} simulation(s) hit the engine step limit; \
             the corresponding series describe truncated executions",
            runner.truncated_runs()
        );
    }
    if opts.audit {
        let failures = runner.audit_failures();
        if failures.is_empty() {
            eprintln!(
                "[figures] conservation audit clean across {} simulation(s)",
                runner.runs_executed()
            );
        } else {
            for f in &failures {
                eprintln!("[figures] audit violation: {f}");
            }
            eprintln!(
                "[figures] conservation audit FAILED for {} simulation(s)",
                failures.len()
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
