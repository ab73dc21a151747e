//! Self-tests of the benchmark: every workload runs at tiny scale and prints
//! every metric `BENCHMARK.json` names, with its unit; and the output check
//! rejects a tampered result.

use serde::Value;
use skybyte_perfbench::check::{check, Output};
use skybyte_perfbench::{run, Options, Profile, Workload};
use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::VariantKind;
use skybyte_workloads::WorkloadKind;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `key` list.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let Ok(Value::Map(top)) = serde_json::from_str::<Value>(&text) else {
        panic!("BENCHMARK.json is a JSON object");
    };
    let field = |entries: &[(String, Value)], name: &str| -> String {
        match entries.iter().find(|(k, _)| k == name) {
            Some((_, Value::Str(s))) => s.clone(),
            other => panic!("metric field {name} is not a string: {other:?}"),
        }
    };
    match top.iter().find(|(k, _)| k == key) {
        Some((_, Value::Seq(metrics))) => metrics
            .iter()
            .map(|m| match m {
                Value::Map(entries) => (field(entries, "name"), field(entries, "unit")),
                other => panic!("metric entry is not an object: {other:?}"),
            })
            .collect(),
        other => panic!("BENCHMARK.json has no {key} list: {other:?}"),
    }
}

fn smoke(workload: Workload, trace: bool) {
    let opts = Options {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        profile: Profile::tiny(),
        root: repo_root(),
    };
    let report = run(&opts).expect("the repository is a checkout");
    assert!(report.correct(), "{:?}", report.failures);
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let key = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        printed,
        declared(key),
        "{} prints the {key} list",
        workload.name()
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    // The result line parses and carries exactly the four keys.
    let Ok(Value::Map(result)) = serde_json::from_str::<Value>(&report.result_json()) else {
        panic!("result line is a JSON object");
    };
    let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
}

#[test]
fn base_tpcc_gc_prints_every_metric() {
    smoke(Workload::BaseTpccGc, false);
    smoke(Workload::BaseTpccGc, true);
}

#[test]
fn full_tpcc_replay_prints_every_metric() {
    smoke(Workload::FullTpccReplay, false);
    smoke(Workload::FullTpccReplay, true);
}

#[test]
fn fleet_sweep_prints_every_metric() {
    smoke(Workload::FleetSweep, false);
    smoke(Workload::FleetSweep, true);
}

#[test]
fn workload_names_match_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("readable");
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
}

#[test]
fn a_tampered_result_fails_the_output_check() {
    let scale = ExperimentScale::tiny().with_accesses_per_thread(300);
    let result = Simulation::build(VariantKind::BaseCssd, WorkloadKind::Tpcc, &scale).run();
    let reference = Output::of_results(vec![result.clone()]);
    assert_eq!(check(&reference, None), Ok(()));
    assert_eq!(check(&reference, Some(&reference)), Ok(()));

    // A counter the audit ties to another layer: the audit alone fails it.
    let mut audited = result.clone();
    audited.layers.flash.pages_read += 1;
    let audited = Output::of_results(vec![audited]);
    let err = check(&audited, None).expect_err("the audit catches the bumped counter");
    assert!(err.contains("audit"), "{err}");

    // A counter no invariant covers: the comparison with the first pass
    // fails it.
    let mut unaudited = result;
    unaudited.log_index_bytes += 1;
    let unaudited = Output::of_results(vec![unaudited]);
    assert_eq!(check(&unaudited, None), Ok(()));
    let err = check(&unaudited, Some(&reference)).expect_err("differs from the reference");
    assert!(err.ends_with("at log_index_bytes"), "{err}");
}
