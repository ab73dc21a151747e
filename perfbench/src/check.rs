//! The output check every pass goes through, outside the timed windows.
//!
//! Host time only means something while the simulator still computes the
//! same thing, so each pass must be audit-clean, untruncated and identical to
//! the first pass of the invocation. The simulated numbers are compared for
//! exact equality: the simulator is deterministic for a fixed seed.

use serde::{Serialize, Value};
use skybyte_sim::experiments::ExperimentTable;
use skybyte_sim::{audit, RunTiming, SimResult};

/// The simulated outputs of one pass: every result it produced, and for the
/// fleet sweep the figure table and a digest of every executed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Results of the pass's simulations, in a fixed order.
    pub results: Vec<SimResult>,
    /// The table a figure pass printed (fleet sweep only).
    pub table: Option<ExperimentTable>,
    /// `(variant, workload, units, simulated ns, p50, p99, p999)` of every
    /// run a runner executed, sorted (worker scheduling orders them freely).
    pub runs: Vec<(String, String, u64, u64, u64, u64, u64)>,
}

impl Output {
    /// The output of passes that ran single simulations.
    pub fn of_results(results: Vec<SimResult>) -> Self {
        Output {
            results,
            table: None,
            runs: Vec::new(),
        }
    }

    /// The output of a figure pass on a runner.
    pub fn of_table(table: ExperimentTable, timings: &[RunTiming]) -> Self {
        let mut runs: Vec<_> = timings
            .iter()
            .map(|t| {
                (
                    t.variant.clone(),
                    t.workload.clone(),
                    t.work_units,
                    t.simulated_nanos,
                    t.p50_ns,
                    t.p99_ns,
                    t.p999_ns,
                )
            })
            .collect();
        runs.sort();
        Output {
            results: Vec::new(),
            table: Some(table),
            runs,
        }
    }
}

/// Checks `output` on its own (every result audit-clean and untruncated) and
/// against `reference`, the first pass of the invocation, when given.
pub fn check(output: &Output, reference: Option<&Output>) -> Result<(), String> {
    for r in &output.results {
        if r.truncated {
            return Err(format!("{} {} run was truncated", r.variant, r.workload));
        }
        let report = audit::audit(r);
        if !report.is_clean() {
            return Err(format!("{} {} audit: {report}", r.variant, r.workload));
        }
    }
    let Some(reference) = reference else {
        return Ok(());
    };
    if output.results.len() != reference.results.len() {
        return Err("pass produced a different number of results".to_string());
    }
    for (r, golden) in output.results.iter().zip(&reference.results) {
        if r != golden {
            let at = first_difference(&r.serialize(), &golden.serialize())
                .unwrap_or_else(|| "a field its serialization hides".to_string());
            return Err(format!(
                "{} {} differs from the first pass at {at}",
                r.variant, r.workload
            ));
        }
    }
    if output.table != reference.table {
        return Err("figure table differs from the first pass".to_string());
    }
    if output.runs != reference.runs {
        return Err("executed runs differ from the first pass".to_string());
    }
    Ok(())
}

/// The path of the first leaf where `a` and `b` differ, e.g.
/// `layers.flash.pages_read`.
fn first_difference(a: &Value, b: &Value) -> Option<String> {
    let nested = |key: String, rest: String| {
        if rest.is_empty() {
            key
        } else {
            format!("{key}.{rest}")
        }
    };
    match (a, b) {
        (Value::Map(x), Value::Map(y)) if x.len() == y.len() => {
            x.iter().zip(y).find_map(|((k, va), (_, vb))| {
                first_difference(va, vb).map(|rest| nested(k.clone(), rest))
            })
        }
        (Value::Seq(x), Value::Seq(y)) if x.len() == y.len() => {
            x.iter().zip(y).enumerate().find_map(|(i, (va, vb))| {
                first_difference(va, vb).map(|rest| nested(i.to_string(), rest))
            })
        }
        _ => (a != b).then(String::new),
    }
}
