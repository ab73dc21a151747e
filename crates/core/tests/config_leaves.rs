//! Guard against inert configuration knobs.
//!
//! Every numeric or bool leaf of `SimConfig::default()`'s JSON tree must
//! change at least one simulated result when perturbed (×2, then ÷2 for
//! numbers; toggled for bools) in one of a handful of tiny probe runs.
//! Perturbations `SimConfig::validate` rejects are skipped; a leaf with no
//! accepted perturbation fails as well, because a knob with one legal value
//! is a constant. String leaves (variant, policy names) are out of scope:
//! the corpus goldens, the contender digests and the figure tests pin them.

use serde::{Deserialize, Serialize, Value};
use skybyte_sim::{ExperimentScale, SimResult, Simulation};
use skybyte_types::{Nanos, SimConfig, VariantKind, PAGE_SIZE};
use skybyte_workloads::WorkloadKind;

/// Leaves that legitimately move no probe result, one reason each.
const ALLOWLIST: &[(&str, &str)] = &[
    (
        "telemetry.",
        "observe-only by construction; tests/telemetry.rs checks results stay bit-identical",
    ),
    (
        "ssd.overprovisioning",
        "only bites at the logical-capacity edge, which no tiny probe reaches",
    ),
];

/// One probe: a design variant and workload plus a config tweak that puts
/// a mechanism under stress (GC, MSHRs, a full promotion pool, a small TLB,
/// a tight TPP budget).
struct Probe {
    variant: VariantKind,
    workload: WorkloadKind,
    tweak: fn(&mut SimConfig),
}

fn probes() -> Vec<Probe> {
    let plain = |variant, workload| Probe {
        variant,
        workload,
        tweak: |_| {},
    };
    vec![
        plain(VariantKind::BaseCssd, WorkloadKind::Tpcc),
        plain(VariantKind::SkyByteW, WorkloadKind::Tpcc),
        plain(VariantKind::SkyByteFull, WorkloadKind::Tpcc),
        plain(VariantKind::SkyByteFull, WorkloadKind::Ycsb),
        plain(VariantKind::SkyByteCT, WorkloadKind::Ycsb),
        plain(VariantKind::AstriFlashCxl, WorkloadKind::Ycsb),
        plain(VariantKind::DramOnly, WorkloadKind::Ycsb),
        Probe {
            variant: VariantKind::BaseCssd,
            workload: WorkloadKind::Tpcc,
            tweak: |c| c.ssd.gc_threshold = 0.3,
        },
        Probe {
            variant: VariantKind::SkyByteW,
            workload: WorkloadKind::Tpcc,
            tweak: |c| c.ssd.gc_threshold = 0.3,
        },
        Probe {
            variant: VariantKind::BaseCssd,
            workload: WorkloadKind::Ycsb,
            tweak: |c| c.ssd.dram.mshrs = 2,
        },
        Probe {
            variant: VariantKind::SkyByteFull,
            workload: WorkloadKind::Tpcc,
            tweak: |c| c.host_dram.promotion_capacity_bytes = 2 * PAGE_SIZE as u64,
        },
        Probe {
            variant: VariantKind::SkyByteFull,
            workload: WorkloadKind::Ycsb,
            tweak: |c| c.cpu.tlb.entries = 64,
        },
        Probe {
            variant: VariantKind::SkyByteCT,
            workload: WorkloadKind::Tpcc,
            tweak: |c| {
                c.migration.tpp_sample_period = Nanos::from_micros(10);
                c.migration.tpp_promotions_per_period = 1;
            },
        },
        Probe {
            variant: VariantKind::AstriFlashCxl,
            workload: WorkloadKind::Tpcc,
            tweak: |c| c.host_dram.promotion_capacity_bytes = 8 * PAGE_SIZE as u64,
        },
    ]
}

/// Appends the dotted path of every non-string leaf under `value` (the
/// config tree is maps all the way down).
fn leaf_paths(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Map(fields) => {
            for (key, v) in fields {
                let child = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                leaf_paths(v, &child, out);
            }
        }
        Value::Str(_) => {}
        _ => out.push(path.to_string()),
    }
}

/// The leaf at a dotted map path.
fn leaf_mut<'a>(value: &'a mut Value, path: &str) -> Option<&'a mut Value> {
    path.split('.').try_fold(value, |v, key| match v {
        Value::Map(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// The perturbed value for step 0 (×2 or toggle) and step 1 (÷2), if the
/// step changes the leaf at all.
fn perturb(leaf: &Value, step: usize) -> Option<Value> {
    let new = match (leaf, step) {
        (Value::UInt(n), 0) => Value::UInt(n.checked_mul(2)?),
        (Value::UInt(n), 1) => Value::UInt(n / 2),
        (Value::Float(x), 0) => Value::Float(x * 2.0),
        (Value::Float(x), 1) => Value::Float(x / 2.0),
        (Value::Bool(b), 0) => Value::Bool(!b),
        _ => return None,
    };
    (new != *leaf).then_some(new)
}

fn run(cfg: SimConfig, workload: WorkloadKind, scale: &ExperimentScale) -> SimResult {
    Simulation::with_config(cfg, workload, scale).run()
}

#[test]
fn every_numeric_config_leaf_moves_a_result() {
    let scale = ExperimentScale::tiny().with_accesses_per_thread(100);
    let probes: Vec<(SimConfig, WorkloadKind)> = probes()
        .into_iter()
        .map(|p| {
            let mut cfg = scale.apply(SimConfig::default().with_variant(p.variant));
            (p.tweak)(&mut cfg);
            (cfg, p.workload)
        })
        .collect();
    let baselines: Vec<SimResult> = probes
        .iter()
        .map(|(cfg, workload)| run(cfg.clone(), *workload, &scale))
        .collect();

    let mut paths = Vec::new();
    leaf_paths(&SimConfig::default().serialize(), "", &mut paths);
    let mut inert = Vec::new();
    for path in &paths {
        if ALLOWLIST.iter().any(|(prefix, _)| path.starts_with(prefix)) {
            continue;
        }
        let mut accepted = false;
        let moved = (0..2).any(|step| {
            probes
                .iter()
                .zip(&baselines)
                .any(|((cfg, workload), base)| {
                    let mut tree = cfg.serialize();
                    let leaf = leaf_mut(&mut tree, path).expect("every probe has the leaf");
                    let Some(new) = perturb(leaf, step) else {
                        return false;
                    };
                    *leaf = new;
                    let Ok(perturbed) = SimConfig::deserialize(&tree) else {
                        return false;
                    };
                    if perturbed.validate().is_err() {
                        return false;
                    }
                    accepted = true;
                    run(perturbed, *workload, &scale) != *base
                })
        });
        if !moved {
            inert.push(if accepted {
                format!("{path}: no probe result moved")
            } else {
                format!("{path}: validate() accepts only one value")
            });
        }
    }
    assert!(
        inert.is_empty(),
        "inert config leaves (delete them, or allowlist with a reason):\n  {}",
        inert.join("\n  ")
    );
}
