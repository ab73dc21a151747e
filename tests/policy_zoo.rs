//! The pluggable policy layer, exercised end to end:
//!
//! 1. the default `PolicyConfig` must reproduce the pre-redesign simulator
//!    bit for bit (the golden corpus pins the same equivalence against
//!    recorded traces; this pins it against the live generators);
//! 2. every contender in the zoo — eviction × hotness, the bypass-scan
//!    admission policy, the fair-share tenant scheduler, every migration
//!    trigger — must keep the cross-layer conservation audit clean;
//! 3. policy choices must partition the runner's memo table: off-default
//!    overrides change the request fingerprint, defaults do not;
//! 4. the controller must expose the hotness tracker's footprint
//!    (`tracked_pages`), and the bounded trackers must actually bound it;
//! 5. a proptest sweep keeps random policy points conserving off the grid
//!    of the named experiments.

use skybyte::sim::fleet::{fleet_population, run_fleet, FleetConfig};
use skybyte::sim::runner::RunRequest;
use skybyte::sim::{ExperimentScale, Runner, SimResult, Simulation};
use skybyte::types::{
    apply_policy_name, AdmissionPolicyKind, EvictionPolicyKind, HotnessPolicyKind,
    MigrationPolicyKind, PlacementPolicyKind, PolicyConfig, PolicyOverride, RebalancePolicyKind,
    SimConfig, TenantSchedKind, VariantKind,
};
use skybyte::workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(200)
}

/// Runs `SkyByte-Full` on `workload` at tiny scale with `policy`.
fn run_with_policy(policy: PolicyConfig, workload: WorkloadKind) -> SimResult {
    let scale = tiny();
    let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
    cfg.policy = policy;
    Simulation::with_config(cfg, workload, &scale).run()
}

#[test]
fn explicit_defaults_match_an_untouched_config_bit_for_bit() {
    // Spelling out the default policy in full must be indistinguishable from
    // never mentioning policies at all — for every design variant, since the
    // seams sit at different depths of the stack.
    let scale = tiny();
    for variant in VariantKind::ALL {
        let cfg = scale.apply(SimConfig::default().with_variant(variant));
        let mut explicit_cfg = cfg.clone();
        explicit_cfg.policy = PolicyConfig {
            eviction: EvictionPolicyKind::PseudoLru,
            admission: AdmissionPolicyKind::AdmitAll,
            hotness: HotnessPolicyKind::Threshold,
            tenant_sched: TenantSchedKind::Passthrough,
        };
        let untouched = Simulation::with_config(cfg, WorkloadKind::Ycsb, &scale).run();
        let explicit = Simulation::with_config(explicit_cfg, WorkloadKind::Ycsb, &scale).run();
        assert_eq!(
            untouched, explicit,
            "{variant}: default policy must be inert"
        );
        assert!(untouched.policy.is_default());
    }
}

#[test]
fn every_eviction_and_hotness_contender_keeps_the_audit_clean() {
    for eviction in EvictionPolicyKind::ALL {
        for hotness in HotnessPolicyKind::ALL {
            let policy = PolicyConfig {
                eviction,
                hotness,
                ..PolicyConfig::default()
            };
            let scale = tiny();
            let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
            cfg.policy = policy;
            let (result, report) = Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).audit();
            report.assert_clean(&format!("{eviction}/{hotness}"));
            assert!(!result.truncated);
            // The chosen policy must be visible in the result so audits and
            // memoization stay attributable per contender.
            assert_eq!(result.policy.eviction, eviction);
            assert_eq!(result.policy.hotness, hotness);
        }
    }
}

#[test]
fn admission_bypass_is_audit_clean_and_visible_in_the_stats() {
    let policy = PolicyConfig {
        admission: AdmissionPolicyKind::BypassScan,
        ..PolicyConfig::default()
    };
    let scale = tiny();
    let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
    cfg.policy = policy;
    let (result, report) = Simulation::with_config(cfg, WorkloadKind::Ycsb, &scale).audit();
    report.assert_clean("bypass-scan");
    assert_eq!(result.policy.admission, AdmissionPolicyKind::BypassScan);
}

#[test]
fn every_migration_trigger_keeps_the_audit_clean() {
    let scale = tiny();
    for policy in MigrationPolicyKind::ALL {
        let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.migration.policy = policy;
        let (result, report) = Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).audit();
        report.assert_clean(&format!("migration {policy}"));
        assert!(!result.truncated);
        if policy == MigrationPolicyKind::Disabled {
            assert_eq!(result.pages_promoted, 0);
        }
    }
    // The variant gates migration: on Base-CSSD, which migrates nothing,
    // every migration policy is inert and the result is the untouched run's.
    let base = scale.apply(SimConfig::default().with_variant(VariantKind::BaseCssd));
    let untouched = Simulation::with_config(base.clone(), WorkloadKind::Tpcc, &scale).run();
    for policy in MigrationPolicyKind::ALL {
        let mut cfg = base.clone();
        cfg.migration.policy = policy;
        let (result, report) = Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).audit();
        report.assert_clean(&format!("Base-CSSD with migration {policy}"));
        assert_eq!(
            result, untouched,
            "migration {policy} must be inert on Base-CSSD"
        );
    }
}

#[test]
fn fair_share_tenant_scheduling_conserves_and_serves_every_tenant() {
    let scale = tiny();
    let mut sim = Simulation::build_multi(
        VariantKind::SkyByteFull,
        &[(WorkloadKind::Ycsb, 2), (WorkloadKind::Tpcc, 2)],
        &scale,
    );
    sim.config_mut().policy.tenant_sched = TenantSchedKind::FairShare;
    let (result, report) = sim.audit();
    report.assert_clean("fair-share on ycsb+tpcc");
    assert_eq!(result.policy.tenant_sched, TenantSchedKind::FairShare);
    assert_eq!(result.per_tenant.len(), 2);
    // Work conserving: throttling preference must never starve a tenant.
    for t in &result.per_tenant {
        assert!(
            t.accesses() > 0,
            "tenant {} starved under fair-share",
            t.tenant
        );
    }
}

#[test]
fn off_default_policies_partition_the_memo_table() {
    let scale = tiny();
    let base = RunRequest::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
    for name in PolicyOverride::all_names() {
        let mut sim = base.simulation().clone();
        apply_policy_name(sim.config_mut(), &name).unwrap();
        let changed = sim.config() != base.simulation().config();
        let req = RunRequest::from_simulation(sim);
        assert_eq!(
            req.fingerprint() != base.fingerprint(),
            changed,
            "policy '{name}': fingerprint must change iff the config does"
        );
    }
}

#[test]
fn hotness_trackers_expose_a_bounded_footprint() {
    for hotness in HotnessPolicyKind::ALL {
        let policy = PolicyConfig {
            hotness,
            ..PolicyConfig::default()
        };
        let result = run_with_policy(policy, WorkloadKind::Tpcc);
        let tracked = result
            .layers
            .ssd
            .tracked_pages
            .unwrap_or_else(|| panic!("{hotness}: tracked_pages gauge missing"));
        // Every tracker's state must stay bounded by the pages it ever saw;
        // the windowed tracker additionally bounds itself by its window.
        assert!(
            tracked <= result.ssd_accesses,
            "{hotness}: {tracked} tracked pages from {} accesses",
            result.ssd_accesses
        );
        if hotness == HotnessPolicyKind::TopK {
            assert!(tracked <= 1024, "topk must stay within its window");
        }
    }
}

mod proptest_sweep {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random policy points conserve: any eviction × admission × hotness
        /// × tenant-scheduler × migration combination (folded into one
        /// mixed-radix index), across variants, workloads and thread counts.
        #[test]
        fn random_policy_points_conserve(
            combo in 0usize..(EvictionPolicyKind::ALL.len()
                * AdmissionPolicyKind::ALL.len()
                * HotnessPolicyKind::ALL.len()
                * TenantSchedKind::ALL.len()
                * MigrationPolicyKind::ALL.len()),
            variant_idx in 0usize..VariantKind::ALL.len(),
            workload_idx in 0usize..WorkloadKind::ALL.len(),
            threads in 1u32..10,
            seed in 0u64..1_000,
        ) {
            let mut scale = tiny();
            scale.seed = seed;
            let variant = VariantKind::ALL[variant_idx];
            let workload = WorkloadKind::ALL[workload_idx];
            let mut cfg = scale
                .apply(SimConfig::default().with_variant(variant))
                .with_threads(threads);
            let mut rest = combo;
            let mut digit = |radix: usize| {
                let d = rest % radix;
                rest /= radix;
                d
            };
            cfg.policy = PolicyConfig {
                eviction: EvictionPolicyKind::ALL[digit(EvictionPolicyKind::ALL.len())],
                admission: AdmissionPolicyKind::ALL[digit(AdmissionPolicyKind::ALL.len())],
                hotness: HotnessPolicyKind::ALL[digit(HotnessPolicyKind::ALL.len())],
                tenant_sched: TenantSchedKind::ALL[digit(TenantSchedKind::ALL.len())],
            };
            cfg.migration.policy = MigrationPolicyKind::ALL[digit(MigrationPolicyKind::ALL.len())];
            let policy = cfg.policy;
            let sim = Simulation::with_config(cfg, workload, &scale);
            let (result, report) = sim.audit();
            prop_assert!(
                report.is_clean(),
                "{variant} on {workload:?} with {policy:?} (threads {threads}, seed {seed}):\n{report}"
            );
            prop_assert_eq!(result.policy, policy);
        }
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// FNV-1a digest of a result's full JSON serialization.
fn result_digest(result: &SimResult) -> u64 {
    fnv1a(serde_json::to_string(result).unwrap().as_bytes())
}

/// Runs SkyByte-Full tpcc at tiny scale with `policy` and migration `trigger`.
fn contender_run(policy: PolicyConfig, trigger: MigrationPolicyKind) -> SimResult {
    let scale = ExperimentScale::tiny();
    let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
    cfg.policy = policy;
    cfg.migration.policy = trigger;
    Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).run()
}

/// Runs the co-located ycsb + tpcc pair at tiny scale under `tenant_sched`.
fn co_located_run(tenant_sched: TenantSchedKind) -> SimResult {
    let mut sim = Simulation::build_multi(
        VariantKind::SkyByteFull,
        &[(WorkloadKind::Ycsb, 4), (WorkloadKind::Tpcc, 4)],
        &ExperimentScale::tiny(),
    );
    sim.config_mut().policy.tenant_sched = tenant_sched;
    sim.run()
}

#[test]
fn every_contender_result_is_pinned() {
    // The golden corpus pins only the default policies. This pins every
    // off-default contender, so a refactor of the policy layer cannot change
    // what any of them decides without failing here. Re-pin only for an
    // intended behaviour change of the named contender.
    let adaptive = MigrationPolicyKind::Adaptive;
    let mut runs: Vec<(String, SimResult)> = Vec::new();
    for eviction in EvictionPolicyKind::ALL {
        for hotness in HotnessPolicyKind::ALL {
            let policy = PolicyConfig {
                eviction,
                hotness,
                ..PolicyConfig::default()
            };
            if !policy.is_default() {
                runs.push((
                    format!("{eviction}/{hotness}"),
                    contender_run(policy, adaptive),
                ));
            }
        }
    }
    let bypass = PolicyConfig {
        admission: AdmissionPolicyKind::BypassScan,
        ..PolicyConfig::default()
    };
    runs.push(("bypass-scan".into(), contender_run(bypass, adaptive)));
    for sched in [TenantSchedKind::FairShare, TenantSchedKind::Qos] {
        runs.push((format!("{sched} ycsb+tpcc"), co_located_run(sched)));
    }
    for trigger in [
        MigrationPolicyKind::Tpp,
        MigrationPolicyKind::AstriFlash,
        MigrationPolicyKind::Disabled,
    ] {
        runs.push((
            format!("trigger {trigger}"),
            contender_run(PolicyConfig::default(), trigger),
        ));
    }

    // A promotion pool of eight pages fills, so this run demotes: the only
    // pinned run that exercises `demote_one`.
    let demoting = {
        let scale = ExperimentScale::tiny();
        let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.host_dram.promotion_capacity_bytes = 8 * 4096;
        Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).run()
    };
    assert!(
        demoting.layers.migration.demotions > 0,
        "the 8-page pool must demote"
    );
    runs.push(("8-page pool".into(), demoting));

    let pinned: &[(&str, u64)] = &[
        ("pseudo-lru/decay", 0x4f27e2b97d13fae7),
        ("pseudo-lru/topk", 0xfa87e9d11af8e395),
        ("clock/threshold", 0x6f6d58e643dbedee),
        ("clock/decay", 0x9778c09a5829aa76),
        ("clock/topk", 0x5c167f0784d9ab83),
        ("2q/threshold", 0x4f0ac2770df57df8),
        ("2q/decay", 0xb6a3aa18da3c62b5),
        ("2q/topk", 0x04bd4dce47347fcb),
        ("fifo/threshold", 0x35d4c1c64f257936),
        ("fifo/decay", 0xaa3802e57781b1d5),
        ("fifo/topk", 0xac23e86dac87923f),
        ("bypass-scan", 0x37af622db72342fb),
        ("fair-share ycsb+tpcc", 0xc96c4b0253e242bc),
        ("qos ycsb+tpcc", 0x5b89812e35730ac1),
        ("trigger tpp", 0x8a1e0ee9e22de5c4),
        ("trigger astriflash", 0xa7b92cf4a023e926),
        ("trigger disabled", 0xd6d6d96340bce0d6),
        ("8-page pool", 0x0ae07d2a7d118a29),
    ];
    let got: Vec<(String, u64)> = runs
        .iter()
        .map(|(label, r)| (label.clone(), result_digest(r)))
        .collect();
    let listing: String = got
        .iter()
        .map(|(label, d)| format!("        (\"{label}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = pinned.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(
        got, want,
        "contender digests moved; current values:\n{listing}"
    );

    // Fleet placement and rebalance: three devices, six tenants sized so a
    // perfect first-fit packing fills two devices and leaves one empty, and
    // two rounds so a rebalance has somewhere to move a tenant.
    let runner = Runner::new(2);
    let scale = ExperimentScale::tiny().with_accesses_per_thread(200);
    let mut assignments = Vec::new();
    for placement in PlacementPolicyKind::ALL {
        for rebalance in RebalancePolicyKind::ALL {
            let mut cfg = FleetConfig::new(3, VariantKind::SkyByteFull, scale);
            cfg.tenants = fleet_population(&scale, 2, 6);
            cfg.placement = placement;
            cfg.rebalance = rebalance;
            cfg.rounds = 2;
            let fr = run_fleet(&runner, &cfg);
            assignments.push((format!("{placement}+{rebalance}"), fr.assignment));
        }
    }
    let pinned_fleet: &[(&str, &[usize])] = &[
        ("first-fit+pin", &[0, 0, 0, 1, 1, 1]),
        ("first-fit+swap-worst", &[0, 2, 0, 1, 1, 1]),
        ("round-robin+pin", &[0, 1, 2, 0, 1, 2]),
        ("round-robin+swap-worst", &[0, 0, 2, 0, 1, 2]),
        ("interference+pin", &[0, 0, 2, 2, 1, 1]),
        ("interference+swap-worst", &[2, 0, 2, 2, 1, 1]),
    ];
    let want: Vec<(String, Vec<usize>)> = pinned_fleet
        .iter()
        .map(|&(l, a)| (l.to_string(), a.to_vec()))
        .collect();
    assert_eq!(assignments, want, "fleet assignments moved");
}
