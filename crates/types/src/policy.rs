//! Pluggable policy selection.
//!
//! SkyByte's wins all come from *policy* choices — what the SSD DRAM caches,
//! which pages count as hot, when pages migrate, who gets scheduled. This
//! module names those choices so they can be swept like any other knob:
//!
//! * [`EvictionPolicyKind`] / [`AdmissionPolicyKind`] — the data-cache seam
//!   (`skybyte_cache::DataCache`),
//! * [`HotnessPolicyKind`] — the controller's hot-page tracking seam
//!   (`skybyte_ssd`),
//! * [`TenantSchedKind`] — the engine's tenant-aware scheduling hook,
//! * [`PlacementPolicyKind`] / [`RebalancePolicyKind`] — the fleet layer's
//!   tenant-placement and cross-device rebalance seams
//!   (`skybyte_sim::fleet`),
//! * plus the pre-existing [`MigrationPolicyKind`]
//!   and [`SchedPolicy`], which the unified name registry
//!   ([`PolicyOverride`]) folds into the same `--policy <name>` namespace.
//!
//! [`PolicyConfig`] is the serializable block inside
//! [`SimConfig`] that carries the four new dimensions. Its
//! `Default` is exactly the behaviour the simulator had before the seams were
//! lifted behind policies — the golden-trace corpus pins that equivalence bit
//! for bit.
//!
//! Every kind has a stable lowercase name (`Display`/`FromStr`), all names
//! across all eight dimensions are distinct, and [`PolicyOverride::from_str`]
//! rejects unknown names with the full valid list — one registry shared by
//! every CLI that takes `--policy`.

use crate::config::{MigrationPolicyKind, SchedPolicy, SimConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Case-insensitive lookup of a kind by its `Display` name.
fn lookup<T: Copy + fmt::Display>(all: &[T], name: &str) -> Option<T> {
    all.iter()
        .copied()
        .find(|k| k.to_string().eq_ignore_ascii_case(name))
}

// ---------------------------------------------------------------------------
// Parse paths for the pre-existing policy enums (satellite: one registry)
// ---------------------------------------------------------------------------

impl SchedPolicy {
    /// Every scheduling policy, in declaration order.
    pub const ALL: [SchedPolicy; 3] = [
        SchedPolicy::RoundRobin,
        SchedPolicy::Random,
        SchedPolicy::Cfs,
    ];
}

impl FromStr for SchedPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown scheduling policy '{s}'"))
    }
}

impl MigrationPolicyKind {
    /// Every migration policy, in declaration order.
    pub const ALL: [MigrationPolicyKind; 4] = [
        MigrationPolicyKind::Adaptive,
        MigrationPolicyKind::Tpp,
        MigrationPolicyKind::AstriFlash,
        MigrationPolicyKind::Disabled,
    ];
}

impl FromStr for MigrationPolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown migration policy '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Data-cache eviction
// ---------------------------------------------------------------------------

/// Which page the data cache evicts when a set is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicyKind {
    /// The original timestamp scan: evict the entry with the smallest
    /// last-access tick (first match wins on ties). The default.
    #[default]
    PseudoLru,
    /// CLOCK (second chance): a per-set hand sweeps entries, clearing
    /// reference bits until it finds an unreferenced victim.
    Clock,
    /// 2Q/SLRU: entries enter a probationary segment and are promoted to a
    /// protected segment on re-reference; victims come from the
    /// probationary segment first.
    TwoQ,
    /// FIFO: evict the oldest-inserted entry regardless of use.
    Fifo,
}

impl EvictionPolicyKind {
    /// Every eviction policy, in declaration order.
    pub const ALL: [EvictionPolicyKind; 4] = [
        EvictionPolicyKind::PseudoLru,
        EvictionPolicyKind::Clock,
        EvictionPolicyKind::TwoQ,
        EvictionPolicyKind::Fifo,
    ];
}

impl fmt::Display for EvictionPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EvictionPolicyKind::PseudoLru => "pseudo-lru",
            EvictionPolicyKind::Clock => "clock",
            EvictionPolicyKind::TwoQ => "2q",
            EvictionPolicyKind::Fifo => "fifo",
        };
        f.write_str(s)
    }
}

impl FromStr for EvictionPolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown eviction policy '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Data-cache admission
// ---------------------------------------------------------------------------

/// Whether a page fetched from flash is admitted into the data cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdmissionPolicyKind {
    /// Admit every fetched page (the default, and the only behaviour the
    /// cache had before the seam existed).
    #[default]
    AdmitAll,
    /// Bypass pages that arrive as part of a long sequential scan: streaming
    /// reads would flush the cache without ever re-referencing the pages.
    BypassScan,
}

impl AdmissionPolicyKind {
    /// Every admission policy, in declaration order.
    pub const ALL: [AdmissionPolicyKind; 2] = [
        AdmissionPolicyKind::AdmitAll,
        AdmissionPolicyKind::BypassScan,
    ];
}

impl fmt::Display for AdmissionPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AdmissionPolicyKind::AdmitAll => "admit-all",
            AdmissionPolicyKind::BypassScan => "bypass-scan",
        };
        f.write_str(s)
    }
}

impl FromStr for AdmissionPolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown admission policy '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Hot-page tracking
// ---------------------------------------------------------------------------

/// How the SSD controller decides which pages are hot (promotion
/// candidates for the adaptive migration policy, §III-C).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HotnessPolicyKind {
    /// Exact per-page counters with a fixed nomination threshold (the
    /// paper's controller design and the default).
    #[default]
    Threshold,
    /// Exponentially decayed frequency counters: counts are halved
    /// periodically and decayed-to-zero pages are dropped, bounding the
    /// tracker's memory on long traces.
    Decay,
    /// Windowed top-k: pages are counted inside a fixed-size access window
    /// and only the k hottest re-referenced pages of each window are
    /// nominated; counts reset between windows.
    TopK,
}

impl HotnessPolicyKind {
    /// Every hotness policy, in declaration order.
    pub const ALL: [HotnessPolicyKind; 3] = [
        HotnessPolicyKind::Threshold,
        HotnessPolicyKind::Decay,
        HotnessPolicyKind::TopK,
    ];
}

impl fmt::Display for HotnessPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HotnessPolicyKind::Threshold => "threshold",
            HotnessPolicyKind::Decay => "decay",
            HotnessPolicyKind::TopK => "topk",
        };
        f.write_str(s)
    }
}

impl FromStr for HotnessPolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown hotness policy '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Tenant-aware scheduling
// ---------------------------------------------------------------------------

/// The engine's tenant-aware scheduling hook: how the per-tenant attribution
/// feeds back into which thread a core runs next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TenantSchedKind {
    /// No tenant awareness: delegate straight to the OS scheduler (the
    /// default, and the only behaviour the pipeline had before the hook).
    #[default]
    Passthrough,
    /// Fair share: prefer runnable threads of the tenants with the least
    /// attributed SSD traffic, falling back to any runnable thread when the
    /// preferred tenants have none (work conserving).
    FairShare,
    /// QoS by write-log pressure: prefer runnable threads of tenants within
    /// their write-log partition quota, deprioritising tenants whose recent
    /// log appends exceed their share (work conserving; partition
    /// bookkeeping lives in `skybyte_cache::WriteLogPartitions`).
    Qos,
}

impl TenantSchedKind {
    /// Every tenant-scheduler hook, in declaration order.
    pub const ALL: [TenantSchedKind; 3] = [
        TenantSchedKind::Passthrough,
        TenantSchedKind::FairShare,
        TenantSchedKind::Qos,
    ];
}

impl fmt::Display for TenantSchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TenantSchedKind::Passthrough => "passthrough",
            TenantSchedKind::FairShare => "fair-share",
            TenantSchedKind::Qos => "qos",
        };
        f.write_str(s)
    }
}

impl FromStr for TenantSchedKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown tenant scheduler '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// Fleet-level placement and rebalancing
// ---------------------------------------------------------------------------

/// How a fleet assigns tenants to devices before any simulation runs
/// (`skybyte_sim::fleet`).
///
/// Placement is a *fleet-level* dimension: it decides which device a tenant's
/// demand lands on, and only then does each device compile down to an
/// ordinary single-device run. It therefore never appears in a device
/// fingerprint — two placements that agree on a device's tenant composition
/// share that device's memoized result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlacementPolicyKind {
    /// First-fit bin packing by footprint: scan devices in index order and
    /// place each tenant on the first device with enough remaining capacity.
    /// The default.
    #[default]
    FirstFit,
    /// Round-robin: tenant `i` goes to device `i mod devices`, ignoring
    /// footprints (capacity violations surface in the fleet audit).
    RoundRobin,
    /// Interference-aware: sort tenants by their measured solo-vs-co-located
    /// slowdown (the `--fig mt` probe) and greedily place the most
    /// interference-prone tenants onto the devices with the least accumulated
    /// interference score that still have capacity.
    InterferenceAware,
}

impl PlacementPolicyKind {
    /// Every placement policy, in declaration order.
    pub const ALL: [PlacementPolicyKind; 3] = [
        PlacementPolicyKind::FirstFit,
        PlacementPolicyKind::RoundRobin,
        PlacementPolicyKind::InterferenceAware,
    ];
}

impl fmt::Display for PlacementPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlacementPolicyKind::FirstFit => "first-fit",
            PlacementPolicyKind::RoundRobin => "round-robin",
            PlacementPolicyKind::InterferenceAware => "interference",
        };
        f.write_str(s)
    }
}

impl FromStr for PlacementPolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown placement policy '{s}'"))
    }
}

/// How a fleet migrates tenants between rounds once per-tenant slowdowns are
/// measured (`skybyte_sim::fleet`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RebalancePolicyKind {
    /// Never move a tenant after initial placement. The default.
    #[default]
    Pin,
    /// Each round, move the tenant with the worst measured slowdown to the
    /// device with the lowest mean slowdown that can hold it.
    SwapWorst,
}

impl RebalancePolicyKind {
    /// Every rebalance policy, in declaration order.
    pub const ALL: [RebalancePolicyKind; 2] =
        [RebalancePolicyKind::Pin, RebalancePolicyKind::SwapWorst];
}

impl fmt::Display for RebalancePolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RebalancePolicyKind::Pin => "pin",
            RebalancePolicyKind::SwapWorst => "swap-worst",
        };
        f.write_str(s)
    }
}

impl FromStr for RebalancePolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        lookup(&Self::ALL, s).ok_or_else(|| format!("unknown rebalance policy '{s}'"))
    }
}

// ---------------------------------------------------------------------------
// The policy block of SimConfig
// ---------------------------------------------------------------------------

/// The pluggable-policy block of [`SimConfig`].
///
/// Carries the four policy dimensions the redesign lifted behind seams. The
/// two policy dimensions that predate the block keep their existing homes —
/// the migration policy in [`MigrationConfig`](crate::MigrationConfig)
/// `.policy` and the OS scheduling policy in `SimConfig::sched_policy` — and
/// join the shared name registry through [`PolicyOverride`].
///
/// `Default` reproduces the pre-policy-layer simulator exactly; the golden
/// corpus verifies that equivalence bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Data-cache eviction policy.
    pub eviction: EvictionPolicyKind,
    /// Data-cache admission policy.
    pub admission: AdmissionPolicyKind,
    /// Controller hot-page tracking policy.
    pub hotness: HotnessPolicyKind,
    /// Tenant-aware scheduling hook.
    pub tenant_sched: TenantSchedKind,
}

impl PolicyConfig {
    /// Whether every dimension is at its default (pre-redesign) setting.
    pub fn is_default(&self) -> bool {
        *self == PolicyConfig::default()
    }
}

// ---------------------------------------------------------------------------
// The unified name registry
// ---------------------------------------------------------------------------

/// One parsed `--policy <name>` override: a policy name resolved to the
/// dimension it belongs to.
///
/// This is the single name registry shared by every CLI: all eight policy
/// dimensions' names live in one flat, case-insensitive namespace (they are
/// pairwise distinct — a test pins that), so `figures --policy clock
/// --policy decay --policy tpp` needs no per-dimension flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyOverride {
    /// A data-cache eviction policy.
    Eviction(EvictionPolicyKind),
    /// A data-cache admission policy.
    Admission(AdmissionPolicyKind),
    /// A controller hotness policy.
    Hotness(HotnessPolicyKind),
    /// A tenant-scheduler hook.
    TenantSched(TenantSchedKind),
    /// A page-migration policy.
    Migration(MigrationPolicyKind),
    /// An OS thread-scheduling policy.
    Sched(SchedPolicy),
    /// A fleet tenant-placement policy.
    Placement(PlacementPolicyKind),
    /// A fleet rebalance policy.
    Rebalance(RebalancePolicyKind),
}

impl PolicyOverride {
    /// Applies the override to the corresponding configuration field.
    ///
    /// Note that, exactly like setting the field directly, an override can
    /// be inert for a given variant: a migration policy is inert unless the
    /// variant migrates pages (its
    /// [`migration_policy`](crate::VariantKind::migration_policy) is not
    /// `Disabled`), and the tenant scheduler only matters for multi-tenant
    /// runs. The two fleet dimensions (placement and rebalance) live *above*
    /// the device — they are consumed by `skybyte_sim::fleet` when compiling
    /// a `FleetConfig`, never by a single-device `SimConfig`, so applying
    /// them here is a no-op by design (a device fingerprint must not depend
    /// on where the fleet placed it).
    pub fn apply(self, cfg: &mut SimConfig) {
        match self {
            PolicyOverride::Eviction(k) => cfg.policy.eviction = k,
            PolicyOverride::Admission(k) => cfg.policy.admission = k,
            PolicyOverride::Hotness(k) => cfg.policy.hotness = k,
            PolicyOverride::TenantSched(k) => cfg.policy.tenant_sched = k,
            PolicyOverride::Migration(k) => cfg.migration.policy = k,
            PolicyOverride::Sched(k) => cfg.sched_policy = k,
            PolicyOverride::Placement(_) | PolicyOverride::Rebalance(_) => {}
        }
    }

    /// Every valid policy name, grouped by dimension in registry order —
    /// the list CLIs print when rejecting an unknown name.
    pub fn all_names() -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        names.extend(EvictionPolicyKind::ALL.iter().map(|k| k.to_string()));
        names.extend(AdmissionPolicyKind::ALL.iter().map(|k| k.to_string()));
        names.extend(HotnessPolicyKind::ALL.iter().map(|k| k.to_string()));
        names.extend(TenantSchedKind::ALL.iter().map(|k| k.to_string()));
        names.extend(MigrationPolicyKind::ALL.iter().map(|k| k.to_string()));
        names.extend(SchedPolicy::ALL.iter().map(|k| k.to_string()));
        names.extend(PlacementPolicyKind::ALL.iter().map(|k| k.to_string()));
        names.extend(RebalancePolicyKind::ALL.iter().map(|k| k.to_string()));
        names
    }
}

impl fmt::Display for PolicyOverride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyOverride::Eviction(k) => k.fmt(f),
            PolicyOverride::Admission(k) => k.fmt(f),
            PolicyOverride::Hotness(k) => k.fmt(f),
            PolicyOverride::TenantSched(k) => k.fmt(f),
            PolicyOverride::Migration(k) => k.fmt(f),
            PolicyOverride::Sched(k) => k.fmt(f),
            PolicyOverride::Placement(k) => k.fmt(f),
            PolicyOverride::Rebalance(k) => k.fmt(f),
        }
    }
}

impl FromStr for PolicyOverride {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(k) = lookup(&EvictionPolicyKind::ALL, s) {
            return Ok(PolicyOverride::Eviction(k));
        }
        if let Some(k) = lookup(&AdmissionPolicyKind::ALL, s) {
            return Ok(PolicyOverride::Admission(k));
        }
        if let Some(k) = lookup(&HotnessPolicyKind::ALL, s) {
            return Ok(PolicyOverride::Hotness(k));
        }
        if let Some(k) = lookup(&TenantSchedKind::ALL, s) {
            return Ok(PolicyOverride::TenantSched(k));
        }
        if let Some(k) = lookup(&MigrationPolicyKind::ALL, s) {
            return Ok(PolicyOverride::Migration(k));
        }
        if let Some(k) = lookup(&SchedPolicy::ALL, s) {
            return Ok(PolicyOverride::Sched(k));
        }
        if let Some(k) = lookup(&PlacementPolicyKind::ALL, s) {
            return Ok(PolicyOverride::Placement(k));
        }
        if let Some(k) = lookup(&RebalancePolicyKind::ALL, s) {
            return Ok(PolicyOverride::Rebalance(k));
        }
        Err(format!(
            "unknown policy '{s}' (valid: {})",
            PolicyOverride::all_names().join(", ")
        ))
    }
}

/// Applies a `--policy` name to the configuration, resolving it through the
/// unified registry.
///
/// # Errors
///
/// Returns the registry's "unknown policy" message (including the full valid
/// list) when `name` matches no dimension.
pub fn apply_policy_name(cfg: &mut SimConfig, name: &str) -> Result<(), String> {
    let over: PolicyOverride = name.parse()?;
    over.apply(cfg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_config_is_the_pre_redesign_behaviour() {
        let p = PolicyConfig::default();
        assert_eq!(p.eviction, EvictionPolicyKind::PseudoLru);
        assert_eq!(p.admission, AdmissionPolicyKind::AdmitAll);
        assert_eq!(p.hotness, HotnessPolicyKind::Threshold);
        assert_eq!(p.tenant_sched, TenantSchedKind::Passthrough);
        assert!(p.is_default());
    }

    #[test]
    fn every_name_round_trips_through_the_registry() {
        for name in PolicyOverride::all_names() {
            let over: PolicyOverride = name.parse().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(over.to_string(), name, "Display must match the registry");
            // Case-insensitive.
            let upper: PolicyOverride = name.to_uppercase().parse().unwrap();
            assert_eq!(upper, over);
        }
    }

    #[test]
    fn registry_names_are_pairwise_distinct() {
        let names = PolicyOverride::all_names();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert!(
                    !a.eq_ignore_ascii_case(b),
                    "policy name '{a}' is ambiguous across dimensions"
                );
            }
        }
    }

    #[test]
    fn unknown_names_list_the_valid_registry() {
        let err = "flush-always".parse::<PolicyOverride>().unwrap_err();
        assert!(err.contains("unknown policy 'flush-always'"));
        for name in PolicyOverride::all_names() {
            assert!(err.contains(&name), "error must list '{name}'");
        }
    }

    #[test]
    fn overrides_apply_to_the_right_config_field() {
        let mut cfg = SimConfig::default();
        apply_policy_name(&mut cfg, "clock").unwrap();
        apply_policy_name(&mut cfg, "bypass-scan").unwrap();
        apply_policy_name(&mut cfg, "decay").unwrap();
        apply_policy_name(&mut cfg, "fair-share").unwrap();
        apply_policy_name(&mut cfg, "tpp").unwrap();
        apply_policy_name(&mut cfg, "rr").unwrap();
        assert_eq!(cfg.policy.eviction, EvictionPolicyKind::Clock);
        assert_eq!(cfg.policy.admission, AdmissionPolicyKind::BypassScan);
        assert_eq!(cfg.policy.hotness, HotnessPolicyKind::Decay);
        assert_eq!(cfg.policy.tenant_sched, TenantSchedKind::FairShare);
        assert_eq!(cfg.migration.policy, MigrationPolicyKind::Tpp);
        assert_eq!(cfg.sched_policy, SchedPolicy::RoundRobin);
        assert!(apply_policy_name(&mut cfg, "nope").is_err());
    }

    #[test]
    fn fleet_dimensions_parse_but_leave_device_config_untouched() {
        // Placement and rebalance are fleet-level: they resolve through the
        // registry, but applying them to a SimConfig must be a no-op so a
        // device fingerprint never depends on where the fleet placed it.
        let mut cfg = SimConfig::default();
        let before = format!("{cfg:?}");
        apply_policy_name(&mut cfg, "interference").unwrap();
        apply_policy_name(&mut cfg, "swap-worst").unwrap();
        assert_eq!(format!("{cfg:?}"), before);
        assert_eq!(
            "round-robin".parse::<PolicyOverride>().unwrap(),
            PolicyOverride::Placement(PlacementPolicyKind::RoundRobin),
            "'round-robin' (placement) must stay distinct from 'rr' (OS sched)"
        );
        assert_eq!(
            "pin".parse::<RebalancePolicyKind>().unwrap(),
            RebalancePolicyKind::Pin
        );
        assert!("first-fit".parse::<PlacementPolicyKind>().is_ok());
        assert!("nope".parse::<PlacementPolicyKind>().is_err());
        assert!("nope".parse::<RebalancePolicyKind>().is_err());
    }

    #[test]
    fn policy_config_serde_round_trip() {
        let p = PolicyConfig {
            eviction: EvictionPolicyKind::TwoQ,
            admission: AdmissionPolicyKind::BypassScan,
            hotness: HotnessPolicyKind::TopK,
            tenant_sched: TenantSchedKind::FairShare,
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn sched_and_migration_kinds_parse_from_display_names() {
        assert_eq!("cfs".parse::<SchedPolicy>().unwrap(), SchedPolicy::Cfs);
        assert_eq!(
            "RR".parse::<SchedPolicy>().unwrap(),
            SchedPolicy::RoundRobin
        );
        assert_eq!(
            "adaptive".parse::<MigrationPolicyKind>().unwrap(),
            MigrationPolicyKind::Adaptive
        );
        assert!("fifo".parse::<SchedPolicy>().is_err());
        assert!("clock".parse::<MigrationPolicyKind>().is_err());
    }
}
