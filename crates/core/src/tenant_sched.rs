//! Tenant-aware scheduling in the [`SystemState`](crate::SystemState)
//! pipeline.
//!
//! The pipeline's `schedule` stage calls [`schedule_on`] to place a thread
//! on an empty core, and [`schedule_on`] matches on the configured
//! [`TenantSchedKind`]:
//!
//! * `passthrough` (the default) delegates straight to the OS scheduler's
//!   configured policy (RR / Random / CFS) and is bit-identical to the
//!   pipeline before tenant-aware scheduling existed.
//! * `fair-share` reuses the pipeline's per-tenant attribution: it favours
//!   threads of the tenant that has issued the fewest SSD accesses so far,
//!   throttling a noisy neighbour at the scheduler rather than in the
//!   device.
//! * `qos` does the same using the write-log partition accounting
//!   ([`skybyte_cache::WriteLogPartitions`]): tenants whose recent log
//!   appends exceed their even share of the log are deprioritised.
//!
//! Both biased policies are work-conserving (if the favoured tenants have
//! nothing runnable, any runnable thread is picked). No policy ever blocks a
//! thread or charges a context switch; it only biases *which* runnable
//! thread an empty core picks, so the audit's squash/context-switch
//! agreement invariant holds under every policy.

use crate::metrics::TenantCounters;
use skybyte_cache::WriteLogPartitions;
use skybyte_os::{Scheduler, ThreadId};
use skybyte_types::{Nanos, TenantMap, TenantSchedKind};

/// Read-only view of the pipeline's tenant attribution state, handed to
/// [`schedule_on`] at each placement decision.
pub struct TenantView<'a> {
    /// The thread → tenant partition of the run.
    pub map: &'a TenantMap,
    /// Per-tenant counters accumulated so far, indexed by dense tenant id.
    pub counters: &'a [TenantCounters],
    /// Windowed per-tenant write-log append accounting, present only when
    /// the pipeline maintains partitions (the `qos` policy).
    pub log_pressure: Option<&'a WriteLogPartitions>,
}

/// Picks a thread for `core` at `now` under the tenant-scheduling policy
/// `kind`, or `None` if nothing is runnable.
///
/// `qos` without partition accounting (`tenants.log_pressure` is `None`)
/// is plain passthrough.
pub fn schedule_on(
    kind: TenantSchedKind,
    sched: &mut Scheduler,
    core: u32,
    now: Nanos,
    tenants: &TenantView<'_>,
) -> Option<ThreadId> {
    let map = tenants.map;
    match (kind, tenants.log_pressure) {
        (TenantSchedKind::Passthrough, _) | (TenantSchedKind::Qos, None) => {
            sched.schedule_on(core, now)
        }
        (TenantSchedKind::FairShare, _) => {
            let counters = tenants.counters;
            let min = counters.iter().map(|c| c.ssd_accesses).min().unwrap_or(0);
            sched.schedule_on_filtered(core, now, &mut |tid| {
                counters
                    .get(map.tenant_of(tid.0).index())
                    .is_none_or(|c| c.ssd_accesses == min)
            })
        }
        (TenantSchedKind::Qos, Some(pressure)) => {
            sched.schedule_on_filtered(core, now, &mut |tid| {
                let tenant = map.tenant_of(tid.0).index();
                tenant >= pressure.tenant_count() || !pressure.over_quota(tenant)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skybyte_types::{SchedPolicy, TenantId};

    fn two_tenant_view(map: &TenantMap, a_accesses: u64, b_accesses: u64) -> Vec<TenantCounters> {
        let mut a = TenantCounters {
            tenant: TenantId(0),
            threads: map.threads_of(TenantId(0)),
            ..TenantCounters::default()
        };
        a.ssd_accesses = a_accesses;
        let mut b = TenantCounters {
            tenant: TenantId(1),
            threads: map.threads_of(TenantId(1)),
            ..TenantCounters::default()
        };
        b.ssd_accesses = b_accesses;
        vec![a, b]
    }

    #[test]
    fn passthrough_matches_plain_scheduler() {
        let map = TenantMap::single(4);
        let counters = vec![TenantCounters::default()];
        let view = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: None,
        };
        let mut a = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        let mut b = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        for _ in 0..4 {
            a.spawn();
            b.spawn();
        }
        for core in 0..4u32 {
            assert_eq!(
                schedule_on(
                    TenantSchedKind::Passthrough,
                    &mut a,
                    core,
                    Nanos::ZERO,
                    &view
                ),
                b.schedule_on(core, Nanos::ZERO),
            );
        }
    }

    #[test]
    fn fair_share_prefers_the_lightest_tenant() {
        // Threads 0,1 belong to tenant 0; threads 2,3 to tenant 1.
        let map = TenantMap::from_fn(4, |t| TenantId(u32::from(t >= 2)));
        let counters = two_tenant_view(&map, 100, 3);
        let view = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: None,
        };
        let mut sched = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        for _ in 0..4 {
            sched.spawn();
        }
        let picked = schedule_on(
            TenantSchedKind::FairShare,
            &mut sched,
            0,
            Nanos::ZERO,
            &view,
        )
        .expect("runnable");
        assert!(
            picked.0 >= 2,
            "tenant 1 has fewer SSD accesses; its threads must be favoured"
        );
    }

    #[test]
    fn fair_share_is_work_conserving() {
        let map = TenantMap::from_fn(2, TenantId);
        let counters = two_tenant_view(&map, 50, 0);
        let view = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: None,
        };
        let mut sched = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        sched.spawn();
        sched.spawn();
        // Tenant 1's only thread is already running elsewhere; tenant 0's
        // thread must still be picked rather than idling the core.
        let first = schedule_on(
            TenantSchedKind::FairShare,
            &mut sched,
            0,
            Nanos::ZERO,
            &view,
        )
        .expect("runnable");
        assert_eq!(first.0, 1);
        let second = schedule_on(
            TenantSchedKind::FairShare,
            &mut sched,
            1,
            Nanos::ZERO,
            &view,
        )
        .expect("work-conserving fallback");
        assert_eq!(second.0, 0);
    }

    #[test]
    fn qos_deprioritises_the_over_quota_tenant() {
        // Threads 0,1 belong to tenant 0; threads 2,3 to tenant 1.
        let map = TenantMap::from_fn(4, |t| TenantId(u32::from(t >= 2)));
        let counters = two_tenant_view(&map, 0, 0);
        // Tenant 0 hogs the write log: 8 of 10 windowed appends.
        let mut parts = WriteLogPartitions::new(2, 10);
        for _ in 0..8 {
            parts.note_append(0);
        }
        let view = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: Some(&parts),
        };
        let mut sched = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        for _ in 0..4 {
            sched.spawn();
        }
        let picked =
            schedule_on(TenantSchedKind::Qos, &mut sched, 0, Nanos::ZERO, &view).expect("runnable");
        assert!(
            picked.0 >= 2,
            "tenant 0 is over its log quota; tenant 1's threads must be favoured"
        );
    }

    #[test]
    fn qos_is_work_conserving_and_passthrough_without_partitions() {
        let map = TenantMap::from_fn(2, TenantId);
        let counters = two_tenant_view(&map, 0, 0);
        // Only tenant 0 has a runnable thread, and it is over quota: the
        // filtered pick must still fall back to it rather than idle.
        let mut parts = WriteLogPartitions::new(2, 10);
        for _ in 0..9 {
            parts.note_append(0);
        }
        let view = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: Some(&parts),
        };
        let mut sched = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        sched.spawn();
        sched.spawn();
        let first =
            schedule_on(TenantSchedKind::Qos, &mut sched, 0, Nanos::ZERO, &view).expect("runnable");
        assert_eq!(first.0, 1, "the in-quota tenant goes first");
        let second = schedule_on(TenantSchedKind::Qos, &mut sched, 1, Nanos::ZERO, &view)
            .expect("work-conserving fallback");
        assert_eq!(second.0, 0);

        // Without partition accounting, qos must match the plain scheduler.
        let no_parts = TenantView {
            map: &map,
            counters: &counters,
            log_pressure: None,
        };
        let mut a = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        let mut b = Scheduler::new(SchedPolicy::RoundRobin, Nanos::new(100), 1);
        for _ in 0..2 {
            a.spawn();
            b.spawn();
        }
        for core in 0..2u32 {
            assert_eq!(
                schedule_on(TenantSchedKind::Qos, &mut a, core, Nanos::ZERO, &no_parts),
                b.schedule_on(core, Nanos::ZERO),
            );
        }
    }
}
