//! Fault differential suite: the empty fault schedule is provably inert.
//!
//! A fault-free [`unit_cluster::ClusterRun`] is the quiet-plan case of the
//! one dispatcher, so a run with a [`FaultPlan::quiet`] plan installed —
//! which routes by the plan's (all-up) health and merges into empty shard
//! schedules, installing no hook — must produce **digest-bit-identical**
//! shard reports, the same assignment, the same merged log and the same
//! tallies as the plain run, for all 4 policies × 3 scheduling
//! disciplines × 3 routing policies on the golden fig3-style workload at
//! scale=8, under either failover policy and any worker count.
//! `golden_cluster.rs` pins both sides.

mod common;

use common::{assert_reports_identical, golden_bundle, matrix, run_with, unit_policy};
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{BackoffConfig, FailoverPolicy};
use unit_core::policy::Policy;
use unit_faults::FaultPlan;

const SEED: u64 = 0x5EED_0001;
const N_SHARDS: usize = 2;

/// For every discipline × routing: quiet-plan fault cluster ==
/// plain cluster, shard digest for shard digest.
fn quiet_differential<P: Policy + Send>(
    policy_name: &str,
    failover: &FailoverPolicy,
    workers: usize,
    make: impl Fn(u64) -> P + Sync,
) {
    let bundle = golden_bundle();
    let plan = FaultPlan::quiet(N_SHARDS);
    for (label, sim, cluster) in matrix(bundle.horizon, N_SHARDS, SEED) {
        let cluster = cluster.with_workers(workers);
        let plain = run_with(cluster.build(), &bundle, sim, &make).into_plain();
        let plain = plain.expect("fault-free run");
        let faulty = cluster.build().with_faults(&plan, *failover);
        let faulty = run_with(faulty, &bundle, sim, &make).into_faulty();
        let faulty = faulty.expect("fault run");
        let what = format!("{policy_name}/{label}: quiet plan");
        assert_reports_identical(&faulty.cluster, &plain, &what);
        assert_eq!(faulty.counts, plain.counts, "{what}");
        assert_eq!(faulty.dispatcher_rejections(), 0, "{what}");
        assert_eq!(faulty.total_retries(), 0, "{what}");
        let usm = (faulty.average_usm(), plain.average_usm());
        assert_eq!(usm.0.to_bits(), usm.1.to_bits(), "{what}: USM diverged");
    }
}

#[test]
fn quiet_plan_is_inert_imu() {
    quiet_differential(
        "IMU",
        &FailoverPolicy::Backoff(BackoffConfig::default()),
        0,
        |_| ImuPolicy::new(),
    );
}

#[test]
fn quiet_plan_is_inert_odu() {
    quiet_differential(
        "ODU",
        &FailoverPolicy::Backoff(BackoffConfig::default()),
        0,
        |_| OduPolicy::new(),
    );
}

#[test]
fn quiet_plan_is_inert_qmf() {
    quiet_differential(
        "QMF",
        &FailoverPolicy::Backoff(BackoffConfig::default()),
        0,
        |_| QmfPolicy::default(),
    );
}

#[test]
fn quiet_plan_is_inert_unit() {
    quiet_differential(
        "UNIT",
        &FailoverPolicy::Backoff(BackoffConfig::default()),
        0,
        unit_policy,
    );
}

#[test]
fn quiet_plan_is_inert_for_no_retry_and_one_worker() {
    // The other axis of "any worker count, either failover policy": the
    // naive dispatcher on a single worker thread must be just as inert.
    quiet_differential("UNIT", &FailoverPolicy::NoRetry, 1, unit_policy);
}
