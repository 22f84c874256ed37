//! Replication differential suite: `factor == 1` is provably inert.
//!
//! A [`unit_cluster::ClusterRun`] with replication at factor 1 builds the
//! full replica machinery — a [`unit_cluster::ReplicaSets`], the
//! replica-aware routing prologue, replicated trace slicing — yet every
//! item's replica set is exactly its leader, the propagation schedule is
//! empty, and the candidate pools collapse to the owner shard. So the run
//! must be **digest-bit-identical** to today's partition-only cluster:
//! same shard digests, same assignment, same merged log and tallies, for
//! all 4 policies × 3 scheduling disciplines × 3 routing policies on the
//! golden fig3-style workload at scale=8, plain and under a fault plan,
//! for ≥2 worker counts and in epoch-parallel mode. This is the contract
//! that lets the replication layer ship inside the main cluster path
//! without perturbing a single golden digest.

mod common;

use common::{
    assert_reports_identical, crash_plan, golden_bundle, matrix, run_with, sim_config, unit_policy,
};
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{
    BackoffConfig, ClusterConfig, FailoverPolicy, PropagationLag, ReplicaPlacement,
    ReplicationConfig, RoutingPolicy,
};
use unit_core::policy::Policy;
use unit_core::time::SimDuration;

const SEED: u64 = 0x5EED_0001;
const N_SHARDS: usize = 2;

/// Factor-1 configs that must all be inert: the bare default, and one
/// with a jittered lag schedule (no follower slots exist to delay, so the
/// lag knob must be unobservable too).
fn inert_replications() -> [ReplicationConfig; 2] {
    [
        ReplicationConfig::new(1),
        ReplicationConfig::new(1)
            .with_placement(ReplicaPlacement::Strided { stride: 3 })
            .with_lag(PropagationLag::jittered(
                SimDuration::from_secs(30),
                SimDuration::from_secs(90),
                4,
            )),
    ]
}

/// For every discipline × routing × worker count: replicated run at
/// factor 1 == plain run, shard digest for shard digest, plus the merged
/// artifacts and the (empty) replication report.
fn factor_one_differential<P: Policy + Send>(policy_name: &str, make: impl Fn(u64) -> P + Sync) {
    let bundle = golden_bundle();
    for (label, sim, cluster) in matrix(bundle.horizon, N_SHARDS, SEED) {
        let plain = run_with(cluster.build(), &bundle, sim, &make).into_plain();
        let plain = plain.expect("fault-free run");
        for rep in inert_replications() {
            for workers in [0usize, 1] {
                let cfg = cluster.with_workers(workers).with_replication(rep);
                let replicated = run_with(cfg.build(), &bundle, sim, &make).into_plain();
                let replicated = replicated.expect("fault-free run");
                let what = format!("{policy_name}/{label}/w{workers}: factor 1");
                assert_reports_identical(&replicated, &plain, &what);
                let usm = (replicated.average_usm(), plain.average_usm());
                assert_eq!(usm.0.to_bits(), usm.1.to_bits(), "{what}: USM diverged");
                // The replica layer ran — it reports — but saw nothing.
                let rep_report = replicated
                    .replication
                    .as_ref()
                    .expect("replicated run carries a replication report");
                assert_eq!(rep_report.factor, 1);
                assert!(rep_report.propagation.is_empty());
                assert!(rep_report.routes.is_empty());
                assert!(rep_report.promotions.is_empty());
            }
        }
    }
}

#[test]
fn factor_one_is_bit_identical_imu() {
    factor_one_differential("IMU", |_| ImuPolicy::new());
}

#[test]
fn factor_one_is_bit_identical_odu() {
    factor_one_differential("ODU", |_| OduPolicy::new());
}

#[test]
fn factor_one_is_bit_identical_qmf() {
    factor_one_differential("QMF", |_| QmfPolicy::default());
}

#[test]
fn factor_one_is_bit_identical_unit() {
    factor_one_differential("UNIT", unit_policy);
}

#[test]
fn factor_one_is_bit_identical_under_faults() {
    // Same inertness with a live fault plan: crashes reroute queries and
    // pause shards, and factor-1 replication must not move a single
    // verdict or outcome relative to the non-replicated fault path.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon);
    let plan = crash_plan(bundle.horizon, bundle.trace.n_items, N_SHARDS, 0.2, 400);
    assert!(
        !plan.is_empty(),
        "the fault plan must actually crash shards"
    );
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    for routing in RoutingPolicy::ALL {
        let cluster_cfg = ClusterConfig::new(N_SHARDS)
            .with_routing(routing)
            .with_seed(SEED);
        let plain = cluster_cfg.build().with_faults(&plan, failover);
        let plain = run_with(plain, &bundle, cfg, &unit_policy).into_faulty();
        let plain = plain.expect("fault run");
        for workers in [0usize, 1] {
            let replicated = cluster_cfg
                .with_workers(workers)
                .with_replication(ReplicationConfig::new(1))
                .build()
                .with_faults(&plan, failover);
            let replicated = run_with(replicated, &bundle, cfg, &unit_policy).into_faulty();
            let replicated = replicated.expect("fault run");
            let what = format!("{}/w{workers}", routing.name());
            assert_reports_identical(&replicated.cluster, &plain.cluster, &what);
            assert_eq!(replicated.decisions, plain.decisions, "{what}");
            assert_eq!(replicated.counts, plain.counts, "{what}");
            let rep_report = replicated
                .cluster
                .replication
                .as_ref()
                .expect("replication report");
            assert!(rep_report.propagation.is_empty());
            assert!(rep_report.promotions.is_empty());
        }
    }
}

#[test]
fn factor_one_is_bit_identical_in_epoch_mode() {
    // Epoch-parallel stepping with replication installed: still the plain
    // whole-shard digests, for two epoch sizes and two worker counts.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon);
    let base = ClusterConfig::new(N_SHARDS)
        .with_routing(RoutingPolicy::FreshnessAware)
        .with_seed(SEED);
    let plain = run_with(base.build(), &bundle, cfg, &unit_policy).into_plain();
    let plain = plain.expect("fault-free run");
    for epoch_secs in [97u64, 1_000] {
        for workers in [0usize, 2] {
            let replicated = base
                .with_epoch(SimDuration::from_secs(epoch_secs))
                .with_workers(workers)
                .with_replication(ReplicationConfig::new(1));
            let replicated = run_with(replicated.build(), &bundle, cfg, &unit_policy).into_plain();
            let replicated = replicated.expect("fault-free run");
            let what = format!("epoch={epoch_secs}s w={workers}");
            assert_reports_identical(&replicated, &plain, &what);
        }
    }
}

#[test]
fn replicated_cluster_conserves_queries_and_propagates() {
    // Factor > 1 with real lag: not bit-equal to the plain cluster (that
    // is the point), but every query is still decided exactly once, the
    // merged identity holds, and the propagation log is non-trivial.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon);
    let rep = ReplicationConfig::new(2).with_lag(PropagationLag::jittered(
        SimDuration::from_secs(60),
        SimDuration::from_secs(120),
        4,
    ));
    for routing in RoutingPolicy::ALL {
        let cluster = ClusterConfig::new(4)
            .with_routing(routing)
            .with_seed(SEED)
            .with_replication(rep);
        let report = run_with(cluster.build(), &bundle, cfg, &unit_policy).into_plain();
        let report = report.expect("fault-free run");
        assert_eq!(
            report.counts.total() as usize,
            bundle.trace.queries.len(),
            "{}",
            routing.name()
        );
        unit_cluster::check_cluster_identity(&report).unwrap();
        let rep_report = report.replication.as_ref().expect("replication report");
        assert_eq!(rep_report.factor, 2);
        assert!(
            !rep_report.propagation.is_empty(),
            "{}: updates must propagate to followers",
            routing.name()
        );
        // Bit-reproducible for any worker count, replication included.
        let again = cluster.with_workers(1).build();
        let again = run_with(again, &bundle, cfg, &unit_policy).into_plain();
        let again = again.expect("fault-free run");
        assert_eq!(again.log, report.log);
        assert_eq!(again.counts, report.counts);
        assert_eq!(again.replication, report.replication);
    }
}
