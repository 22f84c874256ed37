//! Differential suite: a 1-shard cluster must be the single-server engine.
//!
//! With one shard, routing has a single eligible target for every query,
//! the trace slice is the global trace, and the shard policy is seeded
//! with `split_seed(seed, 0)` — so the shard's [`unit_sim::SimReport`]
//! must be **digest-bit-identical** to a plain [`unit_sim::run_simulation`]
//! over the same trace with the same policy and seed. This pins the
//! engine's step-API refactor (the cluster drives the exact code the
//! single-server `run` drives) across all 4 policies × 3 scheduling
//! disciplines × every routing policy on the golden fig3-style workload
//! at scale=8.

mod common;

use common::{golden_bundle, run_with, sim_config, unit_policy, DISCIPLINES};
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{ClusterConfig, RoutingPolicy};
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_sim::{report_digest, run_simulation};

const SEED: u64 = 0x5EED_0001;

/// Run the differential for one policy constructor: for every discipline
/// and every routing policy, digest(1-shard cluster shard 0) ==
/// digest(single server) — where both sides build the policy through the
/// same `make` closure with the same split seed.
fn differential<P: Policy + Send>(policy_name: &str, make: impl Fn(u64) -> P + Sync) {
    let bundle = golden_bundle();
    let mut failures = Vec::new();
    for (discipline, dname) in DISCIPLINES {
        let cfg = sim_config(bundle.horizon).with_discipline(discipline);
        let single = run_simulation(&bundle.trace, make(split_seed(SEED, 0)), cfg);
        let single_digest = report_digest(&single);
        for routing in RoutingPolicy::ALL {
            let cluster_cfg = ClusterConfig::new(1).with_routing(routing).with_seed(SEED);
            let report = run_with(cluster_cfg.build(), &bundle, cfg, &make);
            let report = report.into_plain().expect("fault-free run");
            let shard_digest = report_digest(&report.shard_reports[0]);
            if shard_digest != single_digest {
                failures.push(format!(
                    "{policy_name}/{dname}/{}: shard digest {shard_digest:#018x} != \
                     single-server {single_digest:#018x} (usm {} vs {})",
                    routing.name(),
                    report.shard_reports[0].average_usm(),
                    single.average_usm(),
                ));
            }
            // The cluster tally is the shard tally — same queries, same
            // outcomes — so the cluster USM matches bitwise too.
            assert_eq!(
                report.average_usm().to_bits(),
                single.average_usm().to_bits(),
                "{policy_name}/{dname}/{}: cluster USM diverged",
                routing.name()
            );
        }
    }
    assert!(
        failures.is_empty(),
        "1-shard cluster diverged from the single-server engine:\n{}",
        failures.join("\n")
    );
}

#[test]
fn one_shard_cluster_is_bit_identical_imu() {
    differential("IMU", |_| ImuPolicy::new());
}

#[test]
fn one_shard_cluster_is_bit_identical_odu() {
    differential("ODU", |_| OduPolicy::new());
}

#[test]
fn one_shard_cluster_is_bit_identical_qmf() {
    differential("QMF", |_| QmfPolicy::default());
}

#[test]
fn one_shard_cluster_is_bit_identical_unit() {
    differential("UNIT", unit_policy);
}

#[test]
fn eight_shard_fig3_scale_run_completes() {
    // The ISSUE's acceptance smoke: an 8-shard fig3-scale cluster run
    // completes and accounts for every query, under each routing policy.
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon);
    for routing in RoutingPolicy::ALL {
        let cluster_cfg = ClusterConfig::new(8).with_routing(routing).with_seed(SEED);
        let report = run_with(cluster_cfg.build(), &bundle, cfg, &unit_policy);
        let report = report.into_plain().expect("fault-free run");
        assert_eq!(
            report.counts.total() as usize,
            bundle.trace.queries.len(),
            "{}",
            routing.name()
        );
        unit_cluster::check_cluster_identity(&report).unwrap();
    }
}
