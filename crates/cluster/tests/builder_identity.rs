//! The [`unit_cluster::ClusterRun`] builder's convenience entry points are
//! thin: `run_unit(base)` must produce reports bit-identical to the
//! generic `run(|_, seed| UnitPolicy::new(base.with_seed(seed)))` it is
//! sugar for, with and without a fault plan installed. This pins the
//! equivalence the old `run_*` free functions used to witness before
//! they were removed — callers can switch between the generic and the
//! UNIT-specific entry point without a digest moving.

mod common;

use common::{
    assert_reports_identical, bundle, crash_plan, run_with, sim_config, unit_base, unit_policy,
};
use unit_cluster::{BackoffConfig, ClusterConfig, FailoverPolicy, RoutingPolicy};

const SEED: u64 = 0x5EED_0005;

#[test]
fn run_unit_matches_the_generic_entry_point() {
    let bundle = bundle(16);
    let cfg = sim_config(bundle.horizon);
    for routing in RoutingPolicy::ALL {
        let cluster = ClusterConfig::new(3).with_routing(routing).with_seed(SEED);
        let sugar = cluster.build().run_unit(&bundle.trace, cfg, &unit_base());
        let sugar = sugar.unwrap().into_plain().unwrap();
        let generic = run_with(cluster.build(), &bundle, cfg, &unit_policy);
        let generic = generic.into_plain().unwrap();
        assert_reports_identical(&sugar, &generic, routing.name());
    }
}

#[test]
fn run_unit_matches_the_generic_entry_point_under_faults() {
    let bundle = bundle(16);
    let cfg = sim_config(bundle.horizon);
    let plan = crash_plan(bundle.horizon, 100, 3, 0.2, 40);
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    let cluster = ClusterConfig::new(3).with_seed(SEED);
    let sugar = cluster.build().with_faults(&plan, failover);
    let sugar = sugar.run_unit(&bundle.trace, cfg, &unit_base());
    let sugar = sugar.unwrap().into_faulty().unwrap();
    let generic = cluster.build().with_faults(&plan, failover);
    let generic = run_with(generic, &bundle, cfg, &unit_policy);
    let generic = generic.into_faulty().unwrap();
    assert_eq!(sugar.decisions, generic.decisions);
    assert_eq!(sugar.log, generic.log);
    assert_eq!(sugar.counts, generic.counts);
    assert_reports_identical(&sugar.cluster, &generic.cluster, "under faults");
}
