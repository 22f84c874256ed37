//! Workload and configuration shared by the cluster suites: fig3's
//! med-unif bundle, the simulator config it runs under, the UNIT policy
//! each shard is seeded with, and the report comparison the differential
//! suites make.

#![allow(dead_code)] // each suite uses a subset

use unit_cluster::{ClusterConfig, ClusterReport, ClusterRun, ClusterRunReport, RoutingPolicy};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_sim::{report_digest, SchedulingDiscipline, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

pub(crate) const DISCIPLINES: [(SchedulingDiscipline, &str); 3] = [
    (SchedulingDiscipline::DualPriorityEdf, "dual"),
    (SchedulingDiscipline::GlobalEdf, "global"),
    (SchedulingDiscipline::QueryFirst, "qfirst"),
];

/// fig3's med-unif bundle at `scale`, mirroring
/// `unit_bench::default_workload_plan(scale)` (not imported — that would
/// make the cluster tests depend on the bench crate).
pub(crate) fn bundle(scale: u64) -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(scale);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / scale).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

/// The golden workload: [`bundle`] at scale 8.
pub(crate) fn golden_bundle() -> TraceBundle {
    bundle(8)
}

/// Low/high-CFM weights, 10 s control ticks, the paper's discipline.
pub(crate) fn sim_config(horizon: SimDuration) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
}

pub(crate) fn unit_base() -> UnitConfig {
    UnitConfig::with_weights(UsmWeights::low_high_cfm())
}

pub(crate) fn unit_policy(seed: u64) -> UnitPolicy {
    UnitPolicy::new(unit_base().with_seed(seed))
}

/// Seeded `Pause` crashes at `rate` per mean window of `secs`, over
/// `n_items` items on `shards` shards.
pub(crate) fn crash_plan(
    horizon: SimDuration,
    n_items: usize,
    shards: usize,
    rate: f64,
    secs: u64,
) -> FaultPlan {
    let cfg = FaultConfig::quiet(horizon, n_items).with_crashes(
        rate,
        SimDuration::from_secs(secs),
        FaultMode::Pause,
    );
    FaultPlan::generate(0xFA_17, shards, &cfg)
}

/// Assert two shard-level reports agree: assignment, tallies, merged log
/// and every shard's `report_digest`.
pub(crate) fn assert_reports_identical(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment diverged");
    assert_eq!(a.counts, b.counts, "{what}: outcome tally diverged");
    assert_eq!(a.log, b.log, "{what}: merged log diverged");
    for (s, (ra, rb)) in a.shard_reports.iter().zip(&b.shard_reports).enumerate() {
        assert_eq!(
            report_digest(ra),
            report_digest(rb),
            "{what}: shard {s} digest diverged"
        );
    }
}

/// Every discipline × routing of a `shards`-shard cluster seeded with
/// `seed`: `(label, sim config, cluster config)`.
pub(crate) fn matrix(
    horizon: SimDuration,
    shards: usize,
    seed: u64,
) -> impl Iterator<Item = (String, SimConfig, ClusterConfig)> {
    DISCIPLINES
        .into_iter()
        .flat_map(move |(discipline, dname)| {
            RoutingPolicy::ALL.map(|routing| {
                let label = format!("{dname}/{}", routing.name());
                let sim = sim_config(horizon).with_discipline(discipline);
                let cluster = ClusterConfig::new(shards)
                    .with_routing(routing)
                    .with_seed(seed);
                (label, sim, cluster)
            })
        })
}

/// Run `builder` over `bundle` with a `make(seed)` policy per shard.
pub(crate) fn run_with<P: Policy + Send>(
    builder: ClusterRun<'_>,
    bundle: &TraceBundle,
    sim: SimConfig,
    make: &(impl Fn(u64) -> P + Sync),
) -> ClusterRunReport {
    let report = builder.run(&bundle.trace, sim, |_, seed| make(seed));
    report.expect("valid cluster config")
}
