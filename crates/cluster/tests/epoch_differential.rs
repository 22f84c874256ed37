//! Differential suite for epoch stepping.
//!
//! The epoch ([`ClusterConfig::with_epoch`]) is documented as a pure
//! wall-clock knob: shards share no mutable state and pausing an engine at
//! a virtual-time boundary reorders nothing, so lockstep rounds of any
//! length must be bit-identical to the default whole-run epoch — for any
//! worker count, with faults installed, and with an observer watching.
//! Both sides run the cluster's one shard loop, so
//! `golden_cluster.rs` pins the digests themselves; this suite checks the
//! pairs and re-pins the 1-shard ≡ single-server identity with epochs.

mod common;

use common::{
    assert_reports_identical, crash_plan, golden_bundle, sim_config, unit_base, unit_policy,
};
use unit_cluster::{BackoffConfig, ClusterConfig, ClusterReport, FailoverPolicy, RoutingPolicy};
use unit_core::split_seed;
use unit_core::time::SimDuration;
use unit_obs::RingRecorder;
use unit_sim::{report_digest, run_simulation};
use unit_workload::TraceBundle;

const SEED: u64 = 0x5EED_0002;

fn run_mode(bundle: &TraceBundle, cluster: ClusterConfig) -> ClusterReport {
    cluster
        .build()
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_base())
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run")
}

#[test]
fn epoch_parallel_is_bit_identical_to_whole_shard() {
    let bundle = golden_bundle();
    let epochs = [
        SimDuration::from_secs(10),    // one control tick per round
        SimDuration::from_secs(1_000), // many events per round
        bundle.horizon,                // degenerate: one round runs everything
    ];
    for routing in RoutingPolicy::ALL {
        for n_shards in [1usize, 4] {
            let base = ClusterConfig::new(n_shards)
                .with_routing(routing)
                .with_seed(SEED);
            let whole = run_mode(&bundle, base);
            for epoch in epochs {
                for workers in [1usize, 2, 0] {
                    let report = run_mode(&bundle, base.with_workers(workers).with_epoch(epoch));
                    assert_reports_identical(
                        &whole,
                        &report,
                        &format!(
                            "{}/{n_shards} shards/epoch {}s/{workers} workers",
                            routing.name(),
                            epoch.as_secs_f64()
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn one_shard_epoch_parallel_matches_single_server() {
    let bundle = golden_bundle();
    let cfg = sim_config(bundle.horizon);
    let single = run_simulation(&bundle.trace, unit_policy(split_seed(SEED, 0)), cfg);
    let report = run_mode(
        &bundle,
        ClusterConfig::new(1)
            .with_seed(SEED)
            .with_epoch(SimDuration::from_secs(50)),
    );
    assert_eq!(
        report_digest(&report.shard_reports[0]),
        report_digest(&single),
        "1-shard epoch-parallel cluster diverged from the single-server engine"
    );
}

#[test]
fn epoch_parallel_with_faults_matches_whole_shard() {
    let bundle = golden_bundle();
    let plan = crash_plan(bundle.horizon, bundle.trace.n_items, 4, 0.2, 2_000);
    let failover = FailoverPolicy::Backoff(BackoffConfig::default());
    let base = ClusterConfig::new(4).with_seed(SEED);
    let run_with = |cluster: ClusterConfig| {
        cluster
            .build()
            .with_faults(&plan, failover)
            .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_base())
            .expect("valid cluster config")
            .into_faulty()
            .expect("faults installed")
    };
    let whole = run_with(base);
    for workers in [1usize, 0] {
        let epoch = run_with(
            base.with_workers(workers)
                .with_epoch(SimDuration::from_secs(100)),
        );
        assert_eq!(whole.decisions, epoch.decisions, "{workers} workers");
        assert_eq!(whole.counts, epoch.counts, "{workers} workers");
        assert_reports_identical(
            &whole.cluster,
            &epoch.cluster,
            &format!("faulty/{workers} workers"),
        );
    }
}

#[test]
fn epoch_parallel_observation_is_neutral_and_identical() {
    let bundle = golden_bundle();
    let base = ClusterConfig::new(4).with_seed(SEED);
    let observed_run = |cluster: ClusterConfig| {
        let mut sink = RingRecorder::unbounded();
        let report = cluster
            .build()
            .with_observer(&mut sink)
            .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_base())
            .expect("valid cluster config")
            .into_plain()
            .expect("fault-free run");
        (report, sink.into_events())
    };
    let (whole, whole_events) = observed_run(base);
    let (epoch, epoch_events) = observed_run(base.with_epoch(SimDuration::from_secs(100)));
    assert_reports_identical(&whole, &epoch, "observed");
    assert_eq!(
        whole_events, epoch_events,
        "replayed observation streams diverged between epochs"
    );
    // Observation stays passive on the parallel path too.
    let bare = run_mode(&bundle, base.with_epoch(SimDuration::from_secs(100)));
    assert_reports_identical(&bare, &epoch, "observer neutrality");
}

#[test]
fn filtered_updates_conserve_queries_but_change_digests() {
    let bundle = golden_bundle();
    let base = ClusterConfig::new(8).with_seed(SEED);
    let plain = run_mode(&bundle, base);
    let filtered = run_mode(&bundle, base.with_filtered_updates());
    // Same queries, same routing, every query still decided exactly once.
    assert_eq!(plain.assignment, filtered.assignment);
    assert_eq!(
        plain.counts.total(),
        filtered.counts.total(),
        "filtering must never drop queries"
    );
    unit_cluster::check_cluster_identity(&filtered).unwrap();
    // And the documented caveat holds: dropping unread streams changes at
    // least one shard's digest (less CPU contention on that shard).
    let diverged = plain
        .shard_reports
        .iter()
        .zip(&filtered.shard_reports)
        .any(|(a, b)| report_digest(a) != report_digest(b));
    assert!(
        diverged,
        "expected demand filtering to drop streams (and digests to move) at 8 shards"
    );
}
