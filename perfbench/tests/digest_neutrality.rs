//! The trace changes nothing it measures: for every policy, a
//! `TimedPolicy`-wrapped `sim-paper` cell is `report_digest`-identical to
//! the bare cell, and a `TimedObserver` leaves the observed run's digest
//! alone. (Every `--trace 1` run repeats the policy check at full size.)

use unit_bench::PolicyKind;
use unit_obs::RingRecorder;
use unit_perfbench::sim_paper::{run_cell, setup, TRACES};
use unit_perfbench::timed::{HookSink, TimedObserver};
use unit_sim::report_digest;

#[test]
fn timed_policy_is_digest_neutral_for_every_policy() {
    let m = setup(16, 7);
    for b in 0..TRACES.len() {
        for kind in PolicyKind::ALL {
            let sink = HookSink::default();
            let bare = run_cell(&m, b, kind, None, None);
            let timed = run_cell(&m, b, kind, Some(&sink), None);
            assert_eq!(
                report_digest(&bare.report),
                report_digest(&timed.report),
                "{} {}",
                m.bundles[b].name,
                kind.name()
            );
            let sink = sink.lock().unwrap();
            let hooks = &sink[kind.name()];
            assert_eq!(
                hooks[0].calls,
                bare.report.counts.total(),
                "every arrival timed"
            );
        }
    }
}

#[test]
fn timed_observer_is_digest_neutral() {
    let m = setup(16, 7);
    let mut rec = RingRecorder::new(1 << 10);
    let bare = run_cell(&m, 1, PolicyKind::Unit, None, Some(&mut rec));
    let mut timed = TimedObserver::new(RingRecorder::new(1 << 10));
    let traced = run_cell(&m, 1, PolicyKind::Unit, None, Some(&mut timed));
    assert_eq!(report_digest(&bare.report), report_digest(&traced.report));
    assert_eq!(timed.watch().calls, rec.len() as u64 + rec.dropped());
}
