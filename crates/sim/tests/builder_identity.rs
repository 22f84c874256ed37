//! Manual stepping of a [`unit_sim::SimRun`]-built engine —
//! `build()`, then `step()` until drained, then `finish()` — must produce
//! a report bit-identical to `SimRun::run`. Embedders that drive the
//! engine themselves (the cluster's shard loop steps each engine to epoch
//! boundaries with `step_until`) rely on this.

use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::time::SimTime;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::faults::{BackgroundLoad, FaultHook, HealthState, UpdateFault};
use unit_sim::{report_digest, SimConfig, SimRun};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 16;
const SEED: u64 = 0x5EED_0010;

fn bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

fn sim_cfg(horizon: SimDuration) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
}

fn make_policy() -> UnitPolicy {
    UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED))
}

/// A deterministic fault hook: one mid-run degraded window plus a load
/// burst at its start.
#[derive(Clone)]
struct SlowWindow {
    from: SimTime,
    until: SimTime,
}

impl FaultHook for SlowWindow {
    fn transition_times(&self) -> Vec<SimTime> {
        vec![self.from, self.until]
    }

    fn health(&self, now: SimTime) -> HealthState {
        if now >= self.from && now < self.until {
            HealthState::Degraded { until: self.until }
        } else {
            HealthState::Up
        }
    }

    fn update_fault(&self, _item: unit_core::types::DataId, _now: SimTime) -> UpdateFault {
        UpdateFault::Apply
    }

    fn load_at(&self, now: SimTime) -> Vec<BackgroundLoad> {
        if now == self.from {
            vec![BackgroundLoad {
                exec: SimDuration::from_secs(2),
            }]
        } else {
            Vec::new()
        }
    }
}

fn hook(horizon: SimDuration) -> Box<SlowWindow> {
    Box::new(SlowWindow {
        from: SimTime(horizon.0 / 4),
        until: SimTime(horizon.0 / 2),
    })
}

#[test]
fn build_then_manual_stepping_matches_run() {
    let bundle = bundle();
    let cfg = sim_cfg(bundle.horizon);
    let mut sim = SimRun::trace(&bundle.trace, make_policy(), cfg)
        .with_faults(hook(bundle.horizon))
        .build();
    while sim.step() {}
    let (stepped, _) = sim.finish();
    let ran = SimRun::trace(&bundle.trace, make_policy(), cfg)
        .with_faults(hook(bundle.horizon))
        .run();
    assert_eq!(report_digest(&stepped), report_digest(&ran));
}
