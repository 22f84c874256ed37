//! `sim-paper`: the deterministic engine runs the paper's evaluation
//! matrix — IMU, ODU, QMF and UNIT × the Table 1 traces `low-unif`,
//! `med-unif` and `high-pos` at paper scale — one cell at a time on one
//! thread with no observer. Each pass also reruns the UNIT × `med-unif`
//! cell with a bounded `RingRecorder` installed (the `--trace-out` path
//! of the figure binaries) for `observed_events_per_s`.

use crate::timed::{total_hook_ns, HookSink, TimedObserver, TimedPolicy, HOOKS};
use crate::{
    secs, seeded_bundle, set_cell_metrics, thread_sched_ns, timed_setup, with_policy, CellStats,
    RunArgs, RunResult, SETUPS, WEIGHTS,
};
use std::time::Instant;
use unit_bench::{default_workload_plan, ExperimentPlan, PolicyKind};
use unit_core::policy::Policy;
use unit_obs::{Observer, RingRecorder};
use unit_sim::{report_digest, SimReport, SimRun};
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

/// The Table 1 traces of the matrix.
pub const TRACES: [(UpdateVolume, UpdateDistribution); 3] = [
    (UpdateVolume::Low, UpdateDistribution::Uniform),
    (UpdateVolume::Med, UpdateDistribution::Uniform),
    (UpdateVolume::High, UpdateDistribution::PositiveCorrelation),
];

/// Index of `med-unif` in [`TRACES`]: the observed cell's trace.
const MED_UNIF: usize = 1;

/// Capacity of the observed cell's ring recorder.
pub const RING_CAPACITY: usize = 1 << 16;

/// The generated inputs of one matrix.
pub struct Matrix {
    /// Workload sizing.
    pub plan: ExperimentPlan,
    /// One bundle per entry of [`TRACES`].
    pub bundles: Vec<TraceBundle>,
}

/// Generate the matrix inputs at `scale` (1 = paper scale) for `seed`.
pub fn setup(scale: u64, seed: u64) -> Matrix {
    let plan = default_workload_plan(scale);
    let bundles = TRACES
        .iter()
        .map(|&(v, d)| seeded_bundle(&plan, v, d, seed))
        .collect();
    Matrix { plan, bundles }
}

/// One executed cell.
pub struct Cell {
    /// The engine's report.
    pub report: SimReport,
    /// Wall seconds of the run.
    pub wall: f64,
}

fn go<'a, P: Policy>(run: SimRun<'a, P>, obs: Option<&'a mut dyn Observer>) -> SimReport {
    match obs {
        Some(o) => run.with_observer(o).run(),
        None => run.run(),
    }
}

/// Run policy `kind` over bundle `b`, bare or wrapped in a
/// [`TimedPolicy`] reporting into `sink`, with an optional observer.
pub fn run_cell<'a>(
    m: &'a Matrix,
    b: usize,
    kind: PolicyKind,
    sink: Option<&HookSink>,
    obs: Option<&'a mut dyn Observer>,
) -> Cell {
    let trace = &m.bundles[b].trace;
    let cfg = m.plan.sim_config(WEIGHTS);
    let start = Instant::now();
    let report = with_policy!(kind, m.plan.unit_config(WEIGHTS), |p| match sink {
        Some(sink) => go(
            SimRun::trace(trace, TimedPolicy::new(p, sink.clone()), cfg),
            obs
        ),
        None => go(SimRun::trace(trace, p, cfg), obs),
    });
    Cell {
        report,
        wall: secs(start),
    }
}

/// The cells of one pass, in matrix order.
fn cells() -> impl Iterator<Item = (usize, PolicyKind)> {
    (0..TRACES.len()).flat_map(|b| PolicyKind::ALL.into_iter().map(move |k| (b, k)))
}

/// Check the per-cell conservation law: every query has one outcome.
fn check_conservation(res: &mut RunResult, report: &SimReport, bundle: &TraceBundle) {
    let n = bundle.trace.queries.len() as u64;
    let total = report.counts.total();
    res.attempted += n;
    res.failed += n.saturating_sub(total);
    res.check(total == n, || {
        format!(
            "{} {}: {total} outcomes for {n} queries",
            bundle.name, report.policy
        )
    });
}

/// Run the workload.
pub fn run(args: &RunArgs) -> RunResult {
    let mut res = RunResult::default();
    let (setup_s, m) = timed_setup(SETUPS, || setup(1, args.seed));
    if args.trace {
        run_traced(&m, setup_s, &mut res);
        return res;
    }
    res.metrics.set("setup_s", setup_s);

    // Cells 0..12 are the matrix; cell 12 is the observed rerun.
    let mut stats = vec![CellStats::default(); 13];
    let mut first: Option<Vec<u64>> = None;
    let start = Instant::now();
    let (mut pass, mut last) = (0, 0.0);
    while pass == 0 || secs(start) + last <= args.seconds {
        let pass_start = Instant::now();
        let sched_start = thread_sched_ns().unwrap_or_default();
        let mut digests = Vec::new();
        let (mut usm, mut failures, mut queries) = (0.0f64, 0u64, 0u64);
        for (i, (b, kind)) in cells().enumerate() {
            let cell = run_cell(&m, b, kind, None, None);
            let r = &cell.report;
            check_conservation(&mut res, r, &m.bundles[b]);
            stats[i].record(r.events_processed, r.counts.success, cell.wall);
            digests.push(report_digest(r));
            usm += r.counts.total_usm(&WEIGHTS);
            failures += r.counts.total() - r.counts.success;
            queries += r.counts.total();
        }
        let mut rec = RingRecorder::new(RING_CAPACITY);
        let obs = run_cell(&m, MED_UNIF, PolicyKind::Unit, None, Some(&mut rec));
        check_conservation(&mut res, &obs.report, &m.bundles[MED_UNIF]);
        stats[12].record(
            obs.report.events_processed,
            obs.report.counts.success,
            obs.wall,
        );
        let bare_unit = digests[MED_UNIF * PolicyKind::ALL.len() + 3];
        res.check(report_digest(&obs.report) == bare_unit, || {
            "observed UNIT med-unif cell diverged from the bare cell".into()
        });
        match &first {
            None => {
                res.metrics.set("usm_per_query", usm / queries as f64);
                res.metrics
                    .set("fail_ratio", failures as f64 / queries as f64);
                first = Some(digests);
            }
            Some(d) => res.check(*d == digests, || {
                format!("pass {pass}: a cell digest changed")
            }),
        }
        let sched = thread_sched_ns().unwrap_or_default();
        let walls: Vec<f64> = stats.iter().map(|c| c.walls[pass]).collect();
        res.passes.push(format!(
            "{{\"pass\": {pass}, \"cell_walls_s\": {walls:?}, \"cpu_s\": {}, \"wait_s\": {}}}",
            (sched.0 - sched_start.0) as f64 / 1e9,
            (sched.1 - sched_start.1) as f64 / 1e9
        ));
        pass += 1;
        last = secs(pass_start);
    }
    set_cell_metrics(&mut res, &stats, 12);
    res
}

/// Set the `core.policy.*` metrics from a hook sink.
pub fn set_hook_metrics(res: &mut RunResult, sink: &HookSink) {
    let sink = sink.lock().expect("hook sink poisoned");
    for (name, hooks) in sink.iter() {
        let p = name.to_lowercase();
        for (h, w) in HOOKS.iter().zip(hooks) {
            res.metrics
                .set(format!("core.policy.{p}.{h}.calls"), w.calls as f64);
            res.metrics
                .set(format!("core.policy.{p}.{h}.ns_per_call"), w.ns_per_call());
        }
    }
}

/// Set the engine waste ratios over `reports`.
pub fn set_engine_ratios<'a>(
    res: &mut RunResult,
    reports: impl IntoIterator<Item = &'a SimReport>,
) {
    let (mut success, mut admitted, mut aborts, mut queries) = (0u64, 0u64, 0u64, 0u64);
    let (mut applied, mut arrived) = (0u64, 0u64);
    for r in reports {
        success += r.counts.success;
        admitted += r.counts.total() - r.counts.rejected;
        aborts += r.hp_aborts;
        queries += r.counts.total();
        applied += r.updates_applied.iter().sum::<u64>();
        arrived += r.versions_arrived.iter().sum::<u64>();
    }
    res.metrics.set(
        "sim.success_per_admit",
        success as f64 / admitted.max(1) as f64,
    );
    res.metrics.set(
        "sim.hp_aborts_per_query",
        aborts as f64 / queries.max(1) as f64,
    );
    res.metrics.set(
        "sim.update_apply_ratio",
        applied as f64 / arrived.max(1) as f64,
    );
}

/// The traced pass: the matrix once bare, once with every policy wrapped
/// in a [`TimedPolicy`]; the observed cell once bare-observed and once
/// with a [`TimedObserver`] around its recorder.
fn run_traced(m: &Matrix, setup_s: f64, res: &mut RunResult) {
    res.metrics.set("workload.generate_s", setup_s);
    let sink = HookSink::default();
    let (mut bare_wall, mut timed_wall, mut events) = (0.0, 0.0, 0u64);
    let mut reports = Vec::new();
    let mut unit_med_wall = 0.0;
    for (b, kind) in cells() {
        let bare = run_cell(m, b, kind, None, None);
        let timed = run_cell(m, b, kind, Some(&sink), None);
        check_conservation(res, &timed.report, &m.bundles[b]);
        res.check(
            report_digest(&bare.report) == report_digest(&timed.report),
            || {
                format!(
                    "{} {}: the traced cell diverged from the bare cell",
                    m.bundles[b].name,
                    kind.name()
                )
            },
        );
        if b == MED_UNIF && kind == PolicyKind::Unit {
            unit_med_wall = bare.wall;
        }
        bare_wall += bare.wall;
        timed_wall += timed.wall;
        events += timed.report.events_processed;
        reports.push(timed.report);
    }
    let hook_ns = total_hook_ns(&sink) as f64;
    res.metrics.set(
        "sim.engine.ns_per_event",
        (timed_wall * 1e9 - hook_ns) / events as f64,
    );
    set_hook_metrics(res, &sink);
    set_engine_ratios(res, &reports);

    let mut rec = RingRecorder::new(RING_CAPACITY);
    let observed = run_cell(m, MED_UNIF, PolicyKind::Unit, None, Some(&mut rec));
    let mut timed_rec = TimedObserver::new(RingRecorder::new(RING_CAPACITY));
    let timed_obs = run_cell(m, MED_UNIF, PolicyKind::Unit, None, Some(&mut timed_rec));
    res.check(
        report_digest(&observed.report) == report_digest(&timed_obs.report),
        || "the timed observer changed the observed cell".into(),
    );
    let w = timed_rec.watch();
    res.metrics.set("obs.sink_ns_per_event", w.ns_per_call());
    res.metrics.set("obs.events", w.calls as f64);
    res.metrics
        .set("obs.dropped", timed_rec.inner().dropped() as f64);
    res.metrics
        .set("obs.overhead_s", observed.wall - unit_med_wall);
    res.metrics
        .set("trace.overhead_ratio", timed_wall / bare_wall);
    res.passes.push(format!(
        "{{\"pass\": 0, \"bare_wall_s\": {bare_wall}, \"traced_wall_s\": {timed_wall}, \"events\": {events}}}"
    ));
}
