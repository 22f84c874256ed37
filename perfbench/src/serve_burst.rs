//! `serve-burst`: an open loop. `unit_server::serve` replays fig3
//! `med-unif` paced, at 8× the paper's query rate, with the timeline
//! compressed 10⁵×, on 2 workers over a 16-shard `MemBackend` with the
//! live update stream. Latency is measured per query from its *due*
//! instant (trace arrival ÷ time scale) to its outcome, so generator
//! stalls count.

use crate::sim_paper::set_hook_metrics;
use crate::spec::{median, percentile_sorted, SERVER_STAGES};
use crate::timed::{
    total_hook_ns, HookSink, OutcomeSink, StageRecord, TimedBackend, TimedClock, TimedPolicy,
    BACKEND_OPS,
};
use crate::{secs, seeded_bundle, timed_setup, RunArgs, RunResult, SETUPS, WEIGHTS};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use unit_bench::{default_workload_plan, ExperimentPlan};
use unit_core::clock::Clock;
use unit_core::seed::split_seed;
use unit_core::types::Outcome;
use unit_core::unit_policy::UnitPolicy;
use unit_server::{serve, MemBackend, ServeConfig, ServeReport, WallClock};
use unit_sim::{report_digest, SimRun};
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

/// Virtual µs per wall µs.
pub const TIME_SCALE: u64 = 100_000;
/// Query-rate multiplier over the paper's trace.
pub const RATE_MULTIPLIER: u64 = 8;
/// Divisor of the paper's trace (queries and horizon).
pub const SCALE: u64 = 8;
/// Worker threads.
pub const WORKERS: usize = 2;
/// `MemBackend` lock shards.
pub const BACKEND_SHARDS: usize = 16;

/// The generated inputs.
pub struct Inputs {
    /// Workload sizing.
    pub plan: ExperimentPlan,
    /// The `med-unif` bundle at 8× query rate.
    pub bundle: TraceBundle,
    /// Serving knobs.
    pub cfg: ServeConfig,
    /// Seed of the policy instances.
    pub seed: u64,
}

/// Generate the inputs for `seed`.
pub fn setup(seed: u64) -> Inputs {
    let plan = default_workload_plan(SCALE).scaled_up(RATE_MULTIPLIER);
    let bundle = seeded_bundle(&plan, UpdateVolume::Med, UpdateDistribution::Uniform, seed);
    let cfg = ServeConfig::new(WORKERS, TIME_SCALE).with_weights(WEIGHTS);
    Inputs {
        plan,
        bundle,
        cfg,
        seed,
    }
}

/// One finished replay.
pub struct Replay {
    /// The server's report.
    pub report: ServeReport,
    /// `(query, outcome tick)` of every outcome.
    pub outcomes: Vec<(u64, u64)>,
    /// Errors the backend returned.
    pub backend_errors: u64,
}

/// Wall seconds the replay took, first injection to last completion.
fn elapsed_s(r: &ServeReport) -> f64 {
    r.elapsed.0 as f64 / 1e6
}

/// Serve the trace once on a fresh backend and wall clock, recording each
/// outcome's clock tick. `observe` turns on the server's event lanes.
pub fn replay(inp: &Inputs, observe: bool) -> Replay {
    let cfg = if observe {
        inp.cfg.clone().with_observation()
    } else {
        inp.cfg.clone()
    };
    let trace = &inp.bundle.trace;
    let backend = TimedBackend::new(MemBackend::new(trace.n_items, BACKEND_SHARDS), false);
    let outcomes = OutcomeSink::default();
    let unit = inp.plan.unit_config(WEIGHTS);
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let report = serve(&cfg, &*clock, &backend, trace, inp.bundle.horizon, |i| {
        TimedPolicy::untimed(UnitPolicy::new(
            unit.clone().with_seed(split_seed(inp.seed, i as u64)),
        ))
        .with_outcome_clock(clock.clone(), outcomes.clone())
    });
    let outcomes = std::mem::take(&mut *outcomes.lock().expect("outcome sink poisoned"));
    Replay {
        report,
        outcomes,
        backend_errors: backend.errors(),
    }
}

/// The due tick of every query, indexed by query id.
fn due_ticks(inp: &Inputs) -> Vec<u64> {
    inp.bundle
        .trace
        .queries
        .iter()
        .map(|q| q.arrival.0 / TIME_SCALE)
        .collect()
}

/// Check that `ids` names every query of the trace exactly once.
fn covers_every_query(ids: impl IntoIterator<Item = u64>, n: usize) -> bool {
    let mut seen = vec![false; n];
    let mut count = 0;
    for id in ids {
        match seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
        count += 1;
    }
    count == n
}

fn check_replay(res: &mut RunResult, inp: &Inputs, r: &Replay, what: &str) {
    let n = inp.bundle.trace.queries.len();
    let rep = &r.report;
    res.attempted += rep.submitted;
    res.failed += rep.submitted.saturating_sub(rep.counts.total()) + r.backend_errors;
    res.check(rep.submitted == n as u64 && rep.conserves(), || {
        format!(
            "{what}: conservation broken: {} submitted of {n}, {} outcomes",
            rep.submitted,
            rep.counts.total()
        )
    });
    res.check(
        covers_every_query(r.outcomes.iter().map(|o| o.0), n),
        || format!("{what}: outcome stamps do not cover every query once"),
    );
}

/// Run the workload.
pub fn run(args: &RunArgs) -> RunResult {
    let mut res = RunResult::default();
    let (setup_s, inp) = timed_setup(SETUPS, || setup(args.seed));
    let ids_dense = inp
        .bundle
        .trace
        .queries
        .iter()
        .enumerate()
        .all(|(i, q)| q.id.0 == i as u64);
    res.check(ids_dense, || "query ids are not 0..n".into());
    if args.trace {
        run_traced(&inp, setup_s, &mut res);
        return res;
    }
    res.metrics.set("setup_s", setup_s);

    let due = due_ticks(&inp);
    let start = Instant::now();
    let mut per_replay: Vec<[f64; 7]> = Vec::new();
    let mut observed_eps = Vec::new();
    let mut samples = 0;
    let (mut pass, mut last) = (0, 0.0);
    while pass < 2 || secs(start) + last <= args.seconds {
        let pass_start = Instant::now();
        let observe = pass % 2 == 1;
        let r = replay(&inp, observe);
        check_replay(
            &mut res,
            &inp,
            &r,
            if observe { "observed replay" } else { "replay" },
        );
        let rep = &r.report;
        let wall = elapsed_s(rep);
        let events = (rep.submitted + rep.updates_arrived) as f64 / wall;
        if observe {
            observed_eps.push(events);
        } else {
            let c = rep.counts;
            let mut lat: Vec<f64> = r
                .outcomes
                .iter()
                .map(|&(q, at)| at.saturating_sub(due[q as usize]) as f64)
                .collect();
            lat.sort_by(f64::total_cmp);
            samples += lat.len();
            per_replay.push([
                events,
                c.success as f64 / wall,
                c.total_usm(&WEIGHTS) / c.total() as f64,
                (c.total() - c.success) as f64 / c.total() as f64,
                percentile_sorted(&lat, 0.5),
                percentile_sorted(&lat, 0.99),
                percentile_sorted(&lat, 0.999),
            ]);
        }
        res.passes.push(format!(
            "{{\"pass\": {pass}, \"observed\": {observe}, \"wall_s\": {wall}, \"submitted\": {}, \"success\": {}, \"deadline_miss\": {}, \"rejected\": {}}}",
            rep.submitted, rep.counts.success, rep.counts.deadline_miss, rep.counts.rejected
        ));
        pass += 1;
        last = secs(pass_start);
    }
    // Each metric is the median over the bare replays, so one replay
    // disturbed by the host does not move it.
    let names = [
        "events_per_s",
        "goodput_qps",
        "usm_per_query",
        "fail_ratio",
        "latency_p50_us",
        "latency_p99_us",
        "latency_p999_us",
    ];
    for (i, name) in names.into_iter().enumerate() {
        let xs: Vec<f64> = per_replay.iter().map(|r| r[i]).collect();
        res.metrics.set(name, median(&xs));
    }
    res.metrics
        .set("observed_events_per_s", median(&observed_eps));
    res.passes.push(format!(
        "{{\"latency_samples\": {samples}, \"bare_replays\": {}}}",
        per_replay.len()
    ));
    res
}

/// Nearest-rank p50 and p99 of `xs`.
fn p50_p99(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (percentile_sorted(&xs, 0.5), percentile_sorted(&xs, 0.99))
}

fn ns(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// The traced pass: one bare replay and one with every decorator
/// installed; then the deterministic engine on the same trace (the
/// server's oracle), whose apply ratio sits beside the server's.
fn run_traced(inp: &Inputs, setup_s: f64, res: &mut RunResult) {
    res.metrics.set("workload.generate_s", setup_s);
    let due = due_ticks(inp);
    let bare = replay(inp, false);
    check_replay(res, inp, &bare, "bare replay");
    let mut bare_lat: Vec<f64> = bare
        .outcomes
        .iter()
        .map(|&(q, at)| at.saturating_sub(due[q as usize]) as f64)
        .collect();
    bare_lat.sort_by(f64::total_cmp);

    let trace = &inp.bundle.trace;
    let clock = TimedClock::new();
    let epoch = clock.epoch();
    let backend = TimedBackend::new(MemBackend::new(trace.n_items, BACKEND_SHARDS), true);
    let sink = HookSink::default();
    let stages: Arc<Mutex<Vec<StageRecord>>> = Arc::default();
    let unit = inp.plan.unit_config(WEIGHTS);
    let report = serve(&inp.cfg, &clock, &backend, trace, inp.bundle.horizon, |i| {
        TimedPolicy::new(
            UnitPolicy::new(unit.clone().with_seed(split_seed(inp.seed, i as u64))),
            sink.clone(),
        )
        .with_stages(stages.clone())
    });
    let recs = std::mem::take(&mut *stages.lock().expect("stage sink poisoned"));
    let n = trace.queries.len();
    res.attempted += report.submitted;
    res.failed += report.submitted.saturating_sub(report.counts.total()) + backend.errors();
    res.check(report.conserves() && report.submitted == n as u64, || {
        "traced replay: conservation broken".into()
    });
    res.check(covers_every_query(recs.iter().map(|r| r.query), n), || {
        format!(
            "traced replay: {} stage records do not cover the {n} queries once",
            recs.len()
        )
    });

    let us_since_epoch = |t: Instant| (t - epoch).as_secs_f64() * 1e6;
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); SERVER_STAGES.len()];
    let (mut admitted, mut missed, mut busy_ns) = (0u64, 0u64, 0.0f64);
    let mut traced_lat = Vec::with_capacity(recs.len());
    for r in &recs {
        let due_us = due.get(r.query as usize).copied().unwrap_or(0);
        traced_lat.push(us_since_epoch(r.outcome_at) - due_us as f64);
        cols[0].push(r.enqueue_us as f64 - due_us as f64);
        if let Some(dq) = r.dequeue {
            cols[1].push(us_since_epoch(dq) - r.enqueue_us as f64);
            cols[2].push(ns(dq, r.admit) - r.tick_ns as f64);
            busy_ns += ns(dq, r.outcome_at);
        }
        if r.outcome != Outcome::Rejected {
            admitted += 1;
            missed += u64::from(r.outcome == Outcome::DeadlineMiss);
        }
        if let (Some(b), Some(cs), Some(ce)) = (r.begin, r.commit_start, r.commit_end) {
            cols[3].push(ns(b, ce) / 1e3);
            cols[4].push(ns(b, cs) - r.demand_us as f64 * 1e3);
            cols[5].push(ns(ce, r.outcome_at));
        }
    }
    for ((stage, _), col) in SERVER_STAGES.iter().zip(cols) {
        let (p50, p99) = p50_p99(col);
        res.metrics.set(format!("server.{stage}.p50"), p50);
        res.metrics.set(format!("server.{stage}.p99"), p99);
    }
    let elapsed_ns = report.elapsed.0 as f64 * 1e3;
    res.metrics.set(
        "server.worker_busy_ratio",
        busy_ns / (elapsed_ns * WORKERS as f64),
    );
    res.metrics.set("server.stage_records", recs.len() as f64);
    res.metrics.set(
        "server.admit_ratio",
        admitted as f64 / recs.len().max(1) as f64,
    );
    res.metrics.set(
        "server.miss_after_admit_ratio",
        missed as f64 / admitted.max(1) as f64,
    );
    res.metrics.set(
        "server.update_apply_ratio",
        report.updates_applied as f64 / report.updates_arrived.max(1) as f64,
    );
    for (op, w) in BACKEND_OPS.iter().zip(backend.ops()) {
        let s = w.get();
        res.metrics.set(format!("mem.{op}.calls"), s.calls as f64);
        res.metrics
            .set(format!("mem.{op}.ns_per_call"), s.ns_per_call());
    }
    res.metrics.set("mem.errors", backend.errors() as f64);
    set_hook_metrics(res, &sink);
    let (traced_p50, _) = p50_p99(traced_lat);
    res.metrics.set(
        "trace.overhead_ratio",
        traced_p50 / percentile_sorted(&bare_lat, 0.5).max(1.0),
    );

    // The engine on the same trace, bare and with a timed policy.
    let sim_cfg = inp.plan.sim_config(WEIGHTS);
    let oracle_seed = split_seed(inp.seed, 0);
    let bare_sim = SimRun::trace(
        trace,
        UnitPolicy::new(unit.clone().with_seed(oracle_seed)),
        sim_cfg,
    )
    .run();
    let sim_sink = HookSink::default();
    let start = Instant::now();
    let sim = SimRun::trace(
        trace,
        TimedPolicy::new(
            UnitPolicy::new(unit.with_seed(oracle_seed)),
            sim_sink.clone(),
        ),
        sim_cfg,
    )
    .run();
    let sim_wall = secs(start);
    res.check(report_digest(&bare_sim) == report_digest(&sim), || {
        "the timed engine oracle diverged from the bare one".into()
    });
    let hook_ns = total_hook_ns(&sim_sink) as f64;
    res.metrics.set(
        "sim.engine.ns_per_event",
        (sim_wall * 1e9 - hook_ns) / sim.events_processed as f64,
    );
    crate::sim_paper::set_engine_ratios(res, [&sim]);
    res.passes.push(format!(
        "{{\"pass\": 0, \"bare_wall_s\": {}, \"traced_wall_s\": {}, \"stage_records\": {}}}",
        elapsed_s(&bare.report),
        elapsed_s(&report),
        recs.len()
    ));
}
