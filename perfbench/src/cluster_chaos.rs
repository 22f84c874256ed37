//! `cluster-chaos`: fig3 `med-unif` on an 8-shard least-load cluster,
//! epoch-stepped on one worker thread (see [`WORKERS`]), run as three
//! cells on one trace:
//!
//! * `plain` — no faults, no replication;
//! * `chaos` — seeded crash windows (degraded reads, backoff failover)
//!   and replication factor 2 with jittered propagation lag;
//! * `observed` — `chaos` plus a bounded `RingRecorder`.

use crate::sim_paper::{set_engine_ratios, set_hook_metrics};
use crate::spec::median;
use crate::timed::{total_hook_ns, HookSink, TimedObserver, TimedPolicy};
use crate::{
    fold_digest, secs, seeded_bundle, set_cell_metrics, timed_setup, CellStats, RunArgs, RunResult,
    SETUPS, WEIGHTS,
};
use std::time::Instant;
use unit_bench::{default_workload_plan, ExperimentPlan};
use unit_cluster::{
    assign, BackoffConfig, ClusterConfig, ClusterReport, ClusterRunReport, FailoverPolicy,
    MergedOutcome, PropagationLag, ReplicationConfig, RoutingPolicy,
};
use unit_core::seed::split_seed;
use unit_core::time::SimDuration;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::OutcomeCounts;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_obs::{Observer, RingRecorder};
use unit_sim::report_digest;
use unit_workload::{slice_trace, ItemPartition, TraceBundle, UpdateDistribution, UpdateVolume};

/// Shards in the cluster.
pub const SHARDS: usize = 8;
/// Worker threads stepping the shards. One: on a shared 2-vCPU host two
/// barrier-synchronised workers stall whenever the hypervisor steals
/// either vCPU, which halved `events_per_s` for minutes at a time, while
/// a single worker migrates to whichever vCPU is running. Reports are
/// bit-identical for any worker count.
pub const WORKERS: usize = 1;
/// Workload divisor (2 = half the paper's queries and horizon).
pub const SCALE: u64 = 2;
/// Crash windows per mean window length (see `FaultConfig::with_crashes`).
const CRASH_RATE: f64 = 0.02;
/// Propagation-lag jitter windows of the replicated cells.
const LAG_WINDOWS: usize = 64;
/// Mean crash window length, seconds.
const CRASH_WINDOW_SECS: u64 = 60;
/// Capacity of the observed cell's ring recorder.
const RING_CAPACITY: usize = 1 << 16;

/// The three cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// No faults, replication factor 1.
    Plain,
    /// Crash faults plus replication factor 2.
    Chaos,
    /// `Chaos` with a bounded recorder installed.
    Observed,
}

impl Cell {
    /// Every cell, in run order.
    pub const ALL: [Cell; 3] = [Cell::Plain, Cell::Chaos, Cell::Observed];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Cell::Plain => "plain",
            Cell::Chaos => "chaos",
            Cell::Observed => "observed",
        }
    }
}

/// The generated inputs shared by the three cells.
pub struct Inputs {
    /// Workload sizing.
    pub plan: ExperimentPlan,
    /// The `med-unif` bundle.
    pub bundle: TraceBundle,
    /// The crash schedule of the `chaos` cells.
    pub faults: FaultPlan,
    /// Cluster run seed.
    pub seed: u64,
}

/// Generate the inputs at `scale` for `seed`.
pub fn setup(scale: u64, seed: u64) -> Inputs {
    let plan = default_workload_plan(scale);
    let bundle = seeded_bundle(&plan, UpdateVolume::Med, UpdateDistribution::Uniform, seed);
    let fcfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
        CRASH_RATE,
        SimDuration::from_secs(CRASH_WINDOW_SECS),
        FaultMode::DegradedReads,
    );
    let faults = FaultPlan::generate(split_seed(seed, 0xFA17), SHARDS, &fcfg);
    Inputs {
        plan,
        bundle,
        faults,
        seed,
    }
}

fn base_config(inp: &Inputs) -> ClusterConfig {
    ClusterConfig::new(SHARDS)
        .with_routing(RoutingPolicy::LeastLoad)
        .with_seed(inp.seed)
        .with_epoch(inp.bundle.horizon / 64)
        .with_workers(WORKERS)
}

/// One executed cell.
pub struct CellRun {
    /// The run's report.
    pub report: ClusterRunReport,
    /// Wall seconds of the whole `ClusterRun::run` call.
    pub wall: f64,
}

impl CellRun {
    /// Shard-level report.
    pub fn cluster(&self) -> &ClusterReport {
        self.report.cluster()
    }

    /// Tallies over every query, dispatcher rejections included.
    pub fn counts(&self) -> OutcomeCounts {
        match &self.report {
            ClusterRunReport::Plain(r) => r.counts,
            ClusterRunReport::Faulty(r) => r.counts,
        }
    }

    /// Every outcome, dispatcher rejections included.
    pub fn log(&self) -> &[MergedOutcome] {
        match &self.report {
            ClusterRunReport::Plain(r) => &r.log,
            ClusterRunReport::Faulty(r) => &r.log,
        }
    }

    /// Engine events summed over the shards.
    pub fn events(&self) -> u64 {
        self.cluster()
            .shard_reports
            .iter()
            .map(|r| r.events_processed)
            .sum()
    }

    /// Dispatcher backoff steps (0 without faults).
    pub fn retries(&self) -> u64 {
        match &self.report {
            ClusterRunReport::Plain(_) => 0,
            ClusterRunReport::Faulty(r) => r.total_retries(),
        }
    }

    /// Digest of the cell: every shard's `report_digest`, the assignment
    /// and the cluster tallies.
    pub fn digest(&self) -> u64 {
        let c = self.counts();
        let r = self.cluster();
        fold_digest(
            r.shard_reports
                .iter()
                .map(report_digest)
                .chain(r.assignment.iter().map(|&s| s as u64))
                .chain([
                    c.success,
                    c.rejected,
                    c.deadline_miss,
                    c.data_stale,
                    self.retries(),
                ]),
        )
    }
}

/// Run `cell`, with shard policies wrapped in [`TimedPolicy`] when `sink`
/// is given. `obs` is installed on the observed cell only.
pub fn run_cell(
    inp: &Inputs,
    cell: Cell,
    sink: Option<&HookSink>,
    obs: Option<&mut dyn Observer>,
) -> CellRun {
    let sim = inp.plan.sim_config(WEIGHTS);
    let unit = inp.plan.unit_config(WEIGHTS);
    let start = Instant::now();
    let mut cfg = base_config(inp);
    if cell != Cell::Plain {
        cfg = cfg.with_replication(ReplicationConfig::new(2).with_lag(PropagationLag::jittered(
            SimDuration::from_secs(60),
            SimDuration::from_secs(180),
            LAG_WINDOWS,
        )));
    }
    let mut run = cfg.build();
    if cell != Cell::Plain {
        run = run.with_faults(
            &inp.faults,
            FailoverPolicy::Backoff(BackoffConfig::default()),
        );
    }
    if let (Cell::Observed, Some(obs)) = (cell, obs) {
        run = run.with_observer(obs);
    }
    let trace = &inp.bundle.trace;
    let report = match sink {
        Some(sink) => run.run(trace, sim, |_, seed| {
            TimedPolicy::new(UnitPolicy::new(unit.clone().with_seed(seed)), sink.clone())
        }),
        None => run.run_unit(trace, sim, &unit),
    }
    .expect("the cluster configuration is valid");
    CellRun {
        report,
        wall: secs(start),
    }
}

fn check_cell(res: &mut RunResult, inp: &Inputs, run: &CellRun, cell: Cell) {
    let n = inp.bundle.trace.queries.len() as u64;
    let total = run.counts().total();
    res.attempted += n;
    res.failed += n.saturating_sub(total);
    res.check(total == n && run.log().len() as u64 == n, || {
        format!(
            "{}: {total} outcomes, {} logged, for {n} queries",
            cell.name(),
            run.log().len()
        )
    });
}

/// Run the workload.
pub fn run(args: &RunArgs) -> RunResult {
    let mut res = RunResult::default();
    let (setup_s, inp) = timed_setup(SETUPS, || setup(SCALE, args.seed));
    if args.trace {
        run_traced(&inp, setup_s, &mut res);
        return res;
    }
    res.metrics.set("setup_s", setup_s);

    let mut stats = vec![CellStats::default(); Cell::ALL.len()];
    let mut first: Option<[u64; 3]> = None;
    let start = Instant::now();
    let (mut pass, mut last) = (0, 0.0);
    while pass == 0 || secs(start) + last <= args.seconds {
        let pass_start = Instant::now();
        let mut digests = [0u64; 3];
        let (mut usm, mut failures, mut queries) = (0.0f64, 0u64, 0u64);
        for (i, cell) in Cell::ALL.into_iter().enumerate() {
            let mut rec = RingRecorder::new(RING_CAPACITY);
            let run = run_cell(&inp, cell, None, Some(&mut rec));
            check_cell(&mut res, &inp, &run, cell);
            digests[i] = run.digest();
            let c = run.counts();
            stats[i].record(run.events(), c.success, run.wall);
            if cell != Cell::Observed {
                usm += c.total_usm(&WEIGHTS);
                failures += c.total() - c.success;
                queries += c.total();
            }
        }
        res.check(digests[1] == digests[2], || {
            format!("pass {pass}: the observed cell diverged from the chaos cell")
        });
        match first {
            None => {
                res.metrics.set("usm_per_query", usm / queries as f64);
                res.metrics
                    .set("fail_ratio", failures as f64 / queries as f64);
                first = Some(digests);
            }
            Some(d) => res.check(d == digests, || {
                format!("pass {pass}: a cell digest changed")
            }),
        }
        let walls: Vec<f64> = stats.iter().map(|c| c.walls[pass]).collect();
        res.passes
            .push(format!("{{\"pass\": {pass}, \"cell_walls_s\": {walls:?}}}"));
        pass += 1;
        last = secs(pass_start);
    }
    set_cell_metrics(&mut res, &stats, 2);
    res
}

/// The traced pass: each cell once bare, once with [`TimedPolicy`] shard
/// policies (and a [`TimedObserver`] on the observed cell); route, slice
/// and merge are timed by calling their public entry points on the same
/// inputs.
fn run_traced(inp: &Inputs, setup_s: f64, res: &mut RunResult) {
    res.metrics.set("workload.generate_s", setup_s);
    let sink = HookSink::default();
    let (mut bare_wall, mut timed_wall, mut events) = (0.0, 0.0, 0u64);
    let (mut execute_s, mut critical_s, mut merge_s) = (0.0, 0.0, 0.0);
    let (mut retries, mut queries) = (0u64, 0u64);
    let mut bare_walls = [0.0; 3];
    let mut shard_reports = Vec::new();
    let mut skews = Vec::new();
    let mut unattributed = 0.0;
    let workers = WORKERS as f64;
    let trace = &inp.bundle.trace;

    // Route and slice of the plain cell: the same calls `ClusterRun::run`
    // makes for it.
    let partition = ItemPartition::new(SHARDS);
    let start = Instant::now();
    let assignment = assign(trace, &partition, RoutingPolicy::LeastLoad);
    let route_s = secs(start);
    let start = Instant::now();
    let sliced = slice_trace(trace, &assignment, &partition);
    let slice_s = secs(start);
    res.check(sliced.is_ok(), || {
        "slice_trace rejected the plain assignment".into()
    });
    drop(sliced);

    for (i, cell) in Cell::ALL.into_iter().enumerate() {
        let mut rec = RingRecorder::new(RING_CAPACITY);
        let bare = run_cell(inp, cell, None, Some(&mut rec));
        let mut timed_rec = TimedObserver::new(RingRecorder::new(RING_CAPACITY));
        let timed = run_cell(inp, cell, Some(&sink), Some(&mut timed_rec));
        check_cell(res, inp, &timed, cell);
        res.check(bare.digest() == timed.digest(), || {
            format!(
                "{}: the traced cell diverged from the bare cell",
                cell.name()
            )
        });
        bare_walls[i] = bare.wall;
        bare_wall += bare.wall;
        timed_wall += timed.wall;
        events += timed.events();
        let c = timed.cluster();
        let walls: f64 = c.shard_walls.iter().sum();
        let critical = c.critical_path_secs().unwrap_or(0.0);
        execute_s += walls;
        critical_s += critical;
        skews.push(critical / (walls / c.shard_walls.len().max(1) as f64));
        retries += timed.retries();
        queries += timed.counts().total();

        let clone = c.shard_reports.clone();
        let start = Instant::now();
        let merged = ClusterReport::merge(c.routing, c.weights, c.assignment.clone(), clone);
        let merge = secs(start);
        res.check(merged.counts == c.counts, || {
            "re-merge changed the tallies".into()
        });
        merge_s += merge;
        let known = merge
            + if cell == Cell::Plain {
                route_s + slice_s
            } else {
                0.0
            };
        unattributed += timed.wall - walls / workers - known;
        if cell == Cell::Observed {
            let w = timed_rec.watch();
            res.metrics.set("obs.sink_ns_per_event", w.ns_per_call());
            res.metrics.set("obs.events", w.calls as f64);
            res.metrics
                .set("obs.dropped", timed_rec.inner().dropped() as f64);
        }
        shard_reports.extend(timed.cluster().shard_reports.iter().cloned());
    }
    let hook_ns = total_hook_ns(&sink) as f64;
    res.metrics.set(
        "sim.engine.ns_per_event",
        (execute_s * 1e9 - hook_ns) / events as f64,
    );
    set_hook_metrics(res, &sink);
    set_engine_ratios(res, &shard_reports);
    res.metrics.set(
        "cluster.retries_per_query",
        retries as f64 / queries.max(1) as f64,
    );
    res.metrics.set("cluster.execute_s", execute_s);
    res.metrics.set("cluster.critical_path_s", critical_s);
    res.metrics.set("cluster.shard_skew", median(&skews));
    res.metrics.set("cluster.route_s", route_s);
    res.metrics.set("cluster.slice_s", slice_s);
    res.metrics.set("cluster.merge_s", merge_s);
    res.metrics.set("cluster.unattributed_s", unattributed);
    res.metrics
        .set("obs.overhead_s", bare_walls[2] - bare_walls[1]);
    res.metrics
        .set("trace.overhead_ratio", timed_wall / bare_wall);
    res.passes.push(format!(
        "{{\"pass\": 0, \"bare_wall_s\": {bare_wall}, \"traced_wall_s\": {timed_wall}, \"events\": {events}}}"
    ));
}
