//! # unit-perfbench — the repository benchmark
//!
//! One command, three workloads (`sim-paper`, `cluster-chaos`,
//! `serve-burst`; see `README.md` for why each was chosen and which
//! layer metric should move which end-to-end metric). Every workload
//! drives the program only through its public API: `unit_workload`
//! generates the inputs from `--seed`, `unit_sim::SimRun`,
//! `unit_cluster::ClusterRun` and `unit_server::serve` execute them, and
//! the trace wraps the `Policy`, `TransactionManager`, `Observer` and
//! `Clock` traits from outside ([`timed`]).
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) runs the same work once bare and once wrapped and
//! reports the per-layer metrics, the tracing overhead among them.

pub mod cluster_chaos;
pub mod pins;
pub mod serve_burst;
pub mod sim_paper;
pub mod spec;
pub mod timed;

use spec::Metrics;
use std::time::Instant;
use unit_bench::ExperimentPlan;
use unit_core::seed::split_seed;
use unit_core::usm::UsmWeights;
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

/// The weights every workload prices USM under (paper Table 2: low
/// rejection cost, high deadline-miss cost).
pub const WEIGHTS: UsmWeights = UsmWeights::low_high_cfm();

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// What one workload invocation measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Queries submitted across all measured work.
    pub attempted: u64,
    /// Queries that reached no outcome, plus backend errors.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// One JSON object per measured pass (its index, wall time, work).
    pub passes: Vec<String>,
}

impl RunResult {
    /// Record a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One engine cell's work (the same in every pass; digests check it)
/// and its wall time in each pass.
#[derive(Debug, Default, Clone)]
pub struct CellStats {
    /// Engine events processed.
    pub events: u64,
    /// Success outcomes.
    pub success: u64,
    /// Wall seconds, one per pass.
    pub walls: Vec<f64>,
}

impl CellStats {
    /// Record one pass of the cell.
    pub fn record(&mut self, events: u64, success: u64, wall: f64) {
        self.events = events;
        self.success = success;
        self.walls.push(wall);
    }
}

/// Set the wall-clock end-to-end metrics of an engine workload. Rates
/// come from each cell's median wall over the passes, so a pass slowed
/// by the host moves none of them: cell `observed` counts only towards
/// `observed_events_per_s`, the others give `events_per_s` and
/// `goodput_qps`. Latency is the wall time of one pass over every cell
/// (the time to run the workload's experiment once), at nearest rank
/// over the passes.
pub fn set_cell_metrics(res: &mut RunResult, cells: &[CellStats], observed: usize) {
    let walls: Vec<f64> = cells.iter().map(|c| spec::median(&c.walls)).collect();
    let (mut events, mut success, mut wall) = (0u64, 0u64, 0.0);
    for (i, c) in cells.iter().enumerate().filter(|&(i, _)| i != observed) {
        events += c.events;
        success += c.success;
        wall += walls[i];
    }
    res.metrics.set("events_per_s", events as f64 / wall);
    res.metrics.set("goodput_qps", success as f64 / wall);
    res.metrics.set(
        "observed_events_per_s",
        cells[observed].events as f64 / walls[observed],
    );
    let passes = cells.iter().map(|c| c.walls.len()).min().unwrap_or(0);
    let mut pass_walls: Vec<f64> = (0..passes)
        .map(|p| cells.iter().map(|c| c.walls[p]).sum())
        .collect();
    pass_walls.sort_by(f64::total_cmp);
    for (name, p) in [
        ("latency_p50_us", 0.5),
        ("latency_p99_us", 0.99),
        ("latency_p999_us", 0.999),
    ] {
        res.metrics
            .set(name, spec::percentile_sorted(&pass_walls, p) * 1e6);
    }
}

/// The workload bundle for one Table 1 cell of `plan`, with the query and
/// update generators' seeds derived from the benchmark seed.
pub fn seeded_bundle(
    plan: &ExperimentPlan,
    volume: UpdateVolume,
    dist: UpdateDistribution,
    seed: u64,
) -> TraceBundle {
    let mut qcfg = plan.query_cfg;
    qcfg.seed = split_seed(qcfg.seed, seed);
    let mut ucfg = plan.update_config(volume, dist);
    ucfg.seed = split_seed(ucfg.seed, seed);
    TraceBundle::generate(&qcfg, &ucfg)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Run `make` `n` times, timing each, and return the median time with
/// the last value built. Set-up is repeated so `setup_s` is a median.
pub fn timed_setup<T>(n: usize, mut make: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(make());
        times.push(secs(start));
    }
    let value = last.expect("at least one set-up ran");
    (spec::median(&times), value)
}

/// This thread's on-CPU and runnable-but-waiting nanoseconds so far
/// (Linux `/proc/thread-self/schedstat`), for the pass records: wall time
/// that is not on-CPU time shows host contention.
pub fn thread_sched_ns() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

/// FNV-1a fold of 64-bit words: the digest of a multi-part result.
pub fn fold_digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Build one policy of `kind` and evaluate `$body` with it bound to
/// `$p`; the body is monomorphised once per policy type.
#[macro_export]
macro_rules! with_policy {
    ($kind:expr, $unit:expr, |$p:ident| $body:expr) => {
        match $kind {
            unit_bench::PolicyKind::Imu => {
                let $p = unit_baselines::ImuPolicy::new();
                $body
            }
            unit_bench::PolicyKind::Odu => {
                let $p = unit_baselines::OduPolicy::new();
                $body
            }
            unit_bench::PolicyKind::Qmf => {
                let $p = unit_baselines::QmfPolicy::default();
                $body
            }
            unit_bench::PolicyKind::Unit => {
                let $p = unit_core::unit_policy::UnitPolicy::new($unit);
                $body
            }
        }
    };
}
