//! The unified cluster entry point: [`ClusterRun`], built from a
//! [`ClusterConfig`].
//!
//! One builder replaces the former four `run_*` free functions (removed
//! after a deprecation cycle): a plain cluster is `cfg.build().run(...)`,
//! faults are layered with [`ClusterRun::with_faults`], and observability
//! with [`ClusterRun::with_observer`] — so telemetry is wired once, here,
//! instead of once per entry point. Future shard/batching features extend
//! this builder rather than growing new top-level functions.
//!
//! Every run takes the same path: one dispatcher walks the queries over
//! replica sets (factor 1 without replication) under a fault plan (a quiet
//! one without faults), one slicer cuts the per-shard traces, and one
//! shard loop steps the engines.
//!
//! ## Observation model
//!
//! Each shard engine records into its own private unbounded
//! [`RingRecorder`] on its worker thread (no shared state, no locks), and
//! after the merge the streams are **replayed** to the installed observer
//! as [`ObsEvent::Shard`]-wrapped events, interleaved with the
//! cluster-level dispatcher events (routes, rejections, shard-health
//! transitions) in `(time, lane, seq)` order — lane 0 is the dispatcher,
//! lane `s + 1` is shard `s`. The replay is a pure function of the run
//! inputs, so the observed stream is bit-identical for any worker count,
//! and observation never touches the engines' decision paths: every
//! `report_digest` matches the observer-free run exactly.

use crate::failover::{self, FailoverPolicy, FaultClusterReport, RouteDecision};
use crate::merge::{ClusterReport, ReplicationReport};
use crate::replication::{ReplicaSets, ReplicationConfig};
use crate::{ClusterConfig, ClusterConfigError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::Trace;
use unit_core::unit_policy::UnitPolicy;
use unit_core::UnitConfig;
use unit_faults::{FaultPlan, FaultSchedule, ShardFaults};
use unit_obs::{FaultPhase, ObsEvent, Observer, RingRecorder};
use unit_sim::{HealthState, SimConfig, SimReport, SimRun, Simulator};
use unit_workload::slice_trace_replicated;

/// A configured cluster run: faults and observation are layered onto the
/// shape described by the [`ClusterConfig`] it was built from, mirroring
/// the single-server [`SimRun::with_faults`]/[`SimRun::with_observer`]
/// builder.
pub struct ClusterRun<'a> {
    cluster: ClusterConfig,
    faults: Option<(&'a FaultPlan, FailoverPolicy)>,
    obs: Option<&'a mut dyn Observer>,
}

/// What a [`ClusterRun`] produced: the plain shard-level report, or the
/// fault-extended one when a plan was installed. The variant is decided by
/// the builder's configuration, never by what happened during the run, so
/// callers can match structurally.
#[derive(Debug, Clone)]
pub enum ClusterRunReport {
    /// A fault-free run ([`ClusterRun::with_faults`] absent).
    Plain(ClusterReport),
    /// A fault-injected run, dispatcher verdicts included.
    Faulty(FaultClusterReport),
}

impl ClusterRunReport {
    /// The shard-level report, whichever variant this is. O(1).
    pub fn cluster(&self) -> &ClusterReport {
        match self {
            ClusterRunReport::Plain(r) => r,
            ClusterRunReport::Faulty(r) => &r.cluster,
        }
    }

    /// The plain report, if this was a fault-free run. O(1).
    pub fn into_plain(self) -> Option<ClusterReport> {
        match self {
            ClusterRunReport::Plain(r) => Some(r),
            ClusterRunReport::Faulty(_) => None,
        }
    }

    /// The fault-extended report, if a plan was installed. O(1).
    pub fn into_faulty(self) -> Option<FaultClusterReport> {
        match self {
            ClusterRunReport::Plain(_) => None,
            ClusterRunReport::Faulty(r) => Some(r),
        }
    }
}

impl ClusterConfig {
    /// Start building a run from this shape. Layer options with
    /// [`ClusterRun::with_faults`] / [`ClusterRun::with_observer`], then
    /// execute with [`ClusterRun::run`] (or [`ClusterRun::run_unit`]).
    #[must_use]
    pub fn build<'a>(self) -> ClusterRun<'a> {
        ClusterRun {
            cluster: self,
            faults: None,
            obs: None,
        }
    }
}

impl<'a> ClusterRun<'a> {
    /// Install a fault plan and the dispatcher's failover policy. The
    /// dispatcher then routes around unhealthy shards, each shard runs
    /// with its [`ShardFaults`] hook (unless the plan is quiet), and the
    /// run returns [`ClusterRunReport::Faulty`].
    #[must_use]
    pub fn with_faults(mut self, plan: &'a FaultPlan, failover: FailoverPolicy) -> ClusterRun<'a> {
        self.faults = Some((plan, failover));
        self
    }

    /// Install an observability sink. Shard event streams are recorded
    /// per-worker and replayed to `observer` after the merge (see the
    /// module docs for the deterministic interleave); dispatcher routes,
    /// rejections, and shard-health transitions are emitted at cluster
    /// level. Passive: the run's reports are bit-identical either way.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a mut dyn Observer) -> ClusterRun<'a> {
        self.obs = Some(observer);
        self
    }

    /// Execute the run: route, slice, execute every shard, merge, and (with
    /// an observer installed) replay the recorded event streams.
    ///
    /// `make_policy(shard_id, seed)` builds each shard's policy instance;
    /// `seed` is already split from the run seed. The engine-level outcome
    /// log is forced on — the merge layer needs it — which does not change
    /// engine behaviour (the log is excluded from
    /// [`unit_sim::report_digest`]).
    ///
    /// # Errors
    /// Returns [`ClusterConfigError`] when the config fails
    /// [`ClusterConfig::validate`], or — with faults installed — when the
    /// plan does not cover every shard or a shard schedule is malformed.
    ///
    /// # Panics
    /// Panics if `trace` is malformed (same contract as
    /// [`Simulator::new`]) or a worker thread panics.
    pub fn run<P, F>(
        self,
        trace: &Trace,
        sim: SimConfig,
        make_policy: F,
    ) -> Result<ClusterRunReport, ClusterConfigError>
    where
        P: Policy + Send,
        F: Fn(usize, u64) -> P + Sync,
    {
        let ClusterRun {
            cluster,
            faults,
            obs,
        } = self;
        cluster.validate()?;
        let n = cluster.n_shards;
        // The general path: replica sets (factor 1 without replication)
        // under a fault plan (a quiet one without faults).
        let replication = cluster.replication.unwrap_or(ReplicationConfig::new(1));
        let sets = ReplicaSets::new(trace, n, &replication, cluster.seed, sim.horizon);
        let quiet;
        let (plan, failover) = match faults {
            Some(installed) => installed,
            None => {
                quiet = FaultPlan::quiet(n);
                (&quiet, FailoverPolicy::NoRetry)
            }
        };
        if plan.shards.len() != n {
            return Err(ClusterConfigError::PlanShardMismatch {
                plan_shards: plan.shards.len(),
                n_shards: n,
            });
        }
        // Propagation owns the full horizon of every followed item's
        // streams; a user fault there would overlap it.
        for (shard, sched) in plan.shards.iter().enumerate() {
            if let Some(f) = sched
                .stream_faults
                .iter()
                .find(|f| sets.map().follows(shard, f.item))
            {
                return Err(ClusterConfigError::ReplicationFaultConflict {
                    shard,
                    item: f.item.0,
                });
            }
        }
        let hooks = build_shard_hooks(plan, &sets)?;

        // Dispatch prologue: sequential and pure.
        let dispatch = failover::dispatch(trace, &sets, cluster.routing, plan, &failover);
        let (routed, assignment) = failover::routed_trace(trace, &dispatch.decisions);
        let exec_trace = routed.as_ref().unwrap_or(trace);
        let shard_traces = match slice_trace_replicated(
            exec_trace,
            &assignment,
            sets.map(),
            cluster.filter_updates,
        ) {
            Ok((t, _)) => t,
            // lint: allow(panic) — the dispatcher produced the assignment; a bad one is a routing bug, not caller input
            Err(e) => panic!("internal routing error: {e}"),
        };
        let seeds: Vec<u64> = (0..n).map(|i| split_seed(cluster.seed, i as u64)).collect();
        let results = execute_shards(
            &shard_traces,
            &seeds,
            sim.with_outcome_log(),
            cluster.workers,
            cluster.epoch,
            hooks.as_deref(),
            obs.is_some(),
            &make_policy,
        );
        let mut recorders: Vec<Option<RingRecorder>> = Vec::with_capacity(n);
        let mut shard_reports: Vec<SimReport> = Vec::with_capacity(n);
        let mut shard_walls: Vec<f64> = Vec::with_capacity(n);
        for (report, rec, wall) in results {
            shard_reports.push(report);
            recorders.push(rec);
            shard_walls.push(wall);
        }

        let mut cluster_report =
            ClusterReport::merge(cluster.routing, sim.weights, assignment, shard_reports);
        cluster_report.shard_walls = shard_walls;
        cluster_report.update_streams_per_shard =
            shard_traces.iter().map(|t| t.updates.len()).collect();
        unit_core::validate_check!(
            "cluster-usm-identity",
            crate::merge::check_cluster_identity(&cluster_report)
        );
        if cluster.replication.is_some() {
            let replication = ReplicationReport {
                factor: sets.factor(),
                propagation: sets.propagation_log(),
                routes: dispatch.routes,
                promotions: dispatch.promotions,
            };
            unit_core::validate_check!(
                "replication-consistency",
                crate::replication::check_replication_consistency(
                    &sets,
                    &replication,
                    sim.tick_period,
                    sim.horizon
                )
            );
            cluster_report.replication = Some(replication);
        }

        if let Some(observer) = obs {
            replay_events(
                observer,
                trace,
                recorders,
                &dispatch.decisions,
                hooks.as_deref(),
                cluster_report.replication.as_ref(),
            );
        }

        if faults.is_none() {
            return Ok(ClusterRunReport::Plain(cluster_report));
        }
        let report = FaultClusterReport::assemble(trace, cluster_report, dispatch.decisions);
        unit_core::validate_check!(
            "health-consistency",
            failover::check_health_consistency(&report, plan, &failover)
        );
        Ok(ClusterRunReport::Faulty(report))
    }

    /// Execute a UNIT run: one [`UnitPolicy`] per shard, each configured
    /// from `base` with its own split seed. The common case for benches.
    ///
    /// # Errors
    /// Same contract as [`ClusterRun::run`].
    pub fn run_unit(
        self,
        trace: &Trace,
        sim: SimConfig,
        base: &UnitConfig,
    ) -> Result<ClusterRunReport, ClusterConfigError> {
        self.run(trace, sim, |_, seed| {
            UnitPolicy::new(base.clone().with_seed(seed))
        })
    }
}

/// Build each shard's fault hook by merging the plan with the replication
/// layer's propagation schedules: every followed item's streams run under
/// the seeded windowed delays on that shard.
///
/// Returns `None` when every merged schedule is empty — no faults, and
/// factor 1 or zero lag — so such a run steps its engines unhooked. The
/// conflict check in [`ClusterRun::run`] guarantees user stream faults and
/// propagation faults touch disjoint items per shard, so the merged list
/// stays valid (sorted, non-overlapping per item).
fn build_shard_hooks(
    plan: &FaultPlan,
    sets: &ReplicaSets,
) -> Result<Option<Vec<ShardFaults>>, ClusterConfigError> {
    let mut schedules = plan.shards.clone();
    for (s, sched) in schedules.iter_mut().enumerate() {
        let props = sets.propagation_faults(s);
        if !props.is_empty() {
            sched.stream_faults.extend(props);
            sched.stream_faults.sort_by_key(|f| (f.item.0, f.start));
        }
    }
    if schedules.iter().all(FaultSchedule::is_empty) {
        return Ok(None);
    }
    let hooks = schedules
        .into_iter()
        .enumerate()
        .map(|(shard, s)| {
            ShardFaults::new(s).map_err(|error| ClusterConfigError::FaultSchedule { shard, error })
        })
        .collect::<Result<_, _>>()?;
    Ok(Some(hooks))
}

/// Execute every shard on a worker pool and return
/// `(report, recorder, wall_secs)` triples indexed by shard id
/// (`recorder` is `Some` iff `record`; `wall_secs` is the host time the
/// shard spent being built, stepped, and finished, excluding barrier
/// waits).
///
/// Worker `w` statically owns shards `w, w + W, w + 2W, …`; each shard is
/// built, stepped, and finished on exactly one thread, its engine built
/// lazily on its first step. All workers advance in lockstep through
/// virtual-time rounds `(k·ε, (k+1)·ε]`. Two barriers close each round:
/// one publishes the round's drain count, one makes sure every worker has
/// read it before the next round's decrements start — the counter is
/// monotone, so all workers agree on the exit round and nobody strands a
/// peer at a barrier. A single worker has no peer to keep pace with, so
/// it runs on the calling thread and always takes one whole-run round: it
/// builds, drains, and finishes one engine before building the next,
/// keeping one engine in memory.
///
/// Interleaving-independence: shards share no mutable state — each
/// consumes its own trace slice, seed, and (when recording) a recorder
/// private to its worker — pausing an engine at a round boundary reorders
/// nothing ([`Simulator::step_until`]), and results land in slots keyed by
/// shard id, so neither the worker count nor the epoch is observable in
/// the output. With `hooks`, shard `i` runs with `hooks[i]` installed as
/// its fault hook. O(E log N_ev + R·W) for R rounds.
#[allow(clippy::too_many_arguments)]
fn execute_shards<P, F>(
    shard_traces: &[Trace],
    seeds: &[u64],
    shard_cfg: SimConfig,
    workers: usize,
    epoch: SimDuration,
    hooks: Option<&[ShardFaults]>,
    record: bool,
    make_policy: &F,
) -> Vec<(SimReport, Option<RingRecorder>, f64)>
where
    P: Policy + Send,
    F: Fn(usize, u64) -> P + Sync,
{
    let n = shard_traces.len();
    // `0` = auto: one worker per shard, capped at the host's actual
    // parallelism — extra threads on a smaller machine only add scheduling
    // and barrier overhead. Purely a wall-clock decision: results are
    // worker-count-invariant (pinned by the differential suites), so the
    // cap can never change a report.
    let workers = if workers == 0 {
        let cap = std::thread::available_parallelism().map_or(n, std::num::NonZeroUsize::get);
        n.min(cap)
    } else {
        workers.min(n)
    };
    let epoch = if workers == 1 {
        SimDuration::MAX
    } else {
        epoch
    };
    debug_assert!(!epoch.is_zero(), "validate() rejects zero epochs");
    let barrier = Barrier::new(workers);
    let live_total = AtomicUsize::new(n);
    // Worker `w`'s loop over the shards it owns: `(shard, report,
    // recorder, wall)` for each of them.
    let work = |w: usize| {
        let owned: Vec<usize> = (w..n).step_by(workers).collect();
        let mut recs: Vec<Option<RingRecorder>> = owned
            .iter()
            .map(|_| record.then(RingRecorder::unbounded))
            .collect();
        // Engines borrow their recorders element-wise; `recs`
        // stays mutably borrowed until every engine is finished.
        let mut lanes: Vec<Lane<'_, P>> = owned
            .iter()
            .zip(recs.iter_mut())
            .map(|(&shard, rec)| Lane {
                shard,
                rec: rec.as_mut(),
                sim: None,
                report: None,
                wall: 0.0,
            })
            .collect();
        let mut limit = SimTime::ZERO;
        loop {
            limit += epoch;
            for lane in lanes.iter_mut().filter(|l| l.report.is_none()) {
                // lint: allow(D2) — diagnostic shard-wall timing, never enters sim state or digests
                let started = std::time::Instant::now();
                let i = lane.shard;
                let sim = lane.sim.get_or_insert_with(|| {
                    let mut run = SimRun::trace(
                        &shard_traces[i],         // lint: allow(D6) — i < n == shard_traces.len()
                        make_policy(i, seeds[i]), // lint: allow(D6) — i < n
                        shard_cfg,
                    );
                    if let Some(hooks) = hooks {
                        // Setup, not stepping: one clone per shard per run.
                        // lint: allow(D6,P2) — hooks has n entries; runs once per shard
                        run = run.with_faults(Box::new(hooks[i].clone()));
                    }
                    if let Some(r) = lane.rec.take() {
                        run = run.with_observer(r);
                    }
                    run.build()
                });
                if !sim.step_until(limit) {
                    // Drained: harvest now so the report is
                    // ready the moment the cluster converges,
                    // and the engine's memory is freed.
                    lane.report = lane.sim.take().map(|sim| sim.finish().0);
                    // Relaxed is enough: the barriers below
                    // order this store against every reader.
                    live_total.fetch_sub(1, Ordering::Relaxed);
                }
                lane.wall += started.elapsed().as_secs_f64();
            }
            barrier.wait(); // round's drains are published
            let done = live_total.load(Ordering::Relaxed) == 0;
            barrier.wait(); // everyone has read before round k+1
            if done {
                break;
            }
        }
        let finished: Vec<_> = lanes
            .into_iter()
            .map(|lane| (lane.shard, lane.report, lane.wall))
            .collect(); // ends the recorder borrows
        finished
            .into_iter()
            .zip(recs)
            .map(|((i, report, wall), rec)| {
                let Some(report) = report else {
                    // lint: allow(panic) — the loop only exits once every shard drained
                    panic!("shard {i} exited the epoch loop unfinished")
                };
                (i, report, rec, wall)
            })
            .collect::<Vec<_>>()
    };
    let finished: Vec<_> = if workers == 1 {
        // A lone worker runs on the calling thread: no spawn, and its
        // engines allocate where the caller does.
        vec![work(0)]
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(f) => f,
                    // lint: allow(panic) — a worker panic is a shard-engine bug;
                    // propagate it instead of reporting a partial cluster
                    Err(e) => std::panic::resume_unwind(e),
                })
                .collect()
        })
    };
    let mut slots: Vec<Option<(SimReport, Option<RingRecorder>, f64)>> =
        (0..n).map(|_| None).collect();
    for (i, report, rec, wall) in finished.into_iter().flatten() {
        // lint: allow(D6) — workers only own indices i < n
        slots[i] = Some((report, rec, wall));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| match s {
            Some(r) => r,
            // lint: allow(panic) — static ownership covers every shard exactly once
            None => panic!("shard {i} produced no report"),
        })
        .collect()
}

/// One shard as its owning worker drives it: the recorder waiting for the
/// engine, the live engine, then the finished report.
struct Lane<'r, P: Policy> {
    shard: usize,
    rec: Option<&'r mut RingRecorder>,
    sim: Option<Simulator<'r, P>>,
    report: Option<SimReport>,
    wall: f64,
}

/// Replay the run's event streams to the observer in `(time, lane, seq)`
/// order: lane 0 carries the dispatcher (shard-health transitions first,
/// then routing verdicts, then replica routes and promotions, each in
/// construction order at equal instants), lane `s + 1` carries shard `s`'s
/// own stream wrapped as [`ObsEvent::Shard`], and lane
/// `1 + n_shards + s` is shard `s`'s replica pseudo-lane carrying its
/// follower-side propagation deliveries ([`crate::ClusterLane`]). Pure
/// function of the run inputs — worker count and finish order are
/// invisible. O(E log E) in the total event count.
fn replay_events(
    observer: &mut dyn Observer,
    trace: &Trace,
    recorders: Vec<Option<RingRecorder>>,
    decisions: &[RouteDecision],
    hooks: Option<&[ShardFaults]>,
    replication: Option<&ReplicationReport>,
) {
    let mut all: Vec<(SimTime, u32, u64, ObsEvent)> = Vec::new();
    let mut seq0 = 0u64;
    let mut lane0 = |all: &mut Vec<(SimTime, u32, u64, ObsEvent)>, ev: ObsEvent| {
        all.push((ev.time(), 0, seq0, ev));
        seq0 += 1;
    };

    // Shard-health transitions, as the dispatcher sees the plan.
    if let Some(hooks) = hooks {
        for (s, hook) in hooks.iter().enumerate() {
            use unit_sim::FaultHook as _;
            let mut times = hook.transition_times();
            times.sort_unstable();
            times.dedup();
            for t in times {
                let (phase, until) = match hook.health(t) {
                    HealthState::Up => (FaultPhase::Up, None),
                    HealthState::Degraded { until } => (FaultPhase::Degraded, Some(until)),
                    HealthState::Down { until } => (FaultPhase::Down, Some(until)),
                };
                lane0(
                    &mut all,
                    ObsEvent::ShardHealth {
                        time: t,
                        shard: s as u32,
                        phase,
                        until,
                    },
                );
            }
        }
    }

    // Routing verdicts, in trace order.
    for (q, d) in trace.queries.iter().zip(decisions) {
        let ev = match *d {
            RouteDecision::Routed { shard, at, retries } => ObsEvent::DispatcherRoute {
                time: at,
                query: q.id,
                shard: shard as u32,
                retries,
            },
            RouteDecision::Rejected { at, retries } => ObsEvent::DispatcherReject {
                time: at,
                query: q.id,
                retries,
            },
        };
        lane0(&mut all, ev);
    }

    // Replica-layer events: follower routes and promotions on the
    // dispatcher lane (after the verdicts, in construction order), and
    // propagation deliveries on per-shard replica pseudo-lanes ordered
    // after every real shard lane.
    let n_shards = recorders.len();
    if let Some(rep) = replication {
        for r in &rep.routes {
            lane0(
                &mut all,
                ObsEvent::ReplicaRoute {
                    time: r.time,
                    query: r.query,
                    shard: r.shard as u32,
                    follower_items: r.follower_items,
                    claimed_transit: r.claimed_transit,
                },
            );
        }
        for p in &rep.promotions {
            lane0(
                &mut all,
                ObsEvent::ReplicaPromote {
                    time: p.time,
                    item: p.item,
                    from: p.from as u32,
                    to: p.to as u32,
                },
            );
        }
        let mut seqs = vec![0u64; n_shards];
        for r in &rep.propagation {
            // lint: allow(D6) — record followers are < n_shards (placement edge)
            let seq = seqs[r.follower];
            seqs[r.follower] += 1; // lint: allow(D6) — same bound as above
            all.push((
                r.time,
                1 + (n_shards + r.follower) as u32,
                seq,
                ObsEvent::ReplicaPropagate {
                    time: r.time,
                    item: r.item,
                    leader: r.leader as u32,
                    follower: r.follower as u32,
                    version: r.version,
                    emitted: r.emitted,
                },
            ));
        }
    }

    for (s, rec) in recorders.into_iter().enumerate() {
        let Some(rec) = rec else { continue };
        for (seq, event) in rec.into_events().into_iter().enumerate() {
            all.push((
                event.time(),
                s as u32 + 1,
                seq as u64,
                ObsEvent::Shard {
                    shard: s as u32,
                    seq: seq as u64,
                    event: Box::new(event),
                },
            ));
        }
    }

    all.sort_by_key(|&(time, lane, seq, _)| (time, lane, seq));
    for (_, _, _, ev) in all {
        observer.on_event(&ev);
    }
}
