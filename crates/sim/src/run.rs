//! # `SimRun` — the one way to assemble a simulation run
//!
//! Mirrors the cluster layer's `ClusterRun`: a borrow-holding builder
//! that collects everything a run needs — the workload source, the
//! policy, the config, and the optional fault hook and observer — then
//! either executes it ([`SimRun::run`], [`SimRun::run_streamed`]) or
//! hands back the raw engine handle ([`SimRun::build`]) for embedders
//! that step it manually (the cluster dispatcher, epoch-parallel
//! stepping, checkpoint/restore harnesses).
//!
//! The low-level constructors [`Simulator::new`] and
//! [`Simulator::new_streaming`] remain (they are the engine-handle API,
//! exactly like `ClusterConfig::new` under `ClusterRun`); all optional
//! state — fault hook and observer — is installed here.
//!
//! ```
//! use unit_sim::prelude::*;
//!
//! let trace = Trace {
//!     n_items: 2,
//!     queries: vec![QuerySpec {
//!         id: QueryId(0),
//!         arrival: SimTime::from_secs(1),
//!         items: vec![DataId(0)],
//!         exec_time: SimDuration::from_secs(1),
//!         relative_deadline: SimDuration::from_secs(10),
//!         freshness_req: 0.9,
//!         pref_class: 0,
//!     }],
//!     updates: vec![],
//! };
//! let policy = UnitPolicy::new(UnitConfig::default());
//! let mut rec = RingRecorder::unbounded();
//! let report = SimRun::trace(&trace, policy, SimConfig::new(SimDuration::from_secs(100)))
//!     .with_observer(&mut rec)
//!     .run();
//! assert_eq!(report.counts.success, 1);
//! ```

use crate::engine::{SimConfig, Simulator};
use crate::faults::FaultHook;
use crate::stats::SimReport;
use unit_core::policy::Policy;
use unit_core::types::{QuerySpec, Trace, UpdateSpec};
use unit_obs::Observer;

/// Where the run's workload comes from.
enum RunSource<'a> {
    /// A fully materialized trace (queries seeded up front).
    Trace(&'a Trace),
    /// A streaming run: updates and database size are fixed, queries are
    /// fed while the run progresses.
    Streaming {
        n_items: usize,
        updates: &'a [UpdateSpec],
    },
}

/// A configured-but-not-started simulation run. See the module docs.
#[must_use = "a SimRun does nothing until .run()/.run_streamed()/.build() is called"]
pub struct SimRun<'a, P: Policy> {
    source: RunSource<'a>,
    policy: P,
    cfg: SimConfig,
    faults: Option<Box<dyn FaultHook>>,
    obs: Option<&'a mut dyn Observer>,
}

impl<'a, P: Policy> SimRun<'a, P> {
    /// A run over a materialized trace — the counterpart of
    /// [`Simulator::new`].
    pub fn trace(trace: &'a Trace, policy: P, cfg: SimConfig) -> Self {
        SimRun {
            source: RunSource::Trace(trace),
            policy,
            cfg,
            faults: None,
            obs: None,
        }
    }

    /// A streaming run with no up-front query list — the counterpart of
    /// [`Simulator::new_streaming`]. Feed queries through
    /// [`SimRun::run_streamed`], or [`SimRun::build`] +
    /// [`Simulator::feed_query`] for manual control.
    pub fn streaming(n_items: usize, updates: &'a [UpdateSpec], policy: P, cfg: SimConfig) -> Self {
        SimRun {
            source: RunSource::Streaming { n_items, updates },
            policy,
            cfg,
            faults: None,
            obs: None,
        }
    }

    /// Install a fault-injection hook ([`FaultHook`]).
    pub fn with_faults(mut self, hook: Box<dyn FaultHook>) -> Self {
        self.faults = Some(hook);
        self
    }

    /// Install an observability sink (`unit-obs`). Observation is
    /// passive — the run's `report_digest` stays bit-identical.
    pub fn with_observer(mut self, observer: &'a mut dyn Observer) -> Self {
        self.obs = Some(observer);
        self
    }

    /// Assemble the engine handle without running it: for embedders that
    /// drive [`Simulator::step`] / [`Simulator::step_until`] /
    /// [`Simulator::feed_query`] themselves and harvest
    /// [`Simulator::finish`].
    ///
    /// # Panics
    /// Panics if the trace (or update streams) are malformed — the same
    /// contract as [`Simulator::new`].
    #[must_use]
    pub fn build(self) -> Simulator<'a, P> {
        let mut sim = match self.source {
            RunSource::Trace(trace) => Simulator::new(trace, self.policy, self.cfg),
            RunSource::Streaming { n_items, updates } => {
                Simulator::new_streaming(n_items, updates, self.policy, self.cfg)
            }
        };
        if let Some(hook) = self.faults {
            sim.set_faults(hook);
        }
        if let Some(obs) = self.obs {
            sim.set_observer(obs);
        }
        sim
    }

    /// Execute a materialized run to completion and return the report.
    ///
    /// # Panics
    /// Panics if the trace is malformed, or when called on a
    /// [`SimRun::streaming`] run (which has no queries to drain — use
    /// [`SimRun::run_streamed`]).
    pub fn run(self) -> SimReport {
        self.run_with_policy().0
    }

    /// Like [`SimRun::run`], but also hands back the policy's final
    /// state.
    ///
    /// # Panics
    /// Same contract as [`SimRun::run`].
    pub fn run_with_policy(self) -> (SimReport, P) {
        // lint: allow(panic) — documented contract: streaming runs take their
        // queries through run_streamed, not run
        assert!(
            matches!(self.source, RunSource::Trace(_)),
            "SimRun::run on a streaming run: use run_streamed(queries, chunk)"
        );
        self.build().run_with_policy()
    }

    /// Drive a streaming run to completion over `queries` (fed in trace
    /// order, at most `chunk` arrivals buffered ahead of the clock) and
    /// return the report. Bit-identical to the materialized pipeline for
    /// the same query sequence — see [`Simulator::run_streamed`].
    ///
    /// # Panics
    /// Panics on a malformed or out-of-order feed, or when called on a
    /// [`SimRun::trace`] run (whose arrivals were seeded up front).
    pub fn run_streamed<I>(self, queries: I, chunk: usize) -> SimReport
    where
        I: IntoIterator<Item = QuerySpec>,
    {
        self.run_streamed_with_policy(queries, chunk).0
    }

    /// Like [`SimRun::run_streamed`], but also hands back the policy.
    ///
    /// # Panics
    /// Same contract as [`SimRun::run_streamed`].
    pub fn run_streamed_with_policy<I>(self, queries: I, chunk: usize) -> (SimReport, P)
    where
        I: IntoIterator<Item = QuerySpec>,
    {
        // lint: allow(panic) — documented contract: materialized runs already
        // hold their queries, feeding more would double-count
        assert!(
            matches!(self.source, RunSource::Streaming { .. }),
            "SimRun::run_streamed on a materialized run: use run()"
        );
        self.build().run_streamed_with_policy(queries, chunk)
    }
}
