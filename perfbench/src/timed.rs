//! Outside-in timing decorators: [`TimedPolicy`], [`TimedBackend`],
//! [`TimedObserver`] and [`TimedClock`].
//!
//! Each one wraps a public trait of the program (`Policy`,
//! `TransactionManager`, `Observer`, `Clock`), forwards every call
//! unchanged, and times it with a nanosecond [`Stopwatch`] built on
//! `std::time::Instant`. The program's own `Clock` ticks in µs, which
//! reads 0 for an admission decision, so it cannot serve as the
//! stopwatch.
//!
//! The decorators never change an argument or a return value, so a
//! wrapped run makes exactly the decisions of a bare one; the
//! digest-neutrality self-test (`tests/digest_neutrality.rs`) pins this
//! for all four policies.
//!
//! Per-request serving stages are stitched together on the worker
//! thread: [`TimedPolicy::on_query_arrival`] opens a [`StageRecord`] in a
//! thread-local slot, [`TimedBackend`] stamps the transaction's begin and
//! commit into it, and [`TimedPolicy::on_query_outcome`] closes it.
//! [`TimedClock`] remembers each thread's latest clock read, which on a
//! worker is the dequeue instant of the request being admitted.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use unit_core::checkpoint::{CheckpointError, Dec, Enc};
use unit_core::clock::Clock;
use unit_core::observe::{AdmissionObs, ControllerObs, ModulationObs};
use unit_core::policy::{AdmissionDecision, ControlSignal, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::txn::{CommitSummary, ReadVersion, TransactionManager, TxnError, TxnToken};
use unit_core::types::{DataId, Outcome, QuerySpec, TxnClass, UpdateSpec};
use unit_obs::{ObsEvent, Observer};

/// Calls and busy nanoseconds of one timed entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stopwatch {
    /// Completed calls.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

impl Stopwatch {
    /// Run `f`, adding one call and its duration.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns += elapsed_ns(start);
        self.calls += 1;
        out
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }

    fn add(&mut self, other: &Stopwatch) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// The policy hooks the trace times, in report order.
pub const HOOKS: [&str; 8] = [
    "on_query_arrival",
    "on_version_arrival",
    "on_tick",
    "on_query_dispatch",
    "on_update_commit",
    "on_query_outcome",
    "demand_refresh",
    "tick_refreshes",
];

const ARRIVAL: usize = 0;
const VERSION: usize = 1;
const TICK: usize = 2;
const DISPATCH: usize = 3;
const COMMIT: usize = 4;
const OUTCOME: usize = 5;
const DEMAND: usize = 6;
const TICK_REFRESH: usize = 7;

/// One policy's hook timings, indexed like [`HOOKS`].
pub type HookTimes = [Stopwatch; 8];

/// Hook timings merged across policy instances, keyed by policy name.
pub type HookSink = Arc<Mutex<BTreeMap<String, HookTimes>>>;

/// Summed hook time of every policy in `sink`.
pub fn total_hook_ns(sink: &HookSink) -> u64 {
    lock(sink)
        .values()
        .flat_map(|h| h.iter().map(|s| s.ns))
        .sum()
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Timing sinks hold plain counters; a poisoned guard's data is still
    // a valid (if partial) tally.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Time `$e` into hook `$i` when the policy is timing.
macro_rules! timed {
    ($self:ident, $i:expr, $e:expr) => {
        if $self.timing {
            let start = Instant::now();
            let out = $e;
            $self.hooks[$i].ns += elapsed_ns(start);
            $self.hooks[$i].calls += 1;
            out
        } else {
            $e
        }
    };
}

/// One served request's stage stamps (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct StageRecord {
    /// The query.
    pub query: u64,
    /// Enqueue tick (µs since the clock epoch), as the server stamped it.
    pub enqueue_us: u64,
    /// Scaled service demand, µs.
    pub demand_us: u64,
    /// The worker's latest clock read before admission: the dequeue.
    pub dequeue: Option<Instant>,
    /// `on_tick` time spent between dequeue and admission, ns.
    pub tick_ns: u64,
    /// Entry into the admission hook.
    pub admit: Instant,
    /// Entry into the query transaction's `begin`.
    pub begin: Option<Instant>,
    /// Entry into its `commit`.
    pub commit_start: Option<Instant>,
    /// Return from its `commit`.
    pub commit_end: Option<Instant>,
    /// Entry into the outcome hook.
    pub outcome_at: Instant,
    /// The outcome.
    pub outcome: Outcome,
}

thread_local! {
    static LAST_CLOCK_READ: Cell<Option<Instant>> = const { Cell::new(None) };
    static OPEN_STAGE: RefCell<Option<StageRecord>> = const { RefCell::new(None) };
}

/// Outcome instants recorded by [`TimedPolicy::with_outcome_clock`]:
/// `(query id, clock tick of its outcome)`.
pub type OutcomeSink = Arc<Mutex<Vec<(u64, u64)>>>;

/// Per-policy-instance hook timer. `P` runs unchanged; see the module docs.
pub struct TimedPolicy<P: Policy> {
    inner: P,
    timing: bool,
    hooks: HookTimes,
    sink: HookSink,
    outcome_clock: Option<(Arc<dyn Clock>, OutcomeSink)>,
    local_outcomes: Vec<(u64, u64)>,
    stages: Option<Arc<Mutex<Vec<StageRecord>>>>,
    local_stages: Vec<StageRecord>,
    last_tick_end: Option<Instant>,
    last_tick_ns: u64,
}

impl<P: Policy> TimedPolicy<P> {
    /// Wrap `inner`; its hook times merge into `sink` when dropped.
    pub fn new(inner: P, sink: HookSink) -> Self {
        TimedPolicy {
            inner,
            timing: true,
            hooks: HookTimes::default(),
            sink,
            outcome_clock: None,
            local_outcomes: Vec::new(),
            stages: None,
            local_stages: Vec::new(),
            last_tick_end: None,
            last_tick_ns: 0,
        }
    }

    /// Wrap `inner` without timing any hook (for untraced runs that only
    /// need [`TimedPolicy::with_outcome_clock`]).
    pub fn untimed(inner: P) -> Self {
        let mut p = TimedPolicy::new(inner, HookSink::default());
        p.timing = false;
        p
    }

    /// Record `clock`'s reading at every query outcome into `sink`: the
    /// completion instant a client of the server would see.
    #[must_use]
    pub fn with_outcome_clock(mut self, clock: Arc<dyn Clock>, sink: OutcomeSink) -> Self {
        self.outcome_clock = Some((clock, sink));
        self
    }

    /// Also capture per-request serving stages into `stages`.
    #[must_use]
    pub fn with_stages(mut self, stages: Arc<Mutex<Vec<StageRecord>>>) -> Self {
        self.stages = Some(stages);
        self
    }
}

impl<P: Policy> Drop for TimedPolicy<P> {
    fn drop(&mut self) {
        let name = self.inner.name().to_string();
        let mut sink = lock(&self.sink);
        let entry = sink.entry(name).or_default();
        for (acc, h) in entry.iter_mut().zip(&self.hooks) {
            acc.add(h);
        }
        drop(sink);
        if let Some(stages) = &self.stages {
            lock(stages).append(&mut self.local_stages);
        }
        if let Some((_, outcomes)) = &self.outcome_clock {
            lock(outcomes).append(&mut self.local_outcomes);
        }
    }
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, n_items: usize, updates: &[UpdateSpec]) {
        self.inner.init(n_items, updates);
    }

    fn on_query_arrival(&mut self, q: &QuerySpec, sys: &SnapshotView<'_>) -> AdmissionDecision {
        if self.stages.is_some() {
            let admit = Instant::now();
            let dequeue = LAST_CLOCK_READ.with(Cell::get);
            let tick_ns = match (self.last_tick_end, dequeue) {
                (Some(end), Some(dq)) if end >= dq => self.last_tick_ns,
                _ => 0,
            };
            let rec = StageRecord {
                query: q.id.0,
                enqueue_us: q.arrival.0,
                demand_us: q.exec_time.0,
                dequeue,
                tick_ns,
                admit,
                begin: None,
                commit_start: None,
                commit_end: None,
                outcome_at: admit,
                outcome: Outcome::Rejected,
            };
            OPEN_STAGE.with(|s| *s.borrow_mut() = Some(rec));
        }
        timed!(self, ARRIVAL, self.inner.on_query_arrival(q, sys))
    }

    fn on_version_arrival(
        &mut self,
        item: DataId,
        now: SimTime,
        sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        timed!(self, VERSION, self.inner.on_version_arrival(item, now, sys))
    }

    fn demand_refresh(&mut self, q: &QuerySpec, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
        timed!(self, DEMAND, self.inner.demand_refresh(q, udrop))
    }

    fn tick_refreshes(&mut self, now: SimTime, udrop: &dyn Fn(DataId) -> u64) -> Vec<DataId> {
        timed!(self, TICK_REFRESH, self.inner.tick_refreshes(now, udrop))
    }

    fn refresh_at_admission(&self) -> bool {
        self.inner.refresh_at_admission()
    }

    fn on_query_dispatch(&mut self, q: &QuerySpec, freshness: f64) {
        timed!(self, DISPATCH, self.inner.on_query_dispatch(q, freshness));
    }

    fn on_update_commit(&mut self, item: DataId, exec_time: SimDuration) {
        timed!(self, COMMIT, self.inner.on_update_commit(item, exec_time));
    }

    fn on_query_outcome(&mut self, q: &QuerySpec, outcome: Outcome) {
        if let Some((clock, _)) = &self.outcome_clock {
            self.local_outcomes.push((q.id.0, clock.now().0));
        }
        if self.stages.is_some() {
            let at = Instant::now();
            if let Some(mut rec) = OPEN_STAGE.with(|s| s.borrow_mut().take()) {
                rec.outcome_at = at;
                rec.outcome = outcome;
                self.local_stages.push(rec);
            }
        }
        timed!(self, OUTCOME, self.inner.on_query_outcome(q, outcome));
    }

    fn on_tick(&mut self, now: SimTime, sys: &SnapshotView<'_>) -> Vec<ControlSignal> {
        let before = self.hooks[TICK].ns;
        let out = timed!(self, TICK, self.inner.on_tick(now, sys));
        if self.stages.is_some() {
            self.last_tick_ns = self.hooks[TICK].ns - before;
            self.last_tick_end = Some(Instant::now());
        }
        out
    }

    fn tick_idle_until(&self) -> SimTime {
        self.inner.tick_idle_until()
    }

    fn tick_idle(&self, now: SimTime) -> bool {
        self.inner.tick_idle(now)
    }

    fn current_period(&self, item: DataId) -> Option<SimDuration> {
        self.inner.current_period(item)
    }

    fn checkpoint_state(&self, enc: &mut Enc) {
        self.inner.checkpoint_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.inner.restore_state(dec)
    }

    fn set_observed(&mut self, observed: bool) {
        self.inner.set_observed(observed);
    }

    fn last_admission(&self) -> Option<AdmissionObs> {
        self.inner.last_admission()
    }

    fn controller_obs(&self) -> Option<ControllerObs> {
        self.inner.controller_obs()
    }

    fn drain_modulation_obs(&mut self) -> Vec<ModulationObs> {
        self.inner.drain_modulation_obs()
    }
}

/// Calls, busy ns and `Err` results of one backend method.
#[derive(Debug, Default)]
pub struct AtomicStopwatch {
    calls: AtomicU64,
    ns: AtomicU64,
    errors: AtomicU64,
}

impl AtomicStopwatch {
    /// Snapshot as a [`Stopwatch`].
    pub fn get(&self) -> Stopwatch {
        Stopwatch {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }

    /// `Err` results returned.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// The backend methods the trace times, in report order.
pub const BACKEND_OPS: [&str; 5] = ["begin", "read", "commit", "apply", "observe_version"];

/// A `TransactionManager` decorator. With `timing` off it only counts
/// `Err` results (which `serve` discards); with it on it also counts and
/// times every call and stamps the open [`StageRecord`].
pub struct TimedBackend<B> {
    inner: B,
    timing: bool,
    ops: [AtomicStopwatch; 5],
    other_errors: AtomicU64,
}

impl<B: TransactionManager> TimedBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B, timing: bool) -> Self {
        TimedBackend {
            inner,
            timing,
            ops: Default::default(),
            other_errors: AtomicU64::new(0),
        }
    }

    /// Per-method statistics, indexed like [`BACKEND_OPS`].
    pub fn ops(&self) -> &[AtomicStopwatch; 5] {
        &self.ops
    }

    /// Every `Err` any method returned.
    pub fn errors(&self) -> u64 {
        self.ops.iter().map(AtomicStopwatch::errors).sum::<u64>()
            + self.other_errors.load(Ordering::Relaxed)
    }

    fn call<R>(&self, op: usize, f: impl FnOnce() -> Result<R, TxnError>) -> Result<R, TxnError> {
        let w = &self.ops[op];
        let out = if self.timing {
            let start = Instant::now();
            let out = f();
            w.ns.fetch_add(elapsed_ns(start), Ordering::Relaxed);
            w.calls.fetch_add(1, Ordering::Relaxed);
            out
        } else {
            f()
        };
        if out.is_err() {
            w.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn count_err<R>(&self, out: Result<R, TxnError>) -> Result<R, TxnError> {
        if out.is_err() {
            self.other_errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

fn stamp(f: impl FnOnce(&mut StageRecord)) {
    OPEN_STAGE.with(|s| {
        if let Some(rec) = s.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

impl<B: TransactionManager> TransactionManager for TimedBackend<B> {
    fn begin(&self, class: TxnClass, now: SimTime) -> Result<TxnToken, TxnError> {
        if self.timing && class == TxnClass::Query {
            let at = Instant::now();
            stamp(|r| r.begin = Some(at));
        }
        self.call(0, || self.inner.begin(class, now))
    }

    fn read(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<ReadVersion, TxnError> {
        self.call(1, || self.inner.read(txn, item, now))
    }

    fn apply(&self, txn: TxnToken, item: DataId, now: SimTime) -> Result<(), TxnError> {
        self.call(3, || self.inner.apply(txn, item, now))
    }

    fn commit(&self, txn: TxnToken, now: SimTime) -> Result<CommitSummary, TxnError> {
        if !self.timing {
            return self.call(2, || self.inner.commit(txn, now));
        }
        let start = Instant::now();
        let out = self.call(2, || self.inner.commit(txn, now));
        let end = Instant::now();
        stamp(|r| {
            if r.begin.is_some() {
                r.commit_start = Some(start);
                r.commit_end = Some(end);
            }
        });
        out
    }

    fn abort(&self, txn: TxnToken) -> Result<(), TxnError> {
        self.count_err(self.inner.abort(txn))
    }

    fn observe_version(&self, item: DataId, now: SimTime) -> Result<(), TxnError> {
        self.call(4, || self.inner.observe_version(item, now))
    }

    fn udrop(&self, item: DataId) -> Result<u64, TxnError> {
        self.count_err(self.inner.udrop(item))
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
}

/// An `Observer` decorator timing every `on_event` call.
pub struct TimedObserver<O> {
    inner: O,
    watch: Stopwatch,
}

impl<O: Observer> TimedObserver<O> {
    /// Wrap `inner`.
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            watch: Stopwatch::default(),
        }
    }

    /// Calls and ns spent in the wrapped sink.
    pub fn watch(&self) -> Stopwatch {
        self.watch
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_event(&mut self, event: &ObsEvent) {
        let inner = &mut self.inner;
        self.watch.time(|| inner.on_event(event));
    }
}

/// A wall clock in µs ticks (like the server's `WallClock`) that also
/// remembers each thread's latest read as an `Instant`.
#[derive(Debug)]
pub struct TimedClock {
    epoch: Instant,
}

impl TimedClock {
    /// A clock whose tick 0 is now.
    pub fn new() -> Self {
        TimedClock {
            epoch: Instant::now(),
        }
    }

    /// Tick 0.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

impl Default for TimedClock {
    fn default() -> Self {
        TimedClock::new()
    }
}

impl Clock for TimedClock {
    fn now(&self) -> SimTime {
        let now = Instant::now();
        LAST_CLOCK_READ.with(|c| c.set(Some(now)));
        SimTime((now - self.epoch).as_micros() as u64)
    }
}
