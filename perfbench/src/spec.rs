//! The metric tables: every end-to-end and per-layer metric the
//! benchmark reports, with its unit. `BENCHMARK.json` declares the same
//! names (checked by `tests/spec.rs`); a run emits every one of them, in
//! this order, or fails.

use crate::timed::{BACKEND_OPS, HOOKS};
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("usm_per_query", "usm"),
    ("fail_ratio", "ratio"),
    ("events_per_s", "1/s"),
    ("observed_events_per_s", "1/s"),
    ("goodput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_p999_us", "us"),
];

/// Policies whose hooks the trace splits out, as named in metric names.
pub const POLICIES: [&str; 4] = ["imu", "odu", "qmf", "unit"];

/// Serving stages reported as p50/p99, with their units.
pub const SERVER_STAGES: [(&str, &str); 6] = [
    ("gen_late_us", "us"),
    ("ingress_wait_us", "us"),
    ("snapshot_ns", "ns"),
    ("execute_us", "us"),
    ("service_overrun_ns", "ns"),
    ("complete_ns", "ns"),
];

/// Per-layer metrics (traced runs): `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("workload.generate_s".into(), "s"),
        ("sim.engine.ns_per_event".into(), "ns"),
    ];
    for p in POLICIES {
        for h in HOOKS {
            m.push((format!("core.policy.{p}.{h}.calls"), "count"));
            m.push((format!("core.policy.{p}.{h}.ns_per_call"), "ns"));
        }
    }
    for (name, unit) in [
        ("sim.success_per_admit", "ratio"),
        ("sim.hp_aborts_per_query", "ratio"),
        ("sim.update_apply_ratio", "ratio"),
        ("cluster.retries_per_query", "ratio"),
        ("cluster.execute_s", "s"),
        ("cluster.critical_path_s", "s"),
        ("cluster.shard_skew", "ratio"),
        ("cluster.route_s", "s"),
        ("cluster.slice_s", "s"),
        ("cluster.merge_s", "s"),
        ("cluster.unattributed_s", "s"),
        ("obs.sink_ns_per_event", "ns"),
        ("obs.events", "count"),
        ("obs.dropped", "count"),
        ("obs.overhead_s", "s"),
    ] {
        m.push((name.into(), unit));
    }
    for (stage, unit) in SERVER_STAGES {
        m.push((format!("server.{stage}.p50"), unit));
        m.push((format!("server.{stage}.p99"), unit));
    }
    m.push(("server.worker_busy_ratio".into(), "ratio"));
    for op in BACKEND_OPS {
        m.push((format!("mem.{op}.calls"), "count"));
        m.push((format!("mem.{op}.ns_per_call"), "ns"));
    }
    for (name, unit) in [
        ("mem.errors", "count"),
        ("server.admit_ratio", "ratio"),
        ("server.miss_after_admit_ratio", "ratio"),
        ("server.update_apply_ratio", "ratio"),
        ("server.stage_records", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// Measured values by metric name. A workload fills in the metrics of
/// the layers it runs; [`Metrics::render`] reports the rest as 0 (the
/// layer did no work in this workload).
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Render the `metrics` object for `table`. Fails when a recorded
    /// name is not in the table (a typo would otherwise vanish), when an
    /// end-to-end metric is missing, or when a value is not finite.
    pub fn render(&self, table: &[(String, &str)], require_all: bool) -> Result<String, String> {
        for name in self.values.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not declared"));
            }
        }
        let mut parts = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if require_all => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// The end-to-end table in the shape [`Metrics::render`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=1) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
