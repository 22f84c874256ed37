//! The benchmark command.
//!
//! ```text
//! unit-perfbench --workload <sim-paper|cluster-chaos|serve-burst>
//!     --seed <n> --seconds <s> --trace <0|1>
//! unit-perfbench --print-pins
//! ```
//!
//! Prints one JSON record line describing the host and build, one line
//! per measured pass, and as the last line the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Exits 1 when a correctness check failed, 2 on a
//! usage error.

use std::process::ExitCode;
use unit_perfbench::{cluster_chaos, pins, serve_burst, sim_paper, spec, RunArgs, RunResult};

const USAGE: &str = "usage: unit-perfbench --workload <sim-paper|cluster-chaos|serve-burst> \
                     --seed <n> --seconds <s> --trace <0|1> | --print-pins";

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-pins" {
            let (sim, cluster) = pins::current();
            println!("pub const SIM: [u64; 12] = {sim:#018x?};");
            println!("pub const CLUSTER: [u64; 3] = {cluster:#018x?};");
            return ExitCode::SUCCESS;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or malformed flag");
    };
    let run: fn(&RunArgs) -> RunResult = match workload.as_str() {
        "sim-paper" => sim_paper::run,
        "cluster-chaos" => cluster_chaos::run,
        "serve-burst" => serve_burst::run,
        other => return usage(&format!("unknown workload {other}")),
    };
    let args = RunArgs {
        seed,
        seconds,
        trace,
    };
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"host_cores\": {cores}, \"profile\": \"{profile}\", \
         \"rustc\": \"{}\", \"git_commit\": \"{}\", \"source_digest\": \"{}\"}}}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_SOURCE_DIGEST"),
    );

    let mut res = run(&args);
    // Peak memory is read before the pin check, whose cluster cells would
    // add their own worker-thread arenas to it.
    let table = if trace {
        spec::per_layer()
    } else {
        match peak_rss_mb() {
            Some(mb) => res.metrics.set("peak_rss_mb", mb),
            None => res
                .errors
                .push("cannot read peak RSS from /proc/self/status".into()),
        }
        spec::end_to_end()
    };
    if workload != "serve-burst" {
        pins::check(&mut res);
    }
    for (i, pass) in res.passes.iter().enumerate() {
        println!("{{\"run_index\": {i}, \"pass\": {pass}}}");
    }
    let metrics = match res.metrics.render(&table, !trace) {
        Ok(m) => m,
        Err(e) => {
            res.errors.push(e);
            "{}".into()
        }
    };
    for e in &res.errors {
        eprintln!("check failed: {e}");
    }
    let correct = res.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        res.attempted.max(1),
        res.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
