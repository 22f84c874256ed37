//! Digests pinned from the parent commit of the benchmark: every
//! `sim-paper` cell and every `cluster-chaos` cell, at reduced scale for
//! the reference seed. A run fails when the program it measures no
//! longer reproduces them — a change that claims a speed-up must leave
//! every digest unchanged. Regenerate with `--print-pins` only for an
//! intended behaviour change, and say so.

use crate::{cluster_chaos, sim_paper, RunResult};
use unit_bench::PolicyKind;
use unit_sim::report_digest;

/// Seed the pins were taken at.
pub const REFERENCE_SEED: u64 = 0;
/// Workload divisor of the pinned runs.
pub const SCALE: u64 = 16;

/// `sim-paper` cells, in matrix order (trace-major, policies IMU, ODU,
/// QMF, UNIT).
pub const SIM: [u64; 12] = [
    0x0adc_3554_0c39_2010,
    0x8aea_9472_396e_9875,
    0x0eab_7168_11fd_bd75,
    0xf4f0_0a36_0b5b_975c,
    0x0f8a_e87c_5349_4543,
    0xaaf4_b858_094c_a1e0,
    0xa4a2_f4e2_536b_94fe,
    0x9936_0405_0de9_d033,
    0xf40b_f2bd_c8b1_2d26,
    0xb38b_1c05_a3d2_8dff,
    0x620b_809d_b30d_ab66,
    0x8634_890e_1dea_71f9,
];

/// `cluster-chaos` cells: plain, chaos, observed.
pub const CLUSTER: [u64; 3] = [
    0xe6d2_cba3_63aa_0abd,
    0x816c_1e22_5fa9_153f,
    0x816c_1e22_5fa9_153f,
];

/// The digests the program produces now, in the order of [`SIM`] and
/// [`CLUSTER`].
pub fn current() -> (Vec<u64>, Vec<u64>) {
    let m = sim_paper::setup(SCALE, REFERENCE_SEED);
    let mut sim = Vec::new();
    for b in 0..sim_paper::TRACES.len() {
        for kind in PolicyKind::ALL {
            sim.push(report_digest(
                &sim_paper::run_cell(&m, b, kind, None, None).report,
            ));
        }
    }
    let inp = cluster_chaos::setup(SCALE, REFERENCE_SEED);
    let cluster = cluster_chaos::Cell::ALL
        .iter()
        .map(|&c| {
            let mut rec = unit_obs::RingRecorder::new(1 << 10);
            cluster_chaos::run_cell(&inp, c, None, Some(&mut rec)).digest()
        })
        .collect();
    (sim, cluster)
}

/// Record a failed check for every digest that moved.
pub fn check(res: &mut RunResult) {
    let (sim, cluster) = current();
    for (i, (&got, &want)) in sim.iter().zip(&SIM).enumerate() {
        res.check(got == want, || {
            format!("sim-paper pinned cell {i}: digest {got:#018x} != {want:#018x}")
        });
    }
    for (i, (&got, &want)) in cluster.iter().zip(&CLUSTER).enumerate() {
        res.check(got == want, || {
            format!("cluster-chaos pinned cell {i}: digest {got:#018x} != {want:#018x}")
        });
    }
}
