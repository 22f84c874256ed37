//! Golden pins for every cluster cell the differential suites run
//! (`differential`, `fault_differential`, `replication_differential`,
//! `epoch_differential`, `builder_identity`, `obs_differential`).
//!
//! A *cell* is one semantic configuration: workload, seed, shard count,
//! policy, scheduling discipline, routing, fault plan and replication.
//! Each cell pins three values:
//!
//! * every shard's `report_digest`;
//! * a hash of the assignment, the cluster tallies, the merged log, the
//!   dispatcher's retry count and the replication report;
//! * a hash of the observed event stream (JSONL encoding, in replay order).
//!
//! Each cell is then run in every *variant* the differential suites claim
//! is equivalent — worker counts, epoch lengths, a quiet fault plan under
//! either failover policy, factor-1 replication, `run_unit` vs `run`,
//! with or without an observer — and every variant must reproduce the one
//! pinned value. The single-server cells of `obs_differential` are engine
//! runs, pinned by `crates/bench/tests/golden_snapshot.rs` instead.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p unit-cluster --test golden_cluster -- --nocapture --test-threads 1
//! ```

mod common;

use common::{bundle, crash_plan, sim_config, unit_base, unit_policy, DISCIPLINES};
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_cluster::{
    BackoffConfig, ClusterConfig, ClusterRunReport, FailoverPolicy, PropagationLag,
    ReplicaPlacement, ReplicationConfig, RoutingPolicy,
};
use unit_core::time::SimDuration;
use unit_faults::FaultPlan;
use unit_obs::{event_to_json, ObsEvent, Observer};
use unit_sim::report_digest;
use unit_workload::TraceBundle;

/// `(cell key, merged hash, observed-stream hash, shard digests)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, &[u64])] = &[
    ("1/s1/Imu/dual/freshness-aware", 0xfbe843c12ca7f9bd, 0xc23c031e635ba32f, &[0xfa933df7b7c69b07]),
    ("1/s1/Imu/dual/least-load", 0xfbe843c12ca7f9bd, 0xc23c031e635ba32f, &[0xfa933df7b7c69b07]),
    ("1/s1/Imu/dual/round-robin", 0xfbe843c12ca7f9bd, 0xc23c031e635ba32f, &[0xfa933df7b7c69b07]),
    ("1/s1/Imu/global/freshness-aware", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Imu/global/least-load", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Imu/global/round-robin", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Imu/qfirst/freshness-aware", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Imu/qfirst/least-load", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Imu/qfirst/round-robin", 0xbd70b12cc0d06ebd, 0xa5e87e92e1523656, &[0x53ec74681caa89da]),
    ("1/s1/Odu/dual/freshness-aware", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/dual/least-load", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/dual/round-robin", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/global/freshness-aware", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/global/least-load", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/global/round-robin", 0x6a95364eacd56036, 0x6f140f5e8a781255, &[0xb18244d1e3246ef0]),
    ("1/s1/Odu/qfirst/freshness-aware", 0xc58662ede86c2270, 0x1918d39e30ea4ba0, &[0xa0ace240ffe08f71]),
    ("1/s1/Odu/qfirst/least-load", 0xc58662ede86c2270, 0x1918d39e30ea4ba0, &[0xa0ace240ffe08f71]),
    ("1/s1/Odu/qfirst/round-robin", 0xc58662ede86c2270, 0x1918d39e30ea4ba0, &[0xa0ace240ffe08f71]),
    ("1/s1/Qmf/dual/freshness-aware", 0x2f277e25d99f7ad7, 0x38fb618cb9cabf23, &[0xd08c9b28bbeb8402]),
    ("1/s1/Qmf/dual/least-load", 0x2f277e25d99f7ad7, 0x38fb618cb9cabf23, &[0xd08c9b28bbeb8402]),
    ("1/s1/Qmf/dual/round-robin", 0x2f277e25d99f7ad7, 0x38fb618cb9cabf23, &[0xd08c9b28bbeb8402]),
    ("1/s1/Qmf/global/freshness-aware", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Qmf/global/least-load", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Qmf/global/round-robin", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Qmf/qfirst/freshness-aware", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Qmf/qfirst/least-load", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Qmf/qfirst/round-robin", 0xfafe8a5c746d4460, 0xa66957ca75c46876, &[0x808031861bdf29ac]),
    ("1/s1/Unit/dual/freshness-aware", 0x549e5fb1e20cd79d, 0xde6a493fe292ca22, &[0x5c65ae7c166ba332]),
    ("1/s1/Unit/dual/least-load", 0x549e5fb1e20cd79d, 0xde6a493fe292ca22, &[0x5c65ae7c166ba332]),
    ("1/s1/Unit/dual/round-robin", 0x549e5fb1e20cd79d, 0xde6a493fe292ca22, &[0x5c65ae7c166ba332]),
    ("1/s1/Unit/global/freshness-aware", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s1/Unit/global/least-load", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s1/Unit/global/round-robin", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s1/Unit/qfirst/freshness-aware", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s1/Unit/qfirst/least-load", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s1/Unit/qfirst/round-robin", 0xb39dfa6aec35c35c, 0xb369c61b182fb8de, &[0x8229c5e128a6210c]),
    ("1/s2/Imu/dual/freshness-aware", 0x26448505b912189c, 0x1277ac8c0fc8c7a3, &[0xfdd36c0c78415aac, 0x6fda7b68e7d2aec4]),
    ("1/s2/Imu/dual/least-load", 0x413c221a269e784a, 0x0a67b674d10b8b8f, &[0x74f42d10ec035a1d, 0xbfc4b3a3fbeb139f]),
    ("1/s2/Imu/dual/round-robin", 0xddeee401960b7c95, 0x2b344322b13a5906, &[0x1b1f6449acd880cc, 0x0725a4844884bdc8]),
    ("1/s2/Imu/global/freshness-aware", 0xdcef5dc649365dda, 0xe34c4456fee0747f, &[0x9f61603be52d21c6, 0x0058f98023f71fff]),
    ("1/s2/Imu/global/least-load", 0x7cbbf634ec710c44, 0x7ee25961993112ee, &[0x3ba49b2b0cc03e6c, 0x58357a8bf7b10831]),
    ("1/s2/Imu/global/round-robin", 0x8842b37abaf3b8d7, 0x1a838f7570082d74, &[0xa55749116a36505d, 0xdb1ce64d5ebdb8f0]),
    ("1/s2/Imu/qfirst/freshness-aware", 0xdcef5dc649365dda, 0xe34c4456fee0747f, &[0x9f61603be52d21c6, 0x0058f98023f71fff]),
    ("1/s2/Imu/qfirst/least-load", 0x7cbbf634ec710c44, 0x7ee25961993112ee, &[0x3ba49b2b0cc03e6c, 0x58357a8bf7b10831]),
    ("1/s2/Imu/qfirst/round-robin", 0x8842b37abaf3b8d7, 0x1a838f7570082d74, &[0xa55749116a36505d, 0xdb1ce64d5ebdb8f0]),
    ("1/s2/Odu/dual/freshness-aware", 0x63693ac64d629793, 0xafad87ed8012e2ca, &[0xb3b3c8c04edcacf3, 0x30b941ccca6dfb7c]),
    ("1/s2/Odu/dual/least-load", 0xc8eb45eb3802b01a, 0xe69c8d4b4aeefe69, &[0xb0428c12283ccec2, 0xc919a1f4bc784b74]),
    ("1/s2/Odu/dual/round-robin", 0x5ae9179853acac5b, 0xbf5252c7fafa1306, &[0xa61f433fb7e3e01c, 0x75c1ed4f988a56c5]),
    ("1/s2/Odu/global/freshness-aware", 0x63693ac64d629793, 0xafad87ed8012e2ca, &[0xb3b3c8c04edcacf3, 0x30b941ccca6dfb7c]),
    ("1/s2/Odu/global/least-load", 0xc8eb45eb3802b01a, 0xe69c8d4b4aeefe69, &[0xb0428c12283ccec2, 0xc919a1f4bc784b74]),
    ("1/s2/Odu/global/round-robin", 0x5ae9179853acac5b, 0xbf5252c7fafa1306, &[0xa61f433fb7e3e01c, 0x75c1ed4f988a56c5]),
    ("1/s2/Odu/qfirst/freshness-aware", 0xc1d723b51b95f594, 0xf387b9e28ca844e8, &[0x0ac60389ef1eee46, 0x9865412b27c6964b]),
    ("1/s2/Odu/qfirst/least-load", 0x19c3cd643f4b82fa, 0x8336531af134a40a, &[0x8482f4066ef8e1c2, 0x6e4e378404c64e9f]),
    ("1/s2/Odu/qfirst/round-robin", 0xc0555217d946bee4, 0x785207247467220a, &[0x259df8b71c299a68, 0x9e6a35567d436ce7]),
    ("1/s2/Qmf/dual/freshness-aware", 0x7930f14252f03471, 0xd13c4a1f2a25cf08, &[0x84a7a681aed6aa60, 0x3f3cac3eb07444e7]),
    ("1/s2/Qmf/dual/least-load", 0xbb1db1d3187dbbb7, 0xa27336efdbf701fb, &[0x12440b419a8a8f1e, 0xe6084f0ff2febe6d]),
    ("1/s2/Qmf/dual/round-robin", 0x54ef736d11e88cf3, 0xb344a7445b798bbd, &[0x8e80cd9b5d8a03de, 0x16bc9bcaf3e574de]),
    ("1/s2/Qmf/global/freshness-aware", 0x0579890fb47b39fa, 0x2b383966a42fbe4b, &[0xb5ac4bd0b086b20b, 0x12f5eb146d174c1a]),
    ("1/s2/Qmf/global/least-load", 0x570fe89c11b67dd8, 0xb71b4b2236ec6b40, &[0x33d1cfc1006638b8, 0x0423bc3aa3ed35cf]),
    ("1/s2/Qmf/global/round-robin", 0x5fae3451473c9c63, 0x596ce0b462b34009, &[0x51c66d5fd9b65ac6, 0x2807fe2051db0b9c]),
    ("1/s2/Qmf/qfirst/freshness-aware", 0x0579890fb47b39fa, 0x2b383966a42fbe4b, &[0xb5ac4bd0b086b20b, 0x12f5eb146d174c1a]),
    ("1/s2/Qmf/qfirst/least-load", 0x570fe89c11b67dd8, 0xb71b4b2236ec6b40, &[0x33d1cfc1006638b8, 0x0423bc3aa3ed35cf]),
    ("1/s2/Qmf/qfirst/round-robin", 0x5fae3451473c9c63, 0x596ce0b462b34009, &[0x51c66d5fd9b65ac6, 0x2807fe2051db0b9c]),
    ("1/s2/Unit/dual/freshness-aware", 0x457237bdea97fc88, 0x1b7bc94ae2446f4e, &[0x5080777cedd37eca, 0xfe07492c00f59c3b]),
    ("1/s2/Unit/dual/freshness-aware+Replication", 0xcf6e775c48e8f6cb, 0x8c968413dc5915ae, &[0xa4a4b0a7cde51148, 0xeef09ecf36284a66]),
    ("1/s2/Unit/dual/least-load", 0x78479f6d598d3920, 0x155779504424af82, &[0x41f4bd1f356b2490, 0xb1a800f529635019]),
    ("1/s2/Unit/dual/least-load+Replication", 0xedff2c552e2dcbf3, 0xf496cef63b68ff64, &[0x48952a9aeb55a0e3, 0xaae8e25a8a8383f9]),
    ("1/s2/Unit/dual/round-robin", 0x8b8d9ac46d33e1cb, 0x692425ffb5d033d5, &[0x7a2afa4ad5b6e4af, 0xb5fedfa1a4ef8e6e]),
    ("1/s2/Unit/dual/round-robin+Replication", 0xe1c85fca77544e41, 0xb807a1dd3bb8ba18, &[0x5fa6e50b6f058e85, 0x06fb3e663aa6317e]),
    ("1/s2/Unit/global/freshness-aware", 0x0bc3e7290a8c9bb2, 0x3484682adeed7386, &[0x2171447b8b26a4b6, 0xe9c255aa9c4d9613]),
    ("1/s2/Unit/global/least-load", 0x60e6ad6bc836c666, 0x3101a5059f812eb3, &[0xab2bb64635a2554d, 0x66798d06e690724d]),
    ("1/s2/Unit/global/round-robin", 0x4c351b3443906a9a, 0x23ed2e2965cc57ea, &[0x07a55ee242ee7ec5, 0x028771baf12f6bc9]),
    ("1/s2/Unit/qfirst/freshness-aware", 0x0bc3e7290a8c9bb2, 0x3484682adeed7386, &[0x2171447b8b26a4b6, 0xe9c255aa9c4d9613]),
    ("1/s2/Unit/qfirst/least-load", 0x60e6ad6bc836c666, 0x3101a5059f812eb3, &[0xab2bb64635a2554d, 0x66798d06e690724d]),
    ("1/s2/Unit/qfirst/round-robin", 0x4c351b3443906a9a, 0x23ed2e2965cc57ea, &[0x07a55ee242ee7ec5, 0x028771baf12f6bc9]),
    ("1/s3/Unit/dual/freshness-aware", 0xcd2b45f884937010, 0x884136dd7b01ce1a, &[0xeb533c6dbb4e5869, 0xa0f7e915be9ee49b, 0x61d2f2a9d7bcba8d]),
    ("1/s3/Unit/dual/least-load", 0xe6f955400186566a, 0x9a4c85bbf7e85132, &[0xc0c3d98e2c27a36d, 0x067e00ab8d432841, 0xa218836197e8944c]),
    ("1/s3/Unit/dual/round-robin", 0x43e565d0aa36e91b, 0x955ba51bdddee62a, &[0xa103a04ac31dab7c, 0x96634d4a53cc9a7b, 0xa05019e75b9dfacd]),
    ("1/s3/Unit/dual/round-robin+Obs", 0x1dbb637fd6cd1bc8, 0x9d43916eaa5e8525, &[0x5a477245c9492961, 0x65016605a8ccf74c, 0xc2ca3d6bb8779379]),
    ("1/s4/Unit/dual/freshness-aware+rep2", 0xbc9e653d0ee43937, 0xd586362ba419b730, &[0x78f9b01c8edac4c5, 0xf74dd0499648c36c, 0xd47c73b153921bea, 0x681cb593d5ef431d]),
    ("1/s4/Unit/dual/least-load+rep2", 0xbc6068c43d03aef2, 0x6eea101bf841dca1, &[0x117c9f13a4bf3829, 0xe898777d8bfdc218, 0x5ef9819965f3cdc8, 0x9c94078cd80a6311]),
    ("1/s4/Unit/dual/round-robin+rep2", 0xd7e68363bcb2025f, 0x675aa25898cfba09, &[0x6792cd4f1e08a75c, 0xf2c1265e042d3906, 0xd6c16427fd34fade, 0x30e6570d219013cf]),
    ("1/s8/Unit/dual/freshness-aware", 0x74eaf49f640eb76a, 0x16f690e2c9dbf7ab, &[0x1624a8c2e21f98e0, 0x77f78e725f6182b3, 0x56bd286f0e7e5210, 0xba2e235bfd81f613, 0xd08dab8db6d5d29f, 0xc41e6dc5f6a738d7, 0xde78910afe2fc8c0, 0x6b57f93b66f49877]),
    ("1/s8/Unit/dual/least-load", 0x6101d4e9568bc762, 0x78d1d689452ff176, &[0xd595c77b60853e82, 0x44d709f68159256e, 0x5b307d36d56493f8, 0x6fe0b893cba23af1, 0x16b320e88fd8b207, 0xbb1f679649047d41, 0x3360a9b866c47a53, 0xe2b3b4b196f07f17]),
    ("1/s8/Unit/dual/round-robin", 0x43d9f894ea6f01b7, 0x76cb7c96b7095421, &[0xa9551d3f2cb41365, 0x6ec68cc4648e9d61, 0xa93820536564e3ad, 0x8d1a7264fdb0ee2e, 0x9bab3651b223e930, 0x8a44472526fbfff6, 0x38263a3d1613e019, 0x9db53cc7ee9741ef]),
    ("2/s1/Unit/dual/freshness-aware", 0xcd88f2edb8989a8a, 0xdabe16c07ebedd75, &[0x968cf9d78670be28]),
    ("2/s1/Unit/dual/least-load", 0xcd88f2edb8989a8a, 0xdabe16c07ebedd75, &[0x968cf9d78670be28]),
    ("2/s1/Unit/dual/round-robin", 0xcd88f2edb8989a8a, 0xdabe16c07ebedd75, &[0x968cf9d78670be28]),
    ("2/s4/Unit/dual/freshness-aware", 0xc99eaf76af08ef0b, 0xcb62d4ad35b35fb4, &[0x8c924449b08d61a0, 0x6fd63daf870ccb77, 0x349c2e56c026644b, 0x2df1bca6cce65702]),
    ("2/s4/Unit/dual/least-load", 0x589d3516184e8a2f, 0x3cdf3c2e6409cd6a, &[0xa3fc53b224455ced, 0x417f1fb25cda1cb0, 0x195097848cd8f025, 0x5ac495753d735deb]),
    ("2/s4/Unit/dual/round-robin", 0xcc5c26c380b554f1, 0x4fcba8441df82201, &[0xabee1bce3bd5fbd0, 0xe8f8940f9f60a11f, 0x3bfeb3d75be61d3e, 0xb28404df8fda6317]),
    ("2/s4/Unit/dual/round-robin+Epoch", 0xc13c4c19f6f6382e, 0x331012fe69c91849, &[0x7f3bcbe19fca7208, 0x51ec33aa03a8aac2, 0x3a6cec21af5e509d, 0x32a11ea53d989f45]),
    ("2/s8/Unit/dual/round-robin", 0x6f38eaacc39fa638, 0x1e9d67357abac0de, &[0xfa06da5fc3b1fed3, 0x835e171af8a06581, 0x01760f1a7ea16290, 0x8d7badcc2016426c, 0x3f6818c1a8c6d825, 0x8a8788e4bf7f6823, 0x2a4f881cdd9a75e2, 0x3cc4a28e1af87a16]),
    ("2/s8/Unit/dual/round-robin+filtered", 0x8f58ff5dd93953dc, 0x6bba711a2eb99328, &[0x7ce6d4e73a683891, 0xc3b4fd7364bdab32, 0x3977d91fecf9ae42, 0x3357d44046453ed3, 0xc5276cf6d353b5c9, 0x312fb62c54ef9d49, 0x7a13d4a589a35d32, 0xe790c727f8d5654e]),
    ("5/s3/Unit/dual/freshness-aware", 0x4a323e995dc49c32, 0x9c3e74c947db65f5, &[0x3912328e849c7698, 0x404f0929d8bfedbc, 0xffcfec6ee365b325]),
    ("5/s3/Unit/dual/least-load", 0xa7ad0d0089d86542, 0x039be0edb2e4674f, &[0xafd6566d4763b5ea, 0x9ab92dd0c0ef29fe, 0xf3812a083bb9b6ff]),
    ("5/s3/Unit/dual/round-robin", 0xdc394c62faa9439b, 0x1afa70d77c394a1b, &[0x8775c2792f7e5a30, 0xf1595eb47cd04472, 0xae551ae0c6a82d9c]),
    ("5/s3/Unit/dual/round-robin+Builder", 0x9eed573cfa92e1eb, 0xd79fae745039fdb5, &[0x21982ec0d9fd1626, 0x6991ff0c558c954a, 0x45d84e782a6dd6e5]),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pol {
    Imu,
    Odu,
    Qmf,
    Unit,
}

/// A crash plan, by the suite that builds it: `(name, items (0: the
/// trace's), rate, mean window seconds)`, one schedule per shard.
type Plan = (&'static str, usize, f64, u64);
const REPLICATION_PLAN: Plan = ("Replication", 0, 0.2, 400);
const EPOCH_PLAN: Plan = ("Epoch", 0, 0.2, 2_000);
const BUILDER_PLAN: Plan = ("Builder", 100, 0.2, 40);
const OBS_PLAN: Plan = ("Obs", 100, 0.25, 60);

const SEED_A: u64 = 0x5EED_0001;
const SEED_EPOCH: u64 = 0x5EED_0002;
const SEED_BUILDER: u64 = 0x5EED_0005;

/// One semantic configuration; its base run uses `cfg` as is.
#[derive(Debug, Clone, Copy)]
struct Cell {
    cfg: ClusterConfig,
    policy: Pol,
    discipline: usize,
    plan: Option<Plan>,
}

/// How a variant runs its config.
#[derive(Debug, Clone, Copy, PartialEq)]
enum How {
    Plain,
    /// Under `FaultPlan::quiet` with this failover policy.
    Quiet(FailoverPolicy),
    /// Through `run_unit` instead of the generic `run`.
    Sugar,
    Observed,
}

/// One way of running a cell that must not change its outcome.
type Variant = (ClusterConfig, How);

/// UNIT on `shards` shards under the paper's discipline, fault-free.
fn cell(seed: u64, shards: usize, routing: RoutingPolicy) -> Cell {
    let cfg = ClusterConfig::new(shards)
        .with_routing(routing)
        .with_seed(seed);
    Cell {
        cfg,
        policy: Pol::Unit,
        discipline: 0,
        plan: None,
    }
}

impl Cell {
    fn key(&self) -> String {
        let (c, policy) = (&self.cfg, self.policy);
        let (seed, shards, routing) = (c.seed & 0xF, c.n_shards, c.routing.name());
        let discipline = DISCIPLINES[self.discipline].1;
        let mut key = format!("{seed:x}/s{shards}/{policy:?}/{discipline}/{routing}");
        if let Some((name, ..)) = self.plan {
            key += &format!("+{name}");
        }
        if let Some(rep) = c.replication {
            key += &format!("+rep{}", rep.factor);
        }
        if c.filter_updates {
            key += "+filtered";
        }
        key
    }
}

/// FNV-1a, as `report_digest` uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Hashes every replayed event's JSONL encoding, in arrival order.
impl Observer for Fnv {
    fn on_event(&mut self, event: &ObsEvent) {
        self.bytes(event_to_json(event).as_bytes());
        self.bytes(b"\n");
    }
}

/// Hash of the assignment, tallies, retries, merged log and replication
/// report.
fn merged_hash(report: &ClusterRunReport) -> u64 {
    let (n, log, retries) = match report {
        ClusterRunReport::Plain(r) => (r.counts, &r.log, 0),
        ClusterRunReport::Faulty(r) => (r.counts, &r.log, r.total_retries()),
    };
    let c = report.cluster();
    let mut words = vec![c.assignment.len() as u64];
    words.extend(c.assignment.iter().map(|&s| s as u64));
    words.extend([
        n.success,
        n.rejected,
        n.deadline_miss,
        n.data_stale,
        retries,
    ]);
    words.push(log.len() as u64);
    for r in log {
        words.extend([r.time.0, r.shard as u64, r.seq, r.query.0, r.outcome as u64]);
    }
    if let Some(rep) = &c.replication {
        for r in &rep.routes {
            let (s, items) = (r.shard as u64, r.follower_items.into());
            words.extend([r.time.0, r.query.0, s, items, r.claimed_transit]);
        }
        for p in &rep.promotions {
            words.extend([p.time.0, p.item.0.into(), p.from as u64, p.to as u64]);
        }
        for r in &rep.propagation {
            let (item, lead, follow) = (r.item.0.into(), r.leader as u64, r.follower as u64);
            words.extend([r.time.0, item, lead, follow, r.version, r.emitted.0]);
        }
    }
    let mut h = Fnv::new();
    words.iter().for_each(|w| h.bytes(&w.to_le_bytes()));
    h.0
}

/// Run `cell` as `v`: `(shard digests, merged hash)` and, when observed,
/// the stream hash.
fn run(bundle: &TraceBundle, cell: &Cell, (cfg, how): Variant) -> ((Vec<u64>, u64), Option<u64>) {
    let shards = cell.cfg.n_shards;
    let plan = cell.plan.map(|(_, items, rate, secs)| {
        let items = if items == 0 {
            bundle.trace.n_items
        } else {
            items
        };
        crash_plan(bundle.horizon, items, shards, rate, secs)
    });
    let quiet = FaultPlan::quiet(shards);
    let faults = match (&plan, how) {
        (Some(plan), _) => Some((plan, FailoverPolicy::Backoff(BackoffConfig::default()))),
        (None, How::Quiet(failover)) => Some((&quiet, failover)),
        (None, _) => None,
    };
    let sim = sim_config(bundle.horizon).with_discipline(DISCIPLINES[cell.discipline].0);
    let mut obs = Fnv::new();
    let mut builder = cfg.build();
    if let Some((plan, failover)) = faults {
        builder = builder.with_faults(plan, failover);
    }
    if how == How::Observed {
        builder = builder.with_observer(&mut obs);
    }
    let trace = &bundle.trace;
    let report = match cell.policy {
        _ if how == How::Sugar => builder.run_unit(trace, sim, &unit_base()),
        Pol::Imu => builder.run(trace, sim, |_, _| ImuPolicy::new()),
        Pol::Odu => builder.run(trace, sim, |_, _| OduPolicy::new()),
        Pol::Qmf => builder.run(trace, sim, |_, _| QmfPolicy::default()),
        Pol::Unit => builder.run(trace, sim, |_, seed| unit_policy(seed)),
    }
    .expect("valid cluster config");
    let faulty = matches!(report, ClusterRunReport::Faulty(_));
    assert_eq!(
        faulty,
        faults.is_some(),
        "the report variant follows the builder"
    );
    let digests = report.cluster().shard_reports.iter().map(report_digest);
    let pin = (digests.collect(), merged_hash(&report));
    (pin, (how == How::Observed).then_some(obs.0))
}

/// Run every variant of every cell (plus one observed run each) and check
/// them against the pins, or print fresh pins under `GOLDEN_PRINT`.
fn check(bundle: &TraceBundle, cells: &[(Cell, Vec<Variant>)]) {
    let print = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut failures = Vec::new();
    for (cell, variants) in cells {
        let key = cell.key();
        let (base, _) = run(bundle, cell, (cell.cfg, How::Plain));
        let (pin, stream) = run(bundle, cell, (cell.cfg, How::Observed));
        let stream = stream.unwrap_or_default();
        if pin != base {
            failures.push(format!("{key}: observing the run changed it"));
        }
        for &v in variants {
            let (pin, obs) = run(bundle, cell, v);
            if pin != base || obs.is_some_and(|o| o != stream) {
                failures.push(format!("{key}: variant {v:?} diverged"));
            }
        }
        let digests: Vec<String> = base.0.iter().map(|d| format!("{d:#018x}")).collect();
        let (merged, digests) = (base.1, digests.join(", "));
        let line = format!("(\"{key}\", {merged:#018x}, {stream:#018x}, &[{digests}]),");
        if print {
            println!("    {line}");
            continue;
        }
        match GOLDEN.iter().find(|g| g.0 == key) {
            Some(&(_, m, o, s)) if (s, m, o) == (&base.0, merged, stream) => {}
            Some(_) => failures.push(format!("{key}: diverged from its pin; now {line}")),
            None => failures.push(format!("{key}: no golden entry")),
        }
    }
    let failures = failures.join("\n");
    assert!(
        failures.is_empty(),
        "cells diverged from their pins:\n{failures}"
    );
}

/// Every policy × discipline × routing on `shards` shards.
fn matrix(shards: usize) -> impl Iterator<Item = Cell> {
    let policies = [Pol::Imu, Pol::Odu, Pol::Qmf, Pol::Unit];
    let pairs = policies
        .into_iter()
        .flat_map(|p| (0..3).map(move |d| (p, d)));
    pairs.flat_map(move |(policy, discipline)| {
        RoutingPolicy::ALL.map(|routing| Cell {
            policy,
            discipline,
            ..cell(SEED_A, shards, routing)
        })
    })
}

/// `differential`: 1-shard clusters, every policy × discipline × routing,
/// and the 8-shard completion smoke.
#[test]
fn differential_cells_match_their_pins() {
    let eight = RoutingPolicy::ALL.map(|routing| cell(SEED_A, 8, routing));
    let cells: Vec<_> = matrix(1).chain(eight).map(|c| (c, Vec::new())).collect();
    check(&bundle(8), &cells);
}

/// `fault_differential` and `replication_differential`: 2-shard clusters,
/// each run plain, under a quiet plan, and with factor-1 replication.
#[test]
fn two_shard_cells_match_their_pins() {
    let lag = PropagationLag::jittered(SimDuration::from_secs(30), SimDuration::from_secs(90), 4);
    let strided = ReplicaPlacement::Strided { stride: 3 };
    let one = ReplicationConfig::new(1);
    let backoff = How::Quiet(FailoverPolicy::Backoff(BackoffConfig::default()));
    let cells = matrix(2).map(|c| {
        let mut variants = vec![(c.cfg, backoff)];
        for rep in [one, one.with_placement(strided).with_lag(lag)] {
            for w in [0, 1] {
                variants.push((c.cfg.with_workers(w).with_replication(rep), How::Plain));
            }
        }
        if c.policy == Pol::Unit {
            let one_worker = c.cfg.with_workers(1);
            variants.push((one_worker, How::Plain));
            variants.push((one_worker, How::Quiet(FailoverPolicy::NoRetry)));
        }
        if (c.policy, c.discipline, c.cfg.routing) == (Pol::Unit, 0, RoutingPolicy::FreshnessAware)
        {
            for (secs, w) in [(97, 0), (97, 2), (1_000, 0), (1_000, 2)] {
                let epoch = c.cfg.with_epoch(SimDuration::from_secs(secs));
                variants.push((epoch.with_workers(w).with_replication(one), How::Plain));
            }
        }
        (c, variants)
    });
    check(&bundle(8), &cells.collect::<Vec<_>>());
}

/// `replication_differential`: factor 1 under a crashing plan, and real
/// factor-2 replication with jittered lag.
#[test]
fn replication_cells_match_their_pins() {
    let lag = PropagationLag::jittered(SimDuration::from_secs(60), SimDuration::from_secs(120), 4);
    let mut cells = Vec::new();
    for routing in RoutingPolicy::ALL {
        let faulty = Cell {
            plan: Some(REPLICATION_PLAN),
            ..cell(SEED_A, 2, routing)
        };
        let factor_one = faulty.cfg.with_replication(ReplicationConfig::new(1));
        let variants = [0, 1].map(|w| (factor_one.with_workers(w), How::Plain));
        cells.push((faulty, variants.into()));
        let mut replicated = cell(SEED_A, 4, routing);
        let rep = ReplicationConfig::new(2).with_lag(lag);
        replicated.cfg = replicated.cfg.with_replication(rep);
        let variants = vec![(replicated.cfg.with_workers(1), How::Plain)];
        cells.push((replicated, variants));
    }
    check(&bundle(8), &cells);
}

/// `epoch_differential`: every epoch × worker count, with faults, with an
/// observer, and the filtered-slicing pair.
#[test]
fn epoch_cells_match_their_pins() {
    let bundle = bundle(8);
    let secs = SimDuration::from_secs;
    let mut cells = Vec::new();
    for routing in RoutingPolicy::ALL {
        for shards in [1, 4] {
            let c = cell(SEED_EPOCH, shards, routing);
            let mut variants = Vec::new();
            for e in [secs(10), secs(1_000), bundle.horizon] {
                let cfg = c.cfg.with_epoch(e);
                variants.extend([1, 2, 0].map(|w| (cfg.with_workers(w), How::Plain)));
            }
            if routing == RoutingPolicy::RoundRobin {
                let e = c.cfg.with_epoch(secs(if shards == 1 { 50 } else { 100 }));
                variants.extend([(e, How::Plain), (e, How::Observed)]);
            }
            cells.push((c, variants));
        }
    }
    let rr = RoutingPolicy::RoundRobin;
    let faulty = Cell {
        plan: Some(EPOCH_PLAN),
        ..cell(SEED_EPOCH, 4, rr)
    };
    let e = faulty.cfg.with_epoch(secs(100));
    let variants = [1, 0].map(|w| (e.with_workers(w), How::Plain));
    cells.push((faulty, variants.into()));
    let plain = cell(SEED_EPOCH, 8, rr);
    let mut filtered = plain;
    filtered.cfg = filtered.cfg.with_filtered_updates();
    cells.extend([(plain, Vec::new()), (filtered, Vec::new())]);
    check(&bundle, &cells);
}

/// `builder_identity` (`run_unit` vs `run`, scale 16) and the cluster
/// cells of `obs_differential` (any worker count, with or without faults).
#[test]
fn builder_and_observer_cells_match_their_pins() {
    let rr = RoutingPolicy::RoundRobin;
    let builder_faulty = Cell {
        plan: Some(BUILDER_PLAN),
        ..cell(SEED_BUILDER, 3, rr)
    };
    let builder = RoutingPolicy::ALL.map(|routing| cell(SEED_BUILDER, 3, routing));
    let cells: Vec<_> = (builder.into_iter().chain([builder_faulty]))
        .map(|c| (c, vec![(c.cfg, How::Sugar)]))
        .collect();
    check(&bundle(16), &cells);
    let obs_faulty = Cell {
        plan: Some(OBS_PLAN),
        ..cell(SEED_A, 3, rr)
    };
    let observed = RoutingPolicy::ALL.map(|routing| cell(SEED_A, 3, routing));
    let mut cells: Vec<_> = (observed.into_iter())
        .map(|c| (c, vec![(c.cfg.with_workers(1), How::Observed)]))
        .collect();
    cells.push((obs_faulty, Vec::new()));
    check(&bundle(8), &cells);
}
