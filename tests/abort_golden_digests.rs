//! Golden digests for the abort-heavy path.
//!
//! `BENCH_fleet.digests.tsv` pins morning, journaled-morning and
//! neighborhood homes, all under EV, and those rarely abort. The heavy
//! homes of a skewed service fleet (60 routines/home-hour at 6x for 30
//! simulated minutes, the `service_skewed` benchmark shape) inject device
//! failures while many routines are in flight, so both EV and PSV abort
//! routines there and remove them from the serialization order. This test
//! pins the full-run `RunCounters` digest of the first 16 heavy homes
//! (fleet seed 7) under EV and under PSV, so any change to the order
//! tracker, the abort path or the models that moves a single event shows
//! up here.

use safehome::core::{EngineConfig, VisibilityModel};
use safehome::harness::{home_seed, Driver, RunSpec};
use safehome::types::sink::RunCounters;
use safehome::types::TimeDelta;
use safehome::workloads::{skewed_service_home, FleetTemplate, ServiceParams, SkewParams};

const FLEET_SEED: u64 = 7;
const FLEET_HOMES: usize = 1_920;

/// Digest, committed and aborted counts of homes `0..16` under EV.
const EV_GOLDEN: [(u64, u64, u64); 16] = [
    (0x6300668b550712f8, 198, 2),
    (0xca725d1fa1904559, 163, 23),
    (0x940c7019f6b6fef2, 203, 0),
    (0x766a9695fc7d7128, 161, 9),
    (0x758dcdf55a67249e, 191, 0),
    (0xbaf270b5681bd246, 195, 0),
    (0xbdd7b8dfd29db4a8, 169, 29),
    (0xa211d4afd632b8cd, 185, 0),
    (0xb68ebd05ed48207a, 194, 0),
    (0x8a694b9eff81ab4b, 185, 0),
    (0xa1373ba8b73b3c2a, 179, 0),
    (0x573a8adb64983908, 172, 0),
    (0x14b53fe9e7337c53, 172, 0),
    (0x9ed9c7cf7c43e09b, 193, 0),
    (0xf854f3228666c14c, 177, 0),
    (0x6f66e32f43fe44c0, 185, 0),
];

/// The same homes with the spec's visibility model switched to PSV.
const PSV_GOLDEN: [(u64, u64, u64); 16] = [
    (0x4b1d1e3a198aa993, 197, 3),
    (0xd074687c8941bd4f, 163, 23),
    (0x22526deb196820c0, 203, 0),
    (0x92ab3e402e40d2c7, 161, 9),
    (0x1762b29e8a3464c4, 191, 0),
    (0x59ff176e8fe97992, 195, 0),
    (0x513ca25f663d2371, 169, 29),
    (0x2ccedc0f32dd741a, 185, 0),
    (0x75d66aa8b97b6a6d, 194, 0),
    (0x2a7de6fbe9d63f84, 185, 0),
    (0x36891325412a7922, 179, 0),
    (0x10de94d2bfe4d7d6, 172, 0),
    (0x8e5375937d4eb950, 172, 0),
    (0x75c83ebb067ccb3c, 193, 0),
    (0x6c0d1f25401d8381, 177, 0),
    (0xb3e4505dedb2fe60, 185, 0),
];

fn heavy_specs() -> Vec<RunSpec> {
    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let base = ServiceParams::new(TimeDelta::from_mins(30), 60);
    let skew = SkewParams::new(base, FLEET_HOMES / 8, 6);
    (0..16)
        .map(|home| skewed_service_home(&template, &skew, home, home_seed(FLEET_SEED, home as u64)))
        .collect()
}

fn run(spec: &RunSpec) -> (u64, u64, u64) {
    let mut driver = Driver::with_sink(spec, RunCounters::new());
    assert!(driver.run_to_quiescence(), "home did not reach quiescence");
    let (counters, _, _) = driver.into_output();
    assert_eq!(
        counters.committed + counters.aborted,
        counters.submitted,
        "every offered routine finishes"
    );
    (counters.digest, counters.committed, counters.aborted)
}

fn check(model: VisibilityModel, golden: &[(u64, u64, u64); 16]) -> u64 {
    let mut aborted = 0;
    for (home, (mut spec, want)) in heavy_specs().into_iter().zip(golden).enumerate() {
        spec.config.model = model;
        let got = run(&spec);
        assert_eq!(got, *want, "{model:?} home {home}");
        aborted += got.2;
    }
    aborted
}

#[test]
fn heavy_skewed_homes_match_golden_digests_under_ev() {
    assert!(check(VisibilityModel::ev(), &EV_GOLDEN) > 0, "EV aborts");
}

#[test]
fn heavy_skewed_homes_match_golden_digests_under_psv() {
    assert!(check(VisibilityModel::Psv, &PSV_GOLDEN) > 0, "PSV aborts");
}
