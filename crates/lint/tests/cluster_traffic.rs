//! The traffic fact behind `cluster::plan`'s verdicts: every bundled
//! home generator models the paper's jittered device latency, so the
//! cluster gate declines every home they produce. If a generator ever
//! yields a splittable home, this test fails and names it.

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, RunSpec};
use safehome_lint::cluster;
use safehome_types::TimeDelta;
use safehome_workloads::{
    factory, fleet_morning, morning, party, service_home, skewed_service_home, FleetTemplate,
    MicroParams, ServiceParams, SkewParams,
};

const SEEDS: u64 = 32;

/// EV, the one model the gate can accept, so only the homes themselves
/// decide the verdict.
fn ev() -> EngineConfig {
    EngineConfig::new(VisibilityModel::ev())
}

/// Builds `SEEDS` homes as `make(home, seed)`, the way a fleet derives
/// them, and asserts the gate declines each one.
fn assert_never_splits(name: &str, make: impl Fn(usize, u64) -> RunSpec) {
    for home in 0..SEEDS {
        let seed = home_seed(0x5AFE, home);
        let spec = make(home as usize, seed);
        if let Some(p) = cluster::plan(&spec) {
            panic!(
                "{name} seed {seed:#x} splits into {} clusters: the cluster \
                 gate now admits bundled traffic",
                p.clusters.len()
            );
        }
    }
}

#[test]
fn scenario_homes_never_split() {
    assert_never_splits("morning", |_, seed| morning(ev(), seed));
    assert_never_splits("fleet_morning", |_, seed| fleet_morning(ev(), seed));
    assert_never_splits("party", |_, seed| party(ev(), seed));
    assert_never_splits("factory", |_, seed| factory(ev(), 1, seed));
    assert_never_splits("micro", |_, seed| MicroParams::default().build(ev(), seed));
}

#[test]
fn benchmark_fleet_homes_never_split() {
    // The three fleet shapes of the perfbench workloads: morning batch
    // homes, skewed open-loop homes (the first quarter heavy) and calm
    // open-loop homes.
    let template = FleetTemplate::morning(ev());
    assert_never_splits("FleetTemplate::home_spec", |_, seed| {
        template.home_spec(seed)
    });

    let skew = SkewParams::new(
        ServiceParams::new(TimeDelta::from_mins(30), 60),
        (SEEDS / 4) as usize,
        6,
    );
    assert_never_splits("skewed_service_home", |home, seed| {
        skewed_service_home(&template, &skew, home, seed)
    });

    let calm = ServiceParams::new(TimeDelta::from_mins(120), 6);
    assert_never_splits("service_home", |_, seed| {
        service_home(&template, &calm, seed)
    });
}
