//! Fleet-scheduler determinism properties.
//!
//! Work stealing must be a pure scheduling decision: for random fleet
//! sizes and seeds, `run_fleet` at 1/2/4 workers produces per-home
//! results byte-identical to driving each home alone, in order, with a
//! plain `Driver` — on the homogeneous morning fleet and on the
//! heterogeneous correlated neighborhood-outage fleet alike.

use proptest::prelude::*;
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, run_fleet, Driver, HomeRun, RunSpec};
use safehome_types::sink::RunCounters;
use safehome_workloads::{neighborhood_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan};

/// Each home driven to quiescence on this thread, in home order.
fn sequential(homes: usize, fleet_seed: u64, spec: impl Fn(usize, u64) -> RunSpec) -> Vec<HomeRun> {
    (0..homes)
        .map(|home| {
            let seed = home_seed(fleet_seed, home as u64);
            let spec = spec(home, seed);
            let mut driver = Driver::with_sink(&spec, RunCounters::new());
            let completed = driver.run_to_quiescence();
            let (counters, _, _) = driver.into_output();
            HomeRun {
                home,
                seed,
                completed,
                counters,
            }
        })
        .collect()
}

fn assert_all_equal(
    fleet_seed: u64,
    homes: usize,
    spec: impl Fn(usize, u64) -> RunSpec + Sync + Copy,
) -> Result<(), String> {
    let reference = sequential(homes, fleet_seed, spec);
    prop_assert!(reference.iter().all(|h| h.completed));
    for workers in [1usize, 2, 4] {
        let other = run_fleet(homes, workers, fleet_seed, spec).homes;
        prop_assert_eq!(
            reference.len(),
            other.len(),
            "home count ({homes} homes, seed {fleet_seed}, {workers} workers)"
        );
        for (a, b) in reference.iter().zip(&other) {
            prop_assert!(
                a == b,
                "home {} diverged ({homes} homes, seed {fleet_seed}, {workers} workers)",
                a.home
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stealing_matches_static_on_the_morning_fleet(
        homes in 1usize..20,
        fleet_seed in any::<u64>(),
    ) {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        assert_all_equal(fleet_seed, homes, |_: usize, seed: u64| template.home_spec(seed))?;
    }
}

proptest! {
    // Fewer cases: affected homes (storm centers especially) are orders
    // of magnitude more expensive to simulate — that heterogeneity is
    // the point of the scenario, but it adds up in debug-mode CI.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn stealing_matches_static_on_the_neighborhood_fleet(
        homes in 4usize..12,
        fleet_seed in any::<u64>(),
    ) {
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        // Small clusters + guaranteed outages so even tiny fleets carry
        // correlated failures (the expensive, failure-heavy path).
        let params = NeighborhoodParams {
            cluster_size: 4,
            outage_p: 0.6,
            ..NeighborhoodParams::default()
        };
        let plan = NeighborhoodPlan::generate(fleet_seed, homes, &params);
        assert_all_equal(fleet_seed, homes, |home: usize, seed: u64| {
            neighborhood_home(&template, &plan, home, seed)
        })?;
    }
}
