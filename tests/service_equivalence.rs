//! Property test: time-sliced resident execution is invisible.
//!
//! For random service fleets — home counts, fleet seeds, arrival rates,
//! horizons, burst windows, epoch lengths, worker counts, stealing
//! on/off and resident-budget choices — the resident time-sliced runner
//! (`run_service_with`) must reproduce the batch run-to-completion
//! fleet driver (`run_fleet`) byte for byte: same per-home
//! `RunCounters` (outcomes, latencies, digests) and the same fleet
//! digest. Slicing a home's timeline at arbitrary epoch boundaries,
//! interleaving it with its shard neighbours, running its slices on
//! thieving workers, or parking its controller between slices
//! (eviction) must never change which events it sees or in what order.

use proptest::prelude::*;

use safehome::harness::{run_fleet, run_service_with, ServiceConfig};
use safehome::prelude::*;
use safehome::workloads::{
    service_home, skewed_service_home, FleetTemplate, ServiceParams, SkewParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resident_sliced_run_matches_batch_fleet(
        homes in 2usize..8,
        fleet_seed in any::<u64>(),
        rate in 20u64..150,
        horizon_mins in 10u64..45,
        bursts in 0usize..3,
        epoch_choice in 0usize..4,
        workers in 1usize..5,
        steal in any::<bool>(),
        budget_choice in 0usize..4,
    ) {
        // From sub-event-grain slicing to epochs spanning many arrivals.
        let epoch_ms = [1u64, 777, 10_000, 300_000][epoch_choice];
        // No budget, evict-everything, and two partial budgets: random
        // evict points relative to each home's arrival clusters.
        let max_resident = [None, Some(0), Some(2), Some(5)][budget_choice];
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let params = ServiceParams::new(TimeDelta::from_mins(horizon_mins), rate)
            .with_bursts_from_seed(fleet_seed, bursts);
        let make_spec = |_: usize, seed: u64| service_home(&template, &params, seed);

        let batch = run_fleet(homes, 1, fleet_seed, make_spec);
        let mut config = ServiceConfig::new(TimeDelta::from_millis(epoch_ms)).with_steal(steal);
        config.max_resident = max_resident;
        let resident = run_service_with(homes, workers, fleet_seed, config, make_spec);

        prop_assert_eq!(batch.homes.len(), resident.homes.len());
        for (b, r) in batch.homes.iter().zip(&resident.homes) {
            prop_assert_eq!(b.home, r.home);
            prop_assert_eq!(b.seed, r.seed);
            prop_assert_eq!(b.completed, r.completed);
            prop_assert_eq!(
                &b.counters, &r.counters,
                "home {} diverged under slicing (epoch {}ms, {} workers, \
                 steal {}, budget {:?})",
                b.home, epoch_ms, workers, steal, max_resident
            );
        }
        prop_assert_eq!(batch.digest(), resident.digest());

        // The histogram drains exactly the finished routines — through
        // evict/resume cycles too (the parked sink keeps its latency
        // vector, so the drain cursor must stay consistent).
        let raw: u64 = batch
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        prop_assert_eq!(resident.latency.count(), raw);

        // Eviction may only ever shrink residency, never change work.
        if max_resident.is_none() {
            prop_assert_eq!(resident.evictions, 0);
            prop_assert_eq!(resident.peak_resident_homes, homes);
        }
    }

    #[test]
    fn skewed_fleet_is_steal_and_eviction_invariant(
        fleet_seed in any::<u64>(),
        heavy in 1usize..4,
        multiplier in 2u64..7,
        workers in 1usize..5,
        steal in any::<bool>(),
        budget_choice in 0usize..3,
    ) {
        // The bench's skewed shape at property-test scale: heavy homes
        // contiguous at the fleet front, stealing and eviction toggled
        // freely — per-home results must match the batch driver always.
        let homes = 6usize;
        let max_resident = [None, Some(0), Some(2)][budget_choice];
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let skew = SkewParams::new(
            ServiceParams::new(TimeDelta::from_mins(20), 40)
                .with_bursts_from_seed(fleet_seed, 1),
            heavy,
            multiplier,
        );
        let make_spec = |home: usize, seed: u64| skewed_service_home(&template, &skew, home, seed);

        let batch = run_fleet(homes, 1, fleet_seed, make_spec);
        let mut config = ServiceConfig::new(TimeDelta::from_secs(10)).with_steal(steal);
        config.max_resident = max_resident;
        let resident = run_service_with(homes, workers, fleet_seed, config, make_spec);

        prop_assert_eq!(&batch.homes, &resident.homes);
        prop_assert_eq!(batch.digest(), resident.digest());
    }
}
