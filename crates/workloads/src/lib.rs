//! Workload generators (§7.2, §7.3).
//!
//! - [`micro`]: the parameterized microbenchmark of Table 3 (R routines,
//!   ρ concurrent injectors, C commands per routine, Zipf(α) device
//!   popularity, L% long routines, must/best-effort mix, F% failed
//!   devices);
//! - [`scenarios`]: the three trace-based benchmarks distilled from real
//!   deployments — the chaotic four-user **morning**, the one-long-routine
//!   **party**, and the 50-stage **factory** assembly line.
//!
//! All generators are deterministic in the seed and produce
//! [`safehome_harness::RunSpec`]s ready to run.

pub mod micro;
pub mod scenarios;

pub use micro::MicroParams;
pub use scenarios::{
    crash_index, crash_recovery, expected_diagnostics, factory, fleet_morning, morning,
    neighborhood_home, party, run_uncrashed, run_with_crash, service_home, skewed_service_home,
    BurstWindow, CrashRecoveryRun, FleetTemplate, NeighborhoodParams, NeighborhoodPlan,
    ServiceParams, SkewParams,
};
