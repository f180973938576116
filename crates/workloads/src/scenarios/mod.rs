//! Trace-based scenario benchmarks (§7.2).
//!
//! The paper distilled two years of Google Home traces from three real
//! homes, 147 SmartThings apps and 35 IoTBench OpenHAB apps into three
//! representative benchmarks; these modules implement them from the
//! published description:
//!
//! - [`morning`](mod@morning): 4 family members, 31 devices, 29 routines
//!   over ~25 minutes, with real-life ordering constraints (wake-up
//!   before breakfast, leave-home last);
//! - [`party`](mod@party): one long atmosphere routine spanning the whole
//!   run plus 11 spontaneous routines (singing, announcements, serving);
//! - [`factory`](mod@factory): a 50-stage assembly line where each stage's routine
//!   touches local devices (p=0.6), devices shared with neighbouring
//!   stages (p=0.3) and 5 global devices (p=0.1), with every worker kept
//!   busy (closed loop).
//!
//! Beyond the paper, [`neighborhood`] scales the morning scenario to a
//! *fleet* axis: clusters of homes share a correlated hub outage
//! (fail-stop or fail-slow), drawn from the fleet seed, and [`crash`]
//! adds the durability axis: a seeded controller crash mid-run, with
//! journal-replay recovery onto the surviving world.

pub mod annotations;
pub mod crash;
pub mod factory;
pub mod morning;
pub mod neighborhood;
pub mod party;
pub mod service;

pub use annotations::expected_diagnostics;
pub use crash::{crash_index, crash_recovery, run_uncrashed, run_with_crash, CrashRecoveryRun};
pub use factory::factory;
pub use morning::{fleet_morning, morning, FleetTemplate};
pub use neighborhood::{neighborhood_home, NeighborhoodParams, NeighborhoodPlan};
pub use party::party;
pub use service::{service_home, skewed_service_home, BurstWindow, ServiceParams, SkewParams};
