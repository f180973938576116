//! The benchmark's three workloads and one timed pass of the runner each
//! one exercises.

use std::time::Instant;

use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{home_seed, run_fleet, run_service_with, HomeRun, RunSpec, ServiceConfig};
use safehome_types::TimeDelta;
use safehome_workloads::{
    service_home, skewed_service_home, FleetTemplate, ServiceParams, SkewParams,
};

/// Epoch slice length of both service workloads.
const EPOCH: TimeDelta = TimeDelta::from_secs(10);

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §7.2 morning fleet as a closed batch through `run_fleet`.
    MorningBatch,
    /// Open-loop traffic with heavy homes at the front of the fleet,
    /// through `run_service` with slice stealing.
    ServiceSkewed,
    /// Calm open-loop traffic under a resident budget of one home in
    /// eight, so journaling, eviction and replay do most of the work.
    ServiceCalmEvict,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MorningBatch,
        Workload::ServiceSkewed,
        Workload::ServiceCalmEvict,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MorningBatch => "morning_batch",
            Workload::ServiceSkewed => "service_skewed",
            Workload::ServiceCalmEvict => "service_calm_evict",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a fleet is built: `Full` for measurements, `Tiny` for the
/// benchmark's own self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Per-home traffic of a fleet.
enum Traffic {
    Morning,
    Skewed(SkewParams),
    Calm(ServiceParams),
}

/// One workload's fleet, fully determined by the workload, the seed and
/// the scale. Building it is the template and spec-parameter part of
/// set-up; homes' specs are generated inside the runner from their
/// derived seeds.
pub struct Fleet {
    /// Fleet size.
    pub homes: usize,
    /// Fleet seed (the benchmark's `--seed`).
    pub seed: u64,
    template: FleetTemplate,
    traffic: Traffic,
    /// Resident-home budget; `Some` journals every home.
    max_resident: Option<usize>,
}

impl Fleet {
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Fleet {
        let tiny = scale == Scale::Tiny;
        let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
        let (homes, traffic, max_resident) = match workload {
            Workload::MorningBatch => (if tiny { 48 } else { 10_000 }, Traffic::Morning, None),
            // No burst windows: they are fleet-wide and drawn from the
            // seed, so at this horizon they would swing the offered load
            // between seeds by more than any bound the benchmark can keep.
            Workload::ServiceSkewed => {
                let (homes, minutes) = if tiny { (16, 20) } else { (1_920, 30) };
                let base = ServiceParams::new(TimeDelta::from_mins(minutes), 60);
                let skew = SkewParams::new(base, homes / 8, 6);
                (homes, Traffic::Skewed(skew), None)
            }
            Workload::ServiceCalmEvict => {
                let (homes, minutes) = if tiny { (32, 60) } else { (2_000, 120) };
                let params = ServiceParams::new(TimeDelta::from_mins(minutes), 6);
                (homes, Traffic::Calm(params), Some(homes / 8))
            }
        };
        Fleet {
            homes,
            seed,
            template,
            traffic,
            max_resident,
        }
    }

    /// `true` when the runner journals every home (eviction is on).
    pub fn journaled(&self) -> bool {
        self.max_resident.is_some()
    }

    /// Home `home`'s spec from its derived seed: the `make_spec` closure
    /// every runner and pass calls.
    pub fn spec(&self, home: usize, home_seed: u64) -> RunSpec {
        match &self.traffic {
            Traffic::Morning => self.template.home_spec(home_seed),
            Traffic::Skewed(skew) => skewed_service_home(&self.template, skew, home, home_seed),
            Traffic::Calm(params) => service_home(&self.template, params, home_seed),
        }
    }

    /// `true` when home `home`'s spec injects device failures.
    pub fn injects_failures(&self, home: usize) -> bool {
        !self
            .spec(home, home_seed(self.seed, home as u64))
            .failures
            .is_empty()
    }

    /// Runs the whole fleet once through the workload's runner on
    /// `workers` threads, timing the runner call alone.
    pub fn run(&self, workers: usize) -> Pass {
        let make_spec = |home: usize, seed: u64| self.spec(home, seed);
        if let Traffic::Morning = self.traffic {
            let start = Instant::now();
            let result = run_fleet(self.homes, workers, self.seed, make_spec);
            let wall_s = start.elapsed().as_secs_f64();
            let steals = result.worker_stats.iter().map(|w| w.steals).sum();
            return Pass {
                wall_s,
                homes: result.homes,
                steals,
                service: None,
            };
        }
        let mut config = ServiceConfig::new(EPOCH);
        if let Some(budget) = self.max_resident {
            config = config.with_max_resident(budget);
        }
        let start = Instant::now();
        let result = run_service_with(self.homes, workers, self.seed, config, make_spec);
        let wall_s = start.elapsed().as_secs_f64();
        let service = ServiceStats {
            slices: result.slices,
            evictions: result.evictions,
            recoveries: result.recoveries,
            peak_resident_homes: result.peak_resident_homes as u64,
            resident_home_bytes: result.approx_resident_home_bytes as u64,
            evicted_home_bytes: result.approx_evicted_home_bytes as u64,
        };
        Pass {
            wall_s,
            steals: result.steals(),
            homes: result.homes,
            service: Some(service),
        }
    }
}

/// Counts a service run reports beyond its per-home results.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    pub slices: u64,
    pub evictions: u64,
    pub recoveries: u64,
    pub peak_resident_homes: u64,
    pub resident_home_bytes: u64,
    pub evicted_home_bytes: u64,
}

/// One runner call over the whole fleet.
pub struct Pass {
    /// Wall-clock seconds of the runner call.
    pub wall_s: f64,
    /// Per-home results, in home order.
    pub homes: Vec<HomeRun>,
    /// Steals across workers (scheduling-dependent).
    pub steals: u64,
    /// Service-runner counts; `None` for the batch fleet runner.
    pub service: Option<ServiceStats>,
}

impl Pass {
    /// Routines that reached a terminal outcome.
    pub fn finished(&self) -> u64 {
        self.homes
            .iter()
            .map(|h| h.counters.committed + h.counters.aborted)
            .sum()
    }
}
