//! Sharded multi-home fleet driver.
//!
//! Each home's engine is fully independent state (the home is the natural
//! sharding unit), so fleet-scale throughput is embarrassingly parallel:
//! [`run_fleet`] spreads `homes` independent runs across worker threads,
//! each with its own [`Driver`], event queue and counters-only sink, and
//! collects per-home results over an `mpsc` channel.
//!
//! Scheduling is work stealing: a sharded injector of home indices (one
//! lock-free cursor per worker over a contiguous range) feeding
//! per-worker LIFO deques, with random-victim stealing once a worker's
//! own shard runs dry. Built on `std::sync` only. On heterogeneous
//! fleets (failure-heavy homes cost ~10× the events of a clean one) no
//! worker idles while another still holds a backlog.
//!
//! Determinism: a home's seed is derived only from the fleet seed and the
//! home index ([`home_seed`]), and homes never share mutable state, so
//! per-home results are byte-identical regardless of the worker-thread
//! count and to a sequential per-home [`Driver`] run — which worker runs
//! a home changes nothing about the home. [`FleetResult::worker_stats`]
//! is the only scheduling-dependent output and is excluded from every
//! determinism comparison.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use safehome_sim::SimRng;
use safehome_types::sink::{self, RunCounters};

use crate::sim::Driver;
use crate::spec::RunSpec;

/// Derives the seed for one home of a fleet (SplitMix64 over the fleet
/// seed and the home index). Stable across worker counts and releases of
/// the sharding policy.
pub fn home_seed(fleet_seed: u64, home: u64) -> u64 {
    let mut x = fleet_seed ^ home.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-worker scheduling statistics. Scheduling-dependent (unlike the
/// per-home results), so informational only: never compare these across
/// runs. Shared with the resident service runner, whose unit of work is
/// the epoch slice rather than the whole home.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Homes this worker ran (batch fleet: ran to quiescence; service:
    /// observed finishing on this worker).
    pub homes_run: usize,
    /// Successful steals: batches taken from another worker's shard
    /// cursor or deque (batch fleet), or slices popped from a victim
    /// shard's timer queue (service). Always 0 at one worker and with
    /// service stealing off.
    pub steals: u64,
    /// Epoch slices this worker executed. Always 0 for the batch fleet
    /// driver, which has no slicing.
    pub slices_run: u64,
}

/// Result of one home's run within a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeRun {
    /// The home's index in the fleet.
    pub home: usize,
    /// The home's derived seed.
    pub seed: u64,
    /// `true` when the run reached quiescence.
    pub completed: bool,
    /// The run's counters (outcomes, latencies, congruence, digest).
    pub counters: RunCounters,
}

/// Aggregated result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Per-home results, sorted by home index.
    pub homes: Vec<HomeRun>,
    /// Worker threads used.
    pub workers: usize,
    /// Per-worker scheduling statistics (informational; see
    /// [`WorkerStats`]).
    pub worker_stats: Vec<WorkerStats>,
}

impl FleetResult {
    /// Total committed routines across the fleet.
    pub fn committed(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.committed).sum()
    }

    /// Total aborted routines across the fleet.
    pub fn aborted(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.aborted).sum()
    }

    /// `true` when every home reached quiescence.
    pub fn all_completed(&self) -> bool {
        self.homes.iter().all(|h| h.completed)
    }

    /// Homes whose end states were congruent with their committed view.
    pub fn congruent_homes(&self) -> usize {
        self.homes.iter().filter(|h| h.counters.congruent).count()
    }

    /// Order-sensitive digest over the per-home digests (in home order);
    /// equal fleets produce equal digests regardless of worker count.
    pub fn digest(&self) -> u64 {
        self.homes.iter().fold(sink::DIGEST_SEED, |acc, h| {
            sink::fold_digest(acc, h.counters.digest)
        })
    }

    /// Every routine latency in the fleet, in milliseconds, sorted.
    pub fn latencies_ms(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .homes
            .iter()
            .flat_map(|h| h.counters.latencies_ms.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Runs one home of the fleet to quiescence on the calling thread.
fn run_home<F>(home: usize, fleet_seed: u64, make_spec: &F) -> HomeRun
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let seed = home_seed(fleet_seed, home as u64);
    let spec = make_spec(home, seed);
    let mut driver = Driver::with_sink(&spec, RunCounters::new());
    let completed = driver.run_to_quiescence();
    let (counters, _, _) = driver.into_output();
    HomeRun {
        home,
        seed,
        completed,
        counters,
    }
}

/// One worker's contiguous slice of the home-index injector: a lock-free
/// cursor over `[next, end)`. The owner claims batches in index order;
/// thieves claim from it exactly the same way once their own shard runs
/// dry.
struct Shard {
    next: AtomicUsize,
    end: usize,
}

impl Shard {
    /// Claims up to `batch` consecutive home indices, or `None` when the
    /// shard is exhausted.
    fn claim(&self, batch: usize) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(batch, Ordering::Relaxed);
        if start >= self.end {
            return None;
        }
        Some(start..(start + batch).min(self.end))
    }
}

/// A spec the pre-run gate refused: which home, its derived seed, and
/// the gate's message (for `safehome-lint` gates, the rendered
/// Error-severity diagnostics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecRejection {
    /// The rejected home's fleet index.
    pub home: usize,
    /// The rejected home's derived seed.
    pub seed: u64,
    /// The gate's explanation.
    pub message: String,
}

impl std::fmt::Display for SpecRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "home {} (seed {:#018x}) rejected: {}",
            self.home, self.seed, self.message
        )
    }
}

/// [`run_fleet`] behind a pre-run spec gate: every home's spec is
/// validated (serially, in home order) *before* any home executes, and
/// the first rejection aborts the whole fleet with nothing run. The
/// canonical gate is `safehome-lint`'s Error-severity check
/// (`|_, spec| lint::check(spec)`); the harness stays lint-agnostic
/// because the lint crate sits above it in the dependency graph.
///
/// Gating never perturbs execution: an accepted fleet's per-home results
/// — digests included — are byte-identical to the ungated
/// [`run_fleet`] (specs are rebuilt from the same seeds, and the
/// gate only reads them).
pub fn run_fleet_gated<F, G>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    gate: G,
    make_spec: F,
) -> Result<FleetResult, SpecRejection>
where
    F: Fn(usize, u64) -> RunSpec + Sync,
    G: Fn(usize, &RunSpec) -> Result<(), String>,
{
    for home in 0..homes {
        let seed = home_seed(fleet_seed, home as u64);
        let spec = make_spec(home, seed);
        gate(home, &spec).map_err(|message| SpecRejection {
            home,
            seed,
            message,
        })?;
    }
    Ok(run_fleet(homes, workers, fleet_seed, make_spec))
}

/// Runs `homes` independent homes across `workers` threads with work
/// stealing.
///
/// `make_spec(home, seed)` builds home `home`'s spec from its derived
/// seed; it runs on the worker threads, so it must be `Sync`. Results
/// return over an `mpsc` channel and are re-sorted by home index.
pub fn run_fleet<F>(homes: usize, workers: usize, fleet_seed: u64, make_spec: F) -> FleetResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let workers = workers.clamp(1, homes.max(1));
    let (tx, rx) = mpsc::channel::<HomeRun>();
    let make_spec = &make_spec;

    // Batches claimed from a shard cursor: big enough to amortize the
    // claim, small enough that the tail of a shard stays stealable.
    let batch = (homes / (workers * 8).max(1)).clamp(1, 32);
    let shards: Vec<Shard> = (0..workers)
        .map(|w| {
            // Contiguous near-equal split of 0..homes.
            let lo = w * homes / workers;
            let hi = (w + 1) * homes / workers;
            Shard {
                next: AtomicUsize::new(lo),
                end: hi,
            }
        })
        .collect();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let shards = &shards;
    let deques = &deques;

    let worker_stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut stats = WorkerStats::default();
                    steal_loop(
                        w, workers, batch, fleet_seed, shards, deques, &tx, make_spec, &mut stats,
                    );
                    stats
                })
            })
            .collect();
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect::<Vec<WorkerStats>>()
    });
    let mut results: Vec<HomeRun> = rx.iter().collect();
    results.sort_by_key(|h| h.home);
    FleetResult {
        homes: results,
        workers,
        worker_stats,
    }
}

/// The work-stealing worker loop: own deque (LIFO) → own shard cursor →
/// victims in pseudo-random rotation (their shard cursor, then half their
/// deque from the FIFO end). Exits when a full sweep finds no work: homes
/// never spawn homes, so once every shard and deque is empty the only
/// remaining work is the at-most-one home each worker already holds in
/// hand. (A thief can race a claimed-but-not-yet-queued batch and exit a
/// moment early; the owner still runs that batch, so no work is lost.)
#[allow(clippy::too_many_arguments)]
fn steal_loop<F>(
    w: usize,
    workers: usize,
    batch: usize,
    fleet_seed: u64,
    shards: &[Shard],
    deques: &[Mutex<VecDeque<usize>>],
    tx: &mpsc::Sender<HomeRun>,
    make_spec: &F,
    stats: &mut WorkerStats,
) where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    // Victim order only shapes scheduling, never results; seed it off the
    // fleet seed and worker index so runs are reproducible under a
    // deterministic thread interleaving too.
    let mut rng = SimRng::seed_from_u64(fleet_seed ^ (w as u64).wrapping_mul(0xA55));
    loop {
        // 1. Own deque, LIFO end (best locality with freshly queued work).
        let local = deques[w].lock().expect("deque poisoned").pop_back();
        if let Some(home) = local {
            let _ = tx.send(run_home(home, fleet_seed, make_spec));
            stats.homes_run += 1;
            continue;
        }
        // 2. Own shard cursor: run the first claimed home, queue the rest.
        if let Some(range) = shards[w].claim(batch) {
            let mut it = range;
            let first = it.next().expect("claimed range is non-empty");
            if !it.is_empty() {
                deques[w].lock().expect("deque poisoned").extend(it);
            }
            let _ = tx.send(run_home(first, fleet_seed, make_spec));
            stats.homes_run += 1;
            continue;
        }
        // 3. Steal: sweep every victim exactly once, starting at a
        // random one — the rotation runs over the `workers - 1` non-self
        // offsets, so no victim is ever skipped.
        let r = if workers > 1 {
            rng.index(workers - 1)
        } else {
            0
        };
        let mut stolen: Option<Vec<usize>> = None;
        for i in 0..workers.saturating_sub(1) {
            let v = (w + 1 + (r + i) % (workers - 1)) % workers;
            if let Some(range) = shards[v].claim(batch) {
                stolen = Some(range.collect());
                break;
            }
            let mut dq = deques[v].lock().expect("deque poisoned");
            let take = dq.len().div_ceil(2);
            if take > 0 {
                // Steal from the FIFO end — the owner keeps the LIFO end.
                stolen = Some(dq.drain(..take).collect());
                break;
            }
        }
        let Some(grabbed) = stolen else {
            return; // Injector drained and every deque empty.
        };
        stats.steals += 1;
        if grabbed.len() > 1 {
            deques[w]
                .lock()
                .expect("deque poisoned")
                .extend(&grabbed[1..]);
        }
        let _ = tx.send(run_home(grabbed[0], fleet_seed, make_spec));
        stats.homes_run += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Submission;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_sim::SimRng;
    use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp, Value};

    /// A small per-home workload whose shape depends on the seed.
    fn tiny_home(_: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(seed);
        let n = 2 + (rng.next_u64() % 3) as usize;
        for i in 0..n {
            let mut b = Routine::builder(format!("r{i}"));
            for j in 0..2u32 {
                b = b.set(
                    DeviceId((i as u32 + j) % 4),
                    Value::ON,
                    TimeDelta::from_millis(50),
                );
            }
            spec.submit(Submission::at(
                b.build(),
                Timestamp::from_millis(rng.next_u64() % 500),
            ));
        }
        spec
    }

    #[test]
    fn fleet_results_are_identical_across_worker_counts() {
        let base = run_fleet(9, 1, 42, tiny_home);
        assert_eq!(base.homes.len(), 9);
        assert!(base.all_completed());
        for workers in [2, 3, 4] {
            let other = run_fleet(9, workers, 42, tiny_home);
            assert_eq!(
                base.homes, other.homes,
                "per-home results must not depend on sharding ({workers} workers)"
            );
            assert_eq!(base.digest(), other.digest());
        }
    }

    #[test]
    fn different_fleet_seeds_give_different_fleets() {
        let a = run_fleet(4, 2, 1, tiny_home);
        let b = run_fleet(4, 2, 2, tiny_home);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn home_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..100).map(|i| home_seed(7, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 100, "seed derivation must not collide");
        assert_eq!(home_seed(7, 0), home_seed(7, 0));
    }

    #[test]
    fn stealing_matches_static_per_home_and_digest() {
        // The reference is each home driven alone, in order, on this
        // thread: no scheduler at all.
        let reference: Vec<HomeRun> = (0..13).map(|h| run_home(h, 77, &tiny_home)).collect();
        assert!(reference.iter().all(|h| h.completed));
        for workers in [1, 2, 3, 4, 13] {
            let other = run_fleet(13, workers, 77, tiny_home);
            assert_eq!(
                reference, other.homes,
                "{workers} workers must match the sequential per-home runs"
            );
            assert_eq!(
                other
                    .worker_stats
                    .iter()
                    .map(|s| s.homes_run)
                    .sum::<usize>(),
                13,
                "every home is run exactly once ({workers} workers)"
            );
        }
    }

    #[test]
    fn empty_fleet_is_fine_under_both_schedules() {
        let fleet = run_fleet(0, 4, 1, tiny_home);
        assert!(fleet.homes.is_empty());
        assert_eq!(fleet.workers, 1, "workers clamp to at least one");
        assert!(fleet.all_completed(), "vacuously true");
    }

    #[test]
    fn gated_fleet_matches_ungated_when_gate_accepts() {
        let plain = run_fleet(9, 2, 42, tiny_home);
        let gated_specs = std::sync::atomic::AtomicUsize::new(0);
        let gated = run_fleet_gated(
            9,
            2,
            42,
            |_, spec| {
                gated_specs.fetch_add(spec.submissions.len(), std::sync::atomic::Ordering::Relaxed);
                Ok(())
            },
            tiny_home,
        )
        .expect("accepting gate never rejects");
        assert_eq!(plain.homes, gated.homes, "gating must not perturb runs");
        assert_eq!(plain.digest(), gated.digest());
        assert!(
            gated_specs.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "the gate saw every spec"
        );
    }

    #[test]
    fn gated_fleet_rejects_with_home_and_seed() {
        let err = run_fleet_gated(
            5,
            2,
            42,
            |home, _| {
                if home == 3 {
                    Err("synthetic gate failure".into())
                } else {
                    Ok(())
                }
            },
            tiny_home,
        )
        .expect_err("home 3 is rejected");
        assert_eq!(err.home, 3);
        assert_eq!(err.seed, home_seed(42, 3));
        assert!(err.message.contains("synthetic"));
        assert!(err.to_string().contains("home 3"));
    }

    #[test]
    fn aggregates_sum_over_homes() {
        let fleet = run_fleet(5, 2, 11, tiny_home);
        let committed: u64 = fleet.homes.iter().map(|h| h.counters.committed).sum();
        assert_eq!(fleet.committed(), committed);
        assert!(committed > 0);
        assert_eq!(fleet.aborted(), 0);
        assert_eq!(fleet.congruent_homes(), 5);
        assert_eq!(
            fleet.latencies_ms().len() as u64,
            committed,
            "every committed routine contributes one latency"
        );
        // Workers above the home count are clamped.
        let tiny = run_fleet(2, 16, 11, tiny_home);
        assert_eq!(tiny.workers, 2);
    }
}
