//! `service_bench` — resident-fleet service mode under sustained
//! open-loop traffic, with latency SLO percentiles.
//!
//! Where `fleet_bench` measures the batch path (run every home to
//! quiescence, then stop), this bin measures the *serving* shape: every
//! home stays resident over an hours-long simulated horizon while an
//! open-loop arrival process (seeded Poisson on a one-second lattice,
//! diurnal rate curve, fleet-seed burst windows — see
//! `safehome_workloads::scenarios::service`) keeps submitting routines.
//! The resident runner (`safehome_harness::run_service`) advances homes
//! in epoch slices off per-shard timer queues, with idle workers
//! stealing slices across shards, so a burst in one home never starves
//! its neighbours and a skewed shard never idles the rest of the fleet.
//!
//! For each load point (arrivals per home-hour) the bin records:
//!
//! - sustained throughput (homes/sec and routines/sec of wall clock) at
//!   each worker count — worker counts beyond `available_parallelism`
//!   are still *run* (they feed the determinism cross-check) but their
//!   rate fields are replaced by a `skipped` marker: an oversubscribed
//!   wallclock measures thread contention, not scheduling;
//! - offered vs completed routine counts (open-loop: offered load does
//!   not bend to completion rate);
//! - submission-latency percentiles p50/p95/p99/p999 in simulated
//!   milliseconds from the constant-memory fleet histogram — these are
//!   machine-independent, so the regression gate can hold them tight.
//!
//! Two further sections exercise the scale-out knobs:
//!
//! - `steal`: a deliberately skewed fleet (heavy homes contiguous in the
//!   first shard) compared steal-on vs steal-off — modeled makespan from
//!   measured per-home sequential costs (authoritative on CI's small
//!   containers, same convention as `fleet_bench`) plus wallclock when
//!   enough cores exist; per-home digests must agree across both
//!   schedules.
//! - `eviction`: a calm fleet under a `max_resident` budget —
//!   evictions, recoveries (resumes of a parked controller), peak
//!   residency and approximate per-home resident vs evicted bytes;
//!   results must be byte-identical to the never-evicted run
//!   (`digest_neutral`).
//!
//! Cross-checks, recorded in the JSON and enforced by exit status:
//! per-home results byte-identical across worker counts, steal on/off
//! and eviction on/off, and identical to the batch `run_fleet` driver
//! on the same specs.
//!
//! The `service` section is *merged into* an existing `BENCH_fleet.json`
//! at the output path when one is present (replacing any prior
//! `service` section, leaving every other section untouched), so
//! `fleet_bench` and `service_bench` compose into one artifact in
//! either order. No digest-sidecar rows are written: service homes are
//! covered by the in-run determinism and batch-parity checks.
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin service_bench \
//!     [out.json] [homes] [horizon_minutes]
//! ```

use std::time::Instant;

use safehome_bench::support::available_parallelism;
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{
    home_seed, run_fleet, run_service, run_service_with, Driver, HomeRun, ServiceConfig,
    ServiceResult,
};
use safehome_types::json::{obj, Json};
use safehome_types::sink::RunCounters;
use safehome_types::TimeDelta;
use safehome_workloads::{
    service_home, skewed_service_home, FleetTemplate, ServiceParams, SkewParams,
};

/// Worker-thread counts compared per load point.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Fleet seed of the service sections (also seeds the burst windows).
const SERVICE_SEED: u64 = 0x5afe_0a11;
/// Mean arrivals per home-hour at each load point.
const LOAD_POINTS: [u64; 3] = [30, 60, 120];
/// Epoch slice length the resident runner is driven at.
const EPOCH: TimeDelta = TimeDelta::from_secs(10);
/// Fleet-wide burst windows drawn from the seed per load point.
const BURSTS: usize = 2;

/// Skewed-fleet steal comparison: fleet size, heavy-home count at the
/// *front* of the fleet (so the skew lands entirely on the first
/// contiguous shard — the worst case for static sharding), heavy-home
/// rate multiplier, and worker count.
const SKEW_HOMES: usize = 96;
const SKEW_HEAVY: usize = 12;
const SKEW_MULTIPLIER: u64 = 6;
const SKEW_WORKERS: usize = 4;
/// Arrival horizon and base rate of the steal/eviction sections.
const SKEW_HORIZON_MINS: u64 = 60;
const SKEW_RATE: u64 = 30;
/// Resident-home budget of the eviction section (1/8 of the fleet).
const EVICT_BUDGET: usize = SKEW_HOMES / 8;
/// Arrival rate of the eviction section's calm fleet. Eviction targets
/// *cold* homes (engine quiescent between arrival clusters); at busy
/// service rates most homes are mid-routine most of the time — morning
/// catalog routines hold actuations for minutes — so a calm overnight
/// rate is the shape the resident budget exists for.
const EVICT_RATE: u64 = 6;

/// Contiguous-shard makespan: the service runner shards homes as
/// `w*homes/workers..(w+1)*homes/workers`, so a static (no-steal)
/// schedule's makespan is the largest contiguous shard sum of the
/// measured per-home costs.
fn contiguous_static_makespan(costs: &[f64], workers: usize) -> f64 {
    let homes = costs.len();
    (0..workers)
        .map(|w| {
            costs[w * homes / workers..(w + 1) * homes / workers]
                .iter()
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// Work-conserving makespan bound: epoch-slice stealing migrates work
/// at slice granularity (a near-preemptive schedule), so it converges
/// to `max(total/workers, max single-home cost)` — the lower bound any
/// schedule of whole homes can only approach.
fn stealing_makespan(costs: &[f64], workers: usize) -> f64 {
    let total: f64 = costs.iter().sum();
    let largest = costs.iter().cloned().fold(0.0, f64::max);
    (total / workers as f64).max(largest)
}

fn same_homes(label: &str, a: &[HomeRun], b: &[HomeRun]) -> bool {
    if a.len() != b.len() {
        eprintln!("{label}: home count mismatch ({} vs {})", a.len(), b.len());
        return false;
    }
    let mut same = true;
    for (x, y) in a.iter().zip(b) {
        if x != y {
            eprintln!("{label}: home {} diverged", x.home);
            same = false;
        }
    }
    same
}

fn percentiles_obj(r: &ServiceResult) -> Json {
    let p = |q: f64| Json::from(r.latency.percentile(q).expect("non-empty histogram"));
    obj([
        ("count", Json::from(r.latency.count())),
        ("p50", p(0.50)),
        ("p95", p(0.95)),
        ("p99", p(0.99)),
        ("p999", p(0.999)),
        ("max", Json::from(r.latency.max())),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let homes: usize = args
        .get(1)
        .map(|s| s.parse().expect("homes must be an integer"))
        .unwrap_or(600);
    let horizon_minutes: u64 = args
        .get(2)
        .map(|s| s.parse().expect("horizon_minutes must be an integer"))
        .unwrap_or(120);
    let horizon = TimeDelta::from_mins(horizon_minutes);

    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let cpus = available_parallelism();
    let mut ok = true;

    // Warmup: one small resident run so the first timed point does not
    // pay allocator and page-fault overhead the later ones skip.
    {
        let params = ServiceParams::new(TimeDelta::from_mins(10), LOAD_POINTS[0]);
        run_service(homes.clamp(4, 64), 2, SERVICE_SEED, EPOCH, |_, seed| {
            service_home(&template, &params, seed)
        });
    }

    let mut load_rows = Vec::new();
    let mut deterministic = true;
    let mut matches_batch = true;
    for rate in LOAD_POINTS {
        let params = ServiceParams::new(horizon, rate).with_bursts_from_seed(SERVICE_SEED, BURSTS);
        let make_spec = |_: usize, seed: u64| service_home(&template, &params, seed);

        let mut runs: Vec<(usize, f64, ServiceResult)> = Vec::new();
        let mut worker_rows = Vec::new();
        for workers in WORKER_COUNTS {
            let start = Instant::now();
            let result = run_service(homes, workers, SERVICE_SEED, EPOCH, make_spec);
            let elapsed = start.elapsed().as_secs_f64();
            let home_rate = homes as f64 / elapsed;
            let oversubscribed = workers > cpus;
            assert!(
                result.all_completed(),
                "rate {rate}/h, {workers} workers: some homes failed to quiesce"
            );
            let mut row = vec![
                ("workers", Json::from(workers as u64)),
                ("elapsed_s", Json::Float(round3(elapsed))),
                ("steals", Json::from(result.steals())),
            ];
            if oversubscribed {
                // The run still matters — it exercises the determinism
                // cross-check below — but its wall clock measures thread
                // oversubscription, not scheduling, so the rate fields
                // are withheld (the steal section's modeled makespan is
                // the authoritative parallel-speedup basis).
                eprintln!(
                    "rate {rate}/h, {workers} worker(s): {homes} resident homes over \
                     {horizon_minutes} simulated minutes in {elapsed:.3}s, {} slices \
                     (digest {:#018x}); wallclock rate skipped: only {cpus} core(s) \
                     available, {workers} workers oversubscribe and the ratio would \
                     misread as \"more workers don't help\"",
                    result.slices,
                    result.digest()
                );
                row.push(("skipped", Json::from(true)));
                row.push((
                    "reason",
                    Json::from(format!(
                        "available_parallelism = {cpus} < {workers} workers: the \
                         wallclock rate measures thread oversubscription, not \
                         scheduling; the steal section's modeled makespan is the \
                         authoritative parallel-speedup basis"
                    )),
                ));
            } else {
                eprintln!(
                    "rate {rate}/h, {workers} worker(s): {homes} resident homes over \
                     {horizon_minutes} simulated minutes in {elapsed:.3}s = {home_rate:.1} \
                     homes/sec, {} slices (digest {:#018x})",
                    result.slices,
                    result.digest()
                );
                row.push(("homes_per_sec", Json::Float(round3(home_rate))));
                row.push((
                    "routines_per_sec",
                    Json::Float(round3(result.finished() as f64 / elapsed)),
                ));
            }
            worker_rows.push(Json::Obj(
                row.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            ));
            runs.push((workers, elapsed, result));
        }

        // Determinism: byte-identical per-home results at every worker
        // count (the resident timer queues must not perturb any home).
        let (_, _, base) = &runs[0];
        for (workers, _, result) in &runs[1..] {
            if base.homes != result.homes {
                eprintln!("rate {rate}/h: per-home results diverged at {workers} workers");
                deterministic = false;
            }
        }

        // Batch parity: the time-sliced resident path must reproduce
        // the run-to-completion fleet driver byte for byte.
        let batch = run_fleet(homes, 2, SERVICE_SEED, make_spec);
        if batch.homes != base.homes {
            eprintln!("rate {rate}/h: resident results diverged from the batch fleet driver");
            matches_batch = false;
        }

        // Best sustained rate over the *non-oversubscribed* runs only
        // (workers = 1 always qualifies, so the set is never empty).
        let sustained = runs
            .iter()
            .filter(|&&(w, _, _)| w <= cpus)
            .map(|&(_, e, _)| homes as f64 / e)
            .fold(f64::MIN, f64::max);
        let offered = base.offered();
        let finished = base.finished();
        assert!(
            !base.latency.is_empty(),
            "rate {rate}/h: the fleet finished no routines"
        );
        eprintln!(
            "rate {rate}/h: offered {offered}, finished {finished} \
             (p50 {}ms, p99 {}ms, p999 {}ms)",
            base.latency.percentile(0.50).unwrap(),
            base.latency.percentile(0.99).unwrap(),
            base.latency.percentile(0.999).unwrap(),
        );
        load_rows.push(obj([
            ("rate_per_home_hour", Json::from(rate)),
            ("offered", Json::from(offered)),
            ("committed", Json::from(base.committed())),
            ("aborted", Json::from(base.aborted())),
            (
                "completed_fraction",
                Json::Float(round3(finished as f64 / offered.max(1) as f64)),
            ),
            ("sustained_homes_per_sec", Json::Float(round3(sustained))),
            ("results", Json::Arr(worker_rows)),
            ("latency_ms", percentiles_obj(base)),
        ]));
    }
    ok &= deterministic && matches_batch;

    // ---- Steal section: deliberately skewed fleet ------------------
    //
    // The heavy homes sit contiguously at the front, i.e. entirely
    // inside the first shard(s) — the worst realistic case for the
    // static contiguous sharding and the one epoch-slice stealing is
    // meant to repair.
    let skew = SkewParams::new(
        ServiceParams::new(TimeDelta::from_mins(SKEW_HORIZON_MINS), SKEW_RATE)
            .with_bursts_from_seed(SERVICE_SEED, BURSTS),
        SKEW_HEAVY,
        SKEW_MULTIPLIER,
    );
    let skew_spec = |home: usize, seed: u64| skewed_service_home(&template, &skew, home, seed);

    // Per-home sequential cost pass; doubles as the reference result
    // for the digest cross-checks below.
    let mut costs = Vec::with_capacity(SKEW_HOMES);
    let mut reference = Vec::with_capacity(SKEW_HOMES);
    for home in 0..SKEW_HOMES {
        let seed = home_seed(SERVICE_SEED, home as u64);
        let start = Instant::now();
        let spec = skew_spec(home, seed);
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        let completed = driver.run_to_quiescence();
        let (counters, _, _) = driver.into_output();
        costs.push(start.elapsed().as_secs_f64());
        assert!(completed, "skewed home {home} failed to quiesce");
        reference.push(HomeRun {
            home,
            seed,
            completed,
            counters,
        });
    }
    let total_cost: f64 = costs.iter().sum();
    let heavy_cost: f64 = costs[..SKEW_HEAVY].iter().sum();
    let modeled_static_s = contiguous_static_makespan(&costs, SKEW_WORKERS);
    let modeled_stealing_s = stealing_makespan(&costs, SKEW_WORKERS);
    let modeled_ratio = modeled_static_s / modeled_stealing_s;
    eprintln!(
        "steal: {SKEW_HOMES} homes ({SKEW_HEAVY} heavy at {SKEW_MULTIPLIER}x), sequential \
         pass {total_cost:.3}s, heavy fraction {:.2}",
        heavy_cost / total_cost
    );

    let start = Instant::now();
    let steal_on = run_service_with(
        SKEW_HOMES,
        SKEW_WORKERS,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH),
        skew_spec,
    );
    let wall_stealing_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let steal_off = run_service_with(
        SKEW_HOMES,
        SKEW_WORKERS,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH).with_steal(false),
        skew_spec,
    );
    let wall_static_s = start.elapsed().as_secs_f64();
    let steals: u64 = steal_on.steals();
    let schedules_agree = same_homes("steal on", &reference, &steal_on.homes)
        & same_homes("steal off", &reference, &steal_off.homes);
    ok &= schedules_agree;
    if cpus >= SKEW_WORKERS {
        eprintln!(
            "steal-vs-static @ {SKEW_WORKERS} workers: modeled {modeled_ratio:.2}x \
             (static {modeled_static_s:.3}s vs stealing {modeled_stealing_s:.3}s), \
             wallclock {:.2}x on {cpus} core(s), {steals} steals",
            wall_static_s / wall_stealing_s
        );
    } else {
        eprintln!(
            "steal-vs-static @ {SKEW_WORKERS} workers: modeled {modeled_ratio:.2}x \
             (static {modeled_static_s:.3}s vs stealing {modeled_stealing_s:.3}s), \
             {steals} steals; wallclock comparison skipped: only {cpus} core(s), \
             both schedules do identical total work so the ratio only measures \
             scheduling noise — the modeled makespan is authoritative"
        );
    }
    let steal_section = obj([
        (
            "description",
            Json::from(
                "epoch-slice work stealing on a deliberately skewed fleet: the heavy \
                 homes sit contiguously in the first shard, so a static schedule is \
                 bottlenecked on it while the other workers idle; stealing migrates \
                 slices (never homes) and must leave per-home results byte-identical",
            ),
        ),
        ("homes", Json::from(SKEW_HOMES as u64)),
        ("heavy_homes", Json::from(SKEW_HEAVY as u64)),
        ("heavy_multiplier", Json::from(SKEW_MULTIPLIER)),
        ("workers", Json::from(SKEW_WORKERS as u64)),
        ("rate_per_home_hour", Json::from(SKEW_RATE)),
        ("horizon_minutes", Json::from(SKEW_HORIZON_MINS)),
        ("sequential_cost_s", Json::Float(round3(total_cost))),
        (
            "heavy_cost_fraction",
            Json::Float(round3(heavy_cost / total_cost)),
        ),
        (
            "wallclock",
            if cpus >= SKEW_WORKERS {
                obj([
                    ("static_s", Json::Float(round3(wall_static_s))),
                    ("stealing_s", Json::Float(round3(wall_stealing_s))),
                    (
                        "stealing_speedup_over_static",
                        Json::Float(round3(wall_static_s / wall_stealing_s)),
                    ),
                ])
            } else {
                obj([
                    ("skipped", Json::from(true)),
                    (
                        "reason",
                        Json::from(format!(
                            "available_parallelism = {cpus} < {SKEW_WORKERS} workers: \
                             both schedules do identical total work, so the wallclock \
                             ratio only measures scheduling noise; the modeled makespan \
                             is authoritative"
                        )),
                    ),
                ])
            },
        ),
        (
            "modeled_makespan",
            obj([
                (
                    "method",
                    Json::from(
                        "per-home costs measured sequentially; static = largest \
                         contiguous shard sum (the service runner's sharding), \
                         stealing = work-conserving bound max(total/workers, max \
                         single home) which epoch-slice migration converges to; \
                         equals the wall clock of a machine with >= `workers` idle \
                         cores",
                    ),
                ),
                ("static_s", Json::Float(round3(modeled_static_s))),
                ("stealing_s", Json::Float(round3(modeled_stealing_s))),
                (
                    "stealing_speedup_over_static",
                    Json::Float(round3(modeled_ratio)),
                ),
            ]),
        ),
        ("steals", Json::from(steals)),
        (
            "worker_stats",
            Json::Arr(
                steal_on
                    .worker_stats
                    .iter()
                    .enumerate()
                    .map(|(w, s)| {
                        obj([
                            ("worker", Json::from(w as u64)),
                            ("slices_run", Json::from(s.slices_run)),
                            ("steals", Json::from(s.steals)),
                            ("homes_finished", Json::from(s.homes_run as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("schedules_agree", Json::from(schedules_agree)),
    ]);

    // ---- Eviction section: bounded residency on a calm fleet -------
    //
    // A separate low-rate fleet: eviction binds *cold* homes, and at
    // busy service rates most homes are legitimately warm (mid-routine
    // across epoch boundaries — catalog routines hold actuations for
    // minutes). The calm overnight shape is where a resident budget
    // pays off, and where the peak-residency number is meaningful.
    let evict_params = ServiceParams::new(TimeDelta::from_mins(SKEW_HORIZON_MINS), EVICT_RATE);
    let evict_spec = |_: usize, seed: u64| service_home(&template, &evict_params, seed);
    let unbounded = run_service_with(
        SKEW_HOMES,
        2,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH),
        evict_spec,
    );
    let start = Instant::now();
    let evicted = run_service_with(
        SKEW_HOMES,
        2,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH).with_max_resident(EVICT_BUDGET),
        evict_spec,
    );
    let evict_elapsed = start.elapsed().as_secs_f64();
    let digest_neutral = same_homes("eviction", &unbounded.homes, &evicted.homes);
    ok &= digest_neutral;
    eprintln!(
        "eviction: budget {EVICT_BUDGET}/{SKEW_HOMES} resident homes at {EVICT_RATE}/h: \
         peak {} (vs {} unbounded), {} evictions, {} recoveries, ~{} resident vs ~{} \
         evicted bytes/home, digest-neutral: {digest_neutral}",
        evicted.peak_resident_homes,
        unbounded.peak_resident_homes,
        evicted.evictions,
        evicted.recoveries,
        evicted.approx_resident_home_bytes,
        evicted.approx_evicted_home_bytes,
    );
    let eviction_section = obj([
        (
            "description",
            Json::from(
                "eviction of cold resident homes: between slices a quiescent home \
                 parks its controller (engine, counter sink, tables, compact journal) \
                 beside a {device states, RNG} world snapshot and its pooled simulator \
                 state returns to the thread pool; the next timer fire resumes the \
                 parked controller on a rebuilt backend without replay — results must \
                 be byte-identical to a never-evicted run (digest_neutral)",
            ),
        ),
        ("homes", Json::from(SKEW_HOMES as u64)),
        ("workers", Json::from(2u64)),
        ("rate_per_home_hour", Json::from(EVICT_RATE)),
        ("horizon_minutes", Json::from(SKEW_HORIZON_MINS)),
        ("max_resident", Json::from(EVICT_BUDGET as u64)),
        ("elapsed_s", Json::Float(round3(evict_elapsed))),
        ("evictions", Json::from(evicted.evictions)),
        ("recoveries", Json::from(evicted.recoveries)),
        (
            "peak_resident_homes",
            Json::from(evicted.peak_resident_homes as u64),
        ),
        (
            "peak_resident_homes_unbounded",
            Json::from(unbounded.peak_resident_homes as u64),
        ),
        (
            "approx_resident_home_bytes",
            Json::from(evicted.approx_resident_home_bytes as u64),
        ),
        (
            "approx_evicted_home_bytes",
            Json::from(evicted.approx_evicted_home_bytes as u64),
        ),
        ("digest_neutral", Json::from(digest_neutral)),
    ]);

    let section = obj([
        (
            "description",
            Json::from(
                "resident-fleet service mode: open-loop Poisson arrivals \
                 (diurnal curve + seeded burst windows) over resident homes, \
                 advanced in epoch slices off per-shard timer queues with \
                 idle-worker slice stealing; latency percentiles are \
                 simulated-time milliseconds from the constant-memory fleet \
                 histogram (machine-independent); determinism, batch-parity, \
                 steal-digest and eviction-digest cross-checks are enforced",
            ),
        ),
        ("homes", Json::from(homes as u64)),
        ("fleet_seed", Json::from(SERVICE_SEED)),
        ("horizon_minutes", Json::from(horizon_minutes)),
        ("epoch_ms", Json::from(EPOCH.as_millis())),
        ("burst_windows", Json::from(BURSTS as u64)),
        ("available_parallelism", Json::from(cpus as u64)),
        ("deterministic_across_workers", Json::from(deterministic)),
        ("matches_batch_fleet", Json::from(matches_batch)),
        ("load_points", Json::Arr(load_rows)),
        ("steal", steal_section),
        ("eviction", eviction_section),
    ]);

    // Merge into an existing artifact when one is present: replace any
    // prior `service` section, keep everything else byte-for-byte.
    let doc = match std::fs::read_to_string(&out_path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(mut members)) => {
                members.retain(|(k, _)| k != "service");
                members.push(("service".to_string(), section));
                Json::Obj(members)
            }
            Ok(_) | Err(_) => {
                eprintln!("{out_path} exists but is not a JSON object; writing service-only");
                obj([("benchmark", Json::from("service")), ("service", section)])
            }
        },
        Err(_) => obj([("benchmark", Json::from("service")), ("service", section)]),
    };
    if let Err(e) = std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path} (service section)");

    if !ok {
        eprintln!(
            "FAIL: resident service runs diverged across worker counts or from \
             the batch fleet driver"
        );
        std::process::exit(1);
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
