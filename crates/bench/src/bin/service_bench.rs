//! `service_bench` — deterministic checks of the resident service
//! runner under sustained open-loop traffic.
//!
//! Where `fleet_bench` checks the batch path (run every home to
//! quiescence, then stop), this bin checks the *serving* shape: every
//! home stays resident over an hours-long simulated horizon while an
//! open-loop arrival process (seeded Poisson on a one-second lattice,
//! diurnal rate curve, fleet-seed burst windows — see
//! `safehome_workloads::scenarios::service`) keeps submitting routines.
//! The resident runner (`safehome_harness::run_service`) advances homes
//! in epoch slices off per-shard timer queues, with idle workers
//! stealing slices across shards. Wall-clock throughput is perfbench's
//! job (`BENCHMARK.json`); nothing here is timed.
//!
//! For each load point (arrivals per home-hour) the bin records offered
//! vs completed routine counts and submission-latency percentiles
//! p50/p95/p99/p999 in simulated milliseconds from the constant-memory
//! fleet histogram — machine-independent, so the gate holds them tight.
//!
//! Two further sections exercise the scale-out knobs:
//!
//! - `steal`: a deliberately skewed fleet (heavy homes contiguous in the
//!   first shard) compared steal-on vs steal-off. A sequential pass
//!   drives each home alone and counts its events; both schedules must
//!   reproduce it per home, and the modeled speedup of stealing takes
//!   the event counts as per-home costs (static = largest contiguous
//!   shard sum, stealing = the work-conserving bound), so it cannot
//!   flake.
//! - `eviction`: a calm fleet under a `max_resident` budget —
//!   evictions, recoveries (resumes of a parked controller), peak
//!   residency and approximate per-home resident vs evicted bytes;
//!   results must be byte-identical to the never-evicted run
//!   (`digest_neutral`).
//!
//! Cross-checks, recorded in the JSON and enforced by exit status:
//! per-home results byte-identical across worker counts, steal on/off,
//! eviction on/off and the sequential reference, and identical to the
//! batch `run_fleet` driver on the same specs.
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

use safehome_bench::support::{
    contiguous_makespan, round3, same_homes, sequential_reference, stealing_bound_makespan,
};
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{run_fleet, run_service, run_service_with, ServiceConfig, ServiceResult};
use safehome_types::json::{obj, Json};
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
    let mut ok = true;

    let mut load_rows = Vec::new();
    let mut deterministic = true;
    let mut matches_batch = true;
    for rate in LOAD_POINTS {
        let params = ServiceParams::new(horizon, rate).with_bursts_from_seed(SERVICE_SEED, BURSTS);
        let make_spec = |_: usize, seed: u64| service_home(&template, &params, seed);

        // Determinism: byte-identical per-home results at every worker
        // count (the resident timer queues must not perturb any home).
        let base = run_service(homes, WORKER_COUNTS[0], SERVICE_SEED, EPOCH, make_spec);
        assert!(
            base.all_completed(),
            "rate {rate}/h: some homes failed to quiesce"
        );
        for workers in &WORKER_COUNTS[1..] {
            let other = run_service(homes, *workers, SERVICE_SEED, EPOCH, make_spec);
            deterministic &= same_homes(
                &format!("rate {rate}/h, {workers} workers"),
                &base.homes,
                &other.homes,
            );
        }

        // Batch parity: the time-sliced resident path must reproduce
        // the run-to-completion fleet driver byte for byte.
        let batch = run_fleet(homes, 2, SERVICE_SEED, make_spec);
        matches_batch &= same_homes(
            &format!("rate {rate}/h, batch fleet"),
            &batch.homes,
            &base.homes,
        );

        let offered = base.offered();
        let finished = base.finished();
        assert!(
            !base.latency.is_empty(),
            "rate {rate}/h: the fleet finished no routines"
        );
        eprintln!(
            "rate {rate}/h: {homes} resident homes over {horizon_minutes} simulated \
             minutes, {} slices, offered {offered}, finished {finished} (p50 {}ms, \
             p99 {}ms, p999 {}ms)",
            base.slices,
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
            ("slices", Json::from(base.slices)),
            ("latency_ms", percentiles_obj(&base)),
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
    let (reference, events) = sequential_reference(SKEW_HOMES, SERVICE_SEED, skew_spec);
    assert!(
        reference.iter().all(|h| h.completed),
        "a skewed home failed to quiesce"
    );
    let total_events: u64 = events.iter().sum();
    let heavy_events: u64 = events[..SKEW_HEAVY].iter().sum();
    let modeled_static = contiguous_makespan(&events, SKEW_WORKERS);
    let modeled_stealing = stealing_bound_makespan(&events, SKEW_WORKERS);
    let modeled_ratio = modeled_static / modeled_stealing;

    let steal_on = run_service_with(
        SKEW_HOMES,
        SKEW_WORKERS,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH),
        skew_spec,
    );
    let steal_off = run_service_with(
        SKEW_HOMES,
        SKEW_WORKERS,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH).with_steal(false),
        skew_spec,
    );
    let steals: u64 = steal_on.steals();
    let schedules_agree = same_homes("steal on", &reference, &steal_on.homes)
        & same_homes("steal off", &reference, &steal_off.homes);
    ok &= schedules_agree;
    eprintln!(
        "steal: {SKEW_HOMES} homes ({SKEW_HEAVY} heavy at {SKEW_MULTIPLIER}x), \
         {total_events} events, heavy fraction {:.2}; stealing {modeled_ratio:.3}x static \
         at {SKEW_WORKERS} workers (modeled on event counts), {steals} steals",
        heavy_events as f64 / total_events as f64
    );
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
        ("events_total", Json::from(total_events)),
        (
            "heavy_event_fraction",
            Json::Float(round3(heavy_events as f64 / total_events as f64)),
        ),
        (
            "modeled_makespan",
            obj([
                (
                    "method",
                    Json::from(
                        "per-home cost = events of the home's sequential run; static \
                         = largest contiguous shard sum (the service runner's \
                         sharding), stealing = work-conserving bound max(total/workers, \
                         max single home) which epoch-slice migration converges to",
                    ),
                ),
                ("static_events", Json::Float(modeled_static)),
                ("stealing_events", Json::Float(round3(modeled_stealing))),
                (
                    "stealing_speedup_over_static",
                    Json::Float(round3(modeled_ratio)),
                ),
            ]),
        ),
        ("steals", Json::from(steals)),
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
    let evicted = run_service_with(
        SKEW_HOMES,
        2,
        SERVICE_SEED,
        ServiceConfig::new(EPOCH).with_max_resident(EVICT_BUDGET),
        evict_spec,
    );
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
                 parks its controller (engine, counter sink, tables) beside a \
                 {device states, RNG} world snapshot and its pooled simulator \
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
            "FAIL: resident service runs diverged across worker counts, steal on/off, \
             eviction, the sequential reference or the batch fleet driver"
        );
        std::process::exit(1);
    }
}
