//! `fleet_bench` — deterministic checks of the batch fleet driver.
//!
//! Wall-clock throughput is perfbench's job (`BENCHMARK.json`); this bin
//! checks what must hold on any machine and writes it to one JSON
//! artifact (`BENCH_fleet.json`) plus a per-home digest sidecar:
//!
//! 1. **Morning fleet** — N §7.2 morning homes built from one shared
//!    [`FleetTemplate`] through `run_fleet` at 1, 2 and 4 workers: per-home
//!    results identical across worker counts, and, on a machine with more
//!    than one core, the best multi-worker run faster than the
//!    single-worker one (two timings of the same run, never a baseline).
//! 2. **Journal** — the same homes driven one by one with the execution
//!    journal on: each home's counters equal its unjournaled run, and the
//!    journaled rate is recorded next to the same run's single-worker
//!    rate so the gate can compare the two.
//! 3. **Lint** — `safehome-lint` over the same homes: no Error-severity
//!    diagnostic, the lint-gated fleet reproduces the ungated one byte for
//!    byte, and lints/sec for the one baseline gate left on it.
//! 4. **Neighborhood** (`steal_vs_static`) — the correlated-outage fleet,
//!    whose per-home cost is heavy-tailed. A sequential pass drives each
//!    home alone and counts its events; the stealing fleet at 2 and 4
//!    workers must reproduce it per home. The modeled speedup of stealing
//!    over static sharding takes those event counts as per-home costs
//!    (static = largest round-robin worker sum, stealing = greedy
//!    least-loaded schedule, what the stealer converges to), so it is a
//!    pure function of the fleet and cannot flake.
//!
//! The sidecar (`<out>.digests.tsv`) has one `section home seed digest`
//! line per home (morning, neighborhood, journal), so a re-run diffs to
//! exactly the homes whose event streams changed.
//!
//! Usage:
//! ```text
//! cargo run -p safehome-bench --release --bin fleet_bench \
//!     [out.json] [homes] [neighborhood_homes] [--expect-digest-change]
//! ```
//!
//! `--expect-digest-change` stamps `expect_digest_change: true` into the
//! JSON: pass it (and commit the regenerated sidecar) when a semantic
//! change intentionally moves per-home digests — the gate fails sidecar
//! diffs that arrive without the marker.
//!
//! Exits non-zero when any home fails to reach quiescence, per-home
//! results differ across worker counts, journaling, the lint gate or the
//! sequential reference, a bundled home carries a lint error, or
//! multi-worker runs are not faster than one worker on a multi-core
//! machine.

use std::time::Instant;

use safehome_bench::support::{
    available_parallelism, greedy_makespan, round3, round_robin_makespan, same_homes,
    sequential_reference,
};
use safehome_core::{EngineConfig, VisibilityModel};
use safehome_harness::{run_fleet, run_fleet_gated, Driver, FleetResult};
use safehome_metrics::stats::percentile;
use safehome_types::json::{obj, Json};
use safehome_types::sink::RunCounters;
use safehome_workloads::{neighborhood_home, FleetTemplate, NeighborhoodParams, NeighborhoodPlan};

/// Worker-thread counts of the morning fleet.
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
/// Fleet seed: every thread count replays the identical fleet.
const FLEET_SEED: u64 = 0x5afe_f1ee;
/// Fleet seed of the neighborhood (steal-vs-static) section.
const NEIGHBORHOOD_SEED: u64 = 0x5afe_0b0d;
/// Worker count of the steal-vs-static model.
const COMPARE_WORKERS: usize = 4;

fn outcomes_obj(fleet: &FleetResult) -> Json {
    obj([
        ("committed", Json::from(fleet.committed())),
        ("aborted", Json::from(fleet.aborted())),
        (
            "congruent_homes",
            Json::from(fleet.congruent_homes() as u64),
        ),
    ])
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let expect_digest_change = {
        let before = args.len();
        args.retain(|a| a != "--expect-digest-change");
        args.len() != before
    };
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let homes: usize = args
        .get(1)
        .map(|s| s.parse().expect("homes must be an integer"))
        .unwrap_or(1000);
    let n_homes: usize = args
        .get(2)
        .map(|s| s.parse().expect("neighborhood homes must be an integer"))
        .unwrap_or(512);

    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let morning_spec = |_: usize, seed: u64| template.home_spec(seed);
    let cpus = available_parallelism();
    let mut ok = true;

    // Warmup: the first timed run should not pay allocator and
    // page-fault costs the later ones skip.
    run_fleet(homes.clamp(4, 64), 2, FLEET_SEED, morning_spec);

    // ---- Morning fleet ---------------------------------------------
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for workers in WORKER_COUNTS {
        let start = Instant::now();
        let result = run_fleet(homes, workers, FLEET_SEED, morning_spec);
        let elapsed = start.elapsed().as_secs_f64();
        let rate = homes as f64 / elapsed;
        eprintln!(
            "{workers} worker(s): {homes} homes in {elapsed:.3}s = {rate:.1} homes/sec \
             (digest {:#018x})",
            result.digest()
        );
        assert!(
            result.all_completed(),
            "{workers} workers: some homes failed to reach quiescence"
        );
        rows.push(obj([
            ("workers", Json::from(workers as u64)),
            ("elapsed_s", Json::Float(round3(elapsed))),
            ("homes_per_sec", Json::Float(round3(rate))),
        ]));
        runs.push((rate, result));
    }
    let (single_rate, base) = &runs[0];
    let single_rate = *single_rate;
    let mut deterministic = true;
    for (workers, (_, result)) in WORKER_COUNTS.iter().zip(&runs).skip(1) {
        deterministic &= same_homes(&format!("{workers} workers"), &base.homes, &result.homes);
    }
    ok &= deterministic;
    let best_multi = runs[1..].iter().map(|&(r, _)| r).fold(f64::MIN, f64::max);
    eprintln!(
        "speedup: best multi-worker {:.2}x over single-worker ({cpus} core(s))",
        best_multi / single_rate
    );

    // ---- Journal ---------------------------------------------------
    let mut journal_digest_rows = Vec::with_capacity(homes);
    let mut journal_neutral = true;
    let mut journal_records = 0usize;
    let journal_start = Instant::now();
    for h in &base.homes {
        let spec = template.home_spec(h.seed);
        let mut driver = Driver::with_journal(&spec, RunCounters::new());
        assert!(
            driver.run_to_quiescence(),
            "journaled home {} failed to quiesce",
            h.home
        );
        journal_records += driver.journal().expect("journaled driver").len();
        let (counters, _, _) = driver.into_output();
        if counters != h.counters {
            eprintln!("journal: home {} diverged from its unjournaled run", h.home);
            journal_neutral = false;
        }
        journal_digest_rows.push((h.home, h.seed, counters.digest));
    }
    let journal_rate = homes as f64 / journal_start.elapsed().as_secs_f64();
    eprintln!(
        "journal: {journal_rate:.1} homes/sec ({:.1} records/home, {:.2}x the \
         unjournaled single-worker rate)",
        journal_records as f64 / homes as f64,
        journal_rate / single_rate
    );
    ok &= journal_neutral;

    // ---- Lint ------------------------------------------------------
    let mut lint_diagnostics = 0usize;
    let mut lint_conflicts = 0usize;
    let mut lint_errors = 0usize;
    let lint_start = Instant::now();
    for h in &base.homes {
        let report = safehome_lint::analyze_spec(&template.home_spec(h.seed));
        lint_diagnostics += report.diagnostics.len();
        lint_conflicts += report.conflicts.len();
        lint_errors += report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= safehome_lint::Severity::Error)
            .count();
    }
    let lint_rate = homes as f64 / lint_start.elapsed().as_secs_f64();
    eprintln!(
        "lint: {lint_rate:.1} lints/sec ({lint_diagnostics} diagnostics, {lint_conflicts} \
         predicted conflict pairs, {lint_errors} errors)"
    );
    ok &= lint_errors == 0;
    let gate_digest_neutral = match run_fleet_gated(
        homes,
        2,
        FLEET_SEED,
        |_, spec| safehome_lint::check(spec),
        morning_spec,
    ) {
        Ok(result) => same_homes("lint-gated fleet", &base.homes, &result.homes),
        Err(rejection) => {
            eprintln!("lint gate rejected a bundled home: {rejection}");
            false
        }
    };
    ok &= gate_digest_neutral;

    // ---- Neighborhood ----------------------------------------------
    let params = NeighborhoodParams::default();
    let plan = NeighborhoodPlan::generate(NEIGHBORHOOD_SEED, n_homes, &params);
    let neighborhood_spec =
        |home: usize, seed: u64| neighborhood_home(&template, &plan, home, seed);
    let (reference, events) = sequential_reference(n_homes, NEIGHBORHOOD_SEED, neighborhood_spec);
    assert!(
        reference.iter().all(|h| h.completed),
        "a neighborhood home failed to quiesce"
    );
    let stealing4 = run_fleet(
        n_homes,
        COMPARE_WORKERS,
        NEIGHBORHOOD_SEED,
        neighborhood_spec,
    );
    let stealing2 = run_fleet(n_homes, 2, NEIGHBORHOOD_SEED, neighborhood_spec);
    let steals: u64 = stealing4.worker_stats.iter().map(|s| s.steals).sum();
    let neighborhood_agree = same_homes("neighborhood @4", &reference, &stealing4.homes)
        & same_homes("neighborhood @2", &reference, &stealing2.homes);
    ok &= neighborhood_agree;
    let modeled_static = round_robin_makespan(&events, COMPARE_WORKERS);
    let modeled_stealing = greedy_makespan(&events, COMPARE_WORKERS);
    let modeled_ratio = modeled_static / modeled_stealing;
    eprintln!(
        "neighborhood: {n_homes} homes, {} hit by correlated outages, {} events \
         (min home {}, max home {}); stealing {modeled_ratio:.3}x static at \
         {COMPARE_WORKERS} workers (modeled on event counts), {steals} steals",
        plan.affected(),
        events.iter().sum::<u64>(),
        events.iter().min().unwrap_or(&0),
        events.iter().max().unwrap_or(&0),
    );
    let reference_fleet = FleetResult {
        homes: reference,
        workers: 1,
        worker_stats: Vec::new(),
    };

    let lat_ms: Vec<f64> = base.latencies_ms().iter().map(|&l| l as f64).collect();
    let doc = obj([
        ("benchmark", Json::from("fleet_morning")),
        (
            "description",
            Json::from(
                "deterministic checks of the work-stealing batch fleet driver over the \
                 §7.2 morning scenario (29 routines / 31 devices per home, per-home \
                 jitter) and the correlated neighborhood-outage fleet; wall-clock \
                 throughput is measured by perfbench",
            ),
        ),
        ("homes", Json::from(homes as u64)),
        ("fleet_seed", Json::from(FLEET_SEED)),
        ("available_parallelism", Json::from(cpus as u64)),
        ("results", Json::Arr(rows)),
        (
            "speedup_best_multi_over_single",
            Json::Float(round3(best_multi / single_rate)),
        ),
        ("deterministic_across_workers", Json::from(deterministic)),
        ("expect_digest_change", Json::from(expect_digest_change)),
        (
            "routine_latency_ms",
            obj([
                ("n", Json::from(lat_ms.len() as u64)),
                ("p50", Json::Float(round3(percentile(&lat_ms, 50.0)))),
                ("p90", Json::Float(round3(percentile(&lat_ms, 90.0)))),
                ("p99", Json::Float(round3(percentile(&lat_ms, 99.0)))),
            ]),
        ),
        ("outcomes", outcomes_obj(base)),
        (
            "steal_vs_static",
            obj([
                ("scenario", Json::from("neighborhood_morning")),
                ("homes", Json::from(n_homes as u64)),
                ("fleet_seed", Json::from(NEIGHBORHOOD_SEED)),
                ("workers", Json::from(COMPARE_WORKERS as u64)),
                ("affected_homes", Json::from(plan.affected() as u64)),
                ("events_total", Json::from(events.iter().sum::<u64>())),
                (
                    "modeled_makespan",
                    obj([
                        (
                            "method",
                            Json::from(
                                "per-home cost = events of the home's sequential run; \
                                 static = largest round-robin worker sum, stealing = \
                                 greedy least-loaded schedule (what the stealer \
                                 converges to)",
                            ),
                        ),
                        ("static_events", Json::Float(modeled_static)),
                        ("stealing_events", Json::Float(modeled_stealing)),
                        (
                            "stealing_speedup_over_static",
                            Json::Float(round3(modeled_ratio)),
                        ),
                    ]),
                ),
                ("steals", Json::from(steals)),
                (
                    "deterministic_across_workers",
                    Json::from(neighborhood_agree),
                ),
                ("outcomes", outcomes_obj(&reference_fleet)),
            ]),
        ),
        (
            "journal",
            obj([
                (
                    "description",
                    Json::from(
                        "the morning homes driven one by one with the execution \
                         journal on; digest-neutral per home, and the journaled rate \
                         is compared with the same run's unjournaled single-worker rate",
                    ),
                ),
                ("homes_per_sec_single", Json::Float(round3(journal_rate))),
                (
                    "unjournaled_homes_per_sec_single",
                    Json::Float(round3(single_rate)),
                ),
                (
                    "overhead_ratio_vs_unjournaled",
                    Json::Float(round3(journal_rate / single_rate)),
                ),
                (
                    "records_per_home_avg",
                    Json::Float(round3(journal_records as f64 / homes as f64)),
                ),
                ("digest_neutral", Json::from(journal_neutral)),
            ]),
        ),
        (
            "lint",
            obj([
                (
                    "description",
                    Json::from(
                        "safehome-lint static analysis over the same template homes \
                         (footprints, conflict-window prediction, hazard rules; spec \
                         construction included); gate_digest_neutral checks that the \
                         lint-gated fleet driver reproduces the ungated per-home \
                         results byte for byte",
                    ),
                ),
                ("lints_per_sec", Json::Float(round3(lint_rate))),
                ("diagnostics_total", Json::from(lint_diagnostics as u64)),
                ("conflict_pairs_total", Json::from(lint_conflicts as u64)),
                ("errors", Json::from(lint_errors as u64)),
                ("gate_digest_neutral", Json::from(gate_digest_neutral)),
            ]),
        ),
        (
            "neighborhood_params",
            obj([
                ("cluster_size", Json::from(params.cluster_size as u64)),
                ("outage_p", Json::Float(params.outage_p)),
                ("attach_p", Json::Float(params.attach_p)),
                ("fail_slow_p", Json::Float(params.fail_slow_p)),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string_pretty() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    let digest_path = format!("{}.digests.tsv", out_path.trim_end_matches(".json"));
    let mut sidecar = String::from("# section\thome\tseed\tdigest\n");
    for (section, fleet) in [("morning", base), ("neighborhood", &reference_fleet)] {
        for h in &fleet.homes {
            sidecar.push_str(&format!(
                "{section}\t{}\t{:#018x}\t{:#018x}\n",
                h.home, h.seed, h.counters.digest
            ));
        }
    }
    for (home, seed, digest) in &journal_digest_rows {
        sidecar.push_str(&format!("journal\t{home}\t{seed:#018x}\t{digest:#018x}\n"));
    }
    if let Err(e) = std::fs::write(&digest_path, sidecar) {
        eprintln!("cannot write {digest_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {digest_path}");
    if !ok {
        eprintln!(
            "FAIL: per-home results diverged across worker counts, journaling, the lint \
             gate or the sequential reference (or bundled homes carried lint errors)"
        );
        std::process::exit(1);
    }
    if cpus > 1 && best_multi <= single_rate {
        eprintln!(
            "FAIL: multi-worker throughput ({best_multi:.1}/s) not above single-worker \
             ({single_rate:.1}/s) on a {cpus}-core machine"
        );
        std::process::exit(1);
    }
}
