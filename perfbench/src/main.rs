//! SafeHome benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up builds the fleet and runs one untimed warm-up pass of the
//! workload's runner, three times over; `setup_s` is their median. The
//! timed window then repeats runner passes for `--seconds`. An untraced
//! sequential pass afterwards gives the reference digests: every home of
//! every runner pass must reach quiescence, finish every routine it was
//! offered and match its reference digest, and each miss is a failed
//! operation. With `--trace 1` a traced sequential pass (and, on the
//! journaled workload, a crash/recover pass) runs as well, and the
//! per-layer metrics are printed instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero when any operation failed.

mod fleet;
mod layers;

use std::time::Instant;

use safehome_types::json::{obj, Json};

use fleet::{Fleet, Pass, Scale, Workload};
use layers::{
    journal_pass, sequential_pass, traced_pass, HomeCheck, Journaled, Sequential, Traced,
};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    perturb_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale tiny] [--perturb-reference]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut perturb_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--perturb-reference" => perturb_reference = true,
            _ => {
                let value = args.next().unwrap_or_else(|| usage());
                match flag.as_str() {
                    "--workload" => workload = Workload::parse(&value),
                    "--seed" => seed = value.parse::<u64>().ok(),
                    "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
                    "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
                    "--scale" if value == "tiny" => scale = Scale::Tiny,
                    _ => usage(),
                }
            }
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            scale,
            perturb_reference,
        },
        _ => usage(),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted, non-empty sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(String::from)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A runner pass reduced to what the report needs, so that no pass's
/// per-home results outlive it and inflate the peak RSS.
struct PassSummary {
    wall_s: f64,
    finished: u64,
    steals: u64,
    service: Option<fleet::ServiceStats>,
    homes: Vec<HomeCheck>,
}

impl PassSummary {
    fn of(pass: &Pass) -> PassSummary {
        PassSummary {
            wall_s: pass.wall_s,
            finished: pass.finished(),
            steals: pass.steals,
            service: pass.service,
            homes: pass
                .homes
                .iter()
                .map(|h| HomeCheck::of(h.completed, &h.counters))
                .collect(),
        }
    }
}

/// The deterministic end-to-end metrics of one runner pass.
struct Outcome {
    samples: usize,
    latency_p50_ms: f64,
    latency_p99_ms: f64,
    abort_rate: f64,
    congruent_home_frac: f64,
}

impl Outcome {
    /// `failing[h]` tells whether home `h`'s spec injects device
    /// failures.
    fn of(pass: &Pass, failing: &[bool]) -> Outcome {
        let mut latencies: Vec<u64> = pass
            .homes
            .iter()
            .flat_map(|h| h.counters.latencies_ms.iter().copied())
            .collect();
        latencies.sort_unstable();
        assert!(!latencies.is_empty(), "a pass finished no routine");
        let homes = pass.homes.len() as f64;
        // Under eventual visibility only device failures abort routines.
        // Averaging each failing home's own abort ratio keeps out the
        // binomial draw of how many homes fail, and keeps the few heavy
        // homes of the skewed fleet from setting the figure alone.
        let ratios: Vec<f64> = pass
            .homes
            .iter()
            .filter(|h| failing[h.home])
            .map(|h| {
                let finished = h.counters.committed + h.counters.aborted;
                h.counters.aborted as f64 / finished.max(1) as f64
            })
            .collect();
        let abort_rate = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let congruent = pass.homes.iter().filter(|h| h.counters.congruent).count();
        Outcome {
            samples: latencies.len(),
            latency_p50_ms: percentile(&latencies, 50.0) as f64,
            latency_p99_ms: percentile(&latencies, 99.0) as f64,
            abort_rate,
            congruent_home_frac: congruent as f64 / homes,
        }
    }
}

/// Counts the homes of `run` that do not match `reference`.
fn misses(run: &[HomeCheck], reference: &[HomeCheck]) -> u64 {
    if run.len() != reference.len() {
        return reference.len().max(run.len()) as u64;
    }
    run.iter()
        .zip(reference)
        .filter(|(r, reference)| !r.matches(reference))
        .count() as u64
}

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::Float(value)), ("unit", Json::from(unit))])
}

/// One printed metric: name, value, unit.
type Row = (&'static str, f64, &'static str);

/// The per-layer metrics. `busy_frac` goes to the row of whichever
/// runner the workload uses; rows of layers that did not run are 0.
fn layer_rows(
    timed: &[PassSummary],
    busy_frac: f64,
    home_ns: &[u64],
    sequential_s: f64,
    traced: &Traced,
    journaled: &Journaled,
) -> Vec<Row> {
    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let median_of =
        |f: fn(&PassSummary) -> u64| median(timed.iter().map(|p| f(p) as f64).collect());
    let steals = median_of(|p| p.steals);
    let (fleet, service) = if timed[0].service.is_some() {
        ((0.0, 0.0), (steals, busy_frac))
    } else {
        ((steals, busy_frac), (0.0, 0.0))
    };
    let homes = home_ns.len() as u64;
    let mut sorted_ns = home_ns.to_vec();
    sorted_ns.sort_unstable();
    let home_ms = |p: f64| percentile(&sorted_ns, p) as f64 / 1e6;
    vec![
        ("spec.calls", traced.spec_calls as f64, "count"),
        ("spec.ns", per(traced.spec_ns, traced.spec_calls), "ns"),
        ("fleet.steals", fleet.0, "count"),
        ("fleet.busy_frac", fleet.1, "ratio"),
        (
            "service.slices",
            median_of(|p| p.service.map_or(0, |s| s.slices)),
            "count",
        ),
        ("service.steals", service.0, "count"),
        ("service.busy_frac", service.1, "ratio"),
        (
            "service.evictions",
            median_of(|p| p.service.map_or(0, |s| s.evictions)),
            "count",
        ),
        (
            "service.recoveries",
            median_of(|p| p.service.map_or(0, |s| s.recoveries)),
            "count",
        ),
        (
            "service.peak_resident_homes",
            median_of(|p| p.service.map_or(0, |s| s.peak_resident_homes)),
            "count",
        ),
        (
            "service.resident_home_bytes",
            median_of(|p| p.service.map_or(0, |s| s.resident_home_bytes)),
            "bytes",
        ),
        (
            "service.evicted_home_bytes",
            median_of(|p| p.service.map_or(0, |s| s.evicted_home_bytes)),
            "bytes",
        ),
        ("driver.events", traced.events as f64, "count"),
        ("driver.new.ns", per(traced.driver_new_ns, homes), "ns"),
        ("driver.event.ns", per(traced.event_ns, traced.events), "ns"),
        ("driver.output.ns", per(traced.output_ns, homes), "ns"),
        ("driver.home_ms.p50", home_ms(50.0), "ms"),
        ("driver.home_ms.p99", home_ms(99.0), "ms"),
        ("sink.calls", traced.sink_calls as f64, "count"),
        ("sink.ns", per(traced.sink_ns, traced.sink_calls), "ns"),
        (
            "engine.active.mean",
            per(traced.active_sum, traced.events),
            "count",
        ),
        ("engine.active.max", traced.active_max as f64, "count"),
        (
            "engine.event_self.ns",
            per(traced.event_ns - traced.event_sink_ns, traced.events),
            "ns",
        ),
        ("journal.records", journaled.records as f64, "count"),
        ("journal.bytes", journaled.bytes as f64, "bytes"),
        (
            "journal.append.ns",
            per(journaled.append_ns, journaled.records),
            "ns",
        ),
        ("recover.calls", journaled.recover_calls as f64, "count"),
        (
            "recover.ns",
            per(journaled.recover_ns, journaled.recover_calls),
            "ns",
        ),
        (
            "recover.ns_per_record",
            per(journaled.recover_ns, journaled.records),
            "ns",
        ),
        (
            "intra.eligible_frac",
            per(traced.intra_eligible, homes),
            "ratio",
        ),
        (
            "trace.overhead_frac",
            traced.wall_s / sequential_s - 1.0,
            "ratio",
        ),
    ]
}

fn main() {
    let started = Instant::now();
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more workers than cores: an oversubscribed run measures the
    // scheduler of the machine, not the program.
    let workers = cores.min(2);
    println!(
        "env workload={} seed={} seconds={} trace={} available_parallelism={cores} \
         workers={workers} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
    );

    // Set-up: fleet build plus one warm-up runner pass, repeated.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut passes = Vec::new();
    let mut fleet = None;
    for rep in 0..SETUP_REPS {
        let clock = if rep == 0 { started } else { Instant::now() };
        let built = Fleet::build(args.workload, args.seed, args.scale);
        let warm = built.run(workers);
        setup_s.push(clock.elapsed().as_secs_f64());
        passes.push(PassSummary::of(&warm));
        fleet = Some(built);
    }
    let fleet = fleet.expect("at least one set-up");

    let failing: Vec<bool> = (0..fleet.homes)
        .map(|h| fleet.injects_failures(h))
        .collect();

    // Timed window.
    let mut outcome = None;
    let window = Instant::now();
    let timed_from = passes.len();
    while outcome.is_none() || window.elapsed().as_secs_f64() < args.seconds {
        let pass = fleet.run(workers);
        if outcome.is_none() {
            outcome = Some(Outcome::of(&pass, &failing));
        }
        passes.push(PassSummary::of(&pass));
    }
    let peak_rss_mb = peak_rss_mb();
    let outcome = outcome.expect("at least one timed pass");
    let timed = &passes[timed_from..];

    // Reference and correctness.
    let Sequential {
        homes: mut reference,
        home_ns,
        wall_s: sequential_s,
    } = sequential_pass(&fleet);
    if args.perturb_reference {
        reference[0].digest ^= 1;
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for pass in &passes {
        attempted += pass.homes.len() as u64;
        failed += misses(&pass.homes, &reference);
    }

    let runner_s = median(timed.iter().map(|p| p.wall_s).collect());
    let routines_per_s = median(timed.iter().map(|p| p.finished as f64 / p.wall_s).collect());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "report homes={} latency_samples={} pass_walls_s={} (first {SETUP_REPS} are warm-up)",
        fleet.homes,
        outcome.samples,
        walls.join(","),
    );

    let rows = if !args.trace {
        vec![
            ("setup_s", median(setup_s), "s"),
            ("routines_per_s", routines_per_s, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("latency_p50_ms", outcome.latency_p50_ms, "ms"),
            ("latency_p99_ms", outcome.latency_p99_ms, "ms"),
            ("abort_rate", outcome.abort_rate, "ratio"),
            ("congruent_home_frac", outcome.congruent_home_frac, "ratio"),
        ]
    } else {
        let traced = traced_pass(&fleet);
        attempted += traced.homes.len() as u64;
        failed += misses(&traced.homes, &reference);
        let journaled = if fleet.journaled() {
            let j = journal_pass(&fleet);
            attempted += j.homes.len() as u64;
            failed += misses(&j.homes, &reference);
            j
        } else {
            Journaled::default()
        };
        let busy_frac = home_ns.iter().sum::<u64>() as f64 / 1e9 / (workers as f64 * runner_s);
        layer_rows(
            timed,
            busy_frac,
            &home_ns,
            sequential_s,
            &traced,
            &journaled,
        )
    };
    let metrics = Json::Obj(
        rows.into_iter()
            .map(|(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect(),
    );

    let correct = failed == 0;
    let result = obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    if !correct {
        eprintln!("perfbench: {failed} of {attempted} home runs did not match their reference");
        std::process::exit(1);
    }
}
