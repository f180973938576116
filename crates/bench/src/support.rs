//! Shared experiment infrastructure.

use safehome_core::{EngineConfig, SchedulerKind, VisibilityModel};
use safehome_harness::{home_seed, run, Driver, HomeRun, RunSpec, Step};
use safehome_metrics::{RunMetrics, Summary};
use safehome_types::sink::{self, RunCounters};

/// The four models compared throughout §7.
pub fn main_models() -> Vec<VisibilityModel> {
    vec![
        VisibilityModel::Wv,
        VisibilityModel::Psv,
        VisibilityModel::ev(),
        VisibilityModel::Gsv { strong: false },
    ]
}

/// The failure-handling models of §7.4 (adds S-GSV).
pub fn failure_models() -> Vec<VisibilityModel> {
    vec![
        VisibilityModel::ev(),
        VisibilityModel::Psv,
        VisibilityModel::Gsv { strong: false },
        VisibilityModel::Gsv { strong: true },
    ]
}

/// The three EV schedulers of §5.
pub fn schedulers() -> Vec<SchedulerKind> {
    vec![
        SchedulerKind::Fcfs,
        SchedulerKind::Jit,
        SchedulerKind::Timeline,
    ]
}

/// Aggregated metrics over several trials of one configuration.
#[derive(Debug, Clone, Default)]
pub struct TrialAgg {
    /// Latency summary (ms), pooled across trials.
    pub latency: Summary,
    /// Per-routine normalized latency summary (latency / ideal runtime).
    pub norm_latency: Summary,
    /// Wait-time summary (ms), pooled.
    pub wait: Summary,
    /// Mean temporary incongruence across trials.
    pub temp_incongruence: f64,
    /// Mean parallelism level across trials.
    pub parallelism: f64,
    /// Mean abort rate.
    pub abort_rate: f64,
    /// Mean rollback overhead (over trials with aborts).
    pub rollback_overhead: f64,
    /// Mean order mismatch.
    pub order_mismatch: f64,
    /// Pooled stretch factors.
    pub stretch: Vec<f64>,
    /// Trials that failed to reach quiescence (must be 0).
    pub incomplete: usize,
}

/// Runs `trials` seeded runs of `make_spec` and aggregates the metrics.
pub fn run_trials(trials: u64, mut make_spec: impl FnMut(u64) -> RunSpec) -> TrialAgg {
    let mut latencies = Vec::new();
    let mut norm_latencies = Vec::new();
    let mut waits = Vec::new();
    let mut stretch = Vec::new();
    let mut agg = TrialAgg::default();
    let mut abort_trials = 0usize;
    for seed in 0..trials {
        let out = run(&make_spec(seed));
        if !out.completed {
            agg.incomplete += 1;
            continue;
        }
        let m = RunMetrics::of(&out.trace);
        latencies.extend(m.latencies_ms.iter().copied());
        norm_latencies.extend(m.normalized_latencies.iter().copied());
        waits.extend(m.waits_ms.iter().copied());
        stretch.extend(m.stretch.iter().copied());
        agg.temp_incongruence += m.temporary_incongruence;
        agg.parallelism += m.parallelism;
        agg.abort_rate += m.abort_rate;
        if m.abort_rate > 0.0 {
            agg.rollback_overhead += m.rollback_overhead;
            abort_trials += 1;
        }
        agg.order_mismatch += m.order_mismatch;
    }
    let n = (trials as usize - agg.incomplete).max(1) as f64;
    agg.temp_incongruence /= n;
    agg.parallelism /= n;
    agg.abort_rate /= n;
    agg.order_mismatch /= n;
    if abort_trials > 0 {
        agg.rollback_overhead /= abort_trials as f64;
    }
    agg.latency = Summary::of(&latencies);
    agg.norm_latency = Summary::of(&norm_latencies);
    agg.wait = Summary::of(&waits);
    agg.stretch = stretch;
    agg
}

/// Aggregated counters-path metrics over several trials of one
/// configuration — the cheap sibling of [`TrialAgg`].
///
/// Runs with the [`RunCounters`] sink instead of recording a full trace:
/// no per-event allocation, memory bounded by the home per trial, and a
/// deterministic digest that anchors the whole experiment (two builds
/// disagreeing on any event stream disagree on the digest). Carries
/// every scalar metric of [`TrialAgg`]: latency, abort rate, rollback
/// overhead, order mismatch, end-state congruence, the per-routine
/// distributions (normalized latency, waits, stretch — pooled vectors on
/// the sink since the runtime unification PR), and — via the sink's
/// in-flight write tracking — temporary incongruence and parallelism.
/// One sink is recycled across all trials ([`RunCounters::reset`]), so
/// the steady state of an experiment allocates nothing per trial.
///
/// Caveat: [`CounterAgg::latency`] pools *finished* routines (committed
/// and aborted), while [`TrialAgg::latency`] pools committed only; on
/// failure-free workloads the two are identical.
#[derive(Debug, Clone, Default)]
pub struct CounterAgg {
    /// Latency summary (ms) over finished routines, pooled across trials.
    pub latency: Summary,
    /// Per-routine normalized latency summary (latency / ideal runtime),
    /// committed routines pooled across trials.
    pub norm_latency: Summary,
    /// Wait-time summary (ms), pooled across trials.
    pub wait: Summary,
    /// Pooled stretch factors (committed routines).
    pub stretch: Vec<f64>,
    /// Mean abort rate (aborted / submitted) across trials.
    pub abort_rate: f64,
    /// Mean rollback overhead (over trials with aborts).
    pub rollback_overhead: f64,
    /// Mean order mismatch across trials.
    pub order_mismatch: f64,
    /// Mean temporary incongruence across trials (same §7.1 definition
    /// as the trace pass).
    pub temp_incongruence: f64,
    /// Mean parallelism level across trials.
    pub parallelism: f64,
    /// Trials whose end states were congruent with the committed view.
    pub congruent: usize,
    /// Trials that failed to reach quiescence (must be 0).
    pub incomplete: usize,
    /// Deterministic fold of the per-trial run digests.
    pub digest: u64,
}

/// Runs `trials` seeded runs of `make_spec` on the counters path and
/// aggregates the cheap metrics. See [`CounterAgg`] for what is (and is
/// not) available compared to [`run_trials`].
pub fn run_trials_counters(trials: u64, make_spec: impl FnMut(u64) -> RunSpec) -> CounterAgg {
    run_trials_counters_inspect(trials, make_spec, |_, _| {})
}

/// [`run_trials_counters`] with a per-trial hook over the finished
/// counters, for experiments that need a custom per-run statistic (e.g.
/// Fig. 1's end-state check) on top of the standard aggregation. The
/// hook also fires for incomplete trials (`counters.end_time` and the
/// digest are still meaningful there); aggregation skips them.
pub fn run_trials_counters_inspect(
    trials: u64,
    mut make_spec: impl FnMut(u64) -> RunSpec,
    mut inspect: impl FnMut(u64, &RunCounters),
) -> CounterAgg {
    let mut latencies = Vec::new();
    let mut norm_latencies = Vec::new();
    let mut waits = Vec::new();
    let mut agg = CounterAgg {
        digest: sink::DIGEST_SEED,
        ..CounterAgg::default()
    };
    let mut abort_trials = 0usize;
    // One sink serves every trial: `reset` keeps the vector and digest
    // buffer allocations, the same way the harness pools per-home state.
    let mut sink = RunCounters::new();
    for seed in 0..trials {
        let spec = make_spec(seed);
        let mut driver = Driver::with_sink(&spec, sink);
        let completed = driver.run_to_quiescence();
        let (c, _, _) = driver.into_output();
        inspect(seed, &c);
        if completed {
            latencies.extend(c.latencies_ms.iter().map(|&l| l as f64));
            norm_latencies.extend(c.normalized_latencies.iter().copied());
            waits.extend(c.waits_ms.iter().copied());
            agg.stretch.extend(c.stretch.iter().copied());
            agg.abort_rate += c.aborted as f64 / c.submitted.max(1) as f64;
            if c.aborted > 0 {
                agg.rollback_overhead += c.rollback_overhead();
                abort_trials += 1;
            }
            agg.order_mismatch += c.order_mismatch;
            agg.temp_incongruence += c.temporary_incongruence;
            agg.parallelism += c.parallelism;
            agg.congruent += c.congruent as usize;
            agg.digest = sink::fold_digest(agg.digest, c.digest);
        } else {
            agg.incomplete += 1;
        }
        sink = c;
        sink.reset();
    }
    let n = (trials as usize - agg.incomplete).max(1) as f64;
    agg.abort_rate /= n;
    agg.order_mismatch /= n;
    agg.temp_incongruence /= n;
    agg.parallelism /= n;
    if abort_trials > 0 {
        agg.rollback_overhead /= abort_trials as f64;
    }
    agg.latency = Summary::of(&latencies);
    agg.norm_latency = Summary::of(&norm_latencies);
    agg.wait = Summary::of(&waits);
    agg
}

/// Cores visible to this process (`std::thread::available_parallelism`),
/// clamped to at least 1.
///
/// Every bench JSON section records this value: wall-clock numbers
/// (throughput, speedups) are only comparable between runs taken on
/// similar core counts, and a regression gate reading a section needs to
/// know which machine shape produced it without consulting the file's
/// top level.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Formats a counters digest for experiment output.
pub fn digest_line(label: &str, digest: u64) -> String {
    format!("{label} counters digest: {digest:#018x}\n")
}

/// EV configuration with explicit lease toggles (Fig. 15 ablations).
pub fn ev_config(pre: bool, post: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new(VisibilityModel::ev());
    cfg.pre_lease = pre;
    cfg.post_lease = post;
    cfg
}

/// Renders one formatted table row.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>12}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Formats a float with 3 significant decimals.
pub fn f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats milliseconds as seconds.
pub fn secs(ms: f64) -> String {
    format!("{:.2}s", ms / 1_000.0)
}

/// Rounds to three decimals, for JSON artifacts.
pub fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// `true` when two fleets have byte-identical per-home results; every
/// diverging home is reported on stderr under `label`.
pub fn same_homes(label: &str, a: &[HomeRun], b: &[HomeRun]) -> bool {
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

/// Drives every home of a fleet alone, in home order, on the calling
/// thread: the per-home results no scheduler touched, and the number
/// of events each home processed ([`Step::Event`]s). The event counts
/// are the deterministic per-home costs the makespan models below take.
pub fn sequential_reference(
    homes: usize,
    fleet_seed: u64,
    make_spec: impl Fn(usize, u64) -> RunSpec,
) -> (Vec<HomeRun>, Vec<u64>) {
    let mut runs = Vec::with_capacity(homes);
    let mut events = Vec::with_capacity(homes);
    for home in 0..homes {
        let seed = home_seed(fleet_seed, home as u64);
        let spec = make_spec(home, seed);
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        let mut n = 0u64;
        let completed = loop {
            match driver.step() {
                Step::Event(_) => n += 1,
                Step::Idle => {}
                Step::Quiescent => break true,
                Step::Stalled => break false,
            }
        };
        let (counters, _, _) = driver.into_output();
        runs.push(HomeRun {
            home,
            seed,
            completed,
            counters,
        });
        events.push(n);
    }
    (runs, events)
}

/// Static batch-fleet makespan: home `i` on worker `i % workers`, the
/// largest worker sum.
pub fn round_robin_makespan(costs: &[u64], workers: usize) -> f64 {
    let mut sums = vec![0u64; workers];
    for (i, c) in costs.iter().enumerate() {
        sums[i % workers] += c;
    }
    sums.into_iter().max().unwrap_or(0) as f64
}

/// Greedy least-loaded (list-scheduling) makespan: homes in index
/// order, each onto the least-loaded worker. The batch fleet's stealer
/// converges to this — a thief takes pending work the moment it idles.
pub fn greedy_makespan(costs: &[u64], workers: usize) -> f64 {
    let mut sums = vec![0u64; workers];
    for &c in costs {
        let least = sums.iter_mut().min().expect("at least one worker");
        *least += c;
    }
    sums.into_iter().max().unwrap_or(0) as f64
}

/// Static service makespan: the service runner's contiguous shards
/// `w*homes/workers..(w+1)*homes/workers` with no stealing, the largest
/// shard sum.
pub fn contiguous_makespan(costs: &[u64], workers: usize) -> f64 {
    let homes = costs.len();
    (0..workers)
        .map(|w| {
            costs[w * homes / workers..(w + 1) * homes / workers]
                .iter()
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0) as f64
}

/// Work-conserving bound `max(total / workers, largest home)`: epoch
/// slice stealing migrates work at slice granularity, a near-preemptive
/// schedule, so the service runner converges to it.
pub fn stealing_bound_makespan(costs: &[u64], workers: usize) -> f64 {
    let total: u64 = costs.iter().sum();
    let largest = costs.iter().copied().max().unwrap_or(0);
    (total as f64 / workers as f64).max(largest as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_devices::catalog::plug_home;
    use safehome_harness::Submission;
    use safehome_types::{DeviceId, Routine, TimeDelta, Timestamp, Value};

    #[test]
    fn run_trials_aggregates() {
        let agg = run_trials(3, |seed| {
            let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()))
                .with_seed(seed);
            spec.submit(Submission::at(
                Routine::builder("r")
                    .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
                    .build(),
                Timestamp::ZERO,
            ));
            spec
        });
        assert_eq!(agg.incomplete, 0);
        assert_eq!(agg.latency.n, 3, "one committed routine per trial");
        assert!(agg.latency.mean >= 100.0);
        assert_eq!(agg.abort_rate, 0.0);
    }

    #[test]
    fn counters_path_agrees_with_trace_path() {
        use safehome_workloads::MicroParams;
        // A failure-heavy micro workload: aborts, rollbacks and order
        // mismatch are all non-trivial, and the two trial runners must
        // agree on every metric both can compute.
        let p = MicroParams {
            routines: 20,
            fail_pct: 0.25,
            long_mean: safehome_types::TimeDelta::from_mins(2),
            ..MicroParams::default()
        };
        let mk = |seed| p.build(EngineConfig::new(VisibilityModel::ev()), seed);
        let trace = run_trials(4, mk);
        let cheap = run_trials_counters(4, mk);
        assert_eq!(cheap.incomplete, trace.incomplete);
        assert!((cheap.abort_rate - trace.abort_rate).abs() < 1e-12);
        assert!((cheap.rollback_overhead - trace.rollback_overhead).abs() < 1e-12);
        assert!((cheap.order_mismatch - trace.order_mismatch).abs() < 1e-12);
        // The in-flight write tracking must reproduce the trace pass's
        // temporary-incongruence and parallelism numbers exactly, even
        // under aborts and rollback writes.
        assert!(trace.temp_incongruence > 0.0, "workload must be contended");
        assert!((cheap.temp_incongruence - trace.temp_incongruence).abs() < 1e-12);
        assert!((cheap.parallelism - trace.parallelism).abs() < 1e-12);
        // The per-routine distributions must agree too: normalized
        // latency and stretch (committed only) and waits (started) come
        // from the same timestamps and ideal runtimes on both paths.
        assert_eq!(cheap.norm_latency.n, trace.norm_latency.n);
        assert!((cheap.norm_latency.mean - trace.norm_latency.mean).abs() < 1e-9);
        assert!((cheap.norm_latency.p95 - trace.norm_latency.p95).abs() < 1e-9);
        assert_eq!(cheap.wait.n, trace.wait.n);
        assert!((cheap.wait.mean - trace.wait.mean).abs() < 1e-9);
        let mut a = cheap.stretch.clone();
        let mut b = trace.stretch.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        assert_eq!(a, b, "pooled stretch factors are the same multiset");
        // Same spec stream → same digest, every time.
        assert_eq!(cheap.digest, run_trials_counters(4, mk).digest);
    }

    #[test]
    fn counters_end_states_match_trace_end_states() {
        use safehome_harness::run;
        use safehome_workloads::MicroParams;
        let p = MicroParams {
            routines: 10,
            ..MicroParams::default()
        };
        let spec = p.build(EngineConfig::new(VisibilityModel::Wv), 7);
        let full = run(&spec);
        let spec = p.build(EngineConfig::new(VisibilityModel::Wv), 7);
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        driver.run_to_quiescence();
        let (c, _, _) = driver.into_output();
        assert_eq!(c.end_states, full.trace.end_states);
    }

    #[test]
    fn counters_latency_matches_trace_latency_without_failures() {
        use safehome_workloads::MicroParams;
        let p = MicroParams {
            routines: 15,
            ..MicroParams::default()
        };
        let mk = |seed| p.build(EngineConfig::new(VisibilityModel::Psv), seed);
        let trace = run_trials(3, mk);
        let cheap = run_trials_counters(3, mk);
        assert_eq!(cheap.latency.n, trace.latency.n);
        assert!((cheap.latency.mean - trace.latency.mean).abs() < 1e-9);
        assert_eq!(cheap.congruent, 3);
    }

    #[test]
    fn model_sets_are_distinct() {
        assert_eq!(main_models().len(), 4);
        assert_eq!(failure_models().len(), 4);
        assert_eq!(schedulers().len(), 3);
    }

    #[test]
    fn makespan_models_on_a_hand_built_fleet() {
        let costs = [10, 1, 1, 1];
        assert_eq!(round_robin_makespan(&costs, 2), 11.0);
        assert_eq!(greedy_makespan(&costs, 2), 10.0);
        assert_eq!(contiguous_makespan(&costs, 2), 11.0);
        assert_eq!(stealing_bound_makespan(&costs, 2), 10.0);
        // Even costs: every model splits them perfectly.
        let even = [3; 8];
        for model in [
            round_robin_makespan,
            greedy_makespan,
            contiguous_makespan,
            stealing_bound_makespan,
        ] {
            assert_eq!(model(&even, 4), 6.0);
        }
        // Round-robin and contiguous disagree on where the heavy homes
        // land; the stealing bound is fractional when work does not split.
        let front = [5, 5, 1, 1];
        assert_eq!(round_robin_makespan(&front, 2), 6.0);
        assert_eq!(contiguous_makespan(&front, 2), 10.0);
        assert_eq!(stealing_bound_makespan(&[2, 1], 2), 2.0);
        assert_eq!(stealing_bound_makespan(&[1, 1, 1], 2), 1.5);
    }

    #[test]
    fn sequential_reference_matches_the_fleet_and_counts_events() {
        let spec = |_: usize, seed: u64| {
            let mut spec = RunSpec::new(plug_home(2), EngineConfig::new(VisibilityModel::ev()))
                .with_seed(seed);
            for i in 0..=seed % 3 {
                spec.submit(Submission::at(
                    Routine::builder("r")
                        .set(DeviceId(0), Value::ON, TimeDelta::from_millis(100))
                        .build(),
                    Timestamp::from_millis(i * 50),
                ));
            }
            spec
        };
        let (reference, events) = sequential_reference(6, 9, spec);
        assert_eq!(reference, safehome_harness::run_fleet(6, 2, 9, spec).homes);
        assert!(reference.iter().all(|h| h.completed));
        assert!(events.iter().all(|&n| n > 0));
        // Same inputs, same counts: the costs are deterministic.
        assert_eq!(sequential_reference(6, 9, spec).1, events);
        assert!(same_homes("self", &reference, &reference));
        assert!(!same_homes("prefix", &reference, &reference[..5]));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(round3(1.23456), 1.235);
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(secs(2500.0), "2.50s");
        assert!(row(&["a".into(), "b".into()]).contains('|'));
    }
}
