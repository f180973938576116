//! Sequential passes over a fleet, one home at a time on the calling
//! thread: the untraced reference pass, and the traced pass that times
//! calls into each layer's public functions and trait seams from here,
//! without any change to the library.

use std::collections::BTreeMap;
use std::time::Instant;

use safehome_core::journal::{ExecutionJournal, JournalWriter};
use safehome_harness::{home_seed, recover, Driver, HomeRuntime, Step};
use safehome_lint::cluster;
use safehome_types::sink::{RunCounters, TraceSink};
use safehome_types::trace::{OrderItem, TraceEventKind};
use safehome_types::{DeviceId, Routine, RoutineId, Timestamp, Value};

use crate::fleet::Fleet;

fn nanos(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// What the correctness check compares for one home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeCheck {
    pub completed: bool,
    pub digest: u64,
    /// Routines offered minus routines finished (committed or aborted).
    pub unfinished: u64,
}

impl HomeCheck {
    pub fn of(completed: bool, counters: &RunCounters) -> HomeCheck {
        HomeCheck {
            completed,
            digest: counters.digest,
            unfinished: counters
                .submitted
                .saturating_sub(counters.committed + counters.aborted),
        }
    }

    /// `true` when this run of a home agrees with its reference run: it
    /// reached quiescence, finished every offered routine and produced
    /// the reference digest.
    pub fn matches(&self, reference: &HomeCheck) -> bool {
        self.completed && self.unfinished == 0 && self.digest == reference.digest
    }
}

/// The untraced sequential pass: every home driven to quiescence by a
/// plain [`Driver`] with a [`RunCounters`] sink. Its digests are the
/// reference every runner pass must reproduce.
pub struct Sequential {
    pub homes: Vec<HomeCheck>,
    /// Wall-clock nanoseconds per home, spec build included.
    pub home_ns: Vec<u64>,
    pub wall_s: f64,
}

pub fn sequential_pass(fleet: &Fleet) -> Sequential {
    let mut homes = Vec::with_capacity(fleet.homes);
    let mut home_ns = Vec::with_capacity(fleet.homes);
    let start = Instant::now();
    for home in 0..fleet.homes {
        let t = Instant::now();
        let spec = fleet.spec(home, home_seed(fleet.seed, home as u64));
        let mut driver = Driver::with_sink(&spec, RunCounters::new());
        let completed = driver.run_to_quiescence();
        let (counters, _, _) = driver.into_output();
        home_ns.push(nanos(t));
        homes.push(HomeCheck::of(completed, &counters));
    }
    Sequential {
        homes,
        home_ns,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// A [`RunCounters`] sink that counts and times every call the driver
/// makes into it.
struct TimedSink {
    inner: RunCounters,
    calls: u64,
    ns: u64,
}

impl TimedSink {
    fn new() -> Self {
        TimedSink {
            inner: RunCounters::new(),
            calls: 0,
            ns: 0,
        }
    }

    fn timed(&mut self, f: impl FnOnce(&mut RunCounters)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.ns += nanos(t);
        self.calls += 1;
    }
}

impl TraceSink for TimedSink {
    fn record_submission(&mut self, id: RoutineId, routine: &Routine, at: Timestamp) {
        self.timed(|s| s.record_submission(id, routine, at));
    }

    fn record(&mut self, at: Timestamp, kind: TraceEventKind) {
        self.timed(|s| s.record(at, kind));
    }

    fn pop_boundary(&mut self) {
        self.inner.pop_boundary();
    }

    fn finish(
        &mut self,
        final_order: Vec<OrderItem>,
        end_states: BTreeMap<DeviceId, Value>,
        committed_states: &BTreeMap<DeviceId, Value>,
    ) {
        self.timed(|s| s.finish(final_order, end_states, committed_states));
    }
}

/// Totals of the traced pass. Times are nanoseconds summed over the
/// pass.
#[derive(Debug, Default)]
pub struct Traced {
    pub homes: Vec<HomeCheck>,
    pub wall_s: f64,
    pub spec_calls: u64,
    pub spec_ns: u64,
    pub driver_new_ns: u64,
    pub events: u64,
    pub event_ns: u64,
    pub output_ns: u64,
    pub sink_calls: u64,
    pub sink_ns: u64,
    /// Sink time spent inside event steps (part of `event_ns`).
    pub event_sink_ns: u64,
    /// Engine active routines, summed over events.
    pub active_sum: u64,
    pub active_max: u64,
    /// Homes the intra-home planner would split.
    pub intra_eligible: u64,
}

/// The traced pass: the same specs as [`sequential_pass`], each driven
/// one `step()` at a time with every layer call timed.
pub fn traced_pass(fleet: &Fleet) -> Traced {
    let planner = cluster::planner();
    let mut t = Traced::default();
    let start = Instant::now();
    for home in 0..fleet.homes {
        let seed = home_seed(fleet.seed, home as u64);
        let clock = Instant::now();
        let spec = fleet.spec(home, seed);
        t.spec_ns += nanos(clock);
        t.spec_calls += 1;

        let clock = Instant::now();
        let mut driver = Driver::with_sink(&spec, TimedSink::new());
        t.driver_new_ns += nanos(clock);
        let sink_before = driver.sink().ns;
        let completed = loop {
            let clock = Instant::now();
            let step = driver.step();
            let dt = nanos(clock);
            match step {
                Step::Event(_) => {
                    t.events += 1;
                    t.event_ns += dt;
                    let active = driver.engine().active_count() as u64;
                    t.active_sum += active;
                    t.active_max = t.active_max.max(active);
                }
                Step::Idle => {}
                Step::Quiescent => break true,
                Step::Stalled => break false,
            }
        };
        t.event_sink_ns += driver.sink().ns - sink_before;

        let clock = Instant::now();
        let (sink, _, _) = driver.into_output();
        t.output_ns += nanos(clock);
        t.sink_calls += sink.calls;
        t.sink_ns += sink.ns;
        t.homes.push(HomeCheck::of(completed, &sink.inner));

        t.intra_eligible += u64::from(planner(&spec).is_some());
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// Totals of the journal pass.
#[derive(Debug, Default)]
pub struct Journaled {
    pub homes: Vec<HomeCheck>,
    pub records: u64,
    pub bytes: u64,
    pub append_ns: u64,
    pub recover_calls: u64,
    pub recover_ns: u64,
}

/// The journal pass: each home runs journaled to quiescence, the
/// controller crashes, and `recover` rebuilds it from the journal alone;
/// the resumed run must end with the reference digest. Appends are
/// timed by re-emitting the home's records through a fresh
/// [`JournalWriter`], the append path the runtime uses.
pub fn journal_pass(fleet: &Fleet) -> Journaled {
    let mut j = Journaled::default();
    for home in 0..fleet.homes {
        let spec = fleet.spec(home, home_seed(fleet.seed, home as u64));
        let mut driver = Driver::with_journal(&spec, RunCounters::new());
        if !driver.run_to_quiescence() {
            j.homes.push(HomeCheck::of(false, driver.sink()));
            continue;
        }
        let (journal, backend) = driver.crash();
        j.records += journal.len() as u64;
        j.bytes += journal.approx_bytes() as u64;
        j.append_ns += time_appends(&journal);

        let clock = Instant::now();
        let recovered = recover(
            journal,
            spec.config.clone(),
            &spec.submissions,
            RunCounters::new(),
        );
        j.recover_ns += nanos(clock);
        j.recover_calls += 1;
        let check = match recovered {
            Ok(rec) => {
                let mut resumed = HomeRuntime::resume(rec.core, backend);
                let completed = resumed.run_to_quiescence();
                let (counters, _, _) = resumed.into_output();
                HomeCheck::of(completed, &counters)
            }
            Err(e) => {
                eprintln!("home {home}: recovery failed: {e}");
                HomeCheck {
                    completed: false,
                    digest: 0,
                    unfinished: 0,
                }
            }
        };
        j.homes.push(check);
    }
    j
}

/// Nanoseconds to append `journal`'s records, in order, to an empty
/// journal through a recording writer.
fn time_appends(journal: &ExecutionJournal) -> u64 {
    let records: Vec<_> = journal
        .events()
        .iter()
        .map(|e| (e.at, e.payload.clone()))
        .collect();
    let mut writer = JournalWriter::record(ExecutionJournal::new());
    let clock = Instant::now();
    for (at, payload) in records {
        writer.emit(at, payload);
    }
    let ns = nanos(clock);
    std::hint::black_box(writer.into_journal());
    ns
}
