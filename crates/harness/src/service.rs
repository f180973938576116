//! Resident-fleet service runner: time-sliced open-loop execution with
//! work stealing and eviction of cold homes.
//!
//! [`fleet::run_fleet`](crate::fleet::run_fleet) is a batch driver: a
//! worker picks a home, runs it to quiescence, and only then picks the
//! next. That is the right shape for throughput experiments, but a
//! serving deployment looks different — every home stays *resident* for
//! the whole day, and traffic arrives open-loop, so no single home may
//! monopolize a worker while the rest fall behind.
//!
//! [`run_service`] keeps all of a worker's homes alive at once and
//! advances them in **epoch slices**: each worker owns a contiguous
//! shard of homes and a shard timer queue ([`EventQueue`]) of
//! `(next-event-time, home)` entries. The worker pops the earliest
//! entry, advances that home only through events due before the next
//! epoch boundary, then re-parks it at its next pending event. A home
//! with an hour-long gap costs nothing during the gap; a home in a
//! burst gets exactly one epoch of attention before its neighbours run.
//!
//! # Work stealing
//!
//! The shard timer queues are shared behind cheap mutexes: when a
//! worker's own queue is empty ([`ServiceConfig::steal`], the default),
//! it sweeps the other shards and steals the earliest parked
//! `(next-event-time, home)` entry, stepping that home through exactly
//! one epoch slice the way the owner would, then re-parking it **into
//! its home shard**. Homes never migrate — only slices do — so a skewed
//! fleet (one burst-heavy "giant factory" home per shard) no longer
//! stalls a whole worker while its siblings idle.
//!
//! # Determinism
//!
//! Stealing cannot perturb results because each home's slice sequence is
//! an intrinsic function of the home alone. A slice pops a home, runs it
//! up to the next absolute epoch boundary **after the home's own
//! earliest pending event**, and re-parks it at its next event: both the
//! boundary and the re-park time come from the home's private event
//! queue, never from the shard queue's clock. The shard queue is purely
//! an advisory scheduler — concurrent pops can clamp a re-parked entry's
//! *shard-queue* timestamp forward ([`EventQueue`] never schedules in its
//! past), which may reorder slices *between* homes, but homes share no
//! state, so per-home counters, digests and even the total slice count
//! are byte-identical across worker counts, steal on/off and any
//! interleaving (asserted by tests here and by
//! `tests/service_equivalence.rs`).
//!
//! # Eviction
//!
//! With [`ServiceConfig::max_resident`] set, every home runs journaled
//! (digest-neutral, see [`crate::journal`]) and the runner bounds how
//! many keep their pooled simulator state hot. Between slices, a parked
//! home that is *cold* — engine quiescent, nothing pending but future
//! workload submissions, no failure plan, absolute arrivals only — may
//! be **evicted**: its controller ([`RuntimeCore`]: engine, counter
//! sink, submission tables and the compact journal) is parked whole
//! ([`HomeRuntime::park`]), its world collapses to the per-device
//! states plus the RNG position, and its queue and device storage go
//! back to the thread pool ([`SimBackend::into_world_snapshot`]). When
//! the home's next timer fires, the popping worker (owner or thief)
//! rebuilds it without replaying anything: [`SimBackend::resurrect`]
//! restores the world, [`HomeRuntime::resume`] rebinds the parked
//! controller, and [`HomeRuntime::reschedule_arrivals`] re-schedules
//! the unsubmitted arrivals at their original absolute times, so the
//! continuation is event-for-event identical to a never-evicted run.
//! The journal stays the crash-recovery source of truth: a test replays
//! a copy of it at every eviction of a small fleet and checks the result
//! equals the parked controller. Victims are chosen coldest-first
//! (farthest next-event time) across *every* shard's parked candidates
//! whenever the fleet-wide resident count exceeds the budget — the
//! budget is global, and a worker stealing slices from a busy shard
//! keeps recovering that shard's homes while the cold ones sit parked
//! elsewhere. Homes that are not cold simply stay resident, so the true
//! bound is `max_resident` plus however many homes are warm at the same
//! instant (mid-routine across an epoch boundary, carrying a failure
//! plan, or in a worker's hand): on a calm fleet that is a handful, in
//! a fleet-wide burst it can transiently be most of the fleet.
//!
//! Latency accounting: routine finish latencies are drained after every
//! slice into a constant-memory [`LatencyHistogram`] per worker, merged
//! at the end — the service path can observe p50/p99/p999 over millions
//! of submissions without ever holding the fleet's raw samples in one
//! vector. Eviction preserves the drain cursors along with the parked
//! sink's latency vector.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use safehome_sim::{EventQueue, SimRng};
use safehome_types::sink::{self, RunCounters};
use safehome_types::{LatencyHistogram, TimeDelta, Timestamp, Value};

use crate::fleet::{home_seed, HomeRun, WorkerStats};
use crate::runtime::{HomeRuntime, RuntimeCore, Step};
use crate::sim::{Driver, SimBackend};
use crate::spec::{Arrival, RunSpec};

/// Tuning knobs of the resident service runner. None of them may change
/// per-home results — that is the runner's core contract — only *where*
/// and *with how much resident state* the work happens.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Epoch slice length: slice boundaries are absolute simulated-time
    /// multiples of this.
    pub epoch: TimeDelta,
    /// Idle workers steal slices from other shards' timer queues. On by
    /// default; turning it off reproduces the static PR 8 behaviour
    /// (useful for A/B digest checks and steal-benefit measurement).
    pub steal: bool,
    /// Fleet-wide resident-home budget. `Some(n)` journals every home
    /// and evicts cold parked homes, farthest next event first, whenever
    /// more than `n` are resident; `None` (the default) keeps every home
    /// hot and skips journaling.
    pub max_resident: Option<usize>,
}

impl ServiceConfig {
    /// Stealing on, no eviction — the default service shape.
    pub fn new(epoch: TimeDelta) -> Self {
        ServiceConfig {
            epoch,
            steal: true,
            max_resident: None,
        }
    }

    /// Builder-style steal toggle.
    pub fn with_steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Builder-style resident budget.
    pub fn with_max_resident(mut self, max_resident: usize) -> Self {
        self.max_resident = Some(max_resident);
        self
    }
}

/// Aggregated result of a resident service run.
///
/// The per-home payload is the same [`HomeRun`] the batch fleet driver
/// produces — that is the point: the two paths are comparable field for
/// field, digest for digest.
#[derive(Clone)]
pub struct ServiceResult {
    /// Per-home results, sorted by home index.
    pub homes: Vec<HomeRun>,
    /// Worker threads used.
    pub workers: usize,
    /// Epoch slice length the run was driven at.
    pub epoch: TimeDelta,
    /// Merged latency histogram over every finished routine in the
    /// fleet (same samples as the per-home `latencies_ms` vectors).
    pub latency: LatencyHistogram,
    /// Total `(pop, advance, re-park)` slices executed. Deterministic —
    /// slice boundaries are absolute simulated-time multiples of the
    /// epoch derived from each home's own event queue, so the count
    /// depends only on the fleet and the epoch, never on the worker
    /// count, stealing or eviction.
    pub slices: u64,
    /// Per-worker scheduling stats (slices run, steals, homes finished).
    /// Scheduling-dependent — informational only, never compare across
    /// runs.
    pub worker_stats: Vec<WorkerStats>,
    /// Cold homes evicted: controller parked, simulator state returned
    /// to the pool (0 without `max_resident`).
    pub evictions: u64,
    /// Evicted homes resumed from their parked controller when their
    /// next timer fired.
    pub recoveries: u64,
    /// Most homes ever simultaneously resident (holding pooled simulator
    /// state). Without eviction this is simply the fleet size.
    pub peak_resident_homes: usize,
    /// Approximate heap bytes one *resident* home pins (largest observed
    /// sample): its controller (see below) plus the backend's
    /// event-queue capacity and device slots.
    pub approx_resident_home_bytes: usize,
    /// Approximate heap bytes one *evicted* home retains (largest
    /// observed sample): its parked controller — the core struct, the
    /// compact journal, the submission tables and the counter sink's
    /// vectors — plus the world snapshot (device states, RNG). The
    /// engine's heap and the sink's maps are not chased (see
    /// `RuntimeCore::approx_bytes`). 0 when nothing was evicted.
    pub approx_evicted_home_bytes: usize,
}

impl ServiceResult {
    /// Total routines submitted across the fleet (the offered load).
    pub fn offered(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.submitted).sum()
    }

    /// Total committed routines across the fleet.
    pub fn committed(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.committed).sum()
    }

    /// Total aborted routines across the fleet.
    pub fn aborted(&self) -> u64 {
        self.homes.iter().map(|h| h.counters.aborted).sum()
    }

    /// Routines that reached a terminal outcome (committed or aborted).
    pub fn finished(&self) -> u64 {
        self.committed() + self.aborted()
    }

    /// `true` when every home reached quiescence.
    pub fn all_completed(&self) -> bool {
        self.homes.iter().all(|h| h.completed)
    }

    /// Order-sensitive digest over the per-home digests; comparable
    /// directly against [`FleetResult::digest`](crate::FleetResult::digest)
    /// for the same fleet.
    pub fn digest(&self) -> u64 {
        self.homes.iter().fold(sink::DIGEST_SEED, |acc, h| {
            sink::fold_digest(acc, h.counters.digest)
        })
    }

    /// Total steals across workers (scheduling-dependent).
    pub fn steals(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.steals).sum()
    }
}

/// Runs `homes` resident homes across `workers` threads in epoch slices
/// of `epoch` simulated time, with stealing on and eviction off (the
/// [`ServiceConfig::new`] defaults — see [`run_service_with`]).
///
/// `make_spec(home, seed)` builds each home's spec from its derived
/// seed ([`home_seed`]), exactly as for the batch fleet driver; equal
/// inputs give per-home results byte-identical to
/// [`run_fleet`](crate::fleet::run_fleet).
pub fn run_service<F>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    epoch: TimeDelta,
    make_spec: F,
) -> ServiceResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    run_service_with(
        homes,
        workers,
        fleet_seed,
        ServiceConfig::new(epoch),
        make_spec,
    )
}

/// One home's slot: its execution state plus the latency drain cursor,
/// which survives eviction along with the parked sink.
struct HomeSlot<'a> {
    cell: Cell<'a>,
    drained: usize,
    /// Statically evictable: eviction enabled, no failure plan (hence no
    /// probe loops or injections) and absolute arrivals only (replay's
    /// pending-submit order is then provably the original schedule
    /// order). The dynamic half — quiescent, only future submissions
    /// pending — is re-checked at every park.
    evictable_spec: bool,
}

enum Cell<'a> {
    /// Transient placeholder during construction and state swaps.
    Vacant,
    // Boxed: the live runtime dominates the enum (~1.5 KiB vs the
    // ~400 B terminal variants); the indirection keeps the per-home
    // slot vector small once homes finish or evict.
    Live(Box<Driver<'a, RunCounters>>),
    // Boxed: the parked controller is as large as a live one's.
    Evicted(Box<EvictedHome<'a>>),
    Finished {
        // Boxed for the same reason as `Live`: terminal counters carry
        // the full latency vector, dwarfing `Vacant`/`Evicted`.
        counters: Box<RunCounters>,
        completed: bool,
    },
}

/// Everything an evicted home is: its quiescent controller, parked
/// whole (engine, counter sink, tables and the compact journal), plus
/// the world snapshot (device states, RNG position).
struct EvictedHome<'a> {
    core: RuntimeCore<'a, RunCounters>,
    device_states: Vec<Value>,
    rng: SimRng,
}

impl<'a> EvictedHome<'a> {
    /// Parks a cold home: the controller stays whole, the backend's
    /// queue and device storage go back to the thread's home pool.
    fn park(d: Driver<'a, RunCounters>) -> Self {
        let (core, backend) = d.park();
        let (device_states, rng) = backend.into_world_snapshot();
        EvictedHome {
            core,
            device_states,
            rng,
        }
    }

    /// Rebuilds the home: the world snapshot becomes a backend again,
    /// the parked controller is rebound to it, and the unsubmitted
    /// arrivals are re-scheduled at their original absolute times (all
    /// in the future, so the continuation is event-for-event that of a
    /// never-evicted run).
    fn resume(self, spec: &'a RunSpec) -> Driver<'a, RunCounters> {
        let backend = SimBackend::resurrect(spec, &self.device_states, self.rng);
        let mut d = HomeRuntime::resume(self.core, backend);
        d.reschedule_arrivals();
        d
    }

    /// What the evicted cell holds (see
    /// [`ServiceResult::approx_evicted_home_bytes`]).
    fn approx_bytes(&self) -> usize {
        controller_bytes(&self.core)
            + std::mem::size_of::<Vec<Value>>()
            + self.device_states.capacity() * std::mem::size_of::<Value>()
            + std::mem::size_of::<SimRng>()
    }
}

/// Approximate heap bytes of a home's controller: the core's own
/// accounting plus the counter sink's vectors.
fn controller_bytes(core: &RuntimeCore<'_, RunCounters>) -> usize {
    core.approx_bytes() + core.sink().approx_heap_bytes()
}

/// Approximate heap bytes a resident home pins: controller plus backend.
fn resident_bytes(d: &Driver<'_, RunCounters>) -> usize {
    controller_bytes(&d.core) + d.backend().approx_resident_bytes()
}

/// The dynamic half of evictability: the home is unfinished, its engine
/// quiescent, and nothing but future submissions is pending on its
/// backend.
fn is_cold(d: &Driver<'_, RunCounters>) -> bool {
    !d.is_done() && d.engine().quiescent() && d.backend().only_submits_pending()
}

/// One shard's shared scheduling state.
#[derive(Default)]
struct ShardCore {
    /// Timer queue of parked homes. The payload carries the *true* park
    /// time: concurrent pops may clamp the queued timestamp forward, and
    /// the candidate bookkeeping below must match the original.
    timers: EventQueue<(usize, Timestamp)>,
    /// Parked homes currently satisfying the full evictability
    /// condition, keyed by next-event time — `last` is the coldest.
    /// Kept exactly in sync with `scores` below: every mutation goes
    /// through [`Self::park_candidate`] / [`Self::unpark_candidate`],
    /// which compact a home's previous entry on re-park, so a home has
    /// at most one live entry and an entry can never outlive a pop or
    /// an eviction race (entries used to linger when an evicted home's
    /// concurrent re-park re-inserted it; consumers still re-validate
    /// under the slot lock before acting, as the timer pop itself can
    /// race the claim).
    parked: BTreeSet<(u64, usize)>,
    /// Side index: home → its current score key in `parked`. The single
    /// source of truth for membership, enabling removal by home alone.
    scores: BTreeMap<usize, u64>,
}

impl ShardCore {
    /// Registers (or refreshes) a parked eviction candidate, compacting
    /// any stale entry the home left behind.
    fn park_candidate(&mut self, home: usize, score: u64) {
        if let Some(old) = self.scores.insert(home, score) {
            self.parked.remove(&(old, home));
        }
        self.parked.insert((score, home));
    }

    /// Withdraws a home's candidate entry (pop, steal or eviction
    /// claim). `false` when it had none — the usual race outcome.
    fn unpark_candidate(&mut self, home: usize) -> bool {
        match self.scores.remove(&home) {
            Some(score) => self.parked.remove(&(score, home)),
            None => false,
        }
    }

    /// The highest-scored candidate, if any.
    fn best_victim(&self) -> Option<(u64, usize)> {
        self.parked.last().copied()
    }
}

/// Shared run context: everything the workers touch. Lock order: a
/// worker holds at most one slot lock and at most one shard lock, and
/// only ever acquires a shard lock *while holding* a slot lock (the
/// re-park path) — never the reverse — so there is no cycle.
struct ServiceCtx<'a> {
    specs: &'a [RunSpec],
    shards: Vec<Mutex<ShardCore>>,
    slots: Vec<Mutex<HomeSlot<'a>>>,
    epoch_ms: u64,
    steal: bool,
    max_resident: Option<usize>,
    /// Unfinished homes; workers exit when it hits zero.
    live: AtomicUsize,
    resident: AtomicUsize,
    peak_resident: AtomicUsize,
    evictions: AtomicU64,
    recoveries: AtomicU64,
    resident_bytes: AtomicUsize,
    evicted_bytes: AtomicUsize,
    barrier: Barrier,
}

impl<'a> ServiceCtx<'a> {
    fn note_resident(&self) {
        let now = self.resident.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak_resident.fetch_max(now, Ordering::SeqCst);
    }
}

/// [`run_service`] with explicit stealing/eviction knobs.
pub fn run_service_with<F>(
    homes: usize,
    workers: usize,
    fleet_seed: u64,
    config: ServiceConfig,
    make_spec: F,
) -> ServiceResult
where
    F: Fn(usize, u64) -> RunSpec + Sync,
{
    let workers = workers.clamp(1, homes.max(1));
    let make_spec = &make_spec;
    let seeds: Vec<u64> = (0..homes)
        .map(|home| home_seed(fleet_seed, home as u64))
        .collect();

    // Phase 1 — build the specs, in parallel over the same contiguous
    // near-equal split the shards use. Spec construction is pure in
    // (home, seed), so the split is a throughput detail.
    let bounds: Vec<(usize, usize)> = (0..workers)
        .map(|w| (w * homes / workers, (w + 1) * homes / workers))
        .collect();
    let specs: Vec<RunSpec> = if workers == 1 {
        (0..homes)
            .map(|home| make_spec(home, seeds[home]))
            .collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    let seeds = &seeds;
                    scope.spawn(move || {
                        (lo..hi)
                            .map(|home| make_spec(home, seeds[home]))
                            .collect::<Vec<RunSpec>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("service spec builder panicked"))
                .collect()
        })
    };

    let ctx = ServiceCtx {
        slots: specs
            .iter()
            .map(|spec| {
                Mutex::new(HomeSlot {
                    cell: Cell::Vacant,
                    drained: 0,
                    evictable_spec: config.max_resident.is_some()
                        && spec.failures.is_empty()
                        && spec
                            .submissions
                            .iter()
                            .all(|s| matches!(s.arrival, Arrival::At(_))),
                })
            })
            .collect(),
        live: AtomicUsize::new(homes),
        specs: &specs,
        shards: (0..workers)
            .map(|_| Mutex::new(ShardCore::default()))
            .collect(),
        epoch_ms: config.epoch.as_millis().max(1),
        steal: config.steal,
        max_resident: config.max_resident,
        resident: AtomicUsize::new(0),
        peak_resident: AtomicUsize::new(0),
        evictions: AtomicU64::new(0),
        recoveries: AtomicU64::new(0),
        resident_bytes: AtomicUsize::new(0),
        evicted_bytes: AtomicUsize::new(0),
        barrier: Barrier::new(workers),
    };

    // Phase 2 — resident execution.
    let outputs: Vec<(LatencyHistogram, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ctx = &ctx;
                let bounds = &bounds;
                scope.spawn(move || service_worker(ctx, w, bounds[w]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service worker panicked"))
            .collect()
    });

    let mut result = ServiceResult {
        homes: Vec::with_capacity(homes),
        workers,
        epoch: config.epoch,
        latency: LatencyHistogram::new(),
        slices: 0,
        worker_stats: Vec::with_capacity(workers),
        evictions: ctx.evictions.load(Ordering::SeqCst),
        recoveries: ctx.recoveries.load(Ordering::SeqCst),
        peak_resident_homes: ctx.peak_resident.load(Ordering::SeqCst),
        approx_resident_home_bytes: ctx.resident_bytes.load(Ordering::SeqCst),
        approx_evicted_home_bytes: ctx.evicted_bytes.load(Ordering::SeqCst),
    };
    for (hist, stats) in outputs {
        result.latency.merge(&hist);
        result.slices += stats.slices_run;
        result.worker_stats.push(stats);
    }
    for (home, slot) in ctx.slots.into_iter().enumerate() {
        match slot.into_inner().expect("no worker holds a slot now").cell {
            Cell::Finished {
                counters,
                completed,
            } => result.homes.push(HomeRun {
                home,
                seed: seeds[home],
                completed,
                counters: *counters,
            }),
            _ => unreachable!("home {home} did not reach a terminal state"),
        }
    }
    result
}

/// One worker: builds its own shard's homes, then slices — own timer
/// queue first, stealing from the other shards when it runs dry.
fn service_worker<'a>(
    ctx: &ServiceCtx<'a>,
    w: usize,
    (lo, hi): (usize, usize),
) -> (LatencyHistogram, WorkerStats) {
    let mut stats = WorkerStats::default();
    let mut hist = LatencyHistogram::new();

    for home in lo..hi {
        let spec = &ctx.specs[home];
        // Eviction needs the journal as the durable half of the home;
        // journaling is digest-neutral, so the knob never changes
        // results (pinned by `journaling_is_digest_neutral`).
        let d = if ctx.max_resident.is_some() {
            Driver::with_journal(spec, RunCounters::new())
        } else {
            Driver::with_sink(spec, RunCounters::new())
        };
        let next = d.backend().next_event_at().unwrap_or(Timestamp::ZERO);
        if home == lo {
            ctx.resident_bytes
                .fetch_max(resident_bytes(&d), Ordering::SeqCst);
        }
        let evictable = {
            let mut slot = ctx.slots[home].lock().expect("slot");
            let evictable = slot.evictable_spec && is_cold(&d);
            slot.cell = Cell::Live(Box::new(d));
            evictable
        };
        ctx.note_resident();
        {
            let mut sc = ctx.shards[w].lock().expect("shard");
            sc.timers.schedule(next, (home, next));
            if evictable {
                sc.park_candidate(home, next.as_millis());
            }
        }
        // Evict-at-birth keeps even the construction phase inside the
        // budget: a fresh all-`At` home is already cold (nothing
        // submitted yet), so it can park behind its genesis journal.
        evict_over_budget(ctx, w);
    }

    // All shards populated before anyone may steal from them.
    ctx.barrier.wait();

    loop {
        let popped = pop_shard(ctx, w).or_else(|| {
            if !ctx.steal {
                return None;
            }
            (w + 1..ctx.shards.len())
                .chain(0..w)
                .find_map(|victim| pop_shard(ctx, victim))
                .inspect(|_| stats.steals += 1)
        });
        match popped {
            Some((shard, home)) => {
                run_slice(ctx, shard, home, &mut stats, &mut hist);
                evict_over_budget(ctx, shard);
            }
            None => {
                if ctx.live.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Every remaining home is mid-slice on another worker;
                // its re-park (or finish) is imminent.
                std::thread::yield_now();
            }
        }
    }
    (hist, stats)
}

/// Pops the earliest parked home from shard `s`, maintaining the
/// eviction-candidate set. Returns `(shard, home)`.
fn pop_shard(ctx: &ServiceCtx<'_>, s: usize) -> Option<(usize, usize)> {
    let mut sc = ctx.shards[s].lock().expect("shard");
    let (_, (home, _next)) = sc.timers.pop()?;
    sc.unpark_candidate(home);
    Some((s, home))
}

/// Advances one epoch slice: runs `d` through every event strictly
/// before the next absolute epoch boundary after its own earliest
/// pending event. Never derive that boundary from the shard queue's
/// popped timestamp: concurrent pops may have clamped it forward, and slice
/// structure must stay a property of the home and the epoch grid alone.
///
/// Returns `Some(next_event)` when the home should re-park, `None` when
/// it reached a terminal state. (A home that could already report
/// quiescence but still holds an immaterial probe event parks at most
/// once more — its next slice's first step resolves to done without
/// popping the probe.)
fn advance_slice(d: &mut Driver<'_, RunCounters>, epoch_ms: u64) -> Option<Timestamp> {
    let end = match d.backend().next_event_at() {
        Some(next) => Timestamp::from_millis((next.as_millis() / epoch_ms + 1) * epoch_ms),
        None => Timestamp::ZERO, // first step observes quiescence
    };
    loop {
        if d.is_done() {
            return None;
        }
        match d.backend().next_event_at() {
            Some(next) if next >= end => return Some(next),
            _ => match d.step() {
                Step::Event(_) | Step::Idle => {}
                Step::Quiescent | Step::Stalled => return None,
            },
        }
    }
}

/// Runs one epoch slice of `home`, resuming it first if it was
/// evicted. `shard` is the home's owning shard (where it re-parks).
fn run_slice<'a>(
    ctx: &ServiceCtx<'a>,
    shard: usize,
    home: usize,
    stats: &mut WorkerStats,
    hist: &mut LatencyHistogram,
) {
    let mut slot = ctx.slots[home].lock().expect("slot");
    let slot = &mut *slot;
    let evictable_spec = slot.evictable_spec;

    if matches!(slot.cell, Cell::Evicted(_)) {
        let Cell::Evicted(ev) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        slot.cell = Cell::Live(Box::new(ev.resume(&ctx.specs[home])));
        ctx.recoveries.fetch_add(1, Ordering::SeqCst);
        ctx.note_resident();
    }
    stats.slices_run += 1;

    let Cell::Live(d) = &mut slot.cell else {
        unreachable!("popped home {home} is neither live nor evicted")
    };
    if let Some(next) = advance_slice(d, ctx.epoch_ms) {
        let evictable = evictable_spec && is_cold(d);
        let mut sc = ctx.shards[shard].lock().expect("shard");
        sc.timers.schedule(next, (home, next));
        if evictable {
            sc.park_candidate(home, next.as_millis());
        }
    }

    if d.is_done() {
        let Cell::Live(d) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        let (counters, _, completed) = d.into_output();
        // Catch any samples recorded after the home's last drain.
        for &ms in &counters.latencies_ms[slot.drained..] {
            hist.record(ms);
        }
        slot.drained = counters.latencies_ms.len();
        slot.cell = Cell::Finished {
            counters: Box::new(counters),
            completed,
        };
        ctx.resident.fetch_sub(1, Ordering::SeqCst);
        stats.homes_run += 1;
        ctx.live.fetch_sub(1, Ordering::Release);
    } else {
        // Progressive latency drain: only the routines that finished in
        // this slice, so worker memory stays flat over the horizon.
        let finished = &d.sink().latencies_ms;
        for &ms in &finished[slot.drained..] {
            hist.record(ms);
        }
        slot.drained = finished.len();
    }
}

/// Evicts coldest-first (farthest next event) while the fleet-wide
/// resident count exceeds the budget. The budget is global,
/// so the victim search sweeps *every* shard's parked candidates
/// (starting at `shard`, the caller's, to spread lock pressure) — a
/// worker stealing slices from a busy shard keeps recovering that
/// shard's homes while the cold ones sit parked elsewhere. Candidates
/// are re-validated under the slot lock: a timer pop can race the
/// claim.
fn evict_over_budget(ctx: &ServiceCtx<'_>, shard: usize) {
    let Some(max) = ctx.max_resident else { return };
    let shards = ctx.shards.len();
    loop {
        if ctx.resident.load(Ordering::SeqCst) <= max {
            return;
        }
        // Globally best candidate: peek each shard's top-scored parked
        // entry, then take the overall best.
        let mut best: Option<(u64, usize, usize)> = None;
        for i in 0..shards {
            let s = (shard + i) % shards;
            let sc = ctx.shards[s].lock().expect("shard");
            if let Some((score, home)) = sc.best_victim() {
                if best.is_none_or(|(b, _, _)| score > b) {
                    best = Some((score, home, s));
                }
            }
        }
        let Some((_, home, s)) = best else { return };
        // Claim it; a pop or re-park may have raced the peek — re-scan.
        if !ctx.shards[s].lock().expect("shard").unpark_candidate(home) {
            continue;
        }
        let mut slot = ctx.slots[home].lock().expect("slot");
        if !matches!(&slot.cell, Cell::Live(d) if is_cold(d)) {
            continue;
        }
        let Cell::Live(d) = std::mem::replace(&mut slot.cell, Cell::Vacant) else {
            unreachable!()
        };
        ctx.resident_bytes
            .fetch_max(resident_bytes(&d), Ordering::SeqCst);
        let evicted = EvictedHome::park(*d);
        ctx.evicted_bytes
            .fetch_max(evicted.approx_bytes(), Ordering::SeqCst);
        slot.cell = Cell::Evicted(Box::new(evicted));
        ctx.resident.fetch_sub(1, Ordering::SeqCst);
        ctx.evictions.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::run_fleet;
    use crate::spec::Submission;
    use safehome_core::{EngineConfig, VisibilityModel};
    use safehome_devices::catalog::plug_home;
    use safehome_devices::FailurePlan;
    use safehome_sim::SimRng;
    use safehome_types::{DeviceId, Routine, Value};

    /// An open-loop-shaped home: arrivals spread over a long, sparse
    /// horizon (hour-scale gaps on the shard timer queues), and a seeded
    /// minority of homes carry a fail-stop plan (exercising probe
    /// events and aborts under slicing, and pinning such homes resident
    /// under eviction).
    fn service_shaped_home(_: usize, seed: u64) -> RunSpec {
        let mut spec = evictable_home(0, seed);
        let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        if rng.next_u64().is_multiple_of(4) {
            spec.failures =
                FailurePlan::random_fail_stop(4, 0.3, Timestamp::from_millis(3_600_000), &mut rng);
        }
        spec
    }

    /// The failure-free variant: every home satisfies the static half of
    /// the evictability condition.
    fn evictable_home(_: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec =
            RunSpec::new(plug_home(4), EngineConfig::new(VisibilityModel::ev())).with_seed(seed);
        let n = 3 + (rng.next_u64() % 4) as usize;
        for i in 0..n {
            let mut b = Routine::builder(format!("r{i}"));
            for j in 0..2u32 {
                b = b.set(
                    DeviceId((i as u32 + j) % 4),
                    Value::ON,
                    TimeDelta::from_millis(50),
                );
            }
            // Sparse arrivals over ~2 hours: most epochs are empty for
            // most homes, the resident runner's natural habitat.
            spec.submit(Submission::at(
                b.build(),
                Timestamp::from_millis(rng.next_u64() % (2 * 3_600_000)),
            ));
        }
        // Burn the draw the failure branch of `service_shaped_home` once
        // consumed, keeping legacy schedules unchanged.
        let _ = rng.next_u64();
        spec
    }

    /// `evictable_home` with arrivals snapped to a 30-minute grid:
    /// routines on shared devices arrive at the same instant, so the
    /// order they were first scheduled in — which a resumed home must
    /// reproduce — decides which one runs first.
    fn tied_home(seed: u64) -> RunSpec {
        let mut spec = evictable_home(0, seed);
        for s in &mut spec.submissions {
            if let Arrival::At(at) = &mut s.arrival {
                *at = Timestamp::from_millis(at.as_millis() / 1_800_000 * 1_800_000);
            }
        }
        spec
    }

    /// A fixed-latency home of independent 3-device zones: no RNG draws
    /// for latency, no failures, absolute arrivals only. Routines never
    /// cross zones.
    fn fixed_latency_home(zones: usize, seed: u64) -> RunSpec {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut spec = RunSpec::new(
            plug_home(zones * 3),
            EngineConfig::new(VisibilityModel::ev()),
        )
        .with_seed(seed);
        spec.latency = safehome_devices::LatencyModel::Fixed(TimeDelta::from_millis(25));
        for z in 0..zones {
            let n = 2 + (rng.next_u64() % 3) as usize;
            for i in 0..n {
                let base = (z * 3) as u32;
                let r = Routine::builder(format!("z{z}r{i}"))
                    .set(
                        DeviceId(base + (i as u32) % 3),
                        Value::ON,
                        TimeDelta::from_millis(40 + rng.next_u64() % 100),
                    )
                    .set(
                        DeviceId(base + (i as u32 + 1) % 3),
                        Value::OFF,
                        TimeDelta::from_millis(30),
                    )
                    .build();
                spec.submit(Submission::at(
                    r,
                    Timestamp::from_millis(rng.next_u64() % 600_000),
                ));
            }
        }
        spec
    }

    /// The journal stays the crash-recovery source of truth: at every
    /// cold point of a small journaled fleet the home is evicted, and
    /// `recover()` on a copy of the parked journal must rebuild a sink
    /// equal to the parked one from a journal that passes its
    /// invariants. The replayed controller, resumed onto a copy of the
    /// world snapshot, and the parked one, resumed and evicted again at
    /// every later cold point, must both finish with the never-evicted
    /// run's counters.
    #[test]
    fn parked_controller_equals_journal_replay() {
        let mut evictions = 0;
        for home in 0..12 {
            let seed = home_seed(0x0AC1E, home as u64);
            let spec = match home % 3 {
                0 => evictable_home(home, seed),
                1 => tied_home(seed),
                _ => fixed_latency_home(3, seed),
            };
            let mut want = Driver::with_sink(&spec, RunCounters::new());
            assert!(want.run_to_quiescence());
            let (want, _, _) = want.into_output();

            let mut d = Driver::with_journal(&spec, RunCounters::new());
            loop {
                if is_cold(&d) {
                    let parked = EvictedHome::park(d);
                    let journal = parked
                        .core
                        .journal
                        .as_ref()
                        .expect("evicted homes journal")
                        .journal()
                        .clone();
                    journal.check_invariants().expect("parked journal is valid");
                    let rec = crate::journal::recover(
                        journal,
                        spec.config.clone(),
                        &spec.submissions,
                        RunCounters::new(),
                    )
                    .expect("a parked journal replays");
                    assert!(!rec.report.tail_repaired);
                    assert!(
                        rec.core.sink() == parked.core.sink(),
                        "home {home}: replay rebuilt a different sink than the parked one"
                    );
                    let world =
                        SimBackend::resurrect(&spec, &parked.device_states, parked.rng.clone());
                    let mut replayed = HomeRuntime::resume(rec.core, world);
                    replayed.redrive(&rec.report);
                    assert!(replayed.run_to_quiescence());
                    let (replayed, _, _) = replayed.into_output();
                    assert_eq!(
                        replayed, want,
                        "home {home}: replayed continuation diverged"
                    );
                    d = parked.resume(&spec);
                    evictions += 1;
                }
                match d.step() {
                    Step::Event(_) | Step::Idle => {}
                    Step::Quiescent | Step::Stalled => break,
                }
            }
            let (parked, _, completed) = d.into_output();
            assert!(completed);
            assert_eq!(parked, want, "home {home}: parked continuation diverged");
        }
        assert!(
            evictions > 40,
            "the fleet must hit many cold points ({evictions})"
        );
    }

    #[test]
    fn stale_candidate_entries_are_compacted() {
        let mut sc = ShardCore::default();
        // The race the old keyed-by-time set leaked on: a home is
        // parked, claimed by an evictor while a thief re-parks it — the
        // re-park must replace, not duplicate, the candidate entry.
        sc.park_candidate(3, 100);
        sc.park_candidate(3, 250);
        assert_eq!(sc.parked.len(), 1, "re-park compacts the stale entry");
        assert_eq!(sc.best_victim(), Some((250, 3)));
        sc.park_candidate(7, 50);
        assert_eq!(sc.best_victim(), Some((250, 3)), "highest score wins");
        assert!(sc.unpark_candidate(3));
        assert!(!sc.unpark_candidate(3), "second claim loses the race");
        assert_eq!(sc.best_victim(), Some((50, 7)));
        assert!(sc.unpark_candidate(7));
        assert!(sc.parked.is_empty() && sc.scores.is_empty());
    }

    #[test]
    fn resident_run_matches_batch_fleet_exactly() {
        let batch = run_fleet(10, 1, 0x5e7, service_shaped_home);
        let resident = run_service(10, 1, 0x5e7, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(batch.homes, resident.homes, "per-home results must match");
        assert_eq!(batch.digest(), resident.digest());
    }

    #[test]
    fn resident_results_are_identical_across_worker_counts_and_stealing() {
        let base = run_service_with(
            9,
            1,
            42,
            ServiceConfig::new(TimeDelta::from_secs(30)).with_steal(false),
            service_shaped_home,
        );
        for workers in [1, 2, 3, 4] {
            for steal in [false, true] {
                let other = run_service_with(
                    9,
                    workers,
                    42,
                    ServiceConfig::new(TimeDelta::from_secs(30)).with_steal(steal),
                    service_shaped_home,
                );
                assert_eq!(
                    base.homes, other.homes,
                    "per-home results must not depend on sharding \
                     ({workers} workers, steal={steal})"
                );
                assert_eq!(base.digest(), other.digest());
                assert_eq!(
                    base.slices, other.slices,
                    "slice structure is worker- and steal-free"
                );
            }
        }
    }

    #[test]
    fn eviction_is_digest_neutral_at_random_budgets() {
        let base = run_service(8, 1, 0xC01D, TimeDelta::from_secs(20), service_shaped_home);
        let mut evictions_seen = 0;
        for max_resident in [0, 1, 2, 5] {
            for workers in [1, 3] {
                let evicted = run_service_with(
                    8,
                    workers,
                    0xC01D,
                    ServiceConfig::new(TimeDelta::from_secs(20)).with_max_resident(max_resident),
                    service_shaped_home,
                );
                assert_eq!(
                    base.homes, evicted.homes,
                    "eviction must be invisible in results \
                     (max_resident={max_resident}, {workers} workers)"
                );
                assert_eq!(base.digest(), evicted.digest());
                assert_eq!(base.slices, evicted.slices);
                assert!(evicted.recoveries <= evicted.evictions);
                evictions_seen += evicted.evictions;
            }
        }
        assert!(evictions_seen > 0, "tight budgets must actually evict");
    }

    #[test]
    fn eviction_bounds_residency_on_cold_fleets() {
        let budget = 2;
        let r = run_service_with(
            10,
            1,
            7,
            ServiceConfig::new(TimeDelta::from_secs(15)).with_max_resident(budget),
            evictable_home,
        );
        let batch = run_fleet(10, 1, 7, evictable_home);
        assert_eq!(batch.homes, r.homes);
        assert!(r.evictions > 0, "a 2-home budget over 10 homes must evict");
        assert!(r.recoveries > 0, "parked homes must come back");
        assert!(
            r.peak_resident_homes <= budget + 1,
            "one worker keeps at most budget parked + 1 in hand, got {}",
            r.peak_resident_homes
        );
        assert!(
            r.approx_resident_home_bytes > r.approx_evicted_home_bytes,
            "eviction must shrink a home's footprint ({} resident vs {} evicted bytes)",
            r.approx_resident_home_bytes,
            r.approx_evicted_home_bytes
        );
    }

    #[test]
    fn uncapped_runs_report_full_residency() {
        let r = run_service(6, 2, 3, TimeDelta::from_secs(10), service_shaped_home);
        assert_eq!(r.peak_resident_homes, 6);
        assert_eq!(r.evictions, 0);
        assert_eq!(r.recoveries, 0);
        assert_eq!(r.approx_evicted_home_bytes, 0);
        assert!(r.approx_resident_home_bytes > 0);
    }

    #[test]
    fn worker_stats_account_for_every_slice_and_home() {
        let r = run_service_with(
            9,
            3,
            11,
            ServiceConfig::new(TimeDelta::from_secs(10)).with_steal(false),
            service_shaped_home,
        );
        assert_eq!(r.worker_stats.len(), 3);
        let slices: u64 = r.worker_stats.iter().map(|w| w.slices_run).sum();
        let homes: usize = r.worker_stats.iter().map(|w| w.homes_run).sum();
        assert_eq!(slices, r.slices);
        assert_eq!(homes, r.homes.len());
        assert_eq!(r.steals(), 0, "steal=false must never steal");
    }

    #[test]
    fn epoch_length_never_changes_results() {
        let batch = run_fleet(6, 2, 7, service_shaped_home);
        for epoch_ms in [1u64, 250, 60_000, 24 * 3_600_000] {
            let resident = run_service(
                6,
                2,
                7,
                TimeDelta::from_millis(epoch_ms),
                service_shaped_home,
            );
            assert_eq!(
                batch.digest(),
                resident.digest(),
                "epoch {epoch_ms}ms must not perturb results"
            );
        }
    }

    #[test]
    fn histogram_sees_every_finished_routine() {
        let r = run_service(8, 3, 11, TimeDelta::from_secs(5), service_shaped_home);
        let raw: u64 = r
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        assert_eq!(r.latency.count(), raw);
        assert!(raw > 0, "the fleet must finish some routines");
        let p99 = r.latency.percentile(0.99).expect("non-empty");
        let exact_max = r
            .homes
            .iter()
            .flat_map(|h| h.counters.latencies_ms.iter().copied())
            .max()
            .unwrap();
        assert_eq!(r.latency.max(), exact_max);
        assert!(p99 <= exact_max);
    }

    #[test]
    fn histogram_is_complete_under_eviction() {
        // Recovery rebuilds the sink's latency vector; the drain cursor
        // must keep every sample exactly once across evict/recover.
        let r = run_service_with(
            8,
            2,
            11,
            ServiceConfig::new(TimeDelta::from_secs(5)).with_max_resident(1),
            service_shaped_home,
        );
        let raw: u64 = r
            .homes
            .iter()
            .map(|h| h.counters.latencies_ms.len() as u64)
            .sum();
        assert_eq!(r.latency.count(), raw);
        assert!(r.evictions > 0);
    }

    #[test]
    fn empty_fleet_is_fine() {
        let r = run_service(0, 4, 1, TimeDelta::from_secs(1), service_shaped_home);
        assert!(r.homes.is_empty());
        assert_eq!(r.workers, 1, "workers clamp to at least one");
        assert!(r.latency.is_empty());
        assert!(r.all_completed(), "vacuously true");
        assert_eq!(r.peak_resident_homes, 0);
    }

    #[test]
    fn sparse_fleet_slices_far_fewer_times_than_events() {
        // The timer queue parks homes across their hour-scale gaps: the slice
        // count must track arrival clusters, not total event count.
        let epoch_s = 10u64;
        let r = run_service(10, 2, 3, TimeDelta::from_secs(epoch_s), service_shaped_home);
        assert!(r.slices >= r.homes.len() as u64);
        // Naive polling would touch every home once per epoch over the
        // ~2 h horizon; parking must come in well under that. (Probe
        // loops keep failure-plan homes busier, so the bound is loose.)
        let naive = r.homes.len() as u64 * (2 * 3_600 / epoch_s);
        assert!(
            r.slices < naive / 2,
            "slicing must beat per-epoch polling, got {} slices vs {naive} naive",
            r.slices
        );
    }
}
