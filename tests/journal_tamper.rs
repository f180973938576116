//! Hostile journals: a tampered record gets an `Err` from `recover`,
//! never a panic.
//!
//! Every home of a 40-home §7.2 morning fleet runs journaled to
//! quiescence. For a seeded sample of its records, one identity field —
//! a device, a routine id or a command index — is changed, and recovery
//! is attempted on that tampered copy. Recovery must never panic. The
//! journal's replay invariants or verify-mode replay must reject every
//! tampered copy before the engine or the lineage table sees a device or
//! an entry it does not know, with one exception: a standalone detector
//! edge (`DeviceDown`/`DeviceUp`) moved to another device of the home is
//! an input that no derived record pins, so it can be a different but
//! self-consistent history, and recovering it is allowed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use safehome::core::journal::{EventPayload, ExecutionJournal};
use safehome::core::{EngineConfig, TimerId, VisibilityModel};
use safehome::harness::{home_seed, recover, Driver};
use safehome::sim::SimRng;
use safehome::types::sink::RunCounters;
use safehome::types::trace::AbortReason;
use safehome::types::{CmdIdx, DeviceId, RoutineId};
use safehome::workloads::FleetTemplate;

const FLEET_SEED: u64 = 0x7A3B;
const HOMES: u64 = 40;
/// Tampered copies per home.
const PER_HOME: usize = 9;

/// One identity field of a record.
enum Field<'a> {
    Device(&'a mut DeviceId),
    Routine(&'a mut RoutineId),
    Idx(&'a mut CmdIdx),
}

/// The identity fields of `payload`.
fn fields(payload: &mut EventPayload) -> Vec<Field<'_>> {
    use Field::{Device, Idx, Routine};
    match payload {
        EventPayload::Genesis { .. }
        | EventPayload::DeferralArmed { .. }
        | EventPayload::Feedback { routine: None, .. }
        | EventPayload::RecoveryNote { routine: None, .. } => Vec::new(),
        EventPayload::RoutineSubmitted { id, .. } => vec![Routine(id)],
        EventPayload::RoutineStarted { routine } | EventPayload::RoutineCommitted { routine } => {
            vec![Routine(routine)]
        }
        EventPayload::RoutineAborted {
            routine, reason, ..
        } => {
            let (AbortReason::MustCommandFailed { device }
            | AbortReason::FailureSerialization { device }
            | AbortReason::LeaseRevoked { device }
            | AbortReason::GuardFailed { device }) = reason;
            vec![Routine(routine), Device(device)]
        }
        EventPayload::WriteScheduled {
            routine,
            idx,
            device,
            ..
        }
        | EventPayload::WriteStarted {
            routine,
            idx,
            device,
            ..
        }
        | EventPayload::WriteCompleted {
            routine,
            idx,
            device,
            ..
        }
        | EventPayload::WriteRetrying {
            routine,
            idx,
            device,
            ..
        }
        | EventPayload::WriteSkipped {
            routine,
            idx,
            device,
        } => vec![Routine(routine), Idx(idx), Device(device)],
        EventPayload::DeviceDown { device } | EventPayload::DeviceUp { device } => {
            vec![Device(device)]
        }
        EventPayload::TimerArmed { timer, .. } | EventPayload::TimerFired { timer } => {
            match timer {
                TimerId::LeaseRevocation { routine, device } => {
                    vec![Routine(routine), Device(device)]
                }
                TimerId::Ttl { routine } | TimerId::Pace { routine } => vec![Routine(routine)],
                TimerId::Kick => Vec::new(),
            }
        }
        EventPayload::DeferralReleased { pred, .. } => vec![Routine(pred)],
        EventPayload::Feedback {
            routine: Some(routine),
            ..
        }
        | EventPayload::RecoveryNote {
            routine: Some(routine),
            ..
        } => vec![Routine(routine)],
    }
}

/// Flips one seeded bit (of the low five) in the chosen field.
fn flip(field: Field<'_>, rng: &mut SimRng) {
    let mask = 1 << (rng.next_u64() % 5);
    match field {
        Field::Device(d) => d.0 ^= mask as u32,
        Field::Routine(r) => r.0 ^= mask,
        Field::Idx(i) => i.0 ^= mask as u16,
    }
}

#[test]
fn tampered_morning_journals_are_rejected_without_panicking() {
    let template = FleetTemplate::morning(EngineConfig::new(VisibilityModel::ev()));
    let mut rng = SimRng::seed_from_u64(FLEET_SEED);
    let mut tampered = 0usize;
    let mut failures = Vec::new();
    for home in 0..HOMES {
        let spec = template.home_spec(home_seed(FLEET_SEED, home));
        let mut driver = Driver::with_journal(&spec, RunCounters::new());
        assert!(driver.run_to_quiescence(), "home {home}");
        let (journal, _world) = driver.crash();
        let events = journal.events();
        let mut done = 0;
        while done < PER_HOME {
            let i = (rng.next_u64() % events.len() as u64) as usize;
            let mut copy = events.clone();
            let mut candidates = fields(&mut copy[i].payload);
            if candidates.is_empty() {
                continue;
            }
            let pick = (rng.next_u64() % candidates.len() as u64) as usize;
            flip(candidates.swap_remove(pick), &mut rng);
            let what = format!("home {home}, record {i}: {:?}", copy[i].payload);
            let may_recover = matches!(
                copy[i].payload,
                EventPayload::DeviceDown { device } | EventPayload::DeviceUp { device }
                    if device.index() < spec.home.len()
            );
            let copy: ExecutionJournal = copy.into_iter().collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                recover(
                    copy,
                    spec.config.clone(),
                    &spec.submissions,
                    RunCounters::new(),
                )
                .is_err()
            }));
            match outcome {
                Ok(true) => {}
                Ok(false) if !may_recover => {
                    failures.push(format!("{what}: recovered without error"))
                }
                Ok(false) => {}
                Err(_) => failures.push(format!("{what}: recovery panicked")),
            }
            done += 1;
            tampered += 1;
        }
    }
    assert_eq!(tampered, HOMES as usize * PER_HOME);
    assert!(
        failures.is_empty(),
        "{} of {tampered} tampered journals were not rejected:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
