//! Fig. 15d: Algorithm 1 insertion time.
//!
//! The paper measures ~1 ms to schedule a 10-command routine on a
//! Raspberry Pi 3 B+ with 15 devices and 30 routines resident. We
//! measure the same operation on the host (absolute numbers differ; the
//! claim to reproduce is the *shape*: sub-millisecond-scale insertions
//! growing roughly linearly with command count). [`insertion_timing`]
//! is the repository's one Fig. 15d timer; `placement_bench` writes its
//! numbers as JSON.

use std::time::Instant;

use safehome_core::runtime::RoutineRun;
use safehome_core::sched::apply_placement;
use safehome_core::sched::timeline;
use safehome_core::{lineage::LineageTable, order::OrderTracker, EngineConfig, VisibilityModel};
use safehome_sim::SimRng;
use safehome_types::{DeviceId, Routine, RoutineId, TimeDelta, Timestamp, Value};

/// Builds the paper's resident state: 15 devices, 30 scheduled routines.
pub fn resident_state(devices: usize, routines: usize) -> (LineageTable, OrderTracker) {
    let init = (0..devices as u32)
        .map(|i| (DeviceId(i), Value::OFF))
        .collect();
    let mut table = LineageTable::new(&init);
    let mut order = OrderTracker::new();
    let cfg = EngineConfig::new(VisibilityModel::ev());
    let mut rng = SimRng::seed_from_u64(42);
    for r in 0..routines as u64 {
        let id = RoutineId(r + 1);
        order.add_routine(id, Timestamp::ZERO);
        let run = RoutineRun::new(id, random_routine(devices, 4, &mut rng), Timestamp::ZERO);
        let p = timeline::place(
            &run,
            &table,
            &order,
            &cfg,
            Timestamp::ZERO,
            &|_, _| true,
            &[],
        );
        apply_placement(&mut table, &mut order, id, &p);
    }
    (table, order)
}

/// A random routine with `c` commands over `devices` devices.
pub fn random_routine(devices: usize, c: usize, rng: &mut SimRng) -> Routine {
    let mut b = Routine::builder("bench");
    for _ in 0..c {
        b = b.set(
            DeviceId(rng.index(devices) as u32),
            Value::ON,
            TimeDelta::from_secs(10),
        );
    }
    b.build()
}

/// Command counts of the figure's x axis.
pub const COMMANDS: [usize; 6] = [1, 2, 4, 6, 8, 10];
/// Timed samples per command count.
pub const SAMPLES: usize = 25;
/// Placements per sample.
pub const REPS: u32 = 400;

/// Per-placement latency of one command count, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Median over the samples.
    pub median_us: f64,
    /// Fastest sample.
    pub min_us: f64,
}

/// Times [`timeline::place`] for a `c`-command routine against the
/// paper's resident state (15 devices, 30 routines): one untimed
/// warm-up sample, then `samples` samples of `reps` placements each.
pub fn insertion_timing(c: usize, samples: usize, reps: u32) -> Timing {
    let (table, order) = resident_state(15, 30);
    let cfg = EngineConfig::new(VisibilityModel::ev());
    let mut rng = SimRng::seed_from_u64(7);
    let run = RoutineRun::new(
        RoutineId(999),
        random_routine(15, c, &mut rng),
        Timestamp::ZERO,
    );
    let sample = || {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(timeline::place(
                &run,
                &table,
                &order,
                &cfg,
                Timestamp::ZERO,
                &|_, _| true,
                &[],
            ));
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    sample();
    let mut us: Vec<f64> = (0..samples.max(1)).map(|_| sample()).collect();
    us.sort_by(f64::total_cmp);
    Timing {
        median_us: us[us.len() / 2],
        min_us: us[0],
    }
}

/// Regenerates Fig. 15d.
pub fn run(_trials: u64) -> String {
    let mut out = String::new();
    out.push_str("Fig. 15d — Algorithm 1 insertion time (15 devices, 30 resident routines)\n");
    out.push_str("paper: ~1 ms at 10 commands on a Raspberry Pi 3 B+\n");
    for c in COMMANDS {
        let t = insertion_timing(c, SAMPLES, REPS);
        out.push_str(&format!(
            "{c:>3} commands: {:>10.2} µs median ({:.2} min)\n",
            t.median_us, t.min_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_state_is_valid() {
        let (table, _) = resident_state(15, 30);
        table.validate(false).unwrap();
        let total: usize = table
            .devices()
            .map(|d| table.lineage(d).entries().len())
            .sum();
        assert_eq!(total, 30 * 4, "every command placed");
    }

    #[test]
    fn ten_command_insertion_is_fast() {
        let us = insertion_timing(10, 3, 50).median_us;
        // The paper's Pi needs ~1 ms; the host must beat 10 ms easily
        // even in debug builds.
        assert!(us < 10_000.0, "insertion took {us:.0} µs");
    }
}
