//! Actuation latency models.

use safehome_sim::SimRng;
use safehome_types::TimeDelta;

/// How long a device takes to react to an API call, before the command's
/// own duration starts counting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(TimeDelta),
    /// Uniform in `[base, base + jitter]` — models Wi-Fi variance, the
    /// source of the interleavings shown in the paper's Fig. 1.
    Jittered {
        /// Minimum latency.
        base: TimeDelta,
        /// Additional uniform jitter.
        jitter: TimeDelta,
    },
}

impl LatencyModel {
    /// Samples one latency.
    pub fn sample(&self, rng: &mut SimRng) -> TimeDelta {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Jittered { base, jitter } => {
                if jitter == TimeDelta::ZERO {
                    base
                } else {
                    base + TimeDelta::from_millis(rng.int_in(0, jitter.as_millis()))
                }
            }
        }
    }

    /// `true` when sampling never consumes randomness: every draw
    /// returns the same delay, independent of RNG state. Such a model
    /// keeps the backend RNG untouched for the whole run — the property
    /// `safehome-lint`'s cluster analysis requires of a splittable home.
    pub fn is_deterministic(&self) -> bool {
        match *self {
            LatencyModel::Fixed(_) => true,
            LatencyModel::Jittered { jitter, .. } => jitter == TimeDelta::ZERO,
        }
    }

    /// The worst-case latency of the model.
    pub fn max(&self) -> TimeDelta {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Jittered { base, jitter } => base + jitter,
        }
    }
}

impl Default for LatencyModel {
    /// The paper's observed TP-Link actuation: tens of milliseconds with
    /// network jitter.
    fn default() -> Self {
        LatencyModel::Jittered {
            base: TimeDelta::from_millis(30),
            jitter: TimeDelta::from_millis(50),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant() {
        let mut rng = SimRng::seed_from_u64(1);
        let m = LatencyModel::Fixed(TimeDelta::from_millis(25));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), TimeDelta::from_millis(25));
        }
        assert_eq!(m.max(), TimeDelta::from_millis(25));
    }

    #[test]
    fn jittered_stays_in_range() {
        let mut rng = SimRng::seed_from_u64(2);
        let m = LatencyModel::Jittered {
            base: TimeDelta::from_millis(30),
            jitter: TimeDelta::from_millis(50),
        };
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..2_000 {
            let s = m.sample(&mut rng).as_millis();
            assert!((30..=80).contains(&s));
            seen_low |= s < 45;
            seen_high |= s > 65;
        }
        assert!(seen_low && seen_high, "jitter should cover the range");
        assert_eq!(m.max(), TimeDelta::from_millis(80));
    }

    #[test]
    fn zero_jitter_degenerates_to_fixed() {
        let mut rng = SimRng::seed_from_u64(3);
        let m = LatencyModel::Jittered {
            base: TimeDelta::from_millis(10),
            jitter: TimeDelta::ZERO,
        };
        assert_eq!(m.sample(&mut rng), TimeDelta::from_millis(10));
    }
}
