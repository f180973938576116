//! Conflict clustering: partitioning a workload into independent
//! sub-workloads.
//!
//! Two submissions belong to the same cluster when they can influence
//! each other's execution in *any* way the engine tracks:
//!
//! - **Shared footprint device** — at any time, not just overlapping
//!   [`Window`](crate::Window)s. Even temporally distant routines on
//!   the same device share its lineage (placements, order edges, delay
//!   accounting), so window pruning — sound for *conflict* prediction —
//!   is not sound for cluster independence.
//! - **`After` edge** — the dependent's release time is the
//!   predecessor's completion, an explicit cross-submission channel.
//!
//! The partition is the union-find closure of those edges. Each cluster
//! then owns a disjoint device set and a prefix-closed `After`
//! subgraph.
//!
//! [`plan`] wraps the partition in an eligibility gate: the spec-level
//! conditions under which clusters could not couple through the
//! simulated world either (no failure plan, no RNG-drawn latency, EV's
//! device-local scheduling), a hazard-clean lint report and an actual
//! split. It is a purely static verdict — nothing in the workspace
//! executes clusters separately. The verdict answers how much of a
//! workload is even a candidate for splitting: the bundled generators
//! all model the paper's jittered device latency, so `plan` declines
//! every one of their homes (pinned by this crate's
//! `tests/cluster_traffic.rs`).

use safehome_core::VisibilityModel;
use safehome_harness::{Arrival, RunSpec};
use safehome_types::DeviceId;

/// A partition of a home's submissions into conflict clusters:
/// `clusters[k]` holds the workload indices of cluster `k`, each in
/// original submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomePartition {
    /// Workload indices per cluster, ascending within each cluster.
    pub clusters: Vec<Vec<usize>>,
}

impl HomePartition {
    /// `true` when the partition actually splits the home.
    pub fn is_split(&self) -> bool {
        self.clusters.len() >= 2
    }
}

/// Union-find over submission indices (path-halving + union by size).
struct Dsu {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Computes the conflict partition of `spec`'s submissions: connected
/// components under shared-footprint-device and `After` edges, each
/// component's indices ascending, components ordered by smallest
/// member. Purely structural — apply [`plan`]'s gate before acting on
/// it.
pub fn partition(spec: &RunSpec) -> HomePartition {
    let n = spec.submissions.len();
    let mut dsu = Dsu::new(n);
    // Device sharing: union every submission touching a device with the
    // first one that touched it.
    let mut first_touch: std::collections::BTreeMap<DeviceId, usize> =
        std::collections::BTreeMap::new();
    for (i, s) in spec.submissions.iter().enumerate() {
        for d in s.routine.devices() {
            match first_touch.get(&d) {
                Some(&j) => dsu.union(i, j),
                None => {
                    first_touch.insert(d, i);
                }
            }
        }
        if let Arrival::After { index, .. } = s.arrival {
            if index < n {
                dsu.union(i, index);
            }
        }
    }
    let mut clusters: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for i in 0..n {
        let root = dsu.find(i);
        clusters.entry(root).or_default().push(i);
    }
    // BTreeMap iteration gives components ordered by root = smallest
    // member (the root of a component is always reachable from its
    // minimum, and we keyed by find(i) — normalize by min to be safe).
    let mut out: Vec<Vec<usize>> = clusters.into_values().collect();
    out.sort_by_key(|c| c[0]);
    HomePartition { clusters: out }
}

/// The spec-level preconditions of cluster independence: an empty
/// failure plan (no injections, probes or cross-cluster failure
/// serialization), a latency model that never draws from the home's
/// shared RNG, and the EV model, whose scheduling state is
/// device-local (GSV serializes globally; PSV and WV are not covered).
fn decomposable(spec: &RunSpec) -> bool {
    spec.failures.is_empty()
        && spec.latency.is_deterministic()
        && matches!(spec.config.model, VisibilityModel::Ev { .. })
}

/// The full eligibility gate: returns a partition only when the
/// clusters are independent *and* the home actually splits —
///
/// - the spec-level preconditions hold (empty failure plan,
///   deterministic latency, EV model),
/// - the spec is hazard-clean ([`crate::check`] — an Error-severity
///   diagnostic like a dangling `After` edge would make the structural
///   partition itself unreliable),
/// - the partition actually splits the home (≥ 2 clusters).
///
/// `None` means "not splittable", never "error".
pub fn plan(spec: &RunSpec) -> Option<HomePartition> {
    if !decomposable(spec) {
        return None;
    }
    if crate::check(spec).is_err() {
        return None;
    }
    let p = partition(spec);
    p.is_split().then_some(p)
}

/// [`plan`] as a plain function value, for callers that take the
/// verdict as a callback.
pub fn planner() -> fn(&RunSpec) -> Option<HomePartition> {
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use safehome_core::EngineConfig;
    use safehome_devices::catalog::plug_home;
    use safehome_devices::LatencyModel;
    use safehome_harness::Submission;
    use safehome_types::{Routine, TimeDelta, Timestamp, Value};

    fn set(name: &str, dev: u32) -> Routine {
        Routine::builder(name)
            .set(
                safehome_types::DeviceId(dev),
                Value::ON,
                TimeDelta::from_millis(50),
            )
            .build()
    }

    fn decomposable_spec(n_devices: usize) -> RunSpec {
        let mut spec = RunSpec::new(
            plug_home(n_devices),
            EngineConfig::new(VisibilityModel::ev()),
        );
        spec.latency = LatencyModel::Fixed(TimeDelta::from_millis(20));
        spec
    }

    #[test]
    fn disjoint_devices_split() {
        let mut spec = decomposable_spec(4);
        for d in 0..4 {
            spec.submit(Submission::at(
                set(&format!("r{d}"), d),
                Timestamp::from_millis(u64::from(d) * 10),
            ));
        }
        let p = plan(&spec).expect("four independent devices must split");
        assert_eq!(p.clusters, vec![vec![0], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn shared_device_unions_even_when_windows_are_far_apart() {
        let mut spec = decomposable_spec(2);
        spec.submit(Submission::at(set("early", 0), Timestamp::ZERO));
        // Hours later — windows cannot overlap, but the lineage is
        // shared, so clustering must still union them.
        spec.submit(Submission::at(
            set("late", 0),
            Timestamp::from_millis(3_600_000),
        ));
        spec.submit(Submission::at(set("other", 1), Timestamp::ZERO));
        let p = partition(&spec);
        assert_eq!(p.clusters, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn after_edge_unions_across_disjoint_devices() {
        let mut spec = decomposable_spec(2);
        let a = spec.submit(Submission::at(set("a", 0), Timestamp::ZERO));
        spec.submit(Submission::after(
            set("b", 1),
            a,
            TimeDelta::from_millis(10),
        ));
        let p = partition(&spec);
        assert_eq!(p.clusters, vec![vec![0, 1]]);
        assert!(plan(&spec).is_none(), "single cluster: nothing to split");
    }

    #[test]
    fn gate_rejects_nondeterministic_latency_and_failures() {
        let mut spec = decomposable_spec(2);
        spec.submit(Submission::at(set("a", 0), Timestamp::ZERO));
        spec.submit(Submission::at(set("b", 1), Timestamp::ZERO));
        assert!(plan(&spec).is_some());

        let mut jittered = spec.clone();
        jittered.latency = LatencyModel::Jittered {
            base: TimeDelta::from_millis(10),
            jitter: TimeDelta::from_millis(5),
        };
        assert!(plan(&jittered).is_none(), "jitter draws from the RNG");

        let mut failing = spec.clone();
        failing.failures = safehome_devices::FailurePlan::none()
            .fail(safehome_types::DeviceId(0), Timestamp::from_millis(1));
        assert!(plan(&failing).is_none(), "failure plans couple clusters");

        let mut gsv = spec;
        gsv.config = EngineConfig::new(VisibilityModel::Gsv { strong: false });
        assert!(plan(&gsv).is_none(), "GSV serializes globally");
    }

    #[test]
    fn gate_rejects_hazardous_specs() {
        let mut spec = decomposable_spec(1);
        spec.submit(Submission::at(set("bad", 7), Timestamp::ZERO)); // unknown device
        spec.submit(Submission::at(set("ok", 0), Timestamp::ZERO));
        assert!(plan(&spec).is_none(), "Error diagnostics must gate");
    }
}
