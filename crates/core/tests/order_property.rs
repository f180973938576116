//! Property test for the serialization-order tracker.
//!
//! [`OrderTracker`] keeps its constraint graph in dense, reused slots and
//! its transitive closure in one flat bit matrix that it updates
//! incrementally: new edges OR rows into the source's ancestors, and
//! removing a routine recomputes only the rows that reached it. This
//! test drives random acyclic sequences of `add_routine`, `new_failure`,
//! `new_restart`, `add_edge`, `mark_committed` and `remove_routine`
//! against a naive reference model — a plain edge set, reachability by
//! depth-first search and a Kahn sort that scans for the minimum ready
//! node — and checks after *every* operation that `reaches` agrees on
//! every pair of live nodes (plus recently removed ones),
//! `placement_conflicts` agrees on random pre/post sets, and
//! `witness_order` is identical. The sequences also register routines
//! that were already named by edges, re-add existing edges, and commit
//! or remove routines the tracker does not hold, because the API accepts
//! all of those.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use safehome_core::order::{OrderNode, OrderTracker};
use safehome_types::{trace::OrderItem, DeviceId, RoutineId, Timestamp};

/// Deterministic generator (SplitMix64) for the ops of one sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn per_mille(&mut self, p: u64) -> bool {
        self.next() % 1000 < p
    }

    /// An index below `len`, half the time among the 16 highest.
    fn mostly_recent(&mut self, len: usize) -> usize {
        if self.per_mille(500) {
            len - 1 - self.below(len.min(16))
        } else {
            self.below(len)
        }
    }
}

/// The least node in `OrderNode`'s order.
const FIRST_NODE: OrderNode = OrderNode::Routine(RoutineId(0));

/// The reference: registered nodes, a raw edge set, and every query
/// answered by search.
#[derive(Default)]
struct Reference {
    /// Registered nodes: `(device, committed)`.
    nodes: BTreeMap<OrderNode, (Option<DeviceId>, bool)>,
    edges: BTreeSet<(OrderNode, OrderNode)>,
    next_event_seq: u32,
}

impl Reference {
    /// `true` if a path `from → … → to` exists: a depth-first search
    /// over the edge set.
    fn reaches(&self, from: OrderNode, to: OrderNode) -> bool {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            let out = self.edges.range((n, FIRST_NODE)..);
            for &(_, b) in out.take_while(|&&(a, _)| a == n) {
                if seen.insert(b) {
                    stack.push(b);
                }
            }
        }
        false
    }

    /// Reachability between every pair of `probes` (which must hold
    /// every edge endpoint), one depth-first search per probe.
    fn closure(&self, probes: &BTreeSet<OrderNode>) -> Closure {
        let index: BTreeMap<OrderNode, usize> =
            probes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut succ = vec![Vec::new(); probes.len()];
        for (a, b) in &self.edges {
            succ[index[a]].push(index[b]);
        }
        let reach = (0..probes.len())
            .map(|from| {
                let mut seen = vec![false; probes.len()];
                seen[from] = true;
                let mut stack = vec![from];
                while let Some(n) = stack.pop() {
                    for &m in &succ[n] {
                        if !seen[m] {
                            seen[m] = true;
                            stack.push(m);
                        }
                    }
                }
                seen
            })
            .collect();
        Closure { index, reach }
    }

    fn placement_conflicts(closure: &Closure, pre: &[RoutineId], post: &[RoutineId]) -> bool {
        post.iter().any(|&q| {
            pre.iter()
                .any(|&p| closure.reaches(OrderNode::Routine(q), OrderNode::Routine(p)))
        })
    }

    fn witness_order(&self) -> Vec<OrderItem> {
        let key = |n: OrderNode| match n {
            OrderNode::Routine(r) => (0u8, r.raw()),
            OrderNode::Failure(s) | OrderNode::Restart(s) => (1, s as u64),
        };
        let included: BTreeSet<OrderNode> = self
            .nodes
            .iter()
            .filter(|(_, &(_, committed))| committed)
            .map(|(&n, _)| n)
            .collect();
        let inner: Vec<(OrderNode, OrderNode)> = self
            .edges
            .iter()
            .filter(|(a, b)| included.contains(a) && included.contains(b))
            .copied()
            .collect();
        let mut indegree: BTreeMap<OrderNode, usize> = included.iter().map(|&n| (n, 0)).collect();
        for (_, b) in &inner {
            *indegree.get_mut(b).unwrap() += 1;
        }
        let mut out = Vec::new();
        while let Some(n) = indegree
            .iter()
            .filter(|(_, &deg)| deg == 0)
            .map(|(&n, _)| n)
            .min_by_key(|&n| key(n))
        {
            indegree.remove(&n);
            for (_, b) in inner.iter().filter(|&&(a, _)| a == n) {
                *indegree.get_mut(b).unwrap() -= 1;
            }
            let device = self.nodes[&n].0;
            out.push(match n {
                OrderNode::Routine(r) => OrderItem::Routine(r),
                OrderNode::Failure(_) => OrderItem::Failure(device.unwrap()),
                OrderNode::Restart(_) => OrderItem::Restart(device.unwrap()),
            });
        }
        assert!(indegree.is_empty(), "reference sequences stay acyclic");
        out
    }
}

/// The reference's answer to `reaches` over a fixed probe set.
struct Closure {
    index: BTreeMap<OrderNode, usize>,
    reach: Vec<Vec<bool>>,
}

impl Closure {
    fn reaches(&self, from: OrderNode, to: OrderNode) -> bool {
        match (self.index.get(&from), self.index.get(&to)) {
            _ if from == to => true,
            (Some(&i), Some(&j)) => self.reach[i][j],
            _ => false,
        }
    }
}

/// What one sequence exercised.
#[derive(Debug, Default)]
struct Coverage {
    /// Most nodes holding a tracker slot at once.
    peak_slots: usize,
    /// Slot allocations made while some earlier slot was free.
    reused_slots: usize,
    /// Removals of a routine that had at least one ancestor.
    repairs: usize,
}

/// Tracker and reference side by side, plus the node universe the
/// sequence draws from.
struct Harness {
    tracker: OrderTracker,
    reference: Reference,
    /// Every routine id handed out so far, registered or not.
    routines: Vec<RoutineId>,
    next_routine: u64,
    events: Vec<OrderNode>,
    /// Nodes that hold a tracker slot, mirrored (registered or named by
    /// an edge, and not removed since).
    slotted: BTreeSet<OrderNode>,
    /// Routines removed most recently; queried so stale closure bits
    /// would show.
    removed: Vec<OrderNode>,
    free: usize,
    now: u64,
    coverage: Coverage,
}

impl Harness {
    fn new() -> Self {
        Harness {
            tracker: OrderTracker::new(),
            reference: Reference::default(),
            routines: Vec::new(),
            next_routine: 1,
            events: Vec::new(),
            slotted: BTreeSet::new(),
            removed: Vec::new(),
            free: 0,
            now: 0,
            coverage: Coverage::default(),
        }
    }

    fn occupy(&mut self, n: OrderNode) {
        if self.slotted.insert(n) {
            if self.free > 0 {
                self.free -= 1;
                self.coverage.reused_slots += 1;
            }
            self.coverage.peak_slots = self.coverage.peak_slots.max(self.slotted.len());
        }
    }

    /// A node for an edge endpoint: mostly recent ones, so chains get
    /// deep; sometimes a routine id not handed out yet (the tracker
    /// slots it unregistered and may see it registered later).
    fn pick_node(&mut self, rng: &mut Rng) -> OrderNode {
        if rng.per_mille(30) {
            return OrderNode::Routine(RoutineId(self.next_routine + rng.below(3) as u64));
        }
        if !self.events.is_empty() && rng.per_mille(250) {
            self.events[rng.mostly_recent(self.events.len())]
        } else if !self.routines.is_empty() {
            OrderNode::Routine(self.routines[rng.mostly_recent(self.routines.len())])
        } else {
            OrderNode::Routine(RoutineId(self.next_routine))
        }
    }

    fn pick_routine(&mut self, rng: &mut Rng) -> RoutineId {
        if self.routines.is_empty() || rng.per_mille(20) {
            return RoutineId(self.next_routine + rng.below(3) as u64);
        }
        self.routines[rng.below(self.routines.len())]
    }

    fn step(&mut self, rng: &mut Rng, churn: u64) -> String {
        self.now += 1 + rng.below(5) as u64;
        let at = Timestamp::from_millis(self.now);
        match rng.below(1000) as u64 {
            x if x < 250 => {
                let r = if rng.per_mille(50) && !self.routines.is_empty() {
                    self.pick_routine(rng)
                } else {
                    let r = RoutineId(self.next_routine);
                    self.next_routine += 1;
                    self.routines.push(r);
                    r
                };
                self.tracker.add_routine(r, at);
                let node = OrderNode::Routine(r);
                self.reference.nodes.entry(node).or_insert((None, false));
                self.occupy(node);
                format!("add_routine({r:?})")
            }
            x if x < 310 => {
                let device = DeviceId(rng.below(4) as u32);
                let failure = rng.per_mille(500);
                let node = if failure {
                    self.tracker.new_failure(device, at)
                } else {
                    self.tracker.new_restart(device, at)
                };
                let seq = self.reference.next_event_seq;
                self.reference.next_event_seq += 1;
                let want = if failure {
                    OrderNode::Failure(seq)
                } else {
                    OrderNode::Restart(seq)
                };
                assert_eq!(node, want, "event numbering");
                self.reference.nodes.insert(node, (Some(device), true));
                self.events.push(node);
                self.occupy(node);
                format!("new_event({node:?})")
            }
            x if x < 700 => {
                let (a, b) = if rng.per_mille(100) && !self.reference.edges.is_empty() {
                    let i = rng.below(self.reference.edges.len());
                    *self.reference.edges.iter().nth(i).unwrap()
                } else {
                    (self.pick_node(rng), self.pick_node(rng))
                };
                if a != b && self.reference.reaches(b, a) {
                    return format!("skip add_edge({a:?}, {b:?}): cycle");
                }
                self.tracker.add_edge(a, b);
                if a != b {
                    self.reference.edges.insert((a, b));
                    self.occupy(a);
                    self.occupy(b);
                }
                format!("add_edge({a:?}, {b:?})")
            }
            x if x < 1000 - churn => {
                let r = self.pick_routine(rng);
                self.tracker.mark_committed(r, at);
                if let Some(info) = self.reference.nodes.get_mut(&OrderNode::Routine(r)) {
                    info.1 = true;
                }
                format!("mark_committed({r:?})")
            }
            _ => {
                // Aborts hit in-flight, so mostly recent, routines.
                let r = if !self.routines.is_empty() && rng.per_mille(800) {
                    self.routines[rng.mostly_recent(self.routines.len())]
                } else {
                    self.pick_routine(rng)
                };
                let node = OrderNode::Routine(r);
                if self.slotted.contains(&node)
                    && self
                        .reference
                        .edges
                        .iter()
                        .any(|&(a, b)| b == node && a != node)
                {
                    self.coverage.repairs += 1;
                }
                self.tracker.remove_routine(r);
                self.reference.nodes.remove(&node);
                self.reference
                    .edges
                    .retain(|&(a, b)| a != node && b != node);
                if self.slotted.remove(&node) {
                    self.free += 1;
                }
                self.removed.push(node);
                if self.removed.len() > 8 {
                    self.removed.remove(0);
                }
                format!("remove_routine({r:?})")
            }
        }
    }

    /// Compares every query against the reference.
    fn check(&self, rng: &mut Rng) -> Result<(), String> {
        let probes: BTreeSet<OrderNode> =
            self.slotted.iter().chain(&self.removed).copied().collect();
        let closure = self.reference.closure(&probes);
        for &from in &probes {
            for &to in &probes {
                prop_assert_eq!(
                    self.tracker.reaches(from, to),
                    closure.reaches(from, to),
                    "reaches({:?}, {:?})",
                    from,
                    to
                );
            }
        }
        for _ in 0..8 {
            let set = |rng: &mut Rng| -> Vec<RoutineId> {
                let len = rng.below(4);
                (0..len)
                    .map(|_| match rng.below(self.routines.len() + 1) {
                        i if i < self.routines.len() => self.routines[i],
                        _ => RoutineId(self.next_routine),
                    })
                    .collect()
            };
            let (pre, post) = (set(rng), set(rng));
            prop_assert_eq!(
                self.tracker.placement_conflicts(&pre, &post),
                Reference::placement_conflicts(&closure, &pre, &post),
                "placement_conflicts({:?}, {:?})",
                pre,
                post
            );
        }
        prop_assert_eq!(
            self.tracker.witness_order(),
            self.reference.witness_order(),
            "witness_order"
        );
        Ok(())
    }
}

/// Runs `len` random ops from `seed`, checking after each one. `churn`
/// is the per-mille share of ops that remove a routine.
fn run_sequence(seed: u64, len: usize, churn: u64) -> Result<Coverage, String> {
    let mut rng = Rng(seed);
    let mut h = Harness::new();
    let mut log = Vec::new();
    for _ in 0..len {
        log.push(h.step(&mut rng, churn));
        if let Err(msg) = h.check(&mut rng) {
            let tail = log[log.len().saturating_sub(6)..].join("; ");
            return Err(format!("{msg} after {} ops (last: {tail})", log.len()));
        }
    }
    Ok(h.coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tracker_matches_naive_reference(
        seed in any::<u64>(),
        len in 1usize..320,
        churn in 0u64..250,
    ) {
        run_sequence(seed, len, churn)?;
    }
}

/// Long sequences: the closure matrix must widen past 64 and past 128
/// slots while removals free slots that later nodes reuse and force
/// ancestor repairs, all under the same per-op checks.
#[test]
fn long_sequences_widen_the_matrix_and_reuse_slots() {
    for (seed, len, churn) in [(11, 500, 40), (12, 600, 90)] {
        let coverage = run_sequence(seed, len, churn).unwrap();
        assert!(coverage.peak_slots > 128, "{coverage:?}");
        assert!(coverage.reused_slots > 0, "{coverage:?}");
        assert!(coverage.repairs > 0, "{coverage:?}");
    }
}
