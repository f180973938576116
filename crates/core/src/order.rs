//! Serialization-order tracking (§3, §4.2).
//!
//! SafeHome's key realization is that device failure and restart events
//! must be serialized *alongside* routines. The [`OrderTracker`] maintains
//! a growing partial order whose nodes are routines, failure events and
//! restart events. Models add constraint edges as they place lock
//! accesses (every pair of routines ordered by a shared device gets an
//! edge) and as they apply the failure-serialization rules.
//!
//! At the end of a run the tracker produces the *witness order*: a total
//! order consistent with every constraint, containing every committed
//! routine and every failure/restart event (aborted routines are removed
//! along with their constraints — they "do not appear in the final
//! serialized order"). The metrics crate replays the witness order to
//! verify serial equivalence and to compute the order-mismatch metric.
//!
//! Committed routines and events stay in the order for the whole run, so
//! the node count `N` grows with a home's history, not with the routines
//! in flight. Every operation is therefore built to stay cheap as `N`
//! grows: nodes live in dense slots, and the transitive closure is one
//! flat bit matrix of `N` rows of `W = ⌈N/64⌉` words (see
//! [`OrderTracker`] for the per-operation costs).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use safehome_types::{trace::OrderItem, DeviceId, RoutineId, Timestamp};

/// A node in the serialization order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OrderNode {
    /// A routine.
    Routine(RoutineId),
    /// The `seq`-th failure event of the run.
    Failure(u32),
    /// The `seq`-th restart event of the run.
    Restart(u32),
}

impl OrderNode {
    /// Which node→slot map holds the node, and its index there.
    fn map_key(self) -> (usize, usize) {
        match self {
            OrderNode::Routine(r) => (0, r.raw() as usize),
            OrderNode::Failure(s) => (1, s as usize),
            OrderNode::Restart(s) => (2, s as usize),
        }
    }

    /// Witness-order tie-break among ready nodes: routines by id (that
    /// is, submission order), then events by sequence number.
    fn witness_key(self) -> (u8, u64) {
        match self {
            OrderNode::Routine(r) => (0, r.raw()),
            OrderNode::Failure(s) | OrderNode::Restart(s) => (1, s as u64),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeInfo {
    /// Submission, then commit, time for routines; detection time for
    /// events. Kept for debugging output; the witness order does not
    /// read it.
    time: Timestamp,
    device: Option<DeviceId>,
    /// Routines start pending and become committed or are removed;
    /// events are always "committed".
    committed: bool,
}

/// One dense slot: a node, its registration and its direct edges.
#[derive(Debug, Clone)]
struct Slot {
    node: OrderNode,
    /// `None` while the node only appears in edges (it was never
    /// registered, so it never enters the witness order).
    info: Option<NodeInfo>,
    /// Direct successors and predecessors, as slots, each edge once.
    succ: Vec<u32>,
    pred: Vec<u32>,
}

/// The reachability closure: one contiguous row-major bit matrix.
///
/// Row `i` occupies `bits[i * stride..(i + 1) * stride]`; bit `j` of it
/// is set iff slot `i` reaches slot `j`, and every live row holds its
/// own bit. Free rows are all zero. The stride is a power of two that
/// doubles when the slot count outgrows it, and row operations touch
/// only the `⌈rows/64⌉` words that can hold set bits.
#[derive(Debug, Clone, Default)]
struct BitMatrix {
    stride: usize,
    rows: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Appends an all-zero row, widening every row first if the new
    /// column does not fit.
    fn push_row(&mut self) {
        if self.rows == self.stride * 64 {
            let wide = (self.stride * 2).max(1);
            let mut bits = vec![0; self.rows * wide];
            if self.stride > 0 {
                for (dst, src) in bits
                    .chunks_exact_mut(wide)
                    .zip(self.bits.chunks_exact(self.stride))
                {
                    dst[..self.stride].copy_from_slice(src);
                }
            }
            self.bits = bits;
            self.stride = wide;
        }
        self.rows += 1;
        self.bits.resize(self.rows * self.stride, 0);
    }

    /// Words per row that can hold set bits.
    fn words(&self) -> usize {
        self.rows.div_ceil(64)
    }

    fn row(&self, i: u32) -> &[u64] {
        let at = i as usize * self.stride;
        &self.bits[at..at + self.words()]
    }

    fn row_mut(&mut self, i: u32) -> &mut [u64] {
        let (at, words) = (i as usize * self.stride, self.words());
        &mut self.bits[at..at + words]
    }

    fn test(&self, i: u32, j: u32) -> bool {
        self.bits[i as usize * self.stride + j as usize / 64] & (1 << (j % 64)) != 0
    }

    /// Resets row `i` to just its own bit.
    fn reset_row(&mut self, i: u32) {
        self.row_mut(i).fill(0);
        self.bits[i as usize * self.stride + i as usize / 64] |= 1 << (i % 64);
    }

    /// ORs row `src` into row `dst` in place.
    fn or_row(&mut self, dst: u32, src: u32) {
        let (d, s, words) = (
            dst as usize * self.stride,
            src as usize * self.stride,
            self.words(),
        );
        let (to, from) = if d < s {
            let (lo, hi) = self.bits.split_at_mut(s);
            (&mut lo[d..d + words], &hi[..words])
        } else if d > s {
            let (lo, hi) = self.bits.split_at_mut(d);
            (&mut hi[..words], &lo[s..s + words])
        } else {
            return;
        };
        for (t, &f) in to.iter_mut().zip(from) {
            *t |= f;
        }
    }
}

/// Marks an unmapped entry of a node→slot map.
const NO_SLOT: u32 = u32::MAX;

/// The partial-order tracker.
///
/// Nodes live in dense slots, reused after removals. A node→slot map
/// per node kind is a vector indexed by routine id or event sequence
/// number, so it takes memory in proportion to the largest id (the
/// engine numbers routines densely from 1). Each slot keeps its node,
/// its registration and its direct successor and predecessor lists.
/// Alongside that graph the tracker keeps the full transitive closure
/// in one flat row-major bit matrix. With `N` slots,
/// `W = ⌈N/64⌉` closure words per row and `A` ancestors of the node an
/// operation touches, the costs are:
///
/// - [`reaches`](Self::reaches) and, per `(pre, post)` pair,
///   [`placement_conflicts`](Self::placement_conflicts) — the per-gap
///   test of the Timeline planner's inner loop (Fig. 15d) — are two
///   vector lookups and one bit probe.
/// - [`add_edge`](Self::add_edge) from `a` to an already reachable `b`
///   adds no reachability and costs one scan of the shorter of the two
///   endpoint edge lists (to drop a duplicate edge). Otherwise one O(N)
///   column scan finds the ancestors of `a`, and `b`'s row is ORed into
///   each of them in place, O(N + A·W).
/// - [`remove_routine`](Self::remove_routine) unlinks the node's edges,
///   then repairs only the rows that can change — the removed node's
///   ancestors — from their successors, O(N + A·log A + Σ out-degree·W).
/// - [`witness_order`](Self::witness_order) is a Kahn pass over the
///   slots, O((N + E)·log N).
///
/// The matrix takes `N·W` words; its stride doubles as `N` grows, so the
/// growth copies are amortized O(N·W) in total.
#[derive(Debug, Clone, Default)]
pub struct OrderTracker {
    /// Routine, failure and restart node→slot maps (see
    /// `OrderNode::map_key`); `NO_SLOT` marks an absent node.
    slot_of: [Vec<u32>; 3],
    slots: Vec<Slot>,
    /// Slots freed by removed routines, reused by later nodes.
    free_slots: Vec<u32>,
    closure: BitMatrix,
    /// Abort-repair buffer of `(old popcount, ancestor slot)`, reused
    /// across removals.
    repair: Vec<(u32, u32)>,
    next_event_seq: u32,
}

impl OrderTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, n: OrderNode) -> Option<u32> {
        let (kind, i) = n.map_key();
        self.slot_of[kind].get(i).copied().filter(|&s| s != NO_SLOT)
    }

    fn map(&mut self, n: OrderNode, slot: u32) {
        let (kind, i) = n.map_key();
        let map = &mut self.slot_of[kind];
        if i >= map.len() {
            map.resize(i + 1, NO_SLOT);
        }
        map[i] = slot;
    }

    /// `n`'s slot, allocating one (reaching only itself) if it has none.
    fn slot(&mut self, n: OrderNode) -> u32 {
        if let Some(s) = self.lookup(n) {
            return s;
        }
        let s = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize].node = n;
                s
            }
            None => {
                self.slots.push(Slot {
                    node: n,
                    info: None,
                    succ: Vec::new(),
                    pred: Vec::new(),
                });
                self.closure.push_row();
                self.closure.rows as u32 - 1
            }
        };
        self.closure.reset_row(s);
        self.map(n, s);
        s
    }

    /// Registers a routine node (pending until committed or removed).
    /// Re-registration is a no-op.
    pub fn add_routine(&mut self, r: RoutineId, submitted: Timestamp) {
        let s = self.slot(OrderNode::Routine(r));
        self.slots[s as usize].info.get_or_insert(NodeInfo {
            time: submitted,
            device: None,
            committed: false,
        });
    }

    fn new_event(&mut self, node: OrderNode, device: DeviceId, at: Timestamp) -> OrderNode {
        self.next_event_seq += 1;
        let s = self.slot(node);
        self.slots[s as usize].info = Some(NodeInfo {
            time: at,
            device: Some(device),
            committed: true,
        });
        node
    }

    /// Registers a new failure event for `device`, returning its node.
    pub fn new_failure(&mut self, device: DeviceId, at: Timestamp) -> OrderNode {
        self.new_event(OrderNode::Failure(self.next_event_seq), device, at)
    }

    /// Registers a new restart event for `device`, returning its node.
    pub fn new_restart(&mut self, device: DeviceId, at: Timestamp) -> OrderNode {
        self.new_event(OrderNode::Restart(self.next_event_seq), device, at)
    }

    /// Adds the constraint `a` serializes before `b`. Self-edges are
    /// ignored.
    pub fn add_edge(&mut self, a: OrderNode, b: OrderNode) {
        if a == b {
            return;
        }
        debug_assert!(
            !self.reaches(b, a),
            "order edge {a:?} -> {b:?} would create a cycle"
        );
        let ia = self.slot(a);
        let ib = self.slot(b);
        if self.closure.test(ia, ib) {
            // `b` is already reachable, so the edge may exist: dedupe by
            // scanning the shorter endpoint list. Reachability is
            // unchanged either way.
            let (out, inc) = (&self.slots[ia as usize].succ, &self.slots[ib as usize].pred);
            let present = if out.len() <= inc.len() {
                out.contains(&ib)
            } else {
                inc.contains(&ia)
            };
            if !present {
                self.link(ia, ib);
            }
            return;
        }
        self.link(ia, ib);
        // Everything that reaches `a` (including `a`) now also reaches
        // everything `b` reaches. Row `b` lacks bit `a` (no cycles), so
        // the ORs leave column `a` as it was.
        for i in 0..self.closure.rows as u32 {
            if self.closure.test(i, ia) {
                self.closure.or_row(i, ib);
            }
        }
    }

    fn link(&mut self, a: u32, b: u32) {
        self.slots[a as usize].succ.push(b);
        self.slots[b as usize].pred.push(a);
    }

    /// Convenience: routine-before-routine edge.
    pub fn order_routines(&mut self, before: RoutineId, after: RoutineId) {
        self.add_edge(OrderNode::Routine(before), OrderNode::Routine(after));
    }

    /// `true` if a path `from → … → to` exists. O(1): a closure bit
    /// probe.
    pub fn reaches(&self, from: OrderNode, to: OrderNode) -> bool {
        if from == to {
            return true;
        }
        match (self.lookup(from), self.lookup(to)) {
            (Some(i), Some(j)) => self.closure.test(i, j),
            _ => false,
        }
    }

    /// Would constraining `pre ⟶ R ⟶ post` contradict existing order?
    /// True when some member of `post` already reaches some member of
    /// `pre` (Algorithm 1's preSet/postSet test, strengthened to the
    /// transitive closure — the paper checks only direct intersection,
    /// which misses cycles through third routines). Each pair costs one
    /// closure bit probe.
    pub fn placement_conflicts(&self, pre: &[RoutineId], post: &[RoutineId]) -> bool {
        for &q in post {
            let iq = self.lookup(OrderNode::Routine(q));
            for &p in pre {
                if q == p {
                    return true;
                }
                if let (Some(iq), Some(ip)) = (iq, self.lookup(OrderNode::Routine(p))) {
                    if self.closure.test(iq, ip) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Marks a routine committed (it will appear in the witness order).
    pub fn mark_committed(&mut self, r: RoutineId, at: Timestamp) {
        let Some(s) = self.lookup(OrderNode::Routine(r)) else {
            return;
        };
        if let Some(info) = &mut self.slots[s as usize].info {
            info.committed = true;
            info.time = at;
        }
    }

    /// Removes an aborted routine and every constraint that mentions it.
    ///
    /// Only rows that reached the routine can lose bits, so only they are
    /// recomputed, each as its own bit ORed with its successors' rows. In
    /// a DAG a node's row strictly contains every descendant's, so
    /// recomputing in ascending order of old popcount rebuilds every
    /// successor that is itself an ancestor before the rows that read it.
    pub fn remove_routine(&mut self, r: RoutineId) {
        let node = OrderNode::Routine(r);
        let Some(x) = self.lookup(node) else {
            return;
        };
        self.map(node, NO_SLOT);
        let slot = &mut self.slots[x as usize];
        slot.info = None;
        let (succ, pred) = (
            std::mem::take(&mut slot.succ),
            std::mem::take(&mut slot.pred),
        );
        for s in succ {
            self.slots[s as usize].pred.retain(|&p| p != x);
        }
        for p in pred {
            self.slots[p as usize].succ.retain(|&q| q != x);
        }

        let mut ancestors = std::mem::take(&mut self.repair);
        ancestors.clear();
        for a in (0..self.closure.rows as u32).filter(|&a| a != x && self.closure.test(a, x)) {
            let popcount = self.closure.row(a).iter().map(|w| w.count_ones()).sum();
            ancestors.push((popcount, a));
        }
        self.closure.row_mut(x).fill(0);
        self.free_slots.push(x);
        ancestors.sort_unstable();
        for &(_, a) in &ancestors {
            self.closure.reset_row(a);
            for &s in &self.slots[a as usize].succ {
                self.closure.or_row(a, s);
            }
        }
        self.repair = ancestors;
    }

    /// Device associated with an event node.
    pub fn device_of(&self, n: OrderNode) -> Option<DeviceId> {
        let s = self.lookup(n)?;
        self.slots[s as usize].info.and_then(|i| i.device)
    }

    /// Produces the witness total order: a deterministic topological sort
    /// of committed routines and failure/restart events. Ready routines
    /// pop in submission order; events pop after routines, as late as
    /// their constraints allow.
    ///
    /// # Panics
    ///
    /// Panics if the constraints contain a cycle — that would mean a
    /// serialization bug, and the property tests assert it never happens.
    pub fn witness_order(&self) -> Vec<OrderItem> {
        let included = |s: u32| self.slots[s as usize].info.is_some_and(|i| i.committed);
        let mut indegree = vec![0u32; self.slots.len()];
        let mut total = 0;
        for a in (0..self.slots.len() as u32).filter(|&a| included(a)) {
            total += 1;
            for &b in self.slots[a as usize].succ.iter().filter(|&&b| included(b)) {
                indegree[b as usize] += 1;
            }
        }
        // Deterministic Kahn. Unconstrained nodes commute (they share no
        // devices), so the tie-break is free to prefer submission order
        // for routines — this keeps the order-mismatch metric at zero for
        // FIFO-serialized models instead of charging phantom swaps to
        // commuting pairs. Failure/restart events sort after ready
        // routines, as late as their constraints allow ("may be moved
        // flexibly among unfinished routines", §4.2). Keys are unique
        // among registered nodes, so the slot never breaks a tie.
        let entry = |s: u32| Reverse((self.slots[s as usize].node.witness_key(), s));
        let mut ready: BinaryHeap<_> = (0..self.slots.len() as u32)
            .filter(|&s| included(s) && indegree[s as usize] == 0)
            .map(entry)
            .collect();
        let mut out = Vec::with_capacity(total);
        while let Some(Reverse((_, s))) = ready.pop() {
            out.push(self.to_item(s));
            for &m in self.slots[s as usize].succ.iter().filter(|&&m| included(m)) {
                indegree[m as usize] -= 1;
                if indegree[m as usize] == 0 {
                    ready.push(entry(m));
                }
            }
        }
        assert_eq!(
            out.len(),
            total,
            "serialization constraints contain a cycle"
        );
        out
    }

    fn to_item(&self, s: u32) -> OrderItem {
        let slot = &self.slots[s as usize];
        let device = || slot.info.and_then(|i| i.device);
        match slot.node {
            OrderNode::Routine(r) => OrderItem::Routine(r),
            OrderNode::Failure(_) => {
                OrderItem::Failure(device().expect("failure events carry a device"))
            }
            OrderNode::Restart(_) => {
                OrderItem::Restart(device().expect("restart events carry a device"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    fn r(i: u64) -> RoutineId {
        RoutineId(i)
    }

    #[test]
    fn witness_respects_edges_over_time() {
        let mut ord = OrderTracker::new();
        ord.add_routine(r(1), t(0));
        ord.add_routine(r(2), t(1));
        // r2 committed earlier in wall time but serialized after r1
        // (post-lease: "Rj might appear after Ri ... but complete earlier").
        ord.order_routines(r(1), r(2));
        ord.mark_committed(r(2), t(50));
        ord.mark_committed(r(1), t(100));
        assert_eq!(
            ord.witness_order(),
            vec![OrderItem::Routine(r(1)), OrderItem::Routine(r(2))]
        );
    }

    #[test]
    fn unconstrained_routines_order_by_submission() {
        let mut ord = OrderTracker::new();
        ord.add_routine(r(1), t(0));
        ord.add_routine(r(2), t(0));
        // r2 commits first in wall time, but the pair commutes (no shared
        // device), so the witness prefers submission order.
        ord.mark_committed(r(2), t(10));
        ord.mark_committed(r(1), t(20));
        assert_eq!(
            ord.witness_order(),
            vec![OrderItem::Routine(r(1)), OrderItem::Routine(r(2))]
        );
    }

    #[test]
    fn aborted_routines_disappear_with_their_edges() {
        let mut ord = OrderTracker::new();
        ord.add_routine(r(1), t(0));
        ord.add_routine(r(2), t(1));
        ord.order_routines(r(1), r(2));
        ord.remove_routine(r(1));
        ord.mark_committed(r(2), t(30));
        assert_eq!(ord.witness_order(), vec![OrderItem::Routine(r(2))]);
        assert!(!ord.reaches(OrderNode::Routine(r(1)), OrderNode::Routine(r(2))));
    }

    #[test]
    fn failure_events_serialize_with_routines() {
        let mut ord = OrderTracker::new();
        let d = DeviceId(3);
        ord.add_routine(r(1), t(0));
        let f = ord.new_failure(d, t(40));
        let re = ord.new_restart(d, t(60));
        // EV rule 3: failure after last touch serializes after the routine.
        ord.add_edge(OrderNode::Routine(r(1)), f);
        ord.add_edge(f, re);
        ord.mark_committed(r(1), t(100)); // commits later in wall time
        assert_eq!(
            ord.witness_order(),
            vec![
                OrderItem::Routine(r(1)),
                OrderItem::Failure(d),
                OrderItem::Restart(d)
            ]
        );
    }

    #[test]
    fn reaches_is_transitive() {
        let mut ord = OrderTracker::new();
        for i in 1..=4 {
            ord.add_routine(r(i), t(i));
        }
        ord.order_routines(r(1), r(2));
        ord.order_routines(r(2), r(3));
        assert!(ord.reaches(OrderNode::Routine(r(1)), OrderNode::Routine(r(3))));
        assert!(!ord.reaches(OrderNode::Routine(r(3)), OrderNode::Routine(r(1))));
        assert!(!ord.reaches(OrderNode::Routine(r(1)), OrderNode::Routine(r(4))));
    }

    #[test]
    fn placement_conflict_detects_transitive_cycles() {
        let mut ord = OrderTracker::new();
        for i in 1..=3 {
            ord.add_routine(r(i), t(i));
        }
        // Existing: r2 -> r3.
        ord.order_routines(r(2), r(3));
        // New routine wants pre = {r3}, post = {r2}: r3 < R < r2, but
        // r2 < r3 already — transitive cycle, direct intersection empty.
        assert!(ord.placement_conflicts(&[r(3)], &[r(2)]));
        assert!(!ord.placement_conflicts(&[r(2)], &[r(3)]));
        assert!(ord.placement_conflicts(&[r(1)], &[r(1)]), "direct overlap");
    }

    #[test]
    fn pending_routines_are_excluded() {
        let mut ord = OrderTracker::new();
        ord.add_routine(r(1), t(0));
        ord.add_routine(r(2), t(1));
        ord.mark_committed(r(1), t(5));
        assert_eq!(ord.witness_order(), vec![OrderItem::Routine(r(1))]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_constraints_panic() {
        let mut ord = OrderTracker::new();
        ord.add_routine(r(1), t(0));
        ord.add_routine(r(2), t(1));
        ord.mark_committed(r(1), t(2));
        ord.mark_committed(r(2), t(3));
        ord.order_routines(r(1), r(2));
        // Bypass add_edge's debug assert by linking the raw edge.
        let slot = |n| ord.lookup(OrderNode::Routine(r(n))).unwrap();
        let (a, b) = (slot(2), slot(1));
        ord.link(a, b);
        ord.witness_order();
    }
}
