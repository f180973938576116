//! Virtual-time event queue.
//!
//! One contiguous binary min-heap keyed by `(due instant, insertion
//! sequence)`. Why a heap: a home's queue holds tens to a few hundred
//! events, so an O(log n) sift over a cache-resident array is a handful
//! of compares, and the queue's footprint is proportional to what it
//! holds. The calendar wheel this replaced pinned ~310 KB of fixed
//! bucket arrays per queue (4096 + 4096 deques plus bitmaps) whether it
//! held one event or none; with thousands of resident homes that state
//! thrashed the cache, dominated the service runner's memory and made
//! recycling a queue cost a sweep over 8192 buckets. The pop-order
//! contract is unchanged (see [`EventQueue`]).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use safehome_types::Timestamp;

/// One pending event. Ordered by `(at, seq)` *reversed*, so the std
/// max-heap pops the earliest instant first and, within an instant, the
/// lowest insertion sequence first. The payload takes no part in the
/// order.
struct Entry<E> {
    at: u64,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
///
/// Events pop in non-decreasing timestamp order; events scheduled for the
/// same instant pop in insertion order. Popping advances the queue's
/// clock, and scheduling an event in the past is clamped to `now` (this
/// matches how an edge hub would process a backlog: never before now).
/// A clamped event keeps its insertion rank at the clamped instant, so
/// it pops behind everything already queued there.
///
/// The heap's allocation is kept across [`EventQueue::clear`], so a
/// pooled queue reaches steady state with zero allocations per event.
///
/// # Examples
///
/// ```
/// use safehome_sim::EventQueue;
/// use safehome_types::Timestamp;
///
/// let mut q = EventQueue::new();
/// q.schedule(Timestamp::from_millis(20), "b");
/// q.schedule(Timestamp::from_millis(10), "a");
/// assert_eq!(q.pop(), Some((Timestamp::from_millis(10), "a")));
/// assert_eq!(q.now(), Timestamp::from_millis(10));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Insertion sequence of the next scheduled event: the FIFO
    /// tiebreak within an instant.
    next_seq: u64,
    now: Timestamp,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Timestamp::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time (time of the last popped event).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Approximate heap footprint in bytes: the queue itself plus the
    /// heap's retained capacity. Retained (not just occupied) capacity is
    /// what a resident home pins in memory, so this is the number the
    /// service runner's eviction accounting wants.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap.capacity() * std::mem::size_of::<Entry<E>>()
    }

    /// Empties the queue and resets the clock to zero, retaining the
    /// heap's allocation so a recycled queue schedules and pops without
    /// allocating. Used by the harness's per-thread queue pool.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = Timestamp::ZERO;
    }

    /// Schedules `payload` at time `at` (clamped to now if in the past).
    pub fn schedule(&mut self, at: Timestamp, payload: E) {
        let at = at.max(self.now).as_millis();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        let Entry { at, payload, .. } = self.heap.pop()?;
        debug_assert!(at >= self.now.as_millis(), "virtual time went backwards");
        self.now = Timestamp::from_millis(at);
        Some((self.now, payload))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|e| Timestamp::from_millis(e.at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The horizons of the calendar wheel this queue replaced: a 4096 ms
    // near wheel and a 4096 x 4096 ms second level. Kept so the edge,
    // horizon-crossing and clamp cases those boundaries motivated still
    // pin the public pop contract.
    const WHEEL: u64 = 4096;
    const L2_SPAN: u64 = WHEEL * WHEEL;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(42), ());
        assert_eq!(q.now(), Timestamp::ZERO);
        q.pop();
        assert_eq!(q.now(), t(42));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(t(100), "late");
        q.pop();
        q.schedule(t(10), "early"); // in the past now
        assert_eq!(q.pop(), Some((t(100), "early")));
    }

    #[test]
    fn clamped_event_pops_after_events_already_queued_at_now() {
        // A past event is clamped to `now`, and the seq tiebreak must
        // then place it *behind* everything already queued at `now`: the
        // backlog drains in the order it was enqueued, clamping never
        // lets a stale event jump a fresh one.
        let mut q = EventQueue::new();
        q.schedule(t(100), "tick");
        q.pop(); // now = 100
        q.schedule(t(100), "first");
        q.schedule(t(100), "second");
        q.schedule(t(40), "stale"); // clamped to now = 100
        q.schedule(t(100), "third");
        assert_eq!(q.pop(), Some((t(100), "first")));
        assert_eq!(q.pop(), Some((t(100), "second")));
        assert_eq!(
            q.pop(),
            Some((t(100), "stale")),
            "clamped event keeps its insertion rank at the clamped instant"
        );
        assert_eq!(q.pop(), Some((t(100), "third")));
        assert_eq!(q.now(), t(100));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(t(9), ());
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.now(), Timestamp::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(50), 5);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(30), 3);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), Some((t(50), 5)));
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        // Events many near horizons out still pop in time order, FIFO
        // within their instant, and peek sees them.
        let mut q = EventQueue::new();
        let far = WHEEL * 10;
        for i in 0..5 {
            q.schedule(t(far), i);
        }
        q.schedule(t(far + WHEEL + 1), 99);
        q.schedule(t(3), -1);
        assert_eq!(q.pop(), Some((t(3), -1)));
        assert_eq!(q.peek_time(), Some(t(far)), "peek sees far events");
        for i in 0..5 {
            assert_eq!(q.pop(), Some((t(far), i)));
        }
        assert_eq!(q.pop(), Some((t(far + WHEEL + 1), 99)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_survives_migration() {
        // An event scheduled past the near horizon, then *later-
        // scheduled* events at the same instant (before and after the
        // clock gets there), must pop in insertion order.
        let mut q = EventQueue::new();
        let at = WHEEL + 500;
        q.schedule(t(at), "early-seq");
        q.schedule(t(1), "opener");
        assert_eq!(q.pop(), Some((t(1), "opener")));
        q.schedule(t(at), "mid-seq");
        assert_eq!(q.pop(), Some((t(at), "early-seq")));
        q.schedule(t(at), "late-seq");
        assert_eq!(q.pop(), Some((t(at), "mid-seq")));
        assert_eq!(q.pop(), Some((t(at), "late-seq")));
    }

    #[test]
    fn slide_keeps_periodic_rescheduling_ordered() {
        // The probe-loop pattern: each pop reschedules `interval` ahead.
        // Order must hold across thousands of near-horizon spans.
        let interval = 1_000u64;
        let mut q = EventQueue::new();
        for d in 0..7u64 {
            q.schedule(t(d * 37), d);
        }
        let mut last = 0u64;
        for _ in 0..10_000 {
            let (at, d) = q.pop().expect("loop never drains");
            assert!(at.as_millis() >= last, "time went backwards");
            last = at.as_millis();
            q.schedule(t(at.as_millis() + interval), d);
        }
        assert_eq!(q.len(), 7);
    }

    #[test]
    fn slide_cannot_jump_parked_overflow_events() {
        // With an event parked far ahead and nothing nearer pending, a
        // *later-scheduled* event at the parked instant must pop behind
        // it, and one just before it must pop first.
        let mut q = EventQueue::new();
        let far = WHEEL * 3 + 17;
        q.schedule(t(10), "opener");
        q.schedule(t(far), "parked-early-seq");
        assert_eq!(q.pop(), Some((t(10), "opener")));
        q.schedule(t(far), "parked-late-seq");
        q.schedule(t(far - 1), "just-before");
        assert_eq!(q.pop(), Some((t(far - 1), "just-before")));
        assert_eq!(q.pop(), Some((t(far), "parked-early-seq")));
        assert_eq!(q.pop(), Some((t(far), "parked-late-seq")));
    }

    #[test]
    fn window_edge_events_stay_ordered() {
        // Events either side of the near-horizon boundary.
        let mut q = EventQueue::new();
        q.schedule(t(WHEEL - 1), "in-window");
        q.schedule(t(WHEEL), "past-window");
        q.schedule(t(0), "now");
        assert_eq!(q.pop(), Some((t(0), "now")));
        assert_eq!(q.pop(), Some((t(WHEEL - 1), "in-window")));
        assert_eq!(q.pop(), Some((t(WHEEL), "past-window")));
    }

    #[test]
    fn clear_resets_and_retains_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(t(i * 137), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), Timestamp::ZERO);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // Fully usable after the reset.
        q.schedule(t(7), 1);
        q.schedule(t(3), 0);
        assert_eq!(q.pop(), Some((t(3), 0)));
        assert_eq!(q.pop(), Some((t(7), 1)));
    }

    #[test]
    fn level2_bucket_mixing_instants_pops_in_time_order() {
        // Several instants within one near-horizon span, scheduled out
        // of time order: pops restore time order, and peek reports the
        // true minimum, not the first-inserted entry.
        let mut q = EventQueue::new();
        let span = WHEEL;
        q.schedule(t(span + 900), "later");
        q.schedule(t(span + 100), "earlier");
        q.schedule(t(span + 900), "later-2");
        assert_eq!(q.peek_time(), Some(t(span + 100)), "peek scans the bucket");
        assert_eq!(q.pop(), Some((t(span + 100), "earlier")));
        assert_eq!(q.pop(), Some((t(span + 900), "later")));
        assert_eq!(q.pop(), Some((t(span + 900), "later-2")));
    }

    #[test]
    fn events_exactly_at_level1_level2_edge_stay_ordered() {
        // Equal-time events at exactly the near horizon, scheduled
        // before and after the clock reaches the instant just before it,
        // pop in insertion order.
        let mut q = EventQueue::new();
        let edge = WHEEL;
        q.schedule(t(edge - 1), "last-in-window");
        q.schedule(t(edge), "first-past-a");
        q.schedule(t(edge), "first-past-b");
        assert_eq!(q.pop(), Some((t(edge - 1), "last-in-window")));
        // A fresh equal-time event must still pop behind the earlier
        // ones.
        q.schedule(t(edge), "first-past-c");
        assert_eq!(q.pop(), Some((t(edge), "first-past-a")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-b")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-c")));
    }

    #[test]
    fn events_exactly_at_level2_overflow_edge_stay_ordered() {
        // Beyond the far horizon, an equal-time event scheduled after a
        // parked one pops behind it, and an earlier instant pops first.
        let mut q = EventQueue::new();
        let far = L2_SPAN * 2 + 12_345;
        q.schedule(t(far), "parked-early");
        q.schedule(t(far), "parked-late");
        q.schedule(t(far - 1), "just-before");
        assert_eq!(q.pop(), Some((t(far - 1), "just-before")));
        assert_eq!(q.pop(), Some((t(far), "parked-early")));
        assert_eq!(q.pop(), Some((t(far), "parked-late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clamp_to_now_ordering_survives_level2_promotion() {
        // Once the clock reaches a far instant, a stale (clamped) event
        // must pop behind everything already queued there and ahead of
        // anything queued later.
        let mut q = EventQueue::new();
        let at = WHEEL * 5 + 77;
        q.schedule(t(at), "promoted-a");
        q.schedule(t(0), "opener");
        assert_eq!(q.pop(), Some((t(0), "opener")));
        assert_eq!(q.pop(), Some((t(at), "promoted-a"))); // now = at
        q.schedule(t(at), "fresh");
        q.schedule(t(3), "stale"); // clamped to now = at
        q.schedule(t(at), "freshest");
        assert_eq!(q.pop(), Some((t(at), "fresh")));
        assert_eq!(q.pop(), Some((t(at), "stale")));
        assert_eq!(q.pop(), Some((t(at), "freshest")));
    }

    #[test]
    fn hours_long_horizon_stress_matches_sorted_order() {
        // Deterministic pseudo-random events spread over ~2.5 far
        // horizons (~11.6 h of virtual time), popped against a straight
        // stable sort of (time, seq).
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x5AFE_5EEDu64;
        for i in 0..800u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % (L2_SPAN * 5 / 2);
            q.schedule(t(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, i)| (at, i));
        for (at, i) in expected {
            assert_eq!(q.pop(), Some((t(at), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn periodic_rescheduling_with_hour_scale_interval_stays_ordered() {
        // The service-mode shard-queue pattern: per-home next-event
        // times rescheduled tens of minutes ahead, far past the near
        // horizon but within the far one.
        let interval = 37 * 60 * 1_000u64; // 37 min, < L2_SPAN
        let mut q = EventQueue::new();
        for d in 0..5u64 {
            q.schedule(t(d * 13_331), d);
        }
        let mut last = 0u64;
        for _ in 0..2_000 {
            let (at, d) = q.pop().expect("loop never drains");
            assert!(at.as_millis() >= last, "time went backwards");
            last = at.as_millis();
            q.schedule(t(at.as_millis() + interval), d);
        }
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn dense_mixed_horizon_stress_matches_sorted_order() {
        // A deterministic pseudo-random mix of near and far events,
        // popped against a straight stable sort of (time, seq).
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for i in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % (WHEEL * 3);
            q.schedule(t(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, i)| (at, i));
        for (at, i) in expected {
            assert_eq!(q.pop(), Some((t(at), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_pop_and_park_across_independent_wheels() {
        // Steal-era shape: two shard queues hold entries due at the same
        // instant. A thief pops shard B's entry while the owner pops
        // shard A's, then both re-park at the same future instant. The
        // queues are independent, so each must preserve its own FIFO and
        // neither may observe the other's clock.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        a.schedule(t(500), "a0");
        a.schedule(t(500), "a1");
        b.schedule(t(500), "b0");
        assert_eq!(a.pop(), Some((t(500), "a0")));
        assert_eq!(b.pop(), Some((t(500), "b0")));
        // Both re-park at the same boundary instant; per-queue insertion
        // order still rules.
        a.schedule(t(1_000), "a0");
        b.schedule(t(1_000), "b0");
        a.schedule(t(1_000), "a2");
        assert_eq!(a.pop(), Some((t(500), "a1")));
        assert_eq!(a.pop(), Some((t(1_000), "a0")));
        assert_eq!(a.pop(), Some((t(1_000), "a2")));
        assert_eq!(b.pop(), Some((t(1_000), "b0")));
        assert_eq!(a.now(), t(1_000));
        assert_eq!(b.now(), t(1_000));
    }

    #[test]
    fn l2_entry_stolen_mid_span_leaves_siblings_ordered() {
        // Entries parked far ahead within one near-horizon span. A steal
        // pops the earliest and re-parks it further out; the remaining
        // entries must still pop in time order, and a re-park landing
        // *between* them must slot in rather than ride behind the tail.
        let base = WHEEL * 3;
        let mut q = EventQueue::new();
        q.schedule(t(base + 10), "early");
        q.schedule(t(base + 30), "late");
        q.schedule(t(base + 20), "mid");
        assert_eq!(q.pop(), Some((t(base + 10), "early")));
        // Stolen home re-parks inside the still-active span.
        q.schedule(t(base + 25), "early");
        assert_eq!(q.pop(), Some((t(base + 20), "mid")));
        assert_eq!(q.pop(), Some((t(base + 25), "early")));
        assert_eq!(q.pop(), Some((t(base + 30), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clamp_to_now_after_recovered_repark_keeps_service_order() {
        // A thief advancing a shard queue past another home's true
        // next-event time forces that home's re-park to clamp to `now`.
        // The clamped entry must queue *behind* entries already parked
        // at `now` (FIFO) — and, because the clamp perturbs the shard
        // timestamp, the service runner derives slice boundaries from
        // the home's own queue, never from the shard queue's popped
        // time. This pins the shard-queue half of that contract.
        let mut q = EventQueue::new();
        q.schedule(t(2_000), "far"); // popped by the thief first
        assert_eq!(q.pop(), Some((t(2_000), "far")));
        q.schedule(t(2_000), "resident");
        // Recovered home's true next event is at t=700 — already in the
        // shard queue's past. The park clamps to now=2000, behind "resident".
        q.schedule(t(700), "recovered");
        assert_eq!(q.pop(), Some((t(2_000), "resident")));
        let (at, who) = q.pop().expect("clamped entry is pending");
        assert_eq!(who, "recovered");
        assert_eq!(at, t(2_000), "the queue time is the clamp, not t=700");
    }

    #[test]
    fn approx_bytes_tracks_retained_capacity() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let fresh = q.approx_bytes();
        assert!(
            fresh < 1024,
            "a fresh queue pins no bucket array, got {fresh} bytes"
        );
        for i in 0..10_000u64 {
            q.schedule(t(i * 7_919), i); // spans hours of virtual time
        }
        let loaded = q.approx_bytes();
        assert!(
            loaded >= fresh + 10_000 * std::mem::size_of::<u64>(),
            "heap growth must show up"
        );
        while q.pop().is_some() {}
        q.clear();
        assert_eq!(
            q.approx_bytes(),
            loaded,
            "recycled queues keep their capacity, which is the point \
             of reporting retained rather than occupied bytes"
        );
    }
}
