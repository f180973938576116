//! Property test for the event queue's pop contract.
//!
//! Every digest in the repo depends on [`EventQueue`]'s contract: pops
//! in non-decreasing timestamp order, FIFO among same-instant events (by
//! insertion sequence), and past events clamped to `now` *keeping their
//! insertion rank at the clamped instant*. The queue is a binary heap,
//! so the reference here is deliberately a different algorithm: an
//! unordered `Vec` that scans for the minimum `(at, seq)` on every pop.
//! This test drives random interleaved schedule/pop/clear sequences —
//! with timestamps spanning near, far and deep-future horizons, and
//! deliberate past-event clamps — against that model, and checks the
//! two produce identical `(at, payload)` pop streams, clocks, lengths
//! and peeks at every step. `clear` followed by reuse is in the op
//! alphabet because the harness's home pool recycles queues.

use proptest::prelude::*;
use safehome_sim::EventQueue;
use safehome_types::Timestamp;

/// The naive model: pending `(at, seq, payload)` triples in insertion
/// order, with clamp-to-now scheduling and a linear minimum scan.
struct ScanQueue {
    pending: Vec<(Timestamp, u64, u32)>,
    next_seq: u64,
    now: Timestamp,
}

impl ScanQueue {
    fn new() -> Self {
        ScanQueue {
            pending: Vec::new(),
            next_seq: 0,
            now: Timestamp::ZERO,
        }
    }

    fn schedule(&mut self, at: Timestamp, payload: u32) {
        let at = at.max(self.now);
        self.pending.push((at, self.next_seq, payload));
        self.next_seq += 1;
    }

    fn min_index(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn pop(&mut self) -> Option<(Timestamp, u32)> {
        let (at, _, payload) = self.pending.remove(self.min_index()?);
        self.now = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<Timestamp> {
        self.min_index().map(|i| self.pending[i].0)
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.now = Timestamp::ZERO;
    }
}

/// One scripted operation per `(kind, raw)`: rare kinds clear both
/// queues, otherwise half the kinds schedule and half pop. Offsets are
/// interpreted relative to the queue's clock so clamping and horizon
/// crossings happen throughout the run, not only at the start.
fn apply_ops(ops: &[(u8, u16)]) -> Result<(), String> {
    let mut queue = EventQueue::new();
    let mut model = ScanQueue::new();
    let mut payload = 0u32;
    for &(kind, raw) in ops {
        if kind % 64 == 63 {
            // The home pool's recycle: empty both, then keep using them.
            queue.clear();
            model.clear();
            prop_assert!(queue.is_empty());
            prop_assert_eq!(queue.now(), Timestamp::ZERO, "clear resets the clock");
            prop_assert_eq!(queue.peek_time(), None);
            continue;
        }
        match kind % 4 {
            // Schedule near, deep future, or in the past
            // (clamped); identical calls go to both queues.
            0 | 1 => {
                let at = match kind % 4 {
                    0 => Timestamp::from_millis(queue.now().as_millis() + raw as u64),
                    _ => {
                        // Past half the time (clamp), deep future otherwise.
                        if raw % 2 == 0 {
                            Timestamp::from_millis(queue.now().as_millis() / 2)
                        } else {
                            Timestamp::from_millis(queue.now().as_millis() + 4_096 + raw as u64 * 7)
                        }
                    }
                };
                payload += 1;
                queue.schedule(at, payload);
                model.schedule(at, payload);
            }
            _ => {
                prop_assert_eq!(
                    queue.peek_time(),
                    model.peek_time(),
                    "peek diverged before pop"
                );
                let w = queue.pop();
                let m = model.pop();
                prop_assert_eq!(w, m, "pop streams diverged");
                prop_assert_eq!(queue.now(), model.now, "clocks diverged");
            }
        }
        prop_assert_eq!(queue.len(), model.pending.len(), "lengths diverged");
    }
    // Drain whatever is left: the full residual orders must agree too.
    while let Some(m) = model.pop() {
        prop_assert_eq!(queue.pop(), Some(m), "drain diverged");
    }
    prop_assert!(queue.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_scan_reference(
        ops in prop::collection::vec((any::<u32>().prop_map(|k| (k % 251) as u8), 0u16..5000), 1..200),
    ) {
        apply_ops(&ops)?;
    }
}

#[test]
fn clamped_backlog_matches_reference_exactly() {
    // Deterministic worst case: everything lands on one clamped instant.
    let mut queue = EventQueue::new();
    let mut model = ScanQueue::new();
    queue.schedule(Timestamp::from_millis(9_000), 0);
    model.schedule(Timestamp::from_millis(9_000), 0);
    assert_eq!(queue.pop(), model.pop());
    for i in 1..50u32 {
        let at = Timestamp::from_millis((i % 7) as u64 * 1_000); // all past
        queue.schedule(at, i);
        model.schedule(at, i);
    }
    for _ in 0..49 {
        assert_eq!(queue.pop(), model.pop());
    }
    assert_eq!(queue.pop(), None);
    assert_eq!(model.pop(), None);
}
