//! The deterministic event queue for the simulator hot path.
//!
//! A binary heap over `(time, lane, seq)`: O(log n) push/pop with
//! contiguous storage and no per-operation node allocation, beside a
//! *presorted run*: a FIFO that takes every push whose key is ≥ its
//! tail, so a batch scheduled in key order (a replay client pre-arming
//! one timer per trace entry) is appended and popped in O(1) instead
//! of deepening the heap every other event sifts through. `pop` takes
//! the smaller of the two heads. Because the key is a *strict total
//! order* (`(lane, seq)` is unique — `seq` is a per-lane counter), the
//! pop sequence is fully determined by the pushed keys — neither the
//! heap's internal layout nor which side an item landed on can leak
//! into event order, which is what the determinism guarantee (rule D2,
//! `tests/determinism.rs`) rests on. The unit tests check the pop order
//! against a sorted-`Vec` reference.
//!
//! The *lane* component is what makes the order shard-invariant
//! (`ldp-shard`): a lane is the global id of the host whose processing
//! scheduled the event (or a control/driver lane), and `seq` counts
//! pushes within that lane. Host behaviour is deterministic per host,
//! so the same workload produces the same `(time, lane, seq)` key for
//! every event regardless of how hosts are partitioned across shards —
//! a single-shard run and an N-shard run pop the same global sequence.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// One scheduled item; ordered so that `BinaryHeap` (a max-heap) pops
/// the *smallest* `(time, lane, seq)` first.
struct Slot<T> {
    at: SimTime,
    lane: u64,
    seq: u64,
    item: T,
}

impl<T> Slot<T> {
    fn key(&self) -> (SimTime, u64, u64) {
        (self.at, self.lane, self.seq)
    }
}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.lane == other.lane && self.seq == other.seq
    }
}

impl<T> Eq for Slot<T> {}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on all fields: earliest time wins, then lowest lane,
        // then FIFO within a lane.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.lane.cmp(&self.lane))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue keyed by `(time, lane, seq)`:
/// [`pop`](EventQueue::pop) yields items in key order. Callers own key
/// assignment; `(lane, seq)` pairs must be unique per queue (the
/// simulator keeps one `seq` counter per lane).
pub struct EventQueue<T> {
    heap: BinaryHeap<Slot<T>>,
    /// Items in ascending key order: every push whose key is ≥ the
    /// tail's lands here instead of in `heap`.
    run: VecDeque<Slot<T>>,
}

impl<T> Default for EventQueue<T> {
    /// An empty queue.
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            run: VecDeque::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedule `item` under the explicit key `(at, lane, seq)`.
    pub fn push(&mut self, at: SimTime, lane: u64, seq: u64, item: T) {
        let slot = Slot {
            at,
            lane,
            seq,
            item,
        };
        match self.run.back() {
            Some(tail) if slot.key() < tail.key() => self.heap.push(slot),
            _ => self.run.push_back(slot),
        }
    }

    /// True if the run's head precedes the heap's (or the heap is
    /// empty while the run is not).
    fn run_first(&self) -> bool {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => r.key() < h.key(),
            (r, _) => r.is_some(),
        }
    }

    /// The time of the earliest scheduled item, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.run_first() {
            self.run.front().map(|s| s.at)
        } else {
            self.heap.peek().map(|s| s.at)
        }
    }

    /// Remove and return the earliest item with its scheduled time.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let slot = if self.run_first() {
            self.run.pop_front()
        } else {
            self.heap.pop()
        };
        slot.map(|s| (s.at, s.item))
    }

    /// Number of scheduled items.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_rng::StdRng;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop().map(|(_, i)| i)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.push(t(30), 0, 0, "c");
        q.push(t(10), 0, 1, "a");
        q.push(t(20), 0, 2, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_lane_then_seq() {
        let mut q = EventQueue::default();
        // Push in scrambled lane order; within lane, in seq order.
        for i in 0..100u32 {
            let lane = u64::from(i % 7);
            let seq = u64::from(i / 7);
            q.push(t(7), lane, seq, (lane, seq));
        }
        let order = drain(&mut q);
        let mut expect = order.clone();
        expect.sort();
        assert_eq!(order, expect);
        assert_eq!(order.len(), 100);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::default();
        q.push(t(5), 0, 0, 5u64);
        q.push(t(1), 0, 1, 1);
        assert_eq!(q.pop(), Some((t(1), 1)));
        q.push(t(3), 0, 2, 3);
        q.push(t(5), 0, 3, 50); // same time as the first push, later seq
        assert_eq!(q.pop(), Some((t(3), 3)));
        assert_eq!(q.pop(), Some((t(5), 5)));
        assert_eq!(q.pop(), Some((t(5), 50)));
    }

    /// The key is a total order even when pushes arrive out of key
    /// order — exactly what the sharded exchange does when it injects a
    /// remote packet whose `(time, lane, seq)` was assigned on another
    /// shard.
    #[test]
    fn out_of_order_keyed_pushes_pop_in_key_order() {
        let mut q = EventQueue::default();
        q.push(t(10), 3, 0, "later-lane");
        q.push(t(10), 1, 9, "mid-lane");
        q.push(t(10), 1, 2, "mid-lane-early-seq");
        q.push(t(9), 7, 0, "earlier-time");
        assert_eq!(
            drain(&mut q),
            vec![
                "earlier-time",
                "mid-lane-early-seq",
                "mid-lane",
                "later-lane"
            ]
        );
    }

    /// The ordering contract against an obviously correct reference: a
    /// `Vec` of keys kept sorted, whose smallest element is the next
    /// pop. The schedule is simulator-shaped (mostly near-future events
    /// with frequent exact-time ties across several lanes, occasional
    /// far-future timers, and a clock that advances with each pop), and
    /// `seq` is a per-lane counter pushed in increasing order, so the
    /// `seq` tiebreak decides every same-time, same-lane pair.
    #[test]
    fn matches_sorted_vec_reference_on_randomized_workload() {
        let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
        let mut q = EventQueue::default();
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut next_seq = [0u64; 5];
        let mut now = 0u64;
        let mut popped = 0usize;
        for _ in 0..20_000 {
            let jitter = match rng.gen::<u32>() % 8 {
                0 => 0,
                7 => rng.gen::<u64>() % 1_000_000,
                _ => rng.gen::<u64>() % 1_000,
            };
            let lane = rng.gen_range(0..next_seq.len());
            let key = (t(now + jitter), lane as u64, next_seq[lane]);
            next_seq[lane] += 1;
            q.push(key.0, key.1, key.2, key);
            let at = reference.partition_point(|k| *k < key);
            reference.insert(at, key);
            if rng.gen::<u32>().is_multiple_of(3) {
                let expect = reference.remove(0);
                assert_eq!(q.peek_time(), Some(expect.0));
                assert_eq!(q.pop(), Some((expect.0, expect)));
                now = expect.0.as_nanos(); // time advances like a sim clock
                popped += 1;
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(popped > 5_000 && reference.len() > 10_000);
        assert_eq!(drain(&mut q), reference);
    }

    type Key = (SimTime, u64, u64);

    fn push_both(q: &mut EventQueue<Key>, reference: &mut Vec<Key>, key: Key) {
        q.push(key.0, key.1, key.2, key);
        let at = reference.partition_point(|k| *k < key);
        reference.insert(at, key);
    }

    /// The presorted run against the same reference, on a replay-shaped
    /// schedule: a driver lane pre-arms a long batch in key order (with
    /// time ties), then every pop brings dynamic near-future pushes on
    /// other lanes (below the run's tail, so heap-bound), out-of-order
    /// keyed pushes (earlier times and lower seqs than already queued,
    /// as the sharded exchange injects), and now and then a push past
    /// the tail that extends the run while the heap is non-empty.
    #[test]
    fn presorted_batch_with_interleaved_pushes_matches_sorted_vec_reference() {
        let mut rng = StdRng::seed_from_u64(0x0bad_5eed);
        let mut q = EventQueue::default();
        let mut reference: Vec<Key> = Vec::new();
        let driver = 7u64;
        let mut at_ns = 0u64;
        for seq in 0..4_000u64 {
            at_ns += (rng.gen::<u64>() % 3) * 1_000;
            push_both(&mut q, &mut reference, (t(at_ns), driver, seq));
        }
        assert_eq!(q.heap.len(), 0, "an in-order batch stays in the run");
        let mut next_seq = [0u64; 4];
        let mut driver_seq = 4_000u64;
        let mut popped = 0usize;
        while !reference.is_empty() {
            let expect = reference.remove(0);
            assert_eq!(q.peek_time(), Some(expect.0));
            assert_eq!(q.pop(), Some((expect.0, expect)));
            popped += 1;
            let now = expect.0.as_nanos();
            if popped > 12_000 {
                continue; // let it drain
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let lane = rng.gen_range(0..next_seq.len());
                let key = (
                    t(now + rng.gen::<u64>() % 50_000),
                    lane as u64,
                    next_seq[lane],
                );
                next_seq[lane] += 1;
                push_both(&mut q, &mut reference, key);
            }
            match rng.gen::<u32>() % 16 {
                // Out of key order: an earlier time on a fresh lane.
                0 => {
                    let key = (
                        t(now.saturating_sub(rng.gen::<u64>() % 5_000)),
                        40,
                        popped as u64,
                    );
                    push_both(&mut q, &mut reference, key);
                }
                // Past the run's tail: extends the run mid-stream.
                1 => {
                    let key = (t(at_ns + 1_000_000), driver, driver_seq);
                    driver_seq += 1;
                    at_ns += 1_000;
                    push_both(&mut q, &mut reference, key);
                }
                _ => {}
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(popped > 12_000);
        assert!(q.is_empty() && q.pop().is_none());
    }
}
