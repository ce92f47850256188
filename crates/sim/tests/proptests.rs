//! Property-based tests for the simulation substrate.
#![allow(unused_assignments)]

use astral_sim::{polyfit, EventQueue, OnlineStats, SimDuration, SimRng, SimTime, Summary};
use proptest::prelude::*;
use rand::RngCore;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

proptest! {
    /// Events always pop in nondecreasing time order, regardless of the
    /// insertion order, and same-time events pop in insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<usize> = None;
        let mut popped = 0usize;
        while let Some((t, seq)) = q.pop() {
            prop_assert!(t >= last_time);
            if t == last_time {
                if let Some(prev) = last_seq_at_time {
                    prop_assert!(seq > prev, "FIFO violated at t={t}");
                }
            } else {
                last_seq_at_time = None;
            }
            last_time = t;
            last_seq_at_time = Some(seq);
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The queue clock equals the time of the last popped event.
    #[test]
    fn event_queue_clock_tracks_pops(times in prop::collection::vec(0u64..1_000, 1..50)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_nanos(t), ());
        }
        let max = *times.iter().max().unwrap();
        while q.pop().is_some() {}
        prop_assert_eq!(q.now(), SimTime::from_nanos(max));
    }

    /// SimTime arithmetic is consistent: (a + d) - a == d (away from
    /// saturation).
    #[test]
    fn time_add_then_subtract(a in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur) - dur, t);
    }

    /// RNG determinism: a cloned generator produces the same stream.
    #[test]
    fn rng_clone_is_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = a.clone();
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// below(n) always lands in [0, n).
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// Merged Welford accumulators agree with a single pass.
    #[test]
    fn stats_merge_is_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        ys in prop::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged = OnlineStats::new();
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs { merged.push(x); left.push(x); }
        for &y in &ys { merged.push(y); right.push(y); }
        left.merge(&right);
        prop_assert_eq!(left.count(), merged.count());
        if merged.count() > 0 {
            prop_assert!((left.mean() - merged.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - merged.variance()).abs() < 1e-3);
        }
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(-1e9f64..1e9, 1..200)) {
        let s = Summary::from_samples(xs.clone());
        let mut last = s.min().unwrap();
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(v + 1e-9 >= last, "p{p}: {v} < {last}");
            prop_assert!(v >= s.min().unwrap() - 1e-9);
            prop_assert!(v <= s.max().unwrap() + 1e-9);
            last = v;
        }
    }

    /// A polynomial fitted to exactly (degree+1) distinct points
    /// interpolates them.
    #[test]
    fn polyfit_interpolates_exactly_determined_systems(
        coeffs in prop::collection::vec(-10.0f64..10.0, 1..4),
    ) {
        let degree = coeffs.len() - 1;
        let xs: Vec<f64> = (0..=degree).map(|i| i as f64 - 1.0).collect();
        let truth = astral_sim::Polynomial::new(coeffs);
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fitted = polyfit(&xs, &ys, degree).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((fitted.eval(x) - y).abs() < 1e-6,
                "at x={x}: fitted {} vs true {y}", fitted.eval(x));
        }
    }
}

/// The event queue this crate shipped before its pending-time chains: a
/// binary heap of `(time, seq, payload)` entries, popped earliest
/// `(time, seq)` first. Kept as the oracle [`EventQueue`] must match
/// call for call.
struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            payload,
        });
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.payload))
    }

    fn pop_live(
        &mut self,
        until: SimTime,
        mut live: impl FnMut(&E) -> bool,
    ) -> Option<(SimTime, E)> {
        while self.heap.peek().is_some_and(|s| s.time <= until) {
            let s = self.heap.pop().expect("peeked");
            if live(&s.payload) {
                self.now = s.time;
                return Some((s.time, s.payload));
            }
        }
        None
    }
}

proptest! {
    /// The queue matches the binary-heap oracle on random call sequences:
    /// pushes at a few offsets from `now` (so ties and pushes into the
    /// time being popped are common), pops, `pop_live` with a random
    /// horizon and a random rejecting predicate, and peeks. Every result,
    /// the length and the clock agree after every call.
    #[test]
    fn event_queue_matches_heap_oracle(
        calls in prop::collection::vec((0u8..6, 0u64..6, 0u64..4), 0..400),
    ) {
        let mut q = EventQueue::new();
        let mut oracle = HeapQueue::new();
        let mut next_id = 0u32;
        for (op, dt, k) in calls {
            let now = q.now();
            match op {
                0..=2 => {
                    let at = SimTime::from_nanos(now.as_nanos() + dt * (op as u64 + 1));
                    q.schedule(at, next_id);
                    oracle.schedule(at, next_id);
                    next_id += 1;
                }
                3 => prop_assert_eq!(q.pop(), oracle.pop()),
                4 => {
                    let until = if k == 0 {
                        SimTime::MAX
                    } else {
                        SimTime::from_nanos(now.as_nanos() + dt * k)
                    };
                    let live = |&id: &u32| !(id as u64 + dt).is_multiple_of(k + 2);
                    prop_assert_eq!(q.pop_live(until, live), oracle.pop_live(until, live));
                }
                _ => prop_assert_eq!(q.peek_time(), oracle.peek_time()),
            }
            prop_assert_eq!(q.len(), oracle.heap.len());
            prop_assert_eq!(q.is_empty(), oracle.heap.is_empty());
            prop_assert_eq!(q.now(), oracle.now);
        }
        while let Some(ev) = q.pop() {
            prop_assert_eq!(Some(ev), oracle.pop());
        }
        prop_assert!(oracle.heap.is_empty());
        prop_assert_eq!(q.now(), oracle.now);
    }
}
