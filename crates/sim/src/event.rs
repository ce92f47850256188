//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs ordered by
//! time, with ties broken by insertion order. Deterministic tie-breaking is
//! essential: the Astral figures are regenerated from seeded runs, and a heap
//! that reorders same-timestamp events between runs (or between platforms)
//! would produce irreproducible timelines.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: fires at `time`, carrying `payload`.
#[derive(Debug)]
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

/// A min-heap of timestamped events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time: the timestamp of the last popped event
    /// (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in a causal simulation;
    /// debug builds assert, release builds clamp to `now`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            payload,
        });
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Remove and return the next `(time, payload)`, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "event queue went back in time");
        self.now = s.time;
        Some((s.time, s.payload))
    }

    /// Remove and return the next event due at or before `until` that
    /// `live` accepts, advancing the clock to it. Events `live` rejects
    /// (superseded notices) are dropped without touching the clock, so
    /// discarding them never moves time past the last real event.
    pub fn pop_live(
        &mut self,
        until: SimTime,
        mut live: impl FnMut(&E) -> bool,
    ) -> Option<(SimTime, E)> {
        while self.heap.peek().is_some_and(|s| s.time <= until) {
            let s = self.heap.pop().expect("peeked");
            if live(&s.payload) {
                debug_assert!(s.time >= self.now, "event queue went back in time");
                self.now = s.time;
                return Some((s.time, s.payload));
            }
        }
        None
    }

    /// Drop every pending event (the clock is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(3));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_scheduling_stays_causal() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 1u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 5 {
                q.schedule(t + SimDuration::from_nanos(2), e + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    fn rejected_events_leave_the_clock_alone() {
        let mut q = EventQueue::new();
        for (t, live) in [(3, true), (5, false), (7, true), (9, false)] {
            q.schedule(SimTime::from_nanos(t), live);
        }
        let until = SimTime::from_nanos(6);
        assert_eq!(
            q.pop_live(until, |&l| l).map(|(t, _)| t.as_nanos()),
            Some(3)
        );
        assert_eq!(q.pop_live(until, |&l| l), None);
        assert_eq!(q.now(), SimTime::from_nanos(3));
        assert_eq!(
            q.pop_live(SimTime::MAX, |&l| l).map(|(t, _)| t.as_nanos()),
            Some(7)
        );
        assert_eq!(q.pop_live(SimTime::MAX, |&l| l), None);
        assert_eq!(q.now(), SimTime::from_nanos(7));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_preserves_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(4), ());
        q.pop();
        q.schedule(SimTime::from_nanos(8), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_nanos(4));
    }
}
