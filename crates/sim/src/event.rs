//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, payload)` pairs ordered by
//! time, with ties broken by insertion order. Deterministic tie-breaking is
//! essential: the Astral figures are regenerated from seeded runs, and a heap
//! that reorders same-timestamp events between runs (or between platforms)
//! would produce irreproducible timelines.
//!
//! Simulated events crowd onto few timestamps: a collective step injects
//! all of its flows at one start time, and one rate recompute schedules
//! most of its completions at one finish time. So the queue orders
//! *distinct pending times*, not events. Each pending time owns one FIFO
//! chain of its events, linked through a slab. A push at a time already
//! pending appends to that time's chain, found through a hash map or, for
//! back-to-back pushes at one time, through a cache of the last push. A
//! pop takes the head of the earliest time's chain. The pop order is
//! exactly `(time, push order)`, as from a heap of `(time, seq, payload)`
//! entries, but the heap is paid once per distinct time rather than once
//! per event. Slab slots, chains and map entries are recycled, so once a
//! simulation has warmed up, repeating a pattern of pushes and pops
//! allocates nothing.

use crate::hash::MulHashMap;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

/// End of a chain or of a free list.
const NIL: u32 = u32::MAX;

/// A slab slot: a pending event and the next one at its time, or (when
/// free) empty and linked to the next free slot.
#[derive(Debug, Clone)]
struct Slot<E> {
    payload: Option<E>,
    next: u32,
}

/// The FIFO chain of one pending time's events, as slab indices. A free
/// chain links to the next free chain through `head`.
#[derive(Debug, Clone)]
struct Chain {
    head: u32,
    tail: u32,
}

/// A min-queue of timestamped events with FIFO tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_slot: u32,
    chains: Vec<Chain>,
    free_chain: u32,
    /// Every pending time once, with its chain; never an empty chain.
    times: BinaryHeap<Reverse<(SimTime, u32)>>,
    chain_at: MulHashMap<SimTime, u32>,
    /// The time and chain of the last push, while that chain is pending.
    last_push: Option<(SimTime, u32)>,
    len: usize,
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
            slots: Vec::new(),
            free_slot: NIL,
            chains: Vec::new(),
            free_chain: NIL,
            times: BinaryHeap::new(),
            chain_at: MulHashMap::default(),
            last_push: None,
            len: 0,
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
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every pending payload, in no particular order.
    pub fn pending(&self) -> impl Iterator<Item = &E> + '_ {
        self.slots.iter().filter_map(|s| s.payload.as_ref())
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
        let slot = self.alloc_slot(payload);
        let chain = match self.last_push {
            Some((t, c)) if t == at => c,
            _ => {
                let c = self.chain_for(at);
                self.last_push = Some((at, c));
                c
            }
        };
        let ch = &mut self.chains[chain as usize];
        if ch.head == NIL {
            ch.head = slot;
        } else {
            self.slots[ch.tail as usize].next = slot;
        }
        ch.tail = slot;
        self.len += 1;
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.times.peek().map(|&Reverse((t, _))| t)
    }

    /// Remove and return the next `(time, payload)`, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, payload) = self.pop_front()?;
        debug_assert!(t >= self.now, "event queue went back in time");
        self.now = t;
        Some((t, payload))
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
        while self.peek_time().is_some_and(|t| t <= until) {
            let (t, payload) = self.pop_front().expect("peeked");
            if live(&payload) {
                debug_assert!(t >= self.now, "event queue went back in time");
                self.now = t;
                return Some((t, payload));
            }
        }
        None
    }

    /// Move the clock forward to `t` without popping anything: the clock
    /// an event at `t` would leave. `t` may not be before the clock or
    /// after the next pending event.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock moved back: to={t} now={}", self.now);
        assert!(
            self.peek_time().is_none_or(|next| t <= next),
            "clock moved past a pending event"
        );
        self.now = t;
    }

    /// Put `payload` in a free slab slot, unlinked.
    fn alloc_slot(&mut self, payload: E) -> u32 {
        if self.free_slot == NIL {
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue slab is full");
            self.slots.push(Slot {
                payload: Some(payload),
                next: NIL,
            });
            return i;
        }
        let i = self.free_slot;
        let s = &mut self.slots[i as usize];
        self.free_slot = s.next;
        s.payload = Some(payload);
        s.next = NIL;
        i
    }

    /// The chain of pending time `at`, opening an empty one if `at` is
    /// not pending.
    fn chain_for(&mut self, at: SimTime) -> u32 {
        match self.chain_at.entry(at) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let empty = Chain {
                    head: NIL,
                    tail: NIL,
                };
                let c = if self.free_chain == NIL {
                    self.chains.push(empty);
                    (self.chains.len() - 1) as u32
                } else {
                    let c = self.free_chain;
                    self.free_chain = self.chains[c as usize].head;
                    self.chains[c as usize] = empty;
                    c
                };
                e.insert(c);
                self.times.push(Reverse((at, c)));
                c
            }
        }
    }

    /// Unlink the first event of the earliest pending time, closing that
    /// time when its chain empties. Leaves the clock alone.
    fn pop_front(&mut self) -> Option<(SimTime, E)> {
        let &Reverse((t, c)) = self.times.peek()?;
        let ch = &mut self.chains[c as usize];
        let i = ch.head;
        let s = &mut self.slots[i as usize];
        let payload = s.payload.take().expect("chained slot holds an event");
        ch.head = s.next;
        s.next = self.free_slot;
        self.free_slot = i;
        self.len -= 1;
        if ch.head == NIL {
            ch.head = self.free_chain;
            self.free_chain = c;
            self.times.pop();
            self.chain_at.remove(&t);
            if self.last_push.is_some_and(|(lt, _)| lt == t) {
                self.last_push = None;
            }
        }
        Some((t, payload))
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
    fn push_at_now_joins_the_batch_being_popped() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(4);
        q.schedule(t, 'a');
        q.schedule(t, 'b');
        assert_eq!(q.pop(), Some((t, 'a')));
        q.schedule(t, 'c');
        assert_eq!(q.pop(), Some((t, 'b')));
        assert_eq!(q.pop(), Some((t, 'c')));
        // The time's chain closed with its last pop; a new push reopens it.
        q.schedule(t, 'd');
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t, 'd')));
        assert!(q.is_empty());
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
    fn advance_to_moves_the_clock_up_to_the_next_event() {
        let mut q = EventQueue::new();
        q.advance_to(SimTime::from_nanos(4));
        assert_eq!(q.now(), SimTime::from_nanos(4));
        q.schedule(SimTime::from_nanos(9), ());
        q.advance_to(SimTime::from_nanos(9));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), ())));
        let late = std::panic::catch_unwind(move || {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_nanos(5), ());
            q.advance_to(SimTime::from_nanos(6));
        });
        assert!(late.is_err(), "the clock passed a pending event");
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
}
