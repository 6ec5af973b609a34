//! The deterministic event queue at the heart of the network engine.
//!
//! [`EventQueue`] is the one queue: every cell of both engine backends
//! pops it. It holds a cell's arrival schedule as a pre-sorted run and
//! only the events pushed at run time in a [`BinaryHeap`], so the heap
//! stays a few entries deep however many readings the cell carries. It
//! fixes the two things a reproducible discrete-event simulator needs and
//! a bare priority queue does not give:
//!
//! * **FIFO tie-breaking** — events at the same timestamp pop in insertion
//!   order (the schedule's order, then a monotone sequence number), so the
//!   handling order is a pure function of the push order, never of
//!   container internals;
//! * **bounded popping** — `pop_before` only surfaces events strictly
//!   before a horizon, which is how the waveform engine interleaves event
//!   processing with chunked signal synthesis.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the max-heap pops the earliest (time, seq) first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking, in two parts:
///
/// * a **schedule** — the events known before the run starts (a cell's
///   whole arrival schedule), stable-sorted by time once and popped from a
///   cursor, so they never enter the heap;
/// * a **heap** of the events pushed at run time (transmits, receptions,
///   downlinks, scans) — the few in flight at any moment.
///
/// A pop takes the earlier head, and a tie goes to the schedule: its
/// events count as pushed before any run-time event, so the pop order is
/// exactly `(time, push-order)` over every event the queue ever held.
pub struct EventQueue<T> {
    schedule: std::vec::IntoIter<(f64, T)>,
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_schedule(Vec::new())
    }

    /// Creates a queue holding `schedule`, as if its events were pushed in
    /// the order given before any other event.
    pub fn with_schedule(mut schedule: Vec<(f64, T)>) -> Self {
        assert!(
            schedule.iter().all(|(t, _)| t.is_finite()),
            "event time must be finite"
        );
        // Stable, so equal times keep their push order.
        schedule.sort_by(|a, b| a.0.total_cmp(&b.0));
        EventQueue {
            schedule: schedule.into_iter(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules an event at the given time (seconds).
    pub fn push(&mut self, time: f64, item: T) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, item });
    }

    /// The earliest pending event's time, and whether it heads the
    /// schedule (which wins a tie, its events being pushed first).
    fn head(&self) -> Option<(f64, bool)> {
        match (self.schedule.as_slice().first(), self.heap.peek()) {
            (Some(&(t, _)), Some(e)) if e.time.total_cmp(&t).is_lt() => Some((e.time, false)),
            (Some(&(t, _)), _) => Some((t, true)),
            (None, e) => e.map(|e| (e.time, false)),
        }
    }

    /// Pops the earliest event strictly before `horizon`, if any.
    pub fn pop_before(&mut self, horizon: f64) -> Option<(f64, T)> {
        let (time, scheduled) = self.head()?;
        if time >= horizon {
            None
        } else if scheduled {
            self.schedule.next()
        } else {
            self.heap.pop().map(|e| (e.time, e.item))
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_before(f64::INFINITY)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.head().map(|(t, _)| t)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.schedule.len() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(2.0, "late");
        q.push(1.0, "tie-first");
        q.push(1.0, "tie-second");
        q.push(0.5, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, it)| it)).collect();
        assert_eq!(order, vec!["early", "tie-first", "tie-second", "late"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop_before(1.5), Some((1.0, 1)));
        assert_eq!(q.pop_before(1.5), None);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 1);
        // An event exactly at the horizon stays queued (strictly-before).
        assert_eq!(q.pop_before(2.0), None);
        assert_eq!(q.pop_before(2.0 + 1e-9), Some((2.0, 2)));
    }

    #[test]
    fn the_schedule_wins_ties_and_keeps_its_order() {
        let mut q =
            EventQueue::with_schedule(vec![(2.0, "s-late"), (1.0, "s-tie"), (1.0, "s-tie-2")]);
        q.push(1.0, "h-tie");
        q.push(0.5, "h-early");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(0.5));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, it)| it)).collect();
        assert_eq!(
            order,
            vec!["h-early", "s-tie", "s-tie-2", "h-tie", "s-late"]
        );
    }

    #[test]
    fn pop_before_respects_the_horizon_over_the_schedule() {
        let mut q = EventQueue::with_schedule(vec![(1.0, 1), (2.0, 2)]);
        q.push(3.0, 3);
        assert_eq!(q.pop_before(1.5), Some((1.0, 1)));
        assert_eq!(q.pop_before(1.5), None);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_before(2.0), None);
        assert_eq!(q.pop_before(2.0 + 1e-9), Some((2.0, 2)));
        assert_eq!(q.pop_before(3.0), None);
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn pushes_before_the_last_pop_come_out_next() {
        // Feedback pattern: while the schedule drains around t=5, new
        // events land between its events and even before the popped head.
        let mut q = EventQueue::with_schedule(vec![(5.0, "first"), (6.0, "last")]);
        assert_eq!(q.pop(), Some((5.0, "first")));
        q.push(5.2, "feedback");
        q.push(5.2, "feedback-tie");
        q.push(0.1, "past");
        assert_eq!(q.pop(), Some((0.1, "past")));
        assert_eq!(q.pop(), Some((5.2, "feedback")));
        assert_eq!(q.pop(), Some((5.2, "feedback-tie")));
        assert_eq!(q.pop(), Some((6.0, "last")));
        assert!(q.is_empty());
    }
}
