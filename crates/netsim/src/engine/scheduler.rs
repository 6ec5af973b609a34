//! The deterministic event queues at the heart of the network engine.
//!
//! Two implementations with identical observable semantics:
//!
//! * [`CalendarQueue`] — an NS-2-style calendar/bucket queue with amortised
//!   O(1) push/pop at high event rates: the one production queue, popped by
//!   the waveform loop and by every sharded analytic cell;
//! * [`EventQueue`] — a thin wrapper over [`BinaryHeap`] (O(log n) per
//!   operation), kept only as the reference oracle the calendar is
//!   cross-checked against here and in the `engine_scale` property tests.
//!
//! Both fix the two things a reproducible discrete-event simulator needs
//! and a bare priority queue does not give:
//!
//! * **FIFO tie-breaking** — events at the same timestamp pop in insertion
//!   order (a monotone sequence number), so the handling order is a pure
//!   function of the push order, never of container internals;
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

/// A time-ordered event queue with FIFO tie-breaking.
pub struct EventQueue<T> {
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
        EventQueue {
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

    /// Pops the earliest event strictly before `horizon`, if any.
    pub fn pop_before(&mut self, horizon: f64) -> Option<(f64, T)> {
        if self.heap.peek()?.time < horizon {
            let entry = self.heap.pop().expect("peeked entry exists");
            Some((entry.time, entry.item))
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_before(f64::INFINITY)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Descending (time, seq) order, so the next event to pop sits at the end
/// of a sorted bucket and `Vec::pop` surfaces it.
fn descending<T>(a: &Entry<T>, b: &Entry<T>) -> Ordering {
    b.time.total_cmp(&a.time).then(b.seq.cmp(&a.seq))
}

/// An NS-2-style calendar (bucket) queue with FIFO tie-breaking.
///
/// The time axis from `origin` is split into `n_buckets` fixed-width
/// buckets; a push appends to its bucket unsorted (O(1)), and a bucket is
/// sorted lazily only when the drain cursor reaches it. Events beyond the
/// last bucket collect in an overflow list; when every regular bucket is
/// exhausted the calendar rebases itself on the overflow population (the
/// new origin is the overflow minimum, so the drain always makes
/// progress). Pushes behind the drain cursor — feedback events landing in
/// the window currently being processed — are sorted into the live drain
/// buffer, keeping the pop order exactly the heap's (time, push-order)
/// order for any causal schedule.
pub struct CalendarQueue<T> {
    origin: f64,
    width: f64,
    buckets: Vec<Vec<Entry<T>>>,
    /// Index of the next bucket to drain.
    cursor: usize,
    /// The bucket currently draining, sorted descending so `Vec::pop`
    /// yields the earliest remaining (time, seq).
    drain: Vec<Entry<T>>,
    overflow: Vec<Entry<T>>,
    next_seq: u64,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Creates a calendar spanning `[origin, origin + width × n_buckets)`;
    /// events outside land in the overflow list and still pop correctly.
    pub fn new(origin: f64, width: f64, n_buckets: usize) -> Self {
        assert!(origin.is_finite(), "calendar origin must be finite");
        assert!(
            width > 0.0 && width.is_finite(),
            "bucket width must be positive"
        );
        assert!(n_buckets > 0, "need at least one bucket");
        CalendarQueue {
            origin,
            width,
            buckets: (0..n_buckets).map(|_| Vec::new()).collect(),
            cursor: 0,
            drain: Vec::new(),
            overflow: Vec::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Auto-sizes a calendar for roughly `expected_events` spread over
    /// `span` seconds from `origin`: about one event per bucket, capped so
    /// the empty-bucket scan stays cheap for sparse schedules.
    pub fn for_span(origin: f64, span: f64, expected_events: usize) -> Self {
        let n_buckets = expected_events.clamp(16, 8192);
        let width = (span.max(1e-9) / n_buckets as f64).max(1e-9);
        Self::new(origin, width, n_buckets)
    }

    /// Schedules an event at the given time (seconds).
    pub fn push(&mut self, time: f64, item: T) {
        assert!(time.is_finite(), "event time must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, item });
        self.len += 1;
    }

    fn bucket_index(&self, time: f64) -> usize {
        // f64 → usize casts saturate, so a far-future time safely maps past
        // the last bucket (overflow); a pre-origin time clamps to bucket 0.
        ((time - self.origin).max(0.0) / self.width) as usize
    }

    fn insert(&mut self, entry: Entry<T>) {
        let idx = self.bucket_index(entry.time);
        if idx < self.cursor {
            // The event's bucket is already draining (or drained): sort it
            // into the live drain buffer at its (time, seq) position.
            let at = self
                .drain
                .partition_point(|e| descending(e, &entry).is_lt());
            self.drain.insert(at, entry);
        } else if idx < self.buckets.len() {
            self.buckets[idx].push(entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Advances the drain cursor until an event is exposed; returns whether
    /// one is.
    fn settle(&mut self) -> bool {
        loop {
            if !self.drain.is_empty() {
                return true;
            }
            if self.cursor < self.buckets.len() {
                self.drain = std::mem::take(&mut self.buckets[self.cursor]);
                self.drain.sort_unstable_by(descending);
                self.cursor += 1;
                continue;
            }
            if !self.overflow.is_empty() {
                self.rebase();
                continue;
            }
            return false;
        }
    }

    /// Every regular bucket is exhausted: rebase the calendar on the
    /// overflow population. The new origin is the overflow minimum, so at
    /// least one entry lands in bucket 0 and the drain makes progress;
    /// entries still beyond the rebased span stay in overflow (clamping
    /// them into the last bucket would let them pop ahead of earlier
    /// events overflowing later).
    fn rebase(&mut self) {
        let entries = std::mem::take(&mut self.overflow);
        self.origin = entries.iter().map(|e| e.time).fold(f64::INFINITY, f64::min);
        self.cursor = 0;
        for entry in entries {
            let idx = self.bucket_index(entry.time);
            if idx < self.buckets.len() {
                self.buckets[idx].push(entry);
            } else {
                self.overflow.push(entry);
            }
        }
    }

    /// Pops the earliest event strictly before `horizon`, if any.
    pub fn pop_before(&mut self, horizon: f64) -> Option<(f64, T)> {
        if !self.settle() {
            return None;
        }
        if self.drain.last().expect("settled drain is non-empty").time < horizon {
            let entry = self.drain.pop().expect("checked non-empty");
            self.len -= 1;
            Some((entry.time, entry.item))
        } else {
            None
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.pop_before(f64::INFINITY)
    }

    /// Timestamp of the earliest pending event (advances the drain cursor
    /// over empty buckets, hence `&mut`).
    pub fn peek_time(&mut self) -> Option<f64> {
        if self.settle() {
            self.drain.last().map(|e| e.time)
        } else {
            None
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
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
    fn calendar_pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new(0.0, 0.5, 8);
        q.push(2.0, "late");
        q.push(1.0, "tie-first");
        q.push(1.0, "tie-second");
        q.push(0.5, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, it)| it)).collect();
        assert_eq!(order, vec!["early", "tie-first", "tie-second", "late"]);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_pop_before_respects_the_horizon() {
        let mut q = CalendarQueue::new(0.0, 1.0, 4);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.pop_before(1.5), Some((1.0, 1)));
        assert_eq!(q.pop_before(1.5), None);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(2.0), None);
        assert_eq!(q.pop_before(2.0 + 1e-9), Some((2.0, 2)));
    }

    #[test]
    fn calendar_handles_overflow_and_rebase() {
        // Span covers [0, 2): everything later lives in the overflow list
        // until the rebase kicks in, and must still pop in order.
        let mut q = CalendarQueue::new(0.0, 1.0, 2);
        q.push(10.0, "c");
        q.push(0.5, "a");
        q.push(100.0, "d");
        q.push(1.5, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, it)| it)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn calendar_accepts_pushes_behind_the_drain_cursor() {
        // Feedback pattern: while draining the window around t=5, new
        // events land back inside it (and even before the popped head).
        let mut q = CalendarQueue::new(0.0, 1.0, 16);
        q.push(5.0, "first");
        q.push(6.0, "last");
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

    #[test]
    fn calendar_matches_the_heap_on_a_dense_schedule() {
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::for_span(0.0, 10.0, 64);
        // Deterministic pseudo-random times with deliberate ties.
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = ((x >> 40) % 1000) as f64 / 37.0;
            heap.push(t, i);
            cal.push(t, i);
        }
        loop {
            match (heap.pop(), cal.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
