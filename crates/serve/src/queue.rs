//! Bounded ingest queues with explicit backpressure policy.
//!
//! Every served stream buffers its inbound frames in a [`BoundedQueue`]
//! between the client-facing producer and the stream's worker thread. The
//! bound is the backpressure contract: when a consumer falls behind, the
//! queue either *blocks* the producer ([`BackpressurePolicy::Block`] — no
//! frame is ever lost, the client slows to the worker's pace) or *sheds
//! load* ([`BackpressurePolicy::DropOldest`] — the oldest queued frame is
//! discarded to make room, and the loss is counted). Memory is bounded by
//! `capacity` frames either way.
//!
//! The queue is a plain `Mutex<VecDeque>` + two condvars rather than an
//! `mpsc::sync_channel` because drop-oldest needs to displace the *front*
//! of a full queue, which channel APIs cannot express.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What a full queue does to a push. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the producer until the consumer makes room. Lossless.
    Block,
    /// Discard the oldest queued item to admit the new one, counting the
    /// drop. The producer never blocks; the freshest data wins (the right
    /// trade for live IQ capture, where stale samples are worthless).
    DropOldest,
}

/// How a push was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued without displacing anything.
    Enqueued,
    /// The item was enqueued after dropping the oldest queued item
    /// (`DropOldest` on a full queue).
    DisplacedOldest,
}

/// The queue was closed; the item was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    dropped: u64,
    closed: bool,
}

/// A bounded MPSC queue with an explicit backpressure policy. See the
/// [module docs](self).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    policy: BackpressurePolicy,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                dropped: 0,
                closed: false,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            policy,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured policy.
    pub fn policy(&self) -> BackpressurePolicy {
        self.policy
    }

    /// Pushes an item according to the policy: blocks while full under
    /// [`BackpressurePolicy::Block`], displaces the oldest item under
    /// [`BackpressurePolicy::DropOldest`]. Fails once the queue is closed
    /// (including while blocked waiting for room).
    pub fn push(&self, item: T) -> Result<PushOutcome, Closed> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(Closed);
        }
        let outcome = match self.policy {
            BackpressurePolicy::Block => {
                while inner.items.len() >= self.capacity && !inner.closed {
                    inner = self.not_full.wait(inner).expect("queue lock");
                }
                if inner.closed {
                    return Err(Closed);
                }
                PushOutcome::Enqueued
            }
            BackpressurePolicy::DropOldest => {
                if inner.items.len() >= self.capacity {
                    inner.items.pop_front();
                    inner.dropped += 1;
                    PushOutcome::DisplacedOldest
                } else {
                    PushOutcome::Enqueued
                }
            }
        };
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(outcome)
    }

    /// Pops the oldest item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed *and* drained — the consumer's
    /// end-of-stream signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: further pushes fail, blocked producers wake with
    /// [`Closed`], and consumers drain the remaining items then see `None`.
    /// Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Items currently queued — the queue-depth telemetry gauge.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items discarded by drop-oldest displacement so far — the drop
    /// telemetry counter. Always 0 under [`BackpressurePolicy::Block`].
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("queue lock").dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drop_oldest_displaces_exactly_at_the_bound() {
        let q = BoundedQueue::new(3, BackpressurePolicy::DropOldest);
        for i in 0..3 {
            assert_eq!(q.push(i), Ok(PushOutcome::Enqueued));
        }
        assert_eq!(q.dropped(), 0, "no drops below the bound");
        for i in 3..8 {
            assert_eq!(q.push(i), Ok(PushOutcome::DisplacedOldest));
        }
        assert_eq!(q.dropped(), 5);
        assert_eq!(q.len(), 3);
        // The survivors are exactly the newest `capacity` items, in order.
        assert_eq!([q.pop(), q.pop(), q.pop()], [Some(5), Some(6), Some(7)]);
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let q = BoundedQueue::new(2, BackpressurePolicy::Block);
        q.push(1).unwrap();
        q.close();
        q.close(); // idempotent
        assert_eq!(q.push(2), Err(Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_producer_wakes_when_consumer_makes_room() {
        let q = Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is blocked on the full queue until this pop.
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn close_unblocks_a_waiting_producer() {
        let q = Arc::new(BoundedQueue::new(1, BackpressurePolicy::Block));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        // Give the producer a chance to block, then close under it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(Closed));
    }
}
