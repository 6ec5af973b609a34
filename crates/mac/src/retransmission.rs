//! On-demand retransmission through the ACK/feedback loop (paper §5.3.1).
//!
//! Without a downlink, a backscatter tag must blindly repeat every packet to
//! survive loss. With Saiyan, the access point asks for a retransmission only
//! when a packet is actually missing, and the tag replays it from a small
//! buffer. This module implements both sides' state machines.

use std::collections::VecDeque;

use crate::error::MacError;
use crate::packet::TagId;

/// Tag-side retransmission buffer: remembers the last few transmitted uplink
/// payloads so they can be replayed on request.
#[derive(Debug, Clone)]
pub struct RetransmissionBuffer {
    capacity: usize,
    entries: VecDeque<(u8, Vec<u8>)>,
    next_sequence: u8,
}

impl RetransmissionBuffer {
    /// Creates a buffer that retains the last `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        RetransmissionBuffer {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            next_sequence: 0,
        }
    }

    /// Registers a new outgoing payload and returns its sequence number.
    pub fn push(&mut self, payload: Vec<u8>) -> u8 {
        let seq = self.next_sequence;
        self.next_sequence = self.next_sequence.wrapping_add(1);
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back((seq, payload));
        seq
    }

    /// Looks up the payload for a retransmission request.
    pub fn get(&self, sequence: u8) -> Result<&[u8], MacError> {
        self.entries
            .iter()
            .find(|(s, _)| *s == sequence)
            .map(|(_, p)| p.as_slice())
            .ok_or(MacError::UnknownSequence(sequence))
    }

    /// Drops a payload once the access point acknowledged it.
    pub fn acknowledge(&mut self, sequence: u8) {
        self.entries.retain(|(s, _)| *s != sequence);
    }

    /// Number of unacknowledged packets currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Access-point-side tracking of which uplink packets were received from a tag
/// and which need a retransmission request.
#[derive(Debug, Clone)]
pub struct ArqTracker {
    /// The tag being tracked.
    pub tag: TagId,
    /// Maximum number of retransmission requests per packet.
    pub max_retries: u32,
    outstanding: Vec<(u8, u32)>,
}

impl ArqTracker {
    /// Creates a tracker for a tag.
    pub fn new(tag: TagId, max_retries: u32) -> Self {
        ArqTracker {
            tag,
            max_retries,
            outstanding: Vec::new(),
        }
    }

    /// Records that the AP expected an uplink packet with sequence `seq` but
    /// did not decode it.
    pub fn record_loss(&mut self, seq: u8) {
        if !self.outstanding.iter().any(|(s, _)| *s == seq) {
            self.outstanding.push((seq, 0));
        }
    }

    /// Records a successfully received packet.
    pub fn record_reception(&mut self, seq: u8) {
        self.outstanding.retain(|(s, _)| *s != seq);
    }

    /// Returns the next retransmission request to send, if any packet is still
    /// missing and under its retry budget. Increments the retry counter.
    pub fn next_request(&mut self) -> Option<u8> {
        for (seq, tries) in self.outstanding.iter_mut() {
            if *tries < self.max_retries {
                *tries += 1;
                return Some(*seq);
            }
        }
        None
    }

    /// Requests a retransmission of one specific sequence: returns `true`
    /// (and increments its retry counter) if it is outstanding and under its
    /// retry budget. Used by the gateway ingest path, which learns about
    /// several distinct losses at once and wants one request per sequence.
    pub fn request_for(&mut self, seq: u8) -> bool {
        for (s, tries) in self.outstanding.iter_mut() {
            if *s == seq && *tries < self.max_retries {
                *tries += 1;
                return true;
            }
        }
        false
    }

    /// Sequence numbers that were lost and exhausted their retries.
    pub fn given_up(&self) -> Vec<u8> {
        self.outstanding
            .iter()
            .filter(|(_, tries)| *tries >= self.max_retries)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Number of packets still awaiting a successful (re)transmission.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_push_get_ack() {
        let mut buf = RetransmissionBuffer::new(4);
        let s0 = buf.push(vec![1, 2, 3]);
        let s1 = buf.push(vec![4]);
        assert_eq!(buf.get(s0).unwrap(), &[1, 2, 3]);
        assert_eq!(buf.get(s1).unwrap(), &[4]);
        buf.acknowledge(s0);
        assert!(buf.get(s0).is_err());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn buffer_evicts_oldest_when_full() {
        let mut buf = RetransmissionBuffer::new(2);
        let s0 = buf.push(vec![0]);
        let _s1 = buf.push(vec![1]);
        let _s2 = buf.push(vec![2]);
        assert!(buf.get(s0).is_err());
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn tracker_requests_until_budget_exhausted() {
        let mut t = ArqTracker::new(TagId(1), 2);
        t.record_loss(5);
        assert_eq!(t.next_request(), Some(5));
        assert_eq!(t.next_request(), Some(5));
        assert_eq!(t.next_request(), None);
        assert_eq!(t.given_up(), vec![5]);
        // A late reception clears the outstanding entry.
        t.record_reception(5);
        assert_eq!(t.outstanding(), 0);
        assert!(t.given_up().is_empty());
    }

    #[test]
    fn tracker_handles_multiple_losses() {
        let mut t = ArqTracker::new(TagId(2), 3);
        t.record_loss(1);
        t.record_loss(2);
        assert_eq!(t.outstanding(), 2);
        assert_eq!(t.next_request(), Some(1));
        t.record_reception(1);
        assert_eq!(t.next_request(), Some(2));
    }

    #[test]
    fn prr_grows_with_retransmissions() {
        // Packet `seq` is lost on its first transmission and on the next
        // `seq % 5` replays, so a budget of `n` recovers the packets that
        // need at most `n` requests: PRR climbs 0.2 per extra request.
        let delivered = |max_retries: u32| {
            let mut t = ArqTracker::new(TagId(3), max_retries);
            let mut delivered = 0;
            for seq in 0..20u8 {
                t.record_loss(seq);
                let mut requests = 0;
                while let Some(s) = t.next_request() {
                    assert_eq!(s, seq, "earlier packets are given up");
                    requests += 1;
                    if requests > u32::from(seq % 5) {
                        t.record_reception(seq);
                        delivered += 1;
                        break;
                    }
                }
            }
            assert_eq!(t.given_up().len(), 20 - delivered);
            delivered
        };
        let prr: Vec<usize> = (0..=5).map(delivered).collect();
        assert_eq!(prr, vec![0, 4, 8, 12, 16, 20]);
    }
}
