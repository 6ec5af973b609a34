//! Flat struct-of-arrays tag-session state for city-scale populations.
//!
//! The network engine needs only a few words of tag-side state per
//! transmission, and none of it on the heap: payloads are a pure function
//! of the tag id, so a replayable packet can be *regenerated* instead of
//! buffered. [`SessionTable`] keeps those words in parallel arrays indexed
//! by a dense local id: wrapping sequence allocation and the replay window
//! of the tag's [`RetransmissionBuffer`](crate::retransmission::RetransmissionBuffer)
//! (a tag can only replay its last [`SessionTable::replay_depth`]
//! sequences), plus channel, hopping round and radio reservation.

/// Struct-of-arrays session state for a dense population of tags.
#[derive(Debug, Clone)]
pub struct SessionTable {
    /// Next uplink sequence number per tag (wrapping `u8`).
    next_seq: Vec<u8>,
    /// Total sequences allocated per tag, saturating — bounds the replay
    /// window before a full wrap.
    sent: Vec<u8>,
    /// Current schedule base channel per tag.
    channel: Vec<u8>,
    /// Transmission counter per tag (drives hopping rotation).
    round: Vec<u32>,
    /// Radio-busy horizon per tag (a backscatter tag is half-duplex and
    /// serial).
    busy_until: Vec<f64>,
    replay_depth: u8,
}

impl SessionTable {
    /// How many recent sequences a tag can replay; matches a tag's
    /// `RetransmissionBuffer::new(8)`.
    pub const DEFAULT_REPLAY_DEPTH: u8 = 8;

    /// Creates a table of `n` sessions; `initial_channel` gives each local
    /// id its starting channel.
    pub fn new(n: usize, mut initial_channel: impl FnMut(usize) -> u8) -> Self {
        SessionTable {
            next_seq: vec![0; n],
            sent: vec![0; n],
            channel: (0..n).map(&mut initial_channel).collect(),
            round: vec![0; n],
            busy_until: vec![f64::NEG_INFINITY; n],
            replay_depth: Self::DEFAULT_REPLAY_DEPTH,
        }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.next_seq.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.next_seq.is_empty()
    }

    /// Allocates the next uplink sequence number for a tag (wrapping), as
    /// `RetransmissionBuffer::push` does.
    pub fn allocate_sequence(&mut self, tag: usize) -> u8 {
        let seq = self.next_seq[tag];
        self.next_seq[tag] = seq.wrapping_add(1);
        self.sent[tag] = self.sent[tag].saturating_add(1);
        seq
    }

    /// Whether the tag can still replay `sequence`: it was allocated, and
    /// it is one of the tag's last [`SessionTable::replay_depth`] sequences
    /// (older payloads have been evicted from the ring buffer this table
    /// models).
    pub fn can_replay(&self, tag: usize, sequence: u8) -> bool {
        let back = self.next_seq[tag].wrapping_sub(sequence);
        (1..=self.replay_depth.min(self.sent[tag])).contains(&back)
    }

    /// The replay-window depth.
    pub fn replay_depth(&self) -> u8 {
        self.replay_depth
    }

    /// The tag's current schedule base channel.
    pub fn channel(&self, tag: usize) -> u8 {
        self.channel[tag]
    }

    /// Moves the tag's schedule to a new base channel.
    pub fn set_channel(&mut self, tag: usize, channel: u8) {
        self.channel[tag] = channel;
    }

    /// Post-increments the tag's transmission round (hopping rotation).
    pub fn next_round(&mut self, tag: usize) -> u32 {
        let round = self.round[tag];
        self.round[tag] += 1;
        round
    }

    /// The time before which the tag's radio is busy.
    pub fn busy_until(&self, tag: usize) -> f64 {
        self.busy_until[tag]
    }

    /// Reserves the tag's radio until `until_s`.
    pub fn reserve(&mut self, tag: usize, until_s: f64) {
        self.busy_until[tag] = until_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retransmission::RetransmissionBuffer;

    #[test]
    fn sequences_allocate_like_a_retransmission_buffer() {
        let mut table = SessionTable::new(2, |_| 0);
        for expect in 0..=255u8 {
            assert_eq!(table.allocate_sequence(0), expect);
        }
        assert_eq!(table.allocate_sequence(0), 0, "sequences wrap");
        assert_eq!(table.allocate_sequence(1), 0, "tags are independent");
    }

    #[test]
    fn replay_window_matches_the_real_session_buffer() {
        // Cross-check against the tag's ring buffer: after k transmissions,
        // the table must report exactly the sequences the buffer can still
        // serve.
        let mut buffer = RetransmissionBuffer::new(8);
        let mut table = SessionTable::new(1, |_| 0);
        for k in 0..40usize {
            for seq in 0..=255u8 {
                let real = buffer.get(seq).is_ok();
                assert_eq!(table.can_replay(0, seq), real, "k={k} seq={seq}");
            }
            assert_eq!(buffer.push(vec![k as u8]), table.allocate_sequence(0));
        }
    }

    #[test]
    fn channels_rounds_and_radio_reservations_are_per_tag() {
        let mut table = SessionTable::new(3, |i| i as u8);
        assert_eq!(table.channel(2), 2);
        table.set_channel(2, 0);
        assert_eq!(table.channel(2), 0);
        assert_eq!(table.next_round(1), 0);
        assert_eq!(table.next_round(1), 1);
        assert_eq!(table.next_round(0), 0);
        assert!(table.busy_until(0) < 0.0);
        table.reserve(0, 1.5);
        assert_eq!(table.busy_until(0), 1.5);
        assert!(table.busy_until(1) < 0.0);
    }
}
