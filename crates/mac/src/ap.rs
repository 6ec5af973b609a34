//! Access-point-side MAC state.
//!
//! The access point owns the feedback loop: from the sequence numbers it
//! decodes it works out which uplink packets each tag lost and asks for them
//! again (paper §5.3.1), and its hopping controller moves the network off a
//! jammed channel. The sequence decision is [`SequenceWindow`], the one
//! record both [`AccessPoint`] and the network engine's access-point shard
//! keep per source.

use crate::error::MacError;
use crate::hopping::{ChannelTable, HoppingController};
use crate::packet::{Addressing, Command, DownlinkPacket, TagId, UplinkPacket};
use crate::retransmission::ArqTracker;

/// The access point's sequence state for one source: a forward-only
/// expectation and a bitmap of the data frames received.
///
/// `u16` bitmap words keep the record at 34 bytes, unpadded: the network
/// engine keeps one per tag at city scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceWindow {
    /// Next expected sequence (−1 = no frame seen yet).
    next_expected: i16,
    /// Bitmap over the 256-sequence space of received data frames.
    received: [u16; 16],
}

const _: () = assert!(std::mem::size_of::<SequenceWindow>() == 34);

impl Default for SequenceWindow {
    fn default() -> Self {
        SequenceWindow {
            next_expected: -1,
            received: [0; 16],
        }
    }
}

impl SequenceWindow {
    /// Steps the window over one frame and returns whether it is a
    /// duplicate: a data frame whose sequence was received before. An ACK is
    /// never a duplicate and marks nothing received.
    ///
    /// The expectation only moves forward. A frame at most
    /// [`AccessPoint::MAX_SEQUENCE_GAP`] ahead of it reveals the sequences
    /// it skipped as lost. A frame at most [`AccessPoint::REPLAY_WINDOW`]
    /// behind it is a replay (a retransmission or duplicate, just what ARQ
    /// requests deliver) and keeps it: rewinding would make the next
    /// in-order frame read as a fresh gap. Any larger jump is a tag reset
    /// and resynchronises it.
    ///
    /// `missing` is caller-owned scratch: it is cleared, then receives the
    /// skipped sequences in order.
    #[inline]
    pub fn step(&mut self, sequence: u8, is_ack: bool, missing: &mut Vec<u8>) -> bool {
        missing.clear();
        let mut replay = false;
        if self.next_expected >= 0 {
            let expected = self.next_expected as u8;
            let forward = sequence.wrapping_sub(expected);
            if forward <= AccessPoint::MAX_SEQUENCE_GAP {
                missing.extend((0..forward).map(|d| expected.wrapping_add(d)));
            } else {
                replay = expected.wrapping_sub(sequence) <= AccessPoint::REPLAY_WINDOW;
            }
        }
        if !replay {
            self.next_expected = sequence.wrapping_add(1) as i16;
        }
        let word = &mut self.received[(sequence >> 4) as usize];
        let bit = 1u16 << (sequence & 15);
        let duplicate = !is_ack && *word & bit != 0;
        if !is_ack {
            *word |= bit;
        }
        duplicate
    }
}

/// Per-tag bookkeeping at the access point.
#[derive(Debug, Clone)]
struct TagRecord {
    window: SequenceWindow,
    stats: TagStats,
    tracker: ArqTracker,
}

/// Per-tag delivery statistics, updated by [`AccessPoint::ingest_frame`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TagStats {
    /// Well-formed frames ingested from this tag (data + ACKs, excluding
    /// duplicates).
    pub frames: u64,
    /// Duplicate data frames (same sequence seen again, e.g. after a
    /// retransmission raced the original).
    pub duplicates: u64,
    /// ACK frames among the ingested ones.
    pub acks: u64,
    /// Sequence numbers detected as skipped (each counted once when the gap
    /// behind it is first observed).
    pub losses_detected: u64,
    /// Channel the tag's most recent frame arrived on.
    pub last_channel: Option<u8>,
    /// Stream time (seconds) of the most recent frame.
    pub last_time: Option<f64>,
}

/// What [`AccessPoint::ingest_frame`] did with one decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// The tag the frame came from.
    pub tag: TagId,
    /// The frame's sequence number.
    pub sequence: u8,
    /// Whether this data frame repeated an already-received sequence.
    pub duplicate: bool,
    /// Retransmission requests to send for sequences the frame revealed as
    /// skipped (at most [`AccessPoint::MAX_SEQUENCE_GAP`], budget allowing).
    pub retransmission_requests: Vec<DownlinkPacket>,
}

/// The access-point MAC session.
#[derive(Debug, Clone)]
pub struct AccessPoint {
    /// Per-tag state, keyed by tag id.
    tags: Vec<(TagId, TagRecord)>,
    /// The hopping controller for the shared channel.
    pub hopping: HoppingController,
    /// Maximum retransmission requests per lost packet.
    pub max_retries: u32,
}

impl AccessPoint {
    /// Creates an access point on the given channel table.
    pub fn new(
        table: ChannelTable,
        initial_channel: u8,
        max_retries: u32,
    ) -> Result<Self, MacError> {
        Ok(AccessPoint {
            tags: Vec::new(),
            hopping: HoppingController::new(table, initial_channel, -70.0)?,
            max_retries,
        })
    }

    /// The tag's record, registered on first contact.
    fn record(&mut self, tag: TagId) -> &mut TagRecord {
        let index = match self.tags.iter().position(|(t, _)| *t == tag) {
            Some(index) => index,
            None => {
                let record = TagRecord {
                    window: SequenceWindow::default(),
                    stats: TagStats::default(),
                    tracker: ArqTracker::new(tag, self.max_retries),
                };
                self.tags.push((tag, record));
                self.tags.len() - 1
            }
        };
        &mut self.tags[index].1
    }

    /// Number of registered tags.
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Largest run of skipped sequence numbers [`Self::ingest_frame`] treats
    /// as losses. A forward jump beyond it reads as a tag reset, not a loss
    /// burst, and simply resynchronises the expectation.
    pub const MAX_SEQUENCE_GAP: u8 = 8;

    /// How far *behind* the expectation a frame may arrive and still be
    /// treated as a replay (retransmission or duplicate) rather than a tag
    /// reset. Covers the deepest retransmission backlog the gap window plus
    /// retry budget can produce.
    pub const REPLAY_WINDOW: u8 = 16;

    /// Ingests one decoded uplink frame delivered by the multi-channel
    /// gateway: parses the wire bytes, steps the tag's [`SequenceWindow`],
    /// updates its statistics and turns the skipped sequence numbers into
    /// retransmission requests (budget allowing).
    ///
    /// `channel` is the gateway channel the frame arrived on and `time` its
    /// payload start in stream seconds — both recorded in [`TagStats`].
    ///
    /// ```
    /// use saiyan_mac::{AccessPoint, ChannelTable, Command, TagId, UplinkPacket};
    ///
    /// let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 0, 2).unwrap();
    /// let frame = |seq| UplinkPacket {
    ///     source: TagId(7),
    ///     sequence: seq,
    ///     is_ack: false,
    ///     payload: vec![seq],
    /// };
    /// ap.ingest_frame(1, 0.10, &frame(0).to_bytes()).unwrap();
    /// // Sequence 1 never arrives; the jump to 2 reveals the loss.
    /// let report = ap.ingest_frame(1, 0.25, &frame(2).to_bytes()).unwrap();
    /// assert_eq!(report.retransmission_requests.len(), 1);
    /// assert!(matches!(
    ///     report.retransmission_requests[0].command,
    ///     Command::Retransmit { sequence: 1 }
    /// ));
    /// assert_eq!(ap.tag_stats(TagId(7)).unwrap().frames, 2);
    /// assert_eq!(ap.tag_stats(TagId(7)).unwrap().losses_detected, 1);
    /// ```
    pub fn ingest_frame(
        &mut self,
        channel: u8,
        time: f64,
        bytes: &[u8],
    ) -> Result<IngestReport, MacError> {
        let packet = UplinkPacket::from_bytes(bytes)?;
        let tag = packet.source;
        let record = self.record(tag);
        let mut missing = Vec::new();
        let duplicate = record
            .window
            .step(packet.sequence, packet.is_ack, &mut missing);
        let stats = &mut record.stats;
        stats.frames += u64::from(!duplicate);
        stats.duplicates += u64::from(duplicate);
        stats.acks += u64::from(packet.is_ack);
        stats.losses_detected += missing.len() as u64;
        stats.last_channel = Some(channel);
        stats.last_time = Some(time);
        // Record the reception (clears any outstanding loss on its sequence)
        // and raise one request per sequence the gap revealed as skipped.
        record.tracker.record_reception(packet.sequence);
        let mut requests = Vec::new();
        for seq in missing {
            record.tracker.record_loss(seq);
            if record.tracker.request_for(seq) {
                requests.push(DownlinkPacket {
                    addressing: Addressing::Unicast(tag),
                    command: Command::Retransmit { sequence: seq },
                });
            }
        }
        Ok(IngestReport {
            tag,
            sequence: packet.sequence,
            duplicate,
            retransmission_requests: requests,
        })
    }

    /// Delivery statistics for a tag, if it has been seen.
    pub fn tag_stats(&self, tag: TagId) -> Option<&TagStats> {
        self.tags
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, r)| &r.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> AccessPoint {
        AccessPoint::new(ChannelTable::paper_433mhz(), 2, 2).unwrap()
    }

    /// Steps `window` over a data frame; returns the skipped sequences.
    /// The scratch starts non-empty, so every call also checks the clear.
    fn step(window: &mut SequenceWindow, sequence: u8) -> Vec<u8> {
        let mut missing = vec![99];
        window.step(sequence, false, &mut missing);
        missing
    }

    #[test]
    fn window_treats_gaps_up_to_eight_as_losses_and_nine_as_a_reset() {
        let mut window = SequenceWindow::default();
        assert!(step(&mut window, 10).is_empty(), "first frame");
        assert_eq!(step(&mut window, 19), (11..19).collect::<Vec<_>>());
        assert!(step(&mut window, 29).is_empty(), "gap of 9 resyncs");
        assert_eq!(step(&mut window, 31), vec![30], "expectation follows");
    }

    #[test]
    fn window_keeps_the_expectation_for_replays_up_to_sixteen_behind() {
        let mut window = SequenceWindow::default();
        step(&mut window, 39);
        // 16 behind the expectation 40 is a replay: 41 then reveals 40.
        assert!(step(&mut window, 24).is_empty());
        assert_eq!(step(&mut window, 41), vec![40]);
        // 17 behind the expectation 42 resyncs: 27 then reveals 26.
        assert!(step(&mut window, 25).is_empty());
        assert_eq!(step(&mut window, 27), vec![26]);
    }

    #[test]
    fn window_gaps_wrap_around_the_sequence_space() {
        let mut window = SequenceWindow::default();
        step(&mut window, 254);
        assert_eq!(step(&mut window, 1), vec![255, 0]);
    }

    #[test]
    fn window_acks_are_never_duplicates_and_mark_nothing_received() {
        let mut window = SequenceWindow::default();
        let mut missing = Vec::new();
        assert!(!window.step(5, true, &mut missing));
        assert!(!window.step(5, true, &mut missing));
        assert!(!window.step(5, false, &mut missing), "the ACK marked 5");
        assert!(window.step(5, false, &mut missing));
        assert!(!window.step(5, true, &mut missing));
    }

    fn frame(tag: u16, seq: u8, is_ack: bool) -> Vec<u8> {
        UplinkPacket {
            source: TagId(tag),
            sequence: seq,
            is_ack,
            payload: vec![seq],
        }
        .to_bytes()
    }

    /// Ingests data frames from `tag` in order; returns the sequences the
    /// last one asked to be retransmitted.
    fn ingest(ap: &mut AccessPoint, tag: u16, sequences: &[u8]) -> Vec<u8> {
        let mut requested = Vec::new();
        for &seq in sequences {
            let report = ap.ingest_frame(0, 0.0, &frame(tag, seq, false)).unwrap();
            requested = report
                .retransmission_requests
                .iter()
                .map(|r| match r.command {
                    Command::Retransmit { sequence } => sequence,
                    other => panic!("unexpected command {other:?}"),
                })
                .collect();
        }
        requested
    }

    #[test]
    fn losses_trigger_bounded_retransmission_requests() {
        let mut ap = ap();
        // Sequence 1 is lost; each time a reset and 0, 2 reveal it again,
        // the budget (2) allows one more request, then none.
        assert_eq!(ingest(&mut ap, 3, &[0, 2]), vec![1]);
        assert_eq!(ingest(&mut ap, 3, &[100, 0, 2]), vec![1]);
        assert!(ingest(&mut ap, 3, &[100, 0, 2]).is_empty());
        assert_eq!(ap.tag_stats(TagId(3)).unwrap().losses_detected, 3);
    }

    #[test]
    fn reception_clears_outstanding_losses() {
        let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 2, 1).unwrap();
        // The only request the budget (1) allows for the lost sequence 1...
        assert_eq!(ingest(&mut ap, 4, &[0, 2]), vec![1]);
        // ...brings its replay, which clears the loss: when a reset and
        // 0, 2 reveal sequence 1 again, it is a fresh loss with a fresh
        // budget.
        assert!(ingest(&mut ap, 4, &[1]).is_empty());
        assert_eq!(ingest(&mut ap, 4, &[100, 0, 2]), vec![1]);
    }

    #[test]
    fn spectrum_scans_drive_channel_hops() {
        let mut ap = ap();
        for ch in 0..5u8 {
            ap.hopping.record_interference(ch, -95.0).unwrap();
            assert!(ap.hopping.maybe_hop().is_none());
        }
        ap.hopping.record_interference(2, -40.0).unwrap();
        let hop = ap.hopping.maybe_hop().expect("should hop");
        assert!(matches!(hop.command, Command::ChannelHop { .. }));
        assert!(matches!(hop.addressing, Addressing::Broadcast));
    }

    #[test]
    fn ingest_tracks_stats_and_requests_skipped_sequences() {
        let mut ap = ap();
        ap.ingest_frame(2, 0.1, &frame(5, 0, false)).unwrap();
        ap.ingest_frame(2, 0.2, &frame(5, 1, false)).unwrap();
        // Sequences 2 and 3 are lost; 4 reveals the gap.
        let report = ap.ingest_frame(3, 0.5, &frame(5, 4, false)).unwrap();
        assert_eq!(report.tag, TagId(5));
        assert!(!report.duplicate);
        let sequences: Vec<u8> = report
            .retransmission_requests
            .iter()
            .map(|r| match r.command {
                Command::Retransmit { sequence } => sequence,
                other => panic!("unexpected command {other:?}"),
            })
            .collect();
        assert_eq!(sequences, vec![2, 3]);
        let stats = ap.tag_stats(TagId(5)).unwrap();
        assert_eq!(stats.frames, 3);
        assert_eq!(stats.losses_detected, 2);
        assert_eq!(stats.last_channel, Some(3));
        assert_eq!(stats.last_time, Some(0.5));
        assert_eq!(ap.tag_count(), 1);
    }

    #[test]
    fn ingest_counts_duplicates_and_acks_separately() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(9, 7, false)).unwrap();
        // The same data sequence again is a duplicate, not a new frame...
        let report = ap.ingest_frame(0, 0.2, &frame(9, 7, false)).unwrap();
        assert!(report.duplicate);
        // ...and an ACK counts as a frame but never as a duplicate.
        ap.ingest_frame(0, 0.3, &frame(9, 8, true)).unwrap();
        let stats = ap.tag_stats(TagId(9)).unwrap();
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.acks, 1);
    }

    #[test]
    fn ingest_replayed_frames_do_not_rewind_the_expectation() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(5, 0, false)).unwrap();
        ap.ingest_frame(0, 0.2, &frame(5, 1, false)).unwrap();
        // Sequence 2 is lost; 3 reveals the gap and requests it.
        let report = ap.ingest_frame(0, 0.3, &frame(5, 3, false)).unwrap();
        assert_eq!(report.retransmission_requests.len(), 1);
        // The tag replays sequence 2 — an old frame. It must be accepted
        // without rewinding the expectation.
        let report = ap.ingest_frame(0, 0.4, &frame(5, 2, false)).unwrap();
        assert!(!report.duplicate);
        assert!(report.retransmission_requests.is_empty());
        // The next in-order frame is NOT a fresh gap: no spurious losses.
        let report = ap.ingest_frame(0, 0.5, &frame(5, 4, false)).unwrap();
        assert!(report.retransmission_requests.is_empty());
        let stats = ap.tag_stats(TagId(5)).unwrap();
        assert_eq!(stats.losses_detected, 1);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.frames, 5);
    }

    #[test]
    fn ingest_treats_large_jumps_as_resets() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(1, 0, false)).unwrap();
        // A jump past MAX_SEQUENCE_GAP resynchronises without loss reports.
        let report = ap.ingest_frame(0, 0.2, &frame(1, 200, false)).unwrap();
        assert!(report.retransmission_requests.is_empty());
        assert_eq!(ap.tag_stats(TagId(1)).unwrap().losses_detected, 0);
        // The expectation continues from the new sequence.
        let report = ap.ingest_frame(0, 0.3, &frame(1, 202, false)).unwrap();
        assert_eq!(report.retransmission_requests.len(), 1);
    }

    #[test]
    fn ingest_rejects_malformed_frames() {
        let mut ap = ap();
        assert!(ap.ingest_frame(0, 0.0, &[1, 2]).is_err());
        assert_eq!(ap.tag_count(), 0);
    }

    #[test]
    fn registering_twice_is_idempotent() {
        let mut ap = ap();
        ingest(&mut ap, 1, &[0, 1]);
        ingest(&mut ap, 2, &[0]);
        ingest(&mut ap, 1, &[2]);
        assert_eq!(ap.tag_count(), 2);
    }
}
