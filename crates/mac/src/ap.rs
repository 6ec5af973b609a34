//! Access-point-side MAC state.
//!
//! The access point owns the feedback loop: from the sequence numbers it
//! decodes it works out which uplink packets each tag lost and asks for them
//! again (paper §5.3.1), and its hopping controller moves the network off a
//! jammed channel. [`AccessPoint`] is the one model of it. The gateway feeds
//! it wire frames through [`AccessPoint::ingest_frame`]; each network engine
//! cell holds one over its tag range and calls [`AccessPoint::ingest`]. The
//! sequence decision is [`SequenceWindow`], one per source.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// duplicate: a data frame whose sequence was received since the
    /// expectation last passed it. An ACK is never a duplicate and marks
    /// nothing received.
    ///
    /// The expectation only moves forward. A frame at most
    /// [`AccessPoint::MAX_SEQUENCE_GAP`] ahead of it reveals the sequences
    /// it skipped as lost. A frame at most [`AccessPoint::REPLAY_WINDOW`]
    /// behind it is a replay (a retransmission or duplicate, just what ARQ
    /// requests deliver) and keeps it: rewinding would make the next
    /// in-order frame read as a fresh gap. Any larger jump is a tag reset
    /// and resynchronises it.
    ///
    /// The 8-bit sequence space wraps, so the marks are per lap: a frame
    /// that moves the expectation clears the marks of the sequences it
    /// passes, its own included, and a reset clears them all.
    ///
    /// `missing` is caller-owned scratch: it is cleared, then receives the
    /// skipped sequences in order.
    #[inline]
    pub fn step(&mut self, sequence: u8, is_ack: bool, missing: &mut Vec<u8>) -> bool {
        missing.clear();
        let seen = self.next_expected >= 0;
        let expected = self.next_expected as u8;
        let forward = sequence.wrapping_sub(expected);
        if seen && forward <= AccessPoint::MAX_SEQUENCE_GAP {
            missing.extend((0..forward).map(|d| expected.wrapping_add(d)));
            for d in 0..=forward {
                let passed = expected.wrapping_add(d);
                self.received[(passed >> 4) as usize] &= !(1u16 << (passed & 15));
            }
            self.next_expected = sequence.wrapping_add(1) as i16;
        } else if !seen || expected.wrapping_sub(sequence) > AccessPoint::REPLAY_WINDOW {
            self.received = [0; 16];
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

/// A multiply-rotate hasher in the style of rustc-hash's `FxHasher`, for
/// maps keyed by small integers the system itself assigns (source ids,
/// sequence numbers), where SipHash's flood resistance buys nothing. The
/// final rotate brings the product's well-mixed high bits down to the low
/// bits the table indexes by.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b as u64));
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`]. Nothing the workspace reports
/// depends on its iteration order.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The access-point MAC session: a [`SequenceWindow`] per source, ARQ
/// trackers for the sources that lost something, and the hopping
/// controller for the shared channel.
#[derive(Debug, Clone)]
pub struct AccessPoint {
    /// Windows of the sources below the population size, by id.
    windows: Vec<SequenceWindow>,
    /// Windows of every other source, registered on its first frame.
    registry: FxHashMap<u32, SequenceWindow>,
    /// ARQ trackers by source, materialised on the source's first loss.
    arq: FxHashMap<u32, ArqTracker>,
    /// Scratch for the sequences one step reveals as lost.
    missing: Vec<u8>,
    /// The hopping controller for the shared channel.
    pub hopping: HoppingController,
    /// Maximum retransmission requests per lost packet.
    pub max_retries: u32,
}

impl AccessPoint {
    /// Creates an access point on the given channel table. Every source
    /// registers on its first frame.
    pub fn new(
        table: ChannelTable,
        initial_channel: u8,
        max_retries: u32,
    ) -> Result<Self, MacError> {
        Self::with_population(table, initial_channel, max_retries, 0)
    }

    /// [`Self::new`], keeping the windows of sources `0..population` in one
    /// dense array instead of the registry: a network engine cell passes
    /// its tag count. It changes storage only, never what [`Self::ingest`]
    /// returns.
    pub fn with_population(
        table: ChannelTable,
        initial_channel: u8,
        max_retries: u32,
        population: usize,
    ) -> Result<Self, MacError> {
        Ok(AccessPoint {
            windows: vec![SequenceWindow::default(); population],
            registry: FxHashMap::default(),
            arq: FxHashMap::default(),
            missing: Vec::new(),
            hopping: HoppingController::new(table, initial_channel, -70.0)?,
            max_retries,
        })
    }

    /// Largest run of skipped sequence numbers [`Self::ingest`] treats as
    /// losses. A forward jump beyond it reads as a tag reset, not a loss
    /// burst, and simply resynchronises the expectation.
    pub const MAX_SEQUENCE_GAP: u8 = 8;

    /// How far *behind* the expectation a frame may arrive and still be
    /// treated as a replay (retransmission or duplicate) rather than a tag
    /// reset. Covers the deepest retransmission backlog the gap window plus
    /// retry budget can produce.
    pub const REPLAY_WINDOW: u8 = 16;

    /// Ingests one frame from `source`: steps its [`SequenceWindow`], clears
    /// the frame's sequence from its ARQ tracker, and hands `request` one
    /// unicast [`Command::Retransmit`] per sequence the step revealed as
    /// skipped, in order, while the sequence's retry budget lasts. Returns
    /// whether the frame is a duplicate data frame.
    ///
    /// `source` is the id on the wire, and requests go back to it.
    #[inline]
    pub fn ingest(
        &mut self,
        source: u32,
        sequence: u8,
        is_ack: bool,
        mut request: impl FnMut(DownlinkPacket),
    ) -> bool {
        let window = match self.windows.get_mut(source as usize) {
            Some(window) => window,
            None => self.registry.entry(source).or_default(),
        };
        let duplicate = window.step(sequence, is_ack, &mut self.missing);
        if let Some(tracker) = self.arq.get_mut(&source) {
            tracker.record_reception(sequence);
        }
        for &seq in &self.missing {
            let tracker = self
                .arq
                .entry(source)
                .or_insert_with(|| ArqTracker::new(self.max_retries));
            tracker.record_loss(seq);
            if tracker.request_for(seq) {
                request(DownlinkPacket {
                    addressing: Addressing::Unicast(TagId(source as u16)),
                    command: Command::Retransmit { sequence: seq },
                });
            }
        }
        duplicate
    }

    /// [`Self::ingest`] over one decoded uplink frame's wire bytes, as the
    /// multi-channel gateway delivers it. Returns the frame's duplicate flag
    /// and the retransmission requests it raised.
    ///
    /// The gateway channel the frame arrived on and its payload start in
    /// stream seconds label the call only: the access point keeps no
    /// per-frame record.
    ///
    /// ```
    /// use saiyan_mac::{AccessPoint, ChannelTable, Command, TagId, UplinkPacket};
    ///
    /// let mut ap = AccessPoint::new(ChannelTable::paper_433mhz(), 0, 2).unwrap();
    /// let frame = |seq| {
    ///     UplinkPacket {
    ///         source: TagId(7),
    ///         sequence: seq,
    ///         is_ack: false,
    ///         payload: vec![seq],
    ///     }
    ///     .to_bytes()
    /// };
    /// ap.ingest_frame(1, 0.10, &frame(0)).unwrap();
    /// // Sequence 1 never arrives; the jump to 2 reveals the loss.
    /// let (duplicate, requests) = ap.ingest_frame(1, 0.25, &frame(2)).unwrap();
    /// assert!(!duplicate);
    /// assert_eq!(requests.len(), 1);
    /// assert!(matches!(requests[0].command, Command::Retransmit { sequence: 1 }));
    /// // The same data frame again is a duplicate and reveals nothing.
    /// assert_eq!(ap.ingest_frame(1, 0.30, &frame(2)).unwrap(), (true, vec![]));
    /// ```
    pub fn ingest_frame(
        &mut self,
        _channel: u8,
        _time: f64,
        bytes: &[u8],
    ) -> Result<(bool, Vec<DownlinkPacket>), MacError> {
        let packet = UplinkPacket::from_bytes(bytes)?;
        let mut requests = Vec::new();
        let duplicate = self.ingest(
            u32::from(packet.source.0),
            packet.sequence,
            packet.is_ack,
            |r| requests.push(r),
        );
        Ok((duplicate, requests))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    #[test]
    fn window_forgets_the_marks_it_passes_so_sequences_wrap() {
        let mut window = SequenceWindow::default();
        let mut missing = Vec::new();
        for sequence in 0..=255u8 {
            assert!(!window.step(sequence, false, &mut missing), "{sequence}");
        }
        // The second lap: 0 and 1 are new readings...
        assert!(!window.step(0, false, &mut missing), "0 after the wrap");
        assert!(!window.step(1, false, &mut missing), "1 after the wrap");
        // ...and a replay of one of them is still a duplicate.
        assert!(window.step(0, false, &mut missing), "replay after the wrap");
        // A reset forgets every mark: after a jump to 205, a replay of 200
        // (marked on the first lap) is new, and only its repeat is not.
        assert!(!window.step(205, false, &mut missing));
        assert!(missing.is_empty(), "a reset reveals no loss");
        assert!(
            !window.step(200, false, &mut missing),
            "mark survived a reset"
        );
        assert!(window.step(200, false, &mut missing));
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

    /// The sequences `requests` ask to be retransmitted, in order.
    fn requested(requests: &[DownlinkPacket]) -> Vec<u8> {
        requests
            .iter()
            .map(|r| match r.command {
                Command::Retransmit { sequence } => sequence,
                other => panic!("unexpected command {other:?}"),
            })
            .collect()
    }

    /// Ingests data frames from `tag` in order; returns the sequences the
    /// last one asked to be retransmitted.
    fn ingest(ap: &mut AccessPoint, tag: u16, sequences: &[u8]) -> Vec<u8> {
        let mut last = Vec::new();
        for &seq in sequences {
            let (_, requests) = ap.ingest_frame(0, 0.0, &frame(tag, seq, false)).unwrap();
            last = requested(&requests);
        }
        last
    }

    #[test]
    fn losses_trigger_bounded_retransmission_requests() {
        let mut ap = ap();
        // Sequence 1 is lost; each time a reset and 0, 2 reveal it again,
        // the budget (2) allows one more request, then none.
        assert_eq!(ingest(&mut ap, 3, &[0, 2]), vec![1]);
        assert_eq!(ingest(&mut ap, 3, &[100, 0, 2]), vec![1]);
        assert!(ingest(&mut ap, 3, &[100, 0, 2]).is_empty());
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
        // Sequences 2 and 3 are lost; 4 reveals the gap, and each request
        // goes back to the tag that lost the frame.
        let (duplicate, requests) = ap.ingest_frame(3, 0.5, &frame(5, 4, false)).unwrap();
        assert!(!duplicate);
        assert_eq!(requested(&requests), vec![2, 3]);
        assert!(requests
            .iter()
            .all(|r| r.addressing == Addressing::Unicast(TagId(5))));
    }

    #[test]
    fn ingest_counts_duplicates_and_acks_separately() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(9, 7, false)).unwrap();
        // The same data sequence again is a duplicate, not a new frame...
        let (duplicate, _) = ap.ingest_frame(0, 0.2, &frame(9, 7, false)).unwrap();
        assert!(duplicate);
        // ...and an ACK is never a duplicate, even of a received sequence.
        let (duplicate, _) = ap.ingest_frame(0, 0.3, &frame(9, 7, true)).unwrap();
        assert!(!duplicate);
        let (duplicate, _) = ap.ingest_frame(0, 0.4, &frame(9, 8, true)).unwrap();
        assert!(!duplicate);
    }

    #[test]
    fn ingest_replayed_frames_do_not_rewind_the_expectation() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(5, 0, false)).unwrap();
        ap.ingest_frame(0, 0.2, &frame(5, 1, false)).unwrap();
        // Sequence 2 is lost; 3 reveals the gap and requests it.
        let (_, requests) = ap.ingest_frame(0, 0.3, &frame(5, 3, false)).unwrap();
        assert_eq!(requested(&requests), vec![2]);
        // The tag replays sequence 2 — an old frame. It must be accepted
        // without rewinding the expectation.
        let report = ap.ingest_frame(0, 0.4, &frame(5, 2, false)).unwrap();
        assert_eq!(report, (false, vec![]));
        // The next in-order frame is NOT a fresh gap: no spurious losses.
        let report = ap.ingest_frame(0, 0.5, &frame(5, 4, false)).unwrap();
        assert_eq!(report, (false, vec![]));
    }

    #[test]
    fn ingest_treats_large_jumps_as_resets() {
        let mut ap = ap();
        ap.ingest_frame(0, 0.1, &frame(1, 0, false)).unwrap();
        // A jump past MAX_SEQUENCE_GAP resynchronises without loss reports.
        let report = ap.ingest_frame(0, 0.2, &frame(1, 200, false)).unwrap();
        assert_eq!(report, (false, vec![]));
        // The expectation continues from the new sequence.
        let (_, requests) = ap.ingest_frame(0, 0.3, &frame(1, 202, false)).unwrap();
        assert_eq!(requested(&requests), vec![201]);
    }

    #[test]
    fn ingest_rejects_malformed_frames() {
        let mut ap = ap();
        assert!(ap.ingest_frame(0, 0.0, &[1, 2]).is_err());
        // Nothing was registered: the tag's first frame reveals no gap.
        assert!(ingest(&mut ap, 0x0102, &[5]).is_empty());
    }

    #[test]
    fn registering_twice_is_idempotent() {
        let mut ap = ap();
        ingest(&mut ap, 1, &[0, 1]);
        ingest(&mut ap, 2, &[0]);
        // Tag 1 keeps its window across other tags' frames: 3 reveals 2.
        assert_eq!(ingest(&mut ap, 1, &[3]), vec![2]);
    }

    /// The window rule written out over plain state: the sequences a frame
    /// reveals as skipped, and whether its source delivered the frame's
    /// sequence since the expectation last passed it, this frame included.
    #[derive(Clone)]
    struct WindowSpec {
        expected: Option<u8>,
        delivered: [bool; 256],
    }

    impl WindowSpec {
        fn new() -> Self {
            WindowSpec {
                expected: None,
                delivered: [false; 256],
            }
        }

        fn step(&mut self, sequence: u8, is_ack: bool) -> (Vec<u8>, bool) {
            let mut skipped = Vec::new();
            match self.expected {
                Some(e) if sequence.wrapping_sub(e) <= AccessPoint::MAX_SEQUENCE_GAP => {
                    let mut s = e;
                    while s != sequence {
                        skipped.push(s);
                        self.delivered[s as usize] = false;
                        s = s.wrapping_add(1);
                    }
                    self.delivered[sequence as usize] = false;
                    self.expected = Some(sequence.wrapping_add(1));
                }
                Some(e) if e.wrapping_sub(sequence) <= AccessPoint::REPLAY_WINDOW => {}
                _ => {
                    self.delivered = [false; 256];
                    self.expected = Some(sequence.wrapping_add(1));
                }
            }
            let delivered = self.delivered[sequence as usize];
            self.delivered[sequence as usize] |= !is_ack;
            (skipped, delivered)
        }
    }

    /// The sources the op grammar draws from: a population of three, and
    /// one source outside it.
    const SOURCES: [u32; 4] = [0, 1, 2, 1000];

    /// Turns one op word into a frame `(slot, sequence, is_ack)` from
    /// `SOURCES[slot]`, moving that source's cursor: in-order frames, gaps
    /// within and beyond the gap limit, replays within and beyond the
    /// replay window, duplicates and resets; one frame in eight is an ACK.
    fn frame_of(op: u32, cursor: &mut [u8; 4]) -> (usize, u8, bool) {
        let slot = (op % 4) as usize;
        let amount = (op >> 16) as u8;
        let next = &mut cursor[slot];
        let kind = (op >> 8) % 6;
        let sequence = match kind {
            0 | 1 => *next,
            2 => next.wrapping_add(amount % 12),
            3 => next.wrapping_sub(2 + amount % 20),
            4 => next.wrapping_sub(1),
            _ => amount,
        };
        if !matches!(kind, 3 | 4) {
            *next = sequence.wrapping_add(1);
        }
        (slot, sequence, (op >> 24).is_multiple_of(8))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Frame by frame over the op grammar, at retry budgets 0–3: (a) a
        /// population of 3 and of 0 return the same duplicate flags and the
        /// same ordered requests; (b) each request goes to the frame's
        /// source and names, in order, a sequence the step revealed as
        /// skipped; (c) no sequence gets more than `max_retries` requests
        /// before a frame carries it again; (d) a data frame is a duplicate
        /// exactly when its source delivered that sequence since the
        /// expectation last passed it.
        #[test]
        fn ingest_follows_the_window_and_retry_rules(
            ops in collection::vec(any::<u32>(), 1..400),
            max_retries in 0u32..4,
        ) {
            let table = ChannelTable::paper_433mhz();
            let mut dense = AccessPoint::with_population(table.clone(), 0, max_retries, 3).unwrap();
            let mut sparse = AccessPoint::new(table, 0, max_retries).unwrap();
            let mut cursor = [0u8; 4];
            let mut specs = vec![WindowSpec::new(); 4];
            // Requests per (slot, sequence) since a frame last carried it.
            let mut asked = vec![[0u32; 256]; 4];
            for (i, &op) in ops.iter().enumerate() {
                let (slot, sequence, is_ack) = frame_of(op, &mut cursor);
                let source = SOURCES[slot];
                let (mut requests, mut sparse_requests) = (Vec::new(), Vec::new());
                let duplicate = dense.ingest(source, sequence, is_ack, |r| requests.push(r));
                let sparse_duplicate =
                    sparse.ingest(source, sequence, is_ack, |r| sparse_requests.push(r));
                prop_assert_eq!(duplicate, sparse_duplicate, "frame {}", i);
                prop_assert_eq!(&requests, &sparse_requests, "frame {}", i);

                let (skipped, delivered) = specs[slot].step(sequence, is_ack);
                prop_assert_eq!(duplicate, !is_ack && delivered, "frame {}", i);
                asked[slot][sequence as usize] = 0;
                let mut rest = skipped.iter();
                for r in &requests {
                    prop_assert_eq!(r.addressing, Addressing::Unicast(TagId(source as u16)));
                    let Command::Retransmit { sequence: lost } = r.command else {
                        panic!("unexpected command {:?}", r.command);
                    };
                    prop_assert!(rest.any(|&s| s == lost), "frame {}: {} not skipped", i, lost);
                    asked[slot][lost as usize] += 1;
                    prop_assert!(asked[slot][lost as usize] <= max_retries, "frame {}", i);
                }
            }
        }
    }
}
