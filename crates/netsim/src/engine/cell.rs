//! The one MAC state model both engine backends run on.
//!
//! A [`Cell`] is a contiguous tag range with its own [`EventQueue`] (the
//! pre-sorted arrival schedule plus a heap of the few events in flight),
//! flat struct-of-arrays session state ([`SessionTable`]), access-point
//! shard (forward-only sequence expectations, reception bitmaps, lazy ARQ
//! trackers, a hopping controller) and salted RNG sub-streams. It owns
//! everything on the MAC side of the air interface: the arrival schedule
//! and activity watermark, sequence allocation, the transmit prelude
//! (radio-busy deferral, airtime reservation, hopping round, policy
//! channel, injected-loss suppression), access-point ingest, downlink
//! delivery and spectrum scans.
//!
//! What a transmission does on the air is the business of the cell's
//! [`Air`], a statically dispatched seam. The analytic backend's air flips
//! the link coin and tracks channel occupancy, then resolves receptions
//! into [`Cell::ingest`]. The waveform backend's air draws power and CFO
//! and pushes an emission into the synthesis mixer; the frames its receiver
//! decodes come back through the same ingest. The waveform path is
//! one cell with index 0, so its RNG streams are those of analytic cell 0,
//! and the two fidelity levels can not drift apart in MAC behaviour.
//!
//! The AP shard steps the same [`SequenceWindow`] record as
//! `AccessPoint::ingest_frame`, over a dense per-tag `Vec`; a differential
//! property test below pins how each composes it with ARQ and delivery.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use saiyan::TagPowerModel;
use saiyan_mac::hopping::{ChannelTable, HoppingController};
use saiyan_mac::packet::{Addressing, Command, DownlinkPacket, TagId};
use saiyan_mac::retransmission::ArqTracker;
use saiyan_mac::session_table::SessionTable;
use saiyan_mac::SequenceWindow;

use super::report::EngineReport;
use super::scenario::{EngineScenario, JammerSpec, MacPolicy};
use super::scheduler::EventQueue;

/// Seed salts so the traffic / MAC / PHY sub-streams never alias.
const TRAFFIC_SALT: u64 = 0x7123_4AB1;
const MAC_SALT: u64 = 0x00C4_71F3;
const PHY_SALT: u64 = 0x9E37_79B9;

/// A multiply-rotate hasher in the style of rustc-hash's `FxHasher`, for
/// the cell's per-reading maps: their keys are small integers the
/// simulation itself assigns, so SipHash's flood resistance buys nothing.
/// The final rotate brings the product's well-mixed high bits down to the
/// low bits the table indexes by. Nothing iterates these maps, so no report
/// depends on their order.
#[derive(Default)]
struct FxHasher(u64);

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

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Compact per-cell event: payloads are regenerated from the tag id, never
/// stored, so an event is a couple of words however large the population.
pub(crate) enum CellEv {
    /// A tag generates a sensor reading.
    Arrival { tag: u32 },
    /// A tag puts sequence `sequence` on the air (attempt 0 = first try,
    /// 1 = ARQ replay).
    Transmit { tag: u32, sequence: u8, attempt: u8 },
    /// A transmission the air scheduled finishes its airtime.
    Reception { index: u32 },
    /// The access-point shard transmits a downlink command.
    Downlink { packet: DownlinkPacket },
    /// The access-point shard scans its current channel.
    SpectrumScan,
}

/// Scenario-derived constants shared (immutably) by every cell and worker.
pub(crate) struct RunParams<'a> {
    pub scenario: &'a EngineScenario,
    pub packet_dur: f64,
    /// The analytic air's success probability for an unjammed transmission
    /// ([`EngineScenario::link_success_p`]) and for one the jammer hits
    /// ([`EngineScenario::jammed_success_p`]).
    pub link_p: f64,
    pub jammed_p: f64,
    /// Inter-packet guard a tag's half-duplex radio needs (4 symbols).
    guard_s: f64,
    energy_per_command_j: f64,
    /// How long an access-point shard on the jammer's channel keeps
    /// scanning, at least: the end of the latest scheduled arrival's
    /// airtime over the whole population (the lead-in, absent arrivals).
    /// Only scans read it, and cells scan only when the scenario has a
    /// jammer, so it is computed only then.
    scan_horizon: f64,
}

impl<'a> RunParams<'a> {
    /// Validates the scenario and derives the shared constants.
    pub fn new(scenario: &'a EngineScenario) -> Self {
        scenario.validate();
        let packet_dur = scenario.packet_duration_s();
        // Each tag's arrivals are keyed by its id, so the horizon is a
        // function of the scenario alone, whatever the cell partition.
        let mut scan_horizon = scenario.lead_in_s;
        if scenario.jammer.is_some() {
            let population = (0, scenario.n_tags as u32);
            for_each_arrival(scenario, population, &mut Vec::new(), |_, t| {
                scan_horizon = scan_horizon.max(t + packet_dur);
            });
        }
        RunParams {
            scenario,
            packet_dur,
            link_p: scenario.link_success_p(),
            jammed_p: scenario.jammed_success_p(),
            guard_s: 4.0 * scenario.lora.symbol_duration(),
            energy_per_command_j: TagPowerModel::asic().packet_energy_joules(&scenario.lora, 8),
            scan_horizon,
        }
    }

    /// The jammer, if it is on at `t` and sits on `channel`. The jammer
    /// timeline is a pure function of time, so it needs no event (and must
    /// not extend the activity watermark).
    pub fn jammer_on(&self, t: f64, channel: usize) -> Option<JammerSpec> {
        self.scenario
            .jammer
            .filter(|j| t >= j.at_s && j.channel == channel)
    }
}

/// The PHY side of a cell: what an uplink transmission does on the air.
pub(crate) trait Air: Sized {
    /// Puts one transmission on the air. The MAC prelude has run: the
    /// radio is reserved, `channel` is picked and the transmission counted.
    fn transmit(cell: &mut Cell<Self>, p: &RunParams, t: f64, tag: u32, seq: u8, channel: usize);

    /// Resolves a [`CellEv::Reception`] this air scheduled.
    fn reception(cell: &mut Cell<Self>, p: &RunParams, t: f64, index: u32);

    /// Bills `woken` tags waking their demodulators for one downlink
    /// command, at `energy_j` each.
    fn bill_wakeups(report: &mut EngineReport, woken: u32, energy_j: f64);
}

/// One MAC cell over a contiguous tag range. See the [module docs](self).
pub(crate) struct Cell<A> {
    pub base: u32,
    len: u32,
    pub queue: EventQueue<CellEv>,
    sessions: SessionTable,
    /// AP shard: per-tag sequence windows, indexed by local id.
    ap: Vec<SequenceWindow>,
    /// AP shard: sources outside the population that decoded frames
    /// claimed. A corrupt decode still reads as a frame from its source, so
    /// the shard tracks it as `AccessPoint` registers any source it hears.
    strangers: FxHashMap<u32, SequenceWindow>,
    /// AP shard: ARQ trackers by source, materialised lazily for lossy
    /// sources only.
    arq: FxHashMap<u32, ArqTracker>,
    /// Outstanding readings: `(local tag, sequence)` → generation time.
    outstanding: FxHashMap<(u32, u8), f64>,
    hopping: HoppingController,
    /// `(delivery time, latency)` pairs, recorded in ingest order.
    deliveries: Vec<(f64, f64)>,
    mac_rng: ChaCha8Rng,
    pub phy_rng: ChaCha8Rng,
    /// Activity watermark: every *activity* event extends it past its own
    /// airtime (scans and the jammer do not — they are not tag activity).
    /// It ends the run (and the waveform stream), and scans on the
    /// jammer's channel continue up to it or to the run's scan horizon,
    /// whichever is later.
    pub end_time: f64,
    pub report: EngineReport,
    missing_scratch: Vec<u8>,
    pub air: A,
}

/// Calls `each(tag, t)` for every reading the tags `[base, end)` generate,
/// in tag order. Each tag draws from its own salted stream, so its
/// arrivals depend on the seed and its id alone. Jitter-free periodic
/// traffic draws nothing, so the per-tag ChaCha key setup is skipped
/// wholesale — a million key schedules saved. `arrivals_buf` is scratch.
fn for_each_arrival(
    s: &EngineScenario,
    (base, end): (u32, u32),
    arrivals_buf: &mut Vec<f64>,
    mut each: impl FnMut(u32, f64),
) {
    let randomized = s.traffic.is_randomized();
    let mut shared_rng = ChaCha8Rng::seed_from_u64(s.seed ^ TRAFFIC_SALT);
    for tag in base..end {
        let mut own_rng;
        let rng = if randomized {
            own_rng = ChaCha8Rng::seed_from_u64(s.seed ^ TRAFFIC_SALT ^ ((tag as u64) << 32));
            &mut own_rng
        } else {
            &mut shared_rng
        };
        s.traffic
            .arrivals_into(s.readings_per_tag, s.phase_s(tag), rng, arrivals_buf);
        for &t in arrivals_buf.iter() {
            each(tag, t);
        }
    }
}

/// Per-cell RNG sub-stream: cell 0 reproduces the single-cell engine's
/// stream exactly; later cells get disjoint keys far above the tag-id bits.
fn cell_stream(salted_seed: u64, cell: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(salted_seed ^ ((cell as u64) << 40))
}

impl<A: Air> Cell<A> {
    /// Builds cell `cell_idx` over the global tag range `[base, end)`, with
    /// every tag's arrival schedule queued. `arrivals_buf` is scratch
    /// shared across cells.
    pub fn new(
        p: &RunParams,
        cell_idx: usize,
        (base, end): (u32, u32),
        arrivals_buf: &mut Vec<f64>,
        air: A,
    ) -> Self {
        let s = p.scenario;
        let len = end - base;
        let n_ch = s.n_channels;
        let sessions =
            SessionTable::new(len as usize, |local| ((base as usize + local) % n_ch) as u8);

        // Build every tag's arrival schedule up front.
        let mut schedule = Vec::with_capacity(len as usize * s.readings_per_tag);
        let mut end_time = s.lead_in_s;
        for_each_arrival(s, (base, end), arrivals_buf, |tag, t| {
            end_time = end_time.max(t + p.packet_dur);
            schedule.push((t, CellEv::Arrival { tag }));
        });
        let mut queue = EventQueue::with_schedule(schedule);
        if s.jammer.is_some() {
            let first_scan = s.lead_in_s + s.scan_interval_s;
            if first_scan < end_time {
                queue.push(first_scan, CellEv::SpectrumScan);
            }
        }

        // The AP hops over exactly the engine's channels, 500 kHz apart in
        // the paper's 433 MHz band, starting on the jammer's channel.
        let table = ChannelTable {
            channels: (0..n_ch).map(|i| 433.0e6 + i as f64 * 0.5e6).collect(),
        };
        let initial = s.jammer.map_or(0, |j| j.channel as u8);
        Cell {
            base,
            len,
            queue,
            sessions,
            ap: vec![SequenceWindow::default(); len as usize],
            strangers: FxHashMap::default(),
            arq: FxHashMap::default(),
            outstanding: FxHashMap::default(),
            hopping: HoppingController::new(table, initial, -70.0).expect("initial channel exists"),
            deliveries: Vec::new(),
            mac_rng: cell_stream(s.seed ^ MAC_SALT, cell_idx),
            phy_rng: cell_stream(s.seed ^ PHY_SALT, cell_idx),
            end_time,
            report: EngineReport::default(),
            missing_scratch: Vec::new(),
            air,
        }
    }

    /// Schedules an activity event, extending the watermark past its
    /// airtime.
    pub fn schedule(&mut self, t: f64, packet_dur: f64, ev: CellEv) {
        self.end_time = self.end_time.max(t + packet_dur);
        self.queue.push(t, ev);
    }

    /// Handles every event strictly before `until`.
    pub fn advance(&mut self, p: &RunParams, until: f64) {
        while let Some((t, ev)) = self.queue.pop_before(until) {
            match ev {
                CellEv::Arrival { tag } => self.on_arrival(p, t, tag),
                CellEv::Transmit {
                    tag,
                    sequence,
                    attempt,
                } => self.on_transmit(p, t, tag, sequence, attempt),
                CellEv::Reception { index } => A::reception(self, p, t, index),
                CellEv::Downlink { packet } => self.on_downlink(p, t, &packet),
                CellEv::SpectrumScan => self.on_scan(p, t),
            }
        }
    }

    fn on_arrival(&mut self, p: &RunParams, t: f64, tag: u32) {
        self.report.readings_generated += 1;
        let local = (tag - self.base) as usize;
        let sequence = self.sessions.allocate_sequence(local);
        self.outstanding.insert((local as u32, sequence), t);
        self.schedule(
            t,
            p.packet_dur,
            CellEv::Transmit {
                tag,
                sequence,
                attempt: 0,
            },
        );
    }

    fn on_transmit(&mut self, p: &RunParams, t: f64, tag: u32, sequence: u8, attempt: u8) {
        let local = (tag - self.base) as usize;
        // The tag's radio is half-duplex and serial: defer a transmission
        // that would overlap its own airtime (plus the guard).
        let busy_until = self.sessions.busy_until(local);
        if t < busy_until {
            self.schedule(
                busy_until,
                p.packet_dur,
                CellEv::Transmit {
                    tag,
                    sequence,
                    attempt,
                },
            );
            return;
        }
        self.sessions.reserve(local, t + p.packet_dur + p.guard_s);
        let round = self.sessions.next_round(local);
        let n = p.scenario.n_channels;
        let channel = match p.scenario.mac {
            MacPolicy::Fixed => self.sessions.channel(local) as usize,
            MacPolicy::Hopping => (self.sessions.channel(local) as usize + round as usize) % n,
            MacPolicy::Aloha => self.mac_rng.gen_range(0..n),
        };
        if attempt == 0 && p.scenario.drop_first_attempt.contains(&(tag, sequence)) {
            self.report.suppressed_transmissions += 1;
            return;
        }
        self.report.uplink_transmissions += 1;
        A::transmit(self, p, t, tag, sequence, channel);
    }

    /// The AP shard ingests one frame from cell-local source `local` (the
    /// id on the wire and in downlink addresses): the source's
    /// [`SequenceWindow`] step, then delivery bookkeeping and ARQ requests
    /// (scheduled as downlinks), as in `AccessPoint::ingest_frame`.
    pub fn ingest(&mut self, p: &RunParams, t: f64, local: u32, sequence: u8, is_ack: bool) {
        let window = match self.ap.get_mut(local as usize) {
            Some(window) => window,
            None => self.strangers.entry(local).or_default(),
        };
        let duplicate = window.step(sequence, is_ack, &mut self.missing_scratch);
        if let Some(tracker) = self.arq.get_mut(&local) {
            tracker.record_reception(sequence);
        }
        if duplicate {
            self.report.duplicates += 1;
        } else if let Some(gen_t) = self.outstanding.remove(&(local, sequence)) {
            self.report.readings_delivered += 1;
            self.report.delivered_payload_bits += (p.scenario.payload_bytes * 8) as u64;
            self.deliveries.push((t, t - gen_t));
        }
        let missing = std::mem::take(&mut self.missing_scratch);
        for &seq in &missing {
            let tracker = self
                .arq
                .entry(local)
                .or_insert_with(|| ArqTracker::new(TagId(local as u16), p.scenario.max_retries));
            tracker.record_loss(seq);
            if tracker.request_for(seq) {
                self.schedule(
                    t + p.scenario.feedback_delay_s,
                    p.packet_dur,
                    CellEv::Downlink {
                        packet: DownlinkPacket {
                            addressing: Addressing::Unicast(TagId(local as u16)),
                            command: Command::Retransmit { sequence: seq },
                        },
                    },
                );
            }
        }
        self.missing_scratch = missing;
    }

    fn on_downlink(&mut self, p: &RunParams, t: f64, packet: &DownlinkPacket) {
        self.report.downlink_commands += 1;
        match packet.command {
            Command::Retransmit { .. } => self.report.retransmission_requests += 1,
            Command::ChannelHop { .. } => self.report.channel_hops += 1,
            _ => {}
        }
        // Every tag in the cell wakes its demodulator for the command.
        A::bill_wakeups(&mut self.report, self.len, p.energy_per_command_j);
        let ds = p.scenario.downlink_success;
        match packet.addressing {
            Addressing::Unicast(id) => {
                // A request to a stranger addresses no tag of the cell.
                let local = id.0 as usize;
                if local >= self.len as usize || (ds < 1.0 && self.mac_rng.gen::<f64>() >= ds) {
                    return;
                }
                if let Command::Retransmit { sequence } = packet.command {
                    // Replay only what the session's ring buffer still
                    // holds; the payload is regenerated from the tag id at
                    // transmission, so nothing is stored.
                    if self.sessions.can_replay(local, sequence) {
                        let tag = self.base + local as u32;
                        self.schedule(
                            t + p.scenario.turnaround_s,
                            p.packet_dur,
                            CellEv::Transmit {
                                tag,
                                sequence,
                                attempt: 1,
                            },
                        );
                    }
                }
            }
            Addressing::Multicast { .. } | Addressing::Broadcast => {
                for local in 0..self.len as usize {
                    if ds < 1.0 && self.mac_rng.gen::<f64>() >= ds {
                        continue;
                    }
                    if let Command::ChannelHop { channel } = packet.command {
                        // Hop semantics: tags based on the jammed channel
                        // (all tags, absent a jammer) move their schedule.
                        let from = p.scenario.jammer.map(|j| j.channel);
                        let moves =
                            from.is_none() || from == Some(self.sessions.channel(local) as usize);
                        if moves && (channel as usize) < p.scenario.n_channels {
                            self.sessions.set_channel(local, channel);
                        }
                    }
                }
            }
        }
    }

    fn on_scan(&mut self, p: &RunParams, t: f64) {
        let current = self.hopping.current;
        let level = if p.jammer_on(t, current as usize).is_some() {
            -40.0
        } else {
            -95.0
        };
        if self.hopping.record_interference(current, level).is_ok() {
            if let Some(hop) = self.hopping.maybe_hop() {
                self.schedule(
                    t + p.scenario.feedback_delay_s,
                    p.packet_dur,
                    CellEv::Downlink { packet: hop },
                );
            }
        }
        // Keep scanning while the shard sits on the jammer's channel and
        // the deployment is still active — anywhere: the scan horizon
        // keeps an idle cell's scan chain alive while other cells' tags
        // still transmit. The jammer holds one channel and a hop fires only
        // on a jammed reading, so once the shard is off that channel no
        // later scan could change anything. A raw push so scans never
        // extend the watermark.
        let on_jammer = p
            .scenario
            .jammer
            .is_some_and(|j| j.channel == self.hopping.current as usize);
        let horizon = self.end_time.max(p.scan_horizon);
        if on_jammer && t + p.scenario.scan_interval_s < horizon {
            self.queue
                .push(t + p.scenario.scan_interval_s, CellEv::SpectrumScan);
        }
    }
}

/// What a finished cell leaves behind: its counters, its `(delivery time,
/// latency)` pairs in ingest order and its activity watermark. The queue,
/// session table and AP shard are gone, so an outcome is a few words plus
/// one pair per delivery.
pub(crate) struct CellOutcome {
    pub report: EngineReport,
    pub deliveries: Vec<(f64, f64)>,
    pub end_time: f64,
}

impl<A> Cell<A> {
    /// Reduces a finished cell to its outcome, dropping everything else.
    pub fn into_outcome(self) -> CellOutcome {
        CellOutcome {
            report: self.report,
            deliveries: self.deliveries,
            end_time: self.end_time,
        }
    }
}

/// A run's report: labels, population and duration, plus every cell's
/// counters added in cell order. Also returns the cells' `(delivery time,
/// latency)` pairs, concatenated in cell order.
pub(crate) fn merge_report(
    p: &RunParams,
    backend: &str,
    duration_s: f64,
    outcomes: Vec<CellOutcome>,
) -> (EngineReport, Vec<(f64, f64)>) {
    let s = p.scenario;
    let mut report = EngineReport {
        backend: backend.to_string(),
        policy: s.mac.label().to_string(),
        traffic: s.traffic.label().to_string(),
        tags: s.n_tags,
        channels: s.n_channels,
        duration_s,
        ..EngineReport::default()
    };
    let mut deliveries = Vec::with_capacity(outcomes.iter().map(|o| o.deliveries.len()).sum());
    for outcome in outcomes {
        let r = &outcome.report;
        report.readings_generated += r.readings_generated;
        report.readings_delivered += r.readings_delivered;
        report.duplicates += r.duplicates;
        report.detections += r.detections;
        report.uplink_transmissions += r.uplink_transmissions;
        report.suppressed_transmissions += r.suppressed_transmissions;
        report.collisions += r.collisions;
        report.downlink_commands += r.downlink_commands;
        report.retransmission_requests += r.retransmission_requests;
        report.channel_hops += r.channel_hops;
        report.delivered_payload_bits += r.delivered_payload_bits;
        report.tag_demodulation_energy_j += r.tag_demodulation_energy_j;
        deliveries.extend_from_slice(&outcome.deliveries);
    }
    (report, deliveries)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;
    use saiyan_mac::packet::UplinkPacket;
    use saiyan_mac::AccessPoint;

    use super::*;

    /// An air that carries nothing: these tests drive the AP shard directly.
    struct NoAir;

    impl Air for NoAir {
        fn transmit(_: &mut Cell<Self>, _: &RunParams, _: f64, _: u32, _: u8, _: usize) {}
        fn reception(_: &mut Cell<Self>, _: &RunParams, _: f64, _: u32) {}
        fn bill_wakeups(_: &mut EngineReport, _: u32, _: f64) {}
    }

    fn scenario(n_tags: usize, max_retries: u32) -> EngineScenario {
        let mut s = EngineScenario::grid(n_tags, 4, 1);
        s.max_retries = max_retries;
        s
    }

    /// A cell over the whole population with its arrival schedule dropped.
    fn idle_cell(p: &RunParams) -> Cell<NoAir> {
        let population = (0, p.scenario.n_tags as u32);
        let mut cell = Cell::new(p, 0, population, &mut Vec::new(), NoAir);
        while cell.queue.pop().is_some() {}
        cell
    }

    /// The downlinks the cell scheduled since the last drain, in order.
    fn drain_downlinks(cell: &mut Cell<NoAir>) -> Vec<DownlinkPacket> {
        let mut out = Vec::new();
        while let Some((_, ev)) = cell.queue.pop() {
            if let CellEv::Downlink { packet } = ev {
                out.push(packet);
            }
        }
        out
    }

    fn frame(source: u16, sequence: u8, is_ack: bool) -> UplinkPacket {
        UplinkPacket {
            source: TagId(source),
            sequence,
            is_ack,
            payload: vec![sequence],
        }
    }

    /// What the waveform backend does with a parsed frame.
    fn ingest_frame(cell: &mut Cell<NoAir>, p: &RunParams, t: f64, f: &UplinkPacket) {
        cell.ingest(p, t, f.source.0 as u32, f.sequence, f.is_ack);
    }

    #[test]
    fn frames_from_strangers_and_acks_never_deliver_or_replay() {
        let s = scenario(4, 2);
        let p = RunParams::new(&s);
        let mut cell = idle_cell(&p);
        cell.outstanding.insert((1, 0), 0.0);
        // Sources beyond the population, up to the broadcast id; the gaps
        // raise requests to the strangers, as `AccessPoint` does.
        for source in [4u16, 5, 1000, u16::MAX] {
            for sequence in [0u8, 3, 3, 200] {
                ingest_frame(&mut cell, &p, 1.0, &frame(source, sequence, false));
            }
        }
        assert_eq!(cell.report.duplicates, 4);
        // Delivering those requests addresses no tag of the cell.
        cell.advance(&p, f64::INFINITY);
        assert_eq!(cell.report.retransmission_requests, 8);
        assert!(cell.queue.is_empty(), "a stranger's request replayed");
        assert!(cell.ap.iter().all(|a| *a == SequenceWindow::default()));

        // An ACK moves the expectation but marks nothing received: the
        // data frame behind it is no duplicate.
        ingest_frame(&mut cell, &p, 2.0, &frame(2, 0, true));
        ingest_frame(&mut cell, &p, 2.0, &frame(2, 0, false));
        assert_eq!(cell.report.duplicates, 4);
        assert_eq!(cell.report.readings_delivered, 0);
        assert_eq!(cell.report.uplink_transmissions, 0);
        assert_eq!(cell.outstanding.len(), 1);
    }

    #[test]
    fn a_shard_stops_scanning_once_it_hops_off_the_jammer() {
        let mut s = scenario(64, 0);
        s.jammer = Some(JammerSpec {
            at_s: s.lead_in_s,
            channel: 0,
            penalty_db: -60.0,
        });
        let p = RunParams::new(&s);
        let population = (0, s.n_tags as u32);
        let mut cell = Cell::new(&p, 0, population, &mut Vec::new(), NoAir);
        while cell.report.channel_hops == 0 {
            let t = cell.queue.peek_time().expect("the shard hops");
            cell.advance(&p, t + 1e-9);
        }
        assert_ne!(cell.hopping.current, 0, "the shard stayed on the jammer");
        let scans = std::iter::from_fn(|| cell.queue.pop())
            .filter(|(_, ev)| matches!(ev, CellEv::SpectrumScan))
            .count();
        assert_eq!(scans, 0, "scans outlived the hop");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat AP shard is `AccessPoint::ingest_frame`: frame by frame,
        /// the same duplicate flag, the same delivery and the same ordered
        /// retransmission requests, over in-order frames, gaps within and
        /// beyond the gap limit, replays within and beyond the replay
        /// window, duplicates, resets, ACKs and a stranger source.
        #[test]
        fn ap_shard_ingest_matches_access_point_ingest_frame(
            ops in collection::vec(any::<u32>(), 1..160),
            generated in collection::vec(any::<bool>(), 256),
            max_retries in 0u32..4,
        ) {
            const TAGS: u16 = 3;
            const STRANGER: u16 = 1000;
            let s = scenario(TAGS as usize, max_retries);
            let p = RunParams::new(&s);
            let mut cell = idle_cell(&p);
            let table = ChannelTable { channels: vec![433.0e6, 433.5e6] };
            let mut ap = AccessPoint::new(table, 0, max_retries).expect("channel 0 exists");
            // Both sides start with the same outstanding readings.
            let mut outstanding = HashSet::new();
            for tag in 0..TAGS as u32 {
                for seq in (0..=255u8).filter(|&q| generated[q as usize]) {
                    cell.outstanding.insert((tag, seq), 0.0);
                    outstanding.insert((tag, seq));
                }
            }
            let mut cursor = [0u8; TAGS as usize + 1];
            for (i, &op) in ops.iter().enumerate() {
                let slot = (op % (TAGS as u32 + 1)) as usize;
                let amount = (op >> 16) as u8;
                let next = &mut cursor[slot];
                let sequence = match (op >> 8) % 6 {
                    0 | 1 => *next,
                    2 => next.wrapping_add(amount % 12),
                    3 => next.wrapping_sub(2 + amount % 20),
                    4 => next.wrapping_sub(1),
                    _ => amount,
                };
                if !matches!((op >> 8) % 6, 3 | 4) {
                    *next = sequence.wrapping_add(1);
                }
                let source = if slot == TAGS as usize { STRANGER } else { slot as u16 };
                let f = frame(source, sequence, (op >> 24) % 8 == 0);
                let t = i as f64;

                let reference = ap.ingest_frame(0, t, &f.to_bytes()).expect("well-formed");
                let delivered =
                    !reference.duplicate && outstanding.remove(&(source as u32, sequence));
                let before = cell.report.clone();
                ingest_frame(&mut cell, &p, t, &f);
                prop_assert_eq!(
                    cell.report.duplicates - before.duplicates,
                    reference.duplicate as usize,
                    "frame {} {:?}", i, f
                );
                prop_assert_eq!(
                    cell.report.readings_delivered - before.readings_delivered,
                    delivered as usize,
                    "frame {} {:?}", i, f
                );
                prop_assert_eq!(
                    drain_downlinks(&mut cell),
                    reference.retransmission_requests,
                    "frame {} {:?}", i, f
                );
            }
        }
    }
}
