//! Scenario description for the discrete-event network engine.
//!
//! One [`EngineScenario`] drives both fidelity levels: the analytical
//! backend (link-abstraction coin flips with collision tracking) and the
//! waveform backend (bounded-chunk IQ synthesis through a real receiver).
//! Everything the two backends need — tag population, channel grid, traffic
//! model, MAC policy, power/CFO/noise draws, ARQ budget, injected losses,
//! jammer — lives here, so a sweep can swap backends without touching the
//! workload definition.

use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
use rfsim::units::{Db, Meters};
use saiyan::metrics::packet_error_rate;

use crate::backscatter::{BackscatterScenario, UplinkSystem};
use crate::multichannel::MultiChannelConfig;
use crate::scenario::Scenario;

use super::traffic::TrafficModel;

/// Largest tag population one analytic cell (or the waveform path, which is
/// a single cell by construction) can hold: cell-local wire ids are `u16`.
pub const MAX_TAGS_PER_CELL: usize = 1 << 16;

/// How tags choose their transmit channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacPolicy {
    /// Tag `i` stays on channel `i mod n_channels`.
    Fixed,
    /// Orthogonal rotation: tag `i`'s `j`-th transmission goes on channel
    /// `(i + j) mod n_channels` — the collision-free hopping schedule the
    /// paper's multi-tag evaluation uses.
    Hopping,
    /// Every transmission picks a uniformly random channel (slotted-ALOHA
    /// style); same-channel overlaps collide.
    Aloha,
}

impl MacPolicy {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MacPolicy::Fixed => "fixed",
            MacPolicy::Hopping => "hopping",
            MacPolicy::Aloha => "aloha",
        }
    }

    /// All policies, in sweep order.
    pub const ALL: [MacPolicy; 3] = [MacPolicy::Fixed, MacPolicy::Hopping, MacPolicy::Aloha];
}

/// Per-transmission delivery model for the analytical backend. The waveform
/// backend ignores this — its losses come out of the actual demodulation.
///
/// A transmission the jammer hits succeeds with the model's probability at
/// its SNR plus [`JammerSpec::penalty_db`]. Only `Backscatter` has an SNR:
/// `Ideal` and `FixedPrr` have none to lower, so a jammed transmission on
/// them is always lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Every non-colliding, unjammed transmission is delivered.
    Ideal,
    /// Every non-colliding, unjammed transmission succeeds with this
    /// probability (clamped to `[0, 1]`; NaN is rejected).
    FixedPrr(f64),
    /// PRR from the calibrated two-hop backscatter link (Fig. 2).
    Backscatter {
        /// Tag-to-carrier distance (metres).
        tag_to_tx_m: f64,
        /// The uplink system the tags use.
        system: UplinkSystem,
    },
}

/// A jammer that appears mid-run on one channel. The access point's
/// spectrum scans detect it and its [`saiyan_mac::HoppingController`]
/// broadcasts a hop command; tags that demodulate the command reschedule
/// their future transmissions onto the new channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammerSpec {
    /// Time (seconds) at which the jammer switches on.
    pub at_s: f64,
    /// The jammed channel index.
    pub channel: usize,
    /// SINR penalty (dB, at most 0) on the jammed channel: the waveform
    /// path lowers each emission's power by it, the analytic path the
    /// link model's SNR (see [`LinkModel`]).
    pub penalty_db: f64,
}

/// The full workload description for one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineScenario {
    /// Per-channel PHY parameters (all channels share them).
    pub lora: LoraParams,
    /// Number of channels in the grid (500 kHz spacing, centred).
    pub n_channels: usize,
    /// Wideband rate = `decimation × lora.sample_rate()` (waveform path).
    pub decimation: usize,
    /// Number of tags.
    pub n_tags: usize,
    /// Readings each tag generates.
    pub readings_per_tag: usize,
    /// Uplink MAC-frame payload bytes (the wire frame adds a 5-byte header).
    pub payload_bytes: usize,
    /// When tags generate readings.
    pub traffic: TrafficModel,
    /// How tags choose channels.
    pub mac: MacPolicy,
    /// Retransmission-request budget per lost reading.
    pub max_retries: u32,
    /// Analytical-path delivery model.
    pub link: LinkModel,
    /// Mean receive power at the gateway (dBm).
    pub base_power_dbm: f64,
    /// Uniform per-packet power spread (± dB).
    pub power_spread_db: f64,
    /// Maximum per-packet CFO (Hz, drawn uniformly in ±).
    pub max_cfo_hz: f64,
    /// Wideband channel noise (dBm; None = noiseless).
    pub noise_power_dbm: Option<f64>,
    /// Probability a downlink command is demodulated by a tag.
    pub downlink_success: f64,
    /// Access-point turnaround: a feedback command for a packet that ended
    /// at `t` is on the air at `t + feedback_delay_s`. On the waveform path
    /// this must cover the gateway's release horizon plus one synthesis
    /// chunk (see [`EngineScenario::min_feedback_delay_s`]), so the feedback
    /// schedule is identical whatever the chunk size.
    pub feedback_delay_s: f64,
    /// Tag turnaround between receiving a command and retransmitting.
    pub turnaround_s: f64,
    /// Quiet lead-in before the first reading (seconds); the streaming
    /// threshold tracker seeds its noise estimate here.
    pub lead_in_s: f64,
    /// Access-point spectrum-scan period (seconds; only scanned while a
    /// jammer is configured).
    pub scan_interval_s: f64,
    /// Optional mid-run jammer.
    pub jammer: Option<JammerSpec>,
    /// Injected losses: the *first* transmission attempt of these
    /// `(tag, sequence)` pairs is suppressed, so only the ARQ loop can
    /// recover the reading.
    pub drop_first_attempt: Vec<(u32, u8)>,
    /// Waveform-path synthesis chunk size (wideband samples).
    pub chunk_samples: usize,
    /// Analytic-path spatial cells: tags are partitioned into this many
    /// contiguous ranges, each an independent collision domain with its own
    /// event queue, access-point shard and RNG streams. `1` reproduces the
    /// single-cell engine exactly.
    pub analytic_cells: usize,
    /// Worker threads running analytic cells, each a contiguous chunk of
    /// them. Each worker builds, runs, reduces and drops its cells one at a
    /// time, so it holds one live cell. The report is bit-identical
    /// whatever the worker count.
    pub analytic_workers: usize,
    /// Master seed; traffic, MAC and PHY draws use salted sub-streams.
    pub seed: u64,
}

impl EngineScenario {
    /// The paper-style grid workload: SF7 / 250 kHz / K = 2 channels at 2×
    /// oversampling on a 500 kHz grid digitised at `decimation = 6`
    /// (3 Msps wideband for 4 channels), periodic traffic at the tightest
    /// collision-free interval for the tag count, and a clean link.
    pub fn grid(n_tags: usize, n_channels: usize, readings_per_tag: usize) -> Self {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz250,
            BitsPerChirp::new(2).expect("valid"),
        )
        .with_oversampling(2);
        let mut scenario = EngineScenario {
            lora,
            n_channels,
            decimation: 6,
            n_tags,
            readings_per_tag,
            payload_bytes: 3,
            traffic: TrafficModel::Periodic {
                interval_s: 1.0,
                jitter_s: 0.0,
            },
            mac: MacPolicy::Fixed,
            max_retries: 2,
            link: LinkModel::Ideal,
            base_power_dbm: -43.0,
            power_spread_db: 1.5,
            max_cfo_hz: 500.0,
            noise_power_dbm: Some(-85.0),
            downlink_success: 1.0,
            feedback_delay_s: 0.0,
            turnaround_s: 0.0,
            lead_in_s: 0.0,
            scan_interval_s: 0.25,
            jammer: None,
            drop_first_attempt: Vec::new(),
            chunk_samples: 16_384,
            analytic_cells: 1,
            analytic_workers: 1,
            seed: 0x5A1A,
        };
        let t_sym = lora.symbol_duration();
        scenario.lead_in_s = 4.0 * t_sym;
        scenario.turnaround_s = 4.0 * t_sym;
        scenario.feedback_delay_s = scenario.min_feedback_delay_s();
        scenario.traffic = TrafficModel::Periodic {
            interval_s: scenario.safe_periodic_interval_s(),
            jitter_s: 0.0,
        };
        scenario
    }

    /// The §5.3.1 retransmission study (Fig. 26) as a collision-free
    /// workload: four tags, one per channel, each sending 250 readings a
    /// second apart over the calibrated backscatter uplink, with up to
    /// `max_retries` requests per lost reading. PLoRa tags sit 3.55 m and
    /// Aloba tags 2.8 m from the carrier, where one packet gets through
    /// about 84% and 49% of the time. The 27-byte payload makes the wire
    /// frame the study's 256-bit packet, and the tags demodulate the access
    /// point's requests 100 m away. 250 readings stay within one lap of a
    /// tag's 8-bit sequence numbers.
    pub fn retransmission_study(system: UplinkSystem, max_retries: u32) -> Self {
        let tag_to_tx_m = match system {
            UplinkSystem::PLoRa => 3.55,
            UplinkSystem::Aloba => 2.8,
        };
        let mut s = EngineScenario::grid(4, 4, 250).with_seed(0xF1626);
        s.traffic = TrafficModel::Periodic {
            interval_s: 1.0,
            jitter_s: 0.0,
        };
        s.payload_bytes = 27;
        s.feedback_delay_s = s.min_feedback_delay_s();
        s.link = LinkModel::Backscatter {
            tag_to_tx_m,
            system,
        };
        s.max_retries = max_retries;
        s.downlink_success = Scenario::outdoor_default(Meters(100.0)).command_success();
        s
    }

    /// One observation window of the §5.3.2 channel-hopping study
    /// (Fig. 27): a PLoRa tag 3.05 m from the carrier sends 40 readings a
    /// second apart (256-bit frames, no ARQ) on channel 0 of two, under a
    /// jammer with the given SINR penalty.
    ///
    /// * Jammed (`hopped = false`): the jammer is on throughout, and the
    ///   access point does not scan before the last reading.
    /// * Post-hop: the access point scans one symbol after the first
    ///   reading, as the jammer switches on, and its hopping controller
    ///   broadcasts a hop. A tag that demodulates it (downlink at 100 m)
    ///   sends the rest of its readings on the clean channel.
    pub fn hopping_window(hopped: bool, penalty_db: f64) -> Self {
        const READINGS: usize = 40;
        let mut s = EngineScenario::grid(1, 2, READINGS).with_seed(0xF1627);
        s.traffic = TrafficModel::Periodic {
            interval_s: 1.0,
            jitter_s: 0.0,
        };
        s.payload_bytes = 27;
        s.feedback_delay_s = s.min_feedback_delay_s();
        s.link = LinkModel::Backscatter {
            tag_to_tx_m: 3.05,
            system: UplinkSystem::PLoRa,
        };
        s.max_retries = 0;
        s.downlink_success = Scenario::outdoor_default(Meters(100.0)).command_success();
        let at_s = if hopped {
            s.scan_interval_s = s.lora.symbol_duration();
            s.lead_in_s + s.scan_interval_s
        } else {
            s.scan_interval_s = READINGS as f64;
            0.0
        };
        s.jammer = Some(JammerSpec {
            at_s,
            channel: 0,
            penalty_db,
        });
        s
    }

    /// Returns a copy with a different MAC policy.
    pub fn with_mac(mut self, mac: MacPolicy) -> Self {
        self.mac = mac;
        self
    }

    /// Returns a copy with a different traffic model.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different synthesis chunk size, keeping the
    /// feedback delay valid for it.
    pub fn with_chunk_samples(mut self, chunk_samples: usize) -> Self {
        self.chunk_samples = chunk_samples.max(1);
        self.feedback_delay_s = self.feedback_delay_s.max(self.min_feedback_delay_s());
        self
    }

    /// Returns a copy partitioned into `cells` analytic cells (`0` = auto:
    /// roughly 8 Ki tags per cell).
    pub fn with_cells(mut self, cells: usize) -> Self {
        self.analytic_cells = if cells == 0 {
            self.n_tags.div_ceil(8192).max(1)
        } else {
            cells
        };
        self
    }

    /// Returns a copy with a different analytic worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.analytic_workers = workers.max(1);
        self
    }

    /// The global tag-id range `[start, end)` of one analytic cell: a
    /// balanced contiguous partition, so neighbouring tags (which a spatial
    /// deployment would place in the same cell) share a collision domain.
    pub fn cell_range(&self, cell: usize) -> (u32, u32) {
        assert!(cell < self.analytic_cells, "cell index out of range");
        let n = self.n_tags as u64;
        let c = self.analytic_cells as u64;
        let start = (cell as u64 * n / c) as u32;
        let end = ((cell as u64 + 1) * n / c) as u32;
        (start, end)
    }

    /// The analytic path's per-transmission link success probability.
    pub fn link_success_p(&self) -> f64 {
        match self.link {
            LinkModel::Ideal => 1.0,
            LinkModel::FixedPrr(p) => p.clamp(0.0, 1.0),
            LinkModel::Backscatter {
                tag_to_tx_m,
                system,
            } => BackscatterScenario::fig2(Meters(tag_to_tx_m)).prr(system, self.frame_bytes() * 8),
        }
    }

    /// The analytic path's success probability for a transmission the
    /// jammer hits: the backscatter link's PRR at its SNR plus the jammer's
    /// penalty, and 0 for the models without an SNR (or without a jammer).
    pub fn jammed_success_p(&self) -> f64 {
        match (self.link, self.jammer) {
            (
                LinkModel::Backscatter {
                    tag_to_tx_m,
                    system,
                },
                Some(jammer),
            ) => {
                let snr =
                    BackscatterScenario::fig2(Meters(tag_to_tx_m)).snr() + Db(jammer.penalty_db);
                1.0 - packet_error_rate(system.ber(snr), self.frame_bytes() * 8)
            }
            _ => 0.0,
        }
    }

    /// Uplink wire-frame length: 5 header bytes plus the payload.
    pub fn frame_bytes(&self) -> usize {
        5 + self.payload_bytes
    }

    /// Payload length in chirp symbols for the fixed-length receivers.
    pub fn payload_symbols(&self) -> usize {
        let bits = self.frame_bytes() * 8;
        let k = self.lora.bits_per_chirp.bits() as usize;
        assert_eq!(bits % k, 0, "frame bits {bits} not divisible by K {k}");
        bits / k
    }

    /// Wideband sample rate (Hz) of the waveform path.
    pub fn wideband_rate(&self) -> f64 {
        self.lora.sample_rate() * self.decimation as f64
    }

    /// PHY parameters used to modulate at the wideband rate.
    pub fn wideband_lora(&self) -> LoraParams {
        self.lora
            .with_oversampling(self.lora.oversampling * self.decimation as u32)
    }

    /// Channel offsets (Hz) from the wideband centre.
    pub fn offsets_hz(&self) -> Vec<f64> {
        MultiChannelConfig::grid_offsets(self.n_channels)
    }

    /// On-air duration of one uplink packet (preamble + sync + payload).
    pub fn packet_duration_s(&self) -> f64 {
        self.lora.packet_duration(self.payload_symbols())
    }

    /// The gateway's merge-release horizon for this payload length (must
    /// match `saiyan::gateway`): no packet can still surface once every
    /// channel consumed `payload_symbols + 4` symbols past its start.
    pub fn horizon_s(&self) -> f64 {
        (self.payload_symbols() as f64 + 4.0) * self.lora.symbol_duration()
    }

    /// Smallest feedback delay that keeps the waveform-path MAC schedule
    /// chunk-size invariant: the release horizon plus one chunk plus slack.
    pub fn min_feedback_delay_s(&self) -> f64 {
        self.horizon_s()
            + self.chunk_samples as f64 / self.wideband_rate()
            + 2.0 * self.lora.symbol_duration()
    }

    /// Tightest periodic interval at which the Fixed and Hopping policies
    /// stay collision-free: each channel serves `ceil(n_tags / n_channels)`
    /// tags per round, each needing a packet slot plus ARQ slack.
    pub fn safe_periodic_interval_s(&self) -> f64 {
        let per_channel = self.n_tags.div_ceil(self.n_channels.max(1));
        let slot = self.packet_duration_s() + 4.0 * self.lora.symbol_duration();
        per_channel as f64 * slot * 1.25
    }

    /// Per-tag phase stagger (seconds) for reading `0`: spreads the tag
    /// population evenly over one periodic interval.
    pub fn phase_s(&self, tag: u32) -> f64 {
        let interval = match self.traffic {
            TrafficModel::Periodic { interval_s, .. } => interval_s,
            _ => self.safe_periodic_interval_s(),
        };
        self.lead_in_s + tag as f64 * interval / self.n_tags.max(1) as f64
    }

    /// Panics if the scenario is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.n_tags > 0, "need at least one tag");
        assert!(self.n_channels > 0, "need at least one channel");
        assert!(
            self.n_channels <= 256,
            "{} channels: at most 256 fit the MAC's u8 channel ids",
            self.n_channels
        );
        assert!(self.decimation >= 1, "decimation must be at least 1");
        assert!(self.readings_per_tag > 0, "need at least one reading");
        assert!(self.payload_bytes > 0, "need a payload");
        assert!(
            (0.0..=1.0).contains(&self.downlink_success),
            "downlink_success must be a probability"
        );
        assert!(self.chunk_samples > 0, "chunk_samples must be positive");
        // A non-finite power or CFO synthesizes NaN/inf samples, which the
        // receiver silently decodes as nothing at all.
        if let Some(dbm) = self.noise_power_dbm {
            assert!(dbm.is_finite(), "noise_power_dbm must be finite, got {dbm}");
        }
        assert!(
            self.base_power_dbm.is_finite(),
            "base_power_dbm must be finite, got {}",
            self.base_power_dbm
        );
        // A NaN timing field trips the event queue's finite-time check, and a
        // negative one schedules feedback into the past.
        for (field, value) in [
            ("power_spread_db", self.power_spread_db),
            ("max_cfo_hz", self.max_cfo_hz),
            ("feedback_delay_s", self.feedback_delay_s),
            ("turnaround_s", self.turnaround_s),
            ("lead_in_s", self.lead_in_s),
        ] {
            assert!(
                value.is_finite() && value >= 0.0,
                "{field} must be finite and non-negative, got {value}"
            );
        }
        // A zero period re-arms a scan at the same instant forever; a NaN
        // one silently stops scanning.
        assert!(
            self.scan_interval_s.is_finite() && self.scan_interval_s > 0.0,
            "scan_interval_s must be finite and positive, got {}",
            self.scan_interval_s
        );
        if let LinkModel::FixedPrr(p) = self.link {
            assert!(!p.is_nan(), "link FixedPrr must be a probability, got NaN");
        }
        // A jammer must be able to act: on a channel of the grid (the AP's
        // scans start there), from a real onset, lowering the SINR. A NaN
        // onset never fires, and a NaN or positive penalty is no probability.
        if let Some(j) = self.jammer {
            assert!(
                j.channel < self.n_channels,
                "jammer.channel {} is not one of the {} channels",
                j.channel,
                self.n_channels
            );
            assert!(
                j.at_s.is_finite(),
                "jammer.at_s must be finite, got {}",
                j.at_s
            );
            assert!(
                j.penalty_db.is_finite() && j.penalty_db <= 0.0,
                "jammer.penalty_db must be finite and at most 0, got {}",
                j.penalty_db
            );
        }
        assert!(self.analytic_cells >= 1, "need at least one analytic cell");
        assert!(
            self.analytic_cells <= self.n_tags,
            "more analytic cells ({}) than tags ({})",
            self.analytic_cells,
            self.n_tags
        );
        assert!(self.analytic_workers >= 1, "need at least one worker");
        assert!(
            self.n_tags.div_ceil(self.analytic_cells) <= MAX_TAGS_PER_CELL,
            "a cell would hold more than {MAX_TAGS_PER_CELL} tags (u16 wire ids): \
             raise analytic_cells"
        );
        assert!(self.n_tags <= u32::MAX as usize, "tag ids are u32");
        let _ = self.payload_symbols();
        // The channel grid must fit inside the wideband Nyquist range.
        let nyquist = self.wideband_rate() / 2.0;
        for offset in self.offsets_hz() {
            assert!(
                offset >= -nyquist && offset + self.lora.bw.hz() <= nyquist,
                "channel at offset {offset} Hz falls outside the wideband Nyquist range ±{nyquist}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_scenario_is_consistent() {
        let s = EngineScenario::grid(12, 4, 3);
        s.validate();
        assert_eq!(s.frame_bytes(), 8);
        assert_eq!(s.payload_symbols(), 32);
        assert!((s.wideband_rate() - 3.0e6).abs() < 1e-6);
        assert!(s.feedback_delay_s >= s.min_feedback_delay_s());
        // Three tags per channel: the safe interval covers three slots.
        assert!(s.safe_periodic_interval_s() > 3.0 * s.packet_duration_s());
        // Phases spread over one interval.
        assert!(s.phase_s(11) > s.phase_s(0));
    }

    #[test]
    fn cell_ranges_partition_the_population() {
        let s = EngineScenario::grid(1000, 4, 1)
            .with_cells(7)
            .with_workers(3);
        s.validate();
        let mut covered = 0u32;
        for c in 0..s.analytic_cells {
            let (lo, hi) = s.cell_range(c);
            assert_eq!(lo, covered, "cell {c} is not contiguous");
            assert!(hi > lo, "cell {c} is empty");
            covered = hi;
        }
        assert_eq!(covered, 1000);
        // Auto-sizing keeps every cell under the u16 wire-id ceiling.
        let big = EngineScenario::grid(100_000, 4, 1).with_cells(0);
        assert!(big.n_tags.div_ceil(big.analytic_cells) <= MAX_TAGS_PER_CELL);
        big.validate();
    }

    #[test]
    fn chunk_size_changes_keep_the_feedback_delay_valid() {
        let s = EngineScenario::grid(4, 4, 2).with_chunk_samples(1 << 20);
        assert!(s.feedback_delay_s >= s.min_feedback_delay_s());
    }

    #[test]
    fn the_full_u8_channel_space_runs() {
        let mut s = EngineScenario::grid(256, 256, 1);
        s.decimation = 400;
        let report = crate::engine::NetworkEngine::new(s).run_analytic().report;
        assert_eq!(report.channels, 256);
        assert_eq!(report.readings_delivered, 256);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn more_channels_than_u8_ids_are_rejected() {
        let mut s = EngineScenario::grid(257, 257, 1);
        s.decimation = 400;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "noise_power_dbm must be finite")]
    fn a_nan_noise_power_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.noise_power_dbm = Some(f64::NAN);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "noise_power_dbm must be finite")]
    fn an_infinite_noise_power_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.noise_power_dbm = Some(f64::INFINITY);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "base_power_dbm must be finite")]
    fn a_nan_base_power_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.base_power_dbm = f64::NAN;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "power_spread_db must be finite and non-negative")]
    fn a_negative_power_spread_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.power_spread_db = -1.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "max_cfo_hz must be finite and non-negative")]
    fn an_infinite_cfo_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.max_cfo_hz = f64::INFINITY;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "scan_interval_s must be finite and positive")]
    fn a_zero_scan_interval_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.scan_interval_s = 0.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "feedback_delay_s must be finite and non-negative")]
    fn a_negative_feedback_delay_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.feedback_delay_s = -1e-3;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "turnaround_s must be finite and non-negative")]
    fn an_infinite_turnaround_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.turnaround_s = f64::INFINITY;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "lead_in_s must be finite and non-negative")]
    fn a_nan_lead_in_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.lead_in_s = f64::NAN;
        s.validate();
    }

    fn jammed(channel: usize, at_s: f64, penalty_db: f64) -> EngineScenario {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.jammer = Some(JammerSpec {
            at_s,
            channel,
            penalty_db,
        });
        s
    }

    #[test]
    #[should_panic(expected = "jammer.channel 4 is not one of the 4 channels")]
    fn a_jammer_off_the_grid_is_rejected() {
        jammed(4, 0.0, -60.0).validate();
    }

    #[test]
    #[should_panic(expected = "jammer.at_s must be finite")]
    fn a_nan_jammer_onset_is_rejected() {
        jammed(0, f64::NAN, -60.0).validate();
    }

    #[test]
    #[should_panic(expected = "jammer.penalty_db must be finite and at most 0")]
    fn a_nan_jammer_penalty_is_rejected() {
        jammed(0, 0.0, f64::NAN).validate();
    }

    #[test]
    #[should_panic(expected = "jammer.penalty_db must be finite and at most 0")]
    fn a_positive_jammer_penalty_is_rejected() {
        jammed(0, 0.0, 3.0).validate();
    }

    #[test]
    #[should_panic(expected = "link FixedPrr must be a probability")]
    fn a_nan_fixed_prr_is_rejected() {
        let mut s = EngineScenario::grid(4, 4, 1);
        s.link = LinkModel::FixedPrr(f64::NAN);
        s.validate();
    }

    #[test]
    fn only_the_backscatter_link_survives_a_jammer() {
        let mut s = jammed(0, 0.0, -7.0);
        assert_eq!(s.jammed_success_p(), 0.0, "Ideal has no SNR");
        s.link = LinkModel::FixedPrr(0.9);
        assert_eq!(s.jammed_success_p(), 0.0, "FixedPrr has no SNR");
        s.link = LinkModel::Backscatter {
            tag_to_tx_m: 3.05,
            system: UplinkSystem::PLoRa,
        };
        let (clean, jammed) = (s.link_success_p(), s.jammed_success_p());
        assert!(0.0 < jammed && jammed < clean, "{jammed} vs {clean}");
        // A zero penalty leaves the link as it is.
        s.jammer.as_mut().unwrap().penalty_db = 0.0;
        assert_eq!(s.jammed_success_p(), clean);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn an_oversubscribed_grid_is_rejected() {
        let mut s = EngineScenario::grid(4, 8, 1);
        s.decimation = 6;
        s.validate();
    }
}
