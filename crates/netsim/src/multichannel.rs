//! Multi-tag, multi-channel wideband traces for the gateway.
//!
//! [`crate::longtrace`] generates one channel's unbounded sample stream; the
//! multi-channel gateway needs the stream *its* front end digitises: one
//! wideband capture spanning several LoRa channels, with tags hopping between
//! them and packets flying concurrently on different channels. This module
//! generates such traces deterministically from a seed, as a layout preset
//! over the same [`EmissionMixer`] the network engine synthesizes with:
//!
//! 1. each packet is assembled at the wideband rate, scaled to its receive
//!    power, and queued on its channel's timeline (strictly serial per
//!    channel — a Saiyan channel cannot untangle same-channel collisions)
//!    with its per-packet CFO and its channel's frequency offset;
//! 2. one mixing pass rotates every emission to its CFO + channel offset and
//!    sums them into the wideband stream;
//! 3. AWGN is added over the whole wideband stream.
//!
//! [`hopping_traffic`] builds the paper-style workload on top: `n_tags` tags
//! each sending one packet per round, rotating over the channel grid so that
//! every round carries concurrent packets on distinct channels (the classic
//! orthogonal hopping schedule), with per-packet power and CFO draws.

use lora_phy::iq::SampleBuffer;
use lora_phy::modulator::Alphabet;
use lora_phy::params::{BitsPerChirp, LoraParams};
use lora_phy::templates::PacketTemplates;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfsim::channel::dbm_to_buffer_power;
use rfsim::noise::AwgnSource;
use rfsim::units::Dbm;

use crate::longtrace::random_payloads;
use crate::synthesis::EmissionMixer;

/// Configuration of a multi-channel wideband trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelConfig {
    /// Per-channel PHY parameters (all channels share them); the channel
    /// sample rate is `lora.sample_rate()`.
    pub lora: LoraParams,
    /// Wideband rate = `decimation × lora.sample_rate()`.
    pub decimation: usize,
    /// Offset (Hz) of each channel's lower band edge from the wideband
    /// centre. Channel index in packets refers into this list.
    pub offsets_hz: Vec<f64>,
    /// Channel noise power added over the wideband stream (None = noiseless).
    pub noise_power_dbm: Option<f64>,
    /// Seed for the channel noise.
    pub seed: u64,
    /// Silence appended after the last packet, in symbol durations.
    pub tail_gap_symbols: f64,
}

impl MultiChannelConfig {
    /// A clean-channel configuration over the given offsets.
    pub fn new(lora: LoraParams, decimation: usize, offsets_hz: Vec<f64>) -> Self {
        assert!(decimation >= 1, "decimation must be at least 1");
        assert!(!offsets_hz.is_empty(), "need at least one channel");
        MultiChannelConfig {
            lora,
            decimation,
            offsets_hz,
            noise_power_dbm: None,
            seed: 0x3A7E,
            tail_gap_symbols: 4.0,
        }
    }

    /// Returns a copy with wideband noise at the given power.
    pub fn with_noise(mut self, noise_power_dbm: f64) -> Self {
        self.noise_power_dbm = Some(noise_power_dbm);
        self
    }

    /// The wideband sample rate in Hz.
    pub fn wideband_rate(&self) -> f64 {
        self.lora.sample_rate() * self.decimation as f64
    }

    /// The PHY parameters used to modulate at the wideband rate.
    pub fn wideband_lora(&self) -> LoraParams {
        self.lora
            .with_oversampling(self.lora.oversampling * self.decimation as u32)
    }

    /// A 500 kHz-grid offset plan (the paper's 433 MHz channel spacing) for
    /// `n` channels, centred on the middle of the grid.
    pub fn grid_offsets(n: usize) -> Vec<f64> {
        let spacing = 500_000.0;
        let span = spacing * (n as f64 - 1.0);
        (0..n).map(|i| i as f64 * spacing - span / 2.0).collect()
    }
}

/// One packet to place on a multi-channel trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelPacket {
    /// The sending tag's identity.
    pub tag: u16,
    /// Channel index (into [`MultiChannelConfig::offsets_hz`]).
    pub channel: usize,
    /// Packet start time, in symbol durations from the trace start.
    pub start_symbols: f64,
    /// Payload symbols (downlink alphabet, `2^K` entries).
    pub symbols: Vec<u32>,
    /// Receive power at the gateway antenna.
    pub rx_power_dbm: f64,
    /// Carrier frequency offset of this packet (Hz).
    pub cfo_hz: f64,
}

/// Ground truth for one packet placed on a multi-channel trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChannelTruth {
    /// The sending tag.
    pub tag: u16,
    /// Channel index the packet flew on.
    pub channel: usize,
    /// Wideband sample index at which the packet's preamble begins.
    pub start_sample: usize,
    /// Payload start time in seconds — identical in the wideband stream and
    /// in the channelized per-channel stream (they share their origin).
    pub payload_start_time: f64,
    /// The transmitted payload symbols.
    pub symbols: Vec<u32>,
    /// Receive power the packet was scaled to.
    pub rx_power_dbm: f64,
}

/// Generates a wideband multi-channel trace and its ground truth.
///
/// # Panics
///
/// Panics if a packet refers to an unknown channel or overlaps the previous
/// packet on the same channel (packets need not be globally sorted, only
/// non-overlapping per channel).
pub fn generate_multichannel_trace(
    config: &MultiChannelConfig,
    packets: &[MultiChannelPacket],
) -> (SampleBuffer, Vec<MultiChannelTruth>) {
    let wide_lora = config.wideband_lora();
    let templates = PacketTemplates::new(wide_lora, Alphabet::Downlink);
    let fs_wide = config.wideband_rate();
    let sps_wide = wide_lora.samples_per_symbol();
    let n_channels = config.offsets_hz.len();

    let mut mixer = EmissionMixer::new();
    // End of the last packet queued on each channel.
    let mut channel_end = vec![0usize; n_channels];
    let mut truth = Vec::with_capacity(packets.len());
    let mut order: Vec<usize> = (0..packets.len()).collect();
    order.sort_by(|&a, &b| {
        packets[a]
            .start_symbols
            .total_cmp(&packets[b].start_symbols)
    });
    for i in order {
        let p = &packets[i];
        assert!(
            p.channel < n_channels,
            "packet on unknown channel {}",
            p.channel
        );
        let start_sample = (p.start_symbols * sps_wide as f64).round() as usize;
        assert!(
            start_sample >= channel_end[p.channel],
            "tag {} packet at symbol {} overlaps the previous packet on channel {}",
            p.tag,
            p.start_symbols,
            p.channel
        );
        let target = dbm_to_buffer_power(Dbm(p.rx_power_dbm));
        let mut samples = mixer.take_buffer();
        let layout = templates
            .assemble_scaled_extend(&p.symbols, target.sqrt(), &mut samples)
            .expect("symbols within the downlink alphabet");
        channel_end[p.channel] = start_sample + samples.len();
        truth.push(MultiChannelTruth {
            tag: p.tag,
            channel: p.channel,
            start_sample,
            payload_start_time: (start_sample + layout.payload_start) as f64 / fs_wide,
            symbols: p.symbols.clone(),
            rx_power_dbm: p.rx_power_dbm,
        });
        mixer.push(
            start_sample as u64,
            samples,
            p.cfo_hz,
            config.offsets_hz[p.channel],
            fs_wide,
        );
    }

    let tail = (config.tail_gap_symbols * sps_wide as f64).round() as usize;
    let total = channel_end.iter().copied().max().unwrap_or(0) + tail;
    let mut trace = SampleBuffer::zeros(total, fs_wide);
    mixer.mix_into(&mut trace.samples, 0);
    if let Some(noise_dbm) = config.noise_power_dbm {
        let mut awgn = AwgnSource::new(config.seed);
        awgn.add_to(&mut trace, dbm_to_buffer_power(Dbm(noise_dbm)));
    }
    (trace, truth)
}

/// Workload shape for [`hopping_traffic`].
#[derive(Debug, Clone, PartialEq)]
pub struct HoppingTrafficConfig {
    /// Number of tags (at most the channel count for collision-free rounds).
    pub n_tags: usize,
    /// Packets each tag sends (one per round).
    pub packets_per_tag: usize,
    /// Number of channels in the hopping grid.
    pub n_channels: usize,
    /// Payload length of every packet, in chirp symbols.
    pub payload_symbols: usize,
    /// Bits per chirp (sets the payload alphabet).
    pub k: BitsPerChirp,
    /// Round duration in symbol durations; must exceed the packet duration
    /// plus the per-tag start jitter.
    pub slot_symbols: f64,
    /// Quiet lead-in before the first round, in symbol durations. The
    /// streaming threshold tracker seeds its envelope-median estimate over
    /// the first symbol of the stream; a packet that starts immediately
    /// would seed the "noise floor" from its own preamble and be missed.
    pub lead_in_symbols: f64,
    /// Mean receive power of a packet.
    pub base_power_dbm: f64,
    /// Uniform spread (± dB) applied around the mean per packet.
    pub power_spread_db: f64,
    /// Maximum per-packet carrier frequency offset (drawn uniformly in
    /// `±max_cfo_hz`).
    pub max_cfo_hz: f64,
    /// Seed for payloads, powers, CFOs and jitter.
    pub seed: u64,
}

/// Builds a deterministic hopping workload: in round `j`, tag `t` transmits
/// on channel `(t + j) mod n_channels` — every tag visits every channel, and
/// each round carries up to `n_tags` concurrent packets on distinct
/// channels. Returns the packets in round-major order (so the `i`-th packet
/// of tag `t` carries that tag's `i`-th payload).
///
/// # Panics
///
/// Panics if `n_tags > n_channels` (two tags would collide on one channel).
pub fn hopping_traffic(config: &HoppingTrafficConfig) -> Vec<MultiChannelPacket> {
    assert!(
        config.n_tags <= config.n_channels,
        "{} tags cannot hop collision-free over {} channels",
        config.n_tags,
        config.n_channels
    );
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let payloads = random_payloads(
        config.n_tags * config.packets_per_tag,
        config.payload_symbols,
        config.k,
        config.seed ^ 0x9A1E,
    );
    let mut packets = Vec::with_capacity(config.n_tags * config.packets_per_tag);
    for round in 0..config.packets_per_tag {
        for tag in 0..config.n_tags {
            let channel = (tag + round) % config.n_channels;
            let jitter: f64 = rng.gen_range(0.0..2.0);
            let power = config.base_power_dbm
                + rng.gen_range(-config.power_spread_db..=config.power_spread_db);
            let cfo = if config.max_cfo_hz > 0.0 {
                rng.gen_range(-config.max_cfo_hz..=config.max_cfo_hz)
            } else {
                0.0
            };
            packets.push(MultiChannelPacket {
                tag: tag as u16,
                channel,
                start_symbols: config.lead_in_symbols + round as f64 * config.slot_symbols + jitter,
                symbols: payloads[tag * config.packets_per_tag + round].clone(),
                rx_power_dbm: power,
                cfo_hz: cfo,
            });
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::iq::Iq;
    use lora_phy::params::{Bandwidth, SpreadingFactor};

    fn lora() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz125,
            BitsPerChirp::new(2).expect("valid"),
        )
        .with_oversampling(2)
    }

    fn config() -> MultiChannelConfig {
        MultiChannelConfig::new(lora(), 8, MultiChannelConfig::grid_offsets(4))
    }

    #[test]
    fn grid_offsets_are_centred_on_the_span() {
        let offsets = MultiChannelConfig::grid_offsets(4);
        assert_eq!(offsets, vec![-750_000.0, -250_000.0, 250_000.0, 750_000.0]);
        assert_eq!(MultiChannelConfig::grid_offsets(1), vec![0.0]);
    }

    #[test]
    fn trace_layout_matches_ground_truth() {
        let cfg = config();
        let packets = vec![
            MultiChannelPacket {
                tag: 0,
                channel: 0,
                start_symbols: 2.0,
                symbols: vec![0, 1, 2, 3],
                rx_power_dbm: -50.0,
                cfo_hz: 0.0,
            },
            MultiChannelPacket {
                tag: 1,
                channel: 2,
                start_symbols: 3.0,
                symbols: vec![3, 2],
                rx_power_dbm: -52.0,
                cfo_hz: 500.0,
            },
        ];
        let (trace, truth) = generate_multichannel_trace(&cfg, &packets);
        assert_eq!(truth.len(), 2);
        let sps = cfg.wideband_lora().samples_per_symbol();
        assert_eq!(truth[0].start_sample, 2 * sps);
        assert_eq!(truth[1].start_sample, 3 * sps);
        // Preamble (10) + sync (2.25) symbols ahead of the payload.
        let lead = 12.25 * sps as f64 / trace.sample_rate;
        let start0 = truth[0].start_sample as f64 / trace.sample_rate;
        assert!((truth[0].payload_start_time - start0 - lead).abs() < 1e-9);
        // Tail gap appended after the longest channel timeline — the first
        // packet's: 10 preamble + 2.25 sync + 4 payload = 16.25 symbols.
        let first_end = truth[0].start_sample + (16.25 * sps as f64).round() as usize;
        assert_eq!(trace.len(), first_end + 4 * sps);
        assert_eq!(trace.sample_rate, cfg.wideband_rate());
    }

    #[test]
    fn same_channel_overlap_panics() {
        let cfg = config();
        let mk = |start: f64| MultiChannelPacket {
            tag: 0,
            channel: 1,
            start_symbols: start,
            symbols: vec![0, 1],
            rx_power_dbm: -50.0,
            cfo_hz: 0.0,
        };
        let packets = vec![mk(0.0), mk(5.0)]; // packet lasts 14.25 symbols
        let result = std::panic::catch_unwind(|| generate_multichannel_trace(&cfg, &packets));
        assert!(result.is_err());
    }

    /// The exact per-sample construction: per-channel timelines, each packet
    /// CFO-shifted buffer-locally, each timeline mixed to its offset by one
    /// fresh phasor per absolute sample, then summed.
    fn exact_reference(cfg: &MultiChannelConfig, packets: &[MultiChannelPacket]) -> Vec<Iq> {
        let templates = PacketTemplates::new(cfg.wideband_lora(), Alphabet::Downlink);
        let fs = cfg.wideband_rate();
        let sps = cfg.wideband_lora().samples_per_symbol();
        let mut timelines: Vec<Vec<Iq>> = vec![Vec::new(); cfg.offsets_hz.len()];
        for p in packets {
            let start = (p.start_symbols * sps as f64).round() as usize;
            let mut samples = Vec::new();
            templates
                .assemble_scaled_extend(
                    &p.symbols,
                    dbm_to_buffer_power(Dbm(p.rx_power_dbm)).sqrt(),
                    &mut samples,
                )
                .unwrap();
            let rx = SampleBuffer::new(samples, fs).frequency_shifted(p.cfo_hz);
            let timeline = &mut timelines[p.channel];
            timeline.resize(start, Iq::ZERO);
            timeline.extend_from_slice(&rx.samples);
        }
        let tail = (cfg.tail_gap_symbols * sps as f64).round() as usize;
        let total = timelines.iter().map(Vec::len).max().unwrap_or(0) + tail;
        let mut wide = vec![Iq::ZERO; total];
        for (timeline, &offset) in timelines.iter().zip(&cfg.offsets_hz) {
            let step = 2.0 * std::f64::consts::PI * offset / fs;
            for (n, &s) in timeline.iter().enumerate() {
                wide[n] += s * Iq::phasor(step * n as f64);
            }
        }
        wide
    }

    #[test]
    fn mixer_preset_matches_the_exact_per_sample_reference() {
        let cfg = config();
        let packets = hopping_traffic(&HoppingTrafficConfig {
            n_tags: 4,
            packets_per_tag: 3,
            n_channels: 4,
            payload_symbols: 8,
            k: BitsPerChirp::new(2).expect("valid"),
            slot_symbols: 24.0,
            lead_in_symbols: 4.0,
            base_power_dbm: -50.0,
            power_spread_db: 3.0,
            max_cfo_hz: 1_000.0,
            seed: 5,
        });
        assert!(packets.iter().any(|p| p.cfo_hz != 0.0));
        let (trace, _) = generate_multichannel_trace(&cfg, &packets);
        let reference = exact_reference(&cfg, &packets);
        assert_eq!(trace.len(), reference.len());
        let amplitude = packets
            .iter()
            .map(|p| dbm_to_buffer_power(Dbm(p.rx_power_dbm)).sqrt())
            .fold(0.0, f64::max);
        for (i, (got, want)) in trace.samples.iter().zip(&reference).enumerate() {
            let err = (*got - *want).abs() / amplitude;
            assert!(err < 1e-9, "sample {i}: {got:?} vs {want:?} ({err:e})");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = config().with_noise(-90.0);
        let packets = hopping_traffic(&HoppingTrafficConfig {
            n_tags: 3,
            packets_per_tag: 2,
            n_channels: 4,
            payload_symbols: 4,
            k: BitsPerChirp::new(2).expect("valid"),
            slot_symbols: 24.0,
            lead_in_symbols: 4.0,
            base_power_dbm: -50.0,
            power_spread_db: 2.0,
            max_cfo_hz: 1_000.0,
            seed: 11,
        });
        let (a, ta) = generate_multichannel_trace(&cfg, &packets);
        let (b, tb) = generate_multichannel_trace(&cfg, &packets);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn hopping_traffic_rotates_tags_over_channels() {
        let cfg = HoppingTrafficConfig {
            n_tags: 4,
            packets_per_tag: 4,
            n_channels: 4,
            payload_symbols: 4,
            k: BitsPerChirp::new(2).expect("valid"),
            slot_symbols: 24.0,
            lead_in_symbols: 4.0,
            base_power_dbm: -50.0,
            power_spread_db: 0.0,
            max_cfo_hz: 0.0,
            seed: 7,
        };
        let packets = hopping_traffic(&cfg);
        assert_eq!(packets.len(), 16);
        // Each round uses all four channels exactly once.
        for round in 0..4 {
            let mut channels: Vec<usize> = packets[round * 4..(round + 1) * 4]
                .iter()
                .map(|p| p.channel)
                .collect();
            channels.sort_unstable();
            assert_eq!(channels, vec![0, 1, 2, 3], "round {round}");
        }
        // Each tag visits all four channels across its four packets.
        for tag in 0..4u16 {
            let mut channels: Vec<usize> = packets
                .iter()
                .filter(|p| p.tag == tag)
                .map(|p| p.channel)
                .collect();
            channels.sort_unstable();
            assert_eq!(channels, vec![0, 1, 2, 3], "tag {tag}");
        }
        // Over-subscription is rejected.
        let mut bad = cfg;
        bad.n_tags = 5;
        assert!(std::panic::catch_unwind(|| hopping_traffic(&bad)).is_err());
    }
}
