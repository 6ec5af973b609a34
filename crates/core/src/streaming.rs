//! The Saiyan receiver: a continuously running analog chain (SAW → LNA →
//! envelope or cyclic-frequency-shifting detector, paper Fig. 12) feeding
//! the double-threshold comparator, the MCU's low-rate voltage sampler, and
//! peak-position (or, for Super Saiyan, correlation) decoding.
//!
//! Real Saiyan hardware never sees buffer boundaries, and neither does this
//! receiver: a [`StreamingDemodulator`] accepts arbitrary-size sample chunks
//! (down to one sample, including empty chunks), carries every piece of
//! analog and digital state across chunk boundaries, calibrates its
//! comparator thresholds causally, finds each packet's preamble itself, and
//! emits a [`DemodResult`] whenever a packet completes inside the stream. A
//! pre-cut capture is just a short stream:
//! [`StreamingDemodulator::run_to_end`] pushes it as one chunk and flushes.
//!
//! ## Chunk invariance
//!
//! The pipeline is built so its output is a function of the sample *stream*
//! only, never of where the chunks are cut:
//!
//! * every analog stage is causal and carries its state (FIR delay line, LNA
//!   noise RNG, clock phase, detector flicker integrator, filter memories);
//! * threshold calibration is a causal tracker updated per waveform sample;
//! * the MCU sampler latches at tick positions fixed on the global sample
//!   index;
//! * all detection/decode decisions advance strictly per low-rate sample.
//!
//! Consequently, demodulating a trace in chunks of 1 sample, 7 samples, or
//! the whole buffer at once produces bit-identical results — the equivalence
//! property `tests/streaming_equivalence.rs` checks.

use std::collections::VecDeque;

use analog::signal::RealBuffer;
use lora_phy::downlink::symbols_to_bytes;
use lora_phy::iq::{Iq, SampleBuffer};
use lora_phy::params::{BitsPerChirp, PREAMBLE_UPCHIRPS, SYNC_SYMBOLS};

use crate::config::SaiyanConfig;
use crate::correlator::Correlator;
use crate::decoder::{PeakDecoder, PreambleTiming};
use crate::frontend::{Frontend, StreamingFrontend};
use crate::sampler::SampledStream;

/// A pair of comparator thresholds (paper §4.1): the high threshold `U_H`
/// slightly below the envelope's peak amplitude `A_max`, and the low
/// threshold `U_L = U_H − U_F`, where `U_F` is the detector's output floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// The high threshold `U_H` (volts).
    pub high: f64,
    /// The low threshold `U_L` (volts).
    pub low: f64,
}

/// One decoded downlink packet.
///
/// The quickstart round trip (`examples/quickstart.rs`): the access point
/// sends a downlink MAC command, which arrives at the RSS of a 40 m outdoor
/// link over the receiver's thermal noise, and the tag's Super Saiyan
/// receiver finds the packet and decodes it:
///
/// ```
/// use lora_phy::downlink::bytes_to_symbols;
/// use lora_phy::iq::{Iq, SampleBuffer};
/// use lora_phy::modulator::Alphabet;
/// use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
/// use lora_phy::templates::PacketTemplates;
/// use rfsim::channel::dbm_to_buffer_power;
/// use rfsim::link::paper_downlink;
/// use rfsim::noise::{AwgnSource, NoiseModel};
/// use rfsim::pathloss::{Environment, PathLossModel};
/// use rfsim::units::{Db, Hertz, Meters};
/// use saiyan::{SaiyanConfig, StreamingDemodulator, Variant};
/// use saiyan_mac::{Addressing, Command, DownlinkPacket, TagId};
///
/// let lora = LoraParams::new(
///     SpreadingFactor::Sf7,
///     Bandwidth::Khz500,
///     BitsPerChirp::new(2).unwrap(),
/// )
/// .with_oversampling(8);
///
/// // The access point wants tag #7 to retransmit packet 42.
/// let command = DownlinkPacket {
///     addressing: Addressing::Unicast(TagId(7)),
///     command: Command::Retransmit { sequence: 42 },
/// };
/// let payload = command.to_bytes();
/// let symbols = bytes_to_symbols(&payload, lora.bits_per_chirp);
///
/// // Synthesize the packet at the link's RSS (its mean power) between
/// // 4-symbol silent guards, then add the receiver's thermal noise.
/// let path_loss = PathLossModel::for_environment(Environment::OutdoorLos, Hertz(lora.carrier_hz));
/// let rss = paper_downlink(path_loss, Meters(40.0)).received_power();
/// let guard = vec![Iq::ZERO; 4 * lora.samples_per_symbol()];
/// let mut samples = guard.clone();
/// PacketTemplates::new(lora, Alphabet::Downlink)
///     .assemble_scaled_extend(&symbols, dbm_to_buffer_power(rss).sqrt(), &mut samples)
///     .unwrap();
/// samples.extend_from_slice(&guard);
/// let mut rx = SampleBuffer::new(samples, lora.sample_rate());
/// let noise = NoiseModel::new(Db(6.0), Hertz(lora.bw.hz())).noise_power();
/// AwgnSource::new(1).add_to(&mut rx, dbm_to_buffer_power(noise));
///
/// // The tag finds the packet and decodes it with the full (Super Saiyan)
/// // receive chain.
/// let config = SaiyanConfig::paper_default(lora, Variant::Super);
/// let packets = StreamingDemodulator::new(config, symbols.len()).run_to_end(&rx);
/// assert_eq!(packets.len(), 1);
/// let decoded_bytes = packets[0].to_bytes(lora.bits_per_chirp, payload.len());
/// let decoded = DownlinkPacket::from_bytes(&decoded_bytes).unwrap();
/// assert_eq!(decoded, command);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemodResult {
    /// Decoded payload symbols.
    pub symbols: Vec<u32>,
    /// Per-symbol peak time within its window, where the comparator fired.
    pub peak_times: Vec<Option<f64>>,
    /// Per-symbol correlation scores (Super Saiyan only, else empty).
    pub correlation_scores: Vec<f64>,
    /// Time (seconds from the start of the stream) at which the payload
    /// began, as recovered from the preamble. It includes the SAW FIR's
    /// constant group delay.
    pub payload_start_time: f64,
    /// Number of regular preamble peaks that supported timing recovery.
    pub preamble_peaks: usize,
    /// The comparator thresholds in force when the packet was decoded.
    pub thresholds: Thresholds,
}

impl DemodResult {
    /// Unpacks the decoded symbols into payload bytes.
    pub fn to_bytes(&self, k: BitsPerChirp, payload_len: usize) -> Vec<u8> {
        symbols_to_bytes(&self.symbols, k, payload_len)
    }
}

/// Causal comparator-threshold calibration, the AGC the paper leaves to
/// future work (§4.1).
///
/// The peak amplitude `A_max` is tracked with an exponentially decaying peak
/// hold (the decay lets the thresholds re-adapt to the next packet's power).
/// The detector floor is tracked as a running *median* of the envelope
/// magnitude, via a sign-driven stochastic update whose step is tied to the
/// held peak. An order statistic is the one robust discriminator here: inside
/// a packet the SAW-transformed chirp spends almost all of each symbol far
/// below its peak (the median sits ~30 dB down), while in plain noise the
/// median sits within a few dB of the maxima. A mean-based floor cannot make
/// that call — the chirp ramp drags the mean up until the packet itself looks
/// like floor. While no signal stands out, `U_H` is parked strictly *above*
/// the running peak so the comparator stays silent: parked just below it,
/// the comparator would chatter on every new noise maximum and flood the
/// edge detector.
#[derive(Debug, Clone)]
struct ThresholdTracker {
    peak: f64,
    median: f64,
    /// Remaining samples of the seeding phase, during which the median is a
    /// fast EMA of `|v|` rather than a slow sign-stepper. Without it, a
    /// single unluckily small first sample under-seeds the median and the
    /// onset ratio fires on plain noise for the next several symbols. The
    /// receiver's comparator reads low throughout.
    seed_remaining: u64,
    /// Remaining samples of the onset dwell (see [`Self::fill_arrays`]).
    dwell_remaining: u64,
    dwell_samples: u64,
    peak_decay: f64,
    median_alpha: f64,
    seed_alpha: f64,
    gap_amp: f64,
    quiet_gap_amp: f64,
    /// Cap on the hysteresis span `U_H − U_L` as a fraction of the held peak
    /// (see [`crate::config::SaiyanConfig::comparator_hysteresis`]).
    hysteresis: f64,
    /// Peak/median multiple that declares a packet onset (see
    /// [`crate::config::SaiyanConfig::activity_ratio`]).
    activity_ratio: f64,
}

impl ThresholdTracker {
    /// Peak-hold time constant, in symbol durations. Long enough to bridge
    /// the one-symbol spacing of preamble peaks, short enough to re-adapt in
    /// the gap between packets of different receive power.
    const PEAK_TAU_SYMBOLS: f64 = 8.0;
    /// Median step size as a fraction of the held peak, per symbol of
    /// samples. Deliberately slow: after a packet lands, the rising chirp
    /// envelope drags the median up, and the onset ratio below must stay
    /// above threshold until the preamble's fifth peak has fired the live
    /// candidate search (which then holds the comparator active). One
    /// percent of the peak per symbol keeps that window ~10 symbols wide.
    const MEDIAN_STEP_PER_SYMBOL: f64 = 0.01;
    fn new(
        gap_db: f64,
        hysteresis: f64,
        activity_ratio: f64,
        sample_rate: f64,
        symbol_duration: f64,
    ) -> Self {
        let samples_per_symbol = sample_rate * symbol_duration;
        ThresholdTracker {
            peak: 0.0,
            median: 0.0,
            seed_remaining: samples_per_symbol.round() as u64,
            dwell_remaining: 0,
            dwell_samples: ((PREAMBLE_UPCHIRPS as f64 + SYNC_SYMBOLS + 2.0) * samples_per_symbol)
                .round() as u64,
            peak_decay: (-1.0 / (Self::PEAK_TAU_SYMBOLS * samples_per_symbol)).exp(),
            median_alpha: Self::MEDIAN_STEP_PER_SYMBOL / samples_per_symbol,
            seed_alpha: 0.01,
            gap_amp: 10f64.powf(gap_db / 20.0),
            quiet_gap_amp: 10f64.powf(1.0 / 20.0),
            hysteresis,
            activity_ratio,
        }
    }

    /// Advances the tracker over a chunk, recording the post-update peak,
    /// median and base activity (`onset || dwell`) per sample in `scratch`.
    ///
    /// A packet onset is declared once the held peak exceeds the configured
    /// multiple of the median envelope magnitude: at onset the ratio jumps
    /// well clear of it (the median still sits at the pre-packet floor); for
    /// noise it stays within a few dB. While the median is still being
    /// seeded it is not a valid noise reference, so no onset can be declared.
    /// A single onset crossing arms the comparator for a preamble's worth of
    /// symbols (the dwell): at narrow bandwidths the chirp's amplitude gap is
    /// small enough that the envelope median catches up with the peak within
    /// a couple of symbols, so the instantaneous ratio alone cannot stay up
    /// for the five peaks the live candidate search needs. A noise-triggered
    /// dwell is benign — the spike that armed it also set the peak hold, so
    /// `U_H` sits far above the noise it came from.
    ///
    /// None of these recurrences read the receiver's packet-hold signal; only
    /// the threshold mapping does, and that is left to
    /// [`Self::fill_thresholds`] so the caller can redo it cheaply when the
    /// signal flips at a sampler tick.
    fn fill_arrays(&mut self, env: &[f64], scratch: &mut BlockScratch) {
        let BlockScratch {
            peaks,
            medians,
            active,
            ..
        } = scratch;
        let n = env.len();
        peaks.clear();
        peaks.reserve(n);
        medians.clear();
        medians.reserve(n);
        active.clear();
        active.reserve(n);
        let mut i = 0;
        // Median seeding phase: the EMA branch, including the onset check
        // firing on the very sample the seed count reaches zero. The median
        // tracks |v|: the shifting chain's output is zero-mean between
        // packets, and its magnitude is the right noise scale.
        while i < n && self.seed_remaining > 0 {
            let v = env[i];
            self.peak = v.max(self.peak * self.peak_decay);
            let magnitude = v.abs();
            self.seed_remaining -= 1;
            self.median += self.seed_alpha * (magnitude - self.median);
            let onset = self.seed_remaining == 0 && self.peak > self.activity_ratio * self.median;
            if onset {
                self.dwell_remaining = self.dwell_samples;
            } else {
                self.dwell_remaining = self.dwell_remaining.saturating_sub(1);
            }
            peaks.push(self.peak);
            medians.push(self.median);
            active.push(onset || self.dwell_remaining > 0);
            i += 1;
        }
        // Steady state: the sign-driven median stepper. Both median outcomes
        // are computed and selected, which keeps the loop free of
        // unpredictable branches (the untaken arm has no side effects).
        let mut peak = self.peak;
        let mut median = self.median;
        let mut dwell = self.dwell_remaining;
        for &v in &env[i..] {
            peak = v.max(peak * self.peak_decay);
            let magnitude = v.abs();
            let step = peak * self.median_alpha;
            let up = median + step;
            let down = (median - step).max(0.0);
            median = if magnitude > median { up } else { down };
            let onset = peak > self.activity_ratio * median;
            dwell = if onset {
                self.dwell_samples
            } else {
                dwell.saturating_sub(1)
            };
            peaks.push(peak);
            medians.push(median);
            active.push(onset || dwell > 0);
        }
        self.peak = peak;
        self.median = median;
        self.dwell_remaining = dwell;
    }

    /// Maps the arrays [`Self::fill_arrays`] recorded to comparator
    /// thresholds, recomputing entries from index `from` on with the
    /// packet-hold signal fixed at `hold` (entries before `from` keep their
    /// values).
    ///
    /// `hold` is the receiver's packet-in-flight signal: while a preamble has
    /// been detected and the payload is still streaming in, the comparator
    /// is held in its active regime regardless of the onset ratio — the
    /// streaming analogue of an AGC freeze — because mid-packet the envelope
    /// median inevitably catches up with the peak and the onset test alone
    /// would go quiet.
    fn fill_thresholds(&self, scratch: &mut BlockScratch, hold: bool, from: usize) {
        let BlockScratch {
            peaks,
            medians,
            active,
            highs,
            lows,
            ..
        } = scratch;
        let n = peaks.len();
        highs.resize(n, 0.0);
        lows.resize(n, 0.0);
        for i in from..n {
            let peak = peaks[i];
            let high = if hold || active[i] {
                peak / self.gap_amp
            } else {
                peak * self.quiet_gap_amp
            };
            let floor_param = (peak - medians[i]).min(peak * self.hysteresis).max(0.0);
            highs[i] = high;
            lows[i] = (high - floor_param).max(high * 0.1);
        }
    }
}

/// Reusable per-sample arrays of [`StreamingDemodulator::track_and_sample`];
/// their capacity survives across chunks so steady-state demodulation
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    peaks: Vec<f64>,
    medians: Vec<f64>,
    active: Vec<bool>,
    highs: Vec<f64>,
    lows: Vec<f64>,
    words: Vec<u64>,
}

/// Receiver state: hunting for a preamble, or waiting for a detected packet's
/// payload to finish streaming in.
#[derive(Debug, Clone, Copy)]
enum RxState {
    Searching,
    Collecting {
        candidate: PreambleTiming,
        /// Stream time at which the payload (plus one symbol of slack) is
        /// fully buffered and the packet can be decoded.
        deadline: f64,
    },
}

/// A continuously-running Saiyan receiver fed by arbitrary-size sample chunks.
///
/// All times inside emitted [`DemodResult`]s are seconds from the start of the
/// *stream* (not of any individual chunk). The expected payload length is
/// fixed per stream, as in the paper's evaluation (the downlink has no length
/// field — the tag knows its frame format).
///
/// ```
/// use lora_phy::iq::Iq;
/// use lora_phy::modulator::Alphabet;
/// use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
/// use lora_phy::templates::PacketTemplates;
/// use rfsim::channel::dbm_to_buffer_power;
/// use rfsim::units::Dbm;
/// use saiyan::{SaiyanConfig, StreamingDemodulator, Variant};
///
/// let lora = LoraParams::new(
///     SpreadingFactor::Sf7,
///     Bandwidth::Khz500,
///     BitsPerChirp::new(2).unwrap(),
/// );
/// let config = SaiyanConfig::paper_default(lora, Variant::WithShifting);
/// let symbols = vec![3u32, 1, 0, 2];
/// // One -50 dBm packet between 3-symbol silent guards.
/// let guard = vec![Iq::ZERO; 3 * lora.samples_per_symbol()];
/// let mut trace = guard.clone();
/// PacketTemplates::new(lora, Alphabet::Downlink)
///     .assemble_scaled_extend(&symbols, dbm_to_buffer_power(Dbm(-50.0)).sqrt(), &mut trace)
///     .unwrap();
/// trace.extend_from_slice(&guard);
///
/// // Push the stream in arbitrary chunks; packets fall out as they complete.
/// let mut demod = StreamingDemodulator::new(config, symbols.len());
/// let mut packets = Vec::new();
/// for chunk in trace.chunks(777) {
///     packets.extend(demod.push_samples(chunk));
/// }
/// packets.extend(demod.finish()); // flush a packet cut at stream end
/// assert_eq!(packets.len(), 1);
/// assert_eq!(packets[0].symbols, symbols);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDemodulator {
    config: SaiyanConfig,
    payload_symbols: usize,
    sample_rate: f64,
    sampler_rate: f64,
    frontend: StreamingFrontend,
    tracker: ThresholdTracker,
    comparator_high: bool,
    current_thresholds: Thresholds,
    /// Global index of the next waveform sample to process.
    hi_index: u64,
    /// Global index of the next sampler tick to emit.
    next_tick: u64,
    /// Waveform-sample index at which that tick latches.
    next_tick_target: u64,
    /// Retained low-rate window (comparator bits and envelope values).
    bits: VecDeque<bool>,
    env: VecDeque<f64>,
    /// Global tick index of the window's first retained sample.
    window_start_tick: u64,
    prev_bit: bool,
    /// Envelope maximum over the current (or last) high run of ticks.
    run_peak: f64,
    /// Falling edges within the retained window: (stream seconds, envelope
    /// maximum over the high run the edge ends).
    edges: VecDeque<(f64, f64)>,
    /// Maximum ticks to retain while searching (one packet plus slack).
    keep_ticks: usize,
    decoder: PeakDecoder,
    correlator: Option<Correlator>,
    state: RxState,
    /// Reusable envelope buffer the front end writes each chunk into; its
    /// capacity survives across chunks so steady-state demodulation performs
    /// no per-chunk allocation.
    env_scratch: Vec<f64>,
    /// Reusable buffers of the tracking pass.
    scratch: BlockScratch,
    /// Reusable copies of the retained edges' times and run peaks, the
    /// slices [`PeakDecoder::preamble_anchor`] reads.
    edge_times: Vec<f64>,
    edge_peaks: Vec<f64>,
}

impl StreamingDemodulator {
    /// Builds a streaming demodulator expecting packets of `payload_symbols`
    /// payload chirps.
    pub fn new(config: SaiyanConfig, payload_symbols: usize) -> Self {
        assert!(payload_symbols > 0, "payload_symbols must be positive");
        let sample_rate = config.lora.sample_rate();
        let sampler_rate = config.sampler_rate();
        assert!(
            sample_rate > 2.0 * sampler_rate,
            "waveform rate {sample_rate} must exceed twice the sampler rate {sampler_rate}"
        );
        let t_sym = config.lora.symbol_duration();
        let keep_ticks = ((PREAMBLE_UPCHIRPS as f64 + SYNC_SYMBOLS + payload_symbols as f64 + 8.0)
            * t_sym
            * sampler_rate)
            .ceil() as usize;
        let frontend = Frontend::paper(&config).streaming_with_taps(sample_rate, config.saw_taps());
        let tracker = ThresholdTracker::new(
            config.threshold_gap_db,
            config.comparator_hysteresis,
            config.activity_ratio,
            sample_rate,
            t_sym,
        );
        let decoder = PeakDecoder::new(config.lora);
        let correlator = if config.variant.uses_correlation() {
            Some(Correlator::from_config(&config))
        } else {
            None
        };
        StreamingDemodulator {
            config,
            payload_symbols,
            sample_rate,
            sampler_rate,
            frontend,
            tracker,
            comparator_high: false,
            current_thresholds: Thresholds {
                high: f64::MAX,
                low: f64::MAX / 2.0,
            },
            hi_index: 0,
            next_tick: 0,
            next_tick_target: 0,
            bits: VecDeque::new(),
            env: VecDeque::new(),
            window_start_tick: 0,
            prev_bit: false,
            run_peak: 0.0,
            edges: VecDeque::new(),
            keep_ticks,
            decoder,
            correlator,
            state: RxState::Searching,
            env_scratch: Vec::new(),
            scratch: BlockScratch::default(),
            edge_times: Vec::new(),
            edge_peaks: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SaiyanConfig {
        &self.config
    }

    /// Returns the demodulator to its pristine just-constructed state so it
    /// can serve a new, unrelated stream: all carried analog state (FIR delay
    /// lines, noise RNGs, clock phase), the threshold tracker, and the
    /// retained detection window are discarded. After `reset` the instance
    /// decodes any stream bit-identically to a freshly built one — the
    /// property pooled serving relies on (`tests/receiver_reset.rs`).
    pub fn reset(&mut self) {
        *self = StreamingDemodulator::new(self.config.clone(), self.payload_symbols);
    }

    /// Point-in-time SNR estimate (dB) from the threshold tracker: the held
    /// envelope peak over the running envelope-floor median. Between packets
    /// this sits near 0 dB (noise peaks over noise floor decay together);
    /// while a packet is on the air it approaches the comparator's actual
    /// operating margin. Exposed as a telemetry gauge — it feeds decisions
    /// about *observability*, never the decode path itself.
    pub fn snr_estimate_db(&self) -> f64 {
        if self.tracker.median <= f64::MIN_POSITIVE || self.tracker.peak <= 0.0 {
            return 0.0;
        }
        20.0 * (self.tracker.peak / self.tracker.median).log10()
    }

    /// The expected payload length in chirp symbols.
    pub fn payload_symbols(&self) -> usize {
        self.payload_symbols
    }

    /// Total waveform samples consumed so far.
    pub fn samples_consumed(&self) -> u64 {
        self.hi_index
    }

    /// Pushes one chunk of the stream, returning any packets that completed
    /// within it. Empty chunks are a no-op.
    pub fn push_chunk(&mut self, chunk: &SampleBuffer) -> Vec<DemodResult> {
        if chunk.is_empty() {
            return Vec::new();
        }
        assert!(
            (chunk.sample_rate - self.sample_rate).abs() < 1e-6,
            "chunk sample rate {} does not match the stream rate {}",
            chunk.sample_rate,
            self.sample_rate
        );
        self.push_samples(&chunk.samples)
    }

    /// Pushes raw samples (assumed to be at the stream's sample rate).
    pub fn push_samples(&mut self, samples: &[Iq]) -> Vec<DemodResult> {
        // Temporarily take the scratch so the tracking pass can borrow
        // `self` mutably while reading the envelope.
        let mut envelope = std::mem::take(&mut self.env_scratch);
        self.frontend.process_chunk_into(samples, &mut envelope);
        let mut out = Vec::new();
        self.track_and_sample(&envelope, &mut out);
        self.env_scratch = envelope;
        out
    }

    /// Tracks thresholds, runs the comparator and latches the sampler over
    /// one chunk of envelope, as array passes: the comparator runs through
    /// the branch-reduced word kernel and the sampler only touches the
    /// ~1-in-40 samples where a tick latches.
    ///
    /// The key observation is that the tracker's recurrences (peak hold,
    /// median stepper, dwell counter) never depend on the receiver state —
    /// only the *threshold mapping* reads the packet-hold signal, and that
    /// signal can only flip at a sampler tick. So: (A) advance the tracker
    /// over the whole chunk into per-sample arrays, (B) map them to
    /// thresholds under the current hold, (C) scan the comparator into packed
    /// bit words, (D) walk the sparse ticks. A tick reads the comparator
    /// *after* its sample's threshold and comparison, so when it flips the
    /// receiver state (packet found / packet decoded) only later samples are
    /// affected, and passes B–C are redone from the next sample on. Flips
    /// happen at most a few times per packet, so the replay costs nothing
    /// measurable, and the output never depends on where chunks are cut.
    fn track_and_sample(&mut self, envelope: &[f64], out: &mut Vec<DemodResult>) {
        let n = envelope.len();
        if n == 0 {
            return;
        }
        // The comparator reads low while the tracker's median is still being
        // seeded (the first symbol of the stream): it is no noise reference
        // yet, and neither are the thresholds derived from it.
        let warmup = self.tracker.seed_remaining.min(n as u64) as usize;
        let mut scratch = std::mem::take(&mut self.scratch);
        self.tracker.fill_arrays(envelope, &mut scratch);
        let hold = matches!(self.state, RxState::Collecting { .. });
        self.tracker.fill_thresholds(&mut scratch, hold, 0);
        // Sample index corresponding to bit 0 of `scratch.words[0]`; samples
        // before it are warm-up (low) or already sampled.
        let mut words_base = warmup;
        self.comparator_high = analog::simd::hysteresis_words(
            &envelope[words_base..],
            &scratch.highs[words_base..],
            &scratch.lows[words_base..],
            self.comparator_high,
            &mut scratch.words,
        );
        let base = self.hi_index;
        let end = base + n as u64;
        while self.next_tick_target < end {
            let idx = (self.next_tick_target - base) as usize;
            let bit = idx >= words_base && {
                let j = idx - words_base;
                (scratch.words[j >> 6] >> (j & 63)) & 1 != 0
            };
            self.current_thresholds = Thresholds {
                high: scratch.highs[idx],
                low: scratch.lows[idx],
            };
            let held_before = matches!(self.state, RxState::Collecting { .. });
            self.append_tick(bit, envelope[idx], out);
            self.next_tick += 1;
            self.next_tick_target = self.tick_target(self.next_tick);
            let held_after = matches!(self.state, RxState::Collecting { .. });
            if held_before != held_after && idx + 1 < n {
                // The packet-hold signal flipped at this tick. Thresholds —
                // and through them comparator bits — change from the next
                // sample on; replay passes B–C for the remaining suffix,
                // restarting the comparator from this sample's (final) bit.
                self.tracker
                    .fill_thresholds(&mut scratch, held_after, idx + 1);
                words_base = (idx + 1).max(warmup);
                self.comparator_high = analog::simd::hysteresis_words(
                    &envelope[words_base..],
                    &scratch.highs[words_base..],
                    &scratch.lows[words_base..],
                    bit,
                    &mut scratch.words,
                );
            }
        }
        self.hi_index = end;
        self.current_thresholds = Thresholds {
            high: scratch.highs[n - 1],
            low: scratch.lows[n - 1],
        };
        self.scratch = scratch;
    }

    /// Flushes the stream: if a detected packet's payload is (essentially)
    /// fully buffered but its decode slack had not elapsed yet, decode it
    /// now. Up to half a symbol of trailing tail may be missing — the SAW
    /// FIR's group delay pushes the estimated payload end slightly past a
    /// hard-cut trace — while a packet genuinely cut off mid-payload is
    /// discarded (its symbols never arrived).
    pub fn finish(&mut self) -> Vec<DemodResult> {
        let mut out = Vec::new();
        if let RxState::Collecting { candidate, .. } = self.state {
            let t_sym = self.config.lora.symbol_duration();
            let payload_end = candidate.payload_start + self.payload_symbols as f64 * t_sym;
            let last_tick_time = if self.next_tick == 0 {
                f64::NEG_INFINITY
            } else {
                (self.next_tick - 1) as f64 / self.sampler_rate
            };
            if last_tick_time + 0.5 * t_sym >= payload_end {
                if let Some(result) = self.decode_packet() {
                    out.push(result);
                }
            } else {
                self.state = RxState::Searching;
            }
        }
        out
    }

    /// Streams an entire trace through this demodulator (one chunk) and
    /// flushes: the entry point for a pre-cut capture. With a fresh instance
    /// this is also the whole-buffer reference the chunked runs are compared
    /// against.
    pub fn run_to_end(mut self, trace: &SampleBuffer) -> Vec<DemodResult> {
        let mut out = self.push_chunk(trace);
        out.extend(self.finish());
        out
    }

    /// Waveform index at which sampler tick `k` latches (the same nearest-
    /// sample rule as [`crate::sampler::VoltageSampler::sample_envelope`]).
    fn tick_target(&self, k: u64) -> u64 {
        (k as f64 / self.sampler_rate * self.sample_rate).round() as u64
    }

    /// Appends one low-rate sample and advances the detection state machine.
    fn append_tick(&mut self, bit: bool, env: f64, out: &mut Vec<DemodResult>) {
        let tick = self.next_tick;
        let t = tick as f64 / self.sampler_rate;
        if self.prev_bit && !bit {
            // Falling edge: the previous tick was the tail of a high run.
            let edge_time = (tick - 1) as f64 / self.sampler_rate;
            self.edges.push_back((edge_time, self.run_peak));
            if matches!(self.state, RxState::Searching) {
                self.try_candidate();
            }
        }
        if bit {
            self.run_peak = if self.prev_bit {
                self.run_peak.max(env)
            } else {
                env
            };
        }
        self.prev_bit = bit;
        self.bits.push_back(bit);
        self.env.push_back(env);
        match self.state {
            RxState::Searching => self.prune_window(),
            RxState::Collecting { deadline, .. } => {
                if t >= deadline {
                    if let Some(result) = self.decode_packet() {
                        out.push(result);
                    }
                }
            }
        }
    }

    /// On a new falling edge while searching: look for a regular preamble
    /// train among the buffered edges and, if found, start collecting the
    /// packet it announces.
    fn try_candidate(&mut self) {
        if self.edges.len() < self.decoder.min_preamble_peaks() {
            return;
        }
        self.copy_edges(|_| true);
        let anchor = self
            .decoder
            .preamble_anchor(&self.edge_times, &self.edge_peaks);
        if let Some((anchor, count)) = anchor {
            if count >= self.decoder.min_preamble_peaks() {
                let timing = self.decoder.timing_from_first_peak(anchor, count);
                let t_sym = self.config.lora.symbol_duration();
                // Two symbols of slack: one for the decode itself, one for
                // the refinement in `decode_packet` shifting the payload
                // window later than this live estimate.
                let deadline = timing.payload_start + (self.payload_symbols as f64 + 2.0) * t_sym;
                self.state = RxState::Collecting {
                    candidate: timing,
                    deadline,
                };
            }
        }
    }

    /// Copies the retained edges whose time passes `keep` into the
    /// `edge_times`/`edge_peaks` scratch.
    fn copy_edges(&mut self, keep: impl Fn(f64) -> bool) {
        self.edge_times.clear();
        self.edge_peaks.clear();
        for &(e, peak) in self.edges.iter().filter(|&&(e, _)| keep(e)) {
            self.edge_times.push(e);
            self.edge_peaks.push(peak);
        }
    }

    /// While searching, cap the retained window to one packet's worth so a
    /// quiet stream does not grow memory without bound.
    fn prune_window(&mut self) {
        while self.bits.len() > self.keep_ticks {
            self.bits.pop_front();
            self.env.pop_front();
            self.window_start_tick += 1;
        }
        let start_time = self.window_start_tick as f64 / self.sampler_rate;
        while let Some(&(e, _)) = self.edges.front() {
            if e < start_time {
                self.edges.pop_front();
            } else {
                break;
            }
        }
    }

    /// The retained window as a [`SampledStream`] with stream-global times.
    fn window_stream(&self) -> SampledStream {
        SampledStream {
            bits: self.bits.iter().copied().collect(),
            sample_rate: self.sampler_rate,
            start_time: self.window_start_tick as f64 / self.sampler_rate,
        }
    }

    /// Decodes the packet being collected, emits its result, and consumes the
    /// window past its payload.
    fn decode_packet(&mut self) -> Option<DemodResult> {
        let candidate = match self.state {
            RxState::Collecting { candidate, .. } => candidate,
            RxState::Searching => return None,
        };
        let stream = self.window_stream();
        let t_sym = self.config.lora.symbol_duration();
        // Refine the candidate timing against the *preamble region* of the
        // retained edges: the live candidate fired after the minimum five
        // peaks, and the full train sharpens both the timing and the peak
        // count. The refinement must not re-search the whole window — a
        // payload with repeated symbols peaks at exact symbol spacing and
        // can form a regular train at least as long as the preamble's, which
        // would hijack the timing by several symbols.
        let refined = {
            let lo = candidate.preamble_start - 0.5 * t_sym;
            // The sync down-chirps start at full amplitude, so their falling
            // edges trail the last preamble peak; stop short of them.
            let hi = candidate.payload_start - 1.75 * t_sym;
            self.copy_edges(|e| e >= lo && e <= hi);
            self.decoder
                .preamble_anchor(&self.edge_times, &self.edge_peaks)
                .filter(|(_, count)| *count >= self.decoder.min_preamble_peaks())
                .map(|(anchor, count)| self.decoder.timing_from_first_peak(anchor, count))
        };
        let timing = refined.unwrap_or(candidate);
        let n_symbols = self.payload_symbols;
        let peak_decisions = self
            .decoder
            .decode_payload(&stream, timing.payload_start, n_symbols);
        let (symbols, correlation_scores) = if let Some(correlator) = &self.correlator {
            let env_buf = RealBuffer::new(self.env.iter().copied().collect(), self.sampler_rate);
            let relative_start = timing.payload_start - stream.start_time;
            let decisions = correlator.decode_payload(&env_buf, relative_start, t_sym, n_symbols);
            (
                decisions.iter().map(|(s, _)| *s).collect::<Vec<u32>>(),
                decisions.iter().map(|(_, c)| *c).collect::<Vec<f64>>(),
            )
        } else {
            (
                peak_decisions.iter().map(|d| d.symbol).collect(),
                Vec::new(),
            )
        };
        let result = DemodResult {
            symbols,
            peak_times: peak_decisions.iter().map(|d| d.peak_time).collect(),
            correlation_scores,
            payload_start_time: timing.payload_start,
            preamble_peaks: timing.supporting_peaks,
            thresholds: self.current_thresholds,
        };
        let payload_end = timing.payload_start + n_symbols as f64 * t_sym;
        self.consume_until(payload_end);
        self.state = RxState::Searching;
        Some(result)
    }

    /// Drops retained window content (and edges) before stream time `t`.
    fn consume_until(&mut self, t: f64) {
        while !self.bits.is_empty() {
            let front_time = self.window_start_tick as f64 / self.sampler_rate;
            if front_time < t {
                self.bits.pop_front();
                self.env.pop_front();
                self.window_start_tick += 1;
            } else {
                break;
            }
        }
        while let Some(&(e, _)) = self.edges.front() {
            if e < t {
                self.edges.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use lora_phy::modulator::Alphabet;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
    use lora_phy::templates::PacketTemplates;
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;
    use rfsim::units::Dbm;

    fn config(variant: Variant) -> SaiyanConfig {
        let lora = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        SaiyanConfig::paper_default(lora, variant)
    }

    fn lora_8x() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
        .with_oversampling(8)
    }

    /// One packet at `rx_power_dbm` after `lead` silent samples, and the
    /// sample index where its payload starts.
    fn assemble(
        lora: LoraParams,
        symbols: &[u32],
        rx_power_dbm: f64,
        lead: usize,
    ) -> (Vec<Iq>, usize) {
        let mut samples = vec![Iq::ZERO; lead];
        let layout = PacketTemplates::new(lora, Alphabet::Downlink)
            .assemble_scaled_extend(
                symbols,
                dbm_to_buffer_power(Dbm(rx_power_dbm)).sqrt(),
                &mut samples,
            )
            .unwrap();
        (samples, lead + layout.payload_start)
    }

    /// A trace holding one packet at `rx_power_dbm`, padded with
    /// `guard_symbols` of silence on both sides.
    fn packet_trace(
        cfg: &SaiyanConfig,
        symbols: &[u32],
        rx_power_dbm: f64,
        guard_symbols: usize,
        noise_power_dbm: Option<f64>,
    ) -> SampleBuffer {
        let guard = guard_symbols * cfg.lora.samples_per_symbol();
        let (mut samples, _) = assemble(cfg.lora, symbols, rx_power_dbm, guard);
        samples.resize(samples.len() + guard, Iq::ZERO);
        let mut rx = SampleBuffer::new(samples, cfg.lora.sample_rate());
        if let Some(np) = noise_power_dbm {
            let mut awgn = AwgnSource::new(0x57EA);
            awgn.add_to(&mut rx, dbm_to_buffer_power(Dbm(np)));
        }
        rx
    }

    #[test]
    fn single_packet_is_decoded_from_a_stream() {
        let symbols = vec![3u32, 1, 0, 2, 1, 1, 3, 0];
        for variant in Variant::ALL {
            let cfg = config(variant);
            let trace = packet_trace(&cfg, &symbols, -50.0, 3, None);
            let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&trace);
            assert_eq!(results.len(), 1, "variant {variant:?}");
            assert_eq!(results[0].symbols, symbols, "variant {variant:?}");
            assert!(results[0].preamble_peaks >= 5);
        }
    }

    #[test]
    fn chunked_and_whole_buffer_runs_are_identical() {
        let symbols = vec![2u32, 0, 3, 1, 2, 2];
        let cfg = config(Variant::WithShifting);
        let trace = packet_trace(&cfg, &symbols, -52.0, 3, Some(-80.0));
        let whole = StreamingDemodulator::new(cfg.clone(), symbols.len()).run_to_end(&trace);
        assert_eq!(whole.len(), 1);
        for chunk_size in [1usize, 7, 1024] {
            let mut demod = StreamingDemodulator::new(cfg.clone(), symbols.len());
            let mut results = Vec::new();
            for chunk in trace.samples.chunks(chunk_size) {
                results.extend(demod.push_samples(chunk));
            }
            results.extend(demod.finish());
            assert_eq!(results, whole, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn empty_chunks_are_harmless() {
        let symbols = vec![1u32, 2, 3, 0];
        let cfg = config(Variant::Vanilla);
        let trace = packet_trace(&cfg, &symbols, -50.0, 3, None);
        let mut demod = StreamingDemodulator::new(cfg.clone(), symbols.len());
        let mut results = Vec::new();
        for chunk in trace.samples.chunks(777) {
            results.extend(demod.push_samples(&[]));
            results.extend(demod.push_chunk(&SampleBuffer::new(Vec::new(), trace.sample_rate)));
            results.extend(demod.push_samples(chunk));
        }
        results.extend(demod.finish());
        let whole = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&trace);
        assert_eq!(results, whole);
    }

    #[test]
    fn noise_only_stream_emits_nothing_and_bounds_memory() {
        let cfg = config(Variant::Vanilla);
        let mut demod = StreamingDemodulator::new(cfg.clone(), 8);
        let mut awgn = AwgnSource::new(99);
        let mut results = Vec::new();
        for _ in 0..6 {
            let noise = awgn.noise_buffer(
                20_000,
                cfg.lora.sample_rate(),
                dbm_to_buffer_power(Dbm(-70.0)),
            );
            results.extend(demod.push_chunk(&noise));
        }
        results.extend(demod.finish());
        assert!(results.is_empty());
        assert!(demod.bits.len() <= demod.keep_ticks + 1);
    }

    #[test]
    fn truncated_payload_does_not_panic_and_is_dropped() {
        let symbols = vec![0u32, 1, 2, 3, 0, 1, 2, 3];
        let cfg = config(Variant::Vanilla);
        let trace = packet_trace(&cfg, &symbols, -50.0, 2, None);
        // Cut the trace three symbols before the payload ends.
        let cut = trace.len() - 5 * cfg.lora.samples_per_symbol();
        let truncated = SampleBuffer::new(trace.samples[..cut].to_vec(), trace.sample_rate);
        let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&truncated);
        assert!(results.is_empty());
    }

    #[test]
    fn trace_ending_at_payload_end_still_decodes_via_finish() {
        let symbols = vec![3u32, 2, 1, 0, 3, 2];
        let cfg = config(Variant::Vanilla);
        // A leading guard but nothing after the payload's final sample.
        let (samples, _) = assemble(cfg.lora, &symbols, -50.0, 2 * cfg.lora.samples_per_symbol());
        let cut = SampleBuffer::new(samples, cfg.lora.sample_rate());
        let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&cut);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].symbols, symbols);
    }

    #[test]
    fn round_trip_survives_moderate_noise() {
        let symbols = vec![2u32, 0, 3, 1, 2, 2, 0, 3];
        let cfg = SaiyanConfig::paper_default(lora_8x(), Variant::Super);
        // Signal -55 dBm, noise -75 dBm: 20 dB SNR.
        let trace = packet_trace(&cfg, &symbols, -55.0, 2, Some(-75.0));
        let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&trace);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].symbols, symbols);
    }

    #[test]
    fn strong_packets_are_timed_from_the_first_preamble_peak() {
        // At 8x oversampling a strong packet's abrupt onset leaves a small
        // envelope transient in the shifting chain, ~0.94 symbol before the
        // first preamble peak. It must not join the preamble train: a
        // one-symbol-early anchor shifts every payload symbol. Vanilla, which
        // has no such transient, runs the same sweep as a control.
        let lora = lora_8x();
        let symbols: Vec<u32> = (0..12).map(|i| (i * 7 + 3) % 4).collect();
        let guard = 2 * lora.samples_per_symbol();
        let t_sym = lora.symbol_duration();
        for variant in Variant::ALL {
            for noise in [None, Some(-111.0)] {
                for rss in [-40.0, -45.0, -50.0, -53.0, -56.0] {
                    let (mut samples, payload_start) = assemble(lora, &symbols, rss, guard);
                    samples.resize(samples.len() + guard, Iq::ZERO);
                    let mut rx = SampleBuffer::new(samples, lora.sample_rate());
                    if let Some(np) = noise {
                        AwgnSource::new(0x51).add_to(&mut rx, dbm_to_buffer_power(Dbm(np)));
                    }
                    let truth = payload_start as f64 / lora.sample_rate();
                    let cfg = SaiyanConfig::paper_default(lora, variant);
                    let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&rx);
                    let case = format!("{variant:?} at {rss} dBm, noise {noise:?}");
                    assert_eq!(results.len(), 1, "{case}");
                    let offset = (results[0].payload_start_time - truth) / t_sym;
                    assert!(
                        offset.abs() <= 0.25,
                        "{case}: timing off by {offset:.3} symbol"
                    );
                    assert_eq!(results[0].symbols, symbols, "{case}");
                }
            }
        }
    }
}
