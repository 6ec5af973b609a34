//! Chunked streaming demodulation.
//!
//! The batch [`crate::demodulator::SaiyanDemodulator`] assumes a complete,
//! pre-cut capture: it calibrates thresholds over the whole buffer, detects a
//! single preamble, and decodes one packet. Real Saiyan hardware is a
//! continuously-running analog chain — the tag never sees buffer boundaries.
//! This module models that: a [`StreamingDemodulator`] accepts arbitrary-size
//! sample chunks (down to one sample, including empty chunks), carries every
//! piece of analog and digital state across chunk boundaries, and emits a
//! [`DemodResult`] whenever a packet completes inside the stream.
//!
//! ## Chunk invariance
//!
//! The pipeline is built so its output is a function of the sample *stream*
//! only, never of where the chunks are cut:
//!
//! * every analog stage is causal and carries its state (FIR delay line, LNA
//!   noise RNG, clock phase, detector flicker integrator, filter memories);
//! * threshold calibration is a causal tracker updated per waveform sample
//!   (the streaming equivalent of [`crate::calibration::auto_calibrate`]);
//! * the MCU sampler latches at tick positions fixed on the global sample
//!   index;
//! * all detection/decode decisions advance strictly per low-rate sample.
//!
//! Consequently, demodulating a trace in chunks of 1 sample, 7 samples, or
//! the whole buffer at once produces bit-identical results — the equivalence
//! property `tests/streaming_equivalence.rs` checks.

use std::collections::VecDeque;

use analog::signal::RealBuffer;
use lora_phy::iq::{Iq, SampleBuffer};
use lora_phy::params::{PREAMBLE_UPCHIRPS, SYNC_SYMBOLS};

use crate::calibration::Thresholds;
use crate::config::SaiyanConfig;
use crate::correlator::Correlator;
use crate::decoder::{PeakDecoder, PreambleTiming};
use crate::demodulator::DemodResult;
use crate::frontend::{Frontend, StreamingFrontend};
use crate::sampler::SampledStream;

/// Causal comparator-threshold calibration: the streaming stand-in for
/// [`crate::calibration::auto_calibrate`], which needs the whole buffer.
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
/// the running peak so the comparator stays silent: the batch calibration
/// parks it just below the global maximum instead, which is safe there
/// because the maximum includes the packet, but on a live stream it would
/// chatter on every new noise maximum and flood the edge detector.
#[derive(Debug, Clone)]
struct ThresholdTracker {
    peak: f64,
    median: f64,
    /// Remaining samples of the seeding phase, during which the median is a
    /// fast EMA of `|v|` rather than a slow sign-stepper. Without it, a
    /// single unluckily small first sample under-seeds the median and the
    /// onset ratio fires on plain noise for the next several symbols.
    seed_remaining: u64,
    /// Remaining samples of the onset dwell (see [`Self::update`]).
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

    /// Updates the tracker with one envelope sample. `hold_active` is the
    /// receiver's packet-in-flight signal: while a preamble has been detected
    /// and the payload is still streaming in, the comparator is held in its
    /// active regime regardless of the onset ratio — the streaming analogue
    /// of an AGC freeze — because mid-packet the envelope median inevitably
    /// catches up with the peak and the onset test alone would go quiet.
    fn update(&mut self, v: f64, hold_active: bool) -> Thresholds {
        self.peak = v.max(self.peak * self.peak_decay);
        // Sign-driven median tracker over |v| (the shifting chain's output is
        // zero-mean between packets; its magnitude is the right noise scale).
        let magnitude = v.abs();
        if self.seed_remaining > 0 {
            self.seed_remaining -= 1;
            self.median += self.seed_alpha * (magnitude - self.median);
        } else {
            let step = self.peak * self.median_alpha;
            if magnitude > self.median {
                self.median += step;
            } else {
                self.median = (self.median - step).max(0.0);
            }
        }
        // A single onset crossing arms the comparator for a preamble's worth
        // of symbols (the dwell): at narrow bandwidths the chirp's amplitude
        // gap is small enough that the envelope median catches up with the
        // peak within a couple of symbols, so the instantaneous ratio alone
        // cannot stay up for the five peaks the live candidate search needs.
        // A noise-triggered dwell is benign — the spike that armed it also
        // set the peak hold, so `U_H` sits far above the noise it came from.
        // While the median is still being seeded it is not a valid noise
        // reference, so no onset can be declared.
        // A packet onset is declared once the held peak exceeds the
        // configured multiple of the median envelope magnitude. At onset the
        // ratio jumps well clear of it (the median still sits at the
        // pre-packet floor); for noise it stays within a few dB.
        let onset = self.seed_remaining == 0 && self.peak > self.activity_ratio * self.median;
        if onset {
            self.dwell_remaining = self.dwell_samples;
        } else {
            self.dwell_remaining = self.dwell_remaining.saturating_sub(1);
        }
        let active = hold_active || onset || self.dwell_remaining > 0;
        let high = if active {
            self.peak / self.gap_amp
        } else {
            // Parked strictly above the running peak: silent by construction.
            self.peak * self.quiet_gap_amp
        };
        let floor_param = (self.peak - self.median)
            .min(self.peak * self.hysteresis)
            .max(0.0);
        let low = (high - floor_param).max(high * 0.1);
        Thresholds { high, low }
    }

    /// Block form of the recurrence half of [`Self::update`]: advances the
    /// tracker over a whole chunk, recording the post-update peak, median,
    /// and base activity (`onset || dwell`) per sample. None of these depend
    /// on the receiver's `hold_active` input — only the threshold mapping
    /// does, and that is deferred to [`Self::fill_thresholds`] so the caller
    /// can redo it cheaply when the packet-hold signal flips at a sampler
    /// tick. Every expression matches `update` operation for operation, so
    /// the arrays are bit-identical to per-sample calls.
    fn fill_arrays(
        &mut self,
        env: &[f64],
        peaks: &mut Vec<f64>,
        medians: &mut Vec<f64>,
        active: &mut Vec<bool>,
    ) {
        let n = env.len();
        peaks.clear();
        peaks.reserve(n);
        medians.clear();
        medians.reserve(n);
        active.clear();
        active.reserve(n);
        let mut i = 0;
        // Median seeding phase: the EMA branch, including the onset check
        // firing on the very sample the seed count reaches zero.
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
        // Steady state: branch-reduced recurrences. Both median outcomes are
        // computed and selected, which keeps the loop free of unpredictable
        // branches while reproducing the original expressions bit for bit
        // (the untaken arm has no side effects).
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

    /// Threshold half of [`Self::update`] over arrays filled by
    /// [`Self::fill_arrays`], recomputing entries from index `from` on with
    /// the packet-hold signal fixed at `hold` (entries before `from` keep
    /// their values). Expressions match `update` exactly.
    #[allow(clippy::too_many_arguments)]
    fn fill_thresholds(
        &self,
        peaks: &[f64],
        medians: &[f64],
        active: &[bool],
        hold: bool,
        from: usize,
        highs: &mut Vec<f64>,
        lows: &mut Vec<f64>,
    ) {
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

/// Reusable buffers of the block tracking path
/// ([`StreamingDemodulator::track_and_sample_block`]); their capacity
/// survives across chunks so steady-state demodulation allocates nothing.
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
/// use lora_phy::modulator::{Alphabet, Modulator};
/// use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
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
/// let (trace, _) = Modulator::new(lora)
///     .packet_with_guard(&symbols, Alphabet::Downlink, 3)
///     .unwrap();
/// let trace = trace.scaled(dbm_to_buffer_power(Dbm(-50.0)).sqrt());
///
/// // Push the stream in arbitrary chunks; packets fall out as they complete.
/// let mut demod = StreamingDemodulator::new(config, symbols.len());
/// let mut packets = Vec::new();
/// for chunk in trace.samples.chunks(777) {
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
    warmup_remaining: u64,
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
    /// Falling-edge times (stream seconds) within the retained window.
    edges: VecDeque<f64>,
    /// Maximum ticks to retain while searching (one packet plus slack).
    keep_ticks: usize,
    decoder: PeakDecoder,
    correlator: Option<Correlator>,
    state: RxState,
    /// Reusable envelope buffer the front end writes each chunk into; its
    /// capacity survives across chunks so steady-state demodulation performs
    /// no per-chunk allocation.
    env_scratch: Vec<f64>,
    /// Reusable buffers of the block tracking path.
    scratch: BlockScratch,
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
        let saw_taps = config
            .streaming_saw_taps
            .unwrap_or(Frontend::STREAMING_SAW_TAPS);
        let frontend = Frontend::paper(&config).streaming_with_taps(sample_rate, saw_taps);
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
        let warmup = config.lora.samples_per_symbol() as u64;
        StreamingDemodulator {
            config,
            payload_symbols,
            sample_rate,
            sampler_rate,
            frontend,
            tracker,
            comparator_high: false,
            warmup_remaining: warmup,
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
            edges: VecDeque::new(),
            keep_ticks,
            decoder,
            correlator,
            state: RxState::Searching,
            env_scratch: Vec::new(),
            scratch: BlockScratch::default(),
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
        // Temporarily take the scratch so the tracking loops below can
        // borrow `self` mutably while reading the envelope.
        let mut envelope = std::mem::take(&mut self.env_scratch);
        self.frontend.process_chunk_into(samples, &mut envelope);
        let mut out = Vec::new();
        if analog::simd::active_backend() == analog::simd::Backend::Scalar {
            self.track_and_sample(&envelope, &mut out);
        } else {
            self.track_and_sample_block(&envelope, &mut out);
        }
        self.env_scratch = envelope;
        out
    }

    /// Per-sample tracking, comparison, and sampling — the scalar reference
    /// the block path below must match bit for bit.
    fn track_and_sample(&mut self, envelope: &[f64], out: &mut Vec<DemodResult>) {
        for &v in envelope {
            let hold_active = matches!(self.state, RxState::Collecting { .. });
            let thresholds = self.tracker.update(v, hold_active);
            self.current_thresholds = thresholds;
            let bit = if self.warmup_remaining > 0 {
                self.warmup_remaining -= 1;
                false
            } else if self.comparator_high {
                v >= thresholds.low
            } else {
                v >= thresholds.high
            };
            self.comparator_high = bit;
            while self.next_tick_target == self.hi_index {
                self.append_tick(bit, v, out);
                self.next_tick += 1;
                self.next_tick_target = self.tick_target(self.next_tick);
            }
            self.hi_index += 1;
        }
    }

    /// Block tracking path: splits the per-sample loop into array passes so
    /// the comparator can run through the branch-reduced word kernel and the
    /// sampler only touches the ~1-in-40 samples where a tick latches.
    ///
    /// The key observation is that the tracker's recurrences (peak hold,
    /// median stepper, dwell counter) never depend on the receiver state —
    /// only the *threshold mapping* reads the packet-hold signal, and that
    /// signal can only flip at a sampler tick. So: (A) advance the tracker
    /// over the whole chunk into per-sample arrays, (B) map them to
    /// thresholds under the current hold, (C) scan the comparator into packed
    /// bit words, (D) walk the sparse ticks. When a tick flips the receiver
    /// state (packet found / packet decoded), passes B–C are redone from the
    /// next sample — flips happen at most a few times per packet, so the cost
    /// is negligible. The original per-sample loop processes a tick *after*
    /// updating tracker and comparator for that sample, so a flip only ever
    /// affects later samples and the replay is exact: every output is
    /// bit-identical to [`Self::track_and_sample`].
    fn track_and_sample_block(&mut self, envelope: &[f64], out: &mut Vec<DemodResult>) {
        // The comparator warm-up (during which bits are forced low) is a
        // one-time startup region of a symbol — run it, and the tracker
        // seeding that spans the same samples, through the per-sample loop.
        let warmup = self.warmup_remaining.min(envelope.len() as u64) as usize;
        if warmup > 0 {
            self.track_and_sample(&envelope[..warmup], out);
        }
        let env = &envelope[warmup..];
        let n = env.len();
        if n == 0 {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        self.tracker.fill_arrays(
            env,
            &mut scratch.peaks,
            &mut scratch.medians,
            &mut scratch.active,
        );
        let hold = matches!(self.state, RxState::Collecting { .. });
        self.tracker.fill_thresholds(
            &scratch.peaks,
            &scratch.medians,
            &scratch.active,
            hold,
            0,
            &mut scratch.highs,
            &mut scratch.lows,
        );
        self.comparator_high = analog::simd::hysteresis_words(
            env,
            &scratch.highs,
            &scratch.lows,
            self.comparator_high,
            &mut scratch.words,
        );
        // Sample index corresponding to bit 0 of `scratch.words[0]`; advanced
        // when a state flip forces a partial rescan.
        let mut words_base = 0usize;
        let bit_at = |words: &[u64], words_base: usize, i: usize| {
            let j = i - words_base;
            (words[j >> 6] >> (j & 63)) & 1 != 0
        };
        let base = self.hi_index;
        let end = base + n as u64;
        while self.next_tick_target < end {
            let idx = (self.next_tick_target - base) as usize;
            let bit = bit_at(&scratch.words, words_base, idx);
            self.current_thresholds = Thresholds {
                high: scratch.highs[idx],
                low: scratch.lows[idx],
            };
            let held_before = matches!(self.state, RxState::Collecting { .. });
            self.append_tick(bit, env[idx], out);
            self.next_tick += 1;
            self.next_tick_target = self.tick_target(self.next_tick);
            let held_after = matches!(self.state, RxState::Collecting { .. });
            if held_before != held_after && idx + 1 < n {
                // The packet-hold signal flipped at this tick. Thresholds —
                // and through them comparator bits — change from the next
                // sample on; replay passes B–C for the remaining suffix,
                // restarting the comparator from this sample's (final) bit.
                self.tracker.fill_thresholds(
                    &scratch.peaks,
                    &scratch.medians,
                    &scratch.active,
                    held_after,
                    idx + 1,
                    &mut scratch.highs,
                    &mut scratch.lows,
                );
                words_base = idx + 1;
                self.comparator_high = analog::simd::hysteresis_words(
                    &env[words_base..],
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

    /// Convenience: streams an entire trace through this demodulator (one
    /// chunk) and flushes. With a fresh instance this is the whole-buffer
    /// reference the chunked runs are compared against.
    pub fn run_to_end(mut self, trace: &SampleBuffer) -> Vec<DemodResult> {
        let mut out = self.push_chunk(trace);
        out.extend(self.finish());
        out
    }

    /// Waveform index at which sampler tick `k` latches (the same nearest-
    /// sample rule as the batch [`crate::sampler::VoltageSampler`]).
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
            self.edges.push_back(edge_time);
            if matches!(self.state, RxState::Searching) {
                self.try_candidate();
            }
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
        let edges: Vec<f64> = self.edges.iter().copied().collect();
        if let Some((anchor, count)) = self.decoder.preamble_anchor(&edges) {
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

    /// While searching, cap the retained window to one packet's worth so a
    /// quiet stream does not grow memory without bound.
    fn prune_window(&mut self) {
        while self.bits.len() > self.keep_ticks {
            self.bits.pop_front();
            self.env.pop_front();
            self.window_start_tick += 1;
        }
        let start_time = self.window_start_tick as f64 / self.sampler_rate;
        while let Some(&e) = self.edges.front() {
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
            let preamble_edges: Vec<f64> = self
                .edges
                .iter()
                .copied()
                .filter(|&e| e >= lo && e <= hi)
                .collect();
            self.decoder
                .preamble_anchor(&preamble_edges)
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
        while let Some(&e) = self.edges.front() {
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
    use lora_phy::modulator::{Alphabet, Modulator};
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};
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

    /// A trace holding one packet at `rx_power_dbm`, padded with
    /// `guard_symbols` of silence on both sides.
    fn packet_trace(
        cfg: &SaiyanConfig,
        symbols: &[u32],
        rx_power_dbm: f64,
        guard_symbols: usize,
        noise_power_dbm: Option<f64>,
    ) -> SampleBuffer {
        let m = Modulator::new(cfg.lora);
        let (wave, _) = m
            .packet_with_guard(symbols, Alphabet::Downlink, guard_symbols)
            .unwrap();
        let target = dbm_to_buffer_power(Dbm(rx_power_dbm));
        let mut rx = wave.scaled(target.sqrt());
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
        let m = Modulator::new(cfg.lora);
        let (wave, layout) = m
            .packet_with_guard(&symbols, Alphabet::Downlink, 2)
            .unwrap();
        // Keep the leading guard but drop everything after the payload's
        // final sample (the trailing guard).
        let payload_end = layout.payload_start + symbols.len() * cfg.lora.samples_per_symbol();
        let target = dbm_to_buffer_power(Dbm(-50.0));
        let cut = SampleBuffer::new(wave.samples[..payload_end].to_vec(), wave.sample_rate)
            .scaled(target.sqrt());
        let results = StreamingDemodulator::new(cfg, symbols.len()).run_to_end(&cut);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].symbols, symbols);
    }
}
