//! [`Receiver`] adapter for the detection-only baselines.
//!
//! PLoRa, Aloba and the conventional envelope detector cannot decode Saiyan
//! downlink payloads — they only decide whether a LoRa packet is present in
//! a capture ([`PacketDetector`]), and they expect that capture to contain
//! both noise context (for their baseline estimate) and the whole preamble
//! (for their plateau/correlation statistic). [`DetectionReceiver`] adapts
//! any such detector to the workspace-wide [`Receiver`] contract by
//! *segmenting* the stream first: a cheap per-symbol energy gate tracks the
//! noise floor and cuts candidate bursts out of the stream, each burst is
//! handed to the detector padded with the preceding noise window, and every
//! burst the detector confirms is reported as one packet with **empty**
//! `symbols` — a "something was on the air here" marker, not a decode.
//!
//! Gating windows sit on absolute sample indices, so the emitted packet
//! sequence is invariant under chunking, as the trait requires.

use lora_phy::iq::{Iq, SampleBuffer};
use lora_phy::params::LoraParams;
use saiyan::gateway::GatewayPacket;
use saiyan::receiver::Receiver;
use saiyan::streaming::{DemodResult, Thresholds};

use crate::detector::PacketDetector;

/// Adapts a [`PacketDetector`] to the [`Receiver`] backend interface.
#[derive(Debug, Clone)]
pub struct DetectionReceiver<D: PacketDetector> {
    detector: D,
    params: LoraParams,
    /// Energy-gate window length (samples): one chirp symbol.
    window: usize,
    /// A window is "active" when its mean power exceeds the tracked noise
    /// floor by this factor.
    gate_factor: f64,
    /// Bursts are force-evaluated after this many windows, bounding memory
    /// on pathological always-on inputs.
    max_burst_windows: usize,
    /// Buffered samples not yet forming a complete window.
    buf: Vec<Iq>,
    /// Absolute stream index of `buf[0]`.
    buf_start: u64,
    /// Smallest inactive-window mean power seen so far.
    noise_floor: Option<f64>,
    /// Rolling buffer of the most recent inactive windows, prepended to
    /// each burst so the detectors' noise-quartile baselines see enough
    /// noise-only samples (bounded by `noise_context_windows`).
    noise_context: Vec<Iq>,
    /// Maximum noise-context length, in windows.
    noise_context_windows: usize,
    /// Samples of the burst being accumulated (noise window prepended).
    burst: Vec<Iq>,
    /// Absolute index of the first active window of the open burst.
    burst_start: Option<u64>,
}

impl<D: PacketDetector> DetectionReceiver<D> {
    /// Wraps a detector for streams at `params.sample_rate()`.
    pub fn new(detector: D, params: LoraParams) -> Self {
        DetectionReceiver {
            detector,
            params,
            window: params.samples_per_symbol(),
            gate_factor: 4.0,
            max_burst_windows: 128,
            buf: Vec::new(),
            buf_start: 0,
            noise_floor: None,
            noise_context: Vec::new(),
            noise_context_windows: 24,
            burst: Vec::new(),
            burst_start: None,
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &D {
        &self.detector
    }

    /// Consumes every complete gate window currently buffered.
    fn drain_windows(&mut self, out: &mut Vec<GatewayPacket>) {
        while self.buf.len() >= self.window {
            let power = self.buf[..self.window]
                .iter()
                .map(|s| s.norm_sqr())
                .sum::<f64>()
                / self.window as f64;
            let active = match self.noise_floor {
                // The very first window seeds the floor and cannot fire.
                None => false,
                Some(floor) => power > floor * self.gate_factor,
            };
            if active {
                if self.burst_start.is_none() {
                    self.burst_start = Some(self.buf_start);
                    self.burst.clear();
                    self.burst.extend_from_slice(&self.noise_context);
                }
                self.burst.extend_from_slice(&self.buf[..self.window]);
                if self.burst.len() >= self.max_burst_windows * self.window {
                    self.evaluate_burst(out);
                }
            } else {
                if self.burst_start.is_some() {
                    // Close the burst with this quiet window as tail context.
                    self.burst.extend_from_slice(&self.buf[..self.window]);
                    self.evaluate_burst(out);
                }
                self.noise_floor = Some(match self.noise_floor {
                    None => power,
                    Some(floor) => floor.min(power),
                });
                self.noise_context
                    .extend_from_slice(&self.buf[..self.window]);
                let cap = self.noise_context_windows * self.window;
                if self.noise_context.len() > cap {
                    let excess = self.noise_context.len() - cap;
                    self.noise_context.drain(..excess);
                }
            }
            self.buf.drain(..self.window);
            self.buf_start += self.window as u64;
        }
    }

    /// Runs the detector over the accumulated burst and emits a marker
    /// packet if it confirms.
    fn evaluate_burst(&mut self, out: &mut Vec<GatewayPacket>) {
        let rate = self.params.sample_rate();
        let start = self.burst_start.take().expect("burst is open");
        let capture = SampleBuffer::new(std::mem::take(&mut self.burst), rate);
        if self.detector.detect(&capture) {
            out.push(detection_marker(start as f64 / rate));
        }
    }
}

/// Builds the empty-symbols marker packet a detection reports as.
fn detection_marker(time_s: f64) -> GatewayPacket {
    GatewayPacket {
        channel: 0,
        result: DemodResult {
            symbols: Vec::new(),
            peak_times: Vec::new(),
            correlation_scores: Vec::new(),
            payload_start_time: time_s,
            preamble_peaks: 0,
            thresholds: Thresholds {
                high: 0.0,
                low: 0.0,
            },
        },
    }
}

impl<D: PacketDetector> Receiver for DetectionReceiver<D> {
    fn backend_name(&self) -> &'static str {
        self.detector.name()
    }

    fn input_rate(&self) -> f64 {
        self.params.sample_rate()
    }

    fn feed(&mut self, chunk: &[Iq]) -> Vec<GatewayPacket> {
        let mut out = Vec::new();
        self.buf.extend_from_slice(chunk);
        self.drain_windows(&mut out);
        out
    }

    fn flush(&mut self) -> Vec<GatewayPacket> {
        // Pad the tail to a whole window with silence, then close any burst
        // still open at stream end.
        let mut out = Vec::new();
        if !self.buf.is_empty() {
            let pad = self.window - (self.buf.len() % self.window);
            if pad < self.window {
                self.buf.extend(std::iter::repeat_n(Iq::ZERO, pad));
            }
            self.drain_windows(&mut out);
        }
        if self.burst_start.is_some() {
            self.evaluate_burst(&mut out);
        }
        out
    }

    fn reset(&mut self) {
        // The detector itself is stateless across captures; the adapter's
        // segmentation state is everything a stream carries.
        self.buf.clear();
        self.buf_start = 0;
        self.noise_floor = None;
        self.noise_context.clear();
        self.burst.clear();
        self.burst_start = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aloba::AlobaDetector;
    use crate::envelope_rx::EnvelopeReceiver;
    use crate::plora::PLoRaDetector;
    use lora_phy::modulator::Alphabet;
    use lora_phy::params::{Bandwidth, BitsPerChirp, SpreadingFactor};
    use lora_phy::templates::PacketTemplates;
    use rfsim::channel::dbm_to_buffer_power;
    use rfsim::noise::AwgnSource;
    use rfsim::units::Dbm;

    fn lora() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    fn trace_with_two_packets() -> SampleBuffer {
        let lora = lora();
        let templates = PacketTemplates::new(lora, Alphabet::Downlink);
        let sps = lora.samples_per_symbol();
        let scale = dbm_to_buffer_power(Dbm(-45.0)).sqrt();
        let mut samples = vec![Iq::ZERO; 8 * sps];
        for gap in [24, 8] {
            templates
                .assemble_scaled_extend(&[0, 1, 2, 3], scale, &mut samples)
                .unwrap();
            samples.resize(samples.len() + gap * sps, Iq::ZERO);
        }
        let mut trace = SampleBuffer::new(samples, lora.sample_rate());
        let mut awgn = AwgnSource::new(0xDE7);
        awgn.add_to(&mut trace, dbm_to_buffer_power(Dbm(-80.0)));
        trace
    }

    fn run(rx: &mut dyn Receiver, trace: &SampleBuffer, chunk: usize) -> Vec<GatewayPacket> {
        let mut out = Vec::new();
        for c in trace.samples.chunks(chunk) {
            out.extend(rx.feed(c));
        }
        out.extend(rx.flush());
        out
    }

    #[test]
    fn detections_are_marker_packets_and_chunk_invariant() {
        let trace = trace_with_two_packets();
        let mut per_chunking = Vec::new();
        for chunk in [257usize, 4096, trace.len()] {
            let mut rx = DetectionReceiver::new(AlobaDetector::new(lora()), lora());
            assert_eq!(rx.input_rate(), lora().sample_rate());
            let packets = run(&mut rx, &trace, chunk);
            assert_eq!(packets.len(), 2, "chunk {chunk}");
            assert!(packets.iter().all(|p| p.result.symbols.is_empty()));
            assert!(packets[0].result.payload_start_time < packets[1].result.payload_start_time);
            per_chunking.push(packets);
        }
        assert_eq!(per_chunking[0], per_chunking[1]);
        assert_eq!(per_chunking[0], per_chunking[2]);
    }

    #[test]
    fn all_three_baseline_detectors_see_a_strong_packet() {
        let trace = trace_with_two_packets();
        let lora = lora();
        let mut receivers: Vec<Box<dyn Receiver>> = vec![
            Box::new(DetectionReceiver::new(AlobaDetector::new(lora), lora)),
            Box::new(DetectionReceiver::new(PLoRaDetector::new(lora), lora)),
            Box::new(DetectionReceiver::new(EnvelopeReceiver::new(lora), lora)),
        ];
        for rx in receivers.iter_mut() {
            let packets = run(rx.as_mut(), &trace, 4096);
            assert_eq!(packets.len(), 2, "{}", rx.backend_name());
        }
    }

    #[test]
    fn noise_only_streams_yield_no_detections() {
        let lora = lora();
        let mut silence = SampleBuffer::zeros(64 * lora.samples_per_symbol(), lora.sample_rate());
        let mut awgn = AwgnSource::new(0xBEE);
        awgn.add_to(&mut silence, dbm_to_buffer_power(Dbm(-80.0)));
        let mut rx = DetectionReceiver::new(AlobaDetector::new(lora), lora);
        assert!(run(&mut rx, &silence, 1000).is_empty());
    }
}
