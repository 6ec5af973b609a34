//! Square-law envelope detector.
//!
//! The envelope detector down-converts the (SAW-transformed, LNA-amplified)
//! signal to baseband by squaring it (paper Eq. 4): `S_out = k (S_t + S_n)^2 =
//! k S_t^2 + 2 k S_t S_n + k S_n^2`. The cross term and the noise-squared term
//! land on top of the wanted baseband envelope, and the detector additionally
//! contributes its own low-frequency noise (DC offset and flicker), which is
//! exactly the SNR loss the cyclic-frequency-shifting circuit of §3.1 works
//! around.

use lora_phy::iq::{Iq, SampleBuffer};
use rfsim::noise::AwgnSource;

use crate::signal::RealBuffer;

/// Noise the detector itself injects into its baseband output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorNoise {
    /// Static DC offset at the output (volts).
    pub dc_offset: f64,
    /// Standard deviation of the white output noise (volts per sample).
    pub white_sigma: f64,
    /// Standard deviation of the flicker (low-frequency) noise component (volts).
    pub flicker_sigma: f64,
    /// Corner frequency of the flicker noise (Hz); below this the flicker
    /// component dominates the white component.
    pub flicker_corner_hz: f64,
}

impl DetectorNoise {
    /// Noise model calibrated so that (a) the vanilla chain's sensitivity is
    /// limited by detector noise, as the paper reports for envelope-detector
    /// receivers, and (b) moving the envelope to an intermediate frequency
    /// (cyclic-frequency shifting) recovers roughly 11 dB of SNR, dominated by
    /// escaping the flicker/DC noise.
    pub fn paper_default() -> Self {
        DetectorNoise {
            dc_offset: 2.0e-6,
            white_sigma: 1.2e-7,
            flicker_sigma: 1.0e-6,
            flicker_corner_hz: 60_000.0,
        }
    }

    /// A noiseless detector (useful for unit tests of downstream blocks).
    pub fn none() -> Self {
        DetectorNoise {
            dc_offset: 0.0,
            white_sigma: 0.0,
            flicker_sigma: 0.0,
            flicker_corner_hz: 1.0,
        }
    }
}

/// Square-law envelope detector.
#[derive(Debug, Clone)]
pub struct EnvelopeDetector {
    /// Detector conversion gain `k` (output volts per input watt-equivalent).
    pub conversion_gain: f64,
    /// The detector's own output noise.
    pub noise: DetectorNoise,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl Default for EnvelopeDetector {
    fn default() -> Self {
        EnvelopeDetector {
            conversion_gain: 1.0,
            noise: DetectorNoise::paper_default(),
            seed: 0xE7E0,
        }
    }
}

impl EnvelopeDetector {
    /// Creates a detector with the given conversion gain and noise model.
    pub fn new(conversion_gain: f64, noise: DetectorNoise) -> Self {
        EnvelopeDetector {
            conversion_gain,
            noise,
            seed: 0xE7E0,
        }
    }

    /// Creates an ideal (noise-free) detector.
    pub fn ideal() -> Self {
        EnvelopeDetector::new(1.0, DetectorNoise::none())
    }

    /// Sets the noise seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Detects the envelope: output voltage is `k |x|^2` plus detector noise.
    ///
    /// Squaring the *complete* input (signal + channel noise) reproduces the
    /// self-mixing products of Eq. 4 without any special casing.
    pub fn detect(&self, input: &SampleBuffer) -> RealBuffer {
        let mut state = self.streaming(input.sample_rate);
        let out = state.detect_chunk(&input.samples);
        RealBuffer::new(out, input.sample_rate)
    }

    /// Creates a streaming detector state at the given sample rate. The noise
    /// source and the flicker integrator are seeded once and then carried across
    /// chunks, so chunked detection of a stream equals [`Self::detect`] on the
    /// concatenated buffer bit-exactly, wherever the chunk boundaries fall.
    pub fn streaming(&self, sample_rate: f64) -> EnvelopeDetectorState {
        // First-order low-pass of white noise whose cut-off is the flicker
        // corner; rescaled to the requested flicker standard deviation.
        let alpha = (self.noise.flicker_corner_hz / sample_rate).clamp(1e-6, 1.0);
        // Stationary std of the AR(1) process x[n] = (1-a)x[n-1] + sqrt(a)w[n]
        // with unit-variance drive: Var = a / (1 - (1-a)^2) = 1 / (2 - a).
        let ar_std = (1.0 / (2.0 - alpha)).sqrt().max(1e-12);
        EnvelopeDetectorState {
            conversion_gain: self.conversion_gain,
            noise: self.noise,
            noise_src: AwgnSource::new(self.seed),
            draws: Vec::new(),
            flicker_state: 0.0,
            alpha,
            sqrt_alpha: alpha.sqrt(),
            ar_std,
        }
    }
}

/// Carried state of a streaming [`EnvelopeDetector`]: the noise source and
/// the flicker (AR(1)) integrator survive across chunk boundaries.
#[derive(Debug, Clone)]
pub struct EnvelopeDetectorState {
    conversion_gain: f64,
    noise: DetectorNoise,
    noise_src: AwgnSource,
    /// Reusable scratch for a chunk's unit Gaussians, two per sample.
    draws: Vec<f64>,
    flicker_state: f64,
    alpha: f64,
    /// `alpha.sqrt()`, hoisted out of the per-sample AR(1) update.
    sqrt_alpha: f64,
    ar_std: f64,
}

impl EnvelopeDetectorState {
    /// Detects the envelope of one chunk, allocating a fresh output buffer.
    /// Steady-state callers should prefer [`Self::detect_chunk_into`].
    pub fn detect_chunk(&mut self, chunk: &[Iq]) -> Vec<f64> {
        let mut out = Vec::new();
        self.detect_chunk_into(chunk, &mut out);
        out
    }

    /// Detects the envelope of one chunk into a caller-provided buffer
    /// (cleared first), advancing the carried noise state.
    pub fn detect_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<f64>) {
        // A noiseless detector (both sigmas zero) skips the per-sample
        // Gaussian draws entirely: they would be multiplied by zero anyway,
        // and they dominate the cost of a quiet chain.
        let noiseless = self.noise.white_sigma == 0.0 && self.noise.flicker_sigma == 0.0;
        if noiseless {
            crate::simd::envelope_noiseless_into(
                crate::simd::active_backend(),
                chunk,
                self.conversion_gain,
                self.noise.dc_offset,
                out,
            );
            return;
        }
        // Two unit Gaussians per sample, white then flicker drive, drawn
        // for the whole chunk by the block fill in stream order.
        self.draws.resize(2 * chunk.len(), 0.0);
        self.noise_src.fill_gaussians(&mut self.draws, 1.0);
        out.clear();
        out.reserve(chunk.len());
        for (s, g) in chunk.iter().zip(self.draws.chunks_exact(2)) {
            let envelope = self.conversion_gain * s.norm_sqr();
            let white = self.noise.white_sigma * g[0];
            self.flicker_state = (1.0 - self.alpha) * self.flicker_state + self.sqrt_alpha * g[1];
            let flicker = self.noise.flicker_sigma * self.flicker_state / self.ar_std;
            out.push(envelope + self.noise.dc_offset + white + flicker);
        }
    }
}

impl crate::stage::BlockStage for EnvelopeDetectorState {
    type In = Iq;
    type Out = f64;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<f64>) {
        self.detect_chunk_into(input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_detector_is_chunk_invariant() {
        let det = EnvelopeDetector::default().with_seed(0x51AE);
        let fs = 2e6;
        let input = SampleBuffer::new(
            (0..5_003)
                .map(|i| Iq::from_polar(1e-4 * (1.0 + (i % 97) as f64 / 97.0), 0.01 * i as f64))
                .collect(),
            fs,
        );
        let batch = det.detect(&input);
        for chunk_size in [1usize, 7, 64, 4_096, 5_003] {
            let mut state = det.streaming(fs);
            let mut out = Vec::new();
            for chunk in input.samples.chunks(chunk_size) {
                out.extend(state.detect_chunk(chunk));
            }
            assert_eq!(out, batch.samples, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn ideal_detector_squares_amplitude() {
        let det = EnvelopeDetector::ideal();
        let input = SampleBuffer::new(vec![Iq::new(0.5, 0.0); 100], 1e6);
        let out = det.detect(&input);
        for v in &out.samples {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn output_follows_am_envelope() {
        // An amplitude-modulated input should produce a proportional envelope.
        let det = EnvelopeDetector::ideal();
        let n = 1000;
        let samples: Vec<Iq> = (0..n)
            .map(|i| {
                let a = 0.1 + 0.9 * i as f64 / n as f64;
                Iq::from_polar(a, 0.3 * i as f64)
            })
            .collect();
        let out = det.detect(&SampleBuffer::new(samples, 1e6));
        // Envelope must be monotonically increasing (squared ramp).
        for w in out.samples.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
        assert!((out.samples[n - 1] - 1.0 * 1.0).abs() < 2.5e-3);
    }

    #[test]
    fn detector_noise_sets_a_floor() {
        let det = EnvelopeDetector::default();
        let silent = SampleBuffer::zeros(50_000, 2e6);
        let out = det.detect(&silent);
        // With no input the output is DC offset + noise; its variance must be
        // non-zero and its mean close to the DC offset.
        let mean = out.mean();
        assert!((mean - det.noise.dc_offset).abs() < det.noise.dc_offset * 0.5 + 1e-7);
        let var = out.samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / out.len() as f64;
        assert!(var > 0.0);
    }

    #[test]
    fn flicker_noise_is_concentrated_at_low_frequency() {
        let det = EnvelopeDetector::default().with_seed(99);
        let silent = SampleBuffer::zeros(60_000, 2e6);
        let out = det.detect(&silent).dc_removed();
        let low = out.band_power(1_000.0, 40_000.0);
        let high = out.band_power(400_000.0, 439_000.0);
        assert!(
            low > 3.0 * high,
            "flicker should dominate at low frequency: low {low:.3e} high {high:.3e}"
        );
    }

    #[test]
    fn self_mixing_degrades_weak_signals_more() {
        // Square-law detection: output SNR falls roughly with the square of
        // input SNR for weak inputs. Check that halving the input amplitude
        // reduces the output signal term by 6 dB (quarter power).
        let det = EnvelopeDetector::ideal();
        let strong = det.detect(&SampleBuffer::new(vec![Iq::new(1e-3, 0.0); 10], 1e6));
        let weak = det.detect(&SampleBuffer::new(vec![Iq::new(5e-4, 0.0); 10], 1e6));
        let ratio = strong.samples[0] / weak.samples[0];
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}
