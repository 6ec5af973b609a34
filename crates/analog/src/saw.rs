//! Surface Acoustic Wave (SAW) filter model.
//!
//! Saiyan re-purposes a Qualcomm B3790 SAW filter as a frequency→amplitude
//! converter: within the filter's *critical band* the amplitude response grows
//! monotonically with frequency, so a frequency-modulated chirp comes out
//! amplitude-modulated (paper §2.1, Fig. 5/6). We model the filter as a
//! causal linear-phase FIR whose amplitude response follows the measured
//! points reported in the paper:
//!
//! * insertion loss at the 434 MHz band edge: 10 dB;
//! * 25 dB of amplitude growth from 433.5 MHz → 434 MHz (500 kHz);
//! * 9.5 dB from 433.75 MHz → 434 MHz (250 kHz);
//! * 7.2 dB from 433.875 MHz → 434 MHz (125 kHz);
//! * steep roll-off outside the passband (Fig. 5 shows ≈ −60 dB at 428 MHz).
//!
//! Temperature shifts the whole response in frequency (the filter's
//! temperature coefficient of frequency), which is what Fig. 24 measures.

use lora_phy::fft::ifft;
use lora_phy::iq::{Iq, SampleBuffer};
use rfsim::units::{Celsius, Db, Hertz};

use crate::fir::ComplexFirState;

/// A point on the amplitude response curve: (absolute frequency, gain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponsePoint {
    /// Absolute RF frequency.
    pub frequency: Hertz,
    /// Filter gain at that frequency (negative = attenuation).
    pub gain: Db,
}

/// Frequency-dependent amplitude response of the SAW filter.
#[derive(Debug, Clone, PartialEq)]
pub struct SawFilter {
    /// Piecewise-linear response control points, sorted by frequency.
    points: Vec<ResponsePoint>,
    /// Nominal temperature at which the response was measured.
    reference_temperature: Celsius,
    /// Temperature coefficient of frequency in ppm/°C (negative: the response
    /// slides down in frequency as temperature rises).
    tcf_ppm_per_c: f64,
    /// Current operating temperature.
    temperature: Celsius,
}

impl SawFilter {
    /// Temperature coefficient of frequency. Saiyan's range is only mildly
    /// temperature dependent in Fig. 24, which is consistent with a
    /// temperature-compensated (quartz-substrate) SAW device; we default to
    /// −4 ppm/°C and expose the knob for sensitivity studies.
    pub const DEFAULT_TCF_PPM_PER_C: f64 = -4.0;

    /// Builds the paper's B3790 response (measured points from Fig. 5).
    pub fn paper_b3790() -> Self {
        let points = vec![
            ResponsePoint {
                frequency: Hertz::from_mhz(428.0),
                gain: Db(-60.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(431.0),
                gain: Db(-52.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(433.0),
                gain: Db(-42.0),
            },
            // Critical band: 433.5 -> 434.0 MHz rises by 25 dB to the -10 dB
            // insertion loss at the band edge.
            ResponsePoint {
                frequency: Hertz::from_mhz(433.5),
                gain: Db(-35.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(433.75),
                gain: Db(-19.5),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(433.875),
                gain: Db(-17.2),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(434.0),
                gain: Db(-10.0),
            },
            // Passband plateau and upper skirt.
            ResponsePoint {
                frequency: Hertz::from_mhz(435.5),
                gain: Db(-10.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(436.5),
                gain: Db(-24.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(438.0),
                gain: Db(-45.0),
            },
            ResponsePoint {
                frequency: Hertz::from_mhz(440.0),
                gain: Db(-60.0),
            },
        ];
        SawFilter {
            points,
            reference_temperature: Celsius(25.0),
            tcf_ppm_per_c: Self::DEFAULT_TCF_PPM_PER_C,
            temperature: Celsius(25.0),
        }
    }

    /// Sets the operating temperature (shifts the response).
    pub fn with_temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// The frequency shift of the response at the current temperature.
    pub fn temperature_shift(&self) -> Hertz {
        let delta_t = self.temperature.value() - self.reference_temperature.value();
        let centre = 434.0e6;
        Hertz(centre * self.tcf_ppm_per_c * 1e-6 * delta_t)
    }

    /// Gain of the filter at an absolute frequency, interpolated in dB.
    pub fn gain_at(&self, frequency: Hertz) -> Db {
        // Temperature moves the response curve; equivalently, evaluate the
        // reference curve at (f - shift).
        let f = frequency.value() - self.temperature_shift().value();
        let first = self.points.first().expect("response has points");
        let last = self.points.last().expect("response has points");
        if f <= first.frequency.value() {
            return first.gain;
        }
        if f >= last.frequency.value() {
            return last.gain;
        }
        for w in self.points.windows(2) {
            let (p0, p1) = (w[0], w[1]);
            if f >= p0.frequency.value() && f <= p1.frequency.value() {
                let span = p1.frequency.value() - p0.frequency.value();
                let frac = if span > 0.0 {
                    (f - p0.frequency.value()) / span
                } else {
                    0.0
                };
                return Db(p0.gain.value() + frac * (p1.gain.value() - p0.gain.value()));
            }
        }
        last.gain
    }

    /// Amplitude gap (dB) between the top of a chirp sweep ending at
    /// `band_edge` and its start `bandwidth` below — the quantity plotted in
    /// Fig. 23.
    pub fn amplitude_gap(&self, band_edge: Hertz, bandwidth: Hertz) -> Db {
        let top = self.gain_at(band_edge);
        let bottom = self.gain_at(Hertz(band_edge.value() - bandwidth.value()));
        Db(top.value() - bottom.value())
    }

    /// Applies the filter to a whole complex-baseband buffer whose 0 Hz
    /// corresponds to `carrier`: the [`Self::streaming_fir`] kernel of
    /// `n_taps` taps run over the buffer, with its group delay removed so
    /// each output sample lines up with its input sample.
    pub fn apply(&self, input: &SampleBuffer, carrier: Hertz, n_taps: usize) -> SampleBuffer {
        let mut fir = self.streaming_fir(carrier, input.sample_rate, n_taps);
        let delay = fir.delay_samples();
        let mut padded = input.samples.clone();
        padded.resize(input.len() + delay, Iq::ZERO);
        let mut out = fir.filter_chunk(&padded);
        out.drain(..delay);
        SampleBuffer::new(out, input.sample_rate)
    }

    /// Designs the causal FIR realisation of this filter.
    ///
    /// This samples the amplitude response on an `n_taps`-point grid
    /// (relative to `carrier` at baseband, `n_taps` a power of two), takes
    /// the inverse FFT, rotates the zero-phase kernel to a causal
    /// linear-phase one with a group delay of `n_taps / 2` samples, and
    /// applies a Hann window. The constant group delay shifts every envelope
    /// peak equally and is therefore invisible to the peak-position decoder,
    /// which recovers timing from the preamble itself.
    pub fn streaming_fir(&self, carrier: Hertz, sample_rate: f64, n_taps: usize) -> SawFirState {
        assert!(
            n_taps >= 8 && n_taps.is_power_of_two(),
            "n_taps must be a power of two >= 8, got {n_taps}"
        );
        let l = n_taps;
        // Desired (real, zero-phase) amplitude response per FFT bin.
        let desired: Vec<Iq> = (0..l)
            .map(|k| {
                let fb = if (k as f64) < l as f64 / 2.0 {
                    k as f64 * sample_rate / l as f64
                } else {
                    (k as f64 - l as f64) * sample_rate / l as f64
                };
                let gain = self.gain_at(Hertz(carrier.value() + fb));
                Iq::new(10f64.powf(gain.value() / 20.0), 0.0)
            })
            .collect();
        let h = ifft(&desired).expect("n_taps is a power of two");
        // Rotate so the kernel's centre lands at index l/2 (causal, linear
        // phase) and taper with a Hann window to suppress Gibbs ripple.
        let delay = l / 2;
        let taps: Vec<Iq> = (0..l)
            .map(|i| {
                let w = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * i as f64 / l as f64).cos());
                h[(i + l - delay) % l].scale(w)
            })
            .collect();
        SawFirState {
            fir: ComplexFirState::new(taps),
        }
    }

    /// The response sampled over `[start, stop]` at `steps` points — used to
    /// regenerate Fig. 5.
    pub fn response_curve(&self, start: Hertz, stop: Hertz, steps: usize) -> Vec<ResponsePoint> {
        let steps = steps.max(2);
        (0..steps)
            .map(|i| {
                let f =
                    start.value() + (stop.value() - start.value()) * i as f64 / (steps - 1) as f64;
                ResponsePoint {
                    frequency: Hertz(f),
                    gain: self.gain_at(Hertz(f)),
                }
            })
            .collect()
    }
}

/// Carried state of the streaming SAW filter: a complex FIR kernel plus the
/// delay-line history it convolves against (shared machinery:
/// [`crate::fir::ComplexFirState`]). Because the convolution of sample `n`
/// only reads samples `n - n_taps + 1 ..= n`, chunked filtering of a stream
/// is bit-exactly independent of where the chunk boundaries fall.
#[derive(Debug, Clone, PartialEq)]
pub struct SawFirState {
    fir: ComplexFirState,
}

impl SawFirState {
    /// The number of FIR taps.
    pub fn n_taps(&self) -> usize {
        self.fir.n_taps()
    }

    /// The constant group delay of the kernel, in samples.
    pub fn delay_samples(&self) -> usize {
        self.fir.n_taps() / 2
    }

    /// Filters one chunk, producing one output sample per input sample.
    /// Allocates a fresh buffer per call; steady-state callers should prefer
    /// [`Self::filter_chunk_into`].
    pub fn filter_chunk(&mut self, chunk: &[Iq]) -> Vec<Iq> {
        self.fir.filter_chunk(chunk)
    }

    /// Filters one chunk into a caller-provided buffer (cleared first) with
    /// no steady-state allocation — see
    /// [`ComplexFirState::filter_chunk_into`].
    pub fn filter_chunk_into(&mut self, chunk: &[Iq], out: &mut Vec<Iq>) {
        self.fir.filter_chunk_into(chunk, out);
    }
}

impl crate::stage::BlockStage for SawFirState {
    type In = Iq;
    type Out = Iq;
    fn process_into(&mut self, input: &[Iq], out: &mut Vec<Iq>) {
        self.filter_chunk_into(input, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::chirp::ChirpGenerator;
    use lora_phy::params::{Bandwidth, BitsPerChirp, LoraParams, SpreadingFactor};

    /// The receiver's SAW FIR length (`saiyan::Frontend::STREAMING_SAW_TAPS`).
    const RECEIVER_TAPS: usize = 128;

    fn sf7_params() -> LoraParams {
        LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        )
    }

    #[test]
    fn streaming_fir_matches_response_in_critical_band() {
        // A complex tone at baseband offset fb should come out scaled by
        // roughly the designed amplitude response.
        let saw = SawFilter::paper_b3790();
        let params = sf7_params();
        let fs = params.sample_rate();
        let carrier = Hertz(params.carrier_hz);
        for fb_khz in [100.0, 250.0, 400.0] {
            let mut fir = saw.streaming_fir(carrier, fs, 128);
            let n = 4000;
            let w = 2.0 * std::f64::consts::PI * fb_khz * 1e3 / fs;
            let tone: Vec<Iq> = (0..n).map(|i| Iq::phasor(w * i as f64)).collect();
            let out = fir.filter_chunk(&tone);
            // Steady-state amplitude, past the kernel's transient.
            let steady = &out[1000..n - 100];
            let amp = steady.iter().map(Iq::abs).sum::<f64>() / steady.len() as f64;
            let expected =
                10f64.powf(saw.gain_at(Hertz(carrier.value() + fb_khz * 1e3)).value() / 20.0);
            let err_db = 20.0 * (amp / expected).log10();
            assert!(
                err_db.abs() < 2.0,
                "fb {fb_khz} kHz: amp {amp:.3e} vs expected {expected:.3e} ({err_db:.2} dB)"
            );
        }
    }

    #[test]
    fn streaming_fir_is_chunk_invariant() {
        let params = sf7_params();
        let gen = ChirpGenerator::new(params);
        let chirp = gen.base_upchirp();
        let saw = SawFilter::paper_b3790();
        let mut reference = saw.streaming_fir(Hertz(params.carrier_hz), params.sample_rate(), 128);
        let batch = reference.filter_chunk(&chirp.samples);
        for chunk_size in [1usize, 7, 64, 509, chirp.len()] {
            let mut fir = saw.streaming_fir(Hertz(params.carrier_hz), params.sample_rate(), 128);
            let mut out = Vec::new();
            for chunk in chirp.samples.chunks(chunk_size) {
                out.extend(fir.filter_chunk(chunk));
            }
            assert_eq!(out, batch, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn streaming_fir_chirp_peaks_late_like_batch_filter() {
        // The FIR path must preserve the frequency→amplitude property the
        // decoder relies on: the base up-chirp's envelope grows through the
        // symbol and peaks near its end (modulo the constant group delay).
        let params = sf7_params();
        let gen = ChirpGenerator::new(params);
        let chirp = gen.base_upchirp();
        let saw = SawFilter::paper_b3790();
        let mut fir = saw.streaming_fir(Hertz(params.carrier_hz), params.sample_rate(), 128);
        let out = fir.filter_chunk(&chirp.samples);
        let env: Vec<f64> = out.iter().map(Iq::abs).collect();
        let n = env.len();
        let peak_idx = env
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx > 3 * n / 4, "peak at {peak_idx}/{n}");
        let early: f64 = env[n / 16..n / 8].iter().sum::<f64>() / (n / 16) as f64;
        let late: f64 = env[n - n / 8..n - n / 16].iter().sum::<f64>() / (n / 16) as f64;
        let gap_db = 20.0 * (late / early).log10();
        assert!(gap_db > 15.0, "gap only {gap_db:.1} dB");
    }

    #[test]
    fn paper_response_points_match_figure5() {
        let saw = SawFilter::paper_b3790();
        // 25 dB variation over the top 500 kHz below 434 MHz.
        let gap500 = saw.amplitude_gap(Hertz::from_mhz(434.0), Hertz::from_khz(500.0));
        assert!(
            (gap500.value() - 25.0).abs() < 0.1,
            "gap {}",
            gap500.value()
        );
        // 9.5 dB over 250 kHz and 7.2 dB over 125 kHz.
        let gap250 = saw.amplitude_gap(Hertz::from_mhz(434.0), Hertz::from_khz(250.0));
        assert!((gap250.value() - 9.5).abs() < 0.1);
        let gap125 = saw.amplitude_gap(Hertz::from_mhz(434.0), Hertz::from_khz(125.0));
        assert!((gap125.value() - 7.2).abs() < 0.1);
        // Insertion loss at the band edge is 10 dB.
        assert!((saw.gain_at(Hertz::from_mhz(434.0)).value() + 10.0).abs() < 0.1);
    }

    #[test]
    fn gain_is_monotone_in_critical_band() {
        let saw = SawFilter::paper_b3790();
        let mut prev = f64::NEG_INFINITY;
        for khz in (433_500..=434_000).step_by(25) {
            let g = saw.gain_at(Hertz::from_khz(khz as f64)).value();
            assert!(g >= prev, "non-monotone at {khz} kHz");
            prev = g;
        }
    }

    #[test]
    fn chirp_becomes_amplitude_modulated() {
        // Feed the base up-chirp (433.5 -> 434 MHz) through the filter: the
        // output amplitude should grow through the symbol and peak near the
        // end, with roughly the 25 dB gap of Fig. 6.
        let params = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        let gen = ChirpGenerator::new(params);
        let chirp = gen.base_upchirp();
        let saw = SawFilter::paper_b3790();
        let out = saw.apply(&chirp, Hertz(params.carrier_hz), RECEIVER_TAPS);
        let env = out.envelope();
        let n = env.len();
        // Compare early-symbol amplitude to late-symbol amplitude.
        let early: f64 = env[n / 16..n / 8].iter().sum::<f64>() / (n / 16) as f64;
        let late: f64 = env[n - n / 8..n - n / 16].iter().sum::<f64>() / (n / 16) as f64;
        let gap_db = 20.0 * (late / early).log10();
        assert!(gap_db > 15.0, "gap only {gap_db:.1} dB");
        // The peak must be in the last quarter of the symbol.
        let peak_idx = env
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx > 3 * n / 4, "peak at {peak_idx}/{n}");
    }

    #[test]
    fn different_symbols_peak_at_different_times() {
        let params = LoraParams::new(
            SpreadingFactor::Sf7,
            Bandwidth::Khz500,
            BitsPerChirp::new(2).unwrap(),
        );
        let gen = ChirpGenerator::new(params);
        let saw = SawFilter::paper_b3790();
        let mut peak_indices = Vec::new();
        for symbol in 0..4u32 {
            let chirp = gen.downlink_chirp(symbol).unwrap();
            let out = saw.apply(&chirp, Hertz(params.carrier_hz), RECEIVER_TAPS);
            let env = out.envelope();
            let peak = env
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            peak_indices.push(peak);
        }
        // Higher symbols start closer to the band edge, so they peak earlier.
        for w in peak_indices.windows(2) {
            assert!(w[1] < w[0], "peaks {peak_indices:?} not strictly earlier");
        }
    }

    /// Fig. 6's measurement of one symbol's SAW output envelope: the peak
    /// time (µs) and the peak over the mean of the first eighth (dB).
    fn fig06_peak_and_gap(env: &[f64], sample_rate: f64) -> (f64, f64) {
        let (peak_idx, peak) = env
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let early = env[..env.len() / 8].iter().sum::<f64>() / (env.len() / 8) as f64;
        (
            peak_idx as f64 / sample_rate * 1e6,
            20.0 * (peak / early.max(1e-12)).log10(),
        )
    }

    /// The (peak µs, gap dB) of each K=2 downlink symbol 0..4.
    type Fig06Symbols = [(f64, f64); 4];

    /// Fig. 6 as the retired zero-phase FFT model of the response measured
    /// it, per bandwidth and oversampling.
    const FFT_MODEL_FIG06: [(Bandwidth, u32, Fig06Symbols); 4] = [
        (
            Bandwidth::Khz500,
            8,
            [
                (251.0, 20.9717),
                (187.0, 14.4215),
                (123.0, 8.1167),
                (59.0, 4.5387),
            ],
        ),
        (
            Bandwidth::Khz500,
            4,
            [
                (255.0, 21.1236),
                (187.0, 14.4206),
                (123.0, 8.1501),
                (59.0, 4.5697),
            ],
        ),
        (
            Bandwidth::Khz250,
            4,
            [
                (510.0, 14.9107),
                (382.0, 10.7131),
                (254.0, 6.8501),
                (126.0, 2.9816),
            ],
        ),
        (
            Bandwidth::Khz125,
            4,
            [
                (1020.0, 8.3966),
                (764.0, 5.9934),
                (508.0, 4.0561),
                (252.0, 2.1187),
            ],
        ),
    ];

    #[test]
    fn fir_stays_within_fig06_tolerance_of_the_fft_model() {
        let saw = SawFilter::paper_b3790();
        for (bw, oversampling, expected) in FFT_MODEL_FIG06 {
            let params = LoraParams::new(SpreadingFactor::Sf7, bw, BitsPerChirp::new(2).unwrap())
                .with_oversampling(oversampling);
            let gen = ChirpGenerator::new(params);
            for (symbol, (peak_us, gap_db)) in expected.into_iter().enumerate() {
                let chirp = gen.downlink_chirp(symbol as u32).unwrap();
                let out = saw.apply(&chirp, Hertz(params.carrier_hz), RECEIVER_TAPS);
                let (fir_peak_us, fir_gap_db) =
                    fig06_peak_and_gap(&out.envelope(), params.sample_rate());
                let case = format!("{bw:?} x{oversampling} symbol {symbol}");
                assert!(
                    (fir_peak_us - peak_us).abs() <= 5.0,
                    "{case}: peak {fir_peak_us} us vs {peak_us} us"
                );
                assert!(
                    (fir_gap_db - gap_db).abs() <= 0.75,
                    "{case}: gap {fir_gap_db:.3} dB vs {gap_db} dB"
                );
            }
        }
    }

    #[test]
    fn temperature_shifts_response() {
        let saw_cold = SawFilter::paper_b3790().with_temperature(Celsius(-8.6));
        let saw_ref = SawFilter::paper_b3790();
        // At a temperature below the reference the response slides up in
        // frequency (negative TCF), changing the gain at a fixed frequency.
        let f = Hertz::from_mhz(433.75);
        assert_ne!(saw_cold.gain_at(f).value(), saw_ref.gain_at(f).value());
        let shift = saw_cold.temperature_shift().value();
        // -4 ppm/°C over the 33.6 °C difference from the 25 °C reference is
        // roughly 58 kHz.
        assert!(
            shift.abs() > 20.0e3 && shift.abs() < 120.0e3,
            "shift {shift}"
        );
    }

    #[test]
    fn response_curve_covers_requested_span() {
        let saw = SawFilter::paper_b3790();
        let curve = saw.response_curve(Hertz::from_mhz(428.0), Hertz::from_mhz(440.0), 25);
        assert_eq!(curve.len(), 25);
        assert_eq!(curve[0].frequency.value(), 428.0e6);
        assert_eq!(curve[24].frequency.value(), 440.0e6);
        // Out-of-band points are strongly attenuated.
        assert!(curve[0].gain.value() < -55.0);
    }
}
